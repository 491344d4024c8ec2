"""Exact scalars: rational functions in one parameter q over the rationals.

A scalar is a reduced fraction num/den of polynomials in q.  A coefficient
is an int when it is integral, else a Fraction; every true division of
coefficients goes through the exact ``_div``.  Polynomials are coefficient
tuples (index = power of q) with no trailing zeros; the zero polynomial is
the empty tuple.  The denominator is monic and coprime to the numerator, so
equality and hashing are structural.  Plain rationals are the degree-zero
case; they hash as their value, so a scalar equal to an int or a Fraction
hashes like it.

Arithmetic dispatches on three shapes of its operands, so that only the
shapes that need it pay the Euclidean gcd of the general constructor:

* two rational constants combine in one coefficient operation;
* when both denominators are powers of q, the sum or product is taken over
  ``q^max(ka, kb)`` or ``q^(ka + kb)`` and the common power of q is
  stripped from the numerator; a constant's denominator is ``q^0 = 1``, so
  a constant and a polynomial or Laurent polynomial meet here;
* every other shape goes through ``Scalar(num, den)``, which divides out
  the gcd and makes the denominator monic.

Every path yields exactly the canonical form the general constructor
yields, and that constructor stays the reference the tests compare the
fast paths against.  The constant step, the power-of-q sum and the
product of two monomials were each measured alone against the code without
it, on int coefficients; ``_constant``, ``_add`` and ``_mul`` give the
figures.
Powers use repeated squaring, and a monomial base c*q^k goes straight to
``Scalar.q_power`` times the constant c^n.  ``ZERO``, ``ONE`` and
``MINUS_ONE`` are shared instances, since scalars are immutable, and every
result of this module whose value is 0, 1 or -1 is one of them (only
``Scalar(num, den)`` called directly builds a new one): ``_constant``
finishes every rational constant.  So ``c is ONE`` tests for the value 1,
and a caller that passes a factor ``ONE`` through (``at_slot``,
``add_scaled``) sees every unit.  A product with ``ONE`` returns the other
operand and negation swaps ``ONE`` and ``MINUS_ONE``, so products and
negations of these signs allocate nothing.

A small recursive-descent parser reads expressions such as
``(q^2 - 1)/(q - 1)`` or ``-3/2 * q``; ``str`` emits a form the parser
reads back.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple, Union

Coeff = Union[int, Fraction]
Poly = Tuple[Coeff, ...]  # an int where integral, else a Fraction

_ZERO = 0
_ONE = 1
_UNIT: Poly = (_ONE,)


def _coeff(c: Coeff) -> Coeff:
    """c in canonical form: an int when it is integral, else a Fraction."""
    return c.numerator if c.denominator == 1 else c


def _div(a: Coeff, b: Coeff) -> Coeff:
    return _coeff(Fraction(a) / b)  # int / int would be a float


def _trim(coeffs) -> Poly:
    """The coefficients, each by ``_coeff``, less the trailing zeros."""
    coeffs = [c.numerator if c.denominator == 1 else c for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _padd(a: Poly, b: Poly) -> Poly:
    """A copy of the longer operand plus the nonzero coefficients of the other."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        if c:
            out[i] += c
    return _trim(out)


def _pneg(a: Poly) -> Poly:
    return tuple([-c if c else _ZERO for c in a])


def _pmul(a: Poly, b: Poly) -> Poly:
    """The product, over the nonzero coefficients of both operands only: a
    monomial c*q^k costs one multiply-add per term of the other operand."""
    if not a or not b:
        return ()
    out = [_ZERO] * (len(a) + len(b) - 1)
    terms = [(j, cb) for j, cb in enumerate(b) if cb]
    for i, ca in enumerate(a):
        if ca:
            for j, cb in terms:
                out[i + j] += ca * cb
    return _trim(out)


def _pscale(a: Poly, c: Coeff) -> Poly:
    """a*c; zero coefficients stay the shared ``_ZERO``."""
    if c == 0:
        return ()
    return _trim(x * c if x else _ZERO for x in a)


def _pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Of trimmed a and b: a step cancels the lead, and one ``_trim`` drops it."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [_ZERO] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b):
        coeff = _div(r[-1], b[-1])
        deg = len(r) - len(b)
        q[deg] = coeff
        for i, cb in enumerate(b):
            r[deg + i] -= coeff * cb
        r = list(_trim(r))
    return tuple(q), tuple(r)


def _pgcd(a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if not a:
        return ()
    return _pscale(a, _div(_ONE, a[-1]))  # monic


def _q_order(den: Poly) -> int:
    """k when the monic polynomial ``den`` is q^k, else -1."""
    k = len(den) - 1
    if k and any(den[:k]):
        return -1
    return k


class Scalar:
    """An element of Q(q) in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, *, _canonical: bool = False):
        if not _canonical:
            num, den = _trim(num), _trim(den)
            if not den:
                raise ZeroDivisionError("scalar with zero denominator")
            g = _pgcd(num, den)
            if g and g != (_ONE,):
                num = _pdivmod(num, g)[0]
                den = _pdivmod(den, g)[0]
            lead = den[-1]
            if lead != 1:
                num = _pscale(num, _div(_ONE, lead))
                den = _pscale(den, _div(_ONE, lead))
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(value: Coeff) -> "Scalar":
        if type(value) is not int and type(value) is not Fraction:
            if not isinstance(value, (int, Fraction)):
                raise TypeError(f"a {type(value).__name__} is not an exact scalar: {value!r}")
            value = Fraction(value)
        return _constant(value)

    @staticmethod
    def q_power(n: int) -> "Scalar":
        if n == 0:
            return ONE
        if n > 0:
            return Scalar((_ZERO,) * n + (_ONE,), (_ONE,), _canonical=True)
        return Scalar((_ONE,), (_ZERO,) * (-n) + (_ONE,), _canonical=True)

    @staticmethod
    def coerce(value: Union["Scalar", int, Fraction]) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar.from_rational(value)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        return len(self.num) <= 1 and self.den == (_ONE,)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Scalar":
        return _add(self, Scalar.coerce(other))

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _neg(self)

    def __sub__(self, other) -> "Scalar":
        return _add(self, _neg(Scalar.coerce(other)))

    def __rsub__(self, other) -> "Scalar":
        return _add(Scalar.coerce(other), _neg(self))

    def __mul__(self, other) -> "Scalar":
        return _mul(self, Scalar.coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        return _mul(self, _inverse(Scalar.coerce(other)))

    def __rtruediv__(self, other) -> "Scalar":
        return _mul(Scalar.coerce(other), _inverse(self))

    def __pow__(self, n: int) -> "Scalar":
        if n == 0:
            return ONE
        base = self if n > 0 else _inverse(self)
        n = abs(n)
        num, k = base.num, _q_order(base.den)
        if num and k >= 0 and not any(num[:-1]):
            # base = c*q^(i-k), c its only coefficient and i its degree.
            power = Scalar.q_power((len(num) - 1 - k) * n)
            return _mul(power, _constant(num[-1] ** n))
        out = ONE
        while n:
            if n & 1:
                out = _mul(out, base)
            n >>= 1
            if n:
                base = _mul(base, base)
        return out

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar.from_rational(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if len(self.den) == 1 and len(self.num) <= 1:
            # A rational constant hashes as the number it equals.
            return hash(self.num[0]) if self.num else 0
        return hash((self.num, self.den))

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        num = _poly_str(self.num)
        if self.den == (_ONE,):
            return num
        den = _poly_str(self.den)
        if len(self.num) > 1 or (self.num and self.num[0].denominator != 1):
            num = f"({num})"
        if len(self.den) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self) -> str:
        return f"Scalar({self})"


# -- shape dispatch ---------------------------------------------------------
#
# The operands are canonical.  A rational constant has len(den) == 1 (its
# monic denominator is 1) and len(num) == 1 once zero is ruled out.


def _neg(a: Scalar) -> Scalar:
    if a is ONE:
        return MINUS_ONE
    if a is MINUS_ONE:
        return ONE
    if not a.num:
        return ZERO
    return Scalar(_pneg(a.num), a.den, _canonical=True)


def _constant(c: Coeff) -> Scalar:
    """The rational constant c: ``ZERO``, ``ONE`` or ``MINUS_ONE`` for 0, 1
    and -1, else a new scalar.  A sum, product or reciprocal of two constants
    is one coefficient operation finished here.  On ``laws``, 10 alternating
    pairs of 20-s seed-1 runs: 2,039.9 ops/s median with that step, 1,832.6
    without; it won 10 of 10, and the runs with it had quartiles
    1,981.7-2,069.0."""
    if type(c) is not int:
        if c.denominator != 1:
            return Scalar((c,), _UNIT, _canonical=True)
        c = c.numerator
    if -1 <= c <= 1:
        return _SHARED[c]
    return Scalar((c,), _UNIT, _canonical=True)


def _general(num: Poly, den: Poly) -> Scalar:
    """Scalar(num, den), with the shared object for 0, 1 and -1."""
    s = Scalar(num, den)
    if len(s.den) == 1 and len(s.num) <= 1:
        return _constant(s.num[0]) if s.num else ZERO
    return s


def _over_q_power(num: Poly, k: int) -> Scalar:
    """num/q^k in canonical form: strip the common power of q."""
    if not num:
        return ZERO
    s = 0
    while s < k and not num[s]:
        s += 1
    if s:
        num = num[s:]
        k -= s
    if not k and len(num) == 1:
        return _constant(num[0])
    return Scalar(num, (_ZERO,) * k + _UNIT, _canonical=True)


def _inverse(a: Scalar) -> Scalar:
    """1/a: swap, then make the new denominator monic; no gcd is needed."""
    num, den = a.num, a.den
    if not num:
        raise ZeroDivisionError("scalar division by zero")
    if len(num) == 1 and len(den) == 1:
        return _constant(_div(_ONE, num[0]))
    lead = num[-1]
    if lead == 1:
        return Scalar(den, num, _canonical=True)
    inv = _div(_ONE, lead)
    return Scalar(_pscale(den, inv), _pscale(num, inv), _canonical=True)


def _add(a: Scalar, b: Scalar) -> Scalar:
    """a + b.  When both denominators are powers of q, the sum is taken over
    the larger one with no gcd.  On ``laws``, on int coefficients, 10
    alternating pairs of 20-s seed-1 runs: 2,056.0 ops/s median with that
    branch, 1,681.2 without; it won 10 of 10, and the runs with it had
    quartiles 2,019.8-2,088.3."""
    an, ad, bn, bd = a.num, a.den, b.num, b.den
    if not an:
        return b
    if not bn:
        return a
    if len(ad) == len(bd) == len(an) == len(bn) == 1:
        return _constant(an[0] + bn[0])
    ka, kb = _q_order(ad), _q_order(bd)
    if ka >= 0 and kb >= 0:
        k = max(ka, kb)
        return _over_q_power(
            _padd((_ZERO,) * (k - ka) + an, (_ZERO,) * (k - kb) + bn), k
        )
    return _general(_padd(_pmul(an, bd), _pmul(bn, ad)), _pmul(ad, bd))


def _mul(a: Scalar, b: Scalar) -> Scalar:
    """a * b.  When both denominators are powers of q, the product is taken
    over q^(ka + kb) with no gcd, and two monomials multiply with one
    coefficient product.  On ``build``, whose diagonal channels carry q^2
    to q^50, on int coefficients, 10 alternating pairs of 20-s seed-1 runs:
    476.9 ops/s median with that branch, 456.8 without; it won 10 of 10,
    and the runs with it had quartiles 467.9-484.1.  On ``verify``, whose
    monomials have low degree, it won 7 of 10 (447.9 against 434.9)."""
    if a is ONE:
        return b
    if b is ONE:
        return a
    an, ad, bn, bd = a.num, a.den, b.num, b.den
    if not an or not bn:
        return ZERO
    if len(ad) == len(bd) == len(an) == len(bn) == 1:
        return _constant(an[0] * bn[0])
    ka, kb = _q_order(ad), _q_order(bd)
    if ka >= 0 and kb >= 0:
        if an.count(_ZERO) == len(an) - 1 and bn.count(_ZERO) == len(bn) - 1:
            # c*q^i times d*q^j is c*d*q^(i+j): one product, no _pmul.
            num = (_ZERO,) * (len(an) + len(bn) - 2) + (_coeff(an[-1] * bn[-1]),)
            return _over_q_power(num, ka + kb)
        return _over_q_power(_pmul(an, bn), ka + kb)
    return _general(_pmul(an, bn), _pmul(ad, bd))


def _mono_str(coeff: Coeff, power: int) -> str:
    if power == 0:
        return str(coeff)
    if power == 1:
        base = "q"
    else:
        base = f"q^{power}"
    if coeff == 1:
        return base
    if coeff == -1:
        return f"-{base}"
    return f"{coeff}*{base}"


def _poly_str(p: Poly) -> str:
    """The nonzero terms from the highest power down, each after ' + ', or
    after ' ' when it starts with '-'.  Most zero coefficients are the
    shared ``_ZERO``, the small int 0, which the identity test passes over
    without a call."""
    if not p:
        return "0"
    terms = [_mono_str(c, power) for power, c in enumerate(p) if c is not _ZERO and c]
    first = terms.pop()
    return first + "".join(
        f" {t}" if t[0] == "-" else f" + {t}" for t in reversed(terms)
    )


ZERO = Scalar((), _UNIT, _canonical=True)
ONE = Scalar(_UNIT, _UNIT, _canonical=True)
MINUS_ONE = Scalar((-_ONE,), _UNIT, _canonical=True)
_SHARED = (ZERO, ONE, MINUS_ONE)  # indexed by the value 0, 1 or -1
Q = Scalar.q_power(1)


class ScalarSyntaxError(ValueError):
    """Raised on malformed scalar expressions; carries the offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


# The largest power the parser computes, as exponent times base size, where
# the size of a base counts the degrees of its numerator and denominator
# plus the bits of its largest coefficient.  A monomial c*q^k is raised in
# time linear in that product, any other base in quadratic time.  At either
# limit, a one-label coassociativity check on the power takes about a second.
MAX_MONOMIAL_POWER = 50_000
MAX_POWER = 250


def _power_limit(base: Scalar) -> Tuple[int, int]:
    """(size of base, limit on exponent x size) for a parsed power."""
    coeffs = [c for c in base.num + base.den if c]
    bits = max(max(abs(c.numerator), c.denominator).bit_length() - 1 for c in coeffs)
    size = max(len(base.num) - 1, 0) + len(base.den) - 1 + bits
    monomial = len(coeffs) == 2
    return size, MAX_MONOMIAL_POWER if monomial else MAX_POWER


class _ScalarParser:
    """expr := term (('+'|'-') term)* ;  term := factor (('*'|'/') factor)* ;
    factor := ['-'] atom ['^' ['-'] int] ;  atom := 'q' | int | '(' expr ')' ;
    int := the ASCII digits 0-9, one or more
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def _peek(self) -> str:
        self._skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Scalar:
        value = self.expr()
        self._skip()
        if self.pos != len(self.text):
            raise ScalarSyntaxError(
                f"unexpected character {self.text[self.pos]!r}", self.pos
            )
        return value

    def expr(self) -> Scalar:
        value = self.term()
        while self._peek() and self._peek() in "+-":
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Scalar:
        value = self.factor()
        while self._peek() and self._peek() in "*/":
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.factor()
            if op == "/" and rhs.is_zero():
                raise ScalarSyntaxError("division by zero", self.pos)
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor(self) -> Scalar:
        if self._peek() == "-":
            self.pos += 1
            return -self.factor()
        value = self.atom()
        if self._peek() == "^":
            at = self.pos
            self.pos += 1
            sign = 1
            if self._peek() == "-":
                sign = -1
                self.pos += 1
            n = self._int()
            if value.is_zero() and sign < 0 and n:
                raise ScalarSyntaxError("division by zero", at)
            size, limit = _power_limit(value)
            if n * size > limit:
                raise ScalarSyntaxError(
                    f"power too large: exponent {n} times base size {size}"
                    f" exceeds {limit}", at,
                )
            value = value ** (sign * n)
        return value

    def atom(self) -> Scalar:
        ch = self._peek()
        if ch == "q":
            self.pos += 1
            return Q
        if ch == "(":
            self.pos += 1
            value = self.expr()
            if self._peek() != ")":
                raise ScalarSyntaxError("expected ')'", self.pos)
            self.pos += 1
            return value
        if "0" <= ch <= "9":
            return Scalar.from_rational(self._int())
        raise ScalarSyntaxError("expected 'q', a number, or '('", self.pos)

    def _int(self) -> int:
        self._skip()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if start == self.pos:
            raise ScalarSyntaxError("expected an integer", self.pos)
        return int(self.text[start : self.pos])


def parse_scalar(text: str) -> Scalar:
    """Parse a rational-function expression in q into a canonical Scalar."""
    return _ScalarParser(text).parse()
