"""Field arithmetic and parsing of exact rational functions in q."""

import operator
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from lcoalg import scalars as scalars_module
from lcoalg.scalars import (
    MINUS_ONE,
    ONE,
    Q,
    ZERO,
    Scalar,
    ScalarSyntaxError,
    _ZERO,
    _mono_str,
    _padd,
    _pmul,
    _pneg,
    _poly_str,
    _trim,
    parse_scalar,
)


def test_constants():
    assert ZERO.is_zero()
    assert not ONE.is_zero()
    assert ONE + ZERO == ONE


def test_basic_arithmetic():
    two = Scalar.from_rational(2)
    half = Scalar.from_rational(Fraction(1, 2))
    assert two * half == ONE
    assert two - two == ZERO
    assert -two + two == ZERO
    assert (Q + ONE) * (Q - ONE) == Q * Q - ONE


def test_rational_function_cancellation():
    # (q^2 - 1)/(q - 1) reduces to q + 1.
    value = (Q * Q - ONE) / (Q - ONE)
    assert value == Q + ONE


def test_powers():
    assert Q ** 3 == Q * Q * Q
    assert Q ** -1 * Q == ONE
    assert Q ** 0 == ONE
    assert ZERO ** 0 == ONE
    assert ZERO ** 3 == ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1


def test_powers_by_squaring():
    product = ONE
    for _ in range(8):
        product = product * (Q + ONE)
    assert (Q + ONE) ** 8 == product
    assert (Q + ONE) ** -3 == ONE / ((Q + ONE) * (Q + ONE) * (Q + ONE))
    half = Scalar.from_rational(Fraction(1, 2))
    assert (half * Q ** -2) ** 3 == half * half * half * Q ** -6
    assert (-Q) ** 5 == -(Q ** 5)


def test_large_monomial_power_is_direct():
    assert parse_scalar("q^20000") == Scalar.q_power(20000)
    assert parse_scalar("q^-20000") == Scalar.q_power(-20000)
    assert (Q ** 2) ** 10000 == Scalar.q_power(20000)


def test_powers_are_bounded_at_the_caret():
    assert parse_scalar("q^50000") == Scalar.q_power(50000)
    assert parse_scalar("2^50000") == Scalar.from_rational(2 ** 50000)
    assert parse_scalar("(1+q)^250") == (Q + ONE) ** 250
    for text, offset in (("q^50001", 1), ("q^-50001", 1), ("(2*q)^25001", 5),
                         ("(2^50000)^2", 9), ("(1+q)^251", 5), ("(1+q^2)^126", 7)):
        with pytest.raises(ScalarSyntaxError) as exc:
            parse_scalar(text)
        assert exc.value.pos == offset, text
        assert str(exc.value).startswith("power too large: exponent "), text
    assert str(exc.value) == (
        "power too large: exponent 126 times base size 2 exceeds 250 (at offset 7)"
    )


def test_negative_power_of_zero_is_a_syntax_error():
    assert parse_scalar("0^0") == ONE
    assert parse_scalar("0^-0") == ONE
    assert parse_scalar("0^3") == ZERO
    with pytest.raises(ScalarSyntaxError) as exc:
        parse_scalar("1 + 0^-2")
    assert str(exc.value) == "division by zero (at offset 5)"


def test_constants_are_shared():
    assert Scalar.from_rational(0) is ZERO
    assert Scalar.from_rational(Fraction(1)) is ONE
    assert Scalar.from_rational(-1) is MINUS_ONE
    assert MINUS_ONE == -ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_parse_simple_values():
    assert parse_scalar("2") == Scalar.from_rational(2)
    assert parse_scalar("-3/2") == Scalar.from_rational(Fraction(-3, 2))
    assert parse_scalar("q") == Q
    assert parse_scalar("q^-1") == ONE / Q
    assert parse_scalar("q^2 - 1") == Q * Q - ONE
    assert parse_scalar("(q^2 - 1)/(q - 1)") == Q + ONE
    assert parse_scalar("-q") == -Q
    assert parse_scalar("1/2 * q") == Scalar.from_rational(Fraction(1, 2)) * Q


def test_parse_str_round_trip():
    values = [
        ZERO, ONE, Q, -Q, Q ** -2,
        (Q + ONE) / (Q - ONE),
        Scalar.from_rational(Fraction(-7, 3)) * Q ** 3 + ONE,
    ]
    for value in values:
        assert parse_scalar(str(value)) == value


def test_parse_errors_are_positioned():
    with pytest.raises(ScalarSyntaxError):
        parse_scalar("q +")
    with pytest.raises(ScalarSyntaxError):
        parse_scalar("(q")
    with pytest.raises(ScalarSyntaxError):
        parse_scalar("x")
    with pytest.raises(ScalarSyntaxError):
        parse_scalar("")


@pytest.mark.parametrize("text, offset, message", [
    ("\u00b2", 0, "expected 'q', a number, or '('"),    # superscript two
    ("\u0663", 0, "expected 'q', a number, or '('"),    # Arabic-Indic three
    ("\uff17 * q", 0, "expected 'q', a number, or '('"),  # fullwidth seven
    ("2\u00b2", 1, "unexpected character '\u00b2'"),
    ("q^\u00b2", 2, "expected an integer"),
    ("q^1\u0663", 3, "unexpected character '\u0663'"),
])
def test_only_ascii_digits_are_numbers(text, offset, message):
    with pytest.raises(ScalarSyntaxError) as exc:
        parse_scalar(text)
    assert exc.value.pos == offset
    assert str(exc.value) == f"{message} (at offset {offset})"


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def scalars(draw):
    """Rational functions built from small rational coefficients of q."""
    num = draw(st.lists(small_rationals, min_size=1, max_size=3))
    den = draw(st.lists(small_rationals, min_size=1, max_size=3))
    build = lambda coeffs: sum(
        (Scalar.from_rational(c) * Q ** i for i, c in enumerate(coeffs)),
        ZERO,
    )
    denominator = build(den)
    if denominator.is_zero():
        denominator = ONE
    return build(num) / denominator


@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO
    if not a.is_zero():
        assert a * (ONE / a) == ONE


@given(scalars())
def test_str_is_parseable(a):
    assert parse_scalar(str(a)) == a


@given(scalars(), scalars(), small_rationals)
def test_equality_is_canonical(a, b, r):
    # Equal values hash equally (structural canonical form), also when one
    # side is an int or a Fraction.
    if a == b:
        assert hash(a) == hash(b)
    assert (a - b).is_zero() == (a == b)
    for number in (r, int(r)):
        if a == number:
            assert hash(a) == hash(number)
        value = Scalar.from_rational(number)
        assert value == number
        assert hash(value) == hash(number)
    assert len({Scalar.from_rational(1), 1, Fraction(1)}) == 1


@pytest.mark.parametrize("make", [
    lambda: ONE * 0.1, lambda: Q + 0.5, lambda: 0.5 - ONE, lambda: ONE / 0.5,
    lambda: Scalar.from_rational(0.5),
], ids=["mul", "add", "rsub", "truediv", "from_rational"])
def test_a_float_operand_is_refused(make):
    """A float is an inexact number: taking it at its binary value would
    make 0.1 the rational 3602879701896397/36028797018963968."""
    with pytest.raises(TypeError, match=r"float is not an exact scalar: 0\.[15]"):
        make()


@pytest.mark.parametrize("value", ["1/2", " 3 ", Decimal("0.1")],
                         ids=["str", "padded-str", "Decimal"])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv],
                         ids=["add", "sub", "mul", "truediv"])
def test_a_str_or_decimal_operand_is_refused(op, value):
    """Only an int, a bool or a Fraction is an exact operand: a str is not
    parsed and a Decimal is not converted, on either side of an operator."""
    refused = f"a {type(value).__name__} is not an exact scalar"
    for make in (lambda: op(Q, value), lambda: op(value, Q),
                 lambda: Scalar.from_rational(value)):
        with pytest.raises(TypeError, match=refused):
            make()


def test_ints_bools_and_fractions_stay_exact_operands():
    half = Fraction(1, 2)
    assert Scalar.from_rational(True) is ONE and Scalar.from_rational(False) is ZERO
    assert Scalar.from_rational(3) == 3 and Scalar.from_rational(half) == half
    assert (ONE * 2, Q + half, half - ONE, ONE / 2) == (
        Scalar.from_rational(2), Q + Scalar.from_rational(half),
        Scalar.from_rational(Fraction(-1, 2)), Scalar.from_rational(half))
    assert ONE * True is ONE and ONE + False is ONE
    assert (ONE == 0.5) is False and (ONE != 0.5) is True


# -- fast paths against the general constructor ------------------------------

small_polys = st.lists(small_rationals, min_size=1, max_size=4).map(_trim)
nonzero_polys = small_polys.filter(bool)

shaped_scalars = st.one_of(
    small_rationals.map(Scalar.from_rational),
    small_polys.map(lambda num: Scalar(num, (Fraction(1),))),
    st.builds(
        lambda num, k: Scalar(num, Scalar.q_power(k).num),
        small_polys, st.integers(min_value=0, max_value=4),
    ),
    st.builds(Scalar, small_polys, nonzero_polys),
    st.sampled_from([ONE, MINUS_ONE]),
)


def assert_canonical(coeffs):
    """Each coefficient is exactly an int when it is integral and exactly a
    Fraction otherwise: never a bool, a float or an integral Fraction."""
    for c in coeffs:
        assert type(c) in (int, Fraction), repr(c)
        assert (type(c) is int) == (c.denominator == 1), repr(c)


def _same(fast, reference):
    assert fast.num == reference.num
    assert fast.den == reference.den
    assert str(fast) == str(reference)
    assert_canonical(fast.num + fast.den)


@given(shaped_scalars, shaped_scalars)
def test_fast_paths_match_general_constructor(a, b):
    # Each reference result goes through Scalar(num, den) and its gcd.
    cross = _pmul(a.num, b.den), _pmul(b.num, a.den)
    den = _pmul(a.den, b.den)
    _same(a + b, Scalar(_padd(*cross), den))
    _same(a - b, Scalar(_padd(cross[0], _pneg(cross[1])), den))
    _same(a * b, Scalar(_pmul(a.num, b.num), den))
    _same(-a, Scalar(_pneg(a.num), a.den))
    if not b.is_zero():
        _same(a / b, Scalar(_pmul(a.num, b.den), _pmul(a.den, b.num)))
    # The shared signs: a product with ONE is the other operand itself,
    # and negation swaps ONE and MINUS_ONE.
    assert ONE * a is a and a * ONE is a
    assert -ONE is MINUS_ONE and -MINUS_ONE is ONE
    assert MINUS_ONE * MINUS_ONE is ONE


def test_fast_paths_skip_the_gcd(monkeypatch):
    two_thirds = Scalar.from_rational(Fraction(2, 3))
    poly = Q * Q - Q + 2
    laurent = (Q + 3) * Q ** -2
    general = ONE / (Q + ONE)

    def fast_shapes():
        return [
            str(x) for x in (
                two_thirds * poly, two_thirds + laurent, laurent / two_thirds,
                poly * poly, poly - Q, laurent * laurent, laurent + Q ** -3,
                laurent / Q, (Q + ONE) ** 5,
            )
        ]

    expected = fast_shapes()

    def no_gcd(a, b):
        raise AssertionError("general constructor reached")

    monkeypatch.setattr(scalars_module, "_pgcd", no_gcd)
    assert fast_shapes() == expected
    # A denominator that is not a power of q takes the general constructor,
    # a rational constant's partner included.
    for shape in (lambda: general * general, lambda: two_thirds * general,
                  lambda: two_thirds + general, lambda: general / two_thirds):
        with pytest.raises(AssertionError, match="general constructor"):
            shape()


# -- sparse polynomial product against the dense one -------------------------


def dense_pmul(a, b):
    """The polynomial product over every coefficient, zeros included."""
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


# Dense polynomials, and monomials c*q^k of high degree.
sparse_polys = st.one_of(
    st.lists(small_rationals, max_size=6),
    st.builds(lambda k, c: (Fraction(0),) * k + (c,),
              st.integers(min_value=0, max_value=60),
              small_rationals.filter(bool)),
    st.lists(st.sampled_from([Fraction(0)] * 4 + [Fraction(1), Fraction(-2, 3)]),
             max_size=12),
).map(_trim)


@given(sparse_polys, sparse_polys)
def test_sparse_pmul_matches_dense(a, b):
    product = _pmul(a, b)
    assert product == dense_pmul(a, b)
    assert_canonical(product)


# -- sum and negation against the generator versions they replaced -----------


def generator_padd(a, b):
    """_padd as it was: one generator over every power of the longer operand."""
    n = max(len(a), len(b))
    return _trim(
        (a[i] if i < len(a) else _ZERO) + (b[i] if i < len(b) else _ZERO)
        for i in range(n)
    )


def generator_pneg(a):
    """_pneg as it was, a generator."""
    return tuple(-c if c else _ZERO for c in a)


@given(sparse_polys, sparse_polys)
def test_padd_and_pneg_match_the_generator_versions(a, b):
    for fast, reference in ((_padd(a, b), generator_padd(a, b)),
                            (_padd(b, a), generator_padd(b, a)),
                            (_padd(a, _pneg(a)), ()),
                            (_pneg(a), generator_pneg(a))):
        assert fast == reference
        assert_canonical(fast)
        assert all(c is _ZERO for c in fast if not c)


# -- rendering over the nonzero powers against the dense walk -----------------


def dense_poly_str(p):
    """The text of a polynomial, walking every power from the highest down."""
    if not p:
        return "0"
    parts = []
    for power in range(len(p) - 1, -1, -1):
        c = p[power]
        if not c:
            continue
        term = _mono_str(c, power)
        if parts and not term.startswith("-"):
            parts.append("+")
        parts.append(term)
    return " ".join(parts) if len(parts) > 1 else parts[0]


@given(sparse_polys)
def test_poly_str_matches_the_dense_walk(p):
    assert _poly_str(p) == dense_poly_str(p)


@given(shaped_scalars, shaped_scalars)
def test_scalar_equality_is_on_the_canonical_form(a, b):
    assert (a == b) == ((a.num, a.den) == (b.num, b.den))
    assert (a != b) == ((a.num, a.den) != (b.num, b.den))


def test_equality_with_a_non_number():
    # Only an int (bool included), a Fraction or a Scalar compares by value.
    assert (ONE == "1") is False and ONE != "1"
    assert ONE.__eq__(None) is NotImplemented
    assert ONE == True and ZERO == False  # noqa: E712


# -- monomials: shared zeros, and products against the general constructor ---


def test_scaled_zero_coefficients_are_the_shared_zero():
    for text in ("3/7*q^5", "3/7 * q ^ 5", "-2*q^3/q^7", "-q^5", "1/(2*q^4)"):
        value = parse_scalar(text)
        zeros = [c for c in value.num + value.den if not c]
        assert zeros and all(c is _ZERO for c in zeros), text


# +-c*q^k for |k| <= 60, over a denominator q^j or 1, and the constants.
MONOMIAL_SCALARS = st.one_of(
    st.builds(lambda c, k: Scalar.from_rational(c) * Scalar.q_power(k),
              small_rationals.filter(bool), st.integers(min_value=-60, max_value=60)),
    shaped_scalars,
    st.sampled_from([ZERO, ONE, MINUS_ONE, Q]),
)


@given(MONOMIAL_SCALARS, MONOMIAL_SCALARS)
def test_monomial_products_match_the_general_constructor(a, b):
    _same(a * b, Scalar(_pmul(a.num, b.num), _pmul(a.den, b.den)))


# -- canonical coefficients: an int where integral, else a Fraction ----------

fraction_polys = st.lists(small_rationals, min_size=1, max_size=4)


def test_integral_coefficients_are_ints():
    for value in (parse_scalar("1/2 + 1/2"), parse_scalar("3/2*q + 1/2*q"),
                  parse_scalar("(2*q + 4)/(2*q^2 - 2)"),
                  Scalar((Fraction(4), Fraction(2)), (Fraction(2),)),
                  Scalar.from_rational(Fraction(6, 3)), Scalar.from_rational(True)):
        assert_canonical(value.num + value.den)
        assert all(type(c) is int for c in value.num + value.den), repr(value)


@given(shaped_scalars, shaped_scalars, st.integers(min_value=-3, max_value=3),
       fraction_polys, fraction_polys)
def test_every_result_has_canonical_coefficients(a, b, n, num, den):
    results = [a, b, a + b, a - b, a * b, -a, parse_scalar(str(a)),
               parse_scalar(f"({a}) * ({b}) - ({b})")]
    if not b.is_zero():
        results.append(a / b)
    if not a.is_zero() or n >= 0:
        results.append(a ** n)
    if any(den):
        results.append(Scalar(tuple(num), tuple(den)))
    for value in results:
        assert_canonical(value.num + value.den)


# -- the field operations against plain Fraction arithmetic at points --------
#
# An expression tree is "q", a Fraction, ("neg", x), ("^", x, n) or
# (op, x, y) for op in + - * /.  It is evaluated once over Scalar and once
# over Fraction at rational values of q; this oracle uses no code of
# lcoalg.scalars besides the operators it checks.

expressions = st.recursive(
    st.one_of(st.just("q"), small_rationals),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*/"), sub, sub),
        st.tuples(st.just("neg"), sub),
        st.tuples(st.just("^"), sub, st.integers(min_value=-3, max_value=3)),
    ),
    max_leaves=8,
)
BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}


def evaluate(tree, q, constant):
    if isinstance(tree, str):
        return q
    if isinstance(tree, Fraction):
        return constant(tree)
    op, x, *rest = tree
    x = evaluate(x, q, constant)
    if op == "neg":
        return -x
    if op == "^":
        return x ** rest[0]
    return BINARY[op](x, evaluate(rest[0], q, constant))


def at(poly, v):
    return sum((Fraction(c) * v ** i for i, c in enumerate(poly)), Fraction(0))


@settings(deadline=None)
@given(expressions, st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=7),
                             min_size=3, max_size=3, unique=True))
def test_scalar_arithmetic_matches_fraction_arithmetic_at_points(tree, points):
    try:
        value = evaluate(tree, Q, Scalar.from_rational)
    except ZeroDivisionError:
        assume(False)  # a division by an identically zero expression
    checked = 0
    for v in points:
        try:
            expected = evaluate(tree, v, Fraction)
        except ZeroDivisionError:
            continue  # v is a pole of some subexpression
        assert at(value.den, v) != 0
        assert at(value.num, v) / at(value.den, v) == expected
        checked += 1
    assume(checked)


# -- the shared units: 0, 1 and -1 are always ZERO, ONE and MINUS_ONE --------

SHARED_UNITS = ((0, ZERO), (1, ONE), (-1, MINUS_ONE))


def subtrees(tree):
    """The tree and each expression inside it; an exponent is not one."""
    yield tree
    if isinstance(tree, tuple):
        for x in tree[1:]:
            if not isinstance(x, int):
                yield from subtrees(x)


@settings(deadline=None)
@given(expressions)
def test_every_unit_valued_node_is_the_shared_object(tree):
    for node in subtrees(tree):
        try:
            value = evaluate(node, Q, Scalar.from_rational)
        except ZeroDivisionError:
            continue
        for number, shared in SHARED_UNITS:
            if value == number:
                assert value is shared, node


@pytest.mark.parametrize("text, shared", [
    ("3-2", ONE), ("2*1/2", ONE), ("q^0", ONE), ("(8/5)^0", ONE),
    ("q*q^-1", ONE), ("(q+1)/(q+1)", ONE), ("(q+1)-q", ONE), ("1-2", MINUS_ONE),
    ("q-q", ZERO), ("1/(q+1) - 1/(q+1)", ZERO), ("(1-q)/(q-1)", MINUS_ONE),
])
def test_a_parsed_unit_is_the_shared_object(text, shared):
    assert parse_scalar(text) is shared


rational_constants = st.one_of(
    small_rationals,
    st.fractions(min_value=-10 ** 12, max_value=10 ** 12, max_denominator=10 ** 6),
)


@given(rational_constants, rational_constants)
def test_constant_arithmetic_matches_fraction_arithmetic(x, y):
    a, b = Scalar.from_rational(x), Scalar.from_rational(y)
    results = [(a + b, x + y), (a - b, x - y), (a * b, x * y)]
    if y:
        results.append((a / b, x / y))
    for value, expected in results:
        assert value.den == (1,) and value.num == ((expected,) if expected else ())
        assert_canonical(value.num)
        for number, shared in SHARED_UNITS:
            if expected == number:
                assert value is shared
