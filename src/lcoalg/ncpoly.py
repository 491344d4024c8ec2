"""Noncommutative polynomials over the scalar field, word-rewriting
normalization for algebras given by relations, and the checks that need
them: coproducts extended multiplicatively to relations, and antipode-type
convolution identities evaluated inside the presented algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .coalgebra import AxiomReport
from .linalg import add_scaled, tensor_product
from .scalars import ONE, Q, ZERO, Scalar

Word = Tuple[str, ...]
# Canonical: no zero coefficients.  Words concatenate as tensor terms do,
# so a product of polynomials is linalg.tensor_product.
NCPoly = Dict[Word, Scalar]
NCTensor = Dict[Tuple[Word, Word], Scalar]


def poly_one() -> NCPoly:
    return {(): ONE}


def poly_letter(letter: str, coeff: Scalar = ONE) -> NCPoly:
    return {} if coeff.is_zero() else {(letter,): coeff}


class RewriteError(RuntimeError):
    """Raised when normalization exceeds its step bound."""


@dataclass(frozen=True)
class RewriteSystem:
    """Word-rewriting rules pattern -> polynomial, applied leftmost-first.

    Each rule must strictly decrease words in the induced order for
    normalization to terminate; a step bound guards against bad systems.
    """

    rules: Tuple[Tuple[Word, Tuple[Tuple[Word, Scalar], ...]], ...]
    max_steps: int = 20000

    @staticmethod
    def from_rules(rules: Dict[Word, NCPoly], max_steps: int = 20000) -> "RewriteSystem":
        packed = tuple(
            (pattern, tuple(sorted(replacement.items())))
            for pattern, replacement in rules.items()
        )
        return RewriteSystem(rules=packed, max_steps=max_steps)

    def _find(self, word: Word) -> Optional[Tuple[int, Word, NCPoly]]:
        best: Optional[Tuple[int, Word, NCPoly]] = None
        for pattern, replacement in self.rules:
            plen = len(pattern)
            limit = len(word) - plen
            for start in range(limit + 1):
                if word[start : start + plen] == pattern:
                    if best is None or start < best[0]:
                        best = (start, pattern, dict(replacement))
                    break
        return best

    def normalize(self, poly: NCPoly) -> NCPoly:
        pending = dict(poly)
        done: NCPoly = {}
        steps = 0
        while pending:
            word, coeff = pending.popitem()
            hit = self._find(word)
            if hit is None:
                add_scaled(done, [(word, coeff)], ONE)
                continue
            steps += 1
            if steps > self.max_steps:
                raise RewriteError("normalization exceeded its step bound")
            start, pattern, replacement = hit
            head, tail = word[:start], word[start + len(pattern):]
            add_scaled(pending, ((head + rep + tail, c) for rep, c in replacement.items()),
                       coeff)
        return done


def relation_set(name: str, n: int = 0) -> RewriteSystem:
    """Named confluent rewrite systems.

    "quantum_matrix": generators a, b, c, d with ba = q ab, ca = q ac,
    bc = cb, dc = q cd, db = q bd, ad - da = (1/q - q) bc, ad - bc/q = 1;
    normal words are b^i c^j a^k or b^i c^j d^k (letter order b, c, a, d).
    "quantum_matrix_tilde": the same presentation in letters x, u, y, z
    (order x, u, y, z) under a -> y, b -> x, c -> u, d -> z.
    "cyclic": one generator g with g^n = 1.
    """
    qi = ONE / Q
    if name in ("quantum_matrix", "quantum_matrix_tilde"):
        rules: Dict[Word, NCPoly] = {
            ("a", "b"): {("b", "a"): qi},
            ("a", "c"): {("c", "a"): qi},
            ("c", "b"): {("b", "c"): ONE},
            ("d", "c"): {("c", "d"): Q},
            ("d", "b"): {("b", "d"): Q},
            ("a", "d"): {(): ONE, ("b", "c"): qi},
            ("d", "a"): {(): ONE, ("b", "c"): Q},
        }
        if name == "quantum_matrix_tilde":
            letter = {"a": "y", "b": "x", "c": "u", "d": "z"}.get
            rules = {tuple(map(letter, pattern)): {tuple(map(letter, w)): c
                                                   for w, c in replacement.items()}
                     for pattern, replacement in rules.items()}
        return RewriteSystem.from_rules(rules)
    if name == "cyclic":
        if n < 1:
            raise ValueError("cyclic needs a positive order")
        return RewriteSystem.from_rules({("g",) * n: {(): ONE}})
    raise KeyError(f"unknown relation set {name!r}")


# -- coproducts on presented algebras --------------------------------------


def tensor_poly_mul(
    a: NCTensor, b: NCTensor, left_rs: RewriteSystem, right_rs: RewriteSystem
) -> NCTensor:
    """Componentwise product (p @ q)(r @ s) = pr @ qs, legs normalized."""
    out: NCTensor = {}
    for (la, ra), ca in a.items():
        for (lb, rb), cb in b.items():
            left = left_rs.normalize({la + lb: ONE})
            right = right_rs.normalize({ra + rb: ONE})
            for lw, lc in left.items():
                terms = (((lw, rw), rc) for rw, rc in right.items())
                add_scaled(out, terms, ca * cb * lc)
    return out


def coproduct_of_poly(
    poly: NCPoly,
    generator_images: Dict[str, NCTensor],
    left_rs: RewriteSystem,
    right_rs: RewriteSystem,
) -> NCTensor:
    """Multiplicative extension of a generator-level coproduct.  Each leg
    is normal already, since ``tensor_poly_mul`` normalizes every product."""
    out: NCTensor = {}
    for word, coeff in poly.items():
        acc: NCTensor = {((), ()): ONE}
        for letter in word:
            image = generator_images.get(letter)
            if image is None:
                raise KeyError(f"no coproduct image for generator {letter!r}")
            acc = tensor_poly_mul(acc, image, left_rs, right_rs)
        add_scaled(out, acc.items(), coeff)
    return out


def check_bridge_homomorphism(
    generator_images: Dict[str, NCTensor],
    relations: Sequence[Tuple[str, NCPoly, NCPoly]],
    left_rs: RewriteSystem,
    right_rs: RewriteSystem,
) -> AxiomReport:
    """A generator-level coproduct extends to the presented algebra iff it
    maps both sides of every defining relation to the same tensor."""
    report = AxiomReport(axiom="bridge_homomorphism")
    for tag, lhs, rhs in relations:
        left = coproduct_of_poly(lhs, generator_images, left_rs, right_rs)
        right = coproduct_of_poly(rhs, generator_images, left_rs, right_rs)
        if left != right:
            report.witnesses.append(
                (
                    tag,
                    "relation",
                    {lw + rw: c for (lw, rw), c in left.items()},
                    {lw + rw: c for (lw, rw), c in right.items()},
                )
            )
    return report


@dataclass
class AntipodeData:
    """One antipode-type convolution identity: for each generator x with
    coproduct image sum x' @ x'', require

        sum  first(x') * second(x'')  =  counit(x) * 1

    inside the algebra presented by ``rewrite``.  ``first`` and ``second``
    send leg letters to polynomials in the target alphabet."""

    coproducts: Dict[str, NCTensor]
    first: Dict[str, NCPoly]
    second: Dict[str, NCPoly]
    counit: Dict[str, Scalar]
    rewrite: RewriteSystem


def _substitute(word: Word, images: Dict[str, NCPoly]) -> NCPoly:
    acc = poly_one()
    for letter in word:
        image = images.get(letter)
        if image is None:
            raise KeyError(f"no substitution image for letter {letter!r}")
        acc = tensor_product(acc, image)
    return acc


def check_l_hopf(data: AntipodeData, labels: Sequence[str]) -> AxiomReport:
    """Evaluate the convolution identity of ``data`` on each generator."""
    report = AxiomReport(axiom="l_hopf")
    for x in labels:
        image = data.coproducts.get(x)
        if image is None:
            raise KeyError(f"no coproduct image for generator {x!r}")
        total: NCPoly = {}
        for (lw, rw), c in image.items():
            piece = tensor_product(
                _substitute(lw, data.first), _substitute(rw, data.second))
            add_scaled(total, piece.items(), c)
        value = data.rewrite.normalize(total)
        eps = data.counit.get(x, ZERO)
        target = {} if eps.is_zero() else {(): eps}
        if value != target:
            report.witnesses.append(
                (
                    x,
                    "antipode",
                    {w: c for w, c in value.items()},
                    {w: c for w, c in target.items()},
                )
            )
    return report
