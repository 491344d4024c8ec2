"""Convolution algebra of scalar-valued functionals.

A functional is a dict label -> Scalar (its values on the basis; absent
labels give zero).  Each coproduct of a structure induces a convolution
product on functionals, and the bracket of the left/right bridge products
yields Leibniz and Poisson structures whose laws are checked exhaustively
over the dual basis.

Each law is a degree-3 equation of the axiom catalogue's kind, read
through the transpose: ((e_i *_B e_j) *_A e_k)(v) is the coefficient of
(i, j, k) in (B x id)A(v), so one evaluation per label settles every
dual-basis triple.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .coalgebra import (EQUATIONS, AxiomReport, Equation, LStructure, Role, SideTerm,
                        _bind_roles, _expand)
from .linalg import BasisSpace, Vector, add_scaled, tensor_sub
from .scalars import MINUS_ONE, ONE, Scalar

Functional = Vector  # label -> value; the coefficient vector in the dual basis


def dual_basis(space: BasisSpace) -> Dict[str, Functional]:
    """label -> the functional dual to that basis element."""
    return {lab: {lab: ONE} for lab in space.labels}


def conv_product(s: LStructure, name: str, f: Functional, g: Functional) -> Functional:
    """(f * g)(x) = sum f(x_(1)) g(x_(2)) over the named coproduct.

    Read through the coproduct's transpose, so only the labels in the
    supports of f and g are visited; the result lists its labels in
    basis order."""
    legs = s.coproduct(name).by_legs()
    out: Functional = {}
    for a, fa in f.items():
        row = legs.get(a)
        if row is None:
            continue
        for b, gb in g.items():
            terms = row.get(b)
            if terms is not None:
                add_scaled(out, terms, fa * gb)
    index = s.space.index
    return {x: out[x] for x in sorted(out, key=index.__getitem__)}


def bracket(
    s: LStructure,
    f: Functional,
    g: Functional,
    left_name: str = "deltahat1",
    right_name: str = "delta1",
) -> Functional:
    """[f, g] = (f left g) - (g right f): the dialgebra commutator of the
    two bridge convolutions."""
    return tensor_sub(
        conv_product(s, left_name, f, g), conv_product(s, right_name, g, f)
    )


def structure_constants(
    s: LStructure,
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    left_name: str = "deltahat1",
    right_name: str = "delta1",
) -> Dict[Tuple[str, str], Functional]:
    """Brackets of dual-basis functionals, expanded in the dual basis
    (a functional's dual-basis coefficients are its values on labels)."""
    duals = dual_basis(s.space)
    out: Dict[Tuple[str, str], Functional] = {}
    for i in row_labels:
        for j in col_labels:
            out[(i, j)] = bracket(s, duals[i], duals[j], left_name, right_name)
    return out


# A binary product of functionals as a signed sum of convolutions:
# (c, role, False) is c (x *_role y) and (c, role, True) is c (y *_role x).
_LEFT = ((ONE, "left", False),)
_RIGHT = ((ONE, "right", False),)
_PERP = ((ONE, "perp", False),)
_SUCC = _RIGHT + ((MINUS_ONE, "left", False),)  # succ = right - left
_BRACKET = _LEFT + ((MINUS_ONE, "right", True),)  # [x, y] = x left y - y right x
# The law variables x, y, z, and the pairs of them that an inner product takes.
X, Y, Z, XY, XZ, YZ = 0, 1, 2, (0, 1), (0, 2), (1, 2)


def _role(product) -> Role:
    """The role of the one map whose convolution is ``product``.

    Convolution is bilinear and y *_R x is x *_tau(R) y, so a signed sum
    of convolutions is the convolution of the signed sum of their maps,
    each with its legs swapped where its factors are.  Equal terms merge
    and zero ones drop, so prec + succ is the plain right role."""
    merged: Dict[Tuple[str, bool], Scalar] = {}
    for c, role, swap in product:
        add_scaled(merged, [((role, swap), c)], ONE)
    terms = tuple((c, role, swap) for (role, swap), c in merged.items())
    if len(terms) == 1 and terms[0][0] == ONE and not terms[0][2]:
        return terms[0][1]
    return ("signed", terms)


def _nest(a, b, first, second) -> SideTerm:
    """The side term a(first, second), where one argument is a variable
    and the other a pair of variables under b: _nest(A, B, XY, Z) is
    (x b y) a z.

    Each product is bound as one map, so a nested product is one chain:
    ((x *_B y) *_A z)(v) is the coefficient of x (x) y (x) z in
    (B x id)A(v).  Its output order records the variable each leg
    carries when that is not x, y, z."""
    slot = 1 if isinstance(first, tuple) else 2
    legs = [arg if isinstance(arg, tuple) else (arg,) for arg in (first, second)]
    order = legs[0] + legs[1]
    return (ONE, _role(a), ((_role(b), slot),), None if order == (X, Y, Z) else order)


_DIALGEBRA = [
    ("left_assoc", (_nest(_LEFT, _LEFT, XY, Z),), (_nest(_LEFT, _LEFT, X, YZ),)),
    ("right_assoc", (_nest(_RIGHT, _RIGHT, XY, Z),), (_nest(_RIGHT, _RIGHT, X, YZ),)),
    ("inner_left", (_nest(_LEFT, _LEFT, X, YZ),), (_nest(_LEFT, _RIGHT, X, YZ),)),
    ("middle", (_nest(_LEFT, _RIGHT, XY, Z),), (_nest(_RIGHT, _LEFT, X, YZ),)),
    ("inner_right", (_nest(_RIGHT, _LEFT, XY, Z),), (_nest(_RIGHT, _RIGHT, XY, Z),)),
]
_TRIALGEBRA = _DIALGEBRA + [
    ("perp_assoc", (_nest(_PERP, _PERP, XY, Z),), (_nest(_PERP, _PERP, X, YZ),)),
    ("left_of_perp", (_nest(_LEFT, _LEFT, XY, Z),), (_nest(_LEFT, _PERP, X, YZ),)),
    ("perp_left", (_nest(_LEFT, _PERP, XY, Z),), (_nest(_PERP, _LEFT, X, YZ),)),
    ("middle_perp", (_nest(_PERP, _LEFT, XY, Z),), (_nest(_PERP, _RIGHT, X, YZ),)),
    ("right_perp", (_nest(_PERP, _RIGHT, XY, Z),), (_nest(_RIGHT, _PERP, X, YZ),)),
    ("right_of_perp", (_nest(_RIGHT, _PERP, XY, Z),), (_nest(_RIGHT, _RIGHT, X, YZ),)),
]
# [[x,y],z] = [[x,z],y] + [x,[y,z]]
_LEIBNIZ = [("leibniz", (_nest(_BRACKET, _BRACKET, XY, Z),),
             (_nest(_BRACKET, _BRACKET, XZ, Y), _nest(_BRACKET, _BRACKET, X, YZ)))]
# [x * y, z] = x * [y, z] + [x, z] * y
_POISSON = [("poisson", (_nest(_BRACKET, _PERP, XY, Z),),
             (_nest(_PERP, _BRACKET, X, YZ), _nest(_PERP, _BRACKET, XZ, Y)))]
_DENDRIFORM = [
    ("dendriform1", (_nest(_LEFT, _LEFT, XY, Z),), (_nest(_LEFT, _LEFT + _SUCC, X, YZ),)),
    ("dendriform2", (_nest(_LEFT, _SUCC, XY, Z),), (_nest(_SUCC, _LEFT, X, YZ),)),
    ("dendriform3", (_nest(_SUCC, _SUCC, X, YZ),), (_nest(_SUCC, _LEFT + _SUCC, XY, Z),)),
]


def _check_laws(
    s: LStructure, axiom: str, equations: List[Equation], names: Dict[str, str]
) -> AxiomReport:
    """Evaluate each law on every label, then read it per dual-basis triple:
    the witness for (i, j, k) is the functional v -> coefficient of
    (i, j, k), and triples come in basis order."""
    memo = _bind_roles(s, names, names)
    rank = s.space.index.__getitem__
    report = AxiomReport(axiom=axiom)
    for equation in equations:
        rows = list(_expand(equation, memo, s.space.labels))
        failing = set()
        for _, lhs, rhs in rows:
            if lhs != rhs:
                failing.update(
                    t for t in lhs.keys() | rhs.keys() if lhs.get(t) != rhs.get(t)
                )
        for t in sorted(failing, key=lambda t: tuple(map(rank, t))):
            report.witnesses.append((
                ",".join(t),
                equation[0],
                {(v,): left[t] for v, left, _ in rows if t in left},
                {(v,): right[t] for v, _, right in rows if t in right},
            ))
    return report


def check_dialgebra_laws(
    s: LStructure,
    left_name: str = "deltahat1",
    right_name: str = "delta1",
) -> AxiomReport:
    """Associative-dialgebra laws of the two bridge convolutions, checked
    on all dual-basis triples.  These dualize the codialgebra coproduct
    axioms equation by equation."""
    return _check_laws(s, "dialgebra", _DIALGEBRA,
                       {"left": left_name, "right": right_name})


def check_trialgebra_laws(
    s: LStructure,
    perp_name: str = "Delta_star",
    left_name: str = "deltahat1",
    right_name: str = "delta1",
) -> AxiomReport:
    """Associative-trialgebra laws: the dialgebra laws plus the exchange
    laws binding the middle product, dual to the cotrialgebra axioms."""
    return _check_laws(s, "trialgebra", _TRIALGEBRA,
                       {"left": left_name, "right": right_name, "perp": perp_name})


def check_leibniz(
    s: LStructure,
    left_name: str = "deltahat1",
    right_name: str = "delta1",
) -> AxiomReport:
    """[[x,y],z] = [[x,z],y] + [x,[y,z]] on all dual-basis triples."""
    return _check_laws(s, "leibniz", _LEIBNIZ,
                       {"left": left_name, "right": right_name})


def check_poisson(
    s: LStructure,
    perp_name: str = "Delta_star",
    left_name: str = "deltahat1",
    right_name: str = "delta1",
) -> AxiomReport:
    """[f * g, h] = f * [g, h] + [f, h] * g for the middle convolution.

    The bracket is Leibniz, not Lie, so the derivation rule acts through
    the first bracket slot."""
    return _check_laws(s, "poisson", _POISSON,
                       {"left": left_name, "right": right_name, "perp": perp_name})


def check_dendriform_algebra(
    s: LStructure,
    left_name: str = "deltahat1",
    right_name: str = "delta1",
) -> AxiomReport:
    """Dendriform laws for prec = left and succ = right - left."""
    return _check_laws(s, "dendriform_algebra", _DENDRIFORM,
                       {"left": left_name, "right": right_name})


def _bar_unit_laws(s: LStructure, eps: Functional, left: str, right: str) -> AxiomReport:
    """(id x eps) left = id and (eps x id) right = id, eps a counit of ``s``:
    not a traced law suite, so a construction checks its bridges with it."""
    probe = LStructure(s.space, s.coproducts, {"eps_star": eps})
    return _check_laws(probe, "bar_unit", [
        ("left_absorb", *EQUATIONS["right_counit"]),
        ("right_absorb", *EQUATIONS["left_counit"]),
    ], {"Delta": left, "eps": "eps_star", "Deltatilde": right, "epstilde": "eps_star"})


def check_bar_unit(
    s: LStructure,
    eps_star: Functional,
    left_name: str = "deltahat1",
    right_name: str = "delta1",
) -> AxiomReport:
    """eps_star is a bar-unit: f left e = f = e right f for every dual
    functional f (e absorbed on the inner side of each bridge product).
    Read through the transpose these are the counit laws of ``_bar_unit_laws``
    (a label outside the space is refused); witnesses come by functional."""
    report = _bar_unit_laws(s, eps_star, left_name, right_name)
    report.witnesses.sort(key=lambda w: s.space.index[w[0]])
    return report
