"""Convolution algebra of scalar-valued functionals.

A functional is a dict label -> Scalar (its values on the basis; absent
labels give zero).  Each coproduct of a structure induces a convolution
product on functionals, and the bracket of the left/right bridge products
yields Leibniz and Poisson structures whose laws are checked exhaustively
over the dual basis.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from .coalgebra import AxiomReport, LStructure
from .linalg import BasisSpace, Vector, add_scaled, vec_add, vec_sub
from .scalars import Scalar, ONE

Functional = Vector  # label -> value; the coefficient vector in the dual basis


def dual_basis(space: BasisSpace) -> Dict[str, Functional]:
    """label -> the functional dual to that basis element."""
    return {lab: {lab: ONE} for lab in space.labels}


def functional_value(f: Functional, v: Vector) -> Scalar:
    out = Scalar.zero()
    for lab, c in v.items():
        w = f.get(lab)
        if w is not None:
            out = out + c * w
    return out


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
    return vec_sub(
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


Product = Callable[[Functional, Functional], Functional]


def _law_check(
    report: AxiomReport,
    tag: str,
    functionals: Sequence[Tuple[str, Functional]],
    lhs: Callable[[Functional, Functional, Functional], Functional],
    rhs: Callable[[Functional, Functional, Functional], Functional],
):
    for nx, x in functionals:
        for ny, y in functionals:
            for nz, z in functionals:
                left = lhs(x, y, z)
                right = rhs(x, y, z)
                if left != right:
                    report.witnesses.append(
                        (
                            f"{nx},{ny},{nz}",
                            tag,
                            {(k,): c for k, c in left.items()},
                            {(k,): c for k, c in right.items()},
                        )
                    )


def _named_duals(s: LStructure) -> List[Tuple[str, Functional]]:
    return [(lab, {lab: ONE}) for lab in s.space.labels]


def check_dialgebra_laws(
    s: LStructure,
    left_name: str = "deltahat1",
    right_name: str = "delta1",
) -> AxiomReport:
    """Associative-dialgebra laws of the two bridge convolutions, checked
    on all dual-basis triples.  These dualize the codialgebra coproduct
    axioms equation by equation."""
    duals = _named_duals(s)
    lt: Product = lambda f, g: conv_product(s, left_name, f, g)
    rt: Product = lambda f, g: conv_product(s, right_name, f, g)
    report = AxiomReport(axiom="dialgebra")
    _law_check(report, "left_assoc", duals,
               lambda x, y, z: lt(lt(x, y), z), lambda x, y, z: lt(x, lt(y, z)))
    _law_check(report, "right_assoc", duals,
               lambda x, y, z: rt(rt(x, y), z), lambda x, y, z: rt(x, rt(y, z)))
    _law_check(report, "inner_left", duals,
               lambda x, y, z: lt(x, lt(y, z)), lambda x, y, z: lt(x, rt(y, z)))
    _law_check(report, "middle", duals,
               lambda x, y, z: lt(rt(x, y), z), lambda x, y, z: rt(x, lt(y, z)))
    _law_check(report, "inner_right", duals,
               lambda x, y, z: rt(lt(x, y), z), lambda x, y, z: rt(rt(x, y), z))
    return report


def check_trialgebra_laws(
    s: LStructure,
    perp_name: str = "Delta_star",
    left_name: str = "deltahat1",
    right_name: str = "delta1",
) -> AxiomReport:
    """Associative-trialgebra laws: the dialgebra laws plus the exchange
    laws binding the middle product, dual to the cotrialgebra axioms."""
    report = check_dialgebra_laws(s, left_name, right_name)
    report.axiom = "trialgebra"
    duals = _named_duals(s)
    lt: Product = lambda f, g: conv_product(s, left_name, f, g)
    rt: Product = lambda f, g: conv_product(s, right_name, f, g)
    pp: Product = lambda f, g: conv_product(s, perp_name, f, g)
    _law_check(report, "perp_assoc", duals,
               lambda x, y, z: pp(pp(x, y), z), lambda x, y, z: pp(x, pp(y, z)))
    _law_check(report, "left_of_perp", duals,
               lambda x, y, z: lt(lt(x, y), z), lambda x, y, z: lt(x, pp(y, z)))
    _law_check(report, "perp_left", duals,
               lambda x, y, z: lt(pp(x, y), z), lambda x, y, z: pp(x, lt(y, z)))
    _law_check(report, "middle_perp", duals,
               lambda x, y, z: pp(lt(x, y), z), lambda x, y, z: pp(x, rt(y, z)))
    _law_check(report, "right_perp", duals,
               lambda x, y, z: pp(rt(x, y), z), lambda x, y, z: rt(x, pp(y, z)))
    _law_check(report, "right_of_perp", duals,
               lambda x, y, z: rt(pp(x, y), z), lambda x, y, z: rt(x, rt(y, z)))
    return report


def check_leibniz(
    s: LStructure,
    left_name: str = "deltahat1",
    right_name: str = "delta1",
) -> AxiomReport:
    """[[x,y],z] = [[x,z],y] + [x,[y,z]] on all dual-basis triples."""
    duals = _named_duals(s)
    br: Product = lambda f, g: bracket(s, f, g, left_name, right_name)
    report = AxiomReport(axiom="leibniz")
    _law_check(
        report,
        "leibniz",
        duals,
        lambda x, y, z: br(br(x, y), z),
        lambda x, y, z: vec_add(br(br(x, z), y), br(x, br(y, z))),
    )
    return report


def check_poisson(
    s: LStructure,
    perp_name: str = "Delta_star",
    left_name: str = "deltahat1",
    right_name: str = "delta1",
) -> AxiomReport:
    """[f * g, h] = f * [g, h] + [f, h] * g for the middle convolution.

    The bracket is Leibniz, not Lie, so the derivation rule acts through
    the first bracket slot."""
    duals = _named_duals(s)
    br: Product = lambda f, g: bracket(s, f, g, left_name, right_name)
    pp: Product = lambda f, g: conv_product(s, perp_name, f, g)
    report = AxiomReport(axiom="poisson")
    _law_check(
        report,
        "poisson",
        duals,
        lambda x, y, z: br(pp(x, y), z),
        lambda x, y, z: vec_add(pp(x, br(y, z)), pp(br(x, z), y)),
    )
    return report


def check_dendriform_algebra(
    s: LStructure,
    left_name: str = "deltahat1",
    right_name: str = "delta1",
) -> AxiomReport:
    """Dendriform laws for prec = left and succ = right - left."""
    duals = _named_duals(s)
    prec: Product = lambda f, g: conv_product(s, left_name, f, g)
    succ: Product = lambda f, g: vec_sub(
        conv_product(s, right_name, f, g), conv_product(s, left_name, f, g)
    )
    report = AxiomReport(axiom="dendriform_algebra")
    _law_check(
        report,
        "dendriform1",
        duals,
        lambda x, y, z: prec(prec(x, y), z),
        lambda x, y, z: prec(x, vec_add(prec(y, z), succ(y, z))),
    )
    _law_check(
        report,
        "dendriform2",
        duals,
        lambda x, y, z: prec(succ(x, y), z),
        lambda x, y, z: succ(x, prec(y, z)),
    )
    _law_check(
        report,
        "dendriform3",
        duals,
        lambda x, y, z: succ(x, succ(y, z)),
        lambda x, y, z: succ(vec_add(prec(x, y), succ(x, y)), z),
    )
    return report


def check_bar_unit(
    s: LStructure,
    eps_star: Functional,
    left_name: str = "deltahat1",
    right_name: str = "delta1",
) -> AxiomReport:
    """eps_star is a bar-unit: f left e = f = e right f for every dual
    functional f (e absorbed on the inner side of each bridge product)."""
    duals = _named_duals(s)
    report = AxiomReport(axiom="bar_unit")
    for name, f in duals:
        left = conv_product(s, left_name, f, eps_star)
        right = conv_product(s, right_name, eps_star, f)
        if left != f:
            report.witnesses.append(
                (name, "left_absorb",
                 {(k,): c for k, c in left.items()},
                 {(k,): c for k, c in f.items()})
            )
        if right != f:
            report.witnesses.append(
                (name, "right_absorb",
                 {(k,): c for k, c in right.items()},
                 {(k,): c for k, c in f.items()})
            )
    return report
