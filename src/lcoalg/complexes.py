"""Flower coproducts on a pointed space and the boundary operators they
correct, with an exhaustive differential check (d of d vanishes).

The complex needs a distinguished basis label acting as a group-like unit
(its coproduct must be unit @ unit); the boundary in degree n is the
alternating sum of coproduct insertions, corrected at the two ends by
stripping the unit insertions the flower terms would contribute.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Dict

from .coalgebra import AxiomReport, LStructure
from .linalg import BasisSpace, MultiLinearMap, Tensor, Term, add_scaled, tensor_add
from .scalars import MINUS_ONE, ONE

_FORMS = ("primary", "prime", "alternative")


def flower_coproducts(space: BasisSpace, unit_label: str) -> Dict[str, MultiLinearMap]:
    """delta_f(x) = x @ 1, deltatilde_f(x) = 1 @ x, Delta_f their sum."""
    if unit_label not in space:
        raise ValueError(f"unit label {unit_label!r} not in space")
    delta_f = MultiLinearMap(
        space, 2, {lab: {(lab, unit_label): ONE} for lab in space.labels}
    )
    deltatilde_f = MultiLinearMap(
        space, 2, {lab: {(unit_label, lab): ONE} for lab in space.labels}
    )
    return {
        "delta_f": delta_f,
        "deltatilde_f": deltatilde_f,
        "Delta_f": delta_f.add(deltatilde_f),
    }


def insert_unit(tensor: Tensor, gap: int, unit_label: str) -> Tensor:
    """Insert the unit label into gap position 0..n of every term.  The
    insertion is injective on terms, so no two terms collide."""
    return {
        term[:gap] + (unit_label,) + term[gap:]: coeff
        for term, coeff in tensor.items()
    }


def boundary_apply(
    s: LStructure,
    name: str,
    unit_label: str,
    tensor: Tensor,
    form: str = "primary",
) -> Tensor:
    """One boundary step on a homogeneous tensor of degree n >= 1.

    form "prime":       sum_{i=1..n} (-1)^(i+1) Delta_i  (no correction)
    form "primary":     prime - (unit at gap 0) - (-1)^(n+1) (unit at gap n)
    form "alternative": sum_{i=1..n} (-1)^(i+1) (Delta - Delta_f)_i

    primary and alternative agree identically: the interior unit
    insertions of the flower terms cancel in telescoping pairs, leaving
    exactly the two end corrections.
    """
    if form not in _FORMS:
        raise ValueError(f"unknown boundary form {form!r}")
    if not tensor:
        return {}
    degrees = {len(term) for term in tensor}
    if len(degrees) != 1:
        raise ValueError("boundary needs a homogeneous tensor")
    n = degrees.pop()
    if n < 1:
        raise ValueError("degree must be at least 1")
    cp = s.coproduct(name)

    out: Tensor = {}
    sign = ONE
    for i in range(1, n + 1):
        add_scaled(out, cp.at_slot(tensor, i, n).items(), sign)
        if form == "alternative":
            flower = tensor_add(
                insert_unit(tensor, i - 1, unit_label),
                insert_unit(tensor, i, unit_label),
            )
            add_scaled(out, flower.items(), -sign)
        sign = -sign
    if form == "primary":
        add_scaled(out, insert_unit(tensor, 0, unit_label).items(), MINUS_ONE)
        # minus (-1)^(n+1) times the unit at gap n
        end_sign = MINUS_ONE if n % 2 else ONE
        add_scaled(out, insert_unit(tensor, n, unit_label).items(), end_sign)
    return out


def check_complex(
    s: LStructure,
    name: str,
    unit_label: str,
    max_degree: int = 3,
    form: str = "primary",
) -> AxiomReport:
    """Exhaustively verify that two consecutive boundaries vanish on every
    basis tensor up to the requested degree, and (when both corrected
    forms are requested elsewhere) that they agree term by term."""
    report = AxiomReport(axiom=f"boundary_complex[{form}]")
    if unit_label not in s.space:
        raise ValueError(f"unit label {unit_label!r} not in space")
    cp = s.coproduct(name)
    unit_cp = cp.of_label(unit_label)
    if unit_cp != {(unit_label, unit_label): ONE}:
        report.notes.append("unit label is not group-like")
        report.witnesses.append(
            (unit_label, "unit_grouplike", unit_cp, {(unit_label, unit_label): ONE})
        )
        return report
    # d is linear, so d(d(t)) is the sum of c * d(u) over the terms c*u of
    # d(t): each basis tensor's row d(u) is built once and reused.
    rows: Dict[Term, Tensor] = {}

    def row(term: Term) -> Tensor:
        r = rows.get(term)
        if r is None:
            r = rows[term] = boundary_apply(s, name, unit_label, {term: ONE}, form)
        return r

    for n in range(1, max_degree + 1):
        for term in iter_product(s.space.labels, repeat=n):
            once = row(term)
            if not once:
                continue
            twice: Tensor = {}
            for u, c in once.items():
                add_scaled(twice, row(u).items(), c)
            if twice:
                report.witnesses.append(
                    ("(" + ",".join(term) + ")", f"dd_degree_{n}", twice, {})
                )
    return report


def check_boundary_forms_agree(
    s: LStructure,
    name: str,
    unit_label: str,
    max_degree: int = 3,
) -> AxiomReport:
    """The corrected boundary and its flower-difference form coincide on
    every basis tensor up to the requested degree."""
    report = AxiomReport(axiom="boundary_forms_agree")
    labels = s.space.labels
    for n in range(1, max_degree + 1):
        for term in iter_product(labels, repeat=n):
            t: Tensor = {tuple(term): ONE}
            a = boundary_apply(s, name, unit_label, t, "primary")
            b = boundary_apply(s, name, unit_label, t, "alternative")
            if a != b:
                report.witnesses.append(("(" + ",".join(term) + ")", f"degree_{n}", a, b))
    return report
