"""Flower coproducts on a pointed space, the boundary operators they
correct, and the checks that d of d vanishes and that the forms agree.

The complex needs a distinguished basis label acting as a group-like unit
(its coproduct must be unit @ unit); the boundary in degree n is the
alternating sum of coproduct insertions, corrected at the two ends by
stripping the unit insertions the flower terms would contribute.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Dict

from .coalgebra import AxiomReport, LStructure, check_axiom
from .linalg import BasisSpace, MultiLinearMap, Tensor, add_scaled, tensor_add, tensor_sub
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
    """Witness each basis tensor up to the requested degree on which d of d
    does not vanish.  With a group-like unit, in every form and with no sign,
    d(d(x_1 @ ... @ x_n)) = sum_i id^(i-1) @ A(x_i) @ id^(n-i), where
    A = (Delta @ id - id @ Delta) Delta is read from the coassociativity
    witnesses: the cosimplicial identity of the cobar construction (Adams 1956)."""
    report = AxiomReport(axiom=f"boundary_complex[{form}]")
    if unit_label not in s.space:
        raise ValueError(f"unit label {unit_label!r} not in space")
    unit_cp = s.coproduct(name).of_label(unit_label)
    if unit_cp != {(unit_label, unit_label): ONE}:
        report.notes.append("unit label is not group-like")
        report.witnesses.append(
            (unit_label, "unit_grouplike", unit_cp, {(unit_label, unit_label): ONE})
        )
        return report
    if form not in _FORMS:
        raise ValueError(f"unknown boundary form {form!r}")
    associator = {
        label: tensor_sub(lhs, rhs)
        for label, _, lhs, rhs in check_axiom(s, "coassoc", {"Delta": name}).witnesses
    }
    if not associator:
        return report
    for n in range(1, max_degree + 1):
        for term in iter_product(s.space.labels, repeat=n):
            twice: Tensor = {}
            for i, label in enumerate(term):
                a = associator.get(label, {}).items()
                add_scaled(twice, ((term[:i] + t + term[i + 1:], c) for t, c in a), ONE)
            if twice:
                shown = "(" + ",".join(term) + ")"
                report.witnesses.append((shown, f"dd_degree_{n}", twice, {}))
    return report


def check_boundary_forms_agree(
    s: LStructure,
    name: str,
    unit_label: str,
    max_degree: int = 3,
) -> AxiomReport:
    """The corrected boundary and its flower-difference form coincide on
    every basis tensor up to the requested degree.  Both add the same
    coproduct terms and differ by sum_g c_g (unit at gap g), c_g depending
    on the degree n alone.  On (x,...,x), x any label but the unit, the
    insertions are distinct terms, so this one probe agrees exactly when
    every c_g is zero; a lone unit label is the only basis tensor."""
    report = AxiomReport(axiom="boundary_forms_agree")
    probe = next((lab for lab in s.space.labels if lab != unit_label), unit_label)
    for n in range(1, max_degree + 1):
        term = (probe,) * n
        a = boundary_apply(s, name, unit_label, {term: ONE}, "primary")
        b = boundary_apply(s, name, unit_label, {term: ONE}, "alternative")
        if a != b:
            report.witnesses.append(("(" + ",".join(term) + ")", f"degree_{n}", a, b))
    return report
