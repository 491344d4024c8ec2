"""Flower coproducts on a pointed space and the boundary operators they
correct, with an exhaustive differential check (d of d vanishes).

The complex needs a distinguished basis label acting as a group-like unit
(its coproduct must be unit @ unit); the boundary in degree n is the
alternating sum of coproduct insertions, corrected at the two ends by
stripping the unit insertions the flower terms would contribute.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Dict, Tuple

from .coalgebra import AxiomReport, LStructure
from .linalg import (
    BasisSpace,
    MultiLinearMap,
    Tensor,
    tensor_add,
    tensor_scale,
    tensor_sub,
)
from .scalars import MINUS_ONE, ONE


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
    """Insert the unit label into gap position 0..n of every term."""
    out: Tensor = {}
    for term, coeff in tensor.items():
        new_term = term[:gap] + (unit_label,) + term[gap:]
        prior = out.get(new_term)
        total = coeff if prior is None else prior + coeff
        if total.is_zero():
            out.pop(new_term, None)
        else:
            out[new_term] = total
    return out


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
        step = cp.at_slot(tensor, i, n)
        if form == "alternative":
            flower = tensor_add(
                insert_unit(tensor, i - 1, unit_label),
                insert_unit(tensor, i, unit_label),
            )
            step = tensor_sub(step, flower)
        out = tensor_add(out, tensor_scale(step, sign))
        sign = sign * MINUS_ONE
    if form == "primary":
        out = tensor_sub(out, insert_unit(tensor, 0, unit_label))
        end_sign = MINUS_ONE if n % 2 == 0 else ONE
        out = tensor_sub(
            out, tensor_scale(insert_unit(tensor, n, unit_label), end_sign)
        )
    elif form not in ("prime", "alternative"):
        raise ValueError(f"unknown boundary form {form!r}")
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
    labels = s.space.labels
    for n in range(1, max_degree + 1):
        for term in iter_product(labels, repeat=n):
            t: Tensor = {tuple(term): ONE}
            once = boundary_apply(s, name, unit_label, t, form)
            if not once:
                continue
            twice = boundary_apply(s, name, unit_label, once, form)
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
