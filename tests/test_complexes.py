"""Boundary operators built from a coproduct and a group-like unit: the
differential property, the equality of the corrected forms, and the flower
coproducts themselves.  The enumerating checks the library replaced are
kept here as oracles for the shortcut checks."""

from itertools import product as iter_product

import pytest
from hypothesis import given, settings, strategies as st

from lcoalg import complexes
from lcoalg.coalgebra import AxiomReport, LStructure
from lcoalg.complexes import (
    boundary_apply,
    check_boundary_forms_agree,
    check_complex,
    flower_coproducts,
    insert_unit,
)
from lcoalg.dsl import parse_document
from lcoalg.fixtures import fixture_cibils, fixture_group
from lcoalg.linalg import (
    BasisSpace,
    MultiLinearMap,
    add_scaled,
    tensor_add,
    tensor_scale,
    tensor_sub,
)
from lcoalg.scalars import MINUS_ONE, ONE, parse_scalar


def test_flower_coproducts_shape(group3):
    flowers = flower_coproducts(group3.space, "g0")
    assert flowers["delta_f"].of_label("g2") == {("g2", "g0"): ONE}
    assert flowers["deltatilde_f"].of_label("g2") == {("g0", "g2"): ONE}
    assert flowers["Delta_f"].of_label("g0") == {("g0", "g0"): ONE + ONE}
    with pytest.raises(ValueError):
        flower_coproducts(group3.space, "missing")


def test_insert_unit():
    t = {("a", "b"): ONE}
    assert insert_unit(t, 0, "e") == {("e", "a", "b"): ONE}
    assert insert_unit(t, 1, "e") == {("a", "e", "b"): ONE}
    assert insert_unit(t, 2, "e") == {("a", "b", "e"): ONE}


def test_degree_one_boundary_is_coproduct_minus_flower(group3):
    flowers = flower_coproducts(group3.space, "g0")
    difference = group3.coproduct("Delta").sub(flowers["Delta_f"])
    for lab in group3.space.labels:
        out = boundary_apply(group3, "Delta", "g0", {(lab,): ONE})
        assert out == difference.of_label(lab)


@pytest.mark.parametrize("n", [2, 3])
def test_boundary_squares_to_zero(n):
    s = fixture_group(n)
    assert check_complex(s, "Delta", "g0", max_degree=3).passed


@pytest.mark.parametrize("n", [2, 3])
def test_uncorrected_boundary_is_also_a_complex(n):
    s = fixture_group(n)
    assert check_complex(s, "Delta", "g0", max_degree=3, form="prime").passed


@pytest.mark.parametrize("n", [2, 3])
def test_boundary_forms_agree(n):
    s = fixture_group(n)
    assert check_boundary_forms_agree(s, "Delta", "g0", max_degree=3).passed


def test_boundary_of_degree_one_boundary_vanishes(group2):
    # d of d starting from a single basis label, spelled out.
    for lab in group2.space.labels:
        once = boundary_apply(group2, "Delta", "g0", {(lab,): ONE})
        twice = boundary_apply(group2, "Delta", "g0", once)
        assert twice == {}


def test_non_grouplike_unit_is_witnessed(f_data):
    # No basis label of the matrix-type coalgebra is group-like.
    report = check_complex(f_data["structure"], "Delta", "b", max_degree=2)
    assert not report.passed
    assert report.witnesses[0][1] == "unit_grouplike"


def test_boundary_needs_homogeneous_tensor(group3):
    with pytest.raises(ValueError):
        boundary_apply(
            group3, "Delta", "g0", {("g0",): ONE, ("g0", "g1"): ONE}
        )


def test_unknown_form_rejected(group3):
    with pytest.raises(ValueError):
        boundary_apply(group3, "Delta", "g0", {("g1",): ONE}, form="bogus")
    # The form is checked before any work, also on the zero tensor.
    with pytest.raises(ValueError, match="unknown boundary form"):
        boundary_apply(group3, "Delta", "g0", {}, form="bogus")


# -- a group-like unit on a coproduct that is not coassociative -------------

NON_COASSOCIATIVE_DOC = """\
space V = { e, x }

coproduct Delta on V:
  e -> <e, e>
  x -> <x, x> + q * <x, e> + -1/2 * <e, x>
"""

# -- the one-accumulator boundary against the step-by-step definition -------


def reference_insert_unit(tensor, gap, unit_label):
    out = {}
    for term, coeff in tensor.items():
        new_term = term[:gap] + (unit_label,) + term[gap:]
        prior = out.get(new_term)
        total = coeff if prior is None else prior + coeff
        if total.is_zero():
            out.pop(new_term, None)
        else:
            out[new_term] = total
    return out


def reference_boundary(s, name, unit_label, tensor, form):
    """Each slot's step built as its own tensor, then added with its sign."""
    if not tensor:
        return {}
    n = len(next(iter(tensor)))
    cp = s.coproduct(name)
    out = {}
    sign = ONE
    for i in range(1, n + 1):
        step = cp.at_slot(tensor, i, n)
        if form == "alternative":
            flower = tensor_add(
                reference_insert_unit(tensor, i - 1, unit_label),
                reference_insert_unit(tensor, i, unit_label),
            )
            step = tensor_sub(step, flower)
        out = tensor_add(out, tensor_scale(step, sign))
        sign = sign * MINUS_ONE
    if form == "primary":
        out = tensor_sub(out, reference_insert_unit(tensor, 0, unit_label))
        end_sign = MINUS_ONE if n % 2 == 0 else ONE
        out = tensor_sub(
            out, tensor_scale(reference_insert_unit(tensor, n, unit_label), end_sign)
        )
    return out


@pytest.fixture(scope="module")
def boundary_structures(f_data):
    return {
        "group3": fixture_group(3),
        "cibils2": fixture_cibils(2),
        "F": f_data["structure"],
        "noncoassoc": parse_document(NON_COASSOCIATIVE_DOC).structure("V"),
    }


BOUNDARY_CASES = [
    ("group3", "Delta"), ("cibils2", "Delta_star"), ("cibils2", "delta"),
    ("F", "Delta"), ("noncoassoc", "Delta"),
]
FORMS = ("primary", "prime", "alternative")
COEFFS = [
    parse_scalar(t) for t in ("1", "-1", "2/3", "-5/2", "q", "-q^2", "q^-1", "3*q^-2")
] + [ONE, MINUS_ONE]


@st.composite
def homogeneous_tensors(draw, labels):
    degree = draw(st.integers(min_value=1, max_value=3))
    terms = draw(st.lists(st.tuples(*[st.sampled_from(labels)] * degree),
                          min_size=1, max_size=6))
    tensor = {}
    for term in terms:
        add_scaled(tensor, [(term, draw(st.sampled_from(COEFFS)))], ONE)
    return tensor


@pytest.mark.parametrize("case, name", BOUNDARY_CASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_boundary_matches_step_by_step_definition(boundary_structures, case, name, data):
    s = boundary_structures[case]
    unit = data.draw(st.sampled_from(s.space.labels))
    tensor = data.draw(homogeneous_tensors(s.space.labels))
    for form in FORMS:
        assert boundary_apply(s, name, unit, tensor, form) == reference_boundary(
            s, name, unit, tensor, form
        )


# F has no group-like label, so its complex check stops at the unit witness.
@pytest.mark.parametrize("case, name", [c for c in BOUNDARY_CASES if c[0] != "F"])
@pytest.mark.parametrize("form", FORMS)
def test_complex_witnesses_match_label_walk(boundary_structures, case, name, form):
    # Every group-like label as unit.
    s = boundary_structures[case]
    for unit in s.space.labels:
        if s.coproduct(name).of_label(unit) != {(unit, unit): ONE}:
            continue
        expected = []
        for n in (1, 2):
            for term in iter_product(s.space.labels, repeat=n):
                once = boundary_apply(s, name, unit, {term: ONE}, form)
                twice = boundary_apply(s, name, unit, once, form) if once else {}
                if twice:
                    expected.append(("(" + ",".join(term) + ")", f"dd_degree_{n}", twice, {}))
        assert check_complex(s, name, unit, max_degree=2, form=form).witnesses == expected


# d(d(t)) for each basis tensor t of degree 1 and 2 of NON_COASSOCIATIVE_DOC
# with unit e, as (term, coefficient); all three forms give the same.
NON_COASSOCIATIVE_DD = [
    ("(x)", "dd_degree_1", [
        (("x", "e", "x"), "q + 1/2"), (("x", "e", "e"), "q^2 - q"),
        (("e", "e", "x"), "-3/4"),
    ]),
    ("(e,x)", "dd_degree_2", [
        (("e", "x", "e", "x"), "q + 1/2"), (("e", "x", "e", "e"), "q^2 - q"),
        (("e", "e", "e", "x"), "-3/4"),
    ]),
    ("(x,e)", "dd_degree_2", [
        (("x", "e", "x", "e"), "q + 1/2"), (("x", "e", "e", "e"), "q^2 - q"),
        (("e", "e", "x", "e"), "-3/4"),
    ]),
    ("(x,x)", "dd_degree_2", [
        (("x", "x", "e", "x"), "q + 1/2"), (("x", "e", "e", "x"), "q^2 - q - 3/4"),
        (("e", "e", "x", "x"), "-3/4"), (("x", "x", "e", "e"), "q^2 - q"),
        (("x", "e", "x", "x"), "q + 1/2"),
    ]),
]


@pytest.mark.parametrize("form", FORMS)
def test_non_coassociative_coproduct_fails_dd(boundary_structures, form):
    s = boundary_structures["noncoassoc"]
    report = check_complex(s, "Delta", "e", max_degree=2, form=form)
    assert report.witnesses == [
        (label, eq, {term: parse_scalar(c) for term, c in tensor}, {})
        for label, eq, tensor in NON_COASSOCIATIVE_DD
    ]
    assert not report.notes
    assert check_boundary_forms_agree(s, "Delta", "e", max_degree=2).passed


# -- the shortcut checks against the enumerating ones they replaced ---------


def oracle_check_complex(s, name, unit_label, max_degree=3, form="primary"):
    """d(d(t)) for every basis tensor t, each row d(u) built once."""
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
    rows = {}

    def row(term):
        if term not in rows:
            rows[term] = complexes.boundary_apply(s, name, unit_label, {term: ONE}, form)
        return rows[term]

    for n in range(1, max_degree + 1):
        for term in iter_product(s.space.labels, repeat=n):
            twice = {}
            for u, c in row(term).items():
                add_scaled(twice, row(u).items(), c)
            if twice:
                report.witnesses.append(
                    ("(" + ",".join(term) + ")", f"dd_degree_{n}", twice, {})
                )
    return report


def oracle_forms_agree(s, name, unit_label, max_degree=3):
    """Both corrected forms on every basis tensor."""
    report = AxiomReport(axiom="boundary_forms_agree")
    for n in range(1, max_degree + 1):
        for term in iter_product(s.space.labels, repeat=n):
            t = {term: ONE}
            a = complexes.boundary_apply(s, name, unit_label, t, "primary")
            b = complexes.boundary_apply(s, name, unit_label, t, "alternative")
            if a != b:
                report.witnesses.append(("(" + ",".join(term) + ")", f"degree_{n}", a, b))
    return report


@st.composite
def random_structures(draw, grouplike_unit=True):
    """(structure, unit): a coproduct Delta on 1-3 labels whose rows are each
    group-like, primitive (x @ unit + unit @ x) or random, so coassociative
    and non-coassociative coproducts both occur.  The unit's row is
    unit @ unit when ``grouplike_unit``, and drawn like the others if not."""
    labels = ("e", "x", "y")[: draw(st.integers(min_value=1, max_value=3))]
    unit = draw(st.sampled_from(labels))
    table = {}
    for lab in labels:
        kind = "grouplike" if grouplike_unit and lab == unit else draw(
            st.sampled_from(("grouplike", "primitive", "random")))
        row = {}
        if kind == "grouplike":
            add_scaled(row, [((lab, lab), ONE)], ONE)
        elif kind == "primitive":
            add_scaled(row, [((lab, unit), ONE), ((unit, lab), ONE)], ONE)
        else:
            pairs = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
            for term in draw(st.lists(pairs, max_size=3)):
                add_scaled(row, [(term, draw(st.sampled_from(COEFFS)))], ONE)
        table[lab] = row
    space = BasisSpace(labels)
    return LStructure(space, {"Delta": MultiLinearMap(space, 2, table)}), unit


def report_parts(report):
    return report.axiom, report.notes, report.witnesses


@settings(max_examples=120, deadline=None)
@given(case=random_structures(), form=st.sampled_from(FORMS),
       degree=st.integers(min_value=1, max_value=3))
def test_complex_check_matches_row_cache_oracle(case, form, degree):
    s, unit = case
    assert report_parts(check_complex(s, "Delta", unit, degree, form)) == report_parts(
        oracle_check_complex(s, "Delta", unit, degree, form))


@settings(max_examples=80, deadline=None)
@given(case=random_structures(grouplike_unit=False),
       degree=st.integers(min_value=1, max_value=3), data=st.data())
def test_forms_agree_matches_enumerating_oracle(case, degree, data):
    s, _ = case
    unit = data.draw(st.sampled_from(s.space.labels))
    assert report_parts(check_boundary_forms_agree(s, "Delta", unit, degree)) == (
        report_parts(oracle_forms_agree(s, "Delta", unit, degree)))


# Unit insertions, as (gap, coefficient), that a mutant adds to the
# alternative form: slot 1 without its insertion at gap 0 or 1, slot 2
# without gap 2, slot 3 without gap 3, and an insertion moved from gap 2 to
# gap 1, which the probe (unit,...,unit) could not see.
MUTANTS = [((0, ONE),), ((1, ONE),), ((2, MINUS_ONE),), ((3, ONE),),
           ((1, ONE), (2, MINUS_ONE))]


@pytest.mark.parametrize("extra", MUTANTS)
def test_forms_agree_sees_a_misplaced_flower_insertion(boundary_structures, monkeypatch,
                                                       extra):
    real = complexes.boundary_apply

    def mutant(s, name, unit_label, tensor, form="primary"):
        out = real(s, name, unit_label, tensor, form)
        if form == "alternative" and tensor and len(next(iter(tensor))) >= extra[-1][0]:
            for gap, coeff in extra:
                add_scaled(out, insert_unit(tensor, gap, unit_label).items(), coeff)
        return out

    monkeypatch.setattr(complexes, "boundary_apply", mutant)
    for case, name in BOUNDARY_CASES:
        s = boundary_structures[case]
        for unit in s.space.labels:
            assert not check_boundary_forms_agree(s, name, unit, max_degree=3).passed
            assert not oracle_forms_agree(s, name, unit, max_degree=3).passed


def test_check_complex_rejects_unknown_form_after_unit_checks(boundary_structures):
    # A unit that is not group-like is reported before the form is read.
    report = check_complex(boundary_structures["F"], "Delta", "b", form="bogus")
    assert report.witnesses[0][1] == "unit_grouplike"
    s = boundary_structures["group3"]
    for degree in (0, 1, 3):
        with pytest.raises(ValueError, match="unknown boundary form 'bogus'"):
            check_complex(s, "Delta", "g0", max_degree=degree, form="bogus")
    with pytest.raises(ValueError, match="unit label 'nope' not in space"):
        check_complex(s, "Delta", "nope", form="bogus")
    with pytest.raises(KeyError):
        check_complex(s, "Nope", "g0", form="bogus")
