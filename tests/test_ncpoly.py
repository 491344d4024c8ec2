"""Noncommutative polynomials, word rewriting for the quantum-matrix
relations, multiplicative coproduct extension, and the antipode-type
convolution identity."""

import pytest
from hypothesis import given, settings, strategies as st

from lcoalg.coalgebra import AxiomReport
from lcoalg.linalg import add_scaled, tensor_add, tensor_product, tensor_scale, tensor_sub
from lcoalg.ncpoly import (
    AntipodeData,
    RewriteError,
    RewriteSystem,
    check_bridge_homomorphism,
    check_l_hopf,
    coproduct_of_poly,
    poly_letter,
    poly_one,
    relation_set,
    tensor_poly_mul,
)
from lcoalg.scalars import MINUS_ONE, ONE, Q, ZERO, Scalar


def word(text):
    return {tuple(text): ONE}


def test_poly_arithmetic():
    p = tensor_add(poly_letter("a"), poly_letter("b"))
    q = tensor_product(p, p)
    assert q == {
        ("a", "a"): ONE, ("a", "b"): ONE, ("b", "a"): ONE, ("b", "b"): ONE,
    }
    assert tensor_sub(p, p) == {}
    assert tensor_product(poly_one(), p) == p
    assert tensor_scale(p, ZERO) == {}


def test_quantum_determinant_normalizes_to_zero(qm_data):
    rs = qm_data["rewrite1"]
    det = tensor_sub(
        tensor_sub(
            tensor_product(poly_letter("a"), poly_letter("d")),
            tensor_scale(tensor_product(poly_letter("b"), poly_letter("c")), Q ** -1),
        ),
        poly_one(),
    )
    assert rs.normalize(det) == {}


def test_commutation_reductions(qm_data):
    rs = qm_data["rewrite1"]
    # -q ab + ba -> 0: the reduction the x-generator identity relies on.
    p = tensor_add(
        tensor_scale(tensor_product(poly_letter("a"), poly_letter("b")), -Q),
        tensor_product(poly_letter("b"), poly_letter("a")),
    )
    assert rs.normalize(p) == {}
    assert rs.normalize(word("cb")) == word("bc")
    assert rs.normalize(word("db")) == {("b", "d"): Q}


def test_normalize_idempotent_and_linear(qm_data):
    rs = qm_data["rewrite1"]
    p = rs.normalize(word("dcba"))
    assert rs.normalize(p) == p
    a, b = word("adad"), word("bcda")
    together = rs.normalize(tensor_add(a, b))
    split = tensor_add(rs.normalize(a), rs.normalize(b))
    assert together == split


LETTERS = "abcd"


@given(st.text(alphabet=LETTERS, min_size=0, max_size=5))
def test_normal_forms_contain_no_redex(text):
    rs = relation_set("quantum_matrix")
    normal = rs.normalize(word(text))
    redexes = {"ab", "ac", "cb", "dc", "db", "ad", "da"}
    for w in normal:
        joined = "".join(w)
        assert not any(r in joined for r in redexes)


@given(
    st.text(alphabet=LETTERS, min_size=0, max_size=3),
    st.text(alphabet=LETTERS, min_size=0, max_size=3),
)
def test_normalization_is_multiplicative(left, right):
    # Confluence probe: normalizing before or after concatenation agrees.
    rs = relation_set("quantum_matrix")
    direct = rs.normalize(word(left + right))
    staged = rs.normalize(
        tensor_product(rs.normalize(word(left)), rs.normalize(word(right)))
    )
    assert direct == staged


def test_each_rule_is_consistent_under_right_multiplication():
    # Second confluence probe: replacing a redex then multiplying agrees
    # with multiplying first, for every rule and every following letter.
    rs = relation_set("quantum_matrix")
    for pattern, replacement in rs.rules:
        for letter in LETTERS:
            lhs = rs.normalize({pattern + (letter,): ONE})
            rhs = rs.normalize(
                tensor_product(dict(replacement), poly_letter(letter))
            )
            assert lhs == rhs, pattern


def test_tilde_relation_set_is_the_written_out_table():
    """The second alphabet's presentation, written out letter for letter: the
    quantum matrix rules under a -> y, b -> x, c -> u, d -> z."""
    qi = ONE / Q
    written = {
        ("y", "x"): {("x", "y"): qi},
        ("y", "u"): {("u", "y"): qi},
        ("u", "x"): {("x", "u"): ONE},
        ("z", "u"): {("u", "z"): Q},
        ("z", "x"): {("x", "z"): Q},
        ("y", "z"): {(): ONE, ("x", "u"): qi},
        ("z", "y"): {(): ONE, ("x", "u"): Q},
    }
    assert relation_set("quantum_matrix_tilde") == RewriteSystem.from_rules(written)


def test_cyclic_relation_set():
    rs = relation_set("cyclic", 3)
    assert rs.normalize(word("gggg")) == word("g")
    assert rs.normalize(word("ggg")) == poly_one()
    with pytest.raises(ValueError):
        relation_set("cyclic", 0)
    with pytest.raises(KeyError):
        relation_set("nonsense")


def test_step_bound_guards_nontermination():
    looping = RewriteSystem.from_rules({("a",): {("a",): ONE}}, max_steps=10)
    with pytest.raises(RewriteError):
        looping.normalize(word("a"))


def test_bridge_homomorphism_on_all_relations(qm_data):
    report = check_bridge_homomorphism(
        qm_data["bridge1_nc"], qm_data["relations1"],
        qm_data["rewrite1"], qm_data["rewrite2"],
    )
    assert report.passed


def test_generator_coproducts_are_homomorphisms(qm_data):
    rs1, rs2 = qm_data["rewrite1"], qm_data["rewrite2"]
    assert check_bridge_homomorphism(
        qm_data["delta1_nc"], qm_data["relations1"], rs1, rs1
    ).passed
    assert check_bridge_homomorphism(
        qm_data["delta2_nc"], qm_data["relations2"], rs2, rs2
    ).passed


def test_coproduct_extension_on_determinant(qm_data):
    # The multiplicative extension sends ad - bc/q - 1 to zero in both legs.
    rs1, rs2 = qm_data["rewrite1"], qm_data["rewrite2"]
    det = tensor_sub(
        tensor_sub(
            tensor_product(poly_letter("a"), poly_letter("d")),
            tensor_scale(tensor_product(poly_letter("b"), poly_letter("c")), Q ** -1),
        ),
        poly_one(),
    )
    image = coproduct_of_poly(det, qm_data["delta1_nc"], rs1, rs1)
    # Delta sends the determinant to det (x) det, and det itself
    # normalizes to zero, so the whole image vanishes.
    assert image == {}


def test_l_hopf_identity_all_generators(qm_data):
    report = check_l_hopf(
        qm_data["antipode"], ["a", "b", "c", "d", "x", "y", "z", "u"]
    )
    assert report.passed


def test_l_hopf_reports_wrong_counit(qm_data):
    bad = AntipodeData(
        coproducts=qm_data["antipode"].coproducts,
        first=qm_data["antipode"].first,
        second=qm_data["antipode"].second,
        counit={"a": ONE},  # drops the other nonzero values
        rewrite=qm_data["antipode"].rewrite,
    )
    report = check_l_hopf(bad, ["a", "b", "c", "d", "x", "y", "z", "u"])
    assert not report.passed
    assert {w[0] for w in report.witnesses} == {"d", "y", "z"}


# -- the rebuild loops that in-place accumulation replaced -------------------


def tensor_poly_normalize(a, left_rs, right_rs):
    """Each leg of every term of ``a`` normalized, the terms summed."""
    out = {}
    for (lw0, rw0), c0 in a.items():
        left = left_rs.normalize({lw0: ONE})
        right = right_rs.normalize({rw0: ONE})
        for lw, lc in left.items():
            add_scaled(out, (((lw, rw), rc) for rw, rc in right.items()), c0 * lc)
    return out


def rebuilding_coproduct_of_poly(poly, generator_images, left_rs, right_rs):
    """coproduct_of_poly as it was: the sum is copied once per term, and
    both legs of the sum are normalized once more at the end."""
    out = {}
    for w, coeff in poly.items():
        acc = {((), ()): ONE}
        for letter in w:
            acc = tensor_poly_mul(acc, generator_images[letter], left_rs, right_rs)
        out = tensor_add(out, tensor_scale(acc, coeff))
    return tensor_poly_normalize(out, left_rs, right_rs)


def rebuilding_check_l_hopf(data, labels):
    """check_l_hopf as it was: the sum is copied once per term."""
    report = AxiomReport(axiom="l_hopf")
    for x in labels:
        total = {}
        for (lw, rw), c in data.coproducts[x].items():
            left, right = poly_one(), poly_one()
            for letter in lw:
                left = tensor_product(left, data.first[letter])
            for letter in rw:
                right = tensor_product(right, data.second[letter])
            total = tensor_add(total, tensor_scale(tensor_product(left, right), c))
        value = data.rewrite.normalize(total)
        eps = data.counit.get(x, ZERO)
        target = {} if eps.is_zero() else {(): eps}
        if value != target:
            report.witnesses.append((x, "antipode", dict(value), dict(target)))
    return report


nc_coefficients = st.sampled_from([ONE, MINUS_ONE, Q, -Q, Q ** -1, ONE / (Q + ONE)])
letters = st.text(alphabet=LETTERS, max_size=1).map(tuple)
# Repeated words make terms cancel inside the sums.
nc_polys = st.dictionaries(letters, nc_coefficients, max_size=2)
nc_tensors = st.dictionaries(st.tuples(letters, letters), nc_coefficients,
                             min_size=1, max_size=2)


@settings(deadline=None)
@given(st.dictionaries(st.text(alphabet=LETTERS, max_size=3).map(tuple),
                       nc_coefficients, max_size=3),
       st.fixed_dictionaries({letter: nc_tensors for letter in LETTERS}),
       st.booleans())
def test_coproduct_of_poly_matches_the_rebuilding_loop(qm_data, poly, images, random_images):
    rs = qm_data["rewrite1"]
    if not random_images:
        images = qm_data["delta1_nc"]
    fast = coproduct_of_poly(poly, images, rs, rs)
    assert list(fast.items()) == list(rebuilding_coproduct_of_poly(poly, images, rs, rs).items())


@settings(deadline=None)
@given(st.fixed_dictionaries({letter: nc_tensors for letter in LETTERS}),
       st.fixed_dictionaries({letter: nc_polys for letter in LETTERS}),
       st.fixed_dictionaries({letter: nc_polys for letter in LETTERS}),
       st.dictionaries(st.sampled_from(LETTERS), nc_coefficients))
def test_check_l_hopf_matches_the_rebuilding_loop(qm_data, coproducts, first, second, counit):
    data = AntipodeData(coproducts, first, second, counit, qm_data["rewrite1"])
    fast = check_l_hopf(data, LETTERS)
    slow = rebuilding_check_l_hopf(data, LETTERS)
    assert [(x, kind, list(lhs.items()), list(rhs.items()))
            for x, kind, lhs, rhs in fast.witnesses] == [
        (x, kind, list(lhs.items()), list(rhs.items()))
        for x, kind, lhs, rhs in slow.witnesses]
