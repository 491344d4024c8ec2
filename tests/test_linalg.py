"""Basis spaces, sparse multi-linear maps, exact row reduction, and the
finite algebras built on them."""

from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from lcoalg import linalg
from lcoalg.coalgebra import FiniteAlgebra
from lcoalg.linalg import (
    BasisSpace,
    MultiLinearMap,
    add_scaled,
    kernel_basis,
    rref,
    solve_linear,
    tensor_add,
    tensor_product,
    tensor_scale,
    tensor_sub,
    unit_vector,
)
from lcoalg.scalars import MINUS_ONE, ONE, Q, ZERO, Scalar


def test_basis_space_rejects_duplicates():
    with pytest.raises(ValueError):
        BasisSpace(["a", "a"])
    with pytest.raises(ValueError):
        BasisSpace([])


def test_basis_space_union_disjointness():
    a = BasisSpace(["a", "b"])
    b = BasisSpace(["c"])
    assert a.union(b).labels == ("a", "b", "c")
    with pytest.raises(ValueError):
        a.union(BasisSpace(["b"]))


def test_vector_ops_drop_zeros():
    v = tensor_add({"a": ONE}, {"a": -ONE, "b": Q})
    assert v == {"b": Q}
    assert tensor_scale(v, ZERO) == {}


def test_tensor_product_bilinearity():
    s = tensor_product({("a",): ONE, ("b",): Q}, {("c",): ONE})
    assert s == {("a", "c"): ONE, ("b", "c"): Q}


TWO = Scalar.from_rational(2)


def _sample_maps():
    space = BasisSpace(["a", "b"])
    f = MultiLinearMap(space, 2, {
        "a": {("a", "b"): ONE},
        "b": {("b", "b"): Q, ("a", "a"): TWO},
    })
    g = MultiLinearMap(space, 2, {
        "a": {("b", "a"): ONE},
        "b": {("a", "b"): ONE},
    })
    return space, f, g


def test_map_validation():
    space = BasisSpace(["a"])
    with pytest.raises(ValueError):
        MultiLinearMap(space, 2, {"a": {("a",): ONE}})  # wrong arity
    with pytest.raises(ValueError):
        MultiLinearMap(space, 2, {"a": {("a", "x"): ONE}})  # unknown label
    with pytest.raises(ValueError):
        MultiLinearMap(space, 2, {"x": {("a", "a"): ONE}})  # unknown key
    with pytest.raises(ValueError, match="arity must not be negative"):
        MultiLinearMap(space, -1, {})


def test_an_arity_zero_map_contracts_the_leg_it_acts_on():
    # A functional, such as a counit, maps into the 0-th tensor power.
    space = BasisSpace(["a", "b"])
    eps = MultiLinearMap(space, 0, {"a": {(): TWO}, "b": {(): ZERO}})
    assert eps.table == {"a": {(): TWO}}
    tensor = {("a", "b"): Q, ("b", "a"): ONE, ("a", "a"): MINUS_ONE}
    assert eps.at_slot(tensor, 1, 2) == {("b",): Q * TWO, ("a",): -TWO}
    assert eps.at_slot(tensor, 2, 2) == {("b",): TWO, ("a",): -TWO}


def test_zero_coefficients_are_dropped():
    space = BasisSpace(["a"])
    m = MultiLinearMap(space, 2, {"a": {("a", "a"): ZERO}})
    assert m.is_zero()
    assert m == MultiLinearMap(space, 2, {})


def test_at_slot_interchange():
    # Applying maps at independent slots commutes (order of application
    # at disjoint positions does not matter once slots are renumbered).
    _, f, g = _sample_maps()
    start = {("a", "b"): ONE, ("b", "a"): Q}
    # f at slot 1 makes degree 3; then g at slot 3 acts on the old slot 2.
    one_way = g.at_slot(f.at_slot(start, 1, 2), 3, 3)
    other_way = f.at_slot(g.at_slot(start, 2, 2), 1, 3)
    assert one_way == other_way


def test_at_slot_linearity():
    _, f, _ = _sample_maps()
    t1 = {("a", "a"): ONE}
    t2 = {("b", "a"): Q}
    combined = f.at_slot(tensor_add(t1, t2), 1, 2)
    split = tensor_add(f.at_slot(t1, 1, 2), f.at_slot(t2, 1, 2))
    assert combined == split


def test_at_slot_passes_a_unit_factor_through():
    # A product with ONE is the other factor itself, so no multiply is made.
    _, f, _ = _sample_maps()
    out = f.at_slot({("b", "a"): ONE, ("a", "b"): Q}, 1, 2)
    assert out == {("b", "b", "a"): Q, ("a", "a", "a"): TWO, ("a", "b", "b"): Q}
    assert out[("b", "b", "a")] is f.table["b"][("b", "b")]
    assert out[("a", "b", "b")] is Q


def test_tau_involution():
    _, f, _ = _sample_maps()
    assert f.tau().tau() == f


def test_add_sub():
    _, f, g = _sample_maps()
    assert f.add(g).sub(g) == f


matrix_entries = st.integers(min_value=-3, max_value=3)


@st.composite
def matrices(draw):
    nrows = draw(st.integers(min_value=1, max_value=4))
    ncols = draw(st.integers(min_value=1, max_value=4))
    return [
        [Scalar.from_rational(draw(matrix_entries)) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def _matvec(matrix, vec):
    return [
        sum((a * x for a, x in zip(row, vec)), ZERO) for row in matrix
    ]


@given(matrices())
def test_kernel_vectors_multiply_to_zero(matrix):
    ncols = len(matrix[0])
    basis = kernel_basis(matrix, ncols=ncols)
    rank = len(rref(matrix)[1])
    assert len(basis) == ncols - rank
    for vec in basis:
        assert all(v.is_zero() for v in _matvec(matrix, vec))


@given(matrices())
def test_solve_linear_solves(matrix):
    ncols = len(matrix[0])
    target = [Scalar.from_rational(1)] * len(matrix)
    solution = solve_linear(matrix, target)
    if solution is not None:
        assert _matvec(matrix, solution) == target


# Mostly zeros, as in the monomial channels the constructions invert.
sparse_entries = st.sampled_from(
    [ZERO] * 5 + [ONE, MINUS_ONE, TWO, Q, -Q ** 3, Q ** -2, ONE / (Q + ONE)]
)


@st.composite
def sparse_matrices(draw):
    nrows = draw(st.integers(min_value=1, max_value=5))
    ncols = draw(st.integers(min_value=1, max_value=6))
    return [[draw(sparse_entries) for _ in range(ncols)] for _ in range(nrows)]


@settings(deadline=None)
@given(matrices() | sparse_matrices())
def test_rref_pivots_are_unit_columns(matrix):
    rows, pivots = rref(matrix)
    for r, c in enumerate(pivots):
        assert rows[r][c] == ONE
        for i in range(len(rows)):
            if i != r:
                assert rows[i][c].is_zero()


def test_finite_algebra_checks_unit_and_associativity():
    space = BasisSpace(["e", "g"])
    good = FiniteAlgebra(
        space,
        {("e", "e"): {"e": ONE}, ("e", "g"): {"g": ONE},
         ("g", "e"): {"g": ONE}, ("g", "g"): {"e": ONE}},
        {"e": ONE},
    )
    assert good.mul_labels("g", "g") == {"e": ONE}
    three = BasisSpace(["e", "a", "b"])
    unital = {
        ("e", "e"): {"e": ONE}, ("e", "a"): {"a": ONE}, ("e", "b"): {"b": ONE},
        ("a", "e"): {"a": ONE}, ("b", "e"): {"b": ONE},
    }
    with pytest.raises(ValueError):
        # (a a) b = b b = e but a (a b) = a e = a.
        FiniteAlgebra(
            three,
            {**unital,
             ("a", "a"): {"b": ONE}, ("a", "b"): {"e": ONE},
             ("b", "a"): {"a": ONE}, ("b", "b"): {"e": ONE}},
            {"e": ONE},
        )


def test_finite_algebra_rejects_broken_unit():
    space = BasisSpace(["e", "g"])
    with pytest.raises(ValueError):
        FiniteAlgebra(
            space,
            {("e", "e"): {"e": ONE}, ("e", "g"): {"e": ONE},
             ("g", "e"): {"g": ONE}, ("g", "g"): {"e": ONE}},
            {"e": ONE},
        )


def test_mul_tensors_componentwise():
    space = BasisSpace(["e", "g"])
    alg = FiniteAlgebra(
        space,
        {("e", "e"): {"e": ONE}, ("e", "g"): {"g": ONE},
         ("g", "e"): {"g": ONE}, ("g", "g"): {"e": ONE}},
        {"e": ONE},
    )
    left = {("g", "e"): ONE}
    right = {("g", "g"): Q}
    assert alg.mul_tensors(left, right) == {("e", "g"): Q}




# -- map sums against the set-walking loops they replaced --------------------


def set_walking_add(f, g):
    """MultiLinearMap.add as it was: labels in the order of a set."""
    table = {}
    for label in set(f.table) | set(g.table):
        table[label] = tensor_add(f.of_label(label), g.of_label(label))
    return MultiLinearMap(f.domain, f.arity, table)


def set_walking_sub(f, g):
    table = {}
    for label in set(f.table) | set(g.table):
        table[label] = tensor_sub(f.of_label(label), g.of_label(label))
    return MultiLinearMap(f.domain, f.arity, table)


coefficients = st.sampled_from([ONE, MINUS_ONE, TWO, Q, -Q, Q ** -2, ONE / (Q + ONE)])
LABEL_POOL = ["a", "b", "c", "d", "e", "f", "g", "h"]


@st.composite
def map_pairs(draw):
    """Two maps on one space; about half of g's terms cancel f's."""
    n = draw(st.integers(min_value=1, max_value=len(LABEL_POOL)))
    labels = draw(st.permutations(LABEL_POOL))[:n]
    space = BasisSpace(labels)
    arity = draw(st.integers(min_value=1, max_value=2))
    terms = st.tuples(*[st.sampled_from(labels)] * arity)
    tables = st.dictionaries(
        st.sampled_from(labels), st.dictionaries(terms, coefficients, max_size=3),
        max_size=n,
    )
    f_table = draw(tables)
    g_table = draw(tables)
    for label, tensor in f_table.items():
        if draw(st.booleans()):
            g_table[label] = {**g_table.get(label, {}), **tensor}
    return MultiLinearMap(space, arity, f_table), MultiLinearMap(space, arity, g_table)


def _in_basis_order(m):
    return list(m.table) == [lab for lab in m.domain.labels if lab in m.table]


@given(map_pairs())
def test_map_add_and_sub_match_the_set_walking_loops(pair):
    f, g = pair
    for fast, slow in ((f.add(g), set_walking_add(f, g)), (f.sub(g), set_walking_sub(f, g))):
        assert fast.table == slow.table
        # Each label's tensor is built in one order by both; only the
        # order of the labels themselves came from the hash seed.
        for label, tensor in fast.table.items():
            assert list(tensor.items()) == list(slow.table[label].items())
        assert _in_basis_order(fast)


def test_map_add_and_sub_list_labels_in_basis_order(f_data):
    s = f_data["structure"]
    delta, deltatilde = s.coproduct("Delta"), s.coproduct("Deltatilde")
    for both in (delta.add(deltatilde), delta.sub(deltatilde), deltatilde.add(delta)):
        assert list(both.table) == ["a", "b", "c", "d"]


# -- a signed sum of maps in one pass against add, sub and tau ----------------


SUM_COEFFICIENTS = [ONE, MINUS_ONE, TWO, ONE / TWO, -ONE / (TWO + ONE), Q, -Q, Q ** -2]


@st.composite
def signed_sums(draw):
    """1-4 terms (c, m, swap) over 1-3 arity-2 maps on 2-3 labels; a last
    term may cancel an earlier one, swapped as it is or the other way."""
    labels = LABEL_POOL[:draw(st.integers(min_value=2, max_value=3))]
    space = BasisSpace(labels)
    pairs = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
    tables = st.dictionaries(st.sampled_from(labels), st.dictionaries(
        pairs, st.sampled_from(SUM_COEFFICIENTS), max_size=3), max_size=len(labels))
    maps = [MultiLinearMap(space, 2, draw(tables))
            for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    terms = draw(st.lists(st.tuples(st.sampled_from(SUM_COEFFICIENTS),
                                    st.sampled_from(maps), st.booleans()),
                          min_size=1, max_size=4))
    if len(terms) < 4 and draw(st.booleans()):
        c, m, swap = draw(st.sampled_from(terms))
        terms.append((-c, m, swap))
    return terms


def composed_signed_sum(terms):
    """The sum as composed from ``tau``, ``add`` and ``sub``, a coefficient
    other than +-1 scaling every entry of its map."""
    total = None
    for c, m, swap in terms:
        if swap:
            m = m.tau()
        if c == MINUS_ONE and total is not None:
            total = total.sub(m)
            continue
        if c != ONE:
            m = MultiLinearMap(m.domain, 2,
                               {lab: tensor_scale(t, c) for lab, t in m.table.items()})
        total = m if total is None else total.add(m)
    return total


_F = MultiLinearMap(BasisSpace(["a", "b"]), 2, {"a": {("a", "b"): ONE, ("b", "b"): Q}})


# 200 examples, or more under a longer profile (--hypothesis-profile=ci).
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(signed_sums())
@example([(ONE, _F, False), (MINUS_ONE, _F, False)])
@example([(Q, _F, True), (ONE, _F, False), (-Q, _F, True)])
def test_signed_sum_matches_add_sub_and_tau(terms):
    built = MultiLinearMap._plus(terms)
    assert built.table == composed_signed_sum(terms).table
    assert all(built.table.values()) and _in_basis_order(built)


def test_signed_sum_refuses_to_swap_a_map_of_arity_one():
    m = MultiLinearMap(BasisSpace(["a"]), 1, {"a": {("a",): ONE}})
    with pytest.raises(ValueError, match="tau applies to arity-2 maps"):
        MultiLinearMap._plus([(ONE, m, True)])


# -- mul_tensors against the hand-rolled product it replaced -----------------


def hand_rolled_mul_tensors(algebra, s, t):
    out = {}
    for ts, cs in s.items():
        for tt, ct in t.items():
            factors = [algebra.mul_labels(a, b) for a, b in zip(ts, tt)]
            partial = {(): cs * ct}
            for vec in factors:
                nxt = {}
                for term, coeff in partial.items():
                    add_scaled(nxt, ((term + (lab,), c) for lab, c in vec.items()), coeff)
                partial = nxt
            add_scaled(out, partial.items(), ONE)
    return out


@st.composite
def truncated_polynomial_algebras(draw):
    """k[x] / (x^n - c_{n-1} x^{n-1} - ... - c_0) on x^0..x^{n-1}, with the
    basis labels shuffled; each c_i may be zero."""
    n = draw(st.integers(min_value=1, max_value=4))
    relation = [draw(sparse_entries) for _ in range(n)]
    labels = draw(st.permutations(LABEL_POOL))[:n]

    def power(k):  # x^k as coefficients of x^0..x^{n-1}
        if k < n:
            return [ONE if i == k else ZERO for i in range(n)]
        lower = power(k - 1)
        top = lower[-1]
        return [ZERO] + lower[:-1] if top.is_zero() else [
            (ZERO if i == 0 else lower[i - 1]) + top * relation[i] for i in range(n)
        ]

    product = {
        (labels[i], labels[j]): {
            labels[k]: c for k, c in enumerate(power(i + j)) if not c.is_zero()
        }
        for i in range(n) for j in range(n)
    }
    return FiniteAlgebra(BasisSpace(labels), product, {labels[0]: ONE})


@st.composite
def algebra_tensor_pairs(draw):
    algebra = draw(truncated_polynomial_algebras())
    degree = draw(st.integers(min_value=1, max_value=3))
    terms = st.tuples(*[st.sampled_from(algebra.space.labels)] * degree)
    tensors = st.dictionaries(terms, coefficients, max_size=4)
    return algebra, draw(tensors), draw(tensors)


@settings(deadline=None)
@given(algebra_tensor_pairs())
def test_mul_tensors_matches_the_hand_rolled_product(case):
    algebra, s, t = case
    assert list(algebra.mul_tensors(s, t).items()) == list(
        hand_rolled_mul_tensors(algebra, s, t).items()
    )


# -- at_slot against the summing loop it replaced ------------------------------


def summing_at_slot(m, tensor, slot, degree):
    """MultiLinearMap.at_slot as it was: every output term is added to the
    sum so far, and a key whose sum cancels is dropped."""
    if not 1 <= slot <= degree:
        raise ValueError(f"slot {slot} out of range for degree {degree}")
    out = {}
    for term, coeff in tensor.items():
        if len(term) != degree:
            raise ValueError(f"term {term} does not have degree {degree}")
        image = m.table.get(term[slot - 1])
        if not image:
            continue
        head, tail = term[: slot - 1], term[slot:]
        for mid, c in image.items():
            new_term = head + mid + tail
            s = out.get(new_term, None)
            add = c if coeff is ONE else coeff if c is ONE else coeff * c
            s = add if s is None else s + add
            if s.is_zero():
                out.pop(new_term, None)
            else:
                out[new_term] = s
    return out


# Few labels and signed coefficients, so that outputs repeat and cancel.
slot_coefficients = st.sampled_from([ONE, MINUS_ONE, TWO, -TWO, Q, -Q, Q ** -2])


@st.composite
def slot_cases(draw):
    """(map, tensor, slot, degree) over two or three labels, every label
    with an image; the tensor may hold a zero coefficient, and rarely the
    slot is out of range or a term has the wrong degree."""
    labels = LABEL_POOL[:draw(st.integers(min_value=2, max_value=3))]
    arity = draw(st.integers(min_value=1, max_value=2))
    m = MultiLinearMap(BasisSpace(labels), arity, draw(st.fixed_dictionaries({
        label: st.dictionaries(st.tuples(*[st.sampled_from(labels)] * arity),
                               slot_coefficients, max_size=3)
        for label in labels
    })))
    degree = draw(st.integers(min_value=1, max_value=3))
    slot = draw(st.integers(min_value=0, max_value=degree + 1)
                if draw(st.integers(0, 19)) == 0
                else st.integers(min_value=1, max_value=degree))
    lengths = st.integers(min_value=1, max_value=4) if draw(st.integers(0, 9)) == 0 \
        else st.just(degree)
    terms = lengths.flatmap(lambda n: st.tuples(*[st.sampled_from(labels)] * n))
    tensor = draw(st.dictionaries(terms, slot_coefficients | st.just(ZERO), max_size=5))
    return m, tensor, slot, degree


def _outcome(apply, *args):
    try:
        return ("tensor", list(apply(*args).items()))
    except ValueError as exc:
        return ("error", str(exc))


def _count_sums(monkeypatch):
    """The add_scaled calls at_slot makes, which it makes only to sum."""
    calls = []
    real = linalg.add_scaled
    monkeypatch.setattr(linalg, "add_scaled", lambda *args: calls.append(args) or real(*args))
    return calls


# One map sends a, b and c all to <a>, with the coefficients 1, -1 and q.
# Two labels on leg 1 of each tensor below share every output key, so
# at_slot sums all six terms of each; over a and b each pair cancels.
_MERGING = MultiLinearMap(BasisSpace(["a", "b", "c"]), 1, {
    "a": {("a",): ONE}, "b": {("a",): MINUS_ONE}, "c": {("a",): Q}})
_REPEATED = {(x, y): ONE for x in "ac" for y in "abc"}
_CANCELLING = {(x, y): TWO for x in "ab" for y in "abc"}


def test_at_slot_matches_the_summing_loop(monkeypatch):
    sums = _count_sums(monkeypatch)

    # 400 examples, or more under a longer profile (--hypothesis-profile=ci).
    @settings(max_examples=max(400, settings.default.max_examples), deadline=None)
    @given(slot_cases())
    @example((_MERGING, _REPEATED, 1, 2))
    @example((_MERGING, _CANCELLING, 1, 2))
    def same_tensor_in_the_same_order(case):
        m, tensor, slot, degree = case
        assert _outcome(m.at_slot, tensor, slot, degree) == _outcome(
            summing_at_slot, m, tensor, slot, degree)

    same_tensor_in_the_same_order()
    # Repeated keys and cancellations occurred, so the sums were checked:
    # the two examples alone make 12 calls.
    assert len(sums) >= 12


def test_at_slot_sums_only_on_a_repeated_key(monkeypatch):
    space = BasisSpace(["a", "b"])
    m = MultiLinearMap(space, 2, {"a": {("a", "a"): ONE}, "b": {("a", "a"): -Q, ("a", "b"): Q}})
    sums = _count_sums(monkeypatch)
    assert m.at_slot({("a",): TWO}, 1, 1) == {("a", "a"): TWO}
    assert m.at_slot({("a",): ONE, ("b",): ZERO}, 1, 1) == {("a", "a"): ONE}
    assert not sums
    assert m.at_slot({("a",): Q, ("b",): ONE}, 1, 1) == {("a", "b"): Q}  # cancels
    assert sums


# -- the whole-table constructor against the per-term loop it replaced --------


def per_term_table(domain, arity, table):
    """MultiLinearMap's table as it was built: term by term, dropping zeros
    and raising at the first bad key, arity or label."""
    if arity < 0:
        raise ValueError("arity must not be negative")
    clean = {}
    for label, tensor in table.items():
        if label not in domain:
            raise ValueError(f"table key {label!r} is not a domain label")
        entry = {t: c for t, c in tensor.items() if not c.is_zero()}
        for term in entry:
            if len(term) != arity:
                raise ValueError(
                    f"term {term} of {label!r} has wrong arity (want {arity})"
                )
            for lab in term:
                if lab not in domain:
                    raise ValueError(
                        f"label {lab!r} in value of {label!r} is not in the space"
                    )
        if entry:
            clean[label] = entry
    return clean


@st.composite
def raw_tables(draw):
    """(domain, arity, table) where keys and labels may be unknown, terms
    may have the wrong length, and coefficients and entries may be zero or
    empty."""
    labels = LABEL_POOL[:draw(st.integers(min_value=1, max_value=3))]
    arity = draw(st.integers(min_value=-1, max_value=3))
    bad = draw(st.integers(0, 3)) == 0
    pool = labels + ["z"] if bad else labels
    lengths = st.integers(min_value=0, max_value=4) if bad else st.just(max(arity, 0))
    terms = lengths.flatmap(lambda n: st.tuples(*[st.sampled_from(pool)] * n))
    table = draw(st.dictionaries(
        st.sampled_from(pool),
        st.dictionaries(terms, slot_coefficients | st.just(ZERO), max_size=3),
        max_size=4,
    ))
    return BasisSpace(labels), arity, table


def _built(build, *args):
    try:
        return ("table", [(label, list(t.items())) for label, t in build(*args).items()])
    except ValueError as exc:
        return ("error", str(exc))


@settings(max_examples=400, deadline=None)
@given(raw_tables())
def test_constructor_matches_the_per_term_loop(case):
    domain, arity, table = case
    snapshot = {label: dict(t) for label, t in table.items()}
    assert _built(lambda *a: MultiLinearMap(*a).table, domain, arity, table) == _built(
        per_term_table, domain, arity, table)
    assert table == snapshot  # the input is not touched
    if _built(per_term_table, domain, arity, table)[0] == "table":
        m = MultiLinearMap(domain, arity, table)
        for label, tensor in m.table.items():
            assert tensor is not table[label]  # each entry is a copy


@pytest.mark.parametrize("table", [
    {"a": {("a", "a"): 1}},  # not a Scalar
    {"a": [(("a", "a"), ONE)]},  # not a dict
    {"z": {}, "a": [(("a", "a"), ONE)]},  # an earlier bad key
])
def test_constructor_raises_as_the_per_term_loop_on_foreign_values(table):
    space = BasisSpace(["a"])
    with pytest.raises(Exception) as fast:
        MultiLinearMap(space, 2, table)
    with pytest.raises(Exception) as slow:
        per_term_table(space, 2, table)
    assert (type(fast.value), str(fast.value)) == (type(slow.value), str(slow.value))


# -- associativity as coassociativity of the transpose, against the vector
# products: the oracle ----------------------------------------------------------


def vector_product_check_associative(self):
    """``FiniteAlgebra._check_associative`` written as the definition: both
    sides of every triple, in basis order, built with ``mul_vectors`` on unit
    vectors."""
    for a in self.space.labels:
        for b in self.space.labels:
            ab = self.mul_labels(a, b)
            for c in self.space.labels:
                left = self.mul_vectors(ab, unit_vector(c))
                right = self.mul_vectors(
                    unit_vector(a), self.mul_labels(b, c)
                )
                if left != right:
                    raise ValueError(
                        f"associativity fails at ({a!r}, {b!r}, {c!r})"
                    )


TABLE_COEFFS = (ONE, MINUS_ONE, ONE + ONE, Q, Scalar.q_power(-1))


@st.composite
def unital_tables(draw):
    """A product table on 2 to 4 labels with unit e, and 0 to 2 terms in
    every other entry."""
    labels = ("e", "a", "b", "c")[:draw(st.integers(2, 4))]
    product = {}
    for x in labels:
        product[("e", x)] = {x: ONE}
        product[(x, "e")] = {x: ONE}
    for x in labels[1:]:
        for y in labels[1:]:
            keys = draw(st.lists(st.sampled_from(labels), max_size=2, unique=True))
            product[(x, y)] = {k: draw(st.sampled_from(TABLE_COEFFS)) for k in keys}
    return BasisSpace(labels), product


def _associativity_outcome(space, product, unit="e"):
    try:
        FiniteAlgebra(space, product, {unit: ONE})
    except ValueError as exc:
        return str(exc)
    return None


def test_associativity_matches_the_vector_products():
    outcomes = set()

    @settings(max_examples=max(300, settings.default.max_examples), deadline=None)
    @given(unital_tables())
    def agree(table):
        new = _associativity_outcome(*table)
        with mock.patch.object(FiniteAlgebra, "_check_associative",
                               vector_product_check_associative):
            assert _associativity_outcome(*table) == new
        outcomes.add(new is None)

    agree()
    assert outcomes == {True, False}


# -- a full monoid table is decided by composing its index rows --------------


def _closure(generators, points):
    """The monoid of maps of ``points`` points that ``generators`` generate,
    each map a tuple of images, identity first; (f g)(x) = f(g(x))."""
    found = [tuple(range(points))]
    for f in found:
        for g in generators:
            fg = tuple(f[x] for x in g)
            if fg not in found:
                found.append(fg)
    return found


@st.composite
def monoid_shaped_tables(draw):
    """(space, product, unit label, whether every product is one label with
    coefficient 1).  A full monoid-shaped table: a random one on 1 to 5
    labels (rarely associative), a cyclic group of order 1 to 5, or a monoid
    of maps of 2 or 3 points.  Now and then one product of two labels other
    than the unit is missing, holds a second term, or has coefficient 2 or
    q, so that the table takes the transpose pass."""
    kind = draw(st.sampled_from(("random", "cyclic", "maps")))
    if kind == "random":
        labels = [f"m{i}" for i in range(draw(st.integers(1, 5)))]
        unit = draw(st.sampled_from(labels))
        table = {(x, y): y if x == unit else x if y == unit else draw(st.sampled_from(labels))
                 for x in labels for y in labels}
    elif kind == "cyclic":
        n = draw(st.integers(1, 5))
        labels, unit = [f"g{i}" for i in range(n)], "g0"
        table = {(f"g{i}", f"g{j}"): f"g{(i + j) % n}" for i in range(n) for j in range(n)}
    else:
        points = draw(st.integers(2, 3))
        maps = st.tuples(*[st.integers(0, points - 1)] * points)
        generators = draw(st.lists(maps, min_size=1, max_size=2))
        found = _closure(generators, points)
        if len(found) > 8:
            found = _closure(generators[:1], points)
        name = {f: "m" + "".join(map(str, f)) for f in found}
        labels, unit = [name[f] for f in found], name[found[0]]
        table = {(name[f], name[g]): name[tuple(f[x] for x in g)] for f in found for g in found}
    labels = draw(st.permutations(labels))
    product = {pair: {k: ONE} for pair, k in table.items()}
    others = [x for x in labels if x != unit]
    full = not others or draw(st.sampled_from((True, True, True, False)))
    if not full:
        pair = (draw(st.sampled_from(others)), draw(st.sampled_from(others)))
        (k,) = product[pair]
        change = draw(st.sampled_from(("missing", "two terms", "coefficient")))
        if change == "missing":
            del product[pair]
        elif change == "two terms":
            product[pair][draw(st.sampled_from([x for x in labels if x != k]))] = ONE
        else:
            product[pair][k] = draw(st.sampled_from((ONE + ONE, Q)))
    return BasisSpace(labels), product, unit, full


# Labels in the order b, e, a, unit e: four triples fail, and the least by
# index, (b, b, a), is not the least by name, (a, a, a).
SEVERAL_FAILURES = (
    BasisSpace(["b", "e", "a"]),
    {**{(x, "e"): {x: ONE} for x in "bea"}, **{("e", x): {x: ONE} for x in "bea"},
     ("b", "b"): {"b": ONE}, ("b", "a"): {"e": ONE}, ("a", "b"): {"b": ONE},
     ("a", "a"): {"b": ONE}},
    "e", True)


def test_monoid_tables_match_the_vector_products():
    """A full monoid table takes the row path and any other the transpose
    pass, and either gives the outcome of the vector-product oracle."""
    outcomes, paths = set(), set()

    @settings(max_examples=max(300, settings.default.max_examples), deadline=None)
    @given(monoid_shaped_tables())
    @example(SEVERAL_FAILURES)
    def agree(case):
        space, product, unit, full = case
        rows = []
        real = FiniteAlgebra._monoid_rows

        def recording(self):
            rows.append(real(self) is not None)
            return real(self)

        with mock.patch.object(FiniteAlgebra, "_monoid_rows", recording):
            new = _associativity_outcome(space, product, unit)
        assert rows == [full]
        with mock.patch.object(FiniteAlgebra, "_check_associative",
                               vector_product_check_associative):
            assert _associativity_outcome(space, product, unit) == new
        outcomes.add(new is None)
        paths.add(full)

    agree()
    assert outcomes == {True, False}
    assert paths == {True, False}


def test_the_least_failing_triple_by_index_is_named():
    space, product, unit, _ = SEVERAL_FAILURES
    times = {pair: next(iter(vec)) for pair, vec in product.items()}
    labels = space.labels
    failing = [(a, b, c) for a in labels for b in labels for c in labels
               if times[times[a, b], c] != times[a, times[b, c]]]
    assert failing == [("b", "b", "a"), ("b", "a", "a"), ("a", "b", "a"), ("a", "a", "a")]
    assert _associativity_outcome(space, product, unit) == (
        "associativity fails at ('b', 'b', 'a')")
