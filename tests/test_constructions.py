"""Channels and the gluing constructions: self and achiral entanglement,
De Bruijn and flower gluings, the two-channel composition structure,
self-tilings, derivative pairs, and coderivatives."""

import pytest
from hypothesis import given, settings, strategies as st

from lcoalg.coalgebra import LStructure, check_axiom, solve_right_counit
from lcoalg.constructions import (
    ChannelMap,
    EntangledStructure,
    achiral_entangle,
    check_ito_derivative,
    cibils_structures,
    de_bruijn_codialgebra,
    generated_subcoalgebra,
    ito_pair,
    leibniz_coderivative,
    markov_entangle_de_bruijn,
    markov_entangle_flower,
    self_entangle,
    self_tiling_dendriform,
    sum_codipterous,
)
from lcoalg.complexes import flower_coproducts
from lcoalg.dsl import document_from_structure, unparse_document
from lcoalg.fixtures import fixture_group
from lcoalg.graphs import de_bruijn_graph, geometric_support
from lcoalg.linalg import (BasisSpace, MultiLinearMap, add_scaled, functional_value, tensor_add,
                           tensor_sub, unit_vector)
from lcoalg.scalars import ONE, Q, ZERO, Scalar, parse_scalar
from test_convolution import VALUES

TWO = Scalar.from_rational(2)


# -- channels ---------------------------------------------------------------


def test_channel_inverse_round_trip(f_data):
    channel = f_data["channel"]
    for lab in channel.c1.labels:
        assert channel.unapply(channel.apply({lab: ONE})) == {lab: ONE}
    for lab in channel.c2.labels:
        assert channel.apply(channel.unapply({lab: ONE})) == {lab: ONE}


def test_channel_rejects_singular_map():
    c1 = BasisSpace(["a", "b"])
    c2 = BasisSpace(["x", "y"])
    with pytest.raises(ValueError):
        ChannelMap(c1, c2, {"a": {"x": ONE}, "b": {"x": TWO}})
    with pytest.raises(ValueError):
        ChannelMap(c1, BasisSpace(["x"]), {"a": {"x": ONE}})


def test_channel_morphism_predicates(f_data):
    s = f_data["structure"]
    channel = f_data["channel"]
    # The channel target carries no coproduct of its own here, so test the
    # morphism condition against the transported coproduct (must hold).
    entangled = self_entangle(s, "Delta", channel)
    delta_star = entangled.structure.coproduct("Delta_star")
    assert morphism_loop(channel, delta_star, delta_star) == []
    assert counit_loop(channel, {"a": ONE, "d": ONE}, {"x": ONE, "u": ONE}) == []
    assert counit_loop(channel, {"a": ONE}, {}) == ["a"]


def test_channel_fixed_points_detected():
    c1 = BasisSpace(["a"])
    c2 = BasisSpace(["a2"])
    assert not ChannelMap(c1, c2, {"a": {"a2": ONE}}).has_fixed_points()
    same = BasisSpace(["a"])
    assert ChannelMap(same, same, {"a": {"a": ONE}}).has_fixed_points()


# -- self-entanglement ------------------------------------------------------


def test_self_entangle_bridge_values(f_entangled):
    s = f_entangled.structure
    assert s.coproduct("delta1").of_label("x") == {
        ("a", "x"): ONE, ("b", "z"): ONE,
    }
    assert s.coproduct("deltahat1").of_label("x") == {
        ("x", "a"): ONE, ("y", "c"): ONE,
    }
    # Bridges restrict to the original coproduct on the first boundary.
    for lab in "abcd":
        base = s.coproduct("Delta_star").of_label(lab)
        assert s.coproduct("delta1").of_label(lab) == base
        assert s.coproduct("deltahat1").of_label(lab) == base


def test_self_entangle_counit_attached(f_entangled):
    assert f_entangled.counits["eps_star"] == {
        "a": ONE, "d": ONE, "x": ONE, "u": ONE,
    }
    assert "eps_star" in f_entangled.structure.counits


def test_self_entangle_second_bridges_entangled(f_entangled):
    s = f_entangled.structure
    assert check_axiom(
        s, "entanglement", {"Deltatilde": "delta1", "Delta": "delta2"}
    ).passed
    assert check_axiom(
        s, "codipterous", {"Delta": "Delta_star", "delta": "delta2"}
    ).passed
    assert check_axiom(
        s, "anti_codipterous", {"Delta": "Delta_star", "deltahat": "deltahat2"}
    ).passed


def test_self_entangle_requires_disjoint_boundaries(f_data):
    s = f_data["structure"]
    identity = ChannelMap(
        s.space, s.space, {lab: {lab: ONE} for lab in s.space.labels}
    )
    with pytest.raises(ValueError):
        self_entangle(s, "Delta", identity)


# -- achiral entanglement ---------------------------------------------------


def test_achiral_entangle_f(f_achiral):
    s = f_achiral.structure
    assert set(s.coproducts) == {
        "Delta_star", "delta1", "deltatilde2", "deltatildehat2",
        "Delta_star_plain", "Deltatilde_star",
    }
    assert check_axiom(s, "coassoc", {"Delta": "Delta_star"}).passed
    assert check_axiom(
        s, "entanglement", {"Deltatilde": "deltatilde2", "Delta": "delta1"}
    ).passed
    assert check_axiom(
        s, "entanglement", {"Deltatilde": "delta1", "Delta": "deltatildehat2"}
    ).passed


def test_achiral_entangle_rejects_chiral_input(f_entangled):
    # delta1/deltahat1 of the self-entanglement are not an achiral pair.
    s = f_entangled.structure
    sub = LStructure(
        s.space,
        {"delta1": s.coproduct("delta1"), "deltahat1": s.coproduct("deltahat1")},
    )
    other = BasisSpace([f"n{i}" for i in range(s.space.dim)])
    channel = ChannelMap(
        s.space, other,
        {lab: {f"n{i}": ONE} for i, lab in enumerate(s.space.labels)},
    )
    with pytest.raises(ValueError):
        achiral_entangle(sub, "delta1", "deltahat1", channel)


def test_achiral_entangle_refuses_an_unknown_transport(f_data):
    s, channel = f_data["structure"], f_data["channel"]
    with pytest.raises(ValueError,
                       match="^transported 'Nope' is neither Delta nor Deltatilde$"):
        achiral_entangle(s, "Delta", "Deltatilde", channel, transported="Nope")
    # The value is refused before the input pair is read at all.
    with pytest.raises(ValueError, match="^transported 'delta' "):
        achiral_entangle(s, "Delta", "missing", channel, transported="delta")
    documents = []
    for transported in ("Delta", "Deltatilde"):
        assert _same_outcome(
            lambda: achiral_entangle(s, "Delta", "Deltatilde", channel, transported),
            lambda: hand_achiral_entangle(s, "Delta", "Deltatilde", channel, transported))
        built = achiral_entangle(s, "Delta", "Deltatilde", channel, transported)
        documents.append(unparse_document(document_from_structure("E", built.structure)))
    assert documents[0] != documents[1]


def test_achiral_entangle_quantum_sphere(sphere_data):
    s = sphere_data["structure"]
    assert check_axiom(
        s, "achiral", {"Delta": "Delta1", "Deltatilde": "Deltatilde1"}
    ).passed
    entangled = achiral_entangle(
        s, "Delta1", "Deltatilde1", sphere_data["channel"]
    )
    out = entangled.structure
    assert check_axiom(out, "coassoc", {"Delta": "Delta_star"}).passed
    assert check_axiom(
        out, "codipterous", {"Delta": "Delta_star", "delta": "delta1"}
    ).passed


# -- codipterous sums -------------------------------------------------------


def test_sum_codipterous(f_entangled, group3):
    glued = sum_codipterous(
        f_entangled.structure, ("Delta_star", "delta1"),
        group3, ("Delta", "Delta"),
    )
    assert glued.space.dim == 8 + 3
    assert check_axiom(
        glued, "codipterous", {"Delta": "Delta_star", "delta": "delta_star"}
    ).passed


def test_sum_codipterous_rejects_bad_input(f_data, group3):
    with pytest.raises(ValueError):
        sum_codipterous(
            f_data["structure"], ("Delta", "Deltatilde"),
            group3, ("Delta", "Delta"),
        )


# -- De Bruijn --------------------------------------------------------------


def test_de_bruijn_codialgebra_axioms():
    g = de_bruijn_codialgebra(3)
    assert check_axiom(
        g, "codialgebra", {"delta": "DeltatildeM", "deltahat": "DeltaM"}
    ).passed
    assert check_axiom(
        g, "L_cocommutative", {"Delta": "DeltaM", "Deltatilde": "DeltatildeM"}
    ).passed


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_de_bruijn_self_entanglement_support(n):
    left = de_bruijn_codialgebra(n, prefix="x")
    right = de_bruijn_codialgebra(n, prefix="y")
    channel = ChannelMap(
        left.space, right.space,
        {f"x{i}": {f"y{i}": ONE} for i in range(1, n + 1)},
    )
    entangled = markov_entangle_de_bruijn(left, right, "DeltaM", channel)
    support = geometric_support(entangled.structure, ["delta_M", "delta"])
    expected = de_bruijn_graph(2 * n)
    # Label-identity isomorphism: same vertex count, all n^2 unit arrows.
    assert len(support.vertices) == len(expected.vertices) == 2 * n
    assert len(support.arrows) == len(expected.arrows) == (2 * n) ** 2
    assert set(support.arrows.values()) == {ONE}


# -- flower -----------------------------------------------------------------


def test_flower_entanglement(group3):
    a_space = BasisSpace(["h0", "h1", "h2"])
    channel = ChannelMap(
        a_space, group3.space, {f"h{i}": {f"g{i}": ONE} for i in range(3)}
    )
    entangled = markov_entangle_flower(a_space, "h0", group3, "Delta", channel)
    s = entangled.structure
    assert set(s.coproducts) == {"Delta_star", "delta_f", "deltatilde_f", "delta"}
    # The flower bridges put every vertex on a petal through the unit.
    assert s.coproduct("delta_f").of_label("g1") == {("g1", "h0"): ONE}
    assert s.coproduct("deltatilde_f").of_label("h2") == {("h0", "h2"): ONE}


def test_flower_requires_unit_on_algebra_side(group3):
    a_space = BasisSpace(["h0", "h1", "h2"])
    channel = ChannelMap(
        a_space, group3.space, {f"h{i}": {f"g{i}": ONE} for i in range(3)}
    )
    with pytest.raises(ValueError):
        markov_entangle_flower(a_space, "g0", group3, "Delta", channel)


# -- composition gluing -----------------------------------------------------


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("q_text", ["q", "2"])
def test_cibils_axioms(n, q_text):
    s = cibils_structures(n, parse_scalar(q_text))
    assert check_axiom(
        s, "codialgebra", {"delta": "delta", "deltahat": "deltahat"}
    ).passed
    assert check_axiom(
        s, "dendriform_coalgebra", {"delta": "delta", "deltahat": "deltahat_d"}
    ).passed
    assert check_axiom(s, "coassoc", {"Delta": "Delta_star"}).passed
    total = s.coproduct("delta").add(s.coproduct("deltahat_d"))
    probe = s.with_coproduct("Delta_bar", total)
    assert check_axiom(probe, "coassoc", {"Delta": "Delta_bar"}).passed


def comp_cibils_structures(n, q):
    """The composition builder that formatted every label of every term and
    copied each shared row: the oracle of ``cibils_structures``."""
    if n < 1:
        raise ValueError("n must be positive")
    if q.is_zero():
        raise ValueError("q must be invertible")
    a_space = BasisSpace([f"a{i}" for i in range(n)])
    ambient = a_space.union(BasisSpace([f"x{i}" for i in range(n)]))

    def comp(i):
        return [(j, i - j) for j in range(i + 1)]

    powers = [q ** k for k in range(n)]
    delta_star_table, delta_table, deltahat_table, deltahat_d_table = {}, {}, {}, {}
    for i in range(n):
        delta_a = {(f"a{j}", f"a{k}"): ONE for j, k in comp(i)}
        delta_star_table[f"a{i}"] = dict(delta_a)
        delta_star_table[f"x{i}"] = {(f"x{j}", f"x{k}"): ONE for j, k in comp(i)}
        delta_table[f"a{i}"] = dict(delta_a)
        delta_table[f"x{i}"] = {(f"a{j}", f"x{k}"): ONE for j, k in comp(i)}
        deltahat_table[f"a{i}"] = dict(delta_a)
        hat_x = {(f"x{j}", f"a{k}"): powers[k] for j, k in comp(i)}
        deltahat_table[f"x{i}"] = dict(hat_x)
        deltahat_d_table[f"x{i}"] = dict(hat_x)
    return LStructure(ambient, {
        "Delta_star": MultiLinearMap(ambient, 2, delta_star_table),
        "delta": MultiLinearMap(ambient, 2, delta_table),
        "deltahat": MultiLinearMap(ambient, 2, deltahat_table),
        "deltahat_d": MultiLinearMap(ambient, 2, deltahat_d_table),
    }, counits={"eps": {"a0": ONE}})


def _rows(cp):
    """A map's table, labels and terms in their stored order."""
    return [(label, list(row.items())) for label, row in cp.table.items()]


CIBILS_Q_TEXTS = ["q", "-9/2", "q^-1", "1+q", "3*q^2"]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), q_text=st.sampled_from(CIBILS_Q_TEXTS))
def test_cibils_tables_match_the_composition_builder(n, q_text):
    q = parse_scalar(q_text)
    got, want = cibils_structures(n, q), comp_cibils_structures(n, q)
    assert got.space == want.space
    assert list(got.coproducts) == list(want.coproducts)
    for name, cp in want.coproducts.items():
        assert _rows(got.coproduct(name)) == _rows(cp), name
    assert got.counits == want.counits
    assert unparse_document(document_from_structure("E", got)) == unparse_document(
        document_from_structure("E", want))


def test_cibils_maps_share_no_row():
    # The a-rows and hat x-rows are handed to several tables; every map
    # must still own its rows, or building on one map would change another.
    s = cibils_structures(4, Q)
    rows = [id(row) for cp in s.coproducts.values() for row in cp.table.values()]
    assert len(rows) == len(set(rows))


def test_cibils_refuses_n_and_q_as_before():
    for n, q in ((0, Q), (3, ZERO)):
        with pytest.raises(ValueError) as want:
            comp_cibils_structures(n, q)
        with pytest.raises(ValueError, match=f"^{want.value}$"):
            cibils_structures(n, q)


def test_cibils_bridge_values():
    s = cibils_structures(3, Q)
    assert s.coproduct("deltahat").of_label("x2") == {
        ("x2", "a0"): ONE, ("x1", "a1"): Q, ("x0", "a2"): Q * Q,
    }
    assert s.coproduct("delta").of_label("x2") == {
        ("a0", "x2"): ONE, ("a1", "x1"): ONE, ("a2", "x0"): ONE,
    }
    assert s.coproduct("deltahat_d").of_label("a1") == {}


# -- self-tiling ------------------------------------------------------------


def test_self_tiling_dendriform(f_data):
    out, report = self_tiling_dendriform(
        f_data["structure"], "Delta", f_data["channel"]
    )
    assert report.passed
    assert set(out.coproducts) == {"delta_d", "deltahat_d", "Delta_bar"}
    assert check_axiom(out, "coassoc", {"Delta": "Delta_bar"}).passed


# -- derivative pairs -------------------------------------------------------


def test_ito_pair_group_split(group_split):
    s = group_split.structure
    d_right, d_left, report = ito_pair(
        s, right=("Delta_star", "delta1"), left=("Delta_star", "deltahat1")
    )
    assert report.passed
    assert check_ito_derivative(s.algebra, d_right, s.coproduct("delta1")).passed
    assert check_ito_derivative(s.algebra, d_left, s.coproduct("deltahat1")).passed


def test_ito_pair_flower(group3):
    flowers = flower_coproducts(group3.space, "g0")
    probe = LStructure(
        group3.space,
        {**group3.coproducts, **flowers},
        dict(group3.counits),
        algebra=group3.algebra,
    )
    d_right, d_left, report = ito_pair(
        probe, right=("Delta", "delta_f"), left=("Delta", "deltatilde_f")
    )
    assert report.passed
    assert check_ito_derivative(
        group3.algebra, d_right, flowers["delta_f"]
    ).passed
    assert check_ito_derivative(
        group3.algebra, d_left, flowers["deltatilde_f"]
    ).passed


def test_ito_derivative_detects_failure(group3):
    # Delta itself is not an Ito derivative for the flower action.
    flowers = flower_coproducts(group3.space, "g0")
    report = check_ito_derivative(
        group3.algebra, group3.coproduct("Delta"), flowers["delta_f"]
    )
    assert not report.passed
    assert any(w[1] == "unit_annihilation" for w in report.witnesses)


# -- coderivative -----------------------------------------------------------


def test_leibniz_coderivative_identity_and_honest_failures(group_split):
    table, report = leibniz_coderivative(group_split)
    # The coderivative identity itself holds on every first-boundary label.
    tags = {w[1] for w in report.witnesses}
    assert "coderivative" not in tags
    # The channel is not an algebra morphism, so the derivation property
    # and the unit law genuinely fail; the report says so.
    assert not report.passed
    assert tags == {"unit_annihilation", "ito_property"}
    assert table["t0"] == {"t3": ONE, "t0": -ONE}


def test_leibniz_coderivative_identity_on_f(f_entangled):
    table, report = leibniz_coderivative(f_entangled)
    assert {w[1] for w in report.witnesses} <= {"coderivative"} or report.passed
    assert "coderivative" not in {w[1] for w in report.witnesses}
    assert table["a"] == {"x": ONE, "a": -ONE}


# -- generated subcoalgebras ------------------------------------------------


def test_generated_subcoalgebra(f_entangled):
    s = f_entangled.structure
    assert generated_subcoalgebra(s, "Delta_star", "x") == ["u", "x", "y", "z"]
    assert generated_subcoalgebra(s, "delta1", "x") == [
        "a", "b", "c", "d", "x", "z",
    ]
    assert generated_subcoalgebra(s, "Delta_star", "a") == ["a", "b", "c", "d"]


# -- the glued bridges against the hand-written transports ------------------
#
# The oracle below is the bridge-building code the constructions used before
# every bridge became one gluing of two parts read across the channel: each
# pull-back and push-forward is written out by hand.


def subst_leg(tensor, slot, table):
    """Apply a label -> vector substitution to one leg of a tensor."""
    out = {}
    for term, coeff in tensor.items():
        image = table.get(term[slot - 1])
        if not image:
            continue
        head, tail = term[: slot - 1], term[slot:]
        add_scaled(out, ((head + (lab,) + tail, c) for lab, c in image.items()), coeff)
    return out


def _hand_glue(ambient, part1, part1_labels, part2_table):
    table = {lab: part1.of_label(lab) for lab in part1_labels}
    table.update(part2_table)
    return MultiLinearMap(ambient, 2, table)


def _hand_entangles(s, first, second, tag):
    report = check_axiom(s, "entanglement", {"Deltatilde": first, "Delta": second})
    if not report.passed:
        raise ValueError(f"{tag} fails at {', '.join(report.witness_labels())}")


def _hand_counits_hold(s, eps1):
    delta1, deltahat1 = s.coproduct("delta1"), s.coproduct("deltahat1")
    for lab in s.space.labels:
        left, right = {}, {}
        for (a, b), c in delta1.of_label(lab).items():
            if not eps1.get(a, ZERO).is_zero():
                left = tensor_add(left, {b: c * eps1[a]})
        for (a, b), c in deltahat1.of_label(lab).items():
            if not eps1.get(b, ZERO).is_zero():
                right = tensor_add(right, {a: c * eps1[b]})
        if left != {lab: ONE} or right != {lab: ONE}:
            return False
    return True


def hand_self_entangle(c1_structure, delta_name, channel, eps_name=None):
    c1, c2 = channel.c1, channel.c2
    ambient = c1.union(c2)
    delta1_c1 = c1_structure.coproduct(delta_name)
    fwd, inv = channel.forward, channel.inverse

    def on_c2(leg1_fwd, leg2_fwd):
        table = {}
        for w in c2.labels:
            t = delta1_c1.of_vector(inv[w])
            if leg1_fwd:
                t = subst_leg(t, 1, fwd)
            if leg2_fwd:
                t = subst_leg(t, 2, fwd)
            table[w] = t
        return table

    delta2_table = on_c2(True, True)
    delta2_map = MultiLinearMap(ambient, 2, delta2_table)

    def on_c1(leg):
        return {v: subst_leg(delta2_map.of_vector(fwd[v]), leg, inv) for v in c1.labels}

    s = LStructure(ambient, {
        "Delta_star": _hand_glue(ambient, delta1_c1, c1.labels, delta2_table),
        "delta1": _hand_glue(ambient, delta1_c1, c1.labels, on_c2(False, True)),
        "deltahat1": _hand_glue(ambient, delta1_c1, c1.labels, on_c2(True, False)),
        "delta2": _hand_glue(ambient, delta2_map, c2.labels, on_c1(2)),
        "deltahat2": _hand_glue(ambient, delta2_map, c2.labels, on_c1(1)),
    })
    _hand_entangles(s, "delta1", "delta2", "self-entanglement")
    eps1 = c1_structure.counits.get(eps_name)
    if eps1 is None:
        eps1 = solve_right_counit(LStructure(ambient, {"d": s.coproduct("Delta_star")}), "d")
        if eps1 is not None:
            eps1 = {lab: c for lab, c in eps1.items() if lab in c1}
    if eps1 is None or not _hand_counits_hold(s, eps1):
        return s
    eps_star = dict(eps1)
    for w in c2.labels:
        value = ZERO
        for v, c in inv[w].items():
            value = value + c * eps1.get(v, ZERO)
        if not value.is_zero():
            eps_star[w] = value
    return LStructure(ambient, s.coproducts, {"eps_star": eps_star})


def hand_achiral_entangle(g, delta_name, deltatilde_name, channel, transported):
    c1, c2 = channel.c1, channel.c2
    ambient = c1.union(c2)
    achiral = check_axiom(g, "achiral", {"Delta": delta_name, "Deltatilde": deltatilde_name})
    if not achiral.passed:
        raise ValueError("input pair is not achiral: " + ", ".join(achiral.witness_labels()))
    delta, deltatilde = g.coproduct(delta_name), g.coproduct(deltatilde_name)
    fwd, inv = channel.forward, channel.inverse

    def transport(cp):
        return {
            w: subst_leg(subst_leg(cp.of_vector(inv[w]), 1, fwd), 2, fwd)
            for w in c2.labels
        }

    deltatilde2_table = transport(delta if transported == "Delta" else deltatilde)
    deltatilde2_map = MultiLinearMap(ambient, 2, deltatilde2_table)
    delta1_c2 = {w: subst_leg(delta.of_vector(inv[w]), 2, fwd) for w in c2.labels}

    def pull(leg):
        return {v: subst_leg(deltatilde2_map.of_vector(fwd[v]), leg, inv) for v in c1.labels}

    s = LStructure(ambient, {
        "Delta_star": _hand_glue(ambient, delta, c1.labels, deltatilde2_table),
        "delta1": _hand_glue(ambient, delta, c1.labels, delta1_c2),
        "deltatilde2": _hand_glue(ambient, deltatilde2_map, c2.labels, pull(2)),
        "deltatildehat2": _hand_glue(ambient, deltatilde2_map, c2.labels, pull(1)),
        "Delta_star_plain": _hand_glue(ambient, delta, c1.labels, transport(delta)),
        "Deltatilde_star": _hand_glue(ambient, deltatilde, c1.labels, transport(deltatilde)),
    })
    _hand_entangles(s, "deltatilde2", "delta1", "achiral entanglement")
    _hand_entangles(s, "delta1", "deltatildehat2", "hat entanglement")
    return s


def hand_markov_entangle_de_bruijn(g, c, delta_name, channel):
    c1, c2 = channel.c1, channel.c2
    ambient = c1.union(c2)
    delta_m_g, deltatilde_m_g = g.coproduct("DeltaM"), g.coproduct("DeltatildeM")
    delta_c = c.coproduct(delta_name)
    fwd, inv = channel.forward, channel.inverse

    def push(cp):
        return {w: subst_leg(cp.of_vector(inv[w]), 2, fwd) for w in c2.labels}

    delta_c1 = {v: subst_leg(delta_c.of_vector(fwd[v]), 2, inv) for v in c1.labels}
    on_c2 = {w: delta_c.of_label(w) for w in c2.labels}
    s = LStructure(ambient, {
        "Delta_star": _hand_glue(ambient, delta_m_g, c1.labels, on_c2),
        "Delta_star_tilde": _hand_glue(ambient, deltatilde_m_g, c1.labels, on_c2),
        "delta_M": _hand_glue(ambient, delta_m_g, c1.labels, push(delta_m_g)),
        "deltatilde_M": _hand_glue(ambient, deltatilde_m_g, c1.labels, push(deltatilde_m_g)),
        "delta": _hand_glue(ambient, delta_c, c2.labels, delta_c1),
    })
    _hand_entangles(s, "delta", "delta_M", "De Bruijn entanglement")
    _hand_entangles(s, "deltatilde_M", "delta", "De Bruijn tilde entanglement")
    return s


def hand_markov_entangle_flower(a_space, unit_label, c, delta_name, channel):
    c1, c2 = channel.c1, channel.c2
    ambient = c1.union(c2)
    delta_c = c.coproduct(delta_name)
    fwd, inv = channel.forward, channel.inverse
    delta_f = MultiLinearMap(
        ambient, 2, {lab: {(lab, unit_label): ONE} for lab in ambient.labels})
    deltatilde_f = MultiLinearMap(
        ambient, 2, {lab: {(unit_label, lab): ONE} for lab in ambient.labels})
    delta_c1 = {v: subst_leg(delta_c.of_vector(fwd[v]), 2, inv) for v in c1.labels}
    delta_fl = delta_f.add(deltatilde_f)
    delta_star_table = {lab: delta_fl.of_label(lab) for lab in c1.labels}
    delta_star_table.update({w: delta_c.of_label(w) for w in c2.labels})
    s = LStructure(ambient, {
        "Delta_star": MultiLinearMap(ambient, 2, delta_star_table),
        "delta_f": delta_f,
        "deltatilde_f": deltatilde_f,
        "delta": _hand_glue(ambient, delta_c, c2.labels, delta_c1),
    })
    _hand_entangles(s, "deltatilde_f", "delta", "flower tilde entanglement")
    _hand_entangles(s, "delta", "delta_f", "flower entanglement")
    return s


def _same_outcome(build, hand):
    """The glued and the hand-built structure agree, or both refuse with the
    same message.  True when the construction succeeded."""
    try:
        got = build().structure
    except ValueError as exc:
        with pytest.raises(ValueError) as want:
            hand()
        assert str(want.value) == str(exc)
        return False
    want = hand()
    assert list(got.coproducts) == list(want.coproducts)
    for name, cp in want.coproducts.items():
        assert got.coproduct(name).table == cp.table, name
    assert got.counits == want.counits
    return True


@st.composite
def _channel_inputs(draw, f_structure):
    """A coproduct Delta on C1 and an invertible channel onto a disjoint C2.

    Delta is F's, or a random group-like one g -> c_g g@g with the counit
    g -> 1/c_g; both are coassociative, so self-entangled for any
    invertible channel.  Sometimes g1 -> c_g0 g0@g1 or g1 -> c_g0 g1@g0
    instead, which keeps coassociativity but leaves that counit a left or a
    right counit only; sometimes a term c<g1, g0> in the image of g0 breaks
    coassociativity, so that the constructions refuse.  The channel is a permutation times nonzero
    scalars, optionally plus one off-diagonal term.  Returns (structure,
    channel, broken)."""
    broken = False
    if draw(st.booleans()):
        s1 = f_structure
    else:
        labels = [f"g{i}" for i in range(draw(st.integers(1, 3)))]
        coeff = {g: draw(st.sampled_from(VALUES)) for g in labels}
        table = {g: {(g, g): coeff[g]} for g in labels}
        one_sided = len(labels) > 1 and draw(st.sampled_from([None, "left", "right"]))
        if one_sided:
            legs = ("g0", "g1") if one_sided == "left" else ("g1", "g0")
            table["g1"] = {legs: coeff["g0"]}
        broken = len(labels) > 1 and draw(st.booleans())
        if broken:
            table["g0"][("g1", "g0")] = draw(st.sampled_from(VALUES))
        cp = MultiLinearMap(BasisSpace(labels), 2, table)
        s1 = LStructure(cp.domain, {"Delta": cp, "Deltatilde": cp},
                        {"eps": {g: ONE / coeff[g] for g in labels}})
    c1 = s1.space
    c2 = BasisSpace([f"{lab}2" for lab in c1.labels])
    image = draw(st.permutations(c2.labels))
    unit_scalars = draw(st.booleans())
    forward = {
        v: {w: ONE if unit_scalars else draw(st.sampled_from(VALUES))}
        for v, w in zip(c1.labels, image)
    }
    if c1.dim > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, c1.dim - 1), min_size=2, max_size=2,
                             unique=True))
        forward[c1.labels[i]][image[j]] = draw(st.sampled_from(VALUES))
    return s1, ChannelMap(c1, c2, forward), broken


def _relabelled(cp, space):
    """cp moved onto ``space`` label by label, in basis order."""
    name = dict(zip(cp.domain.labels, space.labels))
    return MultiLinearMap(space, 2, {
        name[x]: {(name[a], name[b]): c for (a, b), c in cp.of_label(x).items()}
        for x in cp.domain.labels
    })


def _de_bruijn_on(space):
    labels = space.labels
    return LStructure(space, {
        "DeltaM": MultiLinearMap(space, 2, {x: {(x, y): ONE for y in labels}
                                            for x in labels}),
        "DeltatildeM": MultiLinearMap(space, 2, {x: {(y, x): ONE for y in labels}
                                                 for x in labels}),
    })


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_glued_bridges_match_hand_transports(f_data, data):
    s1, channel, broken = data.draw(_channel_inputs(f_data["structure"]))
    c1, c2 = channel.c1, channel.c2
    eps_name = data.draw(st.sampled_from([None, "eps"]))
    built = _same_outcome(
        lambda: self_entangle(s1, "Delta", channel, eps_name=eps_name),
        lambda: hand_self_entangle(s1, "Delta", channel, eps_name),
    )
    assert built or broken  # a coassociative coproduct always self-entangles
    for transported in ("Delta", "Deltatilde"):
        _same_outcome(
            lambda: achiral_entangle(s1, "Delta", "Deltatilde", channel, transported),
            lambda: hand_achiral_entangle(s1, "Delta", "Deltatilde", channel, transported),
        )
    delta_c1 = s1.coproduct("Delta")
    c = (_de_bruijn_on(c2) if data.draw(st.booleans())
         else LStructure(c2, {"DeltaM": _relabelled(delta_c1, c2)}))
    _same_outcome(
        lambda: markov_entangle_de_bruijn(_de_bruijn_on(c1), c, "DeltaM", channel),
        lambda: hand_markov_entangle_de_bruijn(_de_bruijn_on(c1), c, "DeltaM", channel),
    )
    unit = data.draw(st.sampled_from(c1.labels))
    c = LStructure(c2, {"Delta": _relabelled(delta_c1, c2)})
    _same_outcome(
        lambda: markov_entangle_flower(c1, unit, c, "Delta", channel),
        lambda: hand_markov_entangle_flower(c1, unit, c, "Delta", channel),
    )


def morphism_loop(channel, delta1, delta2):
    """The labels of C1 where Delta2 Phi != (Phi x Phi) Delta1, with Phi
    substituted by hand on each leg of Delta1."""
    fwd = channel.forward
    return [lab for lab in channel.c1.labels if delta2.of_vector(fwd[lab])
            != subst_leg(subst_leg(delta1.of_label(lab), 1, fwd), 2, fwd)]


def counit_loop(channel, eps1, eps2):
    """The labels of C1 where eps2 Phi != eps1."""
    return [lab for lab in channel.c1.labels
            if functional_value(eps2, channel.forward[lab]) != eps1.get(lab, ZERO)]


@settings(deadline=None)
@given(data=st.data())
def test_glued_channel_is_a_coalgebra_morphism_that_keeps_the_counit(f_data, data):
    s1, channel, broken = data.draw(_channel_inputs(f_data["structure"]))
    eps_name = data.draw(st.sampled_from([None, "eps"]))
    try:
        e = self_entangle(s1, "Delta", channel, eps_name=eps_name)
    except ValueError:
        assert broken
        return
    delta_star = e.coproduct("Delta_star")
    assert morphism_loop(channel, s1.coproduct("Delta"), delta_star) == []
    assert morphism_loop(channel, delta_star, delta_star) == []
    if e.counits:  # eps1 is the given counit, or the one solved for
        eps_star = e.counits["eps_star"]
        eps1 = {v: c for v, c in eps_star.items() if v in channel.c1}
        if eps_name is not None:
            assert eps1 == s1.counits[eps_name]
        assert counit_loop(channel, eps1, eps_star) == []


# -- the coderivative identity against the loop it replaced: the oracle -------


def coderivative_loop(e):
    """The coderivative witnesses as ``leibniz_coderivative`` found them with
    its own loop: (delta1 + deltahat1) applied to D(v), against D substituted
    on each leg of Delta_star(v) in turn, for every v in C1."""
    table = {v: tensor_sub(e.channel.forward[v], unit_vector(v)) for v in e.c1.labels}
    s = e.structure
    both = s.coproduct("delta1").add(s.coproduct("deltahat1"))
    witnesses = []
    for v in e.c1.labels:
        lhs = both.of_vector(table[v])
        delta1_v = s.coproduct("Delta_star").of_label(v)
        rhs = tensor_add(subst_leg(delta1_v, 1, table), subst_leg(delta1_v, 2, table))
        if lhs != rhs:
            witnesses.append((v, "coderivative", lhs, rhs))
    return table, witnesses


def assert_coderivative_matches_loop(e):
    table, report = leibniz_coderivative(e)
    want_table, want = coderivative_loop(e)
    assert table == want_table
    assert [w for w in report.witnesses if w[1] == "coderivative"] == want
    return want


def test_coderivative_matches_the_loop_on_fixtures(f_entangled, group_split):
    for e in (f_entangled, group_split):
        assert assert_coderivative_matches_loop(e) == []


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_coderivative_matches_the_loop_on_random_channels(f_data, data):
    s1, channel, broken = data.draw(_channel_inputs(f_data["structure"]))
    try:
        e = self_entangle(s1, "Delta", channel)
    except ValueError:
        assert broken
        return
    cps = e.structure.coproducts
    if data.draw(st.booleans()):  # other bridges in the roles, so that it fails
        roles = dict(zip(("delta1", "deltahat1", "Delta_star"),
                         data.draw(st.permutations(sorted(cps)))))
        e = EntangledStructure(LStructure(e.structure.space, {
            **cps, **{role: cps[name] for role, name in roles.items()}}), channel)
    assert_coderivative_matches_loop(e)


# -- the Ito identity against the two loops that computed it: the oracles -----


def ito_derivative_loop(algebra, d, action):
    """The witnesses of ``check_ito_derivative`` as its own loop found them."""
    witnesses = []
    d_unit = d.of_vector(algebra.unit)
    if d_unit:
        witnesses.append(("1", "unit_annihilation", d_unit, {}))
    for x in algebra.space.labels:
        dx, ax = d.of_label(x), action.of_label(x)
        for y in algebra.space.labels:
            dy, ay = d.of_label(y), action.of_label(y)
            lhs = d.of_vector(algebra.mul_labels(x, y))
            rhs = tensor_add(algebra.mul_tensors(dx, dy), tensor_add(
                algebra.mul_tensors(dx, ay), algebra.mul_tensors(ax, dy)))
            if lhs != rhs:
                witnesses.append((f"{x},{y}", "derivation", lhs, rhs))
    return witnesses


def leibniz_ito_loop(e):
    """The unit and Ito witnesses of ``leibniz_coderivative`` as its own loop
    found them, on vectors: D(ab) - D(a)D(b) against aD(b) + D(a)b."""
    table = {v: tensor_sub(e.channel.forward[v], unit_vector(v)) for v in e.c1.labels}
    algebra = e.structure.algebra
    d = MultiLinearMap(e.structure.space, 1, {
        v: {(k,): c for k, c in vec.items()} for v, vec in table.items()})
    witnesses = []
    d_unit = d.of_vector(algebra.unit)
    if d_unit:
        witnesses.append(("1", "unit_annihilation", d_unit, {}))
    for a in e.c1.labels:
        for b in e.c1.labels:
            d_ab = {k: c for (k,), c in d.of_vector(algebra.mul_labels(a, b)).items()}
            lhs = tensor_sub(d_ab, algebra.mul_vectors(table[a], table[b]))
            rhs = tensor_add(algebra.mul_vectors(unit_vector(a), table[b]),
                             algebra.mul_vectors(table[a], unit_vector(b)))
            if lhs != rhs:
                witnesses.append((f"{a}*{b}", "ito_property",
                                  {(k,): c for k, c in lhs.items()},
                                  {(k,): c for k, c in rhs.items()}))
    return witnesses


@st.composite
def _cyclic_maps(draw, space, arity):
    """A map of ``space`` into its ``arity``-th tensor power: zero, a
    diagonal one, or up to two random terms per label."""
    labels = space.labels
    shape = draw(st.sampled_from(("zero", "diagonal", "random", "random")))
    if shape == "zero":
        return MultiLinearMap(space, arity, {})
    if shape == "diagonal":
        return MultiLinearMap(space, arity, {
            x: {(x,) * arity: draw(st.sampled_from(VALUES))} for x in labels})
    terms = st.tuples(*[st.sampled_from(labels)] * arity)
    return MultiLinearMap(space, arity, {
        x: draw(st.dictionaries(terms, st.sampled_from(VALUES), max_size=2))
        for x in labels})


@settings(deadline=None)
@given(data=st.data())
def test_ito_checks_match_the_loops_they_replaced(data):
    # check_ito_derivative on a random cyclic group algebra, d and action
    algebra = fixture_group(data.draw(st.integers(1, 4))).algebra
    arity = data.draw(st.integers(1, 2))
    d = data.draw(_cyclic_maps(algebra.space, arity))
    action = data.draw(_cyclic_maps(algebra.space, arity))
    assert check_ito_derivative(algebra, d, action).witnesses == ito_derivative_loop(
        algebra, d, action)
    # leibniz_coderivative on a cyclic group algebra of order 2m, split into
    # two random halves, through a random invertible channel
    m = data.draw(st.integers(1, 3))
    group = fixture_group(2 * m)
    labels = data.draw(st.permutations(group.space.labels))
    c1, c2 = BasisSpace(labels[:m]), BasisSpace(labels[m:])
    image = data.draw(st.permutations(c2.labels))
    forward = {v: {w: data.draw(st.sampled_from(VALUES))} for v, w in zip(c1.labels, image)}
    if m > 1 and data.draw(st.booleans()):
        forward[c1.labels[0]][image[1]] = data.draw(st.sampled_from(VALUES))
    delta = group.coproduct("Delta")
    e = EntangledStructure(LStructure(group.space, dict.fromkeys(
        ("Delta_star", "delta1", "deltahat1"), delta), algebra=group.algebra),
        ChannelMap(c1, c2, forward))
    _, report = leibniz_coderivative(e)
    assert [w for w in report.witnesses if w[1] != "coderivative"] == leibniz_ito_loop(e)
