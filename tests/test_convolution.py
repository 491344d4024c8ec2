"""Convolution products of dual functionals, the bridge bracket and its
structure constants, and the exhaustive law suites on the glued fixture."""

import pytest
from hypothesis import given, settings, strategies as st

from lcoalg.convolution import (
    _BRACKET,
    _DENDRIFORM,
    _DIALGEBRA,
    _LEFT,
    _LEIBNIZ,
    _PERP,
    _POISSON,
    _RIGHT,
    _SUCC,
    _TRIALGEBRA,
    X,
    XY,
    XZ,
    Y,
    YZ,
    Z,
    _check_laws,
    _nest,
    bracket,
    check_bar_unit,
    check_dendriform_algebra,
    check_dialgebra_laws,
    check_leibniz,
    check_poisson,
    check_trialgebra_laws,
    conv_product,
    dual_basis,
    structure_constants,
)
from lcoalg.coalgebra import LStructure, solve_right_counit
from lcoalg.fixtures import fixture_cibils
from lcoalg.linalg import (BasisSpace, MultiLinearMap, add_scaled, functional_value,
                           tensor_add, tensor_sub)
from lcoalg.scalars import MINUS_ONE, ONE, ZERO, Scalar, parse_scalar

C1 = ["a", "b", "c", "d"]
C2 = ["x", "y", "z", "u"]


def test_dual_basis_and_values(f_entangled):
    s = f_entangled.structure
    duals = dual_basis(s.space)
    assert functional_value(duals["a"], {"a": ONE}) == ONE
    assert functional_value(duals["a"], {"b": ONE}).is_zero()


def test_bracket_oracle_values(f_entangled):
    s = f_entangled.structure
    table = structure_constants(s, s.space.labels, s.space.labels)
    assert table[("a", "b")] == {"b": ONE}
    assert table[("b", "c")] == {"a": ONE, "d": -ONE}
    assert table[("a", "x")] == {}
    assert table[("y", "c")] == {"x": ONE, "u": -ONE}


def test_bracket_second_against_first_alphabet_vanishes(f_entangled):
    # Exact evaluation of the dual-basis bracket with the second-alphabet
    # functional on the left of the first-alphabet one gives zero here
    # (the printed nonzero value for this entry does not survive the
    # independent computation).
    s = f_entangled.structure
    table = structure_constants(s, ["x"], ["a"])
    assert table[("x", "a")] == {}


def test_all_mixed_brackets_vanish(f_entangled):
    # [v*, w*] = 0 whenever v is a first-boundary label and w a
    # second-boundary one: all 16 entries in that orientation.
    s = f_entangled.structure
    table = structure_constants(s, C1, C2)
    assert all(table[(i, j)] == {} for i in C1 for j in C2)


def test_structure_constants_match_termwise_oracle(f_entangled):
    # Independent evaluation: [e_i*, e_j*](v) is the coefficient of
    # (i, j) in the hat bridge at v minus the coefficient of (j, i) in
    # the other bridge at v.
    s = f_entangled.structure
    deltahat1 = s.coproduct("deltahat1")
    delta1 = s.coproduct("delta1")
    table = structure_constants(s, s.space.labels, s.space.labels)
    for i in s.space.labels:
        for j in s.space.labels:
            expected = {}
            for v in s.space.labels:
                coeff = deltahat1.of_label(v).get((i, j))
                other = delta1.of_label(v).get((j, i))
                value = (coeff if coeff is not None else ONE - ONE) - (
                    other if other is not None else ONE - ONE
                )
                if not value.is_zero():
                    expected[v] = value
            assert table[(i, j)] == expected


def test_boundary_restricted_bracket_is_antisymmetric(f_entangled):
    # Both bridges restrict to the same coproduct on the first boundary,
    # so there the bracket is a Lie bracket.
    s = f_entangled.structure
    table = structure_constants(s, C1, C1)
    for i in C1:
        for j in C1:
            negated = {k: -c for k, c in table[(j, i)].items()}
            assert table[(i, j)] == negated


def test_leibniz_identity_all_triples(f_entangled):
    report = check_leibniz(f_entangled.structure)
    assert report.passed


def test_poisson_laws_all_triples(f_entangled):
    report = check_poisson(f_entangled.structure)
    assert report.passed


def test_dialgebra_laws_all_triples(f_entangled):
    report = check_dialgebra_laws(f_entangled.structure)
    assert report.passed


def test_trialgebra_laws_all_triples(f_entangled):
    report = check_trialgebra_laws(f_entangled.structure)
    assert report.passed


def test_dendriform_algebra_laws_all_triples(f_entangled):
    report = check_dendriform_algebra(f_entangled.structure)
    assert report.passed


def test_bar_unit_from_solved_counit(f_entangled):
    eps_star = f_entangled.counits["eps_star"]
    report = check_bar_unit(f_entangled.structure, eps_star)
    assert report.passed


def test_bar_unit_failure_is_witnessed(f_entangled):
    report = check_bar_unit(f_entangled.structure, {"a": ONE})
    assert not report.passed
    assert {w[1] for w in report.witnesses} <= {"left_absorb", "right_absorb"}


def test_conv_product_against_hand_value(f_entangled):
    # (a* left-conv a*)(v) counts terms a (x) a of the hat bridge.
    s = f_entangled.structure
    duals = dual_basis(s.space)
    value = conv_product(s, "deltahat1", duals["a"], duals["a"])
    assert value == {"a": ONE}
    value = conv_product(s, "delta1", duals["a"], duals["x"])
    assert value == {"x": ONE}


def test_bracket_direct_equals_structure_constant(f_entangled):
    s = f_entangled.structure
    duals = dual_basis(s.space)
    direct = bracket(s, duals["b"], duals["c"])
    assert direct == {"a": ONE, "d": -ONE}


# -- the transpose path against the label-by-label walk ---------------------


def reference_conv_product(s, name, f, g):
    """The direct definition: walk every label and every coproduct term."""
    cp = s.coproduct(name)
    out = {}
    for lab in s.space.labels:
        value = ZERO
        for (a, b), c in cp.of_label(lab).items():
            fa = f.get(a)
            gb = g.get(b)
            if fa is not None and gb is not None:
                value = value + c * fa * gb
        if not value.is_zero():
            out[lab] = value
    return out


@pytest.fixture(scope="module")
def conv_structures(f_entangled):
    s = fixture_cibils(3)
    bar = s.coproduct("delta").add(s.coproduct("deltahat_d"))
    return {"F": f_entangled.structure, "cibils3": s.with_coproduct("Delta_bar", bar)}


CONV_CASES = [
    ("F", "Delta_star"), ("F", "deltahat1"), ("F", "delta1"),
    ("cibils3", "deltahat_d"), ("cibils3", "Delta_bar"), ("cibils3", "delta"),
]
VALUES = [parse_scalar(t) for t in ("1", "-1", "2", "-1/2", "q", "-q", "q^-1", "3*q^2")]


@st.composite
def functionals(draw, labels):
    chosen = draw(st.lists(st.sampled_from(labels), min_size=1,
                           max_size=len(labels), unique=True))
    f = {lab: draw(st.sampled_from(VALUES)) for lab in chosen}
    if len(chosen) > 1 and draw(st.booleans()):
        f[chosen[1]] = -f[chosen[0]]  # a pair set up to cancel
    return f


@pytest.mark.parametrize("case, name", CONV_CASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_conv_product_matches_label_walk(conv_structures, case, name, data):
    s = conv_structures[case]
    f = data.draw(functionals(s.space.labels))
    g = data.draw(functionals(s.space.labels))
    fast = conv_product(s, name, f, g)
    slow = reference_conv_product(s, name, f, g)
    assert fast == slow
    assert list(fast) == list(slow)


def test_conv_product_drops_cancelled_values(conv_structures):
    # delta(x1) = <a0, x1> + <a1, x0>, so f(a0) g(x1) + f(a1) g(x0) = 0.
    s = conv_structures["cibils3"]
    f = {"a0": ONE, "a1": -ONE}
    g = {"x0": ONE, "x1": ONE}
    assert conv_product(s, "delta", f, g) == {"x0": ONE, "x2": -ONE}
    assert reference_conv_product(s, "delta", f, g) == {"x0": ONE, "x2": -ONE}


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_with_coproduct_reads_the_new_map(conv_structures, data):
    s = conv_structures["cibils3"]
    f = data.draw(functionals(s.space.labels))
    g = data.draw(functionals(s.space.labels))
    conv_product(s, "delta", f, g)  # the transpose of delta is now built
    other = s.with_coproduct("delta", s.coproduct("Delta_bar"))
    assert conv_product(other, "delta", f, g) == conv_product(s, "Delta_bar", f, g)
    swapped = s.with_coproduct("delta", s.coproduct("delta").tau())
    assert conv_product(swapped, "delta", f, g) == conv_product(s, "delta", g, f)


# (triple, label, value) of each failing dendriform2 witness; dendriform3
# fails on the same triples with the same values.  The right side is 0.
CIBILS3_DENDRIFORM_FAILURES = [
    ("x0,a0,a0", "x0", "-1"), ("x0,a0,a1", "x1", "-q"),
    ("x0,a0,a2", "x2", "-q^2"), ("x0,a1,a0", "x1", "-q"),
    ("x0,a1,a1", "x2", "-q^2"), ("x0,a2,a0", "x2", "-q^2"),
    ("x1,a0,a0", "x1", "-1"), ("x1,a0,a1", "x2", "-q"),
    ("x1,a1,a0", "x2", "-q"), ("x2,a0,a0", "x2", "-1"),
]


def test_dendriform_with_delta_as_right_product_fails_on_cibils(conv_structures):
    s = conv_structures["cibils3"]
    report = check_dendriform_algebra(s, "deltahat_d", "delta")
    assert report.witnesses == [
        (triple, eq, {(lab,): parse_scalar(value)}, {})
        for eq in ("dendriform2", "dendriform3")
        for triple, lab, value in CIBILS3_DENDRIFORM_FAILURES
    ]


# -- the law suites against the dual-basis triple loop ----------------------


def oracle_laws(s, suite, left="deltahat1", right="delta1", perp="Delta_star"):
    """(axiom, witnesses) of a law suite by the direct definition: every
    law evaluated on every triple of dual-basis functionals, triples in
    basis order, one law after another."""
    lt = lambda f, g: conv_product(s, left, f, g)
    rt = lambda f, g: conv_product(s, right, f, g)
    pp = lambda f, g: conv_product(s, perp, f, g)
    br = lambda f, g: tensor_sub(lt(f, g), rt(g, f))
    succ = lambda f, g: tensor_sub(rt(f, g), lt(f, g))
    dialgebra = [
        ("left_assoc",
         lambda x, y, z: lt(lt(x, y), z), lambda x, y, z: lt(x, lt(y, z))),
        ("right_assoc",
         lambda x, y, z: rt(rt(x, y), z), lambda x, y, z: rt(x, rt(y, z))),
        ("inner_left",
         lambda x, y, z: lt(x, lt(y, z)), lambda x, y, z: lt(x, rt(y, z))),
        ("middle", lambda x, y, z: lt(rt(x, y), z), lambda x, y, z: rt(x, lt(y, z))),
        ("inner_right",
         lambda x, y, z: rt(lt(x, y), z), lambda x, y, z: rt(rt(x, y), z)),
    ]
    laws = {
        "dialgebra": dialgebra,
        "trialgebra": dialgebra + [
            ("perp_assoc",
             lambda x, y, z: pp(pp(x, y), z), lambda x, y, z: pp(x, pp(y, z))),
            ("left_of_perp",
             lambda x, y, z: lt(lt(x, y), z), lambda x, y, z: lt(x, pp(y, z))),
            ("perp_left",
             lambda x, y, z: lt(pp(x, y), z), lambda x, y, z: pp(x, lt(y, z))),
            ("middle_perp",
             lambda x, y, z: pp(lt(x, y), z), lambda x, y, z: pp(x, rt(y, z))),
            ("right_perp",
             lambda x, y, z: pp(rt(x, y), z), lambda x, y, z: rt(x, pp(y, z))),
            ("right_of_perp",
             lambda x, y, z: rt(pp(x, y), z), lambda x, y, z: rt(x, rt(y, z))),
        ],
        "leibniz": [(
            "leibniz",
            lambda x, y, z: br(br(x, y), z),
            lambda x, y, z: tensor_add(br(br(x, z), y), br(x, br(y, z))),
        )],
        "poisson": [(
            "poisson",
            lambda x, y, z: br(pp(x, y), z),
            lambda x, y, z: tensor_add(pp(x, br(y, z)), pp(br(x, z), y)),
        )],
        "dendriform_algebra": [
            ("dendriform1", lambda x, y, z: lt(lt(x, y), z),
             lambda x, y, z: lt(x, tensor_add(lt(y, z), succ(y, z)))),
            ("dendriform2", lambda x, y, z: lt(succ(x, y), z),
             lambda x, y, z: succ(x, lt(y, z))),
            ("dendriform3", lambda x, y, z: succ(x, succ(y, z)),
             lambda x, y, z: succ(tensor_add(lt(x, y), succ(x, y)), z)),
        ],
    }[suite]
    duals = dual_basis(s.space)
    witnesses = []
    for tag, lhs, rhs in laws:
        for nx, x in duals.items():
            for ny, y in duals.items():
                for nz, z in duals.items():
                    a, b = lhs(x, y, z), rhs(x, y, z)
                    if a != b:
                        witnesses.append((
                            f"{nx},{ny},{nz}", tag,
                            {(k,): c for k, c in a.items()},
                            {(k,): c for k, c in b.items()},
                        ))
    return suite, witnesses


SUITES = {
    "dialgebra": lambda s, left, right, perp: check_dialgebra_laws(s, left, right),
    "trialgebra":
        lambda s, left, right, perp: check_trialgebra_laws(s, perp, left, right),
    "leibniz": lambda s, left, right, perp: check_leibniz(s, left, right),
    "poisson": lambda s, left, right, perp: check_poisson(s, perp, left, right),
    "dendriform_algebra":
        lambda s, left, right, perp: check_dendriform_algebra(s, left, right),
}


def assert_matches_oracle(s, suite, left, right, perp):
    report = SUITES[suite](s, left, right, perp)
    assert (report.axiom, report.witnesses) == oracle_laws(s, suite, left, right, perp)
    return report


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("left, right, perp", [
    ("deltahat1", "delta1", "Delta_star"),
    ("delta1", "deltahat1", "Delta_star"),
    ("Delta_star", "delta1", "deltahat1"),
])
def test_law_suites_match_triple_loop_on_f(f_entangled, suite, left, right, perp):
    report = assert_matches_oracle(f_entangled.structure, suite, left, right, perp)
    assert report.passed == (left == "deltahat1")


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("suite, left, right", [
    ("dialgebra", "deltahat", "delta"),
    ("leibniz", "deltahat", "delta"),
    ("poisson", "deltahat", "delta"),
    ("trialgebra", "deltahat", "delta"),
    ("dendriform_algebra", "deltahat_d", "delta"),
])
def test_law_suites_match_triple_loop_on_cibils(n, suite, left, right):
    s = fixture_cibils(n)
    assert_matches_oracle(s, suite, left, right, "Delta_star")


LABELS = ["a", "b", "c"]
NAMES = ["P", "Q", "R"]


@st.composite
def random_structures(draw):
    labels = LABELS[:draw(st.integers(2, 3))]
    pairs = [(a, b) for a in labels for b in labels]
    coproducts = {}
    for name in NAMES:
        table = {
            lab: draw(st.dictionaries(st.sampled_from(pairs),
                                      st.sampled_from(VALUES + [ZERO]), max_size=3))
            for lab in labels
        }
        coproducts[name] = MultiLinearMap(BasisSpace(labels), 2, table)
    return LStructure(BasisSpace(labels), coproducts)


ROLE_TRIPLES = st.lists(st.sampled_from(NAMES), min_size=3, max_size=3)


# 40 examples, or more under a longer profile (--hypothesis-profile=ci).
@pytest.mark.parametrize("suite", sorted(SUITES))
@settings(max_examples=max(40, settings.default.max_examples), deadline=None)
@given(s=random_structures(), roles=ROLE_TRIPLES)
def test_law_suites_match_triple_loop(suite, s, roles):
    assert_matches_oracle(s, suite, *roles)


# -- one map per product against the pairwise chains it replaced: the oracle --


def expanding_nest(a, b, first, second):
    """The side a(first, second) as a sum of chains, one for every pair of
    summands of a and b: a swapped outer product swaps its arguments, a
    swapped inner one reverses its pair's legs, and equal chains merge."""
    merged = {}
    for ca, ra, swap_a in a:
        for cb, rb, swap_b in b:
            args = (second, first) if swap_a else (first, second)
            legs = [(arg[::-1] if swap_b else arg) if isinstance(arg, tuple) else (arg,)
                    for arg in args]
            slot = 1 if isinstance(args[0], tuple) else 2
            order = legs[0] + legs[1]
            order = None if order == (X, Y, Z) else order
            add_scaled(merged, [((ra, ((rb, slot),), order), ca * cb)], ONE)
    return tuple((c,) + chain for chain, c in merged.items())


def law_tables(side):
    """The equations of the five law suites, each side built by
    ``side(a, b, first, second)``: side(A, B, XY, Z) is (x B y) A z."""
    dialgebra = [
        ("left_assoc", side(_LEFT, _LEFT, XY, Z), side(_LEFT, _LEFT, X, YZ)),
        ("right_assoc", side(_RIGHT, _RIGHT, XY, Z), side(_RIGHT, _RIGHT, X, YZ)),
        ("inner_left", side(_LEFT, _LEFT, X, YZ), side(_LEFT, _RIGHT, X, YZ)),
        ("middle", side(_LEFT, _RIGHT, XY, Z), side(_RIGHT, _LEFT, X, YZ)),
        ("inner_right", side(_RIGHT, _LEFT, XY, Z), side(_RIGHT, _RIGHT, XY, Z)),
    ]
    return {
        "dialgebra": dialgebra,
        "trialgebra": dialgebra + [
            ("perp_assoc", side(_PERP, _PERP, XY, Z), side(_PERP, _PERP, X, YZ)),
            ("left_of_perp", side(_LEFT, _LEFT, XY, Z), side(_LEFT, _PERP, X, YZ)),
            ("perp_left", side(_LEFT, _PERP, XY, Z), side(_PERP, _LEFT, X, YZ)),
            ("middle_perp", side(_PERP, _LEFT, XY, Z), side(_PERP, _RIGHT, X, YZ)),
            ("right_perp", side(_PERP, _RIGHT, XY, Z), side(_RIGHT, _PERP, X, YZ)),
            ("right_of_perp", side(_RIGHT, _PERP, XY, Z), side(_RIGHT, _RIGHT, X, YZ)),
        ],
        "leibniz": [("leibniz", side(_BRACKET, _BRACKET, XY, Z),
                     side(_BRACKET, _BRACKET, XZ, Y) + side(_BRACKET, _BRACKET, X, YZ))],
        "poisson": [("poisson", side(_BRACKET, _PERP, XY, Z),
                     side(_PERP, _BRACKET, X, YZ) + side(_PERP, _BRACKET, XZ, Y))],
        "dendriform_algebra": [
            ("dendriform1", side(_LEFT, _LEFT, XY, Z), side(_LEFT, _LEFT + _SUCC, X, YZ)),
            ("dendriform2", side(_LEFT, _SUCC, XY, Z), side(_SUCC, _LEFT, X, YZ)),
            ("dendriform3", side(_SUCC, _SUCC, X, YZ), side(_SUCC, _LEFT + _SUCC, XY, Z)),
        ],
    }


EXPANDING = law_tables(expanding_nest)


def _chains(tables):
    return {suite: sum(len(lhs) + len(rhs) for _, lhs, rhs in equations)
            for suite, equations in tables.items()}


def test_the_law_suites_bind_one_map_per_product():
    assert law_tables(lambda *args: (_nest(*args),)) == {
        "dialgebra": _DIALGEBRA, "trialgebra": _TRIALGEBRA, "leibniz": _LEIBNIZ,
        "poisson": _POISSON, "dendriform_algebra": _DENDRIFORM}
    # Chains evaluated per label: one per nested product, not one per pair
    # of summands.
    assert _chains(EXPANDING) == {"dialgebra": 10, "trialgebra": 22, "leibniz": 12,
                                  "poisson": 6, "dendriform_algebra": 12}
    assert _chains({"dendriform_algebra": _DENDRIFORM, "leibniz": _LEIBNIZ,
                    "poisson": _POISSON}) == {
        "dendriform_algebra": 6, "leibniz": 3, "poisson": 3}
    # prec + succ merges to the plain right role; succ and the bracket are
    # one signed map each.
    assert _DENDRIFORM[0][2] == ((ONE, "left", (("right", 2),), None),)
    assert _LEIBNIZ[0][1][0][1] == ("signed", ((ONE, "left", False),
                                               (MINUS_ONE, "right", True)))


def assert_matches_expanding_chains(s, suite, left, right, perp):
    report = SUITES[suite](s, left, right, perp)
    names = {"left": left, "right": right, "perp": perp}
    expanded = _check_laws(s, suite, EXPANDING[suite], names)
    assert report.axiom == expanded.axiom
    assert _in_term_order(report.witnesses) == _in_term_order(expanded.witnesses)
    return report


# 100 examples, or more under a longer profile (--hypothesis-profile=ci).
@pytest.mark.parametrize("suite", sorted(SUITES))
@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(s=random_structures(), roles=ROLE_TRIPLES)
def test_one_map_per_product_matches_the_expanding_chains(suite, s, roles):
    assert_matches_expanding_chains(s, suite, *roles)


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("left, right, perp", [
    ("deltahat1", "delta1", "Delta_star"),
    ("delta1", "deltahat1", "Delta_star"),
    ("Delta_star", "delta1", "deltahat1"),
])
def test_one_map_per_product_matches_the_expanding_chains_on_f(
        f_entangled, suite, left, right, perp):
    report = assert_matches_expanding_chains(f_entangled.structure, suite, left, right, perp)
    assert report.passed == (left == "deltahat1")


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("suite, left", [
    ("dialgebra", "deltahat"),
    ("leibniz", "deltahat"),
    ("poisson", "deltahat"),
    ("trialgebra", "deltahat"),
    ("dendriform_algebra", "deltahat_d"),
])
def test_one_map_per_product_matches_the_expanding_chains_on_cibils(n, suite, left):
    assert_matches_expanding_chains(fixture_cibils(n), suite, left, "delta", "Delta_star")


# -- the bar unit against the convolution loop it replaced: the oracle --------


def bar_unit_loop(s, eps_star, left_name="deltahat1", right_name="delta1"):
    """The witnesses of ``check_bar_unit`` as it found them with its own loop:
    f left e and e right f by ``conv_product``, against f, for every dual
    functional f in basis order."""
    witnesses = []
    for name, f in dual_basis(s.space).items():
        f_tensor = {(k,): c for k, c in f.items()}
        for tag, value in (("left_absorb", conv_product(s, left_name, f, eps_star)),
                           ("right_absorb", conv_product(s, right_name, eps_star, f))):
            if value != f:
                witnesses.append((name, tag, {(k,): c for k, c in value.items()},
                                  dict(f_tensor)))
    return witnesses


def _in_term_order(witnesses):
    return [(label, tag, list(lhs.items()), list(rhs.items()))
            for label, tag, lhs, rhs in witnesses]


@settings(max_examples=150, deadline=None)
@given(s=random_structures(), data=st.data())
def test_bar_unit_matches_the_convolution_loop(s, data):
    labels = s.space.labels
    if data.draw(st.booleans()):  # a group-like P, so that a bar unit exists
        scale = {x: data.draw(st.sampled_from(VALUES)) for x in labels}
        group_like = MultiLinearMap(s.space, 2, {x: {(x, x): scale[x]} for x in labels})
        s = s.with_coproduct("P", group_like)
    left, right = data.draw(st.lists(st.sampled_from(NAMES), min_size=2, max_size=2))
    kind = data.draw(st.sampled_from(["zero", "random", "solved"]))
    if kind == "zero":
        eps = data.draw(st.sampled_from([{}, {labels[0]: ZERO}]))
    elif kind == "random":
        eps = data.draw(functionals(labels))
    else:
        eps = solve_right_counit(s, left) or {}
    report = check_bar_unit(s, eps, left, right)
    assert _in_term_order(report.witnesses) == _in_term_order(
        bar_unit_loop(s, eps, left, right))


def test_bar_unit_matches_the_convolution_loop_on_f(f_entangled):
    s = f_entangled.structure
    for eps in (f_entangled.counits["eps_star"], {"a": ONE}, {}):
        report = check_bar_unit(s, eps)
        assert _in_term_order(report.witnesses) == _in_term_order(bar_unit_loop(s, eps))
    assert check_bar_unit(s, f_entangled.counits["eps_star"]).passed


def test_bar_unit_refuses_a_functional_off_the_space(f_entangled):
    # The convolution loop skipped such a label; a counit may not name one.
    with pytest.raises(ValueError, match="counit 'eps_star' mentions unknown label 'nope'"):
        check_bar_unit(f_entangled.structure, {"a": ONE, "nope": ONE})
