"""The axiom catalogue: exhaustive checks on the named fixtures plus the
structural implications between axiom systems."""

import re
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lcoalg import coalgebra, convolution
from lcoalg.coalgebra import (
    AXIOMS,
    EQUATIONS,
    LStructure,
    _bind,
    _eval_side,
    _expand,
    _same_by_tables,
    check_axiom,
    cocommutator_space,
    solve_left_counit,
    solve_right_counit,
)
from lcoalg.graphs import markov_coalgebra, parse_digraph_edges
from lcoalg.fixtures import fixture_cibils, fixture_debruijn
from lcoalg.linalg import BasisSpace, MultiLinearMap, add_scaled
from lcoalg.scalars import MINUS_ONE, ONE, Q, ZERO, Scalar


def test_axiom_catalogue_names():
    assert set(AXIOMS) == {
        "coassoc", "entanglement", "right_counit", "left_counit",
        "L_cocommutative", "bidirected", "codipterous", "anti_codipterous",
        "pre_dendriform", "dendriform_coalgebra", "codialgebra",
        "cotrialgebra", "achiral",
    }


def test_readme_catalogue_table_matches_the_catalogue():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Axiom catalogue\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            name, roles, tags = (re.findall(r"`([^`]+)`", cell)
                                 for cell in line.strip("|").split("|"))
            rows[name[0]] = {"roles": tuple(roles), "tags": tags}
    assert rows == {
        name: {"roles": schema["roles"],
               "tags": [eq[0] for eq in schema["equations"]]}
        for name, schema in AXIOMS.items()
    }
    assert list(rows) == list(AXIOMS)


def test_unknown_axiom_raises(f_data):
    with pytest.raises(KeyError):
        check_axiom(f_data["structure"], "nonsense", {})


def test_missing_binding_raises(f_data):
    with pytest.raises(KeyError):
        check_axiom(f_data["structure"], "coassoc", {})


def test_f_is_coassociative_and_achiral(f_data):
    s = f_data["structure"]
    assert check_axiom(s, "coassoc", {"Delta": "Delta"}).passed
    assert check_axiom(s, "coassoc", {"Delta": "Deltatilde"}).passed
    assert check_axiom(
        s, "achiral", {"Delta": "Delta", "Deltatilde": "Deltatilde"}
    ).passed


def test_f_counits(f_data):
    s = f_data["structure"]
    assert check_axiom(s, "right_counit", {"Delta": "Delta", "eps": "eps"}).passed
    assert check_axiom(
        s, "left_counit", {"Deltatilde": "Delta", "epstilde": "eps"}
    ).passed
    assert solve_right_counit(s, "Delta") == {"a": ONE, "d": ONE}
    assert solve_left_counit(s, "Delta") == {"a": ONE, "d": ONE}


def test_markov_pair_entangled_but_not_coassociative(f_data):
    m = markov_coalgebra(f_data["digraph"])
    assert check_axiom(
        m, "entanglement", {"Delta": "DeltaM", "Deltatilde": "DeltatildeM"}
    ).passed
    report = check_axiom(m, "coassoc", {"Delta": "DeltaM"})
    assert not report.passed
    assert report.verdict == "fail"
    # Witnesses carry basis labels and both unequal expansions.
    labels = {w[0] for w in report.witnesses}
    assert labels <= set("abcd") and labels
    for _, _, lhs, rhs in report.witnesses:
        assert lhs != rhs


def test_entangled_f_codipterous_family(f_entangled):
    s = f_entangled.structure
    assert check_axiom(
        s, "codipterous", {"Delta": "Delta_star", "delta": "delta1"}
    ).passed
    assert check_axiom(
        s, "anti_codipterous", {"Delta": "Delta_star", "deltahat": "deltahat1"}
    ).passed
    assert check_axiom(
        s, "pre_dendriform",
        {"Delta": "Delta_star", "delta": "delta1", "deltahat": "deltahat1"},
    ).passed
    assert check_axiom(
        s, "codialgebra", {"delta": "delta1", "deltahat": "deltahat1"}
    ).passed
    assert check_axiom(
        s, "cotrialgebra",
        {"Delta": "Delta_star", "delta": "delta1", "deltahat": "deltahat1"},
    ).passed


def test_codialgebra_implies_both_dipterous_directions(f_entangled):
    # A codialgebra's two coproducts are coassociative and each equation
    # set embeds into the one-sided comodule axioms.
    s = f_entangled.structure
    assert check_axiom(
        s, "codipterous", {"Delta": "delta1", "delta": "delta1"}
    ).passed
    assert check_axiom(
        s, "anti_codipterous", {"Delta": "deltahat1", "deltahat": "deltahat1"}
    ).passed


def test_pre_dendriform_with_split_total_implies_dendriform():
    # When the coassociative coproduct is itself the sum of the bridges,
    # the pre-dendriform equations become the dendriform ones.
    s = fixture_cibils(3)
    bar = s.coproduct("delta").add(s.coproduct("deltahat_d"))
    probe = LStructure(s.space, {**s.coproducts, "Delta_bar": bar})
    assert check_axiom(
        probe, "pre_dendriform",
        {"Delta": "Delta_bar", "delta": "delta", "deltahat": "deltahat_d"},
    ).passed
    assert check_axiom(
        probe, "dendriform_coalgebra",
        {"delta": "delta", "deltahat": "deltahat_d"},
    ).passed


@pytest.mark.parametrize("axiom, bindings, built", [
    ("dendriform_coalgebra", {"delta": "delta", "deltahat": "deltahat_d"},
     {"add": 2, "tau": 0}),
    ("L_cocommutative", {"Delta": "delta", "Deltatilde": "deltahat"},
     {"add": 0, "tau": 1}),
])
def test_sum_and_tau_roles_are_built_once_per_check(
    monkeypatch, axiom, bindings, built
):
    # dendriform_coalgebra has two sum roles, L_cocommutative one tau role;
    # each is built once however many labels and sides use it.
    s = fixture_cibils(4)
    calls = dict.fromkeys(built, 0)
    for name in calls:
        original = getattr(MultiLinearMap, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(MultiLinearMap, name, counted)
    check_axiom(s, axiom, bindings)
    assert s.space.dim == 8
    assert calls == built


SYMMETRIC = "u v\nv u\nu u\nv v\nv w\nw v\nw w"
ASYMMETRIC = "u v\nu u\nv v\nw w\nv w"


def test_bidirected_iff_full_cocommutator():
    sym = markov_coalgebra(parse_digraph_edges(SYMMETRIC))
    asym = markov_coalgebra(parse_digraph_edges(ASYMMETRIC))
    for s, expect_full in ((sym, True), (asym, False)):
        report = check_axiom(
            s, "bidirected", {"Delta": "DeltaM", "Deltatilde": "DeltatildeM"}
        )
        basis = cocommutator_space(s, "DeltaM", "DeltatildeM")
        assert report.passed == expect_full
        assert (len(basis) == s.space.dim) == expect_full


def test_l_cocommutative_on_symmetric_markov():
    sym = markov_coalgebra(parse_digraph_edges(SYMMETRIC))
    assert check_axiom(
        sym, "L_cocommutative", {"Delta": "DeltaM", "Deltatilde": "DeltatildeM"}
    ).passed


def test_group_likes_satisfy_everything(group3):
    s = group3
    for axiom, bindings in [
        ("coassoc", {"Delta": "Delta"}),
        ("achiral", {"Delta": "Delta", "Deltatilde": "Deltatilde"}),
        ("L_cocommutative", {"Delta": "Delta", "Deltatilde": "Deltatilde"}),
        ("bidirected", {"Delta": "Delta", "Deltatilde": "Deltatilde"}),
    ]:
        assert check_axiom(s, axiom, bindings).passed


def test_with_coproduct_returns_new_structure(f_data):
    s = f_data["structure"]
    extended = s.with_coproduct("Delta2", s.coproduct("Delta"))
    assert "Delta2" in extended.coproducts
    assert "Delta2" not in s.coproducts


# -- the support-only evaluator against the all-labels one -------------------


def all_labels_expand(equation, memo, labels):
    """The evaluator before it skipped labels outside the support: both
    sides of the equation on every label."""
    lhs, rhs = _bind(equation[1], memo), _bind(equation[2], memo)
    for label in labels:
        yield label, _eval_side(lhs, label), _eval_side(rhs, label)


LABELS = ["a", "b", "c", "d"]
NAMES = ["P", "R", "S"]
VALUES = [ONE, MINUS_ONE, Scalar.from_rational(2), Q, -Q ** 2, Q ** -1, ZERO]
# Each suite with roles (left, right, perp).
LAW_SUITES = (
    lambda s, left, right, perp: convolution.check_dialgebra_laws(s, left, right),
    lambda s, left, right, perp: convolution.check_trialgebra_laws(s, perp, left, right),
    lambda s, left, right, perp: convolution.check_leibniz(s, left, right),
    lambda s, left, right, perp: convolution.check_poisson(s, perp, left, right),
    lambda s, left, right, perp: convolution.check_dendriform_algebra(s, left, right),
)


@st.composite
def sparse_structures(draw):
    """Coproducts on two to four labels, each with an image on only some of
    them, and one counit."""
    labels = LABELS[:draw(st.integers(2, 4))]
    pairs = [(x, y) for x in labels for y in labels]
    space = BasisSpace(labels)
    coproducts = {}
    for name in NAMES:
        imaged = draw(st.lists(st.sampled_from(labels), max_size=3, unique=True))
        table = {
            lab: draw(st.dictionaries(st.sampled_from(pairs), st.sampled_from(VALUES),
                                      min_size=1, max_size=3))
            for lab in imaged
        }
        coproducts[name] = MultiLinearMap(space, 2, table)
    counit = draw(st.dictionaries(st.sampled_from(labels), st.sampled_from(VALUES[:-1]),
                                  max_size=4))
    return LStructure(space, coproducts, {"e": counit})


def _every_check(s, names):
    """(axiom, witnesses) of every catalogue axiom and every law suite."""
    results = []
    for axiom, schema in sorted(AXIOMS.items()):
        roles = dict(zip(schema["roles"], names))
        for role in ("eps", "epstilde"):
            if role in roles:
                roles[role] = "e"
        report = check_axiom(s, axiom, roles)
        results.append((report.axiom, report.witnesses))
    for suite in LAW_SUITES:
        report = suite(s, *names)
        results.append((report.axiom, report.witnesses))
    return results


@settings(max_examples=60, deadline=None)
@given(s=sparse_structures(),
       names=st.lists(st.sampled_from(NAMES), min_size=3, max_size=3))
def test_support_only_expand_matches_all_labels(s, names):
    fast = _every_check(s, names)
    with mock.patch.object(coalgebra, "_expand", all_labels_expand), \
            mock.patch.object(convolution, "_expand", all_labels_expand):
        slow = _every_check(s, names)
    assert fast == slow


# -- the catalogue as it was written before the equation table: the oracle --


def _side(first, *steps):
    return ((ONE, first, tuple(steps), None),)


# Equation shorthand: _side(B, (A, i)) encodes (A at slot i) after B, i.e.
# (A x id)B for i=1 and (id x A)B for i=2 on arity-2 outputs.
_COASSOC = lambda r: (
    f"coassoc({r})",
    _side(r, (r, 1)),
    _side(r, (r, 2)),
)
# (rtilde x id) r = (id x r) rtilde
_ENTANGLE = lambda r, rt, tag=None: (
    tag or f"entangle({rt},{r})",
    _side(r, (rt, 1)),
    _side(rt, (r, 2)),
)

OLD_AXIOMS = {
    "coassoc": {
        "roles": ("Delta",),
        "equations": [_COASSOC("Delta")],
    },
    "entanglement": {
        "roles": ("Delta", "Deltatilde"),
        "equations": [_ENTANGLE("Delta", "Deltatilde")],
    },
    "right_counit": {
        "roles": ("Delta", "eps"),
        "equations": [
            ("right_counit", _side("Delta", ("eps", 2)), _side(("id", "Delta")))
        ],
    },
    "left_counit": {
        "roles": ("Deltatilde", "epstilde"),
        "equations": [
            ("left_counit", _side("Deltatilde", ("epstilde", 1)),
             _side(("id", "Deltatilde")))
        ],
    },
    "L_cocommutative": {
        "roles": ("Delta", "Deltatilde"),
        "equations": [
            ("cocommutative", _side("Delta"), _side(("tau", "Deltatilde")))
        ],
    },
    "bidirected": {
        "roles": ("Delta", "Deltatilde"),
        "equations": [
            ("bidirected", _side("Delta"), _side(("tau", "Deltatilde")))
        ],
    },
    "codipterous": {
        "roles": ("Delta", "delta"),
        "equations": [
            _COASSOC("Delta"),
            ("codip", _side("delta", ("Delta", 1)), _side("delta", ("delta", 2))),
        ],
    },
    "anti_codipterous": {
        "roles": ("Delta", "deltahat"),
        "equations": [
            _COASSOC("Delta"),
            (
                "anti_codip",
                _side("deltahat", ("Delta", 2)),
                _side("deltahat", ("deltahat", 1)),
            ),
        ],
    },
    "pre_dendriform": {
        "roles": ("Delta", "delta", "deltahat"),
        "equations": [
            _COASSOC("Delta"),
            ("codip", _side("delta", ("Delta", 1)), _side("delta", ("delta", 2))),
            (
                "anti_codip",
                _side("deltahat", ("Delta", 2)),
                _side("deltahat", ("deltahat", 1)),
            ),
            (
                "bridge_entangle",
                _side("delta", ("deltahat", 2)),
                _side("deltahat", ("delta", 1)),
            ),
        ],
    },
    "dendriform_coalgebra": {
        "roles": ("delta", "deltahat"),
        "equations": [
            (
                "dendriform1",
                _side("deltahat", (("sum", "delta", "deltahat"), 2)),
                _side("deltahat", ("deltahat", 1)),
            ),
            (
                "dendriform2",
                _side("delta", ("deltahat", 2)),
                _side("deltahat", ("delta", 1)),
            ),
            (
                "dendriform3",
                _side("delta", (("sum", "deltahat", "delta"), 1)),
                _side("delta", ("delta", 2)),
            ),
        ],
    },
    "codialgebra": {
        "roles": ("delta", "deltahat"),
        "equations": [
            _COASSOC("delta"),
            _COASSOC("deltahat"),
            (
                "codialg2",
                _side("deltahat", ("deltahat", 2)),
                _side("deltahat", ("delta", 2)),
            ),
            (
                "codialg3",
                _side("delta", ("delta", 1)),
                _side("delta", ("deltahat", 1)),
            ),
            (
                "codialg4",
                _side("deltahat", ("delta", 1)),
                _side("delta", ("deltahat", 2)),
            ),
        ],
    },
    "cotrialgebra": {
        "roles": ("Delta", "delta", "deltahat"),
        "equations": [
            _COASSOC("Delta"),
            _COASSOC("delta"),
            _COASSOC("deltahat"),
            (
                "codialg2",
                _side("deltahat", ("deltahat", 2)),
                _side("deltahat", ("delta", 2)),
            ),
            (
                "codialg3",
                _side("delta", ("delta", 1)),
                _side("delta", ("deltahat", 1)),
            ),
            (
                "codialg4",
                _side("deltahat", ("delta", 1)),
                _side("delta", ("deltahat", 2)),
            ),
            (
                "cotri3",
                _side("deltahat", ("deltahat", 1)),
                _side("deltahat", ("Delta", 2)),
            ),
            (
                "cotri4",
                _side("deltahat", ("Delta", 1)),
                _side("Delta", ("deltahat", 2)),
            ),
            (
                "cotri5",
                _side("Delta", ("deltahat", 1)),
                _side("Delta", ("delta", 2)),
            ),
            (
                "cotri6",
                _side("Delta", ("delta", 1)),
                _side("delta", ("Delta", 2)),
            ),
            (
                "cotri7",
                _side("delta", ("Delta", 1)),
                _side("delta", ("delta", 2)),
            ),
        ],
    },
    "achiral": {
        "roles": ("Delta", "Deltatilde"),
        "equations": [
            _COASSOC("Delta"),
            _COASSOC("Deltatilde"),
            _ENTANGLE("Delta", "Deltatilde", "entangle_tilde_first"),
            _ENTANGLE("Deltatilde", "Delta", "entangle_plain_first"),
        ],
    },
}


def test_catalogue_matches_the_written_out_systems():
    assert AXIOMS == OLD_AXIOMS  # equation lists compare in order, tags included
    assert list(AXIOMS) == list(OLD_AXIOMS)
    assert [list(schema) for schema in AXIOMS.values()] == [
        list(schema) for schema in OLD_AXIOMS.values()]


def test_every_system_equation_is_the_table_entry():
    listed = set()
    for schema in AXIOMS.values():
        for tag, lhs, rhs in schema["equations"]:
            assert lhs is EQUATIONS[tag][0] and rhs is EQUATIONS[tag][1], tag
            listed.add(tag)
    assert listed == set(EQUATIONS) and len(EQUATIONS) == 25


def test_an_equation_named_twice_is_one_object():
    equations = list(EQUATIONS.values())
    for i, first in enumerate(equations):
        for second in equations[i + 1:]:
            assert first is second or first != second


def test_every_system_runs_each_equation_through_the_one_evaluator(f_data):
    s = f_data["structure"]
    calls = []

    def counted(equation, memo, labels):
        calls.append(equation[0])
        return expand(equation, memo, labels)

    expand = coalgebra._expand
    with mock.patch.object(coalgebra, "_expand", counted):
        for axiom, schema in AXIOMS.items():
            calls.clear()
            roles = {role: "eps" if role in ("eps", "epstilde") else "Delta"
                     for role in schema["roles"]}
            check_axiom(s, axiom, roles)
            assert calls == [equation[0] for equation in schema["equations"]], axiom


# -- the counit equations against the loop they replaced: the oracle ----------


def counit_branch(s, axiom, bindings):
    """The witnesses of a counit system as ``check_axiom`` found them with
    its own loop: the counit applied to one leg of the coproduct's image,
    against the label itself, on every label."""
    cp_role, eps_role, slot = {"right_counit": ("Delta", "eps", 2),
                               "left_counit": ("Deltatilde", "epstilde", 1)}[axiom]
    for role in (cp_role, eps_role):
        if role not in bindings:
            raise KeyError(f"missing binding for role {role!r}")
    cp = s.coproduct(bindings[cp_role])
    eps_name = bindings[eps_role]
    if eps_name not in s.counits:
        raise KeyError(f"unknown counit {eps_name!r}")
    eps = s.counits[eps_name]
    witnesses = []
    for label in s.space.labels:
        lhs = {}
        for term, coeff in cp.of_label(label).items():
            weight = eps.get(term[slot - 1])
            if weight is not None:
                add_scaled(lhs, [(term[: slot - 1] + term[slot:], coeff)], weight)
        rhs = {(label,): ONE}
        if lhs != rhs:
            witnesses.append((label, axiom, lhs, rhs))
    return witnesses


def _in_term_order(witnesses):
    return [(label, tag, list(lhs.items()), list(rhs.items()))
            for label, tag, lhs, rhs in witnesses]


@settings(max_examples=150, deadline=None)
@given(s=sparse_structures(), name=st.sampled_from(NAMES),
       axiom=st.sampled_from(["right_counit", "left_counit"]))
def test_counit_equations_match_the_counit_branch(s, name, axiom):
    bindings = dict(zip(AXIOMS[axiom]["roles"], (name, "e")))
    report = check_axiom(s, axiom, bindings)
    assert _in_term_order(report.witnesses) == _in_term_order(
        counit_branch(s, axiom, bindings))


@pytest.mark.parametrize("bindings, message", [
    ({"Delta": "P"}, "missing binding for role 'eps'"),
    ({"Delta": "P", "eps": "nope"}, "unknown counit 'nope'"),
    ({"Delta": "nope", "eps": "e"}, "unknown coproduct 'nope'"),
])
def test_counit_refusals_match_the_counit_branch(bindings, message):
    s = LStructure(BasisSpace(["a"]), {"P": MultiLinearMap(BasisSpace(["a"]), 2, {})},
                   {"e": {"a": ONE}})
    for check in (check_axiom, counit_branch):
        with pytest.raises(KeyError) as err:
            check(s, "right_counit", bindings)
        assert err.value.args == (message,)


def test_witnesses_share_nothing_with_the_maps():
    """A side that is one map with no step returns a copy of its table
    entry, and a side with steps reads the entry in place without writing
    it: clearing every witness tensor leaves every map unchanged."""
    s = fixture_cibils(2)
    tables = {name: {lab: dict(t) for lab, t in cp.table.items()}
              for name, cp in s.coproducts.items()}
    for axiom, bindings in (
        ("L_cocommutative", {"Delta": "delta", "Deltatilde": "delta"}),
        ("codialgebra", {"delta": "deltahat", "deltahat": "delta"}),
    ):
        report = check_axiom(s, axiom, bindings)
        assert report.witnesses, axiom
        for _, _, lhs, rhs in report.witnesses:
            lhs.clear()
            rhs.clear()
    assert {name: cp.table for name, cp in s.coproducts.items()} == tables


# -- chains whose maps are not all coproducts: degrees follow the arities -----


def hand_chains(cp, d, eps, label):
    """Delta D and Delta (eps x id) Delta on ``label``, composed by hand."""
    after_d, after_eps = {}, {}
    for (k,), c in d.table.get(label, {}).items():
        add_scaled(after_d, cp.table.get(k, {}).items(), c)
    for (a, b), c in cp.table.get(label, {}).items():
        if a in eps:
            add_scaled(after_eps, cp.table.get(b, {}).items(), c * eps[a])
    return after_d, after_eps


def assert_chains_follow_arities(s, cp_name, eps_name, d):
    memo = {"Delta": s.coproduct(cp_name), "eps": s.counit(eps_name), "D": d}
    chains = (_side("D", ("Delta", 1)), _side("Delta", ("eps", 1), ("Delta", 1)))
    for i, side in enumerate(chains):
        bound = _bind(side, memo)
        for label in s.space.labels:
            want = hand_chains(memo["Delta"], d, s.counits[eps_name], label)[i]
            assert _eval_side(bound, label) == want, (i, label)


def test_expand_follows_arity_1_and_arity_0_maps(f_data):
    s = f_data["structure"]
    d = MultiLinearMap(s.space, 1, {"a": {("b",): ONE, ("d",): Q}, "b": {("a",): MINUS_ONE},
                                    "c": {("c",): Scalar.from_rational(2)}})
    assert_chains_follow_arities(s, "Delta", "eps", d)


@settings(max_examples=60, deadline=None)
@given(s=sparse_structures(), data=st.data())
def test_expand_follows_arities_on_random_maps(s, data):
    labels = s.space.labels
    d = MultiLinearMap(s.space, 1, data.draw(st.dictionaries(
        st.sampled_from(labels),
        st.dictionaries(st.sampled_from([(x,) for x in labels]), st.sampled_from(VALUES),
                        max_size=2), max_size=len(labels))))
    assert_chains_follow_arities(s, "P", "e", d)


# -- multi-chain sides against the chain-by-chain loop: the oracle -----------


def eval_side_by_chains(side, memo, label):
    """A side on one label as ``_eval_side`` summed it before the one-pass
    sum: each chain evaluated in full, its legs permuted through a tuple of
    indices, and every output term scaled into the sum."""
    out = {}
    for coeff, first, steps, order in side:
        first = memo[first]
        if steps:
            tensor, degree = first.table.get(label, {}), first.arity
            for role, slot in steps:
                tensor = memo[role].at_slot(tensor, slot, degree)
                degree += memo[role].arity - 1
        else:
            tensor = first.of_label(label)
        if order is not None:
            pick = tuple(map(order.index, range(len(order))))
            tensor = {tuple(term[p] for p in pick): c for term, c in tensor.items()}
        add_scaled(out, tensor.items(), coeff)
    return out


COEFFS = [ONE, MINUS_ONE, Scalar.from_rational(2), Scalar.from_rational(Fraction(-1, 3)),
          Q, -Q ** 2, Scalar.from_rational(Fraction(3, 2)) * Q ** -1, ZERO]


@st.composite
def multi_chain_sides(draw):
    """A side of one to four chains over the roles of ``sparse_structures``,
    all with ``degree`` output legs, some of them cancelled by a negated
    copy."""
    degree = draw(st.integers(1, 3))
    cps = st.sampled_from(NAMES)
    chains = []
    for _ in range(draw(st.integers(1, 4))):
        first = draw(cps)
        steps = {  # (steps, ...) ending at ``degree`` legs
            1: [(("e", draw(st.integers(1, 2))),),
                (("e", draw(st.integers(1, 2))), (draw(cps), 1), ("e", draw(st.integers(1, 2))))],
            2: [(), ((draw(cps), draw(st.integers(1, 2))), ("e", draw(st.integers(1, 3))))],
            3: [((draw(cps), draw(st.integers(1, 2))),)],
        }[degree]
        order = draw(st.none() | st.permutations(range(degree)).map(tuple))
        coeff = draw(st.just(ONE) | st.sampled_from(COEFFS))
        chains.append((coeff, first, draw(st.sampled_from(steps)), order))
    for i in draw(st.lists(st.integers(0, len(chains) - 1), max_size=2)):
        chains.append((-chains[i][0],) + chains[i][1:])
    return tuple(draw(st.permutations(chains)))


@settings(deadline=None)
@given(s=sparse_structures(), side=multi_chain_sides())
def test_one_pass_sum_matches_the_chain_by_chain_loop(s, side):
    memo = {**s.coproducts, "e": s.counit("e")}
    tables = {name: {lab: dict(t) for lab, t in cp.table.items()} for name, cp in memo.items()}
    bound = _bind(side, memo)
    got = [_eval_side(bound, label) for label in s.space.labels]
    for label, tensor in zip(s.space.labels, got):
        want = eval_side_by_chains(side, memo, label)
        assert list(tensor.items()) == list(want.items()), label
        assert all(tensor is not entry for cp in memo.values() for entry in cp.table.values())
    for tensor in got:
        tensor.clear()
    assert {name: cp.table for name, cp in memo.items()} == tables


def test_a_one_leg_order_keeps_one_tuple_keys(f_data):
    s = f_data["structure"]
    memo = {"Delta": s.coproduct("Delta"), "eps": s.counit("eps")}
    for side in (((ONE, "Delta", (("eps", 2),), (0,)),),
                 ((MINUS_ONE, "Delta", (("eps", 2),), (0,)),
                  (Q, "Delta", (("eps", 1),), (0,)))):
        plain = _bind(tuple(chain[:3] + (None,) for chain in side), memo)
        for label in s.space.labels:
            tensor = _eval_side(_bind(side, memo), label)
            assert tensor and all(type(term) is tuple and len(term) == 1 for term in tensor)
            assert tensor == _eval_side(plain, label)


# -- equations decided from the map tables against the all-labels oracle -----


def images(labels, arity):
    """A nonzero image of one label under a map of the given arity."""
    terms = st.tuples(*[st.sampled_from(labels)] * arity)
    return st.dictionaries(terms, st.sampled_from(VALUES[:-1]), min_size=1, max_size=3)


def tables(labels, arity, min_size=0):
    return st.dictionaries(st.sampled_from(labels), images(labels, arity),
                           min_size=min_size, max_size=len(labels))


# How the right side of a one-step equation departs from c (A at slot i) B.
CHANGES = ("none", "leg", "slot", "first", "coeff", "order")


@st.composite
def one_step_equations(draw, change):
    """(memo, equation): the equation (A at slot i) B = (C at slot i) B,
    where C is A changed only on labels that B never puts on leg i, so the
    tables prove it; then, by ``change``, C also changed on one leg label,
    or one side given another slot, first map, coefficient or leg order."""
    labels = LABELS[:draw(st.integers(2, 4))]
    space = BasisSpace(labels)
    arity = draw(st.integers(2 if change == "slot" else 1, 3))
    step_arity = draw(st.integers(max(0, 3 - arity) if change == "order" else 0, 2))
    b = MultiLinearMap(space, arity, draw(tables(labels, arity, int(change == "leg"))))
    a_table = draw(tables(labels, step_arity))
    slot = draw(st.integers(1, arity))
    legs = sorted({term[slot - 1] for tensor in b.table.values() for term in tensor})
    c_table = dict(a_table)
    for label in labels:
        if label not in legs and draw(st.booleans()):
            c_table[label] = draw(st.none() | images(labels, step_arity))
    lhs, rhs = [ONE, "B", (("A", slot),), None], [ONE, "B", (("C", slot),), None]
    memo = {"B": b}
    if change == "leg":
        leg = draw(st.sampled_from(legs))
        c_table[leg] = draw(images(labels, step_arity).filter(
            lambda image: image != a_table.get(leg)))
    elif change == "slot":
        rhs[2] = (("C", slot % arity + 1),)
    elif change == "first":
        memo["B2"], rhs[1] = MultiLinearMap(space, arity, draw(tables(labels, arity))), "B2"
    elif change == "coeff":
        rhs[0] = draw(st.sampled_from(VALUES[1:]))
    elif change == "order":
        degree = arity - 1 + step_arity
        lhs[3] = draw(st.permutations(range(degree)).map(tuple).filter(
            lambda order: order != tuple(range(degree))))
    memo["A"] = MultiLinearMap(space, step_arity, a_table)
    memo["C"] = MultiLinearMap(space, step_arity, {
        label: image for label, image in c_table.items() if image is not None})
    return memo, ("t", (tuple(lhs),), (tuple(rhs),))


def _witness_rows(expand, equation, memo):
    return [(label, list(lhs.items()), list(rhs.items()))
            for label, lhs, rhs in expand(equation, memo, memo["B"].domain.labels)
            if lhs != rhs]


@pytest.mark.parametrize("change", CHANGES)
@settings(deadline=None)
@given(data=st.data())
def test_table_proof_matches_the_all_labels_oracle(change, data):
    memo, equation = data.draw(one_step_equations(change))
    assert _witness_rows(_expand, equation, memo) == _witness_rows(
        all_labels_expand, equation, memo)
    proved = _same_by_tables(_bind(equation[1], memo), _bind(equation[2], memo))
    assert proved == (change == "none")
    if proved:
        assert list(_expand(equation, memo, memo["B"].domain.labels)) == []


def test_an_equation_the_tables_cannot_decide_still_passes_by_evaluation():
    s = fixture_debruijn(2)
    bindings = {"delta": "DeltatildeM", "deltahat": "DeltaM"}
    memo = coalgebra._bind_roles(s, AXIOMS["codialgebra"]["roles"], bindings)
    for tag in ("codialg2", "codialg3"):
        lhs, rhs = EQUATIONS[tag]
        assert not _same_by_tables(_bind(lhs, memo), _bind(rhs, memo)), tag
        assert list(_expand((tag, lhs, rhs), memo, s.space.labels)), tag
    assert check_axiom(s, "codialgebra", bindings).passed


def _at_slot_calls_by_equation(check):
    """The tags of the equations whose expansion made an ``at_slot`` call
    while ``check()`` ran, each once per call."""
    calls, current = [], [None]
    expand, at_slot = coalgebra._expand, MultiLinearMap.at_slot

    def traced_expand(equation, memo, labels):
        current[0] = equation[0]
        yield from expand(equation, memo, labels)

    def traced_at_slot(self, tensor, slot, degree):
        calls.append(current[0])
        return at_slot(self, tensor, slot, degree)

    with mock.patch.object(coalgebra, "_expand", traced_expand), \
            mock.patch.object(convolution, "_expand", traced_expand), \
            mock.patch.object(MultiLinearMap, "at_slot", traced_at_slot):
        assert check().passed
    return calls


def test_the_glued_equations_make_no_at_slot_call_on_cibils():
    s = fixture_cibils(4)
    calls = _at_slot_calls_by_equation(lambda: check_axiom(
        s, "codialgebra", {"delta": "delta", "deltahat": "deltahat"}))
    assert {"coassoc(delta)", "coassoc(deltahat)", "codialg4"} <= set(calls)
    assert not {"codialg2", "codialg3"} & set(calls)
    s = fixture_cibils(3)
    calls = _at_slot_calls_by_equation(
        lambda: convolution.check_dialgebra_laws(s, "deltahat", "delta"))
    assert {"left_assoc", "right_assoc", "middle"} <= set(calls)
    assert not {"inner_left", "inner_right"} & set(calls)
