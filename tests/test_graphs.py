"""Digraphs, Markov structures, geometric supports, De Bruijn graphs,
natural lifts, covering checks, and the text formats."""

import pytest
from hypothesis import given, settings, strategies as st

from lcoalg.coalgebra import AxiomReport, LStructure, check_axiom
from lcoalg.graphs import (
    UndirectedGraph,
    WeightedDigraph,
    covering_check,
    de_bruijn_graph,
    dot_export,
    geometric_support,
    markov_coalgebra,
    natural_lift,
    parse_digraph_edges,
    parse_undirected_edges,
)
from lcoalg.fixtures import fixture_petersen
from lcoalg.linalg import BasisSpace, MultiLinearMap
from lcoalg.scalars import ONE, Q, ZERO, Scalar
from test_dsl import OTHER_BREAKS


def test_digraph_merges_duplicate_arrows():
    g = WeightedDigraph(["a", "b"], [("a", "b", ONE), ("a", "b", Q)])
    assert g.weight("a", "b") == ONE + Q
    assert g.weight("b", "a").is_zero()


def test_digraph_rejects_unknown_endpoints():
    with pytest.raises(ValueError):
        WeightedDigraph(["a"], [("a", "b", ONE)])


def test_markov_support_round_trip(f_data):
    g = f_data["digraph"]
    m = markov_coalgebra(g)
    assert geometric_support(m, ["DeltaM"]) == g
    assert geometric_support(m, ["DeltatildeM"]) == g
    assert geometric_support(m, ["DeltaM", "DeltatildeM"]) == g


def test_f_support_matches_declared_digraph(f_data):
    support = geometric_support(f_data["structure"], ["Delta"])
    assert support == f_data["digraph"]


def test_support_conflict_raises():
    space_edges = "a b 1\n"
    g = parse_digraph_edges(space_edges)
    m = markov_coalgebra(g)
    # Perturb one coproduct so the shared arrow disagrees in weight.
    from lcoalg.coalgebra import LStructure
    from lcoalg.linalg import MultiLinearMap
    bad = MultiLinearMap(m.space, 2, {"a": {("a", "b"): Q}})
    probe = LStructure(m.space, {"DeltaM": m.coproduct("DeltaM"), "bad": bad})
    with pytest.raises(ValueError):
        geometric_support(probe, ["DeltaM", "bad"])


arrow_lists = st.lists(
    st.tuples(
        st.sampled_from(["p", "r", "s"]), st.sampled_from(["p", "r", "s"])
    ),
    min_size=1,
    max_size=6,
)


@given(arrow_lists)
def test_markov_pair_is_always_entangled(arrows):
    g = WeightedDigraph(
        ["p", "r", "s"], [(u, v, ONE) for (u, v) in set(arrows)]
    )
    m = markov_coalgebra(g)
    assert check_axiom(
        m, "entanglement", {"Delta": "DeltaM", "Deltatilde": "DeltatildeM"}
    ).passed


def test_de_bruijn_graph_is_complete_with_loops():
    for n in (1, 2, 3, 4):
        g = de_bruijn_graph(n)
        assert len(g.vertices) == n
        assert len(g.arrows) == n * n
        assert all(w == ONE for w in g.arrows.values())
    with pytest.raises(ValueError):
        de_bruijn_graph(0)


def test_natural_lift_shape_triangle():
    g = parse_undirected_edges("a -- b\nb -- c\nc -- a")
    digraph, structure, family = natural_lift(g)
    loops = [(s, t) for (s, t) in digraph.arrows if s == t]
    assert len(loops) == 3
    assert len(digraph.arrows) - len(loops) == 6
    assert family[0] == "Delta_l"
    assert len(family) == 1 + 6
    assert covering_check(digraph, structure, family).passed


def test_natural_lift_petersen():
    g = fixture_petersen()
    digraph, structure, family = natural_lift(g)
    loops = [(s, t) for (s, t) in digraph.arrows if s == t]
    assert len(digraph.vertices) == 10
    assert len(loops) == 10
    assert len(digraph.arrows) - len(loops) == 30
    report = covering_check(digraph, structure, family)
    assert report.passed


def test_covering_check_reports_uncovered():
    g = parse_undirected_edges("a -- b")
    digraph, structure, family = natural_lift(g)
    # Drop one bridge: its arrow becomes uncovered.
    short = [name for name in family if name != family[-1]]
    report = covering_check(digraph, structure, short)
    assert not report.passed
    assert any(w[1].startswith("uncovered:") for w in report.witnesses)


TWO = Scalar.from_rational(2)
UVWX = ["u", "v", "w", "x"]


def test_covering_overlaps_come_in_family_then_basis_order():
    # B = 2A shares every loop of A with another weight: one witness per
    # loop, in basis order, whatever the hash seed.
    space = BasisSpace(UVWX)
    s = LStructure(space, {
        "A": MultiLinearMap(space, 2, {v: {(v, v): ONE} for v in UVWX}),
        "B": MultiLinearMap(space, 2, {v: {(v, v): TWO} for v in UVWX}),
    })
    g = WeightedDigraph(UVWX, [(v, v, ONE) for v in UVWX])
    report = covering_check(g, s, ["A", "B"])
    assert report.witnesses == [
        (v, f"overlap(A,B)@{v}->{v}", {(v, v): ONE}, {(v, v): TWO}) for v in UVWX
    ]


def test_dot_export_deterministic():
    g = WeightedDigraph(["a", "b"], [("b", "a", Q), ("a", "a", ONE)])
    text = dot_export(g, name="T")
    assert text == (
        'digraph T {\n'
        '  "a";\n'
        '  "b";\n'
        '  "a" -> "a";\n'
        '  "b" -> "a" [label="q"];\n'
        '}\n'
    )


def test_parse_digraph_edges_weights_and_comments():
    g = parse_digraph_edges("# head\na b q^2\nb a\n\n")
    assert g.weight("a", "b") == Q * Q
    assert g.weight("b", "a") == ONE
    with pytest.raises(ValueError):
        parse_digraph_edges("a\n")


def test_parse_undirected_edges():
    g = parse_undirected_edges("a -- b\nb--c")
    assert ("a", "b") in g.edges and ("b", "c") in g.edges
    with pytest.raises(ValueError):
        parse_undirected_edges("a -- b -- c")


@pytest.mark.parametrize("brk", OTHER_BREAKS)
def test_an_edge_line_ends_only_at_a_newline_or_carriage_return(brk):
    g = parse_undirected_edges(f"u -- v\r\n# skip{brk}w -- x\rv -- y\n")
    assert g.vertices == ("u", "v", "y")
    assert g.edges == {("u", "v"), ("v", "y")}
    with pytest.raises(ValueError, match="^line 3: "):
        parse_digraph_edges(f"a b\r\n# {brk} c d\ra\n")


# -- the indexed covering check against the pairwise one ---------------------


def copying_support(s, names):
    """The arrows of the geometric support, read from a copy of every
    label's image."""
    arrows = {}
    for name in names:
        cp = s.coproduct(name)
        for label in s.space.labels:
            for (a, b), w in cp.of_label(label).items():
                prior = arrows.get((a, b))
                if prior is None:
                    arrows[(a, b)] = w
                elif prior != w:
                    raise ValueError(
                        f"coproducts disagree on arrow {a}->{b}: {prior} vs {w}")
    return arrows


def pairwise_covering_check(g, s, family):
    """The covering check that compared every pair of members through a set
    intersection of their supports; its overlap witnesses are sorted by
    member pair in family order, then by arrow in basis order."""
    report = AxiomReport(axiom="coassociative_covering")
    for name in family:
        sub = check_axiom(s, "coassoc", {"Delta": name})
        if not sub.passed:
            for label, eq, lhs, rhs in sub.witnesses:
                report.witnesses.append((label, f"{name}:{eq}", lhs, rhs))
            report.notes.append(f"family member {name} is not coassociative")
    if report.witnesses:
        return report
    supports = {name: copying_support(s, [name]) for name in family}
    names = list(family)
    rank = s.space.index
    overlaps = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            si, sj = supports[names[i]], supports[names[j]]
            for arrow in set(si) & set(sj):
                u, w = arrow
                ci = s.coproduct(names[i]).of_label(u).get((u, w), ZERO)
                cj = s.coproduct(names[j]).of_label(u).get((u, w), ZERO)
                if ci != cj:
                    overlaps.append(((i, j, rank[u], rank[w]), (
                        u, f"overlap({names[i]},{names[j]})@{u}->{w}",
                        {(u, w): ci}, {(u, w): cj})))
    overlaps.sort(key=lambda item: item[0])
    report.witnesses.extend(witness for _, witness in overlaps)
    union = {}
    for arrs in supports.values():
        for arrow, w in arrs.items():
            union.setdefault(arrow, w)
    missing = set(g.arrows) - set(union)
    extra = set(union) - set(g.arrows)
    wrong = {a for a in set(union) & set(g.arrows) if union[a] != g.arrows[a]}
    for a in sorted(missing):
        report.witnesses.append((a[0], f"uncovered:{a[0]}->{a[1]}", {}, {a: g.arrows[a]}))
    for a in sorted(extra):
        report.witnesses.append((a[0], f"outside:{a[0]}->{a[1]}", {a: union[a]}, {}))
    for a in sorted(wrong):
        report.witnesses.append(
            (a[0], f"weight:{a[0]}->{a[1]}", {a: union[a]}, {a: g.arrows[a]}))
    return report


WEIGHTS = [ONE, TWO, Q]


@st.composite
def coverings(draw):
    """A digraph on u, v, w, x and a family of group-like maps, bridges
    s -> t (t to c s@t, s to c s@s) and arbitrary maps, which may fail
    coassociativity or disagree with themselves on an arrow."""
    space = BasisSpace(UVWX)
    arrows = [(a, b) for a in UVWX for b in UVWX]
    coproducts = {}
    for k in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["group", "group", "bridge", "bridge", "any"]))
        if kind == "group":
            labels = draw(st.lists(st.sampled_from(UVWX), min_size=1, unique=True))
            table = {v: {(v, v): draw(st.sampled_from(WEIGHTS))} for v in labels}
        elif kind == "bridge":
            a, b = draw(st.lists(st.sampled_from(UVWX), min_size=2, max_size=2,
                                 unique=True))
            c = draw(st.sampled_from(WEIGHTS))
            table = {b: {(a, b): c}, a: {(a, a): c}}
        else:
            table = draw(st.dictionaries(
                st.sampled_from(UVWX),
                st.dictionaries(st.sampled_from(arrows), st.sampled_from(WEIGHTS),
                                min_size=1, max_size=2),
                max_size=2))
        coproducts[f"m{k}"] = MultiLinearMap(space, 2, table)
    s = LStructure(space, coproducts)
    family = draw(st.lists(st.sampled_from(sorted(coproducts)), min_size=1, max_size=6))
    if draw(st.booleans()):
        covered = {}
        for name in family:
            try:
                covered.update(copying_support(s, [name]))
            except ValueError:
                pass
        g = WeightedDigraph(UVWX, [(a, b, c) for (a, b), c in covered.items()])
    else:
        g = WeightedDigraph(UVWX, draw(st.lists(st.tuples(
            st.sampled_from(UVWX), st.sampled_from(UVWX), st.sampled_from(WEIGHTS)),
            max_size=6)))
    return g, s, family


def _outcome(compute):
    try:
        return compute()
    except ValueError as exc:
        return "raised", str(exc)


def _report(report):
    return report.witnesses, report.notes


@settings(max_examples=150, deadline=None)
@given(coverings())
def test_indexed_covering_check_matches_pairwise(case):
    g, s, family = case
    assert _outcome(lambda: _report(covering_check(g, s, family))) == _outcome(
        lambda: _report(pairwise_covering_check(g, s, family)))
    assert _outcome(lambda: list(geometric_support(s, family).arrows.items())) == _outcome(
        lambda: list(copying_support(s, family).items()))


def test_covering_check_reads_each_support_from_its_table(monkeypatch):
    # A cycle on 35 vertices and 16 chords: 51 edges, so the natural lift
    # carries a family of 1 + 2 * 51 = 103 members.
    vertices = [f"v{i}" for i in range(35)]
    edges = [(vertices[i], vertices[(i + 1) % 35]) for i in range(35)]
    edges += [(vertices[i], vertices[i + 17]) for i in range(16)]
    digraph, structure, family = natural_lift(UndirectedGraph(vertices, edges))
    assert len(family) == 103
    built = []
    init = WeightedDigraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(WeightedDigraph, "__init__", counting_init)
    report = covering_check(digraph, structure, family)
    assert report.passed and report.witnesses == []
    assert len(built) == 0
    assert list(geometric_support(structure, family).arrows.items()) == list(
        copying_support(structure, family).items())
    assert len(built) == 1
