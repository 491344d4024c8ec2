"""Weighted digraphs, the Markov construction, geometric supports,
De Bruijn graphs, natural lifts of undirected graphs, and the
coassociative-covering checker.

Graph comparisons are label-identity only: every statement verified here
is about structures sharing one generator set.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from .coalgebra import AxiomReport, LStructure, check_axiom
from .linalg import BasisSpace, MultiLinearMap, Tensor, add_scaled
from .scalars import ONE, ZERO, Scalar, parse_scalar

Arrow = Tuple[str, str]


class WeightedDigraph:
    """Vertices plus weighted arrows; duplicate arrows merge by summing."""

    def __init__(
        self,
        vertices: Sequence[str],
        arrows: Iterable[Tuple[str, str, Scalar]],
    ):
        self.vertices = tuple(vertices)
        vertex_set = set(self.vertices)
        if len(vertex_set) != len(self.vertices):
            raise ValueError("duplicate vertices")
        merged: Dict[Arrow, Scalar] = {}
        for source, target, weight in arrows:
            if source not in vertex_set or target not in vertex_set:
                raise ValueError(f"arrow {source}->{target} has undeclared endpoint")
            add_scaled(merged, [((source, target), weight)], ONE)
        self.arrows = merged

    def weight(self, source: str, target: str) -> Scalar:
        return self.arrows.get((source, target), ZERO)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedDigraph):
            return NotImplemented
        return set(self.vertices) == set(other.vertices) and self.arrows == other.arrows

    def __repr__(self):
        return f"WeightedDigraph({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


class UndirectedGraph:
    """Vertices plus a set of unordered edges; at most one edge per pair."""

    def __init__(self, vertices: Sequence[str], edges: Iterable[Tuple[str, str]]):
        self.vertices = tuple(vertices)
        vertex_set = set(self.vertices)
        if len(vertex_set) != len(self.vertices):
            raise ValueError("duplicate vertices")
        self.edges: Set[Tuple[str, str]] = set()
        for u, v in edges:
            if u not in vertex_set or v not in vertex_set:
                raise ValueError(f"edge {u}--{v} has undeclared endpoint")
            key = (u, v) if u <= v else (v, u)
            self.edges.add(key)


def markov_coalgebra(g: WeightedDigraph) -> LStructure:
    """The finite Markov pair (DeltaM, DeltatildeM) of a weighted digraph:
    Delta(v) = sum w(v->t) v @ t, Deltatilde(v) = sum w(s->v) s @ v."""
    space = BasisSpace(g.vertices)
    right: Dict[str, Tensor] = {}
    left: Dict[str, Tensor] = {}
    for (s, t), w in g.arrows.items():
        right.setdefault(s, {})[(s, t)] = w
        left.setdefault(t, {})[(s, t)] = w
    return LStructure(
        space,
        {
            "DeltaM": MultiLinearMap(space, 2, right),
            "DeltatildeM": MultiLinearMap(space, 2, left),
        },
    )


def _support(s: LStructure, names: Sequence[str]) -> Dict[Arrow, Scalar]:
    """The arrow x->y of each term lam x@y of the named coproducts, with its
    weight lam, read from their tables label by label in basis order; an
    arrow that two terms give two weights raises."""
    arrows: Dict[Arrow, Scalar] = {}
    rank = s.space.index.__getitem__
    for name in names:
        table = s.coproduct(name).table
        for label in sorted(table, key=rank):
            for (a, b), w in table[label].items():
                prior = arrows.get((a, b))
                if prior is None:
                    arrows[(a, b)] = w
                elif prior != w:
                    raise ValueError(
                        f"coproducts disagree on arrow {a}->{b}: {prior} vs {w}"
                    )
    return arrows


def geometric_support(s: LStructure, names: Sequence[str]) -> WeightedDigraph:
    """Each term lam x@y of the chosen coproducts becomes an arrow x->y.

    Arrows shared by several chosen coproducts must agree in weight (the
    covering reading); a conflict raises rather than silently summing.
    """
    return WeightedDigraph(
        s.space.labels, [(a, b, w) for (a, b), w in _support(s, names).items()]
    )


def de_bruijn_graph(n: int, prefix: str = "x") -> WeightedDigraph:
    """The (n,1)-De Bruijn graph: complete digraph with loops, unit weights."""
    if n < 1:
        raise ValueError("n must be positive")
    vertices = [f"{prefix}{i}" for i in range(1, n + 1)]
    arrows = [(u, v, ONE) for u in vertices for v in vertices]
    return WeightedDigraph(vertices, arrows)


def natural_lift(
    g: UndirectedGraph,
) -> Tuple[WeightedDigraph, LStructure, List[str]]:
    """Directed double of an undirected graph with loops added, carrying
    its covering family: the loop coproduct plus one bridge per arrow
    between distinct vertices.

    Returns (digraph, structure holding the family, family names)."""
    arrows: List[Tuple[str, str, Scalar]] = []
    # Loop edges survive as loops; every loop-free vertex gets one added,
    # so the lift always has exactly one loop per vertex.
    for v in g.vertices:
        arrows.append((v, v, ONE))
    for u, v in sorted(g.edges):
        if u != v:
            arrows.append((u, v, ONE))
            arrows.append((v, u, ONE))
    digraph = WeightedDigraph(g.vertices, arrows)
    space = BasisSpace(g.vertices)
    coproducts: Dict[str, MultiLinearMap] = {
        "Delta_l": MultiLinearMap(
            space, 2, {v: {(v, v): ONE} for v in g.vertices}
        )
    }
    names = ["Delta_l"]
    for (s, t) in sorted(digraph.arrows):
        if s == t:
            continue
        name = f"delta_{s}_{t}"
        coproducts[name] = MultiLinearMap(
            space, 2, {t: {(s, t): ONE}, s: {(s, s): ONE}}
        )
        names.append(name)
    return digraph, LStructure(space, coproducts), names


def covering_check(
    g: WeightedDigraph, s: LStructure, family: Sequence[str]
) -> AxiomReport:
    """Pass iff every family member is coassociative, the union of their
    supports is exactly g, and members agree coefficient-wise on every
    shared arrow.

    Each member's support is read from its own table, and coefficients are
    read only on arrows that two or more members hold: besides the member
    checks, the cost is linear in the family's tables, plus one comparison
    per pair of members that share an arrow."""
    report = AxiomReport(axiom="coassociative_covering")
    for name in family:
        sub = check_axiom(s, "coassoc", {"Delta": name})
        if not sub.passed:
            for label, eq, lhs, rhs in sub.witnesses:
                report.witnesses.append((label, f"{name}:{eq}", lhs, rhs))
            report.notes.append(f"family member {name} is not coassociative")
    if report.witnesses:
        return report

    supports = {name: _support(s, [name]) for name in dict.fromkeys(family)}

    # Overlap agreement: coefficient of u@w in delta_i(u) vs delta_j(u), for
    # each pair i < j of members whose supports share u->w.  The witnesses
    # come by member pair in family order, then by arrow in basis order.
    names = list(family)
    holders: Dict[Arrow, List[int]] = {}
    for i, name in enumerate(names):
        for arrow in supports[name]:
            holders.setdefault(arrow, []).append(i)
    index = s.space.index
    overlaps = []
    for (u, w), held in holders.items():
        if len(held) < 2:
            continue
        coeffs = [
            s.coproduct(names[i]).table.get(u, {}).get((u, w), ZERO) for i in held
        ]
        for (i, ci), (j, cj) in combinations(zip(held, coeffs), 2):
            if ci != cj:
                overlaps.append(((i, j, index[u], index[w]), (
                    u, f"overlap({names[i]},{names[j]})@{u}->{w}",
                    {(u, w): ci}, {(u, w): cj},
                )))
    overlaps.sort(key=lambda item: item[0])
    report.witnesses.extend(witness for _, witness in overlaps)

    union: Dict[Arrow, Scalar] = {}  # the first member's weight of each arrow
    for arrs in reversed(supports.values()):
        union.update(arrs)
    missing = set(g.arrows) - set(union)
    extra = set(union) - set(g.arrows)
    wrong = {
        a for a in set(union) & set(g.arrows) if union[a] != g.arrows[a]
    }
    for a in sorted(missing):
        report.witnesses.append((a[0], f"uncovered:{a[0]}->{a[1]}", {}, {a: g.arrows[a]}))
    for a in sorted(extra):
        report.witnesses.append((a[0], f"outside:{a[0]}->{a[1]}", {a: union[a]}, {}))
    for a in sorted(wrong):
        report.witnesses.append(
            (a[0], f"weight:{a[0]}->{a[1]}", {a: union[a]}, {a: g.arrows[a]})
        )
    return report


def dot_export(g: WeightedDigraph, name: str = "G") -> str:
    """Deterministic DOT text: vertices in declaration order, arrows sorted
    by (source, target); weights other than 1 become edge labels."""
    lines = [f"digraph {name} {{"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for (s, t) in sorted(g.arrows):
        w = g.arrows[(s, t)]
        if w == ONE:
            lines.append(f'  "{s}" -> "{t}";')
        else:
            lines.append(f'  "{s}" -> "{t}" [label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _edge_lines(text: str, split, arity: Tuple[int, ...], expected: str, row=tuple):
    """(vertices in order of appearance, ``row`` of each line's words), one
    edge per line, with ``#`` comments and blank lines skipped; a line that
    ``split`` does not cut into a number of words in ``arity`` is refused.
    A line ends only at a line feed, a carriage return or the two together,
    as in the document reader."""
    vertices: Dict[str, None] = {}
    rows = []
    for lineno, raw in enumerate(
            text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = split(line)
        if len(parts) not in arity:
            raise ValueError(f"line {lineno}: expected {expected!r}")
        rows.append(row(parts))
        vertices.update(dict.fromkeys(parts[:2]))
    return list(vertices), rows


def parse_digraph_edges(text: str) -> WeightedDigraph:
    """One arrow per line: "u v [weight]"; vertices in order of appearance."""
    return WeightedDigraph(*_edge_lines(
        text, str.split, (2, 3), "u v [weight]",
        lambda p: (p[0], p[1], parse_scalar(p[2]) if len(p) == 3 else ONE)))


def parse_undirected_edges(text: str) -> UndirectedGraph:
    """One edge per line: "u -- v"; vertices in order of appearance."""
    return UndirectedGraph(*_edge_lines(
        text, lambda line: line.replace("--", " ").split(), (2,), "u -- v"))
