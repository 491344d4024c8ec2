"""Named fixtures: the four-dimensional matrix-type coalgebra F with its
achiral partner and channel copy, the 2x2 quantum-group presentation with
antipode data, the quantum-sphere coalgebra slice, the two-parameter
composition gluing, De Bruijn structures, the Petersen graph, cyclic group
algebras, and the split cyclic-group entanglement used by the coderivative
checks.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .coalgebra import FiniteAlgebra, LStructure
from .constructions import (
    ChannelMap,
    EntangledStructure,
    achiral_entangle,
    cibils_structures,
    de_bruijn_codialgebra,
    self_entangle,
)
from .graphs import UndirectedGraph, WeightedDigraph
from .linalg import BasisSpace, MultiLinearMap
from .ncpoly import NCPoly, NCTensor, AntipodeData, RewriteSystem, relation_set
from .scalars import ONE, Q, Scalar

_MINUS_Q = -Q
_Q_INV = ONE / Q
_MINUS_Q_INV = -_Q_INV


# -- F: the matrix-type coalgebra ------------------------------------------


def fixture_f() -> Dict[str, object]:
    """Four labels a, b, c, d with the comatrix coproduct, its achiral
    partner, the counit, the support digraph, and the channel onto the
    second alphabet y, x, u, z."""
    space = BasisSpace(["a", "b", "c", "d"])
    delta = MultiLinearMap(
        space,
        2,
        {
            "a": {("a", "a"): ONE, ("b", "c"): ONE},
            "b": {("a", "b"): ONE, ("b", "d"): ONE},
            "c": {("c", "a"): ONE, ("d", "c"): ONE},
            "d": {("c", "b"): ONE, ("d", "d"): ONE},
        },
    )
    deltatilde = MultiLinearMap(
        space,
        2,
        {
            "a": {("b", "a"): ONE, ("a", "c"): ONE},
            "b": {("b", "b"): ONE, ("a", "d"): ONE},
            "c": {("c", "c"): ONE, ("d", "a"): ONE},
            "d": {("c", "d"): ONE, ("d", "b"): ONE},
        },
    )
    structure = LStructure(
        space,
        {"Delta": delta, "Deltatilde": deltatilde},
        counits={"eps": {"a": ONE, "d": ONE}},
    )
    digraph = WeightedDigraph(
        space.labels,
        [
            ("a", "a", ONE), ("b", "c", ONE),
            ("a", "b", ONE), ("b", "d", ONE),
            ("c", "a", ONE), ("d", "c", ONE),
            ("c", "b", ONE), ("d", "d", ONE),
        ],
    )
    channel = ChannelMap(
        space,
        BasisSpace(["x", "y", "z", "u"]),
        {
            "a": {"x": ONE},
            "b": {"y": ONE},
            "c": {"z": ONE},
            "d": {"u": ONE},
        },
    )
    return {"structure": structure, "digraph": digraph, "channel": channel}


def fixture_f_entangled() -> EntangledStructure:
    """Self-entanglement of F through its channel copy."""
    data = fixture_f()
    return self_entangle(
        data["structure"], "Delta", data["channel"], eps_name="eps"
    )


def fixture_f_achiral() -> EntangledStructure:
    """Achiral entanglement of (Delta, Deltatilde) of F; the transported
    coproduct is Delta (the declared convention for this pair)."""
    data = fixture_f()
    return achiral_entangle(
        data["structure"], "Delta", "Deltatilde", data["channel"], transported="Delta"
    )


# -- the 2x2 quantum-group presentation ------------------------------------


def _nct(entries: Dict[Tuple[str, str], Scalar]) -> NCTensor:
    return {((a,), (b,)): c for (a, b), c in entries.items()}


def fixture_slq2() -> Dict[str, object]:
    """The finite coalgebra slice of the quantum 2x2 presentation: the
    structure of F with the channel M lettering a -> y, b -> x, c -> u,
    d -> z."""
    structure: LStructure = fixture_f()["structure"]  # type: ignore[assignment]
    channel = ChannelMap(
        structure.space,
        BasisSpace(["x", "y", "z", "u"]),
        {
            "a": {"y": ONE},
            "b": {"x": ONE},
            "c": {"u": ONE},
            "d": {"z": ONE},
        },
    )
    return {"structure": structure, "channel": channel}


def fixture_quantum_matrix() -> Dict[str, object]:
    """The quantum 2x2 presentation.  On top of its finite coalgebra slice,
    ``fixture_slq2``, sit the two rewrite systems, the generator-level
    coproducts on both alphabets, the defining relations, the antipode
    sigma1, and the convolution-identity data
    m(id x sigma1) delta1 = eps_star . 1."""
    base = fixture_slq2()
    structure: LStructure = base["structure"]  # type: ignore[assignment]
    channel: ChannelMap = base["channel"]  # type: ignore[assignment]
    entangled = self_entangle(structure, "Delta", channel, eps_name="eps")
    rs1 = relation_set("quantum_matrix")
    rs2 = relation_set("quantum_matrix_tilde")

    delta1_nc: Dict[str, NCTensor] = {
        "a": _nct({("a", "a"): ONE, ("b", "c"): ONE}),
        "b": _nct({("a", "b"): ONE, ("b", "d"): ONE}),
        "c": _nct({("c", "a"): ONE, ("d", "c"): ONE}),
        "d": _nct({("c", "b"): ONE, ("d", "d"): ONE}),
    }
    delta2_nc: Dict[str, NCTensor] = {
        "y": _nct({("y", "y"): ONE, ("x", "u"): ONE}),
        "x": _nct({("y", "x"): ONE, ("x", "z"): ONE}),
        "u": _nct({("u", "y"): ONE, ("z", "u"): ONE}),
        "z": _nct({("u", "x"): ONE, ("z", "z"): ONE}),
    }
    # The bridge delta1 = (id x channel) Delta on the first alphabet and
    # the transported coproduct on the second: left legs always in the
    # first alphabet only on the first four generators.
    bridge1_nc: Dict[str, NCTensor] = {
        "a": _nct({("a", "y"): ONE, ("b", "u"): ONE}),
        "b": _nct({("a", "x"): ONE, ("b", "z"): ONE}),
        "c": _nct({("c", "y"): ONE, ("d", "u"): ONE}),
        "d": _nct({("c", "x"): ONE, ("d", "z"): ONE}),
        "y": _nct({("a", "y"): ONE, ("b", "u"): ONE}),
        "x": _nct({("a", "x"): ONE, ("b", "z"): ONE}),
        "u": _nct({("c", "y"): ONE, ("d", "u"): ONE}),
        "z": _nct({("c", "x"): ONE, ("d", "z"): ONE}),
    }

    def rules_as_relations(rs: RewriteSystem) -> List[Tuple[str, NCPoly, NCPoly]]:
        out = []
        for pattern, replacement in rs.rules:
            out.append(("".join(pattern), {pattern: ONE}, dict(replacement)))
        return out

    # sigma1: the antipode on the first alphabet, pulled back through the
    # channel on the second; values are polynomials in the first alphabet.
    sigma1: Dict[str, NCPoly] = {
        "a": {("d",): ONE},
        "b": {("b",): _MINUS_Q},
        "c": {("c",): _MINUS_Q_INV},
        "d": {("a",): ONE},
        "x": {("b",): _MINUS_Q},
        "y": {("d",): ONE},
        "z": {("a",): ONE},
        "u": {("c",): _MINUS_Q_INV},
    }
    # eps_star extends eps1 by the left counit of the transported coproduct.
    eps_star = {"a": ONE, "d": ONE, "y": ONE, "z": ONE}

    identity_letters = {v: {(v,): ONE} for v in ("a", "b", "c", "d")}
    antipode = AntipodeData(
        coproducts=bridge1_nc,
        first=identity_letters,
        second=sigma1,
        counit=eps_star,
        rewrite=rs1,
    )
    return {
        "channel": channel,
        "entangled": entangled,
        "rewrite1": rs1,
        "rewrite2": rs2,
        "delta1_nc": delta1_nc,
        "delta2_nc": delta2_nc,
        "bridge1_nc": bridge1_nc,
        "relations1": rules_as_relations(rs1),
        "relations2": rules_as_relations(rs2),
        "antipode": antipode,
    }


# -- the quantum-sphere coalgebra slice ------------------------------------


def fixture_quantum_sphere() -> Dict[str, object]:
    """Labels a, c, as, cs (starred pairs) with the achiral coproduct pair
    of the quantum sphere, plus the channel onto x, z, xs, zs."""
    space = BasisSpace(["a", "c", "as", "cs"])
    delta1 = MultiLinearMap(
        space,
        2,
        {
            "a": {("a", "a"): ONE, ("cs", "c"): _MINUS_Q},
            "c": {("c", "a"): ONE, ("as", "c"): ONE},
            "as": {("as", "as"): ONE, ("c", "cs"): _MINUS_Q},
            "cs": {("cs", "as"): ONE, ("a", "cs"): ONE},
        },
    )
    deltatilde1 = MultiLinearMap(
        space,
        2,
        {
            "a": {("cs", "a"): ONE, ("a", "c"): ONE},
            "c": {("c", "c"): ONE, ("as", "a"): _MINUS_Q_INV},
            "as": {("c", "as"): ONE, ("as", "cs"): ONE},
            "cs": {("cs", "cs"): ONE, ("a", "as"): _MINUS_Q_INV},
        },
    )
    structure = LStructure(space, {"Delta1": delta1, "Deltatilde1": deltatilde1})
    channel = ChannelMap(
        space,
        BasisSpace(["x", "z", "xs", "zs"]),
        {
            "a": {"zs": ONE},
            "as": {"z": ONE},
            "c": {"xs": _MINUS_Q_INV},
            "cs": {"x": _MINUS_Q_INV},
        },
    )
    return {"structure": structure, "channel": channel}


# -- composition gluing, De Bruijn, Petersen, cyclic groups ----------------


def fixture_cibils(n: int, q: Scalar = Q) -> LStructure:
    return cibils_structures(n, q)


def fixture_debruijn(n: int) -> LStructure:
    """The De Bruijn codialgebra: the Markov pair of the De Bruijn graph."""
    return de_bruijn_codialgebra(n)


def fixture_petersen() -> UndirectedGraph:
    outer = [f"o{i}" for i in range(5)]
    inner = [f"i{i}" for i in range(5)]
    edges: List[Tuple[str, str]] = []
    for i in range(5):
        edges.append((outer[i], outer[(i + 1) % 5]))
        edges.append((outer[i], inner[i]))
        edges.append((inner[i], inner[(i + 2) % 5]))
    return UndirectedGraph(outer + inner, edges)


def fixture_group(n: int) -> LStructure:
    """The cyclic group algebra on group-like generators g0..g(n-1)."""
    if n < 1:
        raise ValueError("n must be positive")
    labels = [f"g{i}" for i in range(n)]
    space = BasisSpace(labels)
    delta = MultiLinearMap(
        space, 2, {lab: {(lab, lab): ONE} for lab in labels}
    )
    product = {
        (f"g{i}", f"g{j}"): {f"g{(i + j) % n}": ONE}
        for i in range(n)
        for j in range(n)
    }
    algebra = FiniteAlgebra(space, product, {"g0": ONE})
    return LStructure(
        space,
        {"Delta": delta, "Deltatilde": delta},
        counits={"eps": {lab: ONE for lab in labels}},
        algebra=algebra,
    )


def fixture_group_split() -> EntangledStructure:
    """The order-six cyclic group algebra viewed as (order 3) x (order 2),
    split into even powers and odd powers and entangled through the
    translation channel by the order-two element t3.  Translating by an
    involution makes every bridge coproduct multiplicative (the Ito
    theorems apply) while the channel itself is not an algebra morphism
    (the coderivative Ito property genuinely fails).  Carries the ambient
    multiplication so the derivation checks can run."""
    even = BasisSpace([f"t{i}" for i in (0, 2, 4)])
    odd = BasisSpace([f"t{i}" for i in (3, 5, 1)])
    ambient = even.union(odd)
    delta = MultiLinearMap(
        ambient, 2, {lab: {(lab, lab): ONE} for lab in even.labels}
    )
    c1_structure = LStructure(
        ambient, {"Delta": delta}, counits={"eps": {lab: ONE for lab in even.labels}}
    )
    channel = ChannelMap(
        even, odd, {f"t{i}": {f"t{(i + 3) % 6}": ONE} for i in (0, 2, 4)}
    )
    product = {
        (f"t{i}", f"t{j}"): {f"t{(i + j) % 6}": ONE}
        for i in range(6)
        for j in range(6)
    }
    algebra = FiniteAlgebra(ambient, product, {"t0": ONE})
    return self_entangle(c1_structure, "Delta", channel, eps_name="eps", algebra=algebra)
