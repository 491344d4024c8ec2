"""Channel maps and every entanglement construction: self-entanglement,
achiral entanglement, codipterous sums, De Bruijn codialgebras, flower
entanglements, Cibils structures, self-tilings, Ito pairs, and Leibniz
coderivatives.

All constructions glue two disjoint boundaries inside one ambient space and
return total coproducts on it; the defining identities are verified exactly
at construction time and a failure raises with witnesses.  Each of the four
channel entanglements is data: a table of its glued coproducts, each part
read on C1 or C2 directly or across the channel, plus the entanglements
that they must satisfy, both handed to one builder, ``_entangle``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .coalgebra import (AxiomReport, FiniteAlgebra, LStructure, _bind, _eval_side,
                        _expand, _side, check_axiom, solve_right_counit)
from .complexes import flower_coproducts
from .convolution import _bar_unit_laws
from .graphs import de_bruijn_graph, markov_coalgebra
from .linalg import (
    BasisSpace,
    MultiLinearMap,
    Tensor,
    Vector,
    add_scaled,
    functional_value,
    rref,
    tensor_add,
    tensor_sub,
    unit_vector,
)
from .scalars import ONE, ZERO, Scalar


class ChannelMap:
    """An invertible linear map between two boundary spaces.

    Invertibility is verified at construction.  The coalgebra-morphism and
    counit conditions hold by construction where a coproduct and its counit
    are transported across the channel: in ``self_entangle``,
    Delta_star Phi = (Phi x Phi) Delta_star and eps_star Phi = eps1 on C1.
    Fixed points are allowed here (the fixed-point proposition needs them);
    the entanglement constructions enforce disjointness themselves.
    """

    def __init__(self, c1: BasisSpace, c2: BasisSpace, forward: Dict[str, Vector]):
        if c1.dim != c2.dim:
            raise ValueError("channel endpoints have different dimensions")
        self.c1 = c1
        self.c2 = c2
        self.forward = {
            lab: {k: c for k, c in vec.items() if not c.is_zero()}
            for lab, vec in forward.items()
        }
        for lab in c1.labels:
            if not self.forward.get(lab):
                raise ValueError(f"channel not defined on {lab!r}")
            for k in self.forward[lab]:
                if k not in c2:
                    raise ValueError(f"channel value label {k!r} outside target")
        self.inverse = self._invert()

    def _invert(self) -> Dict[str, Vector]:
        n = self.c1.dim
        # Augment the coordinate matrix with the identity and row-reduce.
        rows = []
        for i, out_lab in enumerate(self.c2.labels):
            row = [
                self.forward[in_lab].get(out_lab, ZERO)
                for in_lab in self.c1.labels
            ]
            row += [ONE if j == i else ZERO for j in range(n)]
            rows.append(row)
        reduced, pivots = rref(rows)
        if pivots[:n] != list(range(n)):
            raise ValueError("channel map is not invertible")
        inverse: Dict[str, Vector] = {}
        for j, out_lab in enumerate(self.c2.labels):
            vec: Vector = {}
            for i, in_lab in enumerate(self.c1.labels):
                c = reduced[i][n + j]
                if not c.is_zero():
                    vec[in_lab] = c
            inverse[out_lab] = vec
        return inverse

    # -- application -------------------------------------------------------

    def apply(self, v: Vector) -> Vector:
        out: Vector = {}
        for lab, c in v.items():
            add_scaled(out, self.forward[lab].items(), c)
        return out

    def unapply(self, v: Vector) -> Vector:
        out: Vector = {}
        for lab, c in v.items():
            add_scaled(out, self.inverse[lab].items(), c)
        return out

    def has_fixed_points(self) -> bool:
        return any(self.forward.get(lab) == unit_vector(lab) for lab in self.c1.labels)


@dataclass
class EntangledStructure:
    """Output of a gluing construction: an ambient structure whose
    coproducts carry canonical names (Delta_star plus the bridges the
    construction defines), and the channel between its two boundaries."""

    structure: LStructure
    channel: ChannelMap

    @property
    def c1(self) -> BasisSpace:
        return self.channel.c1

    @property
    def c2(self) -> BasisSpace:
        return self.channel.c2

    @property
    def counits(self) -> Dict[str, Vector]:
        return self.structure.counits

    def coproduct(self, name: str) -> MultiLinearMap:
        return self.structure.coproduct(name)


def _ambient(channel: ChannelMap) -> BasisSpace:
    """The union of the channel's two boundaries, which must be disjoint."""
    c1, c2 = channel.c1, channel.c2
    overlap = set(c1.labels) & set(c2.labels)
    if overlap:
        raise ValueError(f"boundaries overlap: {sorted(overlap)}")
    return c1.union(c2)


def _require(s: LStructure, axiom: str, bindings: Dict[str, str], message: str) -> None:
    """Raise ``message`` followed by the witness labels unless ``axiom``
    holds on ``s`` under ``bindings``."""
    report = check_axiom(s, axiom, bindings)
    if not report.passed:
        raise ValueError(message + ", ".join(report.witness_labels()))


# One boundary's part of a glued coproduct: (cp, None) is cp itself;
# (cp, legs) is cp read across the channel with the channel on each leg.
# In a construction's table, cp may name a coproduct listed before it.
Part = Tuple[Union[MultiLinearMap, str], Optional[Tuple[int, ...]]]


def _linear(ambient: BasisSpace, table: Dict[str, Vector]) -> MultiLinearMap:
    """The arity-1 map on the ambient that sends each label to its vector."""
    return MultiLinearMap(ambient, 1, {
        lab: {(k,): c for k, c in vec.items()} for lab, vec in table.items()})


def _glue(
    ambient: BasisSpace, channel: ChannelMap, phis: Dict[str, MultiLinearMap],
    on_c1: Part, on_c2: Part,
) -> MultiLinearMap:
    """The coproduct that is ``on_c1`` over C1 and ``on_c2`` over C2.  A part
    read across the channel is the chain Phi, cp at slot 1, then Phi^-1 at
    each of its legs over C1, and the mirror chain over C2; ``phis`` holds
    Phi and Phi^-1 as arity-1 maps on the ambient."""
    table: Dict[str, Tensor] = {}
    for labels, (cp, legs), there, back in (
        (channel.c1.labels, on_c1, "Phi", "Phi^-1"),
        (channel.c2.labels, on_c2, "Phi^-1", "Phi"),
    ):
        side = (_side("cp") if legs is None
                else _side(there, ("cp", 1), *((back, leg) for leg in legs)))
        bound = _bind(side, {**phis, "cp": cp})
        for lab in labels:
            table[lab] = _eval_side(bound, lab)
    return MultiLinearMap(ambient, 2, table)


def _entangle(
    ambient: BasisSpace,
    channel: ChannelMap,
    coproducts: Dict[str, Union[MultiLinearMap, Tuple[Part, Part]]],
    checks: Sequence[Tuple[str, str, str]],
    algebra: Optional[FiniteAlgebra] = None,
) -> EntangledStructure:
    """The structure whose coproducts are the table's maps, in order, each
    one given or glued from its (on_c1, on_c2) parts; each (first, second,
    tag) check requires (first x id) second = (id x second) first."""
    phis = {"Phi": _linear(ambient, channel.forward),
            "Phi^-1": _linear(ambient, channel.inverse)}
    built: Dict[str, MultiLinearMap] = {}
    for name, entry in coproducts.items():
        if isinstance(entry, MultiLinearMap):
            built[name] = entry
        else:
            on_c1, on_c2 = ((built[cp] if isinstance(cp, str) else cp, legs)
                            for cp, legs in entry)
            built[name] = _glue(ambient, channel, phis, on_c1, on_c2)
    structure = LStructure(ambient, built, algebra=algebra)
    for first, second, tag in checks:
        _require(structure, "entanglement", {"Deltatilde": first, "Delta": second},
                 f"{tag} fails at ")
    return EntangledStructure(structure, channel)


def self_entangle(
    c1_structure: LStructure,
    delta_name: str,
    channel: ChannelMap,
    eps_name: Optional[str] = None,
    algebra: Optional[FiniteAlgebra] = None,
) -> EntangledStructure:
    """Entangle a coassociative coalgebra with its channel copy.

    Builds Delta_star and the four bridges delta1, deltahat1, delta2,
    deltahat2, then verifies the self-entanglement equation and, when a
    counit is available, the one-sided counit laws of the bridges.
    """
    ambient = _ambient(channel)
    delta1 = c1_structure.coproduct(delta_name)
    entangled = _entangle(ambient, channel, {
        # Delta_star is Delta1 over C1 and Delta2 = (Phi x Phi) Delta1 Phi^-1 over C2.
        "Delta_star": ((delta1, None), (delta1, (1, 2))),
        "delta1": ((delta1, None), (delta1, (2,))),
        "deltahat1": ((delta1, None), (delta1, (1,))),
        "delta2": (("Delta_star", (2,)), ("Delta_star", None)),
        "deltahat2": (("Delta_star", (1,)), ("Delta_star", None)),
    }, [("delta1", "delta2", "self-entanglement")], algebra)

    structure = entangled.structure
    eps1 = c1_structure.counits.get(eps_name)
    if eps1 is None:
        eps1 = _restrict_counit(solve_right_counit(structure, "Delta_star"), channel.c1)
    if eps1 is None or not _bridge_counits_hold(structure, eps1):
        return entangled
    eps_star = dict(eps1)
    for w in channel.c2.labels:
        value = functional_value(eps1, channel.inverse[w])
        if not value.is_zero():
            eps_star[w] = value
    counits = {"eps_star": eps_star}
    return EntangledStructure(
        LStructure(ambient, structure.coproducts, counits, algebra), channel
    )


def _restrict_counit(eps: Optional[Vector], c1: BasisSpace) -> Optional[Vector]:
    if eps is None:
        return None
    return {lab: c for lab, c in eps.items() if lab in c1}


def _bridge_counits_hold(structure: LStructure, eps1: Vector) -> bool:
    """(eps1 x id) delta1 = id and (id x eps1) deltahat1 = id."""
    eps1 = _restrict_counit(eps1, structure.space)
    return _bar_unit_laws(structure, eps1, "deltahat1", "delta1").passed


def achiral_entangle(
    g: LStructure,
    delta_name: str,
    deltatilde_name: str,
    channel: ChannelMap,
    transported: str = "Delta",
) -> EntangledStructure:
    """Entangle an achiral pair with its channel copy.

    ``transported`` names which of the two coproducts is pushed through the
    channel to become the C2 coproduct (the source leaves both conventions
    open; each fixture declares its own).  Produces Delta_star, delta1,
    deltatilde2, the hat bridge deltatildehat2, and the two auxiliary glued
    coproducts Delta_star_plain / Deltatilde_star used by the Ito variant.
    """
    ambient = _ambient(channel)
    _require(g, "achiral", {"Delta": delta_name, "Deltatilde": deltatilde_name},
             "input pair is not achiral: ")
    delta = g.coproduct(delta_name)
    deltatilde = g.coproduct(deltatilde_name)
    source = delta if transported == "Delta" else deltatilde
    return _entangle(ambient, channel, {
        # Delta_star is Delta1 over C1 and the transported Deltatilde2 over C2.
        "Delta_star": ((delta, None), (source, (1, 2))),
        # Delta1 over C1, delta1 Phi = (id x Phi) Delta1 over C2.
        "delta1": ((delta, None), (delta, (2,))),
        # Deltatilde2 over C2; over C1 the resolved orientation
        # (id x Phi^-1) Deltatilde2 Phi (the printed one contradicts the
        # worked example and breaks the asserted entanglement).
        "deltatilde2": (("Delta_star", (2,)), ("Delta_star", None)),
        "deltatildehat2": (("Delta_star", (1,)), ("Delta_star", None)),
        # Auxiliary glued pairs for the Ito variant: transports of Delta1
        # and Deltatilde1 respectively.
        "Delta_star_plain": ((delta, None), (delta, (1, 2))),
        "Deltatilde_star": ((deltatilde, None), (deltatilde, (1, 2))),
    }, [
        ("deltatilde2", "delta1", "achiral entanglement"),
        ("delta1", "deltatildehat2", "hat entanglement"),
    ])


def sum_codipterous(
    d1: LStructure,
    names1: Tuple[str, str],
    d2: LStructure,
    names2: Tuple[str, str],
) -> LStructure:
    """Glue two codipterous structures on disjoint label sets piecewise.

    Both inputs must pass codipterous; the result does too (verified)."""
    for s, (cp, br) in ((d1, names1), (d2, names2)):
        _require(s, "codipterous", {"Delta": cp, "delta": br},
                 "input is not codipterous at ")
    ambient = d1.space.union(d2.space)

    def glue(i: int) -> MultiLinearMap:
        return MultiLinearMap(
            ambient, 2, {**d1.coproduct(names1[i]).table, **d2.coproduct(names2[i]).table}
        )

    out = LStructure(ambient, {"Delta_star": glue(0), "delta_star": glue(1)})
    report = check_axiom(out, "codipterous", {"Delta": "Delta_star", "delta": "delta_star"})
    if not report.passed:
        raise ValueError("glued structure lost codipterousness")
    return out


def de_bruijn_codialgebra(n: int, prefix: str = "x") -> LStructure:
    """The (n,1)-De Bruijn codialgebra: DeltaM x_i = x_i @ Sigma,
    DeltatildeM x_i = Sigma @ x_i, the Markov pair of the De Bruijn graph."""
    return markov_coalgebra(de_bruijn_graph(n, prefix))


def markov_entangle_de_bruijn(
    g: LStructure,
    c: LStructure,
    delta_name: str,
    channel: ChannelMap,
) -> EntangledStructure:
    """Entangle a De Bruijn codialgebra with a coassociative coalgebra via
    a channel G -> C, producing the bridges delta_M, deltatilde_M, delta."""
    ambient = _ambient(channel)
    delta_m = g.coproduct("DeltaM")
    deltatilde_m = g.coproduct("DeltatildeM")
    delta_c = c.coproduct(delta_name)
    return _entangle(ambient, channel, {
        "Delta_star": ((delta_m, None), (delta_c, None)),
        "Delta_star_tilde": ((deltatilde_m, None), (delta_c, None)),
        # bridge Phi-image: bridge(Phi v) = (id x Phi) cp(v)
        "delta_M": ((delta_m, None), (delta_m, (2,))),
        "deltatilde_M": ((deltatilde_m, None), (deltatilde_m, (2,))),
        "delta": ((delta_c, (2,)), (delta_c, None)),
    }, [
        ("delta", "delta_M", "De Bruijn entanglement"),
        ("deltatilde_M", "delta", "De Bruijn tilde entanglement"),
    ])


def markov_entangle_flower(
    a_space: BasisSpace,
    unit_label: str,
    c: LStructure,
    delta_name: str,
    channel: ChannelMap,
) -> EntangledStructure:
    """Entangle the flower structure on an algebra side with a bialgebra
    side, producing the bridges delta_f, deltatilde_f and delta."""
    if channel.c1 != a_space:
        raise ValueError("channel source must be the algebra side")
    ambient = _ambient(channel)
    if unit_label not in a_space:
        raise ValueError("unit label must belong to the algebra side")
    delta_c = c.coproduct(delta_name)
    flowers = flower_coproducts(ambient, unit_label)
    return _entangle(ambient, channel, {
        "Delta_star": ((flowers["Delta_f"], None), (delta_c, None)),
        "delta_f": flowers["delta_f"],
        "deltatilde_f": flowers["deltatilde_f"],
        "delta": ((delta_c, (2,)), (delta_c, None)),
    }, [
        ("deltatilde_f", "delta", "flower tilde entanglement"),
        ("delta", "delta_f", "flower entanglement"),
    ])


def cibils_structures(n: int, q: Scalar) -> LStructure:
    """The two-channel gluing on (a_i), (x_i), 0 <= i < n.

    Index sums run over integer compositions j+k=i inside 0..n-1 (the only
    reading under which every asserted axiom holds exactly).  The structure
    carries Delta_star, the codialgebra pair (delta, deltahat),
    the dendriform pair (delta, deltahat_d) and the counit.  The gluing
    channels a_i -> q^-i x_i and a_i -> x_i are not built: no caller reads
    them, and each would invert an n x 2n matrix.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if q.is_zero():
        raise ValueError("q must be invertible")
    a_labels = [f"a{i}" for i in range(n)]
    x_labels = [f"x{i}" for i in range(n)]
    a_space = BasisSpace(a_labels)
    x_space = BasisSpace(x_labels)
    ambient = a_space.union(x_space)

    def comp(i: int) -> List[Tuple[int, int]]:
        return [(j, i - j) for j in range(i + 1)]

    powers = [q ** k for k in range(n)]

    delta_star_table: Dict[str, Tensor] = {}
    delta_table: Dict[str, Tensor] = {}
    deltahat_table: Dict[str, Tensor] = {}
    deltahat_d_table: Dict[str, Tensor] = {}
    for i in range(n):
        delta_a: Tensor = {(f"a{j}", f"a{k}"): ONE for j, k in comp(i)}
        delta_star_table[f"a{i}"] = dict(delta_a)
        delta_star_table[f"x{i}"] = {
            (f"x{j}", f"x{k}"): ONE for j, k in comp(i)
        }
        delta_table[f"a{i}"] = dict(delta_a)
        delta_table[f"x{i}"] = {(f"a{j}", f"x{k}"): ONE for j, k in comp(i)}
        deltahat_table[f"a{i}"] = dict(delta_a)
        hat_x: Tensor = {
            (f"x{j}", f"a{k}"): powers[k] for j, k in comp(i)
        }
        deltahat_table[f"x{i}"] = dict(hat_x)
        deltahat_d_table[f"x{i}"] = dict(hat_x)

    return LStructure(
        ambient,
        {
            "Delta_star": MultiLinearMap(ambient, 2, delta_star_table),
            "delta": MultiLinearMap(ambient, 2, delta_table),
            "deltahat": MultiLinearMap(ambient, 2, deltahat_table),
            "deltahat_d": MultiLinearMap(ambient, 2, deltahat_d_table),
        },
        counits={
            "eps": {"a0": ONE},
        },
    )


def self_tiling_dendriform(
    c1_structure: LStructure,
    delta_name: str,
    channel: ChannelMap,
) -> Tuple[LStructure, AxiomReport]:
    """The dendriform pair of the self-tiling: delta_d is the usual bridge,
    deltahat_d vanishes on C1 and is the hat transport on C2.  Verifies the
    dendriform axioms and that the two bridge supports tile the support of
    their sum (empty intersection)."""
    entangled = self_entangle(c1_structure, delta_name, channel)
    s = entangled.structure
    ambient = s.space
    delta_d = s.coproduct("delta1")
    deltahat1 = s.coproduct("deltahat1")
    deltahat_d = MultiLinearMap(
        ambient,
        2,
        {w: deltahat1.of_label(w) for w in entangled.c2.labels},
    )
    out = LStructure(
        ambient,
        {
            "delta_d": delta_d,
            "deltahat_d": deltahat_d,
            "Delta_bar": delta_d.add(deltahat_d),
        },
    )
    report = check_axiom(
        out, "dendriform_coalgebra", {"delta": "delta_d", "deltahat": "deltahat_d"}
    )
    # Tiling: the two bridge supports must not share an arrow.
    support_d = {
        term for lab in ambient.labels for term in delta_d.of_label(lab)
    }
    support_hat = {
        term for lab in ambient.labels for term in deltahat_d.of_label(lab)
    }
    shared = support_d & support_hat
    if shared:
        for (a, b) in sorted(shared):
            report.witnesses.append((a, f"tiling_overlap:{a}->{b}", {}, {}))
    return out, report


def ito_pair(
    s: LStructure,
    right: Tuple[str, str],
    left: Tuple[str, str],
) -> Tuple[MultiLinearMap, MultiLinearMap, AxiomReport]:
    """d_right = Delta - delta and d_left = Delta' - deltahat, with the
    exchange identity (d_left x id) d_right = (id x d_right) d_left
    verified exactly."""
    delta_r_name, bridge_r = right
    delta_l_name, bridge_l = left
    d_right = s.coproduct(delta_r_name).sub(s.coproduct(bridge_r))
    d_left = s.coproduct(delta_l_name).sub(s.coproduct(bridge_l))
    probe = LStructure(s.space, {"d_right": d_right, "d_left": d_left})
    report = AxiomReport(axiom="ito_pair")
    sub = check_axiom(
        probe, "entanglement", {"Deltatilde": "d_left", "Delta": "d_right"}
    )
    for label, _, lhs, rhs in sub.witnesses:
        report.witnesses.append((label, "exchange", lhs, rhs))
    return d_right, d_left, report


def _ito_terms(
    algebra: FiniteAlgebra, d: MultiLinearMap, action: MultiLinearMap,
    labels: Sequence[str], report: AxiomReport,
) -> Iterator[Tuple[str, str, Tensor, Tensor, Tensor]]:
    """The Ito identity d(xy) = d(x)d(y) + d(x)a(y) + a(x)d(y), products
    componentwise on the legs: a witness on ``report`` unless d(1) = 0,
    then (x, y, d(xy), d(x)d(y), d(x)a(y) + a(x)d(y)) for each pair of
    ``labels``."""
    d_unit = d.of_vector(algebra.unit)
    if d_unit:
        report.witnesses.append(("1", "unit_annihilation", d_unit, {}))
    for x in labels:
        dx, ax = d.of_label(x), action.of_label(x)
        for y in labels:
            dy, ay = d.of_label(y), action.of_label(y)
            yield (x, y, d.of_vector(algebra.mul_labels(x, y)), algebra.mul_tensors(dx, dy),
                   tensor_add(algebra.mul_tensors(dx, ay), algebra.mul_tensors(ax, dy)))


def check_ito_derivative(
    algebra: FiniteAlgebra,
    d: MultiLinearMap,
    action: MultiLinearMap,
) -> AxiomReport:
    """d is an Ito derivative for the bimodule actions induced by the
    given coproduct: d(1) = 0 and, on every basis pair,

        d(xy) = d(x) d(y) + d(x) action(y) + action(x) d(y)

    with componentwise multiplication on tensor legs."""
    report = AxiomReport(axiom="ito_derivative")
    for x, y, d_xy, dd, mixed in _ito_terms(algebra, d, action, algebra.space.labels,
                                            report):
        rhs = tensor_add(dd, mixed)
        if d_xy != rhs:
            report.witnesses.append((f"{x},{y}", "derivation", d_xy, rhs))
    return report


def leibniz_coderivative(e: EntangledStructure) -> Tuple[Dict[str, Vector], AxiomReport]:
    """D_I = Phi - id on C1, with the coderivative identity verified and,
    when the ambient structure carries an algebra, the D_I(1)=0 and Ito
    sub-checks reported (witnesses, never raised): the Ito identity with
    the identity as the action, D(ab) - D(a)D(b) against aD(b) + D(a)b."""
    report = AxiomReport(axiom="leibniz_coderivative")
    table = {v: tensor_sub(e.channel.forward[v], unit_vector(v)) for v in e.c1.labels}
    # (delta1 + deltahat1) D = (D x id + id x D) Delta_star over C1, where
    # Delta_star is Delta1
    s = e.structure
    memo = {name: s.coproduct(name) for name in ("delta1", "deltahat1", "Delta_star")}
    d = memo["D"] = _linear(s.space, table)
    identity = ("coderivative",
                _side("D", ("delta1", 1)) + _side("D", ("deltahat1", 1)),
                _side("Delta_star", ("D", 1)) + _side("Delta_star", ("D", 2)))
    for label, lhs, rhs in _expand(identity, memo, e.c1.labels):
        if lhs != rhs:
            report.witnesses.append((label, "coderivative", lhs, rhs))

    if s.algebra is not None:
        ident = _linear(s.space, {lab: unit_vector(lab) for lab in s.space.labels})
        for a, b, d_ab, dd, mixed in _ito_terms(s.algebra, d, ident, e.c1.labels, report):
            lhs = tensor_sub(d_ab, dd)
            if lhs != mixed:
                report.witnesses.append((f"{a}*{b}", "ito_property", lhs, mixed))
    return table, report


def generated_subcoalgebra(s: LStructure, name: str, label: str) -> List[str]:
    """Labels of the sub-coalgebra generated by one basis label."""
    cp = s.coproduct(name)
    seen = {label}
    frontier = [label]
    while frontier:
        lab = frontier.pop()
        for term in cp.of_label(lab):
            for out in term:
                if out not in seen:
                    seen.add(out)
                    frontier.append(out)
    return sorted(seen)
