"""Known answers for every benchmark operation, derived without lcoalg.

Where each verdict comes from:

* ``check`` on cibils documents.  ``codialgebra`` with (delta, deltahat)
  and ``dendriform_coalgebra`` with (delta, deltahat_d) pass: acceptance
  criterion 06.  ``L_cocommutative`` with Delta = Deltatilde = Delta_star
  passes because every composition j+k=i appears with its mirror k+j.
  With Delta = Deltatilde = delta it fails exactly on x0..x(n-1):
  delta(x_i) has terms a_j @ x_k, its flip has x_k @ a_j, while delta(a_i)
  is symmetric.
* ``check`` on De Bruijn documents.  ``codialgebra`` with
  (delta, deltahat) = (DeltatildeM, DeltaM) and ``L_cocommutative`` with
  (DeltaM, DeltatildeM) pass: ``test_de_bruijn_codialgebra_axioms``.
  With DeltaM x = x @ S and DeltatildeM x = S @ x (S the sum of all labels),
  the swapped codialgebra binding keeps both coassociativities and breaks
  codialg2, codialg3 and codialg4 on every label once n >= 2 (the two sides
  put x in different legs); ``L_cocommutative`` with Delta = Deltatilde =
  DeltaM compares x @ S with S @ x and fails on every label.
* ``complex``.  Group algebras: acceptance criterion 08 (every g_i is
  group-like, so any g_i may serve as the unit).  cibils n=2 with Delta_star
  and unit a0: Delta_star is coassociative (both sides sum over ordered
  triples l+m+k=i) and a0 is group-like, so the cobar boundary squares to
  zero.  The primary and alternative forms agree identically, so the
  ``boundary_forms_agree`` line passes everywhere.  F with unit b fails
  with the single witness b: ``test_complex_non_grouplike_unit``.
* Law suites.  On the self-entangled F the dialgebra, trialgebra, Leibniz,
  Poisson and dendriform suites and the bar unit pass: criteria 02, 04 and
  05.  On cibils the dialgebra laws of (deltahat, delta) dualize the
  codialgebra of criterion 06, and the dendriform laws of
  (deltahat_d, Delta_bar), Delta_bar = delta + deltahat_d, dualize its
  dendriform coalgebra (criterion 06 builds the same Delta_bar).  The
  bracket table of the entangled F is criterion 03.
* ``fixtures``.  cibils, debruijn and group documents are generated here
  from their definitions in the documented canonical format.  F and slq2
  carry the comatrix coproduct of a 2x2 matrix and its counit; su2q-coalg
  carries the quantum-sphere coproduct a -> a@a - q c*@c, c -> c@a + a*@c.
* ``entangle``.  Self-entanglement of a coassociative coalgebra through an
  invertible channel succeeds.  For a group algebra and the diagonal
  channel g_i -> q^k_i h_i the bridges are delta1(h_i) = g_i @ h_i,
  deltahat1(h_i) = h_i @ g_i and Delta_star(h_i) = q^k_i h_i @ h_i.  A
  group algebra is achiral, so achiral entanglement succeeds with the same
  Delta_star.  A channel with fixed points is refused with exit 1:
  ``test_entangle_refusal_is_failed_check``.
* ``bracket`` on the diagonal entanglement: deltahat1 and delta1 pair the
  same two dual functionals on every label, so every bracket is 0.
* ``support --dot`` of Delta_star on the diagonal entanglement: one loop
  per label, weight q^k_i on h_i.
* ``embed``: vertices and loops are the vertex count, arrows and bridges
  are twice the edge count, and the covering passes.
* ``check_l_hopf`` on the slq2 antipode data: criterion 11.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple


def q_power_prefix(q_text: str, k: int) -> str:
    """The canonical coefficient prefix of q^k, as the unparser writes it."""
    if q_text == "q":
        if k == 0:
            return ""
        return "q * " if k == 1 else f"q^{k} * "
    value = Fraction(q_text) ** k
    return "" if value == 1 else f"{value} * "


def _pairs(terms: List[Tuple[str, Tuple[str, str]]]) -> str:
    return " + ".join(f"{c}<{a}, {b}>" for c, (a, b) in sorted(terms, key=lambda t: t[1]))


def _document(spaces, coproducts, counits=(), algebra=None) -> str:
    lines = [f"space {name} = {{ {', '.join(labels)} }}" for name, labels in spaces]
    for name, space, rows in coproducts:
        lines += ["", f"coproduct {name} on {space}:"]
        lines += [f"  {lab} -> {_pairs(terms)}" for lab, terms in rows if terms]
    for name, space, rows in counits:
        lines += ["", f"counit {name} on {space}:"]
        lines += [f"  {lab} -> {value}" for lab, value in rows]
    if algebra is not None:
        name, space, unit, products = algebra
        lines += ["", f"algebra {name} on {space}:", f"  unit -> {unit}"]
        lines += [f"  {a} * {b} -> {c}" for (a, b), c in sorted(products.items())]
    return "\n".join(lines) + "\n"


def cibils_document(n: int, q_text: str) -> str:
    """``lcoalg fixtures cibils --n n --q q_text``."""
    a = [f"a{i}" for i in range(n)]
    x = [f"x{i}" for i in range(n)]
    comps = [[(j, i - j) for j in range(i + 1)] for i in range(n)]

    def rows(a_terms, x_terms):
        return [(a[i], a_terms(i)) for i in range(n)] + [
            (x[i], x_terms(i)) for i in range(n)
        ]

    on_a = lambda i: [("", (a[j], a[k])) for j, k in comps[i]]
    hat_x = lambda i: [(q_power_prefix(q_text, k), (x[j], a[k])) for j, k in comps[i]]
    return _document(
        [("E", a + x)],
        [
            ("Delta_star", "E", rows(on_a, lambda i: [("", (x[j], x[k])) for j, k in comps[i]])),
            ("delta", "E", rows(on_a, lambda i: [("", (a[j], x[k])) for j, k in comps[i]])),
            ("deltahat", "E", rows(on_a, hat_x)),
            ("deltahat_d", "E", rows(lambda i: [], hat_x)),
        ],
        [("eps", "E", [("a0", "1")])],
    )


def delta_bar_block(n: int, q_text: str) -> str:
    """Delta_bar = delta + deltahat_d on a cibils document (criterion 06)."""
    lines = ["", "coproduct Delta_bar on E:"]
    for i in range(n):
        lines.append(f"  a{i} -> " + " + ".join(
            f"<a{j}, a{i - j}>" for j in range(i + 1)))
    for i in range(n):
        terms = [f"<a{j}, x{i - j}>" for j in range(i + 1)]
        terms += [f"({q_text})^{i - j} * <x{j}, a{i - j}>" for j in range(i + 1)]
        lines.append(f"  x{i} -> " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def debruijn_document(n: int) -> str:
    """``lcoalg fixtures debruijn --n n`` (n <= 9 keeps label order numeric)."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    return _document(
        [("G", xs)],
        [
            ("DeltaM", "G", [(x, [("", (x, y)) for y in xs]) for x in xs]),
            ("DeltatildeM", "G", [(x, [("", (y, x)) for y in xs]) for x in xs]),
        ],
    )


def group_document(n: int) -> str:
    """``lcoalg fixtures group --n n`` (n <= 10 keeps label order numeric)."""
    gs = [f"g{i}" for i in range(n)]
    diagonal = [(g, [("", (g, g))]) for g in gs]
    products = {(gs[i], gs[j]): gs[(i + j) % n] for i in range(n) for j in range(n)}
    return _document(
        [("G", gs)],
        [("Delta", "G", diagonal), ("Deltatilde", "G", diagonal)],
        [("eps", "G", [(g, "1") for g in gs])],
        ("A", "G", "g0", products),
    )


def diagonal_channel_block(exponents: Sequence[int]) -> str:
    """A disjoint copy H of a group space and the channel g_i -> q^k_i h_i."""
    n = len(exponents)
    hs = ", ".join(f"h{i}" for i in range(n))
    lines = ["", f"space H = {{ {hs} }}", "", "channel Phi : G -> H:"]
    lines += [f"  g{i} -> q^{k} * h{i}" for i, k in enumerate(exponents)]
    return "\n".join(lines) + "\n"


# -- expected outputs -------------------------------------------------------


def check_lines(axiom: str, witnesses: Sequence[Tuple[str, str]] = ()) -> List[str]:
    """Verdict lines of ``lcoalg check``: witnesses are (equation, label)."""
    verdict = "fail" if witnesses else "pass"
    return [f"check\t{axiom}\t{verdict}\t{len(witnesses)}"] + [
        f"witness\t{axiom}\t{eq}\t{label}" for eq, label in witnesses
    ]


def complex_lines(form: str, grouplike_unit: Optional[str] = None) -> List[str]:
    """Verdict lines of ``lcoalg complex``; ``grouplike_unit`` names a unit
    label that is not group-like."""
    axiom = f"boundary_complex[{form}]"
    if grouplike_unit is None:
        head = check_lines(axiom)
    else:
        head = check_lines(axiom, [("unit_grouplike", grouplike_unit)])
    return head + check_lines("boundary_forms_agree")


def verdict_lines(text: str) -> List[str]:
    return [l for l in text.splitlines() if l.startswith(("check\t", "witness\t"))]


def blocks(text: str) -> Dict[str, Dict[str, str]]:
    """Declaration header -> {left-hand side -> right-hand side}."""
    out: Dict[str, Dict[str, str]] = {}
    current: Optional[Dict[str, str]] = None
    for line in text.splitlines():
        if not line.strip():
            continue
        if not line.startswith(" "):
            current = out.setdefault(line.rstrip(":"), {})
        elif current is not None and "->" in line:
            lhs, rhs = line.split("->", 1)
            current[lhs.strip()] = rhs.strip()
    return out


COMATRIX = {
    "a": "<a, a> + <b, c>",
    "b": "<a, b> + <b, d>",
    "c": "<c, a> + <d, c>",
    "d": "<c, b> + <d, d>",
}

QUANTUM_SPHERE = {
    "a": "<a, a> + -q * <cs, c>",
    "c": "<as, c> + <c, a>",
    "as": "<as, as> + -q * <c, cs>",
    "cs": "<a, cs> + <cs, as>",
}

# Criterion 03: the frozen entries of the bracket table of the entangled F.
F_BRACKETS = {
    ("a*", "b*"): "(1) b*",
    ("b*", "c*"): "(1) a* + (-1) d*",
    ("a*", "x*"): "0",
    ("x*", "a*"): "0",
    ("y*", "c*"): "(-1) u* + (1) x*",  # x* - u*, terms in label order
}
F_C1 = ("a", "b", "c", "d")
F_C2 = ("x", "y", "z", "u")


def bracket_table(text: str) -> Dict[Tuple[str, str], str]:
    table = {}
    for line in text.splitlines():
        kind, i, j, value = line.split("\t")
        if kind != "bracket":
            raise ValueError(line)
        table[(i, j)] = value
    return table


def f_brackets_ok(text: str) -> bool:
    table = bracket_table(text)
    mixed = all(
        table.get((f"{i}*", f"{j}*")) == "0" for i in F_C1 for j in F_C2
    )
    frozen = all(table.get(k) == v for k, v in F_BRACKETS.items())
    return len(table) == 64 and mixed and frozen


def scalar_text(q_power: int) -> str:
    return "q" if q_power == 1 else f"q^{q_power}"


def diagonal_support_dot(exponents: Sequence[int]) -> str:
    n = len(exponents)
    labels = [f"g{i}" for i in range(n)] + [f"h{i}" for i in range(n)]
    lines = ["digraph E {"] + [f'  "{v}";' for v in labels]
    for i in range(n):
        lines.append(f'  "g{i}" -> "g{i}";')
    for i, k in enumerate(exponents):
        lines.append(f'  "h{i}" -> "h{i}" [label="{scalar_text(k)}"];')
    return "\n".join(lines + ["}"]) + "\n"


def embed_output(vertices: int, edges: int) -> str:
    return (
        f"lift\tvertices\t{vertices}\nlift\tloops\t{vertices}\n"
        f"lift\tarrows\t{2 * edges}\nlift\tbridges\t{2 * edges}\n"
        "check\tcoassociative_covering\tpass\t0\n"
    )
