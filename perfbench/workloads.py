"""The four workloads: seeded inputs, one cycle of operations each, and the
known answer of every operation.

``build(name, seed, workdir)`` writes the workload's documents under
``workdir`` and returns its cycle.  The cycle has the same operation mix
for every seed; the seed picks the values of q, the units, the channel
exponents and the graphs, and the worker shuffles the cycle with it.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import oracle

WORKLOADS = ("verify", "complex", "laws", "build")


@dataclass
class Op:
    """One operation: a ``cli.main(argv)`` call, or a library call
    ``module.function(*args)`` when ``argv`` is None."""

    name: str
    argv: Optional[List[str]] = None
    call: Optional[Tuple[str, str, tuple]] = None
    code: int = 0
    # Known answer: returns None when the output is right, else a reason.
    expect: Callable[[str], Optional[str]] = lambda out: None


def run_cli(argv: Sequence[str]) -> Tuple[int, str]:
    """One in-process ``lcoalg`` command; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["lcoalg.cli"].main(list(argv))
    return code, out.getvalue()


def render(result) -> str:
    """Text of a library result, for the known-answer check and the digest."""
    if hasattr(result, "witnesses"):
        return "\n".join(
            [f"check\t{result.axiom}\t{result.verdict}\t{len(result.witnesses)}"]
            + [f"witness\t{result.axiom}\t{eq}\t{lab}"
               for lab, eq, _, _ in result.witnesses]
        ) + "\n"
    # structure_constants: the bracket table, as ``lcoalg bracket`` prints it
    lines = []
    for (i, j) in sorted(result):
        value = result[(i, j)]
        rendered = " + ".join(f"({value[k]}) {k}*" for k in sorted(value)) or "0"
        lines.append(f"bracket\t{i}*\t{j}*\t{rendered}")
    return "\n".join(lines) + "\n"


# -- known-answer checks ----------------------------------------------------


def same_lines(expected: List[str]) -> Callable[[str], Optional[str]]:
    def check(out: str) -> Optional[str]:
        got = oracle.verdict_lines(out)
        return None if got == expected else f"verdict lines {got!r}"
    return check


def same_text(expected: str) -> Callable[[str], Optional[str]]:
    return lambda out: None if out == expected else "output differs"


def has_entries(wanted: dict) -> Callable[[str], Optional[str]]:
    """``wanted`` maps a declaration header to {label: right-hand side};
    None as the value only requires the declaration."""
    def check(out: str) -> Optional[str]:
        got = oracle.blocks(out)
        for header, rows in wanted.items():
            if header not in got:
                return f"missing {header!r}"
            for lab, rhs in (rows or {}).items():
                if got[header].get(lab) != rhs:
                    return f"{header}: {lab} -> {got[header].get(lab)!r}"
        return None
    return check


# -- seeded values ----------------------------------------------------------


def rational_q(rng: random.Random) -> str:
    """A seeded rational value of q other than 0 and +-1, as text."""
    while True:
        p, r = rng.randint(2, 9), rng.randint(2, 9)
        if p != r and p % r and r % p:
            return f"{rng.choice(('', '-'))}{p}/{r}"


def random_graph(rng: random.Random, vertices: int) -> List[Tuple[str, str]]:
    """A connected simple graph: a random tree plus about half as many
    extra edges."""
    names = [f"v{i}" for i in range(vertices)]
    rng.shuffle(names)
    edges = {tuple(sorted((names[i], names[rng.randrange(i)])))
             for i in range(1, vertices)}
    while len(edges) < vertices - 1 + vertices // 2:
        u, v = rng.sample(names, 2)
        edges.add(tuple(sorted((u, v))))
    return sorted(edges)


class _Docs:
    """Writes the workload's documents into one directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def fixture(self, name: str, argv: List[str], expected: Optional[str] = None,
                extra: str = "") -> str:
        """Generate a document with ``lcoalg fixtures``."""
        code, text = run_cli(["fixtures"] + argv)
        if code != 0 or (expected is not None and text != expected):
            raise RuntimeError(f"lcoalg fixtures {argv} gave a wrong document")
        return self.write(name, text + extra)


# -- verify -----------------------------------------------------------------

CIBILS_CHECK_N = (4, 6, 8, 10, 12)
DEBRUIJN_CHECK_N = (3, 4, 5, 6, 7, 8)


def _verify(seed: int, docs: _Docs) -> List[Op]:
    rng = random.Random(seed)
    ops: List[Op] = []
    for n in CIBILS_CHECK_N:
        for q_text in ("q", rational_q(rng)):
            path = docs.fixture(f"cibils{n}_{len(ops)}.doc",
                                ["cibils", "--n", str(n), f"--q={q_text}"],
                                oracle.cibils_document(n, q_text))
            tag = f"check cibils n={n} q={q_text}"
            for axiom, bind in (
                ("codialgebra", "delta=delta,deltahat=deltahat"),
                ("dendriform_coalgebra", "delta=delta,deltahat=deltahat_d"),
            ):
                ops.append(Op(f"{tag} {axiom}",
                              ["check", path, "--axiom", axiom, "--bind", bind],
                              expect=same_lines(oracle.check_lines(axiom))))
            axiom = "L_cocommutative"
            if q_text == "q":
                # known to fail on every x label
                witnesses = [("cocommutative", f"x{i}") for i in range(n)]
                bind, code = "Delta=delta,Deltatilde=delta", 1
            else:
                witnesses, bind, code = [], "Delta=Delta_star,Deltatilde=Delta_star", 0
            ops.append(Op(f"{tag} {axiom} {bind}",
                          ["check", path, "--axiom", axiom, "--bind", bind], code=code,
                          expect=same_lines(oracle.check_lines(axiom, witnesses))))
    for n in DEBRUIJN_CHECK_N:
        path = docs.fixture(f"debruijn{n}.doc", ["debruijn", "--n", str(n)],
                            oracle.debruijn_document(n))
        labels = [f"x{i}" for i in range(1, n + 1)]
        cases = [
            ("codialgebra", "delta=DeltatildeM,deltahat=DeltaM", []),
            ("L_cocommutative", "Delta=DeltaM,Deltatilde=DeltatildeM", []),
        ]
        if n % 2 == 0:
            cases.append(("codialgebra", "delta=DeltaM,deltahat=DeltatildeM",
                          [(eq, lab) for eq in ("codialg2", "codialg3", "codialg4")
                           for lab in labels]))
        else:
            cases.append(("L_cocommutative", "Delta=DeltaM,Deltatilde=DeltaM",
                          [("cocommutative", lab) for lab in labels]))
        for axiom, bind, witnesses in cases:
            ops.append(Op(f"check debruijn n={n} {axiom} {bind}",
                          ["check", path, "--axiom", axiom, "--bind", bind],
                          code=1 if witnesses else 0,
                          expect=same_lines(oracle.check_lines(axiom, witnesses))))
    return ops


# -- complex ----------------------------------------------------------------

# (order, max degree, form); every group complex appears in all three forms
GROUP_COMPLEXES = tuple(
    (n, degree, form)
    for n, degree in ((2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 4), (4, 3))
    for form in ("primary", "prime", "alternative")
    if (n, degree, form) != (4, 3, "prime")
)
CIBILS_COMPLEXES = ((2, "primary"), (2, "prime"), (3, "primary"), (3, "prime"),
                    (3, "alternative"))


def _complex(seed: int, docs: _Docs) -> List[Op]:
    rng = random.Random(seed)
    ops: List[Op] = []
    paths = {n: docs.fixture(f"group{n}.doc", ["group", "--n", str(n)],
                             oracle.group_document(n))
             for n in sorted({n for n, _, _ in GROUP_COMPLEXES})}
    for n, degree, form in GROUP_COMPLEXES:
        unit = f"g{rng.randrange(n)}"
        ops.append(Op(f"complex group n={n} unit={unit} degree={degree} {form}",
                      ["complex", paths[n], "--unit", unit,
                       "--max-degree", str(degree), "--form", form],
                      expect=same_lines(oracle.complex_lines(form))))
    q_text = rational_q(rng) if rng.random() < 0.5 else "q"
    cibils = docs.fixture("cibils2.doc", ["cibils", "--n", "2", f"--q={q_text}"],
                          oracle.cibils_document(2, q_text))
    for degree, form in CIBILS_COMPLEXES:
        ops.append(Op(f"complex cibils n=2 q={q_text} degree={degree} {form}",
                      ["complex", cibils, "--coproduct", "Delta_star", "--unit", "a0",
                       "--max-degree", str(degree), "--form", form],
                      expect=same_lines(oracle.complex_lines(form))))
    f_doc = docs.fixture("F.doc", ["F"])
    ops.append(Op("complex F unit=b", ["complex", f_doc, "--space", "F", "--unit", "b"],
                  code=1, expect=same_lines(oracle.complex_lines("primary", "b"))))
    return ops


# -- laws -------------------------------------------------------------------

F_SUITES = ("check_dialgebra_laws", "check_trialgebra_laws", "check_leibniz",
            "check_poisson", "check_dendriform_algebra")


def _laws(seed: int, docs: _Docs) -> List[Op]:
    rng = random.Random(seed)
    dsl = sys.modules["lcoalg.dsl"]
    constructions = sys.modules["lcoalg.constructions"]
    ops: List[Op] = []
    passes = lambda axiom: same_text("\n".join(oracle.check_lines(axiom)) + "\n")
    for n, rationals in ((2, 1), (3, 3), (4, 0)):
        for q_text in ["q"] + [rational_q(rng) for _ in range(rationals)]:
            path = docs.fixture(f"cibils{n}_{len(ops)}.doc",
                                ["cibils", "--n", str(n), f"--q={q_text}"],
                                oracle.cibils_document(n, q_text),
                                extra=oracle.delta_bar_block(n, q_text))
            with open(path, encoding="utf-8") as handle:
                s = dsl.parse_document(handle.read()).structure("E")
            tag = f"cibils n={n} q={q_text}"
            ops.append(Op(f"dialgebra {tag}", call=(
                "lcoalg.convolution", "check_dialgebra_laws", (s, "deltahat", "delta")),
                expect=passes("dialgebra")))
            ops.append(Op(f"dendriform {tag}", call=(
                "lcoalg.convolution", "check_dendriform_algebra",
                (s, "deltahat_d", "Delta_bar")),
                expect=passes("dendriform_algebra")))
    path = docs.fixture("F.doc", ["F"])
    with open(path, encoding="utf-8") as handle:
        doc = dsl.parse_document(handle.read())
    entangled = constructions.self_entangle(
        doc.structure("F"), "Delta", doc.channel("Phi"), eps_name="eps")
    s = entangled.structure
    for suite in F_SUITES:
        axiom = suite[len("check_"):].replace("_laws", "")
        ops.append(Op(f"{suite} F", call=("lcoalg.convolution", suite, (s,)),
                      expect=passes(axiom)))
    ops.append(Op("check_bar_unit F", call=(
        "lcoalg.convolution", "check_bar_unit", (s, entangled.counits["eps_star"])),
        expect=passes("bar_unit")))
    labels = s.space.labels
    ops.append(Op("structure_constants F", call=(
        "lcoalg.convolution", "structure_constants", (s, labels, labels)),
        expect=lambda out: None if oracle.f_brackets_ok(out) else "bracket table"))
    return ops


# -- build ------------------------------------------------------------------

CIBILS_FIXTURE_N = (8, 12, 16, 20, 24)
GROUP_FIXTURE_N = 4
DIAGONAL_N = (5, 7)
GRAPH_V = (15, 25, 35)


def diagonal_exponents(rng: random.Random, n: int) -> List[int]:
    """n seeded exponents in 2..50 whose sum is always 26 n: pairs k and
    52 - k, and 26 for an odd one out.  The cost of a diagonal document
    grows with the exponents, so a fixed sum keeps it the same for every
    seed while the seed still picks the values and their order."""
    exponents = [26] * (n % 2)
    for _ in range(n // 2):
        k = rng.randint(2, 50)
        exponents += [k, 52 - k]
    rng.shuffle(exponents)
    return exponents


def _build(seed: int, docs: _Docs) -> List[Op]:
    rng = random.Random(seed)
    ops: List[Op] = []
    for i, n in enumerate(CIBILS_FIXTURE_N):
        q_text = "q" if i % 2 else rational_q(rng)
        ops.append(Op(f"fixtures cibils n={n} q={q_text}",
                      ["fixtures", "cibils", "--n", str(n), f"--q={q_text}"],
                      expect=same_text(oracle.cibils_document(n, q_text))))
    n = rng.randint(3, 8)
    ops.append(Op(f"fixtures debruijn n={n}", ["fixtures", "debruijn", "--n", str(n)],
                  expect=same_text(oracle.debruijn_document(n))))
    # The group document's size is fixed: its cost grows with n^3, so a
    # seeded n would move the workload's median from seed to seed.
    n = GROUP_FIXTURE_N
    ops.append(Op(f"fixtures group n={n}", ["fixtures", "group", "--n", str(n)],
                  expect=same_text(oracle.group_document(n))))
    comatrix = {"coproduct Delta on F": oracle.COMATRIX,
                "counit eps on F": {"a": "1", "d": "1"}}
    ops.append(Op("fixtures F", ["fixtures", "F"], expect=has_entries(comatrix)))
    ops.append(Op("fixtures slq2", ["fixtures", "slq2"], expect=has_entries({
        "coproduct Delta on C1": oracle.COMATRIX,
        "channel M : C1 -> C2": {"a": "y", "b": "x", "c": "u", "d": "z"}})))
    ops.append(Op("fixtures su2q-coalg", ["fixtures", "su2q-coalg"], expect=has_entries({
        "coproduct Delta1 on C1": oracle.QUANTUM_SPHERE,
        "channel M : C1 -> C2": None})))

    f_doc = docs.fixture("F.doc", ["F"])
    self_f = ["entangle", f_doc, "--space", "F", "--kind", "self", "--coproduct",
              "Delta", "--channel", "Phi", "--counit", "eps", "--out-space", "E"]
    ops.append(Op("entangle self F", self_f, expect=has_entries({
        "coproduct delta1 on E": {"x": "<a, x> + <b, z>"},
        "coproduct deltahat1 on E": {"x": "<x, a> + <y, c>"},
        "coproduct Delta_star on E": None, "coproduct delta2 on E": None,
        "coproduct deltahat2 on E": None})))
    sphere = docs.fixture("S.doc", ["su2q-coalg"])
    achiral_names = ("Delta_star", "delta1", "deltatilde2", "deltatildehat2",
                     "Delta_star_plain", "Deltatilde_star")
    ops.append(Op("entangle achiral su2q-coalg", [
        "entangle", sphere, "--space", "C1", "--kind", "achiral", "--coproduct",
        "Delta1", "--cotilde", "Deltatilde1", "--channel", "M", "--out-space", "E"],
        expect=has_entries({f"coproduct {c} on E": None for c in achiral_names})))
    bad = docs.fixture("F_fixed.doc", ["F"], extra=(
        "\nchannel Bad : F -> F:\n  a -> a\n  b -> b\n  c -> c\n  d -> d\n"))
    ops.append(Op("entangle refuses fixed points", [
        "entangle", bad, "--space", "F", "--kind", "self", "--coproduct", "Delta",
        "--channel", "Bad"], code=1,
        expect=lambda out: None if out.startswith("check\tconstruction\tfail\t")
        else "no failed construction line"))
    code, text = run_cli(self_f)
    if code != 0:
        raise RuntimeError("entangling F failed during set-up")
    ops.append(Op("bracket F entangled", ["bracket", docs.write("E.doc", text)],
                  expect=lambda out: None if oracle.f_brackets_ok(out) else "table"))

    for n in DIAGONAL_N:
        exponents = diagonal_exponents(rng, n)
        doc = docs.fixture(f"diag{n}.doc", ["group", "--n", str(n)],
                           oracle.group_document(n),
                           extra=oracle.diagonal_channel_block(exponents))
        tag = f"n={n} k={','.join(map(str, exponents))}"
        loops = {f"h{i}": f"{oracle.scalar_text(k)} * <h{i}, h{i}>"
                 for i, k in enumerate(exponents)}
        argv = ["entangle", doc, "--space", "G", "--coproduct", "Delta",
                "--channel", "Phi", "--out-space", "E"]
        ops.append(Op(f"entangle self diagonal {tag}", argv + ["--counit", "eps"],
                      expect=has_entries({
            "coproduct Delta_star on E": loops,
            "coproduct delta1 on E": {f"h{i}": f"<g{i}, h{i}>" for i in range(n)},
            "coproduct deltahat1 on E": {f"h{i}": f"<h{i}, g{i}>" for i in range(n)},
        })))
        ops.append(Op(f"entangle achiral diagonal {tag}",
                      argv + ["--kind", "achiral", "--cotilde", "Deltatilde"],
                      expect=has_entries({"coproduct Delta_star on E": loops})))
        code, text = run_cli(argv + ["--counit", "eps"])
        if code != 0:
            raise RuntimeError("diagonal entanglement failed during set-up")
        e_doc = docs.write(f"diag{n}_E.doc", text)
        labels = [f"{c}{i}" for c in "gh" for i in range(n)]
        zero = "".join(f"bracket\t{u}*\t{v}*\t0\n"
                       for u, v in sorted((u, v) for u in labels for v in labels))
        ops.append(Op(f"bracket diagonal {tag}", ["bracket", e_doc],
                      expect=same_text(zero)))
        ops.append(Op(f"support diagonal {tag}",
                      ["support", e_doc, "--coproducts", "Delta_star", "--dot"],
                      expect=same_text(oracle.diagonal_support_dot(exponents))))

    for vertices in GRAPH_V:
        edges = random_graph(rng, vertices)
        path = docs.write(f"graph{vertices}.edges",
                          "".join(f"{u} -- {v}\n" for u, v in edges))
        ops.append(Op(f"embed V={vertices} E={len(edges)}", ["embed", "--edges", path],
                      expect=same_text(oracle.embed_output(vertices, len(edges)))))

    antipode = sys.modules["lcoalg.fixtures"].fixture_quantum_matrix()["antipode"]
    ops.append(Op("check_l_hopf slq2", call=(
        "lcoalg.ncpoly", "check_l_hopf", (antipode, list("abcdxyzu"))),
        expect=same_text("check\tl_hopf\tpass\t0\n")))
    return ops


_CYCLES = {"verify": _verify, "complex": _complex, "laws": _laws, "build": _build}


def build(name: str, seed: int, workdir: str) -> List[Op]:
    return _CYCLES[name](seed, _Docs(workdir))
