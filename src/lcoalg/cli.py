"""Command-line front end: parse structure documents, run axiom checks and
constructions, print deterministic machine-readable reports.

Exit codes: 0 all checks pass, 1 a check failed (witnesses printed),
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Collection, Dict, Optional, Sequence, Set, Tuple

from .coalgebra import AXIOMS, AxiomReport, LStructure, check_axiom
from .complexes import check_boundary_forms_agree, check_complex
from .constructions import achiral_entangle, self_entangle
from .convolution import structure_constants
from .dsl import (
    SpecDocument,
    document_from_structure,
    parse_document,
    unparse_document,
)
from .fixtures import (
    fixture_cibils,
    fixture_debruijn,
    fixture_f,
    fixture_group,
    fixture_petersen,
    fixture_quantum_sphere,
    fixture_slq2,
)
from .graphs import (
    covering_check,
    dot_export,
    geometric_support,
    natural_lift,
    parse_undirected_edges,
)
from .scalars import (
    MAX_MONOMIAL_POWER,
    Scalar,
    _power_limit,
    parse_scalar,
)

FIXTURE_NAMES = (
    "F",
    "slq2",
    "su2q-coalg",
    "cibils",
    "debruijn",
    "petersen",
    "group",
)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _open_structure(args, coproducts: Collection[str]
                    ) -> Tuple[SpecDocument, str, LStructure]:
    """The document ``args.file``, the space that ``args.space`` picks in it,
    and the structure on that space with only the coproducts named in
    ``coproducts``: the ones the command reads."""
    with open(args.file, "r", encoding="utf-8") as handle:
        doc = parse_document(handle.read())
    space = _pick_space(doc, args.space)
    return doc, space, doc.structure(space, coproducts)


def _pick_space(doc: SpecDocument, requested: Optional[str]) -> str:
    """The space to work in.  Its errors are about the arguments, not a
    place in the document, so they carry no source position."""
    if not doc.spaces:
        raise ValueError("document declares no space")
    declared = " | ".join(sorted(doc.spaces))
    if requested is not None:
        if requested not in doc.spaces:
            raise ValueError(f"unknown space {requested!r} (expected {declared})")
        return requested
    if len(doc.spaces) == 1:
        return next(iter(doc.spaces))
    raise ValueError(
        f"document declares several spaces; pass --space (expected {declared})"
    )


def print_report(report: AxiomReport) -> None:
    print(f"check\t{report.axiom}\t{report.verdict}\t{len(report.witnesses)}")
    for label, eq, _, _ in report.witnesses:
        print(f"witness\t{report.axiom}\t{eq}\t{label}")
    for note in report.notes:
        print(f"note\t{report.axiom}\t{note}")


def _positive_int(text: str) -> int:
    """An argparse type: a vacuous range (degree 0 or below) is a usage
    error, not a check that passes."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _bound_names(raw: Sequence[str]) -> Set[str]:
    """The names that the --bind arguments give, read without any check:
    the coproducts a check may read.  The structure is built from them
    before ``_parse_bindings`` refuses a binding, so an algebra error comes
    first."""
    return {piece.partition("=")[2].strip() for item in raw for piece in item.split(",")}


def _parse_bindings(raw: Sequence[str], roles: Sequence[str]) -> Dict[str, str]:
    """The role -> name bindings of the --bind arguments; a role bound twice
    or outside ``roles`` is refused, so a check is about what was named."""
    bindings: Dict[str, str] = {}
    for item in raw:
        for piece in item.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "=" not in piece:
                raise ValueError(f"binding {piece!r} is not of the form role=name")
            role, name = (part.strip() for part in piece.split("=", 1))
            if role in bindings:
                raise ValueError(f"role {role!r} is bound twice")
            if role not in roles:
                raise ValueError(
                    f"unknown role {role!r} (expected {' | '.join(roles)})")
            bindings[role] = name
    return bindings


# -- subcommands -----------------------------------------------------------


def cmd_check(args) -> int:
    _, _, structure = _open_structure(args, _bound_names(args.bind or []))
    bindings = _parse_bindings(args.bind or [], AXIOMS[args.axiom]["roles"])
    report = check_axiom(structure, args.axiom, bindings)
    print_report(report)
    return 0 if report.passed else 1


def cmd_support(args) -> int:
    names = [n.strip() for n in args.coproducts.split(",") if n.strip()]
    _, space, structure = _open_structure(args, names)
    if not names:
        raise ValueError("--coproducts names no coproduct")
    graph = geometric_support(structure, names)
    if args.dot:
        sys.stdout.write(dot_export(graph, name=space))
    else:
        for (s, t) in sorted(graph.arrows):
            print(f"arrow\t{s}\t{t}\t{graph.arrows[(s, t)]}")
    return 0


def cmd_entangle(args) -> int:
    names = [args.coproduct] + ([args.cotilde] if args.kind == "achiral" else [])
    doc, _, structure = _open_structure(args, names)
    channel = doc.channel(args.channel)
    unread = {"self": ("cotilde", "transport"), "achiral": ("counit",)}[args.kind]
    for option in unread:
        if getattr(args, option) is not None:
            raise ValueError(f"--kind {args.kind} does not read --{option}")
    if args.kind == "achiral" and not args.cotilde:
        raise ValueError("--kind achiral needs --cotilde NAME")
    transport = "Delta" if args.transport is None else args.transport
    if transport not in ("Delta", "Deltatilde"):
        raise ValueError(f"--transport {transport!r} is neither Delta nor Deltatilde")
    try:
        if args.kind == "self":
            entangled = self_entangle(
                structure, args.coproduct, channel, eps_name=args.counit
            )
        else:
            entangled = achiral_entangle(
                structure,
                args.coproduct,
                args.cotilde,
                channel,
                transported=transport,
            )
    except ValueError as exc:
        # A construction that refuses its input is a failed check, not a
        # usage error: the message carries the witnesses.
        print(f"check\tconstruction\tfail\t{exc}")
        return 1
    out_doc = document_from_structure(args.out_space, entangled.structure)
    sys.stdout.write(unparse_document(out_doc))
    return 0


def cmd_bracket(args) -> int:
    _, _, structure = _open_structure(args, (args.left, args.right))
    labels = structure.space.labels
    table = structure_constants(
        structure, labels, labels, left_name=args.left, right_name=args.right
    )
    for (i, j) in sorted(table):
        value = table[(i, j)]
        if not value:
            rendered = "0"
        else:
            rendered = " + ".join(
                f"({value[k]}) {k}*" for k in sorted(value)
            )
        print(f"bracket\t{i}*\t{j}*\t{rendered}")
    return 0


# A complex whose coproduct is not coassociative is witnessed on every basis
# tensor up to --max-degree, so time and memory grow with their number.
MAX_COMPLEX_TENSORS = 20_000


def _check_complex_size(dim: int, max_degree: int) -> None:
    """Refuse a --max-degree whose basis tensors, summed over the degrees
    1..max_degree, outnumber MAX_COMPLEX_TENSORS.  The sum stops at the
    first degree past the bound, so a huge degree costs nothing here."""
    total, count = 0, 1
    for degree in range(1, max_degree + 1):
        count *= dim
        total += count
        if total > MAX_COMPLEX_TENSORS:
            raise ValueError(
                f"--max-degree {max_degree} would check more than "
                f"{MAX_COMPLEX_TENSORS} basis tensors "
                f"(already {total} up to degree {degree} on {dim} labels)"
            )


def cmd_complex(args) -> int:
    _, _, structure = _open_structure(args, (args.coproduct,))
    _check_complex_size(structure.space.dim, args.max_degree)
    report = check_complex(
        structure, args.coproduct, args.unit,
        max_degree=args.max_degree, form=args.form,
    )
    print_report(report)
    agree = check_boundary_forms_agree(
        structure, args.coproduct, args.unit, max_degree=args.max_degree
    )
    print_report(agree)
    return 0 if report.passed and agree.passed else 1


def cmd_embed(args) -> int:
    with open(args.edges, "r", encoding="utf-8") as handle:
        graph = parse_undirected_edges(handle.read())
    digraph, structure, family = natural_lift(graph)
    loops = sum(1 for (s, t) in digraph.arrows if s == t)
    print(f"lift\tvertices\t{len(digraph.vertices)}")
    print(f"lift\tloops\t{loops}")
    print(f"lift\tarrows\t{len(digraph.arrows) - loops}")
    print(f"lift\tbridges\t{len(family) - 1}")
    report = covering_check(digraph, structure, family)
    print_report(report)
    return 0 if report.passed else 1


def _check_cibils_work(n: int, q_text: str, q: Scalar) -> None:
    """Refuse a cibils document whose powers of q would cost too much.  It
    holds about n^2 coefficients q^k with k < n, and q^k costs about k times
    the size of q (the scalar reader's measure) when q is a monomial, the
    square of that otherwise; a whole run at either budget below takes
    about 0.2 s."""
    size, limit = _power_limit(q)
    if limit == MAX_MONOMIAL_POWER:
        work, budget = n * n * (n - 1) * size, 12_000_000
    else:
        work, budget = (n * (n - 1) * size) ** 2, 15_000_000
    if n > 0 and work > budget:
        raise ValueError(
            f"fixtures cibils --n {n} --q={q_text} costs {work}, over the limit of {budget}"
        )


# name -> (fixture, space, channel target space, channel): each of these
# documents is the fixture's structure, the target space and the channel.
# A fixture is looked up by name when called, so that a tracer's wrapper runs.
_CHANNEL_FIXTURES = {
    "F": (lambda: fixture_f(), "F", "F2", "Phi"),
    "slq2": (lambda: fixture_slq2(), "C1", "C2", "M"),
    "su2q-coalg": (lambda: fixture_quantum_sphere(), "C1", "C2", "M"),
}


def _fixture_document(name: str, n: int, q_text: str) -> str:
    if name in _CHANNEL_FIXTURES:
        make, space, target, channel_name = _CHANNEL_FIXTURES[name]
        data = make()
        channel = data["channel"]
        doc = document_from_structure(space, data["structure"])
        doc.spaces[target] = channel.c2.labels
        doc.channels[channel_name] = (space, target, dict(channel.forward))
        return unparse_document(doc)
    if name == "cibils":
        q = parse_scalar(q_text)
        _check_cibils_work(n, q_text, q)
        return unparse_document(
            document_from_structure("E", fixture_cibils(n, q))
        )
    if name == "debruijn":
        return unparse_document(
            document_from_structure("G", fixture_debruijn(n))
        )
    if name == "petersen":
        graph = fixture_petersen()
        lines = [f"{u} -- {v}" for (u, v) in sorted(graph.edges)]
        return "\n".join(lines) + "\n"
    if name == "group":
        return unparse_document(
            document_from_structure("G", fixture_group(n))
        )
    raise ValueError(f"unknown fixture {name!r}")


# The largest --n of each parametric fixture: a whole run at its limit takes
# well under a second, and the cost grows as n^2 (debruijn, cibils) or n^3
# (group).
MAX_FIXTURE_N = {"cibils": 150, "debruijn": 300, "group": 50}


def cmd_fixtures(args) -> int:
    if args.name is None:
        for name in FIXTURE_NAMES:
            print(name)
        return 0
    limit = MAX_FIXTURE_N.get(args.name)
    if limit is not None and args.n > limit:
        raise ValueError(f"fixtures {args.name} --n {args.n} exceeds the limit of {limit}")
    sys.stdout.write(_fixture_document(args.name, args.n, args.q))
    return 0


# -- argument parsing ------------------------------------------------------


def build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and the parser of each subcommand by name."""
    parser = argparse.ArgumentParser(
        prog="lcoalg",
        description="Exact checks and constructions for finite-dimensional "
        "coalgebras with several coproducts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify one axiom system on a document")
    p.add_argument("file")
    p.add_argument("--space")
    p.add_argument("--axiom", required=True, choices=sorted(AXIOMS))
    p.add_argument("--bind", action="append", metavar="ROLE=NAME")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("support", help="geometric support of coproducts")
    p.add_argument("file")
    p.add_argument("--space")
    p.add_argument("--coproducts", required=True, metavar="NAME[,NAME...]")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_support)

    p = sub.add_parser("entangle", help="run an entanglement construction")
    p.add_argument("file")
    p.add_argument("--space")
    p.add_argument("--kind", default="self", choices=("self", "achiral"))
    p.add_argument("--coproduct", default="Delta")
    p.add_argument("--cotilde", help="second coproduct for --kind achiral")
    p.add_argument("--channel", default="Phi")
    p.add_argument("--counit")
    p.add_argument("--transport", help="Delta (the default) or Deltatilde, for --kind achiral")
    p.add_argument("--out-space", default="E")
    p.set_defaults(func=cmd_entangle)

    p = sub.add_parser("bracket", help="dual-basis bracket table")
    p.add_argument("file")
    p.add_argument("--space")
    p.add_argument("--left", default="deltahat1")
    p.add_argument("--right", default="delta1")
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("complex", help="verify the boundary complex")
    p.add_argument("file")
    p.add_argument("--space")
    p.add_argument("--coproduct", default="Delta")
    p.add_argument("--unit", required=True)
    p.add_argument("--max-degree", type=_positive_int, default=3)
    p.add_argument("--form", default="primary",
                   choices=("primary", "prime", "alternative"))
    p.set_defaults(func=cmd_complex)

    p = sub.add_parser("embed", help="natural lift and covering check")
    p.add_argument("--edges", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("fixtures", help="emit a built-in fixture document")
    p.add_argument("name", nargs="?", choices=FIXTURE_NAMES)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--q", default="q")
    p.set_defaults(func=cmd_fixtures)

    return parser, sub.choices


@functools.lru_cache(maxsize=None)
def _parsers() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The parsers of this process: every parse makes a fresh namespace,
    so calls of ``main`` share no state through them."""
    return build_parser()


def _parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)`` in one pass when ``argv`` starts with
    a subcommand: only that subcommand's parser runs, on the rest of
    ``argv``, and ``command`` is set as the top-level parser sets it.  An
    error or help text of that parser is printed by it, as in the full
    parse.  No argument, a first argument that is not a subcommand, and an
    argument that the subcommand leaves unrecognised all go to the full
    parse, so its usage errors and help are argparse's own.

    The full parse runs argparse twice, once per level: 50 us on a
    ``complex`` argv with four options, against 27 us in one pass (best of
    7 x 2,000 ``timeit``, Python 3.11.7).  ``complex``: 1,484.3 ops/s
    median with the one pass, 1,357.9 without, 10 of 10 pairs, quartiles
    of the runs with it 1,476.7-1,489.7 and without it 1,339.9-1,368.4;
    p50 0.672 ms with it, 0.739 without."""
    command = _parsers()[1].get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return _parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, KeyError, ValueError) as exc:  # the reader's errors are ValueErrors
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
