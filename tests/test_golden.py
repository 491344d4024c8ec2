"""Golden transcript: the exit code and the sha256 of stdout and of stderr
of every command-line invocation below, and the sha256 of the emitted
document of each library-only construction, compared with
``golden_cli.tsv``.  The witness matrix adds, per (document, axiom), the
sha256 of every witness that ``check_axiom`` reports, both expansions
included, since ``lcoalg check`` prints only the witness labels.

Everything runs in process.  Regenerate the file with
``PYTHONPATH=src python tests/regenerate_golden.py``, and only when an
output change is intended.
"""

import contextlib
import hashlib
import io
import os
from itertools import islice, product
from pathlib import Path

from lcoalg.cli import main
from lcoalg.coalgebra import AXIOMS, check_axiom
from lcoalg.constructions import (
    ChannelMap,
    de_bruijn_codialgebra,
    markov_entangle_de_bruijn,
    markov_entangle_flower,
    self_tiling_dendriform,
    sum_codipterous,
)
from lcoalg.dsl import document_from_structure, parse_document, unparse_document
from lcoalg.fixtures import (
    fixture_cibils,
    fixture_debruijn,
    fixture_f,
    fixture_f_entangled,
    fixture_group,
    fixture_group_split,
    fixture_quantum_matrix,
    fixture_quantum_sphere,
)
from lcoalg.linalg import BasisSpace
from lcoalg.scalars import ONE
from test_complexes import NON_COASSOCIATIVE_DOC

GOLDEN = Path(__file__).with_name("golden_cli.tsv")

# (document, space, coproduct, cotilde, channel) for each entangle input
ENTANGLE_INPUTS = (
    ("F.doc", "F", "Delta", "Deltatilde", "Phi"),
    ("slq2.doc", "C1", "Delta", "Deltatilde", "M"),
    ("su2q.doc", "C1", "Delta1", "Deltatilde1", "M"),
)
SELF_BRIDGES = "Delta_star,delta1,deltahat1,delta2,deltahat2"
ACHIRAL_BRIDGES = "Delta_star,delta1,deltatilde2,deltatildehat2"

# (document, space or None, axiom, binding): every catalogue axiom
CHECKS = (
    ("F.doc", "F", "coassoc", "Delta=Delta"),
    ("F.doc", "F", "right_counit", "Delta=Delta,eps=eps"),
    ("F.doc", "F", "left_counit", "Deltatilde=Deltatilde,epstilde=eps"),
    ("F.doc", "F", "achiral", "Delta=Delta,Deltatilde=Deltatilde"),
    ("F.doc", "F", "L_cocommutative", "Delta=Delta,Deltatilde=Deltatilde"),
    ("F.doc", "F", "bidirected", "Delta=Delta,Deltatilde=Deltatilde"),
    ("E0.doc", None, "entanglement", "Deltatilde=delta1,Delta=delta2"),
    ("E0.doc", None, "codipterous", "Delta=Delta_star,delta=delta1"),
    ("E0.doc", None, "anti_codipterous", "Delta=Delta_star,deltahat=deltahat1"),
    ("E0.doc", None, "pre_dendriform",
     "Delta=Delta_star,delta=delta1,deltahat=deltahat1"),
    ("cibils2.doc", None, "codialgebra", "delta=delta,deltahat=deltahat"),
    ("cibils2.doc", None, "dendriform_coalgebra", "delta=delta,deltahat=deltahat_d"),
    ("cibils2.doc", None, "cotrialgebra",
     "Delta=Delta_star,delta=delta,deltahat=deltahat"),
    ("cibils2.doc", None, "right_counit", "Delta=Delta_star,eps=eps"),
    ("debruijn3.doc", None, "codialgebra", "delta=DeltatildeM,deltahat=DeltaM"),
    ("debruijn3.doc", None, "L_cocommutative", "Delta=DeltaM,Deltatilde=DeltatildeM"),
    ("su2q.doc", "C1", "achiral", "Delta=Delta1,Deltatilde=Deltatilde1"),
    ("group3.doc", None, "coassoc", "Delta=Delta"),
)

# (document, space or None, coproduct, unit) for each complex, in all forms
COMPLEXES = (
    ("group3.doc", None, "Delta", "g0"),
    ("cibils2.doc", None, "Delta_star", "a0"),
    ("F.doc", "F", "Delta", "b"),
)

# (document, coproducts) of the complex matrix: every label as --unit, every
# --form and --max-degree 1..3 on each coproduct of each document
COMPLEX_MATRIX = (
    ("group2.doc", ("Delta", "Deltatilde")),
    ("group3.doc", ("Delta", "Deltatilde")),
    ("group4.doc", ("Delta", "Deltatilde")),
    ("cibils2.doc", ("Delta_star", "delta", "deltahat", "deltahat_d")),
    ("cibils3.doc", ("Delta_star", "delta", "deltahat", "deltahat_d")),
    ("noncoassoc.doc", ("Delta",)),
)

# (name, document) of each way the document reader refuses a line, the
# scalar reader's refusals included; each runs as ``check @bad_NAME.doc``
_V = "space V = { a, b }\n"
_CP = _V + "coproduct D on V:\n"
_ALG = _V + "algebra A on V:\n"
_CH = _V + "space W = { x }\nchannel P : V -> W:\n"
READER_ERRORS = (
    ("unbalanced_closer", _CP + "  a -> q) * <a, a>\n"),
    ("unbalanced_angle_closer", _CP + "  a -> <a, a>> + <b, b>\n"),
    ("unclosed_paren", _CP + "  a -> (q * <a, a>\n"),
    ("unclosed_angle", _CP + "  a ->  q * <a, a  # comment\n"),
    ("unclosed_outer_paren", _CP + "\ta -> <a, a> + ((1 + q) * <b, b>\n"),
    ("unbalanced_vector", _ALG + "  unit -> a)\n"),
    ("term_bad_scalar", _CP + "  a -> q^ * <a, a>\n"),
    ("term_power_too_large", _CP + "  a -> (1 + q)^300 * <a, a>\n"),
    ("term_zero_inverse", _CP + "  a -> 0^-1 * <a, a>\n"),
    ("unicode_digit", _CP + "  a -> \u00b2 * <a, a>\n"),
    ("two_pairs", _CP + "  a -> <a, a> - <b, b>\n"),
    ("bad_tensor_term", _CP + "  a -> <a a>\n"),
    ("bad_vector_term", _ALG + "  unit -> a b\n"),
    ("bad_channel_term", _CH + "  a -> 2 x\n"),
    ("coproduct_unknown_lhs", _CP + "  z -> <a, a>\n"),
    ("coproduct_unknown_label", _CP + "  a -> <a, z>\n"),
    ("counit_unknown_label", _V + "counit e on V:\n  z -> 1\n"),
    ("algebra_unknown_label", _ALG + "  unit -> z\n"),
    ("algebra_unknown_factor", _ALG + "  a * z -> a\n"),
    ("channel_unknown_source_label", _CH + "  z -> x\n"),
    ("channel_unknown_target_label", _CH + "  a -> y\n"),
    ("bad_space", "space V = a, b\n"),
    ("empty_space", "space V = { , }\n"),
    ("space_label", "space V = { a b }\n"),
    ("space_twice", _V + "space V = { c }\n"),
    ("duplicate_labels", "space V = { a, b, a }\n"),
    ("bad_coproduct_header", _V + "coproduct D V:\n"),
    ("coproduct_unknown_space", _V + "coproduct D on W:\n"),
    ("bad_counit_header", _V + "counit e on V\n"),
    ("counit_unknown_space", _V + "counit e on W:\n"),
    ("bad_algebra_header", _V + "algebra A on V: a\n"),
    ("algebra_unknown_space", _V + "algebra A on W:\n"),
    ("bad_channel_header", _V + "channel P : V W:\n"),
    ("channel_unknown_source", _V + "channel P : W -> V:\n"),
    ("channel_unknown_target", _V + "channel P : V -> W:\n"),
    ("line_outside_block", "a -> <a, a>\n"),
    ("line_after_space", _CP + "  a -> <a, a>\nspace W = { x }\n  b -> <b, b>\n"),
    ("missing_arrow", _CP + "  a <a, a>\n"),
    ("defined_twice", _CP + "  a -> <a, a>\n  b -> <b, b>\n  a -> <a, b>\n"),
    ("counit_bad_scalar", _V + "counit e on V:\n  a -> 1/\n"),
    ("counit_empty", _V + "counit e on V:\n  a ->\n"),
    ("counit_power_too_large", _V + "counit e on V:\n  a -> q^100000\n"),
    ("counit_zero_inverse", _V + "counit e on V:\n  a -> 0^-1\n"),
    ("three_factors", _ALG + "  a * b * a -> a\n"),
    ("counit_defined_twice", _V + "counit e on V:\n  a -> 1\n  a -> 5\n"),
    ("zero_counit_defined_twice", _V + "counit e on V:\n  a -> 0\n  a -> 5\n"),
    ("channel_defined_twice", _CH + "  a -> x\n  b -> x\n  a -> 2 * x\n"),
    ("product_defined_twice", _ALG + "  a * b -> a\n  a*b -> b\n"),
    ("unit_defined_twice", _ALG + "  unit -> a\n  unit -> b\n"),
    ("coproduct_twice", _CP + "  a -> <a, a>\ncoproduct D on V:\n  b -> <b, b>\n"),
    ("counit_twice", _V + "counit e on V:\n  a -> 1\ncounit e on V:\n  b -> 1\n"),
    ("algebra_twice", _ALG + "  unit -> a\nalgebra A on V:\n  unit -> b\n"),
    ("channel_twice", _CH + "  a -> x\nchannel P : V -> W:\n  b -> x\n"),
)

# (name, document) of each coassociativity check whose expansion writes one
# term twice, so that at_slot sums its terms; each runs as
# ``check @rerun_NAME.doc --axiom coassoc --bind Delta=D``
_RERUN = "space V = { a, b, c }\ncoproduct D on V:\n  a -> <b, c> + <c, c>\n  b -> <a, a>\n"
RERUN_CHECKS = (
    ("repeat", _RERUN + "  c -> <a, a>\n"),
    ("cancel", _RERUN + "  c -> -1 * <a, a>\n"),
)

# The most role bindings checked per (document, axiom) in the witness matrix
MAX_BINDINGS = 40

FIXED_POINT_CHANNEL = "\nchannel Bad : F -> F:\n  a -> a\n  b -> b\n  c -> c\n  d -> d\n"

# The exponents k of the diagonal channel g_i -> q^k * h_i of an order-5 group
DIAGONAL_EXPONENTS = (12, 2, 40, 50, 26)
DIAGONAL_CHANNEL = (
    "\nspace H = { h0, h1, h2, h3, h4 }\n\nchannel Phi : G -> H:\n"
    + "".join(f"  g{i} -> q^{k} * h{i}\n" for i, k in enumerate(DIAGONAL_EXPONENTS))
)

# (name, document) of each algebra the document reader accepts but the
# structure refuses; each runs as ``check @algebra_NAME.doc --axiom coassoc``
_UNITAL = ("space V = { e, a, b }\ncoproduct D on V:\n  e -> <e, e>\n"
           "algebra A on V:\n  unit -> e\n  e * e -> e\n  e * a -> a\n  e * b -> b\n")
ALGEBRA_ERRORS = (
    ("not_associative", _UNITAL + "  a * e -> a\n  b * e -> b\n"
     "  a * a -> 2 * b\n  a * b -> q * e\n  b * a -> q * e\n  b * b -> a\n"),
    ("unit_law", _UNITAL + "  a * e -> a\n  b * e -> -1 * b\n  a * a -> a\n"),
)

# (name, document, arguments) of each document whose term lines repeat, as
# the glued coproducts of an entanglement do; each runs as
# ``check @repeat_NAME.doc`` with its arguments.  In ``other_space`` the
# second copy of a line sits in a block on a space that lacks one of its
# labels, so the error names the second copy's line.
_PARENTHESISED = "  a -> (1 + q) * <a, a> + <a, b>\n  b -> <b, b>\n"
REPEATED_LINES = (
    ("other_space",
     "space V = { a, b }\nspace W = { a, c }\ncoproduct D on V:\n"
     "  a -> 2 * <a, b> + <b, a>\ncoproduct E on W:\n  c -> <a, a>\n"
     "  a -> 2 * <a, b> + <b, a>\n",
     ("--space", "W", "--axiom", "coassoc")),
    ("three_coproducts",
     "space V = { a, b }\n"
     + "".join(f"coproduct D{i} on V:\n{_PARENTHESISED}" for i in (1, 2, 3)),
     ("--axiom", "codialgebra", "--bind", "delta=D1,deltahat=D3")),
)


# (name, document) of each document whose comment holds a break that
# str.splitlines knows but the reader does not, so the rest of the comment
# stays a comment; each runs as ``check @break_NAME.doc --axiom coassoc
# --bind Delta=D``.  The lines of ``mixed`` end in "\r\n", "\r" and "\n".
_ONE_LABEL = "space V = { a }\n"
COMMENT_BREAKS = (
    ("form_feed", _ONE_LABEL + "# note\x0ccoproduct D on V:\ncoproduct D on V:\n  a -> <a, a>\n"),
    ("line_separator",
     _ONE_LABEL + "coproduct D on V:  # of\u2028the paper\n  a -> <a, a>\n"),
    ("mixed", "space V = { a }\r\n# \x0b\x1c\x85\u2029\rcoproduct D on V:\n"
              "  a -> <a, z>\r\n"),
)
# An edge file whose comment holds a form feed before an edge
COMMENT_BREAK_EDGES = "a -- b\nb -- c\n# skip\x0cw -- x\nc -- a\n"

# (name, document) of each block with a row for a label named like a block
# keyword; each runs as ``check @keyword_NAME.doc --space V --axiom coassoc
# --bind Delta=D``
_KEYWORD_SPACE = "space V = { space, counit, channel }\n"
_KEYWORD_D = ("coproduct D on V:\n  space -> <space, space>\n"
              "  counit -> <counit, counit>\n  channel -> <channel, channel>\n")
KEYWORD_LABELS = (
    ("coproduct", _KEYWORD_SPACE + _KEYWORD_D),
    ("algebra", _KEYWORD_SPACE + _KEYWORD_D + "algebra A on V:\n  unit -> space\n"
     + "".join(f"  {a} * {b} -> {c}\n" for a, b, c in (
         ("space", "space", "space"), ("space", "counit", "counit"),
         ("space", "channel", "channel"), ("counit", "space", "counit"),
         ("counit", "counit", "channel"), ("counit", "channel", "space"),
         ("channel", "space", "channel"), ("channel", "counit", "space"),
         ("channel", "channel", "counit")))),
    ("channel", _KEYWORD_SPACE + "space W = { algebra }\n" + _KEYWORD_D
     + "channel P : V -> W:\n  channel -> 2 * algebra\n  space -> algebra\n"),
)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _library_documents():
    """(name, structure) of each construction the command line cannot run."""
    left = de_bruijn_codialgebra(2, prefix="x")
    right = de_bruijn_codialgebra(2, prefix="y")
    channel = ChannelMap(left.space, right.space, {"x1": {"y1": ONE}, "x2": {"y2": ONE}})
    yield "markov_entangle_de_bruijn n=2", markov_entangle_de_bruijn(
        left, right, "DeltaM", channel).structure
    group3 = fixture_group(3)
    a_space = BasisSpace(["h0", "h1", "h2"])
    channel = ChannelMap(a_space, group3.space, {f"h{i}": {f"g{i}": ONE} for i in range(3)})
    yield "markov_entangle_flower group 3", markov_entangle_flower(
        a_space, "h0", group3, "Delta", channel).structure
    yield "sum_codipterous F+group 3", sum_codipterous(
        fixture_f_entangled().structure, ("Delta_star", "delta1"),
        group3, ("Delta", "Delta"))
    f_data = fixture_f()
    yield "self_tiling_dendriform F", self_tiling_dendriform(
        f_data["structure"], "Delta", f_data["channel"])[0]
    yield "fixture_group_split", fixture_group_split().structure


def _witness_documents():
    """(name, structure) of each document of the witness matrix."""
    def parsed(text):
        doc = parse_document(text)
        (space,) = doc.spaces
        return doc.structure(space)

    yield "F", fixture_f()["structure"]
    yield "F entangled", fixture_f_entangled().structure
    yield "slq2 entangled", fixture_quantum_matrix()["entangled"].structure
    yield "su2q", fixture_quantum_sphere()["structure"]
    for n in (2, 3):
        yield f"cibils {n}", fixture_cibils(n)
    yield "debruijn 3", fixture_debruijn(3)
    for n in (3, 4):
        yield f"group {n}", fixture_group(n)
    yield "noncoassoc", parsed(NON_COASSOCIATIVE_DOC)
    for name, text in RERUN_CHECKS:
        yield f"rerun_{name}", parsed(text)


def _render_tensor(tensor) -> str:
    return " + ".join(f"{coeff}*<{', '.join(term)}>" for term, coeff in tensor.items())


def witness_matrix():
    """(invocation, exit code, witness digest, empty digest) rows: every
    catalogue axiom on every witness document, in process, under the first
    ``MAX_BINDINGS`` role bindings (coproduct roles over the sorted
    coproduct names, counit roles over the sorted counit names).  The
    digest covers every witness of every binding, with both expansions."""
    rows = []
    for name, structure in _witness_documents():
        for axiom, schema in AXIOMS.items():
            roles = schema["roles"]
            choices = [sorted(structure.counits if role in ("eps", "epstilde")
                              else structure.coproducts) for role in roles]
            failed, lines = False, []
            for names in islice(product(*choices), MAX_BINDINGS):
                binding = ",".join(f"{r}={n}" for r, n in zip(roles, names))
                report = check_axiom(structure, axiom, dict(zip(roles, names)))
                failed = failed or not report.passed
                lines.extend(
                    f"{binding}\t{label}\t{tag}\t{_render_tensor(lhs)}\t{_render_tensor(rhs)}\n"
                    for label, tag, lhs, rhs in report.witnesses)
            rows.append((f"witnesses {name} {axiom}", str(int(failed)),
                         _digest("".join(lines)), _digest("")))
    return rows


def transcript(workdir: str):
    """(invocation, exit code, stdout digest, stderr digest) rows in order.
    An argument ``@name`` stands for the file ``name`` in ``workdir``."""
    rows = []

    def path(name):
        return os.path.join(workdir, name)

    def run(*argv, save=None):
        real = [path(a[1:]) if a.startswith("@") else a for a in argv]
        code, out, err = _run(real)
        rows.append((" ".join(argv), str(code), _digest(out), _digest(err)))
        if save is not None:
            Path(path(save)).write_text(out, encoding="utf-8")
        return code

    run("fixtures")
    for name, save in (("F", "F.doc"), ("slq2", "slq2.doc"), ("su2q-coalg", "su2q.doc"),
                       ("cibils", None), ("debruijn", None),
                       ("petersen", "petersen.edges"), ("group", None)):
        run("fixtures", name, save=save)
    fixed = Path(path("F.doc")).read_text(encoding="utf-8") + FIXED_POINT_CHANNEL
    Path(path("F_fixed.doc")).write_text(fixed, encoding="utf-8")
    for n in ("2", "3"):
        run("fixtures", "cibils", "--n", n, save=f"cibils{n}.doc")
        run("fixtures", "cibils", "--n", n, "--q=-3/2")
    run("fixtures", "debruijn", "--n", "3", save="debruijn3.doc")
    run("fixtures", "group", "--n", "3", save="group3.doc")
    run("fixtures", "group", "--n", "4", save="group4.doc")
    Path(path("group2.doc")).write_text(
        unparse_document(document_from_structure("G", fixture_group(2))), encoding="utf-8")
    Path(path("noncoassoc.doc")).write_text(NON_COASSOCIATIVE_DOC, encoding="utf-8")

    outputs = []
    for doc, space, cp, cotilde, channel in ENTANGLE_INPUTS:
        base = ("entangle", "@" + doc, "--space", space, "--coproduct", cp,
                "--channel", channel, "--out-space", "E")
        for extra in ((), ("--counit", "eps")):
            outputs.append((base + ("--kind", "self") + extra, SELF_BRIDGES, ()))
        for transported in ("Delta", "Deltatilde"):
            outputs.append((base + ("--kind", "achiral", "--cotilde", cotilde,
                                    "--transport", transported),
                            ACHIRAL_BRIDGES, ("--left", "deltatildehat2")))
    run("entangle", "@F_fixed.doc", "--space", "F", "--kind", "self",
        "--coproduct", "Delta", "--channel", "Bad")
    for i, (argv, bridges, bracket) in enumerate(outputs):
        if run(*argv, save=f"E{i}.doc") == 0:
            run("bracket", f"@E{i}.doc", *bracket)
            for coproducts in ("Delta_star", bridges):
                run("support", f"@E{i}.doc", "--coproducts", coproducts, "--dot")

    for doc, space, axiom, binding in CHECKS:
        where = ("--space", space) if space else ()
        run("check", "@" + doc, *where, "--axiom", axiom, "--bind", binding)
    for doc, space, cp, unit in COMPLEXES:
        where = ("--space", space) if space else ()
        for form in ("primary", "prime", "alternative"):
            run("complex", "@" + doc, *where, "--coproduct", cp, "--unit", unit,
                "--form", form)
    for doc, coproducts in COMPLEX_MATRIX:
        (labels,) = parse_document(Path(path(doc)).read_text(encoding="utf-8")).spaces.values()
        for cp, unit, form, degree in product(
                coproducts, labels, ("primary", "prime", "alternative"), "123"):
            run("complex", "@" + doc, "--coproduct", cp, "--unit", unit,
                "--form", form, "--max-degree", degree)
    run("embed", "--edges", "@petersen.edges")
    for name, text in READER_ERRORS:
        Path(path(f"bad_{name}.doc")).write_text(text, encoding="utf-8")
        run("check", f"@bad_{name}.doc", "--axiom", "coassoc")

    for name, structure in _library_documents():
        text = unparse_document(document_from_structure("E", structure))
        rows.append((f"library {name}", "0", _digest(text), _digest("")))
    for name, text in RERUN_CHECKS:
        Path(path(f"rerun_{name}.doc")).write_text(text, encoding="utf-8")
        run("check", f"@rerun_{name}.doc", "--axiom", "coassoc", "--bind", "Delta=D")
    rows.extend(witness_matrix())

    for n, q in (("24", ("--q=-9/2",)), ("20", ()), ("16", ("--q=8/5",))):
        run("fixtures", "cibils", "--n", n, *q)
    run("fixtures", "group", "--n", "5", save="group5.doc")
    Path(path("diag5.doc")).write_text(
        Path(path("group5.doc")).read_text(encoding="utf-8") + DIAGONAL_CHANNEL,
        encoding="utf-8")
    base = ("entangle", "@diag5.doc", "--space", "G", "--coproduct", "Delta",
            "--channel", "Phi", "--out-space", "E")
    run(*base, "--kind", "self", "--counit", "eps", save="diag5_E.doc")
    run(*base, "--kind", "achiral", "--cotilde", "Deltatilde")
    run("bracket", "@diag5_E.doc")
    run("support", "@diag5_E.doc", "--coproducts", "Delta_star", "--dot")
    for name, text in ALGEBRA_ERRORS:
        Path(path(f"algebra_{name}.doc")).write_text(text, encoding="utf-8")
        run("check", f"@algebra_{name}.doc", "--axiom", "coassoc")
    for name, text, args in REPEATED_LINES:
        Path(path(f"repeat_{name}.doc")).write_text(text, encoding="utf-8")
        run("check", f"@repeat_{name}.doc", *args)
    run("check", "@E0.doc", "--axiom", "coassoc", "--bind", "Delta=Delta_star")
    # An overlapping channel is refused before any coproduct is looked up.
    for channel in ("Bad", "Phi"):
        base = ("entangle", "@F_fixed.doc", "--space", "F", "--coproduct", "Nope",
                "--channel", channel)
        run(*base)
        run(*base, "--kind", "achiral", "--cotilde", "Deltatilde")
    # Roles are bound one at a time, so an unknown coproduct is named
    # before a counit role that is not bound.
    run("check", "@F.doc", "--space", "F", "--axiom", "right_counit", "--bind", "Delta=Nope")
    run("check", "@F.doc", "--space", "F", "--axiom", "codialgebra", "--bind", "delta=Nope")
    # A role bound twice, or one its system lacks, is a usage error.
    run("check", "@F.doc", "--space", "F", "--axiom", "coassoc",
        "--bind", "Delta=Deltatilde", "--bind", "Delta=Delta")
    run("check", "@F.doc", "--space", "F", "--axiom", "coassoc", "--bind", "Delta=Delta,Foo=Delta")
    for name, text in COMMENT_BREAKS:
        Path(path(f"break_{name}.doc")).write_text(text, encoding="utf-8", newline="")
        run("check", f"@break_{name}.doc", "--axiom", "coassoc", "--bind", "Delta=D")
    Path(path("break.edges")).write_text(COMMENT_BREAK_EDGES, encoding="utf-8")
    run("embed", "--edges", "@break.edges")
    for name, text in KEYWORD_LABELS:
        Path(path(f"keyword_{name}.doc")).write_text(text, encoding="utf-8")
        run("check", f"@keyword_{name}.doc", "--space", "V", "--axiom", "coassoc",
            "--bind", "Delta=D")
    # A support that names no coproduct is a usage error.
    run("support", "@F.doc", "--space", "F", "--coproducts", ",")
    # So is an entangle option that its --kind does not read, and a
    # --transport other than Delta or Deltatilde.
    base = ("entangle", "@F.doc", "--space", "F", "--coproduct", "Delta", "--channel", "Phi")
    run(*base, "--kind", "self", "--cotilde", "Deltatilde")
    run(*base, "--kind", "self", "--transport", "Delta")
    achiral = base + ("--kind", "achiral", "--cotilde", "Deltatilde")
    run(*achiral, "--counit", "eps")
    run(*achiral, "--transport", "Nope")
    return rows


def format_rows(rows) -> str:
    return "".join(f"{code}\t{out}\t{err}\t{inv}\n" for inv, code, out, err in rows)


def test_golden_transcript(tmp_path):
    expected = {}
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        code, out, err, invocation = line.split("\t")
        expected[invocation] = (code, out, err)
    rows = transcript(str(tmp_path))
    assert [row[0] for row in rows] == list(expected), "invocation list changed"
    changed = [
        f"{inv}: exit {code}, stdout {out[:12]}, stderr {err[:12]}"
        for inv, code, out, err in rows if expected[inv] != (code, out, err)
    ]
    assert not changed, "output changed for:\n" + "\n".join(changed)
