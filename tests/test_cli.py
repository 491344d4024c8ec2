"""End-to-end runs of the command-line front end through main(argv):
exit codes, report lines, document emission, and error handling."""

import contextlib
import functools
import io
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from lcoalg import cli, dsl
from lcoalg.cli import FIXTURE_NAMES, MAX_FIXTURE_N, main
from lcoalg.coalgebra import AXIOMS
from lcoalg.dsl import document_from_structure, parse_document, unparse_document
from lcoalg.scalars import ONE
from test_complexes import random_structures
from test_dsl import mutated_documents


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def f_doc(tmp_path, capsys):
    code = main(["fixtures", "F"])
    text = capsys.readouterr().out
    assert code == 0
    path = tmp_path / "F.doc"
    path.write_text(text)
    return path


@pytest.fixture()
def group_doc(tmp_path, capsys):
    code = main(["fixtures", "group", "--n", "3"])
    text = capsys.readouterr().out
    assert code == 0
    path = tmp_path / "G3.doc"
    path.write_text(text)
    return path


def test_check_passing_axiom(f_doc, capsys):
    code, out, _ = run(
        capsys, "check", str(f_doc), "--space", "F",
        "--axiom", "coassoc", "--bind", "Delta=Delta",
    )
    assert code == 0
    assert out.splitlines()[0] == "check\tcoassoc\tpass\t0"


def test_check_failing_axiom_prints_witnesses(f_doc, tmp_path, capsys):
    # Corrupt one coefficient of the coproduct; coassociativity must fail
    # and the witness line must name the axiom and the basis label.
    text = f_doc.read_text()
    corrupted = text.replace("a -> <a, a> + <b, c>", "a -> <a, a> + q * <b, c>")
    assert corrupted != text
    bad = tmp_path / "F_bad.doc"
    bad.write_text(corrupted)
    code, out, _ = run(
        capsys, "check", str(bad), "--space", "F",
        "--axiom", "coassoc", "--bind", "Delta=Delta",
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("check\tcoassoc\tfail\t")
    witnesses = [l for l in lines if l.startswith("witness\t")]
    assert witnesses
    assert witnesses[0].split("\t") == ["witness", "coassoc", "coassoc(Delta)", "b"]


def test_check_unknown_axiom_is_usage_error(f_doc, capsys):
    code, _, err = run(
        capsys, "check", str(f_doc), "--axiom", "nonsense",
    )
    assert code == 2


def test_check_missing_binding_is_usage_error(f_doc, capsys):
    code, _, err = run(
        capsys, "check", str(f_doc), "--space", "F", "--axiom", "coassoc",
    )
    assert code == 2
    assert "error:" in err


def test_check_refuses_a_role_bound_twice(f_doc, capsys):
    # neither binding of a role bound twice wins
    for binds in (["--bind", "Delta=Deltatilde", "--bind", "Delta=Delta"],
                  ["--bind", "Delta=Delta,Delta=Delta"]):
        code, out, err = run(
            capsys, "check", str(f_doc), "--space", "F", "--axiom", "coassoc", *binds)
        assert (code, out) == (2, "")
        assert err == "error: role 'Delta' is bound twice\n"


def test_check_refuses_a_role_outside_the_system(f_doc, capsys):
    code, out, err = run(
        capsys, "check", str(f_doc), "--space", "F", "--axiom", "right_counit",
        "--bind", "Delta=Delta,eps=eps,Foo=Delta")
    assert (code, out) == (2, "")
    assert err == "error: unknown role 'Foo' (expected Delta | eps)\n"


def test_support_lists_arrows(f_doc, capsys):
    code, out, _ = run(
        capsys, "support", str(f_doc), "--space", "F", "--coproducts", "Delta",
    )
    assert code == 0
    lines = out.splitlines()
    assert all(l.startswith("arrow\t") for l in lines)
    assert "arrow\ta\ta\t1" in lines
    assert "arrow\ta\tb\t1" in lines


def test_support_dot_output(f_doc, capsys):
    code, out, _ = run(
        capsys, "support", str(f_doc), "--space", "F",
        "--coproducts", "Delta", "--dot",
    )
    assert code == 0
    assert out.startswith("digraph F {")
    assert '"a" -> "b";' in out


@pytest.mark.parametrize("names", ["", ",", " , ,"])
@pytest.mark.parametrize("dot", [(), ("--dot",)])
def test_support_without_a_coproduct_name_is_a_usage_error(names, dot, f_doc, capsys):
    # It printed nothing, or a graph with vertices and no arrows, and exited 0.
    code, out, err = run(capsys, "support", str(f_doc), "--space", "F",
                         "--coproducts", names, *dot)
    assert (code, out) == (2, "")
    assert err == "error: --coproducts names no coproduct\n"


def test_entangle_self_emits_reparseable_document(f_doc, capsys):
    code, out, _ = run(
        capsys, "entangle", str(f_doc), "--space", "F",
        "--kind", "self", "--coproduct", "Delta", "--channel", "Phi",
        "--counit", "eps", "--out-space", "E",
    )
    assert code == 0
    doc = parse_document(out)
    s = doc.structure("E")
    assert set(s.coproducts) >= {
        "Delta_star", "delta1", "deltahat1", "delta2", "deltahat2"
    }
    assert s.space.dim == 8


def test_entangle_refusal_is_failed_check(f_doc, tmp_path, capsys):
    # A channel with fixed points must be refused, exit 1, with the
    # message printed as a failed construction check.
    text = f_doc.read_text() + (
        "\nchannel Bad : F -> F:\n"
        "  a -> a\n  b -> b\n  c -> c\n  d -> d\n"
    )
    path = tmp_path / "F_fixed.doc"
    path.write_text(text)
    code, out, _ = run(
        capsys, "entangle", str(path), "--space", "F",
        "--kind", "self", "--coproduct", "Delta", "--channel", "Bad",
    )
    assert code == 1
    assert out.startswith("check\tconstruction\tfail\t")


def test_entangle_achiral(capsys, tmp_path):
    code = main(["fixtures", "su2q-coalg"])
    text = capsys.readouterr().out
    assert code == 0
    path = tmp_path / "S.doc"
    path.write_text(text)
    code, out, _ = run(
        capsys, "entangle", str(path), "--space", "C1",
        "--kind", "achiral", "--coproduct", "Delta1",
        "--cotilde", "Deltatilde1", "--channel", "M", "--out-space", "E",
    )
    assert code == 0
    doc = parse_document(out)
    s = doc.structure("E")
    assert "Delta_star" in s.coproducts


def test_entangle_achiral_without_cotilde_is_usage_error(f_doc, capsys):
    code, _, err = run(
        capsys, "entangle", str(f_doc), "--space", "F",
        "--kind", "achiral", "--coproduct", "Delta", "--channel", "Phi",
    )
    assert code == 2
    assert err == "error: --kind achiral needs --cotilde NAME\n"


@pytest.mark.parametrize("options, message", [
    (("--kind", "self", "--cotilde", "Deltatilde"), "--kind self does not read --cotilde"),
    (("--kind", "self", "--transport", "Delta"), "--kind self does not read --transport"),
    (("--cotilde", "Deltatilde"), "--kind self does not read --cotilde"),
    (("--kind", "achiral", "--cotilde", "Deltatilde", "--counit", "eps"),
     "--kind achiral does not read --counit"),
    (("--kind", "achiral", "--cotilde", "Deltatilde", "--transport", "Nope"),
     "--transport 'Nope' is neither Delta nor Deltatilde"),
    (("--kind", "achiral", "--cotilde", "Deltatilde", "--transport", ""),
     "--transport '' is neither Delta nor Deltatilde"),
])
def test_entangle_refuses_an_option_its_kind_does_not_read(options, message, f_doc, capsys):
    code, out, err = run(capsys, "entangle", str(f_doc), "--space", "F", *options)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_entangle_achiral_transports_delta_by_default(f_doc, capsys):
    base = ("entangle", str(f_doc), "--space", "F", "--kind", "achiral", "--cotilde",
            "Deltatilde")
    default = run(capsys, *base)
    assert default[0] == 0
    assert run(capsys, *base, "--transport", "Delta") == default
    assert run(capsys, *base, "--transport", "Deltatilde")[1] != default[1]


def test_bracket_table_format(f_doc, tmp_path, capsys):
    code, out, _ = run(
        capsys, "entangle", str(f_doc), "--space", "F",
        "--kind", "self", "--coproduct", "Delta", "--channel", "Phi",
        "--out-space", "E",
    )
    assert code == 0
    path = tmp_path / "E.doc"
    path.write_text(out)
    code, out, _ = run(capsys, "bracket", str(path), "--space", "E")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 64
    as_map = {}
    for line in lines:
        kind, i, j, value = line.split("\t")
        assert kind == "bracket"
        as_map[(i, j)] = value
    assert as_map[("a*", "b*")] == "(1) b*"
    assert as_map[("b*", "c*")] == "(1) a* + (-1) d*"
    assert as_map[("a*", "x*")] == "0"
    assert as_map[("x*", "a*")] == "0"


def test_complex_subcommand(group_doc, capsys):
    code, out, _ = run(
        capsys, "complex", str(group_doc), "--space", "G",
        "--coproduct", "Delta", "--unit", "g0",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check\tboundary_complex[primary]\tpass\t0"
    assert any(
        l.startswith("check\tboundary_forms_agree\tpass") for l in lines
    )


def test_complex_non_grouplike_unit(f_doc, capsys):
    # No basis label of the matrix-type coalgebra is group-like, so the
    # complex cannot be formed and the unit is witnessed.
    code, out, _ = run(
        capsys, "complex", str(f_doc), "--space", "F",
        "--coproduct", "Delta", "--unit", "b",
    )
    assert code == 1
    assert (
        "witness\tboundary_complex[primary]\tunit_grouplike\tb"
        in out.splitlines()
    )


def test_embed_triangle(tmp_path, capsys):
    edges = tmp_path / "tri.edges"
    edges.write_text("a -- b\nb -- c\nc -- a\n")
    code, out, _ = run(capsys, "embed", "--edges", str(edges))
    assert code == 0
    lines = out.splitlines()
    assert "lift\tvertices\t3" in lines
    assert "lift\tloops\t3" in lines
    assert "lift\tarrows\t6" in lines
    assert "lift\tbridges\t6" in lines
    assert any(
        l.startswith("check\tcoassociative_covering\tpass") for l in lines
    )


def test_embed_petersen(tmp_path, capsys):
    code = main(["fixtures", "petersen"])
    text = capsys.readouterr().out
    assert code == 0
    edges = tmp_path / "petersen.edges"
    edges.write_text(text)
    code, out, _ = run(capsys, "embed", "--edges", str(edges))
    assert code == 0
    lines = out.splitlines()
    assert "lift\tvertices\t10" in lines
    assert "lift\tloops\t10" in lines
    assert "lift\tarrows\t30" in lines


def test_fixtures_list(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    assert tuple(out.split()) == FIXTURE_NAMES


@pytest.mark.parametrize("name", [n for n in FIXTURE_NAMES if n != "petersen"])
def test_each_fixture_document_parses(name, capsys):
    code, out, _ = run(capsys, "fixtures", name)
    assert code == 0
    parse_document(out)  # must not raise


@pytest.mark.parametrize("name, function", [
    ("F", "fixture_f"), ("slq2", "fixture_slq2"),
    ("su2q-coalg", "fixture_quantum_sphere"),
])
def test_a_channel_fixture_runs_the_function_bound_to_its_name(name, function,
                                                               monkeypatch, capsys):
    """A wrapper bound to the fixture's name in ``lcoalg.cli``, as a tracer
    binds one, is the function that the ``fixtures`` command calls."""
    calls = []
    real = getattr(cli, function)
    monkeypatch.setattr(cli, function, lambda: calls.append(name) or real())
    code, out, _ = run(capsys, "fixtures", name)
    assert code == 0 and calls == [name]
    parse_document(out)


def test_fixtures_with_numeric_q(capsys):
    code, out, _ = run(capsys, "fixtures", "cibils", "--n", "4", "--q", "2")
    assert code == 0
    doc = parse_document(out)
    assert len(doc.spaces["E"]) == 8  # a1..a4 and x1..x4


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "/nonexistent.doc", "--axiom", "coassoc")
    assert code == 2
    assert "error:" in err


def test_directory_as_document_is_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "check", str(tmp_path), "--axiom", "coassoc")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_unreadable_edges_file_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "embed", "--edges", str(tmp_path))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_complex_vacuous_degree_is_usage_error(group_doc, degree, capsys):
    code, out, err = run(
        capsys, "complex", str(group_doc), "--space", "G",
        "--unit", "g0", "--max-degree", degree,
    )
    assert code == 2
    assert out == ""
    assert "error:" in err and "--max-degree" in err


def test_complex_degree_one_is_checked(group_doc, capsys):
    code, out, _ = run(
        capsys, "complex", str(group_doc), "--space", "G",
        "--unit", "g0", "--max-degree", "1",
    )
    assert code == 0
    assert out.splitlines()[0] == "check\tboundary_complex[primary]\tpass\t0"


def test_malformed_document_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.doc"
    path.write_text("space V = oops\n")
    code, _, err = run(capsys, "check", str(path), "--axiom", "coassoc")
    assert code == 2
    assert "line 1" in err


def test_bad_usage_exits_two(capsys):
    assert main(["check"]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_empty_document_declares_no_space(tmp_path, capsys):
    path = tmp_path / "empty.doc"
    path.write_text("")
    code, out, err = run(capsys, "check", str(path), "--axiom", "coassoc")
    assert code == 2
    assert out == ""
    assert err == "error: document declares no space\n"


def test_unknown_space_is_usage_error_without_position(f_doc, capsys):
    code, out, err = run(
        capsys, "check", str(f_doc), "--space", "Z", "--axiom", "coassoc"
    )
    assert code == 2
    assert out == ""
    assert err == "error: unknown space 'Z' (expected F | F2)\n"


def test_several_spaces_need_space_option(f_doc, capsys):
    code, out, err = run(capsys, "check", str(f_doc), "--axiom", "coassoc")
    assert code == 2
    assert out == ""
    assert err == (
        "error: document declares several spaces; pass --space (expected F | F2)\n"
    )


@pytest.mark.parametrize("degree", ["8", "1000000000"])
def test_complex_refuses_too_many_basis_tensors(tmp_path, degree, capsys):
    # 4 + 16 + ... + 4^7 = 21,844 basis tensors already pass the bound.
    code, text, _ = run(capsys, "fixtures", "group", "--n", "4")
    path = tmp_path / "G4.doc"
    path.write_text(text)
    code, out, err = run(
        capsys, "complex", str(path), "--unit", "g0", "--max-degree", degree,
    )
    assert code == 2
    assert out == ""
    assert err == (
        f"error: --max-degree {degree} would check more than 20000 basis "
        "tensors (already 21844 up to degree 7 on 4 labels)\n"
    )


def test_complex_on_non_coassociative_coproduct_fails(tmp_path, capsys):
    path = tmp_path / "V.doc"
    path.write_text(
        "space V = { e, x }\n\n"
        "coproduct Delta on V:\n"
        "  e -> <e, e>\n"
        "  x -> <x, x> + q * <x, e> + -1/2 * <e, x>\n"
    )
    code, out, _ = run(capsys, "complex", str(path), "--unit", "e")
    assert code == 1
    degree_3 = ["e,e,x", "e,x,e", "e,x,x", "x,e,e", "x,e,x", "x,x,e", "x,x,x"]
    assert out.splitlines() == (
        ["check\tboundary_complex[primary]\tfail\t11",
         "witness\tboundary_complex[primary]\tdd_degree_1\t(x)"]
        + [f"witness\tboundary_complex[primary]\tdd_degree_2\t({t})"
           for t in ("e,x", "x,e", "x,x")]
        + [f"witness\tboundary_complex[primary]\tdd_degree_3\t({t})" for t in degree_3]
        + ["check\tboundary_forms_agree\tpass\t0"]
    )


def test_minus_between_tensor_terms_is_usage_error(tmp_path, capsys):
    path = tmp_path / "V.doc"
    path.write_text(
        "space V = { e, x }\n\n"
        "coproduct Delta on V:\n"
        "  e -> <e, e>\n"
        "  x -> <x, x> + q * <x, e> - 1/2 * <e, x>\n"
    )
    code, out, err = run(capsys, "complex", str(path), "--unit", "e")
    assert code == 2
    assert out == ""
    assert err == (
        "error: line 5, column 1: tensor term 'q * <x, e> - 1/2 * <e, x>' holds "
        "2 pairs; terms are joined with '+', as in '+ -1/2 * <e, x>'\n"
    )


def test_two_main_calls_share_no_state(f_doc, capsys):
    # One parser serves every call; the --bind list of the first call must
    # not reach the second, which binds nothing and so is a usage error.
    code, out, _ = run(
        capsys, "check", str(f_doc), "--space", "F", "--axiom", "coassoc",
        "--bind", "Delta=Delta",
    )
    assert (code, out) == (0, "check\tcoassoc\tpass\t0\n")
    code, out, err = run(capsys, "check", str(f_doc), "--space", "F", "--axiom", "coassoc")
    assert (code, out) == (2, "")
    assert err == "error: \"missing binding for role 'Delta'\"\n"


def _recording_builds(monkeypatch, text):
    """The names, in build order, of the coproducts of the document ``text``
    whose MultiLinearMap the reader's structure builds: each map is
    recorded by the name of its table."""
    tables = {name: table for name, (_, table) in parse_document(text).coproducts.items()}
    assert all(a is b or a != b for a in tables.values() for b in tables.values())
    built = []
    real = dsl.MultiLinearMap

    def recording(space, arity, table):
        built.extend(name for name, held in tables.items() if held == table)
        return real(space, arity, table)

    monkeypatch.setattr(dsl, "MultiLinearMap", recording)
    return tables, built


@pytest.mark.parametrize("argv, code, wanted", [
    (("check", "--axiom", "codialgebra", "--bind", "delta=delta", "--bind", "deltahat=deltahat"),
     0, ["delta", "deltahat"]),
    (("complex", "--coproduct", "Delta_star", "--unit", "a0"), 0, ["Delta_star"]),
    (("support", "--coproducts", "deltahat,delta"), 0, ["delta", "deltahat"]),
    (("support", "--coproducts", "delta,Nope"), 2, ["delta"]),
    (("bracket", "--left", "deltahat_d", "--right", "delta"), 0, ["delta", "deltahat_d"]),
    (("bracket",), 2, []),
])
def test_commands_build_only_the_coproducts_they_read(argv, code, wanted, tmp_path, capsys,
                                                       monkeypatch):
    """On cibils, a codialgebra check builds delta and deltahat but not
    Delta_star or deltahat_d, a complex builds only its coproduct, support
    only the coproducts it names, and bracket only --left and --right (by
    default deltahat1 and delta1, which cibils lacks)."""
    got, text, _ = run(capsys, "fixtures", "cibils", "--n", "3")
    assert got == 0
    path = tmp_path / "cibils3.doc"
    path.write_text(text)
    tables, built = _recording_builds(monkeypatch, text)
    assert list(tables) == ["Delta_star", "delta", "deltahat", "deltahat_d"]
    got, _, err = run(capsys, argv[0], str(path), *argv[1:])
    assert got == code, err
    assert built == wanted
    built.clear()
    parse_document(text).structure("E")
    assert built == list(tables)


@pytest.mark.parametrize("kind, code, wanted", [
    (("--kind", "self"), 0, ["Delta"]),
    (("--kind", "self", "--cotilde", "Deltatilde"), 2, ["Delta"]),
    (("--kind", "achiral", "--cotilde", "Deltatilde"), 0, ["Delta", "Deltatilde"]),
    (("--kind", "achiral", "--cotilde", "Nope"), 2, ["Delta"]),
    (("--kind", "achiral"), 2, ["Delta"]),
])
def test_entangle_builds_only_its_coproduct_and_cotilde(kind, code, wanted, f_doc, capsys,
                                                        monkeypatch):
    """On F, which holds Delta and Deltatilde, a self entanglement builds
    only --coproduct, and an achiral one --cotilde too."""
    tables, built = _recording_builds(monkeypatch, f_doc.read_text())
    assert list(tables) == ["Delta", "Deltatilde"]
    got, _, err = run(capsys, "entangle", str(f_doc), "--space", "F", *kind)
    assert got == code, err
    assert built == wanted


def test_an_algebra_error_comes_before_a_binding_error(tmp_path, capsys):
    path = tmp_path / "V.doc"
    path.write_text(
        "space V = { e, a, b }\ncoproduct D on V:\n  e -> <e, e>\n"
        "algebra A on V:\n  unit -> e\n  e * e -> e\n  e * a -> a\n  e * b -> b\n"
        "  a * e -> a\n  b * e -> b\n  a * a -> 2 * b\n  a * b -> q * e\n"
        "  b * a -> q * e\n  b * b -> a\n"
    )
    for binding in ("Nope=D", "Delta=Nope", "Delta", "Delta=D,Delta=D"):
        code, out, err = run(capsys, "check", str(path), "--axiom", "coassoc",
                             "--bind", binding)
        assert (code, out) == (2, "")
        assert err.startswith("error: associativity fails at "), err
    code, out, err = run(capsys, "complex", str(path), "--coproduct", "Nope", "--unit", "e")
    assert (code, out) == (2, "")
    assert err.startswith("error: associativity fails at "), err


@pytest.mark.parametrize("name, limit", [("cibils", 150), ("debruijn", 300), ("group", 50)])
def test_fixture_n_above_its_limit_is_usage_error(name, limit, capsys):
    assert MAX_FIXTURE_N[name] == limit
    code, out, err = run(capsys, "fixtures", name, "--n", str(limit + 1))
    assert (code, out) == (2, "")
    assert err == f"error: fixtures {name} --n {limit + 1} exceeds the limit of {limit}\n"


def test_fixture_q_with_too_large_power_is_usage_error(capsys):
    code, out, err = run(capsys, "fixtures", "cibils", "--n", "2", "--q", "q^50001")
    assert (code, out) == (2, "")
    assert err == (
        "error: power too large: exponent 50001 times base size 1 exceeds 50000"
        " (at offset 1)\n"
    )


def test_document_with_too_large_power_is_positioned_usage_error(tmp_path, capsys):
    path = tmp_path / "V.doc"
    path.write_text(
        "space V = { e }\n\n"
        "coproduct Delta on V:\n"
        "  e -> q^300000 * <e, e>\n"
    )
    code, out, err = run(capsys, "check", str(path), "--axiom", "coassoc",
                         "--bind", "Delta=Delta")
    assert (code, out) == (2, "")
    assert err == (
        "error: line 4, column 1: bad scalar 'q^300000': power too large: exponent"
        " 300000 times base size 1 exceeds 50000 (at offset 1)\n"
    )


def test_non_ascii_digit_is_positioned_usage_error(tmp_path, capsys):
    # A superscript two is a Unicode digit, but not a number of the reader.
    path = tmp_path / "V.doc"
    path.write_text("space V = { a }\n\ncoproduct D on V:\n  a -> \u00b2 * <a, a>\n")
    code, out, err = run(capsys, "check", str(path), "--axiom", "coassoc")
    assert (code, out) == (2, "")
    assert err == (
        "error: line 4, column 1: bad scalar '\u00b2': expected 'q', a number,"
        " or '(' (at offset 0)\n"
    )


@pytest.mark.parametrize("q", ["\u00b2", "\u0663", "q^\u00b2"])
def test_fixture_q_with_non_ascii_digit_is_usage_error(q, capsys):
    code, out, err = run(capsys, "fixtures", "cibils", "--n", "2", f"--q={q}")
    assert (code, out) == (2, "")
    assert err.startswith("error: expected ") and err.endswith(")\n")


# With each power of q computed once, these still take 1.4 to 15 s in process
# (2-core Xeon, Python 3.11); the bound refuses them before any power.
@pytest.mark.parametrize("n, q", [
    ("150", "1+q"), ("80", "1+q"), ("60", "q^500"), ("40", "(1+q)^5"), ("150", "q^20"),
])
def test_fixture_cibils_beyond_its_work_bound_is_usage_error(n, q, capsys):
    code, out, err = run(capsys, "fixtures", "cibils", "--n", n, f"--q={q}")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: fixtures cibils --n {n} --q={q} costs ")
    assert err.count("\n") == 1 and "over the limit of" in err


@pytest.mark.parametrize("n, q", [("150", "q"), ("150", "q^2"), ("150", "-9/7"), ("40", "1+q")])
def test_fixture_cibils_within_its_work_bound_is_written(n, q, capsys):
    code, out, err = run(capsys, "fixtures", "cibils", "--n", n, f"--q={q}")
    assert (code, err) == (0, "")
    assert out.splitlines()[0].endswith(f", x{int(n) - 1} }}")


def _quiet_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_complex_keeps_the_exit_code_contract(data):
    # Valid arguments are drawn more often than the unknown label "zz", the
    # unknown coproduct "Gamma", the unknown form and the refused degrees.
    structure, unit = data.draw(random_structures(grouplike_unit=data.draw(st.booleans())))
    labels = structure.space.labels
    unit = data.draw(st.sampled_from((unit,) * 3 + labels + ("zz",)), label="unit")
    coproduct = data.draw(st.sampled_from(("Delta",) * 3 + ("Gamma",)), label="coproduct")
    form = data.draw(st.sampled_from(("primary", "prime", "alternative") * 2 + ("bogus",)),
                     label="form")
    degree = data.draw(st.sampled_from(("1", "2", "3", "4") * 2 + ("-1", "0", "1000000")),
                       label="degree")
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir, "V.doc")
        path.write_text(unparse_document(document_from_structure("V", structure)))
        code, out, err = _quiet_main(["complex", str(path), "--coproduct", coproduct,
                                      "--unit", unit, "--form", form,
                                      "--max-degree", degree])
        coassoc, _, _ = _quiet_main(["check", str(path), "--axiom", "coassoc",
                                     "--bind", f"Delta={coproduct}"])
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1
        return
    assert err == ""
    grouplike = structure.coproduct("Delta").of_label(unit) == {(unit, unit): ONE}
    if grouplike:
        assert ("\tdd_degree_" in out) == (coassoc == 1)


# -- the exit-code contract of every subcommand ------------------------------

# Small fixture documents, next to the mutated documents of the grammar
# generator; option values are drawn mostly from the names in the document.
SMALL_FIXTURES = (("F",), ("slq2",), ("su2q-coalg",), ("group", "--n", "3"),
                  ("cibils", "--n", "3"), ("cibils", "--n", "2", "--q=(1+q)/2"),
                  ("debruijn", "--n", "3"))
ROLES = sorted({role for schema in AXIOMS.values() for role in schema["roles"]}
               | {"eps", "epstilde", "bogus"})
MOSTLY = st.sampled_from((True,) * 9 + (False,))
EDGE_LINES = st.sampled_from(("a -- b", "b -- c", "c -- a", "a -- a", "1 -- 2", "") * 4
                             + ("a b", "a -- b -- c", "--", " -- x", "# note", "a --"))

# channels of F into itself: a swap, and the identity, which has fixed points
F_CHANNELS = ("\nchannel Swap : F -> F:\n  a -> d\n  b -> c\n  c -> b\n  d -> a\n",
              "\nchannel Id : F -> F:\n  a -> a\n  b -> b\n  c -> c\n  d -> d\n")


@functools.lru_cache(maxsize=None)
def _fixture_text(argv):
    code, out, _ = _quiet_main(["fixtures", *argv])
    assert code == 0
    return out


def _small_documents():
    texts = [_fixture_text(argv) for argv in SMALL_FIXTURES]
    return st.sampled_from(texts + [texts[0] + channel for channel in F_CHANNELS])


def _declared(document, keyword):
    """The names of the blocks of one kind, or every label of every space."""
    if keyword == "label":
        return re.findall(r"[A-Za-z_][A-Za-z0-9_]*",
                          " ".join(re.findall(r"\{(.*)\}", document)))
    return re.findall(rf"^\s*{keyword}\s+([A-Za-z_][A-Za-z0-9_]*)", document, re.M)


def _names(document, keyword):
    """Mostly names of the right kind, sometimes a wrong or unknown one."""
    right = _declared(document, keyword)
    wrong = ["zz", "", "-x"] + _declared(document, "label")[:2]
    return st.sampled_from(right * 6 + wrong)


@st.composite
def bindings(draw, document, axiom):
    """Usually each role of ``axiom`` bound to a declared name, as one or
    several comma-joined pieces; sometimes roles left out, a role bound
    twice, a piece without '=', an empty piece, an unknown role or a role of
    another system."""
    roles = AXIOMS.get(axiom, {"roles": ("Delta",)})["roles"]
    pieces = []
    for role in [*roles, *draw(st.lists(st.sampled_from(roles), max_size=1))]:
        if draw(MOSTLY):
            kind = "counit" if role.startswith("eps") else "coproduct"
            pieces.append(f"{role}={draw(_names(document, kind))}")
    pieces += draw(st.lists(st.sampled_from(
        ("bogus=Delta", "Delta", "=Delta", "", " delta = Delta ")), max_size=1))
    return ",".join(draw(st.permutations(pieces)))


@st.composite
def cli_invocations(draw, doc_path, edges_path, missing_path):
    """(argv, document text, edges text) for one of the seven subcommands."""
    document = draw(st.one_of(mutated_documents(), _small_documents(), _small_documents()))
    edges = draw(st.one_of(st.lists(EDGE_LINES, max_size=6).map("\n".join),
                           st.just(_fixture_text(("petersen",)))))
    space, coproduct, label = (_names(document, kind)
                               for kind in ("space", "coproduct", "label"))
    axiom = draw(st.sampled_from(sorted(AXIOMS) + ["bogus"]))
    file = draw(st.sampled_from((doc_path,) * 18 + (missing_path, str(Path(doc_path).parent))))
    command = draw(st.sampled_from(("check", "support", "entangle", "bracket",
                                    "complex", "embed", "fixtures")))
    options = {
        "check": {"--space": space, "--axiom": st.just(axiom),
                  "--bind": bindings(document, axiom)},
        "support": {"--space": space, "--dot": st.just(None),
                    "--coproducts": st.one_of(st.lists(coproduct, max_size=3).map(",".join),
                                              st.sampled_from(("", ",", " , ")))},
        "entangle": {"--space": space, "--kind": st.sampled_from(("self", "achiral") * 3 + ("x",)),
                     "--coproduct": coproduct, "--cotilde": coproduct,
                     "--channel": _names(document, "channel"),
                     "--counit": _names(document, "counit"),
                     "--transport": st.sampled_from(("Delta", "Deltatilde", "Nope")),
                     "--out-space": st.sampled_from(("E", "F", "x1", "1x"))},
        "bracket": {"--space": space, "--left": coproduct, "--right": coproduct},
        "complex": {"--space": space, "--coproduct": coproduct, "--unit": label,
                    "--max-degree": st.sampled_from(("1", "2", "3") * 3 + ("0", "-1", "x")),
                    "--form": st.sampled_from(("primary", "prime", "alternative") * 3 + ("x",))},
        "embed": {"--edges": st.sampled_from((edges_path,) * 9 + (missing_path,))},
        "fixtures": {"--n": st.sampled_from(("1", "2", "3", "0", "-1", "x", "51", "151")),
                     "--q": st.sampled_from(("q", "3/7", "(1+q)/2", "q^", "1/0", "",
                                             "q^100000", "\u0663"))},
    }[command]
    argv = [command]
    if command == "fixtures":
        argv += draw(st.lists(st.sampled_from(FIXTURE_NAMES + ("bogus",)), max_size=1))
    elif command != "embed":
        argv.append(file)
    if command == "entangle" and draw(MOSTLY):
        # --kind achiral with the --cotilde it needs, or --kind self, which
        # refuses one; the other draws pair any kind with any option
        kind = draw(st.sampled_from(("self", "achiral")))
        argv += ["--kind", kind] + (["--cotilde", draw(coproduct)] if kind == "achiral" else [])
        options = {k: v for k, v in options.items() if k not in ("--kind", "--cotilde")}
    # Each option at most once, except that --bind repeats; the options a
    # run needs are drawn more often (--space, since most fixture documents
    # declare two spaces) but left out now and then.
    flags = draw(st.lists(st.sampled_from(sorted(options)), max_size=3))
    for flag in ("--space", "--axiom", "--bind", "--coproducts", "--channel", "--cotilde",
                 "--left", "--right", "--unit", "--edges"):
        if flag in options and draw(MOSTLY):
            flags.append(flag)
    for flag in flags if "--bind" in flags else dict.fromkeys(flags):
        value = draw(options[flag])
        argv += [flag] if value is None else [flag, value]
    if not draw(MOSTLY):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(
            ("--bogus", "extra", "--space", "--n=2"))))
    return argv, document, edges


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_every_subcommand_keeps_the_exit_code_contract(data):
    with tempfile.TemporaryDirectory() as workdir:
        doc_path, edges_path = str(Path(workdir, "S.doc")), str(Path(workdir, "edges"))
        argv, document, edges = data.draw(cli_invocations(
            doc_path, edges_path, str(Path(workdir, "missing"))))
        Path(doc_path).write_text(document, encoding="utf-8")
        Path(edges_path).write_text(edges, encoding="utf-8")
        code, out, err = _quiet_main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1
    else:
        assert err == ""


# -- the one-pass parse, with the full parse as its oracle --------------------

# The files of one example live in "<dir>", a temporary directory that the
# test puts in place of that prefix.
DOC, EDGES, MISSING = "<dir>/S.doc", "<dir>/edges", "<dir>/missing"
GROUP2 = "space G = { g0, g1 }\ncoproduct Delta on G:\n  g0 -> <g0, g0>\n  g1 -> <g1, g1>\n"


def _main_with(parse, argv):
    """(exit code, stdout, stderr, [vars of the namespace] or []) of one
    ``main(argv)`` whose arguments ``parse`` reads."""
    namespaces = []

    def recording(argv):
        args = parse(argv)
        namespaces.append(dict(vars(args)))
        return args

    with mock.patch.object(cli, "_parse", recording):
        return (*_quiet_main(argv), namespaces)


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(invocation=cli_invocations(DOC, EDGES, MISSING))
@example(invocation=([], "", ""))
@example(invocation=(["-h"], "", ""))
@example(invocation=(["--help"], "", ""))
@example(invocation=(["complex", "-h"], "", ""))
@example(invocation=(["nosuch"], "", ""))
@example(invocation=(["check"], "", ""))
@example(invocation=(["complex", DOC, "--max", "2", "--unit", "g0"], GROUP2, ""))
@example(invocation=(["complex", DOC, "--unit", "g0", "--", "--max-degree", "2"], GROUP2, ""))
@example(invocation=(["check", DOC, "--axiom", "coassoc", "--bind", "Delta=Delta",
                      "--bind", "Delta=Delta"], GROUP2, ""))
@example(invocation=(["check", DOC, "--axiom", "right_counit", "--bind", "Delta=Delta",
                      "--bind", "eps=eps"], GROUP2, ""))
@example(invocation=(["complex", DOC, "--coproduct", "Delta"], GROUP2, ""))
@example(invocation=(["fixtures", "group", "--n=2", "extra"], "", ""))
@example(invocation=(["embed", "--bogus", "--edges", EDGES], "", "a -- b"))
def test_one_pass_parse_matches_the_full_parse(invocation):
    """``main`` through ``cli._parse`` and through ``_parser().parse_args``
    gives the same exit code, stdout and stderr, and the same namespace
    whenever the arguments parse.  The bytes of argparse's messages differ
    from one Python to the next, so this pins them where golden rows
    cannot."""
    argv, document, edges = invocation
    with tempfile.TemporaryDirectory() as workdir:
        Path(workdir, "S.doc").write_text(document, encoding="utf-8")
        Path(workdir, "edges").write_text(edges, encoding="utf-8")
        argv = [arg.replace("<dir>", workdir) for arg in argv]
        fast = _main_with(cli._parse, argv)
        full = _main_with(lambda argv: cli._parser().parse_args(argv), argv)
    assert fast == full


# -- the README's command-line examples, run as real processes ---------------


def readme_commands():
    """Each ``lcoalg ...`` line of the README's ``sh`` blocks, with ``\\``
    continuations joined, as (argv, file its stdout is redirected to or None)."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] != ["lcoalg"]:
                continue
            out = None
            if ">" in words:
                at = words.index(">")
                words, out = words[:at], words[at + 1]
            commands.append((words[1:], out))
    return commands


def test_readme_commands_exit_zero(tmp_path):
    commands = readme_commands()
    assert len(commands) >= 10
    env = dict(os.environ)
    src = str(Path(__file__).parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv, out in commands:
        done = subprocess.run([sys.executable, "-m", "lcoalg.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, (argv, done.stderr)
        if out is not None:
            (tmp_path / out).write_text(done.stdout, encoding="utf-8")
