"""Top-level acceptance gate: one test per contracted behaviour, each
emitting a single PASS/FAIL line (visible with pytest -s) and asserting
the same verdict."""

import pytest

from lcoalg.coalgebra import LStructure, check_axiom
from lcoalg.complexes import (
    boundary_apply,
    check_boundary_forms_agree,
    check_complex,
    flower_coproducts,
)
from lcoalg.constructions import (
    ChannelMap,
    check_ito_derivative,
    cibils_structures,
    de_bruijn_codialgebra,
    ito_pair,
    markov_entangle_de_bruijn,
)
from lcoalg.convolution import (
    check_bar_unit,
    check_dendriform_algebra,
    check_dialgebra_laws,
    check_leibniz,
    check_poisson,
    structure_constants,
)
from lcoalg.fixtures import fixture_group, fixture_petersen
from lcoalg.graphs import (
    covering_check,
    de_bruijn_graph,
    geometric_support,
    markov_coalgebra,
    natural_lift,
)
from lcoalg.linalg import tensor_product, tensor_scale, tensor_sub
from lcoalg.ncpoly import check_bridge_homomorphism, check_l_hopf, poly_letter, poly_one
from lcoalg.scalars import ONE, Q, parse_scalar

C1_LABELS = ["a", "b", "c", "d"]
C2_LABELS = ["x", "y", "z", "u"]


def _conclude(number, title, ok):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE-{number:02d} {title}: {verdict}", flush=True)
    assert ok, f"acceptance criterion {number} failed"


def test_criterion_01_coassociativity_and_markov_contrast(f_data):
    checks = []
    checks.append(
        check_axiom(f_data["structure"], "coassoc", {"Delta": "Delta"}).passed
    )
    markov = markov_coalgebra(f_data["digraph"])
    checks.append(
        check_axiom(
            markov, "entanglement",
            {"Delta": "DeltaM", "Deltatilde": "DeltatildeM"},
        ).passed
    )
    failed = check_axiom(markov, "coassoc", {"Delta": "DeltaM"})
    checks.append(not failed.passed)
    checks.append(len(failed.witnesses) > 0)  # a concrete witness is named
    _conclude(1, "coassociativity and the Markov contrast", all(checks))


def test_criterion_02_self_entanglement_axiom_family(f_entangled):
    s = f_entangled.structure
    checks = [
        check_axiom(
            s, "codipterous", {"Delta": "Delta_star", "delta": "delta1"}
        ).passed,
        check_axiom(
            s, "anti_codipterous",
            {"Delta": "Delta_star", "deltahat": "deltahat1"},
        ).passed,
        check_axiom(
            s, "pre_dendriform",
            {"Delta": "Delta_star", "delta": "delta1", "deltahat": "deltahat1"},
        ).passed,
        check_axiom(
            s, "codialgebra", {"delta": "delta1", "deltahat": "deltahat1"}
        ).passed,
        check_axiom(
            s, "cotrialgebra",
            {"Delta": "Delta_star", "delta": "delta1", "deltahat": "deltahat1"},
        ).passed,
        s.coproduct("delta1").of_label("x")
        == {("a", "x"): ONE, ("b", "z"): ONE},
        s.coproduct("deltahat1").of_label("x")
        == {("x", "a"): ONE, ("y", "c"): ONE},
    ]
    _conclude(2, "self-entanglement axiom family", all(checks))


def test_criterion_03_bracket_table(f_entangled):
    s = f_entangled.structure
    table = structure_constants(s, s.space.labels, s.space.labels)
    checks = [
        table[("a", "b")] == {"b": ONE},
        table[("b", "c")] == {"a": ONE, "d": -ONE},
        table[("a", "x")] == {},
        table[("y", "c")] == {"x": ONE, "u": -ONE},
        all(table[(i, j)] == {} for i in C1_LABELS for j in C2_LABELS),
        # Exact evaluation of the remaining mixed entry: it vanishes.
        table[("x", "a")] == {},
    ]
    _conclude(3, "dual-basis bracket table", all(checks))


def test_criterion_04_bracket_laws(f_entangled):
    s = f_entangled.structure
    checks = [
        check_leibniz(s).passed,
        check_poisson(s).passed,
        check_dialgebra_laws(s).passed,
        check_dendriform_algebra(s).passed,
    ]
    _conclude(4, "Leibniz, Poisson, dialgebra, dendriform laws", all(checks))


def test_criterion_05_bar_unit(f_entangled):
    eps_star = f_entangled.counits["eps_star"]
    report = check_bar_unit(f_entangled.structure, eps_star)
    _conclude(5, "bar unit from the solved counit", report.passed)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("q_text", ["q", "2"])
def test_criterion_06_composition_gluing(n, q_text):
    s = cibils_structures(n, parse_scalar(q_text))
    total = s.coproduct("delta").add(s.coproduct("deltahat_d"))
    probe = s.with_coproduct("Delta_bar", total)
    checks = [
        check_axiom(
            s, "codialgebra", {"delta": "delta", "deltahat": "deltahat"}
        ).passed,
        check_axiom(
            s, "dendriform_coalgebra",
            {"delta": "delta", "deltahat": "deltahat_d"},
        ).passed,
        check_axiom(probe, "coassoc", {"Delta": "Delta_bar"}).passed,
    ]
    _conclude(6, f"composition gluing (n={n}, q={q_text})", all(checks))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_criterion_07_de_bruijn_support(n):
    left = de_bruijn_codialgebra(n, prefix="x")
    right = de_bruijn_codialgebra(n, prefix="y")
    channel = ChannelMap(
        left.space, right.space,
        {f"x{i}": {f"y{i}": ONE} for i in range(1, n + 1)},
    )
    entangled = markov_entangle_de_bruijn(left, right, "DeltaM", channel)
    support = geometric_support(entangled.structure, ["delta_M", "delta"])
    expected = de_bruijn_graph(2 * n)
    checks = [
        len(support.vertices) == len(expected.vertices) == 2 * n,
        len(support.arrows) == len(expected.arrows) == (2 * n) ** 2,
        set(support.arrows.values()) == {ONE},
    ]
    _conclude(7, f"De Bruijn entanglement support (n={n})", all(checks))


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_08_boundary_complexes(n):
    s = fixture_group(n)
    flowers = flower_coproducts(s.space, "g0")
    difference = s.coproduct("Delta").sub(flowers["Delta_f"])
    degree_one_matches = all(
        boundary_apply(s, "Delta", "g0", {(lab,): ONE})
        == difference.of_label(lab)
        for lab in s.space.labels
    )
    checks = [
        check_complex(s, "Delta", "g0", max_degree=3).passed,
        degree_one_matches,
        check_complex(s, "Delta", "g0", max_degree=3, form="prime").passed,
        check_boundary_forms_agree(s, "Delta", "g0", max_degree=3).passed,
    ]
    _conclude(8, f"boundary complexes (order {n})", all(checks))


def test_criterion_09_ito_derivatives(group3, group_split):
    flowers = flower_coproducts(group3.space, "g0")
    probe = LStructure(
        group3.space,
        {**group3.coproducts, **flowers},
        dict(group3.counits),
        algebra=group3.algebra,
    )
    d_right, d_left, flower_report = ito_pair(
        probe, right=("Delta", "delta_f"), left=("Delta", "deltatilde_f")
    )
    s = group_split.structure
    e_right, e_left, split_report = ito_pair(
        s, right=("Delta_star", "delta1"), left=("Delta_star", "deltahat1")
    )
    checks = [
        flower_report.passed,
        check_ito_derivative(group3.algebra, d_right, flowers["delta_f"]).passed,
        check_ito_derivative(
            group3.algebra, d_left, flowers["deltatilde_f"]
        ).passed,
        split_report.passed,
        check_ito_derivative(s.algebra, e_right, s.coproduct("delta1")).passed,
        check_ito_derivative(s.algebra, e_left, s.coproduct("deltahat1")).passed,
    ]
    _conclude(9, "derivative pairs on flower and split group", all(checks))


def test_criterion_10_petersen_lift():
    graph = fixture_petersen()
    digraph, structure, family = natural_lift(graph)
    loops = [(s, t) for (s, t) in digraph.arrows if s == t]
    bridges_coassociative = all(
        check_axiom(structure, "coassoc", {"Delta": name}).passed
        for name in family
    )
    checks = [
        len(loops) == 10,
        len(digraph.arrows) - len(loops) == 30,
        bridges_coassociative,
        covering_check(digraph, structure, family).passed,
    ]
    _conclude(10, "Petersen natural lift and covering", all(checks))


def test_criterion_11_quantum_group_presentation(qm_data):
    rs1 = qm_data["rewrite1"]
    det = tensor_sub(
        tensor_sub(
            tensor_product(poly_letter("a"), poly_letter("d")),
            tensor_scale(tensor_product(poly_letter("b"), poly_letter("c")), Q ** -1),
        ),
        poly_one(),
    )
    checks = [
        rs1.normalize(det) == {},
        check_bridge_homomorphism(
            qm_data["bridge1_nc"], qm_data["relations1"], rs1,
            qm_data["rewrite2"],
        ).passed,
        check_bridge_homomorphism(
            qm_data["delta1_nc"], qm_data["relations1"], rs1, rs1
        ).passed,
        check_bridge_homomorphism(
            qm_data["delta2_nc"], qm_data["relations2"],
            qm_data["rewrite2"], qm_data["rewrite2"],
        ).passed,
        check_l_hopf(
            qm_data["antipode"], ["a", "b", "c", "d", "x", "y", "z", "u"]
        ).passed,
    ]
    _conclude(11, "quantum-group presentation", all(checks))


def test_criterion_12_cli_round_trip(tmp_path, capsys):
    from lcoalg.cli import main

    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    checks = []
    code, text = run("fixtures", "F")
    checks.append(code == 0)
    doc = tmp_path / "F.doc"
    doc.write_text(text)
    code, _ = run(
        "check", str(doc), "--space", "F",
        "--axiom", "coassoc", "--bind", "Delta=Delta",
    )
    checks.append(code == 0)
    code, _ = run(
        "support", str(doc), "--space", "F", "--coproducts", "Delta"
    )
    checks.append(code == 0)
    code, entangled_text = run(
        "entangle", str(doc), "--space", "F", "--kind", "self",
        "--coproduct", "Delta", "--channel", "Phi", "--counit", "eps",
        "--out-space", "E",
    )
    checks.append(code == 0)
    e_doc = tmp_path / "E.doc"
    e_doc.write_text(entangled_text)
    code, _ = run("bracket", str(e_doc), "--space", "E")
    checks.append(code == 0)
    code, group_text = run("fixtures", "group", "--n", "3")
    checks.append(code == 0)
    g_doc = tmp_path / "G.doc"
    g_doc.write_text(group_text)
    code, _ = run(
        "complex", str(g_doc), "--space", "G",
        "--coproduct", "Delta", "--unit", "g0",
    )
    checks.append(code == 0)
    code, petersen_text = run("fixtures", "petersen")
    checks.append(code == 0)
    edges = tmp_path / "p.edges"
    edges.write_text(petersen_text)
    code, _ = run("embed", "--edges", str(edges))
    checks.append(code == 0)
    code, _ = run("fixtures")
    checks.append(code == 0)
    # Corrupt one coefficient: the check must fail with a witness line
    # naming the axiom and the offending basis label.
    corrupted = text.replace(
        "a -> <a, a> + <b, c>", "a -> <a, a> + q * <b, c>"
    )
    checks.append(corrupted != text)
    bad = tmp_path / "F_bad.doc"
    bad.write_text(corrupted)
    code, out = run(
        "check", str(bad), "--space", "F",
        "--axiom", "coassoc", "--bind", "Delta=Delta",
    )
    checks.append(code == 1)
    checks.append("witness\tcoassoc\tcoassoc(Delta)\tb" in out.splitlines())
    _conclude(12, "command-line round trip", all(checks))
