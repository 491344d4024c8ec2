"""Text format for spaces, coproducts, counits, algebras, and channels:
round-trips through the canonical unparser and positioned diagnostics."""

import pytest

from lcoalg.coalgebra import check_axiom
from lcoalg.dsl import (
    DslError,
    document_from_structure,
    parse_document,
    unparse_document,
)
from lcoalg.fixtures import (
    fixture_f,
    fixture_group,
    fixture_quantum_sphere,
)
from lcoalg.scalars import ONE, Q


def round_trip(doc):
    text = unparse_document(doc)
    reparsed = parse_document(text)
    assert unparse_document(reparsed) == text
    return reparsed


def test_round_trip_matrix_coalgebra():
    data = fixture_f()
    doc = document_from_structure("V", data["structure"])
    reparsed = round_trip(doc)
    s = reparsed.structure("V")
    assert check_axiom(s, "coassoc", {"Delta": "Delta"}).passed
    assert s.coproduct("Delta").of_label("a") == {("a", "a"): ONE, ("b", "c"): ONE}


def test_round_trip_quantum_sphere_with_channel():
    data = fixture_quantum_sphere()
    doc = document_from_structure("S", data["structure"])
    doc.spaces["T"] = data["c2"].labels
    doc.channels["phi"] = ("S", "T", data["channel"].forward)
    reparsed = round_trip(doc)
    channel = reparsed.channel("phi")
    assert channel.apply({"a": ONE}) == data["channel"].apply({"a": ONE})


def test_round_trip_group_algebra():
    s = fixture_group(4)
    doc = document_from_structure("G", s)
    reparsed = round_trip(doc)
    rebuilt = reparsed.structure("G")
    assert rebuilt.algebra is not None
    assert rebuilt.algebra.mul_labels("g1", "g3") == {"g0": ONE}
    assert rebuilt.counits["eps"] == s.counits["eps"]


def test_parse_simple_document():
    doc = parse_document(
        """
        # two labels, one coproduct
        space V = { a, b }

        coproduct D on V:
          a -> <a, a>
          b -> q * <a, b> + (q + 1) * <b, a>
        """
    )
    s = doc.structure("V")
    assert s.coproduct("D").of_label("b") == {("a", "b"): Q, ("b", "a"): Q + ONE}


def test_counit_and_zero_values():
    doc = parse_document(
        "space V = { a, b }\n"
        "counit e on V:\n"
        "  a -> 1\n"
        "  b -> 0\n"
    )
    assert doc.counits["e"][1] == {"a": ONE}


def test_bad_space_declaration_position():
    with pytest.raises(DslError) as err:
        parse_document("space V = a, b\n")
    assert err.value.line == 1
    assert "space NAME = { label, ... }" in err.value.expected


def test_unknown_space_in_header():
    with pytest.raises(DslError) as err:
        parse_document("space V = { a }\ncoproduct D on W:\n")
    assert err.value.line == 2
    assert "unknown space" in str(err.value)


def test_bad_tensor_term_reports_line():
    with pytest.raises(DslError) as err:
        parse_document(
            "space V = { a }\n"
            "coproduct D on V:\n"
            "  a -> <a a>\n"
        )
    assert err.value.line == 3
    assert "[scalar *] <label, label>" in err.value.expected


def test_minus_between_tensor_terms_names_the_term():
    # Terms are joined only with '+'; a '-' leaves two pairs in one term.
    with pytest.raises(DslError) as err:
        parse_document(
            "space V = { e, x }\n"
            "coproduct D on V:\n"
            "  x -> <x, x> + q * <x, e> - 1/2 * <e, x>\n"
        )
    assert err.value.line == 3
    assert str(err.value) == (
        "line 3, column 1: tensor term 'q * <x, e> - 1/2 * <e, x>' holds 2 "
        "pairs; terms are joined with '+', as in '+ -1/2 * <e, x>'"
    )
    doc = parse_document(
        "space V = { e, x }\n"
        "coproduct D on V:\n"
        "  x -> <x, x> + q * <x, e> + -1/2 * <e, x> + 1/2 * <e, x>\n"
    )
    assert doc.coproducts["D"][1]["x"] == {("x", "x"): ONE, ("x", "e"): Q}


def test_undeclared_label_rejected():
    with pytest.raises(DslError) as err:
        parse_document(
            "space V = { a }\n"
            "coproduct D on V:\n"
            "  a -> <a, z>\n"
        )
    assert err.value.line == 3
    assert "'z'" in str(err.value)


def test_duplicate_labels_and_spaces():
    with pytest.raises(DslError):
        parse_document("space V = { a, a }\n")
    with pytest.raises(DslError):
        parse_document("space V = { a }\nspace V = { b }\n")
    with pytest.raises(DslError) as err:
        parse_document(
            "space V = { a }\n"
            "coproduct D on V:\n"
            "  a -> <a, a>\n"
            "  a -> <a, a>\n"
        )
    assert err.value.line == 4


def test_bad_scalar_reports_line():
    with pytest.raises(DslError) as err:
        parse_document(
            "space V = { a }\n"
            "counit e on V:\n"
            "  a -> q^\n"
        )
    assert err.value.line == 3
    assert "bad scalar" in str(err.value)


def test_line_outside_any_block():
    with pytest.raises(DslError) as err:
        parse_document("a -> <a, a>\n")
    assert err.value.line == 1
    assert "space" in err.value.expected
    assert "channel" in err.value.expected


def test_unbalanced_bracket():
    with pytest.raises(DslError):
        parse_document(
            "space V = { a }\n"
            "coproduct D on V:\n"
            "  a -> (q * <a, a>\n"
        )


def test_multi_term_scalar_needs_parentheses():
    # Without parentheses the '+' splits the term list, so 'q +' alone is
    # not a valid term; with parentheses the scalar stays together.
    doc = parse_document(
        "space V = { a }\n"
        "coproduct D on V:\n"
        "  a -> (1 + q) * <a, a>\n"
    )
    assert doc.coproducts["D"][1]["a"] == {("a", "a"): ONE + Q}
    with pytest.raises(DslError):
        parse_document(
            "space V = { a }\n"
            "coproduct D on V:\n"
            "  a -> 1 + q * <a, a>\n"
        )


def test_algebra_block():
    doc = parse_document(
        "space V = { e, g }\n"
        "algebra A on V:\n"
        "  unit -> e\n"
        "  e * e -> e\n"
        "  e * g -> g\n"
        "  g * e -> g\n"
        "  g * g -> e\n"
    )
    s = doc.structure("V")
    assert s.algebra.mul_labels("g", "g") == {"e": ONE}
    with pytest.raises(DslError):
        parse_document(
            "space V = { e }\n"
            "algebra A on V:\n"
            "  e * e * e -> e\n"
        )


def test_channel_block_between_spaces():
    doc = parse_document(
        "space V = { a }\n"
        "space W = { x }\n"
        "channel phi : V -> W:\n"
        "  a -> q * x\n"
    )
    channel = doc.channel("phi")
    assert channel.apply({"a": ONE}) == {"x": Q}
    with pytest.raises(KeyError):
        doc.channel("psi")


def test_structure_requires_known_space():
    doc = parse_document("space V = { a }\n")
    with pytest.raises(KeyError):
        doc.structure("W")
