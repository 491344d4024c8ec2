"""Text format for spaces, coproducts, counits, algebras, and channels:
round-trips through the canonical unparser and positioned diagnostics.
The reader as it was before its one-pass rewrite is kept here as the
oracle of a hypothesis property over mutated documents, and the reader as
it was before it read each distinct term line once as the oracle of one
over documents whose lines repeat; the chunk reader is the oracle of the
string-method term reader on any line, the two-regex reader it replaced
its oracle on bare lines, and the unparser's old regex rule the oracle of
its bare-or-parenthesised choice."""

import operator
import re
from fractions import Fraction
from functools import reduce
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcoalg import dsl
from lcoalg.cli import main
from lcoalg.coalgebra import check_axiom
from lcoalg.dsl import (
    DslError,
    SpecDocument,
    document_from_structure,
    parse_document,
    unparse_document,
)
from lcoalg.fixtures import (
    fixture_cibils,
    fixture_f,
    fixture_group,
    fixture_quantum_sphere,
)
from lcoalg.linalg import Tensor, Vector, add_scaled
from lcoalg.scalars import MINUS_ONE, ONE, Q, ZERO, Scalar, ScalarSyntaxError, parse_scalar
from test_scalars import scalars, shaped_scalars


# -- the reader before the one-pass rewrite, kept as the oracle ------------


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_SPACE_RE = re.compile(rf"^space\s+({_NAME})\s*=\s*\{{(.*)\}}\s*$")
_COPRODUCT_RE = re.compile(rf"^coproduct\s+({_NAME})\s+on\s+({_NAME})\s*:\s*$")
_COUNIT_RE = re.compile(rf"^counit\s+({_NAME})\s+on\s+({_NAME})\s*:\s*$")
_ALGEBRA_RE = re.compile(rf"^algebra\s+({_NAME})\s+on\s+({_NAME})\s*:\s*$")
_CHANNEL_RE = re.compile(
    rf"^channel\s+({_NAME})\s*:\s*({_NAME})\s*->\s*({_NAME})\s*:\s*$"
)
_PAIR_RE = re.compile(rf"<\s*{_NAME}\s*,\s*{_NAME}\s*>")
_PAIR_TERM_RE = re.compile(rf"^(?:(.*)\*)?\s*<\s*({_NAME})\s*,\s*({_NAME})\s*>\s*$")
_VEC_TERM_RE = re.compile(rf"^(?:(.*)\*)?\s*({_NAME})\s*$")
_KEYWORDS = ("space", "coproduct", "counit", "algebra", "channel")
# The changes since: a line ends only at these breaks, and a line whose
# first word is followed by '->' or '*' is a row, even if that word is a
# keyword.
_LINE_BREAK = re.compile(r"\r\n|\r|\n")
_LABEL_ROW = re.compile(r"\S+\s+(->|\*)")


# The changes since: an unbalanced bracket is reported at its column in
# the source line (``column`` is that of ``text[0]``), at the unmatched
# closer or the last unclosed opener, where it was reported at an offset
# into the right-hand side; and a space label must be a name (checked in
# ``oracle_parse_document``).
def _split_top_plus(text: str, line: int, column: int) -> List[str]:
    parts: List[str] = []
    openers: List[int] = []
    current: List[str] = []
    for i, ch in enumerate(text):
        if ch == "(" or ch == "<":
            openers.append(i)
        elif ch == ")" or ch == ">":
            if not openers:
                raise DslError("unbalanced bracket", line, column + i)
            openers.pop()
        if ch == "+" and not openers:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if openers:
        raise DslError("unbalanced bracket", line, column + openers[-1])
    parts.append("".join(current))
    return parts


def _parse_scalar_prefix(raw: Optional[str], line: int) -> Scalar:
    if raw is None or not raw.strip():
        return ONE
    try:
        return parse_scalar(raw.strip())
    except ScalarSyntaxError as exc:
        raise DslError(f"bad scalar {raw.strip()!r}: {exc}", line) from exc


def _parse_pair_terms(rhs: str, line: int, column: int) -> Tensor:
    tensor: Tensor = {}
    for chunk in _split_top_plus(rhs, line, column):
        chunk = chunk.strip()
        pairs = len(_PAIR_RE.findall(chunk))
        if pairs > 1:
            raise DslError(
                f"tensor term {chunk!r} holds {pairs} pairs; terms are joined"
                " with '+', as in '+ -1/2 * <e, x>'", line,
            )
        m = _PAIR_TERM_RE.match(chunk)
        if not m:
            raise DslError(
                f"bad tensor term {chunk!r}", line,
                expected=["[scalar *] <label, label>"],
            )
        coeff = _parse_scalar_prefix(m.group(1), line)
        add_scaled(tensor, [((m.group(2), m.group(3)), coeff)], ONE)
    return tensor


def _parse_vec_terms(rhs: str, line: int, column: int) -> Vector:
    vec: Vector = {}
    for chunk in _split_top_plus(rhs, line, column):
        chunk = chunk.strip()
        m = _VEC_TERM_RE.match(chunk)
        if not m:
            raise DslError(
                f"bad vector term {chunk!r}", line,
                expected=["[scalar *] label"],
            )
        coeff = _parse_scalar_prefix(m.group(1), line)
        add_scaled(vec, [(m.group(2), coeff)], ONE)
    return vec


def oracle_parse_document(text: str) -> SpecDocument:
    doc = SpecDocument()
    # block: (kind, name, space or (src, dst), accumulating table)
    block: Optional[Tuple[str, ...]] = None
    block_data: Dict = {}
    # Every left-hand side of the block so far, zero counit values included
    defined: set = set()

    def close_block():
        nonlocal block, block_data
        defined.clear()
        if block is None:
            return
        kind = block[0]
        if kind == "coproduct":
            doc.coproducts[block[1]] = (block[2], block_data)
        elif kind == "counit":
            doc.counits[block[1]] = (block[2], block_data)
        elif kind == "algebra":
            unit = block_data.pop("__unit__", {})
            doc.algebras[block[1]] = (block[2], unit, block_data)
        elif kind == "channel":
            doc.channels[block[1]] = (block[2], block[3], block_data)
        block = None
        block_data = {}

    def check_labels(space_name: str, labels: List[str], lineno: int):
        declared = doc.spaces.get(space_name)
        if declared is None:
            raise DslError(f"unknown space {space_name!r}", lineno)
        for lab in labels:
            if lab not in declared:
                raise DslError(
                    f"label {lab!r} is not declared in space {space_name!r}", lineno
                )

    for lineno, raw in enumerate(_LINE_BREAK.split(text), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        word = stripped.split(None, 1)[0]
        if word in _KEYWORDS and not _LABEL_ROW.match(stripped):
            close_block()
            if word == "space":
                m = _SPACE_RE.match(stripped)
                if not m:
                    raise DslError(
                        "bad space declaration", lineno,
                        expected=["space NAME = { label, ... }"],
                    )
                name, body = m.group(1), m.group(2)
                labels = [p.strip() for p in body.split(",") if p.strip()]
                if not labels:
                    raise DslError("space needs at least one label", lineno)
                for lab in labels:
                    if not re.fullmatch(_NAME, lab):
                        raise DslError(f"bad space label {lab!r}", lineno,
                                       expected=[_NAME])
                if name in doc.spaces:
                    raise DslError(f"space {name!r} declared twice", lineno)
                if len(set(labels)) != len(labels):
                    raise DslError("duplicate labels in space", lineno)
                doc.spaces[name] = tuple(labels)
            elif word == "coproduct":
                m = _COPRODUCT_RE.match(stripped)
                if not m:
                    raise DslError(
                        "bad coproduct header", lineno,
                        expected=["coproduct NAME on SPACE:"],
                    )
                if m.group(2) not in doc.spaces:
                    raise DslError(f"unknown space {m.group(2)!r}", lineno)
                block = ("coproduct", m.group(1), m.group(2))
            elif word == "counit":
                m = _COUNIT_RE.match(stripped)
                if not m:
                    raise DslError(
                        "bad counit header", lineno,
                        expected=["counit NAME on SPACE:"],
                    )
                if m.group(2) not in doc.spaces:
                    raise DslError(f"unknown space {m.group(2)!r}", lineno)
                block = ("counit", m.group(1), m.group(2))
            elif word == "algebra":
                m = _ALGEBRA_RE.match(stripped)
                if not m:
                    raise DslError(
                        "bad algebra header", lineno,
                        expected=["algebra NAME on SPACE:"],
                    )
                if m.group(2) not in doc.spaces:
                    raise DslError(f"unknown space {m.group(2)!r}", lineno)
                block = ("algebra", m.group(1), m.group(2))
            else:
                m = _CHANNEL_RE.match(stripped)
                if not m:
                    raise DslError(
                        "bad channel header", lineno,
                        expected=["channel NAME : SPACE -> SPACE:"],
                    )
                for sp in (m.group(2), m.group(3)):
                    if sp not in doc.spaces:
                        raise DslError(f"unknown space {sp!r}", lineno)
                block = ("channel", m.group(1), m.group(2), m.group(3))
            # a block is stored when it closes, so a second one of one kind
            # and one name finds the first stored
            if block is not None and block[1] in getattr(doc, block[0] + "s"):
                raise DslError(f"{block[0]} {block[1]!r} defined twice", lineno)
            continue

        if block is None:
            raise DslError(
                f"unexpected line {stripped!r}", lineno, expected=list(_KEYWORDS)
            )
        if "->" not in stripped:
            raise DslError("expected 'lhs -> rhs'", lineno)
        lhs, rhs = stripped.split("->", 1)
        lhs = lhs.strip()
        rhs = rhs.strip()
        after = raw.split("#", 1)[0].split("->", 1)[1]
        column = len(raw.split("#", 1)[0]) - len(after.lstrip()) + 1
        kind = block[0]
        if kind == "coproduct":
            space_name = block[2]
            check_labels(space_name, [lhs], lineno)
            tensor = _parse_pair_terms(rhs, lineno, column)
            check_labels(
                space_name, [lab for term in tensor for lab in term], lineno
            )
            if lhs in defined:
                raise DslError(f"label {lhs!r} defined twice", lineno)
            defined.add(lhs)
            block_data[lhs] = tensor
        elif kind == "counit":
            check_labels(block[2], [lhs], lineno)
            try:
                value = parse_scalar(rhs)
            except ScalarSyntaxError as exc:
                raise DslError(f"bad scalar {rhs!r}: {exc}", lineno) from exc
            if lhs in defined:
                raise DslError(f"label {lhs!r} defined twice", lineno)
            defined.add(lhs)
            if not value.is_zero():
                block_data[lhs] = value
        elif kind == "algebra":
            space_name = block[2]
            vec = _parse_vec_terms(rhs, lineno, column)
            check_labels(space_name, list(vec), lineno)
            if lhs == "unit":
                if "__unit__" in block_data:
                    raise DslError("unit defined twice", lineno)
                block_data["__unit__"] = vec
            else:
                factors = [p.strip() for p in lhs.split("*")]
                if len(factors) != 2:
                    raise DslError(
                        "expected 'label * label -> ...' or 'unit -> ...'", lineno
                    )
                check_labels(space_name, factors, lineno)
                if (factors[0], factors[1]) in block_data:
                    raise DslError(
                        f"product '{factors[0]} * {factors[1]}' defined twice", lineno
                    )
                block_data[(factors[0], factors[1])] = vec
        else:  # channel
            src, dst = block[2], block[3]
            check_labels(src, [lhs], lineno)
            vec = _parse_vec_terms(rhs, lineno, column)
            check_labels(dst, list(vec), lineno)
            if lhs in block_data:
                raise DslError(f"label {lhs!r} defined twice", lineno)
            block_data[lhs] = vec
    close_block()
    return doc




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
    doc.spaces["T"] = data["channel"].c2.labels
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
    assert err.value.expected == ["space NAME = { label, ... }"]
    assert str(err.value) == (
        "line 1, column 1: bad space declaration (expected space NAME = { label, ... })"
    )


def test_unknown_space_in_header():
    with pytest.raises(DslError) as err:
        parse_document("space V = { a }\ncoproduct D on W:\n")
    assert err.value.line == 2
    assert str(err.value) == "line 2, column 1: unknown space 'W'"


def test_bad_tensor_term_reports_line():
    with pytest.raises(DslError) as err:
        parse_document(
            "space V = { a }\n"
            "coproduct D on V:\n"
            "  a -> <a a>\n"
        )
    assert err.value.line == 3
    assert err.value.expected == ["[scalar *] <label, label>"]
    assert str(err.value) == (
        "line 3, column 1: bad tensor term '<a a>' (expected [scalar *] <label, label>)"
    )


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
    assert str(err.value) == "line 3, column 1: label 'z' is not declared in space 'V'"


@pytest.mark.parametrize("body, label", [
    ("a b", "a b"), ("a, 1b", "1b"), ("a, b-c", "b-c"), ("a, a, b c", "b c"),
])
def test_space_label_must_be_a_name(body, label):
    """A label no term can name is refused, before the duplicate check."""
    with pytest.raises(DslError) as err:
        parse_document(f"space V = {{ {body} }}\n")
    assert str(err.value) == (
        f"line 1, column 1: bad space label {label!r} (expected [A-Za-z_][A-Za-z0-9_]*)"
    )


def test_duplicate_labels_and_spaces():
    with pytest.raises(DslError) as err:
        parse_document("space V = { a, a }\n")
    assert str(err.value) == "line 1, column 1: duplicate labels in space"
    with pytest.raises(DslError) as err:
        parse_document("space V = { a }\nspace V = { b }\n")
    assert str(err.value) == "line 2, column 1: space 'V' declared twice"
    with pytest.raises(DslError) as err:
        parse_document(
            "space V = { a }\n"
            "coproduct D on V:\n"
            "  a -> <a, a>\n"
            "  a -> <a, a>\n"
        )
    assert err.value.line == 4
    assert str(err.value) == "line 4, column 1: label 'a' defined twice"


@pytest.mark.parametrize("block, lines, message", [
    ("counit e on V:", ("a -> 1", "a -> 5"), "label 'a'"),
    ("counit e on V:", ("a -> 0", "a -> 5"), "label 'a'"),
    ("channel P : V -> V:", ("a -> a", "b -> b", "a -> 2 * b"), "label 'a'"),
    ("algebra A on V:", ("a * b -> a", "a*b -> b"), "product 'a * b'"),
    ("algebra A on V:", ("unit -> a", "a * a -> a", "unit -> b"), "unit"),
])
def test_a_second_definition_in_a_block_is_refused(block, lines, message):
    text = "space V = { a, b }\n" + block + "\n" + "".join(f"  {ln}\n" for ln in lines)
    with pytest.raises(DslError) as err:
        parse_document(text)
    lineno = 2 + len(lines)
    assert str(err.value) == f"line {lineno}, column 1: {message} defined twice"
    with pytest.raises(DslError) as oracle_err:
        oracle_parse_document(text)
    assert str(oracle_err.value) == str(err.value)
    # A repeat in another block of the same kind is no repeat.
    keyword, name, rest = block.split(" ", 2)
    parse_document(text.replace(lines[-1], f"{keyword} {name}2 {rest}\n  {lines[-1]}"))


@pytest.mark.parametrize("header, row", [
    ("coproduct D on V:", "a -> <a, a>"),
    ("counit D on V:", "a -> 1"),
    ("algebra D on V:", "unit -> a"),
    ("channel D : V -> V:", "a -> a"),
])
def test_a_second_block_with_one_name_is_refused(header, row):
    text = f"space V = {{ a, b }}\n{header}\n  {row}\n{header}\n"
    for reader in (parse_document, oracle_parse_document, per_line_parse_document):
        with pytest.raises(DslError) as err:
            reader(text)
        assert str(err.value) == f"line 4, column 1: {header.split()[0]} 'D' defined twice"
    # Blocks of two kinds may share a name.
    parse_document("space V = { a }\ncoproduct D on V:\ncounit D on V:\n"
                   "algebra D on V:\nchannel D : V -> V:\n")


def test_bad_scalar_reports_line():
    with pytest.raises(DslError) as err:
        parse_document(
            "space V = { a }\n"
            "counit e on V:\n"
            "  a -> q^\n"
        )
    assert err.value.line == 3
    assert str(err.value) == (
        "line 3, column 1: bad scalar 'q^': expected an integer (at offset 2)"
    )


def test_line_outside_any_block():
    with pytest.raises(DslError) as err:
        parse_document("a -> <a, a>\n")
    assert err.value.line == 1
    assert err.value.expected == ["space", "coproduct", "counit", "algebra", "channel"]
    assert str(err.value) == (
        "line 1, column 1: unexpected line 'a -> <a, a>'"
        " (expected space | coproduct | counit | algebra | channel)"
    )


# The breaks that str.splitlines knows besides "\n", "\r\n" and "\r"
OTHER_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("brk", OTHER_BREAKS)
def test_a_line_ends_only_at_a_newline_or_carriage_return(brk):
    doc = parse_document(f"space V = {{ a }}\n# note{brk}coproduct D on V:\n")
    assert doc.coproducts == {}
    doc = parse_document(
        f"space V = {{ a }}\r\ncoproduct D on V:  # of{brk}the paper\r  a -> <a, a>\n")
    assert doc.coproducts == {"D": ("V", {"a": {("a", "a"): ONE}})}
    with pytest.raises(DslError) as err:
        parse_document(f"space V = {{ a }}\r\n#{brk}x\rcoproduct D on V:\n  a -> <a, z>\n")
    assert str(err.value) == "line 4, column 1: label 'z' is not declared in space 'V'"


def test_a_label_may_be_named_like_a_block_keyword():
    text = ("space V = { space, coproduct, counit, algebra, channel }\n"
            "space W = { counit }\n"
            "coproduct D on V:\n  counit -> <counit, space>\n"
            "  space -> 2 * <algebra, channel> + <coproduct, counit>\n"
            "counit e on V:\n  coproduct -> 1\n  algebra\t-> q\n"
            "algebra A on V:\n  unit -> space\n  counit * channel -> algebra\n"
            "  channel\t* space -> 2 * counit\n"
            "channel P : V -> W:\n  channel -> 2 * counit\n  space -> counit\n")
    doc = parse_document(text)
    assert list(doc.coproducts["D"][1]) == ["counit", "space"]
    assert list(doc.counits["e"][1]) == ["coproduct", "algebra"]
    assert list(doc.algebras["A"][2]) == [("counit", "channel"), ("channel", "space")]
    assert list(doc.channels["P"][2]) == ["channel", "space"]
    assert parse_document(unparse_document(doc)) == doc
    # A keyword followed by anything else still starts a header.
    for line, message in (("counit e on V", "bad counit header"),
                          ("coproduct -- <a, a>", "bad coproduct header"),
                          ("algebra A on V: a -> a", "bad algebra header")):
        with pytest.raises(DslError, match=message):
            parse_document(f"space V = {{ a }}\ncoproduct D on V:\n  {line}\n")


def test_unbalanced_bracket():
    with pytest.raises(DslError) as err:
        parse_document(
            "space V = { a }\n"
            "coproduct D on V:\n"
            "  a -> (q * <a, a>\n"
        )
    assert str(err.value) == "line 3, column 8: unbalanced bracket"


@pytest.mark.parametrize("block, line, column", [
    # an unmatched closer
    ("coproduct D on V:", "  a -> q) * <a, a>", 9),
    ("coproduct D on V:", "  a -> <a, a>> + <a, a>", 14),
    ("algebra A on V:", "  unit -> a)", 12),
    ("channel P : V -> V:", "  a -> a -> a", 11),
    # the last unclosed opener
    ("coproduct D on V:", "  a -> (q * <a, a>", 8),
    ("coproduct D on V:", "\ta -> <a, a> + ((1 + q) * <a, a>", 16),
    ("coproduct D on V:", "  a ->  q * <a, a  # note", 13),
])
def test_unbalanced_bracket_column_is_in_the_source_line(block, line, column):
    with pytest.raises(DslError) as err:
        parse_document(f"space V = {{ a }}\n{block}\n{line}\n")
    assert str(err.value) == f"line 3, column {column}: unbalanced bracket"
    assert line[column - 1] in "()<>"


def test_multi_term_scalar_needs_parentheses():
    # Without parentheses the '+' splits the term list, so 'q +' alone is
    # not a valid term; with parentheses the scalar stays together.
    doc = parse_document(
        "space V = { a }\n"
        "coproduct D on V:\n"
        "  a -> (1 + q) * <a, a>\n"
    )
    assert doc.coproducts["D"][1]["a"] == {("a", "a"): ONE + Q}
    with pytest.raises(DslError) as err:
        parse_document(
            "space V = { a }\n"
            "coproduct D on V:\n"
            "  a -> 1 + q * <a, a>\n"
        )
    assert str(err.value) == (
        "line 3, column 1: bad tensor term '1' (expected [scalar *] <label, label>)"
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
    with pytest.raises(DslError) as err:
        parse_document(
            "space V = { e }\n"
            "algebra A on V:\n"
            "  e * e * e -> e\n"
        )
    assert str(err.value) == (
        "line 3, column 1: expected 'label * label -> ...' or 'unit -> ...'"
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


# -- the one-pass reader against the oracle --------------------------------

# Documents are drawn from the grammar, with spaces between all tokens: both
# spaces, then blocks whose lines join terms with '+' (now and then '-'),
# some labels undeclared and some coefficients malformed.  Then tokens are
# inserted, deleted and glued together at random.
SPACES = "space V = { a , b } \n space W = { x }"
HEADERS = {
    "coproduct": "coproduct D on V :",
    "counit": "counit e on V :",
    "algebra": "algebra A on V :",
    "channel": "channel P : V -> W :",
}
LABEL = st.sampled_from(("a", "b") * 8 + ("z",))
TARGET = st.sampled_from(("x",) * 16 + ("y",))
COEFF = st.sampled_from(
    ("",) * 9 + ("1", "2", "q", "-3/7", "( 1 + q )", "(q)", "q^2", "0", "-1") * 2
    + ("1/", "0^-1", "q^100000", "(1+q)^300")
)
JOIN = st.sampled_from(("+",) * 6 + ("-",))
TOKENS = (
    "space", "coproduct", "counit", "algebra", "channel", "on", "=", "{", "}",
    ",", "a", "b", "x", "z", "unit", "D", "V", "W", "< a , b >", "<b,a>",
    "+", "-", "*", "/", "^", "(", ")", "<", ">", "->", "#", ":", "\n", "\t",
    "2", "q", "-3/7", "(1 + q)", "q^2", "0", "0^-1", "q^100000", "(1+q)^300",
)


def _terms(draw, target):
    parts = []
    for i in range(draw(st.integers(1, 3))):
        coeff = draw(COEFF)
        parts += [draw(JOIN)] if i else []
        parts += [coeff, "*"] if coeff else []
        parts += [draw(target)]
    return " ".join(parts)


def _line(draw, kind):
    if kind == "coproduct":
        return f"{draw(LABEL)} -> " + _terms(draw, st.builds(
            lambda a, b: f"< {a} , {b} >", LABEL, LABEL))
    if kind == "counit":
        return f"{draw(LABEL)} -> {draw(COEFF.filter(bool))}"
    if kind == "algebra":
        lhs = draw(st.sampled_from(("unit", f"{draw(LABEL)} * {draw(LABEL)}")))
        return f"{lhs} -> " + _terms(draw, LABEL)
    return f"{draw(LABEL)} -> " + _terms(draw, TARGET)


@st.composite
def mutated_documents(draw):
    lines = [SPACES]
    for kind in draw(st.lists(st.sampled_from(sorted(HEADERS)), max_size=4)):
        lines.append(HEADERS[kind])
        lines += [_line(draw, kind) for _ in range(draw(st.integers(0, 3)))]
    tokens = " \n ".join(lines).split(" ")
    # most edits spare the spaces, so that most blocks are read
    spared = min(len(SPACES.split(" ")) + 1, len(tokens))
    first = draw(st.sampled_from((0, spared, spared, spared)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(first, len(tokens)))
        edit = draw(st.sampled_from(("insert", "delete", "glue")))
        if edit == "insert":
            tokens.insert(i, draw(st.sampled_from(TOKENS)))
        elif edit == "delete" and i < len(tokens):
            del tokens[i]
        elif edit == "glue" and i + 1 < len(tokens):
            tokens[i:i + 2] = [tokens[i] + tokens[i + 1]]
    return " ".join(tokens)


def _ordered(value):
    """``value`` with the key order of every dict in it made explicit."""
    if isinstance(value, dict):
        return [(key, _ordered(v)) for key, v in value.items()]
    if isinstance(value, tuple):
        return tuple(_ordered(v) for v in value)
    return value


def _outcome(reader, text):
    try:
        doc = reader(text)
    except DslError as exc:
        return ("error", str(exc), exc.line, exc.column, exc.expected)
    kinds = ("spaces", "coproducts", "counits", "algebras", "channels")
    return ("document",) + tuple(_ordered(getattr(doc, kind)) for kind in kinds)


@settings(max_examples=600, deadline=None)
@given(mutated_documents())
def test_reader_matches_the_oracle_on_mutated_documents(text):
    assert _outcome(parse_document, text) == _outcome(oracle_parse_document, text)


def test_reader_matches_the_oracle_on_the_fixtures(capsys):
    for argv in (["F"], ["slq2"], ["su2q-coalg"], ["cibils", "--n", "4", "--q=(1+q)/2"],
                 ["debruijn"], ["group", "--n", "4"]):
        assert main(["fixtures", *argv]) == 0
        text = capsys.readouterr().out
        assert _outcome(parse_document, text)[0] == "document"
        assert _outcome(parse_document, text) == _outcome(oracle_parse_document, text)


def test_each_scalar_text_is_parsed_once(capsys, monkeypatch):
    assert main(["fixtures", "cibils", "--n", "6", "--q=-3/7"]) == 0
    text = capsys.readouterr().out
    texts: List[str] = []
    real = parse_scalar

    def recording(scalar_text):
        texts.append(scalar_text)
        return real(scalar_text)

    monkeypatch.setitem(globals(), "parse_scalar", recording)
    oracle_parse_document(text)
    monkeypatch.undo()
    distinct = set(texts)
    assert len(texts) > len(distinct) >= 6
    texts.clear()
    monkeypatch.setattr(dsl, "parse_scalar", recording)
    parse_document(text)
    assert len(texts) == len(distinct) and set(texts) == distinct


# -- the reader before its line memo, kept as the oracle -------------------

def per_line_parse_document(text: str) -> SpecDocument:
    """``parse_document`` as it was before it read each distinct term line
    once: every line is read and checked afresh."""
    doc = SpecDocument()
    seen: Dict[str, Scalar] = {}
    declared_sets: Dict[str, frozenset] = {}
    kind: Optional[str] = None
    name, spaces, table = "", [], {}
    defined: set = set()  # the left-hand sides of the block, zero counits too

    def check_labels(space_name: str, labels, lineno: int):
        declared = declared_sets[space_name]
        if declared.issuperset(labels):
            return
        for lab in labels:
            if lab not in declared:
                raise DslError(
                    f"label {lab!r} is not declared in space {space_name!r}", lineno
                )

    for lineno, raw in enumerate(_LINE_BREAK.split(text), start=1):
        code = raw.split("#", 1)[0]
        stripped = code.strip()
        if not stripped:
            continue
        word = stripped.split(None, 1)[0]
        if word in dsl._HEADERS and not _LABEL_ROW.match(stripped):
            pattern, message, expected = dsl._HEADERS[word]
            m = pattern.match(stripped)
            if not m:
                raise DslError(message, lineno, expected=[expected])
            kind = None
            if word == "space":
                name, body = m.groups()
                labels = [p.strip() for p in body.split(",") if p.strip()]
                if not labels:
                    raise DslError("space needs at least one label", lineno)
                for lab in labels:
                    if not dsl._NAME_RE.fullmatch(lab):
                        raise DslError(f"bad space label {lab!r}", lineno,
                                       expected=[dsl._NAME])
                if name in doc.spaces:
                    raise DslError(f"space {name!r} declared twice", lineno)
                if len(set(labels)) != len(labels):
                    raise DslError("duplicate labels in space", lineno)
                doc.spaces[name] = tuple(labels)
                declared_sets[name] = frozenset(labels)
                continue
            kind, (name, *spaces), table, defined = word, m.groups(), {}, set()
            for sp in spaces:
                if sp not in doc.spaces:
                    raise DslError(f"unknown space {sp!r}", lineno)
            if name in getattr(doc, kind + "s"):
                raise DslError(f"{kind} {name!r} defined twice", lineno)
            if kind == "algebra":
                doc.algebras[name] = (spaces[0], {}, table)
            else:
                getattr(doc, kind + "s")[name] = (*spaces, table)
            continue

        if kind is None:
            raise DslError(
                f"unexpected line {stripped!r}", lineno, expected=list(dsl._HEADERS)
            )
        lhs, arrow, after = code.partition("->")
        if not arrow:
            raise DslError("expected 'lhs -> rhs'", lineno)
        lhs, rhs = lhs.strip(), after.strip()
        column = len(code) - len(after.lstrip()) + 1
        if kind == "coproduct":
            check_labels(spaces[0], [lhs], lineno)
            tensor = dsl._parse_terms(rhs, lineno, column, "tensor", seen)
            check_labels(spaces[0], [lab for term in tensor for lab in term], lineno)
            if lhs in defined:
                raise DslError(f"label {lhs!r} defined twice", lineno)
            defined.add(lhs)
            table[lhs] = tensor
        elif kind == "counit":
            check_labels(spaces[0], [lhs], lineno)
            value = dsl._scalar(rhs, lineno, seen)
            if lhs in defined:
                raise DslError(f"label {lhs!r} defined twice", lineno)
            defined.add(lhs)
            if not value.is_zero():
                table[lhs] = value
        elif kind == "algebra":
            vec = dsl._parse_terms(rhs, lineno, column, "vector", seen)
            check_labels(spaces[0], vec, lineno)
            if lhs == "unit":
                if "unit" in defined:
                    raise DslError("unit defined twice", lineno)
                defined.add("unit")
                doc.algebras[name] = (spaces[0], vec, table)
            else:
                factors = [p.strip() for p in lhs.split("*")]
                if len(factors) != 2:
                    raise DslError(
                        "expected 'label * label -> ...' or 'unit -> ...'", lineno
                    )
                check_labels(spaces[0], factors, lineno)
                pair = (factors[0], factors[1])
                if pair in defined:
                    raise DslError(f"product '{pair[0]} * {pair[1]}' defined twice", lineno)
                defined.add(pair)
                table[pair] = vec
        else:
            check_labels(spaces[0], [lhs], lineno)
            vec = dsl._parse_terms(rhs, lineno, column, "vector", seen)
            check_labels(spaces[1], vec, lineno)
            if lhs in defined:
                raise DslError(f"label {lhs!r} defined twice", lineno)
            defined.add(lhs)
            table[lhs] = vec
    return doc


# Documents whose term lines repeat, across blocks and across spaces: each
# draws its lines from a small pool.  The spaces share the labels a and b;
# c is declared only in V, x only in W and z in neither, so a repeated line
# may hold a label its block's space lacks.  Now and then a coefficient is
# malformed or a block defines a label twice.
REPEAT_SPACES = "space V = { a, b, c }\nspace W = { a, b, x }"
REPEAT_HEADERS = ("coproduct D on V:", "coproduct E on W:", "coproduct D on W:",
                  "algebra A on V:", "channel P : V -> W:", "channel R : W -> V:",
                  "counit e on W:")
REPEAT_LABEL = st.sampled_from(("a", "b") * 10 + ("c", "x", "z"))
REPEAT_COEFF = st.sampled_from(("",) * 8 + (
    "2", "-1", "q", "-3/7", "( 1 + q )", "0", " - 4 /\t6", "007") * 3 + ("1/0", "q^"))


@st.composite
def repeating_documents(draw):
    def rhs(tensor):
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            target = (f"<{draw(REPEAT_LABEL)}, {draw(REPEAT_LABEL)}>" if tensor
                      else draw(REPEAT_LABEL))
            coeff = draw(REPEAT_COEFF)
            terms.append(f"{coeff} * {target}" if coeff else target)
        return " + ".join(terms)

    pools = {kind: [rhs(kind) for _ in range(draw(st.integers(1, 3)))]
             for kind in (True, False)}
    lines = [REPEAT_SPACES]
    for header in draw(st.lists(st.sampled_from(REPEAT_HEADERS), max_size=5)):
        lines.append(header)
        lhs_labels = draw(st.lists(REPEAT_LABEL, max_size=3, unique=True))
        if lhs_labels and draw(st.integers(0, 9)) == 0:
            lhs_labels.append(lhs_labels[0])
        for lhs in lhs_labels:
            if header.startswith("counit"):
                rhs_text = draw(REPEAT_COEFF.filter(bool))
            else:
                rhs_text = draw(st.sampled_from(pools[header.startswith("coproduct")]))
            if header.startswith("algebra"):
                lhs = draw(st.sampled_from(("unit", f"{lhs} * {draw(REPEAT_LABEL)}")))
            lines.append(f"  {lhs} -> {rhs_text}")
    return "\n".join(lines) + "\n"


@settings(max_examples=600, deadline=None)
@given(repeating_documents())
def test_reader_matches_the_per_line_reader(text):
    assert _outcome(parse_document, text) == _outcome(per_line_parse_document, text)


def test_each_use_of_a_repeated_line_gets_its_own_copy():
    doc = parse_document("space V = { a, b }\ncoproduct D on V:\n  a -> 2 * <a, b>\n"
                         "  b -> 2 * <a, b>\ncoproduct E on V:\n  a -> 2 * <a, b>\n")
    tensors = [doc.coproducts["D"][1]["a"], doc.coproducts["D"][1]["b"],
               doc.coproducts["E"][1]["a"]]
    assert tensors[0] == tensors[1] == tensors[2] == {("a", "b"): Scalar.from_rational(2)}
    assert len({id(t) for t in tensors}) == 3
    tensors[0][("b", "b")] = ONE
    assert doc.coproducts["E"][1]["a"] == {("a", "b"): Scalar.from_rational(2)}


# -- unparse, parse, unparse over random structures ------------------------

LABELS = ("a", "b", "e", "x1", "g_2", "Lab")
RATIONALS = st.builds(Fraction, st.integers(1, 20) | st.integers(-20, -1), st.integers(1, 9))
POWERS = st.integers(-4, 6).map(Scalar.q_power)
MONOMIALS = st.builds(lambda r, p: Scalar.from_rational(r) * p, RATIONALS, POWERS)
SUMS = st.lists(MONOMIALS, min_size=2, max_size=3).map(lambda ts: reduce(operator.add, ts))
COEFFS = st.one_of(
    RATIONALS.map(Scalar.from_rational), POWERS, SUMS,
    st.builds(operator.truediv, SUMS, SUMS.filter(lambda c: not c.is_zero())),
).filter(lambda c: not c.is_zero())


def _labels(draw):
    return tuple(draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4,
                               unique=True)))


def _combination(draw, keys, coeffs=COEFFS):
    """A nonzero sparse combination of ``keys``."""
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True))
    return {key: draw(coeffs) for key in chosen}


@st.composite
def random_documents(draw, coeffs=COEFFS):
    doc = SpecDocument()
    doc.spaces["V"] = labels = _labels(draw)
    doc.spaces["W"] = targets = _labels(draw)
    pairs = [(a, b) for a in labels for b in labels]
    for name in draw(st.lists(st.sampled_from(("Delta", "delta", "D2")), min_size=1,
                              max_size=2, unique=True)):
        rows = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
        doc.coproducts[name] = ("V", {lab: _combination(draw, pairs, coeffs)
                                      for lab in rows})
    if draw(st.booleans()):
        rows = draw(st.lists(st.sampled_from(labels), unique=True))
        doc.counits["eps"] = ("V", {lab: draw(coeffs) for lab in rows})
    if draw(st.booleans()):
        n = len(labels)
        doc.algebras["A"] = ("V", {labels[0]: ONE}, {
            (labels[i], labels[j]): {labels[(i + j) % n]: ONE}
            for i in range(n) for j in range(n)
        })
    if draw(st.booleans()):
        rows = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
        doc.channels["phi"] = ("V", "W", {lab: _combination(draw, targets, coeffs)
                                          for lab in rows})
    return doc


@settings(max_examples=100, deadline=None)
@given(random_documents())
def test_unparse_parse_unparse_over_random_structures(doc):
    text = unparse_document(doc)
    reparsed = parse_document(text)
    assert unparse_document(reparsed) == text
    assert reparsed == doc


# -- the string-method reader against the chunk reader and the regex one ---


# The bare-line reader as it was before its string-method rewrite, kept as
# an oracle: a line whose every coefficient is free of '( ) < > + *' was
# read by two regex passes over the whole line, and any other line, and a
# bare line that repeats a key or has a zero coefficient, went to the chunk
# reader.
_BARE = {
    kind: (re.compile(f"{term}(?:\\+{term})*"), re.compile(term))
    for kind, term in (
        ("tensor", rf"(?:([^()<>+*]*)\*)?\s*<\s*({_NAME})\s*,\s*({_NAME})\s*>\s*"),
        ("vector", rf"(?:([^()<>+*]*)\*)?\s*({_NAME})\s*"),
    )
}


def regex_parse_terms(rhs: str, line: int, column: int, kind: str,
                      seen: Dict[str, Scalar]) -> Dict:
    bare_line, bare_term = _BARE[kind]
    if not bare_line.fullmatch(rhs):
        return dsl._parse_chunks(rhs, line, column, kind, seen)
    found = bare_term.findall(rhs)
    tensor = kind == "tensor"
    out = {term[1:] if tensor else term[1]:
           dsl._scalar(raw, line, seen) if (raw := term[0].strip()) else ONE
           for term in found}
    if len(out) != len(found) or any(c.is_zero() for c in out.values()):
        return dsl._parse_chunks(rhs, line, column, kind, seen)
    return out


# Bare coefficients, some of them zero, unreadable or whitespace only,
# since the regex reader took any coefficient free of '( ) < > + *'.
BARE_COEFF = st.sampled_from(
    ("",) * 6 + ("1", "2", "0", "-1", "q", "-q", "q^2", "-q^3", "3/7", "-3/7")
    + ("0/5", "q^-1", "1/q", "q - 1", "  ", "1/0", "q^", "2 3", "-", "q^100000")
)
SPACING = st.sampled_from(("", " ", " ", "  ", "\t"))
PAIR_LABEL = st.sampled_from(("a", "b", "x1"))


def _negated(coeff: str) -> str:
    coeff = coeff.strip()
    if not coeff:
        return "-1"
    return coeff[1:] if coeff.startswith("-") else "-" + coeff


@st.composite
def bare_lines(draw, kind):
    """A bare term line of 1 to 8 terms, some repeated and some cancelled."""
    terms = []
    for _ in range(draw(st.integers(1, 8))):
        if kind == "tensor":
            ws = [draw(SPACING) for _ in range(4)]
            target = f"<{ws[0]}{draw(PAIR_LABEL)}{ws[1]},{ws[2]}{draw(PAIR_LABEL)}{ws[3]}>"
        else:
            target = draw(PAIR_LABEL)
        coeffs = [draw(BARE_COEFF)]
        if draw(st.integers(0, 3)) == 0:
            coeffs.append(_negated(coeffs[0]))
        for coeff in coeffs:
            star = f"{coeff}{draw(SPACING)}*" if coeff or draw(st.booleans()) else ""
            terms.append(f"{draw(SPACING)}{star}{draw(SPACING)}{target}{draw(SPACING)}")
    if len(terms) > 1 and draw(st.booleans()):
        terms = draw(st.permutations(terms))
    return "+".join(terms[:8])


# Pieces of term lines, each as (well formed, not): coefficients with '*',
# brackets, '<' or '>' and unreadable or zero ones; labels that are no
# name; whitespace a line may hold, the non-ASCII kind too; and terms that
# are empty, hold two pairs, an unbalanced bracket or no pair at all.
LINE_COEFFS = (
    ("",) * 4 + ("1", "2", "-1", "q", "-q", "q^2", "3/7", "-3/7", "q^-1", "1/q",
                 "q - 1", "  ", "2*q", "q * 2"),
    ("0", "0/5", "1/0", "1/0 ", "q^", "2 3", "-", "q^100000", "q<2", "2>",
     "(1 + q)", "(q", "q)", "\u00b2", "q^("),
)
LINE_LABELS = (("a", "b", "x1", "_"), ("\u00e9", "1a", "a b", ""))
LINE_SPACES = (("", " ", " ", "\t", "\x0c"), ("\u00a0",))


@st.composite
def term_lines(draw, kind):
    """A term line of 1 to 6 terms, read from the well-formed pieces alone
    or, for about half the lines, from all of them."""
    every = draw(st.booleans())

    def pick(pieces):
        return draw(st.sampled_from(pieces[0] + pieces[1] if every else pieces[0]))

    terms = []
    for _ in range(draw(st.integers(1, 6))):
        ws = [pick(LINE_SPACES) for _ in range(8)]
        a, b = pick(LINE_LABELS), pick(LINE_LABELS)
        pair = f"<{ws[0]}{a}{ws[1]},{ws[2]}{b}{ws[3]}>"
        target = pick(((pair,), (f"{pair} {pair}", f"<{a}, {b}", f"{a}, {b}>",
                                 f"<{a} {b}>", f"<{a}, {b}, {a}>", f"({a}, {b})",
                                 f"<<{a}, {b}>>", a, ""))
                      if kind == "tensor" else
                      ((a,), (f"{a} {b}", pair, f"{a})", f"({a}", f"{a}>", "")))
        coeff = pick(LINE_COEFFS)
        star = f"{coeff}{ws[4]}*" if coeff or draw(st.booleans()) else ""
        terms.append(f"{ws[5]}{star}{ws[6]}{target}{ws[7]}")
    return "+".join(terms) + pick((("",), ("+", " + ")))


def _terms_outcome(read, rhs, kind):
    try:
        return ("terms", list(read(rhs, 7, 9, kind, {}).items()))
    except DslError as exc:
        return ("error", str(exc), exc.line, exc.column, exc.expected)


@settings(max_examples=max(400, settings.default.max_examples), deadline=None)
@given(st.sampled_from(("tensor", "vector")).flatmap(
    lambda kind: st.tuples(st.just(kind), term_lines(kind) | bare_lines(kind))))
@example(("tensor", "1/0 *a+\t<a, b"))
@example(("tensor", "1/0 * <a, b> + a, b> + <a, b + <<a, b>>"))
@example(("tensor", "q^ * <a, b> + <a, b> <b, a>"))
@example(("tensor", "2*q * <a, b> + q<2 * <b, a>"))
@example(("tensor", "<a, b> + + <b, a> +"))
@example(("tensor", "<\u00e9, b> + <1a, a>"))
@example(("vector", "2*q * a + \u00e9"))
def test_reader_matches_the_chunk_reader_on_any_line(kind_and_rhs):
    kind, rhs = kind_and_rhs
    assert (_terms_outcome(dsl._parse_terms, rhs, kind)
            == _terms_outcome(dsl._parse_chunks, rhs, kind))


@settings(max_examples=max(400, settings.default.max_examples), deadline=None)
@given(st.sampled_from(("tensor", "vector")).flatmap(
    lambda kind: st.tuples(st.just(kind), bare_lines(kind))))
def test_reader_matches_the_regex_reader_on_bare_lines(kind_and_rhs):
    kind, rhs = kind_and_rhs
    assert _BARE[kind][0].fullmatch(rhs), rhs
    assert (_terms_outcome(dsl._parse_terms, rhs, kind)
            == _terms_outcome(regex_parse_terms, rhs, kind))


def test_unparsed_bare_lines_take_the_fast_path(capsys, monkeypatch):
    """Each distinct term line reaches a reader once per document, in the
    order first seen.  Every such line the unparser writes with no
    parenthesised coefficient is read by the fast path; only the others
    reach the chunk reader."""
    read: List[str] = []
    chunked: List[str] = []

    def recording(log, reader):
        def record(rhs, *args):
            log.append(rhs)
            return reader(rhs, *args)
        return record

    monkeypatch.setattr(dsl, "_parse_terms", recording(read, dsl._parse_terms))
    monkeypatch.setattr(dsl, "_parse_chunks", recording(chunked, dsl._parse_chunks))
    repeats = 0
    for argv in (["cibils", "--n", "6"], ["cibils", "--n", "4", "--q=-3/7"],
                 ["cibils", "--n", "3", "--q=(1+q)/2"], ["debruijn", "--n", "5"],
                 ["group", "--n", "4"], ["F"]):
        assert main(["fixtures", *argv]) == 0
        text = capsys.readouterr().out
        read.clear()
        chunked.clear()
        parse_document(text)
        term_rhs, block = [], None
        for line in text.splitlines():
            if line and not line[0].isspace():
                block = line.split(None, 1)[0]
            elif line.strip() and block != "counit":
                term_rhs.append(line.split("->", 1)[1].strip())
        # A tensor line holds '<' and a vector line none, so the text of a
        # line names its kind.
        distinct = list(dict.fromkeys(term_rhs))
        assert read == distinct
        assert chunked == [rhs for rhs in distinct if "(" in rhs]
        assert len(distinct) > len(chunked)
        repeats += len(term_rhs) - len(distinct)
    assert repeats


# -- the unparser's coefficient prefix against its old text rule -----------


def oracle_scalar_prefix(c: Scalar) -> str:
    """The prefix as it was decided, on the rendered text."""
    if c == ONE:
        return ""
    text = str(c)
    if re.fullmatch(r"-?[0-9]+(/[0-9]+)?|-?q(\^[0-9]+)?", text):
        return f"{text} * "
    return f"({text}) * "


SIGNED_POWERS = st.builds(lambda k, sign: sign * Scalar.q_power(k),
                          st.integers(-60, 60), st.sampled_from((ONE, MINUS_ONE)))


@settings(max_examples=300)
@given(st.one_of(COEFFS, MONOMIALS, SIGNED_POWERS, shaped_scalars, scalars(),
                 st.sampled_from((ZERO, ONE, MINUS_ONE))))
def test_scalar_prefix_matches_the_text_rule(c):
    assert dsl._scalar_prefix(c) == oracle_scalar_prefix(c)


# -- the per-term unparser, kept as the oracle of the per-object one -------


def per_term_unparse_tensor(tensor: Tensor) -> str:
    parts = [
        f"{dsl._scalar_prefix(c)}<{a}, {b}>"
        for (a, b), c in sorted(tensor.items())
    ]
    if not parts:
        raise ValueError("cannot unparse an identically zero tensor entry")
    return " + ".join(parts)


def per_term_unparse_vector(vec: Vector) -> str:
    parts = [f"{dsl._scalar_prefix(c)}{lab}" for lab, c in sorted(vec.items())]
    return " + ".join(parts)


def per_term_unparse_document(doc: SpecDocument) -> str:
    """``unparse_document`` as it was: one prefix rendering per term."""
    lines: List[str] = []
    for name, labels in doc.spaces.items():
        lines.append(f"space {name} = {{ {', '.join(labels)} }}")
    for name, (space_name, table) in doc.coproducts.items():
        lines.append("")
        lines.append(f"coproduct {name} on {space_name}:")
        for lab in doc.spaces[space_name]:
            tensor = table.get(lab)
            if tensor:
                lines.append(f"  {lab} -> {per_term_unparse_tensor(tensor)}")
    for name, (space_name, values) in doc.counits.items():
        lines.append("")
        lines.append(f"counit {name} on {space_name}:")
        for lab in doc.spaces[space_name]:
            if lab in values:
                lines.append(f"  {lab} -> {values[lab]}")
    for name, (space_name, unit, product) in doc.algebras.items():
        lines.append("")
        lines.append(f"algebra {name} on {space_name}:")
        lines.append(f"  unit -> {per_term_unparse_vector(unit)}")
        for (a, b) in sorted(product):
            lines.append(f"  {a} * {b} -> {per_term_unparse_vector(product[(a, b)])}")
    for name, (src, dst, table) in doc.channels.items():
        lines.append("")
        lines.append(f"channel {name} : {src} -> {dst}:")
        for lab in doc.spaces[src]:
            if lab in table:
                lines.append(f"  {lab} -> {per_term_unparse_vector(table[lab])}")
    return "\n".join(lines) + "\n"


@st.composite
def coefficient_pools(draw):
    """A few coefficient objects, each one shared by every term that draws
    it, and distinct objects equal to some of them."""
    pool = draw(st.lists(st.one_of(st.sampled_from((ONE, MINUS_ONE)), SIGNED_POWERS,
                                   COEFFS), min_size=1, max_size=5))
    copies = draw(st.lists(st.sampled_from(pool), max_size=3))
    return pool + [parse_scalar(str(c)) for c in copies]


@settings(max_examples=200, deadline=None)
@given(coefficient_pools().flatmap(lambda pool: random_documents(st.sampled_from(pool))))
def test_unparse_matches_the_per_term_unparser(doc):
    assert unparse_document(doc) == per_term_unparse_document(doc)


def _coefficients(doc: SpecDocument) -> List[Scalar]:
    """The term coefficients of ``doc``, counit values excluded."""
    out = [c for _, table in doc.coproducts.values()
           for tensor in table.values() for c in tensor.values()]
    for _, unit, product in doc.algebras.values():
        out += list(unit.values()) + [c for vec in product.values() for c in vec.values()]
    return out + [c for _, _, table in doc.channels.values()
                  for vec in table.values() for c in vec.values()]


def test_unparse_renders_each_coefficient_object_once(monkeypatch):
    """On the cibils fixture, whose q^k objects are shared by many terms,
    and on a document with distinct but equal coefficients."""
    q3 = parse_scalar("q^3")
    equal = SpecDocument()
    equal.spaces["V"] = ("a", "b")
    equal.coproducts["D"] = ("V", {"a": {("a", "a"): q3, ("a", "b"): Scalar.q_power(3)},
                                   "b": {("b", "b"): q3, ("b", "a"): MINUS_ONE}})
    equal.channels["P"] = ("V", "V", {"a": {"b": parse_scalar("-1")}})
    assert equal.coproducts["D"][1]["a"][("a", "b")] is not q3
    cibils = document_from_structure(
        "E", fixture_cibils(24, parse_scalar("-9/2")))
    calls: List[Scalar] = []
    real = dsl._scalar_prefix

    def recording(c):
        calls.append(c)
        return real(c)

    for doc in (equal, cibils):
        expected = per_term_unparse_document(doc)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(dsl, "_scalar_prefix", recording)
            assert unparse_document(doc) == expected
        coefficients = _coefficients(doc)
        assert sorted(map(id, calls)) == sorted({id(c) for c in coefficients})
    assert len(coefficients) == 2100 and len(calls) == 24
