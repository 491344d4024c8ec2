"""Line-oriented text format for spaces, coproducts, counits, algebras,
and channels, with position-carrying diagnostics and a canonical unparser
(unparse then parse is the identity on the parsed content).

Grammar (one declaration per block; '#' starts a comment):

    space NAME = { label, label, ... }

    coproduct NAME on SPACE:
      label -> [scalar *] <label, label> + ...

    counit NAME on SPACE:
      label -> scalar

    algebra NAME on SPACE:
      unit -> [scalar *] label + ...
      label * label -> [scalar *] label + ...

    channel NAME : SPACE -> SPACE:
      label -> [scalar *] label + ...

Scalars are rational-function expressions in q (see the scalar parser);
multi-term scalars must be parenthesized so '+' splits terms only at the
top level.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .coalgebra import LStructure
from .constructions import ChannelMap
from .linalg import (
    BasisSpace,
    FiniteAlgebra,
    MultiLinearMap,
    Tensor,
    Vector,
    add_scaled,
)
from .scalars import ONE, Scalar, ScalarSyntaxError, parse_scalar


class DslError(ValueError):
    """Parse or resolution error with source position."""

    def __init__(self, message: str, line: int, column: int = 1,
                 expected: Optional[List[str]] = None):
        detail = f"line {line}, column {column}: {message}"
        if expected:
            detail += " (expected " + " | ".join(expected) + ")"
        super().__init__(detail)
        self.line = line
        self.column = column
        self.expected = expected or []


@dataclass
class SpecDocument:
    """Parsed declarations, in source order within each kind."""

    spaces: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    coproducts: Dict[str, Tuple[str, Dict[str, Tensor]]] = field(default_factory=dict)
    counits: Dict[str, Tuple[str, Dict[str, Scalar]]] = field(default_factory=dict)
    algebras: Dict[str, Tuple[str, Vector, Dict[Tuple[str, str], Vector]]] = field(
        default_factory=dict
    )
    channels: Dict[str, Tuple[str, str, Dict[str, Vector]]] = field(default_factory=dict)

    # -- building runtime objects -----------------------------------------

    def space(self, name: str) -> BasisSpace:
        if name not in self.spaces:
            raise KeyError(f"unknown space {name!r}")
        return BasisSpace(self.spaces[name])

    def structure(self, space_name: str) -> LStructure:
        """All coproducts, counits, and at most one algebra on a space."""
        space = self.space(space_name)
        coproducts = {
            name: MultiLinearMap(space, 2, table)
            for name, (sp, table) in self.coproducts.items()
            if sp == space_name
        }
        counits = {
            name: dict(values)
            for name, (sp, values) in self.counits.items()
            if sp == space_name
        }
        algebra = None
        for name, (sp, unit, product) in self.algebras.items():
            if sp == space_name:
                if algebra is not None:
                    raise ValueError(f"space {space_name!r} has several algebras")
                algebra = FiniteAlgebra(space, product, unit)
        return LStructure(space, coproducts, counits=counits, algebra=algebra)

    def channel(self, name: str) -> ChannelMap:
        if name not in self.channels:
            raise KeyError(f"unknown channel {name!r}")
        src, dst, table = self.channels[name]
        return ChannelMap(self.space(src), self.space(dst), table)


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


def _split_top_plus(text: str, line: int) -> List[str]:
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for i, ch in enumerate(text):
        if ch == "(" or ch == "<":
            depth += 1
        elif ch == ")" or ch == ">":
            depth -= 1
            if depth < 0:
                raise DslError("unbalanced bracket", line, i + 1)
        if ch == "+" and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise DslError("unbalanced bracket", line, len(text))
    parts.append("".join(current))
    return parts


def _parse_scalar_prefix(raw: Optional[str], line: int) -> Scalar:
    if raw is None or not raw.strip():
        return ONE
    try:
        return parse_scalar(raw.strip())
    except ScalarSyntaxError as exc:
        raise DslError(f"bad scalar {raw.strip()!r}: {exc}", line) from exc


def _parse_pair_terms(rhs: str, line: int) -> Tensor:
    tensor: Tensor = {}
    for chunk in _split_top_plus(rhs, line):
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


def _parse_vec_terms(rhs: str, line: int) -> Vector:
    vec: Vector = {}
    for chunk in _split_top_plus(rhs, line):
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


def parse_document(text: str) -> SpecDocument:
    doc = SpecDocument()
    # block: (kind, name, space or (src, dst), accumulating table)
    block: Optional[Tuple[str, ...]] = None
    block_data: Dict = {}

    def close_block():
        nonlocal block, block_data
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

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        word = stripped.split(None, 1)[0]
        if word in _KEYWORDS:
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
        kind = block[0]
        if kind == "coproduct":
            space_name = block[2]
            check_labels(space_name, [lhs], lineno)
            tensor = _parse_pair_terms(rhs, lineno)
            check_labels(
                space_name, [lab for term in tensor for lab in term], lineno
            )
            if lhs in block_data:
                raise DslError(f"label {lhs!r} defined twice", lineno)
            block_data[lhs] = tensor
        elif kind == "counit":
            check_labels(block[2], [lhs], lineno)
            try:
                value = parse_scalar(rhs)
            except ScalarSyntaxError as exc:
                raise DslError(f"bad scalar {rhs!r}: {exc}", lineno) from exc
            if not value.is_zero():
                block_data[lhs] = value
        elif kind == "algebra":
            space_name = block[2]
            vec = _parse_vec_terms(rhs, lineno)
            check_labels(space_name, list(vec), lineno)
            if lhs == "unit":
                block_data["__unit__"] = vec
            else:
                factors = [p.strip() for p in lhs.split("*")]
                if len(factors) != 2:
                    raise DslError(
                        "expected 'label * label -> ...' or 'unit -> ...'", lineno
                    )
                check_labels(space_name, factors, lineno)
                block_data[(factors[0], factors[1])] = vec
        else:  # channel
            src, dst = block[2], block[3]
            check_labels(src, [lhs], lineno)
            vec = _parse_vec_terms(rhs, lineno)
            check_labels(dst, list(vec), lineno)
            block_data[lhs] = vec
    close_block()
    return doc


# -- canonical unparse -----------------------------------------------------


def _scalar_prefix(c: Scalar) -> str:
    if c == ONE:
        return ""
    text = str(c)
    if re.fullmatch(r"-?[0-9]+(/[0-9]+)?|-?q(\^[0-9]+)?", text):
        return f"{text} * "
    return f"({text}) * "


def _unparse_tensor(tensor: Tensor) -> str:
    parts = [
        f"{_scalar_prefix(c)}<{a}, {b}>"
        for (a, b), c in sorted(tensor.items())
    ]
    if not parts:
        raise ValueError("cannot unparse an identically zero tensor entry")
    return " + ".join(parts)


def _unparse_vector(vec: Vector) -> str:
    parts = [f"{_scalar_prefix(c)}{lab}" for lab, c in sorted(vec.items())]
    return " + ".join(parts)


def unparse_document(doc: SpecDocument) -> str:
    lines: List[str] = []
    for name, labels in doc.spaces.items():
        lines.append(f"space {name} = {{ {', '.join(labels)} }}")
    for name, (space_name, table) in doc.coproducts.items():
        lines.append("")
        lines.append(f"coproduct {name} on {space_name}:")
        for lab in doc.spaces[space_name]:
            tensor = table.get(lab)
            if tensor:
                lines.append(f"  {lab} -> {_unparse_tensor(tensor)}")
    for name, (space_name, values) in doc.counits.items():
        lines.append("")
        lines.append(f"counit {name} on {space_name}:")
        for lab in doc.spaces[space_name]:
            if lab in values:
                lines.append(f"  {lab} -> {values[lab]}")
    for name, (space_name, unit, product) in doc.algebras.items():
        lines.append("")
        lines.append(f"algebra {name} on {space_name}:")
        lines.append(f"  unit -> {_unparse_vector(unit)}")
        for (a, b) in sorted(product):
            lines.append(f"  {a} * {b} -> {_unparse_vector(product[(a, b)])}")
    for name, (src, dst, table) in doc.channels.items():
        lines.append("")
        lines.append(f"channel {name} : {src} -> {dst}:")
        for lab in doc.spaces[src]:
            if lab in table:
                lines.append(f"  {lab} -> {_unparse_vector(table[lab])}")
    return "\n".join(lines) + "\n"


def document_from_structure(
    space_name: str, s: LStructure,
    channels: Optional[Dict[str, Tuple[str, str, Dict[str, Vector]]]] = None,
) -> SpecDocument:
    """Wrap a runtime structure back into a document (for emission)."""
    doc = SpecDocument()
    doc.spaces[space_name] = s.space.labels
    for name, cp in s.coproducts.items():
        doc.coproducts[name] = (
            space_name,
            {lab: cp.of_label(lab) for lab in s.space.labels if cp.of_label(lab)},
        )
    for name, eps in s.counits.items():
        doc.counits[name] = (space_name, dict(eps))
    if s.algebra is not None:
        doc.algebras["A"] = (
            space_name,
            dict(s.algebra.unit),
            {key: dict(vec) for key, vec in s.algebra.product.items()},
        )
    if channels:
        doc.channels.update(channels)
    return doc
