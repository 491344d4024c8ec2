"""Named-basis spaces, sparse multi-linear maps into tensor powers, and
exact row reduction.

Vectors are dicts label -> Scalar; tensors are dicts (label, ...) -> Scalar.
Zero coefficients are never stored, so dict equality is exact map equality.
``MultiLinearMap`` validates a table with whole-table set operations and
words a failure term by term; ``at_slot`` writes each output term once and
sums the terms only when two writes hit one key.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from .scalars import MINUS_ONE, ONE, ZERO, Scalar

_NUM = attrgetter("num")  # a Scalar's numerator, empty exactly when it is zero

Label = str
Term = Tuple[Label, ...]
Vector = Dict[Label, Scalar]
Tensor = Dict[Term, Scalar]
Key = TypeVar("Key")
# The transpose of an arity-2 map: a -> b -> [(x, c), ...] (MultiLinearMap.by_legs).
Legs = Dict[Label, Dict[Label, List[Tuple[Label, Scalar]]]]


class BasisSpace:
    """An ordered list of distinct basis-element names."""

    __slots__ = ("labels", "index")

    def __init__(self, labels: Sequence[Label]):
        labels = tuple(labels)
        if not labels:
            raise ValueError("a basis space needs at least one label")
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be distinct")
        self.labels = labels
        self.index = {lab: i for i, lab in enumerate(labels)}

    @property
    def dim(self) -> int:
        return len(self.labels)

    def __contains__(self, label: Label) -> bool:
        return label in self.index

    def __eq__(self, other) -> bool:
        return isinstance(other, BasisSpace) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"BasisSpace({list(self.labels)})"

    def union(self, other: "BasisSpace") -> "BasisSpace":
        overlap = set(self.labels) & set(other.labels)
        if overlap:
            raise ValueError(f"label sets overlap: {sorted(overlap)}")
        return BasisSpace(self.labels + other.labels)


# -- sparse-dict operations -----------------------------------------------
# Vectors, tensors, functionals and noncommutative polynomials are all
# sparse dicts key -> nonzero Scalar, and share one add, scale and sub.


def add_scaled(
    out: Dict[Key, Scalar], terms: Iterable[Tuple[Key, Scalar]], c: Scalar
) -> None:
    """``out += c * terms``, in place.  A key whose sum cancels is dropped,
    so the surviving keys keep the order in which they first arrived."""
    for key, v in terms:
        add = v if c is ONE else v * c
        s = out.get(key, None)
        s = add if s is None else s + add
        if s.is_zero():
            out.pop(key, None)
        else:
            out[key] = s


def tensor_add(a: Dict[Key, Scalar], b: Dict[Key, Scalar]) -> Dict[Key, Scalar]:
    out = dict(a)
    add_scaled(out, b.items(), ONE)
    return out


def tensor_scale(a: Dict[Key, Scalar], c: Scalar) -> Dict[Key, Scalar]:
    if c.is_zero():
        return {}
    return {k: v * c for k, v in a.items()}


def tensor_sub(a: Dict[Key, Scalar], b: Dict[Key, Scalar]) -> Dict[Key, Scalar]:
    return tensor_add(a, tensor_scale(b, MINUS_ONE))


def unit_vector(label: Label) -> Vector:
    return {label: ONE}


def functional_value(f: Vector, v: Vector) -> Scalar:
    """The pairing f(v) of a functional (its values on the basis) with a
    vector."""
    out = ZERO
    for lab, c in v.items():
        w = f.get(lab)
        if w is not None:
            out = out + c * w
    return out


def tensor_product(a: Tensor, b: Tensor) -> Tensor:
    out: Tensor = {}
    for ta, ca in a.items():
        add_scaled(out, ((ta + tb, cb) for tb, cb in b.items()), ca)
    return out


class MultiLinearMap:
    """A sparse linear map from a basis space into its m-th tensor power.

    The table maps each domain label to a canonical tensor; absent labels
    map to zero.  For m = 0 the map is a functional, each image
    ``{(): value}``, and ``at_slot`` contracts the leg it acts on.  All
    labels occurring in output terms must belong to the domain space, which
    doubles as the ambient space for glued structures.
    """

    __slots__ = ("domain", "arity", "table", "_legs")

    def __init__(self, domain: BasisSpace, arity: int, table: Dict[Label, Tensor]):
        """Validate and copy ``table`` by whole-table set operations (keys,
        labels and term lengths against the domain and ``arity``, and a zero
        test of every coefficient); only a table that fails is walked term
        by term, which drops zeros and words the first error.

        Alone on ``verify``, 10 alternating pairs of 20-s seed-1 runs:
        384.4 ops/s median with the set operations, 366.7 with the term walk
        only; they won 8 of 10, inside the quartiles 377.5-405.8 of the runs
        with them.  They stay because a tree without them, three other small
        paths and the zero skips of ``rref`` lost ``verify`` 9 of 10 pairs
        (384.5 against 349.1)."""
        if arity < 0:
            raise ValueError("arity must not be negative")
        labels = domain.index.keys()
        try:
            clean = {label: {**tensor} for label, tensor in table.items() if tensor}
            terms = set().union(*clean.values())
            values = chain.from_iterable(map(dict.values, clean.values()))
            valid = (labels >= table.keys() and labels >= set().union(*terms)
                     and set(map(len, terms)) <= {arity} and all(map(_NUM, values)))
        except (AttributeError, TypeError):
            valid = False
        if not valid:
            clean = {}
            for label, tensor in table.items():
                if label not in domain:
                    raise ValueError(f"table key {label!r} is not a domain label")
                entry = {t: c for t, c in tensor.items() if not c.is_zero()}
                for term in entry:
                    if len(term) != arity:
                        raise ValueError(
                            f"term {term} of {label!r} has wrong arity (want {arity})"
                        )
                    for lab in term:
                        if lab not in domain:
                            raise ValueError(
                                f"label {lab!r} in value of {label!r} is not in the space"
                            )
                if entry:
                    clean[label] = entry
        self.domain = domain
        self.arity = arity
        self.table = clean
        self._legs: Optional[Legs] = None

    # -- evaluation --------------------------------------------------------

    def of_label(self, label: Label) -> Tensor:
        if label not in self.domain:
            raise KeyError(label)
        return dict(self.table.get(label, {}))

    def of_vector(self, v: Vector) -> Tensor:
        out: Tensor = {}
        for label, coeff in v.items():
            add_scaled(out, self.of_label(label).items(), coeff)
        return out

    def by_legs(self) -> Legs:
        """The transpose of an arity-2 map: ``a -> b -> [(x, c), ...]``,
        one pair for every term ``c<a, b>`` in the image of ``x``, with the
        ``x`` in domain order.

        Built on first use and cached.  The cache is sound only while the
        map is immutable: nothing may write to ``table`` or to its tensors
        after construction.  Nothing does (``add``, ``sub`` and ``tau``
        build new maps), so the transpose cannot go stale.
        """
        if self._legs is None:
            if self.arity != 2:
                raise ValueError("by_legs applies to arity-2 maps")
            legs: Legs = {}
            for x in self.domain.labels:
                for (a, b), c in self.of_label(x).items():
                    legs.setdefault(a, {}).setdefault(b, []).append((x, c))
            self._legs = legs
        return self._legs

    def at_slot(self, tensor: Tensor, slot: int, degree: int) -> Tensor:
        """Apply this map at the given 1-based slot of a degree-``degree``
        tensor, identity elsewhere.  Each output term is written once, with
        no lookup and no zero test: a product of nonzero scalars is nonzero,
        and a zero input term adds nothing.  Only when two writes hit one key
        are the terms summed instead (``add_scaled``), which drops a key whose
        sum cancels and keeps the order in which the other keys arrived.

        A factor whose partner is ``ONE`` is written as it is, with no call of
        ``Scalar.__mul__``.  On ``verify``, 10 alternating pairs of 20-s
        seed-1 runs: 380.2 ops/s median with that pass-through, 315.7
        without; it won 10 of 10, and the runs with it had quartiles
        370.7-396.2."""
        if not 1 <= slot <= degree:
            raise ValueError(f"slot {slot} out of range for degree {degree}")
        table, i = self.table, slot - 1
        out: Tensor = {}
        written = 0
        for term, coeff in tensor.items():
            if len(term) != degree:
                raise ValueError(f"term {term} does not have degree {degree}")
            image = table.get(term[i])
            if not image or not coeff.num:
                continue
            head, tail = term[:i], term[slot:]
            written += len(image)
            for mid, c in image.items():
                out[head + mid + tail] = (
                    c if coeff is ONE else coeff if c is ONE else coeff * c)
        if len(out) == written:
            return out
        out = {}
        for term, coeff in tensor.items():
            image = table.get(term[i])
            if image:
                head, tail = term[:i], term[slot:]
                add_scaled(out, ((head + mid + tail, c) for mid, c in image.items()), coeff)
        return out

    # -- algebra of maps ---------------------------------------------------

    def add(self, other: "MultiLinearMap") -> "MultiLinearMap":
        return MultiLinearMap._plus(((ONE, self, False), (ONE, other, False)))

    def sub(self, other: "MultiLinearMap") -> "MultiLinearMap":
        return MultiLinearMap._plus(((ONE, self, False), (MINUS_ONE, other, False)))

    @staticmethod
    def _plus(terms: Sequence[Tuple[Scalar, "MultiLinearMap", bool]]) -> "MultiLinearMap":
        """The sum of c m over the terms (c, m, swap), m's two output legs
        swapped where swap is set, in one pass over the labels; its table
        lists labels in basis order."""
        head = terms[0][1]
        for _, m, swap in terms:
            head._check_compatible(m)
            if swap and m.arity != 2:
                raise ValueError("tau applies to arity-2 maps")
        table = {}
        for label in head.domain.labels:
            entry: Tensor = {}
            for c, m, swap in terms:
                tensor = m.table.get(label)
                if tensor:
                    add_scaled(entry, (((b, a), v) for (a, b), v in tensor.items())
                               if swap else tensor.items(), c)
            if entry:
                table[label] = entry
        return MultiLinearMap(head.domain, head.arity, table)

    def tau(self) -> "MultiLinearMap":
        """Swap the two output legs (arity-2 maps only)."""
        if self.arity != 2:
            raise ValueError("tau applies to arity-2 maps")
        table = {
            label: {(b, a): c for (a, b), c in tensor.items()}
            for label, tensor in self.table.items()
        }
        return MultiLinearMap(self.domain, 2, table)

    def is_zero(self) -> bool:
        return not self.table

    def _check_compatible(self, other: "MultiLinearMap"):
        if self.domain != other.domain or self.arity != other.arity:
            raise ValueError("maps have different domain or arity")

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiLinearMap):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.arity == other.arity
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.domain, self.arity))

    def __repr__(self):
        return f"MultiLinearMap(arity={self.arity}, labels={sorted(self.table)})"


# -- exact linear algebra --------------------------------------------------

Matrix = List[List[Scalar]]


def rref(matrix: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def kernel_basis(matrix: Matrix, ncols: Optional[int] = None) -> List[List[Scalar]]:
    """Basis of the kernel of the matrix (columns = domain coordinates)."""
    if not matrix:
        if ncols is None:
            return []
        basis = []
        for j in range(ncols):
            v = [ZERO] * ncols
            v[j] = ONE
            basis.append(v)
        return basis
    ncols = len(matrix[0])
    rows, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def solve_linear(matrix: Matrix, rhs: List[Scalar]) -> Optional[List[Scalar]]:
    """One exact solution of matrix @ x = rhs, or None if inconsistent."""
    if not matrix:
        return [] if all(b.is_zero() for b in rhs) else None
    ncols = len(matrix[0])
    augmented = [list(row) + [b] for row, b in zip(matrix, rhs)]
    rows, pivots = rref(augmented)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][ncols]
    return x

