"""Span tracing of lcoalg from outside the package.

``install(tracer)`` replaces the public functions and methods listed in
``LAYERS`` with wrappers that record one span per call.  A function is
replaced wherever callers look it up: on its class, or under every name
bound to it in any ``lcoalg`` module (so ``from .linalg import tensor_add``
in ``complexes`` sees the wrapper too).

Spans live in flat arrays until the run ends.  Each span has a name, a
parent span, a start, an end and two counts whose meaning depends on the
span (for example terms in and terms out of ``at_slot``).  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from fractions import Fraction
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# A span kind: (name, where, attributes, counter).  ``where`` is a module
# name or "module:Class"; ``counter(args, result)`` returns the two counts,
# and a dict of counters gives one per attribute.
Counter = Optional[Callable[[tuple, object], Tuple[int, int]]]


def _terms_in_out(args, result):
    return len(args[1]), len(result)


def _terms_out(args, result):
    return 0, len(result)


def _witnesses(args, result):
    return 0, len(result.witnesses)


def _text_bytes(args, result):
    return len(args[0].encode("utf-8")), 0


def _is_const(value) -> bool:
    if isinstance(value, (int, Fraction)):
        return True
    is_rational = getattr(value, "is_rational", None)
    return is_rational is not None and is_rational()


def _scalar_binary(args, result):
    # (binary op, binary op whose operands are both free of q)
    return 1, int(_is_const(args[0]) and _is_const(args[1]))


_SCALAR_BINARY = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)

LAYERS: List[Tuple[str, str, Tuple[str, ...], object]] = [
    ("cli.main", "lcoalg.cli", ("main",), None),
    ("dsl.parse_document", "lcoalg.dsl", ("parse_document",), _text_bytes),
    ("dsl.unparse_document", "lcoalg.dsl", ("unparse_document",), None),
    ("fixtures", "lcoalg.fixtures", (
        "fixture_f", "fixture_f_entangled", "fixture_f_achiral",
        "fixture_quantum_matrix", "fixture_quantum_sphere", "fixture_cibils",
        "fixture_debruijn", "fixture_petersen", "fixture_group",
        "fixture_group_split",
    ), None),
    ("constructions.entangle", "lcoalg.constructions",
     ("self_entangle", "achiral_entangle"), None),
    ("coalgebra.check_axiom", "lcoalg.coalgebra", ("check_axiom",), _witnesses),
    ("convolution.law_suite", "lcoalg.convolution", (
        "check_dialgebra_laws", "check_trialgebra_laws", "check_leibniz",
        "check_poisson", "check_dendriform_algebra", "check_bar_unit",
    ), None),
    ("convolution.conv_product", "lcoalg.convolution", ("conv_product",), None),
    ("complexes.boundary_apply", "lcoalg.complexes", ("boundary_apply",),
     _terms_out),
    ("graphs.natural_lift", "lcoalg.graphs", ("natural_lift",), None),
    ("graphs.covering_check", "lcoalg.graphs", ("covering_check",), None),
    ("ncpoly.normalize", "lcoalg.ncpoly:RewriteSystem", ("normalize",), None),
    ("linalg.map_rebuild", "lcoalg.linalg:MultiLinearMap",
     ("add", "sub", "tau"), None),
    ("linalg.at_slot", "lcoalg.linalg:MultiLinearMap", ("at_slot",),
     _terms_in_out),
    ("linalg.of_label", "lcoalg.linalg:MultiLinearMap", ("of_label",), None),
    ("linalg.tensor_add", "lcoalg.linalg", ("tensor_add",), None),
    ("linalg.rref", "lcoalg.linalg", ("rref",), None),
    ("scalars.parse_scalar", "lcoalg.scalars", ("parse_scalar",), None),
    ("scalars.str", "lcoalg.scalars:Scalar", ("__str__",), None),
    ("scalars.ops", "lcoalg.scalars:Scalar",
     _SCALAR_BINARY + ("__neg__", "__pow__"),
     dict.fromkeys(_SCALAR_BINARY, _scalar_binary)),
]

SPAN_NAMES = [layer[0] for layer in LAYERS]
_SCALAR_OPS = SPAN_NAMES.index("scalars.ops")


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count_a = array("q")
        self.count_b = array("q")
        self.stack: List[int] = [-1]

    def wrap(self, kind: int, fn: Callable, counter: Counter) -> Callable:
        name, parent, start, end = self.name, self.parent, self.start, self.end
        count_a, count_b, stack = self.count_a, self.count_b, self.stack
        is_scalar = kind == _SCALAR_OPS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = stack[-1]
            # Scalar ops made inside a scalar op are its implementation,
            # not calls into the layer: they get no span of their own.
            if is_scalar and top >= 0 and name[top] == _SCALAR_OPS:
                return fn(*args, **kwargs)
            idx = len(name)
            name.append(kind)
            parent.append(top)
            end.append(0.0)
            count_a.append(0)
            count_b.append(0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                count_a[idx], count_b[idx] = counter(args, result)
            return result

        return traced

    # -- results -----------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total (outermost spans only), self time
        and the two count sums."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {
            s: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "a": 0, "b": 0}
            for s in SPAN_NAMES
        }
        for i in range(n):
            kind = self.name[i]
            row = out[SPAN_NAMES[kind]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += duration - child[i]
            row["a"] += self.count_a[i]
            row["b"] += self.count_b[i]
            if not self._inside(i, kind):
                row["total_s"] += duration
        return out

    def _inside(self, i: int, kind: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == kind:
                return True
            p = self.parent[p]
        return False

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\tcount_a\tcount_b\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.name)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{SPAN_NAMES[self.name[i]]}\t"
                    f"{self.start[i] - t0:.7f}\t{self.end[i] - t0:.7f}\t"
                    f"{self.count_a[i]}\t{self.count_b[i]}\n"
                )


def _lcoalg_modules():
    return [
        mod for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "lcoalg" or key.startswith("lcoalg."))
    ]


def install(tracer: Tracer) -> Callable[[], None]:
    """Replace every function in ``LAYERS`` by a traced wrapper; returns a
    function that puts the originals back."""
    modules = _lcoalg_modules()
    undo = []
    for kind, (_, where, attrs, counter) in enumerate(LAYERS):
        module_name, _, class_name = where.partition(":")
        owner = sys.modules[module_name]
        if class_name:
            owner = getattr(owner, class_name)
        for attr in attrs:
            original = owner.__dict__[attr] if class_name else getattr(owner, attr)
            per_attr = counter.get(attr) if isinstance(counter, dict) else counter
            wrapper = tracer.wrap(kind, original, per_attr)
            if class_name:
                bindings = [(owner, attr)]
            else:
                bindings = [(mod, key) for mod in modules
                            for key, value in vars(mod).items() if value is original]
            for target, key in bindings:
                setattr(target, key, wrapper)
                undo.append((target, key, original))

    def restore():
        for target, key, original in reversed(undo):
            setattr(target, key, original)

    return restore


# -- per-layer metrics ------------------------------------------------------

# (metric, unit, span name, field); the field is calls, self_s, total_s,
# a or b (the span's two counts), or "b/a" for the share const_share.
PER_LAYER = [
    ("scalars.ops.calls", "count", "scalars.ops", "calls"),
    ("scalars.ops.self_s", "s", "scalars.ops", "self_s"),
    ("scalars.ops.const_share", "ratio", "scalars.ops", "b/a"),
    ("scalars.parse_scalar.calls", "count", "scalars.parse_scalar", "calls"),
    ("scalars.parse_scalar.self_s", "s", "scalars.parse_scalar", "self_s"),
    ("scalars.str.calls", "count", "scalars.str", "calls"),
    ("scalars.str.self_s", "s", "scalars.str", "self_s"),
    ("linalg.at_slot.calls", "count", "linalg.at_slot", "calls"),
    ("linalg.at_slot.self_s", "s", "linalg.at_slot", "self_s"),
    ("linalg.at_slot.terms_in", "count", "linalg.at_slot", "a"),
    ("linalg.at_slot.terms_out", "count", "linalg.at_slot", "b"),
    ("linalg.of_label.calls", "count", "linalg.of_label", "calls"),
    ("linalg.tensor_add.calls", "count", "linalg.tensor_add", "calls"),
    ("linalg.tensor_add.self_s", "s", "linalg.tensor_add", "self_s"),
    ("linalg.rref.calls", "count", "linalg.rref", "calls"),
    ("linalg.rref.self_s", "s", "linalg.rref", "self_s"),
    ("linalg.map_rebuild.calls", "count", "linalg.map_rebuild", "calls"),
    ("coalgebra.check_axiom.calls", "count", "coalgebra.check_axiom", "calls"),
    ("coalgebra.check_axiom.self_s", "s", "coalgebra.check_axiom", "self_s"),
    ("coalgebra.check_axiom.witnesses", "count", "coalgebra.check_axiom", "b"),
    ("convolution.conv_product.calls", "count", "convolution.conv_product", "calls"),
    ("convolution.conv_product.self_s", "s", "convolution.conv_product", "self_s"),
    ("convolution.law_suite.total_s", "s", "convolution.law_suite", "total_s"),
    ("complexes.boundary_apply.calls", "count", "complexes.boundary_apply", "calls"),
    ("complexes.boundary_apply.self_s", "s", "complexes.boundary_apply", "self_s"),
    ("complexes.boundary_apply.terms_out", "count", "complexes.boundary_apply", "b"),
    ("dsl.parse_document.calls", "count", "dsl.parse_document", "calls"),
    ("dsl.parse_document.self_s", "s", "dsl.parse_document", "self_s"),
    ("dsl.parse_document.bytes", "bytes", "dsl.parse_document", "a"),
    ("dsl.unparse_document.self_s", "s", "dsl.unparse_document", "self_s"),
    ("cli.main.calls", "count", "cli.main", "calls"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
    ("fixtures.self_s", "s", "fixtures", "self_s"),
    ("constructions.entangle.calls", "count", "constructions.entangle", "calls"),
    ("constructions.entangle.self_s", "s", "constructions.entangle", "self_s"),
    ("graphs.natural_lift.self_s", "s", "graphs.natural_lift", "self_s"),
    ("graphs.covering_check.self_s", "s", "graphs.covering_check", "self_s"),
    ("ncpoly.normalize.calls", "count", "ncpoly.normalize", "calls"),
    ("ncpoly.normalize.self_s", "s", "ncpoly.normalize", "self_s"),
]
OVERHEAD = ("trace.overhead_share", "ratio")

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "scalars.ops.calls", "linalg.at_slot.calls", "linalg.map_rebuild.calls",
    "convolution.conv_product.calls", "complexes.boundary_apply.calls",
    "ncpoly.normalize.calls",
)

# Where each metric must be non-zero and where it must be zero.  Workloads
# not named are not predicted.
PREDICTIONS = {
    "scalars.ops.calls": ("verify complex laws build", ""),
    "scalars.ops.const_share": ("verify complex", ""),
    "scalars.parse_scalar.calls": ("verify build", ""),
    "scalars.str.calls": ("build", ""),
    "linalg.at_slot.calls": ("verify complex", ""),
    "linalg.of_label.calls": ("laws", ""),
    "linalg.tensor_add.calls": ("complex", ""),
    "linalg.rref.calls": ("build", ""),
    "linalg.map_rebuild.calls": ("verify", "complex laws build"),
    "coalgebra.check_axiom.calls": ("verify build", ""),
    "convolution.conv_product.calls": ("laws build", "verify complex"),
    "convolution.law_suite.total_s": ("laws", "verify complex build"),
    "complexes.boundary_apply.calls": ("complex", "verify laws build"),
    "dsl.parse_document.calls": ("verify build", ""),
    "cli.main.calls": ("verify complex build", ""),
    "fixtures.self_s": ("verify complex laws build", ""),
    "constructions.entangle.calls": ("build", ""),
    "graphs.natural_lift.self_s": ("build", ""),
    "graphs.covering_check.self_s": ("build", ""),
    "ncpoly.normalize.calls": ("build", ""),
}


def layer_metrics(summary, untraced_s: float, traced_s: float) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for metric, _, span, field in PER_LAYER:
        row = summary[span]
        if field == "b/a":
            out[metric] = row["b"] / row["a"] if row["a"] else 0.0
        else:
            out[metric] = row[field]
    out[OVERHEAD[0]] = traced_s / untraced_s - 1
    return out


def coverage_errors(workload: str, metrics: Dict[str, float]) -> List[str]:
    """Predicted non-zero cells that read zero, and predicted zeros that
    do not."""
    errors = []
    for metric, (nonzero, zero) in PREDICTIONS.items():
        value = metrics[metric]
        if workload in nonzero.split() and not value:
            errors.append(f"{metric} never fired on {workload}")
        if workload in zero.split() and value:
            errors.append(f"{metric} is {value} on {workload}, predicted 0")
    return errors
