"""A full monoid table, where every product of two labels is one label with
coefficient 1, has its associativity decided from its index rows, without
a ``coassoc(Delta)`` pass of the evaluator over its transpose.  One seed-1
``complex`` cycle, every operation run once through the benchmark's own
``worker.execute``, builds the algebra of every group document it reads and
makes no such pass.  A table with a product of two terms still makes exactly
one, which shows that the count sees a pass."""

import importlib
import sys
from pathlib import Path

import pytest

from lcoalg import coalgebra
from lcoalg.coalgebra import FiniteAlgebra
from lcoalg.linalg import BasisSpace
from lcoalg.scalars import ONE

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def passes(monkeypatch):
    """The ``coassoc(Delta)`` passes that ``_check_associative`` makes, and
    the number of its calls, as ``[passes, checks]``."""
    counts = [0, 0]
    inside = []
    real_expand, real_check = coalgebra._expand, FiniteAlgebra._check_associative

    def expand(equation, memo, labels, products=None):
        if inside and equation[0] == "coassoc(Delta)":
            counts[0] += 1
        return real_expand(equation, memo, labels, products)

    def check(self):
        counts[1] += 1
        inside.append(self)
        try:
            return real_check(self)
        finally:
            inside.pop()

    monkeypatch.setattr(coalgebra, "_expand", expand)
    monkeypatch.setattr(FiniteAlgebra, "_check_associative", check)
    return counts


def test_a_complex_cycle_checks_its_group_tables_without_the_evaluator(passes, tmp_path):
    # The workload finds its modules in sys.modules, as in a worker.
    importlib.import_module("lcoalg.cli")
    ops = workloads.build("complex", 1, str(tmp_path))
    for module in {op.call[0] for op in ops if op.call}:
        importlib.import_module(module)
    failures = []
    for op in ops:
        failure = worker.execute(op, workloads)[2]
        if failure is not None:
            failures.append(f"{op.name}: {failure}")
    assert failures == []
    made, checks = passes
    assert checks >= sum(op.name.startswith("complex group") for op in ops) > 0
    assert made == 0


def test_a_table_that_is_not_a_monoid_makes_one_pass(passes):
    space = BasisSpace(["e", "a"])
    product = {("e", "e"): {"e": ONE}, ("e", "a"): {"a": ONE}, ("a", "e"): {"a": ONE},
               ("a", "a"): {"e": ONE, "a": ONE}}
    FiniteAlgebra(space, product, {"e": ONE})
    assert passes == [1, 1]
