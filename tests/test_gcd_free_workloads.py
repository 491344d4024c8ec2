"""No benchmark operation reaches the Euclidean gcd of the general scalar
constructor: one seed-1 cycle of each perfbench workload, every operation
run once through the benchmark's own ``worker.execute``, makes no
``scalars._pgcd`` call.  A fast path of ``scalars.py`` that stops yielding
canonical scalars by itself sends its results through the gcd, and fails
this test."""

import importlib
import sys
from pathlib import Path

import pytest

from lcoalg import scalars

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_a_workload_cycle_makes_no_gcd_call(name, tmp_path, monkeypatch):
    # The workload finds its modules in sys.modules, as in a worker.
    importlib.import_module("lcoalg.cli")
    ops = workloads.build(name, 1, str(tmp_path))
    for module in {op.call[0] for op in ops if op.call}:
        importlib.import_module(module)
    calls = []
    real = scalars._pgcd
    monkeypatch.setattr(scalars, "_pgcd", lambda a, b: calls.append(1) or real(a, b))
    failures = []
    for op in ops:
        failure = worker.execute(op, workloads)[2]
        if failure is not None:
            failures.append(f"{op.name}: {failure}")
    assert failures == []
    assert not calls, f"{len(calls)} _pgcd calls"
