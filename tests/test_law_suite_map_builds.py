"""The convolution law suites build the map of each signed product once per
check, in one pass (``MultiLinearMap._plus``), and never through
``MultiLinearMap.add``, ``sub`` or ``tau``: the benchmark's tracer counts
those three as ``linalg.map_rebuild`` and predicts none on ``laws``.  One
seed-1 ``laws`` cycle, every operation run once through the benchmark's own
``worker.execute``, calls none of them.  A ``verify`` cycle, whose catalogue
roles ``("sum", a, b)`` and ``("tau", r)`` do call them, shows that the
count sees a call."""

import importlib
import sys
from pathlib import Path

import pytest

from lcoalg.linalg import MultiLinearMap

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import worker  # noqa: E402
import workloads  # noqa: E402


def _wrapped(calls, name):
    real = getattr(MultiLinearMap, name)

    def counted(self, *args):
        calls.append(name)
        return real(self, *args)

    return counted


@pytest.mark.parametrize("name, rebuilds", [("laws", False), ("verify", True)])
def test_a_law_suite_cycle_calls_no_map_add_sub_or_tau(name, rebuilds, tmp_path,
                                                       monkeypatch):
    # The workload finds its modules in sys.modules, as in a worker.
    importlib.import_module("lcoalg.cli")
    ops = workloads.build(name, 1, str(tmp_path))
    for module in {op.call[0] for op in ops if op.call}:
        importlib.import_module(module)
    calls = []
    for method in ("add", "sub", "tau"):
        monkeypatch.setattr(MultiLinearMap, method, _wrapped(calls, method))
    failures = []
    for op in ops:
        failure = worker.execute(op, workloads)[2]
        if failure is not None:
            failures.append(f"{op.name}: {failure}")
    assert failures == []
    assert bool(calls) == rebuilds, f"{len(calls)} calls: {sorted(set(calls))}"
