"""Tests of the benchmark itself.  Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import lcoalg.cli  # noqa: E402,F401
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def traced_cycle(name, seed, workdir):
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        ops = workloads.build(name, seed, str(workdir))
        failures = [
            op.name for op in ops if worker.execute(op, workloads)[2] is not None
        ]
    finally:
        restore()
    return tracing.layer_metrics(tracer.summary(), 1.0, 1.0), failures


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_and_predictions_hold(name, tmp_path):
    first, failures = traced_cycle(name, 7, tmp_path / "one")
    second, _ = traced_cycle(name, 7, tmp_path / "two")
    assert failures == []
    assert {m: first[m] for m in tracing.EXACT_COUNTS} == {
        m: second[m] for m in tracing.EXACT_COUNTS
    }
    assert tracing.coverage_errors(name, first) == []


def test_restore_removes_every_wrapper():
    scalar = sys.modules["lcoalg.scalars"].Scalar
    before = dict(vars(scalar)), sys.modules["lcoalg.complexes"].tensor_add
    restore = tracing.install(tracing.Tracer())
    assert sys.modules["lcoalg.complexes"].tensor_add is not before[1]
    restore()
    assert dict(vars(scalar)) == before[0]
    assert sys.modules["lcoalg.complexes"].tensor_add is before[1]


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    outer = tracer.wrap(0, lambda: inner(), None)
    inner = tracer.wrap(1, lambda: sum(range(20000)), None)
    outer()
    summary = tracer.summary()
    parent, child = summary[tracing.SPAN_NAMES[0]], summary[tracing.SPAN_NAMES[1]]
    assert parent["calls"] == child["calls"] == 1
    total = tracer.end[0] - tracer.start[0]
    assert parent["self_s"] == pytest.approx(total - child["self_s"])


def test_op_times_scale_each_cycle_to_the_reference_speed():
    # two operations, three cycles; the second cycle ran at half speed
    op_ids = [1, 0, 0, 1, 1, 0]
    latencies = [0.5, 0.3, 0.6, 1.0, 0.4, 0.2]
    ref = run.REFERENCE_S
    references = [ref, ref, 2 * ref, 2 * ref, ref, ref]
    assert run.op_times(op_ids, latencies, references) == pytest.approx([0.3, 0.5])


def test_known_answers_reject_wrong_output():
    passes = workloads.same_lines(oracle.check_lines("codialgebra"))
    assert passes("check\tcodialgebra\tpass\t0\n") is None
    assert passes("check\tcodialgebra\tfail\t1\nwitness\tcodialgebra\tx\ta0\n")
    assert workloads.same_text(oracle.embed_output(3, 3))(
        oracle.embed_output(3, 4)) is not None
    assert oracle.cibils_document(2, "q") != oracle.cibils_document(2, "2/3")


def test_fixture_documents_match_their_definitions():
    for n in (1, 3, 5):
        for q_text in ("q", "-3/7"):
            assert workloads.run_cli(["fixtures", "cibils", "--n", str(n),
                                      f"--q={q_text}"]) == (
                0, oracle.cibils_document(n, q_text))
        assert workloads.run_cli(["fixtures", "debruijn", "--n", str(n)]) == (
            0, oracle.debruijn_document(n))
        assert workloads.run_cli(["fixtures", "group", "--n", str(n)]) == (
            0, oracle.group_document(n))


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_traced_runs_repeat_their_counts(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    results = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "3",
             "--seconds", "1", "--trace", "1"],
            cwd=tmp_path, capture_output=True, text=True, timeout=170,
        )
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.splitlines()[-1]))
    first, second = results
    assert sorted(first) == ["attempted", "correct", "failed", "metrics"]
    assert first["correct"] and first["failed"] == 0
    names = {m for m, _, _, _ in tracing.PER_LAYER} | {tracing.OVERHEAD[0]}
    assert set(first["metrics"]) == names
    for metric in tracing.EXACT_COUNTS:
        assert first["metrics"][metric] == second["metrics"][metric]
