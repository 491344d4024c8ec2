"""lcoalg benchmark: time to verdict on four seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Each workload runs in fresh worker processes, one after another: one worker
runs the closed loop (one client) for --seconds, and further workers only
set up, so that set-up time is a median.  Every operation's output is
checked against its known answer (see oracle.py).  --trace 1 instead runs
one traced cycle between two untraced ones and reports the per-layer
metrics (see tracing.py).
--workload all runs the four workloads in turn.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9  # the timed worker plus eight set-up-only workers
# The reference loop's usual time on the host where the benchmark was
# defined (Intel Xeon, 2 cores, Python 3.11); times are scaled to it.
REFERENCE_S = 0.002
OUT_DIR = ".perfbench_out"
WORK_DIR = ".perfbench_work"
END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_ops_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


def _worker(workload, seed, seconds, mode, workdir, spans=None):
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--mode", mode, "--workdir", workdir]
    if spans:
        argv += ["--spans", spans]
    argv += ["--t0", repr(time.monotonic())]
    # A fixed hash seed gives every worker the same dict and set orders.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=seconds + 120)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} worker timed out") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        raise BenchError(f"{workload} {mode} worker failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def op_times(op_ids, latencies, references):
    """Each operation's time: the median over its repetitions, each
    repetition scaled to the reference speed of the host.

    A host that shares its cores with other work runs the same Python code
    10-50% slower for seconds to minutes at a time.  The worker
    times reference_loop() before every operation; each repetition is
    multiplied by REFERENCE_S over the median reference time of its cycle,
    so that a slow phase of the host, which slows both alike, cancels.
    Every cycle runs every operation once, so the figures taken from these
    times have the same operation mix whatever the run length."""
    n = len(set(op_ids))
    scaled = {}
    for start in range(0, len(latencies), n):
        factor = REFERENCE_S / statistics.median(references[start:start + n])
        for i, seconds in zip(op_ids[start:start + n], latencies[start:start + n]):
            scaled.setdefault(i, []).append(seconds * factor)
    return [statistics.median(scaled[i]) for i in sorted(scaled)]


def measure(workload, seed, seconds, workdir):
    """End-to-end metrics of one workload, from untraced workers."""
    # Set-up-only workers before and after the timed one, so that the
    # median set-up time spans the run.
    setups = [_worker(workload, seed, seconds, "setup", workdir)
              for _ in range(SETUP_SAMPLES // 2)]
    run = _worker(workload, seed, seconds, "run", workdir)
    setups += [run] + [_worker(workload, seed, seconds, "setup", workdir)
                       for _ in range(SETUP_SAMPLES // 2)]
    lat = run["latencies_s"]
    times = op_times(run["op_ids"], lat, run["references_s"])
    metrics = {
        "latency_p50_ms": 1000 * statistics.median(times),
        "latency_p90_ms": 1000 * statistics.quantiles(times, n=10, method="inclusive")[-1],
        "throughput_ops_s": len(times) / sum(times),
        "setup_s": statistics.median(
            w["setup_s"] * REFERENCE_S / w["setup_reference_s"] for w in setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    # What the closed loop saw, over every sample and at the host's speed of
    # the moment; printed, not bounded.
    observed = {
        "host_reference_ms": 1000 * statistics.median(run["references_s"]),
        "observed_p50_ms": 1000 * statistics.median(lat),
        "observed_p90_ms": 1000 * statistics.quantiles(lat, n=10, method="inclusive")[-1],
        "observed_ops_s": len(lat) / sum(lat),
    }
    report = {
        "attempted": len(lat),
        "failed": run["failed"],
        "fail_share": run["failed"] / len(lat),
        "digest": run["digest"],
        "operations": len(times),
        "repetitions": min(run["op_ids"].count(i) for i in range(len(times))),
        "observed": observed,
        "samples": {"op_ids": run["op_ids"], "latencies_s": lat,
                    "references_s": run["references_s"],
                    "setup_s": [w["setup_s"] for w in setups],
                    "setup_references_s": [w["setup_reference_s"] for w in setups]},
        "problems": run["failures"] + [f"output changed between runs: {name}"
                                       for name in run["unstable"]],
    }
    units = dict(END_TO_END, host_reference_ms="ms", observed_p50_ms="ms",
                 observed_p90_ms="ms", observed_ops_s="ops/s")
    return metrics, units, report


def trace(workload, seed, seconds, workdir):
    """Per-layer metrics of one workload, from one traced worker."""
    spans = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.tsv.gz")
    run = _worker(workload, seed, seconds, "trace", workdir, spans)
    metrics = tracing.layer_metrics(run["summary"], run["untraced_s"], run["traced_s"])
    units = {m: u for m, u, _, _ in tracing.PER_LAYER}
    units[tracing.OVERHEAD[0]] = tracing.OVERHEAD[1]
    report = {
        "attempted": run["attempted"],
        "failed": run["failed"],
        "fail_share": run["failed"] / run["attempted"],
        "spans": run["spans"],
        "spans_file": spans,
        "problems": run["failures"] + tracing.coverage_errors(workload, metrics),
    }
    return metrics, units, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "lcoalg", "__init__.py")):
        print("error: run from the root of an lcoalg checkout (no src/lcoalg)",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    step = trace if args.trace else measure
    attempted = failed = 0
    correct = True
    metrics_out = {}
    for name in names:
        workdir = os.path.join(WORK_DIR, f"{name}-{args.seed}-{os.getpid()}")
        try:
            metrics, units, report = step(name, args.seed, args.seconds, workdir)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        attempted += report["attempted"]
        failed += report["failed"]
        correct = correct and not report["problems"]
        for problem in report["problems"]:
            print(f"{name}\tproblem\t{problem}", file=sys.stderr)
        for metric, value in metrics.items():
            print(f"{name}\t{metric}\t{value:.6g}\t{units[metric]}")
        print(f"{name}\tfail_share\t{report['fail_share']:.6g}\tratio")
        for metric, value in report.get("observed", {}).items():
            print(f"{name}\t{metric}\t{value:.6g}\t{units[metric]}")
        for key in ("operations", "repetitions"):
            if key in report:
                print(f"{name}\t{key}\t{report[key]}\tcount")
        for key in ("digest", "spans", "spans_file"):
            if key in report:
                print(f"{name}\t{key}\t{report[key]}")
        with open(os.path.join(OUT_DIR, f"result-{name}-{args.seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as handle:
            json.dump({"metrics": metrics, "units": units, **report}, handle, indent=1)
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, value in metrics.items():
            metrics_out[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
