"""One workload in one fresh process: set up, then either stop (--mode
setup), run the closed loop for --seconds (--mode run), or run one traced
cycle between two untraced ones (--mode trace).  Prints one JSON object as
its last line.  Started by run.py from the root of a checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))


def _import_lcoalg():
    sys.path.insert(0, os.path.abspath("src"))
    import lcoalg.cli  # noqa: F401  (with lcoalg, loads every submodule)


def execute(op, runner):
    """Run one operation; returns (seconds, output text, failure or None).
    An operation that raises has failed."""
    start = time.perf_counter()
    try:
        if op.argv is not None:
            code, out = runner.run_cli(op.argv)
            elapsed = time.perf_counter() - start
        else:
            module, function, args = op.call
            result = getattr(sys.modules[module], function)(*args)
            elapsed = time.perf_counter() - start
            code, out = 0, runner.render(result)
    except Exception as exc:
        return time.perf_counter() - start, "", f"raised {exc!r}"
    if code != op.code:
        return elapsed, out, f"exit code {code}, expected {op.code}"
    return elapsed, out, op.expect(out)


def _setup(args):
    _import_lcoalg()
    import workloads

    ops = workloads.build(args.workload, args.seed, args.workdir)
    # Warm-up: the first operation of the cycle, once.
    _, _, failure = execute(ops[0], workloads)
    if failure is not None:
        raise RuntimeError(f"warm-up {ops[0].name}: {failure}")
    return workloads, ops


MIN_CYCLES = 3  # so that every operation's time is a median of three or more
SETUP_REFERENCES = 15  # reference loops timed right after set-up


def reference_loop() -> float:
    """Time one fixed pure-Python loop of about two milliseconds on stdlib
    fractions and dicts, the kind of work lcoalg's scalars and linalg do,
    but none of lcoalg's own code: it measures how fast the host runs
    Python at that moment.  The collector is off while it runs, so that the
    size of lcoalg's heap does not change its time.  Returns seconds."""
    gc.disable()
    start = time.perf_counter()
    acc = {}
    for i in range(150):
        x = Fraction(i + 2, i + 1) * Fraction(3, i + 5) + Fraction(1, i + 7)
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, 0) + x
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def _timed(args, workloads, ops):
    """The closed loop: whole cycles, each in a new seeded order, until
    --seconds have passed and at least MIN_CYCLES cycles are done."""
    rng = random.Random(args.seed)
    order = list(range(len(ops)))
    latencies, op_ids, failures, first_out = [], [], [], {}
    references = []  # the reference loop timed just before each operation
    unstable = set()
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(latencies) < MIN_CYCLES * len(ops):
        rng.shuffle(order)
        for i in order:
            op = ops[i]
            references.append(reference_loop())
            elapsed, out, failure = execute(op, workloads)
            latencies.append(elapsed)
            op_ids.append(i)
            if failure is not None:
                failures.append(f"{op.name}: {failure}")
            if first_out.setdefault(op.name, out) != out:
                unstable.add(op.name)
    digest = hashlib.sha256()
    for name in sorted(first_out):
        digest.update(f"{name}\n{first_out[name]}\0".encode("utf-8"))
    return {
        "latencies_s": latencies,
        "op_ids": op_ids,
        "references_s": references,
        "failures": failures[:20],
        "failed": len(failures),
        "unstable": sorted(unstable),
        "digest": digest.hexdigest(),
    }


def _one_cycle(args, workloads, tag):
    """Build the inputs afresh and run each operation once; returns
    (seconds, outputs, failures)."""
    start = time.perf_counter()
    ops = workloads.build(args.workload, args.seed, os.path.join(args.workdir, tag))
    outputs, failures = [], []
    for op in ops:
        _, out, failure = execute(op, workloads)
        outputs.append(out)
        if failure is not None:
            failures.append(f"{op.name}: {failure}")
    return time.perf_counter() - start, outputs, failures


def _trace(args, workloads, ops):
    """One traced cycle between two untraced ones, so that the overhead
    compares like with like."""
    import tracing

    before, expected, failures = _one_cycle(args, workloads, "untraced1")
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    traced, outputs, traced_failures = _one_cycle(args, workloads, "traced")
    restore()
    after, _, late_failures = _one_cycle(args, workloads, "untraced2")
    failures += traced_failures + late_failures
    if outputs != expected:
        failures.append("tracing changed the output")
    tracer.write(args.spans)
    return {
        "summary": tracer.summary(),
        "spans": len(tracer.name),
        "untraced_s": (before + after) / 2,
        "traced_s": traced,
        "failures": failures[:20],
        "failed": len(failures),
        "attempted": 3 * len(ops),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="trace mode: where to write the spans")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    args = parser.parse_args()
    sys.path.insert(0, HERE)

    workloads, ops = _setup(args)
    result = {"setup_s": time.monotonic() - args.t0,
              "setup_reference_s": statistics.median(
                  reference_loop() for _ in range(SETUP_REFERENCES))}
    if args.mode == "run":
        result.update(_timed(args, workloads, ops))
    elif args.mode == "trace":
        result.update(_trace(args, workloads, ops))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
