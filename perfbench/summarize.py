"""Median and quartiles of each metric over several benchmark runs.

    python3 perfbench/summarize.py .perfbench_out/result-*-trace0.json

Reads the result files that run.py writes and prints, per workload and
metric, the number of runs, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median.  Before-and-after claims quote these lines.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict


def main(paths) -> int:
    values = defaultdict(list)
    units = {}
    for path in paths:
        workload = os.path.basename(path).split("-")[1]
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        for metric, value in result["metrics"].items():
            values[(workload, metric)].append(value)
            units[metric] = result["units"][metric]
    print("workload\tmetric\truns\tmedian\tq1\tq3\tspread\tunit")
    for (workload, metric), vals in sorted(values.items()):
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        print(f"{workload}\t{metric}\t{len(vals)}\t{median:.6g}\t{q1:.6g}\t{q3:.6g}"
              f"\t{spread:.4f}\t{units[metric]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
