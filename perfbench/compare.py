"""Compare two sets of benchmark runs, metric by metric.

Usage: python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the lines ``run.py --record FILE`` appended.  For every
(workload, metric) pair present in both, this prints each side's median,
quartiles and sample count, and a label:

- better / worse: the i-th run of one side is paired with the i-th run of
  the other on the same workload and trace mode.  One side wins at least
  nine tenths of the pairs (ties count for neither), and the medians differ
  by more than the base's own spread, the distance between its quartiles;
- unresolved: anything else.

Run the two sides alternately, at least ten pairs, with the same seeds and
the same --seconds.  The direction of each metric comes from BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    """{(workload, metric): [values in run order]}"""
    series = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                run = json.loads(line)
                for name, m in run["result"]["metrics"].items():
                    series[(run["info"]["workload"], name)].append(m["value"])
    return series


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}] {len(values)}"


def label(base: list[float], change: list[float], lower_is_better: bool) -> str:
    pairs = list(zip(base, change))
    sign = 1 if lower_is_better else -1
    change_wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    base_wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    q1, median_base, q3 = quartiles(base)
    if abs(statistics.median(change) - median_base) <= q3 - q1:
        return "unresolved"
    if change_wins >= 0.9 * len(pairs):
        return "better"
    if base_wins >= 0.9 * len(pairs):
        return "worse"
    return "unresolved"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text())
    lower = {m["name"]: m["better"] == "lower"
             for m in bench["end_to_end"] + bench["per_layer"]}
    base, change = load(argv[0]), load(argv[1])
    print(f"{'workload':<14} {'metric':<32} {'base: median [q1, q3] n':<36} "
          f"{'change: median [q1, q3] n':<36} {'delta':>7}  label")
    for key in sorted(base.keys() & change.keys()):
        workload, name = key
        b, c = base[key], change[key]
        delta = (statistics.median(c) / statistics.median(b) - 1
                 if statistics.median(b) else 0.0)
        print(f"{workload:<14} {name:<32} {summary(b):<36} {summary(c):<36} "
              f"{delta:>+7.1%}  {label(b, c, lower.get(name, True))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
