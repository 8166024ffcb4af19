#!/usr/bin/env python3
"""Compare benchmark results of two commits, or check the spread of one.

    benchmark/compare.py BASE... -- CHANGE...
    benchmark/compare.py RUNS...

Each argument is a results.json written by benchmark/run.sh; each file is one
separately started run. For every workload and end-to-end metric in
BENCHMARK.json this prints each side's median and quartiles and, with two
sides, the pair wins and a verdict:

  improved    the change wins at least 9 in 10 pairs (ties count for
              neither) and its median is better than the base's by more than
              the base runs' quartile distance
  regressed   the change's median is worse than the base's by more than the
              bound, however wide the spread
  unresolved  not regressed, but the base runs' quartile distance, as a
              share of their median, is wider than the metric's bound, unless
              every change run reads better than every base run
  unchanged   otherwise

error_frac, the failed share of attempted operations, is a regression on any
rise. Exits 1 when any verdict is a regression. With one side it prints the
spread of each metric against its bound instead.
"""

import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                    "BENCHMARK.json")


def load_runs(paths):
    """{workload: [result, ...]} over the results.json files in `paths`."""
    runs = {}
    for path in paths:
        with open(path) as f:
            for workload, result in json.load(f)["workloads"].items():
                runs.setdefault(workload, []).append(result)
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def error_frac(result):
    return result["failed"] / max(result["attempted"], 1)


def verdict(metric, base, change):
    """Verdict and pair wins of one metric; `metric` is its spec entry."""
    lower = metric["better"] == "lower"

    def better(a, b):
        return a < b if lower else a > b

    pairs = list(zip(base, change))
    wins = sum(better(c, b) for b, c in pairs)
    b_q1, b_median, b_q3 = quartiles(base)
    c_median = quartiles(change)[1]
    worse = (c_median - b_median) / abs(b_median)
    if not lower:
        worse = -worse
    all_better = all(better(c, b) for c in change for b in base)
    if pairs and wins >= 0.9 * len(pairs) and \
            better(c_median, b_median) and \
            abs(c_median - b_median) > b_q3 - b_q1:
        result = "improved"
    elif worse > metric["bound"]:
        result = "regressed"
    elif spread(base) > metric["bound"] and not all_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return result, wins, len(pairs), worse


def fmt(values):
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(spec, base_runs, change_runs, out=None):
    """Prints one row per workload and metric; returns the verdicts."""
    out = out or sys.stdout
    verdicts = []
    for workload in sorted(set(base_runs) | set(change_runs)):
        base = base_runs.get(workload, [])
        change = change_runs.get(workload, [])
        if not base or not change:
            out.write(f"{workload}: missing on one side, not compared\n")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base]
            c = [r["metrics"][name]["value"] for r in change]
            result, wins, pairs, worse = verdict(metric, b, c)
            verdicts.append((workload, name, result))
            out.write(f"{workload:15s} {name:18s} base {fmt(b):32s} "
                      f"change {fmt(c):32s} wins {wins}/{pairs} "
                      f"worse {worse:+.1%} (bound {metric['bound']:.0%}) "
                      f"{result}\n")
        b = statistics.mean(error_frac(r) for r in base)
        c = statistics.mean(error_frac(r) for r in change)
        result = "regressed" if c > b else ("improved" if c < b else "unchanged")
        verdicts.append((workload, "error_frac", result))
        out.write(f"{workload:15s} {'error_frac':18s} base {b:.4g} "
                  f"change {c:.4g} {result}\n")
    return verdicts


def check_spread(spec, runs, out=None):
    """Prints each metric's spread against its bound (one side only)."""
    out = out or sys.stdout
    for workload in sorted(runs):
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs[workload]]
            s = spread(values)
            state = ("steady" if s < metric["bound"] / 3 else
                     "within bound" if s <= metric["bound"] else "too wide")
            out.write(f"{workload:15s} {metric['name']:18s} {fmt(values):32s} "
                      f"spread {s:.1%} (bound {metric['bound']:.0%}) {state}\n")
        fracs = [error_frac(r) for r in runs[workload]]
        out.write(f"{workload:15s} {'error_frac':18s} max {max(fracs):.4g}\n")


def main(argv):
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(__doc__)
        return 0 if argv else 2
    with open(SPEC) as f:
        spec = json.load(f)
    if "--" not in argv:
        check_spread(spec, load_runs(argv))
        return 0
    split = argv.index("--")
    verdicts = compare(spec, load_runs(argv[:split]), load_runs(argv[split + 1:]))
    return 1 if any(v[2] == "regressed" for v in verdicts) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
