#!/usr/bin/env python3
"""Compare two sets of perfbench results, metric by metric.

    python3 perfbench/bench_diff.py BASE NEW [--benchmark BENCHMARK.json]

BASE and NEW are result files or directories of them (perfbench/run.py
saves one per run under <build>/results/). Untraced runs are grouped by
(workload, end-to-end metric). Each side's spread is the distance between
its first and third quartile as a share of its median; the verdict uses the
metric's bound from BENCHMARK.json:

  improved / worse  the medians differ by more than the bound
  unchanged         they differ by no more than the bound
  unresolved        a side's spread exceeds the bound, unless every NEW run
                    beats (improved) or trails (worse) every BASE run

Exits 1 when any (workload, metric) is worse, 2 on unusable input.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(path):
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    runs = {}
    for f in files:
        try:
            d = json.loads(f.read_text())
        except (OSError, ValueError):
            continue
        stamp = d.get("stamp") or {}
        if stamp.get("trace") or stamp.get("smoke") or "e2e" not in d:
            continue
        runs.setdefault(stamp.get("workload"), []).append(d["e2e"])
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return abs(q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, bound, better):
    sign = 1.0 if better == "lower" else -1.0
    b, n = statistics.median(base), statistics.median(new)
    change = sign * (n - b) / abs(b) if b else 0.0  # > 0 reads worse
    if max(spread(base), spread(new)) > bound:
        if all(sign * (x - y) < 0 for x in new for y in base):
            return "improved", change
        if all(sign * (x - y) > 0 for x in new for y in base):
            return "worse", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "improved", change
    return "unchanged", change


def main():
    ap = argparse.ArgumentParser(description="Compare two sets of perfbench results.")
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=str(Path(__file__).resolve().parent.parent /
                                               "BENCHMARK.json"))
    args = ap.parse_args()
    metrics = json.loads(Path(args.benchmark).read_text())["end_to_end"]
    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("bench_diff: no untraced results on one side", file=sys.stderr)
        return 2
    worse = False
    print(f"{'workload':16} {'metric':24} {'base':>12} {'new':>12} {'change':>8}  verdict")
    for workload in sorted(set(base) & set(new)):
        for m in metrics:
            b = [r[m["name"]] for r in base[workload] if m["name"] in r]
            n = [r[m["name"]] for r in new[workload] if m["name"] in r]
            if not b or not n:
                continue
            v, change = verdict(b, n, m["bound"], m["better"])
            worse = worse or v == "worse"
            print(f"{workload:16} {m['name']:24} {statistics.median(b):12.4g} "
                  f"{statistics.median(n):12.4g} {change * 100:+7.1f}%  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
