#!/usr/bin/env python3
"""Spread and regression report over saved benchmark results.

    python3 perfbench/compare.py RESULTS_DIR             # spread of one set
    python3 perfbench/compare.py NEW_DIR BASE_DIR        # NEW against BASE

A results directory holds the records run.py saves (.bench_build/results/ by
default; copy it away to keep a set). For every workload and end-to-end
metric the report gives the median and quartiles over the set's seeds
(statistics.quantiles, n=4) and the spread, the quartile distance as a share
of the median, against a third of the metric's bound in BENCHMARK.json. With
two sets it also gives the change of the median, in the metric's worse
direction, against the bound. Runs whose host fingerprints differ are not
compared: the script refuses (exit 2). Exit 1 when a spread or a change
exceeds its limit (setup_s's spread is reported, not judged).
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{workload: {metric: [values]}} of the untraced runs, plus fingerprints."""
    runs, fingerprints = {}, set()
    for path in sorted(glob.glob(os.path.join(directory, "*.trace0.json"))):
        with open(path) as f:
            rec = json.load(f)
        fingerprints.add(json.dumps(rec["fingerprint"], sort_keys=True))
        metrics = runs.setdefault(rec["workload"], {})
        for name, m in rec["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return runs, fingerprints


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    new, fp_new = load(argv[1])
    base, fp_base = load(argv[2]) if len(argv) == 3 else ({}, set())
    fingerprints = fp_new | fp_base
    if len(fingerprints) > 1:
        print("refusing to compare: the runs' host fingerprints differ:",
              file=sys.stderr)
        for fp in sorted(fingerprints):
            print(f"  {fp}", file=sys.stderr)
        return 2
    if not new:
        print(f"no untraced results in {argv[1]}", file=sys.stderr)
        return 2

    bad = 0
    for workload in sorted(new):
        print(f"== {workload}")
        for name, m in spec.items():
            values = new[workload].get(name)
            if not values:
                print(f"  {name:16s} missing")
                bad += 1
                continue
            med, q1, q3, spread = summary(values)
            limit = m["bound"] / 3
            judged = name != "setup_s"
            flag = "" if not judged or spread <= limit else "  SPREAD>bound/3"
            bad += bool(flag)
            line = (f"  {name:16s} n={len(values):2d} median {med:12.4f} "
                    f"[{q1:.4f}, {q3:.4f}] {m['unit']:5s} spread "
                    f"{100 * spread:6.2f}% (limit {100 * limit:.2f}%)")
            old = base.get(workload, {}).get(name)
            if old:
                old_med = summary(old)[0]
                change = (med - old_med) / old_med if old_med else 0.0
                worse = change if m["better"] == "lower" else -change
                verdict = "REGRESSION" if worse > m["bound"] else "ok"
                bad += verdict != "ok"
                line += (f" | base {old_med:.4f}, worse by {100 * worse:+.2f}% "
                         f"(bound {100 * m['bound']:.0f}%) {verdict}")
            print(line + flag)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
