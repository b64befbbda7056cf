#!/usr/bin/env python3
"""Compares two sets of perfbench results, or checks the spread of one.

  python3 perfbench/compare.py results/A            # spread of one set
  python3 perfbench/compare.py results/A results/B  # B against A

A result set is a directory of files written by `run.py --save`. For every
workload and end-to-end metric it prints each set's median and quartiles
(statistics.quantiles, n=4), the spread (Q3 - Q1) / median, and, with two
sets, whether B's median is within the metric's bound of A's in the worse
direction. Bounds and directions come from BENCHMARK.json (--bench).
Exits 1 when a spread (other than setup_s) or a comparison exceeds its bound.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load_set(path):
    runs = {}
    for name in sorted(glob.glob(os.path.join(path, "*.json"))):
        with open(name) as f:
            r = json.load(f)
        if r.get("trace", 0) == 0:
            runs.setdefault(r["workload"], []).append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a")
    parser.add_argument("b", nargs="?")
    parser.add_argument("--bench", default=os.path.join(root, "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    sets = [load_set(args.a)] + ([load_set(args.b)] if args.b else [])
    ok = True
    for workload in sorted(sets[0]):
        print("\n%s  (runs: %s)" % (workload, " / ".join(str(len(s.get(workload, []))) for s in sets)))
        print("  %-14s %-6s %36s %11s" % ("metric", "bound", "median [Q1, Q3] spread per set",
                                           "B vs A"))
        for m in bench["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            cells, medians = [], []
            for s in sets:
                values = [r["metrics"][name]["value"] for r in s.get(workload, [])]
                if not values:
                    cells.append("-")
                    continue
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag, ok = " SPREAD>BOUND", False
                cells.append("%.4g [%.4g, %.4g] %.1f%%%s" % (med, q1, q3, 100 * spread, flag))
                medians.append(med)
            verdict = ""
            if len(medians) == 2 and medians[0]:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change > bound if lower else -change > bound
                verdict = "%+.1f%% %s" % (100 * change, "WORSE" if worse else "ok")
                ok = ok and not worse
            print("  %-14s %-6g %s %s" % (name, bound, "  |  ".join(cells), verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
