#!/usr/bin/env python3
"""Compares two sets of benchmark results, workload by workload.

usage: python3 benchmark/compare.py PARENT_DIR CHANGE_DIR

Each directory holds results files written by run.py (one JSON per run;
smoke and --trace runs are skipped). For every workload x end-to-end
metric it prints each side's median and quartiles, the share of pairs the
change wins (runs paired by seed, else by order; ties count for neither),
the failure share of each side, and a verdict:

  improved       the change wins >= 9/10 of the pairs, its median is
                 better by more than the parent's interquartile range, and
                 no larger share of its operations failed
  no-regression  the change's median is no worse than the bound allows,
                 or (spread wider than the bound) every change run beats
                 every parent run
  regression     the change's median is worse by more than the bound
  unresolved     either side's spread is wider than the bound

The bound is the root BENCHMARK.json's share of the parent's median. Exits
1 if any pair is a regression or any run is incorrect.
"""
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        if r.get("schema") != "satd-benchmark-1" or r["trace"] or r["smoke"]:
            continue
        runs.setdefault(r["workload"], []).append(r)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent, change):
    by_seed = {r["seed"]: r for r in parent}
    common = [(by_seed[r["seed"]], r) for r in change if r["seed"] in by_seed]
    if common:
        return common
    return list(zip(parent, change))


def failure_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def verdict(metric, parent_runs, change_runs):
    sign = -1.0 if metric["better"] == "lower" else 1.0
    name = metric["name"]
    p = [r["metrics"][name]["value"] for r in parent_runs]
    c = [r["metrics"][name]["value"] for r in change_runs]
    pq1, pmed, pq3 = quartiles(p)
    cq1, cmed, cq3 = quartiles(c)
    matched = pairs(parent_runs, change_runs)
    wins = sum(1 for a, b in matched
               if sign * (b["metrics"][name]["value"]
                          - a["metrics"][name]["value"]) > 0)
    gain = sign * (cmed - pmed)
    bound = metric["bound"] * abs(pmed)
    if (wins >= 0.9 * len(matched) and gain > pq3 - pq1 and gain > 0
            and failure_share(change_runs) <= failure_share(parent_runs)):
        v = "improved"
    elif max(pq3 - pq1, cq3 - cq1) > bound:
        all_better = min(sign * x for x in c) > max(sign * x for x in p)
        v = "no-regression" if all_better else "unresolved"
    elif -gain > bound:
        v = "regression"
    else:
        v = "no-regression"
    return {"parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3),
            "wins": wins, "pairs": len(matched), "verdict": v}


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load(argv[0]), load(argv[1])
    bad = False
    for workload in [w["name"] for w in spec["workloads"]]:
        p, c = parent.get(workload, []), change.get(workload, [])
        if not p or not c:
            print("%s: missing runs (parent %d, change %d)"
                  % (workload, len(p), len(c)))
            continue
        incorrect = sum(1 for r in p + c if not r["correct"])
        bad = bad or incorrect > 0
        print("%s: %d parent runs, %d change runs, failure share %.4g -> "
              "%.4g, incorrect runs %d"
              % (workload, len(p), len(c), failure_share(p),
                 failure_share(c), incorrect))
        for metric in spec["end_to_end"]:
            v = verdict(metric, p, c)
            bad = bad or v["verdict"] == "regression"
            print("  %-18s %-9s parent %.6g [%.6g, %.6g]  change %.6g "
                  "[%.6g, %.6g]  wins %d/%d  bound %.3g  %s"
                  % (metric["name"], metric["unit"], v["parent"][1],
                     v["parent"][0], v["parent"][2], v["change"][1],
                     v["change"][0], v["change"][2], v["wins"], v["pairs"],
                     metric["bound"], v["verdict"]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
