"""Pair two checkouts' benchmark results into one BENCH_<number>.json.

Usage:

    python3 benchmarks/pair_results.py --parent <checkout> --change <checkout> \
        --number <n> [--out BENCH_<n>.json]

Each checkout's ``perfbench/run.py --trace 0`` runs leave
``.bench_work/result-<workload>-seed<s>-trace0.json``.  A pair is the
parent's and the change's result for the same workload and seed, so a
series of pairs is a series of run seeds, alternating the two checkouts
seed by seed.  For every end-to-end metric that BENCHMARK.json declares,
the output holds each pair's two values, each side's median and quartiles,
the number of pairs the change wins (by the metric's own direction), the
median gap against the parent's interquartile range, and the relative
change of the medians against the metric's bound.  It also records the
failed trials, the machine, the BLAS thread variables, the dtype, the git
commits and the seeds.  A seed present on one side only is left out and
listed.
"""

import argparse
import glob
import json
import os
import re
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json$")
# environment fields that describe the machine and the run's settings
ENVIRONMENT = ("machine", "nproc", "affinity_cpus", "python", "numpy", "blas",
               "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "dtype")


def load_results(checkout):
    """{(workload, seed): result record} of a checkout's untraced runs."""
    found = {}
    for path in glob.glob(os.path.join(checkout, ".bench_work", "result-*-trace0.json")):
        match = RESULT.search(os.path.basename(path))
        if match:
            with open(path, encoding="utf-8") as fh:
                found[(match["workload"], int(match["seed"]))] = json.load(fh)
    return found


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def compare(metric, seeds, pairs):
    """One metric's (parent, change) pairs, each side's quartiles, wins and gap;
    ``within_bound`` is None for a metric without a bound."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    before, after = quartiles(parent), quartiles(change)
    gain = sign * (before["median"] - after["median"])  # > 0: the change is better
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "pairs": [{"seed": s, "parent": p, "change": c} for s, (p, c) in zip(seeds, pairs)],
        "parent": before,
        "change": after,
        "change_wins": sum(1 for p, c in pairs if sign * (p - c) > 0),
        "ties": sum(1 for p, c in pairs if p == c),
        "median_gain": gain,
        "parent_iqr": before["q3"] - before["q1"],
        "gain_exceeds_parent_iqr": gain > before["q3"] - before["q1"],
        "relative_change": (after["median"] - before["median"]) / before["median"]
        if before["median"] else None,
        "within_bound": None if metric["bound"] is None
        else -gain <= metric["bound"] * abs(before["median"]),
    }


def environment(records):
    """Each ENVIRONMENT field's value, or the list of values if they differ."""
    out = {}
    for key in ENVIRONMENT:
        values = []
        for r in records:
            v = r.get("environment", {}).get(key)
            if v not in values:
                values.append(v)
        out[key] = values[0] if len(values) == 1 else values
    return out


def pair(parent_dir, change_dir, number, benchmark):
    parent, change = load_results(parent_dir), load_results(change_dir)
    metrics = benchmark["end_to_end"]
    workloads = {}
    for workload in sorted({w for w, _ in parent} | {w for w, _ in change}):
        seeds = sorted(s for w, s in parent.keys() & change.keys() if w == workload)
        unpaired = sorted(s for w, s in parent.keys() ^ change.keys() if w == workload)
        sides = {"parent": [parent[(workload, s)] for s in seeds],
                 "change": [change[(workload, s)] for s in seeds]}
        entry = {"seeds": seeds, "unpaired_seeds": unpaired}
        if seeds:
            entry["seconds"] = sorted({r["seconds"] for r in sides["parent"] + sides["change"]})
            entry["trials"] = {side: {"attempted": sum(r["trials_attempted"] for r in rs),
                                      "failed": sum(r["trials_failed"] for r in rs)}
                               for side, rs in sides.items()}
            entry["metrics"] = {
                m["name"]: compare(m, seeds, [(p["metrics"][m["name"]], c["metrics"][m["name"]])
                                              for p, c in zip(sides["parent"], sides["change"])])
                for m in metrics
                if all(m["name"] in r["metrics"] for r in sides["parent"] + sides["change"])}
        workloads[workload] = entry
    every = list(parent.values()) + list(change.values())
    return {
        "number": number,
        "git_commits": {side: sorted({r.get("environment", {}).get("git_commit") or "unknown"
                                      for r in records.values()})
                        for side, records in (("parent", parent), ("change", change))},
        "environment": environment(every),
        "workloads": workloads,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--number", type=int, required=True,
                        help="number of the change, which names the output file")
    parser.add_argument("--out", help="output path (default BENCH_<number>.json in this checkout)")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"),
                        help="BENCHMARK.json declaring the end-to-end metrics")
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        benchmark = json.load(fh)
    report = pair(args.parent, args.change, args.number, benchmark)
    if not any(w["seeds"] for w in report["workloads"].values()):
        print("error: no workload has a seed with results on both sides", file=sys.stderr)
        return 1
    out = args.out or os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for name, w in report["workloads"].items():
        for metric, m in w.get("metrics", {}).items():
            print(f"{name} {metric}: parent {m['parent']['median']:.6g} change "
                  f"{m['change']['median']:.6g} {m['unit']}, change wins "
                  f"{m['change_wins']}/{len(m['pairs'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
