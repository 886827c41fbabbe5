#!/usr/bin/env python3
"""Compares two vsd_e2e results against the bounds in BENCHMARK.json.

    python3 bench/e2e/compare.py BENCHMARK.json BASE HEAD

BASE and HEAD are each a results JSON written by `vsd_e2e --out`, or a
directory of them (several runs of one commit). Prints one row per
workload x metric: both medians, the relative delta, the bound and a status.
The spread of BASE is the interquartile range across its runs, or, for a
single run, across that run's own samples. A metric whose BASE spread is
wider than its bound is "unresolved" rather than compared. Per-layer
metrics (traced results) are listed without a bound.

Exits 1 when a metric is worse than BASE by more than its bound, when
HEAD's failed_frac is higher than BASE's, or when HEAD is incorrect.
"""
import json
import os
import statistics
import sys


def load_runs(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".json"))
    runs = []
    for f in files:
        with open(f) as fh:
            runs.append(json.load(fh))
    if not runs:
        sys.exit("compare.py: no results in " + path)
    return runs


def gather(runs):
    """workload -> {"values": {metric: [...]}, "samples": {...}, ...}."""
    out = {}
    for run in runs:
        for name, wl in run.get("workloads", {}).items():
            agg = out.setdefault(name, {"values": {}, "samples": {},
                                        "attempted": 0, "failed": 0,
                                        "correct": True})
            for metric, m in wl["metrics"].items():
                agg["values"].setdefault(metric, []).append(m["value"])
            agg["samples"].update(wl.get("samples", {}))
            agg["attempted"] += wl["attempted"]
            agg["failed"] += wl["failed"]
            agg["correct"] = agg["correct"] and wl["correct"]
    return out


def spread(agg, metric):
    """Interquartile range over the median, or None when unknown."""
    vals = agg["values"].get(metric, [])
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
    elif metric in agg["samples"]:
        s = agg["samples"][metric]
        q1, q3, med = s["q1"], s["q3"], s["median"]
    else:
        return None
    return (q3 - q1) / med if med else None


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    with open(sys.argv[1]) as fh:
        bench = json.load(fh)
    defs = {m["name"]: m for m in bench["end_to_end"]}
    defs.update({m["name"]: m for m in bench["per_layer"]})
    base = gather(load_runs(sys.argv[2]))
    head = gather(load_runs(sys.argv[3]))

    bad = False
    print(f"{'workload':9s} {'metric':28s} {'base':>14s} {'head':>14s} "
          f"{'delta':>8s} {'bound':>7s}  status")
    for wl in sorted(set(base) & set(head)):
        b, h = base[wl], head[wl]
        for metric in sorted(set(b["values"]) & set(h["values"])):
            d = defs.get(metric)
            if d is None:
                continue
            bm = statistics.median(b["values"][metric])
            hm = statistics.median(h["values"][metric])
            delta = (hm - bm) / bm if bm else 0.0
            worse = delta if d["better"] == "lower" else -delta
            bound = d.get("bound")
            status = "info"
            if bound is not None:
                sp = spread(b, metric)
                if sp is not None and sp > bound:
                    status = f"unresolved (base spread {sp:.1%})"
                elif worse > bound:
                    status = "REGRESSION"
                    bad = True
                else:
                    status = "ok"
            print(f"{wl:9s} {metric:28s} {bm:14.6g} {hm:14.6g} {delta:+8.1%} "
                  f"{'' if bound is None else format(bound, '.0%'):>7s}  {status}")
        bf = b["failed"] / b["attempted"] if b["attempted"] else 0.0
        hf = h["failed"] / h["attempted"] if h["attempted"] else 0.0
        status = "ok"
        if hf > bf or not h["correct"]:
            status = "REGRESSION" if hf > bf else "INCORRECT"
            bad = True
        print(f"{wl:9s} {'failed_frac':28s} {bf:14.6g} {hf:14.6g} {'':>8s} "
              f"{'0':>7s}  {status}")
    missing = sorted(set(base) ^ set(head))
    if missing:
        print("workloads in only one side: " + ", ".join(missing))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
