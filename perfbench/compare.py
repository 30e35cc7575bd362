"""Compare two sets of untraced results: a parent commit and a change.

    python3 perfbench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Each directory holds the <workload>-seed<n>-trace0.json files that
run.py writes; runs with the same workload and seed form a pair.  One
row per workload and end-to-end metric.  A gain needs at least 10 pairs,
the change winning at least 9 in 10 of them (ties count for neither), a
median gap larger than the parent's interquartile spread, and no more
failed operations than the parent.  A metric whose run-to-run spread is
wider than its bound in BENCHMARK.json is unresolved unless every run
of the change beats every run of the parent.  Exits 1 if any metric
regressed by more than its bound.
"""

import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory):
    runs = {}
    for path in Path(directory).glob("*-trace0.json"):
        record = json.loads(path.read_text())
        runs[(record["workload"], record["provenance"]["seed"])] = record
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(spec, parent, change, failed_parent, failed_change):
    lower = spec["better"] == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    mp, mc = statistics.median(parent), statistics.median(change)
    pq1, pq3 = quartiles(parent)
    cq1, cq3 = quartiles(change)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    worse_share = ((mc - mp) if lower else (mp - mc)) / mp
    spread = max((pq3 - pq1) / mp, (cq3 - cq1) / mc)
    if spread > spec["bound"]:
        all_better = all(better(c, p) for c in change for p in parent)
        word = "better in every run" if all_better else "unresolved"
    elif worse_share > spec["bound"]:
        word = "regression"
    elif (
        len(parent) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(parent)
        and better(mc, mp)
        and abs(mc - mp) > pq3 - pq1
    ):
        word = "gain" if failed_change <= failed_parent else "gain void: more failures"
    else:
        word = "within bound"
    return mp, (pq1, pq3), mc, (cq1, cq3), wins, word


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    keys = sorted(set(parent) & set(change))
    regressed = False
    for workload in sorted({w for w, _ in keys}):
        pairs = [(parent[k], change[k]) for k in keys if k[0] == workload]
        # which side ran first should alternate from pair to pair
        order = [p["provenance"]["started_at"] < c["provenance"]["started_at"] for p, c in pairs]
        alternating = all(a != b for a, b in zip(order, order[1:]))
        failed = [sum(r["result"]["failed"] for r in side) for side in zip(*pairs)]
        attempted = [sum(r["result"]["attempted"] for r in side) for side in zip(*pairs)]
        print(f"{workload}: {len(pairs)} pairs{'' if len(pairs) >= MIN_PAIRS else ' (too few)'},"
              f" {'alternating' if alternating else 'NOT alternating'},"
              f" failed {failed[0]}/{attempted[0]} -> {failed[1]}/{attempted[1]}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_vals = [p["result"]["metrics"][name]["value"] for p, _ in pairs]
            c_vals = [c["result"]["metrics"][name]["value"] for _, c in pairs]
            mp, pq, mc, cq, wins, word = verdict(metric, p_vals, c_vals, *failed)
            regressed |= word == "regression"
            print(f"  {name:<16} {metric['unit']:<5} parent {mp:.5g} [{pq[0]:.5g}, {pq[1]:.5g}]"
                  f"  change {mc:.5g} [{cq[0]:.5g}, {cq[1]:.5g}]  wins {wins}/{len(pairs)}  {word}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
