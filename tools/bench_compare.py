"""Compare benchmark records of a parent commit and a change.

Usage: python tools/bench_compare.py BENCH.json

BENCH.json holds ``{"parent": [...], "change": [...]}``: the records that
``bench/run.py --out`` writes, in the order they were run.  The i-th parent
and change records of one workload form a pair; alternate the runs so that
both sides of a pair see the same machine load.

The comparison fails (exit 1) when a change record's ``outputs_sha256``
differs from the parent's at any deck position of the same workload and
seed, except the ``verify`` job, whose report carries its elapsed time; the
deck is rebuilt by ``bench/workloads.deck`` to find it.  For every workload
and metric it prints the median of the per-pair ratios change / parent,
their quartiles (the pair spread) and, for the metrics BENCHMARK.json
declares, in how many pairs the change was the better side.  Standard
library only.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_workloads():
    # no bytecode cache is written into bench/
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    sys.dont_write_bytecode, saved = True, sys.dont_write_bytecode
    try:
        import workloads
    finally:
        sys.path.pop(0)
        sys.dont_write_bytecode = saved
    return workloads


def _directions() -> dict:
    """metric name -> "lower" or "higher", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"]
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def _pairs(bench: dict) -> dict:
    """workload -> [(parent record, change record)], in run order."""
    sides = {side: {} for side in ("parent", "change")}
    for side, runs in sides.items():
        for rec in bench[side]:
            runs.setdefault(rec["workload"], []).append(rec)
    if sides["parent"].keys() != sides["change"].keys():
        raise SystemExit("parent and change records cover different workloads")
    out = {}
    for name, parents in sides["parent"].items():
        changes = sides["change"][name]
        if len(parents) != len(changes):
            raise SystemExit(f"{name}: {len(parents)} parent records but "
                             f"{len(changes)} change records")
        out[name] = list(zip(parents, changes))
    return out


def hash_changes(pairs: dict, deck) -> list:
    """(workload, seed, position) of every output that changed, outside the
    verify job; a position a run never reached (None) is not compared."""
    changed = set()
    for name, recs in pairs.items():
        for parent, change in recs:
            seed = parent["env"]["seed"]
            if change["env"]["seed"] != seed:
                raise SystemExit(f"{name}: a pair mixes seeds")
            jobs = deck(name, seed)
            for i, (a, b) in enumerate(zip(parent["outputs_sha256"],
                                           change["outputs_sha256"])):
                if (a is not None and b is not None and a != b
                        and jobs[i].get("kind") != "verify"):
                    changed.add((name, seed, i))
    return sorted(changed)


def _quartiles(xs: list) -> tuple:
    if len(xs) == 1:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def metric_rows(pairs: dict, better: dict) -> list:
    """One row per workload and metric: median ratio, quartiles, wins."""
    rows = []
    for name, recs in sorted(pairs.items()):
        metrics = sorted(set().union(*(p["metrics"] for p, _ in recs)))
        for metric in metrics:
            values = [(p["metrics"][metric]["value"], c["metrics"][metric]["value"])
                      for p, c in recs
                      if metric in p["metrics"] and metric in c["metrics"]]
            ratios = sorted(c / p for p, c in values if p)
            if not ratios:
                continue
            q1, q3 = _quartiles(ratios)
            wins = None
            if metric in better:
                sign = 1 if better[metric] == "higher" else -1
                wins = sum(sign * (c - p) > 0 for p, c in values)
            rows.append((name, metric, statistics.median(ratios), q1, q3,
                         wins, len(values)))
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    with open(argv[0]) as fh:
        bench = json.load(fh)
    pairs = _pairs(bench)
    print(f"{'workload':<14} {'metric':<36} {'median':>8} {'q1':>8} "
          f"{'q3':>8} {'better':>7}")
    for name, metric, med, q1, q3, wins, n in metric_rows(pairs, _directions()):
        won = "" if wins is None else f"{wins}/{n}"
        print(f"{name:<14} {metric:<36} {med:8.4f} {q1:8.4f} {q3:8.4f} "
              f"{won:>7}")
    changed = hash_changes(pairs, _load_workloads().deck)
    for name, seed, i in changed:
        print(f"CHANGED OUTPUT: {name} seed {seed} job {i}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
