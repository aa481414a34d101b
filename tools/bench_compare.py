"""Compare benchmark records of a parent commit and a change.

Usage: python tools/bench_compare.py BENCH.json

BENCH.json holds ``{"parent": [...], "change": [...]}``: the records that
``bench/run.py --out`` writes, in the order they were run.  The i-th parent
and change records of one workload and seed form a pair; alternate the runs
so that both sides of a pair see the same machine load.

The comparison fails (exit 1) when a change record's ``outputs_sha256``
differs from the parent's at any deck position of the same workload and
seed, except the ``verify`` job, whose report carries its elapsed time; the
deck is rebuilt by ``bench/workloads.deck`` to find it.  For every workload,
seed and metric it prints the median of the per-pair ratios change /
parent, their quartiles (the pair spread), the parent's own quartile spread
as a share of its median and, for the metrics BENCHMARK.json declares, in
how many pairs the change was the better side and a mark:

  GAIN   the change is better in at least 9 of 10 pairs, and its median is
         better than the parent's by more than the parent's spread;
  WORSE  the change's median is worse than the parent's by more than the
         metric's ``bound`` (a share of the parent's median).

Only a changed output fails the comparison.  Standard library only.
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


def _declared_metrics() -> dict:
    """metric name -> its BENCHMARK.json entry ("better", maybe "bound")."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def _pairs(bench: dict) -> dict:
    """(workload, seed) -> [(parent record, change record)], in run order."""
    sides = {side: {} for side in ("parent", "change")}
    for side, runs in sides.items():
        for rec in bench[side]:
            key = rec["workload"], rec["env"]["seed"]
            runs.setdefault(key, []).append(rec)
    if sides["parent"].keys() != sides["change"].keys():
        raise SystemExit("parent and change records cover different workloads")
    out = {}
    for (name, seed), parents in sides["parent"].items():
        changes = sides["change"][name, seed]
        if len(parents) != len(changes):
            raise SystemExit(f"{name} seed {seed}: {len(parents)} parent "
                             f"records but {len(changes)} change records")
        out[name, seed] = list(zip(parents, changes))
    return out


def hash_changes(pairs: dict, deck) -> list:
    """(workload, seed, position) of every output that changed, outside the
    verify job; a position a run never reached (None) is not compared."""
    changed = set()
    for (name, seed), recs in pairs.items():
        jobs = deck(name, seed)
        for parent, change in recs:
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


def metric_rows(pairs: dict, spec: dict) -> list:
    """One row per workload and metric: median ratio, quartiles, the
    parent's spread, wins and mark."""
    rows = []
    for (name, seed), recs in sorted(pairs.items()):
        metrics = sorted(set().union(*(p["metrics"] for p, _ in recs)))
        for metric in metrics:
            values = [(p["metrics"][metric]["value"], c["metrics"][metric]["value"])
                      for p, c in recs
                      if metric in p["metrics"] and metric in c["metrics"]]
            ratios = sorted(c / p for p, c in values if p)
            if not ratios:
                continue
            q1, q3 = _quartiles(ratios)
            base = statistics.median(p for p, _ in values)
            lo, hi = _quartiles(sorted(p for p, _ in values))
            spread = (hi - lo) / base
            wins = mark = None
            if metric in spec:
                sign = 1 if spec[metric]["better"] == "higher" else -1
                wins = sum(sign * (c - p) > 0 for p, c in values)
                # the change's median against the parent's, positive if better
                gap = sign * (statistics.median(c for _, c in values) - base) / base
                if 10 * wins >= 9 * len(values) and gap > spread:
                    mark = "GAIN"
                elif -gap > spec[metric].get("bound", float("inf")):
                    mark = "WORSE"
            rows.append((name, seed, metric, statistics.median(ratios), q1,
                         q3, spread, wins, len(values), mark))
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    with open(argv[0]) as fh:
        bench = json.load(fh)
    pairs = _pairs(bench)
    print(f"{'workload':<14} {'seed':>4} {'metric':<36} {'median':>8} "
          f"{'q1':>8} {'q3':>8} {'spread':>8} {'better':>7}")
    for name, seed, metric, med, q1, q3, spread, wins, n, mark in \
            metric_rows(pairs, _declared_metrics()):
        won = "" if wins is None else f"{wins}/{n}"
        print(f"{name:<14} {seed:>4} {metric:<36} {med:8.4f} {q1:8.4f} "
              f"{q3:8.4f} {spread:8.4f} {won:>7} {mark or ''}".rstrip())
    changed = hash_changes(pairs, _load_workloads().deck)
    for name, seed, i in changed:
        print(f"CHANGED OUTPUT: {name} seed {seed} job {i}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
