"""tools/bench_compare.py on two small records: a parent and a change."""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_compare.py")
_spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

DECK = bench_compare._load_workloads().deck("cli-cold", 0)
VERIFY = next(i for i, job in enumerate(DECK) if job["kind"] == "verify")
OTHER = (VERIFY + 1) % len(DECK)


def _record(hashes, jobs_per_s, p50):
    return {"workload": "cli-cold", "trace": 0, "env": {"seed": 0},
            "outputs_sha256": hashes,
            "metrics": {"jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
                        "job_p50_s": {"value": p50, "unit": "s"}}}


HASHES = [f"{i:064x}" for i in range(len(DECK))]


def _run(tmp_path, parent, change):
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({"parent": parent, "change": change}))
    proc = subprocess.run([sys.executable, TOOL, str(path)],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout.splitlines()


def _rows(lines):
    # (workload, seed, metric) -> the rest of the row
    return {tuple(line.split()[:3]): line.split()[3:] for line in lines[1:]
            if not line.startswith("CHANGED")}


def _compare(tmp_path, changed_at):
    changed = list(HASHES)
    changed[changed_at] = "f" * 64
    return _run(tmp_path, [_record(HASHES, 8.0, 0.125)],
                [_record(changed, 10.0, 0.100)])


def test_the_verify_jobs_elapsed_time_may_change(tmp_path):
    code, lines = _compare(tmp_path, VERIFY)
    assert code == 0, lines
    rows = _rows(lines)
    # one pair: the median ratio and both quartiles are change / parent, the
    # parent has no spread, and a 1/1 win past it is a gain
    assert rows["cli-cold", "0", "jobs_per_s"] == \
        ["1.2500", "1.2500", "1.2500", "0.0000", "1/1", "GAIN"]
    assert rows["cli-cold", "0", "job_p50_s"] == \
        ["0.8000", "0.8000", "0.8000", "0.0000", "1/1", "GAIN"]
    assert not any("CHANGED" in line for line in lines)


def test_any_other_changed_output_fails(tmp_path):
    code, lines = _compare(tmp_path, OTHER)
    assert code == 1
    assert lines[-1] == f"CHANGED OUTPUT: cli-cold seed 0 job {OTHER}"


def _ten_pairs(tmp_path, rate_factors, p50_factors):
    # the parent's jobs_per_s is 8.0..8.9 (quartile spread 0.55 / 8.45 =
    # 6.5 % of its median) and its job_p50_s 0.125
    rates = [8.0 + i / 10 for i in range(10)]
    parent = [_record(HASHES, r, 0.125) for r in rates]
    change = [_record(HASHES, r * f, 0.125 * g)
              for r, f, g in zip(rates, rate_factors, p50_factors)]
    code, lines = _run(tmp_path, parent, change)
    assert code == 0, lines
    return _rows(lines)


def test_gain_needs_nine_of_ten_wins_past_the_parents_spread(tmp_path):
    rows = _ten_pairs(tmp_path, [1.1] * 9 + [0.99], [1.0] * 10)
    assert rows["cli-cold", "0", "jobs_per_s"][3:] == ["0.0651", "9/10", "GAIN"]
    # 8 of 10 wins is no gain, however large
    rows = _ten_pairs(tmp_path, [1.5] * 8 + [0.99] * 2, [1.0] * 10)
    assert rows["cli-cold", "0", "jobs_per_s"][3:] == ["0.0651", "8/10"]
    # 10 of 10 wins inside the parent's spread is no gain either
    rows = _ten_pairs(tmp_path, [1.05] * 10, [1.0] * 10)
    assert rows["cli-cold", "0", "jobs_per_s"][3:] == ["0.0651", "10/10"]


def test_worse_is_a_median_past_the_metrics_bound(tmp_path):
    # BENCHMARK.json bounds job_p50_s at 0.25 of the parent's median
    rows = _ten_pairs(tmp_path, [1.0] * 10, [1.3] * 10)
    assert rows["cli-cold", "0", "job_p50_s"][3:] == ["0.0000", "0/10", "WORSE"]
    rows = _ten_pairs(tmp_path, [1.0] * 10, [1.2] * 10)
    assert rows["cli-cold", "0", "job_p50_s"][3:] == ["0.0000", "0/10"]
