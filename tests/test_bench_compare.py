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


def _compare(tmp_path, changed_at):
    hashes = [f"{i:064x}" for i in range(len(DECK))]
    changed = list(hashes)
    changed[changed_at] = "f" * 64
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({"parent": [_record(hashes, 8.0, 0.125)],
                                "change": [_record(changed, 10.0, 0.100)]}))
    proc = subprocess.run([sys.executable, TOOL, str(path)],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout.splitlines()


def test_the_verify_jobs_elapsed_time_may_change(tmp_path):
    code, lines = _compare(tmp_path, VERIFY)
    assert code == 0, lines
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in lines[1:]}
    # one pair: the median ratio and both quartiles are change / parent
    assert rows["cli-cold", "jobs_per_s"] == ["1.2500", "1.2500", "1.2500", "1/1"]
    assert rows["cli-cold", "job_p50_s"] == ["0.8000", "0.8000", "0.8000", "1/1"]
    assert not any("CHANGED" in line for line in lines)


def test_any_other_changed_output_fails(tmp_path):
    code, lines = _compare(tmp_path, OTHER)
    assert code == 1
    assert lines[-1] == f"CHANGED OUTPUT: cli-cold seed 0 job {OTHER}"
