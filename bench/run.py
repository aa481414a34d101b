"""padicq benchmark: seeded workloads run from outside the package.

    python3 bench/run.py --workload cli-cold|step-cold|session-large
                         [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

Run from the repository root (or any checkout holding ``src/padicq``).
Every job runs in a fresh process started by ``spawner.py``; the load is a
closed loop with one client.  A run replays the workload's deck (drawn
from the seed by ``workloads.py``) round after round until ``--seconds``
have passed and the workload's minimum number of rounds is reached.  Every
output is checked against exact oracles (``oracles.py``) and, on the
default seed, against the outputs recorded from the program in
``reference/``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one round
untraced, one with timing spans and two with per-scalar counters, checks
that tracing left every output unchanged and that every named span fired,
and prints the per-layer metrics.  The last stdout line is the result; the
line before it is the full record (environment, sample counts, tail
percentile, output hashes).  ``--out`` also writes the record to a file.
See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import oracles
import workloads
from calib import REF_S, calibrate

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
PY = sys.executable
DEFAULT_SEED = 0

SETUP_SAMPLES = 7
SETUP_CODE = ("import time, padicq.cli; padicq.cli.build_parser(); "
              "print(repr(time.perf_counter()))")
# a run stops starting jobs after this, whatever its minimum round count
HARD_LIMIT_S = 140.0

# minimum rounds per run: enough jobs that the tail percentile keeps at
# least ten samples beyond it
MIN_ROUNDS = {"cli-cold": 5, "step-cold": 3, "session-large": 3}

# per-layer metrics the trace self-check requires to be non-zero, and where
SHOULD_FIRE = {
    "padic.padicint_new": ("cli-cold", "session-large"),
    "padic.bernoulli": ("cli-cold", "session-large"),
    "cyclotomic.mul": ("step-cold",),
    "cyclotomic.mul.l1": ("step-cold",),
    "cyclotomic.mul.l2": ("step-cold",),
    "cyclotomic.mul.l3": ("step-cold",),
    "zpfun.evaluate.calls": ("step-cold", "session-large"),
    "zpfun.poly_lc_terms": ("step-cold", "session-large"),
    "zpfun.mahler_coeffs": ("cli-cold", "session-large"),
    "qseries.mul": ("session-large",),
    "qseries.eisenstein": ("session-large",),
    "qseries.sigma_table": ("session-large",),
    "qseries.series_to_json": ("cli-cold", "session-large"),
    "action.act": ("cli-cold", "session-large"),
    "action.act_character": ("cli-cold", "session-large"),
    "measures.kl_value": ("step-cold",),
    "measures.kernel_base": ("session-large",),
    "measures.eisenstein_measure": ("session-large",),
    "measures.kl_functional": ("step-cold", "session-large"),
    "kummer.mul.calls": ("cli-cold",),
    "kummer.laurent_mul.calls": ("cli-cold",),
    "kummer.checks": ("cli-cold",),
    "verify.moments": ("cli-cold",),
    "verify.congruences": ("cli-cold",),
    "verify.action": ("cli-cold",),
    "verify.amice": ("cli-cold",),
    "verify.kummer": ("cli-cold",),
    "verify.nu": ("cli-cold",),
    "cli.main": ("cli-cold", "step-cold"),
    "cli.emit": ("cli-cold", "step-cold"),
}

LAYERS = ("padic", "cyclotomic", "zpfun", "qseries", "action", "measures",
          "kummer", "verify", "cli")
BUSY_GROUPS = ("padic.bernoulli", "cyclotomic.mul", "zpfun.poly_lc_terms",
               "zpfun.mahler_coeffs", "qseries.mul", "qseries.eisenstein",
               "qseries.series_to_json", "action.act", "action.act_character",
               "measures.kl_value", "measures.kernel_base",
               "measures.eisenstein_measure", "kummer.checks",
               "verify.moments", "verify.congruences", "verify.action",
               "verify.amice", "verify.kummer", "verify.nu", "cli.main",
               "cli.emit")
COUNTS = ("padic.padicint_new", "cyclotomic.mul.l1", "cyclotomic.mul.l2",
          "cyclotomic.mul.l3", "zpfun.evaluate.calls", "kummer.mul.calls",
          "kummer.laurent_mul.calls")
VERIFY_SUITES = ("moments", "congruences", "action", "amice", "kummer", "nu")


class Spawner:
    """The lean child process that starts and reaps every job."""

    def __init__(self, tmp: str):
        self.tmp = tmp
        self.n = 0
        env = dict(os.environ, PYTHONPATH=SRC)
        self.proc = subprocess.Popen(
            [PY, "-S", "-E", os.path.join(BENCH, "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env,
            text=True)

    def run(self, argv: list, timeout: float) -> dict:
        self.n += 1
        out = os.path.join(self.tmp, f"{self.n}.out")
        err = os.path.join(self.tmp, f"{self.n}.err")
        self.proc.stdin.write(json.dumps({"argv": argv, "out": out, "err": err,
                                          "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner exited")
        res = json.loads(line)
        with open(out, "rb") as fh:
            res["stdout"] = fh.read()
        with open(err, "rb") as fh:
            res["stderr"] = fh.read()
        os.unlink(out)
        os.unlink(err)
        return res

    def close(self):
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def tail_percentile(n: int) -> int:
    """Highest whole percentile (at least the median) with at least ten of
    n samples beyond it."""
    for q in range(99, 50, -1):
        if n - math.ceil(q * n / 100) >= 10:
            return q
    return 50


def nearest_rank(values: list, q: int) -> float:
    xs = sorted(values)
    return xs[max(math.ceil(q * len(xs) / 100) - 1, 0)]


def strip_volatile(obj):
    """Drop fields that legitimately change between runs: verify's timing
    and its check count (a faster check may check differently)."""
    if isinstance(obj, dict):
        return {k: strip_volatile(v) for k, v in obj.items()
                if k not in ("elapsed_s", "checks")}
    if isinstance(obj, list):
        return [strip_volatile(v) for v in obj]
    return obj


def same_stdout(a: bytes, b: bytes) -> bool:
    """Byte equality, apart from verify's elapsed_s field."""
    pat = re.compile(rb'"elapsed_s":[-0-9.eE+]+,?')
    return pat.sub(b"", a) == pat.sub(b"", b)


# -- expected outputs -------------------------------------------------------


class Expected:
    """Oracle outputs per deck position, built on first use."""

    def __init__(self, workload: str, deck: list):
        self.workload, self.deck = workload, deck
        self.exact: dict = {}
        self._cache: dict = {}
        self._session = None

    def ex(self, p: int, N: int) -> oracles.Exact:
        if (p, N) not in self.exact:
            self.exact[p, N] = oracles.Exact(p, N)
        return self.exact[p, N]

    def __getitem__(self, idx: int):
        if self.workload == "session-large":
            if self._session is None:
                self._session = self.session(self.deck)
            return self._session[idx]
        if idx not in self._cache:
            self._cache[idx] = self.cli(self.deck[idx])
        return self._cache[idx]

    def cli(self, job: dict):
        p, N, M, a = job["p"], job["N"], job["M"], job["a"]
        ex, kind = self.ex(p, N), job["kind"]
        if kind == "verify":
            return {"kind": "report", "suites": [
                {"name": s, "passed": True, "failures": []} for s in VERIFY_SUITES]}
        if kind == "moment":
            return oracles.value(ex.moment(a, job["k"]), N, p, N)
        if kind == "nu":
            s = ex.nu_moment(a, job["s"], job["t"], M)
            return {"kind": "nu", "s": job["s"], "t": job["t"], "a": a,
                    "agree": True, "convolution": s, "reference": s}
        if kind == "lvalue":
            return ex.lvalue(a, job["chi1"], job["chi2"], job["level"], M)
        if kind == "eisenstein":
            if job["level"] is None:
                return ex.eisenstein(job["k"], M)
            return ex.eisenstein_twisted(job["k"], job["level"], M)
        if kind == "apply":
            mu, fn = job["measure"], job["fn"]
            if mu["kind"] == "dirac":
                v = oracles.step_fn(fn, p)(mu["c"]) % ex.mod
                return oracles.value(v, N, p, N)
            if mu["kind"] == "amice":
                return oracles.value(ex.mahler_dot(fn, mu["coeffs"]), N, p, N)
            return ex.eisenstein_measure(mu["a"], fn, M)
        if kind == "kummer-dump":
            pk = p ** job["k"]
            els = [(x, j) for x in range(pk) for j in range(pk)]
            if job["what"] == "cayley":
                table = [[[(x1 + x2) % pk, (j1 + j2) % pk] for x2, j2 in els]
                         for x1, j1 in els]
            else:
                table = [[(i * b + j * x) % pk for b in range(pk) for j in range(pk)]
                         for x in range(pk) for i in range(pk)]
            return {"kind": f"kummer-{job['what']}", "p": p, "k": job["k"],
                    "table": table}
        raise ValueError(f"no oracle for {kind!r}")

    def session(self, calls: list) -> list:
        p, N = workloads.P, workloads.N
        ex = self.ex(p, N)
        mod = ex.mod
        out, E = [], None
        for call in calls:
            op = call["op"]
            if op == "mul":
                g, h, M = call["g"], call["h"], call["M"]
                prod = [0] * (M + 1)
                for i, x in enumerate(g):
                    if x:
                        for j in range(M + 1 - i):
                            prod[i + j] += x * h[j]
                want = oracles.series([c % mod for c in prod], N, p, N)
            elif op == "eisenstein_2G":
                want = E = ex.eisenstein(call["k"], call["M"])
            elif op == "eisenstein_2G_twisted":
                want = ex.eisenstein_twisted(call["k"], call["level"], call["M"])
            elif op == "eisenstein_eval":
                want = ex.eisenstein_measure(call["a"], call["fn"], call["M"])
            elif op == "convolution_nu":
                want = ex.nu_moment(call["a"], call["s"], call["t"], call["M"])
            elif op == "kl_moment":
                exN = self.ex(p, call["N"])
                want = oracles.value(exN.moment(call["a"], call["k"]), call["N"], p, call["N"])
            elif op == "amice":
                want = oracles.value(ex.mahler_dot(call["fn"], call["coeffs"]), N, p, N)
            elif op == "sweep":
                m = call["level"]
                want = [oracles.value(*ex.kappa(call["a"], (0, m, c)), p, N)
                        for c in range(p ** m)]
            else:
                want = self.on_series(call, E, ex)
            out.append(want)
        return out

    @staticmethod
    def on_series(call: dict, E: dict, ex: oracles.Exact):
        """Oracles of the operators applied to E = 2G_k."""
        p, N, mod = ex.p, ex.N, ex.mod
        e = [int(c) for c in E["coeffs"]]
        M = len(e) - 1
        op = call["op"]
        if op == "theta":
            return oracles.series([n * c % mod for n, c in enumerate(e)], N, p, N)
        if op == "u_p":
            return oracles.series([e[p * n] for n in range(M // p + 1)], N, p, N)
        if op == "v_p":
            out = [0] * (M + 1)
            for n in range(M // p + 1):
                out[p * n] = e[n]
            return oracles.series(out, N, p, N)
        if op == "act":
            f = oracles.step_fn(call["fn"], p)
            return oracles.series([f(n) * c % mod for n, c in enumerate(e)], N, p, N)
        if op == "act_character":
            m, r = call["level"], call["power"]
            coeffs = [[z * c % mod for z in ex.zeta_power(m, r * n)]
                      for n, c in enumerate(e)]
            return {"kind": "cyclo_series", "level": m, "M": M,
                    "coeffs": [[str(x) for x in v] for v in coeffs],
                    "prec": [[N] * len(v) for v in coeffs]}
        if op == "series_to_json":
            return E
        raise ValueError(f"no oracle for {op!r}")


class Checker:
    """Verdict per (deck position, output digest), each computed once."""

    def __init__(self, workload: str, deck: list, seed: int):
        self.expected = Expected(workload, deck)
        self.p = {i: job.get("p", workloads.P) for i, job in enumerate(deck)}
        self.reference = None
        self.problems: list = []
        self._verdicts: dict = {}
        path = os.path.join(BENCH, "reference", f"{workload}.json")
        if seed == DEFAULT_SEED and os.path.exists(path):
            with open(path) as fh:
                ref = json.load(fh)
            if [j["argv"] for j in ref["jobs"]] != [j["argv"] for j in deck]:
                self.problems.append(f"reference/{workload}.json does not match "
                                     "the default-seed deck")
            self.reference = [j["output"] for j in ref["jobs"]]

    def ok(self, idx: int, digest: str, output) -> bool:
        key = (idx, digest)
        if key not in self._verdicts:
            p = self.p[idx]
            good = oracles.agree(self.expected[idx], output, p)
            if self.reference is not None:
                good = good and oracles.agree(self.reference[idx], output, p)
            if not good and len(self.problems) < 5:
                self.problems.append(f"job {idx}: output disagrees")
            self._verdicts[key] = good
        return self._verdicts[key]

    def cli(self, idx: int, res: dict) -> bool:
        if res["rc"] != 0:
            if len(self.problems) < 5:
                self.problems.append(f"job {idx}: exit {res['rc']}: "
                                     f"{res['stderr'][:200]!r}")
            return False
        try:
            output = json.loads(res["stdout"])
        except ValueError:
            self.problems.append(f"job {idx}: stdout is not JSON")
            return False
        return self.ok(idx, hashlib.sha256(res["stdout"]).hexdigest(), output)


# -- running jobs -------------------------------------------------------------


class Runner:
    def __init__(self, workload: str, seed: int, tmp: str):
        self.workload, self.tmp = workload, tmp
        self.deck = workloads.deck(workload, seed)
        self.checker = Checker(workload, self.deck, seed)
        self.maxrss_kb = 0
        self.attempted = self.failed = 0
        self.hashes: dict = {}
        self.spec = None
        if workload == "session-large":
            self.spec = os.path.join(tmp, "session.json")
            with open(self.spec, "w") as fh:
                json.dump(self.deck, fh)
        self.sp = Spawner(tmp)
        self.t_start = time.perf_counter()

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.t_start)

    def spawn(self, argv: list) -> dict:
        res = self.sp.run(argv, max(self.remaining(), 1.0))
        self.maxrss_kb = max(self.maxrss_kb, res["maxrss_kb"])
        return res

    def setup(self, samples: int) -> list:
        """(seconds from spawn until padicq is imported and the parser
        built, calibration) per sample."""
        out = []
        for _ in range(samples + 1):  # the first one warms the file cache
            cal = calibrate()
            res = self.spawn([PY, "-c", SETUP_CODE])
            if res["rc"] != 0:
                raise RuntimeError(f"setup failed: {res['stderr'][:300]!r}")
            out.append((float(res["stdout"]) - res["t0"], (cal + calibrate()) / 2))
        return out[1:]

    def round(self, trace: str | None = None) -> tuple[list, list, list]:
        """One pass over the deck: (samples, outputs, trace dumps), with
        samples (wall_s, cpu_s, calibration_s) and outputs (digest or
        stdout) per job."""
        samples, outputs, dumps = [], [], []
        if self.spec is not None:
            argv = [PY, os.path.join(BENCH, "session.py"), self.spec]
            tfile = os.path.join(self.tmp, "trace.json")
            if trace:
                argv += ["--trace", trace, "--trace-out", tfile]
            res = self.spawn(argv)
            try:
                jobs = json.loads(res["stdout"])["jobs"] if res["rc"] == 0 else []
            except ValueError:
                jobs = []
            if trace and jobs:
                with open(tfile) as fh:
                    dumps.append(json.load(fh))
            if not jobs and len(self.checker.problems) < 5:
                self.checker.problems.append(
                    f"session exit {res['rc']}: {res['stderr'][-300:]!r}")
            for idx in range(len(self.deck)):
                self.attempted += 1
                if idx >= len(jobs):
                    self.failed += 1
                    continue
                job = jobs[idx]
                samples.append((job["wall_s"], job["cpu_s"], job["cal_s"]))
                outputs.append(job["sha256"])
                self.hashes.setdefault(idx, job["sha256"])
                if not self.checker.ok(idx, job["sha256"], job["out"]):
                    self.failed += 1
            return samples, outputs, dumps
        cal = calibrate()
        for idx, job in enumerate(self.deck):
            if self.remaining() <= 0:
                break
            if trace:
                tfile = os.path.join(self.tmp, f"trace-{idx}.json")
                argv = [PY, os.path.join(BENCH, "launch.py"), "--trace", trace,
                        "--trace-out", tfile, "--", *job["argv"]]
            else:
                argv = [PY, "-m", "padicq", *job["argv"]]
            res = self.spawn(argv)
            cal_after = calibrate()
            self.attempted += 1
            samples.append((res["t1"] - res["t0"], res["cpu_s"], (cal + cal_after) / 2))
            cal = cal_after
            outputs.append(res["stdout"])
            self.hashes.setdefault(idx, hashlib.sha256(res["stdout"]).hexdigest())
            if not self.checker.cli(idx, res):
                self.failed += 1
            if trace and os.path.exists(tfile):
                with open(tfile) as fh:
                    dumps.append(json.load(fh))
                os.unlink(tfile)
        return samples, outputs, dumps


def measure(r: Runner, seconds: float) -> tuple[dict, dict]:
    setup = r.setup(SETUP_SAMPLES)
    rounds = []
    t0 = time.perf_counter()
    while ((time.perf_counter() - t0 < seconds or len(rounds) < MIN_ROUNDS[r.workload])
           and r.remaining() > 0):
        rounds.append(r.round()[0])
    wall = time.perf_counter() - t0
    rounds = [rnd for rnd in rounds if rnd]
    if not rounds:
        raise RuntimeError(f"no job completed: {r.checker.problems}")
    q = tail_percentile(MIN_ROUNDS[r.workload] * len(r.deck))
    metrics = timing_metrics(setup, rounds, q, normalize=True)
    metrics["peak_rss_mb"] = (r.maxrss_kb / 1024, "MB")
    raw = timing_metrics(setup, rounds, q, normalize=False)
    cals = [s[2] for rnd in rounds for s in rnd]
    info = {"rounds": len(rounds), "jobs": len(cals), "measured_s": wall,
            "tail_percentile": q, "setup_samples": len(setup),
            "fail_ratio": r.failed / max(r.attempted, 1),
            "raw": {k: v for k, (v, _) in raw.items()},
            "calibration_s": {"ref": REF_S, "median": statistics.median(cals),
                              "min": min(cals), "max": max(cals)}}
    return metrics, info


def timing_metrics(setup: list, rounds: list, q: int, normalize: bool) -> dict:
    """End-to-end timings.  Normalized ones are rescaled to the reference
    machine speed of ``calib.py`` sample by sample.  Throughput and CPU per
    job are medians over rounds, so one disturbed round does not move them."""
    def scale(value, cal):
        return value * REF_S / cal if normalize else value

    walls = [scale(w, c) for rnd in rounds for w, _, c in rnd]
    return {
        "setup_s": (statistics.median(scale(v, c) for v, c in setup), "s"),
        "jobs_per_s": (statistics.median(
            len(rnd) / sum(scale(w, c) for w, _, c in rnd) for rnd in rounds), "1/s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "job_tail_s": (nearest_rank(walls, q), "s"),
        "cpu_s_per_job": (statistics.median(
            sum(scale(u, c) for _, u, c in rnd) / len(rnd) for rnd in rounds), "s"),
    }


def merge(dumps: list) -> dict:
    out = {"calls": {}, "busy_ns": {}, "self_ns": {}, "counts": {},
           "sigma_hits": 0, "sigma_misses": 0, "import_s": []}
    for d in dumps:
        for key in ("calls", "busy_ns", "self_ns", "counts"):
            for k, v in d[key].items():
                out[key][k] = out[key].get(k, 0) + v
        out["sigma_hits"] += d["sigma_hits"]
        out["sigma_misses"] += d["sigma_misses"]
        out["import_s"].append(d["import_s"])
    return out


def traced(r: Runner) -> tuple[dict, dict]:
    r.setup(0)
    passes = {}
    for name, mode in (("plain", None), ("span", "span"), ("count", "count"),
                       ("count2", "count")):
        samples, outputs, dumps = r.round(mode)
        busy = sum(w * REF_S / c for w, _, c in samples)
        passes[name] = (busy, outputs, merge(dumps))
    span, count = passes["span"][2], passes["count"][2]

    problems = []
    plain = passes["plain"][1]
    for name in ("span", "count", "count2"):
        outs = passes[name][1]
        same = len(outs) == len(plain) and all(
            same_stdout(a, b) if isinstance(a, bytes) else a == b
            for a, b in zip(plain, outs))
        if not same:
            problems.append(f"{name} pass changed the program's output")
    if count["counts"] != passes["count2"][2]["counts"]:
        problems.append("per-scalar counts differ between two counted passes")

    def s(ns):
        return ns / 1e9

    calls, busy = span["calls"], span["busy_ns"]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        m[f"{layer}.busy_s"] = (s(busy.get(layer, 0)), "s")
        m[f"{layer}.self_s"] = (s(span["self_ns"].get(layer, 0)), "s")
    for g in BUSY_GROUPS:
        m[f"{g}.busy_s"] = (s(busy.get(g, 0)), "s")
    for c in COUNTS:
        m[c] = (count["counts"].get(c, 0), "count")
    lookups = span["sigma_hits"] + span["sigma_misses"]
    m["qseries.sigma_table.hit_ratio"] = (span["sigma_hits"] / lookups if lookups else 0.0, "ratio")
    kl_calls = calls.get("measures.kl_functional", 0)
    kl_new = calls.get("measures.KLConstantTerm.__init__", 0)
    m["measures.kl_functional.hit_ratio"] = ((kl_calls - kl_new) / kl_calls if kl_calls else 0.0,
                                             "ratio")
    m["cli.import_s"] = (statistics.median(span["import_s"]) if span["import_s"] else 0.0, "s")
    m["trace.overhead_s"] = (passes["span"][0] - passes["plain"][0], "s")

    fired = dict(calls)
    fired.update(count["counts"])
    fired["qseries.sigma_table"] = lookups
    for name, where in SHOULD_FIRE.items():
        if r.workload in where and not fired.get(name):
            problems.append(f"{name} never fired on {r.workload}")
    info = {"pass_job_s": {k: v[0] for k, v in passes.items()},
            "self_check": problems or "passed",
            "fail_ratio": r.failed / max(r.attempted, 1)}
    return m, info


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "padicq")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "git_commit": commit,
            "src_sha256": digest.hexdigest(), "seed": seed}


def record_reference(r: Runner) -> int:
    """Record the program's outputs on the default seed (CLI workloads)."""
    r.checker.reference = None
    _, outputs, _ = r.round()
    if r.failed or r.checker.problems:
        sys.stderr.write(f"not recorded: {r.checker.problems}\n")
        return 1
    jobs = [{"argv": job["argv"], "output": strip_volatile(json.loads(out))}
            for job, out in zip(r.deck, outputs)]
    path = os.path.join(BENCH, "reference", f"{r.workload}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "jobs": jobs}, fh, sort_keys=True,
                  separators=(",", ":"))
        fh.write("\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record to this file")
    ap.add_argument("--record-reference", action="store_true",
                    help="record reference/<workload>.json from this checkout")
    opts = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "padicq", "__init__.py")):
        sys.stderr.write(f"padicq sources not found under {SRC}; run from a "
                         "checkout of the repository\n")
        return 2
    if opts.record_reference and (opts.seed != DEFAULT_SEED
                                  or opts.workload == "session-large"):
        sys.stderr.write("references are recorded for the CLI workloads on the "
                         "default seed only\n")
        return 2

    tmp = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    runner = None
    try:
        runner = Runner(opts.workload, opts.seed, tmp)
        if opts.record_reference:
            return record_reference(runner)
        if opts.trace:
            metrics, info = traced(runner)
        else:
            metrics, info = measure(runner, opts.seconds)
    finally:
        if runner is not None:
            runner.sp.close()
        shutil.rmtree(tmp, ignore_errors=True)

    problems = runner.checker.problems
    correct = (runner.failed == 0 and not problems
               and info.get("self_check", "passed") == "passed")
    record = {"workload": opts.workload, "trace": opts.trace,
              "env": environment(opts.seed), **info,
              "problems": problems,
              "outputs_sha256": [runner.hashes.get(i) for i in range(len(runner.deck))],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if opts.out:
        with open(opts.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
