"""Seeded job generators for the three workloads.

A generator draws one *deck* from the seed; a run replays the deck round
after round, so every round does the same work.  Inputs stay inside the
documented domain, so no job is expected to fail:

* untwisted ``eisenstein`` weights are even with (p-1) not dividing k, the
  only weights whose constant term -B_k/k is p-integral;
* twisted ``eisenstein`` uses class-0 indicators only: other classes have a
  non-p-integral constant term and exit 2 by design;
* ``lvalue`` characters are multiplicative tables (powers of the
  Teichmueller character written at level 2), paired so that the Euler
  factor 1 - chi1(a) a / chi2(a) is a unit;
* ``moment --k 0`` and ``apply --measure '[]'`` (known exit-code defects)
  are robustness inputs, not performance inputs, and are never drawn.
"""

from __future__ import annotations

import json
import random

# The CLI's default scale; the default a is the smallest generator of
# (Z/p^2)^x, which is 2 for both primes used here.
P, N, M = 5, 12, 60
DEFAULT_A = {3: 2, 5: 2}
UNITS_A = {3: (2, 5), 5: (2, 3, 7, 8)}

# session-large scale
M_PRODUCT = 1000
M_SERIES = 3000
M_NU = 1000
N_MOMENTS = 40
# one moment just below each of these weights, the last exactly at it
MOMENT_WEIGHTS = (200, 400, 600, 800, 1000)
AMICE_TERMS = 200


def teichmuller_table(p: int, n: int, level: int, power: int) -> list[int]:
    """omega^power on (Z/p^level)^x mod p^n, 0 on multiples of p."""
    mod = p ** n
    out = []
    for c in range(p ** level):
        if c % p == 0:
            out.append(0)
        else:
            out.append(pow(pow(c, p ** (n - 1), mod), power, mod))
    return out


def _fn(j: int, m: int, c: int) -> dict:
    """Descriptor of z^j * 1_{c + p^m Z_p} (m = 0: plain monomial)."""
    mono = {"kind": "monomial", "degree": j}
    if m == 0:
        return mono
    ind = {"kind": "indicator", "level": m, "class": c}
    return ind if j == 0 else {"kind": "product", "factors": [mono, ind]}


def _cli(kind: str, args: list, p: int = P, **params) -> dict:
    flags = [] if p == P else ["--p", str(p)]
    return {"kind": kind, "p": p, "N": N, "M": M, "a": DEFAULT_A[p],
            "argv": flags + args, **params}


def _apply(p: int, measure: dict, j: int, m: int, c: int) -> dict:
    return _cli("apply", ["apply", "--measure", json.dumps(measure),
                          "--fn", json.dumps(_fn(j, m, c))],
                p=p, measure=measure, fn=[j, m, c])


def _even_weight(rng: random.Random, p: int, lo: int, hi: int) -> int:
    while True:
        k = rng.randrange(lo, hi + 1, 2)
        if k % (p - 1):
            return k


def cli_cold(rng: random.Random) -> list[dict]:
    """20 one-shot CLI jobs at the default scale (p=5, N=12, M=60)."""
    trivial = [0] + [1] * (P - 1)
    jobs = [_cli("verify", ["verify", "all"])]
    for _ in range(3):
        k = rng.randint(1, 40)
        jobs.append(_cli("moment", ["moment", "--k", str(k)], k=k))
    for _ in range(2):
        # odd s only: for even s the CLI's reference path 2G_(s+1) is the
        # zero series, so ``nu`` reports agree=false and exits 3
        s, t = rng.choice((1, 3, 5)), rng.randint(0, 3)
        jobs.append(_cli("nu", ["nu", "--s", str(s), "--t", str(t)], s=s, t=t))
    jobs.append(_cli("lvalue", ["lvalue", "--chi1", "trivial", "--chi2", "trivial"],
                     level=1, chi1=trivial, chi2=trivial))
    for _ in range(2):
        k = _even_weight(rng, P, 2, 40)
        jobs.append(_cli("eisenstein", ["eisenstein", "--k", str(k)], k=k, level=None))
    for level in (1, 2):
        k = rng.randint(2, 30)
        twist = {"kind": "indicator", "level": level, "class": 0}
        jobs.append(_cli("eisenstein", ["eisenstein", "--k", str(k),
                                        "--twist", json.dumps(twist)],
                         k=k, level=level))
    for m in (0, 1):
        jobs.append(_apply(P, {"kind": "dirac", "c": rng.randrange(P ** 3)},
                           rng.randint(0, 6), m, rng.randrange(P)))
        coeffs = [rng.randrange(P ** N) for _ in range(rng.randint(4, 12))]
        jobs.append(_apply(P, {"kind": "amice", "coeffs": coeffs},
                           rng.randint(0, 6), m, rng.randrange(P)))
    for m in (0, 1, 1):
        measure = {"kind": "eisenstein", "a": rng.choice(UNITS_A[P])}
        jobs.append(_apply(P, measure, rng.randint(1, 6) if m == 0 else 0,
                           m, rng.randrange(P)))
    for what in ("cayley", "pairing"):
        jobs.append(_cli("kummer-dump", ["kummer-dump", "--k", "1", "--what", what],
                         k=1, what=what))
    rng.shuffle(jobs)
    return jobs


def step_cold(rng: random.Random) -> list[dict]:
    """10 one-shot constant terms of level-2 and level-3 step functions."""
    jobs = []
    for j in (0, 0, 0, 1, 2, 3):
        measure = {"kind": "eisenstein", "a": rng.choice(UNITS_A[5])}
        jobs.append(_apply(5, measure, j, 2, rng.randrange(25)))
    for _ in range(2):
        measure = {"kind": "eisenstein", "a": rng.choice(UNITS_A[3])}
        jobs.append(_apply(3, measure, 0, 3, rng.randrange(27)))
    a = DEFAULT_A[5]
    for _ in range(2):
        # 1 - omega^(i1 - i2)(a) a is a unit iff a^(i1 - i2 + 1) != 1 mod p,
        # and a = 2 has order p - 1 = 4
        while True:
            i1, i2 = rng.randrange(4), rng.randrange(4)
            if (i1 - i2 + 1) % 4:
                break
        chi1 = teichmuller_table(5, N, 2, i1)
        chi2 = teichmuller_table(5, N, 2, i2)
        jobs.append(_cli("lvalue", [
            "lvalue",
            "--chi1", json.dumps({"kind": "table", "level": 2, "values": chi1}),
            "--chi2", json.dumps({"kind": "table", "level": 2, "values": chi2}),
        ], level=2, chi1=chi1, chi2=chi2))
    rng.shuffle(jobs)
    return jobs


def session_large(rng: random.Random) -> list[dict]:
    """The fixed call sequence of one library session (p=5, N=12).

    The seed varies inputs only where a call's cost hardly changes (the
    unit a, coefficients, classes, powers, weights within a narrow range),
    so that rank statistics such as the median job land on the same calls
    for every seed.  Monomial degrees are fixed: the cost grows with them.
    """
    mod = P ** N
    a = rng.choice(UNITS_A[P])
    calls = []
    for _ in range(2):
        calls.append({"op": "mul", "M": M_PRODUCT,
                      "g": [rng.randrange(mod) for _ in range(M_PRODUCT + 1)],
                      "h": [rng.randrange(mod) for _ in range(M_PRODUCT + 1)]})
    for _ in range(2):
        calls.append({"op": "eisenstein_2G", "M": M_SERIES,
                      "k": _even_weight(rng, P, 10, 24)})
    calls.append({"op": "eisenstein_2G_twisted", "M": M_SERIES,
                  "k": rng.randint(2, 30), "level": 1})
    calls.append({"op": "eisenstein_eval", "M": M_SERIES, "a": a, "fn": [2, 0, 0]})
    calls.append({"op": "eisenstein_eval", "M": M_SERIES, "a": a,
                  "fn": [0, 1, rng.randrange(P)]})
    # the operators act on the latest eisenstein_2G result, "E"
    calls += [{"op": "theta"}, {"op": "u_p"}, {"op": "v_p"},
              {"op": "act", "fn": [2, 0, 0]},
              {"op": "act", "fn": [0, 2, rng.randrange(P ** 2)]},
              {"op": "act_character", "level": 1, "power": rng.randrange(1, P)},
              {"op": "act_character", "level": 2, "power": rng.randrange(1, P ** 2)},
              {"op": "series_to_json"}]
    # four calls of one cost sit at the median of the session's latencies,
    # so the median is one kind of call rather than the gap between two
    for _ in range(4):
        calls.append({"op": "convolution_nu", "M": M_NU, "a": a, "s": 3, "t": 1})
    for top in MOMENT_WEIGHTS:
        calls.append({"op": "kl_moment", "N": N_MOMENTS, "a": a,
                      "k": top if top == MOMENT_WEIGHTS[-1] else rng.randint(top - 9, top)})
    calls.append({"op": "amice", "fn": [0, 2, rng.randrange(P ** 2)],
                  "coeffs": [rng.randrange(mod) for _ in range(AMICE_TERMS)]})
    calls.append({"op": "sweep", "a": a, "level": 2})
    return calls


WORKLOADS = {
    "cli-cold": cli_cold,
    "step-cold": step_cold,
    "session-large": session_large,
}


def deck(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
