"""Differential fuzz of the CLI against the exact oracles of bench/oracles.py.

Each example runs ``cli.main`` in-process on a command inside the oracles'
domain and compares the parsed stdout with the oracle through
``oracles.agree``: residues agree modulo the smaller precision, and the
program may claim no fewer digits than the oracle.  The oracles' residues
are exact mod p^N, so a second comparison at the program's own precisions
fails a digit claimed but not known.  Every drawn input is valid, so any
exit code but 0 fails too.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from padicq.cli import main


def _fn(j: int, m: int, c: int) -> dict:
    """Descriptor of z^j * 1_{c + p^m Z_p} (m = 0: plain monomial)."""
    mono = {"kind": "monomial", "degree": j}
    if m == 0:
        return mono
    ind = {"kind": "indicator", "level": m, "class": c}
    return ind if j == 0 else {"kind": "product", "factors": [mono, ind]}


def _teichmuller(p: int, N: int, level: int, power: int) -> list[int]:
    """omega^power on (Z/p^level)^x mod p^N, 0 on multiples of p."""
    mod = p ** N
    return [pow(c, p ** (N - 1) * power, mod) if c % p else 0
            for c in range(p ** level)]


@st.composite
def _step(draw, p, N, top):
    """(j, m, c) with the step level m at most top."""
    m = draw(st.integers(0, top))
    return draw(st.integers(0, 4)), m, draw(st.integers(0, p ** m - 1))


@st.composite
def jobs(draw):
    """(p, N, argv, want): want(ex, oracles) is the expected output.  Every
    step, twist and character level is at most N, which resolves it."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13, 17, 19, 23)))
    N, M = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    unit = st.integers(1, p ** N - 1).filter(lambda x: x % p)
    kind = draw(st.sampled_from(("moment", "eisenstein", "twisted", "step",
                                 "nu", "lvalue", "amice")))
    if kind == "eisenstein" and p == 3:
        kind = "twisted"  # (p - 1) | k for every even k: a pole
    # lvalue: for a = 1 mod p no Euler factor 1 - chi1(a) a / chi2(a) is a unit
    a = draw(unit.filter(lambda x: kind != "lvalue" or x % p != 1))
    head = ["--p", str(p), "--N", str(N), "--M", str(M), "--a", str(a)]
    if kind == "moment":
        k = draw(st.integers(1, 40))
        return p, N, head + ["moment", "--k", str(k)], \
            lambda ex, o: o.value(ex.moment(a, k), N, p, N)
    if kind == "eisenstein":
        k = draw(st.integers(1, 15).map(lambda n: 2 * n)
                 .filter(lambda k: k % (p - 1)))
        return p, N, head + ["eisenstein", "--k", str(k)], \
            lambda ex, o: ex.eisenstein(k, M)
    if kind == "twisted":
        k, level = draw(st.integers(2, 30)), draw(st.integers(1, N))
        twist = {"kind": "indicator", "level": level, "class": 0}
        return p, N, head + ["eisenstein", "--k", str(k),
                             "--twist", json.dumps(twist)], \
            lambda ex, o: ex.eisenstein_twisted(k, level, M)
    if kind == "step":
        # the measure reads whole periods (p^3 entries at its level cap 3,
        # and a deeper step exits 2), so its steps stay at level <= 2
        b, fn = draw(unit), draw(_step(p, N, min(2, N)))
        measure = {"kind": "eisenstein", "a": b}
        return p, N, head + ["apply", "--measure", json.dumps(measure),
                             "--fn", json.dumps(_fn(*fn))], \
            lambda ex, o: ex.eisenstein_measure(b, fn, M)
    if kind == "nu":
        s, t = draw(st.sampled_from((1, 3, 5))), draw(st.integers(0, 3))

        def nu(ex, o):
            series = ex.nu_moment(a, s, t, M)
            return {"kind": "nu", "s": s, "t": t, "a": a, "agree": True,
                    "convolution": series, "reference": series}
        return p, N, head + ["nu", "--s", str(s), "--t", str(t)], nu
    if kind == "lvalue":
        level = draw(st.integers(1, min(2, N)))
        i1, i2 = draw(st.integers(0, p - 2)), draw(st.integers(0, p - 2))
        # the Euler factor 1 - chi1(a) a / chi2(a) must be a unit
        if (1 - pow(a, i1 - i2 + 1 + (p - 1), p)) % p == 0:
            i1 = (i1 + 1) % (p - 1)
        chis = [_teichmuller(p, N, level, i) for i in (i1, i2)]
        args = ["trivial" if (level, i) == (1, 0) else
                json.dumps({"kind": "table", "level": level, "values": chi})
                for i, chi in zip((i1, i2), chis)]
        return p, N, head + ["lvalue", "--chi1", args[0], "--chi2", args[1]], \
            lambda ex, o: ex.lvalue(a, *chis, level, M)
    coeffs = draw(st.lists(st.integers(0, p ** N - 1), min_size=1, max_size=8))
    fn = draw(_step(p, N, N))
    measure = {"kind": "amice", "coeffs": coeffs}
    return p, N, head + ["apply", "--measure", json.dumps(measure),
                         "--fn", json.dumps(_fn(*fn))], \
        lambda ex, o: o.value(ex.mahler_dot(fn, coeffs), N, p, N)


def _at_claimed_precision(want, got):
    """want with every precision replaced by the one got claims."""
    if isinstance(want, dict) and isinstance(got, dict):
        return {k: got[k] if k == "prec" and k in got
                else _at_claimed_precision(v, got.get(k))
                for k, v in want.items()}
    if isinstance(want, list) and isinstance(got, list) \
            and len(want) == len(got):
        return [_at_claimed_precision(w, g) for w, g in zip(want, got)]
    return want


@settings(max_examples=150)
@given(jobs())
def test_cli_agrees_with_exact_oracles(oracles, job):
    p, N, argv, want = job
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, (argv, err.getvalue())
    got = json.loads(out.getvalue())
    want = want(oracles.Exact(p, N), oracles)
    assert oracles.agree(want, got, p), argv
    assert oracles.agree(_at_claimed_precision(want, got), got, p), argv
