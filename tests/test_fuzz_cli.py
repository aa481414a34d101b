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
from fractions import Fraction

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


def _zeros(p, N):
    """0 and other multiples of p^N, all 0 to the N digits of the run."""
    return st.integers(-3, 3).map(lambda t: t * p ** N)


def _values(p, N, m, value):
    """p^m table values drawn from value."""
    return st.lists(value, min_size=p ** m, max_size=p ** m)


def _table_fn(j: int, m: int, values: list) -> dict:
    """Descriptor of z^j times the level-m table of values."""
    table = {"kind": "table", "level": m, "values": values}
    return table if j == 0 else {"kind": "product", "factors": [
        {"kind": "monomial", "degree": j}, table]}


def _table_sum(mod: int, values: list, want) -> dict:
    """sum_c values[c] want(c) over the classes c, want(c) an oracle series
    of z^j 1_c: residues combined mod p^N, precisions those of want(0)."""
    outs = {c: want(c) for c, v in enumerate(values) if c == 0 or v % mod}
    coeffs = [sum(values[c] * int(o["coeffs"][n]) for c, o in outs.items())
              for n in range(len(outs[0]["coeffs"]))]
    return {**outs[0], "coeffs": [str(x % mod) for x in coeffs]}


def _twisted_table(ex, o, k: int, m: int, values: list, M: int) -> dict:
    """2G_k twisted by the level-m table of values.  Its constant term is
    sum_c f(c) w_c, w_c = -p^(m(k-1)) B_k(c/p^m)/k, exact mod p^N and known
    to the least N + v_p(w_c), at most N, over the classes the table stores:
    those not given as 0."""
    p, N, mod = ex.p, ex.N, ex.mod
    total, digits = Fraction(0), N
    for c, v in enumerate(values):
        w = ex._lvalue_class(k - 1, m, c)
        if v and w:
            total, e = total + v * w, N
            for part, sign in ((w.numerator, 1), (w.denominator, -1)):
                while part % p == 0:
                    part, e = part // p, e + sign
            digits = min(digits, e)
    const = total.numerator * pow(total.denominator, -1, mod) % mod
    sums = ex.divisor_sums(lambda d: pow(d, k - 1, mod) * values[d % p ** m], M)
    return o.series([const] + [2 * x % mod for x in sums[1:]],
                    [digits] + [N] * M, p, N)


@st.composite
def jobs(draw):
    """(p, N, argv, want): want(ex, oracles) is the expected output.  Every
    step, twist and --chi1/--chi2 table level is at most N, which resolves
    it."""
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
    # table: the function or twist is a table descriptor, whose p^m values
    # keep its level m at most 2
    table = draw(st.booleans())
    any_value = st.one_of(_zeros(p, N), st.integers(-p ** N, p ** N))
    if kind == "twisted" and table:
        # any integer at class 0, whose weight is p-integral, and 0 or a
        # multiple of p^N elsewhere; p does not divide k, so such a value
        # times w_c, of valuation >= -m - v_p(k), leaves L(1 - k, f)
        # p-integral
        k = draw(st.integers(2, 30).filter(lambda k: k % p))
        m = draw(st.integers(1, min(2, N)))
        values = draw(_values(p, N, m, _zeros(p, N)))
        values[0] = draw(st.integers(-p ** N, p ** N))
        twist = {"kind": "table", "level": m, "values": values}
        return p, N, head + ["eisenstein", "--k", str(k),
                             "--twist", json.dumps(twist)], \
            lambda ex, o: _twisted_table(ex, o, k, m, values, M)
    if kind == "twisted":
        k, level = draw(st.integers(2, 30)), draw(st.integers(1, N))
        twist = {"kind": "indicator", "level": level, "class": 0}
        return p, N, head + ["eisenstein", "--k", str(k),
                             "--twist", json.dumps(twist)], \
            lambda ex, o: ex.eisenstein_twisted(k, level, M)
    if kind == "step":
        # the measure reads whole periods (p^3 entries at its level cap 3,
        # and a deeper step exits 2), so its steps stay at level <= 2
        b, (j, m, c) = draw(unit), draw(_step(p, N, min(2, N)))
        measure = ["apply", "--measure", json.dumps({"kind": "eisenstein",
                                                     "a": b})]
        if table:
            values = draw(_values(p, N, m, any_value))
            return p, N, head + measure + [
                "--fn", json.dumps(_table_fn(j, m, values))], \
                lambda ex, o: _table_sum(ex.mod, values, lambda c:
                                         ex.eisenstein_measure(b, (j, m, c), M))
        return p, N, head + measure + ["--fn", json.dumps(_fn(j, m, c))], \
            lambda ex, o: ex.eisenstein_measure(b, (j, m, c), M)
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
    fn = draw(_step(p, N, min(2, N) if table else N))
    measure = ["apply", "--measure", json.dumps({"kind": "amice",
                                                 "coeffs": coeffs})]
    if table:
        j, m, _ = fn
        values = draw(_values(p, N, m, any_value))
        return p, N, head + measure + [
            "--fn", json.dumps(_table_fn(j, m, values))], \
            lambda ex, o: o.value(sum(v * ex.mahler_dot((j, m, c), coeffs)
                                      for c, v in enumerate(values)) % ex.mod,
                                  N, p, N)
    return p, N, head + measure + ["--fn", json.dumps(_fn(*fn))], \
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
