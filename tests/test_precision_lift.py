"""Lift check of the CLI: a command run at precision N and again at N + 6.

Each example builds one command as a function of the precision n: the same
function of Z_p at every n (integers, classes and units do not depend on n;
a Teichmuller table is written to n digits, a refinement of its table at
N).  The run at N + 6 then knows every digit the run at N claims, so each
residue printed at N must agree with the deeper one modulo p^(claimed
prec), and a command that exits 0 at N must exit 0 at N + 6.  A twist
constant c has v_p(c) < N: one divisible by p^N is an exact 0 at N but not
at N + 6, a different function.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicq.cli import main

LIFT = 6


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def claims(obj):
    """Every (residue, prec) pair a parsed output prints, in order."""
    if isinstance(obj, dict):
        if obj.get("kind") == "series":
            return [(int(r), e) for r, e in zip(obj["coeffs"], obj["prec"])]
        if "residue" in obj:
            return [(int(obj["residue"]), obj["prec"])]
        return [c for k in sorted(obj) for c in claims(obj[k])]
    return []


def _units(p, N):
    return st.integers(1, p ** N - 1).filter(lambda x: x % p)


@st.composite
def _fn(draw, p, N, top, depth=2):
    """A function descriptor whose step levels are at most top."""
    kinds = ["monomial", "constant", "indicator", "binomial", "mahler"]
    kinds += ["product", "scaled", "zero_extended_units"] if depth else []
    kind = draw(st.sampled_from(kinds))
    if kind == "monomial":
        return {"kind": kind, "degree": draw(st.integers(0, 4))}
    if kind == "constant":
        return {"kind": kind, "value": draw(st.integers(-p ** N, p ** N))}
    if kind == "indicator":
        m = draw(st.integers(0, top))
        return {"kind": kind, "level": m,
                "class": draw(st.integers(-2 * p ** m, 2 * p ** m))}
    if kind == "binomial":
        return {"kind": kind, "k": draw(st.integers(0, 5))}
    if kind == "mahler":
        return {"kind": kind, "tail_valuation": draw(st.integers(1, N + LIFT)),
                "coeffs": draw(st.lists(st.integers(-p ** N, p ** N),
                                        min_size=1, max_size=4))}
    if kind == "product":
        return {"kind": kind, "factors": [draw(_fn(p, N, top, depth - 1))
                                          for _ in range(2)]}
    inner = draw(_fn(p, N, top, depth - 1))
    if kind == "scaled":
        return {"kind": kind, "unit": draw(_units(p, N)), "inner": inner}
    return {"kind": kind, "inner": inner}


@st.composite
def _twist(draw, p, N):
    """A class-0 indicator of any level, or a composite twist of level <= 2:
    c 1_b, c zero-extended from the units, or 1_b(u z), with v_p(c) < N."""
    kind = draw(st.sampled_from(("indicator", "product", "product",
                                 "zero_extended_units", "scaled")))
    if kind == "indicator":
        return {"kind": kind, "level": draw(st.integers(1, N)), "class": 0}
    # v_p(c) runs down from N - 1, where a unit-class weight of valuation
    # -m leaves L(1 - k, c 1_b) p-integral most often
    c = draw(st.sampled_from((-1, 1))) * draw(_units(p, N)) \
        * p ** (N - 1 - draw(st.integers(0, N - 1)))
    m = draw(st.integers(1, min(2, N)))
    ind = {"kind": "indicator", "level": m,
           "class": draw(st.integers(-2 * p ** m, 2 * p ** m))}
    const = {"kind": "constant", "value": c}
    if kind == "product":
        return {"kind": kind, "factors": [const, ind]}
    if kind == "scaled":
        return {"kind": kind, "unit": draw(_units(p, N)), "inner": ind}
    return {"kind": kind, "inner": const}


def _teichmuller(p, n, level, power):
    """omega^power on (Z/p^level)^x mod p^n, 0 on multiples of p."""
    mod = p ** n
    return [pow(c, p ** (n - 1) * power, mod) if c % p else 0
            for c in range(p ** level)]


@st.composite
def commands(draw):
    """(p, N, argv): argv(n) is the command at precision n."""
    p = draw(st.sampled_from((3, 5, 7, 11)))
    N, M = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    kind = draw(st.sampled_from(("moment", "eisenstein", "twisted", "twisted",
                                 "nu", "lvalue", "eisenstein measure", "amice",
                                 "dirac")))
    # lvalue: for a = 1 mod p no Euler factor 1 - chi1(a) a / chi2(a) is a unit
    a = draw(_units(p, N).filter(lambda x: kind != "lvalue" or x % p != 1))

    def head(n):
        return ["--p", str(p), "--N", str(n), "--M", str(M), "--a", str(a)]
    if kind == "moment":
        k = draw(st.integers(1, 40))
        return p, N, lambda n: head(n) + ["moment", "--k", str(k)]
    if kind == "eisenstein":
        k = 2 * draw(st.integers(1, 15))
        return p, N, lambda n: head(n) + ["eisenstein", "--k", str(k)]
    if kind == "twisted":
        k, twist = draw(st.integers(2, 30)), json.dumps(draw(_twist(p, N)))
        return p, N, lambda n: head(n) + ["eisenstein", "--k", str(k),
                                          "--twist", twist]
    if kind == "nu":
        s, t = draw(st.integers(0, 5)), draw(st.integers(0, 3))
        return p, N, lambda n: head(n) + ["nu", "--s", str(s), "--t", str(t)]
    if kind == "lvalue":
        level = draw(st.integers(1, min(2, N)))
        i1, i2 = draw(st.integers(0, p - 2)), draw(st.integers(0, p - 2))
        # the Euler factor 1 - chi1(a) a / chi2(a) must be a unit
        if (1 - pow(a, i1 - i2 + 1 + (p - 1), p)) % p == 0:
            i1 = (i1 + 1) % (p - 1)

        def chis(n):
            return [json.dumps({"kind": "table", "level": level,
                                "values": _teichmuller(p, n, level, i)})
                    for i in (i1, i2)]
        return p, N, lambda n: head(n) + ["lvalue", "--chi1", chis(n)[0],
                                          "--chi2", chis(n)[1]]
    if kind == "eisenstein measure":
        # the measure reads whole periods, so its steps stay at level <= 2
        measure = {"kind": "eisenstein", "a": draw(_units(p, N))}
        fn = draw(_fn(p, N, min(2, N)))
    else:
        measure = {"kind": "amice", "coeffs": draw(st.lists(
            st.integers(-p ** N, p ** N), min_size=1, max_size=8))} \
            if kind == "amice" else \
            {"kind": "dirac", "c": draw(st.integers(-p ** N, p ** N))}
        fn = draw(_fn(p, N, N))
    measure, fn = json.dumps(measure), json.dumps(fn)
    return p, N, lambda n: head(n) + ["apply", "--measure", measure,
                                      "--fn", fn]


# -5 1_{1 + 5Z_5} meets the weight 29/120 of valuation -1 at k = 4
MINUS_FIVE_ON_ONE = json.dumps({"kind": "product", "factors": [
    {"kind": "constant", "value": -5},
    {"kind": "indicator", "level": 1, "class": 1}]})


@settings(max_examples=300)
@given(commands())
@example((5, 12, lambda n: ["--p", "5", "--N", str(n), "--M", "2", "eisenstein",
                            "--k", "4", "--twist", MINUS_FIVE_ON_ONE]))
def test_digits_claimed_at_N_survive_the_lift(job):
    p, N, argv = job
    code, out = _run(argv(N))
    if code:
        return
    command = " ".join(argv(N))
    deep_code, deep_out = _run(argv(N + LIFT))
    assert deep_code == 0, f"{command} exits {deep_code} at N + {LIFT}"
    shallow, deep = claims(json.loads(out)), claims(json.loads(deep_out))
    assert len(shallow) == len(deep), command
    for (r, e), (s, f) in zip(shallow, deep):
        assert f >= e and (r - s) % p ** e == 0, \
            f"{command}: {r} + O(p^{e}) at N, {s} + O(p^{f}) at N + {LIFT}"
