import itertools
import json
import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction

import pytest

import padicq
from padicq import PadicContext, bernoulli, reduce_rational
from padicq.cli import COMMANDS, GLOBAL_OPTIONS, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eisenstein_series_json(capsys):
    code, out, err = run_cli(capsys, "--p", "7", "--N", "12", "--M", "20",
                             "eisenstein", "--k", "4")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["schema"] == 1 and obj["kind"] == "series"
    assert obj["coeffs"][1] == "2" and obj["coeffs"][2] == "18"
    assert obj["prec"][1] == 12
    assert len(obj["coeffs"]) == 21


def test_eisenstein_odd_zero(capsys):
    code, out, _ = run_cli(capsys, "eisenstein", "--k", "3")
    assert code == 0
    obj = json.loads(out)
    assert set(obj["coeffs"]) == {"0"}


def test_eisenstein_pole_exit_2(capsys):
    code, out, err = run_cli(capsys, "--p", "5", "eisenstein", "--k", "4")
    assert code == 2 and out == ""
    assert json.loads(err)["code"] == 2


def test_pole_message_names_the_valuation(capsys):
    # B_k/k at weight 500 has a numerator of hundreds of digits; the error
    # reports only its valuation, -4 = -1 (von Staudt) - 3 (from 1/500)
    for k, v in (("200", -3), ("500", -4)):
        code, out, err = run_cli(capsys, "--p", "5", "--M", "5",
                                 "eisenstein", "--k", k)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        message = json.loads(err)["message"]
        assert len(message) < 200 and f"valuation {v}" in message, message


def test_eisenstein_twist(capsys):
    code, out, _ = run_cli(capsys, "--p", "5", "--M", "12", "eisenstein",
                           "--k", "4",
                           "--twist", '{"kind":"indicator","level":1,"class":0}')
    assert code == 0
    obj = json.loads(out)
    # only multiples of 5 contribute: coefficient 5 is 2 * 5^3
    assert obj["coeffs"][5] == str(2 * 125)
    assert obj["coeffs"][3] == "0"


def test_character_descriptors_exit_4_before_any_table(capsys):
    # every descriptor value is a scalar, so "character" is no kind: it is
    # refused as it is read, bare or wrapped, at every level up to N = 12,
    # before any table or ring element (phi(5^12) coordinates at level 12)
    ind = '{"kind":"indicator","level":1,"class":0}'
    wraps = ('%s', '{"kind":"product","factors":[%s,%%s]}' % ind,
             '{"kind":"scaled","unit":2,"inner":%s}',
             '{"kind":"zero_extended_units","inner":%s}')
    commands = (["apply", "--measure", '{"kind":"dirac","c":1}', "--fn"],
                ["eisenstein", "--k", "4", "--twist"],
                ["lvalue", "--chi2", "trivial", "--chi1"])
    want = {"code": 4, "message": "unknown function kind 'character'"}
    for level in (0, 1, 10, 12):
        char = '{"kind":"character","level":%d,"power":1}' % level
        for wrap in wraps:
            for command in commands:
                start = time.monotonic()
                code, out, err = run_cli(capsys, *command, wrap % char)
                assert time.monotonic() - start < 1.0, (level, wrap, command)
                assert_config_error(code, out, err)
                assert json.loads(err) == want
    for command in commands:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "padicq", *command,
             '{"kind":"character","level":12}'],
            capture_output=True, text=True, timeout=60, env=_child_env())
        assert time.monotonic() - start < 1.0, command
        assert_config_error(proc.returncode, proc.stdout, proc.stderr)
        assert json.loads(proc.stderr) == want


def test_table_twist_is_the_step_function_it_lists(capsys):
    # --twist reads the table grammar of --chi1: [1, 0, 0, 0, 0] stores
    # class 0 alone, so it prints the bytes of the class-0 indicator twist
    outs = [run_cli(capsys, "eisenstein", "--k", "4", "--twist", twist)
            for twist in ('{"kind":"table","level":1,"values":[1,0,0,0,0]}',
                          '{"kind":"indicator","level":1,"class":0}')]
    assert outs[0] == outs[1] and outs[0][0] == 0
    # the level-0 indicator is the constant 1: its twist is the untwisted
    # series, alone or in a product with a level-1 indicator.  A polynomial
    # is its nonzero terms, so [3, 0] is the constant 3
    one = '{"kind":"indicator","level":0,"class":0}'
    ind = '{"kind":"indicator","level":1,"class":0}'

    def twisted(*twist):
        code, out, err = run_cli(capsys, "--M", "5", "eisenstein", "--k", "6", *twist)
        assert code == 0 and err == "", twist
        return out

    assert twisted("--twist", one) == twisted()
    assert twisted("--twist", '{"kind":"product","factors":[%s,%s]}' % (one, ind)) \
        == twisted("--twist", ind)
    assert twisted("--twist", '{"kind":"polynomial","coeffs":[3,0]}') == \
        twisted("--twist", '{"kind":"constant","value":3}')


def test_lvalue_validates_each_character_once(capsys, monkeypatch):
    # the L-value, its Euler factor and the nu series share one validated
    # pair: one multiplicativity pass per character, not two each
    from padicq import measures

    calls, real = [], measures.validate_character
    monkeypatch.setattr(measures, "validate_character",
                        lambda chi, m: calls.append(m) or real(chi, m))
    chi1 = json.dumps({"kind": "table", "level": 2,
                       "values": [pow(c, 5 ** 11, 5 ** 12) if c % 5 else 0
                                  for c in range(25)]})
    code, out, err = run_cli(capsys, "lvalue", "--chi1", chi1, "--chi2", "trivial")
    assert code == 0 and err == "" and calls == [2, 2]


def test_lvalue_refuses_levels_past_the_cap_before_validating(capsys):
    # a scalar table of level 4 exceeds the level cap 3: exit 2 at once,
    # before the O(p^(2m)) multiplicativity check, multiplicative or not
    for values in ([1] * 625, [2] * 625):
        chi1 = json.dumps({"kind": "table", "level": 4, "values": values})
        start = time.monotonic()
        code, out, err = run_cli(capsys, "lvalue", "--chi1", chi1, "--chi2", "trivial")
        assert time.monotonic() - start < 1.0
        assert code == 2 and out == ""
        assert json.loads(err) == {"code": 2,
                                   "message": "level 4 exceeds the level cap 3"}


def _strip_volatile(obj):
    # the fields the benchmark's references leave out: verify's timing and
    # its check counts
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in obj.items()
                if k not in ("elapsed_s", "checks")}
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def test_commands_match_the_benchmark_reference_outputs(capsys):
    # every job of the seed-0 cli-cold and step-cold decks (verify all,
    # kummer-dump, moment, nu, apply, eisenstein, lvalue) prints what the
    # benchmark recorded for it
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "bench" / "reference"
    jobs = [job for workload in ("cli-cold", "step-cold") for job in
            json.loads((path / f"{workload}.json").read_text())["jobs"]]
    assert len(jobs) == 30
    for job in jobs:
        code, out, err = run_cli(capsys, *job["argv"])
        assert code == 0 and err == "", job["argv"]
        obj = json.loads(out)
        assert out == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        assert _strip_volatile(obj) == job["output"], job["argv"]


@pytest.mark.parametrize("measure", ['{"kind":"dirac","c":1}',
                                     '{"kind":"amice","coeffs":[1,2,3]}',
                                     '{"kind":"eisenstein","a":2}'])
@pytest.mark.parametrize("kind", ['"indicator","level":14,"class":3'])
def test_levels_above_N_are_refused_before_any_table(capsys, measure, kind):
    # no argument known to N = 12 digits resolves a class mod 5^14, so the
    # descriptor is refused as it is read: a level-14 indicator table has
    # 5^14 entries
    start = time.monotonic()
    code, out, err = run_cli(capsys, "--M", "5", "apply", "--measure", measure,
                             "--fn", f"{{\"kind\":{kind}}}")
    assert time.monotonic() - start < 1.0
    assert code == 2 and out == ""
    name = kind.split('"')[1]
    assert json.loads(err) == {
        "code": 2, "message": f"{name} level 14 exceeds the precision N = 12"}


def test_level_9_indicator_is_refused_at_once(capsys):
    # an indicator is one entry, so the Eisenstein measure's level cap
    # refuses it from its step level well under a second
    start = time.monotonic()
    code, out, err = run_cli(
        capsys, "apply", "--measure", '{"kind":"eisenstein","a":2}',
        "--fn", '{"kind":"indicator","level":9,"class":3}')
    assert time.monotonic() - start < 1.0
    assert code == 2 and out == ""
    assert json.loads(err)["code"] == 2


def test_level_9_step_product_is_refused_before_its_tables(capsys):
    # z^3 1_c: the level cap reads the product's step level, before any
    # 5^9-entry table of its poly_lc_terms decomposition
    fn = {"kind": "product", "factors": [
        {"kind": "monomial", "degree": 3},
        {"kind": "indicator", "level": 9, "class": 3}]}
    start = time.monotonic()
    code, out, err = run_cli(capsys, "apply", "--measure",
                             '{"kind":"eisenstein","a":2}',
                             "--fn", json.dumps(fn))
    assert time.monotonic() - start < 1.0
    assert code == 2 and out == ""
    assert json.loads(err) == {"code": 2,
                               "message": "level 9 exceeds the level cap 3"}


def test_moment_value(capsys):
    code, out, _ = run_cli(capsys, "--p", "5", "moment", "--k", "2")
    assert code == 0
    obj = json.loads(out)
    # 1/4 mod 5^12
    assert obj["residue"] == str(pow(4, -1, 5 ** 12))
    assert obj["prec"] == 12


def test_moment_at_a_large_prime_pairs_only_the_terms_it_needs(capsys):
    # z^1 has Mahler coefficients 0 past n = 1, so the moment pairs two
    # kernel terms, not the about (p - 1) N that z^j needs at j >= n0
    from padicq.padic import unit_group_generator

    p = 10007
    a, ctx = unit_group_generator(p), PadicContext(p, 12, 1)
    code, out, _ = run_cli(capsys, "--p", str(p), "moment", "--k", "2")
    want = reduce_rational(1 - a * a, -12, ctx)
    assert code == 0
    assert (json.loads(out)["residue"], json.loads(out)["prec"]) == \
        (str(want.residue), 12)


def test_moment_reads_the_kl_moment_directly(capsys, monkeypatch):
    # the same bytes as kl_constant on the monomial z^(k-1), which is
    # never built
    import padicq.zpfun as zpfun
    from padicq import PadicInt, kl_constant, monomial

    cases = [(5, 12, 2, k) for k in (1, 2, 3, 8, 200)] + \
        [(3, 20, 5, 1000), (7, 6, 10, 13)]
    want = []
    for p, N, a, k in cases:
        ctx = PadicContext(p, N, 60)
        v = kl_constant(PadicInt(ctx, a), monomial(ctx, k - 1))
        want.append(json.dumps({"schema": 1, "kind": "value", "p": p, "N": N,
                                "residue": str(v.residue), "prec": v.prec},
                               sort_keys=True, separators=(",", ":")) + "\n")

    def refuse(ctx, degree):
        raise AssertionError("moment built a monomial")

    monkeypatch.setattr(zpfun, "monomial", refuse)
    for (p, N, a, k), line in zip(cases, want):
        code, out, _ = run_cli(capsys, "--p", str(p), "--N", str(N),
                               "--a", str(a), "moment", "--k", str(k))
        assert code == 0 and out == line, (p, N, a, k)


def test_nu_agreement(capsys):
    code, out, _ = run_cli(capsys, "--p", "5", "--M", "20", "nu",
                           "--s", "1", "--t", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["agree"] is True
    assert obj["convolution"]["coeffs"][2] == str((-36) % 5 ** 12)
    assert obj["convolution"] == obj["reference"]
    # even and zero s: the reference is not the odd-weight zero series
    for s in ("0", "2", "4"):
        code, out, _ = run_cli(capsys, "--p", "5", "--M", "20", "nu",
                               "--s", s, "--t", "1")
        obj = json.loads(out)
        assert code == 0 and obj["agree"] is True, s
        assert obj["convolution"] == obj["reference"]
        assert obj["reference"]["coeffs"][2] != "0"


def test_nu_disagreement_exits_3(capsys, monkeypatch):
    import padicq.verify as verify_mod
    from padicq import QExpansion

    def wrong_reference(ctx, a, s, t):
        return QExpansion(ctx, [1] * (ctx.M + 1))

    monkeypatch.setattr(verify_mod, "reference_nu", wrong_reference)
    code, out, _ = run_cli(capsys, "--p", "5", "--M", "8", "nu",
                           "--s", "1", "--t", "0")
    assert code == 3
    assert json.loads(out)["agree"] is False


def test_lvalue_trivial(capsys):
    code, out, _ = run_cli(capsys, "--p", "5", "--M", "10", "lvalue",
                           "--chi1", "trivial", "--chi2", "trivial")
    assert code == 0
    obj = json.loads(out)
    assert obj["euler_factor"]["residue"] == str(-1 % 5 ** 12)
    assert obj["value"]["residue"] == "0"
    assert obj["nu_series"]["coeffs"][5] == "0"


def test_lvalue_euler_guard(capsys):
    code, out, err = run_cli(capsys, "--p", "5", "--a", "6", "--M", "10",
                             "lvalue", "--chi1", "trivial", "--chi2", "trivial")
    assert code == 2
    assert json.loads(err)["code"] == 2


def test_verify_kummer(capsys):
    code, out, _ = run_cli(capsys, "--p", "3", "--M", "10", "verify", "kummer",
                           "--k", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "report"
    assert all(s["passed"] for s in obj["suites"])


def test_verify_all_passes(capsys):
    import padicq.verify as pv

    for p in ("3", "5"):
        code, out, _ = run_cli(capsys, "--p", p, "--M", "20", "verify", "all")
        assert code == 0
        suites = json.loads(out)["suites"]
        assert [s["name"] for s in suites] == list(pv.SUITES)
        assert all(s["passed"] for s in suites)


@pytest.mark.parametrize("p", ["3", "5", "7"])
def test_verify_all_passes_at_low_precision(capsys, p):
    # at N = 1 the congruences hold to the one digit known, and the random
    # step functions of the action and Amice suites stay at level <= N
    for N in ("1", "2", "3"):
        code, out, _ = run_cli(capsys, "--p", p, "--N", N, "--M", "8",
                               "verify", "all")
        assert code == 0, (p, N, out)
        assert all(s["passed"] for s in json.loads(out)["suites"])


def test_verify_reports_failures_with_exit_1(capsys, monkeypatch):
    import padicq.verify as pv

    def broken(ctx, a, k):
        r = pv.CheckReport("moments")
        r.check(False, "synthetic failure")
        return r

    monkeypatch.setitem(pv.SUITES, "moments", broken)
    code, out, _ = run_cli(capsys, "--M", "6", "verify", "moments")
    assert code == 1
    obj = json.loads(out)
    assert obj["suites"][0]["failures"] == ["synthetic failure"]



def test_eisenstein_pole_exits_2_before_bernoulli(capsys):
    # (p - 1) | k: the level-1 weights summed to their last term below N
    # show the pole of -B_k/k; no B_j past that term, let alone B_6000
    # (seconds of tangent-number work), is built
    start = time.monotonic()
    code, out, err = run_cli(capsys, "--p", "5", "--M", "2", "eisenstein",
                             "--k", "6000")
    assert code == 2 and out == ""
    assert json.loads(err) == {"code": 2, "message": "value of 5-adic "
                               "valuation -4 has p=5 in its denominator"}
    assert time.monotonic() - start < 5

def assert_config_error(code, out, err):
    assert code == 4 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["code"] == 4


def test_determinism_and_threads(capsys):
    args = ["--p", "5", "--M", "15", "eisenstein", "--k", "2"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    # the thread pool and the level-cap option are gone: each flag is
    # rejected
    for key, value in (("threads", "2"), ("mmax", "3")):
        assert_config_error(*run_cli(capsys, f"--{key}", value, *args))


def test_config_errors_exit_4(capsys):
    code, _, err = run_cli(capsys, "--p", "4", "eisenstein", "--k", "2")
    assert code == 4 and json.loads(err)["code"] == 4
    code, _, err = run_cli(capsys, "--p", "5", "--a", "10", "moment", "--k", "2")
    assert code == 4
    assert_config_error(*run_cli(capsys, "moment"))
    # L = min(n0, k) = 100000 point weights are refused before any is built
    t0 = time.monotonic()
    code, out, err = run_cli(capsys, "--p", "10007", "moment", "--k", "100000")
    assert_config_error(code, out, err)
    assert "100000 point weights" in err and time.monotonic() - t0 < 1.0


def test_a_outside_0_to_p_pow_N_exits_4(capsys):
    # the moments with (p - 1) | k depend on a beyond p^N: a = 2 + 5^12
    # once printed the moment for a = 2, wrong in the last digit
    mono = '{"kind":"monomial","degree":3}'
    big = '{"kind":"eisenstein","a":%d}' % (5 ** 12 + 2)
    for argv in (["--a", str(5 ** 12 + 2), "moment", "--k", "4"],
                 ["--a", "-1", "moment", "--k", "4"],
                 ["apply", "--measure", '{"kind":"eisenstein","a":-1}',
                  "--fn", mono],
                 ["apply", "--measure", big, "--fn", mono]):
        code, out, err = run_cli(capsys, *argv)
        assert_config_error(code, out, err)
        assert "0 < a < 5^12 = 244140625" in json.loads(err)["message"]
    # the largest a in range is read as that exact integer
    a, ctx = 5 ** 12 - 1, PadicContext(5, 12, 1)
    for k in (4, 8, 20):
        code, out, _ = run_cli(capsys, "--a", str(a), "moment", "--k", str(k))
        r = Fraction(1 - a ** k) * -Fraction(*bernoulli(k)) / k
        want = reduce_rational(r.numerator, r.denominator, ctx)
        assert code == 0 and json.loads(out)["residue"] == str(want.residue)
        assert json.loads(out)["prec"] == 12


def test_bad_descriptors_and_degrees_exit_4(capsys):
    dirac = '{"kind":"dirac","c":1}'
    for argv in (["moment", "--k", "0"],
                 ["apply", "--measure", "[]", "--fn", "{}"],
                 ["apply", "--measure", dirac, "--fn", "[]"],
                 ["apply", "--measure", dirac,
                  "--fn", '{"kind":"product","factors":[]}'],
                 ["apply", "--measure", dirac,
                  "--fn", '{"kind":"monomial","degree":-2}'],
                 ["nu", "--s", "-1", "--t", "0"],
                 ["nu", "--s", "1", "--t", "-1"]):
        assert_config_error(*run_cli(capsys, *argv))
    _, _, err = run_cli(capsys, "moment", "--k", "0")
    assert json.loads(err)["message"] == "--k must be >= 1, got 0"
    # a negative nu degree names the flag the user typed
    for flag, argv in (("--s", ["--s", "-1", "--t", "0"]),
                       ("--t", ["--s", "1", "--t", "-1"])):
        _, _, err = run_cli(capsys, "nu", *argv)
        assert json.loads(err)["message"] == f"{flag} must be >= 0, got -1"
    # a badly shaped list field names the descriptor's kind and the field,
    # not whatever Python raised while unpacking it
    mono = '{"kind":"monomial","degree":1}'
    for measure, fn, words in (
            ('{"kind":"linear","terms":3}', mono, ["linear", "'terms'"]),
            ('{"kind":"linear","terms":[1]}', mono, ["linear", "'terms'"]),
            ('{"kind":"linear","terms":[[1]]}', mono, ["linear", "'terms'"]),
            ('{"kind":"linear","terms":[[1,' + dirac + ',2]]}', mono,
             ["linear", "'terms'"]),
            (dirac, '{"kind":"product","factors":"ab"}',
             ["product", "'factors'"]),
            (dirac, '{"kind":"product","factors":3}',
             ["product", "'factors'"]),
            # a nested descriptor given as a string that is not JSON
            (dirac, '{"kind":"product","factors":["ab"]}',
             ["product", "'factors'", "JSON"]),
            (dirac, '{"kind":"scaled","unit":2,"inner":"ab"}',
             ["scaled", "'inner'", "JSON"]),
            ('{"kind":"linear","terms":[[1,"ab"]]}', mono,
             ["linear", "'terms'", "JSON"])):
        code, out, err = run_cli(capsys, "apply", "--measure", measure,
                                 "--fn", fn)
        assert_config_error(code, out, err)
        message = json.loads(err)["message"]
        assert all(w in message for w in words), (measure, fn, message)


def test_k_below_1_exits_4_before_work(capsys):
    # a bad torsion level is bad input, not a failed verification, and
    # the message names the flag the user typed
    for k, argv in (("0", ["verify", "kummer"]), ("-2", ["verify", "all"]),
                    ("-1", ["kummer-dump"]),
                    ("0", ["kummer-dump", "--what", "pairing"])):
        code, out, err = run_cli(capsys, *argv, "--k", k)
        assert_config_error(code, out, err)
        assert json.loads(err)["message"] == f"--k must be >= 1, got {k}"


def test_descriptor_fields_are_strict_integers(capsys):
    dirac = '{"kind":"dirac","c":1}'
    mono = '{"kind":"monomial","degree":1}'
    cases = [
        # (measure, fn, words the message must name)
        ('{"kind":"eisenstein","a":2.7}', mono, ["eisenstein", "'a'", "2.7"]),
        (dirac, '{"kind":"monomial","degree":1.9}', ["monomial", "1.9"]),
        ('{"kind":"dirac","c":true}', mono, ["dirac", "'c'", "true"]),
        ('{"kind":"amice","coeffs":[1,0.5]}', mono, ["amice", "'coeffs'"]),
        ('{"kind":"linear","terms":[[false,' + dirac + ']]}', mono,
         ["linear", "false"]),
        (dirac, '{"kind":"polynomial","coeffs":3}', ["polynomial", "list"]),
        # a missing field names the field and the descriptor's kind
        (dirac, '{"kind":"indicator","level":1}', ["indicator", "'class'"]),
        ('{"kind":"eisenstein"}', mono, ["eisenstein", "'a'"]),
        (dirac, '{"kind":"scaled","unit":2}', ["scaled", "'inner'"]),
    ]
    for measure, fn, words in cases:
        code, out, err = run_cli(capsys, "apply", "--measure", measure,
                                 "--fn", fn)
        assert_config_error(code, out, err)
        message = json.loads(err)["message"]
        assert all(w in message for w in words), (measure, fn, message)
    # a table reads by one grammar, as a character and as a function
    for table in ('{"kind":"table","level":1,"values":[0,1,1,1,1.0]}',
                  '{"kind":"table","level":true,"values":[0,1,1,1,1]}',
                  '{"kind":"table","values":[0,1,1,1,1]}'):
        for args in (["lvalue", "--chi1", table, "--chi2", "trivial"],
                     ["apply", "--measure", dirac, "--fn", table]):
            code, out, err = run_cli(capsys, *args)
            assert_config_error(code, out, err)
            assert "table" in json.loads(err)["message"], args
    # a negative level names the field and the descriptor's kind
    for fn in ('{"kind":"indicator","level":-1,"class":0}',
               '{"kind":"table","level":-1,"values":[]}'):
        code, out, err = run_cli(capsys, "apply", "--measure", dirac,
                                 "--fn", fn)
        assert_config_error(code, out, err)
        kind = json.loads(fn)["kind"]
        assert json.loads(err)["message"] == \
            f"{kind} field 'level' must be >= 0, got -1"
    # character data that is no JSON object exits 4, not with a traceback
    assert_config_error(*run_cli(capsys, "lvalue", "--chi1", "[1]",
                                 "--chi2", "trivial"))
    # integers written as decimal strings are exact and still accepted
    code, out, _ = run_cli(capsys, "apply", "--measure",
                           '{"kind":"dirac","c":"3"}', "--fn",
                           '{"kind":"monomial","degree":2}')
    assert code == 0 and json.loads(out)["residue"] == "9"


def test_apply_measure_descriptor(capsys):
    code, out, _ = run_cli(capsys, "--p", "5", "--M", "8", "apply",
                           "--measure", '{"kind":"dirac","c":2}',
                           "--fn", '{"kind":"monomial","degree":2}')
    assert code == 0
    assert json.loads(out)["residue"] == "4"
    code, out, _ = run_cli(capsys, "--p", "5", "--M", "8", "apply",
                           "--measure", '{"kind":"eisenstein","a":2}',
                           "--fn", '{"kind":"monomial","degree":1}')
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "series"
    assert obj["coeffs"][1] == str(-6 % 5 ** 12)


def test_apply_to_the_mahler_series_of_x_to_the_z(capsys):
    # 6^z = sum_k 5^k C(z, k): the Eisenstein measure pairs its constant
    # term with the kernel series, and coefficient n >= 1 is
    # 2 sum_{d|n} (6^d - 2 6^(2d)); an Amice measure gives sum_k b_k 5^k
    fn = json.dumps({"kind": "mahler", "coeffs": [5 ** k for k in range(12)],
                     "tail_valuation": 12})
    code, out, err = run_cli(capsys, "--p", "5", "--M", "8", "apply",
                             "--measure", '{"kind":"eisenstein","a":2}',
                             "--fn", fn)
    assert code == 0 and err == ""
    obj = json.loads(out)
    for n in range(1, 9):
        res, prec = int(obj["coeffs"][n]), obj["prec"][n]
        want = 2 * sum(6 ** d - 2 * 6 ** (2 * d)
                       for d in range(1, n + 1) if n % d == 0)
        assert prec >= 10 and (res - want) % 5 ** prec == 0, n
    code, out, _ = run_cli(capsys, "--p", "5", "--M", "8", "apply",
                           "--measure", '{"kind":"amice","coeffs":[1,2,3]}',
                           "--fn", fn)
    assert code == 0
    assert json.loads(out)["residue"] == str(1 + 2 * 5 + 3 * 25)


def test_kummer_dump(capsys):
    code, out, _ = run_cli(capsys, "--p", "3", "kummer-dump", "--k", "1",
                           "--what", "cayley")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["table"]) == 9 and len(obj["table"][0]) == 9
    code, out, _ = run_cli(capsys, "--p", "3", "kummer-dump", "--k", "1",
                           "--what", "pairing")
    obj = json.loads(out)
    assert len(obj["table"]) == 9


def test_kummer_dump_refuses_oversized_tables(capsys):
    # p^(4k) entries: 5^12 and 3^16 are past the 10^7 cap, 3^12 is not
    for p, k in (("5", "3"), ("3", "4")):
        for what in ("cayley", "pairing"):
            t0 = time.monotonic()
            code, out, err = run_cli(capsys, "--p", p, "kummer-dump", "--k", k,
                                     "--what", what)
            assert time.monotonic() - t0 < 5.0
            assert_config_error(code, out, err)
            assert "table entries" in json.loads(err)["message"]
    for what in ("cayley", "pairing"):
        code, out, _ = run_cli(capsys, "--p", "3", "kummer-dump", "--k", "3",
                               "--what", what)
        assert code == 0 and len(json.loads(out)["table"]) == 3 ** 6


def test_verify_refuses_oversized_kummer_levels(capsys):
    # the kummer suite checks p^(4k) element pairs, under kummer-dump's cap
    for argv in (("--p", "5", "verify", "kummer", "--k", "3"),
                 ("--p", "7", "verify", "all", "--k", "3")):
        t0 = time.monotonic()
        code, out, err = run_cli(capsys, *argv)
        assert time.monotonic() - t0 < 1.0
        assert_config_error(code, out, err)
        assert json.loads(err)["message"].endswith("element pairs to check, "
                                                   "over 10^7")


def _child_env():
    # the child imports padicq from wherever this process found it
    src = os.path.dirname(os.path.dirname(padicq.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "padicq", "--p", "5", "--M", "6",
         "moment", "--k", "2"],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["residue"] == str(pow(4, -1, 5 ** 12))


def test_closed_stdout_exits_141_silently():
    # a reader that went away is not a config error: exit 128 + SIGPIPE
    # with nothing on stderr, whether the write fails at once (unbuffered)
    # or only when the buffer is flushed
    r, w = os.pipe()
    os.close(r)
    try:
        for unbuffered in ("", "1"):
            env = {k: v for k, v in _child_env().items()
                   if k != "PYTHONUNBUFFERED"}
            if unbuffered:
                env["PYTHONUNBUFFERED"] = unbuffered
            proc = subprocess.run(
                [sys.executable, "-m", "padicq", "--p", "5", "--M", "6",
                 "moment", "--k", "2"],
                stdout=w, stderr=subprocess.PIPE, timeout=120, env=env,
            )
            assert proc.returncode == 141
            assert proc.stderr == b""
    finally:
        os.close(w)


def _buffered_env():
    # stdout block-buffered, as for a user without PYTHONUNBUFFERED
    return {k: v for k, v in _child_env().items() if k != "PYTHONUNBUFFERED"}


@pytest.mark.parametrize("unbuffered", [False, True])
def test_runner_writes_what_main_writes(capsys, tmp_path, unbuffered):
    # run() ends the process with os._exit once the output is flushed: a
    # pipe and a file get the bytes an in-process main() prints
    argv = ["--p", "3", "kummer-dump", "--k", "2"]
    code, want, _ = run_cli(capsys, *argv)
    assert code == 0 and len(want) > 8192  # more than stdout's buffer
    cmd = [sys.executable, "-m", "padicq", *argv]
    env = _buffered_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    piped = subprocess.run(cmd, capture_output=True, timeout=120, env=env)
    assert piped.returncode == 0 and piped.stderr == b""
    assert piped.stdout == want.encode()
    out = tmp_path / "out.json"
    with open(out, "wb") as fh:
        proc = subprocess.run(cmd, stdout=fh, timeout=120, env=env)
    assert proc.returncode == 0 and out.read_bytes() == want.encode()


def test_help_to_a_closed_stdout_exits_141_silently():
    # the help is still in stdout's buffer when main() returns; run()'s
    # flush finds the reader gone
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "padicq", "--help"],
                              stdout=w, stderr=subprocess.PIPE, timeout=120,
                              env=_buffered_env())
    finally:
        os.close(w)
    assert proc.returncode == 141 and proc.stderr == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["moment", "--k", "2"], ["--help"]])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_unwritable_stdout_exits_74(argv, unbuffered):
    # a full device is an I/O error (sysexits EX_IOERR), not a config
    # error: one JSON line on stderr, whether main's flush fails or, for
    # the help still in the buffer, run()'s
    env = _buffered_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "padicq", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              timeout=120, env=env)
    assert proc.returncode == 74
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["code"] == 74


class _FullStream:
    """A stream whose every write and flush fails as a full device does."""

    def write(self, *text):
        raise OSError(28, "No space left on device")

    flush = write


@pytest.mark.parametrize("argv", [["moment", "--k", "x"],
                                  ["--p", "5", "eisenstein", "--k", "4"]])
def test_unwritable_stderr_exits_74(monkeypatch, argv):
    # a config (4) or domain (2) error whose JSON line cannot be written is
    # an I/O error, not exit 1 from a traceback in the handler
    monkeypatch.setattr(sys, "stderr", _FullStream())
    assert main(argv) == 74


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("stdout_full", [False, True])
def test_full_stderr_exits_74(stdout_full):
    # moment --k x is a config error; with stdout full too, moment --k 2
    # fails its write first.  Either way nothing can be reported
    argv = ["moment", "--k", "2" if stdout_full else "x"]
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "padicq", *argv],
                              stdout=full if stdout_full else subprocess.PIPE,
                              stderr=full, timeout=120, env=_buffered_env())
    assert proc.returncode == 74


_BROKEN_SUITE = """
import padicq.verify as pv
def broken(ctx, a, k):
    r = pv.CheckReport("moments")
    r.check(False, "synthetic failure")
    return r
pv.SUITES["moments"] = broken
"""
_WRONG_NU = """
import padicq.verify as pv
from padicq import QExpansion
pv.reference_nu = lambda ctx, a, s, t: QExpansion(ctx, [1] * (ctx.M + 1))
"""


@pytest.mark.parametrize("code, setup, argv", [
    (0, "", ["--p", "5", "--M", "6", "moment", "--k", "2"]),
    (0, "", ["--help"]),
    (1, _BROKEN_SUITE, ["--M", "6", "verify", "moments"]),
    (2, "", ["--p", "5", "eisenstein", "--k", "4"]),
    (3, _WRONG_NU, ["--p", "5", "--M", "8", "nu", "--s", "1", "--t", "0"]),
    (4, "", ["--p", "4", "moment", "--k", "2"]),
], ids=["ok", "help", "verify-fail", "domain", "disagree", "config"])
def test_runner_keeps_exit_codes_and_atexit_hooks(code, setup, argv):
    # python -m padicq as runpy starts it, after a hook registered by the
    # code that started it; the hook still runs, after main's output
    script = textwrap.dedent(setup) + textwrap.dedent(f"""
        import atexit, runpy, sys
        atexit.register(sys.stderr.write, "atexit hook ran\\n")
        sys.argv = ["padicq", *{argv!r}]
        runpy.run_module("padicq", run_name="__main__")
        """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=_buffered_env())
    assert proc.returncode == code, proc.stderr
    *errors, hook = proc.stderr.splitlines()
    assert hook == "atexit hook ran"
    if code in (2, 4):
        assert proc.stdout == "" and len(errors) == 1
        assert json.loads(errors[0])["code"] == code
    else:
        assert errors == [] and proc.stdout.endswith("\n")


def test_options_take_values_inline_and_by_prefix(capsys):
    _, want, _ = run_cli(capsys, "--p", "3", "kummer-dump", "--k", "1",
                         "--what", "pairing")
    for argv in (["--p=3", "kummer-dump", "--k=1", "--what=pairing"],
                 ["--p", "3", "kummer-dump", "--wh", "pairing", "--k", "1"],
                 ["--p=3", "kummer-dump", "--w=pairing"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out == want, argv
    # ints go through int(), a negative one is a value, and the verify
    # suite may stand before or after its options
    args = build_parser().parse_args(["--a=-3", "--N", " +12 ", "verify",
                                      "--k", "-2", "all"])
    assert (args.a, args.N, args.command, args.suite, args.k) == \
        (-3, 12, "verify", "all", -2)
    assert vars(build_parser().parse_args(["verify", "--k", "2", "all"])) == \
        vars(build_parser().parse_args(["verify", "all", "--k=2"]))
    # p, N and M default to the table's values; a, to None until RunConfig
    args = build_parser().parse_args(["moment", "--k", "2"])
    assert (args.p, args.N, args.M, args.a) == (5, 12, 60, None)


@pytest.mark.parametrize("argv, named", [
    ([], "command"),
    (["frob"], "'frob'"),
    (["moment"], "--k"),
    (["apply", "--fn", "{}"], "--measure"),
    (["verify", "--k", "1"], "suite"),
    (["moment", "--kk", "2"], "--kk"),
    (["--k", "2", "moment"], "--k"),
    (["moment", "--k", "2", "--p", "3"], "--p"),
    (["verify", "all", "moments"], "moments"),
    (["lvalue", "--chi", "trivial", "--chi2", "trivial"], "--chi"),
    (["moment", "--k", "two"], "--k"),
    (["--p", "5.0", "moment", "--k", "2"], "--p"),
    (["--M=", "moment", "--k", "2"], "--M"),
    (["moment", "--k"], "--k"),
    (["eisenstein", "--tw", "--k", "2"], "--twist"),
    (["kummer-dump", "--what", "table"], "--what"),
    (["--config", "run.cfg", "moment", "--k", "2"], "--config"),
    (["--config=run.cfg", "moment", "--k", "2"], "--config"),
    (["--con", "run.cfg", "moment", "--k", "2"], "--con"),
], ids=["no-command", "unknown-command", "missing", "missing-of-two",
        "missing-positional", "unknown", "unknown-before-command",
        "global-after-command", "extra-positional", "ambiguous", "not-an-int",
        "float", "empty", "no-value", "option-as-value", "bad-choice",
        "config-file", "config-file-inline", "config-prefix"])
def test_bad_command_lines_exit_4_naming_the_argument(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert_config_error(code, out, err)
    assert named in json.loads(err)["message"]


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he"],
                                  ["--p", "3", "verify", "-h"],
                                  ["moment", "--h", "--k", "x"]])
def test_help_lists_every_command_and_exits_0(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert set(COMMANDS) == {"eisenstein", "moment", "nu", "lvalue", "apply",
                             "verify", "kummer-dump"}
    for name in COMMANDS:
        assert f"\n{name}: " in out
    for flag in [o[0] for o in GLOBAL_OPTIONS] + [
            "--k", "--twist", "--s", "--t", "--chi1", "--chi2", "--measure",
            "--fn", "suite", "--what {cayley,pairing}"]:
        assert f"  {flag}" in out, flag
    # the help prints each default from the table
    assert f"  {'--p P':<24} odd prime (default 5)\n" in out
    assert "--config" not in out


def _order(a: int, mod: int) -> int:
    n, x = 1, a % mod
    while x != 1:
        x = x * a % mod
        n += 1
    return n


def test_default_a_choices():
    from padicq.padic import unit_group_generator as default_a
    from padicq.padic import is_prime
    assert default_a(5) == 2
    assert default_a(3) == 2
    assert default_a(7) == 3
    # the brute-force order of each candidate mod p^2
    for p in filter(is_prime, range(3, 200, 2)):
        want = next(a for a in itertools.count(2)
                    if a % p and _order(a, p * p) == p * (p - 1))
        assert default_a(p) == want, p
    # stepping through the powers was O(p^2) per candidate: 3.2 s at 3001
    t0 = time.monotonic()
    assert [default_a(p) for p in (3001, 10007, 1000003)] == [14, 5, 2]
    assert time.monotonic() - t0 < 1.0


def test_readme_snippets_execute():
    import pathlib
    import re

    readme = pathlib.Path(__file__).parent.parent / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert blocks, "README has no python snippets"
    for i, block in enumerate(blocks):
        exec(compile(block, f"<readme-{i}>", "exec"), {})
