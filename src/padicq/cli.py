"""Batch command-line front end.

All output is JSON with a schema version; every numeric field carries its
precision next to the residue.  Exit codes: 0 success, 1 verification
failure, 2 domain error, 3 internal identity disagreement, 4 config error,
141 stdout closed by its reader (128 + SIGPIPE).

The module loads only ``errors`` and ``padic``; each command imports the
layers it runs in its own body, so a process compiles no others.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import (ConfigError, PadicqError, check_a_range, json_int_field,
                     json_int_list, json_object)
from .padic import PadicContext, PadicInt, is_prime

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_DOMAIN = 2
EXIT_DISAGREE = 3
EXIT_CONFIG = 4
EXIT_BROKEN_PIPE = 141


def default_a(p: int) -> int:
    """Smallest integer >= 2 that is a unit generating (Z/p^2)^x."""
    target = p * (p - 1)
    a = 2
    while True:
        if a % p != 0:
            order, x = 1, a % (p * p)
            while x != 1:
                x = (x * a) % (p * p)
                order += 1
            if order == target:
                return a
        a += 1


CONFIG_KEYS = ("p", "N", "M", "a")


def load_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line: {line!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}; expected one "
                                  f"of {', '.join(CONFIG_KEYS)}")
            out[key] = value.strip()
    return out


class RunConfig:
    """Validated run parameters: p, N, M, a."""

    def __init__(self, args):
        file_cfg = load_config_file(args.config) if args.config else {}

        def pick(name, flag_value, cast, default):
            if flag_value is not None:
                return cast(flag_value)
            if name in file_cfg:
                return cast(file_cfg[name])
            return default

        try:
            self.p = pick("p", args.p, int, 5)
            self.N = pick("N", args.N, int, 12)
            self.M = pick("M", args.M, int, 60)
            a = pick("a", args.a, int, None)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not is_prime(self.p) or self.p < 3:
            raise ConfigError(f"p must be an odd prime, got {self.p}")
        if self.N < 1 or self.M < 1:
            raise ConfigError("N and M must be >= 1")
        self.ctx = PadicContext(self.p, self.N, self.M)
        if a is None:
            a = default_a(self.p)
        if a % self.p == 0:
            raise ConfigError(f"a = {a} is not a unit mod {self.p}")
        self.a = PadicInt(self.ctx, check_a_range(a, self.p, self.N, "a"))


_RING_RESULT = ("cyclotomic-valued results are not serializable; "
                "use scalar character tables")


def _as_scalar(v) -> PadicInt:
    """v itself, or a cyclotomic v's constant coefficient when every other
    coefficient is 0 to the full N digits; any other v cannot print."""
    if isinstance(v, PadicInt):
        return v
    if any(v.res[1:]) or any(e < v.ctx.N for e in v.prec[1:]):
        raise ConfigError(_RING_RESULT)
    return PadicInt(v.ctx, v.res[0], v.prec[0])


def value_to_json(v, cfg: RunConfig) -> dict:
    v = _as_scalar(v)
    return {"schema": 1, "kind": "value", "p": cfg.p, "N": cfg.N,
            "residue": str(v.residue), "prec": v.prec}


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")


def _check_k(args) -> None:
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")


# p^(4k) element pairs: kummer-dump prints one table entry per pair and the
# kummer suite checks each pair; p = 7, k = 2 is 5.8e6 (a 44 MB table)
KUMMER_PAIRS_CAP = 10 ** 7


def _check_kummer_size(cfg: RunConfig, args, command: str, what: str) -> None:
    """Refuse a torsion level with more than 10^7 element pairs; every
    p >= 3 is over at k = 4, so no large power is ever computed."""
    if args.k >= 4 or cfg.p ** (4 * args.k) > KUMMER_PAIRS_CAP:
        raise ConfigError(f"{command} --k {args.k} at p={cfg.p} needs "
                          f"p^(4k) = {cfg.p}^{4 * args.k} {what}, over 10^7")


def cmd_eisenstein(cfg: RunConfig, args) -> int:
    from .qseries import eisenstein_2G, eisenstein_2G_twisted, series_to_json
    from .zpfun import fn_from_json, lc_level
    ctx = cfg.ctx
    if args.twist:
        f = fn_from_json(ctx, args.twist)
        if lc_level(f) is None:
            raise ConfigError("twist must be locally constant")
        g = eisenstein_2G_twisted(ctx, args.k, f)
    else:
        g = eisenstein_2G(ctx, args.k)
    emit(series_to_json(g))
    return EXIT_OK


def cmd_moment(cfg: RunConfig, args) -> int:
    _check_k(args)
    from .measures import kl_constant_functional
    v = kl_constant_functional(cfg.ctx, cfg.a).moment(args.k - 1)
    emit(value_to_json(v, cfg))
    return EXIT_OK


def cmd_nu(cfg: RunConfig, args) -> int:
    for flag, degree in (("--s", args.s), ("--t", args.t)):
        if degree < 0:
            raise ConfigError(f"{flag} must be >= 0, got {degree}")
    from .measures import convolution_nu
    from .qseries import series_to_json
    from .verify import reference_nu
    from .zpfun import TwoVarFn, monomial
    ctx = cfg.ctx
    F = TwoVarFn.tensor(monomial(ctx, args.s), monomial(ctx, args.t))
    conv = convolution_nu(cfg.a, F)
    ref = reference_nu(ctx, cfg.a, args.s, args.t)
    agree = conv == ref
    emit({"schema": 1, "kind": "nu", "s": args.s, "t": args.t, "a": cfg.a.residue,
          "convolution": series_to_json(conv), "reference": series_to_json(ref),
          "agree": agree})
    return EXIT_OK if agree else EXIT_DISAGREE


def _parse_character(cfg: RunConfig, text: str):
    from .zpfun import LocallyConstant, fn_from_json, lc_level
    ctx = cfg.ctx
    if text == "trivial":
        table = [1 if c % ctx.p != 0 else 0 for c in range(ctx.p)]
        return LocallyConstant(ctx, 1, table)
    obj = json_object(text, "a character descriptor")
    if obj.get("kind") == "table":
        return LocallyConstant(ctx, json_int_field(obj, "level", "table"),
                               json_int_list(obj, "values", "table"))
    f = fn_from_json(ctx, obj)
    if lc_level(f) is None:
        raise ConfigError("character data must be locally constant")
    return f


def cmd_lvalue(cfg: RunConfig, args) -> int:
    from .measures import lvalue
    from .qseries import series_to_json
    from .zpfun import ring_valued
    chi1 = _parse_character(cfg, args.chi1)
    chi2 = _parse_character(cfg, args.chi2)
    if ring_valued(chi1) or ring_valued(chi2):  # nu_series would be a ring series
        raise ConfigError(_RING_RESULT)
    value, factor, series = lvalue(chi1, chi2, cfg.a)
    emit({"schema": 1, "kind": "lvalue", "value": value_to_json(value, cfg),
          "euler_factor": value_to_json(factor, cfg),
          "nu_series": series_to_json(series)})
    return EXIT_OK


def cmd_apply(cfg: RunConfig, args) -> int:
    from .measures import eval_measure, measure_from_json
    from .qseries import QExpansion, series_to_json
    from .zpfun import fn_from_json
    mu = measure_from_json(cfg.ctx, args.measure)
    f = fn_from_json(cfg.ctx, args.fn)
    v = eval_measure(mu, f)
    if isinstance(v, QExpansion):
        if v.parts:
            v = QExpansion(cfg.ctx, [_as_scalar(c) for c in v.coeffs], v.qprec)
        emit(series_to_json(v))
    else:
        emit(value_to_json(v, cfg))
    return EXIT_OK


def cmd_verify(cfg: RunConfig, args) -> int:
    _check_k(args)
    if args.suite in ("kummer", "all"):
        _check_kummer_size(cfg, args, f"verify {args.suite}",
                           "element pairs to check")
    from .verify import run_suites
    start = time.monotonic()
    results = run_suites(args.suite, cfg.ctx, cfg.a, k=args.k)
    report = {
        "schema": 1,
        "kind": "report",
        "suites": [{"name": r.name, "passed": r.passed, "checks": r.checks,
                    "failures": r.failures} for r in results],
        "elapsed_s": round(time.monotonic() - start, 3),
    }
    emit(report)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAIL


def cmd_kummer_dump(cfg: RunConfig, args) -> int:
    _check_k(args)
    ctx = cfg.ctx
    _check_kummer_size(cfg, args, "kummer-dump", "table entries")
    pk = ctx.p ** args.k
    from .kummer import KummerBase, kummer_mul
    base = KummerBase.standard(ctx, args.k)
    if args.what == "cayley":
        els = base.elements()
        table = [[[e.a, e.j] for e in (kummer_mul(e1, e2) for e2 in els)]
                 for e1 in els]
    else:
        table = [
            [(i * b + j * a) % pk for b in range(pk) for j in range(pk)]
            for a in range(pk) for i in range(pk)
        ]
    emit({"schema": 1, "kind": f"kummer-{args.what}", "p": cfg.p, "k": args.k,
          "table": table})
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError on a bad command line instead of printing usage,
    so stderr carries only the JSON error line."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="padicq",
        description="Exact p-adic Eisenstein measures, q-expansion actions, "
                    "and Kummer torsion arithmetic.",
    )
    parser.add_argument("--p", type=int, help="odd prime (default 5)")
    parser.add_argument("--N", type=int, help="p-adic precision (default 12)")
    parser.add_argument("--M", type=int, help="q-adic precision (default 60)")
    parser.add_argument("--a", type=int,
                        help="regularizing unit (default: smallest generator "
                             "of (Z/p^2)^x)")
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eis = sub.add_parser("eisenstein", help="compute 2G_k, optionally twisted")
    p_eis.add_argument("--k", type=int, required=True)
    p_eis.add_argument("--twist", help="JSON descriptor of a locally constant twist")

    p_mom = sub.add_parser("moment", help="regularized constant-term moment")
    p_mom.add_argument("--k", type=int, required=True)

    p_nu = sub.add_parser("nu", help="convolution measure moment, both paths")
    p_nu.add_argument("--s", type=int, required=True)
    p_nu.add_argument("--t", type=int, required=True)

    p_lv = sub.add_parser("lvalue", help="two-variable L-value data")
    p_lv.add_argument("--chi1", required=True,
                      help='"trivial" or JSON character data')
    p_lv.add_argument("--chi2", required=True,
                      help='"trivial" or JSON character data')

    p_ap = sub.add_parser("apply", help="evaluate a measure on a function")
    p_ap.add_argument("--measure", required=True,
                      help='JSON descriptor, e.g. {"kind":"dirac","c":1}')
    p_ap.add_argument("--fn", required=True,
                      help='JSON descriptor, e.g. {"kind":"monomial","degree":2}')

    p_ver = sub.add_parser("verify", help="run an invariant suite")
    # no choices, which would import verify: run_suites names the suites
    p_ver.add_argument("suite", help="an invariant suite's name, or all")
    p_ver.add_argument("--k", type=int, default=1,
                       help="torsion level for the kummer suite, which "
                            "checks p^(4k) <= 10^7 element pairs")

    p_kd = sub.add_parser("kummer-dump", help="dump Cayley or pairing tables")
    p_kd.add_argument("--k", type=int, default=1)
    p_kd.add_argument("--what", choices=["cayley", "pairing"], default="cayley")

    return parser


COMMANDS = {
    "eisenstein": cmd_eisenstein,
    "moment": cmd_moment,
    "nu": cmd_nu,
    "lvalue": cmd_lvalue,
    "apply": cmd_apply,
    "verify": cmd_verify,
    "kummer-dump": cmd_kummer_dump,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = RunConfig(args)
        code = COMMANDS[args.command](cfg, args)
        sys.stdout.flush()
        return code
    except SystemExit:
        # only --help exits the parser; a bad command line raises ConfigError
        return EXIT_OK
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the flush at
        # interpreter exit cannot fail again, and report nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ConfigError as exc:
        _emit_error(EXIT_CONFIG, exc)
        return EXIT_CONFIG
    except PadicqError as exc:
        _emit_error(EXIT_DOMAIN, exc)
        return EXIT_DOMAIN
    except (ValueError, TypeError, KeyError, OSError) as exc:
        _emit_error(EXIT_CONFIG, exc)
        return EXIT_CONFIG


def _emit_error(code: int, exc: Exception) -> None:
    sys.stderr.write(json.dumps({"code": code, "message": str(exc)},
                                sort_keys=True))
    sys.stderr.write("\n")


if __name__ == "__main__":
    sys.exit(main())
