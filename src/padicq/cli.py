"""Batch command-line front end.

All output is JSON with a schema version; every numeric field carries its
precision next to the residue.  Exit codes: 0 success, 1 verification
failure, 2 domain error, 3 internal identity disagreement, 4 config error,
74 output or error report that cannot be written (sysexits EX_IOERR), 141
stdout closed by its reader (128 + SIGPIPE).

One table states the command line: the global options in ``GLOBAL_OPTIONS``
and, declared with each command, its help line and options.  ``Parser``
reads a command line by it, ``COMMANDS`` dispatches on it and ``-h`` or
``--help`` prints it.  ``main(argv)`` runs one command and returns its exit
code; ``python -m padicq`` and the installed ``padicq`` script call
``run()``, which also ends the process once the output is flushed.

The module loads only ``errors`` and ``padic``; each command imports the
layers it runs in its own body, so a process compiles no others.
"""

from __future__ import annotations

import atexit
import json
import os
import re
import sys
import time
from types import SimpleNamespace

from .errors import ConfigError, PadicqError, check_a_range
from .padic import PadicContext, PadicInt, unit_group_generator

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_DOMAIN = 2
EXIT_DISAGREE = 3
EXIT_CONFIG = 4
EXIT_IO = 74
EXIT_BROKEN_PIPE = 141


class RunConfig:
    """Run parameters: p, N and M as the command line gives them, checked by
    the PadicContext they make, and the regularizing unit a, by default the
    smallest generator of (Z/p^2)^x."""

    def __init__(self, args):
        self.p, self.N, self.M = args.p, args.N, args.M
        self.ctx = PadicContext(args.p, args.N, args.M)
        a = unit_group_generator(self.p) if args.a is None else args.a
        if a % self.p == 0:
            raise ConfigError(f"a = {a} is not a unit mod {self.p}")
        self.a = PadicInt(self.ctx, check_a_range(a, self.p, self.N, "a"))


def value_to_json(v: PadicInt, cfg: RunConfig) -> dict:
    return {"schema": 1, "kind": "value", "p": cfg.p, "N": cfg.N,
            "residue": str(v.residue), "prec": v.prec}


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")


# -- the command line ---------------------------------------------------------

# An option is (name, kind, default, help): kind is int, str or a tuple of
# choices, a default of _REQUIRED makes it mandatory, and a name without
# dashes is a positional argument.
_REQUIRED = object()

GLOBAL_OPTIONS = (
    ("--p", int, 5, "odd prime"),
    ("--N", int, 12, "p-adic precision"),
    ("--M", int, 60, "q-adic precision"),
    ("--a", int, None, "regularizing unit (default: smallest generator of "
                       "(Z/p^2)^x)"),
)

COMMANDS: dict = {}  # command name -> function(cfg, args) -> exit code
USAGE: dict = {}     # command name -> (help line, options)


def _command(name: str, summary: str, *options):
    """Declare a command: its row of the table and the function it runs."""
    def declare(fn):
        COMMANDS[name] = fn
        USAGE[name] = (summary, options)
        return fn
    return declare


def _dest(option) -> str:
    return option[0].lstrip("-")


def _is_value(token: str) -> bool:
    """argparse's rule: a token is an option's name unless it does not start
    with "-", is "-" alone, holds a space or is a negative number."""
    return (not token.startswith("-") or token == "-" or " " in token
            or re.fullmatch(r"-\d+|-\d*\.\d+", token) is not None)


def _find(flag: str, options):
    """The option that flag names, in full or by a unique prefix; None for
    -h and --help."""
    names = [o[0] for o in options if o[0].startswith("-")] + ["--help"]
    if flag not in names and flag != "-h":
        hits = [n for n in names if flag.startswith("--") and n.startswith(flag)]
        if len(hits) > 1:
            raise ConfigError(f"ambiguous option: {flag} could match "
                              f"{', '.join(hits)}")
        if not hits:
            raise ConfigError(f"unrecognized arguments: {flag}")
        flag = hits[0]
    return next((o for o in options if o[0] == flag), None)


def _convert(option, text: str):
    name, kind = option[0], option[1]
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"argument {name}: invalid int value: "
                              f"{text!r}") from None
    if kind is not str and text not in kind:
        raise ConfigError(f"argument {name}: invalid choice: {text!r} (choose "
                          f"from {', '.join(map(repr, kind))})")
    return text


def _help_lines(options) -> list:
    lines = []
    for name, kind, default, text in options:
        if name.startswith("-"):
            name += " " + ("{" + ",".join(kind) + "}" if isinstance(kind, tuple)
                           else name[2:].upper())
        if default is _REQUIRED:
            text += " (required)"
        elif default is not None:
            text += f" (default {default})"
        lines.append(f"  {name:<24} {text}")
    return lines


class Parser:
    """Reads a command line by the table: global options, the command, then
    the command's options and positionals in any order.  As with argparse,
    an option takes ``--opt v``, ``--opt=v`` or a unique prefix of its name,
    and a negative number is a value.  A malformed command line raises
    ConfigError naming the argument; -h or --help prints the help and
    raises SystemExit(0)."""

    def parse_args(self, argv: list[str] | None = None) -> SimpleNamespace:
        tokens = sys.argv[1:] if argv is None else list(argv)
        options, positional, only_values = GLOBAL_OPTIONS, [], False
        args = SimpleNamespace(**{_dest(o): o[2] for o in options})
        i = 0
        while i < len(tokens):
            token = tokens[i]
            i += 1
            if token == "--" and options is not GLOBAL_OPTIONS and not only_values:
                only_values = True  # every later token is a positional
                continue
            if only_values or _is_value(token):
                if options is not GLOBAL_OPTIONS:
                    positional.append(token)
                    continue
                if token not in COMMANDS:
                    raise ConfigError(
                        f"argument command: invalid choice: {token!r} (choose "
                        f"from {', '.join(map(repr, COMMANDS))})")
                args.command, options = token, USAGE[token][1]
                for o in options:
                    setattr(args, _dest(o), o[2])
                continue
            flag, eq, text = token.partition("=")
            option = _find(flag, options)
            if option is None:
                sys.stdout.write(self.format_help())
                raise SystemExit(EXIT_OK)
            if not eq:
                if i == len(tokens) or not _is_value(tokens[i]):
                    raise ConfigError(f"argument {option[0]}: expected one argument")
                text = tokens[i]
                i += 1
            setattr(args, _dest(option), _convert(option, text))
        if options is GLOBAL_OPTIONS:
            raise ConfigError("the following arguments are required: command")
        slots = [o for o in options if not o[0].startswith("-")]
        if len(positional) > len(slots):
            raise ConfigError("unrecognized arguments: "
                              + " ".join(positional[len(slots):]))
        for option, text in zip(slots, positional):
            setattr(args, _dest(option), _convert(option, text))
        missing = [o[0] for o in options if getattr(args, _dest(o)) is _REQUIRED]
        if missing:
            raise ConfigError("the following arguments are required: "
                              + ", ".join(missing))
        return args

    def format_help(self) -> str:
        lines = ["usage: padicq [global options] COMMAND [options]", "",
                 "Exact p-adic Eisenstein measures, q-expansion actions, and "
                 "Kummer torsion arithmetic.", "",
                 "global options, before the command:",
                 *_help_lines(GLOBAL_OPTIONS),
                 f"  {'-h, --help':<24} print this help and exit"]
        for name, (summary, options) in USAGE.items():
            lines += ["", f"{name}: {summary}", *_help_lines(options)]
        return "\n".join(lines) + "\n"


def build_parser() -> Parser:
    """The command-line parser that ``main`` reads its argv with."""
    return Parser()


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


@_command("eisenstein", "compute 2G_k, optionally twisted",
          ("--k", int, _REQUIRED, "weight"),
          ("--twist", str, None, "JSON descriptor of a locally constant twist"))
def cmd_eisenstein(cfg: RunConfig, args) -> int:
    from .qseries import eisenstein_2G, eisenstein_2G_twisted, series_to_json
    from .zpfun import fn_from_json
    ctx = cfg.ctx
    if args.twist:
        g = eisenstein_2G_twisted(ctx, args.k, fn_from_json(ctx, args.twist))
    else:
        g = eisenstein_2G(ctx, args.k)
    emit(series_to_json(g))
    return EXIT_OK


@_command("moment", "regularized constant-term moment",
          ("--k", int, _REQUIRED, "weight: the moment of z^(k-1)"))
def cmd_moment(cfg: RunConfig, args) -> int:
    _check_k(args)
    from .measures import kl_constant_functional
    v = kl_constant_functional(cfg.ctx, cfg.a).moment(args.k - 1)
    emit(value_to_json(v, cfg))
    return EXIT_OK


@_command("nu", "convolution measure moment, both paths",
          ("--s", int, _REQUIRED, "degree in the first variable"),
          ("--t", int, _REQUIRED, "degree in the second variable"))
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


@_command("lvalue", "two-variable L-value data",
          ("--chi1", str, _REQUIRED, '"trivial" or a JSON function descriptor'),
          ("--chi2", str, _REQUIRED, '"trivial" or a JSON function descriptor'))
def cmd_lvalue(cfg: RunConfig, args) -> int:
    from .measures import lvalue
    from .qseries import series_to_json
    from .zpfun import fn_from_json
    trivial = {"kind": "table", "level": 1, "values": [0] + [1] * (cfg.p - 1)}
    chi1, chi2 = (fn_from_json(cfg.ctx, trivial if text == "trivial" else text,
                               "a character descriptor")
                  for text in (args.chi1, args.chi2))
    value, factor, series = lvalue(chi1, chi2, cfg.a)
    emit({"schema": 1, "kind": "lvalue", "value": value_to_json(value, cfg),
          "euler_factor": value_to_json(factor, cfg),
          "nu_series": series_to_json(series)})
    return EXIT_OK


@_command("apply", "evaluate a measure on a function",
          ("--measure", str, _REQUIRED,
           'JSON descriptor, e.g. {"kind":"dirac","c":1}'),
          ("--fn", str, _REQUIRED,
           'JSON descriptor, e.g. {"kind":"monomial","degree":2}'))
def cmd_apply(cfg: RunConfig, args) -> int:
    from .measures import eval_measure, measure_from_json
    from .qseries import QExpansion, series_to_json
    from .zpfun import fn_from_json
    mu = measure_from_json(cfg.ctx, args.measure)
    f = fn_from_json(cfg.ctx, args.fn)
    v = eval_measure(mu, f)
    if isinstance(v, QExpansion):
        emit(series_to_json(v))
    else:
        emit(value_to_json(v, cfg))
    return EXIT_OK


# no choices for the suite, which would import verify: run_suites names them
@_command("verify", "run an invariant suite",
          ("suite", str, _REQUIRED, "an invariant suite's name, or all"),
          ("--k", int, 1, "torsion level for the kummer suite, which checks "
                          "p^(4k) <= 10^7 element pairs"))
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


@_command("kummer-dump", "dump Cayley or pairing tables",
          ("--k", int, 1, "torsion level"),
          ("--what", ("cayley", "pairing"), "cayley", "which table"))
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
    except OSError as exc:
        # only writing the output raises one: point stdout at devnull so the
        # flush at exit cannot fail again, and report nothing if the reader
        # closed it
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return EXIT_BROKEN_PIPE
        return _emit_error(EXIT_IO, exc)
    except ConfigError as exc:
        return _emit_error(EXIT_CONFIG, exc)
    except PadicqError as exc:
        return _emit_error(EXIT_DOMAIN, exc)
    except (ValueError, TypeError, KeyError) as exc:
        return _emit_error(EXIT_CONFIG, exc)


def _emit_error(code: int, exc: Exception) -> int:
    """Write exc as one JSON line on stderr and return code, or EXIT_IO
    with nothing more written if stderr cannot take it."""
    try:
        sys.stderr.write(json.dumps({"code": code, "message": str(exc)},
                                    sort_keys=True) + "\n")
    except OSError:
        return EXIT_IO
    return code


def run() -> None:
    """The ``padicq`` command: main() on sys.argv, then the atexit callbacks
    and a flush of stdout and stderr, then os._exit with main's exit code.
    That skips the interpreter's teardown, which frees every module and
    object one at a time after the output is out (about 15 ms of a cold
    ``apply`` on a 2-core VM) and which nothing padicq holds needs.  A flush
    that finds stdout closed by its reader exits 141 with nothing on
    stderr; one that fails otherwise exits 74 with its JSON error."""
    code = main()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            code = EXIT_BROKEN_PIPE
        except OSError as exc:
            code = _emit_error(EXIT_IO, exc)
    os._exit(code)


if __name__ == "__main__":
    run()
