"""What a one-shot process imports: each CLI command loads only the layers it
runs, and the package's lazy re-exports resolve to the defining modules."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import padicq

LAYERS = {"padicq." + m for m in ("action", "cyclotomic", "errors", "kummer",
                                  "measures", "padic", "qseries", "verify",
                                  "zpfun", "cli")}


def _loaded_after(code: str) -> set:
    """Modules loaded by a fresh interpreter that runs ``code``."""
    src = os.path.dirname(os.path.dirname(padicq.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    script = f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _after_command(*argv) -> set:
    code = ("import padicq.cli\n"
            f"assert padicq.cli.main({list(argv)!r}) == 0, {argv!r}")
    return _loaded_after(code)


def test_parser_loads_only_errors_and_padic():
    mods = _loaded_after("import padicq.cli\n"
                         "padicq.cli.build_parser().parse_args(['moment', '--k', '2'])")
    assert mods & LAYERS == {"padicq.cli", "padicq.errors", "padicq.padic"}
    assert not mods & {"argparse", "gettext", "dataclasses"}


@pytest.mark.parametrize("argv", [
    ("--M", "8", "moment", "--k", "2"),
    ("--M", "8", "apply", "--measure", '{"kind":"eisenstein","a":2}',
     "--fn", '{"kind":"indicator","level":1,"class":1}'),
    ("--M", "8", "lvalue", "--chi1", "trivial", "--chi2", "trivial"),
])
def test_value_commands_skip_kummer_and_verify(argv):
    mods = _after_command(*argv)
    assert not mods & {"padicq.kummer", "padicq.verify", "dataclasses"}


@pytest.mark.parametrize("twist", [
    (), ("--twist", '{"kind":"indicator","level":1,"class":0}'),
], ids=["plain", "level-1-twist"])
def test_eisenstein_skips_measures_action_kummer_and_verify(twist):
    # a q-expansion, twisted or not, needs only qseries and zpfun; at p = 7
    # the constant term -B_4/4 is 7-integral
    mods = _after_command("--p", "7", "eisenstein", "--k", "4", *twist)
    assert "padicq.qseries" in mods
    assert not mods & {"padicq.measures", "padicq.action", "padicq.kummer",
                       "padicq.verify"}


def test_kummer_dump_skips_the_measure_layers():
    mods = _after_command("--p", "3", "kummer-dump", "--k", "1")
    assert "padicq.kummer" in mods
    assert not mods & {"padicq.measures", "padicq.qseries", "padicq.zpfun",
                       "padicq.verify", "dataclasses"}



# exact rationals are integer pairs: the standard library's rational and
# decimal types, and the numeric tower they pull in, stay unloaded
RATIONAL_MODULES = {"fractions", "decimal", "_decimal", "numbers"}


@pytest.mark.parametrize("code", [
    "import padicq.cli\n"
    "padicq.cli.build_parser().parse_args(['moment', '--k', '2'])",
    "from padicq import *",
] + [
    "import padicq.cli\n"
    f"assert padicq.cli.main({argv!r}) == 0, {argv!r}" for argv in [
        ["--M", "8", "moment", "--k", "2"],
        ["--M", "8", "apply", "--measure", '{"kind":"eisenstein","a":2}',
         "--fn", '{"kind":"indicator","level":2,"class":7}'],
        ["--M", "8", "lvalue", "--chi1", "trivial", "--chi2", "trivial"],
        ["--p", "7", "--M", "8", "eisenstein", "--k", "4"],
        ["--p", "7", "--M", "8", "eisenstein", "--k", "4", "--twist",
         '{"kind":"indicator","level":1,"class":0}'],
        ["--M", "8", "nu", "--s", "3", "--t", "1"],
        ["--p", "3", "--N", "3", "--M", "6", "verify", "all"],
        ["--p", "3", "kummer-dump", "--k", "1"],
    ]
], ids=["parser", "star", "moment", "apply", "lvalue", "eisenstein",
        "eisenstein-twist", "nu", "verify-all", "kummer-dump"])
def test_no_command_loads_fractions_or_decimal(code):
    # against a bare interpreter's modules, so that a site .pth that loads
    # one of them anyway fails nothing
    base = _loaded_after("pass")
    assert not (_loaded_after(code) - base) & RATIONAL_MODULES


def test_first_eisenstein_calls_load_no_module():
    # the constant terms are integer sums, not a deferred import paid
    # inside the first call
    _loaded_after(
        "import padicq.qseries as qs\n"
        "from padicq import PadicContext, indicator\n"
        "ctx = PadicContext(7, 12, 8)\n"
        "f = indicator(ctx, 1, 0)\n"
        "before = set(sys.modules)\n"
        "qs.eisenstein_2G(ctx, 4)\n"
        "qs.eisenstein_2G_twisted(ctx, 4, f)\n"
        "assert set(sys.modules) == before, sorted(set(sys.modules) - before)")

def _imports_padicq(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").startswith("padicq")
    return isinstance(node, ast.Import) and \
        any(alias.name.startswith("padicq") for alias in node.names)


def test_library_layers_import_at_module_level():
    # only the CLI defers the layers a command does not run; a library
    # module that imported another inside a function body would hide a
    # dependency from its import lines and pay the import on a call
    pkg = os.path.dirname(padicq.__file__)
    late = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py") or name == "cli.py":
            continue
        with open(os.path.join(pkg, name)) as fh:
            tree = ast.parse(fh.read())
        late += [(name, fn.name, node.lineno) for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(fn) if _imports_padicq(node)]
    assert not late, late


def test_lazy_exports_resolve_to_their_modules():
    # in a fresh process, so every name goes through the package hook, and
    # dir() is read before any name is looked up
    code = ("import padicq\n"
            "names = dir(padicq)\n"
            "bad = [n for n, m in padicq._EXPORTS.items() if n not in names\n"
            "       or getattr(padicq, n) is not\n"
            "       getattr(sys.modules['padicq.' + m], n)]\n"
            "assert not bad, bad")
    _loaded_after(code)
    for name, module in padicq._EXPORTS.items():
        obj = getattr(padicq, name)
        assert obj is getattr(importlib.import_module(f"padicq.{module}"), name)
        assert obj.__module__ == f"padicq.{module}", name
    star: dict = {}
    exec("from padicq import *", star)
    assert set(padicq._EXPORTS) <= set(star)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        padicq.no_such_name
    assert not hasattr(padicq, "SuiteResult")
