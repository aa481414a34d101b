"""Timing and counting wrappers for padicq's layers, installed from outside.

Each padicq module is a layer.  ``install(mode)`` replaces callables in the
package by wrappers and rebinds *every* reference the package holds to them:
module globals (re-exports such as ``from .measures import kl_constant``),
dict values (``cli.COMMANDS``), class attributes (``__rmul__ = __mul__``) and
default arguments (``mul=kummer_mul``).  A garbage-collector audit then
refuses to run if any other reference to an original survives, so a call
path cannot silently bypass the tracer.

Two modes, never mixed in one process:

* ``span``: every public function and method, except the per-scalar ones
  in ``PER_SCALAR``, records a span.  Per key (layer, callable, group) it
  keeps the call count and busy time (the union of its active intervals);
  per layer also self time (busy time not covered by child spans).
* ``count``: only per-scalar events are counted (``COUNTERS``), so that
  wrapping them does not inflate span times.

Aggregates stay in memory and are written as one JSON object by ``dump``.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("padic", "cyclotomic", "zpfun", "qseries", "action", "measures",
          "kummer", "verify", "cli")

# Called once per scalar, coefficient, table entry or group element: a span
# around each would cost more than the work it times.  A class name excludes
# all of the class's methods, "Class.method" one method; the evaluate
# methods of zpfun's functions are excluded too.
PER_SCALAR = {
    "padic": {"PadicInt", "DualNumber", "PadicContext", "binomial_padic",
              "ilog", "is_prime", "padic_valuation", "reduce_rational"},
    "cyclotomic": {"phi_pm", "cyclo_pow"},
    "zpfun": {"evaluate", "lc_level", "monomial", "indicator", "constant_fn",
              "multiply", "as_table"},
    "qseries": set(),
    "action": {"ActionContext"},
    "measures": set(),
    "kummer": {"LaurentElem", "KummerElement", "CheckReport", "kummer_mul",
               "KummerBase.compatible", "KummerBase.realize",
               "kummer_mul_corrupted", "kummer_smul", "kummer_pair",
               "verify_mul_realization", "verify_pair_realization"},
    "verify": {"SuiteResult"},
    "cli": set(),
}

# The cyclotomic product is per scalar too, but it is the unit of work that
# the step-function path spends its time in, so it keeps its span.
CYCLO_METHODS = {"__mul__", "__rmul__", "inverse"}

# Methods kept besides public names: arithmetic and the call/constructor
# entry points of non-scalar classes.
DUNDERS = {"__init__", "__call__", "__add__", "__radd__", "__sub__",
           "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__", "__eq__"}

# Named groups reported on their own (metric prefix -> span labels).
GROUPS = {
    "padic.bernoulli": ["padic.bernoulli"],
    "cyclotomic.mul": ["cyclotomic.CyclotomicElem.__mul__"],
    "zpfun.poly_lc_terms": ["zpfun.poly_lc_terms"],
    "zpfun.mahler_coeffs": ["zpfun.mahler_coeffs"],
    "qseries.mul": ["qseries.QExpansion.__mul__"],
    "qseries.eisenstein": ["qseries.eisenstein_2G",
                           "qseries.eisenstein_2G_scaled",
                           "qseries.eisenstein_2G_twisted"],
    "qseries.series_to_json": ["qseries.series_to_json"],
    "action.act": ["action.act"],
    "action.act_character": ["action.act_character"],
    "measures.kl_value": ["measures.KLConstantTerm.value"],
    "measures.kernel_base": ["measures.RegularizedKernel.base"],
    "measures.eisenstein_measure": ["measures.EisensteinMeasure.__call__"],
    "measures.kl_functional": ["measures.kl_constant_functional"],
    "kummer.checks": ["kummer.check_group_axioms", "kummer.check_realization",
                      "kummer.check_pairing_perfect",
                      "kummer.serre_tate_action_check"],
    "verify.moments": ["verify.suite_moments"],
    "verify.congruences": ["verify.suite_congruences"],
    "verify.action": ["verify.suite_action"],
    "verify.amice": ["verify.suite_amice"],
    "verify.kummer": ["verify.suite_kummer"],
    "verify.nu": ["verify.suite_nu"],
    "cli.main": ["cli.main"],
    "cli.emit": ["cli.emit"],
}

# Per-scalar events of the counted pass: label -> counter.  Besides these,
# the ``evaluate`` method of every ContinuousFn class counts as
# "zpfun.evaluate.calls", and cyclotomic products count per level.
COUNTERS = {
    "padic.PadicInt.__init__": "padic.padicint_new",
    "cyclotomic.CyclotomicElem.__mul__": "cyclotomic.mul",
    "kummer.kummer_mul": "kummer.mul.calls",
    "kummer.LaurentElem.__mul__": "kummer.laurent_mul.calls",
}


class Recorder:
    """In-memory span and counter aggregates of one process."""

    def __init__(self, mode: str):
        self.mode = mode
        self.calls: dict = defaultdict(int)
        self.busy_ns: dict = defaultdict(int)
        self.self_ns: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self.active: dict = defaultdict(int)
        self.stack: list = []
        self.extra: dict = {}

    def span(self, fn, layer: str, keys: tuple):
        calls, busy, self_ns = self.calls, self.busy_ns, self.self_ns
        active, stack = self.active, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for k in keys:
                active[k] += 1
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                self_ns[layer] += dur - child
                for k in keys:
                    active[k] -= 1
                    calls[k] += 1
                    if not active[k]:
                        busy[k] += dur
        return wrapper

    def counter(self, fn, name: str):
        counts = self.counts

        if name == "cyclotomic.mul":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                if out is not NotImplemented:
                    counts[f"cyclotomic.mul.l{out.level}"] += 1
                return out
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    def snapshot(self, sigma_table) -> dict:
        """Aggregates as plain JSON data (nanoseconds and counts)."""
        info = sigma_table.cache_info()
        return {
            "mode": self.mode,
            "calls": dict(self.calls),
            "busy_ns": dict(self.busy_ns),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
            "sigma_hits": info.hits,
            "sigma_misses": info.misses,
            **self.extra,
        }


def _modules():
    pkg = importlib.import_module("padicq")
    mods = {name: importlib.import_module(f"padicq.{name}") for name in LAYERS}
    return pkg, mods


def _targets(mods: dict):
    """Yield (layer, label, original) for every public callable
    defined in a layer module, methods included."""
    for layer, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for attr, raw in list(vars(obj).items()):
                    if attr.startswith("_") and attr not in DUNDERS:
                        continue
                    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if inspect.isfunction(fn):
                        yield layer, f"{layer}.{name}.{attr}", raw
            elif callable(obj):
                yield layer, f"{layer}.{name}", obj


def _wanted(mode: str, layer: str, label: str) -> str | None:
    """The counter name (count mode) or the label (span mode) to install."""
    parts = label.split(".")
    evaluate = layer == "zpfun" and len(parts) == 3 and parts[2] == "evaluate"
    if mode == "count":
        return "zpfun.evaluate.calls" if evaluate else COUNTERS.get(label)
    if layer == "cyclotomic" and parts[1] == "CyclotomicElem":
        return label if parts[2] in CYCLO_METHODS else None
    if evaluate or parts[1] in PER_SCALAR[layer] or ".".join(parts[1:]) in PER_SCALAR[layer]:
        return None
    return label


def install(mode: str) -> Recorder:
    """Wrap padicq's callables for ``mode`` ("span" or "count")."""
    if mode not in ("span", "count"):
        raise ValueError(f"unknown trace mode {mode!r}")
    pkg, mods = _modules()
    rec = Recorder(mode)
    replace = _wrappers(rec, mode, mods)
    _rebind(pkg, mods, replace)
    _audit(replace)
    return rec


def _wrappers(rec: Recorder, mode: str, mods: dict) -> dict:
    """id(original) -> (original, wrapper) for the callables ``mode`` wraps."""
    group_of = defaultdict(list)
    for group, labels in GROUPS.items():
        for label in labels:
            group_of[label].append(group)
    replace: dict = {}
    for layer, label, raw in _targets(mods):
        key = _wanted(mode, layer, label)
        if key is None:
            continue
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if id(fn) in replace:
            continue
        if mode == "span":
            keys = tuple(dict.fromkeys((layer, label, *group_of.get(label, ()))))
            new = rec.span(fn, layer, keys)
        else:
            new = rec.counter(fn, key)
        replace[id(fn)] = (fn, new)
    return replace


def _swap(value, replace):
    hit = replace.get(id(value))
    if hit is not None and hit[0] is value:
        return hit[1]
    if isinstance(value, (classmethod, staticmethod)):
        hit = replace.get(id(value.__func__))
        if hit is not None and hit[0] is value.__func__:
            return type(value)(hit[1])
    return None


def _rebind(pkg, mods, replace):
    spaces = [pkg, *mods.values()]
    classes = [obj for m in mods.values() for obj in vars(m).values()
               if inspect.isclass(obj) and obj.__module__ == m.__name__]
    functions = []
    for ns in spaces:
        for name, value in list(vars(ns).items()):
            new = _swap(value, replace)
            if new is not None:
                setattr(ns, name, new)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    new = _swap(v, replace)
                    if new is not None:
                        value[k] = new
            if inspect.isfunction(value):
                functions.append(value)
    for cls in classes:
        for name, value in list(vars(cls).items()):
            new = _swap(value, replace)
            if new is not None:
                setattr(cls, name, new)
            fn = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
            if inspect.isfunction(fn):
                functions.append(fn)
    for fn in functions:
        if fn.__defaults__:
            fn.__defaults__ = tuple(_swap(v, replace) or v for v in fn.__defaults__)
        if fn.__kwdefaults__:
            fn.__kwdefaults__ = {k: _swap(v, replace) or v
                                 for k, v in fn.__kwdefaults__.items()}


def _audit(replace):
    """Fail if anything but the wrappers still refers to an original."""
    ours = set()
    for fn, new in replace.values():
        ours.add(id(new.__dict__))
        ours.update(id(cell) for cell in new.__closure__ or ())
    ours.add(id(replace))
    originals = [fn for fn, _ in replace.values()]
    ours.add(id(originals))
    for tup in replace.values():
        ours.add(id(tup))
    stray = []
    for ref in gc.get_referrers(*originals):
        if id(ref) in ours or inspect.isframe(ref):
            continue
        stray.append(type(ref).__name__)
    if stray:
        raise RuntimeError(f"tracer missed {len(stray)} reference(s) to "
                           f"wrapped callables: {sorted(set(stray))}")


def dump(rec: Recorder, path: str) -> None:
    sigma = importlib.import_module("padicq.qseries").sigma_table
    while not hasattr(sigma, "cache_info"):
        sigma = sigma.__wrapped__
    with open(path, "w") as fh:
        json.dump(rec.snapshot(sigma), fh)
