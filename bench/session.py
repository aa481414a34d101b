"""One library session: import padicq once, then make a fixed call sequence.

    python bench/session.py SPEC.json [--trace span|count --trace-out FILE]

SPEC holds the calls drawn by ``workloads.session_large``.  Inputs are
built before the clock starts; each call is then timed on its own (wall
and process CPU time), and its result is serialized after its clock stops,
in the JSON shape ``padicq.series_to_json`` uses (cyclotomic coefficients
become lists lifted to the character's level).  The serializer only reads
attributes, so it adds no spans or counts.  The calibration loop of
``calib.py`` runs between calls; each call gets the mean of the runs
before and after it.  Prints one JSON object.
"""

import hashlib
import json
import sys
import time

from calib import calibrate


def _scalar(x) -> dict:
    return {"kind": "value", "p": x.ctx.p, "N": x.ctx.N,
            "residue": str(x.residue), "prec": x.prec}


def _series(g, level: int = 0) -> dict:
    ctx = g.ctx
    out = {"kind": "series", "p": ctx.p, "N": ctx.N, "M": g.qprec,
           "coeffs": [], "prec": []}
    if not level:
        out["coeffs"] = [str(c.residue) for c in g.coeffs]
        out["prec"] = [c.prec for c in g.coeffs]
        return out
    out["kind"] = "cyclo_series"
    out["level"] = level
    phi = (ctx.p - 1) * ctx.p ** (level - 1)
    for c in g.coeffs:
        stride = ctx.p ** (level - c.level)
        res, prec = [0] * phi, [min(x.prec for x in c.coeffs)] * phi
        for i, x in enumerate(c.coeffs):
            res[i * stride] = x.residue
            prec[i * stride] = x.prec
        out["coeffs"].append([str(r) for r in res])
        out["prec"].append(prec)
    return out


def prepare(calls: list) -> list:
    """(thunk, serializer) per call; thunks look functions up at call time,
    so wrappers installed later are the ones called."""
    import padicq.action as action
    import padicq.measures as measures
    import padicq.qseries as qseries
    import padicq.zpfun as zpfun
    from padicq.cyclotomic import CyclotomicElem
    from padicq.padic import PadicContext, PadicInt

    ctxs = {}

    def ctx(M, N=12):
        return ctxs.setdefault((N, M), PadicContext(5, N, M))

    def fn(c, desc):
        j, m, cls = desc
        if m == 0:
            return zpfun.monomial(c, j)
        ind = zpfun.indicator(c, m, cls)
        return ind if j == 0 else zpfun.multiply(zpfun.monomial(c, j), ind)

    env = {}
    out = []
    for call in calls:
        op = call["op"]
        ser = _series
        if op == "mul":
            c = ctx(call["M"])
            g = qseries.QExpansion(c, [PadicInt(c, x) for x in call["g"]])
            h = qseries.QExpansion(c, [PadicInt(c, x) for x in call["h"]])
            thunk = (lambda g, h: lambda: g * h)(g, h)
        elif op == "eisenstein_2G":
            def thunk(c=ctx(call["M"]), k=call["k"]):
                env["E"] = qseries.eisenstein_2G(c, k)
                return env["E"]
        elif op == "eisenstein_2G_twisted":
            c = ctx(call["M"])
            f = zpfun.indicator(c, call["level"], 0)
            thunk = lambda c=c, k=call["k"], f=f: qseries.eisenstein_2G_twisted(c, k, f)
        elif op == "eisenstein_eval":
            c = ctx(call["M"])
            a, f = PadicInt(c, call["a"]), fn(c, call["fn"])
            thunk = lambda a=a, f=f: measures.eisenstein_eval(a, f)
        elif op in ("theta", "u_p", "v_p"):
            thunk = lambda op=op: getattr(qseries, op)(env["E"])
        elif op == "act":
            f = fn(ctx(3000), call["fn"])
            thunk = lambda f=f: action.act(f, env["E"])
        elif op == "act_character":
            level = call["level"]
            zeta = CyclotomicElem.zeta_power(ctx(3000), level, call["power"])
            thunk = lambda z=zeta: action.act_character(z, env["E"])
            ser = lambda g, level=level: _series(g, level)
        elif op == "series_to_json":
            thunk = lambda: qseries.series_to_json(env["E"])
            ser = dict
        elif op == "convolution_nu":
            c = ctx(call["M"])
            F = zpfun.TwoVarFn.tensor(zpfun.monomial(c, call["s"]),
                                      zpfun.monomial(c, call["t"]))
            thunk = lambda a=PadicInt(c, call["a"]), F=F: measures.convolution_nu(a, F)
        elif op == "kl_moment":
            c = ctx(60, call["N"])
            f = zpfun.monomial(c, call["k"] - 1)
            thunk = lambda a=PadicInt(c, call["a"]), f=f: measures.kl_constant(a, f)
            ser = _scalar
        elif op == "amice":
            c = ctx(60)
            mu = measures.AmiceMeasure(c, call["coeffs"])
            f = fn(c, call["fn"])
            thunk = lambda mu=mu, f=f: measures.eval_measure(mu, f)
            ser = _scalar
        elif op == "sweep":
            c = ctx(60)
            fs = [zpfun.indicator(c, call["level"], cls) for cls in range(c.p ** call["level"])]
            thunk = lambda a=PadicInt(c, call["a"]), fs=fs: [measures.kl_constant(a, f) for f in fs]
            ser = lambda vals: [_scalar(v) for v in vals]
        else:
            raise ValueError(f"unknown session call {op!r}")
        out.append((thunk, ser))
    return out


def main() -> int:
    args = sys.argv[1:]
    if len(args) not in (1, 5) or (len(args) == 5 and (args[1] != "--trace" or args[3] != "--trace-out")):
        sys.stderr.write(__doc__)
        return 4
    with open(args[0]) as fh:
        calls = json.load(fh)

    t0 = time.perf_counter()
    import padicq  # noqa: F401
    import_s = time.perf_counter() - t0

    jobs = prepare(calls)
    rec = None
    if len(args) == 5:
        import tracer
        rec = tracer.install(args[2])
        rec.extra["import_s"] = import_s

    results, cals = [], [calibrate()]
    for thunk, ser in jobs:
        w0, c0 = time.perf_counter(), time.process_time()
        value = thunk()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        data = ser(value)
        text = json.dumps(data, sort_keys=True, separators=(",", ":"))
        cals.append(calibrate())
        results.append({"wall_s": wall, "cpu_s": cpu, "cal_s": (cals[-2] + cals[-1]) / 2,
                        "out": data, "sha256": hashlib.sha256(text.encode()).hexdigest()})
    if rec is not None:
        tracer.dump(rec, args[4])
    json.dump({"import_s": import_s, "jobs": results}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
