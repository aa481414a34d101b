"""Named invariant suites, shared by the CLI verify command and the tests.

Each suite replays one family of identities at the configured scale and
reports pass/fail with the first counterexample.  Randomized picks use a
fixed seed so repeated runs are byte-identical.
"""

from __future__ import annotations

import random
from math import comb

from .action import act, act_character
from .cyclotomic import CyclotomicElem
from .kummer import (CheckReport, check_group_axioms, check_pairing_perfect,
                     check_realization, serre_tate_action_check)
from .measures import (AmiceMeasure, DiracMeasure, amice_transform,
                       convolution_nu, eisenstein_eval, eval_at_character,
                       kl_constant)
from .padic import PadicContext, PadicInt, _bernoulli_weights, bernoulli, \
    reduce_rational
from .qseries import QExpansion, divisor_sum, theta, u_p, v_p
from .zpfun import (Character, MahlerSeries, Polynomial, Scaled, TwoVarFn,
                    indicator, mahler_coeffs, monomial, multiply)


def reference_nu(ctx: PadicContext, a: PadicInt, s: int, t: int) -> QExpansion:
    """(1 - a^(s+1)) theta^t 2G_(s+1): the divisor-sum route to the moments.

    Here 2G_(s+1) is -B_(s+1)/(s+1), from ``_bernoulli_weights``, plus
    2 sum_n sigma_s(n) q^n for every s >= 0 (eisenstein_2G is 0 at odd
    weight).  The sigma_s(n) come from the generic flat divisor_sum (d^s mod
    p^N added to each multiple of d), not the sigma_table sieve that the
    Eisenstein measure reads, so the two routes check each other.
    """
    factor, n = 1 - a.residue ** (s + 1), ctx.M + 1
    (num,), den = _bernoulli_weights(ctx, s + 1, 0, [0])
    const = reduce_rational(-factor * num, den, ctx)
    w = ([2 * factor % ctx.modulus] * n, [ctx.N] * n)
    res, prec = divisor_sum(ctx, w, s)
    res[0], prec[0] = const.residue, const.prec
    g = QExpansion.from_flat(ctx, res, prec)
    for _ in range(t):
        g = theta(g)
    return g


def suite_moments(ctx: PadicContext, a: PadicInt) -> CheckReport:
    res = CheckReport("moments")
    for k in range(2, 2 * (ctx.p - 1) + 3, 2):
        got = kl_constant(a, monomial(ctx, k - 1))
        num, den = bernoulli(k)
        want = reduce_rational((a.residue ** k - 1) * num, den * k, ctx)
        res.check(got == want and got.prec >= ctx.N - 1,
                  f"kl moment k={k}: {got!r} != {want!r}")
        # (1 - a^k) 2G_k by divisor sums, independent of the sigma tables
        # the measure reads
        lhs = eisenstein_eval(a, monomial(ctx, k - 1))
        rhs = reference_nu(ctx, a, k - 1, 0)
        res.check(lhs == rhs, f"moment identity fails at k={k}")
    return res


def suite_congruences(ctx: PadicContext, a: PadicInt) -> CheckReport:
    res = CheckReport("congruences")
    p = ctx.p
    for m in (1, 2):
        step = (p - 1) * p ** (m - 1)
        for k in range(m + 1, m + 6):
            k2 = k + step
            diff = eisenstein_eval(a, monomial(ctx, k - 1)) - \
                eisenstein_eval(a, monomial(ctx, k2 - 1))
            for n, c in enumerate(diff.coeffs):
                # a value known to prec < m digits can show only prec of them
                bar = min(m, c.prec)
                res.check(c.valuation() >= bar,
                          f"m={m} k={k},{k2}: coefficient {n} has "
                          f"valuation {c.valuation()} < {bar}")
                if not res.passed:
                    return res
    return res


def _random_series(ctx: PadicContext, rng: random.Random) -> QExpansion:
    return QExpansion(ctx, [rng.randrange(ctx.modulus)
                            for _ in range(ctx.M + 1)])


def _random_fn(ctx: PadicContext, rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return Polynomial(ctx, [rng.randrange(ctx.modulus)
                                for _ in range(rng.randrange(1, 4))])
    if kind == 1:
        # levels <= N: an indicator of level m needs arguments mod p^m
        return indicator(ctx, rng.randrange(1, min(ctx.N, 2) + 1),
                         rng.randrange(ctx.p ** 2))
    if kind == 2:
        return Character(CyclotomicElem.zeta_power(ctx, 1, rng.randrange(1, ctx.p)))
    return multiply(Polynomial(ctx, [rng.randrange(ctx.modulus), 1]),
                    indicator(ctx, 1, rng.randrange(ctx.p)))


def suite_action(ctx: PadicContext) -> CheckReport:
    res = CheckReport("action")
    rng = random.Random(20240901)
    series = [_random_series(ctx, rng) for _ in range(10)]
    one_fn = Polynomial(ctx, [1])
    for g in series:
        res.check(act(one_fn, g) == g, "act(1, g) != g")
    for i in range(30):
        f, f2 = _random_fn(ctx, rng), _random_fn(ctx, rng)
        g = series[i % len(series)]
        lhs = act(multiply(f, f2), g)
        rhs = act(f, act(f2, g))
        res.check(lhs == rhs, f"algebra action law fails (pair {i})")
    # linearity
    f = _random_fn(ctx, rng)
    g, h = series[0], series[1]
    res.check(act(f, g + h) == act(f, g) + act(f, h), "act not additive in g")
    # a non-torsion point of Gm-hat: x^z = sum_{k<N} (x - 1)^k C(z, k) for
    # x = 1 + p acts by q -> x q
    x, mod = 1 + ctx.p, ctx.modulus
    xz = MahlerSeries(ctx, [pow(x - 1, k, mod) for k in range(ctx.N)], ctx.N)
    g = series[0]
    res.check(act(xz, g) == QExpansion(ctx, [pow(x, n, mod) * a % mod
                                             for n, a in enumerate(g.res)]),
              "act(x^z, g) != x^n a_n at x = 1 + p")
    # derivative: at x = 1 + p^s with 2s >= N, x^n = 1 + n p^s mod p^N, so
    # x^z is the Mahler series 1 + p^s z and acts by g -> g + p^s theta(g)
    ps = ctx.pows[(ctx.N + 1) // 2]
    xz = MahlerSeries(ctx, [1, ps], ctx.N)
    for i in range(20):
        g = series[i % len(series)]
        res.check(act(xz, g) == g + theta(g).scale(ps),
                  f"derivative: act(x^z, g) != g + p^s theta(g) (series {i})")
    # U_p / V_p compatibility
    for i in range(5):
        f = _random_fn(ctx, rng)
        g = series[i]
        fp = Scaled(f, PadicInt(ctx, ctx.p))
        res.check(act(f, v_p(g)) == v_p(act(fp, g)),
                  "act does not intertwine V_p")
        res.check(u_p(act(f, g)) == act(fp, u_p(g)),
                  "act does not intertwine U_p")
    # group law of character twists
    z = CyclotomicElem.zeta(ctx, 1)
    g = series[0]
    res.check(act_character(z, act_character(z ** 2, g)) ==
              act_character(z ** 3, g), "character action is not a group action")
    return res


def suite_amice(ctx: PadicContext) -> CheckReport:
    res = CheckReport("amice")
    rng = random.Random(20240902)
    z = CyclotomicElem.zeta(ctx, 1)
    K = ctx.N * (ctx.p - 1)
    for c in (0, 1, 2, 17):
        mu = DiracMeasure(PadicInt(ctx, c))
        am = amice_transform(mu, K)
        res.check(eval_at_character(mu, z) == eval_at_character(am, z),
                  f"duality fails for Dirac at {c}")
    for i in range(5):
        mu = AmiceMeasure(ctx, [rng.randrange(ctx.modulus) for _ in range(12)])
        direct = mu(Character(z))
        series = eval_at_character(mu, z)
        res.check(direct == series, f"duality fails for random series {i}")
    # Mahler reconstruction on assorted functions
    for i in range(6):
        f = _random_fn(ctx, rng)
        c = mahler_coeffs(f, 14)
        for n in (0, 3, 7, 14):
            recon = None
            for k in range(n + 1):
                term = c[k] * comb(n, k)
                recon = term if recon is None else recon + term
            res.check(recon == f.evaluate(PadicInt(ctx, n)),
                      f"Mahler reconstruction fails at n={n} (fn {i})")
    return res


def suite_kummer(ctx: PadicContext, k: int = 1) -> CheckReport:
    res = CheckReport("kummer")
    for rep in (check_group_axioms(ctx, k), check_realization(ctx, k),
                check_pairing_perfect(ctx, k)):
        res.checks += rep.checks
        res.check(rep.passed, f"{rep.name}: {rep.failures[:1]}")
    zeta = CyclotomicElem.zeta(ctx, k)
    rep = serre_tate_action_check(ctx, zeta, k)
    res.checks += rep.checks
    res.check(rep.passed, f"serre-tate: {rep.failures[:1]}")
    neg = serre_tate_action_check(ctx, zeta, k, corrupt_carry=True)
    res.check(not neg.passed, "negative control unexpectedly passed")
    return res


def suite_nu(ctx: PadicContext, a: PadicInt) -> CheckReport:
    res = CheckReport("nu")
    for s in (1, 3, 5):
        for t in range(4):
            F = TwoVarFn.tensor(monomial(ctx, s), monomial(ctx, t))
            got = convolution_nu(a, F)
            want = reference_nu(ctx, a, s, t)
            res.check(got == want, f"nu moment s={s} t={t} disagrees")
    return res


# insertion order is the order of `verify all` and of the CLI's choices
SUITES = {
    "moments": lambda ctx, a, k: suite_moments(ctx, a),
    "congruences": lambda ctx, a, k: suite_congruences(ctx, a),
    "action": lambda ctx, a, k: suite_action(ctx),
    "amice": lambda ctx, a, k: suite_amice(ctx),
    "kummer": lambda ctx, a, k: suite_kummer(ctx, k),
    "nu": lambda ctx, a, k: suite_nu(ctx, a),
}


def run_suites(name: str, ctx: PadicContext, a: PadicInt,
               k: int = 1) -> list[CheckReport]:
    if name == "all":
        return [suite(ctx, a, k) for suite in SUITES.values()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{sorted(SUITES)} or 'all'")
    return [SUITES[name](ctx, a, k)]
