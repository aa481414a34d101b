"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact arithmetic at the desk scale p = 5 (plus p = 3 and
p = 7 where a criterion says so), N = 12, M = 60; zero tolerance throughout.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import random
from fractions import Fraction
import pytest

from padicq import (AmiceMeasure, Character, CyclotomicElem, DiracMeasure,
                    LocallyConstant, MahlerSeries, PadicContext, PadicInt,
                    Polynomial, QExpansion, TwoVarFn, ZeroExtendedUnits, act,
                    amice_transform, bernoulli, convolution_nu, eisenstein_2G,
                    eisenstein_eval, eval_at_character, eval_measure,
                    indicator, kl_constant, lvalue, monomial, multiply,
                    reduce_rational, sigma_table, theta)
from padicq.kummer import (check_group_axioms, check_pairing_perfect,
                           check_realization, serre_tate_action_check)
from padicq.verify import reference_nu

P, N, M = 5, 12, 60


@pytest.fixture(scope="module")
def ctx():
    return PadicContext(P, N, M)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_eisenstein_moments(ctx):
    a = PadicInt(ctx, 2)
    ok = True
    for k in (2, 6, 10):
        lhs = eisenstein_eval(a, monomial(ctx, k - 1))
        rhs = eisenstein_2G(ctx, k).scale(PadicInt(ctx, 1) - a ** k)
        for n in range(M + 1):
            if not lhs.coefficient(n) == rhs.coefficient(n):
                ok = False
    report(1, ok, "mu^(a)(z^(k-1)) = (1-a^k) 2G_k for k in {2,6,10}, "
                  "all 61 coefficients mod 5^12")


def test_criterion_02_regularized_constants(ctx):
    a = PadicInt(ctx, 2)
    ok = True
    for k in range(2, 13, 2):
        got = kl_constant(a, monomial(ctx, k - 1))
        r = Fraction(1 - 2 ** k) * (-Fraction(*bernoulli(k))) / k
        want = reduce_rational(r.numerator, r.denominator, ctx)
        if not (got == want and got.prec >= N - 1):
            ok = False
    quarter = reduce_rational(1, 4, ctx)
    ok = ok and kl_constant(a, monomial(ctx, 1)) == quarter
    ok = ok and kl_constant(a, monomial(ctx, 5)) == quarter
    report(2, ok, "kl moments k=2..12 match the exact Bernoulli pipeline; "
                  "spot values k=2 and k=6 both 1/4")


def test_criterion_03_kummer_congruence(ctx):
    a = PadicInt(ctx, 2)
    ok = True
    for m in (1, 2):
        step = 4 * 5 ** (m - 1)
        for k in range(m + 1, m + 6):
            for k2 in (k + step, k + 2 * step):
                diff = eisenstein_eval(a, monomial(ctx, k - 1)) - \
                    eisenstein_eval(a, monomial(ctx, k2 - 1))
                if not all(c.valuation() >= m for c in diff.coeffs):
                    ok = False
    report(3, ok, "k = k' mod 4*5^(m-1) forces valuation >= m in every "
                  "coefficient, m in {1,2}")


def test_criterion_04_convolution_theorem(ctx):
    ok = True
    for ar in (2, 3):
        a = PadicInt(ctx, ar)
        for s in (1, 3, 5):
            for t in range(4):
                F = TwoVarFn.tensor(monomial(ctx, s), monomial(ctx, t))
                conv = convolution_nu(a, F)
                ref = reference_nu(ctx, a, s, t)
                for n in range(M + 1):
                    if not conv.coefficient(n) == ref.coefficient(n):
                        ok = False
    report(4, ok, "both nu computation paths agree for s in {1,3,5}, "
                  "t in 0..3, a in {2,3}")


def test_criterion_05_phi_identity(ctx):
    ok = True
    for k in range(1, 9):
        for r in range(1, k + 1):
            sig = sigma_table(k - r, M, (M + 1) ** (k - r + 1))  # exact
            for n in range(1, M + 1):
                lhs = n ** r * 2 * sig[n]
                rhs = 2 * sum(d ** k * (n // d) ** r
                              for d in range(1, n + 1) if n % d == 0)
                if lhs != rhs:
                    ok = False
    report(5, ok, "n^r 2 sigma_(k-r)(n) = 2 sum_(dd'=n) d^k d'^r as exact "
                  "integers, 1 <= r <= k <= 8, n <= 60")


def test_criterion_06_algebra_action_laws(ctx):
    rng = random.Random(12345)
    fns = [monomial(ctx, 2), monomial(ctx, 1), indicator(ctx, 1, 3),
           indicator(ctx, 2, 11), Character(CyclotomicElem.zeta(ctx, 1)),
           multiply(monomial(ctx, 1), indicator(ctx, 1, 2)),
           Polynomial(ctx, [3, 0, 0, 1])]
    series = [QExpansion(ctx, [rng.randrange(ctx.modulus)
                               for _ in range(M + 1)]) for _ in range(10)]
    one = Polynomial(ctx, [1])
    ok = all(act(one, g) == g for g in series)
    for i in range(30):
        f = fns[rng.randrange(len(fns))]
        f2 = fns[rng.randrange(len(fns))]
        g = series[i % 10]
        if not act(multiply(f, f2), g) == act(f, act(f2, g)):
            ok = False
    report(6, ok, "act(f g', g) = act(f, act(g', g)) on 30 random pairs; "
                  "act(1, g) = g on 10 random series")


def test_criterion_07_character_amice_duality(ctx):
    rng = random.Random(54321)
    z = CyclotomicElem.zeta(ctx, 1)
    K = N * 4
    ok = True
    for c in (0, 1, 2):
        mu = DiracMeasure(PadicInt(ctx, c))
        am = amice_transform(mu, K)
        if not eval_at_character(mu, z) == eval_at_character(am, z):
            ok = False
    for _ in range(5):
        mu = AmiceMeasure(ctx, [rng.randrange(ctx.modulus)
                                for _ in range(15)])
        direct = eval_measure(mu, Character(z))
        if not direct == eval_at_character(mu, z):
            ok = False
    report(7, ok, "eval at chi_zeta equals the Amice series at zeta - 1 "
                  "over Z[zeta_5]/5^12")


def test_criterion_08_derivative_shadow(ctx):
    # x = 1 + 5^6 has x^n = 1 + n 5^6 mod 5^12, so x^z is the Mahler series
    # 1 + 5^6 z: the action of x^z is the identity plus 5^6 theta
    rng = random.Random(777)
    ps = P ** ((N + 1) // 2)
    xz = MahlerSeries(ctx, [1, ps], N)
    ok = True
    for _ in range(20):
        g = QExpansion(ctx, [rng.randrange(ctx.modulus)
                             for _ in range(M + 1)])
        if not act(xz, g) == g + theta(g).scale(ps):
            ok = False
    report(8, ok, "x = 1 + 5^6 acts as g + 5^6 theta(g) on 20 random series")


def test_criterion_09_kummer_brute_force():
    ok = True
    detail = []
    for (p, k) in ((3, 1), (5, 1), (3, 2)):
        c = PadicContext(p, N, 4)
        reps = [check_group_axioms(c, k), check_realization(c, k),
                check_pairing_perfect(c, k)]
        if not all(r.passed for r in reps):
            ok = False
        detail.append(f"({p},{k}): {sum(r.checks for r in reps)} checks")
    report(9, ok, "group axioms, (Z/p^k)^2 structure, perfect pairing, "
                  "closed form = realization; " + "; ".join(detail))


def test_criterion_10_serre_tate_action():
    ok = True
    for (p, k) in ((3, 1), (3, 2), (5, 1)):
        c = PadicContext(p, N, 4)
        zeta = CyclotomicElem.zeta(c, k)  # exact order p^k
        rep = serre_tate_action_check(c, zeta, k)
        if not rep.passed:
            ok = False
        neg = serre_tate_action_check(c, zeta, k, corrupt_carry=True)
        if neg.passed or not neg.failures:
            ok = False
    report(10, ok, "coordinate multiplication verified exhaustively for "
                   "(3,1), (3,2), (5,1); corrupted carrying fails")


def test_criterion_11_l_value_consistency(ctx):
    a = PadicInt(ctx, 2)
    triv = LocallyConstant(ctx, 1, [0, 1, 1, 1, 1])
    L, _, nu = lvalue(triv, triv, a)
    # side one: the defining identity, recomputed through eisenstein_eval on
    # the explicit step function
    quotient = ZeroExtendedUnits(triv)
    measure_side = eisenstein_eval(a, quotient)
    factor = PadicInt(ctx, 1) - a
    ok = factor * L == measure_side.coefficient(0)
    ok = ok and L.prec >= N - 1
    # side two: the full convolution value against independent divisor sums
    explicit = act(quotient, measure_side)
    for n in range(M + 1):
        if not nu.coefficient(n) == explicit.coefficient(n):
            ok = False
        if n >= 1:
            if n % 5 == 0:
                want = PadicInt(ctx, 0)
            else:
                divs = sum(1 for d in range(1, n + 1) if n % d == 0)
                want = PadicInt(ctx, (1 - 2) * 2 * divs)
            if not nu.coefficient(n) == want:
                ok = False
    report(11, ok, "two-variable L-value defining identity holds, both sides "
                   "recomputed independently at kl precision")
