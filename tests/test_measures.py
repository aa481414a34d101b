import random
import time
from fractions import Fraction
from math import comb

import pytest

from padicq import (AmiceMeasure, Character, ConfigError, CyclotomicElem,
                    DiracMeasure, EisensteinMeasure, EulerFactorNotInvertible,
                    LocallyConstant, MahlerSeries, NotRootOfUnity, NotUnit,
                    PadicContext, PadicInt, Polynomial, PrecisionExhausted,
                    QExpansion, Scaled, TwoVarFn, ZeroExtendedUnits, act,
                    amice_transform, bernoulli, binomial, constant_fn,
                    convolution_nu,
                    eisenstein_2G, eisenstein_2G_twisted, eisenstein_eval,
                    eval_at_character, eval_measure, indicator, kl_constant,
                    lvalue, lvalue_periodic, monomial, multiply,
                    reduce_rational, theta)
from padicq.measures import (KLConstantTerm, kl_constant_functional,
                             validate_character)
from padicq.padic import unit_group_generator
from padicq.verify import reference_nu


# -- Amice transform -------------------------------------------------------------

def test_amice_of_dirac(ctx5):
    for c, want in [(1, [1, 1, 0, 0]), (0, [1, 0, 0, 0]), (2, [1, 2, 1, 0])]:
        mu = DiracMeasure(PadicInt(ctx5, c))
        am = amice_transform(mu, 3)
        assert [b.residue for b in am.coeffs] == want


def test_dirac_at_a_low_precision_point():
    # c = 0 known to 1 digit: its lift 5 has C(5, 5) = 1, so coefficient 5
    # certifies no digit, and zeta_25^c is not fixed by c mod 5
    ctx = PadicContext(5, 4, 5)
    mu = DiracMeasure(PadicInt(ctx, 0, 1))
    b = mu.amice(5)
    assert [(x.residue, x.prec) for x in b] == \
        [(1, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 0)]
    for lift in range(0, 625, 5):
        assert all((comb(lift, k) - x.residue) % 5 ** x.prec == 0
                   for k, x in enumerate(b))
    assert mu.at_character(CyclotomicElem.zeta(ctx, 1)) == 1
    with pytest.raises(PrecisionExhausted):
        mu.at_character(CyclotomicElem.zeta(ctx, 2))
    # a point known to N digits keeps the exact binomials
    assert [(x.residue, x.prec) for x in DiracMeasure(PadicInt(ctx, 5)).amice(5)] \
        == [(comb(5, k), 4) for k in range(6)]


def test_amice_transform_of_amice_measure_pads_with_zeros(ctx5):
    am = amice_transform(AmiceMeasure(ctx5, [3, PadicInt(ctx5, 7, 4), 1]), 5)
    assert [(b.residue, b.prec) for b in am.coeffs] == \
        [(3, 12), (7, 4), (1, 12), (0, 12), (0, 12), (0, 12)]
    assert [(b.residue, b.prec) for b in amice_transform(am, 1).coeffs] == \
        [(3, 12), (7, 4)]


def test_amice_transform_of_eisenstein_measure(ctx5):
    # b_k is the Eisenstein measure on the binomial C(z, k)
    a = PadicInt(ctx5, 2)
    am = amice_transform(EisensteinMeasure(ctx5, a), 4)
    assert len(am.coeffs) == 5
    for k, b in enumerate(am.coeffs):
        want = eisenstein_eval(a, binomial(ctx5, k))
        assert (b.res, b.prec) == (want.res, want.prec)


def test_eval_measure_dirac_character(ctx5):
    z = CyclotomicElem.zeta(ctx5, 1)
    mu = DiracMeasure(PadicInt(ctx5, 1))
    v = eval_measure(mu, Character(z))
    assert v == z
    # the Amice series 1 + T evaluated at zeta - 1 is zeta
    am = AmiceMeasure(ctx5, [1, 1])
    assert eval_at_character(am, z) == z


def test_eval_measure_amice_on_square(ctx5):
    mu = AmiceMeasure(ctx5, [0, 1])
    assert eval_measure(mu, monomial(ctx5, 2)) == 1


def test_eval_measure_zero_function(ctx5):
    z = Polynomial(ctx5, [0])
    for mu in (DiracMeasure(PadicInt(ctx5, 3)),
               AmiceMeasure(ctx5, [4, 7, 1]),
               EisensteinMeasure(ctx5, PadicInt(ctx5, 2))):
        v = eval_measure(mu, z)
        if isinstance(v, QExpansion):
            assert v == QExpansion.zero(ctx5)
        else:
            assert v == 0


def test_eval_at_character_total_mass(ctx5):
    one = CyclotomicElem.one(ctx5, 0)
    am = AmiceMeasure(ctx5, [9, 4, 3])
    assert eval_at_character(am, one) == 9


def test_eval_at_character_rejects_non_roots(ctx5):
    from padicq import NotRootOfUnity

    am = AmiceMeasure(ctx5, [1, 1])
    with pytest.raises(NotRootOfUnity):
        eval_at_character(am, CyclotomicElem.zeta(ctx5, 1) + 1)


def test_character_duality_dirac_and_random(ctx5):
    rng = random.Random(99)
    z = CyclotomicElem.zeta(ctx5, 1)
    K = ctx5.N * 4
    for c in (0, 1, 2, 9, 31):
        mu = DiracMeasure(PadicInt(ctx5, c))
        am = amice_transform(mu, K)
        assert eval_at_character(mu, z) == eval_at_character(am, z)
        assert eval_at_character(mu, z) == z ** c
    for _ in range(5):
        mu = AmiceMeasure(ctx5, [rng.randrange(ctx5.modulus)
                                 for _ in range(10)])
        assert eval_measure(mu, Character(z)) == eval_at_character(mu, z)


def test_scalar_pairings_match_padicint_sums(ctx5):
    # sum_k c_k b_k as one integer dot product: residue and precision of
    # the sum of PadicInt products, over coefficients and Mahler
    # coefficients known to mixed precisions, and the empty measure; ring
    # values keep the element sum.  A LinearMeasure pairs the same way.
    from padicq import LinearMeasure
    from padicq.zpfun import mahler_coeffs

    def padicint_sum(cks, bs):  # the sum of products, term by term
        acc = None
        for ck, b in zip(cks, bs):
            acc = b * ck if acc is None else acc + b * ck
        return PadicInt(ctx5, 0) if acc is None else acc

    rng = random.Random(83)
    z = CyclotomicElem.zeta(ctx5, 1)
    fns = [indicator(ctx5, 2, 7), monomial(ctx5, 3),
           Polynomial(ctx5, [PadicInt(ctx5, 3, 4), 1]),
           LocallyConstant(ctx5, 1, [PadicInt(ctx5, 2, 5), 0, 1, 4, 3]),
           Character(z), binomial(ctx5, 2)]
    for size in (0, 1, 7, 40):
        for prec in (ctx5.N, 6):
            bs = [PadicInt(ctx5, rng.randrange(ctx5.modulus),
                           rng.choice([ctx5.N, prec])) for _ in range(size)]
            mu = AmiceMeasure(ctx5, bs)
            lin = LinearMeasure(ctx5, [(b, AmiceMeasure(ctx5, [1] * (k + 1)))
                                       for k, b in enumerate(bs)])
            for f in fns:
                cks = mahler_coeffs(f, size - 1)
                parts = [padicint_sum(cks, [PadicInt(ctx5, 1)] * (k + 1))
                         for k in range(size)]
                for got, want in ((mu(f), padicint_sum(cks, bs)),
                                  (lin(f), padicint_sum(bs, parts))):
                    assert type(got) is type(want) and got == want
                    if isinstance(want, PadicInt):
                        assert (got.residue, got.prec) == (want.residue, want.prec)


def test_basic_congruence_property(ctx5):
    # f = g mod p^n pointwise implies mu(f) = mu(g) mod p^n
    n = 3
    base = [7, 2, 0, 1, 4]
    f = LocallyConstant(ctx5, 1, base)
    g = LocallyConstant(ctx5, 1, [v + 5 ** n * (i + 1)
                                  for i, v in enumerate(base)])
    measures = [DiracMeasure(PadicInt(ctx5, 7)),
                AmiceMeasure(ctx5, list(range(1, 30))),
                EisensteinMeasure(ctx5, PadicInt(ctx5, 2))]
    for mu in measures:
        vf, vg = eval_measure(mu, f), eval_measure(mu, g)
        if isinstance(vf, QExpansion):
            diff = vf - vg
            assert all(c.valuation() >= n for c in diff.coeffs)
        else:
            assert (vf - vg).valuation() >= n


# -- the Eisenstein measure --------------------------------------------------------

def test_moment_identity_full_grid(ctx5):
    a = PadicInt(ctx5, 2)
    for k in (2, 4, 6, 8, 10, 12):
        lhs = eisenstein_eval(a, monomial(ctx5, k - 1))
        rhs = reference_nu(ctx5, a, k - 1, 0)
        assert lhs == rhs, k
        if k % 4 != 0:  # (p-1) = 4 does not divide k: the bare series exists
            bare = eisenstein_2G(ctx5, k).scale(PadicInt(ctx5, 1) - a ** k)
            assert lhs == bare


def test_moment_identity_random_units(ctx5):
    from hypothesis import given
    from hypothesis import strategies as st

    @given(st.integers(min_value=2, max_value=ctx5.modulus - 1))
    def inner(ar):
        if ar % 5 == 0:
            return
        a = PadicInt(ctx5, ar)
        for k in (2, 6):
            lhs = eisenstein_eval(a, monomial(ctx5, k - 1))
            rhs = reference_nu(ctx5, a, k - 1, 0)
            assert lhs == rhs

    inner()


def test_eisenstein_coefficient_examples(ctx5):
    a3 = PadicInt(ctx5, 3)
    e = eisenstein_eval(a3, monomial(ctx5, 1))
    assert e.coefficient(1) == -16
    assert e.coefficient(0) == reduce_rational(Fraction(2, 3), ctx5)
    a2 = PadicInt(ctx5, 2)
    e = eisenstein_eval(a2, indicator(ctx5, 1, 1))
    assert e.coefficient(2) == 2


def test_eisenstein_rejects_non_units(ctx5):
    with pytest.raises(NotUnit):
        eisenstein_eval(PadicInt(ctx5, 5), monomial(ctx5, 1))


def test_eisenstein_at_trivial_character(ctx5):
    # k-1 = 0 evaluation: coefficient n is 2 sum_{d|n} (1 - a)
    a = PadicInt(ctx5, 2)
    one = CyclotomicElem.one(ctx5, 0)
    e = eval_at_character(EisensteinMeasure(ctx5, a), one)
    for n in range(1, ctx5.M + 1):
        divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
        assert e.coefficient(n) == 2 * divisors * (1 - 2)
    assert e.coefficient(0) == kl_constant(a, constant_fn(ctx5, 1))


def test_eisenstein_at_character_full_precision(ctx5):
    a = PadicInt(ctx5, 2)
    z = CyclotomicElem.zeta(ctx5, 1)
    e = eval_at_character(EisensteinMeasure(ctx5, a), z)
    # coefficient rule with f = chi_zeta, exact: 2 sum_{d|n} (z^d - a z^(2d))
    for n in (1, 2, 3, 6, 10):
        acc = CyclotomicElem.zero(ctx5, 1)
        for d in range(1, n + 1):
            if n % d == 0:
                acc = acc + (z ** d - 2 * z ** (2 * d))
        assert e.coefficient(n) == 2 * acc
    assert e.coefficient(0).min_prec() == ctx5.N


# -- the constant-term functional ---------------------------------------------------

def test_kl_moment_spot_values(ctx5):
    a = PadicInt(ctx5, 2)
    assert kl_constant(a, monomial(ctx5, 1)) == \
        reduce_rational(Fraction(1, 4), ctx5)
    assert kl_constant(a, monomial(ctx5, 3)) == \
        reduce_rational(Fraction(-1, 8), ctx5)
    # k = 6 collapses to the same value as k = 2 (an exact coincidence)
    assert kl_constant(a, monomial(ctx5, 5)) == \
        reduce_rational(Fraction(1, 4), ctx5)


def test_kl_moments_against_bernoulli_oracle(ctx5):
    for ar in (2, 3, 7):
        a = PadicInt(ctx5, ar)
        for k in range(2, 2 * 4 + 3):
            got = kl_constant(a, monomial(ctx5, k - 1))
            want = reduce_rational(
                Fraction(1 - ar ** k) * (-bernoulli(k)) / k, ctx5)
            assert got == want and got.prec == ctx5.N, (ar, k)


def _mahler_cutoff(p, N):
    """The least n with v_p(n!) >= N, from Legendre's formula."""
    n = 0
    while sum(n // p ** i for i in range(1, N + 2)) < N:
        n += 1
    return n


def test_point_weights_match_exact_mahler_pairing():
    from padicq.measures import _point_weights

    rng = random.Random(5)
    for p in (2, 3, 5, 7):
        for N in (1, 7, 12, 40):
            mod, n0 = p ** N, _mahler_cutoff(p, N)
            # Delta^n z^j at 0 = sum_i (-1)^(n-i) C(n, i) i^j
            signs = [[(-1) ** (n - i) * comb(n, i) for i in range(n + 1)]
                     for n in range(n0)]
            js = sorted(set(range(31)) | set(range(n0 - 2, n0 + 3)) | {99, 10 ** 5})
            deltas = {j: [sum(s * pow(i, j, mod) for i, s in enumerate(row))
                          for row in signs] for j in js}
            for j in js:
                if j < 100:
                    # every Mahler coefficient past the cutoff is a multiple
                    # of n! and so of p^N
                    assert all(sum((-1) ** (n - i) * comb(n, i) * i ** j
                                   for i in range(n + 1)) % mod == 0
                               for n in range(n0, j + 1)), (p, N, j)
            if p == 2:
                # no odd-prime context: random kernels stand in for A_a
                for _ in range(3):
                    b = [rng.randrange(mod) for _ in range(n0)]
                    w = _point_weights(b, mod)
                    for j in js:
                        got = sum(x * pow(i, j, mod) for i, x in enumerate(w))
                        want = sum(x * y for x, y in zip(b, deltas[j]))
                        assert (got - want) % mod == 0, (p, N, j)
                continue
            ctx = PadicContext(p, N, 4)
            for a in (2, p + 1, mod - 1):
                kl = KLConstantTerm(ctx, PadicInt(ctx, a))
                b = kl.kernel.base(n0 - 1)
                for j in js:
                    got = kl.moment(j)
                    want = sum(x * y for x, y in zip(b, deltas[j])) % mod
                    assert (got.residue, got.prec) == (want, N), (p, N, a, j)


def _list_point_weights(b, mod):
    """The coefficients of sum_n b_n (X - 1)^n, by Horner in X - 1 on a
    list of integers."""
    w = []
    for c in reversed(b):
        w = [x - y for x, y in zip([c] + w, w + [0])]
    return [x % mod for x in w]


def test_point_weights_and_moments_match_list_horner_and_pow_rows():
    from padicq.measures import _point_weights

    rng = random.Random(20)
    for p in (3, 5, 7):
        for N in (1, 12, 40):
            ctx, mod, n0 = PadicContext(p, N, 4), p ** N, _mahler_cutoff(p, N)
            # random kernels and the largest digits, |w_i| near mod 2^len(b)
            for L in (0, 1, 2, n0):
                for b in ([rng.randrange(mod) for _ in range(L)], [mod - 1] * L):
                    assert _point_weights(b, mod) == _list_point_weights(b, mod)
            for a in (2, mod - 1):
                kl = KLConstantTerm(ctx, PadicInt(ctx, a))
                w = _list_point_weights(kl.kernel.base(n0 - 1), mod)
                for j in (0, 1, 2, n0 - 1, n0, 999, 10 ** 5 + 1):
                    got = kl.moment(j)
                    want = sum(x * pow(i, j, mod) for i, x in enumerate(w)) % mod
                    assert (got.residue, got.prec) == (want, N), (p, N, a, j)


def _full_pairing_moment(kl, j):
    """kappa(z^j) paired against all j + 1 Mahler coefficients of z^j."""
    mod = kl.ctx.modulus
    vals = [pow(n, j, mod) for n in range(j + 1)]
    c = []
    for _ in range(j + 1):
        c.append(vals[0])
        vals = [(y - x) % mod for x, y in zip(vals, vals[1:])]
    return PadicInt(kl.ctx, sum(x * y for x, y in zip(c, kl.kernel.base(j))))


def test_moment_cutoff_matches_full_pairing():
    for p in (3, 5, 7):
        for N in (1, 2, 5, 12):
            ctx = PadicContext(p, N, 4)
            n0 = _mahler_cutoff(p, N)
            js = set(range(12)) | set(range(n0 - 2, n0 + 3)) | {99}
            for a in (2, p + 1, p ** N - 1):
                kl = KLConstantTerm(ctx, PadicInt(ctx, a))
                for j in sorted(js):
                    got, want = kl.moment(j), _full_pairing_moment(kl, j)
                    assert (got.residue, got.prec) == \
                        (want.residue, want.prec), (p, N, a, j)


def _bernoulli_from_tangent_numbers(k):
    """B_k for even k >= 2 from the integer tangent numbers T_1..T_(k/2)
    (Brent and Harvey, arXiv:1108.0286): B_2n = (-1)^(n-1) 2n T_n /
    (4^n (4^n - 1))."""
    n = k // 2
    T = [0, 1] + [0] * (n - 1)
    for i in range(2, n + 1):
        T[i] = (i - 1) * T[i - 1]
    for i in range(2, n + 1):
        for m in range(i, n + 1):
            T[m] = (m - i) * T[m - 1] + (m - i + 2) * T[m]
    return Fraction((-1) ** (n - 1) * 2 * n * T[n], 4 ** n * (4 ** n - 1))


def test_high_weight_moments_against_exact_rationals():
    assert all(_bernoulli_from_tangent_numbers(k) == bernoulli(k)
               for k in range(2, 41, 2))
    # p - 1 divides k at p = 5 for k = 500, 1000 and at p = 7 for k = 1002:
    # B_k has p in its denominator there
    bks = {k: _bernoulli_from_tangent_numbers(k) for k in (500, 1000, 1002)}
    for p in (5, 7):
        ctx = PadicContext(p, 40, 4)
        for k, bk in bks.items():
            for a in (2, 3, p ** 40 - 1):
                want = reduce_rational(Fraction(1 - a ** k) * -bk / k, ctx)
                got = KLConstantTerm(ctx, PadicInt(ctx, a)).moment(k - 1)
                assert (got.residue, got.prec) == (want.residue, 40), (p, k, a)
                # the public path, z^(k-1) through kl_constant, agrees
                got = kl_constant(PadicInt(ctx, a), monomial(ctx, k - 1))
                assert (got.residue, got.prec) == (want.residue, 40), (p, k, a)


def test_kummer_congruence_at_weight_1e5():
    # k = k' mod (p-1) p^e with k' - 1 >= e + 1: z^(k-1) - z^(k'-1) is
    # divisible by p^(e+1) on all of Z_p, so the moments agree mod p^(e+1)
    for p, e in ((3, 4), (5, 3), (5, 6), (7, 2)):
        ctx = PadicContext(p, 12, 4)
        step = (p - 1) * p ** e
        kl = KLConstantTerm(ctx, PadicInt(ctx, 2))
        for k1 in (e + 2, e + 3, e + 2 + p):
            k = k1 + step * (10 ** 5 // step)
            d = kl.moment(k - 1) - kl.moment(k1 - 1)
            assert d.residue % p ** (e + 1) == 0, (p, e, k1)


def test_kl_value_on_polynomials_claims_only_known_digits():
    from hypothesis import given
    from hypothesis import strategies as st

    # a polynomial up to degree 40 with coefficients known to N, few or no
    # digits (zeros among them); every coefficient moved by a random
    # multiple of p^prec must give the same claimed digits of kappa(f)
    @given(st.sampled_from((3, 5, 7)), st.integers(1, 6), st.data())
    def inner(p, N, data):
        ctx = PadicContext(p, N, 4)
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        ar = data.draw(st.integers(1, ctx.modulus - 1).filter(
            lambda x: x % p != 0))
        low = data.draw(st.integers(0, N - 1))
        coeffs = [PadicInt(ctx, rng.choice((0, rng.randrange(ctx.modulus))),
                           rng.choice((N, N, low)))
                  for _ in range(data.draw(st.integers(1, 41)))]
        other = [PadicInt(ctx, c.residue + rng.randrange(ctx.modulus) *
                          p ** c.prec) for c in coeffs]
        kl = KLConstantTerm(ctx, PadicInt(ctx, ar))
        got = kl.value(Polynomial(ctx, coeffs))
        want = kl.value(Polynomial(ctx, other))
        assert (got.residue - want.residue) % p ** got.prec == 0

    inner()


def test_kl_total_mass(ctx5):
    a = PadicInt(ctx5, 2)
    assert kl_constant(a, constant_fn(ctx5, 1)) == \
        reduce_rational(Fraction(-1, 2), ctx5)


def test_kl_level_cap(ctx5):
    # levels past action.M_MAX = 3 are refused before the character sum
    a = PadicInt(ctx5, 2)
    f = indicator(ctx5, 4, 1)
    with pytest.raises(PrecisionExhausted):
        kl_constant(a, f)
    # characters too, and the Eisenstein measure refuses before its
    # coefficient loop evaluates the character anywhere
    class Unevaluated(Character):
        def evaluate(self, x):
            raise AssertionError("evaluated before the level check")

    chi = Unevaluated(CyclotomicElem.zeta(ctx5, 4))
    with pytest.raises(PrecisionExhausted):
        kl_constant(a, chi)
    with pytest.raises(PrecisionExhausted):
        EisensteinMeasure(ctx5, a)(chi)

    # a step function is refused from its step level, before its table
    class UnevaluatedStep(LocallyConstant):
        def evaluate(self, x):
            raise AssertionError("evaluated before the level check")

    step = UnevaluatedStep(ctx5, 5, {1: 1})
    for f in (step, multiply(monomial(ctx5, 3), step)):
        with pytest.raises(PrecisionExhausted):
            kl_constant(a, f)
        with pytest.raises(PrecisionExhausted):
            EisensteinMeasure(ctx5, a)(f)


def _full_horner(ctx, series, zeta):
    """The series evaluated at zeta - 1 term by term, with no reduction."""
    x = zeta - 1
    acc = CyclotomicElem.zero(ctx, zeta.level)
    for c in reversed(series):
        acc = acc * x + c
    return acc


_PSI_CASES = [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)]


@pytest.mark.parametrize("p, level", _PSI_CASES)
def test_psi_reduction_matches_full_horner(p, level):
    # the series reduced modulo the torsion polynomial (1 + T)^n - 1 of a
    # root with zeta^n = 1 and evaluated at zeta - 1 equals the full-length
    # Horner evaluation, coefficient by coefficient, residues and precisions
    # alike; value_character refuses a zeta with zeta^(p^level) != 1
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from padicq.cyclotomic import phi_pm
    from padicq.measures import _torsion_horner
    from padicq.padic import padic_valuation

    def flat(x):
        return [(c.residue, c.prec) for c in x.coeffs]

    @settings(max_examples=4)
    @given(st.data())
    def check(data):
        N = data.draw(st.integers(min_value=1, max_value=3))
        ctx = PadicContext(p, N, 1)
        K = N * phi_pm(p, level)
        series = data.draw(st.lists(
            st.integers(min_value=0, max_value=ctx.modulus - 1),
            min_size=K + 1, max_size=K + 1))
        pm = p ** level
        # the reference costs K ring products per root: every root up to
        # 27 of them, one drawn root at p=7 level 2 and p=5 level 3
        roots = range(pm) if pm <= 27 else [data.draw(
            st.integers(min_value=0, max_value=pm - 1))]
        for i in roots:
            zeta = CyclotomicElem.zeta_power(ctx, level, i)
            # zeta^i has order p^(level - v_p(i)), at every precision
            n = 1 if i == 0 else p ** (level - padic_valuation(i, p))
            assert zeta ** n == 1 and (n == 1 or zeta ** (n // p) != 1)
            assert flat(_torsion_horner(series, zeta, n)) == \
                flat(_full_horner(ctx, series, zeta))
        # 1 + p known mod p^2: a p-th root of unity in every coordinate
        # precision, and no root that a single Phi_(p^l) kills
        zeta = CyclotomicElem(ctx, level, [PadicInt(ctx, 1 + p, 2)] +
                              [PadicInt(ctx, 0, 2)] * (phi_pm(p, level) - 1))
        n = p if N > 1 else 1
        assert flat(_torsion_horner(series, zeta, n)) == \
            flat(_full_horner(ctx, series, zeta))
        # value_character reduces by (1 + T)^(p^level) - 1 for a root and
        # refuses 2 zeta, whose p^level-th power is 2^(p^level) != 1 mod p
        kl = kl_constant_functional(ctx, PadicInt(ctx, 2))
        z = CyclotomicElem.zeta_power(ctx, level, roots[-1])
        assert flat(kl.value_character(z, 1)) == \
            flat(_full_horner(ctx, kl.kernel.twisted(1, K), z))
        with pytest.raises(NotRootOfUnity):
            kl.value_character(z * 2, 1)

    check()


def test_value_character_off_phi_roots_uses_full_series(ctx5):
    # 1 + p known mod p^2 is a root of unity that no Phi_{p^l} kills, but
    # zeta^p = 1 at its precision: value_character reduces the series by
    # (1 + T)^p - 1 and gets the value of the full series
    zeta = CyclotomicElem(ctx5, 1, [PadicInt(ctx5, 6, 2)] +
                          [PadicInt(ctx5, 0, 2)] * 3)
    assert zeta ** 5 == CyclotomicElem.one(ctx5, 0)
    kl = kl_constant_functional(ctx5, PadicInt(ctx5, 2))
    got = kl.value_character(zeta, 1)
    want = _full_horner(ctx5, kl.kernel.twisted(1, ctx5.N * 4), zeta)
    assert [(c.residue, c.prec) for c in got.coeffs] == \
        [(c.residue, c.prec) for c in want.coeffs]


@pytest.mark.parametrize("p", [3, 5])
def test_value_character_at_non_primitive_roots_matches_full_horner(p):
    # zeta_2^p and zeta_3^(p^2) have order p: the series is reduced by
    # (1 + T)^(p^level) - 1, not by the least torsion polynomial, and still
    # gives the full series' residues and precisions
    ctx = PadicContext(p, 4, 1)
    kl = kl_constant_functional(ctx, PadicInt(ctx, 2))
    for level, power in ((2, p), (3, p * p)):
        zeta = CyclotomicElem.zeta_power(ctx, level, power)
        assert zeta ** p == 1 and zeta != 1
        F = kl.kernel.twisted(1, ctx.N * (p - 1) * p ** (level - 1))
        assert [(c.residue, c.prec) for c in kl.value_character(zeta, 1).coeffs] \
            == [(c.residue, c.prec) for c in _full_horner(ctx, F, zeta).coeffs]


def _fourier_sum_indicator_values(kl, j, m):
    # the character sum root by root, on integer lists: F(zeta^i - 1) at
    # every p^m-th root of unity zeta^i, then the p^(2m) Fourier sum
    # sum_i zeta^(-ci) F(zeta^i - 1), which must collapse in the level-m
    # ring to a scalar divisible by p^m.  The j-th twisted series F stops at
    # degree N phi(p^m): (zeta^i - 1)^n vanishes mod p^N beyond it
    from padicq.cyclotomic import _reduce_raw, phi_pm

    ctx, p = kl.ctx, kl.ctx.p
    pm, mod = p ** m, ctx.modulus
    F = kl.kernel.twisted(j, ctx.N * phi_pm(p, m))
    # F(Z - 1) = sum_k G_k Z^k, so F(zeta^i - 1) = sum_k G_k zeta^(ik)
    G = [sum(F[n] * comb(n, k) * (-1) ** (n - k)
             for n in range(k, len(F))) % mod for k in range(len(F))]
    evals = []
    for i in range(pm):
        raw = [0] * pm
        for k, g in enumerate(G):
            raw[i * k % pm] += g
        evals.append(raw)
    out = []
    for c in range(pm):
        acc = [0] * pm
        for i in range(pm):
            for e, v in enumerate(evals[i]):
                acc[(e - c * i) % pm] += v
        acc = _reduce_raw(acc, p, m, mod)
        assert not any(acc[1:])
        out.append(PadicInt(ctx, acc[0]).divide_by_p(m))
    return out


@pytest.mark.parametrize("p, m", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
                                  (7, 1), (7, 2)])
def test_indicator_values_match_fourier_sum(p, m):
    # the Galois-trace values equal the root-by-root Fourier sum, residues
    # and precisions alike, for every class; N = 1 <= m exhausts precision
    # and must agree too
    for N in (1, 2, 5):
        ctx = PadicContext(p, N, 1)
        for a in (2, p + 2):
            kl = KLConstantTerm(ctx, PadicInt(ctx, a))
            for j in range(4):
                got = kl._indicator_values(j, m)
                want = _fourier_sum_indicator_values(kl, j, m)
                assert [(v.residue, v.prec) for v in got] == \
                    [(v.residue, v.prec) for v in want], (N, a, j)


@pytest.mark.parametrize("p, m", [(5, 2), (3, 3), (7, 2), (5, 3)])
def test_kl_step_values_match_bernoulli_distribution(p, m):
    # kappa(z^j 1_U) = L(-j, 1_U) - a^(j+1) L(-j, 1_{a^-1 U}) for
    # U = c + p^m Z_p, with L(-j, 1_U) = -p^(mj) B_{j+1}(c/p^m)/(j+1);
    # level m costs m digits
    from padicq.padic import bernoulli_polynomial

    ctx = PadicContext(p, 12, 1)
    a, F = 2, p ** m

    def L(j, c):
        x = Fraction(c % F, F)
        return -Fraction(F) ** j * bernoulli_polynomial(j + 1, x) / (j + 1)

    digits = ctx.N - m
    for j in (0, 1, 2):
        for c in range(F):
            want = reduce_rational(
                L(j, c) - Fraction(a) ** (j + 1) * L(j, pow(a, -1, F) * c),
                ctx)
            got = kl_constant(PadicInt(ctx, a),
                              multiply(monomial(ctx, j), indicator(ctx, m, c)))
            assert got.prec >= digits
            assert (got.residue - want.residue) % p ** digits == 0


def test_kl_riemann_sum_consistency(ctx5):
    # the functional is additive over a refinement of indicator classes
    a = PadicInt(ctx5, 2)
    whole = kl_constant(a, constant_fn(ctx5, 1))
    parts = [kl_constant(a, indicator(ctx5, 1, c)) for c in range(5)]
    acc = parts[0]
    for v in parts[1:]:
        acc = acc + v
    assert acc == whole
    # refine one class one more level
    refined = [kl_constant(a, indicator(ctx5, 2, 1 + 5 * i)) for i in range(5)]
    acc = refined[0]
    for v in refined[1:]:
        acc = acc + v
    assert acc == parts[1]


def test_kl_level2_refinement_with_polynomial_part(ctx5):
    # z * 1_{c+25Z} values over all classes must re-assemble the z-moment
    a = PadicInt(ctx5, 2)
    parts = [kl_constant(a, multiply(monomial(ctx5, 1), indicator(ctx5, 2, c)))
             for c in range(25)]
    acc = parts[0]
    for v in parts[1:]:
        acc = acc + v
    whole = kl_constant(a, monomial(ctx5, 1))
    assert acc == whole
    assert acc.prec >= ctx5.N - 2
    # and each level-2 class refines its level-1 parent
    for c1 in range(5):
        fine = [kl_constant(a, multiply(monomial(ctx5, 1),
                                        indicator(ctx5, 2, c1 + 5 * i)))
                for i in range(5)]
        acc = fine[0]
        for v in fine[1:]:
            acc = acc + v
        coarse = kl_constant(a, multiply(monomial(ctx5, 1),
                                         indicator(ctx5, 1, c1)))
        assert acc == coarse, c1


def test_kl_interpolation_on_a_invariant_twist(ctx5):
    # 1_units is invariant under multiplication by the unit a, so the
    # locally constant interpolation holds: values are (1 - a^k) L(1-k, f)
    a = PadicInt(ctx5, 2)
    units = LocallyConstant(ctx5, 1, [0, 1, 1, 1, 1])
    for k in (2, 4, 6, 8):
        got = kl_constant(a, multiply(monomial(ctx5, k - 1), units))
        want = reduce_rational(
            Fraction(1 - 2 ** k) * lvalue_periodic(k, units), ctx5)
        assert got == want, k
        assert got.prec >= ctx5.N - 1


def test_eisenstein_interpolation_on_a_invariant_twist(ctx5):
    # full series form of the interpolation for an a-invariant twist
    a = PadicInt(ctx5, 2)
    units = LocallyConstant(ctx5, 1, [0, 1, 1, 1, 1])
    for k in (2, 6):
        lhs = eisenstein_eval(a, multiply(monomial(ctx5, k - 1), units))
        for n in range(1, ctx5.M + 1):
            want = (1 - 2 ** k) * 2 * sum(
                d ** (k - 1) for d in range(1, n + 1)
                if n % d == 0 and d % 5 != 0)
            assert lhs.coefficient(n) == want
        assert lhs.coefficient(0) == reduce_rational(
            Fraction(1 - 2 ** k) * lvalue_periodic(k, units), ctx5)


def test_kl_binomial_values_are_series_coefficients(ctx5):
    a = PadicInt(ctx5, 2)
    kl = kl_constant_functional(ctx5, a)
    base = kl.kernel.base(8)
    for k in range(9):
        assert kl.value(binomial(ctx5, k)) == PadicInt(ctx5, base[k])


def _x_to_the_z(ctx, x):
    # x^z = sum_k (x - 1)^k C(z, k); for v(x - 1) >= 1 the terms k >= N vanish
    return MahlerSeries(ctx, [pow(x - 1, k, ctx.modulus) for k in range(ctx.N)],
                        ctx.N)


def test_kl_mahler_series_is_the_pairing_with_the_kernel(ctx5):
    a = PadicInt(ctx5, 2)
    kl = kl_constant_functional(ctx5, a)
    base = kl.kernel.base(8)
    cs = [PadicInt(ctx5, 7), 3, PadicInt(ctx5, 11, 6), 0, 1]
    v = kl.value(MahlerSeries(ctx5, cs, 9))
    assert v.prec == 6
    assert v == PadicInt(ctx5, sum(c * b for c, b in zip([7, 3, 11, 0, 1], base)))
    assert kl.value(MahlerSeries(ctx5, cs[:2], 4)).prec == 4
    assert kl.value(MahlerSeries(ctx5, [], 20)) == PadicInt(ctx5, 0)
    with pytest.raises(PrecisionExhausted):
        kl.value(MahlerSeries(ctx5, [1], 0))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_eisenstein_measure_on_x_to_the_z(p):
    # coefficient n >= 1 of mu(x^z) is 2 sum_{d|n} (x^d - a x^(ad)) to its
    # claimed precision, for x = 1 + p t off the torsion of Gm-hat
    ctx, a = PadicContext(p, 12, 8), 2
    for t in (1, 2):
        x = 1 + p * t
        g = eisenstein_eval(PadicInt(ctx, a), _x_to_the_z(ctx, x))
        for n in range(1, ctx.M + 1):
            c = g.coefficient(n)
            want = 2 * sum(x ** d - a * x ** (a * d)
                           for d in range(1, n + 1) if n % d == 0)
            assert c.prec >= ctx.N - 2 and (c.residue - want) % p ** c.prec == 0


@pytest.mark.parametrize("p", [3, 5, 7])
def test_kl_of_x_to_the_z_is_the_moment_exponential(p):
    # kappa(x^z) = A_a(x - 1) = sum_n b_n (x - 1)^n, and since x^z =
    # exp(z log x), also sum_j kappa(z^j) (log x)^j / j! with the exact
    # moments kappa(z^j) = (1 - a^(j+1)) (-B_(j+1)/(j+1)): this ties the
    # kernel series to the Bernoulli numbers, all in exact rationals
    ctx, a = PadicContext(p, 12, 8), 2
    N = ctx.N
    kl = kl_constant_functional(ctx, PadicInt(ctx, a))
    moments = [(1 - a ** (j + 1)) * -bernoulli(j + 1) / (j + 1)
               for j in range(2 * N + 1)]
    assert all(kl.moment(j) == reduce_rational(m, ctx)
               for j, m in enumerate(moments))
    for t in (1, 2):
        x = 1 + p * t
        got = kl.value(_x_to_the_z(ctx, x))
        assert got.prec == N
        assert got == PadicInt(ctx, sum(b * (x - 1) ** n for n, b in
                                        enumerate(kl.kernel.base(N))))
        # the terms n >= 3N of log x have valuation n - log_p(n) > N, and
        # (log x)^j / j! has valuation > j (p - 2)/(p - 1) >= j / 2
        log = sum(Fraction((-1) ** (n + 1) * (x - 1) ** n, n)
                  for n in range(1, 3 * N))
        term, total = Fraction(1), Fraction(0)
        for j, kappa in enumerate(moments):
            total += kappa * term
            term = term * log / (j + 1)
        assert reduce_rational(total, ctx) == got


def test_eisenstein_coefficient_rule_random_tables(ctx5):
    # independent re-derivation: coefficient n is 2 sum_{d|n} (f(d) - a f(ad))
    # with everything reduced by hand from the integer table
    from hypothesis import given
    from hypothesis import strategies as st

    mod = ctx5.modulus

    @given(st.lists(st.integers(min_value=0, max_value=mod - 1),
                    min_size=5, max_size=5),
           st.sampled_from([2, 3, 7, 12]))
    def inner(vals, ar):
        a = PadicInt(ctx5, ar)
        f = LocallyConstant(ctx5, 1, vals)
        e = eisenstein_eval(a, f)
        for n in (1, 2, 6, 12, 30):
            acc = 0
            for d in range(1, n + 1):
                if n % d == 0:
                    acc += vals[d % 5] - ar * vals[(ar * d) % 5]
            assert e.coefficient(n) == PadicInt(ctx5, 2 * acc)

    inner()


def test_low_precision_zero_caps_eisenstein_measure(ctx5):
    # f(1) - a f(a) is 0 known to 3 digits only
    f = LocallyConstant(ctx5, 1, [1, PadicInt(ctx5, 0, 3), 0, 0, 0])
    g = EisensteinMeasure(ctx5, PadicInt(ctx5, 2))(f)
    assert g.coefficient(1).prec == 3


def _pointwise_divisor_sum(w, e, zero):
    out = [zero] * len(w)
    for d in range(1, len(w)):
        t = w[d]
        if isinstance(t, PadicInt) and t.is_exact_zero():
            continue
        if e:
            t = t * d ** e
        for n in range(d, len(w), d):
            out[n] = out[n] + t
    return out


def _shapes(g):
    return [(c.residue, c.prec) if isinstance(c, PadicInt)
            else (c.level, [(x.residue, x.prec) for x in c.coeffs])
            for c in g.coeffs]


def test_eisenstein_rows_match_pointwise_loops():
    # the f(d) and f(a d) rows, read from tables and summed on residues,
    # against the per-coefficient evaluate loop and ring divisor sum
    ctx = PadicContext(5, 6, 40)
    low = PadicInt(ctx, 0, 2)
    fns = [
        monomial(ctx, 2),
        Polynomial(ctx, [3, PadicInt(ctx, 7, 4), low]),
        indicator(ctx, 2, 7),
        LocallyConstant(ctx, 1, [1, low, PadicInt(ctx, 9, 3), 0, 4]),
        multiply(Polynomial(ctx, [1, 2]), indicator(ctx, 1, 3)),
        ZeroExtendedUnits(LocallyConstant(ctx, 1, [0, 1, 2, 3, low])),
        Scaled(indicator(ctx, 1, 2), PadicInt(ctx, 3)),
        Scaled(multiply(monomial(ctx, 2), indicator(ctx, 2, 7)), PadicInt(ctx, 3)),
        indicator(ctx, 3, 11),
        LocallyConstant(ctx, 3, [PadicInt(ctx, 7 * c + 1, 1 + c % 6)
                                 for c in range(125)]),
        multiply(Polynomial(ctx, [2, low]),
                 LocallyConstant(ctx, 3, [c % 4 for c in range(125)])),
        Character(CyclotomicElem.zeta(ctx, 1)),
        multiply(monomial(ctx, 1), Character(CyclotomicElem.zeta(ctx, 1))),
        binomial(ctx, 3),
    ]
    for ar in (2, 3):
        a = PadicInt(ctx, ar)
        mu = EisensteinMeasure(ctx, a)
        for f in fns:
            w = [None] + [f.evaluate(PadicInt(ctx, d)) - a * f.evaluate(a * d)
                          for d in range(1, ctx.M + 1)]
            out = _pointwise_divisor_sum(w, 0, PadicInt(ctx, 0))
            want = QExpansion(ctx, [mu.kl.value(f)] + [2 * c for c in out[1:]])
            assert _shapes(mu(f)) == _shapes(want), (ar, f)
    # twists whose constant terms are p-integral
    twists = [indicator(ctx, 1, 0), indicator(ctx, 2, 0),
              LocallyConstant(ctx, 1, [1, low, 0, 0, 0])]
    for f in twists:
        for k in (2, 5):
            fvals = [None] + [f.evaluate(PadicInt(ctx, d))
                              for d in range(1, ctx.M + 1)]
            out = _pointwise_divisor_sum(fvals, k - 1, PadicInt(ctx, 0))
            got = eisenstein_2G_twisted(ctx, k, f)
            assert _shapes(got)[1:] == \
                [(c.residue, c.prec) for c in (2 * c for c in out[1:])]


def test_deep_steps_are_read_at_the_points_asked():
    # 1_c and z^3 1_c at level 12 = N have 5^12-entry periods: the Amice
    # and Dirac pairings, the action on a short series and the twisted
    # series read them only where they are asked, against plain integers
    ctx = PadicContext(5, 12, 8)
    F, mod, c = 5 ** 12, ctx.modulus, 3
    coeffs, g = [1, 2, 3, 4, 5, 6], eisenstein_2G(ctx, 6)
    for j in (0, 3):
        f = indicator(ctx, 12, c)
        f = multiply(monomial(ctx, 3), f) if j else f
        start = time.monotonic()
        vals, want = [n ** j if n == c else 0 for n in range(len(coeffs))], 0
        for b in coeffs:  # sum_k b_k (Delta^k f)(0)
            want += b * vals[0]
            vals = [y - x for x, y in zip(vals, vals[1:])]
        got = eval_measure(AmiceMeasure(ctx, coeffs), f)
        assert (got.residue, got.prec) == (want % mod, ctx.N)
        for x in (c, c + 5, F - 1):
            got = eval_measure(DiracMeasure(PadicInt(ctx, x)), f)
            assert (got.residue, got.prec) == (x ** j * (x == c) % mod, ctx.N)
        want = [PadicInt(ctx, n ** j * (n == c)) * a
                for n, a in enumerate(g.coeffs)]
        assert _shapes(act(f, g)) == [(v.residue, v.prec) for v in want]
        assert time.monotonic() - start < 1.0, j
    # twists: 1_0, whose constant term -F^3 B_4 / 4 is p-integral and whose
    # divisor sums see no d <= M, and 1_1 - 1_(-1), whose divisor sums see
    # d = 1 alone.  Its constant term L(-3, f) is 0, as B_4(1 - x) =
    # B_4(x); the weights of classes +-1 at level m have valuation -m, so
    # the value -1, known to 12 digits, leaves 12 - m: none at m = 12
    start = time.monotonic()
    got = eisenstein_2G_twisted(ctx, 4, indicator(ctx, 12, 0))
    const = reduce_rational(Fraction(F) ** 3 * bernoulli(4) / -4, ctx)
    assert _shapes(got) == [(const.residue, ctx.N)] + [(0, ctx.N)] * ctx.M
    for m in (12, 3):
        got = eisenstein_2G_twisted(ctx, 4, LocallyConstant(ctx, m, {1: 1, -1: -1}))
        (res, prec), rest = _shapes(got)[0], _shapes(got)[1:]
        assert prec == ctx.N - m and res % 5 ** prec == 0, m
        assert rest == [(2, ctx.N)] * ctx.M
    assert time.monotonic() - start < 1.0


def test_long_polynomials_bypass_the_sigma_cache(monkeypatch):
    # more nonzero degrees than the sigma cache holds would evict every
    # table on every call; such polynomials take the combined-table route
    from padicq.qseries import SIGMA_CACHE_SIZE

    ctx = PadicContext(5, 6, 60)
    f = Polynomial(ctx, [1] * 41)
    assert len(f.terms) > SIGMA_CACHE_SIZE
    a = PadicInt(ctx, 2)
    w = [None] + [f.evaluate(PadicInt(ctx, d)) - a * f.evaluate(a * d)
                  for d in range(1, ctx.M + 1)]
    out = _pointwise_divisor_sum(w, 0, PadicInt(ctx, 0))
    want = [(c.residue, c.prec)
            for c in [kl_constant(a, f)] + [2 * c for c in out[1:]]]
    calls = []
    monkeypatch.setattr("padicq.measures.sigma_table",
                        lambda *args: calls.append(args))
    g = eisenstein_eval(a, f)
    assert list(zip(g.res, g.prec)) == want and calls == []


def test_kl_cache_is_bounded_lru():
    from padicq import measures

    ctx = PadicContext(7, 6, 10)
    first = kl_constant_functional(ctx, PadicInt(ctx, 2))
    units = [a for a in range(3, 400) if a % 7]
    for a in units:
        kl_constant_functional(ctx, PadicInt(ctx, a))
        # a repeated key is a hit and keeps the key recent
        assert kl_constant_functional(ctx, PadicInt(ctx, 3)) is \
            kl_constant_functional(ctx, PadicInt(ctx, 3))
        assert len(measures._kl_cache) <= measures.KL_CACHE_SIZE
    assert (7, 6, 3) in measures._kl_cache
    # the least recently used key was dropped and is built afresh
    assert kl_constant_functional(ctx, PadicInt(ctx, 2)) is not first


def test_low_precision_zero_caps_kl_constant(ctx5):
    f = LocallyConstant(ctx5, 1, [1, PadicInt(ctx5, 0, 3), 0, 0, 0])
    assert kl_constant(PadicInt(ctx5, 2), f).prec == 3
    exact = LocallyConstant(ctx5, 1, [1, 0, 0, 0, 0])
    assert kl_constant(PadicInt(ctx5, 2), exact).prec == 11


# -- Kummer congruences ----------------------------------------------------------

def test_kummer_congruence(ctx5):
    a = PadicInt(ctx5, 2)
    for m in (1, 2):
        step = 4 * 5 ** (m - 1)
        for k in range(m + 1, m + 5):
            d = eisenstein_eval(a, monomial(ctx5, k - 1)) - \
                eisenstein_eval(a, monomial(ctx5, k + step - 1))
            assert all(c.valuation() >= m for c in d.coeffs), (m, k)


# -- convolution ------------------------------------------------------------------

def test_convolution_example(ctx5):
    a = PadicInt(ctx5, 2)
    F = TwoVarFn.tensor(monomial(ctx5, 1), monomial(ctx5, 1))
    nu = convolution_nu(a, F)
    assert nu.coefficient(2) == -36


def test_convolution_theorem_grid(ctx5):
    for ar in (2, 3):
        a = PadicInt(ctx5, ar)
        for s in (1, 3, 5):
            for t in range(4):
                F = TwoVarFn.tensor(monomial(ctx5, s), monomial(ctx5, t))
                assert convolution_nu(a, F) == reference_nu(ctx5, a, s, t), \
                    (ar, s, t)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_reference_nu_matches_rational_reduction(p):
    # the integer coefficients of reference_nu equal the reduction of the
    # exact rationals, residues and precisions alike, constant term included
    from padicq.qseries import sigma_table

    ctx = PadicContext(p, 12, 40)
    for ar in (2, p + 2):
        a = PadicInt(ctx, ar)
        for s in range(7):
            factor = Fraction(1 - ar ** (s + 1))
            want = [reduce_rational(factor * -bernoulli(s + 1) / (s + 1), ctx)]
            want += [reduce_rational(2 * factor * sig, ctx)
                     for sig in sigma_table(s, ctx.M,
                                            (ctx.M + 1) ** (s + 1))[1:]]
            got = reference_nu(ctx, a, s, 0).coeffs
            assert [(c.residue, c.prec) for c in got] == \
                [(c.residue, c.prec) for c in want], (ar, s)


def _sigma_and_generic_routes(a, f):
    """Coefficients n >= 1 of the Eisenstein measure on f (a polynomial,
    read off sigma tables) and on f times the level-1 all-ones table (the
    generic table_values + divisor_sum route), as (residue, prec) lists, or
    the type of the exception each raised.  The generic route's constant
    term is a level-1 character sum, stubbed out here: the sigma route's
    is compared with kl_constant instead."""
    from types import SimpleNamespace

    from padicq.zpfun import Product

    ctx = f.ctx
    generic = EisensteinMeasure(ctx, a)
    generic.kl = SimpleNamespace(value=lambda g, lc=None: PadicInt(ctx, 0))
    out = []
    for mu, g in ((EisensteinMeasure(ctx, a), f),
                  (generic, Product(f, LocallyConstant(ctx, 1, [1] * ctx.p)))):
        try:
            s = mu(g)
        except Exception as exc:
            out.append(type(exc))
            continue
        if mu is not generic:
            const = kl_constant(a, f)
            assert (s.res[0], s.prec[0]) == (const.residue, const.prec)
        out.append(list(zip(s.res[1:], s.prec[1:])))
    return out


def test_sigma_route_matches_generic_route():
    from hypothesis import given
    from hypothesis import strategies as st

    from padicq.zpfun import Product

    # polynomials with coefficients known to N, few or no digits (zeros
    # among them), products of two, and argument scalings by a unit known
    # to N or fewer digits (refused by both routes)
    @given(st.sampled_from((3, 5, 7)), st.integers(1, 12), st.integers(1, 200),
           st.data())
    def inner(p, N, M, data):
        ctx = PadicContext(p, N, M)
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        unit = st.integers(1, ctx.modulus - 1).filter(lambda x: x % p != 0)
        low = data.draw(st.integers(0, N - 1))

        def poly(top):
            return Polynomial(ctx, [
                PadicInt(ctx, rng.choice((0, rng.randrange(ctx.modulus))),
                         rng.choice((N, N, low)))
                for _ in range(data.draw(st.integers(1, top + 1)))])

        shape = data.draw(st.sampled_from(("poly", "product", "scaled")))
        if shape == "poly":
            f = poly(40)
        elif shape == "product":
            f = Product(poly(20), poly(20))
        else:
            f = Scaled(poly(40), PadicInt(ctx, data.draw(unit),
                                          data.draw(st.sampled_from((N, low)))))
        sigma, generic = _sigma_and_generic_routes(
            PadicInt(ctx, data.draw(unit)), f)
        assert sigma == generic

    inner()
    ctx = PadicContext(5, 12, 3000)
    sigma, generic = _sigma_and_generic_routes(PadicInt(ctx, 2),
                                               monomial(ctx, 3000))
    assert isinstance(sigma, list) and sigma == generic
    # a level-0 table of ring elements (a level-0 character) keeps the
    # generic route
    ctx = PadicContext(5, 6, 10)
    a, f = PadicInt(ctx, 2), monomial(ctx, 2)
    chi = Character(CyclotomicElem.one(ctx, 0))
    assert eisenstein_eval(a, Product(f, chi)) == eisenstein_eval(a, f)


def test_convolution_t0_is_plain_eisenstein(ctx5):
    a = PadicInt(ctx5, 2)
    for s in (1, 2, 3):
        F = TwoVarFn.tensor(monomial(ctx5, s), constant_fn(ctx5, 1))
        assert convolution_nu(a, F) == eisenstein_eval(a, monomial(ctx5, s))


def test_convolution_x0_constant_term_zero(ctx5):
    a = PadicInt(ctx5, 2)
    for t in (1, 2, 3):
        F = TwoVarFn.tensor(constant_fn(ctx5, 1), monomial(ctx5, t))
        nu = convolution_nu(a, F)
        assert nu.coefficient(0) == 0
        # matches theta^t applied to the k-1=0 series
        base = eisenstein_eval(a, constant_fn(ctx5, 1))
        ref = base
        for _ in range(t):
            ref = theta(ref)
        assert nu == ref


def test_convolution_empty_is_zero(ctx5):
    a = PadicInt(ctx5, 2)
    assert convolution_nu(a, TwoVarFn(ctx5, [])) == QExpansion.zero(ctx5)


def test_psi_convolution_closure_matches(ctx5):
    # on f (x) g the convolution acts by g on the Eisenstein value at f
    from padicq import psi

    a = PadicInt(ctx5, 2)
    mu = EisensteinMeasure(ctx5, a)
    f, g = monomial(ctx5, 1), monomial(ctx5, 2)
    assert psi(mu(f))(g) == convolution_nu(a, TwoVarFn.tensor(f, g))


# -- two-variable L-values -----------------------------------------------------------

def trivial_character(ctx):
    return LocallyConstant(ctx, 1, [0, 1, 1, 1, 1])


def test_two_variable_L_trivial(ctx5):
    a = PadicInt(ctx5, 2)
    triv = trivial_character(ctx5)
    L = lvalue(triv, triv, a)[0]
    # defining identity: factor * L = the measure-side constant
    factor = PadicInt(ctx5, 1) - a
    kl_side = kl_constant(a, ZeroExtendedUnits(triv))
    assert factor * L == kl_side
    # for the trivial pair the value vanishes (odd-weight boundary)
    assert L == 0 and L.prec >= ctx5.N - 1


def test_nu_character_series_trivial(ctx5):
    a = PadicInt(ctx5, 2)
    triv = trivial_character(ctx5)
    nu = lvalue(triv, triv, a)[2]
    for n in range(1, ctx5.M + 1):
        if n % 5 == 0:
            assert nu.coefficient(n) == 0
        else:
            divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
            assert nu.coefficient(n) == (1 - 2) * 2 * divisors
    assert nu.coefficient(0) == 0


def quadratic_character(ctx):
    # the order-2 character mod 5: 1 on squares, -1 on non-squares
    tab = [0] * 5
    for c in range(1, 5):
        tab[c] = 1 if c in (1, 4) else -1
    return LocallyConstant(ctx, 1, [PadicInt(ctx, v) for v in tab])


def test_two_variable_L_quadratic_consistency(ctx5):
    a = PadicInt(ctx5, 2)
    chi = quadratic_character(ctx5)
    triv = trivial_character(ctx5)
    L = lvalue(chi, triv, a)[0]
    # chi(2) = -1, so the factor is 1 + 2 = 3
    factor = PadicInt(ctx5, 3)
    kl_side = kl_constant(a, ZeroExtendedUnits(chi))
    assert factor * L == kl_side
    # cross-check the series side coefficient by coefficient
    nu = lvalue(chi, triv, a)[2]
    chival = [0, 1, -1, -1, 1]
    for n in range(1, ctx5.M + 1):
        if n % 5 == 0:
            assert nu.coefficient(n) == 0
            continue
        want = 2 * sum(chival[d % 5] - 2 * chival[(2 * d) % 5]
                       for d in range(1, n + 1) if n % d == 0)
        assert nu.coefficient(n) == want


def test_two_variable_L_euler_factor_guard(ctx5):
    # a = 6 is a unit but 1 - a = -5 is not invertible
    a = PadicInt(ctx5, 6)
    triv = trivial_character(ctx5)
    with pytest.raises(EulerFactorNotInvertible):
        lvalue(triv, triv, a)[0]


def test_two_variable_L_rejects_non_multiplicative(ctx5):
    a = PadicInt(ctx5, 2)
    doubled = LocallyConstant(ctx5, 1, [0, 2, 2, 2, 2])
    with pytest.raises(ValueError):
        lvalue(doubled, trivial_character(ctx5), a)


def _teichmuller_table(ctx, m, k):
    """omega^k on (Z/p^m)^x to all N digits, 0 on multiples of p."""
    p, mod = ctx.p, ctx.modulus
    return [PadicInt(ctx, pow(c, p ** (ctx.N - 1) * k, mod) if c % p else 0)
            for c in range(p ** m)]


def _pair_check(tab, p, m):
    """The verdict of comparing chi(1) with 1 and chi(uv) with chi(u) chi(v)
    for all pairs of units, each modulo the least precision it involves."""
    pm = p ** m
    units = [u for u in range(pm) if u % p]
    if (tab[1 % pm].residue - 1) % p ** tab[1 % pm].prec:
        return False
    return all((w.residue - x.residue * y.residue)
               % p ** min(w.prec, x.prec, y.prec) == 0
               for u in units for v in units
               for w, x, y in [(tab[u * v % pm], tab[u], tab[v])])


def _walk_verdict(ctx, m, tab):
    try:
        return validate_character(LocallyConstant(ctx, m, tab), m) == tab
    except ValueError:
        return False


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("m", [1, 2])
def test_character_walk_agrees_with_the_pair_check(p, m):
    # Teichmuller powers, and each moved by 1, p or p^(N-1) at chi(1), at
    # another unit class and at a multiple of p (where nothing is checked)
    ctx, rng = PadicContext(p, 4, 1), random.Random(p * 10 + m)
    verdicts = []
    for k in (0, 1, p - 2):
        tab = _teichmuller_table(ctx, m, k)
        tables = [tab]
        for c in (1, rng.choice([u for u in range(2, p ** m) if u % p]),
                  rng.randrange(0, p ** m, p)):
            for d in (1, p, p ** (ctx.N - 1)):
                moved = list(tab)
                moved[c] = tab[c] + d
                tables.append(moved)
        for t in tables:
            verdicts.append(_walk_verdict(ctx, m, t))
            assert verdicts[-1] == _pair_check(t, p, m), (k, t)
    # chi(g^i) = (1 + p)^i for i < phi(p^m): multiplicative except where
    # the powers of g wrap around, as (1 + p)^phi(p^m) != 1 mod p^N
    g, x = unit_group_generator(p), PadicInt(ctx, 1)
    cycle = [PadicInt(ctx, 0)] * p ** m
    for i in range((p - 1) * p ** (m - 1)):
        cycle[pow(g, i, p ** m)], x = x, x * (1 + p)
    assert not _walk_verdict(ctx, m, cycle) and not _pair_check(cycle, p, m)
    assert verdicts.count(True) == 12 and verdicts.count(False) == 18


def test_character_walk_makes_phi_products(monkeypatch):
    # p = 31, m = 2: phi(p^m) = 930 products along the generator, where
    # the check of all unit pairs made 930^2 = 864 900
    ctx = PadicContext(31, 3, 1)
    tab = _teichmuller_table(ctx, 2, 1)
    calls, real = [], PadicInt.__mul__
    monkeypatch.setattr(PadicInt, "__mul__",
                        lambda x, y: calls.append(1) or real(x, y))
    assert validate_character(LocallyConstant(ctx, 2, tab), 2) == tab
    assert 0 < len(calls) <= 930 + 1


def test_character_walk_proves_multiplicativity_to_the_least_precision():
    # chi(g) known to e = 2 digits puts every step of the walk mod p^2, so
    # a table that is multiplicative only mod p^2 passes: chi(g^3) moved by
    # p^2 at full precision.  The pair check compares chi(g^5) chi(g^4)
    # with chi(g^3) to all N digits and rejects it; the verdicts can differ
    # only on such mixed-precision tables
    ctx, e = PadicContext(7, 4, 1), 2
    g = unit_group_generator(7)
    tab = _teichmuller_table(ctx, 1, 1)
    tab[g] = PadicInt(ctx, tab[g].residue, e)
    tab[g ** 3 % 7] = tab[g ** 3 % 7] + 7 ** e
    assert _walk_verdict(ctx, 1, tab)
    assert not _pair_check(tab, 7, 1)
    assert _pair_check([PadicInt(ctx, v.residue, e) for v in tab], 7, 1)


def hensel_sqrt_minus_one(ctx):
    # lift 2 (a square root of -1 mod 5) to full precision by Newton steps
    x = 2
    for _ in range(6):
        x = (x - (x * x + 1) * pow(2 * x, -1, ctx.modulus)) % ctx.modulus
    assert (x * x + 1) % ctx.modulus == 0
    return x


def quartic_character(ctx):
    # chi(2) = i with i = 2 mod 5; chi(2^j) = i^j makes a multiplicative table
    i = hensel_sqrt_minus_one(ctx)
    tab = [0] * 5
    val = 1
    g = 1
    for _ in range(4):
        tab[g] = val
        g = (g * 2) % 5
        val = (val * i) % ctx.modulus
    return LocallyConstant(ctx, 1, [PadicInt(ctx, v) for v in tab])


def test_two_variable_L_quartic_nonzero(ctx5):
    # an odd character: the L-value is a genuine nonzero p-adic number
    a = PadicInt(ctx5, 2)
    chi = quartic_character(ctx5)
    triv = trivial_character(ctx5)
    i = hensel_sqrt_minus_one(ctx5)
    L = lvalue(chi, triv, a)[0]
    factor = PadicInt(ctx5, 1 - 2 * i)
    assert factor.is_unit()
    kl_side = kl_constant(a, ZeroExtendedUnits(chi))
    assert factor * L == kl_side
    assert L.residue != 0
    # series side against independent divisor enumeration over the table
    nu = lvalue(chi, triv, a)[2]
    tab = [0] * 5
    g, val = 1, 1
    for _ in range(4):
        tab[g] = val
        g = (g * 2) % 5
        val = (val * i) % ctx5.modulus
    for n in range(1, ctx5.M + 1):
        if n % 5 == 0:
            assert nu.coefficient(n) == 0
            continue
        want = 2 * sum(tab[d % 5] - 2 * tab[(2 * d) % 5]
                       for d in range(1, n + 1) if n % d == 0)
        assert nu.coefficient(n) == want


def wild_character(ctx):
    # conductor-25 character of order 5: chi(2^j mod 25) = zeta_5^j
    # (2 generates (Z/25)^x, which has order 20)
    z = CyclotomicElem.zeta(ctx, 1)
    tab = [CyclotomicElem.zero(ctx, 1)] * 25
    g = 1
    for j in range(20):
        tab[g] = z ** (j % 5)
        g = (g * 2) % 25
    return LocallyConstant(ctx, 2, tab)


def test_two_variable_L_wild_character(ctx5):
    # cyclotomic-valued characters drive the level-2 path and the Hensel
    # inversion of the Euler-type factor
    a = PadicInt(ctx5, 2)
    chi = wild_character(ctx5)
    triv = trivial_character(ctx5)
    z = CyclotomicElem.zeta(ctx5, 1)
    L = lvalue(chi, triv, a)[0]
    factor = CyclotomicElem.one(ctx5, 0) - 2 * z  # 1 - chi(2) * 2
    kl_side = kl_constant(a, ZeroExtendedUnits(chi))
    assert factor * L == kl_side
    # series side against the table, coefficient by coefficient
    nu = lvalue(chi, triv, a)[2]
    tabfn = chi
    for n in (1, 2, 3, 4, 6, 7, 12, 23):
        want = CyclotomicElem.zero(ctx5, 1)
        for d in range(1, n + 1):
            if n % d == 0:
                want = want + (tabfn.evaluate(PadicInt(ctx5, d))
                               - 2 * tabfn.evaluate(PadicInt(ctx5, 2 * d)))
        assert nu.coefficient(n) == 2 * want, n


# -- linear combinations and descriptors ------------------------------------------

def test_linear_measure(ctx5):
    from padicq import LinearMeasure

    d1 = DiracMeasure(PadicInt(ctx5, 1))
    d2 = DiracMeasure(PadicInt(ctx5, 3))
    mu = LinearMeasure(ctx5, [(2, d1), (-1, d2)])
    f = monomial(ctx5, 2)
    assert eval_measure(mu, f) == 2 * 1 - 9
    z = CyclotomicElem.zeta(ctx5, 1)
    assert eval_at_character(mu, z) == 2 * z - z ** 3
    am = mu.amice(4)
    for k in range(5):
        assert am[k] == 2 * comb(1, k) - comb(3, k)


def test_measure_from_json(ctx5):
    from padicq import measure_from_json

    mu = measure_from_json(ctx5, '{"kind":"dirac","c":1}')
    assert eval_measure(mu, monomial(ctx5, 3)) == 1
    mu = measure_from_json(ctx5, {"kind": "amice", "coeffs": [0, 1]})
    assert eval_measure(mu, monomial(ctx5, 2)) == 1
    mu = measure_from_json(ctx5, {"kind": "eisenstein", "a": 2})
    assert isinstance(mu, EisensteinMeasure)
    assert eval_measure(mu, monomial(ctx5, 1)).coefficient(1) == \
        (1 - 4) * 2
    mu = measure_from_json(
        ctx5, {"kind": "linear",
               "terms": [[1, {"kind": "dirac", "c": 0}],
                         [3, {"kind": "dirac", "c": 2}]]})
    assert eval_measure(mu, monomial(ctx5, 1)) == 6
    with pytest.raises(ValueError):
        measure_from_json(ctx5, {"kind": "bogus"})


def _kernel_from_comb(r, K, mod):
    """A_r(T) mod (mod, T^(K+1)) with one math.comb per coefficient of
    P = ((1+T)^r - 1)/T and Q = ((1+T)^r - 1 - rT)/T^2."""
    P = [comb(r, i + 1) % mod for i in range(min(r - 1, K) + 1)]
    Q = [comb(r, i + 2) % mod for i in range(min(max(r - 2, 0), K) + 1)]
    inv0 = pow(P[0], -1, mod)
    R = [inv0] + [0] * K
    for n in range(1, K + 1):
        R[n] = -inv0 * sum(P[i] * R[n - i]
                           for i in range(1, min(n, len(P) - 1) + 1)) % mod
    return [-sum(Q[i] * R[n - i] for i in range(min(n, len(Q) - 1) + 1)) % mod
            for n in range(K + 1)]


@pytest.mark.parametrize("p,N", [(5, 3), (7, 2), (5, 12)])
def test_kernel_binomials_match_math_comb(p, N):
    from padicq.measures import RegularizedKernel

    ctx = PadicContext(p, N, 10)
    for r in (1, 2, 3, p ** N - 1):
        for K in (0, 1, 2, 5, 17, 60):
            got = RegularizedKernel(ctx, PadicInt(ctx, r)).base(K)
            assert got == _kernel_from_comb(r, K, ctx.modulus), (r, K)


def test_kernel_grown_in_any_order_matches_math_comb():
    # one kernel per (p, N, r), asked for prefixes growing and shrinking
    # at random: each answer equals a fresh two-step computation
    from padicq.measures import RegularizedKernel

    rng = random.Random(33)
    for p in (3, 5, 7, 101):
        for N in (1, 2, 12, 40):
            ctx, mod = PadicContext(p, N, 10), p ** N
            # the kernel reads a.residue, so r is taken mod p^N
            for r in sorted({r % mod for r in (1, 2, 3, p + 2, mod - 1)}):
                if r % p == 0:
                    continue
                kernel = RegularizedKernel(ctx, PadicInt(ctx, r))
                for K in [rng.randrange(70) for _ in range(6)] + [0, 80, 3]:
                    assert kernel.base(K) == _kernel_from_comb(r, K, mod), \
                        (p, N, r, K)


def test_moments_in_any_order_equal_the_full_n0_pairing():
    # Delta^n(z^j)(0) = 0 for n > j, so moment(j) needs min(n0, j + 1)
    # kernel terms; with weights kept between calls in a random order of j,
    # it equals the pairing over all n0 point weights
    from padicq.measures import RegularizedKernel

    rng = random.Random(34)
    for p in (3, 5, 7, 11, 101):
        for N in (1, 2, 12):
            ctx, mod, n0 = PadicContext(p, N, 4), p ** N, _mahler_cutoff(p, N)
            js = set(range(min(n0 + 3, 100))) | {n0 - 1, n0, n0 + 1, 1001}
            if n0 > 100:
                js |= {rng.randrange(100, 1002) for _ in range(8)}
            for a in sorted({2, mod - 1, (mod + 1) // 2}):
                kl = KLConstantTerm(ctx, PadicInt(ctx, a))
                w = _list_point_weights(
                    RegularizedKernel(ctx, PadicInt(ctx, a)).base(n0 - 1), mod)
                for j in sorted(js, key=lambda _: rng.random()):
                    want = sum(x * pow(i, j, mod) for i, x in enumerate(w)) % mod
                    got = kl.moment(j)
                    assert (got.residue, got.prec) == (want, N), (p, N, a, j)


def test_a_moment_sweep_rebuilds_the_weights_log_times(monkeypatch):
    # each rebuild at least doubles the weights, up to n0 = 202 at p = 101,
    # N = 2, so j = 0..399 builds them 9 times, not once per length
    import padicq.measures as measures

    built, real = [], measures._point_weights
    monkeypatch.setattr(measures, "_point_weights",
                        lambda b, mod: built.append(len(b)) or real(b, mod))
    ctx = PadicContext(101, 2, 4)
    kl = KLConstantTerm(ctx, PadicInt(ctx, 2))
    for j in range(400):
        kl.moment(j)
    assert built == [1, 2, 4, 8, 16, 32, 64, 128, 202]


def test_moments_past_the_weight_cap_are_refused_before_any_work(monkeypatch):
    # L = min(n0, j + 1) point weights cost about L^3: at p = 10007 the
    # moment of z^99999 needs L = 100000 and is refused with nothing built;
    # under the cap a sweep is never refused, the doubling stops at the cap
    # and the values are those of the full n0 pairing
    import padicq.measures as measures

    built, real = [], measures._point_weights
    monkeypatch.setattr(measures, "_point_weights",
                        lambda b, mod: built.append(len(b)) or real(b, mod))
    ctx = PadicContext(10007, 12, 4)
    kl = KLConstantTerm(ctx, PadicInt(ctx, 5))
    with pytest.raises(ConfigError, match="L = min.* = 100000 point weights, "
                                          "over the cap of 2500"):
        kl.moment(99999)
    assert built == [] and kl.kernel._base == []

    from padicq.measures import RegularizedKernel

    monkeypatch.setattr(measures, "POINT_WEIGHTS_CAP", 100)
    ctx, mod = PadicContext(101, 2, 4), 101 ** 2  # n0 = 202
    kl = KLConstantTerm(ctx, PadicInt(ctx, 2))
    w = _list_point_weights(RegularizedKernel(ctx, PadicInt(ctx, 2)).base(201), mod)
    for j in range(100):
        got = kl.moment(j)
        want = sum(x * pow(i, j, mod) for i, x in enumerate(w)) % mod
        assert (got.residue, got.prec) == (want, 2), j
    assert built == [1, 2, 4, 8, 16, 32, 64, 100]
    with pytest.raises(ConfigError, match="= 101 point weights"):
        kl.moment(100)


def test_twisted_series_prefixes_are_shorter_twists():
    # coefficient n of ((1+T) d/dT)^j A_a depends only on coefficients
    # n..n + j of A_a, so one twist to T-degree K holds every shorter one;
    # each K' is twisted on a fresh kernel, from a base of its own length
    from padicq.cyclotomic import phi_pm
    from padicq.measures import RegularizedKernel

    for p in (3, 5, 7):
        ctx = PadicContext(p, 4, 10)
        K = ctx.N * phi_pm(p, 2)
        for j in (0, 1, 7, 300):
            full = RegularizedKernel(ctx, PadicInt(ctx, 2)).twisted(j, K)
            for k in (0, 1, ctx.N * (p - 1), K - 1):
                got = RegularizedKernel(ctx, PadicInt(ctx, 2)).twisted(j, k)
                assert got == full[:k + 1], (p, j, k)
