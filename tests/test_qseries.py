import contextlib
import io
import json
import random
from fractions import Fraction
from math import comb, isqrt
from operator import mul

import pytest

from padicq import (CyclotomicElem, LocallyConstant, NotPIntegral, PadicContext, PadicInt,
                    QExpansion, ZeroExtendedUnits, bernoulli, constant_fn,
                    divisor_sum, eisenstein_2G, eisenstein_2G_twisted, indicator,
                    lvalue_periodic, multiply, reduce_rational, scale_argument,
                    series_to_json, sigma_table, theta, u_p, v_p)
from padicq.cli import main
from padicq.qseries import _convolve
from padicq.verify import reference_nu


def brute_sigma(e, n):
    return sum(d ** e for d in range(1, n + 1) if n % d == 0)


def q_power(ctx, n, coeff=1):
    coeffs = [0] * n + [coeff]
    return QExpansion(ctx, coeffs)


def test_theta_examples(ctx5):
    assert theta(q_power(ctx5, 1)) == q_power(ctx5, 1)
    assert theta(QExpansion(ctx5, [7])) == QExpansion.zero(ctx5)
    assert theta(theta(q_power(ctx5, 3))) == q_power(ctx5, 3, 9)


def test_coefficient_index_must_lie_in_0_to_qprec():
    # a negative index once read a flat list from its end: coefficient(-1)
    # of a scalar series returned a_M
    from padicq import act_character
    ctx = PadicContext(5, 4, 6)
    g = QExpansion(ctx, [1, 2, 3, 4, 5, 6, 7])
    z = CyclotomicElem.zeta(ctx, 1)
    for s in (g, act_character(z, g)):
        assert s.coefficient(6) == s.coeffs[6]
        for n in (-1, 7):
            with pytest.raises(IndexError):
                s.coefficient(n)


def test_up_vp_examples():
    ctx = PadicContext(5, 12, 12)
    g = q_power(ctx, 5) + QExpansion(ctx, [0] * 10 + [2, 0]) + q_power(ctx, 3)
    u = u_p(g)
    assert u.qprec == 2
    assert u.coefficient(1) == 1 and u.coefficient(2) == 2
    assert u.coefficient(0) == 0
    assert v_p(q_power(ctx, 1)) == q_power(ctx, 5)


def test_up_vp_section(ctx5):
    rng = random.Random(3)
    g = QExpansion(ctx5, [rng.randrange(ctx5.modulus)
                          for _ in range(ctx5.M + 1)])
    back = u_p(v_p(g))
    assert back.qprec == ctx5.M // 5
    for n in range(back.qprec + 1):
        assert back.coefficient(n) == g.coefficient(n)
    proj = v_p(u_p(g))
    for n in range(proj.qprec + 1):
        want = g.coefficient(n) if n % 5 == 0 else PadicInt(ctx5, 0)
        assert proj.coefficient(n) == want


def test_eisenstein_k2(ctx5):
    g = eisenstein_2G(ctx5, 2)
    assert g.coefficient(0) == reduce_rational(Fraction(-1, 12), ctx5)
    # sigma_1 = 1, 3, 4, 7 by direct enumeration
    for n, sig in [(1, 1), (2, 3), (3, 4), (4, 7)]:
        assert brute_sigma(1, n) == sig
        assert g.coefficient(n) == 2 * sig
    for n in range(1, ctx5.M + 1):
        assert g.coefficient(n) == 2 * brute_sigma(1, n)


def test_eisenstein_k4_needs_good_prime(ctx7):
    # at p = 7 the constant 1/120 is p-integral; sigma_3 = 1, 9, 28, 73
    g = eisenstein_2G(ctx7, 4)
    assert g.coefficient(0) == reduce_rational(Fraction(1, 120), ctx7)
    for n, sig in [(1, 1), (2, 9), (3, 28), (4, 73)]:
        assert brute_sigma(3, n) == sig
        assert g.coefficient(n) == 2 * sig


def test_eisenstein_pole_cases(ctx5):
    with pytest.raises(NotPIntegral):
        eisenstein_2G(ctx5, 4)
    with pytest.raises(NotPIntegral):
        eisenstein_2G(ctx5, 8)


def test_eisenstein_odd_is_zero(ctx5):
    assert eisenstein_2G(ctx5, 3) == QExpansion.zero(ctx5)
    assert eisenstein_2G(ctx5, 7) == QExpansion.zero(ctx5)


def test_eisenstein_k1_rejected(ctx5):
    with pytest.raises(ValueError):
        eisenstein_2G(ctx5, 1)


def test_eisenstein_scaled_cancels_pole(ctx5):
    # (1 - a^4) is divisible by 5 for any unit a, cancelling the 5 in 1/120
    g = reference_nu(ctx5, PadicInt(ctx5, 2), 3, 0)
    assert g.coefficient(0) == reduce_rational(
        Fraction(1 - 2 ** 4) * Fraction(1, 120), ctx5)
    assert g.coefficient(2) == (1 - 16) * 2 * 9


@pytest.mark.parametrize("p", [3, 5, 7])
def test_eisenstein_scaled_matches_rational_reduction(p):
    # every coefficient, residue and precision, equals the exact rational
    # -B_k/k or 2 sigma_(k-1)(n) reduced mod p^N, and the pole at
    # (p-1) | k is kept
    ctx = PadicContext(p, 12, 40)
    for k in range(2, 3 * (p - 1) + 3, 2):
        try:
            want = [reduce_rational(-bernoulli(k) / k, ctx)]
        except NotPIntegral:
            with pytest.raises(NotPIntegral):
                eisenstein_2G(ctx, k)
            continue
        want += [reduce_rational(2 * brute_sigma(k - 1, n), ctx)
                 for n in range(1, ctx.M + 1)]
        got = eisenstein_2G(ctx, k)
        assert [(c.residue, c.prec) for c in got.coeffs] == \
            [(c.residue, c.prec) for c in want], k


def test_twisted_trivial_equals_plain(ctx5):
    one = constant_fn(ctx5, 1)
    assert eisenstein_2G_twisted(ctx5, 2, one) == eisenstein_2G(ctx5, 2)


def test_twisted_unit_class_constant_is_a_pole(ctx5):
    # L(-1, 1_{1+5Z}) = -1/60 has a genuine 5 in the denominator, so the
    # bare twisted series cannot be formed; the q^6 arithmetic of the
    # coefficient rule (divisors 1,2,3,6, twist picks 1 and 6) still holds
    f = indicator(ctx5, 1, 1)
    assert lvalue_periodic(2, f) == Fraction(-1, 60)
    with pytest.raises(NotPIntegral):
        eisenstein_2G_twisted(ctx5, 2, f)
    assert 2 * sum(d for d in (1, 2, 3, 6) if d % 5 == 1) == 14


def test_twisted_coefficients_with_integral_constant(ctx5):
    # the twist supported on 0 mod 5 has constant -5/12 and is computable
    f = indicator(ctx5, 1, 0)
    g = eisenstein_2G_twisted(ctx5, 2, f)
    assert g.coefficient(0) == reduce_rational(Fraction(-5, 12), ctx5)
    for n in range(1, ctx5.M + 1):
        want = 2 * sum(d for d in range(1, n + 1) if n % d == 0 and d % 5 == 0)
        assert g.coefficient(n) == want


def test_twisted_zero(ctx5):
    z = LocallyConstant(ctx5, 1, [0] * 5)
    assert eisenstein_2G_twisted(ctx5, 2, z) == QExpansion.zero(ctx5)


def test_lvalue_trivial_is_zeta(ctx5):
    one = constant_fn(ctx5, 1)
    assert lvalue_periodic(2, one) == Fraction(-1, 12)
    assert lvalue_periodic(4, one) == Fraction(1, 120)
    for k in range(1, 10):
        assert lvalue_periodic(k, one) == -bernoulli(k) / k


def test_lvalue_indicator_of_zero(ctx5):
    f = indicator(ctx5, 1, 0)
    assert lvalue_periodic(2, f) == Fraction(-5, 12)


def test_lvalue_level_refinement_consistent(ctx5):
    # the periodic construction must not depend on the level it is read at
    f = indicator(ctx5, 1, 2)
    lifted = LocallyConstant(ctx5, 2, [1 if c % 5 == 2 else 0
                                       for c in range(25)])
    for k in range(1, 8):
        assert lvalue_periodic(k, f) == lvalue_periodic(k, lifted)


def test_lvalue_units_removes_euler_factor(ctx5):
    f = LocallyConstant(ctx5, 1, [0, 1, 1, 1, 1])
    for k in range(2, 9, 2):
        assert lvalue_periodic(k, f) == -(1 - Fraction(5) ** (k - 1)) \
            * bernoulli(k) / k


def _valuation(x, p):
    x, v = Fraction(x), 0
    for part, sign in ((x.numerator, 1), (x.denominator, -1)):
        while part % p == 0:
            part, v = part // p, v + sign
    return v


def _exact_twisted_constant(p, N, k, m, entries):
    """L(1-k, f) = -F^(k-1)/k sum_c x_c B_k(c/F), F = p^m, for f(c) = x_c
    known to e_c digits, entries {c: (x_c, e_c)} over the classes where f
    is not an exact 0; and the digits the rule claims: the least
    e_c + v_p(w_c) over those entries with w_c != 0, kept in 0..N."""
    F, total, digits = p ** m, Fraction(0), N
    for c, (x, e) in entries.items():
        t = Fraction(c, F)
        w = -Fraction(F) ** (k - 1) / k * sum(
            comb(k, j) * bernoulli(j) * t ** (k - j) for j in range(k + 1))
        total += x * w
        if w:
            digits = min(digits, e + _valuation(w, p))
    return total, max(digits, 0)


def test_twisted_constants_against_exact_rationals():
    # each twist with the integers it is meant to hold, class by class:
    # negative and p-divisible entries, entries known to fewer than N
    # digits, zero-extended constants, a product and a scaling
    ctx = PadicContext(5, 12, 4)
    low, low_zero = PadicInt(ctx, 5, 4), PadicInt(ctx, 0, 6)
    units = {c: (1, 12) for c in range(1, 5)}
    cases = [
        (LocallyConstant(ctx, 1, {1: -5}), 1, {1: (-5, 12)}),
        (multiply(constant_fn(ctx, -5), indicator(ctx, 1, 1)), 1, {1: (-5, 12)}),
        # exact zeros on the unit classes, whose weights would cap the digits
        (multiply(constant_fn(ctx, -3), indicator(ctx, 2, 5)), 2, {5: (-3, 12)}),
        (LocallyConstant(ctx, 1, {2: 25, -2: -50, 0: -7}), 1,
         {2: (25, 12), 3: (-50, 12), 0: (-7, 12)}),
        (LocallyConstant(ctx, 2, {7: -125, 18: 10, 5: 3}), 2,
         {7: (-125, 12), 18: (10, 12), 5: (3, 12)}),
        (LocallyConstant(ctx, 1, [1, low, 0, 0, 0]), 1, {0: (1, 12), 1: (5, 4)}),
        (LocallyConstant(ctx, 1, [1, low_zero, 0, 0, 0]), 1,
         {0: (1, 12), 1: (0, 6)}),
        (ZeroExtendedUnits(constant_fn(ctx, 1)), 1, units),
        (ZeroExtendedUnits(constant_fn(ctx, -3)), 1,
         {c: (-3, 12) for c in units}),
        # 1_3(-2 z) is 1 on z = 11 mod 25, times 50
        (scale_argument(LocallyConstant(ctx, 2, {3: 50}), PadicInt(ctx, -2)),
         2, {11: (50, 12)}),
    ]
    for f, m, entries in cases:
        for k in (2, 4, 6):
            exact, digits = _exact_twisted_constant(5, ctx.N, k, m, entries)
            if exact.denominator % 5 == 0:
                with pytest.raises(NotPIntegral):
                    eisenstein_2G_twisted(ctx, k, f)
                continue
            got = eisenstein_2G_twisted(ctx, k, f).coefficient(0)
            assert got.prec == digits, (entries, k)
            assert (exact.numerator - got.residue * exact.denominator) \
                % 5 ** digits == 0, (entries, k)
            diff = lvalue_periodic(k, f) - exact  # the residues' L-value
            assert diff == 0 or _valuation(diff, 5) >= digits, (entries, k)
    # the unit-class weights of the constant 1 zero-extended have valuation
    # -1 at k = 2, though their sum, L(-1, 1_(Z_5^x)) = 1/3, has none
    got = eisenstein_2G_twisted(ctx, 2, ZeroExtendedUnits(constant_fn(ctx, 1)))
    assert (got.coefficient(0).residue, got.coefficient(0).prec) == (16276042, 11)
    # -5 1_(1+5Z_5) at k = 4: the weight 29/120 of class 1 has valuation -1
    twist = {"kind": "product", "factors": [
        {"kind": "constant", "value": -5},
        {"kind": "indicator", "level": 1, "class": 1}]}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--p", "5", "--M", "2", "eisenstein", "--k", "4",
                     "--twist", json.dumps(twist)]) == 0
    obj = json.loads(out.getvalue())
    assert (obj["coeffs"][0], obj["prec"][0]) == ("2034504", 11)


def test_phi_identity(ctx5):
    # the brute-force 2 sum_{dd'=n} d^k d'^r is symmetric in k, r and equals
    # 2 n^r sigma_{k-r}(n) for k >= r, read off the sigma table mod p^N
    M, mod = ctx5.M, ctx5.modulus
    for k in range(1, 9):
        for r in range(1, 9):
            lo, hi = sorted((k, r))
            sig = sigma_table(hi - lo, M, mod)
            for n in range(1, M + 1):
                rhs = 2 * sum(d ** k * (n // d) ** r
                              for d in range(1, n + 1) if n % d == 0)
                assert PadicInt(ctx5, rhs) == PadicInt(ctx5, 2 * n ** lo * sig[n])
    # the concrete instance from the identity: n=6, k=3, r=1
    assert 6 * 2 * brute_sigma(2, 6) == 600
    assert 2 * sum(d ** 3 * (6 // d) for d in (1, 2, 3, 6)) == 600


def test_sigma_table_against_brute_force():
    # a modulus above every sigma_e(n), n <= M, gives the exact integers
    for e in range(0, 6):
        tab = sigma_table(e, 40, 41 ** (e + 1))
        for n in range(1, 41):
            assert tab[n] == brute_sigma(e, n)
    # the sieve up to M = 3000, past the prime squares up to 53^2 and the
    # prime powers 2^11 and 3^7, against d^e added to each multiple of d
    for e in (0, 1, 2, 13, 25):
        powers = [d ** e for d in range(3001)]
        want = [0] * 3001
        for d in range(1, 3001):
            for n in range(d, 3001, d):
                want[n] += powers[d]
        for M in (0, 1, 2, 3000):
            assert sigma_table(e, M, 3001 ** (e + 1)) == tuple(want[:M + 1]), \
                (e, M)
    # an lru_cache: bench/tracer.py reads its hit ratio
    hits = sigma_table.cache_info().hits
    big = 3001 ** 26
    assert sigma_table(25, 3000, big) is sigma_table(25, 3000, big)
    assert sigma_table.cache_info().hits == hits + 2


def test_sigma_table_mod_pN_matches_brute_force():
    from hypothesis import given
    from hypothesis import strategies as st

    # every entry is sigma_e(n) mod p^N, reduced below the modulus
    @given(st.sampled_from((3, 5, 7)), st.integers(1, 12),
           st.integers(0, 60), st.integers(0, 200))
    def inner(p, N, e, M):
        mod = p ** N
        tab = sigma_table(e, M, mod)
        assert len(tab) == M + 1 and tab[0] == 0
        for n in range(1, M + 1):
            assert tab[n] == brute_sigma(e, n) % mod, (n, e, mod)

    inner()


def test_sigma_cache_is_bounded():
    from padicq.qseries import SIGMA_CACHE_SIZE

    for e in range(1000, 1100):
        sigma_table(e, 3000, 5 ** 12)
        assert sigma_table.cache_info().currsize <= SIGMA_CACHE_SIZE
    assert sigma_table.cache_info().maxsize == SIGMA_CACHE_SIZE


def test_divisor_sum_scalar_types(ctx5):
    # flat weights come back flat and reduced, each sum known to N digits ...
    res = [0] + [d % 3 for d in range(1, 21)]
    out, out_prec = divisor_sum(ctx5, (res, [12] * 21), 2)
    for n in range(1, 21):
        want = sum(d ** 2 * (d % 3) for d in range(1, n + 1) if n % d == 0)
        assert out[n] == want and out_prec[n] == 12
    # ... unless some divisor's weight is known to fewer
    prec = [12] * 21
    prec[4] = 3
    got, got_prec = divisor_sum(ctx5, (res, prec), 2)
    for n in range(1, 21):
        want = sum(d ** 2 * (d % 3) for d in range(1, n + 1) if n % d == 0)
        assert got_prec[n] == (3 if n % 4 == 0 else 12)
        assert got[n] == want % 5 ** got_prec[n]


def test_low_precision_zero_caps_twisted_series(ctx5):
    # f(1) is 0 known to 3 digits, and d = 1 enters every coefficient
    f = LocallyConstant(ctx5, 1, [1, PadicInt(ctx5, 0, 3), 0, 0, 0])
    g = eisenstein_2G_twisted(ctx5, 2, f)
    assert all(g.coefficient(n).prec == 3 for n in range(1, ctx5.M + 1))
    assert g.coefficient(1).residue == 0
    # f(1) enters the constant term with weight -5 B_2(1/5)/2 = -1/60, of
    # valuation -1, so the constant term is known to 3 - 1 digits, and the
    # lift's entry 125, known to 12, leaves it 11
    lift = eisenstein_2G_twisted(
        ctx5, 2, LocallyConstant(ctx5, 1, [1, 125, 0, 0, 0]))
    assert g.coefficient(0).prec == 2
    assert (g.coefficient(0).residue - lift.coefficient(0).residue) % 25 == 0
    assert lift.coefficient(0).prec == 11


def test_low_precision_zero_caps_product(ctx5):
    g = QExpansion(ctx5, [PadicInt(ctx5, 0, 3), 1, 0, 0, 0])
    h = g * QExpansion(ctx5, [1] * 5)
    assert h.coefficient(0).prec == 3
    q = QExpansion(ctx5, [0, 1])
    assert (q * h).coefficient(1).prec == 3
    assert (q * QExpansion(ctx5, [1])).coefficient(0).prec == 12


def schoolbook_product(f, g):
    """(residue, prec) of each coefficient of f * g, on plain ints: a term
    with f_i zero to full precision is dropped, every other term caps the
    precision at min(prec f_i, prec g_(n-i))."""
    ctx = f.ctx
    qp = min(f.qprec, g.qprec)
    fc, gc = f.coeffs, g.coeffs
    out = []
    for n in range(qp + 1):
        acc, prec = 0, ctx.N
        for i in range(n + 1):
            a, b = fc[i], gc[n - i]
            if a.residue == 0 and a.prec == ctx.N:
                continue
            acc += a.residue * b.residue
            prec = min(prec, a.prec, b.prec)
        out.append((acc % ctx.p ** prec, prec))
    return out


def test_product_matches_schoolbook():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=200)
    @given(st.data())
    def inner(data):
        p = data.draw(st.sampled_from([3, 5, 7]))
        N = data.draw(st.integers(1, 12))
        M = data.draw(st.integers(1, 25))
        ctx = PadicContext(p, N, M)
        residue = st.integers(0, p ** N - 1)
        coeff = st.one_of(
            st.just((0, N)),                                  # exact zero
            st.tuples(st.just(0), st.integers(0, N - 1)),     # low-prec zero
            st.tuples(residue, st.integers(0, N - 1)),        # low-prec value
            st.tuples(residue, st.just(N)))

        def series():
            qp = data.draw(st.integers(0, M))
            pairs = data.draw(st.lists(coeff, min_size=qp + 1,
                                       max_size=qp + 1))
            return QExpansion(ctx, [PadicInt(ctx, r, pr) for r, pr in pairs],
                              qp)

        f, g = series(), series()
        for x, y in ((f, g), (g, f)):
            got = x * y
            assert got.qprec == min(x.qprec, y.qprec)
            assert [(c.residue, c.prec) for c in got.coeffs] == \
                schoolbook_product(x, y)

    inner()


def _plain_product(xs, ys):
    """First len(xs) coefficients of the product, by the definition."""
    return [sum(map(mul, xs[:k + 1], ys[k::-1])) for k in range(len(xs))]


def test_convolve_matches_the_definition():
    rng, mod = random.Random(35), 5 ** 12
    for n in list(range(1, 41)) + [rng.randrange(41, 3002) for _ in range(3)]:
        bits = 2 * mod.bit_length() + n.bit_length()  # as QExpansion.__mul__
        xs = [rng.randrange(mod) for _ in range(n)]
        ys = [rng.randrange(mod) for _ in range(n)]
        assert _convolve(xs, ys, bits) == _plain_product(xs, ys), n
        # every coefficient p^N - 1
        top = [mod - 1] * n
        assert _convolve(top, top, bits) == _plain_product(top, top), n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 61, 121, 1001])
def test_convolve_fills_its_slots(n):
    # the largest coefficient n c^2 just below 2^(8w): the slot bound is tight
    for w in (1, 2, 3, 9):
        c = isqrt((2 ** (8 * w) - 1) // n)
        if c:
            xs = [c] * n
            got = _convolve(xs, xs, 8 * w)
            assert got == _plain_product(xs, xs)
            assert got[-1] == n * c * c < 2 ** (8 * w)


def test_convolve_counts_in_one_and_two_byte_slots():
    # the precision pass counts hits in slots of n.bit_length() bits
    rng = random.Random(36)
    for n in (1, 2, 3, 5, 9, 100, 255, 256, 1201, 3001):
        ones = [1] * n
        assert _convolve(ones, ones, n.bit_length()) == list(range(1, n + 1))
        xs = [rng.randrange(2) for _ in range(n)]
        ys = [rng.randrange(2) for _ in range(n)]
        assert _convolve(xs, ys, n.bit_length()) == _plain_product(xs, ys)


@pytest.mark.parametrize("M", [1000, 1200])
def test_large_products_match_schoolbook(M):
    # every coefficient known to N digits (the precision pass is skipped),
    # then one low-precision coefficient in the second factor, then one in
    # each (the general path)
    ctx, rng = PadicContext(5, 12, M), random.Random(M)
    f, g = ([PadicInt(ctx, rng.randrange(ctx.modulus)) for _ in range(M + 1)]
            for _ in range(2))
    for side, i, least in ((g, 0, 12), (g, M // 2, 7), (f, M // 3, 4)):
        side[i] = PadicInt(ctx, side[i].residue, least)
        x, y = QExpansion(ctx, f), QExpansion(ctx, g)
        got = x * y
        assert list(zip(got.res, got.prec)) == schoolbook_product(x, y)
        assert min(got.prec) == least


def test_product_needs_scalar_coefficients(ctx5):
    g = QExpansion(ctx5, [CyclotomicElem.zeta(ctx5, 1), 1])
    h = QExpansion(ctx5, [1, 1])
    for x, y in ((g, h), (h, g)):
        with pytest.raises(TypeError, match="scalar coefficients"):
            x * y


def test_series_ring_laws():
    from hypothesis import given
    from hypothesis import strategies as st

    ctx = PadicContext(3, 6, 6)
    coeff = st.lists(st.integers(min_value=0, max_value=3 ** 6 - 1),
                     min_size=7, max_size=7)

    @given(coeff, coeff, coeff)
    def inner(xs, ys, zs):
        f = QExpansion(ctx, xs)
        g = QExpansion(ctx, ys)
        h = QExpansion(ctx, zs)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + (-f) == QExpansion.zero(ctx)

    inner()


def test_theta_is_a_derivation(ctx5):
    rng = random.Random(5)
    for _ in range(5):
        g = QExpansion(ctx5, [rng.randrange(ctx5.modulus)
                              for _ in range(ctx5.M + 1)])
        h = QExpansion(ctx5, [rng.randrange(ctx5.modulus)
                              for _ in range(ctx5.M + 1)])
        assert theta(g * h) == theta(g) * h + g * theta(h)
        c = PadicInt(ctx5, rng.randrange(ctx5.modulus))
        assert theta(g.scale(c)) == theta(g).scale(c)


def test_series_json_roundtrip(ctx5):
    g = eisenstein_2G(ctx5, 2)
    obj = series_to_json(g)
    assert obj["schema"] == 1 and len(obj["coeffs"]) == len(obj["prec"])
    assert [int(c) for c in obj["coeffs"]] == g.res and obj["prec"] == g.prec


# -- the flat representation against PadicInt-list arithmetic ------------------

class RefSeries:
    """A q-expansion kept as a list of PadicInts, with the coefficient-wise
    rules the package used before storing scalar series flat."""

    def __init__(self, ctx, coeffs, qprec):
        coeffs = [c if isinstance(c, PadicInt) else PadicInt(ctx, c)
                  for c in coeffs[: qprec + 1]]
        self.ctx, self.qprec = ctx, qprec
        self.coeffs = coeffs + [PadicInt(ctx, 0)] * (qprec + 1 - len(coeffs))

    def zip(self, other, op):
        qp = min(self.qprec, other.qprec)
        return RefSeries(self.ctx, [op(a, b) for a, b in
                                    zip(self.coeffs, other.coeffs)], qp)

    def product(self, other):
        qp = min(self.qprec, other.qprec)
        out = []
        for n in range(qp + 1):
            acc = None
            for i in range(n + 1):
                a, b = self.coeffs[i], other.coeffs[n - i]
                if not a.is_exact_zero():
                    acc = a * b if acc is None else acc + a * b
            out.append(PadicInt(self.ctx, 0) if acc is None else acc)
        return RefSeries(self.ctx, out, qp)

    def theta(self):
        return RefSeries(self.ctx, [n * c for n, c in enumerate(self.coeffs)],
                         self.qprec)

    def u_p(self):
        p = self.ctx.p
        qp = self.qprec // p
        return RefSeries(self.ctx, [self.coeffs[p * n] for n in range(qp + 1)], qp)

    def v_p(self):
        out = [PadicInt(self.ctx, 0)] * (self.qprec + 1)
        for n, c in enumerate(self.coeffs):
            if self.ctx.p * n <= self.qprec:
                out[self.ctx.p * n] = c
        return RefSeries(self.ctx, out, self.qprec)

    def pairs(self):
        return self.qprec, [(c.residue, c.prec) for c in self.coeffs]


def _pairs(g):
    # the stored lists themselves: each residue must be reduced to its prec
    return g.qprec, list(zip(g.res, g.prec))


def _outcome(thunk):
    try:
        out = thunk()
    except (ValueError, TypeError, ArithmeticError) as exc:
        return ("raises", type(exc))
    if isinstance(out, (RefSeries, QExpansion)):
        return ("ok", out.pairs() if isinstance(out, RefSeries) else _pairs(out))
    return ("ok", out)


# operands known to all N digits, or to all but one digit in one place:
# the scalar kernels' fast path and the general branch next to it
KNOWN = ("full", "short")


def _draw_series(data, ctx, kinds=("mixed",)):
    """A series at a drawn q-precision, of a kind drawn from ``kinds``:
    exact zeros, low-precision zeros, low-precision values and full values
    ("mixed"); every coefficient known to all N digits ("full"); or all of
    them but one, which is a digit short ("short")."""
    from hypothesis import strategies as st

    N = ctx.N
    residue = st.integers(0, 2 * ctx.modulus)
    coeff = st.one_of(st.just((0, N)), st.tuples(st.just(0), st.integers(0, N - 1)),
                      st.tuples(residue, st.integers(0, N - 1)),
                      st.tuples(residue, st.just(N)))
    qp = data.draw(st.integers(0, ctx.M))
    kind = data.draw(st.sampled_from(kinds))
    if kind == "mixed":
        pairs = data.draw(st.lists(coeff, min_size=qp + 1, max_size=qp + 1))
    else:
        pairs = [(r, N) for r in data.draw(st.lists(residue, min_size=qp + 1,
                                                    max_size=qp + 1))]
    if kind == "short":
        i = data.draw(st.integers(0, qp))
        pairs[i] = (pairs[i][0], N - 1)
    coeffs = [PadicInt(ctx, r, e) for r, e in pairs]
    return QExpansion(ctx, coeffs, qp), RefSeries(ctx, coeffs, qp)


def _ctx(data):
    from hypothesis import strategies as st

    return PadicContext(data.draw(st.sampled_from([3, 5, 7])),
                        data.draw(st.integers(1, 8)), data.draw(st.integers(1, 30)))


def test_flat_series_match_padicint_lists():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=200)
    @given(st.data())
    def inner(data):
        ctx = _ctx(data)
        for kinds in (("mixed",), KNOWN):
            check(ctx, data, kinds)

    def check(ctx, data, kinds):
        (f, rf), (g, rg) = _draw_series(data, ctx, kinds), _draw_series(data, ctx, kinds)
        c = PadicInt(ctx, data.draw(st.integers(0, ctx.modulus)),
                     data.draw(st.just(ctx.N) | st.integers(0, ctx.N)))
        k = data.draw(st.integers(-ctx.modulus, ctx.modulus))
        checks = [
            (lambda: f + g, lambda: rf.zip(rg, lambda a, b: a + b)),
            (lambda: f - g, lambda: rf.zip(rg, lambda a, b: a - b)),
            (lambda: -f, lambda: RefSeries(ctx, [-a for a in rf.coeffs], rf.qprec)),
            (lambda: f * g, lambda: rf.product(rg)),
            (lambda: f.scale(c), lambda: RefSeries(ctx, [c * a for a in rf.coeffs],
                                                   rf.qprec)),
            (lambda: f * k, lambda: RefSeries(ctx, [k * a for a in rf.coeffs],
                                              rf.qprec)),
            (lambda: theta(f), rf.theta),
            (lambda: u_p(f), rf.u_p),
            (lambda: v_p(f), rf.v_p),
            (lambda: f == g, lambda: all(a == b for a, b in zip(rf.coeffs, rg.coeffs))),
            (lambda: f == f + g.scale(ctx.modulus),
             lambda: all(a == a + b * ctx.modulus
                         for a, b in zip(rf.coeffs, rg.coeffs))),
        ]
        for got, want in checks:
            assert _outcome(got) == _outcome(want)

    inner()


def _ref_divisor_sum(w, e, zero):
    out = [zero] * len(w)
    for d in range(1, len(w)):
        t = w[d] if not e else w[d] * d ** e
        for n in range(d, len(w), d):
            out[n] = out[n] + t
    return out


def test_flat_divisor_sums_match_padicint_lists():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=150)
    @given(st.data())
    def inner(data):
        ctx = _ctx(data)
        for kinds in (("mixed",), KNOWN):
            check(ctx, data, kinds)

    def check(ctx, data, kinds):
        g, rg = _draw_series(data, ctx, kinds)
        e = data.draw(st.integers(0, 6))
        # known weights take the fast path unless some w[d], d >= 1, is short
        res, prec = divisor_sum(ctx, (g.res, g.prec), e)
        want = _ref_divisor_sum(rg.coeffs, e, PadicInt(ctx, 0))
        assert list(zip(res, prec)) == [(c.residue, c.prec) for c in want]

    inner()


def test_sparse_int_weights_and_low_precision_zero(ctx5):
    # zero weights add nothing and are skipped, below isqrt(M) and above it;
    # a zero weight known to 2 digits (d = 3) still caps every multiple
    rng = random.Random(19)
    M = 200
    w = [0] * (M + 1)
    for d in rng.sample(range(1, M + 1), 12) + [2, 13]:
        w[d] = rng.randrange(1, ctx5.modulus)
    zero = PadicInt(ctx5, 0)
    for short in (12, 2):
        res = [0 if d == 3 and short < 12 else x for d, x in enumerate(w)]
        prec = [short if d == 3 else 12 for d in range(M + 1)]
        ref = [PadicInt(ctx5, x, v) for x, v in zip(res, prec)]
        for e in (0, 3):
            got = divisor_sum(ctx5, (res, prec), e)
            assert list(zip(*got)) == \
                [(c.residue, c.prec) for c in _ref_divisor_sum(ref, e, zero)]
            assert got[1][1:] == [short if n % 3 == 0 else 12
                                  for n in range(1, M + 1)]


def _other_lift(c: PadicInt, rng) -> PadicInt:
    ctx = c.ctx
    return PadicInt(ctx, c.residue + rng.randrange(ctx.modulus) * ctx.pows[c.prec])


def _agree(claimed: QExpansion, other: QExpansion) -> bool:
    return claimed.qprec == other.qprec and all(
        (x - y) % claimed.ctx.pows[e] == 0
        for x, y, e in zip(claimed.res, other.res, claimed.prec))


def test_series_ops_claim_only_known_digits():
    # another lift of every input residue, inside its stated precision,
    # gives outputs that agree to the precision the first output claims
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=150)
    @given(st.data())
    def inner(data):
        ctx = _ctx(data)
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        (f, rf), (g, rg) = _draw_series(data, ctx), _draw_series(data, ctx)
        f2 = QExpansion(ctx, [_other_lift(c, rng) for c in rf.coeffs], f.qprec)
        g2 = QExpansion(ctx, [_other_lift(c, rng) for c in rg.coeffs], g.qprec)
        assert _agree(f * g, f2 * g2)
        for op in (theta, u_p, v_p, lambda s: u_p(theta(s))):
            assert _agree(op(f), op(f2))
        e = data.draw(st.integers(0, 5))
        out = QExpansion.from_flat(ctx, *divisor_sum(ctx, (f.res, f.prec), e))
        out2 = QExpansion.from_flat(ctx, *divisor_sum(ctx, (f2.res, f2.prec), e))
        assert _agree(out, out2)

    inner()


def test_series_refuse_mixed_contexts(ctx5):
    other = PadicContext(5, 11, ctx5.M)
    g, h = QExpansion(ctx5, [1, 2]), QExpansion(other, [1, 2])
    for thunk in (lambda: QExpansion(ctx5, [1, PadicInt(other, 1)]),
                  lambda: QExpansion(ctx5, [CyclotomicElem.zeta(other, 1)]),
                  lambda: g + h, lambda: g - h, lambda: g * h, lambda: g == h,
                  lambda: g.scale(PadicInt(other, 2))):
        with pytest.raises(ValueError, match="mixed p-adic contexts"):
            thunk()
    # the same p and N with another q-precision is the same ring
    assert g + QExpansion(PadicContext(5, 12, 3), [1]) == QExpansion(ctx5, [2, 2], 3)


def test_coeffs_is_a_fresh_view(ctx5):
    g = QExpansion(ctx5, [1, PadicInt(ctx5, 7, 3)], 1)
    view = g.coeffs
    view[0] = PadicInt(ctx5, 4)
    assert g.coefficient(0) == 1 and g.coeffs is not view
    assert (g.res, g.prec) == ([1, 7], [12, 3])


def test_scalar_series_build_few_padicints(monkeypatch):
    # at M = 3000 the scalar-series paths work on the flat lists: a call
    # builds a handful of PadicInts (tables, constant terms), not one per
    # coefficient
    from padicq import TwoVarFn, act, convolution_nu, eisenstein_eval, monomial, \
        multiply

    ctx = PadicContext(5, 12, 3000)
    a, E = PadicInt(ctx, 2), eisenstein_2G(ctx, 14)
    step = multiply(monomial(ctx, 1), indicator(ctx, 1, 3))
    made = []
    init = PadicInt.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PadicInt, "__init__", counting)
    calls = [lambda: eisenstein_eval(a, monomial(ctx, 2)),
             lambda: eisenstein_eval(a, step), lambda: act(step, E),
             lambda: theta(E), lambda: series_to_json(E),
             lambda: convolution_nu(a, TwoVarFn.tensor(monomial(ctx, 3),
                                                       monomial(ctx, 1)))]
    for call in calls:
        made.clear()
        call()
        assert len(made) < 50
