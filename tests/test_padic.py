import random
from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicq import (DualNumber, NotPIntegral, NotUnit, PadicContext, PadicInt,
                    bernoulli, bernoulli_polynomial, binomial_padic,
                    reduce_rational)
from padicq.padic import is_prime

ints = st.integers(min_value=-10**9, max_value=10**9)


@given(ints, ints, ints)
def test_ring_laws(x, y, z):
    ctx = PadicContext(5, 8, 4)
    a, b, c = PadicInt(ctx, x), PadicInt(ctx, y), PadicInt(ctx, z)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    # and everything matches plain integer arithmetic mod p^N
    mod = ctx.modulus
    assert (a * b + c).residue == (x * y + z) % mod


@given(ints, ints)
def test_precision_is_min_of_operands(x, y):
    ctx = PadicContext(5, 10, 4)
    a = PadicInt(ctx, x, 7)
    b = PadicInt(ctx, y, 4)
    assert (a + b).prec == 4
    assert (a * b).prec == 4
    assert (a - b).prec == 4


def test_canonical_residue_reduced_mod_prec():
    ctx = PadicContext(5, 10, 4)
    a = PadicInt(ctx, 5**6 + 3, 4)
    assert a.residue == (5**6 + 3) % 5**4
    assert a.residue < 5**4


def test_divide_by_p_costs_one_digit():
    ctx = PadicContext(5, 10, 4)
    a = PadicInt(ctx, 50)
    q = a.divide_by_p()
    assert q.residue == 10 and q.prec == 9
    with pytest.raises(NotPIntegral):
        PadicInt(ctx, 3).divide_by_p()


def test_unit_inverse():
    ctx = PadicContext(5, 10, 4)
    a = PadicInt(ctx, 7)
    assert a * a.inverse() == 1
    with pytest.raises(NotUnit):
        PadicInt(ctx, 10).inverse()


def test_valuation():
    ctx = PadicContext(5, 10, 4)
    assert PadicInt(ctx, 75).valuation() == 2
    assert PadicInt(ctx, 0).valuation() == 10  # "at least prec"
    assert PadicInt(ctx, 3).valuation() == 0


# -- reduce_rational ------------------------------------------------------------

def test_reduce_rational_two_thirds():
    # extended Euclid oracle: 3 * 42 = 126 = 1 mod 125, so 2/3 = 84 mod 125
    ctx = PadicContext(5, 3, 4)
    assert pow(3, -1, 125) == 42
    r = reduce_rational(Fraction(2, 3), ctx)
    assert r.residue == 84 and r.prec == 3


def test_reduce_rational_zero_full_precision():
    ctx = PadicContext(7, 6, 4)
    r = reduce_rational(Fraction(0, 7), ctx)
    assert r.residue == 0 and r.prec == 6


def test_reduce_rational_pole():
    ctx = PadicContext(5, 3, 4)
    with pytest.raises(NotPIntegral):
        reduce_rational(Fraction(1, 5), ctx)


# -- Bernoulli numbers ------------------------------------------------------------

def test_bernoulli_small_values():
    # recurrence by hand: B0=1, B1=-1/2 gives B2=1/6; odd vanish; B4=-1/30
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_cache_is_thread_safe():
    import threading

    results = []

    def worker():
        results.append(bernoulli(40))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert results[0] == bernoulli(40)


def test_bernoulli_against_independent_recurrence():
    # Akiyama-Tanigawa, a genuinely different algorithm (second convention;
    # only B1 differs in sign, so compare away from k=1)
    n = 24
    A = [Fraction(0)] * (n + 1)
    at = []
    for m in range(n + 1):
        A[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            A[j - 1] = j * (A[j - 1] - A[j])
        at.append(A[0])
    for k in range(n + 1):
        if k != 1:
            assert bernoulli(k) == at[k]


def test_bernoulli_matches_defining_recurrence():
    # sum_{j<=m} C(m+1, j) B_j = 0, in exact rationals
    table = [Fraction(1)]
    for m in range(1, 301):
        table.append(-sum(comb(m + 1, j) * table[j] for j in range(m)) / (m + 1))
    assert [bernoulli(k) for k in range(301)] == table


def test_bernoulli_von_staudt_clausen():
    # B_2n + sum of 1/q over the primes q with (q - 1) | 2n is an integer,
    # so the denominator of B_2n is the product of those q; the sign of
    # B_2n is (-1)^(n+1)
    for k in (2000, 1998, 1002, 500, 256, 14, 2):
        qs = [q for q in range(2, k + 2) if k % (q - 1) == 0 and is_prime(q)]
        b = bernoulli(k)
        assert (b + sum(Fraction(1, q) for q in qs)).denominator == 1, k
        assert b.denominator == prod(qs), k
        assert (b > 0) == (k % 4 == 2), k


@pytest.mark.parametrize("p", [5, 7])
def test_von_staudt_clausen(p):
    # (p-1) | k puts exactly one p in the denominator of B_k; dividing by k
    # contributes v_p(k) more (the k = 20, p = 5 case really does this)
    for k in range(2, 21, 2):
        val = -bernoulli(k) / k
        den = val.denominator
        v = 0
        while den % p == 0:
            den //= p
            v += 1
        vk = 0
        kk = k
        while kk % p == 0:
            kk //= p
            vk += 1
        if k % (p - 1) == 0:
            assert v == 1 + vk
        else:
            assert v == 0
            ctx = PadicContext(p, 12, 4)
            reduce_rational(val, ctx)  # must not raise


def test_bernoulli_polynomial():
    assert bernoulli_polynomial(2, Fraction(0)) == Fraction(1, 6)
    assert bernoulli_polynomial(2, Fraction(1, 2)) == Fraction(-1, 12)
    # B_k(x+1) - B_k(x) = k x^(k-1)
    for k in range(1, 8):
        for x in (Fraction(0), Fraction(1, 3), Fraction(7, 5)):
            assert bernoulli_polynomial(k, x + 1) - bernoulli_polynomial(k, x) \
                == k * x ** (k - 1)


# -- dual numbers ------------------------------------------------------------------

def test_dual_one_plus_eps_powers():
    ctx = PadicContext(5, 12, 4)
    one = PadicInt.one(ctx)
    d = DualNumber(one, one)
    acc = DualNumber(one, PadicInt.zero(ctx))
    for n in range(0, 41):
        assert acc.a == 1 and acc.b == n, n
        acc = acc * d
    assert (d ** 17).b == 17


@given(ints, ints, ints, ints)
def test_dual_ring_laws(xa, xb, ya, yb):
    ctx = PadicContext(3, 8, 4)
    x = DualNumber(PadicInt(ctx, xa), PadicInt(ctx, xb))
    y = DualNumber(PadicInt(ctx, ya), PadicInt(ctx, yb))
    assert x * y == y * x
    assert (x + y) * x == x * x + y * x
    # eps^2 = 0: product rule on the eps part
    assert (x * y).b == PadicInt(ctx, xa * yb + xb * ya)


# -- binomials ----------------------------------------------------------------------

def test_binomial_padic_matches_integers():
    ctx = PadicContext(5, 12, 4)
    for n in range(0, 30):
        for k in range(0, 10):
            got = binomial_padic(PadicInt(ctx, n), k)
            assert got == comb(n, k)


def test_binomial_padic_precision_loss():
    ctx = PadicContext(5, 12, 4)
    x = PadicInt(ctx, 9)
    assert binomial_padic(x, 5).prec == 11  # floor(log_5 5) = 1
    assert binomial_padic(x, 4).prec == 12
    # congruence contract: C(n + p^e, k) = C(n, k) mod p^(e - floor(log_p k))
    e, k = 6, 7
    a = comb(3 + 5**e, k) - comb(3, k)
    v = 0
    while a % 5 == 0:
        a //= 5
        v += 1
    assert v >= e - 1


precs = st.integers(min_value=-2, max_value=8)


@given(st.sampled_from((3, 5, 7)), st.integers(1, 6), ints, ints, precs, precs)
def test_power_table_matches_direct_powers(p, N, x, y, px, py):
    # reduction looks p^prec up in ctx.pows; the direct form computes it
    ctx = PadicContext(p, N, 4)

    def direct(v, e):
        e = min(max(e, 0), N)
        return (v % p ** e if e > 0 else 0), e

    a, b = PadicInt(ctx, x, px), PadicInt(ctx, y, py)
    assert ctx.pows == tuple(p ** e for e in range(N + 1))
    assert (a.residue, a.prec) == direct(x, px)
    e = min(a.prec, b.prec)
    assert (a == b) == (x % p ** e == y % p ** e if e else True)
    assert ((a ** 3).residue, (a ** 3).prec) == direct(x ** 3, a.prec)
    if a.is_unit():
        inv = a.inverse()
        assert (inv.residue, inv.prec) == direct(pow(x, -1, p ** a.prec), a.prec)


@given(st.sampled_from((3, 5, 7)), st.integers(1, 6), ints, ints, precs, precs,
       st.integers(0, 2 ** 32))
def test_claimed_digits_do_not_depend_on_unknown_ones(p, N, x, y, px, py, seed):
    # any integer congruent to a residue mod p^prec, taken at full
    # precision, is a possible true value: every digit a result claims
    # must come out the same from it
    rng = random.Random(seed)
    ctx = PadicContext(p, N, 4)

    def other(c):
        return PadicInt(ctx, c.residue + rng.randrange(ctx.modulus) * p ** c.prec)

    def agree(u, v):
        return (u.residue - v.residue) % p ** u.prec == 0

    a, b = PadicInt(ctx, x, px), PadicInt(ctx, y, py)
    a2, b2 = other(a), other(b)
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v,
               lambda u, v: -u, lambda u, v: u ** 5):
        assert agree(op(a, b), op(a2, b2))
    if a.is_unit():
        assert agree(a.inverse(), a2.inverse())
        assert agree(a ** -2, a2 ** -2)
    if a.prec >= 1 and a.residue % p == 0:
        assert agree(a.divide_by_p(), a2.divide_by_p())


def test_bernoulli_table_does_not_depend_on_request_order(monkeypatch):
    # the table kept between calls (Bernoulli numbers and the last column
    # of the tangent-number triangle) is the same whether it grew one k at
    # a time, from the top down or in one call, and equal to the closed
    # form built from scratch
    import padicq.padic as padic

    K, n = 600, 300
    T = [0] + [factorial(j - 1) for j in range(1, n + 1)]
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            T[j] = (j - i) * T[j - 1] + (j - i + 2) * T[j]
    want = [Fraction(1), Fraction(-1, 2)] + [
        Fraction(0) if m % 2 else
        Fraction((-1) ** (m // 2 - 1) * m * T[m // 2], 4 ** m - 2 ** m)
        for m in range(2, K + 1)]
    states = []
    for ks in (range(K + 1), range(K, -1, -1), [K], [7, 40, 39, 41, 300, K]):
        monkeypatch.setattr(padic, "_bernoulli_state",
                            ([Fraction(1), Fraction(-1, 2)], [0]))
        for k in ks:
            assert padic.bernoulli(k) == want[k], k
        states.append(padic._bernoulli_state)
    assert all(state == (want, states[0][1]) for state in states)
    assert len(states[0][1]) == n + 1


def test_bernoulli_state_stays_consistent_under_threads(monkeypatch):
    # threads extending the table at once, with frequent switches, may
    # each build their own extension; whichever state is kept pairs a
    # table with its own column, so later requests still get exact values
    import sys
    import threading

    import padicq.padic as padic

    want = {k: bernoulli(k) for k in range(0, 161)}
    monkeypatch.setattr(padic, "_bernoulli_state",
                        ([Fraction(1), Fraction(-1, 2)], [0]))
    errors = []

    def worker(ks):
        for k in ks:
            if padic.bernoulli(k) != want[k]:
                errors.append(k)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(range(s, 161, 3),))
                   for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and not errors
    table, col = padic._bernoulli_state
    assert len(col) - 1 == (len(table) - 1) // 2
    assert all(padic.bernoulli(k) == want[k] for k in range(161))
