from fractions import Fraction

import pytest

import padicq.kummer as kummer
from padicq import (BaseMismatch, CyclotomicElem, IncompatibleRoots,
                    KummerBase, KummerElement, LaurentElem, PadicContext,
                    constant_roots, kummer_iso, kummer_mul, kummer_pair,
                    reduce_rational, serre_tate_action_check)
from padicq.kummer import (check_group_axioms, check_pairing_perfect,
                           check_realization, kummer_mul_corrupted,
                           verify_mul_realization, verify_pair_realization)


@pytest.fixture(scope="module")
def kctx3():
    return PadicContext(3, 8, 4)


@pytest.fixture(scope="module")
def kctx5():
    return PadicContext(5, 8, 4)


def test_laurent_monomial_arithmetic(kctx3):
    z = CyclotomicElem.zeta(kctx3, 1)
    one = CyclotomicElem.one(kctx3, 0)
    x = LaurentElem(kctx3, 2, 3, z)
    y = LaurentElem(kctx3, 2, -5, z ** 2)
    for got, e, coeff in ((x * y, -2, one), (y * y, -10, z),
                          (x ** 4, 12, z), (x ** 0, 0, one)):
        assert (got.D, got.e, got.coeff) == (2, e, coeff)
    assert x == LaurentElem(kctx3, 2, 3, CyclotomicElem.zeta_power(kctx3, 1, 4))
    assert x != LaurentElem(kctx3, 2, 4, z)
    assert x != LaurentElem(kctx3, 2, 3, z ** 2)
    assert x != LaurentElem(kctx3, 3, 3, z)


# (passed, checks) of the group-axiom, realization and pairing checks and of
# serre_tate_action_check without and with the corrupted carry; `verify`
# prints these counts
CHECK_COUNTS = {
    (3, 1): [(True, 81), (True, 200), (True, 8), (True, 219), (False, 219)],
    (5, 1): [(True, 625), (True, 1352), (True, 24), (True, 1403),
             (False, 1403)],
    (3, 2): [(True, 6561), (True, 13448), (True, 80), (True, 13611),
             (False, 13611)],
}


@pytest.mark.parametrize("p,k", sorted(CHECK_COUNTS))
def test_check_report_counts(p, k):
    ctx = PadicContext(p, 8, 4)
    zeta = CyclotomicElem.zeta(ctx, k)
    reps = [check_group_axioms(ctx, k), check_realization(ctx, k),
            check_pairing_perfect(ctx, k),
            serre_tate_action_check(ctx, zeta, k),
            serre_tate_action_check(ctx, zeta, k, corrupt_carry=True)]
    assert [(r.passed, r.checks) for r in reps] == CHECK_COUNTS[(p, k)]
    assert reps[-1].failures


# -- the reduced checks against the brute force ------------------------------

def _products_hold(base, mul):
    """x(e1) x(e2) == x(mul(e1, e2)) q^carry on all p^(4k) pairs."""
    els = base.elements()
    return all(verify_mul_realization(e1, e2, mul) for e1 in els for e2 in els)


def _brute_force(ctx, k, mul):
    """Pass/fail of the group-axiom, realization and Serre-Tate checks
    from the (Z/p^k)^2 table and all-pairs realizations."""
    pk = ctx.p ** k
    base = KummerBase.standard(ctx, k)
    inv = KummerBase.inverted(ctx, k)
    twisted = base.transformed(constant_roots(ctx, base.K, k, -1, k)[k])
    els = base.elements()
    table = all((e3.a, e3.j) == ((e1.a + e2.a) % pk, (e1.j + e2.j) % pk)
                for e1 in els for e2 in els for e3 in [mul(e1, e2)])
    products = _products_hold(base, mul)
    pairing = products and all(verify_pair_realization(e, f)
                               for e in els for f in inv.elements())
    return [table, pairing, products and _products_hold(twisted, mul)]


def _at_pair(law, pair, change):
    """law, changed by change(e3) at the one pair ((a1, j1), (a2, j2))."""
    def mutant(e1, e2):
        e3 = law(e1, e2)
        return change(e3) if ((e1.a, e1.j), (e2.a, e2.j)) == pair else e3
    return mutant


def _mutants():
    mul, pair = kummer.kummer_mul, kummer.kummer_pair
    return {
        "kummer_mul": {},
        "corrupted carry": {"kummer_mul": kummer_mul_corrupted},
        # only (I1) sees this one: the realizations are checked at j = 0
        "j off by one at one pair": {"kummer_mul": _at_pair(
            mul, ((1, 1), (1, 1)),
            lambda e: KummerElement(e.base, e.a, e.j + 1))},
        "a off by one at one pair": {"kummer_mul": _at_pair(
            mul, ((1, 0), (1, 0)),
            lambda e: KummerElement(e.base, e.a + 1, e.j))},
        "j1 + 2 j2": {"kummer_mul": lambda e1, e2: KummerElement(
            e1.base, mul(e1, e2).a, e1.j + 2 * e2.j)},
        "pairing without j a": {"kummer_pair": lambda e, f: (
            pair(e, f) - f.j * e.a) % e.base.ctx.p ** e.base.k},
    }


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (3, 2)])
def test_reduced_checks_match_brute_force(p, k, monkeypatch):
    # each law gives the same pass/fail on every check, reduced or brute
    ctx = PadicContext(p, 8, 4)
    zeta = CyclotomicElem.zeta(ctx, k)
    brute = {}
    for name, patch in _mutants().items():
        with monkeypatch.context() as m:
            for attr, fn in patch.items():
                m.setattr(kummer, attr, fn)
            brute[name] = _brute_force(ctx, k, kummer.kummer_mul)
            real = check_realization(ctx, k)
            got = [check_group_axioms(ctx, k).passed, real.passed,
                   serre_tate_action_check(ctx, zeta, k).passed]
        assert got == brute[name], name
        assert all(got) == (not patch), name
        if name == "j off by one at one pair":
            assert all("zeta-linear" in msg for msg in real.failures)
    neg = serre_tate_action_check(ctx, zeta, k, corrupt_carry=True)
    assert neg.passed == brute["corrupted carry"][2] and neg.failures


def test_carrying_examples(kctx3):
    base = KummerBase.standard(kctx3, 1)
    assert kummer_mul(KummerElement(base, 1, 0), KummerElement(base, 2, 0)) \
        == KummerElement(base, 0, 0)
    assert kummer_mul(KummerElement(base, 0, 1), KummerElement(base, 0, 2)) \
        == KummerElement(base, 0, 0)
    ident = KummerElement(base, 0, 0)
    for e in base.elements():
        assert kummer_mul(ident, e) == e


def test_base_mismatch(kctx3, kctx5):
    b1 = KummerBase.standard(kctx3, 1)
    b2 = KummerBase.inverted(kctx3, 1)
    with pytest.raises(BaseMismatch):
        kummer_mul(KummerElement(b1, 1, 0), KummerElement(b2, 1, 0))
    with pytest.raises(BaseMismatch):
        kummer_pair(KummerElement(b1, 1, 0), KummerElement(b1, 1, 0))


def test_pairing_examples(kctx3):
    base = KummerBase.standard(kctx3, 1)
    inv = KummerBase.inverted(kctx3, 1)
    assert kummer_pair(KummerElement(base, 1, 0), KummerElement(inv, 1, 0)) == 0
    assert kummer_pair(KummerElement(base, 1, 0), KummerElement(inv, 1, 1)) == 1
    # bilinearity instance: <(1,0)^2, (0,1)> = 2 <(1,0), (0,1)> mod 3
    sq = kummer_mul(KummerElement(base, 1, 0), KummerElement(base, 1, 0))
    lhs = kummer_pair(sq, KummerElement(inv, 0, 1))
    rhs = (2 * kummer_pair(KummerElement(base, 1, 0),
                           KummerElement(inv, 0, 1))) % 3
    assert lhs == rhs


def test_pairing_realization_all_pairs(kctx3):
    base = KummerBase.standard(kctx3, 1)
    inv = KummerBase.inverted(kctx3, 1)
    for e in base.elements():
        for f in inv.elements():
            assert verify_pair_realization(e, f)


def test_group_axioms_31_and_51(kctx3, kctx5):
    assert check_group_axioms(kctx3, 1).passed
    assert check_group_axioms(kctx5, 1).passed


def test_realization_31_and_51(kctx3, kctx5):
    assert check_realization(kctx3, 1).passed
    assert check_realization(kctx5, 1).passed


def test_pairing_perfect(kctx3, kctx5):
    assert check_pairing_perfect(kctx3, 1).passed
    assert check_pairing_perfect(kctx5, 1).passed
    assert check_pairing_perfect(kctx3, 2).passed


def test_corrupted_law_fails_realization(kctx3):
    base = KummerBase.standard(kctx3, 1)
    e1, e2 = KummerElement(base, 1, 0), KummerElement(base, 2, 0)
    assert verify_mul_realization(e1, e2)
    assert not verify_mul_realization(e1, e2, mul=kummer_mul_corrupted)


def test_iso_identity_roots(kctx3):
    base = KummerBase.standard(kctx3, 1)
    ones = [LaurentElem.one(kctx3, base.K) for _ in range(2)]
    e = KummerElement(base, 1, 2)
    out = kummer_iso(ones, e)
    assert (out.a, out.j) == (1, 2)
    assert out.base.param_root == base.param_root


def test_iso_rejects_incompatible_roots(kctx3):
    base = KummerBase.standard(kctx3, 1)
    two = CyclotomicElem.one(kctx3, 0) + 1
    bad = [LaurentElem.one(kctx3, base.K),
           LaurentElem(kctx3, base.K, 0, two)]  # 2^3 != 1
    with pytest.raises(IncompatibleRoots):
        kummer_iso(bad, KummerElement(base, 1, 0))
    short = [LaurentElem.one(kctx3, base.K)]
    with pytest.raises(IncompatibleRoots):
        kummer_iso(short, KummerElement(base, 1, 0))


def test_iso_homomorphism_all_pairs(kctx3):
    # transporting along roots of zeta respects the group law
    base = KummerBase.standard(kctx3, 1)
    roots = constant_roots(kctx3, base.K, 1, 1, 1)
    for e1 in base.elements():
        for e2 in base.elements():
            i1, i2 = kummer_iso(roots, e1), kummer_iso(roots, e2)
            prod = kummer_iso(roots, kummer_mul(e1, e2))
            assert kummer_mul(i1, i2) == prod
    # and it fixes the root-of-unity subgroup pointwise
    for j in range(3):
        e = KummerElement(base, 0, j)
        out = kummer_iso(roots, e)
        assert out.base.realize(out) == \
            LaurentElem(kctx3, base.K, 0, base.zeta(j))


def test_serre_tate_positive_and_negative(kctx3, kctx5):
    z3 = CyclotomicElem.zeta(kctx3, 1)
    rep = serre_tate_action_check(kctx3, z3, 1)
    assert rep.passed, rep.failures
    neg = serre_tate_action_check(kctx3, z3, 1, corrupt_carry=True)
    assert not neg.passed and neg.failures
    z5 = CyclotomicElem.zeta(kctx5, 1)
    assert serre_tate_action_check(kctx5, z5, 1).passed


def test_serre_tate_trivial_zeta(kctx3):
    one = CyclotomicElem.one(kctx3, 0)
    assert serre_tate_action_check(kctx3, one, 1).passed


def test_serre_tate_nonstandard_generator(kctx3):
    z = CyclotomicElem.zeta_power(kctx3, 1, 2)
    assert serre_tate_action_check(kctx3, z, 1).passed


# -- the Gm-hat action at non-torsion points ----------------------------------

def _root_system(ctx, x: Fraction, k: int) -> list:
    """[x, x^(1/p), ..., x^(1/p^k)] for x in 1 + p^(k+1) Z_p, root i known to
    N - i digits, as level-0 coefficients of q^0.

    x^(1/p^i) = sum_n C(1/p^i, n) (x - 1)^n; term n has valuation at least
    n (k + 1 - i) - v_p(n!) >= n / 2, so 2N terms leave a tail >= p^N.
    """
    p, N = ctx.p, ctx.N
    out = []
    for i in range(k + 1):
        e, term, acc = Fraction(1, p ** i), Fraction(1), Fraction(0)
        for n in range(2 * N + 1):
            acc += term
            term *= (e - n) / (n + 1) * (x - 1)
        out.append(LaurentElem(ctx, 2 * k, 0, CyclotomicElem.from_scalar(
            reduce_rational(acc, ctx, N - i))))
    return out


def _transport(roots, base):
    """The base over x q that kummer_iso transports ``base`` to."""
    return kummer_iso(roots, KummerElement(base, 0, 0)).base


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (3, 2), (7, 1)])
def test_action_at_non_torsion_points(p, k):
    # q -> x q for x = 1 + p^(k+1) t, not a root of unity: transport along
    # the p^i-th roots of x, compared at the roots' claimed precisions
    ctx = PadicContext(p, 8, 4)
    pk, K = p ** k, 2 * k
    x, y = 1 + Fraction(2 * p ** (k + 1)), 1 + Fraction(p ** (k + 1))
    roots = _root_system(ctx, x, k)
    base = KummerBase.standard(ctx, k)
    moved = _transport(roots, base)
    assert moved.parameter() == roots[0] * base.parameter()
    # the group law survives on the generator pairs, a broken carry does not
    heads = moved.elements()[::pk]
    assert all(verify_mul_realization(h1, h2) for h1 in heads for h2 in heads)
    assert not all(verify_mul_realization(h1, h2, kummer_mul_corrupted)
                   for h1 in heads for h2 in heads)
    # q^(1/p^k) -> x^(1/p^k) q^(1/p^k) maps the table onto the moved one
    s, stride = roots[k].coeff, p ** (K - k)
    for e in base.elements():
        x_e = base.realize(e)
        n, r = divmod(x_e.e, stride)
        assert r == 0
        assert LaurentElem(ctx, K, x_e.e, x_e.coeff * s ** n) == \
            moved.realize(KummerElement(moved, e.a, e.j)), e
    # transport along y after x is transport along x y
    both = _transport(_root_system(ctx, y, k), moved)
    assert both.param_root == _transport(_root_system(ctx, x * y, k),
                                         base).param_root
    # transport along the inverse roots returns the table
    back = _transport([r ** -1 for r in roots], moved)
    for e in base.elements():
        assert back.realize(KummerElement(back, e.a, e.j)) == base.realize(e)
    # the pairing with the inverse parameter keeps its values
    inv = KummerBase(ctx, k, moved.param_root ** -1)
    assert all(verify_pair_realization(e, f) for e in moved.elements()
               for f in inv.elements()[::pk])
    # a root off by p^(N-k-1) breaks the root system
    for i in range(k):
        bad = list(roots)
        bad[i] = LaurentElem(ctx, K, 0, bad[i].coeff + ctx.pows[ctx.N - k - 1])
        with pytest.raises(IncompatibleRoots):
            _transport(bad, base)
