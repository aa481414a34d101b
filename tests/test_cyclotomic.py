import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicq import (CyclotomicElem, NotRootOfUnity, NotUnit, PadicContext,
                    PadicInt, PrecisionExhausted, cyclo_pow, phi_pm)


def elem(ctx, level, ints):
    return CyclotomicElem(ctx, level, [PadicInt(ctx, c) for c in ints])


def test_phi_pm():
    assert phi_pm(5, 0) == 1
    assert phi_pm(5, 1) == 4
    assert phi_pm(5, 2) == 20
    assert phi_pm(3, 3) == 18


def test_zeta_is_primitive():
    ctx = PadicContext(5, 8, 4)
    z = CyclotomicElem.zeta(ctx, 2)
    one = CyclotomicElem.one(ctx, 0)
    assert z ** 25 == one
    assert not z ** 5 == one
    assert z.is_root_of_unity()
    assert not (z + 1).is_root_of_unity()


@given(st.lists(st.integers(min_value=0, max_value=3**8 - 1),
                min_size=6, max_size=6),
       st.lists(st.integers(min_value=0, max_value=3**8 - 1),
                min_size=6, max_size=6))
def test_ring_laws_level_2(xs, ys):
    ctx = PadicContext(3, 8, 4)
    x, y = elem(ctx, 2, xs), elem(ctx, 2, ys)
    z = CyclotomicElem.zeta(ctx, 2)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == CyclotomicElem.zero(ctx, 2)


def test_reduction_matches_cyclotomic_relation():
    # Phi_{p}(zeta) = 0: 1 + zeta + ... + zeta^(p-1) = 0
    ctx = PadicContext(7, 6, 4)
    z = CyclotomicElem.zeta(ctx, 1)
    acc = CyclotomicElem.zero(ctx, 1)
    for i in range(7):
        acc = acc + z ** i
    assert acc == CyclotomicElem.zero(ctx, 1)
    # level 2: sum over i of zeta^(i p) vanishes
    z2 = CyclotomicElem.zeta(ctx, 2)
    acc = CyclotomicElem.zero(ctx, 2)
    for i in range(7):
        acc = acc + z2 ** (7 * i)
    assert acc == CyclotomicElem.zero(ctx, 2)


def test_lift_embeds_compatibly():
    ctx = PadicContext(5, 8, 4)
    z1 = CyclotomicElem.zeta(ctx, 1)
    z2 = CyclotomicElem.zeta(ctx, 2)
    assert z1.lift_to(2) == z2 ** 5
    x = z1 + 3
    y = z1 ** 2 - 1
    assert (x * y).lift_to(2) == x.lift_to(2) * y.lift_to(2)
    assert (x + y).lift_to(2) == x.lift_to(2) + y.lift_to(2)


def test_mixed_level_arithmetic():
    ctx = PadicContext(5, 8, 4)
    z1 = CyclotomicElem.zeta(ctx, 1)
    z2 = CyclotomicElem.zeta(ctx, 2)
    assert z2 ** 5 * z1 == z1 ** 2  # both live at level 2 after coercion
    assert (z1 + z2).level == 2
    assert z1 + 1 - 1 == z2 ** 5


def test_inverse_of_units():
    ctx = PadicContext(5, 10, 4)
    one = CyclotomicElem.one(ctx, 0)
    for level in (1, 2):
        z = CyclotomicElem.zeta(ctx, level)
        for x in (z + 3, z ** 2 + z + 1, z - 2):
            if x.is_unit():
                assert x * x.inverse() == one
    with pytest.raises(NotUnit):
        (CyclotomicElem.zeta(ctx, 1) - 1).inverse()  # augmentation 0


def test_inverse_of_low_precision_units():
    # the inverse is unique, so x * y == 1 at x's precision fixes every digit
    rng = random.Random(7)
    for p in (3, 5, 7):
        ctx = PadicContext(p, 6, 4)
        one = CyclotomicElem.one(ctx, 0)
        for level in (1, 2, 3):
            n = phi_pm(p, level)
            for _ in range(3 if p ** level < 100 else 1):
                low = rng.choice((1, 2, 3))
                precs = [rng.choice((low, 6)) for _ in range(n)]
                x = CyclotomicElem(ctx, level, [
                    PadicInt(ctx, rng.randrange(ctx.modulus), pr)
                    for pr in precs])
                if not x.is_unit():
                    x = x + 1
                y = x.inverse()
                assert x * y == one
                assert y.min_prec() == x.min_prec()


def test_root_of_unity_inverse_is_power():
    ctx = PadicContext(5, 10, 4)
    z = CyclotomicElem.zeta(ctx, 2)
    assert z.inverse() == z ** 24


def test_inverse_precision_clamped():
    # an element only known mod p inverts to something only known mod p
    ctx = PadicContext(5, 10, 4)
    z = CyclotomicElem.zeta(ctx, 1)
    x = CyclotomicElem(ctx, 1, [PadicInt(ctx, 3, 1), PadicInt(ctx, 1, 1),
                                PadicInt(ctx, 0, 1), PadicInt(ctx, 0, 1)])
    y = x.inverse()
    assert y.min_prec() == 1
    assert (x * y).coeffs[0].residue % 5 == 1


def test_theta_valuation_growth():
    # decay of character Mahler data: v((zeta-1)^k) = k for k <= 4 (p-1)
    for p in (3, 5):
        ctx = PadicContext(p, 12, 4)
        for level in (1, 2):
            t = CyclotomicElem.zeta(ctx, level) - 1
            for k in range(0, 4 * (p - 1) + 1):
                assert (t ** k).theta_valuation() == k, (p, level, k)


def test_cyclo_pow_examples():
    ctx3 = PadicContext(3, 8, 4)
    z = CyclotomicElem.zeta(ctx3, 1)
    assert cyclo_pow(z, PadicInt(ctx3, 4)) == z
    assert cyclo_pow(z, PadicInt(ctx3, 0)) == CyclotomicElem.one(ctx3, 0)
    ctx5 = PadicContext(5, 8, 4)
    z5 = CyclotomicElem.zeta(ctx5, 1)
    assert cyclo_pow(z5, PadicInt(ctx5, 7)) == z5 ** 2


@given(st.integers(min_value=0, max_value=10**6))
def test_cyclo_pow_periodicity(e):
    ctx = PadicContext(5, 8, 4)
    z = CyclotomicElem.zeta(ctx, 2)
    pe = PadicInt(ctx, e)
    assert cyclo_pow(z, pe) == cyclo_pow(z, pe + 25)


def test_cyclo_pow_rejects_non_roots():
    ctx = PadicContext(5, 8, 4)
    x = CyclotomicElem.zeta(ctx, 1) + 1
    with pytest.raises(NotRootOfUnity):
        cyclo_pow(x, PadicInt(ctx, 2))


def test_cyclo_pow_needs_precision():
    ctx = PadicContext(5, 8, 4)
    z = CyclotomicElem.zeta(ctx, 2)
    with pytest.raises(PrecisionExhausted):
        cyclo_pow(z, PadicInt(ctx, 7, 1))


def test_augmentation_and_constant():
    ctx = PadicContext(5, 8, 4)
    z = CyclotomicElem.zeta(ctx, 1)
    x = z ** 0 * 3
    assert x.is_constant() and x.constant_part() == 3
    assert (z + z ** 2).augmentation() == 2


def test_scalar_product_matches_lifted_product():
    ctx = PadicContext(3, 8, 4)
    rng = random.Random(11)

    def pairs(x):
        return x.level, [(c.residue, c.prec) for c in x.coeffs]

    for level in range(4):
        for _ in range(10):
            a = CyclotomicElem(ctx, level, [
                PadicInt(ctx, rng.randrange(3 ** 8), rng.choice([8, 8, 5, 0]))
                for _ in range(phi_pm(3, level))])
            x = PadicInt(ctx, rng.randrange(3 ** 8), rng.choice([8, 6, 2, 0]))
            want = pairs(a * CyclotomicElem.from_scalar(x))
            assert pairs(a * x) == want and pairs(x * a) == want
            k = rng.randrange(-100, 100)
            want = pairs(a * CyclotomicElem.from_scalar(PadicInt(ctx, k)))
            assert pairs(a * k) == want and pairs(k * a) == want
