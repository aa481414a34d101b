import random

import pytest

from padicq import (CyclotomicElem, NotRootOfUnity, PadicInt, Polynomial,
                    QExpansion, Scaled, act, act_character, amice_transform,
                    constant_fn, derivative_check, indicator, monomial,
                    multiply, psi, theta, u_p, v_p)
from padicq.zpfun import Character


def rand_series(ctx, rng):
    return QExpansion(ctx, [rng.randrange(ctx.modulus)
                            for _ in range(ctx.M + 1)])


def test_act_identity(ctx5):
    rng = random.Random(1)
    g = rand_series(ctx5, rng)
    assert act(constant_fn(ctx5, 1), g) == g


def test_act_monomial_is_theta(ctx5):
    g = QExpansion(ctx5, [0, 1, 3, 4])
    got = act(monomial(ctx5, 1), g)
    assert got == QExpansion(ctx5, [0, 1, 6, 12])
    assert got == theta(g)


def test_act_indicator_filters(ctx5):
    g = QExpansion(ctx5, [0] + [1] * 10, 10)
    got = act(indicator(ctx5, 1, 0), g)
    want = QExpansion(ctx5, [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1], 10)
    assert got == want
    assert got == v_p(u_p(g))


def test_algebra_action_law(ctx5):
    rng = random.Random(42)
    fns = [monomial(ctx5, 2), indicator(ctx5, 1, 3),
           Character(CyclotomicElem.zeta(ctx5, 1)),
           multiply(monomial(ctx5, 1), indicator(ctx5, 2, 7)),
           Polynomial(ctx5, [2, 0, 1])]
    for i in range(30):
        f = fns[rng.randrange(len(fns))]
        f2 = fns[rng.randrange(len(fns))]
        g = rand_series(ctx5, rng)
        assert act(multiply(f, f2), g) == act(f, act(f2, g)), i


def test_act_linearity(ctx5):
    rng = random.Random(43)
    f = indicator(ctx5, 1, 2)
    g, h = rand_series(ctx5, rng), rand_series(ctx5, rng)
    assert act(f, g + h) == act(f, g) + act(f, h)
    # additivity in the function slot (sums realized on coefficient tables)
    f1 = Polynomial(ctx5, [2, 0, 1])
    f2 = Polynomial(ctx5, [0, 3])
    fsum = Polynomial(ctx5, [2, 3, 1])
    assert act(fsum, g) == act(f1, g) + act(f2, g)
    t1 = indicator(ctx5, 1, 1)
    t2 = indicator(ctx5, 1, 4)
    from padicq import LocallyConstant
    tsum = LocallyConstant(ctx5, 1, [0, 1, 0, 0, 1])
    assert act(tsum, g) == act(t1, g) + act(t2, g)


def test_act_character_trivial(ctx5):
    rng = random.Random(44)
    g = rand_series(ctx5, rng)
    one = CyclotomicElem.one(ctx5, 0)
    assert act_character(one, g) == g


def test_act_character_level1_example(ctx3):
    z = CyclotomicElem.zeta(ctx3, 1)
    g = QExpansion(ctx3, [0, 1, 0, 1, 1], 4)
    got = act_character(z, g)
    assert got.coefficient(1) == z
    assert got.coefficient(3) == 1
    assert got.coefficient(4) == z


def test_act_character_group_law(ctx5):
    rng = random.Random(45)
    g = rand_series(ctx5, rng)
    z = CyclotomicElem.zeta(ctx5, 1)
    for i in range(1, 5):
        for j in range(1, 5):
            lhs = act_character(z ** i, act_character(z ** j, g))
            rhs = act_character(z ** (i + j), g)
            assert lhs == rhs


def test_act_character_rejects_deep_levels(ctx5):
    z = CyclotomicElem.zeta(ctx5, 4)
    g = QExpansion(ctx5, [1, 1])
    with pytest.raises(NotRootOfUnity):
        act_character(z, g)
    # psi(g) applies the same level cap
    with pytest.raises(NotRootOfUnity):
        psi(g).at_character(z)
    with pytest.raises(NotRootOfUnity):
        act_character(CyclotomicElem.zeta(ctx5, 2) + 1, g)


def test_psi_zero(ctx5):
    mu = psi(QExpansion.zero(ctx5))
    assert mu(monomial(ctx5, 2)) == QExpansion.zero(ctx5)


def test_psi_character_is_twist(ctx5):
    rng = random.Random(46)
    g = rand_series(ctx5, rng)
    z = CyclotomicElem.zeta(ctx5, 1)
    assert psi(g).at_character(z) == act_character(z, g)
    assert psi(g)(Character(z)) == act_character(z, g)


def test_psi_monomials_are_theta_powers(ctx5):
    rng = random.Random(47)
    g = rand_series(ctx5, rng)
    t = g
    for k in range(4):
        assert psi(g)(monomial(ctx5, k)) == t, k
        t = theta(t)


def test_psi_amice_coefficients(ctx5):
    rng = random.Random(48)
    g = rand_series(ctx5, rng)
    mu = amice_transform(psi(g), 6)
    from math import comb
    for k in range(7):
        b = mu.coeffs[k]
        for n in range(g.qprec + 1):
            assert b.coefficient(n) == comb(n, k) * g.coefficient(n)


def test_derivative_examples(ctx5):
    q = QExpansion(ctx5, [0, 1], 3)
    d = derivative_check(q)
    assert d.coefficient(1).a == 1 and d.coefficient(1).b == 1
    c = QExpansion(ctx5, [7], 3)
    d = derivative_check(c)
    assert d.coefficient(0).a == 7 and d.coefficient(0).b == 0
    q2 = QExpansion(ctx5, [0, 0, 1], 3)
    d = derivative_check(q2)
    assert d.coefficient(2).a == 1 and d.coefficient(2).b == 2


def test_derivative_eps_part_is_theta(ctx5):
    rng = random.Random(49)
    for _ in range(20):
        g = rand_series(ctx5, rng)
        d = derivative_check(g)
        t = theta(g)
        for n in range(g.qprec + 1):
            assert d.coefficient(n).a == g.coefficient(n)
            assert d.coefficient(n).b == t.coefficient(n)


def test_up_vp_compatibility(ctx5):
    rng = random.Random(50)
    for _ in range(5):
        f = multiply(monomial(ctx5, 1), indicator(ctx5, 1, 2))
        g = rand_series(ctx5, rng)
        fp = Scaled(f, PadicInt(ctx5, 5))
        assert act(f, v_p(g)) == v_p(act(fp, g))
        assert u_p(act(f, g)) == act(fp, u_p(g))


# -- the flat representation against PadicInt-list arithmetic ------------------

def _cyclo_shape(c):
    if isinstance(c, PadicInt):
        return ("scalar", c.residue, c.prec)
    return ("cyclo", c.level, [(x.residue, x.prec) for x in c.coeffs])


def _draw_coeffs(data, ctx, n):
    from hypothesis import strategies as st

    N = ctx.N
    residue = st.integers(0, 2 * ctx.modulus)
    coeff = st.one_of(st.just((0, N)), st.tuples(st.just(0), st.integers(0, N - 1)),
                      st.tuples(residue, st.integers(0, N - 1)),
                      st.tuples(residue, st.just(N)))
    return [PadicInt(ctx, r, e)
            for r, e in data.draw(st.lists(coeff, min_size=n, max_size=n))]


def _draw_fn(data, ctx):
    """A polynomial, a step table or their product, from drawn coefficients
    with mixed precisions."""
    from hypothesis import strategies as st
    from padicq import LocallyConstant, Product

    level = data.draw(st.integers(0, 2))
    coeffs = _draw_coeffs(data, ctx, data.draw(st.integers(1, 4)))
    table = _draw_coeffs(data, ctx, ctx.p ** level)
    poly, step = Polynomial(ctx, coeffs), LocallyConstant(ctx, level, table)
    return data.draw(st.sampled_from([poly, step, Product(poly, step)]))


def test_act_and_twists_match_padicint_lists():
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from padicq import PadicContext

    @settings(max_examples=120)
    @given(st.data())
    def inner(data):
        ctx = PadicContext(data.draw(st.sampled_from([3, 5, 7])),
                           data.draw(st.integers(2, 6)), data.draw(st.integers(1, 60)))
        qp = data.draw(st.integers(0, ctx.M))
        coeffs = _draw_coeffs(data, ctx, qp + 1)
        g = QExpansion(ctx, coeffs, qp)
        f = _draw_fn(data, ctx)
        got = act(f, g)
        want = [f.evaluate(PadicInt(ctx, n)) * c for n, c in enumerate(coeffs)]
        assert got.qprec == qp
        assert [_cyclo_shape(c) for c in got.coeffs] == [_cyclo_shape(c) for c in want]
        # a power of zeta, or one times 1 + p^(N-1) zeta: a root of unity mod
        # p^N that is not a signed monomial
        level = data.draw(st.integers(0, 2))
        zeta = CyclotomicElem.zeta_power(ctx, level, data.draw(st.integers(0, 50)))
        if level and data.draw(st.booleans()):
            zeta = zeta * (1 + ctx.pows[ctx.N - 1] * CyclotomicElem.zeta(ctx, level))
        pm = ctx.p ** zeta.level
        powers = [CyclotomicElem.one(ctx, 0)]
        for _ in range(pm - 1):
            powers.append(powers[-1] * zeta)
        try:
            twisted = act_character(zeta, g)
        except NotRootOfUnity:
            assert not zeta.is_root_of_unity()
            return
        want = [powers[n % pm] * c for n, c in enumerate(coeffs)]
        assert [_cyclo_shape(c) for c in twisted.coeffs] == \
            [_cyclo_shape(c) for c in want]
        # a ring-valued series twists element by element
        again = act_character(zeta, twisted)
        assert [_cyclo_shape(c) for c in again.coeffs] == \
            [_cyclo_shape(powers[n % pm] * c) for n, c in enumerate(want)]

    inner()


def test_eisenstein_measure_matches_padicint_lists():
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from padicq import EisensteinMeasure, PadicContext, PadicqError

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def inner(data):
        ctx = PadicContext(data.draw(st.sampled_from([3, 5, 7])),
                           data.draw(st.integers(2, 6)), data.draw(st.integers(1, 40)))
        a = PadicInt(ctx, data.draw(st.sampled_from([2, ctx.p + 1, ctx.modulus - 1])))
        f = _draw_fn(data, ctx)
        mu = EisensteinMeasure(ctx, a)
        try:
            const = mu.kl.value(f)
        except PadicqError as exc:
            with pytest.raises(type(exc)):
                mu(f)
            return
        want = [const]
        for n in range(1, ctx.M + 1):
            acc = PadicInt(ctx, 0)
            for d in range(1, n + 1):
                if n % d == 0:
                    acc = acc + 2 * (f.evaluate(PadicInt(ctx, d))
                                     - a * f.evaluate(a * d))
            want.append(acc)
        assert [_cyclo_shape(c) for c in mu(f).coeffs] == \
            [_cyclo_shape(c) for c in want]

    inner()


def test_eisenstein_measure_claims_only_known_digits():
    # another lift of every coefficient of f, inside its stated precision,
    # gives a series that agrees to the precision the first one claims
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from padicq import (EisensteinMeasure, LocallyConstant, PadicContext,
                        PadicqError, Product)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def inner(data):
        ctx = PadicContext(data.draw(st.sampled_from([3, 5, 7])),
                           data.draw(st.integers(2, 6)), data.draw(st.integers(1, 30)))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        coeffs = _draw_coeffs(data, ctx, data.draw(st.integers(1, 4)))
        level = data.draw(st.integers(0, 2))
        table = _draw_coeffs(data, ctx, ctx.p ** level)

        def lift(c):
            return PadicInt(ctx, c.residue
                            + rng.randrange(ctx.modulus) * ctx.pows[c.prec])

        shape = data.draw(st.integers(0, 2))

        def build(cs, tab):
            poly, step = Polynomial(ctx, cs), LocallyConstant(ctx, level, tab)
            return [poly, step, Product(poly, step)][shape]

        mu = EisensteinMeasure(ctx, PadicInt(ctx, 2))
        try:
            got = mu(build(coeffs, table))
        except PadicqError:
            return
        other = mu(build([lift(c) for c in coeffs], [lift(v) for v in table]))
        assert all((x - y) % ctx.pows[e] == 0
                   for x, y, e in zip(got.res, other.res, got.prec))

    inner()
