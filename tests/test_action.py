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
    # another lift of every table entry, inside its stated precision, gives
    # a series that agrees, constant term included, to the precision the
    # first one claims: polynomials with low-precision coefficients and
    # zeros, step tables, their products, and characters (ring-valued) of
    # roots of unity known to few digits
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from padicq import (Character, EisensteinMeasure, LocallyConstant,
                        PadicContext, PadicqError, Product)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def inner(data):
        ctx = PadicContext(data.draw(st.sampled_from([3, 5, 7])),
                           data.draw(st.integers(2, 6)), data.draw(st.integers(1, 30)))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        ar = data.draw(st.integers(1, ctx.modulus - 1).filter(
            lambda x: x % ctx.p != 0))
        coeffs = _draw_coeffs(data, ctx, data.draw(st.integers(1, 4)))
        level = data.draw(st.integers(0, 2))
        table = _draw_coeffs(data, ctx, ctx.p ** level)
        # a root of unity of level m known to e = N - m digits: every
        # zeta (1 + p^e y) is one too, since (1 + p^e y)^(p^m) = 1 mod p^N
        m = data.draw(st.integers(1, 2))
        zeta = CyclotomicElem.zeta_power(ctx, m, data.draw(st.integers(1, 50)))
        e = ctx.N - m if ctx.N > m and data.draw(st.booleans()) else ctx.N
        y = CyclotomicElem(ctx, m, [PadicInt(ctx, rng.randrange(ctx.modulus))
                                    for _ in zeta.res])
        zetas = (CyclotomicElem(ctx, m, [PadicInt(ctx, r, e) for r in zeta.res]),
                 zeta * (1 + ctx.pows[e] * y))

        def lift(c):
            return PadicInt(ctx, c.residue
                            + rng.randrange(ctx.modulus) * ctx.pows[c.prec])

        def build(cs, tab, z):
            poly, step = Polynomial(ctx, cs), LocallyConstant(ctx, level, tab)
            return [poly, step, Product(poly, step), Character(z),
                    Product(Product(poly, step), Character(z))]

        mu = EisensteinMeasure(ctx, PadicInt(ctx, ar))
        fs = build(coeffs, table, zetas[0])
        gs = build([lift(c) for c in coeffs], [lift(v) for v in table], zetas[1])
        for f, g in zip(fs, gs):
            try:
                got = mu(f)
            except PadicqError:
                continue
            for x, y in zip(got.coeffs, mu(g).coeffs):
                if isinstance(x, PadicInt):
                    x, y = CyclotomicElem.from_scalar(x), CyclotomicElem.from_scalar(y)
                assert all((u - v) % ctx.pows[e] == 0
                           for u, v, e in zip(x.res, y.res, x.prec))

    inner()
