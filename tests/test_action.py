import random

import pytest

from padicq import (CyclotomicElem, MahlerSeries, NotRootOfUnity, PadicInt,
                    Polynomial, QExpansion, Scaled, act, act_character,
                    amice_transform, constant_fn, indicator, monomial,
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


# ref_act_character is act_character as it stood when a ring-valued series
# kept one element per coefficient, each at its own level; a series now
# keeps one flat series per coordinate at a single level, so the two are
# compared after lifting every element to that level.

def ref_act_character(zeta, coeffs):
    pm = zeta.ctx.p ** zeta.level
    powers = [CyclotomicElem.one(zeta.ctx, 0)]
    for _ in range(min(pm, len(coeffs)) - 1):
        powers.append(powers[-1] * zeta)
    return [powers[n % pm] * c for n, c in enumerate(coeffs)]


def _shape(g):
    """(level, coordinate residues, coordinate precisions) of a series."""
    parts = g.parts or (g,)
    return g.level, [c.res for c in parts], [c.prec for c in parts]


def _lifted_shape(elems, level=None):
    """The same triple for a list of ring elements lifted to ``level``,
    by default the highest level among them."""
    if level is None:
        level = max(getattr(c, "level", 0) for c in elems)
    els = [(c if isinstance(c, CyclotomicElem) else CyclotomicElem.from_scalar(c))
           .lift_to(level) for c in elems]
    return (level, [[x.res[i] for x in els] for i in range(len(els[0].res))],
            [[x.prec[i] for x in els] for i in range(len(els[0].res))])


def _draw_coeffs(data, ctx, n, kinds=("mixed",)):
    """n scalars of a kind drawn from ``kinds``: mixed precisions, all known
    to N digits ("full"), or all but one, which is a digit short ("short")."""
    from hypothesis import strategies as st

    N = ctx.N
    residue = st.integers(0, 2 * ctx.modulus)
    coeff = st.one_of(st.just((0, N)), st.tuples(st.just(0), st.integers(0, N - 1)),
                      st.tuples(residue, st.integers(0, N - 1)),
                      st.tuples(residue, st.just(N)))
    kind = data.draw(st.sampled_from(kinds))
    if kind == "mixed":
        pairs = data.draw(st.lists(coeff, min_size=n, max_size=n))
    else:
        pairs = [(r, N) for r in data.draw(st.lists(residue, min_size=n, max_size=n))]
    if kind == "short":
        i = data.draw(st.integers(0, n - 1))
        pairs[i] = (pairs[i][0], N - 1)
    return [PadicInt(ctx, r, e) for r, e in pairs]


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
        try:
            twisted = act_character(zeta, g)
        except NotRootOfUnity:
            assert not zeta.is_root_of_unity()
            return
        want = ref_act_character(zeta, coeffs)
        assert _shape(twisted) == _lifted_shape(want, zeta.level)
        # a ring-valued series twists like its elements
        again = act_character(zeta, twisted)
        assert _shape(again) == \
            _lifted_shape(ref_act_character(zeta, want), zeta.level)
        # coefficients known to N digits, or all but one
        known = _draw_coeffs(data, ctx, qp + 1, ("full", "short"))
        assert _shape(act_character(zeta, QExpansion(ctx, known, qp))) == \
            _lifted_shape(ref_act_character(zeta, known), zeta.level)

    inner()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_act_character_matches_element_lists_for_every_level2_power(p):
    # every standard power T^u at level 2, on series known to all N digits
    # (the slice moves, negations and products) and to mixed precisions,
    # and on level-1 ring series, one coefficient long among them
    from padicq import PadicContext

    ctx = PadicContext(p, 5, 60)
    rng = random.Random(p)
    full = [PadicInt(ctx, rng.randrange(ctx.modulus)) for _ in range(ctx.M + 1)]
    mixed = [PadicInt(ctx, rng.randrange(ctx.modulus), rng.randrange(ctx.N + 1))
             for _ in range(ctx.M + 1)]
    z1 = CyclotomicElem.zeta_power(ctx, 1, 1)
    for u in range(p ** 2):
        zeta = CyclotomicElem.zeta_power(ctx, 2, u)
        for coeffs in (full, mixed, full[:7], full[:1]):
            g = QExpansion(ctx, coeffs, len(coeffs) - 1)
            assert _shape(act_character(zeta, g)) == \
                _lifted_shape(ref_act_character(zeta, coeffs), 2)
            if len(coeffs) < 10:
                ring = ref_act_character(z1, coeffs)
                assert _shape(act_character(zeta, act_character(z1, g))) == \
                    _lifted_shape(ref_act_character(zeta, ring), 2)


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


def _draw_zeta(data, ctx, level):
    """A p^level-th root of unity: a power of zeta, that power times
    1 + p^(N-1) zeta (not a signed monomial), or one known to N - 1 digits."""
    from hypothesis import strategies as st

    zeta = CyclotomicElem.zeta_power(ctx, level, data.draw(st.integers(0, 200)))
    kind = data.draw(st.integers(0, 2)) if level else 0
    if kind == 1:
        zeta = zeta * (1 + ctx.pows[ctx.N - 1] * CyclotomicElem.zeta(ctx, level))
    elif kind == 2:
        zeta = CyclotomicElem(ctx, level, [PadicInt(ctx, r, ctx.N - 1)
                                           for r in zeta.res])
    return zeta


def test_ring_series_match_element_lists():
    # twists of twisted series at every pair of levels (a level-1 twist of
    # a level-2 series among them), U_p, V_p, sums, differences and equality
    # on ring series, each against the element-list arithmetic after lifting
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from padicq import PadicContext

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def inner(data):
        ctx = PadicContext(data.draw(st.sampled_from([3, 5, 7])),
                           data.draw(st.integers(2, 6)), data.draw(st.integers(1, 40)))
        qp = data.draw(st.integers(0, ctx.M))
        coeffs = _draw_coeffs(data, ctx, qp + 1)
        g = QExpansion(ctx, coeffs, qp)
        z1, z2 = (_draw_zeta(data, ctx, data.draw(st.integers(0, 2))) for _ in "12")
        t1, t2 = act_character(z1, g), act_character(z2, g)
        r1, r2 = ref_act_character(z1, coeffs), ref_act_character(z2, coeffs)
        top = max(z1.level, z2.level)
        assert _shape(act_character(z2, t1)) == \
            _lifted_shape(ref_act_character(z2, r1), top)
        p, zero = ctx.p, PadicInt(ctx, 0)
        assert _shape(u_p(t1)) == _lifted_shape(r1[::p], z1.level)
        vp = [zero] * (qp + 1)
        vp[::p] = r1[: qp // p + 1]
        assert _shape(v_p(t1)) == _lifted_shape(vp, z1.level)
        for x, y, rx, ry in ((t1, t2, r1, r2), (t1, g, r1, coeffs),
                             (g, t2, coeffs, r2)):
            level = max(x.level, y.level)
            assert _shape(x + y) == \
                _lifted_shape([a + b for a, b in zip(rx, ry)], level)
            assert _shape(x - y) == \
                _lifted_shape([a - b for a, b in zip(rx, ry)], level)
            assert (x == y) == all(a == b for a, b in zip(rx, ry))
        assert _shape(-t1) == _lifted_shape([-a for a in r1], z1.level)
        assert t1 == t1 + g.scale(ctx.modulus)
        # the action of the character n -> z2^n on scalar and ring series
        # (at level 0 the scalar 1)
        chi = [Character(z2).evaluate(PadicInt(ctx, i)) for i in range(qp + 1)]
        assert _shape(act(Character(z2), g)) == \
            _lifted_shape([v * c for v, c in zip(chi, coeffs)])
        assert _shape(act(Character(z2), t1)) == _lifted_shape(
            [v * c for v, c in zip(chi, r1)],
            max(z1.level, *(getattr(v, "level", 0) for v in chi)))

    inner()


def test_verify_action_flags_a_corrupted_theta(ctx5, monkeypatch):
    # negative control: a theta with one wrong coefficient must fail the
    # derivative check of the action suite
    import padicq.verify as verify

    assert verify.suite_action(ctx5).passed
    true_theta = verify.theta

    def corrupted(g):
        t = true_theta(g)
        res = list(t.res)
        res[3] = (res[3] + 1) % ctx5.pows[t.prec[3]]
        return QExpansion.from_flat(ctx5, res, t.prec)

    monkeypatch.setattr(verify, "theta", corrupted)
    got = verify.suite_action(ctx5)
    assert not got.passed
    assert any("derivative" in msg for msg in got.failures)


def test_verify_action_flags_a_corrupted_non_torsion_action(ctx5, monkeypatch):
    # negative control: an action of x^z with one wrong coefficient must
    # fail the x^n a_n line of the action suite first, and otherwise only
    # the derivative lines, which act by x^z at x = 1 + p^s
    import padicq.verify as verify

    true_act = verify.act

    def corrupted(f, g):
        out = true_act(f, g)
        if not isinstance(f, verify.MahlerSeries):
            return out
        res = list(out.res)
        res[3] = (res[3] + 1) % ctx5.pows[out.prec[3]]
        return QExpansion.from_flat(ctx5, res, out.prec)

    monkeypatch.setattr(verify, "act", corrupted)
    got = verify.suite_action(ctx5)
    assert not got.passed
    assert got.failures[0] == "act(x^z, g) != x^n a_n at x = 1 + p"
    assert got.failures[1:] == [
        f"derivative: act(x^z, g) != g + p^s theta(g) (series {i})" for i in (0, 1)]


@pytest.mark.parametrize("p,levels", [(3, range(4)), (5, range(4)), (7, range(3))])
def test_act_character_against_exact_oracle(p, levels, oracles):
    # zeta_{p^m}^e twists a_n to zeta^(e n) a_n: every coordinate agrees
    # with the exact oracle to the precision of a_n, and claims no less
    from padicq import PadicContext

    rng = random.Random(p)
    ctx = PadicContext(p, 6, 40)
    exact = oracles.Exact(p, ctx.N)
    for m in levels:
        for e in (1, p - 1, rng.randrange(p ** m + 1)):
            coeffs = [PadicInt(ctx, rng.randrange(ctx.modulus),
                               rng.choice((ctx.N, ctx.N, 3, 1, 0)))
                      for _ in range(ctx.M + 1)]
            g = act_character(CyclotomicElem.zeta_power(ctx, m, e),
                              QExpansion(ctx, coeffs))
            parts, ns = g.parts or (g,), range(ctx.M + 1)
            got = {"kind": "cyclo_series" if m else "series", "M": ctx.M,
                   "coeffs": [[str(c.res[n]) for c in parts] for n in ns],
                   "prec": [[c.prec[n] for c in parts] for n in ns]}
            rows = [exact.zeta_power(m, e * n) if m else [1] for n in ns]
            want = {"kind": got["kind"], "M": ctx.M,
                    "coeffs": [[str(x * a.residue % ctx.modulus) for x in row]
                               for row, a in zip(rows, coeffs)],
                    "prec": [[a.prec] * len(row) for row, a in zip(rows, coeffs)]}
            assert g.level == m and len(parts) == len(rows[0])
            assert oracles.agree(want, got, p), (m, e)


def test_non_torsion_action_integrates_theta(oracles):
    # x = 1 + p t is no root of unity.  x^z = sum_k (x - 1)^k C(z, k), whose
    # Mahler coefficients are 0 mod p^N from k = N on, acts by q -> x q:
    # a_n -> x^n a_n = sum_{k<K} (log x)^k / k! theta^k(g)_n, and acting by
    # x^z then y^z is acting by (x y)^z.  The program claims N - floor(log_p
    # (N - 1)) digits: binomial_padic charges C(z, k) floor(log_p k) digits,
    # though (x - 1)^k has valuation k
    from fractions import Fraction

    from padicq import MahlerSeries, PadicContext, series_to_json

    rng = random.Random(15)
    for p in (3, 5, 7):
        N = rng.randint(6, 12)
        ctx, K = PadicContext(p, N, 60), 2 * N  # v((log x)^k / k!) >= (k + 1) / 2
        mod, claimed = ctx.modulus, N - max(e for e in range(N) if p ** e < N)
        g = rand_series(ctx, rng)

        def power(x):
            return MahlerSeries(ctx, [pow(x - 1, k, mod) for k in range(N)], N)

        def check(want_res, got):
            want = oracles.series([r % mod for r in want_res], claimed, p, N)
            assert oracles.agree(want, got, p)
            assert oracles.agree(dict(want, prec=got["prec"]), got, p)

        for t in (1, 2, p):
            x, u = 1 + p * t, Fraction(p * t)
            got = series_to_json(act(power(x), g))
            check([pow(x, n, mod) * a for n, a in enumerate(g.res)], got)
            log = sum((-1) ** (i + 1) * u ** i / i for i in range(1, 2 * N + 4))
            cs, c = [], Fraction(1)
            for k in range(K):  # (log x)^k / k!, p-integral
                assert c.denominator % p
                cs.append(c.numerator * pow(c.denominator, -1, mod))
                c = c * log / (k + 1)
            acc, tk = [0] * len(g.res), g
            for ck in cs:
                acc, tk = [s + ck * r for s, r in zip(acc, tk.res)], theta(tk)
            check(acc, got)
            y = 1 + p * rng.randrange(1, p * p)
            check(act(power(x * y % mod), g).res,
                  series_to_json(act(power(x), act(power(y), g))))




def test_one_plus_p_s_acts_as_one_plus_p_s_theta():
    # x = 1 + p^s with 2s >= N has x^n = 1 + n p^s mod p^N, so x^z is the
    # Mahler series 1 + p^s z and acts by g -> g + p^s theta(g): the action
    # differentiates to theta.  Both sides and x^n a_n on exact ints agree
    # in residue and claimed precision, on coefficients known to mixed
    # precisions
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from padicq import PadicContext

    def power(ctx):
        ps = ctx.pows[(ctx.N + 1) // 2]
        return ps, MahlerSeries(ctx, [1, ps], ctx.N)

    # q, a constant and q^2 at p = 5, N = 12 go to x q, the constant, x^2 q^2
    ctx = PadicContext(5, 12, 3)
    ps, xz = power(ctx)
    for n, c, want in ((1, 1, 1 + ps), (0, 7, 7), (2, 1, 1 + 2 * ps)):
        got = act(xz, QExpansion(ctx, [0] * n + [c], 3))
        assert got.coefficient(n) == want and got.coefficient(n).prec == ctx.N
        assert got == QExpansion(ctx, [0] * n + [want], 3)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def inner(data):
        ctx = PadicContext(data.draw(st.sampled_from([3, 5, 7])),
                           data.draw(st.integers(1, 8)), data.draw(st.integers(1, 40)))
        qp = data.draw(st.integers(0, ctx.M))
        coeffs = _draw_coeffs(data, ctx, qp + 1)
        g = QExpansion(ctx, coeffs, qp)
        ps, xz = power(ctx)
        got, lin = act(xz, g), g + theta(g).scale(ps)
        assert got.qprec == qp
        assert (got.res, got.prec) == (lin.res, lin.prec)
        assert list(zip(got.res, got.prec)) == \
            [((1 + ps) ** n * c.residue % ctx.pows[c.prec], c.prec)
             for n, c in enumerate(coeffs)]

    inner()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_twist_then_act_at_non_torsion_points(p, oracles):
    # acting by x^z, x = 1 + p t, commutes with the twist by a standard
    # root zeta: both orders give x^n zeta^n a_n, coordinate by coordinate,
    # to the N - floor(log_p (N - 1)) digits act claims at x^z
    from padicq import MahlerSeries, PadicContext

    rng = random.Random(p + 15)
    N = rng.randint(6, 12)
    ctx = PadicContext(p, N, 60)
    mod, claimed = ctx.modulus, N - max(e for e in range(N) if p ** e < N)
    exact, g, ns = oracles.Exact(p, N), rand_series(ctx, rng), range(ctx.M + 1)

    def flat(h):
        return {"kind": "cyclo_series", "M": ctx.M,
                "coeffs": [[str(c.res[n]) for c in h.parts] for n in ns],
                "prec": [[c.prec[n] for c in h.parts] for n in ns]}

    for t in (1, 2):
        x = 1 + p * t
        xz = MahlerSeries(ctx, [pow(x - 1, k, mod) for k in range(N)], N)
        for m in (1, 2):
            zeta = CyclotomicElem.zeta(ctx, m)
            rows = [exact.zeta_power(m, n) for n in ns]
            want = {"kind": "cyclo_series", "M": ctx.M,
                    "coeffs": [[str(pow(x, n, mod) * z * a % mod) for z in row]
                               for n, row, a in zip(ns, rows, g.res)],
                    "prec": [[claimed] * len(row) for row in rows]}
            twist_first = flat(act(xz, act_character(zeta, g)))
            act_first = flat(act_character(zeta, act(xz, g)))
            assert twist_first == act_first, (t, m)
            assert oracles.agree(want, act_first, p), (t, m)
            assert oracles.agree(dict(want, prec=act_first["prec"]), act_first, p)