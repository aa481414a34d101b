import random
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicq import (Character, ContinuousFn, CyclotomicElem,
                    LocallyConstant, MahlerSeries, NotRootOfUnity, NotUnit,
                    PadicContext, PadicInt, PadicqError, Polynomial,
                    PrecisionExhausted, Product, QExpansion, Scaled, TwoVarFn,
                    UnsupportedShape, ZeroExtendedUnits, act, binomial,
                    binomial_padic, eisenstein_eval, fn_from_json, indicator,
                    kl_constant, mahler_coeffs, monomial, multiply,
                    poly_lc_terms, scale_argument)
from padicq.measures import kl_constant_functional
from padicq.zpfun import values


def test_evaluate_polynomial(ctx5):
    f = monomial(ctx5, 2)
    assert f.evaluate(PadicInt(ctx5, 3)) == 9


def test_evaluate_character(ctx3):
    z = CyclotomicElem.zeta(ctx3, 1)
    f = Character(z)
    assert f.evaluate(PadicInt(ctx3, 4)) == z


def test_evaluate_indicator(ctx5):
    f = indicator(ctx5, 1, 1)
    assert f.evaluate(PadicInt(ctx5, 6)) == 1
    assert f.evaluate(PadicInt(ctx5, 7)) == 0
    # dict classes are read mod p^level; a class left out is an exact 0
    g = LocallyConstant(ctx5, 2, {-1: 3, 27: PadicInt(ctx5, 2, 4)})
    got = [g.evaluate(PadicInt(ctx5, x)) for x in (24, 49, 2, 0)]
    assert [(v.residue, v.prec) for v in got] == \
        [(3, ctx5.N), (3, ctx5.N), (2, 4), (0, ctx5.N)]
    assert indicator(ctx5, 2, -3).evaluate(PadicInt(ctx5, 22)) == 1


def test_mahler_square(ctx5):
    # finite differences of 0,1,4,9,16: first row 1,3,5,7; second 2,2,2
    c = mahler_coeffs(monomial(ctx5, 2), 6)
    assert [x.residue for x in c] == [0, 1, 2, 0, 0, 0, 0]


def test_mahler_constant(ctx5):
    c = mahler_coeffs(Polynomial(ctx5, [1]), 5)
    assert [x.residue for x in c] == [1, 0, 0, 0, 0, 0]


def test_mahler_character_is_zeta_minus_one_powers(ctx5):
    z = CyclotomicElem.zeta(ctx5, 1)
    c = mahler_coeffs(Character(z), 10)
    t = z - 1
    for k in range(11):
        assert c[k] == t ** k, k


def test_mahler_character_decay(ctx5):
    # c_k = (zeta - 1)^k, of (zeta - 1)-adic valuation k: the decay of
    # character Mahler data, checked for k <= 4 (p-1) at levels 1 and 2
    for level in (1, 2):
        z = CyclotomicElem.zeta(ctx5, level)
        c = mahler_coeffs(Character(z), 4 * 4)
        for k in range(4 * 4 + 1):
            assert c[k] == (z - 1) ** k, (level, k)


def mahler_reconstruct(c, n):
    acc = None
    for k in range(n + 1):
        term = c[k] * comb(n, k)
        acc = term if acc is None else acc + term
    return acc


@pytest.mark.parametrize("builder", [
    lambda ctx: monomial(ctx, 3),
    lambda ctx: Polynomial(ctx, [7, 0, 2, 1]),
    lambda ctx: indicator(ctx, 1, 2),
    lambda ctx: indicator(ctx, 2, 13),
    lambda ctx: Character(CyclotomicElem.zeta(ctx, 1)),
    lambda ctx: multiply(monomial(ctx, 2), indicator(ctx, 1, 1)),
    lambda ctx: ZeroExtendedUnits(monomial(ctx, 1)),
    lambda ctx: Scaled(indicator(ctx, 1, 1), PadicInt(ctx, 2)),
])
def test_mahler_reconstruction(ctx5, builder):
    f = builder(ctx5)
    K = 12
    c = mahler_coeffs(f, K)
    for n in range(K + 1):
        assert mahler_reconstruct(c, n) == f.evaluate(PadicInt(ctx5, n)), n


def test_multiply_commutes_with_evaluate(ctx5):
    rng = random.Random(7)
    fs = [monomial(ctx5, 1), indicator(ctx5, 1, 2),
          Character(CyclotomicElem.zeta(ctx5, 1)), Polynomial(ctx5, [3, 1])]
    for f in fs:
        for g in fs:
            h = multiply(f, g)
            for _ in range(50):
                x = PadicInt(ctx5, rng.randrange(ctx5.modulus))
                assert h.evaluate(x) == f.evaluate(x) * g.evaluate(x)


def test_multiply_polynomials_collapses(ctx5):
    f = multiply(monomial(ctx5, 1), monomial(ctx5, 1))
    assert isinstance(f, Polynomial)
    for n in range(11):
        assert f.evaluate(PadicInt(ctx5, n)) == n * n


def test_multiply_disjoint_indicators_vanish(ctx5):
    h = multiply(indicator(ctx5, 1, 1), indicator(ctx5, 1, 2))
    for x in range(25):
        assert h.evaluate(PadicInt(ctx5, x)) == 0


def test_scale_argument_linear(ctx5):
    f = scale_argument(monomial(ctx5, 1), PadicInt(ctx5, 3))
    for x in range(10):
        assert f.evaluate(PadicInt(ctx5, x)) == 3 * x


def test_scale_argument_indicator(ctx5):
    # 2z = 1 mod 5 iff z = 3 mod 5
    f = scale_argument(indicator(ctx5, 1, 1), PadicInt(ctx5, 2))
    for x in range(10):
        assert f.evaluate(PadicInt(ctx5, x)) == (1 if x % 5 == 3 else 0)


def test_scale_argument_character(ctx5):
    z = CyclotomicElem.zeta(ctx5, 1)
    f = scale_argument(Character(z), PadicInt(ctx5, 2))
    g = Character(z ** 2)
    for x in range(10):
        assert f.evaluate(PadicInt(ctx5, x)) == g.evaluate(PadicInt(ctx5, x))


def test_scale_argument_rejects_non_units(ctx5):
    with pytest.raises(NotUnit):
        scale_argument(monomial(ctx5, 1), PadicInt(ctx5, 5))


def test_scale_commutes_with_evaluate(ctx5):
    rng = random.Random(11)
    f = multiply(monomial(ctx5, 2), indicator(ctx5, 1, 3))
    u = PadicInt(ctx5, 7)
    g = scale_argument(f, u)
    for _ in range(50):
        x = PadicInt(ctx5, rng.randrange(ctx5.modulus))
        assert g.evaluate(x) == f.evaluate(u * x)


def test_zero_extended_units(ctx5):
    f = ZeroExtendedUnits(monomial(ctx5, 1))
    for x in range(25):
        want = 0 if x % 5 == 0 else x
        assert f.evaluate(PadicInt(ctx5, x)) == want


def test_lc_level(ctx5):
    assert indicator(ctx5, 2, 3).lc_level == 2
    assert Character(CyclotomicElem.zeta(ctx5, 1)).lc_level == 1
    assert monomial(ctx5, 2).lc_level is None
    assert Polynomial(ctx5, [4]).lc_level == 0
    assert ZeroExtendedUnits(indicator(ctx5, 2, 3)).lc_level == 2
    assert multiply(indicator(ctx5, 1, 1), indicator(ctx5, 2, 3)).lc_level == 2


def _ref_lc_level(f):
    """The level recursion over the function classes, kept as a reference
    for the attribute each constructor sets."""
    if isinstance(f, Polynomial):
        return 0 if f.degree() == 0 else None
    if isinstance(f, (Character, LocallyConstant)):
        return f.level
    if isinstance(f, Product):
        a, b = _ref_lc_level(f.f), _ref_lc_level(f.g)
        return max(a, b) if a is not None and b is not None else None
    if isinstance(f, Scaled):
        return _ref_lc_level(f.inner)
    if isinstance(f, ZeroExtendedUnits):
        inner = _ref_lc_level(f.inner)
        return max(inner, 1) if inner is not None else None
    return None


def _ref_ring_level(f):
    """The deepest level of a character factor, 0 for none (reference)."""
    if isinstance(f, Character):
        return f.level
    if isinstance(f, Product):
        return max(_ref_ring_level(f.f), _ref_ring_level(f.g))
    if isinstance(f, (Scaled, ZeroExtendedUnits)):
        return _ref_ring_level(f.inner)
    return 0


def _ref_step_level(f):
    """The level of f's poly_lc_terms tables: the deepest step or character
    factor, 0 for none (reference)."""
    if isinstance(f, (Character, LocallyConstant)):
        return f.level
    if isinstance(f, Product):
        return max(_ref_step_level(f.f), _ref_step_level(f.g))
    if isinstance(f, Scaled):
        return _ref_step_level(f.inner)
    if isinstance(f, ZeroExtendedUnits):
        return max(_ref_step_level(f.inner), 1)
    return 0


@settings(max_examples=150)
@given(st.data())
def test_level_attributes_match_the_recursions(data):
    ctx = TABLE_CTXS[data.draw(st.sampled_from(sorted(TABLE_CTXS)))]
    f = data.draw(_functions(ctx, depth=data.draw(st.integers(2, 3))))
    assert (f.lc_level, f.step_level, f.ring_level) == \
        (_ref_lc_level(f), _ref_step_level(f), _ref_ring_level(f))
    # a function with tables builds them at its step level
    try:
        m, _ = poly_lc_terms(f)
    except PadicqError:
        return
    assert m == f.step_level


@pytest.mark.parametrize("p", [3, 5, 7])
def test_binomial_is_binomial_padic(p):
    # C(z, k) as a one-term Mahler series has the residue and precision of
    # binomial_padic wherever that certifies a digit, and refuses where it
    # certifies none; C(z, 0) is the constant 1, a polynomial, which like
    # every polynomial is known to the argument's precision, 0 included
    ctx = PadicContext(p, 4, 1)
    rng = random.Random(p)
    xs = [PadicInt(ctx, r, e) for e in range(ctx.N + 1)
          for r in (0, 1, p, rng.randrange(ctx.modulus))]
    for k in range(31):
        f = binomial(ctx, k)
        for x in xs:
            want = binomial_padic(x, k)
            if want.prec or k == 0:
                got = f.evaluate(x)
                assert (got.residue, got.prec) == (want.residue, want.prec)
            else:
                with pytest.raises(PrecisionExhausted):
                    f.evaluate(x)
    with pytest.raises(ValueError):
        binomial(ctx, -1)


@settings(max_examples=100)
@given(st.data())
def test_mahler_list_and_dict_agree(data):
    # a coefficient list and the {k: c_k} dict of the same entries are the
    # same series: values, refusals and the regularized constant term
    ctx = TABLE_CTXS[data.draw(st.sampled_from(sorted(TABLE_CTXS)))]
    cs = data.draw(st.lists(_scalars(ctx), max_size=12))
    t = data.draw(st.integers(0, ctx.N))
    f, g = MahlerSeries(ctx, cs, t), MahlerSeries(ctx, dict(enumerate(cs)), t)
    xs = data.draw(st.lists(st.integers(0, ctx.modulus - 1), min_size=1, max_size=4))
    for x in xs:
        e = data.draw(st.integers(0, ctx.N))
        assert _outcome(lambda: [f.evaluate(PadicInt(ctx, x, e))]) == \
            _outcome(lambda: [g.evaluate(PadicInt(ctx, x, e))])
    kl = kl_constant_functional(ctx, PadicInt(ctx, 2))
    assert _outcome(lambda: [kl.value(f)]) == _outcome(lambda: [kl.value(g)])


def test_poly_lc_terms_reconstructs(ctx5):
    cases = [
        multiply(monomial(ctx5, 2), indicator(ctx5, 1, 1)),
        ZeroExtendedUnits(multiply(monomial(ctx5, 1), Character(
            CyclotomicElem.zeta(ctx5, 1)))),
        Scaled(multiply(Polynomial(ctx5, [1, 2]), indicator(ctx5, 1, 4)),
               PadicInt(ctx5, 3)),
        Polynomial(ctx5, [5, 0, 1]),
    ]
    for f in cases:
        m, terms = poly_lc_terms(f)
        pm = ctx5.p ** m
        for x in range(2 * pm + 3):
            acc = None
            for j, tab in terms.items():
                term = tab[x % pm] * x ** j
                acc = term if acc is None else acc + term
            if acc is None:
                acc = PadicInt(ctx5, 0)
            assert acc == f.evaluate(PadicInt(ctx5, x)), (f, x)


def test_poly_lc_terms_rejects_mahler(ctx5):
    f = MahlerSeries(ctx5, [1, 2, 3], 6)
    with pytest.raises(UnsupportedShape):
        poly_lc_terms(f)


def test_mahler_series_tail_precision(ctx5):
    f = MahlerSeries(ctx5, [1, 1], 4)
    v = f.evaluate(PadicInt(ctx5, 3))
    assert v.prec == 4 and v == PadicInt(ctx5, 4, 4)
    bad = MahlerSeries(ctx5, [1], 0)
    with pytest.raises(PrecisionExhausted):
        bad.evaluate(PadicInt(ctx5, 1))


def _ref_mahler_evaluate(f, x):
    """MahlerSeries.evaluate as a PadicInt loop: sum_k c_k C(x, k) with
    binomial_padic, certified to the tail."""
    acc = PadicInt(f.ctx, 0, x.prec)
    for k, c in f.terms.items():
        acc = acc + c * binomial_padic(x, k)
    certified = min(acc.prec, f.tail_valuation)
    if certified <= 0:
        raise PrecisionExhausted("tail bound certifies no digits")
    return PadicInt(f.ctx, acc.residue, certified)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mahler_evaluate_matches_padicint_loop(data):
    # the sum on integers has the residue, precision and refusal of the
    # PadicInt loop: coefficients and arguments known to mixed precisions,
    # series long enough that C(x, k) loses digits, sparse {k: c_k} dicts
    # with gaps, tails <= 0
    ctx = PadicContext(data.draw(st.sampled_from([3, 5, 7])),
                       data.draw(st.integers(1, 8)), 4)
    f = MahlerSeries(ctx, data.draw(
        st.lists(_scalars(ctx), max_size=30)
        | st.dictionaries(st.integers(0, 60), _scalars(ctx), max_size=4)),
        data.draw(st.integers(-2, ctx.N + 2)))
    x = PadicInt(ctx, data.draw(st.integers(0, ctx.modulus - 1)),
                 data.draw(st.integers(0, ctx.N)))
    assert _outcome(lambda: [f.evaluate(x)]) == \
        _outcome(lambda: [_ref_mahler_evaluate(f, x)])


def test_locally_constant_requires_precision(ctx5):
    f = indicator(ctx5, 2, 3)
    with pytest.raises(PrecisionExhausted):
        f.evaluate(PadicInt(ctx5, 3, 1))


def test_fn_from_json(ctx5):
    f = fn_from_json(ctx5, '{"kind":"monomial","degree":3}')
    assert f.evaluate(PadicInt(ctx5, 2)) == 8
    g = fn_from_json(ctx5, {"kind": "indicator", "level": 1, "class": 2})
    assert g.evaluate(PadicInt(ctx5, 7)) == 1
    with pytest.raises(ValueError, match="unknown function kind 'character'"):
        fn_from_json(ctx5, {"kind": "character", "level": 1, "power": 1})
    prod = fn_from_json(ctx5, {"kind": "product", "factors": [
        {"kind": "monomial", "degree": 1},
        {"kind": "indicator", "level": 1, "class": 1}]})
    assert prod.evaluate(PadicInt(ctx5, 6)) == 6
    with pytest.raises(ValueError):
        fn_from_json(ctx5, {"kind": "nope"})


# -- the table evaluation path against pointwise evaluate ----------------------

# N = 6 keeps low precisions (0 .. N - 1) a large share of the draws
TABLE_CTXS = {p: PadicContext(p, 6, 20) for p in (3, 5, 7)}


@st.composite
def _scalars(draw, ctx):
    prec = draw(st.sampled_from([ctx.N, ctx.N, ctx.N, 0, 1, 3]))
    value = draw(st.sampled_from([0, 0, 1]) | st.integers(0, ctx.modulus - 1))
    return PadicInt(ctx, value, prec)


@st.composite
def _known_scalars(draw, ctx, n):
    """n scalars known to all N digits, or all of them but one, which is a
    digit short: the fast path of the table reads and the general branch."""
    res = draw(st.lists(st.sampled_from([0, 1]) | st.integers(0, ctx.modulus - 1),
                        min_size=n, max_size=n))
    short = draw(st.sampled_from([None, *range(n)]))
    return [PadicInt(ctx, r, ctx.N - (i == short)) for i, r in enumerate(res)]


@st.composite
def _table_entries(draw, ctx):
    if draw(st.integers(0, 4)) == 0:
        # a cyclotomic entry, its coefficients known to differing precisions
        zeta = CyclotomicElem.zeta_power(ctx, 1, draw(st.integers(0, ctx.p)))
        return CyclotomicElem(ctx, 1, [
            PadicInt(ctx, c.residue, draw(st.sampled_from([ctx.N, 2])))
            for c in zeta.coeffs])
    return draw(_scalars(ctx))


@st.composite
def _step_table(draw, ctx, level, entries):
    """A level-m table for LocallyConstant: its p^m entries, or a {class:
    value} dict whose classes may be negative or past p^m (read mod p^m; a
    class left out is 0).  entries(n) draws a list of n values."""
    n = ctx.p ** level
    if draw(st.booleans()):
        return draw(entries(n))
    classes = draw(st.lists(st.integers(-2 * n, 2 * n), max_size=min(n, 6),
                            unique=True))
    return dict(zip(classes, draw(entries(len(classes)))))


@st.composite
def _functions(draw, ctx, depth=2, known=False):
    """A drawn function; ``known`` draws polynomial coefficients and table
    entries with _known_scalars."""
    p = ctx.p
    kinds = ["polynomial", "monomial", "table", "character", "binomial", "mahler"]
    if depth:
        kinds += ["product", "scaled", "zero_extended"]
    kind = draw(st.sampled_from(kinds))
    if kind == "polynomial":
        if known:
            return Polynomial(ctx, draw(_known_scalars(ctx, draw(st.integers(1, 4)))))
        return Polynomial(ctx, draw(st.lists(_scalars(ctx), min_size=1,
                                             max_size=4)))
    if kind == "monomial":  # c z^j: one power row, c of any precision
        c = draw(st.just(PadicInt(ctx, 1)) | (_known_scalars(ctx, 1).map(
            lambda cs: cs[0]) if known else _scalars(ctx)))
        return Polynomial(ctx, [0] * draw(st.sampled_from([0, 1, 2, 5])) + [c])
    if kind == "table":
        level = draw(st.integers(0, 3 if p < 7 else 2))
        return LocallyConstant(ctx, level, draw(_step_table(
            ctx, level, (lambda n: _known_scalars(ctx, n)) if known else
            lambda n: st.lists(_table_entries(ctx), min_size=n, max_size=n))))
    if kind == "character":
        level = draw(st.integers(1, 2 if p < 7 else 1))
        power = draw(st.integers(0, p ** level - 1))
        zeta = CyclotomicElem.zeta_power(ctx, level, power)
        # a root known to fewer digits, or an element that is no root
        prec = draw(st.sampled_from([ctx.N, ctx.N, 2]))
        shift = draw(st.sampled_from([0, 0, 0, p]))
        return Character(CyclotomicElem(ctx, level, [
            PadicInt(ctx, c.residue + (shift if i == 0 else 0), prec)
            for i, c in enumerate(zeta.coeffs)]))
    if kind == "binomial":
        return binomial(ctx, draw(st.integers(0, 3)))
    if kind == "mahler":
        return MahlerSeries(ctx, draw(st.lists(_scalars(ctx), max_size=3)),
                            draw(st.integers(0, ctx.N)))
    inner = draw(_functions(ctx, depth - 1, known))
    if kind == "product":
        return Product(inner, draw(_functions(ctx, depth - 1, known)))
    if kind == "scaled":
        return Scaled(inner, draw(_scalars(ctx)))
    return ZeroExtendedUnits(inner)


def _shape(v):
    """(residue, prec) of a scalar; level and per-coefficient pairs of a
    cyclotomic value."""
    if isinstance(v, PadicInt):
        return ("scalar", v.residue, v.prec)
    return ("cyclo", v.level, [(c.residue, c.prec) for c in v.coeffs])


def _outcome(thunk):
    try:
        out = thunk()
    except PadicqError as exc:
        return ("raises", type(exc))
    if isinstance(out, QExpansion):  # a scalar series as its stored lists
        out = out.coeffs if out.parts else (out.res, out.prec)
    if isinstance(out, tuple):
        return ("ok", [("scalar", r, e) for r, e in zip(*out)])
    return ("ok", [_shape(v) for v in out])


def _old_mahler(f, K):
    vals = [f.evaluate(PadicInt(f.ctx, n)) for n in range(K + 1)]
    out = []
    for _ in range(K + 1):
        out.append(vals[0])
        vals = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    return out


@pytest.mark.parametrize("p", sorted(TABLE_CTXS))
def test_mahler_stops_at_a_zero_row(p):
    # K far past the degree: differencing stops at the first all-zero row,
    # with every residue and precision of the full K-round loop, also where
    # low-precision values keep the later rows nonzero as integers
    ctx = TABLE_CTXS[p]
    low = PadicInt(ctx, 2, 3)
    for f in (monomial(ctx, 2), Polynomial(ctx, [7, 0, 2, 1]),
              Polynomial(ctx, []), Polynomial(ctx, {0: low, 4: 1}),
              Polynomial(ctx, {1: PadicInt(ctx, 0, 2)}),
              MahlerSeries(ctx, [1, 2, 3], ctx.N),
              MahlerSeries(ctx, {0: 1, 5: low}, 4), binomial(ctx, 7)):
        assert _outcome(lambda: mahler_coeffs(f, 60)) == \
            _outcome(lambda: _old_mahler(f, 60))
    # 20 001 values of z^2 cost three rounds, not 20 000 (about 8 s)
    start = time.monotonic()
    c = mahler_coeffs(monomial(ctx, 2), 20000)
    assert time.monotonic() - start < 2.0
    assert [(x.residue, x.prec) for x in c] == \
        [(0, ctx.N), (1, ctx.N), (2, ctx.N)] + [(0, ctx.N)] * 19998


def _old_act(f, g):
    ctx = g.ctx
    return QExpansion(ctx, [f.evaluate(PadicInt(ctx, n)) * c
                            for n, c in enumerate(g.coeffs)], g.qprec)


@settings(max_examples=150)
@given(st.data())
def test_values_match_evaluate(data):
    ctx = TABLE_CTXS[data.draw(st.sampled_from(sorted(TABLE_CTXS)))]
    for known in (False, True):
        f = data.draw(_functions(ctx, known=known))
        # xs shorter than a period (tables of level 2-3) are read point by
        # point; otherwise a range from 0 is read as repeated periods of the
        # tables, other xs entry by entry; a range inside [0, p^N) is its
        # own power row x^1, lists (negative entries and entries past p^N
        # among them) and ranges that cross p^N are reduced first
        mod = ctx.modulus
        xs = data.draw(st.lists(st.integers(-2 * mod, 2 * mod), min_size=1,
                                max_size=12) | st.builds(
                                    lambda a, n: range(a, a + n), st.sampled_from(
                                        [0, 0, 1, ctx.p, mod - 7]) | st.integers(1, 2 * mod),
                                    st.integers(1, 60)))
        want = _outcome(lambda: [f.evaluate(PadicInt(ctx, x)) for x in xs])
        assert _outcome(lambda: values(f, xs)) == want


def test_monomial_power_rows_match_evaluate():
    # every branch of the one-row path for c z^j: c = 1 or not, known to N
    # digits or fewer, xs a range inside [0, p^N) (read as x itself), from
    # 0 or not, with a step, from below 0 or crossing p^N, or a list with
    # negative entries and entries past p^N
    for ctx in TABLE_CTXS.values():
        mod = ctx.modulus
        rows = [range(0, 30), range(5, 40), range(0, 40, 3), range(-5, 10),
                range(mod - 5, mod + 5),
                [-mod - 2, -1, 0, 3, mod, mod + 4, 3 * mod - 1]]
        for c in (PadicInt(ctx, 1), PadicInt(ctx, 1, 3), PadicInt(ctx, 7),
                  PadicInt(ctx, mod - 1, 2), PadicInt(ctx, 0, 4), PadicInt(ctx, 0)):
            for j in (0, 1, 2, 5):
                f = Polynomial(ctx, [0] * j + [c])
                for xs in rows:
                    assert _outcome(lambda: values(f, xs)) == \
                        _outcome(lambda: [f.evaluate(PadicInt(ctx, x)) for x in xs])


@settings(max_examples=60)
@given(st.data())
def test_act_and_mahler_match_pointwise_loops(data):
    ctx = TABLE_CTXS[data.draw(st.sampled_from(sorted(TABLE_CTXS)))]
    for known in (False, True):
        f = data.draw(_functions(ctx, known=known))
        n = data.draw(st.integers(1, ctx.M + 1))
        g = QExpansion(ctx, data.draw(_known_scalars(ctx, n) if known else st.lists(
            _scalars(ctx), min_size=n, max_size=n)))
        assert _outcome(lambda: act(f, g)) == _outcome(lambda: _old_act(f, g))
        K = data.draw(st.integers(0, 12))
        assert _outcome(lambda: mahler_coeffs(f, K)) == \
            _outcome(lambda: _old_mahler(f, K))


@st.composite
def _step_functions(draw, ctx):
    """A function of known level m: indicators, step tables (lists or dicts)
    with low-precision entries and zeros, their zero extensions,
    full-precision unit scalings, products of two steps, and characters
    (ring values)."""
    p = ctx.p

    def step():
        level = draw(st.integers(0, 3 if p == 3 else 2))
        return LocallyConstant(ctx, level, draw(_step_table(ctx, level, (
            lambda n: st.lists(_scalars(ctx), min_size=n, max_size=n)))))

    table = step()
    level, n = table.level, p ** table.level
    kind = draw(st.sampled_from(["indicator", "table", "zero_extended",
                                 "scaled", "product", "character"]))
    if kind == "indicator":
        return indicator(ctx, level, draw(st.integers(0, n - 1)))
    if kind == "table":
        return table
    if kind == "zero_extended":
        return ZeroExtendedUnits(table)
    if kind == "scaled":
        unit = draw(st.integers(1, ctx.modulus - 1).filter(lambda u: u % p))
        return Scaled(table, PadicInt(ctx, unit))
    if kind == "product":
        return Product(table, step())
    zeta = CyclotomicElem.zeta_power(ctx, 1, draw(st.integers(0, p - 1)))
    return Product(table, Character(zeta))


@settings(max_examples=120)
@given(st.data())
def test_periodic_mahler_matches_full_differences(data):
    # a level-m function differenced over one period, cyclically, against
    # all K + 1 values differenced K^2 / 2 times, around and past K = p^m
    ctx = TABLE_CTXS[data.draw(st.sampled_from(sorted(TABLE_CTXS)))]
    f = data.draw(_step_functions(ctx))
    K = data.draw(st.integers(0, 3 * ctx.p ** f.lc_level))
    assert _outcome(lambda: mahler_coeffs(f, K)) == \
        _outcome(lambda: _old_mahler(f, K))


def _other_lift(c: PadicInt, rng) -> PadicInt:
    """c's residue moved by a random multiple of p^prec, at full precision:
    an integer that the digits c claims cannot tell from c."""
    ctx = c.ctx
    return PadicInt(ctx, c.residue + rng.randrange(ctx.modulus) * ctx.pows[c.prec])


def _agree(claimed: PadicInt, other: PadicInt) -> bool:
    return (claimed.residue - other.residue) % claimed.ctx.pows[claimed.prec] == 0


@settings(max_examples=80)
@given(st.data())
def test_values_and_mahler_claim_only_known_digits(data):
    ctx = TABLE_CTXS[data.draw(st.sampled_from(sorted(TABLE_CTXS)))]
    coeffs = data.draw(st.lists(_scalars(ctx), min_size=1, max_size=5))
    level = data.draw(st.integers(0, 2))
    n = ctx.p ** level
    table = data.draw(st.lists(_scalars(ctx), min_size=n, max_size=n))
    shape = data.draw(st.sampled_from(["polynomial", "table", "product"]))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))

    def build(cs, tab):
        poly, step = Polynomial(ctx, cs), LocallyConstant(ctx, level, tab)
        return {"polynomial": poly, "table": step,
                "product": Product(poly, step)}[shape]

    f = build(coeffs, table)
    g = build([_other_lift(c, rng) for c in coeffs],
              [_other_lift(v, rng) for v in table])
    xs = data.draw(st.lists(st.integers(0, 2 * ctx.modulus), min_size=1,
                            max_size=12))
    (fr, fp), (gr, _) = values(f, xs), values(g, xs)
    assert all((u - v) % ctx.pows[e] == 0 for u, v, e in zip(fr, gr, fp))
    K = data.draw(st.integers(0, 12))
    assert all(_agree(u, v)
               for u, v in zip(mahler_coeffs(f, K), mahler_coeffs(g, K)))


def test_values_of_no_arguments_builds_no_table(ctx5, monkeypatch):
    calls = []
    monkeypatch.setattr(Character, "evaluate",
                        lambda self, x: calls.append(x))
    f = Character(CyclotomicElem.zeta(ctx5, 2))
    assert values(f, []) == [] and mahler_coeffs(f, -1) == []
    assert calls == []


def test_values_skip_a_bad_root_where_evaluate_does(ctx5):
    # zeta + 5 is no root of unity, but the zero extension never evaluates
    # it on 5 Z_5: the values there are 0, and a unit argument raises
    f = ZeroExtendedUnits(Character(CyclotomicElem.zeta(ctx5, 1) + 5))
    assert values(f, [0, 5]) == ([0, 0], [12, 12])
    assert values(f, range(1)) == ([0], [12])
    with pytest.raises(NotRootOfUnity):
        values(f, [0, 1])


def test_values_return_scaled_table_entries_unchanged(ctx5):
    # evaluate returns a table entry as it is, per-coefficient precisions
    # included; a unit scaling only permutes the entries
    zeta = CyclotomicElem.zeta(ctx5, 1)
    mixed = CyclotomicElem(ctx5, 1, [PadicInt(ctx5, c.residue, 12 - 10 * i)
                                     for i, c in enumerate(zeta.coeffs[:2])]
                           + zeta.coeffs[2:])
    f = Scaled(LocallyConstant(ctx5, 1, [1, mixed, 0, 0, 0]), PadicInt(ctx5, 3))
    xs = list(range(10))
    want = [_shape(f.evaluate(PadicInt(ctx5, x))) for x in xs]
    assert [_shape(v) for v in values(f, xs)] == want
    assert ("cyclo", 1, [(c.residue, c.prec) for c in mixed.coeffs]) in want


def test_poly_lc_terms_keeps_low_precision_zeros(ctx5):
    f = Polynomial(ctx5, [1, PadicInt(ctx5, 0, 3)])
    m, terms = poly_lc_terms(f)
    assert m == 0 and terms[1][0].prec == 3
    assert values(f, range(4))[1] == [3] * 4
    # kappa(z) = 1/4 is a unit, so only 3 digits of kappa(f) are known
    assert kl_constant(PadicInt(ctx5, 2), f).prec == 3
    mu = eisenstein_eval(PadicInt(ctx5, 2), f)
    assert all(c.prec == 3 for c in mu.coeffs)


# -- the sparse polynomial against the dense coefficient list ------------------

class _DensePolynomial(ContinuousFn):
    """The dense reference: one PadicInt per degree, evaluated by Horner."""

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.coeffs = list(coeffs) or [PadicInt(ctx, 0)]

    def evaluate(self, x):
        acc = PadicInt(self.ctx, 0, x.prec)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def _dense_multiply(f, g):
    out = [PadicInt(f.ctx, 0) for _ in range(len(f.coeffs) + len(g.coeffs) - 1)]
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = out[i + j] + a * b
    return _DensePolynomial(f.ctx, out)


@st.composite
def _dense_coeffs(draw, ctx):
    """Low-precision coefficients and zeros, trailing exact zeros, and the
    zero polynomial (no coefficients, or only exact zeros)."""
    zero = PadicInt(ctx, 0)
    cs = draw(st.lists(_scalars(ctx), max_size=4) | st.lists(st.just(zero), max_size=2))
    return cs + [zero] * draw(st.sampled_from([0, 0, 1, 2]))


@settings(max_examples=120)
@given(st.data())
def test_sparse_polynomials_match_the_dense_reference(data):
    # products of sparse polynomials, and their products with an indicator,
    # against dense lists multiplied degree by degree: the same residues and
    # precisions everywhere (0 (c + O(p^e)) is a zero known to e digits);
    # lc_level differs only where a dense list ends in an exact zero
    ctx = TABLE_CTXS[data.draw(st.sampled_from(sorted(TABLE_CTXS)))]
    lists = data.draw(st.lists(_dense_coeffs(ctx), min_size=1, max_size=3))
    f, ref = Polynomial(ctx, lists[0]), _DensePolynomial(ctx, lists[0])
    for cs in lists[1:]:
        f = multiply(f, Polynomial(ctx, cs))
        ref = _dense_multiply(ref, _DensePolynomial(ctx, cs))
    trailing = any(len(cs) > 1 and cs[-1].is_exact_zero()
                   for cs in lists + [ref.coeffs])
    assert f.lc_level == (0 if len(ref.coeffs) == 1 else None) or \
        trailing and f.lc_level == 0
    # the consumers read a dense list as the polynomial of its coefficients
    lib = Polynomial(ctx, ref.coeffs)
    if data.draw(st.booleans()):
        level = data.draw(st.integers(1, 2))
        ind = indicator(ctx, level, data.draw(st.integers(0, ctx.p ** level - 1)))
        f, ref, lib = multiply(f, ind), Product(ref, ind), Product(lib, ind)
    xs = data.draw(st.lists(st.integers(0, 2 * ctx.modulus), min_size=1, max_size=8))
    for x in xs:
        e = data.draw(st.integers(0, ctx.N))
        assert _outcome(lambda: [f.evaluate(PadicInt(ctx, x, e))]) == \
            _outcome(lambda: [ref.evaluate(PadicInt(ctx, x, e))])
    assert _outcome(lambda: values(f, xs)) == \
        _outcome(lambda: [ref.evaluate(PadicInt(ctx, x)) for x in xs])
    K = data.draw(st.integers(0, 12))
    assert _outcome(lambda: mahler_coeffs(f, K)) == _outcome(lambda: _old_mahler(ref, K))
    n = data.draw(st.integers(1, ctx.M + 1))
    g = QExpansion(ctx, data.draw(st.lists(_scalars(ctx), min_size=n, max_size=n)))
    assert _outcome(lambda: act(f, g)) == _outcome(lambda: _old_act(ref, g))
    a = PadicInt(ctx, 2)
    assert _outcome(lambda: [kl_constant(a, f)]) == _outcome(lambda: [kl_constant(a, lib)])
    assert _outcome(lambda: eisenstein_eval(a, f)) == \
        _outcome(lambda: eisenstein_eval(a, lib))


def test_monomials_are_one_term(ctx5):
    f = monomial(ctx5, 10 ** 9)
    assert list(f.terms) == [10 ** 9] and f.degree() == 10 ** 9
    assert multiply(f, f).terms == {2 * 10 ** 9: PadicInt(ctx5, 1)}
