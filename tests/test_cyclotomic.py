import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicq import (CyclotomicElem, NotRootOfUnity, NotUnit, PadicContext,
                    PadicInt, PrecisionExhausted, cyclo_pow, phi_pm)
from padicq.cyclotomic import _reduce_raw, zeta_powers


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


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cyclo_pow_matches_repeated_squaring(p):
    # residues, precisions and level equal those of x ** k for every
    # k < p^m, whether x is a standard power T^u (read off the closed form)
    # or a root that is none (known to N - 1 digits, or T (1 + p^(N-1) T)),
    # which is checked and powered
    ctx = PadicContext(p, 6, 4)
    for level in (1, 2):
        pm, phi = p ** level, phi_pm(p, level)
        z = CyclotomicElem.zeta(ctx, level)
        roots = [CyclotomicElem.zeta_power(ctx, level, u)
                 for u in (1, 2, p, phi - 1, phi, phi + 1, pm - 1)]
        roots += [CyclotomicElem.from_flat(ctx, level, z.res,
                                           [ctx.N - 1] * phi),
                  z * (1 + ctx.pows[ctx.N - 1] * z)]
        for x in roots:
            assert _flat(cyclo_pow(x, PadicInt(ctx, k)) for k in range(pm)) \
                == _flat(x ** k for k in range(pm))
    # at level 1, T (1 + p^(N-2) T) is a root of unity mod p^(N-1) only
    z = CyclotomicElem.zeta(ctx, 1)
    with pytest.raises(NotRootOfUnity):
        cyclo_pow(z * (1 + ctx.pows[ctx.N - 2] * z), PadicInt(ctx, 1))


# -- power tables ---------------------------------------------------------------

def _successive(zeta, count):
    """zeta^0 (the scalar one, as zeta ** 0), then one ring product each."""
    out = [CyclotomicElem.one(zeta.ctx, 0)]
    for _ in range(count - 1):
        out.append(out[-1] * zeta)
    return out


def _flat(elems):
    return [(x.level, x.res, x.prec) for x in elems]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_zeta_powers_of_standard_roots_match_successive_products(p, level):
    # every standard power T^u, u < p^m: residues, precisions and levels of
    # the closed-form table equal those of successive ring products.  At
    # p = 7, level 3 (343 tables of 343 products) the products of T itself
    # are permuted, (T^u)^k = T^(u k), and a sample of u is powered directly.
    ctx = PadicContext(p, 6, 4)
    pm, phi = p ** level, phi_pm(p, level)
    std = _successive(CyclotomicElem.zeta(ctx, level), pm)
    direct = range(pm) if pm < 343 else \
        {0, 1, 2, p, p * p, phi - 1, phi, phi + 1, pm - 1}
    for u in range(pm):
        zeta = CyclotomicElem.zeta_power(ctx, level, u)
        got = _flat(zeta_powers(zeta, pm))
        assert got[0] == (0, [1], [ctx.N])
        assert got[1:] == _flat([std[u * k % pm] if u * k % pm else
                                 CyclotomicElem.one(ctx, level)
                                 for k in range(1, pm)])
        if u in direct:
            assert got == _flat(_successive(zeta, pm))


def test_zeta_powers_of_other_roots_match_successive_products():
    # roots known to N - 1 digits and roots that are not signed monomials
    # (T^u (1 + p^(N-1) T), a root of unity mod p^N) take the products;
    # tables up to one period long equal the checked powers
    rng = random.Random(71)
    for p in (3, 5, 7):
        ctx = PadicContext(p, 6, 4)
        for level in (1, 2):
            pm = p ** level
            for u in rng.sample(range(pm), 3):
                zeta = CyclotomicElem.zeta_power(ctx, level, u)
                short = CyclotomicElem.from_flat(ctx, level, zeta.res,
                                                 [ctx.N - 1] * len(zeta.res))
                bent = zeta * (1 + ctx.pows[ctx.N - 1] * CyclotomicElem.zeta(ctx, level))
                for z in (short, bent):
                    assert _flat(zeta_powers(z, pm)) == _flat(_successive(z, pm))
                for z in (zeta, short, bent):
                    for count in (1, pm - 1, pm):
                        assert _flat(zeta_powers(z, count)) == _flat(
                            cyclo_pow(z, PadicInt(ctx, k)) for k in range(count))


def test_zeta_powers_rejects_non_roots():
    ctx = PadicContext(5, 6, 4)
    z = CyclotomicElem.zeta(ctx, 1)
    for x in (z + 1, 2 * z, (1 + ctx.p) * z, CyclotomicElem.zero(ctx, 2),
              CyclotomicElem.from_scalar(PadicInt(ctx, 2))):
        with pytest.raises(NotRootOfUnity):
            zeta_powers(x, 5)


def test_augmentation_and_constant():
    ctx = PadicContext(5, 8, 4)
    z = CyclotomicElem.zeta(ctx, 1)
    x = z ** 0 * 3
    assert x.is_constant() and x.constant_part() == 3
    assert (z + z ** 2).augmentation() == 2


def test_mixed_contexts_are_refused():
    # contexts that differ only in M share the ring; a scalar factor is
    # read as a residue, as before, and is not checked
    z = CyclotomicElem.zeta(PadicContext(5, 8, 4), 1)
    assert z + CyclotomicElem.zeta(PadicContext(5, 8, 9), 1) == 2 * z
    w = PadicInt(PadicContext(5, 6, 4), 2)
    for other in (CyclotomicElem.zeta(PadicContext(5, 6, 4), 1),
                  CyclotomicElem.zeta(PadicContext(7, 8, 4), 1),
                  CyclotomicElem.from_scalar(w), w):
        ops = [lambda: z + other, lambda: z - other, lambda: other - z,
               lambda: z == other]
        if isinstance(other, CyclotomicElem):
            ops.append(lambda: z * other)
        for op in ops:
            with pytest.raises(ValueError):
                op()


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


# -- the PadicInt-list arithmetic the flat representation replaced ----------
#
# RefCyclo is the element type as it stood when each coefficient was its own
# PadicInt: every operation of CyclotomicElem must give the same level and
# the same (residue, prec) per coefficient, or raise the same exception.

class RefCyclo:
    def __init__(self, ctx, level, coeffs):
        assert len(coeffs) == phi_pm(ctx.p, level)
        self.ctx, self.level, self.coeffs = ctx, level, coeffs

    @classmethod
    def from_scalar(cls, x):
        return cls(x.ctx, 0, [x])

    @classmethod
    def one(cls, ctx):
        return cls(ctx, 0, [PadicInt(ctx, 1)])

    def min_prec(self):
        return min(c.prec for c in self.coeffs)

    def lift_to(self, level):
        if level < self.level:
            raise ValueError("cannot lower cyclotomic level")
        if level == self.level:
            return self
        stride = self.ctx.p ** (level - self.level)
        prec = self.min_prec()
        out = [PadicInt(self.ctx, 0, prec)
               for _ in range(phi_pm(self.ctx.p, level))]
        for i, c in enumerate(self.coeffs):
            out[i * stride] = PadicInt(self.ctx, c.residue, prec)
        return RefCyclo(self.ctx, level, out)

    def is_constant(self):
        return all(c.residue == 0 for c in self.coeffs[1:])

    def constant_part(self):
        if not self.is_constant():
            raise ValueError("not a scalar")
        return self.coeffs[0]

    def augmentation(self):
        return PadicInt(self.ctx, sum(c.residue for c in self.coeffs),
                        self.min_prec())

    def _coerce(self, other):
        if isinstance(other, int):
            other = PadicInt(self.ctx, other)
        if isinstance(other, PadicInt):
            other = RefCyclo.from_scalar(other)
        lvl = max(self.level, other.level)
        return self.lift_to(lvl), other.lift_to(lvl)

    def __add__(self, other):
        a, b = self._coerce(other)
        return RefCyclo(self.ctx, a.level,
                        [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._coerce(other)
        return RefCyclo(self.ctx, a.level,
                        [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        a, b = self._coerce(other)
        return b - a

    def __neg__(self):
        return RefCyclo(self.ctx, self.level, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            other = PadicInt(self.ctx, other)
        if isinstance(other, PadicInt):
            prec = min(self.min_prec(), other.prec)
            return RefCyclo(self.ctx, self.level, [
                PadicInt(self.ctx, c.residue * other.residue, prec)
                for c in self.coeffs])
        a, b = self._coerce(other)
        prec = min(a.min_prec(), b.min_prec())
        mod = self.ctx.p ** prec if prec > 0 else 1
        ra = [c.residue for c in a.coeffs]
        rb = [c.residue for c in b.coeffs]
        raw = [0] * (2 * len(ra) - 1)
        for i, x in enumerate(ra):
            for j, y in enumerate(rb):
                raw[i + j] += x * y
        ints = _reduce_raw(raw, self.ctx.p, a.level, mod)
        return RefCyclo(self.ctx, a.level,
                        [PadicInt(self.ctx, c, prec) for c in ints])

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        acc, base = RefCyclo.one(self.ctx), self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def inverse(self):
        if self.level == 0:
            return RefCyclo.from_scalar(self.coeffs[0].inverse())
        if not self.augmentation().is_unit():
            raise NotUnit("augmentation divisible by p")
        p, m = self.ctx.p, self.level
        prec = self.min_prec()
        y = self ** (p ** m - 1) * pow(self.augmentation().residue % p, -1, p)
        digits = 1
        while digits < prec:
            y = y * (2 - self * y)
            digits *= 2
        return RefCyclo(self.ctx, m, [
            PadicInt(self.ctx, c.residue, min(c.prec, prec)) for c in y.coeffs])

    def __eq__(self, other):
        a, b = self._coerce(other)
        return all(x.residue == y.residue or x == y
                   for x, y in zip(a.coeffs, b.coeffs))


def _shape(v):
    """Level and (residue, prec) pairs of either element type, or a scalar's."""
    if isinstance(v, PadicInt):
        return ("scalar", v.residue, v.prec)
    if isinstance(v, CyclotomicElem):
        return (v.level, list(zip(v.res, v.prec)))
    if isinstance(v, RefCyclo):
        return (v.level, [(c.residue, c.prec) for c in v.coeffs])
    return v


def _outcome(fn):
    try:
        return _shape(fn())
    except (NotUnit, ValueError) as exc:
        return type(exc)


def _coeff_lists(rng, ctx, level, low, unit=False):
    """PadicInt coefficients with mixed precision: full N, a shared low
    precision (possibly 0), and zeros known only to low precision.  A unit
    has no coefficient of precision 0 and an augmentation prime to p."""
    p, N = ctx.p, ctx.N
    precs = (N, N, max(low, 1)) if unit else (N, N, low, 0)
    out = []
    for _ in range(phi_pm(p, level)):
        value = rng.choice((0, rng.randrange(p ** N), p * rng.randrange(p ** N)))
        out.append(PadicInt(ctx, value, rng.choice(precs)))
    if unit and sum(c.residue for c in out) % p == 0:
        out[0] = PadicInt(ctx, out[0].residue + 1, out[0].prec)
    return out


@st.composite
def cyclo_inputs(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    top = 2 if p == 7 else 3
    ctx = PadicContext(p, draw(st.integers(1, 5)), 4)
    levels = draw(st.tuples(st.integers(0, top), st.integers(0, top)))
    low = draw(st.integers(0, ctx.N))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return ctx, top, levels, low, draw(st.booleans()), rng


@settings(max_examples=100)
@given(cyclo_inputs())
def test_flat_arithmetic_matches_padicint_lists(case):
    ctx, top, (lx, ly), low, unit, rng = case
    cx = _coeff_lists(rng, ctx, lx, low, unit)
    cy = _coeff_lists(rng, ctx, ly, low)
    new = CyclotomicElem(ctx, lx, cx), CyclotomicElem(ctx, ly, cy)
    ref = RefCyclo(ctx, lx, cx), RefCyclo(ctx, ly, cy)
    k = rng.randrange(-ctx.modulus, ctx.modulus)
    s = PadicInt(ctx, rng.randrange(ctx.modulus), rng.choice((ctx.N, low, 0)))
    ops = [
        lambda x, y: x + y, lambda x, y: y + x, lambda x, y: x - y,
        lambda x, y: y - x, lambda x, y: -x, lambda x, y: x * y,
        lambda x, y: y * x, lambda x, y: x * k, lambda x, y: k * x,
        lambda x, y: x * s, lambda x, y: s * x, lambda x, y: x + k,
        lambda x, y: k - x, lambda x, y: x - s, lambda x, y: x.inverse(),
        lambda x, y: x.augmentation(), lambda x, y: x.is_constant(),
        lambda x, y: x.constant_part(), lambda x, y: x == y,
        lambda x, y: x == x + s * 0, lambda x, y: x == k,
        lambda x, y: x.lift_to(ly),
        *[lambda x, y, e=e: x ** e for e in (-2, -1, 0, 1, 2, 3)],
        *[lambda x, y, m=m: x.lift_to(m) for m in range(lx, top + 1)],
    ]
    for i, op in enumerate(ops):
        assert _outcome(lambda: op(*new)) == _outcome(lambda: op(*ref)), i
    # the coefficient list is a fresh view: writing to it changes nothing
    x = new[0]
    before = _shape(x)
    assert [(c.residue, c.prec) for c in x.coeffs] == before[1]
    view = x.coeffs
    view[0] = PadicInt(ctx, 1, 0)
    x.coeffs[-1].residue += 1
    view.append(PadicInt(ctx, 0))
    assert _shape(x) == before and len(x.coeffs) == phi_pm(ctx.p, lx)


# -- precision soundness -----------------------------------------------------
#
# A coefficient known to prec digits stands for every integer congruent to
# its residue mod p^prec.  Replacing each input by another such integer,
# taken at full precision, must leave every output digit the result claims
# unchanged.

def _other_lift(c: PadicInt, rng) -> PadicInt:
    ctx = c.ctx
    return PadicInt(ctx, c.residue + rng.randrange(ctx.modulus) * ctx.pows[c.prec])


def _agree(claimed, other) -> bool:
    if isinstance(claimed, PadicInt):
        return (claimed.residue - other.residue) % claimed.ctx.pows[claimed.prec] == 0
    return claimed.level == other.level and all(
        _agree(c, d) for c, d in zip(claimed.coeffs, other.coeffs))


@settings(max_examples=100)
@given(cyclo_inputs())
def test_claimed_digits_do_not_depend_on_unknown_ones(case):
    ctx, _, (lx, ly), low, unit, rng = case
    cx = _coeff_lists(rng, ctx, lx, low, unit)
    cy = _coeff_lists(rng, ctx, ly, low)
    s = PadicInt(ctx, rng.randrange(ctx.modulus), rng.choice((ctx.N, low, 0)))
    x, y = CyclotomicElem(ctx, lx, cx), CyclotomicElem(ctx, ly, cy)
    x2 = CyclotomicElem(ctx, lx, [_other_lift(c, rng) for c in cx])
    y2 = CyclotomicElem(ctx, ly, [_other_lift(c, rng) for c in cy])
    s2 = _other_lift(s, rng)
    for op in (lambda x, y, s: x + y, lambda x, y, s: x - y,
               lambda x, y, s: -x, lambda x, y, s: x * y,
               lambda x, y, s: x * s, lambda x, y, s: s * y,
               lambda x, y, s: x ** 3, lambda x, y, s: x.lift_to(3),
               lambda x, y, s: x.augmentation()):
        assert _agree(op(x, y, s), op(x2, y2, s2))
    if x.is_unit():
        assert _agree(x.inverse(), x2.inverse())
        assert _agree(x ** -2, x2 ** -2)


@given(st.sampled_from((3, 5)), st.integers(1, 2), st.integers(1, 5),
       st.integers(0, 2 ** 32))
def test_act_character_claims_only_known_digits(p, level, low, seed):
    from padicq import QExpansion, act_character

    rng = random.Random(seed)
    ctx = PadicContext(p, 5, 12)
    coeffs = [PadicInt(ctx, rng.randrange(ctx.modulus), rng.choice((5, low, 0)))
              for _ in range(ctx.M + 1)]
    zeta = CyclotomicElem.zeta_power(ctx, level, rng.randrange(1, p ** level))
    got = act_character(zeta, QExpansion(ctx, coeffs))
    other = act_character(zeta, QExpansion(ctx, [_other_lift(c, rng)
                                                 for c in coeffs]))
    assert all(_agree(a, b) for a, b in zip(got.coeffs, other.coeffs))
