"""p-adic measures and the Eisenstein measure machinery.

A measure here is a bounded linear functional on continuous functions,
valued in scalars or in q-expansions.  The only nontrivial construction is
the regularized constant-term functional, which is pinned by its moments
(1 - a^k)(-B_k/k) alone; we realize it through the exact power series

    A_a(T) = a / ((1+T)^a - 1)  -  1/T,

which lies in Z_p[[T]] because the denominator has unit linear coefficient.
Truncations of A_a are computed by one series division modulo p^N (the
only division is by the unit a), polynomial moments come out of the finite
Mahler pairing at full precision, and locally constant functions go through
the character decomposition, costing exactly m digits for level m.  The
n-th Mahler coefficient of z^j is Delta^n(z^j)(0) = n! S(j, n): 0 for n > j,
and a multiple of n!, so 0 mod p^N from the least n0 with v_p(n0!) >= N,
about (p-1)N.  So only n < min(n0, j + 1) count, and a sum over n < L is
exact for any L from there to n0: as Delta^n f(0) = sum_i (-1)^(n-i) C(n, i)
f(i), it is a dot product sum_i w_i i^j with point weights w_i, i < L.
A character chi_zeta is a torsion point of the formal group Gm-hat: when
zeta^(p^l) = 1, zeta - 1 is a root of (1 + T)^(p^l) - 1, monic of degree
p^l, so the kernel series is reduced modulo it with plain integers, then
evaluated by Horner in p^l ring steps.  One primitive root per level
suffices: the other roots of level l are its Galois conjugates, so their
share of the character sum is an integer trace of the one value.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from math import comb
from operator import mul

from .action import M_MAX, act, act_character
from .cyclotomic import CyclotomicElem, phi_pm
from .errors import (ConfigError, EulerFactorNotInvertible, NotRootOfUnity,
                     NotUnit, PrecisionExhausted, check_a_range, json_int,
                     json_int_field, json_int_list, json_list, json_object)
from .padic import (PadicContext, PadicInt, binomial_padic, padic_valuation,
                    unit_group_generator)
from .qseries import (SIGMA_CACHE_SIZE, QExpansion, _least_prime_factors,
                      divisor_sum, sigma_table)
from .zpfun import (Character, ContinuousFn, LocallyConstant, MahlerSeries,
                    TwoVarFn, ZeroExtendedUnits, binomial,
                    mahler_coeffs, poly_lc_terms, table_values, values)


# -- the regularized kernel series -------------------------------------------

class RegularizedKernel:
    """Truncations of A_a(T) and its multiplication-by-z twists, mod p^N.

    Multiplying the integrand by z corresponds to (1+T) d/dT on this series,
    so the j-th twist evaluated at zeta - 1 is the functional on z^j chi_zeta.
    The series is built from a.residue, read as an exact integer: the
    values are those of A_r for r = a.residue, not for another lift of a.
    """

    def __init__(self, ctx: PadicContext, a: PadicInt):
        if not a.is_unit():
            raise NotUnit("the regularizing parameter must be a unit")
        if a.prec < ctx.N:
            raise PrecisionExhausted("the regularizing parameter must carry "
                                     "full precision")
        self.ctx = ctx
        self.a = a
        self._base: list[int] = []
        # C(r, i) mod p^N for i < len, and the last of them exact
        self._binom, self._last = [1], 1

    def base(self, K: int) -> list[int]:
        """Coefficients of A_a(T) mod (p^N, T^(K+1)), grown in place.

        With P_i = C(r, i+1) and Q_i = C(r, i+2), (1+T)^r - 1 = T P and
        A_r = -Q/P, so b_n = -(Q_n + sum_{1<=i<=n} P_i b_(n-i)) / r.  As
        C(r, i) = 0 for i > r, the binomials stop at C(r, r) and each b_n
        takes at most r - 1 products."""
        mod, r, b, c = self.ctx.modulus, self.a.residue, self._base, self._binom
        inv = pow(r, -1, mod)
        while len(c) < min(K + 3, r + 1):
            self._last = self._last * (r - len(c) + 1) // len(c)
            c.append(self._last % mod)
        P = c[2:]  # P_1, P_2, ...; map stops at the shorter of P and b
        for n in range(len(b), K + 1):
            q = c[n + 2] if n + 2 < len(c) else 0
            b.append(-(q + sum(map(mul, P, reversed(b)))) * inv % mod)
        return b[:K + 1]

    def twisted(self, j: int, K: int) -> list[int]:
        """Coefficients of ((1+T) d/dT)^j A_a, to T-degree K."""
        mod = self.ctx.modulus
        cur = self.base(K + j)
        for _ in range(j):
            cur = [((n + 1) * cur[n + 1] + n * cur[n]) % mod
                   for n in range(len(cur) - 1)]
        return cur[: K + 1]


# The Horner below costs about L^3 bit operations for L weights: 0.7 s at
# L = 2000, 1.2 s at the cap and 6.1 s at L = 4000 (p = 10007, N = 12, one
# Xeon core, Python 3.11), so a moment that needs more than this many is
# refused before any of them is built
POINT_WEIGHTS_CAP = 2500


def _point_weights(b: list[int], mod: int) -> list[int]:
    """w with sum_i w_i f(i) = sum_n b_n Delta^n f(0) mod ``mod`` for all f,
    for 0 <= b_n < mod: the coefficients of sum_n b_n (X - 1)^n.

    They are evaluated at X = 2^s by one big-integer Horner, V <- (V << s)
    - V + b_n, and read back as signed base-2^s digits w_i.  As |w_i| <
    mod 2^len(b), a slot of s >= bitlen(mod) + len(b) + 2 bits (a whole
    number of bytes) holds w_i + 2^(s-1) with no carry into the next, so
    one to_bytes of V plus that bias in every slot splits them apart.
    """
    nb = (mod.bit_length() + len(b) + 9) // 8
    s, v = 8 * nb, 0
    for c in reversed(b):
        v = (v << s) - v + c
    v += int.from_bytes((bytes(nb - 1) + b"\x80") * len(b), "little")
    raw, half = v.to_bytes(nb * len(b), "little"), 1 << (s - 1)
    return [(int.from_bytes(raw[i:i + nb], "little") - half) % mod
            for i in range(0, len(raw), nb)]


class KLConstantTerm:
    """The constant-term functional of the Eisenstein measure.

    Its moments on z^(k-1) equal (1 - a^k)(-B_k/k) reduced mod p^N.  Each
    is one dot product of the point weights w_i, i < L, with the powers
    i^(k-1) mod p^N, for an L from min(n0, k) to n0.  The weights and the
    least prime factors of i < L are rebuilt, at least doubling L up to
    POINT_WEIGHTS_CAP, only when a moment needs more, so a sweep over k
    builds them about log2(n0) times; a moment with min(n0, k) over the cap
    raises ConfigError before any is built.  i^(k-1) is completely
    multiplicative in i, so only prime i take a modular power, and the cost
    barely grows with k.
    Values on level-m step functions are exact to N - m digits and cost one
    Horner per level l <= m (p^l ring products, after reducing the kernel
    series by the torsion polynomial (1+T)^(p^l) - 1) plus integer traces.
    Step functions and characters beyond the fixed cap action.M_MAX raise
    PrecisionExhausted.  A Mahler series sum_k c_k C(z, k) pairs with the
    kernel series to sum_k c_k b_k; a binomial is the one-term case.
    """

    def __init__(self, ctx: PadicContext, a: PadicInt):
        self.ctx = ctx
        self.a = a
        self.kernel = RegularizedKernel(ctx, a)
        self._weights: list[int] = []
        self._factors: list[int] = []
        self._indicator_cache: dict = {}

    # -- core values --------------------------------------------------------

    def moment(self, j: int) -> PadicInt:
        """kappa(z^j) = sum_{n<L} b_n Delta^n(z^j)(0) = sum_{i<L} w_i i^j
        mod p^N, b_n the kernel coefficients (see the module docstring);
        i^j = q^j (i/q)^j for the least prime factor q of a composite i."""
        ctx, mod = self.ctx, self.ctx.modulus
        need = max(j + 1, min(2 * len(self._weights), POINT_WEIGHTS_CAP))
        n, v = 0, 0  # v_p(n!) grows at multiples of p only, so n0 is one
        while v < ctx.N and n < need:
            n += ctx.p
            v += padic_valuation(n, ctx.p)
        used = min(n, j + 1)  # = min(n0, j + 1)
        if used > POINT_WEIGHTS_CAP:
            raise ConfigError(f"the moment of z^{j} needs L = min(n0, j + 1) = "
                              f"{used} point weights, over the cap of "
                              f"{POINT_WEIGHTS_CAP}")
        if len(self._weights) < used:
            L = min(n, need)
            self._weights = _point_weights(self.kernel.base(L - 1), mod)
            self._factors = _least_prime_factors(L - 1)
        row: list[int] = []
        for i, q in enumerate(self._factors):
            row.append(pow(i, j, mod) if q == i else row[q] * row[i // q] % mod)
        return PadicInt(ctx, sum(map(mul, self._weights, row)))

    def value_character(self, zeta: CyclotomicElem, j: int = 0):
        """kappa(z^j chi_zeta) = (twisted series)(zeta - 1), full precision.

        The series is reduced by (1+T)^n - 1 with n = p^level; a zeta with
        zeta^n != 1 at its precision raises NotRootOfUnity."""
        ctx, n = self.ctx, self.ctx.p ** zeta.level
        if not zeta.is_root_of_unity():
            raise NotRootOfUnity(f"{zeta!r}^(p^{zeta.level}) != 1")
        coeffs = self.kernel.twisted(j, ctx.N * phi_pm(ctx.p, zeta.level))
        return _torsion_horner(coeffs, zeta, n)

    def _indicator_values(self, j: int, m: int) -> list[PadicInt]:
        """kappa(z^j 1_{c + p^m Z_p}) for all c, by Galois traces; at m = 0
        the moment kappa(z^j), uncached (``moment`` keeps its weights).

        p^m kappa(z^j 1_c) = F(0) + sum_l Tr_l(zeta_l^(-c) F(zeta_l - 1)) for
        the j-th twisted series F and one primitive p^l-th root zeta_l per
        level l <= m: the other roots of level l are its Galois conjugates.
        So F is evaluated once per level, and each trace is read off the
        power-basis coordinates of that value with integers.  F is twisted
        once, to T-degree N phi(p^m): coefficient n of a twist depends only
        on coefficients n..n + j of A_a, so each level reads a prefix.
        Each value is known to N digits: zeta_l is exact and F integral.
        """
        if m == 0:
            return [self.moment(j)]
        key = (j, m)
        if key in self._indicator_cache:
            return self._indicator_cache[key]
        ctx, p = self.ctx, self.ctx.p
        F = self.kernel.twisted(j, ctx.N * phi_pm(p, m))
        sums = [F[0]] * p ** m
        for lvl in range(1, m + 1):
            K = ctx.N * phi_pm(p, lvl)
            e = _torsion_horner(F[:K + 1], CyclotomicElem.zeta(ctx, lvl),
                                p ** lvl)
            # Tr_l(zeta^k) is p^l - q if p^l | k, -q if v_p(k) = l - 1 and 0
            # otherwise (q = p^(l-1)), so zeta^(-c) meets only the p - 1
            # coordinates k = c mod q, and k = c mod p^l if k < phi(p^l)
            q, x = p ** (lvl - 1), e.res
            for c in range(len(sums)):
                k = c % (p * q)
                sums[c] -= q * sum(x[c % q::q])
                if k < len(x):
                    sums[c] += p * q * x[k]
        out = [PadicInt(ctx, s).divide_by_p(m) for s in sums]
        self._indicator_cache[key] = out
        return out

    # -- public evaluation ----------------------------------------------------

    def value(self, f: ContinuousFn, lc: tuple | None = None):
        """kappa(f) for exactly representable f (``lc``: poly_lc_terms(f)):
        sum_j sum_c T_j[c] kappa(z^j 1_c), polynomials at level 0 too; a step
        or character level past the cap is refused before any table."""
        ctx = self.ctx
        _check_level(f.step_level)
        if isinstance(f, MahlerSeries):
            # kappa(C(z, k)) = b_k; the tail's terms have valuation >= t
            terms = f.terms
            prec = min([f.tail_valuation, *(c.prec for c in terms.values())])
            if prec <= 0:
                raise PrecisionExhausted("tail bound certifies no digits")
            b = self.kernel.base(max(terms, default=0))
            return PadicInt(ctx, sum(c.residue * b[k] for k, c in terms.items()),
                            prec)
        if isinstance(f, Character) and f.level:
            return self.value_character(f.zeta)
        m, terms = lc or poly_lc_terms(f)
        acc = PadicInt(ctx, 0, ctx.N)
        for j, tab in terms.items():
            ind = self._indicator_values(j, m)
            for c, v in enumerate(tab):
                if isinstance(v, PadicInt) and v.is_exact_zero():
                    continue
                acc = acc + v * ind[c]
        return acc


def _check_level(m: int) -> None:
    if m > M_MAX:
        raise PrecisionExhausted(f"level {m} exceeds the level cap {M_MAX}")


def _torsion_horner(coeffs: list[int], zeta: CyclotomicElem, n: int):
    """An integer series F evaluated at zeta - 1 in zeta's ring, zeta^n = 1.

    zeta - 1 is a root of (1 + T)^n - 1, monic of degree n with
    coefficients C(n, k) for 1 <= k < n and constant term 0.  F is first
    reduced modulo it with plain integers, and Horner takes n ring steps
    instead of one per coefficient.  F - R = Q ((1+T)^n - 1) vanishes at
    zeta - 1 to zeta's precision, which is also the precision Horner gives
    both, so residues and precisions are unchanged.
    """
    ctx, rem, mod = zeta.ctx, list(coeffs), zeta.ctx.modulus
    tor = [0] + [comb(n, k) % mod for k in range(1, n)]
    for d in range(len(rem) - 1, n - 1, -1):
        c = rem[d] % mod
        if c:
            rem[d - n:d] = [r - c * t for r, t in zip(rem[d - n:d], tor)]
    rem = [c % mod for c in rem[:n]]
    x = zeta - 1
    acc = CyclotomicElem.zero(ctx, zeta.level)
    for c in reversed(rem):
        acc = acc * x + c
    return acc


# the functionals most recently used, keyed by (p, N, a); each holds its
# kernel series and indicator values, so a process sweeping many a keeps
# only the last KL_CACHE_SIZE of them
KL_CACHE_SIZE = 32
_kl_cache: OrderedDict = OrderedDict()


def kl_constant_functional(ctx: PadicContext, a: PadicInt) -> KLConstantTerm:
    key = (ctx.p, ctx.N, a.residue)
    if key in _kl_cache:
        _kl_cache.move_to_end(key)
    else:
        _kl_cache[key] = KLConstantTerm(ctx, a)
        if len(_kl_cache) > KL_CACHE_SIZE:
            _kl_cache.popitem(last=False)
    return _kl_cache[key]


def kl_constant(a: PadicInt, f: ContinuousFn) -> PadicInt:
    """The regularized constant term attached to a, applied to f."""
    return kl_constant_functional(f.ctx, a).value(f)


# -- measures -------------------------------------------------------------------

class Measure:
    """Linear functional on continuous functions (scalar or series valued)."""

    def __call__(self, f: ContinuousFn):
        raise NotImplementedError

    def amice(self, K: int) -> list:
        """Amice coefficients b_k = mu(C(x, k)) for k <= K."""
        return [self(binomial(self.ctx, k)) for k in range(K + 1)]

    def at_character(self, zeta: CyclotomicElem):
        """mu(chi_zeta); always equals the Amice series at zeta - 1."""
        return self(Character(zeta))


class DiracMeasure(Measure):
    """Evaluation at a point c of Z_p.

    Every value is f(c) with the digits ``f.evaluate`` certifies from those
    known of c.  When c is known to N digits, its Amice coefficients are the
    exact binomials C(c, k) of its canonical residue.
    """

    def __init__(self, c: PadicInt):
        self.c = c
        self.ctx = c.ctx

    def __call__(self, f: ContinuousFn):
        return f.evaluate(self.c)

    def amice(self, K: int) -> list:
        if self.c.prec < self.ctx.N:  # the digits binomial_padic certifies
            return [binomial_padic(self.c, k) for k in range(K + 1)]
        return [PadicInt(self.ctx, comb(self.c.residue, k), self.c.prec)
                for k in range(K + 1)]


class AmiceMeasure(Measure):
    """Measure given by finitely many Amice coefficients.

    A finite coefficient list is itself an honest measure (a finite linear
    combination of the binomial-dual functionals), so every evaluation below
    is a finite exact sum.
    """

    def __init__(self, ctx: PadicContext, coeffs):
        self.ctx = ctx
        self.coeffs = [c if not isinstance(c, int) else PadicInt(ctx, c)
                       for c in coeffs]

    def __call__(self, f: ContinuousFn):
        _check_level(f.ring_level)  # before a character's power table
        c = mahler_coeffs(f, len(self.coeffs) - 1)
        return _dot(self.ctx, c, self.coeffs)

    def amice(self, K: int) -> list:
        out = list(self.coeffs[: K + 1])
        while len(out) < K + 1:
            out.append(PadicInt(self.ctx, 0))
        return out

    def at_character(self, zeta: CyclotomicElem):
        if not self.coeffs:
            return PadicInt(self.ctx, 0)
        x = zeta - CyclotomicElem.one(self.ctx, 0)
        acc = None
        for b in reversed(self.coeffs):
            if acc is None:
                acc = _scalar_or_series_zero(self.ctx, b)
            acc = acc * x + b
        return acc


class EisensteinMeasure(Measure):
    """The measure with moments (1 - a^k) 2G_k, defined coefficient-wise.

    Coefficient n of mu(f) is 2 sum_{d|n} (f(d) - a f(a d)); the constant
    term is the regularized functional.  On z^(k-1) this reproduces
    (1 - a^k) 2G_k including the constant term.  A polynomial f = sum_j
    c_j z^j (level 0: also products and full-precision scalings of them)
    has coefficient n = sum_j U_j sigma_j(n) with U_j = 2 c_j (1 - a^(j+1)),
    read off the sigma tables mod p^N and known to the least prec c_j, when
    it has at most SIGMA_CACHE_SIZE terms (more would cycle the sigma cache
    on every call; they take the table route below, with the same residues
    and precisions).  Step functions and characters read f(d) - a f(a d) off
    the combined tables U_j[c] = T_j[c] - a^(j+1) T_j[a c mod p^m] of
    f = sum_j z^j T_j (zpfun.table_values), and the weights are
    divisor-summed as residues, one coordinate at a time for characters;
    Mahler series (binomials among them) take f(d), f(a d) point by point.
    """

    def __init__(self, ctx: PadicContext, a: PadicInt):
        if not a.is_unit():
            raise NotUnit("the Eisenstein measure needs a unit parameter")
        self.ctx = ctx
        self.a = a
        self.kl = kl_constant_functional(ctx, a)

    def __call__(self, f: ContinuousFn) -> QExpansion:
        ctx, ar = self.ctx, self.a.residue
        # levels past the cap are refused before any table is built; kl
        # shares f's tables
        _check_level(f.step_level)
        lc = None if isinstance(f, MahlerSeries) else poly_lc_terms(f)
        const = self.kl.value(f, lc)
        if lc and lc[0] == 0 and len(lc[1]) <= SIGMA_CACHE_SIZE and all(
                isinstance(t[0], PadicInt) for t in lc[1].values()):
            return self._polynomial(lc[1], const)
        ds = range(ctx.M + 1)
        if lc is None:  # Mahler series: two scalar rows
            (x, xp), (y, yp) = values(f, ds), values(f, [ar * d for d in ds])
            w = ([2 * (u - ar * v) for u, v in zip(x, y)],
                 [u if u < v else v for u, v in zip(xp, yp)])
        else:  # t has p^m entries
            m, terms = lc
            w = table_values(ctx, m, {j: [
                (t[c] - t[ar * c % len(t)] * pow(ar, j + 1, ctx.modulus)) * 2
                for c in range(len(t))] for j, t in terms.items()}, ds)
        if isinstance(w, tuple):
            g = QExpansion.from_flat(ctx, [const.residue] + w[0][1:],
                                     [const.prec] + w[1][1:])
        else:  # ring-valued tables (characters): coordinate by coordinate
            g = QExpansion(ctx, [const] + w[1:])
        out = []
        for c in g.parts or (g,):
            res, prec = divisor_sum(ctx, (c.res, c.prec), 0)
            res[0], prec[0] = c.res[0], c.prec[0]
            out.append(QExpansion.from_flat(ctx, res, prec))
        return QExpansion.from_parts(ctx, g.level, out)

    def _polynomial(self, terms: dict, const: PadicInt) -> QExpansion:
        """mu(sum_j c_j z^j) for terms {j: [c_j]}: coefficient n >= 1 is
        sum_j U_j sigma_j(n) mod p^top, top the least prec c_j, as the
        divisor sum of the combined weights would give it."""
        ctx, ar, mod = self.ctx, self.a.residue, self.ctx.modulus
        top, rows = min(t[0].prec for t in terms.values()), []
        for j, (c,) in terms.items():
            u = 2 * c.residue * (1 - pow(ar, j + 1, mod)) % mod
            if u:
                rows.append((u, sigma_table(j, ctx.M, mod)))
        # summed unreduced; the last degree joins in the one reducing pass
        low, res = ctx.pows[top], [0] * (ctx.M + 1)
        for u, tab in rows[:-1]:
            res = [x + u * s for x, s in zip(res, tab)]
        u, tab = rows[-1] if rows else (0, res)
        res = [(x + u * s) % low for x, s in zip(res, tab)]
        res[0] = const.residue
        return QExpansion.from_flat(ctx, res, [const.prec] + [top] * ctx.M)


class ActionMeasure(Measure):
    """The measure f |-> act(f, g) attached to a q-expansion g."""

    def __init__(self, g: QExpansion):
        self.g = g
        self.ctx = g.ctx

    def __call__(self, f: ContinuousFn) -> QExpansion:
        return act(f, self.g)

    def at_character(self, zeta: CyclotomicElem) -> QExpansion:
        return act_character(zeta, self.g)


def psi(g: QExpansion) -> ActionMeasure:
    """The measure f |-> act(f, g); Amice coefficient k is act(C(., k), g)."""
    return ActionMeasure(g)


class LinearMeasure(Measure):
    """Scalar-weighted combination of measures."""

    def __init__(self, ctx: PadicContext, terms):
        self.ctx = ctx
        self.terms = [(w if not isinstance(w, int) else PadicInt(ctx, w), mu)
                      for w, mu in terms]

    def __call__(self, f: ContinuousFn):
        return _dot(self.ctx, [w for w, _ in self.terms],
                    [mu(f) for _, mu in self.terms])

    def at_character(self, zeta: CyclotomicElem):
        return _dot(self.ctx, [w for w, _ in self.terms],
                    [mu.at_character(zeta) for _, mu in self.terms])


def _scalar_or_series_zero(ctx, sample):
    if isinstance(sample, QExpansion):
        return QExpansion.zero(ctx, sample.qprec)
    return PadicInt(ctx, 0)


def _dot(ctx, cks, bs):
    """sum_k b_k c_k.  Scalar terms are one integer dot product, known to
    the least precision among them, as the sum of PadicInt products is."""
    pairs = list(zip(cks, bs))
    if all(isinstance(ck, PadicInt) and isinstance(b, PadicInt) for ck, b in pairs):
        return PadicInt(ctx, sum(ck.residue * b.residue for ck, b in pairs),
                        min((min(ck.prec, b.prec) for ck, b in pairs), default=ctx.N))
    acc = None
    for ck, b in zip(cks, bs):
        term = b * ck
        acc = term if acc is None else acc + term
    return acc if acc is not None else PadicInt(ctx, 0)


# -- module operations -------------------------------------------------------

def amice_transform(mu: Measure, K: int) -> AmiceMeasure:
    """First K+1 Amice coefficients of mu, as a measure in its own right.

    Precision is tracked coefficient by coefficient; a coefficient that
    cannot be certified to a single digit raises PrecisionExhausted.
    """
    coeffs = mu.amice(K)
    for b in coeffs:
        if isinstance(b, PadicInt) and b.prec <= 0:
            raise PrecisionExhausted("Amice coefficient lost all precision")
    return AmiceMeasure(mu.ctx, coeffs)


def eval_measure(mu: Measure, f: ContinuousFn):
    """mu(f); scalar valued or QExpansion valued depending on mu."""
    return mu(f)


def eval_at_character(mu: Measure, zeta: CyclotomicElem):
    """mu(chi_zeta) = (Amice series of mu)(zeta - 1)."""
    if not zeta.is_root_of_unity():
        raise NotRootOfUnity("characters are indexed by p-power roots of unity")
    return mu.at_character(zeta)


def eisenstein_eval(a: PadicInt, f: ContinuousFn) -> QExpansion:
    """Value of the Eisenstein measure attached to a on f."""
    return EisensteinMeasure(f.ctx, a)(f)


def convolution_nu(a: PadicInt, F: TwoVarFn) -> QExpansion:
    """The convolution measure: on f (x) g it acts by g on the Eisenstein
    value at f, so its moments on x^s y^t are (1 - a^(s+1)) theta^t 2G_(s+1).
    """
    mu = EisensteinMeasure(F.ctx, a)
    terms = (act(g, mu(f)) for f, g in F.terms)
    first = next(terms, None)
    return QExpansion.zero(F.ctx) if first is None else sum(terms, first)


def measure_from_json(ctx: PadicContext, obj,
                      what: str = "a measure descriptor") -> Measure:
    """Build a measure from its JSON descriptor (dict or JSON string);
    ``what`` names the descriptor in the ConfigError of a malformed one."""
    obj = json_object(obj, what)
    kind = obj.get("kind")
    if kind == "dirac":
        return DiracMeasure(PadicInt(ctx, json_int_field(obj, "c", kind)))
    if kind == "amice":
        return AmiceMeasure(ctx, json_int_list(obj, "coeffs", kind))
    if kind == "eisenstein":
        a = check_a_range(json_int_field(obj, "a", kind), ctx.p, ctx.N,
                          "eisenstein field 'a'")
        return EisensteinMeasure(ctx, PadicInt(ctx, a))
    if kind == "linear":
        terms = json_list(obj, "terms", kind)
        if not all(isinstance(t, list) and len(t) == 2 for t in terms):
            raise ConfigError("linear field 'terms' must hold [weight, "
                              f"measure] pairs, got {json.dumps(terms)}")
        what = "a measure in linear field 'terms'"
        return LinearMeasure(ctx, [
            (json_int(w, "linear term weight"),
             measure_from_json(ctx, inner, what))
            for w, inner in terms])
    raise ValueError(f"unknown measure kind {kind!r}")


# -- two-variable L-values -----------------------------------------------------

def validate_character(chi: ContinuousFn, m: int) -> list:
    """Check that chi is a character of (Z/p^m)^x; returns its table.

    The group is cyclic with generator g = unit_group_generator(p), so the
    check is chi(1) = 1 and chi(g^(i+1)) = chi(g^i) chi(g) for i < phi(p^m),
    each modulo the least precision of its three entries: a pass proves
    multiplicativity modulo p^e, e the least precision of a unit-class entry.
    """
    ctx, pm = chi.ctx, chi.ctx.p ** m
    if chi.lc_level is None:
        raise ValueError("characters must be locally constant data")
    if chi.lc_level > m:
        raise ValueError("character level exceeds requested level")
    tab = poly_lc_terms(chi)[1][0]
    tab = tab * (pm // len(tab))  # one period, repeated up to level m
    if not (tab[1 % pm] == PadicInt(ctx, 1)):
        raise ValueError("character must send 1 to 1")
    g, u = unit_group_generator(ctx.p) % pm, 1
    for _ in range(phi_pm(ctx.p, m)):
        if not (tab[u * g % pm] == tab[u] * tab[g]):
            raise ValueError(
                f"character table not multiplicative at ({u}, {g})")
        u = u * g % pm
    return tab


def lvalue(chi1: ContinuousFn, chi2: ContinuousFn, a: PadicInt) -> tuple:
    """(L, factor, nu) for a pair of characters, from one validated table of
    each at their common level m >= 1.

    The Eisenstein measure is evaluated once, on the table of chi1/chi2 (0
    off the units).  L is its constant term over the Euler-type factor
    1 - chi1(a) a / chi2(a); nu is chi2, zero-extended off the units, acting
    on it: the convolution value on the zero-extended pair.
    """
    ctx = chi1.ctx
    m = max(chi1.lc_level or 0, chi2.lc_level or 0, 1)
    _check_level(m)
    tab1, tab2 = validate_character(chi1, m), validate_character(chi2, m)
    quotient = LocallyConstant(ctx, m, {c: tab1[c] * tab2[c].inverse()
                                        for c in range(ctx.p ** m)
                                        if c % ctx.p})
    if not a.is_unit():
        raise NotUnit("a must be a unit")
    ar = a.residue % ctx.p ** m
    factor = PadicInt(ctx, 1) - tab1[ar] * a * tab2[ar].inverse()
    if not factor.is_unit():
        raise EulerFactorNotInvertible(
            "1 - chi1(a) a / chi2(a) is congruent to 0 mod p")
    g = EisensteinMeasure(ctx, a)(quotient)
    return (g.coefficient(0) * factor.inverse(), factor,
            act(ZeroExtendedUnits(LocallyConstant(ctx, m, tab2)), g))
