"""p-adic measures and the Eisenstein measure machinery.

A measure here is a bounded linear functional on continuous functions,
valued in scalars or in q-expansions.  The only nontrivial construction is
the regularized constant-term functional, which is pinned by its moments
(1 - a^k)(-B_k/k) alone; we realize it through the exact power series

    A_a(T) = a / ((1+T)^a - 1)  -  1/T,

which lies in Z_p[[T]] because the denominator has unit linear coefficient.
Truncations of A_a are computed by exact series inversion modulo p^N (the
only division is by the unit a), polynomial moments come out of the finite
Mahler pairing at full precision, and locally constant functions go through
the character decomposition, costing exactly m digits for level m.  The
pairing stops at the least n0 with v_p(n0!) >= N, about (p-1)N whatever the
weight: the n-th Mahler coefficient of z^j is Delta^n(z^j)(0) = n! S(j, n),
a multiple of n! and so 0 mod p^N from n0 on, which keeps the sum exact.
As Delta^n f(0) = sum_i (-1)^(n-i) C(n, i) f(i), the pairing is a dot
product sum_i w_i i^j with point weights w_i, i < n0, built once.
At a primitive p^l-th root zeta, zeta - 1 is a root of Phi_{p^l}(1 + T),
which is monic of degree phi(p^l): the kernel series is reduced modulo it
with plain integers, then evaluated by Horner in phi(p^l) ring steps.  One
such root per level suffices: the other roots of level l are its Galois
conjugates, so their share of the character sum is an integer trace of the
one value.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from math import comb
from operator import mul

from .action import M_MAX, act, act_character
from .cyclotomic import CyclotomicElem, phi_pm
from .errors import (ConfigError, EulerFactorNotInvertible, NotRootOfUnity,
                     NotUnit, PrecisionExhausted, UnsupportedShape,
                     check_a_range, json_int, json_int_field, json_int_list,
                     json_list, json_object)
from .padic import PadicContext, PadicInt, padic_valuation
from .qseries import (SIGMA_CACHE_SIZE, QExpansion, _least_prime_factors,
                      divisor_sum, sigma_table)
from .zpfun import (Binomial, Character, ContinuousFn, LocallyConstant,
                    Polynomial, TwoVarFn, ZeroExtendedUnits, as_table,
                    indicator, lc_level, mahler_coeffs, monomial, multiply,
                    poly_lc_terms, table_values, values)


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

    def base(self, K: int) -> list[int]:
        """Coefficients of A_a(T) mod (p^N, T^(K+1))."""
        if len(self._base) < K + 1:
            self._base = self._compute(K)
        return self._base[: K + 1]

    def _compute(self, K: int) -> list[int]:
        ctx, r = self.ctx, self.a.residue
        mod = ctx.modulus
        # P(T) = ((1+T)^r - 1)/T, Q(T) = ((1+T)^r - 1 - rT)/T^2, both exact,
        # from C(r, i) = C(r, i - 1) (r - i + 1) / i for i <= min(r, K + 2)
        c = [1]
        for i in range(1, min(r, K + 2) + 1):
            c.append(c[-1] * (r - i + 1) // i)
        P, Q = [x % mod for x in c[1:K + 2]], [x % mod for x in c[2:K + 3]] or [0]
        inv0 = pow(P[0], -1, mod)
        R = [inv0] + [0] * K
        for n in range(1, K + 1):
            acc = 0
            for i in range(1, min(n, len(P) - 1) + 1):
                acc += P[i] * R[n - i]
            R[n] = (-inv0 * acc) % mod
        out = []
        for n in range(K + 1):
            acc = 0
            for i in range(0, min(n, len(Q) - 1) + 1):
                acc += Q[i] * R[n - i]
            out.append((-acc) % mod)
        return out

    def twisted(self, j: int, K: int) -> list[int]:
        """Coefficients of ((1+T) d/dT)^j A_a, to T-degree K."""
        mod = self.ctx.modulus
        cur = self.base(K + j)
        for _ in range(j):
            cur = [((n + 1) * cur[n + 1] + n * cur[n]) % mod
                   for n in range(len(cur) - 1)]
        return cur[: K + 1]


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
    is one dot product of the point weights w_i, i < n0, with the powers
    i^(k-1) mod p^N.  The weights and the least prime factors of i < n0 are
    built once per functional; i^(k-1) is completely multiplicative in i,
    so only prime i take a modular power, and the cost barely grows with k.
    Values on level-m step functions are exact to N - m digits and cost one
    Horner per level l <= m (phi(p^l) ring products) plus integer traces.  Step functions and characters
    beyond the fixed cap action.M_MAX raise PrecisionExhausted.
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
        """kappa(z^j) = sum_{n<n0} b_n Delta^n(z^j)(0) = sum_{i<n0} w_i i^j
        mod p^N, b_n the kernel coefficients (see the module docstring);
        i^j = q^j (i/q)^j for the least prime factor q of a composite i."""
        ctx, mod = self.ctx, self.ctx.modulus
        if not self._weights:
            n0, v = 0, 0
            while v < ctx.N:
                n0 += 1
                v += padic_valuation(n0, ctx.p)
            self._weights = _point_weights(self.kernel.base(n0 - 1), mod)
            self._factors = _least_prime_factors(n0 - 1)
        row: list[int] = []
        for i, q in enumerate(self._factors):
            row.append(pow(i, j, mod) if q == i else row[q] * row[i // q] % mod)
        return PadicInt(ctx, sum(map(mul, self._weights, row)))

    def value_character(self, zeta: CyclotomicElem, j: int = 0):
        """kappa(z^j chi_zeta) = (twisted series)(zeta - 1), full precision."""
        ctx = self.ctx
        K = ctx.N * phi_pm(ctx.p, zeta.level)
        coeffs = self.kernel.twisted(j, K)
        lvl = _root_level(zeta)
        if lvl is not None:
            coeffs = _mod_psi(coeffs, ctx.p, lvl, ctx.modulus)
        return _horner_cyclo(ctx, coeffs, zeta)

    def _indicator_values(self, j: int, m: int) -> list[PadicInt]:
        """kappa(z^j 1_{c + p^m Z_p}) for all c, by Galois traces.

        p^m kappa(z^j 1_c) = F(0) + sum_l Tr_l(zeta_l^(-c) F(zeta_l - 1)) for
        the j-th twisted series F and one primitive p^l-th root zeta_l per
        level l <= m: the other roots of level l are its Galois conjugates.
        So F is evaluated once per level, and each trace is read off the
        power-basis coordinates of that value with integers.
        """
        key = (j, m)
        if key in self._indicator_cache:
            return self._indicator_cache[key]
        ctx, p = self.ctx, self.ctx.p
        sums = [self.kernel.twisted(j, 0)[0]] * p ** m
        prec = ctx.N
        for lvl in range(1, m + 1):
            K = ctx.N * phi_pm(p, lvl)
            rem = _mod_psi(self.kernel.twisted(j, K), p, lvl, ctx.modulus)
            e = _horner_cyclo(ctx, rem, CyclotomicElem.zeta(ctx, lvl))
            prec = min(prec, e.min_prec())
            # Tr_l(zeta^k) is p^l - q if p^l | k, -q if v_p(k) = l - 1 and 0
            # otherwise (q = p^(l-1)), so zeta^(-c) meets only the p - 1
            # coordinates k = c mod q, and k = c mod p^l if k < phi(p^l)
            q, x = p ** (lvl - 1), e._raw()
            for c in range(len(sums)):
                k = c % (p * q)
                sums[c] -= q * sum(x[c % q::q])
                if k < len(x):
                    sums[c] += p * q * x[k]
        out = [PadicInt(ctx, s, prec).divide_by_p(m) for s in sums]
        self._indicator_cache[key] = out
        return out

    # -- public evaluation ----------------------------------------------------

    def value(self, f: ContinuousFn, lc: tuple | None = None):
        """kappa(f) for exactly representable f (``lc``: poly_lc_terms(f))."""
        ctx = self.ctx
        if isinstance(f, Binomial):
            return PadicInt(ctx, self.kernel.base(f.k)[f.k])
        if isinstance(f, Character):
            _check_level(f.level)
            return self.value_character(f.zeta)
        m, terms = lc or poly_lc_terms(f)
        _check_level(m)
        if m == 0:
            acc = PadicInt(ctx, 0)
            for j, tab in terms.items():
                acc = acc + tab[0] * self.moment(j)
            return acc
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


def _mod_psi(coeffs: list[int], p: int, level: int, mod: int) -> list[int]:
    """Remainder of an integer series modulo Psi_l(T) = Phi_{p^l}(1 + T).

    Psi_l is monic of degree phi(p^l) with integer coefficients
    Psi_k = sum_{i<p} C(i p^(l-1), k) (and Psi_0 = T); the remainder has at
    most phi(p^l) coefficients, reduced mod ``mod``.
    """
    if level == 0:
        psi = [0, 1]
    else:
        step = p ** (level - 1)
        psi = [sum(comb(i * step, k) for i in range(p)) % mod
               for k in range(phi_pm(p, level) + 1)]
    phi = len(psi) - 1
    rem = list(coeffs)
    for d in range(len(rem) - 1, phi - 1, -1):
        c = rem[d] % mod
        if c:
            rem[d - phi:d] = [r - c * q for r, q in zip(rem[d - phi:d], psi)]
    return [c % mod for c in rem[:phi]]


def _root_level(zeta: CyclotomicElem) -> int | None:
    """The l <= zeta.level with Phi_{p^l}(zeta) = 0 exactly in zeta's ring.

    Phi_{p^l}(zeta) = 1 + y + ... + y^(p-1) with y = zeta^(p^(l-1)), and
    Phi_1(zeta) = zeta - 1.  None when no such l exists (say 1 + p known
    mod p^2, a root of unity that no Phi_{p^l} kills); the series is then
    evaluated in full.
    """
    p = zeta.ctx.p
    ys = [zeta]                     # ys[k] = zeta^(p^k)
    for _ in range(zeta.level - 1):
        ys.append(ys[-1] ** p)
    for lvl in range(zeta.level, 0, -1):
        term = total = CyclotomicElem.one(zeta.ctx, 0)
        for _ in range(p - 1):
            term = term * ys[lvl - 1]
            total = total + term
        if total.is_zero():
            return lvl
    return 0 if (zeta - 1).is_zero() else None


def _horner_cyclo(ctx: PadicContext, coeffs: list[int], zeta: CyclotomicElem):
    """Evaluate an integer-coefficient series at zeta - 1 in zeta's ring.

    Callers first reduce the series modulo Psi_l(T) = Phi_{p^l}(1 + T) when
    zeta is a root of Phi_{p^l} (``_mod_psi``): Psi_l(zeta - 1) = Phi(zeta)
    = 0 exactly in (Z/p^N)[T]/Phi, so the value is unchanged, residues and
    precisions alike, and Horner takes phi(p^l) ring steps instead of one per
    series coefficient (N phi(p^l) for the kernel series).
    """
    x = zeta - CyclotomicElem.one(ctx, 0)
    acc = CyclotomicElem.zero(ctx, zeta.level)
    for c in reversed(coeffs):
        acc = acc * x
        acc = acc + c
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
        raise NotImplementedError

    def at_character(self, zeta: CyclotomicElem):
        """mu(chi_zeta); always equals the Amice series at zeta - 1."""
        raise NotImplementedError


class DiracMeasure(Measure):
    """Evaluation at a point.

    The point is a p-adic integer; binomial and character values are taken
    on its canonical residue, which is exact whenever the point was given as
    an actual integer at full precision.
    """

    def __init__(self, c: PadicInt):
        self.c = c
        self.ctx = c.ctx

    def __call__(self, f: ContinuousFn):
        return f.evaluate(self.c)

    def amice(self, K: int) -> list:
        return [PadicInt(self.ctx, comb(self.c.residue, k), self.c.prec)
                for k in range(K + 1)]

    def at_character(self, zeta: CyclotomicElem):
        return zeta ** (self.c.residue % (self.ctx.p ** zeta.level))


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
    binomials take f(d), f(a d) point by point.
    """

    def __init__(self, ctx: PadicContext, a: PadicInt):
        if not a.is_unit():
            raise NotUnit("the Eisenstein measure needs a unit parameter")
        self.ctx = ctx
        self.a = a
        self.kl = kl_constant_functional(ctx, a)

    def __call__(self, f: ContinuousFn) -> QExpansion:
        ctx, ar = self.ctx, self.a.residue
        # the constant term first: it refuses levels past the cap before
        # any table of a character is built; kl shares f's other tables
        lc = None if isinstance(f, (Binomial, Character)) else poly_lc_terms(f)
        const = self.kl.value(f, lc)
        if lc and lc[0] == 0 and len(lc[1]) <= SIGMA_CACHE_SIZE and all(
                isinstance(t[0], PadicInt) for t in lc[1].values()):
            return self._polynomial(lc[1], const)
        zero, ds = PadicInt(ctx, 0), range(ctx.M + 1)
        try:
            m, terms = lc or poly_lc_terms(f)
        except UnsupportedShape:  # binomials: two scalar rows
            (x, xp), (y, yp) = values(f, ds), values(f, [ar * d for d in ds])
            w = ([2 * (u - ar * v) for u, v in zip(x, y)],
                 [u if u < v else v for u, v in zip(xp, yp)])
        else:  # t has p^m entries
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
            res, prec = divisor_sum((c.res, c.prec), 0, zero)
            res[0], prec[0] = c.res[0], c.prec[0]
            out.append(QExpansion.from_flat(ctx, res, prec))
        return QExpansion.from_parts(ctx, g.level, out)

    def _polynomial(self, terms: dict, const: PadicInt) -> QExpansion:
        """mu(sum_j c_j z^j) for terms {j: [c_j]}: coefficient n >= 1 is
        sum_j U_j sigma_j(n) mod p^top, top the least prec c_j, as the
        divisor sum of the combined weights would give it."""
        ctx, ar, mod = self.ctx, self.a.residue, self.ctx.modulus
        top, res = min(t[0].prec for t in terms.values()), None
        for j, (c,) in terms.items():
            u = 2 * c.residue * (1 - pow(ar, j + 1, mod)) % mod
            if u:  # summed unreduced, then reduced once
                tab = sigma_table(j, ctx.M, mod)
                res = [u * s for s in tab] if res is None else \
                    [x + u * s for x, s in zip(res, tab)]
        low = ctx.pows[top]
        res = [x % low for x in res] if res else [0] * (ctx.M + 1)
        res[0] = const.residue
        return QExpansion.from_flat(ctx, res, [const.prec] + [top] * ctx.M)

    def amice(self, K: int) -> list:
        return [self(Binomial(self.ctx, k)) for k in range(K + 1)]

    def at_character(self, zeta: CyclotomicElem) -> QExpansion:
        return self(Character(zeta))


class ActionMeasure(Measure):
    """The measure f |-> act(f, g) attached to a q-expansion g."""

    def __init__(self, g: QExpansion):
        self.g = g
        self.ctx = g.ctx

    def __call__(self, f: ContinuousFn) -> QExpansion:
        return act(f, self.g)

    def amice(self, K: int) -> list:
        return [act(Binomial(self.ctx, k), self.g) for k in range(K + 1)]

    def at_character(self, zeta: CyclotomicElem) -> QExpansion:
        return act_character(zeta, self.g)


class LinearMeasure(Measure):
    """Scalar-weighted combination of measures."""

    def __init__(self, ctx: PadicContext, terms):
        self.ctx = ctx
        self.terms = [(w if not isinstance(w, int) else PadicInt(ctx, w), mu)
                      for w, mu in terms]

    def __call__(self, f: ContinuousFn):
        return _dot(self.ctx, [w for w, _ in self.terms],
                    [mu(f) for _, mu in self.terms])

    def amice(self, K: int) -> list:
        cols = [mu.amice(K) for _, mu in self.terms]
        return [_dot(self.ctx, [w for w, _ in self.terms],
                     [col[k] for col in cols]) for k in range(K + 1)]

    def at_character(self, zeta: CyclotomicElem):
        return _dot(self.ctx, [w for w, _ in self.terms],
                    [mu.at_character(zeta) for _, mu in self.terms])


def _scalar_or_series_zero(ctx, sample):
    if isinstance(sample, QExpansion):
        return QExpansion.zero(ctx, sample.qprec)
    return PadicInt(ctx, 0)


def _dot(ctx, cks, bs):
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


class ProductMeasure(Measure):
    """Measure on Z_p x Z_p induced by a bilinear form on pure tensors."""

    def __init__(self, ctx: PadicContext, bilinear):
        self.ctx = ctx
        self.bilinear = bilinear

    def __call__(self, F: TwoVarFn):
        acc = None
        for f, g in F.terms:
            v = self.bilinear(f, g)
            acc = v if acc is None else acc + v
        return acc if acc is not None else PadicInt(self.ctx, 0)


def product_measure(ctx: PadicContext, bilinear, F: TwoVarFn):
    """Evaluate the unique measure with mu(f (x) g) = bilinear(f, g) on F."""
    return ProductMeasure(ctx, bilinear)(F)


def convolution_nu(a: PadicInt, F: TwoVarFn) -> QExpansion:
    """The convolution measure: on f (x) g it acts by g on the Eisenstein
    value at f, so its moments on x^s y^t are (1 - a^(s+1)) theta^t 2G_(s+1).
    """
    mu = EisensteinMeasure(F.ctx, a)
    terms = (act(g, mu(f)) for f, g in F.terms)
    first = next(terms, None)
    return QExpansion.zero(F.ctx) if first is None else sum(terms, first)


def pushforward_halving(F: TwoVarFn) -> TwoVarFn:
    """Transport along (x, y) |-> (x, x y), re-tensored term by term.

    A monomial factor y^t contributes x^t to the first slot; a level-m step
    factor is split over the residue classes of x, since x y mod p^m only
    depends on x mod p^m.
    """
    ctx = F.ctx
    out = []
    for f, g in F.terms:
        try:
            m, terms = poly_lc_terms(g)
        except UnsupportedShape as exc:
            raise UnsupportedShape(
                f"second factor {type(g).__name__} cannot be re-tensored"
            ) from exc
        if m == 0:
            for t, tab in terms.items():
                xpart = multiply(f, Polynomial(ctx, [0] * t + [tab[0]]))
                out.append((xpart, monomial(ctx, t)))
        else:
            pm = ctx.p ** m
            for cc in range(pm):
                ind = indicator(ctx, m, cc)
                for t, tab in terms.items():
                    shifted = [tab[(cc * y) % pm] for y in range(pm)]
                    xpart = multiply(f, multiply(monomial(ctx, t), ind))
                    ypart = multiply(monomial(ctx, t),
                                     LocallyConstant(ctx, m, shifted))
                    out.append((xpart, ypart))
    return TwoVarFn(ctx, out)


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

def _character_table(chi: ContinuousFn, m: int) -> list:
    lvl = lc_level(chi)
    if lvl is None:
        raise ValueError("characters must be locally constant data")
    if lvl > m:
        raise ValueError("character level exceeds requested level")
    return as_table(chi, m)


def validate_character(chi: ContinuousFn, m: int) -> list:
    """Check multiplicativity of a unit-character table; returns the table."""
    ctx = chi.ctx
    pm = ctx.p ** m
    tab = _character_table(chi, m)
    units = [u for u in range(pm) if u % ctx.p != 0]
    one = tab[1 % pm]
    if not (one == PadicInt(ctx, 1)):
        raise ValueError("character must send 1 to 1")
    for u in units:
        for v in units:
            if not (tab[(u * v) % pm] == tab[u] * tab[v]):
                raise ValueError(
                    f"character table not multiplicative at ({u}, {v})")
    return tab


def _character_pair(chi1: ContinuousFn, chi2: ContinuousFn):
    """The common level m >= 1 of a character pair, both validated tables
    at that level, and the table of chi1/chi2 zero-extended off the units."""
    ctx = chi1.ctx
    m = max(lc_level(chi1) or 0, lc_level(chi2) or 0, 1)
    tab1 = validate_character(chi1, m)
    tab2 = validate_character(chi2, m)
    quotient = [
        tab1[c] * tab2[c].inverse() if c % ctx.p != 0
        else PadicInt(ctx, 0)
        for c in range(ctx.p ** m)
    ]
    return m, tab1, tab2, quotient


def two_variable_L(chi1: ContinuousFn, chi2: ContinuousFn, a: PadicInt):
    """The two-variable L-value pinned by the defining identity.

    Both characters are zero-extended off the units.  The y-side extension
    annihilates the literal constant coefficient of the convolution value,
    so the number returned is the measure-side constant: the regularized
    functional on the zero-extended quotient character, divided by the
    Euler-type factor 1 - chi1(a) a / chi2(a).
    """
    ctx = chi1.ctx
    m, tab1, tab2, quotient = _character_pair(chi1, chi2)
    if not a.is_unit():
        raise NotUnit("a must be a unit")
    ar = a.residue % ctx.p ** m
    factor = PadicInt(ctx, 1) - tab1[ar] * a * tab2[ar].inverse()
    if not factor.is_unit():
        raise EulerFactorNotInvertible(
            "1 - chi1(a) a / chi2(a) is congruent to 0 mod p")
    fn = ZeroExtendedUnits(LocallyConstant(ctx, m, quotient))
    kl_side = kl_constant(a, fn)
    return kl_side * factor.inverse()


def nu_character_series(chi1: ContinuousFn, chi2: ContinuousFn,
                        a: PadicInt) -> QExpansion:
    """The full convolution value on the zero-extended character pair."""
    ctx = chi1.ctx
    m, _, tab2, quotient = _character_pair(chi1, chi2)
    F = TwoVarFn.tensor(
        ZeroExtendedUnits(LocallyConstant(ctx, m, quotient)),
        ZeroExtendedUnits(LocallyConstant(ctx, m, tab2)),
    )
    return convolution_nu(a, F)
