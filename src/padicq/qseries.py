"""Truncated q-expansions and the classical series built from divisor sums.

A QExpansion stores coefficients a_0..a_qprec of an exact series
sum a_n q^n; index n always means the exact exponent of q^n.  Arithmetic
truncates at the minimum q-precision of the operands, and U_p records the
q-precision drop to floor(M/p) instead of silently inventing coefficients.
No operation divides by the index n, so q-coefficients never lose p-adic
precision.

A series with scalar coefficients is stored flat: ``res[n]`` is the residue
of a_n reduced into [0, p^prec[n]) and ``prec[n]`` its known digits, the
pair (res, prec) in which ``zpfun.values`` and ``divisor_sum`` also return
scalars.  A ring-valued series is a tuple of such flat series: one per
power-basis coordinate of Z[zeta_{p^L}]/p^N (lower-level coefficients are
lifted as ``CyclotomicElem.lift_to`` lifts them).  Sums, U_p and V_p run
the scalar code on each coordinate.  A product of scalar series is one
convolution of the residues, ``_convolve``: four-point Kronecker
substitution, five integer products of a quarter of the size of the one
that packs whole series.  Constant terms, -B_k/k and L(1-k, f), are integer
pairs (num, den), exact mod p^N, that ``reduce_rational`` reduces.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import isqrt
from operator import add

from .cyclotomic import CyclotomicElem, phi_pm
from .errors import PrecisionExhausted
from .padic import PadicContext, PadicInt, _bernoulli_weights, \
    padic_valuation, reduce_rational
from .zpfun import ContinuousFn, LocallyConstant, Product, Scaled, \
    ZeroExtendedUnits, values


def _same_ring(ctx: PadicContext, other: PadicContext) -> None:
    if other is not ctx and (other.p, other.N) != (ctx.p, ctx.N):
        raise ValueError("mixed p-adic contexts")


class QExpansion:
    """sum_{n<=qprec} a_n q^n over Z/p^N or Z[zeta_{p^L}]/p^N.

    ``level`` names the ring: 0 for scalars, stored flat in ``res`` and
    ``prec``; L >= 1 for cyclotomic coefficients, whose phi(p^L) coordinate
    series are ``parts``.
    ``coeffs`` is a fresh list of ring elements on each read; no list is
    mutated once a series is built, so results may share them.
    """

    __slots__ = ("ctx", "qprec", "level", "res", "prec", "parts")

    def __init__(self, ctx: PadicContext, coeffs, qprec: int | None = None):
        qprec = ctx.M if qprec is None else min(qprec, ctx.M)
        coeffs = list(coeffs)[: qprec + 1]
        coeffs += [0] * (qprec + 1 - len(coeffs))
        for c in coeffs:
            if not isinstance(c, int):
                _same_ring(ctx, getattr(c, "ctx", ctx))
        self.ctx, self.qprec, self.level, self.parts = ctx, qprec, 0, None
        self.res = self.prec = None
        level = max((c.level for c in coeffs if isinstance(c, CyclotomicElem)),
                    default=0)
        if level:  # every coefficient lifted to the highest level
            one = CyclotomicElem.one(ctx, level)
            els = [c.lift_to(level) if isinstance(c, CyclotomicElem) else one * c
                   for c in coeffs]
            self.level, self.parts = level, tuple(QExpansion.from_flat(
                ctx, list(r), list(e)) for r, e in zip(zip(*(x.res for x in els)),
                                                       zip(*(x.prec for x in els))))
            return
        coeffs = [c.constant_part() if isinstance(c, CyclotomicElem) else c
                  for c in coeffs]
        self.res = [c % ctx.modulus if isinstance(c, int) else c.residue
                    for c in coeffs]
        self.prec = [ctx.N if isinstance(c, int) else c.prec for c in coeffs]

    @classmethod
    def from_flat(cls, ctx: PadicContext, res: list, prec: list) -> "QExpansion":
        """a_n = res[n] + O(p^prec[n]), unchecked and kept (see the module)."""
        g = object.__new__(cls)
        g.ctx, g.qprec, g.level, g.res, g.prec, g.parts = \
            ctx, len(res) - 1, 0, res, prec, None
        return g

    @classmethod
    def from_parts(cls, ctx: PadicContext, level: int, parts) -> "QExpansion":
        """The level-L series with coordinate series ``parts`` (L >= 1), or
        parts[0] itself at level 0; unchecked and kept."""
        if level == 0:
            return parts[0]
        g = object.__new__(cls)
        g.ctx, g.qprec, g.level, g.res, g.prec, g.parts = \
            ctx, parts[0].qprec, level, None, None, tuple(parts)
        return g

    @classmethod
    def zero(cls, ctx: PadicContext, qprec: int | None = None) -> "QExpansion":
        return cls(ctx, [], qprec)

    @property
    def coeffs(self) -> list:
        ctx, parts = self.ctx, self.parts
        if parts is None:
            return [PadicInt(ctx, r, e) for r, e in zip(self.res, self.prec)]
        shared = {}  # coefficients with equal precisions share one list
        return [CyclotomicElem.from_flat(
            ctx, self.level, list(r), shared.get(e) or shared.setdefault(e, list(e)))
            for r, e in zip(zip(*(c.res for c in parts)),
                            zip(*(c.prec for c in parts)))]

    def coefficient(self, n: int):
        if not 0 <= n <= self.qprec:
            raise IndexError(f"coefficient {n} outside 0..{self.qprec}")
        if self.parts is None:
            return PadicInt(self.ctx, self.res[n], self.prec[n])
        return CyclotomicElem(self.ctx, self.level,
                              [c.coefficient(n) for c in self.parts])

    def _combine(self, other, sign: int):
        if not isinstance(other, QExpansion):
            return NotImplemented
        ctx = self.ctx
        _same_ring(ctx, other.ctx)
        if self.parts or other.parts:
            level = max(self.level, other.level)  # the ring holding both
            xs, ys = _coords(self, level), _coords(other, level)
            return QExpansion.from_parts(ctx, level, [x._combine(y, sign)
                                                      for x, y in zip(xs, ys)])
        pows = ctx.pows
        prec = [e if e < f else f for e, f in zip(self.prec, other.prec)]
        return QExpansion.from_flat(ctx, [(x + sign * y) % pows[e] for x, y, e
                                          in zip(self.res, other.res, prec)], prec)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        # 0 - c keeps every residue and precision of -c, in every ring
        return QExpansion.zero(self.ctx, self.qprec) - self

    def times_scalars(self, res, prec) -> "QExpansion":
        """Coefficient n times the scalar res[n] + O(p^prec[n]), n <= qprec.

        A ring coefficient times a scalar knows as many digits as its least
        known coordinate, as in ``CyclotomicElem * PadicInt``.  When every
        operand digit is known the products are reduced mod p^N directly.
        """
        ctx, least = self.ctx, _least_prec(self)
        if min(prec) == ctx.N == min(least):
            mods = repeat(ctx.modulus)
        else:
            least = [e if e < f else f for e, f in zip(prec, least)]
            mods = [ctx.pows[e] for e in least]
        return QExpansion.from_parts(ctx, self.level, [QExpansion.from_flat(
            ctx, [x * y % m for x, y, m in zip(res, c.res, mods)], least)
            for c in self.parts or (self,)])

    def scale(self, c) -> "QExpansion":
        """Multiply every coefficient by the scalar c."""
        if not isinstance(c, (int, PadicInt)):
            return QExpansion(self.ctx, [c * a for a in self.coeffs], self.qprec)
        c, n = PadicInt(self.ctx, c) if isinstance(c, int) else c, self.qprec + 1
        _same_ring(self.ctx, c.ctx)
        return self.times_scalars([c.residue] * n, [c.prec] * n)

    def __mul__(self, other):
        """Product truncated at the smaller q-precision.

        Coefficient n is sum_{i<=n} a_i b_(n-i), where a term with a_i zero
        to full precision is dropped and every other term caps the
        precision at min(prec a_i, prec b_(n-i)); when both factors are
        known to N digits throughout, that is N everywhere and the
        precision pass is skipped.  Defined for scalar coefficients only;
        the residues are multiplied by ``_convolve``.
        """
        if not isinstance(other, QExpansion):
            return self.scale(other)
        ctx = self.ctx
        _same_ring(ctx, other.ctx)
        if self.parts or other.parts:
            raise TypeError("products need scalar coefficients")
        n, N = min(self.qprec, other.qprec) + 1, ctx.N
        pa, pb = self.prec[:n], other.prec[:n]
        sums = _convolve(self.res[:n], other.res[:n],
                         2 * ctx.modulus.bit_length() + n.bit_length())
        if min(pa) == min(pb) == N:
            return QExpansion.from_flat(ctx, [s % ctx.modulus for s in sums], pa)
        live = [0 if x == 0 and e == N else 1 for x, e in zip(self.res, pa)]
        # the precision of the live a_i enters every later coefficient ...
        prec, low = [], N
        for e, alive in zip(pa, live):
            if alive and e < low:
                low = e
            prec.append(low)
        # ... and a low-precision b_j enters n = i + j for every live a_i
        for v in {e for e in pb if e < N}:
            hits = _convolve(live, [int(e == v) for e in pb], n.bit_length())
            prec = [min(pr, v) if h else pr for pr, h in zip(prec, hits)]
        pows = ctx.pows
        return QExpansion.from_flat(ctx, [s % pows[e] for s, e
                                          in zip(sums, prec)], prec)

    def __eq__(self, other):
        """Equal at the smaller precision of each pair of coefficients."""
        if not isinstance(other, QExpansion):
            return NotImplemented
        d = self - other
        return not any(any(c.res) for c in d.parts or (d,))

    __hash__ = None

    def __repr__(self):
        head = ", ".join(repr(self.coefficient(n)) for n in range(self.qprec + 1)[:4])
        return f"QExpansion([{head}, ...], qprec={self.qprec})"


def _least_prec(g: QExpansion) -> list:
    """Per coefficient, the least precision over every coordinate of g."""
    precs = [c.prec for c in g.parts or (g,)]
    return precs[0] if all(e is precs[0] for e in precs) \
        else list(map(min, *precs))


def _coords(g: QExpansion, level: int) -> list:
    """The phi(p^level) coordinate series of g at ``level`` >= g.level, each
    coefficient lifted with ``CyclotomicElem.lift_to``: every coordinate of
    a lifted coefficient knows its least known digits."""
    parts = g.parts or (g,)
    if g.level == level:
        return parts
    ctx, pows, top = g.ctx, g.ctx.pows, _least_prec(g)
    out = [QExpansion.from_flat(ctx, [0] * len(top), top)] * phi_pm(ctx.p, level)
    out[::ctx.p ** (level - g.level)] = [QExpansion.from_flat(
        ctx, [r % pows[e] for r, e in zip(c.res, top)], top) for c in parts]
    return out


def _convolve(xs: list[int], ys: list[int], bits: int) -> list[int]:
    """First len(xs) coefficients of the product h of two polynomials with
    non-negative integer coefficients, each coefficient of h < 2^bits.

    Four-point Kronecker substitution (Harvey, J. Symbolic Comput. 44,
    2009): with slots of S = 8w bits, w whole bytes holding 2^bits, and
    T = 2^(S/4), x(T), x(-T) and x(iT) are sums and differences of the
    packed index classes mod 4, each shifted by r S/4 bits.  Five integer
    products of a quarter of the one-point size (h(T), h(-T) and the three
    of the Gaussian h(iT)) give each class of h, T^r h_r(2^S), by sums,
    differences and exact shifts; under CPython's Karatsuba they cost less
    than one full-size product from about 120 coefficients on.
    """
    w = (bits + 7) // 8
    s, n = 2 * w, len(xs)

    def points(cs):  # x(T) = e + o, x(-T) = e - o, x(iT) = re + i im
        a0, a1, a2, a3 = (int.from_bytes(b"".join(
            c.to_bytes(w, "little") for c in cs[r::4]), "little") << r * s
            for r in range(4))
        return a0 + a2, a1 + a3, a0 - a2, a1 - a3

    e, o, re, im = points(xs)
    E, O, RE, IM = points(ys)
    plus, minus = (e + o) * (E + O), (e - o) * (E - O)
    ac, bd = re * RE, im * IM
    even, odd = plus + minus, plus - minus
    real, imag = 2 * (ac - bd), 2 * ((re + im) * (RE + IM) - ac - bd)
    out, size = [0] * n, w * ((n + len(ys)) // 4 + 1)
    # 4 T^r h_r(2^S) for r = 0, 1, 2, 3
    for r, v in enumerate((even + real, odd + imag, even - real, odd - imag)):
        buf = (v >> r * s + 2).to_bytes(size, "little")
        out[r::4] = [int.from_bytes(buf[i: i + w], "little")
                     for i in range(0, w * len(range(r, n, 4)), w)]
    return out


# -- operators ----------------------------------------------------------------

def theta(g: QExpansion) -> QExpansion:
    """The derivation q d/dq: multiplies coefficient n by n."""
    n = g.qprec + 1
    return g.times_scalars(range(n), [g.ctx.N] * n)


def u_p(g: QExpansion) -> QExpansion:
    """Coefficient n of the result is a_{pn}; q-precision drops to floor(M/p)."""
    p = g.ctx.p
    if g.parts:
        return QExpansion.from_parts(g.ctx, g.level, [u_p(c) for c in g.parts])
    return QExpansion.from_flat(g.ctx, g.res[::p], g.prec[::p])


def v_p(g: QExpansion) -> QExpansion:
    """Coefficient pn of the result is a_n, all other coefficients 0."""
    p, n, k = g.ctx.p, g.qprec + 1, g.qprec // g.ctx.p + 1
    if g.parts:
        return QExpansion.from_parts(g.ctx, g.level, [v_p(c) for c in g.parts])
    res, prec = [0] * n, [g.ctx.N] * n
    res[::p], prec[::p] = g.res[:k], g.prec[:k]
    return QExpansion.from_flat(g.ctx, res, prec)


# -- divisor sums --------------------------------------------------------------

def divisor_sum(ctx: PadicContext, w: tuple, e: int) -> tuple:
    """out[n] = sum_{d | n} d^e w[d] mod p^N for 1 <= n < len(res), with
    flat weights w = (res, prec) and flat sums (res, prec) out; w[0] is
    ignored and out[0] is an exact 0.

    out[n] is known to the least prec of the w[d], d | n: a zero weight
    known to fewer digits still caps its sums, and a weight 0 skips its d^e.
    """
    (res, wprec), mod, pows = w, ctx.modulus, ctx.pows
    sums = _sieve([r * pow(d, e, mod) % mod if r else 0
                   for d, r in enumerate(res)] if e else res)
    prec = [ctx.N] * len(res)
    if min(wprec[1:], default=ctx.N) >= ctx.N:
        return [s % mod for s in sums], prec
    # only weights known to fewer than N digits lower any out[n]
    for d, v in enumerate(wprec):
        if d and v < ctx.N:
            prec[d::d] = [min(pr, v) for pr in prec[d::d]]
    return [s % pows[pr] for s, pr in zip(sums, prec)], prec


def _sieve(w: list[int]) -> list[int]:
    """out[n] = sum_{d | n} w[d] for 1 <= n < len(w), out[0] = 0."""
    M, s = len(w) - 1, isqrt(len(w) - 1)
    out = [0] * (M + 1)
    # each d <= s with all of its multiples, then d > s by cofactor j < M / s
    for d in range(1, s + 1):
        if w[d]:
            out[d::d] = map(add, out[d::d], repeat(w[d]))
    tail = w[s + 1:]
    for j in range(1, M // (s + 1) + 1):
        out[j * (s + 1)::j] = map(add, out[j * (s + 1)::j], tail)
    return out


def _least_prime_factors(M: int) -> list[int]:
    """spf[n] = the least prime factor of n <= M (n itself for primes and
    n < 2): i runs down, so each composite keeps the least i, a prime."""
    spf = list(range(M + 1))
    for i in range(isqrt(M), 1, -1):
        spf[i * i::i] = [i] * ((M - i * i) // i + 1)
    return spf


# sigma tables most recently used, keyed by (e, M, mod): a process sweeping
# many weights keeps only the last SIGMA_CACHE_SIZE of them
SIGMA_CACHE_SIZE = 32


@lru_cache(maxsize=SIGMA_CACHE_SIZE)
def sigma_table(e: int, M: int, mod: int) -> tuple:
    """sigma_e(n) = sum of e-th powers of divisors, reduced mod ``mod``, for
    n <= M; every entry is < mod, and a mod above every sigma_e(n) (say
    (M + 1)^(e + 1)) gives the exact integers.

    sigma_e is multiplicative: with q the power of the least prime factor
    p of n, sigma_e(n) = sigma_e(q) sigma_e(n / q), and sigma_e(q) =
    sigma_e(q / p) + q^e, so each prime power costs one modular power and
    every other n one product of residues.
    """
    spf = _least_prime_factors(M)
    sig, part = [0, 1 % mod] + [0] * (M - 1), [0, 1] + [0] * (M - 1)
    for n in range(2, M + 1):
        p = spf[n]
        m = n // p
        q = part[n] = part[m] * p if spf[m] == p else p
        sig[n] = (sig[m] + pow(n, e, mod)) % mod if q == n \
            else sig[q] * sig[n // q] % mod
    return tuple(sig[:M + 1])


# -- Eisenstein series ----------------------------------------------------------

def eisenstein_2G(ctx: PadicContext, k: int) -> QExpansion:
    """The weight-k Eisenstein series 2G_k, zero for odd k.

    Constant term -B_k/k from ``_bernoulli_weights``, a pole that raises
    NotPIntegral for (p-1) | k (v_p = -1 - v_p(k) by von Staudt-Clausen;
    the regularized measure has those moments); the other coefficients are
    2 sigma_(k-1)(n) from the sigma table mod p^N.
    """
    if k < 2:
        raise ValueError("2G_k requires k >= 2 (the k = 1 series is not defined)")
    if k % 2 == 1:
        return QExpansion.zero(ctx)
    (w,), den = _bernoulli_weights(ctx, k, 0, [0])
    const, mod = reduce_rational(-w, den, ctx), ctx.modulus
    return QExpansion.from_flat(
        ctx, [const.residue] + [2 * s % mod
                                for s in sigma_table(k - 1, ctx.M, mod)[1:]],
        [const.prec] + [ctx.N] * ctx.M)


def eisenstein_2G_twisted(ctx: PadicContext, k: int,
                          f: ContinuousFn) -> QExpansion:
    """Twisted series: L(1-k, f) + 2 sum_n q^n sum_{d|n} d^(k-1) f(d), the
    constant term known to the digits ``_lvalue`` gives it."""
    if k < 2:
        raise ValueError("twisted 2G_k requires k >= 2")
    (num, den), top = _lvalue(k, f)
    const = reduce_rational(num, den, ctx, top)
    res, prec = values(f, range(ctx.M + 1))  # flat: f's table is scalar
    res, prec = divisor_sum(ctx, ([2 * r for r in res], prec), k - 1)
    res[0], prec[0] = const.residue, const.prec
    return QExpansion.from_flat(ctx, res, prec)


def _lvalue(k: int, f: ContinuousFn) -> tuple[tuple[int, int], int]:
    """((num, den), e): L = sum_c f(c) w_c mod p^(N + v_p(den)) is num/den,
    w_c = -F^(k-1) B_k(c/F)/k over one period F = p^m of a locally
    constant scalar f, and e the digits of L(1-k, f) that L is known to.

    Every w_c is -W_c/den from ``_bernoulli_weights``.  f(c) is read, as
    its canonical residue, at each class c where f may be nonzero
    (``_support``), and caps e at e_c + v_p(w_c) = e_c + v_p(W_c) - v_p(den),
    e_c <= N its digits: a value 0 to all N digits too.  A cap below 0
    leaves unknown whether L(1-k, f) is p-integral at all and raises
    PrecisionExhausted.
    """
    m, ctx = f.lc_level, f.ctx
    if m is None:
        raise ValueError("twist must be locally constant")
    if f.ring_level:  # refused before any of its values is read
        raise TypeError("L-values need scalar (non-cyclotomic) twists")
    p, (lvl, cs) = ctx.p, _support(f)
    classes = [c + i * p ** lvl for c in cs for i in range(p ** (m - lvl))]
    ws, den = _bernoulli_weights(ctx, k, m, classes)
    vden, total, top = padic_valuation(den, p), 0, ctx.N
    for c, w in zip(classes, ws):
        v = f.evaluate(PadicInt(ctx, c))
        if not isinstance(v, PadicInt):
            raise TypeError("L-values need scalar (non-cyclotomic) twists")
        if w:
            total -= v.residue * w
            top = min(top, v.prec + padic_valuation(w, p) - vden)
    if top < 0:
        raise PrecisionExhausted("L(1-k, f) is known to fewer than 0 digits")
    return (total, den), top


def _support(f: ContinuousFn) -> tuple[int, set]:
    """(l, S): f is 0 off the classes S mod p^l.  A step function stores
    them, a unit scaling maps them by the inverse unit, and a product or a
    zero extension keeps those of both factors; (0, {0}), every class, for
    a constant or any other f."""
    p = f.ctx.p
    if isinstance(f, LocallyConstant):
        return f.level, set(f.table)
    if isinstance(f, Scaled) and f.mult.is_unit():
        lvl, cs = _support(f.inner)
        inv = pow(f.mult.residue, -1, p ** lvl)
        return lvl, {inv * c % p ** lvl for c in cs}
    if isinstance(f, Product):
        pair = _support(f.f), _support(f.g)
    elif isinstance(f, ZeroExtendedUnits):  # inner times 1 on the units
        pair = _support(f.inner), (1, set(range(1, p)))
    else:
        return 0, {0}
    (la, sa), (lb, sb) = sorted(pair, key=lambda s: s[0])
    return lb, {c for c in sb if c % p ** la in sa}


# -- JSON ------------------------------------------------------------------------

def series_to_json(g: QExpansion) -> dict:
    """Stable JSON form; every residue string is paired with its precision."""
    if g.parts:
        raise TypeError("only scalar series serialize to JSON")
    return {
        "schema": 1,
        "kind": "series",
        "p": g.ctx.p,
        "N": g.ctx.N,
        "M": g.qprec,
        "coeffs": [str(r) for r in g.res],
        "prec": list(g.prec),
    }
