"""Truncated q-expansions and the classical series built from divisor sums.

A QExpansion stores coefficients a_0..a_qprec of an exact series
sum a_n q^n; index n always means the exact exponent of q^n.  Arithmetic
truncates at the minimum q-precision of the operands, and U_p records the
q-precision drop to floor(M/p) instead of silently inventing coefficients.
No operation divides by the index n, so q-coefficients never lose p-adic
precision.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import json_int_field, json_int_list
from .padic import PadicContext, PadicInt, bernoulli, bernoulli_polynomial, \
    padic_valuation, reduce_rational
from .zpfun import ContinuousFn, LocallyConstant, as_table, lc_level, values


class QExpansion:
    """sum_{n=0}^{qprec} a_n q^n with scalar coefficients."""

    __slots__ = ("ctx", "coeffs", "qprec")

    def __init__(self, ctx: PadicContext, coeffs, qprec: int | None = None):
        if qprec is None:
            qprec = ctx.M
        qprec = min(qprec, ctx.M)
        coeffs = list(coeffs)[: qprec + 1]
        coeffs = [c if not isinstance(c, int) else PadicInt(ctx, c)
                  for c in coeffs]
        while len(coeffs) < qprec + 1:
            coeffs.append(PadicInt(ctx, 0))
        self.ctx = ctx
        self.coeffs = coeffs
        self.qprec = qprec

    @classmethod
    def zero(cls, ctx: PadicContext, qprec: int | None = None) -> "QExpansion":
        return cls(ctx, [], qprec)

    def coefficient(self, n: int):
        if n > self.qprec:
            raise IndexError(f"coefficient {n} beyond q-precision {self.qprec}")
        return self.coeffs[n]

    def __add__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        qp = min(self.qprec, other.qprec)
        return QExpansion(self.ctx,
                          [a + b for a, b in zip(self.coeffs, other.coeffs)], qp)

    def __sub__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        qp = min(self.qprec, other.qprec)
        return QExpansion(self.ctx,
                          [a - b for a, b in zip(self.coeffs, other.coeffs)], qp)

    def __neg__(self):
        return QExpansion(self.ctx, [-c for c in self.coeffs], self.qprec)

    def scale(self, c) -> "QExpansion":
        """Multiply every coefficient by the scalar c."""
        return QExpansion(self.ctx, [c * a for a in self.coeffs], self.qprec)

    def __mul__(self, other):
        """Product truncated at the smaller q-precision.

        Coefficient n is sum_{i<=n} a_i b_(n-i), where a term with a_i zero
        to full precision is dropped and every other term caps the
        precision at min(prec a_i, prec b_(n-i)).  Defined for scalar
        coefficients only; the residues are multiplied as one Kronecker
        product.
        """
        if not isinstance(other, QExpansion):
            return self.scale(other)
        ctx = self.ctx
        if (other.ctx.p, other.ctx.N) != (ctx.p, ctx.N):
            raise ValueError("mixed p-adic contexts")
        qp = min(self.qprec, other.qprec)
        a, b = self.coeffs[: qp + 1], other.coeffs[: qp + 1]
        if not all(isinstance(c, PadicInt) for c in a + b):
            raise TypeError("products need scalar coefficients")
        live = [0 if c.is_exact_zero() else 1 for c in a]
        # the precision of the live a_i enters every later coefficient ...
        prec, low = [], ctx.N
        for c, alive in zip(a, live):
            if alive:
                low = min(low, c.prec)
            prec.append(low)
        # ... and a low-precision b_j enters n = i + j for every live a_i
        for v in {c.prec for c in b if c.prec < ctx.N}:
            hits = _convolve(live, [int(c.prec == v) for c in b],
                             (qp + 1).bit_length())
            prec = [min(pr, v) if h else pr for pr, h in zip(prec, hits)]
        sums = _convolve([c.residue for c in a], [c.residue for c in b],
                         2 * ctx.modulus.bit_length() + (qp + 1).bit_length())
        return QExpansion(ctx, [PadicInt(ctx, s, pr)
                                for s, pr in zip(sums, prec)], qp)

    def __eq__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        qp = min(self.qprec, other.qprec)
        return all(self.coeffs[n] == other.coeffs[n] for n in range(qp + 1))

    __hash__ = None

    def __repr__(self):
        head = ", ".join(repr(c) for c in self.coeffs[:4])
        return f"QExpansion([{head}, ...], qprec={self.qprec})"


def _convolve(xs: list[int], ys: list[int], bits: int) -> list[int]:
    """First len(xs) coefficients of the product of two polynomials with
    non-negative integer coefficients, each product coefficient < 2^bits.

    Kronecker substitution: both lists are packed into one integer with
    slots of whole bytes, multiplied once (CPython's Karatsuba) and the
    slots read back; the bound on the coefficients keeps slots from carrying.
    """
    w = (bits + 7) // 8
    x = int.from_bytes(b"".join(c.to_bytes(w, "little") for c in xs), "little")
    y = int.from_bytes(b"".join(c.to_bytes(w, "little") for c in ys), "little")
    buf = (x * y).to_bytes(w * (len(xs) + len(ys)), "little")
    return [int.from_bytes(buf[i: i + w], "little")
            for i in range(0, w * len(xs), w)]


# -- operators ----------------------------------------------------------------

def theta(g: QExpansion) -> QExpansion:
    """The derivation q d/dq: multiplies coefficient n by n."""
    return QExpansion(g.ctx, [n * c for n, c in enumerate(g.coeffs)], g.qprec)


def u_p(g: QExpansion) -> QExpansion:
    """Coefficient n of the result is a_{pn}; q-precision drops to floor(M/p)."""
    p = g.ctx.p
    qp = g.qprec // p
    return QExpansion(g.ctx, [g.coeffs[p * n] for n in range(qp + 1)], qp)


def v_p(g: QExpansion) -> QExpansion:
    """Coefficient pn of the result is a_n, all other coefficients 0."""
    p = g.ctx.p
    out = [PadicInt(g.ctx, 0) for _ in range(g.qprec + 1)]
    for n, c in enumerate(g.coeffs):
        if p * n > g.qprec:
            break
        out[p * n] = c
    return QExpansion(g.ctx, out, g.qprec)


# -- divisor sums --------------------------------------------------------------

def divisor_sum(w, e: int, zero=0) -> list:
    """out[n] = sum_{d | n} d^e w[d] for 1 <= n <= M, where M = len(w) - 1.

    The weights may be ints, PadicInts or cyclotomic elements; w[0] is
    ignored.  Every out[n] starts at ``zero``.  A weight that is zero to
    full precision is skipped before it is scaled by d^e (and e = 0 scales
    nothing); a zero known to fewer digits still enters its sums.
    PadicInt weights over a PadicInt zero are summed as residues mod p^N,
    and out[n] is known to the least precision of zero and the w[d], d | n.
    """
    M = len(w) - 1
    if isinstance(zero, PadicInt) and \
            all(isinstance(t, PadicInt) for t in w[1:]):
        ctx = zero.ctx
        mod = ctx.modulus
        sums = divisor_sum([0] + [t.residue * pow(d, e, mod) % mod
                                  for d, t in enumerate(w) if d], 0)
        prec = [zero.prec] * (M + 1)
        # only weights below the zero's precision lower any out[n]
        for d in range(1, M + 1):
            if w[d].prec < zero.prec:
                for n in range(d, M + 1, d):
                    prec[n] = min(prec[n], w[d].prec)
        return [zero] + [PadicInt(ctx, zero.residue + s, pr)
                         for s, pr in zip(sums[1:], prec[1:])]
    out = [zero] * (M + 1)
    for d in range(1, M + 1):
        t = w[d]
        if isinstance(t, PadicInt) and t.is_exact_zero():
            continue
        if e:
            t = t * d ** e
        for n in range(d, M + 1, d):
            out[n] = out[n] + t
    return out


@lru_cache(maxsize=None)
def sigma_table(e: int, M: int) -> tuple:
    """sigma_e(n) = sum of e-th powers of divisors, exactly, for n <= M."""
    return tuple(divisor_sum([0] + [1] * M, e))


def double_divisor_series(ctx: PadicContext, k: int, r: int) -> QExpansion:
    """2 sum_n q^n sum_{d d' = n} d^k d'^r, constant term 0 (exact integers).

    The inner sum is symmetric in k and r and equals n^r sigma_(k-r)(n)
    for k >= r.
    """
    lo, hi = sorted((k, r))
    sig = sigma_table(hi - lo, ctx.M)
    return QExpansion(ctx, [0] + [PadicInt(ctx, 2 * n ** lo * sig[n])
                                  for n in range(1, ctx.M + 1)])


# -- Eisenstein series ----------------------------------------------------------

def eisenstein_2G(ctx: PadicContext, k: int) -> QExpansion:
    """The weight-k Eisenstein series 2G_k, zero for odd k.

    Constant term is the reduction of -B_k/k; for (p-1) | k that value has a
    genuine p in the denominator and NotPIntegral propagates (callers needing
    those weights go through the regularized measure instead).
    """
    if k < 2:
        raise ValueError("2G_k requires k >= 2 (the k = 1 series is not defined)")
    if k % 2 == 1:
        return QExpansion.zero(ctx)
    return eisenstein_2G_scaled(ctx, k, 1)


def eisenstein_2G_scaled(ctx: PadicContext, k: int, factor) -> QExpansion:
    """factor * 2G_k computed p-integrally.

    The constant term is reduced from the exact rational factor * (-B_k/k),
    so an integer factor divisible by p can cancel the pole at (p-1) | k.
    The other coefficients are 2 factor sigma_(k-1)(n), built from integers:
    a rational factor is first reduced to its residue mod p^N.
    """
    if k < 2:
        raise ValueError("2G_k requires k >= 2")
    if k % 2 == 1:
        return QExpansion.zero(ctx)
    const = reduce_rational(Fraction(factor) * (-bernoulli(k)) / k, ctx)
    if not isinstance(factor, int):
        factor = reduce_rational(factor, ctx).residue
    return QExpansion(ctx, [const] + [PadicInt(ctx, 2 * factor * s)
                                      for s in sigma_table(k - 1, ctx.M)[1:]])


def eisenstein_2G_twisted(ctx: PadicContext, k: int,
                          f: ContinuousFn) -> QExpansion:
    """Twisted series: L(1-k, f) + 2 sum_n q^n sum_{d|n} d^(k-1) f(d)."""
    if k < 2:
        raise ValueError("twisted 2G_k requires k >= 2")
    if lc_level(f) is None:
        raise ValueError("twist must be locally constant")
    # the constant term sum_c f(c) w_c is known to prec f(c) + v_p(w_c)
    # digits for each entry f(c) known to fewer than N digits
    F, table = _period_table(f)
    prec = ctx.N
    for c, v in enumerate(table):
        w = _lvalue_weight(k, F, c) if v.prec < ctx.N else 0
        if w:
            prec = min(prec, v.prec + padic_valuation(w.numerator, ctx.p)
                       - padic_valuation(w.denominator, ctx.p))
    fvals = [None] + values(f, range(1, ctx.M + 1))
    out = divisor_sum(fvals, k - 1, PadicInt(ctx, 0))
    coeffs = [reduce_rational(lvalue_periodic(k, f), ctx, max(prec, 0))]
    coeffs += [2 * c for c in out[1:]]
    return QExpansion(ctx, coeffs)


def lvalue_periodic(k: int, f: ContinuousFn) -> Fraction:
    """Exact L(1-k, f) = -B_{k,f}/k for locally constant f.

    B_{k,f} = F^(k-1) sum_{c<F} f(c) B_k(c/F) with F the period p^m; the
    table values are read as their canonical integer residues.  For f = 1
    this recovers -B_k/k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    F, table = _period_table(f)
    return sum((v.residue * _lvalue_weight(k, F, c)
                for c, v in enumerate(table) if v.residue), Fraction(0))


def _period_table(f: ContinuousFn) -> tuple[int, list]:
    """The period F = p^m of a locally constant f and its scalar table."""
    m = lc_level(f)
    if m is None:
        raise ValueError("f must be locally constant")
    table = f.table if isinstance(f, LocallyConstant) and f.level == m \
        else as_table(f, m)
    if not all(isinstance(v, PadicInt) for v in table):
        raise TypeError("L-values need scalar (non-cyclotomic) twists")
    return f.ctx.p ** m, table


def _lvalue_weight(k: int, F: int, c: int) -> Fraction:
    """w_c = -F^(k-1) B_k(c/F)/k, so that L(1-k, f) = sum_c f(c) w_c."""
    return Fraction(F) ** (k - 1) * bernoulli_polynomial(k, Fraction(c, F)) \
        * Fraction(-1, k)


# -- JSON ------------------------------------------------------------------------

def series_to_json(g: QExpansion) -> dict:
    """Stable JSON form; every residue string is paired with its precision."""
    coeffs, prec = [], []
    for c in g.coeffs:
        if not isinstance(c, PadicInt):
            raise TypeError("only scalar series serialize to JSON")
        coeffs.append(str(c.residue))
        prec.append(c.prec)
    return {
        "schema": 1,
        "kind": "series",
        "p": g.ctx.p,
        "N": g.ctx.N,
        "M": g.qprec,
        "coeffs": coeffs,
        "prec": prec,
    }


def series_from_json(obj: dict) -> QExpansion:
    p, N, M = (json_int_field(obj, key, "series") for key in ("p", "N", "M"))
    ctx = PadicContext(p, N, max(M, 1))
    coeffs = [PadicInt(ctx, c, pr)
              for c, pr in zip(json_int_list(obj, "coeffs", "series"),
                               json_int_list(obj, "prec", "series"))]
    return QExpansion(ctx, coeffs, M)
