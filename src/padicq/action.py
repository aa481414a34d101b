"""The coefficient-wise action of continuous functions on q-expansions.

The action sends (f, sum a_n q^n) to sum f(n) a_n q^n.  Characters act by
twisting q by a root of unity, the monomial z^t acts as the t-th power of
the derivation theta, and the whole thing is an algebra action: acting by a
pointwise product equals acting twice.  A point x = 1 + p t of the formal
multiplicative group acts through the Mahler series x^z = sum_k (x - 1)^k
C(z, k), by q -> x q: at x = 1 + p^s with 2s >= N, x^z is 1 + p^s z mod
p^N and g goes to g + p^s theta(g), which is how the action integrates
theta.  The values f(0), ..., f(M) come from ``zpfun.values``: f's
polynomial-times-step tables are built once and read at n mod p^m when
p^m <= M + 1; deeper step functions, and functions without tables (Mahler
series, the binomials C(z, k) among them), are evaluated coefficient by
coefficient.
"""

from __future__ import annotations

from itertools import compress

from .cyclotomic import CyclotomicElem, zeta_powers
from .errors import NotRootOfUnity
from .qseries import QExpansion
from .zpfun import ContinuousFn, values

# the deepest cyclotomic level the package evaluates: it guards the
# character sums, where each level l <= m reduces N phi(p^l) + j kernel
# coefficients by a degree-p^l polynomial and takes p^l sparse ring steps,
# about N p^(2m) integer operations at level m
M_MAX = 3


def act(f: ContinuousFn, g: QExpansion) -> QExpansion:
    """Coefficient n of the result is f(n) * a_n (constant term scaled by f(0))."""
    vals = values(f, range(g.qprec + 1))
    if isinstance(vals, tuple):
        return g.times_scalars(*vals)
    if g.parts is None:  # ring values times scalars, coordinate by coordinate
        return QExpansion(g.ctx, vals, g.qprec).times_scalars(g.res, g.prec)
    return QExpansion(g.ctx, [v * c for v, c in zip(vals, g.coeffs)], g.qprec)


def act_character(zeta, g: QExpansion) -> QExpansion:
    """Twist by a root of unity: coefficient n becomes zeta^n * a_n.

    The powers zeta^k come from one table (``cyclotomic.zeta_powers``).  On
    a scalar series the result is written one slice n = k mod p^m at a
    time: each nonzero coordinate x of zeta^k puts x * a_n in that output
    coordinate, known to the least precision of a_n and zeta^k.  When every
    digit of both is known, x = 1 moves the slice as it is and x = -1
    negates it, so a standard power T^u costs no products at all.  A
    ring-valued series is twisted one element product per coefficient.
    """
    ctx, n = g.ctx, g.qprec + 1
    if not isinstance(zeta, CyclotomicElem):
        raise TypeError("zeta must be a cyclotomic element")
    if zeta.level > M_MAX:
        raise NotRootOfUnity(
            f"level {zeta.level} exceeds the available cyclotomic level {M_MAX}"
        )
    pm, pows, mod = ctx.p ** zeta.level, ctx.pows, ctx.modulus
    powers = zeta_powers(zeta, min(pm, n))
    if g.parts:  # zeta^0 at zeta's level: the twist has it even when n = 1
        powers[0] = CyclotomicElem.one(ctx, zeta.level)
        return QExpansion(ctx, [powers[i % pm] * c for i, c in enumerate(g.coeffs)],
                          g.qprec)
    top, low = g.prec, zeta.min_prec()
    if low < ctx.N and pm > 1:  # zeta^k, k >= 1, knows low digits
        top = [e if i % pm == 0 or e < low else low for i, e in enumerate(top)]
    full = min(top) == ctx.N
    out = [[0] * n for _ in zeta.res]
    for k, z in enumerate(powers):
        ys, tk = g.res[k::pm], top[k::pm]
        for j in compress(range(len(z.res)), z.res):
            x = z.res[j]
            if full and x == 1:
                out[j][k::pm] = ys
            elif full and x == mod - 1:
                out[j][k::pm] = [-y % mod for y in ys]
            else:
                out[j][k::pm] = [x * y % pows[e] for y, e in zip(ys, tk)]
    return QExpansion.from_parts(ctx, zeta.level, [QExpansion.from_flat(ctx, r, top)
                                                   for r in out])

