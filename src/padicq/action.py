"""The coefficient-wise action of continuous functions on q-expansions.

The action sends (f, sum a_n q^n) to sum f(n) a_n q^n.  Characters act by
twisting q by a root of unity, the monomial z^t acts as the t-th power of
the derivation theta, and the whole thing is an algebra action: acting by a
pointwise product equals acting twice.  The values f(0), ..., f(M) come
from ``zpfun.values``: f's polynomial-times-step tables are built once and
read at n mod p^m, and only functions without tables (Mahler series,
binomials C(z, k) with k > 0) are evaluated coefficient by coefficient.
"""

from __future__ import annotations

from .cyclotomic import CyclotomicElem
from .errors import NotRootOfUnity
from .padic import DualNumber, PadicInt
from .qseries import QExpansion
from .zpfun import ContinuousFn, values

# the deepest cyclotomic level the package evaluates: it guards the
# character sums, which cost about p^(3m) integer products at level m
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

    On a scalar series the result is written one slice n = k mod p^m at a
    time: each nonzero coordinate x of zeta^k puts x * a_n in that output
    coordinate, known to the least precision of a_n and zeta^k.  A
    ring-valued series is twisted one element product per coefficient.

    zeta may also be a dual number a + eps b over the scalars; the
    exponents are then the literal indices n, and coefficient n becomes
    a^n a_n + eps n a^(n-1) b a_n (how the derivative of the action is read
    off).
    """
    ctx, n = g.ctx, g.qprec + 1
    if isinstance(zeta, DualNumber):
        a, b = zeta.a, zeta.b
        if not (isinstance(a, PadicInt) and isinstance(b, PadicInt)):
            raise TypeError("dual twists need scalar parts a and b")
        pw = [pow(a.residue, k, ctx.modulus) for k in range(n)]
        return QExpansion.from_parts(ctx, None, (
            g.times_scalars(pw, [ctx.N] + [a.prec] * (n - 1)),
            g.times_scalars([k * x * b.residue for k, x in enumerate([0] + pw)],
                            [ctx.N] + [min(a.prec, b.prec)] * (n - 1))))
    if not isinstance(zeta, CyclotomicElem):
        raise TypeError("zeta must be a cyclotomic element or a dual number")
    if zeta.level > M_MAX:
        raise NotRootOfUnity(
            f"level {zeta.level} exceeds the available cyclotomic level {M_MAX}"
        )
    if not zeta.is_root_of_unity():
        raise NotRootOfUnity("argument is not a p-power root of unity")
    pm, pows = ctx.p ** zeta.level, ctx.pows
    powers = [CyclotomicElem.one(ctx, zeta.level)]
    for _ in range(min(pm, n) - 1):
        powers.append(powers[-1] * zeta)
    if g.parts:
        return QExpansion(ctx, [powers[i % pm] * c for i, c in enumerate(g.coeffs)],
                          g.qprec)
    top, low = g.prec, zeta.min_prec()
    if low < ctx.N and pm > 1:  # zeta^k, k >= 1, knows low digits
        top = [e if i % pm == 0 or e < low else low for i, e in enumerate(top)]
    out = [[0] * n for _ in zeta.res]
    for k, z in enumerate(powers):
        ys, tk = g.res[k::pm], top[k::pm]
        for j, x in enumerate(z.res):
            if x:
                out[j][k::pm] = [x * y % pows[e] for y, e in zip(ys, tk)]
    return QExpansion.from_parts(ctx, zeta.level, [QExpansion.from_flat(ctx, r, top)
                                                   for r in out])


def psi(g: QExpansion):
    """The measure f |-> act(f, g); Amice coefficient k is act(C(., k), g)."""
    from .measures import ActionMeasure

    return ActionMeasure(g)


def derivative_check(g: QExpansion) -> QExpansion:
    """Twist by 1 + eps over the dual numbers.

    The left action used throughout this package satisfies
    act_character(1 + eps, g) = g + eps * theta(g); the composed-with-inverse
    convention would flip the sign of the eps part.
    """
    one = PadicInt.one(g.ctx)
    return act_character(DualNumber(one, one), g)
