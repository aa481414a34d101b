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
    return QExpansion(g.ctx, [v * c for v, c in zip(vals, g.coeffs)], g.qprec)


def act_character(zeta, g: QExpansion) -> QExpansion:
    """Twist by a root of unity: coefficient n becomes zeta^n * a_n.

    zeta may also be a dual number; the exponents here are the literal
    integer indices n, so no root-of-unity structure is needed in that case
    (this is how the derivative of the action is read off).
    """
    if isinstance(zeta, DualNumber):
        out = [zeta ** n * c for n, c in enumerate(g.coeffs)]
        return QExpansion(g.ctx, out, g.qprec)
    if not isinstance(zeta, CyclotomicElem):
        raise TypeError("zeta must be a cyclotomic element or a dual number")
    if zeta.level > M_MAX:
        raise NotRootOfUnity(
            f"level {zeta.level} exceeds the available cyclotomic level {M_MAX}"
        )
    if not zeta.is_root_of_unity():
        raise NotRootOfUnity("argument is not a p-power root of unity")
    pm = g.ctx.p ** zeta.level
    powers = [CyclotomicElem.one(g.ctx, 0)]
    for _ in range(min(pm, g.qprec + 1) - 1):
        powers.append(powers[-1] * zeta)
    if g.elems is not None:
        out = [powers[n % pm] * c for n, c in enumerate(g.elems)]
    else:
        out = [None] * (g.qprec + 1)
        for k, z in enumerate(powers):
            out[k::pm] = z.scalar_multiples(g.res[k::pm], g.prec[k::pm])
    return QExpansion(g.ctx, out, g.qprec)


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
