"""Torsion of Kummer groups: the carrying group law, pairing, and isos.

The p^k-torsion points over a base with enough roots adjoined are pairs
(a, j) realizing the ring element zeta^j * q^(a/p^k); multiplying two of
them "carries": when the q-exponents overflow past 1 the product is divided
by q and the overflow is absorbed into the exponent bookkeeping.  Elements
are stored as the discrete index pairs; their realizations, the
Laurent-cyclotomic monomials zeta^j * q^(e/p^D), exist to verify every
closed form against honest ring arithmetic.
"""

from __future__ import annotations

from .cyclotomic import CyclotomicElem
from .errors import BaseMismatch, IncompatibleRoots, NotRootOfUnity
from .padic import PadicContext


class LaurentElem:
    """The monomial coeff * q^(e / p^D) with a cyclotomic coefficient.

    The exponent is stored as its integer numerator e on the 1/p^D grid.
    Every coefficient realized here is a root of unity, so none is zero.
    """

    __slots__ = ("ctx", "D", "e", "coeff")

    def __init__(self, ctx: PadicContext, D: int, e: int,
                 coeff: CyclotomicElem):
        self.ctx = ctx
        self.D = D
        self.e = e
        self.coeff = coeff

    @classmethod
    def one(cls, ctx: PadicContext, D: int) -> "LaurentElem":
        return cls(ctx, D, 0, CyclotomicElem.one(ctx, 0))

    def __mul__(self, other: "LaurentElem") -> "LaurentElem":
        return LaurentElem(self.ctx, self.D, self.e + other.e,
                           self.coeff * other.coeff)

    def __pow__(self, n: int) -> "LaurentElem":
        return LaurentElem(self.ctx, self.D, n * self.e, self.coeff ** n)

    def __eq__(self, other):
        if not isinstance(other, LaurentElem):
            return NotImplemented
        return (self.D == other.D and self.e == other.e
                and self.coeff == other.coeff)

    __hash__ = None

    def __repr__(self):
        return f"({self.coeff!r}) q^({self.e}/p^{self.D})"


class KummerBase:
    """Base data for p^k-torsion: depth-K roots and a chosen parameter root.

    param_root realizes parameter^(1/p^k) inside (Z/p^N)[zeta_{p^K}]
    [q^(+-1/p^K)]; the standard base takes the formal root of q itself, and
    transforming by t multiplies the chosen root by a realization of
    t^(1/p^k).
    """

    def __init__(self, ctx: PadicContext, k: int, K: int,
                 param_root: LaurentElem):
        if K < k:
            raise ValueError("root depth K must be at least the torsion level k")
        self.ctx = ctx
        self.k = k
        self.K = K
        self.param_root = param_root
        self._realized: dict = {}
        self._parameter: LaurentElem | None = None

    @classmethod
    def standard(cls, ctx: PadicContext, k: int, K: int | None = None):
        K = 2 * k if K is None else K
        root = LaurentElem(ctx, K, ctx.p ** (K - k),
                           CyclotomicElem.one(ctx, 0))
        return cls(ctx, k, K, root)

    @classmethod
    def inverted(cls, ctx: PadicContext, k: int, K: int | None = None):
        K = 2 * k if K is None else K
        root = LaurentElem(ctx, K, -(ctx.p ** (K - k)),
                           CyclotomicElem.one(ctx, 0))
        return cls(ctx, k, K, root)

    def transformed(self, t_root_k: LaurentElem) -> "KummerBase":
        return KummerBase(self.ctx, self.k, self.K,
                          self.param_root * t_root_k)

    def parameter(self) -> LaurentElem:
        if self._parameter is None:
            self._parameter = self.param_root ** (self.ctx.p ** self.k)
        return self._parameter

    def zeta(self, j: int = 1) -> CyclotomicElem:
        return CyclotomicElem.zeta_power(self.ctx, self.k, j)

    def realize(self, e: "KummerElement") -> LaurentElem:
        key = (e.a, e.j)
        if key not in self._realized:
            coeff = self.zeta(e.j)
            self._realized[key] = \
                LaurentElem(self.ctx, self.K, 0, coeff) * \
                self.param_root ** e.a
        return self._realized[key]

    def compatible(self, other: "KummerBase") -> bool:
        return self is other or (
            self.ctx == other.ctx and self.k == other.k and self.K == other.K
            and self.param_root == other.param_root)

    def elements(self) -> list["KummerElement"]:
        pk = self.ctx.p ** self.k
        return [KummerElement(self, a, j) for a in range(pk) for j in range(pk)]


class KummerElement:
    """The point (zeta^j q^(a/p^k), a/p^k) of the p^k-torsion."""

    __slots__ = ("base", "a", "j")

    def __init__(self, base: KummerBase, a: int, j: int):
        pk = base.ctx.p ** base.k
        self.base = base
        self.a = a % pk
        self.j = j % pk

    def __eq__(self, other):
        return (isinstance(other, KummerElement)
                and self.base.compatible(other.base)
                and (self.a, self.j) == (other.a, other.j))

    __hash__ = None

    def __repr__(self):
        return f"KummerElement(a={self.a}, j={self.j})"


def kummer_mul(e1: KummerElement, e2: KummerElement) -> KummerElement:
    """Group law with carrying: overflow of the q-exponent divides by q."""
    if not e1.base.compatible(e2.base):
        raise BaseMismatch("elements live over different Kummer bases")
    pk = e1.base.ctx.p ** e1.base.k
    a = e1.a + e2.a
    if a >= pk:
        a -= pk
    return KummerElement(e1.base, a, e1.j + e2.j)


def kummer_mul_corrupted(e1: KummerElement, e2: KummerElement) -> KummerElement:
    """Negative control: forgets that the overflow divided by q."""
    if not e1.base.compatible(e2.base):
        raise BaseMismatch("elements live over different Kummer bases")
    pk = e1.base.ctx.p ** e1.base.k
    a = e1.a + e2.a
    j = e1.j + e2.j
    if a >= pk:
        a -= pk
        j += 1  # bogus twist instead of the q-division
    return KummerElement(e1.base, a, j)


def verify_mul_realization(e1: KummerElement, e2: KummerElement,
                           mul=kummer_mul) -> bool:
    """Closed form against ring arithmetic: x1 x2 == x3 * q^carry."""
    base = e1.base
    pk = base.ctx.p ** base.k
    e3 = mul(e1, e2)
    carry = 1 if e1.a + e2.a >= pk else 0
    lhs = base.realize(e1) * base.realize(e2)
    rhs = base.realize(e3)
    if carry:
        rhs = rhs * base.parameter()
    return lhs == rhs


def kummer_smul(n: int, e: KummerElement,
                mul=kummer_mul) -> KummerElement:
    """n-fold group power of e."""
    acc = KummerElement(e.base, 0, 0)
    base = e
    while n:
        if n & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        n >>= 1
    return acc


def kummer_pair(e: KummerElement, e_inv: KummerElement) -> int:
    """Pairing of p^k-torsion over mutually inverse parameters.

    With e = (a, i) over q and e_inv = (b, j) over q^(-1) the realized value
    g^b h^a is the root of unity zeta^(i b + j a); the index is returned.
    """
    b1, b2 = e.base, e_inv.base
    if not (b1.ctx == b2.ctx and b1.k == b2.k and b1.K == b2.K):
        raise BaseMismatch("pairing requires matching p, k, N and depth")
    if not (b1.param_root * b2.param_root == LaurentElem.one(b1.ctx, b1.K)):
        raise BaseMismatch("pairing requires mutually inverse parameters")
    pk = b1.ctx.p ** b1.k
    return (e.j * e_inv.a + e_inv.j * e.a) % pk


def verify_pair_realization(e: KummerElement, e_inv: KummerElement) -> bool:
    """The realized pairing value is exactly the claimed root of unity."""
    base = e.base
    val = base.realize(e) ** e_inv.a * e_inv.base.realize(e_inv) ** e.a
    idx = kummer_pair(e, e_inv)
    want = LaurentElem(base.ctx, base.K, 0, base.zeta(idx))
    return val == want


def kummer_iso(root_system: list[LaurentElem],
               e: KummerElement) -> KummerElement:
    """Isomorphism onto the torsion over t * q given compatible roots of t.

    root_system = [t, t^(1/p), ..., t^(1/p^n)] with n >= k; the element
    (a, j) maps to the point realizing x * t^(a/p^k) over the new base.
    """
    base = e.base
    k = base.k
    if len(root_system) < k + 1:
        raise IncompatibleRoots(f"need roots to depth {k}")
    for i in range(len(root_system) - 1):
        if not (root_system[i + 1] ** base.ctx.p == root_system[i]):
            raise IncompatibleRoots(f"root {i + 1} to the p-th power is not root {i}")
    new_base = base.transformed(root_system[k])
    return KummerElement(new_base, e.a, e.j)


def constant_roots(ctx: PadicContext, K: int, level: int, power: int,
                   depth: int) -> list[LaurentElem]:
    """Root system for t = zeta_{p^level}^power using deeper roots of unity."""
    out = []
    for i in range(depth + 1):
        if level + i > K:
            raise IncompatibleRoots(
                f"depth {i} roots of a level-{level} constant need cyclotomic "
                f"level {level + i} > available {K}")
        c = CyclotomicElem.zeta_power(ctx, level + i, power)
        out.append(LaurentElem(ctx, K, 0, c))
    return out


# -- exhaustive checks -----------------------------------------------------------

class CheckReport:
    """Outcome of one exhaustive check: cases run and the first failures."""

    def __init__(self, name, passed, checks=0, failures=None):
        self.name = name
        self.passed = passed
        self.checks = checks
        self.failures = [] if failures is None else failures

    def fail(self, msg: str):
        self.passed = False
        if len(self.failures) < 5:
            self.failures.append(msg)


def check_group_axioms(ctx: PadicContext, k: int) -> CheckReport:
    """Brute-force group axioms and structure (Z/p^k)^2 on the full table."""
    rep = CheckReport("group-axioms", True)
    base = KummerBase.standard(ctx, k)
    els = base.elements()
    pk = ctx.p ** k
    idx = {(e.a, e.j): e for e in els}
    ident = idx[(0, 0)]
    for e in els:
        rep.checks += 1
        if not (kummer_mul(ident, e) == e and kummer_mul(e, ident) == e):
            rep.fail(f"identity fails at {e}")
    # commutativity and associativity on all triples
    table = {}
    for e1 in els:
        for e2 in els:
            table[(e1.a, e1.j, e2.a, e2.j)] = kummer_mul(e1, e2)
    for e1 in els:
        for e2 in els:
            rep.checks += 1
            if not table[(e1.a, e1.j, e2.a, e2.j)] == table[(e2.a, e2.j, e1.a, e1.j)]:
                rep.fail(f"commutativity fails at {e1}, {e2}")
    for e1 in els:
        for e2 in els:
            l12 = table[(e1.a, e1.j, e2.a, e2.j)]
            for e3 in els:
                rep.checks += 1
                lhs = table[(l12.a, l12.j, e3.a, e3.j)]
                r23 = table[(e2.a, e2.j, e3.a, e3.j)]
                rhs = table[(e1.a, e1.j, r23.a, r23.j)]
                if not lhs == rhs:
                    rep.fail(f"associativity fails at {e1}, {e2}, {e3}")
                    break
    # inverses and orders
    for e in els:
        rep.checks += 1
        if not any(kummer_mul(e, f) == ident for f in els):
            rep.fail(f"no inverse for {e}")
        if not kummer_smul(pk, e) == ident:
            rep.fail(f"order of {e} does not divide p^{k}")
    # structure: the p^j-kill counts of (Z/p^k)^2
    for j in range(k + 1):
        count = sum(1 for e in els if kummer_smul(ctx.p ** j, e) == ident)
        rep.checks += 1
        if count != ctx.p ** (2 * j):
            rep.fail(f"p^{j}-torsion has {count} elements, expected p^{2 * j}")
    # extension structure: projection to a is a homomorphism with kernel mu
    for e1 in els:
        for e2 in els:
            rep.checks += 1
            if kummer_mul(e1, e2).a != (e1.a + e2.a) % pk:
                rep.fail(f"projection not a homomorphism at {e1}, {e2}")
    kernel = sorted((e.a, e.j) for e in els
                    if e.a == 0)
    rep.checks += 1
    if kernel != [(0, j) for j in range(pk)]:
        rep.fail("kernel of the projection is not the root-of-unity subgroup")
    return rep


def check_realization(ctx: PadicContext, k: int) -> CheckReport:
    """Closed form equals ring realization for all products and pairings."""
    rep = CheckReport("realization", True)
    base = KummerBase.standard(ctx, k)
    inv = KummerBase.inverted(ctx, k)
    els = base.elements()
    for e1 in els:
        for e2 in els:
            rep.checks += 1
            if not verify_mul_realization(e1, e2):
                rep.fail(f"product realization fails at {e1}, {e2}")
    inv_els = inv.elements()
    for e in els:
        for f in inv_els:
            rep.checks += 1
            if not verify_pair_realization(e, f):
                rep.fail(f"pairing realization fails at {e}, {f}")
    return rep


def check_pairing_perfect(ctx: PadicContext, k: int) -> CheckReport:
    """The pairing matrix (i b + j a) has trivial kernels on both sides."""
    rep = CheckReport("pairing-perfect", True)
    pk = ctx.p ** k
    pairs = [(a, j) for a in range(pk) for j in range(pk)]
    for a, i in pairs:
        rep.checks += 1
        if (a, i) == (0, 0):
            continue
        if all((i * b + j * a) % pk == 0 for b, j in pairs):
            rep.fail(f"left kernel contains ({a}, {i})")
    for b, j in pairs:
        rep.checks += 1
        if (b, j) == (0, 0):
            continue
        if all((i * b + j * a) % pk == 0 for a, i in pairs):
            rep.fail(f"right kernel contains ({b}, {j})")
    return rep


def serre_tate_action_check(ctx: PadicContext, zeta: CyclotomicElem, k: int,
                            K: int | None = None,
                            corrupt_carry: bool = False) -> CheckReport:
    """Exhaustive torsion-level check of the coordinate-multiplication action.

    Verifies that substituting q -> zeta^(-1) q maps the realized element
    table of the standard torsion group onto the table over the new
    parameter, that the group law stays sound under realization on both
    sides, and that transporting back along the root system of zeta returns
    the original table.  corrupt_carry swaps in a broken group law and must
    produce a counterexample pair.
    """
    rep = CheckReport("serre-tate-action", True)
    K = 2 * k if K is None else K
    pk = ctx.p ** k
    if not zeta ** pk == CyclotomicElem.one(ctx, 0):
        raise NotRootOfUnity(f"zeta^(p^{k}) != 1")
    # express zeta as a power of the standard generator
    power = None
    for u in range(pk):
        if CyclotomicElem.zeta_power(ctx, k, u) == zeta:
            power = u
            break
    if power is None:
        raise NotRootOfUnity("zeta is not a power of the standard generator")
    mul = kummer_mul_corrupted if corrupt_carry else kummer_mul

    roots_fwd = constant_roots(ctx, K, k, power, k)       # roots of zeta
    roots_bwd = constant_roots(ctx, K, k, -power, k)      # roots of zeta^(-1)

    base = KummerBase.standard(ctx, k, K)
    twisted = base.transformed(roots_bwd[k])

    # (0) the twisted parameter is zeta^(-1) q
    rep.checks += 1
    zinv = LaurentElem(ctx, K, 0, CyclotomicElem.zeta_power(ctx, k, -power))
    if not twisted.parameter() == zinv * base.parameter():
        rep.fail("twisted parameter is not zeta^(-1) q")

    els = base.elements()
    # (1) group law soundness under realization, both parameters
    for e1 in els:
        stop = False
        for e2 in els:
            rep.checks += 1
            if not verify_mul_realization(e1, e2, mul=mul):
                rep.fail(f"realized group law fails at pair {e1}, {e2}")
                stop = True
                break
            t1 = KummerElement(twisted, e1.a, e1.j)
            t2 = KummerElement(twisted, e2.a, e2.j)
            rep.checks += 1
            if not verify_mul_realization(t1, t2, mul=mul):
                rep.fail(f"twisted realized group law fails at pair {e1}, {e2}")
                stop = True
                break
        if stop:
            break

    # (2) substitution q^(1/p^k) -> s q^(1/p^k) maps table to twisted table
    stride = ctx.p ** (K - k)
    s_const = roots_bwd[k].coeff

    def substitute(elem: LaurentElem) -> LaurentElem:
        n, r = divmod(elem.e, stride)
        if r:
            raise ValueError("element does not live over q^(1/p^k)")
        return LaurentElem(ctx, K, elem.e, elem.coeff * s_const ** n)

    for e in els:
        rep.checks += 1
        t = KummerElement(twisted, e.a, e.j)
        if not substitute(base.realize(e)) == twisted.realize(t):
            rep.fail(f"substitution does not map the table at {e}")
            break

    # (3) transporting back along the roots of zeta recovers the original
    for e in els:
        rep.checks += 1
        t = KummerElement(twisted, e.a, e.j)
        back = kummer_iso(roots_fwd, t)
        if not (back.base.param_root == base.param_root
                and back.base.realize(back) == base.realize(e)):
            rep.fail(f"iso composition does not return the table at {e}")
            break
    return rep
