"""Torsion of Kummer groups: the carrying group law, pairing, and isos.

The p^k-torsion points over a base with enough roots adjoined are pairs
(a, j) realizing the ring element zeta^j * q^(a/p^k); multiplying two of
them "carries": when the q-exponents overflow past 1 the product is divided
by q and the overflow is absorbed into the exponent bookkeeping.  Elements
are stored as the discrete index pairs; their realizations, the
Laurent-cyclotomic monomials zeta^j * q^(e/p^D), exist to verify every
closed form against honest ring arithmetic.

The checks split each identity in two.  Closed-form index arithmetic (the
group law's indices, once per public check, and (I2) the pairing's index) is
checked on all p^(4k) pairs as plain integers; ring realizations only on a
generating set: (R1) x(a, j) = zeta^j x(a, 0) once per element, (R2) the
carrying product on the p^(2k) pairs of elements (a, 0), (R3) zeta^(p^k) = 1
and (R4) the pairing on the elements (a, 0).  The Laurent ring is
commutative, so the realized identities then hold on every pair.
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
    """Base data for p^k-torsion: roots adjoined to depth K = 2k and a
    chosen parameter root.

    param_root realizes parameter^(1/p^k) inside (Z/p^N)[zeta_{p^K}]
    [q^(+-1/p^K)]; the standard base takes the formal root of q itself, and
    transforming by t multiplies the chosen root by a realization of
    t^(1/p^k).
    """

    def __init__(self, ctx: PadicContext, k: int, param_root: LaurentElem):
        self.ctx = ctx
        self.k = k
        self.K = 2 * k
        self.param_root = param_root
        self._realized: dict = {}
        self._powers: dict = {}
        self._parameter: LaurentElem | None = None
        self._inverse: KummerBase | None = None

    @classmethod
    def standard(cls, ctx: PadicContext, k: int):
        root = LaurentElem(ctx, 2 * k, ctx.p ** k, CyclotomicElem.one(ctx, 0))
        return cls(ctx, k, root)

    @classmethod
    def inverted(cls, ctx: PadicContext, k: int):
        return cls(ctx, k, cls.standard(ctx, k).param_root ** -1)

    def transformed(self, t_root_k: LaurentElem) -> "KummerBase":
        return KummerBase(self.ctx, self.k, self.param_root * t_root_k)

    def parameter(self) -> LaurentElem:
        if self._parameter is None:
            self._parameter = self.param_root ** (self.ctx.p ** self.k)
        return self._parameter

    def zeta(self, j: int = 1) -> CyclotomicElem:
        return CyclotomicElem.zeta_power(self.ctx, self.k, j)

    def realize(self, e: "KummerElement") -> LaurentElem:
        """zeta^j * param_root^a, each power of param_root computed once."""
        key = (e.a, e.j)
        if key not in self._realized:
            if e.a not in self._powers:
                self._powers[e.a] = self.param_root ** e.a
            self._realized[key] = LaurentElem(
                self.ctx, self.K, 0, self.zeta(e.j)) * self._powers[e.a]
        return self._realized[key]

    def _inverts(self, other: "KummerBase") -> bool:
        """param_root * other.param_root == 1; the last hit is remembered."""
        if self._inverse is not other:
            if not (self.param_root * other.param_root
                    == LaurentElem.one(self.ctx, self.K)):
                return False
            self._inverse = other
        return True

    def compatible(self, other: "KummerBase") -> bool:
        return self is other or (
            self.ctx == other.ctx and self.k == other.k
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
    """Group law with carrying: overflow of the q-exponent divides by q,
    which is KummerElement's reduction of a mod p^k."""
    if not e1.base.compatible(e2.base):
        raise BaseMismatch("elements live over different Kummer bases")
    return KummerElement(e1.base, e1.a + e2.a, e1.j + e2.j)


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


def kummer_pair(e: KummerElement, e_inv: KummerElement) -> int:
    """Pairing of p^k-torsion over mutually inverse parameters.

    With e = (a, i) over q and e_inv = (b, j) over q^(-1) the realized value
    g^b h^a is the root of unity zeta^(i b + j a); the index is returned.
    """
    b1, b2 = e.base, e_inv.base
    if not (b1.ctx == b2.ctx and b1.k == b2.k):
        raise BaseMismatch("pairing requires matching p, k and N")
    if not b1._inverts(b2):
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
    """Outcome of one invariant check or suite: cases run and the first
    three failures."""

    def __init__(self, name, passed=True, checks=0, failures=None):
        self.name = name
        self.passed = passed
        self.checks = checks
        self.failures = [] if failures is None else failures

    def check(self, ok: bool, msg: str):
        self.checks += 1
        if not ok:
            self.fail(msg)

    def fail(self, msg: str):
        self.passed = False
        if len(self.failures) < 3:
            self.failures.append(msg)


def _check_law(rep: CheckReport, els: list[KummerElement], mul) -> bool:
    """mul(e1, e2) has the indices ((a1 + a2) mod p^k, (j1 + j2) mod p^k)
    on every pair of els; stops at the first counterexample."""
    pk = els[0].base.ctx.p ** els[0].base.k
    for e1 in els:
        for e2 in els:
            e3 = mul(e1, e2)
            if e3.a != (e1.a + e2.a) % pk or e3.j != (e1.j + e2.j) % pk:
                rep.checks += els.index(e2) + 1
                rep.fail(f"group law gives {e3} at {e1}, {e2}")
                return False
        rep.checks += len(els)
    return True


def check_group_axioms(ctx: PadicContext, k: int) -> CheckReport:
    """The group law is index addition in (Z/p^k)^2, on every pair.

    kummer_mul(e1, e2) must have the indices ((a1 + a2) mod p^k,
    (j1 + j2) mod p^k).  That closed form is the group (Z/p^k)^2, so it
    implies identity, inverses, commutativity, associativity, the orders,
    the p^i-torsion counts p^(2i), and the projection to a as a
    homomorphism whose kernel is the root-of-unity subgroup.
    """
    rep = CheckReport("group-axioms")
    _check_law(rep, KummerBase.standard(ctx, k).elements(), kummer_mul)
    return rep


def _check_zeta_linear(rep: CheckReport, base: KummerBase) -> None:
    """(R3) zeta^(p^k) = 1 and (R1) x(a, j) = zeta^j x(a, 0) per element."""
    ctx = base.ctx
    rep.check(base.zeta() ** (ctx.p ** base.k) == CyclotomicElem.one(ctx, 0),
              f"zeta^(p^{base.k}) != 1")
    for e in base.elements():
        head = base.realize(KummerElement(base, e.a, 0))
        rep.check(base.realize(e) ==
                  LaurentElem(ctx, base.K, 0, base.zeta(e.j)) * head,
                  f"realization of {e} is not zeta^j times that of j = 0")


def _check_products(rep: CheckReport, base: KummerBase, mul,
                    label: str = "") -> None:
    """x(e1) x(e2) = x(mul(e1, e2)) q^carry on every pair once _check_law
    holds, as mul(e1, e2) is then mul((a1, 0), (a2, 0)) + (0, j1 + j2):
    (R1), (R3) and (R2) the identity on every pair of elements (a, 0)."""
    _check_zeta_linear(rep, base)
    heads = base.elements()[::base.ctx.p ** base.k]  # the elements (a, 0)
    for h1 in heads:
        for h2 in heads:
            rep.check(verify_mul_realization(h1, h2, mul),
                      f"{label}realized group law fails at pair {h1}, {h2}")


def check_realization(ctx: PadicContext, k: int) -> CheckReport:
    """Closed form equals ring realization for all products and pairings.

    Products through _check_law and _check_products; the pairing through
    (I2) kummer_pair = (i b + j a) mod p^k on every pair, (R1) on both
    bases and (R4) x(a, 0)^b x'(b, 0)^a = 1 for every a, b.
    """
    rep = CheckReport("realization")
    base = KummerBase.standard(ctx, k)
    inv = KummerBase.inverted(ctx, k)
    pk = ctx.p ** k
    els, inv_els = base.elements(), inv.elements()
    _check_law(rep, els, kummer_mul)
    _check_products(rep, base, kummer_mul)
    _check_zeta_linear(rep, inv)
    # (I2) is the only check that catches a wrong kummer_pair (one without
    # its j a term fails nothing else): keep it, though it reads as a tautology
    for e in els:
        rep.checks += len(inv_els)
        for f in inv_els:
            if kummer_pair(e, f) != (e.j * f.a + f.j * e.a) % pk:
                rep.fail(f"pairing index fails at {e}, {f}")
    for e in els[::pk]:
        for f in inv_els[::pk]:
            rep.check(verify_pair_realization(e, f),
                      f"pairing realization fails at {e}, {f}")
    return rep


def check_pairing_perfect(ctx: PadicContext, k: int) -> CheckReport:
    """The pairing matrix (i b + j a) mod p^k has trivial kernels.

    The form is symmetric under (a, i) <-> (b, j), so its left and right
    kernels are one set: each nonzero (a, i) must pair nontrivially with
    some (b, j).
    """
    rep = CheckReport("pairing-perfect")
    pk = ctx.p ** k
    pairs = [(a, j) for a in range(pk) for j in range(pk)]
    for a, i in pairs[1:]:
        rep.check(any((i * b + j * a) % pk for b, j in pairs),
                  f"kernel contains ({a}, {i})")
    return rep


def serre_tate_action_check(ctx: PadicContext, zeta: CyclotomicElem, k: int,
                            corrupt_carry: bool = False) -> CheckReport:
    """Torsion-level check of the coordinate-multiplication action.

    Verifies that q -> zeta^(-1) q maps the realized element table of the
    standard torsion group onto the table over the new parameter, that the
    group law stays sound under realization on both bases, and that
    transport back along the roots of zeta returns the original table.  One
    _check_law covers both bases: kummer_mul and kummer_mul_corrupted read
    only a, j, p and k.  The realizations differ, so they are checked per
    base.  corrupt_carry swaps in the broken law, and the check returns at
    its first counterexample pair.
    """
    rep = CheckReport("serre-tate-action")
    pk = ctx.p ** k
    if not zeta ** pk == CyclotomicElem.one(ctx, 0):
        raise NotRootOfUnity(f"zeta^(p^{k}) != 1")
    # express zeta as a power of the standard generator
    power = next((u for u in range(pk)
                  if CyclotomicElem.zeta_power(ctx, k, u) == zeta), None)
    if power is None:
        raise NotRootOfUnity("zeta is not a power of the standard generator")
    mul = kummer_mul_corrupted if corrupt_carry else kummer_mul

    base = KummerBase.standard(ctx, k)
    K = base.K
    roots_fwd = constant_roots(ctx, K, k, power, k)       # roots of zeta
    roots_bwd = constant_roots(ctx, K, k, -power, k)      # roots of zeta^(-1)
    twisted = base.transformed(roots_bwd[k])

    # (0) the twisted parameter is zeta^(-1) q
    zinv = LaurentElem(ctx, K, 0, CyclotomicElem.zeta_power(ctx, k, -power))
    rep.check(twisted.parameter() == zinv * base.parameter(),
              "twisted parameter is not zeta^(-1) q")

    # (1) group law soundness under realization, both parameters
    els = base.elements()
    if not _check_law(rep, els, mul):
        return rep
    _check_products(rep, base, mul)
    _check_products(rep, twisted, mul, "twisted ")

    # (2) substitution q^(1/p^k) -> s q^(1/p^k) maps table to twisted table;
    # s^n is computed once per exponent n
    stride = ctx.p ** (K - k)
    s_const, s_pows = roots_bwd[k].coeff, {}

    def substitute(elem: LaurentElem) -> LaurentElem:
        n, r = divmod(elem.e, stride)
        if r:
            raise ValueError("element does not live over q^(1/p^k)")
        if n not in s_pows:
            s_pows[n] = s_const ** n
        return LaurentElem(ctx, K, elem.e, elem.coeff * s_pows[n])

    for e in els:
        rep.checks += 1
        t = KummerElement(twisted, e.a, e.j)
        if not substitute(base.realize(e)) == twisted.realize(t):
            rep.fail(f"substitution does not map the table at {e}")
            break

    # (3) transporting back along the roots of zeta recovers the original;
    # kummer_iso maps every element onto one base: validate and build it once
    back_base = kummer_iso(roots_fwd, KummerElement(twisted, 0, 0)).base
    same_root = back_base.param_root == base.param_root
    for e in els:
        rep.checks += 1
        back = KummerElement(back_base, e.a, e.j)
        if not (same_root and back_base.realize(back) == base.realize(e)):
            rep.fail(f"iso composition does not return the table at {e}")
            break
    return rep
