"""Arithmetic in Z[zeta_{p^m}] / p^N.

Elements are polynomials in T reduced modulo the cyclotomic polynomial
Phi_{p^m}(T) = sum_{i<p} T^(i*p^(m-1)), so the class of T is a genuinely
primitive p^m-th root of unity and failing x**(p**m) == 1 is detectable.
Level 0 is the scalar ring Z/p^N itself.

An element stores its power-basis coordinates flat, as two integer lists:
``res[i]`` is the residue of the coefficient of T^i, reduced into
[0, p^prec[i]), and ``prec[i]`` is how many digits of it are known.  The
precision rules are those of ``PadicInt`` applied coordinate by coordinate:
sums and differences keep min(prec) per coordinate, and a ring product
knows min over all coordinates of both factors.  The lists are never
mutated once an element is built, so results may share them.

Powers of a root of unity come in two forms: ``cyclo_pow`` is one checked
power at a p-adic exponent, and ``zeta_powers`` is the whole table
zeta^0, zeta^1, ... after a single root check.
"""

from __future__ import annotations

from itertools import compress

from .errors import NotRootOfUnity, NotUnit, PrecisionExhausted
from .padic import PadicContext, PadicInt


def phi_pm(p: int, m: int) -> int:
    """Degree of the level-m ring: phi(p^m), with phi(1) = 1."""
    return 1 if m == 0 else (p - 1) * p ** (m - 1)


def _reduce_raw(raw: list[int], p: int, m: int, mod: int) -> list[int]:
    """Reduce an integer coefficient list modulo (Phi_{p^m}(T), mod)."""
    phi = phi_pm(p, m)
    step = p ** (m - 1) if m >= 1 else 1
    if len(raw) < phi:
        raw = raw + [0] * (phi - len(raw))
    for d in range(len(raw) - 1, phi - 1, -1):
        c = raw[d]
        if c:
            raw[d] = 0
            base = d - phi
            for i in range(p - 1):
                raw[base + i * step] -= c
    return [c % mod for c in raw[:phi]]


def _make(ctx: PadicContext, level: int, res: list[int],
          prec: list[int]) -> "CyclotomicElem":
    """An element from reduced residues and their precisions, unchecked."""
    x = object.__new__(CyclotomicElem)
    x.ctx, x.level, x.res, x.prec = ctx, level, res, prec
    return x


class CyclotomicElem:
    """Element of (Z/p^N)[T] / Phi_{p^m}(T); hosts p-power roots of unity.

    ``res`` and ``prec`` hold the flat coordinates (see the module
    docstring); ``coeffs`` is a fresh list of ``PadicInt`` built from them
    on each read, so writing to it leaves the element unchanged.
    """

    __slots__ = ("ctx", "level", "res", "prec")

    def __init__(self, ctx: PadicContext, level: int, coeffs: list[PadicInt]):
        if len(coeffs) != phi_pm(ctx.p, level):
            raise ValueError(
                f"level {level} needs {phi_pm(ctx.p, level)} coefficients, "
                f"got {len(coeffs)}"
            )
        self.ctx = ctx
        self.level = level
        self.res = [c.residue for c in coeffs]
        self.prec = [c.prec for c in coeffs]

    @property
    def coeffs(self) -> list[PadicInt]:
        return [PadicInt(self.ctx, r, e) for r, e in zip(self.res, self.prec)]

    # -- constructors ------------------------------------------------------

    # from_flat(ctx, level, res, prec): res[i] + O(p^prec[i]), unchecked, kept
    from_flat = staticmethod(_make)

    @classmethod
    def from_scalar(cls, x: PadicInt) -> "CyclotomicElem":
        return _make(x.ctx, 0, [x.residue], [x.prec])

    @classmethod
    def zero(cls, ctx: PadicContext, level: int = 0) -> "CyclotomicElem":
        n = phi_pm(ctx.p, level)
        return _make(ctx, level, [0] * n, [ctx.N] * n)

    @classmethod
    def one(cls, ctx: PadicContext, level: int = 0) -> "CyclotomicElem":
        n = phi_pm(ctx.p, level)
        return _make(ctx, level, [1] + [0] * (n - 1), [ctx.N] * n)

    @classmethod
    def zeta(cls, ctx: PadicContext, level: int) -> "CyclotomicElem":
        """The class of T: a primitive p^level-th root of unity."""
        return cls.zeta_power(ctx, level, 1)

    @classmethod
    def zeta_power(cls, ctx: PadicContext, level: int, j: int) -> "CyclotomicElem":
        """zeta^j at the given level, j taken modulo p^level: the unit vector
        e_j for j < phi, else -sum_{i<p-1} e_(j - phi + i p^(level-1)),
        since T^phi = -sum_{i<p-1} T^(i p^(level-1))."""
        if level == 0:
            return cls.one(ctx, 0)
        p, phi = ctx.p, phi_pm(ctx.p, level)
        j, res = j % p ** level, [0] * phi
        if j < phi:
            res[j] = 1
        else:
            res[j - phi::phi // (p - 1)] = [ctx.modulus - 1] * (p - 1)
        return _make(ctx, level, res, [ctx.N] * phi)

    # -- structure ---------------------------------------------------------

    def min_prec(self) -> int:
        return min(self.prec)

    def lift_to(self, level: int) -> "CyclotomicElem":
        """Image under Z[zeta_{p^m}] -> Z[zeta_{p^m'}], zeta |-> zeta^(p^(m'-m))."""
        if level < self.level:
            raise ValueError("cannot lower cyclotomic level")
        if level == self.level:
            return self
        stride = self.ctx.p ** (level - self.level)
        n = phi_pm(self.ctx.p, level)
        prec = self.min_prec()
        mod = self.ctx.pows[prec]
        res = [0] * n
        res[::stride] = [r % mod for r in self.res]
        return _make(self.ctx, level, res, [prec] * n)

    def is_constant(self) -> bool:
        return not any(self.res[1:])

    def constant_part(self) -> PadicInt:
        if not self.is_constant():
            raise ValueError(f"{self!r} is not a scalar")
        return PadicInt(self.ctx, self.res[0], self.prec[0])

    def augmentation(self) -> PadicInt:
        """Evaluation at T = 1 (detects units: the ring is local over p)."""
        return PadicInt(self.ctx, sum(self.res), self.min_prec())

    def is_unit(self) -> bool:
        return self.augmentation().is_unit()

    def is_root_of_unity(self) -> bool:
        return self ** (self.ctx.p ** self.level) == CyclotomicElem.one(self.ctx, 0)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            other = _make(self.ctx, 0, [other % self.ctx.modulus], [self.ctx.N])
        elif isinstance(other, PadicInt):
            other = CyclotomicElem.from_scalar(other)
        elif not isinstance(other, CyclotomicElem):
            return None, None
        if other.ctx is not self.ctx and \
                (other.ctx.p, other.ctx.N) != (self.ctx.p, self.ctx.N):
            raise ValueError("mixed p-adic contexts")
        lvl = max(self.level, other.level)
        return self.lift_to(lvl), other.lift_to(lvl)

    def _combine(self, other, sign: int):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        pows = self.ctx.pows
        prec = [e if e < f else f for e, f in zip(a.prec, b.prec)]
        return _make(self.ctx, a.level, [(x + sign * y) % pows[e] for x, y, e
                                         in zip(a.res, b.res, prec)], prec)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        return b - a

    def __neg__(self):
        pows = self.ctx.pows
        return _make(self.ctx, self.level,
                     [-x % pows[e] for x, e in zip(self.res, self.prec)],
                     self.prec)

    def __mul__(self, other):
        """Ring product, known to the least precision of both factors; only
        nonzero coordinates are paired, so zeta^k (one or p - 1 of them),
        zeta - 1 and character values cost a few rows, not phi(p^m)^2."""
        ctx = self.ctx
        if isinstance(other, (int, PadicInt)):
            # a scalar scales each coefficient; the precision is that of
            # the full product with the scalar lifted to this level
            y, prec = (other, self.min_prec()) if isinstance(other, int) \
                else (other.residue, min(self.min_prec(), other.prec))
            mod = ctx.pows[prec]
            return _make(ctx, self.level, [x * y % mod for x in self.res],
                         [prec] * len(self.res))
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        prec = min(a.min_prec(), b.min_prec())
        n = len(a.res)
        raw = [0] * (2 * n - 1)
        nzb = [(j, y) for j, y in enumerate(b.res) if y]
        for i, x in enumerate(a.res):
            if x:
                for j, y in nzb:
                    raw[i + j] += x * y
        res = _reduce_raw(raw, ctx.p, a.level, ctx.pows[prec])
        return _make(ctx, a.level, res, [prec] * n)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        acc = CyclotomicElem.one(self.ctx, 0)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def inverse(self) -> "CyclotomicElem":
        """Unit inverse by inverting mod p and Hensel lifting.

        Mod p the ring is F_p[T]/(T - 1)^phi, whose nilpotent part Frobenius
        kills, so x^(p^m) = aug(x) mod p and x^(p^m - 1) / aug(x) inverts x
        mod p.  Every step is a ring product with x, so the result knows
        x.min_prec() digits in each coefficient.
        """
        if self.level == 0:
            return CyclotomicElem.from_scalar(self.constant_part().inverse())
        if not self.is_unit():
            raise NotUnit(f"{self!r} is not a unit (augmentation divisible by p)")
        p, m = self.ctx.p, self.level
        prec = self.min_prec()
        y = self ** (p ** m - 1) * pow(self.augmentation().residue % p, -1, p)
        # each Newton step doubles the number of correct digits
        digits = 1
        while digits < prec:
            y = y * (2 - self * y)
            digits *= 2
        return y

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        pows = self.ctx.pows
        for x, y, e, f in zip(a.res, b.res, a.prec, b.prec):
            if x != y and (x - y) % pows[e if e < f else f]:
                return False
        return True

    __hash__ = None

    def __repr__(self):
        terms = [f"{r}*z^{i}" for i, r in enumerate(self.res) if r]
        body = " + ".join(terms) if terms else "0"
        return f"Cyclo(level={self.level}, {body} + O(p^{self.min_prec()}))"


def _standard_power(zeta: CyclotomicElem) -> int | None:
    """u when zeta is known to N digits with the coordinates of the standard
    power T^u (``CyclotomicElem.zeta_power``: e_u, or p - 1 coordinates -1
    spaced p^(m-1) apart from u - phi), else None.  Such a zeta is a root of
    unity by its form, and zeta^k = T^(u k mod p^m) is read off the same
    closed form."""
    ctx, res = zeta.ctx, zeta.res
    p, phi = ctx.p, len(res)
    q = phi // (p - 1)
    nz = list(compress(range(phi), res)) if zeta.min_prec() == ctx.N else []
    if len(nz) == 1 and res[nz[0]] == 1:
        return nz[0]
    if zeta.level and len(nz) == p - 1 and nz[0] < q and \
            res[nz[0]::q] == [ctx.modulus - 1] * (p - 1):
        return phi + nz[0]
    return None


def cyclo_pow(x: CyclotomicElem, e: PadicInt) -> CyclotomicElem:
    """x**e for a p-power root of unity x and a p-adic exponent e.

    Well-defined because the order of x divides p^level, so only e modulo
    p^level matters.  A standard power of T is read off its closed form;
    any other x is checked (x^(p^m) = 1) and powered by squaring.
    """
    m, u = x.level, _standard_power(x)
    if u is None and not x.is_root_of_unity():
        raise NotRootOfUnity(f"{x!r}^(p^{m}) != 1")
    if e.prec < m:
        raise PrecisionExhausted(
            f"exponent known mod p^{e.prec} but level-{m} root needs p^{m}"
        )
    k = e.residue % (x.ctx.p ** m)
    if u is None or not k:  # x^0 is the scalar one
        return x ** k
    return CyclotomicElem.zeta_power(x.ctx, m, u * k)


def zeta_powers(zeta: CyclotomicElem, count: int) -> list[CyclotomicElem]:
    """[zeta^0, ..., zeta^(count - 1)] for a p^m-th root of unity zeta and
    count <= p^m; zeta^0 is the scalar one, as ``cyclo_pow`` gives it.

    A standard power of T (``_standard_power``) gives every zeta^k by its
    closed form.  Any other zeta is checked once (zeta^(p^m) = 1, else
    NotRootOfUnity) and powered by successive sparse products, each known
    to zeta's least precision.
    """
    ctx, m, u = zeta.ctx, zeta.level, _standard_power(zeta)
    powers = [CyclotomicElem.one(ctx, 0)]
    if u is not None:
        return powers + [CyclotomicElem.zeta_power(ctx, m, u * k)
                         for k in range(1, count)]
    if not zeta.is_root_of_unity():
        raise NotRootOfUnity(f"{zeta!r}^(p^{m}) != 1")
    for _ in range(count - 1):
        powers.append(powers[-1] * zeta)
    return powers
