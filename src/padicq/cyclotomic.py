"""Arithmetic in Z[zeta_{p^m}] / p^N.

Elements are polynomials in T reduced modulo the cyclotomic polynomial
Phi_{p^m}(T) = sum_{i<p} T^(i*p^(m-1)), so the class of T is a genuinely
primitive p^m-th root of unity and failing x**(p**m) == 1 is detectable.
Level 0 is the scalar ring Z/p^N itself.
"""

from __future__ import annotations

from math import comb

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


class CyclotomicElem:
    """Element of (Z/p^N)[T] / Phi_{p^m}(T); hosts p-power roots of unity."""

    __slots__ = ("ctx", "level", "coeffs")

    def __init__(self, ctx: PadicContext, level: int, coeffs: list[PadicInt]):
        if len(coeffs) != phi_pm(ctx.p, level):
            raise ValueError(
                f"level {level} needs {phi_pm(ctx.p, level)} coefficients, "
                f"got {len(coeffs)}"
            )
        self.ctx = ctx
        self.level = level
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_scalar(cls, x: PadicInt) -> "CyclotomicElem":
        return cls(x.ctx, 0, [x])

    @classmethod
    def zero(cls, ctx: PadicContext, level: int = 0) -> "CyclotomicElem":
        n = phi_pm(ctx.p, level)
        return cls(ctx, level, [PadicInt(ctx, 0) for _ in range(n)])

    @classmethod
    def one(cls, ctx: PadicContext, level: int = 0) -> "CyclotomicElem":
        z = cls.zero(ctx, level)
        z.coeffs[0] = PadicInt(ctx, 1)
        return z

    @classmethod
    def zeta(cls, ctx: PadicContext, level: int) -> "CyclotomicElem":
        """The class of T: a primitive p^level-th root of unity."""
        if level == 0:
            return cls.one(ctx, 0)
        return cls.zeta_power(ctx, level, 1)

    @classmethod
    def zeta_power(cls, ctx: PadicContext, level: int, j: int) -> "CyclotomicElem":
        """zeta^j at the given level, j taken modulo p^level."""
        if level == 0:
            return cls.one(ctx, 0)
        j %= ctx.p ** level
        raw = [0] * (j + 1)
        raw[j] = 1
        return cls._from_raw(ctx, level, raw, ctx.N)

    @classmethod
    def _from_raw(cls, ctx, level, raw, prec) -> "CyclotomicElem":
        mod = ctx.p ** prec if prec > 0 else 1
        ints = _reduce_raw(list(raw), ctx.p, level, mod)
        return cls(ctx, level, [PadicInt(ctx, c, prec) for c in ints])

    # -- structure ---------------------------------------------------------

    def min_prec(self) -> int:
        return min(c.prec for c in self.coeffs)

    def _raw(self) -> list[int]:
        return [c.residue for c in self.coeffs]

    def lift_to(self, level: int) -> "CyclotomicElem":
        """Image under Z[zeta_{p^m}] -> Z[zeta_{p^m'}], zeta |-> zeta^(p^(m'-m))."""
        if level < self.level:
            raise ValueError("cannot lower cyclotomic level")
        if level == self.level:
            return self
        stride = self.ctx.p ** (level - self.level)
        n = phi_pm(self.ctx.p, level)
        prec = self.min_prec()
        out = [PadicInt(self.ctx, 0, prec) for _ in range(n)]
        for i, c in enumerate(self.coeffs):
            out[i * stride] = PadicInt(self.ctx, c.residue, prec)
        return CyclotomicElem(self.ctx, level, out)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def is_constant(self) -> bool:
        return all(c.is_zero() for c in self.coeffs[1:])

    def constant_part(self) -> PadicInt:
        if not self.is_constant():
            raise ValueError(f"{self!r} is not a scalar")
        return self.coeffs[0]

    def augmentation(self) -> PadicInt:
        """Evaluation at T = 1 (detects units: the ring is local over p)."""
        prec = self.min_prec()
        return PadicInt(self.ctx, sum(c.residue for c in self.coeffs), prec)

    def is_unit(self) -> bool:
        return self.augmentation().is_unit()

    def is_root_of_unity(self) -> bool:
        return self ** (self.ctx.p ** self.level) == CyclotomicElem.one(self.ctx, 0)

    def zero_like(self) -> "CyclotomicElem":
        return CyclotomicElem.zero(self.ctx, self.level)

    def one_like(self) -> "CyclotomicElem":
        return CyclotomicElem.one(self.ctx, self.level)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            other = PadicInt(self.ctx, other)
        if isinstance(other, PadicInt):
            other = CyclotomicElem.from_scalar(other)
        if not isinstance(other, CyclotomicElem):
            return None, None
        lvl = max(self.level, other.level)
        return self.lift_to(lvl), other.lift_to(lvl)

    def __add__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        return CyclotomicElem(self.ctx, a.level,
                              [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        return CyclotomicElem(self.ctx, a.level,
                              [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        return b - a

    def __neg__(self):
        return CyclotomicElem(self.ctx, self.level, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            other = PadicInt(self.ctx, other)
        if isinstance(other, PadicInt):
            # a scalar scales each coefficient; the precision is that of
            # the full product with the scalar lifted to this level
            prec = min(self.min_prec(), other.prec)
            return CyclotomicElem(self.ctx, self.level, [
                PadicInt(self.ctx, c.residue * other.residue, prec)
                for c in self.coeffs])
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        prec = min(a.min_prec(), b.min_prec())
        mod = self.ctx.p ** prec if prec > 0 else 1
        ra, rb = a._raw(), b._raw()
        n = len(ra)
        raw = [0] * (2 * n - 1)
        for i, x in enumerate(ra):
            if x:
                for j, y in enumerate(rb):
                    raw[i + j] += x * y
        ints = _reduce_raw(raw, self.ctx.p, a.level, mod)
        return CyclotomicElem(self.ctx, a.level,
                              [PadicInt(self.ctx, c, prec) for c in ints])

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
        mod p.
        """
        if self.level == 0:
            return CyclotomicElem.from_scalar(self.coeffs[0].inverse())
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
        return CyclotomicElem(
            self.ctx, m,
            [PadicInt(self.ctx, c.residue, min(c.prec, prec)) for c in y.coeffs])

    # -- valuation ---------------------------------------------------------

    def theta_valuation(self) -> int:
        """(zeta - 1)-adic valuation, in units of 1/phi(p^m) of v_p.

        Expanding in powers of (zeta - 1), the valuation is the minimum of
        j + phi * v_p(d_j); the minimizing index is unique, so no cancellation
        can occur.  Coefficients that vanish at working precision contribute
        their precision as a floor.
        """
        phi = phi_pm(self.ctx.p, self.level)
        raw = self._raw()
        best = None
        for j in range(phi):
            d = sum(comb(i, j) * raw[i] for i in range(j, phi))
            c = PadicInt(self.ctx, d, self.min_prec())
            val = j + phi * c.valuation()
            if best is None or val < best:
                best = val
        return best

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        for x, y in zip(a.coeffs, b.coeffs):
            if x.residue != y.residue and not x == y:
                return False
        return True

    __hash__ = None

    def __repr__(self):
        terms = [
            f"{c.residue}*z^{i}" for i, c in enumerate(self.coeffs) if c.residue
        ]
        body = " + ".join(terms) if terms else "0"
        return f"Cyclo(level={self.level}, {body} + O(p^{self.min_prec()}))"


def cyclo_pow(x: CyclotomicElem, e: PadicInt) -> CyclotomicElem:
    """x**e for a p-power root of unity x and a p-adic exponent e.

    Well-defined because the order of x divides p^level, so only e modulo
    p^level matters.
    """
    m = x.level
    if not x.is_root_of_unity():
        raise NotRootOfUnity(f"{x!r}^(p^{m}) != 1")
    if e.prec < m:
        raise PrecisionExhausted(
            f"exponent known mod p^{e.prec} but level-{m} root needs p^{m}"
        )
    return x ** (e.residue % (x.ctx.p ** m))
