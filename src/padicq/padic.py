"""Truncated p-adic integers with per-scalar precision tracking.

Values are carried modulo p**N.  Each scalar remembers how many digits of
it are actually known (``prec``); sums and products know min(prec) digits,
dividing by p costs one digit.  Nothing here ever rounds: a residue is an
exact integer and the precision says which congruence class it pins down.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import NotPIntegral, NotUnit


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PadicContext:
    """Global parameters: the odd prime p, p-adic precision N, q-precision M.

    Every computation in the package happens modulo p**N with q-expansions
    truncated after q**M.  ``pows[e]`` is p**e for e = 0..N, so reducing to
    e digits is one lookup (and e = 0 reduces modulo 1, to 0).
    """

    __slots__ = ("p", "N", "M", "modulus", "pows")

    def __init__(self, p: int, N: int, M: int):
        if not is_prime(p) or p < 3:
            raise ValueError(f"p must be an odd prime, got {p}")
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")
        if M < 1:
            raise ValueError(f"M must be >= 1, got {M}")
        self.p = p
        self.N = N
        self.M = M
        self.pows = tuple(p ** e for e in range(N + 1))
        self.modulus = self.pows[N]

    def __eq__(self, other):
        return (
            isinstance(other, PadicContext)
            and (self.p, self.N, self.M) == (other.p, other.N, other.M)
        )

    def __hash__(self):
        return hash((self.p, self.N, self.M))

    def __repr__(self):
        return f"PadicContext(p={self.p}, N={self.N}, M={self.M})"


class PadicInt:
    """An element of Z/p**prec, tagged with its effective precision.

    The residue is always reduced into [0, p**prec).  Binary operations
    return min(prec) digits; ``divide_by_p`` trades a factor of p for one
    digit of precision.
    """

    __slots__ = ("ctx", "residue", "prec")

    def __init__(self, ctx: PadicContext, value: int, prec: int | None = None):
        if prec is None or prec > ctx.N:
            prec = ctx.N
        elif prec < 0:
            prec = 0
        self.ctx = ctx
        self.prec = prec
        self.residue = value % ctx.pows[prec]

    # -- structure ---------------------------------------------------------

    def is_unit(self) -> bool:
        return self.prec > 0 and self.residue % self.ctx.p != 0

    def is_exact_zero(self) -> bool:
        """True when the value is 0 to the full precision N.

        Only such a term may be dropped from a sum or a product: a zero
        known to fewer digits still caps the precision of what it enters.
        """
        return self.residue == 0 and self.prec == self.ctx.N

    def valuation(self) -> int:
        """v_p of the value, capped at prec (a residue of 0 means v >= prec)."""
        if self.residue == 0:
            return self.prec
        v, r, p = 0, self.residue, self.ctx.p
        while r % p == 0:
            r //= p
            v += 1
        return v

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return PadicInt(self.ctx, other)
        if isinstance(other, PadicInt):
            if other.ctx.p != self.ctx.p or other.ctx.N != self.ctx.N:
                raise ValueError("mixed p-adic contexts")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PadicInt(self.ctx, self.residue + o.residue, min(self.prec, o.prec))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PadicInt(self.ctx, self.residue - o.residue, min(self.prec, o.prec))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return PadicInt(self.ctx, -self.residue, self.prec)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PadicInt(self.ctx, self.residue * o.residue, min(self.prec, o.prec))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return PadicInt(self.ctx, pow(self.residue, e, self.ctx.pows[self.prec]),
                        self.prec)

    def inverse(self) -> "PadicInt":
        if not self.is_unit():
            raise NotUnit(f"{self!r} is not a unit")
        return PadicInt(self.ctx, pow(self.residue, -1, self.ctx.pows[self.prec]),
                        self.prec)

    def divide_by_p(self, d: int = 1) -> "PadicInt":
        """Divide by p**d; requires divisibility, costs d digits of precision."""
        pd = self.ctx.p ** d
        if self.residue % pd != 0:
            raise NotPIntegral(f"residue {self.residue} not divisible by p^{d}")
        return PadicInt(self.ctx, self.residue // pd, self.prec - d)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self.ctx.pows[min(self.prec, o.prec)]
        return self.residue % m == o.residue % m

    __hash__ = None

    def __repr__(self):
        return f"{self.residue} + O({self.ctx.p}^{self.prec})"


# -- exact rational utilities ----------------------------------------------

# (table B_0..B_K, column c = K // 2 of the tangent-number triangle after
# each stage i = 1..c, entry 0 unused): a request past the table computes
# only the new columns.  The tuple is replaced whole, so every thread reads
# a table and a column that belong together.
_bernoulli_state = ([Fraction(1), Fraction(-1, 2)], [0])


def bernoulli(k: int) -> Fraction:
    """Exact Bernoulli number B_k (convention B_1 = -1/2).

    B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)) from the tangent numbers T_n,
    in O(n^2) small integer products (Brent and Harvey, arXiv:1108.0286).
    Column j of their triangle starts at (j-1)! and stage i = 2..j sets it
    to (j-i) (column j-1) + (j-i+2) (column j); it holds T_j from stage j on.
    """
    global _bernoulli_state
    if k < 0:
        raise ValueError("k must be >= 0")
    table, prev = _bernoulli_state
    if k < len(table):
        return table[k]
    c, n, col = len(prev) - 1, k // 2, prev
    t = [0] * (c + 1) + [factorial(j - 1) for j in range(c + 1, n + 1)]
    if n > c:
        col = [0, t[n]]
        for i in range(2, n + 1):
            if c:  # column c at stage i, from the stored column
                t[c] = prev[min(i, c)]
            for j in range(max(i, c + 1), n + 1):
                t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
            col.append(t[n])
    table = table + [Fraction(0) if m % 2 else Fraction(
        -(-1) ** (m // 2) * m * t[m // 2], 4 ** m - 2 ** m)
        for m in range(len(table), k + 1)]
    # a longer state another thread stored meanwhile is kept
    if len(table) > len(_bernoulli_state[0]):
        _bernoulli_state = (table, col)
    return table[k]


def bernoulli_polynomial(k: int, x: Fraction) -> Fraction:
    """B_k(x) = sum_j C(k, j) B_j x^(k-j), evaluated exactly."""
    x = Fraction(x)
    bernoulli(k)  # fill the table once, not once per j
    return sum(comb(k, j) * bernoulli(j) * x ** (k - j) for j in range(k + 1))


def padic_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def reduce_rational(r: Fraction, ctx: PadicContext, prec: int | None = None) -> PadicInt:
    """Reduce an exact rational into Z/p**N.

    The value must be p-integral: Fraction keeps numerator and denominator
    coprime, so any p left in the denominator means a genuine pole and raises
    NotPIntegral.  Zero comes back at full precision.
    """
    r = Fraction(r)
    if prec is None:
        prec = ctx.N
    if r.numerator == 0:
        return PadicInt(ctx, 0, prec)
    if r.denominator % ctx.p == 0:
        v = padic_valuation(r.denominator, ctx.p)
        raise NotPIntegral(f"value of {ctx.p}-adic valuation {-v} has "
                           f"p={ctx.p} in its denominator")
    m = ctx.p ** prec
    return PadicInt(ctx, r.numerator * pow(r.denominator, -1, m), prec)


def ilog(n: int, p: int) -> int:
    """floor(log_p(n)) for n >= 1."""
    e = 0
    while p ** (e + 1) <= n:
        e += 1
    return e


def binomial_padic(x: PadicInt, k: int) -> PadicInt:
    """C(x, k) for a p-adic argument.

    The binomial is evaluated exactly on the canonical residue; since
    C(n + p^e, k) - C(n, k) has valuation >= e - floor(log_p k), the result
    is certified to prec - floor(log_p k) digits.
    """
    if k == 0:
        return PadicInt(x.ctx, 1, x.prec)
    loss = ilog(k, x.ctx.p)
    return PadicInt(x.ctx, comb(x.residue, k), max(x.prec - loss, 0))
