"""Truncated p-adic integers with per-scalar precision tracking.

Values are carried modulo p**N.  Each scalar remembers how many digits of
it are actually known (``prec``); sums and products know min(prec) digits,
dividing by p costs one digit.  Nothing here ever rounds: a residue is an
exact integer and the precision says which congruence class it pins down.

An exact rational is an integer pair (num, den), den != 0: the Bernoulli
numbers come back in lowest terms with den > 0, and ``reduce_rational``
takes any pair.  Plain integers keep ``fractions`` and ``decimal`` out of
every process.
"""

from __future__ import annotations

from math import comb, factorial, gcd, lcm

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


def unit_group_generator(p: int) -> int:
    """Smallest integer >= 2 generating (Z/p^2)^x for an odd prime p, and so
    (Z/p^m)^x for every m >= 1: the group is cyclic of order p(p - 1), and a
    unit a generates it unless a^(p(p-1)/q) = 1 mod p^2 for a prime q
    dividing p(p - 1)."""
    order, primes, rest, d = p * (p - 1), {p}, p - 1, 2
    while d * d <= rest:
        if rest % d:
            d += 1
        else:
            primes.add(d)
            rest //= d
    if rest > 1:
        primes.add(rest)
    return next(a for a in range(2, p * p) if a % p and all(
        pow(a, order // q, p * p) != 1 for q in primes))


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
        return padic_valuation(self.residue, self.ctx.p)

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

# B_0..B_K: a request past the table rebuilds it at twice the length.  Only
# a longer list replaces it, whole, so every thread reads a complete table.
_bernoulli_table = [(1, 1), (-1, 2)]


def bernoulli(k: int) -> tuple[int, int]:
    """Exact Bernoulli number B_k (convention B_1 = -1/2) as the pair
    (num, den) in lowest terms, den > 0.

    B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)) from the tangent numbers T_n,
    in O(n^2) small integer products (Brent and Harvey, arXiv:1108.0286).
    Column j of their triangle starts at (j-1)! and stage i = 2..j sets it
    to (j-i) (column j-1) + (j-i+2) (column j); it holds T_j from stage j on.
    """
    global _bernoulli_table
    if k < 0:
        raise ValueError("k must be >= 0")
    table = _bernoulli_table
    if k < len(table):
        return table[k]
    n = max(k, 2 * len(table)) // 2  # B_0..B_(2n+1)
    t = [0] + [factorial(j - 1) for j in range(1, n + 1)]
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    table = [(1, 1), (-1, 2)]
    for i in range(1, n + 1):  # B_2i, then B_(2i+1) = 0
        num, den = (-1) ** (i - 1) * 2 * i * t[i], 16 ** i - 4 ** i
        g = gcd(num, den)
        table += [(num // g, den // g), (0, 1)]
    if len(table) > len(_bernoulli_table):
        _bernoulli_table = table
    return table[k]


def _bernoulli_weights(ctx: PadicContext, k: int, m: int,
                       classes) -> tuple[list, int]:
    """(W, den): the Bernoulli distribution w_c = -F^(k-1) B_k(c/F)/k of
    level m, F = p^m, is -W_c/den at each c in ``classes``, every W_c
    reduced mod p^(N + v_p(den)); at m = 0 the one class 0 has weight
    -B_k/k, the sum of the level-1 weights.

    w_c = -c^k/(k F) - sum_(j>=1) C(k-1, j-1)/j B_j c^(k-j) F^(j-1), and
    term j has valuation >= m(j-1) - 1 - floor(log_p j) (v_p(B_j) >= -1 by
    von Staudt-Clausen), a bound that grows with j: the sum stops at the
    last j = J where it is below N, about N/m + 2, so B_j is built only to
    J and c^(k-J) is one modular pow.
    """
    p, N = ctx.p, ctx.N
    if m == 0:
        ws, den = _bernoulli_weights(ctx, k, 1, range(p))
        return [sum(ws) % p ** (N + padic_valuation(den, p))], den
    F = p ** m
    J = next((j for j in range(1, k) if m * j - 1 - ilog(j + 1, p) >= N), k)
    bs = [bernoulli(j) for j in range(J + 1)]
    den = k * F * lcm(*(j * d for j, (_, d) in enumerate(bs) if j))
    mod = p ** (N + padic_valuation(den, p))
    ts = [den // (k * F)] + [
        comb(k - 1, j - 1) * b * (den // (j * d)) * F ** (j - 1) % mod
        for j, (b, d) in enumerate(bs) if j]
    return [sum(t * c ** (J - j) for j, t in enumerate(ts))
            * pow(c, k - J, mod) % mod for c in classes], den


def padic_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def reduce_rational(num: int, den: int, ctx: PadicContext,
                    prec: int | None = None) -> PadicInt:
    """Reduce the exact rational num/den (den != 0, any pair, not only one
    in lowest terms) into Z/p**prec, prec = N by default.

    The value must be p-integral.  The pair is reduced by the power of p
    in den first, so a p left in the denominator is a genuine pole, of
    valuation v_p(num) - v_p(den) < 0, and raises NotPIntegral.  Zero comes
    back at full precision.
    """
    if prec is None:
        prec = ctx.N
    if num == 0:
        return PadicInt(ctx, 0, prec)
    p = ctx.p
    v = padic_valuation(den, p)
    if num % p ** v:
        raise NotPIntegral.pole(p, padic_valuation(num, p) - v)
    return PadicInt(ctx, num // p ** v * pow(den // p ** v, -1, p ** prec),
                    prec)


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
