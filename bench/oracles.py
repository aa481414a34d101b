"""Exact oracles and the precision-aware output comparison.

Nothing here imports padicq.  Expected outputs are built in the same JSON
shape the program prints, from integers and ``fractions`` only, and
``agree`` compares them value by value:

* a residue pair agrees when the new precision is at least the expected
  one and the residues agree modulo p^min(prec_want, prec_got);
* every other field must be equal.

An oracle's precision is the one this commit's program returns (N - m for a
level-m step function), so a later change that returns more digits still
agrees, and one that returns fewer does not.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

# guard digits for dividing out the p-power denominators of B_k/k and of
# 4^n (4^n - 1); v_p of those is at most 1 + log_p(k), far below this
GUARD = 12


def agree(want, got, p: int) -> bool:
    """True when ``got`` (program output) matches ``want`` (oracle or
    reference); only the keys present in ``want`` are compared."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return False
        if want.get("kind") == "value":
            return (got.get("kind") == "value"
                    and _same_digit(want["residue"], want["prec"],
                                    got.get("residue"), got.get("prec"), p))
        if want.get("kind") in ("series", "cyclo_series"):
            if got.get("kind") != want["kind"] or got.get("M") != want["M"]:
                return False
            if len(got.get("coeffs", ())) != len(want["coeffs"]):
                return False
            return all(_same_digit(w, wp, g, gp, p) for w, wp, g, gp in zip(
                want["coeffs"], want["prec"], got["coeffs"], got["prec"]))
        return all(k in got and agree(v, got[k], p) for k, v in want.items())
    if isinstance(want, list):
        return (isinstance(got, list) and len(want) == len(got)
                and all(agree(w, g, p) for w, g in zip(want, got)))
    return want == got


def _same_digit(w, wp, g, gp, p) -> bool:
    if isinstance(w, list):
        return (isinstance(g, list) and isinstance(gp, list)
                and len(w) == len(g) == len(wp) == len(gp)
                and all(_same_digit(*t, p) for t in zip(w, wp, g, gp)))
    if not isinstance(gp, int) or gp < wp:
        return False
    return (int(w) - int(g)) % p ** min(wp, gp) == 0


def value(res: int, prec: int, p: int, N: int) -> dict:
    return {"kind": "value", "p": p, "N": N, "residue": str(res), "prec": prec}


def series(coeffs: list, prec, p: int, N: int, qprec: int | None = None) -> dict:
    precs = prec if isinstance(prec, list) else [prec] * len(coeffs)
    return {"kind": "series", "p": p, "N": N,
            "M": len(coeffs) - 1 if qprec is None else qprec,
            "coeffs": [str(c) for c in coeffs], "prec": precs}


def step_fn(fn, p: int):
    """(j, m, c) -> x |-> x^j [x = c mod p^m], on integers."""
    j, m, c = fn
    F = p ** m

    def f(x: int) -> int:
        return x ** j if m == 0 or (x - c) % F == 0 else 0
    return f


class Exact:
    """Exact values reduced mod p^N for one (p, N)."""

    def __init__(self, p: int, N: int):
        self.p, self.N = p, N
        self.mod = p ** N
        self.wide = p ** (N + GUARD)
        self._tangent: list[int] = [0, 1]
        self._bern: list[Fraction] = [Fraction(1)]

    # -- Bernoulli numbers ---------------------------------------------------

    def _tangents(self, n: int) -> list[int]:
        """Tangent numbers T_1..T_n mod p^(N+GUARD) (Brent-Harvey)."""
        if len(self._tangent) <= n:
            n = max(n, 2 * len(self._tangent))
            mod = self.wide
            T = [0] * (n + 1)
            T[1] = 1
            for k in range(2, n + 1):
                T[k] = (k - 1) * T[k - 1] % mod
            for k in range(2, n + 1):
                for j in range(k, n + 1):
                    T[j] = ((j - k) * T[j - 1] + (j - k + 2) * T[j]) % mod
            self._tangent = T
        return self._tangent

    def neg_bk_over_k(self, k: int) -> tuple[int, int]:
        """-B_k/k as (r, v): the value is r / p^v, r known mod p^(N+GUARD).

        For k = 2n, B_k = (-1)^(n-1) k T_n / (4^n (4^n - 1)), so
        -B_k/k = (-1)^n T_n / (4^n (4^n - 1)) with T_n an integer.
        """
        p, wide = self.p, self.wide
        if k == 1:
            return pow(2, -1, wide), 0
        if k % 2:
            return 0, 0
        n = k // 2
        num = (-1) ** n * self._tangents(n)[n]
        den, v = 4 ** n * (4 ** n - 1), 0
        while den % p == 0:
            den //= p
            v += 1
        if v > GUARD:
            raise ValueError(f"p^{v} in the denominator of B_{k}/{k} exceeds the guard")
        return num * pow(den, -1, wide) % wide, v

    def _divide(self, x: int, v: int) -> int:
        """x / p^v mod p^N for x mod p^(N+GUARD) known divisible by p^v."""
        if x % self.p ** v:
            raise ValueError("oracle value is not p-integral")
        return (x // self.p ** v) % self.mod

    def moment(self, a: int, k: int) -> int:
        """kappa(z^(k-1)) = (1 - a^k)(-B_k/k)."""
        r, v = self.neg_bk_over_k(k)
        return self._divide((1 - pow(a, k, self.wide)) * r % self.wide, v)

    def bernoulli(self, k: int) -> Fraction:
        B = self._bern
        for m in range(len(B), k + 1):
            B.append(Fraction(-sum(comb(m + 1, j) * B[j] for j in range(m)), m + 1))
        return B[k]

    def reduce(self, r: Fraction) -> int:
        if r.denominator % self.p == 0:
            raise ValueError(f"{r} is not p-integral")
        return r.numerator * pow(r.denominator, -1, self.mod) % self.mod

    # -- the constant-term functional ----------------------------------------

    def _lvalue_class(self, j: int, m: int, c: int) -> Fraction:
        """L(-j, 1_{c + p^m Z_p}) = -p^(mj) B_{j+1}(c/p^m)/(j+1), c in [0, p^m)."""
        F = self.p ** m
        x = Fraction(c % F, F)
        bpoly = sum(comb(j + 1, i) * self.bernoulli(i) * x ** (j + 1 - i)
                    for i in range(j + 2))
        return -Fraction(F) ** j * bpoly / (j + 1)

    def kappa(self, a: int, fn) -> tuple[int, int]:
        """(residue, precision) of kappa_a(z^j 1_{c + p^m Z_p}).

        Level m > 0 uses the regularized Bernoulli distribution
        L(-j, 1_U) - a^(j+1) L(-j, 1_{a^-1 U}); the program certifies N - m
        digits there.
        """
        j, m, c = fn
        if m == 0:
            return self.moment(a, j + 1), self.N
        F = self.p ** m
        cc = pow(a, -1, F) * c % F
        val = self._lvalue_class(j, m, c) - Fraction(a) ** (j + 1) * self._lvalue_class(j, m, cc)
        return self.reduce(val), self.N - m

    # -- series --------------------------------------------------------------

    def divisor_sums(self, g, M: int) -> list[int]:
        """[sum_{d | n} g(d)] mod p^N for n = 0..M (entry 0 is 0)."""
        out = [0] * (M + 1)
        for d in range(1, M + 1):
            t = g(d) % self.mod
            if t:
                for n in range(d, M + 1, d):
                    out[n] += t
        return [x % self.mod for x in out]

    def eisenstein(self, k: int, M: int) -> dict:
        """2G_k for even k with (p-1) not dividing k."""
        r, v = self.neg_bk_over_k(k)
        const = self._divide(r, v)
        sig = self.divisor_sums(lambda d: pow(d, k - 1, self.mod), M)
        return series([const] + [2 * s % self.mod for s in sig[1:]], self.N, self.p, self.N)

    def eisenstein_twisted(self, k: int, level: int, M: int) -> dict:
        """2G_k twisted by 1_{p^level Z_p}: constant -p^(level(k-1)) B_k/k."""
        r, v = self.neg_bk_over_k(k)
        F = self.p ** level
        const = self._divide(r * pow(self.p, level * (k - 1), self.wide) % self.wide, v)
        sig = self.divisor_sums(lambda d: pow(d, k - 1, self.mod) if d % F == 0 else 0, M)
        return series([const] + [2 * s % self.mod for s in sig[1:]], self.N, self.p, self.N)

    def eisenstein_measure(self, a: int, fn, M: int) -> dict:
        """mu_a(f): constant kappa_a(f), coefficient n 2 sum_{d|n} f(d) - a f(ad)."""
        f = step_fn(fn, self.p)
        const, cprec = self.kappa(a, fn)
        sums = self.divisor_sums(lambda d: f(d) - a * f(a * d % self.mod), M)
        return series([const] + [2 * s % self.mod for s in sums[1:]],
                      [cprec] + [self.N] * M, self.p, self.N)

    def nu_moment(self, a: int, s: int, t: int, M: int) -> dict:
        """(1 - a^(s+1)) theta^t 2G_(s+1), constant kappa(z^s) 0^t."""
        mod = self.mod
        const = self.moment(a, s + 1) if t == 0 else 0
        factor = 2 * (1 - pow(a, s + 1, mod))
        sig = self.divisor_sums(lambda d: pow(d, s, mod), M)
        return series([const] + [factor * pow(n, t, mod) * sig[n] % mod
                                 for n in range(1, M + 1)], self.N, self.p, self.N)

    def table_kappa(self, a: int, table: list[int], m: int) -> int:
        """kappa_a of the level-m step function with the given values."""
        return sum(v * self.kappa(a, (0, m, c))[0]
                   for c, v in enumerate(table) if v) % self.mod

    def lvalue(self, a: int, chi1: list[int], chi2: list[int], m: int, M: int) -> dict:
        """Output of ``padicq lvalue`` for unit-character tables of level m."""
        p, mod, N = self.p, self.mod, self.N
        F = p ** m
        quotient = [chi1[c] * pow(chi2[c], -1, mod) % mod if c % p else 0
                    for c in range(F)]
        factor = (1 - chi1[a % F] * a * pow(chi2[a % F], -1, mod)) % mod
        kl = self.table_kappa(a, quotient, m)
        sums = self.divisor_sums(lambda d: quotient[d % F] - a * quotient[a * d % F], M)
        nu = [0] + [chi2[n % F] * 2 * sums[n] % mod for n in range(1, M + 1)]
        return {"kind": "lvalue",
                "value": value(kl * pow(factor, -1, mod) % mod, N - m, p, N),
                "euler_factor": value(factor, N, p, N),
                "nu_series": series(nu, [N - m] + [N] * M, p, N)}

    def mahler_dot(self, fn, coeffs: list[int]) -> int:
        """sum_k (Delta^k f)(0) b_k for the Amice measure with coefficients b."""
        f = step_fn(fn, self.p)
        vals = [f(n) for n in range(len(coeffs))]
        acc = 0
        for b in coeffs:
            acc += vals[0] * b
            vals = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
        return acc % self.mod

    def zeta_power(self, m: int, e: int) -> list[int]:
        """zeta_{p^m}^e in the basis 1, T, ..., T^(phi-1) mod Phi_{p^m}."""
        p = self.p
        phi, step = (p - 1) * p ** (m - 1), p ** (m - 1)
        e %= p ** m
        out = [0] * phi
        if e < phi:
            out[e] = 1
        else:
            for i in range(p - 1):
                out[e - phi + i * step] = -1
        return out
