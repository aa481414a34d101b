"""Exact representations of continuous functions on Z_p.

Every variant evaluates exactly at p-adic integer arguments.  A polynomial
is its nonzero terms {j: c_j}: a coefficient is dropped only when it is 0
to all N digits, a value is known to the least precision over the stored
terms, and z^j or a product of polynomials costs its number of terms, not
its degree; a step function is likewise its classes {c: value} mod p^m.
Locally constant functions (step functions, p-power characters and their
products with polynomials) additionally decompose into a canonical "sum of
z^j times step function" form, f(z) = sum_j z^j T_j[z mod p^m], which is
what measure evaluation consumes.  ``values`` reads f at xs from these
tables, built once with p^m entries, when len(xs) >= p^m, and point by point
otherwise, with exactly the residues and precisions of ``evaluate``.
Functions without such tables (Mahler series, among them the binomials
C(z, k) with k > 0, and argument scalings known to fewer than N digits)
raise UnsupportedShape and are evaluated point by point.  General continuous
functions enter only as Mahler series with an explicit, caller-declared tail
valuation; the library never guesses a modulus of continuity.  Every
function states its shape where it is built: ``lc_level`` is the smallest
level m at which it is known to factor through Z/p^m (None: not known
locally constant, as for honest polynomials and Mahler series),
``step_level`` the level m of its tables T_j (the deepest step or character
factor, 0 for none), and ``ring_level`` the deepest level of a character
factor (0 for none; its values are ring elements when it is >= 1).
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import comb

from .cyclotomic import cyclo_pow, zeta_powers
from .errors import (ConfigError, NotUnit, PadicqError, PrecisionExhausted,
                     UnsupportedShape, json_field, json_int_field,
                     json_int_list, json_list, json_object)
from .padic import PadicContext, PadicInt, ilog


class ContinuousFn:
    """Base class; subclasses implement exact pointwise evaluation and set
    ``lc_level``, ``step_level`` and ``ring_level`` (module docstring) where
    they differ.  Level caps read ``step_level``, before any table exists."""

    ctx: PadicContext
    lc_level: int | None = None
    step_level = ring_level = 0

    def evaluate(self, x: PadicInt):
        raise NotImplementedError


class Polynomial(ContinuousFn):
    """f(z) = sum_j terms[j] z^j, stored as its nonzero terms {j: PadicInt}.

    ``coeffs`` is a coefficient list or a {degree: coefficient} dict.  A
    coefficient is dropped only when it is 0 to all N digits: a zero known
    to fewer digits stays, since every value of f is known to the least
    precision over the stored terms and the argument.  The zero polynomial
    has no terms.
    """

    def __init__(self, ctx: PadicContext, coeffs):
        self.ctx = ctx
        self.terms = {}
        for j, c in coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs):
            c = c if isinstance(c, PadicInt) else PadicInt(ctx, c)
            if not c.is_exact_zero():
                self.terms[j] = c
        self.lc_level = 0 if self.degree() == 0 else None

    def evaluate(self, x: PadicInt):
        prec = min([x.prec, *(c.prec for c in self.terms.values())])
        q = self.ctx.pows[prec]
        return PadicInt(self.ctx, sum(c.residue * pow(x.residue, j, q)
                                      for j, c in self.terms.items()), prec)

    def degree(self) -> int:
        return max(self.terms, default=0)


def monomial(ctx: PadicContext, degree: int) -> Polynomial:
    if degree < 0:
        raise ValueError(f"monomial degree must be >= 0, got {degree}")
    return Polynomial(ctx, {degree: 1})


def constant_fn(ctx: PadicContext, value) -> Polynomial:
    return Polynomial(ctx, [value])


class Character(ContinuousFn):
    """f(z) = zeta^z for a p-power root of unity zeta, a CyclotomicElem; at
    level 0 (zeta = 1) the scalar constant 1."""

    def __init__(self, zeta):
        self.ctx = zeta.ctx
        self.zeta = zeta
        self.level = self.lc_level = self.step_level = self.ring_level = \
            zeta.level

    def evaluate(self, x: PadicInt):
        v = cyclo_pow(self.zeta, x)
        return v if self.level else v.constant_part()


class LocallyConstant(ContinuousFn):
    """A function constant on residue classes mod p^level: ``table`` lists
    its p^level values (int, PadicInt or CyclotomicElem), or is a
    {class: value} dict of the classes where it may be nonzero.  Either is
    stored as a dict, classes reduced mod p^level, without any class given
    as the integer 0: it reads as one shared exact 0.  Every stored class
    counts as one where f may be nonzero, even if its value is 0 to N digits.
    """

    def __init__(self, ctx: PadicContext, level: int, table):
        if level < 0:
            raise ValueError("level must be >= 0")
        n = ctx.p ** level
        if not isinstance(table, dict):
            if len(table) != n:
                raise ValueError(f"level {level} requires {n} table entries")
            table = dict(enumerate(table))
        self.ctx = ctx
        self.level = self.lc_level = self.step_level = level
        self.table = {c % n: v if not isinstance(v, int) else PadicInt(ctx, v)
                      for c, v in table.items() if not isinstance(v, int) or v}
        self.zero = PadicInt(ctx, 0)

    def evaluate(self, x: PadicInt):
        if x.prec < self.level:
            raise PrecisionExhausted(
                f"argument known mod p^{x.prec}, table needs mod p^{self.level}"
            )
        return self.table.get(x.residue % self.ctx.p ** self.level, self.zero)


def indicator(ctx: PadicContext, level: int, cls: int) -> LocallyConstant:
    """Indicator function of the residue class cls + p^level Z_p: one entry."""
    return LocallyConstant(ctx, level, {cls: 1})


class MahlerSeries(ContinuousFn):
    """f(z) = sum_k c_k C(z, k), with a declared tail bound.

    ``coeffs`` is a coefficient list or a {k: c_k} dict; ``terms`` keeps
    every given c_k, zeros included, so {k: 1} is the binomial C(z, k).
    tail_valuation is the caller's promise that every coefficient beyond the
    stored ones has p-adic valuation >= tail_valuation; evaluations deduct
    precision accordingly.  A value is summed on integers, known to the
    least precision of x, the tail, every c_k and C(x, k): C(x, k) loses
    floor(log_p k) digits of x (``binomial_padic``), most at the largest
    stored k.
    """

    def __init__(self, ctx: PadicContext, coeffs, tail_valuation: int):
        self.ctx = ctx
        self.terms = {k: c if isinstance(c, PadicInt) else PadicInt(ctx, c)
                      for k, c in (coeffs.items() if isinstance(coeffs, dict)
                                   else enumerate(coeffs))}
        self.tail_valuation = tail_valuation

    def evaluate(self, x: PadicInt):
        r, top = x.residue, max(self.terms, default=0)
        prec = min([x.prec, self.tail_valuation,
                    *(c.prec for c in self.terms.values())])
        if top:
            prec = min(prec, x.prec - ilog(top, self.ctx.p))
        if prec <= 0:
            raise PrecisionExhausted("tail bound certifies no digits")
        return PadicInt(self.ctx, sum(c.residue * comb(r, k)
                                      for k, c in self.terms.items()), prec)


def binomial(ctx: PadicContext, k: int) -> ContinuousFn:
    """z |-> C(z, k): the constant 1 for k = 0, else the one-term Mahler
    series.  It takes p-integral values on Z_p although its monomial
    coefficients do not, and is the k-th member of the basis dual to the
    Amice coefficients."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return MahlerSeries(ctx, {k: 1}, ctx.N) if k else constant_fn(ctx, 1)


class Product(ContinuousFn):
    """Pointwise product of two functions."""

    def __init__(self, f: ContinuousFn, g: ContinuousFn):
        self.ctx = f.ctx
        self.f = f
        self.g = g
        a, b = f.lc_level, g.lc_level
        self.lc_level = None if a is None or b is None else max(a, b)
        self.step_level = max(f.step_level, g.step_level)
        self.ring_level = max(f.ring_level, g.ring_level)

    def evaluate(self, x: PadicInt):
        return self.f.evaluate(x) * self.g.evaluate(x)


class Scaled(ContinuousFn):
    """z |-> inner(mult * z).

    The public constructor scale_argument restricts mult to units; the class
    itself also serves the U_p/V_p compatibility checks where mult = p.
    """

    def __init__(self, inner: ContinuousFn, mult: PadicInt):
        self.ctx = inner.ctx
        self.inner = inner
        self.mult = mult
        self.lc_level, self.step_level, self.ring_level = \
            inner.lc_level, inner.step_level, inner.ring_level

    def evaluate(self, x: PadicInt):
        return self.inner.evaluate(self.mult * x)


class ZeroExtendedUnits(ContinuousFn):
    """inner restricted to Z_p^* and extended by zero across pZ_p."""

    def __init__(self, inner: ContinuousFn):
        self.ctx = inner.ctx
        self.inner = inner
        m = inner.lc_level
        self.lc_level = None if m is None else max(m, 1)
        self.step_level = max(inner.step_level, 1)
        self.ring_level = inner.ring_level

    def evaluate(self, x: PadicInt):
        if x.prec < 1:
            raise PrecisionExhausted("cannot decide unit-ness at precision 0")
        if x.residue % self.ctx.p == 0:
            return PadicInt(self.ctx, 0, x.prec)
        return self.inner.evaluate(x)


# -- module operations -------------------------------------------------------

def mahler_coeffs(f: ContinuousFn, K: int) -> list:
    """Coefficients c_k = (finite difference)^k f at 0, for k = 0..K.

    These satisfy f(n) = sum_k c_k C(n, k) for every integer 0 <= n <= K.
    Scalar values are differenced as residues mod p^N; c_k is known to the
    least precision among f(0), ..., f(k).  When f has level m (lc_level)
    and p^m <= K, every Delta^k f has period p^m, so only f(0), ...,
    f(p^m - 1) are read and differenced cyclically, in K p^m steps rather
    than K^2 / 2; from k = p^m - 1 on, c_k is known to the least precision
    over the period.  Differencing stops at an all-zero scalar row: every
    later row is zero too, so each later c_k is 0 at the precision above.
    """
    ctx, m = f.ctx, f.lc_level
    # wrap = 1: one period, differenced cyclically; 0: all K + 1 values
    wrap = int(m is not None and ctx.p ** m <= K)
    vals = values(f, range(ctx.p ** m if wrap else K + 1))
    out = []
    if not isinstance(vals, tuple):
        for _ in range(K + 1):
            out.append(vals[0])
            vals = [y - x for x, y in zip(vals, vals[1:] + vals[:wrap])]
        return out
    mod, (res, precs) = ctx.modulus, vals
    precs = list(accumulate(precs, min))
    precs += precs[-1:] * (K + 1 - len(precs))
    for k, e in enumerate(precs):
        if not any(res):  # every later row is zero too
            return out + [PadicInt(ctx, 0, d) for d in precs[k:]]
        out.append(PadicInt(ctx, res[0], e))
        res = [(y - x) % mod for x, y in zip(res, res[1:] + res[:wrap])]
    return out


def multiply(f: ContinuousFn, g: ContinuousFn) -> ContinuousFn:
    """Pointwise product, with polynomial*polynomial collapsed eagerly over
    the stored terms (``_terms``)."""
    if isinstance(f, Polynomial) and isinstance(g, Polynomial):
        out: dict = {}
        for i, a in _terms(f).items():
            for j, b in _terms(g).items():
                out[i + j] = out[i + j] + a * b if i + j in out else a * b
        return Polynomial(f.ctx, out)
    return Product(f, g)


def _terms(f: Polynomial) -> dict:
    """f's terms, or one exact zero for the zero polynomial: a product with
    it still sees the other factor, as 0 (c + O(p^e)) is a zero known to e
    digits."""
    return f.terms or {0: PadicInt(f.ctx, 0)}


def scale_argument(f: ContinuousFn, u: PadicInt) -> ContinuousFn:
    """z |-> f(u z) for a unit u."""
    if not u.is_unit():
        raise NotUnit(f"scale_argument needs a unit, got {u!r}")
    return Scaled(f, u)


# -- locally constant structure ----------------------------------------------

def poly_lc_terms(f: ContinuousFn) -> tuple[int, dict]:
    """Decompose f(z) = sum_j z^j g_j(z) with every g_j a level-m table.

    Returns (m, {j: table}); raises UnsupportedShape for functions with no
    exact polynomial-times-step presentation (Mahler series).
    """
    ctx = f.ctx
    if isinstance(f, Polynomial):
        return 0, {j: [c] for j, c in _terms(f).items()}
    if isinstance(f, Character):
        # a level above N, which no argument's digits resolve, is refused
        # by evaluate before the p^m-entry table, as each point refuses it
        if ctx.N < f.level:
            f.evaluate(PadicInt(ctx, 0))
        powers = zeta_powers(f.zeta, ctx.p ** f.level)
        return f.level, {0: powers if f.level else [powers[0].constant_part()]}
    if isinstance(f, LocallyConstant):
        return f.level, {0: [f.evaluate(PadicInt(ctx, c))
                             for c in range(ctx.p ** f.level)]}
    if isinstance(f, Product):
        m1, t1 = poly_lc_terms(f.f)
        m2, t2 = poly_lc_terms(f.g)
        n = range(ctx.p ** max(m1, m2))
        out: dict = {}
        for j1, tab1 in t1.items():
            tab1 = _row(tab1, n)
            for j2, tab2 in t2.items():
                t = [a * b for a, b in zip(tab1, _row(tab2, n))]
                j = j1 + j2
                out[j] = [a + b for a, b in zip(out[j], t)] if j in out else t
        return max(m1, m2), out
    if isinstance(f, Scaled):
        u = f.mult
        if u.prec < ctx.N:
            # evaluate caps some parts of inner(u z) at u's precision and
            # not others; a table cannot record which
            raise UnsupportedShape("argument scalings known to fewer than "
                                   "N digits are evaluated pointwise")
        m, terms = poly_lc_terms(f.inner)
        n = ctx.p ** m
        out = {}
        for j, tab in terms.items():
            shifted = [tab[(u.residue * c) % n] for c in range(n)]
            if j:
                uj = u ** j
                shifted = [uj * v for v in shifted]
            out[j] = shifted
        return m, out
    if isinstance(f, ZeroExtendedUnits):
        m_in, terms = poly_lc_terms(f.inner)
        m, zero = max(m_in, 1), PadicInt(ctx, 0)
        return m, {j: [v if c % ctx.p else zero for c, v in
                       enumerate(_row(tab, range(ctx.p ** m)))]
                   for j, tab in terms.items()}
    raise UnsupportedShape(f"cannot decompose {type(f).__name__}")


def values(f: ContinuousFn, xs):
    """[f(x) for x in xs] for integers x, as f.evaluate(PadicInt(ctx, x)).

    With len(xs) >= p^step_level the poly_lc_terms tables are built once and
    read by ``table_values``, with the residues, precisions and exception
    types of evaluate.  Shorter xs, functions without tables, and tables that
    fail to build (evaluate skips a bad root of unity on p Z_p when it is
    zero-extended) are evaluated point by point.
    """
    xs = xs if isinstance(xs, range) else list(xs)
    if not xs:
        return []
    ctx = f.ctx
    if ctx.p ** f.step_level <= len(xs):
        try:
            m, terms = poly_lc_terms(f)
        except PadicqError:
            pass
        else:
            return table_values(ctx, m, terms, xs)
    out = [f.evaluate(PadicInt(ctx, x)) for x in xs]
    if all(isinstance(v, PadicInt) for v in out):
        return [v.residue for v in out], [v.prec for v in out]
    return out


def _row(t: list, xs) -> list:
    """t[x mod len(t)] for each x in xs; xs = range(n), or a one-entry t,
    repeats t."""
    n, pm = len(xs), len(t)
    if pm == 1 or isinstance(xs, range) and xs.start == 0 and xs.step == 1:
        return (t * -(-n // pm))[:n]
    return [t[x % pm] for x in xs]


def table_values(ctx: PadicContext, m: int, terms: dict, xs):
    """sum_j x^j T_j[x mod p^m] for each x in xs, T = {j: T_j}: for scalar
    tables two flat int lists (res, prec), res[i] in [0, p^prec[i]) and
    prec[i] the least prec of the entries read; else a list of ring sums.

    Scalar rows are read cheaply where the input allows: xs = range(n)
    repeats one period of p^m entries, the degrees are combined by Horner's
    rule in x (a modular power only across a gap between degrees), tables
    known to all N digits are reduced mod p^N at once, and a lone constant
    term T_0 is already reduced.  Level-0 tables are constants c_j, so a
    polynomial is Horner over constant rows, and a monomial c z^j is one
    power row (xs itself for j = 1 when xs is a range inside [0, p^N)),
    scaled only when c != 1 and reduced once, to c's precision.
    """
    pm, mod, pows = ctx.p ** m, ctx.modulus, ctx.pows
    items = sorted(terms.items())
    if all(isinstance(v, PadicInt) for _, tab in items for v in tab):
        top = [min(tab[c].prec for _, tab in items) for c in range(pm)]
        if pm == 1 and len(items) == 1 and items[0][0]:  # c z^j, j >= 1
            (j, (c,)), = items
            xg = xs if j == 1 and isinstance(xs, range) and xs.step > 0 \
                and xs.start >= 0 and xs.stop <= mod else [pow(x, j, mod) for x in xs]
            q, prec = pows[c.prec], [c.prec] * len(xs)
            if c.residue != 1:
                return [c.residue * x % q for x in xg], prec
            return list(xg) if q == mod else [x % q for x in xg], prec
        prec, sums, low = _row(top, xs), None, 0
        for j, tab in reversed(items):
            r = _row([v.residue for v in tab], xs)
            if sums is not None:  # sums <- sums x^(low - j) + T_j
                xg = xs if low - j == 1 else [pow(x, low - j, mod) for x in xs]
                r = [(s * x + y) % mod for s, x, y in zip(sums, xg, r)]
            sums, low = r, j
        if low:
            sums = [pow(x, low, mod) * s for x, s in zip(xs, sums)]
        if len(items) > 1 or low:
            mods = repeat(mod) if min(top) == ctx.N else map(pows.__getitem__, prec)
            sums = [s % e for s, e in zip(sums, mods)]
        return sums, prec
    out = []
    for x in xs:
        c, acc = x % pm, None
        for j, tab in items:
            v = tab[c] if j == 0 else tab[c] * pow(x, j, mod)
            acc = v if acc is None else acc + v
        out.append(acc)
    return out


# -- two-variable functions ---------------------------------------------------

class TwoVarFn:
    """Finite tensor sum F(x, y) = sum_i f_i(x) g_i(y)."""

    def __init__(self, ctx: PadicContext, terms):
        self.ctx = ctx
        self.terms = list(terms)

    @classmethod
    def tensor(cls, f: ContinuousFn, g: ContinuousFn) -> "TwoVarFn":
        return cls(f.ctx, [(f, g)])


# -- JSON descriptors ---------------------------------------------------------

def fn_from_json(ctx: PadicContext, obj,
                 what: str = "a function descriptor") -> ContinuousFn:
    """Build a ContinuousFn from its JSON descriptor (dict or JSON string);
    ``what`` names the descriptor in the ConfigError of a malformed one.
    A "table" of level m lists p^m integer values (``LocallyConstant``)."""
    obj = json_object(obj, what)
    kind = obj.get("kind")
    if kind == "monomial":
        return monomial(ctx, json_int_field(obj, "degree", kind))
    if kind == "polynomial":
        return Polynomial(ctx, json_int_list(obj, "coeffs", kind))
    if kind == "constant":
        return constant_fn(ctx, json_int_field(obj, "value", kind))
    if kind in ("indicator", "table"):
        level = json_int_field(obj, "level", kind)
        if level < 0:
            raise ConfigError(f"{kind} field 'level' must be >= 0, got {level}")
        # no argument known to N digits resolves a class mod p^level
        if level > ctx.N:
            raise PrecisionExhausted(
                f"{kind} level {level} exceeds the precision N = {ctx.N}")
    if kind == "indicator":
        return indicator(ctx, level, json_int_field(obj, "class", kind))
    if kind == "table":
        return LocallyConstant(ctx, level, json_int_list(obj, "values", kind))
    if kind == "binomial":
        return binomial(ctx, json_int_field(obj, "k", kind))
    if kind == "mahler":
        return MahlerSeries(ctx, json_int_list(obj, "coeffs", kind),
                            json_int_field(obj, "tail_valuation", kind))
    if kind == "product":
        fs = [fn_from_json(ctx, o, f"an entry of {kind} field 'factors'")
              for o in json_list(obj, "factors", kind)]
        if not fs:
            raise ConfigError("a product needs at least one factor")
        out = fs[0]
        for g in fs[1:]:
            out = multiply(out, g)
        return out
    if kind in ("scaled", "zero_extended_units"):
        inner = fn_from_json(ctx, json_field(obj, "inner", kind),
                             f"{kind} field 'inner'")
    if kind == "scaled":
        return scale_argument(inner,
                              PadicInt(ctx, json_int_field(obj, "unit", kind)))
    if kind == "zero_extended_units":
        return ZeroExtendedUnits(inner)
    raise ValueError(f"unknown function kind {kind!r}")
