"""Exact representations of continuous functions on Z_p.

Every variant evaluates exactly at p-adic integer arguments.  A polynomial
is its nonzero terms {j: c_j}: a coefficient is dropped only when it is 0
to all N digits, a value is known to the least precision over the stored
terms, and z^j or a product of polynomials costs its number of terms, not
its degree.  Locally constant functions (step functions, p-power
characters and their products with polynomials) additionally decompose
into a canonical "sum of z^j times step function" form, f(z) = sum_j z^j
T_j[z mod p^m], which is what measure evaluation consumes.  The same tables evaluate f at
many integers at once (``values``): they are built once, with p^m entries,
and each value is then a sum of x^j T_j[x mod p^m] on plain integers, with
exactly the residue and precision ``evaluate`` gives.
Functions without such tables (Mahler series, binomials C(z, k) with k > 0,
argument scalings known to fewer than N digits) raise UnsupportedShape and
are evaluated point by point.  General continuous functions enter only as
Mahler series with an explicit, caller-declared tail valuation; the library
never guesses a modulus of continuity.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import comb

from .cyclotomic import CyclotomicElem, cyclo_pow, zeta_powers
from .errors import (ConfigError, NotUnit, PadicqError, PrecisionExhausted,
                     UnsupportedShape, json_field, json_int_field,
                     json_int_list, json_list, json_object)
from .padic import PadicContext, PadicInt, binomial_padic, ilog


class ContinuousFn:
    """Base class; subclasses implement exact pointwise evaluation."""

    ctx: PadicContext

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


class Binomial(ContinuousFn):
    """The binomial coefficient function z |-> C(z, k).

    Takes p-integral values on Z_p even though its monomial coefficients do
    not; it is the k-th member of the basis dual to the Amice coefficients.
    """

    def __init__(self, ctx: PadicContext, k: int):
        if k < 0:
            raise ValueError("k must be >= 0")
        self.ctx = ctx
        self.k = k

    def evaluate(self, x: PadicInt):
        return binomial_padic(x, self.k)


class Character(ContinuousFn):
    """f(z) = zeta^z for a p-power root of unity zeta; at level 0 (zeta = 1)
    the scalar constant 1."""

    def __init__(self, zeta: CyclotomicElem):
        self.ctx = zeta.ctx
        self.zeta = zeta
        self.level = zeta.level

    def evaluate(self, x: PadicInt):
        v = cyclo_pow(self.zeta, x)
        return v if self.level else v.constant_part()


class LocallyConstant(ContinuousFn):
    """A function constant on residue classes mod p^level, given by a table.

    table[c] is the value on c + p^level Z_p; the table has exactly p^level
    entries of scalars (PadicInt or CyclotomicElem).
    """

    def __init__(self, ctx: PadicContext, level: int, table):
        if level < 0:
            raise ValueError("level must be >= 0")
        n = ctx.p ** level
        table = [v if not isinstance(v, int) else PadicInt(ctx, v) for v in table]
        if len(table) != n:
            raise ValueError(f"level {level} requires {n} table entries")
        self.ctx = ctx
        self.level = level
        self.table = table

    def evaluate(self, x: PadicInt):
        if x.prec < self.level:
            raise PrecisionExhausted(
                f"argument known mod p^{x.prec}, table needs mod p^{self.level}"
            )
        return self.table[x.residue % (self.ctx.p ** self.level)]


def indicator(ctx: PadicContext, level: int, cls: int) -> LocallyConstant:
    """Indicator function of the residue class cls + p^level Z_p."""
    n = ctx.p ** level
    table = [PadicInt(ctx, 1 if c == cls % n else 0) for c in range(n)]
    return LocallyConstant(ctx, level, table)


class MahlerSeries(ContinuousFn):
    """f(z) = sum_k coeffs[k] C(z, k), with a declared tail bound.

    tail_valuation is the caller's promise that every coefficient beyond the
    stored ones has p-adic valuation >= tail_valuation; evaluations deduct
    precision accordingly.  A value is summed on integers, known to the
    least precision of x, the tail, every c_k and C(x, k): C(x, k) loses
    floor(log_p k) digits of x (``binomial_padic``), most at the last k.
    """

    def __init__(self, ctx: PadicContext, coeffs, tail_valuation: int):
        self.ctx = ctx
        self.coeffs = [c if isinstance(c, PadicInt) else PadicInt(ctx, c)
                       for c in coeffs]
        self.tail_valuation = tail_valuation

    def evaluate(self, x: PadicInt):
        cs, r = self.coeffs, x.residue
        prec = min([x.prec, self.tail_valuation, *(c.prec for c in cs)])
        if len(cs) > 1:
            prec = min(prec, x.prec - ilog(len(cs) - 1, self.ctx.p))
        if prec <= 0:
            raise PrecisionExhausted("tail bound certifies no digits")
        return PadicInt(self.ctx, sum(c.residue * comb(r, k)
                                      for k, c in enumerate(cs)), prec)


class Product(ContinuousFn):
    """Pointwise product of two functions."""

    def __init__(self, f: ContinuousFn, g: ContinuousFn):
        self.ctx = f.ctx
        self.f = f
        self.g = g

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

    def evaluate(self, x: PadicInt):
        return self.inner.evaluate(self.mult * x)


class ZeroExtendedUnits(ContinuousFn):
    """inner restricted to Z_p^* and extended by zero across pZ_p."""

    def __init__(self, inner: ContinuousFn):
        self.ctx = inner.ctx
        self.inner = inner

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
    over the period.
    """
    ctx, m = f.ctx, lc_level(f)
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
    for e in precs + precs[-1:] * (K + 1 - len(precs)):
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

def lc_level(f: ContinuousFn) -> int | None:
    """Smallest level at which f is known to factor through Z/p^level.

    None means "not known locally constant" (honest polynomials, Mahler
    series); a Polynomial of degree 0 is locally constant of level 0.
    """
    if isinstance(f, Polynomial):
        return 0 if f.degree() == 0 else None
    if isinstance(f, Binomial):
        return 0 if f.k == 0 else None
    if isinstance(f, Character):
        return f.level
    if isinstance(f, LocallyConstant):
        return f.level
    if isinstance(f, Product):
        a, b = lc_level(f.f), lc_level(f.g)
        return max(a, b) if a is not None and b is not None else None
    if isinstance(f, Scaled):
        return lc_level(f.inner)
    if isinstance(f, ZeroExtendedUnits):
        inner = lc_level(f.inner)
        return max(inner, 1) if inner is not None else None
    return None


def ring_valued(f: ContinuousFn) -> int:
    """The deepest level of a character factor of f, scaled or zero-extended,
    0 for none: f's values are ring elements when it is >= 1.  Follows the
    recursion of lc_level."""
    if isinstance(f, Character):
        return f.level
    if isinstance(f, Product):
        return max(ring_valued(f.f), ring_valued(f.g))
    if isinstance(f, (Scaled, ZeroExtendedUnits)):
        return ring_valued(f.inner)
    return 0


def as_table(f: ContinuousFn, level: int) -> list:
    """Value table of f on residues mod p^level.

    Faithful only when f is locally constant of level <= level; it is the
    caller's job to check lc_level first.  A character's table is its
    power table (``poly_lc_terms``), repeated.
    """
    n = f.ctx.p ** level
    if isinstance(f, Character):
        return _row(poly_lc_terms(f)[1][0], range(n))
    return [f.evaluate(PadicInt(f.ctx, c)) for c in range(n)]


def _lift_table(table: list, ctx: PadicContext, frm: int, to: int) -> list:
    return table if frm == to else _row(table, range(ctx.p ** to))


def poly_lc_terms(f: ContinuousFn) -> tuple[int, dict]:
    """Decompose f(z) = sum_j z^j g_j(z) with every g_j a level-m table.

    Returns (m, {j: table}); raises UnsupportedShape for functions with no
    exact polynomial-times-step presentation (Mahler series, binomials of
    positive index).
    """
    ctx = f.ctx
    if isinstance(f, Polynomial):
        return 0, {j: [c] for j, c in _terms(f).items()}
    if isinstance(f, Binomial):
        if f.k == 0:
            return 0, {0: [PadicInt(ctx, 1)]}
        raise UnsupportedShape("binomial functions have no p-integral "
                               "polynomial presentation")
    if isinstance(f, Character):
        # a level above N, which no argument's digits resolve, is refused
        # by evaluate before the p^m-entry table, as each point refuses it
        if ctx.N < f.level:
            f.evaluate(PadicInt(ctx, 0))
        powers = zeta_powers(f.zeta, ctx.p ** f.level)
        return f.level, {0: powers if f.level else [powers[0].constant_part()]}
    if isinstance(f, LocallyConstant):
        return f.level, {0: as_table(f, f.level)}
    if isinstance(f, Product):
        m1, t1 = poly_lc_terms(f.f)
        m2, t2 = poly_lc_terms(f.g)
        m = max(m1, m2)
        out: dict = {}
        for j1, tab1 in t1.items():
            tab1 = _lift_table(tab1, ctx, m1, m)
            for j2, tab2 in t2.items():
                t = [a * b for a, b in zip(tab1, _lift_table(tab2, ctx, m2, m))]
                j = j1 + j2
                out[j] = [a + b for a, b in zip(out[j], t)] if j in out else t
        return m, out
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
                       enumerate(_lift_table(tab, ctx, m_in, m))]
                   for j, tab in terms.items()}
    raise UnsupportedShape(f"cannot decompose {type(f).__name__}")


def values(f: ContinuousFn, xs):
    """[f(x) for x in xs] for integers x, as f.evaluate(PadicInt(ctx, x)).

    The poly_lc_terms tables are built once and read by ``table_values``;
    residues, precisions and raised exception types equal those of
    evaluate.  Functions without tables, or whose tables fail to build
    (evaluate skips a bad root of unity on p Z_p when it is zero-extended),
    are evaluated point by point.
    """
    xs = xs if isinstance(xs, range) else list(xs)
    if not xs:
        return []
    ctx = f.ctx
    try:
        m, terms = poly_lc_terms(f)
    except PadicqError:
        out = [f.evaluate(PadicInt(ctx, x)) for x in xs]
        if all(isinstance(v, PadicInt) for v in out):
            return [v.residue for v in out], [v.prec for v in out]
        return out
    return table_values(ctx, m, terms, xs)


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
    ``what`` names the descriptor in the ConfigError of a malformed one."""
    obj = json_object(obj, what)
    kind = obj.get("kind")
    if kind == "monomial":
        return monomial(ctx, json_int_field(obj, "degree", kind))
    if kind == "polynomial":
        return Polynomial(ctx, json_int_list(obj, "coeffs", kind))
    if kind == "constant":
        return constant_fn(ctx, json_int_field(obj, "value", kind))
    if kind in ("indicator", "character"):
        level = json_int_field(obj, "level", kind)
        if level < 0:
            raise ConfigError(f"{kind} field 'level' must be >= 0, got {level}")
    if kind == "indicator":
        return indicator(ctx, level, json_int_field(obj, "class", kind))
    if kind == "character":
        power = json_int_field(obj, "power", kind, default=1)
        return Character(CyclotomicElem.zeta_power(ctx, level, power))
    if kind == "binomial":
        return Binomial(ctx, json_int_field(obj, "k", kind))
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
