"""Oracles for the Witt structure polynomials, Witt arithmetic and the
lifted zeta.

gosslift.witt computes the lifted zeta from ghost components and never
adds two Witt vectors; the arithmetic it used before lives here, kept as
it was, as the oracle the ghost route must match.

`sympy_structure_polys` is the derivation gosslift.witt used to run
through sympy, kept as it was: it solves the ghost recursion with sympy
expansion and freezes each component with sympy's `Poly.terms()`.  The
package solves the same recursion with plain int dicts, so the two must
agree term for term.  `add_tails` derives from the package's addition
polynomials the tails that negation solves against.  `witt_structure_exprs`
turns the package's frozen polynomials back into sympy expressions for the
ghost-identity checks.

`series_add`, `series_mul`, `series_pow`, `laurent_inv_pow` and their
neighbours are the Laurent series arithmetic the package used to carry,
with `coefficient` to read a series and `LaurentError` for what the
arithmetic refuses.  They take and return the package's printed record,
`gosslift.witt.LaurentSeries`: `dense` reads it as (valuation,
coefficients) and `series` builds it back, dropping what lies past the
precision.  Arithmetic tracks precision conservatively: a sum is known
to the smaller of the two precisions, a product additionally loses
whatever a negative valuation amplifies.

`FieldRing` and `LaurentRing` add ring arithmetic to the package's
coordinate rings.  The package holds a Witt vector as the tuple of its
coordinates; the arithmetic here works on `WittVector`, a record that
also carries p and the length N, so mismatched vectors are refused, and
`int_vector` wraps the package's `int_to_witt` digits in it.
`witt_add`, `witt_mul`, `witt_neg` and `witt_sub`
evaluate the structure polynomials with `skip_eval_terms`, which skips
terms that vanish at the working precision (see its docstring); that is
the Witt arithmetic gosslift.witt used to run.  `eval_terms` is the
older term-by-term evaluator: every term starts from its integer
coefficient as a ring constant and pays one product per variable power.
`oracle_add`, `oracle_mul`, `oracle_neg` and `oracle_lifted_goss_eval`
run on top of it, with integers lifted by double-and-add, so the
skipping arithmetic and the package's ghost route must both equal their
results, precision included.

`oracle_ghost_sum` is the per-entry ghost sum gosslift.witt ran before it
summed the counts of each coefficient-prefix class: one unranked
polynomial and one series for every entry that is nonzero mod p^j.
"""

from collections import namedtuple
from functools import lru_cache

import sympy

from gosslift import poly
from gosslift.errors import GossliftError, WittError
from gosslift.witt import (FieldOps, GaloisRing, LaurentOps, LaurentSeries,
                           int_to_witt, laurent, witt_structure_polys)
from gosslift.zeta import unrank


def _freeze(expr, gens):
    poly = sympy.Poly(expr, *gens, domain="QQ")
    out = []
    for exps, coeff in poly.terms():
        if coeff.q != 1:
            raise WittError("structure polynomial has a fractional coefficient")
        out.append((int(coeff), tuple(int(e) for e in exps)))
    return tuple(out)


SympyPolys = namedtuple("SympyPolys", "add mul add_tail")


def sympy_structure_polys(p, N):
    """Structure polynomials of W_N in characteristic p, derived by sympy."""
    xs = sympy.symbols(f"x:{N}")
    ys = sympy.symbols(f"y:{N}")
    gens = xs + ys

    def ghost(vs, n):
        return sum(p**i * vs[i] ** (p ** (n - i)) for i in range(n + 1))

    def solve(targets):
        comps = []
        for n in range(N):
            lower = sum(p**i * comps[i] ** (p ** (n - i)) for i in range(n))
            num = sympy.expand(targets[n] - lower)
            # exactness of this division is rechecked when freezing
            comps.append(sympy.expand(num / sympy.Integer(p) ** n))
        return comps

    add_exprs = solve([ghost(xs, n) + ghost(ys, n) for n in range(N)])
    mul_exprs = solve([ghost(xs, n) * ghost(ys, n) for n in range(N)])
    add = tuple(_freeze(e, gens) for e in add_exprs)
    mul = tuple(_freeze(e, gens) for e in mul_exprs)
    tails = tuple(_freeze(add_exprs[n] - xs[n] - ys[n], gens)
                  for n in range(N))
    return SympyPolys(add, mul, tails)


@lru_cache(maxsize=None)
def add_tails(p, N):
    """add[n] of witt_structure_polys(p, N) less its two linear terms
    x_n + y_n: the rest involves only variables of index below n."""
    def linear(i):
        return (1, tuple(int(j == i) for j in range(2 * N)))
    add = witt_structure_polys(p, N).add
    return tuple(tuple(t for t in add[n] if t not in (linear(n), linear(N + n)))
                 for n in range(N))


def witt_structure_exprs(p, N):
    """Sympy form of the package's structure data, for ghost checks."""
    polys = witt_structure_polys(p, N)
    xs = sympy.symbols(f"x:{N}")
    ys = sympy.symbols(f"y:{N}")
    gens = xs + ys

    def unfreeze(terms):
        return sympy.Add(*[
            coeff * sympy.Mul(*[g**e for g, e in zip(gens, exps) if e])
            for coeff, exps in terms])

    return {
        "xs": xs,
        "ys": ys,
        "add": [unfreeze(t) for t in polys.add],
        "mul": [unfreeze(t) for t in polys.mul],
    }


# --- Laurent series arithmetic ---


class LaurentError(GossliftError):
    """Truncated Laurent series precision or domain failures."""

    tag = "laurent"


def dense(x):
    """(valuation, coefficients) of the series x: coefficient i is that of
    T^-(valuation + i).  The zero series has valuation precision + 1."""
    if not x.terms:
        return x.precision + 1, ()
    v = -x.terms[0][1]
    coeffs = [x.field.zero] * (1 - v - x.terms[-1][1])
    for c, e in x.terms:
        coeffs[-e - v] = c
    return v, tuple(coeffs)


def series(K, v, coeffs, prec):
    """The series sum coeffs[i] * T^-(v + i) over K at precision prec,
    with the coefficients past the precision dropped."""
    return laurent(K, -v, coeffs[:max(prec - v + 1, 0)], prec)


def coefficient(x, j):
    """Coefficient of T^-j in the series x, for j up to its precision."""
    if j > x.precision:
        raise LaurentError(f"coefficient T^-{j} is beyond precision {x.precision}")
    return next((c for c, e in x.terms if e == -j), x.field.zero)


def _check(a, b):
    if not isinstance(b, LaurentSeries) or b.field != a.field:
        raise LaurentError("mixed coefficient fields in Laurent arithmetic")


def series_add(a, b):
    _check(a, b)
    K = a.field
    prec = min(a.precision, b.precision)
    (va, ca), (vb, cb) = dense(a), dense(b)
    if not ca:
        return series(K, vb, cb, prec)
    if not cb:
        return series(K, va, ca, prec)
    v = min(va, vb)
    out = [K.zero] * (prec - v + 1)
    for vx, cx in ((va, ca), (vb, cb)):
        for i, c in enumerate(cx):
            j = vx + i - v
            if j < len(out):
                out[j] = K.add(out[j], c)
    return series(K, v, out, prec)


def series_neg(a):
    K = a.field
    v, coeffs = dense(a)
    return series(K, v, [K.neg(c) for c in coeffs], a.precision)


def series_sub(a, b):
    return series_add(a, series_neg(b))


def series_mul(a, b):
    _check(a, b)
    K = a.field
    (va, ca), (vb, cb) = dense(a), dense(b)
    prec = min(a.precision, b.precision, va + b.precision, vb + a.precision)
    if not ca or not cb:
        return series(K, 0, (), prec)
    width = prec - (va + vb) + 1
    if width <= 0:
        return series(K, 0, (), prec)
    out = [K.zero] * width
    add, mul, z = K.add, K.mul, K.zero
    for i, x in enumerate(ca):
        if i >= width:
            break
        if x == z:
            continue
        for j, y in enumerate(cb[:width - i]):
            if y != z:
                out[i + j] = add(out[i + j], mul(x, y))
    return series(K, va + vb, out, prec)


def series_scale(a, element):
    K = a.field
    if element == K.zero:
        return series(K, 0, (), a.precision)
    v, coeffs = dense(a)
    return series(K, v, [K.mul(element, c) for c in coeffs], a.precision)


def series_pow(a, e):
    if e < 0:
        raise LaurentError("negative powers need an explicit expansion")
    if e == 0:
        return series(a.field, 0, (a.field.one,), a.precision)
    # from the base, not from a 1 that costs a product and precision
    return poly.power(series_mul, a, a, e - 1)


def laurent_inv_pow(K, n, j, M):
    """Expansion of n^-j at 1/T to precision M, for monic n over K and j >= 1.

    The result has valuation exactly deg(n) * j and leading coefficient 1.
    """
    if j < 1:
        raise LaurentError(f"exponent {j} must be at least 1")
    D = poly.pdeg(n) * j
    if M < D:
        raise LaurentError(
            f"precision {M} cannot hold the leading term T^-{D} of the expansion")
    denom = poly.ppow(K, n, j)
    add, mul, neg, z = K.add, K.mul, K.neg, K.zero
    c = [z] * (M - D + 1)
    c[0] = K.one
    for t in range(1, M - D + 1):
        s = z
        for i in range(max(0, D - t), D):
            e = denom[i]
            if e != z:
                s = add(s, mul(e, c[i + t - D]))
        c[t] = neg(s)
    return series(K, D, c, M)


# --- ring arithmetic on the package's coordinate rings ---


class FieldRing(FieldOps):
    """A finite field as a Witt coordinate ring."""

    precision = 0

    def __init__(self, field):
        super().__init__(field)
        self.p = field.p
        self.zero = field.zero
        self.one = field.one

    def from_int(self, k):
        return self.field.from_int(k)

    def add(self, a, b):
        return self.field.add(a, b)

    def mul(self, a, b):
        return self.field.mul(a, b)

    def neg(self, a):
        return self.field.neg(a)

    def pow_(self, a, e):
        return self.field.pow_(a, e)

    def shape(self, a):
        """(valuation, precision): an element is a series of precision 0."""
        return (0, 0) if a != self.zero else (1, 0)

    def scale(self, a, k, prec):
        """k * a; field elements are exact, so prec changes nothing."""
        return self.field.mul(self.field.from_int(k), a)


class LaurentRing(LaurentOps):
    """Laurent series at fixed precision as a Witt coordinate ring."""

    def __init__(self, field, precision):
        super().__init__(field, precision)
        self.p = field.p
        self.zero = series(field, 0, (), precision)
        self.one = series(field, 0, (field.one,), precision)

    def from_int(self, k):
        return series(self.field, 0, (self.field.from_int(k),), self.precision)

    def add(self, a, b):
        return series_add(a, b)

    def mul(self, a, b):
        return series_mul(a, b)

    def neg(self, a):
        return series_neg(a)

    def pow_(self, a, e):
        return series_pow(a, e)

    def shape(self, a):
        return dense(a)[0], a.precision

    def scale(self, a, k, prec):
        """k * a, known to precision prec (at most a's)."""
        K = self.field
        c = K.from_int(k)
        v, coeffs = dense(a)
        if c != K.one:
            coeffs = [K.mul(c, x) for x in coeffs]
        return series(K, v, coeffs, prec)


# --- Witt arithmetic through the structure polynomials ---


class WittVector(namedtuple("WittVector", "p N coords")):
    """A length-N Witt vector in characteristic p, by its coordinates."""

    __slots__ = ()

    def __new__(cls, p, N, coords):
        if len(coords) != N:
            raise WittError("coordinate count does not match the length")
        return super().__new__(cls, p, N, coords)


def int_vector(ops, k, N):
    """The integer k in W_N over the field of ops, from int_to_witt."""
    return WittVector(ops.p, N, int_to_witt(ops.field, k, N))


def witt_zero(ops, N):
    return WittVector(ops.p, N, (ops.zero,) * N)


def teichmuller(ops, x, N):
    """The multiplicative representative (x, 0, ..., 0)."""
    return WittVector(ops.p, N, (x,) + (ops.zero,) * (N - 1))


def skip_eval_terms(ops, terms, vals):
    """Sum of coeff * prod vals[i]**e over the terms, at the exact precision.

    The result equals eval_terms's: shape, precision and all.  Every ring
    element has a shape (valuation, precision): a Laurent series has its
    own, with valuation precision + 1 when it is zero, and a field element
    is a series of precision 0, of valuation 0, or 1 when it is zero.
    When every value has valuation >= 0 and precision >= the ring's
    precision P, every term is known to precision exactly P and, since
    valuations add over a field, has valuation sum e_i * v(x_i).  A term
    is then skipped exactly when p divides its coefficient or that sum
    passes P; for other values no term is.  A kept term scales its first
    power by coeff at the precision its product with the constant would
    have, then multiplies in the further powers.  Structure polynomials
    have no constant term.
    """
    P = ops.precision
    vs, precs = zip(*map(ops.shape, vals))
    exact = min(vs) >= 0 and min(precs) >= P
    powers = {}

    def power(i, e):
        got = powers.get((i, e))
        if got is None:
            got = ops.pow_(vals[i], e)
            powers[(i, e)] = got
        return got

    acc = ops.zero
    for coeff, exps in terms:
        if exact and (coeff % ops.p == 0
                      or sum(e * v for e, v in zip(exps, vs)) > P):
            continue
        t = None
        for i, e in enumerate(exps):
            if e:
                if t is None:
                    t = power(i, e)
                    v, prec = ops.shape(t)
                    t = ops.scale(t, coeff, min(P, prec, P + v))
                else:
                    t = ops.mul(t, power(i, e))
        acc = ops.add(acc, t)
    return acc


def _pair_check(ops, a, b):
    if a.p != b.p or a.N != b.N:
        raise WittError("mismatched Witt vectors")
    if a.p != ops.p:
        raise WittError("vector characteristic does not match the ring")
    return witt_structure_polys(a.p, a.N)


def witt_add(ops, a, b):
    polys = _pair_check(ops, a, b)
    vals = a.coords + b.coords
    return WittVector(a.p, a.N,
                      tuple(skip_eval_terms(ops, polys.add[n], vals)
                            for n in range(a.N)))


def witt_mul(ops, a, b):
    polys = _pair_check(ops, a, b)
    vals = a.coords + b.coords
    return WittVector(a.p, a.N,
                      tuple(skip_eval_terms(ops, polys.mul[n], vals)
                            for n in range(a.N)))


def witt_neg(ops, a):
    """Solve a + y = 0 coordinate by coordinate.

    The n-th addition polynomial is x_n + y_n + tail(lower coordinates),
    so each y_n is forced once y_0 .. y_{n-1} are known.  Coordinatewise
    negation would do for odd p, but this route is uniform in p.
    """
    tails = add_tails(a.p, a.N)
    ys = []
    for n in range(a.N):
        vals = a.coords + tuple(ys) + (ops.zero,) * (a.N - n)
        t = skip_eval_terms(ops, tails[n], vals)
        ys.append(ops.neg(ops.add(a.coords[n], t)))
    return WittVector(a.p, a.N, tuple(ys))


def witt_sub(ops, a, b):
    return witt_add(ops, a, witt_neg(ops, b))


# --- the term-by-term oracle ---


def eval_terms(ops, terms, vals):
    powers = {}

    def power(i, e):
        got = powers.get((i, e))
        if got is None:
            got = ops.pow_(vals[i], e)
            powers[(i, e)] = got
        return got

    acc = ops.zero
    for coeff, exps in terms:
        t = ops.from_int(coeff)
        for i, e in enumerate(exps):
            if e:
                t = ops.mul(t, power(i, e))
        acc = ops.add(acc, t)
    return acc


def oracle_add(ops, a, b):
    polys = witt_structure_polys(a.p, a.N)
    vals = a.coords + b.coords
    return WittVector(a.p, a.N, tuple(eval_terms(ops, polys.add[n], vals)
                                      for n in range(a.N)))


def oracle_mul(ops, a, b):
    polys = witt_structure_polys(a.p, a.N)
    vals = a.coords + b.coords
    return WittVector(a.p, a.N, tuple(eval_terms(ops, polys.mul[n], vals)
                                      for n in range(a.N)))


def oracle_neg(ops, a):
    tails = add_tails(a.p, a.N)
    ys = []
    for n in range(a.N):
        vals = a.coords + tuple(ys) + (ops.zero,) * (a.N - n)
        t = eval_terms(ops, tails[n], vals)
        ys.append(ops.neg(ops.add(a.coords[n], t)))
    return WittVector(a.p, a.N, tuple(ys))


def oracle_int_to_witt(ops, k, N):
    """k copies of the Witt unit, summed by binary double-and-add."""
    k %= ops.p ** N
    acc = witt_zero(ops, N)
    one = teichmuller(ops, ops.one, N)
    for ch in bin(k)[2:]:
        acc = oracle_add(ops, acc, acc)
        if ch == "1":
            acc = oracle_add(ops, acc, one)
    return acc


def oracle_lifted_goss_eval(table, s, M, N, add=oracle_add):
    """The lifted zeta for s >= 1 as a sum of Witt vectors, one per entry.

    Each entry's vector is the Teichmuller lift of n^-s times the integer
    B(n), lifted by double-and-add, with every power computed.  With
    add=oracle_add every term of every sum is computed too; with
    add=witt_add the sums skip the terms that vanish, which is the loop
    gosslift.witt ran before it worked with ghost components.
    """
    K = table.field
    lops = LaurentRing(K, M)
    acc = witt_zero(lops, N)
    lifts = {}
    for n, b in table.entries.items():
        b %= K.p ** N
        if poly.pdeg(n) * s > M or b == 0:
            continue
        if b not in lifts:
            lifts[b] = oracle_int_to_witt(FieldRing(K), b, N)
        x = laurent_inv_pow(K, n, s, M)
        coords = []
        for i in range(N):
            coords.append(series_scale(x, lifts[b].coords[i]))
            if i + 1 < N:
                x = series_pow(x, K.p)
        acc = add(lops, acc, WittVector(K.p, N, tuple(coords)))
    return acc


# --- the ghost sum, one series per entry ---


def oracle_ghost_sum(table, e, M, j):
    """witt.ghost_sum with one series for each entry of the table.

    Each rank of degree at most M // e whose count is nonzero mod p^j is
    made into its polynomial n, and n~^-e = u^(de) * g~(u)^-e is expanded
    from n's own top coefficients, to length L = M + 1 - de.
    """
    R = GaloisRing(table.field, j)
    P, lifts = R.P, R.lifts
    acc = [[0] * R.m for _ in range(M + 1)]
    for r in range(table.starts[M // e + 1]):
        b = table.counts[r]
        if b % P == 0:
            continue
        n = unrank(table.field, r)
        v = poly.pdeg(n) * e
        L = M + 1 - v
        g = [lifts[c] for c in reversed(n[-L:])]
        for t, c in enumerate(R.series_inv(R.series_pow(g, e, L), L)):
            row = acc[v + t]
            for i, x in enumerate(c):
                row[i] += b * x
    return [tuple(x % P for x in row) for row in acc]
