"""Truncated Witt vectors and the lifted zeta evaluation.

W_N over a ring R of characteristic p is the set R^N with addition and
multiplication given by universal integer polynomials; the length-N ghost
map (w_0, ..., w_{N-1}), w_n = sum p^i X_i^{p^(n-i)}, turns both laws into
the componentwise ones over any ring where p is invertible, which pins
the polynomials uniquely.  We generate them once per (p, N) by solving
the ghost recursion exactly over the integers, with polynomials held as
dicts from exponent tuples to int coefficients (every division by p^n is
checked to be exact), then freeze them to plain term lists evaluated
with ring callbacks.

The rings that matter here are a finite field (Witt vectors of integers,
Teichmuller representatives) and Laurent series at the infinite place
(values of the lifted zeta).  Both are handled through small adapter
objects rather than a class hierarchy.

Terms that vanish are skipped, not computed.  Every ring element has a
shape (valuation, precision): a Laurent series has its own, with
valuation precision + 1 when it is zero, and a field element is a series
of precision 0, of valuation 0, or 1 when it is zero.  When every value
has valuation >= 0 and precision >= the ring's precision P, as over a
field and in lifted_goss_eval, every term is known to precision exactly
P and, since valuations add over a field, has valuation sum e_i * v(x_i).
A term is then skipped exactly when p divides its coefficient or that
sum passes P; for other values no term is.  In lifted_goss_eval the same
rule stops the Teichmuller powers x^(p^i) once p * v(x) passes P.

Integers enter W_N through their Teichmuller digits: in W(F_p) = Z_p an
integer is k = sum p^i [a_i], where [a] = a^(p^(N-1)) mod p^N, so
a_0 = k mod p, then k <- (k - [a_0]) / p, and so on, in exact integer
arithmetic.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import textforms
from .errors import WittError
from .field import _is_prime
from .laurent import LaurentSeries, laurent_inv_pow
from .poly import power


class WittPolys(namedtuple("WittPolys", "p N add mul add_tail")):
    """Frozen structure polynomials for W_N in characteristic p.

    add[n], mul[n], add_tail[n] are tuples of (coeff, exponents) terms in
    the 2N variables x_0..x_{N-1}, y_0..y_{N-1}, sorted by exponent tuple
    in descending order, with no zero coefficients; add_tail[n] is add[n]
    minus its two linear leading terms x_n + y_n, and only involves
    variables of index below n.
    """

    __slots__ = ()


def _padd(a, b, k=1):
    """a + k*b for polynomials held as {exponent tuple: int coefficient}."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + k * c
    return {e: c for e, c in out.items() if c}


def _pmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ppow(a, k):
    """a**k for k >= 1."""
    return power(_pmul, a, a, k - 1)


def _freeze(poly):
    return tuple((poly[e], e) for e in sorted(poly, reverse=True))


@lru_cache(maxsize=None)
def witt_structure_polys(p, N):
    """Addition and multiplication polynomials for length-N Witt vectors."""
    if not _is_prime(p):
        raise WittError(f"{p} is not prime")
    if N < 1:
        raise WittError("Witt length must be at least 1")
    if N > 3 and not (p == 2 and N == 4):
        raise WittError(
            f"Witt length {N} over p={p} is out of the supported range "
            f"(lengths up to 3, or 4 when p = 2)")
    gens = [{tuple(int(j == i) for j in range(2 * N)): 1}
            for i in range(2 * N)]
    xs, ys = gens[:N], gens[N:]

    def ghost(vs, n):
        acc = {}
        for i in range(n + 1):
            acc = _padd(acc, _ppow(vs[i], p ** (n - i)), p**i)
        return acc

    def solve(targets):
        comps = []
        for n in range(N):
            num = targets[n]
            for i in range(n):
                num = _padd(num, _ppow(comps[i], p ** (n - i)), -p**i)
            if any(c % p**n for c in num.values()):
                raise WittError(
                    "structure polynomial has a fractional coefficient")
            comps.append({e: c // p**n for e, c in num.items()})
        return comps

    add_polys = solve([_padd(ghost(xs, n), ghost(ys, n)) for n in range(N)])
    mul_polys = solve([_pmul(ghost(xs, n), ghost(ys, n)) for n in range(N)])
    tails = [_padd(_padd(add_polys[n], xs[n], -1), ys[n], -1)
             for n in range(N)]
    return WittPolys(p, N, tuple(_freeze(a) for a in add_polys),
                     tuple(_freeze(m) for m in mul_polys),
                     tuple(_freeze(t) for t in tails))


# --- ring adapters ---


class FieldOps:
    """Witt coordinate ring: a finite field."""

    precision = 0

    def __init__(self, field):
        self.field = field
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

    def render(self, a):
        return textforms.format_terms(self.field, [(a, 0)])


class LaurentOps:
    """Witt coordinate ring: Laurent series at fixed precision."""

    def __init__(self, field, precision):
        self.field = field
        self.p = field.p
        self.precision = precision
        self.zero = LaurentSeries.zero(field, precision)
        self.one = LaurentSeries.one(field, precision)

    def from_int(self, k):
        return LaurentSeries.constant(self.field, self.field.from_int(k),
                                      self.precision)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def pow_(self, a, e):
        return a.pow_int(e)

    def shape(self, a):
        return a.valuation, a.precision

    def scale(self, a, k, prec):
        """k * a, known to precision prec (at most a's)."""
        K = self.field
        c = K.from_int(k)
        coeffs = a.coeffs if c == K.one else [K.mul(c, x) for x in a.coeffs]
        return LaurentSeries(K, a.valuation, coeffs, prec)

    def render(self, a):
        return str(a)


# --- vectors and arithmetic ---


class WittVector(namedtuple("WittVector", "p N coords")):
    __slots__ = ()

    def __new__(cls, p, N, coords):
        if len(coords) != N:
            raise WittError("coordinate count does not match the length")
        return super().__new__(cls, p, N, coords)


def witt_zero(ops, N):
    return WittVector(ops.p, N, (ops.zero,) * N)


def teichmuller(ops, x, N):
    """The multiplicative representative (x, 0, ..., 0)."""
    return WittVector(ops.p, N, (x,) + (ops.zero,) * (N - 1))


def _eval_terms(ops, terms, vals):
    """Sum of coeff * prod vals[i]**e over the terms, at the exact precision.

    The result equals evaluating each term as the ring constant coeff
    times one power after another and summing: shape, precision and all.
    Terms are skipped by the rule in the module docstring.  A kept term
    scales its first power by coeff at the precision its product with the
    constant would have, then multiplies in the further powers.
    Structure polynomials have no constant term.
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
                      tuple(_eval_terms(ops, polys.add[n], vals)
                            for n in range(a.N)))


def witt_mul(ops, a, b):
    polys = _pair_check(ops, a, b)
    vals = a.coords + b.coords
    return WittVector(a.p, a.N,
                      tuple(_eval_terms(ops, polys.mul[n], vals)
                            for n in range(a.N)))


def witt_neg(ops, a):
    """Solve a + y = 0 coordinate by coordinate.

    The n-th addition polynomial is x_n + y_n + tail(lower coordinates),
    so each y_n is forced once y_0 .. y_{n-1} are known.  Coordinatewise
    negation would do for odd p, but this route is uniform in p.
    """
    polys = witt_structure_polys(a.p, a.N)
    ys = []
    for n in range(a.N):
        vals = a.coords + tuple(ys) + (ops.zero,) * (a.N - n)
        t = _eval_terms(ops, polys.add_tail[n], vals)
        ys.append(ops.neg(ops.add(a.coords[n], t)))
    return WittVector(a.p, a.N, tuple(ys))


def witt_sub(ops, a, b):
    return witt_add(ops, a, witt_neg(ops, b))


def int_to_witt(ops, k, N):
    """The image of the integer k in W_N, from its Teichmuller digits.

    Only k mod p^N matters.  The digit a_i is k mod p; then k becomes
    (k - [a_i]) / p with [a] = a^(p^(N-1)) mod p^N, an exact division
    since [a] = a mod p.
    """
    p = ops.p
    pN = p ** N
    k %= pN
    digits = []
    for _ in range(N):
        a = k % p
        digits.append(ops.from_int(a))
        k = (k - pow(a, pN // p, pN)) // p
    return WittVector(p, N, tuple(digits))


def witt_text(ops, w):
    return "(" + "; ".join(ops.render(c) for c in w.coords) + ")"


# --- the lifted zeta ---


def check_lifted_args(p, bound, s, M, N):
    """Reject a lifted zeta request that no table of this bound can serve.

    These are the checks of lifted_goss_eval that do not read the table,
    so a caller can make them before it builds one.
    """
    witt_structure_polys(p, N)  # validates the (p, N) range up front
    if s < 0:
        raise WittError("the lifted zeta is defined for s >= 0 only")
    if M < 0:
        raise WittError(f"precision {M} must be nonnegative")
    if s == 0:
        if bound < 3:
            raise WittError("table bound must be at least 3 for s = 0")
        return
    need = -(-M // s)
    if bound < need:
        raise WittError(
            f"table bound {bound} is too small for s={s}, prec {M} "
            f"(need {need})")


def lifted_goss_eval(table, s, M, N):
    """Zeta value at s with coefficients lifted to length-N Witt vectors.

    For s >= 1 each ideal count B(n), taken mod p^N rather than mod p,
    multiplies the Teichmuller lift of n^-s; the result has Laurent
    series coordinates at precision M.  At s = 0 the series collapses to
    the integer sum of all counts: the top three degree blocks must
    vanish mod p^N (so the sum has stabilized), and the value is a Witt
    vector with field coordinates.  Negative s is not defined here.
    """
    K = table.field
    check_lifted_args(K.p, table.bound, s, M, N)
    fops = FieldOps(K)
    pN = K.p ** N
    if s == 0:
        blocks = table.block_sums()
        for d in range(table.bound - 2, table.bound + 1):
            if blocks[d] % pN:
                raise WittError(
                    f"degree block {d} is {blocks[d] % pN} mod p^{N}; "
                    f"the s=0 sum has not stabilized at this bound")
        return int_to_witt(fops, sum(blocks), N)
    lops = LaurentOps(K, M)
    acc = witt_zero(lops, N)
    for n, b in table.nonzero_upto(M // s, pN):
        bw = int_to_witt(fops, b, N)
        x = laurent_inv_pow(n, s, M)
        coords = []
        for i in range(N):
            coords.append(x.scale(bw.coords[i]))
            if i + 1 < N:
                # x^p is zero at precision M once p * v(x) passes M
                x = x.pow_int(K.p) if K.p * x.valuation <= M else lops.zero
        acc = witt_add(lops, acc, WittVector(K.p, N, tuple(coords)))
    return acc
