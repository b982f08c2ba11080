"""Truncated Witt vectors and the lifted zeta evaluation.

W_N over a ring R of characteristic p is the set R^N with addition and
multiplication given by universal integer polynomials; the length-N ghost
map (w_0, ..., w_{N-1}), w_k = sum p^i X_i^(p^(k-i)), turns both laws into
the componentwise ones over any ring where p is not a zero divisor, which
pins the polynomials uniquely.  witt_structure_polys solves that ghost
recursion exactly over the integers, with polynomials held as dicts from
exponent tuples to int coefficients (every division by p^k is checked to
be exact).  Nothing in the package calls it: the lifted zeta works with
ghost components directly.

The lifted zeta at s >= 1 is the sum over the table of v_n = [n^-s] * B(n)
in W_N(F_q[[u]]), u = 1/T: the Teichmuller lift of n^-s times the integer
B(n).  Because the ghost map is a ring homomorphism, the sum is computed
in a p-torsion-free lift A = GR[[u]] of F_q[[u]] instead, where
GR = (Z/p^N)[t]/(g~) is the Galois ring over the integer lift g~ of the
field modulus (Z/p^N itself when q = p).  The k-th ghost component of
[x~] * B is B * x~^(p^k), so the sum has ghost components

    w_k = sum_n B(n) * n~^(-s p^k),

with n~ the lift of n; ghost_sum computes each one, with one series for
each class of n whose terms agree through u^M.  Any lift works, and w_k
is needed only mod p^(k+1): a = b mod p^j implies a^(p^i) = b^(p^i)
mod p^(j+i).  The same congruence gives the coordinates from one ghost
inversion,

    S_k = (w_k - sum_{i<k} p^i * S~_i^(p^(k-i))) / p^k  mod p,

where S~_i is coordinate i with its F_p digits read as integers.  The
division by p^k must be exact in every coefficient; when it is not, the
evaluation raises WittError, so every value checks itself.  All series
are power series in u truncated after u^M, so every coordinate is known
to precision exactly M; it is kept as the record it prints (LaurentSeries),
as goss values are, and nothing in the package does arithmetic on it.

At s = 0 the sum k of all counts mod p^N (stopped_total, goss_eval's
read mod p) enters W_N by its Teichmuller digits: k = sum p^i [a_i],
[a] = a^(p^(N-1)) mod p^N, so a_0 = k mod p, k <- (k - [a_0]) / p, and
so on.  A lifted value is the tuple of its N coordinates, as it prints.
"""

import itertools
from collections import namedtuple
from functools import lru_cache

from . import textforms
from .errors import WittError
from .field import _is_prime
from .poly import power

WITT_LEN_BOUND = 64  # the longest Witt vectors a lifted zeta may use
# the largest precision M of a zeta value at s >= 1, goss or lifted: every
# evaluation holds series of M + 1 coefficients
PREC_BOUND = 2 ** 18


class WittPolys(namedtuple("WittPolys", "add mul")):
    """Frozen structure polynomials for W_N in characteristic p.

    add[n] and mul[n] are tuples of (coeff, exponents) terms in the 2N
    variables x_0..x_{N-1}, y_0..y_{N-1}, sorted by exponent tuple in
    descending order, with no zero coefficients.
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
    return WittPolys(tuple(_freeze(a) for a in add_polys),
                     tuple(_freeze(m) for m in mul_polys))


# --- coordinate rings and vectors ---


class FieldOps:
    """Witt coordinate ring: a finite field."""

    def __init__(self, field):
        self.field = field

    def render(self, a):
        return textforms.format_terms(self.field, [(a, 0)])


class LaurentOps(FieldOps):
    """Witt coordinate ring: Laurent series at fixed precision."""

    def __init__(self, field, precision):
        super().__init__(field)
        self.precision = precision

    def render(self, a):
        return str(a)


class LaurentSeries(namedtuple("LaurentSeries", "field terms precision")):
    """A series as it prints: nonzero (coefficient, T-exponent) terms, highest first."""

    __slots__ = ()

    def __str__(self):
        return f"{textforms.format_terms(self.field, self.terms)} [prec {self.precision}]"


def laurent(K, top, coeffs, M):
    """The series sum coeffs[i] * T^(top - i) over K, at precision M."""
    return LaurentSeries(K, tuple((c, top - i) for i, c in enumerate(coeffs)
                                  if c != K.zero), M)


def int_to_witt(K, k, N):
    """The integer k in W_N over K: the tuple of its N Teichmuller digits.

    Only k mod p^N matters.  The digit a_i is k mod p; then k becomes
    (k - [a_i]) / p with [a] = a^(p^(N-1)) mod p^N, an exact division
    since [a] = a mod p.
    """
    p = K.p
    pN = p ** N
    k %= pN
    digits = []
    for _ in range(N):
        a = k % p
        digits.append(K.from_int(a))
        k = (k - pow(a, pN // p, pN)) // p
    return tuple(digits)


def witt_text(ops, w):
    return "(" + "; ".join(map(ops.render, w)) + ")"


# --- power series over the Galois ring ---


class GaloisRing:
    """GR(p^j, m) = (Z/p^j)[t]/(g~), a lift of F_q, q = p^m, mod p^j.

    g~ is the field modulus with its digits read as integers.  An element
    is the tuple of its m coefficients in t, low to high, each in
    0..p^j - 1; a field element lifts to its base-p digits.  A power
    series in u is a list of elements, the coefficient of u^i at index i,
    truncated to a given length.
    """

    def __init__(self, K, j):
        self.m = K.m
        self.P = K.p ** j
        self.low = K.modulus[:-1]  # t^m = -sum low[i] * t^i
        self.lifts = [K.coords(a) for a in range(K.q)]
        self.zero = (0,) * K.m
        self.one = (1,) + self.zero[1:]

    def mul(self, a, b):
        m, P = self.m, self.P
        if m == 1:
            return (a[0] * b[0] % P,)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b):
                    prod[i + k] += x * y
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k]
            if c:
                for i, r in enumerate(self.low):
                    prod[k - m + i] -= c * r
        return tuple(x % P for x in prod[:m])

    def series_mul(self, f, g, L):
        """f * g, truncated to length L."""
        mul, zero, P = self.mul, self.zero, self.P
        acc = [[0] * self.m for _ in range(min(L, len(f) + len(g) - 1))]
        gs = [(k, b) for k, b in enumerate(g) if b != zero]
        for i, a in enumerate(f[:L]):
            if a != zero:
                for k, b in gs:
                    if i + k >= L:
                        break
                    row = acc[i + k]
                    for c, x in enumerate(mul(a, b)):
                        row[c] += x
        return [tuple(x % P for x in row) for row in acc]

    def series_pow(self, f, e, L):
        """f^e for e >= 1, f of length at most L."""
        return power(lambda a, b: self.series_mul(a, b, L), f, f, e - 1)

    def series_inv(self, f, L):
        """1 / f to length L, for f with constant term 1."""
        mul, zero, P = self.mul, self.zero, self.P
        fs = [(i, a) for i, a in enumerate(f[1:L], 1) if a != zero]
        h = [self.one]
        for t in range(1, L):
            acc = [0] * self.m
            for i, a in fs:
                if i > t:
                    break
                for c, x in enumerate(mul(a, h[t - i])):
                    acc[c] += x
            h.append(tuple(-x % P for x in acc))
        return h


def ghost_sum(table, e, M, j):
    """sum B(n) * n~^-e over the table, coefficients in GR(p^j, m).

    The result is a power series in u = 1/T of length M + 1; the table
    bound must reach M // e.  For monic n of degree d, n = T^d * g(u) with
    g(u) = sum c_(d-i) u^i, so n~^-e = u^(de) * g~(u)^-e, needed only to
    length L = M + 1 - de, where it depends on c_(d-1)..c_(d-k) alone,
    k = min(d, L - 1): the low k base-q digits of n's rank in its block.
    Each class of n that share them, a slice of the block at stride q^k,
    makes one series, if its counts sum to nonzero mod p^j.
    """
    R = GaloisRing(table.field, j)
    P, q, counts, starts = R.P, table.field.q, table.counts, table.starts
    acc = [[0] * R.m for _ in range(M + 1)]
    for d in range(M // e + 1):
        L = M + 1 - d * e
        k = min(d, L - 1)
        # top is c_(d-k)..c_(d-1) lifted, in the order of low
        for low, top in enumerate(itertools.product(R.lifts, repeat=k)):
            b = sum(counts[starts[d] + low:starts[d + 1]:q ** k]) % P
            if b:
                g = [R.one, *reversed(top)]
                for row, c in zip(acc[d * e:], R.series_inv(R.series_pow(g, e, L), L)):
                    for i, x in enumerate(c):
                        row[i] += b * x
    return [tuple(x % P for x in row) for row in acc]


def mod_p_series(K, w, M):
    """The Laurent series over K of a series over GR, read mod p."""
    return laurent(K, 0, [K.element_from_coords(c) for c in w], M)


# --- the lifted zeta ---


def check_args(bound, s, M, error):
    """Raise error unless a table of this bound serves a zeta value, goss
    or lifted, at s to precision M.  The table is not read, so a caller
    can check before it builds one."""
    if M < 0:
        raise error(f"precision {M} must be nonnegative")
    if s >= 1:
        if M > PREC_BOUND:
            raise error(f"precision {M} is above {PREC_BOUND}, the largest "
                        f"supported at s >= 1")
        need = -(-M // s)
        if bound < need:
            raise error(f"table bound {bound} is too small for s={s}, "
                        f"prec {M} (need {need})")
    elif bound < 3 - s:
        raise error(f"table bound {bound} is too small for s={s} "
                    f"(need {3 - s})")


def check_stopped(blocks, s, error):
    """Raise error unless an s <= 0 zeta sum, given reduced by degree
    block (mod p or p^N), has stopped: its top three blocks vanish."""
    for d in range(len(blocks) - 3, len(blocks)):
        if blocks[d]:
            raise error(f"degree block {d} of the s={s} sum does not vanish; "
                        f"the sum has not stopped at this bound")


def stopped_total(table, modulus, s, error):
    """The sum of all counts mod modulus, for a zeta value at s = 0: the
    block sums, reduced, must have stopped (check_stopped)."""
    blocks = [b % modulus for b in table.block_sums()]
    check_stopped(blocks, s, error)
    return sum(blocks) % modulus


def check_lifted_args(bound, s, M, N):
    """Reject a lifted zeta request that no table of this bound can serve,
    before the table is built: check_args, for a length N in range and
    s >= 0."""
    if not 1 <= N <= WITT_LEN_BOUND:
        raise WittError(f"Witt length {N} is out of the supported range "
                        f"1..{WITT_LEN_BOUND}")
    if s < 0:
        raise WittError("the lifted zeta is defined for s >= 0 only")
    check_args(bound, s, M, WittError)


def lifted_goss_eval(table, s, M, N):
    """Zeta value at s lifted to length N: the tuple of its N coordinates.

    For s >= 1 each ideal count B(n), taken mod p^N rather than mod p,
    multiplies the Teichmuller lift of n^-s; the result has Laurent
    series coordinates at precision M, found from its ghost components
    as the module docstring describes.  At s = 0 the series collapses to
    the sum of all counts mod p^N (stopped_total, goss_eval's read mod p),
    and the coordinates are its Teichmuller digits, field elements.
    Negative s is not defined here.
    """
    K = table.field
    p = K.p
    check_lifted_args(table.bound, s, M, N)
    if s == 0:
        return int_to_witt(K, stopped_total(table, p ** N, s, WittError), N)
    R = GaloisRing(K, N)
    coords = []
    powers = []  # at level k, S~_i^(p^(k-i)) mod p^N for each i < k
    for k in range(N):
        pk = p ** k
        top = p * pk
        w = ghost_sum(table, s * pk, M, k + 1)
        powers = [R.series_pow(f, p, M + 1) for f in powers]
        digits = []
        for t, c in enumerate(w):
            num = list(c)
            for i, f in enumerate(powers):
                for a, x in enumerate(f[t]):
                    num[a] -= p**i * x
            num = [x % top for x in num]
            if any(x % pk for x in num):
                raise WittError(
                    f"ghost component {k} is not divisible by p^{k} at "
                    f"u^{t}")
            digits.append(tuple(x // pk for x in num))
        coords.append(mod_p_series(K, digits, M))
        powers.append(digits)
    return tuple(coords)
