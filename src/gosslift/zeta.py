"""Ideal count tables and the three zeta functions attached to an extension.

For an extension K of F = F_q(T), B(n) counts the ideals of norm n in the
integral closure of A = F_q[T].  B is multiplicative, and at a prime power
it only depends on the splitting type: a prime above with inertia degree f
contributes ideals in degrees f, 2f, ..., so the counts at powers of a
prime are the coin-counting numbers of the inertia degrees (ramification
indices never enter a norm).  Everything downstream is a different reading
of the same table of nonnegative integers:

  * the counting (Weil) series sums B over each degree block,
  * the positive-characteristic zeta reduces B mod p and pairs it with
    Laurent expansions of n^-s at the infinite place, or at s < 0 with
    the coefficient moments of each degree block, into witt.LaurentSeries,
  * the lifted zeta (see witt.py) keeps B as an integer mod p^N; at s = 0
    it and the mod-p zeta make one read of the whole table
    (stopped_total), so the Goss value at s = 0 is its lift's first digit.

Tables carry the bound D up to which they were built; every verdict they
support is a verdict "for all n of degree <= D" and nothing more.  A
table is built by expanding the Euler product over the primes of degree
<= D (dirichlet_table): over F_p with (D + 1)(p - 1)^2 < 256 (the rule
of field.byte_residues) each product is one product of ints whose bytes
are the coefficients, elsewhere it runs on the base field's tables.  Its
text form (dump_table) is output only, written in pieces (dump_blocks),
so the whole text of a large table is never held at once.  Readers find
n by rank; only unrank and the entries view build n, a coefficient tuple.
"""

import functools
import itertools
import math
import operator
from types import MappingProxyType

from . import poly, textforms
from .errors import ZetaError
from .extension import splitting_types
from .field import byte_residues
from .witt import (check_args, check_stopped, ghost_sum, laurent, mod_p_series,
                   stopped_total)


def local_counts(st, kmax):
    """Counts of ideals of norm prime^k, k = 0..kmax, for one splitting type.

    Entry k is the number of ways to write k as an ordered sum over the
    primes above, with the prime of inertia degree f contributing
    multiples of f.
    """
    if kmax < 0:
        raise ZetaError("kmax must be nonnegative")
    c = [1] + [0] * kmax
    for f in st.inertia_degrees():
        for k in range(f, kmax + 1):
            c[k] += c[k - f]
    return c


def block_start(q, d):
    """Rank of T^d: the number of monic polynomials of degree below d."""
    return (q ** d - 1) // (q - 1)


TABLE_SIZE_BOUND = 2 ** 24  # the most entries a table may hold


def rank(K, coeffs):
    """Position of a monic polynomial in enumeration order.

    The degree-d block starts at block_start(q, d); inside it a polynomial
    sits at the base-q number whose digits are its lower coefficients
    c_0..c_{d-1}, c_0 most significant (elements are the ints 0..q-1).
    """
    q = K.q
    r = 0
    for c in coeffs:
        r = r * q + c
    # the loop also took the leading 1 as the last digit
    return block_start(q, len(coeffs) - 1) + r // q


def unrank(K, r):
    """The coefficient tuple of the monic polynomial of rank r over K."""
    q = K.q
    d = 0
    while block_start(q, d + 1) <= r:
        d += 1
    low = r - block_start(q, d)
    coeffs = [K.one] * (d + 1)
    for i in range(d - 1, -1, -1):
        low, coeffs[i] = divmod(low, q)
    return tuple(coeffs)


class _Modulus(tuple):
    """A key of DirichletTable.entries: a coefficient tuple with a degree."""
    __slots__ = ()
    degree = property(lambda self: len(self) - 1)


class DirichletTable:
    """Ideal counts B(n) for all monic n of degree <= bound, as exact ints.

    counts is a list with B(n) at rank(n), one entry for each of the
    (q^(bound+1) - 1)/(q - 1) monic moduli of degree <= bound, degree d at
    counts[starts[d]:starts[d + 1]].
    """

    def __init__(self, ext_name, field, bound, counts):
        self.ext_name = ext_name
        self.field = field
        self.bound = bound
        self.starts = [block_start(field.q, d) for d in range(bound + 2)]
        if not isinstance(counts, list) or len(counts) != self.starts[-1]:
            raise ZetaError(
                f"a table of bound {bound} over GF({field.q}) needs a list of "
                f"{self.starts[-1]} counts")
        self.counts = counts

    @functools.cached_property
    def entries(self):
        """Read-only {n: count} view in enumeration order, made once."""
        monics = itertools.chain.from_iterable(
            poly.enumerate_monic(self.field, d) for d in range(self.bound + 1))
        return MappingProxyType(dict(zip(map(_Modulus, monics), self.counts)))

    def block_sums(self):
        """Sum of B(n) over each degree block, degrees 0..bound."""
        counts, s = self.counts, self.starts
        return [sum(counts[s[d]:s[d + 1]]) for d in range(self.bound + 1)]


def dirichlet_table(ext, bound):
    """Build the table of B(n) for deg n <= bound by expanding the Euler product.

    Each prime P of degree d multiplies in its powers P^k, k <= bound/d:
    P^k's own entry is B(P^k), read from the local counts of its type,
    and every nonzero entry of degree e >= 1 present before P was reached
    gives one product.  Where field.byte_residues allows it, a product
    is one product of ints whose bytes are the coefficients
    (_byte_products); other fields multiply on the base field's tables
    (_row_products).  A product of degree above bound - d is never a
    cofactor again, since later primes have degree d or more, so only
    its count is kept.
    """
    if bound < 0:
        raise ZetaError("table bound must be nonnegative")
    K = ext.field
    q = K.q
    top = 0  # counted up from degree 0, so a huge bound never makes q^bound
    while block_start(q, top + 2) <= TABLE_SIZE_BOUND:
        top += 1
    if bound > top:
        raise ZetaError(
            f"table bound {bound} over GF({q}) is above {top}, the largest "
            f"with at most {TABLE_SIZE_BOUND} entries")
    starts = [block_start(q, d) for d in range(bound + 1)]
    counts = [0] * block_start(q, bound + 1)
    counts[0] = 1
    # the nonzero entries of degree >= 1 so far, by degree, as
    # (polynomial, count): a zero cofactor only has zero products, and
    # those the list holds already
    nonzero = [[] for _ in range(bound + 1)]
    residues = byte_residues(K, bound)
    if residues:
        first, times, rows, expand = _byte_products(K, residues)
    else:
        first, times, rows, expand = _row_products(K)
    for d in range(1, bound + 1):
        kmax = bound // d
        last = bound - d  # the highest degree that is still a cofactor
        by_type = {}  # local counts for each splitting type met at degree d
        for prime, st in splitting_types(ext, d):
            local = by_type.get(st.pairs)
            if local is None:
                local = by_type[st.pairs] = local_counts(st, kmax)
            if not any(local[1:]):
                continue
            # snapshot: everything present so far is coprime to this prime
            sizes = [len(block) for block in nonzero] if d < bound else None
            base, r = first(prime)
            power = base
            for k in range(1, kmax + 1):
                kd = k * d
                if k > 1:
                    power, r = times(power, base, kd)
                ck = local[k]
                if not ck:
                    continue
                counts[starts[kd] + r] = ck
                if kd == bound:
                    continue
                if kd <= last:
                    nonzero[kd].append((power, ck))
                by = rows(power)
                for e in range(1, bound - kd + 1):
                    if sizes[e]:
                        expand(itertools.islice(nonzero[e], sizes[e]), by, e + kd,
                               counts, starts[e + kd], ck,
                               nonzero[e + kd] if e + kd <= last else None)
    return DirichletTable(ext.name, K, bound, counts)


def _byte_products(K, residues):
    """Polynomial products over F_p on ints whose byte i is coefficient i.

    residues is the table of field.byte_residues, which keeps each
    coefficient of an int product in its own byte; bytes.translate
    reduces the bytes mod p (residues) or spells them as base-p digits,
    low coefficient first, which int() reads as the rank times p plus the
    leading 1 (p < 16 here, so int() takes base p).  Returns (first,
    times, rows, expand) as dirichlet_table uses them.
    """
    p = K.p
    digits = bytes(ord("0123456789abcdef"[b % p]) for b in range(256))

    def first(coeffs):
        raw = bytes(coeffs)
        return int.from_bytes(raw, "little"), int(raw.translate(digits), p) // p

    def times(f, g, deg):
        raw = (f * g).to_bytes(deg + 1, "little")
        return (int.from_bytes(raw.translate(residues), "little"),
                int(raw.translate(digits), p) // p)

    def expand(cofactors, power, deg, counts, start, ck, out):
        width = deg + 1
        if out is None:
            for cf, b in cofactors:
                counts[start + int((cf * power).to_bytes(width, "little")
                                   .translate(digits), p) // p] = b * ck
            return
        for cf, b in cofactors:
            raw = (cf * power).to_bytes(width, "little")
            counts[start + int(raw.translate(digits), p) // p] = bc = b * ck
            out.append((int.from_bytes(raw.translate(residues), "little"), bc))

    return first, times, lambda power: power, expand


def _row_products(K):
    """Polynomial products over a table field, as coefficient lists, on
    its add and mul tables; a power P^k that takes cofactors gets the rows
    c * P^k, one for each c in the field, made once.  Returns (first,
    times, rows, expand) as dirichlet_table uses them."""
    add, mul, q = K._add, K._mul, K.q

    def ranked(prod):
        # the digits low coefficient first; the leading 1 is read last
        r = 0
        for c in prod:
            r = r * q + c
        return prod, r // q

    def product(f, rows, deg):
        prod = [0] * (deg + 1)
        for i, a in enumerate(f):
            if a:
                for j, c in enumerate(rows[a], i):
                    prod[j] = add[prod[j]][c]
        return ranked(prod)

    def rows(power):
        return [[row[c] for c in power] for row in mul]

    def times(f, g, deg):
        return product(f, rows(g), deg)

    def expand(cofactors, by, deg, counts, start, ck, out):
        for cf, b in cofactors:
            prod, r = product(cf, by, deg)
            counts[start + r] = bc = b * ck
            if out is not None:
                out.append((prod, bc))

    return ranked, times, rows, expand


class WeilSeries:
    """Degree-block ideal counts a_d = sum of B(n) over deg n = d."""

    def __init__(self, bound, coeffs):
        self.bound = bound
        self.coeffs = coeffs

    def __str__(self):
        body = " + ".join(f"{a}*u^{d}" if d else str(a)
                          for d, a in enumerate(self.coeffs))
        return f"{body} + O(u^{self.bound + 1})"


def weil_series(table):
    return WeilSeries(table.bound, tuple(table.block_sums()))


# --- zeta evaluation mod p ---


def goss_eval(table, s, M):
    """The characteristic-p zeta value at integer s, as a Laurent series.

    For s >= 1 this is sum B(n) * n^-s over the table, reduced mod p,
    correct through T^-M; the table bound must reach ceil(M / s).  For
    s <= 0 the sum of B(n) * n^|s| must stop (check_stopped): at s = 0 it
    is the sum of all counts (stopped_total, the lift's read), at s < 0 it
    adds the moments of the degree blocks of the whole table (_power_blocks).
    """
    K = table.field
    check_args(table.bound, s, M, ZetaError)
    if s >= 1:
        return mod_p_series(K, ghost_sum(table, s, M, 1), M)
    if s == 0:
        return laurent(K, 0, [K.from_int(stopped_total(table, K.p, s, ZetaError))], M)
    blocks = _power_blocks(table, -s)
    check_stopped(blocks, s, ZetaError)
    total = functools.reduce(functools.partial(poly.padd, K), blocks, ())
    return laurent(K, len(total) - 1, total[::-1], M)


def _power_blocks(table, k):
    """Block sums of B(n) * n^k mod p for degrees 0..bound, k >= 0, each
    block read from counts mod p."""
    K, counts, s = table.field, table.counts, table.starts
    return [_moment(K, d, k, list(map(K.p.__rmod__,
                                      itertools.islice(counts, s[d], s[d + 1]))))
            for d in range(table.bound + 1)]


def _moment(K, d, k, w):
    """Sum of w(n) * n^k over the monic n of degree d, where w holds the
    element of every rank in the block (see rank) as a list, or of the
    nonzero ones as a dict.  With n = c + T*n', c the top digit of the
    rank, n^k = sum_j C(k, j) c^(k-j) T^j n'^j: for each j with C(k, j)
    nonzero mod p, the q slices of the block fold, weighted by c^(k-j),
    into one block of degree d - 1, of w's kind, that recurses with j.  A
    list with fewer than 1/8 of its entries nonzero folds as a dict: each
    read is the faster one on its side of that share."""
    values = w.values() if isinstance(w, dict) else w
    if not any(values):
        return ()
    if k == 0 or d == 0:
        return poly.ptrim(K, [functools.reduce(K.add, values, K.zero)])
    add, mul, size, out = K._add, K._mul, K.q ** (d - 1), [0] * (d * k + 1)
    if isinstance(w, list) and w.count(0) * 8 > len(w) * 7:
        w = {r: w[r] for r in itertools.compress(range(len(w)), w)}
    for j in range(k + 1):
        binom = K.from_int(math.comb(k, j))
        if not binom:
            continue
        by = [mul[K.pow_(c, k - j)] for c in K.elements()]  # v -> c^(k-j) * v
        if isinstance(w, dict):
            fold = {}
            for r, v in w.items():
                c, rest = divmod(r, size)
                fold[rest] = add[fold.get(rest, 0)][by[c][v]]
            fold = {r: v for r, v in fold.items() if v}
        else:
            fold = [0] * size
            for c in K.elements():
                if any(by[c]):
                    fold = list(map(operator.getitem, map(add.__getitem__, fold),
                                    map(by[c].__getitem__,
                                        w[c * size:(c + 1) * size])))
        for i, c in enumerate(_moment(K, d - 1, j, fold), j):
            out[i] = add[out[i]][mul[binom][c]]
    return poly.ptrim(K, out)


# --- comparison ---


class ZetaVerdict:
    def __init__(self, equal, bound, witness=None, left=None, right=None):
        self.equal = equal
        self.bound = bound
        self.witness = witness  # the text of n, or a degree int
        self.left = left
        self.right = right

    def text(self):
        if self.equal:
            return f"EQUAL bound={self.bound}"
        if isinstance(self.witness, str):
            return f"DIFFER n={self.witness} left={self.left} right={self.right}"
        return f"DIFFER d={self.witness} left={self.left} right={self.right}"


def check_same_field(field_a, field_b):
    """Raise ZetaError unless two tables' base fields agree."""
    if field_a != field_b:
        raise ZetaError("cannot compare tables over different base fields")


def compare_zeta(table_a, table_b, kind):
    """Compare two tables as Weil, mod-p, or integer (lifted) zeta data.

    weil balances degree-block sums; goss compares B(n) mod p entrywise;
    lifted compares B(n) as integers entrywise (equality of the lifted
    zeta values to the bound is equality of the integer counts).  The
    witness is the first difference in enumeration order.
    """
    check_same_field(table_a.field, table_b.field)
    if table_a.bound != table_b.bound:
        raise ZetaError("cannot compare tables with different bounds")
    counts_a, counts_b = table_a.counts, table_b.counts
    bound = table_a.bound
    if kind == "weil":
        for d, (x, y) in enumerate(zip(table_a.block_sums(), table_b.block_sums())):
            if x != y:
                return ZetaVerdict(False, bound, d, x, y)
        return ZetaVerdict(True, bound)
    if kind not in ("goss", "lifted"):
        raise ZetaError(f"unknown comparison kind {kind!r}")
    if kind == "goss":
        p = table_a.field.p
        counts_a = [b % p for b in counts_a]
        counts_b = [b % p for b in counts_b]
    for r, (b, c) in enumerate(zip(counts_a, counts_b)):
        if b != c:
            n = textforms.format_tpoly(table_a.field, unrank(table_a.field, r))
            return ZetaVerdict(False, bound, n, b, c)
    return ZetaVerdict(True, bound)


# --- splitting reconstruction from residues ---


def reconstruct_splitting(residues, n_ext, p):
    """Inertia degrees (with multiplicity) from B(prime^f) mod p, f = 1..n_ext.

    Valid when n_ext < p: the count of primes above with each inertia
    degree is below p, so residues determine the integer counts.  Returns
    a sorted tuple of degrees; residues whose degree sum would pass n_ext
    raise ZetaError.
    """
    if n_ext >= p:
        raise ZetaError(
            f"reconstruction needs extension degree below the characteristic "
            f"({n_ext} >= {p})")
    for f in range(1, n_ext + 1):
        if f not in residues:
            raise ZetaError(f"missing residue for prime power exponent {f}")
    # coin counting as in local_counts: c[k] counts the ideals of norm
    # prime^k made from the degrees found so far, so the residue at f less
    # c[f] is the number of primes above of degree f
    c = [1] + [0] * n_ext
    out = []
    total = 0
    for f in range(1, n_ext + 1):
        count = (residues[f] - c[f]) % p
        total += f * count
        if total > n_ext:
            raise ZetaError(
                f"inconsistent residues: degree sum {total} exceeds extension "
                f"degree {n_ext}")
        out += [f] * count
        for _ in range(count):
            for k in range(f, n_ext + 1):
                c[k] += c[k - f]
    return tuple(out)


def prime_power_residues(st, n_ext, p):
    """Forward map: B(prime^f) mod p for f = 1..n_ext, from a splitting type."""
    c = local_counts(st, n_ext)
    return {f: c[f] % p for f in range(1, n_ext + 1)}


# --- the p-group criterion ---


def pgalois_check(table, order_g):
    """Whether B(n) mod p is 1 exactly on |G|-th powers and 0 elsewhere.

    This is the table shape forced by a Galois extension with p-group G
    ramified only above the infinite place.  Returns (ok, witness) with
    the first offending n, if any.
    """
    K = table.field
    p = K.p
    if order_g < 1:
        raise ZetaError("group order must be positive")
    marks = power_marks(K, table.bound, order_g)
    for r, b in enumerate(table.counts):
        if b % p != marks[r]:
            return False, unrank(K, r)
    return True, None


def power_marks(K, bound, k):
    """1 at the rank of every k-th power m^k of degree <= bound, else 0."""
    marks = bytearray(block_start(K.q, bound + 1))
    for e in range(bound // k + 1):
        for m in poly.enumerate_monic(K, e):
            marks[rank(K, poly.ppow(K, m, k))] = 1
    return marks


# --- table text ---


def _text_halves(K, d):
    """(highs, lows): the texts of the monics of degree d, in rank order,
    are hi + low for each low in lows, then for each hi in highs.  A high
    text runs from T^d down to c_h T^h, h = d // 2; each low text carries
    its " + ".  The low digits are the more significant part of the rank.
    """
    h = d // 2
    highs = _term_texts(K, h, d, textforms.format_terms(K, [(K.one, d)]))
    return highs, [" + " + low if low else "" for low in _term_texts(K, 0, h)]


def _term_texts(K, lo, hi, *lead):
    """Text of the lead terms and c_{hi-1} T^(hi-1) + ... + c_lo T^lo.

    One string for each digit string c_lo..c_{hi-1}, c_lo most significant;
    "" where there is no nonzero term.
    """
    columns = [["" if c == K.zero else textforms.format_terms(K, [(c, i)])
                for c in K.elements()] for i in range(lo, hi)]
    return [" + ".join(filter(None, lead + terms[::-1]))
            for terms in itertools.product(*columns)]


def dump_blocks(table):
    """The text of dump_table in pieces, in order: the header line, then
    one piece for each run of q^(d - d//2) lines of degree d that share
    their low terms (see _text_halves).  Writing the pieces as they come
    keeps one run of text in memory at a time."""
    K, counts = table.field, table.counts
    name = str(table.ext_name).replace(" ", "_")
    yield f"# ext={name} p={K.p} m={K.m} D={table.bound}\n"
    r = 0
    for d in range(table.bound + 1):
        highs, lows = _text_halves(K, d)
        for low in lows:
            run = counts[r:r + len(highs)]
            r += len(highs)
            # each line is hi + (low + its count): one join per run
            ends = {b: f"{low} {b}\n" for b in set(run)}
            yield "".join([hi + ends[b] for hi, b in zip(highs, run)])


def dump_table(table):
    """One line per entry, '<poly> <B(n)>', after a header comment: the
    pieces of dump_blocks joined."""
    return "".join(dump_blocks(table))

