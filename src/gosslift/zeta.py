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
    Laurent expansions of n^-s at the infinite place,
  * the lifted zeta (see witt.py) keeps B as an integer mod p^N.

Tables carry the bound D up to which they were built; every verdict they
support is a verdict "for all n of degree <= D" and nothing more.
"""

from __future__ import annotations

import itertools
import math
from types import MappingProxyType

from . import poly, textforms
from .errors import GossliftError, ZetaError
from .extension import splitting_types
from .laurent import LaurentSeries, laurent_inv_pow
from .poly import MonicPoly


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
    """The MonicPoly of rank r over the table field K."""
    q = K.q
    d = 0
    while block_start(q, d + 1) <= r:
        d += 1
    low = r - block_start(q, d)
    coeffs = [K.one] * (d + 1)
    for i in range(d - 1, -1, -1):
        low, coeffs[i] = divmod(low, q)
    return MonicPoly(K, coeffs)


class DirichletTable:
    """Ideal counts B(n) for all monic n of degree <= bound, as exact ints.

    counts[rank(n)] is B(n).  A table may also be made from a mapping
    {MonicPoly: count}; a modulus the mapping lacks leaves a hole (None),
    and every reader of the counts rejects a table with holes.
    """

    def __init__(self, ext_name, field, bound, counts):
        self.ext_name = ext_name
        self.field = field
        self.bound = bound
        self.starts = [block_start(field.q, d) for d in range(bound + 2)]
        if isinstance(counts, list):
            self.holes = 0
        else:
            entries, counts = counts, [None] * self.starts[-1]
            for n, b in entries.items():
                if n.degree > bound:
                    raise ZetaError(f"{n} has degree above the bound {bound}")
                counts[rank(field, n.coeffs)] = b
            self.holes = counts.count(None)
        self.counts = counts
        self._entries = None

    @property
    def entries(self):
        """Read-only {MonicPoly: count} view in enumeration order, made once."""
        if self._entries is None:
            monics = itertools.chain.from_iterable(
                poly.enumerate_monic(self.field, d) for d in range(self.bound + 1))
            self._entries = MappingProxyType(
                {n: b for n, b in zip(monics, self.counts) if b is not None})
        return self._entries

    def full_counts(self):
        """counts, after checking that every modulus has one."""
        if self.holes:
            raise ZetaError(
                f"table of {self.ext_name} has no count for {self.holes} of "
                f"its moduli")
        return self.counts

    def block_sums(self):
        """Sum of B(n) over each degree block, degrees 0..bound."""
        counts, s = self.full_counts(), self.starts
        return [sum(counts[s[d]:s[d + 1]]) for d in range(self.bound + 1)]

    def nonzero_upto(self, top, modulus):
        """(n, B(n)) in enumeration order for deg n <= top, B(n) != 0 mod modulus.

        Only these entries are made into MonicPolys.
        """
        counts = self.full_counts()
        for r in range(self.starts[min(top, self.bound) + 1]):
            b = counts[r]
            if b % modulus:
                yield unrank(self.field, r), b

    def __eq__(self, other):
        return (isinstance(other, DirichletTable)
                and self.field == other.field and self.bound == other.bound
                and self.counts == other.counts)


def dirichlet_table(ext, bound):
    """Build the table of B(n) for deg n <= bound by expanding the Euler product."""
    if bound < 0:
        raise ZetaError("table bound must be nonnegative")
    K = ext.field
    counts = [0] * block_start(K.q, bound + 1)
    counts[0] = 1
    # the nonzero entries so far, by degree, as (coefficients, count): a
    # zero cofactor only has zero products, and those the list holds already
    nonzero = [[] for _ in range(bound + 1)]
    nonzero[0].append(((K.one,), 1))
    for d in range(1, bound + 1):
        for prime, st in splitting_types(ext, d):
            kmax = bound // d
            local = local_counts(st, kmax)
            # snapshot: everything present so far is coprime to this prime
            sizes = [len(block) for block in nonzero]
            power = prime.coeffs
            for k in range(1, kmax + 1):
                if k > 1:
                    power = poly.pmul(K, power, prime.coeffs)
                ck = local[k]
                if not ck:
                    continue
                for e in range(bound - k * d + 1):
                    out = nonzero[e + k * d]
                    for cf, b in itertools.islice(nonzero[e], sizes[e]):
                        prod = poly.pmul(K, cf, power)
                        counts[rank(K, prod)] = bc = b * ck
                        out.append((prod, bc))
    return DirichletTable(ext.name, K, bound, counts)


class WeilSeries:
    """Degree-block ideal counts a_d = sum of B(n) over deg n = d."""

    def __init__(self, ext_name, bound, coeffs):
        self.ext_name = ext_name
        self.bound = bound
        self.coeffs = coeffs

    def __str__(self):
        body = " + ".join(f"{a}*u^{d}" if d else str(a)
                          for d, a in enumerate(self.coeffs))
        return f"{body} + O(u^{self.bound + 1})"


def weil_series(table):
    return WeilSeries(table.ext_name, table.bound, tuple(table.block_sums()))


# --- zeta evaluation mod p ---


def check_goss_args(bound, s, M):
    """Reject a goss_eval request that no table of this bound can serve.

    These are the checks of goss_eval that do not read the table, so a
    caller can make them before it builds one.
    """
    if M < 0:
        raise ZetaError(f"precision {M} must be nonnegative")
    if s >= 1:
        need = -(-M // s)
        if bound < need:
            raise ZetaError(
                f"table bound {bound} is too small for s={s}, prec {M} "
                f"(need {need})")
    elif bound < 3 - s:
        raise ZetaError(
            f"table bound {bound} is too small for s={s} (need {3 - s})")


def goss_eval(table, s, M):
    """The characteristic-p zeta value at integer s, as a Laurent series.

    For s >= 1 this is sum B(n) * n^-s over the table, reduced mod p,
    correct through T^-M; the table bound must reach ceil(M / s).  For
    s <= 0 the sum is over polynomial powers n^|s| and must terminate:
    degree blocks are accumulated through |s| + 3 and the last three must
    vanish identically, otherwise the evaluation fails.
    """
    K = table.field
    check_goss_args(table.bound, s, M)
    if s >= 1:
        acc = LaurentSeries.zero(K, M)
        for n, b in table.nonzero_upto(M // s, K.p):
            acc = acc + laurent_inv_pow(n, s, M).scale(K.from_int(b))
        return acc
    k = -s
    top = k + 3
    blocks = _power_blocks(table, k, top)
    for d in range(k + 1, top + 1):
        if blocks[d]:
            raise ZetaError(
                f"degree block {d} of the s={s} evaluation does not vanish; "
                f"the sum does not terminate here")
    total = ()
    for d in range(0, top + 1):
        total = poly.padd(K, total, blocks[d])
    return LaurentSeries.from_tpoly(K, total, M)


def _power_blocks(table, k, top):
    """Block sums of B(n) * n^k mod p for degrees 0..top (k >= 0)."""
    K = table.field
    blocks = [()] * (top + 1)
    for n, b in table.nonzero_upto(top, K.p):
        r = K.from_int(b)
        term = poly.pscale(K, r, poly.ppow(K, n.coeffs, k)) if k else (r,)
        blocks[n.degree] = poly.padd(K, blocks[n.degree], term)
    return blocks


# --- comparison ---


class ZetaVerdict:
    def __init__(self, kind, equal, bound, witness=None, left=None, right=None):
        self.kind = kind
        self.equal = equal
        self.bound = bound
        self.witness = witness  # MonicPoly or degree int
        self.left = left
        self.right = right

    def text(self):
        if self.equal:
            return f"EQUAL bound={self.bound}"
        if isinstance(self.witness, MonicPoly):
            return f"DIFFER n={self.witness} left={self.left} right={self.right}"
        return f"DIFFER d={self.witness} left={self.left} right={self.right}"


def compare_zeta(table_a, table_b, kind):
    """Compare two tables as Weil, mod-p, or integer (lifted) zeta data.

    weil balances degree-block sums; goss compares B(n) mod p entrywise;
    lifted compares B(n) as integers entrywise (equality of the lifted
    zeta values to the bound is equality of the integer counts).  The
    witness is the first difference in enumeration order.
    """
    if table_a.field != table_b.field:
        raise ZetaError("cannot compare tables over different base fields")
    if table_a.bound != table_b.bound:
        raise ZetaError("cannot compare tables with different bounds")
    counts_a, counts_b = table_a.full_counts(), table_b.full_counts()
    bound = table_a.bound
    if kind == "weil":
        for d, (x, y) in enumerate(zip(table_a.block_sums(), table_b.block_sums())):
            if x != y:
                return ZetaVerdict("weil", False, bound, d, x, y)
        return ZetaVerdict("weil", True, bound)
    if kind not in ("goss", "lifted"):
        raise ZetaError(f"unknown comparison kind {kind!r}")
    if kind == "goss":
        p = table_a.field.p
        counts_a = [b % p for b in counts_a]
        counts_b = [b % p for b in counts_b]
    for r, (b, c) in enumerate(zip(counts_a, counts_b)):
        if b != c:
            return ZetaVerdict(kind, False, bound, unrank(table_a.field, r), b, c)
    return ZetaVerdict(kind, True, bound)


# --- splitting reconstruction from residues ---


def reconstruct_splitting(residues, n_ext, p):
    """Inertia degrees (with multiplicity) from B(prime^f) mod p, f = 1..n_ext.

    Valid when n_ext < p: the count of primes above with each inertia
    degree is below p, so residues determine the integer counts.  Peels
    the combinatorial identity expressing B at prime powers through the
    counts of lower inertia degrees.  Returns a sorted tuple of degrees.
    """
    if n_ext >= p:
        raise ZetaError(
            f"reconstruction needs extension degree below the characteristic "
            f"({n_ext} >= {p})")
    for f in range(1, n_ext + 1):
        if f not in residues:
            raise ZetaError(f"missing residue for prime power exponent {f}")
    counts = {}
    for f in range(1, n_ext + 1):
        predicted = _g2_sum(counts, f)
        counts[f] = (residues[f] - predicted) % p
    total = sum(f * c for f, c in counts.items())
    if total > n_ext:
        raise ZetaError(
            f"inconsistent residues: degree sum {total} exceeds extension "
            f"degree {n_ext}")
    out = []
    for f, c in counts.items():
        out.extend([f] * c)
    return tuple(sorted(out))


def _g2_sum(counts, f):
    """Ideal count at a prime power from counts of smaller inertia degrees.

    Sums over ways to spend f on degrees below f, taking r_i >= 1 ideals
    from each chosen degree f_i with multiset coefficient
    binom(count + r - 1, r).
    """
    total = 0
    degrees = [d for d in sorted(counts) if d < f and counts[d] > 0]

    def walk(remaining, idx, acc):
        nonlocal total
        if remaining == 0:
            total += acc
            return
        for j in range(idx, len(degrees)):
            d = degrees[j]
            if d > remaining:
                break
            r = 1
            while r * d <= remaining:
                weight = math.comb(counts[d] + r - 1, r)
                walk(remaining - r * d, j + 1, acc * weight)
                r += 1

    walk(f, 0, 1)
    return total


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
    for r, b in enumerate(table.full_counts()):
        if b % p != marks[r]:
            return False, unrank(K, r)
    return True, None


def power_marks(K, bound, k):
    """1 at the rank of every k-th power m^k of degree <= bound, else 0."""
    marks = bytearray(block_start(K.q, bound + 1))
    for e in range(bound // k + 1):
        for m in poly.enumerate_monic(K, e):
            marks[rank(K, poly.ppow(K, m.coeffs, k))] = 1
    return marks


# --- table text round trip ---


def dump_table(table, path=None):
    """One line per entry, '<poly> <B(n)>', with a header comment."""
    name = str(table.ext_name).replace(" ", "_")
    lines = [f"# ext={name} p={table.field.p} m={table.field.m} "
             f"D={table.bound}"]
    K = table.field
    counts = table.full_counts()
    # n = T^d + c_{d-1} T^{d-1} + ... + c_0 prints as the text of its high
    # digits c_h..c_{d-1} (with T^d), then that of its low digits c_0..c_{h-1}
    # where h = d // 2; the low digits are the more significant part of the
    # rank, so each block is a product of two string tables
    lows = {}
    for d in range(table.bound + 1):
        h = d // 2
        highs = [textforms.format_terms(
                     K, [(K.one, d)] + [(digits[i - h], i)
                                        for i in range(d - 1, h - 1, -1)])
                 for digits in itertools.product(K.elements(), repeat=d - h)]
        if h not in lows:
            lows[h] = [_low_joiner(textforms.format_terms(
                           K, [(digits[i], i) for i in range(h - 1, -1, -1)]))
                       for digits in itertools.product(K.elements(), repeat=h)]
        r = table.starts[d]
        for joiner in lows[h]:
            lines += [hi + joiner + str(b)
                      for hi, b in zip(highs, counts[r:r + len(highs)])]
            r += len(highs)
    text = "\n".join(lines) + "\n"
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise ZetaError(f"cannot write table to {path}: {e}") from None
    return text


def _low_joiner(low):
    """What goes between the high-digit text and the count."""
    return " " if low == "0" else f" + {low} "


def load_table(text_or_path, from_path=False):
    """Parse dump_table text back into a table.

    A malformed header or line, a modulus of degree above the bound or
    listed twice, or a table that does not hold all (q^(D+1) - 1)/(q - 1)
    monic moduli of degree <= D (none of degree D, for a start) raises
    ZetaError.
    """
    if from_path:
        try:
            with open(text_or_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ZetaError(f"cannot read table from {text_or_path}: {e}") from None
    else:
        text = text_or_path
    header = None
    lines = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line.startswith("#"):
            if header is None:
                header = _parse_header(line)
        elif line:
            lines.append((lineno, line))
    if header is None:
        raise ZetaError("table text is missing its header line")
    name, K, bound = header
    slots = {}
    top = -1
    for lineno, line in lines:
        try:
            body, count = line.rsplit(None, 1)
            n = textforms.parse_monic(K, body)
            b = int(count)
        except (ValueError, GossliftError):
            raise ZetaError(f"malformed table line {lineno}: {line!r}") from None
        if b < 0:
            raise ZetaError(f"table line {lineno}: count {b} is negative")
        if n.degree > bound:
            raise ZetaError(f"table line {lineno}: {n} has degree above D={bound}")
        r = rank(K, n.coeffs)
        if r in slots:
            raise ZetaError(f"table line {lineno}: {n} is listed twice")
        slots[r] = b
        top = max(top, n.degree)
    # a full table of bound D holds every monic of degree D; checked first,
    # so a huge header bound never reaches the count below
    if bound > top:
        raise ZetaError(
            f"table header has D={bound}, but its largest degree is {top}")
    expected = block_start(K.q, bound + 1)
    if len(slots) != expected:
        raise ZetaError(
            f"table holds {len(slots)} moduli; D={bound} needs all {expected} "
            f"monic polynomials of degree <= {bound}")
    # distinct ranks below expected, as many as slots: every slot is filled
    counts = [None] * expected
    for r, b in slots.items():
        counts[r] = b
    return DirichletTable(name, K, bound, counts)


def _parse_header(line):
    """(ext name, field, bound) from a '# ext=NAME p=P m=M D=D' line."""
    from .field import gf_create
    try:
        fields = dict(tok.split("=", 1) for tok in line[1:].split())
        K = gf_create(int(fields["p"]), int(fields.get("m", "1")))
        bound = int(fields["D"])
    except (ValueError, KeyError, GossliftError):
        raise ZetaError(f"malformed table header {line!r}") from None
    if bound < 0:
        raise ZetaError(f"table header {line!r} has a negative bound")
    return fields.get("ext", "?"), K, bound
