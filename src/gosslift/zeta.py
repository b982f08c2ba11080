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

import math

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


class DirichletTable:
    """Ideal counts B(n) for all monic n of degree <= bound, as exact ints."""

    def __init__(self, ext_name, field, bound, entries):
        self.ext_name = ext_name
        self.field = field
        self.bound = bound
        self.entries = entries  # MonicPoly -> int, in (degree, coeffs) order

    def block_sums(self):
        """Sum of B(n) over each degree block, degrees 0..bound."""
        out = [0] * (self.bound + 1)
        for n, b in self.entries.items():
            out[n.degree] += b
        return out

    def __eq__(self, other):
        return (isinstance(other, DirichletTable)
                and self.field == other.field and self.bound == other.bound
                and self.entries == other.entries)


def dirichlet_table(ext, bound):
    """Build the table of B(n) for deg n <= bound by expanding the Euler product."""
    if bound < 0:
        raise ZetaError("table bound must be nonnegative")
    K = ext.field
    one = MonicPoly(K, (K.one,))
    entries = {one.coeffs: 1}
    by_degree = {0: [one.coeffs]}
    for d in range(1, bound + 1):
        for prime, st in splitting_types(ext, d):
            counts = local_counts(st, bound // d)
            # snapshot: everything present so far is coprime to this prime
            snapshot = [(deg, list(polys)) for deg, polys in by_degree.items()
                        if deg + d <= bound]
            power = prime.coeffs
            k = 1
            while k * d <= bound:
                ck = counts[k]
                for deg, polys in snapshot:
                    if deg + k * d > bound:
                        continue
                    for cf in polys:
                        prod = poly.pmul(K, cf, power)
                        entries[prod] = entries[cf] * ck
                        by_degree.setdefault(deg + k * d, []).append(prod)
                k += 1
                if k * d <= bound:
                    power = poly.pmul(K, power, prime.coeffs)
    table = {}
    for cf in sorted(entries, key=lambda c: (len(c), c)):
        table[MonicPoly(K, cf)] = entries[cf]
    return DirichletTable(ext.name, K, bound, table)


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
        for n, b in table.entries.items():
            if n.degree * s > M:
                continue
            r = K.from_int(b)
            if r == K.zero:
                continue
            acc = acc + laurent_inv_pow(n, s, M).scale(r)
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
    for n, b in table.entries.items():
        if n.degree > top:
            break
        r = K.from_int(b)
        if r == K.zero:
            continue
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
    if table_a.entries.keys() != table_b.entries.keys():
        raise ZetaError("cannot compare tables over different sets of moduli")
    bound = table_a.bound
    if kind == "weil":
        for d, (x, y) in enumerate(zip(table_a.block_sums(), table_b.block_sums())):
            if x != y:
                return ZetaVerdict("weil", False, bound, d, x, y)
        return ZetaVerdict("weil", True, bound)
    if kind not in ("goss", "lifted"):
        raise ZetaError(f"unknown comparison kind {kind!r}")
    p = table_a.field.p
    for n, b in table_a.entries.items():
        c = table_b.entries[n]
        if kind == "goss":
            if b % p != c % p:
                return ZetaVerdict(kind, False, bound, n, b % p, c % p)
        elif b != c:
            return ZetaVerdict(kind, False, bound, n, b, c)
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
    for n, b in table.entries.items():
        expect = 1 if _is_power(n, order_g) else 0
        if b % p != expect:
            return False, n
    return True, None


def _is_power(n, k):
    if k == 1:
        return True
    if n.degree % k:
        return False
    if n.degree == 0:
        return True
    K = n.field
    d = n.degree // k
    for m in poly.enumerate_monic(K, d):
        if poly.ppow(K, m.coeffs, k) == n.coeffs:
            return True
    return False


# --- table text round trip ---


def dump_table(table, path=None):
    """One line per entry, '<poly> <B(n)>', with a header comment."""
    name = str(table.ext_name).replace(" ", "_")
    lines = [f"# ext={name} p={table.field.p} m={table.field.m} "
             f"D={table.bound}"]
    for n, b in table.entries.items():
        lines.append(f"{n} {b}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise ZetaError(f"cannot write table to {path}: {e}") from None
    return text


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
    table = {}
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
        if n in table:
            raise ZetaError(f"table line {lineno}: {n} is listed twice")
        table[n] = b
    # a full table of bound D holds every monic of degree D; checked first,
    # so a huge header bound never reaches the count below
    top = max((n.degree for n in table), default=-1)
    if bound > top:
        raise ZetaError(
            f"table header has D={bound}, but its largest degree is {top}")
    expected = (K.q ** (bound + 1) - 1) // (K.q - 1)
    if len(table) != expected:
        raise ZetaError(
            f"table holds {len(table)} moduli; D={bound} needs all {expected} "
            f"monic polynomials of degree <= {bound}")
    entries = dict(sorted(table.items(), key=lambda item: item[0].sort_key()))
    return DirichletTable(name, K, bound, entries)


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
