"""Finite fields with table-driven arithmetic.

A FiniteField is F_q for q = p^m with a fixed monic irreducible modulus
over F_p.  Elements are plain ints in range(q): the base-p digits of the
int are the coordinates with respect to the power basis 1, g, .., g^(m-1),
where g is the residue class of the modulus variable.  All element
operations are precomputed lookup tables, so they never allocate; the
size bound FIELD_SIZE_BOUND keeps the tables small.

ZechField models F_{q^d} over a FiniteField F_q, one per degree d, built
on first use and cached on the base field.  Elements are again ints,
whose base-q digits are coordinates over F_q, and arithmetic goes through
exp/log/Zech tables of length q^d; the exp table is stepped out for
(q^d - 1)/(q - 1) powers only, the rest being scalar multiples of those.
Its Frobenius orbits are the monic irreducibles of degree d over F_q, as
coefficient tuples, each kept with one root, found one class of PGL(2, q)
at a time.  That is how ideal-count tables read off splitting types:
root_logs and root_values evaluate a polynomial over F_q at all those
roots in one pass, traceless tells which values have trace 0 down to
F_p, and value_counts tallies a polynomial's values on the whole field,
for the root counts that neither gives.

ResidueField models F_q[T]/(pi) for one irreducible pi over a table
field.  Its elements are fixed-width tuples of base-field ints, with
coordinatewise arithmetic; it serves single-prime queries.

Both models carry only what distinct-degree factoring over them calls
(zero, one, p, order, add, neg, mul, inv, pth_power); FiniteField
carries the whole protocol of poly.py.

The modulus of F_{p^m} is the lexicographically smallest monic
irreducible of degree m, comparing coefficient sequences low to high with
coefficients as integers 0..p-1.  Examples: X^2+X+1 over F_2, X^2+1 over
F_3.  This pins down a single canonical model per (p, m).  F_p adds and
multiplies mod p.  F_{p^m}, m >= 2, is read off the ZechField of degree m
over F_p, whose irreducibles come in this same order: the first is the
modulus, and the add and mul tables are the model's arithmetic carried
back along a = sum a_i g^i, for g the root of the modulus that the model
keeps.  Every power is poly.power.
"""

import functools
import itertools
import operator

from . import poly
from .errors import FieldError

FIELD_SIZE_BOUND = 256
# elements per step when ZechField builds its arrays through Python ints
_CHUNK = 1 << 16


def _is_prime(n):
    return poly.prime_factors(n) == [n]


class FiniteField:
    """F_q, q = p^m <= FIELD_SIZE_BOUND, elements encoded as ints 0..q-1."""

    def __init__(self, p, m=1):
        if m < 1:
            raise FieldError(f"extension degree {m} must be positive")
        # before the primality test (trial division); m > 8 is past 2^8 anyway
        if p >= 2 and (m > 8 or p ** m > FIELD_SIZE_BOUND):
            raise FieldError(f"field size {p}^{m} exceeds bound {FIELD_SIZE_BOUND}")
        if not _is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        q = p ** m
        self.p = p
        self.m = m
        self.q = q
        self.order = q
        self.zero = 0
        self.one = 1
        self.generator = p if m > 1 else None
        self._zech_cache = {}
        if m == 1:
            self.modulus = (0, 1)
            self._add = [[(a + b) % p for b in range(q)] for a in range(q)]
            self._mul = [[a * b % p for b in range(q)] for a in range(q)]
        else:
            self.modulus, self._add, self._mul = _zech_tables(p, m)
        self._neg = [row.index(0) for row in self._add]
        self._inv = [None] + [self.pow_(a, q - 2) for a in range(1, q)]
        self._pth = pth = [self.pow_(a, p) for a in range(q)]
        pthroot = [None] * q
        for a in range(q):
            pthroot[pth[a]] = a
        self._pthroot = pthroot

    # element encoding helpers

    def coords(self, a):
        """Base-p digits of the element, low to high, length m."""
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def element_from_coords(self, digits):
        a = 0
        for d in reversed(tuple(digits)):
            a = a * self.p + d % self.p
        return a

    def elements(self):
        return range(self.q)

    # arithmetic

    def add(self, a, b):
        return self._add[a][b]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise FieldError("inverse of zero")
        return self._inv[a]

    def from_int(self, k):
        return k % self.p

    def pth_power(self, a):
        return self._pth[a]

    def pth_root(self, a):
        return self._pthroot[a]

    def pow_(self, a, e):
        if e < 0:
            a = self.inv(a)
            e = -e
        return poly.power(self.mul, 1, a, e)

    def zech_field(self, d):
        """The model of F_{q^d} over this field, built on first use."""
        model = self._zech_cache.get(d)
        if model is None:
            model = self._zech_cache[d] = ZechField(self, d)
        return model

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and self.p == other.p and self.m == other.m
                and self.modulus == other.modulus)

    def __repr__(self):
        return f"GF({self.q})"


def _zech_tables(p, m):
    """(modulus, add table, mul table) of F_{p^m}, m >= 2, read off the
    degree-m model Z over F_p (see the module docstring).  Both encode F_p
    as the ints below p, so phi(a) = sum a_i g^i is phi(a) = a_0 + g phi(a')
    for a = a_0 + p a', by Horner's rule."""
    Z = gf_create(p).zech_field(m)
    primes, roots = Z.irreducibles()
    g = roots[0]
    phi = [0] * Z.order
    for a in range(1, Z.order):
        phi[a] = Z.add(a % p, Z.mul(g, phi[a // p]))
    back = [0] * Z.order
    for a, x in enumerate(phi):
        back[x] = a
    add = [[back[Z.add(x, y)] for y in phi] for x in phi]
    mul = [[back[Z.mul(x, y)] for y in phi] for x in phi]
    return primes[0], add, mul


@functools.lru_cache(maxsize=None)
def gf_create(p, m=1):
    """The canonical F_{p^m} with the lexicographically smallest modulus."""
    return FiniteField(p, m)


def _primitive_modulus(K, d):
    """Lexicographically first monic g of degree d over K in which Y has
    order q^d - 1: the first candidate that passes Rabin's test and whose
    Y^((q^d - 1)/r) differs from 1 for every prime r dividing q^d - 1.
    For d >= 2 a candidate with a root in F_q is skipped before Rabin's
    test, and the powers of Y are taken in the residue field F_q[Y]/(g).

    Only constant terms g(0) whose (-1)^d g(0), the norm of Y down to
    F_q, generates F_q^* are tried: the norm of a generator of
    F_{q^d}^* generates F_q^*.  The constant term varies slowest in the
    candidate order, so skipping it whole keeps that order.  The same
    filter settles the primes r dividing q - 1, since there
    Y^((q^d - 1)/r) = N(Y)^((q - 1)/r), so only the other primes are tested.
    """
    n = K.q ** d - 1
    units = poly.prime_factors(K.q - 1)
    cofactors = [n // r for r in poly.prime_factors(n) if r not in units]
    sign = K.one if d % 2 == 0 else K.neg(K.one)
    constants = [c for c in range(1, K.q)
                 if all(K.pow_(K.mul(sign, c), (K.q - 1) // r) != K.one
                        for r in units)]
    add, mul = K._add, K._mul

    def has_root(g):
        for row in mul[1:]:
            v = 0
            for c in reversed(g):
                v = add[row[v]][c]
            if not v:
                return True
        return False

    def primitive(g):
        R = ResidueField(K, g)
        y = R.project((0, 1))
        return all(poly.power(R.mul, R.one, y, e) != R.one for e in cofactors)

    for c in constants:
        for upper in itertools.product(range(K.q), repeat=d - 1):
            g = (c,) + upper + (K.one,)
            if not (d > 1 and has_root(g)) and poly.is_irreducible(K, g) and primitive(g):
                return g
    raise FieldError("no primitive modulus found")  # unreachable


class ZechField:
    """F_{q^d} over a table field F_q, with exp/log/Zech arithmetic.

    An element is an int whose base-q digits, low to high, are its
    coordinates in F_q[Y]/(g), where g is the modulus chosen by
    _primitive_modulus.  The ints below q are then exactly the elements of
    F_q in the base field's own encoding, so polynomials over F_q evaluate
    here unchanged and minimal polynomials come out as base-field tuples.
    Y generates the multiplicative group: exp[k] = Y^k for
    0 <= k < q^d - 1, log inverts exp on nonzero elements and holds -1 at
    0, and zech[k] is the log of 1 + Y^k, or -1 where that sum is zero
    (Huber, "Some comments on Zech's logarithms", IEEE Trans. IT 1990).
    Implements what distinct-degree factoring uses of poly.py's element
    protocol.
    """

    def __init__(self, base, d):
        if d < 1:
            raise FieldError("extension degree must be positive")
        q = base.q
        self.base = base
        self.deg = d
        self.p = base.p
        self.order = q ** d
        self.zero = 0
        self.one = 1
        self.modulus = _primitive_modulus(base, d)
        n = self.order - 1
        self._n = n
        self._half = n // 2 if self.p != 2 else 0  # log of -1
        add, mul, neg = base._add, base._mul, base._neg
        # Y * x shifts the digits of x up one place and subtracts top * g
        # from the low digits, of which only the nonzero ones of g change.
        # After the shift the constant digit is zero (g(0) != 0 as g is
        # irreducible), so top * -g(0) is its new value; at every other
        # place i, steps[top] holds the change of x for each old digit.
        const = neg[self.modulus[0]]
        low = [(q ** i, neg[c]) for i, c in enumerate(self.modulus[1:-1], 1) if c]
        steps = [None] + [
            (mul[top][const],
             [(place, [(add[digit][mul[top][c]] - digit) * place for digit in range(q)])
              for place, c in low])
            for top in range(1, q)]
        top_place = q ** (d - 1)
        # int arrays, not lists: no int object per entry (q^d < 2^31 always).
        # array is a shared library; loading it here spares every CLI start.
        from array import array
        exp = array('i', [0]) * n
        log = array('i', [0]) * self.order
        # Y^k for k below (q^d - 1)/(q - 1), step by step; then
        # Y^(k + i step) = c^i Y^k with c = Y^step in F_q^*, and c^i scales
        # each base-q digit, so each later block is one pass over the first
        step = n // (q - 1)
        x = 1
        for k in range(step):
            exp[k] = x
            log[x] = k
            top, rest = divmod(x, top_place)
            x = rest * q
            if top:
                x_const, changes = steps[top]
                x += x_const
                for place, change in changes:
                    x += change[x // place % q]
        h = d // 2
        lo_place = q ** h
        first = exp[:step]
        c = x
        for start in range(step, n, step):
            row = mul[c]
            lo = _digit_table(q, h, lambda i, a: row[a] * q ** i)
            hi = _digit_table(q, d - h, lambda i, a: row[a] * q ** (h + i))
            for i in range(0, step, _CHUNK):
                block = array('i', [lo[v % lo_place] + hi[v // lo_place]
                                    for v in first[i:i + _CHUNK]])
                exp[start + i:start + i + len(block)] = block
                for k, v in enumerate(block, start + i):
                    log[v] = k
            c = mul[c][x]
        # zech = log o (+1) o exp.  x + 1 changes the constant digit only, so
        # +1 maps the elements with constant digit c, the slice c::q, onto
        # the slice that starts at c + 1, in order: log o (+1) is q slice
        # copies of log.  zech is read off it in chunks, so that no list of
        # q^d ints is ever held.
        log[0] = -1
        log_plus_one = log[:]
        for c in range(q):
            log_plus_one[c::q] = log[add[c][1]::q]
        zech = array('i')
        for i in range(0, n, _CHUNK):
            zech += array('i', [log_plus_one[x] for x in exp[i:i + _CHUNK]])
        self._exp, self._log, self._zech = exp, log, zech
        self._irreducibles = None

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        log, n = self._log, self._n
        la = log[a]
        z = self._zech[(log[b] - la) % n]
        return 0 if z < 0 else self._exp[(la + z) % n]

    def neg(self, a):
        if not a:
            return 0
        return self._exp[(self._log[a] + self._half) % self._n]

    def mul(self, a, b):
        if not a or not b:
            return 0
        log = self._log
        return self._exp[(log[a] + log[b]) % self._n]

    def inv(self, a):
        if not a:
            raise FieldError("inverse of zero")
        return self._exp[-self._log[a] % self._n]

    def pth_power(self, a):
        if not a:
            return 0
        return self._exp[self._log[a] * self.p % self._n]

    def _log_sums(self, coeffs, logs):
        """For each k in logs, the log of c(Y^k), or -1 where it is 0, for
        a polynomial c over the base field: c_i Y^(ik) is
        Y^(log c_i + ik), and the terms are summed by Zech additions."""
        log, zech, n = self._log, self._zech, self._n
        terms = [(i, log[c]) for i, c in enumerate(coeffs) if c]
        out = []
        for k in logs:
            v = -1
            for i, lc in terms:
                t = (lc + i * k) % n
                if v < 0:
                    v = t
                else:
                    z = zech[t - v]  # a negative index wraps mod n = len(zech)
                    v = -1 if z < 0 else (v + z) % n
            out.append(v)
        return out

    def root_logs(self, coeffs):
        """The log of c(alpha), or -1 where it is 0, for a polynomial c over
        the base field at the root alpha of each prime of irreducibles(),
        in its order: one pass on logs (see _log_sums)."""
        log, roots = self._log, self.irreducibles()[1]
        c0 = log[coeffs[0]] if coeffs else -1
        if len(coeffs) <= 1:
            return [c0] * len(roots)
        logs = self._log_sums(coeffs, [log[a] for a in roots])
        return [v if a else c0 for a, v in zip(roots, logs)]

    def root_values(self, coeffs):
        """c(alpha) at the kept root of each prime, as root_logs reads it."""
        exp = self._exp
        return [exp[v] if v >= 0 else 0 for v in self.root_logs(coeffs)]

    def value_counts(self, coeffs):
        """N with N[v] = #{beta in this field : A(beta) = v}, in one pass.

        A is given by coefficients over the base field, low to high, and
        is evaluated on logs, as by root_values.  N is a bytearray
        indexed by element, so deg A must stay below 256.
        """
        exp = self._exp
        counts = bytearray(self.order)
        counts[coeffs[0]] = 1  # beta = 0
        for v in self._log_sums(coeffs, range(self._n)):
            counts[exp[v] if v >= 0 else 0] += 1
        return counts

    def traceless(self, values):
        """For each element v, whether Tr(v) = 0, for Tr the trace from
        this field down to F_p.

        Tr is F_p-linear in the base-p digits of v, so it is the sum of a
        term read off the low half of those digits and one read off the
        high half; the second table holds minus its term, so Tr(v) = 0
        exactly when the two lookups agree.  The tables are built from Tr
        of the single-digit elements p^j, each a sum of md conjugates.
        """
        p, n = self.p, self._n
        digits = self.deg * self.base.m
        conjugates = [p ** j % n for j in range(digits)]
        traces = []
        for j in range(digits):
            lg = self._log[p ** j]
            t = 0
            for e in conjugates:
                t = self.add(t, self._exp[lg * e % n])
            traces.append(t)
        h = digits // 2
        lo = _digit_table(p, h, lambda i, a: a * traces[i])
        hi = _digit_table(p, digits - h, lambda i, a: a * traces[h + i])
        lo, minus_hi, place = [t % p for t in lo], [-t % p for t in hi], p ** h
        return [lo[v % place] == minus_hi[v // place] for v in values]

    def irreducibles(self):
        """The monic irreducibles of degree d over the base, with one root each.

        Returns (primes, roots): primes as coefficient tuples over the
        base, low to high, in enumeration order (as tuples, ascending),
        and roots[i] a root of primes[i] in this field, the power Y^k of
        least k.  The nonzero elements of degree d are the Y^k whose
        Frobenius orbit k, qk, q^2 k, ... mod q^d - 1 has length exactly
        d, and each orbit is the root set of one prime.  In degree 1, T
        joins with root 0.

        Only one prime per class of the group generated by Frobenius and
        the Moebius maps alpha -> c alpha (c in F_q^*), alpha -> 1/alpha
        and alpha -> alpha + 1, which make up PGL(2, q), is a _minpoly
        product.  On logs the three maps are k -> k + (q^d - 1)/(q - 1)
        (c = Y^((q^d - 1)/(q - 1)) generates F_q^*), k -> -k and
        k -> zech[k].  If f = sum f_i X^i is the minimal polynomial of
        alpha, that of c alpha is sum c^(d-i) f_i X^i, that of 1/alpha is
        X^d f(1/X) / f_0 (Lidl and Niederreiter, Finite Fields, 3.1) and
        that of alpha + 1 is f(X - 1).  Scaling and inversion cost d + 1
        base-field products, so a class takes one Taylor shift for each
        of its orbits under those two.  Every class meets the logs below
        (q^d - 1)/(q - 1), so only those are walked.
        """
        if self._irreducibles is None:
            K = self.base
            q, n, d, exp, zech = K.q, self._n, self.deg, self._exp, self._zech
            mul, inv = K._mul, K._inv
            step = n // (q - 1)
            # scales[i]: the rows of c^d, c^(d-1), .., c^0 for c = Y^(i step)
            scales = [[mul[K.pow_(exp[i * step], d - j)] for j in range(d + 1)]
                      for i in range(q - 1)]
            frobenius = [q ** i % n for i in range(d)]
            shift = _taylor_shift(K, d)
            found = [(b"\0\1", (0, 1), 0)] if d == 1 else []
            seen = bytearray(n)
            todo = []  # kept (log, prime) whose alpha + 1 is still to be tried

            def keep(j, f):
                """Keep the unseen prime f with root Y^j and every prime
                that scaling and inversion make from it."""
                for start, g in ((j, f), (-j % n, None)):
                    for i, rows in enumerate(scales):
                        s = (start + i * step) % n
                        if seen[s]:
                            continue
                        if g is None:
                            row = mul[inv[f[0]]]
                            g = tuple([row[c] for c in reversed(f)])
                        h = tuple(map(list.__getitem__, rows, g)) if i else g
                        logs = [s * e % n for e in frobenius]
                        for e in logs:
                            seen[e] = 1
                        found.append((bytes(h), h, exp[min(logs)]))
                        todo.append((s, h))

            for k in range(step):
                if seen[k]:
                    continue
                logs = [k * e % n for e in frobenius]
                if logs.count(k) != 1:
                    continue  # a root of lower degree
                keep(k, self._minpoly(logs))
                while todo:
                    j, f = todo.pop()
                    t = zech[j]
                    if t >= 0 and not seen[t]:
                        keep(t, shift(f))
            found.sort()
            self._irreducibles = ([c for _, c, _ in found],
                                  [root for _, _, root in found])
        return self._irreducibles

    def _minpoly(self, logs):
        """The product of X - Y^k over the given logs, as a coefficient tuple.

        Coefficients are kept as logs, -1 for zero, so each step is one
        Zech addition per coefficient on the tables themselves.
        """
        exp, zech, n, half = self._exp, self._zech, self._n, self._half
        c = [0]
        for k in logs:
            # c * (X - Y^k): shift c up one place, then add -Y^k * c
            m = k + half
            shifted = [-1] + c
            for i, ci in enumerate(c):
                if ci < 0:
                    continue
                b = (ci + m) % n
                a = shifted[i]
                if a < 0:
                    shifted[i] = b
                else:
                    z = zech[b - a]  # a negative index wraps mod n = len(zech)
                    shifted[i] = -1 if z < 0 else (a + z) % n
            c = shifted
        return tuple(exp[ci] if ci >= 0 else 0 for ci in c)

    def __repr__(self):
        return f"ZechField({self.base!r}, deg={self.deg})"


def _digit_table(q, digits, term):
    """t[x] = the sum of term(i, x_i) over the base-q digits x_i of x, for
    every x below q^digits."""
    t = [0]
    for i in range(digits):
        terms = [term(i, a) for a in range(q)]
        t = [v + w for w in terms for v in t]
    return t


def byte_residues(K, d):
    """b % p for each byte b if polynomials of degree d over K multiply
    one coefficient per byte of an int, else None: over F_p with
    (d + 1)(p - 1)^2 < 256 no coefficient of a product leaves its byte."""
    if K.q == K.p and (d + 1) * (K.p - 1) ** 2 < 256:
        return bytes(b % K.p for b in range(256))
    return None


def _taylor_shift(K, d):
    """The map f -> f(X - 1) on polynomials of degree d over the table
    field K.

    Where byte_residues allows it, f(X - 1) = sum f_i (X - 1)^i is one
    sum of products of small ints with ints whose bytes are the
    coefficients of (X - 1)^i reduced mod p: no coefficient of the sum
    carries out of its byte, and bytes.translate reduces it mod p.  Other
    fields shift by Horner's rule on the base field's tables.
    """
    p = K.p
    residues = byte_residues(K, d)
    if residues:
        rows = []
        binomial = [1]  # (X - 1)^i, constant first
        for _ in range(d + 1):
            rows.append(int.from_bytes(bytes(binomial), "little"))
            binomial = [(a - b) % p for a, b in zip([0] + binomial, binomial + [0])]
        return lambda f: tuple(sum(map(operator.mul, f, rows))
                               .to_bytes(d + 1, "little").translate(residues))
    add, neg = K._add, K._neg

    def shift(f):
        c = list(f)
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                c[j] = add[c[j]][neg[c[j + 1]]]
        return tuple(c)
    return shift


class ResidueField:
    """F_q[T]/(pi) for monic irreducible pi over a table field.

    Elements are tuples of base-field ints of fixed width deg(pi).  Used
    as the coefficient field when factoring a defining polynomial modulo
    a prime of F_q[T].
    """

    def __init__(self, base, modulus):
        modulus = poly.ptrim(base, modulus)
        d = poly.pdeg(modulus)
        if d < 1 or modulus[-1] != base.one:
            raise FieldError("residue field modulus must be monic of degree >= 1")
        self.base = base
        self.modulus = modulus
        self.deg = d
        self.p = base.p
        self.order = base.q ** d
        self.zero = (0,) * d
        self.one = (1,) + (0,) * (d - 1)
        self._rows = poly._reduction_rows(base, modulus, 2 * d - 2)

    def project(self, f):
        """Reduce a polynomial over the base field into the residue field."""
        r = poly.pmod(self.base, f, self.modulus)
        return tuple(r) + (0,) * (self.deg - len(r))

    def add(self, a, b):
        t = self.base._add
        return tuple(t[x][y] for x, y in zip(a, b))

    def neg(self, a):
        n = self.base._neg
        return tuple(n[x] for x in a)

    def mul(self, a, b):
        base = self.base
        d = self.deg
        add_t, mul_t = base._add, base._mul
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                rowx = mul_t[x]
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] = add_t[prod[i + j]][rowx[y]]
        acc = [0] * d
        rows = self._rows
        for k, c in enumerate(prod):
            if c:
                rowc = mul_t[c]
                rk = rows[k]
                for i in range(d):
                    r = rk[i]
                    if r:
                        acc[i] = add_t[acc[i]][rowc[r]]
        return tuple(acc)

    def inv(self, a):
        al = poly.ptrim(self.base, a)
        if not al:
            raise FieldError("inverse of zero")
        # extended euclid over the base field
        base = self.base
        r0, r1 = self.modulus, al
        s0, s1 = (), (base.one,)
        while r1:
            q, r = poly.pdivmod(base, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, poly.psub(base, s0, poly.pmul(base, q, s1))
        lead = base.inv(r0[-1])
        s0 = poly.pscale(base, lead, s0)
        return tuple(s0) + (0,) * (self.deg - len(s0))

    def pth_power(self, a):
        return poly.power(self.mul, self.one, a, self.p)

    def __repr__(self):
        return f"ResidueField({self.base!r}, deg={self.deg})"
