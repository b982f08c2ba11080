"""Dense univariate polynomial arithmetic over a field object.

Polynomials are tuples of field elements, constant term first, with no
trailing zeros; the zero polynomial is the empty tuple.  Every polynomial
function takes the coefficient field K as its first argument and, unless
its docstring asks for a table field, only uses the small protocol
shared by field.FiniteField, field.ZechField and field.ResidueField:

    K.zero, K.one, K.p, K.order
    K.add(a, b), K.neg(a), K.mul(a, b), K.inv(a), K.pth_power(a)

K.from_int(k), K.pth_root(a) and K.elements() are used only over table
fields, by factor_monic (whose squarefree step takes p-th roots),
pderiv, equal_degree_split and enumerate_monic.

Each algorithm of the package has one implementation here: power is the
square-and-multiply behind every power of a field element, polynomial,
Laurent series or Witt structure polynomial; is_irreducible is Rabin's
test; factor_monic factors by squarefree parts, distinct-degree parts
and equal-degree splitting, with no model of an extension field.

A monic polynomial over a table field, a prime above all, is its
coefficient tuple wherever it goes: a config, a query, a factor, a
discriminant, a table.  Its enumeration order is by degree, then by
coefficients read low to high, the sort key (len(f), f).
"""

import functools
import itertools

from .errors import PolyError


def ptrim(K, c):
    c = list(c)
    z = K.zero
    while c and c[-1] == z:
        c.pop()
    return tuple(c)


def pdeg(f):
    """Degree, with the zero polynomial at -1."""
    return len(f) - 1


def padd(K, f, g):
    if len(f) < len(g):
        f, g = g, f
    add = K.add
    out = list(f)
    for i, c in enumerate(g):
        out[i] = add(out[i], c)
    return ptrim(K, out)


def pneg(K, f):
    neg = K.neg
    return tuple(neg(c) for c in f)


def psub(K, f, g):
    return padd(K, f, pneg(K, g))


def pscale(K, a, f):
    if a == K.zero:
        return ()
    mul = K.mul
    return ptrim(K, [mul(a, c) for c in f])


def pmul(K, f, g):
    if not f or not g:
        return ()
    add, mul, z = K.add, K.mul, K.zero
    out = [z] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == z:
            continue
        for j, b in enumerate(g):
            out[i + j] = add(out[i + j], mul(a, b))
    return ptrim(K, out)


def pdivmod(K, f, g):
    """Quotient and remainder; g must be nonzero."""
    if not g:
        raise PolyError("division by the zero polynomial")
    if len(f) < len(g):
        return (), f
    add, mul, neg, z = K.add, K.mul, K.neg, K.zero
    ilead = K.inv(g[-1])
    rem = list(f)
    dq = len(f) - len(g)
    quo = [z] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + len(g) - 1]
        if c == z:
            continue
        q = mul(c, ilead)
        quo[k] = q
        for j, b in enumerate(g):
            rem[k + j] = add(rem[k + j], neg(mul(q, b)))
    return ptrim(K, quo), ptrim(K, rem)


def pmod(K, f, g):
    return pdivmod(K, f, g)[1]


def pdivexact(K, f, g):
    q, r = pdivmod(K, f, g)
    if r:
        raise PolyError("inexact polynomial division")
    return q


def pmonic(K, f):
    if not f:
        return ()
    if f[-1] == K.one:
        return f
    return pscale(K, K.inv(f[-1]), f)


def pgcd(K, f, g):
    while g:
        f, g = g, pmod(K, f, g)
    return pmonic(K, f)


def power(mul, one, x, e):
    """x to the power e >= 0 by square-and-multiply: starting from one,
    r = mul(r, x) at each set bit of e, low bit first, squaring x between
    bits.  Every power in the package goes through here."""
    r = one
    while e:
        if e & 1:
            r = mul(r, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return r


def pderiv(K, f):
    out = []
    for i in range(1, len(f)):
        out.append(K.mul(K.from_int(i), f[i]))
    return ptrim(K, out)


def ppow(K, f, e):
    return power(functools.partial(pmul, K), (K.one,), f, e)


# --- factorization into degrees ---


def _reduction_rows(K, f, maxdeg):
    """X^k mod f for k = 0..maxdeg, as fixed-width coefficient tuples; f monic."""
    d = pdeg(f)
    if d < 1:
        raise PolyError("reduction rows need a modulus of degree at least 1")
    z, one = K.zero, K.one
    zeros = (z,) * d
    rows = [zeros[:k] + (one,) + zeros[k + 1:] for k in range(min(d, maxdeg + 1))]
    if maxdeg < d:
        return rows
    add, mul = K.add, K.mul
    top = tuple(K.neg(c) for c in f[:-1])
    rows.append(top)
    cur = top
    for _ in range(d + 1, maxdeg + 1):
        lead = cur[-1]
        nxt = [z] + list(cur[:-1])
        if lead != z:
            for i in range(d):
                ti = top[i]
                if ti != z:
                    nxt[i] = add(nxt[i], mul(lead, ti))
        cur = tuple(nxt)
        rows.append(cur)
    return rows


def _frobenius_mod(K, h, f, rows):
    """h^p mod f via the characteristic p power map on coefficients."""
    d = pdeg(f)
    p = K.p
    add, mul, z = K.add, K.mul, K.zero
    pth = K.pth_power
    acc = [z] * d
    for i, c in enumerate(h):
        if c == z:
            continue
        cp = pth(c)
        for j, rj in enumerate(rows[i * p]):
            if rj != z:
                acc[j] = add(acc[j], mul(cp, rj))
    return ptrim(K, acc)


def field_power_mod(K, h, f, rows):
    """h^order(K) mod f, for monic f of degree d >= 1, given the reduction
    rows of f through degree (d - 1) * p (_reduction_rows)."""
    steps = 1
    q = K.order
    p = K.p
    while p ** steps < q:
        steps += 1
    if p ** steps != q:
        raise PolyError("field order is not a prime power")
    for _ in range(steps):
        h = _frobenius_mod(K, h, f, rows)
    return h


def prime_factors(n):
    """The distinct primes dividing n, ascending; [] for n < 2."""
    out = []
    k = 2
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            while n % k == 0:
                n //= k
        k += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(K, g):
    """Rabin's test: monic g of degree d >= 1 is irreducible over K exactly
    when Y^(q^d) = Y mod g and gcd(Y^(q^(d/r)) - Y, g) = 1 for each prime
    r dividing d."""
    d = pdeg(g)
    rows = _reduction_rows(K, g, max(d - 1, (d - 1) * K.p))
    y = pmod(K, (K.zero, K.one), g)
    powers = [y]
    for _ in range(d):
        powers.append(field_power_mod(K, powers[-1], g, rows))
    return powers[d] == y and all(
        pdeg(pgcd(K, psub(K, powers[d // r], y), g)) == 0
        for r in prime_factors(d))


def pth_root_poly(K, f):
    """For f with zero derivative, the g with g^p = f."""
    p = K.p
    out = []
    for i in range(0, len(f), p):
        out.append(K.pth_root(f[i]))
    for i, c in enumerate(f):
        if i % p and c != K.zero:
            raise PolyError("polynomial is not a p-th power")
    return ptrim(K, out)


def squarefree_decomposition(K, f):
    """Monic f as a product of squarefree parts: dict multiplicity -> part."""
    out = {}
    _squarefree_into(K, pmonic(K, f), 1, out)
    return out


def _squarefree_into(K, f, scale, out):
    if pdeg(f) <= 0:
        return
    fp = pderiv(K, f)
    if not fp:
        _squarefree_into(K, pth_root_poly(K, f), scale * K.p, out)
        return
    c = pgcd(K, f, fp)
    w = pdivexact(K, f, c)
    i = 1
    while pdeg(w) > 0:
        y = pgcd(K, w, c)
        z = pdivexact(K, w, y)
        if pdeg(z) > 0:
            m = i * scale
            out[m] = pmul(K, out.get(m, (K.one,)), z)
        w = y
        c = pdivexact(K, c, y)
        i += 1
    _squarefree_into(K, c, scale, out)


def distinct_degree_parts(K, f):
    """[(e, g_e)] for squarefree monic f, e ascending: g_e is the product of
    the irreducible factors of f of degree e, for each e that occurs."""
    parts = []
    d = pdeg(f)
    rows = _reduction_rows(K, f, max((d - 1) * K.p, d))
    x = ptrim(K, (K.zero, K.one))
    h = pmod(K, x, f)
    e = 1
    while 2 * e <= pdeg(f):
        h = field_power_mod(K, h, f, rows)
        g = pgcd(K, psub(K, h, x), f)
        if pdeg(g) > 0:
            parts.append((e, g))
            f = pdivexact(K, f, g)
            if pdeg(f) == 0:
                return parts
            rows = _reduction_rows(K, f, max((pdeg(f) - 1) * K.p, pdeg(f)))
            h = pmod(K, h, f)
        e += 1
    if pdeg(f) > 0:
        parts.append((pdeg(f), f))
    return parts


def distinct_degree_counts(K, f):
    """Dict degree -> number of irreducible factors, for squarefree monic f."""
    return {e: pdeg(g) // e for e, g in distinct_degree_parts(K, f)}


def equal_degree_split(K, g, e):
    """The monic irreducible factors, in no fixed order, of squarefree monic
    g over a table field F_q, q = p^m, whose factors all have degree e
    (Cantor and Zassenhaus, Math. Comp. 36, 1981).

    For a residue h mod g, the absolute trace t = h + h^p + ... +
    h^(p^(me-1)) mod g is an element of F_p modulo each factor, so g is
    the product of gcd(t - c, g) over c in F_p.  The trials h run over the
    residues of degree 1 .. deg(g) - 1 in a fixed order, so the split is
    deterministic, and one always exists: for distinct factors P, P',
    h |-> trace(h mod P) - trace(h mod P') is a nonzero F_p-linear map
    that vanishes on the constants, so not on every other residue.
    """
    d = pdeg(g)
    if d == e:
        return [g]
    rows = _reduction_rows(K, g, (d - 1) * K.p)
    trials = (lower + (lead,) for k in range(1, d)
              for lead in K.elements() if lead != K.zero
              for lower in itertools.product(K.elements(), repeat=k))
    for h in trials:
        t = h
        for _ in range(K.m * e - 1):
            h = _frobenius_mod(K, h, g, rows)
            t = padd(K, t, h)
        parts = []
        rest = g
        for c in range(K.p):
            part = pgcd(K, psub(K, t, (K.from_int(c),)), rest)
            if pdeg(part) > 0:
                parts.append(part)
                rest = pdivexact(K, rest, part)
                if pdeg(rest) == 0:
                    break
        if len(parts) > 1:
            return [f for part in parts for f in equal_degree_split(K, part, e)]
    raise PolyError("equal-degree splitting found no split")  # unreachable


# --- monic polynomials over a table field ---


def enumerate_monic(field, d):
    """All monic degree-d polynomials, ordered by coefficients low to high."""
    if d < 0:
        raise PolyError("negative degree")
    one = (field.one,)
    return [lower + one for lower in itertools.product(field.elements(), repeat=d)]


def factor_monic(field, coeffs):
    """Factor a nonzero polynomial over a table field into monic irreducibles.

    The unit leading coefficient is discarded.  Returns ((prime, mult), ...)
    with primes as coefficient tuples in enumeration order.  Squarefree
    parts, then their distinct-degree parts, then equal-degree splitting of
    each: no model of any extension field is built.
    """
    coeffs = pmonic(field, ptrim(field, coeffs))
    if not coeffs:
        raise PolyError("cannot factor the zero polynomial")
    out = []
    for mult, part in squarefree_decomposition(field, coeffs).items():
        for e, g in distinct_degree_parts(field, part):
            out.extend((f, mult) for f in equal_degree_split(field, g, e))
    return tuple(sorted(out, key=lambda fm: (len(fm[0]), fm[0])))


def enumerate_monic_irreducibles(field, d):
    """All monic irreducible degree-d polynomials, same order as enumerate_monic.

    Read off the Frobenius orbits of the field's model of F_{q^d} (see
    field.ZechField.irreducibles), which also keeps a root of each prime.
    """
    if d < 1:
        raise PolyError("irreducibles have degree at least 1")
    return list(field.zech_field(d).irreducibles()[0])
