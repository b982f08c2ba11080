"""Finite extensions of F_q(T) and splitting types of primes of F_q[T].

An ExtensionSpec is a monic defining polynomial f in X over A = F_q[T]
together with override data for the finitely many primes where reduction
mod a prime does not tell the truth.  A prime pi not dividing the
discriminant is unramified, f mod pi is squarefree, and the degrees of
its irreducible factors are the inertia degrees above pi (Kummer's
theorem; Stichtenoth, Algebraic Function Fields and Codes, 3.3.7).
A spec is checked once, when it is built: f must be separable, and the
overrides must sit at exactly the primes that divide the discriminant
(off it the type is that of f mod pi, by Dedekind-Kummer), or the spec
is refused, naming the first prime that breaks the rule.  A prime is its
coefficient tuple over F_q, constant term first, as in every module.

So both paths take the override, else the type of an unramified prime.
splitting_type, for one prime given from outside, reduces onto the
residue field A/(pi) and reads the factor degrees of f mod pi.
splitting_types, for all primes of one degree in a table, evaluates at
alpha in the base field's model of F_{q^d}, with alpha the root of pi
kept by ZechField.irreducibles; one pass on logs gives a coefficient's
values at the roots of all primes of the degree (ZechField.root_values).
For a separated cover, f = A(X) + c0(T) with A over F_q, the root count
of f(alpha, X) gives the type when f has X-degree at most 3 or
A = X^p - X.  That count is read off the trace of -c0(alpha) when
A = X^p - X, off log c0(alpha) when A = X^n, and off one sweep of the
model, which counts the roots of A(X) = v for every v, for any other A.
A quadratic, p odd, is separated once its square is completed; any other
cover reads the factor degrees of f(alpha, X), as for one prime.

Config files are sectioned key=value text,

    [field]      p=3  m=1
    [extension]  name=K  poly=X^2 - T
    [override]   prime=T  type=(2,1)

with as many [override] sections as needed (poly= only: a builtin supplies
its own ramified types), or builtin=NAME:k=v,... in place of poly.  Any
other section or key, or a key given twice in a section, is refused.
Values may contain spaces (continuation tokens without '=' are appended),
and '#' starts a comment.  A poly= of X-degree above 1 must pass an
irreducibility test at small primes, or the config is rejected.
"""

import math
import re

from . import poly, textforms
from .errors import ExtensionError
from .field import FiniteField, ResidueField, gf_create

# degree bound for a prime given from outside: its Rabin test and the
# factoring over its residue field already take seconds at this degree
PRIME_DEGREE_BOUND = 200


class SplittingType:
    """Multiset of (ramification index, inertia degree) pairs above a prime.

    Stored sorted ascending by (inertia degree, ramification index), so
    equal multisets have equal pairs.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = tuple(sorted(((int(e), int(f)) for e, f in pairs),
                                  key=lambda ef: (ef[1], ef[0])))
        for e, f in self.pairs:
            if e < 1 or f < 1:
                raise ExtensionError("splitting type entries must be positive")

    @property
    def degree(self):
        return sum(e * f for e, f in self.pairs)

    def inertia_degrees(self):
        """Inertia degrees with multiplicity, sorted ascending."""
        return tuple(sorted(f for _, f in self.pairs))

    def __str__(self):
        return ",".join(f"({e},{f})" for e, f in self.pairs)


class ExtensionSpec:
    """A degree-n extension of F_q(T) given by a monic defining polynomial,
    built only as a valid cover (_validate_cover)."""

    def __init__(self, name, base, xt_coeffs, overrides=None):
        if not isinstance(base, FiniteField):
            raise ExtensionError("base must be a table field")
        xt_coeffs = tuple(poly.ptrim(base, c) for c in xt_coeffs)
        while xt_coeffs and not xt_coeffs[-1]:
            xt_coeffs = xt_coeffs[:-1]
        if len(xt_coeffs) < 2:
            raise ExtensionError("defining polynomial must have X-degree at least 1")
        if xt_coeffs[-1] != (base.one,):
            raise ExtensionError("defining polynomial must be monic in X")
        self.name = str(name)
        self.field = base
        self.xt_coeffs = xt_coeffs
        self.degree = len(xt_coeffs) - 1
        self.overrides = dict(overrides or {})
        for p, st in self.overrides.items():
            _require_monic(base, p)
            if st.degree != self.degree:
                raise ExtensionError(
                    f"override at {textforms.format_tpoly(base, p)} has total "
                    f"degree {st.degree}, expected {self.degree}")
        _validate_cover(self)

    def __repr__(self):
        return f"ExtensionSpec({self.name}, degree {self.degree} over GF({self.field.q}))"

    def poly_text(self):
        return textforms.format_xt_poly(self.field, self.xt_coeffs)


def _require_monic(base, p):
    """Refuse p unless it is a trimmed monic coefficient tuple over base:
    an override key passes this check, then _validate_cover's."""
    if not (isinstance(p, tuple) and p and p[-1] == base.one
            and all(isinstance(c, int) and 0 <= c < base.q for c in p)):
        raise ExtensionError(
            "primes must be monic coefficient tuples over the base field")


def _require_prime(base, p):
    """Refuse a prime given from outside unless it is a monic irreducible
    coefficient tuple over base."""
    _require_monic(base, p)
    if len(p) > PRIME_DEGREE_BOUND + 1:
        raise ExtensionError(
            f"prime degree {len(p) - 1} exceeds bound {PRIME_DEGREE_BOUND}")
    if len(p) < 2:
        raise ExtensionError("the unit polynomial is not a prime")
    if not poly.is_irreducible(base, p):
        raise ExtensionError(f"{textforms.format_tpoly(base, p)} is not irreducible")


def _validate_cover(ext):
    """Refuse an inseparable f, then the first prime in enumeration order
    that divides the discriminant but has no override, then the first
    override at a prime that does not divide it."""
    K = ext.field
    ramified = [prime for prime, _ in poly.factor_monic(K, discriminant(ext))]
    for prime in ramified:
        if prime not in ext.overrides:
            raise ExtensionError(
                f"prime {textforms.format_tpoly(K, prime)} divides the "
                f"discriminant of {ext.name} but has no override")
    stray = sorted(set(ext.overrides) - set(ramified), key=lambda f: (len(f), f))
    if stray:
        raise ExtensionError(
            f"override at {textforms.format_tpoly(K, stray[0])}, which does "
            f"not divide the discriminant of {ext.name}")


# --- builtins ---


def builtin_extension(base, kind, name=None, **params):
    """Named extension families.

    artin_schreier(m): X^p - X - T^m, unramified at every finite prime,
                       for 1 <= m <= textforms.MAX_TEXT_DEGREE.
    kummer_sqrt(c):    X^2 - c, p odd, c squarefree and not a constant
                       square; c's prime factors are overridden as (2,1).
    """
    default, cols, overrides = _builtin_cover(base, kind, params)
    return ExtensionSpec(name or default, base, cols, overrides)


def _builtin_cover(base, kind, params):
    """(default name, X-coefficients, overrides) of a builtin family, from
    a dict of its parameters, which it pops."""
    if kind == "artin_schreier":
        try:
            m = int(params.pop("m"))
        except KeyError:
            raise ExtensionError("artin_schreier needs an exponent m=") from None
        except ValueError:
            raise ExtensionError("artin_schreier exponent m must be an integer") from None
        if params:
            raise ExtensionError(f"unknown artin_schreier parameters {sorted(params)}")
        if not 1 <= m <= textforms.MAX_TEXT_DEGREE:
            raise ExtensionError(
                f"artin_schreier needs 1 <= m <= {textforms.MAX_TEXT_DEGREE}")
        return f"AS_m{m}", textforms.parse_xt_poly(base, f"X^{base.p} - X - T^{m}"), {}
    if kind == "kummer_sqrt":
        if base.p == 2:
            raise ExtensionError("kummer_sqrt needs odd characteristic")
        try:
            c = params.pop("c")
        except KeyError:
            raise ExtensionError("kummer_sqrt needs a radicand c=") from None
        if params:
            raise ExtensionError(f"unknown kummer_sqrt parameters {sorted(params)}")
        if isinstance(c, str):
            c = textforms.parse_tpoly(base, c)
        c = poly.ptrim(base, c)
        if not c:
            raise ExtensionError("kummer_sqrt needs nonzero c")
        if len(c) == 1 and base.pow_(c[0], (base.q - 1) // 2) == base.one:
            raise ExtensionError("kummer_sqrt needs c that is not a square in F_q")
        factors = poly.factor_monic(base, c)
        if any(mult > 1 for _, mult in factors):
            raise ExtensionError("kummer_sqrt needs squarefree c")
        overrides = {prime: SplittingType(((2, 1),)) for prime, _ in factors}
        return "K_sqrt", (poly.pneg(base, c), (), (base.one,)), overrides
    raise ExtensionError(f"unknown builtin extension kind {kind!r}")


def trivial_extension(base, name="F"):
    """The base field itself, presented as X - T."""
    return ExtensionSpec(name, base, ((base.zero, base.neg(base.one)), (base.one,)))


# --- discriminant ---


def discriminant(ext):
    """Monic-normalized resultant of f and df/dX, as a polynomial over F_q.

    A zero resultant (inseparable polynomial) is an error.  The unit
    factor is dropped: a nonzero constant resultant comes back as the
    constant polynomial 1.
    """
    K = ext.field
    f = ext.xt_coeffs
    fp = _xderiv(K, f)
    if not fp:
        raise ExtensionError("defining polynomial is inseparable (zero X-derivative)")
    det = _resultant(K, f, fp)
    if not det:
        raise ExtensionError("defining polynomial is inseparable (zero discriminant)")
    return poly.pmonic(K, det)


def _xderiv(K, cols):
    out = []
    for i in range(1, len(cols)):
        out.append(poly.pscale(K, K.from_int(i), cols[i]))
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _resultant(K, f, g):
    """Res_X of two polynomials in X over A = K[T], via fraction-free elimination."""
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = []
    for i in range(n):
        row = [()] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [()] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    return _bareiss_det(K, rows)


def _bareiss_det(K, mat):
    n = len(mat)
    sign = 1
    prev = (K.one,)
    for k in range(n - 1):
        if not mat[k][k]:
            pivot = next((r for r in range(k + 1, n) if mat[r][k]), None)
            if pivot is None:
                return ()
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        pkk = mat[k][k]
        for i in range(k + 1, n):
            rik = mat[i][k]
            for j in range(k + 1, n):
                num = poly.psub(K, poly.pmul(K, pkk, mat[i][j]),
                                poly.pmul(K, rik, mat[k][j]))
                mat[i][j] = poly.pdivexact(K, num, prev) if num else ()
            mat[i][k] = ()
        prev = pkk
    det = mat[n - 1][n - 1]
    if sign == -1:
        det = poly.pneg(K, det)
    return det


# --- splitting types ---


def splitting_type(ext, prime):
    """Splitting type of a prime of F_q[T] in the extension.

    Overridden primes return their override.  Every other prime is
    unramified, as the spec was validated when it was built, and its type
    is read off the distinct-degree factorization of the defining
    polynomial over the residue field.
    """
    _require_prime(ext.field, prime)
    st = ext.overrides.get(prime)
    if st is not None:
        return st
    R = ResidueField(ext.field, prime)
    return _reduced_type(R, tuple(R.project(c) for c in ext.xt_coeffs))


def splitting_types(ext, d):
    """Yield (prime, splitting type) for every prime of degree d, the
    prime as its coefficient tuple, in enumeration order, each type
    worked out when its pair is taken.

    Overrides win.  Every other prime is unramified, and its type comes
    from f(alpha, X) over the base field's model F of F_{q^d}, where
    alpha is the root of the prime that F keeps (see _unramified_types).
    """
    F = ext.field.zech_field(d)
    type_at = _unramified_types(ext, F)
    for i, prime in enumerate(F.irreducibles()[0]):
        st = ext.overrides.get(prime)
        yield prime, type_at(i) if st is None else st


def _reduced_type(F, fbar):
    """Type of an unramified prime, from f reduced into its residue field F."""
    counts = poly.distinct_degree_counts(F, fbar)
    return SplittingType(tuple((1, f) for f, c in counts.items() for _ in range(c)))


def _unramified_types(ext, F):
    """i -> type of the i-th prime of the model F, for an unramified prime.

    A cover is separated when f = A(X) + c0(T) with A over F_q.  Then the
    type is fixed by r, the number of roots in F of A(X) = v at
    v = -c0(alpha), in three cases.  When A = X^p - X, the roots form a
    coset of F_p, so r is p or 0 (Stichtenoth, Algebraic Function Fields
    and Codes, 3.7), and r = p exactly when the trace of v down to F_p is 0
    (Lidl and Niederreiter, Finite Fields, 2.25): F.traceless.  Else, for
    an unramified prime f(alpha, X) is squarefree, and when n <= 3, r = n
    means (1,1)^n, r = 1 in a cubic means (1,1)(1,2), and r = 0 means
    (1,n).  For A = X^n and v != 0, r = g = gcd(n, q^d - 1) when g divides
    log v and 0 otherwise; any other A of degree n <= 3 takes N[v] from
    one sweep N = F.value_counts(A).  For p odd, X^2 + bX + c is read as
    X^2 - (b^2/4 - c), its roots moved by -b/2, so with the same types.
    Every other cover factors f(alpha, X) by _reduced_type.
    """
    K, n, cols = ext.field, ext.degree, ext.xt_coeffs
    if n == 2 and K.p != 2 and cols[1]:
        b2 = poly.pscale(K, K.inv(K.from_int(4)), poly.pmul(K, cols[1], cols[1]))
        cols = (poly.psub(K, cols[0], b2), (), cols[2])
    a = (0,) + tuple(c[0] if c else 0 for c in cols[1:])
    if all(len(c) <= 1 for c in cols[1:]):
        types = {n: SplittingType(((1, 1),) * n)}
        if n > 1:
            types[0] = SplittingType(((1, n),))
        minus_c0 = poly.pneg(K, cols[0])
        if a == (0, K.neg(K.one)) + (0,) * (K.p - 2) + (1,):
            split = F.traceless(F.root_values(minus_c0))
            return lambda i: types[n if split[i] else 0]
        if n <= 3:
            if n == 3:
                types[1] = SplittingType(((1, 1), (1, 2)))
            if not any(a[1:-1]):
                g = math.gcd(n, F.order - 1)
                logs = F.root_logs(minus_c0)
                return lambda i: types[0 if logs[i] % g else g]
            counts = F.value_counts(a)
            values = F.root_values(minus_c0)
            return lambda i: types[counts[values[i]]]
    values = [F.root_values(c) for c in cols]
    return lambda i: _reduced_type(F, tuple(v[i] for v in values))


# --- config parsing ---


_PAIR = r"\( *([0-9]{1,9}) *, *([0-9]{1,9}) *\)"


def parse_extension(text):
    """Build an ExtensionSpec from sectioned key=value config text."""
    sections, override_sections = _read_sections(text)
    fld = sections.get("field")
    if not fld:
        raise ExtensionError("config is missing the [field] section")
    try:
        p = int(fld["p"])
        m = int(fld.get("m", "1"))
    except KeyError as e:
        raise ExtensionError(f"[field] section is missing {e.args[0]}") from None
    except ValueError:
        raise ExtensionError("[field] p and m must be integers") from None
    base = gf_create(p, m)
    extsec = sections.get("extension")
    if not extsec:
        raise ExtensionError("config is missing the [extension] section")
    name = extsec.get("name")
    if not name:
        raise ExtensionError("[extension] section needs a name")
    has_poly = "poly" in extsec
    has_builtin = "builtin" in extsec
    if has_poly == has_builtin:
        raise ExtensionError("[extension] needs exactly one of poly= or builtin=")
    if has_builtin and override_sections:
        raise ExtensionError("[override] goes with poly= only: a builtin "
                             "supplies its own ramified types")
    overrides = {}
    for osec in override_sections:
        try:
            prime = textforms.parse_monic(base, osec["prime"])
            st = _parse_type(osec["type"])
        except KeyError as e:
            raise ExtensionError(f"[override] section is missing {e.args[0]}") from None
        if prime in overrides:
            raise ExtensionError("duplicate override for prime "
                                 + textforms.format_tpoly(base, prime))
        overrides[prime] = st
    if has_builtin:
        _, cols, overrides = _builtin_cover(base, *_parse_builtin(extsec["builtin"]))
    else:
        cols = textforms.parse_xt_poly(base, extsec["poly"])
    ext = ExtensionSpec(name, base, cols, overrides)
    if has_poly and ext.degree > 1:
        _check_irreducible(ext)
    return ext


def parse_extension_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ExtensionError(f"cannot read extension config {path}: {e}") from None
    return parse_extension(text)


def _parse_type(text):
    # the whole text is (e,f) pairs, separated by optional commas and spaces;
    # 9 digits an entry: no degree needs more, and int() refuses thousands
    if not re.fullmatch(rf" *{_PAIR}(?:(?: *,)? *{_PAIR})* *", text):
        raise ExtensionError(f"cannot parse splitting type {text!r}")
    return SplittingType(tuple((int(e), int(f)) for e, f in re.findall(_PAIR, text)))


def _parse_builtin(text):
    head, _, rest = text.partition(":")
    params = {}
    if rest:
        for piece in rest.split(","):
            k, eq, v = piece.partition("=")
            k = k.strip()
            if not eq:
                raise ExtensionError(f"bad builtin parameter {piece!r}")
            if k in params:
                raise ExtensionError(f"builtin parameter {k!r} given twice")
            params[k] = v.strip()
    return head.strip(), params


def _check_irreducible(ext):
    """Musser's degree-set test (JACM 25, 1978) at small primes.

    If f = g*h over F_q(T) with g of X-degree k, then f mod pi = g*h mod
    pi at every prime pi, so k is a sum of some of the inertia degrees at
    every unramified pi.  The test intersects those subset sums over the
    unramified primes of degree <= 2 that carry no override, and stops
    once only 0 and n are left: f is irreducible.
    If it cannot decide, an Eisenstein prime still proves f irreducible
    (Stichtenoth, Prop. 3.1.15): a prime P that divides every non-leading
    X-coefficient, while P^2 does not divide the constant one.  Failing
    both, the polynomial is rejected, since an irreducible f whose small
    primes all split alike looks the same to the test as a reducible one.
    """
    n = ext.degree
    possible = set(range(n + 1))
    for d in (1, 2):
        for prime, st in splitting_types(ext, d):
            if prime in ext.overrides:
                continue
            sums = {0}
            for f in st.inertia_degrees():
                sums |= {s + f for s in sums}
            possible &= sums
            if len(possible) == 2:
                return
    f = ext.xt_coeffs
    if f[0]:
        for prime, mult in poly.factor_monic(ext.field, f[0]):
            if mult == 1 and not any(poly.pmod(ext.field, c, prime)
                                     for c in f[1:-1]):
                return
    left = ", ".join(str(k) for k in sorted(possible - {0, n}))
    raise ExtensionError(
        f"cannot certify that {ext.poly_text()} is irreducible: the "
        f"degree-set test at unramified primes of degree <= 2 could not "
        f"decide; factor degrees still possible: {left}")


# the keys each section may hold
_SECTION_KEYS = {"field": ("p", "m"), "extension": ("name", "poly", "builtin"),
                 "override": ("prime", "type")}


def _read_sections(text):
    """({name: keys} for [field] and [extension], [keys of each [override]])."""
    sections, overrides = {}, []
    current = last = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0]
        for tok in line.split():
            if tok.startswith("["):
                name = tok.strip("[]").strip().lower()
                if name not in _SECTION_KEYS:
                    raise ExtensionError(f"unknown section [{name}]")
                if name == "override":
                    current = {}
                    overrides.append(current)
                elif name in sections:
                    raise ExtensionError(f"duplicate [{name}] section")
                else:
                    current = sections[name] = {}
                last = None
            elif "=" in tok:
                if current is None:
                    raise ExtensionError("key=value before any [section] header")
                k, _, v = tok.partition("=")
                if k not in _SECTION_KEYS[name]:
                    raise ExtensionError(f"unknown key {k!r} in the [{name}] section")
                if k in current:
                    raise ExtensionError(f"key {k!r} given twice in the [{name}] section")
                current[k] = v
                last = k
            else:
                if last is None:
                    raise ExtensionError(f"stray token {tok!r} in config")
                current[last] += " " + tok
    return sections, overrides
