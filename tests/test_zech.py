"""The log/Zech model of F_{q^d}, primes as Frobenius orbits, and the
table path of splitting types, checked against independent references:
residue-field arithmetic, trial division, and per-prime splitting_type."""

import itertools
import os
import random

import pytest

from gosslift import extension, field, poly
from gosslift.errors import ExtensionError
from gosslift.extension import (ExtensionSpec, SplittingType, builtin_extension,
                                parse_extension_file, splitting_type,
                                splitting_types, trivial_extension)
from gosslift.field import ResidueField, gf_create
from gosslift.poly import MonicPoly, enumerate_monic, enumerate_monic_irreducibles
from gosslift.textforms import parse_monic, parse_xt_poly
from gosslift.zeta import dirichlet_table, local_counts
from poly_helpers import peval

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")

# (p, m, degree bound) for each base field F_q, q = p^m
FIELDS = ((2, 1, 6), (3, 1, 5), (2, 2, 4), (5, 1, 3), (3, 2, 3), (2, 4, 2))


def digits(F, a):
    out = []
    for _ in range(F.deg):
        a, c = divmod(a, F.base.q)
        out.append(c)
    return tuple(out)


@pytest.mark.parametrize("p, m, d", [(2, 1, 1), (2, 1, 4), (3, 1, 3), (2, 2, 2),
                                     (3, 2, 2), (5, 1, 2), (2, 4, 1), (3, 1, 9)])
def test_model_matches_residue_field(p, m, d):
    """Every operation agrees with coordinatewise F_q[Y]/(g) arithmetic,
    on all elements of small models and a sample of the F_3^9 one."""
    K = gf_create(p, m)
    F = K.zech_field(d)
    assert F.order == K.q ** d
    assert K.zech_field(d) is F
    R = ResidueField(K, F.modulus)
    enc = {digits(F, a): a for a in range(F.order)}
    assert len(enc) == F.order
    elements = list(range(F.order))
    if len(elements) > 100:
        elements = [0, 1] + random.Random(d).sample(elements, 100)
    for a in elements:
        ra = digits(F, a)
        assert digits(F, F.neg(a)) == R.neg(ra)
        assert digits(F, F.pth_power(a)) == R.pth_power(ra)
        if a:
            assert digits(F, F.inv(a)) == R.inv(ra)
        for b in elements:
            rb = digits(F, b)
            assert digits(F, F.add(a, b)) == R.add(ra, rb)
            assert digits(F, F.mul(a, b)) == R.mul(ra, rb)
    # the base field sits inside as the ints below q
    for a, b in itertools.product(K.elements(), repeat=2):
        assert F.add(a, b) == K.add(a, b)
        assert F.mul(a, b) == K.mul(a, b)


@pytest.mark.parametrize("p, m, d", [(2, 1, 6), (3, 1, 5), (2, 2, 3),
                                     (5, 1, 3), (7, 1, 2)])
@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_model_tables_do_not_depend_on_the_chunk_size(p, m, d, chunk,
                                                      monkeypatch):
    """Models above field._CHUNK elements build exp, log and zech a chunk
    at a time; small chunks must give the one-chunk tables, which
    test_model_matches_residue_field checks."""
    K = gf_create(p, m)
    whole = field.ZechField(K, d)
    monkeypatch.setattr(field, "_CHUNK", chunk)
    chunked = field.ZechField(K, d)
    assert chunked._exp == whole._exp
    assert chunked._log == whole._log
    assert chunked._zech == whole._zech


def test_model_modulus_is_first_primitive():
    """Y generates F_{q^d}^*, and no earlier candidate in order does."""
    for p, m, d in ((2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 1), (3, 2, 1)):
        K = gf_create(p, m)
        g = K.zech_field(d).modulus
        n = K.q ** d - 1

        def y_order(f):
            if not poly.pmod(K, (0, 1), f):
                return None
            x, k = poly.pmod(K, (0, 1), f), 1
            while x != (1,):
                x, k = poly.pmod(K, poly.pmul(K, x, (0, 1)), f), k + 1
                if k > n:
                    return None
            return k

        candidates = [lower + (1,) for lower in itertools.product(range(K.q), repeat=d)]
        first = next(f for f in candidates if y_order(f) == n)
        assert g == first


@pytest.mark.parametrize("p, m, d", [(3, 1, 8), (5, 1, 5), (2, 4, 3), (2, 2, 4),
                                     (3, 2, 3), (7, 1, 3), (2, 1, 1), (3, 1, 1),
                                     (11, 1, 2), (13, 1, 3)])
def test_one_minpoly_product_per_symmetry_class(p, m, d, monkeypatch):
    """Frobenius and PGL(2, q) (scaling by F_q^*, inversion and
    translation) permute the primes of degree d, and only one prime per
    class is a _minpoly product: at most 0.1 of them at F_3 d=8, F_5 d=5
    and F_16 d=3.  Every prime the class derivation gives is still the
    product over the Frobenius orbit of its root, and that root is the
    power Y^k of least k in the orbit.  F_11 and F_13 shift by Horner's
    rule, the other prime fields on packed ints."""
    real = field.ZechField._minpoly
    calls = []

    def counting(self, logs):
        calls.append(logs)
        return real(self, logs)
    monkeypatch.setattr(field.ZechField, "_minpoly", counting)
    F = field.ZechField(gf_create(p, m), d)
    primes, roots = F.irreducibles()
    if (p, m, d) in ((3, 1, 8), (5, 1, 5), (2, 4, 3)):
        assert len(calls) <= 0.1 * len(primes)
    q, n = F.base.q, F.order - 1
    for prime, alpha in zip(primes, roots):
        if not alpha:
            assert prime == (0, 1)
            continue
        k = F._log[alpha]
        orbit = [k * q ** i % n for i in range(d)]
        assert min(orbit) == k
        assert prime == real(F, orbit)


def trial_division_irreducibles(K, d):
    out = []
    for f in enumerate_monic(K, d):
        if not any(poly.pmod(K, f.coeffs, g.coeffs) == ()
                   for e in range(1, d // 2 + 1) for g in enumerate_monic(K, e)):
            out.append(f)
    return out


@pytest.mark.parametrize("p, m, bound", [(2, 1, 6), (3, 1, 4), (2, 2, 3),
                                         (5, 1, 3), (3, 2, 2), (2, 4, 2)])
def test_irreducibles_match_trial_division(p, m, bound):
    K = gf_create(p, m)
    for d in range(1, bound + 1):
        assert enumerate_monic_irreducibles(K, d) == trial_division_irreducibles(K, d)


def test_irreducibles_over_f2_degree_one():
    """q^d - 1 = 1: a single Frobenius orbit, plus T with root 0."""
    K = gf_create(2)
    F = K.zech_field(1)
    primes, roots = F.irreducibles()
    assert primes == [(0, 1), (1, 1)]
    assert roots == [0, 1]


@pytest.mark.parametrize("p, m, bound", FIELDS)
def test_roots_are_roots(p, m, bound):
    K = gf_create(p, m)
    for d in range(1, bound + 1):
        F = K.zech_field(d)
        primes, roots = F.irreducibles()
        assert len(primes) == len(roots)
        for prime, alpha in zip(primes, roots):
            assert peval(F, prime, alpha) == 0
        # root_values evaluates on logs what peval evaluates by Horner
        rng = random.Random(d)
        for c in ((), (1,), (0, 1), (1, 0, 1), primes[0],
                  tuple(rng.randrange(K.q) for _ in range(6))):
            assert F.root_values(c) == [peval(F, c, alpha) for alpha in roots]


def covers(K):
    """A trivial extension, an Artin-Schreier cover and a quadratic cover
    carrying overrides.  In characteristic 2, where kummer_sqrt does not
    exist, X^2 + T*X + 1 (ramified at T only) stands in for it."""
    m = 5 if K.p == 3 else 3
    out = [trivial_extension(K), builtin_extension(K, "artin_schreier", m=m)]
    if K.p == 2:
        t = MonicPoly(K, (0, 1))
        out.append(ExtensionSpec("Q2", K, parse_xt_poly(K, "X^2 + T*X + 1"),
                                 overrides={t: SplittingType(((2, 1),))}))
    else:
        out.append(builtin_extension(K, "kummer_sqrt", c="T^3 - T"))
    return out


@pytest.mark.parametrize("p, m, bound", FIELDS)
def test_table_types_match_splitting_type(p, m, bound):
    K = gf_create(p, m)
    for ext in covers(K):
        table = dirichlet_table(ext, bound)
        seen = set()
        for d in range(1, bound + 1):
            got = [(MonicPoly(K, prime), st) for prime, st in splitting_types(ext, d)]
            assert [prime for prime, _ in got] == enumerate_monic_irreducibles(K, d)
            for prime, st in got:
                assert st.pairs == splitting_type(ext, prime).pairs
                seen.add(st.pairs)
                counts = local_counts(st, bound // d)
                for k in range(1, bound // d + 1):
                    power = MonicPoly(K, poly.ppow(K, prime.coeffs, k))
                    assert table.entries[power] == counts[k]
        if ext.degree > 1:
            assert len(seen) > 1


def test_table_ramified_without_override_raises_first_prime(monkeypatch):
    """A spec is refused when it is built, naming the first unoverridden
    ramified prime in enumeration order, or an inseparable f, whether it
    is built directly, from a config, or by a builtin recipe (here one
    that returns f with no overrides): no table or splitting type is ever
    asked of it."""
    K = gf_create(3)
    cases = (
        ("X^2 - T^2 - 2", "prime T + 1 divides the discriminant of bare "
                          "but has no override"),
        ("X^2 - T^3 - T^2 - T - 2", "prime T^3 + T^2 + T + 2 divides the "
                                    "discriminant of bare but has no override"),
        ("X^3 - T", "defining polynomial is inseparable (zero X-derivative)"),
    )
    for f, message in cases:
        cols = parse_xt_poly(K, f)
        monkeypatch.setattr(extension, "_builtin_cover",
                            lambda base, kind, params: ("bare", cols, {}))
        routes = (lambda: ExtensionSpec("bare", K, cols),
                  lambda: builtin_extension(K, "any"),
                  lambda: extension.parse_extension(
                      f"[field] p=3 [extension] name=bare poly={f}"),
                  lambda: extension.parse_extension(
                      "[field] p=3 [extension] name=bare builtin=any"))
        for route in routes:
            with pytest.raises(ExtensionError) as err:
                route()
            assert str(err.value) == message


def test_splitting_type_routes_ramified_primes_to_overrides():
    """X^2 - T^2 - T over F_5 ramifies at T and T + 1: refused without
    overrides, and with them both paths return the override there and
    the reduced type elsewhere."""
    K = gf_create(5)
    cols = parse_xt_poly(K, "X^2 - T^2 - T")
    ramified = SplittingType(((2, 1),))
    with pytest.raises(ExtensionError, match="prime T divides the discriminant"):
        ExtensionSpec("K", K, cols)
    with pytest.raises(ExtensionError, match="prime T \\+ 1 divides the discriminant"):
        ExtensionSpec("K", K, cols, overrides={parse_monic(K, "T"): ramified})
    ext = ExtensionSpec("K", K, cols, overrides={parse_monic(K, "T"): ramified,
                                                 parse_monic(K, "T + 1"): ramified})
    assert splitting_type(ext, parse_monic(K, "T + 1")).pairs == ramified.pairs
    assert splitting_type(ext, parse_monic(K, "T + 2")).degree == 2
    types = dict(splitting_types(ext, 1))
    assert types[(1, 1)].pairs == ramified.pairs
    assert types[(2, 1)].pairs == splitting_type(ext, parse_monic(K, "T + 2")).pairs


def test_splitting_evaluates_no_discriminant(monkeypatch):
    """Once a spec is built, neither path computes or evaluates its
    discriminant: splitting_types takes one root_logs pass per degree, of
    -c0 at the roots, for these separated covers, and splitting_type
    projects only the coefficients of f into the residue field."""
    K = gf_create(3)
    covers = (builtin_extension(K, "artin_schreier", m=5),
              builtin_extension(K, "kummer_sqrt", c="T^3 - T"))
    calls = dict.fromkeys(("discriminant", "_resultant", "root_logs", "project"), 0)

    def counted(owner, name):
        real = getattr(owner, name)

        def counting(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, counting)
    counted(extension, "discriminant")
    counted(extension, "_resultant")
    counted(field.ZechField, "root_logs")
    counted(ResidueField, "project")
    for ext in covers:
        for d in range(1, 5):
            calls["root_logs"] = 0
            list(splitting_types(ext, d))
            assert calls["root_logs"] == 1
        for prime in enumerate_monic_irreducibles(K, 1) + enumerate_monic_irreducibles(K, 2):
            calls["project"] = 0
            splitting_type(ext, prime)
            overridden = prime in ext.overrides
            assert calls["project"] == (0 if overridden else len(ext.xt_coeffs))
    assert calls["discriminant"] == calls["_resultant"] == 0


def type_pairs(got):
    """(prime, splitting type pairs) for each (prime, type) of got."""
    return [(prime, st.pairs) for prime, st in got]


def model_path_types(ext, d):
    """type_pairs of splitting_types with the distinct-degree last step at
    every prime, on values at the roots taken by Horner's rule."""
    F = ext.field.zech_field(d)
    disc = extension.discriminant(ext).coeffs
    out = []
    for prime, alpha in zip(*F.irreducibles()):
        st = ext.overrides.get(MonicPoly(ext.field, prime))
        if st is None:
            assert peval(F, disc, alpha)
            st = extension._reduced_type(
                F, tuple(peval(F, c, alpha) for c in ext.xt_coeffs))
        out.append((prime, st.pairs))
    return out


def simple_cubic():
    """X^3 + 2X + T^2 + T over F_5: separated, not Galois, and ramified at
    T + 2, T + 4 and T^2 + T + 2, each dividing the discriminant once."""
    K = gf_create(5)
    return ExtensionSpec("cubic", K, parse_xt_poly(K, "X^3 + 2*X + T^2 + T"),
                         overrides={parse_monic(K, prime): SplittingType(((1, 1), (2, 1)))
                                    for prime in ("T + 2", "T + 4", "T^2 + T + 2")})


def counted_distinct_degree(monkeypatch):
    calls = []
    real = poly.distinct_degree_counts

    def counting(F, f):
        calls.append(f)
        return real(F, f)
    monkeypatch.setattr(poly, "distinct_degree_counts", counting)
    return calls


def builtin(field, kind, **params):
    return lambda: builtin_extension(gf_create(*field), kind, **params)


ROOT_COUNT_COVERS = [
    pytest.param(builtin((2, 1), "artin_schreier", m=3), 7, id="AS-F2"),
    pytest.param(builtin((3, 1), "artin_schreier", m=5), 7, id="AS-F3"),
    pytest.param(builtin((2, 2), "artin_schreier", m=1), 4, id="AS-F4"),
    pytest.param(builtin((2, 4), "artin_schreier", m=1), 4, id="AS-F16"),
    pytest.param(builtin((5, 1), "artin_schreier", m=2), 4, id="AS_m2-F5"),
    pytest.param(builtin((3, 1), "kummer_sqrt", c="T^3 - T"), 7, id="kummer-F3"),
    pytest.param(builtin((5, 1), "kummer_sqrt", c="T^3 + T + 1"), 4, id="kummer-F5"),
    pytest.param(builtin((7, 1), "kummer_sqrt", c="T^2 + T + 3"), 4, id="kummer-F7"),
    pytest.param(lambda: parse_extension_file(os.path.join(CONFIGS, "K_sqrt.cfg")),
                 7, id="K_sqrt"),
    pytest.param(simple_cubic, 4, id="cubic-F5"),
    pytest.param(lambda: trivial_extension(gf_create(3)), 7, id="trivial-F3"),
]


@pytest.mark.parametrize("make, bound", ROOT_COUNT_COVERS)
def test_root_counts_match_distinct_degree_types(make, bound, monkeypatch):
    """Separated covers of degree <= 3 and Artin-Schreier covers take
    their types from one root-count sweep per degree, with no
    distinct-degree factoring, and get the types that factoring gives."""
    ext = make()
    calls = counted_distinct_degree(monkeypatch)
    seen = set()
    for d in range(1, bound + 1):
        got = list(splitting_types(ext, d))
        assert not calls
        assert type_pairs(got) == model_path_types(ext, d)
        seen |= {st.pairs for _, st in got}
        calls.clear()
    if ext.degree > 1:
        assert len(seen - {st.pairs for st in ext.overrides.values()}) >= 2
    if ext.degree == 3 and ext.field.p != 3:
        assert ((1, 1), (1, 2)) in seen


def kummer(field, f, ramified):
    """X^n - c, given as text, with the ramified primes overridden as (n,1)."""
    def make():
        K = gf_create(*field)
        cols = parse_xt_poly(K, f)
        n = len(cols) - 1
        return ExtensionSpec(f"X{n}", K, cols,
                             overrides={parse_monic(K, prime): SplittingType(((n, 1),))
                                        for prime in ramified})
    return make


NO_SWEEP_COVERS = [
    pytest.param(builtin((2, 1), "artin_schreier", m=3), id="AS-F2"),
    pytest.param(builtin((3, 1), "artin_schreier", m=5), id="AS-F3"),
    pytest.param(builtin((2, 2), "artin_schreier", m=3), id="AS-F4"),
    pytest.param(builtin((5, 1), "artin_schreier", m=2), id="AS-F5"),
    pytest.param(builtin((2, 4), "artin_schreier", m=1), id="AS-F16"),
    pytest.param(builtin((3, 1), "kummer_sqrt", c="T^3 - T"), id="X2-F3"),
    pytest.param(builtin((5, 1), "kummer_sqrt", c="T^3 + T + 1"), id="X2-F5"),
    pytest.param(builtin((7, 1), "kummer_sqrt", c="T^2 + T + 3"), id="X2-F7"),
    pytest.param(kummer((5, 1), "X^3 + 4*T^2 + 3", ["T^2 + 2"]), id="X3-F5"),
    pytest.param(kummer((7, 1), "X^3 + 6*T^2 + 6*T", ["T", "T + 1"]), id="X3-F7"),
]


@pytest.mark.parametrize("make", NO_SWEEP_COVERS)
def test_root_counts_without_the_sweep(make, monkeypatch):
    """Artin-Schreier covers read their types off the trace, and X^n - c
    off gcd(n, q^d - 1) and log c(alpha), with no sweep of the model and
    no factoring, for every degree d with q^d <= 4096; the types equal
    those of distinct-degree factoring.  (X^3 - c over F_3 is
    inseparable, so every prime of it ramifies.)"""
    def no_sweep(self, coeffs):
        raise AssertionError("value_counts was called")
    monkeypatch.setattr(field.ZechField, "value_counts", no_sweep)
    ext = make()
    calls = counted_distinct_degree(monkeypatch)
    q, d, seen = ext.field.q, 1, set()
    while q ** d <= 4096:
        got = list(splitting_types(ext, d))
        assert not calls
        assert type_pairs(got) == model_path_types(ext, d)
        seen |= {st.pairs for prime, st in got
                 if MonicPoly(ext.field, prime) not in ext.overrides}
        calls.clear()
        d += 1
    n = ext.degree
    assert {((1, 1),) * n, ((1, n),)} <= seen
    if n == 3 and q % 3 == 2:  # gcd(3, q^d - 1) = 1 in odd degree d
        assert ((1, 1), (1, 2)) in seen


@pytest.mark.parametrize("p, m, d", [(2, 1, 5), (3, 1, 4), (2, 2, 3), (5, 1, 2),
                                     (3, 2, 2), (2, 4, 2), (7, 1, 2)])
def test_traceless_matches_the_sum_of_conjugates(p, m, d):
    F = gf_create(p, m).zech_field(d)
    elements = list(range(F.order))
    zero = []
    for v in elements:
        t, x = 0, v
        for _ in range(d * m):
            t, x = F.add(t, x), F.pth_power(x)
        assert t < p
        zero.append(t == 0)
    assert F.traceless(elements) == zero
    assert sum(zero) == F.order // p


def test_other_covers_fall_back_to_distinct_degree_types(monkeypatch):
    """X^4 - T is separated but of degree 4 and not Artin-Schreier, and
    X^2 + T*X + 1 is not separated: both factor at every unramified prime."""
    K2, K5 = gf_create(2), gf_create(5)
    t2, t5 = MonicPoly(K2, (0, 1)), MonicPoly(K5, (0, 1))
    covers = (
        (ExtensionSpec("quartic", K5, parse_xt_poly(K5, "X^4 - T"),
                       overrides={t5: SplittingType(((4, 1),))}), 3),
        (ExtensionSpec("Q2", K2, parse_xt_poly(K2, "X^2 + T*X + 1"),
                       overrides={t2: SplittingType(((2, 1),))}), 6),
    )
    calls = counted_distinct_degree(monkeypatch)
    for ext, bound in covers:
        for d in range(1, bound + 1):
            got = list(splitting_types(ext, d))
            factored = sum(MonicPoly(ext.field, prime) not in ext.overrides
                           for prime, _ in got)
            assert len(calls) == factored > 0
            assert type_pairs(got) == model_path_types(ext, d)
            calls.clear()

