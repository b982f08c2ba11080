"""Polynomial arithmetic, factorization degrees, and irreducible enumeration."""

import random

import pytest

from gosslift.errors import PolyError
from gosslift.field import FiniteField, gf_create
from gosslift import poly
from gosslift.poly import MonicPoly
from gosslift.textforms import parse_monic
from poly_helpers import divides, monic_product, peval, ppow_mod


def random_poly(rng, K, max_deg):
    d = rng.randrange(max_deg + 1)
    coeffs = [rng.randrange(K.q) for _ in range(d)] + [rng.randrange(1, K.q)]
    return poly.ptrim(K, tuple(coeffs))


def test_degree_conventions():
    K = gf_create(3)
    assert poly.pdeg(()) == -1
    assert poly.pdeg((5,)) == 0
    assert poly.ptrim(K, (1, 2, 0, 0)) == (1, 2)
    assert poly.padd(K, (1, 2), (2, 1)) == ()


def test_divmod_round_trip():
    rng = random.Random(0)
    for p, m in ((2, 1), (3, 1), (5, 1), (3, 2)):
        K = gf_create(p, m)
        for _ in range(200):
            f = random_poly(rng, K, 6)
            g = random_poly(rng, K, 3)
            if not g:
                continue
            quo, rem = poly.pdivmod(K, f, g)
            assert poly.padd(K, poly.pmul(K, quo, g), rem) == f
            assert poly.pdeg(rem) < poly.pdeg(g)


def test_divide_by_zero_raises():
    K = gf_create(3)
    with pytest.raises(PolyError):
        poly.pdivmod(K, (1, 1), ())


def test_pdivexact():
    K = gf_create(3)
    f = poly.pmul(K, (1, 1), (2, 1))
    assert poly.pdivexact(K, f, (1, 1)) == (2, 1)
    with pytest.raises(PolyError):
        poly.pdivexact(K, (1, 0, 1), (1, 1))


def test_gcd_properties():
    rng = random.Random(1)
    K = gf_create(5)
    for _ in range(100):
        f = random_poly(rng, K, 4)
        g = random_poly(rng, K, 4)
        h = random_poly(rng, K, 2)
        d = poly.pgcd(K, f, g)
        if f or g:
            assert d == poly.pmonic(K, d)
            if f:
                assert poly.pmod(K, f, d) == ()
            if g:
                assert poly.pmod(K, g, d) == ()
        if f and g and h:
            lhs = poly.pgcd(K, poly.pmul(K, f, h), poly.pmul(K, g, h))
            rhs = poly.pmonic(K, poly.pmul(K, d, h))
            assert lhs == rhs
    assert poly.pgcd(K, (), ()) == ()
    assert poly.pgcd(K, (2,), (0, 3)) == (1,)


def test_ppow_mod_matches_naive():
    K = gf_create(3)
    f = (1, 2, 1)
    modulus = (2, 0, 1, 1)
    for e in range(8):
        expect = poly.pmod(K, poly.ppow(K, f, e), modulus)
        assert ppow_mod(K, f, e, modulus) == expect


def test_derivative_leibniz():
    rng = random.Random(2)
    K = gf_create(3, 2)
    for _ in range(100):
        f = random_poly(rng, K, 4)
        g = random_poly(rng, K, 4)
        lhs = poly.pderiv(K, poly.pmul(K, f, g))
        rhs = poly.padd(K, poly.pmul(K, poly.pderiv(K, f), g),
                        poly.pmul(K, f, poly.pderiv(K, g)))
        assert lhs == rhs
    assert poly.pderiv(K, (1, 0, 0, 1)) == ()  # d/dT of T^3 + 1 in char 3


def test_peval_roots():
    K = gf_create(5)
    for a in range(5):
        f = (K.neg(a), 1)
        assert peval(K, f, a) == 0
        assert peval(K, f, K.add(a, 1)) == 1
    assert peval(K, (), 3) == 0
    assert peval(K, (4, 0, 1), 2) == 3


def test_pth_root_poly():
    rng = random.Random(3)
    for p, m in ((2, 1), (3, 1), (3, 2)):
        K = gf_create(p, m)
        for _ in range(50):
            g = random_poly(rng, K, 3)
            if not g:
                continue
            f = poly.ppow(K, g, p)
            assert poly.pth_root_poly(K, f) == g
    K = gf_create(3)
    with pytest.raises(PolyError):
        poly.pth_root_poly(K, (0, 1))


def test_squarefree_decomposition():
    K = gf_create(3)
    t1 = (1, 1)
    t2 = (2, 1)
    f = poly.pmul(K, poly.pmul(K, t1, t1), t2)
    assert poly.squarefree_decomposition(K, f) == {2: t1, 1: t2}
    # derivative-zero branch: (T^2+1)^3 is a cube
    g = poly.ppow(K, (1, 0, 1), 3)
    assert poly.squarefree_decomposition(K, g) == {3: (1, 0, 1)}


def test_squarefree_decomposition_reconstructs():
    rng = random.Random(4)
    for q in (2, 3, 5):
        K = gf_create(q)
        irred = []
        for d in (1, 2):
            irred.extend(poly.enumerate_monic_irreducibles(K, d))
        for _ in range(60):
            chosen = rng.sample(irred, rng.randrange(1, 4))
            f = (1,)
            mults = {}
            for g in chosen:
                e = rng.randrange(1, 4)
                mults[g] = e
                f = poly.pmul(K, f, poly.ppow(K, g.coeffs, e))
            parts = poly.squarefree_decomposition(K, f)
            rebuilt = (1,)
            for e, part in parts.items():
                rebuilt = poly.pmul(K, rebuilt, poly.ppow(K, part, e))
                assert part == poly.pmonic(K, part)
                assert poly.pgcd(K, part, poly.pderiv(K, part)) == (1,)
            assert rebuilt == f


def factor_degrees(K, f):
    """Sorted (degree, multiplicity) pairs, one per irreducible factor."""
    return tuple(sorted((g.degree, e) for g, e in poly.factor_monic(K, f)))


def test_factor_degree_multiset_examples():
    K = gf_create(3)
    f = poly.pmul(K, poly.pmul(K, (2, 1), (2, 1)), (1, 1))
    assert factor_degrees(K, f) == ((1, 1), (1, 2))
    g = parse_monic(K, "T^2 + 1")
    assert factor_degrees(K, g.coeffs) == ((2, 1),)
    assert factor_degrees(K, (0, 1)) == ((1, 1),)
    assert factor_degrees(K, (2,)) == ()


def test_factor_degree_multiset_random_products():
    rng = random.Random(5)
    for q, m in ((2, 1), (3, 1), (5, 1), (3, 2)):
        K = gf_create(q, m)
        pool = []
        for d in (1, 2, 3):
            pool.extend(poly.enumerate_monic_irreducibles(K, d))
        for _ in range(50):
            chosen = rng.sample(pool, rng.randrange(1, 4))
            f = (rng.randrange(1, K.q),)
            expect = []
            for g in chosen:
                e = rng.randrange(1, 4)
                expect.append((g.degree, e))
                f = poly.pmul(K, f, poly.ppow(K, g.coeffs, e))
            got = factor_degrees(K, f)
            assert got == tuple(sorted(expect))
            assert sum(d * e for d, e in got) == poly.pdeg(f)


def mobius(n):
    result = 1
    k = 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            result = -result
        k += 1
    if n > 1:
        result = -result
    return result


def test_irreducible_counts_match_necklace_formula():
    for q, m in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2)):
        K = gf_create(q, m)
        for d in range(1, 7):
            count = sum(mobius(e) * K.q ** (d // e)
                        for e in range(1, d + 1) if d % e == 0) // d
            assert len(poly.enumerate_monic_irreducibles(K, d)) == count


def test_irreducibles_pass_frobenius_certificate():
    """gcd(X^{q^e} - X, f) = 1 for e < d and X^{q^d} = X mod f."""
    def check(K, f):
        xm = poly.pmod(K, (0, 1), f.coeffs)
        h = xm
        d = f.degree
        for e in range(1, d + 1):
            h = ppow_mod(K, h, K.q, f.coeffs)
            if e < d:
                diff = poly.psub(K, h, xm)
                assert poly.pgcd(K, diff, f.coeffs) == (1,)
        assert h == xm

    rng = random.Random(6)
    for q, m in ((2, 1), (3, 1), (5, 1), (3, 2)):
        K = gf_create(q, m)
        for d in (1, 2, 3, 4):
            for f in poly.enumerate_monic_irreducibles(K, d):
                check(K, f)
        for d in (5, 6):
            batch = poly.enumerate_monic_irreducibles(K, d)
            for f in rng.sample(batch, min(25, len(batch))):
                check(K, f)


def test_enumerate_monic_order_and_counts():
    K = gf_create(3)
    quadratics = poly.enumerate_monic(K, 2)
    assert len(quadratics) == 9
    assert quadratics == sorted(quadratics)
    assert quadratics[0].coeffs == (0, 0, 1)
    assert all(f.degree == 2 for f in quadratics)


def test_monic_poly_validation():
    K = gf_create(3)
    with pytest.raises(PolyError):
        MonicPoly(K, (1, 2))
    with pytest.raises(PolyError):
        MonicPoly(K, ())
    one = MonicPoly(K, (1,))
    assert one.degree == 0
    with pytest.raises(AttributeError):
        one.coeffs = (0, 1)


def test_monic_poly_ordering_and_arithmetic():
    K = gf_create(3)
    t = MonicPoly(K, (0, 1))
    t1 = MonicPoly(K, (1, 1))
    t_t1 = monic_product(t, t1)
    assert t < t1 < MonicPoly(K, (0, 0, 1))
    assert t_t1.coeffs == (0, 1, 1)
    assert monic_product(t, t, t).degree == 3
    assert divides(t, t_t1)
    assert not divides(t1, t)
    assert str(t1) == "T + 1"
    d = {t: "a", t1: "b"}
    assert d[MonicPoly(K, (0, 1))] == "a"


def test_factor_monic():
    K = gf_create(3)
    t1 = MonicPoly(K, (1, 1))
    t2 = MonicPoly(K, (2, 1))
    f = monic_product(t1, t2, t2)
    assert poly.factor_monic(K, f.coeffs) == ((t1, 1), (t2, 2))
    # unit leading coefficient is discarded
    assert poly.factor_monic(K, poly.pscale(K, 2, f.coeffs)) == ((t1, 1), (t2, 2))
    assert poly.factor_monic(K, (2,)) == ()
    assert poly.factor_monic(K, (1, 0, 1)) == ((MonicPoly(K, (1, 0, 1)), 1),)
    with pytest.raises(PolyError):
        poly.factor_monic(K, ())


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)],
                         ids=["F2", "F3", "F4", "F5", "F9"])
def test_factor_monic_recovers_random_products(p, m):
    rng = random.Random(7)
    K = gf_create(p, m)
    by_degree = {d: poly.enumerate_monic_irreducibles(K, d) for d in (1, 2, 3)}
    pool = [g for primes in by_degree.values() for g in primes]
    for trial in range(60):
        if trial % 2:
            chosen = rng.sample(pool, rng.randrange(1, 4))
        else:
            # several distinct factors of one degree: equal-degree splitting
            primes = by_degree[rng.choice((1, 2, 3))]
            chosen = rng.sample(primes, min(len(primes), rng.randrange(2, 5)))
        f = MonicPoly(K, (1,))
        expect = {}
        for g in chosen:
            e = rng.randrange(1, 5)  # e = p takes the p-th root path
            expect[g] = e
            for _ in range(e):
                f = monic_product(f, g)
        # primes come out in enumeration order
        assert poly.factor_monic(K, f.coeffs) == tuple(sorted(expect.items()))


def random_irreducible(K, rng, d):
    while True:
        f = tuple(rng.randrange(K.q) for _ in range(d)) + (1,)
        if poly.is_irreducible(K, f):
            return MonicPoly(K, f)


def test_factor_monic_trial_divides_only_where_needed():
    # factoring builds no model of any F_{3^d}; trial division by every
    # irreducible up to half the degree would build one for each d <= 13
    K = FiniteField(3)
    rng = random.Random(27)
    P = random_irreducible(K, rng, 27)
    t1 = MonicPoly(K, (1, 1))
    assert poly.factor_monic(K, P.coeffs) == ((P, 1),)
    assert poly.factor_monic(K, monic_product(t1, t1, P).coeffs) == ((t1, 2), (P, 1))
    assert poly.factor_monic(K, monic_product(P, P, P).coeffs) == ((P, 3),)
    # two distinct primes of degree 13 split apart without a model of F_{3^13}
    A = random_irreducible(K, rng, 13)
    B = random_irreducible(K, rng, 13)
    while B == A:
        B = random_irreducible(K, rng, 13)
    A, B = sorted((A, B))
    assert poly.factor_monic(K, monic_product(A, B).coeffs) == ((A, 1), (B, 1))
    assert not K._zech_cache


def brute_irreducible(K, g):
    """No monic divisor of degree 1 .. deg(g) // 2."""
    return not any(poly.pmod(K, g, h.coeffs) == ()
                   for d in range(1, poly.pdeg(g) // 2 + 1)
                   for h in poly.enumerate_monic(K, d))


@pytest.mark.parametrize("p, m, top", [(2, 1, 4), (3, 1, 4), (2, 2, 4), (3, 2, 3)],
                         ids=["F2", "F3", "F4", "F9"])
def test_is_irreducible_matches_trial_division(p, m, top):
    K = gf_create(p, m)
    for d in range(1, top + 1):
        for f in poly.enumerate_monic(K, d):
            assert poly.is_irreducible(K, f.coeffs) == brute_irreducible(K, f.coeffs)


def test_power_is_square_and_multiply_low_bit_first():
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a + b

    # additive "powers" make the sequence of products visible
    assert poly.power(mul, 0, 1, 0) == 0
    assert poly.power(mul, 0, 1, 13) == 13
    # 13 = 0b1101: multiply at bits 0, 2 and 3, square between bits only
    assert calls == [(0, 1), (1, 1), (2, 2), (1, 4), (4, 4), (5, 8)]
