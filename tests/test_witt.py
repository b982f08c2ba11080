"""Witt vector arithmetic, the oracles it runs on, and the lifted zeta."""

import os
import random

import pytest

import witt_oracle
from gosslift import poly, witt, zeta
from gosslift.errors import WittError
from gosslift.extension import (builtin_extension, parse_extension_file,
                                trivial_extension)
from gosslift.field import gf_create
from gosslift.textforms import parse_monic
from gosslift.witt import (WITT_LEN_BOUND, FieldOps, LaurentOps, WittPolys,
                           check_lifted_args, int_to_witt, lifted_goss_eval,
                           witt_structure_polys, witt_text)
from gosslift.zeta import DirichletTable, dirichlet_table, goss_eval, rank
from witt_oracle import (FieldRing, LaurentRing, WittVector, add_tails,
                         int_vector, oracle_add, oracle_ghost_sum,
                         oracle_lifted_goss_eval, oracle_mul, oracle_neg,
                         series, series_mul, sympy_structure_polys,
                         teichmuller, witt_add, witt_mul, witt_neg,
                         witt_structure_exprs, witt_sub, witt_zero)

K3 = gf_create(3)
K_SQRT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "configs", "K_sqrt.cfg")


def test_structure_polys_frozen_formulas():
    import sympy

    e3 = witt_structure_exprs(3, 2)
    x0, x1 = e3["xs"]
    y0, y1 = e3["ys"]
    assert sympy.expand(e3["add"][0] - (x0 + y0)) == 0
    assert sympy.expand(e3["add"][1] - (x1 + y1 - x0**2*y0 - x0*y0**2)) == 0
    assert sympy.expand(e3["mul"][0] - x0*y0) == 0
    assert sympy.expand(e3["mul"][1] - (x0**3*y1 + x1*y0**3 + 3*x1*y1)) == 0
    e2 = witt_structure_exprs(2, 2)
    a0, a1 = e2["xs"]
    b0, b1 = e2["ys"]
    assert sympy.expand(e2["add"][1] - (a1 + b1 - a0*b0)) == 0
    assert sympy.expand(e2["mul"][1] - (a0**2*b1 + a1*b0**2 + 2*a1*b1)) == 0


def test_ghost_identities():
    """Structure polynomials satisfy the ghost component equations."""
    import sympy

    for p, N in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
        e = witt_structure_exprs(p, N)
        xs, ys = e["xs"], e["ys"]

        def ghost(vs, n):
            return sum(p**i * vs[i] ** (p ** (n - i)) for i in range(n + 1))

        for n in range(N):
            add_ghost = sum(p**i * e["add"][i] ** (p ** (n - i))
                            for i in range(n + 1))
            assert sympy.expand(add_ghost - ghost(xs, n) - ghost(ys, n)) == 0
            mul_ghost = sum(p**i * e["mul"][i] ** (p ** (n - i))
                            for i in range(n + 1))
            assert sympy.expand(mul_ghost - ghost(xs, n) * ghost(ys, n)) == 0


SUPPORTED = ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
             (5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3))


@pytest.mark.parametrize("p,N", SUPPORTED)
def test_structure_polys_match_sympy_oracle(p, N):
    """The int-dict derivation reproduces the sympy one term for term."""
    ref = sympy_structure_polys(p, N)
    assert witt_structure_polys(p, N) == WittPolys(ref.add, ref.mul)
    # sympy freezes the zero polynomial (add_tail[0]) as one zero term
    assert add_tails(p, N) == tuple(tuple(t for t in terms if t[0])
                                    for terms in ref.add_tail)


def test_structure_polys_cached_and_ranged():
    assert witt_structure_polys(3, 2) is witt_structure_polys(3, 2)
    assert len(witt_structure_polys(2, 4).add) == 4
    assert add_tails(3, 2) is add_tails(3, 2)
    with pytest.raises(WittError):
        witt_structure_polys(3, 0)
    with pytest.raises(WittError):
        witt_structure_polys(4, 2)
    with pytest.raises(WittError):
        witt_structure_polys(1, 2)


def random_field_vector(rng, ops, N):
    return WittVector(ops.p, N, tuple(rng.randrange(ops.field.q)
                                      for _ in range(N)))


def test_ring_axioms_field_coords():
    rng = random.Random(0)
    ops = FieldRing(gf_create(3, 2))
    for N in (2, 3):
        zero = witt_zero(ops, N)
        one = teichmuller(ops, ops.one, N)
        for _ in range(50):
            a = random_field_vector(rng, ops, N)
            b = random_field_vector(rng, ops, N)
            c = random_field_vector(rng, ops, N)
            assert witt_add(ops, a, b) == witt_add(ops, b, a)
            assert witt_mul(ops, a, b) == witt_mul(ops, b, a)
            assert (witt_add(ops, witt_add(ops, a, b), c)
                    == witt_add(ops, a, witt_add(ops, b, c)))
            assert (witt_mul(ops, witt_mul(ops, a, b), c)
                    == witt_mul(ops, a, witt_mul(ops, b, c)))
            lhs = witt_mul(ops, a, witt_add(ops, b, c))
            rhs = witt_add(ops, witt_mul(ops, a, b), witt_mul(ops, a, c))
            assert lhs == rhs
            assert witt_add(ops, a, zero) == a
            assert witt_mul(ops, a, one) == a
            assert witt_add(ops, a, witt_neg(ops, a)) == zero
            assert witt_sub(ops, a, b) == witt_add(ops, a, witt_neg(ops, b))


def random_laurent_vector(rng, ops, N):
    coords = []
    for _ in range(N):
        v = rng.randrange(0, 3)
        coeffs = [rng.randrange(3) for _ in range(4)]
        coords.append(series(ops.field, v, coeffs, ops.precision))
    return WittVector(ops.p, N, tuple(coords))


def test_ring_axioms_laurent_coords():
    rng = random.Random(1)
    ops = LaurentRing(K3, 6)
    N = 2
    zero = witt_zero(ops, N)
    for _ in range(50):
        a = random_laurent_vector(rng, ops, N)
        b = random_laurent_vector(rng, ops, N)
        c = random_laurent_vector(rng, ops, N)
        assert witt_add(ops, a, b) == witt_add(ops, b, a)
        assert witt_mul(ops, a, b) == witt_mul(ops, b, a)
        assert (witt_add(ops, witt_add(ops, a, b), c)
                == witt_add(ops, a, witt_add(ops, b, c)))
        assert (witt_mul(ops, witt_mul(ops, a, b), c)
                == witt_mul(ops, a, witt_mul(ops, b, c)))
        lhs = witt_mul(ops, a, witt_add(ops, b, c))
        rhs = witt_add(ops, witt_mul(ops, a, b), witt_mul(ops, a, c))
        assert lhs == rhs
        assert witt_add(ops, a, witt_neg(ops, a)) == zero


def test_p_to_the_N_vanishes():
    for p, m, N in ((2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 2, 2), (5, 1, 2)):
        ops = FieldRing(gf_create(p, m))
        assert int_to_witt(ops.field, p ** N, N) == witt_zero(ops, N).coords
        acc = witt_zero(ops, N)
        one = teichmuller(ops, ops.one, N)
        for _ in range(p ** N):
            acc = witt_add(ops, acc, one)
        assert acc == witt_zero(ops, N)


def test_int_to_witt_is_additive():
    for p, N in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2)):
        ops = FieldRing(gf_create(p))
        pN = p ** N
        images = [int_vector(ops, k, N) for k in range(pN)]
        assert len(set(images)) == pN
        for a in range(pN):
            for b in range(pN):
                assert witt_add(ops, images[a], images[b]) == images[(a + b) % pN]


def test_int_to_witt_multiplicative():
    ops = FieldRing(gf_create(3))
    for a in range(9):
        for b in range(9):
            lhs = witt_mul(ops, int_vector(ops, a, 2), int_vector(ops, b, 2))
            assert lhs == int_vector(ops, a * b, 2)


def witt_digits(p, N, k):
    """Base-p digits of k in Witt form, from the ghost equations."""
    k %= p ** N
    digits = []
    for i in range(N):
        acc = sum(p**j * digits[j] ** (p ** (i - j)) for j in range(i))
        num = k - acc
        assert num % p**i == 0
        digits.append((num // p**i) % p)
    return tuple(digits)


def test_int_to_witt_digits():
    got = [int_to_witt(K3, k, 2) for k in range(9)]
    assert got == [(0, 0), (1, 0), (2, 1), (0, 1), (1, 1), (2, 2),
                   (0, 2), (1, 2), (2, 0)]
    for p, N in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2)):
        K = gf_create(p)
        for k in range(p ** N):
            expect = tuple(K.from_int(d) for d in witt_digits(p, N, k))
            assert int_to_witt(K, k, N) == expect


def test_teichmuller_multiplicative_exhaustive():
    for p, m in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        K = gf_create(p, m)
        ops = FieldRing(K)
        for N in (2, 3):
            for x in range(K.q):
                for y in range(K.q):
                    lhs = witt_mul(ops, teichmuller(ops, x, N),
                                   teichmuller(ops, y, N))
                    assert lhs == teichmuller(ops, K.mul(x, y), N)


def test_teichmuller_laurent_series():
    ops = LaurentRing(K3, 9)
    t_inv = series(K3, 1, (1,), 9)
    t_inv3 = series(K3, 3, (1,), 9)
    cube = witt_mul(ops, witt_mul(ops, teichmuller(ops, t_inv, 2),
                                  teichmuller(ops, t_inv, 2)),
                    teichmuller(ops, t_inv, 2))
    assert cube == teichmuller(ops, t_inv3, 2)
    rng = random.Random(2)
    for _ in range(20):
        a = series(K3, rng.randrange(0, 3),
                   [rng.randrange(3) for _ in range(3)], 9)
        b = series(K3, rng.randrange(0, 3),
                   [rng.randrange(3) for _ in range(3)], 9)
        lhs = witt_mul(ops, teichmuller(ops, a, 2), teichmuller(ops, b, 2))
        assert lhs == teichmuller(ops, series_mul(a, b), 2)


def test_witt_neg_odd_characteristic():
    ops = FieldRing(K3)
    for c0 in range(3):
        for c1 in range(3):
            a = WittVector(3, 2, (c0, c1))
            assert witt_neg(ops, a).coords == (K3.neg(c0), K3.neg(c1))
    ops2 = FieldRing(gf_create(2))
    for N in (2, 3):
        for k in range(2 ** N):
            a = int_vector(ops2, k, N)
            assert witt_add(ops2, a, witt_neg(ops2, a)) == witt_zero(ops2, N)


def test_vector_validation():
    ops = FieldRing(K3)
    with pytest.raises(WittError):
        WittVector(3, 2, (0,))
    a = WittVector(3, 2, (1, 0))
    b = WittVector(3, 3, (1, 0, 0))
    with pytest.raises(WittError):
        witt_add(ops, a, b)
    c = WittVector(5, 2, (1, 0))
    with pytest.raises(WittError):
        witt_add(ops, c, c)


def test_witt_text():
    ops = FieldOps(K3)
    assert witt_text(ops, int_to_witt(K3, 5, 2)) == "(2; 2)"
    assert witt_text(ops, int_to_witt(K3, 4, 2)) == "(1; 1)"
    lops = LaurentRing(K3, 4)
    w = teichmuller(lops, series(K3, 1, (1,), 4), 2)
    text = witt_text(lops, w.coords)
    assert text.startswith("(T^-1 [prec 4]; ")
    assert text.endswith(")")


def standard_extensions():
    return [trivial_extension(K3),
            builtin_extension(K3, "kummer_sqrt", c="T"),
            builtin_extension(K3, "kummer_sqrt", c="T + 1"),
            builtin_extension(K3, "artin_schreier", m=1),
            builtin_extension(K3, "artin_schreier", m=5)]


def test_lifted_component_zero_is_the_mod_p_value():
    for ext in standard_extensions():
        table = dirichlet_table(ext, 6)
        for s in (1, 2):
            w = lifted_goss_eval(table, s, 6, 2)
            assert w[0] == goss_eval(table, s, 6)


def test_lifted_detects_mod_p_squared_difference():
    base = dirichlet_table(builtin_extension(K3, "kummer_sqrt", c="T"), 3)
    n0 = parse_monic(K3, "T + 2")
    for s in (1, 2, 3):
        M = 3 * s
        bumped = list(base.counts)
        bumped[rank(K3, n0)] += 3
        other = DirichletTable(base.ext_name, base.field, base.bound, bumped)
        assert (lifted_goss_eval(base, s, M, 1)
                == lifted_goss_eval(other, s, M, 1))
        assert (lifted_goss_eval(base, s, M, 2)
                != lifted_goss_eval(other, s, M, 2))
        # a shift by p^2 is invisible at length 2
        bumped9 = list(base.counts)
        bumped9[rank(K3, n0)] += 9
        other9 = DirichletTable(base.ext_name, base.field, base.bound, bumped9)
        assert (lifted_goss_eval(base, s, M, 2)
                == lifted_goss_eval(other9, s, M, 2))


def test_goss_values_stable_under_larger_tables():
    ext = builtin_extension(K3, "kummer_sqrt", c="T")
    small = dirichlet_table(ext, 3)
    large = dirichlet_table(ext, 4)
    assert goss_eval(small, 2, 5) == goss_eval(large, 2, 5)
    assert lifted_goss_eval(small, 1, 3, 2) == lifted_goss_eval(large, 1, 3, 2)


def test_lifted_zero_s():
    triv = dirichlet_table(trivial_extension(K3), 4)
    assert lifted_goss_eval(triv, 0, 0, 2) == (1, 1)
    kummer = dirichlet_table(builtin_extension(K3, "kummer_sqrt", c="T"), 6)
    assert lifted_goss_eval(kummer, 0, 0, 2) == (1, 1)
    assert lifted_goss_eval(triv, 0, 0, 1) == int_to_witt(K3, 1, 1)
    small = dirichlet_table(builtin_extension(K3, "kummer_sqrt", c="T"), 3)
    with pytest.raises(WittError):
        lifted_goss_eval(small, 0, 0, 2)  # blocks 3, 9, 27 are not 0 mod 9
    tiny = dirichlet_table(trivial_extension(K3), 2)
    with pytest.raises(WittError):
        lifted_goss_eval(tiny, 0, 0, 2)


def test_lifted_errors():
    table = dirichlet_table(trivial_extension(K3), 6)
    with pytest.raises(WittError):
        lifted_goss_eval(table, -1, 6, 2)
    with pytest.raises(WittError):
        lifted_goss_eval(table, 1, 7, 2)  # bound 6 < need 7
    for N in (0, WITT_LEN_BOUND + 1):
        with pytest.raises(WittError, match="supported range 1..64"):
            lifted_goss_eval(table, 1, 6, N)


@pytest.mark.parametrize("p,N", SUPPORTED)
def test_int_to_witt_teichmuller_digits_match_ghost_digits(p, N):
    for m in (1, 2):
        K = gf_create(p, m)
        for k in range(p ** N):
            expect = tuple(K.from_int(d) for d in witt_digits(p, N, k))
            assert int_to_witt(K, k, N) == expect
            assert int_to_witt(K, k - p ** N, N) == expect


def random_series(rng, K, precision):
    """A series with valuation in -3..3 and precision within 3 of the given
    one; about one in five is zero."""
    prec = precision + rng.randrange(-3, 3)
    if rng.randrange(5) == 0:
        return series(K, 0, (), prec)
    v = rng.randrange(-3, 4)
    coeffs = [rng.randrange(K.q) for _ in range(rng.randrange(1, 5))]
    return series(K, v, coeffs, prec)


@pytest.mark.parametrize("p,m,N", [(2, 1, 2), (2, 1, 4), (2, 2, 3),
                                   (3, 1, 2), (3, 1, 3), (3, 2, 2),
                                   (5, 1, 2)])
def test_laurent_arithmetic_matches_term_by_term_oracle(p, m, N):
    """Skipping vanishing terms changes nothing, precision included."""
    K = gf_create(p, m)
    rng = random.Random(100 * p + 10 * m + N)
    ops = LaurentRing(K, 5)
    cases = [(ops, WittVector(p, N, tuple(random_series(rng, K, 5)
                                          for _ in range(N))),
              WittVector(p, N, tuple(random_series(rng, K, 5)
                                     for _ in range(N))))
             for _ in range(12)]
    if (p, m, N) == (3, 1, 2):
        # at the precision boundary: every valuation is >= 0, but a_1 is
        # known only to precision 3 < 4, so the product terms of witt_mul
        # whose valuation passes 4 still lower its precision
        ops4 = LaurentRing(K, 4)
        cases.append((ops4,
                      WittVector(3, 2, (series(K, 1, (1, 2), 4),
                                        series(K, 2, (1,), 3))),
                      WittVector(3, 2, (series(K, 2, (2,), 4),
                                        ops4.one))))
    for ops, a, b in cases:
        assert witt_add(ops, a, b) == oracle_add(ops, a, b)
        assert witt_mul(ops, a, b) == oracle_mul(ops, a, b)
        assert witt_neg(ops, a) == oracle_neg(ops, a)


def test_field_arithmetic_matches_term_by_term_oracle():
    rng = random.Random(3)
    for p, m, N in ((2, 2, 4), (3, 2, 3), (5, 1, 3)):
        ops = FieldRing(gf_create(p, m))
        for _ in range(20):
            # a zero coordinate in about half the vectors
            a = random_field_vector(rng, ops, N)
            b = WittVector(p, N, (ops.zero,) + random_field_vector(
                rng, ops, N).coords[1:])
            assert witt_add(ops, a, b) == oracle_add(ops, a, b)
            assert witt_mul(ops, a, b) == oracle_mul(ops, a, b)
            assert witt_neg(ops, a) == oracle_neg(ops, a)


def test_vanishing_terms_cost_no_multiplication(monkeypatch):
    # x0^2 * y0 has valuation 5 = precision + 1 and x0 * y0^2 has 7, so
    # W_2 addition over F_3 needs no product at precision 4
    ops = LaurentRing(K3, 4)
    a = WittVector(3, 2, (series(K3, 1, (1, 2), 4), ops.one))
    b = WittVector(3, 2, (series(K3, 3, (2,), 4), ops.one))
    expect = oracle_add(ops, a, b)
    calls = []

    def counted(x, y):
        calls.append(1)
        return series_mul(x, y)

    monkeypatch.setattr(witt_oracle, "series_mul", counted)
    assert witt_add(ops, a, b) == expect
    assert calls == []


def lifted_table(p, m, kind, kw, D):
    return dirichlet_table(builtin_extension(gf_create(p, m), kind, **kw), D)


def assert_same_text(table, s, M, N, add):
    """The ghost route prints the oracle's text, precision included."""
    ops = LaurentOps(table.field, M)
    got = lifted_goss_eval(table, s, M, N)
    expect = oracle_lifted_goss_eval(table, s, M, N, add)
    assert got == expect.coords
    assert witt_text(ops, got) == witt_text(ops, expect.coords)


@pytest.mark.parametrize("p,m,kind,kw,D,s,M,N", [
    (3, 1, "artin_schreier", {"m": 5}, 6, 1, 6, 3),
    (3, 1, "artin_schreier", {"m": 5}, 6, 2, 12, 3),
    (5, 1, "kummer_sqrt", {"c": "T^3 + T + 1"}, 3, 1, 3, 3),
    (2, 2, "artin_schreier", {"m": 1}, 5, 1, 5, 4),
    (3, 2, "artin_schreier", {"m": 1}, 3, 1, 3, 2),
    (3, 1, "artin_schreier", {"m": 5}, 4, 1, 4, 4),
    (2, 1, "artin_schreier", {"m": 3}, 5, 1, 5, 5),
    (2, 2, "artin_schreier", {"m": 1}, 3, 1, 3, 5),
], ids=["F3-N3-s1", "F3-N3-s2", "F5-N3", "F4-N4", "F9-N2", "F3-N4-D4",
        "F2-N5", "F4-N5-D3"])
def test_lifted_goss_eval_matches_oracle_loop(p, m, kind, kw, D, s, M, N):
    # every term of every Witt sum computed
    assert_same_text(lifted_table(p, m, kind, kw, D), s, M, N, oracle_add)


@pytest.mark.parametrize("p,m,kind,kw,D,s,M,N", [
    (3, 1, "artin_schreier", {"m": 5}, 6, 1, 6, 4),
    (3, 1, "artin_schreier", {"m": 5}, 6, 2, 12, 4),
    (2, 1, "artin_schreier", {"m": 3}, 6, 1, 6, 5),
    (2, 2, "artin_schreier", {"m": 1}, 4, 1, 4, 5),
    (5, 1, "kummer_sqrt", {"c": "T^3 + T + 1"}, 4, 1, 4, 3),
    (3, 2, "kummer_sqrt", {"c": "T^3 + T"}, 3, 1, 3, 3),
], ids=["F3-N4-s1", "F3-N4-s2", "F2-N5", "F4-N5", "F5-N3", "F9-N3"])
def test_lifted_goss_eval_matches_witt_sum(p, m, kind, kw, D, s, M, N):
    # the Witt sums skip vanishing terms, as the package did before it
    # used ghost components; that arithmetic is checked against the
    # term-by-term oracle above
    assert_same_text(lifted_table(p, m, kind, kw, D), s, M, N, witt_add)


@pytest.mark.parametrize("p,m,kind,kw,D,s,M", [
    (3, 1, "artin_schreier", {"m": 5}, 6, 1, 6),
    (3, 1, "kummer_sqrt", {"c": "T"}, 4, 2, 8),
    (2, 2, "artin_schreier", {"m": 1}, 4, 1, 4),
    (5, 1, "kummer_sqrt", {"c": "T^3 + T + 1"}, 3, 1, 3),
], ids=["F3-AS", "F3-KS-s2", "F4", "F5"])
def test_lifted_truncates_to_shorter_lengths(p, m, kind, kw, D, s, M):
    table = lifted_table(p, m, kind, kw, D)
    longest = lifted_goss_eval(table, s, M, 8)
    for k in range(1, 8):
        assert lifted_goss_eval(table, s, M, k) == longest[:k]
    assert longest[0] == goss_eval(table, s, M)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 2), (2, 4)])
def test_galois_ring_lifts_the_field(p, m):
    K = gf_create(p, m)
    R = witt.GaloisRing(K, 3)
    # t is a root of the lifted modulus in GR(p^3, m)
    t, t_i = R.lifts[p], R.one
    value = R.zero
    for c in K.modulus:
        value = tuple((x + c * y) % R.P for x, y in zip(value, t_i))
        t_i = R.mul(t_i, t)
    assert value == R.zero
    # mod p it multiplies like F_q, and the Teichmuller lifts
    # a~^(q^2) multiply like the elements they lift
    teich = [poly.power(R.mul, R.one, R.lifts[a], K.q ** 2)
             for a in K.elements()]
    for a in K.elements():
        for b in K.elements():
            ab = K.mul(a, b)
            assert K.element_from_coords(R.mul(R.lifts[a], R.lifts[b])) == ab
            assert R.mul(teich[a], teich[b]) == teich[ab]


def test_corrupted_ghost_digit_fails_the_exact_division(monkeypatch):
    table = lifted_table(3, 1, "artin_schreier", {"m": 5}, 6)
    real = witt.ghost_sum

    def corrupted(table, e, M, j):
        w = real(table, e, M, j)
        if j == 2:  # ghost component 1, read mod 9
            w[3] = ((w[3][0] + 1) % 9,)
        return w

    lifted_goss_eval(table, 1, 6, 3)
    monkeypatch.setattr(witt, "ghost_sum", corrupted)
    with pytest.raises(WittError, match="not divisible by p"):
        lifted_goss_eval(table, 1, 6, 3)


@pytest.mark.parametrize("p,m,D", [(2, 1, 8), (3, 1, 6), (2, 2, 4), (5, 1, 4),
                                   (3, 2, 3)], ids=["F2", "F3", "F4", "F5", "F9"])
def test_class_ghost_sum_matches_the_per_entry_oracle(p, m, D):
    """The class sums equal one series per entry, over random count lists:
    no extension is needed, and many counts vanish mod p or p^2 alone."""
    K = gf_create(p, m)
    rng = random.Random(p * 100 + m)
    size = (K.q ** (D + 1) - 1) // (K.q - 1)
    counts = [rng.choice((0, 0, 1, p, p * p, rng.randrange(p ** 4)))
              for _ in range(size)]
    table = DirichletTable("random", K, D, counts)
    for s in (1, 2, 3):
        for M in range(s * D + 1):
            for j in (1, 2, 3):
                assert witt.ghost_sum(table, s, M, j) == oracle_ghost_sum(table, s, M, j)


def test_zeta_values_read_counts_by_rank(monkeypatch):
    """goss_eval at s >= 1 and s <= 0 and lifted_goss_eval read the count
    list by rank: with unrank and the entries view refused they give the
    same values."""
    table = dirichlet_table(parse_extension_file(K_SQRT), 6)
    want = (goss_eval(table, 2, 12), goss_eval(table, -1, 6),
            lifted_goss_eval(table, 1, 6, 3))

    def refuse(*args):
        raise AssertionError("an evaluation made a polynomial of a rank")

    monkeypatch.setattr(zeta, "unrank", refuse)
    monkeypatch.setattr(zeta.DirichletTable, "entries", property(refuse))
    assert (goss_eval(table, 2, 12), goss_eval(table, -1, 6),
            lifted_goss_eval(table, 1, 6, 3)) == want


def test_lifted_zeta_uses_no_structure_polynomials(monkeypatch):
    def refuse(p, N):
        raise AssertionError("structure polynomials derived at run time")

    monkeypatch.setattr(witt, "witt_structure_polys", refuse)
    table = lifted_table(2, 2, "artin_schreier", {"m": 1}, 5)
    check_lifted_args(5, 1, 5, 6)
    assert len(lifted_goss_eval(table, 1, 5, 6)) == 6
    assert len(lifted_goss_eval(table, 0, 0, 1)) == 1
    goss_eval(table, 1, 5)


def test_longest_supported_length_runs():
    table = lifted_table(3, 1, "kummer_sqrt", {"c": "T"}, 2)
    w = lifted_goss_eval(table, 1, 2, WITT_LEN_BOUND)
    assert w[:3] == lifted_goss_eval(table, 1, 2, 3)
