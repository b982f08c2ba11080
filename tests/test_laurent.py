"""Laurent tails at 1/T with explicit precision tracking.

The package's series are printed records; the arithmetic checked here is
the oracle arithmetic in witt_oracle.py, which takes and returns them."""

import random

import pytest

from gosslift.field import gf_create
from gosslift import poly
from gosslift.poly import MonicPoly
from gosslift.witt import laurent
from witt_oracle import (LaurentError, coefficient, dense, laurent_inv_pow,
                         series, series_add, series_mul, series_neg,
                         series_pow, series_scale, series_sub)


def tpoly(K, coeffs, precision):
    """The series of a polynomial in T (tuple, constant term first), with
    the terms past the precision dropped."""
    return series(K, 1 - len(coeffs), coeffs[::-1], precision)


def test_laurent_embeds_a_polynomial():
    K = gf_create(3)
    x = laurent(K, 2, (1, 0, 2), 4)  # T^2 + 2
    assert x.terms == ((1, 2), (2, 0))
    assert dense(x) == (-2, (1, 0, 2))
    assert coefficient(x, -2) == 1
    assert coefficient(x, -1) == 0
    assert coefficient(x, 0) == 2
    assert str(x) == "T^2 + 2 [prec 4]"
    # a zero top coefficient makes no term
    assert laurent(K, 3, (0, 1, 0, 2), 4) == tpoly(K, (2, 0, 1), 4) == x
    assert str(laurent(K, -1, (), 3)) == "0 [prec 3]"


def test_add_sub_scale():
    K = gf_create(3)
    a = tpoly(K, (1, 1), 5)
    b = tpoly(K, (2, 2), 3)
    s = series_add(a, b)
    assert not s.terms
    assert s.precision == 3
    assert not series_sub(a, a).terms
    assert not series_add(a, series_neg(a)).terms
    assert not series_scale(a, 0).terms
    assert series_scale(a, 2).terms == ((2, 1), (2, 0))
    assert series_scale(a, 2).precision == 5


def test_mul_precision_rule():
    K = gf_create(3)
    a = series(K, 1, (1,), 5)   # T^-1 known through T^-5
    b = series(K, 2, (1,), 4)   # T^-2 known through T^-4
    c = series_mul(a, b)
    assert dense(c)[0] == 3
    assert c.precision == min(5, 4, 1 + 4, 2 + 5)
    one = series(K, 0, (1,), 6)
    assert series_mul(one, a).terms == a.terms
    assert series_mul(one, a).precision == 5


def test_mul_wide_times_narrow():
    # long coefficient list against a tight precision window
    K = gf_create(3)
    f = (1, 1, 1, 1)
    g = (2, 1)
    a = tpoly(K, f, 0)
    b = tpoly(K, g, 0)
    prod = series_mul(a, b)
    expect = tpoly(K, poly.pmul(K, f, g), prod.precision)
    assert prod == expect
    narrow = series(K, 4, (1, 1), 4)
    wide = tpoly(K, (1, 2, 0, 1), 8)
    assert series_mul(narrow, wide).precision == min(4, 8, 4 + 8, -3 + 4)


def test_mul_matches_polynomial_mul():
    rng = random.Random(0)
    for p, m in ((3, 1), (3, 2), (5, 1)):
        K = gf_create(p, m)
        for _ in range(60):
            f = tuple(rng.randrange(K.q) for _ in range(rng.randrange(1, 5)))
            g = tuple(rng.randrange(K.q) for _ in range(rng.randrange(1, 5)))
            a = tpoly(K, f, 6)
            b = tpoly(K, g, 6)
            prod = series_mul(a, b)
            expect = tpoly(K, poly.pmul(K, f, g), prod.precision)
            assert prod == expect


def agree(a, b):
    """Equal coefficients through the joint precision of a and b."""
    top = min(a.precision, b.precision)
    return all(coefficient(a, j) == coefficient(b, j)
               for j in range(min(dense(a)[0], dense(b)[0]), top + 1))


def test_distributivity_on_samples():
    rng = random.Random(1)
    K = gf_create(3)

    def rand_series():
        v = rng.randrange(-2, 3)
        coeffs = [rng.randrange(3) for _ in range(4)]
        return series(K, v, coeffs, rng.randrange(4, 8))

    for _ in range(100):
        a, b, c = rand_series(), rand_series(), rand_series()
        lhs = series_mul(series_add(a, b), c)
        rhs = series_add(series_mul(a, c), series_mul(b, c))
        assert agree(lhs, rhs)
        assert agree(series_mul(a, b), series_mul(b, a))
        assert agree(series_mul(series_mul(a, b), c),
                     series_mul(a, series_mul(b, c)))


def test_pow_int():
    K = gf_create(3)
    x = series(K, 1, (1, 1), 6)  # T^-1 + T^-2
    sq = series_mul(x, x)
    assert series_pow(x, 2) == sq
    assert series_pow(x, 0) == series(K, 0, (1,), 6)
    assert series_pow(x, 1) == x
    cube = series_pow(x, 3)
    assert dense(cube)[0] == 3
    # at negative valuation a power keeps the precision of the products
    t = series(K, -1, (1,), 6)  # T
    assert series_pow(t, 1) == t
    assert series_pow(t, 2) == series_mul(t, t)
    with pytest.raises(LaurentError):
        series_pow(x, -1)


def test_mixed_fields_raise():
    a = series(gf_create(3), 0, (1,), 4)
    b = series(gf_create(3, 2), 0, (1,), 4)
    with pytest.raises(LaurentError):
        series_add(a, b)
    with pytest.raises(LaurentError):
        series_mul(a, b)


def test_immutable():
    x = series(gf_create(3), 0, (1,), 4)
    with pytest.raises(AttributeError):
        x.terms = ()


def test_inv_pow_geometric_series():
    K = gf_create(3)
    n = MonicPoly(K, (1, 1))
    x = laurent_inv_pow(n, 1, 4)
    assert str(x) == "T^-1 + 2*T^-2 + T^-3 + 2*T^-4 [prec 4]"
    assert dense(x)[0] == 1
    assert coefficient(x, 1) == 1


def test_inv_pow_multiplies_back():
    rng = random.Random(2)
    for p, m in ((3, 1), (2, 1), (3, 2)):
        K = gf_create(p, m)
        for _ in range(100):
            d = rng.randrange(1, 4)
            coeffs = tuple(rng.randrange(K.q) for _ in range(d)) + (1,)
            n = MonicPoly(K, coeffs)
            j = rng.randrange(1, 4)
            D = d * j
            M = D + rng.randrange(0, 5)
            x = laurent_inv_pow(n, j, M)
            assert dense(x)[0] == D
            back = series_mul(
                x, tpoly(K, poly.ppow(K, coeffs, j), M))
            assert back == series(K, 0, (1,), M - D)


def test_inv_pow_errors():
    K = gf_create(3)
    n = MonicPoly(K, (0, 0, 1))
    with pytest.raises(LaurentError):
        laurent_inv_pow(n, 0, 5)
    with pytest.raises(LaurentError):
        laurent_inv_pow(n, 3, 5)  # needs precision >= 6
