"""Field axioms, canonical moduli, and residue field arithmetic."""

import itertools
import random

import pytest

from gosslift.errors import FieldError
from gosslift.field import (FIELD_SIZE_BOUND, FiniteField, ResidueField,
                            byte_residues, gf_create)
from gosslift import field, poly
from poly_helpers import peval, sub

SMALL_Q = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
           (2, 4), (5, 2), (3, 3)]
LARGE_Q = [(7, 2), (2, 6), (3, 4)]


def test_canonical_moduli():
    # lexicographically smallest monic irreducible, low coefficients first
    assert gf_create(2, 2).modulus == (1, 1, 1)
    assert gf_create(3, 2).modulus == (1, 0, 1)
    assert gf_create(2, 3).modulus == (1, 0, 1, 1)
    assert gf_create(5, 2).modulus == (1, 1, 1)


EXTENSION_FIELDS = [(p, m) for p in (2, 3, 5, 7, 11, 13) for m in range(2, 9)
                    if p ** m <= FIELD_SIZE_BOUND]


@pytest.mark.parametrize("p, m", EXTENSION_FIELDS)
def test_modulus_is_the_first_irreducible_candidate(p, m):
    """The lexicographic search over candidate moduli is the oracle."""
    Fp = gf_create(p)
    first = next(lower + (1,) for lower in itertools.product(range(p), repeat=m)
                 if poly.is_irreducible(Fp, lower + (1,)))
    assert gf_create(p, m).modulus == first


@pytest.mark.parametrize("p, m", EXTENSION_FIELDS)
def test_products_are_schoolbook_products_reduced_by_the_modulus(p, m):
    """All pairs up to q = 81; above, every a*g and 2,000 seeded pairs."""
    K, Fp = gf_create(p, m), gf_create(p)
    q = K.q
    if q <= 81:
        pairs = list(itertools.product(range(q), repeat=2))
    else:
        rng = random.Random(q)
        pairs = [(a, K.generator) for a in range(q)]
        pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
    for a, b in pairs:
        prod = poly.pmod(Fp, poly.pmul(Fp, K.coords(a), K.coords(b)), K.modulus)
        assert K.mul(a, b) == K.element_from_coords(prod)


def test_gf_create_caches():
    assert gf_create(3, 2) is gf_create(3, 2)
    assert gf_create(3) == FiniteField(3)


def test_axioms_exhaustive_small():
    for p, m in SMALL_Q:
        K = gf_create(p, m)
        q = K.q
        for a in range(q):
            assert K.add(a, 0) == a
            assert K.mul(a, 1) == a
            assert K.add(a, K.neg(a)) == 0
            assert K.pow_(a, q) == a
            if a:
                assert K.mul(a, K.inv(a)) == 1
        for a in range(q):
            for b in range(q):
                assert K.add(a, b) == K.add(b, a)
                assert K.mul(a, b) == K.mul(b, a)
                for c in range(q):
                    assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
                    assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
                    assert K.add(K.add(a, b), c) == K.add(a, K.add(b, c))


def test_axioms_large_fields():
    """Pairs exhaustively, triples sampled, for q in {49, 64, 81}."""
    rng = random.Random(0)
    for p, m in LARGE_Q:
        K = gf_create(p, m)
        q = K.q
        assert q <= 81
        for a in range(q):
            assert K.pow_(a, q) == a
            if a:
                assert K.mul(a, K.inv(a)) == 1
        for a in range(q):
            for b in range(q):
                assert K.add(a, b) == K.add(b, a)
                assert K.mul(a, b) == K.mul(b, a)
        for _ in range(2000):
            a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
            assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
            assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))


def test_sub_matches_add_neg():
    K = gf_create(3, 2)
    for a in range(9):
        for b in range(9):
            assert sub(K, a, b) == K.add(a, K.neg(b))


def test_pth_power_and_root():
    for p, m in ((2, 3), (3, 2), (5, 1)):
        K = gf_create(p, m)
        for a in range(K.q):
            assert K.pth_power(a) == K.pow_(a, p)
            assert K.pth_root(K.pth_power(a)) == a
            assert K.pth_power(K.pth_root(a)) == a


def test_from_int_reduces_mod_p():
    K = gf_create(3, 2)
    assert K.from_int(0) == 0
    assert K.from_int(4) == 1
    assert K.from_int(-1) == 2


def test_coords_round_trip():
    K = gf_create(3, 4)
    for a in range(K.q):
        c = K.coords(a)
        assert len(c) == 4
        assert K.element_from_coords(c) == a


def test_pow_negative_exponent():
    K = gf_create(5)
    for a in range(1, 5):
        assert K.pow_(a, -1) == K.inv(a)
        assert K.pow_(a, -2) == K.inv(K.mul(a, a))
        assert K.pow_(a, K.q - 1) == 1


def test_bad_field_parameters():
    with pytest.raises(FieldError):
        FiniteField(4)
    with pytest.raises(FieldError):
        FiniteField(3, 0)
    with pytest.raises(FieldError):
        FiniteField(2, 9)  # 512 > FIELD_SIZE_BOUND
    with pytest.raises(FieldError):
        gf_create(3).inv(0)
    assert FIELD_SIZE_BOUND == 256


def test_residue_field_matches_table_field():
    """F_9 as F_3[T]/(T^2+1) against the table-driven F_9, same modulus."""
    K = gf_create(3)
    K9 = gf_create(3, 2)
    R = ResidueField(K, (1, 0, 1))
    assert R.modulus == K9.modulus
    assert R.order == 9

    def iso(a):
        return K9.coords(a)

    for a in range(9):
        for b in range(9):
            assert iso(K9.add(a, b)) == R.add(iso(a), iso(b))
            assert iso(K9.mul(a, b)) == R.mul(iso(a), iso(b))
        assert iso(K9.neg(a)) == R.neg(iso(a))
        assert iso(K9.pth_power(a)) == R.pth_power(iso(a))
        if a:
            assert iso(K9.inv(a)) == R.inv(iso(a))


def test_residue_field_inverses():
    for p, mod in ((3, (1, 0, 1)), (5, (2, 0, 1)), (3, (1, 2, 0, 1))):
        R = ResidueField(gf_create(p), mod)
        for a in itertools.product(range(p), repeat=R.deg):
            if a == R.zero:
                with pytest.raises(FieldError):
                    R.inv(a)
                continue
            assert R.mul(a, R.inv(a)) == R.one
            assert poly.power(R.mul, R.one, a, R.order - 1) == R.one


def test_residue_field_project_lift():
    K = gf_create(3)
    R = ResidueField(K, (1, 0, 1))
    assert R.project((1, 0, 1)) == R.zero
    assert R.project((0, 1)) == (0, 1)
    assert R.project((0, 0, 1)) == (2, 0)  # T^2 = -1
    for a in itertools.product(range(3), repeat=2):
        assert R.project(poly.ptrim(K, a)) == a


def test_residue_field_over_extension_base():
    K9 = gf_create(3, 2)
    irred = None
    for f in poly.enumerate_monic(K9, 2):
        if poly.is_irreducible(K9, f):
            irred = f
            break
    R = ResidueField(K9, irred)
    assert R.order == 81
    rng = random.Random(1)
    elems = list(itertools.product(range(K9.q), repeat=2))
    for _ in range(200):
        a, b = rng.choice(elems), rng.choice(elems)
        assert R.mul(a, b) == R.mul(b, a)
        if a != R.zero:
            assert R.mul(a, R.inv(a)) == R.one


def test_residue_field_bad_modulus():
    K = gf_create(3)
    with pytest.raises(FieldError):
        ResidueField(K, (1,))
    with pytest.raises(FieldError):
        ResidueField(K, (0, 2))


def test_byte_residues_is_the_one_packing_rule():
    """Polynomials of degree d pack into bytes over F_p exactly when
    (d + 1)(p - 1)^2 < 256; never over F_4 or F_16."""
    assert byte_residues(gf_create(3), 62) == bytes(b % 3 for b in range(256))
    assert byte_residues(gf_create(3), 63) is None
    assert byte_residues(gf_create(7), 6) == bytes(b % 7 for b in range(256))
    assert byte_residues(gf_create(7), 7) is None
    assert byte_residues(gf_create(2), 254) is not None
    for p, m in ((2, 2), (2, 4)):
        assert byte_residues(gf_create(p, m), 1) is None


@pytest.mark.parametrize("p, m, d", [(2, 1, 9), (3, 1, 6), (7, 1, 6),
                                     (7, 1, 7), (2, 2, 4)])
def test_taylor_shift_on_both_paths(p, m, d, monkeypatch):
    """f -> f(X - 1), byte-packed where byte_residues allows it and by
    Horner's rule always, checked at every point of the field."""
    K = gf_create(p, m)
    shifts = [field._taylor_shift(K, d)]
    monkeypatch.setattr(field, "byte_residues", lambda K, d: None)
    shifts.append(field._taylor_shift(K, d))
    rng = random.Random(d)
    for _ in range(20):
        f = tuple(rng.randrange(K.q) for _ in range(d)) + (1,)
        for shift in shifts:
            g = shift(f)
            for x in K.elements():
                assert peval(K, g, x) == peval(K, f, sub(K, x, K.one))
