"""Parsing and canonical printing of polynomial text."""

import random

import pytest

from gosslift.errors import PolyError
from gosslift.field import gf_create
from gosslift.poly import ptrim
from gosslift.textforms import (MAX_TEXT_DEGREE, format_terms, format_tpoly,
                                format_xt_poly, parse_monic, parse_tpoly,
                                parse_xt_poly)


def test_parse_tpoly_basic():
    K = gf_create(3)
    assert parse_tpoly(K, "T^2 + 2*T + 1") == (1, 2, 1)
    assert parse_tpoly(K, "T") == (0, 1)
    assert parse_tpoly(K, "5") == (2,)
    assert parse_tpoly(K, "0") == ()
    assert parse_tpoly(K, "T + T + T") == ()
    assert parse_tpoly(K, "2*T^3") == (0, 0, 0, 2)


def test_parse_signs():
    K = gf_create(3)
    assert parse_tpoly(K, "-T + 1") == (1, 2)
    assert parse_tpoly(K, "T - - 1") == (1, 1)
    assert parse_tpoly(K, "- - T") == (0, 1)
    assert parse_tpoly(K, "T^2 - T") == (0, 2, 1)


def test_parse_whitespace_and_products():
    K = gf_create(5)
    assert parse_tpoly(K, "  3 * T ^ 2  ") == (0, 0, 3)
    assert parse_tpoly(K, "2*3") == (1,)
    assert parse_tpoly(K, "T*T*T") == (0, 0, 0, 1)


def test_parse_generator_coefficients():
    K9 = gf_create(3, 2)
    g = K9.element_from_coords((0, 1))
    assert parse_tpoly(K9, "g*T") == (0, g)
    # modulus is X^2 + 1, so g^2 = 2
    assert parse_tpoly(K9, "g^2") == (2,)
    assert parse_tpoly(K9, "g + g") == (K9.add(g, g),)
    two_g_plus_one = K9.add(K9.add(g, g), K9.one)
    assert parse_tpoly(K9, "2*g + 1") == (two_g_plus_one,)


def test_parse_errors():
    K = gf_create(3)
    with pytest.raises(PolyError):
        parse_tpoly(K, "")
    with pytest.raises(PolyError):
        parse_tpoly(K, "T +")
    with pytest.raises(PolyError):
        parse_tpoly(K, "T T")
    with pytest.raises(PolyError):
        parse_tpoly(K, "T^")
    with pytest.raises(PolyError):
        parse_tpoly(K, "X + 1")
    with pytest.raises(PolyError):
        parse_tpoly(K, "y + 1")
    with pytest.raises(PolyError):
        parse_tpoly(K, "g + 1")  # no generator over a prime field
    with pytest.raises(PolyError):
        parse_monic(K, "2*T + 1")


def test_parse_rejects_huge_degrees_and_integers():
    # refused before a coefficient list of that length is allocated
    K = gf_create(3)
    assert parse_tpoly(K, f"T^{MAX_TEXT_DEGREE}")[-1] == 1
    for text in (f"T^{MAX_TEXT_DEGREE + 1}", "T^10000000000",
                 "T^600 * T^600", "9" * 5000 + "*T"):
        with pytest.raises(PolyError):
            parse_tpoly(K, text)
    with pytest.raises(PolyError):
        parse_xt_poly(K, "X^2 - T^5000000000")
    with pytest.raises(PolyError):
        parse_xt_poly(K, "X^5000000000 - T")


def test_parse_xt_poly():
    K = gf_create(3)
    got = parse_xt_poly(K, "X^3 - X - T")
    assert got == ((0, 2), (2,), (), (1,))
    assert parse_xt_poly(K, "X^2 - T") == ((0, 2), (), (1,))
    assert parse_xt_poly(K, "X - X") == ()
    mixed = parse_xt_poly(K, "T*X^2 + 2*X^2 + 1")
    assert mixed == ((1,), (), (2, 1))


def test_format_tpoly_canonical():
    K = gf_create(3)
    assert format_tpoly(K, (1, 2, 1)) == "T^2 + 2*T + 1"
    assert format_tpoly(K, ()) == "0"
    assert format_tpoly(K, (0, 1)) == "T"
    assert format_tpoly(K, (2,)) == "2"
    assert format_tpoly(K, (0, 0, 2)) == "2*T^2"


def test_format_terms_negative_exponents():
    K = gf_create(3)
    pairs = [(1, -1), (2, -2)]
    assert format_terms(K, pairs) == "T^-1 + 2*T^-2"
    assert format_terms(K, [(0, -1)]) == "0"
    assert format_terms(K, [(1, 0)]) == "1"


def test_format_generator_terms():
    K9 = gf_create(3, 2)
    g = K9.element_from_coords((0, 1))
    two_g_plus_one = K9.add(K9.add(g, g), K9.one)
    assert format_tpoly(K9, (two_g_plus_one,)) == "2*g + 1"
    assert format_tpoly(K9, (0, g)) == "g*T"
    assert format_terms(K9, [(g, -2)]) == "g*T^-2"


def test_format_xt_poly():
    K = gf_create(3)
    assert format_xt_poly(K, ((0, 2), (2,), (), (1,))) == "X^3 + 2*X + 2*T"
    assert format_xt_poly(K, ()) == "0"


def test_round_trips():
    """Seeded random polynomials in T, and in X over F_q[T], print and parse
    back to themselves, g coefficients included over F_4 and F_9."""
    rng = random.Random(0)
    for p, m in ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2)):
        K = gf_create(p, m)

        def tpoly():
            return ptrim(K, [rng.randrange(K.q) for _ in range(rng.randrange(1, 6))])

        for _ in range(50):
            coeffs = tpoly()
            assert parse_tpoly(K, format_tpoly(K, coeffs)) == coeffs
            cols = [tpoly() for _ in range(rng.randrange(1, 5))]
            while cols and not cols[-1]:
                cols.pop()
            xt = tuple(cols)
            assert parse_xt_poly(K, format_xt_poly(K, xt)) == xt


def test_xt_round_trips_builtins():
    K = gf_create(3)
    for text in ("X^3 + 2*X + 2*T", "X^2 + 2*T", "X^2 + 2*T + 2",
                 "X^3 + 2*T^5", "X + 2*T"):
        xt = parse_xt_poly(K, text)
        assert format_xt_poly(K, xt) == text
        assert parse_xt_poly(K, format_xt_poly(K, xt)) == xt


# (text, error) pairs that both parsers give over every field
BAD_TEXTS = [
    ("", "empty polynomial text"),
    ("T T", "terms must be joined by '+' or '-'"),
    ("2 3", "terms must be joined by '+' or '-'"),
    ("T^", "expected an integer exponent after '^'"),
    ("T^-1", "expected an integer exponent after '^'"),
    ("T*", "expected a factor"),
    ("*T", "unexpected '*' in polynomial term"),
    ("+", "dangling sign in polynomial text"),
    ("T -", "dangling sign in polynomial text"),
    ("T^1001", "term degree 1001 exceeds the bound 1000"),
    ("9" * 5000, "integer of 5000 digits is too long"),
    ("T + @", "unexpected character '@' in polynomial text"),
    ("3^2", "terms must be joined by '+' or '-'"),
    ("T^2^3", "terms must be joined by '+' or '-'"),
    ("(T)", "unexpected character '(' in polynomial text"),
]


@pytest.mark.parametrize("p, m", [(3, 1), (2, 2)])
def test_parse_error_texts(p, m):
    K = gf_create(p, m)
    cases = [(parse, text, error) for text, error in BAD_TEXTS
             for parse in (parse_tpoly, parse_xt_poly)]
    cases.append((parse_tpoly, "X", "unexpected X in a polynomial in T"))
    if m == 1:
        cases += [(parse, "g", "generator g needs an extension coefficient field")
                  for parse in (parse_tpoly, parse_xt_poly)]
    for parse, text, error in cases:
        with pytest.raises(PolyError) as info:
            parse(K, text)
        assert str(info.value) == error, (parse.__name__, text)


def test_superscript_digits_are_refused_and_decimal_digits_read():
    """A superscript two is a digit to str.isdigit but not to int(): it is
    an unexpected character.  A decimal digit of another script is one
    that int() reads (Arabic-Indic two is 2)."""
    K = gf_create(3)
    for parse in (parse_tpoly, parse_xt_poly):
        for text in ("T\u00b2 + 1", "T^\u00b2"):
            with pytest.raises(PolyError) as info:
                parse(K, text)
            assert str(info.value) == "unexpected character '\u00b2' in polynomial text"
    assert parse_tpoly(K, "\u0662*T + T^\u0662") == (0, 2, 1)
    assert parse_xt_poly(K, "X^\u0662 - \u0662") == ((1,), (), (1,))
