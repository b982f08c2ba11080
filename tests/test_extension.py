"""Extension specs, splitting types, discriminants, and config parsing."""

import itertools
import re

import pytest

from gosslift.errors import ExtensionError
from gosslift.extension import (PRIME_DEGREE_BOUND, ExtensionSpec,
                                SplittingType, builtin_extension,
                                discriminant, parse_extension,
                                parse_extension_file, splitting_type,
                                trivial_extension)
from gosslift.field import ResidueField, gf_create
from gosslift import poly
from gosslift.poly import enumerate_monic_irreducibles
from gosslift.textforms import (MAX_TEXT_DEGREE, parse_monic, parse_tpoly,
                                parse_xt_poly)


def primes_through(K, bound):
    out = []
    for d in range(1, bound + 1):
        out.extend(enumerate_monic_irreducibles(K, d))
    return out


def test_splitting_type_basics():
    st = SplittingType(((2, 1), (1, 1)))
    assert st.pairs == ((1, 1), (2, 1))
    assert st.degree == 3
    assert st.inertia_degrees() == (1, 1)
    assert str(st) == "(1,1),(2,1)"
    assert SplittingType(((1, 1), (1, 2))).pairs == SplittingType(((1, 2), (1, 1))).pairs
    with pytest.raises(ExtensionError):
        SplittingType(((0, 1),))
    with pytest.raises(ExtensionError):
        SplittingType(((1, -2),))


def test_extension_spec_validation():
    K = gf_create(3)
    with pytest.raises(ExtensionError):
        ExtensionSpec("K", "notafield", ((0, 1), (1,)))
    with pytest.raises(ExtensionError):
        ExtensionSpec("K", K, ((1, 1),))  # X-degree zero
    with pytest.raises(ExtensionError):
        ExtensionSpec("K", K, ((0, 2), (), (2,)))  # not monic in X
    t = (0, 1)
    with pytest.raises(ExtensionError):
        # override total degree must match the extension degree
        ExtensionSpec("K", K, parse_xt_poly(K, "X^2 - T"),
                      overrides={t: SplittingType(((1, 1),))})
    ext = ExtensionSpec("K", K, parse_xt_poly(K, "X^2 - T"),
                        overrides={t: SplittingType(((2, 1),))})
    assert ext.degree == 2
    assert ext.poly_text() == "X^2 + 2*T"


def test_trivial_extension():
    K = gf_create(3)
    ext = trivial_extension(K)
    assert ext.name == "F"
    assert ext.degree == 1
    assert discriminant(ext) == (1,)
    for p in primes_through(K, 3):
        assert splitting_type(ext, p).pairs == ((1, 1),)


def test_discriminant_quadratic():
    K3 = gf_create(3)
    ext = builtin_extension(K3, "kummer_sqrt", c="T")
    assert discriminant(ext) == (0, 1)
    K5 = gf_create(5)
    ext2 = builtin_extension(K5, "kummer_sqrt", c="T^2 + T")
    assert discriminant(ext2) == parse_monic(K5, "T^2 + T")


def test_discriminant_cubic():
    # X^3 + aX + b has discriminant -4a^3 - 27b^2
    K3 = gf_create(3)
    as1 = builtin_extension(K3, "artin_schreier", m=1)
    assert discriminant(as1) == (1,)
    K5 = gf_create(5)
    ext = ExtensionSpec("C", K5, parse_xt_poly(K5, "X^3 - T"),
                        overrides={(0, 1): SplittingType(((3, 1),))})
    assert discriminant(ext) == parse_monic(K5, "T^2")


def test_builtin_artin_schreier():
    K = gf_create(3)
    ext = builtin_extension(K, "artin_schreier", m=5)
    assert ext.name == "AS_m5"
    assert ext.degree == 3
    assert ext.poly_text() == "X^3 + 2*X + 2*T^5"
    assert ext.overrides == {}
    K2 = gf_create(2)
    ext2 = builtin_extension(K2, "artin_schreier", m=1, name="W")
    assert ext2.poly_text() == "X^2 + X + T"
    with pytest.raises(ExtensionError):
        builtin_extension(K, "artin_schreier", m=0)
    with pytest.raises(ExtensionError):
        builtin_extension(K, "artin_schreier", m=1, junk=2)


def test_artin_schreier_exponent_is_bounded():
    """m is a term degree, bounded as a poly= term is."""
    K = gf_create(3)
    top = builtin_extension(K, "artin_schreier", m=MAX_TEXT_DEGREE)
    assert len(top.xt_coeffs[0]) == MAX_TEXT_DEGREE + 1
    for m in (MAX_TEXT_DEGREE + 1, 99999999):
        with pytest.raises(ExtensionError,
                           match=f"artin_schreier needs 1 <= m <= {MAX_TEXT_DEGREE}"):
            builtin_extension(K, "artin_schreier", m=m)


def test_builtin_kummer():
    K = gf_create(3)
    ext = builtin_extension(K, "kummer_sqrt", c="T^2 + T")
    t = (0, 1)
    t1 = (1, 1)
    assert set(ext.overrides) == {t, t1}
    assert all(st.pairs == ((2, 1),) for st in ext.overrides.values())
    assert splitting_type(ext, t).pairs == ((2, 1),)
    with pytest.raises(ExtensionError):
        builtin_extension(gf_create(2), "kummer_sqrt", c="T")
    with pytest.raises(ExtensionError):
        builtin_extension(K, "kummer_sqrt", c="0")
    # T^3 has zero derivative over F_3
    for c in ("T^2", "T^3", "T^3 + 2*T^2 + T"):
        with pytest.raises(ExtensionError, match="kummer_sqrt needs squarefree c"):
            builtin_extension(K, "kummer_sqrt", c=c)
    assert builtin_extension(gf_create(5), "kummer_sqrt", c="2").overrides == {}
    with pytest.raises(ExtensionError):
        builtin_extension(K, "kummer_sqrt")
    with pytest.raises(ExtensionError):
        builtin_extension(K, "frobenius_tower")


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_builtin_kummer_refuses_exactly_the_constant_squares(p, m):
    """A constant c gives X^2 - c irreducible exactly when c is not a
    square in F_q; the squares are found by squaring every element."""
    K = gf_create(p, m)
    squares = {K.mul(x, x) for x in K.elements()}
    for c in K.elements():
        if c == K.zero:
            continue
        if c in squares:
            with pytest.raises(ExtensionError,
                               match="kummer_sqrt needs c that is not a square in F_q"):
                builtin_extension(K, "kummer_sqrt", c=(c,))
        else:
            assert builtin_extension(K, "kummer_sqrt", c=(c,)).overrides == {}


def test_kummer_split_iff_square():
    """X^2 - c splits at an odd prime exactly when c is a square there."""
    for q, c_text, bound in ((3, "T", 5), (3, "T + 1", 4), (5, "T^2 + T", 3)):
        K = gf_create(q)
        ext = builtin_extension(K, "kummer_sqrt", c=c_text)
        c = parse_tpoly(K, c_text)
        seen = set()
        for p in primes_through(K, bound):
            if p in ext.overrides:
                continue
            R = ResidueField(K, p)
            cbar = R.project(c)
            squares = {R.mul(a, a)
                       for a in itertools.product(range(K.q), repeat=R.deg)}
            st = splitting_type(ext, p)
            seen.add(st.pairs)
            if cbar in squares:
                assert st.pairs == ((1, 1), (1, 1))
            else:
                assert st.pairs == ((1, 2),)
        assert ((1, 1), (1, 1)) in seen
        assert ((1, 2),) in seen


def trace_to_prime(R, a):
    """Trace of a from R down to F_p, lifted to F_q[T]: () when it is zero."""
    acc, x = R.zero, a
    for _ in range(R.base.m * R.deg):
        acc = R.add(acc, x)
        x = R.pth_power(x)
    return poly.ptrim(R.base, acc)


def test_artin_schreier_split_iff_trace_zero():
    """X^p - X - T^m splits at a prime exactly when T^m has trace zero."""
    for q, m, bound in ((2, 1, 4), (2, 3, 4), (3, 1, 4), (3, 5, 3)):
        K = gf_create(q)
        ext = builtin_extension(K, "artin_schreier", m=m)
        p = K.p
        seen = set()
        for pr in primes_through(K, bound):
            R = ResidueField(K, pr)
            tm = R.project((K.zero,) * m + (K.one,))
            st = splitting_type(ext, pr)
            seen.add(st.pairs)
            # Galois: all inertia degrees above a prime agree
            assert len(set(st.inertia_degrees())) == 1
            if not trace_to_prime(R, tm):
                assert st.pairs == ((1, 1),) * p
            else:
                assert st.pairs == ((1, p),)
        assert len(seen) == 2


def test_splitting_rejects_bad_input():
    K = gf_create(3)
    ext = builtin_extension(K, "artin_schreier", m=1)
    with pytest.raises(ExtensionError, match="T\\^2 \\+ 2\\*T is not irreducible"):
        splitting_type(ext, (0, 2, 1))  # T(T+2) is composite
    with pytest.raises(ExtensionError, match="the unit polynomial is not a prime"):
        splitting_type(ext, (1,))
    # not a trimmed monic tuple of elements of F_3: a list, a trailing
    # zero, a leading 2, no coefficients, and T + 4, a prime over F_5
    for bad in ([0, 1], (0, 1, 0), (0, 2), (), (4, 1)):
        with pytest.raises(ExtensionError, match="monic coefficient tuples"):
            splitting_type(ext, bad)
    assert splitting_type(ext, (0, 1)).pairs == ((1, 1),) * 3


def test_ramified_without_override_raises():
    """A spec whose ramified prime carries no override is never built, so
    no splitting type can be asked of it."""
    K = gf_create(3)
    with pytest.raises(ExtensionError,
                       match="prime T divides the discriminant of bare but has no override"):
        ExtensionSpec("bare", K, parse_xt_poly(K, "X^2 - T"))


BAD3 = """
[field]
p=3
m=1
[extension]
name=bad3
builtin=kummer_sqrt:c=T
[override]
prime=T + 1
type=(1,1),(1,1)
"""


def test_override_off_the_discriminant_is_refused():
    """At a prime that does not divide the discriminant, A[X]/(f) is
    P-maximal and the type is the factorization of f mod P
    (Dedekind-Kummer), so an override there is refused, not read."""
    with pytest.raises(ExtensionError) as err:
        parse_extension(BAD3)
    assert str(err.value) == ("override at T + 1, which does not divide the "
                              "discriminant of bad3")
    # without the override, T + 1 is inert, as in K_sqrt
    ext = parse_extension(BAD3.split("[override]")[0])
    assert splitting_type(ext, (1, 1)).pairs == ((1, 2),)
    K = gf_create(3)
    # a missing override is named before a stray one
    with pytest.raises(ExtensionError,
                       match="^prime T divides the discriminant of K but has no override$"):
        ExtensionSpec("K", K, parse_xt_poly(K, "X^2 - T"),
                      overrides={(1, 1): SplittingType(((2, 1),))})
    # of several strays, the first in enumeration order is named: T + 2
    # before T^2 + 1, though (1, 0, 1) < (2, 1) as tuples
    inert = SplittingType(((1, 3),))
    with pytest.raises(ExtensionError,
                       match="^override at T \\+ 2, which does not divide "
                             "the discriminant of AS_m1$"):
        ExtensionSpec("AS_m1", K, parse_xt_poly(K, "X^3 - X - T"),
                      overrides={(1, 0, 1): inert, (2, 1): inert})


def test_prime_degree_bound_comes_before_rabin(monkeypatch):
    """A prime of degree above PRIME_DEGREE_BOUND is refused, given as a
    query or as an override, before Rabin's test runs."""
    K = gf_create(3)
    ext = builtin_extension(K, "artin_schreier", m=1)
    big = (2, 1) + (0,) * (PRIME_DEGREE_BOUND - 1) + (1,)
    assert poly.pdeg(big) == PRIME_DEGREE_BOUND + 1

    def no_rabin(K, g):
        raise AssertionError("Rabin's test ran")
    monkeypatch.setattr(poly, "is_irreducible", no_rabin)
    with pytest.raises(ExtensionError, match=f"exceeds bound {PRIME_DEGREE_BOUND}"):
        splitting_type(ext, big)
    with pytest.raises(ExtensionError, match=f"exceeds bound {PRIME_DEGREE_BOUND}"):
        parse_extension(_poly_cfg(3, "X^2 - T", "[override]\nprime=T^1000 + T + 2\n"
                                                "type=(2,1)\n"))


CONFIG_POLY = """
# quadratic with a ramified prime
[field]
p=3
[extension]
name=K
poly=X^2 - T
[override]
prime=T
type=(2,1)
"""

CONFIG_BUILTIN = """
[field]
p=3
m=1
[extension]
name=KB
builtin=kummer_sqrt:c=T
[override]
prime=T
type=(1,1),(1,1)
"""


def test_parse_extension_poly():
    ext = parse_extension(CONFIG_POLY)
    assert ext.name == "K"
    assert ext.field == gf_create(3)
    assert ext.degree == 2
    t = (0, 1)
    assert splitting_type(ext, t).pairs == ((2, 1),)
    assert splitting_type(ext, (1, 1)).degree == 2


def test_parse_extension_builtin_merge():
    # config override wins over the builtin's own override at T
    ext = parse_extension(CONFIG_BUILTIN)
    t = (0, 1)
    assert splitting_type(ext, t).pairs == ((1, 1), (1, 1))


def test_parse_extension_file_round_trip(tmp_path):
    cfg = tmp_path / "quad.cfg"
    cfg.write_text(CONFIG_POLY)
    ext = parse_extension_file(str(cfg))
    assert ext.name == "K"
    with pytest.raises(ExtensionError):
        parse_extension_file(str(tmp_path / "missing.cfg"))


def test_parse_extension_errors():
    bad = [
        "",                                             # no sections
        "[extension] name=K poly=X^2-T",                # missing field
        "[field] m=2\n[extension] name=K poly=X-T",     # missing p
        "[field] p=x\n[extension] name=K poly=X-T",     # non-integer p
        "[field] p=3",                                  # missing extension
        "[field] p=3\n[extension] poly=X-T",            # missing name
        "[field] p=3\n[extension] name=K",              # neither poly nor builtin
        "[field] p=3\n[extension] name=K poly=X-T builtin=kummer_sqrt:c=T",
        "[field] p=3\n[extension] name=K poly=X^2-T",   # uncovered ramified prime
        "[field] p=3\n[extension] name=K poly=X-T\n[override] type=(1,1)",
        "[field] p=3\n[extension] name=K poly=X-T\n[override] prime=T",
        "[field] p=3\n[extension] name=K poly=X-T\n[override] prime=T type=junk",
        "[field] p=3\n[field] p=5\n[extension] name=K poly=X-T",
        "p=3\n[extension] name=K poly=X-T",             # key before section
        "[field] p=3 stray\n[extension] name=K poly=X-T",
        "[field] p=3\n[extension] name=K builtin=kummer_sqrt:c",
    ]
    for text in bad:
        with pytest.raises(ExtensionError):
            parse_extension(text)


@pytest.mark.parametrize("text, key", [
    ("[field] p=3 M=2\n[extension] name=K poly=X-T", "'M' in the [field]"),
    ("[field] p=3 p=5\n[extension] name=K poly=X-T", "'p' given twice in the [field]"),
    ("[field] p=3\n[extension] name=K poly=X-T poly=X+T",
     "'poly' given twice in the [extension]"),
    ("[field] p=3\n[extension] name=K name=L poly=X-T",
     "'name' given twice in the [extension]"),
    ("[field] p=3\n[extension] name=K poly=X^2-T\n[override] prime=T prime=T+1 type=(2,1)",
     "'prime' given twice in the [override]"),
    ("[field] p=3\n[extension] name=K poly=X-T\n[override] prime=T type=(1,1) type=(1,1)",
     "'type' given twice in the [override]"),
    ("[field] p=3\n[extension] name=K poly=X-T ramified=T", "'ramified' in the [extension]"),
    ("[field] p=3\n[extension] name=K poly=X-T\n[overrides] prime=T type=(1,1)",
     "unknown section [overrides]"),
], ids=["unknown-key", "repeated-p", "repeated-poly", "repeated-name", "repeated-prime",
        "repeated-type", "unknown-extension-key", "unknown-section"])
def test_unknown_and_repeated_keys_refused(text, key):
    """Each section holds only its own keys, each at most once: nothing
    is dropped or overwritten without a word."""
    with pytest.raises(ExtensionError, match=re.escape(key)):
        parse_extension(text)


@pytest.mark.parametrize("text, pairs", [
    ("(2,1)", ((2, 1),)),
    ("(2, 1)", ((2, 1),)),
    ("( 2 , 1 )", ((2, 1),)),
    ("(1,1),(1,1)", ((1, 1), (1, 1))),
    ("(1,1) (1,1)", ((1, 1), (1, 1))),
    ("(1,1) , (1,1)", ((1, 1), (1, 1))),
])
def test_splitting_type_text_accepted(text, pairs):
    ext = parse_extension(_poly_cfg(3, "X^2 - T", f"[override]\nprime=T\ntype={text}\n"))
    assert splitting_type(ext, (0, 1)).pairs == pairs


@pytest.mark.parametrize("text", [
    "x(2,1)(0", "(2,1)(1,1x)junk", "(2,1),", ",(2,1)", "(1,1),,(1,1)",
    "(1 1,1)", "(2;1)", "(2,1", "2,1", "(1" + "1" * 5000 + ",1)",
], ids=["prefix", "suffix", "trailing-comma", "leading-comma", "double-comma",
        "split-digits", "semicolon", "unclosed", "no-parens", "huge-entry"])
def test_splitting_type_text_refused(text):
    """The whole value must be (e,f) pairs: a prefix, a suffix or a
    stray character anywhere is refused, not read past."""
    with pytest.raises(ExtensionError,
                       match=re.escape(f"cannot parse splitting type {text!r}")):
        parse_extension(_poly_cfg(3, "X^2 - T", f"[override]\nprime=T\ntype={text}\n"))


def test_duplicate_override_rejected():
    text = (CONFIG_POLY + "[override]\nprime=T\ntype=(2,1)\n")
    with pytest.raises(ExtensionError):
        parse_extension(text)


def test_config_value_continuation():
    # a value may contain spaces; bare tokens continue the previous value
    ext = parse_extension("""
[field]
p=3
[extension]
name=A
poly=X^3 - X - T
""")
    assert ext.poly_text() == "X^3 + 2*X + 2*T"
    with pytest.raises(ExtensionError):
        parse_extension("[field]\np = 3\n[extension]\nname=A poly=X-T")


def _poly_cfg(p, poly_text, extra=""):
    return f"[field]\np={p}\n[extension]\nname=K\npoly={poly_text}\n{extra}"


def test_reducible_polynomial_rejected():
    # X (X^2 + X + 1): no prime ramifies, and every prime of degree <= 2
    # over F_5 leaves a factor of degree 1 or 2 possible
    with pytest.raises(ExtensionError,
                       match="could not decide; factor degrees still possible: 1, 2"):
        parse_extension(_poly_cfg(5, "X^3 + X^2 + X"))
    with pytest.raises(ExtensionError, match="possible: 1$"):
        parse_extension(_poly_cfg(3, "X^2 + X"))


def test_irreducible_polynomials_certified():
    assert parse_extension(_poly_cfg(3, "X^3 - X - T")).degree == 3
    assert parse_extension(_poly_cfg(3, "X^2 - T",
                                     "[override]\nprime=T\ntype=(2,1)")).degree == 2
    assert parse_extension(_poly_cfg(2, "X^2 + X + T^3")).degree == 2
    # a builtin is not tested, and X-degree 1 needs no test
    assert parse_extension(
        "[field]\np=3\n[extension]\nname=A\nbuiltin=artin_schreier:m=1").degree == 3
    assert parse_extension(_poly_cfg(3, "X - T")).degree == 1


def test_irreducibility_skips_overridden_primes():
    # X^2 - T^5 + T over F_3: every degree-1 prime ramifies and is
    # overridden, so only the unramified degree-2 primes can decide
    extra = "".join(f"[override]\nprime={q}\ntype=(2,1)\n"
                    for q in ("T", "T + 1", "T + 2", "T^2 + 1"))
    assert parse_extension(_poly_cfg(3, "X^2 - T^5 + T", extra)).degree == 2


def test_eisenstein_prime_certifies_irreducibility():
    # X^2 - T^3 + T over F_3: every unramified prime of degree <= 2 splits,
    # so the degree-set test cannot decide, but T is an Eisenstein prime
    extra = "".join(f"[override]\nprime={q}\ntype=(2,1)\n"
                    for q in ("T", "T + 1", "T + 2"))
    assert parse_extension(_poly_cfg(3, "X^2 - T^3 + T", extra)).degree == 2
    # T^2 (T + 2)(T^2 + T + 2): T^2 divides the constant, T + 2 is Eisenstein
    extra = "".join(f"[override]\nprime={q}\ntype=(2,1)\n"
                    for q in ("T", "T + 2", "T^2 + T + 2"))
    assert parse_extension(_poly_cfg(3, "X^2 + T^5 + T^3 + T^2", extra)).degree == 2


def test_undecided_polynomial_is_rejected():
    # X^2 - T^2 = (X - T)(X + T): every unramified prime of degree <= 2
    # splits, and T^2 divides the constant, so no Eisenstein prime either
    with pytest.raises(ExtensionError, match="could not decide"):
        parse_extension(_poly_cfg(3, "X^2 - T^2",
                                  "[override]\nprime=T\ntype=(2,1)\n"))


def _count_distinct_degree(monkeypatch):
    """The list of polynomials poly.distinct_degree_counts is called on."""
    calls = []
    real = poly.distinct_degree_counts

    def counting(F, f):
        calls.append(f)
        return real(F, f)
    monkeypatch.setattr(poly, "distinct_degree_counts", counting)
    return calls


def test_separated_poly_covers_are_certified_without_factoring(monkeypatch):
    """A separated poly= cover is certified from root counts alone, with
    no distinct-degree factoring; any other cover still factors."""
    calls = _count_distinct_degree(monkeypatch)
    as16 = "[field]\np=2\nm=4\n[extension]\nname=K\npoly=X^2 + X + T\n"
    assert parse_extension(as16).degree == 2
    assert parse_extension(_poly_cfg(3, "X^3 + 2*X + T^5 + T")).degree == 3
    assert not calls
    assert parse_extension(_poly_cfg(2, "X^2 + T*X + 1",
                                     "[override]\nprime=T\ntype=(2,1)\n")).degree == 2
    assert calls


def test_certification_stops_at_the_first_deciding_prime(monkeypatch):
    """X^2 + T*X + 1 over F_16 is factored at each unramified prime until
    one is inert, not at all 15 primes of degree 1 before deciding."""
    calls = _count_distinct_degree(monkeypatch)
    text = ("[field]\np=2\nm=4\n[extension]\nname=K\npoly=X^2 + T*X + 1\n"
            "[override]\nprime=T\ntype=(2,1)\n")
    assert parse_extension(text).degree == 2
    assert 0 < len(calls) <= 3
