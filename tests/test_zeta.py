"""Dirichlet tables, Weil blocks, mod-p zeta values, and reconstruction."""

import glob
import hashlib
import itertools
import os
import random
from collections import Counter

import pytest

from gosslift.errors import ExtensionError, WittError, ZetaError
from gosslift.demos import standard_extensions
from gosslift.extension import (ExtensionSpec, SplittingType,
                                builtin_extension, parse_extension_file,
                                splitting_type, splitting_types,
                                trivial_extension)
from gosslift.field import gf_create
from gosslift import poly, textforms, zeta
from gosslift.poly import enumerate_monic_irreducibles
from gosslift.textforms import parse_monic
from gosslift.witt import FieldOps, LaurentSeries, lifted_goss_eval, witt_text
from gosslift.zeta import (DirichletTable, compare_zeta, dirichlet_table,
                           dump_table, goss_eval, local_counts,
                           pgalois_check,
                           power_marks, prime_power_residues, rank,
                           reconstruct_splitting, unrank, weil_series)
from poly_helpers import dump_oracle, sub
from witt_oracle import (coefficient, laurent_inv_pow, series, series_add,
                         series_scale)

K3 = gf_create(3)


def test_local_counts_examples():
    from gosslift.zeta import local_counts
    split2 = SplittingType(((1, 1), (1, 1)))
    assert local_counts(split2, 4) == [1, 2, 3, 4, 5]
    inert2 = SplittingType(((1, 2),))
    assert local_counts(inert2, 4) == [1, 0, 1, 0, 1]
    ram = SplittingType(((2, 1),))
    assert local_counts(ram, 4) == [1, 1, 1, 1, 1]
    split3 = SplittingType(((1, 1),) * 3)
    assert local_counts(split3, 3) == [1, 3, 6, 10]
    mixed = SplittingType(((1, 1), (1, 2)))
    assert local_counts(mixed, 4) == [1, 1, 2, 2, 3]
    with pytest.raises(ZetaError):
        local_counts(split2, -1)


def test_local_counts_match_tuple_enumeration():
    """The coin count equals a direct enumeration of exponent tuples."""
    from gosslift.zeta import local_counts
    kmax = 4
    fee_sets = [fs for size in range(1, 4)
                for fs in itertools.combinations_with_replacement((1, 2, 3), size)]
    for fs in fee_sets:
        st = SplittingType(tuple((1, f) for f in fs))
        got = local_counts(st, kmax)
        for k in range(kmax + 1):
            direct = 0
            for tup in itertools.product(*(range(k // f + 1) for f in fs)):
                if sum(a * f for a, f in zip(tup, fs)) == k:
                    direct += 1
            assert got[k] == direct


def entry_texts(table):
    """{text of n: B(n)} over the table's entries view."""
    return {textforms.format_tpoly(table.field, n): b
            for n, b in table.entries.items()}


def test_trivial_table_is_all_ones():
    table = dirichlet_table(trivial_extension(K3), 4)
    assert len(table.entries) == 121
    assert all(b == 1 for b in table.entries.values())
    assert table.block_sums() == [1, 3, 9, 27, 81]
    keys = list(table.entries)
    assert keys == sorted(keys, key=lambda n: (len(n), n))


def test_kummer_table_degree_one():
    table = dirichlet_table(builtin_extension(K3, "kummer_sqrt", c="T"), 1)
    expect = {"1": 1, "T": 1, "T + 1": 0, "T + 2": 2}
    assert entry_texts(table) == expect


def test_artin_schreier_table_small_entries():
    table = dirichlet_table(builtin_extension(K3, "artin_schreier", m=1), 3)
    vals = entry_texts(table)
    assert vals["1"] == 1
    assert vals["T"] == 3
    assert vals["T + 1"] == 0
    assert vals["T + 2"] == 0
    assert vals["T^2"] == 6
    assert vals["T^2 + 1"] == 3
    assert vals["T^2 + T + 2"] == 0
    assert vals["T^2 + 2*T + 2"] == 0
    assert vals["T^2 + T"] == 0
    assert vals["T^3"] == 10


def test_table_multiplicativity(monkeypatch):
    """B(n1 n2) = B(n1) B(n2) for coprime n1, n2, on both sides of the
    packing condition (bound + 1)(p - 1)^2 < 256: F_7 packs its products
    into bytes at D=6 and multiplies on its tables at D=7."""
    made = []
    for name in ("_byte_products", "_row_products"):
        real = getattr(zeta, name)
        monkeypatch.setattr(zeta, name,
                            lambda *args, name=name, real=real:
                            made.append(name) or real(*args))
    K7 = gf_create(7)
    rng = random.Random(0)
    for ext, bound, kernel in (
            (builtin_extension(K3, "kummer_sqrt", c="T"), 6, "_byte_products"),
            (builtin_extension(K3, "artin_schreier", m=5), 6, "_byte_products"),
            (builtin_extension(K7, "artin_schreier", m=2), 6, "_byte_products"),
            (builtin_extension(K7, "artin_schreier", m=2), 7, "_row_products")):
        K = ext.field
        table = dirichlet_table(ext, bound)
        assert made.pop() == kernel
        checked = 0
        while checked < 100:
            e1 = rng.randrange(1, bound)
            e2 = rng.randrange(1, bound - e1 + 1)
            r1, r2 = (rng.randrange(table.starts[e], table.starts[e + 1])
                      for e in (e1, e2))
            n1, n2 = unrank(K, r1), unrank(K, r2)
            if poly.pgcd(K, n1, n2) != (1,):
                continue
            prod = rank(K, poly.pmul(K, n1, n2))
            assert table.counts[prod] == table.counts[r1] * table.counts[r2]
            checked += 1


@pytest.mark.parametrize("field, kind, params, bound", [
    ((3, 1), "kummer_sqrt", {"c": "T^3 - T"}, 7),
    ((3, 1), "artin_schreier", {"m": 5}, 8),
    ((5, 1), "kummer_sqrt", {"c": "T^3 + T + 1"}, 4),
    ((2, 1), "artin_schreier", {"m": 3}, 10),
])
def test_byte_and_row_products_build_the_same_table(field, kind, params, bound,
                                                    monkeypatch):
    ext = builtin_extension(gf_create(*field), kind, **params)
    packed = dirichlet_table(ext, bound)
    monkeypatch.setattr(zeta, "byte_residues", lambda K, d: None)
    assert dirichlet_table(ext, bound).counts == packed.counts


def test_table_equality_ignores_name():
    a = dirichlet_table(trivial_extension(K3, name="A"), 2)
    b = dirichlet_table(trivial_extension(K3, name="B"), 2)
    assert a.counts == b.counts
    assert a.counts != dirichlet_table(trivial_extension(K3), 3).counts


def test_dirichlet_table_bounds():
    with pytest.raises(ZetaError):
        dirichlet_table(trivial_extension(K3), -1)
    table = dirichlet_table(trivial_extension(K3), 0)
    assert entry_texts(table) == {"1": 1}


def test_weil_series():
    table = dirichlet_table(trivial_extension(K3), 2)
    w = weil_series(table)
    assert w.coeffs == (1, 3, 9)
    assert str(w) == "1 + 3*u^1 + 9*u^2 + O(u^3)"


def test_weil_blocks_can_coincide_for_different_tables():
    """Degree blocks of these quadratic covers all match 3^d at small d."""
    triv = dirichlet_table(trivial_extension(K3), 4)
    kummer = dirichlet_table(builtin_extension(K3, "kummer_sqrt", c="T"), 4)
    assert triv.block_sums() == kummer.block_sums() == [1, 3, 9, 27, 81]
    assert compare_zeta(triv, kummer, "weil").equal
    v = compare_zeta(triv, kummer, "goss")
    assert not v.equal
    assert v.witness == "T + 1"
    assert (v.left, v.right) == (1, 0)
    assert v.text() == "DIFFER n=T + 1 left=1 right=0"


def test_goss_eval_positive_s():
    triv = dirichlet_table(trivial_extension(K3), 4)
    z1 = goss_eval(triv, 1, 4)
    assert str(z1) == "1 + 2*T^-3 [prec 4]"
    assert coefficient(z1, 0) == 1
    assert coefficient(z1, 1) == 0
    assert coefficient(z1, 3) == 2
    with pytest.raises(ZetaError):
        goss_eval(triv, 1, 5)  # needs bound 5
    with pytest.raises(ZetaError):
        goss_eval(dirichlet_table(trivial_extension(K3), 2), 2, 6)


def test_goss_eval_nonpositive_s():
    triv = dirichlet_table(trivial_extension(K3), 5)
    assert str(goss_eval(triv, 0, 4)) == "1 [prec 4]"
    assert str(goss_eval(triv, -1, 6)) == "1 [prec 6]"
    z2 = goss_eval(triv, -2, 6)
    assert z2 == LaurentSeries(K3, (), 6)
    kummer = dirichlet_table(builtin_extension(K3, "kummer_sqrt", c="T"), 6)
    assert str(goss_eval(kummer, 0, 4)) == "1 [prec 4]"
    assert str(goss_eval(kummer, -1, 4)) == "2 [prec 4]"
    assert not goss_eval(kummer, -2, 4).terms
    assert str(goss_eval(kummer, -3, 4)) == "2 [prec 4]"
    with pytest.raises(ZetaError):
        goss_eval(dirichlet_table(trivial_extension(K3), 4), -2, 6)


@pytest.mark.parametrize("p,m,D", [(2, 1, 6), (3, 1, 4), (2, 2, 3), (5, 1, 3)],
                         ids=["F2", "F3", "F4", "F5"])
def test_power_blocks_match_the_entries(p, m, D):
    """The s <= 0 block sums, read off ranks, equal those over the table's
    entries view, for random counts."""
    K = gf_create(p, m)
    rng = random.Random(p * 10 + m)
    counts = [rng.randrange(3 * p) for _ in range((K.q ** (D + 1) - 1) // (K.q - 1))]
    table = DirichletTable("random", K, D, counts)
    for k in range(4):
        want = [()] * (D + 1)
        for n, b in table.entries.items():
            term = poly.pscale(K, K.from_int(b), poly.ppow(K, n, k))
            want[len(n) - 1] = poly.padd(K, want[len(n) - 1], term)
        assert zeta._power_blocks(table, k) == want


def test_goss_eval_stops_only_when_the_top_blocks_vanish():
    """The s = -2 sum of AS m=1 stops at degree 3: at D=5 block 3 is among
    the top three and the value is refused, at D=6 blocks 4..6 vanish and
    it is 0."""
    ext = builtin_extension(K3, "artin_schreier", m=1)
    with pytest.raises(ZetaError, match="degree block 3 "):
        goss_eval(dirichlet_table(ext, 5), -2, 6)
    assert goss_eval(dirichlet_table(ext, 6), -2, 6) == LaurentSeries(K3, (), 6)


KS8 = "T^8 + 2*T^7 + T^6 + T^3 + T^2 + T + 1"


def test_goss_eval_at_zero_reads_every_block():
    """The KS8 block sums are 1, 3, 9, 33, 95, ...: block 4 is 2 mod 3, so
    the s = 0 sum is 0, not the 1 of blocks 0..3, and a D=6 table, whose
    top blocks include block 4, is refused by both evaluators."""
    ext = builtin_extension(K3, "kummer_sqrt", c=KS8)
    assert not goss_eval(dirichlet_table(ext, 8), 0, 12).terms
    small = dirichlet_table(ext, 6)
    with pytest.raises(ZetaError, match="degree block 4 "):
        goss_eval(small, 0, 12)
    with pytest.raises(WittError, match="degree block 4 "):
        lifted_goss_eval(small, 0, 12, 1)


def _random_kummer_covers(K, rng, count):
    """count kummer_sqrt covers over K with random squarefree radicands of
    degree 1..8, drawn from rng."""
    covers = []
    while len(covers) < count:
        c = [rng.randrange(K.q) for _ in range(rng.randint(1, 8))] + [rng.randrange(1, K.q)]
        try:
            covers.append(builtin_extension(K, "kummer_sqrt", c=tuple(c)))
        except ExtensionError:
            pass  # c is not squarefree
    return covers


@pytest.mark.parametrize("p,D", [(3, 7), (5, 5)], ids=["F3", "F5"])
def test_goss_at_s_le_0_agrees_with_lift_and_brute_force(p, D):
    """On random covers goss at s = 0 and the length-1 lift refuse together
    or print the same digit, and an accepted goss value at s = -1 or -2 is
    the sum of B(n) * n^k mod p over the table's entries."""
    K = gf_create(p)
    ops = FieldOps(K)
    for ext in _random_kummer_covers(K, random.Random(22 * p + D), 30):
        table = dirichlet_table(ext, D)
        try:
            goss = str(goss_eval(table, 0, 4)).removesuffix(" [prec 4]")
        except ZetaError:
            goss = None
        try:
            lift = witt_text(ops, lifted_goss_eval(table, 0, 4, 1))[1:-1]
        except WittError:
            lift = None
        assert goss == lift, ext.xt_coeffs
        for k in (1, 2):
            try:
                got = goss_eval(table, -k, 4)
            except ZetaError:
                continue
            assert got == oracle_goss_value(table, -k, 4), ext.xt_coeffs


def oracle_goss_value(table, s, M):
    """goss_eval's value as the sum of its table's entries, one at a time,
    in the oracle's series arithmetic: B(n) * n^-s at s >= 1, B(n) * n^-s
    as a polynomial in T at s <= 0, each entry with B(n) nonzero mod p."""
    K = table.field
    acc, total = series(K, 0, (), M), ()
    for r in range(table.starts[M // s + 1] if s >= 1 else len(table.counts)):
        b = K.from_int(table.counts[r])
        if b == K.zero:
            continue
        n = unrank(K, r)
        if s >= 1:
            acc = series_add(acc, series_scale(laurent_inv_pow(K, n, s, M), b))
        else:
            term = poly.pscale(K, b, poly.ppow(K, n, -s))
            total = poly.padd(K, total, term)
    return acc if s >= 1 else series(K, 1 - len(total), total[::-1], M)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)],
                         ids=["F2", "F3", "F4", "F5", "F9"])
def test_goss_values_are_canonical_records(p, m):
    """Over random count lists, every accepted goss value holds only
    nonzero terms, exponents strictly decreasing and none below -M; two
    values are equal exactly when they print the same text; and each is
    the oracle's per-entry sum.  The second table has its top three
    blocks zeroed, so its sums at s <= 0 stop and are accepted, and it
    agrees with the first at low degree, so some values repeat."""
    D = 5
    K = gf_create(p, m)
    rng = random.Random(25 * p + m)
    size = (K.q ** (D + 1) - 1) // (K.q - 1)
    counts = [rng.randrange(1, p * p) if rng.random() < 0.2 else 0
              for _ in range(size)]
    full = DirichletTable("random", K, D, counts)
    cut = full.starts[D - 2]
    stopped = DirichletTable("stopped", K, D, counts[:cut] + [0] * (size - cut))
    values = []
    for table in (full, stopped):
        for s in range(-2, 4):
            for M in (0, 1, D, 2 * D) if s >= 1 else (0, 2 * D):
                if s >= 1 and M > s * D:
                    continue
                try:
                    v = goss_eval(table, s, M)
                except ZetaError:
                    continue
                exps = [e for _, e in v.terms]
                assert all(c != K.zero for c, _ in v.terms)
                assert exps == sorted(set(exps), reverse=True)
                assert all(e >= -M for e in exps)
                assert v == oracle_goss_value(table, s, M), (s, M)
                values.append(v)
    assert any(not v.terms for v in values)
    assert any(v.terms and v.terms[0][1] > 0 for v in values)
    repeats = 0
    for a in values:
        for b in values:
            assert (a == b) == (str(a) == str(b))
            repeats += a is not b and a == b
    assert repeats


def expand_inverse_power(K, n_coeffs, s, M):
    """Coefficients of n^-s at 1/T as {j: element}, solved term by term."""
    g = poly.ppow(K, n_coeffs, s)
    D = poly.pdeg(g)
    x = {}
    for t in range(0, M - D + 1):
        want = K.one if t == 0 else K.zero
        acc = K.zero
        for i in range(1, t + 1):
            if D - i >= 0:
                acc = K.add(acc, K.mul(g[D - i], x.get(D + t - i, K.zero)))
        x[D + t] = sub(K, want, acc)
    return x


def test_goss_eval_matches_independent_expansion():
    for ext in (trivial_extension(K3),
                builtin_extension(K3, "kummer_sqrt", c="T")):
        table = dirichlet_table(ext, 3)
        for s in (1, 2):
            M = 3 * s
            got = goss_eval(table, s, M)
            expect = {}
            for n, b in table.entries.items():
                r = K3.from_int(b)
                if r == K3.zero:
                    continue
                for j, c in expand_inverse_power(K3, n, s, M).items():
                    expect[j] = K3.add(expect.get(j, K3.zero), K3.mul(r, c))
            for j in range(0, M + 1):
                assert coefficient(got, j) == expect.get(j, K3.zero)


def quadratic_pair(bound):
    a = dirichlet_table(builtin_extension(K3, "kummer_sqrt", c="T"), bound)
    b = dirichlet_table(builtin_extension(K3, "kummer_sqrt", c="T + 1"), bound)
    return a, b


def test_compare_zeta_quadratic_twins():
    a, b = quadratic_pair(6)
    w = compare_zeta(a, b, "weil")
    assert w.equal
    assert w.text() == "EQUAL bound=6"
    g = compare_zeta(a, b, "goss")
    assert not g.equal
    assert str(g.witness) == "T"
    assert (g.left, g.right) == (1, 2)
    assert g.text() == "DIFFER n=T left=1 right=2"
    l = compare_zeta(a, b, "lifted")
    assert not l.equal
    assert str(l.witness) == "T"
    assert (l.left, l.right) == (1, 2)


def test_compare_zeta_cubic_pair_blocks_differ():
    a = dirichlet_table(builtin_extension(K3, "artin_schreier", m=1), 4)
    b = dirichlet_table(builtin_extension(K3, "artin_schreier", m=5), 4)
    assert compare_zeta(a, b, "goss").equal
    w = compare_zeta(a, b, "weil")
    assert not w.equal
    assert w.text() == "DIFFER d=4 left=81 right=99"


def test_compare_zeta_validation():
    a = dirichlet_table(trivial_extension(K3), 2)
    b = dirichlet_table(trivial_extension(K3), 3)
    with pytest.raises(ZetaError):
        compare_zeta(a, b, "weil")
    c = dirichlet_table(trivial_extension(gf_create(5)), 2)
    with pytest.raises(ZetaError):
        compare_zeta(a, c, "weil")
    with pytest.raises(ZetaError):
        compare_zeta(a, a, "junk")


def test_perturbed_table_comparisons():
    base = dirichlet_table(builtin_extension(K3, "kummer_sqrt", c="T"), 6)
    rng = random.Random(1)
    keys = [n for n in base.entries if len(n) > 1]
    for _ in range(10):
        n0 = rng.choice(keys)
        bumped = list(base.counts)
        bumped[rank(base.field, n0)] += 3
        other = DirichletTable(base.ext_name, base.field, base.bound, bumped)
        assert compare_zeta(base, other, "goss").equal
        v = compare_zeta(base, other, "lifted")
        assert not v.equal
        assert v.witness == textforms.format_tpoly(K3, n0)
        w = compare_zeta(base, other, "weil")
        assert not w.equal
        assert w.witness == len(n0) - 1


def test_prime_power_residues():
    split3 = SplittingType(((1, 1),) * 3)
    assert prime_power_residues(split3, 3, 5) == {1: 3, 2: 1, 3: 0}
    ram = SplittingType(((2, 1),))
    assert prime_power_residues(ram, 2, 5) == {1: 1, 2: 1}


def test_reconstruct_round_trip_over_f5():
    K5 = gf_create(5)
    quad = builtin_extension(K5, "kummer_sqrt", c="T^2 + T")
    cubic_overrides = {(0, 1): SplittingType(((3, 1),))}
    from gosslift.extension import ExtensionSpec
    from gosslift.textforms import parse_xt_poly
    cubic = ExtensionSpec("C3", K5, parse_xt_poly(K5, "X^3 - T"),
                          overrides=cubic_overrides)
    for ext in (quad, cubic):
        assert reconstruction_round_trip(ext, 2) == 15
    # every multiset of inertia degrees with sum n < p comes back
    for p in (5, 7, 11):
        for n_ext in range(1, p):
            for degrees in _partitions(n_ext, n_ext):
                st = SplittingType(tuple((1, f) for f in degrees))
                rec = reconstruct_splitting(
                    prime_power_residues(st, n_ext, p), n_ext, p)
                assert rec == tuple(sorted(degrees))


def reconstruction_round_trip(ext, bound):
    """Check reconstruct_splitting against the splitting type at every
    prime of degree <= bound, and return the number of primes checked."""
    n_ext, p = ext.degree, ext.field.p
    checked = 0
    for d in range(1, bound + 1):
        for prime in enumerate_monic_irreducibles(ext.field, d):
            st = splitting_type(ext, prime)
            rec = reconstruct_splitting(
                prime_power_residues(st, n_ext, p), n_ext, p)
            # ramification indices are invisible mod p, inertia
            # degrees with multiplicity come back exactly
            assert rec == st.inertia_degrees()
            checked += 1
    return checked


def test_reconstruct_round_trip_on_shipped_covers():
    """Every config under configs/ whose X-degree n is below its
    characteristic p, where the residues mod p determine the inertia
    degrees, round-trips at every prime of degree <= 4."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    checked = 0
    for path in sorted(glob.glob(os.path.join(root, "configs", "*.cfg"))):
        ext = parse_extension_file(path)
        if ext.degree < ext.field.p:
            checked += reconstruction_round_trip(ext, 4)
    # three quadratics over F_3 (32 primes each), and a quadratic and a
    # cubic over F_5 (205 primes each), when this was written
    assert checked >= 506


def _partitions(n, largest):
    """Partitions of n into parts of at most largest, as tuples."""
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def test_reconstruct_errors():
    with pytest.raises(ZetaError):
        reconstruct_splitting({1: 0, 2: 0}, 2, 2)  # needs n_ext < p
    with pytest.raises(ZetaError):
        reconstruct_splitting({1: 1}, 2, 5)  # missing f=2
    with pytest.raises(ZetaError):
        reconstruct_splitting({1: 4, 2: 0}, 2, 5)  # degree sum 4 > 2


def test_reconstruct_ramified_quadratic():
    assert reconstruct_splitting({1: 1, 2: 1}, 2, 5) == (1,)
    assert reconstruct_splitting({1: 2, 2: 3}, 2, 5) == (1, 1)
    assert reconstruct_splitting({1: 0, 2: 1}, 2, 5) == (2,)


def test_pgalois_check():
    as1 = dirichlet_table(builtin_extension(K3, "artin_schreier", m=1), 4)
    assert pgalois_check(as1, 3) == (True, None)
    triv = dirichlet_table(trivial_extension(K3), 3)
    assert pgalois_check(triv, 1) == (True, None)
    ok, witness = pgalois_check(triv, 3)
    assert not ok
    assert witness == (0, 1)  # T
    kummer = dirichlet_table(builtin_extension(K3, "kummer_sqrt", c="T"), 3)
    ok2, witness2 = pgalois_check(kummer, 2)
    assert not ok2
    assert witness2 == (0, 1)  # B(T) = 1 but T is not a square
    with pytest.raises(ZetaError):
        pgalois_check(triv, 0)


def test_dump_text_is_a_header_and_one_line_per_entry():
    table = dirichlet_table(builtin_extension(K3, "kummer_sqrt", c="T"), 2)
    text = dump_table(table)
    lines = text.splitlines()
    assert lines[0] == "# ext=K_sqrt p=3 m=1 D=2"
    assert lines[1] == "1 1"
    assert len(lines) == 14
    assert text == dump_oracle(table)


def test_dump_sanitizes_name():
    table = DirichletTable("my ext", K3, 0, [1])
    assert dump_table(table).splitlines()[0] == "# ext=my_ext p=3 m=1 D=0"


def test_compare_zeta_rejects_different_moduli():
    full = dirichlet_table(builtin_extension(K3, "kummer_sqrt", c="T"), 2)
    # a table with one modulus missing cannot be built
    entries = dict(full.entries)
    entries.pop(parse_monic(K3, "T^2 + 1"))
    with pytest.raises(ZetaError):
        DirichletTable(full.ext_name, K3, 2, entries)
    with pytest.raises(ZetaError):
        DirichletTable(full.ext_name, K3, 2, list(entries.values()))
    # tables over different sets of moduli are never compared
    longer = dirichlet_table(builtin_extension(K3, "kummer_sqrt", c="T"), 3)
    other_field = dirichlet_table(trivial_extension(gf_create(5)), 2)
    for other in (longer, other_field):
        for kind in ("weil", "goss", "lifted"):
            with pytest.raises(ZetaError):
                compare_zeta(full, other, kind)
            with pytest.raises(ZetaError):
                compare_zeta(other, full, kind)


def test_goss_eval_rejects_negative_precision():
    table = dirichlet_table(trivial_extension(K3), 3)
    for s in (1, 0):
        with pytest.raises(ZetaError):
            goss_eval(table, s, -3)


def test_rank_round_trips_over_f4_and_f5():
    for K in (gf_create(2, 2), gf_create(5)):
        r = 0
        for d in range(5):
            for n in poly.enumerate_monic(K, d):
                assert rank(K, n) == r
                assert unrank(K, r) == n
                r += 1


def test_power_marks_match_brute_force_powers():
    for K in (K3, gf_create(2, 2), gf_create(5)):
        for bound in range(5):
            monics = [n for d in range(bound + 1)
                      for n in poly.enumerate_monic(K, d)]
            for k in range(1, 5):
                powers = {poly.ppow(K, m, k) for m in monics}
                expect = [1 if n in powers else 0 for n in monics]
                assert list(power_marks(K, bound, k)) == expect


def _weil_from_type_histogram(ext, bound):
    """prod_d prod_types prod_f (1 - u^(f d))^(-count), through u^bound."""
    series = [1] + [0] * bound
    for d in range(1, bound + 1):
        hist = Counter(st.inertia_degrees() for _, st in splitting_types(ext, d))
        for degrees, count in hist.items():
            for f in degrees:
                step = f * d
                for _ in range(count):
                    for i in range(step, bound + 1):
                        series[i] += series[i - step]
    return series


def test_block_sums_match_the_type_histogram_euler_product():
    K4, K5 = gf_create(2, 2), gf_create(5)
    cases = [(ext, 7) for ext in standard_extensions()] + [
        (builtin_extension(K4, "artin_schreier", m=1), 5),
        (builtin_extension(K4, "artin_schreier", m=3), 5),
        (builtin_extension(K5, "artin_schreier", m=2), 4),
        (builtin_extension(K5, "kummer_sqrt", c="T^3 - T"), 4),
        (builtin_extension(gf_create(3, 2), "kummer_sqrt", c="T^2 + g"), 3),
        (trivial_extension(K5), 4),
    ]
    for ext, bound in cases:
        table = dirichlet_table(ext, bound)
        assert table.block_sums() == _weil_from_type_histogram(ext, bound), ext.name


def factored_counts(ext, bound):
    """B(n) for every monic n of degree <= bound, in rank order, as the
    product over n = prod P^k (factor_monic) of the local count
    local_counts(splitting_type(ext, P), k)[k]: no Euler product, and
    every type from the residue field of its own prime."""
    K = ext.field
    types = {}
    out = []
    for d in range(bound + 1):
        for n in poly.enumerate_monic(K, d):
            b = 1
            for prime, k in (poly.factor_monic(K, n) if d else ()):
                if prime not in types:
                    types[prime] = splitting_type(ext, prime)
                b *= local_counts(types[prime], k)[k]
            out.append(b)
    return out


def _q2_cover(K):
    """X^2 + T*X + 1, ramified at T only: not separated, so its types
    come from distinct-degree factoring."""
    return ExtensionSpec("Q2", K, textforms.parse_xt_poly(K, "X^2 + T*X + 1"),
                         overrides={(0, 1): SplittingType(((2, 1),))})


@pytest.mark.parametrize("make, bound", [
    (lambda: builtin_extension(gf_create(2, 2), "artin_schreier", m=3), 5),
    (lambda: _q2_cover(gf_create(2, 2)), 4),
    (lambda: builtin_extension(gf_create(5), "kummer_sqrt", c="T^3 - T"), 4),
    (lambda: builtin_extension(gf_create(3, 2), "kummer_sqrt", c="T^2 + g"), 3),
    (lambda: builtin_extension(gf_create(2, 4), "artin_schreier", m=1), 2),
    (lambda: _q2_cover(gf_create(2, 4)), 2),
], ids=["AS_m3-F4", "Q2-F4", "kummer-overrides-F5", "kummer-F9", "AS_m1-F16",
        "Q2-F16"])
def test_table_matches_factorization_oracle(make, bound):
    ext = make()
    assert dirichlet_table(ext, bound).counts == factored_counts(ext, bound)


# sha256 of dump_table text, computed before tables were kept by rank
GOLDEN_DUMPS = [
    (3, 1, "artin_schreier", {"m": 5}, 8,
     "d7c1f0e1d64080c39813d4c167e2dca21a527b3bacca6715c3b7d0d17a15b1c1"),
    (5, 1, "kummer_sqrt", {"c": "T^3 - T"}, 5,
     "8ad0f272254db883d9f6ac3e6091eb03677a833adb074076dc9366da92a9ec2f"),
    (2, 2, "artin_schreier", {"m": 1}, 6,
     "590dfdb55ba88d0f276bff0f8f297776573550aa2ab4bc54782891f29fb9d7dd"),
    (3, 2, "kummer_sqrt", {"c": "T^2 + g"}, 4,
     "58060481618030384ca185ca07b73c35b230b376dc35c659508ed38a5a7cec43"),
    (2, 8, "artin_schreier", {"m": 1}, 1,
     "52beed84dffc59047156088959c6369109a178c5b011211377e4fc19feb43d7a"),
    (3, 5, "artin_schreier", {"m": 1}, 1,
     "d21eccd9915801fbd8f2fbd1a007cccbec60dff077b204ca23a14c484810e97e"),
]


@pytest.mark.parametrize("p, m, kind, params, bound, digest", GOLDEN_DUMPS,
                         ids=["AS_m5-F3-D8", "kummer-F5-D5", "AS_m1-F4-D6",
                              "kummer-F9-D4", "AS_m1-F256-D1",
                              "AS_m1-F243-D1"])
def test_golden_dumps(p, m, kind, params, bound, digest):
    table = dirichlet_table(builtin_extension(gf_create(p, m), kind, **params),
                            bound)
    text = dump_table(table)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    assert text == dump_oracle(table)


def test_entries_is_a_cached_read_only_view():
    table = dirichlet_table(builtin_extension(K3, "kummer_sqrt", c="T"), 3)
    view = table.entries
    assert view is table.entries
    assert list(view.values()) == table.counts
    assert list(view) == [unrank(K3, r) for r in range(len(table.counts))]
    assert [n.degree for n in view] == [len(n) - 1 for n in view]
    with pytest.raises(TypeError):
        view[next(iter(view))] = 7
    assert DirichletTable(table.ext_name, K3, 3, list(view.values())).counts == table.counts


def test_table_rejects_a_count_list_of_the_wrong_length():
    full = dirichlet_table(builtin_extension(K3, "kummer_sqrt", c="T"), 3)
    assert len(full.counts) == 40
    for counts in (full.counts[:-1], full.counts + [0], dict(full.entries)):
        with pytest.raises(ZetaError, match="needs a list of 40 counts"):
            DirichletTable(full.ext_name, K3, 3, counts)
    with pytest.raises(ZetaError, match="needs a list of 4 counts"):
        DirichletTable("K", K3, 1, [1])


def test_every_reader_rejects_a_table_with_a_hole():
    full = dirichlet_table(builtin_extension(K3, "kummer_sqrt", c="T"), 3)
    hole = parse_monic(K3, "T^3 + T + 2")
    entries = dict(full.entries)
    entries.pop(hole)
    # the hole is refused when the table is built, so no reader sees it
    for counts in (entries, list(entries.values())):
        with pytest.raises(ZetaError, match="needs a list of 40 counts"):
            DirichletTable(full.ext_name, K3, 3, counts)
    with pytest.raises(ZetaError):
        DirichletTable("K", K3, 1, {parse_monic(K3, "T^2"): 1})
    # every reader works on the full table the hole was cut from
    readers = [full.block_sums, lambda: weil_series(full),
               lambda: dump_table(full), lambda: pgalois_check(full, 2),
               lambda: goss_eval(full, 1, 3), lambda: goss_eval(full, 0, 3),
               lambda: lifted_goss_eval(full, 1, 3, 2)]
    for read in readers:
        read()


# L-polynomials over F_3 of covers with one place of degree 1 above
# infinity, read from D=9 tables: (kind, params, genus, L low to high)
WEIL_L_POLYNOMIALS = [
    ("artin_schreier", {"m": 5}, 4, [1, 0, 0, 0, 18, 0, 0, 0, 81]),
    ("kummer_sqrt", {"c": "T^3 + 2*T + 1"}, 1, [1, 3, 3]),
    ("kummer_sqrt", {"c": "T"}, 0, [1]),
]


@pytest.mark.parametrize("kind, params, genus, pinned", WEIL_L_POLYNOMIALS,
                         ids=["AS_m5", "kummer_cubic", "K_sqrt"])
def test_weil_l_polynomial(kind, params, genus, pinned):
    """With one place of degree 1 above infinity, Z(u) = Z_A(u)/(1 - u)
    and Z(u) = L(u)/((1 - u)(1 - qu)), so L(u) = (1 - qu) Z_A(u) (Rosen,
    Number Theory in Function Fields, ch. 5).  L has degree 2g, satisfies
    L(u) = q^g u^(2g) L(1/(qu)), and has its roots on |u| = q^(-1/2).
    These covers take their types from root counts, so a wrong count at
    any prime of degree <= 9 shows here."""
    import sympy

    bound, q = 9, K3.q
    a = dirichlet_table(builtin_extension(K3, kind, **params), bound).block_sums()
    lpoly = [a[0]] + [a[i] - q * a[i - 1] for i in range(1, bound + 1)]
    top = 2 * genus
    assert lpoly == pinned + [0] * (bound - top)
    for i in range(top + 1):
        assert lpoly[top - i] * q ** i == q ** genus * lpoly[i]
    u = sympy.symbols("u")
    for root in sympy.Poly(lpoly[top::-1], u).all_roots():
        assert abs(abs(complex(root.evalf())) - q ** -0.5) < 1e-9
