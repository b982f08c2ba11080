"""Top-level acceptance checks, the package's numbered headline claims.

Every test recomputes its claim from scratch, against independent
oracles where the expected value is not pinned by construction, and
prints a single summary line on success.  Wall-clock limits are
asserted inside the tests; run with -s to see the lines.
"""

import itertools
import random
import time
from collections import Counter

from gosslift import poly, textforms
from gosslift.demos import DEMOS
from gosslift.extension import (ExtensionSpec, SplittingType,
                                builtin_extension, splitting_type,
                                trivial_extension)
from gosslift.field import ResidueField, gf_create
from gosslift.gassmann import (PermGroup, cayley_komatsu, coset_cycle_type,
                               coset_types, cyclic_subgroup_classes,
                               gassmann_by_cycle_type, gassmann_check, klein4,
                               parse_perm, psl27, subgroups_of_order)
from gosslift.poly import enumerate_monic, enumerate_monic_irreducibles
from gosslift.witt import int_to_witt, lifted_goss_eval
from gosslift.zeta import (DirichletTable, compare_zeta, dirichlet_table,
                           goss_eval, pgalois_check, prime_power_residues,
                           rank, reconstruct_splitting, weil_series)
from witt_oracle import (FieldRing, WittVector, teichmuller, witt_add,
                         witt_mul, witt_structure_exprs)

T0 = time.monotonic()


def test_criterion_01_quadratic_pair():
    t0 = time.monotonic()
    K = gf_create(3)
    tk = dirichlet_table(builtin_extension(K, "kummer_sqrt", c="T"), 6)
    tl = dirichlet_table(
        builtin_extension(K, "kummer_sqrt", c="T + 1", name="K_sqrt_T1"), 6)
    vw = compare_zeta(tk, tl, "weil")
    assert vw.equal and vw.text() == "EQUAL bound=6"
    vg = compare_zeta(tk, tl, "goss")
    assert not vg.equal
    assert str(vg.witness) == "T" and (vg.left, vg.right) == (1, 2)
    vl = compare_zeta(tk, tl, "lifted")
    assert not vl.equal
    assert str(vl.witness) == "T" and (vl.left, vl.right) == (1, 2)
    # Galois model: the biquadratic closure has group V4, the two
    # quadratics sit under distinct index-2 subgroups
    V = klein4()
    h1 = PermGroup(4, [parse_perm("(1 2)", 4)], name="H1")
    h2 = PermGroup(4, [parse_perm("(3 4)", 4)], name="H2")
    rep = gassmann_check(V, h1, h2)
    assert not rep.gassmann and not rep.conjugate
    dt = time.monotonic() - t0
    assert dt < 5.0
    print(f"criterion 01 PASS: quadratic pair shares Weil zeta, splits at "
          f"goss/lifted n=T (1 vs 2), V4 subgroups not Gassmann ({dt:.2f}s)")


def test_criterion_02_cyclic_cubic_cover():
    t0 = time.monotonic()
    K = gf_create(3)
    cover = dirichlet_table(builtin_extension(K, "artin_schreier", m=1), 6)
    ok, witness = pgalois_check(cover, 3)
    assert ok and witness is None
    assert len(cover.entries) == 1093
    assert sum(1 for n in cover.entries if len(n) <= 6) == 364
    # independent cube list: n is a cube iff n = m^3 with m monic
    cubes = set()
    for d in range(0, 3):
        for m in enumerate_monic(K, d):
            cubes.add(poly.ppow(K, m, 3))
    for n, b in cover.entries.items():
        assert b % 3 == (1 if n in cubes else 0)
    base = dirichlet_table(trivial_extension(K), 6)
    for s in (1, 2):
        assert goss_eval(cover, s, 6) == goss_eval(base, 3 * s, 6)
    dt = time.monotonic() - t0
    assert dt < 30.0
    print(f"criterion 02 PASS: degree-3 cover has cube-indicator counts on "
          f"all 1093 monic n (364 up to degree 5), zeta(cover,s) = "
          f"zeta(base,3s) for s=1,2 ({dt:.2f}s)")


def _mobius(n):
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def _rpow(F, x, m):
    out = F.one
    for _ in range(m):
        out = F.mul(out, x)
    return out


def _curve_counts(ms, kmax):
    """Points of y^3 - y = x^m over F_{3^k}, k = 1..kmax, for each m."""
    K = gf_create(3)
    counts = {m: [] for m in ms}
    for k in range(1, kmax + 1):
        pi = enumerate_monic_irreducibles(K, k)[0]
        F = ResidueField(K, pi)
        lhs = Counter()
        xs = list(itertools.product(range(K.q), repeat=k))
        for y in xs:
            lhs[F.add(F.mul(F.mul(y, y), y), F.neg(y))] += 1
        for m in ms:
            counts[m].append(sum(lhs[_rpow(F, x, m)] for x in xs))
    return counts


def _ideal_counts(points):
    """Degree-block ideal counts from point counts, via the Euler product."""
    kmax = len(points)
    a = [1] + [0] * kmax
    for d in range(1, kmax + 1):
        raw = sum(_mobius(d // e) * points[e - 1]
                  for e in range(1, d + 1) if d % e == 0)
        assert raw % d == 0
        for _ in range(raw // d):
            for j in range(d, kmax + 1):
                a[j] += a[j - d]
    return a


def test_criterion_03_same_goss_different_weil():
    t0 = time.monotonic()
    K = gf_create(3)
    t1 = dirichlet_table(builtin_extension(K, "artin_schreier", m=1), 8)
    t5 = dirichlet_table(builtin_extension(K, "artin_schreier", m=5), 8)
    assert compare_zeta(t1, t5, "goss").equal
    vw = compare_zeta(t1, t5, "weil")
    assert not vw.equal
    assert vw.text() == "DIFFER d=4 left=81 right=99"
    # oracle: count affine points of the two covers directly and turn
    # them into ideal counts; the curves are smooth with unit
    # discriminant, so closed points and prime ideals agree
    pts = _curve_counts((1, 5), 8)
    assert pts[5] == [3, 9, 27, 153, 243, 729, 2187, 5913]
    assert weil_series(t1).coeffs == tuple(_ideal_counts(pts[1]))
    assert weil_series(t5).coeffs == tuple(_ideal_counts(pts[5]))
    dt = time.monotonic() - t0
    assert dt < 60.0
    print(f"criterion 03 PASS: cubic covers m=1,5 share the mod-3 zeta to "
          f"degree 8 but Weil counts differ at d=4 (81 vs 99), both series "
          f"match the point-count oracle ({dt:.2f}s)")


def _standard_extensions(K):
    return [trivial_extension(K),
            builtin_extension(K, "kummer_sqrt", c="T"),
            builtin_extension(K, "kummer_sqrt", c="T + 1", name="K_sqrt_T1"),
            builtin_extension(K, "artin_schreier", m=1),
            builtin_extension(K, "artin_schreier", m=5)]


def test_criterion_04_weil_reduction():
    t0 = time.monotonic()
    K = gf_create(3)
    for ext in _standard_extensions(K):
        table = dirichlet_table(ext, 6)
        a = weil_series(table).coeffs
        blocks = [0] * 7
        for n, b in table.entries.items():
            blocks[len(n) - 1] = (blocks[len(n) - 1] + b) % 3
        assert [x % 3 for x in a] == blocks
    dt = time.monotonic() - t0
    print(f"criterion 04 PASS: Weil coefficients reduce mod 3 to the "
          f"degree-block sums of the mod-3 table for all 5 standard "
          f"extensions, d <= 6 ({dt:.2f}s)")


def test_criterion_05_reconstruction_round_trip():
    t0 = time.monotonic()
    K = gf_create(5)
    quad = builtin_extension(K, "kummer_sqrt", c="T^2 + T")
    cubic = ExtensionSpec(
        "C3", K, textforms.parse_xt_poly(K, "X^3 - T"),
        overrides={textforms.parse_monic(K, "T"): SplittingType(((3, 1),))})
    for ext, n_ext in ((quad, 2), (cubic, 3)):
        checked = 0
        for d in (1, 2, 3):
            for prime in enumerate_monic_irreducibles(K, d):
                st = splitting_type(ext, prime)
                residues = prime_power_residues(st, n_ext, 5)
                assert reconstruct_splitting(residues, n_ext, 5) \
                    == st.inertia_degrees()
                checked += 1
        assert checked == 55
    dt = time.monotonic() - t0
    print(f"criterion 05 PASS: inertia degrees recovered from mod-5 "
          f"prime-power residues at all 55 primes of degree <= 3, for a "
          f"quadratic and a cubic over F_5 ({dt:.2f}s)")


def test_criterion_06_lift_sensitivity():
    t0 = time.monotonic()
    rng = random.Random(60606)
    K = gf_create(3)
    pool = _standard_extensions(K) + [
        builtin_extension(K, "kummer_sqrt", c="T + 2", name="K_sqrt_T2"),
        builtin_extension(K, "kummer_sqrt", c="T^2 + T", name="K_sqrt_TT"),
        builtin_extension(K, "artin_schreier", m=2),
        builtin_extension(K, "artin_schreier", m=4)]
    tables = [dirichlet_table(e, 6) for e in pool]
    # a +p bump is invisible mod p but shifts the integer table
    for _ in range(20):
        t = tables[rng.randrange(len(tables))]
        keys = list(t.entries)
        n0 = keys[rng.randrange(len(keys))]
        bumped = list(t.counts)
        bumped[rank(t.field, n0)] += 3
        tb = DirichletTable(t.ext_name, t.field, t.bound, bumped)
        assert compare_zeta(t, tb, "goss").equal
        v = compare_zeta(t, tb, "lifted")
        assert (not v.equal and v.witness == textforms.format_tpoly(t.field, n0)
                and v.right - v.left == 3)
    # the same bump flips the length-2 Witt value while length 1 is blind
    base = dirichlet_table(builtin_extension(K, "kummer_sqrt", c="T"), 3)
    n0 = textforms.parse_monic(K, "T + 2")
    bumped = list(base.counts)
    bumped[rank(K, n0)] += 3
    other = DirichletTable(base.ext_name, base.field, base.bound, bumped)
    assert lifted_goss_eval(base, 1, 3, 1) == lifted_goss_eval(other, 1, 3, 1)
    assert lifted_goss_eval(base, 1, 3, 2) != lifted_goss_eval(other, 1, 3, 2)
    # integer tables agree iff the splitting data agrees everywhere
    primes6 = [pr for d in range(1, 7)
               for pr in enumerate_monic_irreducibles(K, d)]
    outcomes = set()
    for _ in range(20):
        ia = rng.randrange(len(pool))
        ib = rng.randrange(len(pool))
        same_tables = compare_zeta(tables[ia], tables[ib], "lifted").equal
        same_splitting = all(
            splitting_type(pool[ia], pr).inertia_degrees()
            == splitting_type(pool[ib], pr).inertia_degrees()
            for pr in primes6)
        assert same_tables == same_splitting
        outcomes.add(same_tables)
    assert outcomes == {True, False}
    dt = time.monotonic() - t0
    print(f"criterion 06 PASS: 20 perturbed pairs split exactly as goss "
          f"EQUAL / lifted DIFFER, and 20 sampled extension pairs have "
          f"equal integer tables iff their splitting data agrees at all "
          f"primes of degree <= 6 ({dt:.2f}s)")


def test_criterion_07_psl27_gassmann_pair():
    t0 = time.monotonic()
    G = psl27()
    assert G.order == 168
    assert tuple(sorted(G.class_sizes())) == (1, 21, 24, 24, 42, 56)
    reps = subgroups_of_order(G, 24)
    assert len(reps) == 2
    h1, h2 = reps
    rep = gassmann_check(G, h1, h2)
    assert rep.gassmann and not rep.conjugate
    cyclics = cyclic_subgroup_classes(G)
    assert len(cyclics) == 5
    for bucket in cyclics:
        assert coset_types(G, h1, bucket[0]) == coset_types(G, h2, bucket[0])
    for cls in G.conjugacy_classes():
        assert (coset_cycle_type(G, h1, cls[0]).count(1)
                == coset_cycle_type(G, h2, cls[0]).count(1))
    dt = time.monotonic() - t0
    assert dt < 60.0
    print(f"criterion 07 PASS: order-168 group has exactly two order-24 "
          f"classes forming a Gassmann, non-conjugate pair with equal "
          f"coset types on all 5 cyclic classes ({dt:.2f}s)")


def test_criterion_08_order_27_pair():
    t0 = time.monotonic()
    ab, heis = cayley_komatsu(3)
    assert ab.order == 27 and heis.order == 27
    ok, stats_ab, stats_heis = gassmann_by_cycle_type(ab, heis)
    assert ok
    expect = {(1,) * 27: 1, (3,) * 9: 26}
    assert dict(stats_ab) == expect and dict(stats_heis) == expect
    assert ab.is_abelian() and not heis.is_abelian()
    dt = time.monotonic() - t0
    assert dt < 30.0
    print(f"criterion 08 PASS: regular images of the two order-27 groups "
          f"share cycle statistics identity + 26 x 3^9 in Sym(27); one is "
          f"abelian, the other is not ({dt:.2f}s)")


def test_criterion_09_witt_layer():
    t0 = time.monotonic()
    import sympy

    # structure polynomials solve the ghost equations symbolically
    for p, N in ((2, 2), (2, 3), (3, 2), (3, 3)):
        e = witt_structure_exprs(p, N)

        def ghost(vs, n):
            return sum(p**i * vs[i] ** (p ** (n - i)) for i in range(n + 1))

        for n in range(N):
            add_n = sum(p**i * e["add"][i] ** (p ** (n - i))
                        for i in range(n + 1))
            mul_n = sum(p**i * e["mul"][i] ** (p ** (n - i))
                        for i in range(n + 1))
            assert sympy.expand(add_n - ghost(e["xs"], n)
                                - ghost(e["ys"], n)) == 0
            assert sympy.expand(mul_n - ghost(e["xs"], n)
                                * ghost(e["ys"], n)) == 0

    # ring axioms on 100 random triples over F_9, length 2 and 3
    F9 = gf_create(3, 2)
    ops9 = FieldRing(F9)
    rng = random.Random(909)
    elems = list(F9.elements())
    for _ in range(100):
        N = rng.choice((2, 3))
        a, b, c = (WittVector(3, N, tuple(rng.choice(elems)
                                          for _ in range(N)))
                   for _ in range(3))
        assert witt_add(ops9, a, b) == witt_add(ops9, b, a)
        assert witt_mul(ops9, a, b) == witt_mul(ops9, b, a)
        assert (witt_add(ops9, witt_add(ops9, a, b), c)
                == witt_add(ops9, a, witt_add(ops9, b, c)))
        assert (witt_mul(ops9, witt_mul(ops9, a, b), c)
                == witt_mul(ops9, a, witt_mul(ops9, b, c)))
        assert (witt_mul(ops9, a, witt_add(ops9, b, c))
                == witt_add(ops9, witt_mul(ops9, a, b),
                            witt_mul(ops9, a, c)))

    # Teichmuller lift is multiplicative, exhaustively for q <= 9
    for q in ((2,), (3,), (2, 2), (5,), (7,), (2, 3), (3, 2)):
        F = gf_create(*q)
        ops = FieldRing(F)
        for x in F.elements():
            for y in F.elements():
                assert (witt_mul(ops, teichmuller(ops, x, 2),
                                 teichmuller(ops, y, 2))
                        == teichmuller(ops, F.mul(x, y), 2))

    # component 0 of the lifted value is the mod-p value
    K = gf_create(3)
    for ext in _standard_extensions(K):
        table = dirichlet_table(ext, 6)
        for s in (1, 2):
            assert (lifted_goss_eval(table, s, 6, 2)[0]
                    == goss_eval(table, s, 6))

    # zeta(-2) of the base vanishes; cross-check by brute power sums
    triv = dirichlet_table(trivial_extension(K), 5)
    assert not goss_eval(triv, -2, 6).terms
    brute = ()
    for d in range(0, 6):
        for n in enumerate_monic(K, d):
            brute = poly.padd(K, brute, poly.ppow(K, n, 2))
    assert brute == ()

    # lifted zeta of the base at s=0 is the Witt unit (1; 1)
    triv4 = dirichlet_table(trivial_extension(K), 4)
    assert lifted_goss_eval(triv4, 0, 0, 2) == (1, 1)
    assert lifted_goss_eval(triv4, 0, 0, 1) == int_to_witt(K, 1, 1)

    dt = time.monotonic() - t0
    print(f"criterion 09 PASS: ghost identities for p=2,3 at length <= 3, "
          f"ring axioms on 100 triples, multiplicative lifts for q <= 9, "
          f"component 0 = mod-p zeta, zeta(-2) = 0 against brute sums, "
          f"lifted zeta(0) = (1; 1) ({dt:.2f}s)")


def test_criterion_10_demos_and_budget():
    for name in sorted(DEMOS):
        report = DEMOS[name]()
        assert report.ok, f"demo {name} failed:\n{report.text()}"
    total = time.monotonic() - T0
    assert total < 300.0
    print(f"criterion 10 PASS: all {len(DEMOS)} demos self-check ok, "
          f"acceptance wall time {total:.1f}s < 300s")
