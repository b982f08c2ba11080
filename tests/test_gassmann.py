"""Permutation groups, Gassmann equivalence, and coset splitting data."""

import random
from collections import Counter

import pytest

from gosslift import gassmann
from gosslift.errors import GroupError
from gosslift.gassmann import (PermGroup, all_subgroups_of_order, are_conjugate,
                               builtin_group, cayley_komatsu, close_generators,
                               compose, conjugacy_classes_of,
                               coset_cycle_type, coset_types, cycle_type,
                               cyclic_subgroup_classes, format_perm,
                               gassmann_by_cycle_type, gassmann_check,
                               identity_perm, inverse, parse_perm,
                               parse_group_file, parse_group_text, perm_order,
                               psl27, psl27_pair, psl211, psl211_pair, klein4,
                               subgroups_of_order)
import subgroup_oracle
from subgroup_oracle import conjugate, oracle_subgroups_of_order, symmetric_group


def test_compose_applies_right_factor_first():
    a = parse_perm("(1 2)", 3)
    b = parse_perm("(2 3)", 3)
    assert compose(a, b) == parse_perm("(1 2 3)", 3)
    assert parse_perm("(1 2)(2 3)", 3) == parse_perm("(1 2 3)", 3)


def test_perm_primitives():
    g = parse_perm("(1 2 3)(4 5)", 5)
    assert compose(g, inverse(g)) == identity_perm(5)
    assert perm_order(g) == 6
    assert cycle_type(g) == (2, 3)
    assert cycle_type(identity_perm(4)) == (1, 1, 1, 1)
    assert cycle_type(parse_perm("(1 2)", 4)) == (1, 1, 2)
    h = parse_perm("(1 2)", 3)
    x = parse_perm("(1 3)", 3)
    assert gassmann._conjugator(h)(x) == parse_perm("(2 3)", 3)
    assert conjugate(h, x) == parse_perm("(2 3)", 3)


def test_perm_text_round_trip():
    for text in ("(1 2 3)", "(1 2)(3 4)", "(2 5)(1 3 4)", "()"):
        g = parse_perm(text, 5)
        assert parse_perm(format_perm(g), 5) == g
    assert format_perm(identity_perm(3)) == "()"
    assert format_perm(parse_perm("(1,2,3)", 3)) == "(1 2 3)"
    assert parse_perm("e", 4) == identity_perm(4)
    assert parse_perm("", 4) == identity_perm(4)


def test_parse_perm_errors():
    with pytest.raises(GroupError):
        parse_perm("(1 1)", 3)
    with pytest.raises(GroupError):
        parse_perm("(1 9)", 3)
    with pytest.raises(GroupError):
        parse_perm("1 2", 3)
    with pytest.raises(GroupError):
        parse_perm("(1 2", 3)


def test_perm_group_s3():
    G = symmetric_group(3)
    assert G.order == 6
    assert list(G.elements) == sorted(G.elements)
    assert G.class_sizes() == (1, 2, 3)
    assert not G.is_abelian()
    C3 = PermGroup(3, [parse_perm("(1 2 3)", 3)])
    assert C3.is_abelian()
    assert G.contains_group(C3)
    assert not C3.contains_group(G)
    assert parse_perm("(1 2)", 3) in G
    assert parse_perm("(1 2)", 3) not in C3


def test_perm_group_validation(monkeypatch):
    with pytest.raises(GroupError):
        PermGroup(3, [(0, 0, 1)])
    monkeypatch.setattr(gassmann, "CLOSURE_BOUND", 3)
    with pytest.raises(GroupError):
        PermGroup(6, [parse_perm("(1 2 3 4 5 6)", 6)])


def test_close_generators_limit(monkeypatch):
    c6 = [parse_perm("(1 2 3 4 5 6)", 6)]
    powers = {tuple((i + k) % 6 for i in range(6)) for k in range(6)}
    assert close_generators(c6, 6, 6) == powers
    assert close_generators(c6, 6, 5) is None
    monkeypatch.setattr(gassmann, "CLOSURE_BOUND", 5)
    with pytest.raises(GroupError, match="closure exceeded 5 elements"):
        PermGroup(6, c6)


def test_klein_four():
    V = klein4()
    assert V.order == 4
    assert V.class_sizes() == (1, 1, 1, 1)
    assert V.is_abelian()
    subs = subgroups_of_order(V, 2)
    assert len(subs) == 3  # abelian, so each order-2 subgroup is its own class


def test_coset_action_of_point_stabilizer():
    """Cosets of a point stabilizer recover the natural action."""
    G = symmetric_group(3)
    H = PermGroup(3, [parse_perm("(1 2)", 3)])  # stabilizer of point 3
    for g in G.elements:
        assert coset_cycle_type(G, H, g) == cycle_type(g)


def test_coset_types():
    G = symmetric_group(3)
    H = PermGroup(3, [parse_perm("(1 2)", 3)])
    C3 = PermGroup(3, [parse_perm("(1 2 3)", 3)])
    assert coset_types(G, H, C3) == (3,)
    assert coset_types(G, H, PermGroup(3, [])) == (1, 1, 1)
    assert coset_types(G, H, H) == (1, 2)
    assert sum(coset_types(G, H, C3)) == G.order // H.order


def test_coset_errors():
    G = symmetric_group(3)
    H = PermGroup(3, [parse_perm("(1 2)", 3)])
    with pytest.raises(GroupError):
        coset_cycle_type(G, H, (1, 0, 2, 3))
    S4 = symmetric_group(4)
    with pytest.raises(GroupError):
        coset_cycle_type(G, S4, identity_perm(3))
    V = klein4()
    with pytest.raises(GroupError):
        coset_types(symmetric_group(4), PermGroup(4, [parse_perm("(1 2)", 4)]), V)


def test_gassmann_check_s3():
    G = symmetric_group(3)
    H1 = PermGroup(3, [parse_perm("(1 2)", 3)])
    H2 = PermGroup(3, [parse_perm("(1 3)", 3)])
    report = gassmann_check(G, H1, H2)
    assert report.gassmann
    assert report.conjugate
    assert sum(c1 for _, _, c1, _ in report.rows) == H1.order
    assert sum(c2 for _, _, _, c2 in report.rows) == H2.order
    text = report.text()
    assert "GASSMANN: yes" in text
    assert "CONJUGATE: yes" in text


def test_gassmann_check_validation():
    G = symmetric_group(3)
    H1 = PermGroup(3, [parse_perm("(1 2)", 3)])
    C3 = PermGroup(3, [parse_perm("(1 2 3)", 3)])
    with pytest.raises(GroupError):
        gassmann_check(G, H1, C3)  # orders 2 vs 3
    with pytest.raises(GroupError):
        gassmann_check(G, H1, symmetric_group(4))


def test_klein_subgroups_not_gassmann():
    V = klein4()
    H1 = PermGroup(4, [parse_perm("(1 2)", 4)])
    H2 = PermGroup(4, [parse_perm("(3 4)", 4)])
    report = gassmann_check(V, H1, H2)
    assert not report.gassmann
    assert not report.conjugate
    assert "GASSMANN: no" in report.text()


def test_conjugate_pairs_are_gassmann():
    """Conjugate subgroups always share cycle type statistics."""
    rng = random.Random(0)
    for n in (5, 6):
        G = symmetric_group(n)
        for _ in range(25):
            a = rng.choice(G.elements)
            b = rng.choice(G.elements)
            H = PermGroup(n, [a, b]) if perm_order(a) * perm_order(b) <= 24 \
                else PermGroup(n, [a])
            g = rng.choice(G.elements)
            conj_gens = [conjugate(g, h) for h in H.gens] or []
            Hc = PermGroup(n, conj_gens)
            assert Hc.order == H.order
            ok, stats1, stats2 = gassmann_by_cycle_type(H, Hc)
            assert ok
            assert stats1 == stats2


def test_small_symmetric_groups_have_no_strict_gassmann_pairs():
    """Below eight points, equal cycle statistics force conjugacy."""
    for n in (3, 4, 5):
        G = symmetric_group(n)
        order = G.order
        divisors = [k for k in range(2, order) if order % k == 0]
        for k in divisors:
            reps = subgroups_of_order(G, k)
            for i, H1 in enumerate(reps):
                for H2 in reps[i + 1:]:
                    ok, _, _ = gassmann_by_cycle_type(H1, H2)
                    assert not ok


def test_psl27_classes():
    G = psl27()
    assert G.order == 168
    assert G.class_sizes() == (1, 21, 24, 24, 42, 56)
    orders = {perm_order(c[0]) for c in G.conjugacy_classes()}
    assert orders == {1, 2, 3, 4, 7}


def test_psl27_gassmann_pair():
    G = psl27()
    subs = subgroups_of_order(G, 24)
    assert len(subs) == 2
    H1, H2 = subs
    report = gassmann_check(G, H1, H2)
    assert report.gassmann
    assert not report.conjugate
    for bucket in cyclic_subgroup_classes(G):
        C = bucket[0]
        assert coset_types(G, H1, C) == coset_types(G, H2, C)


def test_psl27_cyclic_classes():
    G = psl27()
    buckets = cyclic_subgroup_classes(G)
    assert sorted(b[0].order for b in buckets) == [1, 2, 3, 4, 7]


def test_psl27_point_stabilizer_action():
    G = psl27()
    fixing = [g for g in G.elements if g[7] == 7]
    H = PermGroup(8, fixing)
    assert H.order == 21
    fixed_by_size = {}
    for cls in G.conjugacy_classes():
        rep = cls[0]
        assert coset_cycle_type(G, H, rep) == cycle_type(rep)
        fixed_by_size.setdefault(len(cls), []).append(
            sum(1 for i in range(8) if rep[i] == i))
    assert fixed_by_size[1] == [8]
    assert fixed_by_size[21] == [0]
    assert fixed_by_size[24] == [1, 1]
    assert fixed_by_size[42] == [0]
    assert fixed_by_size[56] == [2]
    # orbit count 1 on the 8 points, by the counting lemma
    total = sum(len(cls) * sum(1 for i in range(8) if cls[0][i] == i)
                for cls in G.conjugacy_classes())
    assert total == G.order


def test_cayley_komatsu():
    ab, heis = cayley_komatsu()
    assert ab.order == 27
    assert heis.order == 27
    assert ab.is_abelian()
    assert not heis.is_abelian()
    for H in (ab, heis):
        stats = Counter(cycle_type(h) for h in H.elements)
        assert stats == {(1,) * 27: 1, (3,) * 9: 26}
    ok, _, _ = gassmann_by_cycle_type(ab, heis)
    assert ok
    with pytest.raises(GroupError):
        cayley_komatsu(5)


def test_are_conjugate_small():
    G = symmetric_group(3)
    H1 = PermGroup(3, [parse_perm("(1 2)", 3)])
    H2 = PermGroup(3, [parse_perm("(1 3)", 3)])
    assert are_conjugate(G, H1, H2)
    C3 = PermGroup(3, [parse_perm("(1 2 3)", 3)])
    assert not are_conjugate(G, H1, C3)


def test_subgroup_enumeration():
    S4 = symmetric_group(4)
    assert len(all_subgroups_of_order(S4, 1)) == 1
    assert all_subgroups_of_order(S4, 1)[0].order == 1
    whole = subgroups_of_order(S4, 24)
    assert len(whole) == 1 and whole[0].order == 24
    sylow2 = subgroups_of_order(S4, 8)
    assert len(sylow2) == 1
    assert sylow2[0].order == 8
    transpositions = all_subgroups_of_order(S4, 2)
    assert len(transpositions) == 9  # 6 transpositions + 3 double swaps
    with pytest.raises(GroupError):
        all_subgroups_of_order(S4, 5)
    with pytest.raises(GroupError):
        all_subgroups_of_order(S4, 0)


def test_conjugacy_classes_of_buckets():
    S4 = symmetric_group(4)
    subs = all_subgroups_of_order(S4, 2)
    buckets = conjugacy_classes_of(S4, subs)
    assert sorted(len(b) for b in buckets) == [3, 6]


GROUP_TEXT = """
# two generators of the symmetric group on four points
n = 4
name = demo
gen = (1 2 3 4)
gen = (1 2)
"""


def test_parse_group_text():
    G = parse_group_text(GROUP_TEXT)
    assert G.order == 24
    assert G.name == "demo"
    H = parse_group_text("gen = (1 2)", n=4, default_name="H")
    assert H.order == 2
    assert H.name == "H"
    assert parse_group_text("n = 3").order == 1


def test_parse_group_text_errors():
    with pytest.raises(GroupError):
        parse_group_text("gen = (1 2)")  # no n anywhere
    with pytest.raises(GroupError):
        parse_group_text("n = 4", n=5)
    with pytest.raises(GroupError):
        parse_group_text("n = 4\ncolor = red")
    with pytest.raises(GroupError):
        parse_group_text("just words")


def test_parse_group_file(tmp_path):
    path = tmp_path / "c4.grp"
    path.write_text("n = 4\ngen = (1 2 3 4)\n")
    G = parse_group_file(str(path))
    assert G.order == 4
    assert G.name == "c4"
    with pytest.raises(GroupError):
        parse_group_file(str(tmp_path / "absent.grp"))


def test_builtin_group():
    assert builtin_group("psl27").order == 168
    assert builtin_group("klein4").order == 4
    with pytest.raises(GroupError):
        builtin_group("monster")


def _divisors(n):
    return [k for k in range(1, n + 1) if n % k == 0]


def _element_sets(subgroups):
    return [H.elements for H in subgroups]


@pytest.mark.parametrize("G,orders", [
    (symmetric_group(4), None),
    (symmetric_group(5), None),
    (psl27(), None),
    (psl211(), (6, 12)),
], ids=["S4", "S5", "PSL27", "PSL211"])
def test_subgroup_search_matches_pair_oracle(G, orders):
    """Class representatives as first generator find what all pairs find."""
    for k in orders or _divisors(G.order):
        got = all_subgroups_of_order(G, k)
        assert _element_sets(got) == oracle_subgroups_of_order(G, k)
        assert all(H.order == k for H in got)


def _relabeled(G, sigma):
    """G with its points renamed by the permutation sigma."""
    return PermGroup(G.n, [conjugate(sigma, g) for g in G.gens])


def test_subgroup_counts_survive_relabeling():
    G = psl211()
    rng = random.Random(11)
    points = list(range(G.n))
    rng.shuffle(points)
    R = _relabeled(G, tuple(points))
    assert R.elements != G.elements
    assert R.class_sizes() == G.class_sizes()
    for k in (6, 12, 60):
        counts = []
        for H in (G, R):
            subs = all_subgroups_of_order(H, k)
            counts.append((len(subs), len(conjugacy_classes_of(H, subs))))
        assert counts[0] == counts[1]


def test_psl211_order60_search():
    """Two classes of 11 icosahedral subgroups: the degree-11 Gassmann pair."""
    G = psl211()
    assert G.order == 660
    subs = all_subgroups_of_order(G, 60)
    buckets = conjugacy_classes_of(G, subs)
    assert len(subs) == 22
    assert [len(b) for b in buckets] == [11, 11]
    G, H1, H2 = psl211_pair()
    report = gassmann_check(G, H1, H2)
    assert report.gassmann
    assert not report.conjugate


def test_conjugacy_machinery_matches_brute_force():
    G = psl27()
    brute = sorted(tuple(sorted({conjugate(g, x) for g in G.elements}))
                   for x in G.elements)
    assert sorted(G.conjugacy_classes()) == sorted(set(brute))
    cyclic = {close_generators([a], G.n, G.order + 1) for a in G.elements}
    buckets = cyclic_subgroup_classes(G)
    assert {H._set for b in buckets for H in b} == cyclic
    subs = all_subgroups_of_order(G, 24)
    for H1 in subs:
        for H2 in subs:
            expected = any(frozenset(conjugate(g, h) for h in H1.elements)
                           == H2._set for g in G.elements)
            assert are_conjugate(G, H1, H2) == expected


def _assert_generated_by_own_gens(subgroups):
    # closed with the oracle's list products, not the package kernel
    for H in subgroups:
        assert subgroup_oracle.close_generators(H.gens, H.n, H.order + 1) \
            == H._set


def _partition(buckets):
    return {frozenset(H.elements for H in b) for b in buckets}


@pytest.mark.parametrize("make,orders", [
    (lambda: symmetric_group(4), None),
    (lambda: symmetric_group(5), None),
    (psl27, (24,)),
    (psl211, (6, 12)),
], ids=["S4", "S5", "PSL27", "PSL211"])
def test_found_subgroups_are_generated_by_their_generators(make, orders):
    """Each found subgroup keeps generators from its own conjugation walk,
    also when its group walked the orbit first from another member."""
    G = make()
    searches = [(lambda F, k=k: all_subgroups_of_order(F, k))
                for k in orders or _divisors(G.order)]
    searches.append(lambda F: [H for b in cyclic_subgroup_classes(F)
                               for H in b])
    for search in searches:
        subs = search(G)
        _assert_generated_by_own_gens(subs)
        buckets = conjugacy_classes_of(G, subs)
        F1 = make()
        for b in buckets:
            assert are_conjugate(F1, b[-1], b[0])
        F2 = make()
        assert _partition(conjugacy_classes_of(F2, subs[::-1])) \
            == _partition(buckets)
        for F in (F1, F2):
            again = search(F)
            assert _element_sets(again) == _element_sets(subs)
            _assert_generated_by_own_gens(again)


def test_groups_on_one_and_two_points():
    e1, e2, t = (0,), (0, 1), (1, 0)
    assert compose(e1, e1) == e1 and gassmann._conjugator(e1)(e1) == e1
    assert compose(t, t) == e2 and gassmann._conjugator(t)(t) == t
    assert close_generators([e1], 1, 1) == {e1}
    assert close_generators([t], 2, 2) == {e2, t}
    assert close_generators([t], 2, 1) is None
    S1 = symmetric_group(1)
    S2 = symmetric_group(2)
    assert (S1.elements, S2.elements) == ((e1,), (e2, t))
    assert S1.conjugacy_classes() == ((e1,),)
    assert S2.conjugacy_classes() == ((e2,), (t,))
    assert [H.elements for H in all_subgroups_of_order(S1, 1)] == [(e1,)]
    assert [H.elements for H in all_subgroups_of_order(S2, 2)] == [(e2, t)]
    assert [[H.elements for H in b] for b in cyclic_subgroup_classes(S1)] \
        == [[(e1,)]]
    assert [[H.elements for H in b] for b in cyclic_subgroup_classes(S2)] \
        == [[(e2,)], [(e2, t)]]
    assert coset_cycle_type(S1, S1, e1) == (1,)
    trivial = PermGroup(2, [])
    assert coset_cycle_type(S2, trivial, t) == (2,)
    assert coset_cycle_type(S2, S2, t) == (1,)
    for G in (S1, S2):
        report = gassmann_check(G, G, G)
        assert report.gassmann and report.conjugate


def _fresh_coset_cycle_type(G, H, g):
    """coset_cycle_type from a coset map built for this g alone, with
    list products."""
    def mul(a, b):
        return tuple([a[i] for i in b])
    coset_of = {}
    reps = []
    for x in G.elements:
        if x not in coset_of:
            coset_of.update((mul(x, h), len(reps)) for h in H.elements)
            reps.append(x)
    return cycle_type(tuple(coset_of[mul(g, x)] for x in reps))


def test_kept_coset_table_matches_a_fresh_build():
    G, H1, H2 = psl27_pair()
    for H in (H1, H2):
        for g in G.elements:
            assert coset_cycle_type(G, H, g) == _fresh_coset_cycle_type(G, H, g)
    assert len(G._coset_tables) == 2
