"""Permutation groups and Gassmann equivalence of subgroups.

Two subgroups H1, H2 of a finite group G are Gassmann equivalent when
every conjugacy class of G meets them in the same number of elements.
For number rings this is the exact group-theoretic shadow of having the
same splitting data at every unramified prime (the Frobenius class of a
prime meets the point stabilizer in as many elements as there are
degree-1 points, and so on through the full cycle type), so a Gassmann
pair that is not conjugate is the engine behind nonisomorphic extensions
sharing a zeta function.

Permutations act on 0..n-1 and are stored as tuples; composition is
(a*b)(i) = a(b(i)), i.e. b first.  Everything here is exhaustive search
over explicitly enumerated groups, sized for degrees up to a few dozen
and orders up to a few thousand.

Products run in C: x*p is operator.itemgetter(*p) applied to x, and a
walk that multiplies by the same p many times makes that getter once.
Each group keeps what its searches learn about it (see PermGroup), so a
conjugation orbit of subgroups is walked once per group and a coset
table is built once per subgroup.
"""

import itertools
import math
import re
from collections import Counter
from operator import itemgetter

from .errors import GroupError

CLOSURE_BOUND = 25000
POINT_BOUND = 1000  # most points a group text may declare


def identity_perm(n):
    return tuple(range(n))


def _times(p):
    """The map x -> x*p (p applied first), one C-level call per x.

    itemgetter with a single index returns that item rather than a
    1-tuple; below two points every permutation is the identity, and
    tuple maps a tuple to itself.
    """
    return itemgetter(*p) if len(p) > 1 else tuple


def compose(a, b):
    """Apply b, then a."""
    return _times(b)(a)


def inverse(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def _conjugator(g):
    """The map x -> g x g^-1: g*x is one itemgetter call on g, and the
    getter of g^-1 is made once."""
    if len(g) < 2:
        return tuple
    gi_times = itemgetter(*inverse(g))
    return lambda x: gi_times(itemgetter(*x)(g))


def _conjugate_set(c, s):
    return frozenset(map(c, s))


def _conjugate_element(c, x):
    return c(x)


def _conjugation_orbit(G, start, act):
    """The conjugates of start under G, each mapped to some h in G that
    carries start to it, in the order found.

    act(c, item) conjugates one item (an element or an element set) by
    c, the conjugator of a generator.  The walk steps by the generators
    of G only: G is finite, so products of its generators reach every
    element, and each generator is inverted once.  The transporters h
    are relative to start, so they belong to this walk alone.
    """
    steps = [(g, _conjugator(g)) for g in G.gens]
    reached = {start: identity_perm(G.n)}
    queue = [start]
    for item in queue:
        h = reached[item]
        for g, c in steps:
            image = act(c, item)
            if image not in reached:
                reached[image] = compose(g, h)
                queue.append(image)
    return reached


def _orbit_label(G, s, orbit=None):
    """The label G keeps for the conjugation orbit of the element set s.

    The first time, every set of the orbit is labelled s; the orbit is
    walked here unless the caller has just walked it from s.
    """
    label = G._orbit_labels.get(s)
    if label is None:
        if orbit is None:
            orbit = _conjugation_orbit(G, s, _conjugate_set)
        G._orbit_labels.update(dict.fromkeys(orbit, s))
        label = s
    return label


def cycles(a):
    """The cycles of a as point lists, fixed points too, by least point."""
    seen = [False] * len(a)
    out = []
    for i in range(len(a)):
        if not seen[i]:
            cyc = [i]
            j = a[i]
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = a[j]
            out.append(cyc)
    return out


def cycle_type(a):
    """Sorted cycle lengths, fixed points included."""
    return tuple(sorted(map(len, cycles(a))))


def perm_order(a):
    return math.lcm(*cycle_type(a))


def parse_perm(text, n):
    """Cycle notation, 1-based, e.g. '(1 2 3)(4 5)'; '()' is the identity.

    Commas and spaces both separate entries.  Cycles are applied right
    to left, matching composition order.
    """
    text = text.strip()
    if text in ("()", "e", ""):
        return identity_perm(n)
    if not re.fullmatch(r"(\(\s*\d+(\s*[ ,]\s*\d+)*\s*\))+", text):
        raise GroupError(f"cannot parse permutation {text!r}")
    result = identity_perm(n)
    for body in reversed(re.findall(r"\(([^()]*)\)", text)):
        entries = [int(tok) - 1 for tok in re.split(r"[ ,]+", body.strip())]
        if len(set(entries)) != len(entries):
            raise GroupError(f"repeated point in cycle ({body})")
        if any(i < 0 or i >= n for i in entries):
            raise GroupError(f"point out of range 1..{n} in ({body})")
        cyc = list(range(n))
        for idx, i in enumerate(entries):
            cyc[i] = entries[(idx + 1) % len(entries)]
        result = compose(tuple(cyc), result)
    return result


def format_perm(a):
    return "".join("(" + " ".join(str(j + 1) for j in cyc) + ")"
                   for cyc in cycles(a) if len(cyc) > 1) or "()"


class PermGroup:
    """A permutation group on 0..n-1, fully enumerated at construction.

    Besides its elements the group keeps what its own searches learn:
    its conjugacy classes, a label for every element set whose
    conjugation orbit under it has been walked (so each orbit is walked
    once), and the coset table of each subgroup asked about.
    """

    __slots__ = ("n", "name", "gens", "elements", "_set", "_classes",
                 "_orbit_labels", "_coset_tables")

    def __init__(self, n, gens, name=""):
        gens = tuple(tuple(g) for g in gens)
        for g in gens:
            if sorted(g) != list(range(n)):
                raise GroupError(f"{g} is not a permutation of 0..{n - 1}")
        closure = close_generators(gens, n, CLOSURE_BOUND)
        if closure is None:
            raise GroupError(f"closure exceeded {CLOSURE_BOUND} elements")
        self._fill(n, gens, closure, name)

    @classmethod
    def _from_closure(cls, n, gens, closure, name=""):
        """The group of valid generators gens whose closure the caller has
        already computed: no second closure and no second check."""
        self = cls.__new__(cls)
        self._fill(n, gens, closure, name)
        return self

    def _fill(self, n, gens, closure, name):
        self.n = n
        self.name = name
        self.gens = gens
        self.elements = tuple(sorted(closure))
        self._set = closure
        self._classes = None
        self._orbit_labels = {}
        self._coset_tables = {}

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, perm):
        return perm in self._set

    def contains_group(self, other):
        return other.n == self.n and other._set <= self._set

    def conjugacy_classes(self):
        """Classes as sorted tuples, ordered by (size, least element)."""
        if self._classes is None:
            seen = set()
            classes = []
            for x in self.elements:
                if x in seen:
                    continue
                cls = _conjugation_orbit(self, x, _conjugate_element)
                seen.update(cls)
                classes.append(tuple(sorted(cls)))
            classes.sort(key=lambda c: (len(c), c[0]))
            self._classes = tuple(classes)
        return self._classes

    def class_sizes(self):
        return tuple(len(c) for c in self.conjugacy_classes())

    def is_abelian(self):
        return all(compose(a, b) == compose(b, a)
                   for a in self.gens for b in self.gens)

    def __repr__(self):
        label = self.name or "PermGroup"
        return f"<{label} on {self.n} points, order {self.order}>"


def close_generators(gens, n, limit, within=None):
    """The group generated by gens as a frozenset, or None as soon as it
    grows past limit elements or, when a set within is given, leaves it.

    The walk steps by right multiplication x -> x*g, one itemgetter per
    generator; in a finite group that reaches the same closure as left
    multiplication.
    """
    steps = list(map(_times, gens))
    e = identity_perm(n)
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for step in steps:
            for y in map(step, frontier):
                if y not in seen:
                    if len(seen) >= limit or (within is not None
                                              and y not in within):
                        return None
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


# --- Gassmann machinery ---


class GassmannReport:
    def __init__(self, group, degree, order, subgroup_order, rows, gassmann,
                 conjugate):
        self.group = group
        self.degree = degree
        self.order = order
        self.subgroup_order = subgroup_order
        self.rows = rows  # (class representative perm, size, count1, count2)
        self.gassmann = gassmann
        self.conjugate = conjugate

    def text(self):
        head = (f"group {self.group or '?'} on {self.degree} points, "
                f"order {self.order}; subgroups of order {self.subgroup_order}")
        body = [["class rep", "size", "in H1", "in H2"]]
        for rep, size, c1, c2 in self.rows:
            body.append([format_perm(rep), str(size), str(c1), str(c2)])
        widths = [max(len(r[i]) for r in body) for i in range(4)]
        lines = [head]
        for r in body:
            lines.append("  ".join(r[i].ljust(widths[i]) for i in range(4)))
        lines.append(f"GASSMANN: {'yes' if self.gassmann else 'no'}")
        lines.append(f"CONJUGATE: {'yes' if self.conjugate else 'no'}")
        return "\n".join(lines)


def gassmann_check(G, H1, H2):
    """Per-class intersection counts and the two verdicts."""
    for H in (H1, H2):
        if not G.contains_group(H):
            raise GroupError("subgroup is not contained in the group")
    if H1.order != H2.order:
        raise GroupError(
            f"subgroup orders differ ({H1.order} vs {H2.order}); "
            f"Gassmann equivalence needs equal order")
    rows = []
    ok = True
    for cls in G.conjugacy_classes():
        c1 = sum(1 for x in cls if x in H1)
        c2 = sum(1 for x in cls if x in H2)
        ok = ok and c1 == c2
        rows.append((cls[0], len(cls), c1, c2))
    conj = are_conjugate(G, H1, H2)
    return GassmannReport(G.name, G.n, G.order, H1.order, tuple(rows),
                          ok, conj)


def are_conjugate(G, H1, H2):
    label = _orbit_label(G, H1._set)
    # the whole orbit of H1 is labelled now, so H2 is in it exactly when
    # it carries the same label
    return G._orbit_labels.get(H2._set) is label


def coset_cycle_type(G, H, g):
    """Cycle type of g acting on the left cosets of H in G.

    For a field extension cut out by H, this is the splitting type (all
    multiplicities 1) of an unramified prime whose Frobenius class
    contains g.
    """
    if not G.contains_group(H):
        raise GroupError("subgroup is not contained in the group")
    if g not in G:
        raise GroupError("element is outside the group")
    coset_of, reps_times = _coset_table(G, H)
    action = tuple([coset_of[t(g)] for t in reps_times])
    return cycle_type(action)


def _coset_table(G, H):
    """The index of the left coset xH of every x in G, and for each coset
    the map g -> g*x of its representative x; built once per subgroup and
    kept in G."""
    table = G._coset_tables.get(H._set)
    if table is None:
        coset_of = {}
        reps = []
        h_times = list(map(_times, H.elements))
        for x in G.elements:
            if x in coset_of:
                continue
            coset_of.update(dict.fromkeys([t(x) for t in h_times], len(reps)))
            reps.append(x)
        table = (coset_of, list(map(_times, reps)))
        G._coset_tables[H._set] = table
    return table


def coset_types(G, H, C):
    """Sizes of the C-orbits on the cosets of H in G, for cyclic C.

    Equivalently the double coset sizes |H t C| divided by |H|.  Their
    sum is the index of H, and when C is generated by the Frobenius at
    an unramified prime these are the inertia degrees above it.
    """
    gen = next((x for x in C.elements if perm_order(x) == C.order), None)
    if gen is None:
        raise GroupError("coset types need a cyclic subgroup")
    return coset_cycle_type(G, H, gen)


def gassmann_by_cycle_type(H1, H2):
    """Gassmann equivalence inside the full symmetric group on n points.

    Conjugacy classes of the symmetric group are exactly the cycle
    types, so two subgroups are Gassmann equivalent in it precisely when
    their elements realize each cycle type equally often.  This decides
    the verdict without enumerating the ambient group.
    """
    if H1.n != H2.n:
        raise GroupError("subgroups act on different point counts")
    stats1 = Counter(cycle_type(h) for h in H1.elements)
    stats2 = Counter(cycle_type(h) for h in H2.elements)
    return stats1 == stats2, stats1, stats2


# --- subgroup enumeration ---


def all_subgroups_of_order(G, k):
    """All subgroups of order k generated by at most two elements.

    Subgroups needing three or more generators are not found; for the
    groups treated here (and for any group whose order-k subgroups are
    cyclic, dihedral, or otherwise 2-generated) the enumeration is
    complete.  Returns PermGroup objects, deduplicated, sorted by their
    sorted element tuples.

    The first generator runs over one representative per conjugacy class
    only.  Take any S = <a, b> (or S = <a>), and g in G with g a g^-1 = r,
    the representative of the class of a.  Then g S g^-1 = <r, g b g^-1>
    (or <r>), which the search tries, since g b g^-1 is again an element
    of order dividing k other than r.  The set of 2-generated order-k
    subgroups is closed under conjugation, so the conjugates of what the
    search finds are exactly that set.

    Three cuts keep the closures short or skip them.  A closure stops at
    its first element whose order does not divide k.  b is skipped when
    the order of b*a does not divide k, since <a, b> holds b*a.  And b is
    skipped when it lies in an order-k subgroup already found that holds
    a: then <a, b> is that subgroup or smaller.

    Each closure is computed once: the subgroups are built from the sets
    the search closed (their conjugates from the conjugated sets), with
    generators carried along the search's own conjugation walk.  G
    labels every orbit that walk covers, so conjugacy_classes_of and
    are_conjugate on these subgroups walk nothing again.
    """
    if k < 1 or G.order % k:
        raise GroupError(f"{k} does not divide the group order {G.order}")
    if k == 1:
        return [PermGroup(G.n, [], name="trivial")]
    orders = {}
    for cls in G.conjugacy_classes():
        orders.update(dict.fromkeys(cls, perm_order(cls[0])))
    within = {x for x, o in orders.items() if k % o == 0}
    cands = [x for x in G.elements if x in within and orders[x] > 1]
    found = {}
    for cls in G.conjugacy_classes():
        a = cls[0]
        if a not in within or orders[a] == 1:
            continue
        covered = set().union(*(s for s in found if a in s))
        tries = [(a,)] if orders[a] == k else []
        a_times = _times(a)
        tries += [(a, b) for b in cands if b != a and a_times(b) in within]
        for gens in tries:
            if gens[-1] in covered:
                continue
            cl = close_generators(gens, G.n, k + 1, within)
            if cl is not None and len(cl) == k and cl not in found:
                found[cl] = gens
                covered |= cl
    found = _conjugates_of(G, found)
    return [PermGroup._from_closure(G.n, found[cl], cl, name=f"order{k}")
            for cl in sorted(found, key=lambda s: tuple(sorted(s)))]


def _conjugates_of(G, found):
    """Close {element set: generators} under conjugation by G; each new
    set gets the conjugated generators.  G labels every orbit walked."""
    out = {}
    for s, gens in found.items():
        if s in out:
            continue
        orbit = _conjugation_orbit(G, s, _conjugate_set)
        for image, h in orbit.items():
            out[image] = tuple(map(_conjugator(h), gens))
        _orbit_label(G, s, orbit)
    return out


def subgroups_of_order(G, k):
    """One subgroup of order k per conjugacy class (2-generated search)."""
    return [bucket[0] for bucket in
            conjugacy_classes_of(G, all_subgroups_of_order(G, k))]


def conjugacy_classes_of(G, subgroups):
    """Bucket subgroups of G into conjugacy classes, preserving order."""
    buckets = {}
    for H in subgroups:
        buckets.setdefault(_orbit_label(G, H._set), []).append(H)
    return list(buckets.values())


def cyclic_subgroup_classes(G):
    """Conjugacy classes of cyclic subgroups (the trivial one included).

    Every cyclic subgroup <a> is conjugate to <r> for the representative
    r of the class of a, so only the representatives are closed and the
    rest are their conjugates.
    """
    found = {}
    for cls in G.conjugacy_classes():
        cl = close_generators([cls[0]], G.n, G.order + 1)
        found.setdefault(cl, () if len(cl) == 1 else (cls[0],))
    found = _conjugates_of(G, found)
    subs = [PermGroup._from_closure(G.n, found[cl], cl)
            for cl in sorted(found, key=lambda s: (len(s), tuple(sorted(s))))]
    return conjugacy_classes_of(G, subs)


# --- builtin groups ---


def _psl2(ell):
    """PSL(2, ell) acting on the ell + 1 points of the projective line over
    F_ell, for an odd prime ell.

    Points are 0..ell-1 and ell for the point at infinity; generators
    are x -> x + 1 and x -> -1/x.
    """
    shift = tuple((i + 1) % ell for i in range(ell)) + (ell,)
    flip = [0] * (ell + 1)
    flip[0] = ell
    flip[ell] = 0
    for x in range(1, ell):
        flip[x] = (-pow(x, ell - 2, ell)) % ell
    return PermGroup(ell + 1, [shift, tuple(flip)], name=f"PSL(2,{ell})")


def psl27():
    """PSL(2,7) on the 8 points of the projective line over F_7."""
    return _psl2(7)


def psl211():
    """PSL(2,11) on the 12 points of the projective line over F_11."""
    return _psl2(11)


def klein4():
    """Z/2 x Z/2 as two independent transpositions.

    This is the Galois group of a compositum of two quadratic fields,
    acting on the four roots; the two factors are the point stabilizers
    of the quadratic subfields.
    """
    return PermGroup(4, [parse_perm("(1 2)", 4),
                         parse_perm("(3 4)", 4)], name="V4")


def klein4_pair():
    """V4 with its subgroups <(1 2)> and <(3 4)>: not Gassmann equivalent."""
    h1 = PermGroup(4, [parse_perm("(1 2)", 4)], name="H1")
    h2 = PermGroup(4, [parse_perm("(3 4)", 4)], name="H2")
    return klein4(), h1, h2


def _two_class_pair(G, k):
    """G with one order-k subgroup from each of its two classes."""
    reps = subgroups_of_order(G, k)
    if len(reps) != 2:
        raise GroupError(
            f"expected 2 classes of order-{k} subgroups, found {len(reps)}")
    return G, reps[0], reps[1]


def psl27_pair():
    """PSL(2,7) with one order-24 subgroup from each of its two classes.

    The two are Gassmann equivalent but not conjugate.
    """
    return _two_class_pair(psl27(), 24)


def psl211_pair():
    """PSL(2,11) with one order-60 subgroup from each of its two classes.

    Each class holds 11 icosahedral subgroups, the stabilizers of the
    points in the two actions of degree 11.  The two are Gassmann
    equivalent but not conjugate: the classical degree-11 pair (Perlis,
    "On the equation zeta_K(s) = zeta_K'(s)", J. Number Theory 9, 1977).
    """
    return _two_class_pair(psl211(), 60)


def cayley_komatsu(ell=3):
    """Two order-27 exponent-3 groups as regular subgroups of Sym(27).

    The elementary abelian group and the Heisenberg group (strict upper
    triangular 3x3 matrices over F_3) both act freely on themselves, so
    every nonidentity element has cycle type 3^9 and the two images have
    identical cycle type statistics: they are Gassmann equivalent inside
    the full symmetric group.  They are not conjugate there, since one
    is abelian and the other is not.  Only ell = 3 is built; larger
    primes give groups of order ell^3 that the same construction would
    cover but the desk-scale demos never need.
    """
    if ell != 3:
        raise GroupError("only ell = 3 is supported")
    # point 9a + 3b + c is the triple (a, b, c), in product order
    points = list(itertools.product(range(3), repeat=3))

    def left(twist, a, b, c):
        """Left translation by (a, b, c): (a, b, c)(d, e, f) is
        (a + d, b + e, c + f + twist * a * e), entries mod 3."""
        return [9 * ((a + d) % 3) + 3 * ((b + e) % 3) + (c + f + twist * a * e) % 3
                for d, e, f in points]

    ab = PermGroup(27, [left(0, 1, 0, 0), left(0, 0, 1, 0), left(0, 0, 0, 1)],
                   name="elem-abelian-27")
    heis = PermGroup(27, [left(1, 1, 0, 0), left(1, 0, 1, 0)], name="heisenberg-27")
    return ab, heis


def parse_group_text(text, n=None, default_name=""):
    """Group description: 'n = <points>' once, then 'gen = <cycles>' lines.

    '#' starts a comment; 'name = ...' is optional.  When n is supplied
    by the caller the file may omit it (subgroup files reuse the parent
    degree) but must not contradict it.
    """
    name = default_name
    gens = []
    pending = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise GroupError(f"expected key = value, got {line!r}")
        key = key.strip()
        value = value.strip()
        if key == "n":
            try:
                declared = int(value)
            except ValueError:
                raise GroupError(f"point count {value!r} is not an integer") from None
            if declared < 1:
                raise GroupError(f"point count {declared} must be positive")
            if declared > POINT_BOUND:
                raise GroupError(
                    f"point count {declared} exceeds bound {POINT_BOUND}")
            if n is not None and declared != n:
                raise GroupError(
                    f"point count {declared} does not match expected {n}")
            n = declared
        elif key == "name":
            name = value
        elif key == "gen":
            pending.append(value)
        else:
            raise GroupError(f"unknown key {key!r} in group text")
    if n is None:
        raise GroupError("group text does not declare n")
    for value in pending:
        gens.append(parse_perm(value, n))
    return PermGroup(n, gens, name=name)


def parse_group_file(path, n=None):
    import os

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise GroupError(f"cannot read group file {path}: {e}") from None
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_group_text(text, n=n, default_name=stem)


BUILTIN_GROUPS = {
    "psl27": psl27,
    "klein4": klein4,
}


def builtin_group(name):
    try:
        return BUILTIN_GROUPS[name]()
    except KeyError:
        raise GroupError(
            f"unknown builtin group {name!r}; "
            f"choices: {', '.join(sorted(BUILTIN_GROUPS))}") from None
