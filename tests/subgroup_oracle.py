"""The exhaustive pair search for 2-generated subgroups, kept as an oracle.

This is the loop `gosslift.gassmann.all_subgroups_of_order` ran before it
fixed the first generator to one representative per conjugacy class: it
closes every unordered pair of elements whose orders divide k.  The tests
check that the fast search returns the same subgroups in the same order.

The closure, the element order and conjugation are computed here with
plain list products, not with the package's permutation kernel, so the
oracle does not share the code it checks.  The symmetric groups that the
tests search are built here too: the program itself never needs one.
"""

from gosslift.errors import GroupError
from gosslift.gassmann import PermGroup


def symmetric_group(n):
    """Sym(n) on 0..n-1, generated by an n-cycle and a transposition."""
    if n == 1:
        return PermGroup(1, [], name="S1")
    cyc = tuple(range(1, n)) + (0,)
    swap = (1, 0) + tuple(range(2, n))
    return PermGroup(n, [cyc, swap], name=f"S{n}")


def conjugate(g, x):
    """g x g^-1, by list products."""
    inv = [0] * len(g)
    for i, j in enumerate(g):
        inv[j] = i
    return tuple([g[x[i]] for i in inv])


def close_generators(gens, n, limit):
    """The group generated by gens (permutations of 0..n-1 as tuples,
    composed by (a*b)(i) = a(b(i))) as a frozenset, or None past limit
    elements."""
    e = tuple(range(n))
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple([g[i] for i in x])
                if y not in seen:
                    if len(seen) >= limit:
                        return None
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def perm_order(a):
    """The least m >= 1 with a^m the identity, by repeated products."""
    e = tuple(range(len(a)))
    x, m = a, 1
    while x != e:
        x = tuple([a[i] for i in x])
        m += 1
    return m


def oracle_subgroups_of_order(G, k):
    """The sorted element tuples of all subgroups of order k generated by
    at most two elements, in sorted order."""
    if k < 1 or G.order % k:
        raise GroupError(f"{k} does not divide the group order {G.order}")
    if k == 1:
        return [(tuple(range(G.n)),)]
    orders = {x: perm_order(x) for x in G.elements}
    cands = [x for x in G.elements if k % orders[x] == 0 and orders[x] > 1]
    found = set()
    for i, a in enumerate(cands):
        if orders[a] == k:
            cl = close_generators([a], G.n, k + 1)
            if cl is not None and len(cl) == k:
                found.add(cl)
        for b in cands[i + 1:]:
            cl = close_generators([a, b], G.n, k + 1)
            if cl is not None and len(cl) == k:
                found.add(cl)
    return sorted(tuple(sorted(cl)) for cl in found)
