"""The exhaustive pair search for 2-generated subgroups, kept as an oracle.

This is the loop `gosslift.gassmann.all_subgroups_of_order` ran before it
fixed the first generator to one representative per conjugacy class: it
closes every unordered pair of elements whose orders divide k.  The tests
check that the fast search returns the same subgroups in the same order.
"""

from gosslift.errors import GroupError
from gosslift.gassmann import PermGroup, close_generators, perm_order


def oracle_subgroups_of_order(G, k):
    """All subgroups of order k generated by at most two elements."""
    if k < 1 or G.order % k:
        raise GroupError(f"{k} does not divide the group order {G.order}")
    if k == 1:
        return [PermGroup(G.n, [], name="trivial")]
    orders = {x: perm_order(x) for x in G.elements}
    cands = [x for x in G.elements if k % orders[x] == 0 and orders[x] > 1]
    found = {}
    for i, a in enumerate(cands):
        if orders[a] == k:
            cl = close_generators([a], G.n, k + 1)
            if cl is not None and len(cl) == k and cl not in found:
                found[cl] = (a,)
        for b in cands[i + 1:]:
            cl = close_generators([a, b], G.n, k + 1)
            if cl is not None and len(cl) == k and cl not in found:
                found[cl] = (a, b)
    out = []
    for cl in sorted(found, key=lambda s: tuple(sorted(s))):
        out.append(PermGroup(G.n, found[cl], name=f"order{k}"))
    return out
