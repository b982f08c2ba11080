"""Scripted end-to-end scenarios with self-checking PASS/FAIL output.

Each demo wires fixed inputs through the library and asserts the
expected outcome, printing one line per assertion.  They double as the
acceptance suite's backbone and as documentation of what the package is
for; every run is deterministic, so two runs produce identical text.
"""

from . import textforms
from .extension import (ExtensionSpec, SplittingType, builtin_extension,
                        splitting_types, trivial_extension)
from .field import gf_create
from .gassmann import (cayley_komatsu, coset_cycle_type, coset_types,
                       cyclic_subgroup_classes, gassmann_by_cycle_type,
                       gassmann_check, klein4_pair, psl27_pair)
from .zeta import (compare_zeta, dirichlet_table, goss_eval, pgalois_check,
                   prime_power_residues, reconstruct_splitting, weil_series)


class DemoReport:
    """Accumulates check lines; ok only if every check passed."""

    def __init__(self, title):
        self.lines = [title]
        self.ok = True

    def note(self, text):
        self.lines.append(text)

    def check(self, label, cond):
        self.ok = self.ok and bool(cond)
        self.lines.append(f"{'PASS' if cond else 'FAIL'}: {label}")

    def text(self):
        return "\n".join(self.lines)


def standard_extensions():
    """The five extensions of F_3(T) exercised throughout the demos."""
    K = gf_create(3)
    return [
        trivial_extension(K),
        builtin_extension(K, "kummer_sqrt", c="T"),
        builtin_extension(K, "kummer_sqrt", c="T + 1", name="K_sqrt_T1"),
        builtin_extension(K, "artin_schreier", m=1),
        builtin_extension(K, "artin_schreier", m=5),
    ]


def demo_malakie():
    """Two quadratic fields sharing the Weil zeta but nothing finer.

    sqrt(T) and sqrt(T+1) over F_3: degree-block ideal counts agree to
    bound 6, but the counts at individual moduli differ already at n=T,
    both mod 3 and as integers; the Galois-side subgroups are not
    Gassmann equivalent.
    """
    r = DemoReport("two quadratics: same Weil zeta, different Goss zeta")
    K = gf_create(3)
    ext_k = builtin_extension(K, "kummer_sqrt", c="T")
    ext_l = builtin_extension(K, "kummer_sqrt", c="T + 1", name="K_sqrt_T1")
    tk = dirichlet_table(ext_k, 6)
    tl = dirichlet_table(ext_l, 6)
    vw = compare_zeta(tk, tl, "weil")
    r.note(f"weil: {vw.text()}")
    r.check("Weil series agree for all degrees <= 6", vw.equal)
    vg = compare_zeta(tk, tl, "goss")
    r.note(f"goss: {vg.text()}")
    r.check("mod-3 tables differ first at n=T with counts 1 vs 2",
            not vg.equal and vg.witness == "T"
            and (vg.left, vg.right) == (1, 2))
    vl = compare_zeta(tk, tl, "lifted")
    r.note(f"lifted: {vl.text()}")
    r.check("integer tables differ first at n=T",
            not vl.equal and vl.witness == "T"
            and (vl.left, vl.right) == (1, 2))
    rep = gassmann_check(*klein4_pair())
    r.note(rep.text())
    r.check("the two quadratic-side subgroups are not Gassmann equivalent",
            not rep.gassmann)
    return r


def demo_pgalois():
    """A cyclic degree-3 cover ramified only at infinity.

    X^3 - X - T over F_3: the mod-3 ideal count of n is 1 when n is a
    cube of a monic and 0 otherwise, so the mod-3 zeta of the cover is
    the base zeta evaluated at 3s.
    """
    r = DemoReport("degree-3 cover: mod-3 counts see only cubes")
    K = gf_create(3)
    ext = builtin_extension(K, "artin_schreier", m=1)
    table = dirichlet_table(ext, 6)
    ok, witness = pgalois_check(table, 3)
    total = len(table.counts)
    r.check(f"B(n) mod 3 is the cube indicator for all {total} monic n "
            f"of degree <= 6", ok and total == 1093)
    triv = dirichlet_table(trivial_extension(K), 6)
    lhs = goss_eval(table, 1, 6)
    rhs = goss_eval(triv, 3, 6)
    r.note(f"cover zeta at s=1:  {lhs}")
    r.note(f"base zeta at s=3:   {rhs}")
    r.check("zeta of the cover at s equals zeta of the base at 3s (s=1, "
            "prec 6)", lhs == rhs)
    return r


def demo_genus():
    """Same mod-p zeta, different Weil zeta.

    X^3 - X - T and X^3 - X - T^5 over F_3 have identical mod-3 tables
    (both covers are cyclic of degree 3, ramified only at infinity), but
    the second has genus 4, so the integer degree-block counts deviate
    at some degree <= 8.
    """
    r = DemoReport("two degree-3 covers: Goss zeta equal, Weil zeta not")
    K = gf_create(3)
    e1 = builtin_extension(K, "artin_schreier", m=1)
    e5 = builtin_extension(K, "artin_schreier", m=5)
    t1 = dirichlet_table(e1, 8)
    t5 = dirichlet_table(e5, 8)
    vg = compare_zeta(t1, t5, "goss")
    r.note(f"goss: {vg.text()}")
    r.check("mod-3 tables equal for all n of degree <= 8", vg.equal)
    vw = compare_zeta(t1, t5, "weil")
    r.note(f"weil: {vw.text()}")
    r.check("Weil coefficients differ at some degree <= 8",
            not vw.equal and isinstance(vw.witness, int) and vw.witness <= 8)
    return r


def demo_reconstruct():
    """Splitting types recovered from mod-p ideal counts alone.

    Over F_5 the extension degree (2 or 3) is below the characteristic,
    so the residues B(prime^f) mod 5 pin down the integer counts of
    primes above, and with them the inertia degrees.  Checked at every
    prime of degree <= 3 for a quadratic and a cubic extension.
    """
    r = DemoReport("inertia degrees from mod-5 counts at prime powers")
    K = gf_create(5)
    quad = builtin_extension(K, "kummer_sqrt", c="T^2 + T")
    cubic = ExtensionSpec(
        "C3", K, textforms.parse_xt_poly(K, "X^3 - T"),
        overrides={textforms.parse_monic(K, "T"): SplittingType(((3, 1),))})
    for ext, n_ext in ((quad, 2), (cubic, 3)):
        checked = 0
        good = True
        for d in (1, 2, 3):
            for prime, st in splitting_types(ext, d):
                residues = prime_power_residues(st, n_ext, 5)
                rec = reconstruct_splitting(residues, n_ext, 5)
                good = good and rec == st.inertia_degrees()
                checked += 1
        r.check(f"{ext.name}: round trip at all {checked} primes of "
                f"degree <= 3", good and checked == 55)
    return r


def demo_psl27():
    """A simple group of order 168 with a Gassmann pair of index 7.

    Built on the 8 points of the projective line over F_7.  Two
    conjugacy classes of order-24 subgroups exist; a cross-class pair
    meets every conjugacy class equally but is not conjugate, and the
    coset types agree for every cyclic subgroup.
    """
    r = DemoReport("order-168 group: Gassmann equivalent but not conjugate")
    # psl27_pair raises unless the order-24 subgroups form exactly 2 classes
    G, h1, h2 = psl27_pair()
    r.check("group order is 168", G.order == 168)
    sizes = tuple(sorted(G.class_sizes()))
    r.note(f"class sizes: {sizes}")
    r.check("conjugacy class sizes are 1,21,24,24,42,56",
            sizes == (1, 21, 24, 24, 42, 56))
    r.check("order-24 subgroups fall into exactly 2 conjugacy classes",
            h1.order == h2.order == 24)
    rep = gassmann_check(G, h1, h2)
    r.note(rep.text())
    r.check("cross-class pair is Gassmann equivalent", rep.gassmann)
    r.check("cross-class pair is not conjugate", not rep.conjugate)
    cyclics = cyclic_subgroup_classes(G)
    agree = all(coset_types(G, h1, bucket[0]) == coset_types(G, h2, bucket[0])
                for bucket in cyclics)
    r.check(f"coset types agree for all {len(cyclics)} cyclic subgroup "
            f"classes", agree)
    fixed = all(
        coset_cycle_type(G, h1, cls[0]).count(1)
        == coset_cycle_type(G, h2, cls[0]).count(1)
        for cls in G.conjugacy_classes())
    r.check("fixed-point counts on the two coset spaces agree for every "
            "class", fixed)
    return r


def demo_komatsu():
    """Two nonisomorphic groups of order 27 indistinguishable in Sym(27).

    The elementary abelian group and the Heisenberg group over F_3, each
    acting on itself by translation, have the same cycle-type statistics
    (identity plus 26 elements of type 3^9), hence are Gassmann
    equivalent inside the full symmetric group; nonisomorphic groups are
    never conjugate there.
    """
    r = DemoReport("order-27 pair: Gassmann equivalent in Sym(27)")
    ab, heis = cayley_komatsu(3)
    r.check("both regular images have order 27",
            ab.order == 27 and heis.order == 27)
    ok, stats_ab, stats_heis = gassmann_by_cycle_type(ab, heis)
    nine_threes = (3,) * 9
    shape = (stats_ab[(1,) * 27] == 1 and stats_ab[nine_threes] == 26)
    r.note(f"cycle types: identity x1, 3^9 x{stats_ab[nine_threes]}")
    r.check("cycle-type statistics are identity + 26 of type 3^9 for both",
            ok and shape)
    r.check("Gassmann equivalent inside Sym(27)", ok)
    r.check("one group is abelian, the other is not (so never conjugate)",
            ab.is_abelian() and not heis.is_abelian())
    return r


def demo_gossrem():
    """The mod-p zeta remembers the Weil zeta mod p.

    For each extension in the standard test set, the Weil degree-block
    coefficients reduced mod 3 coincide with the block sums of the mod-3
    ideal-count table: the two series are reductions of one another.
    """
    r = DemoReport("Weil coefficients mod p = block sums of the mod-p table")
    for ext in standard_extensions():
        table = dirichlet_table(ext, 6)
        a = weil_series(table).coeffs
        s = table.starts
        blocks = [sum(b % 3 for b in table.counts[s[d]:s[d + 1]]) % 3
                  for d in range(table.bound + 1)]
        r.check(f"{ext.name}: a_d mod 3 equals mod-3 block sums, d <= 6",
                all(a[d] % 3 == blocks[d] for d in range(7)))
    return r


DEMOS = {
    "malakie": demo_malakie,
    "pgalois": demo_pgalois,
    "genus": demo_genus,
    "reconstruct": demo_reconstruct,
    "psl27": demo_psl27,
    "komatsu": demo_komatsu,
    "gossrem": demo_gossrem,
}


def run_demo(name):
    try:
        fn = DEMOS[name]
    except KeyError:
        from .errors import GossliftError
        raise GossliftError(
            f"unknown demo {name!r}; choices: {', '.join(sorted(DEMOS))}"
        ) from None
    return fn()
