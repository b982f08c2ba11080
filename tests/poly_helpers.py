"""Polynomial and field helpers that only the tests call.

gosslift itself never evaluates a polynomial at a point, powers one
modulo another, subtracts field elements, or multiplies a list of
polynomials, so these live beside the tests that use them.  dump_oracle
spells a table's dump text from its entries view, apart from the
package's run-by-run writer (zeta.dump_blocks).
"""

from gosslift.poly import pmod, pmul, power
from gosslift.textforms import format_tpoly


def ppow_mod(K, base, e, mod):
    """base^e mod mod, by square-and-multiply."""
    return power(lambda f, g: pmod(K, pmul(K, f, g), mod), (K.one,),
                 pmod(K, base, mod), e)


def peval(K, f, x):
    """f(x) by Horner's rule, for f a coefficient tuple over K."""
    acc = K.zero
    for c in reversed(f):
        acc = K.add(K.mul(acc, x), c)
    return acc


def sub(K, a, b):
    """a - b in a table field."""
    return K._add[a][K._neg[b]]


def monic_product(K, *fs):
    """The product of coefficient tuples over K."""
    out = (K.one,)
    for f in fs:
        out = pmul(K, out, f)
    return out



def dump_oracle(table):
    """The dump text of a table, spelled from its entries view: the header,
    then '<n> <B(n)>' for each monic n in enumeration order."""
    K = table.field
    name = table.ext_name.replace(" ", "_")
    return (f"# ext={name} p={K.p} m={K.m} D={table.bound}\n"
            + "".join(f"{format_tpoly(K, n)} {b}\n"
                      for n, b in table.entries.items()))
