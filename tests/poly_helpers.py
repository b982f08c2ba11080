"""Polynomial and field helpers that only the tests call.

gosslift itself never evaluates a polynomial at a point, powers one
modulo another, subtracts field elements or tests divisibility of two
MonicPolys, so these live beside the tests that use them.
"""

from gosslift.poly import pmod, pmul, power


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


def divides(f, g):
    """Whether the MonicPoly f divides the MonicPoly g."""
    return not pmod(f.field, g.coeffs, f.coeffs)
