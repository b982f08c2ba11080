"""Sympy oracle for the Witt structure polynomials.

`sympy_structure_polys` is the derivation gosslift.witt used to run
through sympy, kept as it was: it solves the ghost recursion with sympy
expansion and freezes each component with sympy's `Poly.terms()`.  The
package now solves the same recursion with plain int dicts, so the two
must agree term for term.  `witt_structure_exprs` turns the package's
frozen polynomials back into sympy expressions for the ghost-identity
checks.
"""

import sympy

from gosslift.errors import WittError
from gosslift.witt import WittPolys, witt_structure_polys


def _freeze(expr, gens):
    poly = sympy.Poly(expr, *gens, domain="QQ")
    out = []
    for exps, coeff in poly.terms():
        if coeff.q != 1:
            raise WittError("structure polynomial has a fractional coefficient")
        out.append((int(coeff), tuple(int(e) for e in exps)))
    return tuple(out)


def sympy_structure_polys(p, N):
    """Structure polynomials of W_N in characteristic p, derived by sympy."""
    xs = sympy.symbols(f"x:{N}")
    ys = sympy.symbols(f"y:{N}")
    gens = xs + ys

    def ghost(vs, n):
        return sum(p**i * vs[i] ** (p ** (n - i)) for i in range(n + 1))

    def solve(targets):
        comps = []
        for n in range(N):
            lower = sum(p**i * comps[i] ** (p ** (n - i)) for i in range(n))
            num = sympy.expand(targets[n] - lower)
            # exactness of this division is rechecked when freezing
            comps.append(sympy.expand(num / sympy.Integer(p) ** n))
        return comps

    add_exprs = solve([ghost(xs, n) + ghost(ys, n) for n in range(N)])
    mul_exprs = solve([ghost(xs, n) * ghost(ys, n) for n in range(N)])
    add = tuple(_freeze(e, gens) for e in add_exprs)
    mul = tuple(_freeze(e, gens) for e in mul_exprs)
    tails = tuple(_freeze(add_exprs[n] - xs[n] - ys[n], gens)
                  for n in range(N))
    return WittPolys(p, N, add, mul, tails)


def witt_structure_exprs(p, N):
    """Sympy form of the package's structure data, for ghost checks."""
    polys = witt_structure_polys(p, N)
    xs = sympy.symbols(f"x:{N}")
    ys = sympy.symbols(f"y:{N}")
    gens = xs + ys

    def unfreeze(terms):
        return sympy.Add(*[
            coeff * sympy.Mul(*[g**e for g, e in zip(gens, exps) if e])
            for coeff, exps in terms])

    return {
        "xs": xs,
        "ys": ys,
        "add": [unfreeze(t) for t in polys.add],
        "mul": [unfreeze(t) for t in polys.mul],
    }
