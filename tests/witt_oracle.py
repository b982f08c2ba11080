"""Oracles for the Witt structure polynomials and their evaluation.

`sympy_structure_polys` is the derivation gosslift.witt used to run
through sympy, kept as it was: it solves the ghost recursion with sympy
expansion and freezes each component with sympy's `Poly.terms()`.  The
package now solves the same recursion with plain int dicts, so the two
must agree term for term.  `witt_structure_exprs` turns the package's
frozen polynomials back into sympy expressions for the ghost-identity
checks.

`eval_terms` is the term-by-term evaluator gosslift.witt used before it
learned to skip terms that vanish at the working precision, kept as it
was: every term starts from its integer coefficient as a ring constant
and pays one product per variable power.  `oracle_add`, `oracle_mul`,
`oracle_neg` and `oracle_lifted_goss_eval` run the package's algorithms
on top of it, with integers lifted by double-and-add, so the package's
results must equal theirs, precision included.
"""

import sympy

from gosslift.errors import WittError
from gosslift.laurent import laurent_inv_pow
from gosslift.witt import (FieldOps, LaurentOps, WittPolys, WittVector,
                           teichmuller, witt_structure_polys, witt_zero)


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


def eval_terms(ops, terms, vals):
    powers = {}

    def power(i, e):
        got = powers.get((i, e))
        if got is None:
            got = ops.pow_(vals[i], e)
            powers[(i, e)] = got
        return got

    acc = ops.zero
    for coeff, exps in terms:
        t = ops.from_int(coeff)
        for i, e in enumerate(exps):
            if e:
                t = ops.mul(t, power(i, e))
        acc = ops.add(acc, t)
    return acc


def oracle_add(ops, a, b):
    polys = witt_structure_polys(a.p, a.N)
    vals = a.coords + b.coords
    return WittVector(a.p, a.N, tuple(eval_terms(ops, polys.add[n], vals)
                                      for n in range(a.N)))


def oracle_mul(ops, a, b):
    polys = witt_structure_polys(a.p, a.N)
    vals = a.coords + b.coords
    return WittVector(a.p, a.N, tuple(eval_terms(ops, polys.mul[n], vals)
                                      for n in range(a.N)))


def oracle_neg(ops, a):
    polys = witt_structure_polys(a.p, a.N)
    ys = []
    for n in range(a.N):
        vals = a.coords + tuple(ys) + (ops.zero,) * (a.N - n)
        t = eval_terms(ops, polys.add_tail[n], vals)
        ys.append(ops.neg(ops.add(a.coords[n], t)))
    return WittVector(a.p, a.N, tuple(ys))


def oracle_int_to_witt(ops, k, N):
    """k copies of the Witt unit, summed by binary double-and-add."""
    k %= ops.p ** N
    acc = witt_zero(ops, N)
    one = teichmuller(ops, ops.one, N)
    for ch in bin(k)[2:]:
        acc = oracle_add(ops, acc, acc)
        if ch == "1":
            acc = oracle_add(ops, acc, one)
    return acc


def oracle_lifted_goss_eval(table, s, M, N):
    """The lifted zeta loop for s >= 1, every power and term computed."""
    K = table.field
    lops = LaurentOps(K, M)
    acc = witt_zero(lops, N)
    for n, b in table.entries.items():
        if n.degree * s > M or b % K.p ** N == 0:
            continue
        bw = oracle_int_to_witt(FieldOps(K), b, N)
        x = laurent_inv_pow(n, s, M)
        coords = []
        for i in range(N):
            coords.append(x.scale(bw.coords[i]))
            if i + 1 < N:
                x = x.pow_int(K.p)
        acc = oracle_add(lops, acc, WittVector(K.p, N, tuple(coords)))
    return acc
