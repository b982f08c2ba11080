"""Text form for polynomials over F_q.

Grammar (whitespace ignored):

    poly   := ['-'] term ( ('+'|'-') term )*
    term   := factor ( '*' factor )*
    factor := INT | 'g' ['^' INT] | 'T' ['^' INT] | 'X' ['^' INT]

Integer coefficients are reduced mod p; 'g' is the residue class of the
modulus variable and is only meaningful over F_{p^m} with m > 1.  The X
variable is accepted only where a defining polynomial is expected.
Printing is canonical: terms in decreasing (X, T, g) exponent order,
coefficients as residues 0..p-1, joined with ' + '.
"""

from __future__ import annotations

from . import poly
from .errors import PolyError

# Largest T- or X-degree a term may have: far above any table bound, and
# low enough that no term allocates more than a few kilobytes.
MAX_TEXT_DEGREE = 1000


def _tokens(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            try:
                toks.append(("int", int(text[i:j])))
            except ValueError:  # past the interpreter's digit limit
                raise PolyError(f"integer of {j - i} digits is too long") from None
            i = j
            continue
        if ch in "+-*^":
            toks.append((ch, ch))
            i += 1
            continue
        if ch in "gTX":
            toks.append(("var", ch))
            i += 1
            continue
        raise PolyError(f"unexpected character {ch!r} in polynomial text")
    return toks


def _parse_term(field, toks, i, allow_x):
    n = len(toks)
    coeff = field.one
    xd = td = 0
    while True:
        if i >= n:
            raise PolyError("expected a factor")
        kind, val = toks[i]
        if kind == "int":
            coeff = field.mul(coeff, field.from_int(val))
            i += 1
        elif kind == "var":
            exp = 1
            i += 1
            if i < n and toks[i][0] == "^":
                i += 1
                if i >= n or toks[i][0] != "int":
                    raise PolyError("expected an integer exponent after '^'")
                exp = toks[i][1]
                i += 1
            if val == "T":
                td += exp
            elif val == "X":
                if not allow_x:
                    raise PolyError("unexpected X in a polynomial in T")
                xd += exp
            else:
                if field.m == 1:
                    raise PolyError("generator g needs an extension coefficient field")
                coeff = field.mul(coeff, field.pow_(field.generator, exp))
        else:
            raise PolyError(f"unexpected {val!r} in polynomial term")
        if max(xd, td) > MAX_TEXT_DEGREE:
            raise PolyError(
                f"term degree {max(xd, td)} exceeds the bound {MAX_TEXT_DEGREE}")
        if i < n and toks[i][0] == "*":
            i += 1
            continue
        return coeff, xd, td, i


def _parse_sum(field, text, allow_x):
    toks = _tokens(text)
    if not toks:
        raise PolyError("empty polynomial text")
    acc = {}
    i = 0
    n = len(toks)
    first = True
    while i < n:
        sign = 1
        saw_sign = False
        while i < n and toks[i][0] in "+-":
            if toks[i][0] == "-":
                sign = -sign
            saw_sign = True
            i += 1
        if not first and not saw_sign:
            raise PolyError("terms must be joined by '+' or '-'")
        if i >= n:
            raise PolyError("dangling sign in polynomial text")
        first = False
        coeff, xd, td, i = _parse_term(field, toks, i, allow_x)
        if sign == -1:
            coeff = field.neg(coeff)
        key = (xd, td)
        acc[key] = field.add(acc.get(key, field.zero), coeff)
    return acc


def parse_tpoly(field, text):
    """Polynomial in T as a coefficient tuple, constant term first."""
    acc = _parse_sum(field, text, allow_x=False)
    if not acc:
        return ()
    maxd = max(td for (_, td) in acc)
    out = [field.zero] * (maxd + 1)
    for (_, td), c in acc.items():
        out[td] = c
    return poly.ptrim(field, out)


def parse_monic(field, text):
    coeffs = parse_tpoly(field, text)
    return poly.MonicPoly(field, coeffs)


def parse_xt_poly(field, text):
    """Defining polynomial in X with coefficients in F_q[T].

    Returns a tuple of T-coefficient tuples, indexed by the X degree.
    """
    acc = _parse_sum(field, text, allow_x=True)
    if not acc:
        return ()
    maxx = max(xd for (xd, _) in acc)
    cols = []
    for xd in range(maxx + 1):
        tds = {td: c for (x, td), c in acc.items() if x == xd}
        if tds:
            out = [field.zero] * (max(tds) + 1)
            for td, c in tds.items():
                out[td] = c
            cols.append(poly.ptrim(field, out))
        else:
            cols.append(())
    while cols and not cols[-1]:
        cols.pop()
    return tuple(cols)


# --- printing ---


def _element_monomials(field, a):
    """(digit, g-exponent) pieces of a field element, highest power first."""
    if field.m == 1:
        yield (a, 0)
        return
    coords = field.coords(a)
    for e in range(field.m - 1, -1, -1):
        if coords[e]:
            yield (coords[e], e)


def _piece(digit, gexp, var_parts):
    factors = []
    if digit != 1 or (gexp == 0 and not var_parts):
        factors.append(str(digit))
    if gexp == 1:
        factors.append("g")
    elif gexp:
        factors.append(f"g^{gexp}")
    factors.extend(var_parts)
    return "*".join(factors) if factors else "1"


def _var_part(var, exp):
    if exp == 0:
        return None
    if exp == 1:
        return var
    return f"{var}^{exp}"


def format_terms(field, pairs):
    """Render [(element, exponent)] as grammar text; exponents may be negative."""
    parts = []
    for elem, exp in pairs:
        if elem == field.zero:
            continue
        vp = [p for p in [_var_part("T", exp)] if p]
        for digit, gexp in _element_monomials(field, elem):
            parts.append(_piece(digit, gexp, vp))
    return " + ".join(parts) if parts else "0"


def format_tpoly(field, coeffs):
    pairs = [(coeffs[i], i) for i in range(len(coeffs) - 1, -1, -1)]
    return format_terms(field, pairs)


def format_xt_poly(field, xcoeffs):
    parts = []
    for xd in range(len(xcoeffs) - 1, -1, -1):
        tc = xcoeffs[xd]
        for td in range(len(tc) - 1, -1, -1):
            elem = tc[td]
            if elem == field.zero:
                continue
            vp = [p for p in [_var_part("T", td), _var_part("X", xd)] if p]
            for digit, gexp in _element_monomials(field, elem):
                parts.append(_piece(digit, gexp, vp))
    return " + ".join(parts) if parts else "0"
