r"""Text form for polynomials over F_q.

Grammar (whitespace ignored):

    poly   := ['-'] term ( ('+'|'-') term )*
    term   := factor ( '*' factor )*
    factor := INT | 'g' ['^' INT] | 'T' ['^' INT] | 'X' ['^' INT]

Text is split into tokens by one pattern, (\d+)|([-+*^])|([gTX])|(\S).
INT is a run of the decimal digits int() reads, other scripts' digits
among them; every other non-space character, a superscript digit too,
is refused as unexpected.
Integer coefficients are reduced mod p; 'g' is the residue class of the
modulus variable and is only meaningful over F_{p^m} with m > 1.  The X
variable is accepted only where a defining polynomial is expected.
Printing is canonical: terms in decreasing (X, T, g) exponent order,
coefficients as residues 0..p-1, joined with ' + '.
"""

import re

from . import poly
from .errors import PolyError

# Largest T- or X-degree a term may have: far above any table bound, and
# low enough that no term allocates more than a few kilobytes.
MAX_TEXT_DEGREE = 1000


def _tokens(text):
    toks = []
    for match in re.finditer(r"(\d+)|([-+*^])|([gTX])|(\S)", text):
        digits, op, var, bad = match.groups()
        if digits:
            try:
                toks.append(("int", int(digits)))
            except ValueError:  # past the interpreter's digit limit
                raise PolyError(f"integer of {len(digits)} digits is too long") from None
        elif op:
            toks.append((op, op))
        elif var:
            toks.append(("var", var))
        else:
            raise PolyError(f"unexpected character {bad!r} in polynomial text")
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


def _columns(field, acc):
    """{(X-degree, T-degree): c} as a tuple of trimmed T-coefficient
    tuples indexed by X-degree, with no zero column at the top."""
    cols = [[] for _ in range(1 + max(xd for xd, _ in acc))]
    for (xd, td), c in acc.items():
        cols[xd].extend([field.zero] * (td + 1 - len(cols[xd])))
        cols[xd][td] = c
    cols = [poly.ptrim(field, col) for col in cols]
    while cols and not cols[-1]:
        cols.pop()
    return tuple(cols)


def parse_tpoly(field, text):
    """Polynomial in T as a coefficient tuple, constant term first."""
    cols = _columns(field, _parse_sum(field, text, allow_x=False))
    return cols[0] if cols else ()


def parse_monic(field, text):
    """Monic polynomial in T as a coefficient tuple, constant term first."""
    coeffs = parse_tpoly(field, text)
    if not coeffs or coeffs[-1] != field.one:
        raise PolyError("polynomial is not monic")
    return coeffs


def parse_xt_poly(field, text):
    """Defining polynomial in X with coefficients in F_q[T].

    Returns a tuple of T-coefficient tuples, indexed by the X degree.
    """
    return _columns(field, _parse_sum(field, text, allow_x=True))


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


def format_terms(field, pairs):
    """Render [(element, T-exponent[, X-exponent])] as grammar text, each
    term as its T power then its X power; exponents may be negative."""
    parts = []
    for elem, *exps in pairs:
        if elem == field.zero:
            continue
        vp = [var if e == 1 else f"{var}^{e}" for var, e in zip("TX", exps) if e]
        for digit, gexp in _element_monomials(field, elem):
            parts.append(_piece(digit, gexp, vp))
    return " + ".join(parts) if parts else "0"


def format_tpoly(field, coeffs):
    pairs = [(coeffs[i], i) for i in range(len(coeffs) - 1, -1, -1)]
    return format_terms(field, pairs)


def format_xt_poly(field, xcoeffs):
    return format_terms(field, [(tc[td], td, xd)
                                for xd, tc in reversed(list(enumerate(xcoeffs)))
                                for td in range(len(tc) - 1, -1, -1)])
