"""Truncated Laurent series at the place 1/T.

A LaurentSeries over F_q represents an element of F_q((1/T)) known modulo
T^-(M+1); M is the precision.  Storage is (valuation, coeffs) with

    x  =  sum  coeffs[i] * T^-(valuation + i),   i = 0 .. len(coeffs)-1,

so positive powers of T appear as negative valuations.  Instances are
normalized: the leading stored coefficient is nonzero, nothing is stored
past the precision, and the zero-to-precision series stores no
coefficients at all.  Arithmetic tracks precision conservatively: a sum
is known to the smaller of the two precisions, a product additionally
loses whatever a negative valuation amplifies.
"""

from __future__ import annotations

from . import poly
from .errors import LaurentError


class LaurentSeries:
    __slots__ = ("field", "valuation", "coeffs", "precision")

    def __init__(self, field, valuation, coeffs, precision):
        coeffs = list(coeffs)
        # drop anything claimed beyond the precision
        keep = precision - valuation + 1
        if keep < len(coeffs):
            coeffs = coeffs[:max(keep, 0)]
        while coeffs and coeffs[0] == field.zero:
            coeffs.pop(0)
            valuation += 1
        while coeffs and coeffs[-1] == field.zero:
            coeffs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "precision", precision)
        if coeffs:
            object.__setattr__(self, "valuation", valuation)
            object.__setattr__(self, "coeffs", tuple(coeffs))
        else:
            object.__setattr__(self, "valuation", precision + 1)
            object.__setattr__(self, "coeffs", ())

    def __setattr__(self, *a):
        raise AttributeError("LaurentSeries is immutable")

    # --- constructors ---

    @classmethod
    def zero(cls, field, precision):
        return cls(field, precision + 1, (), precision)

    @classmethod
    def one(cls, field, precision):
        return cls(field, 0, (field.one,), precision)

    @classmethod
    def constant(cls, field, element, precision):
        return cls(field, 0, (element,), precision)

    @classmethod
    def from_tpoly(cls, field, coeffs, precision):
        """Embed a polynomial in T (tuple, constant term first)."""
        coeffs = poly.ptrim(field, coeffs)
        d = len(coeffs) - 1
        return cls(field, -d, tuple(reversed(coeffs)), precision)

    # --- predicates ---

    @property
    def is_zero(self):
        return not self.coeffs

    def coefficient(self, j):
        """Coefficient of T^-j, for j up to the precision."""
        if j > self.precision:
            raise LaurentError(f"coefficient T^-{j} is beyond precision {self.precision}")
        i = j - self.valuation
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    # --- arithmetic ---

    def __add__(self, other):
        self._check(other)
        K = self.field
        prec = min(self.precision, other.precision)
        if self.is_zero:
            return LaurentSeries(K, other.valuation, other.coeffs, prec)
        if other.is_zero:
            return LaurentSeries(K, self.valuation, self.coeffs, prec)
        v = min(self.valuation, other.valuation)
        out = [K.zero] * (prec - v + 1)
        for i, c in enumerate(self.coeffs):
            j = self.valuation + i - v
            if j < len(out):
                out[j] = K.add(out[j], c)
        for i, c in enumerate(other.coeffs):
            j = other.valuation + i - v
            if j < len(out):
                out[j] = K.add(out[j], c)
        return LaurentSeries(K, v, out, prec)

    def __neg__(self):
        K = self.field
        return LaurentSeries(K, self.valuation, [K.neg(c) for c in self.coeffs],
                             self.precision)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        K = self.field
        va, vb = self.valuation, other.valuation
        prec = min(self.precision, other.precision,
                   va + other.precision, vb + self.precision)
        if self.is_zero or other.is_zero:
            return LaurentSeries.zero(K, prec)
        width = prec - (va + vb) + 1
        if width <= 0:
            return LaurentSeries.zero(K, prec)
        out = [K.zero] * width
        add, mul, z = K.add, K.mul, K.zero
        for i, a in enumerate(self.coeffs):
            if i >= width:
                break
            if a == z:
                continue
            for j, b in enumerate(other.coeffs[:width - i]):
                if b != z:
                    out[i + j] = add(out[i + j], mul(a, b))
        return LaurentSeries(K, va + vb, out, prec)

    def scale(self, element):
        K = self.field
        if element == K.zero:
            return LaurentSeries.zero(K, self.precision)
        return LaurentSeries(K, self.valuation,
                             [K.mul(element, c) for c in self.coeffs], self.precision)

    def pow_int(self, e):
        if e < 0:
            raise LaurentError("negative powers need an explicit expansion")
        if e == 0:
            return LaurentSeries.one(self.field, self.precision)
        # from the base, not from a 1 that costs a product and precision
        return poly.power(LaurentSeries.__mul__, self, self, e - 1)

    def _check(self, other):
        if not isinstance(other, LaurentSeries) or other.field != self.field:
            raise LaurentError("mixed coefficient fields in Laurent arithmetic")

    # --- comparison and text ---

    def __eq__(self, other):
        return (isinstance(other, LaurentSeries)
                and self.field == other.field
                and self.precision == other.precision
                and self.valuation == other.valuation
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.valuation, self.coeffs, self.precision))

    def __str__(self):
        from .textforms import format_terms
        if self.is_zero:
            return f"0 [prec {self.precision}]"
        pairs = [(c, -(self.valuation + i)) for i, c in enumerate(self.coeffs)
                 if c != self.field.zero]
        return f"{format_terms(self.field, pairs)} [prec {self.precision}]"

    def __repr__(self):
        return f"LaurentSeries({self})"


def laurent_inv_pow(n, j, M):
    """Expansion of n^-j at 1/T to precision M, for monic n and j >= 1.

    The result has valuation exactly deg(n) * j and leading coefficient 1.
    """
    if j < 1:
        raise LaurentError(f"exponent {j} must be at least 1")
    K = n.field
    D = n.degree * j
    if M < D:
        raise LaurentError(
            f"precision {M} cannot hold the leading term T^-{D} of the expansion")
    denom = poly.ppow(K, n.coeffs, j)
    add, mul, neg, z = K.add, K.mul, K.neg, K.zero
    c = [z] * (M - D + 1)
    c[0] = K.one
    for t in range(1, M - D + 1):
        s = z
        for i in range(max(0, D - t), D):
            e = denom[i]
            if e != z:
                s = add(s, mul(e, c[i + t - D]))
        c[t] = neg(s)
    return LaurentSeries(K, D, c, M)
