"""Truncated Laurent series at the place 1/T.

A LaurentSeries over F_q represents an element of F_q((1/T)) known modulo
T^-(M+1); M is the precision.  Storage is (valuation, coeffs) with

    x  =  sum  coeffs[i] * T^-(valuation + i),   i = 0 .. len(coeffs)-1,

so positive powers of T appear as negative valuations.  Instances are
normalized: the leading stored coefficient is nonzero, nothing is stored
past the precision, and the zero-to-precision series stores no
coefficients at all.  A series is a value here: the package builds,
compares and prints series; the zeta values are summed elsewhere (see
witt.py), and series arithmetic lives with the test oracles.
"""

from __future__ import annotations

from . import poly


class LaurentSeries:
    __slots__ = ("field", "valuation", "coeffs", "precision")

    def __init__(self, field, valuation, coeffs, precision):
        coeffs = list(coeffs)
        # drop anything claimed beyond the precision
        keep = precision - valuation + 1
        if keep < len(coeffs):
            coeffs = coeffs[:max(keep, 0)]
        # one scan and one slice: popping zeros off the front one at a
        # time would be quadratic in the length
        lead = next((i for i, c in enumerate(coeffs) if c != field.zero), len(coeffs))
        if lead:
            coeffs = coeffs[lead:]
            valuation += lead
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
    def from_tpoly(cls, field, coeffs, precision):
        """Embed a polynomial in T (tuple, constant term first)."""
        coeffs = poly.ptrim(field, coeffs)
        d = len(coeffs) - 1
        return cls(field, -d, tuple(reversed(coeffs)), precision)

    # --- predicates ---

    @property
    def is_zero(self):
        return not self.coeffs

    # --- comparison and text ---

    def __eq__(self, other):
        return (isinstance(other, LaurentSeries)
                and self.field == other.field
                and self.precision == other.precision
                and self.valuation == other.valuation
                and self.coeffs == other.coeffs)

    def __str__(self):
        from .textforms import format_terms
        if self.is_zero:
            return f"0 [prec {self.precision}]"
        pairs = [(c, -(self.valuation + i)) for i, c in enumerate(self.coeffs)
                 if c != self.field.zero]
        return f"{format_terms(self.field, pairs)} [prec {self.precision}]"

    def __repr__(self):
        return f"LaurentSeries({self})"
