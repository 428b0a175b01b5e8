"""Gauss norms and Newton polygons.

The Gauss norm of f = sum a_i t^i at p is max |a_i|_p, carried here in
valuation form as min_i v_p(a_i); it equals the p-adic Mahler measure of f.
The Newton polygon is the lower convex hull of the points
(i, v_p(a_i)); a segment of slope m and horizontal length l certifies
exactly l roots of p-adic valuation -m (that convention is fixed once here
and cross-checked against the Gauss norm, so it cannot silently drift).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ZeroPolynomialError
from .ntheory import check_prime, vp
from .polynomials import LaurentPolynomial, normalize


def gauss_norm_valuation(f: LaurentPolynomial, p: int) -> int:
    """min over coefficients of v_p; the p-adic Mahler measure is
    p**(-result)."""
    check_prime(p)
    if f.is_zero:
        raise ZeroPolynomialError("Gauss norm of the zero polynomial")
    return min(vp(c, p) for c in f.terms.values())


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of (exponent, coefficient valuation) pairs."""

    p: int
    vertices: tuple          # ((exponent, valuation), ...) left to right
    segments: tuple          # ((slope: Fraction, length: int), ...)

    @classmethod
    def of(cls, f: LaurentPolynomial, p: int) -> "NewtonPolygon":
        check_prime(p)
        f = normalize(f)
        points = sorted((e, vp(c, p)) for e, c in f.terms.items())
        hull = []
        for pt in points:
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                x3, y3 = pt
                # drop the middle point unless the turn is strictly convex
                if (y2 - y1) * (x3 - x2) >= (y3 - y2) * (x2 - x1):
                    hull.pop()
                else:
                    break
            hull.append(pt)
        segments = []
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            segments.append((Fraction(y2 - y1, x2 - x1), x2 - x1))
        return cls(p, tuple(hull), tuple(segments))

    def has_zero_slope(self) -> bool:
        return any(slope == 0 for slope, _ in self.segments)


def gauss_valuation_from_polygon(f: LaurentPolynomial, p: int) -> Fraction:
    """Jensen reconstruction: v_p(leading coefficient) minus the total rise
    of the positive-slope segments.  Always equals gauss_norm_valuation,
    which downstream code asserts as a convention guard."""
    poly = NewtonPolygon.of(f, p)
    lead_val = poly.vertices[-1][1]
    rise = sum(slope * length for slope, length in poly.segments if slope > 0)
    return Fraction(lead_val) - rise
