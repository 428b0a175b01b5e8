"""Gauss norms and Newton polygons.

The Gauss norm of f = sum a_i t^i at p is max |a_i|_p, carried here in
valuation form as min_i v_p(a_i); it equals the p-adic Mahler measure of f.
The Newton polygon is the lower convex hull of the points
(i, v_p(a_i)); a segment of slope m and horizontal length l certifies
exactly l roots of p-adic valuation -m (that convention is fixed once here
and cross-checked against the Gauss norm, so it cannot silently drift).
It comes, as the upper hull of the points (i, -v_p(a_i)), from the one
hull routine _upper_hull, which also places the Aberth starts in roots.
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


def _upper_hull(points):
    """Upper convex hull vertices of points sorted by x; none on a chord."""
    hull = []
    for q in points:
        # drop the last vertex while it lies on or below the chord to q
        while len(hull) >= 2 and \
                (hull[-1][0] - hull[-2][0]) * (q[1] - hull[-2][1]) >= \
                (hull[-1][1] - hull[-2][1]) * (q[0] - hull[-2][0]):
            hull.pop()
        hull.append(q)
    return hull


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
        hull = [(e, -v) for e, v in _upper_hull(
            sorted((e, -vp(c, p)) for e, c in f.terms.items()))]
        return cls(p, tuple(hull),
                   tuple((Fraction(y2 - y1, x2 - x1), x2 - x1)
                         for (x1, y1), (x2, y2) in zip(hull, hull[1:])))

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
