import random
from fractions import Fraction

import pytest

from padic_mahler.errors import DomainError, ZeroPolynomialError
from padic_mahler.ntheory import INFINITY, is_prime, vp
from padic_mahler.parsing import parse_laurent
from padic_mahler.polynomials import LaurentPolynomial, normalize
from padic_mahler.valuations import (
    NewtonPolygon,
    gauss_norm_valuation,
    gauss_valuation_from_polygon,
)


class TestPrimes:
    def test_small(self):
        assert [n for n in range(60) if is_prime(n)] == \
            [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    def test_carmichael_and_squares(self):
        assert not is_prime(561)
        assert not is_prime(1105)
        assert not is_prime(10**12 + 1)
        assert is_prime(10**12 + 39)


class TestVp:
    def test_integers(self):
        assert vp(12, 2) == 2
        assert vp(1, 7) == 0
        assert vp(-8, 2) == 3

    def test_fractions(self):
        assert vp(Fraction(9, 2), 3) == 2
        assert vp(Fraction(9, 2), 2) == -1

    def test_zero(self):
        assert vp(0, 5) == INFINITY

    def test_not_prime(self):
        with pytest.raises(DomainError):
            vp(10, 6)


class TestGaussNorm:
    def test_solomon(self):
        assert gauss_norm_valuation(parse_laurent("2*t - 2"), 2) == 1

    def test_primitive(self):
        assert gauss_norm_valuation(parse_laurent("t^2 - 3*t + 1"), 5) == 0

    def test_content_four(self):
        assert gauss_norm_valuation(parse_laurent("4*t^4 - 8*t^2 + 4"), 2) == 2

    def test_rational_coefficients(self):
        assert gauss_norm_valuation(parse_laurent("1/2*t + 4"), 2) == -1

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomialError):
            gauss_norm_valuation(LaurentPolynomial.zero(), 2)


def brute_force_lower_hull(points):
    """Quadratic reference hull: a point is a vertex iff no segment between
    two other points passes strictly below it, scanning all pairs."""
    points = sorted(points)
    hull = [points[0]]
    current = points[0]
    while current != points[-1]:
        best = None
        best_slope = None
        for q in points:
            if q[0] <= current[0]:
                continue
            slope = Fraction(q[1] - current[1], q[0] - current[0])
            if best is None or slope < best_slope or \
                    (slope == best_slope and q[0] > best[0]):
                best, best_slope = q, slope
        hull.append(best)
        current = best
    return hull


class TestNewtonPolygon:
    def test_split_slopes(self):
        poly = NewtonPolygon.of(parse_laurent("2*t^2 - 5*t + 2"), 2)
        assert [(s, l) for s, l in poly.segments] == [(-1, 1), (1, 1)]

    def test_flat(self):
        f = parse_laurent("t^2 - 3*t + 1")
        poly = NewtonPolygon.of(f, 2)
        assert [(s, l) for s, l in poly.segments] == [(0, 2)]
        assert NewtonPolygon.of(f, 3).segments == ((0, 2),)

    def test_twist_knot(self):
        poly = NewtonPolygon.of(parse_laurent("2*t^2 - 3*t + 2"), 2)
        assert [(s, l) for s, l in poly.segments] == [(-1, 1), (1, 1)]
        assert poly.vertices == ((0, 1), (1, 0), (2, 1))

    def test_single_root_of_unity(self):
        f = parse_laurent("2*t - 2")
        assert NewtonPolygon.of(f, 2).segments == ((0, 1),)

    def test_matches_brute_force_hull(self):
        rng = random.Random(29)
        for _ in range(150):
            f = LaurentPolynomial(
                {e: rng.randint(-400, 400) for e in range(rng.randint(1, 9))})
            if f.is_zero or normalize(f).degree == 0:
                continue
            p = rng.choice([2, 3, 5, 7])
            poly = NewtonPolygon.of(f, p)
            pts = sorted((e, vp(c, p)) for e, c in normalize(f).terms.items())
            assert list(poly.vertices) == brute_force_lower_hull(pts)

    def test_jensen_reconstruction(self):
        rng = random.Random(31)
        for _ in range(200):
            f = LaurentPolynomial(
                {e: rng.randint(-1000, 1000) for e in range(rng.randint(1, 9))})
            if f.is_zero:
                continue
            for p in (2, 3, 5, 97):
                assert gauss_valuation_from_polygon(f, p) == \
                    gauss_norm_valuation(f, p)

    def test_segment_lengths_cover_degree(self):
        f = parse_laurent("12*t^5 - 9*t^3 + 2*t^2 - 6")
        for p in (2, 3, 5):
            poly = NewtonPolygon.of(f, p)
            assert sum(l for _, l in poly.segments) == normalize(f).degree
