import dataclasses
import importlib.util
import json
import math
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_mahler import mahler, roots
from padic_mahler.cli import main
from padic_mahler.entropy import entropy_total
from padic_mahler.errors import (
    ConvergenceError,
    DomainError,
    ZeroPolynomialError,
)
from padic_mahler.mahler import (
    mahler_euclidean,
    mahler_padic,
    resultant_limit_estimate,
)
from padic_mahler.ntheory import INFINITY, vp_int
from padic_mahler.parsing import parse_laurent
from padic_mahler.polynomials import (
    LaurentPolynomial,
    normalize,
    squarefree_split,
)
from padic_mahler.resultants import cyclic_resultant
from padic_mahler.roots import aberth_roots, dyadic

P = parse_laurent


def numpy_log_mahler(f):
    """Independent oracle: Jensen's formula on numpy roots."""
    f = normalize(f)
    coeffs = [float(c) for c in reversed(f.coefficients_ascending())]
    total = math.log(abs(coeffs[0]))
    if len(coeffs) > 1:
        for z in np.roots(coeffs):
            total += math.log(max(abs(z), 1.0))
    return total


TRUTH_DPS = 40


def mpmath_log_mahler(f):
    """Independent 40-digit oracle: sympy's factorization over Z, then
    Jensen's formula on mpmath.polyroots of each factor."""
    t = sympy.Symbol("t")
    f = normalize(f)
    poly = sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * t**e
                          for e, c in f.terms.items()), t)
    content, factors = poly.factor_list()
    with mpmath.workdps(TRUTH_DPS):
        total = mpmath.log(abs(mpmath.mpf(content.p) / content.q))
        for factor, mult in factors:
            coeffs = [int(c) for c in factor.all_coeffs()]
            part = mpmath.log(abs(mpmath.mpf(coeffs[0])))
            if len(coeffs) > 1:
                for z in mpmath.polyroots(coeffs, maxsteps=400,
                                          extraprec=200):
                    part += mpmath.log(max(mpmath.mpf(1), abs(z)))
            total += mult * part
        return total


def honest(value, error, truth):
    """|value - truth| <= error, decided at the oracle's precision; 10^-30
    covers the oracle's own rounding of logs of size up to ~10^3."""
    with mpmath.workdps(TRUTH_DPS):
        return abs(mpmath.mpf(value) - truth) <= \
            mpmath.mpf(error) + mpmath.mpf(10) ** -30


def near_double(a, k):
    """(t - a)(t - a - 10^-k): two roots 10^-k apart."""
    return P(f"(t-({a}))*(t-({a})-1/10^{k})")


class TestEuclidean:
    def test_figure_eight(self):
        m = mahler_euclidean(P("t^2 - 3*t + 1"))
        assert abs(m.value - math.log((3 + math.sqrt(5)) / 2)) <= 1e-10
        assert m.error <= 1e-12

    def test_cyclotomic_factor_measure_zero(self):
        m = mahler_euclidean(P("t^2 - t + 1"))
        assert abs(m.value) <= 1e-12

    def test_two_plus_sqrt_three(self):
        m = mahler_euclidean(P("t^2 - 4*t + 1"))
        assert abs(m.value - math.log(2 + math.sqrt(3))) <= 1e-10

    def test_repeated_roots(self):
        m = mahler_euclidean(P("4*t^4 - 8*t^2 + 4"))
        assert abs(m.value - math.log(4)) <= 1e-10

    def test_constant(self):
        m = mahler_euclidean(LaurentPolynomial.constant(-5))
        assert abs(m.value - math.log(5)) <= 1e-14

    @pytest.mark.parametrize("text", [
        "2*t - 1", "5*t^3 - 1", "t^2 - 3*t + 1", "t^2 - t + 1", "t - 1",
        "4*t^4 - 8*t^2 + 4", "t", "3", "-5", "1/2", "10^30"])
    def test_error_bound_is_positive(self, text):
        # every value is a rounded float log, so no bound may read 0
        assert mahler_euclidean(P(text)).error > 0

    def test_tolerance_below_rounding_is_refused(self):
        # log 3 is a rounded float: no bound of 1e-300 can be certified
        with pytest.raises(ConvergenceError):
            mahler_euclidean(P("3"), tol=1e-300)

    def test_matches_numpy_oracle(self):
        rng = random.Random(43)
        for _ in range(50):
            f = LaurentPolynomial(
                {e: rng.randint(-9, 9) for e in range(rng.randint(1, 7))})
            if f.is_zero or normalize(f).degree == 0:
                continue
            got = mahler_euclidean(f, tol=1e-10)
            assert abs(got.value - numpy_log_mahler(f)) <= 1e-7

    def test_jensen_root_product_consistency(self):
        # |prod roots| = |trailing/leading| for the normalized polynomial
        rng = random.Random(47)
        for _ in range(20):
            f = LaurentPolynomial(
                {e: rng.randint(-9, 9) for e in range(rng.randint(2, 6))})
            if f.is_zero:
                continue
            g = normalize(f)
            if g.degree == 0 or g.coefficient(0) == 0:
                continue
            coeffs = [float(c) for c in reversed(g.coefficients_ascending())]
            prod = 1.0
            for z in np.roots(coeffs):
                prod *= abs(z)
            assert abs(prod - abs(float(g.coefficient(0)
                                        / g.leading_coefficient))) <= 1e-6 * prod

    def test_multiplicativity(self):
        f = P("t^2 - 3*t + 1")
        g = P("2*t^2 - 5*t + 2")
        tol = 1e-11
        mf = mahler_euclidean(f, tol)
        mg = mahler_euclidean(g, tol)
        mfg = mahler_euclidean(f * g, tol)
        assert abs(mfg.value - mf.value - mg.value) <= 2 * tol

    def test_repeated_factor_is_weighted(self):
        # m(g^k h) = k m(g) + m(h)
        g, h, k, tol = P("2*t^2 - 5*t + 2"), P("t^3 - t - 1"), 5, 1e-11
        mg, mh = mahler_euclidean(g, tol), mahler_euclidean(h, tol)
        assert abs(mahler_euclidean(g**k * h, tol).value
                   - k * mg.value - mh.value) <= (k + 2) * tol

    def test_one_root_pass_per_distinct_factor(self, monkeypatch):
        calls = []

        def counting(coeffs):
            calls.append(len(coeffs) - 1)
            return aberth_roots(coeffs)

        monkeypatch.setattr(mahler, "aberth_roots", counting)
        f = P("t^2 - 3*t + 1") * P("t - 1")**100
        start = time.perf_counter()
        m = mahler_euclidean(f)
        elapsed = time.perf_counter() - start
        assert sorted(calls) == [1, 2]
        assert abs(m.value - math.log((3 + math.sqrt(5)) / 2)) <= 1e-12
        assert elapsed < 1.0

    def test_random_degree_80(self):
        # a squarefree input costs one heuristic gcd over Z
        rng = random.Random(80)
        f = LaurentPolynomial({e: rng.randint(-9, 9) for e in range(80)}
                              | {80: rng.randint(1, 9)})
        start = time.perf_counter()
        m = mahler_euclidean(f, tol=1e-12)
        assert time.perf_counter() - start < 10.0
        assert m.error <= 1e-12
        assert abs(m.value - numpy_log_mahler(f)) <= 1e-7

    def test_high_multiplicity(self):
        # (t-1)^1100 once exhausted the recursion limit; built from binomial
        # coefficients because parsing the power takes seconds
        f = LaurentPolynomial(
            {k: math.comb(1100, k) * (-1) ** (1100 - k) for k in range(1101)})
        start = time.perf_counter()
        m = mahler_euclidean(f)
        assert time.perf_counter() - start < 1.0
        assert abs(m.value) <= m.error
        # the polished root on the unit circle carries its disk, not an ulp
        assert m.error > 1e-300

    @pytest.mark.parametrize("text, tol", [
        ("t - 100000000000000000001/100000000000000000000", 1e-16),
        ("(t-1)*(t-100000000000000000001/100000000000000000000)", 1e-13)])
    def test_polished_enclosure_is_honest(self, text, tol):
        # one root at 1 + 10^-20, just off the unit circle: float64 reads
        # it as 1, so only the polished value can keep its log
        truth = math.log1p(1e-20)
        try:
            m = mahler_euclidean(P(text), tol)
        except ConvergenceError:
            return
        assert abs(m.value - truth) <= m.error <= tol

    @pytest.mark.parametrize("a", ["1", "2", "3/2", "5/4", "-1", "-3/2",
                                   "7/3", "1/2"])
    @pytest.mark.parametrize("k", [12, 15, 18, 20, 25])
    @pytest.mark.parametrize("tol", [1e-9, 1e-13, 1e-15])
    def test_near_double_roots_are_honest(self, a, k, tol):
        # polished radii once carried a constant 10^-(digits+2) in place
        # of a residual that cancels to noise between the two roots
        f = near_double(a, k)
        try:
            m = mahler_euclidean(f, tol)
        except ConvergenceError:
            return
        assert honest(m.value, m.error, mpmath_log_mahler(f))

    @pytest.mark.parametrize("k", [12, 15, 18, 20, 25])
    @pytest.mark.parametrize("tol", [1e-9, 1e-13, 1e-15])
    def test_near_double_roots_at_one_half_answer(self, k, tol):
        # a root whose disk lies in the unit disk keeps its float radius
        # only while that disk meets no other: keeping one root of the pair
        # at its float disk while its twin is polished refuses these
        f = near_double("1/2", k)
        m = mahler_euclidean(f, tol)
        assert honest(m.value, m.error, mpmath_log_mahler(f))

    @pytest.mark.parametrize("text", [
        "(2*t-3)*(2000000000000*t-3000000000002)",
        "(t-1)*(1000000000000*t-1000000000001)"])
    def test_cli_near_double_roots_are_honest(self, text, capsys):
        code = main(["--format", "json", "mahler", "--poly", text,
                     "--tol", "1e-9"])
        out = capsys.readouterr().out
        assert code in (0, 6)
        if code == 0:
            d = json.loads(out)
            assert honest(d["log_value"], d["abs_error"],
                          mpmath_log_mahler(P(text)))

    @pytest.mark.parametrize("m", [7, 10, 20])
    def test_wilkinson_products_answer(self, m, capsys):
        # ill-conditioned roots jitter in float64 above any fixed step
        # size; Aberth must stop at the noise floor instead of refusing
        text = "*".join(f"(t-{k})" for k in range(1, m + 1))
        assert main(["--format", "json", "mahler", "--poly", text]) == 0
        d = json.loads(capsys.readouterr().out)
        with mpmath.workdps(TRUTH_DPS):
            truth = mpmath.log(mpmath.factorial(m))
        assert honest(d["log_value"], d["abs_error"], truth)

    @pytest.mark.parametrize("text", [
        "t^3-10^40*t^2+1", "t^4+10^60*t^2+1", "t^5-10^100*t^3+1",
        "t^5+10^100*t^2+1", "10^400*t^2-2*10^400*t+1",
        "(t-2)*(t-2-1/10^12)*(10^300*t-1)"])
    def test_roots_below_the_polish_grid(self, text):
        # roots near 10^-20 and below round onto the first polish grid, at
        # or beside 0, a critical point of f, and must be stepped off it;
        # 10^-400 underflows to a constant term of 0.0 in float64
        f = P(text)
        m = mahler_euclidean(f, 1e-9)
        assert honest(m.value, m.error, mpmath_log_mahler(f))

    def test_last_polish_runs_at_the_cap(self, monkeypatch):
        # at tol 1e-12 the polish starts at 72 bits; 1152 would pass
        # POLISH_BITS_CAP, so the cap itself is the last round
        rounds = []
        polish = mahler.polish_roots
        monkeypatch.setattr(
            mahler, "polish_roots",
            lambda q, c, bits, fixed: rounds.append(bits)
            or polish(q, c, bits, fixed))
        m = mahler_euclidean(P("(t-1)*(t-1-1/10^200)"), 1e-12)
        assert rounds == [72, 144, 288, 576, mahler.POLISH_BITS_CAP]
        with mpmath.workdps(250):
            truth = mpmath.log1p(mpmath.mpf(10) ** -200)
            assert abs(mpmath.mpf(m.value) - truth) <= mpmath.mpf(m.error)
        assert m.error <= 1e-12
        # a root 10^-320 off the unit circle needs more than the cap
        rounds.clear()
        with pytest.raises(ConvergenceError):
            mahler_euclidean(P("(t-1)*(t-1-1/10^320)"), 1e-12)
        assert rounds[-1] == mahler.POLISH_BITS_CAP

    def test_overlapping_disks_certify_nothing(self):
        # two disks that meet may share one root and miss another
        centres, bits = dyadic([1.5, 1.5 + 1e-9])
        assert mahler._root_contributions(
            centres, [1e-6, 1e-6], bits)[:3] == (None, math.inf, 0)
        centres, bits = dyadic([1.5, 2.5])
        total, err, count, _ = mahler._root_contributions(
            centres, [1e-6, 1e-6], bits)
        assert abs(total - math.log(3.75)) <= 1e-15 and 0 < err < 1e-5
        # the quotient, log1p and the sum, for each of the two logs
        assert count == 6

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            mahler_euclidean(LaurentPolynomial.zero())

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
    def test_nonpositive_tolerance_rejected(self, tol):
        with pytest.raises(DomainError):
            mahler_euclidean(P("t^2 - 3*t + 1"), tol)


def degree_200_pin():
    """Coefficients of the TestCli::test_random_degree_200 text."""
    rng = random.Random(200)
    return [float(rng.randint(-9, 9)) for _ in range(200)] + [1.0]


def random_measure(seed, d):
    """A random degree-d integer polynomial shaped like the measures
    workload's: coefficients in [-20, 20], nonzero at both ends."""
    rng = random.Random(seed)
    c = [rng.randint(-20, 20) for _ in range(d + 1)]
    c[0] = rng.choice([x for x in range(-20, 21) if x])
    c[d] = rng.randint(1, 20)
    return c


class TestAberth:
    def test_start_circles_follow_the_newton_polygon(self):
        # prod_{k=-3..3} (t - 10^k) over Z: the edge from i to i + 1 has
        # radius |a_i / a_(i+1)|, within 12 % of the root 10^(i-3)
        f = P("*".join(f"(t-10^{k})" for k in range(4)) + "*"
              + "*".join(f"(10^{k}*t-1)" for k in range(1, 4)))
        a = f.coefficients_ascending()
        moduli = roots._start_moduli([abs(float(c)) for c in a])
        assert len(moduli) == 7
        for i, r in enumerate(moduli):
            assert r == pytest.approx(float(abs(a[i] / a[i + 1])), rel=1e-12)
            assert 0.88 < r / 10.0 ** (i - 3) < 1.12

    def test_start_circles_skip_points_under_the_hull(self):
        # zero and small middle coefficients lie below the hull's chord
        assert roots._start_moduli([8.0, 0.0, 0.0, 1.0]) == \
            pytest.approx([2.0] * 3)
        assert roots._start_moduli([4.0, 1e-3, 1.0]) == pytest.approx([2.0] * 2)

    def test_a_zero_end_still_gets_its_guesses(self):
        # a constant term that underflowed to 0.0 keeps its hull point
        assert len(roots._start_moduli([0.0, 2.0, 1.0])) == 2
        assert len(roots._start_moduli([0.0, 0.0, 2.0, 1.0])) == 3
        z, radii = aberth_roots([0.0, -2.0, 1.0])
        assert len(z) == 2 and max(radii) < 1e-12
        assert sorted(abs(zi) for zi in z) == pytest.approx([0.0, 2.0])

    def test_small_circles_converge_to_their_roots(self):
        # t^5 + 10^100 t^2 + 1: roots near +-10^-50 i and three near 10^33.3;
        # steps of 10^-51 are tiny against 10^33 but not against 10^-50
        z, _ = aberth_roots([1.0, 0.0, 1e100, 0.0, 0.0, 1.0])
        small = sorted((zi for zi in z if abs(zi) < 1.0), key=lambda w: w.imag)
        assert small == [pytest.approx(-1e-50j, abs=1e-62),
                         pytest.approx(1e-50j, abs=1e-62)]

    def test_polish_steps_off_a_critical_point(self):
        # 4t^2 - 1 has f'(0) = 0; both centres start there, and must part
        # onto the roots +-1/2 rather than settle with infinite radii
        bits = 40
        out, radii = roots.polish_roots([-1, 0, 4], [(0, 0), (0, 0)], bits,
                                         [False, False])
        assert max(radii) < 1e-9
        assert sorted(Fraction(x, 2 ** bits) for x, _ in out) == \
            [pytest.approx(-0.5, abs=1e-9), pytest.approx(0.5, abs=1e-9)]

    @pytest.mark.parametrize("coeffs, parent", [
        (degree_200_pin(), 40981),
        ([float(c) for c in random_measure(50, 50)], 4047)])
    def test_work_is_at_most_half_of_one_start_circle(
            self, coeffs, parent, monkeypatch):
        # `parent` counts the Horner calls when every guess started on one
        # circle of radius sqrt(Cauchy bound) and no root was frozen
        calls = []
        horner = roots._horner
        monkeypatch.setattr(roots, "_horner",
                            lambda c, z: calls.append(1) or horner(c, z))
        z, radii = aberth_roots(coeffs)
        assert len(z) == len(coeffs) - 1 and all(map(math.isfinite, radii))
        assert len(calls) <= parent // 2

    def test_one_polish_round_at_degree_42(self, monkeypatch):
        # frozen float roots certify at 72 bits only if the polish runs
        # down to its noise floor; a floor of 2^(d-1) units for |z| < 2
        # stopped it at once, and a second round at 144 bits followed
        rounds = []
        polish = mahler.polish_roots
        monkeypatch.setattr(
            mahler, "polish_roots",
            lambda q, c, bits, fixed: rounds.append(bits)
            or polish(q, c, bits, fixed))
        f = LaurentPolynomial(dict(enumerate(random_measure(42, 42))))
        m = mahler_euclidean(f, 1e-12)
        assert rounds == [72]
        assert abs(m.value - numpy_log_mahler(f)) <= 1e-7

    def test_polish_of_a_far_root_does_not_overflow(self):
        # roots 2^400 + 1/3 and 1 at 700 bits: the centre's x has ~1100
        # bits, beyond float64, so |z| must not be taken by float(x)
        big = 3 * 2 ** 400 + 1
        q = [big, -big - 3, 3]
        bits = 700
        centres = [(2 ** 400 << bits, 0), ((1 << bits) + (1 << bits - 20), 0)]
        out, radii = roots.polish_roots(q, centres, bits, [False, False])
        for (x, y), r, root in zip(out, radii, (Fraction(big, 3), 1)):
            assert r < 1e-100
            assert (Fraction(x, 2 ** bits) - root) ** 2 + \
                Fraction(y, 2 ** bits) ** 2 <= Fraction(r) ** 2


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=13),
       st.integers(-2**90, 2**90), st.integers(-2**90, 2**90),
       st.integers(1, 80))
def test_residual_radius_bounds_the_exact_one(q, x, y, bits):
    # the fixed-point radius against d |f(z)| / |f'(z)| in exact Gaussian
    # rationals, at dyadic points inside, near and far outside |z| = 1
    if not q[-1]:
        q[-1] = 1
    r = roots._residual_radius(q, x, y, bits)
    assert r > 0
    if r < math.inf:
        assert _bounds_exact_radius(r, q, x, y, bits)


def _bounds_exact_radius(r, q, x, y, bits):
    """r >= d |f(z)| / |f'(z)| at z = (x + iy) / 2^bits, in exact
    Gaussian rationals."""
    z = (Fraction(x, 2**bits), Fraction(y, 2**bits))
    f, df = (Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))
    for c in reversed(q):
        df = (df[0] * z[0] - df[1] * z[1] + f[0],
              df[0] * z[1] + df[1] * z[0] + f[1])
        f = (f[0] * z[0] - f[1] * z[1] + c, f[0] * z[1] + f[1] * z[0])
    d = len(q) - 1
    return Fraction(r) ** 2 * (df[0] ** 2 + df[1] ** 2) >= \
        d * d * (f[0] ** 2 + f[1] ** 2)


def test_residual_radius_counts_its_truncation():
    # f = (32t - 3)(32t - 4)(t^2 - 1) at (8 - i)/64, beside the clustered
    # roots 3/32 and 1/8 on a coarse grid: f(z) is a few fixed-point
    # units, so the radius covers d |f(z)| / |f'(z)| only with the
    # truncation bound 1 + d 2^e in its numerator
    q, x, y, bits = [-12, 224, -1012, -224, 1024], 8, -1, 6
    r = roots._residual_radius(q, x, y, bits)
    assert r < math.inf and _bounds_exact_radius(r, q, x, y, bits)


@st.composite
def measured_polynomials(draw):
    """Random integer polynomials of degree <= 8, and products with two
    roots 10^-k apart."""
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-30, 30), min_size=2, max_size=9))
        f = LaurentPolynomial(dict(enumerate(coeffs)))
        return f if not f.is_zero else P("t - 2")
    a = draw(st.fractions(-3, 3, max_denominator=7))
    g = LaurentPolynomial(dict(enumerate(
        draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4)))))
    if g.is_zero:
        g = P("1")
    return near_double(a, draw(st.integers(8, 30))) * g


@settings(max_examples=60, deadline=None)
@given(measured_polynomials(), st.sampled_from([1e-9, 1e-12, 1e-14]))
def test_euclidean_measure_against_40_digit_oracle(f, tol):
    try:
        m = mahler_euclidean(f, tol)
    except ConvergenceError:
        return
    assert m.error <= tol
    assert honest(m.value, m.error, mpmath_log_mahler(f))


def _measured(f, tol):
    """(value, error) of mahler_euclidean, or the refusal's message."""
    try:
        m = mahler_euclidean(f, tol)
    except ConvergenceError as exc:
        return str(exc)
    return m.value, m.error


@settings(max_examples=40, deadline=None)
@given(measured_polynomials(), measured_polynomials(),
       st.sampled_from(["f", "f*h", "g"]), st.sampled_from([1e-9, 1e-12]))
def test_warm_measure_equals_cold(f, h, before, tol):
    # kept roots are the very roots a fresh pass finds, whatever an earlier
    # call on f, on a multiple of f or on another polynomial left behind
    mahler._last_roots = {}
    cold = _measured(f, tol)
    _measured({"f": f, "f*h": f * h, "g": h}[before], 1e-14)
    assert _measured(f, tol) == cold


class TestRootMemo:
    def spy(self, monkeypatch):
        calls = []

        def counting(coeffs):
            calls.append(coeffs)
            return aberth_roots(coeffs)

        monkeypatch.setattr(mahler, "aberth_roots", counting)
        return calls

    def test_entropy_after_measure_runs_no_root_pass(self, monkeypatch):
        f = P("6*(t-1)^3*(t^2-3*t+1)^2*(2*t^3-t-1)")
        cold = entropy_total(f, 1e-12)
        monkeypatch.setattr(mahler, "_last_roots", {})
        mahler_euclidean(f, 1e-12)
        calls = self.spy(monkeypatch)
        warm = entropy_total(f, 1e-12)
        assert calls == []
        for name in (fl.name for fl in dataclasses.fields(warm)):
            assert getattr(warm, name) == getattr(cold, name), name

    def test_keeps_exactly_the_last_polynomials_measured_factors(
            self, monkeypatch):
        # 4t - 1 is monic t - 1/4, inside the unit disk by Fujiwara's
        # bound, so it runs no root pass and is not kept
        calls = self.spy(monkeypatch)
        mahler_euclidean(P("(t-1)^2*(t^2-3*t+1)*(4*t-1)^3"))
        keys = {tuple(P(text).coefficients_ascending())
                for text in ("t - 1", "t^2 - 3*t + 1")}
        assert set(mahler._last_roots) == keys
        assert sorted(map(len, calls)) == [2, 3]
        # the next polynomial replaces them, reusing the one it shares
        calls.clear()
        mahler_euclidean(P("(t-1)^2*(t^3-t-1)"))
        assert set(mahler._last_roots) == {
            tuple(P(text).coefficients_ascending())
            for text in ("t - 1", "t^3 - t - 1")}
        assert [len(c) for c in calls] == [4]

    def test_root_pass_gets_each_factors_rounded_monic_coefficients(
            self, monkeypatch):
        # c / q[-1] on ints rounds once, as float(Fraction(c, q[-1])) does;
        # 5t - 2 passes Fujiwara's test and runs no root pass
        f = P("(3*t^2 - 7*t + 11)^2*(7*t^3 + 10^30*t - 3)*(2 - 5*t)^3")
        factors = [[-3, 10**30, 0, 7], [11, -7, 3], [-2, 5]]
        assert squarefree_split(f) == list(zip(factors, [1, 2, 3]))
        monkeypatch.setattr(mahler, "_last_roots", {})
        calls = self.spy(monkeypatch)
        mahler_euclidean(f)
        assert calls == [[float(Fraction(c, q[-1])) for c in q]
                         for q in factors[:2]]

    def test_a_refusal_keeps_nothing(self):
        mahler_euclidean(P("(t-1)*(t-1-1/10^200)"), 1e-12)
        kept = dict(mahler._last_roots)
        for text in ["(t-1)*(t-1-1/10^320)", "t^2 - 10^400*t + 1"]:
            with pytest.raises(ConvergenceError):
                mahler_euclidean(P(text), 1e-12)
            assert mahler._last_roots == kept

    def test_refusal_is_the_same_cold_and_warm(self, monkeypatch):
        f = P("(t-1)*(t-1-1/10^320)")
        with pytest.raises(ConvergenceError) as cold:
            mahler_euclidean(f, 1e-12)
        # warm: the memo holds f's own float roots, as a kept pass would
        (q, _), = squarefree_split(f)
        roots_, radii = aberth_roots([float(Fraction(c, q[-1])) for c in q])
        monkeypatch.setattr(mahler, "_last_roots",
                            {tuple(q): (tuple(roots_), tuple(radii))})
        calls = self.spy(monkeypatch)
        with pytest.raises(ConvergenceError) as warm:
            mahler_euclidean(f, 1e-12)
        assert calls == [] and str(warm.value) == str(cold.value)


def test_measures_reference_errors_cover_the_truth():
    # the bench gate checks each value against the requested tol only; the
    # reported error must also cover the stored 40-digit truth, which is
    # itself a rounded float
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    reference = json.loads((bench / "reference" / "measures.json").read_text())
    checked = 0
    for key, op in workloads.pool("measures").items():
        if op["kind"] != "mahler" or "error" in reference["ops"][key]:
            continue
        truth = reference["truth"][op["args"]["text"]]
        m = mahler_euclidean(P(op["args"]["text"]), op["args"]["tol"])
        assert abs(m.value - truth) <= m.error + math.ulp(truth), key
        checked += 1
    assert checked


def test_runs_without_mpmath():
    # mpmath is a test-only oracle: importing the package and polishing
    # roots must not need it
    code = (
        "import sys; sys.modules['mpmath'] = None\n"
        "import padic_mahler as pm\n"
        "from padic_mahler import mahler\n"
        "calls = []\n"
        "polish = mahler.polish_roots\n"
        "mahler.polish_roots = lambda *a: calls.append(1) or polish(*a)\n"
        "f = pm.parse_laurent('(t-1)*(t-100000000000000000001"
        "/100000000000000000000)')\n"
        "m = pm.mahler_euclidean(f, 1e-13)\n"
        "print(calls, abs(m.value - 1e-20) <= m.error)\n")
    src = pathlib.Path(mahler.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={"PYTHONPATH": str(src)}, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[1]", "True"]


class TestPadic:
    def test_solomon(self):
        m = mahler_padic(P("2*t - 2"), 2)
        assert m.coefficient == -1
        assert abs(m.value - math.log(Fraction(1, 2))) <= 1e-15

    def test_primitive_all_places(self):
        for p in (2, 3, 5, 7, 97):
            assert mahler_padic(P("t^2 - 3*t + 1"), p).coefficient == 0

    def test_content_four(self):
        assert mahler_padic(P("4*t^4 - 8*t^2 + 4"), 2).coefficient == -2

    def test_multiplicativity_exact(self):
        rng = random.Random(53)
        for _ in range(40):
            f = LaurentPolynomial(
                {e: rng.randint(-20, 20) for e in range(rng.randint(1, 5))})
            g = LaurentPolynomial(
                {e: rng.randint(-20, 20) for e in range(rng.randint(1, 5))})
            if f.is_zero or g.is_zero:
                continue
            for p in (2, 3, 5):
                assert mahler_padic(f * g, p).coefficient == \
                    mahler_padic(f, p).coefficient + \
                    mahler_padic(g, p).coefficient

    def test_jensen_product_identity(self):
        # Gauss norm = |a_0|_p * prod max(|alpha|_p, 1) as exact valuations,
        # asserted inside mahler_padic on every call; run it over a sweep
        rng = random.Random(59)
        for _ in range(100):
            f = LaurentPolynomial(
                {e: rng.randint(-500, 500) for e in range(rng.randint(1, 8))})
            if f.is_zero:
                continue
            for p in (2, 3, 5, 7, 11, 97):
                mahler_padic(f, p)


class TestEstimator:
    def test_figure_eight_growth(self):
        rep = resultant_limit_estimate(P("t^2 - 3*t + 1"), INFINITY, 120)
        assert rep.abs_error < 0.02
        assert rep.notes["tail_error_decreasing"]

    def test_trivial_knot_polynomial(self):
        rep = resultant_limit_estimate(P("t - 1"), INFINITY, 50)
        for n, est in rep.samples:
            assert abs(est - math.log(n) / n) < 1e-12

    def test_padic_exact_closed_form(self):
        # v_2(R(2t-2, nu_n)) = n - 1 + v_2(n)
        f = P("2*t - 2")
        rep = resultant_limit_estimate(f, 2, 64)
        for n, est, coprime in rep.samples:
            expected = Fraction(-(n - 1 + vp_int(n, 2)), n)
            assert abs(est - float(expected) * math.log(2)) < 1e-12
            assert coprime == (n % 2 == 1)

    def test_padic_exact_at_n_2_mod_4(self):
        rep = resultant_limit_estimate(P("2*t - 2"), 2, 64)
        hits = [(n, est) for n, est, _ in rep.samples if n % 4 == 2]
        assert hits
        for n, est in hits:
            assert est == pytest.approx(math.log(0.5), abs=1e-14)

    def test_skips_vanishing_resultants(self):
        # 2(t^2 - t + 1) vanishes at primitive 6th roots of unity
        f = P("2*t^2 - 2*t + 2")
        rep = resultant_limit_estimate(f, 2, 40)
        assert rep.skipped == [n for n in range(1, 41) if n % 6 == 0]

    def test_restricted_subsequence_flag(self):
        f = P("2*t - 2")
        rep = resultant_limit_estimate(f, 2, 40, skip_p_multiples=True)
        tail = rep.estimates(coprime_only=True)
        assert all(n % 2 == 1 for n, _ in tail)
        assert abs(rep.limit - math.log(0.5)) < 0.03

    def test_small_n_max_rejected(self):
        with pytest.raises(DomainError):
            resultant_limit_estimate(P("t - 2"), INFINITY, 4)

    @pytest.mark.parametrize("place", [INFINITY, 2, 3])
    def test_first_sample_is_n_one(self, place):
        # R(f, nu_1) = R(f, 1) = 1 != 0 and gcd(1, p) = 1, so every
        # sweep has an estimate to extrapolate from
        for text in ("2*t^2 - 2*t + 2", "t - 1", "6*t^3 - 4*t + 3"):
            rep = resultant_limit_estimate(P(text), place, 8,
                                           skip_p_multiples=True)
            assert rep.samples[0][:2] == (1, 0.0)

    def test_tail_band_shrinks_off_the_unit_circle(self):
        # no roots on |z| = 1: the last-quartile estimates must hug the
        # closed form in a shrinking band (exact resultants, high precision
        # since the deviation is far below float64 at large n)
        import mpmath
        f = P("t^2 - 3*t + 1")
        with mpmath.workdps(80):
            closed = mpmath.log((3 + mpmath.sqrt(5)) / 2)
            deviations = []
            for n in range(60, 81):
                r = abs(cyclic_resultant(f, n, "ones"))
                deviations.append(abs(mpmath.log(mpmath.mpf(r)) / n - closed))
            first_half = max(deviations[:10])
            second_half = max(deviations[11:])
            assert second_half < first_half

    def test_report_serialization(self):
        rep = resultant_limit_estimate(P("t^2 - 3*t + 1"), 3, 20)
        d = rep.to_dict()
        assert d["place"] == 3 and len(d["n"]) == len(d["estimates"])


class TestUnitInvariance:
    def test_measures_ignore_units(self):
        rng = random.Random(61)
        for _ in range(15):
            f = LaurentPolynomial(
                {e: rng.randint(-9, 9) for e in range(rng.randint(1, 5))})
            if f.is_zero:
                continue
            k = rng.randint(-4, 4)
            sign = rng.choice([1, -1])
            g = f.shift(k) * sign
            assert abs(mahler_euclidean(f, 1e-10).value
                       - mahler_euclidean(g, 1e-10).value) <= 2e-10
            for p in (2, 5):
                assert mahler_padic(f, p).coefficient == \
                    mahler_padic(g, p).coefficient
