"""Hypothesis property suites for the exact kernels."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padic_mahler import pure
from padic_mahler.entropy import entropy_padic, entropy_total
from padic_mahler.errors import ConvergenceError, DomainError
from padic_mahler.iwasawa import (
    _divisible_by_p_power_cyclotomic,
    fit_invariants,
    lambda_invariant,
    mu_invariant,
)
from padic_mahler.mahler import mahler_padic
from padic_mahler.ntheory import factorize, is_prime, vp, vp_int
from padic_mahler.padics import (
    PadicNumber,
    padic_log,
    padic_log_of_int,
    teichmuller,
)
from padic_mahler.parsing import parse_laurent, parse_polynomial
from padic_mahler.polynomials import (
    LaurentPolynomial,
    _derivative,
    _poly_mul,
    _primitive,
    normalize,
    power_minus_one,
    squarefree_split,
)
from padic_mahler.resultants import (
    _det_valuation_mod,
    bareiss_determinant,
    berkowitz_determinant_mod,
    cyclic_resultant,
    cyclic_resultant_sweep,
    cyclic_resultant_sylvester,
    cyclic_resultant_valuation,
    resultant,
)
from padic_mahler.valuations import (
    NewtonPolygon,
    gauss_norm_valuation,
    gauss_valuation_from_polygon,
)

primes = st.sampled_from([2, 3, 5, 7, 11, 13])


@st.composite
def laurent_polynomials(draw, max_deg=6, height=20, allow_zero=False,
                        laurent=True):
    lo = draw(st.integers(-3, 0)) if laurent else 0
    hi = draw(st.integers(0, max_deg))
    terms = {e: draw(st.integers(-height, height)) for e in range(lo, hi + 1)}
    f = LaurentPolynomial(terms)
    if f.is_zero and not allow_zero:
        f = f + draw(st.integers(1, height))
    return f


@given(laurent_polynomials())
def test_print_parse_round_trip(f):
    assert parse_polynomial(str(f)) == f


@given(laurent_polynomials(max_deg=3, height=5), st.integers(0, 30))
def test_parsed_power_equals_polynomial_power(g, k):
    assert parse_laurent(f"({g})^{k}") == g**k


@given(st.fractions(-50, 50).filter(bool), st.integers(-9, 9),
       st.integers(0, 30))
def test_parsed_power_of_a_term(c, e, k):
    # a single term is raised directly, with negative exponents too
    assert parse_laurent(f"({c}*t^{e})^{k}") == \
        LaurentPolynomial({e * k: c**k})


@given(laurent_polynomials(), primes)
def test_normalize_preserves_gauss_norm(f, p):
    assert gauss_norm_valuation(f, p) == gauss_norm_valuation(normalize(f), p)


@given(laurent_polynomials(), st.integers(-4, 4), st.sampled_from([1, -1]),
       primes)
def test_unit_multiplication_invariance(f, k, sign, p):
    g = f.shift(k) * sign
    assert mu_invariant(f, p) == mu_invariant(g, p)
    assert mahler_padic(f, p).coefficient == mahler_padic(g, p).coefficient
    assert NewtonPolygon.of(f, p).segments == NewtonPolygon.of(g, p).segments


@given(laurent_polynomials(max_deg=5, height=500), primes)
def test_jensen_reconciliation(f, p):
    assert gauss_valuation_from_polygon(f, p) == gauss_norm_valuation(f, p)


@given(laurent_polynomials(max_deg=5, height=500), primes)
def test_entropy_is_positive_polygon_rise(f, p):
    # the polygon route stays an independent oracle for h_p, which
    # entropy_padic reads off the Gauss norm
    segments = NewtonPolygon.of(f, p).segments
    rise = sum(slope * length for slope, length in segments if slope > 0)
    assert entropy_padic(f, p).coefficient == rise


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=4),
       st.lists(st.sampled_from([2, 3, 5]), max_size=5),
       st.lists(st.sampled_from([2, 3, 7]), max_size=3))
def test_finite_entropy_is_lead_over_content(low, lead_primes, content_primes):
    # leading coefficients with repeated primes, contents above 1
    c = math.prod(content_primes)
    coeffs = [c * x for x in low] + [c * math.prod(lead_primes)]
    report = entropy_total(LaurentPolynomial(dict(enumerate(coeffs))))
    assert all(h.denominator == 1 for h in report.h_p.values())
    assert math.prod(p ** h for p, h in report.h_p.items()) == \
        coeffs[-1] // math.gcd(*coeffs)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(laurent_polynomials(max_deg=3, height=5,
                                              laurent=False),
                          st.integers(1, 6)), min_size=1, max_size=3))
def test_squarefree_split_is_yun(factors):
    f = LaurentPolynomial.constant(1)
    for g, k in factors:
        f = f * g**k
    f = normalize(f)
    pairs = squarefree_split(f)
    # exactly the primitive part of f, in integers
    product = [1]
    for q, i in pairs:
        assert q[-1] > 0 and math.gcd(*q) == 1
        for _ in range(i):
            product = _poly_mul(product, q)
    assert product == _primitive(f.coefficients_ascending())[2]
    polys = [LaurentPolynomial(dict(enumerate(q))) for q, _ in pairs]
    for a in polys:
        assert a.degree >= 1
        assert a.low_degree == 0    # f(0) != 0 after normalize
        d = _derivative(a.coefficients_ascending())
        assert a.gcd(LaurentPolynomial(dict(enumerate(d)))).degree == 0
    for j, a in enumerate(polys):
        for b in polys[:j]:
            assert a.gcd(b).degree == 0
    multiplicities = [i for _, i in pairs]
    assert multiplicities == sorted(set(multiplicities))


@settings(max_examples=40)
@given(laurent_polynomials(max_deg=4, height=9),
       laurent_polynomials(max_deg=4, height=9),
       laurent_polynomials(max_deg=3, height=9))
def test_resultant_multiplicative(f, g, h):
    assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)


@settings(max_examples=40)
@given(laurent_polynomials(max_deg=4, height=9),
       laurent_polynomials(max_deg=4, height=9))
def test_resultant_swap_sign(f, g):
    df, dg = normalize(f).degree, normalize(g).degree
    assert resultant(f, g) == (-1) ** (df * dg) * resultant(g, f)


@settings(max_examples=30)
@given(laurent_polynomials(max_deg=4, height=9), st.integers(1, 12))
def test_cyclic_resultant_against_oracle(f, n):
    assert cyclic_resultant(f, n, "ones") == \
        cyclic_resultant_sylvester(f, n, "ones")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(-12, 12).filter(bool), st.integers(0, 3),
       st.lists(st.tuples(laurent_polynomials(max_deg=3, height=5,
                                              laurent=False),
                          st.integers(1, 3)), max_size=3),
       st.integers(1, 12), st.sampled_from(["ones", "full"]))
def test_split_cyclic_resultant_against_oracle(c, m, factors, n, variant):
    # c (t - 1)^m prod q_i^i: contents, repeated and constant factors
    f = LaurentPolynomial.constant(c) * LaurentPolynomial({1: 1, 0: -1}) ** m
    for q, i in factors:
        f = f * q**i
    assert cyclic_resultant(f, n, variant) == \
        cyclic_resultant_sylvester(f, n, variant)


@st.composite
def steep_polynomials(draw):
    # leading coefficients up to 4096, whose powers a^(kn) the coefficients
    # of det(x - B^n) carry, on degrees 0-8 and often 0-2, where
    # ((-1)^e g(0))^n, read off g(0) of either sign, is most of R(g, t^n - 1)
    f = draw(st.one_of(laurent_polynomials(2, 9, laurent=False),
                       laurent_polynomials(8, 9, laurent=False)))
    lead = draw(st.integers(-4096, 4096).filter(bool))
    return LaurentPolynomial({**f.terms, max(f.terms): lead})


@settings(max_examples=40, deadline=None)
@given(st.one_of(laurent_polynomials(max_deg=20, height=9),
                 steep_polynomials()),
       st.integers(0, 3),
       st.sets(st.integers(1, 120), max_size=8),
       st.sampled_from(["ones", "full"]))
def test_cyclic_resultant_sweep_matches_binary_powering(f, m, ns, variant):
    # degrees up to 20, with (t - 1)^m split off by the "ones" sweep
    f = f * LaurentPolynomial({1: 1, 0: -1}) ** m
    ns = sorted(ns)
    assert list(cyclic_resultant_sweep(f, ns, variant)) == \
        [cyclic_resultant(f, n, variant) for n in ns]


@settings(max_examples=40, deadline=None)
@given(laurent_polynomials(max_deg=8, height=9),
       laurent_polynomials(max_deg=8, height=9),
       st.lists(st.tuples(st.sets(st.integers(1, 40), min_size=1, max_size=10),
                          st.integers(0, 2), st.sampled_from(["ones", "full"]),
                          st.booleans()),
                min_size=2, max_size=3))
def test_sweeps_served_from_the_memo_match_binary_powering(f, other, calls):
    # sweeps of one (t - 1)-free part g over overlapping n, each with its
    # own (t - 1)^m and variant, are served from the kept values when they
    # hold every n, else swept whole; a sweep of another polynomial
    # consumed in step evicts g
    for ns, m, variant, interleave in calls:
        ns = sorted(ns)
        polys = [f * LaurentPolynomial({1: 1, 0: -1}) ** m, other]
        polys = polys[:1 + interleave]
        got = zip(*(cyclic_resultant_sweep(h, ns, variant) for h in polys))
        want = zip(*([cyclic_resultant(h, n, variant) for n in ns]
                     for h in polys))
        assert list(got) == list(want)


@st.composite
def tower_inputs(draw):
    """(f, n, p) with p | lead only, p at both ends, p | content, or
    p | content and lead; n in 1..30 or a p-power <= 243."""
    p = draw(st.sampled_from([2, 3, 5]))
    kind = draw(st.sampled_from(["lead", "both", "content", "content+lead"]))
    d = draw(st.integers(1, 5))
    units = st.integers(1, 12).filter(lambda x: x % p)
    c = [draw(st.integers(-12, 12)) for _ in range(d + 1)]
    c[0] = draw(units) * draw(st.sampled_from([1, -1]))
    c[d] = draw(units)
    if kind in ("lead", "both", "content+lead"):
        c[d] *= p ** draw(st.integers(1, 2))
    if kind == "both":
        c[0] *= p ** draw(st.integers(1, 2))
    if kind.startswith("content"):
        c = [x * p ** draw(st.integers(1, 2)) for x in c]
    n = draw(st.one_of(st.integers(1, 30), st.sampled_from(
        [p**r for r in range(1, 8) if p**r <= 243])))
    return LaurentPolynomial(dict(enumerate(c))), n, p


@settings(max_examples=60, deadline=None)
@given(tower_inputs())
def test_tower_valuation_matches_exact_resultant(inputs):
    f, n, p = inputs
    exact = cyclic_resultant(f, n, "ones")
    assume(exact != 0)
    assert cyclic_resultant_valuation(f, [n], p)[0] == vp_int(exact, p)


@settings(max_examples=40, deadline=None)
@given(tower_inputs(), st.sampled_from([None, 1, 2, 3]), st.integers(1, 4))
def test_tower_valuations_along_divisor_chains(inputs, m, length):
    """A p-power chain (m = None) or a mixed chain [m, m p, m p^2, ...]."""
    f, _, p = inputs
    ns = ([p**r for r in range(1, length + 1)] if m is None
          else [m * p**r for r in range(length)])
    assume(ns[-1] <= 243)
    exact = [cyclic_resultant(f, n, "ones") for n in ns]
    assume(0 not in exact)
    assert cyclic_resultant_valuation(f, ns, p) == [vp_int(x, p)
                                                    for x in exact]


@settings(max_examples=40, deadline=None)
@given(tower_inputs(), st.integers(3, 5))
def test_fitted_window_spans_three_points(inputs, r_max):
    """mu, lambda and nu solve e_(r_max - 2) .. e_(r_max) exactly, so a
    fit that returns has r0 <= r_max - 2."""
    f, _, p = inputs
    try:
        inv = fit_invariants(f, p, r_max)
    except (ConvergenceError, DomainError):
        return
    assert inv.r0 <= r_max - 2


@st.composite
def residue_matrices(draw):
    """(A, p, K): a square integer matrix of dimension 0..9 reduced mod p^K,
    K in 1..8, with some rows and columns scaled by powers of p and at
    times one row a combination of two others, so that blocks vanishing
    mod p^K and singular matrices are common."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    K = draw(st.integers(1, 8))
    n = draw(st.integers(0, 9))
    entries = st.integers(0, p**K - 1)
    A = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    scale = st.dictionaries(st.integers(0, n - 1),
                            st.integers(1, max(1, K // 2)),
                            max_size=2) if n else st.just({})
    rows, cols = draw(scale), draw(scale)
    A = [[x * p ** (rows.get(i, 0) + cols.get(j, 0))
          for j, x in enumerate(row)] for i, row in enumerate(A)]
    if n >= 3 and draw(st.integers(0, 3)) == 0:
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        A[-1] = [a * x + b * y for x, y in zip(A[0], A[1])]
    return [[x % p**K for x in row] for row in A], p, K


@settings(max_examples=300, deadline=None)
@given(residue_matrices())
def test_pivoted_valuation_makes_the_berkowitz_decision(case):
    """The chain step's break rule read off the pivoted kernel equals the
    one read off the Berkowitz determinant mod p^K, and a certified step
    has the valuation of the exact determinant, refusals included."""
    A, p, K = case
    w = _det_valuation_mod(A, p, K)
    det = berkowitz_determinant_mod(A, p**K)
    refused = w is None or w >= K - 1
    assert refused == (not det or vp_int(det, p) >= K - 1)
    assert det == 0 if w is None or w >= K else vp_int(det, p) == w
    if not refused:
        assert w == vp_int(bareiss_determinant(A), p)


def _polygon_lambda(A, p):
    """lambda as the Newton polygon of B = A(1+T)/p^mu reads it: the order
    of B at T = 0 plus the lengths of its negative-slope segments."""
    A = normalize(A)
    mu = gauss_norm_valuation(A, p)
    one_plus_t = LaurentPolynomial({0: 1, 1: 1})
    B = LaurentPolynomial.zero()
    for e, c in A.terms.items():
        B = B + one_plus_t**e * c
    B = B * Fraction(1, p**mu)
    if B.is_constant:
        return 0
    return B.low_degree + sum(length for slope, length
                              in NewtonPolygon.of(B, p).segments if slope < 0)


@settings(max_examples=60)
@given(laurent_polynomials(max_deg=6, height=30), st.integers(0, 2),
       st.integers(0, 3), st.sampled_from([2, 3, 5, 7]))
def test_lambda_is_the_polygon_reading(f, mu, zeros_at_one, p):
    # content p^mu and a zero of order zeros_at_one at t = 1 (T = 0)
    A = f * p**mu * power_minus_one(1) ** zeros_at_one
    assume(_divisible_by_p_power_cyclotomic(normalize(A), p) is None)
    assert lambda_invariant(A, p) == _polygon_lambda(A, p)


@settings(max_examples=60, deadline=None)
@given(laurent_polynomials(max_deg=6, height=20), st.sampled_from([2, 3, 5]),
       st.integers(1, 3), st.integers(0, 2), st.integers(0, 2))
def test_cyclotomic_fold_matches_sympy(f, p, r, cyclotomic_power,
                                       zeros_at_one):
    # A = f * Phi_{p^r}^k * (t-1)^z, possibly with negative exponents: the
    # coefficient fold must find the least s with Phi_{p^s} | A, as sympy's
    # remainder by cyclotomic_poly(p^s) does
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def laurent(expr):
        coeffs = reversed(sympy.Poly(expr, t).all_coeffs())
        return LaurentPolynomial({e: int(c) for e, c in enumerate(coeffs)})

    A = (f * laurent(sympy.cyclotomic_poly(p**r, t)) ** cyclotomic_power
         * power_minus_one(1) ** zeros_at_one)
    g = normalize(A)
    expr = sum(int(c) * t**e for e, c in g.terms.items())
    expected, s = None, 1
    while (p - 1) * p ** (s - 1) <= g.degree:
        if sympy.rem(expr, sympy.cyclotomic_poly(p**s, t), t) == 0:
            expected = s
            break
        s += 1
    assert _divisible_by_p_power_cyclotomic(A, p) == expected
    if cyclotomic_power:
        assert expected is not None and expected <= r


@given(st.fractions(), st.fractions(), primes)
def test_valuation_ultrametric(x, y, p):
    vx, vy, vsum = vp(x, p), vp(y, p), vp(x + y, p)
    assert vsum >= min(vx, vy)
    assert vp(x * y, p) == vx + vy


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(2, 10**9).map(_next_prime),
                          st.integers(1, 3)), min_size=1, max_size=4))
def test_factorize_recovers_prime_power_products(parts):
    n = 1
    for q, e in parts:
        n *= q**e
    factors = factorize(n)
    assert all(is_prime(q) for q in factors)
    assert list(factors) == sorted(factors)
    product = 1
    for q, e in factors.items():
        product *= q**e
    assert product == n


@given(st.integers(1, 10**6), primes, st.integers(1, 10))
def test_teichmuller_torsion(a, p, N):
    # w = a mod p and w^(p-1) = 1 mod p^N determine the lift
    if a % p == 0:
        a += 1
    w = teichmuller(a, p, N)
    assert (w.v, w.N) == (0, N) and w.unit % p == a % p
    assert pow(w.unit, p - 1, p**N) == 1


@given(st.integers(1, 10**9), st.integers(1, 10**9),
       st.sampled_from([3, 5, 7]), st.integers(4, 12))
def test_log_is_homomorphism(u1, u2, p, N):
    if u1 % p == 0:
        u1 += 1
    if u2 % p == 0:
        u2 += 1
    x = PadicNumber(p, 0, u1 % p**N or 1, N)
    y = PadicNumber(p, 0, u2 % p**N or 1, N)
    if x.unit % p == 0 or y.unit % p == 0:
        return
    assert (padic_log(x * y) - (padic_log(x) + padic_log(y))).is_zero


@st.composite
def off_circle_inputs(draw):
    """(f, p): a product of 1-3 factors u + p*(...) + p^k*w t^d or their
    reversals, u and w p-units, so no polygon segment has slope zero."""
    p = draw(st.sampled_from([2, 3, 5]))
    units = st.sampled_from([x for x in range(-9, 10) if x % p])
    f = LaurentPolynomial({0: 1})
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 3))
        c = [draw(units), *(p * draw(st.integers(-5, 5)) for _ in range(d - 1)),
             p ** draw(st.integers(1, 2)) * draw(units)]
        if draw(st.booleans()):
            c.reverse()
        f = f * LaurentPolynomial(dict(enumerate(c)))
    return f, p


def _estimate_over_every_n(f, p, n_budget, precision):
    """Reference estimator: sweep and log every n <= n_budget coprime to
    p, then certify the digits on which the trailing 8 estimates agree."""
    used = [n for n in range(1, n_budget + 1) if math.gcd(n, p) == 1]
    estimates = [pure._log_over_n(r, n, p, precision) for n, r in
                 zip(used, cyclic_resultant_sweep(f, used, "full"))]
    window = estimates[-pure.STABILIZATION_WINDOW:]
    last = window[-1]
    agree = min(min(last.agreement_valuation(w) for w in window[:-1]),
                min(w.abs_precision for w in window))
    if agree < 1:
        return None
    certified = min(agree, precision - 1)
    return (last.truncate(certified), certified,
            used[-pure.STABILIZATION_WINDOW:])


@settings(max_examples=60, deadline=None)
@given(off_circle_inputs(), st.integers(16, 120), st.integers(2, 24))
def test_window_estimator_matches_every_n_sweep(inputs, n_budget, precision):
    f, p = inputs
    assert pure.pure_measure_defined(f, p)
    want = _estimate_over_every_n(f, p, n_budget, precision)
    if want is None:
        with pytest.raises(ConvergenceError):
            pure.pure_log_mahler_estimate(f, p, n_budget, precision)
        return
    value, certified, window_n = want
    got = pure.pure_log_mahler_estimate(f, p, n_budget, precision)
    assert (got.value.v, got.value.unit, got.value.N) == \
        (value.v, value.unit, value.N)
    assert got.data["certified_abs_precision"] == certified
    assert got.data["window_n"] == window_n


@st.composite
def unit_root_products(draw):
    """(p, outside, f): f the product of p^a t - u over (a, u) in outside
    and of some t - p^b u, each u a p-adic unit and the residues u mod p
    distinct within each a, as the sweeps workload builds f."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    units = st.integers(-7, 7).filter(lambda u: u % p)
    outside = draw(st.lists(st.tuples(st.integers(1, 3), units), min_size=1,
                            max_size=3, unique_by=lambda x: (x[0], x[1] % p)))
    inside = draw(st.lists(st.tuples(st.integers(1, 3), units), max_size=2))
    f = LaurentPolynomial.constant(1)
    for a, u in outside:
        f = f * LaurentPolynomial({1: p**a, 0: -u})
    for b, u in inside:
        f = f * LaurentPolynomial({1: 1, 0: -p**b * u})
    return p, outside, f


@settings(max_examples=40, deadline=None)
@given(unit_root_products())
def test_closed_form_lifts_every_root_outside_the_unit_disk(case):
    p, outside, f = case
    positive = sum(length for slope, length in NewtonPolygon.of(f, p).segments
                   if slope > 0)
    cf = pure.pure_log_mahler_closed_form(f, p, 12)
    assert cf.method == "closed_form"
    assert len(cf.data["lifted_roots"]) == positive == len(outside)
    # log_p p = 0, so log_p a_0 = 0 and log_p(u / p^a) = log_p u
    want = padic_log_of_int(math.prod(u for _, u in outside), p, 12)
    assert cf.value.agreement_valuation(want) >= \
        min(cf.value.abs_precision, want.abs_precision)
