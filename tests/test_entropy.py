import math
import random
import time
from fractions import Fraction

import pytest

from padic_mahler.entropy import (
    balance_check,
    entropy_padic,
    entropy_total,
    leading_coeff_identity,
)
from padic_mahler.errors import DomainError
from padic_mahler.ntheory import factorize, is_prime
from padic_mahler.parsing import parse_laurent
from padic_mahler.polynomials import LaurentPolynomial

P = parse_laurent


class TestPadicEntropy:
    def test_log_two_cases(self):
        assert entropy_padic(P("2*t^2 - t + 2"), 2).coefficient == 1
        assert entropy_padic(P("2*t^2 - 5*t + 2"), 2).coefficient == 1

    def test_monic_vanishes(self):
        for p in (2, 3, 5, 97):
            assert entropy_padic(P("t^2 - 3*t + 1"), p).coefficient == 0

    def test_finite_support(self):
        # h_p = 0 unless p divides leading/content; scan every prime < 1000
        for text in ("2*t^2 - 5*t + 2", "4*t^2 - 10*t + 4", "6*t^2 - t - 1"):
            f = P(text)
            support = {p for p in range(2, 1000) if is_prime(p)
                       and entropy_padic(f, p).coefficient != 0}
            report = entropy_total(f)
            assert support == set(report.h_p)


class TestTotals:
    def test_figure_eight(self):
        rep = entropy_total(P("t^2 - 3*t + 1"))
        assert abs(rep.h_total - math.log((3 + math.sqrt(5)) / 2)) <= 1e-9
        assert rep.h_p == {}

    def test_split_between_places(self):
        rep = entropy_total(P("2*t^2 - 5*t + 2"))
        assert abs(rep.h_total - 2 * math.log(2)) <= 1e-9
        assert abs(rep.h_inf.value - math.log(2)) <= 1e-9
        assert rep.h_p == {2: Fraction(1)}

    def test_reciprocal_quartic(self):
        rep = entropy_total(P("t^4 - 2*t^3 + t^2 - 2*t + 1"))
        target = math.log((1 + math.sqrt(2) + math.sqrt(2 * math.sqrt(2) - 1)) / 2)
        assert abs(rep.h_total - target) <= 1e-9

    def test_content_does_not_enter(self):
        # h counts the primitive part: 4t^2-10t+4 = 2(2t^2-5t+2)
        rep = entropy_total(P("4*t^2 - 10*t + 4"))
        rep2 = entropy_total(P("2*t^2 - 5*t + 2"))
        assert abs(rep.h_total - rep2.h_total) <= 2e-9
        assert rep.content == 2 and rep2.content == 1

    def test_reconciliation_with_primitive_measure(self):
        rng = random.Random(71)
        for _ in range(20):
            f = LaurentPolynomial(
                {e: rng.randint(-12, 12) for e in range(rng.randint(1, 5))})
            if f.is_zero:
                continue
            rep = entropy_total(f, tol=1e-9)
            assert abs(rep.h_total - rep.log_mahler_primitive.value) <= 2e-9

    def test_huge_lead_under_int_str_limit(self):
        # the report formats its polynomial only in to_dict
        rep = entropy_total(P("10^5000*t - 1"))
        assert rep.h_p == {2: 5000, 5: 5000}

    def test_rational_coefficients_rejected(self):
        with pytest.raises(DomainError):
            entropy_total(P("1/2*t - 1"))

    def test_finite_sum_is_log_of_coefficient_ratio(self):
        # sum_p h_p = log s with s = leading/content, exactly in exponents
        rng = random.Random(79)
        for _ in range(30):
            f = LaurentPolynomial(
                {e: rng.randint(-40, 40) for e in range(rng.randint(1, 5))})
            if f.is_zero:
                continue
            rep = entropy_total(f)
            s = abs(rep.leading_coefficient) // rep.content
            product = 1
            for p, coeff in rep.h_p.items():
                assert coeff.denominator == 1
                product *= p ** int(coeff)
            assert product == s


class TestBalance:
    def test_printed_example(self):
        b = balance_check(P("4*t^2 - 10*t + 4"), 2)
        assert (b.lead_valuation, b.entropy_coefficient, b.mu) == (2, 1, 1)
        assert b.holds

    def test_root_of_unity_case(self):
        b = balance_check(P("2*t - 2"), 2)
        assert (b.lead_valuation, b.entropy_coefficient, b.mu) == (1, 0, 1)

    def test_monic(self):
        b = balance_check(P("t^3 - 7*t + 1"), 5)
        assert (b.lead_valuation, b.entropy_coefficient, b.mu) == (0, 0, 0)

    def test_always_holds(self):
        rng = random.Random(73)
        for _ in range(80):
            f = LaurentPolynomial(
                {e: rng.randint(-30, 30) for e in range(rng.randint(1, 6))})
            if f.is_zero:
                continue
            for p in (2, 3, 5, 7):
                assert balance_check(f, p).holds


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


class TestLeadingCoefficient:
    def test_four(self):
        rep = leading_coeff_identity(P("4*t^2 - 10*t + 4"))
        b = rep.per_prime[2]
        assert rep.holds
        assert (b.lead_valuation, b.entropy_coefficient, b.mu) == (2, 1, 1)

    def test_knot_case(self):
        rep = leading_coeff_identity(P("t^2 - 3*t + 1"))
        assert rep.holds and rep.per_prime == {}

    def test_content_six(self):
        rep = leading_coeff_identity(P("6*t - 6"))
        assert rep.holds
        assert [(b.lead_valuation, b.entropy_coefficient, b.mu)
                for b in rep.per_prime.values()] == [(1, 0, 1), (1, 0, 1)]
        assert list(rep.per_prime) == [2, 3]

    def test_refusal_beyond_rho_budget(self):
        # two ~20-digit primes: rho gives up on its fixed step budget
        big = _next_prime(10**19) * _next_prime(10**20)
        start = time.perf_counter()
        with pytest.raises(DomainError, match=str(big)):
            leading_coeff_identity(LaurentPolynomial({1: big, 0: 1}))
        assert time.perf_counter() - start < 5

    def test_content_primes_are_kept(self):
        # c = 1000003 * 1000033 once fell out of content_factors
        c = 1000003 * 1000033
        f = LaurentPolynomial({1: 2 * c, 0: -c})
        rep = entropy_total(f)
        assert rep.content_factors == {1000003: 1, 1000033: 1}
        assert rep.h_p == {2: 1}
        assert list(rep.balance) == list(leading_coeff_identity(f).per_prime)


class TestFactorize:
    def test_small_cases(self):
        assert factorize(1) == {}
        assert factorize(-12) == {2: 2, 3: 1}
        assert list(factorize(1000000009 * 1000000007 * 6)) == \
            [2, 3, 1000000007, 1000000009]
        with pytest.raises(DomainError):
            factorize(0)

    def test_matches_sympy_factorint(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(83)
        for _ in range(30):
            n = rng.randrange(1, 10**18)
            assert factorize(n) == sympy.factorint(n)
