import random
import sys
from fractions import Fraction

import pytest

from padic_mahler import iwasawa, resultants
from padic_mahler.errors import DomainError
from padic_mahler.iwasawa import (
    fit_invariants,
    lambda_invariant,
    mu_invariant,
    qhs3_condition,
    tower_order_valuations,
    verify_consistency,
)
from padic_mahler.ntheory import vp_int
from padic_mahler.parsing import parse_laurent
from padic_mahler.polynomials import LaurentPolynomial, content_and_primitive

P = parse_laurent


class TestQHS3:
    def test_root_at_one_fails(self):
        assert qhs3_condition(P("t - 1"), 2) is False
        assert qhs3_condition(P("t - 1"), 7) is False

    def test_figure_eight_passes(self):
        assert qhs3_condition(P("t^2 - 3*t + 1"), 2) is True

    def test_fourth_roots_fail_at_two(self):
        f = P("(t^2+1)*(t-2)")
        assert qhs3_condition(f, 2) is False
        assert qhs3_condition(f, 3) is True

    def test_sixth_roots_pass_prime_powers(self):
        # t^2 - t + 1 vanishes at primitive 6th roots, 6 is not a prime power
        f = P("2*t^2 - 2*t + 2")
        for p in (2, 3, 5, 7):
            assert qhs3_condition(f, p) is True

    def test_odd_prime_cyclotomic(self):
        f = P("t^2 + t + 1")     # third cyclotomic
        assert qhs3_condition(f, 3) is False
        assert qhs3_condition(f, 2) is True


class TestMu:
    def test_values(self):
        assert mu_invariant(P("2*t - 2"), 2) == 1
        assert mu_invariant(P("3*t - 3"), 3) == 1
        assert mu_invariant(P("4*t^4 - 8*t^2 + 4"), 2) == 2
        assert mu_invariant(P("t^2 - 3*t + 1"), 5) == 0

    def test_equals_content_valuation(self):
        rng = random.Random(67)
        for _ in range(60):
            f = LaurentPolynomial(
                {e: rng.randint(-48, 48) for e in range(rng.randint(1, 6))})
            if f.is_zero:
                continue
            for p in (2, 3, 5, 7):
                assert mu_invariant(f, p) == \
                    vp_int(content_and_primitive(f)[0], p)


class TestLambda:
    def test_linear_with_content(self):
        assert lambda_invariant(P("2*t - 2"), 2) == 1

    def test_unit_constant_term(self):
        # A(1+T) = T^2 - T - 1 has unit constant term
        assert lambda_invariant(P("t^2 - 3*t + 1"), 2) == 0
        assert lambda_invariant(P("t^2 - 3*t + 1"), 5) == 0

    def test_counts_all_small_roots(self):
        # A = (t-1)^2 * 3: A(1+T) = 3T^2, lambda = 2 at p = 3 after mu = 1
        assert lambda_invariant(P("3*(t-1)^2"), 3) == 2

    def test_negative_slope_contribution(self):
        # A = t^2 - t - 5 at p=5: A(1+T) = T^2 + T - 5; polygon has a
        # negative slope segment (one root of positive valuation)
        assert lambda_invariant(P("t^2 - t - 5"), 5) == 1

    def test_guard_against_cyclotomic_divisor(self):
        with pytest.raises(DomainError):
            lambda_invariant(P("(t+1)*(t-3)"), 2)


class TestFit:
    def test_solomon_closed_form(self):
        inv = fit_invariants(P("2*t - 2"), 2, 6)
        assert (inv.lam, inv.mu, inv.nu, inv.r0) == (1, 1, -1, 1)

    def test_unit_polynomial(self):
        inv = fit_invariants(P("1"), 2, 4)
        assert (inv.lam, inv.mu, inv.nu, inv.r0) == (0, 0, 0, 1)

    def test_figure_eight_at_five(self):
        inv = fit_invariants(P("t^2 - 3*t + 1"), 5, 4)
        assert (inv.lam, inv.mu) == (0, 0)

    def test_exact_window_equality(self):
        for text, p in (("2*t - 2", 2), ("3*t - 3", 3),
                        ("t^2 - 3*t + 1", 3), ("4*t^2 - 10*t + 4", 2)):
            inv = fit_invariants(P(text), p, 6)
            e = tower_order_valuations(P(text), p, 6)
            for r in range(inv.r0, 7):
                assert e[r - 1] == inv.lam * r + inv.mu * p**r + inv.nu

    def test_needs_three_points(self):
        with pytest.raises(DomainError):
            fit_invariants(P("2*t - 2"), 2, 2)

    def test_serialization_spells_lambda(self):
        inv = fit_invariants(P("2*t - 2"), 2, 4)
        assert set(inv.to_dict()) == {"p", "lambda", "mu", "nu", "r0", "source"}


class TestConsistency:
    def test_solomon(self):
        rep = verify_consistency(P("2*t - 2"), 2)
        assert rep.consistent and rep.analytic_mu == 1 and rep.analytic_lambda == 1

    def test_knot(self):
        rep = verify_consistency(P("t^2 - 3*t + 1"), 3)
        assert rep.consistent and rep.analytic_mu == 0

    def test_multiple_root_at_one_rejected(self):
        with pytest.raises(DomainError):
            verify_consistency(P("4*t^2 - 8*t + 4"), 2)

    def test_two_integer_cyclotomic_folds_per_call(self, monkeypatch):
        # one guard in each of lambda_invariant and fit_invariants, each
        # summing Python ints: no Fraction is added inside a fold
        callers, fraction_sums = [], []
        fold = iwasawa._divisible_by_p_power_cyclotomic

        def counting(op):
            return lambda *a: fraction_sums.append(1) or op(*a)

        def counted(*args):
            frame = sys._getframe(1)
            while frame.f_code.co_name not in ("lambda_invariant",
                                               "fit_invariants"):
                frame = frame.f_back
            callers.append(frame.f_code.co_name)
            with monkeypatch.context() as m:
                m.setattr(Fraction, "__add__", counting(Fraction.__add__))
                m.setattr(Fraction, "__radd__", counting(Fraction.__radd__))
                return fold(*args)

        monkeypatch.setattr(iwasawa, "_divisible_by_p_power_cyclotomic",
                            counted)
        rep = verify_consistency(P("2*t^2 - 3*t + 2"), 2, 6)
        assert rep.consistent
        assert callers == ["lambda_invariant", "fit_invariants"]
        assert not fraction_sums

    def test_public_functions_are_the_one_path(self, monkeypatch):
        calls = []
        for name in ("lambda_invariant", "mu_invariant", "fit_invariants"):
            def counted(*args, _name=name, _f=getattr(iwasawa, name)):
                calls.append(_name)
                return _f(*args)
            monkeypatch.setattr(iwasawa, name, counted)
        rep = verify_consistency(P("2*t^2 - 3*t + 2"), 2, 6)
        assert rep.consistent
        assert sorted(calls) == ["fit_invariants", "lambda_invariant",
                                 "mu_invariant"]

    def test_unit_multiplication_invariance(self):
        f = P("2*t^3 - 2*t^2")   # 2t^2 (t - 1)
        g = P("2*t - 2")
        for p in (2, 3):
            assert mu_invariant(f, p) == mu_invariant(g, p)
            assert lambda_invariant(f, p) == lambda_invariant(g, p)
            assert fit_invariants(f, p, 5) == fit_invariants(g, p, 5)


class TestRoadmapTower:
    def test_fit_invariants_pinned(self):
        # p divides the leading coefficient but not the trailing one: the
        # split computes every level on the degree-7 unit-root factor
        f = P("3*t^8-7*t^7+2*t^5-11*t^4+5*t^3-t+4")
        assert tower_order_valuations(f, 3, 7) == [0] * 7
        assert fit_invariants(f, 3, 7).to_dict() == {
            "p": 3, "lambda": 0, "mu": 0, "nu": 0, "r0": 1,
            "source": "fitted"}

    def test_one_lift_per_tower(self, monkeypatch):
        calls = []
        lift = resultants._unit_root_factor

        def counted(*args):
            calls.append(args)
            return lift(*args)

        monkeypatch.setattr(resultants, "_unit_root_factor", counted)
        f = P("2*t^8-3*t^5+t^2-5*t+7")
        e = tower_order_valuations(f, 2, 9)
        assert len(calls) == 1
        assert e == [vp_int(resultants.cyclic_resultant(f, 2**r), 2)
                     for r in range(1, 10)]
