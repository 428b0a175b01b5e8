import math

import pytest

from padic_mahler import pure
from padic_mahler.errors import ConvergenceError, DomainError, PrecisionError
from padic_mahler.padics import padic_log_of_int
from padic_mahler.parsing import parse_laurent
from padic_mahler.pure import (
    pure_entropy,
    pure_link_growth,
    pure_log_mahler_closed_form,
    pure_log_mahler_estimate,
    pure_measure_defined,
)
from padic_mahler.resultants import cyclic_resultant

P = parse_laurent

# Absolute residue of log_2(3 - sqrt(-7)) mod 2^28, computed independently
# by bitwise root lifting of s^2 - 3s + 4 and an exact Fraction partial sum
# of the logarithm series.
TWIST_KNOT_LOG_RESIDUE = 217460536
TWIST_KNOT_MODULUS_EXP = 28


class TestDefinedness:
    def test_split_slopes_defined(self):
        assert pure_measure_defined(P("2*t^2 - 3*t + 2"), 2) is True

    def test_flat_polygon_undefined(self):
        assert pure_measure_defined(P("t^2 - 3*t + 1"), 2) is False

    def test_single_nonunit_root(self):
        assert pure_measure_defined(P("t - 2"), 2) is True

    def test_constant_defined(self):
        assert pure_measure_defined(P("3"), 5) is True


class TestEstimator:
    def test_rejects_undefined(self):
        with pytest.raises(DomainError):
            pure_log_mahler_estimate(P("t^2 - 3*t + 1"), 2)

    def test_root_inside_disk_gives_zero(self):
        res = pure_log_mahler_estimate(P("t - 4"), 2, n_budget=60, precision=20)
        assert res.value.is_zero

    def test_constant_is_its_own_log(self):
        res = pure_log_mahler_estimate(P("3"), 5, n_budget=60, precision=14)
        want = padic_log_of_int(3, 5, 14)
        assert res.value.agreement_valuation(want) >= res.value.abs_precision

    def test_certificate_is_labeled(self):
        res = pure_log_mahler_estimate(P("2*t^2 - 3*t + 2"), 2,
                                       n_budget=60, precision=20)
        assert "heuristic" in res.data["certificate"]


class TestClosedForm:
    def test_twist_knot_value(self):
        cf = pure_log_mahler_closed_form(P("2*t^2 - 3*t + 2"), 2,
                                         precision=TWIST_KNOT_MODULUS_EXP + 6)
        value = cf.value
        assert value.v == 3
        got = value.unit * 2**value.v % 2**TWIST_KNOT_MODULUS_EXP
        assert got == TWIST_KNOT_LOG_RESIDUE

    def test_matches_estimator(self):
        for text, p in (("2*t^2 - 3*t + 2", 2), ("2*t^2 - t + 2", 2),
                        ("3*t - 2", 3), ("2*t^2 - 5*t + 2", 2)):
            est = pure_log_mahler_estimate(P(text), p, n_budget=90, precision=26)
            cf = pure_log_mahler_closed_form(P(text), p, precision=26)
            agree = est.value.agreement_valuation(cf.value)
            floor = min(est.value.abs_precision, cf.value.abs_precision)
            assert agree >= floor, (text, p, agree, floor)

    def test_seven_two_two_vanishes(self):
        cf = pure_log_mahler_closed_form(P("2*t^2 - 5*t + 2"), 2, precision=24)
        assert cf.value.is_zero

    def test_uniformizer_linear_cases(self):
        assert pure_log_mahler_closed_form(P("t - 2"), 2, 20).value.is_zero
        assert pure_log_mahler_closed_form(P("2*t - 1"), 2, 20).value.is_zero

    def test_iwasawa_normalization_kills_p(self):
        # m_p(p * f) = m_p(f) exactly
        f = P("2*t^2 - 3*t + 2")
        a = pure_log_mahler_closed_form(f, 2, 24).value
        b = pure_log_mahler_closed_form(f * 2, 2, 24).value
        assert (a - b).is_zero

    def test_additivity_over_factors(self):
        f = P("3*t - 2")
        g = P("3*t - 4")
        p = 3
        mf = pure_log_mahler_closed_form(f, p, 24).value
        mg = pure_log_mahler_closed_form(g, p, 24).value
        mfg = pure_log_mahler_closed_form(f * g, p, 24).value
        diff = mfg - (mf + mg)
        assert diff.is_zero

    def test_full_vs_ones_log_decomposition(self):
        # log_p R(f, t^n - 1) = log_p R(f, nu_n) + log_p f(1), f(1) != 0
        f = P("2*t^2 - 3*t + 2")
        p, N = 2, 24
        for n in (3, 5, 7, 9):
            full = padic_log_of_int(cyclic_resultant(f, n, "full"), p, N)
            ones = padic_log_of_int(cyclic_resultant(f, n, "ones"), p, N)
            f_at_1 = padic_log_of_int(int(f(1)), p, N)
            assert (full - (ones + f_at_1)).is_zero

    def test_roots_inside_disk_need_no_lifting(self):
        # t^2 - 2 at p = 2: both roots have valuation +1/2, inside the
        # disk, so the measure is log of the (unit) leading coefficient
        cf = pure_log_mahler_closed_form(P("t^2 - 2"), 2, 16)
        assert cf.value.is_zero

    def test_ramified_outside_slope_refused(self):
        # polygon slopes -1 and +1/2: the outside roots are ramified and
        # the norm shortcut does not apply (not all roots are outside)
        f = P("2*t^3 + t + 2")
        assert pure_measure_defined(f, 2)
        with pytest.raises(DomainError):
            pure_log_mahler_closed_form(f, 2, 16)

    def test_inseparable_residual_falls_back_to_norm(self):
        # (2t-1)^2: residual (s+1)^2 is inseparable, but every root lies
        # outside the unit disk so the coefficient-ratio shortcut applies
        cf = pure_log_mahler_closed_form(P("4*t^2 - 4*t + 1"), 2, 16)
        assert cf.method == "norm_shortcut"
        assert cf.value.is_zero

    def test_route_is_read_off_the_polygon(self):
        # every root outside the disk and every segment liftable: the
        # Hensel route comes first, the norm shortcut is only a fallback
        f = P("(2*t-1)*(4*t-3)")
        assert pure_log_mahler_closed_form(f, 2, 16).method == "closed_form"
        # slopes 1 and 2 at p = 2: the first segment lifts, the second is
        # the inseparable (s - 1)^2, and every root is outside the disk
        f = P("(2*t-1)*(4*t-1)^2")
        assert pure_log_mahler_closed_form(f, 2, 16).method == "norm_shortcut"
        # the root 2 inside the disk rules the shortcut out, so the
        # inseparable segment's reason is the refusal
        with pytest.raises(DomainError, match="residual polynomial"):
            pure_log_mahler_closed_form(f * P("t-2"), 2, 16)

    def test_precision_is_checked_before_the_route(self):
        # the polygon of 2*t^3 + t + 2 refuses, but precision comes first
        with pytest.raises(PrecisionError):
            pure_log_mahler_closed_form(P("2*t^3 + t + 2"), 2, 0)


class TestPureEntropy:
    def test_monic_guard(self):
        with pytest.raises(DomainError):
            pure_entropy(P("2*t^2 - 3*t + 2"), 2)

    def test_twist_knot_equals_measure(self):
        res = pure_entropy(P("2*t^2 - 3*t + 2"), 2, n_budget=80, precision=26,
                           solenoid_convention=True)
        cf = pure_log_mahler_closed_form(P("2*t^2 - 3*t + 2"), 2, 26)
        assert res.value.agreement_valuation(cf.value) >= 20

    def test_lens_space_family_vanishes(self):
        res = pure_entropy(P("3*t - 1"), 3, n_budget=60, precision=18,
                           solenoid_convention=True)
        assert res.value.is_zero

    def test_trivial_module(self):
        res = pure_entropy(P("1"), 5, n_budget=60, precision=12)
        assert res.value.is_zero

    def test_closed_form_unavailable_is_recorded(self):
        # 3 * (1/3) = 1 and 3 * (4/3) = 4 meet mod 3, so the residual
        # polynomial of their slope has a double root and the closed form
        # refuses; the estimator still answers
        res = pure_entropy(P("(3*t-1)*(3*t-4)*(t-3)"), 3,
                           solenoid_convention=True)
        assert res.data["measure_agreement_digits"] == \
            "closed form unavailable"


class TestLinkGrowth:
    def test_knot_reduces_to_measure(self):
        res = pure_link_growth(P("2*t^2 - 3*t + 2"), 1, 2,
                               n_budget=80, precision=24)
        cf = pure_log_mahler_closed_form(P("2*t^2 - 3*t + 2"), 2, 24)
        assert res.value.agreement_valuation(cf.value) >= 20

    def test_solomon_growth(self):
        res = pure_link_growth(P("2*t - 2"), 2, 3, n_budget=70, precision=20)
        want = padic_log_of_int(2, 3, 20)
        assert res.value.agreement_valuation(want) >= res.value.abs_precision

    def test_three_component_trivial(self):
        res = pure_link_growth(P("(t-1)^2"), 3, 2, n_budget=60, precision=16)
        assert res.value.is_zero
        assert res.data["H"] == "1"

    def test_multiplicity_mismatch(self):
        with pytest.raises(DomainError, match="smaller than d-1 = 2"):
            pure_link_growth(P("2*t - 2"), 3, 5)
        with pytest.raises(DomainError, match="smaller than d-1 = 1"):
            pure_link_growth(P("t^2 - 3*t + 1"), 2, 5)
        with pytest.raises(DomainError, match="exceeds d-1 = 1"):
            pure_link_growth(P("(t-1)^2"), 2, 5)
        with pytest.raises(DomainError, match="exceeds d-1 = 2"):
            pure_link_growth(P("(t-1)^3*(2*t-3)"), 3, 5)

    def test_identity_check_uses_its_own_route(self, monkeypatch):
        # the check compares the sweep of H with A's own companion matrix,
        # so a wrong R(A, nu_n) there is caught
        monkeypatch.setattr(pure, "cyclic_resultant",
                            lambda f, n, variant: 7)
        with pytest.raises(ConvergenceError, match="identity failed"):
            pure_link_growth(P("(t-1)*(2*t-3)"), 2, 3, n_budget=40,
                             precision=8)

    def test_h_at_1_is_an_int(self):
        # H = (2t - 5)(5t - 1) after dividing (t-1)^2 out: H(1) = -12
        res = pure_link_growth(P("(t-1)^2*(2*t-5)*(5*t-1)"), 3, 5,
                               n_budget=40, precision=8)
        assert res.data["H"] == "10*t^2 - 27*t + 5"
        assert res.data["H_at_1"] == 12 and type(res.data["H_at_1"]) is int


@pytest.mark.parametrize("n_budget", [0, 1, 4])
def test_small_budget_is_a_domain_error(n_budget):
    # fewer coprime n than the stabilization window holds
    with pytest.raises(DomainError):
        pure_log_mahler_estimate(P("2*t - 3"), 3, n_budget=n_budget)
    with pytest.raises(DomainError):
        pure_link_growth(P("(t-1)*(2*t-3)"), 2, 3, n_budget=n_budget)


@pytest.mark.parametrize("precision", [0, -2])
def test_nonpositive_precision_is_a_precision_error(precision):
    f = P("2*t^2 - 3*t + 2")
    with pytest.raises(PrecisionError):
        pure_log_mahler_estimate(f, 2, n_budget=60, precision=precision)
    with pytest.raises(PrecisionError):
        pure_log_mahler_closed_form(f, 2, precision=precision)


# one polynomial per prime, each with no root on the p-adic unit circle
WINDOW_INPUTS = {2: "2*t^2 - 3*t + 2", 3: "(3*t - 1)*(t - 3)*(9*t + 2)",
                 5: "(5*t - 2)*(t - 5)*(t^2 + 5*t + 10)"}


@pytest.mark.parametrize("p, n_budget", [(2, 60), (3, 120), (5, 41)])
def test_only_the_window_is_swept_and_logged(monkeypatch, p, n_budget):
    # the certificate reads the trailing 8 estimates, so exactly those n
    # are swept and exactly those 8 logs are taken
    swept, logged = [], []
    real_sweep, real_log = pure.cyclic_resultant_sweep, pure._log_over_n

    def sweep(f, ns, variant):
        swept.append(list(ns))
        return real_sweep(f, ns, variant)

    def log(r, n, p, precision):
        logged.append(n)
        return real_log(r, n, p, precision)

    monkeypatch.setattr(pure, "cyclic_resultant_sweep", sweep)
    monkeypatch.setattr(pure, "_log_over_n", log)
    used = [n for n in range(1, n_budget + 1) if math.gcd(n, p) == 1]
    f = P(WINDOW_INPUTS[p])
    for call in (
            lambda: pure_log_mahler_estimate(f, p, n_budget, 16),
            lambda: pure_entropy(f, p, n_budget, 16, solenoid_convention=True),
            lambda: pure_link_growth(f * P("t - 1"), 2, p, n_budget, 16)):
        swept.clear()
        logged.clear()
        result = call()
        assert swept == [used[-8:]]
        assert logged == used[-8:]
        assert result.data["window_n"] == used[-8:]


@pytest.mark.parametrize("call", [
    lambda: pure_log_mahler_estimate(P("(t^2 + t + 1)*(2*t - 1)"), 2),
    lambda: pure_entropy(P("(t + 1)*(3*t - 1)"), 3, solenoid_convention=True),
    lambda: pure_link_growth(P("(t - 1)*(t + 1)*(3*t - 1)"), 2, 3),
])
def test_roots_of_unity_are_refused_before_any_sweep(monkeypatch, call):
    # a root of unity lies on |z|_p = 1, so the definedness check refuses
    # it and the R = 0 guard on the swept window is never the first line
    def refuse(f, ns, variant):
        raise AssertionError("swept a polynomial with a root of unity")

    monkeypatch.setattr(pure, "cyclic_resultant_sweep", refuse)
    with pytest.raises(DomainError, match="unit circle"):
        call()


def test_vanishing_resultant_in_the_window_is_refused(monkeypatch):
    # out of reach through the definedness check, so the sweep is faked
    monkeypatch.setattr(pure, "cyclic_resultant_sweep",
                        lambda f, ns, variant: [1] * (len(ns) - 1) + [0])
    with pytest.raises(DomainError, match=r"R\(f, t\^119 - 1\) = 0"):
        pure_log_mahler_estimate(P("2*t - 3"), 3)
    with pytest.raises(DomainError, match=r"R\(f, t\^119 - 1\) = 0"):
        pure_link_growth(P("(t-1)*(2*t-3)"), 2, 3)
