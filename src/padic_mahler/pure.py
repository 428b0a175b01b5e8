"""Purely p-adic log Mahler measure and entropy (p-adic valued).

Here the measure of f is a p-adic number: the limit over n coprime to p of
(1/n) log_p R(f, t^n - 1), where log_p is the Iwasawa-branch logarithm
(log_p p = 0, log_p(-1) = 0).  It exists when f has no root on the p-adic
unit circle, equivalently no Newton polygon segment of slope zero, and then
equals log_p a_0 + sum over |alpha|_p > 1 of log_p alpha (Jensen form).

Two routes are implemented and cross-checked:

* the estimator: exact cyclic resultants, a p-adic stabilization window
  (heuristic certificate: convergence is a theorem but comes with no
  effective modulus, so the certified digit count is a labeled heuristic).
  The certificate reads only the trailing STABILIZATION_WINDOW n coprime
  to p within the budget, so only those n are swept and logged;
* the closed form: for each positive integer polygon slope m, rescale
  t = s/p^m, Hensel-lift the simple unit roots of the rescaled polynomial
  in Q_p and sum their logarithms; or, when every root lies outside the
  unit disk, take log_p of the trailing-to-leading coefficient ratio.
  Shapes beyond these (ramified slopes, inseparable residual roots) are
  refused rather than approximated.

The purely p-adic entropy of the companion/solenoid action is the same
limit on fixed-point counts |Fix| = |R(f, t^n - 1)| and therefore equals
the measure; the growth of branched-cover homology orders along a link
tower reduces to the same computation for the (t-1)-free part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConvergenceError, DomainError, PrecisionError
from .ntheory import check_prime, vp_int
from .padics import PadicNumber, hensel_lift, padic_log, padic_log_of_int
from .polynomials import (
    LaurentPolynomial,
    _derivative,
    _horner,
    _split_t_minus_one,
    normalize_integral,
)
from .resultants import cyclic_resultant, cyclic_resultant_sweep
from .valuations import NewtonPolygon

STABILIZATION_WINDOW = 8


@dataclass
class PurePadicResult:
    p: int
    value: PadicNumber
    method: str                      # "estimator" | "closed_form" | "norm_shortcut"
    data: dict = field(default_factory=dict)

    @property
    def certified_digits(self):
        return self.value.abs_precision

    def to_dict(self):
        return {"p": self.p,
                "value": self.value.digit_string(),
                "valuation": None if self.value.is_zero else self.value.v,
                "certified_abs_precision": self.certified_digits,
                "method": self.method,
                "data": {k: v for k, v in self.data.items()
                         if isinstance(v, (int, float, str, list, bool))}}


def pure_measure_defined(f: LaurentPolynomial, p: int) -> bool:
    """True iff f has no root with |z|_p = 1: no polygon segment of slope
    zero.  (Every valuation-zero root of a nonzero polynomial lies on the
    unit circle, so the polygon test is decisive.)"""
    return not NewtonPolygon.of(f, p).has_zero_slope()


def _defined_integral(f, p):
    """normalize_integral(f), after the check that opens every purely
    p-adic route: no root on |z|_p = 1."""
    check_prime(p)
    f = normalize_integral(f)
    if not pure_measure_defined(f, p):
        raise DomainError(
            f"roots on the {p}-adic unit circle: the purely {p}-adic "
            f"measure is undefined")
    return f


def _log_over_n(r: int, n: int, p: int, precision: int) -> PadicNumber:
    """(1/n) log_p r for a nonzero integer r and n coprime to p."""
    inv_n = PadicNumber(p, 0, pow(n, -1, p**precision), precision)
    return padic_log_of_int(r, p, precision) * inv_n


def _stabilized_window(f, p, n_budget, precision):
    """(value, certified digits, window n, R(f, t^n - 1) at its last n):
    the last estimate over the trailing STABILIZATION_WINDOW n <= n_budget
    coprime to p, truncated to the digits on which they all agree.  Only
    the window is swept, and R = 0 is refused there; other n need no such
    guard, since a root of unity lies on |z|_p = 1, where _defined_integral
    has already refused f."""
    if precision < 2:
        raise PrecisionError("precision must be at least 2 digits")
    used = [n for n in range(1, n_budget + 1) if math.gcd(n, p) == 1]
    if len(used) < STABILIZATION_WINDOW:
        raise DomainError("n_budget too small for the stabilization window")
    window = used[-STABILIZATION_WINDOW:]
    estimates = []
    for n, r in zip(window, cyclic_resultant_sweep(f, window, "full")):
        if r == 0:
            raise DomainError(
                f"R(f, t^{n} - 1) = 0: f vanishes at an {n}-th root of unity")
        estimates.append(_log_over_n(r, n, p, precision))
    last = estimates[-1]
    agree = min(last.agreement_valuation(w) for w in estimates[:-1])
    agree = min(agree, min(w.abs_precision for w in estimates))
    if agree < 1:
        raise ConvergenceError(
            "estimates did not stabilize to a single p-adic digit "
            "within the budget")
    certified = min(agree, precision - 1)
    return last.truncate(certified), certified, window, r


def pure_log_mahler_estimate(f: LaurentPolynomial, p: int,
                             n_budget: int = 120,
                             precision: int = 40) -> PurePadicResult:
    """(1/n) log_p R(f, t^n - 1) over the trailing STABILIZATION_WINDOW
    n <= n_budget coprime to p, with p-adic stabilization over that window
    declaring the certified digits; no other n is evaluated."""
    f = _defined_integral(f, p)
    value, certified, window_n, _ = _stabilized_window(f, p, n_budget,
                                                       precision)
    return PurePadicResult(
        p, value, "estimator",
        {"n_budget": n_budget, "window_n": window_n,
         "certified_abs_precision": certified,
         "certificate": "heuristic stabilization of the trailing window"})


def _segment_residual_roots(f: LaurentPolynomial, p: int, slope,
                            length: int):
    """For one positive polygon segment of integer slope m: the rescaling
    g(s) = f(s/p^m), made primitive at p, and the `length` distinct simple
    roots r in F_p^* of its residual polynomial.  g'(r) is a unit, so each
    r Hensel-lifts to a unit root s = p^m alpha.  A str in place of the
    pair says why the segment's roots are not lifted in Q_p."""
    if slope.denominator != 1:
        return (f"slope {slope} is not an integer: roots live in a ramified "
                f"extension of Q_{p}")
    m = int(slope)
    coeffs = f.integer_coefficients_ascending()
    d = len(coeffs) - 1
    scaled = [c * p ** (m * (d - i)) for i, c in enumerate(coeffs)]
    shift = min(vp_int(c, p) for c in scaled if c != 0)
    scaled = [c // p**shift for c in scaled]
    unit_idx = [i for i, c in enumerate(scaled) if c % p != 0]
    # the slope-m segment's endpoints: v(c_i) - m i is least exactly on it
    i_a, i_b = min(unit_idx), max(unit_idx)
    residual = [scaled[i] % p for i in range(i_a, i_b + 1)]
    deriv = _derivative(residual)
    roots = [r for r in range(1, p)
             if _horner(residual, r) % p == 0 and _horner(deriv, r) % p]
    if len(roots) != length:
        return ("residual polynomial does not split into distinct linear "
                f"factors over F_{p}; only Q_{p}-rational simple roots are "
                f"lifted")
    return LaurentPolynomial(dict(enumerate(scaled)), f.variable), roots


def pure_log_mahler_closed_form(f: LaurentPolynomial, p: int,
                                precision: int = 40) -> PurePadicResult:
    """Jensen form log_p a_0 + sum_{|alpha|_p > 1} log_p alpha, routed by
    the Newton polygon: through Hensel-lifted roots in Q_p when every
    positive segment has an integer slope and a residual that splits into
    distinct linear factors over F_p^*; otherwise, when all roots lie
    outside the unit disk, through the coefficient-ratio norm shortcut;
    otherwise refused with the first unliftable segment's reason."""
    f = _defined_integral(f, p)
    if precision < 1:
        raise PrecisionError("precision must be at least 1 digit")
    polygon = NewtonPolygon.of(f, p)
    outside = [(slope, length) for slope, length in polygon.segments
               if slope > 0]
    lifts = [_segment_residual_roots(f, p, slope, length)
             for slope, length in outside]
    refusal = next((x for x in lifts if isinstance(x, str)), None)
    if refusal is None:
        total = padic_log_of_int(int(f.leading_coefficient), p, precision)
        roots_used = []
        for (slope, _), (g, roots) in zip(outside, lifts):
            for r in roots:
                lifted = hensel_lift(g, p, r, 1, precision)
                # the root of f is lifted / p^m; the Iwasawa branch kills p^m
                total = total + padic_log(lifted)
                roots_used.append(f"s={lifted.digit_string(12)} (res {r}, "
                                  f"slope {slope})")
        return PurePadicResult(p, total, "closed_form",
                               {"segments": [(str(s), l) for s, l in outside],
                                "lifted_roots": roots_used})
    if not all(slope > 0 for slope, _ in polygon.segments):
        raise DomainError(refusal)
    # every root is outside the unit disk, so their product is (up to sign)
    # trailing/leading, the log sum is log_p(trailing) - log_p(leading) and
    # the measure collapses to log_p(trailing coefficient)
    trail = int(f.trailing_coefficient)
    return PurePadicResult(p, padic_log_of_int(trail, p, precision),
                           "norm_shortcut",
                           {"note": "all roots outside the unit disk; "
                                    "used the coefficient-ratio norm"})


def closed_form_agreement(estimate: PurePadicResult,
                          closed: PurePadicResult):
    """The p-adic digits on which the estimator and the closed form agree.
    They must agree on every digit both certify: ConvergenceError
    otherwise."""
    agreement = estimate.value.agreement_valuation(closed.value)
    floor = min(estimate.value.abs_precision, closed.value.abs_precision)
    if agreement < floor:
        raise ConvergenceError(
            f"purely p-adic estimator and closed form disagree at digit "
            f"{agreement} < {floor}")
    return agreement


def pure_entropy(f: LaurentPolynomial, p: int, n_budget: int = 120,
                 precision: int = 40,
                 solenoid_convention: bool = False) -> PurePadicResult:
    """Purely p-adic entropy of the companion action: the p-adic limit of
    (1/n) log_p |Fix| with |Fix| = |R(f, t^n - 1)|, read off the same
    stabilization window as pure_log_mahler_estimate.

    For non-monic f the fixed-point counts are those of the cyclic-module
    (solenoid) action; pass solenoid_convention=True to accept that
    reading.  Agreement with the closed-form measure is asserted whenever
    the closed form applies.
    """
    f_norm = normalize_integral(f)
    if f_norm.leading_coefficient != 1 and not solenoid_convention:
        raise DomainError(
            "f is not monic; pass solenoid_convention=True to use the "
            "cyclic-module fixed-point counts |R(f, t^n - 1)|")
    result = pure_log_mahler_estimate(f, p, n_budget, precision)
    data = dict(result.data)
    try:
        closed = pure_log_mahler_closed_form(f, p, precision)
    except DomainError:
        data["measure_agreement_digits"] = "closed form unavailable"
    else:
        agreement = closed_form_agreement(result, closed)
        data["measure_agreement_digits"] = float(agreement) \
            if agreement != math.inf else "exact"
    return PurePadicResult(p, result.value, "estimator", data)


def pure_link_growth(A: LaurentPolynomial, d: int, p: int,
                     n_budget: int = 120, precision: int = 40) -> PurePadicResult:
    """p-adic limit of (1/n) log_p (|R(A, nu_n)| |H(1)| / n^(d-1)) for
    A = (t-1)^(d-1) H with H(1) != 0: equals the purely p-adic measure of
    H.  The growth numbers are read off one window sweep of R(H, t^n - 1)
    through the identity |R(A, nu_n)| |H(1)| = |R(H, t^n - 1)| n^(d-1),
    which is checked at the largest n against cyclic_resultant(A), the
    determinants of H's squarefree factors times n^(d-1) (the Sylvester
    property of the test suite covers that split)."""
    check_prime(p)
    if d < 1:
        raise DomainError("component count d must be >= 1")
    A = normalize_integral(A)
    m, c = _split_t_minus_one(A.coefficients_ascending())
    if m < d - 1:
        raise DomainError(
            f"(t-1)-multiplicity of A is smaller than d-1 = {d - 1}")
    if m > d - 1:
        raise DomainError(
            f"(t-1)-multiplicity of A exceeds d-1 = {d - 1}; H(1) = 0")
    H = _defined_integral(LaurentPolynomial(dict(enumerate(c)), A.variable), p)
    h1 = abs(int(H(1)))
    # the growth number |R(A, nu_n)| |H(1)| / n^(d-1) is |R(H, t^n - 1)|,
    # so one sequence serves the growth limit and the measure of H, and
    # the two agree to every certified digit
    value, certified, window_n, full = _stabilized_window(H, p, n_budget,
                                                          precision)
    n = window_n[-1]
    if abs(cyclic_resultant(A, n, "ones")) * h1 != abs(full) * n ** (d - 1):
        raise ConvergenceError("resultant factorization identity failed")
    return PurePadicResult(
        p, value, "estimator",
        {"d": d, "H": str(H), "H_at_1": h1, "window_n": window_n,
         "agreement_with_measure": float(certified),
         "certificate": "heuristic stabilization of the trailing window"})
