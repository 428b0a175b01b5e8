"""Euclidean and p-adic Mahler measures, and the cyclic-resultant
limit estimators for both.

The Euclidean log measure of f = a * prod (t - alpha_i) is
log|a| + sum_{|alpha_i| > 1} log|alpha_i| (Jensen), computed from certified
complex roots rather than contour integration.  The p-adic log measure is
(-min_i v_p(a_i)) * log p, the log of the Gauss norm, cross-checked against
the Newton-polygon product on every call.  Both are the limits of
|R(f, nu_n)|^(1/n) at the respective places, and resultant_limit_estimate
exhibits that convergence with exact resultants.  The float roots of the
last polynomial measured are kept (memo.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import memo
from .errors import ConvergenceError, DomainError, ZeroPolynomialError
from .ntheory import INFINITY, check_prime, doubling, vp_int
from .polynomials import (LaurentPolynomial, normalize_integral,
                          squarefree_split)
from .resultants import cyclic_resultant_sweep
from .roots import aberth_roots, dyadic, polish_roots
from .valuations import gauss_norm_valuation, gauss_valuation_from_polygon

# fixed-point bits of the first polish beyond those of a factor's share of
# tol, and the most bits tried before a refusal
POLISH_BITS = 32
POLISH_BITS_CAP = 1024


@dataclass(frozen=True)
class LogMeasure:
    """A log Mahler measure at one place.

    At a finite place p the value is an exact rational multiple of log p
    (``coefficient`` stores the rational, ``value`` the float).  At the
    infinite place the value is a float with an explicit absolute error
    bound.
    """

    place: object                  # a prime, or math.inf
    value: float
    error: float = 0.0
    coefficient: Fraction | None = None

    @classmethod
    def finite(cls, p: int, coefficient: Fraction) -> "LogMeasure":
        coefficient = Fraction(coefficient)
        return cls(p, float(coefficient) * math.log(p), 0.0, coefficient)

    @classmethod
    def infinite(cls, value: float, error: float) -> "LogMeasure":
        return cls(INFINITY, value, error, None)

    def to_dict(self):
        place = "inf" if self.place == INFINITY else self.place
        out = {"place": place, "log_value": self.value, "abs_error": self.error}
        if self.coefficient is not None:
            out["log_p_coefficient"] = str(self.coefficient)
        return out


def _root_contributions(centres, radii, bits):
    """(sum of log max(|z|,1), certified error bound, float roundings in
    the sum, silent) for the roots z = (x + iy) / 2^bits of the exact
    centres (x, y), each in a disk of its float radius.  The sum is None
    and the bound inf unless the disks are bounded and pairwise disjoint,
    since only then does each hold exactly one root.  A disk inside
    |z| <= 1 adds exactly 0 (silent marks those that meet no other disk);
    any other adds log|z| = log1p(|z|^2 - 1) / 2, with |z|^2 - 1 exact, and
    the error term b / max(|z| - b, 1) rounded upward, which bounds how far
    log max(|w|, 1) strays from log max(|z|, 1) for |w - z| <= b."""
    if not all(math.isfinite(b) for b in radii):
        return None, math.inf, 0, [False] * len(radii)
    # work on a grid 2^64 times finer than the centres' and round each
    # radius up onto it
    bits += 64
    one = 1 << bits
    centres = [(x << 64, y << 64) for x, y in centres]
    rad = [-((-num << bits) // den)
           for num, den in (b.as_integer_ratio() for b in radii)]
    # sweep in order of real part: two disks farther apart in x than their
    # radii are disjoint, and so is every disk beyond them
    order = sorted(range(len(centres)), key=lambda k: centres[k][0])
    widest = max(rad)
    alone = [True] * len(centres)
    for pos, j in enumerate(order):
        xj, yj = centres[j]
        for k in order[pos + 1:]:
            xk, yk = centres[k]
            if xk - xj > rad[j] + widest:
                break
            if (xk - xj) ** 2 + (yk - yj) ** 2 <= (rad[j] + rad[k]) ** 2:
                alone[j] = alone[k] = False
    total, terms, silent = 0.0, [], []
    for (x, y), b, single in zip(centres, rad, alone):
        norm = x * x + y * y
        low = math.isqrt(norm)
        inside = low + (low * low < norm) + b <= one
        silent.append(single and inside)
        if inside:
            continue
        excess = norm - one * one
        if excess > 0:
            # |z|^2 - 1 is exact; beyond float64, floor(|z|^2) is as good
            total += 0.5 * (math.log1p(excess / (one * one))
                            if excess.bit_length() < 1000 + 2 * bits
                            else math.log(norm >> 2 * bits))
        terms.append(math.nextafter(b / max(low - b, one), math.inf))
    if not all(alone):
        return None, math.inf, 0, silent
    # each log: the quotient, log1p and the sum; fsum of the rounded-up
    # terms is off by at most half an ulp, so one more ulp covers it
    return (total, math.nextafter(math.fsum(terms), math.inf),
            3 * len(terms), silent)


def mahler_euclidean(f: LaurentPolynomial, tol: float = 1e-12) -> LogMeasure:
    """Euclidean log Mahler measure, certified to absolute error <= tol.

    log M(f) = log|lead f| + sum_i i * log M(q_i / lead(q_i)) over Yun's
    split f = content * prod q_i^i into primitive integer lists q_i, with
    at most one root pass per factor.  A factor is measured from the
    float64 roots of q_i / lead(q_i), taken as exact dyadic centres, when
    their a-priori radii certify its share of tol.  Else the roots are
    polished (Newton with Aberth's repulsion) on q_i in fixed point, at
    POLISH_BITS bits more than the share asks for, the bits doubling while
    the disks overlap or miss the share, up to POLISH_BITS_CAP, which is
    tried itself; their radii bound the residual radius from above.  A
    root silent in _root_contributions adds 0 and keeps its disk, grown by
    the move onto the polish grid.  The error bound covers the root
    enclosures and, as a rounding allowance, (k + 1) ulp(M) for the k
    float roundings (each root log of q_i counted i times), M the largest
    magnitude among the logs and the partial sums; it is never 0.  A
    factor with Fujiwara's root bound below 1 adds exactly 0; any other
    whose coefficients do not fit float64 is refused with ConvergenceError.

    Slot "roots" of memo.py keeps {q_i: (roots, radii)} from aberth_roots,
    keyed by the tuple of the q_i; the polish depends on tol and is not
    kept.
    """
    if f.is_zero:
        raise ZeroPolynomialError("Mahler measure of the zero polynomial")
    if not tol > 0:
        raise DomainError("tolerance must be positive")
    # logs of the exact integers, so no size of coefficient overflows
    lead = abs(f.leading_coefficient)
    num_log, den_log = math.log(lead.numerator), math.log(lead.denominator)
    value = num_log - den_log
    error = 0.0
    logs = 2        # float roundings in value
    peak = max(num_log, den_log)
    pairs = squarefree_split(f)
    kept = memo.last("roots", tuple(tuple(q) for q, _ in pairs), dict)
    for q, i in pairs:
        budget = tol / (2.0 * len(pairs) * i)
        # Fujiwara's bound below 1: every root has |z| < 1, log M(q) = 0
        if all(abs(c) << (len(q) - 1 - k - (k == 0)) < q[-1]
               for k, c in enumerate(q[:-1])):
            continue
        key = tuple(q)
        if key not in kept:
            try:
                roots, radii = aberth_roots([c / q[-1] for c in q])
            except OverflowError:
                raise ConvergenceError("a squarefree factor has "
                                       "coefficients beyond float64") from None
            kept[key] = (tuple(roots), tuple(radii))
        roots, radii = kept[key]
        centres, bits = dyadic(roots)
        start = POLISH_BITS + max(0, -math.frexp(budget)[1])
        for target in [*doubling(start, POLISH_BITS_CAP), None]:
            contrib, err, count, silent = _root_contributions(centres, radii,
                                                              bits)
            if err <= budget:
                break
            if target is None:
                raise ConvergenceError(
                    "root finder could not certify the requested tolerance")
            # the new grid moves a centre by < sqrt(2) of its units, which
            # the radius of a kept root grows by 2 units to cover
            centres = [(x << target >> bits, y << target >> bits)
                       for x, y in centres]
            radii = [math.nextafter(r + 2.0 ** (1 - target), math.inf)
                     for r in radii]
            bits = target
            centres, polished = polish_roots(q, centres, bits, silent)
            radii = [r if s is None else s for r, s in zip(radii, polished)]
        value += i * contrib
        error += i * err
        logs += i * count + 1
        # the root logs are >= 0, so i * contrib bounds them and their
        # partial sums
        peak = max(peak, i * contrib, abs(value))
    error += (logs + 1) * math.ulp(peak)
    if error > tol:
        raise ConvergenceError(
            "rounding allowance exceeds the requested tolerance")
    return LogMeasure.infinite(value, error)


def mahler_padic(f: LaurentPolynomial, p: int) -> LogMeasure:
    """p-adic log Mahler measure: -gauss_norm_valuation(f, p) * log p,
    defined for every nonzero f (roots on |z|_p = 1 included)."""
    check_prime(p)
    if f.is_zero:
        raise ZeroPolynomialError("Mahler measure of the zero polynomial")
    g = gauss_norm_valuation(f, p)
    # Newton-polygon Jensen product must reconstruct the same valuation
    if gauss_valuation_from_polygon(f, p) != g:
        raise ConvergenceError("polygon convention drifted from the Gauss norm")
    return LogMeasure.finite(p, Fraction(-g))


@dataclass
class ConvergenceReport:
    """A sequence of cyclic-resultant estimates with its extrapolated limit.

    Estimates are (1/n) log|R(f, nu_n)| at the infinite place and
    (1/n) (-v_p R(f, nu_n)) log p at a finite place; n with vanishing
    resultant are recorded in ``skipped`` and excluded, and at a finite
    place each sample also records whether gcd(n, p) = 1.
    """

    place: object
    samples: list = field(default_factory=list)   # (n, estimate[, coprime])
    skipped: list = field(default_factory=list)
    limit: float = 0.0
    closed_form: float | None = None
    abs_error: float | None = None
    notes: dict = field(default_factory=dict)

    def estimates(self, coprime_only=False):
        if self.place == INFINITY or not coprime_only:
            return [(n, est) for n, est, *_ in self.samples]
        return [(n, est) for n, est, cop in self.samples if cop]

    def to_dict(self):
        place = "inf" if self.place == INFINITY else self.place
        return {
            "place": place,
            "n": [s[0] for s in self.samples],
            "estimates": [s[1] for s in self.samples],
            "skipped_n": list(self.skipped),
            "limit": self.limit,
            "closed_form": self.closed_form,
            "abs_error": self.abs_error,
            "notes": dict(self.notes),
        }


def resultant_limit_estimate(f: LaurentPolynomial, place, n_max: int = 100,
                             skip_p_multiples: bool = False,
                             tol: float = 1e-9) -> ConvergenceReport:
    """Estimate the log Mahler measure at ``place`` from the exact cyclic
    resultants R(f, nu_n), n <= n_max, and compare with the closed form;
    f must be nonzero with integer coefficients.

    At a finite place both the restricted (gcd(n,p) = 1) and unrestricted
    sequences are recorded; ``skip_p_multiples`` selects which one the
    extrapolated limit uses.
    """
    f = normalize_integral(f)
    if n_max < 8:
        raise DomainError("n_max must be at least 8")
    finite = place != INFINITY
    if finite:
        check_prime(place)
        logp = math.log(place)
    report = ConvergenceReport(place=INFINITY if not finite else place)
    ns = range(1, n_max + 1)
    for n, r in zip(ns, cyclic_resultant_sweep(f, ns, "ones")):
        if r == 0:
            report.skipped.append(n)
            continue
        if finite:
            report.samples.append((n, -vp_int(r, place) / n * logp,
                                   math.gcd(n, place) == 1))
        else:
            report.samples.append((n, math.log(abs(r)) / n))
    chosen = report.estimates(coprime_only=skip_p_multiples)
    tail = chosen[-max(1, len(chosen) // 4):]
    values = sorted(est for _, est in tail)
    report.limit = values[len(values) // 2]
    closed = (mahler_padic(f, place) if finite
              else mahler_euclidean(f, tol=min(tol, 1e-10)))
    report.closed_form = closed.value
    report.abs_error = abs(report.limit - closed.value)
    first_err = abs(tail[0][1] - closed.value)
    last_err = abs(tail[-1][1] - closed.value)
    report.notes["tail_initial_error"] = first_err
    report.notes["tail_final_error"] = last_err
    report.notes["tail_error_decreasing"] = bool(last_err <= first_err + 1e-15)
    return report
