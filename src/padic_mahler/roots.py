"""Simultaneous complex root finding (Aberth-Ehrlich) with residual bounds.

Initial guesses are placed deterministically on a circle of radius
sqrt(Cauchy bound) with golden-angle spacing, so runs are reproducible.
Each returned root carries the classical residual radius
n * |f(z)| / |f'(z)|: a disk of that radius around z contains a root of f.
When float64 cannot certify the caller's tolerance the roots are polished
with a fixed number of high-precision Newton steps (mpmath) and the radii
recomputed, both kept as mpmath values.
"""

from __future__ import annotations

import cmath
import math

import mpmath

from .errors import ConvergenceError
from .polynomials import _derivative, _horner

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
PHASE_OFFSET = 0.4142135623730951  # fixed, breaks real-axis symmetry

ITERATION_CAP = 200


def aberth_roots(monic):
    """All complex roots of the monic sum monic[i] * t^i (float64
    coefficients, len >= 2, nonzero constant term).  Returns (roots,
    radii)."""
    n = len(monic) - 1
    deriv = _derivative(monic)
    cauchy = 1.0 + max(abs(c) for c in monic[:-1])
    radius = math.sqrt(cauchy)
    z = [radius * cmath.exp(1j * (PHASE_OFFSET + GOLDEN_ANGLE * k))
         for k in range(n)]
    for _ in range(ITERATION_CAP):
        moved = 0.0
        for i in range(n):
            zi = z[i]
            fv = _horner(monic, zi)
            if fv == 0:
                continue
            dv = _horner(deriv, zi)
            repel = sum(1.0 / (zi - z[j]) for j in range(n) if j != i)
            denom = dv - fv * repel
            if denom == 0:
                denom = 1e-300
            step = fv / denom
            z[i] = zi - step
            moved = max(moved, abs(step))
        if moved < 1e-14 * max(1.0, radius):
            break
    else:
        raise ConvergenceError(
            f"Aberth iteration did not settle within {ITERATION_CAP} steps")
    radii = []
    for zi in z:
        fv = abs(_horner(monic, zi))
        dv = abs(_horner(deriv, zi))
        scale = sum(abs(c) * max(1.0, abs(zi)) ** k for k, c in enumerate(monic))
        slack = 8.0 * n * 2.2e-16 * scale
        if dv <= slack:
            radii.append(math.inf)
        else:
            radii.append(n * (fv + slack) / (dv - slack))
    return z, radii


def polish_roots(coeffs, roots, digits):
    """Newton-polish approximate roots at `digits` decimal digits from the
    exact rational coefficients of a monic polynomial; returns (roots,
    radii) as mpmath values, so a caller working at `digits` + 10 loses
    none of them."""
    n = len(coeffs) - 1
    with mpmath.workdps(digits + 10):
        monic = [mpmath.mpf(c.numerator) / c.denominator for c in coeffs]
        deriv = _derivative(monic)
        out, radii = [], []
        for z0 in roots:
            z = mpmath.mpc(z0)
            for _ in range(60):
                fv = _horner(monic, z)
                dv = _horner(deriv, z)
                if dv == 0:
                    break
                step = fv / dv
                z = z - step
                if abs(step) < mpmath.mpf(10) ** (-(digits + 5)):
                    break
            fv = abs(_horner(monic, z))
            dv = abs(_horner(deriv, z))
            if dv == 0:
                radii.append(mpmath.inf)
            else:
                radii.append(n * fv / dv + mpmath.mpf(10) ** (-(digits + 2)))
            out.append(z)
    return out, radii
