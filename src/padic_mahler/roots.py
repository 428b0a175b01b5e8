"""Simultaneous complex root finding (Aberth-Ehrlich) with residual bounds.

Initial guesses are placed deterministically on the circles of the Newton
polygon of the coefficient moduli (Bini's start), with golden-angle
spacing, so runs are reproducible and start near the roots' moduli.  A
guess whose residual reaches the float noise floor is frozen.
Each returned root carries the classical residual radius
n * |f(z)| / |f'(z)|: a disk of that radius around z contains a root of f.
In float64 the radius is an a-priori bound that absorbs the rounding of
the evaluation.  When that cannot certify the caller's tolerance the roots
are polished in fixed point on the exact integer coefficients: a centre is
a dyadic point (x + iy) / 2^bits with x, y Python ints.  One fixed-point
Horner kernel serves the polish steps and the radius, which it evaluates
with guard bits and a bound on its truncation error, rounded up to a
float.
"""

from __future__ import annotations

import cmath
import math

from .errors import ConvergenceError
from .polynomials import _derivative, _horner
from .valuations import _upper_hull

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
PHASE_OFFSET = 0.4142135623730951  # fixed, breaks real-axis symmetry

ITERATION_CAP = 200
POLISH_STEPS = 100


def aberth_roots(coeffs):
    """All complex roots of the sum coeffs[i] * t^i (float64 coefficients,
    len >= 2, nonzero leading term).  Returns (roots, radii).  The
    guesses start on the Newton-polygon circles (_start_moduli).  A guess
    whose residual |f(z_i)| lies within the float error bound of its
    evaluation, the noise floor below which steps only jitter, is frozen
    there; it still repels the others.  The iteration stops once no guess
    moves by more than 1e-14 of its modulus."""
    n = len(coeffs) - 1
    deriv = _derivative(coeffs)
    sizes = [abs(c) for c in coeffs]
    z = [r * cmath.exp(1j * (PHASE_OFFSET + GOLDEN_ANGLE * k))
         for k, r in enumerate(_start_moduli(sizes))]
    # the coefficients and Horner's rule round f(z) by at most
    # unit * sum |a_i| |z|^i, the noise floor; `inside` bounds it on |z| <= 1
    unit = 8.0 * n * 2.2e-16
    inside = unit * sum(sizes)

    def noise(zi):
        return unit * _horner(sizes, abs(zi))

    def slack(zi):
        # the bound the radii absorb, as coarse as `inside` on |z| <= 1
        return inside if abs(zi) <= 1.0 else noise(zi)

    active = list(range(n))
    for _ in range(ITERATION_CAP):
        moving = False
        for i in list(active):
            zi = z[i]
            fv = _horner(coeffs, zi)
            # the floor at |z| itself is tight near 0, so a guess on a small
            # circle is frozen only once it has reached a root; `inside`
            # spares its Horner pass while the residual is large
            residual = abs(fv)
            if (residual <= inside or abs(zi) > 1.0) and \
                    residual <= noise(zi):
                active.remove(i)
                continue
            dv = _horner(deriv, zi)
            repel = sum(1.0 / (zi - z[j]) for j in range(n) if j != i)
            denom = dv - fv * repel
            if denom == 0:
                denom = 1e-300
            step = fv / denom
            z[i] = zi - step
            # tiny against |z|, not against one scale: the start circles
            # may lie many orders of magnitude apart
            moving = moving or abs(step) > 1e-14 * abs(zi)
        if not moving:
            break
    else:
        raise ConvergenceError(
            f"Aberth iteration did not settle within {ITERATION_CAP} steps")
    if not all(cmath.isfinite(zi) for zi in z):
        raise ConvergenceError("Aberth iteration left the float64 range")
    radii = []
    for zi in z:
        fv = abs(_horner(coeffs, zi))
        dv = abs(_horner(deriv, zi))
        s = slack(zi)
        radii.append(math.inf if dv <= s else n * (fv + s) / (dv - s))
    return z, radii


def _start_moduli(sizes):
    """One start modulus per root of sum sizes[i] * t^i (absolute values,
    nonzero at the top end): the radii of the upper convex hull of the
    points (i, log sizes[i]).  An edge from i to j puts j - i guesses on
    the circle of radius (sizes[i] / sizes[j])^(1 / (j - i)), near which
    that many roots lie (Bini 1996)."""
    # a size that rounded to 0 stays a point, at the least positive float,
    # so the hull spans 0..n; inside it lies below the chord and drops out
    pts = [(i, math.log(max(s, 5e-324))) for i, s in enumerate(sizes)]
    hull = _upper_hull(pts)
    return [math.exp((li - lj) / (j - i))
            for (i, li), (j, lj) in zip(hull, hull[1:]) for _ in range(i, j)]


def dyadic(roots):
    """(centres, bits) with each complex float root equal to the exact
    dyadic point (x + iy) / 2^bits of its centre (x, y)."""
    parts = [v.as_integer_ratio() for z in roots for v in (z.real, z.imag)]
    bits = max(den for _, den in parts).bit_length() - 1
    ints = [num << bits >> den.bit_length() - 1 for num, den in parts]
    return list(zip(ints[::2], ints[1::2])), bits


def polish_roots(q, centres, bits, fixed):
    """Polish approximate roots of the squarefree integer polynomial
    f = sum q[i] * t^i in fixed point at 2^-bits: a centre (x, y) is the
    dyadic point (x + iy) / 2^bits.  Each step is Newton's, with Aberth's
    repulsion from the other centres so two approximations near one root
    do not merge; a centre stops at the noise floor of the fixed-point
    evaluation, or after POLISH_STEPS sweeps, and one marked in ``fixed``
    never moves.  Returns (centres, radii), each radius a float >=
    deg(f) * |f(z)| / |f'(z)| at its centre, so the disk holds a root of
    f, or None for a fixed centre."""
    d, one = len(q) - 1, 1 << bits
    top = [c << bits for c in q]
    zs = list(centres)
    settled = list(fixed)
    for _ in range(POLISH_STEPS):
        for i, (x, y) in enumerate(zs):
            if settled[i]:
                continue
            fr, fi, dr, di, e = _fixed_point_horner(top, x, y, bits)
            # settled once the residual is within what a move of one grid
            # unit or the truncations explain
            noise = 1 << e + (2 * d).bit_length()
            if max(abs(fr), abs(fi)) <= \
                    4 * ((max(abs(dr), abs(di)) >> bits) + noise):
                settled[i] = True
                continue
            den = dr * dr + di * di
            if not den:
                # f'(z) = 0 at no root of the squarefree f: a centre rounded
                # onto a critical point steps one grid unit off it
                zs[i] = (x + 1, y + 1)
                continue
            sr = ((fr * dr + fi * di) << bits) // den
            si = ((fi * dr - fr * di) << bits) // den
            # Aberth's factor 1 / (1 - N S), N the Newton step and S the sum
            # of 1 / (z - w) over the other centres w, in float from exact
            # differences; it steers the step and certifies nothing
            repel = sum(1 / complex((x - u) / one, (y - v) / one)
                        for u, v in zs if u != x or v != y)
            g = 1 - complex(sr / one, si / one) * repel
            if g and abs(g) > 1e-30:
                g = 1 / g
                gr, gi = round(g.real * 2 ** 60), round(g.imag * 2 ** 60)
                sr, si = (sr * gr - si * gi) >> 60, (sr * gi + si * gr) >> 60
            zs[i] = (x - sr, y - si)
        if all(settled):
            break
    return zs, [None if keep else _residual_radius(q, x, y, bits)
                for (x, y), keep in zip(zs, fixed)]


def _fixed_point_horner(top, x, y, bits):
    """(fr, fi, dr, di, e): f(z) 2^bits ~ fr + i fi and f'(z) 2^bits ~
    dr + i di at z = (x + iy) / 2^bits, for top = f's coefficients times
    2^bits, each product truncated onto the grid.  A truncation is off by
    < sqrt(2) units and later steps multiply it by z, so the errors stay
    below d 2^e and d^2 2^e units, with 2^e >= sqrt(2) max(1, |z|)^(d-1)
    (half a bit to spare for float roundings; |z| from x and y cut to ~60
    bits, so no size overflows a float)."""
    fr, fi, dr, di = top[-1], 0, 0, 0
    for c in reversed(top[:-1]):
        dr, di = (((dr * x - di * y) >> bits) + fr,
                  ((dr * y + di * x) >> bits) + fi)
        fr, fi = (((fr * x - fi * y) >> bits) + c,
                  (fr * y + fi * x) >> bits)
    shift = max(0, max(abs(x), abs(y)).bit_length() - 60)
    log_z = math.log2(math.hypot((abs(x) >> shift) + 1,
                                 (abs(y) >> shift) + 1)) + shift - bits
    return fr, fi, dr, di, math.ceil((len(top) - 2) * max(0.0, log_z)) + 1


def _residual_radius(q, x, y, bits):
    """A float >= d * |f(z)| / |f'(z)| at z = (x + iy) / 2^bits (inf where
    f'(z) may be 0 or the radius is beyond float64): _fixed_point_horner
    at 2^-(2 bits), bits guard bits, gives F ~ f(z) and D ~ f'(z) within
    E and E', and d (|F| + E) / (|D| - E') is rounded upward."""
    d, fine = len(q) - 1, 2 * bits
    fr, fi, dr, di, e = _fixed_point_horner([c << fine for c in q],
                                            x << bits, y << bits, fine)
    num = d * (math.isqrt(fr * fr + fi * fi) + 1 + (d << e))
    den = math.isqrt(dr * dr + di * di) - (d * d << e)
    if den <= 0:
        return math.inf
    try:
        return math.nextafter(num / den, math.inf)
    except OverflowError:
        return math.inf
