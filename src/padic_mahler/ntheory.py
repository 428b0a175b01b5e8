"""Small exact number-theory helpers used across the package.

Valuations are plain ints, with ``math.inf`` standing in for the valuation
of zero; this keeps comparisons and ``min``/``max`` trivial.
"""

import itertools
import math
from fractions import Fraction

from .errors import DomainError

INFINITY = math.inf

# Deterministic Miller-Rabin witnesses, valid for every n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise DomainError(f"{p!r} is not a prime number")
    return p


def vp_int(n: int, p: int):
    """p-adic valuation of an integer; vp(0) = INFINITY."""
    if n == 0:
        return INFINITY
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(x, p: int):
    """p-adic valuation of an int or Fraction (anything else is converted
    by Fraction() first); vp(0) = INFINITY."""
    check_prime(p)
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def doubling(start: int, cap: int):
    """Yield start, 2 start, 4 start, .. while below cap, then cap."""
    while start < cap:
        yield start
        start *= 2
    yield cap


_TRIAL_BOUND = 1 << 8
_RHO_BUDGET = 1 << 21      # rho steps per composite cofactor


def factorize(n: int) -> dict:
    """{prime: exponent} for |n| >= 1, ascending: trial division below
    _TRIAL_BOUND, then Pollard's rho in Brent's form (Pollard 1975; Brent
    1980) on each cofactor that is_prime rejects.  A cofactor that rho
    cannot split within _RHO_BUDGET steps is a DomainError naming it."""
    n = abs(n)
    if n == 0:
        raise DomainError("cannot factor 0")
    factors = {}
    for q in range(2, _TRIAL_BOUND):
        while n % q == 0:
            factors[q] = factors.get(q, 0) + 1
            n //= q
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < _TRIAL_BOUND ** 2 or is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _rho_divisor(m)
            stack += [d, m // d]
    return dict(sorted(factors.items()))


def _rho_divisor(n: int) -> int:
    """A proper divisor of a composite n with no prime below _TRIAL_BOUND:
    Brent's cycle search on x -> x^2 + c mod n, one gcd per 128 steps."""
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps + 2 * r > _RHO_BUDGET:
                raise DomainError(f"cannot factor {n}: Pollard rho found "
                                  f"no divisor within {_RHO_BUDGET} steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                if g > 1:
                    break
            steps += 2 * r
            r *= 2
        if g < n:    # g == n: every prime closed its cycle in one batch
            return g
