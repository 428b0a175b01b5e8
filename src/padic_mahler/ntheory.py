"""Small exact number-theory helpers used across the package.

Valuations are plain ints, with ``math.inf`` standing in for the valuation
of zero; this keeps comparisons and ``min``/``max`` trivial.
"""

import math
from fractions import Fraction

from .errors import DomainError

INFINITY = math.inf

# Deterministic Miller-Rabin witnesses, valid for every n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == q:
            return True
        if n % q == 0:
            return False
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
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(x, p: int):
    """p-adic valuation of an int or Fraction; vp(0) = INFINITY."""
    check_prime(p)
    if isinstance(x, int):
        return vp_int(x, p)
    x = Fraction(x)
    if x == 0:
        return INFINITY
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def modinv(a: int, m: int) -> int:
    return pow(a, -1, m)


def trial_factor(n: int, bound: int = 10**9):
    """Factor |n| by trial division up to ``bound``.

    Returns (factors, leftover) with factors a {prime: exponent} dict and
    leftover the unfactored cofactor (1 when the factorization completed).
    """
    n = abs(n)
    if n == 0:
        raise DomainError("cannot factor 0")
    factors = {}
    for q in (2, 3):
        while n % q == 0:
            factors[q] = factors.get(q, 0) + 1
            n //= q
    d = 5
    while d * d <= n and d <= bound:
        for q in (d, d + 2):
            while n % q == 0:
                factors[q] = factors.get(q, 0) + 1
                n //= q
        d += 6
    if n > 1:
        if n <= bound or is_prime(n):
            factors[n] = factors.get(n, 0) + 1
            n = 1
    return factors, n
