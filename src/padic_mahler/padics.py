"""Truncated p-adic numbers with explicit, pessimistic precision tracking.

A nonzero value is p^v * u with the unit u known modulo p^N (relative
precision N, absolute precision v + N).  Zero is tracked as O(p^k): a bound,
not a value.  Arithmetic never reports more precision than it can justify:
addition works at the minimum absolute precision, multiplication and
inversion at the minimum relative precision.  On top of the arithmetic sit
Newton--Hensel root lifting, the Teichmuller lift of residues, and the
p-adic logarithm in the branch normalized by log(p) = 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import (
    ConvergenceError,
    DomainError,
    HenselError,
    PrecisionError,
)
from .ntheory import INFINITY, check_prime, doubling, vp_int
from .polynomials import (LaurentPolynomial, _derivative, _horner, _poly_add,
                          _poly_divmod, _poly_mul, _poly_sub,
                          normalize_integral)


class PadicNumber:
    """p^v * u + O(p^(v+N)), or a tracked zero O(p^k)."""

    __slots__ = ("p", "v", "unit", "N")

    def __init__(self, p: int, v, unit: int, N: int):
        self.p = p
        if unit == 0:
            # tracked zero: v carries the absolute precision bound
            self.v = v
            self.unit = 0
            self.N = 0
            return
        if N < 1:
            raise PrecisionError("a nonzero p-adic number needs N >= 1")
        unit %= p**N
        if unit % p == 0:
            raise ValueError("unit part must be coprime to p")
        self.v = v
        self.unit = unit
        self.N = N

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, p: int, abs_precision=INFINITY) -> "PadicNumber":
        return cls(p, abs_precision, 0, 0)

    @classmethod
    def from_int(cls, x: int, p: int, N: int) -> "PadicNumber":
        check_prime(p)
        if N < 1:
            raise PrecisionError("precision must be at least 1 digit")
        if x == 0:
            return cls.zero(p)
        v = vp_int(x, p)
        return cls(p, v, (x // p**v) % p**N, N)

    @classmethod
    def from_fraction(cls, x, p: int, N: int) -> "PadicNumber":
        x = Fraction(x)
        if N < 1:
            raise PrecisionError("precision must be at least 1 digit")
        if x == 0:
            return cls.zero(p)
        check_prime(p)
        vn = vp_int(x.numerator, p)
        vd = vp_int(x.denominator, p)
        mod = p**N
        num_unit = (x.numerator // p**vn) % mod
        den_unit = (x.denominator // p**vd) % mod
        return cls(p, vn - vd, num_unit * pow(den_unit, -1, mod) % mod, N)

    @classmethod
    def one(cls, p: int, N: int) -> "PadicNumber":
        return cls(p, 0, 1, N)

    # -- structure ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.unit == 0

    @property
    def valuation(self):
        """Exact valuation for nonzero values; for a tracked zero this is
        the O() bound, a lower bound on the valuation."""
        return self.v

    @property
    def abs_precision(self):
        return self.v if self.is_zero else self.v + self.N

    def _check_same_field(self, other: "PadicNumber"):
        if self.p != other.p:
            raise DomainError(f"prime mismatch: {self.p} vs {other.p}")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "PadicNumber") -> "PadicNumber":
        self._check_same_field(other)
        p = self.p
        prec = min(self.abs_precision, other.abs_precision)
        if self.is_zero and other.is_zero:
            return PadicNumber.zero(p, prec)
        if self.is_zero or other.is_zero:
            x = other if self.is_zero else self
            if x.v >= prec:
                return PadicNumber.zero(p, prec)
            return PadicNumber(p, x.v, x.unit % p ** (prec - x.v), prec - x.v)
        if prec == INFINITY:
            raise PrecisionError("cannot add two values of infinite precision")
        shift = min(self.v, other.v)
        span = prec - shift
        total = (self.unit * p ** (self.v - shift)
                 + other.unit * p ** (other.v - shift)) % p**span
        if total == 0:
            return PadicNumber.zero(p, prec)
        w = vp_int(total, p)
        return PadicNumber(p, shift + w, total // p**w, span - w)

    def __neg__(self) -> "PadicNumber":
        if self.is_zero:
            return self
        return PadicNumber(self.p, self.v, self.p**self.N - self.unit, self.N)

    def __sub__(self, other: "PadicNumber") -> "PadicNumber":
        return self + (-other)

    def __mul__(self, other: "PadicNumber") -> "PadicNumber":
        self._check_same_field(other)
        p = self.p
        if self.is_zero or other.is_zero:
            if self.is_zero and other.is_zero:
                return PadicNumber.zero(p, self.v + other.v)
            zero, x = (self, other) if self.is_zero else (other, self)
            return PadicNumber.zero(p, zero.v + x.v)
        N = min(self.N, other.N)
        return PadicNumber(p, self.v + other.v,
                           self.unit * other.unit % p**N, N)

    def inverse(self) -> "PadicNumber":
        if self.is_zero:
            raise DomainError("cannot invert a tracked zero")
        return PadicNumber(self.p, -self.v,
                           pow(self.unit, -1, self.p**self.N), self.N)

    def __truediv__(self, other: "PadicNumber") -> "PadicNumber":
        return self * other.inverse()

    def __pow__(self, k: int) -> "PadicNumber":
        if not isinstance(k, int):
            raise TypeError("p-adic exponent must be an integer")
        if k < 0:
            return self.inverse() ** (-k)
        if self.is_zero:
            if k == 0:
                return PadicNumber.one(self.p, 1)
            return PadicNumber.zero(self.p, self.v * k)
        return PadicNumber(self.p, self.v * k,
                           pow(self.unit, k, self.p**self.N), self.N)

    # -- comparisons and digits -------------------------------------------

    def agreement_valuation(self, other: "PadicNumber"):
        """v_p(self - other), or the O() bound when the difference is a
        tracked zero; the natural 'number of agreeing digits' measured from
        the p^0 place."""
        diff = self - other
        return diff.v

    def truncate(self, abs_precision) -> "PadicNumber":
        """Forget digits beyond absolute precision abs_precision."""
        if abs_precision >= self.abs_precision:
            return self
        if self.is_zero or self.v >= abs_precision:
            return PadicNumber.zero(self.p, abs_precision)
        N = abs_precision - self.v
        return PadicNumber(self.p, self.v, self.unit % self.p**N, N)

    def digits(self, count=None):
        """Base-p digits of the unit part, least significant first."""
        if self.is_zero:
            return []
        count = self.N if count is None else min(count, self.N)
        u = self.unit
        out = []
        for _ in range(count):
            u, d = divmod(u, self.p)
            out.append(d)
        return out

    def digit_string(self, count=None) -> str:
        """Digits most-significant-first with the O() marker, e.g.
        '...2101 * 3^1 + O(3^5)'."""
        if self.is_zero:
            return f"O({self.p}^{self.v})"
        ds = self.digits(count)
        body = "".join(str(d) for d in reversed(ds))
        return f"...{body} * {self.p}^{self.v} + O({self.p}^{self.abs_precision})"

    def __eq__(self, other):
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return (self.p, self.v, self.unit, self.N) == \
            (other.p, other.v, other.unit, other.N)

    def __hash__(self):
        return hash((self.p, self.v, self.unit, self.N))

    def __repr__(self):
        if self.is_zero:
            return f"O({self.p}^{self.v})"
        return f"{self.unit} * {self.p}^{self.v} + O({self.p}^{self.v + self.N})"


# -- Hensel lifting -------------------------------------------------------


def hensel_lift(f: LaurentPolynomial, p: int, start: int,
                start_exponent: int = 1, N: int = 20) -> PadicNumber:
    """Newton-lift the root of f in Z_p determined by the residue class
    ``start`` mod p^start_exponent, to unit precision N.

    Requires the strong Hensel condition v(f(start)) > 2 v(f'(start)); the
    iteration then converges quadratically to the unique root in the class,
    and the returned value satisfies v(f(root)) >= N + v(f'(root)) (checked).
    """
    check_prime(p)
    if N < 1:
        raise PrecisionError("precision must be at least 1 digit")
    coeffs = normalize_integral(f).integer_coefficients_ascending()
    if len(coeffs) == 1:
        raise DomainError("a nonzero constant has no roots")
    deriv = _derivative(coeffs)
    x = start % p**start_exponent
    fx = _horner(coeffs, x)
    dfx = _horner(deriv, x)
    e = vp_int(dfx, p)
    vf = vp_int(fx, p)
    if e is INFINITY or not vf > 2 * e:
        raise HenselError(
            f"v(f({start})) = {vf} is not > 2*v(f'({start})) = 2*{e}")
    # Work modulo p^M; the root's unit part only needs N digits but the
    # update loses e digits per division by f'(x).
    M = N + 2 * e + start_exponent + 8
    mod = p**M
    target = N + e + 4
    x %= mod
    for _ in range(64):
        fx = _horner(coeffs, x) % mod
        if fx == 0:
            break
        if vp_int(fx, p) >= target:
            break
        dfx = _horner(deriv, x) % mod
        scale = p**e
        q = (fx // scale) * pow((dfx // scale) % mod, -1, mod) % mod
        x = (x - q) % mod
    fx_final = _horner(coeffs, x)
    achieved = vp_int(fx_final % mod, p)
    if achieved is not INFINITY and achieved < target:
        raise HenselError("Newton iteration failed to reach the certified "
                          f"residual (got v={achieved}, wanted {target})")
    if x % mod == 0:
        # the root is divisible by an uncomfortably large power of p
        return PadicNumber.zero(p, M)
    w = vp_int(x, p)
    return PadicNumber(p, w, (x // p**w) % p**N, N)


def _unit_root_factor(F, p: int, K: int):
    """The monic factor f0 of F over Z_p whose roots are the p-adic units
    (the horizontal segment of the Newton polygon), modulo p^K.

    F is an ascending integer coefficient list with F[0] != 0 and at least
    two p-unit coefficients.  With i0 < i1 the lowest and highest indices
    of those, F = t^i0 * c * f0bar mod p, where f0bar is monic of
    degree i1 - i0 with f0bar(0) != 0, so the two factors are coprime mod p.
    They are lifted by the quadratic Hensel step of von zur Gathen and
    Gerhard (Modern Computer Algebra, Alg. 15.10) with the monic f0 as the
    divisor, the cofactor g absorbing the degree that vanishes mod p; the
    lift is checked (F = g f0 mod p^K) before it is returned.  When every
    root is a unit (i0 = 0, i1 = deg F) there is nothing to lift: f0 is
    F times the inverse of lead(F) mod p^K, one division.
    """
    units = [i for i, c in enumerate(F) if c % p]
    i0, i1 = units[0], units[-1]
    if i0 == 0 and i1 == len(F) - 1:
        mod = p**K
        c_inv = pow(F[i1], -1, mod)
        return [x * c_inv % mod for x in F]
    c_inv = pow(F[i1] % p, -1, p)
    h = [x * c_inv % p for x in F[i0:i1 + 1]]       # f0 mod p
    g = [0] * i0 + [F[i1] % p]                      # c t^i0
    # s = (c t^i0)^(-1) mod h: i0 exact divisions by t mod h, h(0) != 0
    s, h0_inv = [c_inv], pow(h[0], -1, p)
    for _ in range(i0):
        lam = s[0] * h0_inv
        s = _poly_sub(s, [lam * y for y in h], p)[1:]
    # t = (1 - s g) / h, an exact division since s g = 1 mod h
    t, _ = _poly_divmod(_poly_sub([1], _poly_mul(s, g, p), p), h, p)
    for k in doubling(2, K):
        mod = p**k
        # F = g h + e, s g + t h = 1 + b, both corrections = 0 mod p^(k/2)
        e = _poly_sub(F, _poly_mul(g, h, mod), mod)
        q, r = _poly_divmod(_poly_mul(s, e, mod), h, mod)
        g = _poly_add(g, _poly_add(_poly_mul(t, e, mod),
                                   _poly_mul(q, g, mod), mod), mod)
        h = _poly_add(h, r, mod)
        if k == K:  # the last step needs no new Bezout pair
            break
        b = _poly_sub(_poly_add(_poly_mul(s, g, mod), _poly_mul(t, h, mod),
                                mod), [1], mod)
        c, d = _poly_divmod(_poly_mul(s, b, mod), h, mod)
        s = _poly_sub(s, d, mod)
        t = _poly_sub(t, _poly_add(_poly_mul(t, b, mod),
                                   _poly_mul(c, g, mod), mod), mod)
    if _poly_sub(F, _poly_mul(g, h, p**K), p**K) != [0]:
        raise ConvergenceError("unit-root factor failed its lift check")
    return h


def teichmuller(a: int, p: int, N: int) -> PadicNumber:
    """The (p-1)-th root of unity omega = a mod p in Z_p, mod p^N: a = omega u
    with u = 1 mod p and u^(p^k) = 1 mod p^(k+1), so omega = a^(p^(N-1))."""
    check_prime(p)
    if N < 1:
        raise PrecisionError("precision must be at least 1 digit")
    if a % p == 0:
        raise DomainError("Teichmuller lift needs a unit residue")
    return PadicNumber(p, 0, pow(a, p**(N - 1), p**N), N)


# -- the Iwasawa-branch logarithm ------------------------------------------


def _log_one_plus(z: int, p: int, K: int) -> PadicNumber:
    """log(1 + z) + O(p^K) for an integer z with v_p(z) >= 1 (>= 2 if
    p = 2), summed on integers after an argument reduction.

    Let w = v_p(z) and y = (1 + z)^(p^j) - 1.  Then v_p(y) = w + j, since
    (1 + x)^p - 1 = p x + (terms of valuation >= 2 v(x) + 1) + x^p, with
    p v(x) > v(x) + 1 (v(x) >= 2 when p = 2).  And log(1 + y) = p^j
    log(1 + z), as log turns products into sums.  So the series of
    log(1 + y) is summed mod p^(K + j), in about (K + j) / (w + j) terms
    against K / w for z, and divided exactly by p^j: that is log(1 + z)
    mod p^K.  j = isqrt(K / 2w) balances the j powerings by p against the
    terms saved; j = 0 sums the series of z itself.  Any representative of
    z mod p^K gives the same digits: changing z by p^K moves
    (1 + z)^(p^j) by p^(K + j), and so every y^k/k by valuation
    >= K + j."""
    z %= p**K
    if z == 0:
        return PadicNumber.zero(p, K)
    w = vp_int(z, p)
    j = isqrt(K // (2 * w))
    Kj = K + j
    y = pow(1 + z, p**j, p**Kj) - 1
    w += j
    # v(y^k / k) >= k*w - v_p(k) > k*w - bit_length(k) - 2: the terms from
    # the first k > 4 where that bound reaches K + j on are all O(p^(K + j))
    stop = 5
    while stop * w - (stop.bit_length() + 2) < Kj:
        stop += 1
    # y^k is kept mod p^(K + j + bit_length(stop)): v_p(k) < bit_length(stop),
    # so the division by p^v_p(k) leaves K + j digits
    mod, wide = p**Kj, p ** (Kj + stop.bit_length())
    total, yk = 0, 1
    for k in range(1, stop):
        yk = yk * y % wide
        vk = vp_int(k, p)
        term = yk // p**vk * pow(k // p**vk, -1, mod)
        total += term if k % 2 else -term
    total, r = divmod(total % mod, p**j)
    if r:
        raise ConvergenceError("log(1 + y) must be divisible by p^j")
    if total == 0:
        return PadicNumber.zero(p, K)
    v = vp_int(total, p)
    return PadicNumber(p, v, total // p**v, K - v)


def padic_log(x: PadicNumber) -> PadicNumber:
    """Iwasawa-branch p-adic logarithm: log(p) = 0, and on a unit u,
    log u = log(u^e)/e with e = p - 1 (e = 2 if p = 2), as u^e is a
    1-unit (u^2 = 1 mod 8 if p = 2)."""
    if x.is_zero:
        raise DomainError("logarithm of a tracked zero")
    p, N = x.p, x.N
    e = p - 1 if p > 2 else 2
    body = _log_one_plus(pow(x.unit, e, p**N) - 1, p, N)
    return body / PadicNumber.from_int(e, p, N)


def padic_log_of_int(n: int, p: int, N: int) -> PadicNumber:
    """log of a nonzero integer (sign and p-power part contribute 0)."""
    if n == 0:
        raise DomainError("logarithm of zero")
    return padic_log(PadicNumber.from_int(abs(n), p, N))
