import random
from fractions import Fraction

import pytest

from padic_mahler import padics
from padic_mahler.errors import DomainError, HenselError, PrecisionError
from padic_mahler.ntheory import INFINITY, vp_int
from padic_mahler.padics import (
    PadicNumber,
    _unit_root_factor,
    hensel_lift,
    padic_log,
    padic_log_of_fraction,
    padic_log_of_int,
    teichmuller,
)
from padic_mahler.parsing import parse_laurent
from padic_mahler.polynomials import _poly_divmod


class TestArithmetic:
    def test_addition(self):
        s = PadicNumber.from_int(1, 2, 5) + PadicNumber.from_int(2, 2, 5)
        assert (s.v, s.unit) == (0, 3) and s.abs_precision == 5

    def test_inverse(self):
        inv = PadicNumber(2, 0, 3, 4).inverse()
        assert inv.unit == 11 and 3 * 11 % 16 == 1

    def test_multiplication_relative_precision(self):
        prod = PadicNumber.from_int(2, 2, 6) * PadicNumber.from_int(4, 2, 6)
        assert prod.v == 3 and prod.N == 6

    def test_addition_absolute_precision(self):
        # 1 + O(2^3) plus 16 + O(2^10): the sum is only known mod 2^3
        a = PadicNumber(2, 0, 1, 3)
        b = PadicNumber(2, 4, 1, 6)
        assert (a + b).abs_precision == 3

    def test_cancellation_produces_tracked_zero(self):
        a = PadicNumber(5, 0, 7, 4)
        z = a - a
        assert z.is_zero and z.v == 4

    def test_prime_mismatch(self):
        with pytest.raises(DomainError):
            PadicNumber.from_int(1, 2, 4) + PadicNumber.from_int(1, 3, 4)

    def test_zero_division(self):
        with pytest.raises(DomainError):
            PadicNumber.zero(3, 5).inverse()

    def test_from_fraction(self):
        x = PadicNumber.from_fraction(Fraction(9, 2), 3, 4)
        assert x.v == 2
        assert x.unit * 2 % 3**4 == 1    # the unit is 1/2 mod 3^4

    @pytest.mark.parametrize("N", [0, -2])
    def test_nonpositive_precision_rejected(self, N):
        for x in (3, 0):
            with pytest.raises(PrecisionError):
                PadicNumber.from_int(x, 2, N)
            with pytest.raises(PrecisionError):
                PadicNumber.from_fraction(Fraction(x, 5), 2, N)

    def test_negative_valuation_sum(self):
        # 1/2 + 1/2 = 1
        half = PadicNumber.from_fraction(Fraction(1, 2), 2, 6)
        one = half + half
        assert (one.v, one.unit) == (0, 1)

    def test_repr_format(self):
        x = PadicNumber(3, 1, 7, 2)
        assert repr(x) == "7 * 3^1 + O(3^3)"

    def test_agreement_valuation(self):
        a = PadicNumber(2, 0, 0b10111, 8)
        b = PadicNumber(2, 0, 0b00111, 8)
        assert a.agreement_valuation(b) == 4

    def test_tracked_arithmetic_against_fractions(self):
        rng = random.Random(37)
        for p in (2, 3, 7):
            for _ in range(60):
                x = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 30))
                y = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 30))
                N = 10
                X = PadicNumber.from_fraction(x, p, N)
                Y = PadicNumber.from_fraction(y, p, N)
                for op, ref in (("add", x + y), ("mul", x * y)):
                    got = X + Y if op == "add" else X * Y
                    if ref == 0:
                        assert got.is_zero
                        continue
                    want = PadicNumber.from_fraction(ref, p, N)
                    agree = got.agreement_valuation(want)
                    assert agree >= got.abs_precision, (p, x, y, op)


class TestHensel:
    def test_sqrt_minus_seven(self):
        r = hensel_lift(parse_laurent("t^2 + 7"), 2, 5, 4, 4)
        assert r.v == 0 and r.unit % 16 == 5
        assert (r.unit * r.unit + 7) % 16 == 0

    def test_sqrt_two_mod_343(self):
        r = hensel_lift(parse_laurent("t^2 - 2"), 7, 3, 1, 3)
        assert pow(r.unit, 2, 7**3) == 2

    def test_linear_is_exact(self):
        r = hensel_lift(parse_laurent("t - 1"), 5, 1, 1, 8)
        assert (r.v, r.unit) == (0, 1)

    def test_residual_certificate(self):
        f = parse_laurent("t^3 - t - 1")     # root = 2 mod 5 is simple
        r = hensel_lift(f, 5, 2, 1, 12)
        value = r.unit * 5**r.v
        assert vp_int(value**3 - value - 1, 5) >= 12

    def test_strong_condition_rejected(self):
        with pytest.raises(HenselError):
            hensel_lift(parse_laurent("t^2 - 2"), 2, 0, 1, 4)

    def test_double_root_rejected(self):
        with pytest.raises(HenselError):
            hensel_lift(parse_laurent("(t-1)^2"), 3, 1, 1, 4)

    def test_nonunit_derivative_strong_case(self):
        # f(t) = t^2 + 7 at start 5 has v(f') = 1, v(f(5)) = 5 > 2
        r = hensel_lift(parse_laurent("t^2 + 7"), 2, 5, 4, 20)
        assert (r.unit * r.unit + 7) % 2**20 == 0

    @pytest.mark.parametrize("K", [1, 2, 7, 40])
    def test_unit_root_factor_is_exact_factor(self, K):
        # at p = 3 the roots of 3t - 1 and t - 3 are not units, those of
        # t^2 - t - 1 (irreducible mod 3) are
        F = parse_laurent("(t^2-t-1)*(3*t-1)*(t-3)")
        mod = 3**K
        assert _unit_root_factor(F.integer_coefficients_ascending(), 3, K) \
            == [-1 % mod, -1 % mod, 1]

    @pytest.fixture
    def divisions(self, monkeypatch):
        calls = []
        real = padics._poly_divmod

        def spy(a, h, mod=None):
            calls.append(len(h) - 1)
            return real(a, h, mod)

        monkeypatch.setattr(padics, "_poly_divmod", spy)
        return calls

    @pytest.mark.parametrize("K", [1, 2, 7, 40])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_all_unit_roots_need_no_lift(self, divisions, p, K):
        # p-unit end coefficients: every root is a unit, f0 = F / lead(F)
        rng = random.Random(f"{p}:{K}")
        mod = p**K
        for _ in range(20):
            d = rng.randint(1, 7)
            F = [rng.randint(-50, 50) for _ in range(d + 1)]
            units = [u for u in range(-50, 51) if u % p and u != 1]
            F[0], F[d] = rng.choice(units), rng.choice(units)
            f0 = _unit_root_factor(F, p, K)
            assert len(f0) == d + 1 and f0[-1] == 1
            assert all((F[d] * x - y) % mod == 0 for x, y in zip(f0, F))
        assert divisions == []

    @pytest.mark.parametrize("K", [1, 2, 7, 40])
    @pytest.mark.parametrize("text", ["(5*t^2-3*t+7)*(2*t-1)*(t-4)",
                                      "(5*t^2-3*t+7)*(2*t-1)"])
    def test_split_factor_takes_the_hensel_route(self, divisions, text, K):
        # at p = 2 the roots of 5t^2 - 3t + 7 are units, that of 2t - 1
        # lies outside the unit disk and that of t - 4 inside: i0 = 1 or 0
        # and i1 < deg F, so f0 is lifted against a cofactor
        F = parse_laurent(text)
        c = F.integer_coefficients_ascending()
        f0 = _unit_root_factor(c, 2, K)
        assert len(f0) == 3 and f0[-1] == 1
        assert _poly_divmod(c, f0, 2**K)[1] == [0]
        assert divisions


class TestTeichmuller:
    def test_identity(self):
        assert teichmuller(1, 5, 6).unit == 1

    def test_lift_of_two_mod_25(self):
        w = teichmuller(2, 5, 2)
        assert w.unit == 7 and pow(7, 4, 25) == 1

    def test_minus_one(self):
        w = teichmuller(2, 3, 3)
        assert w.unit == 26     # -1 is its own lift

    def test_torsion_identity(self):
        for p in (3, 5, 7, 11):
            for a in range(1, p):
                w = teichmuller(a, p, 8)
                assert pow(w.unit, p - 1, p**8) == 1
                assert w.unit % p == a

    def test_zero_residue_rejected(self):
        with pytest.raises(DomainError):
            teichmuller(10, 5, 4)


class TestLog:
    def test_log_one(self):
        assert padic_log(PadicNumber.one(7, 8)).is_zero

    def test_log_3_of_4(self):
        # oracle: partial sum 3 - 9/2 + 27/3 of the series; every later
        # term has valuation >= 3
        partial = Fraction(3) - Fraction(9, 2) + Fraction(27, 3)
        num, den = partial.numerator, partial.denominator
        expected = num * pow(den, -1, 27) % 27
        assert expected == 21
        got = padic_log(PadicNumber.from_int(4, 3, 8))
        assert got.unit * 3**got.v % 27 == 21

    def test_log_minus_one_is_zero(self):
        x = PadicNumber(2, 0, 2**10 - 1, 10)
        assert padic_log(x).is_zero

    def test_iwasawa_branch_kills_p(self):
        # log(p * u) = log(u)
        for p in (2, 5):
            u = PadicNumber(p, 0, p + 1, 10)
            pu = PadicNumber(p, 1, p + 1, 10)
            diff = padic_log(u) - padic_log(pu)
            assert diff.is_zero

    def test_homomorphism(self):
        rng = random.Random(41)
        for p in (2, 3, 5, 7):
            for _ in range(15):
                N = 14
                u1 = rng.randrange(1, p**N)
                u2 = rng.randrange(1, p**N)
                if u1 % p == 0 or u2 % p == 0:
                    continue
                x = PadicNumber(p, 0, u1, N)
                y = PadicNumber(p, 0, u2, N)
                assert (padic_log(x * y) - (padic_log(x) + padic_log(y))).is_zero

    def test_log_of_int_and_fraction(self):
        a = padic_log_of_int(6, 5, 10)
        b = padic_log_of_int(2, 5, 10) + padic_log_of_int(3, 5, 10)
        assert (a - b).is_zero
        c = padic_log_of_fraction(Fraction(2, 3), 5, 10)
        d = padic_log_of_int(2, 5, 10) - padic_log_of_int(3, 5, 10)
        assert (c - d).is_zero

    def test_log_rejects_zero(self):
        with pytest.raises(DomainError):
            padic_log(PadicNumber.zero(3, 5))

    def test_exact_integer_log_vs_series_oracle(self):
        # independent check at p = 5: log(6) via an exact Fraction partial
        # sum of log(1 + 5), reduced mod 5^6
        p, K = 5, 6
        z = Fraction(5)
        total = Fraction(0)
        for k in range(1, 30):
            term = z**k / k
            total += term if k % 2 else -term
        num, den = total.numerator, total.denominator
        v = vp_int(num, p) - vp_int(den, p)
        unit = (num // p**vp_int(num, p)) * pow(den // p**vp_int(den, p), -1, p**K)
        expected_residue = unit * p**v % p**K
        got = padic_log_of_int(6, p, 12)
        assert got.unit * p**got.v % p**K == expected_residue % p**K


def _series_log_one_plus(z):
    """log(1 + z) summed one PadicNumber term at a time, for v(z) >= 1
    (>= 2 at p = 2): the reference the integer series must reproduce."""
    p, K = z.p, z.abs_precision
    if z.is_zero:
        return PadicNumber.zero(p, z.v)
    total, zk, k = PadicNumber.zero(p, INFINITY), z, 1
    while not (k * z.v - (k.bit_length() + 2) >= K and k > 4):
        vk = vp_int(k, p)
        term = zk * PadicNumber.from_int(k // p**vk, p, zk.N + 4).inverse()
        term = PadicNumber(p, term.v - vk, term.unit, term.N)
        total = total + (term if k % 2 else -term)
        zk, k = zk * z, k + 1
    return total.truncate(K)


def _teichmuller_quotient_log(x):
    """log u = log(u / omega(u)), omega the Teichmuller lift (odd p)."""
    p, N = x.p, x.N
    u1 = PadicNumber(p, 0, x.unit, N) * teichmuller(x.unit % p, p, N).inverse()
    return _series_log_one_plus(u1 - PadicNumber.one(p, N))


def _square_log(x):
    """log u = log(u^2) / 2 with u^2 = 1 mod 8 (p = 2)."""
    N = x.N
    body = _series_log_one_plus(PadicNumber(2, 0, x.unit, N) ** 2
                                - PadicNumber.one(2, N))
    if body.is_zero:
        return PadicNumber.zero(2, body.v - 1)
    return PadicNumber(2, body.v - 1, body.unit, body.N)


@pytest.mark.parametrize("N", [1, 2, 12, 40, 400])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_log_matches_deleted_routes(p, N):
    # padic_log reads log u off the 1-unit u^e; the routes it replaced
    # divided by the Teichmuller lift (odd p) or squared (p = 2)
    rng = random.Random(1000 * p + N)
    mod = p**N
    near_one = [1, mod - 1] + [(1 + p**k * rng.randrange(1, p + 1)) % mod
                               for k in (1, 2, N // 2, N - 1, N)]
    units = near_one + [rng.randrange(1, mod) for _ in range(4)]
    reference = _square_log if p == 2 else _teichmuller_quotient_log
    for u in units:
        if u % p == 0:
            u += 1
        x = PadicNumber(p, rng.randrange(-3, 4), u, N)
        got, want = padic_log(x), reference(x)
        assert (got.v, got.unit, got.N) == (want.v, want.unit, want.N), u
