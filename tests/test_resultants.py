import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from padic_mahler import memo, resultants
from padic_mahler.errors import (
    ConvergenceError,
    DomainError,
    ZeroPolynomialError,
)
from padic_mahler.mahler import resultant_limit_estimate
from padic_mahler.ntheory import INFINITY, vp_int
from padic_mahler.parsing import parse_laurent
from padic_mahler.polynomials import LaurentPolynomial, normalize
from padic_mahler.pure import (
    pure_entropy,
    pure_link_growth,
    pure_log_mahler_estimate,
)
from padic_mahler.resultants import (
    bareiss_determinant,
    cyclic_resultant,
    cyclic_resultant_sweep,
    cyclic_resultant_sylvester,
    cyclic_resultant_valuation,
    resultant,
)


def random_poly(rng, max_deg=6, height=20):
    f = LaurentPolynomial(
        {e: rng.randint(-height, height) for e in range(rng.randint(0, max_deg) + 1)})
    return f if not f.is_zero else LaurentPolynomial.constant(1)


class TestBareiss:
    def test_known_determinants(self):
        assert bareiss_determinant([[2]]) == 2
        assert bareiss_determinant([[1, 2], [3, 4]]) == -2
        assert bareiss_determinant([[0, 1], [1, 0]]) == -1
        assert bareiss_determinant([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0

    def test_against_fraction_elimination(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 6)
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            # plain fraction Gaussian elimination as the oracle
            a = [[Fraction(x) for x in row] for row in m]
            det = Fraction(1)
            for k in range(n):
                piv = next((i for i in range(k, n) if a[i][k]), None)
                if piv is None:
                    det = Fraction(0)
                    break
                if piv != k:
                    a[k], a[piv] = a[piv], a[k]
                    det = -det
                det *= a[k][k]
                for i in range(k + 1, n):
                    r = a[i][k] / a[k][k]
                    for j in range(k, n):
                        a[i][j] -= r * a[k][j]
            assert bareiss_determinant(m) == det


class TestResultant:
    def test_linear_pair(self):
        t = LaurentPolynomial({1: 1})
        assert resultant(t - 2, t - 3) == -1

    def test_constant_one(self):
        assert resultant(LaurentPolynomial.constant(1),
                         parse_laurent("t^2 + 1")) == 1

    def test_evaluation_form(self):
        assert resultant(parse_laurent("t^2 - 3*t + 1"),
                         parse_laurent("t + 1")) == 5

    def test_zero_convention(self):
        assert resultant(LaurentPolynomial.zero(), parse_laurent("t + 1")) == 0
        assert resultant(parse_laurent("t + 1"), LaurentPolynomial.zero()) == 0

    def test_common_root_vanishes(self):
        f = parse_laurent("(t-1)*(t+2)")
        g = parse_laurent("(t-1)*(t-5)")
        assert resultant(f, g) == 0

    def test_multiplicativity_and_swap(self):
        rng = random.Random(13)
        for _ in range(60):
            f, g, h = (random_poly(rng) for _ in range(3))
            rfg = resultant(f, g)
            assert resultant(f, g * h) == rfg * resultant(f, h)
            df = normalize(f).degree
            dg = normalize(g).degree
            assert rfg == (-1) ** (df * dg) * resultant(g, f)

    def test_rational_coefficients(self):
        f = parse_laurent("1/2*t - 1")       # root 2, lc 1/2
        g = parse_laurent("t - 3")
        # R = (1/2)^1 * 1^1 * (2 - 3)
        assert resultant(f, g) == Fraction(-1, 2)


class TestCyclicResultant:
    def test_spec_values(self):
        assert abs(cyclic_resultant(parse_laurent("t^2 - 3*t + 1"), 2, "ones")) == 5
        assert abs(cyclic_resultant(parse_laurent("2*t - 2"), 3, "ones")) == 12
        assert cyclic_resultant(parse_laurent("t - 1"), 5, "full") == 0

    def test_constant_polynomial(self):
        three = LaurentPolynomial.constant(3)
        assert cyclic_resultant(three, 4, "full") == 81
        assert cyclic_resultant(three, 4, "ones") == 27

    def test_ones_at_n_equals_1(self):
        # nu_1 = 1 and R(f, 1) = 1
        for text in ("t^2 - 3*t + 1", "2*t - 2", "7"):
            assert cyclic_resultant(parse_laurent(text), 1, "ones") == 1

    def test_fast_path_matches_sylvester(self):
        rng = random.Random(17)
        polys = [parse_laurent("t^2 - 3*t + 1"), parse_laurent("2*t - 2"),
                 parse_laurent("2*t^2 - 3*t + 2")]
        polys += [random_poly(rng, max_deg=4, height=9) for _ in range(3)]
        for f in polys:
            for n in range(1, 16):
                assert cyclic_resultant(f, n, "ones") == \
                    cyclic_resultant_sylvester(f, n, "ones")
                assert cyclic_resultant(f, n, "full") == \
                    cyclic_resultant_sylvester(f, n, "full")

    def test_full_factors_through_ones(self):
        rng = random.Random(19)
        for _ in range(40):
            f = random_poly(rng, max_deg=5, height=9)
            g = normalize(f)
            if g(1) == 0:
                continue
            n = rng.randint(1, 20)
            full = cyclic_resultant(f, n, "full")
            ones = cyclic_resultant(f, n, "ones")
            # signed law; the absolute-value form is what the growth
            # formulas use
            assert full == (-1) ** g.degree * g(1) * ones
            assert abs(full) == abs(ones * g(1))

    def test_solomon_closed_form(self):
        # R(2(t-1), nu_n) = 2^(n-1) * n
        f = parse_laurent("2*t - 2")
        for n in range(1, 30):
            assert abs(cyclic_resultant(f, n, "ones")) == 2 ** (n - 1) * n

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            cyclic_resultant(LaurentPolynomial.zero(), 3)

    def test_unknown_variant_rejected(self):
        for route in (cyclic_resultant, cyclic_resultant_sylvester):
            with pytest.raises(DomainError, match="unknown cyclic resultant"):
                route(parse_laurent("t - 2"), 3, "nu_variant")

    def test_lucas_closed_form(self):
        # t^2 - 3t + 1 has roots phi^2, phi^-2 and f(1) = -1, so
        # R(f, nu_n) = (phi^2n - 1)(phi^-2n - 1) / -1 = L_2n - 2, with L_k
        # the Lucas numbers
        f = parse_laurent("t^2 - 3*t + 1")
        ns = [*range(1, 41), 1000, 100000]
        lucas, prev, want = 2, -1, {}
        for k in range(2 * ns[-1] + 1):
            if k % 2 == 0 and k // 2 in ns:
                want[k // 2] = lucas - 2
            lucas, prev = lucas + prev, lucas
        for n in ns:
            assert cyclic_resultant(f, n, "ones") == want[n], n


def _mat_product(A, B):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*B)]
            for row in A]


class TestResidueKernel:
    @pytest.mark.parametrize("mod", [None, 3**20])
    def test_multiplication_matrix_is_h_of_companion(self, mod):
        rng = random.Random(53)
        for _ in range(30):
            d = rng.randint(1, 7)
            F = [rng.randint(-10**6, 10**6) for _ in range(d)] + [1]
            h = [rng.randint(-10**6, 10**6) for _ in range(d)]
            if mod is not None:
                F = [c % mod for c in F[:-1]] + [1]
            # sum_i h_i C^i over Z, C the companion matrix of F
            C = [[int(i == j + 1) for j in range(d)] for i in range(d)]
            for i in range(d):
                C[i][d - 1] = -F[i]
            power = [[int(i == j) for j in range(d)] for i in range(d)]
            want = [[0] * d for _ in range(d)]
            for c in h:
                want = [[w + c * x for w, x in zip(wr, pr)]
                        for wr, pr in zip(want, power)]
                power = _mat_product(power, C)
            if mod is not None:
                want = [[x % mod for x in row] for row in want]
            assert resultants._multiplication_matrix(h, F, mod) == want

    def test_one_bareiss_determinant_of_dimension_deg_f(self, monkeypatch):
        dims = []
        real = resultants.bareiss_determinant

        def spy(matrix):
            dims.append(len(matrix))
            return real(matrix)

        monkeypatch.setattr(resultants, "bareiss_determinant", spy)
        for text, d in (("2*t^2 - 3*t + 2", 2), ("3*t^8-5*t^5+t^3+7*t-4", 8)):
            for n in (2, 17, 1000):
                dims.clear()
                cyclic_resultant(parse_laurent(text), n, "full")
                assert dims == [d], (text, n)
        # split first: one determinant per squarefree factor, of its
        # degree, and none for (t - 1)^2, which makes "full" 0
        f = parse_laurent("6*(t-1)^2*(2*t^2-3*t+2)^3*(3*t^3+t-5)")
        for n in (2, 17, 1000):
            dims.clear()
            assert cyclic_resultant(f, n, "full") == 0 and dims == []
            cyclic_resultant(f, n, "ones")
            assert dims == [3, 2], n

    def test_one_elimination_per_chain_level(self, monkeypatch):
        dims, oracle = [], []
        real = resultants._det_valuation_mod
        real_oracle = resultants.berkowitz_determinant_mod

        def spy(matrix, p, K):
            dims.append(len(matrix))
            return real(matrix, p, K)

        def oracle_spy(matrix, mod):
            oracle.append(len(matrix))
            return real_oracle(matrix, mod)

        monkeypatch.setattr(resultants, "_det_valuation_mod", spy)
        monkeypatch.setattr(resultants, "berkowitz_determinant_mod",
                            oracle_spy)
        # at p = 2 the unit coefficients sit at t^1 .. t^8, so d0 = 7
        f = parse_laurent("3*t^8-5*t^5+t^3+7*t-4")
        chain = [2**r for r in range(1, 9)]
        cyclic_resultant_valuation(f, chain, 2)
        assert dims == [7] * len(chain)
        assert oracle == []


BIG = "31415926535897932384626433832795028841971693993751"   # 50 digits
SWEEP_TEXTS = [
    "7",                                # constant: a^n resp. a^(n-1)
    "2*t - 2",                          # p | lead
    "t^2 + 1",                          # root of unity: R = 0 at n = 8
    "3*t^5 - 2*t^4 + 7*t^2 - t + 6",    # non-monic, d >= 4
    "(t-1)^2*(t^2+t+1)",                # t = 1 twice, cube roots of unity
    "(t-1)^3*(2*t^2-3*t+5)",
    f"{BIG}*t^3 - 2*t^2 + {BIG}7*t - 3",
    "-3*t^4 + 2*t - 5",                 # negative leading coefficient
    "t^-2*(2*t^3 - t + 4)",             # Laurent shift
]


class TestSympyOracle:
    """sympy against t^n - 1 and nu_n: a third route, independent of the
    companion matrix and of the Sylvester/Bareiss oracle.  sympy 1.14's
    resultant drops the sign (-1)^(deg f deg g) on some inputs: for
    6t^3 - 7t^2 + 2t - 2 against t^7 - 1 it gives -390419, where its own
    Sylvester determinant and a^7 prod(alpha^7 - 1) give 390419.  So it is
    held to the absolute value, and the determinant of sympy's Sylvester
    matrix to the sign."""

    NS = [1, 2, 3, 4, 7, 12]

    def test_both_variants_both_routes(self):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.subresultants_qq_zz import sylvester
        t = sympy.Symbol("t")
        rng = random.Random(29)
        polys = [random_poly(rng, max_deg=5, height=9) for _ in range(6)]
        # f(1) = 0, so R(f, t^n - 1) = 0 while R(f, nu_n) is not
        t_minus_1 = parse_laurent("t - 1")
        polys += [random_poly(rng, max_deg=4, height=9) * t_minus_1
                  for _ in range(3)]
        polys += [parse_laurent(text) for text in (
            "7", "-3", "t - 1", *SWEEP_TEXTS[4:])]
        moduli = {"full": lambda n: t**n - 1,
                  "ones": lambda n: sum(t**i for i in range(n))}
        for f in polys:
            g = normalize(f)
            expr = sum(int(c) * t**e for e, c in g.terms.items())
            for variant, modulus in moduli.items():
                fast = [cyclic_resultant(f, n, variant) for n in self.NS]
                assert list(cyclic_resultant_sweep(f, self.NS, variant)) \
                    == fast, (str(f), variant)
                for n, value in zip(self.NS, fast):
                    assert abs(value) == abs(sympy.resultant(
                        expr, modulus(n), t)), (str(f), variant, n)
                    if g.degree and n > 1:
                        assert value == sylvester(
                            expr, modulus(n), t).det(), (str(f), variant, n)
            assert g(1) != 0 or cyclic_resultant(f, 5, "full") == 0


class TestSweep:
    NS = [1, 2, 3, 5, 8, 9, 13, 21, 22, 34, 55, 89, 120]

    @pytest.mark.parametrize("text", SWEEP_TEXTS)
    def test_matches_binary_powering(self, text):
        f = parse_laurent(text)
        for variant in ("ones", "full"):
            assert list(cyclic_resultant_sweep(f, self.NS, variant)) == \
                [cyclic_resultant(f, n, variant) for n in self.NS]

    def test_high_degree(self):
        rng = random.Random(41)
        for d in (8, 13, 20):
            f = LaurentPolynomial({e: rng.randint(-9, 9) for e in range(d)})
            f = f + LaurentPolynomial({d: rng.randint(1, 9)})
            ns = [1, 2, 7, 30, 64, 120]
            for variant in ("ones", "full"):
                assert list(cyclic_resultant_sweep(f, ns, variant)) == \
                    [cyclic_resultant(f, n, variant) for n in ns]

    def test_takes_no_determinant(self, monkeypatch):
        def refuse(matrix):
            raise AssertionError("the sweep took a determinant")

        monkeypatch.setattr(resultants, "bareiss_determinant", refuse)
        f = parse_laurent("(t-1)*(3*t^4 - 2*t + 5)")
        for variant in ("ones", "full"):
            values = list(cyclic_resultant_sweep(f, range(1, 50), variant))
            assert len(values) == 49

    def test_dense_degree_40_within_budget(self, monkeypatch):
        # n = 1..120 at degree 40, both variants: about 1 s by the traces,
        # against about a minute with a Bareiss determinant per n; each
        # variant sweeps cold, with no values kept from the other
        rng = random.Random(40)
        f = LaurentPolynomial({e: rng.randint(-9, 9) for e in range(40)})
        f = f + LaurentPolynomial({40: 3})
        ns = range(1, 121)
        sweeps, elapsed = {}, 0.0
        for variant in ("ones", "full"):
            memo.clear()
            start = time.perf_counter()
            sweeps[variant] = list(cyclic_resultant_sweep(f, ns, variant))
            elapsed += time.perf_counter() - start
        assert elapsed < 10.0, f"degree-40 sweep took {elapsed:.1f} s"
        for n in (1, 2, 3, 11):
            for variant, values in sweeps.items():
                assert values[n - 1] == cyclic_resultant(f, n, variant)

    @pytest.mark.parametrize("ns", [[0, 1], [-2], [3, 3], [2, 5, 4]])
    def test_rejects_bad_n_sequence(self, ns):
        for text in ("t^2 - 3*t + 1", "5", "(t-1)^2*(t+3)"):
            for variant in ("ones", "full"):
                with pytest.raises(DomainError):
                    list(cyclic_resultant_sweep(parse_laurent(text), ns,
                                                variant))

    def test_rejects_unknown_variant(self):
        with pytest.raises(DomainError):
            list(cyclic_resultant_sweep(parse_laurent("t - 2"), [1], "nu"))

    def test_sparse_window_keeps_few_power_sums(self):
        # the 8-sample window of the 3-adic estimator at n_budget 3000;
        # keeping all 4 * 2999 power sums peaked at ~68 MiB, those the
        # window reads and the last 4 need under 1 MiB
        f = parse_laurent("(3*t-1)*(t-3)*(9*t+2)*(t-6)")
        window = [2989, 2990, 2992, 2993, 2995, 2996, 2998, 2999]
        tracemalloc.start()
        try:
            values = list(cyclic_resultant_sweep(f, window, "full"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        assert values[-1] == cyclic_resultant(f, 2999, "full")


class TestSweepMemo:
    """The sweep keeps R(g, t^n - 1) of the last (t - 1)-free part g."""

    F, P = "(3*t-1)*(t-3)*(9*t+2)*(t-6)", 3

    @pytest.fixture
    def kernel_runs(self, monkeypatch):
        runs = []
        real = resultants._sweep_kernel

        def spy(g, ns):     # a run is counted once the kernel is read
            runs.append(ns)
            yield from real(g, ns)

        monkeypatch.setattr(resultants, "_sweep_kernel", spy)
        return runs

    @pytest.mark.parametrize("call", [
        lambda f, p: resultant_limit_estimate(f, p, 120),
        lambda f, p: pure_log_mahler_estimate(f, p, 110),
        lambda f, p: pure_entropy(f, p, solenoid_convention=True),
        lambda f, p: pure_link_growth(f * parse_laurent("t - 1"), 2, p),
    ], ids=["padic_limit", "pure_estimate", "pure_entropy", "link_growth"])
    def test_estimators_of_one_f_share_one_sweep(self, kernel_runs, call):
        f = parse_laurent(self.F)
        resultant_limit_estimate(f, INFINITY, 120)
        assert kernel_runs == [list(range(1, 121))]
        call(f, self.P)
        assert len(kernel_runs) == 1
        resultant_limit_estimate(parse_laurent("t^2 - 3*t + 1"), INFINITY, 8)
        kernel_runs.clear()
        call(f, self.P)
        assert len(kernel_runs) == 1

    def test_memo_is_bounded(self, kernel_runs):
        # R(t - 2^1000, t^n - 1) = 1 - 2^(1000 n): 8.5 M bits for n <= 130
        f = parse_laurent("t - 2^1000")
        ns = range(1, 131)
        full = list(cyclic_resultant_sweep(f, ns, "full"))
        bits = [abs(v).bit_length() for v in full]
        assert sum(bits) > resultants._MEMO_BITS
        assert full == [cyclic_resultant(f, n, "full") for n in ns]
        # the n whose bits fit under the bound are kept and served, with no
        # kernel run; a request past them is swept again, whole
        held = max(k for k in ns if sum(bits[:k]) <= resultants._MEMO_BITS)
        assert held == 129
        assert list(cyclic_resultant_sweep(f, range(1, held + 1), "ones")) \
            == [cyclic_resultant(f, n, "ones") for n in range(1, held + 1)]
        assert len(kernel_runs) == 1
        for _ in range(2):
            assert list(cyclic_resultant_sweep(f, ns, "ones")) == \
                [cyclic_resultant(f, n, "ones") for n in ns]
        assert kernel_runs[1:] == [list(ns)] * 2

    def test_clear_empties_the_sweep(self, kernel_runs):
        f = parse_laurent(self.F)
        resultant_limit_estimate(f, self.P, 40)
        resultant_limit_estimate(f, self.P, 40)
        assert len(kernel_runs) == 1
        memo.clear()
        resultant_limit_estimate(f, self.P, 40)
        assert kernel_runs == [list(range(1, 41))] * 2


class TestValuationPath:
    def test_matches_exact_resultants(self):
        rng = random.Random(23)
        polys = [parse_laurent("2*t - 2"), parse_laurent("t^2 - 3*t + 1"),
                 parse_laurent("2*t^2 - 2*t + 2"),
                 parse_laurent("4*t^2 - 10*t + 4")]
        polys += [random_poly(rng, max_deg=4, height=7) for _ in range(4)]
        for f in polys:
            for p in (2, 3, 5):
                for n in (1, 2, 3, p, p * p, 2 * p + 1):
                    exact = cyclic_resultant(f, n, "ones")
                    if exact == 0:
                        continue
                    assert cyclic_resultant_valuation(f, [n], p)[0] == \
                        vp_int(exact, p)

    def test_large_tower_closed_form(self):
        f = parse_laurent("2*t - 2")
        for r in range(1, 11):
            assert cyclic_resultant_valuation(f, [2 ** r], 2)[0] == \
                2 ** r - 1 + r

    @pytest.mark.parametrize("text", ["2*t - 3", "9"])
    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_nonpositive_n(self, text, n):
        with pytest.raises(DomainError):
            cyclic_resultant_valuation(parse_laurent(text), [n], 3)

    @pytest.mark.parametrize("ns", [[2, 3], [0], [2, 0], []])
    def test_rejects_non_divisor_chains(self, ns):
        with pytest.raises(DomainError):
            cyclic_resultant_valuation(parse_laurent("2*t - 3"), ns, 3)

    def test_stress_high_degree_with_content(self):
        # degree up to 8 and p | content at the same prime as the tower
        rng = random.Random(83)
        for _ in range(12):
            p = rng.choice([2, 3])
            terms = {e: p * rng.randint(-6, 6) for e in range(rng.randint(5, 9))}
            terms[rng.randint(0, 4)] = p * rng.randint(1, 6)
            f = LaurentPolynomial(terms)
            n = rng.choice([p**2, p**3, 3 * p, 2 * p + 1])
            exact = cyclic_resultant(f, n, "ones")
            if exact == 0:
                continue
            assert cyclic_resultant_valuation(f, [n], p)[0] == vp_int(exact, p)


def random_chain_case(rng):
    """(f, p, ns): f of degree 1..6 in one of the tower classes (p prime to
    both ends, p | lead, p at both ends, p | content) and a divisor chain
    ns of length 1..4 with n <= 500."""
    p = rng.choice([2, 3, 5])
    cls = rng.choice(["unit", "lead", "both", "content"])
    d = rng.randint(1, 6)
    units = [u for u in range(-9, 10) if u % p]
    c = [rng.randint(-9, 9) for _ in range(d + 1)]
    c[0], c[d] = rng.choice(units), rng.choice(units)
    if cls in ("lead", "both"):
        c[d] *= p ** rng.randint(1, 2)
    if cls == "both":
        c[0] *= p
    if cls == "content":
        c = [p * x for x in c]
    ns = [rng.randint(1, 4)]
    for _ in range(rng.randint(0, 3)):
        ns.append(ns[-1] * rng.choice([2, 3, p]))
    return LaurentPolynomial(dict(enumerate(c))), p, ns


def doubling_chain_case(rng):
    """(f, p, ns) as random_chain_case, with f = (t + 1 + p^s u) g for
    s in 14..60, g of degree 0..4 (p prime to both ends, p | lead, or p |
    content of f) and a chain through an even n.  At even n the root near
    -1 puts a step of valuation at least s into the chain, so K = 16
    almost never certifies it and the modulus doubles."""
    p = rng.choice([2, 3, 5])
    cls = rng.choice(["unit", "lead", "content"])
    e = rng.randint(0, 4)
    units = [u for u in range(-30, 31) if u % p]
    g = [rng.randint(-30, 30) for _ in range(e + 1)]
    g[0], g[e] = rng.choice(units), rng.choice(units)
    if cls == "lead":
        g[e] *= p ** rng.randint(1, 2)
    root = 1 + p ** rng.randint(14, 60) * rng.choice(units)
    c = [root * x for x in g] + [0]
    for i, x in enumerate(g):
        c[i + 1] += x
    if cls == "content":
        c = [p * x for x in c]
    ns = [rng.randint(1, 4)]
    for _ in range(rng.randint(1, 3)):
        ns.append(ns[-1] * rng.choice([2, 3, p]))
    if all(n % 2 for n in ns):
        ns.append(2 * ns[-1])
    return LaurentPolynomial(dict(enumerate(c))), p, ns


def chain_mismatches(seed, count, case=random_chain_case):
    """The random chains on which cyclic_resultant_valuation disagrees with
    v_p of the exact cyclic_resultant, or fails to refuse a chain that
    reaches a zero resultant."""
    rng = random.Random(seed)
    bad = []
    for _ in range(count):
        f, p, ns = case(rng)
        exact = [cyclic_resultant(f, n) for n in ns]
        try:
            got = cyclic_resultant_valuation(f, ns, p)
        except ConvergenceError:
            got = None
        want = None if 0 in exact else [vp_int(e, p) for e in exact]
        if got != want:
            bad.append((str(f), p, ns, got, want))
    return bad


class TestValuationModulus:
    """K starts at 16 and doubles for the whole chain while a step's
    determinant is 0 mod p^K or has valuation >= K - 1; the last modulus
    tried is (d0 + 2) (bits(n_max) + 8) + 32 times 2^7."""

    @pytest.fixture
    def moduli(self, monkeypatch):
        Ks = []
        real = resultants._unit_root_factor

        def spy(coeffs, p, K):
            Ks.append(K)
            return real(coeffs, p, K)

        monkeypatch.setattr(resultants, "_unit_root_factor", spy)
        return Ks

    @pytest.mark.parametrize("text, ns, want, Ks", [
        # t + 1 + 2^20: v_2 nu_(2^r)(-1 - 2^20) = 19 + r
        ("t + 1048577", [2**r for r in range(1, 7)], list(range(20, 26)),
         [16, 32]),
        # the step from n = 2 to 4 has valuation 80
        ("t^2 + 2^40*t + 1", [2**r for r in range(1, 9)],
         [1, 81, 83, 85, 87, 89, 91, 93], [16, 32, 64, 128]),
        ("t + 1 + 2^3000", [2, 4], [3000, 3001],
         [16 << k for k in range(9)]),
    ])
    def test_doubles_until_certified(self, moduli, text, ns, want, Ks):
        f = parse_laurent(text)
        got = cyclic_resultant_valuation(f, ns, 2)
        assert got == want == [vp_int(cyclic_resultant(f, n), 2) for n in ns]
        assert moduli == Ks

    def test_refusal_bound(self, moduli):
        # d0 = 1, n_max = 4: the cap is (3 * 11 + 32) * 2^7 = 8320, so a
        # step of valuation 8318 = cap - 2 is certified and 8319 is not
        cap = [16 << k for k in range(10)] + [8320]
        f = parse_laurent("t + 1 + 2^8318")
        assert cyclic_resultant_valuation(f, [2, 4], 2) == [8318, 8319]
        assert moduli == cap
        moduli.clear()
        with pytest.raises(ConvergenceError):
            cyclic_resultant_valuation(parse_laurent("t + 1 + 2^8319"),
                                       [2, 4], 2)
        assert moduli == cap

    def test_zero_resultant_refused(self):
        # t = -1 is a root of nu_2: R(t + 1, nu_n) = 0 for every even n
        with pytest.raises(ConvergenceError):
            cyclic_resultant_valuation(parse_laurent("t + 1"), [1, 2, 4], 2)

    def test_random_chains_match_exact_resultants(self):
        assert chain_mismatches(seed=181, count=300) == []

    def test_doubling_chains_match_exact_resultants(self, moduli):
        assert chain_mismatches(seed=191, count=1000,
                                case=doubling_chain_case) == []
        # every chain starts at K = 16; nearly all of them double
        assert moduli.count(16) == 1000 and moduli.count(32) >= 900
