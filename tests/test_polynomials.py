import math
import random
import time
from fractions import Fraction

import pytest

from padic_mahler import polynomials
from padic_mahler.entropy import (
    entropy_padic,
    entropy_total,
    leading_coeff_identity,
)
from padic_mahler.errors import DomainError, ParseError, ZeroPolynomialError
from padic_mahler.iwasawa import (
    fit_invariants,
    lambda_invariant,
    mu_invariant,
    verify_consistency,
)
from padic_mahler.mahler import resultant_limit_estimate
from padic_mahler.parsing import (
    MAX_NESTING,
    _Parser,
    parse_laurent,
    parse_polynomial,
)
from padic_mahler.polynomials import (
    LaurentPolynomial,
    MultivariatePolynomial,
    _derivative,
    _split_t_minus_one,
    _substitute,
    all_ones_polynomial,
    content_and_primitive,
    normalize,
    squarefree_split,
)
from padic_mahler.pure import (
    pure_entropy,
    pure_link_growth,
    pure_log_mahler_closed_form,
    pure_log_mahler_estimate,
)
from padic_mahler.resultants import cyclic_resultant, cyclic_resultant_valuation


class TestParsing:
    def test_direct_terms(self):
        f = parse_polynomial("t^2 - 3*t + 1")
        assert f.terms == {2: 1, 1: -3, 0: 1}

    def test_distributivity(self):
        assert parse_polynomial("2*(t-1)").terms == {1: 2, 0: -2}

    def test_bivariate(self):
        m = parse_polynomial("1 + x*y")
        assert isinstance(m, MultivariatePolynomial)
        assert m.terms == {(0, 0): 1, (1, 1): 1}

    def test_rational_literals(self):
        f = parse_polynomial("1/2*t - 1/3")
        assert f.terms == {1: Fraction(1, 2), 0: Fraction(-1, 3)}

    def test_negative_exponents(self):
        f = parse_polynomial("-t^-1 + 3 - t")
        assert f.terms == {-1: -1, 0: 3, 1: -1}
        assert parse_polynomial("t^(-2)").terms == {-2: 1}

    def test_negative_power_of_integer_coefficient_is_exact(self):
        # integer literals stay int inside the parser; a negative power
        # must still make a Fraction, never a float
        (key, coeff), = _Parser("(2*t)^(-2)").parse().items()
        assert key == (-2,) and coeff == Fraction(1, 4)
        assert isinstance(coeff, Fraction)
        assert parse_polynomial("(2*t)^(-2)").terms == {-2: Fraction(1, 4)}
        assert parse_polynomial("2^(-1)").terms == {0: Fraction(1, 2)}

    def test_cancelled_variables_are_dropped(self):
        assert parse_polynomial("(x+2*y-1)^0") == LaurentPolynomial.constant(1)
        assert parse_polynomial("x - x + t^2") == parse_laurent("t^2")
        m = parse_polynomial("x*y - y*(x + 2) + 2*y + x^3")
        assert isinstance(m, LaurentPolynomial) and m.variable == "x"
        assert m.terms == {3: 1}

    def test_equal_polynomials_hash_equal(self):
        # equality ignores the variable name, so the hash must too
        f, g = parse_laurent("x + 1"), parse_laurent("t + 1")
        assert f == g and hash(f) == hash(g)
        assert len({f, g}) == 1

    def test_equal_multivariate_polynomials_hash_equal(self):
        f, g = parse_polynomial("x*y+1"), parse_polynomial("1+y*x")
        assert isinstance(f, MultivariatePolynomial)
        assert f == g and hash(f) == hash(g)
        assert len({f, g}) == 1
        # the same terms over other variables are another polynomial
        h = parse_polynomial("x*z+1")
        assert h.terms == f.terms and h.variables != f.variables
        assert h != f and len({f, g, h}) == 2

    @pytest.mark.parametrize("value", [3, -7, 0, Fraction(5, 2)])
    def test_constant_hashes_as_its_value(self, value):
        # a constant compares equal to its int or Fraction value
        c = LaurentPolynomial.constant(value, "x")
        assert c == value and hash(c) == hash(value)
        assert len({c, value}) == 1
        assert {value: "v"}[c] == "v"

    def test_unary_signs(self):
        assert parse_polynomial("- -t").terms == {1: 1}
        m = parse_polynomial("-(x+y)^2*z")
        assert m.variables == ("x", "y", "z")
        assert m.terms == {(2, 0, 1): -1, (1, 1, 1): -2, (0, 2, 1): -1}

    def test_power_of_sum(self):
        assert parse_polynomial("(t-1)^2").terms == {2: 1, 1: -2, 0: 1}

    def test_power_of_a_multivariate_term(self):
        assert parse_polynomial("(2*x*y^2)^3").terms == {(3, 6): 8}
        assert parse_polynomial("(-x*y)^0") == LaurentPolynomial.constant(1)
        with pytest.raises(DomainError):
            parse_polynomial("(3*x^2*y)^-1")

    def test_zero_to_the_zero_is_one(self):
        assert parse_polynomial("0^0") == LaurentPolynomial.constant(1)
        assert parse_polynomial("(t-t)^0") == LaurentPolynomial.constant(1)

    def test_high_power_matches_polynomial_power(self):
        assert parse_laurent("(t-1)^200") == parse_laurent("t-1") ** 200

    @pytest.mark.parametrize("k", range(10))
    def test_multivariate_power_matches_repeated_product(self, k):
        base = "(x + 2*y - 1)"
        product = "*".join([base] * k) or "1"
        assert parse_polynomial(f"{base}^{k}") == parse_polynomial(product)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("t^2 + $")
        assert err.value.position == 6

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("2 t")

    def test_negative_power_of_sum_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("(t-1)^-1")

    def test_multivariate_needs_integer_coefficients(self):
        with pytest.raises(DomainError):
            parse_polynomial("1/2*x*y")

    def test_multivariate_constructor_checks_coefficients(self):
        # the constructor is the one multivariate check: 1/2 and 2.7 are
        # refused, not truncated to 0 and 2
        with pytest.raises(DomainError, match="integer coefficients"):
            MultivariatePolynomial(("x", "y"),
                                   {(1, 0): Fraction(1, 2), (0, 1): 3})
        with pytest.raises(TypeError):
            MultivariatePolynomial(("x", "y"), {(1, 0): 2.7})

    @pytest.mark.parametrize("exps", [(1.5, 0), (Fraction(1), 1), (1, 2.0)])
    def test_multivariate_refuses_non_integer_exponents(self, exps):
        # refused, not truncated by int() to (1, 0) or (1, 2)
        with pytest.raises(DomainError, match="must be integers"):
            MultivariatePolynomial(("x", "y"), {exps: 1})

    @pytest.mark.parametrize("e", [1.5, Fraction(1), 2.0])
    def test_laurent_refuses_non_integer_exponents(self, e):
        # refused, not truncated by int() to the polynomial t
        with pytest.raises(DomainError, match="must be integers"):
            LaurentPolynomial({e: 1, 0: 1})

    def test_multivariate_rejects_negative_exponents(self):
        with pytest.raises(DomainError):
            parse_polynomial("x^-1*y + 1")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("1/0*t")

    def test_literal_beyond_int_str_limit_rejected(self):
        # library callers keep the interpreter's 4300-digit limit
        with pytest.raises(ParseError) as err:
            parse_polynomial("t + " + "1" + "0" * 5000)
        assert err.value.position == 4

    def test_nesting_limit(self):
        # the limit parses; one more "(" or 10,000 of them is a ParseError
        # at the first "(" past the limit, never a RecursionError
        def nested(k):
            return "(" * k + "t-2" + ")" * k
        assert parse_polynomial(nested(MAX_NESTING)) == parse_polynomial("t-2")
        for k in (MAX_NESTING + 1, 10_000):
            with pytest.raises(ParseError) as err:
                parse_polynomial(nested(k))
            assert err.value.position == MAX_NESTING
        # nesting, not the count of parentheses, is bounded
        k = 2 * MAX_NESTING
        assert parse_polynomial("*".join(["(t-2)"] * k)) == \
            parse_polynomial("t-2") ** k

    def test_double_caret_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("t^2^3")

    def test_round_trip(self):
        rng = random.Random(20240811)
        for _ in range(200):
            terms = {rng.randint(-6, 9): rng.randint(-40, 40)
                     for _ in range(rng.randint(0, 6))}
            f = LaurentPolynomial(terms)
            assert parse_polynomial(str(f)) == f

    def test_round_trip_multivariate(self):
        texts = ["1 + x*y", "2 - x - y + 2*x*y",
                 "x + y - x*y + x^2*y + x*y^2", "1 - x*y*z"]
        for text in texts:
            m = parse_polynomial(text)
            assert parse_polynomial(str(m)) == m


class TestPrinting:
    # printed polynomials are data: the link-growth H strings, the CLI
    # text and the corpus details all go through this one printer
    @pytest.mark.parametrize("text, printed", [
        ("t - 1 - 1/2*t^-3", "t - 1 - 1/2*t^-3"),
        ("-t^-1 + 3 - t", "-t + 3 - t^-1"),
        ("-2/3*t^5 + t^-2 - t^-1", "-2/3*t^5 - t^-1 + t^-2"),
        ("(2*t)^(-2) - u*u^-1", "-1 + 1/4*t^-2"),
        ("-t", "-t"),
        ("z^-1", "z^-1"),
        ("-3/4", "-3/4"),
        ("1", "1"),
        ("-1", "-1"),
        ("t - t", "0"),
        ("x^2*y*(-1) + x*y^2 - 4*y - 1", "-x^2*y + x*y^2 - 4*y - 1"),
        ("x - x + 2*y^3*z - 3", "2*y^3*z - 3"),
        ("(x+y)^3", "x^3 + 3*x^2*y + 3*x*y^2 + y^3"),
        ("3*x^2*y^10 - y^2 + x", "3*x^2*y^10 - y^2 + x"),
        ("-x*y + 1", "-x*y + 1"),
    ])
    def test_printed_text(self, text, printed):
        assert str(parse_polynomial(text)) == printed

    def test_direct_construction(self):
        f = LaurentPolynomial({3: Fraction(-5, 2), 0: 1, -1: -1}, "q")
        assert repr(f) == "LaurentPolynomial(-5/2*q^3 + 1 - q^-1)"
        m = MultivariatePolynomial(("x", "y"), {(0, 2): -1, (1, 0): 7})
        assert repr(m) == "MultivariatePolynomial(-y^2 + 7*x)"
        assert str(MultivariatePolynomial(("x", "y"), {})) == "0"
        assert str(LaurentPolynomial.zero()) == "0"


class TestNormalize:
    def test_unit_shift(self):
        assert str(normalize(parse_laurent("-t^-1 + 3 - t"))) == "t^2 - 3*t + 1"

    def test_fixed_point(self):
        f = parse_laurent("2*t - 2")
        assert normalize(f) == f

    def test_monomial(self):
        assert normalize(parse_laurent("-2*t^-3")) == LaurentPolynomial.constant(2)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            normalize(LaurentPolynomial.zero())


# every public entry that needs integer coefficients, called on f; each
# goes through normalize_integral, so it refuses 1/2*t + 1 and takes f
# and the unit multiple -t^3 f alike
INTEGRAL_ENTRIES = {
    "cyclic_resultant": lambda f: cyclic_resultant(f, 5),
    "cyclic_resultant_valuation":
        lambda f: cyclic_resultant_valuation(f, [2, 4, 8], 2),
    "resultant_limit_estimate":
        lambda f: resultant_limit_estimate(f, 2, n_max=12),
    "mu_invariant": lambda f: mu_invariant(f, 2),
    "lambda_invariant": lambda f: lambda_invariant(f, 2),
    "fit_invariants": lambda f: fit_invariants(f, 2, 4),
    "verify_consistency": lambda f: verify_consistency(f, 2, 4),
    "entropy_padic": lambda f: entropy_padic(f, 2),
    "leading_coeff_identity": leading_coeff_identity,
    "entropy_total": entropy_total,
    "pure_log_mahler_estimate":
        lambda f: pure_log_mahler_estimate(f, 2, 20, 12),
    "pure_log_mahler_closed_form":
        lambda f: pure_log_mahler_closed_form(f, 2, 12),
    "pure_entropy": lambda f: pure_entropy(f, 2, 20, 12,
                                           solenoid_convention=True),
    "pure_link_growth": lambda f: pure_link_growth(f, 1, 2, 20, 12),
}


@pytest.mark.parametrize("name", sorted(INTEGRAL_ENTRIES))
def test_integral_entries(name):
    entry = INTEGRAL_ENTRIES[name]
    with pytest.raises(DomainError):
        entry(parse_laurent("1/2*t + 1"))
    f = parse_laurent("2*t^2 - 3*t + 2")
    assert entry(f) == entry(LaurentPolynomial({3: -1}) * f)


class TestContent:
    def test_common_factor(self):
        c, prim = content_and_primitive(parse_laurent("4*t^4 - 8*t^2 + 4"))
        assert c == 4 and prim == parse_laurent("t^4 - 2*t^2 + 1")

    def test_primitive_is_fixed(self):
        f = parse_laurent("t^2 - 3*t + 1")
        assert content_and_primitive(f) == (1, f)

    def test_coprime_coefficients(self):
        f = parse_laurent("2*t^2 - 5*t + 2")
        assert content_and_primitive(f) == (1, f)


class TestSubstitution:
    def test_opposite_exponents_collapse(self):
        delta = parse_polynomial("1 + x*y")
        assert delta.substitute((1, -1)) == LaurentPolynomial.constant(2)

    def test_equal_exponents(self):
        delta = parse_polynomial("2 - x - y + 2*x*y")
        got = delta.substitute((1, 1))
        assert got == parse_laurent("2*t^2 - 2*t + 2")
        assert normalize(got) == 2 * parse_laurent("t^2 - t + 1")

    def test_plain(self):
        delta = parse_polynomial("1 + x*y")
        assert delta.substitute((1, 1)) == parse_laurent("1 + t^2")

    @pytest.mark.parametrize("exps", [(1.5, 1), (1, Fraction(1)), (2.0, 1)])
    def test_non_integer_exponents_refused(self, exps):
        # (1.5, 1) used to be truncated to (1, 1), giving t^2 + 1
        with pytest.raises(DomainError, match="must be integers"):
            parse_polynomial("1 + x*y").substitute(exps)

    @pytest.mark.parametrize("k", [2.9, Fraction(2), 1.0])
    def test_one_variable_non_integer_exponent_refused(self, k):
        # t -> t^2.9 used to be truncated to t -> t^2
        with pytest.raises(DomainError, match="must be integers"):
            _substitute(parse_laurent("t-2"), (k,))

    def test_arity_mismatch(self):
        with pytest.raises(DomainError):
            parse_polynomial("1 + x*y").substitute((1, 2, 3))


class TestAllOnes:
    def test_small(self):
        assert all_ones_polynomial(1) == LaurentPolynomial.constant(1)
        assert all_ones_polynomial(2) == parse_laurent("t + 1")
        assert all_ones_polynomial(4) == parse_laurent("t^3 + t^2 + t + 1")

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            all_ones_polynomial(0)

    def test_telescopes(self):
        t = LaurentPolynomial({1: 1})
        for n in range(1, 9):
            assert all_ones_polynomial(n) * (t - 1) == t**n - 1


@pytest.mark.parametrize("text, m, rest", [
    ("t^2 - 3*t + 1", 0, "t^2 - 3*t + 1"),
    ("(t-1)^3*(2*t+5)", 3, "2*t + 5"),
    ("(t-1)^2*(t^2+t+1)", 2, "t^2 + t + 1"),
    ("4*(t-1)^2", 2, "4"),
    ("7", 0, "7"),
])
def test_split_t_minus_one(text, m, rest):
    got_m, q = _split_t_minus_one(parse_laurent(text).coefficients_ascending())
    assert (got_m, LaurentPolynomial(dict(enumerate(q)))) == \
        (m, parse_laurent(rest))


class TestGcd:
    def test_coprime_gives_one(self):
        # the last Euclidean remainder here is -t, a unit, not a common factor
        assert parse_laurent("t^2 + 1").gcd(parse_laurent("t^2 + t + 1")) == 1

    def test_shifted_inputs(self):
        f, g = parse_laurent("t^3*(t-1)"), parse_laurent("t^-2*(t-1)*(t+5)")
        assert f.gcd(g) == parse_laurent("t - 1")

    def test_zero(self):
        zero, f = LaurentPolynomial.zero(), parse_laurent("2*t^2 - 4")
        assert zero.gcd(zero) == 0
        assert zero.gcd(f) == f.gcd(zero) == parse_laurent("t^2 - 2")

    def test_spurious_factor_of_the_values(self):
        # at xi = 2^12 both values share 4093 = xi - 3, whose digits t - 3
        # divide the first input only; the exact product with the second
        # input's cofactor refuses them
        assert parse_laurent("(t-1)*(t-3)").gcd(parse_laurent("2*t-4099")) == 1

    def test_matches_sympy_gcd(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def to_sympy(a):
            return sympy.Poly(list(reversed(a.coefficients_ascending())), x,
                              domain=sympy.QQ)

        def rational(lo, hi):
            return LaurentPolynomial(
                {e: Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                 for e in range(rng.randint(lo, hi))})

        rng = random.Random(13)
        for _ in range(60):
            shared = rational(1, 5)
            f = (rational(1, 6) * shared).shift(rng.randint(-4, 4))
            g = (rational(1, 6) * shared).shift(rng.randint(-4, 4))
            if f.is_zero or g.is_zero:
                continue
            got = f.gcd(g)
            assert got.low_degree == 0
            assert to_sympy(got) == sympy.gcd(
                to_sympy(f.shift(-f.low_degree)),
                to_sympy(g.shift(-g.low_degree))).monic()


class TestSquarefreeSplit:
    def test_product_recovers_input(self):
        rng = random.Random(7)
        for _ in range(25):
            f = LaurentPolynomial(
                {e: rng.randint(-5, 5) for e in range(rng.randint(1, 5))})
            if f.is_zero:
                continue
            f = normalize(f)
            product = LaurentPolynomial.constant(f.leading_coefficient)
            for part, i in squarefree_split(f):
                product = product * part**i
            assert product == f

    def test_repeated_roots_separated(self):
        f = normalize(parse_laurent("4*t^4 - 8*t^2 + 4"))
        pairs = squarefree_split(f)
        for part, _ in pairs:
            assert part.degree >= 1 and part.low_degree == 0
            d = _derivative(part.coefficients_ascending())
            assert part.gcd(LaurentPolynomial(dict(enumerate(d)))).degree == 0
        assert [(str(a), i) for a, i in pairs] == [("t^2 - 1", 2)]

    def test_constant_has_no_factors(self):
        assert squarefree_split(LaurentPolynomial.constant(-6)) == []

    def test_no_recursion_at_high_multiplicity(self):
        # (t-1)^1100 once exhausted the recursion limit
        f = LaurentPolynomial(
            {k: math.comb(1100, k) * (-1) ** (1100 - k) for k in range(1101)})
        assert [(str(a), i) for a, i in squarefree_split(f)] == [("t - 1", 1100)]

    def test_fifty_digit_coefficients(self):
        # the gcds run over Z on primitive parts: no rational long division
        # with its growing denominators
        self.check_fifty_digit_square(28, 5.0)

    @pytest.mark.parametrize("degree, seconds", [(78, 1.0), (198, 5.0)])
    def test_fifty_digit_coefficients_at_high_degree(self, degree, seconds):
        # the remainder sequence alone takes seconds here (3 s at degree
        # 60); the heuristic gcd takes milliseconds
        self.check_fifty_digit_square(degree, seconds)

    @staticmethod
    def check_fifty_digit_square(degree, seconds):
        rng = random.Random(30)
        h = LaurentPolynomial(
            {e: rng.randint(-10**50, 10**50) for e in range(degree + 1)})
        f = h * parse_laurent("2*t - 3")**2
        start = time.perf_counter()
        pairs = squarefree_split(f)
        assert time.perf_counter() - start < seconds
        assert pairs == [(h * (1 / h.leading_coefficient), 1),
                         (parse_laurent("t - 3/2"), 2)]

    def test_matches_the_remainder_sequence(self, monkeypatch):
        # the heuristic gcd against the primitive remainder sequence, its
        # fallback, on products with repeated factors, a content and a sign
        rng = random.Random(19)
        products = []
        for trial in range(400):
            big = 10**50 if trial % 2 else 6
            f = LaurentPolynomial.constant(rng.choice([-1, 1])
                                           * rng.randint(1, 30))
            for _ in range(rng.randint(1, 2 if trial % 2 else 3)):
                degree = rng.randint(1, 2 if trial % 2 else 4)
                g = LaurentPolynomial(
                    {e: rng.randint(-big, big) for e in range(degree)}
                    | {degree: rng.randint(1, big)})
                f = f * g ** rng.randint(1, 6)
            products.append(f)
        heuristic = [squarefree_split(f) for f in products]
        monkeypatch.setattr(polynomials, "HEU_GCD_TRIES", 0)
        assert heuristic == [squarefree_split(f) for f in products]

    def test_remainder_sequence_runs_only_as_the_fallback(self, monkeypatch):
        divisions = []
        divmod_ = polynomials._poly_divmod
        monkeypatch.setattr(polynomials, "_poly_divmod",
                            lambda *a: divisions.append(1) or divmod_(*a))
        f = parse_laurent("(t-1)^20*(t^2-3*t+1)*(2*t+3)^3")
        want = [("t + 3/2", 3), ("t^2 - 3*t + 1", 1), ("t - 1", 20)]
        assert sorted((str(a), i) for a, i in squarefree_split(f)) == \
            sorted(want)
        assert not divisions
        # no value of xi tried: the primitive remainder sequence decides
        monkeypatch.setattr(polynomials, "HEU_GCD_TRIES", 0)
        assert sorted((str(a), i) for a, i in squarefree_split(f)) == \
            sorted(want)
        assert divisions
        assert parse_laurent("t^3*(t-1)").gcd(
            parse_laurent("t^-2*(t-1)*(t+5)")) == parse_laurent("t - 1")
        zero = LaurentPolynomial.zero()
        assert zero.gcd(parse_laurent("2*t^2 - 4")) == parse_laurent("t^2 - 2")

    def test_matches_sympy_sqf_list(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def to_sympy(a):
            return sympy.Poly(list(reversed(a.coefficients_ascending())), x,
                              domain=sympy.QQ)

        rng = random.Random(11)
        for _ in range(40):
            f = LaurentPolynomial.constant(rng.randint(1, 6))
            for _ in range(rng.randint(1, 4)):
                g = LaurentPolynomial(
                    {e: rng.randint(-4, 4) for e in range(rng.randint(2, 4))})
                if not g.is_zero:
                    f = f * g ** rng.randint(1, 6)
            f = normalize(f)
            _, expected = sympy.sqf_list(to_sympy(f))
            assert {i: to_sympy(a) for a, i in squarefree_split(f)} == \
                {i: a.monic() for a, i in expected}
