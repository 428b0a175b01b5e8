"""Exact Laurent and multivariate polynomial algebra.

A LaurentPolynomial is a map {exponent: coefficient} with exact rational
coefficients; exponents may be negative and no zero coefficient is ever
stored (the zero polynomial is the empty map).  A MultivariatePolynomial
has integer coefficients, non-negative exponent vectors of fixed arity,
and exists to hold multivariable link polynomials before substitution
collapses them to one variable (_substitute).  One printer,
_format_terms, serves both classes: a Laurent polynomial hands it its
terms as 1-vectors.

squarefree_split and LaurentPolynomial.gcd run over Z on primitive integer
coefficient lists, with the list helpers at the end of this module, which
also serve the Hensel lift modulo p^K and the cyclic-resultant residues.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, zip_longest

from .errors import ConvergenceError, DomainError, ZeroPolynomialError
from .ntheory import INFINITY

HEU_GCD_TRIES = 6     # values of xi before _gcd's remainder sequence


def _coerce(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficients must be exact (int or Fraction), got {type(c)!r}")


class LaurentPolynomial:
    """One-variable Laurent polynomial with exact rational coefficients."""

    __slots__ = ("variable", "terms")

    def __init__(self, terms=None, variable: str = "t"):
        self.variable = variable
        clean = {}
        if terms:
            _integer_exponents(terms)
            for e, c in terms.items():
                c = _coerce(c)
                if c != 0:
                    clean[e] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variable: str = "t") -> "LaurentPolynomial":
        return cls({}, variable)

    @classmethod
    def constant(cls, c, variable: str = "t") -> "LaurentPolynomial":
        return cls({0: _coerce(c)}, variable)

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        return max(self.terms) if self.terms else -INFINITY

    @property
    def low_degree(self):
        return min(self.terms) if self.terms else INFINITY

    def coefficient(self, e: int) -> Fraction:
        return self.terms.get(e, Fraction(0))

    @property
    def leading_coefficient(self) -> Fraction:
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.terms[max(self.terms)]

    @property
    def trailing_coefficient(self) -> Fraction:
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no trailing coefficient")
        return self.terms[min(self.terms)]

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def coefficients_ascending(self):
        """Dense coefficient list from low_degree to degree (empty for 0)."""
        if self.is_zero:
            return []
        lo, hi = min(self.terms), max(self.terms)
        return [self.terms.get(e, Fraction(0)) for e in range(lo, hi + 1)]

    def integer_coefficients_ascending(self):
        if not self.is_integral:
            raise DomainError("polynomial does not have integer coefficients")
        return [int(c) for c in self.coefficients_ascending()]

    # -- arithmetic ---------------------------------------------------

    def _check_compatible(self, other: "LaurentPolynomial"):
        if (self.variable != other.variable
                and not self.is_constant and not other.is_constant):
            raise DomainError(
                f"mixed variables {self.variable!r} and {other.variable!r}")

    @property
    def is_constant(self) -> bool:
        return set(self.terms) <= {0}

    def _result_variable(self, other: "LaurentPolynomial") -> str:
        return other.variable if self.is_constant else self.variable

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(other, self.variable)
        self._check_compatible(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return LaurentPolynomial(terms, self._result_variable(other))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial({e: -c for e, c in self.terms.items()}, self.variable)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(other, self.variable)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            return LaurentPolynomial(
                {e: c * v for e, v in self.terms.items()}, self.variable)
        self._check_compatible(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return LaurentPolynomial(terms, self._result_variable(other))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("polynomial exponent must be an integer")
        if k < 0:
            if len(self.terms) != 1:
                raise DomainError(
                    "negative power of a non-monomial is not a Laurent polynomial")
            (e, c), = self.terms.items()
            return LaurentPolynomial({e * k: c**k}, self.variable)
        result = LaurentPolynomial.constant(1, self.variable)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(other, self.variable)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # no variable, as __eq__ compares terms only (x + 1 == t + 1), and a
        # constant hashes as the value it equals
        return hash(self.terms.get(0, 0) if self.is_constant
                    else tuple(sorted(self.terms.items())))

    def __call__(self, x):
        """Evaluate at x (exactly for int/Fraction, numerically otherwise)."""
        if isinstance(x, int) and any(e < 0 for e in self.terms):
            x = Fraction(x)  # keep int**negative exact
        total = None
        for e, c in self.terms.items():
            if e >= 0:
                piece = c * x**e if e else c
            else:
                piece = c * x**e  # relies on x being invertible
            total = piece if total is None else total + piece
        if total is None:
            return Fraction(0) if isinstance(x, (int, Fraction)) else 0.0
        return total

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by variable**k."""
        return LaurentPolynomial({e + k: c for e, c in self.terms.items()},
                                 self.variable)

    # -- division -----------------------------------------------------

    def gcd(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        """Monic gcd over the rationals of the shifted ordinary polynomials
        (0 when both are 0), computed over Z by _gcd."""
        return _monic(_gcd(*(_primitive(g.coefficients_ascending())[2]
                             for g in (self, other)))[0],
                      self._result_variable(other))

    # -- printing -----------------------------------------------------

    def __str__(self):
        return _format_terms({(e,): c for e, c in self.terms.items()},
                             (self.variable,))

    def __repr__(self):
        return f"LaurentPolynomial({self})"


class MultivariatePolynomial:
    """Integer-coefficient polynomial in several variables, whose
    constructor is the one check of multivariate input."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms):
        self.variables = tuple(variables)
        arity = len(self.variables)
        clean = {}
        for exps, c in terms.items():
            exps = _integer_exponents(exps)
            if len(exps) != arity:
                raise DomainError(
                    f"exponent vector {exps} does not match arity {arity}")
            if any(e < 0 for e in exps):
                raise DomainError("multivariate exponents must be non-negative")
            c = _coerce(c)
            if c.denominator != 1:
                raise DomainError(
                    "multivariate polynomials require integer coefficients")
            if c:
                clean[exps] = c.numerator
        self.terms = clean

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def arity(self) -> int:
        return len(self.variables)

    def substitute(self, exponents) -> LaurentPolynomial:
        """Replace variable i by t**exponents[i]."""
        exponents = _integer_exponents(exponents)
        if len(exponents) != self.arity:
            raise DomainError(
                f"{len(exponents)} exponents given for arity {self.arity}")
        terms = {}
        for exps, c in self.terms.items():
            e = sum(v * k for v, k in zip(exps, exponents))
            terms[e] = terms.get(e, 0) + c
        return LaurentPolynomial(terms)

    def __eq__(self, other):
        if not isinstance(other, MultivariatePolynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    def __str__(self):
        return _format_terms(self.terms, self.variables)

    def __repr__(self):
        return f"MultivariatePolynomial({self})"


def _integer_exponents(exponents) -> tuple:
    """The exponents, each an int: 1.5 is refused, not truncated."""
    if not all(isinstance(e, int) for e in exponents):
        raise DomainError(f"exponents {list(exponents)} must be integers")
    return tuple(exponents)


def _format_terms(terms, variables) -> str:
    """The one printer of both classes, over {exponent vector: nonzero
    coefficient}: terms by descending total degree, then descending
    exponents, with an explicit * between factors ("0" for no terms)."""
    out = ""
    for exps in sorted(terms, key=lambda k: (sum(k), k), reverse=True):
        c = terms[exps]
        a = abs(c)
        factors = [v if e == 1 else f"{v}^{e}"
                   for v, e in zip(variables, exps) if e]
        if a != 1 or not factors:
            factors.insert(0, str(a))
        body = "*".join(factors)
        if out:
            out += f" {'-' if c < 0 else '+'} {body}"
        else:
            out = f"-{body}" if c < 0 else body
    return out or "0"


# -- the operations the rest of the package is built on ----------------


def normalize(f: LaurentPolynomial) -> LaurentPolynomial:
    """Multiply by a unit +-t^k so min exponent is 0 and the leading
    coefficient is positive; a normal f comes back as itself.

    Every measure and invariant downstream is unchanged by this, which the
    test suite checks explicitly.
    """
    if f.is_zero:
        raise ZeroPolynomialError("cannot normalize the zero polynomial")
    g = f.shift(-f.low_degree) if f.low_degree else f
    return -g if g.leading_coefficient < 0 else g


def normalize_integral(f: LaurentPolynomial) -> LaurentPolynomial:
    """normalize(f) for the computations that need integer coefficients,
    all but the Mahler measures; a rational one is a DomainError."""
    f = normalize(f)
    if not f.is_integral:
        raise DomainError("polynomial does not have integer coefficients")
    return f


def _substitute(delta, exponents=None) -> LaurentPolynomial:
    """The polynomial of a link's Z-cover: delta with variable i replaced
    by t^exponents[i], so f(t^k) for a one-variable delta, which alone may
    come without exponents.  A vector of the wrong length, or t -> t^0, is
    a DomainError."""
    if isinstance(delta, MultivariatePolynomial):
        return delta.substitute(() if exponents is None else exponents)
    if exponents is None:
        return delta
    k = _integer_exponents(exponents)[0] if len(exponents) == 1 else 0
    if not k:
        raise DomainError(f"exponents {list(exponents)} do not fit arity 1 "
                          f"(t -> t^k, k != 0)")
    return LaurentPolynomial({e * k: c for e, c in delta.terms.items()},
                             delta.variable)


def content_and_primitive(f: LaurentPolynomial):
    """(positive gcd of the integer coefficients, f divided by it)."""
    if f.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no content")
    if not f.is_integral:
        raise DomainError("content requires integer coefficients")
    content, _, q = _primitive(f.coefficients_ascending())
    return content, LaurentPolynomial(dict(enumerate(q, f.low_degree)),
                                      f.variable)


def all_ones_polynomial(n: int) -> LaurentPolynomial:
    """1 + t + ... + t^(n-1), the quotient (t^n - 1)/(t - 1); n >= 1."""
    if n < 1:
        raise DomainError("need n >= 1")
    return LaurentPolynomial({e: 1 for e in range(n)})


def power_minus_one(n: int) -> LaurentPolynomial:
    """t^n - 1."""
    if n < 1:
        raise DomainError("need n >= 1")
    return LaurentPolynomial({n: 1, 0: -1})


def squarefree_split(f: LaurentPolynomial):
    """Yun's squarefree split of normalize(f) (Yun 1976; von zur Gathen-
    Gerhard, Modern Computer Algebra, 14.6): pairs (q_i, i), i increasing,
    the q_i ascending integer lists, primitive with q_i[-1] > 0, squarefree,
    nonconstant and pairwise coprime, with normalize(f) = content * prod
    q_i^i ([] for a constant f).  It runs on the primitive part of f over
    Z, and each step's quotients are the cofactors _gcd returns with g."""
    if f.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no squarefree split")
    return _yun(_primitive(f.coefficients_ascending())[2])


def _yun(b):
    """squarefree_split of the primitive integer list b."""
    d, pairs, i = _derivative(b), [], 0
    # step 0 divides f and f' by their gcd, which is no a_i; before step i,
    # b = prod_{j >= i} a_j and d = sum_{j > i} (j - i) a_j' b / a_j, so
    # gcd(b, d) = a_i
    while len(b) > 1:
        a, b, d = _gcd(b, d)
        d = _poly_sub(d, _derivative(b))
        if i and len(a) > 1:
            pairs.append((a if a[-1] > 0 else [-c for c in a], i))
        i += 1
    return pairs


# -- ascending coefficient lists c_0 .. c_d over Z, or over Z/mod where a
# modulus is given; reducing drops top zeros down to a lone 0


def _horner(coeffs, z):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def _split_t_minus_one(c):
    """(m, q) with c = (t - 1)^m q and q(1) != 0, for a nonzero list c:
    each quotient by t - 1 is the list of suffix sums of c_1 .. c_d."""
    m = 0
    while len(c) > 1 and sum(c) == 0:
        c = list(accumulate(c[:0:-1]))[::-1]
        m += 1
    return m, c


def _derivative(a):
    return [i * c for i, c in enumerate(a)][1:]


def _reduce(a, mod=None):
    """a reduced mod ``mod`` when given, top zeros dropped."""
    a = [c % mod for c in a] if mod is not None else list(a)
    while len(a) > 1 and not a[-1]:
        a.pop()
    return a


def _poly_add(a, b, mod=None):
    return _reduce([x + y for x, y in zip_longest(a, b, fillvalue=0)], mod)


def _poly_sub(a, b, mod=None):
    return _reduce([x - y for x, y in zip_longest(a, b, fillvalue=0)], mod)


def _poly_mul(a, b, mod=None):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _reduce(out, mod)


def _poly_mulmod(a, b, F, mod=None):
    """a b modulo the monic F of degree d (and ``mod``, when given), all d
    coefficients kept, for any list a and a residue b of length d."""
    d = len(F) - 1
    out = [0] * (len(a) + d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for k in range(len(out) - 1, d - 1, -1):    # subtract c y^(k-d) F
        c = out[k] if mod is None else out[k] % mod
        for j in range(d):
            out[k - d + j] -= c * F[j]
    return out[:d] if mod is None else [x % mod for x in out[:d]]


def _poly_divmod(a, h, mod=None):
    """(q, r) with a = q h + r and deg r < deg h, over Z/mod for a monic h,
    or over Z when lead(h) divides every quotient coefficient (otherwise
    ConvergenceError)."""
    d, lead = len(h) - 1, h[-1]
    r = list(a)
    q = [0] * max(1, len(r) - d)
    for k in range(len(r) - 1, d - 1, -1):
        c, rest = divmod(r[k] if mod is None else r[k] % mod, lead)
        if rest:
            raise ConvergenceError("polynomial division is not exact over Z")
        if c:
            q[k - d] = c
            for j in range(d + 1):
                r[k - d + j] -= c * h[j]
    return _reduce(q, mod), _reduce(r[:d], mod)


def _primitive(coeffs):
    """(g, den, q) with the exact coefficients (int or Fraction) equal to
    g/den * q, q a primitive integer list (all 0 for zero), g, den >= 1."""
    den = math.lcm(*(c.denominator for c in coeffs))
    q = [c.numerator * (den // c.denominator) for c in coeffs]
    g = math.gcd(*q) or 1
    return g, den, [x // g for x in q]


def _gcd(a, b):
    """(g, a / g, b / g) for reduced integer lists a and b, g a primitive
    gcd over Z (a itself, cofactors [1] and [0], when b is zero), by GCDHEU
    (Char, Geddes and Gonnet 1989) on the primitive parts.  At xi = 2^k >
    2 min(|a|, |b|) + 2 (max norms; 8 more bits absorb small spurious
    factors), g is the primitive part of gamma = gcd(a(xi), b(xi)) read in
    symmetric xi-adic digits, and the cofactors are a(xi) / g(xi) and
    b(xi) / g(xi) so read.  Exact products certify g: a further common
    factor h, its roots those of a and b, would have |h(xi)| > xi / 2, more
    than the digits' content leaves room for.  After HEU_GCD_TRIES values
    of xi the primitive remainder sequence (Brown 1971) decides."""
    if not any(a) or not any(b):
        return (b, [0], [1]) if any(b) else (a, [1], [0])
    if len(a) == 1 or len(b) == 1:     # a nonzero constant
        return [1], a, b
    (ca, _, pa), (cb, _, pb) = _primitive(a), _primitive(b)
    k = (2 * min(max(map(abs, pa)), max(map(abs, pb))) + 2).bit_length() + 8
    for _ in range(HEU_GCD_TRIES):
        va, vb = (sum(c << k * i for i, c in enumerate(p)) for p in (pa, pb))
        gamma = math.gcd(va, vb)
        if gamma == 1:  # coprime: what the digits below would certify
            return [1], a, b
        content, _, g = _primitive(_digits(gamma, k))
        fa, fb = (_digits(v * content // gamma, k) for v in (va, vb))
        if _poly_mul(fa, g) == pa and _poly_mul(fb, g) == pb:
            break
        k += k // 2
    else:   # each pseudo-remainder is replaced by its primitive part
        u, v = (pa, pb) if len(pa) >= len(pb) else (pb, pa)
        while any(v):
            scale = v[-1] ** (len(u) - len(v) + 1)
            u, v = v, _primitive(_poly_divmod([scale * x for x in u], v)[1])[2]
        g = _primitive(u)[2]
        (fa, ra), (fb, rb) = _poly_divmod(pa, g), _poly_divmod(pb, g)
        if any(ra) or any(rb):
            raise ConvergenceError("a primitive gcd left a remainder over Z")
    return g, [ca * c for c in fa], [cb * c for c in fb]


def _digits(v, k):
    """The symmetric digits c of v = sum c_i 2^(k i), |c_i| <= 2^(k - 1)."""
    out, half = [], 1 << k - 1
    while v:
        out.append(((v + half - 1) & (2 * half - 1)) - half + 1)
        v = (v - out[-1]) >> k
    return out


def _monic(q, variable):
    """q / lead(q) as a LaurentPolynomial (zero for a zero list q)."""
    return LaurentPolynomial(
        {e: Fraction(c, q[-1]) for e, c in enumerate(q) if c}, variable)
