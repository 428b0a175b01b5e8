"""Iwasawa invariants of a Z-cover's polynomial, two ways.

For p-power covers the p-part of the homology order obeys
v_p(|H_1(M_{p^r})|) = lambda*r + mu*p^r + nu exactly for r >= r0.  The
analytic route reads mu off the Gauss norm and lambda off the coefficients
c_i of A(1+T): the least i with v_p(c_i) = mu, which by Weierstrass
preparation counts the roots T of A(1+T)/p^mu with v_p(T) > 0, including
T = 0.  The fitted route computes the exact valuations of the cyclic
resultants at n = p^r and solves the model on a trailing window,
demanding exact equality rather than least squares.
Their agreement is the consistency theorem this module re-proves on every
input it is given.  The public functions are the one path to each
quantity, and verify_consistency calls them: each tower computation
guards its input once, by folding A's integer coefficients for a
p-power-th root of unity, and normalizing an already normal A is free.

The tower is one call of resultants.cyclic_resultant_valuation on the
chain p, p^2, ..., p^r_max: e_r = (p^r - 1) * mu + v_p R(A0, nu_{p^r}),
with A0 the unit-root factor of A / p^mu mod p^K; K = 16 doubles until
each step's valuation is certified strictly below K - 1, and a tower is
refused past (deg A0 + 2)(bits(p^r_max) + 8) + 32 times 2^7.  The mu*p^r
term is that (n - 1) * mu term (its -mu lands in nu), and lambda*r + nu
comes from A0 alone, walked up by p-th powers: nu_{p^(r+1)}(C) =
nu_p(C^(p^r)) nu_{p^r}(C) for the companion matrix C of A0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .ntheory import check_prime, vp_int
from .polynomials import LaurentPolynomial, normalize_integral
from .resultants import cyclic_resultant_valuation
from .valuations import gauss_norm_valuation


@dataclass(frozen=True)
class IwasawaInvariants:
    p: int
    lam: int          # serialized as "lambda"
    mu: int
    nu: int
    r0: int           # least r from which the exact formula holds
    source: str       # "analytic" or "fitted"

    def to_dict(self):
        return {"p": self.p, "lambda": self.lam, "mu": self.mu,
                "nu": self.nu, "r0": self.r0, "source": self.source}


def _divisible_by_p_power_cyclotomic(A: LaurentPolynomial, p: int):
    """The smallest r >= 1 with Phi_{p^r} | A, or None, for integral A.
    Phi_{p^r}(t) = Phi_p(t^q), q = p^(r-1), divides t^(pq) - 1; fold A's
    integer coefficients mod t^(pq) - 1 to b_0 .. b_(pq-1): Phi_{p^r} | A
    iff b_j = b_(j+q) for every j < (p-1)q."""
    c = A.integer_coefficients_ascending()
    r, q = 1, 1
    while (p - 1) * q < len(c):
        b = [sum(c[j::p * q]) for j in range(p * q)]
        if all(b[j] == b[j + q] for j in range((p - 1) * q)):
            return r
        r, q = r + 1, q * p
    return None


def qhs3_condition(A: LaurentPolynomial, p: int) -> bool:
    """True iff A vanishes at no p-power-th root of unity (including 1),
    i.e. iff all the branched p-power covers are rational homology
    spheres."""
    check_prime(p)
    A = normalize_integral(A)
    if A(1) == 0:
        return False
    return _divisible_by_p_power_cyclotomic(A, p) is None


def _guarded(A: LaurentPolynomial, p: int) -> LaurentPolynomial:
    """The normalized A, after the guard every tower computation needs:
    only a nontrivial p-power-th root of unity among the roots makes
    R(A, nu_{p^r}) vanish (a zero at t = 1 is harmless there,
    nu_n(1) = n != 0)."""
    check_prime(p)
    A = normalize_integral(A)
    r = _divisible_by_p_power_cyclotomic(A, p)
    if r is not None:
        raise DomainError(
            f"A vanishes at primitive {p}^{r}-th roots of unity; "
            f"the resultant tower degenerates")
    return A


def mu_invariant(A: LaurentPolynomial, p: int) -> int:
    """mu = min_i v_p(a_i), the Gauss-norm valuation."""
    check_prime(p)
    A = normalize_integral(A)
    return gauss_norm_valuation(A, p)


def lambda_invariant(A: LaurentPolynomial, p: int) -> int:
    """lambda = the least i with v_p(c_i) = mu, where c is A(1+T) in T:
    by Weierstrass preparation the number of roots T of A(1+T)/p^mu with
    v_p(T) > 0, including T = 0.  (The Taylor shift is invertible over Z,
    so min_i v_p(c_i) is the Gauss-norm valuation mu of A.)"""
    A = _guarded(A, p)
    mu = gauss_norm_valuation(A, p)
    c = A.integer_coefficients_ascending()
    for i in range(len(c) - 1):          # integer Taylor shift t -> 1 + T
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += c[j + 1]
    return next(i for i, x in enumerate(c) if vp_int(x, p) == mu)


def tower_order_valuations(A: LaurentPolynomial, p: int, r_max: int):
    """e_r = v_p(|R(A, nu_{p^r})|) for r = 1..r_max, exactly."""
    return cyclic_resultant_valuation(
        _guarded(A, p), [p**r for r in range(1, r_max + 1)], p)


def fit_invariants(A: LaurentPolynomial, p: int, r_max: int = 6) -> IwasawaInvariants:
    """Solve e_r = lambda*r + mu*p^r + nu on a trailing window of exact
    resultant valuations; returns the invariants and the least r0 from
    which the formula holds verbatim."""
    A = _guarded(A, p)
    if r_max < 3:
        raise DomainError("fitting needs r_max >= 3")
    e = cyclic_resultant_valuation(A, [p**r for r in range(1, r_max + 1)], p)
    # the second difference of the tail is mu (p - 1)^2 p^(r_max - 2)
    d2 = e[-1] - e[-2]
    mu, rest = divmod(d2 - e[-2] + e[-3], (p - 1) ** 2 * p ** (r_max - 2))
    lam = d2 - mu * (p - 1) * p ** (r_max - 1)
    if rest or mu < 0 or lam < 0:
        raise ConvergenceError(
            f"no stable Iwasawa window up to r_max={r_max}; raise r_max")
    nu = e[-1] - lam * r_max - mu * p**r_max
    # mu, lam and nu solve e at r_max - 2 .. r_max exactly, so r0 <= r_max - 2
    r0 = r_max
    while r0 > 1 and e[r0 - 2] == lam * (r0 - 1) + mu * p**(r0 - 1) + nu:
        r0 -= 1
    return IwasawaInvariants(p, lam, mu, nu, r0, "fitted")


@dataclass(frozen=True)
class ConsistencyReport:
    p: int
    analytic_lambda: int
    analytic_mu: int
    fitted: IwasawaInvariants

    @property
    def consistent(self) -> bool:
        return (self.analytic_lambda == self.fitted.lam
                and self.analytic_mu == self.fitted.mu)

    def to_dict(self):
        return {"p": self.p, "analytic": {"lambda": self.analytic_lambda,
                                          "mu": self.analytic_mu},
                "fitted": self.fitted.to_dict(),
                "consistent": self.consistent}


def verify_consistency(A: LaurentPolynomial, p: int,
                       r_max: int = 6) -> ConsistencyReport:
    """Assert analytic (lambda, mu) = fitted (lambda, mu); the analytic mu
    is the Gauss-norm valuation, so the p-adic Mahler measure is p^(-mu).

    A simple zero at t = 1 is tolerated (it is the (t-1) factor every
    link cover polynomial carries); any further degeneracy at p-power-th
    roots of unity is an error.
    """
    check_prime(p)
    A = normalize_integral(A)
    c = A.integer_coefficients_ascending()
    # a multiple zero at 1 is A(1) = 0 = A'(1)
    if sum(c) == 0 == sum(i * x for i, x in enumerate(c)):
        raise DomainError(
            "A has a multiple zero at t = 1; the homology model breaks")
    lam = lambda_invariant(A, p)
    mu = mu_invariant(A, p)
    fitted = fit_invariants(A, p, r_max)
    report = ConsistencyReport(p, lam, mu, fitted)
    if not report.consistent:
        raise ConvergenceError(
            f"analytic (lambda, mu) = ({lam}, {mu}) disagrees with fitted "
            f"({fitted.lam}, {fitted.mu}) at p = {p}")
    return report

