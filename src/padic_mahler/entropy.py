"""Entropy of the companion action of an integer polynomial, decomposed
over the places of Q.

With A normalized, a_0 its (positive) leading coefficient and c its
content, the place-p entropy is h_p = (v_p(a_0) - v_p(c)) log p = v_p(s)
log p for s = a_0/c, nonzero only at primes dividing s; the infinite part
is h_inf = log m(A/c) - log s, and the total h equals log m(A/c) (the
Yuzvinski / Kolmogorov-Sinai formula).  The balance identity
-log|a_0|_p = h_p + mu_p log p is an arithmetic consequence, reported per
prime with its verdict, as is log|a_0| = sum_p h_p + sum_p mu_p log p;
entropy_total checks the float reconciliation of h against log m(A/c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError
from .iwasawa import mu_invariant
from .mahler import LogMeasure, mahler_euclidean, mahler_padic
from .ntheory import check_prime, factorize, vp_int
from .polynomials import (LaurentPolynomial, content_and_primitive,
                          normalize_integral)


def entropy_padic(A: LaurentPolynomial, p: int) -> LogMeasure:
    """h_p = (v_p(a_0) - min_i v_p(a_i)) log p, the log measure of the
    monic normalization A/a_0 at p: v_p(a_0) plus the p-adic log measure
    of A, whose Gauss norm mahler_padic checks against the polygon."""
    check_prime(p)
    A = normalize_integral(A)
    lead_val = vp_int(int(A.leading_coefficient), p)
    return LogMeasure.finite(p, lead_val + mahler_padic(A, p).coefficient)


@dataclass
class BalanceIdentity:
    """The three exact terms of -log|a_0|_p = h_p + mu_p log p,
    as rational multiples of log p."""

    p: int
    lead_valuation: Fraction    # -log|a_0|_p / log p
    entropy_coefficient: Fraction
    mu: int

    @property
    def holds(self) -> bool:
        return self.lead_valuation == self.entropy_coefficient + self.mu

    def to_dict(self):
        return {"p": self.p,
                "lead_valuation": str(self.lead_valuation),
                "h_p_coefficient": str(self.entropy_coefficient),
                "mu": self.mu,
                "holds": self.holds}


def balance_check(A: LaurentPolynomial, p: int) -> BalanceIdentity:
    """The one home of the triple (v_p(a_0), h_p, mu_p)."""
    A = normalize_integral(A)
    lead_val = Fraction(vp_int(int(A.leading_coefficient), p))
    h_coeff = entropy_padic(A, p).coefficient
    return BalanceIdentity(p, lead_val, h_coeff, mu_invariant(A, p))


@dataclass
class LeadingCoefficientIdentity:
    """log|a_0| = sum_p h_p + sum_p mu_p log p, held exactly as the balance
    triple at each prime of a_0: the table of A that entropy_total reads."""

    leading_coefficient: int
    per_prime: dict            # p -> BalanceIdentity, ascending p

    @property
    def holds(self) -> bool:
        return all(b.holds for b in self.per_prime.values())


def leading_coeff_identity(A: LaurentPolynomial) -> LeadingCoefficientIdentity:
    """{p: balance_check(A, p)} over the primes of one complete
    factorization of a_0 (ntheory.factorize)."""
    A = normalize_integral(A)
    a0 = int(A.leading_coefficient)
    return LeadingCoefficientIdentity(
        a0, {p: balance_check(A, p) for p in factorize(a0)})


@dataclass
class EntropyReport:
    polynomial: LaurentPolynomial
    leading_coefficient: int
    content: int
    content_factors: dict
    h_inf: LogMeasure
    h_p: dict = field(default_factory=dict)       # prime -> Fraction coefficient
    h_total: float = 0.0
    log_mahler_primitive: LogMeasure | None = None
    balance: dict = field(default_factory=dict)   # prime -> BalanceIdentity

    def to_dict(self):
        return {
            "polynomial": str(self.polynomial),
            "leading_coefficient": self.leading_coefficient,
            "content": self.content,
            "content_factors": {str(p): e for p, e in self.content_factors.items()},
            "h_inf": self.h_inf.to_dict(),
            "h_p": {str(p): str(c) for p, c in sorted(self.h_p.items())},
            "h_total": self.h_total,
            "log_mahler_primitive": self.log_mahler_primitive.to_dict(),
            "balance": {str(p): b.to_dict() for p, b in sorted(self.balance.items())},
        }


def entropy_total(A: LaurentPolynomial, tol: float = 1e-9) -> EntropyReport:
    """h = h_inf + sum_p h_p, read off the leading_coeff_identity table:
    h_p and content_factors are its nonzero h_p and mu_p = v_p(content).
    Each triple holds as h_p = v_p(a_0) - g, mu_p = g for the Gauss valuation
    g at p; checked is the reconciliation h = log m(primitive), within tol."""
    A = normalize_integral(A)
    balance = leading_coeff_identity(A).per_prime
    h_p = {p: b.entropy_coefficient for p, b in balance.items()
           if b.entropy_coefficient}
    content_factors = {p: b.mu for p, b in balance.items() if b.mu}
    content, primitive = content_and_primitive(A)
    a0 = int(A.leading_coefficient)
    s = a0 // content
    m_prim = mahler_euclidean(primitive, tol=tol / 2)
    finite_sum = sum(float(c) * math.log(p) for p, c in h_p.items())
    h_inf = LogMeasure.infinite(m_prim.value - math.log(s), m_prim.error)
    h_total = h_inf.value + finite_sum
    if abs(h_total - m_prim.value) > 2 * tol:
        raise DomainError("entropy reconciliation failed beyond tolerance")
    return EntropyReport(
        polynomial=A, leading_coefficient=a0, content=content,
        content_factors=content_factors, h_inf=h_inf, h_p=h_p,
        h_total=h_total, log_mahler_primitive=m_prim, balance=balance)
