"""Exact Mahler measures, cyclic resultants, homology growth, Iwasawa
invariants and p-adic entropies of one-variable link polynomials."""

from .entropy import (
    balance_check,
    entropy_padic,
    entropy_total,
    leading_coeff_identity,
)
from .errors import (
    ConvergenceError,
    DomainError,
    HenselError,
    PadicMahlerError,
    ParseError,
    PrecisionError,
    ZeroPolynomialError,
)
from .corpus import (
    branched_cover_homology_order,
    load_corpus,
    verify_corpus,
)
from .iwasawa import (
    IwasawaInvariants,
    fit_invariants,
    lambda_invariant,
    mu_invariant,
    qhs3_condition,
    verify_consistency,
)
from .mahler import (
    ConvergenceReport,
    LogMeasure,
    mahler_euclidean,
    mahler_padic,
    resultant_limit_estimate,
)
from .ntheory import INFINITY, is_prime, vp
from .padics import (
    PadicNumber,
    hensel_lift,
    padic_log,
    padic_log_of_int,
    teichmuller,
)
from .parsing import parse_laurent, parse_polynomial
from .polynomials import (
    LaurentPolynomial,
    MultivariatePolynomial,
    all_ones_polynomial,
    content_and_primitive,
    normalize,
)
from .pure import (
    PurePadicResult,
    pure_entropy,
    pure_link_growth,
    pure_log_mahler_closed_form,
    pure_log_mahler_estimate,
    pure_measure_defined,
)
from .resultants import (
    cyclic_resultant,
    cyclic_resultant_sylvester,
    cyclic_resultant_valuation,
    resultant,
)
from .valuations import (
    NewtonPolygon,
    gauss_norm_valuation,
)

__version__ = "0.1.0"
