"""Resultants: Sylvester/Bareiss oracle and fast paths on residues.

The signed resultant of f = a*prod(t - alpha_i), g = b*prod(t - beta_j) is

    R(f, g) = a^deg(g) * b^deg(f) * prod_{i,j} (alpha_i - beta_j),

the determinant of the Sylvester matrix.  Three routes are kept:

* the oracle: fraction-free Bareiss elimination on the Sylvester matrix;
* one n: the cyclic resultant R(f, nu_n), nu_n = 1 + t + ... + t^(n-1),
  of f split first as c (t - 1)^m prod q_i^i (content, squarefree_split),
  each R(q_i, nu_n) by binary powering of residues modulo F, the
  characteristic polynomial of the scaled companion matrix B = a C
  (_scaled_monic), and one determinant of dimension deg q_i
  (cyclic_resultant), which also gives R(f, t^n - 1) = R(f, t - 1)
  R(f, nu_n) with R(f, t - 1) = (-1)^deg(f) f(1);
* runs of n, dense or sparse: the trace sweep (cyclic_resultant_sweep),
  no determinant: Newton's identities on the power sums of the roots of
  F give det(y - B^n) but its last coefficient, read off g(0), g the
  (t - 1)-free part of f, kept for the last g swept (memo.py).

The three agree, and the test suite checks that they do.  Modulo p^K,
cyclic_resultant_valuation reads each step's valuation off a pivoted
elimination over Z/p^K (_det_valuation_mod), K = 16 doubling until each
step's valuation is certified strictly below K - 1 (refused past
K = (d0 + 2)(bits(n_max) + 8) + 32 times 2^7, d0 = deg f0).

Conventions: R(0, g) = 0 and R(c, g) = c^deg(g) for constants, so
R(1, g) = 1.  Laurent inputs are normalized (min exponent 0, positive
leading coefficient) before any resultant is taken.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from operator import mul

from . import memo
from .errors import ConvergenceError, DomainError
from .ntheory import check_prime, doubling, vp_int
from .padics import _unit_root_factor
from .polynomials import (
    LaurentPolynomial,
    _poly_mulmod,
    _primitive,
    _split_t_minus_one,
    _yun,
    all_ones_polynomial,
    normalize,
    normalize_integral,
    power_minus_one,
)

# -- Bareiss --------------------------------------------------------------


def bareiss_determinant(matrix) -> int:
    """Exact determinant of a square integer matrix by fraction-free
    (single-step Bareiss) elimination."""
    m = [row[:] for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def sylvester_matrix(f_desc, g_desc):
    """Sylvester matrix from descending integer coefficient lists."""
    m = len(f_desc) - 1
    n = len(g_desc) - 1
    size = m + n
    rows = []
    for i in range(n):
        rows.append([0] * i + f_desc + [0] * (size - i - m - 1))
    for i in range(m):
        rows.append([0] * i + g_desc + [0] * (size - i - n - 1))
    return rows


def resultant(f: LaurentPolynomial, g: LaurentPolynomial) -> Fraction:
    """Signed exact resultant via Bareiss elimination on the Sylvester
    matrix.  Laurent inputs are replaced by their normalizations."""
    if f.is_zero or g.is_zero:
        return Fraction(0)
    f = normalize(f)
    g = normalize(g)
    df, dg = f.degree, g.degree
    if df == 0:
        return f.leading_coefficient**dg
    if dg == 0:
        return g.leading_coefficient**df
    # R(c f, g) = c^deg(g) R(f, g), so the primitive parts suffice
    gf, nf, fq = _primitive(f.coefficients_ascending())
    gg, ng, gq = _primitive(g.coefficients_ascending())
    det = bareiss_determinant(sylvester_matrix(fq[::-1], gq[::-1]))
    return Fraction(det * gf**dg * gg**df, nf**dg * ng**df)


# -- residues modulo the scaled characteristic polynomial ---------------


def _scaled_monic(coeffs):
    """(F, a) for f given by its ascending integer coefficients c_0 .. c_d,
    with a = c_d: the monic integer F(y) = a^(d-1) f(y/a), whose roots are
    the a alpha_i.  F is the characteristic polynomial of B = a C, C the
    companion matrix of f/a, and its own companion matrix is similar to B;
    F = [1] when d = 0."""
    *low, a = coeffs
    d = len(low)
    return [c * a ** (d - 1 - i) for i, c in enumerate(low)] + [1], a


def _power_and_ones_sum(b, a, n, F, mod=None):
    """(b^n, H_n), H_n = sum_{i<n} a^(n-1-i) b^i, residues modulo the monic
    F (and ``mod``) by binary recursion, b reduced if it has deg F terms."""
    if n == 1:
        one = [1] + [0] * (len(F) - 2)
        return (b if len(b) == len(one) else _poly_mulmod(b, one, F, mod)), one
    m = n // 2
    P, H = _power_and_ones_sum(b, a, m, F, mod)
    # H_{2m} = (a^m + b^m) H_m, a sum alone as H_1 = 1 ; b^{2m} = (b^m)^2
    S = [P[0] + pow(a, m, mod), *P[1:]]
    H = _poly_mulmod(S, H, F, mod) if m > 1 else S
    P = _poly_mulmod(P, P, F, mod)
    if n % 2:
        # H_{2m+1} = a H_{2m} + b^{2m} ; b^{2m+1} = b b^{2m}
        H = [a * h + x for h, x in zip(H, P)]
        P = _poly_mulmod(b, P, F, mod)
    return P, H


def _multiplication_matrix(h, F, mod=None):
    """h(C), C the companion matrix of the monic F: the matrix of
    multiplication by the residue h (d = deg F coefficients) modulo F (and
    ``mod``), whose column j is y^j h mod F, y times column j - 1."""
    cols, col = [], h
    for _ in range(len(F) - 1):
        cols.append(col if mod is None else [x % mod for x in col])
        col = [x - cols[-1][-1] * f for x, f in zip([0, *cols[-1][:-1]], F)]
    return [list(row) for row in zip(*cols)]


def berkowitz_determinant_mod(A, mod: int) -> int:
    """Division-free determinant of a square matrix over Z/mod: the test
    oracle for _det_valuation_mod, kept while bench/tracer.py wraps it."""
    n, poly = len(A), [1]
    for i in range(n):
        # q_(k+2) = -R M^k S, R and S the row and column meeting A[i][i]
        # and M the leading i x i block; map() stops at len(vec) = i
        row, vec = A[i], [A[k][i] for k in range(i)]
        q = [1, -row[i]]
        for k in range(i):
            q.append(-sum(map(mul, row, vec)) % mod)
            if k < i - 1:
                vec = [sum(map(mul, r, vec)) % mod for r in A[:i]]
        poly = [sum(map(mul, q[k::-1], poly)) % mod for k in range(i + 2)]
    return (-1) ** n * poly[n] % mod


def _det_valuation_mod(m, p: int, K: int):
    """v_p (det m mod p^K) for a square matrix m with entries reduced mod
    p^K, by elimination over Z/p^K with full pivoting on an entry of least
    valuation (the first p-unit in row order, else the least vp_int): the
    sum of the pivot valuations, or None once a remaining block vanishes
    mod p^K.

    A pivot p^e u (u a unit) has least valuation in its block, so every
    multiplier a_ik / p^e * u^(-1) is p-integral; the row operations keep
    det m mod p^K, which is therefore +-(product of the pivots) mod p^K.
    So a sum w < K is v_p (det m mod p^K), and w >= K means, as None does,
    that det m = 0 mod p^K.
    """
    mod, w = p**K, 0
    m = [row[:] for row in m]
    while m:
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                if x % p:
                    break
            else:
                continue
            e = 0
            break
        else:  # no unit left: the least valuation, if any entry is nonzero
            nonzero = [(vp_int(x, p), i, j) for i, row in enumerate(m)
                       for j, x in enumerate(row) if x]
            if not nonzero:
                return None
            e, i, j = min(nonzero)
        pivot_row = m.pop(i)
        pe = p**e
        inv = pow(pivot_row.pop(j) // pe, -1, mod)
        for row in m:
            x = row.pop(j)
            if x:
                c = x // pe * inv % mod
                row[:] = [(y - c * z) % mod for y, z in zip(row, pivot_row)]
        w += e
    return w


# -- cyclic resultants -----------------------------------------------------


def _check_variant(variant: str):
    if variant not in ("ones", "full"):
        raise DomainError(f"unknown cyclic resultant variant {variant!r}")


def cyclic_resultant(f: LaurentPolynomial, n: int, variant: str = "ones") -> int:
    """Signed exact R(f, nu) with nu = 1 + t + ... + t^(n-1)
    (variant="ones") or R(f, t^n - 1) = R(f, t - 1) R(f, nu)
    (variant="full"), with R(f, t - 1) = (-1)^deg(f) f(1).

    f must be nonzero with integer coefficients.  normalize(f) is split
    first as c (t - 1)^m prod q_i^i (content, squarefree_split).  R is
    multiplicative in f, R(c, nu_n) = c^(n-1) and R(t - 1, nu_n) =
    nu_n(1) = n, so R(f, nu_n) = c^(n-1) n^m prod R(q_i, nu_n)^i, and
    "full" is 0 for m > 0, with no determinant.  Each R(q, nu_n) =
    a^(n-1) det nu_n(C) is det H / a^((n-1)(d-1)), one Bareiss determinant
    of dimension d = deg q, H the matrix of multiplication by
    sum_{i<n} a^(n-1-i) y^i modulo F = _scaled_monic(q), reduced by binary
    powering: the route for one isolated n (cyclic_resultant_sweep serves
    dense runs of n).
    """
    if n < 1:
        raise DomainError("need n >= 1")
    _check_variant(variant)
    m, g = _split_t_minus_one(
        normalize_integral(f).integer_coefficients_ascending())
    if m and variant == "full":
        return 0    # t = 1 is a root of both
    value = n**m if variant == "ones" else (-1) ** (len(g) - 1) * sum(g)
    c, _, g = _primitive(g)
    value *= c ** (n - 1)
    for q, i in _yun(g):
        F, a = _scaled_monic(q)
        H = _power_and_ones_sum([0, 1], a, n, F)[1]
        det, r = divmod(bareiss_determinant(_multiplication_matrix(H, F)),
                        a ** ((n - 1) * (len(F) - 2)))
        if r:
            raise ConvergenceError("companion scaling must divide exactly")
        value *= det**i
    return value


# the most bits of R(g, t^n - 1) the "sweep" slot keeps (1 MiB)
_MEMO_BITS = 1 << 23


def _sweep_kernel(g, ns):
    """Yield R(g, t^n - 1) for each n of the strictly increasing list ns,
    g the ascending coefficients of an integer polynomial with g(1) != 0.
    With e = deg g >= 1, a = lead g, x = a^n and det(y - B^n) = sum_k c_k
    y^(e-k), R(g, t^n - 1) = (-1)^e sum_k c_k / x^(k-1).  Each term is an
    integer, (-1)^k a^n e_k(alpha^n) with a alpha_i1 .. alpha_ik an
    algebraic integer, the last is (-1)^e h^n, h = (-1)^e g(0), and so
    R(g, t^n - 1) = (-1)^e (x + T) + h^n, T = sum_{0<k<e} c_k / x^(k-1)
    taken top down, T <- T / x + c_k.  A constant g yields x."""
    F, a = _scaled_monic(g)
    e, q = len(g) - 1, F[-2::-1]    # q_j: the coefficient of x^(e - j) in F
    kept = dict.fromkeys(j * n for n in ns for j in range(1, e))    # P_jn
    recent = deque([0] * e, maxlen=e)   # P_(k-e) .. P_(k-1), 0 for k <= 0
    for prev, n in zip([0, *ns], ns):
        for k in range((e - 1) * prev + 1, (e - 1) * n + 1):
            # Newton: P_k = -sum_{j <= min(k, e)} q_j P_(k-j) - [k <= e] k q_k
            s = sum(map(mul, q, reversed(recent)))
            recent.append(-s - k * q[k - 1] if k <= e else -s)
            if k in kept:
                kept[k] = recent[-1]
        # k c_k = -sum_{j <= k} c_(k-j) P_(jn), for k < e
        traces = [kept[j * n] for j in range(1, e)]
        chi, x, T = [1], a**n, 0
        for k in range(1, e):
            c, r = divmod(-sum(map(mul, reversed(chi), traces)), k)
            if r:
                raise ConvergenceError("Newton's identity left a remainder")
            chi.append(c)
        for c in chi[:0:-1]:
            T, r = divmod(T, x)
            if r:
                raise ConvergenceError("companion scaling must divide exactly")
            T += c
        yield (-1) ** e * (x + T) + ((-1) ** e * g[0]) ** n if e else x


def cyclic_resultant_sweep(f: LaurentPolynomial, ns, variant: str = "ones"):
    """Yield cyclic_resultant(f, n, variant) for each n of the strictly
    increasing iterable ``ns`` of positive integers, with no determinant.

    f = (t - 1)^m g with g(1) != 0 is split first, e = deg g, and

        R(f, t^n - 1) = 0 if m > 0, else R(g, t^n - 1),
        R(f, nu_n) = n^m R(g, t^n - 1) / ((-1)^e g(1)).

    R(g, t^n - 1) comes from traces, as in Le Verrier's method: the power
    sums P_k = tr(B^k) of the roots a alpha_i of F = _scaled_monic(g)
    follow Newton's recurrence on its coefficients, one O(e) step per k up
    to (e - 1) max(ns); Newton's identities on P_n, .., P_(e-1)n give the
    coefficients of det(y - B^n) but the last, read off g(0), in O(e^2)
    per n (_sweep_kernel), every division checked exact.  Only the P_(jn),
    j < e, and the last e P_k are kept, so dense and sparse runs of n (the
    purely p-adic stabilization window) are served alike.

    Slot "sweep" of memo.py keeps {n: R(g, t^n - 1)} for g, while their
    bit lengths sum to at most _MEMO_BITS, and serves a request only when
    it holds every n asked for (else the whole request is swept again).
    """
    _check_variant(variant)
    ns = list(ns)
    if any(n <= prev for prev, n in zip([0, *ns], ns)):
        raise DomainError("sweep needs strictly increasing positive n")
    m, g = _split_t_minus_one(
        normalize_integral(f).integer_coefficients_ascending())
    if m and variant == "full":
        yield from [0] * len(ns)    # t = 1 is a root of both
        return
    known, held = memo.last("sweep", tuple(g), lambda: ({}, [0]))
    values = ([known[n] for n in ns] if all(n in known for n in ns)
              else _sweep_kernel(g, ns))
    r1 = (-1) ** (len(g) - 1) * sum(g)     # R(g, t - 1)
    for n, value in zip(ns, values):
        bits = value.bit_length()
        if n not in known and held[0] + bits <= _MEMO_BITS:
            known[n] = value
            held[0] += bits
        if variant == "ones":
            value, r = divmod(n**m * value, r1)
            if r:
                raise ConvergenceError(
                    "R(g, t - 1) must divide n^m R(g, t^n - 1) exactly")
        yield value


def cyclic_resultant_sylvester(f: LaurentPolynomial, n: int,
                               variant: str = "ones") -> int:
    """Sylvester-matrix oracle for cyclic_resultant (slow, independent)."""
    _check_variant(variant)
    g = {"ones": all_ones_polynomial, "full": power_minus_one}[variant](n)
    value = resultant(f, g)
    if value.denominator != 1:
        raise ConvergenceError(
            "resultant of integral polynomials must be an integer")
    return int(value)


def cyclic_resultant_valuation(f: LaurentPolynomial, ns, p: int):
    """[v_p cyclic_resultant(f, n, "ones") for n in ns], exactly, for a
    divisor chain ns (each n >= 1 divides the next).  Each is split along
    the Newton polygon as

        v_p R(f, nu_n) = (n - 1) * mu + v_p R(f0, nu_n),

    where mu is the Gauss-norm valuation (the p-adic Mahler measure is
    p^(-mu)) and f0 the monic factor of G = f / p^mu over Z_p whose roots
    are the p-adic units.  A root alpha of G with |alpha|_p > 1 gives
    nu_n(alpha) of valuation (n - 1) v_p(alpha), one with |alpha|_p < 1 a
    unit; together with the leading coefficient they contribute exactly
    (n - 1) * mu.  In a p-power tower, n = p^r, this is the mu * p^r term
    of the Iwasawa formula.

    With C the companion matrix of f0 mod p^K, R(f0, nu_n) = det nu_n(C);
    as nu_(qm)(t) = nu_q(t^m) nu_m(t), the step from m to qm adds v_p det
    nu_q(C^m), the sum of the pivot valuations of a pivoted elimination
    of the multiplication matrix of nu_q(t^m) modulo f0 and p^K.
    K = 16, 32, .. doubles for the whole chain until no step's remaining
    block vanishes mod p^K and every step's valuation is below K - 1,
    exactly when its determinant mod p^K is nonzero of valuation below
    K - 1; the last K tried is
    (d0 + 2)(bits(ns[-1]) + 8) + 32 times 2^7, d0 = deg f0.  So a zero
    resultant is a ConvergenceError (callers exclude n-th roots of unity).
    """
    check_prime(p)
    if not ns or min(ns) < 1 or any(b % a for a, b in zip(ns, ns[1:])):
        raise DomainError("need a divisor chain of n >= 1")
    coeffs = normalize_integral(f).integer_coefficients_ascending()
    mu = min(vp_int(c, p) for c in coeffs if c)
    coeffs = [c // p**mu for c in coeffs]
    units = [i for i, c in enumerate(coeffs) if c % p]
    d0 = units[-1] - units[0]
    if d0 == 0:  # no unit roots: R(f0, nu_n) = 1
        return [(n - 1) * mu for n in ns]
    cap = ((d0 + 2) * (ns[-1].bit_length() + 8) + 32) << 7
    for K in doubling(16, cap):
        mod = p**K
        f0 = _unit_root_factor(coeffs, p, K)
        P, out, v = [0, 1], [], 0
        for m, n in zip([1, *ns], ns):
            P, S = _power_and_ones_sum(P, 1, n // m, f0, mod)
            w = _det_valuation_mod(_multiplication_matrix(S, f0, mod), p, K)
            if w is None or w >= K - 1:
                break  # not certified strictly inside the window
            v += w
            out.append((n - 1) * mu + v)
        else:
            return out
    raise ConvergenceError(
        "could not certify the resultant valuation; is R(f, nu_n) zero?")
