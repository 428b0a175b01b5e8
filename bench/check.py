"""Correctness gate: compares op outputs with the reference outputs.

Exact outputs must equal the reference bit for bit: resultant sequences,
Iwasawa invariants (lambda, mu, nu, r0), p-adic digits with their
certified precision, Fraction coefficients and corpus claim statuses.
Floats derived from exact integers (the estimator sequences) may differ
from the reference by 1e-12 relative, for a different order of float
operations.  Euclidean measures must lie within the *requested* tol of a
high-precision value computed by an independent route (sympy factoring,
mpmath roots at 40 digits); the reported error bound is not used, since
it can read 0.0.  A typed refusal must match the reference by class.
"""

from __future__ import annotations

import math
from fractions import Fraction

FLOAT_REL = 1e-12
INF_CLOSED_FORM_TOL = 1e-10   # resultant_limit_estimate asks for min(tol, 1e-10)


def _close(a, b, rel=FLOAT_REL):
    return abs(a - b) <= rel * max(1.0, abs(b))


def valuations(out, p):
    """Exact v_p R(f, nu_n) recovered from the finite-place estimates
    -v/n * log p; the reference stores these integers in place of the
    estimates."""
    return [round(-est * n / math.log(p)) for n, est in
            zip(out["n"], out["estimates"])]


def _check_estimate(op, out, ref, truth):
    place = op["args"]["place"]
    for field in ("skipped", "decreasing"):
        if out[field] != ref[field]:
            return f"{field} differs from the reference"
    n_used = [n for n in range(1, op["args"]["n_max"] + 1)
              if n not in ref["skipped"]]
    coprime = [] if place == "inf" else [math.gcd(n, place) == 1
                                         for n in n_used]
    if out["n"] != n_used or out["coprime"] != coprime:
        return "sample indices differ from the reference"
    if place == "inf":
        expect = ref["estimates"]
    else:
        if valuations(out, place) != ref["valuations"]:
            return "resultant valuations differ from the reference"
        expect = [-v / n * math.log(place)
                  for n, v in zip(n_used, ref["valuations"])]
    if not all(_close(a, b) for a, b in zip(out["estimates"], expect)):
        return "estimates differ from the reference"
    if not _close(out["limit"], ref["limit"]):
        return "limit differs from the reference"
    if place == "inf":
        if abs(out["closed_form"] - truth) > INF_CLOSED_FORM_TOL:
            return (f"closed form {out['closed_form']!r} is not within "
                    f"{INF_CLOSED_FORM_TOL} of log M = {truth!r}")
    elif not _close(out["closed_form"], ref["closed_form"]):
        return "closed form differs from the reference"
    return None


def _check_entropy(op, out, ref, truth):
    tol = op["args"]["tol"]
    exact = ("h_p", "leading_coefficient", "content", "content_factors",
             "balance")
    for field in exact:
        if out[field] != ref[field]:
            return f"{field} differs from the reference"
    prim = truth - math.log(out["content"])
    s = out["leading_coefficient"] // out["content"]
    if abs(out["h_total"] - prim) > tol:
        return f"h_total is not within tol {tol} of {prim!r}"
    if abs(out["h_inf"] - (prim - math.log(s))) > tol:
        return f"h_inf is not within tol {tol} of {prim - math.log(s)!r}"
    return None


def check_op(op, outcome, reference):
    """None when the op's outcome is correct, else the reason."""
    if "crash" in outcome:
        return f"raised {outcome['crash']}"
    ref = reference["ops"][op["key"]]
    if "error" in ref:
        got = outcome.get("error", "a result")
        return None if got == ref["error"] else \
            f"expected refusal {ref['error']}, got {got}"
    if "error" in outcome:
        return f"unexpected refusal {outcome['error']}"
    out, expect = outcome["out"], ref["out"]
    kind = op["kind"]
    truth = reference["truth"].get(op["args"].get("text")
                                   or op["args"].get("poly"))
    if kind == "limit_estimate":
        return _check_estimate(op, out, expect, truth)
    if kind == "entropy":
        return _check_entropy(op, out, expect, truth)
    if kind == "mahler":
        tol = op["args"]["tol"]
        return None if abs(out["value"] - truth) <= tol else \
            f"log M {out['value']!r} is not within tol {tol} of {truth!r}"
    return None if out == expect else "output differs from the reference"


# -- cross-checks between routes ----------------------------------------------


def _padic_fraction(x):
    """(value, absolute precision) of a canonical PadicNumber."""
    if x["unit"] == 0:
        return Fraction(0), math.inf if x["v"] == "inf" else x["v"]
    return Fraction(x["unit"]) * Fraction(x["p"]) ** x["v"], x["v"] + x["N"]


def _vp(q: Fraction, p):
    if q == 0:
        return math.inf
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def padic_agreement(x, y):
    """Digits on which two canonical PadicNumbers agree, capped by the
    precision either one certifies."""
    (a, pa), (b, pb) = _padic_fraction(x), _padic_fraction(y)
    return min(_vp(a - b, x["p"]), pa, pb)


def estimator_vs_closed_form(runs):
    """For each polynomial whose estimator and closed form both answered,
    the estimator must agree with the closed form on every digit it
    certifies.  ``runs`` maps poly text to {kind: out}."""
    results = []
    for text, outs in sorted(runs.items()):
        est, closed = outs.get("pure_estimate"), outs.get("pure_closed_form")
        if est is None or closed is None:
            continue
        certified = _padic_fraction(est["value"])[1]
        agree = padic_agreement(est["value"], closed["value"])
        results.append((f"estimator vs closed form on {text}",
                        None if agree >= certified else
                        f"agree on {agree} digits, {certified} certified"))
    return results


def route_checks(checks, reference):
    """Companion fast path vs Sylvester oracle for n <= 12, both equal to
    the reference; digests of the full sequences equal to the reference."""
    results = []
    for text, rows in sorted(checks["small"].items()):
        expect = reference["polys"][text]
        for variant, row in sorted(rows.items()):
            name = f"cyclic_resultant vs Sylvester ({variant}) on {text}"
            if row["fast"] != row["oracle"]:
                results.append((name, "routes disagree"))
            elif row["fast"] != expect[variant]:
                results.append((name, "differs from the reference"))
            else:
                results.append((name, None))
    for text, digests in sorted(checks["sequences"].items()):
        expect = reference["polys"][text]
        for variant, digest in sorted(digests.items()):
            results.append((f"resultant sequence ({variant}) of {text}",
                            None if digest == expect[f"digest_{variant}"]
                            else "differs from the reference"))
    return results
