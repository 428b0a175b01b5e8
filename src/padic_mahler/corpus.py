"""Link-record corpus and the end-to-end verification harness.

Each record stores the printed two-variable polynomial, the substitutions
that reduce it to one variable, an optional per-substitution override for
the places where the source's printed reduced form disagrees with the
substitution (the override carries the claims, the mismatch is annotated,
nothing is silently corrected), and a list of claims tagged PAPER, DERIVED
or TRIVIAL.  Verification runs every claim and reports pass/fail/skip;
the process exit status is nonzero exactly when a PAPER-tagged claim
fails.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .entropy import balance_check, entropy_total
from .errors import DomainError, PadicMahlerError
from .iwasawa import mu_invariant, verify_consistency
from .mahler import mahler_euclidean, mahler_padic, resultant_limit_estimate
from .ntheory import INFINITY, vp_int
from .parsing import parse_laurent, parse_polynomial
from .polynomials import (
    LaurentPolynomial,
    MultivariatePolynomial,
    _substitute,
    normalize,
    normalize_integral,
    power_minus_one,
)
from .pure import (
    closed_form_agreement,
    pure_entropy,
    pure_link_growth,
    pure_log_mahler_closed_form,
    pure_log_mahler_estimate,
)
from .resultants import cyclic_resultant

SCHEMA_VERSION = 1


def branched_cover_homology_order(A: LaurentPolynomial, n: int,
                                  components: int = 1):
    """|R(A, nu_n)| with a caveat flag: the order of the n-fold branched
    cover's first homology, exact for knots (A(1) = +-1), determined only
    up to a bounded factor for links with >= 2 components.

    Returns (order, caveat_flag)."""
    if components < 1:
        raise DomainError("component count d must be >= 1")
    order = abs(cyclic_resultant(A, n, "ones"))
    return order, components >= 2


@dataclass
class Substitution:
    label: str
    exponents: tuple


@dataclass
class Claim:
    kind: str
    label: str | None
    provenance: str
    params: dict
    skip: str | None = None
    use_alexander: bool = False


@dataclass
class LinkRecord:
    """A link's printed polynomial ``delta``, in one or more variables, and
    the substitutions to the one variable of its Z-covers, taken as the
    CLI's --delta/--subs are (polynomials._substitute): a one-variable
    delta with exponent k becomes delta(t^k), and load_corpus refuses a
    vector whose length is not delta's arity."""

    name: str
    components: int
    substitutions: list
    reduced_overrides: dict
    annotations: list
    claims: list
    delta: MultivariatePolynomial | LaurentPolynomial = None

    def substitution(self, label: str) -> Substitution:
        for s in self.substitutions:
            if s.label == label:
                return s
        raise DomainError(f"record {self.name} has no substitution {label!r}")

    def derived_reduced(self, label: str) -> LaurentPolynomial:
        return _substitute(self.delta, self.substitution(label).exponents)

    def reduced_polynomial(self, label: str) -> LaurentPolynomial:
        """Override when present, otherwise the substituted polynomial."""
        if label in self.reduced_overrides:
            return parse_laurent(self.reduced_overrides[label])
        return self.derived_reduced(label)

    def alexander_polynomial(self, label: str) -> LaurentPolynomial:
        """(t - 1) * reduced for links, the reduced polynomial itself for
        knots."""
        reduced = self.reduced_polynomial(label)
        if self.components == 1:
            return reduced
        return reduced * power_minus_one(1)


def _parse_record(entry) -> LinkRecord:
    subs = [Substitution(s["label"], tuple(s["exponents"]))
            for s in entry["substitutions"]]
    try:
        delta = parse_polynomial(entry["delta"])
        for s in subs:      # refuses a vector of the wrong arity at load
            _substitute(delta, s.exponents)
    except PadicMahlerError as exc:
        raise DomainError(f"record {entry.get('name')}: {exc}") from exc
    claims = []
    for c in entry.get("claims", []):
        params = {k: v for k, v in c.items()
                  if k not in ("kind", "label", "provenance", "skip",
                               "use_alexander")}
        claims.append(Claim(c["kind"], c.get("label"), c["provenance"],
                            params, c.get("skip"),
                            c.get("use_alexander", False)))
    return LinkRecord(
        name=entry["name"],
        components=entry["components"],
        substitutions=subs,
        reduced_overrides=dict(entry.get("reduced_overrides", {})),
        annotations=list(entry.get("annotations", [])),
        claims=claims,
        delta=delta,
    )


def load_corpus(path=None):
    """Load LinkRecords from ``path`` or from the packaged corpus.  A path
    that cannot be read, a file that is not JSON, a top level that is not
    an object, a missing or non-list "records", and a record with a missing
    key or a value of the wrong type are DomainErrors."""
    if path is None:
        source = importlib.resources.files("padic_mahler").joinpath(
            "data/corpus.json")
        raw = json.loads(source.read_text())
    else:
        try:
            with open(path) as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise DomainError(
                f"cannot read corpus {path}: {exc.strerror}") from exc
        except ValueError as exc:       # also a file that is not UTF-8
            raise DomainError(f"corpus is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DomainError("corpus top level must be a JSON object")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise DomainError(
            f"corpus schema_version {raw.get('schema_version')!r} is not "
            f"{SCHEMA_VERSION}")
    if not isinstance(raw.get("records"), list):
        raise DomainError('corpus "records" must be a list')
    records = []
    for index, entry in enumerate(raw["records"]):
        try:
            records.append(_parse_record(entry))
        except (KeyError, TypeError, AttributeError) as exc:
            name = entry.get("name") if isinstance(entry, dict) else None
            raise DomainError(
                f"record {name or index}: malformed entry "
                f"({type(exc).__name__}: {exc})") from exc
    return records


@dataclass
class ClaimResult:
    record: str
    kind: str
    label: str | None
    provenance: str
    status: str          # "pass" | "fail" | "skip"
    detail: str
    elapsed_ms: float


@dataclass
class VerificationReport:
    results: list = field(default_factory=list)

    @property
    def failed(self):
        return [r for r in self.results if r.status == "fail"]

    @property
    def failed_paper_claims(self):
        return [r for r in self.failed if r.provenance == "PAPER"]

    @property
    def exit_status(self) -> int:
        return 1 if self.failed_paper_claims else 0

    def to_dict(self, include_timing: bool = True):
        rows = []
        for r in self.results:
            row = {"record": r.record, "kind": r.kind, "label": r.label,
                   "provenance": r.provenance, "status": r.status,
                   "detail": r.detail}
            if include_timing:
                row["elapsed_ms"] = round(r.elapsed_ms, 3)
            rows.append(row)
        counts = {"pass": 0, "fail": 0, "skip": 0}
        for r in self.results:
            counts[r.status] += 1
        return {"schema_version": SCHEMA_VERSION, "results": rows,
                "summary": counts, "exit_status": self.exit_status}

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), sort_keys=True,
                          indent=2)

    def to_text(self) -> str:
        lines = []
        width = max((len(r.record) for r in self.results), default=8)
        for r in self.results:
            lines.append(f"{r.status.upper():4} [{r.provenance:7}] "
                         f"{r.record:<{width}} {r.kind}"
                         f"{'' if not r.label else ' ' + r.label}: {r.detail}")
        counts = self.to_dict()["summary"]
        lines.append(f"passed {counts['pass']}, failed {counts['fail']}, "
                     f"skipped {counts['skip']}")
        return "\n".join(lines)


def _check_claim(record: LinkRecord, claim: Claim, tol: float):
    """Returns (ok: bool, detail: str)."""
    params = claim.params
    label = claim.label
    poly = None
    if label is not None:
        poly = (record.alexander_polynomial(label) if claim.use_alexander
                else record.reduced_polynomial(label))
    kind = claim.kind

    if kind == "reduced_form":
        expect = parse_laurent(params["expect"])
        got = record.derived_reduced(label)
        ok = (normalize(got) == normalize(expect) if params.get("up_to_units")
              else got == expect)
        return ok, f"substituted {got}, expected {params['expect']}"

    if kind == "alexander_form":
        expect = parse_laurent(params["expect"])
        got = record.alexander_polynomial(label)
        return normalize(got) == normalize(expect), \
            f"A = {normalize(got)}, expected {params['expect']} up to units"

    if kind == "mu":
        got = mu_invariant(poly, params["p"])
        return got == params["value"], \
            f"mu_{params['p']} = {got}, expected {params['value']}"

    if kind == "mahler_p_log_coefficient":
        got = mahler_padic(poly, params["p"]).coefficient
        return got == Fraction(params["value"]), \
            f"log m_{params['p']} = {got} * log {params['p']}, " \
            f"expected coefficient {params['value']}"

    if kind == "mahler_inf":
        got = mahler_euclidean(poly, tol=tol / 2)
        ok = abs(got.value - params["log_value"]) <= tol
        return ok, f"log m = {got.value:.12f}, expected " \
                   f"{params['log_value']:.12f} ({params.get('closed_form')})"

    if kind == "lead_valuation":
        lead = int(normalize_integral(poly).leading_coefficient)
        got = vp_int(lead, params["p"])
        return got == params["value"], \
            f"v_{params['p']}(a_0) = {got}, expected {params['value']}"

    if kind == "entropy_total":
        report = entropy_total(poly, tol=tol)
        ok = abs(report.h_total - params["log_value"]) <= tol
        detail = (f"h = {report.h_total:.12f}, expected "
                  f"{params['log_value']:.12f} ({params.get('closed_form')})")
        if "h_inf_log" in params:
            ok = ok and abs(report.h_inf.value - params["h_inf_log"]) <= tol
            detail += f"; h_inf = {report.h_inf.value:.12f}"
        expected_hp = {int(p): Fraction(v)
                       for p, v in params.get("h_p", {}).items()}
        if expected_hp != report.h_p:
            ok = False
            detail += f"; finite parts {report.h_p} != {expected_hp}"
        return ok, detail

    if kind == "balance":
        b = balance_check(poly, params["p"])
        expected = tuple(Fraction(x) for x in params["triple"])
        got = (b.lead_valuation, b.entropy_coefficient, Fraction(b.mu))
        return b.holds and got == expected, \
            f"(-log|a_0|_p, h_p, mu log p) = {got} * log {params['p']}, " \
            f"expected {expected}"

    if kind == "iwasawa":
        rep = verify_consistency(poly, params["p"], params.get("r_max", 6))
        inv = rep.fitted
        ok = inv.lam == params["lambda"] and inv.mu == params["mu"]
        if "nu" in params:
            ok = ok and inv.nu == params["nu"]
        if "r0" in params:
            ok = ok and inv.r0 == params["r0"]
        return ok, (f"fitted (lambda, mu, nu, r0) = "
                    f"({inv.lam}, {inv.mu}, {inv.nu}, {inv.r0}), analytic "
                    f"({rep.analytic_lambda}, {rep.analytic_mu})")

    if kind == "homology":
        order, caveat = branched_cover_homology_order(
            poly, params["n"], record.components)
        ok = order == params["value"] and caveat == params["caveat"]
        return ok, (f"|H_1(M_{params['n']})| = {order} (caveat={caveat}), "
                    f"expected {params['value']} (caveat={params['caveat']})")

    if kind == "growth_inf":
        rep = resultant_limit_estimate(poly, INFINITY, params["n_max"],
                                       tol=tol)
        n_last, est_last = rep.estimates()[-1]
        got_measure = math.exp(est_last)
        rel = abs(got_measure - params["measure"]) / params["measure"]
        ok = rel <= params["rel_tol"] and rep.notes["tail_error_decreasing"]
        return ok, (f"|R|^(1/n) at n={n_last} is {got_measure:.6f}, "
                    f"closed form {params['measure']:.6f} "
                    f"(rel err {rel:.4f}, decreasing="
                    f"{rep.notes['tail_error_decreasing']})")

    if kind == "growth_p_band":
        p = params["p"]
        rep = resultant_limit_estimate(poly, p, params["n_max"])
        n_last, est_last = rep.estimates(coprime_only=True)[-1]
        ok = abs(est_last - rep.closed_form) <= params["abs_tol"]
        return ok, (f"restricted estimate at n={n_last} is {est_last:.6f}, "
                    f"closed form {rep.closed_form:.6f}")

    if kind == "pure_agreement":
        p = params["p"]
        est = pure_log_mahler_estimate(poly, p, n_budget=110,
                                       precision=params["min_digits"] + 14)
        cf = pure_log_mahler_closed_form(poly, p,
                                         precision=params["min_digits"] + 14)
        agree = closed_form_agreement(est, cf)
        ok = agree >= params["min_digits"]
        return ok, (f"estimator and closed form "
                    f"({params.get('closed_form')}) share {agree} "
                    f"{p}-adic digits, needed {params['min_digits']}")

    if kind == "pure_value":
        p = params["p"]
        k = params["modulus_exponent"]
        cf = pure_log_mahler_closed_form(poly, p, precision=k + 8)
        got = (cf.value.unit * p**cf.value.v) % p**k if not cf.value.is_zero \
            else 0
        return got == params["residue"], \
            f"value = {got} mod {p}^{k}, expected {params['residue']}"

    if kind == "pure_entropy_zero":
        p = params["p"]
        res = pure_entropy(poly, p, n_budget=90,
                           precision=params["min_digits"] + 10,
                           solenoid_convention=True)
        v = res.value.v if res.value.is_zero else res.value.valuation
        ok = res.value.is_zero and v >= params["min_digits"]
        return ok, f"hbar_{p} = {res.value.digit_string()}"

    if kind == "pure_link_growth_zero":
        p = params["p"]
        res = pure_link_growth(poly, params["d"], p, n_budget=60,
                               precision=params["min_digits"] + 8)
        ok = res.value.is_zero and res.value.v >= params["min_digits"]
        return ok, (f"growth limit = {res.value.digit_string()} "
                    f"(H = {res.data['H']})")

    raise DomainError(f"unknown claim kind {kind!r}")


def verify_corpus(records, tol: float = 1e-9) -> VerificationReport:
    if not tol > 0:
        raise DomainError("tolerance must be positive")
    report = VerificationReport()
    for record in records:
        for claim in record.claims:
            start = time.perf_counter()
            if claim.skip:
                report.results.append(ClaimResult(
                    record.name, claim.kind, claim.label, claim.provenance,
                    "skip", claim.skip, 0.0))
                continue
            try:
                ok, detail = _check_claim(record, claim, tol)
                status = "pass" if ok else "fail"
            except PadicMahlerError as exc:
                status, detail = "fail", f"error: {exc}"
            except Exception as exc:     # one bad claim must not stop the run
                status, detail = "fail", f"error: {type(exc).__name__}: {exc}"
            report.results.append(ClaimResult(
                record.name, claim.kind, claim.label, claim.provenance,
                status, detail, (time.perf_counter() - start) * 1e3))
    return report
