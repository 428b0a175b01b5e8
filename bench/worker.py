"""Workload process: runs a schedule of ops against padic_mahler.

Reads one JSON job on stdin and writes one JSON summary on stdout.  It is
started in a fresh interpreter, without -O, by bench/run.py; it receives
only the generated inputs and returns each op's time and canonical
output, which run.py checks against the reference.

Job keys: workload, seed, seconds, min_ops, max_ops (0 = no limit),
trace (bool), records_path, spans_path, checks (see run_checks).  The
worker makes its passes one at a time from the seeded schedule in
workloads.py and writes one JSON line per op execution to records_path.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time

import padic_mahler as pm
from padic_mahler.errors import PadicMahlerError
from padic_mahler.ntheory import INFINITY

import calibrate
import workloads

CALIBRATE_EVERY_S = 0.25    # of op time between two reference timings


# -- canonical outputs --------------------------------------------------------


def _int_or_inf(x):
    return "inf" if x == INFINITY else int(x)


def padic_out(x):
    """Exact digits and certified precision of a PadicNumber."""
    return {"p": x.p, "v": _int_or_inf(x.v), "unit": x.unit, "N": x.N}


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def pure_out(result):
    return {"method": result.method, "value": padic_out(result.value),
            "data": _json_safe(result.data)}


def consistency_out(report):
    f = report.fitted
    return {"analytic": [report.analytic_lambda, report.analytic_mu],
            "fitted": [f.lam, f.mu, f.nu, f.r0],
            "consistent": report.consistent}


def estimate_out(report):
    return {"n": [s[0] for s in report.samples],
            "estimates": [s[1] for s in report.samples],
            "coprime": [s[2] for s in report.samples if len(s) > 2],
            "skipped": list(report.skipped),
            "limit": report.limit,
            "closed_form": report.closed_form,
            "decreasing": report.notes["tail_error_decreasing"]}


def entropy_out(report):
    return {"h_total": report.h_total,
            "h_inf": report.h_inf.value,
            "h_p": {str(p): str(c) for p, c in sorted(report.h_p.items())},
            "leading_coefficient": report.leading_coefficient,
            "content": report.content,
            "content_factors": {str(p): e for p, e in
                                sorted(report.content_factors.items())},
            "balance": {str(p): [str(b.lead_valuation),
                                 str(b.entropy_coefficient), b.mu]
                        for p, b in sorted(report.balance.items())}}


# -- ops ----------------------------------------------------------------------


class Ops:
    """Turns op specs into zero-argument calls and canonical outputs.

    Inputs of towers and sweeps are parsed before timing (prepare), so
    their timed region holds no parsing; measures ops parse their text
    inside the timed region, as a command-line call does.
    """

    def __init__(self):
        self.polys = {}
        self.records = None

    def poly(self, text):
        if text not in self.polys:
            self.polys[text] = pm.parse_laurent(text)
        return self.polys[text]

    def prepare(self, op):
        args = op["args"]
        if op["kind"] == "verify_record" and self.records is None:
            self.records = {r.name: r for r in pm.load_corpus()}
        if "poly" in args:
            self.poly(args["poly"])

    def call(self, op):
        """(thunk, canonicalizer) for one op."""
        kind, a = op["kind"], op["args"]
        if kind == "verify_record":
            record = self.records[a["record"]]
            return (lambda: pm.verify_corpus([record]),
                    lambda rep: {"statuses": [[r.kind, r.label, r.status]
                                              for r in rep.results]})
        if kind == "mahler":
            return (lambda: pm.mahler_euclidean(pm.parse_laurent(a["text"]),
                                                a["tol"]),
                    lambda m: {"value": m.value, "error": m.error})
        if kind == "entropy":
            return (lambda: pm.entropy_total(pm.parse_laurent(a["text"]),
                                             a["tol"]),
                    entropy_out)
        f = self.polys[a["poly"]]
        if kind == "verify_consistency":
            return (lambda: pm.verify_consistency(f, a["p"], a["r_max"]),
                    consistency_out)
        if kind == "limit_estimate":
            place = INFINITY if a["place"] == "inf" else a["place"]
            return (lambda: pm.resultant_limit_estimate(f, place, a["n_max"]),
                    estimate_out)
        if kind == "pure_estimate":
            return (lambda: pm.pure_log_mahler_estimate(f, a["p"],
                                                        a["n_budget"]),
                    pure_out)
        if kind == "pure_entropy":
            return (lambda: pm.pure_entropy(f, a["p"],
                                            solenoid_convention=True),
                    pure_out)
        if kind == "pure_closed_form":
            return (lambda: pm.pure_log_mahler_closed_form(f, a["p"]),
                    pure_out)
        if kind == "link_growth":
            return (lambda: pm.pure_link_growth(f, a["d"], a["p"]), pure_out)
        raise ValueError(f"unknown op kind {kind!r}")


def execute(thunk, canonical, run=None):
    """Time one op.  Returns (seconds, outcome) where outcome is
    {"out": ...}, {"error": class} for a typed refusal of the package, or
    {"crash": text} for anything else."""
    start = time.perf_counter()
    try:
        result = run(thunk) if run else thunk()
    except PadicMahlerError as exc:
        return time.perf_counter() - start, {"error": type(exc).__name__}
    except Exception as exc:  # any other exception is a failed op
        return time.perf_counter() - start, \
            {"crash": f"{type(exc).__name__}: {exc}"}
    elapsed = time.perf_counter() - start
    try:
        return elapsed, {"out": canonical(result)}
    except Exception as exc:
        return elapsed, {"crash": f"output: {type(exc).__name__}: {exc}"}


# -- untimed cross-checks -----------------------------------------------------


def sequence_digest(f, n_max, variant):
    h = hashlib.sha256()
    for n in range(1, n_max + 1):
        h.update(str(pm.cyclic_resultant(f, n, variant)).encode() + b",")
    return h.hexdigest()


def run_checks(ops, checks):
    """The paper's companion-vs-Sylvester route check on ``checks["small"]``
    polynomials (n <= 12, both variants), and sha256 digests of the full
    resultant sequences of ``checks["sequences"]`` polynomials."""
    out = {"small": {}, "sequences": {}}
    for text in checks.get("small", []):
        f = ops.poly(text)
        rows = {}
        for variant in ("ones", "full"):
            fast = [pm.cyclic_resultant(f, n, variant) for n in range(1, 13)]
            oracle = [pm.cyclic_resultant_sylvester(f, n, variant)
                      for n in range(1, 13)]
            rows[variant] = {"fast": [str(x) for x in fast],
                             "oracle": [str(x) for x in oracle]}
        out["small"][text] = rows
    n_max = checks.get("n_max", 0)
    for text in checks.get("sequences", []):
        f = ops.poly(text)
        out["sequences"][text] = {v: sequence_digest(f, n_max, v)
                                  for v in ("ones", "full")}
    return out


# -- the closed loop ----------------------------------------------------------


def run_once(thunk, canonical, recorder, op_id):
    """execute(), under the span recorder when one is given."""
    if recorder is None:
        return execute(thunk, canonical)
    recorder.install()
    try:
        return execute(thunk, canonical,
                       lambda t: recorder.run_op(op_id, t))
    finally:
        recorder.uninstall()


def main():
    job = json.load(sys.stdin)
    if sys.flags.optimize:
        raise SystemExit("the workload must run without -O")
    ops = Ops()
    recorder = None
    if job["trace"]:
        from tracer import Recorder
        recorder = Recorder()

    # records go to a file as they are made, so the process's memory does
    # not grow with the number of ops.  Reference timings (calibrate.py)
    # are interleaved: {"reference_s": ..., "before": id of the next op}.
    count = 0
    timed = 0.0
    since_reference = 0.0
    with open(job["records_path"], "w") as records:
        def reference():
            records.write(json.dumps(
                {"reference_s": calibrate.reference_seconds(),
                 "before": count}) + "\n")

        reference()
        passes = workloads.schedule(job["workload"], job["seed"])
        for index, batch in enumerate(passes):
            for op in batch:
                ops.prepare(op)
            for op in batch:
                thunk, canonical = ops.call(op)
                # traced: the same op plain and traced, in alternating
                # order, so their times differ only by the recorder's cost
                if recorder is None:
                    order = (False,)
                else:
                    order = (False, True) if count % 4 == 0 else (True, False)
                for traced in order:
                    elapsed, outcome = run_once(
                        thunk, canonical, recorder if traced else None, count)
                    records.write(json.dumps(
                        {"id": count, "pass": index, "cell": op["cell"],
                         "key": op["key"], "s": elapsed, "traced": traced,
                         "outcome": outcome}) + "\n")
                    count += 1
                    timed += elapsed
                    since_reference += elapsed
                if since_reference >= CALIBRATE_EVERY_S:
                    reference()
                    since_reference = 0.0
                if job["max_ops"] and count >= job["max_ops"]:
                    break
            if job["max_ops"] and count >= job["max_ops"]:
                break
            if timed >= job["seconds"] and count >= job["min_ops"]:
                break
        reference()

    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"maxrss_kb": maxrss_kb,
              "checks": run_checks(ops, job["checks"])}
    if recorder is not None:
        names, by_op = recorder.summary()
        result["layers"] = names
        result["by_op"] = {str(k): v for k, v in by_op.items()}
        recorder.dump(job["spans_path"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
