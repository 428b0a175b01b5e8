"""Regenerate bench/reference/<workload>.json from the current checkout.

    PYTHONPATH=src python3 bench/make_reference.py [workload ...]

Run it only at a commit whose outputs are the reference: every later run
of the benchmark compares its outputs with these files.  For every op in
the workload's pool it records the canonical output or the refusal class.
It also records, per polynomial, the cyclic resultants R(f, nu_n) and
R(f, t^n - 1) for n <= 12 from the Sylvester oracle (sweeps: plus sha256
digests of both sequences up to n_max), and a log Mahler measure computed
by an independent route: sympy's factorization over Z and mpmath roots of
each factor at 40 digits.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import mpmath
import sympy

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import padic_mahler as pm  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

TRUTH_DPS = 40


def log_mahler_truth(text: str) -> float:
    """log M of the polynomial ``text`` by sympy factoring and mpmath
    roots; independent of padic_mahler's squarefree split and root
    finder."""
    t = sympy.Symbol("t")
    expr = sympy.sympify(text.replace("^", "**"), locals={"t": t})
    content, factors = sympy.factor_list(sympy.Poly(expr, t))
    with mpmath.workdps(TRUTH_DPS):
        total = mpmath.log(abs(mpmath.mpf(int(content))))
        for factor, mult in factors:
            coeffs = [int(c) for c in factor.all_coeffs()]
            part = mpmath.log(abs(mpmath.mpf(coeffs[0])))
            if len(coeffs) > 1:
                roots, err = mpmath.polyroots(coeffs, maxsteps=400,
                                              extraprec=100, error=True)
                if err > mpmath.mpf(10) ** (5 - TRUTH_DPS):
                    raise SystemExit(f"mpmath roots of {factor} only reach "
                                     f"{err}")
                for z in roots:
                    part += mpmath.log(max(mpmath.mpf(1), abs(z)))
            total += mult * part
        return float(total)


def small_resultants(f):
    out = {}
    for variant in ("ones", "full"):
        oracle = [pm.cyclic_resultant_sylvester(f, n, variant)
                  for n in range(1, 13)]
        fast = [pm.cyclic_resultant(f, n, variant) for n in range(1, 13)]
        if fast != oracle:
            raise SystemExit(f"companion and Sylvester routes disagree on "
                             f"{f} ({variant})")
        out[variant] = [str(x) for x in oracle]
    return out


def build(workload):
    ops = worker.Ops()
    pool = workloads.pool(workload)
    reference = {"workload": workload, "pool_seed": workloads.POOL_SEED,
                 "ops": {}, "truth": {}, "polys": {}}
    refusals = {}
    for key, op in pool.items():
        ops.prepare(op)
        thunk, canonical = ops.call(op)
        _, outcome = worker.execute(thunk, canonical)
        if "crash" in outcome:
            raise SystemExit(f"{key}: {outcome['crash']}")
        if op["kind"] == "limit_estimate" and "out" in outcome:
            # n and coprime follow from n_max, p and skipped; at a finite
            # place the exact valuations replace the float estimates
            out = outcome["out"]
            if op["args"]["place"] != "inf":
                out["valuations"] = check.valuations(out, op["args"]["place"])
                del out["estimates"]
            del out["n"], out["coprime"]
        reference["ops"][key] = outcome
        if "error" in outcome:
            refusals[outcome["error"]] = refusals.get(outcome["error"], 0) + 1
        args = op["args"]
        text = args.get("text") or (args["poly"] if args.get("place") == "inf"
                                    else None)
        if text and text not in reference["truth"]:
            reference["truth"][text] = log_mahler_truth(text)
        if workload in ("towers", "sweeps") and op["kind"] != "link_growth":
            poly = args["poly"]
            if poly not in reference["polys"]:
                entry = small_resultants(ops.poly(poly))
                if workload == "sweeps":
                    for variant in ("ones", "full"):
                        entry[f"digest_{variant}"] = worker.sequence_digest(
                            ops.poly(poly), workloads.SWEEP_N_MAX, variant)
                reference["polys"][poly] = entry
    return reference, refusals


def write_reference(path, reference):
    """JSON with one op, truth value or polynomial per line."""
    lines = ["{"]
    tables = [k for k in sorted(reference) if isinstance(reference[k], dict)]
    for key in sorted(set(reference) - set(tables)):
        lines.append(f"{json.dumps(key)}: {json.dumps(reference[key])},")
    for i, key in enumerate(tables):
        rows = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                for k, v in sorted(reference[key].items())]
        body = ",\n".join(rows)
        end = "," if i < len(tables) - 1 else ""
        lines.append(f"{json.dumps(key)}: {{\n{body}\n}}{end}")
    lines.append("}")
    path.write_text("\n".join(lines) + "\n")


def main(argv):
    for workload in argv or workloads.WORKLOADS:
        start = time.perf_counter()
        reference, refusals = build(workload)
        path = BENCH / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        write_reference(path, reference)
        print(f"{workload}: {len(reference['ops'])} ops, refusals "
              f"{refusals or 'none'}, {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main(sys.argv[1:])
