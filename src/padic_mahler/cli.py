"""Command-line interface.

Subcommands: mahler, iwasawa, entropy, mp, hbar, homology, growth,
verify-corpus.  Output is aligned text by default or JSON with
--format json.  Exit codes: 0 success, also when the reader closes stdout
early (as `| head` does), 1 corpus verification failure, 2 usage error
(argparse), 3 parse error, 4 domain/precondition error, 5 precision error,
6 convergence error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .corpus import branched_cover_homology_order, load_corpus, verify_corpus
from .entropy import entropy_total
from .errors import (
    ConvergenceError,
    DomainError,
    ParseError,
    PrecisionError,
)
from .iwasawa import verify_consistency
from .mahler import mahler_euclidean, mahler_padic, resultant_limit_estimate
from .ntheory import INFINITY
from .parsing import parse_laurent, parse_polynomial
from .polynomials import _substitute
from .pure import closed_form_agreement, pure_entropy, \
    pure_log_mahler_closed_form, pure_log_mahler_estimate, pure_link_growth

EXIT_PARSE = 3
EXIT_DOMAIN = 4
EXIT_PRECISION = 5
EXIT_CONVERGENCE = 6


def _attach_values(argv):
    """Join --poly, --delta and --subs to a value that starts with a minus
    sign ("--poly=-6*t+6"), which argparse would read as an option."""
    out = []
    for word in argv:
        if out and out[-1] in ("--poly", "--delta", "--subs") \
                and word[:1] == "-" and word[:2] != "--":
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def _add_poly_options(sub):
    sub.add_argument("--poly", help="one-variable polynomial text")
    sub.add_argument("--delta", help="multivariable polynomial text")
    sub.add_argument("--subs", type=exponents,
                     help="comma-separated exponents for --delta, e.g. '1,-1'")


def _resolve_poly(args):
    """The polynomial of --poly, or of --delta substituted by --subs as the
    corpus substitutes (polynomials._substitute): t -> t^k for one variable,
    the arity checked; only a one-variable --delta may omit --subs."""
    if args.poly is not None:
        return parse_laurent(args.poly)
    if args.delta is None:
        raise DomainError("provide --poly, or --delta with --subs")
    return _substitute(parse_polynomial(args.delta), args.subs)


def exponents(text):
    """The --subs argument: comma-separated integers."""
    return [int(x) for x in text.split(",")]


def place(text):
    """The --place argument: 'inf' or an integer."""
    return INFINITY if text in ("inf", "infinity", "oo") else int(text)


def _emit(args, payload: dict, text: str):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="padic-mahler",
        description="Exact Mahler measures, cyclic resultants, Iwasawa "
                    "invariants and p-adic entropies of link polynomials")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    subs = ap.add_subparsers(dest="command", required=True)

    s = subs.add_parser("mahler", help="log Mahler measure at a place")
    _add_poly_options(s)
    s.add_argument("--place", type=place, default="inf",
                   help="'inf' or a prime")
    s.add_argument("--tol", type=float, default=1e-12)

    s = subs.add_parser("iwasawa", help="Iwasawa invariants, both routes")
    _add_poly_options(s)
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--rmax", type=int, default=6)

    s = subs.add_parser("entropy", help="entropy decomposition over places")
    _add_poly_options(s)
    s.add_argument("--tol", type=float, default=1e-9)

    s = subs.add_parser("mp", help="purely p-adic log Mahler measure")
    _add_poly_options(s)
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--precision", type=int, default=32)
    s.add_argument("--nbudget", type=int, default=110)

    s = subs.add_parser("hbar", help="purely p-adic entropy")
    _add_poly_options(s)
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--precision", type=int, default=32)
    s.add_argument("--nbudget", type=int, default=110)
    s.add_argument("--solenoid", action="store_true",
                   help="accept non-monic polynomials (cyclic-module counts)")

    s = subs.add_parser("homology", help="branched cover homology order")
    _add_poly_options(s)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--components", type=int, default=1)

    s = subs.add_parser("growth", help="cyclic resultant growth sequence")
    _add_poly_options(s)
    s.add_argument("--place", type=place, default="inf",
                   help="'inf' or a prime")
    s.add_argument("--nmax", type=int, default=100)
    s.add_argument("--skip-p-multiples", action="store_true")
    s.add_argument("--pure", action="store_true",
                   help="purely p-adic link growth instead")
    s.add_argument("--components", type=int, default=1)
    s.add_argument("--precision", type=int, default=24)

    s = subs.add_parser("verify-corpus", help="run the example corpus")
    s.add_argument("--corpus", help="path to a corpus JSON file")
    s.add_argument("--tol", type=float, default=1e-9)
    return ap


def _run(args) -> int:
    if args.command == "verify-corpus":
        report = verify_corpus(load_corpus(args.corpus), tol=args.tol)
        print(report.to_json() if args.format == "json" else report.to_text())
        return report.exit_status

    poly = _resolve_poly(args)
    if args.command == "mahler":
        if args.place == INFINITY:
            m = mahler_euclidean(poly, tol=args.tol)
            _emit(args, m.to_dict(),
                  f"log m({poly}) = {m.value:.10f}  (abs error <= {m.error:.2e})")
        else:
            m = mahler_padic(poly, args.place)
            _emit(args, m.to_dict(),
                  f"log m_{args.place}({poly}) = {m.coefficient} * log "
                  f"{args.place} = {m.value:.10f}")
        return 0

    if args.command == "iwasawa":
        rep = verify_consistency(poly, args.prime, args.rmax)
        inv = rep.fitted
        payload = inv.to_dict()
        payload["analytic"] = rep.to_dict()["analytic"]
        _emit(args, payload,
              f"lambda={inv.lam} mu={inv.mu} nu={inv.nu} r0={inv.r0} "
              f"(analytic lambda={rep.analytic_lambda} mu={rep.analytic_mu})")
        return 0

    if args.command == "entropy":
        rep = entropy_total(poly, tol=args.tol)
        finite = ", ".join(f"h_{p} = {c} * log {p}" for p, c in rep.h_p.items())
        _emit(args, rep.to_dict(),
              f"h = {rep.h_total:.10f}; h_inf = {rep.h_inf.value:.10f}"
              + (f"; {finite}" if finite else ""))
        return 0

    if args.command == "mp":
        est = pure_log_mahler_estimate(poly, args.prime, args.nbudget,
                                       args.precision)
        payload = est.to_dict()
        lines = [f"estimator:   {est.value.digit_string()}"]
        try:
            cf = pure_log_mahler_closed_form(poly, args.prime, args.precision)
        except DomainError as exc:
            lines.append(f"closed form unavailable: {exc}")
        else:
            agree = closed_form_agreement(est, cf)
            payload["closed_form"] = cf.to_dict()
            payload["agreement_digits"] = (
                None if agree == math.inf else int(agree))
            lines.append(f"closed form: {cf.value.digit_string()} "
                         f"[{cf.method}]")
            lines.append(f"agreement:   {agree} {args.prime}-adic digits")
        _emit(args, payload, "\n".join(lines))
        return 0

    if args.command == "hbar":
        res = pure_entropy(poly, args.prime, args.nbudget, args.precision,
                           solenoid_convention=args.solenoid)
        _emit(args, res.to_dict(),
              f"hbar_{args.prime} = {res.value.digit_string()}")
        return 0

    if args.command == "homology":
        order, caveat = branched_cover_homology_order(poly, args.n,
                                                      args.components)
        note = " (up to a bounded factor)" if caveat else ""
        _emit(args, {"n": args.n, "order": str(order), "caveat": caveat},
              f"|H_1(M_{args.n})| = {order}{note}")
        return 0

    if args.command == "growth":
        if args.pure:
            if args.place == INFINITY:
                raise DomainError("--pure needs a finite place")
            res = pure_link_growth(poly, args.components, args.place,
                                   n_budget=args.nmax,
                                   precision=args.precision)
            _emit(args, res.to_dict(),
                  f"purely {args.place}-adic growth limit = "
                  f"{res.value.digit_string()}")
            return 0
        rep = resultant_limit_estimate(poly, args.place, args.nmax,
                                       skip_p_multiples=args.skip_p_multiples)
        n_last, est_last = rep.estimates(args.skip_p_multiples)[-1]
        _emit(args, rep.to_dict(),
              f"estimate at n={n_last}: {est_last:.10f}; extrapolated "
              f"{rep.limit:.10f}; closed form {rep.closed_form:.10f} "
              f"(|diff| = {rep.abs_error:.2e})")
        return 0

    raise DomainError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _attach_values(sys.argv[1:] if argv is None else argv))
    # The CLI converts only its own argv and exact results, which may run to
    # thousands of digits: lift the int<->str digit limit for this run.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        status = _run(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader wants no more: the final flush at exit goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except PrecisionError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
