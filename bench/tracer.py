"""Span recorder for the traced run.

The recorder wraps public functions of padic_mahler from the outside and
rebinds each one under every name that refers to it in a padic_mahler
module (``from .resultants import cyclic_resultant`` makes a second name
in ``mahler``, ``pure`` and ``corpus``).  Spans stay in memory as tuples
and are written out once, at the end of the run.

A span's self time is its duration minus the time its child spans cover.
A call nested directly inside a span of the same name (recursion, as in
``squarefree_split``) adds to that name's self time but is not counted as
another call.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _poly_key(f):
    return tuple(sorted(f.terms.items()))


def _variant(args, kwargs):
    v = kwargs.get("variant", args[2] if len(args) > 2 else "ones")
    return "ones" if v == "nu" else v


# (module, attribute, span name, counter).  A counter maps (args, kwargs,
# result) to a dict of numbers summed per span name, each reported as the
# metric "<span name>.<key>": its mean per call.  A "key" entry is
# collected into a set instead, for distinct-input ratios.  Every span
# name also gets "<span name>.calls" and "<span name>.self_ms" per op;
# BENCHMARK.json's per_layer list picks which of these are reported.
LAYERS = (
    ("resultants", "cyclic_resultant_valuation", "resultants.valuation", None),
    ("resultants", "berkowitz_determinant_mod", "resultants.berkowitz",
     lambda a, k, r: {"modulus_bits_mean": a[1].bit_length()}),
    ("resultants", "cyclic_resultant", "resultants.cyclic_resultant",
     lambda a, k, r: {"result_bits_mean": abs(r).bit_length(),
                      "key": (_poly_key(a[0]), a[1], _variant(a, k))}),
    ("resultants", "bareiss_determinant", "resultants.bareiss",
     lambda a, k, r: {"dim_mean": len(a[0])}),
    ("padics", "padic_log", "padics.padic_log",
     lambda a, k, r: {"precision_mean": a[0].N}),
    ("padics", "hensel_lift", "padics.hensel_lift", None),
    ("padics", "teichmuller", "padics.teichmuller", None),
    ("polynomials", "squarefree_split", "polynomials.squarefree_split",
     lambda a, k, r: {"parts_per_call": len(r)}),
    ("parsing", "parse_polynomial", "parsing", None),
    ("roots", "aberth_roots", "roots.aberth",
     lambda a, k, r: {"degree_mean": len(a[0]) - 1}),
    ("roots", "polish_roots", "roots.polish", None),
    ("valuations", "NewtonPolygon.of", "valuations.newton_polygon", None),
    ("mahler", "mahler_euclidean", "mahler.euclidean", None),
    ("mahler", "mahler_padic", "mahler.padic", None),
    ("mahler", "resultant_limit_estimate", "mahler.estimate", None),
    ("iwasawa", "fit_invariants", "iwasawa.fit", None),
    ("iwasawa", "lambda_invariant", "iwasawa.lambda", None),
    ("iwasawa", "mu_invariant", "iwasawa.mu", None),
    ("entropy", "entropy_total", "entropy.total", None),
    ("pure", "pure_log_mahler_estimate", "pure.estimate", None),
    ("pure", "pure_log_mahler_closed_form", "pure.closed_form", None),
    ("pure", "pure_entropy", "pure.entropy", None),
    ("pure", "pure_link_growth", "pure.link_growth", None),
    ("corpus", "verify_corpus", "corpus.verify", None),
)

# span fields
NAME, PARENT, OP, START, END, COUNTS, ERROR = range(7)


class Recorder:
    """Collects spans while installed; ``op`` is the id stamped on every
    span opened until it changes."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self._undo = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else None, self.op, clock(),
                    None, None, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                span[COUNTS] = counter(args, kwargs, result)
            return result

        return traced

    def run_op(self, op_id, fn):
        """Run fn under a root span "op" stamped with op_id."""
        self.op = op_id
        return self._wrap("op", fn, None)()

    # -- installation ------------------------------------------------------

    def install(self, package="padic_mahler"):
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for module_name, attr, name, counter in LAYERS:
            home = sys.modules[f"{package}.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, classmethod(
                    self._wrap(name, original.__func__, counter)))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(home, attr)
            traced = self._wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._undo.append((module, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- reduction ---------------------------------------------------------

    def self_times(self):
        """Self time in seconds of every span, by index."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def summary(self):
        """Per span name: outermost calls, self seconds, summed counters,
        distinct keys, and raised exception classes; plus self seconds by
        op and name."""
        own = self.self_times()
        names = {}
        by_op = {}
        for i, s in enumerate(self.spans):
            entry = names.setdefault(s[NAME], {
                "calls": 0, "self_s": 0.0, "sums": {}, "keys": set(),
                "errors": {}})
            entry["self_s"] += own[i]
            ops = by_op.setdefault(s[OP], {})
            ops[s[NAME]] = ops.get(s[NAME], 0.0) + own[i]
            parent = s[PARENT]
            if parent is not None and self.spans[parent][NAME] == s[NAME]:
                continue
            entry["calls"] += 1
            if s[ERROR]:
                entry["errors"][s[ERROR]] = entry["errors"].get(s[ERROR], 0) + 1
            for k, v in (s[COUNTS] or {}).items():
                if k == "key":
                    entry["keys"].add(v)
                else:
                    entry["sums"][k] = entry["sums"].get(k, 0) + v
        for entry in names.values():
            entry["distinct"] = len(entry.pop("keys"))
        return names, by_op

    def dump(self, path):
        """Write every span as a JSON list of
        [name, parent, op, start, end, counters, error]."""
        with open(path, "w") as handle:
            json.dump([[s[NAME], s[PARENT], s[OP], s[START], s[END],
                        {k: v for k, v in (s[COUNTS] or {}).items()
                         if k != "key"} or None, s[ERROR]]
                       for s in self.spans], handle)
