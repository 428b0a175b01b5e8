"""padic-mahler benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the directory holding src/).  One
caller in one process runs one op at a time; the workload runs in a fresh
interpreter without -O (bench/worker.py), so the library's built-in
cross-checks stay on in timed code.  With --trace 0 the last line of
stdout is the JSON result with the end-to-end metrics; with --trace 1 it
carries the per-layer metrics of a separate traced run.  Lines before it
are for people.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC_PATH = BENCH.parent / "BENCHMARK.json"

TIME_LIMIT_S = 170          # the whole run must end within 180 s
SETUP_REPEATS = 10
BARE_START_S = 0.05         # a bare interpreter start on the reference host
ROUTE_CHECK_POLYS = 2       # polynomials per run for the route cross-checks


class BenchError(Exception):
    """The benchmark cannot run here; it prints no result."""


def child_env(root: Path):
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    env["PYTHONHASHSEED"] = "0"
    # nothing writes a bytecode cache under src/, so in a clean checkout
    # every start compiles the package from source, whatever the caller's
    # environment
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def measure_setup(root, workload, repeats):
    """(scaled, raw): seconds from starting a fresh interpreter to a
    finished ``import padic_mahler`` (+ ``load_corpus()`` on corpus).

    Start-up is process creation, interpreter set-up and compiling the
    package's source (the benchmark writes no bytecode cache).  Its speed
    drifts with the host by up to 25 % within minutes, but not in step
    with calibrate.py's computation.  So each start is scaled by
    BARE_START_S over the mean of two bare interpreter starts, one just
    before and one just after it; the bare start imports nothing of
    padic_mahler, so a change to the package's import cost still moves
    the scaled time one for one.  The child reports the monotonic clock it
    read when done, so the parent's wait adds nothing; the first start is
    untimed, so that every timed one finds the files in the page cache."""
    setup = "import time, padic_mahler"
    if workload == "corpus":
        setup += "; padic_mahler.load_corpus()"
    env = child_env(root)

    def start(code):
        begin = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code + "; print(time.perf_counter())"],
            env=env, cwd=root, check=True, timeout=60, capture_output=True,
            text=True)
        return float(proc.stdout) - begin

    scaled, raw = [], []
    if repeats:
        start(setup)
        before = start("import time")
    for _ in range(repeats):
        elapsed = start(setup)
        after = start("import time")
        raw.append(elapsed)
        scaled.append(elapsed * BARE_START_S / ((before + after) / 2))
        before = after
    return scaled, raw


def percentile(sorted_values, q):
    """Nearest-rank q-th percentile."""
    index = max(0, -(-len(sorted_values) * q // 100) - 1)
    return sorted_values[int(index)]


def tail(workload, times_ms):
    """(q, value) at the workload's tail percentile q.  Only a run too short
    to have ten samples beyond it (a smoke run) gets a lower q."""
    n = len(times_ms)
    q = max(50, min(workloads.TAIL_PERCENTILE[workload], int(100 - 1000 / n)))
    return q, percentile(sorted(times_ms), q)


def route_check_plan(workload, seed):
    """Polynomials for the untimed route cross-checks, from the run's first
    pass."""
    if workload not in ("towers", "sweeps"):
        return {}
    texts = []
    for op in next(workloads.schedule(workload, seed)):
        text = op["args"].get("poly")
        if text and text not in texts and op["kind"] != "link_growth":
            texts.append(text)
    picks = texts[seed % len(texts):] + texts[:seed % len(texts)]
    picks = picks[:ROUTE_CHECK_POLYS]
    plan = {"small": picks}
    if workload == "sweeps":
        plan.update(sequences=picks[:1], n_max=workloads.SWEEP_N_MAX)
    return plan


def run_worker(root, job, timeout):
    """The worker's summary, with its op records under "records"."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")], input=json.dumps(job),
        capture_output=True, text=True, env=child_env(root), cwd=root,
        timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n"
                         f"{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout)
    with open(job["records_path"]) as handle:
        lines = [json.loads(line) for line in handle]
    result["records"] = scale_records(lines)
    return result


def scale_records(lines):
    """Op records with "scaled": the op's wall time at the reference speed,
    using the mean of the reference timings just before and just after
    the op."""
    refs = [line for line in lines if "reference_s" in line]
    records = [line for line in lines if "reference_s" not in line]
    k = 0
    for rec in records:
        while k + 1 < len(refs) and refs[k + 1]["before"] <= rec["id"]:
            k += 1
        after = refs[k + 1] if k + 1 < len(refs) else refs[k]
        speed = (refs[k]["reference_s"] + after["reference_s"]) / 2
        rec["scaled"] = rec["s"] * calibrate.REFERENCE_S / speed
    return records


def gate(pool, result, reference):
    """(attempted, failures): every op outcome and every route check."""
    failures = []
    runs = {}
    for rec in result["records"]:
        op = pool[rec["key"]]
        reason = check.check_op(op, rec["outcome"], reference)
        if reason:
            failures.append(f"op {rec['id']} {rec['key']}: {reason}")
        elif "out" in rec["outcome"] and "poly" in op["args"]:
            runs.setdefault(op["args"]["poly"], {})[op["kind"]] = \
                rec["outcome"]["out"]
    checks = check.route_checks(result["checks"], reference) + \
        check.estimator_vs_closed_form(runs)
    failures += [f"{name}: {reason}" for name, reason in checks if reason]
    return len(result["records"]) + len(checks), failures


# -- metrics ------------------------------------------------------------------


def op_time_metrics(workload, times_ms):
    """(ops_per_s, op_ms_p50, (q, op_ms_tail)) of a list of op times."""
    return (len(times_ms) * 1e3 / sum(times_ms), statistics.median(times_ms),
            tail(workload, times_ms))


def end_to_end(workload, records, setup, maxrss_kb):
    """End-to-end metrics from the scaled times, the same time metrics
    from the raw wall-clock times, and a note per metric."""
    setup_times, setup_raw = setup
    times_ms = [r["scaled"] * 1e3 for r in records]
    ops, p50, (q, tail_ms) = op_time_metrics(workload, times_ms)
    wall_ops, wall_p50, (_, wall_tail) = op_time_metrics(
        workload, [r["s"] * 1e3 for r in records])
    beyond = sum(t > tail_ms for t in times_ms)
    metrics = {
        "ops_per_s": (ops, "op/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (maxrss_kb / 1024, "MB"),
    }
    wall = {"ops_per_s": wall_ops, "op_ms_p50": wall_p50,
            "op_ms_tail": wall_tail, "setup_s": statistics.median(setup_raw)}
    notes = {name: f"raw wall {value:.6g}" for name, value in wall.items()}
    notes["op_ms_tail"] = f"p{q}, {len(times_ms)} samples, {beyond} " \
                          f"beyond; {notes['op_ms_tail']}"
    notes["setup_s"] = f"median of {len(setup_times)} fresh " \
                       f"interpreters; {notes['setup_s']}"
    notes["peak_rss_mb"] = "ru_maxrss of the workload process"
    return metrics, wall, notes


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(result, declared):
    """The declared per-layer metrics (BENCHMARK.json's per_layer list)
    of the traced executions: for each span name of tracer.LAYERS, calls
    and self time per op and each counter's mean per call; then the retry
    and reuse ratios and the recorder's own overhead."""
    traced = [r for r in result["records"] if r["traced"]]
    plain = [r for r in result["records"] if not r["traced"]]
    n = len(traced)
    empty = {"calls": 0, "self_s": 0.0, "sums": {}, "distinct": 0,
             "errors": {}}
    layers = {name: result["layers"].get(name, empty)
              for _, _, name, _ in tracer.LAYERS}
    values = {}
    for name, e in layers.items():
        values[f"{name}.calls"] = e["calls"] / n
        values[f"{name}.self_ms"] = e["self_s"] * 1e3 / n
        for counter, total in e["sums"].items():
            values[f"{name}.{counter}"] = total / e["calls"]
    values["resultants.berkowitz.per_valuation"] = _ratio(
        layers["resultants.berkowitz"]["calls"],
        layers["resultants.valuation"]["calls"])
    values["resultants.cyclic_resultant.distinct_ratio"] = _ratio(
        layers["resultants.cyclic_resultant"]["distinct"],
        layers["resultants.cyclic_resultant"]["calls"])
    values["roots.polish_ratio"] = _ratio(layers["roots.polish"]["calls"],
                                          layers["roots.aberth"]["calls"])
    values["pure.closed_form.refusals"] = \
        layers["pure.closed_form"]["errors"].get("DomainError", 0) / n
    values["trace.overhead_pct"] = \
        (sum(r["s"] for r in traced) / sum(r["s"] for r in plain) - 1) * 100
    metrics = {}
    for metric in declared:
        name = metric["name"]
        # a counter's mean is missing only when its span was never called
        span = max((s for s in layers if name.startswith(s + ".")),
                   key=len, default=None)
        if name not in values and (span is None or layers[span]["calls"]):
            raise BenchError(f"per-layer metric {name} is not measured")
        metrics[name] = (values.get(name, 0.0), metric["unit"])
    return metrics


def profile_lines(result):
    """Per cell: the three layers with the most self time, as shares of the
    cell's traced op time."""
    cells = {}
    for rec in result["records"]:
        if not rec["traced"]:
            continue
        by_layer = result["by_op"].get(str(rec["id"]), {})
        cell = cells.setdefault(rec["cell"], {"ops": 0, "total": 0.0,
                                              "layers": {}})
        cell["ops"] += 1
        cell["total"] += sum(by_layer.values())
        for name, s in by_layer.items():
            cell["layers"][name] = cell["layers"].get(name, 0.0) + s
    lines = []
    for name, cell in sorted(cells.items()):
        top = sorted(cell["layers"].items(), key=lambda kv: -kv[1])[:3]
        shares = ", ".join(f"{layer} {s / cell['total']:.0%}"
                           for layer, s in top)
        lines.append(f"  {name:32} {cell['ops']:4} ops  "
                     f"{cell['total'] * 1e3 / cell['ops']:8.1f} ms/op  {shares}")
    return lines


# -- main ---------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=0,
                        help="stop after this many ops (smoke test); "
                             "0 = run for --seconds")
    parser.add_argument("--record", type=Path,
                        help="append the result, with workload, seed and the "
                             "time metrics in raw wall-clock time, to this "
                             "JSON-lines file (for compare.py)")
    return parser.parse_args(argv)


def run(args):
    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "padic_mahler" / "__init__.py").is_file():
        raise BenchError(f"no src/padic_mahler under {root}: run from the "
                         f"root of a source checkout")
    ref_path = BENCH / "reference" / f"{args.workload}.json"
    if not ref_path.is_file():
        raise BenchError(f"missing reference {ref_path}")
    reference = json.loads(ref_path.read_text())
    spec = json.loads(SPEC_PATH.read_text())

    pool = workloads.pool(args.workload)
    stale = [key for key in pool if key not in reference["ops"]]
    if stale:
        raise BenchError(f"{len(stale)} ops, e.g. {stale[0]}, have no "
                         f"reference output; regenerate with "
                         f"bench/make_reference.py")

    # set-up is timed in two halves, before and after the workload, so
    # that one slow spell of the machine does not set the median
    setup_repeats = 0 if args.trace else 1 if args.max_ops else SETUP_REPEATS
    setup = measure_setup(root, args.workload, setup_repeats // 2)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    job = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds,
           # the traced run reports no tail, so only time bounds it
           "min_ops": 0 if args.max_ops or args.trace else
           workloads.min_ops(args.workload),
           "max_ops": args.max_ops, "trace": bool(args.trace),
           "records_path": str(out_dir / f"records-{args.workload}-"
                                         f"seed{args.seed}.jsonl"),
           "spans_path": str(out_dir / f"spans-{args.workload}-"
                                       f"seed{args.seed}.json"),
           "checks": route_check_plan(args.workload, args.seed)}
    result = run_worker(root, job,
                        TIME_LIMIT_S - (time.perf_counter() - started))
    setup = [a + b for a, b in zip(setup, measure_setup(
        root, args.workload, setup_repeats - setup_repeats // 2))]

    attempted, failures = gate(pool, result, reference)
    records = [r for r in result["records"] if not r["traced"]]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"ops {len(records)}  timed {sum(r['s'] for r in records):.2f} s")
    wall = {}
    if args.trace:
        metrics = per_layer(result, spec["per_layer"])
        print("self time by cell (top layers):")
        for line in profile_lines(result):
            print(line)
        print(f"spans written to {job['spans_path']}")
    else:
        metrics, wall, notes = end_to_end(args.workload, records, setup,
                                          result["maxrss_kb"])
    for name, (value, unit) in metrics.items():
        note = "" if args.trace else notes.get(name, "")
        print(f"  {name:44} {value:14.6g} {unit:12} {note}")
    print(f"  {'ops_failed_ratio':44} {len(failures) / attempted:14.6g} "
          f"{'failed/attempted':12} {len(failures)} of {attempted}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    line = {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}
    if args.record:
        with open(args.record, "a") as handle:
            handle.write(json.dumps({"workload": args.workload,
                                     "seed": args.seed, "trace": args.trace,
                                     "result": line, "wall": wall}) + "\n")
    print(json.dumps(line))


def main(argv=None):
    args = parse_args(argv)
    try:
        run(args)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
