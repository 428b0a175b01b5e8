"""Compare two sets of benchmark results: parent and change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 bench/compare.py run --parent DIR --change DIR --workload W \
        [--pairs 10] [--seed 1] --out OUTDIR

Result files hold one JSON object per line, as ``run.py --record`` writes
them.  Run i of the parent and run i of the change, per workload, form
pair i; ``run`` makes such pairs itself, alternating which side goes
first and giving both sides of a pair the same seed, with this bench
directory's code against each checkout's src/.  Every run lasts
BENCHMARK.json's run_seconds, the length the bounds were set for.

Per workload and end-to-end metric it prints both sides' median and
quartiles, the fraction of pairs the change wins (ties count for neither)
and a verdict, by the rule of the choosing-metrics guide (section 8) with
the bounds in BENCHMARK.json:

* improved   - the change wins at least 9/10 of all pairs and the medians
               differ by more than the parent's quartile spread;
* unresolved - the parent's quartile spread, as a share of its median, is
               wider than the bound, unless every change run is better than
               every parent run;
* regressed  - the change's median is worse than the parent's by more than
               the bound;
* unchanged  - otherwise.

The time metrics are scaled to a fixed host speed (see run.py); the last
column gives the change of their medians in raw wall-clock time, so a
verdict can be checked against real time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    runs = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                row = json.loads(line)
                if not row.get("trace"):
                    result = dict(row["result"], wall=row.get("wall", {}))
                    runs.setdefault(row["workload"], []).append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """(verdict, wins, pairs) for one metric; lists are aligned by pair."""
    sign = 1 if better == "higher" else -1
    pairs = min(len(parent), len(change))
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent[:pairs], change))
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = p3 - p1
    worse = -sign * (cm - pm) / abs(pm) if pm else 0.0
    separated = min(change) > max(parent) if sign > 0 else \
        max(change) < min(parent)
    if pairs < MIN_PAIRS:
        return "unresolved", wins, pairs
    if wins >= WIN_SHARE * pairs and sign * (cm - pm) > spread:
        return "improved", wins, pairs
    if pm and spread / abs(pm) > bound and not separated:
        return "unresolved", wins, pairs
    if worse > bound:
        return "regressed", wins, pairs
    return "unchanged", wins, pairs


def wall_delta(p_runs, c_runs, name):
    """Change of the medians of a metric's raw wall-clock values, or ""."""
    pw = [r["wall"][name] for r in p_runs if name in r["wall"]]
    cw = [r["wall"][name] for r in c_runs if name in r["wall"]]
    if not pw or not cw:
        return ""
    pm, cm = statistics.median(pw), statistics.median(cw)
    return f"{(cm - pm) / pm * 100:+7.1f}%"


def compare(parent_path, change_path):
    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':9} {'metric':12} {'unit':5} "
          f"{'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} "
          f"{'delta':>8} {'wins':>6}  {'verdict':12} wall delta")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            result, wins, pairs = verdict(pv, cv, metric["better"],
                                          metric["bound"])
            if result == "improved" and c_failed > p_failed:
                result = "unresolved (more ops failed)"
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            row = (f"{workload:9} {name:12} {metric['unit']:5} "
                   f"{pm:12.5g} [{p1:8.5g}, {p3:8.5g}] "
                   f"{cm:12.5g} [{c1:8.5g}, {c3:8.5g}] "
                   f"{(cm - pm) / pm * 100 if pm else 0:+7.1f}% "
                   f"{wins:2}/{pairs:<3}  {result:12} "
                   f"{wall_delta(p_runs, c_runs, name)}")
            print(row.rstrip())
        print(f"{workload:9} {'failed ops':12} {'':5} {p_failed:>32} "
              f"{c_failed:>32}")
    missing = set(parent) ^ set(change)
    if missing:
        print(f"workloads on one side only: {', '.join(sorted(missing))}")


def run_pairs(args):
    """Alternating parent/change runs of one workload."""
    args.out.mkdir(parents=True, exist_ok=True)
    sides = {"parent": args.parent, "change": args.change}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            cmd = [sys.executable, str(BENCH / "run.py"),
                   "--workload", args.workload, "--seed", str(args.seed + i),
                   "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
                   "--record", str((args.out / f"{side}.jsonl").resolve())]
            proc = subprocess.run(cmd, cwd=sides[side], capture_output=True,
                                  text=True, timeout=200)
            if proc.returncode != 0:
                raise SystemExit(f"{side} run {i} failed:\n{proc.stderr}")
            print(f"pair {i} {side}: {proc.stdout.strip().splitlines()[-1]}")
    compare(args.out / "parent.jsonl", args.out / "change.jsonl")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "run":
        parser = argparse.ArgumentParser(prog="compare.py run")
        parser.add_argument("--parent", type=Path, required=True)
        parser.add_argument("--change", type=Path, required=True)
        parser.add_argument("--workload", required=True)
        parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--out", type=Path, required=True)
        run_pairs(parser.parse_args(argv[1:]))
        return
    parser = argparse.ArgumentParser(description="compare two result sets")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    compare(args.parent, args.change)


if __name__ == "__main__":
    main()
