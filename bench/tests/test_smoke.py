"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests -q

Runs every workload for a few ops with and without tracing and checks the
result line against BENCHMARK.json: exactly the declared metrics, each
with its declared unit.  Also checks that the benchmark refuses to run
without the source tree, the span recorder's self-time arithmetic and the
comparison verdicts.
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_bench(cwd, workload, trace, max_ops=4, record=None):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--max-ops", str(max_ops)]
    if record:
        cmd += ["--record", str(record)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_result_line(workload, trace, tmp_path):
    record = tmp_path / "runs.jsonl"
    proc = run_bench(ROOT, workload, trace, record=record)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 4
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(line["metrics"][m["name"]]["value"] > 0
                   for m in SPEC["end_to_end"])
        assert "ops_failed_ratio" in proc.stdout
        # compare.py reads the raw wall-clock time metrics from here
        row = json.loads(record.read_text())
        assert row["result"] == line
        assert set(row["wall"]) == {"ops_per_s", "op_ms_p50", "op_ms_tail",
                                    "setup_s"}


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "corpus", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def first_passes(workload, seed, count):
    return list(itertools.islice(workloads.schedule(workload, seed), count))


def test_schedule_is_seeded():
    a = first_passes("towers", 7, 3)
    assert a == first_passes("towers", 7, 3)
    assert a != first_passes("towers", 8, 3)
    cells = {op["cell"] for op in a[0]}
    assert all({op["cell"] for op in batch} == cells for batch in a)
    assert set(workloads.pool("towers")) >= {op["key"] for op in a[0]}


def test_self_time_subtracts_children():
    rec = tracer.Recorder()
    rec.spans = [["op", None, 0, 0.0, 10.0, None, None],
                 ["a", 0, 0, 1.0, 4.0, None, None],
                 ["a", 1, 0, 2.0, 3.0, None, None],
                 ["b", 0, 0, 5.0, 9.0, None, None]]
    assert rec.self_times() == [3.0, 2.0, 1.0, 4.0]
    names, by_op = rec.summary()
    assert names["a"]["calls"] == 1 and names["a"]["self_s"] == 3.0
    assert by_op[0] == {"op": 3.0, "a": 3.0, "b": 4.0}


def test_verdicts():
    parent = [100.0 + i % 3 for i in range(10)]
    assert compare.verdict(parent, [x * 0.8 for x in parent], "higher",
                           0.1)[0] == "regressed"
    assert compare.verdict(parent, [x * 1.2 for x in parent], "higher",
                           0.1)[0] == "improved"
    assert compare.verdict(parent, list(parent), "higher", 0.1)[0] == \
        "unchanged"
    noisy = [100.0, 60.0, 140.0, 80.0, 120.0] * 2
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)[0] == \
        "unresolved"
    assert compare.verdict(parent[:5], parent[:5], "lower", 0.1)[0] == \
        "unresolved"
