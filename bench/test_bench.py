"""Self-test of the benchmark in quick mode; not part of the tier-1 suite.

    python3 -m pytest bench/test_bench.py -q

Each workload runs once untraced and once traced at quick sizes, with every
output check. The printed metric names and units must be those of
BENCHMARK.json, and the failure report must name exactly the two known
program faults, on exactly the operations they break.
"""

import collections
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# fault -> failed operations per cycle
EXPECTED_FAULTS = {"fit_sweep": {"a": 2, "b": 6}, "cli_pipeline": {"b": 1}}


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert WORKLOADS == list(EXPECTED_FAULTS)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    faults = collections.Counter(
        re.search(r" fault=(\w+) ", line).group(1)
        for line in lines[:-1] if line.startswith("FAILED "))
    assert dict(faults) == EXPECTED_FAULTS[workload]
    with open(os.path.join(ROOT, ".bench_out", f"report-{workload}-seed3-trace{trace}.json")) as fh:
        cycles = json.load(fh)["cycles"]
    assert result["attempted"] >= 1 and result["attempted"] % cycles == 0
    assert result["failed"] == sum(faults.values()) * cycles


def test_refuses_without_program(tmp_path):
    """A directory with only the benchmark must exit non-zero and print no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
