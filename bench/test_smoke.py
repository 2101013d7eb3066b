"""Smoke test of the benchmark: every workload at reduced size, on two seeds.

    python3 -m pytest bench/test_smoke.py

Seed 1 runs untraced and seed 2 traced, so both output forms and every
check are exercised on two seeds. About a minute on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
# (failed, attempted) per round: the smoke ladder's two stationary solves miss
# the oracle envelope
PER_ROUND = {"thermostat_mc": (0, 1), "ruin_both": (0, 1), "thermostat_fpk": (2, 3)}
# thermostat_mc is not timed by BENCHMARK.json (see README.md); it stays
# runnable by name, and its checks are exercised here
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]] + ["thermostat_mc"]


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("seed,trace", [(1, 0), (2, 1)])
def test_workload_smoke(workload, seed, trace):
    proc = run_bench(BENCH.parent, "--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    failed, attempted = PER_ROUND[workload]
    assert result["attempted"] >= attempted and result["attempted"] % attempted == 0
    assert result["failed"] * attempted == failed * result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_refuses_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "ruin_both", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
