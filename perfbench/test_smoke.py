"""Smoke test of the benchmark harness on the tiny ``scan5`` workload.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_and_no_op_fails(trace, section):
    done = run_bench(
        "--workload", "scan5", "--seed", "0", "--seconds", "1", "--trace", str(trace)
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) == 3}
    for name, unit in wanted.items():
        assert printed.get(name) == unit, name
    failed_frac = [line.split() for line in lines if line.startswith("failed_frac")]
    assert failed_frac and float(failed_frac[0][1]) == 0


def test_unknown_workload_is_refused():
    done = run_bench("--workload", "nope", "--seconds", "1")
    assert done.returncode != 0
    assert not done.stdout.strip()
