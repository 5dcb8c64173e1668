"""The benchmark harness passes its own self-test, and the committed benchmark
records (``BENCH_*.json`` at the repository root) are well formed.

Each record file holds one JSON object per line: a ``perfbench/run.py
--workload all`` result line (``result``) with the side it measured (``side``:
the parent commit or the change), its pair number and its ``--seed``.  Runs
alternate between the two sides, pair by pair.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_benchmark_selftest_passes():
    """The harness calls the signatures of ``src/``; its self-test runs every
    workload at a tiny size, traced and untraced, in fresh processes."""
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, env=child_env())
    assert done.returncode == 0, done.stdout + done.stderr


def _lines(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_lines_are_correct_end_to_end_results(path):
    lines = _lines(path)
    assert lines, f"{path.name} holds no result lines"
    for n, line in enumerate(lines, 1):
        result = line["result"]
        assert result["correct"] is True, f"{path.name}:{n} is not correct"
        assert result["failed"] == 0, f"{path.name}:{n} has failing checks"
        for key in result["metrics"]:
            workload, _, metric = key.partition(".")
            assert workload in WORKLOADS, f"{path.name}:{n}: {key}"
            assert metric in END_TO_END, f"{path.name}:{n}: {key}"


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_runs_alternate_parent_and_change(path):
    lines = _lines(path)
    pairs = {}
    for line in lines:
        pairs.setdefault(line["pair"], []).append(line)
    for pair, runs in pairs.items():
        assert sorted(r["side"] for r in runs) == ["change", "parent"], pair
        assert runs[0]["seed"] == runs[1]["seed"], pair
    firsts = [runs[0]["side"] for runs in pairs.values()]
    assert all(a != b for a, b in zip(firsts, firsts[1:])), firsts
