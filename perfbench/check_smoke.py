"""Smoke tests of the benchmark: every workload at tiny size with all checks.

    python3 -m pytest perfbench/check_smoke.py

The file is not named ``test_*.py``, so the repository's default test run
does not collect it: it starts about a hundred processes and takes about a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as W  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", W.workload_names())
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "catalog-cli", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _report(target: str, seed: int = 5) -> tuple[str, int]:
    proc = subprocess.run([sys.executable, *run.verify_argv(target, 2, seed)], capture_output=True,
                          text=True, cwd=ROOT, env=run.Run().env, timeout=120)
    return proc.stdout, proc.returncode


def test_known_answer_checks_reject_a_wrong_report():
    text, code = _report("alphabeta-poly")
    assert W.check_report("alphabeta-poly", text, code, 2, 5) == []
    report = json.loads(text)
    report["verdict"] = "pass"
    assert W.check_report("alphabeta-poly", json.dumps(report), 0, 2, 5)
    report = json.loads(text)
    report["rows"][1]["max"] = 1.0
    assert W.check_report("alphabeta-poly", json.dumps(report), 1, 2, 5)
    assert W.check_twin("alphabeta-poly", text, json.dumps(report))


def test_stress_oracle_rejects_a_wrong_einstein_entry():
    text, code = _report(W.verify_target(W.STRESS_ID))
    assert W.check_report(W.STRESS_ID, text, code, 2, 5) == []
    report = json.loads(text)
    worst = max((r for r in report["rows"] if r["equation"] == "einstein"),
                key=lambda r: r["max"])
    worst["max"] *= 1.0001
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "check", "--workload",
                           "stress-offdiag", "--seed", "5"], input=json.dumps(report),
                          capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["failures"]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([float(i) for i in range(40)]) == (75, 29.0, 10)
    assert run.tail_percentile([1.0] * 10) is None
