"""Workload table, seeded inputs and known answers of the benchmark.

Pure Python with no import of ``sugra``, so the orchestrator (``run.py``)
stays out of the memory it measures; ``worker.py`` imports it too.

Every known answer here comes from the mathematics of the inputs or from the
README, never from running the code under test:

* the seven passing catalog entries pass with exit 0;
* ``alphabeta-poly`` fails with exit 1, and closedness is its only failing
  row (README, "Known honest failure");
* the stress file fails with exit 1 and its closedness row is exactly 0,
  because its flux ``theta = (1 + y1^2) dy1^dy2^dy3^dy4`` depends only on
  ``y1`` and contains ``dy1``;
* reduced-case patterns are the README catalog table's; the stress flux is a
  pure ``theta``, so pattern 5.
"""

from __future__ import annotations

import json
import math
import random
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STRESS_FILE = HERE / "stress-offdiag.bg"

CATALOG_IDS = (
    "alpha-ppwave", "beta-nu-ppwave", "gamma-delta-ppwave", "varpi-epsilon-ppwave",
    "general-combined", "alphabeta-trig", "alphabeta-poly", "kahler-theta",
)
STRESS_ID = "stress-offdiag"
DIAGNOSE_TARGET = "diagnose"

TOL = 1e-8
TWIN_TOL = 1e-12
ORACLE_RTOL = 1e-6

# Points per full-size verify invocation (or per flux for diagnose), and the
# same in smoke mode.  Set-up invocations always use 1.
POINTS = {"catalog-cli": 100, "catalog-dense": 1500, "stress-offdiag": 100,
          "library-diagnose": 50}
SMOKE_POINTS = {"catalog-cli": 3, "catalog-dense": 20, "stress-offdiag": 3,
                "library-diagnose": 3}
# Sample points per background for the residual-function probe of the
# traced run.
PROBE_POINTS = 40

EXPECTED_VERDICT = {ident: "pass" for ident in CATALOG_IDS}
EXPECTED_VERDICT["alphabeta-poly"] = "fail"
EXPECTED_VERDICT[STRESS_ID] = "fail"
# Rows (equation, block) that must fail; every other row must pass.
EXPECTED_FAILING_ROWS = {"alphabeta-poly": {("closedness", "all")}}
EXPECTED_ROWS = [
    ("closedness", "all"), ("maxwell", "all"), ("maxwell", "(2,6)"),
    ("maxwell", "(3,5)"), ("maxwell", "(4,4)"), ("maxwell", "(5,3)"),
    ("einstein", "HH"), ("einstein", "VV"), ("einstein", "VH"), ("trace", "all"),
]

EXPECTED_CASE = {
    "alpha-ppwave": "1", "beta-nu-ppwave": "2", "gamma-delta-ppwave": "3",
    "varpi-epsilon-ppwave": "4", "general-combined": "product-factor",
    "alphabeta-trig": "6", "alphabeta-poly": "6", "kahler-theta": "5",
    STRESS_ID: "5",
}
# Diagnosis rows that must be nonzero (the known defects); all others must
# stay below TOL.  The stress flux is closed but not co-closed.
EXPECTED_FAILING_DIAGNOSIS = {"alphabeta-poly": {"d(nu) = 0"},
                              STRESS_ID: {"d(*6 theta) = 0"}}
EXACT_ZERO_DIAGNOSIS = {STRESS_ID: {"d(theta) = 0", "d(psi) = 0"}}


def workload_names() -> list[str]:
    return list(POINTS)


def targets(workload: str) -> list[str]:
    """What one round of the workload runs, one fresh process each."""
    if workload in ("catalog-cli", "catalog-dense"):
        return list(CATALOG_IDS)
    if workload == "stress-offdiag":
        return [STRESS_ID]
    return [DIAGNOSE_TARGET]


def backgrounds(workload: str) -> list[str]:
    """The backgrounds a workload touches, by catalog id or ``STRESS_ID``."""
    if workload == "stress-offdiag":
        return [STRESS_ID]
    if workload == "library-diagnose":
        return list(CATALOG_IDS) + [STRESS_ID]
    return list(CATALOG_IDS)


def sugra_seed(seed: int, name: str) -> int:
    """The sample-plan seed handed to sugra for one target or background."""
    return (seed * 1_000_003 + zlib.crc32(name.encode())) % (2 ** 31)


def round_order(seed: int, names: list[str], rnd: int) -> list[str]:
    order = list(names)
    random.Random(f"{seed}:{rnd}").shuffle(order)
    return order


def twin_file(ident: str) -> Path:
    """The shipped background file of a catalog entry."""
    return SRC / "sugra" / "backgrounds" / f"{ident}.bg"


def verify_target(name: str) -> str:
    """The ``sugra verify`` target argument for a catalog id or the stress file."""
    return str(STRESS_FILE) if name == STRESS_ID else name


# ---------------------------------------------------------------------------
# Correctness checks.  Each returns a list of failure messages (empty = ok).
# ---------------------------------------------------------------------------

def check_report(name: str, text: str, exit_code: int, points: int, seed: int) -> list[str]:
    """Known-answer checks on one ``sugra verify --json`` report."""
    try:
        report = json.loads(text)
    except ValueError:
        return [f"{name}: unreadable report (exit {exit_code})"]
    expected = EXPECTED_VERDICT[name]
    errors = []
    want_exit = 0 if expected == "pass" else 1
    if exit_code != want_exit:
        errors.append(f"{name}: exit {exit_code}, expected {want_exit}")
    if report.get("verdict") != expected:
        errors.append(f"{name}: verdict {report.get('verdict')!r}, expected {expected!r}")
    if report.get("points") != points or report.get("seed") != seed:
        errors.append(f"{name}: report is for points={report.get('points')} "
                      f"seed={report.get('seed')}, expected {points}, {seed}")
    rows = report.get("rows", [])
    if [(r["equation"], r["block"]) for r in rows] != EXPECTED_ROWS:
        return errors + [f"{name}: unexpected residual rows"]
    if not all(math.isfinite(r["max"]) and math.isfinite(r["mean"]) for r in rows):
        errors.append(f"{name}: non-finite residual")
    if expected == "fail" and name in EXPECTED_FAILING_ROWS:
        failing = {(r["equation"], r["block"]) for r in rows if not r["max"] < TOL}
        if failing != EXPECTED_FAILING_ROWS[name]:
            errors.append(f"{name}: failing rows {sorted(failing)}, "
                          f"expected {sorted(EXPECTED_FAILING_ROWS[name])}")
    if name == STRESS_ID and rows[0]["max"] != 0.0:
        errors.append(f"{name}: closedness row is {rows[0]['max']!r}, expected exactly 0")
    return errors


def check_twin(name: str, report_text: str, twin_text: str) -> list[str]:
    """The shipped ``.bg`` file reproduces the catalog entry's rows to 1e-12."""
    try:
        a = json.loads(report_text)["rows"]
        b = json.loads(twin_text)["rows"]
    except (ValueError, KeyError):
        return [f"{name}: unreadable twin report"]
    for ra, rb in zip(a, b):
        for key in ("max", "mean"):
            if abs(ra[key] - rb[key]) > TWIN_TOL * (1.0 + abs(ra[key])):
                return [f"{name}: file row {ra['equation']}/{ra['block']} {key} "
                        f"{rb[key]!r} differs from the catalog entry's {ra[key]!r}"]
    if len(a) != len(b):
        return [f"{name}: file and catalog entry give different row counts"]
    return []


def check_diagnosis(result: dict) -> list[str]:
    """Known-answer checks on the ``worker.py diagnose`` output."""
    errors = []
    got = {d["target"]: d for d in result.get("diagnoses", [])}
    if sorted(got) != sorted(EXPECTED_CASE):
        return [f"diagnose: targets {sorted(got)}, expected {sorted(EXPECTED_CASE)}"]
    for name, case in EXPECTED_CASE.items():
        d = got[name]
        if d["case"] != case:
            errors.append(f"diagnose {name}: case {d['case']!r}, expected {case!r}")
        failing = {label for label, mx, _ in d["rows"] if not mx < TOL}
        if failing != EXPECTED_FAILING_DIAGNOSIS.get(name, set()):
            errors.append(f"diagnose {name}: failing rows {sorted(failing)}")
        for label, mx, _ in d["rows"]:
            if label in EXACT_ZERO_DIAGNOSIS.get(name, ()) and mx != 0.0:
                errors.append(f"diagnose {name}: row {label!r} is {mx!r}, expected exactly 0")
        if not d["roundtrip"]:
            errors.append(f"diagnose {name}: render/parse round trip changed the text")
    return errors
