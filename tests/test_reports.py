"""The JSON report of every catalog id, byte for byte.

``tests/data/reports/<id>.json`` holds the stdout of
``sugra verify <id> --json --points 100 --seed 42``, run under numpy's AVX2
kernels (``DISPATCH``).  The last bits of a mean depend on numpy's SIMD
dispatch: with AVX-512 kernels, alphabeta-trig's einstein VV mean differs
in its last digits.  On a host without AVX-512 the setting changes
nothing, and numpy ignores a feature name that it does not dispatch (with
an ``ImportWarning``, hidden by default), so the stored bytes hold on every
host with this numpy build.

A change that moves these numbers on purpose regenerates the files, from
the root of the repository, and logs the change:

    export NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"
    for id in $(PYTHONPATH=src python -m sugra.cli list | cut -d' ' -f1); do
        PYTHONPATH=src python -m sugra.cli verify "$id" --json --points 100 --seed 42 \\
            > "tests/data/reports/$id.json"
    done
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sugra.equations
from sugra.catalog import catalog_ids
from sugra.cli import _resolve_target, main

ROOT = Path(__file__).resolve().parent.parent
REPORTS = ROOT / "tests" / "data" / "reports"
DISPATCH = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

# Each id's stdout, stderr and exit code from ``main``, as one JSON object.
_VERIFY_ALL = """
import contextlib, io, json, sys
from sugra.cli import main
runs = {}
for ident in sys.argv[1:]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", ident, "--json", "--points", "100", "--seed", "42"])
    runs[ident] = [out.getvalue(), err.getvalue(), code]
print(json.dumps(runs))
"""


# Every catalog id rendered, then kahler-theta's report at 100 points.
_RENDER_AND_VERIFY = """
from sugra.bgfile import render_background
from sugra.catalog import build, catalog_ids
from sugra.cli import main
for ident in catalog_ids():
    print(render_background(build(ident), header=ident))
main(["verify", "kahler-theta", "--json", "--points", "100"])
"""


def _run(code: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh process that imports ``src``, with ``env`` added."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, **env, "PYTHONPATH": path}, timeout=600)


@pytest.fixture(scope="module")
def reports() -> dict:
    """The report of every catalog id, from one fresh process under ``DISPATCH``."""
    done = _run(_VERIFY_ALL, *catalog_ids(), **DISPATCH)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_output_does_not_depend_on_string_hashing():
    """Sums and products keep their terms in the order they were built, so
    the rendered catalog and a report are the same bytes under two hash
    seeds: no iteration over hashed strings reaches that order."""
    runs = [_run(_RENDER_AND_VERIFY, PYTHONHASHSEED=seed) for seed in ("0", "1")]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr + runs[1].stderr
    assert runs[0].stdout == runs[1].stdout


def test_one_stored_report_per_catalog_id():
    assert sorted(p.stem for p in REPORTS.glob("*.json")) == sorted(catalog_ids())


@pytest.mark.parametrize("ident", catalog_ids())
def test_report_matches_the_stored_bytes(ident, reports):
    stored = (REPORTS / f"{ident}.json").read_bytes()
    out, err, code = reports[ident]
    assert out.encode() == stored
    assert err == ""
    assert code == {"pass": 0, "fail": 1}[json.loads(stored)["verdict"]]


@pytest.mark.parametrize("target", ["kahler-theta", str(ROOT / "perfbench" / "stress-offdiag.bg")])
def test_report_bytes_do_not_depend_on_the_memory_budget(target, monkeypatch, capsys):
    """At 300 points, contraction batches of at most 4 points, and one walk
    and one batch for the whole plan, give the report of the default budget
    byte for byte: each row's sum of ``|value|`` is taken point by point."""
    def run(budget):
        monkeypatch.setattr(sugra.equations, "_BATCH_BYTES", budget)
        main(["verify", target, "--json", "--points", "300", "--seed", "42"])
        return sugra.equations._Jets(_resolve_target(target, {})), capsys.readouterr().out

    _, want = run(sugra.equations._BATCH_BYTES)
    small, out = run(1 << 14)
    assert small.core.batch <= 4 < small.chunk and out == want
    whole, out = run(1 << 40)
    assert whole.core.batch >= 300 and out == want
