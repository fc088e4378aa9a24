"""The JSON report of every catalog id, byte for byte.

``tests/data/reports/<id>.json`` holds the stdout of
``sugra verify <id> --json --points 100 --seed 42``.  A change that moves
these numbers on purpose regenerates the files, from the root of the
repository, and logs the change:

    for id in $(PYTHONPATH=src python -m sugra.cli list | cut -d' ' -f1); do
        PYTHONPATH=src python -m sugra.cli verify "$id" --json --points 100 --seed 42 \\
            > "tests/data/reports/$id.json"
    done
"""

import json
from pathlib import Path

import pytest

import sugra.equations
from sugra.catalog import catalog_ids
from sugra.cli import _resolve_target, main

ROOT = Path(__file__).resolve().parent.parent
REPORTS = ROOT / "tests" / "data" / "reports"


def test_one_stored_report_per_catalog_id():
    assert sorted(p.stem for p in REPORTS.glob("*.json")) == sorted(catalog_ids())


@pytest.mark.parametrize("ident", catalog_ids())
def test_report_matches_the_stored_bytes(ident, capsys):
    stored = (REPORTS / f"{ident}.json").read_bytes()
    code = main(["verify", ident, "--json", "--points", "100", "--seed", "42"])
    out, err = capsys.readouterr()
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
