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

from sugra.catalog import catalog_ids
from sugra.cli import main

REPORTS = Path(__file__).resolve().parent / "data" / "reports"


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
