"""The bad-input contract, fuzzed: seeded mutations of the shipped ``.bg``
files go through ``sugra verify`` in-process.

Each case applies 1-3 edits, each of which inserts, deletes, duplicates or
replaces one character, token or line.  Whatever the file has become, the
verifier must end with exit code 0 (pass), 1 (verification failed) or 2
(bad input, told in exactly one ``error:`` line), and never let an
exception escape.
"""

import random
import re
from pathlib import Path

import pytest

from sugra.catalog import catalog_ids
from sugra.cli import main

SHIPPED = Path(__file__).resolve().parent.parent / "src" / "sugra" / "backgrounds"

CASES_PER_FILE = 60

#: What inserts and replacements put in: syntax, names, sections, and
#: constants at the edge of the float range (``2^1024`` overflows).
TOKENS = ["^", "(", ")", "*", "/", "-", "=", "[", "#", " ", "\n", "0", "-1", "1e308", "2^1024", "10^400",
          "(1e200)^2", "0^-1", "1/0", "nan", "sqrt(", "exp(", "u", "y1", "z", "g(u,y1)", "alpha", "[flux]"]

_SPLIT = {"char": list,
          "token": lambda text: re.findall(r"\w+|\s+|\S", text),
          "line": lambda text: text.splitlines(keepends=True)}


def mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        unit = rng.choice(sorted(_SPLIT))
        parts = _SPLIT[unit](text) or [""]
        i = rng.randrange(len(parts))
        new = rng.choice(TOKENS) + ("\n" if unit == "line" else "")
        op = rng.choice(("insert", "delete", "duplicate", "replace"))
        if op == "insert":
            parts.insert(i, new)
        elif op == "delete":
            del parts[i]
        elif op == "duplicate":
            parts.insert(i, parts[i])
        else:
            parts[i] = new
        text = "".join(parts)
    return text


@pytest.mark.parametrize("ident", catalog_ids())
def test_mutated_files_keep_the_exit_contract(ident, tmp_path, capsys):
    rng = random.Random(f"fuzz-{ident}")
    original = (SHIPPED / f"{ident}.bg").read_text()
    path = tmp_path / f"{ident}.bg"
    breaches = []
    for case in range(CASES_PER_FILE):
        text = mutate(original, rng)
        path.write_text(text)
        try:
            code = main(["verify", str(path), "--points", "5"])
        except Exception as exc:  # the contract's breach, reported below
            code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        if code not in (0, 1, 2) or (code == 2 and (err.count("\n") != 1 or not err.startswith("error:"))):
            breaches.append(f"case {case}: {code!r}, stderr {err!r}")
    assert not breaches, "\n".join(breaches)
