"""The bad-input contract, fuzzed: seeded mutations of the shipped ``.bg``
files, and drawn ``verify`` command lines, go through ``sugra verify``
in-process.

Each file case applies 1-3 edits, each of which inserts, deletes,
duplicates or replaces one character, token or line; every tenth case then
inserts one byte that is not valid UTF-8.  Whatever the file or the command
line has become, the verifier must end with exit code 0 (pass), 1
(verification failed) or 2 (bad input, told in exactly one ``error:``
line), and never let an exception escape.  A ``--json`` run that ends 0 or
1 prints strict JSON: ``Infinity`` or ``NaN`` in a report breaks the
contract.
"""

import contextlib
import io
import json
import os
import random
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

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


def run_main(argv: list[str]) -> tuple[object, str, str]:
    """``main(argv)`` with its exit code, or the exception that escaped it,
    and what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:  # the contract's breach, reported by the caller
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


#: Bytes that are never valid UTF-8 where they are inserted: a lone
#: continuation byte, a lead byte cut short by the next character, and 0xff.
BAD_BYTES = [b"\x80", b"\xc3", b"\xff"]


def _no_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def breaks_contract(code, err: str, json_out: str | None = None) -> bool:
    """Whether an outcome breaks the contract: exit 2 with anything but one
    ``error:`` line, exit 0 or 1 with anything on stderr, or anything else.
    ``json_out`` is the stdout of a ``--json`` run, which must then be
    strict JSON."""
    if code == 2:
        return not err.startswith("error: ") or err.count("\n") != 1
    if code in (0, 1) and json_out is not None:
        try:
            json.loads(json_out, parse_constant=_no_constant)
        except ValueError:
            return True
    return code not in (0, 1) or err != ""


@pytest.mark.parametrize("ident", catalog_ids())
def test_mutated_files_keep_the_exit_contract(ident, tmp_path):
    rng = random.Random(f"fuzz-{ident}")
    byte_rng = random.Random(f"bytes-{ident}")
    original = (SHIPPED / f"{ident}.bg").read_text()
    path = tmp_path / f"{ident}.bg"
    breaches = []
    for case in range(CASES_PER_FILE):
        data = mutate(original, rng).encode()
        if case % 10 == 9:
            at = byte_rng.randrange(len(data) + 1)
            data = data[:at] + byte_rng.choice(BAD_BYTES) + data[at:]
        path.write_bytes(data)
        as_json = case % 2 == 1
        code, out, err = run_main(["verify", str(path), "--points", "5"] + ["--json"] * as_json)
        if breaks_contract(code, err, out if as_json else None):
            breaches.append(f"case {case}: {code!r}, stderr {err!r}")
    assert not breaches, "\n".join(breaches)


#: ``{tmp}`` is the test's temporary directory; ``{file}`` is a shipped file.
TARGETS = [*catalog_ids(), "{file}", "nosuch", "{tmp}/missing.bg"]
JUNK = ["abc", "", "1.5", "0x10", "--"]
KEYS = ["H", "c", "L", "K", "E", "flux", "x"]
FACTORS = ["1.1", "0.5", "0", "-1", "1e308", "nan", "inf", "abc", ""]
TOLS = ["0", "-1e-8", "-0.5", "nan", "inf", "abc", "1e-8", "10"]
OUTS = ["{tmp}/r.json", "{tmp}", "{tmp}/nosuch/r.json"]

_ints = st.integers(-2, 6).map(str) | st.sampled_from(JUNK)
_option = st.one_of(
    st.tuples(st.sampled_from(["--points", "--seed"]), _ints).map(list),
    st.builds(lambda tol, joined: [f"--tol={tol}"] if joined else ["--tol", tol],
              st.sampled_from(TOLS), st.booleans()),
    st.tuples(st.just("--perturb"), st.one_of(
        st.tuples(st.sampled_from(KEYS), st.sampled_from(FACTORS)).map(":".join),
        st.sampled_from(KEYS + ["H=1.1"]))).map(list),
    st.tuples(st.just("--out"), st.sampled_from(OUTS)).map(list),
    st.sampled_from([["--json"], ["--jobs", "2"], ["--points"], ["--tol"], ["--perturb"]]),
)


@settings(max_examples=150, deadline=5000, derandomize=True, database=None)
@given(target=st.sampled_from(TARGETS), points=st.integers(1, 6),
       options=st.lists(_option, max_size=4), sugra_seed=st.sampled_from([None, "7", "x"]))
@example(target="kahler-theta", points=1, options=[["--tol", "-0.5"]], sugra_seed=None)
@example(target="kahler-theta", points=1, options=[["--tol=-1e-8"]], sugra_seed=None)
def test_drawn_command_lines_keep_the_exit_contract(target, points, options, sugra_seed):
    """A drawn ``verify`` command line, at most 6 points, with ``SUGRA_SEED``
    unset, an integer or junk.  A repeated option's last value wins, so a
    drawn --points overrides the first."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("SUGRA_SEED", None)
        if sugra_seed is not None:
            os.environ["SUGRA_SEED"] = sugra_seed
        names = {"tmp": tmp, "file": str(SHIPPED / "beta-nu-ppwave.bg")}
        argv = ["verify", target, "--points", str(points), *(arg for opt in options for arg in opt)]
        argv = [arg.format(**names) for arg in argv]
        code, out, err = run_main(argv)
    assert not breaks_contract(code, err, out if "--json" in argv else None), (argv, code, err)
