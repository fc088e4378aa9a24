"""Background file format and command-line interface."""

import json
from pathlib import Path

import pytest

from sugra.bgfile import (
    BgFileError,
    BlockViolationError,
    parse_background_file,
    parse_background_text,
    render_background,
)
from sugra.catalog import build, catalog_ids
from sugra.cli import main
from sugra.equations import verify

SHIPPED = Path(__file__).resolve().parent.parent / "src" / "sugra" / "backgrounds"


MINIMAL = """
[chart]
lorentz = u x1 x2 x3 v
riemann = y1 y2 y3 y4 y5 y6

[metric.lorentz]
g(u,v) = 1
g(u,u) = 1/6 * u^2 * (x1^2 + x2^2 + x3^2)
g(x1,x1) = -1
g(x2,x2) = -1
g(x3,x3) = -1

[metric.riemann]
g(y1,y1) = -1
g(y2,y2) = -1
g(y3,y3) = -1
g(y4,y4) = -1
g(y5,y5) = -1
g(y6,y6) = -1

[flux]
phi = 1
alpha = u ^ u x1 x2 x3

[sample]
u = 0.5 1.5
x1 = -1 1
x2 = -1 1
x3 = -1 1
v = -1 1
y1 = -1 1
y2 = -1 1
y3 = -1 1
y4 = -1 1
y5 = -1 1
y6 = -1 1
tol = 1e-8
"""


class TestParser:
    def test_minimal_file_verifies(self):
        bg = parse_background_text(MINIMAL, "minimal.bg")
        res = verify(bg, count=30, seed=42, tol=1e-8)
        assert res.verdict
        assert bg.tolerance == 1e-8

    def test_shipped_files_match_builders(self):
        for ident in catalog_ids():
            path = SHIPPED / f"{ident}.bg"
            assert path.exists(), f"missing shipped file for {ident}"
            from_file = parse_background_file(path)
            from_builder = build(ident)
            rf = verify(from_file, count=30, seed=42, tol=1e-8)
            rb = verify(from_builder, count=30, seed=42, tol=1e-8)
            assert rf.verdict == rb.verdict
            for a, b in zip(rf.rows, rb.rows):
                assert abs(a.max_abs - b.max_abs) <= 1e-12, (ident, a.equation, a.block)
                assert abs(a.mean_abs - b.mean_abs) <= 1e-12

    def test_render_parse_round_trip(self):
        bg = build("alphabeta-trig")
        text = render_background(bg, header="round trip")
        bg2 = parse_background_text(text, "trig.bg")
        r1 = verify(bg, count=20, seed=7, tol=1e-8)
        r2 = verify(bg2, count=20, seed=7, tol=1e-8)
        for a, b in zip(r1.rows, r2.rows):
            assert abs(a.max_abs - b.max_abs) <= 1e-12

    def test_block_violation_in_flux(self):
        bad = MINIMAL.replace("alpha = u ^ u x1 x2 x3", "alpha = u ^ u x1 x2 x3\nnu = u ^ y1")
        with pytest.raises(BlockViolationError):
            parse_background_text(bad, "bad.bg")

    def test_block_violation_in_wedge_list(self):
        bad = MINIMAL.replace("alpha = u ^ u x1 x2 x3", "nu = 1 ^ u")
        with pytest.raises(BlockViolationError):
            parse_background_text(bad, "bad.bg")

    def test_block_violation_in_metric(self):
        bad = MINIMAL.replace("g(y1,y1) = -1", "g(y1,y1) = -1 - u^2")
        with pytest.raises(BlockViolationError):
            parse_background_text(bad, "bad.bg")

    def test_empty_file(self):
        with pytest.raises(BgFileError):
            parse_background_text("", "empty.bg")
        with pytest.raises(BgFileError):
            parse_background_text("# only a comment\n", "empty.bg")

    def test_error_positions(self):
        bad = MINIMAL.replace("g(x1,x1) = -1", "g(x1,x1) = -1 +")
        with pytest.raises(BgFileError) as err:
            parse_background_text(bad, "syntax.bg")
        assert "syntax.bg:" in str(err.value)

    def test_missing_sample_range(self):
        bad = MINIMAL.replace("y6 = -1 1\n", "")
        with pytest.raises(BgFileError) as err:
            parse_background_text(bad, "nobox.bg")
        assert "y6" in str(err.value)

    def test_unknown_section_and_duplicate_entry(self):
        with pytest.raises(BgFileError):
            parse_background_text("[nope]\nx = 1\n", "s.bg")
        bad = MINIMAL.replace("g(x2,x2) = -1", "g(x2,x2) = -1\ng(x2,x2) = -2")
        with pytest.raises(BgFileError):
            parse_background_text(bad, "dup.bg")

    def test_wrong_degree_flux_piece(self):
        bad = MINIMAL.replace("alpha = u ^ u x1 x2 x3", "alpha = u ^ u x1 x2")
        with pytest.raises(BgFileError):
            parse_background_text(bad, "deg.bg")

    def test_multiple_lines_sum(self):
        doubled = MINIMAL.replace(
            "alpha = u ^ u x1 x2 x3",
            "alpha = 0.25*u ^ u x1 x2 x3\nalpha = 0.75*u ^ u x1 x2 x3")
        a = parse_background_text(MINIMAL, "a.bg")
        b = parse_background_text(doubled, "b.bg")
        ra = verify(a, count=10, seed=3, tol=1e-8)
        rb = verify(b, count=10, seed=3, tol=1e-8)
        for x, y in zip(ra.rows, rb.rows):
            assert abs(x.max_abs - y.max_abs) <= 1e-12


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for ident in ("alpha-ppwave", "kahler-theta"):
            assert ident in out

    def test_verify_pass(self, capsys):
        code = main(["verify", "alpha-ppwave", "--points", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: pass" in out

    def test_verify_perturbed_fails_with_vv_flag(self, capsys):
        code = main(["verify", "alpha-ppwave", "--points", "20", "--perturb", "H:1.1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "verdict: fail" in out
        vv_line = next(l for l in out.splitlines() if l.startswith("einstein") and " VV" in l)
        assert "FAIL" in vv_line

    def test_unknown_target(self, capsys):
        assert main(["verify", "nosuch"]) == 2
        assert "unknown catalog id" in capsys.readouterr().err

    def test_bad_perturb_spec(self, capsys):
        assert main(["verify", "alpha-ppwave", "--perturb", "H=1.1"]) == 2

    def test_verify_file_target(self, tmp_path, capsys):
        src = SHIPPED / "beta-nu-ppwave.bg"
        code = main(["verify", str(src), "--points", "20"])
        assert code == 0
        capsys.readouterr()

    def test_file_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.bg"
        bad.write_text("[chart]\nlorentz = u\n")
        assert main(["verify", str(bad)]) == 2
        assert "bad.bg" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, replacement, message", [
        # leaves sqrt's domain on the half of the box where x1 < 0
        ("g(u,u) = ", "g(u,u) = sqrt(x1)", "square root of a negative value: sqrt(x1) at ("),
        # a second positive direction: signature (2, 9) instead of (1, 10)
        ("g(x1,x1) = ", "g(x1,x1) = 1.0", "metric has 9 negative eigenvalues at ("),
    ])
    def test_bad_background_exit_2(self, tmp_path, capsys, entry, replacement, message):
        lines = (SHIPPED / "alpha-ppwave.bg").read_text().splitlines()
        lines = [replacement if ln.startswith(entry) else ln for ln in lines]
        path = tmp_path / "bad.bg"
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + message)
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, env, edit, message", [
        (["--points", "0"], None, None, "sample count must be positive"),
        (["--points", "-3"], None, None, "sample count must be positive"),
        (["--seed", "-1"], None, None, "sample seed must be non-negative"),
        ([], "abc", None, "SUGRA_SEED must be an integer"),
        (["--tol", "nan"], None, None, "tolerance must be finite and positive"),
        (["--tol", "-1"], None, None, "tolerance must be finite and positive"),
        ([], None, ("tol = ", "tol = nan"), "tolerance must be finite and positive"),
        ([], None, ("tol = ", "tol = 0"), "tolerance must be finite and positive"),
        (["--perturb", "H:nan"], None, None, "--perturb factor must be finite"),
        (["--perturb", "flux:nan"], None, None, "--perturb factor must be finite"),
        ([], None, ("u = ", "u = -inf 1.5"), "sample range for 'u' must be finite"),
    ])
    def test_bad_number_exit_2(self, tmp_path, capsys, monkeypatch, argv, env, edit, message):
        """Each bad number gives one error line and exit 2 (the ``H`` perturbation
        goes to the catalog id, everything else to a copy of its file)."""
        lines = (SHIPPED / "alpha-ppwave.bg").read_text().splitlines()
        if edit is not None:
            lines = [edit[1] if ln.startswith(edit[0]) else ln for ln in lines]
        path = tmp_path / "bg.bg"
        path.write_text("\n".join(lines) + "\n")
        if env is not None:
            monkeypatch.setenv("SUGRA_SEED", env)
        target = "alpha-ppwave" if "H:nan" in argv else str(path)
        assert main(["verify", target, "--points", "5", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1

    def test_json_report_deterministic(self, capsys):
        args = ["verify", "beta-nu-ppwave", "--points", "20", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        report = json.loads(first)
        assert report["verdict"] == "pass"
        assert report["points"] == 20
        assert "millis" not in report
        assert {r["equation"] for r in report["rows"]} == {
            "closedness", "maxwell", "einstein", "trace"}

    def test_out_path_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "alpha-ppwave", "--points", "10", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        report = json.loads(out.read_text())
        assert report["id"] == "alpha-ppwave"
        assert report["tolerance"] == 1e-8

    def test_timing_flag_adds_millis(self, capsys):
        code = main(["verify", "alpha-ppwave", "--points", "10", "--json", "--timing"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert "millis" in report

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SUGRA_SEED", "7")
        code = main(["verify", "alpha-ppwave", "--points", "10", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 7

    def test_flux_perturbation_on_file_target(self, capsys):
        src = SHIPPED / "beta-nu-ppwave.bg"
        code = main(["verify", str(src), "--points", "20", "--perturb", "flux:1.1"])
        capsys.readouterr()
        assert code == 1

    def test_file_tolerance_used_when_flag_absent(self, tmp_path, capsys):
        loose = (SHIPPED / "alphabeta-poly.bg").read_text().replace(
            "tol = 1e-08", "tol = 10.0")
        path = tmp_path / "loose.bg"
        path.write_text(loose)
        # closedness residual ~0.9 passes at the file's loose tolerance...
        assert main(["verify", str(path), "--points", "20"]) == 0
        capsys.readouterr()
        # ...but an explicit --tol wins over the file's setting
        assert main(["verify", str(path), "--points", "20", "--tol", "1e-8"]) == 1
        capsys.readouterr()

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
