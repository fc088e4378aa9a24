"""Line-oriented text format for backgrounds, and its parser/renderer.

A background file has five bracketed sections::

    [chart]
    lorentz = u x1 x2 x3 v
    riemann = y1 y2 y3 y4 y5 y6

    [metric.lorentz]         # entries against the Lorentzian chart only
    g(u,v) = 1
    g(u,u) = <expr>
    ...

    [metric.riemann]         # entries against the Riemannian chart only
    g(y1,y1) = -1
    ...

    [flux]                   # pieces on their own blocks; lines with the
    alpha = <coeff> ^ u x1 x2 x3    # same key sum; phi/psi are scalars
    phi = <expr>

    [sample]
    u = 0.5 1.5              # one range per coordinate
    ...
    tol = 1e-8               # optional default tolerance

``#`` starts a comment; whitespace and blank lines are insignificant.  The
``^`` in a flux line separates the coefficient expression from the wedge
monomial (the split is at the last ``^`` whose tail is a pure coordinate
list, so exponents inside the coefficient are fine).  Using a coordinate of
the wrong block anywhere in a piece is a block violation.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Optional

from .expr import Chart, Expr, ParseError, is_zero, parse, to_text
from .forms import KForm, Metric, monomial_form
from .geometry import ProductStructure
from .equations import Background, FluxSpec

__all__ = ["BgFileError", "BlockViolationError", "parse_background_file",
           "parse_background_text", "render_background"]


class BgFileError(Exception):
    """Malformed background file; carries the 1-based line number."""

    def __init__(self, message: str, line: int = 0, path: str = ""):
        loc = f"{path or '<text>'}:{line}" if line else (path or "<text>")
        super().__init__(f"{loc}: {message}")
        self.line = line
        self.path = path


class BlockViolationError(BgFileError):
    """A flux piece or metric entry references the other block's coordinates."""


_SECTIONS = ("chart", "metric.lorentz", "metric.riemann", "flux", "sample")
_LORENTZ_PIECES = {"alpha": 4, "beta": 3, "gamma": 2, "varpi": 1}
_RIEMANN_PIECES = {"nu": 1, "delta": 2, "eps": 3, "theta": 4}
_SCALARS = ("phi", "psi")
_METRIC_RE = re.compile(r"g\(\s*(\w+)\s*,\s*(\w+)\s*\)$")
_WEDGE_TAIL_RE = re.compile(r"\^\s*([A-Za-z_]\w*(?:\s+[A-Za-z_]\w*)*)\s*$")


def _parse_block_expr(text: str, own: Chart, other: Chart, line: int, path: str,
                      what: str) -> Expr:
    try:
        return parse(text, own)
    except ParseError as err:
        ident = re.search(r"unknown identifier '(\w+)'", str(err))
        if ident and ident.group(1) in other.names:
            raise BlockViolationError(
                f"{what} uses coordinate {ident.group(1)!r} from the other block",
                line, path) from None
        raise BgFileError(f"{what}: {err}", line, path) from None


def parse_background_file(path) -> Background:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as err:
        raise BgFileError(str(err), 0, str(path)) from None
    return parse_background_text(text, str(path))


def parse_background_text(text: str, path: str = "") -> Background:
    section: Optional[str] = None
    chart_l: Optional[Chart] = None
    chart_r: Optional[Chart] = None
    metric_lines: dict[str, list[tuple[str, str, str, int]]] = {
        "metric.lorentz": [], "metric.riemann": []}
    flux_lines: list[tuple[str, str, int]] = []
    sample_lines: list[tuple[str, str, int]] = []

    any_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        any_content = True
        if line.startswith("["):
            if not line.endswith("]"):
                raise BgFileError(f"unterminated section header {line!r}", lineno, path)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise BgFileError(f"unknown section [{name}]", lineno, path)
            section = name
            continue
        if section is None:
            raise BgFileError(f"content before the first section: {line!r}", lineno, path)
        if "=" not in line:
            raise BgFileError(f"expected 'key = value', got {line!r}", lineno, path)
        key, value = (s.strip() for s in line.split("=", 1))
        if section == "chart":
            names = tuple(value.split())
            if key == "lorentz":
                if len(names) != 5:
                    raise BgFileError("lorentz chart needs 5 coordinates", lineno, path)
                chart_l = Chart(names)
            elif key == "riemann":
                if len(names) != 6:
                    raise BgFileError("riemann chart needs 6 coordinates", lineno, path)
                chart_r = Chart(names)
            else:
                raise BgFileError(f"unknown chart key {key!r}", lineno, path)
        elif section in ("metric.lorentz", "metric.riemann"):
            m = _METRIC_RE.match(key)
            if not m:
                raise BgFileError(f"metric keys look like g(a,b); got {key!r}", lineno, path)
            metric_lines[section].append((m.group(1), m.group(2), value, lineno))
        elif section == "flux":
            flux_lines.append((key, value, lineno))
        else:
            sample_lines.append((key, value, lineno))

    if not any_content:
        raise BgFileError("empty background file", 0, path)
    if chart_l is None or chart_r is None:
        raise BgFileError("missing [chart] section with lorentz and riemann lines", 0, path)
    overlap = set(chart_l.names) & set(chart_r.names)
    if overlap:
        raise BgFileError(f"charts share coordinates {sorted(overlap)}", 0, path)

    def build_metric(sec: str, chart: Chart, other: Chart) -> Metric:
        n = chart.dim
        rows = [[parse("0", chart) for _ in range(n)] for _ in range(n)]
        seen = set()
        for a, b, value, lineno in metric_lines[sec]:
            for name in (a, b):
                if name not in chart.names:
                    if name in other.names:
                        raise BlockViolationError(
                            f"metric entry g({a},{b}) uses the other block's coordinate {name!r}",
                            lineno, path)
                    raise BgFileError(f"unknown coordinate {name!r} in g({a},{b})", lineno, path)
            i, j = chart.index(a), chart.index(b)
            if (min(i, j), max(i, j)) in seen:
                raise BgFileError(f"duplicate metric entry g({a},{b})", lineno, path)
            seen.add((min(i, j), max(i, j)))
            e = _parse_block_expr(value, chart, other, lineno, path, f"metric entry g({a},{b})")
            rows[i][j] = e
            rows[j][i] = e
        sig = (1, 4) if sec == "metric.lorentz" else (0, 6)
        return Metric(chart, rows, sig)

    gl = build_metric("metric.lorentz", chart_l, chart_r)
    gr = build_metric("metric.riemann", chart_r, chart_l)

    pieces: dict[str, KForm] = {}
    scalars: dict[str, Expr] = {}
    for key, value, lineno in flux_lines:
        if key in _SCALARS:
            own, other = (chart_r, chart_l) if key == "phi" else (chart_l, chart_r)
            e = _parse_block_expr(value, own, other, lineno, path, f"flux scalar {key}")
            if key in scalars:
                raise BgFileError(f"duplicate scalar {key!r}", lineno, path)
            scalars[key] = e
            continue
        if key in _LORENTZ_PIECES:
            own, other, deg = chart_l, chart_r, _LORENTZ_PIECES[key]
        elif key in _RIEMANN_PIECES:
            own, other, deg = chart_r, chart_l, _RIEMANN_PIECES[key]
        else:
            raise BgFileError(f"unknown flux piece {key!r}", lineno, path)
        m = _WEDGE_TAIL_RE.search(value)
        if m is None:
            raise BgFileError(
                f"flux piece {key!r} needs the form '<coeff> ^ <coordinates>'", lineno, path)
        names = tuple(m.group(1).split())
        coeff_text = value[:m.start()].strip()
        unknown = [n for n in names if n not in chart_l.names and n not in chart_r.names]
        if unknown:
            raise BgFileError(
                f"flux piece {key!r} wedges unknown coordinate {unknown[0]!r}", lineno, path)
        if len(names) != deg:
            raise BgFileError(
                f"flux piece {key!r} must have degree {deg}, got {len(names)} wedge factors",
                lineno, path)
        for n in names:
            if n not in own.names:
                raise BlockViolationError(
                    f"flux piece {key!r} wedges the other block's coordinate {n!r}",
                    lineno, path)
        if not coeff_text:
            raise BgFileError(f"flux piece {key!r} is missing its coefficient", lineno, path)
        coeff = _parse_block_expr(coeff_text, own, other, lineno, path, f"flux piece {key}")
        term = monomial_form(own, coeff, names)
        pieces[key] = pieces[key] + term if key in pieces else term

    box_map: dict[str, tuple[float, float]] = {}
    tol: Optional[float] = None
    for key, value, lineno in sample_lines:
        if key == "tol":
            try:
                tol = float(value)
            except ValueError:
                raise BgFileError(f"bad tolerance {value!r}", lineno, path) from None
            if not (math.isfinite(tol) and tol > 0.0):
                raise BgFileError(f"tolerance must be finite and positive, got {value!r}",
                                  lineno, path)
            continue
        parts = value.split()
        if len(parts) != 2:
            raise BgFileError(f"sample range for {key!r} needs 'lo hi'", lineno, path)
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError:
            raise BgFileError(f"bad sample range {value!r}", lineno, path) from None
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise BgFileError(f"sample range for {key!r} must be finite, got {value!r}",
                              lineno, path)
        if not lo < hi:
            raise BgFileError(f"empty sample range for {key!r}", lineno, path)
        if key not in chart_l.names and key not in chart_r.names:
            raise BgFileError(f"sample range for unknown coordinate {key!r}", lineno, path)
        box_map[key] = (lo, hi)

    all_names = chart_l.names + chart_r.names
    missing = [n for n in all_names if n not in box_map]
    if missing:
        raise BgFileError(f"missing sample ranges for {missing}", 0, path)

    flux = FluxSpec(
        alpha=pieces.get("alpha"), beta=pieces.get("beta"), gamma=pieces.get("gamma"),
        varpi=pieces.get("varpi"), psi=scalars.get("psi"), phi=scalars.get("phi"),
        nu=pieces.get("nu"), delta=pieces.get("delta"), eps=pieces.get("eps"),
        theta=pieces.get("theta"))
    ps = ProductStructure(gl, gr)
    return Background(ps, flux, [box_map[n] for n in all_names],
                      ident=Path(path).stem if path else "",
                      provenance=f"background file {path}" if path else "background file",
                      tolerance=tol)


def render_background(bg: Background, header: str = "") -> str:
    """Serialize a background to the file format (used to ship the catalog
    entries as files; re-parsing reproduces the same residual tables)."""
    gl = bg.product.lorentz
    gr = bg.product.riemann
    lines: list[str] = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    lines.append("[chart]")
    lines.append(f"lorentz = {' '.join(gl.chart.names)}")
    lines.append(f"riemann = {' '.join(gr.chart.names)}")

    def metric_section(name: str, m: Metric):
        lines.append("")
        lines.append(f"[{name}]")
        ch = m.chart
        for i in range(m.dim):
            for j in range(i, m.dim):
                e = m.entries[i][j]
                if not is_zero(e):
                    lines.append(f"g({ch.names[i]},{ch.names[j]}) = {to_text(e, ch)}")

    metric_section("metric.lorentz", gl)
    metric_section("metric.riemann", gr)

    lines.append("")
    lines.append("[flux]")
    fs = bg.flux
    for key, chart in (("phi", gr.chart), ("psi", gl.chart)):
        e = getattr(fs, key)
        if e is not None:
            lines.append(f"{key} = {to_text(e, chart)}")
    for key, chart in (("alpha", gl.chart), ("beta", gl.chart), ("gamma", gl.chart),
                       ("varpi", gl.chart), ("nu", gr.chart), ("delta", gr.chart),
                       ("eps", gr.chart), ("theta", gr.chart)):
        f = getattr(fs, key)
        if f is None or f.is_zero:
            continue
        for idx, coeff in sorted(f.coeffs.items()):
            names = " ".join(chart.names[i] for i in idx)
            lines.append(f"{key} = {to_text(coeff, chart)} ^ {names}")

    lines.append("")
    lines.append("[sample]")
    all_names = gl.chart.names + gr.chart.names
    for name, (lo, hi) in zip(all_names, bg.box):
        lines.append(f"{name} = {lo!r} {hi!r}")
    lines.append("tol = 1e-08")
    return "\n".join(lines) + "\n"
