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

``#`` starts a comment; whitespace and blank lines are insignificant; the
file is UTF-8.  Only flux form pieces may repeat their key; a key repeated
anywhere else is an error.  The ``^`` in a flux line separates the
coefficient expression from the wedge monomial (the split is at the last
``^`` whose tail is a pure coordinate list, so exponents inside the
coefficient are fine).  The reader collects each section's ``(key, value,
line)`` triples alike.  A block's coordinate names (metric keys, wedge factors,
the name where an expression's parse on the block's chart stops) resolve by
chart membership: own block, other block's (a block violation), or unknown.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Optional

from .expr import Chart, Expr, ExprError, ParseError, const, is_zero, parse, to_text
from .forms import Metric, monomial_form
from .geometry import ProductStructure
from .equations import _PIECES, DEFAULT_TOL, Background, FluxSpec

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
_METRIC_RE = re.compile(r"g\(\s*(\w+)\s*,\s*(\w+)\s*\)$")
_WEDGE_TAIL_RE = re.compile(r"\^\s*([A-Za-z_]\w*(?:\s+[A-Za-z_]\w*)*)\s*$")


def parse_background_file(path) -> Background:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:  # a missing file, or one that is not UTF-8
        raise BgFileError(str(err), 0, str(path)) from None
    return parse_background_text(text, str(path))


def parse_background_text(text: str, path: str = "") -> Background:
    lines: dict[str, list[tuple[str, str, int]]] = {name: [] for name in _SECTIONS}
    section: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise BgFileError(f"unterminated section header {line!r}", lineno, path)
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise BgFileError(f"unknown section [{section}]", lineno, path)
        elif section is None:
            raise BgFileError(f"content before the first section: {line!r}", lineno, path)
        elif "=" not in line:
            raise BgFileError(f"expected 'key = value', got {line!r}", lineno, path)
        else:
            key, value = (s.strip() for s in line.split("=", 1))
            lines[section].append((key, value, lineno))
    if section is None:
        raise BgFileError("empty background file", 0, path)

    charts: dict[str, Chart] = {}
    for key, value, lineno in lines["chart"]:
        names = tuple(value.split())
        size = {"lorentz": 5, "riemann": 6}.get(key)
        if size is None:
            raise BgFileError(f"unknown chart key {key!r}", lineno, path)
        if len(names) != size:
            raise BgFileError(f"{key} chart needs {size} coordinates", lineno, path)
        if key in charts:
            raise BgFileError(f"duplicate {key} chart", lineno, path)
        try:  # a repeated name, or one that no expression can write
            chart = Chart(names)
        except ExprError as err:
            raise BgFileError(f"{key} {err}", lineno, path) from None
        if "tol" in names:
            raise BgFileError(f"{key} chart names a coordinate 'tol', which [sample] reads as "
                              "the tolerance", lineno, path)
        for other in charts.values():  # the chart of the earlier line
            overlap = set(names) & set(other.names)
            if overlap:
                raise BgFileError(f"charts share coordinates {sorted(overlap)}", lineno, path)
        charts[key] = chart
    if len(charts) != 2:
        raise BgFileError("missing [chart] section with lorentz and riemann lines", 0, path)
    chart_l, chart_r = charts["lorentz"], charts["riemann"]
    # Per block: its chart, and the other block's coordinate names.
    blocks = {5: (chart_l, chart_r.names), 6: (chart_r, chart_l.names)}

    def coordinate(name: str, block: int, what: str, lineno: int) -> int:
        """The index of ``name`` on ``block``'s chart; the other block's is a violation."""
        chart, other = blocks[block]
        if name in chart.names:
            return chart.names.index(name)
        if name in other:
            raise BlockViolationError(f"{what} uses the other block's coordinate {name!r}",
                                      lineno, path)
        raise BgFileError(f"{what} uses unknown coordinate {name!r}", lineno, path)

    def expression(text: str, block: int, what: str, lineno: int) -> Expr:
        """``text`` parsed on the block's chart.  The name where the parser stops is
        resolved through ``coordinate``: the other block's is a block violation."""
        try:
            return parse(text, blocks[block][0])
        except ExprError as err:
            refused = re.match(r"\w*", text[err.pos:])[0] if isinstance(err, ParseError) else ""
            if refused in blocks[block][1]:
                coordinate(refused, block, what, lineno)
            raise BgFileError(f"{what}: {err}", lineno, path) from None

    def metric(section: str, chart: Chart, signature: tuple[int, int]) -> Metric:
        entries: dict[tuple[int, int], Expr] = {}  # upper triangle, i <= j
        for key, value, lineno in lines[section]:
            m = _METRIC_RE.match(key)
            if not m:
                raise BgFileError(f"metric keys look like g(a,b); got {key!r}", lineno, path)
            what = f"metric entry g({m[1]},{m[2]})"
            i, j = sorted(coordinate(n, chart.dim, what, lineno) for n in m.groups())
            if (i, j) in entries:
                raise BgFileError(f"duplicate {what}", lineno, path)
            entries[i, j] = expression(value, chart.dim, what, lineno)
        rows = [[entries.get((min(i, j), max(i, j)), const(0.0)) for j in range(chart.dim)]
                for i in range(chart.dim)]
        return Metric(chart, rows, signature)

    product = ProductStructure(metric("metric.lorentz", chart_l, (1, 4)),
                               metric("metric.riemann", chart_r, (0, 6)))

    pieces: dict = {}
    for key, value, lineno in lines["flux"]:
        if key not in _PIECES:
            raise BgFileError(f"unknown flux piece {key!r}", lineno, path)
        dim, deg, _ = _PIECES[key]
        if not deg:
            if key in pieces:
                raise BgFileError(f"duplicate scalar {key!r}", lineno, path)
            pieces[key] = expression(value, dim, f"flux scalar {key}", lineno)
            continue
        m = _WEDGE_TAIL_RE.search(value)
        if m is None:
            raise BgFileError(
                f"flux piece {key!r} needs the form '<coeff> ^ <coordinates>'", lineno, path)
        wedge = m[1].split()
        for n in wedge:
            coordinate(n, dim, f"flux piece {key}", lineno)
        if len(wedge) != deg:
            raise BgFileError(f"flux piece {key!r} must have degree {deg}, got {len(wedge)} "
                              "wedge factors", lineno, path)
        coeff_text = value[:m.start()].strip()
        if not coeff_text:
            raise BgFileError(f"flux piece {key!r} is missing its coefficient", lineno, path)
        coeff = expression(coeff_text, dim, f"flux piece {key}", lineno)
        term = monomial_form(blocks[dim][0], coeff, wedge)
        pieces[key] = pieces[key] + term if key in pieces else term

    all_names = chart_l.names + chart_r.names
    box_map: dict[str, tuple[float, float]] = {}
    tol: Optional[float] = None
    for key, value, lineno in lines["sample"]:
        parts = [value] if key == "tol" else value.split()
        if len(parts) != 2 and key != "tol":
            raise BgFileError(f"sample range for {key!r} needs 'lo hi'", lineno, path)
        try:
            nums = [float(p) for p in parts]
        except ValueError:
            what = "tolerance" if key == "tol" else "sample range"
            raise BgFileError(f"bad {what} {value!r}", lineno, path) from None
        if key == "tol":
            if not (math.isfinite(nums[0]) and nums[0] > 0.0):
                raise BgFileError(f"tolerance must be finite and positive, got {value!r}",
                                  lineno, path)
            if tol is not None:
                raise BgFileError("duplicate tolerance", lineno, path)
            tol = nums[0]
            continue
        lo, hi = nums
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise BgFileError(f"sample range for {key!r} must be finite, got {value!r}",
                              lineno, path)
        if not lo < hi:
            raise BgFileError(f"empty sample range for {key!r}", lineno, path)
        if not math.isfinite(hi - lo):
            raise BgFileError(f"sample range for {key!r} is wider than a float, got {value!r}",
                              lineno, path)
        if key not in all_names:
            raise BgFileError(f"sample range for unknown coordinate {key!r}", lineno, path)
        if key in box_map:
            raise BgFileError(f"duplicate sample range for {key!r}", lineno, path)
        box_map[key] = (lo, hi)

    missing = [n for n in all_names if n not in box_map]
    if missing:
        raise BgFileError(f"missing sample ranges for {missing}", 0, path)
    return Background(product, FluxSpec(**pieces), [box_map[n] for n in all_names],
                      ident=Path(path).stem if path else "",
                      provenance=f"background file {path}" if path else "background file",
                      tolerance=tol)


def render_background(bg: Background, header: str = "") -> str:
    """Serialize a background to the file format (used to ship the catalog
    entries as files; re-parsing reproduces the same residual tables, since
    the sample box is all that decides a plan).  The ``tol`` line is the
    background's own tolerance, ``DEFAULT_TOL`` (1e-08) if it has none."""
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
    charts = {5: gl.chart, 6: gr.chart}
    # The scalars, then the Lorentzian form pieces, then the Riemannian ones.
    for key in sorted(_PIECES, key=lambda k: _PIECES[k][0] if _PIECES[k][1] else 0):
        dim, deg, _ = _PIECES[key]
        f, chart = getattr(bg.flux, key), charts[dim]
        if f is None:
            continue
        if not deg:
            lines.append(f"{key} = {to_text(f, chart)}")
            continue
        for idx, coeff in sorted(f.coeffs.items()):
            names = " ".join(chart.names[i] for i in idx)
            lines.append(f"{key} = {to_text(coeff, chart)} ^ {names}")

    lines.append("")
    lines.append("[sample]")
    all_names = gl.chart.names + gr.chart.names
    for name, (lo, hi) in zip(all_names, bg.box):
        lines.append(f"{name} = {lo!r} {hi!r}")
    lines.append(f"tol = {DEFAULT_TOL if bg.tolerance is None else bg.tolerance!r}")
    return "\n".join(lines) + "\n"
