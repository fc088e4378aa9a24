"""Command-line front end.

Two subcommands::

    sugra list
    sugra verify <catalog-id | background-file> [options]

``verify`` runs the closedness, Maxwell, Einstein, and trace residual
checks over a seeded sample plan and prints a report (text by default,
canonical JSON with --json or to --out).  The tolerance is --tol, else the
background file's ``tol``, else 1e-8.  Exit codes: 0 all residual rows
below tolerance, 1 verification failed, 2 bad input.  Bad input, reported
in one ``error:`` line, includes a background whose metric is degenerate or
has the wrong signature at a sample point, and one whose expressions leave
their domain there or evaluate to a non-finite value (the line names the
subexpression and the first such point).  So are bad numbers: --points
below 1, a negative seed, a non-integer SUGRA_SEED, a tolerance that is not
finite and positive, and a --perturb factor that is not a finite number;
and a --perturb spec that is not KEY:FACTOR or repeats a key.  An --out
path that cannot be written is one ``error:`` line and exit code 2 as well;
a directory, or a path whose directory is missing, is refused before any
work is done.

Reports are byte-deterministic for a fixed (target, seed, points,
tolerance); wall-clock timing is therefore only included when --timing is
passed.  The default seed is 42, overridable by the SUGRA_SEED environment
variable and by --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .bgfile import BgFileError, parse_background_file
from .catalog import CatalogError, catalog_ids, get_entry, build
from .equations import _PIECES, DEFAULT_TOL, Background, VerificationResult, verify
from .expr import ExprError
from .forms import FormError

__all__ = ["main", "build_report", "report_to_json"]


def _parse_perturb(specs: list[str]) -> dict[str, float]:
    """The --perturb options as ``{key: factor}``; raises ValueError on a
    spec that is not KEY:FACTOR, a factor that is not a finite number and a
    repeated key."""
    perturb = {}
    for spec in specs:
        key, colon, factor = spec.partition(":")
        if not colon:
            raise ValueError(f"--perturb wants KEY:FACTOR, got {spec!r}")
        try:
            value = float(factor)
        except ValueError:
            raise ValueError(f"--perturb factor must be a number, got {spec!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"--perturb factor must be finite, got {spec!r}")
        if (key := key.strip()) in perturb:
            raise ValueError(f"--perturb gives the key {key!r} more than once")
        perturb[key] = value
    return perturb


def _scale_flux(bg: Background, factor: float) -> Background:
    """Uniformly rescale every flux form piece (perturbation for file targets)."""
    fs = bg.flux
    forms = {name: getattr(fs, name) for name, (_, deg, _) in _PIECES.items() if deg}
    new = dataclasses.replace(fs, **{name: f.scale(factor) for name, f in forms.items() if f is not None})
    return Background(bg.product, new, bg.box, bg.ident, bg.provenance, bg.predicate,
                      bg.tolerance)


def _resolve_target(target: str, perturb: dict) -> Background:
    if target in catalog_ids():
        return build(target, perturb=perturb or None)
    p = Path(target)
    if p.exists() or target.endswith(".bg"):
        bg = parse_background_file(p)
        for key, factor in perturb.items():
            if key != "flux":
                raise CatalogError(
                    f"file targets support only the 'flux' perturbation, got {key!r}")
            bg = _scale_flux(bg, factor)
        return bg
    raise CatalogError(f"unknown catalog id or missing file {target!r}")


def build_report(target: str, bg: Background, result: VerificationResult,
                 seed: int, points: int, millis: int | None) -> dict:
    rows = [
        {
            "equation": r.equation,
            "block": r.block,
            "max": r.max_abs,
            "mean": r.mean_abs,
            "worst_point": list(r.worst_point),
            "worst_component": r.worst_component,
        }
        for r in result.rows
    ]
    report = {
        "version": __version__,
        "id": bg.ident or target,
        "provenance": bg.provenance,
        "seed": seed,
        "points": points,
        "tolerance": result.tolerance,
        "rows": rows,
        "verdict": "pass" if result.verdict else "fail",
    }
    if millis is not None:
        report["millis"] = millis
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _report_to_text(report: dict) -> str:
    lines = [
        f"sugra {report['version']}  target={report['id']}",
        f"provenance: {report['provenance']}",
        f"seed={report['seed']} points={report['points']} tolerance={report['tolerance']:g}",
        "",
        f"{'equation':<12}{'block':<8}{'max':>12}{'mean':>12}  worst component",
    ]
    for r in report["rows"]:
        ok = "ok " if r["max"] < report["tolerance"] else "FAIL"
        lines.append(
            f"{r['equation']:<12}{r['block']:<8}{r['max']:>12.3e}{r['mean']:>12.3e}"
            f"  {ok} {r['worst_component']}"
        )
    lines.append("")
    if "millis" in report:
        lines.append(f"verdict: {report['verdict']}  ({report['millis']} ms)")
    else:
        lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines) + "\n"


def _cmd_list() -> int:
    width = max(len(i) for i in catalog_ids())
    for ident in catalog_ids():
        entry = get_entry(ident)
        print(f"{ident:<{width}}  {entry.summary}")
    return 0


def _cmd_verify(args) -> int:
    seed = args.seed
    if seed is None:
        try:
            seed = int(os.environ.get("SUGRA_SEED", "42"))
        except ValueError:
            print(f"error: SUGRA_SEED must be an integer, got {os.environ['SUGRA_SEED']!r}",
                  file=sys.stderr)
            return 2
    try:
        perturb = _parse_perturb(args.perturb or [])
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.out:
        out = Path(args.out)
        if out.is_dir() or not out.parent.is_dir():
            what = "is a directory" if out.is_dir() else "lies in a missing directory"
            print(f"error: cannot write the report: {out} {what}", file=sys.stderr)
            return 2
    try:
        bg = _resolve_target(args.target, perturb)
    except (CatalogError, BgFileError, FormError, ExprError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    tol = args.tol
    if tol is None:
        tol = DEFAULT_TOL if bg.tolerance is None else bg.tolerance
    t0 = time.monotonic()
    try:
        result = verify(bg, count=args.points, seed=seed, tol=tol)
    except (FormError, ExprError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    millis = int((time.monotonic() - t0) * 1000) if args.timing else None
    report = build_report(args.target, bg, result, seed, args.points, millis)
    payload = report_to_json(report)
    if args.out:
        try:
            Path(args.out).write_text(payload)
        except OSError as err:
            print(f"error: cannot write the report: {err}", file=sys.stderr)
            return 2
    if args.json:
        sys.stdout.write(payload)
    else:
        sys.stdout.write(_report_to_text(report))
    return 0 if result.verdict else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="sugra",
        description="verify eleven-dimensional product supergravity backgrounds",
    )
    ap.add_argument("--version", action="version", version=f"sugra {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list catalog backgrounds")
    vp = sub.add_parser("verify", help="verify a catalog id or a .bg file")
    vp.add_argument("target", help="catalog id or path to a background file")
    vp.add_argument("--points", type=int, default=100, help="sample points (default 100)")
    vp.add_argument("--seed", type=int, default=None,
                    help="sample seed (default 42, or SUGRA_SEED)")
    vp.add_argument("--tol", type=float, default=None,
                    help="residual tolerance (default 1e-8 or the file's tol)")
    vp.add_argument("--perturb", action="append", metavar="KEY:FACTOR",
                    help="scale a builder profile or constant, e.g. H:1.1")
    vp.add_argument("--out", help="write the JSON report to this path")
    vp.add_argument("--json", action="store_true", help="print JSON to stdout")
    vp.add_argument("--timing", action="store_true",
                    help="include wall-clock millis in the report (breaks byte determinism)")
    args = ap.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
