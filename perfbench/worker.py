"""The library side of the benchmark; each task runs in a fresh process.

    python3 perfbench/worker.py diagnose --seed S --points N
    python3 perfbench/worker.py check --workload W --seed S < stress-report.json
    python3 perfbench/worker.py trace --workload W --seed S --points N [--spans FILE]

``diagnose`` is one ``library-diagnose`` pass: ``diagnose_reduced_case`` on
every catalog flux and on the stress flux, plus a ``render_background`` ->
``parse_background_text`` round trip of each.  Its deterministic result goes
to stdout and its in-process wall time to stderr.

``check`` makes the library-side correctness checks of a workload: render
round trips, the stress file's construction, and the finite-difference
oracle on the stress report's worst Einstein entry.

``trace`` runs a workload's work in-process through the public API; with
``--spans`` it records spans around the public calls, adds the probes of
``probe()`` and prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import sys
import time

import workloads as W

T_IMPORT = time.perf_counter()
sys.path.insert(0, str(W.SRC))
import sugra  # noqa: E402
import sugra.bgfile  # noqa: E402
import sugra.catalog  # noqa: E402
import sugra.cli  # noqa: E402
import sugra.equations  # noqa: E402
import sugra.expr  # noqa: E402
import sugra.forms  # noqa: E402
import sugra.geometry  # noqa: E402
T_IMPORTED = time.perf_counter()

import numpy as np  # noqa: E402  (after sugra, so the import span includes it)

# Modules are reached through their attributes at call time, so that the
# wrappers of tracing.install() see every call.
bgfile, catalog, cli, equations = sugra.bgfile, sugra.catalog, sugra.cli, sugra.equations
expr, forms, geometry = sugra.expr, sugra.forms, sugra.geometry

STRESS_NAMES = ("t", "x1", "x2", "x3", "z", "y1", "y2", "y3", "y4", "y5", "y6")


def load(name: str):
    if name == W.STRESS_ID:
        return bgfile.parse_background_file(W.STRESS_FILE)
    return catalog.build(name)


def cli_verify(target: str, points: int, seed: int) -> tuple[str, int]:
    """``sugra verify <target> --json`` in-process, at the CLI defaults:
    (stdout, exit code)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", target, "--points", str(points), "--seed", str(seed),
                         "--json"])
    return out.getvalue(), code


def roundtrip_ok(bg) -> bool:
    text = bgfile.render_background(bg)
    return bgfile.render_background(bgfile.parse_background_text(text)) == text


def diagnose_pass(seed: int, points: int) -> dict:
    out = []
    for name in W.backgrounds("library-diagnose"):
        bg = load(name)
        d = equations.diagnose_reduced_case(bg.flux, bg.product, count=points,
                                            seed=W.sugra_seed(seed, name), box=bg.box)
        out.append({"target": name, "case": d.case, "kappa": d.kappa, "lam": d.lam,
                    "rows": [list(r) for r in d.rows], "consistent": d.consistent,
                    "roundtrip": roundtrip_ok(bg)})
    return {"diagnoses": out}


# ---------------------------------------------------------------------------
# Library-side checks.
# ---------------------------------------------------------------------------

def _lorentz_lines(text: str) -> list[str]:
    lines = text.splitlines()
    start = lines.index("[metric.lorentz]")
    end = lines.index("", start)
    return [ln for ln in lines if ln.startswith("lorentz = ")] + lines[start:end]


def stress_metric(p) -> np.ndarray:
    """The stress background's metric, written from its header in numpy."""
    g = np.zeros((11, 11))
    conformal = 4.0 / p[4] ** 2
    g[0, 0] = conformal
    for i in range(1, 5):
        g[i, i] = -conformal
    y = p[5:]
    for i in range(6):
        g[5 + i, 5 + i] = -(2.0 + 0.1 * y[i] ** 2)
    for i in range(3):
        g[5 + i, 6 + i] = g[6 + i, 5 + i] = 0.1 * y[i] * y[i + 1]
    return g


def stress_flux(p) -> np.ndarray:
    """theta = (1 + y1^2) dy1^dy2^dy3^dy4 as an antisymmetric 4-tensor."""
    f = np.zeros((11,) * 4)
    for perm in itertools.permutations(range(4)):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        f[tuple(5 + q for q in perm)] = (-1) ** inversions * (1.0 + p[5] ** 2)
    return f


def stress_oracle(report_text: str) -> list[str]:
    """Reproduce the worst Einstein entry of a stress report independently:
    finite-difference Ricci (tests/oracles.py) plus a numpy flux contraction."""
    sys.path.insert(0, str(W.ROOT / "tests"))
    from oracles import fd_ricci

    rows = [r for r in json.loads(report_text)["rows"] if r["equation"] == "einstein"]
    worst = max(rows, key=lambda r: r["max"])
    p = tuple(worst["worst_point"])
    a, b = (STRESS_NAMES.index(n) for n in worst["worst_component"].strip("()").split(","))
    g = stress_metric(p)
    ginv = np.linalg.inv(g)
    f = stress_flux(p)
    f_up3 = np.einsum("ijkl,jJ,kK,lL->iJKL", f, ginv, ginv, ginv)
    inner = np.einsum("ajkl,bjkl->ab", f, f_up3) / 6.0
    norm = np.einsum("ijkl,iI,Ijkl->", f, ginv, f_up3) / 24.0
    value = fd_ricci(stress_metric, p)[a, b] + 0.5 * inner[a, b] - g[a, b] * norm / 6.0
    if abs(abs(value) - worst["max"]) > W.ORACLE_RTOL * max(1.0, worst["max"]):
        return [f"stress oracle: einstein {worst['worst_component']} at the worst point is "
                f"{value!r}, the report says {worst['max']!r}"]
    return []


def library_checks(workload: str, stress_report: str | None) -> list[str]:
    bgs = {name: load(name) for name in W.backgrounds(workload)}
    failures = [f"{name}: render/parse round trip changed the text"
                for name, bg in bgs.items() if not roundtrip_ok(bg)]
    if workload == "stress-offdiag":
        stress_text = bgfile.render_background(bgs[W.STRESS_ID])
        kahler_text = bgfile.render_background(catalog.build("kahler-theta"))
        if _lorentz_lines(stress_text) != _lorentz_lines(kahler_text):
            failures.append("stress file: Lorentzian block differs from kahler-theta's")
        failures += stress_oracle(stress_report)
    return failures


# ---------------------------------------------------------------------------
# Probes of the traced run (taken with tracing switched off).
# ---------------------------------------------------------------------------

def node_counts(exprs) -> tuple[int, int]:
    """Tree nodes (shared subtrees counted at every use) and distinct nodes by id."""
    tree: dict[int, int] = {}
    for root in exprs:
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in tree:
                continue
            children = node._children()
            if expanded:
                tree[id(node)] = 1 + sum(tree[id(c)] for c in children)
            else:
                stack.append((node, True))
                stack.extend((c, False) for c in children if id(c) not in tree)
    return sum(tree[id(e)] for e in exprs), len(tree)


def _rate(fns, pts, min_s: float = 0.05) -> tuple[float, int]:
    """Seconds and passes of calling every fn at every point, repeated for min_s."""
    passes = 0
    t0 = time.perf_counter()
    while True:
        for p in pts:
            for fn in fns:
                fn(p)
        passes += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_s:
            return elapsed, passes


def probe(seed: int, names: list[str]) -> dict:
    families = {
        "equations.closedness_us_per_point": equations.closedness_residual,
        "equations.maxwell_us_per_point": equations.maxwell_residual,
        "equations.einstein_us_per_point": equations.einstein_residual,
        "equations.trace_us_per_point": equations.trace_check,
    }
    fam_time = dict.fromkeys(families, 0.0)
    npts = 0
    counts = dict.fromkeys(("expr.ricci_nodes", "expr.ricci_distinct_nodes",
                            "expr.maxwell_nodes", "expr.maxwell_distinct_nodes"), 0)
    interp = [0.0, 0]
    compiled = [0.0, 0]
    for name in names:
        bg = load(name)
        pts = bg.sample(W.PROBE_POINTS, W.sugra_seed(seed, name) + 1)
        for metric, fn in families.items():
            fn(bg, pts[:1])  # warm: builds what the family evaluates
            t0 = time.perf_counter()
            fn(bg, pts)
            fam_time[metric] += time.perf_counter() - t0
        npts += len(pts)

        h = geometry.product_metric(bg.product)
        ric = geometry.ricci(h)
        entries = [ric[i][j] for i in range(11) for j in range(i, 11)]
        nodes, distinct = node_counts(entries)
        counts["expr.ricci_nodes"] += nodes
        counts["expr.ricci_distinct_nodes"] += distinct
        phi = equations.assemble_flux(bg.flux, bg.product)
        maxwell = forms.ext_d(forms.hodge(phi, h)) - forms.wedge(phi, phi).scale(0.5)
        nodes_m, distinct_m = node_counts(list(maxwell.coeffs.values()))
        counts["expr.maxwell_nodes"] += nodes_m
        counts["expr.maxwell_distinct_nodes"] += distinct_m

        at = pts[:5]
        secs, passes = _rate([lambda p, e=e: expr.evaluate(e, p) for e in entries], at)
        interp[0] += secs
        interp[1] += passes * len(at) * nodes
        secs, passes = _rate([expr.compile_expr(e) for e in entries], at)
        compiled[0] += secs
        compiled[1] += passes * len(at) * nodes
    out = {m: t / npts * 1e6 for m, t in fam_time.items()}
    out.update(counts)
    out["expr.interp_ns_per_node"] = interp[0] / interp[1] * 1e9
    out["expr.compiled_ns_per_node"] = compiled[0] / compiled[1] * 1e9
    return out


# ---------------------------------------------------------------------------
# Tasks.
# ---------------------------------------------------------------------------

def workload_work(workload: str, seed: int, points: int) -> dict:
    """A workload's work and its checks, in-process."""
    out: dict = {"reports": {}, "failures": []}
    if workload == "library-diagnose":
        out["diagnosis"] = diagnose_pass(seed, points)
        return out
    for name in W.round_order(seed, W.targets(workload), 0):
        out["reports"][name] = cli_verify(W.verify_target(name), points, W.sugra_seed(seed, name))
    if workload != "stress-offdiag":
        for name in W.targets(workload):
            s = W.sugra_seed(seed, name)
            twin, code = cli_verify(str(W.twin_file(name)), 1, s)
            out["failures"] += (W.check_report(name, twin, code, 1, s)
                                + W.check_twin(name, cli_verify(name, 1, s)[0], twin))
    stress = out["reports"].get(W.STRESS_ID, [None])[0]
    out["failures"] += library_checks(workload, stress)
    return out


def cmd_trace(args) -> dict:
    tracer = None
    if args.spans:
        import tracing
        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracer.record("cli.import", T_IMPORT, T_IMPORTED)
        tracing.install(tracer)
    t0 = time.perf_counter()
    out = workload_work(args.workload, args.seed, args.points)
    out["work_s"] = time.perf_counter() - t0
    if tracer is not None:
        # Verify every background the workload touches, traced, so that each
        # layer it can reach is exercised; then probe untraced.
        for name in W.backgrounds(args.workload):
            cli_verify(W.verify_target(name), 1, W.sugra_seed(args.seed, name))
        tracer.enabled = False
        out["layers"] = tracer.layer_metrics()
        out["layers"].update(probe(args.seed, W.backgrounds(args.workload)))
        tracer.write(args.spans)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("task", choices=("diagnose", "check", "trace"))
    ap.add_argument("--workload", choices=W.workload_names())
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--points", type=int, default=1)
    ap.add_argument("--spans", help="trace: record spans and write them here")
    args = ap.parse_args(argv)
    if args.task == "diagnose":
        t0 = time.perf_counter()
        result = diagnose_pass(args.seed, args.points)
        print(json.dumps({"pass_s": time.perf_counter() - t0}), file=sys.stderr)
        print(json.dumps(result, sort_keys=True))
    elif args.task == "check":
        stress = sys.stdin.read() if args.workload == "stress-offdiag" else None
        print(json.dumps({"failures": library_checks(args.workload, stress)}))
    else:
        print(json.dumps(cmd_trace(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
