"""Benchmark of ``sugra verify`` and of the library diagnostics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --smoke   # tiny sizes

Run from the root of a checkout; the program runs from ``src/`` there.  Each
invocation of the program is a fresh process, one at a time (a closed loop
with one client), so no run is warmer or heavier than a user's.

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``catalog-cli``      ``sugra verify <id> --json`` for the 8 catalog ids at
                       the CLI defaults (100 points), round-robin;
* ``catalog-dense``    the same 8 ids at 1 500 points each;
* ``stress-offdiag``   ``sugra verify perfbench/stress-offdiag.bg`` at 100 points;
* ``library-diagnose`` ``worker.py diagnose``: ``diagnose_reduced_case`` on
                       the 9 fluxes plus render/parse round trips, 50 points.

With ``--trace 0`` a run measures for ``--seconds``: rounds over the
targets in a seeded order, each target run at 1 point (its set-up) and right
after at full size, until the time is up and every target has run once.
Then it makes the remaining correctness checks.  End-to-end metrics:

* ``setup_s``       the same command at 1 point: per target the median over
                    the run, averaged over the targets;
* ``verify_p50_s``  per target the median wall time of a full-size
                    invocation, averaged over the targets;
* ``peak_rss_mb``   peak resident memory of the run's processes.

It also prints ``points_per_s`` (sum over targets of N - 1, divided by the
sum over targets of the full-size median minus the set-up median),
``verify_tail_s`` (the highest percentile of full-size wall times with at
least 10 samples beyond it), ``diagnose_s`` (in-process wall time of a
diagnose pass, ``library-diagnose`` only) and ``error_rate``.  They are not
in ``BENCHMARK.json``: each is undefined, ill-conditioned or always 0 on
some workload.

With ``--trace 1`` it runs the workload in-process twice in fresh
processes, untraced and traced (``tracing.py``), and prints the per-layer
metrics plus ``trace.overhead_s``, the traced work's wall time minus the
untraced one's.  Spans are written to ``perfbench/out/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import workloads as W

TIMEOUT_S = 150
OUT = W.HERE / "out"


class Run:
    """Invokes fresh processes one at a time and keeps the tally of checks."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(W.SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.env.pop("SUGRA_SEED", None)
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.outputs: dict[tuple, str] = {}

    def invoke(self, argv: list[str], stdin: str | None = None):
        """One operation: returns (wall seconds, exit code, stdout, stderr),
        or None after a timeout, which counts as a failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *argv], input=stdin or "", capture_output=True,
                                  text=True, cwd=W.ROOT, env=self.env, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.record([f"timeout after {TIMEOUT_S} s: {' '.join(argv)}"])
            return None
        return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr

    def record(self, errors: list[str]) -> None:
        """Counts the current operation as failed when it has errors."""
        if errors:
            self.failed += 1
            self.messages.extend(errors)

    def same_as_before(self, key: tuple, text: str) -> list[str]:
        """Reports of one (target, seed, points) must be byte-identical."""
        first = self.outputs.setdefault(key, text)
        return [] if first == text else [f"{key}: output differs between repeats"]


def verify_argv(target: str, points: int, seed: int) -> list[str]:
    return ["-m", "sugra.cli", "verify", target, "--points", str(points), "--seed", str(seed),
            "--json"]


def run_target(run: Run, workload: str, name: str, points: int, seed: int, pass_s: list):
    """One invocation of the workload's command; returns its wall time."""
    if workload == "library-diagnose":
        res = run.invoke([str(W.HERE / "worker.py"), "diagnose", "--seed", str(seed),
                          "--points", str(points)])
        if res is None:
            return None
        wall, code, out, err = res
        try:
            errors = W.check_diagnosis(json.loads(out)) if code == 0 else [
                f"diagnose exited {code}: {err.strip()[-300:]}"]
            if code == 0:
                pass_s.append(json.loads(err.strip().splitlines()[-1])["pass_s"])
        except ValueError:
            errors = ["diagnose: unreadable output"]
    else:
        s = W.sugra_seed(seed, name)
        res = run.invoke(verify_argv(W.verify_target(name), points, s))
        if res is None:
            return None
        wall, code, out, err = res
        errors = W.check_report(name, out, code, points, s)
        if errors and err.strip():
            errors.append(err.strip()[-300:])
    run.record(errors + run.same_as_before((name, points), out))
    return wall


def tail_percentile(walls: list[float]):
    """Highest integer percentile with at least 10 samples beyond it (nearest
    rank), as (percentile, value, samples beyond), or None."""
    xs = sorted(walls)
    n = len(xs)
    for p in range(99, 0, -1):
        k = math.ceil(p / 100 * n)
        if n - k >= 10:
            return p, xs[k - 1], n - k
    return None


def measure(run: Run, workload: str, seed: int, seconds: int, smoke: bool) -> tuple[dict, dict]:
    """Rounds over the targets, each target set up (1 point) and then run at
    full size right after, until ``seconds`` have passed and every target has
    run once.  Set-up and full-size samples thus see the same machine."""
    names = W.targets(workload)
    points = (W.SMOKE_POINTS if smoke else W.POINTS)[workload]
    pass_s: list[float] = []
    setup = {n: [] for n in names}
    walls = {n: [] for n in names}
    t0 = time.perf_counter()
    rounds = 0
    while rounds == 0 or not (smoke or time.perf_counter() - t0 >= seconds):
        for name in W.round_order(seed, names, rounds):
            if rounds and (smoke or time.perf_counter() - t0 >= seconds):
                break
            setup[name].append(run_target(run, workload, name, 1, seed, []))
            walls[name].append(run_target(run, workload, name, points, seed, pass_s))
        rounds += 1
    measured = time.perf_counter() - t0

    if workload in ("catalog-cli", "catalog-dense"):
        for name in names:
            s = W.sugra_seed(seed, name)
            res = run.invoke(verify_argv(str(W.twin_file(name)), 1, s))
            if res is not None:
                run.record(W.check_report(name, res[2], res[1], 1, s)
                           + W.check_twin(name, run.outputs[(name, 1)], res[2]))
    if workload != "library-diagnose":
        stress = run.outputs.get((W.STRESS_ID, points))
        res = run.invoke([str(W.HERE / "worker.py"), "check", "--workload", workload,
                          "--seed", str(seed)], stdin=stress)
        if res is not None:
            try:
                run.record(json.loads(res[2])["failures"])
            except ValueError:
                run.record([f"check worker exited {res[1]}: {res[3].strip()[-300:]}"])

    details = {"points": points, "rounds": rounds, "measured_s": measured}
    if any(w is None for ws in list(setup.values()) + list(walls.values()) for w in ws):
        return {}, details
    setup_t = {n: statistics.median(ws) for n, ws in setup.items()}
    full_t = {n: statistics.median(ws) for n, ws in walls.items()}
    all_walls = [w for ws in walls.values() for w in ws]
    metrics = {
        "setup_s": statistics.fmean(setup_t.values()),
        "verify_p50_s": statistics.fmean(full_t.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    details.update({
        "invocations": len(all_walls), "setup_median_s": setup_t, "full_median_s": full_t,
        "points_per_s": len(names) * (points - 1) / sum(full_t[n] - setup_t[n] for n in names),
        "verify_tail_s": tail_percentile(all_walls),
        "diagnose_s": statistics.median(pass_s) if pass_s else None,
    })
    return metrics, details


def trace(run: Run, workload: str, seed: int, smoke: bool) -> tuple[dict, dict]:
    points = (W.SMOKE_POINTS if smoke else W.POINTS)[workload]
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    base = [str(W.HERE / "worker.py"), "trace", "--workload", workload, "--seed", str(seed),
            "--points", str(points)]
    results = []
    for argv in (base, base + ["--spans", str(spans)]):
        res = run.invoke(argv)
        if res is None:
            return {}, {}
        try:
            out = json.loads(res[2])
        except ValueError:
            run.record([f"trace worker exited {res[1]}: {res[3].strip()[-300:]}"])
            return {}, {}
        errors = list(out["failures"])
        for name, (text, code) in out["reports"].items():
            errors += W.check_report(name, text, code, points, W.sugra_seed(seed, name))
            errors += run.same_as_before((name, points), text)
        if "diagnosis" in out:
            errors += W.check_diagnosis(out["diagnosis"])
            errors += run.same_as_before(("diagnose", points), json.dumps(out["diagnosis"]))
        run.record(errors)
        results.append(out)
    untraced, traced = results
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["work_s"] - untraced["work_s"]
    return metrics, {"points": points, "spans": str(spans.relative_to(W.ROOT)),
                     "untraced_work_s": untraced["work_s"], "traced_work_s": traced["work_s"]}


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.workload_names())
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, one set-up and one round, all checks")
    args = ap.parse_args(argv)
    missing = [p for p in (W.SRC / "sugra" / "__init__.py", W.ROOT / "tests" / "oracles.py",
                           W.ROOT / "BENCHMARK.json") if not p.exists()]
    if missing:
        print(f"error: not a sugra checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    bench = json.loads((W.ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "numpy": importlib.metadata.version("numpy"), "loadavg_before": loadavg()}
    run = Run()
    if args.trace:
        metrics, details = trace(run, args.workload, args.seed, args.smoke)
    else:
        metrics, details = measure(run, args.workload, args.seed, args.seconds, args.smoke)
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    machine["loadavg_after"] = loadavg()
    correct = run.failed == 0 and set(metrics) == set(units)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} smoke={args.smoke}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for msg in run.messages:
        print(f"CHECK FAILED: {msg}")
    rows = [(k, metrics.get(k), u) for k, u in units.items()]
    if not args.trace:
        tail = details.get("verify_tail_s")
        rows += [
            ("points_per_s", details.get("points_per_s"), "1/s"),
            ("verify_tail_s", tail and tail[1],
             f"s (p{tail[0]}, {tail[2]} samples beyond)" if tail else "s (n/a: too few samples)"),
            ("diagnose_s", details.get("diagnose_s"), "s"),
            ("error_rate", run.failed / run.attempted, f"({run.failed} of {run.attempted})"),
        ]
    for name, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<36} {shown:>14}  {unit}")
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"machine": machine, "details": details, "metrics": metrics,
                   "attempted": run.attempted, "failed": run.failed,
                   "messages": run.messages}, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items() if k in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
