"""Acceptance suite: ten criteria, one pass/fail line printed per criterion.

Criteria 4 and 7 are expected to fail on the 'alphabeta-poly' entry: its
1-form nu has constant norm and the right coderivative but is not closed,
so the assembled flux cannot satisfy dF = 0 (no closed constant-norm 1-form
with nonzero constant coderivative exists on a flat block).  The verifier
reports that honestly instead of masking it; see the failure messages.
"""

import json
import time

import numpy as np

from conftest import flat_metric, lift, matrix_fn, random_form, random_points, rng_for, values
from oracles import fd_ricci

from sugra.expr import Chart, add, const, coord, evaluate_points, intpow, mul, parse
from sugra.forms import (
    form_inner,
    hodge,
    interior,
    matrix_values,
    monomial_form,
    volume_form,
    wedge,
)
from sugra.geometry import (
    WALKER_CHART,
    ProductStructure,
    WalkerData,
    laplace_beltrami,
    product_metric,
    ricci,
    ricci_endomorphism_pairing,
    scalar_curvature,
    walker_metric,
)
from sugra.equations import (
    TRACE_IDENTITY_SIGN,
    diagnose_reduced_case,
    flux_norm_sq,
    verify,
)
from sugra.catalog import build, get_entry, solve_walker_H
from sugra.bgfile import parse_background_file
from sugra.cli import main as cli_main

from pathlib import Path

W5 = WALKER_CHART
R6 = Chart(("y1", "y2", "y3", "y4", "y5", "y6"))
C11 = Chart(W5.names + R6.names)
SHIPPED = Path(__file__).resolve().parent.parent / "src" / "sugra" / "backgrounds"

ALL_IDS = ["alpha-ppwave", "beta-nu-ppwave", "gamma-delta-ppwave",
           "varpi-epsilon-ppwave", "general-combined", "alphabeta-trig",
           "alphabeta-poly", "kahler-theta"]
WALKER_IDS = ALL_IDS[:7]


def report(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {desc}")
    for f in failures:
        print(f"    - {f}")


def max_coeff_delta(a, b, pts, scale=1.0):
    zero = const(0.0)
    keys = sorted(set(a.coeffs) | set(b.coeffs))
    va = evaluate_points([a.coeffs.get(k, zero) for k in keys], pts)
    vb = evaluate_points([b.coeffs.get(k, zero) for k in keys], pts)
    return float(np.max(np.abs(va - scale * vb), initial=0.0))


def test_criterion_01_product_hodge_identities():
    """Factor-star identities on the (5, 6) product chart: 200 random factor
    forms, residual < 1e-9, under 10 seconds."""
    start = time.monotonic()
    gl = flat_metric(W5, (1, 4))
    gr = flat_metric(R6, (0, 6))
    h = product_metric(ProductStructure(gl, gr))
    rng = rng_for("acc1")
    pts = random_points(rng, 2, 11)
    vol_l = volume_form(gl)
    vol_r = volume_form(gr)
    failures = []
    worst = 0.0
    # the two volume-form identities, with s~ = 4, s = 6, p*q = 30
    worst = max(worst, max_coeff_delta(
        hodge(lift(vol_l, C11), h), lift(vol_r, C11), pts,
        scale=(-1.0) ** 4))
    worst = max(worst, max_coeff_delta(
        hodge(lift(vol_r, C11), h), lift(vol_l, C11), pts,
        scale=(-1.0) ** 6 * (-1.0) ** 30))
    for trial in range(200):
        kt = int(rng.integers(0, 5))
        k = int(rng.integers(0, 5))
        a5 = random_form(W5, kt, rng, nkeys=2)
        b6 = random_form(R6, k, rng, nkeys=2)
        a5e = lift(a5, C11)
        b6e = lift(b6, C11)
        # star(a5) = star5(a5) ^ vol_R
        worst = max(worst, max_coeff_delta(
            hodge(a5e, h), wedge(lift(hodge(a5, gl), C11),
                                 lift(vol_r, C11)), pts))
        # star(b6) = (-1)^(pq) star6(b6) ^ vol_L
        worst = max(worst, max_coeff_delta(
            hodge(b6e, h), wedge(lift(hodge(b6, gr), C11),
                                 lift(vol_l, C11)), pts,
            scale=(-1.0) ** 30))
        # star(a5 ^ b6) = (-1)^(k(p - kt)) star5(a5) ^ star6(b6)
        if kt + k <= 4:
            big = wedge(a5e, b6e)
            rhs = wedge(lift(hodge(a5, gl), C11),
                        lift(hodge(b6, gr), C11))
            worst = max(worst, max_coeff_delta(hodge(big, h), rhs, pts,
                                               scale=(-1.0) ** (k * (5 - kt))))
            # <a5^b6, a5^b6>_h = <a5,a5> <b6,b6>
            lhs = form_inner(big, big, h, pts)
            r = (form_inner(a5, a5, gl, [p[:5] for p in pts])
                 * form_inner(b6, b6, gr, [p[5:] for p in pts]))
            worst = max(worst, float(np.max(np.abs(lhs - r))))
    elapsed = time.monotonic() - start
    if worst >= 1e-9:
        failures.append(f"max identity residual {worst:.3e} >= 1e-9")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    report(1, f"product Hodge identities (worst {worst:.2e}, {elapsed:.1f}s)", failures)
    assert not failures


def test_criterion_02_defining_identity_and_double_star():
    """a ^ star(b) = <a,b> vol and star(star(a)) = (-1)^(k(n-k)+q) a for
    signatures (1,4), (0,6), (1,10); 100 random forms each; < 1e-9."""
    charts = {(1, 4): W5, (0, 6): R6, (1, 10): C11}
    failures = []
    for sig, chart in charts.items():
        m = flat_metric(chart, sig)
        n = chart.dim
        q = sig[1]
        rng = rng_for(f"acc2{sig}")
        pts = random_points(rng, 2, n)
        vol = volume_form(m)
        top = tuple(range(n))
        worst = 0.0
        for _ in range(100):
            k = int(rng.integers(0, 5))
            a = random_form(chart, k, rng, nkeys=2)
            b = random_form(chart, k, rng, nkeys=2)
            lhs = wedge(a, hodge(b, m))
            lv = values(lhs.coeffs.get(top, const(0.0)), pts)
            rv = form_inner(a, b, m, pts) * values(vol.coeffs[top], pts)
            worst = max(worst, float(np.max(np.abs(lv - rv))))
            ss = hodge(hodge(a, m), m)
            sign = (-1.0) ** (k * (n - k) + q)
            worst = max(worst, max_coeff_delta(ss, a, pts, scale=sign))
        if worst >= 1e-9:
            failures.append(f"signature {sig}: worst residual {worst:.3e} >= 1e-9")
    report(2, "defining identity and double-star law", failures)
    assert not failures


def test_criterion_03_walker_ricci():
    """20 random polynomial profiles: Ricci concentrated in (u,u) equal to
    -(1/2) Lap_rho(H) within 1e-8, finite-difference oracle within 1e-5."""
    rng = rng_for("acc3")
    failures = []
    for trial in range(20):
        terms = []
        for _ in range(int(rng.integers(1, 5))):
            exps = [int(e) for e in rng.integers(0, 3, size=3)]
            while sum(exps) > 4 or sum(exps) == 0:
                exps = [int(e) for e in rng.integers(0, 3, size=3)]
            coeff = mul(float(rng.uniform(-1.5, 1.5)),
                        intpow(coord(0), int(rng.integers(0, 3))))
            terms.append(mul(coeff, intpow(coord(1), exps[0]),
                             intpow(coord(2), exps[1]), intpow(coord(3), exps[2])))
        prof = add(*terms)
        m = walker_metric(WalkerData.pp_wave(prof))
        ric = ricci(m)
        lap = laplace_beltrami(m, prof, (1, 2, 3))
        pts = random_points(rng, 4, 5)
        syms = matrix_values(ric, pts)
        for sym, want in zip(syms, -0.5 * values(lap, pts)):
            got = sym[0, 0]
            if abs(got - want) >= 1e-8:
                failures.append(f"trial {trial}: (u,u) off by {abs(got - want):.2e}")
            off = max(abs(sym[i, j]) for i in range(5) for j in range(5) if (i, j) != (0, 0))
            if off >= 1e-8:
                failures.append(f"trial {trial}: off-profile component {off:.2e}")
        sym = syms[0]
        orc = fd_ricci(matrix_fn(m), pts[0])
        if np.max(np.abs(sym - orc)) >= 1e-5:
            failures.append(f"trial {trial}: oracle mismatch {np.max(np.abs(sym - orc)):.2e}")
    report(3, "Walker Ricci profile law and finite-difference oracle", failures)
    assert not failures


def test_criterion_04_catalog_residuals():
    """Every catalog background: closedness, Maxwell (typed), Einstein
    (HH/VV/VH), trace at 1e-8 over 100 seeded points; total under 60 s.

    Known honest failure: 'alphabeta-poly' cannot satisfy dF = 0 because its
    1-form nu is not closed (no closed constant-norm 1-form with nonzero
    constant coderivative exists on the flat block); every other residual
    family of that entry and all residuals of the other seven entries pass.
    """
    start = time.monotonic()
    failures = []
    for ident in ALL_IDS:
        bg = build(ident)
        res = verify(bg, count=100, seed=42, tol=1e-8)
        for row in res.rows:
            if row.max_abs >= 1e-8:
                failures.append(
                    f"{ident} {row.equation}/{row.block}: max residual {row.max_abs:.3e} "
                    f"(worst component {row.worst_component})")
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    report(4, f"catalog residuals at 1e-8, 100 points ({elapsed:.1f}s)", failures)
    assert not failures


def test_criterion_05_perturbation_non_vacuousness():
    """Scaling each entry's profile or constant by 1.1 must push at least
    one residual above 1e-3."""
    failures = []
    for ident in ALL_IDS:
        key = get_entry(ident).perturb_key
        bg = build(ident, perturb={key: 1.1})
        res = verify(bg, count=100, seed=42, tol=1e-8)
        worst = max(r.max_abs for r in res.rows)
        if worst <= 1e-3:
            failures.append(f"{ident} ({key}:1.1): worst residual only {worst:.3e}")
    report(5, "perturbed variants fail loudly", failures)
    assert not failures


def test_criterion_06_kahler_quantitative_claims():
    """K = 1 (c = sqrt(2), L = 2): Einstein constants +-c^2/2 = +-1, the
    Kaehler 2-form has norm 3, the flux contraction identity holds, and the
    scalar curvature has magnitude c^2/2 = 1 with the sign produced by the
    pinned curvature convention (Scal = -(1/6)|F|^2, recorded below)."""
    failures = []
    bg = build("kahler-theta")
    h = bg.metric()
    gl, gr = bg.product.lorentz, bg.product.riemann
    ric = ricci(h)
    pts = bg.sample(50, seed=42)
    worst_vv = worst_hh = 0.0
    for rv, hv in zip(matrix_values(ric, pts[:10]), matrix_values(h.entries, pts[:10])):
        for i in range(5):
            for j in range(i, 5):
                worst_vv = max(worst_vv, abs(rv[i][j] - 1.0 * hv[i][j]))
        for i in range(5, 11):
            for j in range(i, 11):
                worst_hh = max(worst_hh, abs(rv[i][j] - (-1.0) * hv[i][j]))
    if worst_vv >= 1e-8:
        failures.append(f"Lorentzian Einstein constant != +1 by {worst_vv:.2e}")
    if worst_hh >= 1e-8:
        failures.append(f"Riemannian Einstein constant != -1 by {worst_hh:.2e}")

    # |delta|^2 = 3 for the Kaehler 2-form of the triple sphere
    lams = [gr.entries[2 * i][2 * i] for i in range(3)]
    omega = None
    for i, names in enumerate((("y1", "y2"), ("y3", "y4"), ("y5", "y6"))):
        term = monomial_form(R6, mul(-1.0, lams[i]), names)
        omega = term if omega is None else omega + term
    p6s = [p[5:] for p in pts]
    worst_norm = float(np.max(np.abs(form_inner(omega, omega, gr, p6s) - 3.0)))
    if worst_norm >= 1e-8:
        failures.append(f"|Kaehler form|^2 != 3 by {worst_norm:.2e}")

    # contraction identity <e_i . theta, e_j . theta> = (2/3)|theta|^2 g_ij
    theta = bg.flux.theta
    worst_c = 0.0
    n2 = form_inner(theta, theta, gr, p6s)
    gv = matrix_values(gr.entries, p6s)
    for i in range(6):
        ii = interior([1.0 if t == i else 0.0 for t in range(6)], theta)
        for j in range(i, 6):
            jj = interior([1.0 if t == j else 0.0 for t in range(6)], theta)
            lhs = form_inner(ii, jj, gr, p6s)
            worst_c = max(worst_c, float(np.max(np.abs(lhs - (2.0 / 3.0) * n2 * gv[:, i, j]))))
    if worst_c >= 1e-8:
        failures.append(f"flux contraction identity off by {worst_c:.2e}")

    # scalar curvature: magnitude c^2/2 = 1, sign from the pinned convention
    scal = scalar_curvature(h, pts[:10])
    worst_s = float(max(np.max(np.abs(np.abs(scal) - 1.0)),
                        np.max(np.abs(scal - TRACE_IDENTITY_SIGN * 1.0))))
    if worst_s >= 1e-8:
        failures.append(f"scalar curvature != (pinned sign)*c^2/2 by {worst_s:.2e}")
    report(6, f"Kaehler claims (recorded trace sign {TRACE_IDENTITY_SIGN:+.0f}: "
              f"Scal = {TRACE_IDENTITY_SIGN:+.0f} * |F|^2/6)", failures)
    assert not failures


def test_criterion_07_reduced_case_diagnostics():
    """Case assignment per entry, fitted kappa within 1e-6 of the
    construction, all sub-residuals < 1e-8.

    Known honest failure: 'alphabeta-poly' carries the non-closed 1-form nu,
    so its 'd(nu) = 0' sub-residual is ~0.9 (everything else about its
    diagnosis, including the fitted constants, is correct).
    """
    want = {"alpha-ppwave": "1", "beta-nu-ppwave": "2", "gamma-delta-ppwave": "3",
            "varpi-epsilon-ppwave": "4", "alphabeta-trig": "6",
            "alphabeta-poly": "6", "kahler-theta": "5"}
    kappa_expected = {"alphabeta-trig": 1.0, "alphabeta-poly": 0.0}
    failures = []
    for ident, case in want.items():
        bg = build(ident)
        d = diagnose_reduced_case(bg.flux, bg.product, points=bg.sample(50, seed=42))
        if d.case != case:
            failures.append(f"{ident}: diagnosed case {d.case}, want {case}")
            continue
        if ident in kappa_expected and abs(d.kappa - kappa_expected[ident]) >= 1e-6:
            failures.append(f"{ident}: fitted kappa {d.kappa} != {kappa_expected[ident]}")
        for label, mx, _ in d.rows:
            if mx >= 1e-8:
                failures.append(f"{ident}: sub-residual '{label}' = {mx:.3e}")
    report(7, "reduced-case diagnostics", failures)
    assert not failures


def test_criterion_08_null_flux_structure():
    """All plane-wave entries: |F|^2 < 1e-10 pointwise, |Scal| < 1e-8, and
    the Ricci endomorphism pairs to < 1e-9 on 50 random vector pairs."""
    failures = []
    for ident in WALKER_IDS:
        bg = build(ident)
        h = bg.metric()
        pts = bg.sample(20, seed=42)
        worst_n = float(np.max(np.abs(flux_norm_sq(bg, pts))))
        if worst_n >= 1e-10:
            failures.append(f"{ident}: |F|^2 reaches {worst_n:.2e}")
        worst_s = float(np.max(np.abs(scalar_curvature(h, pts[:5]))))
        if worst_s >= 1e-8:
            failures.append(f"{ident}: |Scal| reaches {worst_s:.2e}")
        rng = rng_for(f"acc8-{ident}")
        worst_r = 0.0
        for _ in range(50):  # each pair at both points
            x = rng.uniform(-1, 1, size=11)
            y = rng.uniform(-1, 1, size=11)
            worst_r = max(worst_r, float(np.max(np.abs(ricci_endomorphism_pairing(h, pts[:2], x, y)))))
        if worst_r >= 1e-9:
            failures.append(f"{ident}: Ricci endomorphism pairing reaches {worst_r:.2e}")
    report(8, "null flux structure (null F, zero Scal, null Ricci image)", failures)
    assert not failures


def test_criterion_09_profile_solver_round_trip():
    """20 random polynomial right-hand sides of degree <= 4 solve exactly
    (residual < 1e-10 at 20 points), and rhs = -f(u)^2 reproduces the
    volume-flux profile f^2/6 |x|^2 identically at sample points."""
    rng = rng_for("acc9")
    failures = []
    flat = walker_metric(WalkerData.pp_wave(const(0.0)))
    for trial in range(20):
        terms = []
        for _ in range(int(rng.integers(1, 5))):
            exps = [int(e) for e in rng.integers(0, 5, size=3)]
            while sum(exps) > 4:
                exps = [int(e) for e in rng.integers(0, 5, size=3)]
            coeff = mul(float(rng.uniform(-2, 2)), intpow(coord(0), int(rng.integers(0, 3))))
            terms.append(mul(coeff, intpow(coord(1), exps[0]),
                             intpow(coord(2), exps[1]), intpow(coord(3), exps[2])))
        rhs = add(*terms)
        prof = solve_walker_H(rhs)
        lap = laplace_beltrami(flat, prof, (1, 2, 3))
        at = random_points(rng, 20, 5)
        worst = float(np.max(np.abs(values(lap, at) - values(rhs, at))))
        if worst >= 1e-10:
            failures.append(f"trial {trial}: round-trip residual {worst:.2e}")
    f = coord(0)
    prof = solve_walker_H(mul(-1.0, f, f))
    want = parse("1/6 * u^2 * (x1^2+x2^2+x3^2)", W5)
    at = random_points(rng, 20, 5)
    worst = float(np.max(np.abs(values(prof, at) - values(want, at))))
    if worst >= 1e-12:
        failures.append(f"volume-flux profile differs by {worst:.2e}")
    report(9, "profile solver round trip", failures)
    assert not failures


def test_criterion_10_files_and_determinism(capsys):
    """Shipped .bg files reproduce builder residual tables to 1e-12, and
    repeated CLI runs emit byte-identical JSON reports."""
    failures = []
    for ident in ALL_IDS:
        from_file = parse_background_file(SHIPPED / f"{ident}.bg")
        from_builder = build(ident)
        rf = verify(from_file, count=100, seed=42, tol=1e-8)
        rb = verify(from_builder, count=100, seed=42, tol=1e-8)
        for a, b in zip(rf.rows, rb.rows):
            delta = max(abs(a.max_abs - b.max_abs), abs(a.mean_abs - b.mean_abs))
            if delta > 1e-12:
                failures.append(f"{ident} {a.equation}/{a.block}: file-builder delta {delta:.2e}")
    args = ["verify", "gamma-delta-ppwave", "--points", "40", "--json"]
    assert cli_main(args) == 0
    first = capsys.readouterr().out
    assert cli_main(args) == 0
    second = capsys.readouterr().out
    if first != second:
        failures.append("repeated JSON reports are not byte-identical")
    json.loads(first)
    with capsys.disabled():
        report(10, "file/builder equivalence and report determinism", failures)
    assert not failures
