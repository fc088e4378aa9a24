"""Flux assembly, norms, residual operators, reduced-case diagnostics."""

import gc
import itertools
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (count_plans, flat_metric, form_fn, matrix_fn, random_form, random_points,
                      random_scalar, rng_for)
from dense import cp3_background
from oracles import fd_closedness, fd_einstein, fd_maxwell, flux_contractions, flux_tensor, numeric_star

import sugra.equations
import sugra.expr
import sugra.forms
import sugra.geometry
from sugra.expr import (Chart, EvalDomainError, add, const, coord, diff, evaluate, evaluate_points,
                        mul, parse, sin)
from sugra.forms import (
    KForm,
    Metric,
    check_signature_values,
    coordinate_form,
    ext_d,
    form_inner,
    hodge,
    interior,
    matrix_values,
    metric_values,
    monomial_form,
    perm_sign,
    wedge,
)
from sugra.geometry import (
    WALKER_CHART,
    ProductStructure,
    WalkerData,
    ricci,
    ricci_endomorphism_pairing,
    scalar_curvature,
    validate_ricci_isotropic,
    walker_metric,
)
from sugra.equations import (
    Background,
    FluxSpec,
    ReducedCaseDiagnosis,
    TRACE_IDENTITY_SIGN,
    assemble_flux,
    closedness_residual,
    diagnose_reduced_case,
    einstein_residual,
    flux_norm_sq,
    flux_norm_sq_pieces,
    draw_points,
    maxwell_residual,
    trace_check,
    verify,
    _PIECES,
    _Contractions,
    _Jets,
    _residual_rows,
)
from sugra.bgfile import parse_background_text
from sugra.catalog import build, catalog_ids

W5 = WALKER_CHART
SHIPPED = Path(__file__).resolve().parent.parent / "src" / "sugra" / "backgrounds"
R6 = Chart(("y1", "y2", "y3", "y4", "y5", "y6"))


def flat_product():
    return ProductStructure(flat_metric(W5, (1, 4)), flat_metric(R6, (0, 6)))


def flat_background(flux, box=None):
    return Background(flat_product(), flux, box or [(-1.0, 1.0)] * 11)


class TestAssembleFlux:
    def test_single_alpha_piece_embeds(self):
        fu = parse("u", W5)
        alpha = monomial_form(W5, fu, ("u", "x1", "x2", "x3"))
        fs = FluxSpec(alpha=alpha, phi=const(1.0))
        big = assemble_flux(fs, flat_product())
        assert list(big.coeffs) == [(0, 1, 2, 3)]
        assert evaluate(big.coeffs[(0, 1, 2, 3)], (2.5,) + (0.0,) * 10) == 2.5

    def test_empty_flux_is_zero(self):
        assert assemble_flux(FluxSpec(), flat_product()).is_zero

    def test_linearity_in_each_piece(self):
        rng = rng_for("fluxlin")
        ps = flat_product()
        beta = random_form(W5, 3, rng, polynomial_only=True)
        nu = random_form(R6, 1, rng, polynomial_only=True)
        one = assemble_flux(FluxSpec(beta=beta, nu=nu), ps)
        two = assemble_flux(FluxSpec(beta=beta.scale(const(2.0)), nu=nu), ps)
        keys = list(one.coeffs)
        got = evaluate_points([two.coeffs[k] for k in keys] + [one.coeffs[k] for k in keys], [(0.3,) * 11])[0]
        assert got[:len(keys)] == pytest.approx(2 * got[len(keys):])

    def test_unknown_piece_refused(self):
        with pytest.raises(TypeError, match=r"FluxSpec has no pieces \['bogus'\]"):
            FluxSpec(alpha=monomial_form(W5, 1.0, ("u", "x1", "x2", "x3")), bogus=coordinate_form(W5, "u"))
        with pytest.raises(TypeError):
            FluxSpec(monomial_form(W5, 1.0, ("u", "x1", "x2", "x3")))  # pieces are keyword-only

    def test_wrong_degree_refused(self):
        with pytest.raises(sugra.forms.FormError, match="beta must be a 3-form, got degree 1"):
            FluxSpec(beta=coordinate_form(W5, "u"))

    def test_scale_multiplies_the_forms_and_keeps_the_scalars(self):
        alpha = monomial_form(W5, 1.0, ("u", "x1", "x2", "x3"))
        phi = parse("y1", R6)
        fs = FluxSpec(alpha=alpha, phi=phi).scale(3.0)
        assert fs.phi is phi
        assert all(getattr(fs, name) is None for name in _PIECES if name not in ("alpha", "phi"))
        assert evaluate(fs.alpha.coeffs[(0, 1, 2, 3)], (0.0,) * 5) == 3.0

    def test_kahler_theta_is_half_omega_wedge_omega(self):
        """theta = c*star(omega) must expand to c * (1/2) omega^omega."""
        bg = build("kahler-theta")
        gr = bg.product.riemann
        c = np.sqrt(2.0)
        lams = [gr.entries[2 * i][2 * i] for i in range(3)]
        omega = KForm(R6, 2, {(0, 1): mul(-1.0, lams[0]),
                              (2, 3): mul(-1.0, lams[1]),
                              (4, 5): mul(-1.0, lams[2])})
        direct = wedge(omega, omega).scale(const(0.5 * c))
        theta = bg.flux.theta
        keys = sorted(set(direct.coeffs) | set(theta.coeffs))
        values = evaluate_points([f.coeffs.get(k, const(0.0)) for f in (direct, theta) for k in keys],
                                 random_points(rng_for("halfww"), 4, 6, lo=-0.6, hi=0.6))
        assert values[:, :len(keys)] == pytest.approx(values[:, len(keys):], rel=1e-12, abs=1e-12)


class TestFluxNorm:
    def test_null_walker_flux(self):
        for ident in ("alpha-ppwave", "beta-nu-ppwave", "general-combined"):
            bg = build(ident)
            assert np.all(np.abs(flux_norm_sq(bg, bg.sample(5, seed=3))) < 1e-12)

    def test_kahler_norm(self):
        bg = build("kahler-theta")
        assert flux_norm_sq(bg, bg.sample(5, seed=3)) == pytest.approx([6.0] * 5, abs=1e-10)  # 3c^2, c^2=2

    def test_zero_flux(self):
        bg = flat_background(FluxSpec())
        assert flux_norm_sq(bg, [(0.2,) * 11]).tolist() == [0.0]

    def test_pieces_route_matches_assembled_route(self):
        rng = rng_for("normsplit")
        ps = flat_product()
        for _ in range(6):
            fs = FluxSpec(
                alpha=random_form(W5, 4, rng, nkeys=2),
                phi=sin(coord(0)),
                beta=random_form(W5, 3, rng, nkeys=2),
                nu=random_form(R6, 1, rng, nkeys=2),
                gamma=random_form(W5, 2, rng, nkeys=2),
                delta=random_form(R6, 2, rng, nkeys=2),
                varpi=random_form(W5, 1, rng, nkeys=2),
                eps=random_form(R6, 3, rng, nkeys=2),
                psi=coord(0),
                theta=random_form(R6, 4, rng, nkeys=2),
            )
            bg = Background(ps, fs, [(-1.0, 1.0)] * 11)
            pts = random_points(rng, 3, 11)
            assert flux_norm_sq(bg, pts) == pytest.approx(flux_norm_sq_pieces(fs, ps, pts), rel=1e-8, abs=1e-8)

    def test_pieces_route_matches_on_catalog(self):
        for ident in catalog_ids():
            bg = build(ident)
            pts = bg.sample(4, seed=11)
            a = flux_norm_sq(bg, pts)
            assert a == pytest.approx(flux_norm_sq_pieces(bg.flux, bg.product, pts), rel=1e-8, abs=1e-8)

    def test_pieces_route_solves_each_factor_metric_once(self, monkeypatch):
        """general-combined has four flux terms on two factor metrics: each
        metric is solved once, and the norm equals the sum of the separate
        ``form_inner`` products bit for bit."""
        bg = build("general-combined")
        ps, pts = bg.product, bg.sample(50, seed=11)
        want = sum((form_inner(lo, lo, ps.lorentz, [p[:5] for p in pts])
                    * form_inner(hi, hi, ps.riemann, [p[5:] for p in pts])
                    for _, lo, hi in bg.flux.terms(ps)), np.zeros(len(pts)))
        solved, solve = [], sugra.forms.metric_values

        def counted(m, points):
            solved.append(m)
            return solve(m, points)

        for module in (sugra.forms, sugra.equations):
            monkeypatch.setattr(module, "metric_values", counted)
        got = flux_norm_sq_pieces(bg.flux, ps, pts)
        assert len(bg.flux.terms(ps)) == 4
        assert len(solved) == 2 and solved[0] is ps.lorentz and solved[1] is ps.riemann
        assert np.array_equal(got, want)


class TestNullContraction:
    def test_du_wedge_contraction_identity(self):
        """<X . (du^w), Y . (du^w)> = (X.du)(Y.du) <w, w> on a Walker chart
        for any transverse form w."""
        m = walker_metric(WalkerData.pp_wave(parse("u*x1^2 + x2^2", W5)))
        du = coordinate_form(W5, "u")
        rng = rng_for("du2")
        for deg in (1, 2, 3):
            body_keys = [k for k in __import__("itertools").combinations((1, 2, 3), deg)]
            coeffs = {k: add(mul(float(rng.uniform(-1, 1)), coord(0)), float(rng.uniform(-1, 1)))
                      for k in body_keys}
            w = KForm(W5, deg, coeffs)
            duw = wedge(du, w)
            pts = random_points(rng, 5, 5)
            ww = form_inner(w, w, m, pts)
            for _ in range(20):  # each pair at every point
                xv = [float(t) for t in rng.uniform(-1, 1, size=5)]
                yv = [float(t) for t in rng.uniform(-1, 1, size=5)]
                lhs = form_inner(interior(xv, duw), interior(yv, duw), m, pts)
                assert lhs == pytest.approx(xv[0] * yv[0] * ww, rel=1e-9, abs=1e-9)


class TestResidualOperators:
    def test_closedness_flags_v_dependence(self):
        # flux = u * dv^dx1^dx2^dx3 has d(flux) with a unit coefficient
        body = monomial_form(W5, coord(0), ("v", "x1", "x2", "x3"))
        fs = FluxSpec(alpha=body)
        bg = flat_background(fs)
        rows = closedness_residual(bg, bg.sample(10, seed=2))
        assert rows[0].max_abs == pytest.approx(1.0)

    def test_closedness_zero_for_closed_flux(self):
        bg = build("alpha-ppwave")
        rows = closedness_residual(bg, bg.sample(10, seed=2))
        assert rows[0].max_abs < 1e-14

    def test_maxwell_typed_rows_present(self):
        bg = build("kahler-theta")
        rows = maxwell_residual(bg, bg.sample(5, seed=2))
        blocks = [r.block for r in rows]
        assert blocks == ["all", "(2,6)", "(3,5)", "(4,4)", "(5,3)"]
        assert all(r.max_abs < 1e-10 for r in rows)

    def test_einstein_blocks(self):
        bg = build("alpha-ppwave")
        rows = einstein_residual(bg, bg.sample(10, seed=2))
        assert [r.block for r in rows] == ["HH", "VV", "VH"]
        assert all(r.max_abs < 1e-12 for r in rows)

    def test_einstein_detects_wrong_profile(self):
        bg = build("alpha-ppwave", perturb={"H": 1.1})
        rows = einstein_residual(bg, bg.sample(100, seed=42))
        vv = next(r for r in rows if r.block == "VV")
        assert vv.max_abs >= 0.01
        assert vv.worst_component == "(u,u)"
        others = [r.max_abs for r in rows if r.block != "VV"]
        assert max(others) < 1e-12

    def test_trace_rows(self):
        for ident in ("beta-nu-ppwave", "kahler-theta"):
            bg = build(ident)
            rows = trace_check(bg, bg.sample(10, seed=2))
            assert rows[0].max_abs < 1e-10

    def test_trace_contraction_identity(self):
        """sum_AB h^AB <e_A . F, e_B . F> = 4 |F|^2 pins the trace sign."""
        rng = rng_for("trid")
        ps = flat_product()
        fs = FluxSpec(theta=random_form(R6, 4, rng, nkeys=3),
                      beta=random_form(W5, 3, rng, nkeys=2),
                      nu=random_form(R6, 1, rng, nkeys=2))
        bg = Background(ps, fs, [(-1.0, 1.0)] * 11)
        h = bg.metric()
        phi = bg.flux_form()
        pts = random_points(rng, 4, 11)
        hinv = metric_values(h, pts)[1]
        total = np.zeros(len(pts))
        iotas = []
        for i in range(11):
            e = [1.0 if k == i else 0.0 for k in range(11)]
            iotas.append(interior(e, phi))
        for i in range(11):
            for j in range(11):
                if np.any(hinv[:, i, j] != 0.0):
                    total += hinv[:, i, j] * form_inner(iotas[i], iotas[j], h, pts)
        n2 = flux_norm_sq(bg, pts)
        assert total == pytest.approx(4.0 * n2, rel=1e-8, abs=1e-8)
        assert TRACE_IDENTITY_SIGN == -1.0

    def test_verify_aggregates(self):
        bg = build("beta-nu-ppwave")
        res = verify(bg, count=20, seed=42, tol=1e-8)
        assert res.verdict
        assert len(res.rows) == 10

    def test_mixed_block_vanishes_and_cross_pairing(self):
        """The mixed Einstein block vanishes for the null catalog entries;
        for the coupled trig entry the cross pairing <beta, X . alpha> also
        vanishes for every coordinate direction."""
        bg = build("alphabeta-trig")
        rows = einstein_residual(bg, bg.sample(10, seed=3))
        vh = next(r for r in rows if r.block == "VH")
        assert vh.max_abs < 1e-12
        gl = bg.product.lorentz
        alpha, beta = bg.flux.alpha, bg.flux.beta
        p5s = random_points(rng_for("crosspair"), 5, 5)
        for i in range(5):
            e = [1.0 if k == i else 0.0 for k in range(5)]
            assert np.all(np.abs(form_inner(beta, interior(e, alpha), gl, p5s)) < 1e-12)


class TestBatchedHelpers:
    @pytest.mark.parametrize("helper", ["form_inner", "flux_norm_sq", "flux_norm_sq_pieces",
                                        "scalar_curvature", "ricci_endomorphism_pairing",
                                        "validate_ricci_isotropic"])
    def test_plans_do_not_grow_with_the_points(self, monkeypatch, helper):
        """Each numeric helper evaluates each of its expression lists once
        for all the points: as many plans at 50 points as at 5."""
        bg = build("general-combined")
        h, phi, ps = bg.metric(), bg.flux_form(), bg.product
        x = y = np.linspace(-1.0, 1.0, 11)
        call = {
            "form_inner": lambda pts: form_inner(phi, phi, h, pts),
            "flux_norm_sq": lambda pts: flux_norm_sq(bg, pts),
            "flux_norm_sq_pieces": lambda pts: flux_norm_sq_pieces(bg.flux, ps, pts),
            "scalar_curvature": lambda pts: scalar_curvature(h, pts),
            "ricci_endomorphism_pairing": lambda pts: ricci_endomorphism_pairing(h, pts, x, y),
            "validate_ricci_isotropic": lambda pts: validate_ricci_isotropic(
                WalkerData.pp_wave(ps.lorentz.entries[0][0]), [p[:5] for p in pts]),
        }[helper]
        call(bg.sample(2, seed=1))  # builds the symbolic tensors the helper caches
        built = count_plans(monkeypatch)
        counts = []
        for count in (5, 50):
            before = built[0]
            out = call(bg.sample(count, seed=1))
            assert out is None or out.shape == (count,)
            counts.append(built[0] - before)
        assert counts[0] == counts[1] >= 1, counts


class TestEngineCrossPath:
    def test_einstein_engine_matches_public_api(self):
        """The compiled residual engine must agree with an independent
        computation through the public interior/form_inner/ricci API."""
        from sugra.geometry import ricci
        bg = build("general-combined", params={"f1": 1.0, "f2": 0.5, "f3": 2.0, "f4": 0.0})
        h = bg.metric()
        phi = bg.flux_form()
        ric = ricci(h)
        pts = bg.sample(3, seed=21)
        rows = einstein_residual(bg, pts)
        # engine residuals are ~0 for this solution; recompute them manually
        hv = matrix_values(h.entries, pts)
        rv = matrix_values(ric, pts)
        n2 = form_inner(phi, phi, h, pts)
        for (i, j) in [(0, 0), (0, 4), (1, 1), (5, 5), (0, 5), (4, 10)]:
            ei = [1.0 if t == i else 0.0 for t in range(11)]
            ej = [1.0 if t == j else 0.0 for t in range(11)]
            c = form_inner(interior(ei, phi), interior(ej, phi), h, pts)
            manual = rv[:, i, j] + 0.5 * c - hv[:, i, j] * n2 / 6.0
            assert np.all(np.abs(manual) < 1e-10)
        assert all(r.max_abs < 1e-10 for r in rows)

    def test_trace_engine_matches_public_api(self):
        from sugra.geometry import scalar_curvature
        bg = build("kahler-theta")
        p = bg.sample(1, seed=33)[0]
        manual = abs(scalar_curvature(bg.metric(), [p])[0]
                     - TRACE_IDENTITY_SIGN * flux_norm_sq(bg, [p])[0] / 6.0)
        row = trace_check(bg, [p])[0]
        assert row.max_abs == pytest.approx(manual, rel=1e-9, abs=1e-12)


def tri6_background() -> Background:
    """kahler-theta's AdS5 block times a tri-diagonal Riemannian block
    ``g(yi,yi) = -(2 + 0.1 yi^2)``, ``g(yi,y(i+1)) = 0.1 yi y(i+1)`` for
    i = 1..3, with flux ``(1 + y1^2) dy1^dy2^dy3^dy4``: a non-diagonal
    background whose Maxwell and Einstein residuals are far from zero."""
    ads = build("kahler-theta")
    rows = [["0"] * 6 for _ in range(6)]
    for i in range(6):
        rows[i][i] = f"-(2 + 0.1 * y{i + 1}^2)"
    for i in range(3):
        rows[i][i + 1] = f"0.1 * y{i + 1} * y{i + 2}"
    riemann = Metric(R6, [[parse(e, R6) for e in row] for row in rows], (0, 6))
    theta = monomial_form(R6, parse("1 + y1^2", R6), ("y1", "y2", "y3", "y4"))
    return Background(ProductStructure(ads.product.lorentz, riemann),
                      FluxSpec(theta=theta, psi=const(1.0)), ads.box)


def zero_flux_background() -> Background:
    """gamma-delta-ppwave's curved product with no flux, so the jet core
    has no flux coordinates at all (m = 0)."""
    bg = build("gamma-delta-ppwave")
    return Background(bg.product, FluxSpec(), bg.box)


def beta_nu_theta_background() -> Background:
    """kahler-theta with ``dt^dx1^dx2 ^ dy1`` added to its flux: F^F/2 is
    nonzero, which it is on no catalog id."""
    bg = build("kahler-theta")
    lorentz, riemann = bg.product.lorentz.chart, bg.product.riemann.chart
    fs = FluxSpec(beta=monomial_form(lorentz, 1.0, ("t", "x1", "x2")),
                  nu=coordinate_form(riemann, "y1"), psi=bg.flux.psi, theta=bg.flux.theta)
    return Background(bg.product, fs, bg.box)


def background(which: str) -> Background:
    return {"tri6": tri6_background, "zero-flux": zero_flux_background,
            "beta-nu-theta": beta_nu_theta_background}.get(which, lambda: build(which))()


def whole_plan_rows(jets, points, size, equations) -> list[tuple]:
    """Rows as ``(equation, block, max, mean, worst point, worst component)``
    from the residuals of all batches at once: concatenate, ``abs``,
    ``argmax``, ``mean``."""
    values = jets.values(points)[0]
    batches = [jets.residuals(points[i:i + size], values[i:i + size])
               for i in range(0, len(points), size)]
    rows = []
    for equation, block, columns, names in jets.rows:
        if equation not in equations:
            continue
        a = np.abs(np.concatenate([b[equation][:, columns] for b in batches]))
        if not a.size:
            rows.append((equation, block, 0.0, 0.0, (), "(none)"))
            continue
        point, comp = divmod(int(np.argmax(a)), a.shape[1])
        rows.append((equation, block, float(a[point, comp]), float(a.mean()), points[point], names[comp]))
    return rows


def core_components(bg, points) -> list[dict[str, dict[str, float]]]:
    """Per point, each family's residual components from the jet core, by name."""
    jets = _Jets(bg)
    res = jets.residuals(points, jets.values(points)[0])
    out = [{} for _ in points]
    for equation, _block, columns, names in jets.rows:
        for k, values in enumerate(res[equation]):
            out[k].setdefault(equation, {}).update(
                (name, float(values[c])) for c, name in zip(columns, names))
    return out


def key_name(chart, key) -> str:
    return "^".join(chart.names[i] for i in key)


class TestJetCore:
    """The batched jet core against the symbolic layer and against
    finite-difference oracles that see only metric and flux values."""

    @pytest.mark.parametrize("ident", catalog_ids() + ["zero-flux", "beta-nu-theta"])
    def test_matches_symbolic_layer(self, ident):
        bg = background(ident)
        h, phi, chart = bg.metric(), bg.flux_form(), bg.chart
        ric = ricci(h)
        closed = ext_d(phi)
        maxwell = ext_d(hodge(phi, h)) - wedge(phi, phi).scale(0.5)
        assert wedge(phi, phi).is_zero == (ident != "beta-nu-theta")
        iotas = [interior([1.0 if t == i else 0.0 for t in range(11)], phi) for i in range(11)]
        pts = bg.sample(2, seed=5)
        n2 = form_inner(phi, phi, h, pts)
        hv, rv = matrix_values(h.entries, pts), matrix_values(ric, pts)
        einstein = {(i, j): rv[:, i, j] + 0.5 * form_inner(iotas[i], iotas[j], h, pts) - hv[:, i, j] * n2 / 6.0
                    for i in range(11) for j in range(i, 11)}
        closedv = evaluate_points(list(closed.coeffs.values()), pts)
        maxwellv = evaluate_points(list(maxwell.coeffs.values()), pts)
        traces = scalar_curvature(h, pts) - TRACE_IDENTITY_SIGN * n2 / 6.0
        for k, core in enumerate(core_components(bg, pts)):
            want = {f"({chart.names[i]},{chart.names[j]})": v[k] for (i, j), v in einstein.items()}
            self._agree(core["einstein"], want, ident)
            want = {key_name(chart, key): v for key, v in zip(closed.coeffs, closedv[k])}
            self._agree(core["closedness"], want, ident)
            want = {key_name(chart, key): v for key, v in zip(maxwell.coeffs, maxwellv[k])}
            self._agree(core["maxwell"], want, ident)
            assert core["trace"]["scal - s*|F|^2/6"] == pytest.approx(traces[k], rel=1e-10, abs=1e-10)

    @staticmethod
    def _agree(core: dict, want: dict, label: str, rtol: float = 1e-10):
        """Components missing on either side must vanish on the other."""
        for name in set(core) | set(want):
            a, b = core.get(name, 0.0), want.get(name, 0.0)
            assert abs(a - b) <= rtol * max(1.0, abs(b)), (label, name, a, b)

    @staticmethod
    def _dense_core(arrays: dict, signature):
        """A plan in which every index of every table given is its own entry
        (fully dense patterns, one connected metric block), and the values of
        those entries, one row per point."""
        jets = {k: {} for k in ("h", "dh", "ddh", "F", "dF")}
        cols = []
        for name, a in arrays.items():
            for index in np.ndindex(a.shape[1:]):
                jets[name][index] = (len(cols), 1.0)
                cols.append(a[(slice(None),) + index])
        n = arrays["h"].shape[1]
        core = _Contractions(jets, len(cols), n, signature, [tuple(range(n))])
        return core, np.array(cols).T

    def test_ricci_algebra_on_dense_metric(self):
        """The planned Ricci contraction against symbolic ricci() on a dense
        3-metric, where no term vanishes by block structure."""
        chart = Chart(("a", "b", "c"))
        rng = rng_for("denseric")
        rows = [[const(0.0)] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                base = (3.0 if i == 0 else -3.0) if i == j else 0.0
                rows[i][j] = add(base, mul(0.2, random_scalar(chart, rng, polynomial_only=True)))
        m = Metric(chart, rows, (1, 2))
        pts = random_points(rng, 3, 3)
        m.check_signature(pts)
        r = range(3)
        h = matrix_values(m.entries, pts)
        dh = evaluate_points([diff(m.entries[i][j], k) for k in r for i in r for j in r],
                             pts).reshape(-1, 3, 3, 3)
        ddh = evaluate_points([diff(diff(m.entries[i][j], k), l) for k in r for l in r for i in r for j in r],
                              pts).reshape(-1, 3, 3, 3, 3)
        core, values = self._dense_core({"h": h, "dh": dh, "ddh": ddh}, (1, 2))
        ein = core.residuals(pts, values)["einstein"]  # no flux: the Ricci tensor
        ric = np.zeros((3, 3, 3))
        for c, (i, j) in enumerate((i, j) for i in r for j in r if i <= j):
            ric[:, i, j] = ric[:, j, i] = ein[:, c]
        want = matrix_values(ricci(m), pts)
        assert np.max(np.abs(ric - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("size", [2, 1])
    def test_overflow_names_the_first_failing_point(self, size):
        """A contraction that overflows names the first point where any
        family is not finite, whatever the batch: here the Einstein residual
        at point 0 (|F|^2 of a flux of size 1e160), before the closedness
        residual at point 1 (five terms of 1e308)."""
        m = 5
        g = np.diag([2.0] + [-2.0] * (m - 1)) + 0.1 * (np.ones((m, m)) - np.eye(m))
        f = np.ones((2,) + (m,) * 4)
        f[0] *= 1e160
        df = np.zeros((2,) + (m,) * 5)
        for l in range(m):
            rest = tuple(i for i in range(m) if i != l)
            df[1][(l,) + rest] = perm_sign((l,) + rest) * 1e308
        core, values = self._dense_core({"h": np.array([g, g]), "F": f, "dF": df}, (1, m - 1))
        with pytest.raises(sugra.forms.FormError) as err:
            core.residuals([(0.0,), (1.0,)][:size], values[:size])
        assert str(err.value) == "non-finite einstein residual at (0.0,)"

    @pytest.mark.parametrize("size", [2, 1])
    def test_overflow_before_a_signature_failure_comes_first(self, size):
        """An overflow at point 0 (|F|^2 of a flux of size 1e160) is raised
        before the signature failure at point 1 (a metric with five negative
        eigenvalues, four declared), whatever the batch."""
        m = 5
        g = np.diag([2.0] + [-2.0] * (m - 1)) + 0.1 * (np.ones((m, m)) - np.eye(m))
        f = np.ones((2,) + (m,) * 4)
        f[0] *= 1e160
        core, values = self._dense_core({"h": np.array([g, -np.eye(m)]), "F": f}, (1, m - 1))
        points = [(0.0,), (1.0,)]
        with pytest.raises(sugra.forms.FormError) as err:
            for lo in range(0, len(points), size):
                core.residuals(points[lo:lo + size], values[lo:lo + size])
        assert str(err.value) == "non-finite einstein residual at (0.0,)"

    def test_flux_algebra_on_dense_data(self):
        """The planned flux contractions against one-point numpy contractions
        on a dense Lorentzian metric and a dense random 4-form, where no
        term vanishes by block structure.  With a constant metric the
        Einstein residual is ``<i_i F, i_j F>/2 - h_ij |F|^2/6`` and the trace
        residual ``-s |F|^2/6``."""
        m, z = 7, 3
        rng = rng_for("denseflux")
        h = []
        for _ in range(z):
            a = rng.uniform(-0.3, 0.3, size=(m, m))
            g = np.diag([2.0] + [-2.0] * (m - 1)) + a + a.T
            assert np.all(g != 0.0) and np.sum(np.linalg.eigvalsh(g) < 0.0) == m - 1
            h.append(g)
        h = np.array(h)
        keys = list(itertools.combinations(range(m), 4))
        f = np.array([flux_tensor({k: float(rng.uniform(-1.0, 1.0)) for k in keys}, m)
                      for _ in range(z)])
        core, values = self._dense_core({"h": h, "F": f}, (1, m - 1))
        res = core.residuals([(float(k),) for k in range(z)], values)
        norm = -6.0 * res["trace"][:, 0] / TRACE_IDENTITY_SIGN
        upper = [(i, j) for i in range(m) for j in range(i, m)]
        for k in range(z):
            want_inner, want_norm = flux_contractions(h[k], f[k])
            inner = np.array([2.0 * (e + h[k][ij] * norm[k] / 6.0)
                              for e, ij in zip(res["einstein"][k], upper)])
            scale = max(1.0, float(np.max(np.abs(want_inner))))
            assert np.max(np.abs(inner - np.array([want_inner[ij] for ij in upper]))) < 1e-12 * scale
            assert abs(norm[k] - want_norm) < 1e-12 * max(1.0, abs(want_norm))

    # Central differences with step H lose about eps/H (first derivatives,
    # relative to the size of *F) and eps/H^2 (the nested second derivatives
    # of the Ricci oracle, relative to the size of the metric) to rounding;
    # Richardson extrapolation leaves an O(H^4) truncation error.
    H = 1e-4
    MAXWELL_RTOL = 100 * np.finfo(float).eps / H
    EINSTEIN_RTOL = 100 * np.finfo(float).eps / H ** 2

    @pytest.mark.parametrize("which", ["tri6", "kahler-theta", "beta-nu-theta", "alphabeta-poly"])
    def test_matches_fd_oracles(self, which):
        """Closedness on every case; Maxwell on all but alphabeta-poly, which
        is here for its closedness row far from zero; Einstein on tri6 and
        kahler-theta."""
        families = {"beta-nu-theta": ("maxwell",), "alphabeta-poly": ()}.get(which, ("maxwell", "einstein"))
        bg = background(which)
        h, phi, chart = bg.metric(), bg.flux_form(), bg.chart

        phifn, hfn = form_fn(phi), matrix_fn(h)

        def fluxfn(p):
            return flux_tensor(phifn(p), 11)

        pts = bg.sample(2, seed=9)
        for k, (p, core) in enumerate(zip(pts, core_components(bg, pts))):
            g = hfn(p)
            want = {key_name(chart, x): v for x, v in fd_closedness(fluxfn, p, self.H).items()}
            scale = max(1.0, float(np.max(np.abs(fluxfn(p)))))
            self._agree(core["closedness"], want, which, self.MAXWELL_RTOL * scale)
            if "maxwell" in families:
                want = {key_name(chart, a): v
                        for a, v in fd_maxwell(hfn, fluxfn, p, self.H).items()}
                scale = max(1.0, max(abs(v) for v in numeric_star(g, fluxfn(p)).values()))
                self._agree(core["maxwell"], want, which, self.MAXWELL_RTOL * scale)
            if k or "einstein" not in families:
                continue  # the 11-dimensional FD Ricci costs about a second per point
            ein = fd_einstein(hfn, fluxfn, p, self.H)
            want = {f"({chart.names[i]},{chart.names[j]})": ein[i, j]
                    for i in range(11) for j in range(i, 11)}
            scale = max(1.0, float(np.max(np.abs(g))))
            self._agree(core["einstein"], want, which, self.EINSTEIN_RTOL * scale)
        if which == "tri6":
            # non-vacuous: residuals well above the tolerances
            assert max(abs(v) for v in core["einstein"].values()) > 1.0
            assert max(abs(v) for v in core["maxwell"].values()) > 1e-3
        if which == "alphabeta-poly":
            assert max(abs(v) for v in core["closedness"].values()) > 0.1

    @pytest.mark.parametrize("which", ["tri6", "kahler-theta", "gamma-delta-ppwave", "zero-flux"])
    def test_batch_invariance(self, which):
        """One batch of a whole plan gives the residual arrays of the same
        plan computed a point at a time."""
        bg = background(which)
        jets = _Jets(bg)
        pts = bg.sample(40, seed=3)
        values = jets.values(pts)[0]
        whole = jets.residuals(pts, values)
        single = [jets.residuals(pts[k:k + 1], values[k:k + 1]) for k in range(len(pts))]
        for name, a in whole.items():
            b = np.concatenate([r[name] for r in single])
            assert a.shape == b.shape
            assert np.all(np.abs(a - b) <= 1e-13 * np.maximum(1.0, np.abs(b))), which

    @pytest.mark.parametrize("which", ["kahler-theta", "tri6", "gamma-delta-ppwave", "zero-flux"])
    def test_streamed_rows_equal_whole_plan_reduction(self, which, monkeypatch):
        """Rows reduced batch by batch equal one reduction of all batches'
        residuals, including ties across batches: the second half of the
        plan repeats the first's jet values exactly at other points."""
        bg = background(which)
        core = _Jets(bg).core
        monkeypatch.setattr(sugra.equations, "_BATCH_BYTES", 4 * 8 * (core.ncols + 2 * core.terms))
        jets = _Jets(bg)
        size = jets.core.batch
        assert size == 4
        first = bg.sample(3 * size, seed=5)
        values = jets.values(first)[0]
        for c in range(11):  # a coordinate no jet entry depends on
            second = [p[:c] + (q[c],) + p[c + 1:] for p, q in zip(first, first[::-1])]
            if np.array_equal(jets.values(second)[0], values):
                break
        else:
            pytest.fail(f"{which} has no coordinate that its jets ignore")
        plan = first + second
        families = ("closedness", "maxwell", "einstein", "trace")
        got = _residual_rows(bg, plan, families)
        want = whole_plan_rows(jets, plan, size, families)
        assert [(r.equation, r.block) for r in got] == [w[:2] for w in want]
        for r, (_, _, top, mean, point, name) in zip(got, want):
            assert (r.max_abs, r.worst_point, r.worst_component) == (top, point, name)
            assert abs(r.mean_abs - mean) <= 1e-15 * mean
        ties = [r for r in got if r.max_abs > 0.0]
        assert ties and all(r.worst_point in first for r in ties)
        if which == "zero-flux":
            names = {r.worst_component for r in got}
            assert {"(identically zero)", "(none)"} <= names

    @pytest.mark.parametrize("entry, replacement, coord, good, bad", [
        # a 1x1 block turns positive (wrong count), later also degenerate
        ("g(y1,y1) = ", "g(y1,y1) = y1", 5, -0.5, (0.5, 0.0)),
        # the (u,v) block degenerates: det = -v^2
        ("g(u,v) = ", "g(u,v) = v", 4, 0.5, (0.0, 0.0)),
    ])
    def test_signature_checked_per_block_in_plan_order(self, entry, replacement, coord, good, bad):
        """The per-block signature check names the first failing point of
        the plan, in a later batch, with the message of the dense check."""
        lines = (SHIPPED / "alpha-ppwave.bg").read_text().splitlines()
        bg = parse_background_text("\n".join(replacement if ln.startswith(entry) else ln
                                              for ln in lines) + "\n")
        size = _Jets(bg).core.batch
        pts = [list(p) for p in bg.sample(size + 20, 7)]
        for p in pts:
            p[coord] = good
        pts[size + 3][coord], pts[size + 11][coord] = bad
        pts = [tuple(p) for p in pts]
        with pytest.raises(sugra.forms.FormError) as want:
            bg.metric().check_signature(pts)
        assert f"{pts[size + 3]}" in str(want.value)
        with pytest.raises(sugra.forms.FormError) as got:
            _residual_rows(bg, pts, ("einstein",))
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)

    def test_verify_needs_no_symbolic_curvature(self, monkeypatch):
        bgs = [build("kahler-theta"), tri6_background()]

        def unavailable(*args, **kwargs):
            raise AssertionError("verify must not build symbolic curvature or Hodge stars")

        for module, name in ((sugra.geometry, "ricci"), (sugra.geometry, "christoffel"),
                             (sugra.forms, "hodge"), (sugra.equations, "hodge")):
            monkeypatch.setattr(module, name, unavailable)
        for bg in bgs:
            assert len(verify(bg, count=20, seed=42).rows) == 10

    def test_verify_differentiates_the_flux_once(self, monkeypatch):
        """The plan holds only the metric and flux jets: closedness and F^F/2
        are contractions of them, so verify calls no ext_d and wedges no
        forms past degree 4 (flux assembly wedges pieces up to 4)."""
        bgs = [build("alphabeta-poly"), beta_nu_theta_background()]
        wedge = sugra.forms.wedge

        def no_ext_d(*args, **kwargs):
            raise AssertionError("verify must not call ext_d")

        def checked_wedge(a, b):
            assert a.degree + b.degree <= 4, "verify must not wedge the flux with itself"
            return wedge(a, b)

        for module in (sugra.forms, sugra.equations):
            monkeypatch.setattr(module, "ext_d", no_ext_d)
            monkeypatch.setattr(module, "wedge", checked_wedge)
        for bg in bgs:
            assert set(_Jets(bg).jets) == {"h", "dh", "ddh", "F", "dF"}
            assert len(verify(bg, count=20, seed=42).rows) == 10


class TestStreamedPlans:
    """``verify`` draws and evaluates one walk chunk at a time, and contracts
    and reduces it one batch at a time."""

    def test_memory_does_not_grow_with_the_plan(self):
        bg = build("kahler-theta")
        verify(bg, count=5, seed=1)  # caches filled outside the measurement
        peaks = []
        for count in (1500, 6000):
            # A full collection empties the free lists, whose reuse tracemalloc
            # does not see; one at the start of each window keeps a collection
            # that falls in one window only from adding their refill to its peak.
            gc.collect()
            tracemalloc.start()
            try:
                verify(bg, count=count, seed=11)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    def test_one_chunk_in_flight(self, monkeypatch):
        """Points drawn but not yet contracted never exceed one walk chunk,
        the jet values are evaluated one chunk at a time, and the
        contractions take at most ``core.batch`` points each."""
        bg = build("kahler-theta")
        jets = _Jets(bg)
        chunk, size = jets.chunk, jets.core.batch
        assert chunk > size
        drawn, contracted, evaluated = [0], [], []
        draws, residuals, values = sugra.equations.draw_points, _Contractions.residuals, _Jets.values

        def counted_draws(box, count, seed):
            for p in draws(box, count, seed):
                drawn[0] += 1
                assert drawn[0] - sum(contracted) <= chunk
                yield p

        def counted_residuals(self, points, vals):
            contracted.append(len(points))
            return residuals(self, points, vals)

        def counted_values(self, points):
            evaluated.append(len(points))
            return values(self, points)

        monkeypatch.setattr(sugra.equations, "draw_points", counted_draws)
        monkeypatch.setattr(_Contractions, "residuals", counted_residuals)
        monkeypatch.setattr(_Jets, "values", counted_values)
        count = 2 * chunk + 7
        verify(bg, count=count, seed=5)
        assert drawn[0] == sum(contracted) == sum(evaluated) == count
        assert evaluated == [chunk, chunk, 7]
        assert max(contracted) == size

    def test_walks_once_per_chunk(self, monkeypatch):
        """kahler-theta at 1,500 points walks its plan once per walk chunk,
        and at most 8 times: the count of one walk per 193-point contraction
        batch under a 1 MiB budget."""
        walk, walks = sugra.expr._Plan.walk, []

        def counted(self, pts):
            walks.append(len(pts))
            return walk(self, pts)

        bg = build("kahler-theta")
        chunk = _Jets(bg).chunk
        monkeypatch.setattr(sugra.expr._Plan, "walk", counted)
        verify(bg, count=1500, seed=42)
        assert len(walks) == -(-1500 // chunk) <= 8

    @staticmethod
    def _two_failures() -> Background:
        """alpha-ppwave with ``g(y1,y1) = y1``, which fails the signature
        where ``y1 > 0``, and ``g(y2,y2) = -sqrt(y3)``, which leaves its
        domain where ``y3 < 0``."""
        lines = (SHIPPED / "alpha-ppwave.bg").read_text().splitlines()
        edits = {"g(y1,y1) = ": "g(y1,y1) = y1", "g(y2,y2) = ": "g(y2,y2) = -sqrt(y3)"}
        return parse_background_text("\n".join(next((new for old, new in edits.items() if ln.startswith(old)), ln)
                                                for ln in lines) + "\n")

    @staticmethod
    def _fine_points(bg: Background, count: int) -> list[list[float]]:
        """``count`` sample points where both edits of ``_two_failures`` are
        fine: ``y1 = -0.5`` and ``y3 = 1``."""
        pts = [list(p) for p in bg.sample(count, 7)]
        for p in pts:
            p[5], p[7] = -0.5, 1.0
        return pts

    @pytest.mark.parametrize("wrong, bad", [(3, 9), (3, "next batch"), (9, 3), ("next batch", 3),
                                            (3, "next chunk"), ("next chunk", 3)])
    def test_first_failing_point_is_reported(self, wrong, bad):
        """A signature failure at one point and a domain error at another:
        the earlier of the two is raised, in one batch, across two batches of
        a walk chunk, or across two chunks."""
        bg = self._two_failures()
        jets = _Jets(bg)
        later = {"next batch": jets.core.batch + 2, "next chunk": jets.chunk + 2}
        wrong, bad = (later.get(k, k) for k in (wrong, bad))
        pts = self._fine_points(bg, jets.chunk + 20)
        pts[wrong][5], pts[bad][7] = 0.5, -1.0
        pts = [tuple(p) for p in pts]
        with pytest.raises((sugra.forms.FormError, EvalDomainError)) as err:
            _residual_rows(bg, pts, ("einstein",))
        first = min(wrong, bad)
        assert isinstance(err.value, EvalDomainError) == (first == bad)
        assert f"{pts[first]}" in str(err.value)

    def test_signature_failure_before_a_nan_point_is_reported(self):
        """A point whose coordinate is NaN makes every entry that depends on
        it non-finite there; a signature failure at an earlier point is still
        the one raised.  (NaN equals nothing, so the failing point cannot be
        found again among the points by equality.)"""
        bg = self._two_failures()
        pts = self._fine_points(bg, 20)
        pts[2][5], pts[5][0] = 0.5, float("nan")
        pts = [tuple(p) for p in pts]
        with pytest.raises(sugra.forms.FormError, match="negative eigenvalues") as err:
            _residual_rows(bg, pts, ("einstein",))
        assert f"at {pts[2]}, declared" in str(err.value)

    def test_a_failing_chunk_is_walked_once(self, monkeypatch):
        """A chunk with a domain error is walked once: each ``sqrt`` node of
        its plan is computed once, at all of its points, and the points
        before the error are contracted."""
        bg = self._two_failures()
        pts = self._fine_points(bg, 50)
        pts[9][7] = -1.0
        computed, contracted = [], []
        np_sqrt, residuals = sugra.expr.Sqrt._np, _Contractions.residuals

        def counted_sqrt(self, points, arg):
            computed.append((id(self), len(points)))
            return np_sqrt(self, points, arg)

        def counted_residuals(self, points, values):
            contracted.append(len(points))
            return residuals(self, points, values)

        monkeypatch.setattr(sugra.expr.Sqrt, "_np", counted_sqrt)
        monkeypatch.setattr(_Contractions, "residuals", counted_residuals)
        with pytest.raises(EvalDomainError, match="square root of a negative value"):
            _residual_rows(bg, pts, ("einstein",))
        assert computed and len(set(computed)) == len(computed)
        assert {n for _, n in computed} == {50} and sum(contracted) == 9


class TestDenseMetric:
    """AdS5 x CP^3 (``tests/dense.py``), an exact background whose dense
    6-block makes a plan of about 135,000 steps."""

    def test_cp3_passes_and_walks_long_chunks(self, monkeypatch):
        """Every row is at most 1e-8, and a walk covers many contraction
        batches: the plan's length, not the budget, sizes the chunk."""
        made = []

        class Recorded(_Jets):
            def __init__(self, bg):
                super().__init__(bg)
                made.append(self)

        monkeypatch.setattr(sugra.equations, "_Jets", Recorded)
        res = verify(cp3_background(), count=20, seed=42)
        assert [r for r in res.rows if not r.max_abs <= 1e-8] == []
        jets, = made
        steps, live, entries = len(jets.plan.steps), jets.plan.live, len(jets.exprs)
        assert jets.chunk >= steps // (live + entries + 11) > 20 * jets.core.batch


class TestClosedFormBlocks:
    """Metric blocks of size 1 and 2 are solved in closed form by
    ``solve_blocks``, checked against ``numpy.linalg`` as an oracle through
    both of its callers, the jet core and ``metric_values``; larger blocks
    still go to LAPACK."""

    EDGES = [
        [[1.7, 1.0], [1.0, 0.0]], [[-2.3, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]],  # Walker (u,v)
        [[1e8, 1.0], [1.0, 0.0]], [[-1e9, 1.0], [1.0, 0.0]], [[1e-9, 1.0], [1.0, 0.0]],
        [[-2.0, 0.3], [0.3, -1.0]], [[-1.0, 0.0], [0.0, -4.0]],  # both diagonal entries negative
        [[2.0, 0.5], [0.5, -3.0]], [[-2.0, 3.0], [3.0, 1.0]], [[1.0, 0.5], [0.5, -1.0]],  # mixed signs
        [[3.0, 0.0], [0.0, 2.0]], [[0.5, 0.1], [0.1, 0.7]],
        [[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]], [[-1.0, 1.0], [1.0, -1.0]],  # det = 0
        [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -2.0]],
        [[1.0, 1.0], [1.0, 1.0 + 1e-14]], [[1.0, 1.0], [1.0, 1.0 + 1e-9]],  # det near 0
        [[1e-13, 0.0], [0.0, -1.0]], [[-3.0, 1e-7], [1e-7, 2e-15]],
    ]
    EDGES_1 = [[[0.0]], [[1e-13]], [[-1e-13]], [[1e-11]], [[-1e8]], [[2.5]]]
    EDGES_3 = [
        [[1.7, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]],  # a Walker pair split by a zero row
        [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [3.0, 6.0, 9.0]], [[0.0] * 3] * 3,  # det = 0
        [[-2.0, 0.1, 0.2], [0.1, -3.0, 0.3], [0.2, 0.3, -1.0]],
    ]

    @staticmethod
    def _outcome(run):
        try:
            run()
        except sugra.forms.FormError as err:
            return type(err), str(err)
        return None

    def _agrees(self, m, signature, p, solve):
        """``solve()`` gives an inverse and |det| (None: not compared) of
        ``m``, or refuses it exactly where numpy's eigenvalues fail the
        signature, with the same message."""
        solved = []
        got = self._outcome(lambda: solved.append(solve()))
        want = self._outcome(lambda: check_signature_values(np.linalg.eigvalsh(m[None]), signature, [p]))
        assert got == want, (m, signature)
        if got is None:
            (inv, det), = solved
            cond = np.linalg.cond(m)
            assert np.allclose(inv, np.linalg.inv(m), rtol=1e-12 * cond, atol=0.0), m
            assert det is None or abs(det - abs(np.linalg.det(m))) <= 1e-12 * cond * abs(det), m

    @staticmethod
    def _library(m, signature, p):
        """The inverse of the constant metric ``m`` at ``p`` from
        ``metric_values``: a zero entry is a literal zero there, so zero
        off-diagonal entries split the matrix into smaller blocks."""
        chart = Chart(tuple(f"c{i}" for i in range(len(m))))
        g = Metric(chart, [[const(float(x)) for x in row] for row in m], signature)
        h, hinv = metric_values(g, [p])
        assert np.array_equal(h[0], m)
        return hinv[0], None

    def test_against_numpy_linalg(self):
        rng = rng_for("closed2x2")
        stacks = np.concatenate([np.array(self.EDGES), rng.uniform(-2.0, 2.0, size=(200, 2, 2))])
        stacks = (stacks + stacks.transpose(0, 2, 1)) / 2
        for signature in ((2, 0), (1, 1), (0, 2)):
            core, values = TestJetCore._dense_core({"h": stacks}, signature)
            (_, dst), = core.blocks
            for k, m in enumerate(stacks):
                tape = np.empty((core.ncols, 1))
                tape[:core.one], tape[core.one], tape[core.zero] = values[k:k + 1].T, 1.0, 0.0

                def jet_core():
                    core._metric(tape, [(float(k),)])
                    return tape[dst][0, :, :, 0], tape[core.sqrt_det, 0] ** 2

                self._agrees(m, signature, (float(k),), jet_core)
                p = (float(k), 0.0)
                self._agrees(m, signature, p, lambda: self._library(m, signature, p))
        # the library entry on 1x1 and 3x3 metrics (3x3: LAPACK, or split blocks)
        for edges, n in ((self.EDGES_1, 1), (self.EDGES_3, 3)):
            mats = np.concatenate([np.array(edges), rng.uniform(-2.0, 2.0, size=(50, n, n))])
            mats = (mats + mats.transpose(0, 2, 1)) / 2
            for q in range(n + 1):
                for k, m in enumerate(mats):
                    p = (float(k),) + (0.0,) * (n - 1)
                    self._agrees(m, (n - q, q), p, lambda: self._library(m, (n - q, q), p))
        # a Walker block [[H, 1], [1, 0]] has the exact inverse [[0, 1], [1, -H]] and |det| 1
        core, values = TestJetCore._dense_core({"h": np.array([[[1.7, 1.0], [1.0, 0.0]]])}, (1, 1))
        (_, dst), = core.blocks
        tape = np.empty((core.ncols, 1))
        tape[:core.one], tape[core.one], tape[core.zero] = values.T, 1.0, 0.0
        core._metric(tape, [(0.0,)])
        assert np.array_equal(tape[dst][0, :, :, 0], [[0.0, 1.0], [1.0, -1.7]])
        assert tape[core.sqrt_det, 0] == 1.0

    def test_catalog_verify_needs_no_lapack(self, monkeypatch):
        def lapack(*args, **kwargs):
            raise AssertionError("LAPACK called")

        for name in ("eigvalsh", "inv"):
            monkeypatch.setattr(np.linalg, name, lapack)
        bgs = [build(ident) for ident in catalog_ids()]  # the builds' norms take Gram minors by det
        stress = tri6_background()  # its Riemannian block has a 4-chain
        monkeypatch.setattr(np.linalg, "det", lapack)
        for bg in bgs:
            assert len(verify(bg, count=20, seed=3).rows) == 10
        with pytest.raises(AssertionError, match="LAPACK called"):
            verify(stress, count=5, seed=3)

    def test_library_needs_no_lapack(self, monkeypatch):
        """form_inner, scalar_curvature and Metric.check_signature solve a
        metric whose blocks are all 2x2 or smaller without LAPACK."""
        m = walker_metric(WalkerData(
            rho=tuple(tuple(parse(e, W5) for e in row) for row in (
                ("-(1 + 0.1 * x1^2)", "0.1 * x1 * x2", "0"), ("0.1 * x1 * x2", "-(1 + 0.1 * x2^2)", "0"),
                ("0", "0", "-(1 + 0.1 * x3^2)"))),
            a=(const(0.0),) * 3, h=parse("x1^2 + u * x2^2", W5)))
        pts = random_points(rng_for("nolapack"), 6, 5)
        a = monomial_form(W5, parse("1 + x1", W5), ("u", "x1")) + monomial_form(W5, 1.0, ("x2", "x3"))
        b = coordinate_form(W5, "x1") + coordinate_form(W5, "v")

        def lapack(*args, **kwargs):
            raise AssertionError("LAPACK called")

        for name in ("eigvalsh", "inv"):
            monkeypatch.setattr(np.linalg, name, lapack)
        m.check_signature(pts)
        for x in (form_inner(a, a, m, pts), form_inner(b, b, m, pts), scalar_curvature(m, pts)):
            assert x.shape == (len(pts),) and np.isfinite(x).all()


class TestSamplePlans:
    def test_deterministic(self):
        box = [(-1.0, 1.0)] * 11
        a = list(draw_points(box, 20, 42))
        b = list(draw_points(box, 20, 42))
        assert a == b
        c = list(draw_points(box, 20, 43))
        assert a != c

    @staticmethod
    def _point_at_a_time(box, count, seed):
        """Reference plan: one point per call, its coordinates drawn in turn
        from ``random.Random(seed)``."""
        rng = random.Random(seed)
        return [tuple(lo + (hi - lo) * rng.random() for lo, hi in box) for _ in range(count)]

    @pytest.mark.parametrize("count", [1500, 300, 40, 3])
    def test_matches_point_at_a_time_loop(self, count):
        """Same points, in the same order, from :func:`draw_points` and
        :meth:`Background.sample` as from the reference loop."""
        box = [(-1.0, 1.0)] * 5 + [(0.5, 2.5)] * 6
        want = self._point_at_a_time(box, count, 7)
        assert len(want) == count
        assert list(draw_points(box, count, 7)) == want
        assert Background(flat_product(), FluxSpec(), box).sample(count, 7) == want

    def test_first_point_is_pinned(self):
        """The generator is part of the contract: plans must not move when
        numpy or the code around the draws changes."""
        box = [(-1.0, 1.0)] * 5 + [(0.5, 2.5)] * 6
        first = (0.2788535969157675, -0.9499784895546661, -0.4499413632617615, -0.5535785237023545,
                 0.4729424283280248, 1.8533989748458226, 2.284359135409691, 0.6738776652588323,
                 1.3438436393705409, 0.5595944388761407, 0.9372759496072067)
        assert next(draw_points(box, 1, 42)) == first
        assert Background(flat_product(), FluxSpec(), box).sample(1, 42) == [first]

    def test_verify_and_diagnose_leave_numpy_random_unloaded(self):
        code = ("import contextlib, io, sys\n"
                "from sugra import cli\n"
                "from sugra.catalog import build\n"
                "from sugra.equations import diagnose_reduced_case\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    code = cli.main(['verify', 'alpha-ppwave', '--points', '3'])\n"
                "bg = build('kahler-theta')\n"
                "diagnose_reduced_case(bg.flux, bg.product, count=3)\n"
                "print(code, 'numpy.random' in sys.modules)\n")
        src = str(Path(sugra.equations.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={"PYTHONPATH": src}, check=True, timeout=60).stdout.split()
        assert out == ["0", "False"]

    @pytest.mark.parametrize("count, seed, message", [
        (0, 42, "sample count must be positive"),
        (-3, 42, "sample count must be positive"),
        (5, -1, "sample seed must be non-negative"),
    ])
    def test_bad_count_or_seed_rejected(self, count, seed, message):
        """No vacuous pass over an empty plan, no numpy error for a negative
        seed: every way to draw a plan rejects them."""
        bg = build("alpha-ppwave")
        draws = [lambda: list(draw_points(bg.box, count, seed)),
                 lambda: bg.sample(count, seed),
                 lambda: verify(bg, count=count, seed=seed),
                 lambda: diagnose_reduced_case(bg.flux, bg.product, count=count, seed=seed)]
        for draw in draws:
            with pytest.raises(sugra.forms.FormError, match=message):
                draw()


class TestDiagnostics:
    CASES = {
        "alpha-ppwave": "1",
        "beta-nu-ppwave": "2",
        "gamma-delta-ppwave": "3",
        "varpi-epsilon-ppwave": "4",
        "general-combined": "product-factor",
        "alphabeta-trig": "6",
        "alphabeta-poly": "6",
        "kahler-theta": "5",
    }

    @pytest.mark.parametrize("ident", sorted(CASES))
    def test_case_assignment(self, ident):
        bg = build(ident)
        d = diagnose_reduced_case(bg.flux, bg.product, points=bg.sample(30, seed=42))
        assert d.case == self.CASES[ident]

    def test_default_rows_are_not_shared(self):
        a, b = ReducedCaseDiagnosis("1", None, None), ReducedCaseDiagnosis("1", None, None)
        a.rows.append(("d(nu) = 0", 1.0, 0.5))
        assert (b.rows, b.consistent, b.note) == ([], True, "")

    def test_trig_constants(self):
        bg = build("alphabeta-trig", params={"kappa": 1.7})
        d = diagnose_reduced_case(bg.flux, bg.product, points=bg.sample(40, seed=42))
        assert d.case == "6"
        assert d.kappa == pytest.approx(1.7, abs=1e-6)
        # The Maxwell-side constant is reciprocal to kappa for this family.
        assert d.lam == pytest.approx(1.0 / 1.7, abs=1e-6)
        assert d.max_residual() < 1e-8

    def test_poly_constants_and_known_nonclosed_piece(self):
        bg = build("alphabeta-poly")
        d = diagnose_reduced_case(bg.flux, bg.product, points=bg.sample(40, seed=42))
        assert d.case == "6"
        assert d.kappa == pytest.approx(0.0, abs=1e-10)
        assert d.lam == pytest.approx(1.0, abs=1e-8)
        by_label = {label: mx for label, mx, _ in d.rows}
        failing = {label for label, mx, _ in d.rows if mx > 1e-8}
        # nu is not closed: that single sub-equation fails, everything else holds.
        assert failing == {"d(nu) = 0"}
        assert by_label["d(nu) = 0"] > 0.1

    def test_alpha_theta_pattern_is_flagged_inconsistent(self):
        rng = rng_for("case8")
        fs = FluxSpec(alpha=monomial_form(W5, 1.0, ("u", "x1", "x2", "x3")),
                      theta=monomial_form(R6, 1.0, ("y1", "y2", "y3", "y4")))
        d = diagnose_reduced_case(fs, flat_product(), count=10, seed=1)
        assert d.case == "8"
        assert not d.consistent

    def test_beta_varpi_pattern(self):
        fs = FluxSpec(beta=monomial_form(W5, 1.0, ("u", "x1", "x2")),
                      nu=coordinate_form(R6, "y1"),
                      varpi=coordinate_form(W5, "u"),
                      eps=monomial_form(R6, 1.0, ("y2", "y3", "y4")))
        d = diagnose_reduced_case(fs, flat_product(), count=10, seed=1)
        assert d.case == "9"
        assert d.max_residual() < 1e-12

    def test_general_fallback(self):
        # theta present alongside a beta^nu pair matches no reduced pattern
        fs = FluxSpec(beta=monomial_form(W5, 1.0, ("u", "x1", "x2")),
                      nu=coordinate_form(R6, "y1"),
                      theta=monomial_form(R6, 1.0, ("y1", "y2", "y3", "y4")))
        d = diagnose_reduced_case(fs, flat_product(), count=10, seed=1)
        assert d.case == "general"

    def test_general_fallback_matches_symbolic_oracle(self):
        """The general rows come from the jet core; their maxima are those
        of ``ext_d(F)`` and ``ext_d(hodge(F, h)) - F^F/2`` built
        symbolically on the 11-chart."""
        bg = beta_nu_theta_background()
        pts = bg.sample(20, seed=7)
        d = diagnose_reduced_case(bg.flux, bg.product, points=pts)
        f = bg.flux_form()
        oracle = [ext_d(f), ext_d(hodge(f, bg.metric())) - wedge(f, f).scale(0.5)]
        assert d.case == "general"
        assert [label for label, _, _ in d.rows] == ["closedness: d(F) = 0",
                                                     "maxwell: d(*F) - F^F/2 = 0"]
        for (label, mx, _), form in zip(d.rows, oracle):
            want = float(np.abs(evaluate_points(list(form.coeffs.values()), pts)).max())
            assert mx == pytest.approx(want, rel=1e-12, abs=1e-13), label
        assert d.rows[1][1] > 1.0

    def test_product_factor_closedness_row_on_a_non_closed_flux(self):
        """general-combined's pieces with beta = x3 du^dx1^dx2, so that dF
        has the component -dx3^du^dx1^dx2^dy3: the diagnosis stays
        product-factor, and its closedness row is the jet core's, whose
        maximum the finite-difference oracle confirms."""
        bg = build("general-combined")
        pieces = {name: getattr(bg.flux, name) for name in _PIECES}
        fs = FluxSpec(**pieces | {"beta": monomial_form(W5, parse("x3", W5), ("u", "x1", "x2"))})
        pts = bg.sample(10, seed=5)
        d = diagnose_reduced_case(fs, bg.product, points=pts)
        assert d.case == "product-factor"
        label, mx, mean = d.rows[0]
        assert label == "closedness: d(F) = 0"
        changed = Background(bg.product, fs, bg.box)
        row = closedness_residual(changed, pts)[0]
        assert (mx, mean) == (row.max_abs, row.mean_abs)
        phifn = form_fn(changed.flux_form())
        want = max(max(abs(v) for v in fd_closedness(lambda p: flux_tensor(phifn(p), 11), p).values())
                   for p in pts)
        assert mx == pytest.approx(want, rel=1e-6)
        assert mx == pytest.approx(1.0, rel=1e-12)

    def test_varpi_theta_pattern(self):
        """Pattern 7 with d psi = 2 varpi and d eps = 2 theta; *5 du is
        closed, so the Maxwell-side constant is 0."""
        fs = FluxSpec(varpi=coordinate_form(W5, "u"), psi=parse("2*u", W5),
                      eps=monomial_form(R6, parse("y1", R6), ("y2", "y3", "y4")),
                      theta=monomial_form(R6, 0.5, ("y1", "y2", "y3", "y4")))
        d = diagnose_reduced_case(fs, build("alpha-ppwave").product, count=10, seed=1)
        assert (d.case, d.kappa, d.lam) == ("7", 2.0, 0.0)
        assert d.rows == [(label, 0.0, 0.0) for label in (
            "d(theta) = 0", "d(varpi) = 0", "d(*6 eps) = 0", "d(psi) - k*varpi = 0",
            "d(eps) - k*theta = 0", "d(*5 varpi) - l*(*5 psi) = 0",
            "d(*6 theta) - l*(*6 eps) = 0")]

    def test_gamma_delta_pattern_splits_on_gamma_wedge_gamma(self):
        """gamma^gamma != 0 takes the fitted branch of pattern 3: on flat
        factors d(*5 gamma) = 0 fits k = 0, and delta^delta/2 =
        dy1^dy2^dy3^dy4 is left over."""
        fs = FluxSpec(gamma=monomial_form(W5, 1.0, ("u", "x1")) + monomial_form(W5, 1.0, ("x2", "x3")),
                      delta=monomial_form(R6, 1.0, ("y1", "y2")) + monomial_form(R6, 1.0, ("y3", "y4")))
        d = diagnose_reduced_case(fs, flat_product(), count=10, seed=1)
        by_label = {label: mx for label, mx, _ in d.rows}
        assert (d.case, d.kappa, d.lam) == ("3", 0.0, None)
        assert "d(*5 gamma) = 0" not in by_label
        assert by_label["d(*5 gamma) - k*gamma^gamma = 0"] == 0.0
        assert by_label["k*(*6 delta) - delta^delta/2 = 0"] == 1.0

    @pytest.mark.parametrize("scalar", ["phi", "psi"])
    def test_literal_zero_scalar_drops_its_term(self, scalar):
        """``phi = 0`` removes phi*alpha from the flux, so only psi*theta is
        left (and the other way round): a single-term pattern, not 8."""
        fs = FluxSpec(alpha=monomial_form(W5, 1.0, ("u", "x1", "x2", "x3")),
                      theta=monomial_form(R6, 1.0, ("y1", "y2", "y3", "y4")),
                      **{scalar: const(0.0)})
        d = diagnose_reduced_case(fs, flat_product(), count=10, seed=1)
        assert d.case == {"phi": "5", "psi": "1"}[scalar]
        assert d.consistent and d.max_residual() == 0.0

    def test_alpha_theta_pattern_measures_the_scaled_terms(self):
        """Pattern 8's row is ``min(|phi*alpha|, |psi*theta|)``: a tiny phi
        makes the flux nearly pure psi*theta, which is consistent."""
        fs = FluxSpec(alpha=monomial_form(W5, 1.0, ("u", "x1", "x2", "x3")), phi=const(1e-13),
                      theta=monomial_form(R6, 1.0, ("y1", "y2", "y3", "y4")))
        d = diagnose_reduced_case(fs, flat_product(), count=10, seed=1)
        assert d.case == "8"
        assert d.rows == [("min(|phi*alpha|, |psi*theta|) = 0", 1e-13, 1e-13)]
        assert d.consistent

    @pytest.mark.parametrize("box, points, message", [
        ([(-1.0, 1.0)] * 10, None, "sample box needs 11 coordinate ranges, got 10"),
        ([(-1.0, 1.0)] * 12, None, "sample box needs 11 coordinate ranges, got 12"),
        (None, [(0.5,) * 13] * 3, "sample points need 11 coordinates, got 13"),
    ])
    def test_sample_width_must_be_eleven(self, box, points, message):
        bg = build("beta-nu-ppwave")
        with pytest.raises(sugra.forms.FormError, match=message):
            diagnose_reduced_case(bg.flux, bg.product, box=box, points=points)

    @pytest.mark.parametrize("box", [[(-1e308, 1e308)] * 11, [(0.0, float("inf"))] * 11,
                                     [(float("nan"), 1.0)] * 11])
    def test_box_must_be_finite(self, box):
        """A box whose width overflows, or whose bounds are not finite, is
        refused before any point is drawn (a draw there is not finite)."""
        bg = build("beta-nu-ppwave")
        with pytest.raises(sugra.forms.FormError, match="bounds and widths must be finite"):
            diagnose_reduced_case(bg.flux, bg.product, box=box)

    def test_kappa_fit_threshold_declares_zero(self):
        bg = build("alphabeta-poly")
        d = diagnose_reduced_case(bg.flux, bg.product, points=bg.sample(20, seed=7))
        assert d.kappa == 0.0
