"""Catalog builders, the polynomial profile solver, and entry-level checks."""

import math

import numpy as np
import pytest

from conftest import random_points, rng_for

from sugra.expr import add, const, coord, evaluate, evaluate_points, exp, intpow, mul, parse, sin
from sugra.forms import matrix_values
from sugra.geometry import (
    WALKER_CHART,
    WalkerData,
    laplace_beltrami,
    ricci,
    ricci_endomorphism_pairing,
    scalar_curvature,
    walker_metric,
)
from sugra.equations import Background, closedness_residual, flux_norm_sq, sample_points, verify
from sugra.catalog import (
    CATALOG,
    CatalogError,
    SolverError,
    build,
    catalog_ids,
    get_entry,
    solve_walker_H,
)

W5 = WALKER_CHART
ALL_IDS = [
    "alpha-ppwave", "beta-nu-ppwave", "gamma-delta-ppwave", "varpi-epsilon-ppwave",
    "general-combined", "alphabeta-trig", "alphabeta-poly", "kahler-theta",
]
NULL_FLUX_IDS = ALL_IDS[:7]


def lap_flat(h_expr):
    m = walker_metric(WalkerData.pp_wave(const(0.0)))
    return laplace_beltrami(m, h_expr, (1, 2, 3))


class TestSolver:
    def test_constant_rhs_gives_symmetric_profile(self):
        h = solve_walker_H(const(-3.0))
        lap = lap_flat(h)
        for p in random_points(rng_for("solc"), 5, 5):
            assert evaluate(lap, p) == pytest.approx(-3.0, abs=1e-12)
            assert evaluate(h, p) == pytest.approx(0.5 * (p[1] ** 2 + p[2] ** 2 + p[3] ** 2))

    def test_u_dependent_constant_reproduces_volume_flux_profile(self):
        f = coord(0)  # f(u) = u
        h = solve_walker_H(mul(-1.0, f, f))
        want = parse("1/6 * u^2 * (x1^2+x2^2+x3^2)", W5)
        for p in random_points(rng_for("solu"), 10, 5):
            assert evaluate(h, p) == pytest.approx(evaluate(want, p), rel=1e-12)

    def test_slab_profile(self):
        big_l = 1.0
        rhs = add(const(-big_l ** 2), mul(-1.0, intpow(coord(1), 2)))
        h = solve_walker_H(rhs)
        want = parse("1/12*x1^4 + 1/2*x1^2", W5)
        for p in random_points(rng_for("soll"), 10, 5):
            assert evaluate(h, p) == pytest.approx(evaluate(want, p), rel=1e-12)

    def test_random_polynomials_round_trip(self):
        rng = rng_for("solrt")
        xs = [coord(1), coord(2), coord(3)]
        for _ in range(20):
            terms = []
            for _ in range(int(rng.integers(1, 5))):
                a, b, c = (int(t) for t in rng.integers(0, 3, size=3))
                while a + b + c > 4:
                    a, b, c = (int(t) for t in rng.integers(0, 3, size=3))
                coeff = mul(float(rng.uniform(-2, 2)),
                            intpow(coord(0), int(rng.integers(0, 3))))
                terms.append(mul(coeff, intpow(xs[0], a), intpow(xs[1], b), intpow(xs[2], c)))
            rhs = add(*terms)
            h = solve_walker_H(rhs)
            lap = lap_flat(h)
            for p in random_points(rng, 20, 5):
                assert abs(evaluate(lap, p) - evaluate(rhs, p)) < 1e-10

    def test_non_polynomial_rejected(self):
        with pytest.raises(SolverError):
            solve_walker_H(exp(mul(2.0, coord(1))))
        with pytest.raises(SolverError):
            solve_walker_H(sin(coord(2)))

    def test_v_dependence_rejected(self):
        with pytest.raises(SolverError):
            solve_walker_H(coord(4))

    def test_u_only_transcendental_coefficients_allowed(self):
        rhs = mul(sin(coord(0)), intpow(coord(1), 2))
        h = solve_walker_H(rhs)
        lap = lap_flat(h)
        for p in random_points(rng_for("solt"), 5, 5):
            assert evaluate(lap, p) == pytest.approx(evaluate(rhs, p), abs=1e-12)


class TestEntries:
    @pytest.mark.parametrize("ident", ALL_IDS)
    def test_residuals(self, ident):
        """All four residual families at 1e-8, except the known non-closed
        1-form of alphabeta-poly, whose defect is pinned in its own test."""
        bg = build(ident)
        res = verify(bg, count=50, seed=42, tol=1e-8)
        for row in res.rows:
            if ident == "alphabeta-poly" and row.equation == "closedness":
                continue
            assert row.max_abs < 1e-8, f"{ident} {row.equation}/{row.block}: {row.max_abs}"

    def test_alphabeta_poly_closedness_defect_is_pinned(self):
        """nu = -y1 dy1 + sqrt(L^2 - y1^2) dy2 is not closed, so dF has a
        single component du^dx2^dx3^dy1^dy2 with value y1/sqrt(L^2 - y1^2).
        The verifier must keep reporting this, not mask it."""
        bg = build("alphabeta-poly")
        pts = bg.sample(50, seed=42)
        row = closedness_residual(bg, pts)[0]
        assert row.max_abs > 0.1
        assert set(row.worst_component.split("^")) == {"u", "x2", "x3", "y1", "y2"}
        expected = max(abs(p[5]) / np.sqrt(1.0 - p[5] ** 2) for p in pts)
        assert row.max_abs == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("ident", ALL_IDS)
    def test_perturbed_variant_fails_loudly(self, ident):
        entry = get_entry(ident)
        bg = build(ident, perturb={entry.perturb_key: 1.1})
        res = verify(bg, count=50, seed=42, tol=1e-8)
        assert max(r.max_abs for r in res.rows) > 1e-3

    @pytest.mark.parametrize("ident", NULL_FLUX_IDS)
    def test_null_flux_properties(self, ident):
        """Null flux, vanishing scalar curvature, null Ricci endomorphism."""
        bg = build(ident)
        h = bg.metric()
        rng = rng_for(f"null-{ident}")
        pts = bg.sample(10, seed=5)
        assert np.all(np.abs(flux_norm_sq(bg, pts)) < 1e-10)
        assert np.all(np.abs(scalar_curvature(h, pts)) < 1e-8)
        pts = bg.sample(2, seed=6)
        for _ in range(10):  # each pair at both points
            x = rng.uniform(-1, 1, size=11)
            y = rng.uniform(-1, 1, size=11)
            assert np.all(np.abs(ricci_endomorphism_pairing(h, pts, x, y)) < 1e-9)

    def test_zero_strength_general_combined_is_ricci_flat(self):
        bg = build("general-combined", params={"f1": 0.0, "f2": 0.0, "f3": 0.0, "f4": 0.0})
        assert bg.flux_form().is_zero
        h = bg.metric()
        ric = ricci(h)
        assert np.all(np.abs(matrix_values(ric, bg.sample(4, seed=2))) < 1e-12)

    def test_zero_frequency_alpha_profile(self):
        bg = build("alpha-ppwave", params={"f": "0"})
        assert bg.flux_form().is_zero
        res = verify(bg, count=20, seed=42, tol=1e-8)
        assert res.verdict  # flat wave, zero flux: still a solution

    def test_kahler_constants(self):
        bg = build("kahler-theta")
        gl = bg.product.lorentz
        # L = 2: conformal factor at z = 1 is L^2 = 4
        assert evaluate(gl.entries[0][0], (0, 0, 0, 0, 1.0)) == pytest.approx(4.0)
        assert flux_norm_sq(bg, bg.sample(5, seed=4)) == pytest.approx([6.0] * 5, abs=1e-10)

    def test_varpi_norm_tracks_parameter(self):
        from sugra.forms import form_inner
        bg = build("varpi-epsilon-ppwave", params={"E": 2.0})
        gr = bg.product.riemann
        val = form_inner(bg.flux.eps, bg.flux.eps, gr, [(0.1,) * 6])
        assert val == pytest.approx([-4.0])
        res = verify(bg, count=30, seed=42, tol=1e-8)
        assert res.verdict

    def test_parameter_validation(self):
        with pytest.raises(CatalogError):
            build("alphabeta-poly", params={"L": -1.0})
        with pytest.raises(CatalogError):
            build("kahler-theta", params={"K": 0.0})
        with pytest.raises(CatalogError):
            build("alpha-ppwave", params={"nope": 1.0})
        with pytest.raises(CatalogError):
            build("nosuch")
        with pytest.raises(CatalogError):
            build("kahler-theta", perturb={"H": 1.1})
        with pytest.raises(CatalogError):
            build("alpha-ppwave", perturb={"c": 1.1})

    @pytest.mark.parametrize("ident, params, perturb, message", [
        ("alpha-ppwave", {"f": None}, None,
         "parameter 'f' must be expression text or a finite number, got None"),
        ("alpha-ppwave", {"f": math.inf}, None,
         "parameter 'f' must be expression text or a finite number, got inf"),
        ("varpi-epsilon-ppwave", {"E": "2"}, None, "parameter 'E' must be a finite number, got '2'"),
        ("kahler-theta", {"K": None}, None, "parameter 'K' must be a finite number, got None"),
        ("general-combined", {"f1": "x"}, None, "parameter 'f1' must be a finite number, got 'x'"),
        ("alphabeta-poly", {"L": math.nan}, None, "parameter 'L' must be a finite number, got nan"),
        ("kahler-theta", {"K": math.inf}, None, "parameter 'K' must be a finite number, got inf"),
        ("alphabeta-trig", {"kappa": math.nan}, None,
         "parameter 'kappa' must be a finite number, got nan"),
        ("alphabeta-trig", {"kappa": True}, None, "parameter 'kappa' must be a finite number, got True"),
        ("varpi-epsilon-ppwave", {"E": 1e308}, {"E": 10.0},
         "parameter 'E' must be a finite number, got inf"),
        ("alpha-ppwave", None, {"H": math.nan}, "perturbation factor 'H' must be a finite number, got nan"),
        ("kahler-theta", None, {"c": "2"}, "perturbation factor 'c' must be a finite number, got '2'"),
        ("alpha-ppwave", {"f": "(("}, None, "parameter 'f' is not a profile function: "
         "expected a value, found 'end of input' (at position 2: '((')"),
        ("alpha-ppwave", {"f": "sqrt(-1)"}, None,
         "parameter 'f' is not a profile function: square root of a negative value"),
    ])
    def test_bad_parameter_is_one_catalog_error(self, ident, params, perturb, message):
        """A parameter (after perturbation) or factor that is not a finite
        number is refused before the builder runs, and profile text that does
        not parse or has no finite value by the builder, by one error naming
        it."""
        with pytest.raises(CatalogError) as err:
            build(ident, params=params, perturb=perturb)
        assert str(err.value) == message

    def test_numeric_alpha_profile_function(self):
        """A number for f is the constant profile function f(u) = f."""
        bg = build("alpha-ppwave", params={"f": 2.0})
        assert bg.flux.alpha.coeffs[(0, 1, 2, 3)].value == 2.0
        assert verify(bg, count=50, seed=42, tol=1e-8).verdict
        scaled = build("alpha-ppwave", params={"f": 2.0}, perturb={"f": 1.5})
        assert scaled.flux.alpha.coeffs[(0, 1, 2, 3)].value == 3.0

    # An entry's perturbation keys: its perturb_key and its numeric parameters
    # (alpha-ppwave's f is a profile expression, not a number).
    PERTURB_KEYS = {
        "alpha-ppwave": ["H"], "beta-nu-ppwave": ["H"], "gamma-delta-ppwave": ["H"],
        "varpi-epsilon-ppwave": ["E", "H"], "general-combined": ["H", "f1", "f2", "f3", "f4"],
        "alphabeta-trig": ["H", "kappa"], "alphabeta-poly": ["H", "L"], "kahler-theta": ["K", "c"],
    }

    @pytest.mark.parametrize("ident", ALL_IDS)
    def test_perturbation_keys(self, ident, capsys):
        """Each listed key builds; every other key is refused by an error
        that lists exactly those keys, which the CLI prints as one line."""
        from sugra.cli import main
        known = self.PERTURB_KEYS[ident]
        assert get_entry(ident).perturb_key in known
        for key in known:
            assert build(ident, perturb={key: 1.1}).ident == ident
        params = [k for k, _ in get_entry(ident).defaults]
        for key in sorted({"H", "c", "zz", *params} - set(known)):
            message = f"unknown perturbation key {key!r}; known: {known}"
            with pytest.raises(CatalogError) as err:
                build(ident, perturb={key: 1.1})
            assert str(err.value) == message
            capsys.readouterr()
            assert main(["verify", ident, "--points", "3", "--perturb", f"{key}:1.1"]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: {message}\n"

    def test_catalog_listing(self):
        ids = catalog_ids()
        assert ids == ALL_IDS
        for ident in ids:
            entry = CATALOG[ident]
            assert entry.summary
            bg = build(ident)
            assert bg.ident == ident
            assert bg.provenance

    def test_builders_are_pure(self):
        a = build("alpha-ppwave")
        b = build("alpha-ppwave")
        assert a is not b
        ra = verify(a, count=10, seed=1, tol=1e-8)
        rb = verify(b, count=10, seed=1, tol=1e-8)
        for x, y in zip(ra.rows, rb.rows):
            assert x.max_abs == y.max_abs


class TestDerivedProfiles:
    """Each plane wave's profile H, derived from its flux by the one rule
    Lap_rho(H) = |Phi|^2 (given for alphabeta-trig), against its closed
    form at 20 points, away from the defaults where there are parameters."""

    @pytest.mark.parametrize("ident, params, closed_form", [
        ("alpha-ppwave", {}, lambda u, x: u ** 2 * (x @ x) / 6),
        ("alpha-ppwave", {"f": 2.0}, lambda u, x: 4.0 * (x @ x) / 6),
        ("beta-nu-ppwave", {}, lambda u, x: (x @ x) / 6),
        ("gamma-delta-ppwave", {}, lambda u, x: (x @ x) / 2),
        ("varpi-epsilon-ppwave", {"E": 1.7}, lambda u, x: 1.7 ** 2 * (x @ x) / 6),
        ("general-combined", {"f1": 1.1, "f2": 0.7, "f3": 1.3, "f4": 0.4},
         lambda u, x: (1.1 ** 2 + 0.7 ** 2 + 1.3 ** 2 + 0.4 ** 2) * (x @ x) / 6),
        ("alphabeta-poly", {"L": 0.8}, lambda u, x: 0.8 ** 2 * x[0] ** 2 / 2 + x[0] ** 4 / 12),
        ("alphabeta-trig", {"kappa": 1.7}, lambda u, x: np.exp(2 * x[0]) / 4),
        # |nu|^2 is taken inside the box |y1| <= 0.056, not at y1 = 0.1 > L
        ("alphabeta-poly", {"L": 0.08}, lambda u, x: 0.08 ** 2 * x[0] ** 2 / 2 + x[0] ** 4 / 12),
    ])
    def test_profile_matches_its_closed_form(self, ident, params, closed_form):
        bg = build(ident, params=params)
        pts = bg.sample(20, seed=9)
        got = evaluate_points([bg.product.lorentz.entries[0][0]], pts)[:, 0]
        want = [closed_form(p[0], np.array(p[1:4])) for p in pts]
        assert got == pytest.approx(want, rel=0, abs=1e-15)


class TestWalkerGate:
    def test_catalog_walkers_pass_the_isotropy_gate(self):
        from sugra.geometry import validate_ricci_isotropic
        for ident in NULL_FLUX_IDS:
            bg = build(ident)
            h_uu = bg.product.lorentz.entries[0][0]
            w = WalkerData.pp_wave(h_uu)
            validate_ricci_isotropic(w, [p[:5] for p in bg.sample(5, seed=3)])


class TestSamplePredicate:
    """``Background.predicate`` is the only rule for the points a plan skips."""

    @pytest.mark.parametrize("ident", ALL_IDS)
    def test_plans_skip_flagged_points(self, ident):
        bg = build(ident)
        pts = bg.sample(200, seed=11)
        assert len(pts) == 200
        if bg.predicate is not None:
            assert not any(bg.predicate(p) for p in pts)

    def test_alphabeta_poly_predicate_fires(self):
        """At L = 0.1 the box is |y1| <= 0.07 and points with |y1| > 0.05
        are flagged, so the plan differs from the unfiltered draws."""
        bg = build("alphabeta-poly", params={"L": 0.1})
        assert bg.box[5] == pytest.approx((-0.07, 0.07))
        pts = bg.sample(200, seed=11)
        assert max(abs(p[5]) for p in pts) <= 0.05
        assert max(abs(p[5]) for p in sample_points(bg.box, 200, 11)) > 0.05

    def test_kahler_theta_predicate_fires_across_the_horizon(self):
        """The product on a box widened across z = 0 draws no point with
        |z| < 0.05; the metric declares no rule of its own."""
        bg = build("kahler-theta")
        box = list(bg.box)
        box[4] = (-1.0, 1.0)
        wide = Background(bg.product, bg.flux, box, predicate=bg.predicate)
        pts = wide.sample(200, seed=11)
        assert min(abs(p[4]) for p in pts) >= 0.05
        bare = Background(bg.product, bg.flux, box).sample(200, seed=11)
        assert min(abs(p[4]) for p in bare) < 0.05


class TestMetricCompatibility:
    @pytest.mark.parametrize("ident", ALL_IDS)
    def test_connection_preserves_catalog_metric(self, ident):
        """d_k h_ij = G^l_ki h_lj + G^l_kj h_il at sampled points."""
        from sugra.expr import diff
        from sugra.geometry import christoffel
        bg = build(ident)
        h = bg.metric()
        sym = christoffel(h)
        pts = bg.sample(7, seed=13)
        kij = [(k, i, j) for k in range(11) for i in range(11) for j in range(i, 11)]
        gams = evaluate_points(list(sym.values()), pts)
        dgs = evaluate_points([diff(h.entries[i][j], k) for k, i, j in kij], pts)
        for g, gv, dgv in zip(matrix_values(h.entries, pts), gams, dgs):
            gam = {}
            for (k, i, j), v in zip(sym, gv):
                gam[(k, i, j)] = v
                gam[(k, j, i)] = v
            worst = 0.0
            for (k, i, j), dg in zip(kij, dgv):
                conn = sum(gam.get((l, k, i), 0.0) * g[l, j]
                           + gam.get((l, k, j), 0.0) * g[i, l]
                           for l in range(11))
                worst = max(worst, abs(dg - conn))
            assert worst < 1e-8, f"{ident}: nabla h residual {worst}"
