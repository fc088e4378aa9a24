"""Christoffel symbols, Ricci, scalar curvature, Laplacian, constructors.

The finite-difference oracle in ``oracles.py`` is the independent check for
every curvature value here: it differentiates metric values numerically and
never shares the symbolic derivative path.
"""

import gc
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import flat_metric, matrix_fn, random_form, random_points, random_scalar, rng_for, values
from oracles import fd_christoffel, fd_ricci, jet_ricci

from sugra.catalog import build, catalog_ids
from sugra.equations import verify
from sugra.expr import (Chart, add, const, coord, diff, div, evaluate, evaluate_points, intpow, mul, neg, parse,
                        to_text)
from sugra.forms import FormError, Metric, hodge, matrix_values, sym_inverse
from sugra.geometry import (
    WALKER_CHART,
    ProductStructure,
    WalkerData,
    christoffel,
    laplace_beltrami,
    product_metric,
    ricci,
    ricci_endomorphism_pairing,
    scalar_curvature,
    validate_ricci_isotropic,
    walker_metric,
)

W5 = WALKER_CHART
R6 = Chart(("y1", "y2", "y3", "y4", "y5", "y6"))


def ricci_at(m, p):
    return matrix_values(ricci(m), [p])[0]


def ads5_metric(big_l=2.0):
    ch = Chart(("t", "x1", "x2", "x3", "z"))
    z = coord(4)
    conf = div(const(big_l ** 2), intpow(z, 2))
    diag = [conf, neg(conf), neg(conf), neg(conf), neg(conf)]
    rows = [[diag[i] if i == j else const(0.0) for j in range(5)] for i in range(5)]
    return Metric(ch, rows, (1, 4))


def sphere2_metric(k_curv=1.0, negative=True):
    """Round 2-sphere of Gaussian curvature K in stereographic coordinates,
    optionally with the overall sign flipped (negative-definite block)."""
    ch = Chart(("x", "y"))
    lam = div(const(4.0 / k_curv), intpow(add(1.0, intpow(coord(0), 2), intpow(coord(1), 2)), 2))
    s = neg(lam) if negative else lam
    rows = [[s, 0.0], [0.0, s]]
    return Metric(ch, rows, (0, 2) if negative else (2, 0))


def dense_metric(chart: Chart, signature: tuple[int, int], rng) -> Metric:
    """+-3 on the diagonal (the first ``signature[0]`` positive) plus 0.2
    times a random scalar in every entry, so no entry vanishes."""
    n = chart.dim
    rows = [[const(0.0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            base = (3.0 if i < signature[0] else -3.0) if i == j else 0.0
            rows[i][j] = add(base, mul(0.2, random_scalar(chart, rng)))
    return Metric(chart, rows, signature)


class TestSympyOracle:
    """``sym_inverse``, ``ricci`` and ``hodge`` on dense metrics, a
    Riemannian 3x3 and a Lorentzian 4x4, against sympy, which reads the
    metric's printed entries and inverts and differentiates them on its
    own."""

    CASES = {"riemann-3": (Chart(("a", "b", "c")), (0, 3)),
             "lorentz-4": (Chart(("t", "x", "y", "z")), (1, 3))}

    def _case(self, name):
        sympy = pytest.importorskip("sympy")
        chart, signature = self.CASES[name]
        rng = rng_for(f"sympy-{name}")
        m = dense_metric(chart, signature, rng)
        pts = random_points(rng, 4, chart.dim)
        m.check_signature(pts)
        xs = sympy.symbols(chart.names)
        g = sympy.Matrix([[sympy.sympify(to_text(e, chart)) for e in row] for row in m.entries])
        return sympy, m, pts, xs, g

    @pytest.mark.parametrize("name", CASES)
    def test_sym_inverse(self, name):
        sympy, m, pts, xs, g = self._case(name)
        inv, det = sym_inverse(m.entries)
        got, got_det = matrix_values(inv, pts), values(det, pts)
        at = matrix_values(m.entries, pts)
        assert np.max(np.abs(got - np.linalg.inv(at))) < 1e-12
        assert got_det == pytest.approx(np.linalg.det(at), rel=1e-12)
        for p, gi, d in zip(pts, got, got_det):
            exact = g.subs(dict(zip(xs, p)))
            assert np.max(np.abs(np.array(exact.inv(), dtype=float) - gi)) < 1e-12
            assert float(exact.det()) == pytest.approx(d, rel=1e-12)

    @pytest.mark.parametrize("name", CASES)
    def test_ricci(self, name):
        sympy, m, pts, xs, g = self._case(name)
        n = len(xs)
        dg = [[[sympy.diff(g[i, j], x) for j in range(n)] for i in range(n)] for x in xs]
        ddg = [[[[sympy.diff(e, y) for e in row] for row in d] for d in dg] for y in xs]
        jet = sympy.lambdify(xs, [g.tolist(), dg, ddg], "math")
        for p, got in zip(pts, matrix_values(ricci(m), pts)):
            want = jet_ricci(*(np.array(a, dtype=float) for a in jet(*p)))
            scale = float(np.max(np.abs(want)))
            assert scale > 1e-3  # curved: the comparison is not between zeros
            assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, scale)

    @pytest.mark.parametrize("name", CASES)
    def test_hodge(self, name):
        """The star of a 1-form and of a 2-form against ``(*a)_J = sqrt|g|
        a^I eps_IJ / k!``, with sympy's inverse, determinant and Levi-Civita
        symbol at each point."""
        sympy, m, pts, xs, g = self._case(name)
        n = len(xs)
        rng = rng_for(f"sympy-hodge-{name}")
        for k in (1, 2):
            a = random_form(m.chart, k, rng)
            star = hodge(a, m)
            coeffs = {key: sympy.sympify(to_text(e, m.chart)) for key, e in a.items()}
            comps = list(itertools.combinations(range(n), n - k))
            got = np.zeros((len(pts), len(comps)))
            if not star.is_zero:
                got[:, [comps.index(c) for c in star.coeffs]] = evaluate_points(list(star.coeffs.values()), pts)
            for p, row in zip(pts, got):
                at = dict(zip(xs, p))
                exact = g.subs(at)
                ginv = np.array(exact.inv(), dtype=float)
                vol = float(sympy.sqrt(abs(exact.det())))
                up = np.zeros((n,) * k)  # a_I, then raised one slot at a time
                for key, c in coeffs.items():
                    for perm in itertools.permutations(key):
                        up[perm] = int(sympy.LeviCivita(*(key.index(i) for i in perm))) * float(c.subs(at))
                for axis in range(k):
                    up = np.moveaxis(np.tensordot(ginv, up, axes=(1, axis)), 0, axis)
                want = np.array([vol / math.factorial(k) * sum(
                    up[i] * int(sympy.LeviCivita(*(i + c))) for i in itertools.product(range(n), repeat=k))
                    for c in comps])
                assert np.max(np.abs(want)) > 1e-3  # not a comparison between zeros
                assert np.max(np.abs(row - want)) < 1e-12 * max(1.0, float(np.max(np.abs(want))))


class TestChristoffel:
    def test_flat_metric_has_no_symbols(self):
        assert christoffel(flat_metric(W5, (1, 4))) == {}

    def test_ppwave_closed_forms(self):
        H = parse("1/6 * u^2 * (x1^2+x2^2+x3^2)", W5)
        m = walker_metric(WalkerData.pp_wave(H))
        sym = christoffel(m)
        pts = random_points(rng_for("walkergam"), 5, 5)
        # G^v_uu = H_u / 2, and G^v_ui = G^i_uu = H_i / 2 for i = x1, x2, x3
        got = evaluate_points([sym[(4, 0, i)] for i in range(4)] + [sym[(i, 0, 0)] for i in (1, 2, 3)], pts)
        dh = evaluate_points([diff(H, i) for i in range(4)] + [diff(H, i) for i in (1, 2, 3)], pts)
        assert np.max(np.abs(got - 0.5 * dh)) < 1e-12
        expected = {(4, 0, 0), (4, 0, 1), (4, 0, 2), (4, 0, 3), (1, 0, 0), (2, 0, 0), (3, 0, 0)}
        assert set(sym) == expected

    def test_ppwave_against_fd_oracle(self):
        H = parse("1/6 * u^2 * (x1^2+x2^2+x3^2)", W5)
        m = walker_metric(WalkerData.pp_wave(H))
        sym = christoffel(m)
        fn = matrix_fn(m)
        pts = random_points(rng_for("walkerfd"), 3, 5)
        for p, row in zip(pts, evaluate_points(list(sym.values()), pts)):
            gam = fd_christoffel(fn, p)
            sym_gam = np.zeros((5, 5, 5))
            for (k, i, j), v in zip(sym, row):
                sym_gam[k, i, j] = sym_gam[k, j, i] = v
            assert np.max(np.abs(gam - sym_gam)) < 1e-6

    def test_ads_against_fd_oracle(self):
        m = ads5_metric()
        sym = christoffel(m)
        fn = matrix_fn(m)
        pts = random_points(rng_for("adsfd"), 3, 5, lo=0.5, hi=1.4)
        for p, row in zip(pts, evaluate_points(list(sym.values()), pts)):
            gam = fd_christoffel(fn, p)
            sym_gam = np.zeros((5, 5, 5))
            for (k, i, j), v in zip(sym, row):
                sym_gam[k, i, j] = sym_gam[k, j, i] = v
            assert np.max(np.abs(gam - sym_gam)) < 1e-6

    def test_metric_compatibility(self):
        """nabla g = 0: d_k g_ij = G^l_ki g_lj + G^l_kj g_il."""
        H = parse("u*x1^2 + x2^2*x3", W5)
        m = walker_metric(WalkerData.pp_wave(H))
        sym = christoffel(m)
        pts = random_points(rng_for("nabla"), 10, 5)
        g = matrix_values(m.entries, pts)
        gam = np.zeros((len(pts), 5, 5, 5))
        for (k, i, j), v in zip(sym, evaluate_points(list(sym.values()), pts).T):
            gam[:, k, i, j] = gam[:, k, j, i] = v
        r = range(5)
        dg = evaluate_points([diff(m.entries[i][j], k) for k in r for i in r for j in r], pts)
        conn = np.einsum("plki,plj->pkij", gam, g) + np.einsum("plkj,pil->pkij", gam, g)
        assert np.max(np.abs(dg - conn.reshape(len(pts), -1))) < 1e-8


class TestRicci:
    def test_ppwave_quadratic_profile(self):
        """H = x1^2+x2^2+x3^2 has Lap_rho H = -6, hence Ric = 3 du^2."""
        m = walker_metric(WalkerData.pp_wave(parse("x1^2+x2^2+x3^2", W5)))
        for p in random_points(rng_for("ric3"), 4, 5):
            R = ricci_at(m, p)
            want = np.zeros((5, 5))
            want[0, 0] = 3.0
            assert np.max(np.abs(R - want)) < 1e-12
        fn = matrix_fn(m)
        p = (0.4, 0.8, -0.3, 0.9, 0.1)
        assert np.max(np.abs(fd_ricci(fn, p) - ricci_at(m, p))) < 1e-5

    def test_random_polynomial_profiles(self):
        rng = rng_for("ricpoly")
        for _ in range(6):
            x1, x2, x3, u = coord(1), coord(2), coord(3), coord(0)
            H = add(
                mul(float(rng.uniform(-1, 1)), intpow(x1, int(rng.integers(1, 4)))),
                mul(float(rng.uniform(-1, 1)), intpow(x2, 2), u),
                mul(float(rng.uniform(-1, 1)), x3, x1),
            )
            m = walker_metric(WalkerData.pp_wave(H))
            lap = laplace_beltrami(m, H, (1, 2, 3))
            pts = random_points(rng, 4, 5)
            R = matrix_values(ricci(m), pts)
            assert R[:, 0, 0] == pytest.approx(-0.5 * evaluate_points([lap], pts)[:, 0], abs=1e-9)
            R[:, 0, 0] = 0.0
            assert np.max(np.abs(R)) < 1e-9

    def test_ads_einstein_constant(self):
        big_l = 2.0
        m = ads5_metric(big_l)
        pts = random_points(rng_for("adsric"), 4, 5, lo=0.5, hi=1.4)
        for p, g in zip(pts, matrix_values(m.entries, pts)):
            R = ricci_at(m, p)
            assert np.max(np.abs(R - (4.0 / big_l ** 2) * g)) < 1e-10
        fn = matrix_fn(m)
        p = (0.3, 0.7, -0.2, 0.5, 1.1)
        assert np.max(np.abs(fd_ricci(fn, p) - ricci_at(m, p))) < 1e-5

    def test_round_sphere_negative_definite(self):
        """g = -g_round has Ric = -g (Einstein constant -1 for K = 1)."""
        m = sphere2_metric(1.0, negative=True)
        pts = random_points(rng_for("sph"), 5, 2, lo=-0.7, hi=0.7)
        for p, g in zip(pts, matrix_values(m.entries, pts)):
            R = ricci_at(m, p)
            assert np.max(np.abs(R + g)) < 1e-10
        fn = matrix_fn(m)
        assert np.max(np.abs(fd_ricci(fn, (0.2, -0.4)) - ricci_at(m, (0.2, -0.4)))) < 1e-5

    def test_ricci_invariant_under_overall_sign_flip(self):
        plus = sphere2_metric(1.0, negative=False)
        minus = sphere2_metric(1.0, negative=True)
        for p in random_points(rng_for("flip"), 5, 2, lo=-0.7, hi=0.7):
            assert np.max(np.abs(ricci_at(plus, p) - ricci_at(minus, p))) < 1e-8

    def test_product_ricci_is_blockwise(self):
        H = parse("1/6 * u^2 * (x1^2+x2^2+x3^2)", W5)
        gl = walker_metric(WalkerData.pp_wave(H))
        gr = flat_metric(R6, (0, 6))
        h = product_metric(ProductStructure(gl, gr))
        pts = random_points(rng_for("prodric"), 4, 11)
        R = matrix_values(ricci(h), pts)
        assert R[:, :5, :5] == pytest.approx(matrix_values(ricci(gl), [p[:5] for p in pts]), abs=1e-10)
        assert np.max(np.abs(R[:, 5:, 5:])) < 1e-12
        assert np.max(np.abs(R[:, :5, 5:])) < 1e-12

    def test_flat_product_is_flat(self):
        h = product_metric(ProductStructure(flat_metric(W5, (1, 4)), flat_metric(R6, (0, 6))))
        assert np.max(np.abs(ricci_at(h, (0.2,) * 11))) == 0.0


def curvature_values() -> dict:
    """Christoffel keys and values, and Ricci and Laplace-Beltrami values, at
    two points: for each catalog product metric (the Laplacian of h_uu), and
    for a Walker metric with a curved transverse block, whole and on the
    block (1, 2, 3) (the Laplacian of its profile)."""
    cases = {}
    for ident in catalog_ids():
        bg = build(ident)
        h = bg.metric()
        cases[ident] = (h, None, h.entries[0][0], bg.sample(2, 7))
    rho = [["-1 - x1^2", "0.1*u*x2", "0"], ["0.1*u*x2", "-2 + 0.1*x3", "0"], ["0", "0", "-1 - 0.2*x1*x2"]]
    w = WalkerData(rho=tuple(tuple(parse(e, W5) for e in row) for row in rho),
                   a=(parse("x1*u", W5), parse("0", W5), parse("x3^2", W5)),
                   h=parse("u^2*x1*x2 + sin(x3)*x1^2 + v*x2", W5))
    pts = random_points(rng_for("curvature"), 2, 5, lo=0.2, hi=0.6)
    for block in (None, (1, 2, 3)):
        cases[f"walker-{block}"] = (walker_metric(w), block, w.h, pts)
    out = {}
    for name, (m, block, s, pts) in cases.items():
        sym = christoffel(m, block)
        out[name] = {"keys": [list(k) for k in sym],
                     "christoffel": evaluate_points(list(sym.values()), pts).tolist(),
                     "ricci": matrix_values(ricci(m, block), pts).tolist(),
                     "laplace": evaluate_points([laplace_beltrami(m, s, block)], pts)[:, 0].tolist()}
    return out


class TestConnectionTable:
    """``christoffel``, ``ricci`` and ``laplace_beltrami`` read one connection
    table, kept on its metric."""

    def test_values_match_the_stored_table(self):
        """Keys and values, bit for bit, as stored in ``tests/data/curvature.json``
        from the code before the connection table.  A change that moves them
        on purpose regenerates the file, from the root of the repository:

            PYTHONPATH=src:tests python -c "import json, test_geometry as t; \\
                print(json.dumps(t.curvature_values()))" > tests/data/curvature.json
        """
        stored = json.loads((Path(__file__).parent / "data" / "curvature.json").read_text())
        assert curvature_values() == stored

    def test_caches_live_only_as_long_as_their_metric(self):
        """Building, verifying and taking Ricci of many backgrounds keeps
        nothing once they are gone."""
        def once():
            bg = build("kahler-theta")
            verify(bg, count=3)
            ricci(bg.metric())

        once()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(6):
                once()
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 1 << 20, f"{kept} bytes kept"


class TestScalarCurvature:
    def test_flat(self):
        h = product_metric(ProductStructure(flat_metric(W5, (1, 4)), flat_metric(R6, (0, 6))))
        assert scalar_curvature(h, [(0.1,) * 11]).tolist() == [0.0]

    def test_ppwave_scalar_vanishes(self):
        m = walker_metric(WalkerData.pp_wave(parse("x1^2+u*x2^2", W5)))
        pts = random_points(rng_for("scal0"), 4, 5)
        assert np.all(np.abs(scalar_curvature(m, pts)) < 1e-12)

    def test_einstein_blocks_trace(self):
        """AdS5 (L=2) gives Scal = 20/L^2 = 5; the negative-definite round
        sphere gives Scal = -2K per sphere."""
        m = ads5_metric(2.0)
        assert scalar_curvature(m, [(0.1, 0.2, 0.3, 0.4, 1.0)]) == pytest.approx([5.0], abs=1e-10)
        s = sphere2_metric(1.0, negative=True)
        assert scalar_curvature(s, [(0.2, 0.1)]) == pytest.approx([-2.0], abs=1e-10)


class TestLaplaceBeltrami:
    def test_flat_sum_of_squares(self):
        m = walker_metric(WalkerData.pp_wave(const(0.0)))
        s = parse("x1^2+x2^2+x3^2", W5)
        lap = laplace_beltrami(m, s, (1, 2, 3))
        assert evaluate(lap, (0,) * 5) == pytest.approx(-6.0)

    def test_exponential_profile(self):
        m = walker_metric(WalkerData.pp_wave(const(0.0)))
        s = parse("exp(2*x1)/4", W5)
        lap = laplace_beltrami(m, s, (1, 2, 3))
        pts = random_points(rng_for("lapexp"), 5, 5)
        assert evaluate_points([lap], pts)[:, 0] == pytest.approx([-np.exp(2 * p[1]) for p in pts], rel=1e-12)

    def test_quartic_profile(self):
        big_l = 1.0
        m = walker_metric(WalkerData.pp_wave(const(0.0)))
        s = parse("1/12*x1^4 + 1/2*x1^2", W5)  # L = 1
        lap = laplace_beltrami(m, s, (1, 2, 3))
        pts = random_points(rng_for("lapquart"), 5, 5)
        assert evaluate_points([lap], pts)[:, 0] == pytest.approx([-(big_l ** 2) - p[1] ** 2 for p in pts], rel=1e-12)

    def test_full_metric_laplacian_flat(self):
        g = flat_metric(R6, (0, 6))
        s = parse("y1^2 + y2^2", R6)
        lap = laplace_beltrami(g, s)
        assert evaluate(lap, (0.3,) * 6) == pytest.approx(-4.0)


class TestWalkerConstructor:
    def test_flat_profile_is_ricci_flat(self):
        m = walker_metric(WalkerData.pp_wave(const(0.0)))
        assert np.max(np.abs(ricci_at(m, (0.1,) * 5))) == 0.0

    def test_signature_and_null_du(self):
        m = walker_metric(WalkerData.pp_wave(parse("x1^2", W5)))
        m.check_signature(random_points(rng_for("sig"), 5, 5))

    def test_volume_flux_profile(self):
        """H = f(u)^2/6 * |x|^2 gives Ric = (1/2) f^2 du^2."""
        m = walker_metric(WalkerData.pp_wave(parse("1/6 * u^2 * (x1^2+x2^2+x3^2)", W5)))
        for p in random_points(rng_for("fric"), 4, 5):
            R = ricci_at(m, p)
            assert R[0, 0] == pytest.approx(0.5 * p[0] ** 2, abs=1e-10)

    def test_nonzero_shift_rejected_by_validator(self):
        zero = const(0.0)
        mone = const(-1.0)
        rho = tuple(tuple(mone if i == j else zero for j in range(3)) for i in range(3))
        w = WalkerData(rho=rho, a=(coord(1), zero, zero), h=parse("x1^2", W5))
        m = walker_metric(w)  # assembly itself is fine
        assert m.signature == (1, 4)
        with pytest.raises(FormError):
            validate_ricci_isotropic(w, random_points(rng_for("shift"), 3, 5))

    def test_v_dependent_profile_rejected(self):
        w = WalkerData.pp_wave(parse("v * x1", W5))
        with pytest.raises(FormError):
            validate_ricci_isotropic(w, random_points(rng_for("vdep"), 3, 5))

    def test_ricci_endomorphism_is_null(self):
        m = walker_metric(WalkerData.pp_wave(parse("1/6*u^2*(x1^2+x2^2+x3^2)", W5)))
        rng = rng_for("ricnull")
        pts = random_points(rng, 3, 5)
        for _ in range(15):  # each pair at every point
            x = rng.uniform(-1, 1, size=5)
            y = rng.uniform(-1, 1, size=5)
            assert np.all(np.abs(ricci_endomorphism_pairing(m, pts, x, y)) < 1e-12)


class TestProductStructure:
    def test_flat_product(self):
        ps = ProductStructure(flat_metric(W5, (1, 4)), flat_metric(R6, (0, 6)))
        h = product_metric(ps)
        assert h.signature == (1, 10)
        h.check_signature([(0.2,) * 11])

    def test_overlapping_names_rejected(self):
        bad = Chart(("u", "y2", "y3", "y4", "y5", "y6"))
        with pytest.raises(FormError):
            ProductStructure(flat_metric(W5, (1, 4)), flat_metric(bad, (0, 6)))

    def test_wrong_block_signature_rejected(self):
        with pytest.raises(FormError):
            ProductStructure(flat_metric(W5, (5, 0)), flat_metric(R6, (0, 6)))

    def test_ads_times_spheres_blocks(self):
        from sugra.catalog import build
        bg = build("kahler-theta")
        h = bg.metric()
        gl = bg.product.lorentz
        gr = bg.product.riemann
        pts = bg.sample(3, seed=5)
        p5s, p6s = [p[:5] for p in pts], [p[5:] for p in pts]
        gls, grs = matrix_values(gl.entries, p5s), matrix_values(gr.entries, p6s)
        ric_ls, ric_rs = matrix_values(ricci(gl), p5s), matrix_values(ricci(gr), p6s)
        for p, gl_v, gr_v, ric_l, ric_r in zip(pts, gls, grs, ric_ls, ric_rs):
            R = ricci_at(h, p)
            # Lorentz block: +c^2/2 = 1; Riemann block: -c^2/2 = -1 (K = 1)
            assert np.max(np.abs(R[:5, :5] - 1.0 * gl_v)) < 1e-10
            assert np.max(np.abs(R[5:, 5:] + 1.0 * gr_v)) < 1e-10
            assert R[:5, :5] == pytest.approx(ric_l, abs=1e-10)
            assert R[5:, 5:] == pytest.approx(ric_r, abs=1e-10)

    def test_ads_times_spheres_against_fd_oracle(self):
        from sugra.catalog import build
        bg = build("kahler-theta")
        h = bg.metric()
        fn = matrix_fn(h)
        p = bg.sample(1, seed=9)[0]
        assert np.max(np.abs(fd_ricci(fn, p) - ricci_at(h, p))) < 1e-5
