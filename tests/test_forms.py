"""Wedge, exterior derivative, interior product, inner products, Hodge star."""

import ast
import functools
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import flat_metric, lift, random_form, random_points, rng_for, values

from sugra.expr import (Chart, add, const, coord, cos, evaluate, evaluate_points, intpow, mul, parse, sin,
                        _as_expr)
from sugra.forms import (
    ChartMismatch,
    DegreeError,
    FormError,
    KForm,
    Metric,
    SingularMetricError,
    coordinate_form,
    ext_d,
    form_inner,
    hodge,
    interior,
    monomial_form,
    pullback,
    volume_form,
    wedge,
    zero_form,
)
from sugra.geometry import WALKER_CHART, WalkerData, walker_metric

W5 = WALKER_CHART
R6 = Chart(("y1", "y2", "y3", "y4", "y5", "y6"))
C11 = Chart(W5.names + R6.names)


def chain_metric() -> Metric:
    """The Riemannian block of perfbench/stress-offdiag.bg: diagonal
    -(2 + y_i^2/10) and the off-diagonal chain y_i y_(i+1)/10, i = 1..3."""
    rows = [[const(0.0)] * 6 for _ in range(6)]
    for i, y in enumerate(R6.names):
        rows[i][i] = parse(f"-(2 + 0.1 * {y}^2)", R6)
        if i < 3:
            rows[i][i + 1] = parse(f"0.1 * {y} * {R6.names[i + 1]}", R6)
    return Metric(R6, rows, (0, 6))


def twisted_walker_metric() -> Metric:
    """A Walker metric with nonzero A and a non-diagonal transverse block."""
    rho = (("-(1 + 0.1 * x1^2)", "0.1 * x1 * x2", "0"),
           ("0.1 * x1 * x2", "-(1 + 0.1 * x2^2)", "0.1 * u * x3"),
           ("0", "0.1 * u * x3", "-(1 + 0.1 * x3^2)"))
    return walker_metric(WalkerData(
        rho=tuple(tuple(parse(e, W5) for e in row) for row in rho),
        a=tuple(parse(e, W5) for e in ("0.3 * x2", "0.2 * u * x1", "0.1 * x3^2")),
        h=parse("x1^2 + u * x2^2 + v * x3", W5)))


def form_values_equal(a: KForm, b: KForm, pts, tol=1e-9):
    zero = _as_expr(0.0)
    keys = sorted(set(a.coeffs) | set(b.coeffs))
    va = evaluate_points([a.coeffs.get(k, zero) for k in keys], pts)
    vb = evaluate_points([b.coeffs.get(k, zero) for k in keys], pts)
    worst = float(np.max(np.abs(va - vb), initial=0.0))
    return worst <= tol, worst


class TestWedge:
    def test_one_form_squares_to_zero(self):
        du = coordinate_form(W5, "u")
        assert wedge(du, du).is_zero

    def test_basis_wedge(self):
        a = monomial_form(W5, 1.0, ("x1", "x2"))
        b = coordinate_form(W5, "x3")
        w = wedge(a, b)
        assert list(w.coeffs) == [(1, 2, 3)]
        assert evaluate(w.coeffs[(1, 2, 3)], (0,) * 5) == 1.0

    def test_common_du_factor_kills_the_square(self):
        rng = rng_for("dusqr")
        du = coordinate_form(W5, "u")
        for _ in range(5):
            body = random_form(W5, 3, rng)
            phi = wedge(du, body)
            assert wedge(phi, phi).is_zero

    @pytest.mark.parametrize("chart", [W5, R6, C11], ids=["5", "6", "11"])
    def test_graded_commutativity(self, chart):
        rng = rng_for(f"graded{chart.dim}")
        pts = random_points(rng, 5, chart.dim)
        for ka in range(0, 5):
            for kb in range(0, 5):
                if ka + kb > chart.dim:
                    continue
                a = random_form(chart, ka, rng)
                b = random_form(chart, kb, rng)
                lhs = wedge(a, b)
                rhs = wedge(b, a).scale(const((-1.0) ** (ka * kb)))
                ok, worst = form_values_equal(lhs, rhs, pts, tol=1e-12)
                assert ok, f"graded commutativity violated by {worst}"

    @pytest.mark.parametrize("chart", [R6, C11], ids=["6", "11"])
    def test_associativity_on_larger_charts(self, chart):
        rng = rng_for(f"assoc{chart.dim}")
        pts = random_points(rng, 4, chart.dim)
        a = random_form(chart, 2, rng)
        b = random_form(chart, 1, rng)
        c = random_form(chart, 1, rng)
        ok, worst = form_values_equal(wedge(wedge(a, b), c), wedge(a, wedge(b, c)), pts, 1e-12)
        assert ok, worst

    def test_associativity_and_bilinearity(self):
        rng = rng_for("assoc")
        pts = random_points(rng, 4, 5)
        a = random_form(W5, 1, rng)
        b = random_form(W5, 1, rng)
        c = random_form(W5, 2, rng)
        ok, worst = form_values_equal(wedge(wedge(a, b), c), wedge(a, wedge(b, c)), pts, 1e-12)
        assert ok, worst
        s = random_form(W5, 1, rng)
        lhs = wedge(a + s, c)
        rhs = wedge(a, c) + wedge(s, c)
        ok, worst = form_values_equal(lhs, rhs, pts, 1e-12)
        assert ok, worst

    def test_degree_overflow_returns_zero_form(self):
        a = random_form(W5, 3, rng_for("ovf"))
        b = random_form(W5, 3, rng_for("ovf2"))
        assert wedge(a, b).is_zero

    def test_chart_mismatch(self):
        with pytest.raises(ChartMismatch):
            wedge(coordinate_form(W5, "u"), coordinate_form(R6, "y1"))


class TestExteriorDerivative:
    def test_coordinate_coefficient(self):
        a = coordinate_form(W5, "x2").scale(coord(1))  # x1 * dx2
        d = ext_d(a)
        assert list(d.coeffs) == [(1, 2)]
        assert evaluate(d.coeffs[(1, 2)], (0,) * 5) == 1.0

    def test_u_dependent_top_block_form_is_closed(self):
        alpha = monomial_form(W5, parse("sin(u)", W5), ("u", "x1", "x2", "x3"))
        assert ext_d(alpha).is_zero

    def test_dd_is_zero(self):
        rng = rng_for("ddzero")
        pts = random_points(rng, 50, 5)
        for _ in range(8):
            a = random_form(W5, 2, rng, polynomial_only=True)
            dd = ext_d(ext_d(a))
            assert np.all(np.abs(evaluate_points(list(dd.coeffs.values()), pts)) <= 1e-9)

    def test_leibniz(self):
        rng = rng_for("leibniz")
        pts = random_points(rng, 50, 5)
        for ka in (1, 2):
            a = random_form(W5, ka, rng)
            b = random_form(W5, 1, rng)
            lhs = ext_d(wedge(a, b))
            rhs = wedge(ext_d(a), b) + wedge(a, ext_d(b)).scale(const((-1.0) ** ka))
            ok, worst = form_values_equal(lhs, rhs, pts, 1e-9)
            assert ok, f"Leibniz violated by {worst}"


C4 = Chart(("p", "q", "r", "s"))
C4_POINTS = [(0.3, -0.7, 1.1, 0.2), (-1.2, 0.5, 0.0, 0.9), (0.8, 0.8, -0.4, -1.5)]
W5_POINTS = [(0.3, -0.7, 1.1, 0.2, 0.5), (-1.2, 0.5, 0.0, 0.9, -0.4), (0.8, 0.8, -0.4, -1.5, 0.1)]


@functools.cache
def scalars(n: int):
    """Scalars on an n-chart: sums, products, sines and cosines of at most
    six leaves (coordinates, their squares and cubes, small integers), so
    their values and derivatives at C4_POINTS stay small enough for an
    absolute 1e-9.  Composed with a map, they are compared to scale
    (:func:`agree_to_scale`)."""
    return st.recursive(
        st.one_of(st.integers(0, n - 1).map(coord), st.integers(-3, 3).map(const),
                  st.tuples(st.integers(0, n - 1).map(coord), st.integers(2, 3)).map(lambda t: intpow(*t))),
        lambda kids: st.one_of(st.tuples(kids, kids).map(lambda t: add(*t)),
                               st.tuples(kids, kids).map(lambda t: mul(*t)),
                               kids.map(sin), kids.map(cos)),
        max_leaves=6)


@st.composite
def chart_forms(draw, degree: int, chart: Chart = C4) -> KForm:
    keys = list(itertools.combinations(range(chart.dim), degree))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=3))
    return KForm(chart, degree, {k: draw(scalars(chart.dim)) for k in chosen})


def w5_forms(degree: int):
    return chart_forms(degree, W5)


@st.composite
def w5_maps(draw) -> list:
    """A polynomial map of the 5-chart to itself: each coordinate x_i plus at
    most two terms c x_j or c x_j x_k, with |c| at most 1/2."""
    monomials = st.lists(st.integers(0, 4).map(coord), min_size=1, max_size=2)
    terms = st.tuples(st.sampled_from([-0.5, -0.25, 0.25, 0.5]), monomials).map(lambda t: mul(t[0], *t[1]))
    return [add(coord(i), *draw(st.lists(terms, max_size=2))) for i in range(5)]


def agree_to_scale(a: KForm, b: KForm, pts) -> tuple[bool, float]:
    """:func:`form_values_equal` to 1e-9 of the largest component of ``a``
    at ``pts``, or of 1 if that is smaller."""
    top = np.max(np.abs(evaluate_points(list(a.coeffs.values()), pts)), initial=1.0)
    return form_values_equal(a, b, pts, 1e-9 * float(top))


class TestProperties:
    """Laws of the exterior derivative on random forms over a 4-chart, and
    the naturality of the pullback under polynomial maps of the 5-chart."""

    @settings(max_examples=40, deadline=2000, derandomize=True, database=None)
    @given(st.integers(0, 2).flatmap(chart_forms))
    def test_d_squared_is_zero(self, a):
        dd = ext_d(ext_d(a))
        ok, worst = form_values_equal(dd, zero_form(C4, a.degree + 2), C4_POINTS)
        assert ok, worst

    @settings(max_examples=40, deadline=2000, derandomize=True, database=None)
    @given(st.integers(0, 3).flatmap(lambda k: st.tuples(chart_forms(k), chart_forms(3 - k))))
    def test_graded_leibniz(self, pair):
        """``d(a ^ b) = da ^ b + (-1)^k a ^ db`` for a k-form a."""
        a, b = pair
        lhs = ext_d(wedge(a, b))
        rhs = wedge(ext_d(a), b) + wedge(a, ext_d(b)).scale(const((-1.0) ** a.degree))
        ok, worst = form_values_equal(lhs, rhs, C4_POINTS)
        assert ok, worst

    @settings(max_examples=40, deadline=2000, derandomize=True, database=None)
    @given(st.integers(0, 3).flatmap(w5_forms), w5_maps())
    def test_pullback_commutes_with_d(self, a, phi):
        """``phi*(da) = d(phi* a)``."""
        ok, worst = agree_to_scale(pullback(ext_d(a), W5, phi), ext_d(pullback(a, W5, phi)), W5_POINTS)
        assert ok, worst

    @settings(max_examples=40, deadline=2000, derandomize=True, database=None)
    @given(st.integers(0, 4).flatmap(lambda k: st.tuples(w5_forms(k), st.integers(0, 4 - k).flatmap(w5_forms))),
           w5_maps())
    def test_pullback_commutes_with_wedge(self, pair, phi):
        """``phi*(a ^ b) = phi* a ^ phi* b``."""
        a, b = pair
        ok, worst = agree_to_scale(pullback(wedge(a, b), W5, phi),
                                   wedge(pullback(a, W5, phi), pullback(b, W5, phi)), W5_POINTS)
        assert ok, worst


class TestInterior:
    def test_coordinate_pairing_on_walker_chart(self):
        du_dx1 = monomial_form(W5, 1.0, ("u", "x1"))
        d_dv = [0.0, 0.0, 0.0, 0.0, 1.0]
        d_du = [1.0, 0.0, 0.0, 0.0, 0.0]
        d_dx2 = [0.0, 0.0, 1.0, 0.0, 0.0]
        # dv pairs with du only through the metric, not through the plain
        # coordinate pairing used by the interior product.
        assert interior(d_dv, du_dx1).is_zero
        got = interior(d_du, du_dx1)
        assert list(got.coeffs) == [(1,)]
        assert evaluate(got.coeffs[(1,)], (0,) * 5) == 1.0
        assert interior(d_dx2, du_dx1).is_zero

    def test_flat_kahler_contraction(self):
        omega = (monomial_form(R6, 1.0, ("y1", "y2"))
                 + monomial_form(R6, 1.0, ("y3", "y4"))
                 + monomial_form(R6, 1.0, ("y5", "y6")))
        got = interior([1, 0, 0, 0, 0, 0], omega)
        assert list(got.coeffs) == [(1,)]
        assert evaluate(got.coeffs[(1,)], (0,) * 6) == 1.0

    def test_degree_zero_gives_zero_form(self):
        f = KForm(W5, 0, {(): coord(0)})
        assert interior([1, 0, 0, 0, 0], f).is_zero

    def test_antiderivation(self):
        rng = rng_for("antider")
        pts = random_points(rng, 10, 5)
        a = random_form(W5, 2, rng)
        b = random_form(W5, 1, rng)
        comps = [coord(0), const(2.0), coord(2), const(0.5), coord(1)]
        lhs = interior(comps, wedge(a, b))
        rhs = wedge(interior(comps, a), b) + wedge(a, interior(comps, b))
        ok, worst = form_values_equal(lhs, rhs, pts, 1e-10)
        assert ok, worst


class TestInnerProduct:
    def test_du_is_null_on_walker_chart(self):
        m = walker_metric(WalkerData.pp_wave(parse("x1^2", W5)))
        du = coordinate_form(W5, "u")
        pts = random_points(rng_for("null"), 5, 5)
        assert form_inner(du, du, m, pts) == pytest.approx([0.0] * 5, abs=1e-12)

    def test_flat_kahler_norm_is_three(self):
        g = flat_metric(R6, (0, 6))
        delta = (monomial_form(R6, 1.0, ("y1", "y2"))
                 + monomial_form(R6, 1.0, ("y3", "y4"))
                 + monomial_form(R6, 1.0, ("y5", "y6")))
        assert form_inner(delta, delta, g, [(0.1,) * 6]) == pytest.approx([3.0])

    def test_two_form_on_negative_block(self):
        ch3 = Chart(("x1", "x2", "x3"))
        rho = flat_metric(ch3, (0, 3))
        a = monomial_form(ch3, 1.0, ("x1", "x2"))
        assert form_inner(a, a, rho, [(0.0, 0.0, 0.0)]) == pytest.approx([1.0])

    def test_sign_alternates_with_degree_on_negative_block(self):
        g = flat_metric(R6, (0, 6))
        rng = rng_for("signs")
        p = (0.3,) * 6
        for k in range(5):
            a = random_form(R6, k, rng, nkeys=2)
            n = form_inner(a, a, g, [p])[0]
            if abs(n) > 1e-12:
                assert np.sign(n) == (-1.0) ** k

    def test_degree_mismatch(self):
        g = flat_metric(R6, (0, 6))
        with pytest.raises(DegreeError):
            form_inner(coordinate_form(R6, "y1"), monomial_form(R6, 1.0, ("y1", "y2")), g, [(0,) * 6])

    def test_singular_metric_reported(self):
        ch = Chart(("a", "b"))
        m = Metric(ch, [[coord(0), 0.0], [0.0, 1.0]], (2, 0))
        with pytest.raises(SingularMetricError, match=r"degenerate at \(0\.0, 1\.0\)"):
            form_inner(coordinate_form(ch, "a"), coordinate_form(ch, "a"), m,
                       [(1.0, 1.0), (0.0, 1.0), (0.0, 2.0)])

    def test_wrong_signature_reported(self):
        ch = Chart(("a", "b"))
        m = Metric(ch, [[coord(0), 0.1], [0.1, 1.0]], (2, 0))
        with pytest.raises(FormError, match=r"1 negative eigenvalues at \(-1\.0, 1\.0\), declared 0"):
            form_inner(coordinate_form(ch, "a"), coordinate_form(ch, "a"), m,
                       [(1.0, 1.0), (-1.0, 1.0), (-2.0, 1.0)])


class TestHodge:
    SIGNATURES = {
        (1, 4): Chart(("t", "a1", "a2", "a3", "a4")),
        (0, 6): R6,
        (1, 10): Chart(tuple(f"c{i}" for i in range(11))),
    }

    @pytest.mark.parametrize("signature", [(1, 4), (0, 6), (1, 10)])
    def test_defining_identity(self, signature):
        chart = self.SIGNATURES[signature]
        m = flat_metric(chart, signature)
        rng = rng_for(f"def{signature}")
        vol = volume_form(m)
        pts = random_points(rng, 3, chart.dim)
        for _ in range(25):
            k = int(rng.integers(0, 5))
            a = random_form(chart, k, rng)
            b = random_form(chart, k, rng)
            lhs = wedge(a, hodge(b, m))
            top = tuple(range(chart.dim))
            lv = values(lhs.coeffs.get(top, const(0.0)), pts)
            rv = form_inner(a, b, m, pts) * values(vol.coeffs[top], pts)
            assert np.all(np.abs(lv - rv) < 1e-9)

    @pytest.mark.parametrize("signature", [(1, 4), (0, 6), (1, 10)])
    def test_double_star_law(self, signature):
        chart = self.SIGNATURES[signature]
        n = chart.dim
        q = signature[1]
        m = flat_metric(chart, signature)
        rng = rng_for(f"dbl{signature}")
        pts = random_points(rng, 3, n)
        for _ in range(25):
            k = int(rng.integers(0, 5))
            a = random_form(chart, k, rng)
            ss = hodge(hodge(a, m), m)
            sign = (-1.0) ** (k * (n - k) + q)
            ok, worst = form_values_equal(ss, a.scale(const(sign)), pts, 1e-9)
            assert ok, f"double star violated by {worst}"

    def test_defining_identity_on_curved_metric(self):
        m = walker_metric(WalkerData.pp_wave(parse("x1^2 + u*x2^2", W5)))
        rng = rng_for("defwalker")
        vol = volume_form(m)
        pts = random_points(rng, 4, 5)
        for k in (1, 2, 3):
            a = random_form(W5, k, rng)
            b = random_form(W5, k, rng)
            lhs = wedge(a, hodge(b, m))
            lv = values(lhs.coeffs.get((0, 1, 2, 3, 4), const(0.0)), pts)
            rv = form_inner(a, b, m, pts) * values(vol.coeffs[(0, 1, 2, 3, 4)], pts)
            assert np.all(np.abs(lv - rv) < 1e-9)

    @pytest.mark.parametrize("build", [chain_metric, twisted_walker_metric])
    def test_identities_on_non_diagonal_metric(self, build):
        """``a ^ *b = <a,b> vol`` and the double-star law in every degree on
        metrics whose inverse has off-diagonal entries."""
        m = build()
        chart, n, q = m.chart, m.dim, m.signature[1]
        rng = rng_for(f"nondiag-{build.__name__}")
        pts = random_points(rng, 3, n)
        m.check_signature(pts)
        vol = volume_form(m)
        top = tuple(range(n))
        for k in range(n + 1):
            a = random_form(chart, k, rng, nkeys=2)
            b = a + random_form(chart, k, rng, nkeys=2)
            lhs = wedge(a, hodge(b, m))
            lv = values(lhs.coeffs.get(top, const(0.0)), pts)
            rv = form_inner(a, b, m, pts) * values(vol.coeffs[top], pts)
            assert np.all(np.abs(lv - rv) < 1e-9 * np.maximum(1.0, np.abs(rv))), (k, lv - rv)
            ss = hodge(hodge(a, m), m)
            sign = (-1.0) ** (k * (n - k) + q)
            ok, worst = form_values_equal(ss, a.scale(const(sign)), pts, 1e-9)
            assert ok, f"double star violated by {worst} in degree {k}"

    def test_kahler_identity_star_is_half_square_flat(self):
        g = flat_metric(R6, (0, 6))
        delta = (monomial_form(R6, 1.0, ("y1", "y2"))
                 + monomial_form(R6, 1.0, ("y3", "y4"))
                 + monomial_form(R6, 1.0, ("y5", "y6")))
        lhs = hodge(delta, g)
        rhs = wedge(delta, delta).scale(const(0.5))
        ok, worst = form_values_equal(lhs, rhs, [(0.2,) * 6], 1e-12)
        assert ok, worst

    def test_defining_identity_dense_point_sweep(self):
        """x ^ star(y) - <x,y> vol vanishes at 100 generic points."""
        rng = rng_for("dense")
        for signature in ((1, 4), (0, 6), (1, 10)):
            chart = self.SIGNATURES[signature]
            m = flat_metric(chart, signature)
            vol = volume_form(m)
            top = tuple(range(chart.dim))
            pts = random_points(rng, 100, chart.dim)
            for k in (1, 2):
                a = random_form(chart, k, rng)
                b = random_form(chart, k, rng)
                lhs = wedge(a, hodge(b, m))
                lv = values(lhs.coeffs.get(top, const(0.0)), pts)
                rv = form_inner(a, b, m, pts) * values(vol.coeffs[top], pts)
                assert np.all(np.abs(lv - rv) < 1e-8)


class TestProductIdentities:
    """Hodge factorization on the (5, 6) product chart."""

    def _product(self):
        gl = flat_metric(W5, (1, 4))
        gr = flat_metric(R6, (0, 6))
        from sugra.geometry import ProductStructure, product_metric
        ps = ProductStructure(gl, gr)
        return gl, gr, product_metric(ps)

    def test_star_of_lorentz_form(self):
        gl, gr, h = self._product()
        rng = rng_for("row1")
        pts = random_points(rng, 3, 11)
        for kt in range(0, 5):
            a5 = random_form(W5, kt, rng)
            lhs = hodge(lift(a5, C11), h)
            rhs = wedge(lift(hodge(a5, gl), C11), lift(volume_form(gr), C11))
            ok, worst = form_values_equal(lhs, rhs, pts, 1e-9)
            assert ok, f"star(a5) != star5(a5)^vol_R by {worst}"

    def test_star_of_riemann_form(self):
        gl, gr, h = self._product()
        rng = rng_for("row2")
        pts = random_points(rng, 3, 11)
        for k in range(0, 5):
            b6 = random_form(R6, k, rng)
            lhs = hodge(lift(b6, C11), h)
            rhs = wedge(lift(hodge(b6, gr), C11), lift(volume_form(gl), C11))
            rhs = rhs.scale(const((-1.0) ** (5 * 6)))
            ok, worst = form_values_equal(lhs, rhs, pts, 1e-9)
            assert ok, f"star(b6) != (-1)^(pq) star6(b6)^vol_L by {worst}"

    def test_star_of_volume_forms(self):
        gl, gr, h = self._product()
        # star(vol_L) = (-1)^s~ vol_R with s~ = 4;  star(vol_R) = (-1)^s (-1)^(pq) vol_L
        sv = hodge(lift(volume_form(gl), C11), h)
        want = lift(volume_form(gr), C11)
        ok, worst = form_values_equal(sv, want, [(0.1,) * 11], 1e-12)
        assert ok, worst
        sv2 = hodge(lift(volume_form(gr), C11), h)
        want2 = lift(volume_form(gl), C11)
        ok, worst = form_values_equal(sv2, want2, [(0.1,) * 11], 1e-12)
        assert ok, worst

    def test_product_norm_splits(self):
        gl, gr, h = self._product()
        rng = rng_for("row4")
        pts = random_points(rng, 4, 11)
        for kt, k in [(2, 1), (1, 2), (3, 0)]:
            a5 = random_form(W5, kt, rng)
            b6 = random_form(R6, k, rng)
            big = wedge(lift(a5, C11), lift(b6, C11))
            lhs = form_inner(big, big, h, pts)
            rhs = (form_inner(a5, a5, gl, [p[:5] for p in pts])
                   * form_inner(b6, b6, gr, [p[5:] for p in pts]))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_star_of_mixed_product(self):
        gl, gr, h = self._product()
        rng = rng_for("row5")
        pts = random_points(rng, 3, 11)
        for kt, k in [(2, 2), (1, 3), (3, 1), (4, 0), (0, 4)]:
            a5 = random_form(W5, kt, rng)
            b6 = random_form(R6, k, rng)
            big = wedge(lift(a5, C11), lift(b6, C11))
            lhs = hodge(big, h)
            rhs = wedge(lift(hodge(a5, gl), C11), lift(hodge(b6, gr), C11))
            rhs = rhs.scale(const((-1.0) ** (k * (5 - kt))))
            ok, worst = form_values_equal(lhs, rhs, pts, 1e-9)
            assert ok, f"mixed star factorization off by {worst}"


class TestPullback:
    def test_project_then_include_is_the_identity(self):
        """A 6-chart form pulled back to the product chart by the projection,
        then back by an inclusion ``y -> (0.3, ..., 0.3, y)``, is itself."""
        rng = rng_for("embed")
        a = random_form(R6, 2, rng)
        back = pullback(lift(a, C11), R6, [const(0.3)] * 5 + [coord(i) for i in range(6)])
        pts = random_points(rng, 3, 6)
        ok, worst = form_values_equal(a, back, pts, 1e-12)
        assert ok, worst


class TestMetricValidation:
    def test_signature_check(self):
        m = flat_metric(W5, (1, 4))
        m.check_signature([(0.1,) * 5])
        bad = Metric(W5, [[1.0 if i == j else 0.0 for j in range(5)] for i in range(5)], (1, 4))
        with pytest.raises(Exception):
            bad.check_signature([(0.1,) * 5])

    def test_linalg_only_in_the_shared_solver(self):
        """Every numeric metric solve goes through ``forms.solve_blocks``:
        ``np.linalg`` appears nowhere else in the package, apart from the
        Gram-minor determinants of ``_gram_det``."""
        allowed = {("solve_blocks", "det"), ("solve_blocks", "eigvalsh"), ("solve_blocks", "inv"),
                   ("_gram_det", "det")}
        uses = set()

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) \
                    and node.value.attr == "linalg":
                uses.add((where, node.attr))
                return
            if isinstance(node, ast.Attribute) and node.attr == "linalg" or \
                    isinstance(node, (ast.Import, ast.ImportFrom)) and "linalg" in ast.unparse(node):
                uses.add((where, ast.unparse(node)))
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        for path in sorted((Path(__file__).resolve().parent.parent / "src" / "sugra").glob("*.py")):
            visit(ast.parse(path.read_text()), path.name)
        assert uses <= allowed, uses - allowed

    def test_zero_form_representable_and_skipped(self):
        z = zero_form(W5, 2)
        assert z.is_zero and z.coeffs == {}
        w = wedge(z, coordinate_form(W5, "u"))
        assert w.is_zero
        assert ext_d(z).is_zero
        s = hodge(z, flat_metric(W5, (1, 4)))
        assert s.is_zero

    def test_intpow_sanity(self):
        # guard: evaluate of intpow expressions used throughout metric entries
        e = intpow(add(coord(0), 1.0), -2)
        assert evaluate(e, (1.0,)) == pytest.approx(0.25)
        assert evaluate(mul(2.0, e), (0.0,)) == pytest.approx(2.0)
