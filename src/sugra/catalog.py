"""Parameterized builders for the catalog of explicit backgrounds, plus the
flat-transverse polynomial solver that manufactures Walker profiles H from a
prescribed Laplacian.

Seven entries are plane-fronted-wave products (null flux with a du factor,
Ricci-flat Riemannian block), one is a product of anti-de-Sitter space with
a triple of round 2-spheres carrying a Kaehler 4-form flux.  Every numeric
constant in a builder is either a documented default or computed in place
from the factor-metric norms of the flux pieces.

Note on ``alphabeta-poly``: its 1-form ``nu = -y1 dy1 + sqrt(L^2-y1^2) dy2``
has constant norm and the right coderivative but is not closed, so the
assembled flux fails dF = 0 (the other three residual families pass).  The
builder constructs it exactly as specified and the verifier reports the
failure honestly; no closed constant-norm 1-form with the required
coderivative exists on a flat block (it would need a function with both
|grad f| constant and a nonzero constant Laplacian).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .expr import (
    Chart,
    Expr,
    add,
    coord,
    const,
    depends_on,
    div,
    exp,
    intpow,
    is_zero,
    mul,
    neg,
    parse,
    sin,
    cos,
    sqrt,
)
from .expr import Add, Coord, Div, IntPow, Mul, Neg
from .forms import KForm, Metric, coordinate_form, form_inner, hodge, monomial_form
from .geometry import WALKER_CHART, ProductStructure, WalkerData, walker_metric
from .equations import Background, FluxSpec

__all__ = [
    "CatalogEntry",
    "CatalogError",
    "SolverError",
    "CATALOG",
    "catalog_ids",
    "get_entry",
    "build",
    "solve_walker_H",
]


class CatalogError(Exception):
    """Unknown id, bad parameter, or bad perturbation."""


class SolverError(Exception):
    """Right-hand side outside the polynomial solver's domain."""


# ---------------------------------------------------------------------------
# Polynomial profile solver on the flat transverse block.
# ---------------------------------------------------------------------------

_X_NAMES = ("x1", "x2", "x3")


def _poly_in_x(e: Expr, x_idx: tuple[int, int, int], v_idx: int):
    """Decompose ``e`` as a polynomial in the transverse coordinates with
    u-dependent coefficients: dict (a, b, c) -> coefficient expression."""
    bad = x_idx + (v_idx,)
    if depends_on(e, (v_idx,)):
        raise SolverError("right-hand side depends on v")
    if not depends_on(e, bad):
        return {(0, 0, 0): e}
    if isinstance(e, Coord):
        pos = x_idx.index(e.index)
        key = tuple(1 if i == pos else 0 for i in range(3))
        return {key: const(1.0)}
    if isinstance(e, Add):
        out: dict = {}
        for t in e.terms:
            for k, v in _poly_in_x(t, x_idx, v_idx).items():
                out[k] = add(out[k], v) if k in out else v
        return out
    if isinstance(e, Neg):
        return {k: neg(v) for k, v in _poly_in_x(e.arg, x_idx, v_idx).items()}
    if isinstance(e, Mul):
        return _poly_product(_poly_in_x(f, x_idx, v_idx) for f in e.factors)
    if isinstance(e, IntPow):
        if e.exponent < 0:
            raise SolverError("negative power of a transverse coordinate")
        return _poly_product([_poly_in_x(e.base, x_idx, v_idx)] * e.exponent)
    if isinstance(e, Div):
        if depends_on(e.den, bad):
            raise SolverError("transverse coordinate in a denominator")
        return {k: div(v, e.den) for k, v in _poly_in_x(e.num, x_idx, v_idx).items()}
    raise SolverError(f"non-polynomial dependence on the transverse coordinates: {type(e).__name__}")


def _poly_product(polys: Iterable[dict]) -> dict:
    """Product of :func:`_poly_in_x` decompositions, taken left to right."""
    out = {(0, 0, 0): const(1.0)}
    for b in polys:
        nxt: dict = {}
        for ka, va in out.items():
            for kb, vb in b.items():
                k = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
                term = mul(va, vb)
                nxt[k] = add(nxt[k], term) if k in nxt else term
        out = nxt
    return out


def solve_walker_H(rhs: Expr, chart: Chart = WALKER_CHART) -> Expr:
    """Return a polynomial profile H with ``Lap_rho(H) = rhs`` exactly, for
    the flat negative-definite transverse block (``Lap_rho H = -sum H_xixi``).

    A right-hand side constant in the transverse coordinates c0 (it may
    still depend on u) yields the rotationally symmetric profile
    ``-c0/6 * (x1^2 + x2^2 + x3^2)``.  Otherwise the solution is built
    monomial by monomial through repeated antidifferentiation in x1 with
    zero integration constants, higher transverse powers absorbing the
    stray terms, so it reduces to plain double antidifferentiation in x1
    whenever rhs depends only on x1.
    """
    x_idx = tuple(chart.index(n) for n in _X_NAMES)
    v_idx = chart.index("v")
    mono = _poly_in_x(rhs, x_idx, v_idx)
    mono = {k: v for k, v in mono.items() if not is_zero(v)}
    xs = [coord(i) for i in x_idx]
    if set(mono) <= {(0, 0, 0)}:
        c0 = mono.get((0, 0, 0), const(0.0))
        r2 = add(*[intpow(x, 2) for x in xs])
        return mul(const(-1.0 / 6.0), c0, r2)
    # sum_i H_xixi = -rhs
    q = {k: neg(v) for k, v in mono.items()}
    h_mono: dict = {}
    while q:
        key = max(q, key=lambda k: (k[1] + k[2], k))
        gamma = q.pop(key)
        if is_zero(gamma):
            continue
        a, b, c = key
        coeff = mul(gamma, const(1.0 / ((a + 1) * (a + 2))))
        tgt = (a + 2, b, c)
        h_mono[tgt] = add(h_mono[tgt], coeff) if tgt in h_mono else coeff
        if b >= 2:
            k2 = (a + 2, b - 2, c)
            corr = neg(mul(coeff, const(float(b * (b - 1)))))
            q[k2] = add(q[k2], corr) if k2 in q else corr
        if c >= 2:
            k2 = (a + 2, b, c - 2)
            corr = neg(mul(coeff, const(float(c * (c - 1)))))
            q[k2] = add(q[k2], corr) if k2 in q else corr
    terms = []
    for (a, b, c), coeff in h_mono.items():
        if is_zero(coeff):
            continue
        terms.append(mul(coeff, intpow(xs[0], a), intpow(xs[1], b), intpow(xs[2], c)))
    return add(*terms)


# ---------------------------------------------------------------------------
# Shared builder helpers.
# ---------------------------------------------------------------------------

R6_CHART = Chart(("y1", "y2", "y3", "y4", "y5", "y6"))
BETA_R6_CHART = Chart(("t", "y2", "y3", "y4", "y5", "y6"))
RHO3_CHART = Chart(_X_NAMES)


def _flat_riemann(chart: Chart = R6_CHART) -> Metric:
    """The flat negative-definite metric: the 6-block, or on ``RHO3_CHART``."""
    n = chart.dim
    rows = [[const(-1.0) if i == j else const(0.0) for j in range(n)] for i in range(n)]
    return Metric(chart, rows, (0, n))


def _du() -> KForm:
    return coordinate_form(WALKER_CHART, "u")


def _walker_box(y_ranges=None):
    box = [(0.5, 1.5), (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)]
    box += list(y_ranges) if y_ranges else [(-1.0, 1.0)] * 6
    return box


def _walker_background(ident, summary, h_profile, flux, riemann, box, perturb,
                       predicate=None) -> Background:
    if "H" in perturb:
        h_profile = mul(const(perturb["H"]), h_profile)
    g5 = walker_metric(WalkerData.pp_wave(h_profile))
    ps = ProductStructure(g5, riemann)
    return Background(ps, flux, box, ident, summary, predicate)


# Transverse-block norms used by the profile equations, computed from the
# factor metrics rather than hard-coded.
def _norm_on(metric: Metric, form: KForm) -> float:
    center = tuple(0.1 * (i + 1) for i in range(metric.dim))
    return float(form_inner(form, form, metric, [center])[0])


# ---------------------------------------------------------------------------
# Builders.
# ---------------------------------------------------------------------------

def _build_alpha_ppwave(params, perturb):
    fu = parse(params["f"], WALKER_CHART) if isinstance(params["f"], str) else params["f"]
    if depends_on(fu, (1, 2, 3, 4)):
        raise CatalogError("profile function f must depend on u only")
    rho3 = _flat_riemann(RHO3_CHART)
    vol_norm = _norm_on(rho3, monomial_form(rho3.chart, 1.0, _X_NAMES))  # -1
    rhs = mul(const(vol_norm), fu, fu)
    h_profile = solve_walker_H(rhs)
    alpha = monomial_form(WALKER_CHART, fu, ("u", "x1", "x2", "x3"))
    flux = FluxSpec(alpha=alpha, phi=const(1.0))
    return _walker_background(
        "alpha-ppwave",
        "plane wave with null volume flux f(u) du^dx1^dx2^dx3 over flat R^6",
        h_profile, flux, _flat_riemann(), _walker_box(), perturb)


def _build_beta_nu_ppwave(params, perturb):
    riemann = _flat_riemann(BETA_R6_CHART)
    beta = monomial_form(WALKER_CHART, 1.0, ("u", "x1", "x2"))
    nu = coordinate_form(BETA_R6_CHART, "t")
    rho3 = _flat_riemann(RHO3_CHART)
    omega_norm = _norm_on(rho3, monomial_form(rho3.chart, 1.0, ("x1", "x2")))  # +1
    nu_norm = _norm_on(riemann, nu)  # -1
    h_profile = solve_walker_H(const(omega_norm * nu_norm))
    flux = FluxSpec(beta=beta, nu=nu)
    return _walker_background(
        "beta-nu-ppwave",
        "plane wave with null 3-form flux du^dx1^dx2 wedged with dt on flat R x R^5",
        h_profile, flux, riemann, _walker_box(), perturb)


def _kahler_form_flat(chart: Chart) -> KForm:
    pairs = ((chart.names[0], chart.names[1]), (chart.names[2], chart.names[3]),
             (chart.names[4], chart.names[5]))
    out = monomial_form(chart, 1.0, pairs[0])
    for p in pairs[1:]:
        out = out + monomial_form(chart, 1.0, p)
    return out


def _build_gamma_delta_ppwave(params, perturb):
    riemann = _flat_riemann()
    gamma = monomial_form(WALKER_CHART, 1.0, ("u", "x1"))
    delta = _kahler_form_flat(R6_CHART)
    rho3 = _flat_riemann(RHO3_CHART)
    zeta_norm = _norm_on(rho3, coordinate_form(rho3.chart, "x1"))  # -1
    delta_norm = _norm_on(riemann, delta)  # +3
    h_profile = solve_walker_H(const(zeta_norm * delta_norm))
    flux = FluxSpec(gamma=gamma, delta=delta)
    return _walker_background(
        "gamma-delta-ppwave",
        "plane wave with flux du^dx1 wedged with the flat Kaehler 2-form on R^6",
        h_profile, flux, riemann, _walker_box(), perturb)


def _build_varpi_epsilon_ppwave(params, perturb):
    e_const = params["E"]
    if e_const <= 0:
        raise CatalogError("E must be positive")
    riemann = _flat_riemann()
    varpi = _du()
    eps = monomial_form(R6_CHART, e_const, ("y1", "y2", "y3"))
    eps_norm = _norm_on(riemann, eps)  # -E^2
    h_profile = solve_walker_H(const(eps_norm))
    flux = FluxSpec(varpi=varpi, eps=eps)
    return _walker_background(
        "varpi-epsilon-ppwave",
        "plane wave with flux du wedged with a constant 3-form of norm -E^2 on flat R^6",
        h_profile, flux, riemann, _walker_box(), perturb)


def _build_general_combined(params, perturb):
    f1, f2, f3, f4 = (params[k] for k in ("f1", "f2", "f3", "f4"))
    riemann = _flat_riemann()
    rho3 = _flat_riemann(RHO3_CHART)
    alpha = monomial_form(WALKER_CHART, f1, ("u", "x1", "x2", "x3"))
    beta = monomial_form(WALKER_CHART, f2, ("u", "x1", "x2"))
    nu = coordinate_form(R6_CHART, "y3")
    gamma = monomial_form(WALKER_CHART, f3, ("u", "x1"))
    delta = monomial_form(R6_CHART, 1.0, ("y2", "y3"))
    varpi = _du().scale(const(f4))
    eps = monomial_form(R6_CHART, 1.0, ("y1", "y2", "y3"))
    rhs = (
        _norm_on(rho3, monomial_form(rho3.chart, f1, _X_NAMES))
        + _norm_on(rho3, monomial_form(rho3.chart, f2, ("x1", "x2"))) * _norm_on(riemann, nu)
        + _norm_on(rho3, coordinate_form(rho3.chart, "x1")) * f3 ** 2 * _norm_on(riemann, delta)
        + f4 ** 2 * _norm_on(riemann, eps)
    )
    h_profile = solve_walker_H(const(rhs))
    flux = FluxSpec(alpha=alpha, beta=beta, nu=nu, gamma=gamma, delta=delta,
                    varpi=varpi, eps=eps, phi=const(1.0))
    return _walker_background(
        "general-combined",
        "plane wave carrying all four null flux terms with constant strengths f1..f4",
        h_profile, flux, riemann, _walker_box(), perturb)


def _build_alphabeta_trig(params, perturb):
    kappa = params["kappa"]
    if kappa == 0:
        raise CatalogError("kappa must be nonzero")
    riemann = _flat_riemann()
    x1 = coord(1)
    y1 = coord(0)  # on the 6-chart
    f = exp(x1)
    phi = sin(y1)
    nu = coordinate_form(R6_CHART, "y1").scale(div(cos(y1), kappa))
    alpha = monomial_form(WALKER_CHART, f, ("u", "x1", "x2", "x3"))
    # omega = kappa * exp(x1) dx2^dx3 pairs with d(beta) = -kappa * alpha and
    # keeps the assembled flux closed.
    beta = monomial_form(WALKER_CHART, mul(const(kappa), f), ("u", "x2", "x3"))
    h_profile = mul(const(0.25), exp(mul(2.0, x1)))
    flux = FluxSpec(alpha=alpha, phi=phi, beta=beta, nu=nu)
    box = _walker_box([(-3.0, 3.0)] + [(-1.0, 1.0)] * 5)
    return _walker_background(
        "alphabeta-trig",
        "plane wave with coupled sin/cos flux pair on a circle factor (exp profile)",
        h_profile, flux, riemann, box, perturb)


def _build_alphabeta_poly(params, perturb):
    big_l = params["L"]
    if big_l <= 0:
        raise CatalogError("L must be positive")
    riemann = _flat_riemann()
    x1 = coord(1)
    y1 = coord(0)
    f = x1
    nu = (coordinate_form(R6_CHART, "y1").scale(neg(y1))
          + coordinate_form(R6_CHART, "y2").scale(sqrt(add(big_l ** 2, neg(intpow(y1, 2))))))
    alpha = monomial_form(WALKER_CHART, f, ("u", "x1", "x2", "x3"))
    beta = monomial_form(WALKER_CHART, 1.0, ("u", "x2", "x3"))
    rho3 = _flat_riemann(RHO3_CHART)
    omega_norm = _norm_on(rho3, monomial_form(rho3.chart, 1.0, ("x2", "x3")))  # +1
    center = tuple([0.1] + [0.0] * 5)
    nu_norm = float(form_inner(nu, nu, riemann, [center])[0])  # -L^2, constant
    rhs = add(const(omega_norm * nu_norm), neg(intpow(x1, 2)))
    h_profile = solve_walker_H(rhs)

    margin = 0.05
    def predicate(point):
        return abs(point[5]) > big_l - margin

    flux = FluxSpec(alpha=alpha, phi=const(1.0), beta=beta, nu=nu)
    box = _walker_box([(-0.7 * big_l, 0.7 * big_l)] + [(-1.0, 1.0)] * 5)
    return _walker_background(
        "alphabeta-poly",
        "plane wave with quartic profile and constant-norm (non-closed) 1-form on a slab",
        h_profile, flux, riemann, box, perturb, predicate=predicate)


def _build_kahler_theta(params, perturb):
    big_k = params["K"]
    if big_k <= 0:
        raise CatalogError("K must be positive")
    c = math.sqrt(2.0 * big_k)
    big_l = 2.0 / math.sqrt(big_k)
    c_eff = c * perturb.get("c", 1.0)

    lchart = Chart(("t", "x1", "x2", "x3", "z"))
    z = coord(4)
    conf = div(const(big_l ** 2), intpow(z, 2))
    ldiag = [conf, neg(conf), neg(conf), neg(conf), neg(conf)]
    lrows = [[ldiag[i] if i == j else const(0.0) for j in range(5)] for i in range(5)]
    lorentz = Metric(lchart, lrows, (1, 4))

    rchart = R6_CHART
    lams = []
    for s in range(3):
        a, b = coord(2 * s), coord(2 * s + 1)
        r2 = add(1.0, intpow(a, 2), intpow(b, 2))
        lams.append(div(const(4.0 / big_k), intpow(r2, 2)))
    rdiag = [neg(lams[0]), neg(lams[0]), neg(lams[1]), neg(lams[1]), neg(lams[2]), neg(lams[2])]
    rrows = [[rdiag[i] if i == j else const(0.0) for j in range(6)] for i in range(6)]
    riemann = Metric(rchart, rrows, (0, 6))

    omega = monomial_form(rchart, lams[0], ("y1", "y2"))
    omega = omega + monomial_form(rchart, lams[1], ("y3", "y4"))
    omega = omega + monomial_form(rchart, lams[2], ("y5", "y6"))
    theta = hodge(omega, riemann).scale(const(c_eff))

    ps = ProductStructure(lorentz, riemann)
    flux = FluxSpec(theta=theta, psi=const(1.0))
    box = ([(-1.0, 1.0)] * 4 + [(0.6, 1.6)]) + [(-0.8, 0.8)] * 6
    return Background(
        ps, flux, box, "kahler-theta",
        "anti-de-Sitter space times three round 2-spheres with Kaehler 4-form flux",
        predicate=lambda p: abs(p[4]) < 0.05,  # the horizon z = 0
    )


@dataclass(frozen=True)
class CatalogEntry:
    ident: str
    summary: str
    defaults: tuple
    builder: Callable
    perturb_key: str

    def default_params(self) -> dict:
        return dict(self.defaults)


CATALOG: dict[str, CatalogEntry] = {
    e.ident: e for e in [
        CatalogEntry("alpha-ppwave",
                     "plane wave, null volume flux f(u) du^dx1^dx2^dx3, flat R^6",
                     (("f", "u"),), _build_alpha_ppwave, "H"),
        CatalogEntry("beta-nu-ppwave",
                     "plane wave, null flux du^dx1^dx2 ^ dt, flat R x R^5",
                     (), _build_beta_nu_ppwave, "H"),
        CatalogEntry("gamma-delta-ppwave",
                     "plane wave, flux du^dx1 ^ flat Kaehler 2-form, flat R^6",
                     (), _build_gamma_delta_ppwave, "H"),
        CatalogEntry("varpi-epsilon-ppwave",
                     "plane wave, flux du ^ (E dy1^dy2^dy3), flat R^6",
                     (("E", 1.0),), _build_varpi_epsilon_ppwave, "H"),
        CatalogEntry("general-combined",
                     "plane wave, all four null flux terms with strengths f1..f4",
                     (("f1", 1.0), ("f2", 1.0), ("f3", 1.0), ("f4", 1.0)),
                     _build_general_combined, "H"),
        CatalogEntry("alphabeta-trig",
                     "plane wave, coupled sin/cos flux pair, circle factor",
                     (("kappa", 1.0),), _build_alphabeta_trig, "H"),
        CatalogEntry("alphabeta-poly",
                     "plane wave, quartic profile, constant-norm 1-form on a slab",
                     (("L", 1.0),), _build_alphabeta_poly, "H"),
        CatalogEntry("kahler-theta",
                     "AdS5 x (S^2)^3 with Kaehler 4-form flux, c^2 = 2K = 8/L^2",
                     (("K", 1.0),), _build_kahler_theta, "c"),
    ]
}


def catalog_ids() -> list[str]:
    return list(CATALOG.keys())


def get_entry(ident: str) -> CatalogEntry:
    try:
        return CATALOG[ident]
    except KeyError:
        raise CatalogError(f"unknown catalog id {ident!r}; known: {', '.join(CATALOG)}") from None


def build(ident: str, params: Optional[dict] = None,
          perturb: Optional[dict] = None) -> Background:
    """Construct a catalog background, optionally overriding parameters and
    applying multiplicative perturbations (e.g. ``{"H": 1.1}``) to the
    entry's ``perturb_key`` or its numeric parameters; any other key is refused."""
    entry = get_entry(ident)
    merged = entry.default_params()
    for k, v in (params or {}).items():
        if k not in merged:
            raise CatalogError(f"{ident!r} has no parameter {k!r}; knows {sorted(merged)}")
        merged[k] = v
    perturb = dict(perturb or {})
    known = sorted({entry.perturb_key} | {k for k, v in merged.items() if isinstance(v, (int, float))})
    for key, factor in perturb.items():
        if key not in known:
            raise CatalogError(f"unknown perturbation key {key!r}; known: {known}")
        if key in merged:
            merged[key] = merged[key] * factor
    return entry.builder(merged, perturb)
