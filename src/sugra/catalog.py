"""Parameterized builders for the catalog of explicit backgrounds, plus the
flat-transverse polynomial solver that manufactures Walker profiles H from a
prescribed Laplacian.

Seven entries are plane-fronted waves times a Ricci-flat Riemannian factor,
with null flux ``F = du ^ Phi``.  Their builders declare the flux (and any
factor metric or sample box other than flat R^6's); :func:`_ppwave`
derives the profile H by one rule, the Einstein (u,u) equation
``Lap_rho(H) = |Phi|^2``, every constant of which comes from factor-metric
norms of the flux pieces (``alphabeta-trig`` gives its H: its ``|Phi|^2`` is
not a polynomial).  The eighth is anti-de-Sitter space times three round
2-spheres with a Kaehler 4-form flux.

Each entry is declared once, as a :class:`CatalogEntry`.  :func:`build`
checks its parameters and perturbation factors, passes the builder the
parameters and the factor of the entry's perturbation key, and stamps the
entry's ident and provenance on the background it returns.

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
import numbers
from typing import Callable, Iterable, Optional

import numpy as np

from .expr import (Add, Chart, Coord, Div, Expr, ExprError, IntPow, Mul, Neg, add, coord, const, cos,
                   depends_on, div, evaluate, exp, intpow, is_zero, mul, neg, parse, sin, sqrt)
from .forms import KForm, Metric, coordinate_form, form_inner, hodge, monomial_form
from .geometry import WALKER_CHART, X_BLOCK, ProductStructure, WalkerData, walker_metric
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

def _poly_in_x(e: Expr):
    """Decompose ``e`` as a polynomial in the transverse coordinates x1, x2,
    x3 of the Walker chart, with u-dependent coefficients: dict (a, b, c) ->
    coefficient expression."""
    if depends_on(e, (4,)):
        raise SolverError("right-hand side depends on v")
    if not depends_on(e, X_BLOCK):
        return {(0, 0, 0): e}
    if isinstance(e, Coord):
        return {tuple(1 if i == e.index else 0 for i in X_BLOCK): const(1.0)}
    if isinstance(e, Add):
        out: dict = {}
        for t in e.terms:
            for k, v in _poly_in_x(t).items():
                out[k] = add(out[k], v) if k in out else v
        return out
    if isinstance(e, Neg):
        return {k: neg(v) for k, v in _poly_in_x(e.arg).items()}
    if isinstance(e, Mul):
        return _poly_product(_poly_in_x(f) for f in e.factors)
    if isinstance(e, IntPow):
        if e.exponent < 0:
            raise SolverError("negative power of a transverse coordinate")
        return _poly_product([_poly_in_x(e.base)] * e.exponent)
    if isinstance(e, Div):
        if depends_on(e.den, X_BLOCK):
            raise SolverError("transverse coordinate in a denominator")
        return {k: div(v, e.den) for k, v in _poly_in_x(e.num).items()}
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


def solve_walker_H(rhs: Expr) -> Expr:
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
    mono = {k: v for k, v in _poly_in_x(rhs).items() if not is_zero(v)}
    xs = [coord(i) for i in X_BLOCK]
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


def _diagonal(chart: Chart, diag, signature) -> Metric:
    """The diagonal metric with entries ``diag`` on ``chart``."""
    n = chart.dim
    return Metric(chart, [[diag[i] if i == j else const(0.0) for j in range(n)]
                          for i in range(n)], signature)


def _flat_riemann(chart: Chart = R6_CHART) -> Metric:
    """The flat negative-definite 6-block."""
    return _diagonal(chart, [const(-1.0)] * 6, (0, 6))


def _kahler_form(chart: Chart, weights) -> KForm:
    """``sum_s weights[s] dy^(2s) ^ dy^(2s+1)``: a Kaehler form of three 2-planes."""
    return KForm(chart, 2, {(2 * s, 2 * s + 1): w for s, w in enumerate(weights)})


def _norm_on(metric: Metric, form: KForm, box) -> float:
    """``|form|^2`` on ``metric`` at one point of its sample ``box`` (the
    norms used are constant): ``0.1 * (i + 1)`` in coordinate i, moved to the
    nearest end of the coordinate's range where it lies outside."""
    point = tuple(min(max(0.1 * (i + 1), lo), hi) for i, (lo, hi) in enumerate(box))
    with np.errstate(all="ignore"):  # an overflow is refused as a non-finite profile
        return float(form_inner(form, form, metric, [point])[0])


def _ppwave(scale, flux, riemann=None, y_ranges=None, profile=None) -> Background:
    """The plane wave ``2 du dv - |dx|^2 + scale * H du^2`` times ``riemann``
    (flat R^6 by default), carrying the null flux ``F = du ^ Phi``.

    Unless ``profile`` is given, H solves the Einstein (u,u) equation
    ``Lap_rho(H) = |Phi|^2``: each component ``c_K du^dx^K`` of a term's
    Lorentzian piece adds ``c_K^2 |dx^K|^2 |hi|^2``, where ``hi`` is the
    term's Riemannian piece and each norm is taken on its factor metric
    (``|dx^K|^2`` on the flat wave, whose transverse block is rho).
    """
    riemann = riemann or _flat_riemann()
    box = [(0.5, 1.5)] + [(-1.0, 1.0)] * 4 + list(y_ranges or [(-1.0, 1.0)] * 6)
    if profile is None:
        flat = ProductStructure(walker_metric(WalkerData.pp_wave(0.0)), riemann)
        rhs = []
        for _, lo, hi in flux.terms(flat):
            hi_norm = _norm_on(riemann, hi, box[5:])
            for key, c in lo.items():  # key[0] is u, the du of F = du ^ Phi
                dx = KForm(WALKER_CHART, len(key) - 1, {key[1:]: 1.0})
                rhs.append(mul(c, c, const(_norm_on(flat.lorentz, dx, box[:5])), const(hi_norm)))
        profile = solve_walker_H(add(*rhs))
    g5 = walker_metric(WalkerData.pp_wave(mul(const(scale), profile)))
    return Background(ProductStructure(g5, riemann), flux, box)


# ---------------------------------------------------------------------------
# Builders: each takes the entry's parameters and the factor of its
# perturbation key (1.0 unperturbed).
# ---------------------------------------------------------------------------

def _build_alpha_ppwave(params, scale):
    f = params["f"]
    try:  # text that parses, with a finite value at u = 1 (the middle of the box)
        fu = parse(f, WALKER_CHART) if isinstance(f, str) else const(float(f))
        evaluate(fu, (1.0, 0.0, 0.0, 0.0, 0.0))
    except ExprError as err:
        raise CatalogError(f"parameter 'f' is not a profile function: {err}") from None
    if depends_on(fu, (1, 2, 3, 4)):
        raise CatalogError("profile function f must depend on u only")
    alpha = monomial_form(WALKER_CHART, fu, ("u", "x1", "x2", "x3"))
    return _ppwave(scale, FluxSpec(alpha=alpha, phi=const(1.0)))


def _build_beta_nu_ppwave(params, scale):
    beta = monomial_form(WALKER_CHART, 1.0, ("u", "x1", "x2"))
    nu = coordinate_form(BETA_R6_CHART, "t")
    return _ppwave(scale, FluxSpec(beta=beta, nu=nu), _flat_riemann(BETA_R6_CHART))


def _build_gamma_delta_ppwave(params, scale):
    gamma = monomial_form(WALKER_CHART, 1.0, ("u", "x1"))
    delta = _kahler_form(R6_CHART, (1.0, 1.0, 1.0))
    return _ppwave(scale, FluxSpec(gamma=gamma, delta=delta))


def _build_varpi_epsilon_ppwave(params, scale):
    e_const = params["E"]
    if e_const <= 0:
        raise CatalogError("E must be positive")
    varpi = coordinate_form(WALKER_CHART, "u")
    eps = monomial_form(R6_CHART, e_const, ("y1", "y2", "y3"))
    return _ppwave(scale, FluxSpec(varpi=varpi, eps=eps))


def _build_general_combined(params, scale):
    f1, f2, f3, f4 = (params[k] for k in ("f1", "f2", "f3", "f4"))
    flux = FluxSpec(
        alpha=monomial_form(WALKER_CHART, f1, ("u", "x1", "x2", "x3")), phi=const(1.0),
        beta=monomial_form(WALKER_CHART, f2, ("u", "x1", "x2")),
        nu=coordinate_form(R6_CHART, "y3"),
        gamma=monomial_form(WALKER_CHART, f3, ("u", "x1")),
        delta=monomial_form(R6_CHART, 1.0, ("y2", "y3")),
        varpi=coordinate_form(WALKER_CHART, "u").scale(const(f4)),
        eps=monomial_form(R6_CHART, 1.0, ("y1", "y2", "y3")))
    return _ppwave(scale, flux)


def _build_alphabeta_trig(params, scale):
    kappa = params["kappa"]
    if kappa == 0:
        raise CatalogError("kappa must be nonzero")
    x1 = coord(1)
    y1 = coord(0)  # on the 6-chart
    f = exp(x1)
    nu = coordinate_form(R6_CHART, "y1").scale(div(cos(y1), kappa))
    alpha = monomial_form(WALKER_CHART, f, ("u", "x1", "x2", "x3"))
    # omega = kappa * exp(x1) dx2^dx3 pairs with d(beta) = -kappa * alpha and
    # keeps the assembled flux closed.
    beta = monomial_form(WALKER_CHART, mul(const(kappa), f), ("u", "x2", "x3"))
    flux = FluxSpec(alpha=alpha, phi=sin(y1), beta=beta, nu=nu)
    # The profile is given: |Phi|^2 = -exp(2 x1) is not a polynomial in x, and
    # the Riemannian norms sin(y1)^2 and -cos(y1)^2 are constant only summed.
    return _ppwave(scale, flux, y_ranges=[(-3.0, 3.0)] + [(-1.0, 1.0)] * 5,
                   profile=mul(const(0.25), exp(mul(2.0, x1))))


def _build_alphabeta_poly(params, scale):
    big_l = params["L"]
    if big_l <= 0:
        raise CatalogError("L must be positive")
    y1 = coord(0)
    nu = (coordinate_form(R6_CHART, "y1").scale(neg(y1))
          + coordinate_form(R6_CHART, "y2").scale(sqrt(add(intpow(big_l, 2), neg(intpow(y1, 2))))))
    alpha = monomial_form(WALKER_CHART, coord(1), ("u", "x1", "x2", "x3"))
    beta = monomial_form(WALKER_CHART, 1.0, ("u", "x2", "x3"))
    flux = FluxSpec(alpha=alpha, phi=const(1.0), beta=beta, nu=nu)
    reach = min(0.7 * big_l, big_l - min(0.05, big_l / 2))  # short of |y1| = L
    return _ppwave(scale, flux, y_ranges=[(-reach, reach)] + [(-1.0, 1.0)] * 5)


def _build_kahler_theta(params, scale):
    big_k = params["K"]
    if big_k <= 0:
        raise CatalogError("K must be positive")
    c = math.sqrt(2.0 * big_k)
    big_l = 2.0 / math.sqrt(big_k)

    conf = div(intpow(big_l, 2), intpow(coord(4), 2))
    lorentz = _diagonal(Chart(("t", "x1", "x2", "x3", "z")),
                        [conf, neg(conf), neg(conf), neg(conf), neg(conf)], (1, 4))
    r2 = [add(1.0, intpow(coord(2 * s), 2), intpow(coord(2 * s + 1), 2)) for s in range(3)]
    lams = [div(const(4.0 / big_k), intpow(r, 2)) for r in r2]
    riemann = _diagonal(R6_CHART, [neg(lam) for lam in lams for _ in range(2)], (0, 6))
    theta = hodge(_kahler_form(R6_CHART, lams), riemann).scale(const(c * scale))

    box = ([(-1.0, 1.0)] * 4 + [(0.6, 1.6)]) + [(-0.8, 0.8)] * 6  # z >= 0.6 keeps off the horizon z = 0
    return Background(ProductStructure(lorentz, riemann), FluxSpec(theta=theta, psi=const(1.0)), box)


class CatalogEntry:
    """One catalog id: its summary (the listing), provenance (the report),
    parameter defaults, builder and perturbation key."""

    __slots__ = ("ident", "summary", "provenance", "defaults", "builder", "perturb_key")

    def __init__(self, ident: str, summary: str, provenance: str, defaults: tuple, builder: Callable,
                 perturb_key: str):
        self.ident = ident
        self.summary = summary
        self.provenance = provenance
        self.defaults = defaults
        self.builder = builder
        self.perturb_key = perturb_key


CATALOG: dict[str, CatalogEntry] = {
    e.ident: e for e in [
        CatalogEntry("alpha-ppwave",
                     "plane wave, null volume flux f(u) du^dx1^dx2^dx3, flat R^6",
                     "plane wave with null volume flux f(u) du^dx1^dx2^dx3 over flat R^6",
                     (("f", "u"),), _build_alpha_ppwave, "H"),
        CatalogEntry("beta-nu-ppwave",
                     "plane wave, null flux du^dx1^dx2 ^ dt, flat R x R^5",
                     "plane wave with null 3-form flux du^dx1^dx2 wedged with dt on flat R x R^5",
                     (), _build_beta_nu_ppwave, "H"),
        CatalogEntry("gamma-delta-ppwave",
                     "plane wave, flux du^dx1 ^ flat Kaehler 2-form, flat R^6",
                     "plane wave with flux du^dx1 wedged with the flat Kaehler 2-form on R^6",
                     (), _build_gamma_delta_ppwave, "H"),
        CatalogEntry("varpi-epsilon-ppwave",
                     "plane wave, flux du ^ (E dy1^dy2^dy3), flat R^6",
                     "plane wave with flux du wedged with a constant 3-form of norm -E^2 on flat R^6",
                     (("E", 1.0),), _build_varpi_epsilon_ppwave, "H"),
        CatalogEntry("general-combined",
                     "plane wave, all four null flux terms with strengths f1..f4",
                     "plane wave carrying all four null flux terms with constant strengths f1..f4",
                     (("f1", 1.0), ("f2", 1.0), ("f3", 1.0), ("f4", 1.0)),
                     _build_general_combined, "H"),
        CatalogEntry("alphabeta-trig",
                     "plane wave, coupled sin/cos flux pair, circle factor",
                     "plane wave with coupled sin/cos flux pair on a circle factor (exp profile)",
                     (("kappa", 1.0),), _build_alphabeta_trig, "H"),
        CatalogEntry("alphabeta-poly",
                     "plane wave, quartic profile, constant-norm 1-form on a slab",
                     "plane wave with quartic profile and constant-norm (non-closed) 1-form on a slab",
                     (("L", 1.0),), _build_alphabeta_poly, "H"),
        CatalogEntry("kahler-theta",
                     "AdS5 x (S^2)^3 with Kaehler 4-form flux, c^2 = 2K = 8/L^2",
                     "anti-de-Sitter space times three round 2-spheres with Kaehler 4-form flux",
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


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _check_value(what: str, name: str, value, text: bool = False) -> None:
    """Refuse a value that is not a finite number (or text, where allowed)."""
    if not (_is_number(value) and math.isfinite(value) or text and isinstance(value, str)):
        wants = "expression text or a finite number" if text else "a finite number"
        raise CatalogError(f"{what} {name!r} must be {wants}, got {value!r}")


def build(ident: str, params: Optional[dict] = None,
          perturb: Optional[dict] = None) -> Background:
    """Construct a catalog background, optionally overriding parameters and
    applying multiplicative perturbations (e.g. ``{"H": 1.1}``) to the
    entry's ``perturb_key`` or its numeric parameters; any other key is refused.

    Every factor, and every parameter after perturbation, must be a finite
    number (a parameter whose default is expression text may also be text);
    anything else raises one :class:`CatalogError` that names it."""
    entry = get_entry(ident)
    merged = dict(entry.defaults)
    for k, v in (params or {}).items():
        if k not in merged:
            raise CatalogError(f"{ident!r} has no parameter {k!r}; knows {sorted(merged)}")
        merged[k] = v
    perturb = dict(perturb or {})
    known = sorted({entry.perturb_key} | {k for k, v in merged.items() if _is_number(v)})
    for key, factor in perturb.items():
        if key not in known:
            raise CatalogError(f"unknown perturbation key {key!r}; known: {known}")
        _check_value("perturbation factor", key, factor)
        if key in merged:
            merged[key] = merged[key] * factor
    text = {k for k, v in entry.defaults if isinstance(v, str)}
    for k, v in merged.items():
        _check_value("parameter", k, v, k in text)
    bg = entry.builder(merged, perturb.get(entry.perturb_key, 1.0))
    bg.ident, bg.provenance = entry.ident, entry.provenance
    return bg
