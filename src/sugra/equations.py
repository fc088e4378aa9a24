"""Flux assembly and residuals of the bosonic field equations on a
(5, 6) product background.

A background is a block metric ``h = g_L + g_R`` on an 11-chart (Lorentzian
signature (1,4) block first, negative-definite 6-block second) together
with a 4-form flux built from five block-decomposable pieces::

    F = phi * alpha  +  beta ^ nu  +  gamma ^ delta  +  varpi ^ eps  +  psi * theta

where alpha (4-form), beta (3-form), gamma (2-form), varpi (1-form) and the
scalar psi live on the Lorentzian factor, and the scalar phi, nu (1-form),
delta (2-form), eps (3-form), theta (4-form) live on the Riemannian factor.

The three field equations verified pointwise over a seeded sample plan:

* closedness:   dF = 0
* induction:    d star F = (1/2) F ^ F          (the "Maxwell" equation)
* Einstein:     Ric_h(X, Y) = -(1/2) <X . F, Y . F>_h + (1/6) h(X, Y) |F|^2_h

plus the trace identity relating the scalar curvature to |F|^2 (see
``TRACE_IDENTITY_SIGN``).  Residuals are reported in the coordinate frame,
split into Lorentzian (VV), Riemannian (HH) and mixed (VH) blocks for the
Einstein equation and into (lorentz-degree, riemann-degree) types for the
Maxwell equation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .expr import EvalDomainError, Expr, diff, evaluate, evaluate_points, is_zero, to_text, _as_expr
from .forms import (
    FormError,
    KForm,
    Metric,
    check_signature_values,
    embed_form,
    embed_scalar,
    ext_d,
    form_inner,
    hodge,
    perm_sign,
    wedge,
    zero_form,
    _components,
)
from .geometry import ProductStructure, product_metric

__all__ = [
    "FluxSpec",
    "Background",
    "ResidualRow",
    "VerificationResult",
    "ReducedCaseDiagnosis",
    "TRACE_IDENTITY_SIGN",
    "assemble_flux",
    "flux_norm_sq",
    "flux_norm_sq_pieces",
    "sample_points",
    "closedness_residual",
    "maxwell_residual",
    "einstein_residual",
    "trace_check",
    "verify",
    "diagnose_reduced_case",
]

#: Sign s in the identity ``Scal_h = s * (1/6) |F|^2_h`` satisfied by every
#: solution of the Einstein equation above under this package's curvature
#: convention.  Contracting the equation over the 11 coordinate pairs gives
#: ``Scal = -2 |F|^2 + (11/6) |F|^2 = -(1/6) |F|^2`` (the cross contraction
#: ``sum h^{AB} <e_A . F, e_B . F> = 4 |F|^2`` holds for any 4-form in any
#: signature), hence s = -1.  The opposite sign corresponds to tracing in
#: the flipped ("mostly plus") metric convention.  The trace check below
#: uses this pinned sign and additionally reports the signed discrepancy.
TRACE_IDENTITY_SIGN = -1.0


@dataclass(frozen=True)
class FluxSpec:
    """Block-decomposable pieces of the flux 4-form; any piece may be None.

    Lorentzian-factor pieces (on the 5-chart): alpha (deg 4), beta (3),
    gamma (2), varpi (1), scalar psi.  Riemannian-factor pieces (on the
    6-chart): scalar phi, nu (1), delta (2), eps (3), theta (4).
    """

    alpha: Optional[KForm] = None
    beta: Optional[KForm] = None
    gamma: Optional[KForm] = None
    varpi: Optional[KForm] = None
    psi: Optional[Expr] = None
    phi: Optional[Expr] = None
    nu: Optional[KForm] = None
    delta: Optional[KForm] = None
    eps: Optional[KForm] = None
    theta: Optional[KForm] = None

    def __post_init__(self):
        for name, deg in (("alpha", 4), ("beta", 3), ("gamma", 2), ("varpi", 1),
                          ("nu", 1), ("delta", 2), ("eps", 3), ("theta", 4)):
            f = getattr(self, name)
            if f is not None and f.degree != deg:
                raise FormError(f"{name} must be a {deg}-form, got degree {f.degree}")

    def _present(self, name: str) -> bool:
        v = getattr(self, name)
        if v is None:
            return False
        if isinstance(v, KForm):
            return not v.is_zero
        return not is_zero(v)

    def pair_flags(self) -> dict[str, bool]:
        """Which of the five decomposable terms are actually present."""
        return {
            "alpha": self._present("alpha"),
            "beta": self._present("beta") and self._present("nu"),
            "gamma": self._present("gamma") and self._present("delta"),
            "varpi": self._present("varpi") and self._present("eps"),
            "theta": self._present("theta"),
        }


class Background:
    """A candidate solution: block metric, flux pieces, a sample box, and
    the residual ``tolerance`` it declares (a file's ``tol``), if any."""

    def __init__(self, product: ProductStructure, flux: FluxSpec,
                 box: Sequence[tuple[float, float]], ident: str = "",
                 provenance: str = "",
                 predicate: Optional[Callable[[Sequence[float]], bool]] = None,
                 tolerance: Optional[float] = None):
        chart = product.chart
        if len(box) != 11:
            raise FormError(f"sample box needs 11 coordinate ranges, got {len(box)}")
        lch = product.lorentz.chart.names
        rch = product.riemann.chart.names
        for name in ("alpha", "beta", "gamma", "varpi"):
            f = getattr(flux, name)
            if f is not None and f.chart.names != lch:
                raise FormError(f"flux piece {name} must live on the Lorentzian chart {lch}")
        for name in ("nu", "delta", "eps", "theta"):
            f = getattr(flux, name)
            if f is not None and f.chart.names != rch:
                raise FormError(f"flux piece {name} must live on the Riemannian chart {rch}")
        self.product = product
        self.flux = flux
        self.box = tuple((float(lo), float(hi)) for lo, hi in box)
        self.ident = ident
        self.provenance = provenance
        self.predicate = predicate
        self.chart = chart
        self.tolerance = tolerance

    def metric(self) -> Metric:
        return product_metric(self.product)

    def flux_form(self) -> KForm:
        return assemble_flux(self.flux, self.product)

    def sample(self, count: int, seed: int) -> list[tuple[float, ...]]:
        preds = [p for p in (self.predicate, self.metric().singular) if p is not None]
        if not preds:
            pred = None
        elif len(preds) == 1:
            pred = preds[0]
        else:
            pred = lambda pt: any(f(pt) for f in preds)
        return sample_points(self.box, count, seed, pred)


def sample_points(box, count: int, seed: int,
                  predicate: Optional[Callable] = None) -> list[tuple[float, ...]]:
    """Seeded uniform draws from the box, skipping predicate-flagged points.

    The predicate returns True for points to avoid (too close to a declared
    singular set).  Draw order is fixed by the seed, so results are
    deterministic for a given (box, count, seed, predicate).  ``count`` must
    be positive and ``seed`` non-negative.
    """
    if count < 1:
        raise FormError(f"sample count must be positive, got {count}")
    if seed < 0:
        raise FormError(f"sample seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    lows = np.array([lo for lo, _ in box])
    highs = np.array([hi for _, hi in box])
    pts: list[tuple[float, ...]] = []
    attempts = 0
    while len(pts) < count:
        draw = rng.uniform(lows, highs)
        attempts += 1
        if attempts > 1000 * count:
            raise FormError("sample box appears to be mostly inside the singular set")
        p = tuple(float(v) for v in draw)
        if predicate is not None and predicate(p):
            continue
        pts.append(p)
    return pts


# ---------------------------------------------------------------------------
# Flux assembly and norms.
# ---------------------------------------------------------------------------

def assemble_flux(fs: FluxSpec, ps: ProductStructure) -> KForm:
    """The flux as a single 4-form on the 11-chart (linear in every piece)."""
    chart = ps.chart
    total = zero_form(chart, 4)
    if fs._present("alpha"):
        a = embed_form(fs.alpha, chart, 0)
        if fs.phi is not None:
            a = a.scale(embed_scalar(fs.phi, 5))
        total = total + a
    if fs._present("beta") and fs._present("nu"):
        total = total + wedge(embed_form(fs.beta, chart, 0), embed_form(fs.nu, chart, 5))
    if fs._present("gamma") and fs._present("delta"):
        total = total + wedge(embed_form(fs.gamma, chart, 0), embed_form(fs.delta, chart, 5))
    if fs._present("varpi") and fs._present("eps"):
        total = total + wedge(embed_form(fs.varpi, chart, 0), embed_form(fs.eps, chart, 5))
    if fs._present("theta"):
        t = embed_form(fs.theta, chart, 5)
        if fs.psi is not None:
            t = t.scale(embed_scalar(fs.psi, 0))
        total = total + t
    return total


def flux_norm_sq(bg: Background, point) -> float:
    """|F|^2_h at a point from the assembled 4-form."""
    f = bg.flux_form()
    return form_inner(f, f, bg.metric(), point)


def flux_norm_sq_pieces(fs: FluxSpec, ps: ProductStructure, point) -> float:
    """|F|^2_h from the factor pieces: distinct decomposable types are
    mutually orthogonal, so the norm splits as

    ``phi^2 |alpha|^2 + |beta|^2 |nu|^2 + |gamma|^2 |delta|^2
    + |varpi|^2 |eps|^2 + psi^2 |theta|^2``

    with each factor norm taken in its own block metric.
    """
    p5 = tuple(point[:5])
    p6 = tuple(point[5:])
    gl, gr = ps.lorentz, ps.riemann
    total = 0.0
    if fs._present("alpha"):
        phi2 = evaluate(fs.phi, p6) ** 2 if fs.phi is not None else 1.0
        total += phi2 * form_inner(fs.alpha, fs.alpha, gl, p5)
    if fs._present("beta") and fs._present("nu"):
        total += form_inner(fs.beta, fs.beta, gl, p5) * form_inner(fs.nu, fs.nu, gr, p6)
    if fs._present("gamma") and fs._present("delta"):
        total += form_inner(fs.gamma, fs.gamma, gl, p5) * form_inner(fs.delta, fs.delta, gr, p6)
    if fs._present("varpi") and fs._present("eps"):
        total += form_inner(fs.varpi, fs.varpi, gl, p5) * form_inner(fs.eps, fs.eps, gr, p6)
    if fs._present("theta"):
        psi2 = evaluate(fs.psi, p5) ** 2 if fs.psi is not None else 1.0
        total += psi2 * form_inner(fs.theta, fs.theta, gr, p6)
    return total


# ---------------------------------------------------------------------------
# Residual rows.
# ---------------------------------------------------------------------------

@dataclass
class ResidualRow:
    equation: str
    block: str
    max_abs: float
    mean_abs: float
    worst_point: tuple[float, ...]
    worst_component: str


@dataclass
class VerificationResult:
    rows: list[ResidualRow]
    tolerance: float

    @property
    def verdict(self) -> bool:
        return all(r.max_abs < self.tolerance for r in self.rows)

    def row(self, equation: str, block: str) -> ResidualRow:
        for r in self.rows:
            if r.equation == equation and r.block == block:
                return r
        raise KeyError((equation, block))


def _row(equation: str, block: str, a: np.ndarray, points, names: list[str]) -> ResidualRow:
    """Summarize ``a[point, component] = |residual|``: the max (the first in
    point-major order among equal ones) and the mean over all entries."""
    if not a.size:
        return ResidualRow(equation, block, 0.0, 0.0, (), "(none)")
    point, comp = divmod(int(np.argmax(a)), a.shape[1])
    return ResidualRow(equation, block, float(a[point, comp]), float(a.mean()),
                       points[point], names[comp])


#: Points per numpy batch.  The metric jet holds 11^4 floats per point, so
#: larger batches raise peak memory without making verification faster.
_BATCH = 8


def _ricci(hinv: np.ndarray, dh: np.ndarray, ddh: np.ndarray):
    """Ricci tensors (``geometry`` module convention) of a batch of metric
    jets ``dh[z,k,i,j] = d_k h_ij``, ``ddh[z,k,l,i,j] = d_k d_l h_ij``, and
    the traces ``G^k_kb = d_b log sqrt|h|``."""
    dhinv = -hinv[:, None] @ dh @ hinv[:, None]  # d_k h^ij = -h^ia d_k h_ab h^bj
    # Christoffel symbols G_lij = (d_i h_lj + d_j h_li - d_l h_ij)/2 and G^k_ij.
    gam_low = 0.5 * (np.einsum("zilj->zlij", dh) + np.einsum("zjli->zlij", dh) - dh)
    gam = np.einsum("zkl,zlij->zkij", hinv, gam_low)
    tau = 0.5 * np.einsum("zkl,zbkl->zb", hinv, dh)
    # Ric_ab = d_k G^k_ab - d_a G^k_kb + G^k_kl G^l_ab - G^k_al G^l_kb, where
    # d_k G^k_ab = d_k h^kl G_lab + h^kl (d_k d_a h_lb + d_k d_b h_la - d_k d_l h_ab)/2
    # and d_a G^k_kb = (d_a h^kl d_b h_kl + h^kl d_a d_b h_kl)/2.
    x = np.einsum("zkl,zkalb->zab", hinv, ddh)
    ric = (np.einsum("zkkl,zlab->zab", dhinv, gam_low)
           + 0.5 * (x + x.transpose(0, 2, 1) - np.einsum("zkl,zklab->zab", hinv, ddh))
           - 0.5 * (np.einsum("zakl,zbkl->zab", dhinv, dh) + np.einsum("zkl,zabkl->zab", hinv, ddh))
           + np.einsum("zl,zlab->zab", tau, gam)
           - np.einsum("zkal,zlkb->zab", gam, gam, optimize=True))
    return ric, tau


def _flux_terms(f, df, dvars, hinv, dh, tau):
    """For a batch of flux jets ``f[z,a,b,c,d] = F_abcd``,
    ``df[z,l,a,b,c,d] = d_l F_abcd`` (for the coordinates ``dvars`` only)
    and metric data on the same coordinates: ``<i_i F, i_j F>``, ``|F|^2``
    and ``div^bcd = d_l(sqrt|h| F^lbcd) / sqrt|h|``."""
    g = np.einsum("zabcd,zBb,zCc,zDd->zaBCD", f, hinv, hinv, hinv, optimize=True)  # F_a^bcd
    fup = np.einsum("zla,zabcd->zlbcd", hinv, g)         # F^abcd
    inner = np.einsum("zibcd,zjbcd->zij", f, g) / 6.0
    norm = np.einsum("zij,zij->z", hinv, inner) / 4.0
    # d_l F^lbcd by the product rule, with d_l h^ab = -h^ax d_l h_xy h^yb
    # in each of the four slots; the three free slots give hp up to sign.
    e = np.einsum("zla,zlabcd,zBb,zCc,zDd->zBCD", hinv[:, dvars], df, hinv, hinv, hinv,
                  optimize=True)
    v = tau - np.einsum("zlx,zlxy->zy", hinv, dh)
    hp = np.einsum("zbx,zlxy,zlycd->zbcd", hinv, dh, fup, optimize=True)
    div = (e + np.einsum("zy,zybcd->zbcd", v, fup)
           - hp + np.einsum("zcbd->zbcd", hp) - np.einsum("zdbc->zbcd", hp))
    return inner, norm, div


class _Jets:
    """The jets of one background: :meth:`values` evaluates their entries
    over a plan, and :meth:`residuals` derives the four residual families
    from them, a batch of points at a time, with numpy algebra.

    Only symbolically nonzero entries are kept: the metric jet ``h_ij,
    d_k h_ij, d_k d_l h_ij`` on all 11 coordinates, the flux jet ``F_K,
    d_l F_K`` on the flux coordinates S (those in F's keys, closed under the
    metric's connected blocks, so h^-1 never mixes S with the rest; l only
    where F depends on it), and the metric-free dF and F^F/2 whole.  Maxwell
    components are the 8-forms A whose complementary 3-set B lies in S, with
    ``(d*F)_A = s_A d_l(sqrt|h| F^lB)`` for a fixed sign s_A, and those of F^F.
    """

    def __init__(self, bg: Background):
        h = bg.metric()
        flux = bg.flux_form()
        n = 11
        used = {i for key in flux.coeffs for i in key}
        s = sorted(i for comp in _components(h.entries, n) if used & set(comp) for i in comp)
        dflux = [(l, key, d) for key, e in flux.items() for l in s if not is_zero(d := diff(e, l))]
        dvars = sorted({l for l, _, _ in dflux})
        local = {g: a for a, g in enumerate(s)}
        closed = ext_d(flux)
        ff = wedge(flux, flux).scale(0.5)
        stars = {tuple(sorted(set(range(n)) - set(b))): b for b in itertools.combinations(s, 3)}
        mkeys = sorted(set(stars) | set(ff.coeffs))
        m = len(s)

        self.chart = bg.chart
        self.signature = h.signature
        self.s = np.array(s, dtype=int)
        self.dvars = np.array([local[l] for l in dvars], dtype=int)
        self.exprs: list[Expr] = []
        # A family without components gets one identically zero column.
        self.tables = {name: (shape, [], [], []) for name, shape in (
            ("h", (n, n)), ("dh", (n,) * 3), ("ddh", (n,) * 4), ("F", (m,) * 4),
            ("dF", (len(dvars),) + (m,) * 4), ("closed", (max(len(closed.coeffs), 1),)),
            ("ff", (max(len(mkeys), 1),)))}
        self._put_metric_jet(h)

        def perms(key):
            return [(tuple(local[key[t]] for t in perm), perm_sign(perm))
                    for perm in itertools.permutations(range(4))]

        for key, e in flux.items():
            self._put("F", e, perms(key))
        for l, key, d in dflux:
            self._put("dF", d, [((dvars.index(l),) + idx, sign) for idx, sign in perms(key)])
        for c, e in enumerate(closed.coeffs.values()):
            self._put("closed", e, [((c,), 1)])
        for c, key in enumerate(mkeys):
            if key in ff.coeffs:
                self._put("ff", ff.coeffs[key], [((c,), 1)])

        # star[c, B] = s_A for the Maxwell column c of A = complement of B
        self.star = np.zeros((max(len(mkeys), 1), m ** 3))
        for c, key in enumerate(mkeys):
            if key in stars:
                b = np.ravel_multi_index([local[i] for i in stars[key]], (m,) * 3)
                self.star[c, b] = -perm_sign(stars[key] + key)
        upper = [(i, j) for i in range(n) for j in range(i, n)]
        self.upper = tuple(np.array(ix) for ix in zip(*upper))
        self.rows = self._layout(closed, mkeys, upper)

    def _put(self, table: str, expr: Expr, slots) -> None:
        """Add ``expr`` to the entries; its value, times each sign,
        goes to every index of ``table`` in ``slots``."""
        shape, src, dst, sign = self.tables[table]
        for index, s in slots:
            src.append(len(self.exprs))
            dst.append(np.ravel_multi_index(index, shape))
            sign.append(s)
        self.exprs.append(expr)

    def _put_metric_jet(self, h: Metric) -> None:
        n = h.dim
        for i, j in itertools.combinations_with_replacement(range(n), 2):
            if is_zero(e := h.entries[i][j]):
                continue
            pairs = {(i, j), (j, i)}
            self._put("h", e, [(ij, 1) for ij in pairs])
            for k in range(n):
                if is_zero(dk := diff(e, k)):
                    continue
                self._put("dh", dk, [((k,) + ij, 1) for ij in pairs])
                for l in range(k, n):
                    if not is_zero(dkl := diff(dk, l)):
                        self._put("ddh", dkl,
                                  [(kl + ij, 1) for kl in {(k, l), (l, k)} for ij in pairs])

    def _layout(self, closed: KForm, mkeys, upper) -> list[tuple]:
        """``(equation, block, columns, names)`` of each report row, in report
        order; ``columns`` index the family's residual array."""
        def names(keys):
            return ["^".join(self.chart.names[i] for i in key) for key in keys]

        closedness = names(closed.coeffs) or ["(identically zero)"]
        maxwell = names(mkeys) or ["(identically zero)"]
        einstein = [f"({self.chart.names[i]},{self.chart.names[j]})" for i, j in upper]
        rows = [("closedness", "all", list(range(len(closedness))), closedness),
                ("maxwell", "all", list(range(len(maxwell))), maxwell)]
        # (lorentz-degree, riemann-degree) types and V(Lorentzian)/H blocks
        types = [f"({sum(i < 5 for i in key)},{sum(i >= 5 for i in key)})" for key in mkeys]
        blocks = ["VV" if j < 5 else "VH" if i < 5 else "HH" for i, j in upper]
        for t in ("(2,6)", "(3,5)", "(4,4)", "(5,3)"):
            cols = [c for c, x in enumerate(types) if x == t]
            rows.append(("maxwell", t, cols, [maxwell[c] for c in cols]))
        for b in ("HH", "VV", "VH"):
            cols = [c for c, x in enumerate(blocks) if x == b]
            rows.append(("einstein", b, cols, [einstein[c] for c in cols]))
        rows.append(("trace", "all", [0], ["scal - s*|F|^2/6"]))
        return rows

    def values(self, points) -> np.ndarray:
        """Every entry at every point, shape ``(len(points), entries)``; a
        domain error names its subexpression in the background's chart."""
        try:
            return evaluate_points(self.exprs, points)
        except EvalDomainError as err:
            raise EvalDomainError(f"{err}: {to_text(err.expr, self.chart)} at {err.point}",
                                  err.expr, err.point) from None

    def residuals(self, points, values: np.ndarray) -> dict[str, np.ndarray]:
        """The residual components of each family at a batch of points, as
        arrays of shape ``(len(points), components)``, from the rows of
        :meth:`values` at those points."""
        t = {}
        for name, (shape, src, dst, sign) in self.tables.items():
            dense = np.zeros((len(points), int(np.prod(shape))))
            dense[:, dst] = values[:, src] * np.array(sign)
            t[name] = dense.reshape((len(points),) + shape)
        h = t["h"]
        check_signature_values(h, self.signature, points)
        hinv = np.linalg.inv(h)
        ric, tau = _ricci(hinv, t["dh"], t["ddh"])
        s = self.s
        inner, norm, div = _flux_terms(t["F"], t["dF"], self.dvars, hinv[:, s][:, :, s],
                                       t["dh"][:, s][:, :, s][:, :, :, s], tau[:, s])
        sqrt_det = np.sqrt(np.abs(np.linalg.det(h)))[:, None]
        maxwell = sqrt_det * (div.reshape(len(points), -1) @ self.star.T) - t["ff"]
        einstein = ric - h * (norm / 6.0)[:, None, None]
        einstein[:, s[:, None], s] += 0.5 * inner
        out = {
            "closedness": t["closed"],
            "maxwell": maxwell,
            "einstein": einstein[(slice(None),) + self.upper],
            "trace": (np.einsum("zij,zij->z", hinv, ric) - TRACE_IDENTITY_SIGN * norm / 6.0)[:, None],
        }
        for name, values in out.items():
            bad = ~np.isfinite(values).all(axis=1)
            if bad.any():
                raise FormError(f"non-finite {name} residual at {points[int(np.argmax(bad))]}")
        return out


def _residual_rows(bg: Background, points, equations) -> list[ResidualRow]:
    """Rows of the given residual families over the plan, evaluated a batch
    of points at a time."""
    jets = _Jets(bg)
    points = [tuple(p) for p in points]
    values = jets.values(points)
    batches = [jets.residuals(points[i:i + _BATCH], values[i:i + _BATCH])
               for i in range(0, len(points), _BATCH)]
    rows = []
    for equation, block, columns, names in jets.rows:
        if equation in equations:
            a = np.abs(np.concatenate([b[equation][:, columns] for b in batches] or [[]]))
            rows.append(_row(equation, block, a, points, names))
    return rows


def closedness_residual(bg: Background, points) -> list[ResidualRow]:
    """Components of dF evaluated over the plan; zero for a closed flux."""
    return _residual_rows(bg, points, ("closedness",))


def maxwell_residual(bg: Background, points) -> list[ResidualRow]:
    """Components of ``d star F - (1/2) F ^ F`` over the plan, reported in
    aggregate and split by (lorentz-degree, riemann-degree) type."""
    return _residual_rows(bg, points, ("maxwell",))


def einstein_residual(bg: Background, points) -> list[ResidualRow]:
    """Componentwise residual of the Einstein equation in the coordinate
    frame: ``Ric_ij + (1/2) <e_i . F, e_j . F> - (1/6) h_ij |F|^2``,
    reported per block (VV Lorentzian, HH Riemannian, VH mixed)."""
    return _residual_rows(bg, points, ("einstein",))


def trace_check(bg: Background, points) -> list[ResidualRow]:
    """``|Scal_h - s (1/6) |F|^2|`` with the pinned sign s (see
    ``TRACE_IDENTITY_SIGN``); Scal_h is the plain inverse-metric trace of
    the Ricci tensor."""
    return _residual_rows(bg, points, ("trace",))


def verify(bg: Background, count: int = 100, seed: int = 42,
           tol: float = 1e-8) -> VerificationResult:
    """Run all four residual families over a fresh seeded plan."""
    if not (np.isfinite(tol) and tol > 0.0):
        raise FormError(f"tolerance must be finite and positive, got {tol!r}")
    rows = _residual_rows(bg, bg.sample(count, seed),
                          ("closedness", "maxwell", "einstein", "trace"))
    return VerificationResult(rows=rows, tolerance=tol)


# ---------------------------------------------------------------------------
# Reduced-case diagnostics.
#
# When three or four of the five flux terms vanish, the closedness and
# Maxwell equations collapse to small systems on the factors.  The nine
# sparsity patterns and their systems (kappa, lambda are real constants,
# s5/s6 are the factor Hodge stars):
#
#   (1) phi*alpha            : phi const;  d alpha = d s5 alpha = 0
#   (2) beta^nu              : d beta = d s5 beta = 0;  d nu = d s6 nu = 0
#   (3) gamma^delta          : d gamma = d delta = d s6 delta = 0 and
#                              d s5 gamma ^ s6 delta = (1/2) g^g^d^d; if
#                              g^g != 0 this splits as d s5 gamma = k g^g,
#                              k s6 delta = (1/2) d^d
#   (4) varpi^eps            : all four closed and coclosed
#   (5) psi*theta            : psi const;  d theta = d s6 theta = 0
#   (6) phi*alpha + beta^nu  : d alpha = d s5 beta = d nu = 0;
#                              d phi = k nu;  d beta = -k alpha;
#                              d s6 nu = l s6 phi;  d s5 alpha = -l s5 beta
#   (7) varpi^eps + psi*theta: d theta = d varpi = d s6 eps = 0;
#                              d psi = k varpi;  d eps = k theta;
#                              d s5 varpi = l s5 psi;  d s6 theta = l s6 eps
#   (8) phi*alpha + psi*theta: inconsistent unless one term vanishes
#   (9) beta^nu + varpi^eps  : d of all four = 0;
#                              d s6 nu = d s5 beta = d s5 varpi = 0;
#                              s5 varpi ^ d s6 eps = beta^varpi^eps^nu; if
#                              eps^nu != 0: d s6 eps = k eps^nu,
#                              k s5 varpi = beta ^ varpi
#
# A flux whose Lorentzian pieces all share a common coordinate 1-form
# factor (and psi*theta = 0) instead satisfies the homogeneous system in
# which every right-hand side above vanishes ("product-factor" shape).
# ---------------------------------------------------------------------------

_FIT_ZERO_THRESHOLD = 1e-10


@dataclass
class ReducedCaseDiagnosis:
    case: str
    kappa: Optional[float]
    lam: Optional[float]
    rows: list[tuple[str, float, float]] = field(default_factory=list)
    consistent: bool = True
    note: str = ""

    def max_residual(self) -> float:
        return max((r[1] for r in self.rows), default=0.0)


def _form_stats(form: KForm, pts) -> tuple[float, float]:
    """Max and mean of ``|component|`` over the components and points."""
    a = np.abs(evaluate_points(list(form.coeffs.values()), pts))
    return float(a.max(initial=0.0)), float(a.mean()) if a.size else 0.0


def _fit_ratio(num_form: KForm, den_form: KForm, pts) -> float:
    """Least-squares constant c with num ~ c * den over components and points."""
    keys = sorted(set(num_form.coeffs) | set(den_form.coeffs))
    zero = _as_expr(0.0)
    v = evaluate_points([num_form.coeffs.get(k, zero) for k in keys]
                        + [den_form.coeffs.get(k, zero) for k in keys], pts)
    a, b = v[:, :len(keys)], v[:, len(keys):]
    sn = float(np.sum(a * b))
    sd = float(np.sum(b * b))
    if sd < _FIT_ZERO_THRESHOLD:
        return 0.0
    c = sn / sd
    return 0.0 if abs(c) < _FIT_ZERO_THRESHOLD else c


def _scale(form: KForm, c: float) -> KForm:
    return form.scale(_as_expr(c))


def diagnose_reduced_case(fs: FluxSpec, ps: ProductStructure,
                          count: int = 50, seed: int = 42,
                          box: Optional[Sequence[tuple[float, float]]] = None,
                          points: Optional[Sequence[Sequence[float]]] = None) -> ReducedCaseDiagnosis:
    """Identify which reduced sparsity pattern the flux matches and report
    the residuals of that pattern's closedness/Maxwell system, fitting the
    constants kappa and lambda where the pattern demands proportionality.

    Falls back to "general" (full typed Maxwell residuals on the product)
    when no pattern applies.  Fitted constants below 1e-10 are declared
    zero and the stricter sub-system is checked.
    """
    if points is None:
        if box is None:
            box = [(-1.0, 1.0)] * 11
        points = sample_points(box, count, seed)
    p5s = [tuple(p[:5]) for p in points]
    p6s = [tuple(p[5:]) for p in points]
    gl, gr = ps.lorentz, ps.riemann
    ch5, ch6 = gl.chart, gr.chart
    flags = fs.pair_flags()
    present = frozenset(name for name, on in flags.items() if on)

    zero5 = lambda k: zero_form(ch5, k)
    zero6 = lambda k: zero_form(ch6, k)
    alpha = fs.alpha if flags["alpha"] else zero5(4)
    beta = fs.beta if flags["beta"] else zero5(3)
    nu = fs.nu if flags["beta"] else zero6(1)
    gamma = fs.gamma if flags["gamma"] else zero5(2)
    delta = fs.delta if flags["gamma"] else zero6(2)
    varpi = fs.varpi if flags["varpi"] else zero5(1)
    eps = fs.eps if flags["varpi"] else zero6(3)
    theta = fs.theta if flags["theta"] else zero6(4)
    phi_e = fs.phi if fs.phi is not None else _as_expr(1.0)
    psi_e = fs.psi if fs.psi is not None else _as_expr(1.0)
    phi0 = KForm(ch6, 0, {(): phi_e})
    psi0 = KForm(ch5, 0, {(): psi_e})

    s5 = lambda f: hodge(f, gl)
    s6 = lambda f: hodge(f, gr)

    rows: list[tuple[str, float, float]] = []

    def put(label: str, form: KForm, pts):
        mx, mean = _form_stats(form, pts)
        rows.append((label, mx, mean))

    kappa = None
    lam = None
    consistent = True
    note = ""

    if present == {"alpha"}:
        case = "1"
        put("d(phi) = 0", ext_d(phi0), p6s)
        put("d(alpha) = 0", ext_d(alpha), p5s)
        put("d(*5 alpha) = 0", ext_d(s5(alpha)), p5s)
    elif present == {"beta"}:
        case = "2"
        put("d(beta) = 0", ext_d(beta), p5s)
        put("d(*5 beta) = 0", ext_d(s5(beta)), p5s)
        put("d(nu) = 0", ext_d(nu), p6s)
        put("d(*6 nu) = 0", ext_d(s6(nu)), p6s)
    elif present == {"gamma"}:
        case = "3"
        put("d(gamma) = 0", ext_d(gamma), p5s)
        put("d(delta) = 0", ext_d(delta), p6s)
        put("d(*6 delta) = 0", ext_d(s6(delta)), p6s)
        gg = wedge(gamma, gamma)
        if _form_stats(gg, p5s)[0] < _FIT_ZERO_THRESHOLD:
            put("d(*5 gamma) = 0", ext_d(s5(gamma)), p5s)
        else:
            kappa = _fit_ratio(ext_d(s5(gamma)), gg, p5s)
            put("d(*5 gamma) - k*gamma^gamma = 0", ext_d(s5(gamma)) - _scale(gg, kappa), p5s)
            dd = wedge(delta, delta).scale(0.5)
            put("k*(*6 delta) - delta^delta/2 = 0", _scale(s6(delta), kappa) - dd, p6s)
    elif present == {"varpi"}:
        case = "4"
        put("d(varpi) = 0", ext_d(varpi), p5s)
        put("d(*5 varpi) = 0", ext_d(s5(varpi)), p5s)
        put("d(eps) = 0", ext_d(eps), p6s)
        put("d(*6 eps) = 0", ext_d(s6(eps)), p6s)
    elif present == {"theta"}:
        case = "5"
        put("d(psi) = 0", ext_d(psi0), p5s)
        put("d(theta) = 0", ext_d(theta), p6s)
        put("d(*6 theta) = 0", ext_d(s6(theta)), p6s)
    elif present == {"alpha", "beta"}:
        case = "6"
        put("d(alpha) = 0", ext_d(alpha), p5s)
        put("d(*5 beta) = 0", ext_d(s5(beta)), p5s)
        put("d(nu) = 0", ext_d(nu), p6s)
        kappa = _fit_ratio(ext_d(phi0), nu, p6s)
        put("d(phi) - k*nu = 0", ext_d(phi0) - _scale(nu, kappa), p6s)
        put("d(beta) + k*alpha = 0", ext_d(beta) + _scale(alpha, kappa), p5s)
        lam = _fit_ratio(ext_d(s6(nu)), s6(phi0), p6s)
        put("d(*6 nu) - l*(*6 phi) = 0", ext_d(s6(nu)) - _scale(s6(phi0), lam), p6s)
        put("d(*5 alpha) + l*(*5 beta) = 0", ext_d(s5(alpha)) + _scale(s5(beta), lam), p5s)
    elif present == {"varpi", "theta"}:
        case = "7"
        put("d(theta) = 0", ext_d(theta), p6s)
        put("d(varpi) = 0", ext_d(varpi), p5s)
        put("d(*6 eps) = 0", ext_d(s6(eps)), p6s)
        kappa = _fit_ratio(ext_d(psi0), varpi, p5s)
        put("d(psi) - k*varpi = 0", ext_d(psi0) - _scale(varpi, kappa), p5s)
        put("d(eps) - k*theta = 0", ext_d(eps) - _scale(theta, kappa), p6s)
        lam = _fit_ratio(ext_d(s5(varpi)), s5(psi0), p5s)
        put("d(*5 varpi) - l*(*5 psi) = 0", ext_d(s5(varpi)) - _scale(s5(psi0), lam), p5s)
        put("d(*6 theta) - l*(*6 eps) = 0", ext_d(s6(theta)) - _scale(s6(eps), lam), p6s)
    elif present == {"alpha", "theta"}:
        case = "8"
        a_mag = max(_form_stats(alpha, p5s)[0], 0.0)
        t_mag = max(_form_stats(theta, p6s)[0], 0.0)
        smaller = min(a_mag, t_mag)
        rows.append(("min(|phi*alpha|, |psi*theta|) = 0", smaller, smaller))
        if smaller > _FIT_ZERO_THRESHOLD:
            consistent = False
            note = "both terms are nonzero; this pattern admits no solution unless one vanishes"
    elif present == {"beta", "varpi"}:
        case = "9"
        put("d(beta) = 0", ext_d(beta), p5s)
        put("d(nu) = 0", ext_d(nu), p6s)
        put("d(varpi) = 0", ext_d(varpi), p5s)
        put("d(eps) = 0", ext_d(eps), p6s)
        put("d(*6 nu) = 0", ext_d(s6(nu)), p6s)
        put("d(*5 beta) = 0", ext_d(s5(beta)), p5s)
        put("d(*5 varpi) = 0", ext_d(s5(varpi)), p5s)
        en = wedge(eps, nu)
        if _form_stats(en, p6s)[0] < _FIT_ZERO_THRESHOLD:
            put("d(*6 eps) = 0", ext_d(s6(eps)), p6s)
        else:
            kappa = _fit_ratio(ext_d(s6(eps)), en, p6s)
            put("d(*6 eps) - k*eps^nu = 0", ext_d(s6(eps)) - _scale(en, kappa), p6s)
            bw = wedge(beta, varpi)
            put("k*(*5 varpi) - beta^varpi = 0", _scale(s5(varpi), kappa) - bw, p5s)
    else:
        case, extra_note = _common_factor_or_general(fs, ps, flags, present)
        chart = ps.chart
        pts11 = [tuple(p) for p in points]
        if case == "product-factor":
            e5 = lambda f: embed_form(f, chart, 0)
            e6 = lambda f: embed_form(f, chart, 5)
            put("closedness: d(F) = 0", ext_d(assemble_flux(fs, ps)), pts11)
            put("d(*5 alpha)^(*6 phi) + (*5 beta)^d(*6 nu) = 0",
                wedge(e5(ext_d(s5(alpha))), e6(s6(phi0 if flags["alpha"] else zero6(0))))
                + wedge(e5(s5(beta)), e6(ext_d(s6(nu)))), pts11)
            put("d(*5 beta)^(*6 nu) - (*5 gamma)^d(*6 delta) = 0",
                wedge(e5(ext_d(s5(beta))), e6(s6(nu)))
                - wedge(e5(s5(gamma)), e6(ext_d(s6(delta)))), pts11)
            put("d(*5 gamma)^(*6 delta) + (*5 varpi)^d(*6 eps) = 0",
                wedge(e5(ext_d(s5(gamma))), e6(s6(delta)))
                + wedge(e5(s5(varpi)), e6(ext_d(s6(eps)))), pts11)
            put("d(*5 varpi)^(*6 eps) = 0", wedge(e5(ext_d(s5(varpi))), e6(s6(eps))), pts11)
        else:
            phi11 = assemble_flux(fs, ps)
            h = product_metric(ps)
            put("closedness: d(F) = 0", ext_d(phi11), pts11)
            put("maxwell: d(*F) - F^F/2 = 0",
                ext_d(hodge(phi11, h)) - wedge(phi11, phi11).scale(0.5), pts11)
        note = extra_note

    return ReducedCaseDiagnosis(case=case, kappa=kappa, lam=lam, rows=rows,
                                consistent=consistent, note=note)


def _common_factor_or_general(fs: FluxSpec, ps: ProductStructure, flags, present):
    """Detect the shared-coordinate-factor shape among the Lorentzian pieces."""
    if flags["theta"] or not present:
        return "general", ""
    tilde = [fs.alpha if flags["alpha"] else None,
             fs.beta if flags["beta"] else None,
             fs.gamma if flags["gamma"] else None,
             fs.varpi if flags["varpi"] else None]
    tilde = [f for f in tilde if f is not None]
    if len(tilde) < 2:
        return "general", ""
    common = None
    for f in tilde:
        keys_indices = [set(k) for k in f.coeffs.keys()]
        shared = set.intersection(*keys_indices) if keys_indices else set()
        common = shared if common is None else (common & shared)
    if common:
        name = ps.lorentz.chart.names[min(common)]
        return "product-factor", f"Lorentzian pieces share the coordinate factor d{name}"
    return "general", ""
