"""Curvature of symbolic metrics: Christoffel symbols, Ricci, scalar
curvature, the Laplace-Beltrami operator, and constructors for Walker and
block-product metrics.

Sign conventions, pinned once and checked by the test suite against a
finite-difference oracle:

* ``R^r_{s m n} = d_m G^r_{n s} - d_n G^r_{m s} + G^r_{m l} G^l_{n s}
  - G^r_{n l} G^l_{m s}`` and ``Ric_{i j} = R^k_{i k j}``, the common
  relativity textbook choice for which the round sphere has positive Ricci
  curvature.
* With transverse block ``rho = -(dx1^2 + dx2^2 + dx3^2)`` a plane-fronted
  wave ``2 du dv + rho + H du^2`` (``dH/dv = 0``) then has
  ``Ric = -(1/2) Lap_rho(H) du^2`` where ``Lap_rho`` is the
  Laplace-Beltrami operator of ``rho`` (equal to ``-sum_i d^2H/dxi^2`` for
  the flat negative-definite block).
* Scalar curvature is the plain trace ``g^{ij} Ric_{ij}``; it changes sign
  if the metric's overall sign convention is flipped, while the Ricci
  (0,2)-tensor does not.

Curvature is assembled symbolically and compared only by evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .expr import Chart, Expr, add, diff, evaluate, is_zero, mul, neg, _as_expr
from .forms import FormError, Metric, matrix_values, sym_inverse

__all__ = [
    "ProductStructure",
    "WalkerData",
    "christoffel",
    "ricci",
    "scalar_curvature",
    "laplace_beltrami",
    "walker_metric",
    "product_metric",
    "validate_ricci_isotropic",
    "WALKER_CHART",
]

WALKER_CHART = Chart(("u", "x1", "x2", "x3", "v"))


def _block_inverse(m: Metric, block: tuple[int, ...]):
    entries = [[m.entries[i][j] for j in block] for i in block]
    inv, _det = sym_inverse(entries)
    return inv


@lru_cache(maxsize=None)
def christoffel(m: Metric, block: Optional[tuple[int, ...]] = None):
    """Christoffel symbols of the second kind as a sparse dict (k, i, j) -> Expr.

    Entries are stored for i <= j only; the symbols are symmetric in the
    lower pair.  With ``block`` given, the connection of the submetric on
    those coordinates is computed instead (indices in the dict refer to
    positions inside ``block``), treating the remaining coordinates as
    parameters.
    """
    idx = block if block is not None else tuple(range(m.dim))
    nb = len(idx)
    if block is None:
        inv = m.inverse_entries()
        inv_local = [[inv[idx[a]][idx[b]] for b in range(nb)] for a in range(nb)]
    else:
        inv_local = _block_inverse(m, idx)
    # dg[a][b][c] = d_{idx[a]} g_{idx[b] idx[c]}
    dg = [[[diff(m.entries[idx[b]][idx[c]], idx[a]) for c in range(nb)]
           for b in range(nb)] for a in range(nb)]
    out: dict[tuple[int, int, int], Expr] = {}
    for k in range(nb):
        row = inv_local[k]
        for i in range(nb):
            for j in range(i, nb):
                terms = []
                for l in range(nb):
                    if is_zero(row[l]):
                        continue
                    inner = add(dg[i][j][l], dg[j][i][l], neg(dg[l][i][j]))
                    if is_zero(inner):
                        continue
                    terms.append(mul(0.5, row[l], inner))
                val = add(*terms)
                if not is_zero(val):
                    out[(k, i, j)] = val
    return out


def _gamma(sym, k, i, j):
    if i > j:
        i, j = j, i
    return sym.get((k, i, j))


@lru_cache(maxsize=None)
def ricci(m: Metric, block: Optional[tuple[int, ...]] = None):
    """Ricci tensor as a dense tuple-of-tuples of expressions (symmetric).

    With ``block`` given, the Ricci tensor of the submetric on those
    coordinates (other coordinates treated as parameters); the returned
    matrix is still full-size with zeros outside the block.
    """
    idx = block if block is not None else tuple(range(m.dim))
    nb = len(idx)
    sym = christoffel(m, block)
    # trace_gamma[l] = sum_k G^k_{k l}
    trace_gamma = [add(*[g for k in range(nb) if (g := _gamma(sym, k, k, l)) is not None])
                   for l in range(nb)]
    n = m.dim
    zero = _as_expr(0.0)
    rows = [[zero for _ in range(n)] for _ in range(n)]
    for a in range(nb):
        for b in range(a, nb):
            terms = []
            # d_k G^k_{a b}
            for k in range(nb):
                g = _gamma(sym, k, a, b)
                if g is not None:
                    d = diff(g, idx[k])
                    if not is_zero(d):
                        terms.append(d)
            # - d_a (sum_k G^k_{k b})
            d = diff(trace_gamma[b], idx[a])
            if not is_zero(d):
                terms.append(neg(d))
            # + G^k_{k l} G^l_{a b}
            for l in range(nb):
                g2 = _gamma(sym, l, a, b)
                if g2 is None or is_zero(trace_gamma[l]):
                    continue
                terms.append(mul(trace_gamma[l], g2))
            # - G^k_{a l} G^l_{k b}
            for (k, i, j), g1 in sym.items():
                for (x, y) in ((i, j), (j, i)) if i != j else ((i, j),):
                    if x != a:
                        continue
                    l = y
                    g2 = _gamma(sym, l, k, b)
                    if g2 is not None:
                        terms.append(neg(mul(g1, g2)))
            val = add(*terms)
            rows[idx[a]][idx[b]] = val
            rows[idx[b]][idx[a]] = val
    return tuple(tuple(r) for r in rows)


def scalar_curvature(m: Metric, point) -> float:
    """Trace of the Ricci tensor with the inverse metric at ``point``."""
    return float(np.sum(m.inverse_at(point) * matrix_values(ricci(m), [point])[0]))


def laplace_beltrami(m: Metric, s: Expr, block: Optional[tuple[int, ...]] = None) -> Expr:
    """Laplace-Beltrami operator of ``m`` (or of the submetric on ``block``)
    applied to the scalar ``s``:
    ``sum_{ij} g^{ij} (d_i d_j s - G^k_{ij} d_k s)``.
    """
    idx = block if block is not None else tuple(range(m.dim))
    nb = len(idx)
    if block is None:
        inv = m.inverse_entries()
        inv_local = [[inv[idx[a]][idx[b]] for b in range(nb)] for a in range(nb)]
    else:
        inv_local = _block_inverse(m, idx)
    sym = christoffel(m, block)
    ds = [diff(s, idx[a]) for a in range(nb)]
    terms = []
    for a in range(nb):
        for b in range(nb):
            g = inv_local[a][b]
            if is_zero(g):
                continue
            inner = [diff(ds[b], idx[a])]
            for k in range(nb):
                gam = _gamma(sym, k, a, b)
                if gam is not None and not is_zero(ds[k]):
                    inner.append(neg(mul(gam, ds[k])))
            val = add(*inner)
            if not is_zero(val):
                terms.append(mul(g, val))
    return add(*terms)


# ---------------------------------------------------------------------------
# Constructors.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkerData:
    """Ingredients of a five-dimensional Walker metric
    ``2 du dv + rho + 2 A du + H du^2`` on the chart (u, x1, x2, x3, v).

    ``rho`` is the 3x3 transverse matrix (entries may depend on u and x),
    ``a`` the three components of the 1-form A, and ``h`` the profile H
    (a function of u, x and possibly v).
    """

    rho: tuple[tuple[Expr, ...], ...]
    a: tuple[Expr, Expr, Expr]
    h: Expr
    chart: Chart = WALKER_CHART

    @staticmethod
    def pp_wave(h, chart: Chart = WALKER_CHART) -> "WalkerData":
        """Flat negative-definite transverse block and vanishing A."""
        zero = _as_expr(0.0)
        mone = _as_expr(-1.0)
        rho = tuple(tuple(mone if i == j else zero for j in range(3)) for i in range(3))
        return WalkerData(rho=rho, a=(zero, zero, zero), h=_as_expr(h), chart=chart)


def walker_metric(w: WalkerData) -> Metric:
    """Assemble the 5x5 Walker metric; signature (1, 4)."""
    zero = _as_expr(0.0)
    one = _as_expr(1.0)
    n = 5
    rows = [[zero for _ in range(n)] for _ in range(n)]
    rows[0][0] = w.h
    rows[0][4] = one
    rows[4][0] = one
    for i in range(3):
        rows[0][1 + i] = w.a[i]
        rows[1 + i][0] = w.a[i]
        for j in range(3):
            rows[1 + i][1 + j] = w.rho[i][j]
    return Metric(w.chart, rows, (1, 4))


X_BLOCK = (1, 2, 3)


def validate_ricci_isotropic(w: WalkerData, points: Sequence[Sequence[float]],
                             tol: float = 1e-9) -> None:
    """Gate for the subclass with ``dH/dv = 0``, ``A = 0`` and Ricci-flat rho.

    Raises ``FormError`` when any condition fails numerically at the sample
    points.  For metrics in this subclass the full Ricci tensor reduces to
    the single (u, u) component ``-(1/2) Lap_rho(H)``.
    """
    hv = diff(w.h, 4)
    m = walker_metric(w)
    ric_rho = ricci(m, X_BLOCK)
    for pt in points:
        if abs(evaluate(hv, pt)) > tol:
            raise FormError(f"profile depends on v at {tuple(pt)}")
        for i, a in enumerate(w.a):
            if abs(evaluate(a, pt)) > tol:
                raise FormError(f"A component {i} does not vanish at {tuple(pt)}")
        for i in X_BLOCK:
            for j in X_BLOCK:
                if abs(evaluate(ric_rho[i][j], pt)) > tol:
                    raise FormError(f"transverse block is not Ricci-flat at {tuple(pt)}")


@dataclass(frozen=True)
class ProductStructure:
    """A (5, 6) block split: Lorentzian factor metric of signature (1, 4) on
    its own 5-chart, negative-definite Riemannian factor metric on its own
    6-chart.  The product chart lists the Lorentzian names first.
    """

    lorentz: Metric
    riemann: Metric

    def __post_init__(self):
        if self.lorentz.dim != 5 or self.lorentz.signature != (1, 4):
            raise FormError(
                f"Lorentzian block must be a (1,4) metric in 5 dimensions, "
                f"got {self.lorentz.signature} in {self.lorentz.dim}"
            )
        if self.riemann.dim != 6 or self.riemann.signature != (0, 6):
            raise FormError(
                f"Riemannian block must be a (0,6) metric in 6 dimensions, "
                f"got {self.riemann.signature} in {self.riemann.dim}"
            )
        overlap = set(self.lorentz.chart.names) & set(self.riemann.chart.names)
        if overlap:
            raise FormError(f"factor charts share coordinate names {sorted(overlap)}")

    @property
    def chart(self) -> Chart:
        return Chart(self.lorentz.chart.names + self.riemann.chart.names)

    @property
    def lorentz_indices(self) -> tuple[int, ...]:
        return tuple(range(5))

    @property
    def riemann_indices(self) -> tuple[int, ...]:
        return tuple(range(5, 11))


@lru_cache(maxsize=None)
def product_metric(ps: ProductStructure) -> Metric:
    """Block-diagonal 11x11 metric of signature (1, 10)."""
    from .expr import remap_coords

    chart = ps.chart
    zero = _as_expr(0.0)
    rows = [[zero for _ in range(11)] for _ in range(11)]
    for i in range(5):
        for j in range(5):
            rows[i][j] = ps.lorentz.entries[i][j]
    table = {i: i + 5 for i in range(6)}
    for i in range(6):
        for j in range(6):
            e = ps.riemann.entries[i][j]
            rows[5 + i][5 + j] = e if is_zero(e) else remap_coords(e, table)

    def singular(point):
        checks = []
        if ps.lorentz.singular is not None:
            checks.append(ps.lorentz.singular(tuple(point[:5])))
        if ps.riemann.singular is not None:
            checks.append(ps.riemann.singular(tuple(point[5:])))
        return any(checks)

    has_pred = ps.lorentz.singular is not None or ps.riemann.singular is not None
    return Metric(chart, rows, (1, 10), singular if has_pred else None)


def ricci_endomorphism_pairing(m: Metric, point, x: np.ndarray, y: np.ndarray) -> float:
    """h(ric(X), ric(Y)) at a point, with ric the Ricci endomorphism.

    Vanishing for all X, Y is the defining property of a totally
    Ricci-isotropic metric.
    """
    ricv = matrix_values(ricci(m), [point])[0]
    h = m.matrix_at(point)
    hinv = np.linalg.inv(h)
    rx = hinv @ (ricv @ np.asarray(x))
    ry = hinv @ (ricv @ np.asarray(y))
    return float(rx @ h @ ry)
