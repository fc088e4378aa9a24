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

import functools
from typing import Optional, Sequence

import numpy as np

from .expr import (_ZERO, Chart, Expr, _as_expr, add, coord, diff, evaluate_points, gradient, is_zero, mul,
                   neg, substitute)
from .forms import FormError, Metric, matrix_values, metric_values, sym_inverse

__all__ = [
    "ProductStructure",
    "PRODUCT_COORDS",
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


def _on_metric(fn):
    """``fn(m, block)``, built once per block and kept on the metric ``m``, so
    it lives exactly as long as the metric does."""
    @functools.wraps(fn)
    def kept(m: Metric, block: Optional[tuple[int, ...]] = None):
        return m.derived((fn.__name__, block), lambda: fn(m, block))
    return kept


@_on_metric
def _connection(m: Metric, block: Optional[tuple[int, ...]] = None):
    """``(idx, inv, G)``: the coordinates of ``block`` (all of them if None),
    the inverse of the submetric on them, and its nonzero Christoffel
    symbols ``G[k][i][j] = G^k_{ij}`` with both lower orders present (each
    ``G[k][i]`` is a dict in ascending ``j``).  Indices are positions inside
    ``idx``; the other coordinates are parameters.
    """
    idx = block if block is not None else tuple(range(m.dim))
    r = range(len(idx))
    inv = m.inverse_entries() if block is None else sym_inverse([[m.entries[i][j] for j in idx] for i in idx])[0]
    # dg[b][c][a] = d_{idx[a]} g_{idx[b] idx[c]}
    dg = [[gradient(m.entries[b][c], idx) for c in idx] for b in idx]
    G = [[{} for _ in r] for _ in r]
    for i in r:
        for j in r[i:]:
            # 2 G_{l i j} = d_i g_{j l} + d_j g_{i l} - d_l g_{i j}, kept where nonzero
            lower = [(l, c) for l in r if not is_zero(c := add(dg[j][l][i], dg[i][l][j], neg(dg[i][j][l])))]
            for k in r:
                g = add(*[mul(0.5, inv[k][l], c) for l, c in lower if not is_zero(inv[k][l])])
                if not is_zero(g):
                    G[k][i][j] = G[k][j][i] = g
    return idx, inv, G


def christoffel(m: Metric, block: Optional[tuple[int, ...]] = None):
    """Christoffel symbols of the second kind as a sparse dict (k, i, j) -> Expr.

    Entries are stored for i <= j only; the symbols are symmetric in the
    lower pair.  With ``block`` given, the connection of the submetric on
    those coordinates is computed instead (indices in the dict refer to
    positions inside ``block``), treating the remaining coordinates as
    parameters.
    """
    _, _, G = _connection(m, block)
    return {(k, i, j): e for k, gk in enumerate(G) for i, row in enumerate(gk) for j, e in row.items() if i <= j}


@_on_metric
def ricci(m: Metric, block: Optional[tuple[int, ...]] = None):
    """Ricci tensor as a dense tuple-of-tuples of expressions (symmetric).

    With ``block`` given, the Ricci tensor of the submetric on those
    coordinates (other coordinates treated as parameters); the returned
    matrix is still full-size with zeros outside the block.
    """
    idx, _, G = _connection(m, block)
    r = range(len(idx))
    trace = [add(*[G[k][k][l] for k in r if l in G[k][k]]) for l in r]  # G^k_{k l}
    rows = [[_ZERO] * m.dim for _ in range(m.dim)]
    for a in r:
        for b in r[a:]:
            val = add(*[diff(G[k][a][b], idx[k]) for k in r if b in G[k][a]],  # d_k G^k_{a b}
                      neg(diff(trace[b], idx[a])),  # - d_a G^k_{k b}
                      *[mul(trace[l], G[l][a][b]) for l in r if b in G[l][a]],  # + G^k_{k l} G^l_{a b}
                      # - G^k_{a l} G^l_{k b}
                      *[neg(mul(g, G[l][k][b])) for k in r for l, g in G[k][a].items() if b in G[l][k]])
            rows[idx[a]][idx[b]] = rows[idx[b]][idx[a]] = val
    return tuple(tuple(row) for row in rows)


def scalar_curvature(m: Metric, points) -> np.ndarray:
    """Trace of the Ricci tensor with the inverse metric at each of ``points``."""
    hinv = metric_values(m, points)[1]
    return np.sum((hinv * matrix_values(ricci(m), points)).reshape(len(hinv), -1), axis=1)


def laplace_beltrami(m: Metric, s: Expr, block: Optional[tuple[int, ...]] = None) -> Expr:
    """Laplace-Beltrami operator of ``m`` (or of the submetric on ``block``)
    applied to the scalar ``s``:
    ``sum_{ij} g^{ij} (d_i d_j s - G^k_{ij} d_k s)``.
    """
    idx, inv, G = _connection(m, block)
    r = range(len(idx))
    ds = gradient(s, idx)
    return add(*[mul(inv[a][b], add(diff(ds[b], idx[a]),
                                    *[neg(mul(G[k][a][b], ds[k])) for k in r if b in G[k][a]]))
                 for a in r for b in r])


# ---------------------------------------------------------------------------
# Constructors.
# ---------------------------------------------------------------------------

class WalkerData:
    """Ingredients of a five-dimensional Walker metric
    ``2 du dv + rho + 2 A du + H du^2`` on the chart (u, x1, x2, x3, v).

    ``rho`` is the 3x3 transverse matrix (entries may depend on u and x),
    ``a`` the three components of the 1-form A, and ``h`` the profile H
    (a function of u, x and possibly v).
    """

    __slots__ = ("rho", "a", "h")

    def __init__(self, rho: tuple[tuple[Expr, ...], ...], a: tuple[Expr, Expr, Expr], h: Expr):
        self.rho = rho
        self.a = a
        self.h = h

    @staticmethod
    def pp_wave(h) -> "WalkerData":
        """Flat negative-definite transverse block and vanishing A."""
        zero = _as_expr(0.0)
        mone = _as_expr(-1.0)
        rho = tuple(tuple(mone if i == j else zero for j in range(3)) for i in range(3))
        return WalkerData(rho=rho, a=(zero, zero, zero), h=_as_expr(h))


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
    return Metric(WALKER_CHART, rows, (1, 4))


X_BLOCK = (1, 2, 3)


def validate_ricci_isotropic(w: WalkerData, points: Sequence[Sequence[float]]) -> None:
    """Gate for the subclass with ``dH/dv = 0``, ``A = 0`` and Ricci-flat rho.

    Raises ``FormError`` when any condition exceeds 1e-9 in size at the
    sample points, naming the first failing point and its first failing check.
    For metrics in this subclass the full Ricci tensor reduces to the
    single (u, u) component ``-(1/2) Lap_rho(H)``.
    """
    ric_rho = ricci(walker_metric(w), X_BLOCK)
    checks = ([(diff(w.h, 4), "profile depends on v")]
              + [(a, f"A component {i} does not vanish") for i, a in enumerate(w.a)]
              + [(ric_rho[i][j], "transverse block is not Ricci-flat") for i in X_BLOCK for j in X_BLOCK])
    points = list(points)
    bad = np.abs(evaluate_points([e for e, _ in checks], points)) > 1e-9
    if bad.any():
        point, check = divmod(int(np.argmax(bad)), len(checks))
        raise FormError(f"{checks[check][1]} at {tuple(points[point])}")


#: Each factor's coordinates on the product chart, by factor dimension: Lorentzian first.
PRODUCT_COORDS = {5: tuple(map(coord, range(5))), 6: tuple(map(coord, range(5, 11)))}


class ProductStructure:
    """A (5, 6) block split: Lorentzian factor metric of signature (1, 4) on
    its own 5-chart, negative-definite Riemannian factor metric on its own
    6-chart.  The product chart lists the Lorentzian names first.
    """

    __slots__ = ("lorentz", "riemann")

    def __init__(self, lorentz: Metric, riemann: Metric):
        if lorentz.dim != 5 or lorentz.signature != (1, 4):
            raise FormError(f"Lorentzian block must be a (1,4) metric in 5 dimensions, "
                            f"got {lorentz.signature} in {lorentz.dim}")
        if riemann.dim != 6 or riemann.signature != (0, 6):
            raise FormError(f"Riemannian block must be a (0,6) metric in 6 dimensions, "
                            f"got {riemann.signature} in {riemann.dim}")
        overlap = set(lorentz.chart.names) & set(riemann.chart.names)
        if overlap:
            raise FormError(f"factor charts share coordinate names {sorted(overlap)}")
        self.lorentz = lorentz
        self.riemann = riemann

    @property
    def chart(self) -> Chart:
        return Chart(self.lorentz.chart.names + self.riemann.chart.names)


def product_metric(ps: ProductStructure) -> Metric:
    """Block-diagonal 11x11 metric of signature (1, 10)."""
    rows = ([list(row) + [_ZERO] * 6 for row in ps.lorentz.entries]
            + [[_ZERO] * 5 + [substitute(e, PRODUCT_COORDS[6]) for e in row] for row in ps.riemann.entries])
    return Metric(ps.chart, rows, (1, 10))


def ricci_endomorphism_pairing(m: Metric, points, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """h(ric(X), ric(Y)) at each of ``points``, with ric the Ricci endomorphism.

    Vanishing for all X, Y is the defining property of a totally
    Ricci-isotropic metric.
    """
    h, hinv = metric_values(m, points)
    ric = hinv @ matrix_values(ricci(m), points)
    return np.einsum("pi,pij,pj->p", ric @ np.asarray(x), h, ric @ np.asarray(y))
