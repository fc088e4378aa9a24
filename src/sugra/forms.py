"""Sparse differential forms and pseudo-Riemannian metrics on a chart.

A k-form is stored as a sparse map from strictly increasing coordinate
index tuples to scalar expressions.  The module provides the wedge product,
exterior derivative, interior product with a vector field, pointwise metric
inner products of equal-degree forms, and a fully symbolic Hodge star with
pseudo-Riemannian sign bookkeeping.

Orientation convention: the volume form of a metric is
``sqrt(|det g|) dx^0 ^ ... ^ dx^(n-1)`` in chart coordinate order unless an
explicit orientation permutation is supplied.  On a product chart whose
Lorentzian coordinates precede the Riemannian ones this makes the total
volume form the wedge of the factor volume forms.

All objects are immutable after construction; every operation is pure.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

import numpy as np

from .expr import (
    Chart,
    Expr,
    add,
    div,
    evaluate_points,
    gradient,
    is_zero,
    mul,
    neg,
    remap_coords,
    sqrt,
    _as_expr,
)

__all__ = [
    "KForm",
    "Metric",
    "FormError",
    "ChartMismatch",
    "DegreeError",
    "SingularMetricError",
    "wedge",
    "ext_d",
    "interior",
    "form_inner",
    "hodge",
    "zero_form",
    "coordinate_form",
    "monomial_form",
    "volume_form",
    "embed_form",
    "restrict_form",
    "perm_sign",
    "sym_inverse",
]


class FormError(Exception):
    """Invalid form construction or use."""


class ChartMismatch(FormError):
    pass


class DegreeError(FormError):
    pass


class SingularMetricError(FormError):
    pass


def perm_sign(seq: Sequence[int]) -> int:
    """Sign of the permutation taking sorted(seq) to seq; 0 on repeats."""
    inv = 0
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            if seq[i] == seq[j]:
                return 0
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


class KForm:
    """A degree-k differential form with sparse expression coefficients."""

    __slots__ = ("chart", "degree", "coeffs")

    def __init__(self, chart: Chart, degree: int, coeffs=None):
        n = chart.dim
        if not (0 <= degree <= n):
            raise DegreeError(f"degree {degree} out of range for an {n}-chart")
        clean: dict[tuple[int, ...], Expr] = {}
        for key, val in (coeffs or {}).items():
            key = tuple(key)
            if len(key) != degree:
                raise DegreeError(f"key {key} does not have degree {degree}")
            if any(not (0 <= i < n) for i in key):
                raise FormError(f"key {key} leaves the chart of dimension {n}")
            if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
                raise FormError(f"key {key} is not strictly increasing")
            val = _as_expr(val)
            if not is_zero(val):
                clean[key] = val
        self.chart = chart
        self.degree = degree
        self.coeffs = clean

    # -- basic algebra ----------------------------------------------------
    def items(self):
        return self.coeffs.items()

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def scale(self, s) -> "KForm":
        s = _as_expr(s)
        if is_zero(s):
            return KForm(self.chart, self.degree)
        return KForm(self.chart, self.degree, {k: mul(s, v) for k, v in self.coeffs.items()})

    def __neg__(self):
        return KForm(self.chart, self.degree, {k: neg(v) for k, v in self.coeffs.items()})

    def __add__(self, other: "KForm") -> "KForm":
        _same_chart(self, other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise DegreeError(f"cannot add a {self.degree}-form and a {other.degree}-form")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = add(out[k], v) if k in out else v
        return KForm(self.chart, self.degree, out)

    def __sub__(self, other: "KForm") -> "KForm":
        return self + (-other)

    def __repr__(self):
        return f"<KForm deg={self.degree} on {self.chart.names} with {len(self.coeffs)} terms>"


def _same_chart(a: KForm, b: KForm):
    if a.chart.names != b.chart.names:
        raise ChartMismatch(f"charts differ: {a.chart.names} vs {b.chart.names}")


def zero_form(chart: Chart, degree: int) -> KForm:
    return KForm(chart, degree)


def coordinate_form(chart: Chart, name: str) -> KForm:
    """The coordinate differential d<name> as a 1-form."""
    return KForm(chart, 1, {(chart.index(name),): 1.0})


def monomial_form(chart: Chart, coeff, names: Sequence[str]) -> KForm:
    """coeff * d<n1> ^ d<n2> ^ ... from coordinate names, in any order."""
    idx = tuple(chart.index(n) for n in names)
    sign = perm_sign(idx)
    if sign == 0:
        return KForm(chart, len(idx))
    return KForm(chart, len(idx), {tuple(sorted(idx)): mul(sign, _as_expr(coeff))})


def wedge(a: KForm, b: KForm) -> KForm:
    """Graded-commutative wedge product; zero when degrees overflow the chart."""
    _same_chart(a, b)
    k = a.degree + b.degree
    if k > a.chart.dim:
        return KForm(a.chart, a.chart.dim)
    out: dict[tuple[int, ...], Expr] = {}
    for ka, va in a.coeffs.items():
        for kb, vb in b.coeffs.items():
            sign = perm_sign(ka + kb)
            if not sign:
                continue
            merged = tuple(sorted(ka + kb))
            term = mul(sign, va, vb)
            out[merged] = add(out[merged], term) if merged in out else term
    return KForm(a.chart, k, out)


def ext_d(a: KForm) -> KForm:
    """Exterior derivative; satisfies d(d(a)) = 0 and the graded Leibniz rule."""
    n = a.chart.dim
    if a.degree == n:
        return KForm(a.chart, n)
    out: dict[tuple[int, ...], Expr] = {}
    for key, val in a.coeffs.items():
        free = [i for i in range(n) if i not in key]
        for i, dv in zip(free, gradient(val, free)):
            if is_zero(dv):
                continue
            new = tuple(sorted(key + (i,)))
            term = mul(perm_sign((i,) + key), dv)
            out[new] = add(out[new], term) if new in out else term
    return KForm(a.chart, a.degree + 1, out)


def interior(components: Sequence, a: KForm) -> KForm:
    """Interior product with the vector field given by chart components.

    Acts as an antiderivation: ``i_X(a ^ b) = i_X a ^ b + (-1)^k a ^ i_X b``.
    Uses the plain pairing of coordinate differentials with coordinate
    vector fields, ``dx^i(d/dx^j) = delta^i_j`` (no metric involved), so on
    a Walker chart ``interior(d/dv, du ^ dx1)`` vanishes while
    ``interior(d/du, du ^ dx1) = dx1``.
    """
    if len(components) != a.chart.dim:
        raise FormError(
            f"vector field has {len(components)} components on a {a.chart.dim}-chart"
        )
    comps = [_as_expr(c) for c in components]
    if a.degree == 0:
        return KForm(a.chart, 0)
    out: dict[tuple[int, ...], Expr] = {}
    for key, val in a.coeffs.items():
        for t, idx in enumerate(key):
            x = comps[idx]
            if is_zero(x):
                continue
            new = key[:t] + key[t + 1:]
            term = mul(perm_sign((idx,) + new), x, val)
            out[new] = add(out[new], term) if new in out else term
    return KForm(a.chart, a.degree - 1, out)


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

class Metric:
    """Symmetric matrix of expressions with a declared (p, q) signature.

    ``q`` counts negative eigenvalues; the sign of det equals (-1)^q, which
    fixes the symbolic sqrt(|det|) used by the volume form.
    """

    __slots__ = ("chart", "entries", "signature", "_memo")

    def __init__(self, chart: Chart, entries, signature: tuple[int, int]):
        n = chart.dim
        rows = [[_as_expr(entries[i][j]) for j in range(n)] for i in range(n)]
        # Symmetric storage: accept either triangle; when both are set the
        # upper one wins, so entries[i][j] is entries[j][i] for i < j.
        for i in range(n):
            for j in range(i + 1, n):
                a, b = rows[i][j], rows[j][i]
                if is_zero(a) and not is_zero(b):
                    rows[i][j] = b
                else:
                    rows[j][i] = a
        p, q = signature
        if p < 0 or q < 0 or p + q != n:
            raise FormError(f"signature {signature} does not match dimension {n}")
        self.chart = chart
        self.entries = tuple(tuple(r) for r in rows)
        self.signature = (p, q)
        self._memo: dict = {}

    @property
    def dim(self) -> int:
        return self.chart.dim

    def derived(self, key, build):
        """``build()``, computed once per ``key`` and kept with this metric:
        the symbolic inverse here, the connection and Ricci tensor of each
        block in :mod:`sugra.geometry`."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    # -- symbolic inverse -------------------------------------------------
    def inverse_entries(self):
        return self.derived("inverse", lambda: sym_inverse(self.entries))[0]

    def det_expr(self) -> Expr:
        return self.derived("inverse", lambda: sym_inverse(self.entries))[1]

    def sqrt_abs_det(self) -> Expr:
        det = self.det_expr()
        if self.signature[1] % 2:
            det = neg(det)
        return sqrt(det)

    def check_signature(self, points: Iterable[Sequence[float]]) -> None:
        """Verify invertibility and the declared count of negative eigenvalues."""
        metric_values(self, list(points))

    def __repr__(self):
        return f"<Metric {self.signature} on {self.chart.names}>"


def matrix_values(entries, points) -> np.ndarray:
    """Values of a square matrix of expressions at ``points``, shape
    ``(len(points), n, n)``; literal zero entries are not evaluated."""
    n = len(entries)
    nonzero = [i * n + j for i in range(n) for j in range(n) if not is_zero(entries[i][j])]
    out = np.zeros((len(points), n * n))
    out[:, nonzero] = evaluate_points([entries[k // n][k % n] for k in nonzero], points)
    return out.reshape(-1, n, n)


def solve_blocks(stacks, signature: tuple[int, int], points) -> list[tuple[np.ndarray, np.ndarray]]:
    """Inverse and determinant of each stack of equal-sized symmetric blocks
    (shape ``(m, points, k, k)``), after checking the eigenvalues of all the
    blocks together against ``signature`` at each point.  Blocks of size 1
    and 2 are solved in closed form: a 1x1 block is its eigenvalue and its
    reciprocal is its inverse; ``[[a, b], [b, d]]`` has ``det = a*d - b*b``,
    the adjugate over det as inverse, and the eigenvalues ``m + sign(m)
    hypot((a-d)/2, b)`` (``m = (a+d)/2``, the one of larger size) and det
    over that one.  Larger blocks go to LAPACK."""
    eigs, solved = [], []
    for v in stacks:
        k = v.shape[-1]
        if k == 1:
            det, adj = v[..., 0, 0], np.ones_like(v)
            eigs.append(det)
        elif k == 2:
            a, b, d = v[..., 0, 0], v[..., 0, 1], v[..., 1, 1]
            det, adj = a * d - b * b, np.stack([d, -b, -b, a], axis=-1).reshape(v.shape)
            half = (a + d) / 2
            large = half + np.copysign(np.hypot((a - d) / 2, b), half)
            eigs += [large, np.divide(det, large, out=np.zeros_like(large), where=large != 0.0)]
        else:
            det, adj = np.linalg.det(v), None
            eigs.append(np.linalg.eigvalsh(v).transpose(0, 2, 1).reshape(-1, v.shape[1]))
        solved.append((v, adj, det))
    check_signature_values(np.concatenate(eigs).T, signature, points)
    return [(np.linalg.inv(v) if adj is None else adj / det[..., None, None], det) for v, adj, det in solved]


def metric_values(m: Metric, points) -> tuple[np.ndarray, np.ndarray]:
    """The values of ``m`` and of its inverse at ``points``, each of shape
    ``(len(points), n, n)``, solved per connected block by
    :func:`solve_blocks`; a point where the signature fails raises."""
    h = matrix_values(m.entries, points)
    blocks = _components(m.entries, m.dim)
    index = [np.array([b for b in blocks if len(b) == k]) for k in sorted({len(b) for b in blocks})]
    stacks = [h[:, i[:, :, None], i[:, None, :]].transpose(1, 0, 2, 3) for i in index]
    hinv = np.zeros_like(h)
    for i, (inv, _) in zip(index, solve_blocks(stacks, m.signature, points)):
        hinv[:, i[:, :, None], i[:, None, :]] = inv.transpose(1, 0, 2, 3)
    return h, hinv


def check_signature_values(vals: np.ndarray, signature: tuple[int, int], points) -> None:
    """Check the eigenvalues of a metric at each point (one row per point)
    for invertibility and the declared count ``q`` of negative eigenvalues;
    raise at the first point that fails."""
    degenerate = np.any(np.abs(vals) < 1e-12, axis=1)
    negs = np.sum(vals < 0.0, axis=1)
    for pt, deg, neg in zip(points, degenerate, negs):
        if deg:
            raise SingularMetricError(f"metric is degenerate at {tuple(pt)}")
        if neg != signature[1]:
            raise FormError(f"metric has {neg} negative eigenvalues at {tuple(pt)}, "
                            f"declared {signature[1]}")


# -- symbolic determinant / adjugate with zero pruning ----------------------

def _nonzero_cols(entries, row: int, cols: Sequence[int]) -> int:
    return sum(1 for c in cols if not is_zero(entries[row][c]))


def _det_sub(entries, rows: tuple[int, ...], cols: tuple[int, ...], memo: dict) -> Expr:
    """Minor det(entries[rows, cols]); the empty minor is 1.

    The result is the literal zero exactly when no row-column matching
    through nonzero entries exists: by induction, every term of the
    expansion then has a zero entry or a zero minor and is skipped.
    """
    key = (rows, cols)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if not rows:
        out = _as_expr(1.0)
    elif len(rows) == 1:
        out = entries[rows[0]][cols[0]]
    else:
        # Expand along the row with the fewest nonzero entries.
        best = min(range(len(rows)), key=lambda r: _nonzero_cols(entries, rows[r], cols))
        r = rows[best]
        sub_rows = rows[:best] + rows[best + 1:]
        terms = []
        for cpos, c in enumerate(cols):
            e = entries[r][c]
            if is_zero(e):
                continue
            minor = _det_sub(entries, sub_rows, cols[:cpos] + cols[cpos + 1:], memo)
            if is_zero(minor):
                continue
            sign = -1 if (best + cpos) % 2 else 1
            terms.append(mul(sign, e, minor))
        out = add(*terms)
    memo[key] = out
    return out


def _components(entries, n: int) -> list[tuple[int, ...]]:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if not is_zero(entries[i][j]):
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [tuple(sorted(g)) for g in sorted(groups.values())]


def sym_inverse(entries) -> tuple[tuple[tuple[Expr, ...], ...], Expr]:
    """Exact inverse and determinant of a symmetric expression matrix.

    Works per connected component of the off-diagonal sparsity graph, so
    block-diagonal metrics never pay for cross-block cofactors.  Entries of
    the inverse are adjugate/determinant quotients.
    """
    n = len(entries)
    zero = _as_expr(0.0)
    inv = [[zero for _ in range(n)] for _ in range(n)]
    dets = []
    for comp in _components(entries, n):
        memo: dict = {}
        d = _det_sub(entries, comp, comp, memo)
        dets.append(d)
        for a, i in enumerate(comp):
            rows = comp[:a] + comp[a + 1:]
            for b, j in enumerate(comp):
                if j < i:
                    continue
                cols = comp[:b] + comp[b + 1:]
                minor = _det_sub(entries, rows, cols, memo)
                if is_zero(minor):
                    continue
                sign = -1 if (a + b) % 2 else 1
                val = div(mul(sign, minor), d)
                inv[i][j] = val
                inv[j][i] = val
    return tuple(tuple(r) for r in inv), mul(*dets)


# ---------------------------------------------------------------------------
# Metric inner product and Hodge star.
# ---------------------------------------------------------------------------

def _gram_det(hinv: np.ndarray, rows: tuple[int, ...], cols: tuple[int, ...]):
    """The Gram minors ``det(hinv[:, rows, cols])``, one per point of the
    stack ``hinv``; closed form up to 2x2, LAPACK beyond."""
    k = len(rows)
    if k == 0:
        return 1.0
    if k == 1:
        return hinv[:, rows[0], cols[0]]
    sub = hinv[:, rows][:, :, cols]
    if k == 2:
        return sub[:, 0, 0] * sub[:, 1, 1] - sub[:, 0, 1] * sub[:, 1, 0]
    return np.linalg.det(sub)


def form_inner(a: KForm, b: KForm, m: Metric, points, hinv: Optional[np.ndarray] = None) -> np.ndarray:
    """Metric inner product of two equal-degree forms at each of ``points``.

    For increasing-index coefficients this is the double sum of Gram minors
    of the inverse metric; it reduces to the usual ``1/k!`` component sum.
    The terms are added in key order, point by point.  ``hinv``, if given,
    is ``m``'s inverse at ``points`` from :func:`metric_values`, solved once
    for several products.
    """
    _same_chart(a, b)
    if a.chart.names != m.chart.names:
        raise ChartMismatch("form and metric live on different charts")
    if a.degree != b.degree:
        raise DegreeError(f"inner product of a {a.degree}-form and a {b.degree}-form")
    total = np.zeros(len(points))
    if a.is_zero or b.is_zero:
        return total
    if hinv is None:
        hinv = metric_values(m, points)[1]
    values = evaluate_points(list(a.coeffs.values()) + list(b.coeffs.values()), points)
    av, bv = values[:, :len(a.coeffs)], values[:, len(a.coeffs):]
    for i, ka in enumerate(a.coeffs):
        for j, kb in enumerate(b.coeffs):
            total += av[:, i] * bv[:, j] * _gram_det(hinv, ka, kb)
    return total


def hodge(a: KForm, m: Metric, orientation: Optional[Sequence[str]] = None) -> KForm:
    """Symbolic Hodge star fixed by ``x ^ star(y) = <x, y> vol``.

    ``orientation`` is a permutation of the chart coordinates declaring
    ``vol = + sqrt(|det m|) d(orientation)``; the default is chart order.
    Satisfies the double-star law ``star(star(a)) = (-1)^(k(n-k)+q) a`` for
    a metric with q negative eigenvalues.
    """
    if a.chart.names != m.chart.names:
        raise ChartMismatch("form and metric live on different charts")
    n = a.chart.dim
    parity = 1
    if orientation is not None:
        perm = tuple(a.chart.index(name) for name in orientation)
        if sorted(perm) != list(range(n)):
            raise FormError(f"orientation {orientation} is not a chart permutation")
        parity = perm_sign(perm)
    inv = m.inverse_entries()
    sq = m.sqrt_abs_det()
    memo: dict = {}
    out: dict[tuple[int, ...], Expr] = {}
    for key, val in a.coeffs.items():
        # Minors without a row-column matching fold to the literal zero.
        cols = sorted({c for r in key for c in range(n) if not is_zero(inv[r][c])})
        for sel in itertools.combinations(cols, a.degree):
            minor = _det_sub(inv, key, sel, memo)
            if is_zero(minor):
                continue
            comp = tuple(c for c in range(n) if c not in sel)
            sign = perm_sign(sel + comp) * parity
            term = mul(sign, val, minor, sq)
            out[comp] = add(out[comp], term) if comp in out else term
    return KForm(a.chart, n - a.degree, out)


def volume_form(m: Metric, orientation: Optional[Sequence[str]] = None) -> KForm:
    """sqrt(|det m|) times the oriented top coordinate form: the star of 1."""
    return hodge(KForm(m.chart, 0, {(): 1.0}), m, orientation)


# ---------------------------------------------------------------------------
# Chart embeddings (factor chart <-> product chart).
# ---------------------------------------------------------------------------

def embed_form(a: KForm, big: Chart, offset: int) -> KForm:
    """Reinterpret a factor-chart form on ``big`` with indices shifted by ``offset``."""
    n = a.chart.dim
    if offset < 0 or offset + n > big.dim:
        raise FormError(f"block [{offset}, {offset + n}) leaves the chart of dim {big.dim}")
    table = {i: i + offset for i in range(n)}
    coeffs = {
        tuple(i + offset for i in key): remap_coords(val, table)
        for key, val in a.coeffs.items()
    }
    return KForm(big, a.degree, coeffs)


def restrict_form(a: KForm, small: Chart, offset: int) -> KForm:
    """Inverse of :func:`embed_form`; errors if the form leaves the block."""
    n = small.dim
    table = {i + offset: i for i in range(n)}
    coeffs = {}
    for key, val in a.coeffs.items():
        if any(i not in table for i in key):
            raise FormError(f"component {key} lies outside the block at offset {offset}")
        try:
            coeffs[tuple(table[i] for i in key)] = remap_coords(val, table)
        except KeyError as err:
            raise FormError(f"component {key} depends on {a.chart.names[err.args[0]]!r}, "
                            f"outside the block at offset {offset}") from None
    return KForm(small, a.degree, coeffs)

