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

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .expr import (
    Chart,
    Coord,
    Expr,
    add,
    diff,
    div,
    evaluate_points,
    is_zero,
    mul,
    neg,
    remap_coords,
    sqrt,
    _as_expr,
    _distinct_nodes,
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
    "embed_scalar",
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


def _merge_sign(left: tuple[int, ...], right: tuple[int, ...]):
    """Merge two disjoint increasing tuples; return (merged, sign) or (None, 0)."""
    if set(left) & set(right):
        return None, 0
    merged = tuple(sorted(left + right))
    return merged, perm_sign(left + right)


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

    def evaluate(self, point) -> dict[tuple[int, ...], float]:
        values = evaluate_points(list(self.coeffs.values()), [point])[0]
        return dict(zip(self.coeffs, values.tolist()))

    def max_abs_at(self, point) -> float:
        return max(map(abs, self.evaluate(point).values()), default=0.0)

    def key_name(self, key: tuple[int, ...]) -> str:
        return "^".join(self.chart.names[i] for i in key) if key else "1"

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
            merged, sign = _merge_sign(ka, kb)
            if merged is None:
                continue
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
        for i in range(n):
            if i in key:
                continue
            dv = diff(val, i)
            if is_zero(dv):
                continue
            pos = sum(1 for j in key if j < i)
            sign = -1 if pos % 2 else 1
            new = tuple(sorted(key + (i,)))
            term = mul(sign, dv)
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
            sign = -1 if t % 2 else 1
            new = key[:t] + key[t + 1:]
            term = mul(sign, x, val)
            out[new] = add(out[new], term) if new in out else term
    return KForm(a.chart, a.degree - 1, out)


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

class Metric:
    """Symmetric matrix of expressions with a declared (p, q) signature.

    ``q`` counts negative eigenvalues; the sign of det equals (-1)^q, which
    fixes the symbolic sqrt(|det|) used by the volume form.  An optional
    ``singular`` predicate marks points too close to the metric's singular
    set (True means the point must be avoided).
    """

    __slots__ = ("chart", "entries", "signature", "singular", "_inv")

    def __init__(self, chart: Chart, entries, signature: tuple[int, int],
                 singular: Optional[Callable[[Sequence[float]], bool]] = None):
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
        self.singular = singular
        self._inv = None

    @property
    def dim(self) -> int:
        return self.chart.dim

    # -- symbolic inverse -------------------------------------------------
    def inverse_entries(self):
        if self._inv is None:
            self._inv = sym_inverse(self.entries)
        return self._inv[0]

    def det_expr(self) -> Expr:
        if self._inv is None:
            self._inv = sym_inverse(self.entries)
        return self._inv[1]

    def sqrt_abs_det(self) -> Expr:
        det = self.det_expr()
        if self.signature[1] % 2:
            det = neg(det)
        return sqrt(det)

    # -- numeric access ---------------------------------------------------
    def matrix_fn(self) -> Callable[[Sequence[float]], np.ndarray]:
        """:meth:`matrix_at` as a point -> matrix callable."""
        return self.matrix_at

    def matrix_at(self, point) -> np.ndarray:
        return matrix_values(self.entries, [point])[0]

    def inverse_at(self, point) -> np.ndarray:
        m = self.matrix_at(point)
        try:
            return np.linalg.inv(m)
        except np.linalg.LinAlgError:
            raise SingularMetricError(f"metric is singular at {tuple(point)}") from None

    def check_signature(self, points: Iterable[Sequence[float]]) -> None:
        """Verify invertibility and the declared count of negative eigenvalues."""
        points = list(points)
        check_signature_values(matrix_values(self.entries, points), self.signature, points)

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


def check_signature_values(values: np.ndarray, signature: tuple[int, int], points) -> None:
    """Check a stack of metric values (one ``(n, n)`` matrix per point) for
    invertibility and the declared count ``q`` of negative eigenvalues;
    raise at the first point that fails."""
    vals = np.linalg.eigvalsh(values)
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
    key = (rows, cols)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if len(rows) == 1:
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
        if len(comp) == 1:
            i = comp[0]
            d = entries[i][i]
            dets.append(d)
            inv[i][i] = div(1.0, d)
            continue
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

def _gram_det(hinv: np.ndarray, rows: tuple[int, ...], cols: tuple[int, ...]) -> float:
    k = len(rows)
    if k == 0:
        return 1.0
    if k == 1:
        return hinv[rows[0], cols[0]]
    sub = hinv[np.ix_(rows, cols)]
    if k == 2:
        return sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0]
    return float(np.linalg.det(sub))


def form_inner(a: KForm, b: KForm, m: Metric, point) -> float:
    """Pointwise metric inner product of two equal-degree forms.

    For increasing-index coefficients this is the double sum of Gram minors
    of the inverse metric; it reduces to the usual ``1/k!`` component sum.
    """
    _same_chart(a, b)
    if a.chart.names != m.chart.names:
        raise ChartMismatch("form and metric live on different charts")
    if a.degree != b.degree:
        raise DegreeError(f"inner product of a {a.degree}-form and a {b.degree}-form")
    if a.is_zero or b.is_zero:
        return 0.0
    hinv = m.inverse_at(point)
    av = a.evaluate(point)
    bv = b.evaluate(point)
    total = 0.0
    for ka, va in av.items():
        if va == 0.0:
            continue
        for kb, vb in bv.items():
            if vb == 0.0:
                continue
            g = _gram_det(hinv, ka, kb)
            if g != 0.0:
                total += va * vb * g
    return total


def _candidate_columns(colsets: list[list[int]]) -> list[tuple[int, ...]]:
    """Distinct sorted column tuples admitting a perfect row-column matching.

    A minor det(inv[J_a, K_b]) can only be nonzero when every row of J can
    be paired with a distinct column of K through a nonzero entry, so the
    candidates are exactly the column sets of such matchings (pairings need
    not be monotone, e.g. a metric with an off-diagonal null corner).
    """
    seen: set[tuple[int, ...]] = set()
    used: set[int] = set()

    def rec(row: int):
        if row == len(colsets):
            seen.add(tuple(sorted(used)))
            return
        for c in colsets[row]:
            if c not in used:
                used.add(c)
                rec(row + 1)
                used.discard(c)

    rec(0)
    return sorted(seen)


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
    k = a.degree
    parity = 1
    if orientation is not None:
        perm = tuple(a.chart.index(name) for name in orientation)
        if sorted(perm) != list(range(n)):
            raise FormError(f"orientation {orientation} is not a chart permutation")
        parity = perm_sign(perm)
    inv = m.inverse_entries()
    sq = m.sqrt_abs_det()
    all_idx = set(range(n))
    out: dict[tuple[int, ...], Expr] = {}
    for key, val in a.coeffs.items():
        if k == 0:
            comp = tuple(range(n))
            term = mul(parity, val, sq)
            out[comp] = add(out[comp], term) if comp in out else term
            continue
        colsets = [[c for c in range(n) if not is_zero(inv[r][c])] for r in key]
        if any(not cs for cs in colsets):
            continue
        for sel in _candidate_columns(colsets):
            minor = _det_sub(inv, tuple(key), tuple(sel), {})
            if is_zero(minor):
                continue
            comp = tuple(sorted(all_idx - set(sel)))
            sign = perm_sign(sel + comp) * parity
            term = mul(sign, val, minor, sq)
            out[comp] = add(out[comp], term) if comp in out else term
    return KForm(a.chart, n - k, out)


def volume_form(m: Metric, orientation: Optional[Sequence[str]] = None) -> KForm:
    """sqrt(|det m|) times the oriented top coordinate form."""
    n = m.chart.dim
    parity = 1
    if orientation is not None:
        perm = tuple(m.chart.index(name) for name in orientation)
        parity = perm_sign(perm)
    return KForm(m.chart, n, {tuple(range(n)): mul(parity, m.sqrt_abs_det())})


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
        coeffs[tuple(table[i] for i in key)] = remap_coords(val, table)
    return KForm(small, a.degree, coeffs)


def embed_scalar(e: Expr, offset: int) -> Expr:
    """Shift all coordinate indices of a scalar expression by ``offset``."""
    idx = {n.index for n in _distinct_nodes([e]) if isinstance(n, Coord)}
    return remap_coords(e, {i: i + offset for i in idx}) if idx else e
