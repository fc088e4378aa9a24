"""Shared builders for randomized test data (all seeded, never global)."""

from __future__ import annotations

import itertools
import zlib

import numpy as np

from sugra.expr import Chart, add, const, coord, cos, div, evaluate_points, intpow, mul, sin, _Plan
from sugra.forms import KForm, Metric


def values(e, points) -> np.ndarray:
    """The expression ``e`` at each of ``points``."""
    return evaluate_points([e], points)[:, 0]


def matrix_fn(m: Metric):
    """The values of ``m`` as a point -> matrix callable, for the oracles in
    ``oracles.py``; the walk over its entries is laid out once."""
    plan = _Plan([e for row in m.entries for e in row])
    return lambda p: plan.values([p])[0].reshape(m.dim, m.dim)


def form_fn(form: KForm):
    """The components of ``form`` as a point -> ``{key: value}`` callable,
    for the oracles in ``oracles.py``; the walk is laid out once."""
    plan = _Plan(list(form.coeffs.values()))
    return lambda p: dict(zip(form.coeffs, plan.values([p])[0].tolist()))


def count_plans(monkeypatch) -> list[int]:
    """``[n]``, where n counts the ``_Plan`` built from here on in the test."""
    built = [0]
    init = _Plan.__init__

    def counting(self, exprs):
        built[0] += 1
        init(self, exprs)

    monkeypatch.setattr(_Plan, "__init__", counting)
    return built


def flat_metric(chart: Chart, signature: tuple[int, int]) -> Metric:
    """diag(+1 x p, -1 x q) in chart order."""
    p, q = signature
    assert p + q == chart.dim
    rows = [[const(1.0 if i < p else -1.0) if i == j else const(0.0)
             for j in range(chart.dim)] for i in range(chart.dim)]
    return Metric(chart, rows, signature)


def random_scalar(chart: Chart, rng, polynomial_only: bool = False):
    """A small random scalar expression, smooth and finite on [-3, 3]^n."""
    n = chart.dim
    x = coord(int(rng.integers(0, n)))
    y = coord(int(rng.integers(0, n)))
    c1 = float(rng.uniform(-2.0, 2.0))
    c2 = float(rng.uniform(-1.0, 1.0))
    poly = add(mul(c1, x), mul(c2, intpow(y, 2)), float(rng.uniform(-1.0, 1.0)))
    if polynomial_only:
        return poly
    pick = int(rng.integers(0, 4))
    if pick == 0:
        return poly
    if pick == 1:
        return add(poly, sin(x))
    if pick == 2:
        return add(poly, mul(0.3, cos(add(x, y))))
    return add(poly, div(c1 if c1 != 0.0 else 1.0, add(2.0, intpow(x, 2))))


def random_form(chart: Chart, degree: int, rng, nkeys: int = 3,
                polynomial_only: bool = False) -> KForm:
    """Sparse random form with smooth coefficients."""
    keys = list(itertools.combinations(range(chart.dim), degree))
    take = min(nkeys, len(keys))
    chosen = rng.choice(len(keys), size=take, replace=False)
    coeffs = {keys[int(i)]: random_scalar(chart, rng, polynomial_only) for i in chosen}
    return KForm(chart, degree, coeffs)


def random_points(rng, count: int, dim: int, lo: float = 0.2, hi: float = 1.2):
    return [tuple(float(v) for v in rng.uniform(lo, hi, size=dim)) for _ in range(count)]


def rng_for(name: str) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(name.encode()))
