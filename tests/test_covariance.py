"""The covariance oracle: the field equations are tensorial, so a catalog
background pulled back by a change of chart on each factor
(``oracles.pull_back_background``) is again exact, now with dense 5x5 and
6x6 metric blocks.  Those reach the dense paths of the jet core (LAPACK in
``solve_blocks``, aliased components in ``_join``, connected blocks of size
3 or more), which no catalog id does.

* Under the linear maps, each catalog id gets its unmapped verdict and
  fails the same rows.
* On backgrounds that are not solutions, the residual components transform
  as tensors: ``E'(x) = J^T E(phi(x)) J`` for Einstein, the trace is a
  scalar, and closedness and Maxwell are forms,
  ``w'_K(x) = sum_L w_L(phi(x)) det J[L, K]``.

Neither check can see a formula error that is itself tensorial, such as a
global sign; the finite-difference oracles in ``test_equations.py`` cover
that.
"""

import functools
import itertools
from pathlib import Path

import numpy as np
import pytest

from oracles import linear_map, pull_back_background, shear_map

from sugra.bgfile import parse_background_file
from sugra.catalog import build, catalog_ids, get_entry
from sugra.equations import _Jets, verify
from sugra.expr import evaluate_points, gradient

STRESS = Path(__file__).resolve().parent.parent / "perfbench" / "stress-offdiag.bg"
MAPS = {"linear": (linear_map(5, 1), linear_map(6, 2)), "shear": (shear_map(5, 1), shear_map(6, 2))}


@functools.cache
def pulled_back(target: str, chart_map: str, factor: float = 1.0):
    """``target`` (a catalog id with its perturbation key times ``factor``,
    or the stress file), pulled back by the maps named ``chart_map``; each
    is built once per module."""
    bg = (parse_background_file(STRESS) if target == "stress"
          else build(target, perturb={get_entry(target).perturb_key: factor}))
    return bg, pull_back_background(bg, *MAPS[chart_map])


def failing(result) -> set:
    return {(row.equation, row.block) for row in result.rows if row.max_abs >= result.tolerance}


@pytest.mark.parametrize("ident", catalog_ids())
def test_linear_map_keeps_the_verdict(ident):
    bg, mapped = pulled_back(ident, "linear")
    want, got = verify(bg, 100, 42), verify(mapped, 100, 42)
    assert got.verdict == want.verdict
    assert failing(got) == failing(want)


def components(bg, points) -> tuple[dict, dict]:
    """The jet core's residual components at ``points``, by family, and the
    keys of the closedness and Maxwell components."""
    jets = _Jets(bg)
    values, err = jets.values(points)
    assert err is None, err
    return jets.residuals(points, values), jets.core.keys


def jacobian(phi, pts: np.ndarray) -> np.ndarray:
    """``J[p, c, a] = d_a phi^c`` at each of ``pts``."""
    n = len(phi)
    return evaluate_points([d for e in phi for d in gradient(e, range(n))], pts).reshape(-1, n, n)


def pulled_form(values: np.ndarray, keys: list, jac: np.ndarray, degree: int) -> dict:
    """``{K: sum_L w_L det J[L, K]}`` over every increasing K, from the
    components ``w_L`` (one column per key L, one row per point)."""
    out = {}
    for key in itertools.combinations(range(jac.shape[1]), degree):
        cols = np.array(key)
        out[key] = sum((values[:, c] * np.linalg.det(jac[:, np.array(l)][:, :, cols])
                        for c, l in enumerate(keys)), np.zeros(len(jac)))
    return out


def symmetric(rows: np.ndarray) -> np.ndarray:
    """The symmetric 11x11 tensors whose upper triangles, row by row, are
    the rows of ``rows`` (the order of the Einstein components)."""
    out = np.zeros((len(rows), 11, 11))
    i, j = np.triu_indices(11)
    out[:, i, j] = out[:, j, i] = rows
    return out


def assert_close(got, want, what: str):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    tol = 1e-12 * float(np.max(np.abs(want), initial=0.0)) + 1e-10
    worst = float(np.max(np.abs(got - want), initial=0.0))
    assert worst <= tol, f"{what}: off by {worst:.3e}, tolerance {tol:.3e}"


@pytest.mark.parametrize("target, chart_map, factor", [
    ("gamma-delta-ppwave", "shear", 1.05), ("alphabeta-poly", "linear", 1.05),
    ("kahler-theta", "linear", 1.05), ("stress", "linear", 1.0)])
def test_residuals_transform_as_tensors(target, chart_map, factor):
    bg, mapped = pulled_back(target, chart_map, factor)
    phi5, phi6 = MAPS[chart_map]
    x = np.array(mapped.sample(20, 7))
    y = np.hstack([evaluate_points(phi5, x[:, :5]), evaluate_points(phi6, x[:, 5:])])
    jac = np.zeros((len(x), 11, 11))
    jac[:, :5, :5], jac[:, 5:, 5:] = jacobian(phi5, x[:, :5]), jacobian(phi6, x[:, 5:])
    got, got_keys = components(mapped, [tuple(p) for p in x])
    at_y, keys = components(bg, [tuple(p) for p in y])
    assert_close(symmetric(got["einstein"]),
                 np.einsum("pca,pcd,pdb->pab", jac, symmetric(at_y["einstein"]), jac), "Einstein")
    assert_close(got["trace"], at_y["trace"], "trace")
    for family, degree in (("closedness", 5), ("maxwell", 8)):
        want = pulled_form(at_y[family], keys[family], jac, degree)
        mine = dict(zip(got_keys[family], got[family].T))
        assert_close([mine.get(k, np.zeros_like(w)) for k, w in want.items()], list(want.values()), family)
