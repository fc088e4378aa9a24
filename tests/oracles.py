"""Independent numeric oracles used by the tests.

The curvature oracle differentiates metric *values* by Richardson-stepped
central differences (step 1e-4, one extrapolation), never touching the
symbolic derivative path it cross-checks.  The field-equation oracles build
on it: they see the metric and the flux only through their values at points.
:func:`jet_ricci` assembles the Ricci tensor from exact derivatives taken
elsewhere (by sympy, in the tests).
"""

from __future__ import annotations

import itertools

import numpy as np


def central_diff(f, x: float, h: float = 1e-5) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def richardson_partial(f, point, i: int, h: float = 1e-4):
    """Richardson-extrapolated central difference of f along coordinate i.

    Works for scalar- or array-valued f.
    """

    def d(step):
        up = list(point)
        up[i] += step
        dn = list(point)
        dn[i] -= step
        return (np.asarray(f(tuple(up))) - np.asarray(f(tuple(dn)))) / (2.0 * step)

    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def fd_christoffel(matfn, point, h: float = 1e-4) -> np.ndarray:
    """Christoffel symbols from finite differences of the metric values."""
    g = np.asarray(matfn(point))
    n = g.shape[0]
    ginv = np.linalg.inv(g)
    dg = np.array([richardson_partial(matfn, point, k, h) for k in range(n)])
    # G^k_ij = h^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2, with dg[a, b, c] = d_a g_bc
    low = dg.transpose(2, 0, 1) + dg.transpose(2, 1, 0) - dg
    return 0.5 * np.einsum("kl,lij->kij", ginv, low)


def fd_ricci(matfn, point, h: float = 1e-4) -> np.ndarray:
    """Ricci tensor from nested finite differences of the metric values,
    using the same index convention as the symbolic path:
    Ric_ab = d_k G^k_ab - d_a G^k_kb + G^k_kl G^l_ab - G^k_al G^l_kb.
    """
    n = np.asarray(matfn(point)).shape[0]

    def gamfn(p):
        return fd_christoffel(matfn, p, h)

    gam = gamfn(point)
    dgam = np.array([richardson_partial(gamfn, point, m, h) for m in range(n)])  # d_m G^k_ab
    t1 = np.einsum("kkab->ab", dgam)
    t2 = np.einsum("akkb->ab", dgam)
    t3 = np.einsum("kkl,lab->ab", gam, gam)
    t4 = np.einsum("kal,lkb->ab", gam, gam)
    return t1 - t2 + t3 - t4


def jet_ricci(g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> np.ndarray:
    """Ricci tensor at one point from the metric's values ``g`` and exact
    derivatives there, ``dg[k, i, j] = d_k g_ij`` and ``ddg[l, k, i, j] =
    d_l d_k g_ij``, in the convention of :func:`fd_ricci`."""
    ginv = np.linalg.inv(g)
    low = 0.5 * (dg.transpose(2, 0, 1) + dg.transpose(2, 1, 0) - dg)  # G_lij
    dlow = 0.5 * (ddg.transpose(0, 3, 1, 2) + ddg.transpose(0, 3, 2, 1) - ddg)  # d_m G_lij
    gam = np.einsum("kl,lij->kij", ginv, low)
    dginv = -np.einsum("ka,mab,bl->mkl", ginv, dg, ginv)
    dgam = np.einsum("mkl,lij->mkij", dginv, low) + np.einsum("kl,mlij->mkij", ginv, dlow)
    return (np.einsum("kkab->ab", dgam) - np.einsum("akkb->ab", dgam)
            + np.einsum("kkl,lab->ab", gam, gam) - np.einsum("kal,lkb->ab", gam, gam))


def _parity(seq) -> int:
    """Sign of the permutation that sorts ``seq`` (distinct entries)."""
    inversions = sum(1 for a, b in itertools.combinations(seq, 2) if a > b)
    return -1 if inversions % 2 else 1


def flux_tensor(values: dict, n: int) -> np.ndarray:
    """The antisymmetric n^4 array of a 4-form given by its values on
    increasing index tuples."""
    f = np.zeros((n,) * 4)
    for key, v in values.items():
        for perm in itertools.permutations(range(4)):
            f[tuple(key[t] for t in perm)] = _parity(perm) * v
    return f


def numeric_star(g: np.ndarray, f: np.ndarray) -> dict:
    """Hodge star of a 4-form array at one point, ``(*F)_J = sqrt|g| F^I eps_IJ``
    on increasing (n-4)-tuples J, with I the complement of J and eps the
    Levi-Civita symbol (so that ``a ^ *b = <a, b> vol``)."""
    n = g.shape[0]
    ginv = np.linalg.inv(g)
    fup = np.einsum("abcd,aA,bB,cC,dD->ABCD", f, ginv, ginv, ginv, ginv, optimize=True)
    vol = np.sqrt(abs(np.linalg.det(g)))
    out = {}
    for j in itertools.combinations(range(n), n - 4):
        i = tuple(sorted(set(range(n)) - set(j)))
        out[j] = vol * fup[i] * _parity(i + j)
    return out


def fd_maxwell(matfn, fluxfn, point, h: float = 1e-4) -> dict:
    """``d*F - (1/2) F^F`` on every increasing (n-3)-tuple at ``point``.

    ``fluxfn`` returns the flux as an antisymmetric n^4 array.  The star is
    :func:`numeric_star` of the values, differentiated by Richardson-stepped
    central differences; the wedge is the signed sum over splittings.
    """
    n = len(point)
    keys7 = list(itertools.combinations(range(n), n - 4))
    col = {j: c for c, j in enumerate(keys7)}

    def star(p):
        s = numeric_star(np.asarray(matfn(p)), fluxfn(p))
        return np.array([s[j] for j in keys7])

    dstar = [richardson_partial(star, point, i, h) for i in range(n)]
    f = fluxfn(point)
    out = {}
    for a in itertools.combinations(range(n), n - 3):
        d = sum((-1) ** t * dstar[x][col[a[:t] + a[t + 1:]]] for t, x in enumerate(a))
        ff = 0.0
        for i in itertools.combinations(a, 4):
            j = tuple(x for x in a if x not in i)
            ff += _parity(i + j) * f[i] * f[j]
        out[a] = d - 0.5 * ff
    return out


def flux_contractions(g: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, float]:
    """``<e_a . F, e_b . F>`` and ``|F|^2`` of a 4-form array ``f`` at one
    point, by direct numpy contraction with the inverse of the metric ``g``."""
    ginv = np.linalg.inv(g)
    f_up3 = np.einsum("ajkl,jJ,kK,lL->aJKL", f, ginv, ginv, ginv, optimize=True)
    inner = np.einsum("ajkl,bjkl->ab", f, f_up3) / 6.0
    norm = np.einsum("ijkl,iI,Ijkl->", f, ginv, f_up3) / 24.0
    return inner, norm


def fd_einstein(matfn, fluxfn, point, h: float = 1e-4) -> np.ndarray:
    """``Ric_ab + (1/2) <e_a . F, e_b . F> - (1/6) g_ab |F|^2`` at ``point``:
    :func:`fd_ricci` plus a numpy contraction of the flux values."""
    g = np.asarray(matfn(point))
    inner, norm = flux_contractions(g, fluxfn(point))
    return fd_ricci(matfn, point, h) + 0.5 * inner - g * norm / 6.0


def fd_closedness(fluxfn, point, h: float = 1e-4) -> dict:
    """``dF`` on every increasing 5-tuple at ``point``: ``(dF)_{x0..x4} =
    sum_t (-1)^t d_{x_t} F_{x without x_t}``, with the derivatives taken by
    Richardson-stepped central differences of the flux values.  ``fluxfn``
    returns the flux as an antisymmetric n^4 array."""
    n = len(point)
    df = [richardson_partial(fluxfn, point, i, h) for i in range(n)]
    return {x: sum((-1) ** t * df[i][x[:t] + x[t + 1:]] for t, i in enumerate(x))
            for x in itertools.combinations(range(n), 5)}
