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

import functools
import itertools
import random
import re
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .expr import EvalDomainError, Expr, evaluate_points, gradient, is_zero, to_text, _as_expr, _Plan
from .forms import (
    FormError,
    KForm,
    Metric,
    embed_form,
    ext_d,
    form_inner,
    hodge,
    metric_values,
    perm_sign,
    solve_blocks,
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
    "DEFAULT_TOL",
    "assemble_flux",
    "flux_norm_sq",
    "flux_norm_sq_pieces",
    "sample_points",
    "draw_points",
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

#: The residual tolerance of verify, the CLI and a rendered file, unless given.
DEFAULT_TOL = 1e-8


#: The flux ``phi*alpha + beta^nu + gamma^delta + varpi^eps + psi*theta``,
#: piece by piece in that order: (the dimension of the piece's factor, its
#: degree, the term of the flux it belongs to).  Each term wedges a
#: Lorentzian piece with a Riemannian one, of degrees summing to 4.
_PIECES = {
    "phi": (6, 0, "alpha"), "alpha": (5, 4, "alpha"), "beta": (5, 3, "beta"), "nu": (6, 1, "beta"),
    "gamma": (5, 2, "gamma"), "delta": (6, 2, "gamma"), "varpi": (5, 1, "varpi"), "eps": (6, 3, "varpi"),
    "psi": (5, 0, "theta"), "theta": (6, 4, "theta"),
}


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
        for name, (_, deg, _) in _PIECES.items():
            f = getattr(self, name)
            if deg and f is not None and f.degree != deg:
                raise FormError(f"{name} must be a {deg}-form, got degree {f.degree}")

    def terms(self, ps: ProductStructure) -> list[tuple[str, KForm, KForm]]:
        """The terms of the flux whose two pieces are both nonzero, in flux
        order, as ``(term, Lorentzian form, Riemannian form)``.  A scalar
        phi or psi is a 0-form on its factor's chart; omitted, it stands
        for 1."""
        charts = {5: ps.lorentz.chart, 6: ps.riemann.chart}
        pairs: dict[str, dict] = {}
        for name, (dim, deg, term) in _PIECES.items():
            v = getattr(self, name)
            if not deg:
                v = KForm(charts[dim], 0, {(): 1.0 if v is None else v})
            pairs.setdefault(term, {})[dim] = v
        return [(term, p[5], p[6]) for term, p in pairs.items()
                if all(f is not None and not f.is_zero for f in p.values())]


class Background:
    """A candidate solution: block metric, flux pieces, a sample box, the
    ``predicate`` that flags the points its sample plans skip (the only such
    rule), and the residual ``tolerance`` it declares (a file's ``tol``)."""

    def __init__(self, product: ProductStructure, flux: FluxSpec,
                 box: Sequence[tuple[float, float]], ident: str = "",
                 provenance: str = "",
                 predicate: Optional[Callable[[Sequence[float]], bool]] = None,
                 tolerance: Optional[float] = None):
        chart = product.chart
        if len(box) != 11:
            raise FormError(f"sample box needs 11 coordinate ranges, got {len(box)}")
        charts = {5: ("Lorentzian", product.lorentz.chart.names),
                  6: ("Riemannian", product.riemann.chart.names)}
        for name, (dim, deg, _) in _PIECES.items():
            f, (kind, names) = getattr(flux, name), charts[dim]
            if deg and f is not None and f.chart.names != names:
                raise FormError(f"flux piece {name} must live on the {kind} chart {names}")
        self.product = product
        self.flux = flux
        self.box = tuple((float(lo), float(hi)) for lo, hi in box)
        self.ident = ident
        self.provenance = provenance
        self.predicate = predicate
        self.chart = chart
        self.tolerance = tolerance
        self._metric: Optional[Metric] = None

    def metric(self) -> Metric:
        """The product metric, built on first use and kept with this background."""
        if self._metric is None:
            self._metric = product_metric(self.product)
        return self._metric

    def flux_form(self) -> KForm:
        return assemble_flux(self.flux, self.product)

    def sample(self, count: int, seed: int) -> list[tuple[float, ...]]:
        return list(self.draws(count, seed))

    def draws(self, count: int, seed: int) -> Iterator[tuple[float, ...]]:
        """The points of :meth:`sample`, drawn as they are taken."""
        return draw_points(self.box, count, seed, self.predicate)


def sample_points(box, count: int, seed: int,
                  predicate: Optional[Callable] = None) -> list[tuple[float, ...]]:
    """Seeded uniform draws from the box, skipping predicate-flagged points:
    the whole plan of :func:`draw_points`."""
    return list(draw_points(box, count, seed, predicate))


def draw_points(box, count: int, seed: int,
                predicate: Optional[Callable] = None) -> Iterator[tuple[float, ...]]:
    """The ``count`` points of a seeded plan, drawn one by one as they are
    taken.

    The predicate returns True for points to avoid (too close to a declared
    singular set).  Coordinates are drawn one after another as ``lo + (hi -
    lo) * random()`` from ``random.Random(seed)``, whose sequence Python
    keeps the same across versions, so a plan depends only on (box, count,
    seed, predicate).  At most ``1000 * count`` points are drawn.  ``count``
    must be positive and ``seed`` non-negative; both are checked here, before
    any point is drawn.
    """
    if count < 1:
        raise FormError(f"sample count must be positive, got {count}")
    if seed < 0:
        raise FormError(f"sample seed must be non-negative, got {seed}")

    def draws():
        draw = random.Random(seed).random
        ranges = [(lo, hi - lo) for lo, hi in box]
        kept = 0
        for _ in range(1000 * count):
            p = tuple([lo + width * draw() for lo, width in ranges])
            if predicate is None or not predicate(p):
                yield p
                kept += 1
                if kept == count:
                    return
        raise FormError("sample box appears to be mostly inside the singular set")

    return draws()


# ---------------------------------------------------------------------------
# Flux assembly and norms.
# ---------------------------------------------------------------------------

def assemble_flux(fs: FluxSpec, ps: ProductStructure) -> KForm:
    """The flux as a single 4-form on the 11-chart (linear in every piece)."""
    chart = ps.chart
    total = zero_form(chart, 4)
    for _, lo, hi in fs.terms(ps):
        total = total + wedge(embed_form(lo, chart, 0), embed_form(hi, chart, 5))
    return total


def flux_norm_sq(bg: Background, points) -> np.ndarray:
    """|F|^2_h at each of ``points``, from the assembled 4-form."""
    f = bg.flux_form()
    return form_inner(f, f, bg.metric(), points)


def flux_norm_sq_pieces(fs: FluxSpec, ps: ProductStructure, points) -> np.ndarray:
    """|F|^2_h at each of ``points`` from the factor pieces: distinct
    decomposable types are mutually orthogonal, so the norm splits as

    ``phi^2 |alpha|^2 + |beta|^2 |nu|^2 + |gamma|^2 |delta|^2
    + |varpi|^2 |eps|^2 + psi^2 |theta|^2``

    with each factor norm taken in its own block metric, solved once.
    """
    p5, p6 = [tuple(p[:5]) for p in points], [tuple(p[5:]) for p in points]
    terms = fs.terms(ps)
    if not terms:
        return np.zeros(len(p5))
    inv5, inv6 = metric_values(ps.lorentz, p5)[1], metric_values(ps.riemann, p6)[1]
    return sum((form_inner(lo, lo, ps.lorentz, p5, inv5) * form_inner(hi, hi, ps.riemann, p6, inv6)
                for _, lo, hi in terms), np.zeros(len(p5)))


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


#: Working memory of one batch of points, in bytes: the contraction tape and
#: the terms of its largest stage set the points per batch (``core.batch``),
#: and the walk's live values set the points per walk (``_Jets.chunk``).
_BATCH_BYTES = 1 << 18


def _pick(pos):
    """``key -> tuple(key[p] for p in pos)``."""
    if len(pos) == 1:
        return lambda k, p=pos[0]: (k[p],)
    return itemgetter(*pos) if pos else lambda k: ()


def _join(spec: str, a: dict, b: dict, coef: float = 1.0) -> list:
    """Terms ``(out, c, col_a, col_b)`` of the einsum-style product ``spec``
    of two sparse tensors ``{index: (column, sign)}``; every letter is in the
    output or in both operands."""
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    on_a = _pick([sa.index(c) for c in sa if c in sb])
    on_b = _pick([sb.index(c) for c in sa if c in sb])
    make = _pick([(sa + sb).index(c) for c in out])
    groups: dict = {}
    for kb, vb in b.items():
        groups.setdefault(on_b(kb), []).append((kb, vb))
    return [(make(ka + kb), coef * s * t, ca, cb)
            for ka, (ca, s) in a.items() for kb, (cb, t) in groups.get(on_a(ka), ())]


@functools.cache
def _moves(length: int, sym: tuple) -> list:
    """``(getter, sign)`` for each reordering of a key of ``length`` slots
    that the symmetry ``sym`` allows: slots ``lo..hi-1`` of each ``(lo, hi,
    sign)`` are symmetric (sign 1) or antisymmetric (sign -1)."""
    moves = [(tuple(range(length)), 1.0)]
    for lo, hi, sign in sym:
        moves = [(pos[:lo] + tuple(pos[lo + t] for t in perm) + pos[hi:],
                  s * (perm_sign(perm) if sign < 0 else 1.0))
                 for pos, s in moves for perm in itertools.permutations(range(hi - lo))]
    return [(_pick(pos), s) for pos, s in moves]


def _orbit(key: tuple, sym: tuple) -> dict:
    """``{key': sign}`` over the reorderings of ``key`` that ``sym`` allows."""
    return {get(key): s for get, s in _moves(len(key), sym)}


class _Contractions:
    """The residual families from the values of jet entries, planned once.

    Each batch fills a tape with one column per quantity, stored as a row
    of values over the points: the entry values, the constants 1 and 0,
    ``h^-1`` and ``sqrt|det h|`` (per connected block of h), then each
    structurally nonzero component of each intermediate tensor.  Each stage of the plan is one
    gather-multiply-``np.add.reduceat`` over its terms ``c * a * b``.  Only
    the canonical components of a (partly) symmetric tensor are computed;
    the others alias them with a sign.  ``jets`` maps the names ``h, dh,
    ddh, F, dF`` to ``{index: (value column, sign)}``, with ``dh[k,i,j] =
    d_k h_ij``, ``ddh[k,l,i,j] = d_k d_l h_ij`` and ``dF[l,K] = d_l F_K``.
    ``keys`` names the components of closedness and Maxwell, both on
    structural supports.  Closedness component ``sorted(l+K)`` sums
    ``perm_sign(l+K) dF[l,K]`` over increasing K not holding l.  The
    Maxwell components are the 8-forms A whose complementary 3-set B lies in
    the flux coordinates S (those in F's keys, closed under the connected
    blocks, so h^-1 never mixes S with the rest), with ``(d*F)_A = s_A
    d_l(sqrt|h| F^lB)`` for a fixed sign s_A, and those ``sorted(a+b)`` of
    disjoint increasing F keys ``a < b``, where F^F/2 gets the term
    ``perm_sign(a+b) F_a F_b``.
    """

    def __init__(self, jets: dict, width: int, n: int, signature, blocks):
        self.signature = signature
        self.one, self.zero = width, width + 1
        self.ncols, self.ops, self.terms = width + 2, [], 0
        hinv, self.blocks = {}, []
        for k in sorted({len(b) for b in blocks}):
            same = [b for b in blocks if len(b) == k]
            dst = self._alloc(len(same) * k * k).reshape(len(same), k, k)
            for b, cols in zip(same, dst):
                hinv.update(((i, j), (cols[x, y], 1.0)) for x, i in enumerate(b) for y, j in enumerate(b))
            self.blocks.append((np.array([[[jets["h"].get((i, j), (self.zero,))[0] for j in b] for i in b]
                                          for b in same]), dst))
        self.sqrt_det = self._alloc(1)[0]
        h, dh, ddh, f, df = (jets[k] for k in ("h", "dh", "ddh", "F", "dF"))
        one = {(): (self.one, 1.0)}
        sym, anti3 = (0, 2, 1), (0, 3, -1)
        chris, pairs = ((1, 3, 1),), ((0, 2, -1), (2, 4, -1))
        # G^k_ij = h^kl (d_i h_lj + d_j h_li - d_l h_ij)/2, m[a,k,d] = h^kc d_a h_cd,
        # v_y = tau_y - u_y with tau_y = G^k_ky = h^ij d_y h_ij/2, u_y = h^lx d_l h_xy,
        # and F raised one slot at a time from the last: r1 = F_abc^d, r2 = F_ab^cd.
        gam, m, v, r1 = self._stage(
            (_join("kl,ilj->kij", hinv, dh, 0.5) + _join("kl,jli->kij", hinv, dh, 0.5)
             + _join("kl,lij->kij", hinv, dh, -0.5), chris),
            (_join("kc,acd->akd", hinv, dh), ()),
            (_join("ij,yij->y", hinv, dh, 0.5) + _join("lx,lxy->y", hinv, dh, -1.0), ()),
            (_join("Dd,abcd->abcD", hinv, f), (anti3,)))
        # Ric_ab = d_k G^k_ab - d_a G^k_kb + G^k_kl G^l_ab - G^k_al G^l_kb, where
        # d_k G^k_ab = -u_l G^l_ab + h^kl (d_k d_a h_lb + d_k d_b h_la - d_k d_l h_ab)/2
        # and d_a G^k_kb = (-m[a,k,d] m[b,d,k] + h^kl d_a d_b h_kl)/2.
        ric, r2 = self._stage(
            (_join("kl,kalb->ab", hinv, ddh, 0.5) + _join("kl,kbla->ab", hinv, ddh, 0.5)
             + _join("kl,klab->ab", hinv, ddh, -0.5)
             + _join("kl,abkl->ab", hinv, ddh, -0.5)
             + _join("l,lab->ab", v, gam) + _join("akd,bdk->ab", m, m, 0.5)
             + _join("kal,lkb->ab", gam, gam, -1.0), (sym,)),
            (_join("Cc,abcD->abCD", hinv, r1), pairs))
        # <i_i F, i_j F> = F_ia^bc F_bcj^a / 6, |F|^2 = F_ab^cd F_cd^ab / 24, and
        # d_l F^lbcd + tau_l F^lbcd = h^bx h^cy h^dw low_xyw by the product rule
        # (d_l h^ab = -h^ax d_l h_xy h^yb in each slot): low_xyw = h^la d_l F_axyw
        # + v_s F^s_xyw - q_x;yw + q_y;xw - q_w;xy with q_r;cd = d_l h_rs F_cd^ls.
        inner, norm, low = self._stage(
            (_join("iaBC,BCja->ij", r2, r1, 1 / 6), (sym,)),
            (_join("abcd,cdab->", r2, r2, 1 / 24), ()),
            (_join("la,laxyw->xyw", hinv, df)
             + _join("s,xyws->xyw", v, r1, -1.0)
             + _join("lrs,cdls->rcd", dh, r2, -1.0)
             + _join("lrs,bdls->brd", dh, r2)
             + _join("lrs,bcls->bcr", dh, r2, -1.0), (anti3,)))
        ein, trace, up = self._stage(
            (_join("ab,->ab", ric, one) + _join("ab,->ab", inner, one, 0.5)
             + _join("ab,->ab", h, norm, -1 / 6), (sym,)),
            (_join("ab,ab->", hinv, ric) + _join(",->", norm, one, -TRACE_IDENTITY_SIGN / 6), ()),
            (_join("Ww,xyw->xyW", hinv, low), ((0, 2, -1),)))
        up, = self._stage((_join("Yy,xyW->xYW", hinv, up), ((1, 3, -1),)))
        div, = self._stage((_join("Xx,xYW->XYW", hinv, up), (anti3,)))
        fkeys = [k for k in f if k == tuple(sorted(set(k)))]
        used = {i for k in fkeys for i in k}
        s = sorted(i for b in blocks if used & set(b) for i in b)
        stars = {tuple(sorted(set(range(n)) - set(b))): b for b in itertools.combinations(s, 3)}
        pairs = [(a, b, sign) for a, b in itertools.combinations(fkeys, 2) if (sign := perm_sign(a + b))]
        mkeys = sorted(set(stars) | {tuple(sorted(a + b)) for a, b, _ in pairs})
        maxwell, closed = self._stage(
            ([(key, -perm_sign(stars[key] + key) * div[stars[key]][1], self.sqrt_det, div[stars[key]][0])
              for key in mkeys if stars.get(key) in div]
             + [(tuple(sorted(a + b)), -sign * f[a][1] * f[b][1], f[a][0], f[b][0]) for a, b, sign in pairs], ()),
            ([(tuple(sorted(k)), sign * t, c, self.one) for k, (c, t) in df.items()
              if (sign := perm_sign(k)) and k[1:] == tuple(sorted(k[1:]))], ()))
        self.keys = {"closedness": list(closed), "maxwell": mkeys}
        cols = lambda t, keys: np.array([t.get(k, (self.zero,))[0] for k in keys or [()]], dtype=int)
        self.outputs = {
            "closedness": cols(closed, self.keys["closedness"]),
            "maxwell": cols(maxwell, mkeys),
            "einstein": cols(ein, [(i, j) for i in range(n) for j in range(i, n)]),
            "trace": cols(trace, [()]),
        }
        self.batch = max(1, _BATCH_BYTES // (8 * (self.ncols + 2 * self.terms)))

    def _alloc(self, count: int) -> np.ndarray:
        self.ncols += count
        return np.arange(self.ncols - count, self.ncols)

    def _stage(self, *groups) -> list[dict]:
        """Plan one contraction.  Each group ``(terms, sym)`` becomes a tensor
        whose canonical output keys get new tape rows, in order of first
        appearance; its other keys alias them through ``sym``."""
        parts, tensors = [], []
        for terms, sym in groups:
            cols, tensor = {}, {}
            for out in dict.fromkeys(t[0] for t in terms):
                if out in cols:
                    continue
                orbit = _orbit(out, sym)
                first = min(orbit)  # increasing in every group of slots
                cols.update(dict.fromkeys(orbit, -1))
                if all(len(set(first[lo:hi])) == hi - lo for lo, hi, sign in sym if sign < 0):
                    cols[first] = self.ncols
                    tensor.update((k, (self.ncols, t * orbit[first])) for k, t in orbit.items())
                    self.ncols += 1
            tensors.append(tensor)
            parts += [(cols[out], c, ca, cb) for out, c, ca, cb in terms if cols[out] >= 0]
        if parts:
            parts.sort(key=itemgetter(0))
            col, coef, ia, ib = (np.array(x) for x in zip(*parts))
            starts = np.flatnonzero(np.r_[True, col[1:] != col[:-1]])
            self.ops.append((ia, ib, coef[:, None], starts, col[0], col[-1] + 1))
            self.terms = max(self.terms, len(parts))
        return tensors

    def _metric(self, tape: np.ndarray, points) -> None:
        """``h^-1`` and ``sqrt|det h|`` into the tape, per connected block of h
        (stacks of equal-sized blocks), by :func:`solve_blocks`."""
        stacks = [tape[src].transpose(0, 3, 1, 2) for src, _ in self.blocks]
        det = np.ones(len(points))
        for (_, dst), (inv, block) in zip(self.blocks, solve_blocks(stacks, self.signature, points)):
            tape[dst] = inv.transpose(0, 2, 3, 1)
            det = det * np.prod(block, axis=0)
        tape[self.sqrt_det] = np.sqrt(np.abs(det))

    def residuals(self, points, values: np.ndarray) -> dict[str, np.ndarray]:
        """The residual components of each family at a batch of points, as
        arrays of shape ``(len(points), components)``, from the values of
        the jet entries there (one row per point)."""
        tape = np.empty((self.ncols, len(points)))
        tape[:self.one] = values.T
        tape[self.one], tape[self.zero] = 1.0, 0.0
        self._metric(tape, points)
        with np.errstate(all="ignore"):  # a non-finite result is refused below
            for ia, ib, coef, starts, lo, hi in self.ops:
                p = tape[ia]
                p *= tape[ib]
                p *= coef
                tape[lo:hi] = np.add.reduceat(p, starts, axis=0)
        out = {name: tape[cols].T for name, cols in self.outputs.items()}
        for name, a in out.items():
            bad = ~np.isfinite(a).all(axis=1)
            if bad.any():
                raise FormError(f"non-finite {name} residual at {points[int(np.argmax(bad))]}")
        return out


class _Jets:
    """The jets of one background: :meth:`values` evaluates their entries
    at a batch of points, and ``residuals`` (of :class:`_Contractions`)
    derives the four residual families from those values, by contractions
    planned once over the structurally nonzero entries.

    Only symbolically nonzero entries are kept, of five tables: the metric
    jet ``h_ij, d_k h_ij, d_k d_l h_ij`` and the flux jet ``F_K, d_l F_K``,
    all on the 11 coordinates.  The flux is differentiated once, and
    closedness and F^F/2 are contractions of these tables too.

    Both sizes follow from the plans under the memory budget
    ``_BATCH_BYTES``.  A contraction batch, ``core.batch``, holds the tape
    and the largest stage.  A walk, ``chunk`` points, holds the walk's live
    values, the entries and the points: as many points as fit in the budget
    or in 8 bytes per walk step, whichever is larger (a walk costs about the
    same whatever its size, so a long plan walks long chunks), and never
    fewer than ``core.batch``.
    """

    def __init__(self, bg: Background):
        h = bg.metric()
        self.chart = bg.chart
        self.exprs: list[Expr] = []
        self.jets: dict[str, dict] = {k: {} for k in ("h", "dh", "ddh", "F", "dF")}
        self._put_metric_jet(h)
        for key, e in bg.flux_form().items():
            perms = _orbit(key, ((0, 4, -1),))
            self._put("F", e, perms)
            for l, d in enumerate(gradient(e, range(11))):
                if not is_zero(d):
                    self._put("dF", d, {(l,) + k: sign for k, sign in perms.items()})
        self.plan = _Plan(self.exprs)
        self.core = _Contractions(self.jets, len(self.exprs), 11, h.signature, _components(h.entries, 11))
        self.residuals = self.core.residuals
        self.rows = self._layout(self.core.keys)
        walk = 8 * (self.plan.live + len(self.exprs) + 11)  # bytes per point
        self.chunk = max(self.core.batch, max(_BATCH_BYTES, 8 * len(self.plan.steps)) // walk)

    def _put(self, table: str, expr: Expr, slots: dict) -> None:
        """Add ``expr`` to the entries; its value, times the sign, is the
        component of ``table`` at each index of ``slots``."""
        self.jets[table].update((index, (len(self.exprs), sign)) for index, sign in slots.items())
        self.exprs.append(expr)

    def _put_metric_jet(self, h: Metric) -> None:
        n = h.dim
        for i, j in itertools.combinations_with_replacement(range(n), 2):
            if is_zero(e := h.entries[i][j]):
                continue
            pairs = {(i, j), (j, i)}
            self._put("h", e, dict.fromkeys(pairs, 1.0))
            for k, dk in enumerate(gradient(e, range(n))):
                if is_zero(dk):
                    continue
                self._put("dh", dk, {(k,) + ij: 1.0 for ij in pairs})
                for l, dkl in zip(range(k, n), gradient(dk, range(k, n))):
                    if not is_zero(dkl):
                        self._put("ddh", dkl, {kl + ij: 1.0 for kl in {(k, l), (l, k)} for ij in pairs})

    def _layout(self, keys: dict) -> list[tuple]:
        """``(equation, block, columns, names)`` of each report row, in report
        order; ``columns`` index the family's residual array."""
        upper = [(i, j) for i in range(11) for j in range(i, 11)]
        def names(keys):
            return ["^".join(self.chart.names[i] for i in key) for key in keys]

        mkeys = keys["maxwell"]
        closedness = names(keys["closedness"]) or ["(identically zero)"]
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
            return self.plan.values(points)
        except EvalDomainError as err:
            raise EvalDomainError(f"{err}: {to_text(err.expr, self.chart)} at {err.point}",
                                  err.expr, err.point) from None


def _residual_rows(bg: Background, points: Iterable, equations) -> list[ResidualRow]:
    """Rows of the given residual families over the points, which are taken
    and evaluated one walk chunk (``chunk`` points) at a time, then
    contracted and reduced one batch (``core.batch`` points) at a time, so
    memory does not grow with the plan.  Per row, the reduction keeps the
    first maximum of ``|value|`` in point-then-component order (``argmax``
    in a batch, a strict ``>`` across batches) and adds the per-point sums
    of ``|value|`` in point order, so no size changes a row.  Of a domain
    error and a signature failure, the one at the earlier point is raised."""
    jets = _Jets(bg)
    layout = [row for row in jets.rows if row[0] in equations]
    families = {row[0] for row in layout}
    worst = [(-1.0, (), 0)] * len(layout)  # (max, point, component); -1 is below any |value|
    sums = [0.0] * len(layout)

    def reduce(batch: list, values: np.ndarray) -> None:
        res = jets.residuals(batch, values)
        # C order, so that each point's sum over its row is taken alike in any batch
        out = {name: np.abs(res[name], order="C") for name in families}
        for r, (equation, _, columns, _) in enumerate(layout):
            if columns:
                a = out[equation][:, columns]
                point, comp = divmod(int(np.argmax(a)), a.shape[1])
                if a[point, comp] > worst[r][0]:
                    worst[r] = (float(a[point, comp]), batch[point], comp)
                per_point = a.sum(axis=1)
                per_point[0] += sums[r]
                sums[r] = float(np.cumsum(per_point)[-1])

    points, count, failure = iter(points), 0, None
    while failure is None and (chunk := [tuple(p) for p in itertools.islice(points, jets.chunk)]):
        try:
            values = jets.values(chunk)
        except EvalDomainError as err:  # the points before it are contracted first
            failure, chunk = err, chunk[:next((k for k, p in enumerate(chunk) if p == err.point), 0)]
            values = jets.values(chunk)
        for lo in range(0, len(chunk), jets.core.batch):
            reduce(chunk[lo:lo + jets.core.batch], values[lo:lo + jets.core.batch])
        count += len(chunk)
        del chunk, values  # so that one chunk of points is held at a time
    if failure is not None:
        raise failure
    return [ResidualRow(equation, block, top, total / (count * len(columns)), point, names[comp])
            if columns and count else ResidualRow(equation, block, 0.0, 0.0, (), "(none)")
            for (equation, block, columns, names), (top, point, comp), total in zip(layout, worst, sums)]


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
           tol: float = DEFAULT_TOL) -> VerificationResult:
    """Run all four residual families over a fresh seeded plan."""
    if not (np.isfinite(tol) and tol > 0.0):
        raise FormError(f"tolerance must be finite and positive, got {tol!r}")
    rows = _residual_rows(bg, bg.draws(count, seed),
                          ("closedness", "maxwell", "einstein", "trace"))
    return VerificationResult(rows=rows, tolerance=tol)


# ---------------------------------------------------------------------------
# Reduced-case diagnostics.
#
# With one or two of the five flux terms present, the closedness and Maxwell
# equations collapse to small systems on the factors (``_PATTERNS``), with
# real constants kappa and lambda (k and l); *5 and *6 are the factor Hodge
# stars.  Pattern 8 (phi*alpha + psi*theta) has no solution unless one term
# vanishes.  Any other flux gets the jet core's closedness row, and its
# Maxwell equation is the homogeneous system ``_PRODUCT_FACTOR`` when its
# Lorentzian pieces share a coordinate 1-form factor (with psi*theta = 0),
# the jet core's Maxwell row otherwise.
# ---------------------------------------------------------------------------

_FIT_ZERO_THRESHOLD = 1e-10

#: Sorted present terms -> (case, rows, split).  A row is the left side of
#: ``row = 0`` (see :func:`_row_terms`).  A constant is fitted at the first
#: row that uses it: the row's other term ~ c * (the term c multiplies).
#: ``split = (test, if_zero, otherwise)`` appends rows by whether the form
#: ``test`` vanishes: pattern 3's ``d(*5 gamma)^(*6 delta) = (1/2) g^g^d^d``
#: and pattern 9's ``(*5 varpi)^d(*6 eps) = beta^varpi^eps^nu`` split in two.
_PATTERNS = {
    ("alpha",): ("1", ["d(phi)", "d(alpha)", "d(*5 alpha)"], None),
    ("beta",): ("2", ["d(beta)", "d(*5 beta)", "d(nu)", "d(*6 nu)"], None),
    ("gamma",): ("3", ["d(gamma)", "d(delta)", "d(*6 delta)"], (
        "gamma^gamma", ["d(*5 gamma)"], ["d(*5 gamma) - k*gamma^gamma", "k*(*6 delta) - delta^delta/2"])),
    ("varpi",): ("4", ["d(varpi)", "d(*5 varpi)", "d(eps)", "d(*6 eps)"], None),
    ("theta",): ("5", ["d(psi)", "d(theta)", "d(*6 theta)"], None),
    ("alpha", "beta"): ("6", ["d(alpha)", "d(*5 beta)", "d(nu)", "d(phi) - k*nu", "d(beta) + k*alpha",
                              "d(*6 nu) - l*(*6 phi)", "d(*5 alpha) + l*(*5 beta)"], None),
    ("theta", "varpi"): ("7", ["d(theta)", "d(varpi)", "d(*6 eps)", "d(psi) - k*varpi", "d(eps) - k*theta",
                               "d(*5 varpi) - l*(*5 psi)", "d(*6 theta) - l*(*6 eps)"], None),
    ("beta", "varpi"): ("9", ["d(beta)", "d(nu)", "d(varpi)", "d(eps)", "d(*6 nu)", "d(*5 beta)",
                              "d(*5 varpi)"], (
        "eps^nu", ["d(*6 eps)"], ["d(*6 eps) - k*eps^nu", "k*(*5 varpi) - beta^varpi"])),
}

#: The Maxwell rows of the "product-factor" shape (on the 11-chart).
_PRODUCT_FACTOR = ["d(*5 alpha)^(*6 phi) + (*5 beta)^d(*6 nu)",
                   "d(*5 beta)^(*6 nu) - (*5 gamma)^d(*6 delta)",
                   "d(*5 gamma)^(*6 delta) + (*5 varpi)^d(*6 eps)",
                   "d(*5 varpi)^(*6 eps)"]

#: Labels of the full closedness and Maxwell rows on the 11-chart.
_FULL_ROWS = {"closedness": "closedness: d(F) = 0", "maxwell": "maxwell: d(*F) - F^F/2 = 0"}

_TOKEN = re.compile(r"\*[56]|\w+|\S")


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


def _row_terms(text: str, pieces: dict, ps: ProductStructure) -> list[tuple[str, str, KForm]]:
    """The terms ``(sign, constant, form)`` of a row ``t1 +- t2 ...``.

    A term is ``[c*]w[/n]``: an optional fitted constant c (``k`` or ``l``;
    ``""`` if none) times a wedge w of atoms joined by ``^`` or ``*``, over
    an integer n.  An atom is a piece, ``d(row)``, ``(row)``, or ``*5`` /
    ``*6`` (the factor's Hodge star) of an atom.  Forms on different
    factors are wedged on the 11-chart.
    """
    tokens = [""] + _TOKEN.findall(text)[::-1]
    stars = {"*5": ps.lorentz, "*6": ps.riemann}

    def atom() -> KForm:
        tok = tokens.pop()
        if tok in stars:
            return hodge(atom(), stars[tok])
        if tok == "d":
            return ext_d(atom())
        if tok == "(":
            form = _combine(terms(), {})
            tokens.pop()  # ")"
            return form
        return pieces[tok]

    def term() -> tuple[str, KForm]:
        c = ""
        if tokens[-1] in ("k", "l"):
            c, _ = tokens.pop(), tokens.pop()  # "k", "*"
        form = atom()
        while tokens[-1] in ("^", "*"):
            tokens.pop()
            a, b = form, atom()
            if a.chart.names != b.chart.names:
                a, b = (embed_form(f, ps.chart, 0 if f.chart.dim == 5 else 5) for f in (a, b))
            form = wedge(a, b)
        if tokens[-1] == "/":
            tokens.pop()
            form = form.scale(1 / int(tokens.pop()))
        return c, form

    def terms() -> list:
        out = [("+", *term())]
        while tokens[-1] in ("+", "-"):
            out.append((tokens.pop(), *term()))
        return out

    return terms()


def _combine(terms, consts: dict) -> KForm:
    """The form of a row's terms, given the values of its constants."""
    total = None
    for sign, c, form in terms:
        form = form.scale(consts[c]) if c else form
        total = form if total is None else total + form if sign == "+" else total - form
    return total


def diagnose_reduced_case(fs: FluxSpec, ps: ProductStructure,
                          count: int = 50, seed: int = 42,
                          box: Optional[Sequence[tuple[float, float]]] = None,
                          points: Optional[Sequence[Sequence[float]]] = None) -> ReducedCaseDiagnosis:
    """Identify which reduced sparsity pattern the flux matches and report
    the residuals of that pattern's closedness/Maxwell system, fitting the
    constants kappa and lambda where the pattern demands proportionality.

    Falls back to "product-factor" or "general" when no pattern applies;
    both take the jet core's closedness row on the product, as in
    :func:`verify`, and "general" its Maxwell row too.  Fitted
    constants below 1e-10 are declared zero and the stricter sub-system is
    checked.  The box (default ``[-1, 1]^11``) and the points must be 11
    wide.
    """
    bg = Background(ps, fs, [(-1.0, 1.0)] * 11 if box is None else box)
    if points is None:
        points = sample_points(bg.box, count, seed)
    points = [tuple(p) for p in points]
    if widths := {len(p) for p in points} - {11}:
        raise FormError(f"sample points need 11 coordinates, got {min(widths)}")
    pairs = {term: (lo, hi) for term, lo, hi in fs.terms(ps)}
    present = tuple(sorted(pairs))
    charts = {5: ps.lorentz.chart, 6: ps.riemann.chart}
    # Each piece as a form, zero if its term is absent.
    pieces = {name: pairs[term][dim == 6] if term in pairs else zero_form(charts[dim], deg)
              for name, (dim, deg, term) in _PIECES.items()}
    sample = {5: [p[:5] for p in points], 6: [p[5:] for p in points], 11: points}
    consts: dict[str, float] = {}
    rows: list[tuple[str, float, float]] = []

    def stats(form: KForm) -> tuple[float, float]:
        return _form_stats(form, sample[form.chart.dim])

    def put(text: str) -> None:
        terms = _row_terms(text, pieces, ps)
        for _, c, form in terms:
            if c and c not in consts:
                other = next(f for _, d, f in terms if d != c)
                consts[c] = _fit_ratio(other, form, sample[form.chart.dim])
        rows.append((f"{text} = 0", *stats(_combine(terms, consts))))

    consistent, note = True, ""
    if present in _PATTERNS:
        case, texts, split = _PATTERNS[present]
        if split:
            test, if_zero, otherwise = split
            small = stats(_combine(_row_terms(test, pieces, ps), {}))[0] < _FIT_ZERO_THRESHOLD
            texts = texts + (if_zero if small else otherwise)
        for text in texts:
            put(text)
    elif present == ("alpha", "theta"):
        case, terms = "8", ("phi*alpha", "psi*theta")
        smaller = min(stats(_combine(_row_terms(t, pieces, ps), {}))[0] for t in terms)
        rows.append((f"min(|{terms[0]}|, |{terms[1]}|) = 0", smaller, smaller))
        if smaller > _FIT_ZERO_THRESHOLD:
            consistent = False
            note = "both terms are nonzero; this pattern admits no solution unless one vanishes"
    else:
        # The product-factor shape: no psi*theta, and at least two Lorentzian
        # pieces, all with a coordinate 1-form factor in every component.
        shared = [set.intersection(*map(set, lo.coeffs)) for term, (lo, _) in pairs.items() if term != "theta"]
        common = set.intersection(*shared) if len(shared) > 1 and "theta" not in pairs else set()
        case = "product-factor" if common else "general"
        rows += [(_FULL_ROWS[r.equation], r.max_abs, r.mean_abs)
                 for r in _residual_rows(bg, points, ("closedness",) if common else _FULL_ROWS)
                 if r.block == "all"]
        if common:
            note = f"Lorentzian pieces share the coordinate factor d{ps.lorentz.chart.names[min(common)]}"
            for text in _PRODUCT_FACTOR:
                put(text)

    return ReducedCaseDiagnosis(case=case, kappa=consts.get("k"), lam=consts.get("l"), rows=rows,
                                consistent=consistent, note=note)
