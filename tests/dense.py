"""AdS5 x CP^3: an exact background with a dense Riemannian 6-block.

The Lorentzian factor, its box and the flux shape are kahler-theta's; the
Riemannian factor is the Fubini-Study metric of CP^3 in one affine chart,
``z_s = y_(2s-1) + i y_(2s)``:

    g_ab = -(8/K) [delta_ab / (1 + r^2) - (y_a y_b + (Jy)_a (Jy)_b) / (1 + r^2)^2]

with J pairing (y1, y2), (y3, y4), (y5, y6).  Its Kaehler form is ``omega_ab
= g_ac J^c_b`` and the flux is ``theta = c * star_6(omega)`` with ``c^2 =
2K``, psi = 1.  Every entry of the 6-block is nonzero off its 2x2 diagonal
blocks, so its jets are long: building ``_Jets`` takes seconds.  It stays out
of the catalog, whose symbolic cross-checks would spend minutes on it.

    PYTHONPATH=src:tests python -c "from dense import cp3_background; ..."
"""

from __future__ import annotations

import math

from sugra.catalog import R6_CHART, build
from sugra.equations import Background, FluxSpec
from sugra.expr import add, const, coord, div, intpow, mul, neg
from sugra.forms import KForm, Metric, hodge
from sugra.geometry import ProductStructure

#: The sample box of the 6-block.
CP3_BOX = [(-0.8, 0.8)] * 6


def cp3_background(big_k: float = 1.0) -> Background:
    """AdS5 x CP^3 with the Kaehler 4-form flux, for Ric = -K on AdS5."""
    ads = build("kahler-theta", params={"K": big_k})
    y = [coord(i) for i in range(6)]
    jy = [neg(y[a + 1]) if a % 2 == 0 else y[a - 1] for a in range(6)]  # J(d/dy1) = d/dy2
    q = add(1.0, *[intpow(v, 2) for v in y])
    entries = [[mul(-8.0 / big_k, add(div(float(a == b), q),
                                      neg(div(add(mul(y[a], y[b]), mul(jy[a], jy[b])), intpow(q, 2)))))
                for b in range(6)] for a in range(6)]
    riemann = Metric(R6_CHART, entries, (0, 6))
    # omega_ab = g_ac J^c_b, with J^(2s+1)_(2s) = 1 and J^(2s)_(2s+1) = -1
    omega = KForm(R6_CHART, 2, {(a, b): entries[a][b + 1] if b % 2 == 0 else neg(entries[a][b - 1])
                                for a in range(6) for b in range(a + 1, 6)})
    theta = hodge(omega, riemann).scale(const(math.sqrt(2.0 * big_k)))
    return Background(ProductStructure(ads.product.lorentz, riemann), FluxSpec(theta=theta, psi=const(1.0)),
                      list(ads.box[:5]) + CP3_BOX)
