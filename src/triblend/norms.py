"""Discrete error norms over both DoF families, and observed orders.

Averages are weighted by element area; point values by the per-point share
of area (each element contributes |K|/6 to each of its six points), so both
weight sets tile the domain: sum = |Omega|.  L-inf is a plain max.  For
systems the pointwise error magnitude is the euclidean norm over
components.
"""

from __future__ import annotations

import math

import numpy as np


def point_weights(mesh) -> np.ndarray:
    """Area share per point DoF; sums to the total mesh area.  It is 3/2
    of the dual area `mesh.point_area` (|K|/9 from each element)."""
    return 1.5 * mesh.point_area


def _norm_triple(err, w):
    mag = np.linalg.norm(err, axis=-1) if err.shape[-1] > 1 else np.abs(err[..., 0])
    return {
        "l1": float(w @ mag),
        "l2": float(math.sqrt(w @ mag**2)),
        "linf": float(mag.max()),
    }


def error_norms(mesh, ubar, upt, exact_bar, exact_pt) -> dict:
    """{'internal': {l1,l2,linf}, 'boundary': {...}} against exact arrays.

    `exact_bar` must hold exact cell averages (quadrature of the exact
    solution, not of an interpolant); `exact_pt` exact point values.
    """
    return {
        "internal": _norm_triple(np.asarray(ubar) - exact_bar, mesh.areas),
        "boundary": _norm_triple(np.asarray(upt) - exact_pt, point_weights(mesh)),
    }


def observed_orders(errors, hs):
    """log(e_i/e_{i+1}) / log(h_i/h_{i+1}); None where undefined (zero error)."""
    out = []
    for (e0, e1), (h0, h1) in zip(zip(errors, errors[1:]), zip(hs, hs[1:])):
        if e0 <= 0.0 or e1 <= 0.0:
            out.append(None)
        else:
            out.append(math.log(e0 / e1) / math.log(h0 / h1))
    return out


def convergence_rows(hs, norm_dicts):
    """Flatten per-level norms into table rows with interleaved orders.

    norm_dicts: one error_norms() result per level, coarse to fine.
    Returns a list of dicts with keys h, then for each family/norm the
    error and the order against the previous level ('' on the first row,
    'NA' where undefined), from `observed_orders`.
    """
    rows = [{"h": h} for h in hs]
    for fam in ("internal", "boundary"):
        for nm in ("l1", "l2", "linf"):
            errors = [nd[fam][nm] for nd in norm_dicts]
            orders = [""] + observed_orders(errors, hs)
            for row, err, order in zip(rows, errors, orders):
                row[f"{fam}_{nm}"] = err
                row[f"{fam}_{nm}_order"] = "NA" if order is None else order
    return rows
