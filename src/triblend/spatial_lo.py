"""Invariant-domain-preserving low-order residuals.

Averages follow a plain first-order finite-volume step with local
Lax-Friedrichs fluxes between neighbouring cell averages (ghost averages
from the boundary handler close the domain).

Point values use the median fan: each triangle splits into six
sub-triangles S = (outer DoF, next outer DoF, centroid), each of area
|K|/6.  On a sub-triangle the residual seen by one of its outer points is

    Phi^S_sigma = (1/3)|S| J(u_S) . grad(u_S) + alpha_S (u_sigma - u_S)

with u_S the arithmetic mean of the three corner values -- the centroid
corner carries the cell-average DoF, which keeps every state entering the
update admissible whenever the DoFs are -- grad(u_S) the P1 gradient of the
corner values, and alpha_S a local Lax-Friedrichs rate taken over the corner
states against the three *inward edge-scaled* normals of S.  The point
residual is the sub-triangle sum divided by the point's area share
|C_sigma| = sum_{K owning sigma} |K| / 9, so that graph dissipation and
central parts balance to a bound-preserving convex update under the CFL
restriction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import POINT_DOF_BARY
from .models import llf_flux
from .spatial_ho import Tables

# Sub-triangle fan: (outer1, outer2, centroid) as coefficient ids, ordered
# CCW around K; id 6 is the cell average, which the fan places at the
# centroid.
SUB_CORNERS = np.array(
    [[0, 3, 6], [3, 1, 6], [1, 4, 6], [4, 2, 6], [2, 5, 6], [5, 0, 6]]
)
# Barycentric coordinates in K of the fan corners: (6 subtris, 3 corners, 3).
_FAN_BARY = np.vstack([POINT_DOF_BARY, np.full(3, 1.0 / 3.0)])[SUB_CORNERS]
# A point with barycentric coordinates mu in sub-triangle S has
# lambda = C_S^T mu in K, with C_S the corner rows above, so the P1
# gradients of S are grad(mu) = C_S^-T grad(lambda).  FAN_GRAD stacks the
# rows (S, corner) of the C_S^-T; its entries are integers in {-2, ..., 3}.
FAN_GRAD = np.rint(np.linalg.inv(_FAN_BARY).transpose(0, 2, 1)).reshape(18, 3)
FAN_CENTROID = _FAN_BARY.mean(axis=1)  # (6, 3)

# Inverse of the outer corners of SUB_CORNERS: local point DoF d appears as
# corner SLOT_CORNER[d, i] of sub-triangle SLOT_SUB[d, i], for i = 0, 1.
SLOT_SUB = np.empty((6, 2), dtype=np.int64)
SLOT_CORNER = np.empty((6, 2), dtype=np.int64)
for _d in range(6):
    _hits = [(s, c) for s in range(6) for c in range(2) if SUB_CORNERS[s, c] == _d]
    SLOT_SUB[_d] = [h[0] for h in _hits]
    SLOT_CORNER[_d] = [h[1] for h in _hits]


@dataclass
class LOResult:
    Phi_pt: np.ndarray  # (NT, 6, nv)
    F_edge: np.ndarray  # (NE, nv), integrated LLF fluxes (with |e|)


class LowOrder:
    def __init__(self, tables: Tables, model, bc=None):
        self.t = tables
        self.model = model
        self.bc = bc

    def average_fluxes(self, ubar, t):
        mesh = self.t.mesh
        u0 = ubar[mesh.edge_tris[:, 0]]
        u1 = ubar[np.clip(mesh.edge_tris[:, 1], 0, None)]
        if self.bc is not None:
            be = mesh.boundary_edges
            u1[be] = self.bc.ghost_average(
                u0[be], mesh.edge_normal[be], mesh.edge_mid[be], t
            )
        fn = llf_flux(self.model, u0, u1, mesh.edge_normal, mesh.edge_mid)
        return fn * mesh.edge_length[:, None]

    def point_residuals(self, coef):
        """Fan residuals of the point DoFs from the element coefficients
        coef (NT, 7, nv): (NT, 6, nv)."""
        tb = self.t
        mesh = tb.mesh
        U = np.take(coef, SUB_CORNERS, axis=1)  # (NT, 6 subtris, 3 corners, nv)
        ubar_s = U.mean(axis=2)  # (NT, 6, nv)
        # P1 gradients of the corner coordinates of S: (NT, 6, 3, 2).
        sub_g = (FAN_GRAD @ mesh.grad_lambda).reshape(-1, 6, 3, 2)
        grad = U.swapaxes(-1, -2) @ sub_g  # (NT, 6, nv, 2)
        xy_s = tb.element_points(FAN_CENTROID)
        # |S| / 3 = |K| / 18.  The edge-scaled inward normals of S are
        # 2 |S| grad(mu) = sub_g |K| / 3; wave speeds are homogeneous in
        # the normal, so the factor |K| / 3 applies to their maximum.
        central = (
            mesh.areas[:, None, None] / 18.0
            * self.model.jac_apply(ubar_s, grad, xy_s)
        )
        speeds = self.model.max_wavespeed(
            U[:, :, :, None, :],  # (NT, 6, 3, 1, nv)
            sub_g[:, :, None],  # (NT, 6, 1, 3, 2)
            xy_s[:, :, None, None, :],
        )
        alpha_s = speeds.max(axis=(2, 3)) * (mesh.areas[:, None] / 3.0)  # (NT, 6)
        contrib = central[:, :, None, :] + alpha_s[:, :, None, None] * (
            U[:, :, :2, :] - ubar_s[:, :, None, :]
        )  # (NT, 6 subtris, 2 corners, nv)
        Phi = (
            contrib[:, SLOT_SUB[:, 0], SLOT_CORNER[:, 0]]
            + contrib[:, SLOT_SUB[:, 1], SLOT_CORNER[:, 1]]
        )  # (NT, 6 local dofs, nv)
        Phi /= mesh.point_area[mesh.tri_point_dofs][..., None]
        return Phi

    def compute(self, coef, t) -> LOResult:
        """Low-order residuals from the element coefficients (NT, 7, nv)."""
        return LOResult(
            self.point_residuals(coef), self.average_fluxes(coef[:, 6], t)
        )
