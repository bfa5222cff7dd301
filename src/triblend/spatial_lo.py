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

from .spatial_ho import SUB_DOFS, Tables

# Inverse of SUB_DOFS: local point DoF d appears as corner
# SLOT_CORNER[d, i] of sub-triangle SLOT_SUB[d, i], for i = 0, 1.
SLOT_SUB = np.empty((6, 2), dtype=np.int64)
SLOT_CORNER = np.empty((6, 2), dtype=np.int64)
for _d in range(6):
    _hits = [(s, c) for s in range(6) for c in range(2) if SUB_DOFS[s, c] == _d]
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
        tb = self.t
        mesh = tb.mesh
        u0 = ubar[mesh.edge_tris[:, 0]]
        u1 = ubar[np.clip(mesh.edge_tris[:, 1], 0, None)].copy()
        if self.bc is not None:
            be = mesh.boundary_edges
            u1[be] = self.bc.ghost_average(
                ubar[mesh.edge_tris[be, 0]],
                mesh.edge_normal[be],
                mesh.edge_mid[be],
                t,
            )
        n = mesh.edge_normal
        xy = mesh.edge_mid
        alpha = np.maximum(
            self.model.max_wavespeed(u0, n, xy),
            self.model.max_wavespeed(u1, n, xy),
        )
        fn = 0.5 * (
            self.model.flux_normal(u0, n, xy)
            + self.model.flux_normal(u1, n, xy)
        ) - 0.5 * alpha[:, None] * (u1 - u0)
        return fn * mesh.edge_length[:, None]

    def point_residuals(self, ubar, upt):
        tb = self.t
        mesh = tb.mesh
        u_loc = np.take(upt, mesh.tri_point_dofs, axis=0)  # (NT, 6, nv)
        outer = u_loc[:, SUB_DOFS]  # (NT, 6, 2, nv)
        U = np.concatenate(
            [outer, np.broadcast_to(ubar[:, None, None, :], outer[:, :, :1].shape)],
            axis=2,
        )
        ubar_s = U.mean(axis=2)  # (NT, 6, nv)
        grad = U.swapaxes(-1, -2) @ tb.SUB_G  # (NT, 6, nv, 2)
        xy_s = tb.SUB_CENTROID
        # |S| / 3 = |K| / 18.  The edge-scaled inward normals of S are
        # 2 |S| grad(lambda^S) = SUB_G |K| / 3; wave speeds are homogeneous
        # in the normal, so the factor |K| / 3 applies to their maximum.
        central = (
            mesh.areas[:, None, None] / 18.0
            * self.model.jac_apply(ubar_s, grad, xy_s)
        )
        speeds = self.model.max_wavespeed(
            U[:, :, :, None, :],  # (NT, 6, 3, 1, nv)
            tb.SUB_G[:, :, None],  # (NT, 6, 1, 3, 2)
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

    def compute(self, ubar, upt, t) -> LOResult:
        return LOResult(
            self.point_residuals(ubar, upt), self.average_fluxes(ubar, t)
        )
