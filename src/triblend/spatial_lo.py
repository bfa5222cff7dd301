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

import numpy as np

from .basis import POINT_DOF_BARY
from .models import llf_flux, nv_first, nv_last, positions
from .spatial_ho import StaticSpeeds, Tables, element_blocks

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

# The two sub-triangles that hold local point DoF d as an outer corner, in
# ascending order: SLOT_SUB[d], (6, 2).
SLOT_SUB = np.array(
    [np.flatnonzero((SUB_CORNERS[:, :2] == d).any(axis=1)) for d in range(6)]
)
# The coefficients that point DoF d's fan residual reads, STENCIL[d]:
# itself, its neighbour in each sub-triangle SLOT_SUB[d] and the average.
STENCIL = np.array([[d, *SUB_CORNERS[SLOT_SUB[d], :2].sum(1) - d, 6] for d in range(6)])
# `LowOrder._fan_map` probes this many elements at a time, so that its
# temporaries (about 1 kB per element) stay below a step's peak.
PROBE_ELEMS = 256


def _fan_rates(model, U, gl, xy_s, areas):
    """The rates alpha_S (6, E) of the fans with corner states U at their
    centroids xy_s (6, E, 2) or None (`positions`), from the barycentric
    gradients gl (2, 3, E)."""
    xy = None if xy_s is None else xy_s[:, None]
    sub_g = (FAN_GRAD @ gl).reshape(2, 6, 3, -1)  # P1 gradients of S
    # |S| / 3 = |K| / 18.  The edge-scaled inward normals of S are
    # 2 |S| grad(mu) = sub_g |K| / 3; wave speeds are homogeneous in the
    # normal, so the factor |K| / 3 applies to their maximum, taken one
    # corner at a time.
    alpha_s = 0.0
    for u in U:
        speeds = model.max_wavespeed(
            nv_last(u)[:, None], nv_last(sub_g), xy
        )  # (6, 3, E)
        alpha_s = np.maximum(alpha_s, speeds.max(axis=1))
        del speeds
    alpha_s *= areas / 3.0
    return alpha_s


class LowOrder:
    """The low-order residuals; the handler `bc` gives the ghost average of
    every boundary edge.  For a model with `static_signs` both are linear
    maps of the state, kept from their first use in the record `speeds`
    (`StaticSpeeds`), on `rotating-shapes` at n=59: each edge's LLF weights
    of its two averages, 0.17 MB ("llf"); the fan map of the STENCIL
    coefficients, 1.34 MB ("fan")."""

    def __init__(self, tables: Tables, model, bc):
        self.t = tables
        self.model = model
        self.bc = bc
        self.speeds = StaticSpeeds(model)

    def average_fluxes(self, ubar, t):
        """Integrated LLF fluxes (NE, nv); for a model with `static_signs`
        w0 u0 + w1 u1, with the kept weights of `_llf_weights`."""
        mesh = self.t.mesh
        model = self.model
        u0, u1 = np.take(ubar, self.t.side_elems, axis=0)
        be = mesh.boundary_edges
        u1[be] = self.bc.ghost_average(u0[be], mesh.edge_normal[be], t)
        if model.static_signs:
            w = self.speeds.get("llf", self._llf_weights)
            return w[0][:, None] * u0 + w[1][:, None] * u1
        xy = positions(model, lambda: mesh.edge_mid)
        fn = llf_flux(model, u0, u1, mesh.edge_normal, xy)
        return fn * mesh.edge_length[:, None]

    def _llf_weights(self):
        """The weights (2, NE) of u0 and u1 in the integrated LLF flux of a
        linear model: `llf_flux` of the unit states (1, 0) and (0, 1),
        times |e|."""
        mesh = self.t.mesh
        one, zero = np.ones((mesh.num_edges, 1)), np.zeros((mesh.num_edges, 1))
        w = [llf_flux(self.model, *u, mesh.edge_normal, mesh.edge_mid)[:, 0]
             for u in ((one, zero), (zero, one))]
        return np.array(w) * mesh.edge_length

    def point_residuals(self, coef):
        """Fan residuals of the point DoFs from the element coefficients
        coef (7, NT, nv): (6, NT, nv).

        The kernel works on the component-major blocks (nv, ..., NT) under
        the views (see `Tables`), and gives the model nv-last views of its
        own blocks.  It runs by element blocks (`element_blocks`); within
        one, the corner states of the sub-triangles are gathered corner by
        corner, (nv, 6, E) each, and the centroid corner is the average,
        the same for all six.  For a model with `static_signs` they are
        the kept map of `_fan_map` on the STENCIL coefficients.
        """
        mesh = self.t.mesh
        _, nt, nv = coef.shape
        c = nv_first(coef)  # (nv, 7, NT)
        if self.model.static_signs:
            L = self.speeds.get("fan", self._fan_map)  # (4, 6, NT)
            Phi = L[0] * c[:, :6] + L[3] * c[:, 6:]
            for k in (1, 2):
                Phi += L[k] * np.take(c, STENCIL[:, k], axis=1)
            return nv_last(Phi)
        gl = np.ascontiguousarray(mesh.grad_lambda.T)  # (2, 3, NT)
        Phi = np.empty((nv, 6, nt))
        for blk in element_blocks(nt, nv):
            self._fan(c[..., blk], gl[..., blk], mesh.areas[blk], blk, Phi[..., blk])
        Phi /= mesh.gather_points(mesh.point_area)
        return nv_last(Phi)

    def _fan_map(self):
        """The point residuals of a linear model as a map (4, 6, NT): entry
        [k, d] weighs coefficient STENCIL[d, k] in point DoF d's residual,
        point area included.  `_fan` of the seven unit coefficient vectors,
        one probe and PROBE_ELEMS elements at a time."""
        mesh = self.t.mesh
        gl = np.ascontiguousarray(mesh.grad_lambda.T)  # (2, 3, NT)
        L = np.empty((4, 6, mesh.num_tris))
        for start in range(0, mesh.num_tris, PROBE_ELEMS):
            blk = slice(start, start + PROBE_ELEMS)  # the last one clipped
            areas = mesh.areas[blk]
            fan = np.empty((1, 6, len(areas)))
            for j in range(7):
                probe = np.broadcast_to(np.eye(7)[j, :, None], (1, 7, len(areas)))
                self._fan(probe, gl[..., blk], areas, blk, fan)
                d, k = np.nonzero(STENCIL == j)
                L[k, d, blk] = fan[0, d]
        return L / mesh.gather_points(mesh.point_area)

    def _fan(self, c, gl, areas, blk, Phi):
        """The fan sums of the elements `blk` into Phi (nv, 6, E), from
        their coefficients c (nv, 7, E), barycentric gradients gl (2, 3, E)
        and areas (E,); `point_residuals` divides by the point areas."""
        model = self.model
        U = [np.take(c, SUB_CORNERS[:, k], axis=1) for k in range(2)]
        U.append(c[:, None, 6])  # (nv, 1, E)
        ubar_s = (U[0] + U[1] + U[2]) / 3.0  # (nv, 6, E)
        xy_s = positions(model, lambda: self.t.element_points(FAN_CENTROID, blk))
        alpha_s = _fan_rates(model, U, gl, xy_s, areas)
        # grad(u_S) (nv, 2, 6, E) from the P1 gradients of the corner
        # coordinates of S, (6, 3, E), one direction at a time.
        grad = np.empty((len(c), 2) + ubar_s.shape[1:])
        for d, g in enumerate(gl):
            sub_g = (FAN_GRAD @ g).reshape(6, 3, -1)
            np.multiply(U[0], sub_g[:, 0], out=grad[:, d])
            grad[:, d] += U[1] * sub_g[:, 1]
            grad[:, d] += U[2] * sub_g[:, 2]
            del sub_g
        del U
        w = np.moveaxis(grad, (0, 1), (-2, -1))
        jac = model.jac_apply(nv_last(ubar_s), w, xy_s)  # (6, E, nv)
        del grad, w
        central = areas / 18.0 * nv_first(jac)  # (nv, 6, E)
        del jac
        # Point DoF d gets central + alpha_S (u_d - u_S) from each of the
        # two sub-triangles SLOT_SUB[d] it is a corner of.
        s0, s1 = SLOT_SUB.T
        np.add(central[:, s0], alpha_s[s0] * (c[:, :6] - ubar_s[:, s0]), out=Phi)
        Phi += central[:, s1] + alpha_s[s1] * (c[:, :6] - ubar_s[:, s1])
