"""High-order residuals: DG-projected element vectors and upwind weights.

Per element K the scheme forms the seven-component vector

    F_K[j] = - integral_K grad(phi_j) . f(u_h)  +  oint_{dK} phi_j fhat . n

with single-valued interface fluxes fhat (the trace of u_h is continuous
across edges, so f(trace) . n needs no Riemann solver inside the domain;
boundary edges substitute the boundary flux).  The moment residual is
Phi_K = P F_K / |K| whose last row is exactly the average flux balance and
whose first six rows drive the point values after multiplication by the
upwind weight matrices omega_{K, sigma}.

The weights combine the matrix signs of the directional Jacobians seen by
the point from each element:

    omega_{K,sigma} = (sum_K' (sign(A_n) + eps_K' I))^-1 (sign(A_n) + eps_K I)

with n the inward unit normal of the opposite edge (vertex DoFs) or the
outward unit normal of the containing edge (midpoint DoFs).  At interior
edge midpoints the two signs cancel exactly and the formula degenerates;
whenever the combined matrix is near singular or the resulting weights are
large, all weights of that point fall back to the arithmetic 1/N -- the
partition-of-unity property sum_K omega_{K,sigma} = I holds in either
branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .basis import (
    CENTROID_VALUES,
    POINT_DOF_BARY,
    basis_grad_bary,
    basis_hess_bary,
    basis_values,
    projection_matrix,
)
from .mesh import Mesh, triangle_geometry
from .quadrature import edge_rule, triangle_rule

# Sub-triangle fan used by the low-order scheme: (outer1, outer2, centroid),
# outer corners given as local point-DoF ids, ordered CCW around K.
SUB_DOFS = np.array([[0, 3], [3, 1], [1, 4], [4, 2], [2, 5], [5, 0]])


def _edge_bary(local_edge: int, tau: np.ndarray) -> np.ndarray:
    lam = np.zeros(tau.shape + (3,))
    lam[..., local_edge] = 1.0 - tau
    lam[..., (local_edge + 1) % 3] = tau
    return lam


class Tables:
    """Static geometry/basis tables shared by the spatial operators."""

    def __init__(self, mesh: Mesh, vol_degree: int = 6, edge_points: int = 3):
        self.mesh = mesh
        self.P = projection_matrix()

        # -- volume quadrature ------------------------------------------------
        vr = triangle_rule(vol_degree)
        self.wq_vol = vr.weights
        self.PHI_V = basis_values(vr.points)  # (nqv, 7)
        self.DPHI_V = basis_grad_bary(vr.points)  # (nqv, 7, 3)
        tri_xy = mesh.verts[mesh.tris]  # (NT, 3, 2)
        self.XY_V = np.einsum("qm,kmd->kqd", vr.points, tri_xy)
        # Quadrature-weighted physical test-function gradients, laid out so
        # the volume term is one batched matmul against the flux values:
        # DVOL_MAT[k, j, q*2 + d] = w_q (grad phi_j)_d at volume qp q.
        dvol = np.einsum(
            "q,qjm,kmd->kjqd",
            vr.weights,
            self.DPHI_V,
            mesh.grad_lambda,
            optimize=True,
        )
        nqv = len(vr.weights)
        self.DVOL_MAT = np.ascontiguousarray(dvol.reshape(-1, 7, nqv * 2))

        # -- edge quadrature and trace tables ---------------------------------
        er = edge_rule(edge_points)
        self.wq_edge = er.weights
        t = er.points
        self.nqe = len(t)
        # 1D P2 shapes in the stored edge direction for (a, b, midpoint).
        self.N1D = np.stack(
            [(1 - t) * (1 - 2 * t), t * (2 * t - 1), 4 * t * (1 - t)], axis=1
        )  # (nqe, 3)
        nv = len(mesh.verts)
        e = np.arange(mesh.num_edges)
        self.edge_dofs = np.stack(
            [mesh.edge_verts[:, 0], mesh.edge_verts[:, 1], nv + e], axis=1
        )
        a = mesh.verts[mesh.edge_verts[:, 0]]
        b = mesh.verts[mesh.edge_verts[:, 1]]
        self.XY_E = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]

        # Basis (and derivative) tables on each local edge for both
        # orientations: index [o, l] with o = 0 when the element traverses the
        # edge in the stored direction (tau = t), o = 1 otherwise (tau = 1-t).
        PHI_E = np.empty((2, 3, self.nqe, 7))
        DPHI_E = np.empty((2, 3, self.nqe, 7, 3))
        D2PHI_E = np.empty((2, 3, self.nqe, 7, 3, 3))
        for o, tau in enumerate((t, 1 - t)):
            for l in range(3):
                lam = _edge_bary(l, tau)
                PHI_E[o, l] = basis_values(lam)
                DPHI_E[o, l] = basis_grad_bary(lam)
                D2PHI_E[o, l] = basis_hess_bary(lam)
        self.PHI_E = PHI_E
        self.DPHI_E = DPHI_E
        self.D2PHI_E = D2PHI_E

        # Per-element surface assembly weights:
        # W_EDGE[k, l, q, j] = s_{k,l} |e| w_q phi_j(edge qp).
        oi = (1 - mesh.tri_edge_orient) // 2  # (NT, 3) in {0, 1}
        self.ORIENT_IDX = oi
        lidx = np.broadcast_to(np.arange(3), oi.shape)
        phi_per = PHI_E[oi, lidx]  # (NT, 3, nqe, 7)
        elen = mesh.edge_length[mesh.tri_edges]  # (NT, 3)
        fac = mesh.tri_edge_orient * elen  # signed lengths
        self.W_EDGE = (
            phi_per * self.wq_edge[None, None, :, None] * fac[..., None, None]
        )
        # Same weights as a (NT, 7, 3*nqe) operator for batched matmul.
        self.W_EDGE_MAT = np.ascontiguousarray(
            self.W_EDGE.reshape(mesh.num_tris, 3 * self.nqe, 7)
            .swapaxes(1, 2)
        )

        # Map each edge to (local edge index, orientation table) per side.
        esl = np.full((mesh.num_edges, 2), -1, dtype=np.int64)
        cols = np.tile(np.arange(3), mesh.num_tris)
        eids = mesh.tri_edges.ravel()
        side = (1 - mesh.tri_edge_orient.ravel()) // 2
        esl[eids, side] = cols
        self.edge_side_local = esl

        # Physical derivatives of the local basis at the edge quadrature
        # points, per edge side (side index doubles as the orientation
        # table index): PDG1[e, s, q, j, :] is the gradient of phi_j from
        # side s, PDG2[s, e] the Hessian entries (xx, xy, yy).  Stored as
        # (2, NE, nqe * D, 7) operators for a single batched matmul against
        # the side's local coefficients.
        PDG1 = np.empty((2, mesh.num_edges, self.nqe * 2, 7))
        PDG2 = np.empty((2, mesh.num_edges, self.nqe * 3, 7))
        for s in range(2):
            k = np.clip(mesh.edge_tris[:, s], 0, None)
            l = np.clip(esl[:, s], 0, None)
            G = mesh.grad_lambda[k]  # (NE, 3, 2)
            g1 = np.einsum("eqjm,emd->eqdj", DPHI_E[s, l], G)
            PDG1[s] = g1.reshape(mesh.num_edges, self.nqe * 2, 7)
            H = np.einsum(
                "eqjmn,emd,enc->eqdcj", D2PHI_E[s, l], G, G, optimize=True
            )
            h = np.stack(
                [H[:, :, 0, 0], H[:, :, 0, 1], H[:, :, 1, 1]], axis=2
            )  # (NE, nqe, 3, 7)
            PDG2[s] = h.reshape(mesh.num_edges, self.nqe * 3, 7)
        self.PDG1 = PDG1
        self.PDG2 = PDG2

        # Damping length sup_{x in K} dist(x, e) per edge side: the distance
        # function to a segment is convex, so the sup sits at the vertex
        # opposite the edge.  Side 1 of boundary edges holds garbage.
        a = mesh.verts[mesh.edge_verts[:, 0]]
        b = mesh.verts[mesh.edge_verts[:, 1]]
        ab = b - a
        denom = np.einsum("ed,ed->e", ab, ab)
        dist = np.empty((mesh.num_edges, 2))
        for s in range(2):
            k = np.clip(mesh.edge_tris[:, s], 0, None)
            l = np.clip(esl[:, s], 0, None)
            opp = mesh.verts[mesh.tris[k, (l + 2) % 3]]
            tpar = np.clip(np.einsum("ed,ed->e", opp - a, ab) / denom, 0.0, 1.0)
            dist[:, s] = np.linalg.norm(opp - (a + tpar[:, None] * ab), axis=1)
        self.EDGE_DIST = dist

        # -- upwind-weight normals --------------------------------------------
        gl = mesh.grad_lambda  # (NT, 3, 2), inward-pointing for each vertex
        self.VERTEX_NORMAL = gl / np.linalg.norm(gl, axis=2, keepdims=True)
        self.MID_NORMAL = mesh.outward_normal()  # (NT, 3, 2) unit
        self.DOF_NORMAL = np.concatenate(
            [self.VERTEX_NORMAL, self.MID_NORMAL], axis=1
        )  # (NT, 6, 2)

        # Element-DoF -> point scatter operator: row p has a unit entry in
        # column 6 k + j for each (k, j) with tri_point_dofs[k, j] = p, in
        # ascending column order, so its products add the element-DoF values
        # of each point in the order np.add.at does (bitwise equal sums).
        ndof = 6 * mesh.num_tris
        self.point_scatter = sparse.csr_array(
            (np.ones(ndof), (mesh.tri_point_dofs.ravel(), np.arange(ndof))),
            shape=(mesh.num_points, ndof),
        )
        # Elements per point (for arithmetic fallback weights).
        self.point_count = np.diff(self.point_scatter.indptr).astype(float)

        # -- low-order sub-triangle fan ---------------------------------------
        sub_bary = np.empty((6, 3, 3))
        for s in range(6):
            sub_bary[s, 0] = POINT_DOF_BARY[SUB_DOFS[s, 0]]
            sub_bary[s, 1] = POINT_DOF_BARY[SUB_DOFS[s, 1]]
            sub_bary[s, 2] = 1.0 / 3.0
        sub_xy = np.einsum("scm,kmd->kscd", sub_bary, tri_xy)  # (NT,6,3,2)
        self.SUB_AREA, sub_g = triangle_geometry(sub_xy)
        self.SUB_G = sub_g  # (NT, 6, 3, 2) P1 gradients on each sub-triangle
        # Inward normals scaled by the opposite edge length.
        self.SUB_NORMAL = sub_g * (2.0 * self.SUB_AREA[..., None, None])
        self.SUB_CENTROID = sub_xy.mean(axis=2)
        self.SUB_XY = sub_xy

    # -- state helpers ---------------------------------------------------------

    def coefficients(self, ubar: np.ndarray, upt: np.ndarray) -> np.ndarray:
        """Stack local coefficient vectors: (NT, 7, nvars)."""
        coef = np.empty(
            (self.mesh.num_tris, 7, ubar.shape[-1]), dtype=ubar.dtype
        )
        coef[:, :6] = upt[self.mesh.tri_point_dofs]
        coef[:, 6] = ubar
        return coef

    def edge_traces(self, upt: np.ndarray) -> np.ndarray:
        """Single-valued traces at the edge quadrature points: (NE, nqe, nv)."""
        return self.N1D @ upt[self.edge_dofs]

    def point_sums(self, x: np.ndarray) -> np.ndarray:
        """Sum element point-DoF values (NT, 6, ...) per point: (NP, ...)."""
        flat = x.reshape(6 * self.mesh.num_tris, -1)
        return (self.point_scatter @ flat).reshape(
            (self.mesh.num_points,) + x.shape[2:]
        )

    def centroid_values(self, coef: np.ndarray) -> np.ndarray:
        return np.einsum("j,kjv->kv", CENTROID_VALUES, coef)

    def edge_side_gradients(self, coef: np.ndarray, order: int = 1):
        """Physical derivatives of u_h at edge qps from both sides.

        order 1 -> (NE, 2, nqe, nv, 2) gradients; order 2 -> Hessian entries
        (NE, 2, nqe, nv, 3) as (xx, xy, yy).  Boundary edges carry garbage on
        side 1 (local index -1); callers must mask with edge_tris[:, 1] >= 0.
        """
        mesh = self.mesh
        tab = self.PDG1 if order == 1 else self.PDG2
        ncomp = 2 if order == 1 else 3
        ne = mesh.num_edges
        nv = coef.shape[-1]
        out = np.empty((ne, 2, self.nqe, nv, ncomp))
        for s in range(2):
            k = np.clip(mesh.edge_tris[:, s], 0, None)
            g = (tab[s] @ coef[k]).reshape(ne, self.nqe, ncomp, nv)
            out[:, s] = g.swapaxes(2, 3)
        return out


@dataclass
class HOResult:
    Wpt: np.ndarray  # (NT, 6, nv) upwind-weighted point residuals
    F_edge: np.ndarray  # (NE, nv) integrated edge fluxes (with |e|)
    trace_u: np.ndarray  # (NE, nqe, nv) traces used for the fluxes
    Phi: np.ndarray  # (NT, 7, nv) projected moment residuals
    omega_fallback_points: int
    rescued_volume_elems: int
    rescued_trace_edges: int


class HighOrder:
    def __init__(
        self,
        tables: Tables,
        model,
        bc=None,
        eps_policy: str = "area",
        omega_cap: float = 4.0,
        cond_cap: float = 1e8,
        enforce_domain=None,
    ):
        if eps_policy not in ("area", "zero"):
            raise ValueError(f"unknown eps policy {eps_policy!r}")
        self.t = tables
        self.model = model
        self.bc = bc
        self.eps_policy = eps_policy
        self.omega_cap = float(omega_cap)
        self.cond_cap = float(cond_cap)
        # Domain used only to keep quadrature-state flux evaluations finite
        # (gas dynamics can NaN on overshoots); scalar models skip this.
        self.enforce_domain = enforce_domain

    # -- pieces ---------------------------------------------------------------

    def _rescue_states(self, u, ref, count_axis):
        """Pull inadmissible quadrature states toward an admissible reference.

        u: (..., nq, nv) states, ref: (..., nv).  Scales the whole group by a
        single factor s = min over its quadrature points of the admissible
        blend, mirroring the classic quadrature-limiting trick.  Returns the
        (possibly) modified states and the number of rescued groups.
        """
        dom = self.enforce_domain
        if dom is None:
            return u, 0
        ok = dom.contains(u)
        if ok.all():
            return u, 0
        bad_group = ~ok.all(axis=count_axis)
        d = u - ref[..., None, :]
        eta = dom.max_blend(
            np.broadcast_to(ref[..., None, :], u.shape), d
        )
        s = eta.min(axis=count_axis, keepdims=True)
        u = np.where(
            bad_group[..., None, None], ref[..., None, :] + s[..., None] * d, u
        )
        return u, int(bad_group.sum())

    def interface_fluxes(self, ubar, upt, t):
        """Single-valued edge fluxes: (fluxhat (NE, nqe, nv), trace, rescued)."""
        tb = self.t
        mesh = tb.mesh
        trace = tb.edge_traces(upt)
        # Edge-local rescue reference: the mean of the three edge DoFs (all
        # admissible), keeping the trace single-valued between the two sides.
        ref = upt[tb.edge_dofs].mean(axis=1)
        trace, rescued = self._rescue_states(trace, ref, count_axis=1)
        n = mesh.edge_normal[:, None, :]
        fluxhat = self.model.flux_normal(trace, n, tb.XY_E)
        if self.bc is not None:
            be = mesh.boundary_edges
            fluxhat[be] = self.bc.ho_flux(
                trace[be], mesh.edge_normal[be], tb.XY_E[be], t
            )
        return fluxhat, trace, rescued

    def omega_weights(self, upt, xy_pts):
        """Upwind weights: (NT, 6, nv, nv) plus the fallback-point count.

        Each incident element contributes the candidate weight

            N_K = (Id + sign(J(u_sigma) . n_sigma^K)) / 2 + eps_K Id,

        i.e. the upwind projector (eigenvalue 1 on characteristics entering
        through the element's normal, 0 on those leaving, 1/2 on parallel
        ones) plus the regularization, and the final weights normalize the
        patch sum: omega_K = (sum_K' N_K')^{-1} N_K.  The projector form is
        what keeps the construction usable at eps = 0: a midpoint's two
        candidates use opposite normals, so the bare sign matrices cancel in
        the sum, while the projector halves are complementary and sum to Id
        wherever the flow crosses the edge (and the degenerate edge-parallel
        case regularizes to the central 1/2 weight).  It also reproduces the
        classic one-dimensional upwind point update across an edge: weight
        Id on the upwind side and 0 on the downwind side for supersonic
        crossings.

        The patch sums, and the spread of a too-large weight to every
        element of its point, go through `Tables.point_scatter`, the sparse
        element-DoF -> point operator with unit entries, so they add in the
        order np.add.at would.  Patch sums that are not finite fall back
        before any inversion.
        """
        tb = self.t
        mesh = tb.mesh
        nv = upt.shape[-1]
        u_loc = upt[mesh.tri_point_dofs]  # (NT, 6, nv)
        S = self.model.sign_jac_normal(u_loc, tb.DOF_NORMAL, xy_pts)
        eps = (
            0.5 * mesh.areas if self.eps_policy == "area" else np.zeros(mesh.num_tris)
        )
        Seps = 0.5 * (S + np.eye(nv)) + eps[:, None, None, None] * np.eye(nv)
        total = tb.point_sums(Seps)
        # Invert per point; patch sums that are not finite or exactly
        # singular go straight to the fallback.
        ok = np.isfinite(total).all(axis=(1, 2))
        ok[ok] = np.linalg.det(total[ok]) != 0.0
        bad_pt = ~ok
        inv = np.zeros_like(total)
        if ok.any():
            A = total[ok]
            X = np.linalg.inv(A)
            # Newton steps X <- X + X (I - A X) square the residual of the
            # inverse, so sum_K omega stays at identity to round-off even
            # for moderately ill-conditioned sums.
            for _ in range(2):
                X += X @ (np.eye(nv) - A @ X)
            inv[ok] = X
            cond = np.linalg.norm(A, axis=(1, 2)) * np.linalg.norm(
                X, axis=(1, 2)
            )
            bad_pt[ok] = ~np.isfinite(cond) | (cond > self.cond_cap)
        omega = inv[mesh.tri_point_dofs] @ Seps
        norms = np.linalg.norm(omega, axis=(2, 3))
        big = ~np.isfinite(norms) | (norms > self.omega_cap)
        bad_pt |= tb.point_sums(big.astype(float)) > 0.0
        fb = bad_pt[mesh.tri_point_dofs]  # (NT, 6)
        if fb.any():
            unit = np.eye(nv) / tb.point_count[mesh.tri_point_dofs][
                ..., None, None
            ]
            omega = np.where(fb[..., None, None], unit, omega)
        return omega, int(bad_pt.sum())

    # -- full residual ----------------------------------------------------------

    def compute(self, ubar, upt, t) -> HOResult:
        tb = self.t
        mesh = tb.mesh
        nv = ubar.shape[-1]
        coef = tb.coefficients(ubar, upt)

        # Volume term.
        uq = tb.PHI_V @ coef  # (NT, nqv, nv)
        uq, resc_vol = self._rescue_states(uq, ubar, count_axis=1)
        fq = self.model.flux(uq, tb.XY_V)  # (NT, nqv, nv, 2)
        nqv = fq.shape[1]
        fq_mat = np.ascontiguousarray(fq.swapaxes(2, 3)).reshape(
            mesh.num_tris, nqv * 2, nv
        )
        VOL = -(tb.DVOL_MAT @ fq_mat) * mesh.areas[:, None, None]

        # Surface term from single-valued fluxes.
        fluxhat, trace, resc_tr = self.interface_fluxes(ubar, upt, t)
        fh_loc = fluxhat[mesh.tri_edges]  # (NT, 3, nqe, nv)
        SURF = tb.W_EDGE_MAT @ fh_loc.reshape(mesh.num_tris, -1, nv)

        F_K = VOL + SURF
        Phi = (tb.P @ F_K) / mesh.areas[:, None, None]

        xy_pts = mesh.point_xy[mesh.tri_point_dofs]
        omega, fb = self.omega_weights(upt, xy_pts)
        Wpt = (omega @ Phi[:, :6, :, None])[..., 0]

        F_edge = np.einsum(
            "q,eqv->ev", tb.wq_edge, fluxhat
        ) * mesh.edge_length[:, None]

        return HOResult(Wpt, F_edge, trace, Phi, fb, resc_vol, resc_tr)
