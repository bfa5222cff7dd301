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

from .basis import basis_grad_bary, basis_hess_bary, basis_values, projection_matrix
from .mesh import Mesh
from .quadrature import edge_rule, triangle_rule

# Exactness degree of the volume rule and Gauss points per edge.
VOL_DEGREE = 6
EDGE_POINTS = 3
# Upwind weights fall back to 1/N at a point whose weights exceed OMEGA_CAP
# in Frobenius norm or whose patch sum has a condition number above COND_CAP.
OMEGA_CAP = 4.0
COND_CAP = 1e8

# Cyclic relabelling that makes local edge l local edge 0: coefficient j of
# the relabelled element is coefficient ROTATE[l, j] of the original one,
# and its barycentric coordinate m is lambda_{(m + l) % 3}.
ROTATE = np.array(
    [[(l + m) % 3 for m in range(3)] + [3 + (l + m) % 3 for m in range(3)] + [6]
     for l in range(3)]
)


def _edge_bary(local_edge: int, tau: np.ndarray) -> np.ndarray:
    lam = np.zeros(tau.shape + (3,))
    lam[..., local_edge] = 1.0 - tau
    lam[..., (local_edge + 1) % 3] = tau
    return lam


def _local_edges(mesh: Mesh, tris: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Local index of edges[i] in triangles tris[i, s]: (E, 2), 0 if absent."""
    return np.argmax(mesh.tri_edges[tris] == edges[:, None, None], axis=2)


class Tables:
    """Static geometry/basis tables shared by the spatial operators.

    Every element is affine, so element terms are reference-element tables
    contracted at call time with `mesh.grad_lambda` (the gradients of the
    barycentric coordinates), `mesh.areas` and the signed edge lengths, and
    reference points map to each element through `element_points`.  The
    per-element arrays hold point-DoF positions, normals and damping
    lengths.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.P = projection_matrix()

        # -- volume quadrature ------------------------------------------------
        vr = triangle_rule(VOL_DEGREE)
        self.wq_vol = vr.weights
        self.PHI_V = basis_values(vr.points)  # (nqv, 7)
        self.DPHI_V = basis_grad_bary(vr.points)  # (nqv, 7, 3)
        self.BARY_V = vr.points  # (nqv, 3)
        # Positions of each element's point DoFs: (NT, 6, 2).
        self.XY_PT = np.take(mesh.point_xy, mesh.tri_point_dofs, axis=0)
        # With lambda_2 = 1 - lambda_0 - lambda_1, grad(phi_j) is
        # sum_a (d phi_j / d lambda_a - d phi_j / d lambda_2) grad(lambda_a)
        # over a = 0, 1.  VOL_OP[(a, j), q] holds P times the weighted
        # reduced derivatives w_q (...), so P F_vol / |K| is VOL_OP applied
        # to the flux and contracted with -grad(lambda_a); the row order
        # (a, j) keeps (j, v) one strided axis in each (a, d) slice.
        dred = self.DPHI_V[:, :, :2] - self.DPHI_V[:, :, 2:]  # (nqv, 7, 2)
        vol = np.einsum("jk,q,qka->ajq", self.P, self.wq_vol, dred)
        self.VOL_OP = np.ascontiguousarray(vol.reshape(14, -1))

        # -- edge quadrature and trace tables ---------------------------------
        er = edge_rule(EDGE_POINTS)
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

        # The rule is symmetric, so an element traversing an edge against
        # its stored direction meets the quadrature points in reverse order.
        # SURF_OP[j, (l, q)] = (P PHI_E)[j] at point q of local edge l in the
        # element's own direction, times w_q: applied to the edge fluxes
        # scaled by the signed edge length over |K| it gives P F_surf / |K|.
        surf = np.einsum("jk,q,lqk->jlq", self.P, self.wq_edge, PHI_E[0])
        self.SURF_OP = np.ascontiguousarray(surf.reshape(7, -1))

        # Reduced barycentric derivatives on local edge 0, for each edge
        # side s (side s traverses the edge with orientation table s):
        # rows (d/d lambda_0, d/d lambda_1, d2/d lambda_0^2,
        # d2/d lambda_0 d lambda_1, d2/d lambda_1^2) per quadrature point,
        # with lambda_2 eliminated as above.
        d1 = DPHI_E[:, 0, :, :, :2] - DPHI_E[:, 0, :, :, 2:]  # (2, nqe, 7, 2)
        H = D2PHI_E[:, 0]  # (2, nqe, 7, 3, 3)
        h = H[..., :2, :2] - H[..., :2, 2:] - H[..., 2:, :2] + H[..., 2:, 2:]
        comps = [d1[..., 0], d1[..., 1], h[..., 0, 0], h[..., 0, 1], h[..., 1, 1]]
        self.EDGE_DERIV_OP = np.ascontiguousarray(
            np.stack(comps, axis=1).reshape(2, 5 * self.nqe, 7)
        )

        # Damping length sup_{x in K} dist(x, e) per edge side: the distance
        # function to a segment is convex, so the sup sits at the vertex
        # opposite the edge.  Side 1 of boundary edges holds garbage.
        ab = b - a
        denom = np.einsum("ed,ed->e", ab, ab)
        dist = np.empty((mesh.num_edges, 2))
        tris = np.clip(mesh.edge_tris, 0, None)
        local = _local_edges(mesh, tris, e)
        for s in range(2):
            opp = mesh.verts[mesh.tris[tris[:, s], (local[:, s] + 2) % 3]]
            tpar = np.clip(np.einsum("ed,ed->e", opp - a, ab) / denom, 0.0, 1.0)
            dist[:, s] = np.linalg.norm(opp - (a + tpar[:, None] * ab), axis=1)
        self.EDGE_DIST = dist

        # -- upwind-weight normals --------------------------------------------
        # Unit inward normals opposite each vertex, then unit outward
        # normals of the edges that hold the midpoints: (NT, 6, 2).
        gl = mesh.grad_lambda
        self.DOF_NORMAL = np.concatenate(
            [gl / np.linalg.norm(gl, axis=2, keepdims=True), mesh.outward_normal()],
            axis=1,
        )

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

    # -- geometry and state helpers --------------------------------------------

    def element_points(self, bary: np.ndarray) -> np.ndarray:
        """Positions of the reference points bary (n, 3), given by their
        barycentric coordinates, in every element: (NT, n, 2)."""
        return bary @ np.take(self.mesh.verts, self.mesh.tris, axis=0)

    def coefficients(self, ubar: np.ndarray, upt: np.ndarray) -> np.ndarray:
        """Stack local coefficient vectors: (NT, 7, nvars)."""
        coef = np.empty(
            (self.mesh.num_tris, 7, ubar.shape[-1]), dtype=ubar.dtype
        )
        coef[:, :6] = np.take(upt, self.mesh.tri_point_dofs, axis=0)
        coef[:, 6] = ubar
        return coef

    def point_sums(self, x: np.ndarray) -> np.ndarray:
        """Sum element point-DoF values (NT, 6, ...) per point: (NP, ...)."""
        flat = x.reshape(6 * self.mesh.num_tris, -1)
        return (self.point_scatter @ flat).reshape(
            (self.mesh.num_points,) + x.shape[2:]
        )

    def edge_side_gradients(self, coef: np.ndarray, edges: np.ndarray):
        """Gradient and Hessian of u_h at the quadrature points of interior
        edges, from both sides.

        Returns grad (2, 2, nv, nqe, E) with components (x, y) and hess
        (2, 3, nv, nqe, E) with components (xx, xy, yy), indexed by side,
        component, variable, quadrature point and edge; side s is element
        edge_tris[edges, s].  Each side's element is relabelled (ROTATE) so
        that the edge is its local edge 0, which makes EDGE_DERIV_OP[s] one
        table for all edges; its reduced barycentric derivatives then map to
        x, y through the relabelled grad(lambda_0), grad(lambda_1).
        """
        mesh = self.mesh
        nv, ne = coef.shape[-1], len(edges)
        grad = np.empty((2, 2, nv, self.nqe, ne))
        hess = np.empty((2, 3, nv, self.nqe, ne))
        by_var = coef.transpose(2, 0, 1).reshape(nv, -1)  # (nv, 7 NT)
        tris = mesh.edge_tris[edges]  # (E, 2)
        local = _local_edges(mesh, tris, edges)
        for s in range(2):
            k = tris[:, s]
            rot = ROTATE[local[:, s]].T  # (7, E)
            c = np.take(by_var, 7 * k + rot, axis=1)  # (nv, 7, E)
            r = (self.EDGE_DERIV_OP[s] @ c).reshape(nv, 5, self.nqe, ne)
            g0 = mesh.grad_lambda[k, rot[0]].T  # (2, E): x, y parts
            g1 = mesh.grad_lambda[k, rot[1]].T
            for d in range(2):
                out = np.multiply(g0[d], r[:, 0], out=grad[s, d])
                out += g1[d] * r[:, 1]
            for i, (d, e) in enumerate(((0, 0), (0, 1), (1, 1))):
                out = np.multiply(g0[d] * g0[e], r[:, 2], out=hess[s, i])
                out += (g0[d] * g1[e] + g1[d] * g0[e]) * r[:, 3]
                out += (g1[d] * g1[e]) * r[:, 4]
        return grad, hess


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
    def __init__(self, tables: Tables, model, bc=None, enforce_domain=None):
        self.t = tables
        self.model = model
        self.bc = bc
        # Domain toward which `_rescue_states` pulls inadmissible volume
        # quadrature states and edge traces before the flux sees them, so
        # that gas dynamics stays finite on overshoots.  The stepper passes
        # its enforced domain in every limited mode, scalar models included,
        # so the rescue also shapes the high-order residual there.
        self.enforce_domain = enforce_domain
        # (omega, fallback count), kept after the first call when the
        # model's sign matrices do not depend on the state.
        self._static_omega = None

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

    def interface_fluxes(self, upt, t):
        """Single-valued edge fluxes: (fluxhat (NE, nqe, nv), trace, rescued)."""
        tb = self.t
        mesh = tb.mesh
        edge_u = np.take(upt, tb.edge_dofs, axis=0)  # (NE, 3, nv)
        trace = tb.N1D @ edge_u
        # Edge-local rescue reference: the mean of the three edge DoFs (all
        # admissible), keeping the trace single-valued between the two sides.
        ref = edge_u.mean(axis=1)
        trace, rescued = self._rescue_states(trace, ref, count_axis=1)
        n = mesh.edge_normal[:, None, :]
        fluxhat = self.model.flux_normal(trace, n, tb.XY_E)
        if self.bc is not None:
            be = mesh.boundary_edges
            fluxhat[be] = self.bc.ho_flux(
                trace[be], mesh.edge_normal[be], tb.XY_E[be], t
            )
        return fluxhat, trace, rescued

    def omega_weights(self, u_loc):
        """Upwind weights: (NT, 6, nv, nv) plus the fallback-point count.

        u_loc (NT, 6, nv) holds each element's point-DoF states.

        Each incident element contributes the candidate weight

            N_K = (Id + sign(J(u_sigma) . n_sigma^K)) / 2 + eps_K Id,

        with eps_K = |K| / 2: the upwind projector (eigenvalue 1 on
        characteristics entering through the element's normal, 0 on those
        leaving, 1/2 on parallel ones) plus the regularization.  The final
        weights normalize the patch sum: omega_K = (sum_K' N_K')^{-1} N_K.
        The projector form keeps the construction usable as eps_K -> 0
        under refinement: a midpoint's two candidates use opposite normals,
        so the bare sign matrices cancel in the sum, while the projector
        halves are complementary and sum to Id wherever the flow crosses
        the edge (and the degenerate edge-parallel case regularizes to the
        central 1/2 weight).  It also reproduces the classic
        one-dimensional upwind point update across an edge: weight Id on
        the upwind side and 0 on the downwind side for supersonic crossings.

        The patch sums, and the spread of a too-large weight to every
        element of its point, go through `Tables.point_scatter`, the sparse
        element-DoF -> point operator with unit entries, so they add in the
        order np.add.at would.  Patch sums that are not finite fall back
        before any inversion.

        The weights depend on the state only through the sign matrices.
        For a model with `static_signs` (linear advection in a fixed
        velocity field) they are built on the first call and the same
        read-only array and count are returned after that.
        """
        if self._static_omega is not None:
            return self._static_omega
        tb = self.t
        mesh = tb.mesh
        nv = u_loc.shape[-1]
        S = self.model.sign_jac_normal(u_loc, tb.DOF_NORMAL, tb.XY_PT)
        eps = 0.5 * mesh.areas
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
            bad_pt[ok] = ~np.isfinite(cond) | (cond > COND_CAP)
        omega = np.take(inv, mesh.tri_point_dofs, axis=0) @ Seps
        norms = np.linalg.norm(omega, axis=(2, 3))
        big = ~np.isfinite(norms) | (norms > OMEGA_CAP)
        bad_pt |= tb.point_sums(big.astype(float)) > 0.0
        fb = bad_pt[mesh.tri_point_dofs]  # (NT, 6)
        if fb.any():
            unit = np.eye(nv) / tb.point_count[mesh.tri_point_dofs][
                ..., None, None
            ]
            omega = np.where(fb[..., None, None], unit, omega)
        result = (omega, int(bad_pt.sum()))
        if self.model.static_signs:
            omega.flags.writeable = False
            self._static_omega = result
        return result

    # -- full residual ----------------------------------------------------------

    def compute(self, coef, upt, t) -> HOResult:
        """High-order residuals from the element coefficients coef
        (NT, 7, nv) and the point values upt they were gathered from."""
        tb = self.t
        mesh = tb.mesh
        nt, _, nv = coef.shape

        # Volume term: VOL_OP against the flux (k, q, (v, d)), then the
        # contraction of (a, d) with -grad(lambda_a).
        uq = tb.PHI_V @ coef  # (NT, nqv, nv)
        uq, resc_vol = self._rescue_states(uq, coef[:, 6], count_axis=1)
        xy = tb.element_points(tb.BARY_V)  # (NT, nqv, 2)
        fq = self.model.flux(uq, xy)  # (NT, nqv, nv, 2)
        T = (tb.VOL_OP @ fq.reshape(nt, fq.shape[1], 2 * nv)).reshape(
            nt, 2, 7, nv, 2
        )
        G = mesh.grad_lambda[:, :, :, None, None]  # (NT, 3, 2, 1, 1)
        Phi = -(G[:, 0, 0] * T[:, 0, :, :, 0])
        Phi -= G[:, 0, 1] * T[:, 0, :, :, 1]
        Phi -= G[:, 1, 0] * T[:, 1, :, :, 0]
        Phi -= G[:, 1, 1] * T[:, 1, :, :, 1]

        # Surface term: single-valued edge fluxes in each element's own
        # traversal direction, times signed edge length over |K|.
        fluxhat, trace, resc_tr = self.interface_fluxes(upt, t)
        nqe = tb.nqe
        q = np.arange(nqe)
        orient = mesh.tri_edge_orient[..., None]
        rows = mesh.tri_edges[..., None] * nqe + np.where(orient > 0, q, nqe - 1 - q)
        fh = np.take(fluxhat.reshape(-1, nv), rows, axis=0)  # (NT, 3, nqe, nv)
        fh *= (
            mesh.tri_edge_orient
            * mesh.edge_length[mesh.tri_edges]
            / mesh.areas[:, None]
        )[..., None, None]
        Phi += tb.SURF_OP @ fh.reshape(nt, 3 * nqe, nv)

        omega, fb = self.omega_weights(coef[:, :6])
        Wpt = (omega @ Phi[:, :6, :, None])[..., 0]

        F_edge = np.einsum(
            "q,eqv->ev", tb.wq_edge, fluxhat
        ) * mesh.edge_length[:, None]

        return HOResult(Wpt, F_edge, trace, Phi, fb, resc_vol, resc_tr)
