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

    omega_{K,sigma} = (sum_K' N_K')^-1 N_K,   N_K = (I + sign(A_n)) / 2 + eps_K I

with n the inward unit normal of the opposite edge (vertex DoFs) or the
outward unit normal of the containing edge (midpoint DoFs).  The two
elements K, L of an interior edge see its midpoint through opposite
normals, and sign(A_{-n}) = -sign(A_n): negating n negates the
eigenvalues of A_n and keeps its eigenvectors, and every model forms the
sign so that this holds bit for bit.  The patch sum there is therefore
(1 + eps_K + eps_L) I, and the weights take the closed form
N_K / (1 + eps_K + eps_L); a boundary midpoint has one element, and its
weight is I.  Only the vertex patch sums are inverted.  Whenever a vertex
patch sum is near singular, or a point's weights are not finite or are
large, all weights of that point fall back to the arithmetic 1/N -- the
partition-of-unity property sum_K omega_{K,sigma} = I holds in either
branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .basis import basis_grad_bary, basis_hess_bary
from .basis import basis_values, projection_matrix
from .mesh import Mesh
from .models import component_major, diagonal_view, nv_first, nv_last, positions
from .quadrature import edge_rule, triangle_rule

# Exactness degree of the volume rule and Gauss points per edge.
VOL_DEGREE = 6
EDGE_POINTS = 3
# Upwind weights fall back to 1/N at a point whose weights exceed OMEGA_CAP
# in Frobenius norm or whose patch sum has a condition number above COND_CAP.
OMEGA_CAP = 4.0
COND_CAP = 1e8

# The element-local work of a substep (the volume term of
# `HighOrder.moment_residuals`, the vertex signs of `omega_weights` and the
# LO fan) runs over blocks of BLOCK_BYTES / (nv ELEM_BYTES) elements, see
# `element_blocks`.  ELEM_BYTES is about what the volume term's temporaries
# take per element and variable, so a block's working set stays near
# BLOCK_BYTES whatever nv: `double-mach` at n=24 (4.6k elements, nv = 4)
# runs in two blocks, a scalar case up to 9k elements in one, and the
# 25k-element scalar `gauss` benchmark in three (its steps measured no
# slower than in one block).
BLOCK_BYTES = 5_500_000
ELEM_BYTES = 600
# OpenBLAS computes a GEMM of at most SMALL_GEMM multiply-adds in its
# single-threaded small-matrix kernel and a larger one threaded.  On a
# 2-core host with two BLAS threads the larger call took 1-6 ms where the
# product itself takes 0.2 ms (a (6, 32) by (32, 6962) product between
# other numpy work), so `block_matmul` keeps the element kernels' calls
# below it.
SMALL_GEMM = 1_000_000

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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _inverse(A: np.ndarray):
    """Inverses of the finite matrices A (M, nv, nv), nv = 1 or 4.

    Returns (X, nonsingular): nonsingular (M,) flags the matrices whose
    determinant is not zero, and X (M, nv, nv), component-major, holds
    their inverses (zero for the others), built in closed form, then
    refined.  For nv = 1 it is 1 / a.  For nv = 4 the determinant and the
    adjugate come from the six 2x2 minors s of rows 0-1 and the six c of
    rows 2-3 (Laplace expansion), each one vector operation over all M on
    the (16, M) entry rows, a view when A is component-major.  Two Newton
    steps X <- X + X (I - A X) then square the residual of the inverse, so
    that sum_K omega stays at identity to round-off even for moderately
    ill-conditioned sums.
    """
    m, nv = A.shape[0], A.shape[-1]
    X = np.moveaxis(np.zeros((nv, nv, m)), 2, 0)
    if nv == 1:
        nonsingular = A[:, 0, 0] != 0.0
        X[nonsingular] = 1.0 / A[nonsingular]
    elif nv == 4:
        (a00, a01, a02, a03, a10, a11, a12, a13,
         a20, a21, a22, a23, a30, a31, a32, a33) = A.reshape(m, 16).T
        s0 = a00 * a11 - a10 * a01
        s1 = a00 * a12 - a10 * a02
        s2 = a00 * a13 - a10 * a03
        s3 = a01 * a12 - a11 * a02
        s4 = a01 * a13 - a11 * a03
        s5 = a02 * a13 - a12 * a03
        c0 = a20 * a31 - a30 * a21
        c1 = a20 * a32 - a30 * a22
        c2 = a20 * a33 - a30 * a23
        c3 = a21 * a32 - a31 * a22
        c4 = a21 * a33 - a31 * a23
        c5 = a22 * a33 - a32 * a23
        det = s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0
        # The adjugate, row-major, in the (16, M) entry rows of X.
        rows = X.reshape(m, 16).T
        rows[0] = a11 * c5 - a12 * c4 + a13 * c3
        rows[1] = a02 * c4 - a01 * c5 - a03 * c3
        rows[2] = a31 * s5 - a32 * s4 + a33 * s3
        rows[3] = a22 * s4 - a21 * s5 - a23 * s3
        rows[4] = a12 * c2 - a10 * c5 - a13 * c1
        rows[5] = a00 * c5 - a02 * c2 + a03 * c1
        rows[6] = a32 * s2 - a30 * s5 - a33 * s1
        rows[7] = a20 * s5 - a22 * s2 + a23 * s1
        rows[8] = a10 * c4 - a11 * c2 + a13 * c0
        rows[9] = a01 * c2 - a00 * c4 - a03 * c0
        rows[10] = a30 * s4 - a31 * s2 + a33 * s0
        rows[11] = a21 * s2 - a20 * s4 - a23 * s0
        rows[12] = a11 * c1 - a10 * c3 - a12 * c0
        rows[13] = a00 * c3 - a01 * c1 + a02 * c0
        rows[14] = a31 * s1 - a30 * s3 - a32 * s0
        rows[15] = a20 * s3 - a21 * s1 + a22 * s0
        nonsingular = det != 0.0
        np.divide(rows, det, out=rows, where=nonsingular)
        rows[:, ~nonsingular] = 0.0
    else:
        raise ValueError(f"closed-form inverse needs nv = 1 or 4, not {nv}")
    for _ in range(2):
        R = A @ X
        np.negative(R, out=R)
        diag = diagonal_view(R)
        diag += 1.0  # R = I - A X
        X += X @ R
    return X, nonsingular


def element_blocks(nt: int, nv: int) -> list:
    """Slices of the NT elements, each of BLOCK_BYTES / (nv ELEM_BYTES)
    elements rounded down to a multiple of 8 (the last one shorter).  The
    blocked kernels are element-local, so every block gives the bits that
    one call over all elements would; their GEMMs go through
    `block_matmul` for that."""
    size = max(8, BLOCK_BYTES // (nv * ELEM_BYTES) // 8 * 8)
    return [slice(s, min(s + size, nt)) for s in range(0, nt, size)]


def block_matmul(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A @ X for X (..., k, N), in calls over column chunks of a multiple
    of 8 columns, each of at most SMALL_GEMM multiply-adds.

    Every call then takes OpenBLAS's small-matrix kernel, and the bits of
    each column do not depend on where the chunks, or the element blocks
    (`element_blocks`), cut the columns, as long as each cut is a
    multiple of 8: a BLAS computes the last columns of a call (N mod 8)
    in its tail kernel, and the small kernel's tail differs from the
    large kernel's in the last bit."""
    m, k = A.shape[-2:]
    step = max(8, SMALL_GEMM // (m * k) // 8 * 8)
    n = X.shape[-1]
    if n <= step:
        return A @ X
    out = np.empty(np.broadcast_shapes(A.shape[:-2], X.shape[:-2]) + (m, n))
    for s in range(0, n, step):
        np.matmul(A, X[..., s : s + step], out=out[..., s : s + step])
    return out


def _dof_normals(mesh: Mesh) -> np.ndarray:
    """Unit normals of the upwind weights at the vertex DoFs, (3, NT, 2)
    component-major: the inward normals grad(lambda) / |grad(lambda)|
    opposite each vertex.  The midpoint DoFs use `mesh.edge_normal`."""
    gl = mesh.grad_lambda.T  # (2, 3, NT)
    n = np.empty(gl.shape)
    np.divide(gl, np.sqrt(gl[0] * gl[0] + gl[1] * gl[1]), out=n)
    return nv_last(n)


def _frobenius(M):
    """Frobenius norms of the component-major matrices M (k, k, ...): (...)."""
    return np.sqrt(sum(m * m for row in M for m in row))


class Tables:
    """Static geometry/basis tables shared by the spatial operators.

    Every element is affine, so element terms are reference-element tables
    applied at call time to normal fluxes along `mesh.grad_lambda` (the
    barycentric gradients), or contracted with them, with `mesh.areas`
    and the signed edge lengths, and
    reference points map to each element and edge through `element_points`
    and `edge_points`.  Only connectivity, damping lengths and the maps
    below are stored per edge, and no array has an element axis.  Per
    interior edge the damping keeps the edge ids (`interior_edges`) and,
    per side, the damping length (`EDGE_DIST`).  The per-edge maps that
    the damping's jump kernel (`jump_index`, `jump_normal_grad`) and the average-flux
    blend (`side_elems`, `side_signs`, `side_counted`) read at every
    substep are built on first use and kept read-only: a `ho` run builds
    none of them.  On `rotating-shapes` at n=59 they hold 149 B per
    element, the rest of the tables 30 B.

    Layout: element arrays are indexed (k, NT, ncomp), local axis first,
    element axis next, components last, and those with components are
    stored component-major with the element axis innermost: the positions
    and coefficients are nv-last views (`models.nv_last`) of C-contiguous
    (ncomp, k, NT) blocks, so each component is one contiguous block over
    (k, NT).  The models take these views as they are (see `models`), and
    `models.nv_first` gives a kernel the block back.  Any other strides are
    accepted, at the cost of strided loops or a copy.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        P = projection_matrix()

        # -- volume quadrature ------------------------------------------------
        vr = triangle_rule(VOL_DEGREE)
        self.wq_vol = vr.weights
        self.PHI_V = basis_values(vr.points)  # (nqv, 7)
        self.BARY_V = vr.points  # (nqv, 3)
        # With lambda_2 = 1 - lambda_0 - lambda_1, grad(phi_j) is
        # sum_a (d phi_j / d lambda_a - d phi_j / d lambda_2) grad(lambda_a)
        # over a = 0, 1: -grad(phi_j) . f(u) sums the normal fluxes along
        # n_a = -grad(lambda_a).  VOL_OP[j, (a, q)], P times the weighted
        # reduced derivatives w_q (...), maps them to P F_vol / |K|, rows
        # j < 6 only: the average row is the edge flux balance.
        dphi = basis_grad_bary(vr.points)  # (nqv, 7, 3)
        dred = dphi[:, :, :2] - dphi[:, :, 2:]  # (nqv, 7, 2)
        vol = np.einsum("jk,q,qka->jaq", P[:6], self.wq_vol, dred)
        self.VOL_OP = np.ascontiguousarray(vol.reshape(6, -1))

        # -- edge quadrature and trace tables ---------------------------------
        er = edge_rule(EDGE_POINTS)
        self.wq_edge = er.weights
        self.tq_edge = t = er.points  # positions along the edge, in [0, 1]
        self.nqe = len(t)
        # 1D P2 shapes in the stored edge direction for (a, b, midpoint).
        self.N1D = np.stack(
            [(1 - t) * (1 - 2 * t), t * (2 * t - 1), 4 * t * (1 - t)], axis=1
        )  # (nqe, 3)

        # The rule is symmetric, so an element traversing an edge against
        # its stored direction meets the quadrature points in reverse order.
        # SURF_OP[j, (l, q)] = w_q (P PHI_E)[j], j < 6, at point q of local
        # edge l in the element's own direction (tau = t), maps the edge
        # fluxes times signed edge length over |K| to P F_surf / |K|.
        PHI_E = np.array([basis_values(_edge_bary(l, t)) for l in range(3)])
        surf = np.einsum("jk,q,lqk->jlq", P[:6], self.wq_edge, PHI_E)
        self.SURF_OP = np.ascontiguousarray(surf.reshape(6, -1))

        # Reduced barycentric derivatives on local edge 0 for each edge side
        # s, traversing it along (tau = t) or against (tau = 1 - t) its stored
        # direction: rows (d/d lambda_0, d/d lambda_1, d2/d lambda_0^2,
        # d2/d lambda_0 d lambda_1, d2/d lambda_1^2) per quadrature point,
        # with lambda_2 eliminated as above.
        lam = [_edge_bary(0, tau) for tau in (t, 1 - t)]
        DPHI_E = np.array([basis_grad_bary(x) for x in lam])  # (2, nqe, 7, 3)
        H = np.array([basis_hess_bary(x) for x in lam])  # (2, nqe, 7, 3, 3)
        d1 = DPHI_E[..., :2] - DPHI_E[..., 2:]  # (2, nqe, 7, 2)
        h = H[..., :2, :2] - H[..., :2, 2:] - H[..., 2:, :2] + H[..., 2:, 2:]
        comps = [d1[..., 0], d1[..., 1], h[..., 0, 0], h[..., 0, 1], h[..., 1, 1]]
        self.EDGE_DERIV_OP = np.ascontiguousarray(
            np.stack(comps, axis=1).reshape(2, 5 * self.nqe, 7)
        )
        # EDGE_DT[q, p]: the derivative at t_q of the Lagrange polynomial
        # of the points t that is 1 at t_p (rows k t_q^(k-1) over t_q^k).
        V = np.vander(t, increasing=True)
        dV = np.c_[np.zeros(self.nqe), V[:, :-1] * np.arange(1, self.nqe)]
        self.EDGE_DT = dV @ np.linalg.inv(V)

        # Damping, per interior edge: the edge ids and the length
        # sup_{x in K} dist(x, e) of its side-s element, (2, E).  The
        # distance function to a segment is convex, so the sup sits at the
        # vertex opposite the edge.
        ei = np.flatnonzero(mesh.edge_tris[:, 1] >= 0).astype(np.int32)
        self.interior_edges = ei
        tris = mesh.edge_tris[ei]
        local = _local_edges(mesh, tris, ei)
        a = mesh.verts[mesh.edge_verts[ei, 0]]
        ab = mesh.verts[mesh.edge_verts[ei, 1]] - a
        denom = np.einsum("ed,ed->e", ab, ab)
        self.EDGE_DIST = np.empty((2, len(ei)))
        for s in range(2):
            opp = mesh.verts[mesh.tris[tris[:, s], (local[:, s] + 2) % 3]]
            tpar = np.clip(np.einsum("ed,ed->e", opp - a, ab) / denom, 0.0, 1.0)
            self.EDGE_DIST[s] = np.linalg.norm(opp - (a + tpar[:, None] * ab), axis=1)

        # Element-DoF -> point scatter operator: row p has a unit entry in
        # column j NT + k for each (k, j) where DoF j of element k is point
        # p.  The entries of a row are stored in ascending order of 6 k + j,
        # element by element as np.add.at meets them on (NT, 6) arrays, and
        # its products add in stored order: the sums are bitwise those of
        # np.add.at over the element-major values.  Built from int32 indices,
        # its index arrays are int32, as the mesh's are.
        nt, npt = mesh.num_tris, mesh.num_points
        ndof = 6 * nt
        point = mesh.gather_points(np.arange(npt, dtype=np.int32)).T.ravel()
        by_elem = sparse.csr_array(
            (np.ones(ndof), (point, np.arange(ndof, dtype=np.int32))), shape=(npt, ndof)
        )
        data, cols, indptr = by_elem.data, by_elem.indices, by_elem.indptr
        cols = cols % 6 * nt + cols // 6
        self.point_scatter = sparse.csr_array((data, cols, indptr), shape=(npt, ndof))
        # The vertex rows come first and read only the vertex DoFs, the
        # first 3 NT columns: their operator is a view of the same arrays.
        nvert = len(mesh.verts)
        self.vertex_scatter = sparse.csr_array(
            (data, cols, indptr[: nvert + 1]), shape=(nvert, 3 * nt)
        )

    # -- per-edge maps, built on first use ---------------------------------------

    @cached_property
    def jump_index(self) -> np.ndarray:
        """Gather index of `edge_side_gradients`, (2, 7, E) int32 over
        `interior_edges`: entry [s, j, i] is ROTATE[l, j] NT + k, with k
        the side-s element of edge i and l the edge's local index in k.  It
        picks coefficient j of k, relabelled so that the edge is its local
        edge 0, from the (nv, 7 NT) coefficient rows; its rows j = 0, 1
        index the (2, 3 NT) rows of grad(lambda) alike."""
        mesh = self.mesh
        ei = self.interior_edges
        tris = mesh.edge_tris[ei]  # (E, 2)
        local = _local_edges(mesh, tris, ei)
        idx = ROTATE[local.T].transpose(0, 2, 1) * mesh.num_tris
        idx += tris.T[:, None, :]
        return _read_only(idx.astype(np.int32))

    @cached_property
    def jump_normal_grad(self) -> np.ndarray:
        """n . grad(lambda_a) of the relabelled vertices a = 0, 1 of each
        side's element (`jump_index`), (2, 2, E) indexed by side, a and
        interior edge, with n the edge's unit normal out of side 0."""
        mesh = self.mesh
        gl = np.ascontiguousarray(mesh.grad_lambda.T).reshape(2, -1)  # (2, 3 NT)
        nx, ny = np.take(mesh.edge_normal, self.interior_edges, axis=0).T
        gx, gy = np.take(gl, self.jump_index[:, :2], axis=1)
        nd = nx * gx
        nd += ny * gy
        return _read_only(nd)

    @cached_property
    def side_elems(self) -> np.ndarray:
        """The element of each edge side, (2, NE) int32: `mesh.edge_tris`
        with side 1 of a boundary edge repeating side 0."""
        k = self.mesh.edge_tris.T
        return _read_only(np.where(k[1] >= 0, k, k[0]).astype(np.int32))

    @cached_property
    def side_signs(self) -> np.ndarray:
        """Sign of each side's candidate in `blend_average_fluxes`, (2, NE)
        int8: +1 on side 0, -1 on side 1, +1 on both sides of a boundary
        edge."""
        interior = self.mesh.edge_tris[:, 1] >= 0
        return _read_only(np.where(interior, [[1], [-1]], 1).astype(np.int8))

    @cached_property
    def side_counted(self) -> np.ndarray:
        """The edge sides that are the edge's own, (2, NE) bool: all but
        side 1 of a boundary edge, which repeats side 0 (`side_elems`)."""
        return _read_only(self.side_elems == self.mesh.edge_tris.T)

    # -- geometry and state helpers --------------------------------------------

    def element_points(self, bary: np.ndarray, elems=slice(None)) -> np.ndarray:
        """Positions of the reference points bary (n, 3), given by their
        barycentric coordinates, in the elements `elems` (indices or a
        slice; all by default): (n, E, 2)."""
        corners = np.take(self.mesh.verts.T, self.mesh.tris[elems].T, axis=1)
        return nv_last(bary @ corners)

    def edge_points(self, edges) -> np.ndarray:
        """Positions of the quadrature points of `edges` (indices or a
        slice), a + t (b - a) from each edge's stored start a to its end
        b: (E, nqe, 2), component-major."""
        ends = np.take(self.mesh.verts.T, self.mesh.edge_verts[edges].T, axis=1)
        a, d = ends[:, 0], ends[:, 1] - ends[:, 0]  # (2, E): x, y
        xy = np.empty(a.shape + (self.nqe,))
        # One pass per point: a broadcast over the short last axis is slow.
        for q, t in enumerate(self.tq_edge):
            np.add(a, t * d, out=xy[..., q])
        return nv_last(xy)

    def edge_traces(self, upt: np.ndarray):
        """Traces of u_h at the edge quadrature points, N1D applied to each
        edge's point values (start, end, midpoint): (NE, nqe, nv), with the
        mean of those three values, (NE, nv).

        The bits are those of the batched product N1D @ (NE, 3, nv), which
        numpy takes as one small BLAS call per edge, a gemv for nv = 1 and
        a gemm otherwise; here each is one call of the same kind over all
        edges.  For nv = 1, one gemv per row of N1D against the (NE, 3)
        values; for nv > 1, one gemm against their k-major (3, NE nv)
        gather.  Crossing the two (one gemm for nv = 1, or a gemv per row
        for nv = 4) changes the last bit of some traces.
        """
        mesh = self.mesh
        ne, nv = mesh.num_edges, upt.shape[-1]
        mid = upt[len(mesh.verts):]
        trace = np.empty((ne, self.nqe, nv))
        if nv == 1:
            vals = np.empty((ne, 3))
            vals[:, :2] = np.take(upt[:, 0], mesh.edge_verts)
            vals[:, 2] = mid[:, 0]
            for q, row in enumerate(self.N1D):
                trace[:, q, 0] = vals @ row
            vals = vals.T[..., None]  # (3, NE, 1)
        else:
            vals = np.empty((3, ne, nv))
            np.take(upt, mesh.edge_verts.T, axis=0, out=vals[:2])
            vals[2] = mid
            prod = self.N1D @ vals.reshape(3, -1)  # (nqe, NE nv)
            trace.swapaxes(0, 1)[...] = prod.reshape(self.nqe, ne, nv)
        return trace, (vals[0] + vals[1] + vals[2]) / 3.0

    def surface_rows(self, fluxhat: np.ndarray) -> np.ndarray:
        """The edge fluxes fluxhat (NE, nqe, nv) as each element sees them,
        in its own traversal direction and times its signed edge length
        over |K|: the rows (l, q) of SURF_OP, (nv, 3 nqe, NT).

        An element edge that runs against the edge's stored direction
        (side 1) meets the quadrature points in reverse order, and its
        signed length is -|e|.  Per point q, the fluxes at q and, negated,
        at nqe - 1 - q are the (nv, 2 NE) rows of both directions: side s
        of edge e reads entry e + NE s, one gather through `mesh.tri_edges`
        into a (nv, 3, NT) block, scaled by |e| / |K| on its way into the
        rows.  Negating the flux or the length gives the same bits."""
        mesh = self.mesh
        ne, nqe, nv = fluxhat.shape
        src = nv_first(fluxhat)  # (nv, NE, nqe)
        rows = np.array(mesh.tri_edges.T, dtype=np.intp, order="C")  # (3, NT)
        scale = np.take(mesh.edge_length, rows)
        scale /= mesh.areas
        rows += ne * (mesh.tri_edge_orient.T < 0)
        fh = np.empty((nv, 3, nqe, mesh.num_tris))
        both = np.empty((nv, 2, ne))
        for q in range(nqe):
            both[:, 0] = src[:, :, q]
            np.negative(src[:, :, nqe - 1 - q], out=both[:, 1])
            g = np.take(both.reshape(nv, 2 * ne), rows, axis=1, mode="wrap")
            np.multiply(g, scale, out=fh[:, :, q])
        return fh.reshape(nv, 3 * nqe, -1)

    def coefficients(self, ubar: np.ndarray, upt: np.ndarray) -> np.ndarray:
        """Local coefficient vectors (7, NT, nvars): the point values of
        each element, then its average."""
        nt, nv = ubar.shape
        coef = np.empty((nv, 7, nt), dtype=ubar.dtype)
        self.mesh.gather_points(upt, out=coef[:, :6])
        coef[:, 6] = ubar.T
        return nv_last(coef)

    def point_sums(self, x: np.ndarray) -> np.ndarray:
        """Sum element point-DoF values (6, NT, ...) per point: (NP, ...).
        The vertex-DoF values alone, (3, NT, ...), give the sums at the
        vertices, (NV, ...).  The sums are taken one C-contiguous (6, NT)
        block at a time and keep the component-major layout: such x, the
        layout of the element kernels, is read without a copy, and any
        other block is copied alone."""
        op = self.point_scatter if len(x) == 6 else self.vertex_scatter
        blocks = np.moveaxis(x, (0, 1), (-2, -1))  # (..., 6 | 3, NT)
        out = np.empty(blocks.shape[:-2] + op.shape[:1])
        for c in np.ndindex(blocks.shape[:-2]):
            out[c] = op @ blocks[c].reshape(-1)
        return np.moveaxis(out, -1, 0)

    def edge_side_gradients(self, coef: np.ndarray) -> np.ndarray:
        """Jumps of the normal derivatives of u_h across the interior
        edges, in each edge's (n, t) frame.

        Returns (3, nv, nqe, E) over `interior_edges`: the derivatives
        (d_n, d_nn, d_nt) along the unit normal n (out of side 0) and the
        tangent t = (-n_y, n_x), side 0 minus side 1, indexed by
        derivative, variable, quadrature point and edge; side s is element
        edge_tris[e, s].  The jumps of d_t and d_tt vanish and are not
        formed: on an edge, u_h depends only on the edge's three point
        DoFs, which both sides share.  Each side's element is relabelled
        (ROTATE) so that the edge is its local edge 0, which makes
        EDGE_DERIV_OP[s] one table for all edges (the gather `jump_index`),
        and its reduced barycentric derivatives are contracted with
        n . grad(lambda_a) of the relabelled vertices a = 0, 1
        (`jump_normal_grad`).  t points from the edge's stored
        start to its end, and [d_n] is quadratic along the edge (P2 plus
        the bubble, whose gradient there is l_a l_b grad(l_c)), so [d_nt]
        is the derivative of [d_n] on the quadrature points (EDGE_DT) over
        |e|.
        """
        mesh = self.mesh
        nv = coef.shape[-1]
        edges = self.interior_edges
        ne = len(edges)
        jump = np.zeros((3, nv, self.nqe, ne))
        flat = nv_first(coef).reshape(nv, -1)
        buf = np.empty((self.nqe, ne))
        # One edge side, and within it one variable, at a time: the
        # gathered coefficients (7, E) and derivative rows (5 nqe, E) of
        # one are freed before the next ones are formed.
        for s, sign in ((0, 1.0), (1, -1.0)):
            n0, n1 = self.jump_normal_grad[s]
            # Signed coefficients of the reduced derivatives r[j] per row.
            rows = (
                ((0, sign * n0), (1, sign * n1)),
                ((2, sign * n0 * n0), (3, sign * 2.0 * n0 * n1), (4, sign * n1 * n1)),
            )
            for v in range(nv):
                r = np.take(flat[v], self.jump_index[s])  # (7, E)
                r = block_matmul(self.EDGE_DERIV_OP[s], r).reshape(5, self.nqe, ne)
                for out, terms in zip(jump[:2, v], rows):
                    for j, w in terms:
                        out += np.multiply(w, r[j], out=buf)
                del r
        np.matmul(self.EDGE_DT, jump[0], out=jump[2])
        jump[2] /= np.take(mesh.edge_length, edges)
        return jump


class StaticSpeeds:
    """What the speeds of a model with `static_signs` (a flux u a(x) in a
    time-independent field) decide, the same at every substep, kept for
    the run: speeds, upwind weights and the linear maps they make of the
    LO residuals.  An operator asks `get(name, build)`: for such a model
    the first call builds the value with the operator's own code and
    keeps it, read-only; for any other model every call builds afresh and
    nothing is kept.  A name is a string, or a string with an element
    block's bounds.  Each operator and the stepper keep their own record,
    and their docstrings say what it holds: 3.96 MB in all on
    `rotating-shapes` at n=59 (`HighOrder` 2.37, `LowOrder` 1.51,
    `Stepper` 0.08)."""

    def __init__(self, model):
        self.keeps = bool(model.static_signs)
        self.kept = {}  # name -> value, read-only

    def get(self, name, build):
        """The value kept under `name`, built by `build()` on first use;
        built afresh on every call when nothing is kept."""
        if not self.keeps:
            return build()
        if name not in self.kept:
            value = build()
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    _read_only(a)
            self.kept[name] = value
        return self.kept[name]


@dataclass
class HOResult:
    Wpt: np.ndarray  # (6, NT, nv) upwind-weighted point residuals
    F_edge: np.ndarray  # (NE, nv) integrated edge fluxes (with |e|)
    trace_u: np.ndarray  # (NE, nqe, nv) traces used for the fluxes
    omega_fallback_points: int
    rescued_volume_elems: int
    rescued_trace_edges: int


class HighOrder:
    """The high-order residuals, whose volume and edge terms take the flux
    as normal fluxes (`_normal_flux`); the handler `bc` gives the flux of
    every boundary edge.  For a model with `static_signs` its record
    `speeds` (`StaticSpeeds`) keeps, on `rotating-shapes` at n=59 (6,962
    elements, 10,561 edges), the normal flux of the unit state: a . n at
    the edge quadrature points, 0.25 MB ("edge"), and a . n_a at the volume
    points, 1.78 MB (("volume", start, stop) per element block; one per
    element for a constant field, 0.40 MB on `advect-gauss`); and the
    upwind weights, 0.33 MB ("omega")."""

    def __init__(self, tables: Tables, model, bc, enforce_domain=None):
        self.t = tables
        self.model = model
        self.bc = bc
        # Domain toward which `_rescue_states` pulls inadmissible volume
        # quadrature states and edge traces before the flux sees them, so
        # that gas dynamics stays finite on overshoots.  The stepper passes
        # its enforced domain in every limited mode, scalar models included,
        # so the rescue also shapes the high-order residual there.
        self.enforce_domain = enforce_domain
        self.speeds = StaticSpeeds(model)

    # -- pieces ---------------------------------------------------------------

    def _rescue_states(self, u, ref):
        """Pull inadmissible quadrature states toward an admissible reference.

        u: (G, nq, nv) states in groups, ref: (G, nv).  Only the groups that
        hold an inadmissible state are blended: each is scaled toward its
        reference r by a single factor s = min over its quadrature points of
        the admissible blend, mirroring the classic quadrature-limiting
        trick.  The domain gives s (`max_group_blend`); an interval reads
        it off the group's largest and smallest state in closed form, as
        rounding is monotone in fl(u_q - r) and in the division by it.
        Returns the states (a new array when a group was rescued) and the
        number of rescued groups.
        """
        dom = self.enforce_domain
        if dom is None:
            return u, 0
        # Reduced and blended with the group axis innermost: over the short
        # q axis of C-order groups, numpy loops per group.
        ok = np.logical_and.reduce(np.ascontiguousarray(dom.contains(u).T))
        if ok.all():
            return u, 0
        bad = np.flatnonzero(~ok)
        s = dom.max_group_blend(u, ref, bad)
        r = np.take(ref, bad, axis=0).T[:, None, :]
        u = u.copy(order="K")
        ut = u.T  # (nv, nq, G)
        # Gathered from the C-ordered one of u, u.T (not a strided view).
        c = u.flags.c_contiguous
        got = np.take(u, bad, axis=0).T if c else np.take(ut, bad, axis=-1)
        ut[..., bad] = r + s * (got - r)
        return u, len(bad)

    def _normal_flux(self, name, u, n, points):
        """f(u) . n at the positions `points()`.  A static flux is (a . n) u:
        its unit-state value is kept under `name` (`StaticSpeeds`) and
        multiplied by u, and `points` is called once.  Others: `flux_normal`,
        with positions only for a model that reads them (`positions`)."""
        model = self.model
        if not model.static_signs:
            return model.flux_normal(u, n, positions(model, points))
        unit = self.speeds.get(
            name, lambda: model.flux_normal(np.ones((1,) * u.ndim), n, points())
        )
        return u * unit

    def interface_fluxes(self, upt, t):
        """Single-valued edge fluxes: (fluxhat (NE, nqe, nv), trace, rescued).

        A static flux ("edge") forms, after its first call, the positions
        of the edge quadrature points of the boundary edges only."""
        tb = self.t
        mesh = tb.mesh
        # Edge-local rescue reference: the mean of the three edge DoFs (all
        # admissible), keeping the trace single-valued between the two sides.
        trace, ref = tb.edge_traces(upt)
        trace, rescued = self._rescue_states(trace, ref)
        # Per-point normals: a constant field's kept flux multiplies in one flat
        # loop, not one loop per edge.
        n = np.broadcast_to(mesh.edge_normal[:, None, :], trace.shape[:-1] + (2,))
        fluxhat = self._normal_flux(
            "edge", trace, n, lambda: tb.edge_points(slice(None))
        )
        # Gathered along the edge axis, each array keeps its layout.
        be = mesh.boundary_edges
        fluxhat[be] = self.bc.ho_flux(
            np.take(trace, be, axis=0),
            np.take(mesh.edge_normal, be, axis=0),
            tb.edge_points(be),
            t,
        )
        return fluxhat, trace, rescued

    def omega_weights(self, u_loc):
        """Upwind weights (6, NT, nv, nv), stored component-major
        (nv, nv, 6, NT), plus the fallback-point count.

        u_loc (6, NT, nv) holds each element's point-DoF states.

        Each incident element contributes the candidate weight

            N_K = (Id + sign(J(u_sigma) . n_sigma^K)) / 2 + eps_K Id,

        with eps_K = |K| / 2: the upwind projector (eigenvalue 1 on
        characteristics entering through the element's normal, 0 on those
        leaving, 1/2 on parallel ones) plus the regularization.  The final
        weights normalize the patch sum: omega_K = (sum_K' N_K')^{-1} N_K.
        The projector form keeps the construction usable as eps_K -> 0
        under refinement, and it reproduces the classic one-dimensional
        upwind point update across an edge: weight Id on the upwind side
        and 0 on the downwind side for supersonic crossings.

        Edge midpoints take the closed form (see the module docstring):
        with S_e the sign matrix along `mesh.edge_normal`, which points out
        of side 0 (K) into side 1 (L),

            omega_K = ((Id + S_e) / 2 + eps_K Id) / (1 + eps_K + eps_L),
            omega_L = ((Id - S_e) / 2 + eps_L Id) / (1 + eps_K + eps_L),

        and a boundary midpoint's weight is Id.  Only the vertex patch sums
        go through `Tables.point_sums` and are inverted, in closed form and
        refined by two Newton steps (`_inverse`, no LAPACK call).

        All weights of a point fall back to Id / N when one of them is not
        finite (a non-finite sign) or exceeds OMEGA_CAP in Frobenius norm,
        and at a vertex also when the patch sum is not finite, exactly
        singular or has a condition number above COND_CAP.  A boundary
        midpoint with a non-finite sign counts as a fallback; its weight is
        Id either way.

        The sign matrices are taken once on the NE midpoint states, before
        the weights exist, and per local vertex by element blocks
        (`element_blocks`), written straight into the weights'
        component-major blocks: no block of all signs is formed.  The
        weights depend on the state only through the sign
        matrices.  For a model with `static_signs` (linear advection in a
        fixed velocity field) they are built on the first call and the same
        read-only array and count are returned after that (`StaticSpeeds`,
        "omega").
        """
        return self.speeds.get("omega", lambda: self._weights(u_loc))

    def _weights(self, u_loc):
        """The upwind weights and fallback count of `omega_weights`."""
        tb = self.t
        mesh = tb.mesh
        model = self.model
        _, nt, nv = u_loc.shape
        ne = mesh.num_edges
        eye = np.eye(nv)
        eps = 0.5 * mesh.areas
        ucm = nv_first(u_loc)  # (nv, 6, NT)

        # Edge midpoints first, from one sign block along the edge normals
        # taken before the weights exist.  Each edge's state comes from its
        # side-0 element, the one that traverses it forward, at local DoF
        # 3 + l: flat index l NT + k of the (3 NT) midpoint DoFs.
        side1 = mesh.tri_edge_orient.T < 0  # (3, NT)
        mid = np.empty(ne, dtype=np.intp)
        mid[mesh.tri_edges.T[~side1]] = np.flatnonzero(~side1)
        S = model.sign_jac_normal(
            nv_last(np.take(ucm[:, 3:].reshape(nv, -1), mid, axis=1)),
            mesh.edge_normal,
            positions(model, lambda: mesh.edge_mid),
        )
        S = np.broadcast_to(S, (ne, nv, nv))
        del mid
        omega = component_major((6, nt), nv, nv)
        om = omega.transpose(2, 3, 0, 1)  # (nv, nv, 6, NT), C-contiguous
        k = mesh.edge_tris.T  # (2, NE); -1 where there is no side 1
        e_side = np.where(k >= 0, eps[k], 0.0)
        scale = 1.0 + e_side[0] + e_side[1]
        # Element k's midpoint on its local edge l reads side s of that
        # edge: entry side[l, k] = e + NE s of the (2 NE) side weights,
        # C-ordered and in range, so that each gather writes unbuffered.
        edges = mesh.tri_edges.T  # (3, NT)
        side = np.array(edges, dtype=np.intp, order="C")
        side += ne * side1
        # Both sides' weights entry by entry, gathered into the weights'
        # blocks; their squares sum to the Frobenius norms (2, NE) in the
        # order of `_frobenius`.
        w = np.empty((2, ne))
        sq = np.zeros((2, ne))
        for i in range(nv):
            for j in range(nv):
                np.multiply(S[:, i, j], 0.5, out=w[0])
                np.multiply(S[:, i, j], -0.5, out=w[1])
                if i == j:
                    w += 0.5
                    w += e_side
                w /= scale
                np.take(w.reshape(-1), side, out=om[i, j, 3:], mode="wrap")
                sq += w * w
        del S, w, side, e_side, scale
        norms = np.sqrt(sq, out=sq)
        boundary = k[1] < 0
        bad_e = np.where(
            boundary,
            ~np.isfinite(norms[0]),
            (~np.isfinite(norms) | (norms > OMEGA_CAP)).any(axis=0),
        )
        del sq, norms
        om[:, :, 3:][..., bad_e[edges]] = eye[..., None] / 2.0
        om[:, :, 3:][..., boundary[edges]] = eye[..., None]

        # Vertices.  N_K = S / 2 + (1/2 + eps_K) Id, formed in the weights'
        # block of each local vertex from signs taken by element blocks;
        # its sums, their inverses and the weights keep the component-major
        # layout, so no step copies or transposes a block.
        normals = _dof_normals(mesh)  # (3, NT, 2)
        for a in range(3):
            for blk in element_blocks(nt, nv):
                corner = positions(
                    model,
                    lambda: nv_last(np.take(mesh.verts.T, mesh.tris[blk, a], axis=1)),
                )
                S = model.sign_jac_normal(
                    nv_last(ucm[:, a, blk]), normals[a, blk], corner
                )
                np.multiply(S, 0.5, out=omega[a, blk])
                del S, corner
        del normals
        Nv = omega[:3]
        diag = diagonal_view(Nv)
        diag += 0.5
        diag += eps[:, None]
        total = nv_first(nv_first(tb.point_sums(Nv)))  # (nv, nv, NV)
        # Patch sums that are not finite or exactly singular go straight to
        # the fallback.
        ok = np.isfinite(total).all(axis=(0, 1))
        A = total[:, :, ok]
        del total
        X, nonsingular = _inverse(nv_last(nv_last(A)))
        inv = np.zeros((nv, nv, len(ok)))
        inv[:, :, ok] = nv_first(nv_first(X))
        cond = _frobenius(A.swapaxes(0, 1)) * _frobenius(X.T)
        del A, X
        bad_v = ~ok
        bad_v[ok] = ~nonsingular | ~np.isfinite(cond) | (cond > COND_CAP)
        # Local vertex a's N_K times its vertex's inverse, gathered into a
        # component-major block; matmul sums over these strided views as
        # over element-major ones.
        prod = component_major((nt,), nv, nv)
        for a in range(3):
            g = nv_last(nv_last(np.take(inv, mesh.tris[:, a], axis=2)))
            omega[a] = np.matmul(g, omega[a], out=prod)
            del g
        del inv, prod
        norms = _frobenius(om[:, :, :3])  # (3, NT)
        big = ~np.isfinite(norms) | (norms > OMEGA_CAP)
        bad_v |= tb.point_sums(big.astype(float)) > 0.0
        fb = bad_v[mesh.tris.T]  # (3, NT)
        if fb.any():
            count = np.diff(tb.point_scatter.indptr)[mesh.tris.T[fb]]
            omega[:3][fb] = eye / count[:, None, None]

        return omega, int(bad_v.sum() + bad_e.sum())

    # -- full residual ----------------------------------------------------------

    def moment_residuals(self, coef, upt, t):
        """Point rows Phi (6, NT, nv) of the moment residuals of the element
        coefficients coef (7, NT, nv) and the point values upt they were
        gathered from (the average row is the balance of F_edge), with the
        integrated edge fluxes F_edge (NE, nv), the traces of
        `interface_fluxes` and the rescue counts.  The reference operators
        act as GEMMs over the component-major blocks (nv, ..., NT) (see
        `Tables`); the volume term runs by element blocks
        (`element_blocks`), and each large temporary is freed after its
        last read."""
        tb = self.t
        mesh = tb.mesh
        _, nt, nv = coef.shape
        cf = nv_first(coef)  # (nv, 7, NT)

        # Volume term: the normal fluxes along n_a = -grad(lambda_a) stacked
        # as (2, 1, E, 2) against the volume states (1, nqv, E, nv), then one
        # GEMM of VOL_OP per v.  The rescue groups the states by element.
        normals = nv_last(-np.ascontiguousarray(mesh.grad_lambda.T[:, :2, None]))
        Phi = np.empty((nv, 6, nt))
        resc_vol = 0
        for blk in element_blocks(nt, nv):
            uq = block_matmul(tb.PHI_V, cf[:, :, blk]).T  # (E, nqv, nv)
            uq, rescued = self._rescue_states(uq, coef[6, blk])
            resc_vol += rescued
            f = self._normal_flux(
                ("volume", blk.start, blk.stop), uq.swapaxes(0, 1)[None],
                normals[:, :, blk], lambda: tb.element_points(tb.BARY_V, blk),
            )  # (2, nqv, E, nv)
            del uq
            f = nv_first(f).reshape(nv, -1, f.shape[2])  # (nv, (a, q), E)
            Phi[..., blk] = block_matmul(tb.VOL_OP, f)
            del f

        # Surface term: single-valued edge fluxes in each element's own
        # traversal direction, times signed edge length over |K|.
        fluxhat, trace, resc_tr = self.interface_fluxes(upt, t)
        Phi += block_matmul(tb.SURF_OP, tb.surface_rows(fluxhat))

        F_edge = np.einsum(
            "q,eqv->ev", tb.wq_edge, fluxhat
        ) * mesh.edge_length[:, None]
        return nv_last(Phi), F_edge, trace, resc_vol, resc_tr

    def compute(self, coef, upt, t) -> HOResult:
        """High-order residuals from the element coefficients coef
        (7, NT, nv) and the point values upt they were gathered from: the
        upwind-weighted point rows of `moment_residuals`, Wpt (6, NT, nv),
        a view of a component-major block, and its edge fluxes."""
        Phi, F_edge, trace, resc_vol, resc_tr = self.moment_residuals(coef, upt, t)
        # The weights last: then only Phi, F_edge and the traces are alive
        # while they are built, and they are not alive in the volume term.
        omega, fb = self.omega_weights(coef[:6])

        # Upwind-weighted point residuals, entry by entry over (6, NT), the
        # sums one local DoF at a time.
        Phi = nv_first(Phi)
        om = omega.transpose(2, 3, 0, 1)  # (nv, nv, 6, NT)
        Wpt = om[:, 0] * Phi[0]
        for w in range(1, coef.shape[-1]):
            for d in range(6):
                Wpt[:, d] += om[:, w, d] * Phi[w, d]
        return HOResult(nv_last(Wpt), F_edge, trace, fb, resc_vol, resc_tr)
