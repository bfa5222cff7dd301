"""Structural properties of the spatial operators and boundary fluxes."""

import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from triblend import spatial_ho
from triblend.basis import (
    POINT_DOF_BARY,
    basis_grad_bary,
    basis_values,
    projection_matrix,
)
from triblend.boundary import BoundaryHandler, FarField, Outflow, Wall
from triblend.exceptions import ConfigError
from triblend.limiting import GasDomain, IntervalDomain, damping_theta
from triblend.limiting import interior_edge_speeds
from triblend.mesh import triangle_geometry
from triblend.meshgen import rect_mesh
from triblend.models import KPP, Euler, LinearAdvection, diagonal_view, nv_first
from triblend.problems import get_problem, sample_initial
from triblend.spatial_ho import (
    COND_CAP,
    OMEGA_CAP,
    HighOrder,
    Tables,
    _dof_normals,
    _edge_bary,
    _frobenius,
    _inverse,
    block_matmul,
    element_blocks,
)
from triblend.spatial_lo import (
    FAN_CENTROID,
    FAN_GRAD,
    SLOT_SUB,
    SUB_CORNERS,
    LowOrder,
)
from triblend.timeloop import Stepper, initialize

from handlers import all_outflow


def named(mesh, name="out"):
    mesh.name_boundary(lambda mids: [name] * len(mids))
    return mesh


def point_dofs(mesh):
    """(NT, 6) point ids of each element's DoFs, element by element."""
    return np.ascontiguousarray(mesh.gather_points(np.arange(mesh.num_points)).T)


def centroids(mesh):
    return mesh.verts[mesh.tris].mean(axis=1)


def rotation_velocity(xy):
    return np.stack([0.5 - xy[..., 1], xy[..., 0] - 0.5], axis=-1)


@pytest.fixture(scope="module")
def small_mesh():
    return named(rect_mesh((0.0, 1.0, 0.0, 1.0), 5, jitter=0.25, seed=3))


def euler_field(xy):
    """Smooth admissible gas states over the unit square."""
    m = Euler()
    x, y = xy[..., 0], xy[..., 1]
    rho = 1.0 + 0.4 * np.sin(2 * np.pi * x) * np.cos(np.pi * y)
    vx = 0.3 * np.cos(np.pi * x)
    vy = -0.2 + 0.1 * np.sin(np.pi * y)
    p = 1.5 + 0.5 * np.cos(np.pi * x * y)
    return m.conserved(rho, vx, vy, p)


def fan_corners(mesh):
    """Corners (NT, 6, 3, 2) of the median-fan sub-triangles, CCW."""
    xy = np.concatenate(
        [mesh.point_xy[point_dofs(mesh)], centroids(mesh)[:, None]], axis=1
    )  # (NT, 7, 2): point DoFs, then the centroid
    return xy[:, SUB_CORNERS]


def test_sub_triangle_areas(small_mesh):
    # LowOrder takes |S| = |K| / 6 for every sub-triangle of the fan.
    area, _ = triangle_geometry(fan_corners(small_mesh))
    assert np.allclose(area, small_mesh.areas[:, None] / 6.0, rtol=1e-13)


def test_sub_normals_sum_zero(small_mesh):
    # LowOrder takes the edge-scaled inward normals of S as the P1
    # gradients FAN_GRAD grad(lambda) times |K| / 3: each is the opposite
    # edge of S turned inward, and the three close.
    mesh = small_mesh
    sub_g = (FAN_GRAD @ mesh.grad_lambda.T).reshape(-1, 6, 3, 2)
    normals = sub_g * (mesh.areas[:, None, None, None] / 3.0)
    xy = fan_corners(mesh)
    for m in range(3):
        d = xy[:, :, (m + 2) % 3] - xy[:, :, (m + 1) % 3]
        inward = np.stack([-d[..., 1], d[..., 0]], axis=-1)
        assert np.abs(normals[:, :, m] - inward).max() < 1e-14
    assert np.abs(normals.sum(axis=2)).max() < 1e-12


def test_fan_gradients_and_centroids_from_the_affine_map(small_mesh):
    # The fan geometry LowOrder derives from reference tables matches the
    # geometry of the fan's own corners to round-off.
    mesh = small_mesh
    xy = fan_corners(mesh)
    want_g = np.moveaxis(triangle_geometry(xy)[1], (0, 1), (-1, -2))
    got_g = (FAN_GRAD @ mesh.grad_lambda.T).reshape(want_g.shape)
    assert np.abs(got_g - want_g).max() <= 1e-13 * np.abs(want_g).max()
    assert set(np.unique(FAN_GRAD)) <= set(range(-2, 4))
    got_c = Tables(mesh).element_points(FAN_CENTROID)  # (6, NT, 2)
    assert np.abs(got_c.swapaxes(0, 1) - xy.mean(axis=2)).max() < 1e-15


def reference_phi(ho, ubar, upt, t):
    """Phi from per-element mapped tables, as stored before the reference
    operators: DVOL_MAT[k, j, (q, d)] = w_q (grad phi_j)_d and
    W_EDGE_MAT[k, j, (l, q)] = s_{k,l} |e_{k,l}| w_q phi_j on each local
    edge in the element's orientation.  The flux tensor is formed here,
    column d as the normal flux along the unit vector e_d."""
    tb, model = ho.t, ho.model
    mesh = tb.mesh
    nt, nv = ubar.shape
    dphi_v = basis_grad_bary(tb.BARY_V)  # (nqv, 7, 3)
    dvol = np.einsum("q,qjm,dmk->kjqd", tb.wq_vol, dphi_v, mesh.grad_lambda)
    dvol_mat = dvol.reshape(nt, 7, -1)
    # Basis values on local edge l, traversed in the stored direction
    # (o = 0) or against it (o = 1): (2, 3, nqe, 7).
    tq = tb.tq_edge
    phi_e = np.array(
        [[basis_values(_edge_bary(l, tau)) for l in range(3)] for tau in (tq, 1 - tq)]
    )
    oi = (1 - mesh.tri_edge_orient) // 2
    phi_per = phi_e[oi, np.arange(3)]  # (NT, 3, nqe, 7)
    fac = mesh.tri_edge_orient * mesh.edge_length[mesh.tri_edges]
    w_edge = phi_per * tb.wq_edge[:, None] * fac[..., None, None]
    w_edge_mat = w_edge.reshape(nt, 3 * tb.nqe, 7).swapaxes(1, 2)

    coef = tb.coefficients(ubar, upt).swapaxes(0, 1)  # (NT, 7, nv)
    xy = tb.element_points(tb.BARY_V).swapaxes(0, 1)  # (NT, nqv, 2)
    uq = tb.PHI_V @ coef  # (NT, nqv, nv)
    fq = np.stack([model.flux_normal(uq, e, xy) for e in np.eye(2)], axis=-1)
    vol = -(dvol_mat @ fq.swapaxes(2, 3).reshape(nt, -1, nv))
    vol *= mesh.areas[:, None, None]
    fluxhat, _, _ = ho.interface_fluxes(upt, t)
    surf = w_edge_mat @ fluxhat[mesh.tri_edges].reshape(nt, -1, nv)
    return (projection_matrix() @ (vol + surf)) / mesh.areas[:, None, None]


@pytest.mark.parametrize("which", ["euler", "advection", "kpp"])
def test_ho_residual_matches_per_element_tables(small_mesh, which):
    # "kpp" takes the volume path of a scalar flux that is not static.
    mesh = small_mesh
    if which == "euler":
        model = Euler()
        u0 = euler_field
        bc = {"out": FarField(lambda x, t: euler_field(x))}
    else:
        model = LinearAdvection(rotation_velocity) if which == "advection" else KPP()

        def u0(xy):
            return np.sin(2 * np.pi * xy[..., 0:1]) * np.cos(np.pi * xy[..., 1:2])

        bc = {"out": Outflow()}
    tb = Tables(mesh)
    ho = HighOrder(tb, model, BoundaryHandler(mesh, model, bc))
    ubar, upt = initialize(tb, u0)
    # Perturb so that no DoF follows a smooth field.
    rng = np.random.default_rng(4)
    ubar = ubar * (1.0 + 0.05 * rng.standard_normal(ubar.shape))
    upt = upt * (1.0 + 0.05 * rng.standard_normal(upt.shape))
    # The kernel forms the point rows 0-5 only.
    got = ho.moment_residuals(tb.coefficients(ubar, upt), upt, 0.0)[0].swapaxes(0, 1)
    want = reference_phi(ho, ubar, upt, 0.0)[:, :6]
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_edge_side_gradients_exact_on_quadratics(small_mesh):
    # Point values of quadratics q_v and averages of q_v + delta_K give
    # u_h = q_v + delta_K b_K on element K, with b_K = 60 l_0 l_1 l_2 the
    # shape of the average DoF.  Both sides see the exact q_v, whose jumps
    # vanish.  On an edge where l_c = 0 the bubble has gradient
    # 60 l_a l_b grad(l_c) and Hessian
    # 60 (l_b sym(g_a, g_c) + l_a sym(g_b, g_c)), with sym(x, y) = x y^T + y x^T.
    mesh = small_mesh
    tb = Tables(mesh)
    # u_v = c0 + c1 x + c2 y + c3 x^2 + c4 x y + c5 y^2 for two variables v.
    c = np.array(
        [[0.3, -1.2, 0.7, 2.0, -0.5, 1.5], [1.0, 0.4, -2.0, -1.0, 3.0, 0.25]]
    )

    def u(xy):
        x, y = xy[..., 0:1], xy[..., 1:2]
        c0, c1, c2, c3, c4, c5 = c.T
        return c0 + c1 * x + c2 * y + c3 * x * x + c4 * x * y + c5 * y * y

    ubar, upt = initialize(tb, u)
    delta = np.random.default_rng(5).uniform(-0.01, 0.01, ubar.shape)
    jump = tb.edge_side_gradients(tb.coefficients(ubar + delta, upt))
    edges = tb.interior_edges
    assert edges.tolist() == np.flatnonzero(mesh.edge_tris[:, 1] >= 0).tolist()
    assert jump.shape == (3, 2, tb.nqe, len(edges))

    # Rows (d_n, d_t, d_nn, d_nt, d_tt); the kernel forms all but d_t and
    # d_tt, whose jumps vanish.
    t = tb.tq_edge
    want = np.zeros((5,) + jump.shape[1:])
    for i, e in enumerate(edges):
        n = mesh.edge_normal[e]
        frame = (n, np.array([-n[1], n[0]]))
        for s, sign in ((0, 1.0), (1, -1.0)):
            k = mesh.edge_tris[e, s]
            a, b = (list(mesh.tris[k]).index(v) for v in mesh.edge_verts[e])
            g = mesh.grad_lambda[..., k].T
            ga, gb, gc = g[a], g[b], g[3 - a - b]
            # l_a = 1 - t and l_b = t at the points of the stored direction.
            la, lb = 1.0 - t, t
            first = [60.0 * la * lb * (d @ gc) for d in frame]
            second = [
                60.0 * (
                    lb * ((d @ ga) * (w @ gc) + (d @ gc) * (w @ ga))
                    + la * ((d @ gb) * (w @ gc) + (d @ gc) * (w @ gb))
                )
                for d, w in ((frame[0], frame[0]), frame, (frame[1], frame[1]))
            ]
            for row, val in enumerate(first + second):
                want[row, :, :, i] += sign * delta[k][:, None] * val
    assert np.abs(want[0]).max() > 0.1 and np.abs(want[2:4]).max() > 1.0
    assert np.abs(want[[1, 4]]).max() < 1e-11
    assert np.abs(jump[0] - want[0]).max() < 1e-11
    assert np.abs(jump[1:] - want[2:4]).max() < 1e-9


def test_static_bytes_per_triangle():
    # The element terms, the fan geometry and the volume quadrature points
    # come from reference tables and the affine map, so the spatial
    # operators, int32 point scatter included, hold at most 115 B of arrays
    # per triangle (112.2 B); the mesh, which derives its edge midpoints,
    # at most 171 B (170.0 B).
    mesh = named(rect_mesh((0.0, 1.0, 0.0, 1.0), 32, jitter=0.25, seed=2))
    assert mesh.num_tris >= 2000
    model = Euler()
    stepper = Stepper(mesh, model, BoundaryHandler(mesh, model, {"out": Outflow()}))
    scatter = stepper.tables.point_scatter
    arrays = [
        v
        for obj in (stepper.tables, stepper.ho, stepper.lo)
        for v in vars(obj).values()
        if isinstance(v, np.ndarray)
    ] + [scatter.data, scatter.indices, scatter.indptr]
    total = sum(v.nbytes for v in arrays)
    assert total / mesh.num_tris <= 115
    assert scatter.indices.dtype == scatter.indptr.dtype == np.int32
    total = sum(v.nbytes for v in vars(mesh).values() if isinstance(v, np.ndarray))
    assert total / mesh.num_tris <= 171


def test_library_line_budget():
    # The size of `src/triblend` is tracked like its speed: a change that
    # needs more lines raises this budget and says why in CHANGES.md.
    files = Path(spatial_ho.__file__).parent.glob("*.py")
    lines = sum(len(f.read_text().splitlines()) for f in files)
    assert lines <= 4523, lines


def test_tables_bytes_per_triangle():
    # The arrays of `Tables` alone, with the per-edge maps of the damping
    # and the blend built: 180 B per triangle on the mesh above (32 B
    # before the maps are built, 149 B of maps), against 35 B when the
    # maps were formed at every call.
    mesh = named(rect_mesh((0.0, 1.0, 0.0, 1.0), 32, jitter=0.25, seed=2))
    assert mesh.num_tris >= 2000
    tb = Tables(mesh)
    for name in (
        "jump_index", "jump_normal_grad", "side_elems", "side_signs", "side_counted"
    ):
        assert getattr(tb, name).size > 0
    total = sum(v.nbytes for v in vars(tb).values() if isinstance(v, np.ndarray))
    assert total / mesh.num_tris <= 200


def test_tables_store_no_element_axis(small_mesh):
    # Positions and normals come from the mesh when a kernel needs them:
    # no array of Tables has an axis of NT entries.
    mesh = small_mesh
    nt = mesh.num_tris
    assert len({nt, mesh.num_edges, mesh.num_points}) == 3
    arrays = [v for v in vars(Tables(mesh)).values() if isinstance(v, np.ndarray)]
    assert arrays and not any(nt in v.shape for v in arrays)


def test_point_dof_positions_from_the_affine_map(small_mesh):
    mesh = small_mesh
    got = Tables(mesh).element_points(POINT_DOF_BARY)  # (6, NT, 2)
    want = mesh.point_xy[point_dofs(mesh)].swapaxes(0, 1)
    assert got.tobytes() == want.tobytes()
    assert nv_first(got).flags.c_contiguous  # component-major


def test_edge_points_lie_on_their_segments(small_mesh):
    mesh = small_mesh
    tb = Tables(mesh)
    edges = np.arange(1, mesh.num_edges, 3)
    xy = tb.edge_points(edges)  # (E, nqe, 2)
    a, b = (mesh.verts[mesh.edge_verts[edges, s]][:, None] for s in (0, 1))
    assert xy.shape == (len(edges), tb.nqe, 2)
    assert np.all((tb.tq_edge > 0.0) & (tb.tq_edge < 1.0))
    want = a + tb.tq_edge[:, None] * (b - a)
    assert np.abs(xy - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("nv", [1, 4])
def test_edge_traces_equal_batched_product_bitwise(nv):
    # `Tables.edge_traces` takes N1D @ edge values as one product over the
    # whole batch, against the k-major (3, NE nv) gather, for every nv.
    # For nv = 4 its bits are also those of numpy's batched product
    # N1D @ (NE, 3, nv), one gemm per edge; for nv = 1 that product takes
    # a gemv per edge and differs in the last bit of some traces.  This
    # pins OpenBLAS's kernels: a failure under another BLAS is a host
    # difference to look at in `edge_traces`, not a solver defect.
    mesh = rect_mesh((0.0, 1.0, 0.0, 1.0), 27, jitter=0.25, seed=11)
    tb = Tables(mesh)
    upt = np.random.default_rng(nv).standard_normal((mesh.num_points, nv))
    mid = len(mesh.verts) + np.arange(mesh.num_edges)
    edge_u = upt[np.column_stack([mesh.edge_verts, mid])]  # (NE, 3, nv)
    trace, ref = tb.edge_traces(upt)
    assert mesh.num_edges == 2241
    assert trace.flags.c_contiguous
    k_major = np.ascontiguousarray(edge_u.transpose(1, 0, 2)).reshape(3, -1)
    want = (tb.N1D @ k_major).reshape(tb.nqe, mesh.num_edges, nv).swapaxes(0, 1)
    assert trace.tobytes() == want.tobytes()
    if nv > 1:
        assert trace.tobytes() == (tb.N1D @ edge_u).tobytes()
    mean = (edge_u[:, 0] + edge_u[:, 1] + edge_u[:, 2]) / 3.0
    assert ref.tobytes() == mean.tobytes()


def test_dof_normals_unit_inward_at_vertices_outward_at_midpoints(small_mesh):
    # The vertex DoFs use _dof_normals; a midpoint uses its edge's normal,
    # outward from side 0 and inward to side 1.
    mesh = small_mesh
    n = _dof_normals(mesh).swapaxes(0, 1)  # (NT, 3, 2)
    assert n.shape == (mesh.num_tris, 3, 2)
    for m in (n, mesh.edge_normal):
        assert np.abs(np.hypot(m[..., 0], m[..., 1]) - 1.0).max() < 1e-15
    c = centroids(mesh)
    for l in range(3):
        # Vertex l faces local edge l + 1.
        opposite = mesh.edge_mid[mesh.tri_edges[:, (l + 1) % 3]]
        assert np.all(np.einsum("kd,kd->k", n[:, l], c - opposite) > 0)
    for s, sign in ((0, 1.0), (1, -1.0)):
        e = np.flatnonzero(mesh.edge_tris[:, s] >= 0)
        out = mesh.edge_mid[e] - c[mesh.edge_tris[e, s]]
        assert np.all(sign * np.einsum("ed,ed->e", mesh.edge_normal[e], out) > 0)


def test_ho_average_row_equals_edge_flux_balance(small_mesh):
    mesh = small_mesh
    model = LinearAdvection(rotation_velocity)
    bc = BoundaryHandler(mesh, model, {"out": Outflow()})
    tb = Tables(mesh)
    ho = HighOrder(tb, model, bc)

    def u0(xy):
        return np.sin(2 * np.pi * xy[..., 0:1]) * np.cos(np.pi * xy[..., 1:2])

    ubar, upt = initialize(tb, u0)
    # The kernel does not form the average row; the per-element reference
    # operators do, and it is the balance of the kernel's edge fluxes.
    _, F_edge, *_ = ho.moment_residuals(tb.coefficients(ubar, upt), upt, 0.0)
    row = reference_phi(ho, ubar, upt, 0.0)[:, 6]
    div = np.einsum(
        "ke,kev->kv",
        mesh.tri_edge_orient.astype(float),
        F_edge[mesh.tri_edges],
    ) / mesh.areas[:, None]
    scale = max(1.0, np.abs(row).max())
    assert np.abs(row - div).max() < 1e-12 * scale


@pytest.mark.parametrize("which", ["euler", "advection"])
def test_omega_partition_of_unity(small_mesh, which):
    mesh = small_mesh
    if which == "euler":
        model = Euler()
        upt = euler_field(mesh.point_xy)
    else:
        model = LinearAdvection(rotation_velocity)
        upt = np.sin(3 * mesh.point_xy[:, 0:1] + mesh.point_xy[:, 1:2])
    tb = Tables(mesh)
    ho = HighOrder(tb, model, all_outflow(mesh, model))
    omega, _fb = ho.omega_weights(upt[point_dofs(mesh).T])
    nv = model.nvars
    tot = np.zeros((mesh.num_points, nv, nv))
    np.add.at(tot, point_dofs(mesh).T, omega)
    err = np.abs(tot - np.eye(nv)).max()
    assert err < 1e-12


@pytest.mark.parametrize("which", ["euler", "advection"])
def test_upwind_point_rows_are_the_weighted_sum_bitwise(small_mesh, which):
    # `HighOrder.compute`'s one contraction gives the bits of
    # Wpt = sum_w omega[..., v, w] Phi[..., w], added in ascending w.
    mesh = small_mesh
    if which == "euler":
        model = Euler()
        upt = euler_field(mesh.point_xy)
    else:
        model = LinearAdvection(rotation_velocity)
        upt = np.sin(3 * mesh.point_xy[:, 0:1] + mesh.point_xy[:, 1:2])
    tb = Tables(mesh)
    ho = HighOrder(tb, model, all_outflow(mesh, model))
    ubar = np.ones((mesh.num_tris, 1)) * upt.mean(axis=0)
    coef = tb.coefficients(ubar, upt)
    Phi = ho.moment_residuals(coef, upt, 0.0)[0]
    omega, _ = ho.omega_weights(coef[:6])
    want = omega[..., 0] * Phi[..., None, 0]
    for w in range(1, model.nvars):
        want += omega[..., w] * Phi[..., None, w]
    got = ho.compute(coef, upt, 0.0).Wpt
    assert got.tobytes() == want.tobytes()


def test_point_sums_equal_add_at_bitwise(small_mesh):
    mesh = small_mesh
    tb = Tables(mesh)
    rng = np.random.default_rng(7)
    for shape in [(), (3,), (4, 4)]:
        size = (mesh.num_tris, 6) + shape
        x = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
        want = np.zeros((mesh.num_points,) + shape)
        np.add.at(want, point_dofs(mesh).T, x.swapaxes(0, 1))
        # point_sums takes (6, NT, ...) and adds each point's values in the
        # order np.add.at meets them on that array, by local DoF and then
        # by element, for plain and for component-major input (the layout
        # of the element kernels).
        got = tb.point_sums(np.ascontiguousarray(x.swapaxes(0, 1)))
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        x_cm = np.ascontiguousarray(np.moveaxis(x, (0, 1), (-1, -2)))
        got = tb.point_sums(np.moveaxis(x_cm, (-2, -1), (0, 1)))
        assert np.array_equal(got, want)
    want = np.zeros(mesh.num_points)
    np.add.at(want, point_dofs(mesh), 1.0)
    assert np.array_equal(np.diff(tb.point_scatter.indptr), want)


def test_omega_nonfinite_patch_sum_falls_back_quietly(small_mesh):
    # A NaN state makes its point's patch sum NaN: that point takes the
    # arithmetic weights without reaching the inversion (no RuntimeWarning), and
    # every other point keeps its upwind weights.
    mesh = small_mesh
    model = Euler()
    upt = euler_field(mesh.point_xy)
    tb = Tables(mesh)
    ho = HighOrder(tb, model, all_outflow(mesh, model))
    omega0, fb0 = ho.omega_weights(upt[point_dofs(mesh).T])
    on_boundary = np.concatenate(
        [
            mesh.edge_verts[mesh.boundary_edges].ravel(),
            len(mesh.verts) + mesh.boundary_edges,
        ]
    )
    bad = int(np.setdiff1d(np.arange(mesh.num_points), on_boundary)[0])
    upt[bad] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        omega, fb = ho.omega_weights(upt[point_dofs(mesh).T])
    hit = point_dofs(mesh).T == bad
    count = hit.sum()
    assert fb == fb0 + 1
    unit = np.broadcast_to(np.eye(4) / count, (count, 4, 4))
    assert np.array_equal(omega[hit], unit)
    assert np.array_equal(omega[~hit], omega0[~hit])


@pytest.mark.parametrize("which", ["advection", "euler"])
def test_omega_built_once_for_static_signs(small_mesh, monkeypatch, which):
    # Linear advection's sign matrices do not depend on the state, so its
    # weights are built on the first call and reused; Euler's are rebuilt
    # on every call.  Either way they equal a fresh operator's bitwise.  A
    # build inverts the vertex patch sums once, so `_inverse` counts builds.
    mesh = small_mesh
    if which == "euler":
        model = Euler()
        fields = [euler_field, lambda xy: euler_field(xy[..., ::-1])]
    else:
        model = LinearAdvection(rotation_velocity)
        fields = [
            lambda xy: np.sin(3 * xy[..., 0:1] + xy[..., 1:2]),
            lambda xy: np.exp(-xy[..., 0:1] ** 2) * xy[..., 1:2],
        ]
    bc = BoundaryHandler(mesh, model, {"out": Outflow()})
    tb = Tables(mesh)
    ho = HighOrder(tb, model, bc)
    calls = []
    inverse = spatial_ho._inverse

    def counted(*args):
        calls.append(1)
        return inverse(*args)

    monkeypatch.setattr(spatial_ho, "_inverse", counted)
    for field in fields:
        ubar, upt = initialize(tb, field)
        got = ho.compute(tb.coefficients(ubar, upt), upt, 0.0)
    assert len(calls) == (1 if which == "advection" else len(fields))
    fresh = HighOrder(tb, model, bc)
    want = fresh.compute(tb.coefficients(ubar, upt), upt, 0.0)
    assert np.array_equal(got.Wpt, want.Wpt)
    assert got.omega_fallback_points == want.omega_fallback_points
    u_loc = upt[point_dofs(mesh).T]
    omega, fb = ho.omega_weights(u_loc)
    omega_fresh, fb_fresh = fresh.omega_weights(u_loc)
    assert omega.tobytes() == omega_fresh.tobytes()
    assert fb == fb_fresh
    assert omega.flags.writeable == (which == "euler")


def reference_rescue(dom, u, ref):
    """The all-rows rescue: blend every group toward its reference, then
    keep the blend in the groups that hold an inadmissible state."""
    ok = dom.contains(u)
    if ok.all():
        return u, 0
    bad_group = ~ok.all(axis=1)
    d = u - ref[:, None, :]
    eta = dom.max_blend(np.broadcast_to(ref[:, None, :], u.shape), d)
    s = eta.min(axis=1, keepdims=True)
    u = np.where(bad_group[:, None, None], ref[:, None, :] + s[..., None] * d, u)
    return u, int(bad_group.sum())


def rescue_groups(which, bad_every):
    """Admissible references (G, nv) and groups of states (G, 7, nv) around
    them; every `bad_every`-th group holds inadmissible states (none if 0)."""
    rng = np.random.default_rng(11)
    g, nq = 300, 7
    bad = slice(0, g, bad_every) if bad_every else slice(0)
    if which == "gas":
        dom = GasDomain()
        ref = euler_field(rng.uniform(0.0, 1.0, (g, 2)))
        u = ref[:, None, :] * (1.0 + 0.05 * rng.standard_normal((g, nq, 4)))
        # Negative density in one state, negative pressure in another.
        u[bad, 2, 0] = -0.1 * ref[bad, 0]
        u[bad, 5, 3] = 0.25 * (u[bad, 5, 1] ** 2 + u[bad, 5, 2] ** 2) / u[bad, 5, 0]
    else:
        dom = IntervalDomain(0.0, 1.0)
        ref = rng.uniform(0.1, 0.9, (g, 1))
        u = np.clip(ref[:, None, :] + 0.05 * rng.standard_normal((g, nq, 1)), 0, 1)
        u[bad, 1, 0] = 1.3
        u[bad, 4, 0] = -0.2
    assert np.all(dom.contains(ref))
    return dom, u, ref


@pytest.mark.parametrize("bad_every", [0, 1, 7])
@pytest.mark.parametrize("which", ["gas", "interval"])
def test_rescue_of_offending_groups_equals_all_rows_formula(
    small_mesh, which, bad_every
):
    # Blending only the offending groups gives the states of the all-rows
    # formula bitwise, because the domain's blend acts per state.
    dom, u, ref = rescue_groups(which, bad_every)
    model = Euler() if which == "gas" else LinearAdvection((1.0, 0.0))
    ho = HighOrder(
        Tables(small_mesh), model, all_outflow(small_mesh, model), enforce_domain=dom
    )
    # Also on the transposed view of a component-major (nv, nq, G) block,
    # the layout in which `HighOrder.compute` passes the volume states, and
    # on C-order groups of three, the layout of the edge traces.
    trace = np.ascontiguousarray(u[:, :3])
    for u in (u, np.ascontiguousarray(u.T).T, trace):
        u_in = u.copy()
        want, want_count = reference_rescue(dom, u_in, ref)
        got, count = ho._rescue_states(u, ref)
        assert count == want_count
        assert count == len(range(0, len(u), bad_every)) if bad_every else count == 0
        assert got.tobytes() == want.tobytes()
        assert u.tobytes() == u_in.tobytes()  # the input is left as it was
        assert np.all(dom.contains(got))


def special_rescue_groups(which):
    """Groups of three states, one reference each, over special values:
    states on each bound, beyond them, NaN and +-inf, and references on a
    bound among admissible ones."""
    if which == "gas":
        dom = GasDomain()
        rng = np.random.default_rng(12)
        ref = euler_field(rng.uniform(0.0, 1.0, (120, 2)))
        ref[::4, :3] = [dom.rho_min, 0.0, 0.0]  # density on its bound, at rest
        assert np.all(dom.contains(ref))
        u = ref[:, None, :] * (1.0 + 0.05 * rng.standard_normal((120, 3, 4)))
        u[::5, 1, 0] = dom.rho_min
        u[1::5, 2, 0] = -1.0
        u[2::5, 0, 3] = np.nan
        u[3::5, 1, 1] = np.inf
        u[4::10, 2, 0] = -np.inf
        return dom, u, ref
    dom = IntervalDomain(0.0, 1.0)
    vals = [0.0, -0.0, 1.0, 0.25, 1.5, -0.5, np.nan, np.inf, -np.inf]
    refs = [0.0, -0.0, 1.0, 0.5]
    g = np.stack(np.meshgrid(refs, vals, vals, vals, indexing="ij"), -1)
    g = g.reshape(-1, 4)
    return dom, g[:, 1:, None], g[:, :1]


@pytest.mark.parametrize("which", ["gas", "interval"])
@np.errstate(invalid="ignore", over="ignore")  # inf - inf, 0 * inf
def test_rescue_of_special_groups_equals_all_rows_formula(small_mesh, which):
    # The closed form of an interval's group blend keeps the states of the
    # all-rows formula bitwise on the bounds, beyond them and on NaN and
    # +-inf, in both layouts; a rescued group that holds one stays
    # non-finite.
    dom, u, ref = special_rescue_groups(which)
    model = Euler() if which == "gas" else LinearAdvection((1.0, 0.0))
    ho = HighOrder(
        Tables(small_mesh), model, all_outflow(small_mesh, model), enforce_domain=dom
    )
    want, want_count = reference_rescue(dom, u, ref)
    for x in (u, np.ascontiguousarray(u.T).T):
        got, count = ho._rescue_states(x, ref)
        assert count == want_count > 0
        assert got.tobytes() == want.tobytes()
        finite = np.isfinite(u).all(axis=(1, 2))
        assert np.all(dom.contains(got[finite]))
        assert not np.isfinite(got[~finite]).all(axis=(1, 2)).any()


def test_closed_form_inverse_matches_lapack():
    # After the Newton steps the closed-form inverse agrees with LAPACK's
    # to 1e-12 relative, on random sums and on moderately ill-conditioned
    # ones (condition number 3e3).  Both inverses err by about the
    # condition number times the unit round-off.
    rng = np.random.default_rng(5)
    m = 2000
    generic = rng.standard_normal((m, 4, 4)) + 4.0 * np.eye(4)
    q1 = np.linalg.qr(rng.standard_normal((m, 4, 4)))[0]
    q2 = np.linalg.qr(rng.standard_normal((m, 4, 4)))[0]
    ill = (q1 * np.logspace(0.0, -3.5, 4)) @ q2
    for A in (generic, ill):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X, nonsingular = _inverse(A)
        assert nonsingular.all()
        want = np.linalg.inv(A)
        scale = np.abs(want).max(axis=(1, 2))
        assert (np.abs(X - want).max(axis=(1, 2)) / scale).max() < 1e-12
    a = rng.uniform(0.5, 4.0, (m, 1, 1))
    X, nonsingular = _inverse(a)
    assert nonsingular.all()
    assert np.abs(X * a - 1.0).max() <= np.finfo(float).eps


def test_omega_exactly_singular_patch_sum_falls_back_quietly(
    small_mesh, monkeypatch
):
    # A patch sum with two equal rows has determinant exactly 0: its point
    # takes the arithmetic weights with no division by zero, and every other
    # point keeps its upwind weights.
    mesh = small_mesh
    model = Euler()
    upt = euler_field(mesh.point_xy)
    tb = Tables(mesh)
    ho = HighOrder(tb, model, all_outflow(mesh, model))
    dofs = point_dofs(mesh).T
    u_loc = upt[dofs]
    omega0, fb0 = ho.omega_weights(u_loc)
    count = np.diff(tb.point_scatter.indptr)[dofs]
    upwind = ~np.all(omega0 == np.eye(4) / count[..., None, None], axis=(2, 3))
    bad = int(dofs[upwind][0])
    point_sums = tb.point_sums

    def singular_at_bad(x):
        out = point_sums(x)
        if out.ndim == 3:
            out[bad, 1] = out[bad, 0]
        return out

    monkeypatch.setattr(tb, "point_sums", singular_at_bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        omega, fb = ho.omega_weights(u_loc)
    hit = dofs == bad
    n = hit.sum()
    assert fb == fb0 + 1
    assert np.array_equal(omega[hit], np.broadcast_to(np.eye(4) / n, (n, 4, 4)))
    assert np.array_equal(omega[~hit], omega0[~hit])
    for A in (np.ones((1, 4, 4)), np.zeros((1, 4, 4)), np.zeros((1, 1, 1))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X, nonsingular = _inverse(A)
        assert not nonsingular.any()
        assert not X.any()


def test_euler_omega_makes_no_lapack_inverse_call(small_mesh, monkeypatch):
    mesh = small_mesh
    model = Euler()
    upt = euler_field(mesh.point_xy)
    tb = Tables(mesh)
    ho = HighOrder(tb, model, all_outflow(mesh, model))
    want, want_fb = ho.omega_weights(upt[point_dofs(mesh).T])

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK inverse called")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "det", refuse)
    omega, fb = ho.omega_weights(upt[point_dofs(mesh).T])
    assert omega.tobytes() == want.tobytes()
    assert fb == want_fb
    bc = BoundaryHandler(mesh, model, {"out": Outflow()})
    ubar, upt = initialize(tb, euler_field)
    HighOrder(tb, model, bc).compute(tb.coefficients(ubar, upt), upt, 0.0)


def reference_omega_weights(ho, u_loc):
    """The upwind weights by the general path at every point DoF, edge
    midpoints included: the patch sums of N_K = (I + S) / 2 + |K| / 2 I
    inverted per point, each midpoint's N_K taken with the element's
    outward normal.  Returns the weights (6, NT, nv, nv), the fallback
    mask (NP,) and the condition numbers of the patch sums (NP,), inf
    where a sum is not finite."""
    tb = ho.t
    mesh = tb.mesh
    _, nt, nv = u_loc.shape
    n = np.concatenate([_dof_normals(mesh), mesh.outward_normal().swapaxes(0, 1)])
    S = ho.model.sign_jac_normal(u_loc, n, tb.element_points(POINT_DOF_BARY))
    Seps = np.array(np.broadcast_to(0.5 * S, (6, nt, nv, nv)), order="C")
    diag = diagonal_view(Seps)
    diag += 0.5
    diag += 0.5 * mesh.areas[:, None]
    total = tb.point_sums(Seps)
    ok = np.isfinite(total).all(axis=(1, 2))
    X, nonsingular = _inverse(total[ok])
    inv = np.zeros_like(total)
    inv[ok] = X
    cond = np.full(len(total), np.inf)
    cond[ok] = _frobenius(total[ok].T) * _frobenius(X.T)
    bad = ~ok
    bad[ok] = ~nonsingular | ~np.isfinite(cond[ok]) | (cond[ok] > COND_CAP)
    dofs = point_dofs(mesh).T
    omega = np.take(inv, dofs, axis=0) @ Seps
    norms = _frobenius(omega.transpose(2, 3, 0, 1))
    big = ~np.isfinite(norms) | (norms > OMEGA_CAP)
    bad |= tb.point_sums(big.astype(float)) > 0.0
    fb = bad[dofs]
    count = np.diff(tb.point_scatter.indptr)[dofs]
    omega[fb] = np.eye(nv) / count[fb][:, None, None]
    return omega, bad, cond


def omega_case(mesh, which):
    """A model and point states for the weight tests: for Euler, random gas
    states up to Mach 5 (which make vertex and midpoint fallbacks), a NaN
    state at an interior midpoint and p = 0 at a boundary midpoint; for
    KPP, random states and a NaN at an interior midpoint."""
    rng = np.random.default_rng(1)
    npt = mesh.num_points
    interior_mid = len(mesh.verts) + np.flatnonzero(mesh.edge_tris[:, 1] >= 0)
    boundary_mid = len(mesh.verts) + mesh.boundary_edges
    if which == "euler":
        model = Euler()
        rho, p = rng.uniform(0.2, 5.0, npt), rng.uniform(0.1, 5.0, npt)
        speed = 5.0 * np.sqrt(1.4 * p / rho) * rng.uniform(0.0, 1.0, npt)
        ang = rng.uniform(0.0, 2 * np.pi, npt)
        p[boundary_mid[3]] = 0.0
        upt = model.conserved(rho, speed * np.cos(ang), speed * np.sin(ang), p)
    elif which == "kpp":
        model = KPP()
        upt = rng.uniform(-4.0, 4.0, (npt, 1))
    else:
        model = LinearAdvection(rotation_velocity)
        upt = rng.uniform(0.0, 1.0, (npt, 1))
    if which != "advection":
        upt[interior_mid[5]] = np.nan
    return model, upt[point_dofs(mesh).T]


@pytest.mark.parametrize("which", ["euler", "kpp", "advection"])
def test_omega_matches_the_general_path(small_mesh, which):
    # The closed form at the midpoints and the vertex-only general path
    # give the general path's weights: as many fallback points (vertex and
    # midpoint ones both occur for Euler), the arithmetic weights at every
    # fallback point of the general path, and elsewhere weights within
    # round-off times the condition number of its patch sum.  A boundary
    # midpoint's weight is I either way; its fallback (p = 0 in the Euler
    # case) shows in the count only.
    mesh = small_mesh
    model, u_loc = omega_case(mesh, which)
    ho = HighOrder(Tables(mesh), model, all_outflow(mesh, model))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        omega, fb = ho.omega_weights(u_loc)
        want, bad, cond = reference_omega_weights(ho, u_loc)
    dofs = point_dofs(mesh).T
    assert fb == bad.sum()
    if which == "euler":
        nvert = len(mesh.verts)
        assert bad[:nvert].any() and bad[nvert:].any()
    elif which == "kpp":
        assert bad.sum() == 1
    fall = bad[dofs]
    assert np.array_equal(omega[fall], want[fall])
    err = np.abs(omega - want).max(axis=(2, 3))[~fall]
    assert np.all(err <= 1e3 * np.finfo(float).eps * cond[dofs][~fall])


@pytest.mark.parametrize("which", ["euler", "kpp", "advection"])
def test_omega_at_midpoints_is_the_closed_form(small_mesh, which):
    # At an interior midpoint the two weights sum to the identity to
    # round-off; at a boundary midpoint the weight is the identity bitwise.
    mesh = small_mesh
    model, u_loc = omega_case(mesh, which)
    omega, _fb = HighOrder(
        Tables(mesh), model, all_outflow(mesh, model)
    ).omega_weights(u_loc)
    nv = model.nvars
    e = mesh.tri_edges.T  # (3, NT)
    side = (mesh.tri_edge_orient.T < 0).astype(int)
    om = np.zeros((2, mesh.num_edges, nv, nv))
    om[side, e] = omega[3:]
    interior = mesh.edge_tris[:, 1] >= 0
    scale = 1.0 + np.abs(om[:, interior]).max(axis=(0, 2, 3))
    err = np.abs(om[0, interior] + om[1, interior] - np.eye(nv)).max(axis=(1, 2))
    assert np.all(err <= 4 * np.finfo(float).eps * scale)
    assert np.array_equal(om[0, ~interior], np.broadcast_to(np.eye(nv), om[0, ~interior].shape))


def traced_peak(f):
    """Allocation peak of f() above the memory allocated at its call, after
    one warm-up call."""
    f()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def euler_memory_case():
    """Euler states of `euler_field` on 968 elements: the tables, the HO
    operator, the coefficients, the point values and one HO result."""
    mesh = named(rect_mesh((0.0, 1.0, 0.0, 1.0), 22, jitter=0.25, seed=3))
    model = Euler()
    tb = Tables(mesh)
    ho = HighOrder(tb, model, BoundaryHandler(mesh, model, {"out": Outflow()}))
    ubar, upt = initialize(tb, euler_field)
    coef = tb.coefficients(ubar, upt)
    assert mesh.num_tris == 968
    return tb, ho, coef, upt, ho.compute(coef, upt, 0.0)


@pytest.fixture
def two_blocks(monkeypatch):
    """A block budget that splits the 968 Euler elements into blocks of
    488 and 480, as `double-mach` at n=24 (4,567 elements) is split by the
    default budget."""
    monkeypatch.setattr(spatial_ho, "BLOCK_BYTES", 488 * 4 * spatial_ho.ELEM_BYTES)
    assert [b.stop - b.start for b in element_blocks(968, 4)] == [488, 480]


def test_ho_compute_memory_peak_on_euler(euler_memory_case, two_blocks):
    # The allocation peak of one Euler HighOrder.compute call on 968
    # elements: 4.70 MB when every temporary of the volume and surface
    # terms lived until the call returned, and with the upwind weights
    # alive during the volume term; 2.65 MB when each is freed after its
    # last read and the weights come last, with one sign block of all
    # point DoFs; 1.71 MB in two element blocks, with the vertex signs
    # written into the weights.  The bound leaves 20% margin.
    _, ho, coef, upt, _ = euler_memory_case
    peak = traced_peak(lambda: ho.compute(coef, upt, 0.0))
    assert peak <= 2.05e6, peak


def test_lo_point_residuals_memory_peak_on_euler(euler_memory_case, two_blocks):
    # 3.95 MB when the fan rate was formed over (6 sub-triangles,
    # 3 corners, 3 normals, NT) states at once, from a gathered copy of all
    # corner states; 2.05 MB one corner at a time; 1.20 MB in two element
    # blocks.  20% margin.
    tb, ho, coef, _, _ = euler_memory_case
    lo = LowOrder(tb, ho.model, all_outflow(tb.mesh, ho.model))
    peak = traced_peak(lambda: lo.point_residuals(coef))
    assert peak <= 1.44e6, peak


def test_rk3_step_memory_peak_on_euler(euler_memory_case, two_blocks):
    # One whole `full` SSP-RK3 step on the 968 Euler elements: 3.21 MB
    # with one sign block of all point DoFs, every substep's operators
    # over all elements and each substep's results alive to the step's
    # end; 2.11 MB in two element blocks, with the traces freed after the
    # damping, the point residuals after the point blend and one running
    # minimum of the limiter diagnostics.  20% margin.
    tb, ho, _, _, _ = euler_memory_case
    st = Stepper(tb.mesh, ho.model, ho.bc, enforce_domain=GasDomain(), mode="full")
    ubar, upt = initialize(st.tables, euler_field)
    dt = st.compute_dt(ubar, upt)
    peak = traced_peak(lambda: st.rk3_step(ubar, upt, 0.0, dt))
    assert peak <= 2.53e6, peak
    # Euler's speeds depend on the state: no record keeps anything.
    assert st.speeds.kept == st.ho.speeds.kept == st.lo.speeds.kept == {}


def test_rk3_step_memory_peak_on_scalar():
    # The first `full` SSP-RK3 step of `rotating-shapes` on 968 elements,
    # after a warm-up step of another stepper.  It builds the kept speeds
    # and maps (`StaticSpeeds`, 0.55 MB here): 1.45 MB, with the fan map
    # probed PROBE_ELEMS elements at a time (1.83 MB in one probe over all
    # elements, 1.59 MB when the fan rates and velocities were kept
    # instead, 1.39 MB when only the upwind weights were).  Later steps
    # peak at 0.87 MB, against 1.34 MB when they formed the speeds.  The
    # bound keeps the 20% margin of 1.59 MB.
    prob = get_problem("rotating-shapes")
    model = prob.make_model(1.4)
    mesh = prob.mesh_builder(22)
    mesh.name_boundary(prob.namer)
    bc = BoundaryHandler(mesh, model, prob.boundaries(model))
    enforce, assert_ = prob.domains(model)

    def first_step():
        st = Stepper(
            mesh, model, bc, mode="full", enforce_domain=enforce, assert_domain=assert_
        )
        ubar, upt = sample_initial(prob, model, st.tables)
        return st, lambda: st.rk3_step(ubar, upt, 0.0, st.compute_dt(ubar, upt))

    first_step()[1]()
    st, step = first_step()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert mesh.num_tris == 968 and "fan" in st.lo.speeds.kept
    assert peak <= 1.91e6, peak


def blocked_case(mesh, which):
    """A model, its enforced domain and point values whose volume states
    leave the domain in some elements, with admissible averages (the
    vertex means)."""
    rng = np.random.default_rng(5)
    npt = mesh.num_points
    if which == "euler":
        model, dom = Euler(), GasDomain()
        rho, p = rng.uniform(0.2, 5.0, npt), rng.uniform(0.1, 5.0, npt)
        speed = 3.0 * np.sqrt(1.4 * p / rho) * rng.uniform(0.0, 1.0, npt)
        ang = rng.uniform(0.0, 2 * np.pi, npt)
        upt = model.conserved(rho, speed * np.cos(ang), speed * np.sin(ang), p)
    else:
        model, dom = KPP(), IntervalDomain(-1.0, 1.0)
        upt = rng.uniform(-1.0, 1.0, (npt, 1))
    ubar = upt[mesh.tris].mean(axis=1)
    return model, dom, ubar, upt


def test_block_matmul_equals_one_call():
    # 16-term products of 12 rows, each against a (16, E) block, over
    # 6,001 elements in blocks of 2,288, 2,288 and 1,425 give
    # the bits of one `block_matmul` over all elements, which cuts its
    # 1.15e6 multiply-adds per matrix into calls of 5,200 columns.  The
    # plain product over all elements takes OpenBLAS's large kernel, whose
    # tail differs from the small kernel's in the last bit of its last
    # columns, so a `block_matmul` without the cut fails here.  This pins
    # OpenBLAS's kernel choice (checked with 1 and 2 threads on 0.3.31): a
    # failure under another BLAS or version is a host difference to look
    # at in `block_matmul`, not a solver defect.
    rng = np.random.default_rng(8)
    A = rng.standard_normal((12, 16))
    X = rng.standard_normal((4, 2, 16, 6001))
    blocks = element_blocks(6001, 4)
    assert [b.stop - b.start for b in blocks] == [2288, 2288, 1425]
    got = [block_matmul(A, np.ascontiguousarray(X[..., b])) for b in blocks]
    assert np.concatenate(got, axis=-1).tobytes() == block_matmul(A, X).tobytes()


@pytest.mark.parametrize("which", ["euler", "kpp"])
def test_blocked_kernels_equal_one_block(small_mesh, monkeypatch, which):
    # The volume term, the vertex signs of the weights and the LO fan run
    # by element blocks.  On 50 elements in blocks of 16 (the last one 2)
    # they give the bits of one block over all elements, rescue counts and
    # fallback counts included.
    mesh = small_mesh
    model, dom, ubar, upt = blocked_case(mesh, which)
    tb = Tables(mesh)
    bc = BoundaryHandler(mesh, model, {"out": Outflow()})
    ho = HighOrder(tb, model, bc, enforce_domain=dom)
    lo = LowOrder(tb, model, bc)
    coef = tb.coefficients(ubar, upt)

    def run():
        return (
            ho.moment_residuals(coef, upt, 0.0),
            ho.omega_weights(coef[:6]),
            lo.point_residuals(coef),
        )

    nv = model.nvars
    assert len(element_blocks(mesh.num_tris, nv)) == 1
    (Phi, *surface, resc_vol, resc_tr), (omega, fb), lo_pt = run()
    assert resc_vol > 0
    monkeypatch.setattr(spatial_ho, "BLOCK_BYTES", 16 * nv * spatial_ho.ELEM_BYTES)
    sizes = [b.stop - b.start for b in element_blocks(mesh.num_tris, nv)]
    assert sizes == [16, 16, 16, 2]
    (Phi_b, *surface_b, resc_vol_b, resc_tr_b), (omega_b, fb_b), lo_pt_b = run()
    for got, want in zip((Phi_b, omega_b, lo_pt_b, *surface_b), (Phi, omega, lo_pt, *surface)):
        assert got.tobytes() == want.tobytes()
    assert (resc_vol_b, resc_tr_b, fb_b) == (resc_vol, resc_tr, fb)


def test_damping_theta_memory_peak_on_euler(euler_memory_case):
    # 3.00 MB when the edge-side gradients gathered both sides'
    # coefficients and formed all derivative rows at once; 1.05 MB one side
    # and one variable at a time.  The bound leaves 0.25 MB margin.
    tb, ho, coef, _, res = euler_memory_case
    model = ho.model
    peak = traced_peak(
        lambda: damping_theta(
            tb, model, coef, interior_edge_speeds(tb, model, res.trace_u), 1e-3
        )
    )
    assert peak <= 1.3e6, peak


def test_wall_flux_has_no_mass_or_energy_component(small_mesh):
    mesh = named(small_mesh, "wall")
    model = Euler()
    bc = BoundaryHandler(mesh, model, {"wall": Wall()})
    rng = np.random.default_rng(7)
    nb = len(mesh.boundary_edges)
    tr = model.conserved(
        rng.uniform(0.5, 2.0, (nb, 3)),
        rng.uniform(-1.0, 1.0, (nb, 3)),
        rng.uniform(-1.0, 1.0, (nb, 3)),
        rng.uniform(0.5, 2.0, (nb, 3)),
    )
    n = mesh.edge_normal[mesh.boundary_edges]
    xq = Tables(mesh).edge_points(mesh.boundary_edges)
    f = bc.ho_flux(tr, n, xq, 0.0)
    scale = np.abs(f).max()
    assert np.abs(f[..., 0]).max() < 1e-12 * scale
    assert np.abs(f[..., 3]).max() < 1e-12 * scale
    named(mesh, "out")  # restore the fixture's naming


def test_farfield_scalar_is_exact_upwinding():
    mesh = rect_mesh((0.0, 1.0, 0.0, 1.0), 3, jitter=0.0, seed=0)
    model = LinearAdvection((1.0, 0.0))

    def sides(mids):
        out = []
        for x, y in mids:
            if np.isclose(x, 0.0):
                out.append("left")
            elif np.isclose(x, 1.0):
                out.append("right")
            else:
                out.append("span")
        return out

    mesh.name_boundary(sides)
    ub = 0.7
    bc = BoundaryHandler(
        mesh,
        model,
        {
            "left": FarField(lambda x, t: np.full(x.shape[:-1] + (1,), ub)),
            "right": FarField(lambda x, t: np.full(x.shape[:-1] + (1,), ub)),
            "span": Outflow(),
        },
    )
    tb = Tables(mesh)
    be = mesh.boundary_edges
    n = mesh.edge_normal[be]
    xq = tb.edge_points(be)
    tr = np.full((len(be), tb.nqe, 1), 0.25)
    f = bc.ho_flux(tr, n, xq, 0.0)
    left = np.isclose(mesh.edge_mid[be][:, 0], 0.0)
    right = np.isclose(mesh.edge_mid[be][:, 0], 1.0)
    # inflow (n = (-1, 0)): flux -u_b; outflow (n = (1, 0)): flux +u_trace
    assert np.allclose(f[left], -ub, atol=1e-14)
    assert np.allclose(f[right], 0.25, atol=1e-14)


def reference_boundary_flux(model, bc, tr, n, xq, t):
    """Per-kind boundary fluxes written out in full, as each kind once
    spelled its own: plain outflow, LLF against the mirrored wall state,
    split (gas) or LLF (scalar) flux against the far-field state."""
    if bc.kind == "outflow":
        return model.flux_normal(tr, n, xq)
    if bc.kind == "wall":
        ghost = tr.copy()
        mn = tr[..., 1] * n[..., 0] + tr[..., 2] * n[..., 1]
        ghost[..., 1] -= 2.0 * mn * n[..., 0]
        ghost[..., 2] -= 2.0 * mn * n[..., 1]
    else:
        ghost = bc.state_fn(xq, t)
        if isinstance(model, Euler):
            return model.flux_normal_split(tr, n, +1) + model.flux_normal_split(
                ghost, n, -1
            )
    alpha = np.maximum(
        model.max_wavespeed(tr, n, xq), model.max_wavespeed(ghost, n, xq)
    )
    return 0.5 * (
        model.flux_normal(tr, n, xq) + model.flux_normal(ghost, n, xq)
    ) - 0.5 * alpha[..., None] * (ghost - tr)


def reference_ghost_average(bc, u, n, x, t):
    if bc.kind == "outflow":
        return u
    if bc.kind == "wall":
        g = u.copy()
        mn = u[..., 1] * n[..., 0] + u[..., 2] * n[..., 1]
        g[..., 1] -= 2.0 * mn * n[..., 0]
        g[..., 2] -= 2.0 * mn * n[..., 1]
        return g
    return bc.state_fn(x, t)


@pytest.mark.parametrize("which", ["euler", "advection", "kpp"])
def test_boundary_closure_matches_per_kind_formulas(which):
    # One ghost-state dispatch and one two-state flux give, on a mesh with
    # mixed boundary kinds, bitwise the per-kind formulas above for both
    # the high-order edge fluxes and the low-order ghost averages.
    mesh = rect_mesh((0.0, 1.0, 0.0, 1.0), 4, jitter=0.25, seed=5)

    def sides(mids):
        return [
            "left" if x < 1e-12 else "right" if x > 1.0 - 1e-12 else "span"
            for x, _ in mids
        ]

    mesh.name_boundary(sides)
    rng = np.random.default_rng(12)
    t = 0.3
    nb = len(mesh.boundary_edges)
    tb = Tables(mesh)
    if which == "euler":
        model = Euler()
        kinds = {
            "left": FarField(lambda x, t: euler_field(x + t)),
            "right": Outflow(),
            "span": Wall(),
        }

        def states(shape):
            return model.conserved(
                *(rng.uniform(lo, hi, shape) for lo, hi in
                  ((0.5, 2.0), (-1.0, 1.0), (-1.0, 1.0), (0.5, 2.0)))
            )
    else:
        model = KPP() if which == "kpp" else LinearAdvection(rotation_velocity)
        kinds = {
            "left": FarField(lambda x, t: np.sin(x[..., :1] + t)),
            "right": Outflow(),
            "span": FarField(lambda x, t: np.cos(3.0 * x[..., 1:] - t)),
        }

        def states(shape):
            return rng.uniform(-1.0, 1.0, shape + (1,))

    bc = BoundaryHandler(mesh, model, kinds)
    be = mesh.boundary_edges
    n = mesh.edge_normal[be]
    xq = tb.edge_points(be)
    tr = states((nb, tb.nqe))
    ubar0 = states((nb,))
    f = bc.ho_flux(tr, n, xq, t)
    g = bc.ghost_average(ubar0, n, t)
    assert {len(idx) > 0 for idx in bc.groups.values()} == {True}
    for nm, idx in bc.groups.items():
        want = reference_boundary_flux(
            model, kinds[nm], tr[idx], n[idx, None, :], xq[idx], t
        )
        assert f[idx].tobytes() == want.tobytes(), nm
        want = reference_ghost_average(
            kinds[nm], ubar0[idx], n[idx], mesh.edge_mid[be][idx], t
        )
        assert g[idx].tobytes() == want.tobytes(), nm


def test_boundary_validation_errors(small_mesh):
    model = LinearAdvection((1.0, 0.0))
    with pytest.raises(ConfigError):
        BoundaryHandler(small_mesh, model, {})
    with pytest.raises(ConfigError):
        BoundaryHandler(small_mesh, model, {"out": Wall()})


@pytest.mark.parametrize("which", ["euler", "advection"])
def test_free_stream_preserved_ten_steps(which):
    mesh = named(rect_mesh((0.0, 1.0, 0.0, 1.0), 4, jitter=0.25, seed=11))
    if which == "euler":
        model = Euler()
        u_inf = model.conserved(1.4, 0.3, -0.2, 2.0)
    else:
        model = LinearAdvection((0.7, -0.4))
        u_inf = np.array([0.6])
    bc = BoundaryHandler(
        mesh,
        model,
        {"out": FarField(lambda x, t: np.broadcast_to(u_inf, x.shape[:-1] + u_inf.shape))},
    )
    stepper = Stepper(mesh, model, bc)
    ubar = np.tile(u_inf, (mesh.num_tris, 1))
    upt = np.tile(u_inf, (mesh.num_points, 1))
    t = 0.0
    for k in range(10):
        dt = stepper.compute_dt(ubar, upt)
        ubar, upt, _bf, _st = stepper.rk3_step(ubar, upt, t, dt, k)
        t += dt
    scale = max(1.0, np.abs(u_inf).max())
    assert np.abs(ubar - u_inf).max() < 2e-12 * scale
    assert np.abs(upt - u_inf).max() < 2e-12 * scale


def test_low_order_max_principle_small_dt(small_mesh):
    mesh = small_mesh
    model = LinearAdvection(rotation_velocity)
    bc = BoundaryHandler(
        mesh,
        model,
        {"out": FarField(lambda x, t: np.full(x.shape[:-1] + (1,), 0.5))},
    )
    tb = Tables(mesh)
    lo = LowOrder(tb, model, bc)
    rng = np.random.default_rng(5)
    ubar = rng.random((mesh.num_tris, 1))
    upt = rng.random((mesh.num_points, 1))
    stepper = Stepper(mesh, model, bc)
    dt = 0.2 * stepper.compute_dt(ubar, upt)
    Phi_lo = lo.point_residuals(tb.coefficients(ubar, upt))
    F_lo = lo.average_fluxes(ubar, 0.0)

    acc = np.zeros_like(upt)
    np.add.at(acc, point_dofs(mesh).T, Phi_lo)
    upt2 = upt - dt * acc
    div = np.einsum(
        "ke,kev->kv",
        mesh.tri_edge_orient.astype(float),
        F_lo[mesh.tri_edges],
    )
    ubar2 = ubar - dt / mesh.areas[:, None] * div

    lo_bound = min(upt.min(), ubar.min(), 0.5)
    hi_bound = max(upt.max(), ubar.max(), 0.5)
    assert upt2.min() >= lo_bound - 1e-12
    assert upt2.max() <= hi_bound + 1e-12
    assert ubar2.min() >= lo_bound - 1e-12
    assert ubar2.max() <= hi_bound + 1e-12


def nv_last_point_residuals(lo, coef):
    """The fan residuals (NT, 6, nv) as LowOrder computed them on nv-last
    arrays (NT, ..., nv), before its kernel went component-major."""
    mesh, model = lo.t.mesh, lo.model
    coef = np.ascontiguousarray(coef)
    U = np.take(coef, SUB_CORNERS, axis=1)  # (NT, 6, 3, nv)
    ubar_s = (U[:, :, 0] + U[:, :, 1] + U[:, :, 2]) / 3.0
    sub_g = (FAN_GRAD @ mesh.grad_lambda.T).reshape(-1, 6, 3, 2)
    grad = U.swapaxes(-1, -2) @ sub_g  # (NT, 6, nv, 2)
    xy_s = FAN_CENTROID @ mesh.verts[mesh.tris]
    central = (
        mesh.areas[:, None, None] / 18.0 * model.jac_apply(ubar_s, grad, xy_s)
    )
    speeds = model.max_wavespeed(
        U[:, :, :, None, :], sub_g[:, :, None], xy_s[:, :, None, None, :]
    )
    alpha_s = speeds.max(axis=(2, 3)) * (mesh.areas[:, None] / 3.0)
    contrib = central[:, :, None, :] + alpha_s[:, :, None, None] * (
        U[:, :, :2, :] - ubar_s[:, :, None, :]
    )
    # Local point DoF d is corner `corner[d, i]` of sub-triangle SLOT_SUB[d, i].
    corner = (SUB_CORNERS[SLOT_SUB, 0] != np.arange(6)[:, None]).astype(int)
    Phi = (
        contrib[:, SLOT_SUB[:, 0], corner[:, 0]]
        + contrib[:, SLOT_SUB[:, 1], corner[:, 1]]
    )
    return Phi / mesh.point_area[point_dofs(mesh)][..., None]


@pytest.mark.parametrize("which", ["euler", "advection", "kpp"])
def test_point_residuals_match_nv_last_kernel(which):
    # The component-major kernel agrees with the nv-last one to 1e-13
    # relative on random admissible states of a jittered mesh, whether the
    # coefficients come component-major from Tables or as a plain array.
    mesh = named(rect_mesh((0.0, 1.0, 0.0, 1.0), 7, jitter=0.3, seed=9))
    rng = np.random.default_rng(12)
    if which == "euler":
        model = Euler()

        def states(n):
            return model.conserved(
                0.2 + 2.0 * rng.random(n), rng.standard_normal(n),
                rng.standard_normal(n), 0.1 + 2.0 * rng.random(n),
            )
    else:
        model = LinearAdvection(rotation_velocity) if which == "advection" else KPP()

        def states(n):
            return rng.uniform(-2.0, 4.0, (n, 1))

    tb = Tables(mesh)
    lo = LowOrder(tb, model, all_outflow(mesh, model))
    ubar, upt = states(mesh.num_tris), states(mesh.num_points)
    coef = tb.coefficients(ubar, upt)
    want = nv_last_point_residuals(lo, coef.swapaxes(0, 1)).swapaxes(0, 1)
    scale = np.abs(want).max()
    for c in (coef, np.ascontiguousarray(coef)):
        got = lo.point_residuals(c)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * scale


def test_lo_average_fluxes_on_outflow_edges_are_the_own_element_flux():
    # An `Outflow` edge sees its own element, so the LLF flux there is
    # f(ubar_K) . n |e|: only the element holding mass sends any across the
    # inflow side.
    mesh = rect_mesh((0.0, 1.0, 0.0, 1.0), 4)
    model = LinearAdvection(np.array([1.0, 0.0]))
    ubar = np.zeros((mesh.num_tris, 1))
    ubar[0] = 1.0
    F = LowOrder(Tables(mesh), model, all_outflow(mesh, model)).average_fluxes(
        ubar, 0.0
    )
    be = mesh.boundary_edges
    own = ubar[mesh.edge_tris[be, 0]]
    n = mesh.edge_normal[be]
    want = model.flux_normal(own, n, mesh.edge_mid[be]) * mesh.edge_length[be, None]
    assert np.array_equal(F[be], want)
    inflow = n[:, 0] < -0.5
    assert inflow.sum() == 4
    assert np.count_nonzero(F[be][inflow]) <= 1
