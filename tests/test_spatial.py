"""Structural properties of the spatial operators and boundary fluxes."""

import warnings

import numpy as np
import pytest

from triblend.boundary import BoundaryHandler, FarField, Outflow, Wall
from triblend.exceptions import ConfigError
from triblend.mesh import triangle_geometry
from triblend.meshgen import rect_mesh
from triblend.models import KPP, Euler, LinearAdvection
from triblend.spatial_ho import HighOrder, Tables
from triblend.spatial_lo import FAN_CENTROID, FAN_GRAD, SUB_CORNERS, LowOrder
from triblend.timeloop import Stepper, initialize


def named(mesh, name="out"):
    mesh.name_boundary(lambda mids: [name] * len(mids))
    return mesh


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
        [mesh.point_xy[mesh.tri_point_dofs], mesh.centroids[:, None]], axis=1
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
    sub_g = (FAN_GRAD @ mesh.grad_lambda).reshape(-1, 6, 3, 2)
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
    _, want_g = triangle_geometry(xy)
    got_g = (FAN_GRAD @ mesh.grad_lambda).reshape(want_g.shape)
    assert np.abs(got_g - want_g).max() <= 1e-13 * np.abs(want_g).max()
    assert set(np.unique(FAN_GRAD)) <= set(range(-2, 4))
    got_c = Tables(mesh).element_points(FAN_CENTROID)
    assert np.abs(got_c - xy.mean(axis=2)).max() < 1e-15


def reference_phi(ho, ubar, upt, t):
    """Phi from per-element mapped tables, as stored before the reference
    operators: DVOL_MAT[k, j, (q, d)] = w_q (grad phi_j)_d and
    W_EDGE_MAT[k, j, (l, q)] = s_{k,l} |e_{k,l}| w_q phi_j on each local
    edge in the element's orientation."""
    tb, model = ho.t, ho.model
    mesh = tb.mesh
    nt, nv = ubar.shape
    dvol = np.einsum("q,qjm,kmd->kjqd", tb.wq_vol, tb.DPHI_V, mesh.grad_lambda)
    dvol_mat = dvol.reshape(nt, 7, -1)
    oi = (1 - mesh.tri_edge_orient) // 2
    phi_per = tb.PHI_E[oi, np.arange(3)]  # (NT, 3, nqe, 7)
    fac = mesh.tri_edge_orient * mesh.edge_length[mesh.tri_edges]
    w_edge = phi_per * tb.wq_edge[:, None] * fac[..., None, None]
    w_edge_mat = w_edge.reshape(nt, 3 * tb.nqe, 7).swapaxes(1, 2)

    coef = tb.coefficients(ubar, upt)
    xy = tb.element_points(tb.BARY_V)
    fq = model.flux(tb.PHI_V @ coef, xy)  # (NT, nqv, nv, 2)
    vol = -(dvol_mat @ fq.swapaxes(2, 3).reshape(nt, -1, nv))
    vol *= mesh.areas[:, None, None]
    fluxhat, _, _ = ho.interface_fluxes(upt, t)
    surf = w_edge_mat @ fluxhat[mesh.tri_edges].reshape(nt, -1, nv)
    return (tb.P @ (vol + surf)) / mesh.areas[:, None, None]


@pytest.mark.parametrize("which", ["euler", "advection"])
def test_ho_residual_matches_per_element_tables(small_mesh, which):
    mesh = small_mesh
    if which == "euler":
        model = Euler()
        u0 = euler_field
        bc = {"out": FarField(lambda x, t: euler_field(x))}
    else:
        model = LinearAdvection(rotation_velocity)

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
    got = ho.compute(tb.coefficients(ubar, upt), upt, 0.0).Phi
    want = reference_phi(ho, ubar, upt, 0.0)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_edge_side_gradients_exact_on_quadratics(small_mesh):
    # Quadratics lie in the element space, so both sides of every interior
    # edge see the exact gradient and Hessian.
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
    edges = np.flatnonzero(mesh.edge_tris[:, 1] >= 0)
    grad, hess = tb.edge_side_gradients(tb.coefficients(ubar, upt), edges)
    x, y = tb.XY_E[edges].T  # (nqe, E)
    _, c1, c2, c3, c4, c5 = c.T[:, :, None, None]  # (nv, 1, 1)
    want_grad = np.stack([c1 + 2 * c3 * x + c4 * y, c2 + c4 * x + 2 * c5 * y])
    want_hess = np.stack([2 * c3, c4, 2 * c5])
    assert grad.shape == (2, 2, 2, tb.nqe, len(edges))
    assert hess.shape == (2, 3, 2, tb.nqe, len(edges))
    for s in range(2):
        assert np.abs(grad[s] - want_grad).max() < 1e-11
        assert np.abs(hess[s] - want_hess).max() < 1e-9


def test_static_bytes_per_triangle():
    # The element terms, the fan geometry and the volume quadrature points
    # come from reference tables and the affine map, so the spatial
    # operators, sparse point scatter included, hold at most 480 B of
    # arrays per triangle.
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
    assert total / mesh.num_tris <= 480


def test_ho_average_row_equals_edge_flux_balance(small_mesh):
    mesh = small_mesh
    model = LinearAdvection(rotation_velocity)
    bc = BoundaryHandler(mesh, model, {"out": Outflow()})
    tb = Tables(mesh)
    ho = HighOrder(tb, model, bc)

    def u0(xy):
        return np.sin(2 * np.pi * xy[..., 0:1]) * np.cos(np.pi * xy[..., 1:2])

    ubar, upt = initialize(tb, u0)
    res = ho.compute(tb.coefficients(ubar, upt), upt, 0.0)
    div = np.einsum(
        "ke,kev->kv",
        mesh.tri_edge_orient.astype(float),
        res.F_edge[mesh.tri_edges],
    ) / mesh.areas[:, None]
    scale = max(1.0, np.abs(res.Phi[:, 6]).max())
    assert np.abs(res.Phi[:, 6] - div).max() < 1e-12 * scale


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
    ho = HighOrder(tb, model)
    omega, _fb = ho.omega_weights(upt[mesh.tri_point_dofs])
    nv = model.nvars
    tot = np.zeros((mesh.num_points, nv, nv))
    np.add.at(tot, mesh.tri_point_dofs, omega)
    err = np.abs(tot - np.eye(nv)).max()
    assert err < 1e-12


def test_point_sums_equal_add_at_bitwise(small_mesh):
    mesh = small_mesh
    tb = Tables(mesh)
    rng = np.random.default_rng(7)
    for shape in [(), (3,), (4, 4)]:
        size = (mesh.num_tris, 6) + shape
        x = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
        want = np.zeros((mesh.num_points,) + shape)
        np.add.at(want, mesh.tri_point_dofs, x)
        got = tb.point_sums(x)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    want = np.zeros(mesh.num_points)
    np.add.at(want, mesh.tri_point_dofs, 1.0)
    assert np.array_equal(tb.point_count, want)


def test_omega_nonfinite_patch_sum_falls_back_quietly(small_mesh):
    # A NaN state makes its point's patch sum NaN: that point takes the
    # arithmetic weights without reaching det/inv (no RuntimeWarning), and
    # every other point keeps its upwind weights.
    mesh = small_mesh
    model = Euler()
    upt = euler_field(mesh.point_xy)
    tb = Tables(mesh)
    ho = HighOrder(tb, model)
    omega0, fb0 = ho.omega_weights(upt[mesh.tri_point_dofs])
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
        omega, fb = ho.omega_weights(upt[mesh.tri_point_dofs])
    hit = mesh.tri_point_dofs == bad
    count = hit.sum()
    assert fb == fb0 + 1
    unit = np.broadcast_to(np.eye(4) / count, (count, 4, 4))
    assert np.array_equal(omega[hit], unit)
    assert np.array_equal(omega[~hit], omega0[~hit])


@pytest.mark.parametrize("which", ["advection", "euler"])
def test_omega_built_once_for_static_signs(small_mesh, monkeypatch, which):
    # Linear advection's sign matrices do not depend on the state, so its
    # weights are built on the first call and reused; Euler's are rebuilt
    # on every call.  Either way they equal a fresh operator's bitwise.
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
    sign = model.sign_jac_normal

    def counted(*args):
        calls.append(1)
        return sign(*args)

    monkeypatch.setattr(model, "sign_jac_normal", counted)
    for field in fields:
        ubar, upt = initialize(tb, field)
        got = ho.compute(tb.coefficients(ubar, upt), upt, 0.0)
    assert len(calls) == (1 if which == "advection" else len(fields))
    fresh = HighOrder(tb, model, bc)
    want = fresh.compute(tb.coefficients(ubar, upt), upt, 0.0)
    assert np.array_equal(got.Wpt, want.Wpt)
    assert got.omega_fallback_points == want.omega_fallback_points
    u_loc = upt[mesh.tri_point_dofs]
    omega, fb = ho.omega_weights(u_loc)
    omega_fresh, fb_fresh = fresh.omega_weights(u_loc)
    assert omega.tobytes() == omega_fresh.tobytes()
    assert fb == fb_fresh
    assert omega.flags.writeable == (which == "euler")


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
    xq = Tables(mesh).XY_E[mesh.boundary_edges]
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
    xq = tb.XY_E[be]
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
        ghost = bc.exterior(xq, t)
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
    return bc.exterior(x, t)


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
    xq = tb.XY_E[be]
    tr = states((nb, tb.nqe))
    ubar0 = states((nb,))
    f = bc.ho_flux(tr, n, xq, t)
    g = bc.ghost_average(ubar0, n, mesh.edge_mid[be], t)
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
    res = lo.compute(tb.coefficients(ubar, upt), 0.0)

    acc = np.zeros_like(upt)
    np.add.at(acc, mesh.tri_point_dofs, res.Phi_pt)
    upt2 = upt - dt * acc
    div = np.einsum(
        "ke,kev->kv",
        mesh.tri_edge_orient.astype(float),
        res.F_edge[mesh.tri_edges],
    )
    ubar2 = ubar - dt / mesh.areas[:, None] * div

    lo_bound = min(upt.min(), ubar.min(), 0.5)
    hi_bound = max(upt.max(), ubar.max(), 0.5)
    assert upt2.min() >= lo_bound - 1e-12
    assert upt2.max() <= hi_bound + 1e-12
    assert ubar2.min() >= lo_bound - 1e-12
    assert ubar2.max() <= hi_bound + 1e-12
