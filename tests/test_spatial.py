"""Structural properties of the spatial operators and boundary fluxes."""

import warnings

import numpy as np
import pytest

from triblend.boundary import BoundaryHandler, FarField, Outflow, Wall
from triblend.exceptions import ConfigError
from triblend.meshgen import rect_mesh
from triblend.models import Euler, LinearAdvection
from triblend.spatial_ho import HighOrder, Tables
from triblend.spatial_lo import LowOrder
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


def test_sub_triangle_areas(small_mesh):
    tb = Tables(small_mesh)
    assert np.allclose(tb.SUB_AREA, small_mesh.areas[:, None] / 6.0, rtol=1e-13)


def test_sub_normals_sum_zero(small_mesh):
    tb = Tables(small_mesh)
    assert np.abs(tb.SUB_NORMAL.sum(axis=2)).max() < 1e-12


def test_ho_average_row_equals_edge_flux_balance(small_mesh):
    mesh = small_mesh
    model = LinearAdvection(rotation_velocity)
    bc = BoundaryHandler(mesh, model, {"out": Outflow()})
    tb = Tables(mesh)
    ho = HighOrder(tb, model, bc)

    def u0(xy):
        return np.sin(2 * np.pi * xy[..., 0:1]) * np.cos(np.pi * xy[..., 1:2])

    ubar, upt = initialize(tb, u0)
    res = ho.compute(ubar, upt, 0.0)
    div = np.einsum(
        "ke,kev->kv",
        mesh.tri_edge_orient.astype(float),
        res.F_edge[mesh.tri_edges],
    ) / mesh.areas[:, None]
    scale = max(1.0, np.abs(res.Phi[:, 6]).max())
    assert np.abs(res.Phi[:, 6] - div).max() < 1e-12 * scale


@pytest.mark.parametrize("eps_policy", ["area", "zero"])
@pytest.mark.parametrize("which", ["euler", "advection"])
def test_omega_partition_of_unity(small_mesh, eps_policy, which):
    mesh = small_mesh
    if which == "euler":
        model = Euler()
        upt = euler_field(mesh.point_xy)
    else:
        model = LinearAdvection(rotation_velocity)
        upt = np.sin(3 * mesh.point_xy[:, 0:1] + mesh.point_xy[:, 1:2])
    tb = Tables(mesh)
    ho = HighOrder(tb, model, eps_policy=eps_policy)
    omega, _fb = ho.omega_weights(upt, mesh.point_xy[mesh.tri_point_dofs])
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
    xy = mesh.point_xy[mesh.tri_point_dofs]
    omega0, fb0 = ho.omega_weights(upt, xy)
    bad = int(np.flatnonzero(~mesh.boundary_point_mask)[0])
    upt[bad] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        omega, fb = ho.omega_weights(upt, xy)
    hit = mesh.tri_point_dofs == bad
    count = hit.sum()
    assert fb == fb0 + 1
    unit = np.broadcast_to(np.eye(4) / count, (count, 4, 4))
    assert np.array_equal(omega[hit], unit)
    assert np.array_equal(omega[~hit], omega0[~hit])


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
    res = lo.compute(ubar, upt, 0.0)

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
