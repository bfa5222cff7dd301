"""The per-edge maps that `Tables` keeps for the damping and the blend, the
kernels that read them, and where the operators form positions."""

import numpy as np
import pytest

from triblend.boundary import BoundaryHandler, FarField, Outflow, Wall
from triblend.limiting import (
    GasDomain,
    IntervalDomain,
    _limit_candidates,
    blend_average_fluxes,
    damping_sigma,
    damping_theta,
)
from triblend.meshgen import rect_mesh
from triblend.models import KPP, Euler, LinearAdvection, llf_flux, nv_first
from triblend.spatial_ho import ROTATE, HighOrder, Tables, _local_edges, block_matmul
from triblend.spatial_lo import LowOrder
from triblend.timeloop import Stepper, initialize

MAPS = ("jump_index", "jump_normal_grad", "side_elems", "side_signs")
SIDE_MAPS = MAPS[2:]


def rotation_velocity(xy):
    return np.stack([0.5 - xy[..., 1], xy[..., 0] - 0.5], axis=-1)


def euler_field(xy):
    m = Euler()
    x, y = xy[..., 0], xy[..., 1]
    rho = 1.0 + 0.4 * np.sin(2 * np.pi * x) * np.cos(np.pi * y)
    vx = 0.3 * np.cos(np.pi * x)
    vy = -0.2 + 0.1 * np.sin(np.pi * y)
    p = 1.5 + 0.5 * np.cos(np.pi * x * y)
    return m.conserved(rho, vx, vy, p)


def scalar_field(xy):
    x, y = xy[..., 0], xy[..., 1]
    jump = np.sign(np.sin(5.0 * x + 3.0 * y))
    return (0.5 + 0.45 * jump * np.cos(2.0 * y))[..., None]


def mixed_case(which):
    """A jittered unit square whose left, right and span (top and bottom)
    edges carry a far field, an outflow and a wall (Euler) or a second
    far field (scalar); the model, handler, domain and initial field."""
    mesh = rect_mesh((0.0, 1.0, 0.0, 1.0), 7, jitter=0.25, seed=21)
    mesh.name_boundary(
        lambda mids: [
            "left" if x < 1e-12 else "right" if x > 1.0 - 1e-12 else "span"
            for x, _ in mids
        ]
    )
    if which == "euler":
        model = Euler()
        kinds = {
            "left": FarField(lambda x, t: euler_field(x)),
            "right": Outflow(),
            "span": Wall(),
        }
        bc = BoundaryHandler(mesh, model, kinds)
        return mesh, model, bc, GasDomain(), euler_field
    model = LinearAdvection(rotation_velocity) if which == "advection" else KPP()
    kinds = {
        "left": FarField(lambda x, t: np.full(x.shape[:-1] + (1,), 0.2)),
        "right": Outflow(),
        "span": FarField(lambda x, t: np.full(x.shape[:-1] + (1,), 0.7)),
    }
    dom = IntervalDomain(0.0, 1.0)
    return mesh, model, BoundaryHandler(mesh, model, kinds), dom, scalar_field


CASES = ["euler", "advection"]


@pytest.mark.parametrize("which", CASES)
def test_kept_maps_equal_their_derivation_from_the_mesh(which):
    # Edge by edge from the mesh: the jump kernel's gather index and
    # n . grad(lambda) of each interior edge side, and each edge side's
    # element and sign, where side 1 of a boundary edge repeats side 0
    # with sign +1.
    mesh = mixed_case(which)[0]
    tb = Tables(mesh)
    nt, ne = mesh.num_tris, mesh.num_edges
    ei = tb.interior_edges
    assert 0 < len(ei) < ne and len({nt, ne, len(ei)}) == 3
    idx = np.empty((2, 7, len(ei)), dtype=np.int64)
    nd = np.empty((2, 2, len(ei)))
    for i, e in enumerate(ei):
        nx, ny = mesh.edge_normal[e]
        for s in range(2):
            k = mesh.edge_tris[e, s]
            rot = ROTATE[list(mesh.tri_edges[k]).index(e)]
            idx[s, :, i] = rot * nt + k
            for a in range(2):
                gx, gy = mesh.grad_lambda[:, rot[a], k]
                nd[s, a, i] = nx * gx + ny * gy
    elems = np.empty((2, ne), dtype=np.int64)
    signs = np.empty((2, ne), dtype=np.int64)
    for e, (k0, k1) in enumerate(mesh.edge_tris):
        boundary = k1 < 0
        elems[:, e] = (k0, k0) if boundary else (k0, k1)
        signs[:, e] = (1, 1) if boundary else (1, -1)
    want = {
        "jump_index": (idx, np.int32),
        "jump_normal_grad": (nd, np.float64),
        "side_elems": (elems, np.int32),
        "side_signs": (signs, np.int8),
    }
    for name, (value, dtype) in want.items():
        got = getattr(tb, name)
        assert got.dtype == dtype and nt not in got.shape, name
        assert got.tobytes() == value.astype(dtype).tobytes(), name
    assert (elems[1] == elems[0]).sum() == len(mesh.boundary_edges)


# The per-call formulas that the kept maps replace.


def per_call_edge_side_gradients(tb, coef):
    mesh = tb.mesh
    _, nt, nv = coef.shape
    edges = tb.interior_edges
    ne = len(edges)
    local = _local_edges(mesh, mesh.edge_tris[edges], edges).T.astype(np.int8)
    jump = np.zeros((3, nv, tb.nqe, ne))
    flat = nv_first(coef).reshape(nv, -1)
    gl = mesh.grad_lambda.reshape(2, -1)
    nx, ny = np.take(mesh.edge_normal, edges, axis=0).T
    buf = np.empty((tb.nqe, ne))
    for s, sign in ((0, 1.0), (1, -1.0)):
        idx = np.take(ROTATE.T * nt, local[s], axis=1)
        idx += mesh.edge_tris[edges, s]
        gx, gy = np.take(gl, idx[:2], axis=1)
        nd = nx * gx
        nd += ny * gy
        n0, n1 = nd
        rows = (
            ((0, sign * n0), (1, sign * n1)),
            ((2, sign * n0 * n0), (3, sign * 2.0 * n0 * n1), (4, sign * n1 * n1)),
        )
        for v in range(nv):
            r = block_matmul(tb.EDGE_DERIV_OP[s], np.take(flat[v], idx))
            r = r.reshape(5, tb.nqe, ne)
            for out, terms in zip(jump[:2, v], rows):
                for j, w in terms:
                    out += np.multiply(w, r[j], out=buf)
    np.matmul(tb.EDGE_DT, jump[0], out=jump[2])
    jump[2] /= np.take(mesh.edge_length, edges)
    return jump


def per_call_surface_rows(tb, fluxhat):
    mesh = tb.mesh
    nt, nqe, nv = mesh.num_tris, tb.nqe, fluxhat.shape[-1]
    q = np.arange(nqe)[:, None]
    forward = np.ascontiguousarray(mesh.tri_edge_orient.T)[:, None, :] > 0
    rows = np.where(forward, q, nqe - 1 - q)
    rows += nqe * np.ascontiguousarray(mesh.tri_edges.T)[:, None, :]
    fh = np.empty((nv, 3, nqe, nt))
    np.take(nv_first(fluxhat).reshape(nv, -1), rows, axis=1, out=fh, mode="wrap")
    fh *= (
        mesh.tri_edge_orient * mesh.edge_length[mesh.tri_edges] / mesh.areas[:, None]
    ).T[:, None, :]
    return fh.reshape(nv, 3 * nqe, nt)


def per_call_blend_average_fluxes(tb, domain, ubar, F_lo, F_ho, theta, dt):
    mesh = tb.mesh
    interior = mesh.edge_tris[:, 1] >= 0
    k = np.where(interior, mesh.edge_tris.T, mesh.edge_tris[:, 0])
    sign = np.where(interior, [[1.0], [-1.0]], 1.0)
    return _limit_candidates(
        domain, np.take(ubar, k, axis=0), 3.0 * dt / np.take(mesh.areas, k) * sign,
        F_lo, F_ho, np.take(theta, k).min(axis=0),
    )


def per_call_damping_theta(tb, model, coef, speed, dt):
    mesh = tb.mesh
    sigma = damping_sigma(tb, model, coef)
    k = np.take(mesh.edge_tris, tb.interior_edges, axis=0).T.ravel()
    rate = speed * sigma.T / tb.EDGE_DIST
    expo = np.bincount(k, weights=rate.ravel(), minlength=mesh.num_tris)
    n_int = np.bincount(k, minlength=mesh.num_tris)
    return np.exp(-dt * expo / np.maximum(n_int, 1))


def per_call_average_fluxes(lo, ubar, t):
    mesh, model = lo.t.mesh, lo.model
    left, right = mesh.edge_tris[:, 0], mesh.edge_tris[:, 1]
    u0 = np.take(ubar, left, axis=0)
    u1 = np.take(ubar, np.where(right >= 0, right, left), axis=0)
    be = mesh.boundary_edges
    u1[be] = lo.bc.ghost_average(u0[be], mesh.edge_normal[be], t)
    if model.static_signs:
        w = lo._llf_weights()
        return w[0][:, None] * u0 + w[1][:, None] * u1
    fn = llf_flux(model, u0, u1, mesh.edge_normal, mesh.edge_mid)
    return fn * mesh.edge_length[:, None]


@pytest.mark.parametrize("which", ["euler", "advection", "kpp"])
def test_map_kernels_equal_the_per_call_formulas(which):
    # Bitwise on discontinuous states: the damping's jumps and theta, the
    # HO surface rows, the average-flux blend (with low-order rescues and
    # blends below 1) and the LO average fluxes.
    mesh, model, bc, dom, field = mixed_case(which)
    tb = Tables(mesh)
    ubar, upt = initialize(tb, field)
    rng = np.random.default_rng(5)
    coef = tb.coefficients(ubar, upt)
    t, dt = 0.1, 0.01

    got = tb.edge_side_gradients(coef)
    assert np.abs(got).max() > 1.0
    assert got.tobytes() == per_call_edge_side_gradients(tb, coef).tobytes()

    ho = HighOrder(tb, model, bc, enforce_domain=dom)
    fluxhat = ho.interface_fluxes(upt, t)[0]
    rows = tb.surface_rows(fluxhat)
    assert rows.tobytes() == per_call_surface_rows(tb, fluxhat).tobytes()

    speed = rng.uniform(0.5, 2.0, len(tb.interior_edges))
    theta = damping_theta(tb, model, coef, speed, dt)
    assert theta.min() < 1.0
    want = per_call_damping_theta(tb, model, coef, speed, dt)
    assert theta.tobytes() == want.tobytes()

    lo = LowOrder(tb, model, bc)
    F_lo = lo.average_fluxes(ubar, t)
    assert F_lo.tobytes() == per_call_average_fluxes(lo, ubar, t).tobytes()
    F_ho = F_lo + rng.standard_normal(F_lo.shape) * np.abs(F_lo).max()
    big_dt = 20.0 * dt  # low-order candidates that leave the domain too
    got = blend_average_fluxes(tb, dom, ubar, F_lo, F_ho, theta, big_dt)
    want = per_call_blend_average_fluxes(tb, dom, ubar, F_lo, F_ho, theta, big_dt)
    assert got[2] == want[2] > 0
    assert 0.0 < got[1].min() < 1.0
    for a, b in zip(got[:2], want[:2]):
        assert a.tobytes() == b.tobytes()


def one_step(which, mode):
    mesh, model, bc, dom, field = mixed_case(which)
    st = Stepper(mesh, model, bc, mode=mode, enforce_domain=dom)
    ubar, upt = initialize(st.tables, field)
    st.rk3_step(ubar, upt, 0.0, st.compute_dt(ubar, upt))
    return st


@pytest.mark.parametrize("which", CASES)
def test_maps_are_read_only_and_built_only_where_read(which):
    # A `ho` step builds none of the maps, a `bp` step only the blend's and
    # a `full` step all of them; each is read-only.
    assert not set(MAPS) & set(vars(one_step(which, "ho").tables))
    assert set(MAPS) & set(vars(one_step(which, "bp").tables)) == set(SIDE_MAPS)
    tb = one_step(which, "full").tables
    assert set(MAPS) <= set(vars(tb))
    for name in MAPS:
        a = getattr(tb, name)
        assert not a.flags.writeable, name
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0


@pytest.mark.parametrize("which", ["euler", "kpp"])
def test_positions_only_at_the_boundary_for_models_that_ignore_them(
    which, monkeypatch
):
    # Euler and KPP do not read xy: in a `full` step and its time step
    # every model call outside the boundary handler gets xy = None, no
    # element positions are formed, and edge positions only for the
    # handler, whose far-field states read them.
    mesh, model, bc, dom, field = mixed_case(which)
    st = Stepper(mesh, model, bc, mode="full", enforce_domain=dom)
    ubar, upt = initialize(st.tables, field)
    points, xys = [], []
    in_bc = [False]

    def spy(obj, name, record):
        fn = getattr(obj, name)

        def wrapped(*args, **kwargs):
            record(name, args, kwargs)
            return fn(*args, **kwargs)

        monkeypatch.setattr(obj, name, wrapped)

    for name in ("element_points", "edge_points"):
        spy(st.tables, name, lambda name, args, kw: points.append((name, args)))
    for name in ("flux_normal", "sign_jac_normal", "max_wavespeed", "jac_apply"):
        spy(model, name, lambda name, args, kw: xys.append(
            (name, in_bc[0], kw.get("xy", args[2] if len(args) > 2 else None))
        ))
    for name in ("ho_flux", "ghost_average"):
        fn = getattr(bc, name)

        def inside(*args, _fn=fn):
            in_bc[0] = True
            try:
                return _fn(*args)
            finally:
                in_bc[0] = False

        monkeypatch.setattr(bc, name, inside)
    st.rk3_step(ubar, upt, 0.0, st.compute_dt(ubar, upt))
    assert [name for name, _ in points] == ["edge_points"] * 3
    for _, (edges,) in points:
        assert np.array_equal(edges, mesh.boundary_edges)
    outside = {name for name, bc_call, _ in xys if not bc_call}
    assert {"flux_normal", "sign_jac_normal", "max_wavespeed", "jac_apply"} <= outside
    assert all(xy is None for _, bc_call, xy in xys if not bc_call)
    assert any(xy is not None for _, bc_call, xy in xys if bc_call)
