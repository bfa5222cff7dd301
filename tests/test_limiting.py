"""Invariant domains, blend bounds, and the jump-damping factor."""

import numpy as np
import pytest

from triblend.boundary import BoundaryHandler, FarField
from triblend.limiting import (
    GasDomain,
    IntervalDomain,
    blend_average_fluxes,
    blend_point_residuals,
    damping_sigma,
    damping_theta,
)
from triblend.meshgen import rect_mesh
from triblend.models import Euler, LinearAdvection
from triblend.spatial_ho import Tables
from triblend.spatial_lo import LowOrder
from triblend.timeloop import Stepper, initialize


def named(mesh, name="out"):
    mesh.name_boundary(lambda mids: [name] * len(mids))
    return mesh


def rotation_velocity(xy):
    return np.stack([0.5 - xy[..., 1], xy[..., 0] - 0.5], axis=-1)


def bisect_eta(dom, base, d, iters=60):
    """Reference blend bound by bisection on the membership predicate."""
    if dom.contains(base + d):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if dom.contains(base + mid * d):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------


def test_interval_domain_basics():
    dom = IntervalDomain(0.0, 1.0)
    assert dom.contains(np.array([0.5]))
    assert not dom.contains(np.array([-0.1]))
    assert dom.contains(np.array([-1e-10]), slack=1e-9)
    # blend from the middle toward an overshoot: eta = room / step
    eta = dom.max_blend(np.array([0.5]), np.array([1.0]))
    assert abs(eta - 0.5) < 1e-12
    # infeasible base
    assert dom.max_blend(np.array([1.2]), np.array([-1.0])) == 0.0
    # unconstrained direction
    assert abs(dom.max_blend(np.array([0.5]), np.array([0.0])) - 1.0) < 1e-11


def test_gas_domain_basics():
    m = Euler()
    dom = GasDomain()
    u = m.conserved(1.0, 0.3, -0.2, 2.0)
    assert dom.contains(u)
    assert not dom.contains(np.array([-1.0, 0.0, 0.0, 1.0]))
    assert not dom.contains(m.conserved(1.0, 3.0, 0.0, 1.0) * np.array([1, 1, 1, 0.5]))
    # scaled() multiplies the floors
    d2 = dom.scaled(2.0)
    assert d2.rho_min == 2.0 * dom.rho_min
    assert d2.e_min == 2.0 * dom.e_min


@pytest.mark.parametrize("seed", range(4))
def test_interval_max_blend_matches_bisection(seed):
    rng = np.random.default_rng(seed)
    dom = IntervalDomain(0.0, 1.0)
    for _ in range(100):
        base = np.array([rng.uniform(0.0, 1.0)])
        scale = 10.0 ** rng.uniform(-2, 2)
        d = np.array([rng.normal() * scale])
        eta = float(dom.max_blend(base, d))
        ref = bisect_eta(dom, base, d)
        assert abs(eta - ref) < 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_gas_max_blend_matches_bisection(seed):
    rng = np.random.default_rng(100 + seed)
    m = Euler()
    dom = GasDomain()
    for _ in range(100):
        base = m.conserved(
            10.0 ** rng.uniform(-3, 1),
            rng.uniform(-3, 3),
            rng.uniform(-3, 3),
            10.0 ** rng.uniform(-3, 1),
        )
        if rng.random() < 0.5:
            d = rng.normal(size=4) * 10.0 ** rng.uniform(-1, 1)
        else:
            target = np.array(
                [rng.uniform(-1, 1), rng.normal(), rng.normal(), rng.uniform(-1, 2)]
            )
            d = target - base
        eta = float(dom.max_blend(base, d))
        ref = bisect_eta(dom, base, d)
        assert abs(eta - ref) < 1e-10, (base, d)
        assert dom.contains(base + eta * d, slack=1e-9)


# ---------------------------------------------------------------------------
# blending keeps the update in the domain no matter the high-order input
# ---------------------------------------------------------------------------


def test_blended_update_bound_preserving_under_adversarial_ho():
    mesh = named(rect_mesh((0.0, 1.0, 0.0, 1.0), 6, jitter=0.25, seed=2))
    model = LinearAdvection(rotation_velocity)
    bc = BoundaryHandler(
        mesh,
        model,
        {"out": FarField(lambda x, t: np.full(x.shape[:-1] + (1,), 0.4))},
    )
    dom = IntervalDomain(0.0, 1.0)
    stepper = Stepper(mesh, model, bc, enforce_domain=dom)
    tb = stepper.tables
    lo = LowOrder(tb, model, bc)
    rng = np.random.default_rng(9)
    ubar = rng.random((mesh.num_tris, 1))
    upt = rng.random((mesh.num_points, 1))
    dt = stepper.compute_dt(ubar, upt)
    coef = tb.coefficients(ubar, upt)
    res = lo.compute(coef, 0.0)
    theta = np.ones(mesh.num_tris)

    Wpt = rng.normal(size=(mesh.num_tris, 6, 1)) * 50.0
    F_ho = rng.normal(size=(mesh.num_edges, 1)) * 50.0

    b, eta_pt, _r1 = blend_point_residuals(
        tb, dom, coef[:, :6], res.Phi_pt, Wpt, theta, dt
    )
    F, eta_e, _r2 = blend_average_fluxes(tb, dom, ubar, res.F_edge, F_ho, theta, dt)

    acc = np.zeros_like(upt)
    np.add.at(acc, mesh.tri_point_dofs, b)
    upt2 = upt - dt * acc
    div = np.einsum(
        "ke,kev->kv", mesh.tri_edge_orient.astype(float), F[mesh.tri_edges]
    )
    ubar2 = ubar - dt / mesh.areas[:, None] * div

    assert upt2.min() >= -1e-12 and upt2.max() <= 1.0 + 1e-12
    assert ubar2.min() >= -1e-12 and ubar2.max() <= 1.0 + 1e-12
    assert (eta_pt >= 0).all() and (eta_pt <= 1).all()
    assert (eta_e >= 0).all() and (eta_e <= 1).all()


def test_blended_flux_is_conservative_across_edges():
    # The blended edge flux is a single array used by both sides, so the
    # telescoping conservation identity survives any limiting: check that a
    # closed (all-farfield, zero-state) run conserves total mass against the
    # boundary tally to round-off.  Covered end-to-end in the timeloop tests.
    mesh = named(rect_mesh((0.0, 1.0, 0.0, 1.0), 4, jitter=0.2, seed=4))
    model = LinearAdvection(rotation_velocity)
    bc = BoundaryHandler(
        mesh,
        model,
        {"out": FarField(lambda x, t: np.zeros(x.shape[:-1] + (1,)))},
    )
    dom = IntervalDomain(0.0, 1.0)
    stepper = Stepper(
        mesh,
        model,
        bc,
        enforce_domain=dom,
        assert_domain=IntervalDomain(-1e-9, 1.0 + 1e-9),
    )

    def u0(xy):
        r = np.hypot(xy[..., 0] - 0.5, xy[..., 1] - 0.5)
        return np.where(r < 0.25, 1.0, 0.0)[..., None]

    ubar, upt = initialize(stepper.tables, u0)
    ubar, upt, journal, totals = stepper.run(ubar, upt, 0.05)
    drift = totals["mass"] - totals["mass0"] + totals["bflux_int"]
    assert np.abs(drift).max() < 1e-12 * max(1.0, np.abs(totals["mass0"]).max())


# ---------------------------------------------------------------------------
# jump damping
# ---------------------------------------------------------------------------


def _theta_for(mesh, model, ubar, upt, dt=1e-3):
    tb = Tables(mesh)
    coef = tb.coefficients(ubar, upt)
    trace = tb.N1D @ upt[tb.edge_dofs]
    return damping_theta(tb, model, coef, ubar, upt, trace, dt)


def test_damping_is_one_on_constants():
    mesh = named(rect_mesh((0.0, 1.0, 0.0, 1.0), 5, jitter=0.25, seed=6))
    model = LinearAdvection((1.0, 0.3))
    ubar = np.full((mesh.num_tris, 1), 2.5)
    upt = np.full((mesh.num_points, 1), 2.5)
    theta = _theta_for(mesh, model, ubar, upt)
    assert (theta == 1.0).all()


def test_damping_scale_and_shift_invariance():
    mesh = named(rect_mesh((0.0, 1.0, 0.0, 1.0), 5, jitter=0.25, seed=6))
    model = LinearAdvection((1.0, 0.3))
    rng = np.random.default_rng(3)
    ubar = rng.random((mesh.num_tris, 1))
    upt = rng.random((mesh.num_points, 1))
    t1 = _theta_for(mesh, model, ubar, upt)
    t2 = _theta_for(mesh, model, 2.0 * ubar + 5.0, 2.0 * upt + 5.0)
    assert np.abs(t1 - t2).max() < 1e-12
    assert (t1 > 0).all() and (t1 <= 1).all()


def test_damping_rotation_invariance_scalar():
    base = rect_mesh((0.0, 1.0, 0.0, 1.0), 5, jitter=0.25, seed=8)
    a = np.array([0.8, -0.3])
    model = LinearAdvection(a)
    rng = np.random.default_rng(12)
    ubar = rng.random((base.num_tris, 1))
    upt_vals = rng.random(base.num_points)

    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    R = np.array([[c, -s], [s, c]])
    from triblend.mesh import Mesh

    rot = Mesh(base.verts @ R.T, base.tris.copy())
    model_rot = LinearAdvection(R @ a)

    t1 = _theta_for(base, model, ubar, upt_vals[:, None])
    t2 = _theta_for(rot, model_rot, ubar, upt_vals[:, None])
    assert np.abs(t1 - t2).max() < 1e-10


def test_damping_reacts_to_discontinuities():
    mesh = named(rect_mesh((0.0, 1.0, 0.0, 1.0), 6, jitter=0.25, seed=7))
    model = LinearAdvection((1.0, 0.0))

    def smooth(xy):
        return 0.5 + 0.3 * np.sin(2 * np.pi * xy[..., 0:1])

    def sharp(xy):
        return np.where(xy[..., 0:1] < 0.5, 1.0, 0.0)

    tb = Tables(mesh)
    ub_s, up_s = initialize(tb, smooth)
    ub_d, up_d = initialize(tb, sharp)
    dt = 5e-3
    th_smooth = _theta_for(mesh, model, ub_s, up_s, dt)
    th_sharp = _theta_for(mesh, model, ub_d, up_d, dt)
    assert th_sharp.min() < th_smooth.min()
    assert th_smooth.min() > 0.9

def test_damping_sigma_scale_and_shift_invariance():
    mesh = named(rect_mesh((0.0, 1.0, 0.0, 1.0), 5, jitter=0.25, seed=6))
    model = LinearAdvection((1.0, 0.3))
    rng = np.random.default_rng(3)
    ubar = rng.random((mesh.num_tris, 1))
    upt = rng.random((mesh.num_points, 1))

    def sig(ub, up):
        tb = Tables(mesh)
        coef = tb.coefficients(ub, up)
        return damping_sigma(tb, model, coef, ub, up)[1]

    s0 = sig(ubar, upt)
    scale = s0.max()
    assert scale > 0
    assert np.abs(sig(3.0 * ubar, 3.0 * upt) - s0).max() < 1e-12 * scale
    assert np.abs(sig(ubar + 5.0, upt + 5.0) - s0).max() < 1e-12 * scale


def test_damping_sigma_zero_for_global_quadratic():
    # A quadratic lies in every element's polynomial space and the DoFs
    # (point values + averages) reproduce it exactly, so both derivative
    # jumps vanish across every interior edge.
    mesh = named(rect_mesh((0.0, 1.0, 0.0, 1.0), 4, jitter=0.25, seed=9))
    model = LinearAdvection((1.0, 0.3))

    def quad(xy):
        x, y = xy[..., 0], xy[..., 1]
        return (0.3 * x**2 - 0.7 * x * y + 1.1 * y**2 + 0.2 * x - y + 0.4)[
            ..., None
        ]

    upt = quad(mesh.point_xy)
    # Midpoint rule is exact for quadratics: the average is the mean of the
    # three edge-midpoint values.
    mids = 0.5 * (
        mesh.verts[mesh.tris] + mesh.verts[np.roll(mesh.tris, -1, axis=1)]
    )
    ubar = quad(mids).mean(axis=1)
    tb = Tables(mesh)
    coef = tb.coefficients(ubar, upt)
    _, sig = damping_sigma(tb, model, coef, ubar, upt)
    assert sig.max() < 1e-12


def test_damping_sigma_matches_symbolic_oracle():
    # Two triangles sharing the unit-square diagonal, hand-picked DoF data
    # with genuine derivative kinks; the jump measure is recomputed from
    # scratch with sympy.
    import sympy as sp

    from triblend.mesh import Mesh
    from triblend.quadrature import edge_rule

    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    mesh = Mesh(verts, tris)

    vert_vals = {0: 0.3, 1: -0.7, 2: 1.1, 3: 0.25}
    mid_vals = {(0, 1): 0.9, (1, 2): -0.2, (0, 2): 0.55, (2, 3): 0.1, (0, 3): -0.4}
    bar_vals = [0.35, -0.15]

    upt = np.zeros((mesh.num_points, 1))
    for v, val in vert_vals.items():
        upt[v, 0] = val
    for e in range(mesh.num_edges):
        key = tuple(sorted(mesh.edge_verts[e]))
        upt[len(mesh.verts) + e, 0] = mid_vals[key]
    ubar = np.array(bar_vals)[:, None]

    c1, c2 = 0.9, 1.7
    tb = Tables(mesh)
    coef = tb.coefficients(ubar, upt)
    model = LinearAdvection((1.0, 0.0))
    ei, sig = damping_sigma(tb, model, coef, ubar, upt, c1=c1, c2=c2)
    assert len(ei) == 1
    e = ei[0]
    assert sorted(mesh.edge_verts[e]) == [0, 2]

    # -- independent evaluation ------------------------------------------
    x, y = sp.symbols("x y")

    def poly(tri_verts, point_dofs, avg):
        M = sp.Matrix(
            [[1, 1, 1], [v[0] for v in tri_verts], [v[1] for v in tri_verts]]
        )
        lam = M.inv() * sp.Matrix([1, x, y])
        l0, l1, l2 = lam
        bub = 60 * l0 * l1 * l2
        shapes = [li * (2 * li - 1) for li in (l0, l1, l2)]
        shapes += [
            4 * l0 * l1 - bub / 3,
            4 * l1 * l2 - bub / 3,
            4 * l2 * l0 - bub / 3,
            bub,
        ]
        dofs = list(point_dofs) + [avg]
        return sum(sp.nsimplify(c) * s for c, s in zip(dofs, shapes))

    def tri_dofs(k):
        vs = tris[k]
        pts = [vert_vals[v] for v in vs]
        pts += [
            mid_vals[tuple(sorted((vs[i], vs[(i + 1) % 3])))] for i in range(3)
        ]
        return poly(verts[vs], pts, bar_vals[k])

    u0, u1 = tri_dofs(mesh.edge_tris[e, 0]), tri_dofs(mesh.edge_tris[e, 1])
    diff = sp.expand(u0 - u1)

    nx, ny = mesh.edge_normal[e]
    d_n = nx * sp.diff(diff, x) + ny * sp.diff(diff, y)
    d_t = -ny * sp.diff(diff, x) + nx * sp.diff(diff, y)
    hxx, hxy, hyy = (
        sp.diff(diff, x, 2),
        sp.diff(diff, x, y),
        sp.diff(diff, y, 2),
    )
    d_nn = nx * nx * hxx + 2 * nx * ny * hxy + ny * ny * hyy
    d_nt = -nx * ny * hxx + (nx * nx - ny * ny) * hxy + nx * ny * hyy
    d_tt = ny * ny * hxx - 2 * nx * ny * hxy + nx * nx * hyy

    rule = edge_rule(3)
    a, b = verts[mesh.edge_verts[e, 0]], verts[mesh.edge_verts[e, 1]]
    S1 = S2 = 0.0
    for t, w in zip(rule.points, rule.weights):
        px, py = a + t * (b - a)
        sub = {x: px, y: py}
        S1 += w * (abs(float(d_n.subs(sub))) + abs(float(d_t.subs(sub))))
        S2 += w * (
            abs(float(d_nn.subs(sub)))
            + abs(float(d_nt.subs(sub)))
            + abs(float(d_tt.subs(sub)))
        )

    all_dofs = np.concatenate([upt[:, 0], ubar[:, 0]])
    mean = 0.5 * (bar_vals[0] + bar_vals[1])  # equal areas
    den = np.abs(all_dofs - mean).max()

    for s in range(2):
        opp = verts[np.setdiff1d(tris[mesh.edge_tris[e, s]], mesh.edge_verts[e])[0]]
        seg = b - a
        tpar = np.clip(np.dot(opp - a, seg) / np.dot(seg, seg), 0.0, 1.0)
        ell = np.linalg.norm(opp - (a + tpar * seg))
        expected = c1 * ell * S1 / den + c2 * ell**2 * S2 / den
        assert abs(sig[0, s] - expected) < 1e-12 * max(1.0, expected)
