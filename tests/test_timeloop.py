import numpy as np
import pytest

from triblend.boundary import BoundaryHandler, FarField
from triblend.exceptions import NumericalAbort
from triblend.limiting import IntervalDomain, damping_theta
from triblend.meshgen import rect_mesh
from triblend.models import LinearAdvection
from triblend.norms import point_weights
from triblend.problems import get_problem, sample_initial
from triblend.timeloop import Stepper, initialize


def named(mesh, name="out"):
    mesh.name_boundary(lambda mids: [name] * len(mids))
    return mesh


def linear_setup(cfl=0.2, mode="ho"):
    """Advection of an affine profile: one RK step must be exact."""
    a = np.array([1.0, 2.0])
    model = LinearAdvection(a)
    mesh = named(rect_mesh((0.0, 1.0, 0.0, 1.0), 5, seed=21))

    def exact(xy, t):
        s = xy - a * t
        return (0.7 * s[..., 0] + 0.3 * s[..., 1] + 2.0)[..., None]

    bc = BoundaryHandler(mesh, model, {"out": FarField(exact)})
    stepper = Stepper(mesh, model, bc, cfl=cfl, mode=mode)
    return mesh, model, stepper, exact


def test_rk3_step_exact_on_affine_data():
    # The spatial operator reproduces affine fields exactly and the exact
    # solution is affine in time, so every stage (including the boundary
    # states at the intermediate times t+dt and t+dt/2) is exact up to
    # round-off.  A wrong stage time or Shu-Osher weight breaks this.
    mesh, model, stepper, exact = linear_setup()
    ubar, upt = initialize(stepper.tables, lambda xy: exact(xy, 0.0))
    dt = 0.013
    ubar1, upt1, _, _ = stepper.rk3_step(ubar, upt, 0.0, dt)
    want_bar, want_pt = initialize(stepper.tables, lambda xy: exact(xy, dt))
    assert np.abs(ubar1 - want_bar).max() < 1e-12
    assert np.abs(upt1 - want_pt).max() < 1e-12


def test_run_lands_exactly_on_final_time():
    mesh, model, stepper, exact = linear_setup()
    ubar, upt = initialize(stepper.tables, lambda xy: exact(xy, 0.0))
    t_end = 0.0712
    _, _, journal, totals = stepper.run(ubar, upt, t_end)
    assert totals["t"] == t_end
    assert journal[-1]["t"] == t_end
    assert totals["steps"] == len(journal)


def test_mass_accounting_closes():
    # areas @ ubar changes only through the boundary fluxes the journal
    # integrates, for every mode.
    prob = get_problem("rotating-shapes")
    model = prob.make_model(1.4)
    mesh = prob.mesh_builder(10)
    mesh.name_boundary(prob.namer)
    bc = BoundaryHandler(mesh, model, prob.boundaries(model))
    enforce, assert_ = prob.domains(model)
    for mode in ("ho", "lo", "bp", "full"):
        # Only the limited modes promise the invariant domain; asserting it
        # for ho/lo would abort on the discontinuous data.
        checked = assert_ if mode in ("bp", "full") else None
        stepper = Stepper(
            mesh, model, bc, cfl=0.2, mode=mode,
            enforce_domain=enforce, assert_domain=checked,
        )
        ubar, upt = sample_initial(prob, model, stepper.tables)
        _, _, _, totals = stepper.run(ubar, upt, 0.02)
        drift = totals["mass"] - totals["mass0"] + totals["bflux_int"]
        scale = max(1.0, np.abs(totals["mass0"]).max())
        assert np.abs(drift).max() < 1e-13 * scale, mode


def test_assert_domain_violation_aborts():
    mesh, model, stepper, exact = linear_setup()
    stepper.assert_domain = IntervalDomain(0.0, 2.5)  # data reaches 3.0
    ubar, upt = initialize(stepper.tables, lambda xy: exact(xy, 0.0))
    with pytest.raises(NumericalAbort, match="inadmissible"):
        stepper.run(ubar, upt, 0.1)


def test_nonfinite_state_aborts_without_domain():
    mesh, model, stepper, exact = linear_setup()
    ubar, upt = initialize(stepper.tables, lambda xy: exact(xy, 0.0))
    upt[3, 0] = np.nan
    with pytest.raises(NumericalAbort):
        stepper.run(ubar, upt, 0.1)


def test_dt_scales_linearly_with_cfl():
    _, _, s1, exact = linear_setup(cfl=0.2)
    _, _, s2, _ = linear_setup(cfl=0.4)
    ubar, upt = initialize(s1.tables, lambda xy: exact(xy, 0.0))
    assert abs(s2.compute_dt(ubar, upt) - 2.0 * s1.compute_dt(ubar, upt)) < 1e-15


def test_mode_validation():
    mesh, model, stepper, _ = linear_setup()
    with pytest.raises(ValueError, match="mode"):
        Stepper(mesh, model, stepper.ho.bc, mode="turbo")
    with pytest.raises(ValueError, match="enforce_domain"):
        Stepper(mesh, model, stepper.ho.bc, mode="bp")


def test_low_order_mode_average_bounds():
    # At CFL 0.2 the first-order average update is a convex combination, so
    # the averages respect [0, 1] on their own.  The point update only
    # gets that guarantee from the blending rescue, which mode "lo" skips,
    # so points are merely required to stay near the interval.
    prob = get_problem("rotating-shapes")
    model = prob.make_model(1.4)
    mesh = prob.mesh_builder(12)
    mesh.name_boundary(prob.namer)
    bc = BoundaryHandler(mesh, model, prob.boundaries(model))
    stepper = Stepper(mesh, model, bc, cfl=0.2, mode="lo")
    ubar, upt = sample_initial(prob, model, stepper.tables)
    ubar, upt, _, _ = stepper.run(ubar, upt, 0.05)
    eps = 1e-12
    assert ubar.min() >= -eps and ubar.max() <= 1.0 + eps
    assert np.isfinite(upt).all()
    assert upt.min() > -0.1 and upt.max() < 1.1


def test_journal_tracks_limiter_activity():
    prob = get_problem("rotating-shapes")
    model = prob.make_model(1.4)
    mesh = prob.mesh_builder(10)
    mesh.name_boundary(prob.namer)
    bc = BoundaryHandler(mesh, model, prob.boundaries(model))
    enforce, assert_ = prob.domains(model)
    stepper = Stepper(
        mesh, model, bc, mode="full",
        enforce_domain=enforce, assert_domain=assert_,
    )
    ubar, upt = sample_initial(prob, model, stepper.tables)
    _, _, journal, _ = stepper.run(ubar, upt, 0.01)
    row = journal[0]
    for key in ("theta_min", "eta_lo_frac", "eta_hi_frac", "min_u", "max_u",
                "mass", "omega_fallback"):
        assert key in row
    # Discontinuous data must actually trigger the damping.
    assert row["theta_min"] < 1.0
    # Stashed per-stage minima line up with the mesh.
    assert stepper.last_theta.shape == (mesh.num_tris,)
    assert stepper.last_eta_point.shape == (mesh.num_tris, 6)
    assert stepper.last_eta_edge.shape == (mesh.num_edges,)
    assert stepper.last_theta.min() < 1.0


def test_full_mode_without_domain_blends_by_theta_bitwise():
    # Without an invariant domain, mode full blends by the damping alone:
    # eta = theta_K on the point residuals of K and min(theta_K, theta_L)
    # on interior edges (theta_K on boundary edges).  The reference below
    # spells that formula out; the substep must reproduce it bit for bit.
    prob = get_problem("rotating-shapes")
    model = prob.make_model(1.4)
    mesh = prob.mesh_builder(6)
    mesh.name_boundary(prob.namer)
    bc = BoundaryHandler(mesh, model, prob.boundaries(model))
    stepper = Stepper(mesh, model, bc, mode="full")
    tb = stepper.tables
    ubar, upt = sample_initial(prob, model, tb)
    dt = stepper.compute_dt(ubar, upt)
    ubar_new, upt_new, bflux, stats, (theta, eta_pt, eta_e) = stepper._substep(
        ubar, upt, 0.0, dt
    )

    coef = tb.coefficients(ubar, upt)
    ho = stepper.ho.compute(coef, upt, 0.0)
    lo = stepper.lo.compute(coef, 0.0)
    th = damping_theta(tb, model, coef, ubar, upt, ho.trace_u, dt)
    assert th.min() < 1.0  # the discontinuous data must engage the damping
    b = lo.Phi_pt + th[:, None, None] * (ho.Wpt - lo.Phi_pt)
    k0, k1 = mesh.edge_tris[:, 0], mesh.edge_tris[:, 1]
    te = np.where(
        k1 >= 0, np.minimum(th[k0], th[np.clip(k1, 0, None)]), th[k0]
    )
    F = lo.F_edge + te[:, None] * (ho.F_edge - lo.F_edge)
    div = np.einsum(
        "ke,kev->kv", mesh.tri_edge_orient.astype(float), F[mesh.tri_edges]
    )
    assert np.array_equal(theta, th)
    assert np.array_equal(eta_pt, np.broadcast_to(th[:, None], eta_pt.shape))
    assert np.array_equal(eta_e, te)
    assert np.array_equal(upt_new, upt - dt * tb.point_sums(b))
    assert np.array_equal(ubar_new, ubar - (dt / mesh.areas[:, None]) * div)
    assert np.array_equal(bflux, F[mesh.boundary_edges].sum(axis=0))
    assert stats["rescued_points"] == stats["rescued_edges"] == 0


def test_point_weights_match_run_bookkeeping():
    # The norm weights are a partition of the area among point DoFs; the
    # stepper's own dual areas cover 2/3 of it (the average shape holds the
    # remaining third on every element).
    mesh = named(rect_mesh((0.0, 1.0, 0.0, 1.0), 6, seed=8))
    w = point_weights(mesh)
    assert abs(w.sum() - mesh.areas.sum()) < 1e-13
    assert abs(mesh.point_area.sum() - 2.0 / 3.0 * mesh.areas.sum()) < 1e-13
    assert np.allclose(w, 1.5 * mesh.point_area, rtol=1e-13, atol=0)


def test_rk3_step_gathers_element_states_once(monkeypatch):
    # Each substep gathers its element-local states once, through
    # Tables.coefficients, and hands them to every operator: one full RK3
    # step makes three coefficient stacks and three point-value gathers.
    prob = get_problem("rotating-shapes")
    model = prob.make_model(1.4)
    mesh = prob.mesh_builder(6)
    mesh.name_boundary(prob.namer)
    bc = BoundaryHandler(mesh, model, prob.boundaries(model))
    enforce, assert_ = prob.domains(model)
    stepper = Stepper(
        mesh, model, bc, mode="full",
        enforce_domain=enforce, assert_domain=assert_,
    )
    ubar, upt = sample_initial(prob, model, stepper.tables)
    dt = stepper.compute_dt(ubar, upt)

    stacks, gathers = [], []
    coefficients = stepper.tables.coefficients
    take = np.take

    def counted_coefficients(*args):
        stacks.append(1)
        return coefficients(*args)

    def counted_take(a, indices, *args, **kwargs):
        if indices is mesh.tri_point_dofs and np.ndim(a) == 2:
            gathers.append(1)  # point values (NP, nv) -> (NT, 6, nv)
        return take(a, indices, *args, **kwargs)

    monkeypatch.setattr(stepper.tables, "coefficients", counted_coefficients)
    monkeypatch.setattr(np, "take", counted_take)
    stepper.rk3_step(ubar, upt, 0.0, dt)
    assert len(stacks) == 3
    assert len(gathers) == 3
