import os

import numpy as np
import pytest

from triblend import timeloop

from triblend.boundary import BoundaryHandler, FarField, Outflow
from triblend.exceptions import NumericalAbort
from triblend.limiting import IntervalDomain, damping_theta, interior_edge_speeds
from triblend.meshgen import rect_mesh
from triblend.models import LinearAdvection, llf_flux
from triblend.norms import point_weights
from triblend.problems import get_problem, sample_initial
from triblend.spatial_ho import HighOrder, Tables
from triblend.spatial_lo import STENCIL, LowOrder
from triblend.timeloop import Stepper, initialize

from handlers import all_outflow


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
        assert totals["drift"] == np.abs(drift).max() / scale, mode


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


def test_nan_point_value_abort_names_the_point():
    mesh, model, stepper, exact = linear_setup()
    ubar, upt = initialize(stepper.tables, lambda xy: exact(xy, 0.0))
    upt[3, 0] = np.nan
    with pytest.raises(NumericalAbort) as info:
        stepper.rk3_step(ubar, upt, 0.0, 0.01, step=4)
    # The first substep spreads the NaN to the neighbours of point 3, so
    # the abort names the step's own input as stage 0.
    x, y = mesh.point_xy[3]
    assert str(info.value) == (
        "inadmissible state: step 4, stage 0, t = 0, 1 offending DoFs: "
        f"point 3 at ({x:.6g}, {y:.6g}) state (nan)"
    )


@pytest.mark.parametrize("mode", ["ho", "full"])
def test_zero_sound_speed_point_falls_back_quietly(mode):
    # One point DoF with p = 0 exactly reaches the sign matrices with c = 0:
    # the step completes with no RuntimeWarning, and the upwind weights
    # of that point fall back to 1/N.
    prob = get_problem("free-stream")
    model = prob.make_model(1.4)
    mesh = prob.mesh_builder(4)
    mesh.name_boundary(prob.namer)
    bc = BoundaryHandler(mesh, model, prob.boundaries(model))
    enforce, assert_ = prob.domains(model) if mode == "full" else (None, None)
    stepper = Stepper(
        mesh, model, bc, mode=mode, enforce_domain=enforce, assert_domain=assert_
    )
    ubar, upt = sample_initial(prob, model, stepper.tables)
    rho, vx, vy, _ = model.primitives(upt)
    i = mesh.num_points // 2
    upt[i] = model.conserved(rho[i], vx[i], vy[i], 0.0)
    dt = stepper.compute_dt(ubar, upt)
    ubar, upt, _, stats = stepper.rk3_step(ubar, upt, 0.0, dt, 1)
    assert stats["omega_fallback"] > 0
    assert np.isfinite(ubar).all() and np.isfinite(upt).all()


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
                "mass", "drift", "omega_fallback"):
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
    Phi_lo = stepper.lo.point_residuals(coef)
    F_lo = stepper.lo.average_fluxes(ubar, 0.0)
    th = damping_theta(tb, model, coef, interior_edge_speeds(tb, model, ho.trace_u), dt)
    assert th.min() < 1.0  # the discontinuous data must engage the damping
    b = Phi_lo + th[:, None] * (ho.Wpt - Phi_lo)
    k0, k1 = mesh.edge_tris[:, 0], mesh.edge_tris[:, 1]
    te = np.where(
        k1 >= 0, np.minimum(th[k0], th[np.clip(k1, 0, None)]), th[k0]
    )
    F = F_lo + te[:, None] * (ho.F_edge - F_lo)
    div = np.einsum(
        "ke,kev->kv", mesh.tri_edge_orient.astype(float), F[mesh.tri_edges]
    )
    assert np.array_equal(theta, th)
    assert np.array_equal(eta_pt, np.broadcast_to(th, eta_pt.shape))
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
    gather_points = mesh.gather_points

    def counted_coefficients(*args):
        stacks.append(1)
        return coefficients(*args)

    def counted_gather_points(x, *args, **kwargs):
        if np.ndim(x) == 2:
            gathers.append(1)  # point values (NP, nv) -> (nv, 6, NT)
        return gather_points(x, *args, **kwargs)

    monkeypatch.setattr(stepper.tables, "coefficients", counted_coefficients)
    monkeypatch.setattr(mesh, "gather_points", counted_gather_points)
    stepper.rk3_step(ubar, upt, 0.0, dt)
    assert len(stacks) == 3
    assert len(gathers) == 3


class UnkeptAdvection(LinearAdvection):
    """Linear advection that does not promise static speeds: every
    operator asks the model at every substep, and nothing is kept."""

    static_signs = False


def kept_values(stepper):
    """Everything the stepper's records keep, by (owner, name)."""
    return {
        (owner, name): value
        for owner, speeds in (
            ("ho", stepper.ho.speeds), ("lo", stepper.lo.speeds), ("", stepper.speeds)
        )
        for name, value in speeds.kept.items()
    }


def shapes_run(model, mode, on_step=None):
    """Three RK3 steps of `rotating-shapes` on its n=6 mesh (72 elements);
    on_step(stepper, k) after step k."""
    prob = get_problem("rotating-shapes")
    mesh = prob.mesh_builder(6)
    mesh.name_boundary(prob.namer)
    bc = BoundaryHandler(mesh, model, prob.boundaries(model))
    enforce, assert_ = (None, None) if mode == "ho" else prob.domains(model)
    stepper = Stepper(
        mesh, model, bc, mode=mode, enforce_domain=enforce, assert_domain=assert_
    )
    ubar, upt = sample_initial(prob, model, stepper.tables)
    callback = None if on_step is None else (lambda k, *_: on_step(stepper, k))
    out = stepper.run(
        ubar, upt, prob.final_time, max_steps=3, callback=callback
    )
    return stepper, out


@pytest.mark.parametrize("mode", ["ho", "bp", "full"])
def test_kept_speeds_give_the_bits_of_the_model(mode):
    # The rotating field's speeds, and the linear maps of the LO residuals
    # and of the HO volume term, are kept for the run (`StaticSpeeds`); the
    # same field without `static_signs` asks the model at every substep.
    # The kept maps are probed from the model's own code, so the states
    # agree to round-off and the journals' counts are equal.  After the
    # first step the field is evaluated only at boundary points, by the
    # boundary closure's fluxes: never inside the domain.
    velocity = get_problem("rotating-shapes").make_model(1.4).velocity_at
    step = 0
    calls = []  # (step number, positions) of each evaluation

    def counted(xy):
        calls.append((step, np.array(xy)))
        return velocity(xy)

    after_first = {}  # the kept values after step 1

    def on_step(stepper, k):
        nonlocal step
        step = k
        if k == 1:
            after_first.update(kept_values(stepper))

    stepper, (ubar, upt, journal, _) = shapes_run(
        LinearAdvection(counted), mode, on_step
    )
    _, (ubar_f, upt_f, journal_f, _) = shapes_run(UnkeptAdvection(velocity), mode)
    for got, want in ((ubar, ubar_f), (upt, upt_f)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert len(journal) == len(journal_f) == 3
    for row, row_f in zip(journal, journal_f):
        assert row.keys() == row_f.keys()
        for key, want in row_f.items():
            if isinstance(want, int):
                assert row[key] == want, key
            else:
                assert abs(row[key] - want) <= 1e-13 * max(1.0, abs(want)), key
    # Nothing is rebuilt after step 1.
    assert "edge" in stepper.ho.speeds.kept
    final = kept_values(stepper)
    assert final.keys() == after_first.keys()
    assert all(final[key] is value for key, value in after_first.items())

    later = [xy.reshape(-1, 2) for k, xy in calls if k >= 1]
    assert later
    x, y = np.concatenate(later).T
    gap = np.minimum(np.minimum(x, 1.0 - x), np.minimum(y, 1.0 - y))
    assert (gap <= 1e-12).all()


FIELDS = {
    "rotating": get_problem("rotating-shapes").make_model(1.4).velocity_at,
    "constant": np.array([0.8, -0.45]),
}


def kept_case(field):
    """Tables of a jittered mesh whose boundary is far field (state 0.3)
    for x < 1/2 and outflow beyond, the boundary handlers of the field
    with and without static speeds, and random coefficients."""
    mesh = rect_mesh((0.0, 1.0, 0.0, 1.0), 7, jitter=0.3, seed=17)
    mesh.name_boundary(lambda mids: np.where(mids[:, 0] < 0.5, "far", "out"))
    tb = Tables(mesh)
    rng = np.random.default_rng(18)
    ubar = rng.uniform(-1.0, 2.0, (mesh.num_tris, 1))
    upt = rng.uniform(-1.0, 2.0, (mesh.num_points, 1))
    far = FarField(lambda xy, t: np.full(xy.shape[:-1] + (1,), 0.3))
    bcs = {"far": far, "out": Outflow()}
    models = LinearAdvection(FIELDS[field]), UnkeptAdvection(FIELDS[field])
    handlers = [BoundaryHandler(mesh, m, bcs) for m in models]
    return tb, models, handlers, ubar, upt


def assert_close(got, want, rtol=1e-13):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("field", FIELDS)
def test_kept_fan_map_is_the_fan(field):
    # The LO point residuals of a static model are its kept fan map
    # applied to the STENCIL coefficients; the model without static speeds
    # runs the fan itself.
    tb, models, _, ubar, upt = kept_case(field)
    coef = tb.coefficients(ubar, upt)
    kept, fan = (LowOrder(tb, m, all_outflow(tb.mesh, m)) for m in models)
    assert_close(kept.point_residuals(coef), fan.point_residuals(coef))
    assert kept.speeds.kept["fan"].shape == (4, 6, tb.mesh.num_tris)
    assert fan.speeds.kept == {}


def test_fan_map_stencil():
    # Unit coefficient j reaches the fan residual of point DoF d only where
    # STENCIL[d] names j: the other rows of its probe are exactly zero.
    tb, (model, _), _, _, _ = kept_case("rotating")
    mesh = tb.mesh
    lo = LowOrder(tb, model, all_outflow(mesh, model))
    gl = np.ascontiguousarray(mesh.grad_lambda.T)
    fan = np.empty((1, 6, mesh.num_tris))
    for j in range(7):
        probe = np.zeros((1, 7, mesh.num_tris))
        probe[0, j] = 1.0
        lo._fan(probe, gl, mesh.areas, slice(None), fan)
        reached = (STENCIL == j).any(axis=1)
        assert (fan[0, ~reached] == 0.0).all()
        assert (np.abs(fan[0, reached]).max(axis=1) > 0.0).all()


def test_kept_llf_weights_are_the_llf_flux():
    # The kept weights of the two averages give `llf_flux` times |e| on
    # interior and boundary edges; a boundary edge's u1 is its ghost.
    tb, (model, _), (bc, _), ubar, _ = kept_case("rotating")
    mesh = tb.mesh
    got = LowOrder(tb, model, bc).average_fluxes(ubar, 0.0)
    left, right = mesh.edge_tris.T
    u0, u1 = ubar[left], ubar[np.where(right >= 0, right, left)]
    be = mesh.boundary_edges
    u1[be] = bc.ghost_average(u0[be], mesh.edge_normal[be], 0.0)
    want = llf_flux(model, u0, u1, mesh.edge_normal, mesh.edge_mid)
    want *= mesh.edge_length[:, None]
    interior = right >= 0
    assert interior.any() and not interior.all()
    for edges in (interior, ~interior):
        assert_close(got[edges], want[edges])


@pytest.mark.parametrize("field", FIELDS)
def test_kept_volume_speeds_give_the_volume_term(field):
    # A static model's HO point rows take the volume term from its kept
    # normal flux of the unit state along n_a = -grad(lambda_a), a = 0, 1,
    # (2, nqv, E, 1); a constant field keeps it once per element.
    tb, models, handlers, ubar, upt = kept_case(field)
    coef = tb.coefficients(ubar, upt)
    kept, general = (HighOrder(tb, m, bc) for m, bc in zip(models, handlers))
    got = kept.moment_residuals(coef, upt, 0.0)
    want = general.moment_residuals(coef, upt, 0.0)
    assert_close(got[0], want[0])
    ((_, beta),) = [kv for kv in kept.speeds.kept.items() if kv[0][0] == "volume"]
    nqv = 1 if field == "constant" else len(tb.wq_vol)
    assert beta.shape == (2, nqv, tb.mesh.num_tris, 1)


def mach_stepper(n):
    prob = get_problem("double-mach")
    model = prob.make_model(1.4)
    mesh = prob.mesh_builder(n)
    mesh.name_boundary(prob.namer)
    bc = BoundaryHandler(mesh, model, prob.boundaries(model))
    enforce, assert_ = prob.domains(model)
    stepper = Stepper(
        mesh, model, bc, mode="full",
        enforce_domain=enforce, assert_domain=assert_,
    )
    return prob, model, stepper


@pytest.mark.skipif(
    timeloop._glibc_mallopt() is None, reason="needs glibc's mallopt"
)
def test_mach_steps_do_not_page_fault():
    # With the malloc thresholds pinned, the step temporaries of one
    # operator are reused by the next one instead of being unmapped and
    # faulted in again (about 2.3k faults per step without the pin).
    resource = pytest.importorskip("resource")
    if any(name in os.environ for name in timeloop._MALLOC_ENV):
        pytest.skip("the environment chooses the malloc settings")
    prob, model, stepper = mach_stepper(8)
    assert stepper.mesh.num_tris == 516
    ubar, upt = sample_initial(prob, model, stepper.tables)
    t = 0.0
    for step in range(5):
        if step == 2:
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        dt = stepper.compute_dt(ubar, upt)
        ubar, upt, _, _ = stepper.rk3_step(ubar, upt, t, dt)
        t += dt
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    assert faults / 3 < 500


@pytest.fixture
def mallopt_calls(monkeypatch):
    """Record mallopt calls, as if no Stepper had been built yet."""
    calls = []
    monkeypatch.setattr(timeloop, "_malloc_pinned", False)

    def accepting(*args):
        calls.append(args)
        return 1

    monkeypatch.setattr(timeloop, "_glibc_mallopt", lambda: accepting)
    for name in timeloop._MALLOC_ENV + ("GLIBC_TUNABLES",):
        monkeypatch.delenv(name, raising=False)
    return calls


@pytest.mark.parametrize(
    "name, value",
    [
        ("MALLOC_TRIM_THRESHOLD_", "1000000"),
        ("MALLOC_TOP_PAD_", "0"),
        ("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=131072"),
    ],
)
def test_user_malloc_settings_are_kept(mallopt_calls, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    linear_setup()
    assert mallopt_calls == []


def test_malloc_thresholds_are_pinned_once(mallopt_calls):
    linear_setup()
    pinned = [(timeloop._M_MMAP_THRESHOLD, 32 << 20),
              (timeloop._M_TRIM_THRESHOLD, 64 << 20)]
    assert mallopt_calls == pinned
    linear_setup()
    assert mallopt_calls == pinned


def test_trim_threshold_is_not_set_alone(monkeypatch, mallopt_calls):
    # Either threshold alone switches glibc's dynamic rule off, so a
    # rejected mmap threshold leaves the trim threshold alone too.
    def rejecting(*args):
        mallopt_calls.append(args)
        return 0

    monkeypatch.setattr(timeloop, "_glibc_mallopt", lambda: rejecting)
    linear_setup()
    assert mallopt_calls == [(timeloop._M_MMAP_THRESHOLD, 32 << 20)]
