import math

import numpy as np
import pytest

from triblend.boundary import BoundaryHandler
from triblend.exceptions import ConfigError, NumericalAbort
from triblend.limiting import IntervalDomain
from triblend.mesh import Mesh
from triblend.problems import (
    builtin_problems,
    get_problem,
    interval_domains,
    piecewise_state,
    sample_initial,
    shock_jump,
)
from triblend.spatial_ho import Tables
from triblend.timeloop import Stepper, initialize

# Coarse resolutions for catalog smoke checks (default_n is production size).
SMALL_N = {
    "advect-gauss": 6,
    "rotating-shapes": 10,
    "kpp": 10,
    "quadrants": 10,
    "double-mach": 6,
    "diffraction": 8,
    "free-stream": 4,
}


def test_catalog_names_are_stable():
    assert sorted(builtin_problems()) == [
        "advect-gauss",
        "diffraction",
        "double-mach",
        "free-stream",
        "kpp",
        "quadrants",
        "rotating-shapes",
    ]


def test_get_problem_rejects_unknown():
    with pytest.raises(ConfigError, match="unknown problem"):
        get_problem("vortex")


@pytest.mark.parametrize("name", sorted(SMALL_N))
def test_catalog_entry_is_runnable(name):
    prob = get_problem(name)
    model = prob.make_model(1.4)
    mesh = prob.mesh_builder(SMALL_N[name])
    mesh.name_boundary(prob.namer)
    bcs = prob.boundaries(model)
    used = set(mesh.boundary_name.astype(str))
    assert used <= set(bcs), f"unmapped boundary names {used - set(bcs)}"
    # Initial data admissible in the problem's own assert domain.
    sample_initial(prob, model, Tables(mesh))
    assert prob.final_time > 0


def _catalog_modes():
    """(problem, mode) for every mode each catalog problem accepts; `bp`
    needs an invariant domain."""
    cases = []
    for name, prob in sorted(builtin_problems().items()):
        enforce, _ = prob.domains(prob.make_model(1.4))
        for mode in ("ho", "lo", "bp", "full"):
            if mode == "bp" and enforce is None:
                continue
            cases.append((name, mode))
    return cases


@pytest.mark.parametrize("name, mode", _catalog_modes())
def test_catalog_problem_runs_two_steps(name, mode):
    prob = get_problem(name)
    model = prob.make_model(1.4)
    mesh = prob.mesh_builder(6)
    mesh.name_boundary(prob.namer)
    bc = BoundaryHandler(mesh, model, prob.boundaries(model))
    enforce, assert_ = prob.domains(model)
    limited = mode in ("bp", "full")
    stepper = Stepper(
        mesh, model, bc, mode=mode,
        enforce_domain=enforce if limited else None,
        assert_domain=assert_ if limited else None,
    )
    ubar, upt = sample_initial(prob, model, stepper.tables)
    try:
        ubar, upt, journal, totals = stepper.run(
            ubar, upt, prob.final_time, max_steps=2
        )
    except NumericalAbort:
        assert mode == "ho" and name in ("quadrants", "double-mach")
        return
    assert totals["steps"] == len(journal) == 2
    assert np.isfinite(ubar).all() and np.isfinite(upt).all()
    drift = totals["mass"] - totals["mass0"] + totals["bflux_int"]
    assert np.abs(drift).max() <= 1e-12 * max(1.0, np.abs(totals["mass0"]).max())
    if limited and assert_ is not None:
        assert assert_.contains(ubar).all() and assert_.contains(upt).all()


KPP_INTERVAL = (math.pi / 4.0, 3.5 * math.pi)  # the range of the kpp data


@pytest.mark.parametrize(
    "name, n, mode, interval, lo, hi",
    [
        ("kpp", 12, "bp", KPP_INTERVAL, *KPP_INTERVAL),
        ("kpp", 12, "full", KPP_INTERVAL, *KPP_INTERVAL),
        # One turn; the exact solution returns to the data in [0, 1].
        ("rotating-shapes", 8, "full", None, 0.0, 0.99),
    ],
    ids=["kpp-bp", "kpp-full", "rotating-shapes-full"],
)
def test_scalar_catalog_run_keeps_bounds_and_mass(name, n, mode, interval, lo, hi):
    # A complete run to the catalog final time: every step stays in the
    # assert domain, finite and conservative to round-off, and the final
    # state stays in [lo, hi].  `interval` replaces the catalog's
    # invariant interval, as `[limits]` does.
    prob = get_problem(name)
    model = prob.make_model(1.4)
    mesh = prob.mesh_builder(n)
    mesh.name_boundary(prob.namer)
    bc = BoundaryHandler(mesh, model, prob.boundaries(model))
    enforce, assert_ = (
        prob.domains(model) if interval is None else interval_domains(*interval)
    )
    stepper = Stepper(
        mesh, model, bc, mode=mode, enforce_domain=enforce, assert_domain=assert_
    )
    ubar, upt = sample_initial(prob, model, stepper.tables)

    def check(step, t, ubar, upt, row):
        for u in (ubar, upt):
            assert np.isfinite(u).all() and assert_.contains(u).all(), step
        assert row["drift"] <= 1e-12, step

    ubar, upt, journal, totals = stepper.run(
        ubar, upt, prob.final_time, callback=check
    )
    assert totals["t"] == prob.final_time and len(journal) == totals["steps"]
    for u in (ubar, upt):
        assert lo <= u.min() and u.max() <= hi, (u.min(), u.max())


def test_shock_jump_mach10():
    # Normal-shock state behind a Mach-10 front into (rho, p) = (1.4, 1.0):
    # frozen from the Rankine-Hugoniot oracle in test_models.
    rho, vx, vy, p = shock_jump(10.0, 1.4, 1.0, 1.4)
    assert abs(rho - 8.0) < 1e-13
    assert abs(vx - 8.25) < 1e-13
    assert vy == 0.0
    assert abs(p - 116.5) < 1e-12


def test_shock_jump_mach24():
    rho, vx, vy, p = shock_jump(2.4, 1.4, 1.0, 1.4)
    assert abs(rho - 4.496654275092937) < 1e-14
    assert abs(vx - 1.652777777777778) < 1e-14
    assert abs(p - 6.553333333333334) < 1e-14


def test_piecewise_state_first_match_wins():
    regions = [
        (lambda x, y: x <= 1.0, (10.0,)),
        (lambda x, y: x >= 1.0, (20.0,)),
    ]
    xy = np.array([[0.5, 0.0], [1.0, 0.0], [1.5, 0.0]])
    vals = piecewise_state(xy, regions, (0.0,))
    assert vals[:, 0].tolist() == [10.0, 10.0, 20.0]  # tie at x=1 -> first


def test_quadrants_tie_break_at_center():
    prob = get_problem("quadrants")
    model = prob.make_model(1.4)
    u = prob.initial(model, np.array([[1.0, 1.0]]))
    want = model.conserved(1.5, 0.0, 0.0, 1.5)
    assert np.allclose(u[0], want, rtol=0, atol=1e-14)


def test_rotating_shapes_notch_cuts_the_disk():
    prob = get_problem("rotating-shapes")
    model = prob.make_model(1.4)
    xy = np.array(
        [
            [0.5, 0.8],  # inside the notch band and inside the disk
            [0.56, 0.75],  # disk proper, outside the notch
            [0.25, 0.5],  # hump center
            [0.5, 0.25],  # cone center
            [0.9, 0.9],  # background
        ]
    )
    u = prob.initial(model, xy)[:, 0]
    assert u[0] == 0.0
    assert u[1] == 1.0
    assert abs(u[2] - 0.5) < 1e-15  # 0.25 (1 + cos 0)
    assert u[3] == 1.0  # cone apex
    assert u[4] == 0.0


def test_free_stream_initial_is_exactly_constant():
    prob = get_problem("free-stream")
    model = prob.make_model(1.4)
    mesh = prob.mesh_builder(4)
    ubar, upt = sample_initial(prob, model, Tables(mesh))
    want = np.asarray(model.conserved(1.4, 0.3, 0.0, 2.0))
    assert np.abs(ubar - want).max() < 1e-13
    assert np.abs(upt - want).max() < 1e-13


def test_exact_solutions_match_initial_data_at_t0():
    for name in ("advect-gauss", "free-stream"):
        prob = get_problem(name)
        model = prob.make_model(1.4)
        xy = np.random.default_rng(5).uniform(0.1, 0.9, size=(40, 2))
        assert np.allclose(
            prob.exact(model, xy, 0.0), prob.initial(model, xy), atol=1e-15
        )


def test_gaussian_averages_match_independent_integrator():
    # Exact mean of the transported-Gaussian initial data over one small
    # triangle near the bump, from a Richardson-extrapolated centroid rule
    # on 2 * 256^2 congruent subtriangles (self-consistency 6e-14).
    verts = np.array([[14.8, 14.85], [15.4, 14.9], [15.05, 15.4]])
    mean_oracle = 0.9900850338404963
    prob = get_problem("advect-gauss")
    model = prob.make_model(1.4)
    mesh = Mesh(verts, np.array([[0, 1, 2]]))
    ubar, upt = initialize(Tables(mesh), lambda xy: prob.initial(model, xy))
    assert abs(ubar[0, 0] - mean_oracle) < 1e-9
    # Point values are exact samples of the analytic function.
    assert np.allclose(upt, prob.initial(model, mesh.point_xy), atol=0)


def test_sample_initial_rejects_out_of_domain_data():
    prob = get_problem("kpp")  # values reach 3.5 pi
    model = prob.make_model(1.4)
    mesh = prob.mesh_builder(4)
    with pytest.raises(ConfigError, match="invariant domain"):
        sample_initial(prob, model, Tables(mesh), domain=IntervalDomain(0, 1))


def test_interval_domains_pad_by_their_finite_bounds():
    # An infinite bound does not set the pad: the finite upper bound stays
    # asserted, 1e-9 above the enforced one.
    enforce, assert_ = interval_domains(-np.inf, 1.0)
    assert (enforce.lo, enforce.hi) == (-np.inf, 1.0)
    assert (assert_.lo, assert_.hi) == (-np.inf, 1.0 + 1e-9)
    assert not assert_.contains(np.array([[1.0 + 2e-9]]))[0]
    _, assert_ = interval_domains(-4.0, 2.0)
    assert (assert_.lo, assert_.hi) == (-4.0 - 4e-9, 2.0 + 4e-9)


def test_double_mach_namer_covers_the_ramp_polygon():
    prob = get_problem("double-mach")
    mesh = prob.mesh_builder(8)
    mesh.name_boundary(prob.namer)
    names = mesh.boundary_name.astype(str).tolist()
    assert set(names) == {"inflow", "outflow", "wall"}
    # The sloped ramp edge must be a wall, not outflow.
    mids = mesh.edge_mid[mesh.boundary_edges]
    on_ramp = (mids[:, 0] > 0.1) & (mids[:, 1] < np.tan(np.pi / 6) * mids[:, 0])
    assert all(
        nm == "wall" for nm, hit in zip(names, on_ramp) if hit
    )
