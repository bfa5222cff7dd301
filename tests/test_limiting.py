"""Invariant domains, blend bounds, and the jump-damping factor."""

import sys

import numpy as np
import pytest

from triblend.boundary import BoundaryHandler, FarField
from triblend.limiting import (
    _SAFETY,
    GasDomain,
    IntervalDomain,
    _component_denominators,
    _largest_root_bound,
    _linear_bound,
    _verified_eta,
    blend_average_fluxes,
    blend_point_residuals,
    damping_sigma,
    damping_theta,
    interior_edge_speeds,
)
from triblend.mesh import Mesh
from triblend.meshgen import rect_mesh
from triblend.models import Euler, LinearAdvection, nv_first, nv_last
from triblend.problems import get_problem, sample_initial
from triblend.spatial_ho import ROTATE, Tables, _local_edges
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


def test_verified_eta_halves_until_the_state_is_admissible():
    dom = IntervalDomain(0.0, 1.0)
    base = np.array([[0.5], [0.5], [0.2], [2.0]])
    d = np.array([[1.0], [-2.0], [0.5], [0.0]])
    eta = np.array([1.0, 0.9, 1.0, 0.5])
    got = _verified_eta(dom, base, d, eta)
    # 1.5 leaves [0, 1] and 1.0 does not; -1.3 and -0.4 leave and 0.05 does
    # not; 0.7 is admissible as given; an inadmissible base falls back to 0.
    assert got.tolist() == [0.5, 0.225, 1.0, 0.0]
    assert dom.contains(base[:3] + got[:3, None] * d[:3]).all()


@pytest.mark.parametrize("kind", ["interval", "gas"])
def test_nan_step_drops_to_zero_at_its_first_failure(kind, monkeypatch):
    # No eta > 0 makes base + eta d admissible for a NaN step: its entry
    # ends at 0 after one failed check instead of after 64 halvings, each
    # with a `contains` pass over the whole array, and every eta is the
    # value the halvings reached.
    if kind == "interval":
        domain = IntervalDomain(0.0, 1.0)
        base = np.array([[0.5], [0.2], [0.9]])
        d = np.array([[0.3], [np.nan], [-0.5]])
    else:
        domain = GasDomain()
        base = Euler().conserved(np.ones(3), 0.0, 0.0, 1.0)
        d = np.array([[0.1, 0.1, 0.0, 0.1], [np.nan, 0, 0, 0], [0, 0, np.nan, 0]])
    finite = np.isfinite(d).all(axis=1)
    want = np.zeros(len(d))
    want[finite] = domain.max_blend(base[finite], d[finite])
    assert want[0] > 0.0
    calls = []
    contains = domain.contains

    def counted_contains(u):
        calls.append(1)
        return contains(u)

    monkeypatch.setattr(domain, "contains", counted_contains)
    eta = domain.max_blend(base, d)
    assert len(calls) <= 2
    assert eta.tobytes() == want.tobytes()


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
        assert dom.contains(base + eta * d)


# ---------------------------------------------------------------------------
# blend bounds: bitwise the reference formulas, adversarial inputs included
# ---------------------------------------------------------------------------


def reference_largest_root_bound(a, b, c):
    """The root bound as boolean-mask assignments over the masked entries."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    a, b, c = np.broadcast_arrays(a, b, c)
    out = np.full(a.shape, np.inf)
    scale = np.maximum(
        np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), 1e-300)
    )
    lin = np.abs(a) <= 1e-14 * scale
    neg_b = b < 0
    with np.errstate(divide="ignore", invalid="ignore"):
        m = lin & neg_b
        out[m] = np.where(c[m] <= 0, 0.0, -c[m] / b[m])
        disc = b * b - 4.0 * a * c
        sq = np.sqrt(np.maximum(disc, 0.0))
        m = (~lin) & (a > 0) & neg_b & (disc > 0)
        qf = 0.5 * (-b[m] + sq[m])
        out[m] = c[m] / qf
        m = (~lin) & (a < 0)
        r_direct = (-b[m] - sq[m]) / (2.0 * a[m])
        qf = -b[m] + sq[m]
        r_stable = np.where(qf > 0, 2.0 * c[m] / np.where(qf > 0, qf, 1.0), r_direct)
        out[m] = np.where(b[m] < 0, r_stable, r_direct)
    out = np.where(c < 0, 0.0, out)
    return np.maximum(out, 0.0)


def reference_linear_bound(room, step):
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.where(step > 0, room / np.where(step > 0, step, 1.0), np.inf)
    return np.where(room < 0, 0.0, np.maximum(b, 0.0))


def reference_interval_max_blend(dom, base, d):
    v = base[..., 0]
    dv = d[..., 0]
    eta = np.minimum(
        reference_linear_bound(v - dom.lo, -dv),
        reference_linear_bound(dom.hi - v, dv),
    )
    eta = np.minimum(eta * _SAFETY, 1.0)
    eta = np.where((v < dom.lo) | (v > dom.hi), 0.0, eta)
    return _verified_eta(dom, base, d, eta)


def reference_gas_max_blend(dom, base, d):
    rho = base[..., 0]
    drho = d[..., 0]
    eta = np.minimum(
        reference_linear_bound(rho - dom.rho_min, -drho),
        reference_linear_bound(dom.rho_max - rho, drho),
    )
    c = dom.g(base)
    b = (
        drho * (base[..., 3] - dom.e_min)
        + rho * d[..., 3]
        - base[..., 1] * d[..., 1]
        - base[..., 2] * d[..., 2]
    )
    a = drho * d[..., 3] - 0.5 * (d[..., 1] ** 2 + d[..., 2] ** 2)
    eta = np.minimum(eta, reference_largest_root_bound(a, b, c))
    eta = np.minimum(eta * _SAFETY, 1.0)
    infeasible = (rho < dom.rho_min) | (rho > dom.rho_max) | (c < 0)
    eta = np.where(infeasible, 0.0, eta)
    return _verified_eta(dom, base, d, eta)


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# Values that exercise every branch: signed zeros, tiny and huge finite
# values, infinities and NaN.  Both the kernels and the reference
# formulas overflow on some of them, or meet inf - inf, which the tests
# let pass silently (`adversarial`).
SPECIAL = np.array(
    [0.0, -0.0, 1e-300, -1e-300, 1e-15, -1e-15, 0.5, -0.5, 1.0, -1.0, 3.0,
     -3.0, 1e12, -1e12, np.inf, -np.inf, np.nan]
)


adversarial = np.errstate(over="ignore", invalid="ignore")


@adversarial
def test_linear_bound_bitwise_on_adversarial_inputs():
    room, step = np.meshgrid(SPECIAL, SPECIAL, indexing="ij")
    assert_bitwise(_linear_bound(room, step), reference_linear_bound(room, step))
    rng = np.random.default_rng(21)
    room = rng.normal(size=(40, 7)) * 10.0 ** rng.uniform(-3, 3, (40, 7))
    step = rng.normal(size=(7, 40)).T  # transposed strides
    step[::3] = 0.0
    assert_bitwise(_linear_bound(room, step), reference_linear_bound(room, step))
    # broadcast and 0-d arguments
    assert_bitwise(_linear_bound(room, 0.5), reference_linear_bound(room, 0.5))
    assert_bitwise(
        _linear_bound(np.array(-1.0), np.array(0.0)),
        reference_linear_bound(np.array(-1.0), np.array(0.0)),
    )


@adversarial
def test_largest_root_bound_bitwise_on_adversarial_inputs():
    a, b, c = (x.ravel() for x in np.meshgrid(SPECIAL, SPECIAL, SPECIAL))
    assert_bitwise(_largest_root_bound(a, b, c), reference_largest_root_bound(a, b, c))
    rng = np.random.default_rng(22)
    n = 4000
    b = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
    c = np.abs(rng.normal(size=n)) * 10.0 ** rng.uniform(-3, 3, n)
    a = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
    kind = rng.integers(0, 6, n)
    a[kind == 0] = 1e-15 * np.maximum(np.abs(b), np.abs(c))[kind == 0]  # ~linear
    a[kind == 1] = b[kind == 1] ** 2 / (4.0 * c[kind == 1])  # double root
    a[kind == 2] *= 1e-16  # |a| below the 1e-14 scale
    c[kind == 3] *= -1.0  # infeasible start
    b[kind == 4] = 0.0
    for sl in (slice(None), slice(None, None, 3)):  # contiguous and strided
        got = _largest_root_bound(a[sl], b[sl], c[sl])
        assert_bitwise(got, reference_largest_root_bound(a[sl], b[sl], c[sl]))
    # Every case occurs: convex and concave roots, disc < 0, linear.
    disc = b * b - 4.0 * a * c
    lin = np.abs(a) <= 1e-14 * np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
    assert ((~lin) & (a > 0) & (b < 0) & (disc > 0)).any()
    assert ((~lin) & (a < 0) & (b < 0)).any() and ((~lin) & (a < 0) & (b > 0)).any()
    assert ((~lin) & (disc < 0)).any() and (lin & (b < 0)).any()
    # broadcast scalars
    assert_bitwise(
        _largest_root_bound(a[:50], -1.0, 2.0),
        reference_largest_root_bound(a[:50], -1.0, 2.0),
    )


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-np.inf, 2.0), (0.5, np.inf)])
@adversarial
def test_interval_max_blend_bitwise(lo, hi):
    dom = IntervalDomain(lo, hi)
    v, dv = np.meshgrid(SPECIAL, SPECIAL, indexing="ij")
    base, d = v[..., None], dv[..., None]
    assert_bitwise(dom.max_blend(base, d), reference_interval_max_blend(dom, base, d))
    rng = np.random.default_rng(23)
    base = rng.uniform(-0.2, 1.2, (6, 50, 1))
    d = rng.normal(size=(1, 50, 6)).T * 10.0 ** rng.uniform(-2, 2, (6, 50, 1))
    d[:, ::4] = 0.0
    assert_bitwise(dom.max_blend(base, d), reference_interval_max_blend(dom, base, d))


@pytest.mark.parametrize(
    "lo, hi", [(0.0, 1.0), (-np.inf, 2.0), (0.5, np.inf), (0.0, np.inf)]
)
@adversarial
def test_max_blend_of_a_non_finite_step_is_zero(lo, hi):
    # An infinite step toward an unbounded side met inf / inf and gave a
    # NaN eta, which reached the blended update.  Every non-finite step
    # now gets eta = 0, and no eta on the SPECIAL grid is NaN.
    dom = IntervalDomain(lo, hi)
    v, dv = np.meshgrid(SPECIAL, SPECIAL, indexing="ij")
    eta = dom.max_blend(v[..., None], dv[..., None])
    assert not np.isnan(eta).any()
    assert not eta[~np.isfinite(dv)].any()
    if hi == np.inf:
        assert dom.max_blend(np.array([0.2]), np.array([np.inf])) == 0.0
    gas = GasDomain()
    base = Euler().conserved(1.0, 0.3, -0.2, 1.0)
    d = np.stack(np.meshgrid(*[SPECIAL] * 4, indexing="ij"), -1).reshape(-1, 4)
    eta = gas.max_blend(np.broadcast_to(base, d.shape), d)
    assert not np.isnan(eta).any()
    assert not eta[~np.isfinite(d).all(axis=1)].any()


@adversarial
def test_gas_max_blend_bitwise():
    m = Euler()
    dom = GasDomain()
    rng = np.random.default_rng(24)
    n = 600
    base = m.conserved(
        10.0 ** rng.uniform(-3, 1, n),
        rng.uniform(-3, 3, n),
        rng.uniform(-3, 3, n),
        10.0 ** rng.uniform(-3, 1, n),
    )
    d = rng.normal(size=(n, 4)) * 10.0 ** rng.uniform(-2, 2, (n, 1))
    kind = rng.integers(0, 5, n)
    d[kind == 0, 1:] = 0.0  # density only: a linear constraint
    d[kind == 1] = 0.0  # step = 0
    base[kind == 2, 0] *= -1.0  # rho < rho_min
    base[kind == 3, 3] = 0.0  # g(base) < 0
    special = np.stack(np.meshgrid(*[SPECIAL[[0, 4, 8, 10, 14, 16]]] * 4), -1)
    special = special.reshape(-1, 4)
    half = len(special) // 2
    base = np.concatenate([base, special[:half] + 1.0])
    d = np.concatenate([d, special[half : 2 * half]])
    assert_bitwise(dom.max_blend(base, d), reference_gas_max_blend(dom, base, d))
    b3, d3 = base[:300].reshape(100, 3, 4), d[:300].reshape(100, 3, 4)
    assert_bitwise(dom.max_blend(b3, d3), reference_gas_max_blend(dom, b3, d3))


def reference_group_blend(dom, u, ref):
    """The per-state blends of the groups u (G, nq, nv) toward ref (G, nv),
    and their minimum over each group."""
    r = ref[:, None, :]
    return dom.max_blend(np.broadcast_to(r, u.shape), u - r).min(axis=1)


def assert_same_blends(got, want):
    """Bitwise, except for the sign of a NaN: a minimum over a row takes
    its NaN's sign from where the NaN sits and from the layout."""
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert_bitwise(got[~nan], want[~nan])


@pytest.mark.parametrize(
    "lo, hi",
    [(0.0, 1.0), (-np.inf, 2.0), (0.5, np.inf), (-np.inf, np.inf), (-0.0, 1.0)],
)
@adversarial
def test_interval_group_blend_is_the_per_state_minimum(lo, hi):
    # Every reference and group of three states over the special values:
    # on and beyond the bounds, signed zeros, NaN and +-inf.  Both layouts
    # of `HighOrder._rescue_states`: C-order trace groups (NE, 3, 1) and
    # the transposed view of the volume block (1, nq, NT).
    dom = IntervalDomain(lo, hi)
    g = np.stack(np.meshgrid(*[SPECIAL] * 4, indexing="ij"), -1).reshape(-1, 4)
    ref, u = g[:, :1], g[:, 1:, None]
    rng = np.random.default_rng(25)
    ref_rng = rng.uniform(0.0, 1.0, (200, 1))
    u_rng = rng.uniform(-0.2, 1.2, (200, 16, 1))
    u_rng[::3, 5] = 0.0
    u_rng[::4, 7] = 1.0
    for ref, u in ((ref, u), (ref_rng, u_rng)):
        want = reference_group_blend(dom, u, ref)
        # An infinite step toward an infinite bound used to give NaN.
        assert not np.isnan(want).any()
        for groups in (np.arange(len(u)), np.arange(1, len(u), 3)):
            for x in (u, np.ascontiguousarray(u.T).T):
                assert_same_blends(dom.max_group_blend(x, ref, groups), want[groups])


@adversarial
def test_gas_group_blend_is_the_per_state_minimum():
    # Groups of three states over the special values, shifted as in the
    # per-state test, toward admissible references; one of them sits on
    # the density bound.
    m = Euler()
    dom = GasDomain()
    special = np.stack(np.meshgrid(*[SPECIAL[[0, 4, 8, 10, 14, 16]]] * 4), -1)
    u = special.reshape(-1, 3, 4) + np.array([1.0, 0.0, 1.0])[None, :, None]
    rng = np.random.default_rng(26)
    n = len(u)
    rho = 10.0 ** rng.uniform(-3, 1, n)
    rho[0] = dom.rho_min
    ref = m.conserved(rho, rng.uniform(-3, 3, n), rng.uniform(-3, 3, n), 1.0 + rho)
    assert dom.contains(ref).all()
    want = reference_group_blend(dom, u, ref)
    for groups in (np.arange(n), np.arange(1, n, 3)):
        for x in (u, np.ascontiguousarray(u.T).T):
            assert_same_blends(dom.max_group_blend(x, ref, groups), want[groups])


def reference_interval_contains(dom, u):
    """The interval predicate as it was with its tolerance `slack` = 0."""
    slack = 0.0
    v = u[..., 0]
    return (v >= dom.lo - slack) & (v <= dom.hi + slack)


def reference_gas_contains(dom, u):
    """The gas predicate as it was with its tolerance `slack` = 0: it
    rejected a non-finite state only through -0 * inf = NaN."""
    slack = 0.0
    rho = u[..., 0]
    gscale = (
        np.abs(u[..., 0]) * (np.abs(u[..., 3]) + dom.e_min)
        + 0.5 * (u[..., 1] ** 2 + u[..., 2] ** 2)
        + 1.0
    )
    return (
        (rho >= dom.rho_min * (1.0 - slack) - slack)
        & (rho <= dom.rho_max * (1.0 + slack))
        & (dom.g(u) >= -slack * gscale)
    )


@adversarial
def test_contains_bitwise_on_special_values():
    v = SPECIAL[:, None]
    for lo, hi in [(0.0, 1.0), (-np.inf, 2.0), (0.5, np.inf)]:
        dom = IntervalDomain(lo, hi)
        assert_bitwise(dom.contains(v), reference_interval_contains(dom, v))
    # All 19^4 states over the special values and +-1e200, whose products
    # overflow: E = +inf, NaN and overflowing energies are inadmissible.
    vals = np.concatenate([SPECIAL, [1e200, -1e200]])
    u = np.stack(np.meshgrid(*[vals] * 4, indexing="ij"), -1).reshape(-1, 4)
    dom = GasDomain()
    got = dom.contains(u)
    assert_bitwise(got, reference_gas_contains(dom, u))
    assert got.any() and not got[~np.isfinite(u).all(axis=1)].any()
    assert not dom.contains(np.array([1.0, 0.0, 0.0, np.inf]))


def reference_blend_average_fluxes(tables, domain, ubar, F_lo, F_ho, theta, dt):
    """The edge blend side by side, as it was before the two sides became
    one candidate set."""
    mesh = tables.mesh
    interior = mesh.edge_tris[:, 1] >= 0
    rescued = np.zeros(len(F_lo), dtype=bool)
    if domain is not None:
        sides = []
        for s, sign in ((0, 1.0), (1, -1.0)):
            k = np.clip(mesh.edge_tris[:, s], 0, None)
            sides.append((ubar[k], 3.0 * dt / mesh.areas[k] * sign))
        r = np.ones(len(F_lo))
        for s, (ub, fac) in enumerate(sides):
            c = ub - fac[:, None] * F_lo
            ok = domain.contains(c)
            if s == 1:
                ok |= ~interior
            bad = ~ok
            if bad.any():
                rescued |= bad
                eta_r = domain.max_blend(ub, c - ub)
                r = np.minimum(r, np.where(bad, eta_r, 1.0))
        if rescued.any():
            F_lo = F_lo * r[:, None]
    dF = F_ho - F_lo
    eta = np.ones(len(F_lo))
    if domain is not None:
        for s, (ub, fac) in enumerate(sides):
            c0 = ub - fac[:, None] * F_lo
            eta_s = domain.max_blend(c0, -fac[:, None] * dF)
            if s == 1:
                eta_s = np.where(interior, eta_s, np.inf)
            eta = np.minimum(eta, eta_s)
    eta = np.minimum(eta, theta[mesh.edge_tris[:, 0]])
    eta = np.minimum(
        eta,
        np.where(
            interior, theta[np.clip(mesh.edge_tris[:, 1], 0, None)], np.inf
        ),
    )
    F = F_lo + eta[:, None] * dF
    return F, eta, int(rescued.sum())


def _rescued_sides(tb, domain, ubar, F_lo, dt):
    """Per edge, whether the low-order candidate of each side leaves the
    domain: (2, NE), side 1 of boundary edges False."""
    mesh = tb.mesh
    bad = np.zeros((2, mesh.num_edges), dtype=bool)
    for s, sign in ((0, 1.0), (1, -1.0)):
        k = mesh.edge_tris[:, s]
        keep = k >= 0
        fac = sign * 3.0 * dt / mesh.areas[k[keep]]
        bad[s, keep] = ~domain.contains(ubar[k[keep]] - fac[:, None] * F_lo[keep])
    return bad


def edge_blend_inputs(case):
    """(tables, domain, ubar, F_lo, F_ho, theta, dt) of an edge blend whose
    low-order candidates leave the domain on one side, on both sides and
    on boundary edges ("interval", "gas"), or that needs no rescue
    ("none" without a domain, "no-rescue")."""
    mesh = rect_mesh((0.0, 1.0, 0.0, 1.0), 8, jitter=0.25, seed=3)
    tb = Tables(mesh)
    rng = np.random.default_rng(50)
    ne = mesh.num_edges
    dt = mesh.areas.mean() / 3.0
    theta = rng.uniform(0.2, 1.0, mesh.num_tris)
    theta[::5] = 1.0
    mag = 10.0 ** rng.uniform(-2, 1, (ne, 1))
    if case == "gas":
        model = Euler()
        n = mesh.num_tris
        ubar = model.conserved(
            rng.uniform(0.5, 2.0, n),
            rng.uniform(-1, 1, n),
            rng.uniform(-1, 1, n),
            rng.uniform(0.5, 2.0, n),
        )
        F_lo = rng.normal(size=(ne, 4)) * mag
        domain = GasDomain()
    else:
        ubar = rng.uniform(0.0, 1.0, (mesh.num_tris, 1))
        ubar[::7] = 1.0  # on the bound
        F_lo = rng.normal(size=(ne, 1)) * mag
        if case == "no-rescue":
            ubar = 0.25 + 0.5 * ubar
            F_lo *= 1e-2
        domain = None if case == "none" else IntervalDomain(0.0, 1.0)
    F_ho = F_lo + rng.normal(size=F_lo.shape) * 10.0 ** rng.uniform(-2, 1, (ne, 1))
    return tb, domain, ubar, F_lo, F_ho, theta, dt


@pytest.mark.parametrize("case", ["interval", "gas", "none", "no-rescue"])
def test_blend_average_fluxes_bitwise_per_side_reference(case):
    tb, domain, ubar, F_lo, F_ho, theta, dt = edge_blend_inputs(case)
    mesh = tb.mesh
    got = blend_average_fluxes(tb, domain, ubar, F_lo, F_ho, theta, dt)
    want = reference_blend_average_fluxes(tb, domain, ubar, F_lo, F_ho, theta, dt)
    assert_bitwise(got[0], want[0])
    assert_bitwise(got[1], want[1])
    assert got[2] == want[2]
    if domain is not None:
        # The domain, not only the damping, limits some edges.
        damped = blend_average_fluxes(tb, None, ubar, F_lo, F_ho, theta, dt)[1]
        assert (got[1] < damped).any()
    if case in ("interval", "gas"):
        # Rescues on one side only, on both sides, and on boundary edges.
        bad = _rescued_sides(tb, domain, ubar, F_lo, dt)
        boundary = mesh.edge_tris[:, 1] < 0
        assert got[2] == bad.any(axis=0).sum()  # edges, not edge sides
        assert (bad[0] ^ bad[1])[~boundary].any()
        assert (bad[0] & bad[1]).any() and bad[0, boundary].any()
    else:
        assert got[2] == 0


def reference_blend_point_residuals(tables, domain, u_loc, Phi_lo, Wpt, theta, dt):
    """The point blend as it was before points and edges shared one
    candidate kernel: its rescue blends every candidate."""
    n_rescued = 0
    if domain is not None:
        mesh = tables.mesh
        share = (mesh.areas / 9.0) / mesh.gather_points(mesh.point_area)
        lam = dt / share
        c0 = u_loc - lam[..., None] * Phi_lo
        ok0 = domain.contains(c0)
        n_rescued = int((~ok0).sum())
        if n_rescued:
            r = np.where(ok0, 1.0, domain.max_blend(u_loc, c0 - u_loc))
            Phi_lo = Phi_lo * r[..., None]
            c0 = u_loc - lam[..., None] * Phi_lo
    dW = Wpt - Phi_lo
    eta = theta
    if domain is not None:
        eta = np.minimum(domain.max_blend(c0, -lam[..., None] * dW), eta)
    eta = np.broadcast_to(eta, dW.shape[:2])
    b = Phi_lo + eta[..., None] * dW
    return b, eta, n_rescued


def point_blend_inputs(case):
    """(tables, domain, u_loc, Phi_lo, Wpt, theta, dt) of a point blend
    whose low-order candidates leave the domain ("interval" on data that
    touch the bounds, "gas" with Euler states) or that has no domain
    ("none").  u_loc is component-major, as the stepper passes it."""
    mesh = rect_mesh((0.0, 1.0, 0.0, 1.0), 8, jitter=0.25, seed=3)
    tb = Tables(mesh)
    rng = np.random.default_rng(51)
    nt = mesh.num_tris
    dt = mesh.areas.mean() / 3.0
    theta = rng.uniform(0.2, 1.0, nt)
    theta[::5] = 1.0
    if case == "gas":
        model = Euler()
        # Densities and pressures down to 1e-3, near the floors of the
        # amplified point candidates.
        ubar, upt = (
            model.conserved(
                10.0 ** rng.uniform(-3, 0.3, n),
                rng.uniform(-1, 1, n),
                rng.uniform(-1, 1, n),
                10.0 ** rng.uniform(-3, 0.3, n),
            )
            for n in (nt, mesh.num_points)
        )
        domain = GasDomain()
    else:
        ubar = rng.uniform(0.0, 1.0, (nt, 1))
        upt = rng.uniform(0.0, 1.0, (mesh.num_points, 1))
        upt[::7] = 1.0  # on the upper bound
        upt[3::7] = 0.0  # on the lower bound
        domain = None if case == "none" else IntervalDomain(0.0, 1.0)
    u_loc = tb.coefficients(ubar, upt)[:6]
    nv = u_loc.shape[-1]
    Phi_lo = nv_last(rng.normal(size=(nv, 6, nt))) * 10.0 ** rng.uniform(
        -2, 1, (6, nt, 1)
    )
    Wpt = Phi_lo + rng.normal(size=Phi_lo.shape) * 10.0 ** rng.uniform(
        -2, 1, (6, nt, 1)
    )
    return tb, domain, u_loc, Phi_lo, Wpt, theta, dt


@pytest.mark.parametrize("case", ["interval", "gas", "none"])
def test_blend_point_residuals_bitwise_reference(case):
    args = point_blend_inputs(case)
    got = blend_point_residuals(*args)
    want = reference_blend_point_residuals(*args)
    assert_bitwise(got[0], want[0])
    assert_bitwise(got[1], want[1])
    assert got[2] == want[2]
    theta = args[5]
    if case == "none":
        assert got[2] == 0
        assert_bitwise(got[1], np.broadcast_to(theta, got[1].shape))
    else:
        # Rescued points, and points that the domain, not the damping, limits.
        assert got[2] > 0
        assert (got[1] < theta).any()


class RecordingDomain:
    """A domain that records how many states each `max_blend` call gets,
    and the function that calls each blend."""

    def __init__(self, domain):
        self.domain = domain
        self.sizes = []
        self.callers = []

    def contains(self, u):
        return self.domain.contains(u)

    def max_blend(self, base, d):
        self.sizes.append(base[..., 0].size)
        self.callers.append(("max_blend", sys._getframe(1).f_code.co_name))
        return self.domain.max_blend(base, d)

    def max_group_blend(self, u, ref, groups):
        self.callers.append(("max_group_blend", sys._getframe(1).f_code.co_name))
        return self.domain.max_group_blend(u, ref, groups)


@pytest.mark.parametrize("kind", ["points", "edges"])
def test_rescue_blends_only_the_offending_candidates(kind):
    # The rescue blend gets the rescued candidates, gathered; the blend
    # towards the high order gets every candidate.
    inputs, blend = {
        "points": (point_blend_inputs, blend_point_residuals),
        "edges": (edge_blend_inputs, blend_average_fluxes),
    }[kind]
    tb, domain, base, F_lo, F_ho, theta, dt = inputs("interval")
    rec = RecordingDomain(domain)
    got = blend(tb, rec, base, F_lo, F_ho, theta, dt)
    want = blend(tb, domain, base, F_lo, F_ho, theta, dt)
    for g, w in zip(got[:2], want[:2]):
        assert_bitwise(g, w)
    n_candidates = 6 * tb.mesh.num_tris if kind == "points" else 2 * tb.mesh.num_edges
    n_offending = got[2]
    if kind == "edges":
        # The count is of edges; side 1 of a boundary edge repeats side 0.
        bad = _rescued_sides(tb, domain, base, F_lo, dt)
        boundary = tb.mesh.edge_tris[:, 1] < 0
        assert got[2] == bad.any(axis=0).sum()
        n_offending = bad.sum() + bad[0, boundary].sum()
    assert 0 < got[2] < n_candidates
    assert rec.sizes == [n_offending, n_candidates]


def test_ho_rescue_blends_groups_not_states():
    # On a tiny `rotating-shapes` run in `full` mode, the per-state blend is
    # called only from the point and edge blends (`_limit_candidates`: the
    # blend toward the high order and its low-order rescue).  The high-order
    # rescue asks the domain for group blends, which an interval answers
    # from two states per group.
    prob = get_problem("rotating-shapes")
    model = prob.make_model(1.4)
    mesh = prob.mesh_builder(8)
    mesh.name_boundary(prob.namer)
    bc = BoundaryHandler(mesh, model, prob.boundaries(model))
    enforce, assert_ = prob.domains(model)
    rec = RecordingDomain(enforce)
    stepper = Stepper(
        mesh, model, bc, mode="full", enforce_domain=rec, assert_domain=assert_
    )
    ubar, upt = sample_initial(prob, model, stepper.tables, domain=assert_)
    journal = stepper.run(ubar, upt, prob.final_time, max_steps=3)[2]
    assert len(journal) == 3
    assert sum(row["rescued_volume"] + row["rescued_trace"] for row in journal) > 0
    assert {c for k, c in rec.callers if k == "max_blend"} == {"_limit_candidates"}
    assert {c for k, c in rec.callers if k == "max_group_blend"} == {"_rescue_states"}
    # Two blends per substep, and one more per blend that rescued.
    n_blend = sum(k == "max_blend" for k, _ in rec.callers)
    n_lo = sum(
        (row["rescued_points"] > 0) + (row["rescued_edges"] > 0) for row in journal
    )
    assert 6 * len(journal) + n_lo <= n_blend <= 12 * len(journal)


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
    Phi_lo = lo.point_residuals(coef)
    theta = np.ones(mesh.num_tris)

    Wpt = rng.normal(size=(6, mesh.num_tris, 1)) * 50.0
    F_ho = rng.normal(size=(mesh.num_edges, 1)) * 50.0

    b, eta_pt, _r1 = blend_point_residuals(
        tb, dom, coef[:6], Phi_lo, Wpt, theta, dt
    )
    F_lo = lo.average_fluxes(ubar, 0.0)
    F, eta_e, _r2 = blend_average_fluxes(tb, dom, ubar, F_lo, F_ho, theta, dt)

    acc = np.zeros_like(upt)
    np.add.at(acc, mesh.gather_points(np.arange(mesh.num_points)), b)
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


def edge_traces(tb, upt):
    """The P2 traces on the edges from their vertex and midpoint values."""
    mesh = tb.mesh
    mid = len(mesh.verts) + np.arange(mesh.num_edges)
    return tb.N1D @ upt[np.column_stack([mesh.edge_verts, mid])]


def _theta_for(mesh, model, ubar, upt, dt=1e-3):
    tb = Tables(mesh)
    coef = tb.coefficients(ubar, upt)
    speed = interior_edge_speeds(tb, model, edge_traces(tb, upt))
    return damping_theta(tb, model, coef, speed, dt)


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
    rot = Mesh(base.verts @ R.T, base.tris.copy())
    model_rot = LinearAdvection(R @ a)

    t1 = _theta_for(base, model, ubar, upt_vals[:, None])
    t2 = _theta_for(rot, model_rot, ubar, upt_vals[:, None])
    assert np.abs(t1 - t2).max() < 1e-10


def test_damping_rotation_invariance_euler():
    # A rigid rotation of the mesh, with the momentum of the data rotated
    # alike, leaves theta unchanged: the jumps are taken in each edge's
    # (n, t) frame and the momentum pair is rotated into it.
    base = rect_mesh((0.0, 1.0, 0.0, 1.0), 5, jitter=0.25, seed=8)
    model = Euler()
    rng = np.random.default_rng(13)

    def states(n):
        return model.conserved(
            rng.uniform(0.5, 2.0, n),
            rng.uniform(-1.0, 1.0, n),
            rng.uniform(-1.0, 1.0, n),
            rng.uniform(0.5, 2.0, n),
        )

    ubar, upt = states(base.num_tris), states(base.num_points)
    c, s = np.cos(np.pi / 5), np.sin(np.pi / 5)
    R = np.array([[c, -s], [s, c]])
    rot = Mesh(base.verts @ R.T, base.tris.copy())

    def rotated(u):
        u = u.copy()
        u[:, 1:3] = u[:, 1:3] @ R.T
        return u

    t1 = _theta_for(base, model, ubar, upt, dt=1e-2)
    t2 = _theta_for(rot, model, rotated(ubar), rotated(upt), dt=1e-2)
    assert t1.min() < 0.99
    assert np.abs(t1 - t2).max() < 1e-10


def test_damping_theta_is_the_mean_edge_rate_per_element():
    # theta_K = exp(-(dt / N_K) sum_e alpha_e sigma_{e,K} / ell_{e,K}),
    # summed edge by edge, side 0 edges first: bitwise the same sums.
    mesh = named(rect_mesh((0.0, 1.0, 0.0, 1.0), 5, jitter=0.25, seed=6))
    model = LinearAdvection(rotation_velocity)
    rng = np.random.default_rng(14)
    ubar = rng.random((mesh.num_tris, 1))
    upt = rng.random((mesh.num_points, 1))
    tb = Tables(mesh)
    coef = tb.coefficients(ubar, upt)
    trace = edge_traces(tb, upt)
    xy = tb.edge_points(slice(None))
    dt = 1e-2
    theta = damping_theta(tb, model, coef, interior_edge_speeds(tb, model, trace), dt)

    ei, sig = tb.interior_edges, damping_sigma(tb, model, coef)
    expo = np.zeros(mesh.num_tris)
    count = np.zeros(mesh.num_tris)
    for s in range(2):
        for i, e in enumerate(ei):
            alpha = model.max_wavespeed(trace[e], mesh.edge_normal[e], xy[e]).max()
            k = mesh.edge_tris[e, s]
            expo[k] += alpha * sig[i, s] / tb.EDGE_DIST[s, i]
            count[k] += 1.0
    assert (count > 0).all() and (count < 3).any()
    want = np.exp(-dt * expo / count)
    assert want.min() < 0.99
    assert theta.tobytes() == want.tobytes()


def test_damping_on_a_mesh_without_interior_edges():
    mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.2, 0.9]]), np.array([[0, 1, 2]]))
    tb = Tables(mesh)
    assert len(tb.interior_edges) == 0 and tb.jump_index.shape == (2, 7, 0)
    assert tb.EDGE_DIST.shape == (2, 0)
    model = LinearAdvection((1.0, 0.3))
    rng = np.random.default_rng(4)
    ubar, upt = rng.random((1, 1)), rng.random((mesh.num_points, 1))
    coef = tb.coefficients(ubar, upt)
    assert tb.edge_side_gradients(coef).shape == (3, 1, tb.nqe, 0)
    assert damping_sigma(tb, model, coef).shape == (0, 2)
    assert _theta_for(mesh, model, ubar, upt).tolist() == [1.0]


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
        return damping_sigma(tb, model, coef)

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
    sig = damping_sigma(tb, model, coef)
    assert sig.max() < 1e-12


def test_damping_sigma_matches_symbolic_oracle():
    # Two triangles sharing the unit-square diagonal, hand-picked DoF data
    # with genuine derivative kinks; the jump measure is recomputed from
    # scratch with sympy.
    import sympy as sp

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
    ei, sig = tb.interior_edges, damping_sigma(tb, model, coef, c1=c1, c2=c2)
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


def reference_denominators(model, ubar, upt, areas):
    """The denominators of the damping from the concatenated point values
    and averages, as `_component_denominators` computed them before it
    read them from the coefficient block."""
    allv = np.concatenate([upt, ubar], axis=0)
    mean = areas @ ubar / areas.sum()
    dev = allv - mean
    den = np.abs(dev).max(axis=0)
    scale = np.maximum(1.0, np.abs(mean))
    if model.nvars == 4:
        den[1:3] = np.hypot(dev[:, 1], dev[:, 2]).max()
        scale[1:3] = max(1.0, float(np.hypot(mean[1], mean[2])))
    return np.where(den > 1e-12 * scale, den, 0.0)


def xy_frame_jumps(tb, coef):
    """The jumps (d_n, d_t, d_nn, d_nt, d_tt) over the interior edges by
    way of the x, y frame: the gradients and Hessians of both sides in x
    and y, their difference, then the projections on n and t.  Returns
    (edge ids, (5, nv, nqe, E)); no momentum rotation."""
    mesh = tb.mesh
    ei = np.flatnonzero(mesh.edge_tris[:, 1] >= 0)
    _, nt, nv = coef.shape
    ne, nqe = len(ei), tb.nqe
    grad = np.empty((2, 2, nv, nqe, ne))
    hess = np.empty((2, 3, nv, nqe, ne))
    by_var = nv_first(coef).reshape(nv, -1)
    tris = mesh.edge_tris[ei]
    local = _local_edges(mesh, tris, ei)
    for s in range(2):
        k = tris[:, s]
        rot = ROTATE[local[:, s]].T
        c = np.take(by_var, rot * nt + k, axis=1)
        r = (tb.EDGE_DERIV_OP[s] @ c).reshape(nv, 5, nqe, ne)
        g0 = mesh.grad_lambda[:, rot[0], k]
        g1 = mesh.grad_lambda[:, rot[1], k]
        for d in range(2):
            grad[s, d] = g0[d] * r[:, 0] + g1[d] * r[:, 1]
        for i, (d, e) in enumerate(((0, 0), (0, 1), (1, 1))):
            hess[s, i] = (
                g0[d] * g0[e] * r[:, 2]
                + (g0[d] * g1[e] + g1[d] * g0[e]) * r[:, 3]
                + g1[d] * g1[e] * r[:, 4]
            )
    nx, ny = mesh.edge_normal[ei].T
    gx, gy = grad[0] - grad[1]
    xx, xy, yy = hess[0] - hess[1]
    return ei, np.stack([
        nx * gx + ny * gy,
        -ny * gx + nx * gy,
        nx * nx * xx + 2.0 * nx * ny * xy + ny * ny * yy,
        -nx * ny * xx + (nx * nx - ny * ny) * xy + nx * ny * yy,
        ny * ny * xx - 2.0 * nx * ny * xy + nx * nx * yy,
    ])


def xy_frame_sigma(tb, model, coef, ubar, upt, c1=1.0, c2=1.0):
    """sigma from `xy_frame_jumps` with the momentum pair rotated into
    (n, t), all five jumps and the concatenating denominators."""
    mesh = tb.mesh
    ei, jump = xy_frame_jumps(tb, coef)
    dens = reference_denominators(model, ubar, upt, mesh.areas)
    inv_den = np.where(dens > 0, 1.0 / np.where(dens > 0, dens, 1.0), 0.0)
    if model.nvars > 1:
        nx, ny = mesh.edge_normal[ei].T
        mx, my = jump[:, 1].copy(), jump[:, 2].copy()
        jump[:, 1] = nx * mx + ny * my
        jump[:, 2] = -ny * mx + nx * my
    d_n, d_t, d_nn, d_nt, d_tt = np.abs(jump)
    S1 = np.einsum("q,vqe,v->ev", tb.wq_edge, d_n + d_t, inv_den)
    S2 = np.einsum("q,vqe,v->ev", tb.wq_edge, d_nn + d_nt + d_tt, inv_den)
    ell = tb.EDGE_DIST.T
    sig = (
        c1 * ell[:, :, None] * S1[:, None, :]
        + c2 * (ell**2)[:, :, None] * S2[:, None, :]
    )
    return ei, sig.max(axis=2)


@pytest.mark.parametrize("nv", [1, 4])
def test_damping_sigma_matches_the_xy_frame_formula(nv):
    # Random P2 data, so that every derivative jump is of order one; the
    # Euler case (nv = 4) also rotates the momentum pair.
    mesh = rect_mesh((0.0, 1.0, 0.0, 1.0), 6, jitter=0.25, seed=10)
    tb = Tables(mesh)
    rng = np.random.default_rng(30 + nv)
    scale = 10.0 ** np.arange(nv)
    ubar = rng.random((mesh.num_tris, nv)) * scale
    upt = rng.random((mesh.num_points, nv)) * scale
    model = LinearAdvection((1.0, 0.3)) if nv == 1 else Euler()
    coef = tb.coefficients(ubar, upt)
    sig = damping_sigma(tb, model, coef, c1=0.9, c2=1.7)
    ref_ei, ref = xy_frame_sigma(tb, model, coef, ubar, upt, c1=0.9, c2=1.7)
    assert tb.interior_edges.tolist() == ref_ei.tolist() and sig.shape == ref.shape
    assert ref.min() > 0
    assert (np.abs(sig - ref) <= 1e-13 * ref).all()
    # The denominators from the coefficient block are the concatenating
    # ones to round-off in the mean.
    dens = _component_denominators(model, coef, mesh.areas)
    want = reference_denominators(model, ubar, upt, mesh.areas)
    assert (np.abs(dens - want) <= 1e-15 * want).all()


@pytest.mark.parametrize("nv", [1, 4])
def test_tangential_jumps_vanish(nv):
    # On an edge u_h depends only on the three point DoFs of the edge,
    # which both sides share, so [d_t] and [d_tt] are round-off while the
    # normal jumps are of order one; those are the rows of
    # `edge_side_gradients`.
    mesh = rect_mesh((0.0, 1.0, 0.0, 1.0), 6, jitter=0.25, seed=11)
    tb = Tables(mesh)
    rng = np.random.default_rng(40 + nv)
    coef = tb.coefficients(
        rng.random((mesh.num_tris, nv)), rng.random((mesh.num_points, nv))
    )
    ei, jump = xy_frame_jumps(tb, coef)
    d_n, d_t, d_nn, d_nt, d_tt = np.abs(jump).max(axis=(1, 2, 3))
    assert min(d_n, d_nn, d_nt) > 1.0
    assert d_t < 1e-12 * d_n and d_tt < 1e-12 * d_nn
    got = tb.edge_side_gradients(coef)
    assert ei.tolist() == tb.interior_edges.tolist()
    for row, want in zip(got, jump[[0, 2, 3]]):
        assert np.abs(row - want).max() < 1e-12 * np.abs(want).max()


def contracted_nt_jumps(tb, coef):
    """[d_nt] (nv, nqe, E) over the interior edges as `edge_side_gradients`
    formed it before it took the derivative of [d_n] along the edge: the
    reduced second derivatives of each side contracted with
    n . grad(lambda_a) and t . grad(lambda_a)."""
    mesh = tb.mesh
    ei = tb.interior_edges
    _, nt, nv = coef.shape
    by_var = nv_first(coef).reshape(nv, -1)
    nx, ny = mesh.edge_normal[ei].T
    out = np.zeros((nv, tb.nqe, len(ei)))
    local = _local_edges(mesh, mesh.edge_tris[ei], ei)  # (E, 2)
    for s, sign in ((0, 1.0), (1, -1.0)):
        k = mesh.edge_tris[ei, s]
        rot = ROTATE[local[:, s]].T  # (7, E)
        r = (tb.EDGE_DERIV_OP[s] @ np.take(by_var, rot * nt + k, axis=1))
        r = r.reshape(nv, 5, tb.nqe, len(ei))
        g = mesh.grad_lambda.T[k[:, None], rot[:2].T]  # (E, 2 (a), 2 (d))
        n0, n1 = nx * g[:, :, 0].T + ny * g[:, :, 1].T
        t0, t1 = nx * g[:, :, 1].T - ny * g[:, :, 0].T
        out += sign * (
            n0 * t0 * r[:, 2] + (n0 * t1 + n1 * t0) * r[:, 3] + n1 * t1 * r[:, 4]
        )
    return out


@pytest.mark.parametrize("nv", [1, 4])
def test_nt_jump_is_the_contracted_hessian(nv):
    # `edge_side_gradients` takes [d_nt] as the derivative of [d_n] along
    # the edge, exact because [d_n] is quadratic there (P2 plus bubble);
    # on random states it is the t . H . n contraction to round-off.
    mesh = rect_mesh((0.0, 1.0, 0.0, 1.0), 6, jitter=0.3, seed=13)
    tb = Tables(mesh)
    rng = np.random.default_rng(50 + nv)
    coef = tb.coefficients(
        rng.standard_normal((mesh.num_tris, nv)),
        rng.standard_normal((mesh.num_points, nv)),
    )
    got = tb.edge_side_gradients(coef)[2]
    want = contracted_nt_jumps(tb, coef)
    assert np.abs(want).max() > 1.0
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_edge_dist_is_the_all_edge_formula_on_interior_edges():
    # The damping lengths, computed per interior edge and side, are the
    # bits of the formula evaluated over every edge.
    mesh = rect_mesh((0.0, 1.0, 0.0, 1.0), 6, jitter=0.25, seed=12)
    tb = Tables(mesh)
    a = mesh.verts[mesh.edge_verts[:, 0]]
    ab = mesh.verts[mesh.edge_verts[:, 1]] - a
    denom = np.einsum("ed,ed->e", ab, ab)
    tris = np.clip(mesh.edge_tris, 0, None)
    local = _local_edges(mesh, tris, np.arange(mesh.num_edges))
    want = np.empty((2, mesh.num_edges))
    for s in range(2):
        opp = mesh.verts[mesh.tris[tris[:, s], (local[:, s] + 2) % 3]]
        tpar = np.clip(np.einsum("ed,ed->e", opp - a, ab) / denom, 0.0, 1.0)
        want[s] = np.linalg.norm(opp - (a + tpar[:, None] * ab), axis=1)
    assert_bitwise(tb.EDGE_DIST, want[:, tb.interior_edges])
