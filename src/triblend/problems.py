"""Built-in benchmark problems: models, initial data, boundaries, domains.

Each entry bundles everything a run needs: a model factory (taking the
adiabatic index, ignored by scalar problems), analytic initial data, a
boundary map plus a geometric namer for generated meshes, default final
time, a mesh builder, invariant domains for enforcement and assertion, and
the exact solution where one exists.  Each factory's docstring describes
its problem.

The invariant domains follow two rules, shared with the `[limits]`
overrides of `triblend run`: an interval [lo, hi] is enforced as given and
asserted padded by 1e-9 max(1, |lo|, |hi|) (`interval_domains`); a gas
domain asserts the floors rho_min and p_min and enforces twice them
(`gas_domains`).  `kpp` keeps one unpadded pair, because padding would
loosen its assert.

Discontinuous initial data is written as an ordered region list; the first
region whose closure contains a point wins, which pins the values taken
exactly on interface lines (deterministic tie-break).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .boundary import FarField, Outflow, Wall
from .exceptions import ConfigError
from .limiting import GasDomain, IntervalDomain
from .meshgen import ldomain_mesh, polygon_mesh, rect_mesh
from .models import KPP, Euler, LinearAdvection
from .timeloop import initialize


@dataclass
class ProblemDefinition:
    name: str
    make_model: Callable[[float], object]
    initial: Callable[[object, np.ndarray], np.ndarray]  # (model, xy) -> states
    boundaries: Callable[[object], dict]  # model -> {name: BC}
    namer: Callable[[np.ndarray], list]  # boundary midpoints -> names
    final_time: float
    mesh_builder: Callable[[int], object]
    default_n: int
    domains: Callable[[object], tuple]  # model -> (enforce, assert) or Nones
    exact: Callable[[object, np.ndarray, float], np.ndarray] | None = None


def piecewise_state(xy, regions, default):
    """First-match piecewise constant states.

    regions: [(mask_fn, state), ...] evaluated in order; write the
    conditions with closed inequalities so interface points land in the
    first region whose closure contains them.
    """
    x, y = xy[..., 0], xy[..., 1]
    default = np.asarray(default, dtype=float)
    out = np.broadcast_to(default, xy.shape[:-1] + default.shape).copy()
    for mask_fn, state in reversed(regions):
        out[mask_fn(x, y)] = np.asarray(state, dtype=float)
    return out


def shock_jump(mach, rho0, p0, gamma):
    """Post-shock primitives (rho, vx, vy, p) behind a right-moving normal
    shock of the given Mach number running into quiescent gas (rho0, 0, p0).
    """
    m2 = mach * mach
    c0 = math.sqrt(gamma * p0 / rho0)
    rho1 = rho0 * (gamma + 1.0) * m2 / ((gamma - 1.0) * m2 + 2.0)
    p1 = p0 * (2.0 * gamma * m2 - (gamma - 1.0)) / (gamma + 1.0)
    v1 = mach * c0 * (1.0 - rho0 / rho1)
    return rho1, v1, 0.0, p1


def sample_initial(problem, model, tables, domain=None):
    """Initial (ubar, upt); every DoF must already sit in the assert domain.

    `domain` overrides the problem's default assert domain (None keeps it).
    """
    ubar, upt = initialize(tables, lambda xy: problem.initial(model, xy))
    dom = domain if domain is not None else problem.domains(model)[1]
    if dom is not None:
        bad = int((~dom.contains(ubar)).sum()) + int((~dom.contains(upt)).sum())
        if bad:
            raise ConfigError(
                f"initial data leaves the invariant domain at {bad} DoFs"
            )
    return ubar, upt


# ---------------------------------------------------------------------------
# domain rules
# ---------------------------------------------------------------------------


def interval_domains(lo, hi):
    """(enforce, assert) domains of the interval [lo, hi]; the padding rule
    is in the module docstring."""
    pad = 1e-9 * max(1.0, abs(lo), abs(hi))
    return IntervalDomain(lo, hi), IntervalDomain(lo - pad, hi + pad)


def gas_domains(gamma, rho_min, p_min):
    """(enforce, assert) domains of the asserted gas floors rho_min and
    p_min; the enforcement rule is in the module docstring."""
    hard = GasDomain(rho_min=rho_min, p_min=p_min, gamma=gamma)
    return hard.scaled(2.0), hard


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------


def _const_namer(name):
    return lambda mids: [name] * len(mids)


def _constant(u):
    """Far field holding the state u (nv,) everywhere and at all times."""
    u = np.asarray(u, dtype=float)
    return FarField(lambda x, t: np.broadcast_to(u, x.shape[:-1] + u.shape))


def _from_primitives(model, prim):
    """Conserved states from primitives (rho, vx, vy, p) on the last axis."""
    return model.conserved(*np.moveaxis(np.asarray(prim, dtype=float), -1, 0))


def _gauss_advection():
    """Smooth Gaussian transported diagonally; exact solution."""
    a = np.array([-1.0, -1.0])
    x0 = np.array([15.0, 15.0])

    def u0(xy):
        d = xy - x0
        return np.exp(-0.25 * np.einsum("...d,...d->...", d, d))[..., None]

    def exact(model, xy, t):
        return u0(xy - a * t)

    return ProblemDefinition(
        name="advect-gauss",
        make_model=lambda gamma: LinearAdvection(a),
        initial=lambda model, xy: u0(xy),
        boundaries=lambda model: {
            "farfield": FarField(lambda x, t: u0(x - a * t))
        },
        namer=_const_namer("farfield"),
        final_time=10.0,
        mesh_builder=lambda n: rect_mesh((-20.0, 20.0, -20.0, 20.0), n, seed=1),
        default_n=28,
        domains=lambda model: (None, None),
        exact=exact,
    )


def _rotating_shapes():
    """Solid-body rotation of a cosine hump, cone and notched disk; one
    full turn returns the initial data."""
    center = np.array([0.5, 0.5])

    def vel(xy):
        # Laid out like xy, so component-major positions give
        # component-major velocities (see `models`).
        v = np.empty_like(xy)
        np.subtract(center[1], xy[..., 1], out=v[..., 0])
        np.subtract(xy[..., 0], center[0], out=v[..., 1])
        v *= 2.0 * np.pi
        return v

    def u0(xy):
        x, y = xy[..., 0], xy[..., 1]
        r1 = np.hypot(x - 0.25, y - 0.5)
        r2 = np.hypot(x - 0.5, y - 0.25)
        r3 = np.hypot(x - 0.5, y - 0.75)
        notch = (np.abs(x - 0.5) <= 0.025) & (y >= 0.6) & (y <= 0.85)
        vals = np.select(
            [notch, r1 <= 0.15, r2 <= 0.15, r3 <= 0.15],
            [
                0.0,
                0.25 * (1.0 + np.cos(np.pi * np.minimum(r1, 0.15) / 0.15)),
                1.0 - r2 / 0.15,
                1.0,
            ],
            default=0.0,
        )
        return vals[..., None]

    return ProblemDefinition(
        name="rotating-shapes",
        make_model=lambda gamma: LinearAdvection(vel),
        initial=lambda model, xy: u0(xy),
        boundaries=lambda model: {"farfield": _constant([0.0])},
        namer=_const_namer("farfield"),
        final_time=1.0,
        mesh_builder=lambda n: rect_mesh((0.0, 1.0, 0.0, 1.0), n, seed=2),
        default_n=59,
        domains=lambda model: interval_domains(0.0, 1.0),
    )


def _kpp():
    """Nonconvex flux with a rotational composite-wave solution; a
    deliberately loose invariant interval."""
    lo = math.pi / 4.0
    hi = 3.5 * math.pi

    def u0(xy):
        r = np.hypot(xy[..., 0], xy[..., 1] - 0.5)
        return np.where(r <= 1.0, hi, lo)[..., None]

    return ProblemDefinition(
        name="kpp",
        make_model=lambda gamma: KPP(),
        initial=lambda model, xy: u0(xy),
        boundaries=lambda model: {"farfield": _constant([lo])},
        namer=_const_namer("farfield"),
        final_time=1.0,
        mesh_builder=lambda n: rect_mesh((-2.0, 2.0, -2.0, 2.0), n, seed=3),
        default_n=92,
        domains=lambda model: (
            IntervalDomain(-1.0, 100.0),
            IntervalDomain(-1.0, 100.0),
        ),
    )


def _euler_problem(name, initial, boundaries, namer, final_time,
                   mesh_builder, default_n, exact=None):
    """Gas-dynamics entry asserting rho >= 1e-10 and p >= (gamma - 1) 1e-10."""
    return ProblemDefinition(
        name=name,
        make_model=Euler,
        initial=initial,
        boundaries=boundaries,
        namer=namer,
        final_time=final_time,
        mesh_builder=mesh_builder,
        default_n=default_n,
        domains=lambda model: gas_domains(
            model.gamma, 1e-10, (model.gamma - 1.0) * 1e-10
        ),
        exact=exact,
    )


def _quadrants():
    """Four-state Riemann data meeting at (1, 1)."""
    states = [
        (lambda x, y: (x >= 1.0) & (y >= 1.0), (1.5, 0.0, 0.0, 1.5)),
        (lambda x, y: (x <= 1.0) & (y >= 1.0), (0.5323, 1.206, 0.0, 0.3)),
        (lambda x, y: (x <= 1.0) & (y <= 1.0), (0.138, 1.206, 1.206, 0.029)),
        (lambda x, y: (x >= 1.0) & (y <= 1.0), (0.5323, 0.0, 1.206, 0.3)),
    ]

    def u0(model, xy):
        return _from_primitives(model, piecewise_state(xy, states, states[0][1]))

    # Far-field data frozen at the initial quadrant states.  Half of the
    # boundary sees entering flow, so a transmissive closure is ill-posed
    # there; prescribing the state at infinity keeps every wall well-posed
    # (late-time pollution where outgoing waves cross is local and stable).
    return _euler_problem(
        "quadrants", u0,
        lambda model: {"farfield": FarField(lambda xy, t: u0(model, xy))},
        _const_namer("farfield"), final_time=1.0, default_n=56,
        mesh_builder=lambda n: rect_mesh((0.0, 1.2, 0.0, 1.2), n, seed=4),
    )


def _shock_problem(name, mach, pre_rho, x_shock, namer, final_time,
                   mesh_builder, default_n):
    """A normal Mach-`mach` shock at x = x_shock, running right into
    quiescent gas (pre_rho(gamma), 0, 0, 1); the post-shock state enters
    through the `inflow` edges, and `outflow` and `wall` edges close the
    rest."""

    def post(model):
        return shock_jump(mach, pre_rho(model.gamma), 1.0, model.gamma)

    def u0(model, xy):
        prim = piecewise_state(
            xy,
            [(lambda x, y: x <= x_shock, post(model))],
            (pre_rho(model.gamma), 0.0, 0.0, 1.0),
        )
        return _from_primitives(model, prim)

    def bcs(model):
        return {
            "inflow": _constant(_from_primitives(model, post(model))),
            "outflow": Outflow(),
            "wall": Wall(),
        }

    return _euler_problem(
        name, u0, bcs, namer, final_time, mesh_builder, default_n
    )


def _double_mach():
    """Mach-10 shock over a 30-degree ramp cut from the rectangle; inflow
    left, outflow right and top, walls elsewhere."""
    tan30 = math.tan(math.pi / 6.0)
    poly = [
        (-0.25, 0.0),
        (0.0, 0.0),
        (3.0, 3.0 * tan30),
        (3.0, 2.0),
        (-0.25, 2.0),
    ]

    def namer(mids):
        names = []
        for x, y in mids:
            if x < -0.25 + 1e-9:
                names.append("inflow")
            elif x > 3.0 - 1e-9 or y > 2.0 - 1e-9:
                names.append("outflow")
            else:
                names.append("wall")
        return names

    return _shock_problem(
        "double-mach", 10.0, lambda gamma: gamma, x_shock=-0.1, namer=namer,
        final_time=0.2, default_n=24,
        mesh_builder=lambda n: polygon_mesh(poly, h=1.0 / n, seed=5),
    )


def _diffraction():
    """Mach-2.4 shock diffracting around a convex corner on an L-shaped
    domain; walls on the step faces."""

    def namer(mids):
        names = []
        for x, y in mids:
            if x < -0.5 + 1e-9:
                names.append("inflow")
            elif (abs(y) < 1e-9 and x < 1e-9) or (abs(x) < 1e-9 and y < 0.0):
                names.append("wall")
            else:
                names.append("outflow")
        return names

    return _shock_problem(
        "diffraction", 2.4, lambda gamma: 1.4, x_shock=-0.05, namer=namer,
        final_time=0.35, default_n=40,
        mesh_builder=lambda n: ldomain_mesh(n, seed=6),
    )


def _free_stream():
    """Uniform wall-parallel flow in a channel; the exact solution is the
    constant state."""
    prim = (1.4, 0.3, 0.0, 2.0)

    def u0(model, xy):
        u = _from_primitives(model, prim)
        return np.broadcast_to(u, xy.shape[:-1] + (4,)).copy()

    def namer(mids):
        return [
            "wall" if (abs(y) < 1e-9 or abs(y - 1.0) < 1e-9) else "farfield"
            for x, y in mids
        ]

    def bcs(model):
        u = _from_primitives(model, prim)
        return {"farfield": _constant(u), "wall": Wall()}

    return _euler_problem(
        "free-stream", u0, bcs, namer, final_time=1.0, default_n=4,
        mesh_builder=lambda n: rect_mesh((0.0, 2.0, 0.0, 1.0), n, seed=7),
        exact=lambda model, xy, t: u0(model, xy),
    )


def builtin_problems() -> dict:
    """Catalog of the built-in benchmark problems, keyed by name."""
    entries = [
        _gauss_advection(),
        _rotating_shapes(),
        _kpp(),
        _quadrants(),
        _double_mach(),
        _diffraction(),
        _free_stream(),
    ]
    return {p.name: p for p in entries}


def get_problem(name: str) -> ProblemDefinition:
    cat = builtin_problems()
    if name not in cat:
        raise ConfigError(
            f"unknown problem {name!r}; available: {', '.join(sorted(cat))}"
        )
    return cat[name]
