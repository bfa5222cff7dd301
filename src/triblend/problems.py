"""Built-in benchmark problems: models, initial data, boundaries, domains.

Each entry bundles everything a run needs: a model factory (taking the
adiabatic index, ignored by scalar problems), analytic initial data, a
boundary map plus a geometric namer for generated meshes, default final
time, a mesh builder, invariant domains for enforcement and assertion, and
the exact solution where one exists.

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
    kind: str  # "scalar" | "euler"
    make_model: Callable[[float], object]
    initial: Callable[[object, np.ndarray], np.ndarray]  # (model, xy) -> states
    boundaries: Callable[[object], dict]  # model -> {name: BC}
    namer: Callable[[np.ndarray], list]  # boundary midpoints -> names
    final_time: float
    mesh_builder: Callable[[int], object]
    default_n: int
    domains: Callable[[object], tuple]  # model -> (enforce, assert) or Nones
    exact: Callable[[object, np.ndarray, float], np.ndarray] | None = None
    description: str = ""


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
# the catalog
# ---------------------------------------------------------------------------


def _const_namer(name):
    return lambda mids: [name] * len(mids)


def _gauss_advection():
    a = np.array([-1.0, -1.0])
    x0 = np.array([15.0, 15.0])

    def u0(xy):
        d = xy - x0
        return np.exp(-0.25 * np.einsum("...d,...d->...", d, d))[..., None]

    def exact(model, xy, t):
        return u0(xy - a * t)

    return ProblemDefinition(
        name="advect-gauss",
        kind="scalar",
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
        description="smooth Gaussian transported diagonally; exact solution",
    )


def _rotating_shapes():
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
        kind="scalar",
        make_model=lambda gamma: LinearAdvection(vel),
        initial=lambda model, xy: u0(xy),
        boundaries=lambda model: {
            "farfield": FarField(lambda x, t: np.zeros(x.shape[:-1] + (1,)))
        },
        namer=_const_namer("farfield"),
        final_time=1.0,
        mesh_builder=lambda n: rect_mesh((0.0, 1.0, 0.0, 1.0), n, seed=2),
        default_n=59,
        domains=lambda model: (
            IntervalDomain(0.0, 1.0),
            IntervalDomain(-1e-9, 1.0 + 1e-9),
        ),
        description="solid-body rotation of a cosine hump, cone and notched "
        "disk; one full turn returns the initial data",
    )


def _kpp():
    lo = math.pi / 4.0
    hi = 3.5 * math.pi

    def u0(xy):
        r = np.hypot(xy[..., 0], xy[..., 1] - 0.5)
        return np.where(r <= 1.0, hi, lo)[..., None]

    return ProblemDefinition(
        name="kpp",
        kind="scalar",
        make_model=lambda gamma: KPP(),
        initial=lambda model, xy: u0(xy),
        boundaries=lambda model: {
            "farfield": FarField(lambda x, t: np.full(x.shape[:-1] + (1,), lo))
        },
        namer=_const_namer("farfield"),
        final_time=1.0,
        mesh_builder=lambda n: rect_mesh((-2.0, 2.0, -2.0, 2.0), n, seed=3),
        default_n=92,
        domains=lambda model: (
            IntervalDomain(-1.0, 100.0),
            IntervalDomain(-1.0, 100.0),
        ),
        description="nonconvex flux with a rotational composite-wave "
        "solution; a deliberately loose invariant interval",
    )


def _gas_domains(model):
    hard = GasDomain(rho_min=1e-10, p_min=(model.gamma - 1.0) * 1e-10,
                     gamma=model.gamma)
    return hard.scaled(2.0), hard


def _quadrants():
    states = [
        (lambda x, y: (x >= 1.0) & (y >= 1.0), (1.5, 0.0, 0.0, 1.5)),
        (lambda x, y: (x <= 1.0) & (y >= 1.0), (0.5323, 1.206, 0.0, 0.3)),
        (lambda x, y: (x <= 1.0) & (y <= 1.0), (0.138, 1.206, 1.206, 0.029)),
        (lambda x, y: (x >= 1.0) & (y <= 1.0), (0.5323, 0.0, 1.206, 0.3)),
    ]

    def u0(model, xy):
        prim = piecewise_state(xy, states, states[0][1])
        return model.conserved(
            prim[..., 0], prim[..., 1], prim[..., 2], prim[..., 3]
        )

    # Far-field data frozen at the initial quadrant states.  Half of the
    # boundary sees entering flow, so a transmissive closure is ill-posed
    # there; prescribing the state at infinity keeps every wall well-posed
    # (late-time pollution where outgoing waves cross is local and stable).
    return ProblemDefinition(
        name="quadrants",
        kind="euler",
        make_model=lambda gamma: Euler(gamma),
        initial=u0,
        boundaries=lambda model: {"farfield": FarField(
            lambda xy, t: u0(model, xy))},
        namer=_const_namer("farfield"),
        final_time=1.0,
        mesh_builder=lambda n: rect_mesh((0.0, 1.2, 0.0, 1.2), n, seed=4),
        default_n=56,
        domains=_gas_domains,
        description="four-state Riemann data meeting at (1, 1)",
    )


def _double_mach():
    tan30 = math.tan(math.pi / 6.0)
    poly = [
        (-0.25, 0.0),
        (0.0, 0.0),
        (3.0, 3.0 * tan30),
        (3.0, 2.0),
        (-0.25, 2.0),
    ]
    x_shock = -0.1

    def u0(model, xy):
        post = shock_jump(10.0, model.gamma, 1.0, model.gamma)
        prim = piecewise_state(
            xy,
            [(lambda x, y: x <= x_shock, post)],
            (model.gamma, 0.0, 0.0, 1.0),
        )
        return model.conserved(
            prim[..., 0], prim[..., 1], prim[..., 2], prim[..., 3]
        )

    def bcs(model):
        post = np.asarray(
            model.conserved(*shock_jump(10.0, model.gamma, 1.0, model.gamma))
        )
        return {
            "inflow": FarField(
                lambda x, t: np.broadcast_to(post, x.shape[:-1] + (4,))
            ),
            "outflow": Outflow(),
            "wall": Wall(),
        }

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

    return ProblemDefinition(
        name="double-mach",
        kind="euler",
        make_model=lambda gamma: Euler(gamma),
        initial=u0,
        boundaries=bcs,
        namer=namer,
        final_time=0.2,
        mesh_builder=lambda n: polygon_mesh(poly, h=1.0 / n, seed=5),
        default_n=24,
        domains=_gas_domains,
        description="Mach-10 shock over a 30-degree ramp cut from the "
        "rectangle; inflow left, outflow right and top, walls elsewhere",
    )


def _diffraction():
    x_shock = -0.05

    def u0(model, xy):
        post = shock_jump(2.4, 1.4, 1.0, model.gamma)
        prim = piecewise_state(
            xy,
            [(lambda x, y: x <= x_shock, post)],
            (1.4, 0.0, 0.0, 1.0),
        )
        return model.conserved(
            prim[..., 0], prim[..., 1], prim[..., 2], prim[..., 3]
        )

    def bcs(model):
        post = np.asarray(
            model.conserved(*shock_jump(2.4, 1.4, 1.0, model.gamma))
        )
        return {
            "inflow": FarField(
                lambda x, t: np.broadcast_to(post, x.shape[:-1] + (4,))
            ),
            "outflow": Outflow(),
            "wall": Wall(),
        }

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

    return ProblemDefinition(
        name="diffraction",
        kind="euler",
        make_model=lambda gamma: Euler(gamma),
        initial=u0,
        boundaries=bcs,
        namer=namer,
        final_time=0.35,
        mesh_builder=lambda n: ldomain_mesh(n, seed=6),
        default_n=40,
        domains=_gas_domains,
        description="Mach-2.4 shock diffracting around a convex corner on an "
        "L-shaped domain; walls on the step faces",
    )


def _free_stream():
    prim = (1.4, 0.3, 0.0, 2.0)

    def u0(model, xy):
        u = np.asarray(model.conserved(*prim))
        return np.broadcast_to(u, xy.shape[:-1] + (4,)).copy()

    def bcs(model):
        u = np.asarray(model.conserved(*prim))
        return {
            "farfield": FarField(
                lambda x, t: np.broadcast_to(u, x.shape[:-1] + (4,))
            ),
            "wall": Wall(),
        }

    def namer(mids):
        return [
            "wall" if (abs(y) < 1e-9 or abs(y - 1.0) < 1e-9) else "farfield"
            for x, y in mids
        ]

    return ProblemDefinition(
        name="free-stream",
        kind="euler",
        make_model=lambda gamma: Euler(gamma),
        initial=u0,
        boundaries=bcs,
        namer=namer,
        final_time=1.0,
        mesh_builder=lambda n: rect_mesh((0.0, 2.0, 0.0, 1.0), n, seed=7),
        default_n=4,
        domains=_gas_domains,
        exact=lambda model, xy, t: u0(model, xy),
        description="uniform wall-parallel flow in a channel; the exact "
        "solution is the constant state",
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
