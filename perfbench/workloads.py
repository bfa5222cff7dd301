"""Workload definitions, set-up and solves, driven through the public API.

A workload is one batch solve in one process: problem lookup, mesh
generation and naming, `BoundaryHandler`, `Stepper` (which builds the
`Tables`), `sample_initial`, then `Stepper.run` for a fixed number of RK3
steps from t = 0.  The stepper gets the defaults of `triblend run`, with the
invariant domains only in the limited modes, so a default-seed workload is
the run that `triblend run` makes for the same problem, mode and mesh size.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from triblend.boundary import BoundaryHandler
from triblend.exceptions import NumericalAbort
from triblend.meshgen import polygon_mesh, rect_mesh
from triblend.norms import error_norms
from triblend.problems import get_problem, sample_initial
from triblend.timeloop import Stepper, initialize

# The ramp geometry of the `double-mach` catalog entry.
_TAN30 = math.tan(math.pi / 6.0)
DOUBLE_MACH_POLY = [
    (-0.25, 0.0), (0.0, 0.0), (3.0, 3.0 * _TAN30), (3.0, 2.0), (-0.25, 2.0),
]


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    mode: str
    n: int  # generator resolution
    steps: int  # RK3 steps per solve
    tiny_n: int  # resolution of the reference canary and the smoke tests
    catalog_seed: int  # jitter seed of the catalog mesh builder
    mesh: Callable  # (n, jitter seed) -> Mesh, the catalog generator call
    # Accepted fingerprint difference (see checks.py) from the recorded
    # reference.  The limiter branches of `shapes` amplify round-off: a
    # relative perturbation of the initial state of 1e-16 to 1e-11 moved
    # its fingerprint by 3e-8 to 4e-7, against at most 1e-13 for `mach` and
    # 1e-14 for `gauss`.  Each limit sits well above that floor.
    ref_rtol: float

    def jitter_seed(self, seed: int) -> int:
        """Workload seed 0 gives the catalog mesh."""
        return self.catalog_seed + seed


# Why each workload was chosen is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "shapes", "rotating-shapes", "full", n=59, steps=20, tiny_n=8,
            catalog_seed=2,
            mesh=lambda n, s: rect_mesh((0.0, 1.0, 0.0, 1.0), n, seed=s),
            ref_rtol=1e-5,
        ),
        Workload(
            "mach", "double-mach", "full", n=24, steps=8, tiny_n=4,
            catalog_seed=5,
            mesh=lambda n, s: polygon_mesh(DOUBLE_MACH_POLY, h=1.0 / n, seed=s),
            ref_rtol=1e-9,
        ),
        Workload(
            "gauss", "advect-gauss", "ho", n=112, steps=30, tiny_n=8,
            catalog_seed=1,
            mesh=lambda n, s: rect_mesh((-20.0, 20.0, -20.0, 20.0), n, seed=s),
            ref_rtol=1e-10,
        ),
    )
}


@dataclass
class Setup:
    problem: object
    model: object
    mesh: object
    bc: BoundaryHandler
    stepper: Stepper
    ubar: np.ndarray
    upt: np.ndarray


@dataclass
class Solve:
    """Outcome of one solve of `attempted` steps from t = 0."""

    attempted: int
    step_s: list = field(default_factory=list)  # wall time of each completed step
    wall_s: float = 0.0
    ubar: np.ndarray | None = None
    upt: np.ndarray | None = None
    journal: list | None = None
    totals: dict | None = None
    abort: str | None = None

    @property
    def completed(self) -> int:
        return len(self.step_s)


def _no_span(name):
    return nullcontext()


def build(wl: Workload, seed: int = 0, n: int | None = None, span=_no_span) -> Setup:
    """Everything `setup_s` times: problem lookup until the initial state."""
    problem = get_problem(wl.problem)
    model = problem.make_model(1.4)
    with span("meshgen.build"):
        mesh = wl.mesh(n or wl.n, wl.jitter_seed(seed))
    with span("mesh.name_boundary"):
        mesh.name_boundary(problem.namer)
    with span("boundary.init"):
        bc = BoundaryHandler(mesh, model, problem.boundaries(model))
    with span("timeloop.stepper_init"):
        # Only the limited modes promise the invariant domain.
        enforce, assert_ = (
            problem.domains(model) if wl.mode in ("bp", "full") else (None, None)
        )
        stepper = Stepper(
            mesh, model, bc, mode=wl.mode,
            enforce_domain=enforce, assert_domain=assert_,
        )
    with span("problems.sample_initial"):
        ubar, upt = sample_initial(
            problem, model, stepper.tables, domain=stepper.assert_domain
        )
    return Setup(problem, model, mesh, bc, stepper, ubar, upt)


def solve(setup: Setup, steps: int) -> Solve:
    """Run `steps` RK3 steps from the initial state, timing every step."""
    out = Solve(attempted=steps)
    last = time.perf_counter()

    def on_step(step, t, ubar, upt, row):
        nonlocal last
        now = time.perf_counter()
        out.step_s.append(now - last)
        last = now

    start = last = time.perf_counter()
    try:
        out.ubar, out.upt, out.journal, out.totals = setup.stepper.run(
            setup.ubar, setup.upt, setup.problem.final_time,
            max_steps=steps, callback=on_step,
        )
    except NumericalAbort as exc:
        out.abort = str(exc)
    out.wall_s = time.perf_counter() - start
    return out


def l1_errors(setup: Setup, res: Solve):
    """(averages, point values) L1 errors against the exact solution, or None."""
    problem, model = setup.problem, setup.model
    if problem.exact is None or res.totals is None:
        return None
    t = res.totals["t"]
    exact_bar, exact_pt = initialize(
        setup.stepper.tables, lambda xy: problem.exact(model, xy, t)
    )
    norms = error_norms(setup.mesh, res.ubar, res.upt, exact_bar, exact_pt)
    return norms["internal"]["l1"], norms["boundary"]["l1"]
