"""Third order on smooth data, for averages and point values, in `ho` and
`full` modes.

A Gaussian advected with a = (1, 0.5) on [-1, 1]^2 to T = 0.4, with the
exact solution as the far field, on `rect_mesh(8, seed=1)` and two uniform
refinements (128, 512 and 2,048 triangles).  The orders still rise with
refinement (`ho` averages: 2.41, 2.63, then 2.82 at 8,192 triangles), so
the bound 2.5 applies to the last pair that Tier-1 can afford.
"""

import numpy as np
import pytest

from triblend.boundary import BoundaryHandler, FarField
from triblend.meshgen import rect_mesh, refine4
from triblend.models import LinearAdvection
from triblend.norms import error_norms, observed_orders
from triblend.problems import interval_domains
from triblend.timeloop import Stepper, initialize

VELOCITY = np.array([1.0, 0.5])
T_END = 0.4


def gaussian(xy, t):
    s = xy - VELOCITY * t - np.array([-0.3, -0.2])
    return np.exp(-(s[..., 0] ** 2 + s[..., 1] ** 2) / 0.09)[..., None]


def shifted_gaussian(xy, t):
    return 0.5 + 0.5 * gaussian(xy, t)


def l1_orders(mode, exact, domains):
    """L1 orders of the averages and of the point values over the last
    pair of levels."""
    model = LinearAdvection(VELOCITY)
    meshes = [rect_mesh((-1.0, 1.0, -1.0, 1.0), 8, seed=1)]
    meshes[0].name_boundary(lambda mids: ["far"] * len(mids))
    for _ in range(2):
        meshes.append(refine4(meshes[-1]))
    hs, errors = [], []
    for mesh in meshes:
        bc = BoundaryHandler(mesh, model, {"far": FarField(exact)})
        stepper = Stepper(
            mesh, model, bc, mode=mode,
            enforce_domain=domains[0], assert_domain=domains[1],
        )
        ubar, upt = initialize(stepper.tables, lambda xy: exact(xy, 0.0))
        ubar, upt, _, _ = stepper.run(ubar, upt, T_END)
        want = initialize(stepper.tables, lambda xy: exact(xy, T_END))
        hs.append(mesh.h_max())
        errors.append(error_norms(mesh, ubar, upt, *want))
    return [
        observed_orders([e[fam]["l1"] for e in errors], hs)[-1]
        for fam in ("internal", "boundary")
    ]


@pytest.mark.parametrize(
    "mode, exact, domains",
    [
        ("ho", gaussian, (None, None)),
        ("full", shifted_gaussian, interval_domains(0.0, 2.0)),
    ],
    ids=["ho", "full"],
)
def test_third_order_on_a_smooth_gaussian(mode, exact, domains):
    averages, points = l1_orders(mode, exact, domains)
    assert averages >= 2.5 and points >= 2.5, (averages, points)
