"""The boundary handler that the operator tests share."""

import numpy as np

from triblend.boundary import BoundaryHandler, Outflow


def all_outflow(mesh, model):
    """A `BoundaryHandler` that closes every boundary edge of `mesh` as
    `Outflow`, whatever its name ('' on an unnamed mesh)."""
    names = np.unique(mesh.boundary_name.astype(str))
    return BoundaryHandler(mesh, model, {nm: Outflow() for nm in names})
