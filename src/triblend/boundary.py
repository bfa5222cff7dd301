"""Weak boundary conditions via flux substitution.

Each boundary kind maps the interior state to one exterior (ghost) state,
and a two-state flux of interior and ghost replaces the interface flux
f(trace) . n in every residual row:

* far field -- the prescribed exterior state u_b(x, t);
* slip wall -- the interior state with its momentum mirrored about the
  wall plane, so the mass and energy components of the flux cancel and
  leave pressure plus a penalty on v . n;
* outflow -- the interior state itself.

The two-state flux is local Lax-Friedrichs (exact upwinding for linear
advection), except at a gas far field, where it is the Steger-Warming split
f^+(trace) . n + f^-(u_b) . n.  The high-order outflow flux is plain
f(trace) . n, which is what local Lax-Friedrichs gives for equal states.
The low-order averages take the same ghost states against their LLF flux.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigError
from .mesh import Mesh
from .models import llf_flux, nv_first, nv_last


class FarField:
    kind = "farfield"

    def __init__(self, state_fn):
        """state_fn(x (..., 2), t) -> (..., nv) exterior states."""
        self.state_fn = state_fn


class Wall:
    kind = "wall"


class Outflow:
    kind = "outflow"


def _reflect(u, n):
    """Mirror momentum about the plane with unit normal n."""
    g = u.copy()
    mn = u[..., 1] * n[..., 0] + u[..., 2] * n[..., 1]
    g[..., 1] -= 2.0 * mn * n[..., 0]
    g[..., 2] -= 2.0 * mn * n[..., 1]
    return g


class BoundaryHandler:
    def __init__(self, mesh: Mesh, model, bcs: dict):
        self.model = model
        self.bcs = dict(bcs)
        bnames = mesh.boundary_name.astype(str)
        used = set(bnames)
        missing = used - set(self.bcs)
        if missing:
            raise ConfigError(
                f"boundary names without a condition: {sorted(missing)}"
            )
        if model.nvars == 1 and any(
            bc.kind == "wall" for bc in self.bcs.values()
        ):
            raise ConfigError("wall boundaries require the gas-dynamics model")
        # Positions in mesh.boundary_edges of each name that the mesh uses.
        self.groups = {
            nm: np.flatnonzero(bnames == nm) for nm in self.bcs if nm in used
        }
        # The boundary-edge midpoints (NB, 2), for far-field ghost averages.
        self.mid = mesh.edge_mid[mesh.boundary_edges]

    @staticmethod
    def _ghost(bc, u, n, x, t):
        """Exterior state of boundary condition bc for interior states u."""
        if bc.kind == "outflow":
            return u
        if bc.kind == "wall":
            return _reflect(u, n)
        if bc.kind == "farfield":
            return bc.state_fn(x, t)
        raise ConfigError(f"unknown boundary kind {bc.kind!r}")

    def ho_flux(self, trace, n, xq, t):
        """Boundary fluxes at edge quadrature points.

        trace: (NB, nqe, nv) interior traces in boundary-edge order;
        n: (NB, 2); xq: (NB, nqe, 2).  Returns (NB, nqe, nv).
        """
        m = self.model
        out = np.empty_like(trace)
        nq = n[:, None, :]
        for nm, idx in self.groups.items():
            bc = self.bcs[nm]
            # Gathered along the edge axis, so that component-major
            # positions stay component-major.
            tr = np.take(trace, idx, axis=0)
            nn = np.take(nq, idx, axis=0)
            xx = nv_last(np.take(nv_first(xq), idx, axis=1))
            if bc.kind == "outflow":
                # LLF of two equal states, without its wave speeds: unlimited
                # runs can leave traces on which those are not finite.
                out[idx] = m.flux_normal(tr, nn, xx)
                continue
            ghost = self._ghost(bc, tr, nn, xx, t)
            if bc.kind == "farfield" and hasattr(m, "flux_normal_split"):
                out[idx] = m.flux_normal_split(tr, nn, +1) + m.flux_normal_split(
                    ghost, nn, -1
                )
            else:
                out[idx] = llf_flux(m, tr, ghost, nn, xx)
        return out

    def ghost_average(self, ubar0, n, t):
        """Exterior average states for the low-order flux, (NB, nv); a far
        field is taken at the boundary-edge midpoints the handler keeps."""
        out = np.empty_like(ubar0)
        for nm, idx in self.groups.items():
            out[idx] = self._ghost(self.bcs[nm], ubar0[idx], n[idx], self.mid[idx], t)
        return out
