"""Weak boundary conditions via flux substitution.

Boundary edges replace the interface flux f(trace) . n in every residual
row by a boundary flux built from the interior trace and a ghost state:

* far field -- prescribed exterior state u_b(x, t).  For gas dynamics the
  flux splits characteristically (flux-vector splitting using homogeneity),
  f^+(trace) . n + f^-(u_b) . n; scalar models use the local
  Lax-Friedrichs combination, which reduces to exact upwinding for linear
  advection.
* slip wall -- mirror the momentum about the wall plane and take the local
  Lax-Friedrichs flux against the mirrored state; mass and energy
  components cancel identically, leaving pressure plus a penalty on v . n.
* outflow -- ghost equals trace: plain f(trace) . n.

The same ghost constructions close the low-order average scheme.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigError
from .mesh import Mesh


class FarField:
    kind = "farfield"

    def __init__(self, state_fn):
        """state_fn(x (..., 2), t) -> (..., nv) exterior states."""
        self.state_fn = state_fn

    def exterior(self, x, t):
        return self.state_fn(x, t)


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
        self.mesh = mesh
        self.model = model
        self.bcs = dict(bcs)
        names = {str(mesh.edge_name[e]) for e in mesh.boundary_edges}
        missing = names - set(self.bcs)
        if missing:
            raise ConfigError(
                f"boundary names without a condition: {sorted(missing)}"
            )
        if model.nvars == 1 and any(
            bc.kind == "wall" for bc in self.bcs.values()
        ):
            raise ConfigError("wall boundaries require the gas-dynamics model")
        # Positions of each named group inside mesh.boundary_edges.
        bnames = np.array(
            [str(mesh.edge_name[e]) for e in mesh.boundary_edges]
        )
        self.groups = {
            nm: np.flatnonzero(bnames == nm) for nm in self.bcs
        }

    def _split_flux(self, u_in, u_out, n, x):
        """Upwind-flavoured two-state boundary flux, broadcasting shapes."""
        m = self.model
        if hasattr(m, "flux_normal_split"):
            return m.flux_normal_split(u_in, n, +1) + m.flux_normal_split(
                u_out, n, -1
            )
        alpha = np.maximum(
            m.max_wavespeed(u_in, n, x), m.max_wavespeed(u_out, n, x)
        )
        central = 0.5 * (
            m.flux_normal(u_in, n, x) + m.flux_normal(u_out, n, x)
        )
        return central - 0.5 * alpha[..., None] * (u_out - u_in)

    def ho_flux(self, trace, n, xq, t):
        """Boundary fluxes at edge quadrature points.

        trace: (NB, nqe, nv) interior traces in boundary-edge order;
        n: (NB, 2); xq: (NB, nqe, 2).  Returns (NB, nqe, nv).
        """
        m = self.model
        out = np.empty_like(trace)
        nq = n[:, None, :]
        for nm, idx in self.groups.items():
            if len(idx) == 0:
                continue
            bc = self.bcs[nm]
            tr = trace[idx]
            nn = nq[idx]
            xx = xq[idx]
            if bc.kind == "outflow":
                out[idx] = m.flux_normal(tr, nn, xx)
            elif bc.kind == "wall":
                ghost = _reflect(tr, nn)
                alpha = np.maximum(
                    m.max_wavespeed(tr, nn, xx),
                    m.max_wavespeed(ghost, nn, xx),
                )
                out[idx] = 0.5 * (
                    m.flux_normal(tr, nn, xx) + m.flux_normal(ghost, nn, xx)
                ) - 0.5 * alpha[..., None] * (ghost - tr)
            elif bc.kind == "farfield":
                ub = bc.exterior(xx, t)
                out[idx] = self._split_flux(tr, ub, nn, xx)
            else:  # pragma: no cover - new kinds must be handled explicitly
                raise ConfigError(f"unknown boundary kind {bc.kind!r}")
        return out

    def ghost_average(self, ubar0, n, xmid, t):
        """Exterior average states for the low-order flux: (NB, nv)."""
        out = np.empty_like(ubar0)
        for nm, idx in self.groups.items():
            if len(idx) == 0:
                continue
            bc = self.bcs[nm]
            if bc.kind == "outflow":
                out[idx] = ubar0[idx]
            elif bc.kind == "wall":
                out[idx] = _reflect(ubar0[idx], n[idx])
            elif bc.kind == "farfield":
                out[idx] = bc.exterior(xmid[idx], t)
            else:  # pragma: no cover
                raise ConfigError(f"unknown boundary kind {bc.kind!r}")
        return out
