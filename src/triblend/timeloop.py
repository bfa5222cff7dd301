"""Time integration: blended forward-Euler steps inside SSP-RK3.

The stepper owns the spatial operators and, per forward-Euler substep,

1. evaluates the high-order moment residuals (upwind-weighted point parts
   and integrated edge fluxes) and the low-order counterparts,
2. computes the jump-based damping factor theta_K,
3. blends low and high order per point DoF and per edge under the invariant
   domain, and
4. applies the update; averages advance through shared edge fluxes, so they
   telescope to a pure boundary term.

Three substeps combine with the classic (1, 1/4, 2/3) convex recombination
to third order; convexity means every stage value stays admissible whenever
the substeps do.  The equivalent flux weights 1/6, 1/6, 2/3 feed a running
boundary-flux integral against which global conservation can be checked to
round-off.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NumericalAbort
from .limiting import blend_average_fluxes, blend_point_residuals, damping_theta
from .spatial_ho import HighOrder, Tables
from .spatial_lo import LowOrder


# How a step's journal statistics combine those of its three substeps: the
# limiter counts add up, theta takes the minimum, the eta fractions average.
_STEP_REDUCE = {
    "theta_min": min,
    "eta_lo_frac": lambda v: float(np.mean(v)),
    "eta_hi_frac": lambda v: float(np.mean(v)),
}


def initialize(tables: Tables, u0_fn):
    """Cell averages by volume quadrature and exact point values of u0."""
    ubar = np.einsum("q,kqv->kv", tables.wq_vol, u0_fn(tables.XY_V))
    upt = np.asarray(u0_fn(tables.mesh.point_xy), dtype=float)
    return ubar, upt


class Stepper:
    def __init__(
        self,
        mesh,
        model,
        bc=None,
        *,
        cfl: float = 0.2,
        eps_policy: str = "area",
        enforce_domain=None,
        assert_domain=None,
        mode: str = "full",
        damping_c1: float = 1.0,
        damping_c2: float = 1.0,
    ):
        self.mesh = mesh
        self.model = model
        self.tables = Tables(mesh)
        self.ho = HighOrder(
            self.tables,
            model,
            bc,
            eps_policy=eps_policy,
            enforce_domain=enforce_domain,
        )
        self.lo = LowOrder(self.tables, model, bc)
        self.cfl = float(cfl)
        self.enforce_domain = enforce_domain
        self.assert_domain = assert_domain
        if mode not in ("ho", "lo", "bp", "full"):
            raise ValueError(f"unknown stepping mode {mode!r}")
        if mode == "bp" and enforce_domain is None:
            raise ValueError("mode 'bp' requires an enforce_domain")
        self.mode = mode
        self.damping_c1 = float(damping_c1)
        self.damping_c2 = float(damping_c2)

        self._inradius = mesh.inradius()
        self._normals = self.tables.DOF_NORMAL[:, 3:]  # unit outward, (NT, 3, 2)

        # Limiter diagnostics from the most recent rk3_step.
        self.last_theta = np.ones(mesh.num_tris)
        self.last_eta_point = np.ones((mesh.num_tris, 6))
        self.last_eta_edge = np.ones(mesh.num_edges)

    # -- time step --------------------------------------------------------------

    def compute_dt(self, ubar, upt):
        """CFL * min over elements of inradius / max local wavespeed."""
        mesh = self.mesh
        states = np.concatenate(
            [np.take(upt, mesh.tri_point_dofs, axis=0), ubar[:, None, :]], axis=1
        )  # (NT, 7, nv)
        xy = np.concatenate(
            [self.tables.XY_PT, mesh.centroids[:, None, :]], axis=1
        )
        speeds = self.model.max_wavespeed(
            states[:, :, None, :], self._normals[:, None, :, :], xy[:, :, None, :]
        )  # (NT, 7, 3)
        lam = np.maximum(speeds.max(axis=(1, 2)), 1e-300)
        return self.cfl * float((self._inradius / lam).min())

    # -- one forward-Euler substep ------------------------------------------------

    def _substep(self, ubar, upt, t, dt):
        mesh = self.mesh

        fallback = resc_vol = resc_tr = resc_pt = resc_e = 0
        if self.mode == "lo":
            lo = self.lo.compute(ubar, upt, t)
            b = lo.Phi_pt
            F = lo.F_edge
            eta_pt = np.zeros((mesh.num_tris, 6))
            eta_e = np.zeros(mesh.num_edges)
            theta = np.ones(mesh.num_tris)
        else:
            ho = self.ho.compute(ubar, upt, t)
            fallback = ho.omega_fallback_points
            resc_vol = ho.rescued_volume_elems
            resc_tr = ho.rescued_trace_edges
            if self.mode == "full":
                coef = self.tables.coefficients(ubar, upt)
                theta = damping_theta(
                    self.tables,
                    self.model,
                    coef,
                    ubar,
                    upt,
                    ho.trace_u,
                    dt,
                    c1=self.damping_c1,
                    c2=self.damping_c2,
                )
            else:
                theta = np.ones(mesh.num_tris)

            if self.mode != "ho" and self.enforce_domain is not None:
                lo = self.lo.compute(ubar, upt, t)
                b, eta_pt, resc_pt = blend_point_residuals(
                    self.tables,
                    self.enforce_domain,
                    upt,
                    lo.Phi_pt,
                    ho.Wpt,
                    theta,
                    dt,
                )
                F, eta_e, resc_e = blend_average_fluxes(
                    self.tables,
                    self.enforce_domain,
                    ubar,
                    lo.F_edge,
                    ho.F_edge,
                    theta,
                    dt,
                )
            elif self.mode == "full":
                lo = self.lo.compute(ubar, upt, t)
                b = lo.Phi_pt + theta[:, None, None] * (ho.Wpt - lo.Phi_pt)
                eta_pt = np.broadcast_to(theta[:, None], (mesh.num_tris, 6))
                te = np.where(
                    mesh.edge_tris[:, 1] >= 0,
                    np.minimum(
                        theta[mesh.edge_tris[:, 0]],
                        theta[np.clip(mesh.edge_tris[:, 1], 0, None)],
                    ),
                    theta[mesh.edge_tris[:, 0]],
                )
                F = lo.F_edge + te[:, None] * (ho.F_edge - lo.F_edge)
                eta_e = te
            else:
                b = ho.Wpt
                F = ho.F_edge
                eta_pt = np.ones((mesh.num_tris, 6))
                eta_e = np.ones(mesh.num_edges)

        interior = mesh.edge_tris[:, 1] >= 0
        etas = np.concatenate([eta_pt.ravel(), eta_e[interior]])
        stats = {
            "theta_min": float(theta.min()),
            "eta_lo_frac": float((etas < 0.01).mean()),
            "eta_hi_frac": float((etas > 0.99).mean()),
            "omega_fallback": fallback,
            "rescued_volume": resc_vol,
            "rescued_trace": resc_tr,
            "rescued_points": resc_pt,
            "rescued_edges": resc_e,
        }

        upt_new = upt - dt * self.tables.point_sums(b)

        F_loc = F[mesh.tri_edges]  # (NT, 3, nv)
        div = np.einsum("ke,kev->kv", mesh.tri_edge_orient.astype(float), F_loc)
        ubar_new = ubar - (dt / mesh.areas[:, None]) * div

        bflux = F[mesh.boundary_edges].sum(axis=0)
        return ubar_new, upt_new, bflux, stats, (theta, eta_pt, eta_e)

    def _check(self, ubar, upt, t, step, stage):
        bad = 0
        if self.assert_domain is not None:
            bad += int((~self.assert_domain.contains(ubar)).sum())
            bad += int((~self.assert_domain.contains(upt)).sum())
        else:
            bad += int((~np.isfinite(ubar)).any(axis=-1).sum())
            bad += int((~np.isfinite(upt)).any(axis=-1).sum())
        if bad:
            raise NumericalAbort(
                f"inadmissible state: step {step}, stage {stage}, t = {t:.6g}, "
                f"{bad} offending DoFs"
            )

    # -- full RK step -------------------------------------------------------------

    def rk3_step(self, ubar, upt, t, dt, step=0):
        """One SSP-RK3 step; returns (ubar, upt, bflux, stats).

        Stashes per-step limiter diagnostics as `last_theta` (NT,),
        `last_eta_point` (NT, 6) and `last_eta_edge` (NE,), each the
        element-wise minimum over the three substeps.
        """
        ub1, up1, bf0, st0, dg0 = self._substep(ubar, upt, t, dt)
        self._check(ub1, up1, t + dt, step, 1)

        ub2, up2, bf1, st1, dg1 = self._substep(ub1, up1, t + dt, dt)
        ub2 = 0.75 * ubar + 0.25 * ub2
        up2 = 0.75 * upt + 0.25 * up2
        self._check(ub2, up2, t + 0.5 * dt, step, 2)

        ub3, up3, bf2, st2, dg2 = self._substep(ub2, up2, t + 0.5 * dt, dt)
        ub3 = ubar / 3.0 + 2.0 / 3.0 * ub3
        up3 = upt / 3.0 + 2.0 / 3.0 * up3
        self._check(ub3, up3, t + dt, step, 3)

        self.last_theta = np.minimum.reduce([d[0] for d in (dg0, dg1, dg2)])
        self.last_eta_point = np.minimum.reduce([d[1] for d in (dg0, dg1, dg2)])
        self.last_eta_edge = np.minimum.reduce([d[2] for d in (dg0, dg1, dg2)])

        bflux = (bf0 + bf1) / 6.0 + (2.0 / 3.0) * bf2
        stats = {
            key: _STEP_REDUCE.get(key, sum)([s[key] for s in (st0, st1, st2)])
            for key in st0
        }
        return ub3, up3, bflux, stats

    # -- driver ---------------------------------------------------------------------

    def run(
        self,
        ubar,
        upt,
        t_end,
        t0: float = 0.0,
        *,
        max_steps: int | None = None,
        callback=None,
    ):
        """March to t_end.  Returns (ubar, upt, journal, totals).

        The journal is a list of per-step dicts; totals carries the
        time-integrated boundary flux (per component) for conservation
        accounting.  callback(step, t, ubar, upt, row) fires after every
        accepted step with the fresh journal row.
        """
        mesh = self.mesh
        t = float(t0)
        step = 0
        journal: list[dict] = []
        bflux_int = np.zeros(self.model.nvars)
        mass0 = mesh.areas @ ubar

        while t < t_end - 1e-12 * max(1.0, abs(t_end)):
            dt = self.compute_dt(ubar, upt)
            if not np.isfinite(dt) or dt <= 0.0:
                raise NumericalAbort(f"time step collapsed at t = {t:.6g}")
            dt = min(dt, t_end - t)
            ubar, upt, bflux, stats = self.rk3_step(ubar, upt, t, dt, step)
            bflux_int += dt * bflux
            t += dt
            step += 1

            row = {"step": step, "t": t, "dt": dt}
            row.update(stats)
            if self.model.nvars == 4:
                allu = np.concatenate([ubar, upt], axis=0)
                row["min_density"] = float(allu[:, 0].min())
                row["min_pressure"] = float(self.model.pressure(allu).min())
            else:
                allu = np.concatenate([ubar, upt], axis=0)
                row["min_u"] = float(allu.min())
                row["max_u"] = float(allu.max())
            row["mass"] = float((mesh.areas @ ubar)[0])
            journal.append(row)

            if callback is not None:
                callback(step, t, ubar, upt, row)
            if max_steps is not None and step >= max_steps:
                break

        totals = {
            "steps": step,
            "t": t,
            "mass0": mass0,
            "mass": mesh.areas @ ubar,
            "bflux_int": bflux_int,
        }
        return ubar, upt, journal, totals
