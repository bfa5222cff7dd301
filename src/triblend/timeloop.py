"""Time integration: blended forward-Euler steps inside SSP-RK3.

The stepper owns the spatial operators and, per forward-Euler substep,

1. evaluates the high-order moment residuals (upwind-weighted point parts
   and integrated edge fluxes) and the low-order counterparts,
2. computes the jump-based damping factor theta_K,
3. blends low and high order per point DoF and per edge under the invariant
   domain (by the damping factor alone when there is none), and
4. applies the update; averages advance through shared edge fluxes, so they
   telescope to a pure boundary term.

Three substeps combine with the classic (1, 1/4, 2/3) convex recombination
to third order; convexity means every stage value stays admissible whenever
the substeps do.  The equivalent flux weights 1/6, 1/6, 2/3 feed a running
boundary-flux integral against which global conservation can be checked to
round-off.
"""

from __future__ import annotations

import ctypes
import os
import sys

import numpy as np

from .basis import POINT_DOF_BARY
from .exceptions import NumericalAbort
from .limiting import blend_average_fluxes, blend_point_residuals, damping_theta
from .limiting import interior_edge_speeds
from .models import component_major, positions
from .spatial_ho import HighOrder, StaticSpeeds, Tables, element_blocks
from .spatial_lo import LowOrder


# Stepping modes; the limited ones promise the invariant domain.
MODES = ("ho", "lo", "bp", "full")
LIMITED_MODES = ("bp", "full")

# How a step's journal statistics combine those of its three substeps: the
# limiter counts add up, theta takes the minimum, the eta fractions average.
_STEP_REDUCE = {
    "theta_min": min,
    "eta_lo_frac": lambda v: float(np.mean(v)),
    "eta_hi_frac": lambda v: float(np.mean(v)),
}


# glibc's mallopt parameters and the environment variables through which a
# user sets them; see _pin_malloc_thresholds.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOC_ENV = (
    "MALLOC_MMAP_THRESHOLD_",
    "MALLOC_TRIM_THRESHOLD_",
    "MALLOC_TOP_PAD_",
    "MALLOC_MMAP_MAX_",
)
_malloc_pinned = False


def _glibc_mallopt():
    """glibc's `mallopt`, or None off Linux or under another C library."""
    if not sys.platform.startswith("linux"):
        return None
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "gnu_get_libc_version") or not hasattr(libc, "mallopt"):
        return None
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def _pin_malloc_thresholds() -> None:
    """Keep freed step temporaries in the heap, once per process.

    A substep builds multi-MB temporaries (Euler sign matrices, upwind
    weights, edge-side gradients) and frees them again.  glibc returns that
    memory to the OS after nearly every operator: it trims the heap top
    beyond its trim threshold and unmaps blocks above its dynamic mmap
    threshold.  The next operator then faults the same pages in afresh:
    22k-28k minor faults per `double-mach` step at 4.5k triangles (2.3k
    at 516) and 8k-12k per `rotating-shapes` step at 7k, which cost about
    15% of a `double-mach` step.  Pinning the mmap threshold at 32 MiB
    (the ceiling of glibc's own dynamic rule on 64-bit) and the trim
    threshold at twice that keeps the memory mapped and reused: fewer than
    100 faults per step on both, with bitwise the same states.  Both are
    set together, because setting either one switches the dynamic rule
    off.  Nothing is set off glibc, or when the environment already
    chooses malloc settings.
    """
    global _malloc_pinned
    if _malloc_pinned:
        return
    _malloc_pinned = True
    if any(name in os.environ for name in _MALLOC_ENV):
        return
    if "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return
    mallopt = _glibc_mallopt()
    # mallopt returns 0 for a value it rejects (32 MiB on a 32-bit build).
    if mallopt is not None and mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def initialize(tables: Tables, u0_fn):
    """Cell averages by volume quadrature and exact point values of u0.

    Each average is c0 + sum_q w_q (u0(x_q) - c0), with c0 = u0(x_0) the
    element's own value at its first quadrature point, so that an element
    on which u0 is constant keeps that value exactly: the plain
    sum_q w_q u0(x_q) gives 1 + 2^-52 for u0 = 1.  The averages are taken
    by element blocks (`element_blocks`): on a large scalar mesh the
    whole-mesh quadrature values outgrow a step."""
    upt = np.asarray(u0_fn(tables.mesh.point_xy), dtype=float)
    nt = tables.mesh.num_tris
    ubar = np.empty((nt,) + upt.shape[1:])
    for blk in element_blocks(nt, upt.shape[-1]):
        # Element by element, (E, nqv, 2): a u0 that allocates its result
        # in C order keeps each element's quadrature values together.
        xy = tables.element_points(tables.BARY_V, blk).swapaxes(0, 1)
        uq = u0_fn(xy)
        c0 = uq[:, 0]
        ubar[blk] = c0 + np.einsum("q,kqv->kv", tables.wq_vol, uq - c0[:, None])
    return ubar, upt


class Stepper:
    """Blended SSP-RK3 steps; the handler `bc` closes every boundary edge."""

    def __init__(
        self,
        mesh,
        model,
        bc,
        *,
        cfl: float = 0.2,
        enforce_domain=None,
        assert_domain=None,
        mode: str = "full",
        damping_c1: float = 1.0,
        damping_c2: float = 1.0,
    ):
        _pin_malloc_thresholds()
        self.mesh = mesh
        self.model = model
        self.tables = Tables(mesh)
        self.ho = HighOrder(self.tables, model, bc, enforce_domain=enforce_domain)
        self.lo = LowOrder(self.tables, model, bc)
        # The stepper's own kept speeds (`StaticSpeeds`): "cfl_rate" and
        # "damping".
        self.speeds = StaticSpeeds(model)
        self.cfl = float(cfl)
        self.enforce_domain = enforce_domain
        self.assert_domain = assert_domain
        if mode not in MODES:
            raise ValueError(f"unknown stepping mode {mode!r}")
        if mode == "bp" and enforce_domain is None:
            raise ValueError("mode 'bp' requires an enforce_domain")
        self.mode = mode
        self.damping_c1 = float(damping_c1)
        self.damping_c2 = float(damping_c2)

        self._inradius = mesh.inradius()

        # Limiter diagnostics from the most recent rk3_step.
        self.last_theta = np.ones(mesh.num_tris)
        self.last_eta_point = np.ones((mesh.num_tris, 6))
        self.last_eta_edge = np.ones(mesh.num_edges)

    # -- time step --------------------------------------------------------------

    def _wavespeeds(self, ubar, upt):
        """Max local wavespeed per element, (NT,), floored at 1e-300, over
        its seven states (the point values, then the average at the
        centroid) and its three edge normals."""
        states = self.tables.coefficients(ubar, upt)  # (7, NT, nv)

        def points():
            xy = component_major((7, self.mesh.num_tris), 2)  # laid out like states
            xy[:6] = self.tables.element_points(POINT_DOF_BARY)
            xy[6] = (xy[0] + xy[1] + xy[2]) / 3.0  # the vertex mean
            return xy[:, None]

        speeds = self.model.max_wavespeed(
            states[:, None], self.mesh.outward_normal().swapaxes(0, 1),
            positions(self.model, points),
        )  # (7, 3, NT)
        return np.maximum(speeds.max(axis=(0, 1)), 1e-300)

    def compute_dt(self, ubar, upt):
        """CFL * min over elements of inradius / max local wavespeed.

        For a model with `static_signs` the minimum does not depend on the
        state: it is taken on the first call and kept (`StaticSpeeds`,
        "cfl_rate", one float), and later calls read no state."""

        def rate():
            return float((self._inradius / self._wavespeeds(ubar, upt)).min())

        return self.cfl * self.speeds.get("cfl_rate", rate)

    def _collapse(self, ubar, upt, t, step):
        """The abort for a time step that is not finite and positive; it
        names the first element whose own time step is not."""
        lam = self._wavespeeds(ubar, upt)
        dt_k = self._inradius / lam
        k = int(np.argmax(~(np.isfinite(dt_k) & (dt_k > 0.0))))
        x, y = self.mesh.verts[self.mesh.tris[k]].mean(axis=0).tolist()
        element = {"index": k, "xy": [x, y], "wave_speed": float(lam[k])}
        return NumericalAbort(
            f"time step collapsed: step {step}, t = {t:.6g}; element {k} at "
            f"({x:.6g}, {y:.6g}) has wave speed {lam[k]:.6g}",
            step=step, stage=None, t=float(t), element=element,
        )

    # -- one forward-Euler substep ------------------------------------------------

    def _substep(self, ubar, upt, t, dt):
        mesh = self.mesh
        # The element-local states, gathered once for every operator.
        coef = self.tables.coefficients(ubar, upt)  # (7, NT, nv)

        fallback = resc_vol = resc_tr = resc_pt = resc_e = 0
        if self.mode == "lo":
            b = self.lo.point_residuals(coef)
            F = self.lo.average_fluxes(ubar, t)
            eta_pt = np.zeros((6, mesh.num_tris))
            eta_e = np.zeros(mesh.num_edges)
            theta = np.ones(mesh.num_tris)
        else:
            ho = self.ho.compute(coef, upt, t)
            fallback = ho.omega_fallback_points
            resc_vol = ho.rescued_volume_elems
            resc_tr = ho.rescued_trace_edges
            # The damping's edge speeds, the traces' last read; a static
            # model's (0.08 MB on `rotating-shapes` at n=59) are kept.
            speed = None
            if self.mode == "full":
                speed = self.speeds.get(
                    "damping",
                    lambda: interior_edge_speeds(self.tables, self.model, ho.trace_u),
                )
            # Only the residuals stay alive.
            Wpt, F_ho = ho.Wpt, ho.F_edge
            del ho
            theta = np.ones(mesh.num_tris)
            if speed is not None:
                theta = damping_theta(
                    self.tables,
                    self.model,
                    coef,
                    speed,
                    dt,
                    c1=self.damping_c1,
                    c2=self.damping_c2,
                )

            if self.mode == "ho":
                b = Wpt
                F = F_ho
                eta_pt = np.ones((6, mesh.num_tris))
                eta_e = np.ones(mesh.num_edges)
            else:
                b, eta_pt, resc_pt = blend_point_residuals(
                    self.tables,
                    self.enforce_domain,
                    coef[:6],
                    self.lo.point_residuals(coef),
                    Wpt,
                    theta,
                    dt,
                )
                del Wpt, coef  # the point residuals' and states' last read
                F, eta_e, resc_e = blend_average_fluxes(
                    self.tables,
                    self.enforce_domain,
                    ubar,
                    self.lo.average_fluxes(ubar, t),
                    F_ho,
                    theta,
                    dt,
                )

        etas = np.concatenate(
            [eta_pt.ravel(), np.take(eta_e, self.tables.interior_edges)]
        )
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

        F_loc = np.take(F, mesh.tri_edges, axis=0)  # (NT, 3, nv)
        div = np.einsum("ke,kev->kv", mesh.tri_edge_orient.astype(float), F_loc)
        ubar_new = ubar - (dt / mesh.areas[:, None]) * div

        bflux = F[mesh.boundary_edges].sum(axis=0)
        return ubar_new, upt_new, bflux, stats, (theta, eta_pt, eta_e)

    def _check(self, ubar, upt, t, step, stage):
        if self.assert_domain is not None:
            bad_bar = ~self.assert_domain.contains(ubar)
            bad_pt = ~self.assert_domain.contains(upt)
        else:
            bad_bar = (~np.isfinite(ubar)).any(axis=-1)
            bad_pt = (~np.isfinite(upt)).any(axis=-1)
        bad = int(bad_bar.sum()) + int(bad_pt.sum())
        if bad:
            # Point values first: they have no conservative update, and
            # breakdowns have started there.
            mesh = self.mesh
            sites = [
                ("point", i, mesh.point_xy[i], upt[i])
                for i in np.flatnonzero(bad_pt)[:3]
            ] + [
                ("average", k, mesh.verts[mesh.tris[k]].mean(axis=0), ubar[k])
                for k in np.flatnonzero(bad_bar)[:3]
            ]
            where = "; ".join(
                f"{kind} {i} at ({xy[0]:.6g}, {xy[1]:.6g}) state "
                f"({', '.join(f'{v:.6g}' for v in u)})"
                for kind, i, xy, u in sites[:3]
            )
            dofs = [
                {"kind": kind, "index": int(i), "xy": xy.tolist(), "state": u.tolist()}
                for kind, i, xy, u in sites[:3]
            ]
            raise NumericalAbort(
                f"inadmissible state: step {step}, stage {stage}, t = {t:.6g}, "
                f"{bad} offending DoFs: {where}",
                step=step, stage=stage, t=float(t), dofs=dofs,
            )

    # -- full RK step -------------------------------------------------------------

    def rk3_step(self, ubar, upt, t, dt, step=0):
        """One SSP-RK3 step; returns (ubar, upt, bflux, stats).

        `step` numbers the step in abort messages, as the journal does;
        stage 0 there means the step started from an inadmissible state.

        Stashes per-step limiter diagnostics as `last_theta` (NT,),
        `last_eta_point` (NT, 6) and `last_eta_edge` (NE,), each the
        element-wise minimum over the three substeps.
        """
        ub1, up1, bf0, st0, dg0 = self._substep(ubar, upt, t, dt)
        try:
            self._check(ub1, up1, t + dt, step, 1)
        except NumericalAbort:
            # A substep spreads a bad DoF to its neighbours; if the step
            # started from it, name it as stage 0.
            self._check(ubar, upt, t, step, 0)
            raise

        ub2, up2, bf1, st1, dg1 = self._substep(ub1, up1, t + dt, dt)
        del ub1, up1
        ub2 = 0.75 * ubar + 0.25 * ub2
        up2 = 0.75 * upt + 0.25 * up2
        self._check(ub2, up2, t + 0.5 * dt, step, 2)
        # The diagnostics' running minimum, so that one set is kept.
        dg = [np.minimum(a, b) for a, b in zip(dg0, dg1)]
        del dg0, dg1

        ub3, up3, bf2, st2, dg2 = self._substep(ub2, up2, t + 0.5 * dt, dt)
        del ub2, up2
        ub3 = ubar / 3.0 + 2.0 / 3.0 * ub3
        up3 = upt / 3.0 + 2.0 / 3.0 * up3
        self._check(ub3, up3, t + dt, step, 3)

        self.last_theta, eta_point, self.last_eta_edge = (
            np.minimum(a, b) for a, b in zip(dg, dg2)
        )
        self.last_eta_point = eta_point.T

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
        *,
        max_steps: int | None = None,
        callback=None,
    ):
        """March from t = 0 to t_end, or for at most max_steps steps if
        given.  Returns (ubar, upt, journal, totals).

        The journal is a list of per-step dicts; totals carries the
        time-integrated boundary flux (per component) for conservation
        accounting.  Every row and the totals hold the relative
        conservation drift, max |mass - mass0 + bflux_int| over
        max(1, max |mass0|), under "drift".  callback(step, t, ubar, upt,
        row) fires after every accepted step with the fresh journal row.
        """
        mesh = self.mesh
        t = 0.0
        step = 0
        journal: list[dict] = []
        bflux_int = np.zeros(self.model.nvars)
        mass0 = mass = mesh.areas @ ubar
        scale = max(1.0, np.abs(mass0).max())
        drift = 0.0

        t_stop = t_end - 1e-12 * max(1.0, abs(t_end))
        while t < t_stop and (max_steps is None or step < max_steps):
            dt = self.compute_dt(ubar, upt)
            if not np.isfinite(dt) or dt <= 0.0:
                raise self._collapse(ubar, upt, t, step + 1)
            dt = min(dt, t_end - t)
            ubar, upt, bflux, stats = self.rk3_step(ubar, upt, t, dt, step + 1)
            bflux_int += dt * bflux
            t += dt
            step += 1

            row = {"step": step, "t": t, "dt": dt}
            row.update(stats)
            allu = np.concatenate([ubar, upt], axis=0)
            if self.model.nvars == 4:
                row["min_density"] = float(allu[:, 0].min())
                row["min_pressure"] = float(self.model.pressure(allu).min())
            else:
                row["min_u"] = float(allu.min())
                row["max_u"] = float(allu.max())
            mass = mesh.areas @ ubar
            drift = float(np.abs(mass - mass0 + bflux_int).max() / scale)
            row["mass"], row["drift"] = float(mass[0]), drift
            journal.append(row)

            if callback is not None:
                callback(step, t, ubar, upt, row)

        totals = {
            "steps": step,
            "t": t,
            "mass0": mass0,
            "mass": mass,
            "bflux_int": bflux_int,
            "drift": drift,
        }
        return ubar, upt, journal, totals
