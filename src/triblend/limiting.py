"""Invariant domains, convex blending, and jump-based damping.

Three ingredients keep the blended update inside the physical set:

* `IntervalDomain` / `GasDomain` describe admissible states and solve, in
  closed form, the largest eta in [0, 1] with base + eta * d admissible
  (linear bounds for intervals and density, a stable quadratic root for the
  internal-energy constraint).

* `damping_sigma` / `damping_theta` measure inter-element smoothness: for
  every interior edge the first- and second-derivative jumps of u_h are
  averaged in frame-invariant directional norms, scaled by global solution
  ranges, and folded into a per-element factor theta_K = exp(-dt * rate)
  in (0, 1] that damps the high-order deviation near discontinuities but
  is 1 - O(dt h) in smooth regions (and exactly 1 on constants).

* `blend_point_residuals` / `blend_average_fluxes` pick the final blend
  coefficients.  Point updates are written as convex combinations over the
  owning elements with weights s_K = (|K|/9) / |C_sigma|; each element's
  amplified candidate is limited separately, which makes the blended point
  update bound-preserving by convexity no matter how the per-element
  residuals interact.  Average updates split into three per-edge
  sub-updates limited on both sides with a single shared eta, so the
  blended flux stays conservative.  Without a domain the damping factor
  alone sets the blend.
"""

from __future__ import annotations

import math

import numpy as np


def _largest_root_bound(a, b, c):
    """Largest eta* >= 0 with a x^2 + b x + c >= 0 on [0, eta*], c >= 0.

    Vectorized and numerically stable; returns +inf where the constraint
    never activates.  Where c < 0 (infeasible start) returns 0.
    """
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
        # Linear case: c + b eta >= 0.
        m = lin & neg_b
        out[m] = np.where(c[m] <= 0, 0.0, -c[m] / b[m])

        disc = b * b - 4.0 * a * c
        sq = np.sqrt(np.maximum(disc, 0.0))

        # Convex (a > 0): only b < 0 can produce positive roots; the smaller
        # root is c / qf with qf = (-b + sqrt(disc)) / 2 (no cancellation).
        m = (~lin) & (a > 0) & neg_b & (disc > 0)
        qf = 0.5 * (-b[m] + sq[m])
        out[m] = c[m] / qf

        # Concave (a < 0): the constraint set is [r1, r2] containing 0;
        # eta* is the larger root.
        m = (~lin) & (a < 0)
        r_direct = (-b[m] - sq[m]) / (2.0 * a[m])
        qf = -b[m] + sq[m]
        r_stable = np.where(qf > 0, 2.0 * c[m] / np.where(qf > 0, qf, 1.0), r_direct)
        out[m] = np.where(b[m] < 0, r_stable, r_direct)

    out = np.where(c < 0, 0.0, out)
    return np.maximum(out, 0.0)


def _linear_bound(room, step):
    """Largest eta >= 0 with room - eta * step >= 0 (room >= 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.where(step > 0, room / np.where(step > 0, step, 1.0), np.inf)
    return np.where(room < 0, 0.0, np.maximum(b, 0.0))


_SAFETY = 1.0 - 1e-12


def _verified_eta(domain, base, d, eta):
    """Shrink eta where the blended state still lands outside the set.

    The relative eta margin protects the constraints only where they vary
    linearly along the segment; near a double root (segment grazing the
    boundary) the constraint margin is quadratically small and round-off
    can push the evaluated state outside.  Geometric back-off is cheap
    because it almost never triggers, and eta = 0 is always feasible for
    an admissible base state.
    """
    for _ in range(64):
        bad = (eta > 0.0) & ~domain.contains(base + eta[..., None] * d)
        if not bad.any():
            return eta
        eta = np.where(bad, 0.5 * eta, eta)
    bad = (eta > 0.0) & ~domain.contains(base + eta[..., None] * d)
    return np.where(bad, 0.0, eta)


class IntervalDomain:
    """Scalar invariant interval [lo, hi] (either side may be infinite)."""

    def __init__(self, lo=-math.inf, hi=math.inf):
        if not lo < hi:
            raise ValueError("empty interval")
        self.lo = float(lo)
        self.hi = float(hi)

    def contains(self, u, slack: float = 0.0):
        v = u[..., 0]
        return (v >= self.lo - slack) & (v <= self.hi + slack)

    def max_blend(self, base, d):
        v = base[..., 0]
        dv = d[..., 0]
        eta = np.minimum(
            _linear_bound(v - self.lo, -dv), _linear_bound(self.hi - v, dv)
        )
        eta = np.minimum(eta * _SAFETY, 1.0)
        infeasible = (v < self.lo) | (v > self.hi)
        eta = np.where(infeasible, 0.0, eta)
        return _verified_eta(self, base, d, eta)


class GasDomain:
    """Positive density and internal energy for the gas-dynamics model.

    States must satisfy rho in [rho_min, rho_max] and

        g(u) = rho (E - e_min) - |m|^2 / 2 >= 0,

    which is pressure >= p_min with e_min = p_min / (gamma - 1).  g is
    quadratic along a segment, so the largest admissible blend solves a
    scalar quadratic.
    """

    def __init__(self, rho_min=1e-10, p_min=1e-10, gamma=1.4, rho_max=1e10):
        self.rho_min = float(rho_min)
        self.p_min = float(p_min)
        self.rho_max = float(rho_max)
        self.e_min = float(p_min) / (gamma - 1.0)

    def scaled(self, factor: float) -> "GasDomain":
        """Same set with floors multiplied by `factor` (enforcement margin)."""
        g = GasDomain.__new__(GasDomain)
        g.rho_min = self.rho_min * factor
        g.p_min = self.p_min * factor
        g.rho_max = self.rho_max
        g.e_min = self.e_min * factor
        return g

    def g(self, u):
        return u[..., 0] * (u[..., 3] - self.e_min) - 0.5 * (
            u[..., 1] ** 2 + u[..., 2] ** 2
        )

    def contains(self, u, slack: float = 0.0):
        rho = u[..., 0]
        gscale = (
            np.abs(u[..., 0]) * (np.abs(u[..., 3]) + self.e_min)
            + 0.5 * (u[..., 1] ** 2 + u[..., 2] ** 2)
            + 1.0
        )
        return (
            (rho >= self.rho_min * (1.0 - slack) - slack)
            & (rho <= self.rho_max * (1.0 + slack))
            & (self.g(u) >= -slack * gscale)
        )

    def max_blend(self, base, d):
        rho = base[..., 0]
        drho = d[..., 0]
        eta = np.minimum(
            _linear_bound(rho - self.rho_min, -drho),
            _linear_bound(self.rho_max - rho, drho),
        )
        c = self.g(base)
        b = (
            drho * (base[..., 3] - self.e_min)
            + rho * d[..., 3]
            - base[..., 1] * d[..., 1]
            - base[..., 2] * d[..., 2]
        )
        a = drho * d[..., 3] - 0.5 * (d[..., 1] ** 2 + d[..., 2] ** 2)
        eta = np.minimum(eta, _largest_root_bound(a, b, c))
        eta = np.minimum(eta * _SAFETY, 1.0)
        infeasible = (rho < self.rho_min) | (rho > self.rho_max) | (c < 0)
        eta = np.where(infeasible, 0.0, eta)
        return _verified_eta(self, base, d, eta)


# ---------------------------------------------------------------------------
# jump-based high-order damping
# ---------------------------------------------------------------------------


def _rotate_momentum(model, nx, ny, jump):
    """Momentum pair of jump (k, nv, nq, E) in each edge's (n, t) frame.

    Makes the jump measure frame-invariant; scalar jumps pass unchanged.
    nx, ny: (E,) edge normal components.
    """
    if model.nvars == 1:
        return jump
    out = jump.copy()
    out[:, 1] = nx * jump[:, 1] + ny * jump[:, 2]
    out[:, 2] = -ny * jump[:, 1] + nx * jump[:, 2]
    return out


def _component_denominators(model, ubar, upt, areas):
    """Global L-inf deviation from the mesh mean per variable; 0 = inactive.

    The mean is the exact integral mean of u_h (the average DoFs integrate
    it), the deviation is taken over every DoF of every element, and the
    momentum pair is measured jointly by magnitude so a rigid rotation of
    the frame cannot change it.  A component whose deviation is at
    round-off level relative to max(1, |mean|) is flagged inactive.
    """
    allv = np.concatenate([upt, ubar], axis=0)
    mean = areas @ ubar / areas.sum()
    dev = allv - mean
    den = np.abs(dev).max(axis=0)
    scale = np.maximum(1.0, np.abs(mean))
    if model.nvars == 4:
        den[1:3] = np.hypot(dev[:, 1], dev[:, 2]).max()
        scale[1:3] = max(1.0, float(np.hypot(mean[1], mean[2])))
    return np.where(den > 1e-12 * scale, den, 0.0)


def damping_sigma(tables, model, coef, ubar, upt, c1=1.0, c2=1.0):
    """Normalized derivative-jump measure per interior edge and side.

    Returns (edge_ids, sigma) where sigma[i, s] >= 0 is the smoothness
    measure charged to the side-s element of interior edge edge_ids[i]:

        sigma = max_v (c1 * ell * S1_v + c2 * ell^2 * S2_v)

    with ell the element's farthest distance to the edge and S1_v / S2_v
    the edge-averaged absolute jumps of the first / second directional
    derivatives of variable v, each divided by the variable's global
    deviation.  Derivatives are taken along the edge normal and tangent and
    the momentum components are rotated into that frame, so the measure
    is invariant under rigid rotations; it is also invariant under
    u -> a u + b by the normalization.  Inactive (globally constant)
    components contribute 0.
    """
    mesh = tables.mesh
    ei = np.flatnonzero(mesh.edge_tris[:, 1] >= 0)
    if len(ei) == 0:
        return ei, np.zeros((0, 2))
    dens = _component_denominators(model, ubar, upt, mesh.areas)
    if not np.any(dens > 0):
        return ei, np.zeros((len(ei), 2))
    inv_den = np.where(dens > 0, 1.0 / np.where(dens > 0, dens, 1.0), 0.0)

    g, h = tables.edge_side_gradients(coef, ei)  # (2, 2 | 3, nv, nqe, E)
    nx, ny = mesh.edge_normal[ei].T
    jump1 = _rotate_momentum(model, nx, ny, g[0] - g[1])
    jump2 = _rotate_momentum(model, nx, ny, h[0] - h[1])
    d_n = nx * jump1[0] + ny * jump1[1]
    d_t = -ny * jump1[0] + nx * jump1[1]
    a1 = np.abs(d_n) + np.abs(d_t)  # (nv, nqe, E)

    xx, xy, yy = jump2
    d_nn = nx * nx * xx + 2.0 * nx * ny * xy + ny * ny * yy
    d_nt = -nx * ny * xx + (nx * nx - ny * ny) * xy + nx * ny * yy
    d_tt = ny * ny * xx - 2.0 * nx * ny * xy + nx * nx * yy
    a2 = np.abs(d_nn) + np.abs(d_nt) + np.abs(d_tt)

    wq = tables.wq_edge
    S1 = np.einsum("q,vqe,v->ev", wq, a1, inv_den)
    S2 = np.einsum("q,vqe,v->ev", wq, a2, inv_den)
    ell = tables.EDGE_DIST[ei]  # (E, 2)
    sig = (
        c1 * ell[:, :, None] * S1[:, None, :]
        + c2 * (ell**2)[:, :, None] * S2[:, None, :]
    )
    return ei, sig.max(axis=2)


def damping_theta(tables, model, coef, ubar, upt, trace_u, dt, c1=1.0, c2=1.0):
    """Per-element damping factor theta in (0, 1].

    theta_K = exp(-(dt / N_K) sum_e alpha_e sigma_{e,K} / ell_{e,K}) over
    the N_K interior edges of K, with alpha_e the fastest wave speed of the
    edge trace.  Exactly 1 when every component is globally constant and
    1 - O(dt h) where u_h is smooth; near a discontinuity the exponent is
    O(dt/ell), an order-one reduction per step.
    """
    mesh = tables.mesh
    theta = np.ones(mesh.num_tris)
    ei, sigma = damping_sigma(tables, model, coef, ubar, upt, c1=c1, c2=c2)
    if len(ei) == 0 or not sigma.any():
        return theta

    alpha = model.max_wavespeed(
        trace_u[ei], mesh.edge_normal[ei, None, :], tables.XY_E[ei]
    ).max(axis=1)

    expo = np.zeros(mesh.num_tris)
    n_int = np.zeros(mesh.num_tris)
    for s in range(2):
        k = mesh.edge_tris[ei, s]
        np.add.at(expo, k, alpha * sigma[:, s] / tables.EDGE_DIST[ei, s])
        np.add.at(n_int, k, 1.0)
    active = n_int > 0
    theta[active] = np.exp(-dt * expo[active] / n_int[active])
    return theta


# ---------------------------------------------------------------------------
# convex blending
# ---------------------------------------------------------------------------


def blend_point_residuals(tables, domain, u_loc, Phi_lo, Wpt, theta, dt):
    """Blend low/high point residuals per (element, local DoF).

    u_loc (NT, 6, nv) holds each element's point-DoF states.  Returns
    (b (NT, 6, nv), eta (NT, 6), n_rescued) with the final update
    u' = u - dt * sum_K b_K guaranteed inside `domain` (up to round-off)
    whenever the DoF states already are.  With domain None the blend is
    the damping alone, eta = theta_K.
    """
    n_rescued = 0
    if domain is not None:
        mesh = tables.mesh
        share = (mesh.areas[:, None] / 9.0) / mesh.point_area[
            mesh.tri_point_dofs
        ]  # (NT, 6) convex weights s_K
        lam = dt / share  # amplified step per element candidate

        c0 = u_loc - lam[..., None] * Phi_lo
        ok0 = domain.contains(c0)
        n_rescued = int((~ok0).sum())
        if n_rescued:
            r = np.where(ok0, 1.0, domain.max_blend(u_loc, c0 - u_loc))
            Phi_lo = Phi_lo * r[..., None]
            c0 = u_loc - lam[..., None] * Phi_lo

    dW = Wpt - Phi_lo
    eta = theta[:, None]
    if domain is not None:
        eta = np.minimum(domain.max_blend(c0, -lam[..., None] * dW), eta)
    eta = np.broadcast_to(eta, dW.shape[:2])
    b = Phi_lo + eta[..., None] * dW
    return b, eta, n_rescued


def blend_average_fluxes(tables, domain, ubar, F_lo, F_ho, theta, dt):
    """Blend low/high edge fluxes with one shared eta per edge.

    Each cell average is a convex combination of three per-edge candidates
    ubar - 3 (dt/|K|) s_{K,e} Fhat_e, so limiting each candidate on both
    sides of the edge keeps the averages in `domain` while the shared flux
    keeps the update conservative.  With domain None the blend is the
    damping alone: eta = min(theta_K, theta_L) on interior edges and
    theta_K on boundary edges.  Returns (F (NE, nv), eta (NE,), n_rescued).
    """
    mesh = tables.mesh
    interior = mesh.edge_tris[:, 1] >= 0
    n_rescued = 0
    if domain is not None:
        # Per side: the cell averages and the candidate step factors.
        sides = []
        for s, sign in ((0, 1.0), (1, -1.0)):
            k = np.clip(mesh.edge_tris[:, s], 0, None)
            sides.append((ubar[k], 3.0 * dt / mesh.areas[k] * sign))

        # Rescue pass: a shared scale on the low-order flux if a candidate
        # leaves the domain (CFL margin breach).
        r = np.ones(len(F_lo))
        for s, (ub, fac) in enumerate(sides):
            c = ub - fac[:, None] * F_lo
            ok = domain.contains(c)
            if s == 1:
                ok |= ~interior
            bad = ~ok
            if bad.any():
                n_rescued += int(bad.sum())
                eta_r = domain.max_blend(ub, c - ub)
                r = np.minimum(r, np.where(bad, eta_r, 1.0))
        if n_rescued:
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
    return F, eta, n_rescued
