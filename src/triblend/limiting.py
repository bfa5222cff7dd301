"""Invariant domains, convex blending, and jump-based damping.

Three ingredients keep the blended update inside the physical set:

* `IntervalDomain` / `GasDomain` describe admissible states and solve, in
  closed form, the largest eta in [0, 1] with base + eta * d admissible
  (linear bounds for intervals and density, a stable quadratic root for the
  internal-energy constraint).  `max_group_blend` is a group's common
  blend toward r; for an interval, min_q fl((hi - r)/fl(u_q - r)) sits at
  the largest u_q (lo: the smallest), as both roundings are monotone.

* `damping_sigma` / `damping_theta` measure inter-element smoothness: for
  every interior edge the jumps of u_h's normal derivatives d_n, d_nn and
  d_nt are taken in the edge's (n, t) frame (one pass over the interior
  edges, `Tables.edge_side_gradients`; the tangential jumps vanish),
  averaged in frame-invariant directional norms, scaled by global
  solution ranges, and folded into a per-element factor
  theta_K = exp(-dt * rate) in (0, 1] that damps the high-order deviation
  near discontinuities but is 1 - O(dt h) in smooth regions (and exactly
  1 on constants).

* `blend_point_residuals` / `blend_average_fluxes` pick the final blend
  coefficients through one kernel, `_limit_candidates`.  Point updates are
  convex combinations over the owning elements with weights
  s_K = (|K|/9) / |C_sigma|, and each element's amplified candidate is
  limited, so the point update is bound-preserving whatever the residuals.
  Average updates split into per-edge sub-updates whose candidates on both
  sides of the edge share one eta, so the blended flux stays conservative.
  Without a domain the damping factor alone sets the blend.
"""

from __future__ import annotations

import math

import numpy as np

from .models import nv_first, positions


def _largest_root_bound(a, b, c):
    """Largest eta* >= 0 with a x^2 + b x + c >= 0 on [0, eta*], c >= 0.

    Vectorized and numerically stable; returns +inf where the constraint
    never activates.  Where c < 0 (infeasible start) returns 0.  Each case
    is evaluated on the entries it covers only, gathered by index.
    """
    a, b, c = np.broadcast_arrays(a, b, c)
    shape = a.shape
    a, b, c = (np.ascontiguousarray(x, dtype=float).reshape(-1) for x in (a, b, c))
    out = np.full(a.shape, np.inf)

    scale = np.maximum(np.abs(a), np.abs(b))
    np.maximum(scale, np.maximum(np.abs(c), 1e-300), out=scale)
    scale *= 1e-14
    lin = np.abs(a) <= scale
    neg_b = b < 0
    with np.errstate(divide="ignore", invalid="ignore"):
        # Linear case: c + b eta >= 0.
        i = np.flatnonzero(lin & neg_b)
        ci = np.take(c, i)
        out[i] = np.where(ci <= 0, 0.0, -ci / np.take(b, i))

        disc = b * b
        disc -= 4.0 * a * c
        sq = np.maximum(disc, 0.0)
        np.sqrt(sq, out=sq)
        curved = ~lin

        # Convex (a > 0): only b < 0 can produce positive roots; the smaller
        # root is c / qf with qf = (-b + sqrt(disc)) / 2 (no cancellation).
        i = np.flatnonzero(curved & (a > 0) & neg_b & (disc > 0))
        qf = 0.5 * (-np.take(b, i) + np.take(sq, i))
        out[i] = np.take(c, i) / qf

        # Concave (a < 0): the constraint set is [r1, r2] containing 0;
        # eta* is the larger root.
        i = np.flatnonzero(curved & (a < 0))
        bi, si = np.take(b, i), np.take(sq, i)
        r_direct = (-bi - si) / (2.0 * np.take(a, i))
        qf = -bi + si
        r_stable = np.where(
            qf > 0, 2.0 * np.take(c, i) / np.where(qf > 0, qf, 1.0), r_direct
        )
        out[i] = np.where(bi < 0, r_stable, r_direct)

    np.copyto(out, 0.0, where=c < 0)
    return np.maximum(out, 0.0, out=out).reshape(shape)


def _linear_bound(room, step):
    """Largest eta >= 0 with room - eta * step >= 0 (room >= 0)."""
    room, step = np.broadcast_arrays(room, step)
    # Divided everywhere, then selected: a masked divide is not vectorized.
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(step > 0, room / step, np.inf)
    np.maximum(out, 0.0, out=out)
    np.copyto(out, 0.0, where=room < 0)
    return out


_SAFETY = 1.0 - 1e-12


def _verified_eta(domain, base, d, eta):
    """Shrink eta where the blended state still lands outside the set.

    The relative eta margin protects the constraints only where they vary
    linearly along the segment; near a double root (segment grazing the
    boundary) the constraint margin is quadratically small and round-off
    can push the evaluated state outside.  Geometric back-off is cheap
    because it almost never triggers, and eta = 0 is always feasible for
    an admissible base state.  A refused entry whose step is not finite
    drops to 0 at once: an interval sees the same state at every eta > 0,
    and the gas domain refuses every non-finite state.  A NaN eta, as an
    infinite step toward an unbounded side gives (inf / inf), is 0 too.
    """
    eta = np.where(np.isnan(eta), 0.0, eta)

    def refused():
        blended = eta[..., None] * d
        blended += base
        return (eta > 0.0) & ~domain.contains(blended)

    for _ in range(64):
        bad = refused()
        if not bad.any():
            return eta
        eta = np.where(bad, 0.5 * np.isfinite(d).all(axis=-1) * eta, eta)
    return np.where(refused(), 0.0, eta)


def _blend_tail(domain, base, d, eta, infeasible):
    """The end of `max_blend`: eta scaled, capped at 1, 0 where infeasible."""
    eta *= _SAFETY
    np.minimum(eta, 1.0, out=eta)
    np.copyto(eta, 0.0, where=infeasible)
    return _verified_eta(domain, base, d, eta)


class IntervalDomain:
    """Scalar invariant interval [lo, hi] (either side may be infinite)."""

    def __init__(self, lo=-math.inf, hi=math.inf):
        if not lo < hi:
            raise ValueError("empty interval")
        self.lo = float(lo)
        self.hi = float(hi)

    def contains(self, u):
        v = u[..., 0]
        return (v >= self.lo) & (v <= self.hi)

    def max_blend(self, base, d):
        v = base[..., 0]
        dv = d[..., 0]
        # A step moves toward one bound only: one division for both.
        eta = _linear_bound(np.where(dv < 0, v - self.lo, self.hi - v), np.abs(dv))
        return _blend_tail(self, base, d, eta, (v < self.lo) | (v > self.hi))

    def max_group_blend(self, u, ref, groups):
        """min_q max_blend(r, u_q - r) for the groups `groups` of states u
        (G, nq, 1) and references ref (G, 1), from each group's NaN-skipping
        extremes (module docstring); a group holding NaN gets at most 0, a
        NaN state's blend.  Bitwise while no blend is subnormal, where the
        SAFETY margin can fall under round-off."""
        cols = np.ascontiguousarray(u.T[0])  # (nq, G), as in `_rescue_states`
        r = np.take(ref, groups, axis=0)
        ext = np.stack((np.fmax.reduce(cols), np.fmin.reduce(cols)))
        ext = np.take(ext, groups, axis=1)[..., None]
        # The class's blend: a wrapper on the instance sees callers only.
        eta = type(self).max_blend(self, np.broadcast_to(r, ext.shape), ext - r)
        s = np.minimum(eta[0], eta[1])
        nan = np.isnan(np.take(np.maximum.reduce(cols), groups))
        return np.where(nan, np.minimum(s, 0.0), s)


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
        self.gamma = float(gamma)
        self.rho_max = float(rho_max)
        self.e_min = self.p_min / (self.gamma - 1.0)

    def scaled(self, factor: float) -> "GasDomain":
        """Same set with floors multiplied by `factor` (enforcement margin)."""
        return GasDomain(
            self.rho_min * factor, self.p_min * factor, self.gamma, self.rho_max
        )

    def g(self, u):
        g = u[..., 3] - self.e_min
        g *= u[..., 0]
        k = u[..., 1] ** 2
        k += u[..., 2] ** 2
        k *= 0.5
        g -= k
        return g

    def contains(self, u):
        rho = u[..., 0]
        g = self.g(u)  # +-inf or NaN for a non-finite state with rho in bounds
        return (
            (rho >= self.rho_min) & (rho <= self.rho_max) & (g >= 0.0) & (g < np.inf)
        )

    def max_blend(self, base, d):
        rho = base[..., 0]
        drho = d[..., 0]
        room = np.where(drho < 0, rho - self.rho_min, self.rho_max - rho)
        eta = _linear_bound(room, np.abs(drho))  # one division, as for intervals
        del room
        # g(base + x d) = a x^2 + b x + c.
        c = self.g(base)
        infeasible = (rho < self.rho_min) | (rho > self.rho_max) | (c < 0)
        b = drho * (base[..., 3] - self.e_min)
        b += rho * d[..., 3]
        b -= base[..., 1] * d[..., 1]
        b -= base[..., 2] * d[..., 2]
        a = drho * d[..., 3]
        a -= 0.5 * (d[..., 1] ** 2 + d[..., 2] ** 2)
        np.minimum(eta, _largest_root_bound(a, b, c), out=eta)
        del a, b, c
        return _blend_tail(self, base, d, eta, infeasible)

    def max_group_blend(self, u, ref, groups):
        """`IntervalDomain.max_group_blend`, state by state on the groups."""
        r = np.take(ref, groups, axis=0)[:, None, :]
        d = u[groups] - r  # `np.take` would copy a transposed u whole
        return type(self).max_blend(self, np.broadcast_to(r, d.shape), d).min(axis=1)


# ---------------------------------------------------------------------------
# jump-based high-order damping
# ---------------------------------------------------------------------------


def _component_denominators(model, coef, areas):
    """Global L-inf deviation from the mesh mean per variable; 0 = inactive.

    The mean is the exact integral mean of u_h (the average DoFs integrate
    it), the deviation is taken over every DoF of every element, and the
    momentum pair is measured jointly by magnitude so a rigid rotation of
    the frame cannot change it.  A component whose deviation is at
    round-off level relative to max(1, |mean|) is flagged inactive.
    """
    mean = areas @ coef[6] / areas.sum()
    c = nv_first(coef)  # (nv, 7, NT): every point value and average
    # Rounding is monotone: max |x - mean| = max(max x - mean, mean - min x).
    den = np.maximum(c.max(axis=(1, 2)) - mean, mean - c.min(axis=(1, 2)))
    scale = np.maximum(1.0, np.abs(mean))
    if model.nvars == 4:
        den[1:3] = np.hypot(c[1] - mean[1], c[2] - mean[2]).max()
        scale[1:3] = max(1.0, float(np.hypot(mean[1], mean[2])))
    return np.where(den > 1e-12 * scale, den, 0.0)


def damping_sigma(tables, model, coef, c1=1.0, c2=1.0):
    """Normalized derivative-jump measure per interior edge and side.

    Returns (edge_ids, sigma) where sigma[i, s] >= 0 is the smoothness
    measure charged to the side-s element of interior edge edge_ids[i]
    (`Tables.interior_edges`):

        sigma = max_v (c1 * ell * S1_v + c2 * ell^2 * S2_v)

    with ell the element's farthest distance to the edge (`EDGE_DIST`)
    and S1_v = |[d_n]|, S2_v = |[d_nn]| + |[d_nt]| the edge-averaged
    absolute jumps of the derivatives of variable v along the edge normal
    n and tangent t (`Tables.edge_side_gradients`; the tangential jumps
    [d_t] and [d_tt] vanish), each divided by the variable's global
    deviation.  The momentum components are rotated into the (n, t)
    frame, so the measure is invariant under rigid rotations; it is also
    invariant under u -> a u + b by the normalization.  Inactive
    (globally constant) components contribute 0.
    """
    ei = tables.interior_edges
    if len(ei) == 0:
        return ei, np.zeros((0, 2))
    dens = _component_denominators(model, coef, tables.mesh.areas)
    if not np.any(dens > 0):
        return ei, np.zeros((len(ei), 2))
    inv_den = np.where(dens > 0, 1.0 / np.where(dens > 0, dens, 1.0), 0.0)

    jump = tables.edge_side_gradients(coef)  # (3, nv, nqe, E)
    if model.nvars > 1:
        # Momentum pair in the (n, t) frame, in place.
        nx, ny = np.take(tables.mesh.edge_normal, ei, axis=0).T
        mx, my = jump[:, 1], jump[:, 2]
        mn = nx * mx
        mn += ny * my
        my *= nx
        my -= ny * mx
        mx[...] = mn
    a = np.abs(jump, out=jump)
    a[1] += a[2]  # |d_nn| + |d_nt|
    wq = tables.wq_edge
    S1 = (wq @ a[0]) * inv_den[:, None]  # (nv, E)
    S2 = (wq @ a[1]) * inv_den[:, None]
    ell = tables.EDGE_DIST  # (2, E)
    w1, w2 = c1 * ell, c2 * (ell * ell)
    sig = w1 * S1[0] + w2 * S2[0]
    for v in range(1, len(S1)):
        np.maximum(sig, w1 * S1[v] + w2 * S2[v], out=sig)
    return ei, sig.T


def interior_edge_speeds(tables, model, trace_u):
    """Fastest wave speed of the edge traces trace_u (NE, nqe, nv), which
    `HighOrder.interface_fluxes` returns, on each interior edge
    (`Tables.interior_edges`): (E,).  The positions of their quadrature
    points are formed here for a model that reads them (`positions`)."""
    ei = tables.interior_edges
    speed = model.max_wavespeed(
        np.take(trace_u, ei, axis=0),
        np.take(tables.mesh.edge_normal, ei, axis=0)[:, None, :],
        positions(model, lambda: tables.edge_points(ei)),
    )  # (E, nqe | 1)
    # One pass per point: a reduction over the short last axis is slow.
    alpha = speed[:, 0]
    for q in range(1, speed.shape[1]):
        alpha = np.maximum(alpha, speed[:, q])
    return alpha


def damping_theta(tables, model, coef, speed, dt, c1=1.0, c2=1.0):
    """Per-element damping factor theta in (0, 1], from the fastest wave
    speed `speed` (E,) of each interior edge (`interior_edge_speeds`).

    theta_K = exp(-(dt / N_K) sum_e alpha_e sigma_{e,K} / ell_{e,K}) over
    the N_K interior edges of K, with alpha_e the edge's speed.  Exactly 1
    when every component is globally constant and 1 - O(dt h) where u_h is
    smooth; near a discontinuity the exponent is O(dt/ell), an order-one
    reduction per step.
    """
    mesh = tables.mesh
    ei, sigma = damping_sigma(tables, model, coef, c1=c1, c2=c2)
    if len(ei) == 0 or not sigma.any():
        return np.ones(mesh.num_tris)

    # Sums over the edges of each element, side 0 then side 1, in edge
    # order; an element without interior edges keeps exp(-0) = 1.
    k = np.take(tables.side_elems, ei, axis=1).ravel()
    rate = speed * sigma.T / tables.EDGE_DIST
    expo = np.bincount(k, weights=rate.ravel(), minlength=mesh.num_tris)
    # Three edges less the element's boundary edges, which are few.
    be = np.take(mesh.edge_tris[:, 0], mesh.boundary_edges)
    n_int = 3 - np.bincount(be, minlength=mesh.num_tris)
    return np.exp(-dt * expo / np.maximum(n_int, 1))


# ---------------------------------------------------------------------------
# convex blending
# ---------------------------------------------------------------------------


def _limit_candidates(domain, base, lam, F_lo, F_ho, cap, counted=True):
    """Limit the candidates base - lam F of S sides, base (S, ..., nv) and
    lam (S, ...), for an update F between F_lo and F_ho (..., nv).

    Where a low-order candidate leaves `domain` (a breach of the CFL
    margin), F_lo is first scaled by its largest admissible blend; only
    these candidates, those that `counted` keeps, are blended, gathered by
    index.  Then eta <= cap is the largest blend towards F_ho.  Bounds
    combine by the minimum over the sides.  Returns (F_lo + eta (F_ho -
    F_lo), eta, n_rescued); without a domain eta is the cap.
    """
    n_rescued = 0
    eta = cap
    if domain is not None:
        step = lam[..., None]
        c0 = base - step * F_lo
        bad = ~domain.contains(c0) & counted
        idx = np.nonzero(bad)
        n_rescued = len(idx[0])
        if n_rescued:
            ub = base[idx]
            r = np.ones(bad.shape)
            r[idx] = domain.max_blend(ub, c0[idx] - ub)
            F_lo = F_lo * r.min(axis=0)[..., None]
            c0 = base - step * F_lo
        # F_ho - F_lo is formed again for the result, so that it is not
        # alive while the blends are.
        eta = np.minimum(
            domain.max_blend(c0, -step * (F_ho - F_lo)).min(axis=0), eta
        )
        del c0
    F = np.subtract(F_ho, F_lo)
    F *= eta[..., None]
    F += F_lo
    return F, eta, n_rescued


def blend_point_residuals(tables, domain, u_loc, Phi_lo, Wpt, theta, dt):
    """Blend low/high point residuals per (element, local DoF).

    u_loc (6, NT, nv) holds each element's point-DoF states, and the
    residuals are laid out alike (see `Tables`).  Returns (b (6, NT, nv),
    eta (6, NT), n_rescued) with the final update u' = u - dt * sum_K b_K
    guaranteed inside `domain` (up to round-off) whenever the DoF states
    already are.  Its candidates u - (dt / s_K) b_K are one side of
    `_limit_candidates`; with domain None, eta = theta_K.
    """
    mesh = tables.mesh
    # (6, NT) convex weights s_K, C-ordered like the residual blocks,
    # so that the candidates and steps given to the domain are too.
    share = (mesh.areas / 9.0) / mesh.gather_points(mesh.point_area)
    return _limit_candidates(
        domain, u_loc[None], (dt / share)[None], Phi_lo, Wpt,
        np.broadcast_to(theta, share.shape),
    )


def blend_average_fluxes(tables, domain, ubar, F_lo, F_ho, theta, dt):
    """Blend low/high edge fluxes with one shared eta per edge.

    Each cell average is a convex combination of three per-edge candidates
    ubar - 3 (dt/|K|) s_{K,e} Fhat_e, so limiting each candidate on both
    sides of the edge keeps the averages in `domain` while the shared flux
    keeps the update conservative.  With domain None the blend is the
    damping alone: eta = min(theta_K, theta_L) on interior edges and
    theta_K on boundary edges.  Returns (F (NE, nv), eta (NE,), n_rescued).

    Both sides' candidates are the sides of `_limit_candidates`, (2, NE)
    with s_{K,e} = +1 on side 0 and -1 on side 1 (`Tables.side_elems`,
    `Tables.side_signs`).  Side 1 of a boundary edge repeats side 0; the
    rescue count keeps only the edge's own sides (`Tables.side_counted`).
    """
    k = tables.side_elems
    lam = 3.0 * dt / np.take(tables.mesh.areas, k) * tables.side_signs
    return _limit_candidates(
        domain, np.take(ubar, k, axis=0), lam,
        F_lo, F_ho, np.take(theta, k).min(axis=0), tables.side_counted,
    )
