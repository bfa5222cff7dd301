"""Hyperbolic models: fluxes, directional Jacobians, wave speeds.

Every model exposes the same informal interface over arrays whose last axis
(or last two axes for matrices) carries the conserved variables:

    nvars                   -- number of conserved variables
    flux_normal(u, n, xy)   -- (..., nvars) normal flux f(u) . n, linear
                               in n; it broadcasts over stacked normals:
                               (2, 1, E, 2) against u (1, nq, E, nvars)
                               gives (2, nq, E, nvars)
    sign_jac_normal(...)    -- (..., nvars, nvars) matrix sign of the
                               Jacobian d(f . n)/du
    max_wavespeed(u, n, xy) -- (...,) spectral bound for |n| = 1 scaling;
                               the value scales linearly with |n|
    jac_apply(u, w, xy)     -- (..., nvars) sum_d A_d(u) w[..., d], with
                               A_d = d(f . e_d)/du, f . n = `flux_normal`
    static_signs            -- True for a linear flux f(u, x) = u a(x) in a
                               time-independent velocity field a, which
                               the model gives as `velocity_at(xy)`.  Then
                               d(f . n)/du does not depend on u, so its
                               sign and wave speed may be taken at one
                               state, and the operators keep what the
                               speeds decide (`spatial_ho.StaticSpeeds`,
                               3.96 MB on `rotating-shapes` at n=59)
    reads_xy                -- True for a flux that depends on the
                               position xy

`xy` carries physical coordinates for a model with `reads_xy`.  The
operators form positions only for such a model (`positions`), and for one
with `static_signs` too only while they build what they keep; every other
model gets xy = None and must not read it.  Only the boundary handler
passes the positions of the boundary points to every model: its far-field
states read them.

Leading dimensions broadcast everywhere.  A result that does not depend on
the state, such as the wave speed of a linear flux, has only the dimensions
its inputs give it: `sign_jac_normal` and `max_wavespeed` are broadcastable
against the leading dimensions of u, not materialized over them, and a
constant velocity field has unit leading dimensions.

Memory layout: any strides are accepted.  The element kernels store their
arrays component-major, (nvars, local axes..., NT) with the element axis
innermost, and pass the models nv-last views of them (`nv_last`; `nv_first`
gives the block back), so that every `u[..., i]` is one contiguous block
and numpy's inner loops run over all elements.  Results are laid out the
same way: arrays shaped like u follow its strides (`np.empty_like`), and
normal fluxes of several components and matrices come from
`component_major`, which puts their last one or two axes outermost in
memory.

`llf_flux` is the local Lax-Friedrichs two-state flux over this interface,
shared by the low-order averages and the boundary closure.
"""

from __future__ import annotations

import numpy as np


def diagonal_view(M):
    """Writable view of the diagonals of the matrices M (..., k, k): (..., k).

    Adding to it adds a multiple of the identity in place, in one strided
    pass and without a temporary of M's size."""
    return np.lib.stride_tricks.as_strided(
        M, M.shape[:-1], M.strides[:-2] + (M.strides[-2] + M.strides[-1],)
    )


def nv_last(block):
    """View of a component-major block (nvars, ...) with the component
    axis last: the array the models take."""
    return np.moveaxis(block, 0, -1)


def nv_first(a):
    """View of a (..., nvars) array with the component axis first: the
    component-major block under an `nv_last` view."""
    return np.moveaxis(a, -1, 0)


def component_major(lead, *comps):
    """Uninitialized array of shape lead + comps stored as comps + lead:
    each component is one C-contiguous block over the leading dims."""
    k = len(comps)
    out = np.empty(comps + tuple(lead))
    return np.moveaxis(out, tuple(range(k)), tuple(range(-k, 0)))


def positions(model, build):
    """build(), the positions that `model` reads, or None for a model
    without `reads_xy`, for which nothing is formed."""
    return build() if model.reads_xy else None


def _length(n):
    """Euclidean length of the 2-vectors n (..., 2): (...,)."""
    return np.sqrt(n[..., 0] * n[..., 0] + n[..., 1] * n[..., 1])


def llf_flux(model, ul, ur, n, xy):
    """Local Lax-Friedrichs (Rusanov) flux from ul to ur across n: (..., nv)."""
    alpha = model.max_wavespeed(ul, n, xy)  # both states' for a linear flux
    if not model.static_signs:
        alpha = np.maximum(alpha, model.max_wavespeed(ur, n, xy))
    fl, fr = model.flux_normal(ul, n, xy), model.flux_normal(ur, n, xy)
    return 0.5 * (fl + fr) - 0.5 * alpha[..., None] * (ur - ul)


# ---------------------------------------------------------------------------
# scalar models
# ---------------------------------------------------------------------------


class LinearAdvection:
    """u_t + div(a(x) u) = 0 with divergence-free velocity a."""

    nvars = 1
    static_signs = True
    reads_xy = True

    def __init__(self, velocity):
        """velocity: (2,) constant or callable xy -> (..., 2)."""
        if callable(velocity):
            self._vel = velocity
        else:
            a = np.asarray(velocity, dtype=float)
            self._vel = lambda xy: a.reshape((1,) * (xy.ndim - 1) + (2,))

    def velocity_at(self, xy):
        """a(xy), (..., 2); a constant field's has unit leading dims."""
        return self._vel(np.asarray(xy))

    def _normal_speed(self, n, xy):
        """a(xy) . n, in the broadcast shape of the leading dims of n, xy."""
        a = self.velocity_at(xy)
        return a[..., 0] * n[..., 0] + a[..., 1] * n[..., 1]

    def flux_normal(self, u, n, xy):
        return u * self._normal_speed(n, xy)[..., None]

    def jac_normal(self, u, n, xy):
        return self._normal_speed(n, xy)[..., None, None]

    def sign_jac_normal(self, u, n, xy):
        return np.sign(self.jac_normal(u, n, xy))

    def max_wavespeed(self, u, n, xy):
        return np.abs(self._normal_speed(n, xy))

    def jac_apply(self, u, w, xy):
        """a . w for w (..., 1, 2): the derivative of the flux u a along w."""
        a = self.velocity_at(xy)[..., None, :]
        return a[..., 0] * w[..., 0] + a[..., 1] * w[..., 1]


class KPP:
    """The rotating non-convex scalar flux f(u) = (sin u, cos u)."""

    nvars = 1
    static_signs = False
    reads_xy = False

    def flux_normal(self, u, n, xy=None):
        return np.sin(u) * n[..., 0:1] + np.cos(u) * n[..., 1:2]

    def jac_normal(self, u, n, xy=None):
        j = np.cos(u) * n[..., 0:1] - np.sin(u) * n[..., 1:2]
        return j[..., None]

    def sign_jac_normal(self, u, n, xy=None):
        return np.sign(self.jac_normal(u, n, xy))

    def max_wavespeed(self, u, n, xy=None):
        # |f'(u) . n| <= |n| for every state: use the global bound, which is
        # what the dissipation argument for this non-convex flux needs.
        return _length(n)

    def jac_apply(self, u, w, xy=None):
        return np.cos(u) * w[..., 0] - np.sin(u) * w[..., 1]


# ---------------------------------------------------------------------------
# compressible Euler
# ---------------------------------------------------------------------------


def _eigen_signs(lam):
    """Signs of the stacked eigenvalues lam (3, ...) = (un - c, un, un + c).

    Eigenvalues within round-off of zero get sign 0 so that stagnation and
    sonic points do not flip erratically between +1 and -1; max(|un - c|,
    |un + c|) is the wave speed |un| + c.
    """
    scale = np.maximum(np.abs(lam[0]), np.abs(lam[2]))
    s = np.sign(lam)
    s[np.abs(lam) <= 1e-12 * scale] = 0.0
    return s


class Euler:
    """2D compressible Euler with ideal-gas law, u = (rho, mx, my, E).

    The directional Jacobian A = d(f.n)/du, |n| = 1, has the eigenvalues
    un - c, un (double) and un + c, so every spectral function of it is

        f(A) = f(un) I + (f(un - c) - f(un)) r0 l0^T
                       + (f(un + c) - f(un)) r3 l3^T

    with the acoustic eigenvectors, in conserved variables,

        r0,3 = (1, v -/+ c n, H -/+ un c),
        l0,3 = (b2 +/- un / c, -(b1 v +/- n / c), b1) / 2,

    b1 = (gamma - 1) / c^2, b2 = b1 |v|^2 / 2 and l_i . r_j = delta_ij.
    `sign_jac_normal` builds this form entry by entry, `flux_normal_split`
    uses its closed-form action on u, and `jac_apply` differentiates the
    flux whose normal part is `flux_normal`.
    Where f is equal on all three eigenvalues, as the sign at supersonic
    states, f(A) is exactly f(un) I.
    """

    nvars = 4
    static_signs = False
    reads_xy = False

    def __init__(self, gamma: float = 1.4):
        self.gamma = float(gamma)

    # -- thermodynamics ----------------------------------------------------

    def pressure(self, u):
        rho = u[..., 0]
        ke = 0.5 * (u[..., 1] ** 2 + u[..., 2] ** 2) / rho
        return (self.gamma - 1.0) * (u[..., 3] - ke)

    def sound_speed(self, u):
        return np.sqrt(self.gamma * self.pressure(u) / u[..., 0])

    def conserved(self, rho, vx, vy, p):
        """Build conserved variables from primitives (broadcasting)."""
        rho, vx, vy, p = np.broadcast_arrays(
            *(np.asarray(a, dtype=float) for a in (rho, vx, vy, p))
        )
        E = p / (self.gamma - 1.0) + 0.5 * rho * (vx**2 + vy**2)
        return np.stack([rho, rho * vx, rho * vy, E], axis=-1)

    def primitives(self, u):
        rho = u[..., 0]
        vx = u[..., 1] / rho
        vy = u[..., 2] / rho
        return rho, vx, vy, self.pressure(u)

    # -- fluxes ------------------------------------------------------------

    def flux_normal(self, u, n, xy=None):
        rho, vx, vy, p = self.primitives(u)
        vn = vx * n[..., 0] + vy * n[..., 1]
        out = component_major(vn.shape, 4)  # over the lead dims of u and n
        out[..., 0] = rho * vn
        out[..., 1] = u[..., 1] * vn + p * n[..., 0]
        out[..., 2] = u[..., 2] * vn + p * n[..., 1]
        out[..., 3] = (u[..., 3] + p) * vn
        return out

    def max_wavespeed(self, u, n, xy=None):
        rho, vx, vy, p = self.primitives(u)
        nn = _length(n)
        vn = vx * n[..., 0] + vy * n[..., 1]
        # A negative pressure gives NaN, which the time step and the
        # admissibility check report as a numerical abort.
        with np.errstate(invalid="ignore"):
            c = np.sqrt(self.gamma * p / rho)
        return np.abs(vn) + c * nn

    # -- matrix functions of the directional Jacobian ------------------------

    def _matrix_function(self, u, n, fn):
        """fn(d(f.n)/du) for the unit direction n / |n|: (..., 4, 4).

        fn maps the distinct eigenvalues, stacked as (un - c, un, un + c)
        (3, ...), to their function values.  The 16 entries of the
        eigenprojector form are built one by one from component arrays
        into a `component_major` result, r_k d_k times l_k for k = 0, 3
        with the projector weights d_k = f(lam_k) - f(un).
        """
        # c = 0 or NaN gives a non-finite matrix, on which the weights fall back.
        with np.errstate(divide="ignore", invalid="ignore"):
            g = self.gamma
            nn = _length(n)
            nx, ny = n[..., 0] / nn, n[..., 1] / nn
            rho, vx, vy, p = self.primitives(u)
            un = vx * nx + vy * ny
            c = np.sqrt(g * p / rho)
            H = (u[..., 3] + p) / rho
            f0, f1, f3 = fn(np.stack([un - c, un, un + c]))
            d0, d3 = f0 - f1, f3 - f1
            cx, cy, cn = c * nx, c * ny, c * un
            r0 = (d0, (vx - cx) * d0, (vy - cy) * d0, (H - cn) * d0)
            r3 = (d3, (vx + cx) * d3, (vy + cy) * d3, (H + cn) * d3)
            b1 = (g - 1.0) / c**2
            b2 = 0.5 * b1 * (vx**2 + vy**2)
            ax, ay, an = nx / c, ny / c, un / c
            l0 = (
                0.5 * (b2 + an), 0.5 * -(b1 * vx + ax), 0.5 * -(b1 * vy + ay),
                0.5 * b1,
            )
            l3 = (
                0.5 * (b2 - an), 0.5 * -(b1 * vx - ax), 0.5 * -(b1 * vy - ay),
                l0[3],
            )
            M = component_major(un.shape, 4, 4)
            tmp = np.empty(un.shape)
            for i in range(4):
                for j in range(4):
                    m = np.multiply(r0[i], l0[j], out=M[..., i, j])
                    m += np.multiply(r3[i], l3[j], out=tmp)
            diag = diagonal_view(M)
            diag += f1[..., None]  # + f(un) I
            return M

    def sign_jac_normal(self, u, n, xy=None):
        return self._matrix_function(u, n, _eigen_signs)

    def jac_apply(self, u, w, xy=None):
        """A_x(u) w_x + A_y(u) w_y for gradient-like w (..., 4, 2).

        A_d = d(f . e_d)/du is the derivative of the flux whose normal part
        is `flux_normal`; the sum runs over the directions d.
        With dp_d = (gamma - 1)(w_E,d - v . w_m,d + |v|^2 w_rho,d / 2), the
        derivative of the pressure, and D = sum_d (w_m_d,d - v_d w_rho,d),
        rho times that of the velocity's divergence, it is

            (sum_d w_m_d,d,  sum_d v_d w_m,d + v D + (dp_x, dp_y),
             sum_d v_d (w_E,d + dp_d) + H D).
        """
        rho, vx, vy, p = self.primitives(u)
        H = (u[..., 3] + p) / rho
        g1, k = self.gamma - 1.0, 0.5 * (vx**2 + vy**2)
        wx, wy = w[..., 0], w[..., 1]
        dpx = g1 * (wx[..., 3] - vx * wx[..., 1] - vy * wx[..., 2] + k * wx[..., 0])
        dpy = g1 * (wy[..., 3] - vx * wy[..., 1] - vy * wy[..., 2] + k * wy[..., 0])
        D = wx[..., 1] - vx * wx[..., 0] + wy[..., 2] - vy * wy[..., 0]
        out = np.empty_like(wx)
        out[..., 0] = wx[..., 1] + wy[..., 2]
        out[..., 1] = vx * wx[..., 1] + vy * wy[..., 1] + vx * D + dpx
        out[..., 2] = vx * wx[..., 2] + vy * wy[..., 2] + vy * D + dpy
        out[..., 3] = vx * (wx[..., 3] + dpx) + vy * (wy[..., 3] + dpy) + H * D
        return out

    def flux_normal_split(self, u, n, side: int, xy=None):
        """Steger-Warming split flux f^+/-(u) . n (side = +1 or -1).

        Uses homogeneity of degree one of the Euler flux: f(u).n = A_n u, so
        the split flux is A_n^{+/-} u.  On u the acoustic projectors reduce
        to l0 . u = l3 . u = rho / (2 gamma), which gives the closed form

            A^{+/-} u = rho / (2 gamma) (2 (gamma - 1) f(un) (1, v, |v|^2 / 2)
                                         + f(un - c) r0 + f(un + c) r3),

        f(lam) = (lam +/- |lam|) / 2.  It skips the sums in l . u, whose
        terms grow with the squared Mach number and cancel.
        """
        g = self.gamma
        nn = _length(n)
        nx, ny = n[..., 0] / nn, n[..., 1] / nn
        rho, vx, vy, p = self.primitives(u)
        un = vx * nx + vy * ny
        with np.errstate(invalid="ignore"):
            c = np.sqrt(g * p / rho)
        H = (u[..., 3] + p) / rho
        lam = np.stack([un - c, un, un + c])
        f0, f1, f3 = 0.5 * (lam + side * np.abs(lam)) * (0.5 / g * rho * nn)
        w = 2.0 * (g - 1.0) * f1
        out = component_major(un.shape, 4)
        out[..., 0] = w + f0 + f3
        out[..., 1] = w * vx + f0 * (vx - c * nx) + f3 * (vx + c * nx)
        out[..., 2] = w * vy + f0 * (vy - c * ny) + f3 * (vy + c * ny)
        out[..., 3] = (
            w * 0.5 * (vx**2 + vy**2) + f0 * (H - c * un) + f3 * (H + c * un)
        )
        return out
