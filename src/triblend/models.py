"""Hyperbolic models: fluxes, directional Jacobians, wave speeds.

Every model exposes the same informal interface over arrays whose last axis
(or last two axes for matrices) carries the conserved variables:

    nvars                   -- number of conserved variables
    flux(u, xy)             -- (..., nvars, 2) flux tensor
    flux_normal(u, n, xy)   -- (..., nvars) normal flux f(u) . n
    jac_normal(u, n, xy)    -- (..., nvars, nvars) Jacobian of f . n
    sign_jac_normal(...)    -- matrix sign of the above
    max_wavespeed(u, n, xy) -- (...,) spectral bound for |n| = 1 scaling;
                               the value scales linearly with |n|
    static_signs            -- True when sign_jac_normal does not depend
                               on u, so callers may evaluate it once

`xy` carries physical coordinates for models with space-dependent flux;
models that do not need it ignore the argument.  Leading dimensions
broadcast everywhere.  A result that does not depend on the state, such as
the wave speed of a linear flux, has only the dimensions its inputs give
it: `jac_normal`, `sign_jac_normal` and `max_wavespeed` are broadcastable
against the leading dimensions of u, not materialized over them.

`llf_flux` is the local Lax-Friedrichs two-state flux over this interface,
shared by the low-order averages and the boundary closure.
"""

from __future__ import annotations

import numpy as np


def llf_flux(model, ul, ur, n, xy):
    """Local Lax-Friedrichs (Rusanov) flux from ul to ur across n: (..., nv)."""
    alpha = np.maximum(
        model.max_wavespeed(ul, n, xy), model.max_wavespeed(ur, n, xy)
    )
    central = 0.5 * (model.flux_normal(ul, n, xy) + model.flux_normal(ur, n, xy))
    return central - 0.5 * alpha[..., None] * (ur - ul)


# ---------------------------------------------------------------------------
# scalar models
# ---------------------------------------------------------------------------


class LinearAdvection:
    """u_t + div(a(x) u) = 0 with divergence-free velocity a."""

    nvars = 1
    static_signs = True

    def __init__(self, velocity):
        """velocity: (2,) constant or callable xy -> (..., 2)."""
        if callable(velocity):
            self._vel = velocity
        else:
            a = np.asarray(velocity, dtype=float)
            self._vel = lambda xy: np.broadcast_to(a, xy.shape[:-1] + (2,))

    def velocity_at(self, xy):
        return self._vel(np.asarray(xy))

    def flux(self, u, xy):
        a = self.velocity_at(xy)
        return u[..., :, None] * a[..., None, :]

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
        """sum_d A_d(u) w[..., d] for the gradient-like tensor w (..., 1, 2)."""
        a = self.velocity_at(xy)[..., None, :]
        return a[..., 0] * w[..., 0] + a[..., 1] * w[..., 1]


class KPP:
    """The rotating non-convex scalar flux f(u) = (sin u, cos u)."""

    nvars = 1
    static_signs = False

    def flux(self, u, xy=None):
        out = np.empty(u.shape + (2,))
        out[..., 0] = np.sin(u)
        out[..., 1] = np.cos(u)
        return out

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
        return np.linalg.norm(n, axis=-1)

    def jac_apply(self, u, w, xy=None):
        return np.cos(u) * w[..., 0] - np.sin(u) * w[..., 1]


# ---------------------------------------------------------------------------
# compressible Euler
# ---------------------------------------------------------------------------


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
    `jac_normal` and `sign_jac_normal` use this form, and
    `flux_normal_split` its closed-form action on u.
    Where f is equal on all three eigenvalues, as the sign at supersonic
    states, f(A) is exactly f(un) I.
    """

    nvars = 4
    static_signs = False

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

    def flux(self, u, xy=None):
        rho, vx, vy, p = self.primitives(u)
        out = np.empty(u.shape + (2,))
        out[..., 0, 0] = u[..., 1]
        out[..., 0, 1] = u[..., 2]
        out[..., 1, 0] = u[..., 1] * vx + p
        out[..., 1, 1] = u[..., 1] * vy
        out[..., 2, 0] = u[..., 2] * vx
        out[..., 2, 1] = u[..., 2] * vy + p
        out[..., 3, 0] = (u[..., 3] + p) * vx
        out[..., 3, 1] = (u[..., 3] + p) * vy
        return out

    def flux_normal(self, u, n, xy=None):
        rho, vx, vy, p = self.primitives(u)
        vn = vx * n[..., 0] + vy * n[..., 1]
        out = np.empty_like(u)
        out[..., 0] = rho * vn
        out[..., 1] = u[..., 1] * vn + p * n[..., 0]
        out[..., 2] = u[..., 2] * vn + p * n[..., 1]
        out[..., 3] = (u[..., 3] + p) * vn
        return out

    def max_wavespeed(self, u, n, xy=None):
        rho, vx, vy, p = self.primitives(u)
        nn = np.linalg.norm(n, axis=-1)
        vn = vx * n[..., 0] + vy * n[..., 1]
        return np.abs(vn) + np.sqrt(self.gamma * p / rho) * nn

    # -- eigenstructure in a unit direction ---------------------------------

    def _eig_rotated(self, u, n):
        """Eigen-data of d(f.n)/du for |n| = 1.

        Returns (lam, r, l): the eigenvalues (..., 4) = (un - c, un, un,
        un + c), and the eigenvectors of the simple eigenvalues un - c and
        un + c in conserved variables, right ones as the columns of r
        (..., 4, 2) and left ones as the rows of l (..., 2, 4), normalized
        so that l @ r = I.
        """
        g = self.gamma
        nx, ny = n[..., 0], n[..., 1]
        rho, vx, vy, p = self.primitives(u)
        un = vx * nx + vy * ny
        c = np.sqrt(g * p / rho)
        H = (u[..., 3] + p) / rho
        b1 = (g - 1.0) / c**2
        b2 = 0.5 * b1 * (vx**2 + vy**2)
        cx, cy, cn = c * nx, c * ny, c * un
        one = np.ones_like(un)
        r = np.stack(
            [one, one, vx - cx, vx + cx, vy - cy, vy + cy, H - cn, H + cn],
            axis=-1,
        ).reshape(u.shape[:-1] + (4, 2))
        ax, ay, an = nx / c, ny / c, un / c
        l = 0.5 * np.stack(
            [
                b2 + an, -(b1 * vx + ax), -(b1 * vy + ay), b1,
                b2 - an, -(b1 * vx - ax), -(b1 * vy - ay), b1,
            ],
            axis=-1,
        ).reshape(u.shape[:-1] + (2, 4))
        lam = np.stack([un - c, un, un, un + c], axis=-1)
        return lam, r, l

    def _apply_eig_function(self, u, n, fn):
        """Matrix function fn(lam) of d(f.n)/du for |n| = 1: (..., 4, 4)."""
        lam, r, l = self._eig_rotated(u, n)
        f = fn(lam)
        d = f[..., (0, 3)] - f[..., 1:2]  # acoustic projector weights
        M = (r * d[..., None, :]) @ l
        i = np.arange(4)
        M[..., i, i] += f[..., 1:2]  # + f(un) I
        return M

    def jac_normal(self, u, n, xy=None):
        nn = np.linalg.norm(n, axis=-1)
        nhat = n / nn[..., None]
        A = self._apply_eig_function(u, nhat, lambda lam: lam)
        return A * nn[..., None, None]

    def sign_jac_normal(self, u, n, xy=None):
        nn = np.linalg.norm(n, axis=-1)
        nhat = n / nn[..., None]

        def signfn(lam):
            # Eigenvalues within round-off of zero get sign 0 so that
            # stagnation and sonic points do not flip erratically between
            # +1 and -1; max(|un - c|, |un + c|) is the wave speed |un| + c.
            scale = np.maximum(np.abs(lam[..., 0]), np.abs(lam[..., 3]))
            s = np.sign(lam)
            s[np.abs(lam) <= 1e-12 * scale[..., None]] = 0.0
            return s

        return self._apply_eig_function(u, nhat, signfn)

    def jac_apply(self, u, w, xy=None):
        """A_x(u) w_x + A_y(u) w_y for gradient-like w (..., 4, 2)."""
        g = self.gamma
        rho, vx, vy, p = self.primitives(u)
        q2 = vx**2 + vy**2
        phi2 = 0.5 * (g - 1.0) * q2
        H = (u[..., 3] + p) / rho
        wx = w[..., 0]
        wy = w[..., 1]
        out = np.empty_like(wx)
        # x-direction Jacobian applied to wx
        out[..., 0] = wx[..., 1]
        out[..., 1] = (
            (phi2 - vx**2) * wx[..., 0]
            + (3.0 - g) * vx * wx[..., 1]
            - (g - 1.0) * vy * wx[..., 2]
            + (g - 1.0) * wx[..., 3]
        )
        out[..., 2] = -vx * vy * wx[..., 0] + vy * wx[..., 1] + vx * wx[..., 2]
        out[..., 3] = (
            vx * (phi2 - H) * wx[..., 0]
            + (H - (g - 1.0) * vx**2) * wx[..., 1]
            - (g - 1.0) * vx * vy * wx[..., 2]
            + g * vx * wx[..., 3]
        )
        # y-direction Jacobian applied to wy
        out[..., 0] += wy[..., 2]
        out[..., 1] += -vx * vy * wy[..., 0] + vy * wy[..., 1] + vx * wy[..., 2]
        out[..., 2] += (
            (phi2 - vy**2) * wy[..., 0]
            - (g - 1.0) * vx * wy[..., 1]
            + (3.0 - g) * vy * wy[..., 2]
            + (g - 1.0) * wy[..., 3]
        )
        out[..., 3] += (
            vy * (phi2 - H) * wy[..., 0]
            - (g - 1.0) * vx * vy * wy[..., 1]
            + (H - (g - 1.0) * vy**2) * wy[..., 2]
            + g * vy * wy[..., 3]
        )
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
        nn = np.linalg.norm(n, axis=-1)
        nx, ny = n[..., 0] / nn, n[..., 1] / nn
        rho, vx, vy, p = self.primitives(u)
        un = vx * nx + vy * ny
        c = np.sqrt(g * p / rho)
        H = (u[..., 3] + p) / rho
        lam = np.stack([un - c, un, un + c])
        f0, f1, f3 = 0.5 * (lam + side * np.abs(lam)) * (0.5 / g * rho * nn)
        w = 2.0 * (g - 1.0) * f1
        return np.stack(
            [
                w + f0 + f3,
                w * vx + f0 * (vx - c * nx) + f3 * (vx + c * nx),
                w * vy + f0 * (vy - c * ny) + f3 * (vy + c * ny),
                w * 0.5 * (vx**2 + vy**2) + f0 * (H - c * un) + f3 * (H + c * un),
            ],
            axis=-1,
        )
