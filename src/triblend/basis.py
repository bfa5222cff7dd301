"""Local finite-element space on a triangle: P2 plus a cubic bubble.

Local degrees of freedom (always in this order):

    0, 1, 2  -- values at the three vertices
    3, 4, 5  -- values at the edge midpoints; midpoint k lies on the edge
                joining vertices k and (k+1) % 3
    6        -- the cell average

The seven shape functions are arranged so that the coefficient vector of an
element polynomial *is* its DoF vector: the first six vanish on averaging
and take the value delta_jk at the six points, and the bubble

    phi_bar = 60 * l1 * l2 * l3

has unit average and vanishes at all six points.  Vertex functions are the
usual quadratic ones, l_k (2 l_k - 1); midpoint functions are
4 l_k l_{k+1} - phi_bar / 3.

The restriction of the polynomial to an edge depends only on the three DoFs
living on that edge (the bubble vanishes there), which is what makes the
point values globally single-valued on conforming meshes.

`projection_matrix` returns the change of basis P such that theta = P @ phi
is dual to the DoF functionals under the L2 pairing:

    (1/area) * integral_T theta_j phi_k dA = delta_jk.

P is the same for every triangle and is rational; it is entered here from
exact fractions.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Barycentric coordinates of the six point DoFs.
POINT_DOF_BARY = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.5, 0.5, 0.0],
        [0.0, 0.5, 0.5],
        [0.5, 0.0, 0.5],
    ]
)

def basis_values(lam: np.ndarray) -> np.ndarray:
    """Evaluate the seven shape functions.

    lam: (..., 3) barycentric coordinates; returns (..., 7).
    """
    lam = np.asarray(lam, dtype=float)
    l1, l2, l3 = lam[..., 0], lam[..., 1], lam[..., 2]
    bubble = 60.0 * l1 * l2 * l3
    out = np.empty(lam.shape[:-1] + (7,))
    out[..., 0] = l1 * (2.0 * l1 - 1.0)
    out[..., 1] = l2 * (2.0 * l2 - 1.0)
    out[..., 2] = l3 * (2.0 * l3 - 1.0)
    out[..., 3] = 4.0 * l1 * l2 - bubble / 3.0
    out[..., 4] = 4.0 * l2 * l3 - bubble / 3.0
    out[..., 5] = 4.0 * l3 * l1 - bubble / 3.0
    out[..., 6] = bubble
    return out


def basis_grad_bary(lam: np.ndarray) -> np.ndarray:
    """Gradients with respect to the three barycentric coordinates.

    lam: (..., 3); returns (..., 7, 3) with entry [.., j, m] = d phi_j / d l_m.
    Physical gradients follow by contracting with grad(lambda_m).
    """
    lam = np.asarray(lam, dtype=float)
    l1, l2, l3 = lam[..., 0], lam[..., 1], lam[..., 2]
    z = np.zeros_like(l1)
    g = np.empty(lam.shape[:-1] + (7, 3))
    # d(60 l1 l2 l3)
    gb1, gb2, gb3 = 60.0 * l2 * l3, 60.0 * l1 * l3, 60.0 * l1 * l2
    g[..., 0, :] = np.stack([4.0 * l1 - 1.0, z, z], axis=-1)
    g[..., 1, :] = np.stack([z, 4.0 * l2 - 1.0, z], axis=-1)
    g[..., 2, :] = np.stack([z, z, 4.0 * l3 - 1.0], axis=-1)
    g[..., 3, :] = np.stack(
        [4.0 * l2 - gb1 / 3.0, 4.0 * l1 - gb2 / 3.0, -gb3 / 3.0], axis=-1
    )
    g[..., 4, :] = np.stack(
        [-gb1 / 3.0, 4.0 * l3 - gb2 / 3.0, 4.0 * l2 - gb3 / 3.0], axis=-1
    )
    g[..., 5, :] = np.stack(
        [4.0 * l3 - gb1 / 3.0, -gb2 / 3.0, 4.0 * l1 - gb3 / 3.0], axis=-1
    )
    g[..., 6, :] = np.stack([gb1, gb2, gb3], axis=-1)
    return g


def basis_hess_bary(lam: np.ndarray) -> np.ndarray:
    """Second derivatives w.r.t. barycentric coordinates: (..., 7, 3, 3)."""
    lam = np.asarray(lam, dtype=float)
    l1, l2, l3 = lam[..., 0], lam[..., 1], lam[..., 2]
    h = np.zeros(lam.shape[:-1] + (7, 3, 3))
    h[..., 0, 0, 0] = 4.0
    h[..., 1, 1, 1] = 4.0
    h[..., 2, 2, 2] = 4.0
    # Hessian of the bubble (symmetric, zero diagonal).
    hb = np.zeros(lam.shape[:-1] + (3, 3))
    hb[..., 0, 1] = hb[..., 1, 0] = 60.0 * l3
    hb[..., 0, 2] = hb[..., 2, 0] = 60.0 * l2
    hb[..., 1, 2] = hb[..., 2, 1] = 60.0 * l1
    for k in range(3):
        h[..., 3 + k, :, :] = -hb / 3.0
    h[..., 3, 0, 1] += 4.0
    h[..., 3, 1, 0] += 4.0
    h[..., 4, 1, 2] += 4.0
    h[..., 4, 2, 1] += 4.0
    h[..., 5, 2, 0] += 4.0
    h[..., 5, 0, 2] += 4.0
    h[..., 6, :, :] = hb
    return h


def projection_matrix() -> np.ndarray:
    """The 7x7 dual-basis matrix P (element independent, rational)."""
    F = Fraction
    r_vertex = [
        F(140, 3), F(50, 3), F(50, 3),
        F(-65, 6), F(-10, 3), F(-65, 6),
        F(1),
    ]
    r_mid = [
        F(-65, 6), F(-65, 6), F(-10, 3),
        F(215, 12), F(115, 24), F(115, 24),
        F(1),
    ]

    def cyc(row: list[Fraction], k: int) -> list[Fraction]:
        v = row[:3]
        m = row[3:6]
        return (
            [v[(j - k) % 3] for j in range(3)]
            + [m[(j - k) % 3] for j in range(3)]
            + [row[6]]
        )

    rows = [cyc(r_vertex, k) for k in range(3)]
    rows += [cyc(r_mid, k) for k in range(3)]
    rows.append([F(1)] * 7)
    return np.array([[float(x) for x in row] for row in rows])
