"""Quadrature rules on the reference triangle and on edges.

Triangle rules are expressed in barycentric coordinates with weights that
sum to one, so that

    integral_T f dA  ~=  area(T) * sum_i w_i * f(lambda_i)

Every triangle rule is a Duffy-collapsed tensor Gauss rule with strictly
positive weights: the square (u, v) in [0,1]^2 maps to the triangle via
x = u, y = v*(1-u) with Jacobian (1-u).  An n x n Gauss grid integrates
total degree d exactly whenever 2*n - 1 >= d + 1 (the collapse raises the
u-degree by one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss


@dataclass(frozen=True)
class TriangleRule:
    """Positive-weight quadrature rule on the unit-area reference triangle.

    points: (n, 3) barycentric coordinates; weights: (n,) summing to 1.
    """

    degree: int
    points: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class EdgeRule:
    """Gauss rule on the unit interval [0, 1]; weights sum to 1."""

    degree: int
    points: np.ndarray
    weights: np.ndarray


def _rule_duffy(n: int) -> TriangleRule:
    """Collapsed n x n Gauss rule; exact for total degree 2*n - 2."""
    x, wx = leggauss(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * wx
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(wu, wu) * (1.0 - uu)  # Duffy Jacobian
    lam2 = uu.ravel()
    lam3 = (vv * (1.0 - uu)).ravel()
    lam1 = 1.0 - lam2 - lam3
    pts = np.stack([lam1, lam2, lam3], axis=1)
    w = 2.0 * ww.ravel()  # reference simplex area is 1/2
    return TriangleRule(2 * n - 2, pts, w)


def triangle_rule(degree: int) -> TriangleRule:
    """Return a positive-weight rule exact for polynomials of total `degree`."""
    n = (degree + 3) // 2  # smallest n with 2n - 2 >= degree
    return _rule_duffy(n)


def edge_rule(npoints: int = 3) -> EdgeRule:
    """Gauss-Legendre rule on [0, 1]; exact for degree 2*npoints - 1."""
    x, w = leggauss(npoints)
    return EdgeRule(2 * npoints - 1, 0.5 * (x + 1.0), 0.5 * w)
