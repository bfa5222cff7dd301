"""Element basis: point/average interpolation, duality, frozen values."""

from fractions import Fraction

import numpy as np
import pytest

from triblend.basis import (
    POINT_DOF_BARY,
    basis_grad_bary,
    basis_hess_bary,
    basis_values,
    projection_matrix,
)
from triblend.quadrature import triangle_rule

RNG = np.random.default_rng(20240817)

# Positive quadrature over the seven interpolation points (three vertices,
# three edge midpoints, centroid) that reproduces the cell average exactly
# for every function in the local space.  Because all weights are positive,
# the average is a convex combination of these seven point values -- the
# hinge of the bound-preservation argument for averages.
AVG_POINT_WEIGHTS = np.array(
    [1 / 20, 1 / 20, 1 / 20, 2 / 15, 2 / 15, 2 / 15, 9 / 20]
)

# Shape-function values at the centroid.
CENTROID_VALUES = np.array(
    [-1 / 9, -1 / 9, -1 / 9, -8 / 27, -8 / 27, -8 / 27, 20 / 9]
)


def projection_matrix_fractions():
    """Exact rational entries of P, recovered from its doubles."""
    return [
        [Fraction(x).limit_denominator(1000) for x in row]
        for row in projection_matrix()
    ]


def dual_values(lam):
    """The dual functions theta_j = sum_k P_jk phi_k: (..., 7)."""
    return basis_values(lam) @ projection_matrix().T


def mass_matrix_unit():
    """(1/area) * integral of phi_j phi_k by a degree-6 rule (exact)."""
    rule = triangle_rule(6)
    vals = basis_values(rule.points)  # (nq, 7)
    return np.einsum("q,qj,qk->jk", rule.weights, vals, vals)


def random_bary(n):
    lam = RNG.random((n, 3))
    return lam / lam.sum(axis=1, keepdims=True)


def test_point_dof_interpolation():
    # phi_j at point DoF k equals delta_jk (for j, k < 6); bubble vanishes.
    vals = basis_values(POINT_DOF_BARY)  # (6, 7)
    assert np.allclose(vals[:, :6], np.eye(6), atol=1e-15)
    assert np.allclose(vals[:, 6], 0.0, atol=1e-15)


def test_averages():
    # Averages of the six point functions vanish; the bubble has average 1.
    rule = triangle_rule(6)
    avg = rule.weights @ basis_values(rule.points)
    assert np.allclose(avg[:6], 0.0, atol=1e-14)
    assert avg[6] == pytest.approx(1.0, abs=1e-14)


def test_partition_of_unity():
    # Constant 1 has all-ones coefficients: sum of shapes is 1 everywhere.
    lam = random_bary(50)
    assert np.allclose(basis_values(lam).sum(axis=-1), 1.0, atol=1e-13)


def test_frozen_point_values():
    # Two points, exact rational values computed independently (sympy).
    got = basis_values(np.array([0.5, 0.2, 0.3]))
    want = np.array([0, -3 / 25, -3 / 25, -1 / 5, -9 / 25, 0, 9 / 5])
    assert np.allclose(got, want, atol=1e-15)

    got = basis_values(np.array([1 / 7, 2 / 7, 4 / 7]))
    want = np.array(
        [-5 / 49, -6 / 49, 4 / 49, -104 / 343, 64 / 343, -48 / 343, 480 / 343]
    )
    assert np.allclose(got, want, atol=2e-15)


def test_edge_trace_locality():
    # On the edge lam3 = 0 only the DoFs of that edge (0, 1, 3) act.
    coef = RNG.standard_normal(7)
    t = RNG.random(8)
    lam = np.stack([1 - t, t, np.zeros_like(t)], axis=1)
    vals = basis_values(lam)
    full = vals @ coef
    masked = coef.copy()
    masked[[2, 4, 5, 6]] = 0.0
    assert np.allclose(full, vals @ masked, atol=1e-14)


def test_projection_matrix_rationals():
    # The printed rational entries, spot-checked plus full symmetry.
    F = Fraction
    P = projection_matrix_fractions()
    # Each double of P is the nearest one to its rational entry.
    assert np.array_equal(
        projection_matrix(), [[float(x) for x in row] for row in P]
    )
    assert P[0][:3] == [F(140, 3), F(50, 3), F(50, 3)]
    assert P[0][3:] == [F(-65, 6), F(-10, 3), F(-65, 6), F(1)]
    assert P[3][:3] == [F(-65, 6), F(-65, 6), F(-10, 3)]
    assert P[3][3:] == [F(215, 12), F(115, 24), F(115, 24), F(1)]
    assert P[6] == [F(1)] * 7
    # Symmetry of the bilinear form: P is symmetric up to the DoF scaling...
    # P itself is symmetric because the mass matrix is.
    for j in range(7):
        for k in range(7):
            assert P[j][k] == P[k][j]


def test_projection_inverts_mass_matrix():
    P = projection_matrix()
    M = mass_matrix_unit()
    assert np.allclose(P @ M, np.eye(7), atol=1e-12)


def test_duality_by_quadrature():
    # (1/area) integral theta_j phi_k = delta_jk.
    rule = triangle_rule(6)
    th = dual_values(rule.points)
    ph = basis_values(rule.points)
    gram = np.einsum("q,qj,qk->jk", rule.weights, th, ph)
    assert np.allclose(gram, np.eye(7), atol=1e-12)


def test_dual_of_average_is_one():
    lam = random_bary(40)
    assert np.allclose(dual_values(lam)[:, 6], 1.0, atol=1e-12)


def test_first_dual_function_explicit():
    # theta for the first vertex DoF, written out as a polynomial.
    lam = random_bary(40)
    l1, l2, l3 = lam[:, 0], lam[:, 1], lam[:, 2]
    explicit = (
        140 * l1 * (2 * l1 - 1) / 3
        + 50 * l2 * (2 * l2 - 1) / 3
        + 50 * l3 * (2 * l3 - 1) / 3
        + 560 * l1 * l2 * l3
        - 130 * l1 * l2 / 3
        - 40 * l2 * l3 / 3
        - 130 * l3 * l1 / 3
    )
    assert np.allclose(dual_values(lam)[:, 0], explicit, atol=1e-11)


def test_centroid_values():
    got = basis_values(np.array([1, 1, 1]) / 3.0)
    assert np.allclose(got, CENTROID_VALUES, atol=1e-15)


def test_average_point_quadrature():
    # Positive 7-point rule (vertices, midpoints, centroid) returning the
    # exact average for every member of the space.
    assert np.all(AVG_POINT_WEIGHTS > 0)
    assert AVG_POINT_WEIGHTS.sum() == pytest.approx(1.0, abs=1e-15)
    coef = RNG.standard_normal((5, 7))
    pts = np.vstack([POINT_DOF_BARY, np.full((1, 3), 1 / 3)])  # (7, 3)
    point_vals = coef @ basis_values(pts).T  # (5, 7) values at the 7 points
    avg = point_vals @ AVG_POINT_WEIGHTS
    assert np.allclose(avg, coef[:, 6], atol=1e-13)


def test_gradients_fd():
    lam = random_bary(6)
    g = basis_grad_bary(lam)
    eps = 1e-6
    for m in range(3):
        lp, lm_ = lam.copy(), lam.copy()
        lp[:, m] += eps
        lm_[:, m] -= eps
        fd = (basis_values(lp) - basis_values(lm_)) / (2 * eps)
        assert np.allclose(g[..., m], fd, atol=5e-9)


def test_hessians_fd():
    lam = random_bary(6)
    h = basis_hess_bary(lam)
    eps = 1e-5
    for m in range(3):
        lp, lm_ = lam.copy(), lam.copy()
        lp[:, m] += eps
        lm_[:, m] -= eps
        fd = (basis_grad_bary(lp) - basis_grad_bary(lm_)) / (2 * eps)
        assert np.allclose(h[..., m], fd, atol=1e-7)
