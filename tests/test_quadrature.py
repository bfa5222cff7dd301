"""Triangle and edge quadrature: exactness against closed-form moments."""

import math

import numpy as np
import pytest

from triblend.quadrature import edge_rule, triangle_rule


def simplex_moment(a, b, c):
    """Exact unit-area integral of lambda1^a lambda2^b lambda3^c."""
    return (
        2.0
        * math.factorial(a)
        * math.factorial(b)
        * math.factorial(c)
        / math.factorial(a + b + c + 2)
    )


def rule_moment(rule, a, b, c):
    lam = rule.points
    vals = lam[:, 0] ** a * lam[:, 1] ** b * lam[:, 2] ** c
    return float(rule.weights @ vals)


@pytest.mark.parametrize("degree", [2, 4, 5, 6, 8])
def test_triangle_rule_exactness(degree):
    rule = triangle_rule(degree)
    assert rule.degree >= degree
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            for c in range(degree + 1 - a - b):
                got = rule_moment(rule, a, b, c)
                want = simplex_moment(a, b, c)
                assert got == pytest.approx(want, rel=1e-13, abs=1e-15), (
                    degree,
                    a,
                    b,
                    c,
                )


def test_frozen_moment_values():
    # Independently derived from the Dirichlet integral formula.
    assert simplex_moment(2, 2, 2) == pytest.approx(1 / 2520, rel=1e-15)
    assert simplex_moment(4, 1, 1) == pytest.approx(1 / 840, rel=1e-15)
    assert simplex_moment(6, 0, 0) == pytest.approx(1 / 28, rel=1e-15)
    assert simplex_moment(3, 2, 1) == pytest.approx(1 / 1680, rel=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_edge_rule_exactness(n):
    rule = edge_rule(n)
    assert np.all(rule.weights > 0)
    for d in range(rule.degree + 1):
        got = float(rule.weights @ rule.points**d)
        assert got == pytest.approx(1.0 / (d + 1), rel=1e-13)


def test_edge_rule_default_degree():
    assert edge_rule(3).degree == 5
