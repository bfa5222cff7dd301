"""Model algebra: fluxes, Jacobians, matrix signs, split fluxes."""

import functools

import numpy as np
import pytest

from triblend.models import KPP, Euler, LinearAdvection, llf_flux

RNG = np.random.default_rng(42)


def random_euler_states(n, model):
    rho = 0.3 + 2.0 * RNG.random(n)
    vx = RNG.standard_normal(n)
    vy = RNG.standard_normal(n)
    p = 0.2 + 2.0 * RNG.random(n)
    return model.conserved(rho, vx, vy, p)


def random_unit_normals(n):
    ang = 2 * np.pi * RNG.random(n)
    return np.stack([np.cos(ang), np.sin(ang)], axis=-1)


# ---------------------------------------------------------------------------
# the normal flux of every model
# ---------------------------------------------------------------------------


def rotation(xy):
    return np.stack([0.5 - xy[..., 1], xy[..., 0] - 0.5], axis=-1)


MODELS = {
    "rotating": lambda: LinearAdvection(rotation),
    "constant": lambda: LinearAdvection(np.array([0.7, -1.3])),
    "kpp": KPP,
    "euler": Euler,
}


def random_states(m, shape):
    if m.nvars == 4:
        return random_euler_states(np.prod(shape), m).reshape(shape + (4,))
    return RNG.uniform(-2.0, 2.0, shape + (1,))


@pytest.mark.parametrize("which", MODELS)
def test_flux_normal_on_stacked_normals_is_each_normal(which):
    # The HO volume term asks for the normal fluxes along two normals in
    # one call: normals (2, 1, E, 2) against states (1, nq, E, nv) give
    # (2, nq, E, nv), bitwise the two calls along one normal each.
    m = MODELS[which]()
    nq, ne = 5, 7
    u = random_states(m, (1, nq, ne))
    n = 2.0 * RNG.standard_normal((2, 1, ne, 2))
    xy = RNG.random((nq, ne, 2))
    got = m.flux_normal(u, n, xy)
    assert got.shape == (2, nq, ne, m.nvars)
    for a in range(2):
        want = m.flux_normal(u[0], n[a], xy)
        assert want.shape == got.shape[1:]
        assert np.array_equal(got[a], want)


@pytest.mark.parametrize("which", MODELS)
def test_flux_normal_is_linear_in_the_normal(which):
    # f(u) . n = n_x f(u) . e_x + n_y f(u) . e_y for normals that are not
    # unit vectors: the flux tensor is the normal flux along e_x and e_y.
    m = MODELS[which]()
    u = random_states(m, (40,))
    n = RNG.standard_normal((40, 2)) * RNG.uniform(0.01, 5.0, (40, 1))
    xy = RNG.random((40, 2))
    fx, fy = (m.flux_normal(u, e, xy) for e in np.eye(2))
    want = n[:, :1] * fx + n[:, 1:] * fy
    scale = np.maximum(np.abs(n[:, :1] * fx), np.abs(n[:, 1:] * fy))
    assert np.all(np.abs(m.flux_normal(u, n, xy) - want) <= 1e-14 * scale.max())


# ---------------------------------------------------------------------------
# scalar models
# ---------------------------------------------------------------------------


def test_advection_constant_velocity():
    m = LinearAdvection(np.array([-1.0, -1.0]))
    xy = RNG.random((5, 2))
    u = RNG.random((5, 1))
    n = random_unit_normals(5)
    fn = m.flux_normal(u, n, xy)
    assert np.allclose(fn[:, 0], u[:, 0] * (-n[:, 0] - n[:, 1]), atol=1e-15)
    assert np.allclose(m.max_wavespeed(u, n, xy), np.abs(n.sum(axis=1)))


def test_advection_callable_velocity():
    def rot(xy):
        out = np.empty_like(xy)
        out[..., 0] = 2 * np.pi * (0.5 - xy[..., 1])
        out[..., 1] = 2 * np.pi * (xy[..., 0] - 0.5)
        return out

    m = LinearAdvection(rot)
    xy = np.array([[0.5, 0.75]])
    u = np.array([[2.0]])
    n = np.array([[1.0, 0.0]])
    # velocity there is (-pi/2, 0): f.n = -pi u
    assert m.flux_normal(u, n, xy)[0, 0] == pytest.approx(-np.pi, rel=1e-14)


@pytest.mark.parametrize(
    "velocity", [np.array([0.7, -1.3]), rotation], ids=["constant", "callable"]
)
def test_advection_matches_summed_forms_bitwise(velocity):
    # The component form a_x n_x + a_y n_y gives bitwise what the sum over
    # the xy axis gives.  The state-independent results keep only the
    # dimensions of n and xy, and broadcast against the leading dims of u.
    m = LinearAdvection(velocity)
    u = RNG.standard_normal((6, 5, 4, 1))
    n = RNG.standard_normal((6, 1, 4, 2))
    xy = RNG.random((6, 1, 1, 2))
    w = RNG.standard_normal((6, 5, 4, 1, 2))
    lead = np.broadcast_shapes(n.shape[:-1], xy.shape[:-1])
    a = m.velocity_at(xy)
    an = np.sum(a * n, axis=-1)
    jac = an[..., None, None] * np.ones_like(u[..., None])
    want = {
        "flux_normal": u * an[..., None],
        "jac_normal": jac,
        "sign_jac_normal": np.sign(jac),
        "max_wavespeed": np.abs(an) * np.ones(u.shape[:-1]),
    }
    shapes = {
        "flux_normal": u.shape,
        "jac_normal": lead + (1, 1),
        "sign_jac_normal": lead + (1, 1),
        "max_wavespeed": lead,
    }
    for name, ref in want.items():
        got = getattr(m, name)(u, n, xy)
        assert got.shape == shapes[name], name
        got = np.ascontiguousarray(np.broadcast_to(got, ref.shape))
        assert got.tobytes() == ref.tobytes(), name
    got = m.jac_apply(u, w, xy)
    ref = np.sum(a[..., None, :] * w, axis=-1)
    assert got.shape == ref.shape == u.shape
    assert got.tobytes() == ref.tobytes()


def test_llf_flux_of_a_linear_flux_takes_one_wave_speed(monkeypatch):
    # A linear flux has one wave speed for both states, so the flux asks
    # for it once and gives bitwise the two-speed formula, on the edge
    # layout of the low-order averages (states (E, 1), normals (E, 2)).
    m = LinearAdvection(rotation)
    ul, ur = RNG.standard_normal((2, 40, 1))
    n = random_unit_normals(40)
    xy = RNG.random((40, 2))
    alpha = np.maximum(m.max_wavespeed(ul, n, xy), m.max_wavespeed(ur, n, xy))
    fn = m.flux_normal(ul, n, xy) + m.flux_normal(ur, n, xy)
    want = 0.5 * fn - 0.5 * alpha[..., None] * (ur - ul)
    calls = []
    speed = m.max_wavespeed
    monkeypatch.setattr(m, "max_wavespeed", lambda *a: calls.append(1) or speed(*a))
    got = llf_flux(m, ul, ur, n, xy)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert len(calls) == 1


def test_kpp_wave_speed_broadcasts_against_u():
    u = RNG.random((5, 3, 1))
    n = random_unit_normals(5)[:, None, :] * 2.0
    speed = KPP().max_wavespeed(u, n)
    assert speed.shape == (5, 1)
    assert np.array_equal(speed, np.linalg.norm(n, axis=-1))


def test_kpp_jacobian_fd():
    m = KPP()
    u = RNG.random((40, 1)) * 7.0
    n = random_unit_normals(40)
    eps = 1e-7
    fd = (m.flux_normal(u + eps, n) - m.flux_normal(u - eps, n)) / (2 * eps)
    assert np.allclose(m.jac_normal(u, n)[..., 0], fd, atol=1e-8)
    assert np.all(np.abs(m.jac_normal(u, n)) <= 1.0 + 1e-14)
    assert np.allclose(m.max_wavespeed(u, n), 1.0)


# ---------------------------------------------------------------------------
# Euler
# ---------------------------------------------------------------------------


def jac_normal(m, u, n):
    """d(f . n)/du of the Euler flux (..., 4, 4): `Euler._matrix_function`
    of the identity, scaled by |n|."""
    A = m._matrix_function(u, n, lambda lam: lam)
    return A * np.hypot(n[..., 0], n[..., 1])[..., None, None]


def test_euler_conserved_roundtrip():
    m = Euler()
    u = random_euler_states(20, m)
    rho, vx, vy, p = m.primitives(u)
    assert np.allclose(m.conserved(rho, vx, vy, p), u, atol=1e-13)
    assert np.all(p > 0)


def test_euler_jacobian_fd():
    m = Euler()
    u = random_euler_states(10, m)
    n = random_unit_normals(10)
    A = jac_normal(m, u, n)
    fd = np.empty_like(A)
    eps = 1e-6
    for j in range(4):
        du = np.zeros(4)
        du[j] = eps
        fd[..., j] = (m.flux_normal(u + du, n) - m.flux_normal(u - du, n)) / (
            2 * eps
        )
    assert np.allclose(A, fd, rtol=1e-5, atol=1e-5)


def test_euler_flux_homogeneity():
    # Ideal-gas Euler flux is degree-1 homogeneous: f(u).n = A_n u.
    m = Euler()
    u = random_euler_states(30, m)
    n = random_unit_normals(30)
    An_u = np.einsum("...ij,...j->...i", jac_normal(m, u, n), u)
    assert np.allclose(An_u, m.flux_normal(u, n), rtol=1e-12, atol=1e-12)


def test_euler_eigenvalues():
    m = Euler()
    u = random_euler_states(15, m)
    n = random_unit_normals(15)
    A = jac_normal(m, u, n)
    got = np.sort(np.linalg.eigvals(A).real, axis=-1)
    _, vx, vy, _ = m.primitives(u)
    un = vx * n[:, 0] + vy * n[:, 1]
    c = m.sound_speed(u)
    want = np.sort(np.stack([un - c, un, un, un + c], axis=-1), axis=-1)
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9)


def test_euler_sign_matrix_properties():
    m = Euler()
    u = random_euler_states(20, m)
    n = random_unit_normals(20)
    S = m.sign_jac_normal(u, n)
    A = jac_normal(m, u, n)
    eye = np.broadcast_to(np.eye(4), S.shape)
    # S^2 = I away from sonic/stagnation degeneracy (generic random states).
    assert np.allclose(np.einsum("...ij,...jk->...ik", S, S), eye, atol=1e-9)
    # S commutes with A and S A has the spectrum |lambda|.
    SA = np.einsum("...ij,...jk->...ik", S, A)
    AS = np.einsum("...ij,...jk->...ik", A, S)
    assert np.allclose(SA, AS, atol=1e-9)
    got = np.sort(np.linalg.eigvals(SA).real, axis=-1)
    want = np.sort(np.abs(np.linalg.eigvals(A).real), axis=-1)
    assert np.allclose(got, want, rtol=1e-8, atol=1e-8)


def test_euler_sign_matrix_of_zero_sound_speed_is_quiet():
    # p = 0 gives c = 0: its sign matrix is not finite, with no
    # RuntimeWarning, and the other states keep theirs.
    m = Euler()
    u = m.conserved([1.0, 1.4], [0.5, 0.3], [0.0, 0.1], [0.0, 1.0])
    S = m.sign_jac_normal(u, np.array([[1.0, 0.0]]))
    assert np.isfinite(S).all(axis=(1, 2)).tolist() == [False, True]


def eig_rotated(m, u, n):
    """Eigen-data of d(f.n)/du for |n| = 1, as the library once built it.

    Returns (lam, r, l): the eigenvalues (..., 4) = (un - c, un, un, un + c),
    and the eigenvectors of the simple eigenvalues un - c and un + c in
    conserved variables, right ones as the columns of r (..., 4, 2) and left
    ones as the rows of l (..., 2, 4), normalized so that l @ r = I.
    """
    g = m.gamma
    nx, ny = n[..., 0], n[..., 1]
    rho, vx, vy, p = m.primitives(u)
    un = vx * nx + vy * ny
    c = np.sqrt(g * p / rho)
    H = (u[..., 3] + p) / rho
    b1 = (g - 1.0) / c**2
    b2 = 0.5 * b1 * (vx**2 + vy**2)
    cx, cy, cn = c * nx, c * ny, c * un
    one = np.ones_like(un)
    r = np.stack(
        [one, one, vx - cx, vx + cx, vy - cy, vy + cy, H - cn, H + cn], axis=-1
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


def nv_last_matrix_function(m, u, n, fn):
    """fn(d(f.n)/du / |n|) from the nv-last eigen-data as one batched
    (4, 2) @ (2, 4) product: the library's matrix functions before they
    were built entry by entry.  fn maps lam (..., 4) to its values."""
    nn = np.sqrt(n[..., 0] * n[..., 0] + n[..., 1] * n[..., 1])
    lam, r, l = eig_rotated(m, u, n / nn[..., None])
    f = fn(lam)
    d = f[..., (0, 3)] - f[..., 1:2]  # acoustic projector weights
    M = (r * d[..., None, :]) @ l
    M += f[..., 1:2, None] * np.eye(4)
    return M


def nv_last_sign(lam):
    scale = np.maximum(np.abs(lam[..., 0]), np.abs(lam[..., 3]))
    s = np.sign(lam)
    s[np.abs(lam) <= 1e-12 * scale[..., None]] = 0.0
    return s


def test_euler_sign_matrix_frozen():
    # Frozen from an independent finite-difference + dense-eig computation.
    m = Euler()
    u = m.conserved(1.3, 0.6, -0.4, 1.7)
    assert np.allclose(u, [1.3, 0.78, -0.52, 4.588], atol=1e-14)
    n = np.array([0.6, 0.8])
    lam, *_ = eig_rotated(m, u, n)
    assert np.allclose(
        np.sort(lam), [-1.31305921, 0.04, 0.04, 1.39305921], atol=1e-7
    )
    S = m.sign_jac_normal(u, n)
    want = np.array(
        [
            [0.91363064, 0.57453201, 0.50385781, -0.2184874],
            [0.0182961, 0.87829371, -0.10673498, 0.04628339],
            [0.12803803, -0.85171347, 0.25305732, 0.32389606],
            [-0.41308744, 2.74787211, 2.40985147, -0.04498167],
        ]
    )
    assert np.allclose(S, want, atol=1e-6)


def test_euler_jac_apply_matches_normal_jacobian():
    # Contracting the two coordinate Jacobians with w = n (x) v must agree
    # with the eigendecomposition-based normal Jacobian applied to v.
    m = Euler()
    u = random_euler_states(25, m)
    n = random_unit_normals(25)
    v = RNG.standard_normal((25, 4))
    w = v[..., None] * n[:, None, :]  # (25, 4, 2)
    got = m.jac_apply(u, w, None)
    want = np.einsum("...ij,...j->...i", jac_normal(m, u, n), v)
    assert np.allclose(got, want, rtol=1e-11, atol=1e-11)


def reference_jac_apply(m, u, w):
    """A_x(u) w_x + A_y(u) w_y with the 32 entries of A_x and A_y written
    out, as `Euler.jac_apply` had them before it derived them from `flux`."""
    g = m.gamma
    rho, vx, vy, p = m.primitives(u)
    q2 = vx**2 + vy**2
    phi2 = 0.5 * (g - 1.0) * q2
    H = (u[..., 3] + p) / rho
    wx = w[..., 0]
    wy = w[..., 1]
    out = np.empty_like(wx)
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


def test_euler_jac_apply_matches_the_expanded_jacobians():
    # In the component-major layout that `LowOrder.point_residuals` passes:
    # states (4, 6, NT) and gradients (4, 2, 6, NT) under nv-last views.
    m = Euler()
    shape = (6, 500)
    u = m.conserved(
        10.0 ** RNG.uniform(-2, 1, shape),
        3.0 * RNG.standard_normal(shape),
        3.0 * RNG.standard_normal(shape),
        10.0 ** RNG.uniform(-2, 2, shape),
    )
    u = np.moveaxis(np.ascontiguousarray(np.moveaxis(u, -1, 0)), 0, -1)
    w = RNG.standard_normal((4, 2) + shape) * 10.0 ** RNG.uniform(-2, 2, shape)
    w = np.moveaxis(w, (0, 1), (-2, -1))
    got = m.jac_apply(u, w)
    want = reference_jac_apply(m, u, w)
    scale = np.abs(want).max(axis=(0, 1))
    assert (np.abs(got - want).max(axis=(0, 1)) <= 1e-14 * scale).all()


def test_scalar_jac_apply():
    adv = LinearAdvection(np.array([2.0, -3.0]))
    xy = RNG.random((7, 2))
    u = RNG.random((7, 1))
    w = RNG.standard_normal((7, 1, 2))
    got = adv.jac_apply(u, w, xy)
    assert np.allclose(got[:, 0], 2 * w[:, 0, 0] - 3 * w[:, 0, 1])

    kpp = KPP()
    u = RNG.random((7, 1)) * 6
    got = kpp.jac_apply(u, w)
    want = np.cos(u[:, 0]) * w[:, 0, 0] - np.sin(u[:, 0]) * w[:, 0, 1]
    assert np.allclose(got[:, 0], want, atol=1e-14)


def test_euler_split_fluxes():
    m = Euler()
    u = random_euler_states(20, m)
    n = random_unit_normals(20) * (0.5 + RNG.random((20, 1)))
    fp = m.flux_normal_split(u, n, +1)
    fm = m.flux_normal_split(u, n, -1)
    assert np.allclose(fp + fm, m.flux_normal(u, n), rtol=1e-11, atol=1e-11)


def test_euler_split_fluxes_frozen():
    m = Euler()
    u = m.conserved(1.3, 0.6, -0.4, 1.7)
    n = np.array([0.6, 0.8])
    fp = m.flux_normal_split(u, n, +1)
    fm = m.flux_normal_split(u, n, -1)
    assert np.allclose(
        fp, [0.66163463, 0.92205773, 0.43544874, 3.16728096], atol=1e-6
    )
    assert np.allclose(
        fm, [-0.60963463, 0.12914227, 0.90375126, -2.91576096], atol=1e-6
    )


def test_euler_supersonic_split_degenerates():
    # Fully supersonic inflow: f^- carries the whole flux, f^+ nothing.
    m = Euler()
    u = m.conserved(1.4, -5.0, 0.0, 1.0)  # Mach 5 against the normal
    n = np.array([1.0, 0.0])
    assert np.allclose(m.flux_normal_split(u, n, +1), 0.0, atol=1e-12)
    assert np.allclose(
        m.flux_normal_split(u, n, -1), m.flux_normal(u, n), atol=1e-12
    )


def reference_matrix_function(m, u, n, fn):
    """fn(d(f.n)/du) for |n| = 1 as Tinv R diag(fn(lam, c)) L T.

    Independent of the library's eigenprojector form: R and L are the
    eigenvectors of the Jacobian in the frame rotated to (n, t), t = (-ny,
    nx), and T rotates momentum into that frame.
    """
    g = m.gamma
    nx, ny = n[..., 0], n[..., 1]
    rho, vx, vy, p = m.primitives(u)
    un = vx * nx + vy * ny
    ut = -vx * ny + vy * nx
    c = np.sqrt(g * p / rho)
    q2 = vx**2 + vy**2
    H = (u[..., 3] + p) / rho
    shape = u.shape[:-1]
    lam = np.stack([un - c, un, un, un + c], axis=-1)

    R = np.zeros(shape + (4, 4))
    R[..., 0, [0, 1, 3]] = 1.0
    R[..., 1, 0], R[..., 1, 1], R[..., 1, 3] = un - c, un, un + c
    R[..., 2, [0, 1, 3]] = ut[..., None]
    R[..., 2, 2] = 1.0
    R[..., 3, 0], R[..., 3, 1] = H - un * c, 0.5 * q2
    R[..., 3, 2], R[..., 3, 3] = ut, H + un * c

    b1 = (g - 1.0) / c**2
    b2 = 0.5 * b1 * q2
    L = np.zeros(shape + (4, 4))
    L[..., 0, 0] = 0.5 * (b2 + un / c)
    L[..., 0, 1] = -0.5 * (b1 * un + 1.0 / c)
    L[..., 0, 2] = -0.5 * b1 * ut
    L[..., 0, 3] = 0.5 * b1
    L[..., 1, 0] = 1.0 - b2
    L[..., 1, 1] = b1 * un
    L[..., 1, 2] = b1 * ut
    L[..., 1, 3] = -b1
    L[..., 2, 0] = -ut
    L[..., 2, 2] = 1.0
    L[..., 3, 0] = 0.5 * (b2 - un / c)
    L[..., 3, 1] = -0.5 * (b1 * un - 1.0 / c)
    L[..., 3, 2] = -0.5 * b1 * ut
    L[..., 3, 3] = 0.5 * b1

    T = np.zeros(shape + (4, 4))
    T[..., 0, 0] = T[..., 3, 3] = 1.0
    T[..., 1, 1], T[..., 1, 2] = nx, ny
    T[..., 2, 1], T[..., 2, 2] = -ny, nx
    Tinv = np.swapaxes(T, -1, -2)
    return Tinv @ R @ (fn(lam, c)[..., :, None] * L) @ T


def reference_sign(lam, c):
    s = np.sign(lam)
    scale = np.abs(lam[..., 1:2]) + c[..., None]
    s[np.abs(lam) <= 1e-12 * scale] = 0.0
    return s


def degenerate_euler_states(model):
    """Random states plus stagnation, sonic and supersonic ones, with unit
    normals: (u, n, label)."""
    k = 12
    n = random_unit_normals(5 * k)
    t = np.stack([-n[:, 1], n[:, 0]], axis=-1)
    rho = 0.3 + 2.0 * RNG.random(5 * k)
    p = 0.2 + 2.0 * RNG.random(5 * k)
    c = np.sqrt(model.gamma * p / rho)
    vt = RNG.standard_normal(5 * k)
    un = np.concatenate(
        [
            RNG.standard_normal(k),  # generic
            np.zeros(k),  # stagnation: un = 0
            c[2 * k : 3 * k] * np.sign(RNG.standard_normal(k)),  # sonic
            c[3 * k : 4 * k] * (1.5 + 3.0 * RNG.random(k)),  # supersonic out
            -c[4 * k :] * (1.5 + 3.0 * RNG.random(k)),  # supersonic in
        ]
    )
    v = un[:, None] * n + vt[:, None] * t
    u = model.conserved(rho, v[:, 0], v[:, 1], p)
    label = np.repeat(["generic", "stagnation", "sonic", "super+", "super-"], k)
    return u, n, label


def assert_matrices_close(got, want, tol=1e-12):
    scale = np.maximum(1.0, np.abs(want).max(axis=(-1, -2)))
    err = np.abs(got - want).max(axis=(-1, -2)) / scale
    assert err.max() <= tol, err.max()


def test_euler_matrix_functions_match_rotated_sandwich():
    m = Euler()
    u, n, label = degenerate_euler_states(m)
    S = m.sign_jac_normal(u, n)
    assert_matrices_close(S, reference_matrix_function(m, u, n, reference_sign))
    assert_matrices_close(
        jac_normal(m, u, n),
        reference_matrix_function(m, u, n, lambda lam, c: lam),
    )
    # Scaled normals: A_n scales with |n|, its sign does not.
    s = 0.5 + RNG.random((len(n), 1))
    assert_matrices_close(m.sign_jac_normal(u, s * n), S)
    assert_matrices_close(
        jac_normal(m, u, s * n), s[..., None] * jac_normal(m, u, n)
    )
    # The degenerate eigenvalues get sign 0; supersonic signs are +/- I.
    eye = np.eye(4)
    mag = np.sort(np.abs(np.linalg.eigvals(S).real), axis=-1)
    assert np.allclose(mag[label == "stagnation"], [0, 0, 1, 1], atol=1e-12)
    assert np.allclose(mag[label == "sonic"], [0, 1, 1, 1], atol=1e-12)
    assert np.array_equal(S[label == "super+"], np.broadcast_to(eye, (12, 4, 4)))
    assert np.array_equal(
        S[label == "super-"], np.broadcast_to(-eye, (12, 4, 4))
    )


@pytest.mark.parametrize("which", ["euler", "kpp", "advection"])
def test_sign_matrices_are_odd_in_the_normal_bit_for_bit(which):
    # S(u, -n) = -S(u, n) value for value, NaNs in the same places: the two
    # candidate weights at an interior edge midpoint then sum to a multiple
    # of the identity exactly, which the closed-form weights rest on.
    if which == "euler":
        m = Euler()
        u, n, _ = degenerate_euler_states(m)
        # Unit and non-unit normals; p = 0 (c = 0) and NaN states.
        n = np.concatenate([n, n * (0.5 + RNG.random((len(n), 1)))])
        u = np.concatenate([u, u])
        u[:4, 3] = 0.5 * (u[:4, 1] ** 2 + u[:4, 2] ** 2) / u[:4, 0]
        u[4:6] = np.nan
        xy = None
        want_bad = np.arange(len(u)) < 6
    else:
        u = RNG.uniform(-4.0, 4.0, (200, 1))
        n = random_unit_normals(200) * (0.5 + RNG.random((200, 1)))
        # Zero speeds: f'(0) . (0, 1) = 0 for KPP, and the rotation's
        # fixed point for advection; then a NaN state.
        u[0], n[0] = 0.0, (0.0, 1.0)
        u[1] = np.nan
        xy = RNG.uniform(0.0, 1.0, (200, 2))
        xy[0] = (0.5, 0.5)
        m = KPP() if which == "kpp" else LinearAdvection(rotation)
        # Advection's signs do not depend on the state.
        want_bad = (np.arange(len(u)) == 1) & (which == "kpp")
    with np.errstate(all="raise"):
        S = m.sign_jac_normal(u, n, xy)
        S_neg = m.sign_jac_normal(u, -n, xy)
    assert S.shape == (len(u), m.nvars, m.nvars)
    assert np.array_equal(S_neg, -S, equal_nan=True)
    assert np.array_equal(~np.isfinite(S).all(axis=(1, 2)), want_bad)
    if which != "euler":
        assert S[0, 0, 0] == 0.0


@pytest.mark.parametrize("side", [+1, -1])
def test_euler_split_flux_matches_rotated_sandwich(side):
    m = Euler()
    u, n, _ = degenerate_euler_states(m)
    s = 0.5 + RNG.random((len(n), 1))
    A = reference_matrix_function(
        m, u, n, lambda lam, c: 0.5 * (lam + side * np.abs(lam))
    )
    want = s * (A @ u[..., None])[..., 0]
    got = m.flux_normal_split(u, s * n, side)
    scale = np.maximum(1.0, np.abs(want).max(axis=-1))
    assert (np.abs(got - want).max(axis=-1) / scale).max() <= 1e-12


@pytest.mark.parametrize(
    "mach,post",
    [
        (10.0, (8.0, 8.25, 116.5)),
        (2.4, (4.496654275092937, 1.6527777777777777, 6.553333333333334)),
    ],
)
def test_normal_shock_states(mach, post):
    # Rankine-Hugoniot check for the moving-shock initial data used by the
    # ramp-reflection and diffraction benchmarks (quiescent rho=1.4, p=1).
    m = Euler()
    s = mach  # shock speed: Mach number times unit sound speed ahead
    u1 = m.conserved(1.4, 0.0, 0.0, 1.0)
    rho2, v2, p2 = post
    u2 = m.conserved(rho2, v2, 0.0, p2)
    n = np.array([1.0, 0.0])
    jump = m.flux_normal(u2, n) - m.flux_normal(u1, n) - s * (u2 - u1)
    assert np.allclose(jump, 0.0, atol=1e-10)


def test_euler_matrix_functions_match_nv_last_builder():
    # The entry-by-entry builder agrees with the batched nv-last product to
    # 1e-13 relative on generic, stagnation, sonic and supersonic states
    # (a sign zeroed on one side only would differ by 1); on component-major views
    # (element axis innermost) as on plain arrays; and on a single state.
    m = Euler()
    u, n, _ = degenerate_euler_states(m)
    n = n * (0.5 + RNG.random((len(n), 1)))
    u_cm = np.ascontiguousarray(u.T).T  # same values, variables outermost
    n_cm = np.ascontiguousarray(n.T).T
    nn = np.linalg.norm(n, axis=-1)[..., None, None]
    cases = (
        (m.sign_jac_normal, nv_last_matrix_function(m, u, n, nv_last_sign)),
        (
            functools.partial(jac_normal, m),
            nn * nv_last_matrix_function(m, u, n, lambda lam: lam),
        ),
    )
    for op, want in cases:
        for uu, nn_ in ((u, n), (u_cm, n_cm)):
            got = op(uu, nn_)
            assert got.shape == want.shape
            assert_matrices_close(got, want, tol=1e-13)
        single = op(u[0], n[0])
        assert single.shape == (4, 4)
        assert_matrices_close(single[None], want[:1], tol=1e-13)
