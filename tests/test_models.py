import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinloop.models import (
    KtParams,
    LmgParams,
    PoleSingularity,
    kt_jacobian,
    kt_step,
    lmg_derivatives,
    lmg_energy,
    lmg_fixed_points,
    lmg_flow,
)
from spinloop.spin_core import SphericalAngles, SpinVector, X_HAT, from_angles, rotate

unit_vectors = st.tuples(
    st.floats(0.0, math.pi), st.floats(-math.pi, math.pi - 1e-9)
).map(lambda a: from_angles(SphericalAngles(*a)))


def test_params_split():
    p = LmgParams(s=0.3, lambda_=10.0)
    assert p.alpha_lin == pytest.approx(7.0)
    assert p.k_nl == pytest.approx(3.0)
    with pytest.raises(ValueError):
        LmgParams(s=1.5, lambda_=1.0)


def test_fixed_points_below_bifurcation():
    pts = lmg_fixed_points(0.4)
    assert len(pts) == 2
    assert all(abs(p.location.z) < 1e-15 for p in pts)


def test_fixed_points_broken_pair():
    # oracle: sin(theta) = (1-s)/s, Z = +-sqrt(1 - ((1-s)/s)^2)
    s = 0.7
    z_star = math.sqrt(1.0 - ((1.0 - s) / s) ** 2)
    pts = lmg_fixed_points(s)
    zs = sorted(p.location.z for p in pts)
    assert zs[0] == pytest.approx(-z_star, abs=1e-12)
    assert zs[-1] == pytest.approx(z_star, abs=1e-12)
    assert pts[0].location == X_HAT and pts[0].stability == "unstable"


@given(unit_vectors, st.floats(0.0, 1.0), st.floats(0.1, 100.0))
def test_flow_conserves_energy_instantaneously(v, s, lam):
    # dE/dt = grad E . dv/dt should vanish identically
    p = LmgParams(s=s, lambda_=lam)
    dv = lmg_flow(v.as_tuple(), p)
    grad = (-(1.0 - s), 0.0, -s * v.z)
    assert abs(sum(g * d for g, d in zip(grad, dv))) < 1e-9 * lam


@given(
    st.floats(0.2, math.pi - 0.2),
    st.floats(-math.pi, math.pi - 1e-9),
    st.floats(0.05, 0.95),
)
def test_angle_and_cartesian_forms_agree(theta, phi, s):
    p = LmgParams(s=s, lambda_=3.0)
    a = SphericalAngles(theta, phi)
    dtheta, dphi = lmg_derivatives(a, p)
    v = from_angles(a)
    dx, dy, dz = lmg_flow(v.as_tuple(), p)
    st_, ct = math.sin(theta), math.cos(theta)
    # chain rule: z = cos(theta), x = sin(theta) cos(phi)
    assert dz == pytest.approx(-st_ * dtheta, abs=1e-9)
    dx_pred = ct * math.cos(phi) * dtheta - st_ * math.sin(phi) * dphi
    assert dx == pytest.approx(dx_pred, abs=1e-9)


def test_derivatives_pole_singularity():
    with pytest.raises(PoleSingularity):
        lmg_derivatives(SphericalAngles(0.0, 0.0), LmgParams(s=0.5, lambda_=1.0))


def test_energy_values():
    p = LmgParams(s=0.7, lambda_=1.0)
    assert lmg_energy(X_HAT, p) == pytest.approx(-0.3)
    assert lmg_energy(SpinVector(0.0, 0.0, 1.0), p) == pytest.approx(-0.35)


def test_kt_step_zero_kick_is_linear_rotation():
    p = KtParams(alpha=0.8, k=0.0)
    for v in (X_HAT, SpinVector(0.1, 0.7, 0.7).normalized()):
        got = kt_step(v, p)
        want = rotate(v, X_HAT, 0.8)
        assert abs(got.x - want.x) < 1e-12
        assert abs(got.y - want.y) < 1e-12
        assert abs(got.z - want.z) < 1e-12


@given(unit_vectors, st.floats(0.0, 2 * math.pi), st.floats(0.0, 30.0))
def test_kt_step_preserves_norm(v, alpha, k):
    assert abs(kt_step(v, KtParams(alpha, k)).norm() - 1.0) < 1e-12


def test_kt_step_decomposition():
    # linear rotation about x, then a z kick through k * Z'
    p = KtParams(alpha=1.1, k=2.5)
    v = SpinVector(0.3, -0.5, 0.8).normalized()
    u = rotate(v, X_HAT, p.alpha)
    w = rotate(u, SpinVector(0.0, 0.0, 1.0), -p.k * u.z)
    got = kt_step(v, p)
    assert abs(got.x - w.x) < 1e-12
    assert abs(got.y - w.y) < 1e-12
    assert abs(got.z - w.z) < 1e-12


@given(unit_vectors, st.floats(0.0, 2 * math.pi), st.floats(0.0, 10.0))
def test_kt_jacobian_unit_determinant(v, alpha, k):
    det = float(np.linalg.det(kt_jacobian(v, KtParams(alpha, k))))
    assert det == pytest.approx(1.0, abs=1e-9)


def test_kt_jacobian_matches_finite_differences():
    from spinloop.models import _tangent_basis

    p = KtParams(alpha=math.pi / 2.0, k=3.0)
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        v = SpinVector(*n)
        e1, e2 = _tangent_basis(v)
        f1, f2 = _tangent_basis(kt_step(v, p))
        h = 1e-7
        cols = []
        for e in (e1, e2):
            vp = np.array(v.as_tuple()) + h * e
            vm = np.array(v.as_tuple()) - h * e
            fp = kt_step(SpinVector(*(vp / np.linalg.norm(vp))), p)
            fm = kt_step(SpinVector(*(vm / np.linalg.norm(vm))), p)
            d = (np.array(fp.as_tuple()) - np.array(fm.as_tuple())) / (2 * h)
            cols.append([f1 @ d, f2 @ d])
        fd = np.array(cols).T
        assert np.allclose(kt_jacobian(v, p), fd, atol=1e-5)


def _np_cross_basis(v):
    # the np.cross form the written-out basis must equal bit for bit
    n = np.array(v.as_tuple())
    seed = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(seed, n)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(n, e1)


def test_tangent_basis_matches_np_cross():
    from spinloop.models import _tangent_basis

    rng = np.random.default_rng(5)
    vs = rng.standard_normal((2000, 3))
    vs /= np.linalg.norm(vs, axis=1)[:, None]
    # both seed branches, and the axes whose products carry signed zeros
    axes = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (0.0, -1.0, 0.0),
            (-0.0, 0.0, -1.0)]
    for n in [*vs.tolist(), *axes]:
        v = SpinVector(*n)
        got = _tangent_basis(v)
        want = _np_cross_basis(v)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), n
