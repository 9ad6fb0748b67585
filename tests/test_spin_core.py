import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinloop.spin_core import (
    NO_NOISE,
    RotationNoise,
    SphericalAngles,
    SpinVector,
    X_HAT,
    Y_HAT,
    Z_HAT,
    draw_shot_noise,
    from_angles,
    larmor_precess,
    noisy_rotate,
    rotate,
    to_angles,
)

angles = st.floats(-10.0, 10.0, allow_nan=False)
unit_vectors = st.tuples(
    st.floats(0.0, math.pi), st.floats(-math.pi, math.pi - 1e-9)
).map(lambda a: from_angles(SphericalAngles(*a)))


def vclose(a, b, tol=1e-12):
    return max(abs(a.x - b.x), abs(a.y - b.y), abs(a.z - b.z)) < tol


def test_sign_convention_pins():
    # the one identity everything else in the package hangs off
    assert vclose(rotate(Z_HAT, X_HAT, math.pi / 2.0), Y_HAT)
    assert vclose(rotate(X_HAT, Z_HAT, math.pi / 2.0), SpinVector(0.0, -1.0, 0.0))
    assert vclose(rotate(Y_HAT, X_HAT, math.pi / 2.0), SpinVector(0.0, 0.0, -1.0))


def test_rotate_rejects_bad_axis():
    with pytest.raises(ValueError):
        rotate(Z_HAT, SpinVector(0.5, 0.0, 0.0), 1.0)


@given(unit_vectors, unit_vectors, angles)
def test_rotate_preserves_norm(v, axis, theta):
    assert abs(rotate(v, axis, theta).norm() - 1.0) < 1e-12


@given(unit_vectors, unit_vectors, angles)
def test_rotate_inverse(v, axis, theta):
    assert vclose(rotate(rotate(v, axis, theta), axis, -theta), v, 1e-10)


@given(unit_vectors, unit_vectors, angles, angles)
def test_rotate_same_axis_composes(v, axis, a, b):
    lhs = rotate(rotate(v, axis, a), axis, b)
    assert vclose(lhs, rotate(v, axis, a + b), 1e-9)


@given(unit_vectors, angles)
def test_rotate_fixes_axis(axis, theta):
    assert vclose(rotate(axis, axis, theta), axis, 1e-12)


@given(st.floats(1e-6, math.pi - 1e-6), st.floats(-math.pi, math.pi - 1e-6))
def test_angle_round_trip(theta, phi):
    a = to_angles(from_angles(SphericalAngles(theta, phi)))
    assert abs(a.theta - theta) < 1e-9
    assert abs(math.remainder(a.phi - phi, 2.0 * math.pi)) < 1e-9


def test_to_angles_at_pole():
    a = to_angles(Z_HAT)
    assert a.theta == 0.0 and a.phi == 0.0


def test_larmor_precess():
    v = larmor_precess(X_HAT, 2.0 * math.pi * 1e3, 0.25e-3)
    assert vclose(v, SpinVector(0.0, -1.0, 0.0), 1e-9)
    with pytest.raises(ValueError):
        larmor_precess(X_HAT, 1.0, -1.0)


def test_noisy_rotate_noise_free_matches_exact():
    rng = np.random.default_rng(0)
    for phi in (0.0, 1.0, math.pi / 2.0):
        axis = SpinVector(math.cos(phi), math.sin(phi), 0.0)
        got = noisy_rotate(Z_HAT, phi, 0.7, NO_NOISE, rng)
        assert vclose(got, rotate(Z_HAT, axis, 0.7), 1e-12)


def test_noisy_rotate_detuning_tilts_axis():
    # with delta = rabi the torque axis sits 45 degrees out of plane and
    # the angle is scaled by sqrt(2)
    noise = RotationNoise(fixed_detuning=2 * math.pi * 6.3e3)
    rng = np.random.default_rng(0)
    got = noisy_rotate(X_HAT, 0.0, 1.0, noise, rng)
    b = math.pi / 4.0
    axis = SpinVector(math.cos(b), 0.0, math.sin(b))
    assert vclose(got, rotate(X_HAT, axis, math.sqrt(2.0)), 1e-12)


def test_shot_noise_draw_shared_and_reproducible():
    noise = RotationNoise(static_detuning_sigma=10.0, amplitude_error_sigma=0.01)
    a = draw_shot_noise(noise, np.random.default_rng(3))
    b = draw_shot_noise(noise, np.random.default_rng(3))
    assert a == b
    assert a.detuning != 0.0 and a.amp_error != 0.0


def test_rotation_noise_validation():
    with pytest.raises(ValueError):
        RotationNoise(static_detuning_sigma=-1.0)
    with pytest.raises(ValueError):
        RotationNoise(rabi_rate=0.0)
