"""Classical spin kinematics: unit-vector states, exact and noisy rotations.

Sign convention: rotate(v, a, theta) is the flow of dv/dtheta = v x a,
i.e. rotate(z_hat, x_hat, pi/2) = y_hat.  This is the same convention as
the kicked-top map in models.py and the torque equation dF/dt = gamma F x B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_NORM_TOL = 1e-6
PULSE_NOT_FINITE = "a noisy pulse's rotation angle or axis azimuth is not finite"


@dataclass(frozen=True)
class SpinVector:
    """Unit vector (x, y, z) giving the direction of the collective spin."""

    x: float
    y: float
    z: float

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def normalized(self) -> "SpinVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("zero vector has no direction")
        return SpinVector(self.x / n, self.y / n, self.z / n)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


X_HAT = SpinVector(1.0, 0.0, 0.0)
Y_HAT = SpinVector(0.0, 1.0, 0.0)
Z_HAT = SpinVector(0.0, 0.0, 1.0)


def require_finite(obj, *names: str) -> None:
    """Raise ValueError naming the first of obj's fields names whose value is
    not finite: a quiet NaN sets no floating-point flag, so the array
    kernels would run it to NaN records instead of refusing it."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} ({value!r}) must be finite")


@dataclass(frozen=True)
class SphericalAngles:
    """Polar angle theta from +z in [0, pi], azimuth phi in [-pi, pi)."""

    theta: float
    phi: float


@dataclass(frozen=True)
class RotationNoise:
    """Imperfections of a driven rotation pulse.

    fixed_detuning and static_detuning_sigma are in rad/s; the detuning is
    resampled once per shot and held constant within a pulse.
    amplitude_error_sigma is the fractional rotation-angle error (per shot).
    phase_noise_sigma is the rad-level azimuth jitter of the drive axis,
    drawn independently for every pulse.
    rabi_rate sets the nominal drive rate that the detuning competes with.
    """

    fixed_detuning: float = 0.0
    static_detuning_sigma: float = 0.0
    amplitude_error_sigma: float = 0.0
    phase_noise_sigma: float = 0.0
    rabi_rate: float = 2 * math.pi * 6.3e3

    def __post_init__(self) -> None:
        require_finite(self, "fixed_detuning", "static_detuning_sigma",
                       "amplitude_error_sigma", "phase_noise_sigma", "rabi_rate")
        if self.static_detuning_sigma < 0:
            raise ValueError("static_detuning_sigma must be >= 0")
        if self.amplitude_error_sigma < 0:
            raise ValueError("amplitude_error_sigma must be >= 0")
        if self.phase_noise_sigma < 0:
            raise ValueError("phase_noise_sigma must be >= 0")
        if self.rabi_rate <= 0:
            raise ValueError("rabi_rate must be > 0")


@dataclass(frozen=True)
class ShotNoiseDraw:
    """Per-shot realization of the slow rotation-noise channels."""

    detuning: float = 0.0
    amp_error: float = 0.0


NO_NOISE = RotationNoise()


def draw_shot_noise(noise: RotationNoise, rng) -> ShotNoiseDraw:
    """Sample the per-shot channels (detuning offset, amplitude error)."""
    det = noise.fixed_detuning
    if noise.static_detuning_sigma > 0:
        det += noise.static_detuning_sigma * rng.standard_normal()
    eps = 0.0
    if noise.amplitude_error_sigma > 0:
        eps = noise.amplitude_error_sigma * rng.standard_normal()
    return ShotNoiseDraw(detuning=det, amp_error=eps)


def from_angles(angles: SphericalAngles) -> SpinVector:
    st = math.sin(angles.theta)
    return SpinVector(
        st * math.cos(angles.phi), st * math.sin(angles.phi), math.cos(angles.theta)
    )


def to_angles(v: SpinVector) -> SphericalAngles:
    z = min(1.0, max(-1.0, v.z))
    theta = math.acos(z)
    if math.sin(theta) < 1e-12:
        return SphericalAngles(theta, 0.0)
    phi = math.atan2(v.y, v.x)
    if phi >= math.pi:
        phi -= 2 * math.pi
    return SphericalAngles(theta, phi)


def rodrigues(x, y, z, ax, ay, az, angle):
    """Float-level Rodrigues rotation of (x, y, z) about the unit axis
    (ax, ay, az), unchecked; the kernel behind rotate()."""
    c = math.cos(angle)
    s = math.sin(angle)
    d = x * ax + y * ay + z * az
    return (
        x * c + (y * az - z * ay) * s + ax * d * (1.0 - c),
        y * c + (z * ax - x * az) * s + ay * d * (1.0 - c),
        z * c + (x * ay - y * ax) * s + az * d * (1.0 - c),
    )


def rotate(v: SpinVector, axis: SpinVector, angle: float) -> SpinVector:
    """Rodrigues rotation of v about axis; rotate(z_hat, x_hat, pi/2) = y_hat."""
    n = axis.norm()
    if abs(n - 1.0) > _NORM_TOL:
        raise ValueError(f"rotation axis norm {n} deviates from 1 by more than {_NORM_TOL}")
    if n != 1.0:
        axis = SpinVector(axis.x / n, axis.y / n, axis.z / n)
    return SpinVector(*rodrigues(v.x, v.y, v.z, axis.x, axis.y, axis.z, angle))


def noisy_rotate(
    v: SpinVector,
    axis_phase: float,
    angle: float,
    noise: RotationNoise,
    rng,
    shot: ShotNoiseDraw,
) -> SpinVector:
    """Driven rotation about an equatorial axis at azimuth axis_phase.

    Detuning lifts the torque axis out of the equatorial plane by
    atan(delta / rabi_rate) and rescales the rotation angle by the
    generalized Rabi factor sqrt(1 + (delta/rabi)^2).  shot carries the
    slow channels (``draw_shot_noise``), shared by the pulses of one shot;
    rng draws only the per-pulse phase jitter.  An angle or azimuth that
    overflows raises ValueError(PULSE_NOT_FINITE).
    """
    phi = axis_phase
    if noise.phase_noise_sigma > 0:
        phi += noise.phase_noise_sigma * rng.standard_normal()
    ratio = shot.detuning / noise.rabi_rate
    scale = math.sqrt(1.0 + ratio * ratio)
    total = angle * scale * (1.0 + shot.amp_error)
    if not (math.isfinite(total) and math.isfinite(phi)):
        raise ValueError(PULSE_NOT_FINITE)
    beta = math.atan(ratio)
    cb = math.cos(beta)
    axis = SpinVector(cb * math.cos(phi), cb * math.sin(phi), math.sin(beta))
    return rotate(v, axis, total)
