"""Polarimetry measurement model and noise-budget analysis.

A measurement outcome is one float, the sum of three terms in this order:
the mean signal j * z, a projection-noise term frozen once per
trajectory, and a photon shot-noise term whose variance sn_coeff / T falls
with the averaging window T.  A variance that is not finite is refused
(``shot_noise_variance``).  Classical projection noise (control errors,
growing as atom number squared) enters through noisy rotations, not through
this module's sampler.

The sum is stated twice: ``measure`` on Python floats, drawing its own
normals, and ``signal`` elementwise on arrays of drawn terms, which every
array engine calls.  On the same normals the two give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_core import (
    RotationNoise,
    Z_HAT,
    draw_shot_noise,
    noisy_rotate,
    require_finite,
)

MIN_SCAN_SHOTS = 100  # fewest shots composite_pulse_scan takes a variance over
MIN_FIT_POINTS = 3  # fewest distinct n1 values noise_budget_fit fits three terms to

# 0-d bounds: numpy converts a Python float on every call
_Z_LO, _Z_HI = np.array(-1.0), np.array(1.0)


@dataclass(frozen=True)
class MeasurementModel:
    n1_eff: float = 1e6  # signal-weighted effective atom number
    ratio_n2_n1: float = 0.5  # variance-weighted over signal-weighted
    f: float = 4.0  # single-atom spin
    sn_coeff: float = 0.0  # shot-noise variance coefficient, signal^2 * s

    def __post_init__(self) -> None:
        require_finite(self, "n1_eff", "ratio_n2_n1", "f", "sn_coeff")
        if self.n1_eff <= 0:
            raise ValueError("n1_eff must be > 0")
        if not 0.0 < self.ratio_n2_n1 <= 1.0:
            raise ValueError("ratio_n2_n1 must lie in (0, 1]")
        if self.f < 0.5:
            raise ValueError("f must be >= 1/2")
        if self.sn_coeff < 0:
            raise ValueError("sn_coeff must be >= 0")
        if not math.isfinite(self.j_collective):
            raise ValueError("n1_eff * f must be finite")

    @property
    def j_collective(self) -> float:
        return self.n1_eff * self.f


def qpn_variance(model: MeasurementModel) -> float:
    """Projection-noise variance (ratio * n1) * f/2 in signal^2 units, for a
    coherent state oriented orthogonal to z."""
    return (model.ratio_n2_n1 * model.n1_eff) * model.f / 2.0


def shot_noise_variance(model: MeasurementModel, t_avg: float) -> float:
    """sn_coeff / t_avg; ValueError if t_avg <= 0 or the ratio is not finite."""
    if t_avg <= 0:
        raise ValueError("averaging time must be > 0")
    var = model.sn_coeff / t_avg
    if not math.isfinite(var):
        raise ValueError(f"the shot-noise variance sn_coeff / t_avg "
                         f"({model.sn_coeff:g} / {t_avg:g}) is not finite")
    return var


def pointing_uncertainty(model: MeasurementModel) -> float:
    """Angular resolution sqrt(ratio * n1 * f/2) / (n1 * f) in rad."""
    return math.sqrt(model.ratio_n2_n1 * model.n1_eff * model.f / 2.0) / (
        model.n1_eff * model.f
    )


def measure(
    z_true: float,
    j_current: float,
    model: MeasurementModel,
    t_avg: float,
    rng,
    qpn_offset: float | None = None,
) -> float:
    """One measurement sample, m_f + qpn_offset + m_sn.  The projection-noise
    offset is frozen per trajectory; pass the trajectory's value via
    qpn_offset, or leave None to draw a fresh one (single-shot usage).  The
    shot-noise term m_sn is drawn after it."""
    if abs(z_true) > 1.0 + 1e-12:
        raise ValueError("z_true must lie in [-1, 1]")
    m_f = j_current * z_true
    if qpn_offset is None:
        qpn_offset = math.sqrt(qpn_variance(model)) * rng.standard_normal()
    m_sn = math.sqrt(shot_noise_variance(model, t_avg)) * rng.standard_normal()
    return m_f + qpn_offset + m_sn


def signal(j, z, qpn_offset, sn, out=None):
    """Measured values j * clamp(z, -1, 1) + qpn_offset + sn, elementwise
    and broadcast, summed in ``measure``'s order, so on the same drawn
    offset and scaled shot noise sn each element equals ``measure`` on its
    clamped z.  Writes into out when given."""
    # np.minimum(np.maximum()) is np.clip's bits, NaN too, in half the time
    return np.add(j * np.minimum(np.maximum(z, _Z_LO), _Z_HI) + qpn_offset, sn, out=out)


def noise_budget_fit(points) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Weighted least-squares fit of variance(n1) = c_sn + c_qpn*n1 + c_cpn*n1^2.

    points: iterable of (n1_eff, variance).  Weights are 1/variance^2 so the
    fit is in relative error, which keeps the problem conditioned over
    several decades of atom number.  Returns (coeffs, standard_errors).
    """
    pts = np.asarray(list(points), dtype=float)
    if not np.isfinite(pts).all():
        raise FloatingPointError("the points must be finite")
    if pts.shape[0] < MIN_FIT_POINTS or len(np.unique(pts[:, 0])) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} distinct n1 values")
    n1 = pts[:, 0]
    y = pts[:, 1]
    a = np.column_stack([np.ones_like(n1), n1, n1**2])
    w = np.where(y > 0, 1.0 / np.maximum(y, 1e-300), 1.0)
    aw = a * w[:, None]
    yw = y * w
    coeffs, res, rank, _ = np.linalg.lstsq(aw, yw, rcond=None)
    if rank < 3:
        raise ValueError("rank-deficient design matrix")
    dof = max(1, len(y) - 3)
    resid = yw - aw @ coeffs
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(aw.T @ aw)
    errs = np.sqrt(np.diag(cov))
    return tuple(coeffs), tuple(errs)


def averaging_scan(shots, windows, dt: float):
    """Variance across shots of the boxcar-averaged signal, per window length.

    shots: array-like (n_shots, n_samples) of raw samples spaced by dt.
    Returns list of (T, variance).
    """
    arr = np.asarray(shots, dtype=float)
    if arr.ndim != 2:
        raise ValueError("shots must be a 2-d array (n_shots, n_samples)")
    out = []
    for t_w in windows:
        w = int(round(t_w / dt))
        if w < 1 or w > arr.shape[1]:
            raise ValueError(f"window {t_w} out of range for the series length")
        means = arr[:, :w].mean(axis=1)
        out.append((t_w, float(np.var(means, ddof=1))))
    return out


def composite_pulse_scan(theta_grid, noise: RotationNoise, n_shots: int, rng):
    """Monte Carlo of the two-rotation composite pulse applied to +z:
    a theta rotation about x followed by a pi/2 rotation about y.  Returns
    a list of (theta, variance of final Z).  Slow noise channels are shared
    between the two pulses of each shot."""
    if n_shots < MIN_SCAN_SHOTS:
        raise ValueError(f"n_shots must be >= {MIN_SCAN_SHOTS}")
    out = []
    for theta in theta_grid:
        zs = np.empty(n_shots)
        for i in range(n_shots):
            shot = draw_shot_noise(noise, rng)
            v = noisy_rotate(Z_HAT, 0.0, theta, noise, rng, shot)
            v = noisy_rotate(v, math.pi / 2.0, math.pi / 2.0, noise, rng, shot)
            zs[i] = v.z
        out.append((theta, float(np.var(zs, ddof=1))))
    return out
