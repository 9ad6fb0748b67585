"""Post-processing: Lyapunov exponents, spectral entropy, subharmonic
rigidity, order parameters, decay times, and symmetry statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import KtParams, kt_jacobian, kt_step, _tangent_basis
from .spin_core import SpinVector, from_angles, rotate, to_angles


@dataclass(frozen=True)
class LyapunovEstimate:
    lambda_max: float
    method: str  # "jacobian" or "stddev"
    n_points: int
    residual: float = 0.0


@dataclass(frozen=True)
class SpectralSummary:
    frequencies: np.ndarray
    power: np.ndarray  # normalized, sums to 1
    entropy: float
    dominant_frequency: float


def spectral_entropy(series, exclude_dc: bool = True) -> SpectralSummary:
    """Normalized Shannon entropy of the power spectrum,
    S = -sum p ln p / ln n, in [0, 1]."""
    arr = np.asarray(series, dtype=float)
    if arr.size < 8:
        raise ValueError("series must have at least 8 samples")
    spec = np.abs(np.fft.rfft(arr)) ** 2
    freqs = np.fft.rfftfreq(arr.size)
    if exclude_dc:
        spec = spec[1:]
        freqs = freqs[1:]
    total = spec.sum()
    if total <= 0:
        raise ValueError("series has no power in the analysis band")
    p = spec / total
    nz = p[p > 0]
    s = float(-(nz * np.log(nz)).sum() / math.log(len(p)))
    return SpectralSummary(freqs, p, s, float(freqs[int(np.argmax(p))]))


def lyapunov_jacobian(
    p: KtParams, x0: SpinVector, n_steps: int, n_discard: int = 100
) -> LyapunovEstimate:
    """Largest exponent from tangent-vector stretching under the map's
    Jacobian, renormalized every step (per-step units)."""
    if n_steps < 1000:
        raise ValueError("n_steps must be >= 1000")
    v = x0
    # settle onto the attractor-free invariant set before accumulating
    for _ in range(n_discard):
        v = kt_step(v, p)
    w = np.array([1.0, 0.0])
    acc = 0.0
    for _ in range(n_steps):
        # an overflow raises here instead of printing a numpy warning
        try:
            with np.errstate(over="raise", invalid="raise"):
                w = kt_jacobian(v, p) @ w
                nrm = float(np.linalg.norm(w))
        except FloatingPointError:
            nrm = math.nan
        if not np.isfinite(nrm) or nrm == 0.0:
            raise FloatingPointError("tangent vector left numerical tolerance")
        acc += math.log(nrm)
        w /= nrm
        v = kt_step(v, p)
    return LyapunovEstimate(acc / n_steps, "jacobian", n_steps)


def lyapunov_benettin(
    p: KtParams, x0: SpinVector, n_steps: int, d0: float = 1e-8
) -> LyapunovEstimate:
    """Independent two-trajectory renormalization estimate, used as a
    cross-check oracle for lyapunov_jacobian."""
    va = x0
    e1, _ = _tangent_basis(x0)
    vb_arr = np.array(x0.as_tuple()) + d0 * e1
    vb_arr /= np.linalg.norm(vb_arr)
    vb = SpinVector(*vb_arr)
    acc = 0.0
    for _ in range(n_steps):
        va = kt_step(va, p)
        vb = kt_step(vb, p)
        diff = np.array(vb.as_tuple()) - np.array(va.as_tuple())
        d = float(np.linalg.norm(diff))
        acc += math.log(d / d0)
        new_b = np.array(va.as_tuple()) + diff * (d0 / d)
        new_b /= np.linalg.norm(new_b)
        vb = SpinVector(*new_b)
    return LyapunovEstimate(acc / n_steps, "benettin", n_steps)


def lyapunov_stddev(theta_series_ensemble, n_fit: int = 5) -> LyapunovEstimate:
    """Log-linear fit of the ensemble elevation-angle spread:
    ln sigma_theta(n) = ln A + lambda n over the first n_fit steps.
    A lower bound on the true largest exponent."""
    arr = np.asarray(theta_series_ensemble, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 50:
        raise ValueError("need an ensemble of at least 50 members")
    if n_fit < 3 or n_fit > arr.shape[1]:
        raise ValueError("n_fit must be >= 3 and fit inside the series")
    sig = arr[:, :n_fit].std(axis=0, ddof=1)
    if np.any(sig <= 0):
        raise ValueError("zero spread at some step; cannot take the log")
    n = np.arange(n_fit)
    coef, res = np.polyfit(n, np.log(sig), 1, full=True)[:2]
    residual = float(res[0]) if len(res) else 0.0
    return LyapunovEstimate(float(coef[0]), "stddev", n_fit, residual)


def order_parameters(records, window_fraction: float = 5.0 / 6.0):
    """Long-run order parameters: ensemble averages of the time-averaged
    z-magnetization and of its square (both of the dimensionless Z), taken
    over the trailing window_fraction of each record."""
    z_means = []
    zz_means = []
    for rec in records:
        z = np.asarray(rec.z if hasattr(rec, "z") else rec, dtype=float)
        start = int(round((1.0 - window_fraction) * len(z)))
        tail = z[start:]
        z_means.append(tail.mean())
        zz_means.append((tail**2).mean())
    return float(np.mean(z_means)), float(np.mean(zz_means))


def extract_tdd(record, settle_tol: float = 1e-3):
    """Signed dynamical-decay time: first crossing of the midpoint between
    the initial and final Z, negative when the trajectory ends in the lower
    well.  Returns None when the trajectory has not settled (variance over
    the final 10% of the window above settle_tol of the swing squared)."""
    z = np.asarray(record.z if hasattr(record, "z") else record, dtype=float)
    t = (
        np.asarray(record.t, dtype=float)
        if hasattr(record, "t")
        else np.arange(len(z), dtype=float)
    )
    z0, zf = z[0], z[-1]
    swing = zf - z0
    if swing == 0.0:
        return None
    tail = z[int(0.9 * len(z)):]
    if tail.var() > settle_tol * swing**2:
        return None
    mid = 0.5 * (z0 + zf)
    crossed = np.nonzero((z[:-1] - mid) * (z[1:] - mid) <= 0)[0]
    if len(crossed) == 0:
        return None
    i = int(crossed[0])
    # linear interpolation inside the crossing interval
    frac = (mid - z[i]) / (z[i + 1] - z[i]) if z[i + 1] != z[i] else 0.0
    t_dd = t[i] + frac * (t[i + 1] - t[i])
    return -t_dd if zf < 0 else t_dd


def symmetry_stats(records) -> dict:
    """Ensemble symmetry-breaking statistics."""
    if len(records) < 2:
        raise ValueError("need at least 2 records")
    m0 = np.array([rec.meas[0] for rec in records])
    zf = np.array([rec.z[-1] for rec in records])
    wells = np.sign(zf)
    if np.all(wells == wells[0]) or np.all(m0 == m0[0]):
        corr = math.copysign(1.0, wells[0]) if np.all(wells == wells[0]) else 0.0
    else:
        corr = float(np.corrcoef(m0, wells)[0, 1])
    tdd = [extract_tdd(rec) for rec in records]
    return {
        "upper_fraction": float(np.mean(wells > 0)),
        "initial_final_correlation": corr,
        "tdd_list": tdd,
    }


def _ensemble_psd(series_list):
    """Ensemble-averaged power spectrum; series truncated to even length so
    the period-2 line lands exactly on the Nyquist bin."""
    n = min(len(s) for s in series_list)
    n -= n % 2
    if n < 16:
        raise ValueError("need at least 16 stroboscopic steps")
    acc = None
    for s in series_list:
        arr = np.asarray(s, dtype=float)[:n]
        spec = np.abs(np.fft.rfft(arr)) ** 2
        acc = spec if acc is None else acc + spec
    acc /= len(series_list)
    return np.fft.rfftfreq(n), acc


def ftc_rigidity(stroboscopic_z_by_alpha: dict) -> dict:
    """Subharmonic rigidity analysis.

    Input: map alpha -> list of stroboscopic Z series (one per seed).
    The period-2 line is the Nyquist bin (frequency 1/2 per step).  Returns
    the per-alpha spectra, the per-alpha dominance flag, the contiguous
    rigidity window around alpha = pi where the period-2 bin is the global
    maximum (DC excluded), and its width (reported as the FWHM-style extent
    of the dominant region)."""
    alphas = sorted(stroboscopic_z_by_alpha)
    psd = {}
    dominant = {}
    p2_power = {}
    for a in alphas:
        freqs, spec = _ensemble_psd(stroboscopic_z_by_alpha[a])
        psd[a] = (freqs, spec)
        body = spec[1:]  # drop DC
        dominant[a] = bool(np.argmax(body) == len(body) - 1)
        p2_power[a] = float(spec[-1])
    # contiguous run of dominance containing the alpha closest to pi
    window = 0.0
    lo = hi = None
    center = min(alphas, key=lambda a: abs(a - math.pi))
    if dominant.get(center, False):
        idx = alphas.index(center)
        i0 = idx
        while i0 > 0 and dominant[alphas[i0 - 1]]:
            i0 -= 1
        i1 = idx
        while i1 < len(alphas) - 1 and dominant[alphas[i1 + 1]]:
            i1 += 1
        lo, hi = alphas[i0], alphas[i1]
        window = hi - lo
    return {
        "psd": psd,
        "dominant": dominant,
        "rigidity_window": window,
        "window_edges": (lo, hi),
        "period2_power": p2_power,
    }
