"""Post-processing: batched Lyapunov exponents, spectral entropy, subharmonic
rigidity, order parameters, decay times, and symmetry statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import KtParams, kt_map, _tangent_basis
from .spin_core import SpinVector


@dataclass(frozen=True)
class LyapunovEstimate:
    lambda_max: float


@dataclass(frozen=True)
class SpectralSummary:
    power: np.ndarray  # normalized, sums to 1
    entropy: float
    dominant_frequency: float


def spectral_entropy(series) -> SpectralSummary:
    """Normalized Shannon entropy of the power spectrum without its DC bin,
    S = -sum p ln p / ln n, in [0, 1]."""
    arr = np.asarray(series, dtype=float)
    if arr.size < 8:
        raise ValueError("series must have at least 8 samples")
    spec = (np.abs(np.fft.rfft(arr)) ** 2)[1:]
    freqs = np.fft.rfftfreq(arr.size)[1:]
    total = spec.sum()
    if total <= 0:
        raise ValueError("series has no power in the analysis band")
    p = spec / total
    nz = p[p > 0]
    s = float(-(nz * np.log(nz)).sum() / math.log(len(p)))
    return SpectralSummary(p, s, float(freqs[int(np.argmax(p))]))


LYAPUNOV_DISCARD = 100  # map steps run before lyapunov_exponents accumulates
LYAPUNOV_MIN_STEPS = 1000  # fewest accumulated steps lyapunov_exponents takes
LYAPUNOV_MIN_MEMBERS = 50  # smallest ensemble lyapunov_stddev takes
LYAPUNOV_MIN_FIT = 3  # fewest steps lyapunov_stddev fits


def lyapunov_exponents(alpha, k, x0, n_steps: int) -> np.ndarray:
    """Largest exponent of every row from tangent-vector stretching under
    ``kt_map``, renormalized every step (per-step units).  Start points x0,
    shape (n, 3) or (3,), and kicks k, shape (n,) or a float, broadcast to
    n rows, one of them giving n; a row's exponent depends on that row
    alone, bit for bit, in any batch."""
    if n_steps < LYAPUNOV_MIN_STEPS:
        raise ValueError(f"n_steps must be >= {LYAPUNOV_MIN_STEPS}")
    x, y, z, k = np.broadcast_arrays(*np.asarray(x0, dtype=float).T, k)
    acc = np.zeros(x.shape)
    # an overflow raises here instead of printing a numpy warning
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            # settle onto the attractor-free invariant set before accumulating
            for _ in range(LYAPUNOV_DISCARD):
                ((x, y, z),) = kt_map(x, y, z, alpha, k)
            # each tangent starts along e1 of its point's chart
            t = np.array([_tangent_basis(SpinVector(*v))[0] for v in zip(x, y, z)]).T
            for _ in range(n_steps):
                (x, y, z), t = kt_map(x, y, z, alpha, k, t)
                nrm = np.sqrt(t[0] * t[0] + t[1] * t[1] + t[2] * t[2])
                acc += np.log(nrm)
                t = (t[0] / nrm, t[1] / nrm, t[2] / nrm)
    except FloatingPointError:
        acc[:] = math.nan
    if not np.all(np.isfinite(acc)):
        raise FloatingPointError("tangent vector left numerical tolerance")
    return acc / n_steps


def lyapunov_jacobian(p: KtParams, x0: SpinVector, n_steps: int) -> LyapunovEstimate:
    """``lyapunov_exponents`` of one start point: a batch of one."""
    lam = lyapunov_exponents(p.alpha, [p.k], x0.as_tuple(), n_steps)[0]
    return LyapunovEstimate(float(lam))


def lyapunov_stddev(theta_series_ensemble, n_fit: int) -> LyapunovEstimate:
    """Log-linear fit of the ensemble elevation-angle spread:
    ln sigma_theta(n) = ln A + lambda n over the first n_fit steps.
    A lower bound on the true largest exponent."""
    arr = np.asarray(theta_series_ensemble, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < LYAPUNOV_MIN_MEMBERS:
        raise ValueError(f"need an ensemble of at least {LYAPUNOV_MIN_MEMBERS} members")
    if n_fit < LYAPUNOV_MIN_FIT or n_fit > arr.shape[1]:
        raise ValueError(f"n_fit must be >= {LYAPUNOV_MIN_FIT} and fit inside the series")
    sig = arr[:, :n_fit].std(axis=0, ddof=1)
    if np.any(sig <= 0):
        raise ValueError("zero spread at some step; cannot take the log")
    n = np.arange(n_fit)
    return LyapunovEstimate(float(np.polyfit(n, np.log(sig), 1)[0]))


ORDER_WINDOW = 5.0 / 6.0  # trailing fraction of a record order_parameters reads


def order_parameters(records):
    """Long-run order parameters: ensemble averages of the time-averaged
    z-magnetization and of its square (both of the dimensionless Z), taken
    over the trailing ORDER_WINDOW of each record."""
    z_means = []
    zz_means = []
    for rec in records:
        z = np.asarray(rec.z, dtype=float)
        start = int(round((1.0 - ORDER_WINDOW) * len(z)))
        tail = z[start:]
        z_means.append(tail.mean())
        zz_means.append((tail**2).mean())
    return float(np.mean(z_means)), float(np.mean(zz_means))


SETTLE_TOL = 1e-3
SETTLE_BAND = 0.05  # distance from the final z that settling_time counts as settled


def _settled(z: np.ndarray) -> bool:
    """Tail test for a run that has come to rest: the variance of z over the
    final 10% of the window is at most SETTLE_TOL times the squared swing
    z[-1] - z[0].  A NaN in the tail fails it."""
    tail = z[int(0.9 * len(z)):]
    return bool(tail.var() <= SETTLE_TOL * (z[-1] - z[0]) ** 2)


def extract_tdd(record):
    """Signed dynamical-decay time: first crossing of the midpoint between
    the initial and final Z, negative when the trajectory ends in the lower
    well.  Returns None when there is no swing or the trajectory has not
    settled (``_settled``)."""
    z = np.asarray(record.z, dtype=float)
    t = np.asarray(record.t, dtype=float)
    z0, zf = z[0], z[-1]
    if zf == z0 or not _settled(z):
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


def settling_time(rec) -> float | None:
    """Last sample time at which z lies more than SETTLE_BAND from its final
    value, 0.0 when it never leaves the band, None when the run has not
    settled (``_settled``, the rule ``extract_tdd`` uses) or is never inside
    the band.

    The band is centred on the final value, so a finite run is always inside
    it at its last sample; a NaN z counts as outside, so a run that ends in
    NaN never settles."""
    z = np.asarray(rec.z, dtype=float)
    if not _settled(z):
        return None
    outside = np.nonzero(~(np.abs(z - z[-1]) <= SETTLE_BAND))[0]
    if len(outside) == len(z):
        return None
    return float(rec.t[outside[-1]]) if len(outside) else 0.0


def _first_measurement(rec, i: int) -> float:
    """The first finite entry of rec.meas: meas[0] for an LMG or quantum
    record, the first gap sample for a kicked-top one."""
    k = int(np.argmax(np.isfinite(rec.meas)))  # 0 when no entry is finite
    if not math.isfinite(rec.meas[k]):
        raise ValueError(f"record {i} has no finite measurement")
    return rec.meas[k]


def symmetry_stats(records) -> dict:
    """Ensemble symmetry-breaking statistics; the correlation is between
    each record's first finite measurement and its final well."""
    if len(records) < 2:
        raise ValueError("need at least 2 records")
    m0 = np.array([_first_measurement(rec, i) for i, rec in enumerate(records)])
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


FTC_MIN_POINTS = 16  # fewest stroboscopic points _ensemble_psd takes


def _ensemble_psd(series_list):
    """Ensemble-averaged power spectrum; series truncated to even length so
    the period-2 line lands exactly on the Nyquist bin."""
    n = min(len(s) for s in series_list)
    n -= n % 2
    if n < FTC_MIN_POINTS:
        raise ValueError(f"need at least {FTC_MIN_POINTS} stroboscopic steps")
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
    psd = {a: _ensemble_psd(stroboscopic_z_by_alpha[a]) for a in alphas}
    # the period-2 bin is the last one; DC, the first, is left out
    dominant = {a: bool(np.argmax(s[1:]) == len(s) - 2) for a, (_, s) in psd.items()}
    p2_power = {a: float(s[-1]) for a, (_, s) in psd.items()}
    # contiguous run of dominance containing the alpha closest to pi
    window = 0.0
    lo = hi = None
    center = min(alphas, key=lambda a: abs(a - math.pi))
    if dominant[center]:
        i0 = i1 = alphas.index(center)
        while i0 > 0 and dominant[alphas[i0 - 1]]:
            i0 -= 1
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
