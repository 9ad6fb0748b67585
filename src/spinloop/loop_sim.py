"""Closed-loop plant / sensor / controller simulation.

The plant is the spin direction under the torque flow dv/dt = omega x v.
The sensor samples once per controller period; the control rate is held
for one period and applied after a fixed transport delay, so between two
rate changes omega is fixed and the plant moves by an exact rotation.
plant_dt only sets the grid that the delay is rounded to: the delay is d
whole samples plus r plant steps, the same offset for every sample.

Every shot runs on the same clock: the LMG loop measures at every sample
and the kicked top once per period, in the gap.  The sample times, the true
spin length and the tracked spin length depend only on time, so
``shared_columns`` computes them once per ensemble and each shot reads them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import controller as ctl
from .controller import FixedPointFormat, QktSchedule
from .measurement import MeasurementModel, measure, pointing_uncertainty, qpn_variance
from .models import KtParams, LmgParams, _tangent_basis
from .spin_core import (
    RotationNoise,
    SphericalAngles,
    SpinVector,
    draw_shot_noise,
    from_angles,
    rodrigues,
)


@dataclass(frozen=True)
class LoopConfig:
    sample_period: float = 2e-6  # 500 kHz controller
    latency: float = 6e-6  # measurement-to-actuation transport delay
    plant_dt: float = 1e-7  # grid the transport delay is rounded to
    duration: float = 1.5e-3
    decay_half_time: float | None = 2e-3  # None disables spin-length decay
    initial_state: SphericalAngles = SphericalAngles(math.pi / 2.0, 0.0)
    qpn: bool = False  # initial-tilt + frozen-offset projection noise
    shot: bool = False  # photon shot noise on each sample
    rotation_noise: RotationNoise | None = None
    fixed_point: FixedPointFormat | None = None  # controller arithmetic mode
    rate_cap: float = ctl.DEFAULT_RATE_CAP

    def __post_init__(self) -> None:
        if self.plant_dt <= 0 or self.sample_period <= 0 or self.duration <= 0:
            raise ValueError("timing fields must be > 0")
        if self.plant_dt > self.sample_period + 1e-15:
            raise ValueError(
                f"sample_period ({self.sample_period:g}) must be >= "
                f"plant_dt ({self.plant_dt:g})"
            )
        r = self.sample_period / self.plant_dt
        if abs(r - round(r)) > 1e-6:
            raise ValueError("sample_period must be an integer number of plant steps")
        if self.latency < 0:
            raise ValueError("latency must be >= 0")
        if self.decay_half_time is not None and self.decay_half_time <= 0:
            raise ValueError("decay_half_time must be > 0 or None")

    @property
    def steps_per_sample(self) -> int:
        return round(self.sample_period / self.plant_dt)

    @property
    def latency_steps(self) -> int:
        return round(self.latency / self.plant_dt)

    @property
    def n_samples(self) -> int:
        return int(round(self.duration / self.sample_period))


@dataclass
class TrajectoryRecord:
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    j_true: np.ndarray
    meas: np.ndarray
    ctl_z: np.ndarray
    ctl_x: np.ndarray
    j_est: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.t)
        for name in ("x", "y", "z", "j_true", "meas", "ctl_z", "ctl_x", "j_est"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} length mismatch")

    COLUMNS = ("t", "x", "y", "z", "j_true", "meas", "ctl_z", "ctl_x", "j_est")

    def column_stack(self) -> np.ndarray:
        return np.column_stack([getattr(self, c) for c in self.COLUMNS])


def latency_metric(alpha_lin: float, latency: float) -> float:
    """Dimensionless latency severity alpha_lin * tau_delay."""
    return alpha_lin * latency


def _hold(x, y, z, wx, wz, t):
    """Exact flow of dv/dt = omega x v for time t, omega = (wx, 0, wz)."""
    w = math.hypot(wx, wz)
    if w == 0.0:
        return x, y, z
    return rodrigues(x, y, z, wx / w, 0.0, wz / w, -w * t)


def _shot_start(cfg: LoopConfig, model: MeasurementModel, rng):
    """Per-shot draws, in stream order: rotation noise (detuning, amplitude
    factor), the initial direction, and the frozen QPN offset."""
    detuning = 0.0
    amp = 1.0
    if cfg.rotation_noise is not None:
        draw = draw_shot_noise(cfg.rotation_noise, rng)
        detuning = draw.detuning
        amp = 1.0 + draw.amp_error
    v = _initial_vector(cfg, model, rng)
    qpn_offset = (
        math.sqrt(qpn_variance(model)) * rng.standard_normal() if cfg.qpn else 0.0
    )
    return detuning, amp, v.as_tuple(), qpn_offset


def _initial_vector(cfg: LoopConfig, model: MeasurementModel, rng) -> SpinVector:
    v = from_angles(cfg.initial_state)
    if not cfg.qpn:
        return v
    # projection-noise pointing error: Gaussian tilt at a random azimuth
    tilt = pointing_uncertainty(model) * rng.standard_normal()
    chi = rng.uniform(0.0, 2.0 * math.pi)
    e1, e2 = _tangent_basis(v)
    axis = math.cos(chi) * e1 + math.sin(chi) * e2
    from .spin_core import rotate

    return rotate(v, SpinVector(*axis.tolist()), tilt)


def _kt_segments(cfg: LoopConfig, sched: QktSchedule) -> tuple[int, int, int]:
    """Samples in the linear, gap and kick segments of one kicked-top period."""
    return (
        round(sched.t_linear / cfg.sample_period),
        round(sched.t_gap / cfg.sample_period),
        round(sched.t_kick / cfg.sample_period),
    )


# sample times, true spin length, tracked spin length
SharedColumns = tuple[list[float], list[float], list[float]]


def shared_columns(
    cfg: LoopConfig, j0: float, sched: QktSchedule | None = None
) -> SharedColumns:
    """The columns every shot shares: the sample times, the true spin length
    at each sample, and the tracked spin length at each measurement the
    controller takes (every sample of the LMG loop, or the gap sample of
    each kicked-top period).

    They depend only on the clock, j0, the decay half-time and the
    arithmetic format, never on the shot, so an ensemble computes them once.
    They are lists of Python floats, so the per-sample arithmetic is the
    same as on scalars."""
    ts = cfg.sample_period
    if sched is None:
        n = cfg.n_samples
        meas_idx = range(n)
    else:
        n_lin, n_gap, n_kick = _kt_segments(cfg, sched)
        n_per = n_lin + n_gap + n_kick
        n = sched.n_steps * n_per + 1  # final period boundary included
        meas_idx = range(n_lin, n - 1, n_per)
    t = [k * ts for k in range(n)]
    half = cfg.decay_half_time
    if half is None:
        return t, [j0] * n, [j0] * len(meas_idx)
    j_true = [j0 * 2.0 ** (-t_k / half) for t_k in t]
    j_est = [ctl.decay_estimate(j0, half, t[k], cfg.fixed_point) for k in meas_idx]
    return t, j_true, j_est


def run_lmg_loop(
    cfg: LoopConfig,
    p: LmgParams,
    model: MeasurementModel,
    rng,
    cols: SharedColumns | None = None,
) -> TrajectoryRecord:
    """Closed-loop emulation of the linear-plus-quadratic flow.

    The plant sees a constant linear drive about x plus the delayed,
    zero-order-held feedback rate about z.  With the delay d samples plus r
    plant steps, the rate computed at sample k takes over r plant steps into
    sample k + d, so each sample is at most two exact rotations.  cols is
    ``shared_columns(cfg, model.j_collective)``; it is computed here when
    not given."""
    n = cfg.n_samples
    sps = cfg.steps_per_sample
    d, r = divmod(cfg.latency_steps, sps)
    eff_model = model if cfg.shot else replace(model, sn_coeff=0.0)
    t, j_true, j_est = cols or shared_columns(cfg, model.j_collective)

    detuning, amp, (x, y, z), qpn_offset = _shot_start(cfg, model, rng)

    wx = amp * p.alpha_lin

    xs = np.empty(n)
    ys = np.empty(n)
    zs = np.empty(n)
    ms = np.empty(n)
    cz = np.empty(n)

    # raw doubles: a list keeps one float object per sample alive for the
    # whole shot, which fragmented the heap and raised the peak RSS of a
    # 100-shot ensemble plus its analysis by about 4 MB
    rates = np.empty(n)
    applied = 0.0
    dt = cfg.plant_dt

    for k in range(n):
        sample = measure(
            max(-1.0, min(1.0, z)), j_true[k], eff_model, cfg.sample_period, rng,
            qpn_offset=qpn_offset, t=t[k],
        )
        rates[k] = ctl.lmg_control(sample.value, j_est[k], p, model.chi_p, cfg.rate_cap)

        xs[k], ys[k], zs[k] = x, y, z
        ms[k] = sample.value
        cz[k] = applied

        held = sps
        if k >= d:
            if r:
                x, y, z = _hold(x, y, z, wx, amp * applied + detuning, r * dt)
                held = sps - r
            applied = float(rates[k - d])
        x, y, z = _hold(x, y, z, wx, amp * applied + detuning, held * dt)

    rec = TrajectoryRecord(np.array(t), xs, ys, zs, np.array(j_true), ms, cz,
                           np.full(n, wx), np.array(j_est))
    rec.meta["final_state"] = (x, y, z)
    rec.meta["model"] = "lmg"
    rec.meta["params"] = {"s": p.s, "lambda": p.lambda_}
    return rec


def _hold_run(v: np.ndarray, k: int, m: int, x, y, z, wx, wz, dt):
    """Record the state in rows k .. k+m-1 of v while holding one rate,
    advancing by one exact rotation of dt per row; returns the state after
    the run."""
    for i in range(k, k + m):
        v[i] = x, y, z
        x, y, z = _hold(x, y, z, wx, wz, dt)
    return x, y, z


def run_kt_loop(
    cfg: LoopConfig,
    sched: QktSchedule,
    p: KtParams,
    model: MeasurementModel,
    rng,
    cols: SharedColumns | None = None,
) -> TrajectoryRecord:
    """Closed-loop kicked-top emulation on the period grid.

    Each period is a linear segment (x rotation through alpha), a drive-free
    gap whose first sample is measured, and a kick segment (z rotation
    through the wrapped feedback angle).  The static detuning acts about z
    in all three.  Each segment holds one rate, and the plant is rotated
    exactly over each sample.  Stroboscopic indices are stored in meta:
    'strob_gap_idx' (measurement samples) and 'strob_period_idx' (period
    boundaries, comparable to the iterated map).  cols is
    ``shared_columns(cfg, model.j_collective, sched)``, with one tracked
    spin length per period; it is computed here when not given."""
    if cfg.latency > sched.t_gap + 1e-15:
        raise ValueError("latency exceeds the measurement gap")
    n_lin, n_gap, n_kick = _kt_segments(cfg, sched)
    if min(n_lin, n_gap, n_kick) < 1:
        raise ValueError("each kicked-top segment must span at least one sample")
    n_per = n_lin + n_gap + n_kick
    n = sched.n_steps * n_per + 1  # final period boundary included
    if (n - 1) * cfg.sample_period > cfg.duration + 1e-15:
        raise ValueError("schedule does not fit in the configured duration")

    eff_model = model if cfg.shot else replace(model, sn_coeff=0.0)
    t, j_true, j_est = cols or shared_columns(cfg, model.j_collective, sched)

    detuning, amp, (x, y, z), qpn_offset = _shot_start(cfg, model, rng)

    # the map's linear rotation corresponds to a drive of -alpha about the
    # x axis in flow form, and the kick to +psi about z
    w_lin = -amp * p.alpha / sched.t_linear

    ts = cfg.sample_period
    v = np.empty((n, 3))
    meas = np.full(n, math.nan)
    ctl_z = np.zeros(n)
    ctl_x = np.zeros(n)
    j_col = np.full(n, math.nan)

    for step in range(sched.n_steps):
        lin = step * n_per
        gap = lin + n_lin
        kick = gap + n_gap
        x, y, z = _hold_run(v, lin, n_lin, x, y, z, w_lin, detuning, ts)
        # measurement in the gap; the kick value is ready because the
        # transport delay is no longer than the gap
        sample = measure(
            max(-1.0, min(1.0, z)), j_true[gap], eff_model, ts, rng,
            qpn_offset=qpn_offset, t=t[gap],
        )
        m_norm = max(-1.0, min(1.0, sample.value / (model.chi_p * j_est[step])))
        kick_rate = amp * ctl.kick_angle(m_norm, p.k, cfg.fixed_point) / sched.t_kick
        x, y, z = _hold_run(v, gap, n_gap, x, y, z, 0.0, detuning, ts)
        x, y, z = _hold_run(v, kick, n_kick, x, y, z, 0.0, kick_rate + detuning, ts)
        ctl_x[lin:gap] = w_lin
        meas[gap] = sample.value
        j_col[gap:kick] = j_est[step]
        ctl_z[kick:kick + n_kick] = kick_rate
    v[n - 1] = x, y, z

    rec = TrajectoryRecord(np.array(t), v[:, 0], v[:, 1], v[:, 2], np.array(j_true),
                           meas, ctl_z, ctl_x, j_col)
    rec.meta["final_state"] = (x, y, z)
    rec.meta["model"] = "kt"
    rec.meta["params"] = {"alpha": p.alpha, "k": p.k, "tau": sched.period}
    rec.meta["strob_gap_idx"] = list(range(n_lin, n - 1, n_per))
    rec.meta["strob_period_idx"] = list(range(n_per, n, n_per))
    return rec


def shot_rng(master_seed: int, i: int) -> np.random.Generator:
    """Independent stream for shot i, reproducible in isolation."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(i,))
    return np.random.Generator(np.random.PCG64(ss))


def _run_one(args):
    cfg, params, model, sched, cols, master_seed, i = args
    rng = shot_rng(master_seed, i)
    if isinstance(params, KtParams):
        return run_kt_loop(cfg, sched, params, model, rng, cols)
    return run_lmg_loop(cfg, params, model, rng, cols)


def run_batch(
    cfg: LoopConfig,
    params,
    model: MeasurementModel,
    n_shots: int,
    master_seed: int,
    sched: QktSchedule | None = None,
) -> list[TrajectoryRecord]:
    """Ensemble driver; shot i uses a stream derived from (master_seed, i),
    so results do not depend on execution order.  The shot-independent
    columns (``shared_columns``) are computed once here and handed to each
    shot, in process or in the pool.  Set
    SPINLOOP_JOBS to run shots in parallel processes."""
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    raw = os.environ.get("SPINLOOP_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"SPINLOOP_JOBS must be an integer >= 1, got {raw!r}")
    cols = shared_columns(cfg, model.j_collective, sched)
    work = [(cfg, params, model, sched, cols, master_seed, i) for i in range(n_shots)]
    jobs = min(jobs, n_shots)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as ex:
            return list(ex.map(_run_one, work))
    return [_run_one(w) for w in work]
