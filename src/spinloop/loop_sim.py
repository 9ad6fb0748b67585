"""Closed-loop plant / sensor / controller simulation.

The plant is the spin direction under the torque flow dv/dt = omega x v.
The sensor samples once per controller period; the control rate is held
for one period and applied after a fixed transport delay, so between two
rate changes omega is fixed and the plant moves by an exact rotation.
plant_dt only sets the grid that the delay is rounded to: the delay is d
whole samples plus r plant steps, the same offset for every sample.
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


def _j_true(j0: float, t: float, half_time: float | None) -> float:
    if half_time is None:
        return j0
    return j0 * 2.0 ** (-t / half_time)


def _kt_segments(cfg: LoopConfig, sched: QktSchedule) -> tuple[int, int, int]:
    """Samples in the linear, gap and kick segments of one kicked-top period."""
    return (
        round(sched.t_linear / cfg.sample_period),
        round(sched.t_gap / cfg.sample_period),
        round(sched.t_kick / cfg.sample_period),
    )


def j_est_column(
    cfg: LoopConfig, j0: float, sched: QktSchedule | None = None
) -> list[float]:
    """Tracked spin length at each measurement the controller takes: every
    sample of the LMG loop, or the gap sample of each kicked-top period.

    The value depends only on (j0, decay half-time, sample time, arithmetic
    format), never on the shot, so an ensemble evaluates it once."""
    if sched is None:
        ks = range(cfg.n_samples)
    else:
        n_lin, n_gap, n_kick = _kt_segments(cfg, sched)
        n_per = n_lin + n_gap + n_kick
        ks = range(n_lin, sched.n_steps * n_per, n_per)
    half = cfg.decay_half_time
    if half is None:
        return [j0] * len(ks)
    ts = cfg.sample_period
    return [ctl.decay_estimate(j0, half, k * ts, cfg.fixed_point) for k in ks]


def run_lmg_loop(
    cfg: LoopConfig,
    p: LmgParams,
    model: MeasurementModel,
    rng,
    j_est: list[float] | None = None,
) -> TrajectoryRecord:
    """Closed-loop emulation of the linear-plus-quadratic flow.

    The plant sees a constant linear drive about x plus the delayed,
    zero-order-held feedback rate about z.  With the delay d samples plus r
    plant steps, the rate computed at sample k takes over r plant steps into
    sample k + d, so each sample is at most two exact rotations.  j_est is
    the shared ``j_est_column(cfg, model.j_collective)``; it is computed
    here when not given."""
    n = cfg.n_samples
    sps = cfg.steps_per_sample
    d, r = divmod(cfg.latency_steps, sps)
    eff_model = model if cfg.shot else replace(model, sn_coeff=0.0)
    j0 = model.j_collective
    if j_est is None:
        j_est = j_est_column(cfg, j0)

    detuning, amp, (x, y, z), qpn_offset = _shot_start(cfg, model, rng)

    wx = amp * p.alpha_lin

    t_arr = np.empty(n)
    xs = np.empty(n)
    ys = np.empty(n)
    zs = np.empty(n)
    js = np.empty(n)
    ms = np.empty(n)
    cz = np.empty(n)
    cx = np.empty(n)

    # raw doubles: a list keeps one float object per sample alive for the
    # whole shot, which fragmented the heap and raised the peak RSS of a
    # 100-shot ensemble plus its analysis by about 4 MB
    rates = np.empty(n)
    applied = 0.0
    dt = cfg.plant_dt
    half = cfg.decay_half_time

    for k in range(n):
        t_k = k * cfg.sample_period
        j_now = _j_true(j0, t_k, half)
        sample = measure(
            max(-1.0, min(1.0, z)), j_now, eff_model, cfg.sample_period, rng,
            qpn_offset=qpn_offset, t=t_k,
        )
        rates[k] = ctl.lmg_control(sample.value, j_est[k], p, model.chi_p, cfg.rate_cap)

        t_arr[k] = t_k
        xs[k], ys[k], zs[k] = x, y, z
        js[k] = j_now
        ms[k] = sample.value
        cz[k] = applied
        cx[k] = wx

        held = sps
        if k >= d:
            if r:
                x, y, z = _hold(x, y, z, wx, amp * applied + detuning, r * dt)
                held = sps - r
            applied = float(rates[k - d])
        x, y, z = _hold(x, y, z, wx, amp * applied + detuning, held * dt)

    rec = TrajectoryRecord(t_arr, xs, ys, zs, js, ms, cz, cx, np.array(j_est))
    rec.meta["final_state"] = (x, y, z)
    rec.meta["model"] = "lmg"
    rec.meta["params"] = {"s": p.s, "lambda": p.lambda_}
    return rec


def run_kt_loop(
    cfg: LoopConfig,
    sched: QktSchedule,
    p: KtParams,
    model: MeasurementModel,
    rng,
    j_est: list[float] | None = None,
) -> TrajectoryRecord:
    """Closed-loop kicked-top emulation.

    Each step is a linear segment (x rotation through alpha), a drive-free
    gap in which the measurement is taken, and a kick segment (z rotation
    through the wrapped feedback angle).  The static detuning acts about z
    in all three.  The plant is rotated exactly over each sample.
    Stroboscopic indices are stored in meta: 'strob_gap_idx' (measurement
    samples) and 'strob_period_idx' (period boundaries, comparable to the
    iterated map).  j_est is the shared ``j_est_column(cfg,
    model.j_collective, sched)``, one value per period; it is computed here
    when not given."""
    if cfg.latency > sched.t_gap + 1e-15:
        raise ValueError("latency exceeds the measurement gap")
    n_lin, n_gap, n_kick = _kt_segments(cfg, sched)
    n_per = n_lin + n_gap + n_kick
    n = sched.n_steps * n_per + 1  # final period boundary included
    if (n - 1) * cfg.sample_period > cfg.duration + 1e-15:
        raise ValueError("schedule does not fit in the configured duration")

    eff_model = model if cfg.shot else replace(model, sn_coeff=0.0)
    j0 = model.j_collective
    half = cfg.decay_half_time
    fmt = cfg.fixed_point
    if j_est is None:
        j_est = j_est_column(cfg, j0, sched)

    detuning, amp, (x, y, z), qpn_offset = _shot_start(cfg, model, rng)

    # the map's linear rotation corresponds to a drive of -alpha about the
    # x axis in flow form, and the kick to +psi about z
    w_lin = -amp * p.alpha / sched.t_linear

    cols = {name: np.empty(n) for name in TrajectoryRecord.COLUMNS}
    gap_idx = []
    period_idx = []

    ts = cfg.sample_period
    k_samp = 0

    def record(wz_applied, wx_applied, m_val, j_est_val):
        t_k = k_samp * ts
        cols["t"][k_samp] = t_k
        cols["x"][k_samp] = x
        cols["y"][k_samp] = y
        cols["z"][k_samp] = z
        cols["j_true"][k_samp] = _j_true(j0, t_k, half)
        cols["meas"][k_samp] = m_val
        cols["ctl_z"][k_samp] = wz_applied
        cols["ctl_x"][k_samp] = wx_applied
        cols["j_est"][k_samp] = j_est_val

    for step in range(sched.n_steps):
        for _ in range(n_lin):
            record(0.0, w_lin, math.nan, math.nan)
            k_samp += 1
            x, y, z = _hold(x, y, z, w_lin, detuning, ts)
        # measurement in the gap; the kick value is ready because the
        # transport delay is no longer than the gap
        t_now = k_samp * ts
        j_now = _j_true(j0, t_now, half)
        sample = measure(
            max(-1.0, min(1.0, z)), j_now, eff_model, cfg.sample_period, rng,
            qpn_offset=qpn_offset, t=t_now,
        )
        m_norm = max(-1.0, min(1.0, sample.value / (model.chi_p * j_est[step])))
        psi = ctl.kick_angle(m_norm, p.k, fmt)
        kick_rate = amp * psi / sched.t_kick
        gap_idx.append(k_samp)
        for i in range(n_gap):
            record(0.0, 0.0, sample.value if i == 0 else math.nan, j_est[step])
            k_samp += 1
            x, y, z = _hold(x, y, z, 0.0, detuning, ts)
        for _ in range(n_kick):
            record(kick_rate, 0.0, math.nan, math.nan)
            k_samp += 1
            x, y, z = _hold(x, y, z, 0.0, kick_rate + detuning, ts)
        period_idx.append(k_samp)

    record(0.0, 0.0, math.nan, math.nan)

    rec = TrajectoryRecord(**cols)
    rec.meta["final_state"] = (x, y, z)
    rec.meta["model"] = "kt"
    rec.meta["params"] = {"alpha": p.alpha, "k": p.k, "tau": sched.period}
    rec.meta["strob_gap_idx"] = gap_idx
    rec.meta["strob_period_idx"] = period_idx
    return rec


def shot_rng(master_seed: int, i: int) -> np.random.Generator:
    """Independent stream for shot i, reproducible in isolation."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(i,))
    return np.random.Generator(np.random.PCG64(ss))


def _run_one(args):
    cfg, params, model, sched, j_est, master_seed, i = args
    rng = shot_rng(master_seed, i)
    if isinstance(params, KtParams):
        rec = run_kt_loop(cfg, sched, params, model, rng, j_est)
    else:
        rec = run_lmg_loop(cfg, params, model, rng, j_est)
    rec.meta["seed"] = (master_seed, i)
    return rec


def run_batch(
    cfg: LoopConfig,
    params,
    model: MeasurementModel,
    n_shots: int,
    master_seed: int,
    sched: QktSchedule | None = None,
) -> list[TrajectoryRecord]:
    """Ensemble driver; shot i uses a stream derived from (master_seed, i),
    so results do not depend on execution order.  The tracked spin-length
    column (``j_est_column``) is the same for every shot, so it is evaluated
    once here and handed to each shot, in process or in the pool.  Set
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
    j_est = j_est_column(cfg, model.j_collective, sched)
    work = [(cfg, params, model, sched, j_est, master_seed, i) for i in range(n_shots)]
    jobs = min(jobs, n_shots)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as ex:
            return list(ex.map(_run_one, work))
    return [_run_one(w) for w in work]
