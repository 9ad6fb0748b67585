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

The same clock lets an ensemble run as one array computation:
``_run_lmg_columns`` and ``_run_kt_columns`` step every shot (column) of a
batch together, with the state held as arrays of one entry per column, and
equal ``run_lmg_loop`` and ``run_kt_loop`` on each shot bit for bit.  The
two scalar loops stay the one-shot path and the oracles the kernels are
tested against.

What is not per-sample physics is written once: ``_column_start`` makes
a kernel's draws in the scalar stream order, ``_column_records`` builds its
records, ``_hold_run`` records a held rate on either path,
``_kt_layout`` splits a kicked-top period into samples, and
``measured_samples`` names the samples the controller measures.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import controller as ctl
from .controller import FixedPointFormat, QktSchedule
from .measurement import (
    MeasurementModel,
    measure,
    pointing_uncertainty,
    qpn_variance,
    shot_noise_variance,
)
from .models import KtParams, LmgParams, tilted
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
        if self.n_samples < 1:
            raise ValueError("duration must hold at least one sample_period")
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
        for name in self.COLUMNS[1:]:
            col = getattr(self, name)
            if col is not None and len(col) != n:
                raise ValueError(f"column {name} length mismatch")

    # t is always present; a record read for some columns only holds None
    # in the others (runio.read_trajectory_csv)
    COLUMNS = ("t", "x", "y", "z", "j_true", "meas", "ctl_z", "ctl_x", "j_est")

    def columns(self) -> list:
        """Every column in COLUMNS order; a partial record is refused."""
        cols = [getattr(self, c) for c in self.COLUMNS]
        for name, col in zip(self.COLUMNS, cols):
            if col is None:
                raise ValueError(f"record has no column {name} (read as a subset)")
        return cols

    def column_stack(self) -> np.ndarray:
        return np.column_stack(self.columns())


def latency_metric(alpha_lin: float, latency: float) -> float:
    """Dimensionless latency severity alpha_lin * tau_delay."""
    return alpha_lin * latency


def _hold(x, y, z, wx, wz, t):
    """Exact flow of dv/dt = omega x v for time t, omega = (wx, 0, wz)."""
    # not math.hypot: np.hypot rounds differently, and _hold_columns must
    # match this bit for bit
    w = math.sqrt(wx * wx + wz * wz)
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
    return tilted(v, chi, tilt)


def _column_start(cfg: LoopConfig, model: MeasurementModel, rngs, n_meas: int):
    """The per-shot draws of an array kernel, column c from rngs[c] in the
    scalar loop's stream order: ``_shot_start``, then one photon shot-noise
    normal for each of the n_meas measurements.  Returns the detuning,
    amplitude factor, initial x, y, z and QPN offset, one entry per column,
    and the scaled noise as an (n_meas, columns) array, so each measurement
    reads one row."""
    eff_model = model if cfg.shot else replace(model, sn_coeff=0.0)
    starts = []
    noise = np.empty((n_meas, len(rngs)))
    for c, rng in enumerate(rngs):
        starts.append(_shot_start(cfg, model, rng))
        noise[:, c] = rng.standard_normal(n_meas)
    noise *= math.sqrt(shot_noise_variance(eff_model, cfg.sample_period))
    detuning, amp, v, qpn_offset = (np.array(a) for a in zip(*starts))
    x, y, z = v.T
    return detuning, amp, x, y, z, qpn_offset, noise


def _column_records(t, j_true, j_est, xs, ys, zs, meas, ctl_z, ctl_x, metas):
    """One record per column of the (samples, columns) arrays, column c with
    metas[c]; every record shares one read-only t, j_true and j_est.

    A sample is one contiguous row of each array: 100 ``ssb_ensemble.cfg``
    shots ran in 36 ms against 42-48 ms with (columns, samples) arrays (best
    of 7, 2-core Xeon), and three kt-sweep runs, whose ctl_z rows between
    kicks are never written, peaked 0.3 MB lower."""
    shared = [np.array(a) for a in (t, j_true, j_est)]
    for a in shared:
        a.flags.writeable = False
    t, j_true, j_est = shared
    return [
        TrajectoryRecord(t, xs[:, c], ys[:, c], zs[:, c], j_true, meas[:, c],
                         ctl_z[:, c], ctl_x[:, c], j_est, meta)
        for c, meta in enumerate(metas)
    ]


def _kt_layout(cfg: LoopConfig, sched: QktSchedule) -> tuple[int, int, int]:
    """Samples in the linear, gap and kick segments of one kicked-top
    period, checked: the delay fits in the gap, so the kick angle is ready
    by its end, every segment spans a sample and the schedule fits in the
    duration.  parse_config runs it on the kicked-top configs."""
    if cfg.latency > sched.t_gap + 1e-15:
        raise ValueError(f"loop.latency ({cfg.latency:g}) exceeds the measurement gap "
                         f"kt.t_gap ({sched.t_gap:g})")
    segs = tuple(round(t / cfg.sample_period)
                 for t in (sched.t_linear, sched.t_gap, sched.t_kick))
    if min(segs) < 1:
        raise ValueError("each kicked-top segment must span at least one sample")
    need = sched.n_steps * sum(segs) * cfg.sample_period
    if need > cfg.duration + 1e-15:
        raise ValueError(f"the schedule ({need:g} s) does not fit in loop.duration "
                         f"({cfg.duration:g} s)")
    return segs


def measured_samples(cfg: LoopConfig, sched: QktSchedule | None = None) -> tuple[int, range]:
    """The samples of one shot and the indices of those the controller
    measures: every sample of the LMG loop, or the gap sample of each
    kicked-top period."""
    if sched is None:
        return cfg.n_samples, range(cfg.n_samples)
    n_lin, n_gap, n_kick = _kt_layout(cfg, sched)
    n_per = n_lin + n_gap + n_kick
    n = sched.n_steps * n_per + 1  # final period boundary included
    return n, range(n_lin, n - 1, n_per)


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
    same as on scalars.  A tracked length that reaches 0, as a fast
    fixed-point decay does, raises ValueError here, so the scalar loops and
    the array kernels refuse it alike."""
    ts = cfg.sample_period
    n, meas_idx = measured_samples(cfg, sched)
    t = [k * ts for k in range(n)]
    half = cfg.decay_half_time
    if half is None:
        return t, [j0] * n, [j0] * len(meas_idx)
    j_true = [j0 * 2.0 ** (-t_k / half) for t_k in t]
    j_est = [ctl.decay_estimate(j0, half, t[k], cfg.fixed_point) for k in meas_idx]
    if min(j_est) <= 0.0:
        i = next(i for i, j in enumerate(j_est) if j <= 0.0)
        raise ValueError(f"loop.decay_half_time ({half:g} s) decays the tracked spin "
                         f"length to {j_est[i]!r} by t = {t[meas_idx[i]]:g} s")
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
        value = measure(
            max(-1.0, min(1.0, z)), j_true[k], eff_model, cfg.sample_period, rng,
            qpn_offset=qpn_offset,
        )
        rates[k] = ctl.lmg_control(value, j_est[k], p)

        xs[k], ys[k], zs[k] = x, y, z
        ms[k] = value
        cz[k] = applied

        held = sps
        if k >= d:
            if r:
                x, y, z = _hold(x, y, z, wx, amp * applied + detuning, r * dt)
                held = sps - r
            applied = float(rates[k - d])
        x, y, z = _hold(x, y, z, wx, amp * applied + detuning, held * dt)

    return TrajectoryRecord(np.array(t), xs, ys, zs, np.array(j_true), ms, cz,
                            np.full(n, wx), np.array(j_est), _lmg_meta(p, x, y, z))


def _lmg_meta(p: LmgParams, x, y, z) -> dict:
    return {"final_state": (x, y, z), "model": "lmg",
            "params": {"s": p.s, "lambda": p.lambda_}}


def _hold_columns(x, y, z, wx, wz, t):
    """``_hold`` on arrays with one entry per column: the same IEEE
    operations in the same order, ``rodrigues`` written out term for term
    with ay = 0.  A column whose rate is zero is left unrotated."""
    w = np.sqrt(wx * wx + wz * wz)
    still = None if w.all() else w == 0.0
    if still is not None:
        w = np.where(still, 1.0, w)  # any nonzero value; reverted below
    ax = wx / w
    az = wz / w
    angle = -w * t
    c = np.cos(angle)
    s = np.sin(angle)
    omc = 1.0 - c
    d = x * ax + y * 0.0 + z * az
    x1 = x * c + (y * az - z * 0.0) * s + ax * d * omc
    y1 = y * c + (z * ax - x * az) * s + 0.0 * d * omc
    z1 = z * c + (x * 0.0 - y * ax) * s + az * d * omc
    if still is None:
        return x1, y1, z1
    return np.where(still, x, x1), np.where(still, y, y1), np.where(still, z, z1)


def _run_lmg_columns(
    cfg: LoopConfig,
    params: Sequence[LmgParams],
    model: MeasurementModel,
    rngs: Sequence[np.random.Generator],
    cols: SharedColumns,
) -> list[TrajectoryRecord]:
    """``run_lmg_loop`` for many shots at once, equal to it bit for bit.

    Column c runs params[c] on rngs[c], with one shot-noise normal per
    sample (``_column_start``).  The state is one array entry per column and
    each sample is at most two ``_hold_columns`` rotations, at the offsets
    every column shares."""
    n = cfg.n_samples
    sps = cfg.steps_per_sample
    d, r = divmod(cfg.latency_steps, sps)
    dt = cfg.plant_dt
    t, j_true, j_est = cols

    m = len(rngs)
    detuning, amp, x, y, z, qpn_offset, m_sn = _column_start(cfg, model, rngs, n)
    k_nl = np.array([p.k_nl for p in params])
    wx = amp * np.array([p.alpha_lin for p in params])

    xs, ys, zs, ms, cz = (np.empty((n, m)) for _ in range(5))
    rates = np.empty((n, m))
    applied = np.zeros(m)
    for k in range(n):
        value = j_true[k] * np.clip(z, -1.0, 1.0) + qpn_offset + m_sn[k]
        z_est = np.clip(value / j_est[k], -1.0, 1.0)
        rates[k] = np.clip(k_nl * z_est, -ctl.DEFAULT_RATE_CAP, ctl.DEFAULT_RATE_CAP)

        xs[k], ys[k], zs[k] = x, y, z
        ms[k] = value
        cz[k] = applied

        held = sps
        if k >= d:
            if r:
                x, y, z = _hold_columns(x, y, z, wx, amp * applied + detuning, r * dt)
                held = sps - r
            applied = rates[k - d]
        x, y, z = _hold_columns(x, y, z, wx, amp * applied + detuning, held * dt)

    # the drive is constant in a shot: each column's ctl_x repeats wx[c]
    return _column_records(t, j_true, j_est, xs, ys, zs, ms, cz,
                           np.broadcast_to(wx, (n, m)),
                           [_lmg_meta(p, float(x[c]), float(y[c]), float(z[c]))
                            for c, p in enumerate(params)])


def _hold_run(hold, xs, ys, zs, k: int, m: int, x, y, z, wx, wz, dt):
    """Record the state in rows k .. k+m-1 of xs, ys, zs while holding one
    rate, advancing by one exact rotation ``hold`` of dt per row; returns
    the state after the run.  hold is ``_hold`` for one shot, or
    ``_hold_columns`` for the rows of (samples, columns) arrays."""
    for i in range(k, k + m):
        xs[i], ys[i], zs[i] = x, y, z
        x, y, z = hold(x, y, z, wx, wz, dt)
    return x, y, z


def _kt_meta(p: KtParams, sched: QktSchedule, n_lin: int, n_per: int, x, y, z) -> dict:
    n = sched.n_steps * n_per + 1
    return {"final_state": (x, y, z), "model": "kt",
            "params": {"alpha": p.alpha, "k": p.k, "tau": sched.period},
            "strob_gap_idx": list(range(n_lin, n - 1, n_per)),
            "strob_period_idx": list(range(n_per, n, n_per))}


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
    n_lin, n_gap, n_kick = _kt_layout(cfg, sched)
    n_per = n_lin + n_gap + n_kick
    n = sched.n_steps * n_per + 1  # final period boundary included

    eff_model = model if cfg.shot else replace(model, sn_coeff=0.0)
    t, j_true, j_est = cols or shared_columns(cfg, model.j_collective, sched)

    detuning, amp, (x, y, z), qpn_offset = _shot_start(cfg, model, rng)

    # the map's linear rotation corresponds to a drive of -alpha about the
    # x axis in flow form, and the kick to +psi about z
    w_lin = -amp * p.alpha / sched.t_linear

    ts = cfg.sample_period
    xs, ys, zs = (np.empty(n) for _ in range(3))
    meas = np.full(n, math.nan)
    ctl_z = np.zeros(n)
    ctl_x = np.zeros(n)
    j_col = np.full(n, math.nan)

    for step in range(sched.n_steps):
        lin = step * n_per
        gap = lin + n_lin
        kick = gap + n_gap
        x, y, z = _hold_run(_hold, xs, ys, zs, lin, n_lin, x, y, z, w_lin, detuning, ts)
        # measurement in the gap; the kick value is ready because the
        # transport delay is no longer than the gap
        value = measure(
            max(-1.0, min(1.0, z)), j_true[gap], eff_model, ts, rng,
            qpn_offset=qpn_offset,
        )
        m_norm = max(-1.0, min(1.0, value / j_est[step]))
        kick_rate = amp * ctl.kick_angle(m_norm, p.k, cfg.fixed_point) / sched.t_kick
        x, y, z = _hold_run(_hold, xs, ys, zs, gap, n_gap, x, y, z, 0.0, detuning, ts)
        x, y, z = _hold_run(_hold, xs, ys, zs, kick, n_kick, x, y, z,
                            0.0, kick_rate + detuning, ts)
        ctl_x[lin:gap] = w_lin
        meas[gap] = value
        j_col[gap:kick] = j_est[step]
        ctl_z[kick:kick + n_kick] = kick_rate
    xs[n - 1], ys[n - 1], zs[n - 1] = x, y, z

    return TrajectoryRecord(np.array(t), xs, ys, zs, np.array(j_true),
                            meas, ctl_z, ctl_x, j_col,
                            _kt_meta(p, sched, n_lin, n_per, x, y, z))


def _run_kt_columns(
    cfg: LoopConfig,
    sched: QktSchedule,
    params: Sequence[KtParams],
    model: MeasurementModel,
    rngs: Sequence[np.random.Generator],
    cols: SharedColumns,
) -> list[TrajectoryRecord]:
    """``run_kt_loop`` for many shots at once, equal to it bit for bit.

    Column c runs params[c] on rngs[c], with one shot-noise normal per
    period for the gap measurement (``_column_start``).  Each sample is one
    ``_hold_columns`` rotation.  The kick angle is ``kick_angle`` on Python
    floats, once per column and period, so the fixed-point wrap stays exact
    at any word size."""
    n_lin, n_gap, n_kick = _kt_layout(cfg, sched)
    n_per = n_lin + n_gap + n_kick
    n = sched.n_steps * n_per + 1
    ts = cfg.sample_period
    t, j_true, j_est = cols

    m = len(rngs)
    detuning, amp, x, y, z, qpn_offset, m_sn = _column_start(cfg, model, rngs,
                                                             sched.n_steps)
    ks = [p.k for p in params]
    w_lin = -amp * np.array([p.alpha for p in params]) / sched.t_linear

    xs, ys, zs = (np.empty((n, m)) for _ in range(3))
    meas = np.full((n, m), math.nan)
    ctl_z = np.zeros((n, m))
    ctl_x = np.zeros((n, m))
    j_col = np.full(n, math.nan)

    for step in range(sched.n_steps):
        lin = step * n_per
        gap = lin + n_lin
        kick = gap + n_gap
        x, y, z = _hold_run(_hold_columns, xs, ys, zs, lin, n_lin, x, y, z,
                            w_lin, detuning, ts)
        value = j_true[gap] * np.clip(z, -1.0, 1.0) + qpn_offset + m_sn[step]
        m_norm = np.clip(value / j_est[step], -1.0, 1.0)
        angle = [ctl.kick_angle(mc, kc, cfg.fixed_point)
                 for mc, kc in zip(m_norm.tolist(), ks)]
        kick_rate = amp * np.array(angle) / sched.t_kick
        x, y, z = _hold_run(_hold_columns, xs, ys, zs, gap, n_gap, x, y, z,
                            0.0, detuning, ts)
        x, y, z = _hold_run(_hold_columns, xs, ys, zs, kick, n_kick, x, y, z,
                            0.0, kick_rate + detuning, ts)
        ctl_x[lin:gap] = w_lin
        meas[gap] = value
        j_col[gap:kick] = j_est[step]
        ctl_z[kick:kick + n_kick] = kick_rate
    xs[n - 1], ys[n - 1], zs[n - 1] = x, y, z

    return _column_records(t, j_true, j_col, xs, ys, zs, meas, ctl_z, ctl_x,
                           [_kt_meta(p, sched, n_lin, n_per,
                                     float(x[c]), float(y[c]), float(z[c]))
                            for c, p in enumerate(params)])


def shot_rng(master_seed: int, i: int) -> np.random.Generator:
    """Independent stream for shot i, reproducible in isolation."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(i,))
    return np.random.Generator(np.random.PCG64(ss))


def point_seed(master_seed: int, i: int) -> int:
    """Master seed of sweep point i; its shot j draws from
    shot_rng(point_seed(master_seed, i), j)."""
    return master_seed + 1000 * i


# Fewest shots for which run_batch takes the array kernel.  Below it the
# kernel's fixed numpy cost per sample outweighs the per-shot Python loop it
# replaces.  At 750 samples the two break even at about 10-11 shots on a
# 2-core Xeon (best of 5, array against scalar: 1 shot 30-36 ms, 4 ms;
# 8 shots 31-38 ms, 22-27 ms; 10 shots 30-35 ms, 29-34 ms; 12 shots
# 33-35 ms, 33-39 ms), so this threshold sits a little low; it moves only
# with a benchmark that measures both paths.
ARRAY_MIN_SHOTS = 8
# The same for the kicked top.  Its scalar loop does one rotation per sample
# and one measurement per period, against the kernel's fixed numpy cost per
# sample, so it breaks even later: at 601 samples at about 24 shots (best
# of 5, array against scalar: 1 shot 15-24 ms, 1 ms; 16 shots 20-26 ms,
# 12 ms; 24 shots 20-21 ms, 20 ms; 32 shots 21-23 ms, 27-30 ms), so this
# threshold sits low too.
KT_ARRAY_MIN_SHOTS = 18


def run_batch(
    cfg: LoopConfig,
    params,
    model: MeasurementModel,
    n_shots: int,
    master_seed: int,
    sched: QktSchedule | None = None,
) -> list[TrajectoryRecord]:
    """Ensemble driver.  Shot j draws from shot_rng(master_seed, j), so its
    record does not depend on the batch it runs in.

    params is one parameter set, or a list of sweep points that share the
    n_shots shots evenly: point i then runs n_shots / len(params) shots on
    shot_rng(point_seed(master_seed, i), j), and the records come back
    point by point.  The shot-independent columns (``shared_columns``) are
    computed once.  An LMG batch of at least ARRAY_MIN_SHOTS shots, sweep
    points included, is one array computation (``_run_lmg_columns``), and
    so is a kicked-top batch of at least KT_ARRAY_MIN_SHOTS
    (``_run_kt_columns``); a smaller one runs ``run_lmg_loop`` or
    ``run_kt_loop`` per shot."""
    points = params if isinstance(params, (list, tuple)) else [params]
    per, extra = divmod(n_shots, len(points))
    if per < 1 or extra:
        raise ValueError(
            f"n_shots ({n_shots}) must be a positive multiple of the "
            f"{len(points)} sweep point(s)"
        )
    cols = shared_columns(cfg, model.j_collective, sched)
    work = [(p, shot_rng(point_seed(master_seed, i), j))
            for i, p in enumerate(points) for j in range(per)]
    if sched is not None:
        if n_shots < KT_ARRAY_MIN_SHOTS:
            return [run_kt_loop(cfg, sched, p, model, rng, cols) for p, rng in work]
        ps, rngs = zip(*work)
        return _run_kt_columns(cfg, sched, ps, model, rngs, cols)
    if n_shots < ARRAY_MIN_SHOTS:
        return [run_lmg_loop(cfg, p, model, rng, cols) for p, rng in work]
    ps, rngs = zip(*work)
    return _run_lmg_columns(cfg, ps, model, rngs, cols)
