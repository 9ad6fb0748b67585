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
batch together, with the state held as arrays of one entry per column.
They are the only engines: ``run_lmg_loop`` and ``run_kt_loop`` are a
kernel on one column, so a shot's record does not depend on its batch.

Both kernels turn one state buffer (``_plant``) in place by ``_rotate``
with the coefficients of ``_rotation``, which the kicked-top kernel computes
once per segment rate.  The LMG kernel steps one transport-delay window of
d samples at a time, since a rate acts only d samples after it is computed:
the window's coefficients and controller step are one array call each.

A rotation whose angle |omega| t is not finite, as from a rate whose square
overflows, raises ValueError(ROTATION_NOT_FINITE): each kernel runs with
numpy's overflow and invalid errors raised (``_finite_rotations``) and
turns them into that error.

The loop's rules are stated once, outside the kernels, and both kernels
call them elementwise on a window's or period's arrays: the measured value
is ``measurement.signal``, the LMG feedback law ``controller.lmg_control``
(its unchecked core, since ``shared_columns`` refuses a tracked length
<= 0 once per batch) and the kicked-top law ``controller.kick_angle``.

Photon shot noise belongs to the measurement model: its variance is
sn_coeff / sample_period, so sn_coeff = 0 is none, and its normals are
drawn either way, so a shot's stream does not depend on it.

What is not per-sample physics is written once: ``_column_start`` makes
a kernel's per-shot draws, each in its shot's stream order,
``_column_records`` builds its records, ``_rotate_run`` records a held rate,
``_kt_layout`` puts a kicked-top schedule on the sample clock,
``measured_samples`` names the samples the controller measures, and
``check_word`` refuses a controller input that is not finite or would
saturate the fixed-point word.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import controller as ctl
from .controller import FixedPointFormat, QktSchedule
from .measurement import (
    MeasurementModel,
    pointing_uncertainty,
    qpn_variance,
    shot_noise_variance,
    signal,
)
# bound here so the benchmark tracer (perfbench/tracing.py) can patch it
from .measurement import measure  # noqa: F401
from .models import KtParams, LmgParams, tilted
from .spin_core import (
    RotationNoise,
    SphericalAngles,
    SpinVector,
    draw_shot_noise,
    from_angles,
    require_finite,
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
    rotation_noise: RotationNoise | None = None
    fixed_point: FixedPointFormat | None = None  # controller arithmetic mode

    def __post_init__(self) -> None:
        require_finite(self, "sample_period", "latency", "plant_dt", "duration")
        if self.decay_half_time is not None:
            require_finite(self, "decay_half_time")
        require_finite(self.initial_state, "theta", "phi")
        if self.plant_dt <= 0 or self.sample_period <= 0 or self.duration <= 0:
            raise ValueError("timing fields must be > 0")
        if self.latency < 0:
            raise ValueError("latency must be >= 0")
        for num, den in (("sample_period", "plant_dt"), ("latency", "plant_dt"),
                         ("duration", "sample_period")):  # each rounded to steps
            if not math.isfinite(getattr(self, num) / getattr(self, den)):
                raise ValueError(f"{num} / {den} (inf) must be finite")
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


# the error of a rotation whose angle is not finite, on every path
ROTATION_NOT_FINITE = "a rotation rate is too large: the plant's angle |omega| t is not finite"


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
    """The per-shot draws of an array kernel, column c from rngs[c] in its
    stream order: ``_shot_start``, then one photon shot-noise normal for each
    of the n_meas measurements, as ``measure`` draws it.
    Returns the detuning, amplitude factor and QPN offset as (1, columns)
    rows, the shape of a one-sample window, the initial state as (x, y, z)
    rows, and the scaled noise as an (n_meas, columns) array, so each
    measurement reads one row."""
    starts = []
    noise = np.empty((n_meas, len(rngs)))
    for c, rng in enumerate(rngs):
        starts.append(_shot_start(cfg, model, rng))
        noise[:, c] = rng.standard_normal(n_meas)
    noise *= math.sqrt(shot_noise_variance(model, cfg.sample_period))
    detuning, amp, v, qpn_offset = (np.array([a]) for a in zip(*starts))
    return detuning, amp, v[0].T, qpn_offset, noise


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


def _kt_layout(cfg: LoopConfig, sched: QktSchedule) -> tuple[int, int, int, int]:
    """Samples in the linear, gap and kick segments of one kicked-top
    period, and in the run (n_steps periods and the final boundary), checked:
    each segment is a positive whole number of samples, the delay fits in the
    gap, so the kick angle is ready by its end, and the schedule fits in the
    duration.  No other code divides a schedule time by the sample period."""
    ts = cfg.sample_period
    segs = []
    for name in ("t_linear", "t_gap", "t_kick"):
        t = getattr(sched, name)
        seg = round(t / ts) if math.isfinite(t / ts) else 0
        if seg < 1 or abs(t / ts - seg) > 1e-9:
            raise ValueError(f"kt.{name} ({t:g} s) is not a positive whole number of "
                             f"samples of loop.sample_period ({ts:g} s)")
        segs.append(seg)
    if cfg.latency > sched.t_gap + 1e-15:
        raise ValueError(f"loop.latency ({cfg.latency:g}) exceeds the measurement gap "
                         f"kt.t_gap ({sched.t_gap:g})")
    n = sched.n_steps * sum(segs) + 1
    need = (n - 1) * ts
    if need > cfg.duration + 1e-15:
        raise ValueError(f"the schedule ({need:g} s) does not fit in loop.duration "
                         f"({cfg.duration:g} s)")
    return *segs, n


def measured_samples(cfg: LoopConfig, sched: QktSchedule | None = None) -> tuple[int, range]:
    """The samples of one shot and the indices of those the controller
    measures: every sample of the LMG loop, or the gap sample of each
    kicked-top period."""
    if sched is None:
        return cfg.n_samples, range(cfg.n_samples)
    n_lin, n_gap, n_kick, n = _kt_layout(cfg, sched)
    return n, range(n_lin, n - 1, n_lin + n_gap + n_kick)


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
    arithmetic format, never on the shot, so an ensemble computes them once;
    the tracked lengths are one elementwise ``decay_estimate`` call over the
    measurement times.  They are lists of Python floats, so the per-sample
    arithmetic is the same as on scalars.  A tracked length that reaches 0,
    as a fast fixed-point decay does, raises ValueError here, so a batch of
    any size refuses it before a kernel runs."""
    ts = cfg.sample_period
    n, meas_idx = measured_samples(cfg, sched)
    t = [k * ts for k in range(n)]
    half = cfg.decay_half_time
    if half is None:
        return t, [j0] * n, [j0] * len(meas_idx)
    check_word(cfg, sched)
    j_true = [j0 * 2.0 ** (-t_k / half) for t_k in t]
    j_est = ctl.decay_estimate(j0, half, [t[k] for k in meas_idx],
                               cfg.fixed_point).tolist()
    if min(j_est) <= 0.0:
        i = next(i for i, j in enumerate(j_est) if j <= 0.0)
        raise ValueError(f"loop.decay_half_time ({half:g} s) decays the tracked spin "
                         f"length to {j_est[i]!r} by t = {t[meas_idx[i]]:g} s")
    return t, j_true, j_est


def check_word(cfg: LoopConfig, sched: QktSchedule | None = None, ks=()) -> None:
    """Raise ValueError when a controller input cannot be computed: the
    decay exponent at the last measurement of the clock (cfg, sched) when it
    is not finite, or, quantised as the controller does it, when it or the
    kick-angle argument |k|/pi of a k in ks saturates the fixed-point word
    cfg.fixed_point.  ``config`` reports the text."""
    half = cfg.decay_half_time
    if half is not None:
        t = measured_samples(cfg, sched)[1][-1] * cfg.sample_period
        x = ctl.decay_exponent(t, half)
        if not math.isfinite(x):
            raise ValueError(f"loop.decay_half_time ({half:g} s): the decay exponent "
                             f"-t ln2 / decay_half_time is {x:g} at the last measurement "
                             f"(t = {t:g} s)")
    fmt = cfg.fixed_point
    if fmt is None:
        return
    word = (f"the fixed-point word (loop.word_bits = {fmt.word_bits}, "
            f"loop.int_bits = {fmt.int_bits})")
    for k in ks:
        if not ctl.fxp_fits(abs(k) / math.pi, fmt):
            raise ValueError(f"kt.k: |k|/pi ({abs(k) / math.pi:g}) saturates {word}, "
                             f"whose largest value is {fmt.raw_max * fmt.step:g}")
    if half is not None and not ctl.fxp_fits(x, fmt):
        raise ValueError(
            f"loop.decay_half_time: the decay exponent -t ln2 / decay_half_time "
            f"reaches {x:g} at the last measurement (t = {t:g} s) and saturates {word}, "
            f"whose least value is {fmt.raw_min * fmt.step:g}")


def run_lmg_loop(
    cfg: LoopConfig,
    p: LmgParams,
    model: MeasurementModel,
    rng,
) -> TrajectoryRecord:
    """Closed-loop emulation of the linear-plus-quadratic flow.

    The plant sees a constant linear drive about x plus the delayed,
    zero-order-held feedback rate about z.  With the delay d samples plus r
    plant steps, the rate computed at sample k takes over r plant steps into
    sample k + d, so each sample is at most two exact rotations.  This is
    ``_run_lmg_columns`` on one column, so a shot's record does not depend
    on the batch it runs in."""
    return _run_lmg_columns(cfg, [p], model, [rng],
                            shared_columns(cfg, model.j_collective))[0]


def _lmg_meta(p: LmgParams, x, y, z) -> dict:
    return {"final_state": (x, y, z), "model": "lmg",
            "params": {"s": p.s, "lambda": p.lambda_}}


@contextmanager
def _finite_rotations():
    """Run an array kernel, as a decorator, with numpy's overflow and
    invalid errors raised as ValueError(ROTATION_NOT_FINITE).  A rate whose
    square overflows, or an angle |omega| t that does, sets them in
    ``_rotation``; finite rates set neither, so their bits do not change.
    It is one errstate per batch, not per window or sample."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise ValueError(ROTATION_NOT_FINITE) from None


def _rotation(wx, wz, t):
    """The coefficients of the exact flow of dv/dt = omega x v, for rates
    omega = (wx, 0, wz) held for time t: the rotation about the unit axis
    omega / |omega| through the angle -|omega| t, with |omega| taken as
    sqrt(wx^2 + wz^2), not hypot, which rounds differently.  One rotation
    per row of the (rows, columns) array wz; wx and t broadcast against it.
    Returns one entry per row: the unit axis (ax, 0, az) stacked over its
    shifts (az, ax, 0) and (0, az, ax), to pair with the plant's shifts in
    ``_rotate``; cos, sin and 1 - cos of the angle; and the mask of the
    still (zero-rate) columns, or None if there is none.  The entry is None
    when every column of the row is still."""
    w = np.sqrt(wx * wx + wz * wz)
    rows, m = w.shape
    if np.count_nonzero(w) == w.size:  # w.all(), in a quarter of the time
        still = [None] * rows
    else:
        zero = w == 0.0
        still = [z if z.any() else None for z in zero]
        w = np.where(zero, 1.0, w)  # any nonzero value; _rotate reverts it
    axis = np.zeros((rows, 9, m))  # the rows (ax, 0, az, az, ax, 0, 0, az, ax)
    np.divide(wx, w, out=axis[:, 0])
    np.divide(wz, w, out=axis[:, 3])
    axis[:, 4::4] = axis[:, 0:1]
    axis[:, 2::5] = axis[:, 3:4]
    angle = w * -t  # -w * t exactly: rounding is symmetric in sign
    c = np.cos(angle)
    rots = zip(axis.reshape(rows, 3, 3, m), c, np.sin(angle), 1.0 - c, still)
    return [None if z is not None and z.all() else rot for z, rot in zip(still, rots)]


def _plant(start):
    """An array kernel's plant from the (x, y, z) rows start, which
    ``_rotate`` turns in place: the state, the columns' rows (x, y, z, x, y),
    its (x, y, z) rows, and the other views and scratch arrays of
    ``_rotate``, made once, so a rotation allocates and slices nothing.  The
    repeated rows stack the shifts (x, y, z), (y, z, x) and (z, x, y) in
    one view."""
    state = start[[0, 1, 2, 0, 1]]
    m = state.shape[1]
    shifts = np.lib.stride_tricks.sliding_window_view(state, 3, axis=0).transpose(0, 2, 1)
    prod = np.empty((3, 3, m))
    return (state, state[:3], shifts, state[3:], state[:2], prod, *prod[0], prod[1], prod[2],
            np.empty((3, m)), np.empty(m))


def _rotate(plant, rot):
    """Rotate the columns of a ``_plant`` in place by one entry rot of
    ``_rotation``, with ``rodrigues``'s IEEE operations in its order, so each
    column equals ``rodrigues`` on its axis and angle bit for bit.  One
    multiplication of the stacked shifts gives the dot product's terms
    (x ax, y 0, z az) and both cross product terms.  Still columns, or all
    if rot is None, stay."""
    if rot is None:
        return
    axis, c, s, omc, still = rot
    state, v, shifts, rep, head, prod, dx, dy, dz, left, right, cross, d = plant
    if still is not None:
        kept = state.copy()
    np.multiply(shifts, axis, out=prod)
    np.subtract(left, right, out=cross)
    cross *= s
    np.add(dx, dy, out=d)
    d += dz
    v *= c
    v += cross
    np.multiply(axis[0], d, out=left)  # left is free again
    left *= omc
    v += left
    np.copyto(rep, head)  # rows 3 and 4 repeat x and y
    if still is not None:
        np.copyto(state, kept, where=still)


@_finite_rotations()
def _run_lmg_columns(
    cfg: LoopConfig,
    params: Sequence[LmgParams],
    model: MeasurementModel,
    rngs: Sequence[np.random.Generator],
    cols: SharedColumns,
) -> list[TrajectoryRecord]:
    """The LMG engine: ``run_lmg_loop`` for each of many shots at once,
    column c equal to its one-column run bit for bit.

    Column c runs params[c] on rngs[c], with one shot-noise normal per
    sample (``_column_start``).  It steps one transport-delay window of
    max(d, 1) samples at a time: the window's rotations hold rates computed
    d samples earlier, so one ``_rotation`` call (one more for the r-step
    parts of split samples) and one controller step serve the window, and
    only ``_rotate`` runs per sample.  With no delay (d = 0) a window is one
    sample, whose controller runs before its rotation."""
    n = cfg.n_samples
    sps = cfg.steps_per_sample
    d, r = divmod(cfg.latency_steps, sps)
    dt = cfg.plant_dt
    t, j_true, j_est = cols

    m = len(rngs)
    detuning, amp, start, qpn_offset, m_sn = _column_start(cfg, model, rngs, n)
    k_nl = np.array([[p.k_nl for p in params]])
    wx = amp * np.array([p.alpha_lin for p in params])
    jt, je = (np.array(a)[:, None] for a in (j_true, j_est))

    plant = _plant(start)
    xyz = plant[1]
    # rec[:, k] is the state as sample k starts, rec[:, n] the final one;
    # held[k] is the rate held then (ctl_z), so the rate computed at sample
    # k is held[k + d + 1], where it is applied within the run
    rec = np.empty((3, n + 1, m))
    rec[:, 0] = xyz
    ms = np.empty((n, m))
    held = np.zeros((n + 1, m))

    def control(a, b):
        signal(jt[a:b], rec[2, a:b], qpn_offset, m_sn[a:b], out=ms[a:b])
        fed = held[a + d + 1:b + d + 1]  # the rates that arrive within the run
        c = a + len(fed)
        # shared_columns refused a tracked length <= 0 for the batch
        ctl._lmg_rate(ms[a:c], je[a:c], k_nl, out=fed)

    win = max(d, 1)
    for a in range(0, n, win):
        b = min(a + win, n)
        if not d:
            control(a, b)
        # from sample d on, the new rate takes over r plant steps in
        rots = _rotation(wx, amp * held[a + 1:b + 1] + detuning,
                         (sps - r if a >= d else sps) * dt)
        parts = (_rotation(wx, amp * held[a:b] + detuning, r * dt) if r and a >= d
                 else [None] * (b - a))
        for k, part, rot in zip(range(a + 1, b + 1), parts, rots):
            _rotate(plant, part)
            _rotate(plant, rot)
            rec[:, k] = xyz
        if d:
            control(a, b)

    # the drive is constant in a shot: each column's ctl_x repeats wx[c]
    return _column_records(t, j_true, j_est, *rec[:, :n], ms, held[:n],
                           np.broadcast_to(wx, (n, m)),
                           [_lmg_meta(p, *xyz[:, c].tolist())
                            for c, p in enumerate(params)])


def _rotate_run(rec, k: int, m: int, plant, rot):
    """Record the columns of a ``_plant`` in samples k .. k+m-1 of the (3,
    samples, columns) array rec while holding one rate, advancing it by one
    ``_rotate`` by rot per sample."""
    for i in range(k, k + m):
        rec[:, i] = plant[1]
        _rotate(plant, rot)


def _kt_meta(p: KtParams, sched: QktSchedule, n_lin: int, n_per: int, n: int,
             x, y, z) -> dict:
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
) -> TrajectoryRecord:
    """Closed-loop kicked-top emulation on the period grid.

    Each period is a linear segment (x rotation through alpha), a drive-free
    gap whose first sample is measured, and a kick segment (z rotation
    through the wrapped feedback angle).  The static detuning acts about z
    in all three.  Each segment holds one rate, and the plant is rotated
    exactly over each sample.  Stroboscopic indices are stored in meta:
    'strob_gap_idx' (measurement samples) and 'strob_period_idx' (period
    boundaries, comparable to the iterated map).  This is
    ``_run_kt_columns`` on one column, so a shot's record does not depend on
    the batch it runs in."""
    return _run_kt_columns(cfg, sched, [p], model, [rng],
                           shared_columns(cfg, model.j_collective, sched))[0]


@_finite_rotations()
def _run_kt_columns(
    cfg: LoopConfig,
    sched: QktSchedule,
    params: Sequence[KtParams],
    model: MeasurementModel,
    rngs: Sequence[np.random.Generator],
    cols: SharedColumns,
) -> list[TrajectoryRecord]:
    """The kicked-top engine: ``run_kt_loop`` for each of many shots at
    once, column c equal to its one-column run bit for bit.

    Column c runs params[c] on rngs[c], with one shot-noise normal per
    period for the gap measurement (``_column_start``).  Each sample is one
    ``_rotate``, with the constant linear and gap rates' coefficients made
    once per batch and the kick's once per period; an all-still segment,
    such as the gap without detuning, is not rotated.  One elementwise
    ``kick_angle`` call per period gives every column's kick angle."""
    n_lin, n_gap, n_kick, n = _kt_layout(cfg, sched)
    n_per = n_lin + n_gap + n_kick
    ts = cfg.sample_period
    t, j_true, j_est = cols
    check_word(cfg, sched, {p.k for p in params})

    m = len(rngs)
    detuning, amp, start, qpn_offset, m_sn = _column_start(cfg, model, rngs, sched.n_steps)
    ks = np.array([p.k for p in params])
    # the map's linear rotation corresponds to a drive of -alpha about the
    # x axis in flow form, and the kick to +psi about z
    w_lin = -amp * np.array([p.alpha for p in params]) / sched.t_linear
    lin_rot = _rotation(w_lin, detuning, ts)[0]
    gap_rot = _rotation(0.0, detuning, ts)[0]
    plant = _plant(start)
    xyz = plant[1]

    rec = np.empty((3, n, m))
    meas = np.full((n, m), math.nan)
    ctl_z = np.zeros((n, m))
    ctl_x = np.zeros((n, m))
    j_col = np.full(n, math.nan)

    for step, lin in enumerate(range(0, n - 1, n_per)):
        gap, kick = lin + n_lin, lin + n_lin + n_gap
        _rotate_run(rec, lin, n_lin, plant, lin_rot)
        # the measurement in the gap; the kick angle is ready because
        # the transport delay is no longer than the gap
        value = signal(j_true[gap], xyz[2], qpn_offset, m_sn[step])
        angle = ctl.kick_angle(value / j_est[step], ks, cfg.fixed_point)
        kick_rate = amp * angle / sched.t_kick
        _rotate_run(rec, gap, n_gap, plant, gap_rot)
        _rotate_run(rec, kick, n_kick, plant, _rotation(0.0, kick_rate + detuning, ts)[0])
        ctl_x[lin:gap] = w_lin
        meas[gap] = value
        j_col[gap:kick] = j_est[step]
        ctl_z[kick:kick + n_kick] = kick_rate
    rec[:, n - 1] = xyz

    return _column_records(t, j_true, j_col, *rec, meas, ctl_z, ctl_x,
                           [_kt_meta(p, sched, n_lin, n_per, n, *xyz[:, c].tolist())
                            for c, p in enumerate(params)])


def shot_rng(master_seed: int, i: int) -> np.random.Generator:
    """Independent stream for shot i, reproducible in isolation."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(i,))
    return np.random.Generator(np.random.PCG64(ss))


def point_seed(master_seed: int, i: int) -> int:
    """Master seed of sweep point i; its shot j draws from
    shot_rng(point_seed(master_seed, i), j)."""
    return master_seed + 1000 * i


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
    computed once.  Every batch, one shot and sweep points included, is one
    array computation: ``_run_kt_columns`` for the kicked top,
    ``_run_lmg_columns`` for the LMG loop."""
    points = params if isinstance(params, (list, tuple)) else [params]
    per, extra = divmod(n_shots, len(points))
    if per < 1 or extra:
        raise ValueError(
            f"n_shots ({n_shots}) must be a positive multiple of the "
            f"{len(points)} sweep point(s)"
        )
    cols = shared_columns(cfg, model.j_collective, sched)
    ps, rngs = zip(*[(p, shot_rng(point_seed(master_seed, i), j))
                     for i, p in enumerate(points) for j in range(per)])
    if sched is not None:
        return _run_kt_columns(cfg, sched, ps, model, rngs, cols)
    return _run_lmg_columns(cfg, ps, model, rngs, cols)
