import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinloop import loop_sim
from spinloop.controller import (
    DEFAULT_FXP,
    DEFAULT_RATE_CAP,
    FixedPointFormat,
    QktSchedule,
    decay_estimate,
    kick_angle,
)
from spinloop.loop_sim import (
    ROTATION_NOT_FINITE,
    LoopConfig,
    TrajectoryRecord,
    _run_kt_columns,
    _run_lmg_columns,
    latency_metric,
    run_batch,
    run_kt_loop,
    run_lmg_loop,
    shared_columns,
    shot_rng,
)
from spinloop.measurement import MeasurementModel, measure
from spinloop.models import KtParams, LmgParams, kt_step, lmg_energy
from spinloop.spin_core import (
    RotationNoise,
    SphericalAngles,
    SpinVector,
    from_angles,
    rodrigues,
)

ALPHA_LIN = 2.0 * math.pi * 6.25e3
LMG07 = LmgParams(s=0.7, lambda_=ALPHA_LIN / 0.3)
MODEL = MeasurementModel()
KT_SCHED = QktSchedule(40e-6, 6e-6, 2e-6, 5)
KT25 = KtParams(alpha=math.pi / 2.0, k=2.5)

IDEAL = LoopConfig(
    sample_period=1e-7, latency=0.0, plant_dt=1e-7, duration=1.5e-3,
    decay_half_time=None,
)


def test_config_validation():
    with pytest.raises(ValueError):
        LoopConfig(sample_period=1e-7, plant_dt=2e-7)
    with pytest.raises(ValueError):
        LoopConfig(sample_period=2.5e-7, plant_dt=1e-7)
    with pytest.raises(ValueError):
        LoopConfig(latency=-1e-6)
    cfg = LoopConfig()
    assert cfg.steps_per_sample == 20
    assert cfg.latency_steps == 60
    assert cfg.n_samples == 750


def test_latency_metric():
    assert latency_metric(ALPHA_LIN, 6e-6) == pytest.approx(0.2356, abs=1e-4)


def test_ideal_loop_holds_fixed_point():
    z_star = math.sqrt(1.0 - (0.3 / 0.7) ** 2)
    theta = math.acos(z_star)
    cfg = LoopConfig(
        sample_period=2e-6, latency=0.0, plant_dt=1e-7, duration=1.5e-3,
        decay_half_time=None, initial_state=SphericalAngles(theta, 0.0),
    )
    rec = run_lmg_loop(cfg, LMG07, MODEL, np.random.default_rng(0))
    assert np.max(np.abs(rec.z - z_star)) < 1e-6


def test_ideal_loop_conserves_energy():
    cfg = LoopConfig(
        sample_period=1e-7, latency=0.0, plant_dt=1e-7, duration=2e-4,
        decay_half_time=None, initial_state=SphericalAngles(2.0, 0.5),
    )
    rec = run_lmg_loop(cfg, LMG07, MODEL, np.random.default_rng(0))
    e = [
        lmg_energy(SpinVector(x, y, z), LMG07)
        for x, y, z in zip(rec.x, rec.y, rec.z)
    ]
    assert max(e) - min(e) < 1e-3


def test_plant_is_exact_rotation():
    # s = 0 leaves only the linear drive: a rotation about x at alpha_lin,
    # so every sample must sit on the analytic circle
    cfg = LoopConfig(latency=0.0, decay_half_time=None,
                     initial_state=SphericalAngles(2.0, 0.5))
    rec = run_lmg_loop(cfg, LmgParams(s=0.0, lambda_=ALPHA_LIN), MODEL,
                       np.random.default_rng(0))
    v0 = from_angles(cfg.initial_state)
    c = np.cos(ALPHA_LIN * rec.t)
    s = np.sin(ALPHA_LIN * rec.t)
    assert rec.t[-1] == pytest.approx(1.5e-3 - cfg.sample_period)
    assert np.max(np.abs(rec.x - v0.x)) < 1e-12
    assert np.max(np.abs(rec.y - (v0.y * c - v0.z * s))) < 1e-12
    assert np.max(np.abs(rec.z - (v0.z * c + v0.y * s))) < 1e-12


def test_latency_enters_after_fifo_delay():
    # with a long latency the first feedback activation must not appear
    # before latency_steps plant steps have elapsed
    cfg = LoopConfig(sample_period=2e-6, latency=10e-6, duration=4e-5,
                     decay_half_time=None)
    rec = run_lmg_loop(cfg, LMG07, MODEL, np.random.default_rng(0))
    # ctl_z records the rate applied at the start of each sample window
    assert np.all(rec.ctl_z[:5] == 0.0)
    assert np.any(rec.ctl_z[5:] != 0.0)


def test_latency_with_sub_sample_remainder():
    # 5 us is d = 2 samples plus r = 10 plant steps: in sample k the rate
    # held at its start acts for r steps, then the rate computed from the
    # measurement of sample k - d takes over for the remaining sps - r
    cfg = LoopConfig(sample_period=2e-6, latency=5e-6, duration=2e-4,
                     decay_half_time=None, initial_state=SphericalAngles(2.0, 0.5))
    sps, d, r = cfg.steps_per_sample, 2, 10
    assert divmod(cfg.latency_steps, sps) == (d, r)
    rec = run_lmg_loop(cfg, LMG07, MODEL, np.random.default_rng(0))

    def hold(v, wx, wz, t):
        w = math.hypot(wx, wz)
        return rodrigues(*v, wx / w, 0.0, wz / w, -w * t)

    assert np.all(rec.ctl_z[:d + 1] == 0.0)
    for k in range(len(rec.t) - 1):
        v = (rec.x[k], rec.y[k], rec.z[k])
        v = hold(v, rec.ctl_x[k], rec.ctl_z[k], r * cfg.plant_dt)
        v = hold(v, rec.ctl_x[k], rec.ctl_z[k + 1], (sps - r) * cfg.plant_dt)
        got = (rec.x[k + 1], rec.y[k + 1], rec.z[k + 1])
        assert np.max(np.abs(np.subtract(v, got))) < 1e-12
        if k >= d:
            assert rec.ctl_z[k + 1] == _law(float(rec.meas[k - d]), MODEL.j_collective,
                                            LMG07.k_nl)
    # the feedback moves, so a split at the wrong step would show
    assert np.min(np.abs(np.diff(rec.ctl_z[d + 1:]))) > 10.0


def test_decay_tracks_half_time():
    cfg = LoopConfig(duration=1e-3, decay_half_time=2e-3)
    rec = run_lmg_loop(cfg, LMG07, MODEL, np.random.default_rng(0))
    i = len(rec.t) // 2  # t = 0.5 ms, a quarter half-time stack
    assert rec.j_true[i] == pytest.approx(MODEL.j_collective * 2 ** (-0.25), rel=1e-9)
    assert rec.j_est[i] == pytest.approx(rec.j_true[i], rel=1e-6)
    # the kicked top tracks j at each gap sample, here in fixed point
    fmt = FixedPointFormat(word_bits=24, int_bits=6)
    cfg = LoopConfig(latency=4e-6, duration=1.3e-3, decay_half_time=2e-4,
                     fixed_point=fmt)
    rec = run_kt_loop(cfg, QktSchedule(40e-6, 6e-6, 2e-6, 25), KtParams(1.0, 2.0),
                      MODEL, np.random.default_rng(0))
    gap = rec.meta["strob_gap_idx"]
    want = [decay_estimate(MODEL.j_collective, 2e-4, rec.t[k], fmt) for k in gap]
    assert list(rec.j_est[gap]) == want
    assert want[-1] < 0.02 * MODEL.j_collective


def test_kt_loop_matches_iterated_map():
    sched = QktSchedule(40e-6, 6e-6, 2e-6, 25)
    cfg = LoopConfig(latency=4e-6, plant_dt=1e-8, duration=1.3e-3,
                     decay_half_time=None, initial_state=SphericalAngles(2.0, 1.0))
    p = KtParams(alpha=math.pi / 2.0, k=2.5)
    rec = run_kt_loop(cfg, sched, p, MODEL, np.random.default_rng(0))
    idx = [0] + list(rec.meta["strob_period_idx"])
    # per-step comparison: one map application from the previous recorded
    # stroboscopic point, so chaos does not compound integrator error
    for n, (a, b) in enumerate(zip(idx, idx[1:])):
        v = SpinVector(rec.x[a], rec.y[a], rec.z[a]).normalized()
        w = kt_step(v, p)
        err = max(abs(rec.x[b] - w.x), abs(rec.y[b] - w.y), abs(rec.z[b] - w.z))
        assert err < 1e-8, f"step {n}: {err}"


def test_kt_loop_detuning_acts_over_whole_period():
    # with no linear rotation and no kick, a static detuning precesses the
    # spin about z through the linear segment, the gap and the kick alike
    delta = 2.0 * math.pi * 500.0
    sched = QktSchedule(40e-6, 6e-6, 2e-6, 5)
    cfg = LoopConfig(latency=4e-6, duration=1.3e-3, decay_half_time=None,
                     initial_state=SphericalAngles(math.pi / 2.0, 0.3),
                     rotation_noise=RotationNoise(fixed_detuning=delta))
    rec = run_kt_loop(cfg, sched, KtParams(alpha=0.0, k=0.0), MODEL,
                      np.random.default_rng(0))
    idx = [0] + list(rec.meta["strob_period_idx"])
    phi = np.unwrap(np.arctan2(rec.y[idx], rec.x[idx]))
    assert np.allclose(np.diff(phi), delta * sched.period, rtol=0.0, atol=1e-12)


def test_kt_loop_rejects_excess_latency():
    sched = QktSchedule(40e-6, 6e-6, 2e-6, 25)
    cfg = LoopConfig(latency=8e-6, duration=1.3e-3, decay_half_time=None)
    p = KtParams(math.pi / 2, 1.0)
    with pytest.raises(ValueError):
        run_kt_loop(cfg, sched, p, MODEL, np.random.default_rng(0))
    # the batch paths, through the layout shared_columns checks
    for n in (1, 10):
        with pytest.raises(ValueError, match="measurement gap"):
            run_batch(cfg, p, MODEL, n, master_seed=0, sched=sched)


def _refuses_layout(cfg, sched, match):
    """run_kt_loop, and run_batch of one shot and of ten, raise ValueError
    matching match."""
    p = KtParams(math.pi / 2, 1.0)
    with pytest.raises(ValueError, match=match):
        run_kt_loop(cfg, sched, p, MODEL, np.random.default_rng(0))
    for n in (1, 10):
        with pytest.raises(ValueError, match=match):
            run_batch(cfg, p, MODEL, n, master_seed=0, sched=sched)


def test_kt_loop_rejects_empty_segment():
    # at a 10 us sample period the 2 us kick rounds to no sample at all
    cfg = LoopConfig(sample_period=1e-5, latency=4e-6, duration=1.3e-3,
                     decay_half_time=None)
    _refuses_layout(cfg, QktSchedule(40e-6, 10e-6, 2e-6, 25),
                    r"^kt\.t_kick \(2e-06 s\) is not a positive whole number of samples "
                    r"of loop\.sample_period \(1e-05 s\)$")


@pytest.mark.parametrize("sample_period,sched,name", [
    # 40 us is 13.3 samples of 3 us and the 2 us kick 0.67: the rounded
    # layout (13, 2, 1) held a 1 rad kick for 3 us, a 1.5 rad turn
    (3e-6, QktSchedule(40e-6, 6e-6, 2e-6, 1), "t_linear"),
    (2e-6, QktSchedule(41e-7, 6e-6, 2e-6, 1), "t_linear"),
    (2e-6, QktSchedule(40e-6, 5e-6, 2e-6, 1), "t_gap"),
], ids=["3us", "4.1us", "gap"])
def test_kt_loop_rejects_segment_off_the_clock(sample_period, sched, name):
    cfg = LoopConfig(sample_period=sample_period, plant_dt=sample_period, latency=0.0,
                     duration=1e-4, decay_half_time=None)
    _refuses_layout(cfg, sched, rf"^kt\.{name} \(.*\) is not a positive whole number "
                    rf"of samples of loop\.sample_period \({sample_period:g} s\)$")


def test_kt_record_layout():
    # 40/6/2 us at a 2 us sample period: 20 linear, 3 gap and 1 kick sample
    n_lin, n_gap, n_kick = 20, 3, 1
    n_per = n_lin + n_gap + n_kick
    cfg = LoopConfig(latency=4e-6, duration=3e-4, decay_half_time=2e-4,
                     initial_state=SphericalAngles(2.0, 1.0))
    rec = run_kt_loop(cfg, KT_SCHED, KT25, MODEL, np.random.default_rng(0))
    gap = rec.meta["strob_gap_idx"]
    starts = np.arange(KT_SCHED.n_steps) * n_per
    assert len(rec.t) == KT_SCHED.n_steps * n_per + 1
    assert gap == list(starts + n_lin)
    assert rec.meta["strob_period_idx"] == [(i + 1) * n_per for i in range(len(gap))]

    def samples(first, m):
        return np.sort(np.add.outer(first, np.arange(m)).ravel())

    assert np.array_equal(np.flatnonzero(np.isfinite(rec.meas)), gap)
    assert np.array_equal(np.flatnonzero(np.isfinite(rec.j_est)),
                          samples(starts + n_lin, n_gap))
    assert np.array_equal(np.flatnonzero(rec.ctl_x), samples(starts, n_lin))
    assert np.array_equal(np.flatnonzero(rec.ctl_z),
                          samples(starts + n_lin + n_gap, n_kick))


def test_same_seed_reproduces_trajectory():
    cfg = LoopConfig(duration=2e-4, qpn=True)
    model = MeasurementModel(sn_coeff=1e-2)
    a = run_lmg_loop(cfg, LMG07, model, shot_rng(9, 0))
    b = run_lmg_loop(cfg, LMG07, model, shot_rng(9, 0))
    assert np.array_equal(a.column_stack(), b.column_stack())


BATCH_CASES = (
    (LoopConfig(duration=1e-4, qpn=True), MODEL),
    # fixed-point decay tracker with projection and photon shot noise
    (
        LoopConfig(duration=1e-4, qpn=True, decay_half_time=5e-5,
                   fixed_point=FixedPointFormat(word_bits=24, int_bits=6)),
        replace(MODEL, sn_coeff=0.2),
    ),
)


KT_BATCH_CASES = (
    (LoopConfig(latency=4e-6, duration=3e-4, decay_half_time=None), MODEL),
    # fixed-point decay tracker with projection and photon shot noise
    (
        LoopConfig(latency=4e-6, duration=3e-4, qpn=True,
                   decay_half_time=1e-4,
                   fixed_point=FixedPointFormat(word_bits=24, int_bits=6)),
        replace(MODEL, sn_coeff=0.2),
    ),
)


def _hold(x, y, z, wx, wz, t):
    """Exact flow of dv/dt = omega x v for time t, omega = (wx, 0, wz), on
    Python floats; ValueError(ROTATION_NOT_FINITE) if the angle |omega| t is
    not finite."""
    # not math.hypot: np.hypot rounds differently, and the kernels'
    # _rotation matches this bit for bit
    w = math.sqrt(wx * wx + wz * wz)
    if w == 0.0:
        return x, y, z
    angle = -w * t
    if not math.isfinite(angle):
        raise ValueError(ROTATION_NOT_FINITE)
    return rodrigues(x, y, z, wx / w, 0.0, wz / w, angle)


def _law(m, j_est, k_nl):
    """The LMG feedback law on Python floats, stated apart from the kernel's
    ``controller.lmg_control``: k_nl * clamp(m / j_est, -1, 1), capped at
    DEFAULT_RATE_CAP.  An overflowing ratio is inf, which clamps."""
    z_est = max(-1.0, min(1.0, m / j_est))
    return max(-DEFAULT_RATE_CAP, min(DEFAULT_RATE_CAP, k_nl * z_est))


def _lmg_reference(cfg, p, model, rng):
    """One LMG shot on Python floats, the reference the kernel is checked
    against: ``_shot_start``'s draws, then per sample ``measure``, ``_law``
    on that one value, and one ``_hold`` of the held rate, two when the
    delay's r plant steps split the sample."""
    n = cfg.n_samples
    sps = cfg.steps_per_sample
    d, r = divmod(cfg.latency_steps, sps)
    dt = cfg.plant_dt
    t, j_true, j_est = shared_columns(cfg, model.j_collective)
    detuning, amp, (x, y, z), qpn_offset = loop_sim._shot_start(cfg, model, rng)
    wx = amp * p.alpha_lin
    xyz, ms, cz, rates = np.empty((n, 3)), np.empty(n), np.empty(n), np.empty(n)
    applied = 0.0
    for k in range(n):
        value = measure(max(-1.0, min(1.0, z)), j_true[k], model, cfg.sample_period,
                        rng, qpn_offset=qpn_offset)
        rates[k] = _law(value, j_est[k], p.k_nl)
        xyz[k] = x, y, z
        ms[k] = value
        cz[k] = applied
        held = sps
        if k >= d:
            if r:
                x, y, z = _hold(x, y, z, wx, amp * applied + detuning, r * dt)
                held = sps - r
            applied = float(rates[k - d])
        x, y, z = _hold(x, y, z, wx, amp * applied + detuning, held * dt)
    meta = {"final_state": (x, y, z), "model": "lmg",
            "params": {"s": p.s, "lambda": p.lambda_}}
    return TrajectoryRecord(np.array(t), *xyz.T, np.array(j_true), ms, cz, np.full(n, wx),
                            np.array(j_est), meta)


def _kt_reference(cfg, sched, p, model, rng):
    """One kicked-top shot on Python floats, the reference the kernel is
    checked against: ``_shot_start``'s draws, then per period one ``_hold``
    of each sample's segment rate, ``measure`` on the gap sample, and
    ``kick_angle`` on that one value.  A k that saturates the fixed-point
    word is refused first (``check_word``), as on the library path."""
    n_lin, n_gap, n_kick, n = loop_sim._kt_layout(cfg, sched)
    loop_sim.check_word(cfg, sched, (p.k,))
    n_per = n_lin + n_gap + n_kick
    t, j_true, j_est = shared_columns(cfg, model.j_collective, sched)
    detuning, amp, v, qpn_offset = loop_sim._shot_start(cfg, model, rng)
    ts = cfg.sample_period
    w_lin = -amp * p.alpha / sched.t_linear
    xyz = np.empty((n, 3))
    meas, j_col = np.full(n, math.nan), np.full(n, math.nan)
    ctl_z, ctl_x = np.zeros(n), np.zeros(n)

    def hold(k, m, wx, wz):
        nonlocal v
        for i in range(k, k + m):
            xyz[i] = v
            v = _hold(*v, wx, wz, ts)

    for step, lin in enumerate(range(0, n - 1, n_per)):
        gap, kick = lin + n_lin, lin + n_lin + n_gap
        hold(lin, n_lin, w_lin, detuning)
        value = measure(max(-1.0, min(1.0, v[2])), j_true[gap], model, ts, rng,
                        qpn_offset=qpn_offset)
        angle = float(kick_angle(value / j_est[step], p.k, cfg.fixed_point))
        kick_rate = amp * angle / sched.t_kick
        hold(gap, n_gap, 0.0, detuning)
        hold(kick, n_kick, 0.0, kick_rate + detuning)
        ctl_x[lin:gap] = w_lin
        meas[gap] = value
        j_col[gap:kick] = j_est[step]
        ctl_z[kick:kick + n_kick] = kick_rate
    xyz[n - 1] = v
    meta = {"final_state": v, "model": "kt",
            "params": {"alpha": p.alpha, "k": p.k, "tau": sched.period},
            "strob_gap_idx": list(range(n_lin, n - 1, n_per)),
            "strob_period_idx": list(range(n_per, n, n_per))}
    return TrajectoryRecord(np.array(t), *xyz.T, np.array(j_true), meas, ctl_z, ctl_x,
                            j_col, meta)


def _same_record(a, b):
    # bytes also tell -0.0 from 0.0, which array_equal does not
    return (a.column_stack().tobytes() == b.column_stack().tobytes()
            and a.meta == b.meta
            and all(type(v) is float for v in a.meta["final_state"]))


def test_batch_shot_isolated_reproducibility():
    for cfg, model in BATCH_CASES:
        recs = run_batch(cfg, LMG07, model, 4, master_seed=5)
        lone = run_lmg_loop(cfg, LMG07, model, shot_rng(5, 2))
        assert np.array_equal(recs[2].column_stack(), lone.column_stack())
    for cfg, model in KT_BATCH_CASES:
        recs = run_batch(cfg, KT25, model, 4, master_seed=5, sched=KT_SCHED)
        lone = run_kt_loop(cfg, KT_SCHED, KT25, model, shot_rng(5, 2))
        assert _same_record(recs[2], lone)


def test_batch_starts_no_process_pool(monkeypatch):
    # SPINLOOP_JOBS is no longer read: no process pool starts, and every
    # record still equals its Python-float reference
    import concurrent.futures
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    monkeypatch.setenv("SPINLOOP_JOBS", "8")
    for cfg, model in BATCH_CASES:
        for n in (1, 8):
            recs = run_batch(cfg, LMG07, model, n, master_seed=5)
            for i, rec in enumerate(recs):
                assert _same_record(rec, _lmg_reference(cfg, LMG07, model, shot_rng(5, i)))
    for cfg, model in KT_BATCH_CASES:
        recs = run_batch(cfg, KT25, model, 2, master_seed=5, sched=KT_SCHED)
        for i, rec in enumerate(recs):
            assert _same_record(rec, _kt_reference(cfg, KT_SCHED, KT25, model, shot_rng(5, i)))


KERNEL_NOISE = RotationNoise(static_detuning_sigma=300.0, amplitude_error_sigma=0.01)


# 14 us is a 7-sample window against 100 samples; from 200 us on, one
# window is the whole run and no feedback arrives
@pytest.mark.parametrize("latency", [0.0, 0.1e-6, 1.3e-6, 2e-6, 5e-6, 6e-6, 13e-6,
                                     14e-6, 2e-4, 3.01e-4])
@pytest.mark.parametrize("fixed_point", [False, True])
@pytest.mark.parametrize("noise", [None, KERNEL_NOISE])
def test_array_kernel_matches_scalar_loop(latency, fixed_point, noise):
    fmt = FixedPointFormat(word_bits=24, int_bits=6) if fixed_point else None
    cfg = LoopConfig(latency=latency, duration=2e-4, qpn=True,
                     decay_half_time=1e-4 if fixed_point else None, fixed_point=fmt,
                     rotation_noise=noise)
    model = replace(MODEL, sn_coeff=0.2)
    cols = shared_columns(cfg, model.j_collective)
    # s = 1 has no linear drive: with no detuning its rate is exactly zero
    # until the first feedback arrives
    s1 = replace(LMG07, s=1.0)
    for n in (1, 7, 9):
        params = [(s1, LMG07)[c % 2] for c in range(n)]
        recs = _run_lmg_columns(cfg, params, model, [shot_rng(3, c) for c in range(n)], cols)
        for c, (p, rec) in enumerate(zip(params, recs)):
            assert _same_record(rec, _lmg_reference(cfg, p, model, shot_rng(3, c)))
    if noise is None and latency >= cfg.sample_period:
        still, moved = recs[0], recs[1]
        assert [still.x[1], still.y[1], still.z[1]] == [still.x[0], still.y[0], still.z[0]]
        assert moved.z[1] != moved.z[0]


def _outcome(run):
    """run()'s result, or the text of the ValueError it raised."""
    try:
        return run()
    except ValueError as e:
        return str(e)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(
    # the delay in plant steps: 20 to a sample, so most draws leave a
    # sub-sample remainder
    delay=st.integers(0, 130),
    half=st.sampled_from([None, 5e-5, 1e-3]),
    fmt=st.sampled_from([None, FixedPointFormat(word_bits=24, int_bits=6),
                         FixedPointFormat(word_bits=48, int_bits=8)]),
    qpn=st.booleans(),
    sn_coeff=st.sampled_from([0.0, 0.2]),
    noise=st.booleans(),
    n=st.sampled_from([1, 2, 9]),
    duration=st.sampled_from([2e-6, 3e-5, 1e-4]),
    ss=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    # column 0 at the overflow edge: from lambda = 1e300 the drive's square
    # overflows
    edge=st.one_of(st.none(), st.sampled_from([1e100, 1e300])),
)
def test_lmg_kernel_matches_reference_on_drawn_loops(delay, half, fmt, qpn, sn_coeff, noise,
                                                     n, duration, ss, edge):
    # every column of one kernel batch equals the Python-float reference on
    # its own stream, bit for bit, or both raise the same error; the last
    # column equals its one-column run, and the spin stays on the sphere
    cfg = LoopConfig(latency=delay * 1e-7, duration=duration, qpn=qpn,
                     decay_half_time=half, fixed_point=fmt,
                     rotation_noise=KERNEL_NOISE if noise else None)
    assert cfg.latency_steps == delay
    model = replace(MODEL, sn_coeff=sn_coeff)
    params = [replace(LMG07, s=ss[c % len(ss)]) for c in range(n)]
    if edge:
        params[0] = replace(params[0], lambda_=edge)
    recs = _outcome(lambda: _run_lmg_columns(
        cfg, params, model, [shot_rng(7, c) for c in range(n)],
        shared_columns(cfg, model.j_collective)))
    refs = [_outcome(lambda: _lmg_reference(cfg, p, model, shot_rng(7, c)))
            for c, p in enumerate(params)]
    if isinstance(recs, str):
        assert recs in refs
        return
    for rec, ref in zip(recs, refs):
        assert _same_record(rec, ref)
        assert np.all(np.abs(np.sqrt(rec.x**2 + rec.y**2 + rec.z**2) - 1.0) <= 1e-12)
    assert _same_record(recs[-1], run_lmg_loop(cfg, params[-1], model, shot_rng(7, n - 1)))


@pytest.mark.parametrize("latency", [0.0, 2e-6, 4e-6])
@pytest.mark.parametrize("word_bits", [None, 24, 64])
@pytest.mark.parametrize("noise", [None, KERNEL_NOISE])
def test_kt_array_kernel_matches_scalar_loop(latency, word_bits, noise):
    # float arithmetic, or a fixed-point decay tracker; a 64-bit word needs
    # products wider than numpy int64
    fmt = FixedPointFormat(word_bits=word_bits, int_bits=6) if word_bits else None
    cfg = LoopConfig(latency=latency, duration=3e-4, qpn=True,
                     decay_half_time=1e-4 if fmt else None, fixed_point=fmt,
                     rotation_noise=noise, initial_state=SphericalAngles(2.0, 1.0))
    model = replace(MODEL, sn_coeff=0.2)
    cols = shared_columns(cfg, model.j_collective, KT_SCHED)
    # k = 0 makes the kick rate exactly zero; k = +-20 wraps several times
    for n in (1, 9, 11):
        params = [KtParams(alpha=(1.0, math.pi / 2.0)[c // 4 % 2],
                           k=(0.0, 2.7, 20.0, -20.0)[c % 4])
                  for c in range(n)]
        recs = _run_kt_columns(cfg, KT_SCHED, params, model,
                               [shot_rng(3, c) for c in range(n)], cols)
        for c, (p, rec) in enumerate(zip(params, recs)):
            assert _same_record(rec, _kt_reference(cfg, KT_SCHED, p, model, shot_rng(3, c)))
    if noise is None:
        # the kick sample of the first period, and the period boundary after it
        still, moved = recs[0], recs[1]
        kick = still.meta["strob_period_idx"][0] - 1
        assert still.ctl_z[kick] == 0.0 and moved.ctl_z[kick] != 0.0
        assert ([still.x[kick + 1], still.y[kick + 1], still.z[kick + 1]]
                == [still.x[kick], still.y[kick], still.z[kick]])
        assert moved.x[kick + 1] != moved.x[kick]


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(
    # samples in the linear, gap and kick segments, and periods
    segs=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 2)),
    n_steps=st.integers(1, 4),
    delay=st.floats(0.0, 1.0),  # latency as a fraction of kt.t_gap
    half=st.sampled_from([None, 1e-6, 1e-4]),
    fmt=st.sampled_from([None, FixedPointFormat(word_bits=24, int_bits=6),
                         FixedPointFormat(word_bits=48, int_bits=8),
                         FixedPointFormat(word_bits=64, int_bits=12)]),
    qpn=st.booleans(),
    sn_coeff=st.sampled_from([0.0, 0.2]),
    noise=st.booleans(),
    n=st.sampled_from([1, 2, 9]),
    alphas=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=3),
    ks=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=3),
    # column 0 at an edge: |k|/pi = 32, 128 and 2048 saturate the three
    # words, and from alpha = 1e300 the drive's square overflows
    edge=st.one_of(st.none(), st.sampled_from([
        ("alpha", 1e100), ("alpha", 1e300), ("k", 100.0), ("k", 101.0), ("k", 402.0),
        ("k", 403.0), ("k", 6434.0), ("k", 6435.0), ("k", 1e300)])),
)
def test_kt_kernel_matches_reference_on_drawn_loops(segs, n_steps, delay, half, fmt, qpn,
                                                    sn_coeff, noise, n, alphas, ks, edge):
    # every column of one kernel batch equals the Python-float reference on
    # its own stream, bit for bit, or both raise the same error; the last
    # column equals its one-column run, and the spin stays on the sphere
    ts = LoopConfig.sample_period
    sched = QktSchedule(*(m * ts for m in segs), n_steps)
    cfg = LoopConfig(latency=delay * sched.t_gap, plant_dt=ts,
                     duration=n_steps * sum(segs) * ts, qpn=qpn, decay_half_time=half,
                     fixed_point=fmt, rotation_noise=KERNEL_NOISE if noise else None)
    model = replace(MODEL, sn_coeff=sn_coeff)
    params = [KtParams(alpha=alphas[c % len(alphas)], k=ks[c % len(ks)]) for c in range(n)]
    if edge:
        params[0] = replace(params[0], **dict([edge]))
    recs = _outcome(lambda: _run_kt_columns(
        cfg, sched, params, model, [shot_rng(7, c) for c in range(n)],
        shared_columns(cfg, model.j_collective, sched)))
    refs = [_outcome(lambda: _kt_reference(cfg, sched, p, model, shot_rng(7, c)))
            for c, p in enumerate(params)]
    if isinstance(recs, str):
        assert recs in refs
        return
    for rec, ref in zip(recs, refs):
        assert _same_record(rec, ref)
        assert np.all(np.abs(np.sqrt(rec.x**2 + rec.y**2 + rec.z**2) - 1.0) <= 1e-12)
    assert _same_record(recs[-1], run_kt_loop(cfg, sched, params[-1], model,
                                              shot_rng(7, n - 1)))


def test_library_refuses_fixed_point_saturation():
    # parse_config's bounds hold on the library path: a kick whose |k|/pi
    # rounds past the (32, 4) word's largest value, 8, in a batch of one shot
    # and of ten, and a decay exponent past its least value, -8
    cfg = LoopConfig(latency=2e-6, duration=3e-4, decay_half_time=None,
                     fixed_point=DEFAULT_FXP)
    for n in (1, 10):
        for params in (KtParams(k=30), [KtParams(k=2.7), KtParams(k=-30)]):
            with pytest.raises(ValueError, match=r"^kt\.k: \|k\|/pi \(9\.5493\) saturates "
                               r"the fixed-point word \(loop\.word_bits = 32, "):
                run_batch(cfg, params, MODEL, 2 * n, 1, sched=KT_SCHED)
        assert len(run_batch(cfg, KtParams(k=25), MODEL, n, 1, sched=KT_SCHED)) == n
    # the LMG loop's last measurement is at 149 samples, 2.98e-4 s
    cfg = replace(cfg, decay_half_time=2.5e-5)
    for n in (1, 8):
        with pytest.raises(ValueError, match=r"^loop\.decay_half_time: the decay exponent "
                           r"-t ln2 / decay_half_time reaches -8\.26\d* at the last"):
            run_batch(cfg, LMG07, MODEL, n, 1)
        run_batch(replace(cfg, decay_half_time=2.6e-5), LMG07, MODEL, n, 1)


def test_library_refuses_non_finite_drive():
    # a quiet NaN rate sets no numpy flag, so a kernel would return NaN
    # records: the parameters refuse it, for LMG batches of one shot and of
    # eight and for a kicked-top column
    cfg = LoopConfig(latency=2e-6, duration=3e-4, decay_half_time=None)
    for bad in (math.nan, math.inf, -math.inf):
        for n in (1, 8):
            with pytest.raises(ValueError, match=r"^lambda_ \(.*\) must be finite and >= 0$"):
                run_batch(cfg, LmgParams(s=0.7, lambda_=bad), MODEL, n, 1)
        for name in ("alpha", "k"):
            with pytest.raises(ValueError, match=rf"^{name} \(.*\) must be finite$"):
                run_batch(cfg, replace(KT25, **{name: bad}), MODEL, 1, 1, sched=KT_SCHED)


def _start_at(**angle):
    return LoopConfig(initial_state=replace(SphericalAngles(1.0, 0.0), **angle))


# (constructor of one keyword, the field it sets): every noise setting and
# timing a loop reads
SETTINGS = [
    *((MeasurementModel, name) for name in ("n1_eff", "ratio_n2_n1", "f", "sn_coeff")),
    *((RotationNoise, name) for name in ("fixed_detuning", "static_detuning_sigma",
                                         "amplitude_error_sigma", "phase_noise_sigma",
                                         "rabi_rate")),
    *((LoopConfig, name) for name in ("sample_period", "latency", "plant_dt", "duration",
                                      "decay_half_time")),
    (_start_at, "theta"), (_start_at, "phi"),
]


@pytest.mark.parametrize("make, name", SETTINGS,
                         ids=[f"{m.__name__}.{n}" for m, n in SETTINGS])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_library_refuses_non_finite_settings(make, name, bad):
    # parse_config's finite-number rule holds on the library path: a NaN
    # sn_coeff or detuning would run to NaN records, a NaN detuning sigma
    # would act as 0, and an infinite duration overflows n_samples
    with pytest.raises(ValueError, match=rf"^{name} \({bad!r}\) must be finite$"):
        make(**{name: bad})


def test_overflowing_measurement_ratio_clamps():
    # a subnormal spin length makes measurement / tracked length overflow:
    # the ratio clamps to +-1, as _law's Python division does, at one
    # shot and at eight, with no ROTATION_NOT_FINITE
    cfg = LoopConfig(duration=1e-4, decay_half_time=None)
    model = MeasurementModel(n1_eff=1e-310, f=0.5, sn_coeff=1.0)
    p = LmgParams(s=0.7)
    one, eight = (run_batch(cfg, p, model, n, 1) for n in (1, 8))
    for i, rec in enumerate(eight):
        assert _same_record(rec, _lmg_reference(cfg, p, model, shot_rng(1, i)))
    assert _same_record(one[0], eight[0])
    # the default 6 us delay: the first rate arrives in sample d + 1 = 4
    assert np.all(np.abs(eight[0].ctl_z[4:]) == p.k_nl)


def test_kernel_records_share_read_only_columns():
    # an array batch holds one t, j_true and j_est for all its records
    cfg, model = BATCH_CASES[1]
    kt_cfg, kt_model = KT_BATCH_CASES[1]
    for recs in (run_batch(cfg, LMG07, model, 8, master_seed=5),
                 run_batch(kt_cfg, KT25, kt_model, 2, master_seed=5, sched=KT_SCHED)):
        for name in ("t", "j_true", "j_est"):
            col = getattr(recs[0], name)
            assert not col.flags.writeable
            assert all(getattr(rec, name) is col for rec in recs)


def test_batch_sweep_points_stack():
    # point i runs on the streams of master_seed + 1000 i, kicked top too
    cfg, model = BATCH_CASES[1]
    points = [replace(LMG07, s=s) for s in (0.5, 0.7, 0.8)]
    recs = run_batch(cfg, points, model, 9, master_seed=5)
    for i, p in enumerate(points):
        for j in range(3):
            lone = run_lmg_loop(cfg, p, model, shot_rng(5 + 1000 * i, j))
            assert _same_record(recs[3 * i + j], lone)
    cfg, model = KT_BATCH_CASES[1]
    points = [KT25, replace(KT25, alpha=1.0)]
    recs = run_batch(cfg, points, model, 4, master_seed=5, sched=KT_SCHED)
    lone = run_kt_loop(cfg, KT_SCHED, points[1], model, shot_rng(1005, 1))
    assert _same_record(recs[3], lone)
    with pytest.raises(ValueError, match="multiple"):
        run_batch(cfg, points, model, 3, master_seed=5, sched=KT_SCHED)


def test_batch_streams_differ():
    cfg = LoopConfig(duration=1e-4, qpn=True)
    recs = run_batch(cfg, LMG07, MODEL, 3, master_seed=5)
    assert not np.array_equal(recs[0].column_stack(), recs[1].column_stack())


def test_qpn_tilt_statistics():
    # initial polar tilt from +y should be Gaussian at the pointing scale
    cfg = LoopConfig(duration=4e-6, qpn=True,
                     initial_state=SphericalAngles(math.pi / 2.0, math.pi / 2.0))
    ys = [
        run_lmg_loop(cfg, LmgParams(s=0.0, lambda_=0.0), MODEL, shot_rng(1, i)).y[0]
        for i in range(400)
    ]
    tilts = np.arccos(np.clip(ys, -1.0, 1.0))  # |sigma * N(0,1)|, half-normal
    assert np.mean(tilts) == pytest.approx(2.5e-4 * math.sqrt(2.0 / math.pi), rel=0.2)


def test_rotation_coefficients_are_full_shape(monkeypatch):
    # every _rotation entry either kernel turns its plant by holds cos, sin
    # and 1 - cos at the plant's (3, columns) shape, rows with still
    # columns included: a zero drive leaves the first sweep point's columns
    # still beside moving ones.  Each column still equals its reference.
    rotation = loop_sim._rotation
    stills = []

    def checked(wx, wz, t):
        rots = rotation(wx, wz, t)
        m = wz.shape[-1]
        for rot in rots:
            if rot is not None:
                axis, c, s, omc, still = rot
                assert axis.shape == (3, 3, m)
                assert c.shape == s.shape == omc.shape == (3, m)
                stills.append(still is not None)
        return rots

    monkeypatch.setattr(loop_sim, "_rotation", checked)
    cfg, model = BATCH_CASES[1]
    points = [LmgParams(s=0.7, lambda_=0.0), LMG07]
    recs = run_batch(cfg, points, model, 4, master_seed=5)
    for k, rec in enumerate(recs):
        ref = _lmg_reference(cfg, points[k // 2], model, shot_rng(5 + 1000 * (k // 2), k % 2))
        assert _same_record(rec, ref)
    assert any(stills)
    stills.clear()
    cfg, model = KT_BATCH_CASES[1]
    points = [KtParams(alpha=0.0, k=0.0), KT25]
    recs = run_batch(cfg, points, model, 4, master_seed=5, sched=KT_SCHED)
    for k, rec in enumerate(recs):
        ref = _kt_reference(cfg, KT_SCHED, points[k // 2], model,
                            shot_rng(5 + 1000 * (k // 2), k % 2))
        assert _same_record(rec, ref)
    assert any(stills)


def test_kt_records_own_their_strob_lists():
    # the stroboscopic index lists are built once per batch, and each record
    # holds its own copy, so editing one record's meta edits no other
    cfg, model = KT_BATCH_CASES[0]
    recs = run_batch(cfg, [KT25, replace(KT25, alpha=1.0)], model, 4, master_seed=5,
                     sched=KT_SCHED)
    for key in ("strob_gap_idx", "strob_period_idx"):
        lists = [rec.meta[key] for rec in recs]
        assert all(idx == lists[0] for idx in lists)
        assert len({id(idx) for idx in lists}) == len(lists)


def test_kt_kernel_clamps_an_overflowing_measurement_ratio():
    # a subnormal spin length makes measurement / tracked length overflow in
    # the kicked top too: the ratio clamps to +-1, as _kt_reference's Python
    # division to inf does, at one shot and at eight, with no
    # ROTATION_NOT_FINITE
    cfg = LoopConfig(latency=4e-6, duration=3e-4, decay_half_time=None)
    model = MeasurementModel(n1_eff=1e-310, f=0.5, sn_coeff=1.0)
    one, eight = (run_batch(cfg, KT25, model, n, 1, sched=KT_SCHED) for n in (1, 8))
    for i, rec in enumerate(eight):
        assert _same_record(rec, _kt_reference(cfg, KT_SCHED, KT25, model, shot_rng(1, i)))
    assert _same_record(one[0], eight[0])
