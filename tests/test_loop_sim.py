import math

import numpy as np
import pytest

from spinloop.controller import qkt_schedule
from spinloop.loop_sim import (
    LoopConfig,
    latency_metric,
    run_batch,
    run_kt_loop,
    run_lmg_loop,
    shot_rng,
)
from spinloop.measurement import MeasurementModel
from spinloop.models import KtParams, LmgParams, kt_step, lmg_energy
from spinloop.spin_core import RotationNoise, SphericalAngles, SpinVector, from_angles

ALPHA_LIN = 2.0 * math.pi * 6.25e3
LMG07 = LmgParams(s=0.7, lambda_=ALPHA_LIN / 0.3)
MODEL = MeasurementModel()

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


def test_decay_tracks_half_time():
    cfg = LoopConfig(duration=1e-3, decay_half_time=2e-3)
    rec = run_lmg_loop(cfg, LMG07, MODEL, np.random.default_rng(0))
    i = len(rec.t) // 2  # t = 0.5 ms, a quarter half-time stack
    assert rec.j_true[i] == pytest.approx(MODEL.j_collective * 2 ** (-0.25), rel=1e-9)
    assert rec.j_est[i] == pytest.approx(rec.j_true[i], rel=1e-6)


def test_kt_loop_matches_iterated_map():
    sched = qkt_schedule(40e-6, 6e-6, 2e-6, 25)
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
    sched = qkt_schedule(40e-6, 6e-6, 2e-6, 5)
    cfg = LoopConfig(latency=4e-6, duration=1.3e-3, decay_half_time=None,
                     initial_state=SphericalAngles(math.pi / 2.0, 0.3),
                     rotation_noise=RotationNoise(fixed_detuning=delta))
    rec = run_kt_loop(cfg, sched, KtParams(alpha=0.0, k=0.0), MODEL,
                      np.random.default_rng(0))
    idx = [0] + list(rec.meta["strob_period_idx"])
    phi = np.unwrap(np.arctan2(rec.y[idx], rec.x[idx]))
    assert np.allclose(np.diff(phi), delta * sched.period, rtol=0.0, atol=1e-12)


def test_kt_loop_rejects_excess_latency():
    sched = qkt_schedule(40e-6, 6e-6, 2e-6, 25)
    cfg = LoopConfig(latency=8e-6, duration=1.3e-3, decay_half_time=None)
    with pytest.raises(ValueError):
        run_kt_loop(cfg, sched, KtParams(math.pi / 2, 1.0), MODEL,
                    np.random.default_rng(0))


def test_same_seed_reproduces_trajectory():
    cfg = LoopConfig(duration=2e-4, qpn=True, shot=True)
    model = MeasurementModel(sn_coeff=1e-2)
    a = run_lmg_loop(cfg, LMG07, model, shot_rng(9, 0))
    b = run_lmg_loop(cfg, LMG07, model, shot_rng(9, 0))
    assert np.array_equal(a.column_stack(), b.column_stack())


def test_batch_shot_isolated_reproducibility():
    cfg = LoopConfig(duration=1e-4, qpn=True)
    recs = run_batch(cfg, LMG07, MODEL, 4, master_seed=5)
    lone = run_lmg_loop(cfg, LMG07, MODEL, shot_rng(5, 2))
    assert np.array_equal(recs[2].column_stack(), lone.column_stack())


def test_batch_pool_no_wider_than_shots(monkeypatch):
    import concurrent.futures

    widths = []

    class SerialPool:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setenv("SPINLOOP_JOBS", "8")
    cfg = LoopConfig(duration=1e-4, qpn=True)
    recs = run_batch(cfg, LMG07, MODEL, 2, master_seed=5)
    assert widths == [2]
    lone = run_lmg_loop(cfg, LMG07, MODEL, shot_rng(5, 1))
    assert np.array_equal(recs[1].column_stack(), lone.column_stack())


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
