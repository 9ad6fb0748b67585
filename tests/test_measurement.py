import math

import numpy as np
import pytest

from spinloop.measurement import (
    MeasurementModel,
    averaging_scan,
    composite_pulse_scan,
    measure,
    noise_budget_fit,
    pointing_uncertainty,
    qpn_variance,
    shot_noise_variance,
    signal,
)
from spinloop.spin_core import RotationNoise


def test_model_validation():
    with pytest.raises(ValueError):
        MeasurementModel(n1_eff=0.0)
    with pytest.raises(ValueError):
        MeasurementModel(ratio_n2_n1=1.5)
    with pytest.raises(ValueError):
        MeasurementModel(f=0.0)


def test_default_noise_scales():
    m = MeasurementModel()
    assert qpn_variance(m) == pytest.approx(1e6)  # 0.5 * 1e6 * 4/2
    assert m.j_collective == pytest.approx(4e6)
    assert pointing_uncertainty(m) == pytest.approx(2.5e-4)


def test_shot_noise_inverse_time():
    m = MeasurementModel(sn_coeff=3e-3)
    assert shot_noise_variance(m, 1e-3) == pytest.approx(3.0)
    assert shot_noise_variance(m, 2e-3) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        shot_noise_variance(m, 0.0)
    # a variance that overflows is refused, not returned as inf
    with pytest.raises(ValueError, match="not finite"):
        shot_noise_variance(MeasurementModel(sn_coeff=1e303), 2e-6)
    with pytest.raises(ValueError, match="not finite"):
        shot_noise_variance(m, 5e-324)


def test_measure_decomposition_and_mean():
    m = MeasurementModel(sn_coeff=1e-2)
    rng = np.random.default_rng(0)
    value = measure(0.5, m.j_collective, m, 2e-6, rng)
    # replay the two draws: the projection-noise offset, then the shot noise
    replay = np.random.default_rng(0)
    m_qpn = math.sqrt(qpn_variance(m)) * replay.standard_normal()
    m_sn = math.sqrt(shot_noise_variance(m, 2e-6)) * replay.standard_normal()
    assert value == 0.5 * 4e6 + m_qpn + m_sn
    with pytest.raises(ValueError):
        measure(1.5, 4e6, m, 2e-6, rng)


def test_signal_is_measure_on_the_same_normals():
    # the array sum equals measure, element by element, on the same stream:
    # z is clamped to +-1 first, as the kernels clamp it before measure
    m = MeasurementModel(sn_coeff=1e-2)
    t_avg = 2e-6
    zs = np.array([0.0, -0.0, 1.0, -1.0, 1.0 + 1e-13, -1.0 - 1e-13, 0.3, -0.7])
    js = np.array([4e6, 4e6, 1.0, 3e5, 4e6, 4e6, 2.5e6, 5e-324])
    qpn = math.sqrt(qpn_variance(m)) * 1.25
    normals = np.random.default_rng(3).standard_normal(len(zs))
    got = signal(js, zs, qpn, math.sqrt(shot_noise_variance(m, t_avg)) * normals)
    for k, (z, j) in enumerate(zip(zs.tolist(), js.tolist())):
        replay = np.random.default_rng(3)
        replay.standard_normal(k)  # the normals before this one
        want = measure(max(-1.0, min(1.0, z)), j, m, t_avg, replay, qpn_offset=qpn)
        assert got[k].tobytes() == np.float64(want).tobytes()
    out = np.empty(len(zs))
    assert signal(js, zs, qpn, 0.0, out=out) is out


def test_measure_frozen_offset_reused():
    m = MeasurementModel()  # sn_coeff = 0: no shot noise
    rng = np.random.default_rng(1)
    j = m.j_collective
    assert measure(0.0, j, m, 2e-6, rng, qpn_offset=123.0) == 123.0
    assert measure(0.1, j, m, 2e-6, rng, qpn_offset=123.0) == 0.1 * j + 123.0


def test_measure_variance_matches_budget():
    m = MeasurementModel(sn_coeff=2e-3)
    rng = np.random.default_rng(2)
    t_avg = 2e-6
    vals = np.array(
        [measure(0.0, m.j_collective, m, t_avg, rng) for _ in range(20000)]
    )
    want = qpn_variance(m) + shot_noise_variance(m, t_avg)
    assert np.var(vals, ddof=1) == pytest.approx(want, rel=0.05)


def test_noise_budget_fit_recovers_coefficients():
    rng = np.random.default_rng(42)
    c = (1e5, 2.0, 3e-6)
    pts = []
    for n1 in np.logspace(4, 7, 10):
        var = c[0] + c[1] * n1 + c[2] * n1**2
        draws = math.sqrt(var) * rng.standard_normal(20000)
        pts.append((n1, float(np.var(draws, ddof=1))))
    coeffs, errs = noise_budget_fit(pts)
    for got, want in zip(coeffs, c):
        assert got == pytest.approx(want, rel=0.10)
    assert all(e > 0 for e in errs)


def test_noise_budget_fit_input_validation():
    with pytest.raises(ValueError):
        noise_budget_fit([(1e4, 1.0), (1e5, 2.0)])
    with pytest.raises(ValueError):
        noise_budget_fit([(1e4, 1.0), (1e4, 1.1), (1e4, 0.9)])


def test_averaging_scan_inverse_time():
    rng = np.random.default_rng(7)
    dt = 1e-6
    sn = 2e-3
    shots = math.sqrt(sn / dt) * rng.standard_normal((3000, 512))
    pts = averaging_scan(shots, [2e-6 * 2**i for i in range(7)], dt)
    slope = np.polyfit(
        np.log([p[0] for p in pts]), np.log([p[1] for p in pts]), 1
    )[0]
    assert slope == pytest.approx(-1.0, abs=0.05)
    with pytest.raises(ValueError):
        averaging_scan(shots, [1e-3], dt)  # window longer than the record


def test_composite_pulse_scan_detuning_sensitivity():
    noise = RotationNoise(static_detuning_sigma=0.02 * 2 * math.pi * 6.3e3)
    rng = np.random.default_rng(3)
    pts = dict(
        composite_pulse_scan(
            [3 * math.pi / 4, math.pi, 3 * math.pi / 2], noise, 400, rng
        )
    )
    assert pts[3 * math.pi / 4] > 50 * pts[3 * math.pi / 2]
    with pytest.raises(ValueError):
        composite_pulse_scan([1.0], noise, 10, rng)
