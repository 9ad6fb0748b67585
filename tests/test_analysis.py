import math

import numpy as np
import pytest

from spinloop.analysis import (
    FTC_MIN_POINTS,
    _ensemble_psd,
    extract_tdd,
    ftc_rigidity,
    lyapunov_exponents,
    lyapunov_jacobian,
    lyapunov_stddev,
    order_parameters,
    settling_time,
    spectral_entropy,
    symmetry_stats,
)
from spinloop.loop_sim import TrajectoryRecord
from spinloop.models import KtParams, _tangent_basis, kt_map, kt_step, tilted
from spinloop.scenarios import _tilted_kt_ensemble
from spinloop.spin_core import SphericalAngles, SpinVector, from_angles, to_angles


def _record(t, z):
    n = len(t)
    pad = np.zeros(n)
    return TrajectoryRecord(np.asarray(t, float), pad, pad, np.asarray(z, float),
                            pad, pad, pad, pad, pad)


def test_spectral_entropy_limits():
    n = 256
    t = np.arange(n)
    pure = np.sin(2 * math.pi * 17 * t / n)
    low = spectral_entropy(pure)
    assert low.entropy < 0.05
    assert low.dominant_frequency == pytest.approx(17.0 / n)
    rng = np.random.default_rng(0)
    high = spectral_entropy(rng.standard_normal(4096))
    assert high.entropy > 0.9
    assert low.power.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        spectral_entropy([1.0, 2.0])


def test_spectral_entropy_dc_excluded_by_default():
    series = 5.0 + 0.01 * np.sin(2 * math.pi * 8 * np.arange(128) / 128)
    s = spectral_entropy(series)
    assert s.dominant_frequency == pytest.approx(8.0 / 128)


def test_lyapunov_zero_kick_is_isometry():
    p = KtParams(alpha=math.pi / 2.0, k=0.0)
    est = lyapunov_jacobian(p, from_angles(SphericalAngles(1.0, 0.5)), 1500)
    assert abs(est.lambda_max) < 1e-3


def lyapunov_benettin(p: KtParams, x0: SpinVector, n_steps: int) -> float:
    """Independent two-trajectory renormalization estimate of the largest
    exponent, the oracle for lyapunov_jacobian; the companion trajectory is
    renormalized to a separation of 1e-8 every step."""
    d0 = 1e-8
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
    return acc / n_steps


def test_lyapunov_jacobian_matches_benettin():
    p = KtParams(alpha=math.pi / 2.0, k=30.0)
    x0 = from_angles(SphericalAngles(2.0, 1.0))
    jac = lyapunov_jacobian(p, x0, 4000).lambda_max
    ben = lyapunov_benettin(p, x0, 4000)
    assert jac == pytest.approx(ben, rel=0.02)


def test_lyapunov_input_validation():
    p = KtParams(alpha=math.pi / 2.0, k=1.0)
    with pytest.raises(ValueError):
        lyapunov_jacobian(p, from_angles(SphericalAngles(1.0, 0.5)), 100)


def test_lyapunov_rows_are_batch_independent():
    # a point's exponent alone equals its row bit for bit, in batches of 1,
    # 3 and 576 points, in any order, with mixed k
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((576, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    ks = rng.uniform(0.0, 6.0, 576)
    whole = lyapunov_exponents(math.pi / 2.0, ks, pts, 1000)
    order = rng.permutation(576)
    shuffled = lyapunov_exponents(math.pi / 2.0, ks[order], pts[order], 1000)
    assert shuffled.tobytes() == whole[order].tobytes()
    trio = order[:3]
    assert (lyapunov_exponents(math.pi / 2.0, ks[trio], pts[trio], 1000).tobytes()
            == whole[trio].tobytes())
    for i in trio[::-1]:
        one = lyapunov_jacobian(KtParams(math.pi / 2.0, ks[i]), SpinVector(*pts[i]), 1000)
        assert one.lambda_max == whole[i]


def test_lyapunov_exponents_match_extended_precision():
    # the same tangent recursion in long double along the same float64 orbit;
    # this near-pole orbit stretches the tangent about e^8-fold and contracts
    # it again, which amplifies per-step rounding up to 5e-12 in the exponent
    p = KtParams(math.pi / 2.0, 2.5)
    v = from_angles(SphericalAngles(math.pi / 16.0, 7.0 * math.pi / 8.0))
    got = lyapunov_exponents(p.alpha, [p.k], v.as_tuple(), 2000)[0]
    for _ in range(100):
        v = kt_step(v, p)
    ld = np.longdouble
    t = tuple(map(ld, _tangent_basis(v)[0]))
    acc = ld(0.0)
    for _ in range(2000):
        _, t = kt_map(*map(ld, (*v.as_tuple(), p.alpha, p.k)), t)
        nrm = np.sqrt(t[0] * t[0] + t[1] * t[1] + t[2] * t[2])
        acc += np.log(nrm)
        t = tuple(c / nrm for c in t)
        v = kt_step(v, p)
    assert abs(got - float(acc / 2000)) < 1e-12


def test_tilted_ensemble_matches_one_member_loop():
    # every member under every k, as arrays, against tilted, kt_step and
    # to_angles one member and one k at a time, from the same draws
    x0 = from_angles(SphericalAngles(2.0, 1.0))
    ks = [0.5, 2.5, 3.0]
    got = _tilted_kt_ensemble(math.pi / 2.0, ks, x0, 2.5e-4, 60, np.random.default_rng(4), 6)
    rng = np.random.default_rng(4)
    starts = [tilted(x0, [rng.uniform(0.0, 2.0 * math.pi)],
                     [2.5e-4 * rng.standard_normal()])[0] for _ in range(60)]
    for series, k in zip(got, ks):
        for row, v in zip(series, starts):
            want = []
            for _ in range(6):
                want.append(to_angles(v).theta)
                v = kt_step(v, KtParams(math.pi / 2.0, k))
            assert np.allclose(row, want, rtol=0.0, atol=1e-15)


def test_lyapunov_stddev_regular_region():
    # identical copies of a regular trajectory plus tiny noise: no
    # exponential separation, so the fitted rate stays near zero
    p = KtParams(alpha=math.pi / 2.0, k=0.5)
    rng = np.random.default_rng(1)
    base = from_angles(SphericalAngles(1.0, 0.5))
    series = np.zeros((100, 6))
    for i in range(100):
        v = base
        for n in range(6):
            series[i, n] = to_angles(v).theta + 1e-6 * rng.standard_normal()
            v = kt_step(v, p)
    est = lyapunov_stddev(series, 5)
    assert -0.05 <= est.lambda_max <= 0.05


def test_lyapunov_stddev_recovers_injected_growth():
    rng = np.random.default_rng(2)
    lam = 0.3
    sigma0 = 2.5e-4
    n = np.arange(8)
    series = sigma0 * np.exp(lam * n)[None, :] * rng.standard_normal((400, 1))
    est = lyapunov_stddev(series, 5)
    assert est.lambda_max == pytest.approx(lam, abs=0.02)
    # fit intercept should recover the injected initial spread
    sig_fit = math.exp(
        np.polyfit(np.arange(5), np.log(series[:, :5].std(axis=0, ddof=1)), 1)[1]
    )
    assert sigma0 / 2.0 < sig_fit < sigma0 * 2.0
    with pytest.raises(ValueError):
        lyapunov_stddev(series[:10], 5)


def test_order_parameters():
    t = np.arange(600)
    z = np.where(t < 100, 0.0, 0.8)  # settles into the upper well
    z_inf, czz_inf = order_parameters([_record(t, z), _record(t, -z)])
    assert z_inf == pytest.approx(0.0, abs=1e-12)
    assert czz_inf == pytest.approx(0.64, abs=1e-12)


def test_extract_tdd_midpoint_and_sign():
    t = np.linspace(0.0, 1.0, 2001)
    z = 0.9 * np.tanh((t - 0.3) / 0.02)
    assert extract_tdd(_record(t, z)) == pytest.approx(0.3, abs=2e-3)
    assert extract_tdd(_record(t, -z)) == pytest.approx(-0.3, abs=2e-3)


def test_extract_tdd_unsettled_returns_none():
    t = np.linspace(0.0, 1.0, 2001)
    z = np.sin(2 * math.pi * 5 * t)
    assert extract_tdd(_record(t, z)) is None


def test_settling_time():
    t = np.arange(6) * 1e-6
    # never inside the band: a run that ends in NaN never settles
    assert settling_time(_record(t, [0.9, 0.5, 0.1, -0.3, -0.7, math.nan])) is None
    # always inside the band
    assert settling_time(_record(t, [0.90, 0.93, 0.88, 0.91, 0.9, 0.9])) == 0.0
    # last excursion at t[2]
    z = [0.0, 0.6, 0.8, 0.88, 0.93, 0.9]
    assert settling_time(_record(t, z)) == t[2]
    # a conservative orbit that happens to end near where it started never
    # settles, though its last samples lie inside the band
    t = np.arange(1000) * 1e-6
    z = 0.5 + 0.4 * np.cos(2 * math.pi * 3.02 * np.arange(1000) / 1000)
    assert np.all(np.abs(z[-5:] - z[-1]) <= 0.05)
    assert settling_time(_record(t, z)) is None


def test_symmetry_stats():
    t = np.linspace(0.0, 1.0, 2001)
    recs = []
    signs = [1, -1, 1, 1, -1, -1]
    for i, s in enumerate(signs):
        z = s * 0.9 * np.tanh((t - 0.2) / 0.02)
        rec = _record(t, z)
        rec.meas = np.full_like(t, float(s))  # first sample predicts the well
        recs.append(rec)
    stats = symmetry_stats(recs)
    assert stats["upper_fraction"] == pytest.approx(0.5)
    assert stats["initial_final_correlation"] == pytest.approx(1.0)
    assert all(td is not None for td in stats["tdd_list"])


def test_ftc_rigidity_synthetic():
    rng = np.random.default_rng(3)
    n = 26

    def period2(amp):
        return [amp * (-1.0) ** np.arange(n) + 0.01 * rng.standard_normal(n)
                for _ in range(20)]

    def drifting():
        return [np.cos(0.3 * np.arange(n)) + 0.01 * rng.standard_normal(n)
                for _ in range(20)]

    data = {
        0.9 * math.pi: drifting(),
        0.97 * math.pi: period2(0.9),
        math.pi: period2(1.0),
        1.03 * math.pi: period2(0.9),
        1.1 * math.pi: drifting(),
    }
    out = ftc_rigidity(data)
    assert out["dominant"][math.pi]
    assert not out["dominant"][0.9 * math.pi]
    assert out["rigidity_window"] == pytest.approx(0.06 * math.pi)
    assert out["window_edges"] == (0.97 * math.pi, 1.03 * math.pi)


def _psd_one_by_one(series_list):
    """The ensemble power spectrum one series at a time: each series cut to
    the shortest even length, transformed alone, and added in order."""
    n = min(len(s) for s in series_list)
    n -= n % 2
    acc = None
    for s in series_list:
        spec = np.abs(np.fft.rfft(np.asarray(s, dtype=float)[:n])) ** 2
        acc = spec if acc is None else acc + spec
    acc /= len(series_list)
    return np.fft.rfftfreq(n), acc


@pytest.mark.parametrize("lengths", [(16,), (26,) * 20, (17, 17, 17), (31, 26, 19, 40),
                                     (16, 101, 17)])
def test_ensemble_psd_matches_one_series_at_a_time(lengths):
    # one stacked transform gives every series' spectrum as rfft gives it
    # alone, and the sum keeps the series order, so the bytes match; odd
    # and unequal lengths are cut to the shortest even length
    rng = np.random.default_rng(len(lengths))
    series = [list(rng.standard_normal(n) * 10.0 ** rng.integers(-3, 3)) for n in lengths]
    got, want = _ensemble_psd(series), _psd_one_by_one(series)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    assert len(got[0]) == (min(lengths) - min(lengths) % 2) // 2 + 1
    with pytest.raises(ValueError, match="stroboscopic"):
        _ensemble_psd([s[:FTC_MIN_POINTS - 1] for s in series])
