"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single summary line;
configurations are frozen so results are reproducible run to run.
"""

import math

import numpy as np
from spinloop.analysis import (
    ftc_rigidity,
    lyapunov_jacobian,
    lyapunov_stddev,
    order_parameters,
    symmetry_stats,
)
from spinloop.controller import (
    DEFAULT_FXP,
    bmod2,
    fxp_quantize,
    kick_angle,
    pade_exp,
    qkt_schedule,
)
from spinloop.loop_sim import (
    LoopConfig,
    latency_metric,
    run_batch,
    run_kt_loop,
    run_lmg_loop,
    shot_rng,
)
from spinloop.measurement import (
    MeasurementModel,
    averaging_scan,
    composite_pulse_scan,
    noise_budget_fit,
)
from spinloop.models import (
    KtParams,
    LmgParams,
    kt_jacobian,
    kt_step,
    lmg_energy,
    lmg_fixed_points,
    lmg_flow,
)
from spinloop.quantum import (
    expect,
    mmss_variance,
    sample_outcome,
    scs_state,
    spin_operators,
)
from spinloop.scenarios import quantum_trajectory
from spinloop.spin_core import (
    RotationNoise,
    SphericalAngles,
    SpinVector,
    Z_HAT,
    from_angles,
    rotate,
)

ALPHA_LIN = 2.0 * math.pi * 6.25e3
LMG07 = LmgParams(s=0.7, lambda_=ALPHA_LIN / 0.3)
Z_STAR = 0.9035079029052513  # sqrt(1 - (3/7)^2)
MODEL = MeasurementModel()


def _report(ok: bool, line: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {line}", flush=True)
    assert ok, line


def test_01_lmg_fixed_points():
    pts = lmg_fixed_points(0.7)
    zs = sorted(p.location.z for p in pts)
    ok = abs(zs[-1] - Z_STAR) < 1e-6 and abs(zs[0] + Z_STAR) < 1e-6
    drifts = []
    for sign in (1.0, -1.0):
        theta = math.acos(sign * Z_STAR)
        cfg = LoopConfig(
            sample_period=2e-6, latency=0.0, plant_dt=1e-7, duration=1.5e-3,
            decay_half_time=None, initial_state=SphericalAngles(theta, 0.0),
        )
        rec = run_lmg_loop(cfg, LMG07, MODEL, np.random.default_rng(0))
        drifts.append(float(np.max(np.abs(rec.z - sign * Z_STAR))))
    ok = ok and max(drifts) < 1e-6
    _report(ok, f"1. fixed points Z* = +-{Z_STAR:.7f}, "
                f"closed-loop drift {max(drifts):.2e} < 1e-6")


def test_02_energy_conservation():
    lam = LMG07.lambda_
    dt = 1e-3 / lam
    v = np.array(from_angles(SphericalAngles(2.0, 0.5)).as_tuple())
    e0 = lmg_energy(SpinVector(*v), LMG07)
    worst = 0.0
    for _ in range(10000):  # t = 10 / Lambda
        k1 = np.array(lmg_flow(tuple(v), LMG07))
        k2 = np.array(lmg_flow(tuple(v + 0.5 * dt * k1), LMG07))
        k3 = np.array(lmg_flow(tuple(v + 0.5 * dt * k2), LMG07))
        k4 = np.array(lmg_flow(tuple(v + dt * k3), LMG07))
        v = v + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        worst = max(worst, abs(lmg_energy(SpinVector(*v), LMG07) - e0))
    cfg = LoopConfig(
        sample_period=1e-7, latency=0.0, plant_dt=1e-7, duration=7.6e-5,
        decay_half_time=None, initial_state=SphericalAngles(2.0, 0.5),
    )
    rec = run_lmg_loop(cfg, LMG07, MODEL, np.random.default_rng(0))
    es = [lmg_energy(SpinVector(x, y, z), LMG07)
          for x, y, z in zip(rec.x, rec.y, rec.z)]
    loop_drift = max(es) - min(es)
    ok = worst < 1e-8 and loop_drift < 1e-3
    _report(ok, f"2. direct |dE| {worst:.2e} < 1e-8, "
                f"ideal loop |dE| {loop_drift:.2e} < 1e-3")


def _z_inf(s: float) -> float:
    cfg = LoopConfig(
        sample_period=1e-7, latency=0.0, plant_dt=1e-7, duration=1.5e-3,
        decay_half_time=None, initial_state=SphericalAngles(0.0, 0.0),
    )
    p = LmgParams(s=s, lambda_=ALPHA_LIN / max(1.0 - s, 1e-12) if s < 1 else ALPHA_LIN)
    rec = run_lmg_loop(cfg, p, MODEL, np.random.default_rng(0))
    z_inf, _ = order_parameters([rec])
    return z_inf


def test_03_dynamical_phase_transition():
    coarse = [round(0.1 * i, 1) for i in range(9)]
    fine = [0.63 + 0.005 * i for i in range(15)]
    grid = sorted(set(coarse) | set(round(s, 3) for s in fine))
    vals = {s: _z_inf(s) for s in grid}
    crossing = None
    thresh = 0.1
    for a, b in zip(grid, grid[1:]):
        if vals[a] < thresh <= vals[b]:
            crossing = 0.5 * (a + b)
            break
    ok = crossing is not None and abs(crossing - 2.0 / 3.0) < 0.02
    _report(ok, f"3. pole-release threshold at s = {crossing}, within 2/3 +- 0.02")


def test_04_spontaneous_symmetry_breaking():
    # start on the unstable fixed point; projection noise picks the well
    cfg = LoopConfig(
        sample_period=2e-6, latency=6e-6, plant_dt=1e-7, duration=1.5e-3,
        decay_half_time=None, initial_state=SphericalAngles(math.pi / 2.0, 0.0),
        qpn=True,
    )
    recs = run_batch(cfg, LMG07, MODEL, 300, master_seed=2024)
    stats = symmetry_stats(recs)
    finals = np.array([abs(rec.z[-1]) for rec in recs])
    frac = stats["upper_fraction"]
    corr = stats["initial_final_correlation"]
    near = float(np.mean(np.abs(finals - Z_STAR) < 0.05 * Z_STAR))
    ok = 0.3 <= frac <= 0.7 and near == 1.0 and corr > 0.3
    _report(ok, f"4. SSB upper fraction {frac:.3f}, all finals within 5% of Z*, "
                f"first-measurement/well correlation {corr:.3f} > 0.3")


def _settling_time(rec, band=0.05):
    zf = rec.z[-1]
    outside = np.nonzero(np.abs(rec.z - zf) > band)[0]
    return None if len(outside) == len(rec.z) else (
        float(rec.t[outside[-1]]) if len(outside) else 0.0
    )


def test_05_latency_driven_decay():
    # latency 0: conservative orbit, no settling
    cfg0 = LoopConfig(
        sample_period=1e-8, latency=0.0, plant_dt=1e-8, duration=1.5e-3,
        decay_half_time=None, initial_state=SphericalAngles(2.0, 0.5),
    )
    rec0 = run_lmg_loop(cfg0, LMG07, MODEL, np.random.default_rng(0))
    es = [lmg_energy(SpinVector(x, y, z), LMG07)
          for x, y, z in zip(rec0.x, rec0.y, rec0.z)]
    drift0 = max(es) - min(es)

    def run_with_latency(tau):
        cfg = LoopConfig(
            sample_period=2e-6, latency=tau, plant_dt=1e-7, duration=1.5e-3,
            decay_half_time=None, initial_state=SphericalAngles(1e-3, 0.0),
        )
        return run_lmg_loop(cfg, LMG07, MODEL, np.random.default_rng(0))

    rec6 = run_with_latency(6e-6)
    rec12 = run_with_latency(12e-6)
    t6 = _settling_time(rec6)
    t12 = _settling_time(rec12)
    settled6 = t6 is not None and abs(abs(rec6.z[-1]) - Z_STAR) < 0.05
    metric = latency_metric(ALPHA_LIN, 6e-6)
    ok = (drift0 < 1e-3 and settled6 and t12 is not None and t12 < t6
          and abs(metric - 0.236) < 1e-3)
    _report(ok, f"5. no decay at tau=0 (|dE| {drift0:.1e}), settles at 6 us "
                f"(t {t6 * 1e3:.2f} ms), faster at 12 us (t {t12 * 1e3:.2f} ms), "
                f"alpha*tau = {metric:.4f}")


def test_06_kt_map_fidelity():
    sched = qkt_schedule(40e-6, 6e-6, 2e-6, 25)
    worst = 0.0
    for k in (0.5, 2.5, 3.0):
        cfg = LoopConfig(
            latency=4e-6, plant_dt=1e-8, duration=1.3e-3, decay_half_time=None,
            initial_state=SphericalAngles(2.0, 1.0),
        )
        p = KtParams(alpha=math.pi / 2.0, k=k)
        rec = run_kt_loop(cfg, sched, p, MODEL, np.random.default_rng(0))
        idx = [0] + list(rec.meta["strob_period_idx"])
        for a, b in zip(idx, idx[1:]):
            v = SpinVector(rec.x[a], rec.y[a], rec.z[a]).normalized()
            w = kt_step(v, p)
            worst = max(worst, abs(rec.x[b] - w.x), abs(rec.y[b] - w.y),
                        abs(rec.z[b] - w.z))
    rng = np.random.default_rng(1)
    det_err = 0.0
    p = KtParams(alpha=math.pi / 2.0, k=3.0)
    for _ in range(10000):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        det = float(np.linalg.det(kt_jacobian(SpinVector(*n), p)))
        det_err = max(det_err, abs(det - 1.0))
    ok = worst < 1e-8 and det_err < 1e-9
    _report(ok, f"6. stroboscopic loop vs map per-step error {worst:.1e} < 1e-8, "
                f"|det - 1| {det_err:.1e} < 1e-9 over 1e4 points")


def _tilted_theta_series(p, x0, n_members, tilt, n_steps, rng):
    from spinloop.spin_core import to_angles

    base = np.array(x0.as_tuple())
    seed = np.array([0, 0, 1.0]) if abs(base[2]) < 0.9 else np.array([1.0, 0, 0])
    e1 = np.cross(seed, base)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(base, e1)
    series = np.zeros((n_members, n_steps + 1))
    for i in range(n_members):
        chi = rng.uniform(0.0, 2.0 * math.pi)
        t = tilt * rng.standard_normal()
        ax = math.cos(chi) * e1 + math.sin(chi) * e2
        v = rotate(x0, SpinVector(*ax), t)
        for n in range(n_steps + 1):
            series[i, n] = to_angles(v).theta
            v = kt_step(v, p)
    return series


def test_07_lyapunov():
    zero = lyapunov_jacobian(
        KtParams(math.pi / 2.0, 0.0), from_angles(SphericalAngles(1.0, 0.5)), 1500
    ).lambda_max
    sea = [
        lyapunov_jacobian(
            KtParams(math.pi / 2.0, 2.5), from_angles(SphericalAngles(th, ph)), 2000
        ).lambda_max
        for th, ph in ((2.0, 1.0), (2.25, 0.63), (1.2, 2.0))
    ]
    bound_ok = True
    pairs = []
    for k, (th, ph) in ((2.5, (1.8, 0.5)), (3.0, (2.0, 1.0))):
        p = KtParams(math.pi / 2.0, k)
        x0 = from_angles(SphericalAngles(th, ph))
        jac = lyapunov_jacobian(p, x0, 5000).lambda_max
        series = _tilted_theta_series(p, x0, 300, 2.5e-4, 5,
                                      np.random.default_rng(5))
        sd = lyapunov_stddev(series, 5).lambda_max
        pairs.append((k, sd, jac))
        bound_ok = bound_ok and sd <= jac + 0.1
    ok = abs(zero) < 1e-3 and all(l > 0.01 for l in sea) and bound_ok
    _report(ok, f"7. lambda(k=0) = {zero:.1e}, chaotic-sea lambdas "
                f"{[f'{l:.3f}' for l in sea]} > 0.01, "
                f"stddev<=jac+0.1 at {[(k, round(s, 3), round(j, 3)) for k, s, j in pairs]}")


def _ftc_series(k, alphas, n_seeds):
    sched = qkt_schedule(40e-6, 6e-6, 2e-6, 25)
    data = {}
    for i, a in enumerate(alphas):
        p = KtParams(alpha=a, k=k)
        cfg = LoopConfig(
            latency=4e-6, plant_dt=1e-7, duration=1.3e-3, decay_half_time=None,
            initial_state=SphericalAngles(0.0, 0.0), qpn=True,
        )
        recs = run_batch(cfg, p, MODEL, n_seeds, master_seed=100 + i, sched=sched)
        data[a] = [
            [float(rec.z[j]) for j in [0] + list(rec.meta["strob_period_idx"])]
            for rec in recs
        ]
    return ftc_rigidity(data)


def test_08_time_crystal_rigidity():
    band = [f * math.pi for f in (0.93, 0.95, 1.0, 1.05, 1.07)]
    rig = _ftc_series(2.7, band, 50)
    rigid = all(rig["dominant"][a] for a in band)
    rig0 = _ftc_series(0.0, band, 50)
    bare = (rig0["dominant"][math.pi]
            and not any(rig0["dominant"][a] for a in band if a != math.pi))
    ok = rigid and bare
    _report(ok, "8. period-2 dominant across (0.93..1.07)pi at k=2.7; on the "
                "same grid at k=0 only at alpha = pi exactly")


def test_09_controller_arithmetic():
    xs = np.linspace(-1.0, 0.0, 2001)
    band = max(abs(pade_exp(float(x)) - math.exp(float(x))) for x in xs)
    spot = pade_exp(-1.0)
    spot_ok = abs(spot - 18089.0 / 49171.0) < 1e-12
    rng = np.random.default_rng(7)
    worst = 0.0
    for x in rng.uniform(-7.9, 7.9, 100000):
        q = fxp_quantize(float(x), DEFAULT_FXP)
        want = math.copysign(math.fmod(abs(q.value), 2.0), q.value) if q.raw else 0.0
        worst = max(worst, abs(bmod2(q).value - want))
    v = SpinVector(0.6, -0.48, 0.64)
    rot_err = 0.0
    for m, k in zip(rng.uniform(-1, 1, 2000), rng.uniform(0, 30, 2000)):
        a = rotate(v, Z_HAT, kick_angle(float(m), float(k)))
        b = rotate(v, Z_HAT, float(k * m))
        rot_err = max(rot_err, abs(a.x - b.x), abs(a.y - b.y), abs(a.z - b.z))
    ok = (band < 1e-4 and spot_ok and worst <= DEFAULT_FXP.step and rot_err < 1e-9)
    _report(ok, f"9. rational exp err {band:.1e} < 1e-4 on [-1,0], "
                f"value at -1 = {spot:.17g} (exact 18089/49171), "
                f"bmod2 within one step over 1e5 values, "
                f"kick-angle equivalence {rot_err:.1e} < 1e-9")


def test_10_noise_model():
    rng = np.random.default_rng(42)
    # shot noise averages down as 1/T above a projection-noise floor
    dt = 1e-6
    sn = 2e-3
    n_shots, n_samp = 4000, 512
    floor = 50.0  # projection-noise floor, comparable to the longest-window SN
    offsets = math.sqrt(floor) * rng.standard_normal((n_shots, 1))
    shots = offsets + math.sqrt(sn / dt) * rng.standard_normal((n_shots, n_samp))
    pts = averaging_scan(shots, [2e-6 * 2**i for i in range(7)], dt)
    excess = [(t, v - floor) for t, v in pts]
    slope = np.polyfit(np.log([t for t, _ in excess]),
                       np.log([v for _, v in excess]), 1)[0]
    c = (1e5, 2.0, 3e-6)
    fit_pts = []
    for n1 in np.logspace(4, 7, 10):
        var = c[0] + c[1] * n1 + c[2] * n1**2
        fit_pts.append((n1, float(np.var(
            math.sqrt(var) * rng.standard_normal(20000), ddof=1))))
    coeffs, _ = noise_budget_fit(fit_pts)
    fit_ok = all(abs(coeffs[i] / c[i] - 1.0) < 0.10 for i in range(3))
    noise = RotationNoise(static_detuning_sigma=0.02 * 2 * math.pi * 6.3e3)
    grid = [i * math.pi / 4.0 for i in range(1, 8)]
    scan = dict(composite_pulse_scan(grid, noise, 500, np.random.default_rng(3)))
    vmax = max(scan, key=scan.get)
    vmin = min(scan, key=scan.get)
    comp_ok = (abs(vmax - 3 * math.pi / 4) < 1e-12
               and abs(vmin - 3 * math.pi / 2) < 1e-12
               and scan[vmin] < 1e-6)
    ok = abs(slope + 1.0) < 0.05 and fit_ok and comp_ok
    _report(ok, f"10. averaging exponent {slope:.3f} = -1.00 +- 0.05, budget "
                f"coefficients within 10%, composite variance max at 3pi/4 / "
                f"null at 3pi/2")


def test_11_quantum_module():
    # POVM completeness
    j = 10.0
    sigma = 2.0
    ms = np.linspace(-j - 12 * sigma, j + 12 * sigma, 4001)
    mv = j - np.arange(int(2 * j) + 1)
    dens = np.zeros_like(mv)
    for m in ms:
        dens += (2 * math.pi * sigma**2) ** (-0.5) * np.exp(
            -((mv - m) ** 2) / (2 * sigma**2))
    dens *= ms[1] - ms[0]
    povm_err = float(np.max(np.abs(dens - 1.0)))

    jq = 200.0
    ops = spin_operators(jq)
    scs = scs_state(jq, SphericalAngles(math.pi / 2.0, 0.0))
    var = expect(scs, ops.jz @ ops.jz) - expect(scs, ops.jz) ** 2
    scs_ok = abs(var - jq / 2.0) < 1e-8
    _, ratio = mmss_variance(4.0)
    mmss_ok = ratio == 10.0 / 3.0

    sig_s = 3.0
    small = scs_state(10.0, SphericalAngles(math.pi / 2.0, 0.0))
    rng = np.random.default_rng(0)
    draws = np.array([sample_outcome(small, sig_s, rng) for _ in range(100000)])
    want = sig_s**2 + 5.0
    samp_ok = abs(np.var(draws, ddof=1) / want - 1.0) < 0.03

    # mean-trajectory consistency with the classical loop at matched noise
    sigma_q = 20.0
    dt = 2e-6
    n_steps = 150
    n_traj = 50
    checkpoints = (25, 50, 75, 100, 125)
    zq = np.array([
        quantum_trajectory(jq, SphericalAngles(1e-6, 0.0), LMG07, sigma_q, dt,
                           n_steps, shot_rng(777, i))[0][:, 2]
        for i in range(n_traj)
    ])
    model = MeasurementModel(n1_eff=jq, ratio_n2_n1=1.0, f=1.0, chi_p=1.0,
                             sn_coeff=sigma_q**2 * dt)
    cfg = LoopConfig(
        sample_period=dt, latency=0.0, plant_dt=dt,
        duration=(n_steps + 1) * dt, decay_half_time=None,
        initial_state=SphericalAngles(1e-6, 0.0), qpn=True, shot=True,
    )
    recs = run_batch(cfg, LMG07, model, n_traj, master_seed=888)
    zc = np.array([rec.z for rec in recs])
    dev = [abs(zq[:, n].mean() - zc[:, n].mean()) for n in checkpoints]
    traj_ok = max(dev) < 0.05

    ok = povm_err < 1e-6 and scs_ok and mmss_ok and samp_ok and traj_ok
    _report(ok, f"11. POVM completeness {povm_err:.1e} < 1e-6, SCS var = j/2, "
                f"MMSS ratio exactly 10/3, sample variance within 3%, quantum "
                f"vs classical mean-Z deviations {[f'{d:.3f}' for d in dev]} < 0.05")
