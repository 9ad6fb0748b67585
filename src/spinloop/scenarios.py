"""Scenario orchestration: maps a validated ExperimentConfig to the module
pipeline, writes result files, and records the reproducibility manifest."""

from __future__ import annotations

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    ftc_rigidity,
    lyapunov_jacobian,
    lyapunov_stddev,
    order_parameters,
    symmetry_stats,
)
from .config import ConfigError, ExperimentConfig
from .controller import qkt_schedule
from .loop_sim import run_batch, shot_rng
from .measurement import (
    composite_pulse_scan,
    measure,
    noise_budget_fit,
    qpn_variance,
)
from .models import KtParams, LmgParams, _tangent_basis, kt_step
from .quantum import bloch_vector, qmf_step, sample_outcome, scs_state
# bound here so the benchmark tracer (perfbench/tracing.py) can patch them
from .quantum import expect, spin_operators  # noqa: F401
from .runio import (
    RunManifest,
    config_sha256,
    emit_csv,
    emit_json,
    emit_trajectories,
    fmt_float,
)
from .spin_core import SphericalAngles, from_angles, rotate, to_angles


def _emit_table(cfg: ExperimentConfig, out: Path, name: str, header: str, rows):
    """Tabular output in the configured encoding."""
    if cfg.emit_format == "json":
        cols = header.split(",")
        return emit_json(out / f"{name}.json", {
            "schema_version": 1,
            "columns": cols,
            "rows": [list(map(float, r)) for r in rows],
        })
    return emit_csv(out / f"{name}.csv", header, rows)


def _sweep_grid(cfg: ExperimentConfig, key: str) -> list[float]:
    if key not in cfg.sweep:
        raise ConfigError(f"scenario {cfg.kind} requires sweep.{key}")
    return cfg.sweep[key]


def _schedule(cfg: ExperimentConfig):
    s = cfg.kt_schedule
    return qkt_schedule(
        s["t_linear"], s["t_gap"], s["t_kick"], s["n_steps"],
        sample_period=cfg.loop.sample_period, window=cfg.loop.duration,
    )


def _run_lmg(cfg, out):
    recs = run_batch(cfg.loop, cfg.lmg, cfg.measurement, cfg.n_shots, cfg.master_seed)
    path, offsets = emit_trajectories(out / "trajectories.csv", recs)
    side = emit_json(out / "trajectories.json", {
        "schema_version": 1,
        "model": "lmg",
        "params": recs[0].meta["params"],
        "shot_row_offsets": offsets,
        "final_states": [rec.meta["final_state"] for rec in recs],
    })
    return [path, side]


def _run_kt(cfg, out):
    sched = _schedule(cfg)
    recs = run_batch(
        cfg.loop, cfg.kt, cfg.measurement, cfg.n_shots, cfg.master_seed, sched=sched
    )
    path, offsets = emit_trajectories(out / "trajectories.csv", recs)
    side = emit_json(out / "trajectories.json", {
        "schema_version": 1,
        "model": "kt",
        "params": recs[0].meta["params"],
        "shot_row_offsets": offsets,
        "strob_gap_idx": recs[0].meta["strob_gap_idx"],
        "strob_period_idx": recs[0].meta["strob_period_idx"],
        "final_states": [rec.meta["final_state"] for rec in recs],
    })
    return [path, side]


def _run_dpt(cfg, out):
    rows = []
    for i, s in enumerate(_sweep_grid(cfg, "s")):
        p = LmgParams(s=s, lambda_=cfg.lmg.lambda_ if cfg.lmg else 2 * math.pi * 6.25e3)
        recs = run_batch(cfg.loop, p, cfg.measurement, cfg.n_shots,
                         cfg.master_seed + 1000 * i)
        z_inf, czz_inf = order_parameters(recs)
        per_rec = [np.mean(rec.z[len(rec.z) // 6:]) for rec in recs]
        stderr = (
            float(np.std(per_rec, ddof=1) / math.sqrt(len(per_rec)))
            if len(per_rec) > 1 else 0.0
        )
        rows.append((s, z_inf, czz_inf, stderr))
    return [_emit_table(cfg, out, "order_parameters", "s,z_inf,czz_inf,stderr", rows)]


def _run_ssb(cfg, out):
    recs = run_batch(cfg.loop, cfg.lmg, cfg.measurement, cfg.n_shots, cfg.master_seed)
    path, offsets = emit_trajectories(out / "trajectories.csv", recs)
    stats = symmetry_stats(recs)
    side = emit_json(out / "symmetry_stats.json", {
        "schema_version": 1,
        "upper_fraction": stats["upper_fraction"],
        "initial_final_correlation": stats["initial_final_correlation"],
        "tdd_list": stats["tdd_list"],
        "final_z": [float(rec.z[-1]) for rec in recs],
        "shot_row_offsets": offsets,
    })
    return [path, side]


def _tilted_kt_ensemble(p, x0, tilt, n, rng, n_steps):
    """Ensemble of map iterates from Gaussian-tilted copies of x0; returns
    the elevation-angle series, one row per member."""
    e1, e2 = _tangent_basis(x0)
    series = np.zeros((n, n_steps + 1))
    for i in range(n):
        chi = rng.uniform(0.0, 2.0 * math.pi)
        t = tilt * rng.standard_normal()
        ax = math.cos(chi) * e1 + math.sin(chi) * e2
        v = rotate(x0, type(x0)(*ax), t)
        for k in range(n_steps + 1):
            series[i, k] = to_angles(v).theta
            v = kt_step(v, p)
    return series


def _run_lyapunov(cfg, out):
    ly = cfg.lyapunov
    x0 = from_angles(SphericalAngles(ly.get("theta0", 2.0), ly.get("phi0", 1.0)))
    n_steps = ly.get("n_steps", 2000)
    ks = cfg.sweep.get("k", [cfg.kt.k])
    rows = []
    for k in ks:
        p = KtParams(cfg.kt.alpha, k)
        jac = lyapunov_jacobian(p, x0, n_steps).lambda_max
        sd = math.nan
        if "n_members" in ly:
            rng = shot_rng(cfg.master_seed, 0)
            n_fit = ly.get("n_fit", 5)
            series = _tilted_kt_ensemble(
                p, x0, ly.get("tilt", 2.5e-4), ly["n_members"], rng, n_fit
            )
            sd = lyapunov_stddev(series, n_fit).lambda_max
        rows.append((k, jac, sd))
    return [_emit_table(cfg, out, "lyapunov", "k,lambda_jacobian,lambda_stddev", rows)]


def _strob_z(rec):
    idx = [0] + list(rec.meta["strob_period_idx"])
    return [float(rec.z[i]) for i in idx]


def _run_ftc(cfg, out):
    sched = _schedule(cfg)
    k = cfg.kt.k if cfg.kt else 2.7
    data = {}
    for i, a in enumerate(_sweep_grid(cfg, "alpha")):
        p = KtParams(alpha=a, k=k)
        recs = run_batch(cfg.loop, p, cfg.measurement, cfg.n_shots,
                         cfg.master_seed + 1000 * i, sched=sched)
        data[a] = [_strob_z(rec) for rec in recs]
    rig = ftc_rigidity(data)
    spec_rows = []
    for a in sorted(data):
        freqs, spec = rig["psd"][a]
        for f, pw in zip(freqs, spec):
            spec_rows.append((a, f, pw))
    paths = [
        _emit_table(cfg, out, "spectra", "alpha,frequency,power", spec_rows),
        emit_json(out / "rigidity.json", {
            "schema_version": 1,
            "k": k,
            "dominant": {fmt_float(a): rig["dominant"][a] for a in sorted(data)},
            "period2_power": {fmt_float(a): rig["period2_power"][a] for a in sorted(data)},
            "rigidity_window": rig["rigidity_window"],
            "window_edges": rig["window_edges"],
        }),
    ]
    return paths


def _run_noise_budget(cfg, out):
    """Monte Carlo of the measurement variance versus atom number.

    Each draw carries projection noise, shot noise, and (when a noise
    section is present) a control-error term linear in the tilt, whose
    signal contribution scales with n1 and therefore adds an n1^2 term to
    the variance."""
    rng = shot_rng(cfg.master_seed, 0)
    noise = cfg.rotation_noise
    tilt_sigma = 0.0
    if noise is not None and noise.rabi_rate > 0:
        tilt_sigma = math.atan(noise.static_detuning_sigma / noise.rabi_rate)
    rows = []
    for n1 in _sweep_grid(cfg, "n1"):
        model = replace(cfg.measurement, n1_eff=n1)
        vals = np.empty(cfg.n_shots)
        for i in range(cfg.n_shots):
            samp = measure(0.0, model.j_collective, model, cfg.loop.sample_period, rng)
            cpn = model.chi_p * model.j_collective * tilt_sigma * rng.standard_normal()
            vals[i] = samp.value + cpn
        rows.append((n1, float(np.var(vals, ddof=1))))
    coeffs, errs = noise_budget_fit(rows)
    paths = [
        _emit_table(cfg, out, "budget", "n1,variance", rows),
        emit_json(out / "budget_fit.json", {
            "schema_version": 1,
            "c_sn": coeffs[0], "c_qpn": coeffs[1], "c_cpn": coeffs[2],
            "stderr": list(errs),
        }),
    ]
    return paths


def _run_composite(cfg, out):
    if cfg.rotation_noise is None:
        raise ConfigError("composite-scan requires a [noise] section")
    rng = shot_rng(cfg.master_seed, 0)
    pts = composite_pulse_scan(
        _sweep_grid(cfg, "theta"), cfg.rotation_noise, cfg.n_shots, rng
    )
    return [_emit_table(cfg, out, "composite", "theta,variance", pts)]


def quantum_trajectory(j, angles, params, sigma, dt, n_steps, rng):
    """One exact measurement-and-feedback trajectory from the coherent state
    along `angles`.  Returns the Bloch vectors <J>/j before each step and
    after the last, shape (n_steps + 1, 3), and the n_steps outcomes."""
    state = scs_state(j, angles)
    bloch = np.empty((n_steps + 1, 3))
    meas = np.empty(n_steps)
    for k in range(n_steps):
        bloch[k] = bloch_vector(state)
        meas[k] = sample_outcome(state, sigma, rng)
        state = qmf_step(state, meas[k], params, dt, sigma)
    bloch[n_steps] = bloch_vector(state)
    return bloch, meas


def _run_quantum(cfg, out):
    q = cfg.quantum
    j = q.get("j", 200.0)
    sigma = q.get("sigma", 20.0)
    dt = q.get("dt", 2e-6)
    n_steps = q.get("n_steps", 150)
    p = cfg.lmg
    rows = []
    offsets = []
    finals = []
    for i in range(cfg.n_shots):
        offsets.append(len(rows))
        bloch, meas = quantum_trajectory(
            j, cfg.loop.initial_state, p, sigma, dt, n_steps,
            shot_rng(cfg.master_seed, i),
        )
        for k, m in enumerate(meas):
            rows.append((k * dt, *bloch[k], j, m, p.k_nl * m / j, p.alpha_lin, j))
        rows.append((n_steps * dt, *bloch[n_steps], j, math.nan, 0.0, p.alpha_lin, j))
        finals.append(tuple(bloch[n_steps]))
    paths = [
        emit_csv(out / "trajectories.csv",
                 "t,x,y,z,j_true,meas,ctl_z,ctl_x,j_est", rows),
        emit_json(out / "trajectories.json", {
            "schema_version": 1,
            "model": "quantum",
            "params": {"j": j, "sigma": sigma, "dt": dt, "s": p.s,
                       "lambda": p.lambda_},
            "shot_row_offsets": offsets,
            "final_states": finals,
        }),
    ]
    return paths


_RUNNERS = {
    "lmg-run": _run_lmg,
    "kt-run": _run_kt,
    "dpt-sweep": _run_dpt,
    "ssb-ensemble": _run_ssb,
    "lyapunov": _run_lyapunov,
    "ftc-sweep": _run_ftc,
    "noise-budget": _run_noise_budget,
    "composite-scan": _run_composite,
    "quantum-qmf": _run_quantum,
}


def run_scenario(cfg: ExperimentConfig, config_path=None) -> RunManifest:
    """Execute the configured scenario; writes outputs and manifest.json
    into cfg.out_dir and returns the manifest."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    paths = _RUNNERS[cfg.kind](cfg, out)
    manifest = RunManifest(
        config_sha256=config_sha256(config_path) if config_path else "",
        tool_version=__version__,
        seed=cfg.master_seed,
    )
    for p in paths:
        manifest.add(p)
    manifest.wall_clock_s = time.perf_counter() - t0
    manifest.write(out / "manifest.json")
    return manifest
