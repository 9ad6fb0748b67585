"""Scenario orchestration: maps a validated ExperimentConfig to the module
pipeline, writes result files, and records the reproducibility manifest."""

from __future__ import annotations

import copy
import math
import mmap
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    ftc_rigidity,
    lyapunov_exponents,
    lyapunov_stddev,
    order_parameters,
    symmetry_stats,
)
from .config import ExperimentConfig
from .loop_sim import ROTATION_NOT_FINITE, TrajectoryRecord, run_batch, shot_rng
from .measurement import (
    composite_pulse_scan,
    noise_budget_fit,
    qpn_variance,
    shot_noise_variance,
    signal,
)
from .models import KtParams, LmgParams, kt_map, tilted
from .quantum import (
    QuantumSpinState,
    _jx_parity_blocks,
    bloch_vector,
    qmf_rate,
    qmf_step,
    sample_outcome,
    scs_state,
)
# bound here so the benchmark tracer (perfbench/tracing.py) can patch them
from .quantum import expect, spin_operators  # noqa: F401
from .runio import (
    SCHEMA_VERSION,
    RunManifest,
    emit_csv,
    emit_json,
    emit_trajectories,
    file_sha256,
    fmt_float,
    fork_parts,
    part_cuts,
)
from .spin_core import PULSE_NOT_FINITE, from_angles


def _emit_table(cfg: ExperimentConfig, out: Path, name: str, header: str, rows):
    """Tabular output in the configured encoding."""
    if cfg.emit_format == "json":
        cols = header.split(",")
        return emit_json(out / f"{name}.json", {
            "schema_version": SCHEMA_VERSION,
            "columns": cols,
            "rows": [list(map(float, r)) for r in rows],
        })
    return emit_csv(out / f"{name}.csv", header, rows)


def _emit_ensemble(out: Path, recs, sidecar: str, **fields):
    """trajectories.csv plus a JSON sidecar carrying the shot row offsets
    and the given fields."""
    path, offsets = emit_trajectories(out / "trajectories.csv", recs)
    side = emit_json(out / sidecar, {
        "schema_version": SCHEMA_VERSION, "shot_row_offsets": offsets, **fields,
    })
    return [path, side]


@contextmanager
def _set_by(error: str, keys):
    """Let the ValueError(error) of a quantity that is not finite name the
    config keys that set it; the kernels know no config names."""
    try:
        yield
    except ValueError as e:
        if str(e) != error:
            raise
        raise ValueError(f"{e}; it is set by {', '.join(keys)}") from None


# the keys that set the plant's rotation rates, in each closed loop: the
# drive (a sweep point replaces its own key), the feedback gain, the
# kicked top's segment times, and the per-shot detuning and amplitude error
_NOISE_RATE_KEYS = ("noise.fixed_detuning", "noise.static_detuning_sigma",
                    "noise.amplitude_error_sigma")
_RATE_KEYS = {
    "lmg-run": ("lmg.s", "lmg.lambda", *_NOISE_RATE_KEYS),
    "ssb-ensemble": ("lmg.s", "lmg.lambda", *_NOISE_RATE_KEYS),
    "dpt-sweep": ("sweep.s", "lmg.lambda", *_NOISE_RATE_KEYS),
    "kt-run": ("kt.alpha", "kt.k", "kt.t_linear", "kt.t_kick", *_NOISE_RATE_KEYS),
    "ftc-sweep": ("sweep.alpha", "kt.k", "kt.t_linear", "kt.t_kick", *_NOISE_RATE_KEYS),
}


def _loop_batch(cfg, params, n_shots):
    """``run_batch`` of a closed loop on cfg's loop, measurement, seed and
    schedule, with the tracked length parse_config computed."""
    with _set_by(ROTATION_NOT_FINITE, _RATE_KEYS[cfg.kind]):
        return run_batch(cfg.loop, params, cfg.measurement, n_shots, cfg.master_seed,
                         sched=cfg.kt_schedule, j_est=cfg.j_est)


def _run_loop(cfg, out):
    """lmg-run and kt-run: one closed-loop ensemble, every trajectory kept."""
    recs = _loop_batch(cfg, cfg.kt if cfg.kt_schedule else cfg.lmg, cfg.n_shots)
    meta = recs[0].meta
    strob = {k: meta[k] for k in ("strob_gap_idx", "strob_period_idx") if k in meta}
    return _emit_ensemble(
        out, recs, "trajectories.json", model=meta["model"], params=meta["params"],
        final_states=[rec.meta["final_state"] for rec in recs], **strob,
    )


def _run_dpt(cfg, out):
    # every shot of every sweep point in one batch, so one array computation
    base = cfg.lmg or LmgParams()
    ss = cfg.sweep["s"]
    n = cfg.n_shots
    batch = _loop_batch(cfg, [replace(base, s=s) for s in ss], n * len(ss))
    rows = []
    for i, s in enumerate(ss):
        recs = batch[i * n:(i + 1) * n]
        z_inf, czz_inf = order_parameters(recs)
        # each shot's own z_inf, over the same tail window
        per_rec = [order_parameters([rec])[0] for rec in recs]
        stderr = (
            float(np.std(per_rec, ddof=1) / math.sqrt(len(per_rec)))
            if len(per_rec) > 1 else 0.0
        )
        rows.append((s, z_inf, czz_inf, stderr))
    return [_emit_table(cfg, out, "order_parameters", "s,z_inf,czz_inf,stderr", rows)]


def _run_ssb(cfg, out):
    recs = _loop_batch(cfg, cfg.lmg, cfg.n_shots)
    return _emit_ensemble(out, recs, "symmetry_stats.json", **symmetry_stats(recs),
                          final_z=[float(rec.z[-1]) for rec in recs])


def _tilted_kt_ensemble(alpha, ks, x0, tilt, n, rng, n_steps):
    """Elevation angles of the first n_steps map iterates of n Gaussian-tilted
    copies of x0, one set of copies under every kick strength in ks; shape
    (len(ks), n, n_steps)."""
    chis, angles = zip(*[(rng.uniform(0.0, 2.0 * math.pi), tilt * rng.standard_normal())
                         for _ in range(n)])
    x, y, z = np.array([v.as_tuple() for v in tilted(x0, chis, angles)]).T
    k = np.asarray(ks, dtype=float)[:, None]
    series = np.empty((len(ks), n, n_steps))
    for i in range(n_steps):
        series[:, :, i] = z
        ((x, y, z),) = kt_map(x, y, z, alpha, k)
    return np.arccos(np.clip(series, -1.0, 1.0))  # to_angles(v).theta


# the two estimators' settings: map steps of the tangent-stretching exponent,
# and the tilted ensemble's size, Gaussian tilt (rad) and fitted steps
LYAPUNOV_STEPS = 2000
LYAPUNOV_MEMBERS = 60
LYAPUNOV_TILT = 2.5e-4
LYAPUNOV_FIT = 5


def _run_lyapunov(cfg, out):
    x0 = from_angles(cfg.loop.initial_state)
    ks = cfg.sweep.get("k", [cfg.kt.k])
    jac = lyapunov_exponents(cfg.kt.alpha, ks, x0.as_tuple(), LYAPUNOV_STEPS)
    series = _tilted_kt_ensemble(cfg.kt.alpha, ks, x0, LYAPUNOV_TILT, LYAPUNOV_MEMBERS,
                                 shot_rng(cfg.master_seed, 0), LYAPUNOV_FIT)
    sd = [lyapunov_stddev(s, LYAPUNOV_FIT).lambda_max for s in series]
    return [_emit_table(cfg, out, "lyapunov", "k,lambda_jacobian,lambda_stddev",
                        zip(ks, jac, sd))]


def _strob_z(rec):
    return rec.z[[0, *rec.meta["strob_period_idx"]]].tolist()


def _run_ftc(cfg, out):
    # every shot of every sweep point in one batch, so one array computation
    k = cfg.kt.k
    alphas = cfg.sweep["alpha"]
    n = cfg.n_shots
    batch = _loop_batch(cfg, [KtParams(alpha=a, k=k) for a in alphas], n * len(alphas))
    data = {a: [_strob_z(rec) for rec in batch[i * n:(i + 1) * n]]
            for i, a in enumerate(alphas)}
    del batch  # the records are done with; free them before the analysis
    rig = ftc_rigidity(data)
    spec_rows = [(a, f, pw) for a in sorted(data) for f, pw in zip(*rig["psd"][a])]
    return [
        _emit_table(cfg, out, "spectra", "alpha,frequency,power", spec_rows),
        emit_json(out / "rigidity.json", {
            "schema_version": SCHEMA_VERSION,
            "k": k,
            "dominant": {fmt_float(a): rig["dominant"][a] for a in sorted(data)},
            "period2_power": {fmt_float(a): rig["period2_power"][a] for a in sorted(data)},
            "rigidity_window": rig["rigidity_window"],
            "window_edges": rig["window_edges"],
        }),
    ]


def _run_noise_budget(cfg, out):
    """Monte Carlo of the measurement variance versus atom number.

    Each draw carries projection noise, shot noise, and (when a noise
    section is present) a control-error term linear in the tilt, whose
    signal contribution scales with n1 and therefore adds an n1^2 term to
    the variance.  Each n1 point is one array draw of three normals per
    shot, in ``measure``'s stream order (projection, shot) and then the
    control error's, summed by ``signal``."""
    rng = shot_rng(cfg.master_seed, 0)
    noise = cfg.loop.rotation_noise
    tilt_sigma = 0.0
    if noise is not None and noise.rabi_rate > 0:
        tilt_sigma = math.atan(noise.static_detuning_sigma / noise.rabi_rate)
    t_avg = cfg.loop.sample_period
    rows = []
    for n1 in cfg.sweep["n1"]:
        model = replace(cfg.measurement, n1_eff=n1)
        j = model.j_collective
        qpn, sn, cpn = rng.standard_normal((cfg.n_shots, 3)).T
        vals = signal(j, 0.0, math.sqrt(qpn_variance(model)) * qpn,
                      math.sqrt(shot_noise_variance(model, t_avg)) * sn)
        vals += j * tilt_sigma * cpn
        rows.append((n1, float(np.var(vals, ddof=1))))
    coeffs, errs = noise_budget_fit(rows)
    return [
        _emit_table(cfg, out, "budget", "n1,variance", rows),
        emit_json(out / "budget_fit.json", {
            "schema_version": SCHEMA_VERSION,
            "c_sn": coeffs[0], "c_qpn": coeffs[1], "c_cpn": coeffs[2],
            "stderr": list(errs),
        }),
    ]


# the keys that set a composite pulse's rotation angle and axis
_PULSE_KEYS = ("sweep.theta", "noise.fixed_detuning", "noise.static_detuning_sigma",
               "noise.amplitude_error_sigma", "noise.phase_noise_sigma", "noise.rabi_rate")


def _run_composite(cfg, out):
    rng = shot_rng(cfg.master_seed, 0)
    noise = cfg.loop.rotation_noise
    with _set_by(PULSE_NOT_FINITE, _PULSE_KEYS):
        pts = composite_pulse_scan(cfg.sweep["theta"], noise, cfg.n_shots, rng)
    return [_emit_table(cfg, out, "composite", "theta,variance", pts)]


# trajectories advanced together: state memory stays O(block * dim)
# whatever the shot count, while one step still serves many shots
QUANTUM_BLOCK = 64
# The least work, in shot-steps * dim^2, worth a process of its own: an
# ensemble is cut into at most one part per QUANTUM_PART_MIN_WORK.  Two
# processes against one broke even at about 3e7 per part (2-CPU Xeon, in
# process, alternating, medians of 21, three series; j = 500 and 2 shots at
# 20, 30 and 45 steps took 12.6-14.4, 18.2-22.9 and 26.5-44.9 ms in one
# process and 14.0-28.4, 17.3-26.4 and 23.8-36.4 ms in two, slower in 3, 1
# and 0 of the 3 series; j = 200 and 4 shots at 60 and 90 steps were slower
# in two in 2 and 1 of 3).  Both quantum-qmf configs, at about 1.2e8 and
# 1.5e8 per part, split; j = 10 runs of a few shots do not.
QUANTUM_PART_MIN_WORK = 30_000_000


def quantum_ensemble(j, angles, params, sigma, dt, n_steps, rngs):
    """Exact measurement-and-feedback trajectories from the coherent state
    along `angles`, one per generator in the sequence rngs, advanced in
    lock-step, QUANTUM_BLOCK at a time.  Returns the Bloch vectors <J>/j
    before each step and after the last, shape (shots, n_steps + 1, 3), and
    the outcomes, shape (shots, n_steps).  Trajectory i depends only on
    rngs[i].

    The shots are cut into contiguous ranges, one per usable CPU but none
    under QUANTUM_PART_MIN_WORK (``runio.part_cuts``).  This process runs
    the first range, and a forked child runs each other one into its rows of
    the returned arrays, which live in one shared anonymous mapping.  Every
    range draws from copies of its generators, so a split run leaves rngs
    unadvanced.  If any range fails, or a fork does, the ensemble runs again
    in this process from rngs, so it returns or raises exactly as one
    process does.  A row's bytes do not depend on its batch, so they do not
    depend on the range either, and no setting chooses the path."""
    n = len(rngs)
    psi0 = scs_state(j, angles).amplitudes
    ranges = part_cuts([n_steps * len(psi0) ** 2] * n, QUANTUM_PART_MIN_WORK)
    size = n * (n_steps + 1) * 3 + n * n_steps
    split = len(ranges) > 1
    buf = np.frombuffer(mmap.mmap(-1, 8 * size)) if split else np.empty(size)
    bloch = buf[: n * (n_steps + 1) * 3].reshape(n, n_steps + 1, 3)
    meas = buf[bloch.size :].reshape(n, n_steps)

    def run(a, b, gens):
        for lo in range(a, b, QUANTUM_BLOCK):
            rows = slice(lo, min(lo + QUANTUM_BLOCK, b))
            block = gens[rows]
            state = QuantumSpinState(j, np.tile(psi0, (len(block), 1)))
            for k in range(n_steps):
                bloch[rows, k] = bloch_vector(state)
                meas[rows, k] = sample_outcome(state, sigma, block)
                state = qmf_step(state, meas[rows, k], params, dt, sigma)
            bloch[rows, n_steps] = bloch_vector(state)

    if split:
        # cached before forking, so no child builds the basis again: the
        # children share its pages (U and V, 2 MB at j = 500; W of
        # half-integer j, 4 MB near the cap)
        _jx_parity_blocks(j)
        gens = copy.deepcopy(rngs)  # rngs stay unadvanced for a run in one process
        if fork_parts(len(ranges), lambda k: run(*ranges[k], gens)):
            return bloch, meas
    run(0, n, rngs)
    return bloch, meas


def _run_quantum(cfg, out):
    q = cfg.quantum
    j, sigma, dt, n_steps = q["j"], q["sigma"], q["dt"], q["n_steps"]
    p = cfg.lmg
    n = n_steps + 1
    rngs = [shot_rng(cfg.master_seed, i) for i in range(cfg.n_shots)]
    recs = []
    for bloch, meas in zip(*quantum_ensemble(
        j, cfg.loop.initial_state, p, sigma, dt, n_steps, rngs,
    )):
        # the feedback rate qmf_step applied during each step; none after the last
        recs.append(TrajectoryRecord(
            np.arange(n) * dt, *bloch.T, np.full(n, j), np.append(meas, math.nan),
            np.append(qmf_rate(meas, j, p.k_nl), 0.0), np.full(n, p.alpha_lin),
            np.full(n, j),
        ))
    return _emit_ensemble(
        out, recs, "trajectories.json", model="quantum",
        params={"j": j, "sigma": sigma, "dt": dt, "s": p.s, "lambda": p.lambda_},
        final_states=[(rec.x[-1], rec.y[-1], rec.z[-1]) for rec in recs],
    )


_RUNNERS = {
    "lmg-run": _run_loop,
    "kt-run": _run_loop,
    "dpt-sweep": _run_dpt,
    "ssb-ensemble": _run_ssb,
    "lyapunov": _run_lyapunov,
    "ftc-sweep": _run_ftc,
    "noise-budget": _run_noise_budget,
    "composite-scan": _run_composite,
    "quantum-qmf": _run_quantum,
}


def run_scenario(cfg: ExperimentConfig, config_path) -> RunManifest:
    """Execute the scenario parsed from the file at config_path; writes
    outputs and manifest.json into cfg.out_dir and returns the manifest,
    which records the SHA-256 of that file.  The writers create cfg.out_dir
    at the first write, so a run that fails before it leaves no directory."""
    out = Path(cfg.out_dir)
    t0 = time.perf_counter()
    # an overflow or invalid operation is a FloatingPointError, which the
    # CLI reports as one runtime error, not a warning beside finished output
    with np.errstate(over="raise", invalid="raise"):
        paths = _RUNNERS[cfg.kind](cfg, out)
    manifest = RunManifest(
        config_sha256=file_sha256(config_path),
        tool_version=__version__,
        seed=cfg.master_seed,
    )
    for p in paths:
        manifest.add(p)
    manifest.wall_clock_s = time.perf_counter() - t0
    manifest.write(out / "manifest.json")
    return manifest
