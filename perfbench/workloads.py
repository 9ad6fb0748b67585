"""The benchmark's workloads: the CLI calls one operation makes, and the
physics checks its outputs must pass.

An operation is one user-level workload run: the ``simulate`` call(s) and the
``analyze`` calls on their output, in the order a user would type them.  The
checks are tolerances from the acceptance criteria, not byte checksums, so
they hold across seeds and across numerically different but correct engines.
Byte-level determinism is checked separately, by comparing each operation's
output checksums with the first operation's.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

Z_STAR = 0.9035079029052513  # LMG stable fixed point at s = 0.7, sqrt(1 - (3/7)^2)
SSB_CONFIG = "configs/ssb_ensemble.cfg"
SSB_SHOTS = 100  # 300 in the shipped config; 100 keeps 0.3 <= upper <= 0.7 a 4-sigma band
KT_CONFIG = "perfbench/configs/kt_sweep.cfg"
DPT_CONFIG = "perfbench/configs/dpt_fxp.cfg"
Q200_CONFIG = "configs/quantum_qmf.json"
Q500_CONFIG = "perfbench/configs/quantum_j500.json"
REPLAY_STEPS = 20


@dataclass(frozen=True)
class Step:
    kind: str  # "simulate" or "analyze"
    argv: tuple
    tag: str = ""  # traced steps with a tag also get their own aggregates


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shots: int  # per operation, summed over sweep points
    steps: Callable[[Path, int], list]
    check: Callable[[Path, int], list]  # -> failure messages
    scaled: bool = True  # times scaled to the reference speed (speed.py)


def _sim(scenario, config, out, seed, *extra, tag=""):
    return Step("simulate", (scenario, "--config", config, "--seed", str(seed),
                             "--out", str(out), *extra), tag)


def _analyze(kind, csv, out):
    return Step("analyze", (kind, "--in", str(csv), "--out", str(out)))


def _config(path, seed):
    from spinloop.config import parse_config

    cfg = parse_config(path)
    cfg.master_seed = seed
    return cfg


def _norm_excess(recs) -> float:
    return max(float(np.max(np.abs(np.sqrt(r.x**2 + r.y**2 + r.z**2) - 1.0)))
               for r in recs)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


# --- lmg-ensemble -----------------------------------------------------------

def _lmg_steps(d, seed):
    csv = d / "sim" / "trajectories.csv"
    return [
        _sim("ssb-ensemble", SSB_CONFIG, d / "sim", seed, "--shots", str(SSB_SHOTS)),
        _analyze("symmetry", csv, d / "an"),
        _analyze("spectrum", csv, d / "an"),
    ]


def _lmg_check(d, seed):
    from spinloop.analysis import spectral_entropy, symmetry_stats
    from spinloop.loop_sim import run_lmg_loop, shot_rng
    from spinloop.runio import read_trajectory_csv

    fails = []
    recs = read_trajectory_csv(d / "sim" / "trajectories.csv")
    if len(recs) != SSB_SHOTS:
        return [f"{len(recs)} shots in the CSV, expected {SSB_SHOTS}"]
    excess = _norm_excess(recs)
    if excess > 1e-9:
        fails.append(f"row norm off unity by {excess:.2e} > 1e-9")
    # test_04 criterion, computed here from the rows
    zf = np.array([r.z[-1] for r in recs])
    m0 = np.array([r.meas[0] for r in recs])
    upper = float(np.mean(zf > 0))
    corr = float(np.corrcoef(m0, np.sign(zf))[0, 1])
    far = int(np.sum(np.abs(np.abs(zf) - Z_STAR) >= 0.05 * Z_STAR))
    if not 0.3 <= upper <= 0.7:
        fails.append(f"upper fraction {upper:.3f} outside [0.3, 0.7]")
    if far:
        fails.append(f"{far} final |z| not within 5% of Z* = {Z_STAR:.5f}")
    if not corr > 0.3:
        fails.append(f"first-measurement/well correlation {corr:.3f} <= 0.3")
    stats = symmetry_stats(recs)
    want = {k: stats[k] for k in ("upper_fraction", "initial_final_correlation", "tdd_list")}
    if _load(d / "an" / "symmetry.json") != want:
        fails.append("analyze symmetry differs from symmetry_stats of the re-read rows")
    spec = [spectral_entropy(r.z) for r in recs]
    want = {"entropy": [s.entropy for s in spec],
            "dominant_frequency": [s.dominant_frequency for s in spec]}
    if _load(d / "an" / "spectrum.json") != want:
        fails.append("analyze spectrum differs from spectral_entropy of the re-read rows")
    # shot isolation: one shot re-run alone equals its rows bit for bit
    cfg = _config(SSB_CONFIG, seed)
    i = seed % SSB_SHOTS
    alone = run_lmg_loop(cfg.loop, cfg.lmg, cfg.measurement, shot_rng(seed, i))
    if not np.array_equal(alone.column_stack(), recs[i].column_stack(), equal_nan=True):
        fails.append(f"shot {i} re-run alone differs from its ensemble rows")
    return fails


# --- kt-sweep ---------------------------------------------------------------

def _kt_steps(d, seed):
    return [_sim("ftc-sweep", KT_CONFIG, d / "sim", seed)]


def _kt_check(d, seed):
    """test_08 criterion: the period-2 (Nyquist) bin dominates the DC-free
    ensemble spectrum at every alpha of the band."""
    fails = []
    rig = _load(d / "sim" / "rigidity.json")
    if len(rig["dominant"]) != 5 or not all(rig["dominant"].values()):
        fails.append(f"period-2 not dominant at every alpha: {rig['dominant']}")
    spec = np.loadtxt(d / "sim" / "spectra.csv", delimiter=",", skiprows=1, ndmin=2)
    for a in np.unique(spec[:, 0]):
        rows = spec[spec[:, 0] == a]
        body = rows[rows[:, 1] > 0]
        if body[np.argmax(body[:, 2]), 1] != 0.5:
            fails.append(f"spectra.csv: period-2 bin not the maximum at alpha {a!r}")
    return fails


# --- dpt-fxp ----------------------------------------------------------------

def _dpt_steps(d, seed):
    return [_sim("dpt-sweep", DPT_CONFIG, d / "sim", seed)]


def _dpt_check(d, seed):
    """z_inf above the pole-release point lies within 1% of the stable fixed
    point sqrt(1 - ((1 - s)/s)^2)."""
    fails = []
    rows = np.loadtxt(d / "sim" / "order_parameters.csv", delimiter=",",
                      skiprows=1, ndmin=2)
    if len(rows) != 5:
        fails.append(f"{len(rows)} sweep points, expected 5")
    for s, z_inf, _, _ in rows:
        if s > 2.0 / 3.0:
            z_star = math.sqrt(1.0 - ((1.0 - s) / s) ** 2)
            if not abs(z_inf - z_star) <= 0.01 * z_star:
                fails.append(f"s = {s:g}: z_inf {z_inf:.5f} not within 1% of {z_star:.5f}")
    return fails


# --- quantum-qmf ------------------------------------------------------------

def _q_steps(d, seed):
    return [
        _sim("quantum-qmf", Q200_CONFIG, d / "j200", seed, tag="j200"),
        _sim("quantum-qmf", Q500_CONFIG, d / "j500", seed, tag="j500"),
        _analyze("order", d / "j200" / "trajectories.csv", d / "an200"),
        _analyze("order", d / "j500" / "trajectories.csv", d / "an500"),
    ]


def _spin_matrices(j):
    """Jx, Jy, Jz in the Jz basis ordered m = j .. -j, built independently of
    spinloop.quantum."""
    m = j - np.arange(int(round(2 * j)) + 1)
    jp = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), k=1).astype(complex)
    return (jp + jp.T) / 2, (jp - jp.T) / 2j, np.diag(m).astype(complex), m


def _replay(rec, cfg, n_steps) -> float:
    """Largest deviation of the recorded <J>/j from an independent dense
    replay of the first n_steps steps, driven by the recorded outcomes."""
    from scipy.linalg import expm

    q = cfg.quantum
    j, sigma, dt = q["j"], q["sigma"], q["dt"]
    jx, jy, jz, m = _spin_matrices(j)
    th, ph = cfg.loop.initial_state.theta, cfg.loop.initial_state.phi
    psi = np.zeros(len(m), dtype=complex)
    psi[0] = 1.0
    psi = expm(-1j * ph * jz) @ (expm(-1j * th * jy) @ psi)
    worst = 0.0
    for k in range(n_steps + 1):
        bloch = [float(np.vdot(psi, op @ psi).real) / j for op in (jx, jy, jz)]
        rec_k = (rec.x[k], rec.y[k], rec.z[k])
        worst = max(worst, *(abs(a - b) for a, b in zip(bloch, rec_k)))
        if k == n_steps:
            break
        meas = rec.meas[k]
        psi = psi * np.exp(-((m - meas) ** 2) / (4 * sigma**2))  # Kraus update
        psi /= np.linalg.norm(psi)
        gen = cfg.lmg.alpha_lin * jx + cfg.lmg.k_nl * (meas / j) * jz
        psi = expm(1j * dt * gen) @ psi
        psi /= np.linalg.norm(psi)
    return worst


def _q_check(d, seed):
    from spinloop.analysis import order_parameters
    from spinloop.runio import read_trajectory_csv

    fails = []
    for tag, config in (("j200", Q200_CONFIG), ("j500", Q500_CONFIG)):
        cfg = _config(config, seed)
        recs = read_trajectory_csv(d / tag / "trajectories.csv")
        n_rows = cfg.quantum["n_steps"] + 1
        if len(recs) != cfg.n_shots or any(len(r.t) != n_rows for r in recs):
            fails.append(f"{tag}: expected {cfg.n_shots} trajectories of {n_rows} rows")
            continue
        long = max(float(np.max(np.sqrt(r.x**2 + r.y**2 + r.z**2))) for r in recs)
        if long > 1.0 + 1e-9:
            fails.append(f"{tag}: Bloch vector length {long!r} > 1 + 1e-9")
        z_inf, czz_inf = order_parameters(recs)
        if _load(d / f"an{tag[1:]}" / "order.json") != {"z_inf": z_inf, "czz_inf": czz_inf}:
            fails.append(f"{tag}: analyze order differs from order_parameters")
        if tag == "j200":
            dev = _replay(recs[0], cfg, REPLAY_STEPS)
            if not dev <= 1e-8:
                fails.append(f"j200 shot 0: replay deviates by {dev:.2e} > 1e-8")
    return fails


WORKLOADS = {w.name: w for w in (
    Workload("lmg-ensemble",
             "shipped ssb_ensemble at 100 shots, then analyze symmetry and "
             "spectrum: RK4 plant dominates simulate; one 12 MB CSV written, read twice",
             SSB_SHOTS, _lmg_steps, _lmg_check),
    Workload("kt-sweep",
             "ftc-sweep, k = 2.7, 5 alphas x 20 shots: kicked-top loop and "
             "ftc_rigidity; small tables, so I/O changes should not move it",
             100, _kt_steps, _kt_check),
    Workload("dpt-fxp",
             "dpt-sweep from the pole, 5 s x 4 shots, fixed-point controller with "
             "decay tracking and noise: fixed-point decay_estimate dominates",
             20, _dpt_steps, _dpt_check),
    Workload("quantum-qmf",
             "shipped quantum_qmf (j = 200, 10 trajectories) plus j = 500 (2), "
             "then analyze order: the only quantum workload, two operator sizes",
             12, _q_steps, _q_check, scaled=False),
)}
