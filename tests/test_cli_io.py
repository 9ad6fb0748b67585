import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinloop.analysis import ftc_rigidity, order_parameters
from spinloop.cli import analyze_main, simulate_main
from spinloop.config import SCENARIOS, ConfigError, ExperimentConfig, parse_config
from spinloop.controller import FixedPointFormat, QktSchedule
from spinloop.loop_sim import (
    ARRAY_MIN_SHOTS,
    KT_ARRAY_MIN_SHOTS,
    LoopConfig,
    point_seed,
    run_batch,
    run_kt_loop,
    run_lmg_loop,
    shared_columns,
    shot_rng,
)
from spinloop.measurement import MeasurementModel
from spinloop.models import KtParams, LmgParams
from spinloop.runio import (
    TRAJECTORY_HEADER,
    emit_csv,
    emit_json,
    emit_trajectories,
    file_sha256,
    fmt_float,
    read_trajectory_csv,
)
from spinloop.spin_core import RotationNoise, SphericalAngles


MINIMAL = """
[run]
kind = lmg-run

[lmg]
s = 0.7
"""


def test_minimal_config_gets_defaults(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text(MINIMAL)
    cfg = parse_config(p)
    assert cfg.kind == "lmg-run"
    assert cfg.loop.sample_period == 2e-6  # 500 kHz
    assert cfg.loop.latency == 6e-6
    assert cfg.loop.duration == 1.5e-3
    assert cfg.loop.decay_half_time == 2e-3
    assert cfg.measurement.n1_eff == 1e6
    assert cfg.measurement.ratio_n2_n1 == 0.5
    assert cfg.measurement.f == 4.0
    assert cfg.lmg.s == 0.7
    assert cfg.lmg.lambda_ == 2.0 * math.pi * 6.25e3
    p.write_text("[run]\nkind = kt-run\n\n[kt]\n")
    cfg = parse_config(p)
    assert cfg.kt == KtParams(alpha=math.pi / 2.0, k=0.0)
    assert cfg.kt_schedule == QktSchedule(40e-6, 6e-6, 2e-6, 25)


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text(MINIMAL + "\n[loop]\nsampel_period = 1e-6\n")
    with pytest.raises(ConfigError, match="loop.sampel_period"):
        parse_config(p)


def test_unknown_section_rejected(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text(MINIMAL + "\n[plant]\ndt = 1e-7\n")
    with pytest.raises(ConfigError, match=r"\[plant\]"):
        parse_config(p)


def test_timing_invariant_names_both_fields(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text(MINIMAL + "\n[loop]\nsample_period = 1e-8\nplant_dt = 1e-7\n")
    with pytest.raises(ConfigError, match="sample_period.*plant_dt"):
        parse_config(p)


def test_json_config_equivalent(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"run": {"kind": "lmg-run"}, "lmg": {"s": "0.7"}}))
    cfg = parse_config(p)
    assert cfg.kind == "lmg-run" and cfg.lmg.s == 0.7


def test_sweep_grid_parsed(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text(
        "[run]\nkind = dpt-sweep\n\n[sweep]\ns = 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8\n"
    )
    cfg = parse_config(p)
    assert len(cfg.sweep["s"]) == 9


def test_dpt_stderr_uses_order_parameters_window(tmp_path):
    # at 10 samples order_parameters' tail starts at round(10 / 6) = 2, one
    # sample later than 10 // 6; each shot's mean must use the same tail
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("[run]\nkind = dpt-sweep\nn_shots = 3\n\n[loop]\nduration = 2e-5\n"
                    "qpn = true\n\n[sweep]\ns = 0.7\n")
    out = tmp_path / "o"
    assert simulate_main(["dpt-sweep", "--config", str(cfgp), "--out", str(out)]) == 0
    cfg = parse_config(cfgp)
    recs = run_batch(cfg.loop, LmgParams(s=0.7), cfg.measurement, 3, cfg.master_seed)
    assert len(recs[0].z) == 10
    tails = [rec.z[2:].mean() for rec in recs]
    row = np.loadtxt(out / "order_parameters.csv", delimiter=",", skiprows=1)
    assert row[1] == order_parameters(recs)[0]
    assert row[3] == np.std(tails, ddof=1) / math.sqrt(3)


def test_dpt_sweep_stacks_points(tmp_path):
    # 3 points x 3 shots run as one array batch; shot j of point i must be
    # the lone loop on shot_rng(seed + 1000 i, j), and each row the
    # per-point computation
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("[run]\nkind = dpt-sweep\nn_shots = 3\nseed = 11\n\n"
                    "[loop]\nduration = 1e-4\nqpn = true\nshot = true\n\n"
                    "[measurement]\nsn_coeff = 0.2\n\n[sweep]\ns = 0.5 0.7 0.8\n")
    out = tmp_path / "o"
    assert simulate_main(["dpt-sweep", "--config", str(cfgp), "--out", str(out)]) == 0
    cfg = parse_config(cfgp)
    points = [LmgParams(s=s) for s in (0.5, 0.7, 0.8)]
    assert 9 >= ARRAY_MIN_SHOTS
    stacked = run_batch(cfg.loop, points, cfg.measurement, 9, 11)
    rows = []
    for i, p in enumerate(points):
        recs = [run_lmg_loop(cfg.loop, p, cfg.measurement, shot_rng(11 + 1000 * i, j))
                for j in range(3)]
        for j, rec in enumerate(recs):
            assert np.array_equal(stacked[3 * i + j].column_stack(), rec.column_stack())
            assert stacked[3 * i + j].meta == rec.meta
        z_inf, czz_inf = order_parameters(recs)
        tails = [order_parameters([rec])[0] for rec in recs]
        rows.append((p.s, z_inf, czz_inf, np.std(tails, ddof=1) / math.sqrt(3)))
    want = emit_csv(tmp_path / "want.csv", "s,z_inf,czz_inf,stderr", rows)
    assert (out / "order_parameters.csv").read_bytes() == want.read_bytes()


# 3 points x 6 shots; fixed-point decay tracker, projection and photon shot
# noise, and per-shot rotation noise
FTC_SWEEP = (
    "[run]\nkind = ftc-sweep\nn_shots = 6\nseed = 11\n\n"
    "[loop]\nlatency = 4e-6\nduration = 8e-4\nqpn = true\nshot = true\n"
    "fixed_point = true\nword_bits = 24\nint_bits = 6\ndecay_half_time = 2e-4\n\n"
    "[measurement]\nsn_coeff = 0.2\n\n"
    "[noise]\nstatic_detuning_sigma = 300\namplitude_error_sigma = 0.01\n\n"
    "[kt]\nk = 2.7\nn_steps = 16\n\n[sweep]\nalpha = 2.9 3.14 3.3\n"
)


def test_ftc_sweep_stacks_points(tmp_path):
    # the 18 shots run as one array batch; shot j of point i must be the
    # lone loop on shot_rng(point_seed(seed, i), j), and both tables the
    # per-point computation
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(FTC_SWEEP)
    out = tmp_path / "o"
    assert simulate_main(["ftc-sweep", "--config", str(cfgp), "--out", str(out)]) == 0
    cfg = parse_config(cfgp)
    points = [KtParams(alpha=a, k=2.7) for a in cfg.sweep["alpha"]]
    assert 18 >= KT_ARRAY_MIN_SHOTS
    stacked = run_batch(cfg.loop, points, cfg.measurement, 18, 11, sched=cfg.kt_schedule)
    data = {}
    for i, p in enumerate(points):
        recs = [run_kt_loop(cfg.loop, cfg.kt_schedule, p, cfg.measurement,
                            shot_rng(point_seed(11, i), j)) for j in range(6)]
        for j, rec in enumerate(recs):
            assert stacked[6 * i + j].column_stack().tobytes() == rec.column_stack().tobytes()
            assert stacked[6 * i + j].meta == rec.meta
        data[p.alpha] = [[float(rec.z[k]) for k in [0, *rec.meta["strob_period_idx"]]]
                         for rec in recs]
    rig = ftc_rigidity(data)
    alphas = sorted(data)
    rows = [(a, f, pw) for a in alphas for f, pw in zip(*rig["psd"][a])]
    want = emit_csv(tmp_path / "spectra.csv", "alpha,frequency,power", rows)
    assert (out / "spectra.csv").read_bytes() == want.read_bytes()
    want = emit_json(tmp_path / "rigidity.json", {
        "schema_version": 1,
        "k": 2.7,
        "dominant": {fmt_float(a): rig["dominant"][a] for a in alphas},
        "period2_power": {fmt_float(a): rig["period2_power"][a] for a in alphas},
        "rigidity_window": rig["rigidity_window"],
        "window_edges": rig["window_edges"],
    })
    assert (out / "rigidity.json").read_bytes() == want.read_bytes()


@pytest.mark.filterwarnings("error")
def test_ftc_sweep_reports_zero_tracked_length(tmp_path, capsys):
    # a fast fixed-point decay rounds the tracked spin length to 0 after a
    # few periods: the scalar loop and the array kernel fail alike, and
    # simulate reports one runtime error with no numpy warning
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(FTC_SWEEP.replace("decay_half_time = 2e-4", "decay_half_time = 5e-6"))
    cfg = parse_config(cfgp)
    j_est = shared_columns(cfg.loop, cfg.measurement.j_collective, cfg.kt_schedule)[2]
    assert j_est[0] > 0.0 and j_est[-1] == 0.0
    for n in (KT_ARRAY_MIN_SHOTS - 1, KT_ARRAY_MIN_SHOTS):
        with pytest.raises(ZeroDivisionError):
            run_batch(cfg.loop, KtParams(alpha=3.0, k=2.7), cfg.measurement, n, 11,
                      sched=cfg.kt_schedule)
    assert simulate_main(["ftc-sweep", "--config", str(cfgp),
                          "--out", str(tmp_path / "o")]) == 1
    stderr = capsys.readouterr().err
    assert stderr.count("\n") == 1
    assert json.loads(stderr)["error"] == "runtime"


def test_missing_required_section(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("[run]\nkind = lmg-run\n")
    with pytest.raises(ConfigError, match=r"\[lmg\]"):
        parse_config(p)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_format_round_trips(x):
    assert float(fmt_float(x)) == x


def test_csv_round_trip(tmp_path):
    rows = [(0.0, 1.0 / 3.0, -2.5e-300), (1e17, math.pi, 7.0)]
    path = emit_csv(tmp_path / "t.csv", "a,b,c", rows)
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back, np.array(rows))


def test_emit_csv_matches_fmt_float(tmp_path):
    # one "%.17g" row format must write the text fmt_float gives each value
    edge = [math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324,
            -2.2250738585072014e-308 / 3.0, 1.7976931348623157e308, 0.1, 1, -7,
            2**70, True, False, np.float32(0.1), np.float32(math.nan),
            np.float64(-0.0), np.float64(math.nan), np.int64(12)]
    rows = [edge[i:i + 5] for i in range(0, len(edge), 5)]
    rows.append(np.array([math.pi, math.nan, -1e-300]))
    path = emit_csv(tmp_path / "t.csv", "a,b,c,d,e", rows)
    want = "a,b,c,d,e\n" + "".join(
        ",".join(fmt_float(v) for v in row) + "\n" for row in rows
    )
    assert path.read_bytes() == want.encode()


def test_empty_csv_is_header_only(tmp_path):
    path = emit_csv(tmp_path / "t.csv", "a,b", [])
    assert path.read_text() == "a,b\n"


def test_trajectory_round_trip(tmp_path):
    from spinloop.loop_sim import LoopConfig, run_batch
    from spinloop.measurement import MeasurementModel
    from spinloop.models import LmgParams

    cfg = LoopConfig(duration=5e-5, qpn=True)
    recs = run_batch(cfg, LmgParams(s=0.7, lambda_=1e5), MeasurementModel(), 3, 1)
    path, offsets = emit_trajectories(tmp_path / "t.csv", recs)
    assert offsets == [0, 25, 50]
    back = read_trajectory_csv(path)
    assert len(back) == 3
    for a, b in zip(recs, back):
        assert np.array_equal(a.column_stack(), b.column_stack())


def test_simulate_cli_end_to_end(tmp_path):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(MINIMAL + "\n[loop]\nduration = 1e-4\nqpn = true\n")
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert simulate_main(["lmg-run", "--config", str(cfgp), "--shots", "2",
                          "--seed", "11", "--out", str(out1)]) == 0
    assert simulate_main(["lmg-run", "--config", str(cfgp), "--shots", "2",
                          "--seed", "11", "--out", str(out2)]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    # rerun determinism: byte-identical outputs, manifest checksums agree
    assert m1["outputs"] == m2["outputs"]
    assert (out1 / "trajectories.csv").read_bytes() == (out2 / "trajectories.csv").read_bytes()
    for name, digest in m1["outputs"].items():
        assert file_sha256(out1 / name) == digest
    assert m1["seed"] == 11
    assert (out1 / "trajectories.csv").read_text().splitlines()[0] == TRAJECTORY_HEADER


def test_simulate_cli_rejects_bad_config(tmp_path, capsys):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(MINIMAL + "\n[loop]\ntypo = 1\n")
    assert simulate_main(["lmg-run", "--config", str(cfgp)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "loop.typo" in err["message"]
    cfgp.write_text("[run]\nkind = lmg-walk\n")
    assert simulate_main(["lmg-run", "--config", str(cfgp)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "run.kind" in err["message"] and "lmg-walk" in err["message"]
    # the model is given as (s, lambda) only; the rate form is not a key
    for key in ("alpha_lin", "k_nl"):
        cfgp.write_text(MINIMAL + f"{key} = 1e4\n")
        assert simulate_main(["lmg-run", "--config", str(cfgp)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert f"lmg.{key}" in err["message"]


def test_simulate_cli_rejects_unused_phase_noise(tmp_path, capsys):
    # the closed loops draw no drive-axis phase jitter, so the key is refused
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(MINIMAL + "\n[noise]\nphase_noise_sigma = 0.01\n")
    assert simulate_main(["lmg-run", "--config", str(cfgp),
                          "--out", str(tmp_path / "o")]) == 1
    stderr = capsys.readouterr().err
    assert stderr.count("\n") == 1
    err = json.loads(stderr)
    assert err["error"] == "config"
    assert "noise.phase_noise_sigma" in err["message"]
    assert not (tmp_path / "o").exists()
    # zero is rejected for lmg-run too, and composite-scan takes a nonzero value
    cfgp.write_text(MINIMAL + "\n[noise]\nphase_noise_sigma = 0\n")
    with pytest.raises(ConfigError, match="noise.phase_noise_sigma.*lmg-run"):
        parse_config(cfgp)
    cfgp.write_text("[run]\nkind = composite-scan\nn_shots = 100\n\n[noise]\n"
                    "phase_noise_sigma = 0.01\n\n[sweep]\ntheta = 1.0\n")
    assert parse_config(cfgp).loop.rotation_noise.phase_noise_sigma == 0.01


@pytest.mark.filterwarnings("error")
def test_simulate_cli_reports_arithmetic_error(tmp_path, capsys):
    # an enormous kick strength drives the Lyapunov tangent vector out of
    # tolerance, which raises FloatingPointError inside the scenario; no
    # numpy warning may be emitted on the way
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("[run]\nkind = lyapunov\n\n[kt]\nalpha = 1.5707963267948966\n"
                    "k = 1.7e308\n")
    assert simulate_main(["lyapunov", "--config", str(cfgp),
                          "--out", str(tmp_path / "o")]) == 1
    stderr = capsys.readouterr().err
    assert stderr.count("\n") == 1
    err = json.loads(stderr)
    assert err["error"] == "runtime"
    assert "tangent vector" in err["message"]


ROOT = Path(__file__).resolve().parents[1]
LMG07 = LmgParams(s=0.7, lambda_=1.3089969389957471e5)
EQUATOR = SphericalAngles(1.5707963267948966, 0.0)
COMPOSITE_NOISE = RotationNoise(static_detuning_sigma=791.68, rabi_rate=39584.07)
BUDGET_NOISE = RotationNoise(static_detuning_sigma=3.0, rabi_rate=39584.07)
SHIPPED = {
    "configs/composite_scan.cfg": ExperimentConfig(
        kind="composite-scan", loop=LoopConfig(rotation_noise=COMPOSITE_NOISE),
        measurement=MeasurementModel(), n_shots=500, master_seed=3,
        out_dir="out/composite",
        sweep={"theta": [0.785, 1.571, 2.356, 3.142, 3.927, 4.712, 5.498]},
    ),
    "configs/kt_run.cfg": ExperimentConfig(
        kind="kt-run",
        loop=LoopConfig(latency=4e-6, duration=1.3e-3, decay_half_time=None,
                        initial_state=SphericalAngles(2.0, 1.0)),
        measurement=MeasurementModel(), kt=KtParams(1.5707963267948966, 2.5),
        kt_schedule=QktSchedule(40e-6, 6e-6, 2e-6, 25), out_dir="out/kt",
    ),
    "configs/lmg_run.cfg": ExperimentConfig(
        kind="lmg-run",
        loop=LoopConfig(sample_period=2e-6, latency=6e-6, duration=1.5e-3,
                        decay_half_time=2e-3, initial_state=EQUATOR, qpn=True),
        measurement=MeasurementModel(), lmg=LMG07, out_dir="out/lmg",
    ),
    "configs/noise_budget.cfg": ExperimentConfig(
        kind="noise-budget", loop=LoopConfig(rotation_noise=BUDGET_NOISE),
        measurement=MeasurementModel(sn_coeff=0.2), n_shots=5000,
        master_seed=42, out_dir="out/budget",
        sweep={"n1": [1e4, 3.16e4, 1e5, 3.16e5, 1e6, 3.16e6, 1e7]},
    ),
    "configs/quantum_qmf.json": ExperimentConfig(
        kind="quantum-qmf", loop=LoopConfig(initial_state=SphericalAngles(1e-6, 0.0)),
        measurement=MeasurementModel(), lmg=LMG07, n_shots=10, master_seed=777,
        out_dir="out/quantum",
        quantum={"j": 200.0, "sigma": 20.0, "dt": 2e-6, "n_steps": 150},
    ),
    "configs/ssb_ensemble.cfg": ExperimentConfig(
        kind="ssb-ensemble",
        loop=LoopConfig(latency=6e-6, duration=1.5e-3, decay_half_time=None,
                        initial_state=EQUATOR, qpn=True),
        measurement=MeasurementModel(), lmg=LMG07, n_shots=300,
        master_seed=2024, out_dir="out/ssb",
    ),
    "perfbench/configs/dpt_fxp.cfg": ExperimentConfig(
        kind="dpt-sweep",
        loop=LoopConfig(initial_state=SphericalAngles(0.0, 0.0), decay_half_time=2e-3,
                        qpn=True, shot=True, fixed_point=FixedPointFormat()),
        measurement=MeasurementModel(sn_coeff=0.2), lmg=LMG07, n_shots=4,
        out_dir="out/dpt_fxp", sweep={"s": [0.5, 0.6, 0.65, 0.7, 0.8]},
    ),
    "perfbench/configs/kt_sweep.cfg": ExperimentConfig(
        kind="ftc-sweep",
        loop=LoopConfig(latency=4e-6, duration=1.3e-3, decay_half_time=None,
                        initial_state=SphericalAngles(0.0, 0.0), qpn=True),
        measurement=MeasurementModel(), kt=KtParams(3.141592653589793, 2.7),
        kt_schedule=QktSchedule(40e-6, 6e-6, 2e-6, 25), n_shots=20,
        master_seed=100, out_dir="out/ftc",
        sweep={"alpha": [2.921681167838508, 2.9845130209103035, 3.141592653589793,
                         3.2986722862692828, 3.3615041393410787]},
    ),
    "perfbench/configs/quantum_j500.json": ExperimentConfig(
        kind="quantum-qmf", loop=LoopConfig(initial_state=SphericalAngles(1e-6, 0.0)),
        measurement=MeasurementModel(), lmg=LMG07, n_shots=2, master_seed=777,
        out_dir="out/quantum_j500",
        quantum={"j": 500.0, "sigma": 31.622776601683796, "dt": 2e-6, "n_steps": 150},
    ),
}


def test_every_shipped_config_is_pinned():
    shipped = sorted(str(p.relative_to(ROOT)) for d in ("configs", "perfbench/configs")
                     for p in (ROOT / d).iterdir())
    assert shipped == sorted(SHIPPED)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_values(name):
    assert parse_config(ROOT / name) == SHIPPED[name]


# scenario -> (a config it accepts, a section and key it does not read)
UNREAD = {
    "lmg-run": ("[lmg]\ns = 0.7\n", "[quantum]\nj = 200\n", "quantum.j"),
    "kt-run": ("[kt]\nk = 2.5\n", "[lyapunov]\nn_steps = 10\n", "lyapunov.n_steps"),
    "dpt-sweep": ("[sweep]\ns = 0.7\n", "[kt]\nk = 2.5\n", "kt.k"),
    "ssb-ensemble": ("[lmg]\ns = 0.7\n", "[noise]\nrabi_rate = 4e4\n", "noise.rabi_rate"),
    "lyapunov": ("[kt]\nalpha = 1.5\nk = 2.5\n", "[loop]\nduration = 1e-3\n",
                 "loop.duration"),
    "ftc-sweep": ("[kt]\nk = 2.7\n\n[sweep]\nalpha = 3.1\n", "[lmg]\nlambda = 1e5\n",
                  "lmg.lambda"),
    "noise-budget": ("n_shots = 2\n\n[sweep]\nn1 = 1e4 1e5\n", "[loop]\nlatency = 4e-6\n",
                     "loop.latency"),
    "composite-scan": ("n_shots = 100\n\n[noise]\nrabi_rate = 4e4\n\n[sweep]\ntheta = 1.0\n",
                       "[measurement]\nf = 4\n", "measurement.f"),
    "quantum-qmf": ("[lmg]\ns = 0.7\n", "[loop]\nlatency = 4e-6\n", "loop.latency"),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_simulate_cli_rejects_unread_key(tmp_path, capsys, scenario):
    base, extra, key = UNREAD[scenario]
    base = f"[run]\nkind = {scenario}\n\n" + base
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(base)
    assert parse_config(cfgp).kind == scenario
    cfgp.write_text(base + "\n" + extra)
    out = tmp_path / "o"
    assert simulate_main([scenario, "--config", str(cfgp), "--out", str(out)]) == 1
    stderr = capsys.readouterr().err
    assert stderr.count("\n") == 1
    err = json.loads(stderr)
    assert err["error"] == "config"
    assert key in err["message"] and scenario in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("scenario, text, flags, message", [
    ("lyapunov", "[kt]\nalpha = 1.5\nk = 2.5\n", ["--shots", "5"], "run.n_shots"),
    ("lmg-run", "[lmg]\ns = 0.7\n", ["--emit", "json"], "run.emit"),
    ("noise-budget", "[sweep]\nn1 = 1e4 1e5\n", ["--shots", "0"], "run.n_shots"),
    ("ftc-sweep", "[sweep]\nalpha = 3.1\n", [], "[kt]"),
    ("kt-run", "[kt]\nt_linear = 3e-6\n", [], "t_linear"),
    ("lmg-run", "[lmg]\ns = 0.7\n\n[loop]\nword_bits = 24\n", [], "loop.word_bits"),
    # a one-shot sample variance is NaN
    ("noise-budget", "[sweep]\nn1 = 1e4 1e5\n", ["--shots", "1"], "run.n_shots"),
    ("composite-scan", "[noise]\nrabi_rate = 4e4\n\n[sweep]\ntheta = 1.0\n",
     ["--shots", "99"], "run.n_shots"),
    # the kick angle would not be ready by the end of the measurement gap
    ("kt-run", "[kt]\nk = 2.5\n\n[loop]\nlatency = 8e-6\n", [], "loop.latency"),
    ("ftc-sweep", "[kt]\nk = 2.7\n\n[loop]\nlatency = 8e-6\n\n[sweep]\nalpha = 3.1\n", [],
     "loop.latency"),
])
def test_simulate_cli_config_errors(tmp_path, capsys, scenario, text, flags, message):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(f"[run]\nkind = {scenario}\n\n" + text)
    out = tmp_path / "o"
    assert simulate_main([scenario, "--config", str(cfgp), "--out", str(out),
                          *flags]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert message in err["message"]
    assert not out.exists()


def test_simulate_cli_kind_mismatch(tmp_path):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(MINIMAL)
    assert simulate_main(["dpt-sweep", "--config", str(cfgp)]) == 1


def test_analyze_cli(tmp_path):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(MINIMAL + "\n[loop]\nduration = 3e-4\nqpn = true\n")
    out = tmp_path / "o"
    assert simulate_main(["lmg-run", "--config", str(cfgp), "--shots", "3",
                          "--out", str(out)]) == 0
    an = tmp_path / "an"
    assert analyze_main(["symmetry", "--in", str(out / "trajectories.csv"),
                         "--out", str(an)]) == 0
    stats = json.loads((an / "symmetry.json").read_text())
    assert 0.0 <= stats["upper_fraction"] <= 1.0
    assert analyze_main(["spectrum", "--in", str(out / "trajectories.csv"),
                         "--out", str(an), "--emit", "csv"]) == 0
    assert (an / "spectrum.csv").exists()


def test_analyze_cli_missing_input(tmp_path, capsys):
    assert analyze_main(["symmetry", "--in", str(tmp_path / "nope.csv")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "runtime"


def test_emit_json_sorted_and_stable(tmp_path):
    p1 = emit_json(tmp_path / "a.json", {"b": 1.0, "a": np.float64(2.0)})
    p2 = emit_json(tmp_path / "b.json", {"a": np.float64(2.0), "b": 1.0})
    assert p1.read_bytes() == p2.read_bytes()
