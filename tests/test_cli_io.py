import configparser
import errno
import json
import math
import os
import re
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinloop
from spinloop import runio
from spinloop.analysis import (
    extract_tdd,
    ftc_rigidity,
    order_parameters,
    spectral_entropy,
    symmetry_stats,
)
from spinloop.cli import analyze_main, simulate_main
from spinloop.config import (
    _EVERY,
    _SCHEMA,
    SCENARIOS,
    ConfigError,
    ExperimentConfig,
    parse_config,
)
from spinloop.controller import FixedPointFormat, QktSchedule, decay_estimate
from spinloop.loop_sim import (
    ROTATION_NOT_FINITE,
    LoopConfig,
    TrajectoryRecord,
    point_seed,
    run_batch,
    run_kt_loop,
    run_lmg_loop,
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
    # an array is a list of numbers; a nested one is not
    sweep = {"run": {"kind": "dpt-sweep"}, "sweep": {"s": [0.5, 0.7]}}
    p.write_text(json.dumps(sweep))
    assert parse_config(p).sweep == {"s": [0.5, 0.7]}
    sweep["sweep"]["s"] = [[0.5, 0.7]]
    p.write_text(json.dumps(sweep))
    with pytest.raises(ConfigError, match="sweep.s"):
        parse_config(p)


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
    # lone run on shot_rng(point_seed(seed, i), j), and both tables the
    # per-point computation
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(FTC_SWEEP)
    out = tmp_path / "o"
    assert simulate_main(["ftc-sweep", "--config", str(cfgp), "--out", str(out)]) == 0
    cfg = parse_config(cfgp)
    points = [KtParams(alpha=a, k=2.7) for a in cfg.sweep["alpha"]]
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


def _refuses_zero_tracked_length(tmp_path, capsys, text, params, meas_idx, shots):
    # a fast fixed-point decay rounds the tracked spin length to 0 after a
    # few measurements: shared_columns refuses it, naming the time, so a
    # batch of any size fails alike, and simulate reports one
    # runtime error with no numpy warning and no output directory.  The
    # (32, 8) word holds the decay exponent of the whole run, so the config
    # is not refused as saturating it.
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(text)
    cfg = parse_config(cfgp)
    ts = cfg.loop.sample_period
    t0 = next(k * ts for k in meas_idx if decay_estimate(
        cfg.measurement.j_collective, 5e-6, k * ts, cfg.loop.fixed_point) == 0.0)
    assert t0 > 0.0
    message = ("loop.decay_half_time (5e-06 s) decays the tracked spin length "
               f"to 0.0 by t = {t0:g} s")
    for n in shots:
        with pytest.raises(ValueError) as err:
            run_batch(cfg.loop, params, cfg.measurement, n, 11, sched=cfg.kt_schedule)
        assert str(err.value) == message
    out = tmp_path / "o"
    assert simulate_main([cfg.kind, "--config", str(cfgp), "--out", str(out)]) == 1
    stderr = capsys.readouterr().err
    assert stderr.count("\n") == 1
    assert json.loads(stderr) == {"error": "runtime", "message": message}
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_ftc_sweep_reports_zero_tracked_length(tmp_path, capsys):
    text = (FTC_SWEEP.replace("decay_half_time = 2e-4", "decay_half_time = 5e-6")
            .replace("word_bits = 24\nint_bits = 6", "word_bits = 32\nint_bits = 8"))
    # the gap sample of each 24-sample period: 20 linear, 3 gap, 1 kick
    _refuses_zero_tracked_length(tmp_path, capsys, text, KtParams(alpha=3.0, k=2.7),
                                 range(20, 16 * 24, 24), (1, 10))


@pytest.mark.filterwarnings("error")
def test_dpt_sweep_reports_zero_tracked_length(tmp_path, capsys):
    text = ("[run]\nkind = dpt-sweep\nn_shots = 4\nseed = 11\n\n"
            "[loop]\nduration = 4e-4\nfixed_point = true\nword_bits = 32\nint_bits = 8\n"
            "decay_half_time = 5e-6\n\n[lmg]\nlambda = 1.3089969389957471e5\n\n"
            "[sweep]\ns = 0.6 0.7\n")
    # the LMG loop measures at every one of its 200 samples
    _refuses_zero_tracked_length(tmp_path, capsys, text, LmgParams(s=0.7, lambda_=1.3e5),
                                 range(200), (1, 8))


# a drive rate whose square overflows: the LMG linear drive (1 - s) lambda,
# and the kicked top's alpha / t_linear
OVERFLOWING_RATE = {
    "lmg-run": "[lmg]\ns = 0.7\nlambda = 1e300\n",
    "ssb-ensemble": "[lmg]\ns = 0.7\nlambda = 1e300\n",
    "dpt-sweep": "[lmg]\nlambda = 1e300\n\n[sweep]\ns = 0.7\n",
    "kt-run": "[kt]\nalpha = 1e300\nk = 2.5\nn_steps = 2\n",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scenario", sorted(OVERFLOWING_RATE))
def test_overflowing_rate_fails_alike(tmp_path, capsys, scenario):
    # both array kernels raise one error at the first rotation, with no
    # numpy warning: one shot and eight shots give the same runtime error
    # line and leave no output directory
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(f"[run]\nkind = {scenario}\n\n[loop]\nduration = 1e-4\n\n"
                    + OVERFLOWING_RATE[scenario])
    errs = []
    for n in (1, 8):
        out = tmp_path / f"o{n}"
        assert simulate_main([scenario, "--config", str(cfgp), "--out", str(out),
                              "--shots", str(n)]) == 1
        errs.append(capsys.readouterr().err)
        assert not out.exists()
    assert errs[0] == errs[1] and errs[0].count("\n") == 1
    assert json.loads(errs[0]) == {"error": "runtime", "message": ROTATION_NOT_FINITE}


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


def _reference_trajectories(path, records):
    # the writer as it was before the text cache: every value of every row
    # through one "%.17g" row format
    with open(path, "w") as fh:
        fh.write(TRAJECTORY_HEADER + "\n")
        for rec in records:
            for row in rec.column_stack().tolist():
                fh.write(",".join(["%.17g"] * len(row)) % tuple(row) + "\n")
    return path


def _quantum_records(tmp_path, monkeypatch):
    # the records the quantum-qmf runner hands to emit_trajectories
    import spinloop.scenarios as scenarios

    seen = []
    real = scenarios.emit_trajectories

    def capture(path, records):
        seen.extend(records)
        return real(path, records)

    monkeypatch.setattr(scenarios, "emit_trajectories", capture)
    cfgp = tmp_path / "q.json"
    cfgp.write_text(json.dumps({
        "run": {"kind": "quantum-qmf", "n_shots": "3", "seed": "41"},
        "loop": {"theta0": "0.4"},
        "lmg": {"s": "0.7", "lambda": "1.3089969389957471e5"},
        "quantum": {"j": "10", "sigma": "3", "dt": "2e-6", "n_steps": "12"},
    }))
    assert simulate_main(["quantum-qmf", "--config", str(cfgp),
                          "--out", str(tmp_path / "q")]) == 0
    return seen


def _edge_records():
    # signed zeros, NaN and infinities, and an int64 column whose bytes are
    # those of a float64 column: only the dtype tells the two texts apart
    f = np.array([-0.0, 0.0, math.nan, math.inf, -math.inf, 0.1, 2.0**60])
    i = f.view(np.int64)
    n = len(f)
    t = np.arange(n, dtype=float)
    col = lambda v: np.full(n, v)  # noqa: E731
    recs = [
        TrajectoryRecord(t, f, col(-0.0), col(math.nan), f, i, col(math.inf), i, f),
        TrajectoryRecord(t.copy(), i, f.copy(), col(-math.inf), i, f, col(-0.0), f, i),
        TrajectoryRecord(t, [0.5] * n, f.tolist(), col(1e-320), f, i.copy(), f, i, f),
    ]
    # a shorter record: a split by rows cuts between unequal records
    return recs + [TrajectoryRecord(*(np.asarray(c)[:2] for c in recs[1].columns()))]


# (case, usable CPUs): every file goes through runio._write_parts, and at 2
# and 3 CPUs every file of two or more records is cut into that many parts
TRAJECTORY_CASES = [
    pytest.param(case, cpus, id=case if cpus == 1 else f"{case}-{cpus}cpus")
    for case in ("lmg-array", "lmg-scalar", "kt-array", "quantum", "edge", "one-record")
    for cpus in (1, 2, 3)
]


@pytest.mark.parametrize("case, cpus", TRAJECTORY_CASES)
def test_emit_trajectories_matches_per_row_format(tmp_path, monkeypatch, case, cpus):
    parts = []
    real_write_parts = runio._write_parts

    def write_parts(fh, columns, ranges):
        parts.append(len(ranges))
        real_write_parts(fh, columns, ranges)

    monkeypatch.setattr(runio, "_write_parts", write_parts)
    monkeypatch.setattr(runio, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(runio, "PART_MIN_ROWS", 1)
    lmg_cfg = LoopConfig(duration=1e-4, qpn=True,
                         rotation_noise=RotationNoise(amplitude_error_sigma=0.01))
    kt_cfg = LoopConfig(latency=2e-6, duration=2.2e-4, qpn=True)
    model = MeasurementModel(sn_coeff=0.2)
    lmg = LmgParams(s=0.7, lambda_=1e5)
    if case == "lmg-array":
        recs = run_batch(lmg_cfg, lmg, model, 8, 4)
        assert recs[0].t is recs[1].t
    elif case == "lmg-scalar":
        # equal shared columns, but one array object per shot
        recs = [run_lmg_loop(LoopConfig(duration=1e-4, qpn=True), lmg, model, shot_rng(4, i))
                for i in range(3)]
        assert recs[0].t is not recs[1].t
    elif case == "kt-array":
        sched = QktSchedule(40e-6, 6e-6, 2e-6, 4)
        recs = run_batch(kt_cfg, KtParams(alpha=2.9, k=2.7), model, 10, 4, sched=sched)
        assert np.isnan(recs[0].meas).any()
    elif case == "quantum":
        recs = _quantum_records(tmp_path, monkeypatch)
        assert len(recs) == 3
    elif case == "edge":
        recs = _edge_records()
    else:  # one record cannot be split
        recs = run_batch(lmg_cfg, lmg, model, 1, 4)
    parts.clear()
    if min(cpus, len(recs)) == 1:  # one part is written here: no child
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    path, offsets = emit_trajectories(tmp_path / "t.csv", recs)
    assert parts == [min(cpus, len(recs))]
    want = _reference_trajectories(tmp_path / "want.csv", recs)
    assert path.read_bytes() == want.read_bytes()
    assert offsets == [sum(len(r.t) for r in recs[:k]) for k in range(len(recs))]


SUBSETS = ((), ("z",), ("t", "z"), ("t", "z", "meas"), ("ctl_x", "x", "j_est"),
           TrajectoryRecord.COLUMNS)


@pytest.mark.parametrize("columns", SUBSETS)
def test_read_trajectory_subset(tmp_path, columns):
    recs = run_batch(LoopConfig(duration=5e-5, qpn=True), LmgParams(s=0.7, lambda_=1e5),
                     MeasurementModel(), 3, 1)
    path, _ = emit_trajectories(tmp_path / "t.csv", recs)
    full = read_trajectory_csv(path)
    part = read_trajectory_csv(path, columns)
    assert len(part) == len(full) == 3
    for a, b in zip(full, part):
        for name in TrajectoryRecord.COLUMNS:
            got = getattr(b, name)
            if name == "t" or name in columns:
                assert np.array_equal(got, getattr(a, name))
            else:
                assert got is None


def test_partial_record_is_refused(tmp_path, monkeypatch):
    path, _ = emit_trajectories(tmp_path / "t.csv", run_batch(
        LoopConfig(duration=5e-5), LmgParams(s=0.7, lambda_=1e5), MeasurementModel(), 2, 1))
    with pytest.raises(ValueError, match="nope"):
        read_trajectory_csv(path, ("z", "nope"))
    part = read_trajectory_csv(path, ("t", "z", "meas"))
    with pytest.raises(ValueError, match="column x"):
        part[0].column_stack()
    # refused before the split path could fork
    monkeypatch.setattr(runio, "PART_MIN_ROWS", 1)
    monkeypatch.setattr(runio, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    with pytest.raises(ValueError, match="column x"):
        emit_trajectories(tmp_path / "again.csv", part)
    assert not (tmp_path / "again.csv").exists()


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(sizes=st.lists(st.integers(0, 40), max_size=12), cpus=st.integers(1, 5),
       least=st.integers(1, 60))
def test_part_cuts_are_contiguous_and_non_empty(sizes, cpus, least):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runio, "_usable_cpus", lambda: cpus)
        ranges = runio.part_cuts(sizes, least)
    assert len(ranges) == max(1, min(cpus, len(sizes), sum(sizes) // least))
    assert ranges[0][0] == 0 and ranges[-1][1] == len(sizes)
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    assert all(a < b for a, b in ranges) or ranges == [(0, 0)]


def test_part_cuts_balance_equal_items(monkeypatch):
    # equal items are cut at the ceiling of k n / parts
    monkeypatch.setattr(runio, "_usable_cpus", lambda: 3)
    assert runio.part_cuts([7] * 10, 1) == [(0, 4), (4, 7), (7, 10)]
    assert runio.part_cuts([7] * 10, 30) == [(0, 5), (5, 10)]
    assert runio.part_cuts([7] * 10, 71) == [(0, 10)]
    assert runio.part_cuts([], 1) == [(0, 0)]


ENOSPC = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
# the two kinds of fault a writer meets: the CLI reads both as runtime errors
FAULTS = {"oserror": ENOSPC, "other": ValueError("bad text")}


def _emit_records():
    return run_batch(LoopConfig(duration=1e-4, qpn=True), LmgParams(s=0.7, lambda_=1e5),
                     MeasurementModel(), 3, 1)


def _split_emit(monkeypatch, cpus):
    monkeypatch.setattr(runio, "PART_MIN_ROWS", 1)
    monkeypatch.setattr(runio, "_usable_cpus", lambda: cpus)


def _failing_lines(monkeypatch, here=None, child=None):
    """runio._lines raising `here` in this process and `child` in a forked
    one; a child given "stall" sleeps 30 s first."""
    parent = os.getpid()
    real_lines = runio._lines

    def lines(columns):
        fault = here if os.getpid() == parent else child
        if fault == "stall":
            time.sleep(30)
        elif fault is not None:
            raise fault
        return real_lines(columns)

    monkeypatch.setattr(runio, "_lines", lines)


def _no_child_left():
    with pytest.raises(ChildProcessError):  # none running, none unreaped
        os.waitpid(-1, os.WNOHANG)


def _fork_fails_after(monkeypatch, n):
    """os.fork raising EAGAIN, as at a process limit, from its call n + 1 on."""
    real, calls = os.fork, []

    def fork():
        calls.append(n)
        if len(calls) > n:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real()

    monkeypatch.setattr(os, "fork", fork)


def _no_room(*args, **kwargs):
    raise ENOSPC


# (usable CPUs, the fault): a fork that fails at once or after its first
# child started, no room for a part's temporary file, or a fault that only
# a child meets
@pytest.mark.parametrize("cpus, fault", [
    (2, "fork"), (3, "second-fork"), (2, "tempfile"), (2, "oserror"), (2, "other")])
def test_split_emit_that_fails_writes_one_process_bytes(tmp_path, monkeypatch, cpus, fault):
    recs = _emit_records()
    _split_emit(monkeypatch, 1)
    want = emit_trajectories(tmp_path / "want.csv", recs)[0].read_bytes()
    _split_emit(monkeypatch, cpus)
    if fault in FAULTS:
        _failing_lines(monkeypatch, child=FAULTS[fault])
    elif fault == "tempfile":
        monkeypatch.setattr(runio.tempfile, "TemporaryFile", _no_room)
    else:
        _fork_fails_after(monkeypatch, int(fault == "second-fork"))
    path, offsets = emit_trajectories(tmp_path / "t" / "t.csv", recs)
    assert path.read_bytes() == want
    assert offsets == [0, 50, 100]
    _no_child_left()
    # the parts were anonymous files
    assert [p.name for p in path.parent.iterdir()] == ["t.csv"]


@pytest.mark.parametrize("fault", FAULTS)
def test_split_emit_failure_reads_as_one_process(tmp_path, monkeypatch, capsys, fault):
    # a fault every process meets: the same error at 1 and 2 CPUs, from the
    # library and from the CLI, and the same partial output
    error = FAULTS[fault]
    _failing_lines(monkeypatch, here=error, child=error)
    recs = _emit_records()
    path = tmp_path / "t" / "t.csv"
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("[run]\nkind = ssb-ensemble\nn_shots = 3\n\n[loop]\n"
                    "duration = 1e-4\nqpn = true\n\n[lmg]\ns = 0.7\n")
    out = tmp_path / "o"
    seen = []
    for cpus in (1, 2):
        _split_emit(monkeypatch, cpus)
        with pytest.raises(type(error)) as err:
            emit_trajectories(path, recs)
        assert simulate_main(["ssb-ensemble", "--config", str(cfgp), "--out", str(out)]) == 1
        seen.append((str(err.value), capsys.readouterr().err,
                     [p.name for p in path.parent.iterdir()], [p.name for p in out.iterdir()]))
        _no_child_left()
    assert seen[0] == seen[1]
    message, stderr, left, left_out = seen[0]
    if isinstance(error, OSError):
        assert message == f"cannot write {path}: {error}"
    else:
        assert message == "bad text"
    assert stderr.count("\n") == 1
    assert json.loads(stderr) == {"error": "runtime", "message": message.replace(
        str(path), str(out / "trajectories.csv"))}
    assert left == ["t.csv"] and left_out == ["trajectories.csv"]


def test_split_emit_failure_reaps_every_child(tmp_path, monkeypatch):
    # this process fails while its child formats: the child is killed, not
    # awaited, and reaped, and the rows are written again here, to the error
    # of one process
    _split_emit(monkeypatch, 2)
    _failing_lines(monkeypatch, here=ENOSPC, child="stall")
    path = tmp_path / "t" / "t.csv"
    t0 = time.monotonic()
    with pytest.raises(OSError) as err:
        emit_trajectories(path, _emit_records())
    assert time.monotonic() - t0 < 15
    assert str(err.value) == f"cannot write {path}: {ENOSPC}"
    _no_child_left()
    assert [p.name for p in path.parent.iterdir()] == ["t.csv"]


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
@pytest.mark.parametrize("scenario, text, message", [
    # an enormous kick strength drives the Lyapunov tangent vector out of
    # tolerance
    ("lyapunov", "[kt]\nalpha = 1.5707963267948966\nk = 1.7e308\n", "tangent vector"),
    # a finite single-atom spin so large that the sample variance overflows
    ("noise-budget", "n_shots = 3\n\n[measurement]\nf = 1e300\nsn_coeff = 0.2\n\n"
     "[noise]\nstatic_detuning_sigma = 3.0\nrabi_rate = 39584.07\n\n"
     "[sweep]\nn1 = 1e4 3.16e4 1e5 3.16e5 1e6 3.16e6 1e7\n", "overflow"),
])
def test_simulate_cli_reports_arithmetic_error(tmp_path, capsys, scenario, text, message):
    # the fault raises FloatingPointError inside the scenario; no numpy
    # warning may be emitted on the way
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(f"[run]\nkind = {scenario}\n" + text)
    out = tmp_path / "o"
    assert simulate_main([scenario, "--config", str(cfgp), "--out", str(out)]) == 1
    stderr = capsys.readouterr().err
    assert stderr.count("\n") == 1
    err = json.loads(stderr)
    assert err["error"] == "runtime"
    assert message in err["message"]
    assert not out.exists()  # the run failed before its first write


ROOT = Path(__file__).resolve().parents[1]
LMG07 = LmgParams(s=0.7, lambda_=1.3089969389957471e5)
EQUATOR = SphericalAngles(1.5707963267948966, 0.0)
COMPOSITE_NOISE = RotationNoise(static_detuning_sigma=791.68, rabi_rate=39584.07)
BUDGET_NOISE = RotationNoise(static_detuning_sigma=3.0, rabi_rate=39584.07)
# the kicked-top loops take loop.sample_period as their plant grid
SHIPPED = {
    "configs/composite_scan.cfg": ExperimentConfig(
        kind="composite-scan", loop=LoopConfig(rotation_noise=COMPOSITE_NOISE),
        measurement=MeasurementModel(), n_shots=500, master_seed=3,
        out_dir="out/composite",
        sweep={"theta": [0.785, 1.571, 2.356, 3.142, 3.927, 4.712, 5.498]},
    ),
    "configs/dpt_sweep.cfg": ExperimentConfig(
        kind="dpt-sweep",
        loop=LoopConfig(sample_period=1e-7, latency=0.0, plant_dt=1e-7, duration=1.5e-3,
                        decay_half_time=None, initial_state=SphericalAngles(0.0, 0.0)),
        measurement=MeasurementModel(), out_dir="out/dpt",
        sweep={"s": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.63, 0.635, 0.64, 0.645, 0.65,
                     0.655, 0.66, 0.665, 0.67, 0.675, 0.68, 0.685, 0.69, 0.695, 0.7, 0.8]},
    ),
    "configs/ftc_sweep.cfg": ExperimentConfig(
        kind="ftc-sweep",
        loop=LoopConfig(latency=4e-6, plant_dt=2e-6, duration=1.3e-3, decay_half_time=None,
                        initial_state=SphericalAngles(0.0, 0.0), qpn=True),
        measurement=MeasurementModel(), kt=KtParams(k=2.7),
        kt_schedule=QktSchedule(40e-6, 6e-6, 2e-6, 25), n_shots=50,
        master_seed=100, out_dir="out/ftc",
        sweep={"alpha": [f * math.pi for f in
                         (0.90, 0.93, 0.95, 0.97, 1.0, 1.03, 1.05, 1.07, 1.10)]},
    ),
    "configs/kt_run.cfg": ExperimentConfig(
        kind="kt-run",
        loop=LoopConfig(latency=4e-6, plant_dt=2e-6, duration=1.3e-3, decay_half_time=None,
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
    "configs/lyapunov.cfg": ExperimentConfig(
        kind="lyapunov", loop=LoopConfig(initial_state=SphericalAngles(2.0, 1.0)),
        measurement=MeasurementModel(), kt=KtParams(1.5707963267948966),
        out_dir="out/lyapunov", sweep={"k": [0.5, 2.5, 3.0]},
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
                        qpn=True, fixed_point=FixedPointFormat()),
        measurement=MeasurementModel(sn_coeff=0.2), lmg=LMG07, n_shots=4,
        out_dir="out/dpt_fxp", sweep={"s": [0.5, 0.6, 0.65, 0.7, 0.8]},
    ),
    "perfbench/configs/kt_sweep.cfg": ExperimentConfig(
        kind="ftc-sweep",
        loop=LoopConfig(latency=4e-6, plant_dt=2e-6, duration=1.3e-3, decay_half_time=None,
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


def test_tool_version_matches_pyproject():
    # every manifest records spinloop.__version__ as its tool_version
    text = (ROOT / "pyproject.toml").read_text()
    assert re.findall(r'^version = "(.*)"$', text, re.M) == [spinloop.__version__]


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_values(name):
    assert parse_config(ROOT / name) == SHIPPED[name]


@pytest.mark.parametrize("name", [n for n in sorted(SHIPPED) if n.endswith(".cfg")])
def test_shipped_config_as_native_json(tmp_path, name):
    # each value as the JSON type it converts to: numbers, arrays of
    # numbers, booleans and null (decay_half_time = none)
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(ROOT / name)
    native = {sec: {key: _SCHEMA[sec][key](val) for key, val in cp.items(sec)}
              for sec in cp.sections()}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(native))
    assert parse_config(p) == SHIPPED[name]


def test_scenarios_read_exactly_the_schema():
    # every key a scenario reads or requires is in the schema, and every
    # schema key is read by some scenario, so none is accepted and ignored
    schema = {f"{sec}.{key}" for sec, body in _SCHEMA.items() for key in body}
    read = set(_EVERY)
    for reads, requires in SCENARIOS.values():
        read.update(reads)
        for req in requires:
            assert req in schema or req in _SCHEMA, req
    assert read == schema


# scenario -> (a config it accepts, a section and key it does not read)
UNREAD = {
    "lmg-run": ("[lmg]\ns = 0.7\n", "[quantum]\nj = 200\n", "quantum.j"),
    "kt-run": ("[kt]\nk = 2.5\n", "[sweep]\nk = 2.5\n", "sweep.k"),
    "dpt-sweep": ("[sweep]\ns = 0.7\n", "[kt]\nk = 2.5\n", "kt.k"),
    "ssb-ensemble": ("[lmg]\ns = 0.7\n", "[noise]\nrabi_rate = 4e4\n", "noise.rabi_rate"),
    "lyapunov": ("[kt]\nalpha = 1.5\nk = 2.5\n", "[loop]\nduration = 1e-3\n",
                 "loop.duration"),
    "ftc-sweep": ("[kt]\nk = 2.7\n\n[sweep]\nalpha = 3.1\n", "[lmg]\nlambda = 1e5\n",
                  "lmg.lambda"),
    "noise-budget": ("n_shots = 2\n\n[sweep]\nn1 = 1e4 1e5 1e6\n",
                     "[loop]\nlatency = 4e-6\n", "loop.latency"),
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
    ("noise-budget", "[sweep]\nn1 = 1e4 1e5 1e6\n", ["--shots", "0"], "run.n_shots"),
    ("ftc-sweep", "[sweep]\nalpha = 3.1\n", [], "[kt]"),
    ("kt-run", "[kt]\nt_linear = 3e-6\n", [], "t_linear"),
    ("lmg-run", "[lmg]\ns = 0.7\n\n[loop]\nword_bits = 24\n", [], "loop.word_bits"),
    # a word of no fraction bits: the decay tracker's rounding shift would be -1
    *[(scenario, f"{text}\n[loop]\nfixed_point = true\nword_bits = 8\nint_bits = 8\n", [],
       "loop: need 1 <= int_bits < word_bits <= 64")
      for scenario, text in (("lmg-run", "[lmg]\ns = 0.7\n"), ("kt-run", "[kt]\nk = 2.5\n"))],
    # 40 us is 13.3 samples of 3 us
    ("kt-run", "[kt]\nk = 2.5\n\n[loop]\nsample_period = 3e-6\n", [],
     "kt.t_linear (4e-05 s) is not a positive whole number of samples of "
     "loop.sample_period (3e-06 s)"),
    # a one-shot sample variance is NaN
    ("noise-budget", "[sweep]\nn1 = 1e4 1e5 1e6\n", ["--shots", "1"], "run.n_shots"),
    ("composite-scan", "[noise]\nrabi_rate = 4e4\n\n[sweep]\ntheta = 1.0\n",
     ["--shots", "99"], "run.n_shots"),
    # the kick angle would not be ready by the end of the measurement gap
    ("kt-run", "[kt]\nk = 2.5\n\n[loop]\nlatency = 8e-6\n", [], "loop.latency"),
    ("ftc-sweep", "[kt]\nk = 2.7\n\n[loop]\nlatency = 8e-6\n\n[sweep]\nalpha = 3.1\n", [],
     "loop.latency"),
    # a sweep with no points
    ("dpt-sweep", "[lmg]\nlambda = 1.3e5\n\n[sweep]\ns =\n", [], "sweep.s"),
    ("ftc-sweep", "[kt]\nk = 2.7\n\n[sweep]\nalpha =\n", [], "sweep.alpha"),
    ("lyapunov", "[kt]\nalpha = 1.5\nk = 2.5\n\n[sweep]\nk =\n", [], "sweep.k"),
    ("composite-scan", "[noise]\nrabi_rate = 4e4\n\n[sweep]\ntheta =\n",
     ["--shots", "100"], "sweep.theta"),
    # each sweep.n1 point replaces it
    ("noise-budget", "[measurement]\nn1_eff = 1e5\n\n[sweep]\nn1 = 1e4 1e5\n",
     ["--shots", "2"], "measurement.n1_eff"),
    # [quantum] values the engine cannot run
    *[("quantum-qmf", f"[lmg]\ns = 0.7\n\n[quantum]\n{key} = {value}\n", [], f"quantum.{key}")
      for key, value in (("j", 0.7), ("j", 0), ("j", "nan"), ("j", "inf"), ("j", 501),
                         ("sigma", 0), ("sigma", -20), ("sigma", "nan"), ("sigma", "inf"),
                         ("sigma", 1e-300),
                         ("dt", 0), ("dt", -2e-6), ("dt", "nan"), ("dt", "inf"),
                         ("n_steps", 0), ("n_steps", -1), ("sigma", 1e200))],
    # start angles and kick strengths the estimators cannot run
    *[("lyapunov", f"[kt]\nalpha = 1.5\nk = 2.5\n\n[loop]\n{key} = {value}\n", [],
       f"loop.{key}")
      for key, value in (("theta0", "nan"), ("phi0", "inf"))],
    # the start point is loop.theta0 and loop.phi0, and the estimators'
    # settings are constants, so there is no [lyapunov] section
    ("lyapunov", "[kt]\nalpha = 1.5\nk = 2.5\n\n[lyapunov]\ntheta0 = 2.0\n", [],
     "unknown section [lyapunov]"),
    ("lyapunov", "[kt]\nalpha = nan\nk = 2.5\n", [], "kt.alpha"),
    ("lyapunov", "[kt]\nalpha = 1.5\nk = inf\n", [], "kt.k"),
    ("lyapunov", "[kt]\nalpha = 1.5\n\n[sweep]\nk = 0.5 inf\n", [], "sweep.k"),
    ("lyapunov", "[kt]\nalpha = 1.5\n\n[sweep]\nk = nan\n", [], "sweep.k"),
    # sweep.k replaces kt.k, so exactly one of the two is given
    ("lyapunov", "[kt]\nalpha = 1.5\nk = 2.5\n\n[sweep]\nk = 0.5 2.5\n", [],
     "exactly one of kt.k and sweep.k"),
    ("lyapunov", "[kt]\nalpha = 1.5\n", [], "exactly one of kt.k and sweep.k"),
    # 40 periods of 48 us outlast the 1.5 ms run
    ("kt-run", "[kt]\nk = 2.5\nn_steps = 40\n\n[loop]\nduration = 1.5e-3\n", [],
     "loop.duration"),
    ("kt-run", "[kt]\nk = 2.5\nn_steps = 0\n", [], "n_steps must be >= 1"),
    ("lmg-run", "seed = -1\n\n[lmg]\ns = 0.7\n", [], "run.seed"),
    ("lmg-run", "[lmg]\ns = 0.7\n", ["--seed", "-1"], "run.seed"),
    # every number is finite, in every section and sweep
    *[("lmg-run", f"[lmg]\ns = 0.7\nlambda = {value}\n", [], "lmg.lambda")
      for value in ("nan", "inf")],
    *[("lmg-run", f"[lmg]\ns = 0.7\n\n[{sec}]\n{key} = {value}\n", [], f"{sec}.{key}")
      for sec, key, value in (
          ("loop", "duration", "nan"),
          ("loop", "sample_period", "inf"), ("loop", "latency", "-inf"),
          ("loop", "theta0", "nan"), ("loop", "decay_half_time", "inf"),
          ("measurement", "f", "nan"), ("measurement", "n1_eff", "inf"),
          ("noise", "fixed_detuning", "nan"))],
    ("quantum-qmf", "[lmg]\ns = 0.7\n\n[loop]\nphi0 = inf\n", [], "loop.phi0"),
    ("kt-run", "[kt]\nk = 2.5\nalpha = nan\n", [], "kt.alpha"),
    ("kt-run", "[kt]\nk = 2.5\nt_gap = inf\n", [], "kt.t_gap"),
    ("dpt-sweep", "[sweep]\ns = 0.5 nan\n", [], "sweep.s"),
    ("ftc-sweep", "[kt]\nk = 2.7\n\n[sweep]\nalpha = 3.1 inf\n", [], "sweep.alpha"),
    ("noise-budget", "[sweep]\nn1 = 1e4 nan 1e6\n", ["--shots", "2"], "sweep.n1"),
    ("noise-budget", "[measurement]\nsn_coeff = inf\n\n[sweep]\nn1 = 1e4 1e5 1e6\n",
     ["--shots", "2"], "measurement.sn_coeff"),
    ("composite-scan", "[noise]\nrabi_rate = 4e4\n\n[sweep]\ntheta = 1.0 nan\n",
     ["--shots", "100"], "sweep.theta"),
    ("composite-scan", "[noise]\nrabi_rate = inf\n\n[sweep]\ntheta = 1.0\n",
     ["--shots", "100"], "noise.rabi_rate"),
    ("composite-scan", "[noise]\nrabi_rate = 4e4\nstatic_detuning_sigma = nan\n\n"
     "[sweep]\ntheta = 1.0\n", ["--shots", "100"], "noise.static_detuning_sigma"),
    # a sweep point is checked by the dataclass whose field it replaces
    ("dpt-sweep", "[sweep]\ns = 0.5 1.5\n", [], "sweep.s: s must lie in [0, 1]"),
    ("noise-budget", "[sweep]\nn1 = 1e4 -5 1e6\n", ["--shots", "2"],
     "sweep.n1: n1_eff must be > 0"),
    # a run of no samples
    *[(scenario, f"{text}\n[loop]\nduration = 1e-300\n", [], "at least one sample")
      for scenario, text in (("lmg-run", "[lmg]\ns = 0.7\n"), ("dpt-sweep", "[sweep]\ns = 0.5\n"),
                             ("ssb-ensemble", "[lmg]\ns = 0.7\n"))],
    # the collective spin n1_eff * f overflows
    ("lmg-run", "[lmg]\ns = 0.7\n\n[measurement]\nn1_eff = 1e300\nf = 1e300\n", [],
     "n1_eff * f must be finite"),
    # 14 periods give 15 stroboscopic points, one short of the spectrum's 16
    ("ftc-sweep", "[kt]\nk = 2.7\nn_steps = 14\n\n[sweep]\nalpha = 3.1\n", [],
     "kt.n_steps: must be >= 15"),
    # the noise-budget fit has three terms, so it needs three distinct points
    *[("noise-budget", f"[sweep]\nn1 = {n1}\n", ["--shots", "2"], "sweep.n1")
      for n1 in ("1e4 1e5", "1e4 1e5 1e4")],
    # |k|/pi * 2^52 overflows the float before the range test
    ("kt-run", "[kt]\nk = 1e300\n\n[loop]\nfixed_point = true\nword_bits = 64\n"
     "int_bits = 12\n", [], "kt.k: |k|/pi (3.1831e+299) saturates the fixed-point word "
     "(loop.word_bits = 64, loop.int_bits = 12)"),
    # a decay exponent of -inf, which the rational exponential would halve
    # forever, in float and in fixed point
    *[("lmg-run", f"[lmg]\ns = 0.7\n\n[loop]\ndecay_half_time = 5e-324\n{fxp}", [],
       "loop.decay_half_time (4.94066e-324 s): the decay exponent -t ln2 / "
       "decay_half_time is -inf at the last measurement (t = 0.001498 s)")
      for fxp in ("", "fixed_point = true\n")],
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


def test_parse_floors_admit_the_fewest(tmp_path):
    # the least an ftc-sweep and a noise-budget can run with still runs
    for scenario, text in (
        ("ftc-sweep", FTC_SWEEP.replace("n_steps = 16", "n_steps = 15")),
        ("noise-budget", "[run]\nkind = noise-budget\nn_shots = 2\n\n"
                         "[sweep]\nn1 = 1e4 1e5 1e4 1e6\n"),
    ):
        cfgp = tmp_path / f"{scenario}.cfg"
        cfgp.write_text(text)
        assert simulate_main([scenario, "--config", str(cfgp),
                              "--out", str(tmp_path / scenario)]) == 0


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


def _analysis_of(kind, recs):
    # what each kind reports, computed from fully read records
    nan = float("nan")
    if kind == "symmetry":
        stats = symmetry_stats(recs)
        result = {k: stats[k] for k in ("upper_fraction", "initial_final_correlation",
                                        "tdd_list")}
        return result, "shot,tdd", [(i, nan if t is None else t)
                                    for i, t in enumerate(stats["tdd_list"])]
    if kind == "order":
        z_inf, czz_inf = order_parameters(recs)
        return {"z_inf": z_inf, "czz_inf": czz_inf}, "z_inf,czz_inf", [(z_inf, czz_inf)]
    if kind == "tdd":
        tdd = [extract_tdd(rec) for rec in recs]
        return {"tdd_list": tdd}, "shot,tdd", [(i, nan if t is None else t)
                                               for i, t in enumerate(tdd)]
    spec = [spectral_entropy(rec.z) for rec in recs]
    return ({"entropy": [s.entropy for s in spec],
             "dominant_frequency": [s.dominant_frequency for s in spec]},
            "shot,entropy,dominant_frequency",
            [(i, s.entropy, s.dominant_frequency) for i, s in enumerate(spec)])


@pytest.mark.parametrize("kind", ["symmetry", "order", "tdd", "spectrum"])
def test_analyze_kind_matches_full_read(tmp_path, kind):
    # each kind parses only its columns; its outputs must be those of the
    # analysis functions on every column
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(MINIMAL + "\n[loop]\nduration = 3e-4\nqpn = true\n")
    out = tmp_path / "o"
    assert simulate_main(["lmg-run", "--config", str(cfgp), "--shots", "4",
                          "--seed", "3", "--out", str(out)]) == 0
    csv = out / "trajectories.csv"
    full = read_trajectory_csv(csv)
    # two inputs: the records of both files, in order
    assert analyze_main([kind, "--in", str(csv), str(csv), "--out", str(tmp_path / "j")]) == 0
    result, _, _ = _analysis_of(kind, full + full)
    want = emit_json(tmp_path / "want.json", result)
    assert (tmp_path / "j" / f"{kind}.json").read_bytes() == want.read_bytes()
    assert analyze_main([kind, "--in", str(csv), "--out", str(tmp_path / "c"),
                         "--emit", "csv"]) == 0
    _, header, rows = _analysis_of(kind, full)
    want = emit_csv(tmp_path / "want.csv", header, rows)
    assert (tmp_path / "c" / f"{kind}.csv").read_bytes() == want.read_bytes()


@pytest.mark.parametrize("bad", ["missing", "header"])
def test_analyze_failed_read_leaves_no_directory(tmp_path, capsys, bad):
    src = tmp_path / "t.csv"
    if bad == "header":
        src.write_text("t,x,y\n0,1,2\n")
    out = tmp_path / "d"
    assert analyze_main(["symmetry", "--in", str(src), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "runtime"
    if bad == "header":
        assert "unexpected header" in err["message"]
    assert not out.exists()


def test_analyze_symmetry_on_kicked_top_records(tmp_path):
    # a kicked-top trajectory has no measurement at t = 0, so meas[0] is NaN;
    # the correlation takes each record's first finite measurement, the
    # first gap sample, with final states in both wells
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("[run]\nkind = kt-run\nn_shots = 4\nseed = 1\n\n"
                    "[loop]\nduration = 1.3e-3\nqpn = true\ntheta0 = 2.0\nphi0 = 1.0\n\n"
                    "[kt]\nk = 2.5\n")
    out = tmp_path / "o"
    assert simulate_main(["kt-run", "--config", str(cfgp), "--out", str(out)]) == 0
    recs = read_trajectory_csv(out / "trajectories.csv")
    assert np.isnan([rec.meas[:20] for rec in recs]).all()
    wells = np.sign([rec.z[-1] for rec in recs])
    assert len(set(wells)) == 2
    an = tmp_path / "an"
    assert analyze_main(["symmetry", "--in", str(out / "trajectories.csv"),
                         "--out", str(an)]) == 0
    got = json.loads((an / "symmetry.json").read_text())
    want = float(np.corrcoef([rec.meas[20] for rec in recs], wells)[0, 1])
    assert math.isfinite(want)
    assert got["initial_final_correlation"] == want
    # a record with no finite measurement has nothing to correlate
    recs[1] = replace(recs[1], meas=np.full(len(recs[1].t), math.nan))
    with pytest.raises(ValueError, match="record 1 has no finite measurement"):
        symmetry_stats(recs)


def test_analyze_failed_emit_leaves_no_directory(tmp_path, capsys):
    # a NaN z makes z_inf NaN, which standard JSON cannot spell: the emit
    # fails before it makes the output directory
    t = np.arange(8.0)
    z = np.array([0.1, 0.2, math.nan, 0.3, 0.3, 0.3, 0.3, 0.3])
    src = emit_trajectories(tmp_path / "t.csv", [TrajectoryRecord(t, *[z] * 8)])[0]
    out = tmp_path / "d"
    assert analyze_main(["order", "--in", str(src), "--out", str(out)]) == 1
    stderr = capsys.readouterr().err
    assert stderr.count("\n") == 1
    assert json.loads(stderr)["error"] == "runtime"
    assert not out.exists()


def test_analyze_cli_missing_input(tmp_path, capsys):
    assert analyze_main(["symmetry", "--in", str(tmp_path / "nope.csv")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "runtime"


def test_emit_json_refuses_non_standard_json(tmp_path):
    # JSON has no spelling for NaN: the writer refuses it before it makes
    # the file or its directory
    path = tmp_path / "d" / "x.json"
    with pytest.raises(ValueError):
        emit_json(path, {"a": [1.0, np.float64(math.nan)]})
    assert not path.parent.exists()


def test_emit_json_sorted_and_stable(tmp_path):
    p1 = emit_json(tmp_path / "a.json", {"b": 1.0, "a": np.float64(2.0)})
    p2 = emit_json(tmp_path / "b.json", {"a": np.float64(2.0), "b": 1.0})
    assert p1.read_bytes() == p2.read_bytes()
