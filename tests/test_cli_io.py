import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinloop.cli import analyze_main, simulate_main
from spinloop.config import ConfigError, parse_config
from spinloop.runio import (
    TRAJECTORY_HEADER,
    emit_csv,
    emit_json,
    emit_trajectories,
    file_sha256,
    fmt_float,
    read_trajectory_csv,
)


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
    # zero is accepted, and composite-scan takes a nonzero value
    cfgp.write_text(MINIMAL + "\n[noise]\nphase_noise_sigma = 0\n")
    assert parse_config(cfgp).rotation_noise.phase_noise_sigma == 0.0
    cfgp.write_text("[run]\nkind = composite-scan\n\n[noise]\n"
                    "phase_noise_sigma = 0.01\n\n[sweep]\ntheta = 1.0\n")
    assert parse_config(cfgp).rotation_noise.phase_noise_sigma == 0.01


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


@pytest.mark.parametrize("jobs", ["two", "0"])
def test_simulate_cli_rejects_bad_jobs(tmp_path, capsys, monkeypatch, jobs):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv("SPINLOOP_JOBS", jobs)
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(MINIMAL + "\n[loop]\nduration = 1e-4\n")
    assert simulate_main(["lmg-run", "--config", str(cfgp), "--shots", "2",
                          "--out", str(tmp_path / "o")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "runtime"
    assert "SPINLOOP_JOBS" in err["message"]
    assert repr(jobs) in err["message"]


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
