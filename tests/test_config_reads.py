"""Every config key a scenario accepts changes its run, or is refused.

``test_every_read_key_acts`` gives each key a scenario reads a second valid
value on a small base with every switch on, and checks that the manifest's
output checksums move.  The gate cases check each conditional read
(``config._GATES``), the kicked-top plant grid and the fixed-point
saturation bounds through ``simulate`` on both sides of the rule.
"""

import json

import pytest

from spinloop.cli import simulate_main
from spinloop.config import SCENARIOS

# every switch on: projection and shot noise, a decay tracked in fixed
# point, a latency off the plant_dt grid, a start off the pole and
# detuning noise
LOOP = {"latency": "3.05e-6", "duration": "2e-5", "decay_half_time": "1e-3",
        "theta0": "1.2", "phi0": "0.3", "qpn": "true", "shot": "true",
        "fixed_point": "true", "word_bits": "32", "int_bits": "4"}
MEAS = {"ratio_n2_n1": "0.5", "sn_coeff": "0.2"}
DETUNING = {"fixed_detuning": "100", "static_detuning_sigma": "300",
            "amplitude_error_sigma": "0.01"}
LMG = {"s": "0.7", "lambda": "1.3e5"}
# 16 periods of 5 samples, the fewest an ftc-sweep takes plus one
KT_LOOP = {**LOOP, "latency": "2e-6", "duration": "2e-4"}
KT = {"alpha": "1.5", "k": "2.5", "n_steps": "16",
      "t_linear": "2e-6", "t_gap": "6e-6", "t_kick": "2e-6"}

BASE = {
    "lmg-run": {"loop": LOOP, "measurement": MEAS, "noise": DETUNING, "lmg": LMG},
    "kt-run": {"loop": KT_LOOP, "measurement": MEAS, "noise": DETUNING, "kt": KT},
    "dpt-sweep": {"loop": LOOP, "measurement": MEAS, "noise": DETUNING,
                  "lmg": {"lambda": "1.3e5"}, "sweep": {"s": "0.5 0.7"}},
    "ssb-ensemble": {"run": {"n_shots": "2"}, "loop": LOOP, "measurement": MEAS,
                     "noise": DETUNING, "lmg": LMG},
    "lyapunov": {"loop": {"theta0": "2.0", "phi0": "1.0"},
                 "kt": {"alpha": "1.5", "k": "2.5"}},
    "ftc-sweep": {"loop": KT_LOOP, "measurement": MEAS, "noise": DETUNING,
                  "kt": {**KT, "k": "2.7"}, "sweep": {"alpha": "3.0 3.14"}},
    "noise-budget": {"run": {"n_shots": "3"}, "measurement": {"sn_coeff": "0.2"},
                     "noise": {"static_detuning_sigma": "3.0", "rabi_rate": "39584.07"},
                     "sweep": {"n1": "1e4 1e5 1e6"}},
    "composite-scan": {"run": {"n_shots": "100"},
                       "noise": {**DETUNING, "phase_noise_sigma": "0.01",
                                 "rabi_rate": "39584.07"},
                       "sweep": {"theta": "0.785 1.571"}},
    "quantum-qmf": {"loop": {"theta0": "0.3", "phi0": "0.2"}, "lmg": LMG,
                    "quantum": {"j": "5", "sigma": "2", "dt": "2e-6", "n_steps": "5"}},
}

# key -> a second valid value on every base that gives it, or the value it
# sets where the base leaves it at its default
SECOND = {
    "loop.sample_period": "1e-6", "loop.latency": "5.05e-6", "loop.plant_dt": "5e-8",
    "loop.duration": "3e-4", "loop.decay_half_time": "5e-4", "loop.theta0": "1.0",
    "loop.phi0": "0.5", "loop.qpn": "false", "loop.shot": "false",
    "loop.fixed_point": "false", "loop.word_bits": "24", "loop.int_bits": "6",
    "measurement.n1_eff": "2e6", "measurement.ratio_n2_n1": "0.3",
    "measurement.f": "3", "measurement.sn_coeff": "0.1",
    "noise.fixed_detuning": "200", "noise.static_detuning_sigma": "400",
    "noise.amplitude_error_sigma": "0.02", "noise.phase_noise_sigma": "0.02",
    "noise.rabi_rate": "30000",
    "lmg.s": "0.6", "lmg.lambda": "1.2e5",
    "kt.alpha": "1.2", "kt.k": "3.0", "kt.n_steps": "17", "kt.t_linear": "4e-6",
    "kt.t_gap": "8e-6", "kt.t_kick": "4e-6",
    "sweep.s": "0.5 0.8", "sweep.alpha": "3.0 3.2", "sweep.n1": "1e4 1e5 2e6",
    "sweep.theta": "0.785 2.0", "sweep.k": "0.5 2.5",
    "quantum.j": "6", "quantum.sigma": "3", "quantum.dt": "1e-6", "quantum.n_steps": "6",
}

# key -> the keys its second value strands (a switch turned off) or
# replaces, which the changed config drops
DROPS = {
    "loop.qpn": ("measurement.ratio_n2_n1",),
    "loop.shot": ("measurement.sn_coeff",),
    "loop.fixed_point": ("loop.word_bits", "loop.int_bits"),
    "sweep.k": ("kt.k",),
}

# the keys read that change no output, each accepted because a benchmark
# config sets it
INERT = {
    ("dpt-sweep", "lmg.s"): "each sweep.s point replaces it",
    ("ftc-sweep", "kt.alpha"): "each sweep.alpha point replaces it",
    ("kt-run", "loop.latency"): "only bounds the schedule: at most kt.t_gap",
    ("kt-run", "loop.duration"): "only bounds the schedule: it must fit",
    ("ftc-sweep", "loop.latency"): "only bounds the schedule: at most kt.t_gap",
    ("ftc-sweep", "loop.duration"): "only bounds the schedule: it must fit",
}


def _ini(kind: str, sections: dict) -> str:
    sections = {"run": {}, **sections}
    sections["run"] = {"kind": kind, **sections["run"]}
    return "".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items()) + "\n"
                   for sec, body in sections.items())


def _outputs(tmp_path, kind: str, sections: dict, tag: str) -> dict:
    cfgp = tmp_path / f"{tag}.cfg"
    cfgp.write_text(_ini(kind, sections))
    out = tmp_path / tag
    code = simulate_main([kind, "--config", str(cfgp), "--out", str(out)])
    assert code == 0, (kind, tag)
    return json.loads((out / "manifest.json").read_text())["outputs"]


def _with(sections: dict, name: str, value: str) -> dict:
    """sections with name set to value, less the keys that strands or
    replaces (DROPS)."""
    changed = {sec: dict(body) for sec, body in sections.items()}
    for dropped in DROPS.get(name, ()):
        sec, _, key = dropped.partition(".")
        changed.get(sec, {}).pop(key, None)
    sec, _, key = name.partition(".")
    changed.setdefault(sec, {})[key] = value
    return changed


def test_every_read_key_acts(tmp_path):
    inert = set()
    for kind, (reads, _) in SCENARIOS.items():
        base = _outputs(tmp_path, kind, BASE[kind], kind)
        for name in reads:
            if name.startswith("run."):
                continue
            sec, _, key = name.partition(".")
            assert BASE[kind].get(sec, {}).get(key) != SECOND[name], (kind, name)
            tag = f"{kind}-{name}"
            if _outputs(tmp_path, kind, _with(BASE[kind], name, SECOND[name]), tag) == base:
                inert.add((kind, name))
    assert inert == set(INERT)


def _run(tmp_path, capsys, scenario: str, text: str, tag: str):
    """simulate exit code, stderr lines, and whether --out was written."""
    cfgp = tmp_path / f"{tag}.cfg"
    cfgp.write_text(f"[run]\nkind = {scenario}\n\n{text}")
    out = tmp_path / tag
    code = simulate_main([scenario, "--config", str(cfgp), "--out", str(out)])
    return code, capsys.readouterr().err.splitlines(), out.exists()


LMG_TEXT = "[lmg]\ns = 0.7\n\n"
KT_TEXT = "[kt]\nk = 2.5\nn_steps = 4\n\n"
FTC_TEXT = "[kt]\nk = 2.7\nn_steps = 15\n\n[sweep]\nalpha = 3.1\n\n"
# the default kicked-top schedule: 25 periods of 48 us
KT_FULL = "[kt]\nk = 2.5\n\n"

# (scenario, text the two sides share, accepted, refused, what the error names)
GATE_CASES = [
    ("lmg-run", LMG_TEXT, "[loop]\nfixed_point = true\nword_bits = 24\n",
     "[loop]\nword_bits = 24\n", ("loop.word_bits", "loop.fixed_point = true")),
    ("kt-run", KT_TEXT, "[loop]\nfixed_point = true\nint_bits = 6\n",
     "[loop]\nfixed_point = false\nint_bits = 6\n", ("loop.int_bits", "loop.fixed_point")),
    ("lmg-run", LMG_TEXT, "[loop]\nshot = true\n\n[measurement]\nsn_coeff = 0.2\n",
     "[measurement]\nsn_coeff = 0.2\n", ("measurement.sn_coeff", "loop.shot = true")),
    ("ftc-sweep", FTC_TEXT, "[loop]\nshot = true\n\n[measurement]\nsn_coeff = 0.2\n",
     "[loop]\nshot = true\n", ("loop.shot = true", "measurement.sn_coeff > 0")),
    ("dpt-sweep", "[sweep]\ns = 0.7\n\n",
     "[loop]\nshot = true\n\n[measurement]\nsn_coeff = 0.2\n",
     "[loop]\nshot = true\n\n[measurement]\nsn_coeff = 0\n",
     ("loop.shot = true", "measurement.sn_coeff > 0")),
    ("kt-run", KT_TEXT, "[loop]\nqpn = true\n\n[measurement]\nratio_n2_n1 = 0.3\n",
     "[measurement]\nratio_n2_n1 = 0.3\n", ("measurement.ratio_n2_n1", "loop.qpn = true")),
    ("ssb-ensemble", "n_shots = 2\n\n" + LMG_TEXT, "[loop]\ndecay_half_time = 1e-3\nfixed_point = true\n",
     "[loop]\ndecay_half_time = none\nfixed_point = true\n",
     ("loop.fixed_point", "loop.decay_half_time")),
    ("dpt-sweep", "[sweep]\ns = 0.7\n\n", "[loop]\nfixed_point = true\n",
     "[loop]\ndecay_half_time = none\nfixed_point = false\n",
     ("loop.fixed_point", "loop.decay_half_time")),
    # the kicked top holds each rate for whole samples: any sample period
    # that divides the schedule runs, and plant_dt is not read
    ("kt-run", "", "[loop]\nsample_period = 2.05e-6\nlatency = 4.1e-6\n\n"
     "[kt]\nk = 2.5\nn_steps = 4\nt_linear = 41e-6\nt_gap = 6.15e-6\nt_kick = 2.05e-6\n",
     KT_TEXT + "[loop]\nplant_dt = 1e-7\n", ("loop.plant_dt", "kt-run")),
    ("ftc-sweep", FTC_TEXT, "[loop]\nsample_period = 5e-8\nlatency = 0\n",
     "[loop]\nplant_dt = 2e-6\n", ("loop.plant_dt", "ftc-sweep")),
    # the default word (32, 4) holds |k|/pi < 8, so |k| < 8 pi = 25.13...
    ("kt-run", "[loop]\nfixed_point = true\n\n", "[kt]\nk = -25.13\n", "[kt]\nk = -25.14\n",
     ("kt.k", "loop.word_bits = 32", "loop.int_bits = 4")),
    ("ftc-sweep", "[loop]\nfixed_point = true\n\n[sweep]\nalpha = 3.1\n\n",
     "[kt]\nk = 25.13\nn_steps = 15\n", "[kt]\nk = 25.14\nn_steps = 15\n",
     ("kt.k", "loop.word_bits = 32")),
    # and a decay exponent of at least -8: the LMG loop's last measurement
    # is at 1.498 ms, the kicked top's at 1.192 ms
    ("lmg-run", LMG_TEXT + "[loop]\nfixed_point = true\n", "decay_half_time = 1.3e-4\n",
     "decay_half_time = 1.29e-4\n", ("loop.decay_half_time", "loop.word_bits = 32")),
    ("kt-run", KT_FULL + "[loop]\nfixed_point = true\nlatency = 4e-6\n",
     "decay_half_time = 1.04e-4\n", "decay_half_time = 1.03e-4\n",
     ("loop.decay_half_time", "loop.int_bits = 4")),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scenario, shared, accepted, refused, names", GATE_CASES)
def test_gated_reads(tmp_path, capsys, scenario, shared, accepted, refused, names):
    code, lines, written = _run(tmp_path, capsys, scenario, shared + accepted, "accepted")
    assert (code, lines, written) == (0, [], True)
    code, lines, written = _run(tmp_path, capsys, scenario, shared + refused, "refused")
    assert code == 1 and len(lines) == 1 and not written
    err = json.loads(lines[0])
    assert err["error"] == "config"
    for name in names:
        assert name in err["message"]
