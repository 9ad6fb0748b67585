"""Declarative scenario configuration.

A config file is either sectioned key/value text (INI style) or a JSON
object with the same section/key structure.  Every key is validated at
parse time; unknown sections or keys are rejected with their full path.

Defaults: 500 kHz controller (2 us sample period), 6 us latency, 1.5 ms
run window, 2 ms spin-length half-time, n1_eff = 1e6, ratio = 0.5, f = 4.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .controller import FixedPointFormat
from .loop_sim import LoopConfig
from .measurement import MeasurementModel
from .models import KtParams, LmgParams
from .spin_core import RotationNoise, SphericalAngles

SCENARIO_KINDS = (
    "lmg-run",
    "kt-run",
    "dpt-sweep",
    "ssb-ensemble",
    "lyapunov",
    "ftc-sweep",
    "noise-budget",
    "composite-scan",
    "quantum-qmf",
)


class ConfigError(ValueError):
    """Raised with the offending section/key path in the message."""


@dataclass
class ExperimentConfig:
    kind: str
    loop: LoopConfig
    measurement: MeasurementModel
    lmg: LmgParams | None = None
    kt: KtParams | None = None
    n_shots: int = 1
    master_seed: int = 0
    out_dir: str = "."
    emit_format: str = "csv"
    sweep: dict = field(default_factory=dict)
    kt_schedule: dict = field(default_factory=dict)
    lyapunov: dict = field(default_factory=dict)
    quantum: dict = field(default_factory=dict)
    rotation_noise: RotationNoise | None = None

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(
                f"run.kind: unknown scenario {self.kind!r}; "
                f"expected one of {', '.join(SCENARIO_KINDS)}"
            )
        if self.n_shots < 1:
            raise ConfigError("run.n_shots: must be >= 1")
        if self.emit_format not in ("csv", "json"):
            raise ConfigError("run.emit: must be csv or json")


# section -> {key: parser}; the parser converts the raw string
def _as_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _as_float_list(s: str) -> list[float]:
    return [float(tok) for tok in s.replace(",", " ").split()]


def _as_optional_float(s: str) -> float | None:
    return None if s.strip().lower() in ("none", "off") else float(s)


_SCHEMA = {
    "run": {
        "kind": str,
        "n_shots": int,
        "seed": int,
        "out": str,
        "emit": str,
    },
    "loop": {
        "sample_period": float,
        "latency": float,
        "plant_dt": float,
        "duration": float,
        "decay_half_time": _as_optional_float,
        "theta0": float,
        "phi0": float,
        "qpn": _as_bool,
        "shot": _as_bool,
        "fixed_point": _as_bool,
        "word_bits": int,
        "int_bits": int,
    },
    "lmg": {
        "s": float,
        "lambda": float,
        "alpha_lin": float,
        "k_nl": float,
    },
    "kt": {
        "alpha": float,
        "k": float,
        "n_steps": int,
        "t_linear": float,
        "t_gap": float,
        "t_kick": float,
    },
    "measurement": {
        "n1_eff": float,
        "ratio_n2_n1": float,
        "f": float,
        "chi_p": float,
        "sn_coeff": float,
    },
    "noise": {
        "fixed_detuning": float,
        "static_detuning_sigma": float,
        "amplitude_error_sigma": float,
        "phase_noise_sigma": float,
        "rabi_rate": float,
    },
    "sweep": {
        "s": _as_float_list,
        "alpha": _as_float_list,
        "n1": _as_float_list,
        "theta": _as_float_list,
        "k": _as_float_list,
    },
    "lyapunov": {
        "theta0": float,
        "phi0": float,
        "n_steps": int,
        "n_members": int,
        "tilt": float,
        "n_fit": int,
    },
    "quantum": {
        "j": float,
        "sigma": float,
        "dt": float,
        "n_steps": int,
    },
}


def _read_sections(path: Path) -> dict:
    text = path.read_text()
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: JSON parse error at line {e.lineno}: {e.msg}")
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be an object of sections")
        out = {}
        for sec, body in data.items():
            if not isinstance(body, dict):
                raise ConfigError(f"{path}: section {sec!r} must be an object")
            out[sec] = {k: (v if isinstance(v, str) else json.dumps(v)) for k, v in body.items()}
        return out
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as e:
        raise ConfigError(f"{path}: parse error: {e}")
    return {sec: dict(cp.items(sec)) for sec in cp.sections()}


def _convert(raw: dict, path: Path) -> dict:
    conv: dict = {}
    for sec, body in raw.items():
        if sec not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{sec}]")
        conv[sec] = {}
        for key, val in body.items():
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"{path}: unknown key {sec}.{key}")
            try:
                conv[sec][key] = _SCHEMA[sec][key](val)
            except (ValueError, TypeError) as e:
                raise ConfigError(f"{path}: bad value for {sec}.{key}: {e}")
    return conv


def parse_config(path) -> ExperimentConfig:
    """Parse and fully validate a scenario configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    c = _convert(_read_sections(path), path)

    run = c.get("run", {})
    if "kind" not in run:
        raise ConfigError(f"{path}: run.kind is required")
    kind = run["kind"]
    if kind not in SCENARIO_KINDS:
        raise ConfigError(
            f"{path}: run.kind: unknown scenario {kind!r}; "
            f"expected one of {', '.join(SCENARIO_KINDS)}"
        )

    loop_raw = c.get("loop", {})
    if "sample_period" in loop_raw and "plant_dt" in loop_raw:
        if loop_raw["sample_period"] < loop_raw["plant_dt"]:
            raise ConfigError(
                f"{path}: loop.sample_period ({loop_raw['sample_period']:g}) "
                f"must be >= loop.plant_dt ({loop_raw['plant_dt']:g})"
            )
    initial = SphericalAngles(
        loop_raw.get("theta0", math.pi / 2.0), loop_raw.get("phi0", 0.0)
    )
    fmt = None
    if loop_raw.get("fixed_point", False):
        fmt = FixedPointFormat(
            word_bits=loop_raw.get("word_bits", 32),
            int_bits=loop_raw.get("int_bits", 4),
        )

    noise = None
    if "noise" in c:
        try:
            noise = RotationNoise(**c["noise"])
        except ValueError as e:
            raise ConfigError(f"{path}: noise: {e}")
        # only the composite pulses draw drive-axis phase jitter
        if noise.phase_noise_sigma != 0 and kind != "composite-scan":
            raise ConfigError(
                f"{path}: noise.phase_noise_sigma: only composite-scan uses "
                f"phase noise; {kind} would ignore it"
            )

    try:
        loop = LoopConfig(
            sample_period=loop_raw.get("sample_period", 2e-6),
            latency=loop_raw.get("latency", 6e-6),
            plant_dt=loop_raw.get("plant_dt", 1e-7),
            duration=loop_raw.get("duration", 1.5e-3),
            decay_half_time=loop_raw.get("decay_half_time", 2e-3),
            initial_state=initial,
            qpn=loop_raw.get("qpn", False),
            shot=loop_raw.get("shot", False),
            rotation_noise=noise,
            fixed_point=fmt,
        )
    except ValueError as e:
        raise ConfigError(f"{path}: loop: {e}")

    meas_raw = c.get("measurement", {})
    try:
        meas = MeasurementModel(
            n1_eff=meas_raw.get("n1_eff", 1e6),
            ratio_n2_n1=meas_raw.get("ratio_n2_n1", 0.5),
            f=meas_raw.get("f", 4.0),
            chi_p=meas_raw.get("chi_p", 1.0),
            sn_coeff=meas_raw.get("sn_coeff", 0.0),
        )
    except ValueError as e:
        raise ConfigError(f"{path}: measurement: {e}")

    lmg = None
    if "lmg" in c:
        g = c["lmg"]
        try:
            if "alpha_lin" in g or "k_nl" in g:
                if "s" in g or "lambda" in g:
                    raise ValueError("give either (s, lambda) or (alpha_lin, k_nl)")
                lmg = LmgParams.from_rates(g.get("alpha_lin", 0.0), g.get("k_nl", 0.0))
            else:
                lmg = LmgParams(s=g.get("s", 0.0), lambda_=g.get("lambda", 2.0 * math.pi * 6.25e3))
        except ValueError as e:
            raise ConfigError(f"{path}: lmg: {e}")

    kt = None
    kt_sched = {}
    if "kt" in c:
        g = c["kt"]
        try:
            kt = KtParams(alpha=g.get("alpha", math.pi / 2.0), k=g.get("k", 0.0))
        except ValueError as e:
            raise ConfigError(f"{path}: kt: {e}")
        kt_sched = {
            "n_steps": g.get("n_steps", 25),
            "t_linear": g.get("t_linear", 40e-6),
            "t_gap": g.get("t_gap", 6e-6),
            "t_kick": g.get("t_kick", 2e-6),
        }

    needs = {
        "lmg-run": ("lmg",),
        "dpt-sweep": (),
        "ssb-ensemble": ("lmg",),
        "kt-run": ("kt",),
        "ftc-sweep": (),
        "lyapunov": ("kt",),
        "noise-budget": (),
        "composite-scan": (),
        "quantum-qmf": ("lmg",),
    }[kind]
    for name in needs:
        if locals()[name] is None:
            raise ConfigError(f"{path}: scenario {kind} requires a [{name}] section")

    return ExperimentConfig(
        kind=kind,
        loop=loop,
        measurement=meas,
        lmg=lmg,
        kt=kt,
        n_shots=run.get("n_shots", 1),
        master_seed=run.get("seed", 0),
        out_dir=run.get("out", "."),
        emit_format=run.get("emit", "csv"),
        sweep=c.get("sweep", {}),
        kt_schedule=kt_sched,
        lyapunov=c.get("lyapunov", {}),
        quantum=c.get("quantum", {}),
        rotation_noise=noise,
    )
