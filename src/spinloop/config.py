"""Declarative scenario configuration, and the one statement of its rules.

A config file is either sectioned key/value text (INI style) or a JSON
object with the same section/key structure; in JSON a sweep may be an
array of numbers and none may be null.  Each rule below is a ConfigError,
raised before any output directory is created:

- Every number is finite, and each sweep point is checked as the field it
  replaces: sweep.s as lmg.s and sweep.n1 as measurement.n1_eff.
- A key is accepted only if the scenario named by run.kind reads it.
  ``SCENARIOS`` lists the keys each scenario reads and the sections or keys
  it requires; any other key is an error naming section.key.
- A key read only under a condition on another key is accepted only where
  the condition holds; ``_GATES`` lists them, and the error names both keys.
  In the five closed loops (lmg-run, kt-run, dpt-sweep, ssb-ensemble and
  ftc-sweep), loop.word_bits and loop.int_bits need loop.fixed_point = true,
  measurement.sn_coeff needs loop.shot = true, loop.shot = true needs
  measurement.sn_coeff > 0, and measurement.ratio_n2_n1 needs loop.qpn =
  true.  Photon shot noise is on exactly when measurement.sn_coeff > 0; the
  loops do not read loop.shot, which a config still sets to true beside a
  positive sn_coeff, as these gates require.  On the LMG plant (lmg-run,
  dpt-sweep and ssb-ensemble) only the decay tracker computes in fixed
  point, so loop.fixed_point needs a loop.decay_half_time other than none.
- Every key a scenario reads changes its outputs, but for six that stay
  accepted because the benchmark configs set them: lmg.s in dpt-sweep and
  kt.alpha in ftc-sweep, which each sweep point replaces, and loop.latency
  and loop.duration in kt-run and ftc-sweep, which only bound the kicked-top
  schedule (below).
- The kicked-top loops hold each rate for whole samples, so they read no
  loop.plant_dt; their plant grid is loop.sample_period.
- The simulate flags --seed, --shots, --out and --emit are checked as the
  run keys they set, so --emit (run.emit) applies only to the scenarios
  that write tables: dpt-sweep, lyapunov, ftc-sweep, noise-budget and
  composite-scan.
- In lyapunov, sweep.k replaces kt.k, and a config gives exactly one of
  the two.
- run.seed must be >= 0, and run.n_shots at least the scenario's minimum:
  2 in noise-budget and 100 in composite-scan.
- In kt-run and ftc-sweep, kt.n_steps must be >= 1 (``controller.QktSchedule``)
  and each of kt.t_linear, kt.t_gap and kt.t_kick a positive whole number of
  loop.sample_period; loop.latency may not exceed kt.t_gap, and the schedule
  must fit in loop.duration (checked by ``loop_sim._kt_layout``).
- In ftc-sweep, kt.n_steps must be >= 15: each series holds the start and
  one point per period, and the spectrum takes at least
  ``analysis.FTC_MIN_POINTS`` (16) points.
- In noise-budget, sweep.n1 needs at least ``measurement.MIN_FIT_POINTS``
  (3) distinct points, one per fitted term.
- In every closed loop the decay exponent -t ln2 / loop.decay_half_time at
  the last measurement is finite.
- The photon shot-noise variance measurement.sn_coeff / loop.sample_period
  is finite (``measurement.shot_noise_variance``); the error names both keys.
- With loop.fixed_point = true no controller input saturates the word
  (loop.word_bits, loop.int_bits): in kt-run and ftc-sweep |kt.k|/pi, the
  largest kick-angle argument, fits in it, and in every closed loop so does
  the decay exponent -t ln2 / loop.decay_half_time at the last measurement.
- In quantum-qmf, 2 * quantum.j must be a positive integer with
  j <= quantum.J_MAX (500), quantum.sigma and quantum.dt > 0 with sigma**2
  neither 0 nor inf, and quantum.n_steps >= 1.

A key the file leaves out takes the default of the dataclass or builder it
feeds, and a [quantum] key its value in ``QUANTUM_DEFAULTS``.
[lmg] takes the model's s and lambda; the [noise] section is built once,
as loop.rotation_noise, where every scenario that reads it finds it.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .analysis import FTC_MIN_POINTS
from .controller import FixedPointFormat, QktSchedule
from .loop_sim import LoopConfig, _kt_layout, check_word
from .measurement import (
    MIN_FIT_POINTS,
    MIN_SCAN_SHOTS,
    MeasurementModel,
    shot_noise_variance,
)
from .models import KtParams, LmgParams
from .quantum import check_j
from .spin_core import RotationNoise, SphericalAngles


class ConfigError(ValueError):
    """Raised with the offending section/key path in the message."""


# the [quantum] values a file leaves out
QUANTUM_DEFAULTS = {"j": 200.0, "sigma": 20.0, "dt": 2e-6, "n_steps": 150}


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
    kt_schedule: QktSchedule | None = None
    quantum: dict = field(default_factory=lambda: dict(QUANTUM_DEFAULTS))

    def __post_init__(self) -> None:
        least = _MIN_SHOTS.get(self.kind, 1)
        if self.n_shots < least:
            raise ConfigError(f"run.n_shots: must be >= {least} for scenario {self.kind}")
        if self.emit_format not in ("csv", "json"):
            raise ConfigError("run.emit: must be csv or json")
        if self.master_seed < 0:
            raise ConfigError("run.seed: must be >= 0")
        _check_quantum(self.quantum)


def _check_quantum(q: dict) -> None:
    """The [quantum] values that will run must be ones the engine can run."""
    try:
        check_j(q["j"])
    except ValueError as e:
        raise ConfigError(f"quantum.j: {e}") from None
    for key in ("sigma", "dt"):
        if q[key] <= 0:
            raise ConfigError(f"quantum.{key}: must be > 0")
    # the Kraus operator's normalisation (2 pi sigma^2)^(-1/4) needs a finite
    # sigma^2 > 0; a product, unlike **, overflows to inf instead of raising
    s2 = q["sigma"] * q["sigma"]
    if s2 == 0.0 or not math.isfinite(s2):
        raise ConfigError("quantum.sigma: its square underflows to 0 or overflows")
    if q["n_steps"] < 1:
        raise ConfigError("quantum.n_steps: must be >= 1")


# scenario -> fewest shots it can use, when more than one: noise-budget
# takes a sample variance (ddof = 1) at each point
_MIN_SHOTS = {"noise-budget": 2, "composite-scan": MIN_SCAN_SHOTS}


# section -> {key: parser}; the parser converts the raw string
def _as_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _finite(s: str) -> float:
    value = float(s)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, not {s.strip()}")
    return value


def _as_float_list(s: str) -> list[float]:
    values = [_finite(tok) for tok in s.replace(",", " ").split()]
    if not values:
        raise ValueError("needs at least one value")
    return values


def _as_optional_float(s: str) -> float | None:
    return None if s.strip().lower() == "none" else _finite(s)


_SCHEMA = {
    "run": {
        "kind": str,
        "n_shots": int,
        "seed": int,
        "out": str,
        "emit": str,
    },
    "loop": {
        "sample_period": _finite,
        "latency": _finite,
        "plant_dt": _finite,
        "duration": _finite,
        "decay_half_time": _as_optional_float,
        "theta0": _finite,
        "phi0": _finite,
        "qpn": _as_bool,
        "shot": _as_bool,
        "fixed_point": _as_bool,
        "word_bits": int,
        "int_bits": int,
    },
    "lmg": {
        "s": _finite,
        "lambda": _finite,
    },
    "kt": {
        "alpha": _finite,
        "k": _finite,
        "n_steps": int,
        "t_linear": _finite,
        "t_gap": _finite,
        "t_kick": _finite,
    },
    "measurement": {
        "n1_eff": _finite,
        "ratio_n2_n1": _finite,
        "f": _finite,
        "sn_coeff": _finite,
    },
    "noise": {
        "fixed_detuning": _finite,
        "static_detuning_sigma": _finite,
        "amplitude_error_sigma": _finite,
        "phase_noise_sigma": _finite,
        "rabi_rate": _finite,
    },
    "sweep": {
        "s": _as_float_list,
        "alpha": _as_float_list,
        "n1": _as_float_list,
        "theta": _as_float_list,
        "k": _as_float_list,
    },
    "quantum": {
        "j": _finite,
        "sigma": _finite,
        "dt": _finite,
        "n_steps": int,
    },
}


def _all(section: str) -> tuple[str, ...]:
    return tuple(f"{section}.{key}" for key in _SCHEMA[section])


# read by every scenario
_EVERY = ("run.kind", "run.seed", "run.out")
# the closed loop (run_batch); _GATES lists the keys it reads only under a
# condition
_CLOSED_LOOP = (
    "run.n_shots", *_all("loop"), *_all("measurement"),
    "noise.fixed_detuning", "noise.static_detuning_sigma",
    "noise.amplitude_error_sigma",
)
# the kicked-top loop holds each rate for whole samples: no plant_dt
_KT_CLOSED_LOOP = tuple(k for k in _CLOSED_LOOP if k != "loop.plant_dt") + _all("kt")

# scenario -> (keys it reads besides _EVERY, sections or keys it requires).
# Six keys read change no output; each stays only because a benchmark config
# sets it.
SCENARIOS = {
    "lmg-run": (_CLOSED_LOOP + _all("lmg"), ("lmg",)),
    # loop.latency and loop.duration only bound the schedule (_kt_layout)
    "kt-run": (_KT_CLOSED_LOOP, ("kt",)),
    # each sweep.s point replaces lmg.s
    "dpt-sweep": (
        _CLOSED_LOOP + ("run.emit", "lmg.lambda", "lmg.s", "sweep.s"),
        ("sweep.s",),
    ),
    "ssb-ensemble": (_CLOSED_LOOP + _all("lmg"), ("lmg",)),
    # sweep.k replaces kt.k, so a config gives exactly one of the two
    "lyapunov": (
        ("run.emit", "kt.alpha", "kt.k", "loop.theta0", "loop.phi0", "sweep.k"),
        ("kt.alpha",),
    ),
    # each sweep.alpha point replaces kt.alpha; loop.latency and
    # loop.duration only bound the schedule (_kt_layout)
    "ftc-sweep": (_KT_CLOSED_LOOP + ("run.emit", "sweep.alpha"), ("kt", "sweep.alpha")),
    # each sweep.n1 point replaces measurement.n1_eff, so it is not read
    "noise-budget": (
        ("run.n_shots", "run.emit", "loop.sample_period", "measurement.ratio_n2_n1",
         "measurement.f", "measurement.sn_coeff",
         "noise.static_detuning_sigma", "noise.rabi_rate", "sweep.n1"),
        ("sweep.n1",),
    ),
    "composite-scan": (
        ("run.n_shots", "run.emit", *_all("noise"), "sweep.theta"),
        ("noise", "sweep.theta"),
    ),
    "quantum-qmf": (
        ("run.n_shots", "loop.theta0", "loop.phi0", *_all("lmg"), *_all("quantum")),
        ("lmg",),
    ),
}

_LMG_LOOPS = ("lmg-run", "dpt-sweep", "ssb-ensemble")
_KT_LOOPS = ("kt-run", "ftc-sweep")
_LOOPS = _LMG_LOOPS + _KT_LOOPS


def _fixed_point(loop: dict, meas: dict) -> bool:
    return loop.get("fixed_point", False)


# Gated reads: (scenarios, key, the one value gated or None for any, and the
# condition under which the run reads it, as text and as a test of the
# [loop] and [measurement] values given)
_GATES = (
    (_LOOPS, "loop.word_bits", None, "loop.fixed_point = true", _fixed_point),
    (_LOOPS, "loop.int_bits", None, "loop.fixed_point = true", _fixed_point),
    (_LOOPS, "measurement.sn_coeff", None, "loop.shot = true",
     lambda loop, meas: loop.get("shot", False)),
    (_LOOPS, "loop.shot", True, "measurement.sn_coeff > 0",
     lambda loop, meas: meas.get("sn_coeff", MeasurementModel.sn_coeff) > 0),
    (_LOOPS, "measurement.ratio_n2_n1", None, "loop.qpn = true",
     lambda loop, meas: loop.get("qpn", False)),
    # the LMG loop computes only the tracked spin length in fixed point
    (_LMG_LOOPS, "loop.fixed_point", None, "loop.decay_half_time is not none",
     lambda loop, meas: loop.get("decay_half_time", LoopConfig.decay_half_time) is not None),
)

# run key -> ExperimentConfig field
_RUN_FIELDS = {"n_shots": "n_shots", "seed": "master_seed", "out": "out_dir",
               "emit": "emit_format"}


def _ini_text(value) -> str:
    """The INI text a JSON value stands for: an array is its items separated
    by spaces, and null is none.  A nested array keeps its brackets, which
    no parser accepts."""
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return " ".join(json.dumps(v) for v in value)
    return "none" if value is None else json.dumps(value)


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
            out[sec] = {k: _ini_text(v) for k, v in body.items()}
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


def _check_reads(c: dict, kind: str, path: Path) -> None:
    reads, requires = SCENARIOS[kind]
    for sec, body in c.items():
        for key in body:
            name = f"{sec}.{key}"
            if name not in reads and name not in _EVERY:
                raise ConfigError(f"{path}: {name} is not read by scenario {kind}")
    loop, meas = c.get("loop", {}), c.get("measurement", {})
    for kinds, name, value, condition, holds in _GATES:
        sec, _, key = name.partition(".")
        body = c.get(sec, {})
        if (kind in kinds and key in body and (value is None or body[key] == value)
                and not holds(loop, meas)):
            setting = name if value is None else f"{name} = {str(value).lower()}"
            raise ConfigError(f"{path}: {setting} is read only when {condition}")
    for req in requires:
        sec, _, key = req.partition(".")
        if sec not in c or (key and key not in c[sec]):
            need = req if key else f"a [{sec}] section"
            raise ConfigError(f"{path}: scenario {kind} requires {need}")


def _given(body: dict, *keys: str) -> dict:
    return {k: body[k] for k in keys if k in body}


def _build(path: Path, section: str, make, *args, **kwargs):
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(f"{path}: {section}: {e}") from None


def parse_config(path, run_overrides: dict | None = None) -> ExperimentConfig:
    """Parse and fully validate a scenario configuration file.

    run_overrides holds typed [run] values (seed, n_shots, out, emit), as
    the simulate flags give them; they replace the file's values and are
    checked like them."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    c = _convert(_read_sections(path), path)
    run = c["run"] = {**c.get("run", {}), **(run_overrides or {})}
    if "kind" not in run:
        raise ConfigError(f"{path}: run.kind is required")
    kind = run["kind"]
    if kind not in SCENARIOS:
        raise ConfigError(
            f"{path}: run.kind: unknown scenario {kind!r}; "
            f"expected one of {', '.join(SCENARIOS)}"
        )
    _check_reads(c, kind, path)
    if kind == "lyapunov" and ("k" in c.get("kt", {})) == ("k" in c.get("sweep", {})):
        raise ConfigError(f"{path}: scenario lyapunov needs exactly one of kt.k and sweep.k")

    noise = _build(path, "noise", RotationNoise, **c["noise"]) if "noise" in c else None
    raw = c.get("loop", {})
    fmt = None
    if raw.get("fixed_point", False):
        fmt = _build(path, "loop", FixedPointFormat, **_given(raw, "word_bits", "int_bits"))
    timing = _given(raw, "sample_period", "latency", "plant_dt", "duration",
                    "decay_half_time", "qpn")
    if kind in _KT_LOOPS:  # each rate is held for whole samples
        timing["plant_dt"] = raw.get("sample_period", LoopConfig.sample_period)
    start = LoopConfig.initial_state
    loop = _build(
        path, "loop", LoopConfig, **timing,
        initial_state=SphericalAngles(
            raw.get("theta0", start.theta), raw.get("phi0", start.phi)
        ),
        rotation_noise=noise,
        fixed_point=fmt,
    )
    meas = _build(path, "measurement", MeasurementModel, **c.get("measurement", {}))
    _build(path, "measurement.sn_coeff / loop.sample_period", shot_noise_variance, meas,
           loop.sample_period)

    lmg = None
    if "lmg" in c:
        g = {("lambda_" if k == "lambda" else k): v for k, v in c["lmg"].items()}
        lmg = _build(path, "lmg", LmgParams, **g)

    # a sweep point replaces one field, so the dataclass owning it checks it
    sweep = c.get("sweep", {})
    for s in sweep.get("s", []):
        _build(path, "sweep.s", replace, lmg or LmgParams(), s=s)
    for n1 in sweep.get("n1", []):
        _build(path, "sweep.n1", replace, meas, n1_eff=n1)
    if "n1" in sweep and len(set(sweep["n1"])) < MIN_FIT_POINTS:
        raise ConfigError(f"{path}: sweep.n1: needs at least {MIN_FIT_POINTS} distinct points")

    kt = sched = None
    if "kt" in c:
        kt = _build(path, "kt", KtParams, **_given(c["kt"], "alpha", "k"))
        if kind in _KT_LOOPS:
            sched = _build(path, "kt", QktSchedule,
                           **_given(c["kt"], "t_linear", "t_gap", "t_kick", "n_steps"))
            # a stroboscopic series holds the start and one point per period
            if kind == "ftc-sweep" and sched.n_steps + 1 < FTC_MIN_POINTS:
                raise ConfigError(
                    f"{path}: kt.n_steps: must be >= {FTC_MIN_POINTS - 1} for scenario ftc-sweep"
                )
    try:  # the schedule fits the clock; every controller input is finite and fits
        if sched is not None:
            _kt_layout(loop, sched)
        check_word(loop, sched, [kt.k] if sched is not None else ())
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None

    return ExperimentConfig(
        kind=kind,
        loop=loop,
        measurement=meas,
        lmg=lmg,
        kt=kt,
        sweep=sweep,
        kt_schedule=sched,
        quantum={**QUANTUM_DEFAULTS, **c.get("quantum", {})},
        **{_RUN_FIELDS[k]: v for k, v in run.items() if k in _RUN_FIELDS},
    )
