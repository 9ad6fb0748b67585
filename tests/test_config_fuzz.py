"""Config fuzzer: every numeric config value either runs cleanly or is
refused with one JSON error line.

Each example draws a scenario from ``config.SCENARIOS``, a few of the
numeric keys it reads, and a value for each from an edge set (0, -1, nan,
+-inf), the extremes 5e-324, 1e-300, 1e300 and 1.7e308, and the values the
shipped configs use.  loop.word_bits and loop.int_bits are drawn only on
the fixed-point lmg-run and kt-run bases, the ones that read them, besides
the other keys, so no width draw ends in the fixed-point gate error, and
the other keys of such an example take finite values only, so that most
width draws reach FixedPointFormat's check.  The widths also draw 1, 2, 63, 64 and 65, at and
past their bounds, and 32 and 33, on both sides of the int64 raw-word limit
(FixedPointFormat.dtype); two explicit examples give them equal widths (no
fraction bits).  It runs
``simulate_main`` in process on a small base config (at most 3 shots and 50
samples; composite-scan's floor is 100 shots) and checks one of two
outcomes:

- exit 0, no warning, no infinity in any output column and no NaN but
  where a trajectory column holds it by design (``UNCHECKED``), nor in a
  summary file, and every JSON file standard JSON (no NaN or Infinity
  literal);
- exit 1 with exactly one JSON line on stderr: a ``config`` error with no
  output directory, or a ``runtime`` error.  Only an extreme finite value
  may cause a runtime error, and no value may cause one through an
  ``OverflowError`` out of ``parse_config`` or ``run_scenario``.  NaN and
  +-inf must be config errors, and 0 and -1 either run (in the key's
  domain) or are config errors (outside it).

A key read only under a condition (``config._GATES``) is drawn on a base
that meets it: the lmg-run and kt-run bases take photon shot noise
(loop.shot with measurement.sn_coeff) and the fixed-point controller,
lmg-run with its default decay, and the lmg-run, ssb-ensemble and ftc-sweep
bases take projection noise (loop.qpn).  So kt.k and loop.decay_half_time
are drawn with loop.fixed_point = true too.

The keys that set a run's size never grow it: loop.duration, the kt.t_*
segments, kt.n_steps, quantum.n_steps and run.n_shots draw only the edge
set and 1e-300, and loop.sample_period the edge set and 1e300, since
loop.duration = 1e300 alone would ask for ~1e305 samples.
"""

import configparser
import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spinloop import cli
from spinloop.cli import simulate_main
from spinloop.config import _SCHEMA, SCENARIOS, _as_bool

ROOT = Path(__file__).resolve().parents[1]

LMG = {"s": "0.7", "lambda": "1.3089969389957471e5"}
KT_LOOP = {"latency": "2e-6", "duration": "1e-4", "decay_half_time": "none"}
# 16 periods of 3 samples; ftc-sweep takes no fewer than 15 (16 stroboscopic
# points with the start, analysis.FTC_MIN_POINTS)
KT = {"n_steps": "16", "t_linear": "2e-6", "t_gap": "2e-6", "t_kick": "2e-6"}
NOISE = {"static_detuning_sigma": "3.0", "rabi_rate": "39584.07"}
# the switches behind the gated keys: shot noise and the fixed-point word
SWITCHES = {"shot": "true", "fixed_point": "true"}
SHOT_NOISE = {"sn_coeff": "0.2"}

# scenario -> a small config it runs (50 samples of the 2 us default clock)
BASE = {
    "lmg-run": {"run": {"n_shots": "2"},
                "loop": {"duration": "1e-4", "qpn": "true", **SWITCHES},
                "measurement": SHOT_NOISE, "lmg": LMG},
    "kt-run": {"run": {"n_shots": "2"}, "loop": {**KT_LOOP, **SWITCHES},
               "measurement": SHOT_NOISE,
               "kt": {"alpha": "1.5707963267948966", "k": "2.5", **KT}},
    "dpt-sweep": {"loop": {"duration": "1e-4", "theta0": "0.0"},
                  "lmg": {"lambda": LMG["lambda"]}, "sweep": {"s": "0.5 0.7"}},
    "ssb-ensemble": {"run": {"n_shots": "3"}, "loop": {"duration": "1e-4", "qpn": "true"},
                     "lmg": LMG},
    "lyapunov": {"loop": {"theta0": "2.0", "phi0": "1.0"},
                 "kt": {"alpha": "1.5707963267948966"}, "sweep": {"k": "0.5 2.5"}},
    "ftc-sweep": {"run": {"n_shots": "2"}, "loop": {**KT_LOOP, "qpn": "true"},
                  "kt": {"k": "2.7", **KT}, "sweep": {"alpha": "3.0 3.14"}},
    "noise-budget": {"run": {"n_shots": "3"}, "measurement": {"sn_coeff": "0.2"},
                     "noise": NOISE, "sweep": {"n1": "1e4 1e5 1e6"}},
    "composite-scan": {"run": {"n_shots": "100"}, "noise": NOISE,
                       "sweep": {"theta": "0.785 1.571"}},
    "quantum-qmf": {"run": {"n_shots": "2"}, "loop": {"theta0": "1e-6"}, "lmg": LMG,
                    "quantum": {"j": "10", "sigma": "2", "dt": "2e-6", "n_steps": "20"}},
}

EDGE = ("0", "-1", "nan", "inf", "-inf")
NONFINITE = {"nan", "inf", "-inf"}
EXTREME = ("5e-324", "1e-300", "1e300", "1.7e308")
# fixed-point widths around their bounds 1 <= int_bits < word_bits <= 64,
# and the widest int64 word and the narrowest one held in Python ints
WIDTHS = {"loop.word_bits", "loop.int_bits"}
BITS = ("1", "2", "32", "33", "63", "64", "65")
# size-setting key -> the extreme that shrinks the run, if it is a float
SIZE = {"loop.duration": "1e-300", "loop.sample_period": "1e300",
        "kt.t_linear": "1e-300", "kt.t_gap": "1e-300", "kt.t_kick": "1e-300",
        "kt.n_steps": None, "quantum.n_steps": None, "run.n_shots": None}
NUMERIC = {f"{sec}.{key}" for sec, body in _SCHEMA.items()
           for key, conv in body.items() if conv not in (str, _as_bool)}


def _shipped_values() -> dict:
    """section.key -> the raw values the shipped configs give it."""
    found: dict = {}
    for d in ("configs", "perfbench/configs"):
        for p in sorted((ROOT / d).iterdir()):
            if p.suffix == ".json":
                data = json.loads(p.read_text())
            else:
                cp = configparser.ConfigParser(interpolation=None)
                cp.read(p)
                data = {sec: dict(cp.items(sec)) for sec in cp.sections()}
            for sec, body in data.items():
                for key, val in body.items():
                    found.setdefault(f"{sec}.{key}", set()).add(" ".join(str(val).split()))
    return found


SHIPPED = _shipped_values()


def _candidates(kind: str, name: str) -> list[str]:
    if name in SIZE:
        return list(EDGE) + ([SIZE[name]] if SIZE[name] else [])
    values = list(EDGE + EXTREME + (BITS if name in WIDTHS else ()))
    sec, _, key = name.partition(".")
    if sec == "sweep":
        # one bad point among good ones
        head = BASE[kind]["sweep"][key].split()[:-1]
        values = [" ".join(head + [v]) for v in values]
    return values + sorted(SHIPPED.get(name, ()))


@st.composite
def runs(draw):
    kind = draw(st.sampled_from(sorted(BASE)))
    keys = sorted(k for k in SCENARIOS[kind][0] if k in NUMERIC and k not in WIDTHS)
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
    widths = []
    if BASE[kind].get("loop", {}).get("fixed_point") == "true":
        # the widths, read only on the fixed-point bases (config._GATES)
        widths = draw(st.lists(st.sampled_from(sorted(WIDTHS)), max_size=2, unique=True))
    values = {}
    for name in chosen:
        candidates = _candidates(kind, name)
        if widths:
            # finite co-keys, so that the widths reach FixedPointFormat's check
            candidates = [v for v in candidates if not set(v.split()) & NONFINITE]
        values[name] = draw(st.sampled_from(candidates))
    return kind, values | {name: draw(st.sampled_from(_candidates(kind, name)))
                           for name in widths}


def _ini(kind: str, values: dict) -> str:
    sections = {sec: dict(body) for sec, body in BASE[kind].items()}
    sections.setdefault("run", {})["kind"] = kind
    for name, value in values.items():
        sec, _, key = name.partition(".")
        sections.setdefault(sec, {})[key] = value
    return "".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items()) + "\n"
                   for sec, body in sections.items())


def _numbers(obj):
    """Every number in a parsed JSON document."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for item in obj:
            yield from _numbers(item)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


# output file -> columns that may hold NaN by design: meas outside the
# measured samples (the kicked top's gaps, a quantum run's last row) and the
# kicked top's j_est outside its gap rows.  No column may hold +-inf.
UNCHECKED = {"trajectories.csv": {"meas", "j_est"}}


def _refuse(constant: str):
    """parse_constant for strict JSON: NaN, Infinity and -Infinity are not
    standard JSON."""
    raise ValueError(f"non-standard JSON constant {constant}")


def _check_outputs(out: Path) -> None:
    for p in sorted(out.iterdir()):
        if p.suffix == ".csv":
            with open(p) as fh:
                header = fh.readline().strip().split(",")
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            for i, col in enumerate(header):
                values = data[:, i]
                if col in UNCHECKED.get(p.name, ()):
                    values = values[~np.isnan(values)]
                assert np.isfinite(values).all(), f"{p.name}: {col}"
        else:
            doc = json.loads(p.read_text(), parse_constant=_refuse)
            assert all(map(math.isfinite, _numbers(doc))), p.name


def _no_overflow(fn):
    """fn, failing the example when it raises OverflowError.  simulate_main
    reports one as a runtime error, but it is a Python conversion that no
    check caught (round(inf), int(inf)), never an intended refusal."""
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as e:
            raise AssertionError(f"{fn.__name__} raised OverflowError: {e}") from e
    return wrapped


def _check(kind: str, values: dict) -> None:
    """Run kind on its base config with values set, and check the outcome."""
    with tempfile.TemporaryDirectory() as tmp:
        cfgp = Path(tmp) / "c.cfg"
        cfgp.write_text(_ini(kind, values))
        out = Path(tmp) / "o"
        err = io.StringIO()
        with (warnings.catch_warnings(record=True) as caught, redirect_stderr(err),
              mock.patch.object(cli, "parse_config", _no_overflow(cli.parse_config)),
              mock.patch.object(cli, "run_scenario", _no_overflow(cli.run_scenario))):
            warnings.simplefilter("always")
            code = simulate_main([kind, "--config", str(cfgp), "--out", str(out)])
        assert [str(w.message) for w in caught] == []
        tokens = set(" ".join(values.values()).split())
        if code == 0:
            assert not tokens & NONFINITE and err.getvalue() == "", values
            _check_outputs(out)
            return
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, lines
        error = json.loads(lines[0])["error"]
        assert error == "config" or (error == "runtime" and tokens & set(EXTREME)
                                     and not tokens & NONFINITE), (values, lines[0])
        if error == "config":
            assert not out.exists()


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(runs())
@example(("lmg-run", {"loop.word_bits": "64", "loop.int_bits": "64"}))
@example(("kt-run", {"loop.word_bits": "2", "loop.int_bits": "2"}))
# a drive rate whose square overflows, run by the array kernels: every
# kicked-top batch, and a dpt-sweep of 2 x 4 shots
@example(("kt-run", {"kt.alpha": "1e300"}))
@example(("dpt-sweep", {"lmg.lambda": "1e300", "run.n_shots": "4"}))
# a shot-noise variance that overflows is a config error; a quantum feedback
# rate, start angle or step that overflows is one runtime error, no warning
@example(("lmg-run", {"measurement.sn_coeff": "1e303"}))
@example(("quantum-qmf", {"lmg.lambda": "1.7e308"}))
@example(("quantum-qmf", {"loop.theta0": "1.7e308"}))
@example(("quantum-qmf", {"quantum.dt": "1.7e308"}))
# 2j overflows to inf: a config error on quantum.j, not an OverflowError
@example(("quantum-qmf", {"quantum.j": "1.7e308"}))
def test_config_values_run_or_fail_cleanly(case):
    _check(*case)
