"""Traced runs: spans around calls into each spinloop module, taken from the
benchmark's own files.

Each traced function is replaced, for the duration of a traced operation, by
a wrapper installed under the name its caller looks it up by (for example
``spinloop.loop_sim.measure``, or ``spinloop.controller.decay_estimate``,
which ``loop_sim`` reaches through its ``ctl`` module alias).  A wrapper
records the call count, the inclusive time and the self time (inclusive time
minus the time covered by traced calls made inside it).  Calls to functions
marked hot run thousands of times per shot, so they are only aggregated;
every other call also keeps a span (name, parent, start, end) in memory,
written out once the benchmark ends.

The private per-step plant integrator is deliberately not wrapped: plant
time is what remains as ``loop_sim`` self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time

import numpy as np

# (metric key, module whose attribute the caller looks up, attribute, hot)
TARGETS = (
    ("cli.simulate_main", "spinloop.cli", "simulate_main", False),
    ("cli.analyze_main", "spinloop.cli", "analyze_main", False),
    ("config.parse_config", "spinloop.cli", "parse_config", False),
    ("scenarios.run_scenario", "spinloop.cli", "run_scenario", False),
    ("loop_sim.run_batch", "spinloop.scenarios", "run_batch", False),
    ("controller.decay_estimate", "spinloop.controller", "decay_estimate", True),
    ("controller.lmg_control", "spinloop.controller", "lmg_control", True),
    ("controller.kick_angle", "spinloop.controller", "kick_angle", True),
    ("measurement.measure", "spinloop.loop_sim", "measure", True),
    ("spin_core.from_angles", "spinloop.loop_sim", "from_angles", True),
    ("spin_core.draw_shot_noise", "spinloop.loop_sim", "draw_shot_noise", True),
    # loop_sim imports rotate from spin_core inside the call
    ("spin_core.rotate", "spinloop.spin_core", "rotate", True),
    ("runio.emit_trajectories", "spinloop.scenarios", "emit_trajectories", False),
    ("runio.emit_csv", "spinloop.scenarios", "emit_csv", False),
    ("runio.emit_csv", "spinloop.cli", "emit_csv", False),
    ("runio.emit_json", "spinloop.scenarios", "emit_json", False),
    ("runio.emit_json", "spinloop.cli", "emit_json", False),
    # RunManifest.write and file_sha256 callers look these up inside runio
    ("runio.emit_json", "spinloop.runio", "emit_json", False),
    ("runio.file_sha256", "spinloop.runio", "file_sha256", False),
    ("runio.read_trajectory_csv", "spinloop.cli", "read_trajectory_csv", False),
    ("quantum.spin_operators", "spinloop.scenarios", "spin_operators", False),
    ("quantum.scs_state", "spinloop.scenarios", "scs_state", True),
    ("quantum.expect", "spinloop.scenarios", "expect", True),
    ("quantum.sample_outcome", "spinloop.scenarios", "sample_outcome", True),
    ("quantum.qmf_step", "spinloop.scenarios", "qmf_step", True),
    ("analysis.symmetry_stats", "spinloop.scenarios", "symmetry_stats", False),
    ("analysis.symmetry_stats", "spinloop.cli", "symmetry_stats", False),
    ("analysis.spectral_entropy", "spinloop.cli", "spectral_entropy", True),
    ("analysis.ftc_rigidity", "spinloop.scenarios", "ftc_rigidity", False),
    ("analysis.order_parameters", "spinloop.scenarios", "order_parameters", False),
    ("analysis.order_parameters", "spinloop.cli", "order_parameters", False),
)

# Counts that must repeat exactly between traced operations of one run.
COUNT_KEYS = ("shots", "plant_steps", "rows", "bytes_written", "quantum_bytes")


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _plant_steps_per_shot(cfg, params, sched) -> int:
    """Driven plant intervals of length plant_dt in one shot's window."""
    if sched is None:  # LMG loop: driven for the whole window
        return cfg.n_samples * cfg.steps_per_sample
    # kicked top: linear and kick segments are driven, the gap is free
    driven = round(sched.t_linear / cfg.sample_period) + round(
        sched.t_kick / cfg.sample_period
    )
    return sched.n_steps * driven * cfg.steps_per_sample


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    amps = getattr(obj, "amplitudes", None)
    if isinstance(amps, np.ndarray):
        return amps.nbytes
    if hasattr(obj, "jx"):
        return obj.jx.nbytes + obj.jy.nbytes + obj.jz.nbytes
    return 0


def _hook_run_batch(tr, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    tr.counters["shots"] += a["n_shots"]
    tr.counters["plant_steps"] += a["n_shots"] * _plant_steps_per_shot(
        a["cfg"], a["params"], a["sched"]
    )


def _hook_emit_trajectories(tr, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    tr.counters["rows"] += sum(len(rec.t) for rec in a["records"])
    size = os.path.getsize(result[0])
    tr.counters["bytes_written"] += size
    tr.counters["csv_bytes"] += size


def _hook_emit_csv(tr, fn, args, kwargs, result):
    rows = _bound(fn, args, kwargs)["rows"]
    tr.counters["rows"] += len(rows)
    size = os.path.getsize(result)
    tr.counters["bytes_written"] += size
    tr.counters["csv_bytes"] += size


def _hook_emit_json(tr, fn, args, kwargs, result):
    # the manifest records a wall-clock time, so its size is not repeatable
    if result.name != "manifest.json":
        tr.counters["bytes_written"] += os.path.getsize(result)


def _hook_read_csv(tr, fn, args, kwargs, result):
    tr.counters["bytes_read"] += os.path.getsize(_bound(fn, args, kwargs)["path"])


def _hook_quantum(tr, fn, args, kwargs, result):
    n = _nbytes(result)
    for a in args:
        n += _nbytes(a)
    tr.counters["quantum_bytes"] += n


HOOKS = {
    "loop_sim.run_batch": _hook_run_batch,
    "runio.emit_trajectories": _hook_emit_trajectories,
    "runio.emit_csv": _hook_emit_csv,
    "runio.emit_json": _hook_emit_json,
    "runio.read_trajectory_csv": _hook_read_csv,
    "quantum.scs_state": _hook_quantum,
    "quantum.expect": _hook_quantum,
    "quantum.sample_outcome": _hook_quantum,
    "quantum.qmf_step": _hook_quantum,
}


class Tracer:
    """Aggregates per-function call counts and times, plus coarse spans.

    One tracer serves a whole benchmark run; ``reset`` starts a new
    operation's aggregates, while spans accumulate until ``write_spans``."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # key -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []  # (op, key, parent span, start, end)
        self.op = -1
        self._stack: list[list] = [[0.0, -1]]  # [child time, span index]
        self._saved: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        for v in self.stats.values():
            v[:] = [0, 0.0, 0.0]
        self.counters = dict.fromkeys(
            COUNT_KEYS + ("csv_bytes", "bytes_read"), 0
        )
        self.op += 1

    def snapshot(self) -> tuple[dict, dict]:
        return ({k: list(v) for k, v in self.stats.items()}, dict(self.counters))

    def _wrap(self, key, fn, hot):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        hook = HOOKS.get(key)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, -1]
            if not hot:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                stack[-1][0] += d
                stat[0] += 1
                stat[1] += d
                stat[2] += d - frame[0]
                if not hot:
                    spans[frame[1]] = (self.op, key, stack[-1][1], t0, t1)
            if hook is not None:
                hook(self, fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            return
        for key, modname, attr, hot in TARGETS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(key, fn, hot))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "fields": ["op", "name", "parent", "start_s", "end_s"],
                "spans": [s for s in self.spans if s is not None],
            }, fh)


def diff(after: tuple[dict, dict], before: tuple[dict, dict]) -> tuple[dict, dict]:
    sa, ca = after
    sb, cb = before
    stats = {k: [v[i] - sb.get(k, [0, 0.0, 0.0])[i] for i in range(3)]
             for k, v in sa.items()}
    return stats, {k: v - cb.get(k, 0) for k, v in ca.items()}


def layer_metrics(stats: dict, counters: dict, tagged: dict) -> dict:
    """Per-layer metrics of one traced operation.

    ``tagged`` maps a step tag (``j200``, ``j500``) to the (stats, counters)
    accumulated during that step alone."""

    def calls(key):
        return stats.get(key, [0, 0.0, 0.0])[0]

    def total(key):
        return stats.get(key, [0, 0.0, 0.0])[1]

    def self_s(layer, st=stats):
        return sum(v[2] for k, v in st.items() if k.split(".")[0] == layer)

    def mean_us(key):
        n = calls(key)
        return 1e6 * total(key) / n if n else 0.0

    m = {
        "cli.self_s": self_s("cli"),
        "config.parse_s": total("config.parse_config"),
        "scenarios.self_s": self_s("scenarios"),
        "loop_sim.shots": counters["shots"],
        "loop_sim.plant_steps": counters["plant_steps"],
        "loop_sim.self_s": self_s("loop_sim"),
    }
    steps = counters["plant_steps"]
    m["loop_sim.plant_step_us"] = 1e6 * m["loop_sim.self_s"] / steps if steps else 0.0
    for key in ("controller.decay_estimate", "controller.lmg_control",
                "controller.kick_angle", "measurement.measure"):
        m[f"{key}.calls"] = calls(key)
        m[f"{key}.us"] = mean_us(key)
    m["spin_core.self_s"] = self_s("spin_core")

    write_s = total("runio.emit_trajectories") + total("runio.emit_csv")
    read_s = total("runio.read_trajectory_csv")
    m.update({
        "runio.emit_trajectories_s": total("runio.emit_trajectories"),
        "runio.read_trajectory_csv_s": read_s,
        "runio.rows": counters["rows"],
        "runio.bytes_written": counters["bytes_written"],
        "runio.write_mb_s": counters["csv_bytes"] / 1e6 / write_s if write_s else 0.0,
        "runio.read_mb_s": counters["bytes_read"] / 1e6 / read_s if read_s else 0.0,
        "runio.emit_json_s": total("runio.emit_json"),
        "runio.sha256_s": total("runio.file_sha256"),
        "quantum.steps": calls("quantum.qmf_step"),
    })
    for tag in ("j200", "j500"):
        st, ct = tagged.get(tag, ({}, {}))
        n = st.get("quantum.qmf_step", [0])[0]
        m[f"quantum.step_us.{tag}"] = 1e6 * self_s("quantum", st) / n if n else 0.0
        m[f"quantum.bytes_per_step.{tag}"] = ct.get("quantum_bytes", 0) / n if n else 0.0
    for key in ("qmf_step", "expect", "sample_outcome", "scs_state"):
        m[f"quantum.{key}.us"] = mean_us(f"quantum.{key}")
    for key in ("symmetry_stats", "spectral_entropy", "ftc_rigidity", "order_parameters"):
        m[f"analysis.{key}_s"] = total(f"analysis.{key}")
    return m


def counts(stats: dict, counters: dict) -> dict:
    """The exact counts of one traced operation: every call count plus the
    work counters."""
    out = {f"{k}.calls": v[0] for k, v in sorted(stats.items())}
    out.update({k: counters[k] for k in COUNT_KEYS})
    return out


def first_eigh_s() -> float:
    """Time of the first dense Hermitian eigensolve in this process, on the
    j = 200 Jy operator that the quantum path diagonalises first."""
    from spinloop.quantum import spin_operators

    jy = spin_operators(200.0).jy
    t0 = time.perf_counter()
    np.linalg.eigh(jy)
    return time.perf_counter() - t0

