#!/usr/bin/env python3
"""spinloop benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload runs in this single Python
process, with ``src`` on the import path and SPINLOOP_JOBS unset, by calling
``spinloop.cli.simulate_main`` / ``analyze_main`` in process, the way a user
runs ``simulate`` and ``analyze``.  The load is closed-loop and batch: one
operation (one workload run) at a time, each starting when the previous one
has ended.  One untimed warm-up operation comes first; operations then repeat
for about S seconds (one is started only if half of it fits).  All operations use the workload seed N, so
their outputs must be byte-identical.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced run (see tracing.py).  Untraced operation times of the
loop workloads are scaled to a reference machine speed sampled while each
operation runs (see speed.py).  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it print each metric with its unit and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedSampler
from tracing import Tracer, counts, diff, first_eigh_s, layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 9


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def setup_probe(wl, seed) -> float:
    """One fresh-process set-up time: interpreter start through parse_config."""
    step = wl.steps(WORK / "probe", seed)[0]
    env = dict(os.environ, PYTHONPATH="src")
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), *step.argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr.strip()}")
    return float(out.stdout.split()[-1]) - t0


def _fingerprint(d: Path) -> dict:
    """Checksums of an operation's outputs: each manifest's recorded output
    checksums, and the checksum of every other file it wrote."""
    fp = {}
    for p in sorted(d.rglob("*")):
        if not p.is_file():
            continue
        rel = str(p.relative_to(d))
        if p.name == "manifest.json":
            with open(p) as fh:
                fp[rel] = json.load(fh)["outputs"]
        else:
            fp[rel] = _sha256(p)
    return fp


def _manifest_mismatches(d: Path) -> list[str]:
    bad = []
    for man in d.rglob("manifest.json"):
        with open(man) as fh:
            outputs = json.load(fh)["outputs"]
        for name, digest in outputs.items():
            if _sha256(man.parent / name) != digest:
                bad.append(f"{man.parent.name}/{name}: manifest checksum mismatch")
    return bad


class Operation:
    """One workload run: its timings, its output fingerprint and, when
    traced, its per-layer metrics and exact counts."""

    def __init__(self, wl, seed, d: Path, tracer, clock):
        import spinloop.cli as cli

        self.errors = []
        self.sim_s = 0.0
        self.scale = 1.0  # to the reference speed; the caller sets it (speed.py)
        shutil.rmtree(d, ignore_errors=True)
        tagged = {}
        if tracer is not None:
            tracer.reset()
        t0 = clock()
        for step in wl.steps(d, seed):
            main = cli.simulate_main if step.kind == "simulate" else cli.analyze_main
            before = tracer.snapshot() if tracer is not None and step.tag else None
            ts = clock()
            try:
                rc = main(list(step.argv))
            except (Exception, SystemExit):  # a failed operation, not a crash
                rc = traceback.format_exc(limit=3)
            dt = clock() - ts
            if before is not None:
                tagged[step.tag] = diff(tracer.snapshot(), before)
            if step.kind == "simulate":
                self.sim_s += dt
            if rc != 0:
                self.errors.append(f"{step.kind} {step.argv[0]} failed: {rc}")
                break
        self.wall_s = clock() - t0
        self.fingerprint = _fingerprint(d)
        self.layers = self.counts = None
        if tracer is not None:
            self.layers = layer_metrics(tracer.stats, tracer.counters, tagged)
            self.counts = counts(tracer.stats, tracer.counters)


def _environment(jobs_env) -> dict:
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "SPINLOOP_JOBS": jobs_env,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        env["blas"] = None
    env["blas_threads"] = _blas_threads()
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                               if ln.startswith("model name")), platform.processor())
    except OSError:
        env["cpu"] = platform.processor()
    try:
        env["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        env["git_commit"] = None  # the benchmark may run from a plain copy
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "spinloop").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    env["src_sha256"] = h.hexdigest()
    return env


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import re

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "spinloop" / "cli.py").is_file():
        print(f"error: no spinloop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    jobs_env = os.environ.pop("SPINLOOP_JOBS", None)
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{wl.name}-{os.getpid()}"
    try:
        return _run(wl, args, work, jobs_env)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(wl, args, work: Path, jobs_env) -> int:
    setup: list[float] = []
    tracer = Tracer() if args.trace else None
    eigh_s = first_eigh_s() if tracer is not None else 0.0

    ops: list[Operation] = []
    untraced: list[Operation] = []
    traced: list[Operation] = []

    # While a timed operation runs, a sampler measures the machine's speed;
    # the operation's times are scaled to the reference speed (speed.py).  A
    # traced run keeps raw times, so that no sampling shows in the spans.
    op_speed = SpeedSampler(wl.scaled and tracer is None)

    def run_op(traced_op: bool, keep: bool = False) -> Operation:
        if tracer is not None:
            (tracer.install if traced_op else tracer.uninstall)()
        d = work / f"op{len(ops)}"
        with op_speed:
            op = Operation(wl, args.seed, d, tracer if traced_op else None, op_speed.clock)
        op.scale = op_speed.factor
        ops.append(op)
        if not keep:
            shutil.rmtree(d, ignore_errors=True)
        return op

    ref = run_op(tracer is not None, keep=True)  # untimed warm-up
    # The machine's speed drifts over seconds, so set-up probes are spread
    # over the measured window like the operations, not bunched at one end.
    # An operation is started only if at least half of it fits in the
    # window, so a run measures about --seconds whatever the operation size.
    start = time.perf_counter()
    while True:
        now = time.perf_counter() - start
        half_op = _median([op.wall_s for op in ops]) / 2
        done = 1.0 if now + half_op >= args.seconds else now / args.seconds
        while tracer is None and len(setup) < math.ceil(SETUP_PROBES * done):
            setup.append(setup_probe(wl, args.seed))
        if done >= 1.0 and untraced and (tracer is None or traced):
            break
        want_traced = tracer is not None and len(traced) < len(untraced)
        (traced if want_traced else untraced).append(run_op(want_traced))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    jobs2 = None
    if tracer is not None:
        tracer.uninstall()
        os.environ["SPINLOOP_JOBS"] = "2"
        try:
            jobs2 = run_op(False)
        finally:
            del os.environ["SPINLOOP_JOBS"]

    # correctness of the reference outputs; every other operation must
    # reproduce them byte for byte (and, when traced, count for count)
    ref_fails = list(ref.errors)
    if not ref.errors:
        try:
            ref_fails += _manifest_mismatches(work / "op0") + wl.check(work / "op0", args.seed)
        except Exception:  # a check that cannot run is a failed check
            ref_fails.append(traceback.format_exc(limit=3))
    counted = [op for op in ops if op.counts is not None]
    failed = 0
    for i, op in enumerate(ops):
        why = list(ref_fails) + op.errors
        if op.fingerprint != ref.fingerprint:
            why.append("output checksums differ from the warm-up operation's")
        if op.counts is not None and op.counts != counted[0].counts:
            why.append("traced counts differ from the first traced operation's")
        if why:
            failed += 1
            print(f"op {i} FAILED: " + "; ".join(dict.fromkeys(why)), file=sys.stderr)

    sim = [op.sim_s for op in untraced]
    if tracer is None:
        metrics = {
            "wall_s": (_median([op.wall_s * op.scale for op in untraced]), "s"),
            "shots_per_s": (wl.shots / _median([op.sim_s * op.scale for op in untraced]), "1/s"),
            "setup_s": (_median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_frac": (1.0 - failed / len(ops), "fraction"),
        }
    else:
        metrics = {k: (_median([op.layers[k] for op in traced]), _unit(k))
                   for k in traced[0].layers}
        metrics["loop_sim.jobs2_speedup"] = (_median(sim) / jobs2.sim_s, "x")
        metrics["quantum.first_eigh_s"] = (eigh_s, "s")
        metrics["trace.overhead_s"] = (
            _median([op.wall_s for op in traced]) - _median([op.wall_s for op in untraced]),
            "s")
        spans = WORK / f"trace-{wl.name}-seed{args.seed}.json"
        tracer.write_spans(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")

    n_timed = len(untraced) + len(traced)
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"{n_timed} timed operations + 1 warm-up, {wl.shots} shots each")
    if tracer is None:
        print(f"  {'setup samples':<34} {len(setup)} fresh processes")
        print(f"  {'fail_frac':<34} {failed / len(ops):.4g} ({failed}/{len(ops)})")
        print(f"  {'operation wall times, unscaled':<34} "
              + " ".join(f"{op.wall_s:.3f}" for op in untraced) + " s")
        print(f"  {'speed factors':<34} "
              + " ".join(f"{op.scale:.3f}" for op in untraced))
        print(f"  {'unscaled medians':<34} wall {_median([op.wall_s for op in untraced]):.6g} s, "
              f"simulate {_median(sim):.6g} s")
    for k, (v, unit) in metrics.items():
        print(f"  {k:<34} {v:.6g} {unit}")
    print("env " + json.dumps(_environment(jobs_env), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _unit(key: str) -> str:
    if key.endswith("_mb_s"):
        return "MB/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_us") or key.endswith(".us") or ".step_us." in key:
        return "us"
    if ".bytes_per_step." in key or key.endswith("bytes_written"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
