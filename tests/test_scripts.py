"""Smoke test: each script in scripts/ runs end to end on tiny arguments, and
every name the benchmark tracer patches exists."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# (script, arguments, --out name: a .csv file, or a directory for a manifest)
SCRIPTS = (
    ("dpt_sweep", ["--fine", "0.07"], "dpt"),
    ("ssb_ensemble", ["--shots", "3"], "ssb"),
    ("ftc_sweep", ["--shots", "2", "--fractions", "0.95", "1.0"], "ftc"),
    ("kt_chaos_map", ["--grid", "2", "--steps", "1000"], "lyapunov_map.csv"),
    ("latency_scan", ["--latencies", "6e-6"], "latency_scan.csv"),
    ("quantum_consistency", ["--traj", "2", "--steps", "10"], "consistency.csv"),
)


@pytest.mark.parametrize("script,args,out", SCRIPTS, ids=[s[0] for s in SCRIPTS])
def test_script_runs(script, args, out, tmp_path):
    dest = tmp_path / out
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py"), *args, "--out", str(dest)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (dest if dest.suffix else dest / "manifest.json").is_file()


def test_tracer_targets_resolve(monkeypatch):
    # perfbench/tracing.py patches each (module, attribute) in TARGETS for a
    # traced run; a name deleted from spinloop would crash Tracer.install
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as is
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        (modname, attr) for _, modname, attr, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(modname), attr, None))
    ]
    assert missing == []
