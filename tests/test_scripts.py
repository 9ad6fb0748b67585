"""Smoke test: each script in scripts/ runs end to end on tiny arguments,
each config in configs/ and perfbench/configs/ runs through simulate with few
shots, records its own hash and writes its pinned outputs, and every name
the benchmark tracer patches exists."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spinloop.cli import simulate_main
from spinloop.config import parse_config
from spinloop.runio import file_sha256

ROOT = Path(__file__).resolve().parents[1]

# (script, arguments, --out file name)
SCRIPTS = (
    ("kt_chaos_map", ["--grid", "2", "--steps", "1000"], "lyapunov_map.csv"),
    ("latency_scan", ["--latencies", "6e-6"], "latency_scan.csv"),
    ("quantum_consistency", ["--traj", "2", "--steps", "10"], "consistency.csv"),
)


@pytest.mark.parametrize("script,args,out", SCRIPTS, ids=[s[0] for s in SCRIPTS])
def test_script_runs(script, args, out, tmp_path):
    # a directory that does not exist yet, as out/ in a fresh checkout
    dest = tmp_path / "out" / out
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py"), *args, "--out", str(dest)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert dest.is_file()


# scenario -> --shots for its smoke run, where the scenario allows fewer
# than its config sets
SMOKE_SHOTS = {"ssb-ensemble": 8, "noise-budget": 2, "composite-scan": 100,
               "quantum-qmf": 1, "ftc-sweep": 2}
SHIPPED_CONFIGS = sorted(p for d in ("configs", "perfbench/configs")
                         for p in (ROOT / d).iterdir())
# config -> the manifest outputs and tool_version of its smoke run.  A change
# that moves an output on purpose rewrites it (python tests/test_scripts.py)
# and says so.
SHIPPED_OUTPUTS = ROOT / "tests" / "data" / "shipped_outputs.json"


def _smoke_manifest(config: Path, out: Path) -> dict:
    kind = parse_config(config).kind
    shots = ["--shots", str(SMOKE_SHOTS[kind])] if kind in SMOKE_SHOTS else []
    assert simulate_main([kind, "--config", str(config), "--out", str(out), *shots]) == 0
    return json.loads((out / "manifest.json").read_text())


def _pinned(manifest: dict) -> dict:
    return {"outputs": manifest["outputs"], "tool_version": manifest["tool_version"]}


@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_config_runs(config, tmp_path):
    manifest = _smoke_manifest(config, tmp_path / "out")
    assert manifest["config_sha256"] == file_sha256(config)
    pinned = json.loads(SHIPPED_OUTPUTS.read_text())
    assert _pinned(manifest) == pinned[str(config.relative_to(ROOT))]


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


if __name__ == "__main__":  # rewrite SHIPPED_OUTPUTS from this checkout
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pinned = {str(c.relative_to(ROOT)): _pinned(_smoke_manifest(c, Path(tmp) / c.name))
                  for c in SHIPPED_CONFIGS}
    SHIPPED_OUTPUTS.parent.mkdir(exist_ok=True)
    SHIPPED_OUTPUTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
