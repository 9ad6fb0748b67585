#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py [--workloads NAME...] [--seeds N...]
                                [--trace 0|1] [--out FILE]

Run from the repository root.  For every workload and seed it runs
``perfbench/run.py`` once, with the run length from BENCHMARK.json, and then
prints each metric's median, quartiles and spread (the distance between the
first and third quartile as a share of the median), next to the metric's
bound.  ``--out`` writes every value and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report = {}
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", wl, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=600)
            if out.returncode != 0:
                print(f"{wl} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                return 1
            lines = out.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            res["seed"] = seed
            res["env"] = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
            runs.append(res)
            if not res["correct"]:
                print(f"{wl} seed {seed}: incorrect\n{out.stderr}", file=sys.stderr)
        summary = {}
        for name in runs[0]["metrics"]:
            summary[name] = summarise([r["metrics"][name]["value"] for r in runs])
            summary[name]["unit"] = runs[0]["metrics"][name]["unit"]
        report[wl] = {"runs": runs, "summary": summary,
                      "failed": sum(r["failed"] for r in runs),
                      "attempted": sum(r["attempted"] for r in runs)}
        print(f"{wl}: {report[wl]['failed']}/{report[wl]['attempted']} operations failed")
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None else (
                "  ok" if s["spread"] < bound / 3 else "  WIDE")
            print(f"  {name:<34} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}"
                  + ("" if bound is None else f" (bound {bound})") + flag, flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
