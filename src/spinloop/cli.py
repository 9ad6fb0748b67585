"""Command-line entry points.

simulate <scenario> --config <path> [--seed N] [--shots N] [--out DIR] [--emit csv|json]
analyze  <kind> --in <files...> [--out DIR] [--emit csv|json]

Failures exit nonzero and print a machine-readable JSON error to stderr.
Parallelism is controlled only by the SPINLOOP_JOBS environment variable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import extract_tdd, order_parameters, spectral_entropy, symmetry_stats
from .config import SCENARIO_KINDS, ConfigError, parse_config
from .runio import emit_csv, emit_json, read_trajectory_csv
from .scenarios import run_scenario

ANALYZE_KINDS = ("symmetry", "order", "tdd", "spectrum")


def _fail(kind: str, message: str) -> int:
    json.dump({"error": kind, "message": message}, sys.stderr)
    sys.stderr.write("\n")
    return 1


def simulate_main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="simulate", description="Run a configured scenario."
    )
    ap.add_argument("scenario", choices=SCENARIO_KINDS)
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--shots", type=int, default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--emit", choices=("csv", "json"), default=None)
    args = ap.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if cfg.kind != args.scenario:
            raise ConfigError(
                f"config declares kind {cfg.kind!r} but {args.scenario!r} was requested"
            )
        if args.seed is not None:
            cfg.master_seed = args.seed
        if args.shots is not None:
            cfg.n_shots = args.shots
        if args.out is not None:
            cfg.out_dir = args.out
        if args.emit is not None:
            cfg.emit_format = args.emit
        run_scenario(cfg, config_path=args.config)
    except ConfigError as e:
        return _fail("config", str(e))
    except (ValueError, ArithmeticError, OSError) as e:
        return _fail("runtime", str(e))
    return 0


def _load_records(paths):
    recs = []
    for p in paths:
        recs.extend(read_trajectory_csv(p))
    if not recs:
        raise ValueError("no trajectories found in the input files")
    return recs


def analyze_main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="analyze", description="Post-process trajectory files."
    )
    ap.add_argument("kind", choices=ANALYZE_KINDS)
    ap.add_argument("--in", dest="inputs", nargs="+", required=True)
    ap.add_argument("--out", default=".")
    ap.add_argument("--emit", choices=("csv", "json"), default="json")
    args = ap.parse_args(argv)
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        recs = _load_records(args.inputs)
        if args.kind == "symmetry":
            stats = symmetry_stats(recs)
            result = {
                "upper_fraction": stats["upper_fraction"],
                "initial_final_correlation": stats["initial_final_correlation"],
                "tdd_list": stats["tdd_list"],
            }
            rows = [(i, t if t is not None else float("nan"))
                    for i, t in enumerate(stats["tdd_list"])]
            header = "shot,tdd"
        elif args.kind == "order":
            z_inf, czz_inf = order_parameters(recs)
            result = {"z_inf": z_inf, "czz_inf": czz_inf}
            rows = [(z_inf, czz_inf)]
            header = "z_inf,czz_inf"
        elif args.kind == "tdd":
            tdd = [extract_tdd(rec) for rec in recs]
            result = {"tdd_list": tdd}
            rows = [(i, t if t is not None else float("nan"))
                    for i, t in enumerate(tdd)]
            header = "shot,tdd"
        else:  # spectrum
            summaries = [spectral_entropy(rec.z) for rec in recs]
            result = {
                "entropy": [s.entropy for s in summaries],
                "dominant_frequency": [s.dominant_frequency for s in summaries],
            }
            rows = [(i, s.entropy, s.dominant_frequency)
                    for i, s in enumerate(summaries)]
            header = "shot,entropy,dominant_frequency"
        if args.emit == "json":
            emit_json(out / f"{args.kind}.json", result)
        else:
            emit_csv(out / f"{args.kind}.csv", header, rows)
    except (ValueError, ArithmeticError, OSError) as e:
        return _fail("runtime", str(e))
    return 0


if __name__ == "__main__":
    sys.exit(simulate_main())
