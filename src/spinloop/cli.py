"""Command-line entry points.

simulate <scenario> --config <path> [--seed N] [--shots N] [--out DIR] [--emit csv|json]
analyze  <kind> --in <files...> [--out DIR] [--emit csv|json]

The config rules, which the simulate flags follow as the run keys they
set, are stated once, in the docstring of spinloop.config.

Failures exit nonzero and print a machine-readable JSON error to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import extract_tdd, order_parameters, spectral_entropy, symmetry_stats
from .config import SCENARIOS, ConfigError, parse_config
from .runio import emit_csv, emit_json, read_trajectory_csv
from .scenarios import run_scenario

# each analyze kind and the trajectory columns it reads, the only ones parsed
ANALYZE_COLUMNS = {
    "symmetry": ("t", "z", "meas"),
    "order": ("t", "z"),
    "tdd": ("t", "z"),
    "spectrum": ("t", "z"),
}


def _fail(kind: str, message: str) -> int:
    json.dump({"error": kind, "message": message}, sys.stderr)
    sys.stderr.write("\n")
    return 1


def simulate_main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="simulate", description="Run a configured scenario."
    )
    ap.add_argument("scenario", choices=tuple(SCENARIOS))
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--shots", type=int, default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--emit", choices=("csv", "json"), default=None)
    args = ap.parse_args(argv)
    try:
        flags = {"seed": args.seed, "n_shots": args.shots, "out": args.out, "emit": args.emit}
        cfg = parse_config(args.config, {k: v for k, v in flags.items() if v is not None})
        if cfg.kind != args.scenario:
            raise ConfigError(
                f"config declares kind {cfg.kind!r} but {args.scenario!r} was requested"
            )
        run_scenario(cfg, config_path=args.config)
    except ConfigError as e:
        return _fail("config", str(e))
    except (ValueError, ArithmeticError, OSError) as e:
        return _fail("runtime", str(e))
    return 0


def _load_records(paths, columns):
    recs = []
    for p in paths:
        recs.extend(read_trajectory_csv(p, columns))
    if not recs:
        raise ValueError("no trajectories found in the input files")
    return recs


def analyze_main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="analyze", description="Post-process trajectory files."
    )
    ap.add_argument("kind", choices=tuple(ANALYZE_COLUMNS))
    ap.add_argument("--in", dest="inputs", nargs="+", required=True)
    ap.add_argument("--out", default=".")
    ap.add_argument("--emit", choices=("csv", "json"), default="json")
    args = ap.parse_args(argv)
    try:
        recs = _load_records(args.inputs, ANALYZE_COLUMNS[args.kind])
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
        # made only now, so a failed read or analysis leaves no directory
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.emit == "json":
            emit_json(out / f"{args.kind}.json", result)
        else:
            emit_csv(out / f"{args.kind}.csv", header, rows)
    except (ValueError, ArithmeticError, OSError) as e:
        return _fail("runtime", str(e))
    return 0


if __name__ == "__main__":
    sys.exit(simulate_main())
