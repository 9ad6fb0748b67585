#!/usr/bin/env python3
"""Subharmonic rigidity sweep: closed-loop kicked top driven near alpha = pi
across an alpha grid, many seeds each; writes rigidity.json and spectra.csv."""

import argparse
import math

from spinloop.config import ExperimentConfig
from spinloop.controller import qkt_schedule
from spinloop.loop_sim import LoopConfig
from spinloop.measurement import MeasurementModel
from spinloop.models import KtParams
from spinloop.scenarios import run_scenario
from spinloop.spin_core import SphericalAngles


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/ftc")
    ap.add_argument("--k", type=float, default=2.7)
    ap.add_argument("--shots", type=int, default=50)
    ap.add_argument("--seed", type=int, default=100)
    ap.add_argument("--fractions", type=float, nargs="+",
                    default=[0.90, 0.93, 0.95, 0.97, 1.0, 1.03, 1.05, 1.07, 1.10])
    args = ap.parse_args()

    loop = LoopConfig(
        latency=4e-6, duration=1.3e-3, decay_half_time=None,
        initial_state=SphericalAngles(0.0, 0.0), qpn=True,
    )
    cfg = ExperimentConfig(
        kind="ftc-sweep",
        loop=loop,
        measurement=MeasurementModel(),
        kt=KtParams(alpha=math.pi, k=args.k),
        kt_schedule=qkt_schedule(40e-6, 6e-6, 2e-6, 25,
                                 sample_period=loop.sample_period,
                                 window=loop.duration),
        sweep={"alpha": [f * math.pi for f in args.fractions]},
        n_shots=args.shots,
        master_seed=args.seed,
        out_dir=args.out,
    )
    man = run_scenario(cfg)
    print(f"wrote {', '.join(man.outputs)} to {args.out} "
          f"({man.wall_clock_s:.1f} s)")


if __name__ == "__main__":
    main()
