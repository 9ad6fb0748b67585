#!/usr/bin/env python3
"""Pole-release sweep: long-run z order parameter versus the control split s.

Runs the ideal closed loop from the pole for a coarse grid plus a fine grid
around the expected threshold at s = 2/3 and writes order_parameters.csv.
"""

import argparse

from spinloop.config import ExperimentConfig
from spinloop.loop_sim import LoopConfig
from spinloop.measurement import MeasurementModel
from spinloop.scenarios import run_scenario
from spinloop.spin_core import SphericalAngles


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/dpt")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--fine", type=float, default=0.005,
                    help="fine grid spacing around 2/3")
    args = ap.parse_args()

    coarse = [round(0.1 * i, 3) for i in range(9)]
    fine = [round(0.63 + args.fine * i, 4) for i in range(int(0.07 / args.fine) + 1)]
    grid = sorted(set(coarse) | set(fine))

    cfg = ExperimentConfig(
        kind="dpt-sweep",
        loop=LoopConfig(
            sample_period=1e-7, latency=0.0, plant_dt=1e-7, duration=1.5e-3,
            decay_half_time=None, initial_state=SphericalAngles(0.0, 0.0),
        ),
        measurement=MeasurementModel(),
        sweep={"s": grid},
        master_seed=args.seed,
        out_dir=args.out,
    )
    man = run_scenario(cfg)
    print(f"wrote {', '.join(man.outputs)} to {args.out} "
          f"({man.wall_clock_s:.1f} s)")


if __name__ == "__main__":
    main()
