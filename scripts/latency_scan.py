#!/usr/bin/env python3
"""Latency-driven dissipation scan: settling time of the noiseless closed
loop versus transport delay.  Writes latency_scan.csv."""

import argparse
import math

import numpy as np

from spinloop.analysis import settling_time
from spinloop.loop_sim import LoopConfig, latency_metric, run_lmg_loop
from spinloop.measurement import MeasurementModel
from spinloop.models import LmgParams
from spinloop.runio import emit_csv
from spinloop.spin_core import SphericalAngles


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/latency_scan.csv")
    ap.add_argument("--s", type=float, default=0.7)
    ap.add_argument(
        "--latencies", type=float, nargs="+",
        default=[2e-6, 4e-6, 6e-6, 8e-6, 12e-6, 16e-6, 24e-6],
    )
    args = ap.parse_args()

    alpha_lin = 2.0 * math.pi * 6.25e3
    p = LmgParams(s=args.s, lambda_=alpha_lin / (1.0 - args.s))
    model = MeasurementModel()
    rows = []
    for tau in args.latencies:
        cfg = LoopConfig(
            latency=tau, duration=1.5e-3, decay_half_time=None,
            initial_state=SphericalAngles(1e-3, 0.0),
        )
        rec = run_lmg_loop(cfg, p, model, np.random.default_rng(0))
        t_settle = settling_time(rec)
        rows.append((tau, latency_metric(alpha_lin, tau),
                     math.nan if t_settle is None else t_settle, float(rec.z[-1])))
    emit_csv(args.out, "latency,alpha_tau,settling_time,z_final", rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
