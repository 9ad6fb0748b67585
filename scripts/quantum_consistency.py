#!/usr/bin/env python3
"""Quantum/classical cross-check: the exact measurement-and-feedback quantum
trajectory ensemble against the classical closed loop at matched noise,
both started near the pole.  Writes consistency.csv with the two mean-Z
traces and their difference."""

import argparse
import math

import numpy as np

from spinloop.loop_sim import LoopConfig, run_batch, shot_rng
from spinloop.measurement import MeasurementModel
from spinloop.models import LmgParams
from spinloop.runio import emit_csv
from spinloop.scenarios import quantum_trajectory
from spinloop.spin_core import SphericalAngles


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/consistency.csv")
    ap.add_argument("--j", type=float, default=200.0)
    ap.add_argument("--sigma", type=float, default=20.0)
    ap.add_argument("--steps", type=int, default=150)
    ap.add_argument("--traj", type=int, default=50)
    ap.add_argument("--s", type=float, default=0.7)
    args = ap.parse_args()

    alpha_lin = 2.0 * math.pi * 6.25e3
    p = LmgParams(s=args.s, lambda_=alpha_lin / (1.0 - args.s))
    dt = 2e-6

    zq = np.array([
        quantum_trajectory(args.j, SphericalAngles(1e-6, 0.0), p, args.sigma, dt,
                           args.steps, shot_rng(777, i))[0][:, 2]
        for i in range(args.traj)
    ])

    model = MeasurementModel(n1_eff=args.j, ratio_n2_n1=1.0, f=1.0,
                             sn_coeff=args.sigma**2 * dt)
    cfg = LoopConfig(
        sample_period=dt, latency=0.0, plant_dt=dt,
        duration=(args.steps + 1) * dt, decay_half_time=None,
        initial_state=SphericalAngles(1e-6, 0.0), qpn=True, shot=True,
    )
    recs = run_batch(cfg, p, model, args.traj, master_seed=888)
    zc = np.array([rec.z for rec in recs])

    rows = [
        (n * dt, zq[:, n].mean(), zc[:, n].mean(),
         zq[:, n].mean() - zc[:, n].mean())
        for n in range(args.steps + 1)
    ]
    emit_csv(args.out, "t,z_quantum,z_classical,difference", rows)
    worst = max(abs(r[3]) for r in rows)
    print(f"wrote {args.out}; worst mean-Z difference {worst:.4f}")


if __name__ == "__main__":
    main()
