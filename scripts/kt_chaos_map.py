#!/usr/bin/env python3
"""Kicked-top chaos survey: largest Lyapunov exponent on a grid of initial
conditions for a given kick strength, every grid point in one batch.
Writes lyapunov_map.csv suitable for a phase-space heat map."""

import argparse
import math

import numpy as np

from spinloop.analysis import lyapunov_exponents
from spinloop.runio import emit_csv
from spinloop.spin_core import SphericalAngles, from_angles


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/lyapunov_map.csv")
    ap.add_argument("--k", type=float, default=2.5)
    ap.add_argument("--alpha", type=float, default=math.pi / 2.0)
    ap.add_argument("--grid", type=int, default=24, help="points per angle axis")
    ap.add_argument("--steps", type=int, default=2000)
    args = ap.parse_args()

    idx = np.arange(args.grid) + 0.5
    theta = np.repeat(math.pi * idx / args.grid, args.grid)
    phi = np.tile(-math.pi + 2.0 * math.pi * idx / args.grid, args.grid)
    x0 = [from_angles(SphericalAngles(*a)).as_tuple() for a in zip(theta, phi)]
    lam = lyapunov_exponents(args.alpha, args.k, x0, args.steps)
    emit_csv(args.out, "theta,phi,lambda_max", zip(theta, phi, lam))
    print(f"wrote {args.out} ({args.grid * args.grid} points)")


if __name__ == "__main__":
    main()
