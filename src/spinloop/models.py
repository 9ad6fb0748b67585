"""The two target models: the continuous linear-plus-quadratic spin flow
(dimensionless control parameter s, overall rate Lambda) and the kicked-top
Poincare map (linear angle alpha, kick strength k) with its tangent map."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spin_core
from .spin_core import SpinVector, X_HAT


@dataclass(frozen=True)
class LmgParams:
    """s in [0,1] splits the overall rate lambda_ between the linear
    x-rotation alpha_lin = (1-s)*lambda_ and the quadratic z-term
    k_nl = s*lambda_ (both rad/s)."""

    s: float = 0.0
    lambda_: float = 2.0 * math.pi * 6.25e3

    def __post_init__(self) -> None:
        if not 0.0 <= self.s <= 1.0:
            raise ValueError("s must lie in [0, 1]")
        # a quiet NaN rate sets no floating-point flag, so the array kernels
        # would run it to NaN records instead of refusing it
        if not (math.isfinite(self.lambda_) and self.lambda_ >= 0):
            raise ValueError(f"lambda_ ({self.lambda_!r}) must be finite and >= 0")

    @property
    def alpha_lin(self) -> float:
        return (1.0 - self.s) * self.lambda_

    @property
    def k_nl(self) -> float:
        return self.s * self.lambda_


@dataclass(frozen=True)
class KtParams:
    """Map parameters; the closed loop's period is QktSchedule.period."""

    alpha: float = math.pi / 2.0  # linear rotation angle per period, rad
    k: float = 0.0  # kick strength, rad

    def __post_init__(self) -> None:
        spin_core.require_finite(self, "alpha", "k")


@dataclass(frozen=True)
class FixedPoint:
    location: SpinVector
    stability: str  # "stable" or "unstable"


def lmg_flow(v: tuple[float, float, float], p: LmgParams) -> tuple[float, float, float]:
    """Cartesian torque form dv/dt = omega x v with
    omega = (alpha_lin, 0, k_nl * z).  Free of coordinate singularities."""
    x, y, z = v
    wx = p.alpha_lin
    wz = p.k_nl * z
    return (-wz * y, wz * x - wx * z, wx * y)


def lmg_energy(v: SpinVector, p: LmgParams) -> float:
    """Dimensionless conserved energy E/(J Lambda) = -(1-s) x - (s/2) z^2."""
    return -(1.0 - p.s) * v.x - 0.5 * p.s * v.z * v.z


def lmg_fixed_points(s: float) -> list[FixedPoint]:
    """Fixed points of the flow: +/- x_hat always; for s > 0.5 the broken
    pair at phi = 0, sin(theta) = (1-s)/s."""
    if not 0.0 <= s <= 1.0:
        raise ValueError("s must lie in [0, 1]")
    pts = [
        FixedPoint(X_HAT, "unstable" if s > 0.5 else "stable"),
        FixedPoint(SpinVector(-1.0, 0.0, 0.0), "stable"),
    ]
    if s > 0.5:
        sx = (1.0 - s) / s
        sz = math.sqrt(1.0 - sx * sx)
        pts.append(FixedPoint(SpinVector(sx, 0.0, sz), "stable"))
        pts.append(FixedPoint(SpinVector(sx, 0.0, -sz), "stable"))
    return pts


def kt_map(x, y, z, alpha, k, *tangents):
    """One period of the kicked-top map on points (x, y, z), floats or
    arrays that broadcast with alpha and k, written out component-wise to
    pin the sign convention:

      W  = cos(a) Z - sin(a) Y
      X' = -sin(kW) [cos(a) Y + sin(a) Z] + cos(kW) X
      Y' =  cos(kW) [cos(a) Y + sin(a) Z] + sin(kW) X
      Z' = W

    Returns [(X', Y', Z'), then the image of each tangent vector (tx, ty,
    tz) under the map's derivative, by d/dW R_z(kW) u = k z_hat x R_z(kW) u].
    The map keeps |v|, so a vector tangent at v stays tangent at its image."""
    ca = np.cos(alpha)
    sa = np.sin(alpha)
    w = ca * z - sa * y
    u = ca * y + sa * z
    kw = k * w
    ckw = np.cos(kw)
    skw = np.sin(kw)
    xn = ckw * x - skw * u
    yn = skw * x + ckw * u
    out = [(xn, yn, w)]
    for tx, ty, tz in tangents:
        dw = ca * tz - sa * ty
        du = ca * ty + sa * tz
        kdw = k * dw
        out.append((ckw * tx - skw * du - kdw * yn, skw * tx + ckw * du + kdw * xn, dw))
    return out


def kt_step(v: SpinVector, p: KtParams) -> SpinVector:
    """One period of the kicked-top map from one point (``kt_map``)."""
    ((x, y, z),) = kt_map(v.x, v.y, v.z, p.alpha, p.k)
    return SpinVector(float(x), float(y), float(z))


def _tangent_basis(v: SpinVector) -> tuple[np.ndarray, np.ndarray]:
    """Unit tangent e1 = seed x v / |seed x v| and e2 = v x e1.  The cross
    products are np.cross written out term for term, the seed's zero terms
    included, so signed zeros come out alike; the length is np.linalg.norm,
    which no plain-float sum matched in every case."""
    x, y, z = v.x, v.y, v.z
    # seed axis chosen away from v to keep the chart well conditioned
    if abs(z) < 0.9:  # seed (0, 0, 1)
        e1 = np.array((0.0 * z - 1.0 * y, 1.0 * x - 0.0 * z, 0.0 * y - 0.0 * x))
    else:  # seed (1, 0, 0)
        e1 = np.array((0.0 * z - 0.0 * y, 0.0 * x - 1.0 * z, 1.0 * y - 0.0 * x))
    e1 /= np.linalg.norm(e1)
    a, b, c = e1.tolist()
    e2 = np.array((y * c - z * b, z * a - x * c, x * b - y * a))
    return e1, e2


def tilted(v: SpinVector, chis, angles) -> list[SpinVector]:
    """Copies of v, each rotated through its angle about the tangent axis at
    its azimuth chi, cos(chi) e1 + sin(chi) e2 in the ``_tangent_basis`` of
    v, which is computed once for all of them."""
    e1, e2 = _tangent_basis(v)
    axes = [SpinVector(*(math.cos(chi) * e1 + math.sin(chi) * e2).tolist()) for chi in chis]
    # spin_core.rotate is looked up at call time, so a patched one is used
    return [spin_core.rotate(v, axis, angle) for axis, angle in zip(axes, angles)]


def kt_jacobian(v: SpinVector, p: KtParams) -> np.ndarray:
    """Tangent map of kt_step in the ``_tangent_basis`` charts of v and of
    its image (2x2, det = 1): kt_map's images of e1 and e2, projected."""
    e1, e2 = _tangent_basis(v)
    (x, y, z), d1, d2 = kt_map(v.x, v.y, v.z, p.alpha, p.k, e1, e2)
    f1, f2 = _tangent_basis(SpinVector(float(x), float(y), float(z)))
    return np.array([f1, f2]) @ np.array([d1, d2]).T
