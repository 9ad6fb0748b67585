"""The two target models: the continuous linear-plus-quadratic spin flow
(dimensionless control parameter s, overall rate Lambda) and the kicked-top
Poincare map (linear angle alpha, kick strength k)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spin_core
from .spin_core import SphericalAngles, SpinVector, X_HAT


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
        if self.lambda_ < 0:
            raise ValueError("lambda_ must be >= 0")

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


@dataclass(frozen=True)
class FixedPoint:
    location: SpinVector
    stability: str  # "stable" or "unstable"


class PoleSingularity(ValueError):
    """Angle derivatives are undefined at the poles; integrate in Cartesian
    coordinates there instead."""


def lmg_derivatives(state: SphericalAngles, p: LmgParams) -> tuple[float, float]:
    """Angle-coordinate equations of motion of the unit-spin flow.

    dtheta/dt = -(1-s) L sin(phi)
    dphi/dt   =  L cos(theta) (s - (1-s) cos(phi)/sin(theta))
    """
    st = math.sin(state.theta)
    if st < 1e-9:
        raise PoleSingularity("polar coordinates are singular at the poles")
    ct = math.cos(state.theta)
    L = p.lambda_
    dtheta = -(1.0 - p.s) * L * math.sin(state.phi)
    dphi = L * ct * (p.s - (1.0 - p.s) * math.cos(state.phi) / st)
    return dtheta, dphi


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


def lmg_critical_s_for_pole() -> float:
    """s at which the pole state energy equals the unstable-point energy:
    -s/2 = -(1-s), i.e. s = 2/3."""
    return 2.0 / 3.0


def kt_step(v: SpinVector, p: KtParams) -> SpinVector:
    """One period of the kicked-top map, written out component-wise to pin
    the sign convention:

      W  = cos(a) Z - sin(a) Y
      X' = -sin(kW) [cos(a) Y + sin(a) Z] + cos(kW) X
      Y' =  cos(kW) [cos(a) Y + sin(a) Z] + sin(kW) X
      Z' = -sin(a) Y + cos(a) Z
    """
    ca = math.cos(p.alpha)
    sa = math.sin(p.alpha)
    w = ca * v.z - sa * v.y
    u = ca * v.y + sa * v.z
    ckw = math.cos(p.k * w)
    skw = math.sin(p.k * w)
    return SpinVector(
        -skw * u + ckw * v.x,
        ckw * u + skw * v.x,
        w,
    )


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


def tilted(v: SpinVector, chi: float, angle: float) -> SpinVector:
    """v rotated through angle about the tangent axis at azimuth chi,
    cos(chi) e1 + sin(chi) e2 in the ``_tangent_basis`` of v."""
    e1, e2 = _tangent_basis(v)
    axis = math.cos(chi) * e1 + math.sin(chi) * e2
    # spin_core.rotate is looked up at call time, so a patched one is used
    return spin_core.rotate(v, SpinVector(*axis.tolist()), angle)


def kt_jacobian(v: SpinVector, p: KtParams) -> np.ndarray:
    """Tangent map of kt_step in local orthonormal charts (2x2, det = 1)."""
    ca = math.cos(p.alpha)
    sa = math.sin(p.alpha)
    r_alpha = np.array([[1.0, 0.0, 0.0], [0.0, ca, sa], [0.0, -sa, ca]])
    u = r_alpha @ np.array(v.as_tuple())
    psi = p.k * u[2]
    c, s = math.cos(psi), math.sin(psi)
    r_z = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    dr_z = np.array([[-s, -c, 0.0], [c, -s, 0.0], [0.0, 0.0, 0.0]])
    # d/dv [R_z(k u_z) u] with u = R_alpha v and u_z = r3 . v
    d3 = r_z @ r_alpha + p.k * np.outer(dr_z @ u, r_alpha[2])
    e1, e2 = _tangent_basis(v)
    vp = kt_step(v, p)
    f1, f2 = _tangent_basis(vp)
    ein = np.column_stack([e1, e2])
    eout = np.column_stack([f1, f2])
    return eout.T @ d3 @ ein
