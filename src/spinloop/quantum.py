"""Exact quantum simulation of the measurement-and-feedback protocol for a
single collective spin j: Gaussian Kraus measurement, outcome sampling, and
the measurement-conditioned unitary.  Dense matrices; j is capped at 500."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spin_core import SphericalAngles

J_MAX = 500


@dataclass
class QuantumSpinState:
    """Amplitudes in the Jz eigenbasis, ordered m = j .. -j."""

    j: float
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        dim = int(round(2 * self.j)) + 1
        if abs(2 * self.j - round(2 * self.j)) > 1e-9 or self.j < 0.5:
            raise ValueError("2j must be a positive integer")
        if self.amplitudes.shape != (dim,):
            raise ValueError("amplitude vector has the wrong dimension")

    def normalized(self) -> "QuantumSpinState":
        n = np.linalg.norm(self.amplitudes)
        return QuantumSpinState(self.j, self.amplitudes / n)

    @property
    def m_values(self) -> np.ndarray:
        return self.j - np.arange(int(round(2 * self.j)) + 1)


@dataclass(frozen=True)
class SpinOperators:
    j: float
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray


def spin_operators(j: float) -> SpinOperators:
    """Standard ladder-operator construction; jz diagonal with j .. -j."""
    if j > J_MAX:
        raise ValueError(f"j = {j} too large for dense storage (cap {J_MAX})")
    if abs(2 * j - round(2 * j)) > 1e-9 or j < 0.5:
        raise ValueError("2j must be a positive integer")
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)
    jz = np.diag(m.astype(complex))
    # <m+1| J+ |m> = sqrt(j(j+1) - m(m+1)); basis is descending in m
    cp = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jp = np.zeros((dim, dim), dtype=complex)
    jp[np.arange(dim - 1), np.arange(1, dim)] = cp
    jm = jp.conj().T
    jx = 0.5 * (jp + jm)
    jy = -0.5j * (jp - jm)
    return SpinOperators(j, jx, jy, jz)


@lru_cache(maxsize=8)
def _cached_ops(j: float) -> SpinOperators:
    return spin_operators(j)


@lru_cache(maxsize=8)
def _jy_eigensystem(j: float):
    ops = _cached_ops(j)
    vals, vecs = np.linalg.eigh(ops.jy)
    return vals, vecs


def scs_state(j: float, angles: SphericalAngles) -> QuantumSpinState:
    """Spin coherent state: the stretched m = +j state rotated to point
    along (theta, phi)."""
    dim = int(round(2 * j)) + 1
    amps = np.zeros(dim, dtype=complex)
    amps[0] = 1.0
    state = QuantumSpinState(j, amps)
    if angles.theta == 0.0 and angles.phi == 0.0:
        return state
    # rotate by theta about the axis at azimuth phi + pi/2 (moves +z toward
    # the target direction), built from the exact Jy rotation conjugated by
    # the diagonal Jz phase
    vals, vecs = _jy_eigensystem(j)
    m = state.m_values
    phase = np.exp(-1j * angles.phi * m)
    # e^{-i theta Jy} applied in the rotated frame: R = P e^{-i theta Jy} P*
    core = vecs @ (np.exp(-1j * angles.theta * vals) * (vecs.conj().T @ (phase.conj() * amps)))
    return QuantumSpinState(j, phase * core).normalized()


def expect(state: QuantumSpinState, op: np.ndarray) -> float:
    if op.shape != (len(state.amplitudes),) * 2:
        raise ValueError("operator dimension mismatch")
    val = np.vdot(state.amplitudes, op @ state.amplitudes)
    return float(val.real)


def kraus_apply(
    state: QuantumSpinState, m: float, sigma: float
) -> tuple[QuantumSpinState, float]:
    """Apply the Gaussian Kraus operator
    K_m = (2 pi sigma^2)^(-1/4) exp(-(Jz - m)^2 / 4 sigma^2).
    Returns the renormalized state and the outcome probability density."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    mv = state.m_values
    env = (2 * math.pi * sigma**2) ** (-0.25) * np.exp(
        -((mv - m) ** 2) / (4 * sigma**2)
    )
    amps = env * state.amplitudes
    p = float(np.vdot(amps, amps).real)
    if p <= 0:
        raise FloatingPointError("outcome probability underflow")
    return QuantumSpinState(state.j, amps / math.sqrt(p)), p


def sample_outcome(state: QuantumSpinState, sigma: float, rng) -> float:
    """Draw m from the exact mixture sum_m0 |<m0|psi>|^2 N(m0, sigma^2)."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()
    m0 = float(rng.choice(state.m_values, p=probs))
    return m0 + sigma * rng.standard_normal()


def qmf_step(
    state: QuantumSpinState, m: float, p, dt: float, sigma: float
) -> QuantumSpinState:
    """Measurement backaction for outcome m, then the conditioned unitary
    exp[i (alpha_lin Jx + k_nl (m/j) Jz) dt].

    The z rate k_nl * m/j is chosen so the conditioned rotation reproduces
    the Heisenberg dynamics of the quadratic Hamiltonian (whose commutator
    carries a factor 2 that cancels the 1/2 in the Hamiltonian); this is
    the same convention as the classical control law."""
    post, _ = kraus_apply(state, m, sigma)
    if dt == 0.0:
        return post
    a = p.alpha_lin
    b = p.k_nl * (m / state.j)
    return _axis_rotation(post, a * dt, b * dt)


def _axis_rotation(state: QuantumSpinState, ax: float, az: float) -> QuantumSpinState:
    """Apply exp[i (ax Jx + az Jz)] using the cached Jy eigensystem:
    the generator is a rotation of Jz by beta about y, so the exponential
    factorizes into Jy rotations around a diagonal phase."""
    omega = math.hypot(ax, az)
    if omega == 0.0:
        return state
    # ax Jx + az Jz = omega * e^{-i beta Jy} Jz e^{+i beta Jy}
    # with cos(beta) = az/omega, sin(beta) = ax/omega
    beta = math.atan2(ax, az)
    vals, vecs = _jy_eigensystem(state.j)
    mv = state.m_values
    psi = state.amplitudes
    # e^{+i beta Jy} psi
    psi = vecs @ (np.exp(1j * beta * vals) * (vecs.conj().T @ psi))
    psi = np.exp(1j * omega * mv) * psi
    psi = vecs @ (np.exp(-1j * beta * vals) * (vecs.conj().T @ psi))
    n = np.linalg.norm(psi)
    return QuantumSpinState(state.j, psi / n)


def mmss_variance(f: float) -> tuple[float, float]:
    """Variance of Jz in the maximally mixed state over 2f+1 sublevels,
    f(f+1)/3, and its ratio to the coherent-state value f/2."""
    if f < 0.5:
        raise ValueError("f must be >= 1/2")
    var = f * (f + 1.0) / 3.0
    return var, var / (f / 2.0)
