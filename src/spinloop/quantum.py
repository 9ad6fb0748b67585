"""Exact quantum simulation of the measurement-and-feedback protocol for a
single collective spin j: Gaussian Kraus measurement, outcome sampling, and
the measurement-conditioned unitary.

State vectors live in the Jz basis.  Jz is diagonal and Jx, Jy are
tridiagonal, so the engine keeps only the ladder coefficients and one cached
real eigenbasis of Jx (Jx = W diag(lam) W^T).  The conditioned unitary is a
ZXZ Euler product: two diagonal Jz phases around e^{i b Jx}, which costs two
real products with W.  Coherent states use the same basis, because Jy is Jx
conjugated by a diagonal Jz phase.  The Bloch read-out is O(dim).  W is a
dense (2j+1)^2 real matrix, so j is capped at 500."""

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


@lru_cache(maxsize=8)
def _ladder(j: float) -> np.ndarray:
    """<m+1| J+ |m> = sqrt(j(j+1) - m(m+1)) for m = j-1 .. -j, the
    superdiagonal of J+ in the basis m = j .. -j."""
    if j > J_MAX:
        raise ValueError(f"j = {j} too large for dense storage (cap {J_MAX})")
    if abs(2 * j - round(2 * j)) > 1e-9 or j < 0.5:
        raise ValueError("2j must be a positive integer")
    m = j - np.arange(1, int(round(2 * j)) + 1)
    cp = np.sqrt(j * (j + 1) - m * (m + 1))
    cp.setflags(write=False)
    return cp


def spin_operators(j: float) -> SpinOperators:
    """Dense Jx, Jy, Jz from the ladder coefficients; jz diagonal with
    j .. -j.  For tests and reference calculations: the trajectory engine
    works from the ladder coefficients and the Jx eigenbasis instead."""
    cp = _ladder(j)
    m = j - np.arange(len(cp) + 1)
    jp = np.diag(cp.astype(complex), k=1)
    jm = jp.conj().T
    jx = 0.5 * (jp + jm)
    jy = -0.5j * (jp - jm)
    return SpinOperators(j, jx, jy, np.diag(m.astype(complex)))


@lru_cache(maxsize=8)
def _jx_eigensystem(j: float) -> tuple[np.ndarray, np.ndarray]:
    """Jx = W diag(lam) W^T; Jx is real symmetric tridiagonal, so W is real."""
    half = 0.5 * _ladder(j)
    lam, w = np.linalg.eigh(np.diag(half, k=1) + np.diag(half, k=-1))
    lam.setflags(write=False)
    w.setflags(write=False)
    return lam, w


def _real_matvec(mat: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """mat @ psi for a real matrix and a complex vector, as one real product
    with the stacked (re, im) rows; never forms a complex copy of mat."""
    r = np.stack((psi.real, psi.imag)) @ mat.T
    return r[0] + 1j * r[1]


def scs_state(j: float, angles: SphericalAngles) -> QuantumSpinState:
    """Spin coherent state exp(-i phi Jz) exp(-i theta Jy) |j, j>: the
    stretched m = +j state rotated to point along (theta, phi)."""
    dim = int(round(2 * j)) + 1
    amps = np.zeros(dim, dtype=complex)
    amps[0] = 1.0
    state = QuantumSpinState(j, amps)
    if angles.theta == 0.0 and angles.phi == 0.0:
        return state
    # Jy = R Jx R* with the diagonal R = exp(-i (pi/2)(Jz - j)), and
    # R* |j, j> = |j, j>, so exp(-i theta Jy)|j, j> = R W e^{-i theta lam} W^T |j, j>
    lam, w = _jx_eigensystem(j)
    m = state.m_values
    core = _real_matvec(w, np.exp(-1j * angles.theta * lam) * w[0])
    phase = np.exp(-1j * (angles.phi * m + 0.5 * math.pi * (m - j)))
    return QuantumSpinState(j, phase * core).normalized()


def expect(state: QuantumSpinState, op: np.ndarray) -> float:
    """<psi| op |psi> for a dense Hermitian operator."""
    if op.shape != (len(state.amplitudes),) * 2:
        raise ValueError("operator dimension mismatch")
    val = np.vdot(state.amplitudes, op @ state.amplitudes)
    return float(val.real)


def bloch_vector(state: QuantumSpinState) -> tuple[float, float, float]:
    """(<Jx>, <Jy>, <Jz>) / j in O(dim): Jz is diagonal, and
    <J+> = <Jx> + i <Jy> has only the ladder superdiagonal."""
    psi = state.amplitudes
    jp = np.sum(_ladder(state.j) * psi[:-1].conj() * psi[1:])
    jz = np.dot(state.m_values, psi.real**2 + psi.imag**2)
    return float(jp.real) / state.j, float(jp.imag) / state.j, float(jz) / state.j


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
    """Apply exp[i (ax Jx + az Jz)] = e^{i a Jz} e^{i b Jx} e^{i a Jz}.

    The ZXZ Euler angles a, b are solved in SU(2), so the factorisation is
    exact in every spin-j representation, half-integer j included."""
    w = math.hypot(ax, az)
    if w == 0.0:
        return state
    c, s = math.cos(w / 2), math.sin(w / 2)
    sz = s * az / w
    a = math.atan2(sz, c)
    b = 2 * math.atan2(s * ax / w, math.hypot(c, sz))
    lam, vecs = _jx_eigensystem(state.j)
    za = np.exp(1j * a * state.m_values)
    psi = np.exp(1j * b * lam) * _real_matvec(vecs.T, za * state.amplitudes)
    psi = za * _real_matvec(vecs, psi)
    return QuantumSpinState(state.j, psi / np.linalg.norm(psi))


def mmss_variance(f: float) -> tuple[float, float]:
    """Variance of Jz in the maximally mixed state over 2f+1 sublevels,
    f(f+1)/3, and its ratio to the coherent-state value f/2."""
    if f < 0.5:
        raise ValueError("f must be >= 1/2")
    var = f * (f + 1.0) / 3.0
    return var, var / (f / 2.0)
