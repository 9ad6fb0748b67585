"""Exact quantum simulation of the measurement-and-feedback protocol for a
single collective spin j: Gaussian Kraus measurement, outcome sampling, and
the measurement-conditioned unitary.

State vectors live in the Jz basis, one state of shape (dim,) or a batch of
shape (shots, dim) whose rows advance in lock-step.  Jz is diagonal and
Jx, Jy are tridiagonal, so the engine keeps only the ladder coefficients and
the cached real eigenbases of Jx's two parity blocks: Jx commutes with the
reflection m -> -m, so it splits into an even and an odd tridiagonal block
of about dim/2 each (block = W diag(lam) W^T).  lam is the exact m, and W
comes from a twisted factorization at those shifts, with no LAPACK call
(``_jx_parity_blocks``).  The conditioned unitary is a ZXZ Euler product:
two diagonal Jz phases around e^{i b Jx}, which costs two real products
with each block's W.  Coherent states use the same rotation, because Jy is
Jx conjugated by a diagonal Jz phase.  The Bloch read-out is O(dim).

Rows of a batch never mix: every step is made of elementwise operations,
sums along a row and one small GEMM per row, so a trajectory's bytes do not
depend on the batch it runs in.  (A single GEMM over all rows would be
faster, but BLAS rounds its rows differently as the row count changes.)
That is also why ``scenarios.quantum_ensemble`` may run contiguous ranges
of an ensemble's rows in forked processes, one per usable CPU, to the same
bytes; the children inherit the cached eigenbases.  The two W hold about
(2j+1)^2 / 2 reals, 4 MB at the cap j = 500, and their build raises the
peak by under 5 MB."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spin_core import SphericalAngles

J_MAX = 500


@dataclass
class QuantumSpinState:
    """Amplitudes in the Jz eigenbasis, ordered m = j .. -j: one state of
    shape (dim,), or a batch of shape (shots, dim) with one state per row.
    Every function of this module treats the rows of a batch independently,
    so a row's bytes do not depend on the batch it is in."""

    j: float
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        check_j(self.j)
        dim = int(round(2 * self.j)) + 1
        if self.amplitudes.ndim not in (1, 2) or self.amplitudes.shape[-1] != dim:
            raise ValueError("amplitude vector has the wrong dimension")

    def normalized(self) -> "QuantumSpinState":
        return QuantumSpinState(self.j, _unit_rows(self.amplitudes))

    @property
    def m_values(self) -> np.ndarray:
        return _m_values(self.j)


def _norm2(psi: np.ndarray) -> np.ndarray:
    """<psi|psi> of each state of psi (..., dim).  A sum along the last
    axis reduces each row on its own, where a BLAS dot or norm called on a
    whole batch would not."""
    return np.sum(psi.real**2 + psi.imag**2, axis=-1)


def _unit_rows(psi: np.ndarray) -> np.ndarray:
    """Each state of psi divided by its norm."""
    return psi / np.sqrt(_norm2(psi))[..., None]


def check_j(j: float) -> None:
    """Raise ValueError unless 2j is a positive integer and j <= J_MAX.  The
    cap comes first: rounding 2j overflows for j near the largest float."""
    if j > J_MAX:
        raise ValueError(f"j = {j} too large for dense storage (cap {J_MAX})")
    if not (math.isfinite(j) and j >= 0.5 and abs(2 * j - round(2 * j)) <= 1e-9):
        raise ValueError("2j must be a positive integer")


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
    check_j(j)
    m = j - np.arange(1, int(round(2 * j)) + 1)
    cp = np.sqrt(j * (j + 1) - m * (m + 1))
    cp.setflags(write=False)
    return cp


@lru_cache(maxsize=8)
def _m_values(j: float) -> np.ndarray:
    m = j - np.arange(int(round(2 * j)) + 1)
    m.setflags(write=False)
    return m


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


def _tridiagonal_eigvecs(e: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvectors W, one column per eigenvalue of lam, of a
    symmetric tridiagonal block with off-diagonal e and a diagonal that is
    zero except perhaps for its last entry.  lam must hold the exact
    eigenvalues: then rows 0 .. n-2 of (block - lam) z = 0 fix z, and the
    last diagonal entry is never read.

    A twisted factorization at every shift at once (Dhillon & Parlett,
    Linear Algebra Appl. 387:1-28, 2004), with the twist fixed at the last
    row: the forward LDL^T pivots of block - lam, and the vector unrolled
    upward from z = 1 in the last row by cumulative products of
    -e_i / pivot_i.  The last row is the middle of the ladder (m = 0 or
    +-1/2).  Every eigenvalue has lam^2 <= j(j+1), so the middle lies inside
    the classically allowed band |m| <= sqrt(j(j+1) - lam^2) of every
    eigenvector, and z there is never small.  The eigenvalues are at least
    2 apart, so the vectors need no reorthogonalisation.  A pivot of exactly
    zero, as integer j meets at shift 0, is replaced by eps * max|e|.  Rows
    index the block and columns the shifts; the pivot array is the only
    n x n array, and it becomes W."""
    n = len(lam)
    guard = np.finfo(float).eps * np.abs(e).max(initial=0.0)
    e2 = e * e
    fwd = np.empty((n, n))
    np.negative(lam, out=fwd[0])
    for i in range(1, n):
        p = fwd[i - 1]
        p[p == 0.0] = guard
        np.divide(-e2[i - 1], p, out=fwd[i])
        fwd[i] -= lam
    np.divide(-e[:, None], fwd[:-1], out=fwd[:-1])  # z_i = -(e_i / fwd_i) z_{i+1}
    fwd[-1] = 1.0
    np.multiply.accumulate(fwd[::-1], axis=0, out=fwd[::-1])
    fwd /= np.sqrt(np.einsum("ij,ij->j", fwd, fwd))
    return fwd


@lru_cache(maxsize=8)
def _jx_parity_blocks(j: float) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Eigensystems (lam, W) of the two parity blocks of Jx, even then odd,
    each with its eigenvalues ascending.

    The ladder reads the same from both ends, so Jx commutes with the
    reflection m -> -m.  In the basis (|m> + |-m>)/sqrt2 (plus |0> for
    integer j) and (|m> - |-m>)/sqrt2, m > 0, it splits into two real
    symmetric tridiagonal blocks of about dim/2 each: block = W diag(lam) W^T.
    The spectrum of Jx is exactly m = -j .. j; the even block holds
    m = j, j - 2, ... and the odd block m = j - 1, j - 3, ..., so lam is
    exact and W follows from ``_tridiagonal_eigvecs``, with no LAPACK call
    and no dense block.  A build holds one n x n work array, which becomes
    its W, next to the W already built: under 5 MB at j = 500."""
    h = 0.5 * _ladder(j)
    n = (len(h) + 1) // 2  # the number of (m, -m) pairs
    inner = h[: n - 1]
    # half-integer j: the middle pair couples to itself, on the last diagonal
    # entry, which the eigenvectors never read; integer j: m = 0 joins the
    # even block
    even = inner if len(h) % 2 else np.append(inner, math.sqrt(2.0) * h[n - 1])
    blocks = []
    for e, top in ((even, j), (inner, j - 1)):
        lam = top - 2.0 * np.arange(len(e), -1, -1)  # ascending, up to top
        blocks.append((lam, _tridiagonal_eigvecs(e, lam)))
    for arr in (a for block in blocks for a in block):
        arr.setflags(write=False)
    return tuple(blocks)


def _real_matvec(mat: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """mat @ psi for a real matrix and complex states psi (..., n), as one
    real product per state with its stacked (re, im) rows; never forms a
    complex copy of mat.  The stacked product makes one GEMM per state, so
    a row's result does not depend on the batch."""
    r = np.stack((psi.real, psi.imag), axis=-2) @ mat.T
    return r[..., 0, :] + 1j * r[..., 1, :]


def _exp_i_jx(j: float, psi: np.ndarray, b) -> np.ndarray:
    """e^{i b Jx} psi for states psi (..., dim), one parity block at a time;
    b is a scalar or holds one angle per state."""
    dim = psi.shape[-1]
    n = dim // 2
    r = math.sqrt(0.5)
    top, bottom = psi[..., :n], psi[..., : -n - 1 : -1]  # m > 0 and its -m
    even = (top + bottom) * r
    if dim % 2:
        even = np.concatenate((even, psi[..., n : n + 1]), axis=-1)
    parts = [
        _real_matvec(w, np.exp(1j * np.multiply.outer(b, lam)) * _real_matvec(w.T, v))
        for (lam, w), v in zip(_jx_parity_blocks(j), (even, (top - bottom) * r))
    ]
    even, odd = parts
    out = np.empty_like(psi)
    out[..., :n] = (even[..., :n] + odd) * r
    out[..., : -n - 1 : -1] = (even[..., :n] - odd) * r
    if dim % 2:
        out[..., n] = even[..., n]
    return out


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
    # R* |j, j> = |j, j>, so exp(-i theta Jy)|j, j> = R e^{-i theta Jx} |j, j>
    m = state.m_values
    phase = np.exp(-1j * (angles.phi * m + 0.5 * math.pi * (m - j)))
    return QuantumSpinState(j, phase * _exp_i_jx(j, amps, -angles.theta)).normalized()


def expect(state: QuantumSpinState, op: np.ndarray) -> float:
    """<psi| op |psi> for one state and a dense Hermitian operator."""
    if op.shape != (len(state.amplitudes),) * 2:
        raise ValueError("operator dimension mismatch")
    val = np.vdot(state.amplitudes, op @ state.amplitudes)
    return float(val.real)


def bloch_vector(state: QuantumSpinState) -> np.ndarray:
    """(<Jx>, <Jy>, <Jz>) / j in O(dim), shape (..., 3): Jz is diagonal, and
    <J+> = <Jx> + i <Jy> has only the ladder superdiagonal."""
    psi = state.amplitudes
    jp = np.sum(_ladder(state.j) * psi[..., :-1].conj() * psi[..., 1:], axis=-1)
    jz = np.sum(state.m_values * (psi.real**2 + psi.imag**2), axis=-1)
    return np.stack((jp.real, jp.imag, jz), axis=-1) / state.j


def kraus_apply(state: QuantumSpinState, m, sigma: float):
    """Apply the Gaussian Kraus operator
    K_m = (2 pi sigma^2)^(-1/4) exp(-(Jz - m)^2 / 4 sigma^2),
    with one outcome m per state.  Returns the renormalized state and the
    outcome probability densities."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    mv = state.m_values
    env = (2 * math.pi * sigma**2) ** (-0.25) * np.exp(
        -((mv - np.asarray(m)[..., None]) ** 2) / (4 * sigma**2)
    )
    amps = env * state.amplitudes
    p = _norm2(amps)
    if np.any(p <= 0):
        raise FloatingPointError("outcome probability underflow")
    return QuantumSpinState(state.j, amps / np.sqrt(p)[..., None]), p


def sample_outcome(state: QuantumSpinState, sigma: float, rng):
    """Draw m from the exact mixture sum_m0 |<m0|psi>|^2 N(m0, sigma^2), one
    draw per state.  rng is a generator for one state, and a sequence of
    generators, one per row, for a batch.

    m0 is drawn as rng.choice(m_values, p=probs) draws it: the cumulative
    probabilities divided by their last entry, searched for one uniform
    draw from the right.  The Gaussian draw follows from the same stream."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    lone = state.amplitudes.ndim == 1  # one state is a batch of one
    probs = np.abs(np.atleast_2d(state.amplitudes)) ** 2
    probs = probs / probs.sum(axis=-1, keepdims=True)
    cdf = np.cumsum(probs, axis=-1)
    if np.isnan(cdf[:, -1]).any():
        raise ValueError("probabilities contain NaN")
    cdf /= cdf[:, -1:]
    m = state.m_values
    out = np.empty(len(cdf))
    for i, (row, r) in enumerate(zip(cdf, [rng] if lone else rng, strict=True)):
        m0 = float(m[row.searchsorted(r.random(), side="right")])
        out[i] = m0 + sigma * r.standard_normal()
    return float(out[0]) if lone else out


def qmf_rate(m, j: float, k_nl: float):
    """The quantum feedback law: the z rate k_nl * (m / j) for outcomes m,
    elementwise.  ``qmf_step`` applies it, and a trajectory record's ctl_z
    recomputes it from the recorded outcomes, so the two hold the same bits."""
    return k_nl * (np.asarray(m) / j)


def qmf_step(state: QuantumSpinState, m, p, dt: float, sigma: float) -> QuantumSpinState:
    """Measurement backaction for outcome m, then the conditioned unitary
    exp[i (alpha_lin Jx + k_nl (m/j) Jz) dt]; one outcome per state.

    The z rate k_nl * m/j (``qmf_rate``) is chosen so the conditioned
    rotation reproduces the Heisenberg dynamics of the quadratic Hamiltonian
    (whose commutator carries a factor 2 that cancels the 1/2 in the
    Hamiltonian).  Unlike the classical law (``controller.lmg_control``) it
    neither clamps m / j to +-1 nor caps the rate at the drive limit."""
    post, _ = kraus_apply(state, m, sigma)
    return _axis_rotation(post, p.alpha_lin * dt, qmf_rate(m, state.j, p.k_nl) * dt)


def _zxz(ax: float, az: float) -> tuple[float, float]:
    """Euler angles (a, b) of exp[i (ax Jx + az Jz)] = e^{i a Jz} e^{i b Jx}
    e^{i a Jz}, solved in SU(2) with math's scalar functions, one state at
    a time; numpy's atan2 and hypot can differ from them in the last bit."""
    w = math.hypot(ax, az)
    if w == 0.0:
        return 0.0, 0.0
    c, s = math.cos(w / 2), math.sin(w / 2)
    sz = s * az / w
    return math.atan2(sz, c), 2 * math.atan2(s * ax / w, math.hypot(c, sz))


def _axis_rotation(state: QuantumSpinState, ax: float, az) -> QuantumSpinState:
    """Apply exp[i (ax Jx + az Jz)] = e^{i a Jz} e^{i b Jx} e^{i a Jz}, with
    one az per state.  A state whose rotation angle is zero is left as it is.

    The ZXZ Euler angles a, b are solved in SU(2), so the factorisation is
    exact in every spin-j representation, half-integer j included."""
    az = np.asarray(az, dtype=float)
    still = (ax == 0.0) & (az == 0.0)
    if still.all():
        return state
    angles = np.array([_zxz(ax, z) for z in az.flat]).reshape(*az.shape, 2)
    za = np.exp(1j * np.multiply.outer(angles[..., 0], state.m_values))
    psi = _unit_rows(za * _exp_i_jx(state.j, za * state.amplitudes, angles[..., 1]))
    psi[still] = state.amplitudes[still]
    return QuantumSpinState(state.j, psi)


def mmss_variance(f: float) -> tuple[float, float]:
    """Variance of Jz in the maximally mixed state over 2f+1 sublevels,
    f(f+1)/3, and its ratio to the coherent-state value f/2."""
    if f < 0.5:
        raise ValueError("f must be >= 1/2")
    var = f * (f + 1.0) / 3.0
    return var, var / (f / 2.0)
