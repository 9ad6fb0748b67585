import errno
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from spinloop import quantum, runio, scenarios
from spinloop.cli import simulate_main
from spinloop.loop_sim import shot_rng
from spinloop.models import LmgParams
from spinloop.quantum import (
    QuantumSpinState,
    _axis_rotation,
    _exp_i_jx,
    _jx_parity_blocks,
    bloch_vector,
    expect,
    kraus_apply,
    mmss_variance,
    qmf_step,
    sample_outcome,
    scs_state,
    spin_operators,
)
from spinloop.runio import read_trajectory_csv
from spinloop.scenarios import quantum_ensemble
from spinloop.spin_core import SphericalAngles


def test_operator_algebra():
    for j in (0.5, 1.0, 4.0, 7.5):
        ops = spin_operators(j)
        comm = ops.jx @ ops.jy - ops.jy @ ops.jx
        assert np.allclose(comm, 1j * ops.jz, atol=1e-12)
        casimir = ops.jx @ ops.jx + ops.jy @ ops.jy + ops.jz @ ops.jz
        assert np.allclose(casimir, j * (j + 1) * np.eye(ops.jz.shape[0]), atol=1e-10)


def test_operator_validation():
    with pytest.raises(ValueError):
        spin_operators(600.0)
    with pytest.raises(ValueError):
        spin_operators(0.7)
    with pytest.raises(ValueError):
        QuantumSpinState(2.0, np.zeros(3, dtype=complex))


def test_scs_along_x_mean_and_variance():
    j = 50.0
    ops = spin_operators(j)
    state = scs_state(j, SphericalAngles(math.pi / 2.0, 0.0))
    assert expect(state, ops.jx) == pytest.approx(j, abs=1e-8)
    var = expect(state, ops.jz @ ops.jz) - expect(state, ops.jz) ** 2
    assert var == pytest.approx(j / 2.0, abs=1e-8)


def test_scs_general_direction():
    j = 20.0
    ops = spin_operators(j)
    th, ph = 1.1, -0.7
    state = scs_state(j, SphericalAngles(th, ph))
    n = (math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th))
    for op, comp, b in zip((ops.jx, ops.jy, ops.jz), n, bloch_vector(state)):
        assert expect(state, op) == pytest.approx(j * comp, abs=1e-9)
        assert b == pytest.approx(expect(state, op) / j, abs=1e-12)


@pytest.mark.parametrize("j", [20.0, 200.0])
def test_scs_state_matches_dense_rotation(j):
    ops = spin_operators(j)
    top = np.zeros(ops.jz.shape[0], dtype=complex)
    top[0] = 1.0
    for th, ph in ((1.1, -0.7), (2.5, 3.0), (1e-6, 0.0)):
        want = expm(-1j * ph * ops.jz) @ (expm(-1j * th * ops.jy) @ top)
        got = scs_state(j, SphericalAngles(th, ph)).amplitudes
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("j", [0.5, 7.5, 50.0, 1.0, 199.5])
def test_euler_step_matches_expm(j):
    # exp[i(ax Jx + az Jz)] = e^{i a Jz} e^{i b Jx} e^{i a Jz}, exactly
    ops = spin_operators(j)
    rng = np.random.default_rng(3)
    for ax, az in ((0.3, -1.2), (-0.7, 0.4), (-2.9, -2.5), (0.0, 0.9),
                   (1.1, 0.0), (0.0, 0.0)):
        psi = rng.standard_normal(ops.jz.shape[0]) + 1j * rng.standard_normal(ops.jz.shape[0])
        state = QuantumSpinState(j, psi).normalized()
        want = expm(1j * (ax * ops.jx + az * ops.jz)) @ state.amplitudes
        got = _axis_rotation(state, ax, az).amplitudes
        assert np.max(np.abs(got - want)) < 1e-12


def test_povm_completeness():
    # integral over outcomes of K_m^dagger K_m must be the identity;
    # the Gaussian integrates exactly, so a wide trapezoid grid suffices
    j = 10.0
    sigma = 2.0
    ms = np.linspace(-j - 12 * sigma, j + 12 * sigma, 4001)
    mv = j - np.arange(int(2 * j) + 1)
    dens = np.zeros_like(mv)
    for m in ms:
        env = (2 * math.pi * sigma**2) ** (-0.5) * np.exp(
            -((mv - m) ** 2) / (2 * sigma**2)
        )
        dens += env
    dens *= ms[1] - ms[0]
    assert np.max(np.abs(dens - 1.0)) < 1e-6


def test_kraus_posterior_moves_toward_outcome():
    j = 10.0
    ops = spin_operators(j)
    state = scs_state(j, SphericalAngles(math.pi / 2.0, 0.0))
    post, p = kraus_apply(state, 6.0, 2.0)
    assert p > 0
    assert expect(post, ops.jz) > expect(state, ops.jz)
    assert np.linalg.norm(post.amplitudes) == pytest.approx(1.0)


def test_sample_outcome_moments():
    j = 10.0
    sigma = 3.0
    state = scs_state(j, SphericalAngles(math.pi / 2.0, 0.0))
    rng = np.random.default_rng(0)
    draws = np.array([sample_outcome(state, sigma, rng) for _ in range(30000)])
    assert np.mean(draws) == pytest.approx(0.0, abs=5 * math.sqrt((sigma**2 + j / 2) / 30000) + 0.1)
    assert np.var(draws, ddof=1) == pytest.approx(sigma**2 + j / 2.0, rel=0.03)


def test_mmss_variance_ratio():
    var, ratio = mmss_variance(4.0)
    assert var == pytest.approx(20.0 / 3.0)
    assert ratio == pytest.approx(10.0 / 3.0)
    with pytest.raises(ValueError):
        mmss_variance(0.0)


def test_qmf_step_zero_outcome_is_linear_rotation():
    # with outcome 0 the conditioned unitary reduces to exp(i a dt Jx)
    j = 8.0
    ops = spin_operators(j)
    p = LmgParams(s=0.5, lambda_=2.0)
    state = scs_state(j, SphericalAngles(0.3, 0.2))
    stepped = qmf_step(state, 0.0, p, dt=0.01, sigma=50.0)
    u = expm(1j * p.alpha_lin * 0.01 * ops.jx)
    post, _ = kraus_apply(state, 0.0, 50.0)
    want = u @ post.amplitudes
    phase = np.vdot(want, stepped.amplitudes)
    assert abs(abs(phase) - 1.0) < 1e-10  # equal up to global phase
    assert np.allclose(stepped.amplitudes, phase * want, atol=1e-9)


def test_qmf_mean_trajectory_matches_classical_flow():
    # weak-measurement limit: d<J>/dt from the conditioned unitary should
    # follow the mean-field torque equation with the z axis mirrored
    j = 60.0
    ops = spin_operators(j)
    p = LmgParams(s=0.7, lambda_=200.0)
    state = scs_state(j, SphericalAngles(1.0, 0.0))
    dt = 1e-4
    z0 = expect(state, ops.jz) / j
    x0 = expect(state, ops.jx) / j
    y0 = expect(state, ops.jy) / j
    stepped = qmf_step(state, z0 * j, p, dt, sigma=1e6)  # near-no backaction
    dz = (expect(stepped, ops.jz) / j - z0) / dt
    # d<Jz>/dt = -a <Jy> for U = exp(+i(a Jx + b Jz) dt)
    assert dz == pytest.approx(-p.alpha_lin * y0, abs=2.0)
    dx = (expect(stepped, ops.jx) / j - x0) / dt
    assert dx == pytest.approx(p.k_nl * z0 * y0, abs=2.0)


def _quantum_config(tmp_path, j):
    cfgp = tmp_path / "q.json"
    cfgp.write_text(json.dumps({
        "run": {"kind": "quantum-qmf", "n_shots": "3", "seed": "41"},
        "loop": {"theta0": "0.4"},
        "lmg": {"s": "0.7", "lambda": "1.3089969389957471e5"},
        "quantum": {"j": str(j), "sigma": "3", "dt": "2e-6", "n_steps": "12"},
    }))
    return cfgp


def test_quantum_shot_isolation(tmp_path):
    # shot i of the CSV equals the runner driven by shot_rng(seed, i) alone
    out = tmp_path / "o"
    assert simulate_main(["quantum-qmf", "--config", str(_quantum_config(tmp_path, 10)),
                          "--out", str(out)]) == 0
    recs = read_trajectory_csv(out / "trajectories.csv")
    assert len(recs) == 3
    p = LmgParams(s=0.7, lambda_=1.3089969389957471e5)
    for i, rec in enumerate(recs):
        bloch, meas = quantum_ensemble(10.0, SphericalAngles(0.4, 0.0), p, 3.0,
                                       2e-6, 12, [shot_rng(41, i)])
        assert np.array_equal(np.column_stack((rec.x, rec.y, rec.z)), bloch[0])
        assert np.array_equal(rec.meas[:-1], meas[0])


def test_ctl_z_records_the_applied_rate(tmp_path, monkeypatch):
    # each step's ctl_z is the rate qmf_step applied, bit for bit, and the
    # row after the last step holds none
    applied = []
    real = quantum.qmf_rate

    def qmf_rate(m, j, k_nl):
        applied.append(real(m, j, k_nl))
        return applied[-1]

    monkeypatch.setattr(quantum, "qmf_rate", qmf_rate)  # seen by qmf_step only
    monkeypatch.setattr(runio, "_usable_cpus", lambda: 1)  # every step here
    out = tmp_path / "o"
    assert simulate_main(["quantum-qmf", "--config", str(_quantum_config(tmp_path, 10)),
                          "--out", str(out)]) == 0
    ctl_z = np.array([rec.ctl_z for rec in read_trajectory_csv(out / "trajectories.csv")])
    assert len(applied) == 12  # one call per step for the one block of 3 shots
    assert ctl_z[:, :-1].tobytes() == np.stack(applied, axis=1).tobytes()
    assert ctl_z[:, -1].tolist() == [0.0] * 3


def test_quantum_j_above_cap_is_a_json_error(tmp_path, capsys):
    assert simulate_main(["quantum-qmf", "--config", str(_quantum_config(tmp_path, 600)),
                          "--out", str(tmp_path / "o")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "cap 500" in err["message"]


@pytest.mark.parametrize("j", [0.5, 1.0, 7.5, 199.5, 200.0, 500.0])
def test_parity_blocks_match_dense_jx(j):
    # the two blocks hold the whole spectrum m = -j .. j, and e^{i b Jx}
    # through them equals the rotation in the dense eigenbasis
    dim = int(2 * j) + 1
    (lam_e, w_e), (lam_o, w_o) = _jx_parity_blocks(j)
    assert w_e.shape == (dim - dim // 2,) * 2 and w_o.shape == (dim // 2,) * 2
    assert np.max(np.abs(np.sort(np.append(lam_e, lam_o)) - np.arange(-j, j + 1))) < 1e-9
    lam, w = np.linalg.eigh(spin_operators(j).jx.real)
    rng = np.random.default_rng(7)
    psi = rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
    b = np.array([0.3, -2.1])
    want = np.stack([w @ (np.exp(1j * bi * lam) * (w.T @ row)) for bi, row in zip(b, psi)])
    assert np.max(np.abs(_exp_i_jx(j, psi, b) - want)) < 1e-10 * math.sqrt(dim)


@pytest.mark.parametrize("j", [k / 2 for k in range(1, 41)] + [50.0, 199.5, 200.0, 500.0])
def test_parity_blocks_are_exact_eigensystems(j):
    # lam is exactly the m of each parity (j - m even, then odd), ascending,
    # and W is an orthonormal eigenbasis of the block that dense Jx takes in
    # the parity basis (|m> +- |-m>)/sqrt2, |0> last in the even one.  Each
    # column's residual |(block - lam_k) w_k| is pinned near rounding: the
    # fixed twist at the middle of the ladder keeps it under 3.3e-15 j for
    # every 2j up to 1000.
    dim = int(2 * j) + 1
    n = dim // 2
    m = j - np.arange(dim)
    basis = np.zeros((dim, dim))
    for k in range(n):
        basis[[k, dim - 1 - k], k] = math.sqrt(0.5)
        basis[[k, dim - 1 - k], dim - n + k] = math.sqrt(0.5), -math.sqrt(0.5)
    if dim % 2:
        basis[n, n] = 1.0
    jx = basis.T @ spin_operators(j).jx.real @ basis
    blocks = (jx[: dim - n, : dim - n], jx[dim - n :, dim - n :])
    for (lam, w), want, block in zip(_jx_parity_blocks(j), (m[::2], m[1::2]), blocks):
        assert lam.tolist() == want[::-1].tolist()
        assert np.max(np.abs(w.T @ w - np.eye(len(lam)))) < 1e-13
        assert np.max(np.abs(block @ w - w * lam)) <= 1e-14 * j
        assert np.max(np.abs((w * lam) @ w.T - block)) < 1e-12 * j


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
def test_parity_blocks_build_in_little_memory():
    # a fresh interpreter: the j = 500 build must not raise the peak RSS by
    # much more than the two W it keeps (a dense eigh of each block needs
    # about 4.4x, and a second n x n pivot array about 1.7x).  The peak is
    # VmHWM, the high-water mark of the interpreter's own memory: ru_maxrss
    # keeps the launching process's RSS across exec, and pytest's exceeds
    # the whole build.
    code = (
        "import spinloop.quantum as q\n"
        "def hwm():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(s.split()[1]) for s in fh if s.startswith('VmHWM'))\n"
        "q._ladder(500.0)\n"
        "before = hwm()\n"
        "blocks = q._jx_parity_blocks(500.0)\n"
        "print((hwm() - before) * 1024, sum(w.nbytes for _, w in blocks))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(quantum.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    grown, kept = map(int, proc.stdout.split())
    assert grown < 1.5 * kept, (grown, kept)


@pytest.mark.parametrize("j", [0.5, 10.0, 199.5, 500.0])
def test_sample_outcome_is_rng_choice(j):
    # the m0 draw inlines rng.choice(m_values, p=probs); a numpy release
    # that changes choice shows up here.  The 24 states form one batch, as
    # the runner's do, each with its own generator.
    dim = int(2 * j) + 1
    m = j - np.arange(dim)
    sigma = 3.0
    states = []
    for seed in range(24):
        rng = np.random.default_rng(seed)
        if seed % 2:
            state = scs_state(j, SphericalAngles(rng.uniform(0, math.pi), rng.uniform(-3, 3)))
        else:
            psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            state = QuantumSpinState(j, psi).normalized()
        states.append(state.amplitudes)
    got = sample_outcome(QuantumSpinState(j, np.stack(states)), sigma,
                         [np.random.default_rng(100 + seed) for seed in range(24)])
    for seed, psi in enumerate(states):
        probs = np.abs(psi) ** 2
        probs = probs / probs.sum()
        twin = np.random.default_rng(100 + seed)
        want = float(twin.choice(m, p=probs)) + sigma * twin.standard_normal()
        assert got[seed] == want


def test_sample_outcome_rejects_nan_probabilities():
    good = scs_state(10.0, SphericalAngles(1.0, 0.0)).amplitudes
    bad = np.full(21, math.nan, dtype=complex)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="NaN"):
        sample_outcome(QuantumSpinState(10.0, bad), 3.0, rng)
    with pytest.raises(ValueError, match="NaN"):
        sample_outcome(QuantumSpinState(10.0, np.stack((good, bad))), 3.0, [rng, rng])


@pytest.mark.parametrize("j", [10.0, 199.5])
def test_ensemble_rows_match_lone_trajectories(j):
    # shot i gives the same bytes alone as in any ensemble, at any row
    p = LmgParams(s=0.7, lambda_=1.3089969389957471e5)
    args = (j, SphericalAngles(0.4, 0.3), p, 3.0, 2e-6, 12)
    lone = [quantum_ensemble(*args, [shot_rng(5, i)]) for i in range(12)]
    for shots in ([0, 1, 2], [2, 1, 0], list(range(12))):
        bloch, meas = quantum_ensemble(*args, [shot_rng(5, i) for i in shots])
        for row, i in enumerate(shots):
            assert np.array_equal(bloch[row], lone[i][0][0])
            assert np.array_equal(meas[row], lone[i][1][0])


def test_ensemble_blocks_match_one_block(monkeypatch):
    # the runner advances QUANTUM_BLOCK trajectories at a time; the block
    # size does not change a byte
    p = LmgParams(s=0.7, lambda_=1.3089969389957471e5)
    args = (10.0, SphericalAngles(0.4, 0.3), p, 3.0, 2e-6, 12)
    whole = quantum_ensemble(*args, [shot_rng(5, i) for i in range(12)])
    monkeypatch.setattr(scenarios, "QUANTUM_BLOCK", 5)
    blocked = quantum_ensemble(*args, [shot_rng(5, i) for i in range(12)])
    for a, b in zip(whole, blocked):
        assert np.array_equal(a, b)


# an ensemble cut into one range per usable CPU (scenarios.fork_parts)
# gives the bytes of one process
def _split_at(monkeypatch, cpus):
    parts = []
    real = scenarios.fork_parts

    def fork_parts(n_parts, run):
        parts.append(n_parts)
        return real(n_parts, run)

    monkeypatch.setattr(scenarios, "fork_parts", fork_parts)
    monkeypatch.setattr(runio, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(scenarios, "QUANTUM_PART_MIN_WORK", 1)
    return parts


@pytest.mark.parametrize("j, shots", [(2.0, 63), (2.0, 64), (2.0, 65), (199.5, 3)])
@pytest.mark.parametrize("cpus", [2, 3])
def test_split_ensemble_matches_one_process(monkeypatch, j, shots, cpus):
    # 63 to 65 rows cross both the QUANTUM_BLOCK boundary and the part cuts
    p = LmgParams(s=0.7, lambda_=1.3089969389957471e5)
    args = (j, SphericalAngles(0.4, 0.3), p, 3.0, 2e-6, 4)
    monkeypatch.setattr(runio, "_usable_cpus", lambda: 1)
    whole = quantum_ensemble(*args, [shot_rng(5, i) for i in range(shots)])
    parts = _split_at(monkeypatch, cpus)
    rngs = [shot_rng(5, i) for i in range(shots)]
    split = quantum_ensemble(*args, rngs)
    assert parts == [cpus]
    for a, b in zip(whole, split):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    # the ranges drew from copies: rngs are where they started
    monkeypatch.setattr(runio, "_usable_cpus", lambda: 1)
    for a, b in zip(whole, quantum_ensemble(*args, rngs)):
        assert a.tobytes() == b.tobytes()
    with pytest.raises(ChildProcessError):  # every child reaped
        os.waitpid(-1, os.WNOHANG)


def test_tiny_or_one_shot_ensemble_stays_in_process(monkeypatch):
    p = LmgParams(s=0.7, lambda_=1.3089969389957471e5)
    args = (10.0, SphericalAngles(0.4, 0.3), p, 3.0, 2e-6, 12)
    monkeypatch.setattr(runio, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    # 3 shots * 12 steps * 21^2 is far below the break-even
    quantum_ensemble(*args, [shot_rng(5, i) for i in range(3)])
    monkeypatch.setattr(scenarios, "QUANTUM_PART_MIN_WORK", 1)
    quantum_ensemble(*args, [shot_rng(5, 0)])


class _Faulty:
    """A shot generator whose Gaussian draws are `value` from the given
    step on, where only the processes that `fails_in` accepts see it."""

    def __init__(self, rng, value, fails_in=lambda pid: True, step=2):
        self.rng, self.value, self.fails_in, self.left = rng, value, fails_in, step

    def random(self):
        return self.rng.random()

    def standard_normal(self):
        self.left -= 1
        draw = self.rng.standard_normal()
        return self.value if self.left < 0 and self.fails_in(os.getpid()) else draw


class _Stalls:
    """A shot generator that stalls for 30 s at its first draw in any
    process but the one that made it."""

    def __init__(self, rng):
        self.rng, self.parent, self.stalled = rng, os.getpid(), False

    def random(self):
        if os.getpid() != self.parent and not self.stalled:
            self.stalled = True
            time.sleep(30)
        return self.rng.random()

    def standard_normal(self):
        return self.rng.standard_normal()


# an outcome far out in the tails leaves no probability; a NaN outcome
# leaves a NaN state, refused at the next draw
UNDERFLOW = (FloatingPointError, "outcome probability underflow")
NAN = (ValueError, "probabilities contain NaN")


def _raised(fn):
    with pytest.raises(Exception) as err, np.errstate(invalid="ignore"):
        fn()
    return type(err.value), str(err.value)


@pytest.mark.parametrize("faults, want", [
    # row: (outcome, from step); rows 0-2 are this process's range, 3-5 the child's
    ({0: (1e6, 2)}, UNDERFLOW),
    ({0: (math.nan, 2)}, NAN),
    ({5: (1e6, 2)}, UNDERFLOW),
    ({5: (math.nan, 2)}, NAN),
    # one process meets row 4's underflow first, this process row 1's NaN
    ({1: (math.nan, 3), 4: (1e6, 2)}, UNDERFLOW),
], ids=["here-underflow", "here-nan", "child-underflow", "child-nan", "both"])
def test_split_failure_reads_as_one_process(monkeypatch, faults, want):
    p = LmgParams(s=0.7, lambda_=1.3089969389957471e5)
    args = (2.0, SphericalAngles(0.4, 0.3), p, 3.0, 2e-6, 6)

    def rngs():
        gens = [shot_rng(5, i) for i in range(6)]
        for row, (value, step) in faults.items():
            gens[row] = _Faulty(gens[row], value, step=step)
        if 0 in faults:  # this process fails while its child still runs
            gens[5] = _Stalls(gens[5])
        return gens

    monkeypatch.setattr(runio, "_usable_cpus", lambda: 1)
    assert _raised(lambda: quantum_ensemble(*args, rngs())) == want
    parts = _split_at(monkeypatch, 2)
    t0 = time.monotonic()
    assert _raised(lambda: quantum_ensemble(*args, rngs())) == want
    assert parts == [2]
    assert time.monotonic() - t0 < 15  # the stalled child was killed, not awaited
    with pytest.raises(ChildProcessError):  # no child left, running or not reaped
        os.waitpid(-1, os.WNOHANG)


def _fork_fails_after(monkeypatch, n):
    """os.fork raising EAGAIN, as at a process limit, from its call n + 1 on."""
    real, calls = os.fork, []

    def fork():
        calls.append(n)
        if len(calls) > n:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real()

    monkeypatch.setattr(os, "fork", fork)


# (usable CPUs, the fault): a fault only the child meets, or a fork that
# fails at once or after its first child started
@pytest.mark.parametrize("cpus, fault", [(2, "child"), (2, "fork"), (3, "second-fork")])
def test_failed_split_runs_again_in_one_process(monkeypatch, cpus, fault):
    # the ensemble runs again in this process, from generators no range
    # advanced, to the bytes of one process
    p = LmgParams(s=0.7, lambda_=1.3089969389957471e5)
    args = (2.0, SphericalAngles(0.4, 0.3), p, 3.0, 2e-6, 6)
    monkeypatch.setattr(runio, "_usable_cpus", lambda: 1)
    whole = quantum_ensemble(*args, [shot_rng(5, i) for i in range(6)])
    parent = os.getpid()
    rngs = [shot_rng(5, i) for i in range(6)]
    if fault == "child":
        rngs[4] = _Faulty(rngs[4], math.nan, fails_in=lambda pid: pid != parent)
    else:
        _fork_fails_after(monkeypatch, int(fault == "second-fork"))
    parts = _split_at(monkeypatch, cpus)
    with np.errstate(invalid="ignore"):  # the child's NaN state
        split = quantum_ensemble(*args, rngs)
    assert parts == [cpus]
    for a, b in zip(whole, split):
        assert a.tobytes() == b.tobytes()
    with pytest.raises(ChildProcessError):  # no child left, running or not reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("row", [0, 2])
def test_split_failure_is_one_cli_error(tmp_path, monkeypatch, capsys, row):
    # row 0 fails in this process while the child runs, row 2 in the child
    real_rng = scenarios.shot_rng
    monkeypatch.setattr(scenarios, "shot_rng", lambda seed, i: (
        _Faulty(real_rng(seed, i), 1e6) if i == row else real_rng(seed, i)))
    cfgp = _quantum_config(tmp_path, 10)
    errors = []
    for cpus in (1, 2):
        parts = _split_at(monkeypatch, cpus)
        out = tmp_path / f"o{cpus}"
        assert simulate_main(["quantum-qmf", "--config", str(cfgp), "--out", str(out)]) == 1
        assert parts == ([2] if cpus == 2 else [])
        assert not out.exists()
        stderr = capsys.readouterr().err
        assert stderr.count("\n") == 1
        errors.append(json.loads(stderr))
    assert errors[0] == errors[1] == {
        "error": "runtime", "message": "outcome probability underflow"}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
