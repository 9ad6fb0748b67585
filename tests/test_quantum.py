import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from spinloop.cli import simulate_main
from spinloop.loop_sim import shot_rng
from spinloop.models import LmgParams
from spinloop.quantum import (
    QuantumSpinState,
    _axis_rotation,
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
from spinloop.scenarios import quantum_trajectory
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


@pytest.mark.parametrize("j", [0.5, 7.5, 50.0])
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
        bloch, meas = quantum_trajectory(10.0, SphericalAngles(0.4, 0.0), p, 3.0,
                                         2e-6, 12, shot_rng(41, i))
        assert np.array_equal(np.column_stack((rec.x, rec.y, rec.z)), bloch)
        assert np.array_equal(rec.meas[:-1], meas)


def test_quantum_j_above_cap_is_a_json_error(tmp_path, capsys):
    assert simulate_main(["quantum-qmf", "--config", str(_quantum_config(tmp_path, 600)),
                          "--out", str(tmp_path / "o")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "runtime"
    assert "cap 500" in err["message"]
