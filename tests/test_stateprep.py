"""State-preparation checks: Ricker wavelet, brickwall ansatz algebra,
gradient consistency, optimizer behavior, checkpoint round-trips.

Independent oracles: scipy expm for the block generators, full-state
finite differences and analytic directional derivatives for gradients.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from qwave.sim import StateVector, apply_circuit
from qwave.stateprep import (
    BLOCK_PARAMS,
    BrickwallAnsatz,
    Checkpoint,
    GridSpec,
    OptimizerConfig,
    RickerParams,
    ansatz_to_circuit,
    block_unitary,
    build_ansatz,
    cost,
    cost_and_gradient,
    cost_directional_derivative,
    default_depth,
    infidelity,
    optimize,
    optimize_multistart,
    prepare_state,
    ricker_target,
    ricker_wavefield,
)

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _random_target(m: int, rng) -> StateVector:
    amps = rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m)
    return StateVector(amps / np.linalg.norm(amps))


# ------------------------------------------------------------------ grid, wavelet


def test_grid_spec_geometry():
    grid = GridSpec(4)
    assert grid.num_points == 16
    assert grid.spacing == pytest.approx(1 / 16)
    assert np.allclose(grid.positions(), np.arange(16) / 16)
    with pytest.raises(ValueError):
        GridSpec(0)


def test_ricker_peak_value():
    # at the center u = 0 the wavelet is 2 / (sqrt(3 sigma) pi^{1/4})
    grid = GridSpec(4)  # x = 8/16 hits the center exactly
    psi = ricker_wavefield(grid)
    peak = 2.0 / (math.sqrt(0.3) * math.pi ** 0.25)
    assert peak == pytest.approx(2.7427, abs=2e-4)
    assert psi[8] == pytest.approx(peak)
    assert np.argmax(psi) == 8


def test_ricker_is_symmetric_about_center():
    psi = ricker_wavefield(GridSpec(6))
    N = 64
    for d in range(1, 32):
        assert psi[N // 2 + d] == pytest.approx(psi[N // 2 - d], abs=1e-14)


def test_ricker_zero_crossings_and_side_lobes():
    # u = +-1, i.e. x = center +- width, are exact zeros; beyond them the
    # wavelet goes negative
    psi = ricker_wavefield(GridSpec(3), RickerParams(center=0.5, width=0.25))
    assert psi[2] == pytest.approx(0.0, abs=1e-15)  # x = 0.25
    assert psi[6] == pytest.approx(0.0, abs=1e-15)  # x = 0.75
    assert psi.min() < 0.0
    with pytest.raises(ValueError):
        RickerParams(width=0.0)


def test_ricker_target_layout():
    target = ricker_target(GridSpec(5))
    assert target.num_qubits == 6
    assert target.norm() == pytest.approx(1.0)
    assert np.allclose(target.amplitudes[32:], 0.0)  # velocity sector empty
    psi = ricker_wavefield(GridSpec(5))
    assert np.allclose(target.amplitudes[:32], psi / np.linalg.norm(psi))


# ----------------------------------------------------------------------- ansatz


def test_brickwall_layout():
    assert BrickwallAnsatz(3, 2).blocks == ((0, 1), (1, 2))
    assert BrickwallAnsatz(5, 3).blocks == ((0, 1), (2, 3), (1, 2), (3, 4), (0, 1), (2, 3))
    assert BrickwallAnsatz(7, 3).num_params == 9 * BLOCK_PARAMS
    assert default_depth(3) == 2
    assert default_depth(4) == 3
    assert default_depth(7) == 3
    assert default_depth(8) == 4
    assert build_ansatz(7).depth == 3
    with pytest.raises(ValueError):
        BrickwallAnsatz(1, 1)
    with pytest.raises(ValueError):
        BrickwallAnsatz(3, 0)


def test_block_unitary_against_matrix_exponentials():
    # block = (E3 x E4) W (E1 x E2) with E(a,b,c) = Rz(c) Ry(b) Rz(a),
    # Rz(t) = expm(-i t Z), Ry(t) = expm(-i t Y), W = expm(-i(a XX + b YY + c ZZ))
    rng = np.random.default_rng(0)

    def euler(a, b, c):
        return expm(-1j * c * _Z) @ expm(-1j * b * _Y) @ expm(-1j * a * _Z)

    for _ in range(5):
        p = rng.uniform(-3, 3, 15)
        w = expm(-1j * (p[6] * np.kron(_X, _X) + p[7] * np.kron(_Y, _Y) + p[8] * np.kron(_Z, _Z)))
        expected = (
            np.kron(euler(*p[9:12]), euler(*p[12:15]))
            @ w
            @ np.kron(euler(*p[0:3]), euler(*p[3:6]))
        )
        assert np.max(np.abs(block_unitary(p) - expected)) < 1e-12


def test_block_unitary_basics():
    rng = np.random.default_rng(1)
    p = rng.uniform(-3, 3, 15)
    u = block_unitary(p)
    assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12
    assert np.allclose(block_unitary(np.zeros(15)), np.eye(4))


def test_block_entangler_is_entangling():
    # generic angles give operator Schmidt rank > 1 across the wire split
    u = block_unitary(np.array([0.3] * 15))
    resh = u.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    svals = np.linalg.svd(resh, compute_uv=False)
    assert np.sum(svals > 1e-10) > 1


def test_circuit_lowering_matches_dense_blocks():
    rng = np.random.default_rng(2)
    for m in (2, 3, 4):
        ans = build_ansatz(m)
        theta = rng.uniform(-3, 3, ans.num_params)
        circ = ansatz_to_circuit(ans, theta)
        dense = prepare_state(ans, theta)
        lowered = apply_circuit(StateVector.zero(m), circ)
        assert np.max(np.abs(dense.amplitudes - lowered.amplitudes)) < 1e-12
        # every block lowers to exactly three ZZ rotations
        assert sum(1 for g in circ if g.kind == "RZZ") == 3 * len(ans.blocks)
        assert all(g.kind in ("RZZ", "RZ", "PHASEDX", "H") for g in circ)
        assert all(g.num_targets == 1 or g.kind == "RZZ" for g in circ)


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_prepare_state_matches_gate_circuit_at_every_depth(m, depth):
    # block sweeps and the gate-level circuit run through the same kernel but
    # different operators: 4x4 blocks on (q, q+1) against RZ/PhasedX/H/RZZ gates
    rng = np.random.default_rng(10 * m + depth)
    ans = BrickwallAnsatz(m, depth)
    target = _random_target(m, rng)
    for _ in range(3):
        theta = rng.uniform(-math.pi, math.pi, ans.num_params)
        via_circuit = apply_circuit(StateVector.zero(m), ansatz_to_circuit(ans, theta)).amplitudes
        assert np.max(np.abs(prepare_state(ans, theta).amplitudes - via_circuit)) < 1e-12
        value, _ = cost_and_gradient(ans, theta, target)
        assert value == pytest.approx(1.0 - np.vdot(target.amplitudes, via_circuit).real, abs=1e-12)


def test_prepare_state_basics():
    ans = build_ansatz(3)
    state = prepare_state(ans, np.zeros(ans.num_params))
    assert np.allclose(state.amplitudes, StateVector.zero(3).amplitudes)
    rng = np.random.default_rng(3)
    state = prepare_state(ans, rng.uniform(-2, 2, ans.num_params))
    assert state.norm() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        prepare_state(ans, np.zeros(ans.num_params + 1))


def test_single_block_prepares_any_two_qubit_state():
    rng = np.random.default_rng(4)
    ans = BrickwallAnsatz(2, 1)
    for seed in range(3):
        target = _random_target(2, rng)
        result = optimize(ans, target, OptimizerConfig(max_iters=2000, seed=seed))
        assert result.infidelity < 1e-9


# -------------------------------------------------------------- cost and gradient


def test_cost_and_infidelity_relation():
    # 1 - |<g|U|0>|^2 <= 2C - C^2 for C = 1 - Re <g|U|0>
    rng = np.random.default_rng(5)
    ans = build_ansatz(4)
    target = ricker_target(GridSpec(3))
    for _ in range(5):
        theta = rng.uniform(-3, 3, ans.num_params)
        c = cost(ans, theta, target)
        fid_gap = infidelity(ans, theta, target)
        assert 0.0 <= fid_gap <= 2.0 * c - c * c + 1e-12


def test_gradient_matches_analytic_directional_derivative():
    rng = np.random.default_rng(6)
    ans = build_ansatz(4)
    target = ricker_target(GridSpec(3))
    for _ in range(10):
        theta = rng.uniform(-3, 3, ans.num_params)
        c, grad = cost_and_gradient(ans, theta, target)
        assert c == pytest.approx(cost(ans, theta, target), abs=1e-12)
        direction = rng.normal(size=ans.num_params)
        exact = cost_directional_derivative(ans, theta, target, direction)
        assert grad @ direction == pytest.approx(exact, rel=1e-5, abs=1e-9)


def test_gradient_matches_full_state_differences():
    rng = np.random.default_rng(7)
    ans = build_ansatz(3)
    target = ricker_target(GridSpec(2))
    theta = rng.uniform(-3, 3, ans.num_params)
    h = 1e-6
    _, grad = cost_and_gradient(ans, theta, target, h=h)
    for j in range(0, ans.num_params, 7):
        e = np.zeros(ans.num_params)
        e[j] = h
        expected = (cost(ans, theta + e, target) - cost(ans, theta - e, target)) / (2 * h)
        assert grad[j] == pytest.approx(expected, abs=1e-9)
    with pytest.raises(ValueError):
        cost_and_gradient(ans, theta, target, h=0.0)


# -------------------------------------------------------------------- optimizer


def test_optimizer_is_deterministic():
    ans = build_ansatz(3)
    target = ricker_target(GridSpec(2))
    cfg = OptimizerConfig(max_iters=200, seed=11)
    r1 = optimize(ans, target, cfg)
    r2 = optimize(ans, target, cfg)
    assert np.array_equal(r1.params, r2.params)
    assert r1.history == r2.history
    assert r1.cost == r2.cost


def test_optimizer_history_and_convergence():
    ans = build_ansatz(3)
    target = ricker_target(GridSpec(2))
    result = optimize(ans, target, OptimizerConfig(max_iters=3000, seed=0))
    hist = np.array(result.history)
    assert hist.size >= 2
    assert np.all(np.diff(hist) <= 1e-15)  # best-so-far record never rises
    assert result.infidelity < 1e-10
    assert result.converged
    assert result.seed == 0
    assert result.cost == pytest.approx(cost(ans, result.params, target), abs=1e-12)


def test_optimizer_respects_iteration_budget():
    ans = build_ansatz(4)
    target = ricker_target(GridSpec(3))
    result = optimize(ans, target, OptimizerConfig(max_iters=3, seed=0))
    assert result.iterations <= 4


def test_optimizer_raises_on_non_finite_cost():
    ans = build_ansatz(2)
    bad = StateVector(np.array([math.nan, 0, 0, 0], dtype=complex), check=False)
    with pytest.raises(FloatingPointError):
        optimize(ans, bad, OptimizerConfig(max_iters=10, seed=0))


def test_multistart_returns_best_seed():
    ans = build_ansatz(3)
    target = ricker_target(GridSpec(2))
    cfg = OptimizerConfig(max_iters=40, seed=99)
    best = optimize_multistart(ans, target, cfg, seeds=(0, 1, 2))
    singles = [optimize(ans, target, OptimizerConfig(max_iters=40, seed=s)) for s in (0, 1, 2)]
    assert best.cost == min(r.cost for r in singles)
    assert best.seed in (0, 1, 2)
    with pytest.raises(ValueError):
        optimize_multistart(ans, target, cfg, seeds=())


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ValueError):
        OptimizerConfig(h=-1e-6)
    with pytest.raises(ValueError):
        OptimizerConfig(memory=0)


# ------------------------------------------------------------------- checkpoint


def test_checkpoint_round_trip(tmp_path):
    ans = build_ansatz(3)
    target = ricker_target(GridSpec(2))
    result = optimize(ans, target, OptimizerConfig(max_iters=500, seed=1))
    ckpt = Checkpoint.from_result(2, ans, result)
    path = tmp_path / "prep.json"
    ckpt.save(path)
    loaded = Checkpoint.load(path)
    assert loaded == ckpt
    assert loaded.params == tuple(float(x) for x in result.params)
    rebuilt = loaded.ansatz()
    assert rebuilt.num_qubits == 3 and rebuilt.depth == ans.depth
    state = prepare_state(rebuilt, np.array(loaded.params))
    assert 1 - abs(np.vdot(target.amplitudes, state.amplitudes)) ** 2 == pytest.approx(
        loaded.infidelity, abs=1e-12
    )
