"""State-preparation checks: Ricker wavelet, brickwall ansatz algebra,
gradient consistency, optimizer behavior, checkpoint round-trips.

Independent oracles: scipy expm for the block generators; for the exact
gradient, full-state finite differences and a directional derivative that
builds each block partial from dense np.kron products and prices it with a
full-state sweep (`block_unitary_partial`, `cost_directional_derivative`).
The batched block builder and sweeps are also held bit for bit to the stacked
form in `oracles` (same products, other containers), because the BFGS path
of training moves with the last bits of the gradient.  The BFGS helper is
held to scipy's L-BFGS-B minimizer and to A^-1 b on SPD quadratics, and its
update to the secant equation on random SPD matrices.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import cost, stacked_blocks, stacked_cost_and_gradient
from scipy.linalg import expm
from scipy.optimize import minimize, rosen, rosen_der

from qwave.sim import StateVector, _apply_gate_array, apply_circuit
from qwave.stateprep import (
    BLOCK_PARAMS,
    BrickwallAnsatz,
    Checkpoint,
    GridSpec,
    OptimizerConfig,
    RickerParams,
    _ITERATION_LIMIT,
    _blocks,
    _check_target,
    _forward_states,
    _bfgs,
    _bfgs_update,
    _validated_theta,
    ansatz_to_circuit,
    build_ansatz,
    cost_and_gradient,
    infidelity,
    optimize,
    prepare_state,
    ricker_target,
    ricker_wavefield,
)

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_XX, _YY, _ZZ = np.kron(_X, _X), np.kron(_Y, _Y), np.kron(_Z, _Z)


def _random_target(m: int, rng) -> StateVector:
    amps = rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m)
    return StateVector(amps / np.linalg.norm(amps))


# ------------------------------------------------- gradient oracle (dense np.kron)


def _rz_matrix(theta: float) -> np.ndarray:
    return np.diag([np.exp(-1j * theta), np.exp(1j * theta)])


def _ry_matrix(beta: float) -> np.ndarray:
    c, s = math.cos(beta), math.sin(beta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _euler_zyz(a: float, b: float, c: float) -> np.ndarray:
    """Rz(c) Ry(b) Rz(a) with full-angle rotations; covers SU(2) up to phase."""
    return _rz_matrix(c) @ _ry_matrix(b) @ _rz_matrix(a)


def _entangler(a: float, b: float, c: float) -> np.ndarray:
    return expm(-1j * (a * _XX + b * _YY + c * _ZZ))


def _euler_zyz_partial(a: float, b: float, c: float, which: int) -> np.ndarray:
    """d/dtheta of Rz(c) Ry(b) Rz(a) by generator insertion (which = 0 for a, ...)."""
    if which == 0:
        return _euler_zyz(a, b, c) @ (-1j * _Z)
    if which == 1:
        return _rz_matrix(c) @ _ry_matrix(b) @ (-1j * _Y) @ _rz_matrix(a)
    return (-1j * _Z) @ _euler_zyz(a, b, c)


def block_unitary(params: np.ndarray) -> np.ndarray:
    """The library's 4x4 of one block with 15 angles, from the batched `_blocks`."""
    return _blocks(np.asarray(params, dtype=float)[None])[0][0]


def block_unitary_partial(params: np.ndarray, index: int) -> np.ndarray:
    """Analytic dU/dtheta_index of the 4x4 block (generator insertion, no differencing)."""
    p = np.asarray(params, dtype=float)
    pre_a, pre_b = _euler_zyz(*p[0:3]), _euler_zyz(*p[3:6])
    post_a, post_b = _euler_zyz(*p[9:12]), _euler_zyz(*p[12:15])
    w = _entangler(*p[6:9])
    if index < 3:
        pre = np.kron(_euler_zyz_partial(*p[0:3], which=index), pre_b)
        return np.kron(post_a, post_b) @ w @ pre
    if index < 6:
        pre = np.kron(pre_a, _euler_zyz_partial(*p[3:6], which=index - 3))
        return np.kron(post_a, post_b) @ w @ pre
    if index < 9:
        gen = (_XX, _YY, _ZZ)[index - 6]
        return np.kron(post_a, post_b) @ (-1j * gen) @ w @ np.kron(pre_a, pre_b)
    if index < 12:
        post = np.kron(_euler_zyz_partial(*p[9:12], which=index - 9), post_b)
    else:
        post = np.kron(post_a, _euler_zyz_partial(*p[12:15], which=index - 12))
    return post @ w @ np.kron(pre_a, pre_b)


def cost_directional_derivative(
    ansatz: BrickwallAnsatz, theta: np.ndarray, target: StateVector, direction: np.ndarray
) -> float:
    """Analytic d/ds C(theta + s v)|_{s=0} by inserting each angle's generator."""
    _check_target(ansatz, target)
    theta = _validated_theta(ansatz, theta)
    v = np.asarray(direction, dtype=float)
    if v.shape != theta.shape:
        raise ValueError("direction must match the parameter vector")
    per_block = theta.reshape(-1, BLOCK_PARAMS)
    v_block = v.reshape(-1, BLOCK_PARAMS)
    blocks_u, _ = _blocks(per_block)
    forwards = _forward_states(ansatz, blocks_u)
    total = 0.0
    back = target.amplitudes
    for i in range(len(blocks_u) - 1, -1, -1):
        pair = ansatz.blocks[i]
        du = np.zeros((4, 4), dtype=complex)
        for j in range(BLOCK_PARAMS):
            if v_block[i, j] != 0.0:
                du = du + v_block[i, j] * block_unitary_partial(per_block[i], j)
        if du.any():
            total += -np.vdot(back, _apply_gate_array(forwards[i], du, pair, ansatz.num_qubits)).real
        back = _apply_gate_array(back, blocks_u[i].conj().T, pair, ansatz.num_qubits)
    return float(total)


# ------------------------------------------------------------------ grid, wavelet


def test_grid_spec_geometry():
    grid = GridSpec(4)
    assert grid.num_points == 16
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
    assert build_ansatz(3).depth == 2
    assert build_ansatz(4).depth == 3
    assert build_ansatz(7).depth == 3
    assert build_ansatz(8).depth == 4
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
        assert grad @ direction == pytest.approx(exact, abs=1e-12)


def test_gradient_matches_full_state_differences():
    rng = np.random.default_rng(7)
    ans = build_ansatz(3)
    target = ricker_target(GridSpec(2))
    theta = rng.uniform(-3, 3, ans.num_params)
    h = 1e-6
    _, grad = cost_and_gradient(ans, theta, target)
    for j in range(0, ans.num_params, 7):
        e = np.zeros(ans.num_params)
        e[j] = h
        expected = (cost(ans, theta + e, target) - cost(ans, theta - e, target)) / (2 * h)
        assert grad[j] == pytest.approx(expected, abs=1e-9)


@settings(max_examples=25, deadline=None, database=None)
@given(st.integers(2, 5), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_gradient_matches_oracle_on_random_ansatze(m, depth, seed):
    # every component against the oracle's derivative along that axis
    rng = np.random.default_rng(seed)
    ans = BrickwallAnsatz(m, depth)
    target = _random_target(m, rng)
    theta = rng.uniform(-math.pi, math.pi, ans.num_params)
    value, grad = cost_and_gradient(ans, theta, target)
    assert value == pytest.approx(cost(ans, theta, target), abs=1e-12)
    axes = np.eye(ans.num_params)
    exact = [cost_directional_derivative(ans, theta, target, axes[j]) for j in range(ans.num_params)]
    assert np.max(np.abs(grad - exact)) <= 1e-12


@pytest.mark.parametrize("n", range(1, 8))
def test_blocks_and_gradient_are_bit_identical_to_the_stacked_oracle(n):
    ans = build_ansatz(n + 1)
    targets = (ricker_target(GridSpec(n)), _random_target(n + 1, np.random.default_rng(n)))
    for scale in (1e-3, 1.0, 10.0):
        for seed in range(10):
            theta = np.random.default_rng(seed).uniform(-scale, scale, ans.num_params)
            per_block = theta.reshape(-1, BLOCK_PARAMS)
            u, partials = _blocks(per_block)
            u_ref, partials_ref = stacked_blocks(per_block)
            assert np.array_equal(u, u_ref) and np.array_equal(partials, partials_ref)
            value, grad = cost_and_gradient(ans, theta, targets[seed % 2])
            value_ref, grad_ref = stacked_cost_and_gradient(ans, theta, targets[seed % 2])
            assert value == value_ref and np.array_equal(grad, grad_ref)


@pytest.mark.parametrize("m, depth", [(2, 1), (3, 2), (5, 3), (5, 5), (6, 5), (8, 1), (8, 4)])
def test_blocks_and_gradient_match_the_stacked_oracle_at_any_shape(m, depth):
    # a single block, odd registers, depth 5 and m = 8: the grouped products see each block's operands
    # side by side or stacked, whatever the number of blocks
    ans = BrickwallAnsatz(m, depth)
    target = _random_target(m, np.random.default_rng(m + 10 * depth))
    for scale in (1e-3, 1.0, 10.0):
        for seed in range(3):
            theta = np.random.default_rng(seed).uniform(-scale, scale, ans.num_params)
            per_block = theta.reshape(-1, BLOCK_PARAMS)
            u, partials = _blocks(per_block)
            u_ref, partials_ref = stacked_blocks(per_block)
            assert np.array_equal(u, u_ref) and np.array_equal(partials, partials_ref)
            value, grad = cost_and_gradient(ans, theta, target)
            value_ref, grad_ref = stacked_cost_and_gradient(ans, theta, target)
            assert value == value_ref and np.array_equal(grad, grad_ref)


# -------------------------------------------------------------------- optimizer


def test_training_follows_the_stacked_oracle_path_bit_for_bit(monkeypatch):
    import qwave.stateprep as stateprep

    ans = build_ansatz(4)
    target = ricker_target(GridSpec(3))
    result = optimize(ans, target, OptimizerConfig(seed=0))
    monkeypatch.setattr(stateprep, "cost_and_gradient", stacked_cost_and_gradient)
    reference = optimize(ans, target, OptimizerConfig(seed=0))
    assert result.iterations == reference.iterations
    assert result.history == reference.history
    assert np.array_equal(result.params, reference.params)
    assert (result.message, result.grad_norm) == (reference.message, reference.grad_norm)


def test_training_at_n5_seed0_keeps_its_path(monkeypatch):
    """Training's complex 4x4 blocks never take the dense kernel's real branch, which is H's on vec(rho)."""
    import qwave.stateprep as stateprep

    calls = []

    def counted(*args):
        calls.append(None)
        return cost_and_gradient(*args)

    monkeypatch.setattr(stateprep, "cost_and_gradient", counted)
    result = optimize(build_ansatz(6), ricker_target(GridSpec(5)), OptimizerConfig(seed=0))
    assert (result.iterations, len(calls)) == (607, 655)


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
    assert not result.converged
    assert "ITERATIONS REACHED LIMIT" in result.message.upper()


def test_optimizer_reports_the_gradient_norm_at_the_best_point():
    ans = build_ansatz(3)
    target = ricker_target(GridSpec(2))
    result = optimize(ans, target, OptimizerConfig(max_iters=20, seed=0))
    _, grad = cost_and_gradient(ans, result.params, target)
    assert result.grad_norm == np.linalg.norm(grad)


def test_optimizer_prices_the_start_point_once(monkeypatch):
    # the history's first entry comes from the optimizer's own first call, not a pre-call
    import qwave.stateprep as stateprep

    points = []
    exact = stateprep.cost_and_gradient

    def recording(ansatz, theta, target):
        points.append(np.array(theta, copy=True))
        return exact(ansatz, theta, target)

    monkeypatch.setattr(stateprep, "cost_and_gradient", recording)
    ans = build_ansatz(3)
    target = ricker_target(GridSpec(2))
    result = optimize(ans, target, OptimizerConfig(max_iters=5, seed=0))
    theta_init = np.random.default_rng(0).random(ans.num_params)
    assert np.array_equal(points[0], theta_init)
    assert not np.array_equal(points[0], points[1])
    assert result.history[0] == exact(ans, theta_init, target)[0]


def test_optimizer_raises_on_non_finite_cost():
    ans = build_ansatz(2)
    bad = StateVector(np.array([math.nan, 0, 0, 0], dtype=complex))
    with pytest.raises(FloatingPointError):
        optimize(ans, bad, OptimizerConfig(max_iters=10, seed=0))


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)


def test_optimizer_raises_when_the_cost_turns_nan_in_a_line_search(monkeypatch):
    # every call after the first prices a line-search trial
    import qwave.stateprep as stateprep

    calls = []
    exact = stateprep.cost_and_gradient

    def turning_nan(ansatz, theta, target):
        calls.append(1)
        value, grad = exact(ansatz, theta, target)
        return (math.nan if len(calls) > 4 else value), grad

    monkeypatch.setattr(stateprep, "cost_and_gradient", turning_nan)
    with pytest.raises(FloatingPointError):
        optimize(build_ansatz(3), ricker_target(GridSpec(2)), OptimizerConfig(max_iters=100, seed=0))
    assert len(calls) == 5


# ------------------------------------------------------ BFGS against L-BFGS-B


def _quadratic(a: np.ndarray, b: np.ndarray):
    """1/2 x.A.x - b.x and its gradient."""
    return lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b)


# the L-BFGS-B settings training used before it had its own optimizer
_LBFGSB_OPTIONS = {"maxiter": 5000, "maxcor": 10, "ftol": 1e-12, "gtol": 1e-12}


def _scipy_minimizer(fun, x0: np.ndarray) -> np.ndarray:
    return minimize(fun, x0, jac=True, method="L-BFGS-B", options=_LBFGSB_OPTIONS).x


_SPD = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, -0.2], [0.5, -0.2, 0.7]])


@pytest.mark.parametrize(
    "fun, x0",
    [
        (lambda x: (rosen(x), rosen_der(x)), np.array([1.3, 0.7, 0.8, 1.9, 1.2, 0.9])),
        (_quadratic(_SPD, np.array([1.0, -2.0, 0.5])), np.zeros(3)),
    ],
    ids=["rosenbrock-6d", "spd-quadratic"],
)
def test_bfgs_reaches_the_scipy_minimizer(fun, x0):
    x, iterations, message = _bfgs(fun, x0, 5000, lambda value: None)
    assert message.startswith("CONVERGENCE") and 0 < iterations < 5000
    assert np.max(np.abs(x - _scipy_minimizer(fun, x0))) <= 1e-6


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
# at the optimum already, 1 ULP below f(A^-1 b), with every later trial 0-8 ULPs above it
@example(dim=2, budget=1, seed=97072774)
@example(dim=2, budget=1, seed=2610708130)
# a 10-pair L-BFGS stopped by relative reduction 2.36e-10 and 1.59e-8 above f(A^-1 b)
@example(dim=7, budget=5, seed=2089940663)
@example(dim=6, budget=1, seed=575480498)
def test_bfgs_on_random_spd_quadratics(dim, budget, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    a = q @ np.diag(10.0 ** rng.uniform(-1.0, 1.0, dim)) @ q.T  # condition number below 100
    b, x0 = rng.standard_normal(dim), rng.standard_normal(dim)
    fun = _quadratic(a, b)
    values = [fun(x0)[0]]
    _, iterations, message = _bfgs(fun, x0, 1000, values.append)
    assert message.startswith("CONVERGENCE")
    # f(x) - f(A^-1 b) is half the squared A-norm distance to A^-1 b; the
    # relative-reduction stop (1e-12, as in L-BFGS-B) leaves it near 1e-11
    optimum = fun(np.linalg.solve(a, b))[0]
    assert values[-1] - optimum <= 1e-10 * max(1.0, abs(optimum))
    assert np.all(np.diff(values) <= 0.0)
    limited = [values[0]]
    _, limited_iterations, limited_message = _bfgs(fun, x0, budget, limited.append)
    assert limited_iterations <= budget + 1
    if iterations >= budget:  # the budget binds: the same path, cut at it
        assert (limited_iterations, limited_message) == (budget, _ITERATION_LIMIT)
        assert limited == values[: budget + 1]


def test_bfgs_stops_abnormally_on_a_gradient_of_the_wrong_sign():
    # every trial along -g climbs far beyond the relative-reduction tolerance
    fun, x0 = (lambda x: (x @ x, -2.0 * x)), np.array([1.0, -2.0, 0.5])
    _, iterations, message = _bfgs(fun, x0, 5000, lambda value: None)
    assert (iterations, message) == (0, "ABNORMAL: ")
    scipy_result = minimize(fun, x0, jac=True, method="L-BFGS-B", options=_LBFGSB_OPTIONS)
    assert scipy_result.nit == 0 and scipy_result.message.startswith("ABNORMAL")


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
@example(dim=200, seed=0)  # row bands of 163: two, the last one short
@example(dim=1000, seed=0)  # row bands of 32: 32, the last one short
def test_bfgs_update_keeps_h_symmetric_positive_definite_and_meets_the_secant_equation(dim, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    h = q @ np.diag(10.0 ** rng.uniform(-2.0, 2.0, dim)) @ q.T
    h = (h + h.T) / 2.0
    s, y = rng.standard_normal(dim), rng.standard_normal(dim)
    if s @ y < 0.0:
        y = -y
    assume(s @ y > 1e-3 * np.linalg.norm(s) * np.linalg.norm(y))
    _bfgs_update(h, s, y)
    scale = np.max(np.abs(h))
    assert np.max(np.abs(h - h.T)) <= 1e-12 * scale
    assert np.linalg.norm(h @ y - s) <= 1e-9 * (np.linalg.norm(s) + scale * np.linalg.norm(y))
    assert np.min(np.linalg.eigvalsh((h + h.T) / 2.0)) > 0.0


@pytest.mark.parametrize("dim", [1, 2, 120, 181, 182, 400])
def test_bfgs_update_adds_both_outer_products_bit_for_bit(dim):
    # up to dim 181 H is one band, and v s^T is added as the transpose of s v^T; from 182 on, bands
    rng = np.random.default_rng(dim)
    h = rng.standard_normal((dim, dim))
    h, s, y = h + h.T, rng.standard_normal(dim), rng.standard_normal(dim)
    want = h.copy()
    r, hy = 1.0 / (s @ y), want @ y
    v = (0.5 * r * (r * (y @ hy) + 1.0)) * s - r * hy
    want += s[:, None] * v
    want += v[:, None] * s
    _bfgs_update(h, s, y)
    assert np.array_equal(h, want)


def test_bfgs_holds_one_inverse_hessian_and_no_full_size_temporary():
    dim = 1000  # H is 8 MB; a second full-size array would double the peak
    fun = _quadratic(np.diag(np.linspace(1.0, 10.0, dim)), np.ones(dim))
    x0 = np.zeros(dim)
    tracemalloc.start()
    try:
        _bfgs(fun, x0, 5, lambda value: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * dim * dim <= peak <= 1.1 * 8 * dim * dim


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
