"""Simulator engine checks: gate conventions, circuit algebra, noise channel, sampling.

Expected values are either closed-form matrices written out explicitly or
recomputed through an independent dense-kron oracle in this file.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import density, interleaved_outer, pure_density, purity, unitary, validated
from qwave import sim
from qwave.sim import (
    Circuit,
    DensityMatrix,
    Gate,
    NoiseModel,
    StateVector,
    apply_circuit,
    apply_circuit_noisy,
    cphase,
    depolarize_pair,
    diagonal_injector,
    hadamard,
    phased_x,
    rz,
    rzz,
    sample_bitstrings,
    state_infidelity,
)
from qwave.sim import _apply_dense, _apply_gate_array

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _embed(u: np.ndarray, targets, m: int) -> np.ndarray:
    """Independent dense embedding of a k-qubit matrix (qubit 0 = MSB)."""
    dim = 2 ** m
    spectators = [q for q in range(m) if q not in targets]
    full = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        ib = [(i >> (m - 1 - q)) & 1 for q in range(m)]
        for j in range(dim):
            jb = [(j >> (m - 1 - q)) & 1 for q in range(m)]
            if any(ib[q] != jb[q] for q in spectators):
                continue
            r = c = 0
            for q in targets:
                r = (r << 1) | ib[q]
                c = (c << 1) | jb[q]
            full[i, j] = u[r, c]
    return full


def _random_state(m: int, rng) -> StateVector:
    amps = rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m)
    return StateVector(amps / np.linalg.norm(amps))


def _random_density(m: int, rng, rank: int = 3) -> DensityMatrix:
    a = rng.normal(size=(2 ** m, rank)) + 1j * rng.normal(size=(2 ** m, rank))
    rho = a @ a.conj().T
    return density(rho / np.trace(rho).real)


# ---------------------------------------------------------------- gate matrices


def test_gate_matrices_match_closed_forms():
    theta, phi = 0.731, -1.234
    lo, hi = np.exp(-1j * theta), np.exp(1j * theta)
    s = 1.0 / math.sqrt(2.0)

    assert np.allclose(hadamard(0).matrix(), np.array([[s, s], [s, -s]]))
    assert np.allclose(rz(theta, 0).matrix(), np.diag([lo, hi]))
    assert np.allclose(rzz(theta, 0, 1).matrix(), np.diag([lo, hi, hi, lo]))
    assert np.allclose(cphase(theta, 0, 1).matrix(), np.diag([1, 1, 1, np.exp(1j * theta)]))

    # PhasedX(theta, phi) = RZ(phi) RX(theta) RZ(-phi) with RX(theta) = exp(-i theta X)
    rx = math.cos(theta) * _I2 - 1j * math.sin(theta) * _X
    expected = rz(phi, 0).matrix() @ rx @ rz(-phi, 0).matrix()
    assert np.allclose(phased_x(theta, phi, 0).matrix(), expected)

    # phi = pi/4 turns PhasedX into the real rotation RY(theta) = exp(-i theta Y)
    ry = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    assert np.allclose(phased_x(theta, math.pi / 4, 0).matrix(), ry)


def test_gate_daggers_are_conjugate_transposes():
    rng = np.random.default_rng(0)
    vals = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
    gates = [
        hadamard(0),
        rz(0.3, 0),
        phased_x(0.9, -0.4, 0),
        rzz(1.2, 0, 1),
        cphase(0.7, 1, 0),
        diagonal_injector(vals, (0, 1, 2)),
    ]
    for gate in gates:
        assert np.allclose(gate.dagger().matrix(), gate.matrix().conj().T)


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("RZ", (0, 1), (0.1,))  # wrong target count
    with pytest.raises(ValueError):
        Gate("RZZ", (2, 2), (0.1,))  # duplicate targets
    with pytest.raises(ValueError):
        Gate("PHASEDX", (0,), (0.1,))  # missing angle
    with pytest.raises(ValueError):
        Gate("NOPE", (0,))
    with pytest.raises(ValueError):
        diagonal_injector([1.0, 0.5], (0,))  # not unit modulus
    with pytest.raises(ValueError):
        diagonal_injector([1.0, 1.0, 1.0], (0,))  # wrong length


# ---------------------------------------------------------- state application


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_apply_gate_matches_dense_embedding(m):
    rng = np.random.default_rng(100 + m)
    gates = [rz(0.37, m - 1), phased_x(1.1, 0.2, 0), hadamard(m // 2)]
    if m >= 2:
        gates += [rzz(0.81, 0, m - 1), cphase(2.2, m - 1, 0)]
        gates += [diagonal_injector(np.exp(1j * rng.uniform(0, 6, 4)), (m - 1, 0))]
    for gate in gates:
        state = _random_state(m, rng)
        out = apply_circuit(state, Circuit(m, [gate]))
        expected = _embed(gate.matrix(), gate.targets, m) @ state.amplitudes
        assert np.allclose(out.amplitudes, expected, atol=1e-13)


def test_target_order_is_significant():
    # first listed target supplies the more significant matrix bit
    state = StateVector(np.array([0, 0, 1, 0], dtype=complex))  # |10>
    out_01 = apply_circuit(state, Circuit(2, [cphase(1.0, 0, 1)])).amplitudes
    out_10 = apply_circuit(state, Circuit(2, [cphase(1.0, 1, 0)])).amplitudes
    assert np.allclose(out_01, state.amplitudes)  # |10> is not |11>
    assert np.allclose(out_10, state.amplitudes)  # diagonal symmetric here
    plus_11 = StateVector(np.array([0, 0, 0, 1], dtype=complex))
    assert np.allclose(
        apply_circuit(plus_11, Circuit(2, [cphase(1.0, 0, 1)])).amplitudes, np.exp(1j) * plus_11.amplitudes
    )


@pytest.mark.parametrize("m", [2, 3, 4])
def test_apply_circuit_matches_dense_product(m):
    rng = np.random.default_rng(200 + m)
    circ = Circuit(m)
    dense = np.eye(2 ** m, dtype=complex)
    for _ in range(12):
        q = int(rng.integers(m))
        r = int(rng.integers(m - 1))
        r = r if r != q else m - 1
        gate = [
            rz(rng.uniform(-3, 3), q),
            phased_x(rng.uniform(-3, 3), rng.uniform(-3, 3), q),
            hadamard(q),
            rzz(rng.uniform(-3, 3), q, r),
            cphase(rng.uniform(-3, 3), q, r),
        ][int(rng.integers(5))]
        circ.append(gate)
        dense = _embed(gate.matrix(), gate.targets, m) @ dense
    state = _random_state(m, rng)
    out = apply_circuit(state, circ)
    assert np.allclose(out.amplitudes, dense @ state.amplitudes, atol=1e-12)
    assert np.allclose(unitary(circ), dense, atol=1e-12)


def test_dense_kernel_needs_consecutive_ascending_targets():
    amps = StateVector.zero(3).amplitudes
    u4 = np.kron(hadamard(0).matrix(), hadamard(0).matrix())
    for targets in ((0, 2), (1, 0)):
        with pytest.raises(ValueError):
            _apply_gate_array(amps, u4, targets, 3)
    with pytest.raises(ValueError):
        _apply_gate_array(amps, hadamard(0).matrix(), (3,), 3)


def _random_complex(rng, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("dim", [2, 4])
def test_in_place_dense_kernel_spans_slabs_on_both_branches(dim):
    m = 18  # 2^18 entries, four slabs; rest >= 16 takes the matmul branch, rest <= 8 the short-row gemm
    rng = np.random.default_rng(dim)
    u, amps = _random_complex(rng, (dim, dim)), _random_complex(rng, 2 ** m)
    for q in range(m - dim // 2 + 1):
        got = amps.copy()
        assert _apply_dense(got, u, q, in_place=True) is got
        assert np.array_equal(got, _apply_dense(amps, u, q)), q


@st.composite
def _dense_kernel_cases(draw, dims=(2, 4)):
    """A register of 1-14 qubits, a dense gate of dim 2 or 4 on its wires q.., and a slab of 2^6-2^16 entries."""
    dim = draw(st.sampled_from(dims))
    m = draw(st.integers(dim // 2, 14))
    return m, draw(st.integers(0, m - dim // 2)), dim, 2 ** draw(st.integers(6, 16))


@settings(max_examples=200, deadline=None, database=None)
@given(_dense_kernel_cases(), st.integers(0, 2 ** 32 - 1))
def test_in_place_dense_kernel_is_bit_identical_to_the_out_of_place_one(case, seed):
    m, q, dim, slab = case
    rng = np.random.default_rng(seed)
    u, amps = _random_complex(rng, (dim, dim)), _random_complex(rng, 2 ** m)
    got = amps.copy()
    with mock.patch.object(sim, "_SLAB", slab):
        _apply_dense(got, u, q, in_place=True)
    assert np.array_equal(got, _apply_dense(amps, u, q))


@settings(max_examples=200, deadline=None, database=None)
@given(_dense_kernel_cases(dims=(4,)), st.booleans(), st.integers(0, 2 ** 32 - 1))
@example((2, 0, 4, 64), True, 0)  # one wire of vec(rho): rest = 1, the short-row gemm
@example((4, 0, 4, 64), True, 0)  # two wires: rest = 4 (q = 0) and rest = 1 (q = 2) stay complex
@example((4, 2, 4, 64), True, 0)
def test_real_h_on_vec_gives_the_bits_of_the_complex_product(case, in_place, seed):
    m, q, _, slab = case
    h = hadamard(0).matrix()
    assert sim._H_VEC.dtype == np.float64 and np.array_equal(sim._H_VEC, np.kron(h, h.conj()))
    amps = _random_complex(np.random.default_rng(seed), 2 ** m)
    got, want = amps.copy(), amps.copy()
    with mock.patch.object(sim, "_SLAB", slab):
        got = _apply_dense(got, sim._H_VEC, q, in_place=in_place)
        want = _apply_dense(want, np.kron(h, h.conj()), q, in_place=in_place)
    assert np.array_equal(got, want)


# ------------------------------------------------------- kernel property tests


@st.composite
def _gate_lists(draw, max_qubits: int = 4, max_gates: int = 8):
    """A register size and gates of every kind; multi-qubit targets unsorted and non-adjacent."""
    m = draw(st.integers(1, max_qubits))
    angle = st.floats(-math.pi, math.pi, allow_nan=False)
    kinds = ["H", "RZ", "PHASEDX", "DIAG"] + (["RZZ", "CPHASE"] if m >= 2 else [])
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(kinds))
        wires = draw(st.permutations(range(m)))
        if kind == "H":
            gates.append(hadamard(wires[0]))
        elif kind == "RZ":
            gates.append(rz(draw(angle), wires[0]))
        elif kind == "PHASEDX":
            gates.append(phased_x(draw(angle), draw(angle), wires[0]))
        elif kind == "RZZ":
            gates.append(rzz(draw(angle), wires[0], wires[1]))
        elif kind == "CPHASE":
            gates.append(cphase(draw(angle), wires[0], wires[1]))
        else:
            k = draw(st.integers(1, m))
            phases = draw(st.lists(angle, min_size=2 ** k, max_size=2 ** k))
            gates.append(diagonal_injector(np.exp(1j * np.array(phases)), wires[:k]))
    return m, gates


_PROPERTY = settings(max_examples=60, deadline=None, database=None)


@_PROPERTY
@given(_gate_lists(), st.integers(0, 2 ** 32 - 1))
def test_statevector_kernel_matches_dense_product(case, seed):
    m, gates = case
    state = _random_state(m, np.random.default_rng(seed))
    before = state.amplitudes.copy()
    dense = np.eye(2 ** m, dtype=complex)
    for gate in gates:
        dense = _embed(gate.matrix(), gate.targets, m) @ dense
    circ = Circuit(m, gates)
    out = apply_circuit(state, circ)
    assert np.max(np.abs(out.amplitudes - dense @ before)) < 1e-12
    assert np.max(np.abs(unitary(circ) - dense)) < 1e-12
    assert np.array_equal(state.amplitudes, before)


@_PROPERTY
@given(_gate_lists(), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0))
def test_density_kernel_matches_conjugation_and_pauli_sum(case, seed, p):
    m, gates = case
    rho = _random_density(m, np.random.default_rng(seed))
    before = rho.entries.copy()
    out = apply_circuit_noisy(rho, Circuit(m, gates), NoiseModel(p)).entries
    want = before
    for gate in gates:
        op = _embed(gate.matrix(), gate.targets, m)
        want = op @ want @ op.conj().T
        if gate.num_targets == 2:
            want = _brute_force_depolarize(want, gate.targets[0], gate.targets[1], p, m)
    assert np.max(np.abs(out - want)) < 1e-12
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert np.max(np.abs(out - out.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(out).min() > -1e-12
    assert np.array_equal(rho.entries, before)


@_PROPERTY
@given(st.integers(2, 4).flatmap(lambda m: st.tuples(st.just(m), st.permutations(range(m)))),
       st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0))
def test_depolarize_pair_leaves_its_argument_unchanged(case, seed, p):
    m, wires = case
    rho = _random_density(m, np.random.default_rng(seed)).entries
    before = rho.copy()
    out = depolarize_pair(rho, wires[0], wires[1], p)
    assert np.array_equal(rho, before)
    assert np.max(np.abs(out - _brute_force_depolarize(before, wires[0], wires[1], p, m))) < 1e-13


# ------------------------------------------------------------- circuit algebra


def test_global_phase_enters_unitary():
    circ = Circuit(1, [rz(0.4, 0)], global_phase=0.9)
    assert np.allclose(unitary(circ), np.exp(0.9j) * rz(0.4, 0).matrix())


def test_append_after_permutation_acts_on_relabeled_wires():
    rng = np.random.default_rng(3)

    def base() -> Circuit:
        c = Circuit(3, [hadamard(0), rzz(0.7, 0, 2)])
        c._set_permutation([2, 0, 1])
        return c

    circ, before = base(), base()
    gate = phased_x(0.5, 1.1, 2)
    circ.append(gate)
    state = _random_state(3, rng)
    step = apply_circuit(apply_circuit(state, before), Circuit(3, [gate]))
    assert np.allclose(apply_circuit(state, circ).amplitudes, step.amplitudes, atol=1e-13)


def test_extend_with_wire_map_matches_embedding():
    rng = np.random.default_rng(4)
    sub = Circuit(2, [hadamard(0), rzz(0.3, 0, 1), rz(1.2, 1)], global_phase=0.25)
    host = Circuit(4, [phased_x(0.2, 0.1, 3)])
    host_u = unitary(host)
    host.extend(sub, wires=[3, 1])
    expected = np.exp(0.25j) * _embed(
        unitary(Circuit(2, list(sub.gates))), (3, 1), 4
    ) @ host_u
    assert np.allclose(unitary(host), expected, atol=1e-12)
    _ = rng


def test_extend_composes_trailing_permutations():
    a = Circuit(3, [hadamard(1)], final_permutation=[1, 2, 0])
    b = Circuit(3, [rz(0.3, 0)], final_permutation=[2, 1, 0])
    expected = unitary(b) @ unitary(a)
    a.extend(b)
    assert np.allclose(unitary(a), expected, atol=1e-13)


def test_inverse_is_exact_adjoint():
    rng = np.random.default_rng(5)
    circ = Circuit(3, global_phase=0.77)
    for _ in range(8):
        q, r = rng.choice(3, size=2, replace=False)
        circ.append(rzz(rng.uniform(-2, 2), int(q), int(r)))
        circ.append(phased_x(rng.uniform(-2, 2), rng.uniform(-2, 2), int(q)))
    circ._set_permutation([2, 0, 1])
    u = unitary(circ)
    assert np.allclose(unitary(circ.inverse()), u.conj().T, atol=1e-13)
    assert np.allclose(unitary(circ.inverse()) @ u, np.eye(8), atol=1e-13)


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(0)
    with pytest.raises(ValueError):
        Circuit(2).append(rz(0.1, 2))
    with pytest.raises(ValueError):
        Circuit(2)._set_permutation([0, 0])
    with pytest.raises(ValueError):
        Circuit(2).extend(Circuit(2), wires=[1, 1])


def test_identity_permutation_is_canonicalized_away():
    circ = Circuit(3, final_permutation=[0, 1, 2])
    assert circ.final_permutation is None


# ------------------------------------------------------------ states, densities


def test_statevector_validation_and_helpers():
    with pytest.raises(ValueError, match="normalized"):
        validated(StateVector(np.array([1.0, 1.0])))
    with pytest.raises(ValueError, match="power of two"):
        StateVector(np.ones(3) / math.sqrt(3))
    zero = StateVector.zero(3)
    assert zero.num_qubits == 3 and zero.amplitudes[0] == 1.0
    assert zero.norm() == pytest.approx(1.0)
    assert np.allclose(zero.probabilities(), np.eye(8)[0])


def test_density_matrix_validation_and_helpers():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match="power-of-two dimension"):
        DensityMatrix(np.eye(3) / 3)
    with pytest.raises(ValueError, match="unit trace"):
        validated(density(np.eye(4)))
    with pytest.raises(ValueError, match="Hermitian"):
        validated(density(np.array([[0.5, 0.5], [0.0, 0.5]])))
    with pytest.raises(ValueError, match="positive semidefinite"):
        validated(density(np.diag([1.5, -0.5]).astype(complex)))  # Hermitian, unit trace, not positive
    pure = pure_density(_random_state(2, rng))
    assert purity(pure) == pytest.approx(1.0)
    validated(density(pure.entries))  # a pure state's projector passes every check
    mixed = _random_density(2, rng)
    assert purity(mixed) < 1.0
    assert np.trace(mixed.entries).real == pytest.approx(1.0)
    assert mixed.probabilities().sum() == pytest.approx(1.0)


def test_noise_model_validation():
    NoiseModel(0.0)
    NoiseModel(1.0)
    with pytest.raises(ValueError):
        NoiseModel(-0.01)
    with pytest.raises(ValueError):
        NoiseModel(1.01)


# ------------------------------------------------------------ depolarizing noise


def _brute_force_depolarize(rho: np.ndarray, a: int, b: int, p: float, m: int) -> np.ndarray:
    """Literal fifteen-Pauli-term channel sum."""
    out = (1.0 - p) * rho
    paulis = [_I2, _X, _Y, _Z]
    for i in range(4):
        for j in range(4):
            if i == 0 and j == 0:
                continue
            op = _embed(np.kron(paulis[i], paulis[j]), (a, b), m)
            out = out + (p / 15.0) * op @ rho @ op.conj().T
    return out


@pytest.mark.parametrize("pair", [(0, 1), (1, 0), (1, 2), (0, 2), (2, 0)])
@pytest.mark.parametrize("p", [0.0, 0.13, 0.5, 1.0])
def test_depolarize_pair_matches_pauli_sum(pair, p):
    rng = np.random.default_rng(hash(pair) % 1000)
    rho = _random_density(3, rng).entries
    got = depolarize_pair(rho.copy(), pair[0], pair[1], p)
    want = _brute_force_depolarize(rho, pair[0], pair[1], p, 3)
    assert np.max(np.abs(got - want)) < 1e-13


def test_full_strength_channel_on_pure_pair_state():
    # the channel definition gives (1-p) rho + (p/15) sum_P P rho P, so p = 1
    # maps a pure two-qubit rho to (4 I - rho) / 15, and p = 15/16 to I / 4
    rng = np.random.default_rng(7)
    rho = pure_density(_random_state(2, rng)).entries
    full = depolarize_pair(rho.copy(), 0, 1, 1.0)
    assert np.max(np.abs(full - (4.0 * np.eye(4) - rho) / 15.0)) < 1e-14
    mixed = depolarize_pair(rho.copy(), 0, 1, 15.0 / 16.0)
    assert np.max(np.abs(mixed - np.eye(4) / 4.0)) < 1e-14


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_channel_is_trace_preserving_and_completely_positive(p):
    rng = np.random.default_rng(8)
    rho = _random_density(2, rng).entries
    out = depolarize_pair(rho.copy(), 0, 1, p)
    assert np.trace(out).real == pytest.approx(1.0)
    # Choi matrix: apply the channel to each matrix unit |i><j|
    choi = np.zeros((16, 16), dtype=complex)
    for i in range(4):
        for j in range(4):
            unit = np.zeros((4, 4), dtype=complex)
            unit[i, j] = 1.0
            choi[i * 4:(i + 1) * 4, j * 4:(j + 1) * 4] = depolarize_pair(unit, 0, 1, p)
    eigs = np.linalg.eigvalsh(choi)
    assert eigs.min() > -1e-12


def test_channel_never_increases_purity():
    rng = np.random.default_rng(9)
    for p in (0.01, 0.2, 0.9):
        rho = pure_density(_random_state(3, rng))
        out = density(depolarize_pair(rho.entries, 0, 2, p))
        assert purity(out) <= purity(rho) + 1e-12


def test_noisy_run_at_zero_p_matches_pure_evolution():
    rng = np.random.default_rng(10)
    circ = Circuit(3, [hadamard(0), rzz(0.8, 0, 1), cphase(1.1, 1, 2), phased_x(0.3, 0.6, 2)])
    circ._set_permutation([1, 2, 0])
    state = _random_state(3, rng)
    rho = apply_circuit_noisy(pure_density(state), circ, NoiseModel(0.0))
    pure = apply_circuit(state, circ)
    assert np.max(np.abs(rho.entries - np.outer(pure.amplitudes, pure.amplitudes.conj()))) < 1e-12


def test_noise_is_attached_to_each_two_qubit_gate():
    rng = np.random.default_rng(11)
    p = 0.07
    gates = [hadamard(1), rzz(0.8, 0, 1), rz(0.2, 2), cphase(1.1, 2, 0), phased_x(0.4, 0.1, 0)]
    circ = Circuit(3, gates)
    state = _random_state(3, rng)
    got = apply_circuit_noisy(pure_density(state), circ, NoiseModel(p))
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    for gate in gates:
        op = _embed(gate.matrix(), gate.targets, 3)
        rho = op @ rho @ op.conj().T
        if gate.num_targets == 2:
            rho = _brute_force_depolarize(rho, gate.targets[0], gate.targets[1], p, 3)
    assert np.max(np.abs(got.entries - rho)) < 1e-12


def test_single_qubit_only_circuit_stays_pure_under_noise():
    circ = Circuit(2, [hadamard(0), phased_x(0.9, 0.2, 1), rz(0.5, 0)])
    rho = apply_circuit_noisy(pure_density(StateVector.zero(2)), circ, NoiseModel(0.4))
    assert purity(rho) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [2, 3, 5, 7])
@pytest.mark.parametrize("p", [0.0, 1e-3, 0.5])
def test_wire0_pass_is_bit_identical_to_the_full_pass_block_by_block(n, p):
    # `_vec_gate` on rows of vec(rho) split on wire 0 (Q_0 = 0, 1, 3), then on wires 0 and 1
    # (10 of the 16 rows (Q_0, Q_1)), against `_vec_gate` on the whole vec
    rng, w = np.random.default_rng(n), 16.0 * p / 15.0
    vec = sim._interleave(_random_density(n + 1, rng).entries)
    angle = lambda: rng.uniform(-np.pi, np.pi)  # noqa: E731
    wire0 = [g for q in range(1, n + 1) for g in (rzz(angle(), 0, q), cphase(angle(), q, 0))] + [rz(angle(), 0)]
    both = [rzz(angle(), 0, 1), cphase(angle(), 1, 0), rz(angle(), 1)]
    both += [g for q in range(2, n + 1) for g in (rzz(angle(), 0, q), cphase(angle(), q, 1))]
    both += [cphase(angle(), n, 2), rzz(angle(), 2, n)] if n > 2 else []
    wire01 = [(a, b) for a in (0, 1, 3) for b in range(4) if a == 1 or b != 2]
    for keys, gates in (([(0,), (1,), (3,)], wire0), (wire01, both)):
        index = [sum(v * 4 ** (len(key) - 1 - i) for i, v in enumerate(key)) for key in keys]
        for gate in gates:
            full = vec.copy()
            sim._vec_gate(full, [()], gate, gate.targets, w)
            rows = vec.reshape(4 ** len(keys[0]), -1)[index]
            sim._vec_gate(rows, keys, gate, gate.targets, w)
            assert np.array_equal(rows, full.reshape(4 ** len(keys[0]), -1)[index]), (keys[0], gate.targets)


@pytest.mark.parametrize("rows", [3, 10])
@pytest.mark.parametrize("m", range(1, 9))
def test_a_batched_call_gives_every_row_the_bits_of_a_call_on_it_alone(rows, m):
    # a batch raises the dense kernel's lead: past 64 where one row of rest = 4 takes the matmul
    # branch, and past 1 at q = 0, where one row of rest = 1 is a one-row product
    rng = np.random.default_rng(10 * m + rows)
    batch = _random_complex(rng, (rows, 4 ** m))
    px = phased_x(0.7, -0.3, 0).matrix()
    for q in range(m):
        for u in (sim._H_VEC, np.kron(px, px.conj())):
            got = batch.copy()
            assert _apply_dense(got, u, 2 * q, in_place=True, rows=rows) is got
            for row, want in zip(got, batch.copy()):
                assert np.array_equal(row, _apply_dense(want, u, 2 * q, in_place=True)), (q, u.dtype)
        for gate in (rz(0.4, q), rzz(1.1, q, (q + m // 2) % m)) if m > 1 else (rz(0.4, q),):
            w = 0.3 if gate.num_targets == 2 else 0.0
            got = batch.copy()
            sim._vec_gate(got, [()] * rows, gate, gate.targets, w)
            for row, want in zip(got, batch.copy()):
                sim._vec_gate(want, [()], gate, gate.targets, w)
                assert np.array_equal(row, want), gate.targets


@pytest.mark.parametrize("a, b", [(a, b) for a in range(6) for b in range(6) if a != b])
def test_noisy_pair_gates_on_six_qubits_match_pauli_sum(a, b):
    # beyond the property tests' four qubits: every ordered pair, adjacent or not, a > b too
    m = 6
    rng = np.random.default_rng(13 * a + b)
    rho = _random_density(m, rng)
    before = rho.entries.copy()
    gates = [cphase(0.7, a, b), rzz(-0.4, a, b), diagonal_injector(np.exp(1j * rng.uniform(-3, 3, 4)), (a, b))]
    ps = np.array([0.0, 1e-3, 15.0 / 16.0, 1.0])
    ops = [_embed(gate.matrix(), gate.targets, m) for gate in gates]
    # one oracle call for all gates and p: the channel sum broadcasts over a (p, gate) stack
    want = _brute_force_depolarize(np.stack([op @ before @ op.conj().T for op in ops]), a, b,
                                   ps[:, None, None, None], m)
    for i, p in enumerate(ps):
        for j, gate in enumerate(gates):
            got = apply_circuit_noisy(rho, Circuit(m, [gate]), NoiseModel(p)).entries
            assert np.max(np.abs(got - want[i, j])) < 1e-13
    assert np.array_equal(rho.entries, before)


# ------------------------------------------------------------ the vec(rho) layout


@pytest.mark.parametrize("m", range(1, 8))
def test_interleave_then_standard_layout_returns_rho_exactly(m):
    rho = _random_density(m, np.random.default_rng(m)).entries
    vec = sim._interleave(rho)
    # entry (r_0 c_0 r_1 c_1 ...) of vec is rho[r, c]
    i, r, c = np.arange(4 ** m), 0, 0
    for q in range(m):
        r = r | ((i >> (2 * m - 1 - 2 * q)) & 1) << (m - 1 - q)
        c = c | ((i >> (2 * m - 2 - 2 * q)) & 1) << (m - 1 - q)
    assert np.array_equal(vec, rho[r, c])
    assert np.array_equal(DensityMatrix(vec).entries, rho)


@_PROPERTY
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m - 1))),
       st.sampled_from(["H", "PHASEDX"]), st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi),
       st.integers(0, 2 ** 32 - 1))
def test_interleaved_dense_pass_is_conjugation(case, kind, theta, phi, seed):
    m, q = case
    gate = hadamard(q) if kind == "H" else phased_x(theta, phi, q)
    rho = _random_density(m, np.random.default_rng(seed)).entries
    vec = sim._noisy_vec(sim._interleave(rho), Circuit(m, [gate]), 0.0)
    op = _embed(gate.matrix(), (q,), m)
    assert np.max(np.abs(DensityMatrix(vec).entries - op @ rho @ op.conj().T)) < 1e-12


@_PROPERTY
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_read_outs_on_vec_rho_are_bit_identical_to_the_standard_layout_ones(m, seed):
    rng = np.random.default_rng(seed)
    rho, psi = _random_density(m, rng), _random_state(m, rng)
    entries = rho.entries
    assert np.array_equal(rho.probabilities(), np.clip(np.diag(entries).real, 0.0, None))
    assert state_infidelity(psi, rho) == 1.0 - np.vdot(psi.amplitudes, entries @ psi.amplitudes).real


@pytest.mark.parametrize("k", range(11))
def test_interleaved_outer_is_bit_identical_to_the_broadcast(k):
    """k <= sim._LOW has no high wires: the whole product is one gathered row."""
    rng = np.random.default_rng(k)
    a, b = _random_complex(rng, 2 ** k), _random_complex(rng, 2 ** k)
    assert np.array_equal(sim._interleaved_outer(a, b.conj(), k), interleaved_outer(a, b.conj(), k))


# ------------------------------------------------- pure starts with basis-state wires


def _state_with_basis_wires(bits, rng) -> StateVector:
    """A random pure state whose wire q is exactly |bits[q]> wherever bits[q] is not None."""
    m = len(bits)
    amps = (rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m)).reshape([2] * m)
    for q, bit in enumerate(bits):
        if bit is not None:
            amps[(slice(None),) * q + (1 - bit,)] = 0.0
    amps = amps.reshape(-1)
    return StateVector(amps / np.linalg.norm(amps))


def _relabeling(perm, m: int) -> np.ndarray:
    """Permutation matrix that moves the bit of wire q to wire perm[q]."""
    dim = 2 ** m
    out = np.zeros((dim, dim))
    for src in range(dim):
        dst = 0
        for q in range(m):
            dst |= ((src >> (m - 1 - q)) & 1) << (m - 1 - perm[q])
        out[dst, src] = 1.0
    return out


def _noisy_oracle(state: StateVector, circuit: Circuit, p: float) -> np.ndarray:
    """|psi><psi| conjugated by each embedded gate, the Pauli sum after each pair gate, then the relabeling."""
    m = circuit.num_qubits
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    for gate in circuit.gates:
        op = _embed(gate.matrix(), gate.targets, m)
        rho = op @ rho @ op.conj().T
        if gate.num_targets == 2:
            rho = _brute_force_depolarize(rho, gate.targets[0], gate.targets[1], p, m)
    if circuit.final_permutation is not None:
        perm = _relabeling(circuit.final_permutation, m)
        rho = perm @ rho @ perm.T
    return rho


def _check_pure_start(state: StateVector, circuit: Circuit, p: float) -> None:
    before = state.amplitudes.copy()
    got = apply_circuit_noisy(state, circuit, NoiseModel(p))
    assert isinstance(got, DensityMatrix) and got.num_qubits == circuit.num_qubits
    assert np.max(np.abs(got.entries - _noisy_oracle(state, circuit, p))) < 1e-12
    assert np.array_equal(state.amplitudes, before)


@st.composite
def _basis_wire_starts(draw):
    """A `_gate_lists` case and, per wire, the basis bit its start holds it in (None: not held)."""
    m, gates = draw(_gate_lists())
    return m, gates, draw(st.lists(st.sampled_from([None, 0, 1]), min_size=m, max_size=m))


@_PROPERTY
@given(_basis_wire_starts(), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0))
def test_pure_start_with_basis_wires_matches_conjugation_and_pauli_sum(case, seed, p):
    m, gates, bits = case
    _check_pure_start(_state_with_basis_wires(bits, np.random.default_rng(seed)), Circuit(m, gates), p)


def _relabeled(circuit: Circuit, perm) -> Circuit:
    circuit._set_permutation(list(perm))
    return circuit


_HELD_WIRE_CASES = {
    # every wire held; each is inserted by the first pair gate that reaches it, wire 3 at the end
    "all_wires_held": (
        StateVector.zero(4),
        Circuit(4, [hadamard(2), phased_x(0.7, 0.3, 0), rzz(0.5, 2, 0), hadamard(1), rz(0.4, 3),
                    cphase(1.1, 1, 2), phased_x(-0.2, 1.0, 2)]),
    ),
    # wire 2 (held in |1>) meets no gate and is inserted in the middle of rho at the end
    "untouched_wire": (
        _state_with_basis_wires([None, None, 1, None], np.random.default_rng(21)),
        Circuit(4, [hadamard(0), cphase(0.9, 3, 0), phased_x(0.4, -0.6, 1), rzz(-0.3, 1, 3)]),
    ),
    # one unsorted three-wire DIAG inserts held wires 0, 2 and 3 at once; wire 1 is live
    "diag_on_several_held_wires": (
        _state_with_basis_wires([0, None, 1, 0], np.random.default_rng(22)),
        Circuit(4, [hadamard(0), phased_x(0.8, 0.2, 3),
                    diagonal_injector(np.exp(1j * np.linspace(-2.5, 2.9, 8)), (3, 0, 2)),
                    rzz(0.6, 1, 2), hadamard(2)]),
    ),
    # a trailing relabeling after a run that leaves wire 4 held to the end
    "final_permutation": (
        _state_with_basis_wires([None, 0, None, 1, 1], np.random.default_rng(23)),
        _relabeled(Circuit(5, [hadamard(1), cphase(0.5, 1, 2), rzz(0.7, 3, 0), phased_x(0.3, 0.9, 4)]),
                   [4, 0, 3, 1, 2]),
    ),
}


@pytest.mark.parametrize("name", sorted(_HELD_WIRE_CASES))
@pytest.mark.parametrize("p", [0.0, 0.2, 1.0])
def test_held_wires_match_conjugation_and_pauli_sum(name, p):
    state, circuit = _HELD_WIRE_CASES[name]
    _check_pure_start(state, circuit, p)


# ----------------------------------------------------------------- measurement


def test_sampling_is_seeded_and_consistent():
    rng = np.random.default_rng(12)
    state = _random_state(3, rng)
    h1 = sample_bitstrings(state, 5000, seed=42)
    h2 = sample_bitstrings(state, 5000, seed=42)
    assert np.array_equal(h1, h2)
    assert h1.sum() == 5000
    assert h1.shape == (8,)  # one count per basis index of 3 qubits
    h3 = sample_bitstrings(state, 5000, seed=43)
    assert not np.array_equal(h3, h1)


def test_sampling_respects_bit_order_and_distribution():
    # amplitude index 2 on two qubits is |10>: qubit 0 (MSB) set, qubit 1 clear
    state = StateVector(np.array([0, 0, 1, 0], dtype=complex))
    hist = sample_bitstrings(state, 100, seed=0)
    assert hist.tolist() == [0, 0, 100, 0]

    probs = np.array([0.5, 0.3, 0.2, 0.0])
    state = StateVector(np.sqrt(probs).astype(complex))
    hist = sample_bitstrings(state, 200_000, seed=1)
    for idx, p in enumerate(probs):
        freq = hist[idx] / 200_000
        assert abs(freq - p) < 4.0 * math.sqrt(max(p * (1 - p), 1e-9) / 200_000)


def test_density_matrix_sampling_matches_diagonal():
    rho = density(np.diag([0.25, 0.75]).astype(complex))
    hist = sample_bitstrings(rho, 100_000, seed=2)
    assert abs(hist[1] / 100_000 - 0.75) < 0.01


# ------------------------------------------------------------------ infidelity


def test_state_infidelity_pure_cases():
    rng = np.random.default_rng(13)
    state = _random_state(3, rng)
    assert state_infidelity(state, state) == pytest.approx(0.0, abs=1e-12)
    basis0 = StateVector.zero(2)
    basis1 = StateVector(np.eye(4)[1].astype(complex))
    assert state_infidelity(basis0, basis1) == pytest.approx(1.0)
    mix = StateVector(np.array([0.6, 0.8, 0, 0], dtype=complex))
    assert state_infidelity(basis0, mix) == pytest.approx(1 - 0.36)


def test_state_infidelity_resolves_infidelities_below_rounding():
    # 1 - |<a|b>|^2 rounds to 0 here; the difference-norm form keeps sin^2(delta)
    for delta in (1e-9, 3e-12):
        a = StateVector(np.array([1.0, 0.0], dtype=complex))
        b = StateVector(np.exp(0.7j) * np.array([math.cos(delta), math.sin(delta)]))
        assert state_infidelity(a, b) == pytest.approx(math.sin(delta) ** 2, rel=1e-6, abs=0.0)


def test_state_infidelity_mixed_case():
    exact = StateVector.zero(2)
    w = 0.37
    rho = density(np.diag([w, 1 - w, 0, 0]).astype(complex))
    assert state_infidelity(exact, rho) == pytest.approx(1 - w)
