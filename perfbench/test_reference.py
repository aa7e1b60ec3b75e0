"""Tests of the benchmark's own references and checks.

    python3 -m pytest perfbench

The references are compared with first principles (an explicit DFT sum, the
twirl identity, unit-time periodicity) and with qwave on small inputs, so a
disagreement on the benchmark's workloads points at one side or the other.
"""

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import reference  # noqa: E402
from qwave import pipeline, sim, stateprep  # noqa: E402
from qwave.circuits import build_qft  # noqa: E402


def test_fft_evolution_matches_an_explicit_dft_sum():
    n, t = 3, 0.37
    N = 2 ** n
    j = np.arange(N)
    qft = np.exp(2j * np.pi * np.outer(j, j) / N) / math.sqrt(N)
    had = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
    outer = np.kron(had, qft)
    for exact in (True, False):
        w = reference.frequencies(N, exact)
        phases = np.concatenate([np.exp(-1j * t * w), np.exp(1j * t * w)])
        expected = outer @ (phases * (outer.conj().T @ reference.ricker_state(n)))
        assert np.allclose(reference.fft_evolve(n, t, exact), expected, atol=1e-13)


def test_smallangle_evolution_returns_at_unit_time():
    for n in (2, 5, 9):
        assert np.allclose(reference.fft_evolve(n, 1.0, exact=False), reference.ricker_state(n), atol=1e-12)


@pytest.mark.parametrize("n", [2, 4, 6, 9])
def test_fft_reference_matches_qwave_spectral(n):
    assert np.allclose(reference.ricker_state(n), pipeline.ricker_state(n).amplitudes, atol=1e-15)
    exact = pipeline.exact_reference(n, 0.8).amplitudes
    assert np.allclose(reference.fft_evolve(n, 0.8, exact=True), exact, atol=1e-12)
    assert abs(reference.smallangle_infidelity(n, 1.0) - pipeline.circuit_infidelity(n, 1.0)) <= 1e-12


def test_gate_matrices_match_qwave():
    rng = np.random.default_rng(3)
    a, b = rng.uniform(-3, 3, size=2)
    gates = [sim.hadamard(0), sim.rz(a, 0), sim.rzz(a, 0, 1), sim.phased_x(a, b, 0), sim.cphase(a, 0, 1)]
    for gate in gates:
        assert np.allclose(reference.gate_matrix(gate.kind, gate.params), gate.matrix(), atol=1e-13)


def test_kraus_sum_equals_the_twirl_form():
    rng = np.random.default_rng(5)
    m, p = 3, 0.3
    amps = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
    rho = amps @ amps.conj().T
    rho /= np.trace(rho)
    for a, b in itertools.permutations(range(m), 2):
        out = reference.depolarize(rho, a, b, p, m)
        # (1 - 16p/15) rho + (16p/15) Tr_ab(rho) (x) I/4, built by an explicit partial trace
        keep = [q for q in range(m) if q not in (a, b)]
        tensor = rho.reshape([2] * 2 * m)
        labels = list(range(2 * m))
        for q in (a, b):
            labels[m + q] = q
        reduced = np.einsum(tensor, labels, [keep[0], m + keep[0]])
        mixed = reference.embed(np.eye(4) / 4.0, (a, b), m) @ reference.embed(reduced, keep, m)
        w = 16.0 * p / 15.0
        assert np.allclose(out, (1 - w) * rho + w * mixed, atol=1e-14)
        assert abs(np.trace(out) - 1.0) < 1e-14


def _replay(circuit, initial, p):
    gates = [(g.kind, g.targets, g.params, g.values) for g in circuit.gates]
    return reference.simulate_density(gates, circuit.num_qubits, initial, p, circuit.final_permutation)


@pytest.mark.parametrize("n", [2, 3])
def test_dense_replay_matches_qwave_noisy_evolution(n):
    circuit = pipeline.evolution_circuit(n, 1.0, "approx")
    initial = pipeline.ricker_state(n)
    expected = pipeline.simulate_noisy(circuit, 0.01, initial).entries
    assert np.allclose(_replay(circuit, initial.amplitudes, 0.01), expected, atol=1e-13)


def test_dense_replay_applies_the_final_permutation_and_diagonals():
    rng = np.random.default_rng(7)
    circuit = build_qft(3)
    circuit.append(sim.diagonal_injector(np.exp(1j * rng.uniform(0, 6, size=4)), (2, 0)))
    circuit.append(sim.phased_x(0.4, 1.1, 1))
    assert circuit.final_permutation is not None
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    initial = sim.StateVector(amps / np.linalg.norm(amps))
    expected = pipeline.simulate_noisy(circuit, 0.05, initial).entries
    assert np.allclose(_replay(circuit, initial.amplitudes, 0.05), expected, atol=1e-13)


@pytest.mark.parametrize("num_qubits", [3, 4, 7])
def test_brickwall_rebuild_matches_qwave_prepare_state(num_qubits):
    ansatz = stateprep.build_ansatz(num_qubits)
    assert reference.brickwall_pairs(num_qubits, ansatz.depth) == list(ansatz.blocks)
    theta = np.random.default_rng(num_qubits).uniform(-2, 2, size=ansatz.num_params)
    expected = stateprep.prepare_state(ansatz, theta).amplitudes
    assert np.allclose(reference.brickwall_state(num_qubits, ansatz.depth, theta), expected, atol=1e-12)


def _write_sweep(path: Path, rows):
    lines = ["n,N,t,p,epsilon,epsilon_model,bound"]
    lines += [f"{n},{2 ** n},1,{p:.10g},{eps:.10g},0,0" for n, p, eps in rows]
    path.write_text("\n".join(lines) + "\n")


def test_noiseless_check_accepts_the_reference_and_rejects_a_perturbed_row(tmp_path):
    (tmp_path / "sweep_N.svg").write_text("<svg/>")
    rows = [(n, 0.0, reference.smallangle_infidelity(n, 1.0)) for n in checks.NOISELESS_NS]
    _write_sweep(tmp_path / "sweep_N.csv", rows)
    assert checks.check_noiseless_sweep(tmp_path) == (0, [])
    n, p, eps = rows[2]
    rows[2] = (n, p, eps * (1 + 1e-5))
    _write_sweep(tmp_path / "sweep_N.csv", rows[:-1])
    failed, problems = checks.check_noiseless_sweep(tmp_path)
    assert failed == 1 and len(problems) == 1 and f"n={n}:" in problems[0]


def test_noisy_check_replays_small_registers(tmp_path):
    (tmp_path / "sweep_p.svg").write_text("<svg/>")
    rows = [(n, p, pipeline.noisy_infidelity(n, 1.0, p)) for p in checks.NOISY_PS for n in (2, 3, 4)]
    _write_sweep(tmp_path / "sweep_p.csv", rows)
    assert checks.check_noisy_sweep(tmp_path) == (10, [])
    rows[1] = (rows[1][0], rows[1][1], rows[1][2] * (1 + 1e-8))
    _write_sweep(tmp_path / "sweep_p.csv", rows)
    failed, problems = checks.check_noisy_sweep(tmp_path)
    assert failed == 10 and len(problems) == 1 and "dense replay" in problems[0]


def test_train_check_rejects_a_poor_checkpoint(tmp_path):
    n = checks.TRAIN_N
    ansatz = stateprep.build_ansatz(n + 1)
    theta = np.random.default_rng(0).random(ansatz.num_params)
    target = pipeline.ricker_state(n)
    result = stateprep.TrainingResult(theta, 0.0, stateprep.infidelity(ansatz, theta, target), (), 0, False, 0)
    stateprep.Checkpoint.from_result(n, ansatz, result).save(tmp_path / f"prep_n{n}.json")
    (tmp_path / f"train_history_n{n}.svg").write_text("<svg/>")
    failed, problems = checks.check_train_prep(tmp_path)
    assert failed == 0 and len(problems) == 1 and "> 1e-2" in problems[0]
    assert checks.check_train_prep(tmp_path / "missing") == (1, [])
