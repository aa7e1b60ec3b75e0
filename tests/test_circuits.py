"""Wave-evolution circuit checks: QFT construction, factored diagonal phases,
and full assembly against the spectral reference.

The independent oracles are the dense DFT matrix, a directly constructed
signed-wavenumber phase table, and the closed-form spectral evolution.
"""

import math

import numpy as np
import pytest

from oracles import smallangle_evolve, unitary
from qwave.circuits import (
    EvolutionSpec,
    assemble_evolution,
    build_approx_diagonal,
    build_exact_diagonal,
    build_qft,
)
from qwave.sim import Circuit, StateVector, apply_circuit, hadamard, rzz
from qwave.spectral import dft_matrix, exact_evolve, wavenumbers
from qwave.stateprep import ansatz_to_circuit, build_ansatz


def _ricker_sectors(n: int):
    N = 2 ** n
    x = np.arange(N) / N
    u = (x - 0.5) / 0.1
    psi = (1 - u ** 2) * np.exp(-(u ** 2) / 2)
    psi = psi / np.linalg.norm(psi)
    return psi, np.zeros_like(psi)


def _full_state(psi: np.ndarray, phi: np.ndarray) -> StateVector:
    return StateVector(np.concatenate([psi, phi]).astype(complex))


# --------------------------------------------------------------- evolution spec


def test_evolution_spec_normalizes_mode_names():
    assert EvolutionSpec(3, 0.5).mode == "approx"
    with pytest.raises(ValueError):  # approx is the small-angle circuit; it has no alias
        EvolutionSpec(3, 0.5, mode="small-angle")
    assert EvolutionSpec(3, 0.5, mode="exact").mode == "exact"
    with pytest.raises(ValueError):
        EvolutionSpec(1, 0.5)
    with pytest.raises(ValueError):
        EvolutionSpec(3, -0.1)
    for mode in ("bogus", "small_angle"):
        with pytest.raises(ValueError):
            EvolutionSpec(3, 0.5, mode=mode)


# ------------------------------------------------------------------------- QFT


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_qft_circuit_equals_dft_matrix(n):
    assert np.max(np.abs(unitary(build_qft(n)) - dft_matrix(2 ** n))) < 1e-12


@pytest.mark.parametrize("n", [1, 3, 5])
def test_iqft_is_the_adjoint(n):
    assert np.max(np.abs(unitary(build_qft(n).inverse()) - dft_matrix(2 ** n).conj().T)) < 1e-12


def test_qft_gate_budget():
    for n in (2, 4, 6):
        circ = build_qft(n)
        assert len(circ) == n + n * (n - 1) // 2
        assert sum(1 for g in circ if g.num_targets == 2) == n * (n - 1) // 2
    assert build_qft(1).final_permutation is None  # single wire needs no reversal


# ------------------------------------------------------------- diagonal phases


def test_factored_diagonal_angles_smallest_case():
    # n = 3: RZ(3 pi t); the qubit-1-controlled RZ(-8 pi t) split as RZ(-4 pi t) . RZZ(4 pi t);
    # then RZZ(-2^{3-q} pi t) on (0, q) for q = 2, 3
    t = 0.37
    gates = [(g.kind, g.targets, g.params) for g in build_approx_diagonal(3, t)]
    assert gates == [
        ("RZ", (0,), (pytest.approx(3 * math.pi * t),)),
        ("RZ", (0,), (pytest.approx(-4 * math.pi * t),)),
        ("RZZ", (0, 1), (pytest.approx(4 * math.pi * t),)),
        ("RZZ", (0, 2), (pytest.approx(-2 * math.pi * t),)),
        ("RZZ", (0, 3), (pytest.approx(-math.pi * t),)),
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_factored_diagonal_is_exact_including_phase(n):
    rng = np.random.default_rng(n)
    N = 2 ** n
    k = wavenumbers(N)
    for t in rng.uniform(0.0, 2.0, 3):
        u = unitary(build_approx_diagonal(n, t))
        expected = np.concatenate([np.exp(-2j * np.pi * k * t), np.exp(2j * np.pi * k * t)])
        assert np.max(np.abs(u - np.diag(expected))) < 1e-10


def test_factored_diagonal_at_unit_time_is_identity():
    for n in (2, 3, 4):
        u = unitary(build_approx_diagonal(n, 1.0))
        assert np.max(np.abs(u - np.eye(2 ** (n + 1)))) < 1e-10


def test_factored_diagonal_gate_inventory():
    circ = build_approx_diagonal(5, 0.3)
    kinds = [g.kind for g in circ.gates]
    assert kinds == ["RZ", "RZ", "RZZ", "RZZ", "RZZ", "RZZ", "RZZ"]
    assert all(g.targets[0] == 0 for g in circ.gates)  # everything touches qubit 0
    with pytest.raises(ValueError):
        build_approx_diagonal(1, 0.3)


def test_exact_diagonal_values():
    n, t = 2, 0.418
    gate = build_exact_diagonal(n, t)
    omega = 8.0 * np.sin(np.pi * wavenumbers(4) / 4.0)
    assert omega[1] == pytest.approx(4.0 * math.sqrt(2.0))
    expected = np.concatenate([np.exp(-1j * t * omega), np.exp(1j * t * omega)])
    assert np.allclose(gate.values, expected)
    assert gate.targets == (0, 1, 2)


# ----------------------------------------------------------------- full pipeline


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("mode", ["approx", "exact"])
def test_assembled_evolution_matches_spectral_reference(n, mode):
    rng = np.random.default_rng(10 * n)
    psi0, phi0 = _ricker_sectors(n)
    for t in (0.21, float(rng.uniform(0.3, 1.5))):
        circ = assemble_evolution(None, EvolutionSpec(n, t, mode=mode))
        evolved = apply_circuit(_full_state(psi0, phi0), circ)
        if mode == "exact":
            reference = exact_evolve(psi0, phi0, t)
        else:
            reference = smallangle_evolve(psi0, t)
        assert np.max(np.abs(evolved.amplitudes - reference.amplitudes)) < 1e-12


def test_assembled_evolution_handles_moving_initial_data():
    # nonzero second sector exercises the hadamard mixing on qubit 0
    n = 3
    rng = np.random.default_rng(4)
    psi0 = rng.normal(size=8)
    phi0 = rng.normal(size=8)
    scale = math.sqrt(np.sum(psi0 ** 2) + np.sum(phi0 ** 2))
    psi0, phi0 = psi0 / scale, phi0 / scale
    circ = assemble_evolution(None, EvolutionSpec(n, 0.63, mode="exact"))
    evolved = apply_circuit(_full_state(psi0, phi0), circ)
    reference = exact_evolve(psi0, phi0, 0.63)
    assert np.max(np.abs(evolved.amplitudes - reference.amplitudes)) < 1e-12


def test_zero_time_emits_only_the_prep():
    prep = Circuit(4, [hadamard(1), rzz(0.4, 1, 2)])
    frozen = assemble_evolution(prep, EvolutionSpec(3, 0.0))
    assert len(frozen) == len(prep)
    moving = assemble_evolution(prep, EvolutionSpec(3, 0.5))
    assert len(moving) > len(frozen)
    # and with no prep at all the t = 0 circuit is empty
    assert len(assemble_evolution(None, EvolutionSpec(3, 0.0))) == 0


def test_prep_register_size_is_checked():
    with pytest.raises(ValueError):
        assemble_evolution(Circuit(3), EvolutionSpec(3, 0.5))


def test_assembled_circuit_has_no_trailing_relabeling():
    # every circuit the CLI runs: the inverse QFT's bit reversal must cancel against the QFT's, and the
    # brickwall prep has none; a noisy run pays a relabeling with a transposed copy of rho, past
    # check_memory's 1.5 copies
    for n in range(2, 9):
        ansatz = build_ansatz(n + 1)
        for prep in (None, ansatz_to_circuit(ansatz, np.zeros(ansatz.num_params))):
            for mode in ("approx", "exact"):
                for t in (0.0, 0.37, 1.0):
                    circuit = assemble_evolution(prep, EvolutionSpec(n, t, mode))
                    assert circuit.final_permutation is None, (n, prep is None, mode, t)
