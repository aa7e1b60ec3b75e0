"""End-to-end runs: prepare, evolve, compare against the spectral reference.

Conventions: `n` is the spatial register size (N = 2^n grid points); the full
register has n + 1 qubits.  `epsilon` always means infidelity against the
exactly evolved state, 1 - <exact| rho |exact>.  Noise is two-qubit
depolarizing after every two-qubit gate, so every controlled phase in the
QFT and every entangler in the prep contributes one noise event — the same
events the lowered circuit would produce.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import spectral
from .circuits import EvolutionSpec, assemble_evolution
from .compile import count, lower
from .sim import (
    Circuit,
    DensityMatrix,
    NoiseModel,
    StateVector,
    apply_circuit,
    apply_circuit_noisy,
    state_infidelity,
)
from .stateprep import (
    BrickwallAnsatz,
    Checkpoint,
    GridSpec,
    ansatz_to_circuit,
    ricker_target,
)

PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")  # bytes


def ricker_state(n: int) -> StateVector:
    """Normalized Ricker wavefield on the full n + 1 qubit register (velocity sector zero)."""
    return ricker_target(GridSpec(n))


def prep_circuit(checkpoint: Checkpoint) -> Circuit:
    """Trained brickwall prep as a gate circuit (|0...0> -> approximate target)."""
    return ansatz_to_circuit(checkpoint.ansatz(), np.asarray(checkpoint.params))


def prep_circuit_like(ansatz: BrickwallAnsatz) -> Circuit:
    """Zero-angle prep circuit; gate counts match any trained instance of `ansatz`."""
    return ansatz_to_circuit(ansatz, np.zeros(ansatz.num_params))


def evolution_circuit(n: int, t: float, mode: str = "approx", prep: Circuit | None = None) -> Circuit:
    return assemble_evolution(prep, EvolutionSpec(n=n, t=t, mode=mode))


def exact_reference(n: int, t: float) -> StateVector:
    """Spectral-method evolution with exact frequencies — the infidelity baseline."""
    psi0 = ricker_state(n).amplitudes[: 2 ** n]
    return spectral.exact_evolve(psi0, np.zeros(2 ** n), t)


def check_memory(n: int, noisy: bool) -> None:
    """Refuse a run on n spatial qubits whose working arrays would not fit in physical memory.

    Peak RSS above the import baseline measured 2.1-2.2 density matrices (n = 8..10) and
    8.6-11.3 statevectors (n = 16..21), hence 3 and 11 working copies of the state.
    """
    dim = 2 ** (n + 1)
    need = 16 * (3 * dim * dim if noisy else 11 * dim)
    if need > PHYSICAL_MEMORY:
        kind = "noisy" if noisy else "noiseless"
        raise ValueError(f"a {kind} run at n={n} needs about {need / 2 ** 30:.3g} GiB of working arrays, "
                         f"more than the {PHYSICAL_MEMORY / 2 ** 30:.3g} GiB of physical memory")


def simulate_noiseless(circuit: Circuit, initial: StateVector | None = None) -> StateVector:
    state = StateVector.zero(circuit.num_qubits) if initial is None else initial
    return apply_circuit(state, circuit)


def simulate_noisy(circuit: Circuit, p: float, initial: StateVector | None = None) -> DensityMatrix:
    """Density-matrix run with two-qubit depolarizing noise after every two-qubit gate.

    Applied on the native circuit, which is channel-for-channel identical to
    noising the lowered one: every controlled phase lowers to single-qubit RZs
    plus one RZZ on the same pair, so per-gate noise events land on the same
    wires after the same unitaries.

    The pure start goes in as it is, so each wire it holds in a basis state
    stays a 2-vector outside rho until a two-qubit gate reaches it: wire 0 of
    the injected Ricker state, and every wire of |0...0> before a trained prep.
    """
    state = StateVector.zero(circuit.num_qubits) if initial is None else initial
    return apply_circuit_noisy(state, circuit, NoiseModel(p))


def wavefield_probabilities(state: StateVector | DensityMatrix, n: int) -> np.ndarray:
    """|psi(x_j)|^2 on the N grid points: the qubit-0 = |0> half of the distribution."""
    probs = state.probabilities()
    if probs.size != 2 ** (n + 1):
        raise ValueError("state size does not match the spatial register")
    return probs[: 2 ** n]


def circuit_infidelity(n: int, t: float) -> float:
    """Noiseless end-to-end infidelity of the small-angle circuit, exact prep."""
    circuit = evolution_circuit(n, t, mode="approx")
    evolved = simulate_noiseless(circuit, ricker_state(n))
    return state_infidelity(exact_reference(n, t), evolved)


def noisy_infidelity(n: int, t: float, p: float) -> float:
    """Infidelity of the noisy small-angle run on the exactly injected Ricker state.

    The state is injected, not prepared, so only the evolution's gates are noisy.
    """
    rho = simulate_noisy(evolution_circuit(n, t, mode="approx"), p, ricker_state(n))
    return state_infidelity(exact_reference(n, t), rho)


def model_epsilon(n: int, t: float) -> tuple[float, float, float]:
    """Closed-form (exact, second-order, bound) infidelity of the small-angle run."""
    N = 2 ** n
    psi0 = ricker_state(n).amplitudes[:N]
    c0k = spectral.dft(psi0, "inverse")
    return spectral.infidelity_model(c0k, t, N)


@dataclass(frozen=True)
class SweepRow:
    """One analysis point; `epsilon` measured, `epsilon_model`/`bound` closed-form."""

    n: int
    N: int
    t: float
    p: float
    epsilon: float
    epsilon_model: float
    bound: float

    FIELDS = ("n", "N", "t", "p", "epsilon", "epsilon_model", "bound")

    def astuple(self):
        return (self.n, self.N, self.t, self.p, self.epsilon, self.epsilon_model, self.bound)


def sweep_point(n: int, t: float, p: float) -> SweepRow:
    """One (n, t, p) run: measured epsilon (noisy if p > 0) plus model values."""
    eps_model, _, bound = model_epsilon(n, t)
    if p > 0.0:
        eps = noisy_infidelity(n, t, p)
    else:
        eps = circuit_infidelity(n, t)
    return SweepRow(n=n, N=2 ** n, t=t, p=p, epsilon=eps, epsilon_model=eps_model, bound=bound)


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2:
        raise ValueError("slope fit needs at least two points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs positive data")
    slope, _ = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope)


def gate_count_row(n: int, t: float, prep: Circuit) -> dict[str, int | float]:
    """Lowered gate tallies for one register size: evolution-only and with prep."""
    evolution = count(lower(evolution_circuit(n, t, mode="approx")))
    full = count(lower(evolution_circuit(n, t, mode="approx", prep=prep)))
    return {
        "n": n,
        "t": t,
        "two_qubit_evolution": evolution.two_qubit,
        "total_evolution": evolution.total,
        "depth_evolution": evolution.depth,
        "two_qubit_with_prep": full.two_qubit,
        "total_with_prep": full.total,
        "depth_with_prep": full.depth,
    }
