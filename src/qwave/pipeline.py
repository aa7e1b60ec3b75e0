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
    _interleaved_outer,
    _vec_gate,
    apply_circuit,
    apply_circuit_noisy,
    state_infidelity,
)
from .stateprep import BLOCK_PARAMS, Checkpoint, GridSpec, ansatz_to_circuit, ricker_target

PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")  # bytes


def ricker_state(n: int) -> StateVector:
    """Normalized Ricker wavefield on the full n + 1 qubit register (velocity sector zero)."""
    return ricker_target(GridSpec(n))


def prep_circuit(checkpoint: Checkpoint) -> Circuit:
    """Trained brickwall prep as a gate circuit (|0...0> -> approximate target)."""
    return ansatz_to_circuit(checkpoint.ansatz(), np.asarray(checkpoint.params))


def evolution_circuit(n: int, t: float, mode: str = "approx", prep: Circuit | None = None) -> Circuit:
    return assemble_evolution(prep, EvolutionSpec(n=n, t=t, mode=mode))


def exact_reference(n: int, t: float) -> StateVector:
    """Spectral-method evolution with exact frequencies — the infidelity baseline."""
    psi0 = ricker_state(n).amplitudes[: 2 ** n]
    return spectral.exact_evolve(psi0, np.zeros(2 ** n), t)


def check_memory(n: int, noisy: bool, concurrent: int = 1) -> None:
    """Refuse `concurrent` runs at once on n spatial qubits whose working arrays would not fit in physical memory.

    Peak RSS above the import baseline measured 1.26-1.46 density matrices (n = 8..10) and
    8.6-11.3 statevectors (n = 16..21), hence 1.5 and 11 working copies of the state per run.
    """
    dim, kind = 2 ** (n + 1), "noisy" if noisy else "noiseless"
    need = concurrent * 16 * (1.5 * dim * dim if noisy else 11 * dim)
    _refuse_beyond_memory(need, concurrent, f"{kind} run", f"at n={n}")


def check_training_memory(num_params: int, concurrent: int = 1, state_size: int = 0) -> None:
    """Refuse `concurrent` trainings at once whose working arrays would not fit in physical memory.

    Each training holds a BFGS inverse Hessian of num_params^2 doubles, and its
    gradient sweeps hold 6 statevectors of `state_size` amplitudes per block of
    BLOCK_PARAMS angles (0 prices the inverse Hessian alone).  Peak RSS above
    the import baseline measured 1.00 inverse Hessians at 3,750 angles, and
    5.95-6.05 statevectors per block at n = 12, 14 and 15.
    """
    need = 8 * num_params ** 2 + 6 * 16 * state_size * (num_params // BLOCK_PARAMS)
    _refuse_beyond_memory(concurrent * need, concurrent, "training", f"of {num_params} angles")


def _refuse_beyond_memory(need: float, concurrent: int, run: str, detail: str) -> None:
    if need > PHYSICAL_MEMORY:
        runs = f"a {run} {detail} needs" if concurrent == 1 else f"{concurrent} {run}s {detail} at once need"
        raise ValueError(f"{runs} about {need / 2 ** 30:.3g} GiB of working arrays, "
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


_ROWS = [(a, b) for a in (0, 1, 3) for b in range(4) if a == 1 or b != 2]  # rows (Q_0, Q_1) of rho carried


def noisy_infidelity(n: int, t: float, p: float) -> float:
    """Infidelity of the noisy small-angle run on the exactly injected Ricker state.

    The state is injected, not prepared, so only the evolution's gates are noisy.
    The run never forms the full rho: it runs rows of vec(rho) keyed by the
    4-valued axes Q_0, Q_1 of wires 0 and 1 through `_vec_gate`.  Wire 0 holds
    |0> and meets wires 1..n only in the diagonal block's pair gates (0, q), so
    the spatial gates before them give sigma on n qubits and wire 0's own gates
    a 2-vector phi.  Wire 1 meets only diagonal gates between its first and
    last two-qubit gates; its gates before those fold into the injected state,
    and its gates after them, with wire 0's, into the target chi.  So no gate
    mixes Q_1 (nor, after sigma, Q_0), and as rho is Hermitian, a row whose
    mirror (each Q with its bits swapped) is kept is left out: sigma runs as 3
    rows, rho as 10 of its 16 (B_ab = phi_a phi_b^* sigma).  F is the sum over
    rows of c Re <chi_row, row>, c = 2 for a row whose mirror is left out.
    With no pair gate the state stays pure, and epsilon is the pure-state one.
    """
    circuit, w, N = evolution_circuit(n, t, mode="approx"), 16.0 * p / 15.0, 2 ** n
    gates = circuit.gates
    pairs = [i for i, g in enumerate(gates) if 0 in g.targets and g.num_targets > 1]
    first, end = (pairs[0], pairs[-1] + 1) if pairs else (len(gates), len(gates))
    if (circuit.final_permutation is not None or pairs != list(range(first, end))
            or any(g.num_targets != 2 or g.phases() is None for g in gates[first:end])):
        raise ValueError("the evolution circuit must couple wire 0 only in one run of diagonal pair gates")
    on1 = [i for i, g in enumerate(gates) if 1 in g.targets]
    multi = [i for i in on1 if gates[i].num_targets > 1] or [len(gates)]
    if any(gates[i].phases() is None for i in on1 if multi[0] < i < multi[-1]):
        raise ValueError("spatial wire 0 must meet only diagonal gates between its first and last two-qubit gates")
    if not any(g.num_targets == 2 for g in gates):  # no channel acts (t = 0): rho stays pure, and 1 - F would cancel
        return circuit_infidelity(n, t)
    runs = {(0,): range(first, end), (1,): range(multi[0], multi[-1] + 1)}  # each wire's two-qubit run
    folded = [i for i, g in enumerate(gates) if g.targets in runs and i not in runs[g.targets]]
    before, after = {q: np.eye(2, dtype=complex) for q in runs}, {q: np.eye(2, dtype=complex) for q in runs}
    for i in folded:
        side = before if i < runs[gates[i].targets].start else after
        side[gates[i].targets] = gates[i].matrix() @ side[gates[i].targets]
    phi = before[(0,)][:, 0]
    psi = before[(1,)] @ ricker_state(n).amplitudes[:N].reshape(2, -1)
    chi = np.einsum("ba,yx,byj->axj", after[(0,)].conj(), after[(1,)].conj(),
                    exact_reference(n, t).amplitudes.reshape(2, 2, -1))
    rows, spatial = np.empty((len(_ROWS), 4 ** (n - 1)), dtype=complex), [(0,), (1,), (3,)]
    sigma = rows[:3]  # sigma's rows Q_1 sit in B_00's rows until B_00 = |phi_0|^2 sigma, formed last
    for row, (b,) in zip(sigma, spatial):
        row[...] = _interleaved_outer(psi[b // 2], psi[b % 2].conj(), n - 1)
    for i, g in enumerate(gates[:first]):
        if i not in folded:
            _vec_gate(sigma, spatial, g, [q - 1 for q in g.targets], w)
    bits, swap = [2] * (2 * n - 2), [x for q in range(n - 1) for x in (2 * q + 1, 2 * q)]
    for row, (a, b) in reversed(list(zip(rows, _ROWS))):
        if b == 2:  # sigma's Q_1 = 2 row: its Q_1 = 1 row with each wire's (r, c) bits swapped, conjugated
            np.conjugate(sigma[1].reshape(bits).transpose(swap), out=row.reshape(bits))
        elif a:
            row[...] = sigma[spatial.index((b,))]
        row *= phi[a // 2] * phi[a % 2].conj()
    for i, g in enumerate(gates[first:], first):
        if i not in folded:
            _vec_gate(rows, _ROWS, g, g.targets, w)
    fidelity = 0.0
    for row, (a, b) in zip(rows, _ROWS):
        target = _interleaved_outer(chi[a // 2, b // 2], chi[a % 2, b % 2].conj(), n - 1)
        term = np.vdot(target, row).real
        fidelity += term if a in (0, 3) and b in (0, 3) else 2.0 * term
    return float(min(max(1.0 - fidelity, 0.0), 1.0))


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
