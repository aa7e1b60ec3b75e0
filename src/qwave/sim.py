"""Dense statevector and density-matrix engine for small qubit registers.

Gate set: Hadamard, RZ, PhasedX, RZZ, ControlledPhase, plus a native diagonal
injector for exact diagonal operators.  Conventions used throughout the
package:

* qubit 0 (top wire) is the most significant index bit,
* RZ(theta)  = exp(-i theta Z)        (full angle, no half-angle factor),
* RZZ(theta) = exp(-i theta Z x Z),
* PhasedX(theta, phi) = RZ(phi) RX(theta) RZ(-phi) with RX(theta) = exp(-i theta X),
* ControlledPhase(theta) = diag(1, 1, 1, e^{i theta})  (symmetric in its wires).

Noisy runs follow every two-qubit gate with a two-qubit depolarizing channel

    E(rho) = (1 - p) rho + (p / 15) sum_{P != I(x)I} P rho P^dag

over the 15 non-identity two-qubit Paulis; single-qubit gates are noiseless.

One gate kernel, `_apply_gate_array`, serves the statevector, the unitary and
state prep: a diagonal gate (RZ, RZZ, CPHASE, DIAG) multiplies the amplitudes
by its phases, a dense one (H, PHASEDX, a state-prep block) is one matmul over
its consecutive target axes.  On a density matrix a dense gate is that kernel
on the row axes with U and on the column axes with conj(U).  A diagonal gate
is one in-place pass instead: the rows whose target bits agree share one
phase, so each such row class is multiplied by one contiguous column-phase
vector.  Every two-qubit gate is diagonal, and D on (a, b) leaves Tr_ab rho
unchanged, so its channel folds into the same pass:

    E(D rho D^dag) = (1 - w) D rho D^dag + (w/4) (Tr_ab rho) (x) I_ab,  w = 16p/15,

with the partial trace read from rho before the multiply.

A noisy run from a pure state keeps each wire that the state holds in a basis
state out of rho, as a 2-vector, until the first multi-qubit gate touches it.
That is exact because single-qubit gates are noiseless: until then the wire
stays in a product with the rest, and each single-qubit gate on it updates its
2-vector.  The injected wavefield holds wire 0 in |0>, so the inverse QFT runs
on a 4x smaller rho.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

HADAMARD = "H"
RZ = "RZ"
PHASEDX = "PHASEDX"
RZZ = "RZZ"
CPHASE = "CPHASE"
DIAG = "DIAG"

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_H_MATRIX = np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex)

_NUM_PARAMS = {HADAMARD: 0, RZ: 1, PHASEDX: 2, RZZ: 1, CPHASE: 1}
_NUM_TARGETS = {HADAMARD: 1, RZ: 1, PHASEDX: 1, RZZ: 2, CPHASE: 2}


@dataclass(frozen=True, eq=False)
class Gate:
    """A primitive operation on one, two, or (for the injector) k qubits."""

    kind: str
    targets: tuple[int, ...]
    params: tuple[float, ...] = ()
    values: np.ndarray | None = None

    def __post_init__(self):
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"gate targets must be distinct, got {self.targets}")
        if self.kind == DIAG:
            if self.values is None:
                raise ValueError("diagonal injector needs a value array")
            values = np.asarray(self.values, dtype=complex)
            if values.shape != (2 ** len(self.targets),):
                raise ValueError(
                    f"diagonal injector on {len(self.targets)} qubits needs "
                    f"{2 ** len(self.targets)} values, got {values.shape}"
                )
            if np.max(np.abs(np.abs(values) - 1.0)) > 1e-12:
                raise ValueError("diagonal injector values must have unit modulus")
            object.__setattr__(self, "values", values)
        elif self.kind in _NUM_TARGETS:
            if len(self.targets) != _NUM_TARGETS[self.kind]:
                raise ValueError(f"{self.kind} acts on {_NUM_TARGETS[self.kind]} qubits")
            if len(self.params) != _NUM_PARAMS[self.kind]:
                raise ValueError(f"{self.kind} takes {_NUM_PARAMS[self.kind]} angles")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")

    @property
    def num_targets(self) -> int:
        return len(self.targets)

    def phases(self) -> np.ndarray | None:
        """The 2^k diagonal entries of a diagonal gate; None for the dense H and PHASEDX."""
        if self.kind == RZ:
            (theta,) = self.params
            return np.exp([-1j * theta, 1j * theta])
        if self.kind == RZZ:
            (theta,) = self.params
            lo, hi = np.exp(-1j * theta), np.exp(1j * theta)
            return np.array([lo, hi, hi, lo])
        if self.kind == CPHASE:
            (theta,) = self.params
            return np.array([1.0, 1.0, 1.0, np.exp(1j * theta)])
        if self.kind == DIAG:
            return self.values
        return None

    def matrix(self) -> np.ndarray:
        """Dense 2^k x 2^k matrix; the first target is the more significant bit."""
        phases = self.phases()
        if phases is not None:
            return np.diag(phases)
        if self.kind == HADAMARD:
            return _H_MATRIX.copy()
        theta, phi = self.params
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, -1j * s * np.exp(-2j * phi)], [-1j * s * np.exp(2j * phi), c]])

    def operator(self) -> np.ndarray:
        """What the gate kernel applies: the phases of a diagonal gate, else the dense matrix."""
        phases = self.phases()
        return self.matrix() if phases is None else phases

    def dagger(self) -> "Gate":
        if self.kind == HADAMARD:
            return self
        if self.kind == DIAG:
            return Gate(DIAG, self.targets, values=np.conj(self.values))
        if self.kind == PHASEDX:
            theta, phi = self.params
            return Gate(PHASEDX, self.targets, (-theta, phi))
        (theta,) = self.params
        return Gate(self.kind, self.targets, (-theta,))


def hadamard(q: int) -> Gate:
    return Gate(HADAMARD, (q,))


def rz(theta: float, q: int) -> Gate:
    return Gate(RZ, (q,), (float(theta),))


def phased_x(theta: float, phi: float, q: int) -> Gate:
    return Gate(PHASEDX, (q,), (float(theta), float(phi)))


def rzz(theta: float, a: int, b: int) -> Gate:
    return Gate(RZZ, (a, b), (float(theta),))


def cphase(theta: float, a: int, b: int) -> Gate:
    return Gate(CPHASE, (a, b), (float(theta),))


def diagonal_injector(values: Iterable[complex], targets: Sequence[int]) -> Gate:
    return Gate(DIAG, tuple(targets), values=np.asarray(list(values), dtype=complex))


def _invert_permutation(perm: Sequence[int]) -> list[int]:
    inv = [0] * len(perm)
    for q, p in enumerate(perm):
        inv[p] = q
    return inv


def _permutation_source(num_qubits: int, perm: tuple[int, ...]) -> np.ndarray:
    """Source basis index of each destination index when wire q's bit moves to wire perm[q]."""
    dst = np.arange(2 ** num_qubits)
    src = np.zeros_like(dst)
    for q in range(num_qubits):
        src |= ((dst >> (num_qubits - 1 - perm[q])) & 1) << (num_qubits - 1 - q)
    return src


def _apply_gate_array(amps: np.ndarray, u: np.ndarray, targets: Sequence[int], num_qubits: int) -> np.ndarray:
    """The one gate kernel: apply `u` on `targets` of amps, (2^n,) or (2^n, batch), into a new array.

    A 1-D `u` holds the 2^k phases of a diagonal gate (first target = most
    significant bit), broadcast over the target axes in whatever order they
    come.  A 2-D `u` is a dense matrix on the consecutive targets q..q+k-1,
    applied by one matmul over the (2^q, 2^k, rest) view.
    """
    if min(targets) < 0 or max(targets) >= num_qubits:
        raise ValueError(f"gate targets {tuple(targets)} out of range for {num_qubits} qubits")
    k = len(targets)
    if u.ndim == 1:
        bounds = [-1] + sorted(targets)  # group the axes between targets: (.., 2, .., 2, .., rest)
        dims = [d for lo, hi in zip(bounds, bounds[1:]) for d in (2 ** (hi - lo - 1), 2)]
        phases = u.reshape([2] * k).transpose(np.argsort(targets)).reshape([1, 2] * k + [1])
        return (amps.reshape(dims + [-1]) * phases).reshape(amps.shape)
    q = targets[0]
    if tuple(targets) != tuple(range(q, q + k)):
        raise ValueError(f"a dense gate needs consecutive ascending targets, got {tuple(targets)}")
    lead, dim = 2 ** q, 2 ** k
    rest = amps.size // (lead * dim)
    if rest >= 16 or (rest >= 4 and lead <= 64):
        out = np.matmul(u, amps.reshape(lead, dim, rest))
    else:
        # Short rows: matmul loops over `lead` tiny products (~0.5 us each), and below rest = 4
        # it leaves BLAS gemm and rounds differently, which moves the L-BFGS path of state-prep
        # training.  One gemm with (u x I_rest)^T is faster and rounds like the rest.
        wide = u.T
        if rest > 1:
            wide = (wide[:, None, :, None] * np.eye(rest)[None, :, None, :]).reshape(dim * rest, -1)
        out = amps.reshape(lead, dim * rest) @ wide
    return out.reshape(amps.shape)


class Circuit:
    """An ordered gate list on a fixed register, with a tracked global phase
    and an optional final wire relabeling.

    The relabeling (`final_permutation`) moves the content of wire q to wire
    `final_permutation[q]` after all gates have acted.  It costs no gates: on
    an all-to-all machine it is bookkeeping, and the engine applies it as an
    amplitude permutation.  `extend` and `inverse` push relabelings through
    subsequent gates so a composed circuit keeps a single trailing one.
    """

    def __init__(
        self,
        num_qubits: int,
        gates: Iterable[Gate] | None = None,
        global_phase: float = 0.0,
        final_permutation: Sequence[int] | None = None,
    ):
        if num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self.gates: list[Gate] = []
        self.global_phase = float(global_phase)
        self.final_permutation: list[int] | None = None
        if final_permutation is not None:
            self._set_permutation(list(final_permutation))
        for gate in gates or ():
            self.append(gate)

    def _set_permutation(self, perm: list[int]) -> None:
        if sorted(perm) != list(range(self.num_qubits)):
            raise ValueError(f"invalid wire permutation {perm}")
        self.final_permutation = None if perm == list(range(self.num_qubits)) else perm

    def append(self, gate: Gate) -> "Circuit":
        for t in gate.targets:
            if not 0 <= t < self.num_qubits:
                raise ValueError(f"gate target {t} out of range for {self.num_qubits} qubits")
        if self.final_permutation is not None:
            # keep the relabeling trailing: relabel the new gate into pre-permutation wires
            inv = _invert_permutation(self.final_permutation)
            gate = Gate(gate.kind, tuple(inv[t] for t in gate.targets), gate.params, gate.values)
        self.gates.append(gate)
        return self

    def extend(self, other: "Circuit", wires: Sequence[int] | None = None) -> "Circuit":
        """Append `other`, mapping its wire w onto self wire wires[w]."""
        wires = list(range(other.num_qubits)) if wires is None else list(wires)
        if len(wires) != other.num_qubits or len(set(wires)) != len(wires):
            raise ValueError("wire map must be a distinct wire per qubit of the sub-circuit")
        for gate in other.gates:
            mapped = Gate(gate.kind, tuple(wires[t] for t in gate.targets), gate.params, gate.values)
            self.append(mapped)
        self.global_phase += other.global_phase
        if other.final_permutation is not None:
            lifted = list(range(self.num_qubits))
            for w, pw in enumerate(other.final_permutation):
                lifted[wires[w]] = wires[pw]
            base = self.final_permutation or list(range(self.num_qubits))
            self._set_permutation([lifted[base[q]] for q in range(self.num_qubits)])
        return self

    def inverse(self) -> "Circuit":
        inv = Circuit(self.num_qubits, global_phase=-self.global_phase)
        perm = self.final_permutation
        for gate in reversed(self.gates):
            targets = tuple(perm[t] for t in gate.targets) if perm else gate.targets
            g = gate.dagger()
            inv.gates.append(Gate(g.kind, targets, g.params, g.values))
        if perm is not None:
            inv._set_permutation(_invert_permutation(perm))
        return inv

    def unitary(self) -> np.ndarray:
        """Dense matrix of the circuit (including relabeling and global phase)."""
        return _run_circuit(np.eye(2 ** self.num_qubits, dtype=complex), self)

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    def __repr__(self) -> str:
        return f"Circuit(num_qubits={self.num_qubits}, gates={len(self.gates)})"


class StateVector:
    """Normalized pure state on `num_qubits` qubits (qubit 0 = most significant bit)."""

    def __init__(self, amplitudes: np.ndarray, check: bool = True):
        amplitudes = np.asarray(amplitudes, dtype=complex)
        n = int(round(math.log2(amplitudes.size)))
        if 2 ** n != amplitudes.size or amplitudes.ndim != 1:
            raise ValueError("amplitude array length must be a power of two")
        if check and abs(np.vdot(amplitudes, amplitudes).real - 1.0) > 1e-6:
            raise ValueError("state vector must be normalized")
        self.num_qubits = n
        self.amplitudes = amplitudes

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        amps = np.zeros(2 ** num_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(amps, check=False)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite density operator.

    `check=False` skips the three checks for a matrix valid by construction.
    """

    def __init__(self, entries: np.ndarray, check: bool = True):
        entries = np.asarray(entries, dtype=complex)
        n = int(round(math.log2(entries.shape[0])))
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or 2 ** n != entries.shape[0]:
            raise ValueError("density matrix must be square with power-of-two dimension")
        if check:
            if abs(np.trace(entries).real - 1.0) > 1e-8 or abs(np.trace(entries).imag) > 1e-8:
                raise ValueError("density matrix must have unit trace")
            if np.max(np.abs(entries - entries.conj().T)) > 1e-8:
                raise ValueError("density matrix must be Hermitian")
            try:
                np.linalg.cholesky(entries + 1e-8 * np.eye(entries.shape[0]))
            except np.linalg.LinAlgError:
                raise ValueError("density matrix must be positive semidefinite") from None
        self.num_qubits = n
        self.entries = entries

    def probabilities(self) -> np.ndarray:
        return np.clip(np.diag(self.entries).real, 0.0, None)


@dataclass(frozen=True)
class NoiseModel:
    """Two-qubit depolarizing noise applied after every two-qubit gate."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"depolarizing probability must lie in [0, 1], got {self.p}")


def _run_circuit(amps: np.ndarray, circuit: Circuit) -> np.ndarray:
    """The gates, the trailing relabeling, then the global phase; amps is (2^n,) or (2^n, batch)."""
    for gate in circuit.gates:
        amps = _apply_gate_array(amps, gate.operator(), gate.targets, circuit.num_qubits)
    if circuit.final_permutation is not None:
        amps = amps[_permutation_source(circuit.num_qubits, tuple(circuit.final_permutation))]
    if circuit.global_phase != 0.0:
        amps = amps * np.exp(1j * circuit.global_phase)
    return amps


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Run `circuit` on a pure state (noiseless)."""
    if state.num_qubits != circuit.num_qubits:
        raise ValueError("state and circuit act on different register sizes")
    return StateVector(_run_circuit(state.amplitudes, circuit), check=False)


def _dm_diagonal_pass(entries: np.ndarray, phases: np.ndarray, targets: Sequence[int], m: int, w: float) -> None:
    """In place: rho <- (1 - w) D rho D^dag + (w/4) (Tr_ab rho) (x) I_ab; w > 0 only for a pair (a, b).

    Each row class (the rows whose target bits agree) is multiplied by one
    2^m-long column-phase vector.  The share (w/4) Tr_ab rho is read before the
    multiply and added onto the four pair-diagonal blocks after it.
    """
    wires = sorted(targets)
    bounds = [-1] + wires  # rows as (.., 2, .., 2, .., tail): the axes between targets grouped
    dims = [d for lo, hi in zip(bounds, bounds[1:]) for d in (2 ** (hi - lo - 1), 2)] + [2 ** (m - 1 - wires[-1])]
    row_phases = phases.reshape([2] * len(targets)).transpose(np.argsort(targets))  # indexed in wire order
    column_phases = _apply_gate_array(np.ones(2 ** m, dtype=complex), phases.conj(), targets, m)
    every = slice(None)
    if w:
        pair = entries.reshape(dims + dims, copy=False)
        blocks = [(every, i, every, j, every) * 2 for i in (0, 1) for j in (0, 1)]
        share = (w / 4.0) * sum(pair[block] for block in blocks)
    rows = entries.reshape(dims + [2 ** m], copy=False)
    for bits in np.ndindex(row_phases.shape):
        rows[tuple(x for bit in bits for x in (every, bit))] *= ((1.0 - w) * row_phases[bits]) * column_phases
    if w:
        for block in blocks:
            pair[block] += share


def depolarize_pair(entries: np.ndarray, a: int, b: int, p: float, m: int) -> np.ndarray:
    """Two-qubit depolarizing channel on wires (a, b); returns a new array.

    Uses the twirl identity sum_{all 16 P} P rho P^dag = 16 (Tr_ab rho) (x) I/4,
    so E(rho) = (1 - 16p/15) rho + (16p/15) (Tr_ab rho) (x) I/4: the pass of a
    noisy two-qubit gate, with the identity gate, on a copy.
    """
    out = np.array(entries, dtype=complex)
    _dm_diagonal_pass(out, np.ones(4, dtype=complex), (a, b), m, 16.0 * p / 15.0)
    return out


def _basis_wires(state: StateVector) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """The wires `state` holds in a basis state, as {wire: its 2-vector}, and the amplitudes of the rest.

    A wire is held when every amplitude with one value of its bit is exactly 0;
    the remaining (live) amplitudes are the slice at the held wires' bits.
    """
    amps = state.amplitudes.reshape([2] * state.num_qubits)
    held, index = {}, []
    for q in range(state.num_qubits):
        bit = next((b for b in (0, 1) if not np.any(np.take(amps, 1 - b, axis=q))), None)
        if bit is not None:
            held[q] = np.eye(2, dtype=complex)[bit]
        index.append(slice(None) if bit is None else bit)
    return held, amps[tuple(index)].reshape(-1)


def _insert_wire(entries: np.ndarray, phi: np.ndarray, position: int) -> np.ndarray:
    """rho on k wires -> the (k+1)-wire rho with |phi><phi| as its wire `position`; a new array."""
    lead = 2 ** position
    tail = entries.shape[0] // lead
    block = np.outer(phi, phi.conj()).reshape(1, 2, 1, 1, 2, 1)
    out = entries.reshape(lead, 1, tail, lead, 1, tail) * block
    return out.reshape(2 * entries.shape[0], -1)


def apply_circuit_noisy(start: StateVector | DensityMatrix, circuit: Circuit, noise: NoiseModel) -> DensityMatrix:
    """Run `circuit` on a pure or mixed state, depolarizing after every two-qubit gate.

    Each wire a `StateVector` start holds in a basis state is a 2-vector, which
    single-qubit gates update, until a multi-qubit gate inserts it into rho (or
    the end does, before the final permutation).  A `DensityMatrix` start holds
    no wire.  Works on one copy of rho: a diagonal gate, with its channel if it
    has two targets, is one in-place pass; a dense gate makes a new array.
    """
    if start.num_qubits != circuit.num_qubits:
        raise ValueError("state and circuit act on different register sizes")
    m = circuit.num_qubits
    w = 16.0 * noise.p / 15.0
    if isinstance(start, StateVector):
        held, amps = _basis_wires(start)
        entries = np.outer(amps, amps.conj())
    else:
        held, entries = {}, start.entries.copy()
    live = [q for q in range(m) if q not in held]  # the wires of rho, in register order
    for gate in circuit.gates:
        if gate.num_targets == 1 and gate.targets[0] in held:
            # Exact: single-qubit gates are noiseless in this noise model, so a wire
            # in a product state stays in one until a multi-qubit gate reaches it.
            q = gate.targets[0]
            held[q] = gate.matrix() @ held[q]
            continue
        for q in sorted(t for t in gate.targets if t in held):
            position = bisect.bisect_left(live, q)
            entries = _insert_wire(entries, held.pop(q), position)
            live.insert(position, q)
        k = len(live)
        targets = tuple(live.index(t) for t in gate.targets)
        phases = gate.phases()
        if phases is None:  # U on the row axes, then conj(U) on the column axes; each step frees its input
            u, shape, columns = gate.matrix(), entries.shape, tuple(t + k for t in targets)
            entries = _apply_gate_array(entries.reshape(-1), u, targets, 2 * k)
            entries = _apply_gate_array(entries, u.conj(), columns, 2 * k).reshape(shape)
        else:
            _dm_diagonal_pass(entries, phases, targets, k, w if gate.num_targets == 2 else 0.0)
    for q in sorted(held):
        entries = _insert_wire(entries, held[q], q)  # the held wires below q are inserted already
    if circuit.final_permutation is not None:
        src = _permutation_source(m, tuple(circuit.final_permutation))
        entries = entries[np.ix_(src, src)]
    return DensityMatrix(entries, check=False)


def sample_bitstrings(state: StateVector | DensityMatrix, shots: int, seed: int) -> np.ndarray:
    """Draw Born-rule samples; returns the count of each basis index (qubit 0 most significant)."""
    if shots < 1:
        raise ValueError("shots must be a positive integer")
    probs = state.probabilities()
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if not 0.999 < total < 1.001:
        raise ValueError("state probabilities do not sum to one")
    probs = probs / total
    return np.random.default_rng(seed).multinomial(shots, probs)


def state_infidelity(exact: StateVector, state: StateVector | DensityMatrix) -> float:
    """1 - <exact| rho |exact> for mixed states; 1 - |<exact|psi>|^2 for pure ones, evaluated without
    cancellation as |d|^2 (1 - |d|^2 / 4) with d = exact - e^{-i arg<exact|psi>} psi."""
    if exact.num_qubits != state.num_qubits:
        raise ValueError("states act on different register sizes")
    if isinstance(state, StateVector):
        overlap = np.vdot(exact.amplitudes, state.amplitudes)
        d = exact.amplitudes - np.exp(-1j * np.angle(overlap)) * state.amplitudes
        d2 = np.vdot(d, d).real
        eps = d2 * (1.0 - d2 / 4.0)
    else:
        val = np.vdot(exact.amplitudes, state.entries @ exact.amplitudes)
        if abs(val.imag) > 1e-10:
            raise ValueError("fidelity has a non-negligible imaginary part; invalid density matrix")
        eps = 1.0 - val.real
    if not -1e-9 <= eps <= 1.0 + 1e-9:
        raise ValueError(f"infidelity {eps} outside [0, 1]")
    return float(min(max(eps, 0.0), 1.0))
