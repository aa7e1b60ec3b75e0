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

One gate kernel, `_apply_gate_array`, serves the statevector: a diagonal gate
(RZ, RZZ, CPHASE, DIAG) multiplies the amplitudes by its phases, a dense one
(H, PHASEDX) is one matmul over its consecutive target axes, in
`_apply_dense`, which state prep calls directly for its 4x4 blocks.

A noisy run keeps rho as vec(rho), the 2m-qubit vector whose axes put each
wire's row and column bits side by side, (r_0, c_0, r_1, c_1, ...), as QuEST
does (Jones et al., arXiv:1802.08032).  Wire q then owns one 4-valued axis
Q_q = 2 r_q + c_q.  A dense gate U on wire q is the same kernel with
U (x) conj(U) on that axis, in place: it overwrites vec(rho) slab by slab,
1 MiB at a time.  H (x) conj(H) is real, so on rows of 16 or more entries H
runs as a real matmul on the float view of vec(rho), with the complex
product's bits at a quarter of its flops.  A diagonal gate is one in-place
multiply by (1 - w) D_r conj(D_c) on its targets' axes.  Every two-qubit
gate is diagonal, and D on (a, b) leaves Tr_ab rho unchanged, so its channel
folds into the same pass:

    E(D rho D^dag) = (1 - w) D rho D^dag + (w/4) (Tr_ab rho) (x) I_ab,  w = 16p/15,

with the partial trace, the four views with Q_a, Q_b in {0, 3}, read before
the multiply and added back onto them after it.  `DensityMatrix` holds
vec(rho) from start to result: its diagonal is the entries whose every Q is 0
or 3, and `state_infidelity` forms rho's rows a block at a time.  Only
`DensityMatrix.entries` builds the standard (2^m, 2^m) layout, as a copy.

A noisy run from a pure state keeps each wire that the state holds in a basis
state out of rho, as a 2-vector, until the first multi-qubit gate touches it.
That is exact because single-qubit gates are noiseless: until then the wire
stays in a product with the rest, and each single-qubit gate on it updates its
2-vector.  The injected wavefield holds wire 0 in |0>, so the inverse QFT runs
on a 4x smaller rho.

vec(rho) may also run as rows split on its leading wires, those that meet
only diagonal gates: row i is its slice at the 4-valued axes keys[i] of those
wires.  One function, `_vec_gate`, applies every gate to vec(rho), whole or
split.  The rows are a leading batch, so a gate on any other wire is one call
over all of them, and a gate on a split wire multiplies each row by that
row's factor.  A sweep point uses this to leave out the rows that are mirrors
of others.
"""

from __future__ import annotations

import bisect
import itertools
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
_H_VEC = np.kron(_H_MATRIX, _H_MATRIX.conj()).real  # H (x) conj(H) on vec(rho) is real: a real matmul

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
    return _apply_dense(amps, u, q)


_SLAB = 2 ** 16  # entries an in-place dense gate works on at once: 1 MiB of complex128


def _apply_dense(amps: np.ndarray, u: np.ndarray, q: int, in_place: bool = False, rows: int = 1) -> np.ndarray:
    """The dense branch of `_apply_gate_array`, unchecked: `u` on the wires q, q+1, ... of amps.

    With `in_place`, a C-contiguous amps is overwritten slab by slab, at most
    `_SLAB` entries at a time, and returned: no second array of its size is
    made.  Every slab takes the branch the whole array selects, and each
    product sees the same operands, so both modes give the same bits.  A real
    `u` on complex amps gives the bits of its complex form; in place, on rows
    of at least 16 entries, it runs as a real matmul on the float view of amps.
    In place, `rows` > 1 makes amps that many equal rows, a leading batch: `u`
    acts on wires q, q+1, ... of each, on the branch one row selects, so each
    row gets the bits of an in-place call on it alone.
    """
    lead, dim = rows * 2 ** q, len(u)
    rest = amps.size // (lead * dim)
    matmul = rest >= 16 or (rest >= 4 and 2 ** q <= 64)
    real = u.dtype == np.float64  # H (x) conj(H) on vec(rho)
    if real and not (in_place and rest >= 16):
        # Elsewhere a real u runs in its complex form: at rest = 1 the real product, and numpy's
        # mixed-type one, round differently from the short-row gemm.
        u, real = u.astype(complex), False
    if not matmul:
        # Short rows: matmul loops over `lead` tiny products (~0.5 us each), and below rest = 4
        # it leaves BLAS gemm and rounds differently, which moves the BFGS path of state-prep
        # training.  One gemm with (u x I_rest)^T is faster and rounds like the rest.
        wide = u.T
        if rest > 1:
            wide = (wide[:, None, :, None] * np.eye(rest)[None, :, None, :]).reshape(dim * rest, -1)
    if not in_place:
        out = np.matmul(u, amps.reshape(lead, dim, rest)) if matmul else amps.reshape(lead, dim * rest) @ wide
        return out.reshape(amps.shape)
    # A short-row slab keeps whole rows (width = rest), so its reshape is a view; `step` is a
    # power of two, so it has a single lead only when each row of a batch has one (q = 0), and
    # then every slab takes one: a one-row product rounds differently from a gemm over several.
    blocks = amps.reshape(lead, dim, rest, copy=False)
    step, width = (max(1, _SLAB // (dim * rest)) if matmul or q else 1), min(rest, _SLAB // dim)
    if real:
        # The real u meets each complex entry as two floats: the products and sums of the complex
        # matmul, bit for bit, at a quarter of its flops.
        blocks, rest, width = blocks.view(np.float64), 2 * rest, 2 * width
    for i in range(0, lead, step):
        for j in range(0, rest, width):
            slab = blocks[i:i + step, :, j:j + width]
            slab[...] = np.matmul(u, slab) if matmul else (slab.reshape(len(slab), -1) @ wide).reshape(slab.shape)
    return amps


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

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    def __repr__(self) -> str:
        return f"Circuit(num_qubits={self.num_qubits}, gates={len(self.gates)})"


class StateVector:
    """Normalized pure state on `num_qubits` qubits (qubit 0 = most significant bit)."""

    def __init__(self, amplitudes: np.ndarray):
        amplitudes = np.asarray(amplitudes, dtype=complex)
        n = int(round(math.log2(amplitudes.size)))
        if 2 ** n != amplitudes.size or amplitudes.ndim != 1:
            raise ValueError("amplitude array length must be a power of two")
        self.num_qubits = n
        self.amplitudes = amplitudes

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        amps = np.zeros(2 ** num_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite density operator, held as vec(rho).

    `vec` has 4^m entries on the 4-valued axes Q_q = 2 r_q + c_q, wire 0 first.
    """

    def __init__(self, vec: np.ndarray):
        vec = np.asarray(vec, dtype=complex)
        m = (vec.size.bit_length() - 1) // 2
        if vec.ndim != 1 or vec.size != 4 ** m:
            raise ValueError("density matrix must be a vec(rho) of 4^m entries: square with power-of-two dimension")
        self.num_qubits = m
        self.vec = vec

    def _standard_view(self) -> np.ndarray:
        """vec as rho's (r_0, .., r_m-1, c_0, .., c_m-1) axes of length 2: a transposed view, no copy."""
        m = self.num_qubits
        return self.vec.reshape([2] * (2 * m)).transpose([2 * q for q in range(m)] + [2 * q + 1 for q in range(m)])

    @property
    def entries(self) -> np.ndarray:
        """rho in the standard (2^m, 2^m) layout: a new array."""
        return np.array(self._standard_view(), order="C").reshape(2 ** self.num_qubits, -1)

    def probabilities(self) -> np.ndarray:
        diagonal = self.vec.reshape([4] * self.num_qubits)[(slice(None, None, 3),) * self.num_qubits]
        return np.clip(diagonal.real.reshape(-1), 0.0, None)


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
    return StateVector(_run_circuit(state.amplitudes, circuit))


def _vec_factor(phases: np.ndarray, targets: Sequence[int], w: float) -> np.ndarray:
    """(1 - w) D_r conj(D_c) on the targets' 4-valued axes Q = 2r + c, in wire order: the pass's multiplier."""
    k = len(targets)
    row = phases.reshape([2] * k).transpose(np.argsort(targets))  # indexed in wire order
    return (((1.0 - w) * row.reshape([2, 1] * k)) * row.conj().reshape([1, 2] * k)).reshape([4] * k)


def _grouped(wires: Sequence[int], k: int) -> list[int]:
    """k 4-valued axes as (-1, 4, .., 4, .., tail): the axes between the sorted `wires` grouped, -1 with any rows."""
    bounds = [-1] + list(wires)
    dims = [d for lo, hi in zip(bounds, bounds[1:]) for d in (4 ** (hi - lo - 1), 4)] + [4 ** (k - 1 - bounds[-1])]
    return [-1] + dims[1:]


_RUN = 4  # trailing axes that a factor is spelled out over, so that no inner loop is shorter than 4^4


def _scale(vec: np.ndarray, factor: np.ndarray, wires: Sequence[int], k: int) -> None:
    """vec *= factor in place; factor is on the sorted `wires` of vec's k 4-valued axes, broadcast over the rest.

    factor's leading axis holds one factor for all of vec's rows, or one per row.
    """
    cut, rows = max(0, k - _RUN), len(factor)
    outer = [q for q in wires if q < cut]
    run = factor.reshape([rows] + [4] * len(outer) + [4 if q in wires else 1 for q in range(cut, k)])
    run = np.broadcast_to(run, run.shape[:1 + len(outer)] + (4,) * (k - cut))
    view = vec.reshape([rows] + _grouped(outer, cut) + [4 ** (k - cut)], copy=False)
    view *= run.reshape([rows] + [1, 4] * len(outer) + [1, -1])


def _share(diagonal: Sequence[np.ndarray], w: float) -> np.ndarray:
    """(w/4) (d0 + d1 + d2 + d3), summed as 0 + d0 + d1 + ... in one buffer."""
    share = np.add(0, diagonal[0])
    for sub in diagonal[1:]:
        np.add(share, sub, out=share)
    return np.multiply(w / 4.0, share, out=share)


_CORNERS = list(itertools.product((0, 3), repeat=2))  # (Q_a, Q_b) of the four views a pair's share sums


def _vec_gate(rows: np.ndarray, keys: Sequence[tuple[int, ...]], gate: Gate, targets: Sequence[int], w: float) -> None:
    """In place: `gate` on `targets` of vec(rho), whole or split into rows, with its channel if it is a pair.

    Row i of the C-contiguous (R, 4^k) `rows` is vec(rho)'s slice at the
    4-valued axes keys[i] of wires 0..s-1 (keys = [()]: the whole vec(rho)).
    Rows may be left out, unless a kept row needs them in a channel share.  A
    dense gate must miss the split wires: U (x) conj(U) on every row, in one
    batched call.  A diagonal gate multiplies each entry by (1 - w) D_r
    conj(D_c), one factor for all rows or, on a split target, each row's own.
    A pair's share (w/4) Tr_ab rho is read before the multiply and added back
    after it: per group of rows that agree off the split targets, the sum of
    the four views whose targets' Q are 0 or 3 (with no split target, one
    group of all rows).  Each entry gets the same factor, share and summation
    order however vec(rho) is split, so the rows keep the bits of the whole.
    """
    s, k = len(keys[0]), (rows.size // len(keys)).bit_length() // 2
    phases = gate.phases()
    if phases is None:
        u = gate.matrix()
        u = _H_VEC if gate.kind == HADAMARD else np.kron(u, u.conj())
        _apply_dense(rows, u, 2 * (targets[0] - s), in_place=True, rows=len(keys))
        return
    w = w if gate.num_targets == 2 else 0.0
    wires = sorted(targets)
    split, content = [q for q in wires if q < s], [q - s for q in wires if q >= s]
    factor = _vec_factor(phases, targets, w)  # split targets first
    factor = np.array([factor[tuple(key[q] for q in split)] for key in keys]) if split else factor[None]
    diagonals = []
    if w:
        every, view = slice(None), rows.reshape([len(keys)] + _grouped(content, k), copy=False)
        groups = [[every] * 4]  # the row of each corner, per group
        if split:  # a group per row with the split targets at Q = 0
            index = {key: i for i, key in enumerate(keys)}
            groups = [[index[tuple(dict(zip(split, at)).get(q, v) for q, v in enumerate(key))] for at in _CORNERS]
                      for key in keys if not any(key[q] for q in split)]
        for group in groups:
            diagonal = [view[(row,) + tuple(x for v in at[len(split):] for x in (every, v))]
                        for row, at in zip(group, _CORNERS)]
            diagonals.append((diagonal, _share(diagonal, w)))
    _scale(rows, factor, content, k)
    for diagonal, share in diagonals:
        for sub in diagonal:
            sub += share


def depolarize_pair(entries: np.ndarray, a: int, b: int, p: float) -> np.ndarray:
    """Two-qubit depolarizing channel on wires (a, b); returns a new array.

    Uses the twirl identity sum_{all 16 P} P rho P^dag = 16 (Tr_ab rho) (x) I/4,
    so E(rho) = (1 - 16p/15) rho + (16p/15) (Tr_ab rho) (x) I/4: `_vec_gate`
    with the two-wire identity DIAG, on an interleaved copy, read back by `.entries`.
    """
    vec = _interleave(np.asarray(entries, dtype=complex))
    _vec_gate(vec, [()], Gate(DIAG, (a, b), values=np.ones(4)), (a, b), 16.0 * p / 15.0)
    return DensityMatrix(vec).entries


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


def _interleave(entries: np.ndarray) -> np.ndarray:
    """vec(rho) of a (2^m, 2^m) rho, axes (r_0, c_0, r_1, c_1, ...): one new array."""
    m = entries.shape[0].bit_length() - 1
    return np.array(entries.reshape([2] * (2 * m)).transpose([x for q in range(m) for x in (q, q + m)])).reshape(-1)


_LOW = 3  # wires whose (row, column) order `_interleaved_outer` gathers: inner loops of 4^3 entries


def _interleaved_outer(a: np.ndarray, b_conj: np.ndarray, k: int) -> np.ndarray:
    """vec(|a><b|) on k wires, a[r] b_conj[c] at the interleaved index (r_0, c_0, r_1, c_1, ...); a new array.

    The low wires' (r, c) order is gathered from a and b_conj once, and the
    product runs through a (r_high, c_high, low) view of the output, so each
    inner loop covers 4^`_LOW` entries.  Each entry is the one product a
    broadcast over 2k axes of length 2 makes, so the bits are the same.
    """
    low = min(k, _LOW)
    high = k - low
    bits = np.arange(2 ** low)
    rows = np.broadcast_to(bits.reshape([2, 1] * low), [2] * (2 * low)).reshape(-1)
    cols = np.broadcast_to(bits.reshape([1, 2] * low), [2] * (2 * low)).reshape(-1)
    out = np.empty(4 ** k, dtype=np.result_type(a, b_conj))
    view = out.reshape([2] * (2 * high) + [-1]).transpose([*range(0, 2 * high, 2), *range(1, 2 * high, 2), -1])
    np.multiply(a.reshape(2 ** high, -1)[:, rows].reshape([2] * high + [1] * high + [-1]),
                b_conj.reshape(2 ** high, -1)[:, cols].reshape([1] * high + [2] * high + [-1]), out=view)
    return out


def _insert_held(vec: np.ndarray, phi: np.ndarray, position: int) -> np.ndarray:
    """vec(rho) on k wires -> vec of the (k+1)-wire rho with |phi><phi| as its wire `position`; a new array."""
    return (vec.reshape(4 ** position, 1, -1) * np.outer(phi, phi.conj()).reshape(1, 4, 1)).reshape(-1)


def _noisy_vec(start: StateVector | np.ndarray, circuit: Circuit, w: float) -> np.ndarray:
    """vec(rho) after the gates of `circuit`, depolarizing with weight w = 16p/15 after each pair gate.

    A `StateVector` start keeps each wire it holds in a basis state as a
    2-vector, which single-qubit gates update, until a multi-qubit gate (or
    the end) inserts it.  An array start is the vec(rho) of every wire, and is
    overwritten.  The trailing relabeling is left to the caller.
    """
    if isinstance(start, StateVector):
        held, amps = _basis_wires(start)
        k = amps.size.bit_length() - 1
        vec = _interleaved_outer(amps, amps.conj(), k)
    else:
        held, vec = {}, start
    live = [q for q in range(circuit.num_qubits) if q not in held]  # the wires of rho, in register order
    for gate in circuit.gates:
        if gate.num_targets == 1 and gate.targets[0] in held:
            # Exact: single-qubit gates are noiseless in this noise model, so a wire
            # in a product state stays in one until a multi-qubit gate reaches it.
            q = gate.targets[0]
            held[q] = gate.matrix() @ held[q]
            continue
        for q in sorted(t for t in gate.targets if t in held):
            position = bisect.bisect_left(live, q)
            vec = _insert_held(vec, held.pop(q), position)
            live.insert(position, q)
        _vec_gate(vec, [()], gate, [live.index(t) for t in gate.targets], w)
    for q in sorted(held):
        vec = _insert_held(vec, held[q], q)  # the held wires below q are inserted already
    return vec


def apply_circuit_noisy(start: StateVector | DensityMatrix, circuit: Circuit, noise: NoiseModel) -> DensityMatrix:
    """Run `circuit` on a pure or mixed state, depolarizing after every two-qubit gate.

    The run works on vec(rho) (`_noisy_vec`): a pure start builds it from its
    amplitudes, a `DensityMatrix` start is copied into one new array.  A
    trailing relabeling is one transposed copy of vec(rho)'s 4-valued axes.
    """
    if start.num_qubits != circuit.num_qubits:
        raise ValueError("state and circuit act on different register sizes")
    if isinstance(start, DensityMatrix):
        start = start.vec.copy()
    vec = _noisy_vec(start, circuit, 16.0 * noise.p / 15.0)
    if circuit.final_permutation is not None:
        inv = _invert_permutation(circuit.final_permutation)  # wire q's axis moves to perm[q]
        vec = vec.reshape([4] * circuit.num_qubits).transpose(inv).reshape(-1)
    return DensityMatrix(vec)


def sample_bitstrings(state: StateVector | DensityMatrix, shots: int, seed: int) -> np.ndarray:
    """Draw Born-rule samples; returns the count of each basis index (qubit 0 most significant)."""
    if shots < 1:
        raise ValueError("shots must be a positive integer")
    probs = state.probabilities()
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
        # rho's rows in up to 8 blocks by the leading row bits, so rho @ psi never holds a second rho; a block
        # keeps 2 rows or more, which gemv rounds as it does the whole rho (one row would round as a dot)
        rows, psi = state._standard_view(), exact.amplitudes
        lead = [2] * min(state.num_qubits - 1, 3)
        rho_psi = np.concatenate([rows[bits].reshape(-1, psi.size) @ psi for bits in np.ndindex(*lead)])
        val = np.vdot(psi, rho_psi)
        if abs(val.imag) > 1e-10:
            raise ValueError("fidelity has a non-negligible imaginary part; invalid density matrix")
        eps = 1.0 - val.real
    if not -1e-9 <= eps <= 1.0 + 1e-9:
        raise ValueError(f"infidelity {eps} outside [0, 1]")
    return float(min(max(eps, 0.0), 1.0))
