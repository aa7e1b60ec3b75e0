"""Reference constructions that only the tests compare the library against.

Most are built directly from their definition, independently of the code
under test: the central-difference Laplacian as an explicit matrix, the
small-angle phase diagonal as a signed-wavenumber table, the purity
Tr(rho^2), the projector of a pure state, the shot count of a relative
error, and the per-outcome statistics of a shot histogram.  `density` builds a
`DensityMatrix`, which holds vec(rho), from a standard-layout matrix.
`smallangle_evolve` is the spectral route with the linearized frequencies
2 pi k, the FFT evolution of `exact_evolve` with other phases.

`validated` holds the checks that a physical state passes and that the
state classes leave to their callers: a normalized `StateVector`, and a
unit-trace, Hermitian, positive semidefinite `DensityMatrix`.

`unitary` is a circuit's dense matrix: the library's own gate loop run on the
identity, so the circuit tests read every gate, relabeling and phase at once.
`cost` is the prep cost 1 - Re <target|U(theta)|0...0> from `prepare_state`,
the value the exact gradient's cost must equal.

`stacked_blocks` and `stacked_cost_and_gradient` are the brickwall builder
and adjoint gradient in their earlier form: four `_euler` calls built from
nested `np.stack`s, five separate partial products joined by
`np.concatenate`, and one cross-matrix gemm per block.  They make the same
products on the same operands as `qwave.stateprep`, so the library must match
them bit for bit (the BFGS path of training moves with the last bits).

`out_of_place_noisy` is the noisy loop on vec(rho) in its plainest form:
each dense gate writes a new vec(rho) from the whole-array kernel, the
depolarizing share is a `sum()` of the four pair-diagonal views, and the end
un-interleaves with a `transpose` copy.  The in-place, slab-by-slab library
loop makes the same products, so it must match bit for bit.

`interleaved_outer` is vec(|a><b|) as one broadcast over 2k axes of length
2, each entry the one product a[r] b_conj[c]; `qwave.sim._interleaved_outer`
makes the same products, so it must match bit for bit.

`standard_layout_noisy` is the earlier engine on the (2^m, 2^m) rho: a row
pass with U and a column pass with conj(U) per dense gate, and a diagonal
pass over row classes.  It rounds differently from U (x) conj(U) in one
product, so it is a tolerance oracle.
"""

import bisect
import math

import numpy as np

from qwave.sim import (
    Circuit,
    DensityMatrix,
    StateVector,
    _apply_gate_array,
    _basis_wires,
    _permutation_source,
    _run_circuit,
)
from qwave.spectral import _evolve, wavenumbers
from qwave.stateprep import BLOCK_PARAMS, BrickwallAnsatz, _check_target, prepare_state


def laplacian_matrix(N: int) -> np.ndarray:
    """Central-difference periodic Laplacian on N grid points, spacing a = 1/N."""
    if N < 2:
        raise ValueError("need at least two grid points")
    lap = np.zeros((N, N))
    for j in range(N):
        lap[j, j] = -2.0
        lap[j, (j - 1) % N] += 1.0
        lap[j, (j + 1) % N] += 1.0
    return lap * N ** 2


def smallangle_diagonal_values(n: int, t: float) -> np.ndarray:
    """Reference diagonal e^{-i t 2 pi k z0} over the full (n+1)-qubit register."""
    k = wavenumbers(2 ** n)
    return np.concatenate([
        np.exp(-2j * np.pi * k * t),   # z0 = +1 sector (qubit 0 = |0>)
        np.exp(+2j * np.pi * k * t),   # z0 = -1 sector
    ])


def unitary(circuit: Circuit) -> np.ndarray:
    """Dense matrix of the circuit (including relabeling and global phase)."""
    return _run_circuit(np.eye(2 ** circuit.num_qubits, dtype=complex), circuit)


def cost(ansatz: BrickwallAnsatz, theta: np.ndarray, target: StateVector) -> float:
    """C(theta) = 1 - Re <target|U(theta)|0...0> (global phase is penalized)."""
    _check_target(ansatz, target)
    overlap = np.vdot(target.amplitudes, prepare_state(ansatz, theta).amplitudes)
    return float(1.0 - overlap.real)


def purity(rho) -> float:
    """Tr(rho^2) of a DensityMatrix: 1 for a pure state, below 1 for a mixed one."""
    return float(np.trace(rho.entries @ rho.entries).real)


def density(rho: np.ndarray) -> DensityMatrix:
    """The DensityMatrix of a standard-layout (2^m, 2^m) rho: vec(rho) on the axes (r_0, c_0, r_1, c_1, ...)."""
    rho = np.asarray(rho, dtype=complex)
    m = rho.shape[0].bit_length() - 1
    vec = rho.reshape([2] * (2 * m)).transpose([x for q in range(m) for x in (q, q + m)])
    return DensityMatrix(np.array(vec, order="C").reshape(-1))


def pure_density(state: StateVector) -> DensityMatrix:
    """|psi><psi| of a pure state."""
    a = state.amplitudes
    return density(np.outer(a, a.conj()))


def validated(state: StateVector | DensityMatrix) -> StateVector | DensityMatrix:
    """`state` itself, or a ValueError for the first check of a physical state it fails."""
    if isinstance(state, StateVector):
        if abs(np.vdot(state.amplitudes, state.amplitudes).real - 1.0) > 1e-6:
            raise ValueError("state vector must be normalized")
        return state
    entries = state.entries
    if abs(np.trace(entries).real - 1.0) > 1e-8 or abs(np.trace(entries).imag) > 1e-8:
        raise ValueError("density matrix must have unit trace")
    if np.max(np.abs(entries - entries.conj().T)) > 1e-8:
        raise ValueError("density matrix must be Hermitian")
    try:
        np.linalg.cholesky(entries + 1e-8 * np.eye(entries.shape[0]))
    except np.linalg.LinAlgError:
        raise ValueError("density matrix must be positive semidefinite") from None
    return state


def smallangle_evolve(psi0: np.ndarray, t: float) -> StateVector:
    """Evolution of a static wavefield with the linearized frequencies 2 pi k."""
    psi0 = np.asarray(psi0, dtype=complex)
    return _evolve(psi0, np.zeros_like(psi0), t, 2.0 * np.pi * wavenumbers(psi0.size))


def shots_required(p: float, eps_rel: float) -> int:
    """Shots needed so the relative Monte-Carlo error of estimating p is eps_rel."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if eps_rel <= 0.0:
        raise ValueError("eps_rel must be positive")
    return math.ceil((1.0 - p) / (p * eps_rel ** 2))


def mc_errors(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-outcome shot statistics of a counts array: (p_hat, eps_mc, eps_rel).

    eps_mc = sqrt(p_hat (1 - p_hat) / shots); eps_rel = eps_mc / p_hat,
    reported as NaN where p_hat = 0.
    """
    counts = np.asarray(counts)
    if np.any(counts < 0):
        raise ValueError("negative count")
    shots = counts.sum()
    if shots <= 0:
        raise ValueError("counts contain no shots")
    p_hat = counts / shots
    eps_mc = np.sqrt(p_hat * (1.0 - p_hat) / shots)
    eps_rel = np.full(p_hat.shape, np.nan)
    np.divide(eps_mc, p_hat, out=eps_rel, where=p_hat > 0)
    return p_hat, eps_mc, eps_rel


_Z_DIAG = np.array([1.0, -1.0])
_MINUS_I_GENERATORS = -1j * np.array(
    [
        np.fliplr(np.eye(4)),  # XX
        np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0])),  # YY
        np.diag([1.0, -1.0, -1.0, 1.0]),  # ZZ
    ]
)


def _ry(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """[[c, -s], [s, c]] over broadcast arrays, stacked on two trailing axes."""
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


def _euler(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rz(c) Ry(b) Rz(a) for angles (..., 3) and its partials (..., 3, 2, 2) by generator insertion."""
    a, b, c = np.moveaxis(angles, -1, 0)
    left = np.exp(-1j * c[..., None] * _Z_DIAG)[..., :, None]
    right = np.exp(-1j * a[..., None] * _Z_DIAG)[..., None, :]
    cos_b, sin_b = np.cos(b), np.sin(b)
    e = left * _ry(cos_b, sin_b) * right
    minus_i_z = -1j * _Z_DIAG
    partials = np.stack([e * minus_i_z, left * _ry(-sin_b, cos_b) * right, minus_i_z[:, None] * e], -3)
    return e, partials


def _entangler(angles: np.ndarray) -> np.ndarray:
    """exp(-i (a XX + b YY + c ZZ)) for angles (..., 3), in closed form."""
    a, b, c = np.moveaxis(angles, -1, 0)
    w = np.zeros(a.shape + (4, 4), dtype=complex)
    outer, inner = np.exp(-1j * c), np.exp(1j * c)
    w[..., 0, 0] = w[..., 3, 3] = outer * np.cos(a - b)
    w[..., 0, 3] = w[..., 3, 0] = -1j * outer * np.sin(a - b)
    w[..., 1, 1] = w[..., 2, 2] = inner * np.cos(a + b)
    w[..., 1, 2] = w[..., 2, 1] = -1j * inner * np.sin(a + b)
    return w


def _kron22(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(*shape, 4, 4)


def stacked_blocks(per_block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unitaries (B, 4, 4) and partials (B, 15, 4, 4) of (A1 x A2) W (B1 x B2), one factor at a time."""
    b1, db1 = _euler(per_block[:, 0:3])
    b2, db2 = _euler(per_block[:, 3:6])
    a1, da1 = _euler(per_block[:, 9:12])
    a2, da2 = _euler(per_block[:, 12:15])
    w = _entangler(per_block[:, 6:9])
    pre, post = _kron22(b1, b2), _kron22(a1, a2)
    post_w, w_pre = (post @ w)[:, None], (w @ pre)[:, None]
    partials = np.concatenate(
        [
            post_w @ _kron22(db1, b2[:, None]),
            post_w @ _kron22(b1[:, None], db2),
            post[:, None] @ _MINUS_I_GENERATORS @ w_pre,
            _kron22(da1, a2[:, None]) @ w_pre,
            _kron22(a1[:, None], da2) @ w_pre,
        ],
        axis=1,
    )
    return post_w[:, 0] @ pre, partials


def stacked_cost_and_gradient(
    ansatz: BrickwallAnsatz, theta: np.ndarray, target: StateVector
) -> tuple[float, np.ndarray]:
    """C(theta) and its adjoint gradient, with one transposed copy and one gemm per block."""
    blocks_u, partials = stacked_blocks(np.asarray(theta, dtype=float).reshape(-1, BLOCK_PARAMS))
    m = ansatz.num_qubits
    forwards = [StateVector.zero(m).amplitudes]
    for pair, u4 in zip(ansatz.blocks, blocks_u):
        forwards.append(_apply_gate_array(forwards[-1], u4, pair, m))
    overlap = complex(np.vdot(target.amplitudes, forwards[-1]))
    back = target.amplitudes
    cross = np.empty_like(blocks_u)
    for i in range(len(blocks_u) - 1, -1, -1):
        pair = ansatz.blocks[i]
        f, g = (v.reshape(2 ** pair[0], 4, -1).transpose(1, 0, 2).reshape(4, -1) for v in (forwards[i], back))
        cross[i] = f @ g.conj().T
        back = _apply_gate_array(back, blocks_u[i].conj().T, pair, m)
    return 1.0 - overlap.real, -np.einsum("bjik,bki->bj", partials, cross).real.ravel()


def _insert_wire(entries: np.ndarray, phi: np.ndarray, position: int) -> np.ndarray:
    """rho on k wires -> the (k+1)-wire rho with |phi><phi| as its wire `position`; a new array."""
    lead = 2 ** position
    tail = entries.shape[0] // lead
    block = np.outer(phi, phi.conj()).reshape(1, 2, 1, 1, 2, 1)
    out = entries.reshape(lead, 1, tail, lead, 1, tail) * block
    return out.reshape(2 * entries.shape[0], -1)


def _summed_diagonal_pass(entries: np.ndarray, phases: np.ndarray, targets, m: int, w: float) -> None:
    """rho <- (1 - w) D rho D^dag + (w/4) (Tr_ab rho) (x) I_ab in place, the share summed with sum()."""
    wires = sorted(targets)
    bounds = [-1] + wires
    dims = [d for lo, hi in zip(bounds, bounds[1:]) for d in (2 ** (hi - lo - 1), 2)] + [2 ** (m - 1 - wires[-1])]
    row_phases = phases.reshape([2] * len(targets)).transpose(np.argsort(targets))
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


def standard_layout_noisy(start, circuit, p: float) -> np.ndarray:
    """The entries of the noisy run of `circuit` from `start` on the standard-layout rho."""
    m = circuit.num_qubits
    w = 16.0 * p / 15.0
    if isinstance(start, StateVector):
        held, amps = _basis_wires(start)
        entries = np.outer(amps, amps.conj())
    else:
        held, entries = {}, start.entries
    live = [q for q in range(m) if q not in held]
    for gate in circuit.gates:
        if gate.num_targets == 1 and gate.targets[0] in held:
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
        if phases is None:
            u, shape, columns = gate.matrix(), entries.shape, tuple(t + k for t in targets)
            entries = _apply_gate_array(entries.reshape(-1), u, targets, 2 * k)
            entries = _apply_gate_array(entries, u.conj(), columns, 2 * k).reshape(shape)
        else:
            _summed_diagonal_pass(entries, phases, targets, k, w if gate.num_targets == 2 else 0.0)
    for q in sorted(held):
        entries = _insert_wire(entries, held[q], q)
    if circuit.final_permutation is not None:
        src = _permutation_source(m, tuple(circuit.final_permutation))
        entries = entries[np.ix_(src, src)]
    return entries


def interleaved_outer(a: np.ndarray, b_conj: np.ndarray, k: int) -> np.ndarray:
    """a[r] b_conj[c] at the interleaved index (r_0, c_0, r_1, c_1, ...) of k wires, by broadcasting."""
    return (a.reshape([2, 1] * k) * b_conj.reshape([1, 2] * k)).reshape(-1)


def _summed_vec_pass(vec: np.ndarray, phases: np.ndarray, targets, k: int, w: float) -> None:
    """The diagonal gate and its channel on vec(rho) in place, the share summed with sum()."""
    wires = sorted(targets)
    bounds = [-1] + wires
    dims = [d for lo, hi in zip(bounds, bounds[1:]) for d in (4 ** (hi - lo - 1), 4)] + [4 ** (k - 1 - wires[-1])]
    row = phases.reshape([2] * len(targets)).transpose(np.argsort(targets))
    factor = ((1.0 - w) * row.reshape([2, 1] * len(targets))) * row.conj().reshape([1, 2] * len(targets))
    view = vec.reshape(dims, copy=False)
    every = slice(None)
    if w:
        diagonal = [view[every, i, every, j, every] for i in (0, 3) for j in (0, 3)]
        share = (w / 4.0) * sum(diagonal)
    view *= factor.reshape([1, 4] * len(targets) + [1])
    if w:
        for sub in diagonal:
            sub += share


def out_of_place_noisy(start, circuit, p: float) -> np.ndarray:
    """The entries of the noisy run of `circuit` from `start` on vec(rho), each dense gate into a new vec."""
    m = circuit.num_qubits
    w = 16.0 * p / 15.0
    if isinstance(start, StateVector):
        held, amps = _basis_wires(start)
        k = int(round(math.log2(amps.size)))
        vec = np.multiply.outer(amps, amps.conj()).reshape([2] * (2 * k))
        vec = vec.transpose([x for q in range(k) for x in (q, q + k)]).reshape(-1)
    else:
        held, vec = {}, start.vec.copy()
    live = [q for q in range(m) if q not in held]
    for gate in circuit.gates:
        if gate.num_targets == 1 and gate.targets[0] in held:
            q = gate.targets[0]
            held[q] = gate.matrix() @ held[q]
            continue
        for q in sorted(t for t in gate.targets if t in held):
            position, phi = bisect.bisect_left(live, q), held.pop(q)
            vec = (vec.reshape(4 ** position, 1, -1) * np.outer(phi, phi.conj()).reshape(1, 4, 1)).reshape(-1)
            live.insert(position, q)
        k = len(live)
        targets = tuple(live.index(t) for t in gate.targets)
        phases = gate.phases()
        if phases is None:
            u, (t,) = gate.matrix(), targets
            vec = _apply_gate_array(vec, np.kron(u, u.conj()), (2 * t, 2 * t + 1), 2 * k)
        else:
            _summed_vec_pass(vec, phases, targets, k, w if gate.num_targets == 2 else 0.0)
    for q in sorted(held):
        vec = (vec.reshape(4 ** q, 1, -1) * np.outer(held[q], held[q].conj()).reshape(1, 4, 1)).reshape(-1)
    entries = vec.reshape([2] * (2 * m)).transpose([2 * q for q in range(m)] + [2 * q + 1 for q in range(m)])
    entries = entries.reshape(2 ** m, 2 ** m)
    if circuit.final_permutation is not None:
        src = _permutation_source(m, tuple(circuit.final_permutation))
        entries = entries[np.ix_(src, src)]
    return entries
