"""Ricker-wavelet targets and variational brickwall state preparation.

The initial wavefield is a Ricker wavelet sampled on the N = 2^n grid,
placed in the qubit-0 = |0> sector of the n + 1 qubit register (static
initial condition: the velocity sector is zero).  A brickwall circuit of
nearest-neighbour two-qubit blocks, floor(log2(n+1)) + 1 layers deep, is
trained to prepare that state from |0...0> by minimizing

    C(theta) = 1 - Re <target| U(theta) |0...0>

with L-BFGS on exact gradients: each partial is -Re Tr(dU_i/dtheta_j M_i),
with M_i the block's 4x4 cross matrix from one forward and one backward sweep
(the adjoint method) and dU_i/dtheta_j formed by inserting the angle's
generator.  Each block carries 15 angles: a ZYZ rotation per wire, an
XX+YY+ZZ entangler, and a second ZYZ pair; zero angles give the identity, and
the template covers SU(4) up to global phase (Cartan form).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .sim import Circuit, StateVector, _apply_gate_array, hadamard, phased_x, rz, rzz

BLOCK_PARAMS = 15


@dataclass(frozen=True)
class GridSpec:
    """Periodic grid of N = 2^n points x_j = j/N on [0, 1)."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("grid needs at least one qubit")

    @property
    def num_points(self) -> int:
        return 2 ** self.n

    def positions(self) -> np.ndarray:
        return np.arange(self.num_points) / self.num_points


@dataclass(frozen=True)
class RickerParams:
    """Center and width of the Ricker (Mexican-hat) source wavelet."""

    center: float = 0.5
    width: float = 0.1

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("wavelet width must be positive")


def ricker_wavefield(grid: GridSpec, params: RickerParams = RickerParams()) -> np.ndarray:
    """Raw Ricker samples 2/(sqrt(3 sigma) pi^{1/4}) (1 - u^2) e^{-u^2/2}, u = (x - mu)/sigma."""
    u = (grid.positions() - params.center) / params.width
    amp = 2.0 / (math.sqrt(3.0 * params.width) * math.pi ** 0.25)
    return amp * (1.0 - u ** 2) * np.exp(-(u ** 2) / 2.0)


def ricker_target(grid: GridSpec, params: RickerParams = RickerParams()) -> StateVector:
    """Normalized full-register state: Ricker samples in the qubit-0=|0> sector, zero velocity sector."""
    psi = ricker_wavefield(grid, params)
    amps = np.concatenate([psi, np.zeros_like(psi)]).astype(complex)
    return StateVector(amps / np.linalg.norm(amps), check=False)


@dataclass(frozen=True)
class BrickwallAnsatz:
    """Alternating nearest-neighbour two-qubit blocks, 15 angles each.

    Layer l couples (0,1),(2,3),... when l is even and (1,2),(3,4),... when
    odd; `blocks` lists the wire pairs in layer order.
    """

    num_qubits: int
    depth: int
    blocks: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        if self.num_qubits < 2:
            raise ValueError("brickwall ansatz needs at least two qubits")
        if self.depth < 1:
            raise ValueError("ansatz depth must be positive")
        blocks = []
        for layer in range(self.depth):
            for q in range(layer % 2, self.num_qubits - 1, 2):
                blocks.append((q, q + 1))
        object.__setattr__(self, "blocks", tuple(blocks))

    @property
    def num_params(self) -> int:
        return BLOCK_PARAMS * len(self.blocks)


def default_depth(num_qubits: int) -> int:
    return int(math.log2(num_qubits)) + 1


def build_ansatz(num_qubits: int, depth: int | None = None) -> BrickwallAnsatz:
    """Brickwall ansatz at the default depth floor(log2(num_qubits)) + 1."""
    return BrickwallAnsatz(num_qubits, default_depth(num_qubits) if depth is None else depth)


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
    """Rz(c) Ry(b) Rz(a) for angles (..., 3), with full-angle rotations, and its partials.

    Covers SU(2) up to phase.  The partials (..., 3, 2, 2) insert each angle's
    generator: E (-iZ), Rz(c) (-iY) Ry(b) Rz(a), and (-iZ) E.
    """
    a, b, c = np.moveaxis(angles, -1, 0)
    left = np.exp(-1j * c[..., None] * _Z_DIAG)[..., :, None]
    right = np.exp(-1j * a[..., None] * _Z_DIAG)[..., None, :]
    cos_b, sin_b = np.cos(b), np.sin(b)
    e = left * _ry(cos_b, sin_b) * right
    minus_i_z = -1j * _Z_DIAG
    partials = np.stack([e * minus_i_z, left * _ry(-sin_b, cos_b) * right, minus_i_z[:, None] * e], -3)
    return e, partials


def _entangler(angles: np.ndarray) -> np.ndarray:
    """exp(-i (a XX + b YY + c ZZ)) for angles (..., 3), in closed form (XX, YY, ZZ commute)."""
    a, b, c = np.moveaxis(angles, -1, 0)
    w = np.zeros(a.shape + (4, 4), dtype=complex)
    outer, inner = np.exp(-1j * c), np.exp(1j * c)
    w[..., 0, 0] = w[..., 3, 3] = outer * np.cos(a - b)
    w[..., 0, 3] = w[..., 3, 0] = -1j * outer * np.sin(a - b)
    w[..., 1, 1] = w[..., 2, 2] = inner * np.cos(a + b)
    w[..., 1, 2] = w[..., 2, 1] = -1j * inner * np.sin(a + b)
    return w


def _kron22(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of stacked 2x2 matrices over their broadcast leading axes."""
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(*shape, 4, 4)


def _blocks(per_block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unitaries (B, 4, 4) of blocks with angles (B, 15), and their partials (B, 15, 4, 4).

    A block is (A1 x A2) W (B1 x B2) with B1, B2 on angles 0..5, W on 6..8 and
    A1, A2 on 9..14; each partial differentiates one factor in place.
    """
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


def ansatz_to_circuit(ansatz: BrickwallAnsatz, theta: np.ndarray) -> Circuit:
    """Gate-level form of the ansatz; 3 ZZ entanglers per block, identity at theta = 0.

    Per block on wires (q, r): ZYZ on each wire as RZ / PhasedX(., pi/4) / RZ,
    then RZZ for the ZZ term, an RX(pi/4)-conjugated RZZ for YY, a
    Hadamard-conjugated RZZ for XX, then the second ZYZ pair.
    """
    theta = _validated_theta(ansatz, theta)
    circ = Circuit(ansatz.num_qubits)
    quarter = math.pi / 4.0
    for (q, r), p in zip(ansatz.blocks, theta.reshape(-1, BLOCK_PARAMS)):
        for wire, (a, b, c) in ((q, p[0:3]), (r, p[3:6])):
            circ.append(rz(a, wire))
            circ.append(phased_x(b, quarter, wire))
            circ.append(rz(c, wire))
        circ.append(rzz(p[8], q, r))
        for wire in (q, r):
            circ.append(phased_x(-quarter, 0.0, wire))
        circ.append(rzz(p[7], q, r))
        for wire in (q, r):
            circ.append(phased_x(quarter, 0.0, wire))
        circ.append(hadamard(q))
        circ.append(hadamard(r))
        circ.append(rzz(p[6], q, r))
        circ.append(hadamard(q))
        circ.append(hadamard(r))
        for wire, (a, b, c) in ((q, p[9:12]), (r, p[12:15])):
            circ.append(rz(a, wire))
            circ.append(phased_x(b, quarter, wire))
            circ.append(rz(c, wire))
    return circ


def _validated_theta(ansatz: BrickwallAnsatz, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (ansatz.num_params,):
        raise ValueError(f"ansatz takes {ansatz.num_params} angles, got shape {theta.shape}")
    return theta


def _forward_states(ansatz: BrickwallAnsatz, blocks_u: np.ndarray) -> list[np.ndarray]:
    """|0...0> and the state after each block, in block order."""
    states = [StateVector.zero(ansatz.num_qubits).amplitudes]
    for pair, u4 in zip(ansatz.blocks, blocks_u):
        states.append(_apply_gate_array(states[-1], u4, pair, ansatz.num_qubits))
    return states


def prepare_state(ansatz: BrickwallAnsatz, theta: np.ndarray) -> StateVector:
    """U(theta)|0...0> via direct 4x4 block application (no gate lowering)."""
    blocks_u, _ = _blocks(_validated_theta(ansatz, theta).reshape(-1, BLOCK_PARAMS))
    return StateVector(_forward_states(ansatz, blocks_u)[-1], check=False)


def _check_target(ansatz: BrickwallAnsatz, target: StateVector) -> None:
    if target.num_qubits != ansatz.num_qubits:
        raise ValueError("target and ansatz act on different register sizes")
    if abs(target.norm() - 1.0) > 1e-10:
        raise ValueError("target state must be normalized")


def cost(ansatz: BrickwallAnsatz, theta: np.ndarray, target: StateVector) -> float:
    """C(theta) = 1 - Re <target|U(theta)|0...0> (global phase is penalized)."""
    _check_target(ansatz, target)
    overlap = np.vdot(target.amplitudes, prepare_state(ansatz, theta).amplitudes)
    return float(1.0 - overlap.real)


def infidelity(ansatz: BrickwallAnsatz, theta: np.ndarray, target: StateVector) -> float:
    """1 - |<target|U(theta)|0...0>|^2 (phase-insensitive quality of the prep)."""
    _check_target(ansatz, target)
    overlap = np.vdot(target.amplitudes, prepare_state(ansatz, theta).amplitudes)
    return float(1.0 - abs(overlap) ** 2)


def _cross_matrices(ansatz: BrickwallAnsatz, blocks_u: np.ndarray, target: StateVector):
    """Forward/backward sweep; returns (cost, per-block 4x4 cross matrices M_i).

    With f_{i-1} the state before block i and g_i the target pulled back through
    the later blocks, <target|U|0> = Tr(U_i M_i) where M_i = f_mat g_mat^dag on
    the block's pair axis — so re-evaluating one block's 4x4 re-prices the whole
    cost in O(1).
    """
    forwards = _forward_states(ansatz, blocks_u)
    overlap = complex(np.vdot(target.amplitudes, forwards[-1]))
    back = target.amplitudes
    cross = np.empty_like(blocks_u)
    for i in range(len(blocks_u) - 1, -1, -1):
        pair = ansatz.blocks[i]
        f, g = (v.reshape(2 ** pair[0], 4, -1).transpose(1, 0, 2).reshape(4, -1) for v in (forwards[i], back))
        cross[i] = f @ g.conj().T
        back = _apply_gate_array(back, blocks_u[i].conj().T, pair, ansatz.num_qubits)
    return 1.0 - overlap.real, cross


def cost_and_gradient(
    ansatz: BrickwallAnsatz, theta: np.ndarray, target: StateVector
) -> tuple[float, np.ndarray]:
    """Cost plus its exact gradient, dC/dtheta_j = -Re Tr(dU_i/dtheta_j M_i) for block i.

    One forward and one backward sweep give every block's cross matrix M_i
    (Jones & Gacon, arXiv:2009.02823); the 15 partials of all blocks are then
    contracted against them at once.
    """
    _check_target(ansatz, target)
    theta = _validated_theta(ansatz, theta)
    blocks_u, partials = _blocks(theta.reshape(-1, BLOCK_PARAMS))
    value, cross = _cross_matrices(ansatz, blocks_u, target)
    return value, -np.einsum("bjik,bki->bj", partials, cross).real.ravel()


@dataclass(frozen=True)
class OptimizerConfig:
    """Quasi-Newton settings: iteration budget and the seed of the initial angles."""

    max_iters: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class TrainingResult:
    params: np.ndarray
    cost: float
    infidelity: float
    history: tuple[float, ...]
    iterations: int
    converged: bool
    seed: int


def optimize(
    ansatz: BrickwallAnsatz,
    target: StateVector,
    config: OptimizerConfig = OptimizerConfig(),
) -> TrainingResult:
    """L-BFGS minimization of the prep cost from uniform-[0,1) initial angles.

    Deterministic given config; tracks the best angles over all evaluations
    and records a monotone best-cost-per-iteration history.
    Raises on NaN cost instead of returning a bogus optimum.
    """
    from scipy.optimize import minimize  # deferred: it dominates the import time of qwave.cli

    _check_target(ansatz, target)
    theta_init = np.random.default_rng(config.seed).random(ansatz.num_params)

    best = {"cost": math.inf, "theta": theta_init.copy()}
    history: list[float] = []

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = cost_and_gradient(ansatz, x, target)
        if not math.isfinite(value):
            raise FloatingPointError("optimization diverged: cost is not finite")
        if value < best["cost"]:
            best["cost"] = value
            best["theta"] = x.copy()
        if not history:  # L-BFGS-B's first call prices theta_init
            history.append(value)
        return value, grad

    result = minimize(
        objective,
        theta_init,
        jac=True,
        method="L-BFGS-B",
        callback=lambda xk: history.append(best["cost"]),
        options={
            "maxiter": config.max_iters,
            "maxcor": 10,
            "ftol": 1e-12,
            "gtol": 1e-12,
        },
    )
    return TrainingResult(
        params=best["theta"],
        cost=best["cost"],
        infidelity=infidelity(ansatz, best["theta"], target),
        history=tuple(history),
        iterations=int(result.nit),
        converged=bool(result.status == 0),
        seed=config.seed,
    )


@dataclass(frozen=True)
class Checkpoint:
    """Trained prep angles for grid size n, portable as a small JSON document."""

    n: int
    depth: int
    seed: int
    params: tuple[float, ...]
    infidelity: float

    @classmethod
    def from_result(cls, n: int, ansatz: BrickwallAnsatz, result: TrainingResult) -> "Checkpoint":
        return cls(
            n=n,
            depth=ansatz.depth,
            seed=result.seed,
            params=tuple(float(x) for x in result.params),
            infidelity=float(result.infidelity),
        )

    def ansatz(self) -> BrickwallAnsatz:
        return BrickwallAnsatz(self.n + 1, self.depth)

    def save(self, path: str | Path) -> None:
        doc = {
            "n": self.n,
            "depth": self.depth,
            "seed": self.seed,
            "params": list(self.params),
            "infidelity": self.infidelity,
        }
        Path(path).write_text(json.dumps(doc, indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        doc = json.loads(Path(path).read_text())
        return cls(
            n=int(doc["n"]),
            depth=int(doc["depth"]),
            seed=int(doc["seed"]),
            params=tuple(float(x) for x in doc["params"]),
            infidelity=float(doc["infidelity"]),
        )
