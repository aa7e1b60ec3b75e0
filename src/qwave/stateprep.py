"""Ricker-wavelet targets and variational brickwall state preparation.

The initial wavefield is a Ricker wavelet sampled on the N = 2^n grid,
placed in the qubit-0 = |0> sector of the n + 1 qubit register (static
initial condition: the velocity sector is zero).  A brickwall circuit of
nearest-neighbour two-qubit blocks, floor(log2(n+1)) + 1 layers deep, is
trained to prepare that state from |0...0> by minimizing

    C(theta) = 1 - Re <target| U(theta) |0...0>

with BFGS on exact gradients: each partial is -Re Tr(dU_i/dtheta_j M_i),
with M_i the block's 4x4 cross matrix from one forward and one backward sweep
(the adjoint method) and dU_i/dtheta_j formed by inserting the angle's
generator.  Each block carries 15 angles: a ZYZ rotation per wire, an
XX+YY+ZZ entangler, and a second ZYZ pair; zero angles give the identity, and
the template covers SU(4) up to global phase (Cartan form).

Training is bound by per-call overhead, not arithmetic, so the gradient is
built in a few calls over all blocks: one `_euler` call makes the four
one-wire factors of every block, one multiply of two gathers their Kronecker
products, and five gemms per block the rest (`_blocks`); one gather and one
batched matmul form every cross matrix.  Each product keeps the operands of a
block-at-a-time build, so the gradients are bit-identical to it; the BFGS
path moves with their last bits.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .sim import Circuit, StateVector, _apply_dense, hadamard, phased_x, rz, rzz

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
    return StateVector(amps / np.linalg.norm(amps))


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

    @cached_property
    def _pair_gather(self) -> np.ndarray:
        """Flat indices (B, 4, 2^m / 4) that read block i's pair axis first from row i of a (B, 2^m) array."""
        size = 2 ** self.num_qubits
        index = np.arange(size)
        per_block = [index.reshape(2 ** q, 4, -1).transpose(1, 0, 2).reshape(4, -1) for q, _ in self.blocks]
        return np.arange(len(self.blocks))[:, None, None] * size + np.array(per_block)


def build_ansatz(num_qubits: int, depth: int | None = None) -> BrickwallAnsatz:
    """Brickwall ansatz at the default depth floor(log2(num_qubits)) + 1."""
    return BrickwallAnsatz(num_qubits, int(math.log2(num_qubits)) + 1 if depth is None else depth)


_Z_DIAG = np.array([1.0, -1.0])
_MINUS_I_Z = -1j * _Z_DIAG
_MINUS_I_GENERATORS = -1j * np.array(
    [
        np.fliplr(np.eye(4)),  # XX
        np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0])),  # YY
        np.diag([1.0, -1.0, -1.0, 1.0]),  # ZZ
    ]
)
# (cos b, sin b) @ _RY_BASIS is Ry(b) = [[cos, -sin], [sin, cos]], then dRy/db, flat: exact, one term being 0
_RY_BASIS = np.array([[1.0, 0, 0, 1, 0, -1, 1, 0], [0, -1, 1, 0, -1, 0, 0, -1]])
_MINUS_I_Z_SIDES = np.array([np.broadcast_to(_MINUS_I_Z, (2, 2)), np.broadcast_to(_MINUS_I_Z[:, None], (2, 2))])
_MIRROR = np.array([1.0, -1.0, -1.0, 1.0])  # W's diagonal entries take a - b, a + b, a + b, a - b


def _euler(angles: np.ndarray) -> np.ndarray:
    """Rz(c) Ry(b) Rz(a) for angles (..., 3), with full-angle rotations, and its partials, as (..., 4, 2, 2).

    Covers SU(2) up to phase.  E comes first, then the partials, which insert
    each angle's generator: E (-iZ), Rz(c) (-iY) Ry(b) Rz(a), and (-iZ) E.
    """
    b = angles[..., 1]
    phases = np.exp(angles[..., 0::2, None] * _MINUS_I_Z)  # the diagonals of Rz(a) and Rz(c)
    right, left = phases[..., None, 0, None, :], phases[..., None, 1, :, None]
    trig = np.empty(b.shape + (2,))
    np.cos(b, out=trig[..., 0])
    np.sin(b, out=trig[..., 1])
    ry = (trig.reshape(-1, 2) @ _RY_BASIS).reshape(b.shape + (2, 2, 2))
    out = np.empty(b.shape + (4, 2, 2), dtype=complex)
    np.multiply(left * ry, right, out=out[..., 0::2, :, :])  # E and its b-partial
    np.multiply(out[..., 0, None, :, :], _MINUS_I_Z_SIDES, out=out[..., 1::2, :, :])  # exact: E (-iZ), (-iZ) E
    return out


def _entangler(angles: np.ndarray) -> np.ndarray:
    """exp(-i (a XX + b YY + c ZZ)) for angles (..., 3), in closed form (XX, YY, ZZ commute)."""
    a, b, c = angles[..., 0, None], angles[..., 1, None], angles[..., 2, None]
    half, phases = a - b * _MIRROR, np.exp(-1j * (c * _MIRROR))
    w = np.zeros(a.shape[:-1] + (16,), dtype=complex)
    np.multiply(phases, np.cos(half), out=w[..., ::5])  # the diagonal
    np.multiply(-1j * phases, np.sin(half), out=w[..., 3:13:3])  # the antidiagonal
    return w.reshape(a.shape[:-1] + (4, 4))


def _kron_gather(index: np.ndarray) -> np.ndarray:
    """Flat `index` (side, product, i1, i2, j1, j2): the pre side side by side, (i, product, j), then the post's."""
    index = np.broadcast_to(index, (2, 7, 2, 2, 2, 2))
    return np.concatenate([index[0].transpose(1, 2, 0, 3, 4).ravel(), index[1].ravel()])


# Where the factors of each side's seven Kronecker products (E1 x E2, E1's partials x E2, then E1 x E2's
# partials) sit in a block's flat `_euler` output: B1, B2, A1, A2; E and its partials; row; column.
_FLAT = np.arange(64).reshape(4, 4, 2, 2)
_KRON_FIRST = _kron_gather(_FLAT[0::2, [0, 1, 2, 3, 0, 0, 0], :, None, :, None])
_KRON_SECOND = _kron_gather(_FLAT[1::2, [0, 0, 0, 0, 1, 2, 3], None, :, None, :])
_EULER_ANGLES = np.r_[0:6, 9:15]  # B1, B2, A1, A2: three angles each
_GENERATOR_ROW = np.concatenate(_MINUS_I_GENERATORS, axis=1)  # [G_XX | G_YY | G_ZZ]


def _blocks(per_block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unitaries (B, 4, 4) of blocks with angles (B, 15), and their partials (B, 15, 4, 4).

    A block is (A1 x A2) W (B1 x B2) with B1, B2 on angles 0..5, W on 6..8 and
    A1, A2 on 9..14; each partial differentiates one factor in place.  The
    Kronecker products are one multiply of two gathers, and a block's other
    products five gemms: post W, W pre, post W times [pre | its six partials],
    and [post G_XX; post G_YY; post G_ZZ] and the six post partials, stacked,
    times W pre.  Each entry is the product, or dot product, that a build one
    matrix at a time makes, so the bits are the same.
    """
    count = len(per_block)
    factors = _euler(per_block[:, _EULER_ANGLES].reshape(count, 4, 3)).reshape(count, -1)
    w = _entangler(per_block[:, 6:9])
    krons = factors[:, _KRON_FIRST] * factors[:, _KRON_SECOND]
    pre_side, post = krons[:, :112].reshape(count, 4, 28), krons[:, 112:128].reshape(count, 4, 4)
    post_w, w_pre = post @ w, w @ pre_side[:, :, :4]
    side = post_w @ pre_side  # U, then partials 0..5
    partials = np.empty((count, BLOCK_PARAMS, 4, 4), dtype=complex)
    partials[:, 0:6] = side[:, :, 4:].reshape(count, 4, 6, 4).transpose(0, 2, 1, 3)
    generators = (post @ _GENERATOR_ROW).reshape(count, 4, 3, 4).transpose(0, 2, 1, 3).reshape(count, 12, 4)
    np.matmul(generators, w_pre, out=partials[:, 6:9].reshape(count, 12, 4))
    np.matmul(krons[:, 128:].reshape(count, 24, 4), w_pre, out=partials[:, 9:].reshape(count, 24, 4))
    return side[:, :, :4], partials


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


def _forward_states(ansatz: BrickwallAnsatz, blocks_u: np.ndarray) -> np.ndarray:
    """|0...0> and the state after each block, in block order, as the rows of one array."""
    states = np.zeros((len(blocks_u) + 1, 2 ** ansatz.num_qubits), dtype=complex)
    states[0, 0] = 1.0
    for i, ((q, _), u4) in enumerate(zip(ansatz.blocks, blocks_u)):
        states[i + 1] = _apply_dense(states[i], u4, q)
    return states


def prepare_state(ansatz: BrickwallAnsatz, theta: np.ndarray) -> StateVector:
    """U(theta)|0...0> via direct 4x4 block application (no gate lowering)."""
    blocks_u, _ = _blocks(_validated_theta(ansatz, theta).reshape(-1, BLOCK_PARAMS))
    return StateVector(_forward_states(ansatz, blocks_u)[-1])


def _check_target(ansatz: BrickwallAnsatz, target: StateVector) -> None:
    if target.num_qubits != ansatz.num_qubits:
        raise ValueError("target and ansatz act on different register sizes")
    if abs(target.norm() - 1.0) > 1e-10:
        raise ValueError("target state must be normalized")


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
    backs = np.empty_like(forwards[1:])  # row i: the target pulled back through the blocks after i
    backs[-1] = target.amplitudes
    daggers = blocks_u.conj().transpose(0, 2, 1)
    for i in range(len(blocks_u) - 1, 0, -1):
        backs[i - 1] = _apply_dense(backs[i], daggers[i], ansatz.blocks[i][0])
    gather = ansatz._pair_gather
    f, g = forwards[:-1].reshape(-1)[gather], backs.reshape(-1)[gather]
    return 1.0 - overlap.real, f @ g.conj().transpose(0, 2, 1)


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
    message: str = ""  # why BFGS stopped, in L-BFGS-B's words
    grad_norm: float = math.nan  # |gradient| at the best evaluation


_ITERATION_LIMIT = "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
_RELATIVE_REDUCTION = "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH"


def _within_tolerance(old: float, new: float) -> bool:
    """L-BFGS-B's relative-reduction rule, |old - new| / max(|old|, |new|, 1) <= 1e-12, either way."""
    return abs(old - new) <= 1e-12 * max(abs(old), abs(new), 1.0)


def _bfgs_update(h: np.ndarray, s: np.ndarray, y: np.ndarray) -> None:
    """In place, H <- H - r (s Hy^T + Hy s^T) + (r^2 y.Hy + r) s s^T with r = 1/s.y (Nocedal & Wright eq. 6.17).

    That is H + s v^T + v s^T with v = (r^2 y.Hy + r)/2 s - r Hy, added a band of rows at a time: the
    temporaries stay near 2^15 entries at any size of H, and only an H of one band, which adds v s^T
    as the transpose of s v^T (the same products), reads an array transposed.
    """
    r, hy = 1.0 / (s @ y), h @ y
    v = (0.5 * r * (r * (y @ hy) + 1.0)) * s - r * hy
    rows = max(1, 2 ** 15 // len(s))
    for band in (slice(i, i + rows) for i in range(0, len(s), rows)):
        outer = s[band, None] * v
        h[band] += outer
        h[band] += outer.T if rows >= len(s) else v[band, None] * s


def _bfgs(fun, x: np.ndarray, max_iters: int, callback) -> tuple[np.ndarray, int, str]:
    """Minimize fun(x) -> (value, gradient) by BFGS; returns the last iterate, iterations and stop message.

    Dense BFGS (Nocedal & Wright alg. 6.1) with H0 = (s.y / y.y) I at the
    first accepted pair, first step 1/|g| then unit steps, and L-BFGS-B's stop
    rules (max|g| <= 1e-12, relative reduction of f <= 1e-12) and messages.
    Armijo backtracking (c1 = 1e-4) halves the step at most 20 times.  A
    failed search whose every trial changed f within the relative-reduction
    tolerance has met that rule (L-BFGS-B's search gives up on rounding there
    too); any other clears H and retries along -g, and fails for good on an
    empty H.  A pair is skipped unless s.y > eps y.y.  `callback(value)` sees
    each accepted value.
    """
    value, grad = fun(x)
    if np.max(np.abs(grad)) <= 1e-12:
        return x, 0, "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
    h = None  # the inverse Hessian, from the first accepted pair on
    iterations = 0
    while True:
        direction = -grad if h is None else -(h @ grad)
        step = 1.0 / np.linalg.norm(grad) if iterations == 0 else 1.0
        slope, flat = grad @ direction, True
        for _ in range(20):
            new_x = x + step * direction
            new_value, new_grad = fun(new_x)
            if new_value <= value + 1e-4 * step * slope:
                break
            flat = flat and _within_tolerance(value, new_value)
            step /= 2.0
        else:
            if flat:
                return x, iterations, _RELATIVE_REDUCTION
            if h is None:
                return x, iterations, "ABNORMAL: "
            h = None
            continue
        s, y = new_x - x, new_grad - grad
        if s @ y > np.finfo(float).eps * (y @ y):
            h = np.eye(len(x)) * ((s @ y) / (y @ y)) if h is None else h
            _bfgs_update(h, s, y)
        old_value, x, value, grad = value, new_x, new_value, new_grad
        iterations += 1
        callback(value)
        if iterations >= max_iters:
            return x, iterations, _ITERATION_LIMIT
        if np.max(np.abs(grad)) <= 1e-12:
            return x, iterations, "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
        if _within_tolerance(old_value, value):
            return x, iterations, _RELATIVE_REDUCTION


def optimize(
    ansatz: BrickwallAnsatz,
    target: StateVector,
    config: OptimizerConfig = OptimizerConfig(),
) -> TrainingResult:
    """BFGS minimization of the prep cost from uniform-[0,1) initial angles.

    Deterministic given config; tracks the best angles over all evaluations
    and records a monotone best-cost-per-iteration history.
    Raises on NaN cost instead of returning a bogus optimum.
    """
    _check_target(ansatz, target)
    theta_init = np.random.default_rng(config.seed).random(ansatz.num_params)

    best = {"cost": math.inf, "theta": theta_init.copy(), "grad_norm": math.nan}
    history: list[float] = []

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = cost_and_gradient(ansatz, x, target)
        if not math.isfinite(value):
            raise FloatingPointError("optimization diverged: cost is not finite")
        if value < best["cost"]:
            best.update(cost=value, theta=x.copy(), grad_norm=float(np.linalg.norm(grad)))
        if not history:  # the first call prices theta_init
            history.append(value)
        return value, grad

    _, iterations, message = _bfgs(
        objective, theta_init, config.max_iters, lambda value: history.append(best["cost"])
    )
    return TrainingResult(
        params=best["theta"],
        cost=best["cost"],
        infidelity=infidelity(ansatz, best["theta"], target),
        history=tuple(history),
        iterations=iterations,
        converged=message.startswith("CONVERGENCE"),
        seed=config.seed,
        message=message,
        grad_norm=best["grad_norm"],
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
        Path(path).write_text(json.dumps(asdict(self), indent=2) + "\n")

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
