"""Ricker-wavelet targets and variational brickwall state preparation.

The initial wavefield is a Ricker wavelet sampled on the N = 2^n grid,
placed in the qubit-0 = |0> sector of the n + 1 qubit register (static
initial condition: the velocity sector is zero).  A brickwall circuit of
nearest-neighbour two-qubit blocks, floor(log2(n+1)) + 1 layers deep, is
trained to prepare that state from |0...0> by minimizing

    C(theta) = 1 - Re <target| U(theta) |0...0>

with L-BFGS on central-finite-difference gradients.  Each block carries 15
angles: a ZYZ rotation per wire, an XX+YY+ZZ entangler, and a second ZYZ
pair; zero angles give the identity, and the template covers SU(4) up to
global phase (Cartan form).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

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

    @property
    def spacing(self) -> float:
        return 1.0 / self.num_points

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


def _rz_matrix(theta: float) -> np.ndarray:
    return np.diag([np.exp(-1j * theta), np.exp(1j * theta)])


def _ry_matrix(beta: float) -> np.ndarray:
    c, s = math.cos(beta), math.sin(beta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _euler_zyz(a: float, b: float, c: float) -> np.ndarray:
    """Rz(c) Ry(b) Rz(a) with full-angle rotations; covers SU(2) up to phase."""
    return _rz_matrix(c) @ _ry_matrix(b) @ _rz_matrix(a)


def _euler_entries(a: float, b: float, c: float) -> tuple[complex, complex, complex, complex]:
    """The four entries of Rz(c) Ry(b) Rz(a), row-major (scalar fast path)."""
    cb, sb = math.cos(b), math.sin(b)
    em_c, ep_c = cmath.exp(-1j * c), cmath.exp(1j * c)
    em_a, ep_a = cmath.exp(-1j * a), cmath.exp(1j * a)
    return em_c * cb * em_a, -em_c * sb * ep_a, ep_c * sb * em_a, ep_c * cb * ep_a


def _euler_matrix(a: float, b: float, c: float) -> np.ndarray:
    e00, e01, e10, e11 = _euler_entries(a, b, c)
    return np.array([[e00, e01], [e10, e11]])


def _kron22(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def _entangler(a: float, b: float, c: float) -> np.ndarray:
    """exp(-i (a XX + b YY + c ZZ)) in closed form (XX, YY, ZZ commute)."""
    w = np.zeros((4, 4), dtype=complex)
    outer, inner = cmath.exp(-1j * c), cmath.exp(1j * c)
    cm, sm = math.cos(a - b), math.sin(a - b)
    cp, sp = math.cos(a + b), math.sin(a + b)
    w[0, 0] = w[3, 3] = outer * cm
    w[0, 3] = w[3, 0] = outer * (-1j * sm)
    w[1, 1] = w[2, 2] = inner * cp
    w[1, 2] = w[2, 1] = inner * (-1j * sp)
    return w


def block_unitary(params: np.ndarray) -> np.ndarray:
    """Dense 4x4 of one block: (E9..11 x E12..14) . W(6,7,8) . (E0..2 x E3..5)."""
    p = np.asarray(params, dtype=float)
    if p.shape != (BLOCK_PARAMS,):
        raise ValueError(f"block takes {BLOCK_PARAMS} angles, got shape {p.shape}")
    pre = _kron22(_euler_matrix(*p[0:3]), _euler_matrix(*p[3:6]))
    post = _kron22(_euler_matrix(*p[9:12]), _euler_matrix(*p[12:15]))
    return post @ _entangler(*p[6:9]) @ pre


_PAULI_Z = np.diag([1.0 + 0j, -1.0])
_PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]])
_I2 = np.eye(2, dtype=complex)
_XX = np.fliplr(np.eye(4, dtype=complex))
_YY = np.fliplr(np.diag([-1.0 + 0j, 1.0, 1.0, -1.0]))
_ZZ = np.diag([1.0 + 0j, -1.0, -1.0, 1.0])


def _euler_zyz_partial(a: float, b: float, c: float, which: int) -> np.ndarray:
    """d/dtheta of Rz(c) Ry(b) Rz(a) by generator insertion (which = 0 for a, ...)."""
    if which == 0:
        return _euler_zyz(a, b, c) @ (-1j * _PAULI_Z)
    if which == 1:
        return _rz_matrix(c) @ _ry_matrix(b) @ (-1j * _PAULI_Y) @ _rz_matrix(a)
    return (-1j * _PAULI_Z) @ _euler_zyz(a, b, c)


def block_unitary_partial(params: np.ndarray, index: int) -> np.ndarray:
    """Analytic dU/dtheta_index of the 4x4 block (generator insertion, no differencing)."""
    p = np.asarray(params, dtype=float)
    pre_a, pre_b = _euler_zyz(*p[0:3]), _euler_zyz(*p[3:6])
    post_a, post_b = _euler_zyz(*p[9:12]), _euler_zyz(*p[12:15])
    w = _entangler(*p[6:9])
    if index < 3:
        pre = np.kron(_euler_zyz_partial(*p[0:3], which=index), pre_b)
        return np.kron(post_a, post_b) @ w @ pre
    if index < 6:
        pre = np.kron(pre_a, _euler_zyz_partial(*p[3:6], which=index - 3))
        return np.kron(post_a, post_b) @ w @ pre
    if index < 9:
        gen = (_XX, _YY, _ZZ)[index - 6]
        return np.kron(post_a, post_b) @ (-1j * gen) @ w @ np.kron(pre_a, pre_b)
    if index < 12:
        post = np.kron(_euler_zyz_partial(*p[9:12], which=index - 9), post_b)
    else:
        post = np.kron(post_a, _euler_zyz_partial(*p[12:15], which=index - 12))
    return post @ w @ np.kron(pre_a, pre_b)


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


def _forward_states(ansatz: BrickwallAnsatz, blocks_u: Sequence[np.ndarray]) -> list[np.ndarray]:
    """|0...0> and the state after each block, in block order."""
    states = [StateVector.zero(ansatz.num_qubits).amplitudes]
    for pair, u4 in zip(ansatz.blocks, blocks_u):
        states.append(_apply_gate_array(states[-1], u4, pair, ansatz.num_qubits))
    return states


def prepare_state(ansatz: BrickwallAnsatz, theta: np.ndarray) -> StateVector:
    """U(theta)|0...0> via direct 4x4 block application (no gate lowering)."""
    theta = _validated_theta(ansatz, theta)
    blocks_u = [block_unitary(p) for p in theta.reshape(-1, BLOCK_PARAMS)]
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


def _cross_matrices(ansatz: BrickwallAnsatz, blocks_u: list[np.ndarray], target: StateVector):
    """Forward/backward sweep; returns (cost, per-block 4x4 cross matrices M_i).

    With f_{i-1} the state before block i and g_i the target pulled back through
    the later blocks, <target|U|0> = Tr(U_i M_i) where M_i = f_mat g_mat^dag on
    the block's pair axis — so re-evaluating one block's 4x4 re-prices the whole
    cost in O(1).
    """
    forwards = _forward_states(ansatz, blocks_u)
    overlap = complex(np.vdot(target.amplitudes, forwards[-1]))
    back = target.amplitudes
    cross = [np.empty(0)] * len(blocks_u)
    for i in range(len(blocks_u) - 1, -1, -1):
        pair = ansatz.blocks[i]
        f, g = (v.reshape(2 ** pair[0], 4, -1).transpose(1, 0, 2).reshape(4, -1) for v in (forwards[i], back))
        cross[i] = f @ g.conj().T
        back = _apply_gate_array(back, blocks_u[i].conj().T, pair, ansatz.num_qubits)
    return 1.0 - overlap.real, cross


def _euler_fd(a: float, b: float, c: float, t: np.ndarray, h: float) -> tuple[float, float, float]:
    """Central differences of Re sum_ij E'(angles)[i,j] t[j,i] over the three angles."""
    t00, t01, t10, t11 = t[0, 0], t[0, 1], t[1, 0], t[1, 1]

    def val(x: float, y: float, z: float) -> float:
        e00, e01, e10, e11 = _euler_entries(x, y, z)
        return (e00 * t00 + e01 * t10 + e10 * t01 + e11 * t11).real

    return (
        val(a + h, b, c) - val(a - h, b, c),
        val(a, b + h, c) - val(a, b - h, c),
        val(a, b, c + h) - val(a, b, c - h),
    )


def _entangler_fd(a: float, b: float, c: float, h4: tuple, h: float) -> tuple[float, float, float]:
    """Central differences of Re Tr(W'(angles) H) with H pre-reduced to four sums."""

    def val(x: float, y: float, z: float) -> float:
        return (
            cmath.exp(-1j * z) * (math.cos(x - y) * h4[0] - 1j * math.sin(x - y) * h4[1])
            + cmath.exp(1j * z) * (math.cos(x + y) * h4[2] - 1j * math.sin(x + y) * h4[3])
        ).real

    return (
        val(a + h, b, c) - val(a - h, b, c),
        val(a, b + h, c) - val(a, b - h, c),
        val(a, b, c + h) - val(a, b, c - h),
    )


def _block_factors(p: np.ndarray):
    """(B1, B2, W, A1, A2, U) of one block; U = (A1 x A2) W (B1 x B2)."""
    b1, b2 = _euler_matrix(*p[0:3]), _euler_matrix(*p[3:6])
    a1, a2 = _euler_matrix(*p[9:12]), _euler_matrix(*p[12:15])
    w = _entangler(*p[6:9])
    u = _kron22(a1, a2) @ w @ _kron22(b1, b2)
    return b1, b2, w, a1, a2, u


def cost_and_gradient(
    ansatz: BrickwallAnsatz, theta: np.ndarray, target: StateVector, h: float = 1e-6
) -> tuple[float, np.ndarray]:
    """Cost plus its central-difference gradient (step h on each block angle).

    Each shifted evaluation re-prices only the changed factor: with the cross
    matrix M_i fixed, Tr(U'(theta +/- h e_j) M_i) reduces to a 2x2 (or the
    entangler's eight-entry) contraction against a pre-reduced tensor.
    """
    _check_target(ansatz, target)
    theta = _validated_theta(ansatz, theta)
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    per_block = theta.reshape(-1, BLOCK_PARAMS)
    factors = [_block_factors(p) for p in per_block]
    value, cross = _cross_matrices(ansatz, [f[5] for f in factors], target)
    grad = np.empty_like(theta)
    scale = -1.0 / (2.0 * h)
    for i, (p, (b1, b2, w, a1, a2, _)) in enumerate(zip(per_block, factors)):
        m = cross[i]
        aw = _kron22(a1, a2) @ w
        g4 = (m @ aw).reshape(2, 2, 2, 2)
        bm = _kron22(b1, b2) @ m
        hm = bm @ _kron22(a1, a2)
        k4 = (w @ bm).reshape(2, 2, 2, 2)
        h4 = (hm[0, 0] + hm[3, 3], hm[3, 0] + hm[0, 3], hm[1, 1] + hm[2, 2], hm[2, 1] + hm[1, 2])
        base = i * BLOCK_PARAMS
        grad[base:base + 3] = _euler_fd(*p[0:3], np.einsum("kl,jlik->ji", b2, g4), h)
        grad[base + 3:base + 6] = _euler_fd(*p[3:6], np.einsum("ij,jlik->lk", b1, g4), h)
        grad[base + 6:base + 9] = _entangler_fd(*p[6:9], h4, h)
        grad[base + 9:base + 12] = _euler_fd(*p[9:12], np.einsum("kl,jlik->ji", a2, k4), h)
        grad[base + 12:base + 15] = _euler_fd(*p[12:15], np.einsum("ij,jlik->lk", a1, k4), h)
    return value, grad * scale


def cost_directional_derivative(
    ansatz: BrickwallAnsatz, theta: np.ndarray, target: StateVector, direction: np.ndarray
) -> float:
    """Analytic d/ds C(theta + s v)|_{s=0} by inserting each angle's generator."""
    _check_target(ansatz, target)
    theta = _validated_theta(ansatz, theta)
    v = np.asarray(direction, dtype=float)
    if v.shape != theta.shape:
        raise ValueError("direction must match the parameter vector")
    per_block = theta.reshape(-1, BLOCK_PARAMS)
    v_block = v.reshape(-1, BLOCK_PARAMS)
    blocks_u = [block_unitary(p) for p in per_block]
    forwards = _forward_states(ansatz, blocks_u)
    total = 0.0
    back = target.amplitudes
    for i in range(len(blocks_u) - 1, -1, -1):
        pair = ansatz.blocks[i]
        du = np.zeros((4, 4), dtype=complex)
        for j in range(BLOCK_PARAMS):
            if v_block[i, j] != 0.0:
                du = du + v_block[i, j] * block_unitary_partial(per_block[i], j)
        if du.any():
            total += -np.vdot(back, _apply_gate_array(forwards[i], du, pair, ansatz.num_qubits)).real
        back = _apply_gate_array(back, blocks_u[i].conj().T, pair, ansatz.num_qubits)
    return float(total)


@dataclass(frozen=True)
class OptimizerConfig:
    """Quasi-Newton settings: iteration budget, difference step, tolerance, history, seed."""

    max_iters: int = 5000
    h: float = 1e-6
    tol: float = 1e-12
    memory: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.h <= 0:
            raise ValueError("difference step must be positive")
        if self.memory < 1:
            raise ValueError("quasi-Newton memory must be at least 1")


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
    theta_init: np.ndarray | None = None,
) -> TrainingResult:
    """L-BFGS minimization of the prep cost from uniform-[0,1) initial angles.

    Deterministic given (config, theta_init); tracks the best angles over all
    evaluations and records a monotone best-cost-per-iteration history.
    Raises on NaN cost instead of returning a bogus optimum.
    """
    _check_target(ansatz, target)
    if theta_init is None:
        theta_init = np.random.default_rng(config.seed).random(ansatz.num_params)
    theta_init = _validated_theta(ansatz, theta_init)

    best = {"cost": math.inf, "theta": theta_init.copy()}
    history: list[float] = []

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = cost_and_gradient(ansatz, x, target, config.h)
        if not math.isfinite(value):
            raise FloatingPointError("optimization diverged: cost is not finite")
        if value < best["cost"]:
            best["cost"] = value
            best["theta"] = x.copy()
        return value, grad

    initial_cost, _ = objective(theta_init)
    history.append(initial_cost)

    result = minimize(
        objective,
        theta_init,
        jac=True,
        method="L-BFGS-B",
        callback=lambda xk: history.append(best["cost"]),
        options={
            "maxiter": config.max_iters,
            "maxcor": config.memory,
            "ftol": config.tol,
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


def optimize_multistart(
    ansatz: BrickwallAnsatz,
    target: StateVector,
    config: OptimizerConfig = OptimizerConfig(),
    seeds: Sequence[int] = (0, 1, 2),
) -> TrainingResult:
    """Best-of-restarts wrapper: independent seeds, lowest final cost wins."""
    if not seeds:
        raise ValueError("need at least one restart seed")
    results = [optimize(ansatz, target, replace(config, seed=int(s))) for s in seeds]
    return min(results, key=lambda r: r.cost)


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
