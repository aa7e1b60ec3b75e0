"""Independent references that the benchmark checks qwave's outputs against.

Nothing here calls qwave.  Each reference is rebuilt from the conventions the
package documents, by a different route than the package takes:

* the Ricker target from the formula in the `qwave.stateprep` docstring;
* the spectral evolution with `np.fft` (`norm="ortho"`) instead of a dense DFT
  matrix: the QFT kernel e^{+i 2 pi j k / N} / sqrt(N) is `ifft`, its adjoint
  is `fft`;
* a dense density-matrix simulator (at most 5 qubits) whose gate matrices are
  `expm` of the generators in the `qwave.sim` docstring, and whose noise is the
  explicit 15-Pauli Kraus sum rather than the twirl identity qwave uses;
* the brickwall preparation rebuilt from checkpoint angles with `expm` of the
  documented block generators.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.linalg import expm

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (I2, X, Y, Z)
MAX_DM_QUBITS = 5


# --- Ricker target and FFT spectral evolution --------------------------------

def ricker_state(n: int, center: float = 0.5, width: float = 0.1) -> np.ndarray:
    """Normalized (n + 1)-qubit state: Ricker samples in the qubit-0 = |0> half."""
    N = 2 ** n
    u = (np.arange(N) / N - center) / width
    psi = (1.0 - u ** 2) * np.exp(-(u ** 2) / 2.0)
    state = np.concatenate([psi, np.zeros(N)]).astype(complex)
    return state / np.linalg.norm(state)


def frequencies(N: int, exact: bool) -> np.ndarray:
    """Per-wavenumber frequency: 2N sin(pi k / N) (exact) or 2 pi k (small-angle)."""
    k = np.fft.fftfreq(N, d=1.0 / N)
    return 2.0 * N * np.sin(np.pi * k / N) if exact else 2.0 * np.pi * k


def fft_evolve(n: int, t: float, exact: bool) -> np.ndarray:
    """Ricker state evolved for time t by (H (x) QFT) e^{-i t w Z_0} (H (x) QFT^dag).

    With a static initial field the two sectors come out as
    QFT(c cos(w t)) and QFT(-i c sin(w t)), c = QFT^dag(psi_0).
    """
    N = 2 ** n
    c = np.fft.fft(ricker_state(n)[:N], norm="ortho")
    w = frequencies(N, exact)
    psi = np.fft.ifft(c * np.cos(w * t), norm="ortho")
    phi = np.fft.ifft(-1j * c * np.sin(w * t), norm="ortho")
    return np.concatenate([psi, phi])


def smallangle_infidelity(n: int, t: float) -> float:
    """Noiseless infidelity of small-angle against exact evolution, 1 - |<exact|approx>|^2."""
    overlap = np.vdot(fft_evolve(n, t, exact=True), fft_evolve(n, t, exact=False))
    return float(1.0 - abs(overlap) ** 2)


# --- dense operators on a small register --------------------------------------

def embed(op: np.ndarray, targets, m: int) -> np.ndarray:
    """2^m x 2^m matrix of `op` acting on `targets` (first target = more significant bit)."""
    k = len(targets)
    if op.shape != (2 ** k, 2 ** k):
        raise ValueError(f"operator shape {op.shape} does not fit {k} targets")
    index = np.arange(2 ** m)
    sub = np.zeros_like(index)
    rest = index.copy()
    for j, q in enumerate(targets):
        bit = (index >> (m - 1 - q)) & 1
        sub |= bit << (k - 1 - j)
        rest &= ~(1 << (m - 1 - q))
    return op[sub[:, None], sub[None, :]] * (rest[:, None] == rest[None, :])


def permutation_operator(perm, m: int) -> np.ndarray:
    """Unitary that moves the content of wire q to wire perm[q]."""
    index = np.arange(2 ** m)
    dst = np.zeros_like(index)
    for q in range(m):
        dst |= ((index >> (m - 1 - q)) & 1) << (m - 1 - perm[q])
    op = np.zeros((2 ** m, 2 ** m), dtype=complex)
    op[dst, index] = 1.0
    return op


def gate_matrix(kind: str, params, values=None) -> np.ndarray:
    """Gate matrices from the generator conventions (full angles, no half-angle)."""
    if kind == "H":
        return (X + Z) / math.sqrt(2.0)
    if kind == "RZ":
        return expm(-1j * params[0] * Z)
    if kind == "RZZ":
        return expm(-1j * params[0] * np.kron(Z, Z))
    if kind == "PHASEDX":
        theta, phi = params
        return expm(-1j * phi * Z) @ expm(-1j * theta * X) @ expm(1j * phi * Z)
    if kind == "CPHASE":
        return expm(1j * params[0] * np.diag([0.0, 0.0, 0.0, 1.0]))
    if kind == "DIAG":
        return np.diag(np.asarray(values, dtype=complex))
    raise ValueError(f"unknown gate kind {kind!r}")


def depolarize(rho: np.ndarray, a: int, b: int, p: float, m: int) -> np.ndarray:
    """(1 - p) rho + (p / 15) sum over the 15 non-identity two-qubit Paulis P rho P."""
    out = (1.0 - p) * rho
    for pa, pb in itertools.product(range(4), repeat=2):
        if pa == pb == 0:
            continue
        op = embed(np.kron(PAULIS[pa], PAULIS[pb]), (a, b), m)
        out = out + (p / 15.0) * (op @ rho @ op.conj().T)
    return out


def simulate_density(gates, num_qubits: int, initial: np.ndarray, p: float, final_permutation=None) -> np.ndarray:
    """Density matrix after `gates`, depolarizing with rate p after every two-qubit gate.

    `gates` is a sequence of (kind, targets, params, values) tuples.
    """
    if num_qubits > MAX_DM_QUBITS:
        raise ValueError(f"the dense reference handles at most {MAX_DM_QUBITS} qubits")
    rho = np.outer(initial, initial.conj())
    for kind, targets, params, values in gates:
        u = embed(gate_matrix(kind, params, values), targets, num_qubits)
        rho = u @ rho @ u.conj().T
        if len(targets) == 2 and p > 0.0:
            rho = depolarize(rho, targets[0], targets[1], p, num_qubits)
    if final_permutation is not None:
        op = permutation_operator(final_permutation, num_qubits)
        rho = op @ rho @ op.conj().T
    return rho


# --- brickwall preparation ----------------------------------------------------

def euler(a: float, b: float, c: float) -> np.ndarray:
    """Rz(c) Ry(b) Rz(a), with R(theta) = exp(-i theta P)."""
    return expm(-1j * c * Z) @ expm(-1j * b * Y) @ expm(-1j * a * Z)


def block(p) -> np.ndarray:
    """(E(p9..11) x E(p12..14)) exp(-i (p6 XX + p7 YY + p8 ZZ)) (E(p0..2) x E(p3..5))."""
    entangler = expm(-1j * (p[6] * np.kron(X, X) + p[7] * np.kron(Y, Y) + p[8] * np.kron(Z, Z)))
    pre = np.kron(euler(*p[0:3]), euler(*p[3:6]))
    post = np.kron(euler(*p[9:12]), euler(*p[12:15]))
    return post @ entangler @ pre


def brickwall_pairs(num_qubits: int, depth: int) -> list[tuple[int, int]]:
    """Layer l couples (0,1),(2,3),... when l is even and (1,2),(3,4),... when odd."""
    return [(q, q + 1) for layer in range(depth) for q in range(layer % 2, num_qubits - 1, 2)]


def brickwall_state(num_qubits: int, depth: int, params) -> np.ndarray:
    """U(params)|0...0> for the brickwall of 15-angle blocks."""
    pairs = brickwall_pairs(num_qubits, depth)
    angles = np.asarray(params, dtype=float).reshape(-1, 15)
    if len(angles) != len(pairs):
        raise ValueError(f"{len(pairs)} blocks need {15 * len(pairs)} angles, got {angles.size}")
    state = np.zeros(2 ** num_qubits, dtype=complex)
    state[0] = 1.0
    for pair, p in zip(pairs, angles):
        state = embed(block(p), pair, num_qubits) @ state
    return state
