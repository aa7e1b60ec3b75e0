"""Circuits for spectral evolution of the periodic 1D wave equation.

The register has n + 1 qubits: qubit 0 carries the two wavefield sectors
(displacement / velocity potential) and qubits 1..n index the N = 2^n grid
points, most significant bit first.  Time evolution is

    (H_0 (x) QFT) . diag-phases . (H_0 (x) QFT^dag) ,

where the diagonal applies e^{-i t w_k Z_0} per wavenumber k, either with the
exact frequencies w_k = 2N sin(pi k / N) (a native diagonal injector) or with
the small-angle frequencies 2 pi k, which factor into one RZ, one
controlled-phase pair, and n - 1 two-qubit ZZ rotations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sim import (
    Circuit,
    Gate,
    cphase,
    diagonal_injector,
    hadamard,
    rz,
    rzz,
)
from .spectral import exact_frequencies


@dataclass(frozen=True)
class EvolutionSpec:
    """Parameters of one evolution run: register size, time, diagonal flavor."""

    n: int
    t: float
    mode: str = "approx"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("evolution circuits need n >= 2 spatial qubits")
        if self.t < 0:
            raise ValueError("evolution time must be non-negative")
        if self.mode not in ("exact", "approx"):
            raise ValueError(f"mode must be 'exact' or 'approx', got {self.mode!r}")


def build_qft(n: int) -> Circuit:
    """QFT on n qubits with kernel e^{+i 2 pi j k / N} / sqrt(N).

    Hadamard / controlled-R_kappa cascade (R_kappa = diag(1, e^{i 2 pi / 2^kappa}));
    the output bit reversal is absorbed as the circuit's final wire relabeling so
    the dense unitary equals the DFT matrix exactly.
    """
    if n < 1:
        raise ValueError("QFT needs at least one qubit")
    circ = Circuit(n)
    for i in range(n):
        circ.append(hadamard(i))
        for j in range(i + 1, n):
            kappa = j - i + 1
            circ.append(cphase(2.0 * math.pi / 2 ** kappa, i, j))
    circ._set_permutation(list(range(n - 1, -1, -1)))
    return circ


def build_approx_diagonal(n: int, t: float) -> Circuit:
    """Small-angle phase block: applies e^{-i t 2 pi k Z_0} per signed wavenumber k.

    Product form on qubits 0..n:
      RZ((2^{n-1} - 1) pi t) on 0
      e^{+i t N pi Z_0} (x) |1><1|_1  =  RZ(-t N pi / 2) on 0 . RZZ(+t N pi / 2) on (0, 1)
      RZZ(-2^{n-q} pi t) on (0, q) for q = 2..n
    (all factors commute; the controlled-phase split is exact, no extra phase).
    """
    if n < 2:
        raise ValueError("the factored diagonal needs n >= 2 spatial qubits")
    N = 2 ** n
    circ = Circuit(n + 1)
    circ.append(rz((2 ** (n - 1) - 1) * math.pi * t, 0))
    circ.append(rz(-t * N * math.pi / 2.0, 0))
    circ.append(rzz(t * N * math.pi / 2.0, 0, 1))
    for q in range(2, n + 1):
        circ.append(rzz(-(2 ** (n - q)) * math.pi * t, 0, q))
    return circ


def build_exact_diagonal(n: int, t: float) -> Gate:
    """Native diagonal injector e^{-i t 2N sin(pi k / N) z0} on qubits 0..n."""
    if n < 1:
        raise ValueError("need at least one spatial qubit")
    omega = exact_frequencies(2 ** n)
    values = np.concatenate([np.exp(-1j * t * omega), np.exp(+1j * t * omega)])
    return diagonal_injector(values, tuple(range(n + 1)))


def assemble_evolution(prep: Circuit | None, spec: EvolutionSpec) -> Circuit:
    """Full pipeline: prep, H_0 and inverse QFT, diagonal phases, QFT and H_0.

    `prep` acts on the full n + 1 qubit register (pass None to start from an
    externally injected state).  At t = 0 the evolution sandwich is exactly
    the identity, so only the prep is emitted.  The composed circuit ends
    with the identity relabeling: the inverse QFT's bit reversal is pushed
    through the diagonal and cancelled by the QFT's.
    """
    n = spec.n
    circ = Circuit(n + 1)
    if prep is not None:
        if prep.num_qubits != n + 1:
            raise ValueError("prep circuit must span the full register")
        circ.extend(prep)
    if spec.t == 0.0:
        return circ
    spatial = list(range(1, n + 1))
    circ.append(hadamard(0))
    circ.extend(build_qft(n).inverse(), wires=spatial)
    if spec.mode == "exact":
        circ.append(build_exact_diagonal(n, spec.t))
    else:
        circ.extend(build_approx_diagonal(n, spec.t))
    circ.extend(build_qft(n), wires=spatial)
    circ.append(hadamard(0))
    return circ
