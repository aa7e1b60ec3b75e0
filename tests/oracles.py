"""Reference constructions that only the tests compare the library against.

Most are built directly from their definition, independently of the code
under test: the central-difference Laplacian as an explicit matrix, the
small-angle phase diagonal as a signed-wavenumber table, the purity
Tr(rho^2), the projector of a pure state, and the shot count of a relative
error.  `smallangle_evolve` is the spectral route with the linearized
frequencies 2 pi k, the FFT evolution of `exact_evolve` with other phases.
"""

import math

import numpy as np

from qwave.sim import DensityMatrix, StateVector
from qwave.spectral import _evolve, wavenumbers


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


def purity(rho) -> float:
    """Tr(rho^2) of a DensityMatrix: 1 for a pure state, below 1 for a mixed one."""
    return float(np.trace(rho.entries @ rho.entries).real)


def pure_density(state: StateVector) -> DensityMatrix:
    """|psi><psi| of a pure state."""
    a = state.amplitudes
    return DensityMatrix(np.outer(a, a.conj()), check=False)


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
