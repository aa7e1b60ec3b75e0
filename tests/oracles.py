"""Reference constructions that only the tests compare the library against.

Each is built directly from its definition, independently of the code under
test: the central-difference Laplacian as an explicit matrix, the small-angle
phase diagonal as a signed-wavenumber table, and the purity Tr(rho^2).
"""

import numpy as np

from qwave.spectral import wavenumbers


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
