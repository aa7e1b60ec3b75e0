"""Classical spectral reference for the periodic 1D wave equation.

Everything here is circuit-free linear algebra on the N-point grid
x_j = j/N of the unit interval: the exact frequencies of the
central-difference Laplacian's plane-wave modes, FFT evolution with the
exact frequencies, and the closed-form infidelity model that the circuit
pipeline is checked against.

`dft` is numpy's FFT, which shares no code with the QFT circuits it checks;
`dft_matrix`, the same transform as a dense O(N^2) matrix, is a test oracle
that no run calls, kept here because the benchmark tracer reads its cache.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .sim import StateVector


def wavenumbers(N: int) -> np.ndarray:
    """Signed wavenumbers in DFT index order: k = m for m < N/2, else m - N."""
    m = np.arange(N)
    return np.where(m < N // 2, m, m - N)


@lru_cache(maxsize=64)
def dft_matrix(N: int) -> np.ndarray:
    """Forward DFT with kernel e^{+i 2 pi j k / N} / sqrt(N) (unitary); a test oracle."""
    j = np.arange(N)
    return np.exp(2j * np.pi * np.outer(j, j) / N) / math.sqrt(N)


def dft(vector: np.ndarray, direction: str = "forward") -> np.ndarray:
    """Unitary DFT along the last axis; forward has kernel e^{+i 2 pi j k / N} / sqrt(N)."""
    vector = np.asarray(vector, dtype=complex)
    if direction == "forward":
        return np.fft.ifft(vector, norm="ortho")
    if direction == "inverse":
        return np.fft.fft(vector, norm="ortho")
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def exact_frequencies(N: int) -> np.ndarray:
    """omega_k = 2N sin(pi k / N) per signed wavenumber k; -omega_k^2 are the Laplacian's eigenvalues."""
    if N < 2 or N & (N - 1):
        raise ValueError("N must be a power of two with N >= 2")
    return 2.0 * N * np.sin(np.pi * wavenumbers(N) / N)


def _evolve(psi0: np.ndarray, phi0: np.ndarray, t: float, frequencies: np.ndarray) -> StateVector:
    """(H (x) DFT) diag(e^{-i t w_k z}) (H (x) DFT^dag) applied to (psi0, phi0): per mode k,
    c_psi -> c_psi cos(t w_k) - i c_phi sin(t w_k), and the same with psi and phi swapped.
    The tests' small-angle oracle passes w_k = 2 pi k."""
    psi0 = np.asarray(psi0, dtype=complex)
    phi0 = np.asarray(phi0, dtype=complex)
    if psi0.shape != phi0.shape:
        raise ValueError("sector arrays must have equal length")
    norm = math.sqrt(np.vdot(psi0, psi0).real + np.vdot(phi0, phi0).real)
    if norm < 1e-300:
        raise ValueError("initial wavefield is zero")
    c_psi, c_phi = dft(np.stack([psi0, phi0]) / norm, "inverse")
    cos, sin = np.cos(t * frequencies), np.sin(t * frequencies)
    sectors = dft(np.stack([c_psi * cos - 1j * c_phi * sin, c_phi * cos - 1j * c_psi * sin]), "forward")
    return StateVector(sectors.ravel(), check=False)


def exact_evolve(psi0: np.ndarray, phi0: np.ndarray, t: float) -> StateVector:
    """Evolution with the exact discrete frequencies omega_k = 2N sin(pi k / N)."""
    return _evolve(psi0, phi0, t, exact_frequencies(np.asarray(psi0).size))


def infidelity_model(c0k: np.ndarray, t: float, N: int) -> tuple[float, float, float]:
    """Closed-form infidelity of small-angle vs exact evolution of a static state.

    Returns (exact, second_order, bound):
      exact        1 - C^2 = (1 - C)(1 + C), C = sum_k |c_k|^2 cos(t alpha(k)) the (real) overlap
      second_order t^2 sum_k |c_k|^2 alpha(k)^2
      bound        (t^2 pi^6 / 9 N^4) sum_k |c_k|^2 k^6
    with alpha(k) = 2N sin(pi k / N) - 2 pi k.  1 - C = 2 sum_k |c_k|^2 sin^2(t alpha(k) / 2),
    so nothing cancels, and bound >= second_order >= exact for every spectrum.
    """
    c0k = np.asarray(c0k, dtype=complex)
    if c0k.size != N:
        raise ValueError("coefficient array must have length N")
    p = np.abs(c0k) ** 2
    total = p.sum()
    if abs(total - 1.0) > 1e-8:
        raise ValueError("coefficients must be normalized")
    p = p / total
    k = wavenumbers(N).astype(float)
    alpha = exact_frequencies(N) - 2.0 * np.pi * k
    one_minus_c = 2.0 * np.sum(p * np.sin(t * alpha / 2.0) ** 2)
    exact = one_minus_c * (2.0 - one_minus_c)
    second = t ** 2 * np.sum(p * alpha ** 2)
    bound = (t ** 2 * np.pi ** 6 / (9.0 * N ** 4)) * np.sum(p * k ** 6)
    return float(exact), float(second), float(bound)


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
