"""Classical spectral reference for the periodic 1D wave equation.

Everything here is circuit-free linear algebra on the N-point grid
x_j = j/N of the unit interval: the spectrum of the central-difference
Laplacian in its plane-wave eigenbasis, dense DFT evolution with exact and
small-angle frequencies, and the closed-form infidelity model that the
circuit pipeline is checked against.

The DFT is built as an explicit O(N^2) matrix (kernel e^{+i 2 pi j k / N}
/ sqrt(N)) rather than an FFT, so it is an independent reference for the
QFT circuits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .sim import StateVector


def wavenumbers(N: int) -> np.ndarray:
    """Signed wavenumbers in DFT index order: k = m for m < N/2, else m - N."""
    m = np.arange(N)
    return np.where(m < N // 2, m, m - N)


@lru_cache(maxsize=64)
def dft_matrix(N: int) -> np.ndarray:
    """Forward DFT with kernel e^{+i 2 pi j k / N} / sqrt(N) (unitary)."""
    j = np.arange(N)
    return np.exp(2j * np.pi * np.outer(j, j) / N) / math.sqrt(N)


def dft(vector: np.ndarray, direction: str = "forward") -> np.ndarray:
    vector = np.asarray(vector, dtype=complex)
    F = dft_matrix(vector.size)
    if direction == "forward":
        return F @ vector
    if direction == "inverse":
        return F.conj().T @ vector
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


@dataclass(frozen=True)
class SpectralModel:
    """Eigen-structure of the discrete wave operator on an N-point grid."""

    N: int
    eigenvalues: np.ndarray = field(init=False)            # E_k of the Laplacian
    exact_frequencies: np.ndarray = field(init=False)      # omega_k = 2N sin(pi k / N)
    smallangle_frequencies: np.ndarray = field(init=False)  # 2 pi k
    dispersion_gap: np.ndarray = field(init=False)         # alpha(k) = omega_k - 2 pi k

    def __post_init__(self):
        if self.N < 2 or self.N & (self.N - 1):
            raise ValueError("N must be a power of two with N >= 2")
        k = wavenumbers(self.N)
        omega = 2.0 * self.N * np.sin(np.pi * k / self.N)
        small = 2.0 * np.pi * k
        object.__setattr__(self, "eigenvalues", -(omega ** 2))
        object.__setattr__(self, "exact_frequencies", omega)
        object.__setattr__(self, "smallangle_frequencies", small.astype(float))
        object.__setattr__(self, "dispersion_gap", omega - small)


def _evolve(psi0: np.ndarray, phi0: np.ndarray, t: float, frequencies: np.ndarray) -> StateVector:
    """(H (x) DFT) diag(e^{-i t w_k z}) (H (x) DFT^dag) applied to (psi0, phi0)."""
    psi0 = np.asarray(psi0, dtype=complex)
    phi0 = np.asarray(phi0, dtype=complex)
    if psi0.shape != phi0.shape:
        raise ValueError("sector arrays must have equal length")
    N = psi0.size
    if N < 2 or N & (N - 1):
        raise ValueError("grid size must be a power of two")
    norm = math.sqrt(np.vdot(psi0, psi0).real + np.vdot(phi0, phi0).real)
    if norm < 1e-300:
        raise ValueError("initial wavefield is zero")
    c_psi = dft(psi0 / norm, "inverse")
    c_phi = dft(phi0 / norm, "inverse")
    top = (c_psi + c_phi) / math.sqrt(2.0)
    bot = (c_psi - c_phi) / math.sqrt(2.0)
    top = top * np.exp(-1j * t * frequencies)
    bot = bot * np.exp(1j * t * frequencies)
    psi_t = dft((top + bot) / math.sqrt(2.0), "forward")
    phi_t = dft((top - bot) / math.sqrt(2.0), "forward")
    return StateVector(np.concatenate([psi_t, phi_t]), check=False)


def exact_evolve(psi0: np.ndarray, phi0: np.ndarray, t: float) -> StateVector:
    """Evolution with the exact discrete frequencies omega_k = 2N sin(pi k / N)."""
    N = np.asarray(psi0).size
    return _evolve(psi0, phi0, t, SpectralModel(N).exact_frequencies)


def smallangle_evolve(psi0: np.ndarray, t: float) -> StateVector:
    """Evolution of a static wavefield with the linearized frequencies 2 pi k."""
    psi0 = np.asarray(psi0, dtype=complex)
    return _evolve(psi0, np.zeros_like(psi0), t, SpectralModel(psi0.size).smallangle_frequencies)


def infidelity_model(c0k: np.ndarray, t: float, N: int) -> tuple[float, float, float]:
    """Closed-form infidelity of small-angle vs exact evolution of a static state.

    Returns (exact, second_order, bound):
      exact        1 - |sum_k |c_k|^2 e^{-i t alpha(k)}|^2
      second_order t^2 Var_{|c|^2}(alpha)
      bound        (t^2 pi^6 / 9 N^4) sum_k |c_k|^2 (k^3 - <k^3>)^2
    with alpha(k) = 2N sin(pi k / N) - 2 pi k and <k^3> the |c|^2-weighted mean.
    """
    c0k = np.asarray(c0k, dtype=complex)
    if c0k.size != N:
        raise ValueError("coefficient array must have length N")
    p = np.abs(c0k) ** 2
    total = p.sum()
    if abs(total - 1.0) > 1e-8:
        raise ValueError("coefficients must be normalized")
    p = p / total
    model = SpectralModel(N)
    alpha = model.dispersion_gap
    overlap = np.sum(p * np.exp(-1j * t * alpha))
    exact = 1.0 - abs(overlap) ** 2
    mean_a = np.sum(p * alpha)
    second = t ** 2 * (np.sum(p * alpha ** 2) - mean_a ** 2)
    k = wavenumbers(N).astype(float)
    mean_k3 = np.sum(p * k ** 3)
    bound = (t ** 2 * np.pi ** 6 / (9.0 * N ** 4)) * np.sum(p * (k ** 3 - mean_k3) ** 2)
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


def shots_required(p: float, eps_rel: float) -> int:
    """Shots needed so the relative Monte-Carlo error of estimating p is eps_rel."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if eps_rel <= 0.0:
        raise ValueError("eps_rel must be positive")
    return math.ceil((1.0 - p) / (p * eps_rel ** 2))
