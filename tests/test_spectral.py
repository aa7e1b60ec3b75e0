"""Spectral reference checks: DFT conventions, Laplacian eigenstructure,
closed-form evolution, dispersion infidelity model, shot-noise statistics.

Oracles: explicit DFT kernel sums and the dense DFT matrix, dense
eigendecomposition, d'Alembert traveling-wave solution, and hand-evaluated
binomial statistics.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import laplacian_matrix, mc_errors, shots_required, smallangle_evolve
from qwave.sim import state_infidelity
from qwave.spectral import (
    dft,
    dft_matrix,
    exact_evolve,
    exact_frequencies,
    infidelity_model,
    wavenumbers,
)


def _ricker(N: int) -> np.ndarray:
    x = np.arange(N) / N
    u = (x - 0.5) / 0.1
    psi = (1 - u ** 2) * np.exp(-(u ** 2) / 2)
    return psi / np.linalg.norm(psi)


# ------------------------------------------------------------------ transforms


def test_wavenumbers_signed_order():
    assert wavenumbers(8).tolist() == [0, 1, 2, 3, -4, -3, -2, -1]
    assert wavenumbers(2).tolist() == [0, -1]


@pytest.mark.parametrize("N", [2, 4, 8, 32])
def test_dft_matrix_kernel_and_unitarity(N):
    f = dft_matrix(N)
    j, k = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    assert np.allclose(f, np.exp(2j * np.pi * j * k / N) / math.sqrt(N))
    assert np.allclose(f @ f.conj().T, np.eye(N), atol=1e-12)


def test_dft_directions_are_inverses():
    rng = np.random.default_rng(0)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    assert np.allclose(dft(dft(v, "inverse"), "forward"), v, atol=1e-12)
    assert np.allclose(dft(v, "forward"), dft_matrix(16) @ v)
    with pytest.raises(ValueError):
        dft(v, "sideways")


@pytest.mark.parametrize("N", [2 ** n for n in range(1, 11)])
def test_fft_matches_the_dense_dft_matrix(N):
    rng = np.random.default_rng(N)
    stacked = rng.normal(size=(2, N)) + 1j * rng.normal(size=(2, N))
    f = dft_matrix(N)
    for direction, matrix in (("forward", f), ("inverse", f.conj().T)):
        assert np.allclose(dft(stacked[0], direction), matrix @ stacked[0], atol=1e-12)
        assert np.allclose(dft(stacked, direction), stacked @ matrix.T, atol=1e-12)


# ------------------------------------------------------------------- Laplacian


def test_laplacian_smallest_grid():
    # N = 2: both neighbors of each point wrap to the other point
    assert np.allclose(laplacian_matrix(2), 4.0 * np.array([[-2.0, 2.0], [2.0, -2.0]]))


@pytest.mark.parametrize("N", [4, 16, 64, 256])
def test_laplacian_structure(N):
    lap = laplacian_matrix(N)
    assert np.allclose(lap, lap.T)
    assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-9 * N * N)
    off = N * N * np.ones(N - 1)
    assert np.allclose(np.diag(lap, 1), off)
    assert lap[0, N - 1] == pytest.approx(N * N)  # periodic wrap


@pytest.mark.parametrize("N", [4, 8, 32, 128])
def test_dft_diagonalizes_laplacian(N):
    lap = laplacian_matrix(N)
    f = dft_matrix(N)
    diag = f.conj().T @ lap @ f
    off_diag = diag - np.diag(np.diag(diag))
    assert np.max(np.abs(off_diag)) < 1e-7
    k = wavenumbers(N)
    expected = -4.0 * N * N * np.sin(np.pi * k / N) ** 2
    assert np.allclose(np.diag(diag).real, expected, atol=1e-7)
    assert np.allclose(np.diag(diag).real, -exact_frequencies(N) ** 2, atol=1e-7)


def test_exact_frequencies_and_dispersion_gap():
    k = wavenumbers(16)
    omega = exact_frequencies(16)
    assert np.allclose(omega, 32.0 * np.sin(np.pi * k / 16))
    # the gap omega_k - 2 pi k is odd in k and grows like |k|^3
    gap = omega - 2.0 * np.pi * k
    assert gap[0] == 0.0
    assert gap[1] == pytest.approx(-gap[-1])
    assert abs(gap[4]) / abs(gap[2]) == pytest.approx(8.0, rel=0.1)
    for N in (1, 12):
        with pytest.raises(ValueError):
            exact_frequencies(N)


# -------------------------------------------------------------------- evolution


def test_exact_evolution_at_zero_time_is_identity():
    psi = _ricker(16)
    state = exact_evolve(psi, np.zeros_like(psi), 0.0)
    assert np.allclose(state.amplitudes[:16], psi, atol=1e-12)
    assert np.allclose(state.amplitudes[16:], 0.0, atol=1e-12)


def test_single_mode_oscillates_at_its_exact_frequency():
    N = 4
    x = np.arange(N) / N
    mode = np.exp(2j * np.pi * x) / math.sqrt(N)  # k = 1
    omega = 2.0 * N * math.sin(math.pi / N)  # 8 sin(pi/4) = 4 sqrt(2)
    assert omega == pytest.approx(4.0 * math.sqrt(2.0))
    for t in (0.05, 0.21, 0.4):
        state = exact_evolve(mode, np.zeros(N), t)
        # static single mode splits into e^{-i w t} and e^{+i w t} halves
        assert np.allclose(state.amplitudes[:N], math.cos(omega * t) * mode, atol=1e-12)
        assert np.allclose(state.amplitudes[N:], -1j * math.sin(omega * t) * mode, atol=1e-12)


def test_norm_and_per_mode_energy_are_conserved():
    rng = np.random.default_rng(1)
    N = 32
    psi0 = rng.normal(size=N)
    phi0 = rng.normal(size=N)
    scale = math.sqrt(np.vdot(psi0, psi0).real + np.vdot(phi0, phi0).real)
    psi0, phi0 = psi0 / scale, phi0 / scale

    def mode_energy(state):
        c0 = dft(state.amplitudes[:N], "inverse")
        c1 = dft(state.amplitudes[N:], "inverse")
        return np.abs(c0) ** 2 + np.abs(c1) ** 2

    ref = mode_energy(exact_evolve(psi0, phi0, 0.0))
    for t in (0.3, 0.9, 2.4):
        state = exact_evolve(psi0, phi0, t)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(mode_energy(state), ref, atol=1e-12)


def test_smallangle_evolution_splits_pulse_like_dalembert():
    # with linear dispersion a static pulse splits into two half-amplitude
    # counter-propagating copies: psi(x, t) = [psi0(x - t) + psi0(x + t)] / 2
    N = 64
    psi0 = _ricker(N)
    for steps in (8, 16, 23):
        t = steps / N
        state = smallangle_evolve(psi0, t)
        expected = 0.5 * (np.roll(psi0, steps) + np.roll(psi0, -steps))
        assert np.allclose(state.amplitudes[:N], expected, atol=1e-10)


def test_smallangle_evolution_has_unit_period():
    N = 32
    psi0 = _ricker(N)
    state = smallangle_evolve(psi0, 1.0)
    assert np.allclose(state.amplitudes[:N], psi0, atol=1e-10)
    assert np.allclose(state.amplitudes[N:], 0.0, atol=1e-10)
    half = smallangle_evolve(psi0, 0.5)
    assert np.allclose(half.amplitudes[:N], np.roll(psi0, N // 2), atol=1e-10)


def test_evolution_input_validation():
    with pytest.raises(ValueError):
        exact_evolve(np.ones(3), np.zeros(3), 0.1)
    with pytest.raises(ValueError):
        exact_evolve(np.ones(4), np.zeros(2), 0.1)
    with pytest.raises(ValueError):
        exact_evolve(np.zeros(4), np.zeros(4), 0.1)


# ------------------------------------------------------------ infidelity model


def test_single_static_mode_infidelity_is_sin_squared_of_its_gap():
    # the exact and small-angle runs rotate the mode by t omega_k and 2 pi k t: overlap cos(t alpha)
    N, t = 8, 0.7
    c = np.zeros(N, dtype=complex)
    c[3] = 1.0
    psi0 = dft(c, "forward")
    measured = state_infidelity(exact_evolve(psi0, np.zeros(N), t), smallangle_evolve(psi0, t))
    alpha = 2.0 * N * math.sin(3.0 * math.pi / N) - 6.0 * math.pi
    assert measured == pytest.approx(math.sin(t * alpha) ** 2, abs=1e-14)
    assert measured == pytest.approx(0.08417, abs=1e-5)
    exact, second, bound = infidelity_model(c, t, N)
    assert exact == pytest.approx(measured, abs=1e-14)
    assert second == pytest.approx((t * alpha) ** 2, abs=1e-14)
    assert bound == pytest.approx(t ** 2 * math.pi ** 6 * 3 ** 6 / (9.0 * N ** 4), abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.floats(0.05, 3.0), st.integers(0, 2 ** 32 - 1))
def test_closed_form_matches_evolved_states_for_any_spectrum(n, t, seed):
    # asymmetric weights, the unpaired Nyquist mode k = -N/2 included
    N = 2 ** n
    rng = np.random.default_rng(seed)
    c = rng.normal(size=N) + 1j * rng.normal(size=N)
    c /= np.linalg.norm(c)
    psi0 = dft(c, "forward")
    measured = state_infidelity(exact_evolve(psi0, np.zeros(N), t), smallangle_evolve(psi0, t))
    exact, second, bound = infidelity_model(c, t, N)
    assert exact == pytest.approx(measured, abs=1e-12)
    assert 0.0 <= exact <= second <= bound


def test_symmetric_spectrum_infidelity_closed_form():
    # equal weight on k = +-1: alpha is odd so the overlap is cos(t alpha(1))
    N = 16
    c = np.zeros(N, dtype=complex)
    c[1] = c[-1] = 1.0 / math.sqrt(2.0)
    alpha = 2.0 * N * math.sin(math.pi / N) - 2.0 * math.pi
    for t in (0.2, 0.8):
        exact, second, _ = infidelity_model(c, t, N)
        assert exact == pytest.approx(1.0 - math.cos(t * alpha) ** 2, abs=1e-12)
        assert second == pytest.approx(t * t * alpha * alpha, abs=1e-12)


def test_second_order_term_matches_exact_to_fourth_order():
    N = 32
    c = dft(_ricker(N), "inverse")
    ts = np.array([0.02, 0.04, 0.08, 0.16])
    gaps = []
    for t in ts:
        exact, second, _ = infidelity_model(c, t, N)
        gaps.append(abs(exact - second))
    slope = np.polyfit(np.log(ts), np.log(gaps), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.2)


@pytest.mark.parametrize("N", [16, 32, 64])
def test_bound_dominates_exact_and_second_order(N):
    c = dft(_ricker(N), "inverse")
    for t in (0.1, 0.5, 1.0):
        exact, second, bound = infidelity_model(c, t, N)
        assert 0.0 <= exact <= second + 1e-12
        assert second <= bound + 1e-12


def test_infidelity_model_validation():
    with pytest.raises(ValueError):
        infidelity_model(np.ones(4), 0.1, 4)  # unnormalized
    with pytest.raises(ValueError):
        infidelity_model(np.ones(4) / 2.0, 0.1, 8)  # length mismatch


# --------------------------------------------------------------- shot statistics


def test_mc_errors_hand_checked_histogram():
    p_hat, eps_mc, eps_rel = mc_errors(np.array([100, 880, 20]))
    assert p_hat[0] == pytest.approx(0.1)
    assert eps_mc[0] == pytest.approx(math.sqrt(0.1 * 0.9 / 1000.0))
    assert eps_rel[0] == pytest.approx(0.09486832980505138)
    assert p_hat[2] == pytest.approx(0.02)


def test_mc_errors_edge_cases():
    p_hat, eps_mc, eps_rel = mc_errors(np.array([1000, 0]))
    assert (p_hat[0], eps_mc[0], eps_rel[0]) == (1.0, 0.0, 0.0)  # p_hat = 1 has zero binomial width
    assert math.isnan(eps_rel[1])  # relative error undefined at p_hat = 0
    assert p_hat[1] == 0.0 and eps_mc[1] == 0.0
    with pytest.raises(ValueError):
        mc_errors(np.array([], dtype=int))
    with pytest.raises(ValueError):
        mc_errors(np.array([-1, 2]))


def test_shots_required_scaling():
    assert shots_required(0.1, 0.1) == 900  # (1 - p) / (p eps^2)
    # resolving a 20x smaller probability at the same relative error costs
    # about 22x more shots
    ratio = shots_required(0.005, 0.1) / shots_required(0.1, 0.1)
    assert ratio == pytest.approx(199.0 / 9.0, rel=1e-3)
    assert ratio > 10.0
    with pytest.raises(ValueError):
        shots_required(0.0, 0.1)
    with pytest.raises(ValueError):
        shots_required(0.5, 0.0)


def test_fourier_amplitudes_round_trip():
    rng = np.random.default_rng(2)
    N = 8
    psi = rng.normal(size=N) + 1j * rng.normal(size=N)
    phi = rng.normal(size=N) + 1j * rng.normal(size=N)
    scale = math.sqrt(np.vdot(psi, psi).real + np.vdot(phi, phi).real)
    state = exact_evolve(psi / scale, phi / scale, 0.0)
    c0 = dft(state.amplitudes[:N], "inverse")
    c1 = dft(state.amplitudes[N:], "inverse")
    assert np.allclose(dft(c0, "forward"), psi / scale, atol=1e-12)
    assert np.allclose(dft(c1, "forward"), phi / scale, atol=1e-12)
