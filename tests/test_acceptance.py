"""Acceptance gate: the eleven end-to-end claims the toolkit must satisfy.

Each test prints exactly one [PASS]/[FAIL] line with the measured numbers
(visible in the summary via the -rP report option configured for the suite)
and then asserts.  Tolerances are stated inline next to each check.
"""

import math

import numpy as np

from oracles import laplacian_matrix, shots_required, smallangle_diagonal_values
from qwave import pipeline
from qwave.circuits import EvolutionSpec, assemble_evolution, build_approx_diagonal, build_qft
from qwave.compile import quadratic_fit
from qwave.sim import sample_bitstrings
from qwave.spectral import dft_matrix, mc_errors, wavenumbers
from qwave.stateprep import GridSpec, OptimizerConfig, build_ansatz, optimize, ricker_target


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion:2d}: {detail}")
    assert ok, f"acceptance criterion {criterion} failed: {detail}"


def test_acceptance_01_laplacian_diagonalization():
    worst = 0.0
    for n in range(2, 9):  # N = 4 .. 256
        N = 2 ** n
        f = dft_matrix(N)
        diag = f.conj().T @ laplacian_matrix(N) @ f
        k = wavenumbers(N)
        expected = -4.0 * N * N * np.sin(np.pi * k / N) ** 2
        err = max(
            float(np.max(np.abs(diag - np.diag(np.diag(diag))))),
            float(np.max(np.abs(np.diag(diag).real - expected))),
        )
        worst = max(worst, err)
    _report(1, worst < 1e-8, f"DFT diagonalizes the Laplacian for N=4..256, max error {worst:.2e} < 1e-8")


def test_acceptance_02_diagonal_product_and_qft():
    rng = np.random.default_rng(2)
    worst_diag = 0.0
    for n in range(2, 6):
        for t in rng.uniform(0.0, 2.0, 3):
            u = build_approx_diagonal(n, float(t)).unitary()
            target = np.diag(smallangle_diagonal_values(n, float(t)))
            worst_diag = max(worst_diag, float(np.max(np.abs(u - target))))
    worst_qft = 0.0
    for n in range(1, 7):
        worst_qft = max(worst_qft, float(np.max(np.abs(build_qft(n).unitary() - dft_matrix(2 ** n)))))
    ok = worst_diag < 1e-10 and worst_qft < 1e-10
    _report(2, ok, f"factored diagonal (err {worst_diag:.2e}) and QFT vs DFT (err {worst_qft:.2e}) < 1e-10")


def test_acceptance_03_unit_time_periodicity():
    worst = 0.0
    for n in range(2, 9):
        circ = assemble_evolution(None, EvolutionSpec(n, 1.0, mode="approx"))
        dim = 2 ** (n + 1)
        worst = max(worst, float(np.max(np.abs(circ.unitary() - np.eye(dim)))))
    _report(3, worst < 1e-10, f"small-angle evolution at t=1 is the identity for n=2..8, max error {worst:.2e} < 1e-10")


def test_acceptance_04_fourth_order_convergence_in_grid_size():
    rows = [pipeline.sweep_point(n, 1.0, 0.0) for n in range(5, 9)]  # N = 32..256
    slope = pipeline.loglog_slope([r.N for r in rows], [r.epsilon for r in rows])
    ok = abs(slope + 4.0) < 0.3
    _report(4, ok, f"noiseless infidelity vs N in 32..256 scales with slope {slope:.4f} (want -4 +- 0.3)")


def test_acceptance_05_quadratic_growth_in_time():
    slopes = []
    for n in (6, 7):
        ts = [round(0.1 + 0.01 * i, 10) for i in range(91)]  # 0.1 .. 1.0 at dt = 0.01
        eps = [pipeline.model_epsilon(n, t)[0] for t in ts]
        meas = [pipeline.circuit_infidelity(n, t) for t in (0.1, 0.5, 1.0)]
        model = [pipeline.model_epsilon(n, t)[0] for t in (0.1, 0.5, 1.0)]
        assert np.allclose(meas, model, rtol=1e-6)  # spot-check the sweep is honest
        slopes.append(pipeline.loglog_slope(ts, eps))
    ok = all(abs(s - 2.0) < 0.1 for s in slopes)
    _report(5, ok, f"infidelity vs t on [0.1,1] (dt=0.01) has slopes {slopes[0]:.4f}, {slopes[1]:.4f} (want 2 +- 0.1)")


def test_acceptance_06_noise_creates_an_optimal_grid_size():
    ns = list(range(2, 10))
    details = []
    ok = True
    for p in (1e-5, 1e-4, 1e-3):
        eps = [pipeline.noisy_infidelity(n, 1.0, p) for n in ns]
        best = ns[int(np.argmin(eps))]
        interior = ns[0] < best < ns[-1]
        ok = ok and interior
        details.append(f"p={p:g}: argmin n={best}")
    _report(6, ok, "noisy epsilon vs N has an interior minimum (" + "; ".join(details) + ")")


def test_acceptance_07_closed_form_matches_circuit():
    # For a static field the overlap of the small-angle and exact states is the real
    # number sum_k p_k cos(t a_k), so the closed form holds on every grid, including the
    # n <= 3 grids where the unresolved wavelet puts O(1) weight on the unpaired Nyquist mode.
    worst = 0.0
    for n in range(2, 9):
        measured = pipeline.circuit_infidelity(n, 1.0)
        exact, _, bound = pipeline.model_epsilon(n, 1.0)
        worst = max(worst, abs(measured - exact))
        assert measured <= bound + 1e-15
    # The second-order term approximates the exact expression to O(t^4).  Fit at
    # n=5, where the quartic coefficient dominates at small t; for n >= 6 the
    # spectral tail makes t^6 terms compete at every accessible t.
    ts = np.array([0.02, 0.04, 0.08, 0.16])
    gaps = []
    for t in ts:
        exact, second, _ = pipeline.model_epsilon(5, float(t))
        gaps.append(abs(exact - second))
    order = float(np.polyfit(np.log(ts), np.log(gaps), 1)[0])
    ok = worst < 1e-9 and abs(order - 4.0) < 0.3
    _report(7, ok, f"model vs circuit infidelity agree to {worst:.2e} (< 1e-9, n=2..8) and |exact-quadratic| ~ t^{order:.2f}")


def test_acceptance_08_shot_noise_statistics():
    eps_rel = mc_errors(np.array([100, 900]))[2][0]
    ratio = shots_required(0.005, 0.1) / shots_required(0.1, 0.1)
    ok = abs(eps_rel - 0.095) < 0.01 and ratio >= 10.0
    _report(8, ok, f"eps_rel(p=0.1, 1000 shots) = {eps_rel:.4f} (want 0.095 +- 0.01); shots ratio {ratio:.1f}x >= 10x")


def test_acceptance_09_gate_counts_grow_quadratically():
    ns = list(range(4, 11))
    rows = [
        pipeline.gate_count_row(n, 1.0, prep=pipeline.prep_circuit_like(build_ansatz(n + 1)))
        for n in ns
    ]
    _, r2 = quadratic_fit(ns, [r["two_qubit_evolution"] for r in rows])
    n6 = next(r for r in rows if r["n"] == 6)["two_qubit_with_prep"]
    same_order = 71 / 3 <= n6 <= 71 * 3
    ok = r2 > 0.999 and same_order
    _report(9, ok, f"two-qubit count fit R^2 = {r2:.6f} (> 0.999); n=6 with prep = {n6} gates, same order as 71")


def test_acceptance_10_trainable_state_preparation():
    means = []
    best = {}
    for n in (2, 4, 6):
        target = ricker_target(GridSpec(n))
        ansatz = build_ansatz(n + 1)
        infs = [
            optimize(ansatz, target, OptimizerConfig(max_iters=5000, seed=s)).infidelity
            for s in (0, 1, 2)
        ]
        means.append(float(np.mean(infs)))
        best[n] = min(infs)
    ok = all(v <= 1e-2 for v in best.values()) and all(
        a <= b + 1e-12 for a, b in zip(means, means[1:])
    )
    _report(
        10,
        ok,
        "trained prep infidelity <= 1e-2 for n <= 6 and grows with n "
        + f"(best: n=2 {best[2]:.1e}, n=4 {best[4]:.1e}, n=6 {best[6]:.1e})",
    )


def test_acceptance_11_sampled_wavefield_tracks_the_exact_curve():
    # statistical check of the sampling apparatus: the exact-dispersion run
    # is sampled so the curve under test is the sampled state's own
    # distribution and the band is pure binomial 2-sigma; eps_mc comes from
    # the exact probabilities (the sampled estimate breaks down at p_hat = 0)
    n, shots = 6, 10_000
    N = 2 ** n
    covered = total = 0
    for i, t in enumerate((0.0, 0.3, 0.6, 0.9)):
        circuit = pipeline.evolution_circuit(n, t, mode="exact")
        state = pipeline.simulate_noiseless(circuit, pipeline.ricker_state(n))
        exact = pipeline.wavefield_probabilities(pipeline.exact_reference(n, t), n)
        assert np.max(np.abs(pipeline.wavefield_probabilities(state, n) - exact)) < 1e-12
        sampled = sample_bitstrings(state, shots, seed=i)[:N] / shots
        eps_mc = np.sqrt(exact * (1.0 - exact) / shots)
        inside = np.abs(sampled - exact) <= 2.0 * eps_mc + 1e-12
        covered += int(inside.sum())
        total += N
    fraction = covered / total
    _report(
        11,
        fraction >= 0.95,
        f"n=6 sampled wavefield within 2 eps_mc of the exact curve on {covered}/{total} grid points ({100 * fraction:.1f}% >= 95%)",
    )
