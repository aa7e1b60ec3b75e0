"""End-to-end pipeline checks: the circuit route against the closed-form
spectral route, noisy runs, sweep rows, and the gate-count table.

The two routes are computed by disjoint code paths (gate-level simulation
vs FFT algebra), so their agreement is the strongest oracle here.
"""

import numpy as np
import pytest

from oracles import pure_density, purity, smallangle_evolve
from qwave import pipeline
from qwave.sim import DensityMatrix, StateVector, state_infidelity
from qwave.spectral import dft, exact_evolve, infidelity_model
from qwave.stateprep import (
    Checkpoint,
    GridSpec,
    OptimizerConfig,
    RickerParams,
    build_ansatz,
    optimize,
    ricker_target,
    ricker_wavefield,
)


def test_ricker_state_matches_stateprep_target():
    for n in (2, 4, 6):
        assert np.allclose(
            pipeline.ricker_state(n).amplitudes,
            ricker_target(GridSpec(n)).amplitudes,
        )


def test_references_match_spectral_module():
    n, t = 4, 0.83
    psi = ricker_wavefield(GridSpec(n))
    psi = psi / np.linalg.norm(psi)
    zeros = np.zeros_like(psi)
    assert np.allclose(
        pipeline.exact_reference(n, t).amplitudes,
        exact_evolve(psi, zeros, t).amplitudes,
    )
    assert np.allclose(
        smallangle_evolve(pipeline.ricker_state(n).amplitudes[: 2 ** n], t).amplitudes,
        smallangle_evolve(psi, t).amplitudes,
    )


@pytest.mark.parametrize("mode", ["approx", "exact"])
def test_circuit_route_equals_spectral_route(mode):
    for n, t in ((3, 0.4), (5, 1.0)):
        circ = pipeline.evolution_circuit(n, t, mode=mode)
        out = pipeline.simulate_noiseless(circ, pipeline.ricker_state(n))
        ref = (
            pipeline.exact_reference(n, t)
            if mode == "exact"
            else smallangle_evolve(pipeline.ricker_state(n).amplitudes[: 2 ** n], t)
        )
        assert state_infidelity(ref, out) < 1e-12


def test_noiseless_default_initial_state_is_zero():
    circ = pipeline.evolution_circuit(2, 0.0)
    out = pipeline.simulate_noiseless(circ)
    assert np.allclose(out.amplitudes, StateVector.zero(3).amplitudes)


def test_noisy_run_at_zero_p_reproduces_pure_state():
    n, t = 3, 0.6
    circ = pipeline.evolution_circuit(n, t)
    rho = pipeline.simulate_noisy(circ, 0.0, pipeline.ricker_state(n))
    pure = pipeline.simulate_noiseless(circ, pipeline.ricker_state(n))
    assert isinstance(rho, DensityMatrix)
    assert state_infidelity(pure, rho) < 1e-11


def test_noisy_run_handles_native_diagonal():
    # the exact-mode evolution keeps its diagonal injector; the noisy engine
    # must run it as-is (noiseless, it is not a hardware two-qubit gate)
    n, t = 3, 0.5
    circ = pipeline.evolution_circuit(n, t, mode="exact")
    rho = pipeline.simulate_noisy(circ, 0.0, pipeline.ricker_state(n))
    assert state_infidelity(pipeline.exact_reference(n, t), rho) < 1e-11


def test_infidelity_grows_with_noise_strength():
    n, t = 4, 1.0
    values = [pipeline.noisy_infidelity(n, t, p) for p in (0.0, 1e-4, 1e-3, 1e-2)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(pipeline.circuit_infidelity(n, t), abs=1e-12)


def test_trained_prep_runs_inside_noisy_circuit():
    n = 2
    target = pipeline.ricker_state(n)
    result = optimize(build_ansatz(n + 1), target, OptimizerConfig(max_iters=2000, seed=0))
    ckpt = Checkpoint.from_result(n, build_ansatz(n + 1), result)
    prep = pipeline.prep_circuit(ckpt)
    out = pipeline.simulate_noiseless(pipeline.evolution_circuit(n, 0.0, prep=prep))
    assert state_infidelity(target, out) < 1e-9
    # the prep's two-qubit gates are themselves noisy: at t = 0 an injected
    # state stays pure while the trained prep decoheres
    injected = pipeline.simulate_noisy(pipeline.evolution_circuit(n, 0.0), 1e-3, target)
    prepared = pipeline.simulate_noisy(pipeline.evolution_circuit(n, 0.0, prep=prep), 1e-3)
    assert purity(injected) == pytest.approx(1.0, abs=1e-12)
    assert purity(prepared) < 1.0 - 1e-5


def test_measured_infidelity_matches_closed_form_model():
    for n, t in ((4, 1.0), (5, 0.5), (6, 1.0)):
        measured = pipeline.circuit_infidelity(n, t)
        exact, second, bound = pipeline.model_epsilon(n, t)
        assert measured == pytest.approx(exact, abs=1e-12)
        assert abs(exact - second) < 0.1 * max(exact, 1e-30) + t ** 4
        assert exact <= bound + 1e-15


def test_noiseless_circuit_at_a_generic_time_matches_model_and_fourth_order_law():
    # at t = 1 the small-angle diagonal is the identity and hides a wrong QFT; t = 0.37 does not
    t, ns = 0.37, range(4, 17)
    measured = [pipeline.circuit_infidelity(n, t) for n in ns]
    for n, eps in zip(ns, measured):
        assert eps == pytest.approx(pipeline.model_epsilon(n, t)[0], rel=1e-5)
    assert pipeline.loglog_slope([2 ** n for n in ns], measured) == pytest.approx(-4.0, abs=0.3)


def test_smoothly_periodic_input_converges_as_n_to_the_minus_four():
    # the default wavelet's periodized slope jump at x = 0 = 1 floors the N^-4 law from n ~ 12;
    # at width 0.05 the wavelet is smooth there to rounding, and the law holds out to n = 20
    t, params = 0.37, RickerParams(width=0.05)

    def model(n):
        N = 2 ** n
        exact, _, bound = infidelity_model(dft(ricker_target(GridSpec(n), params).amplitudes[:N], "inverse"), t, N)
        return exact, bound

    ns = range(13, 21)
    eps, bounds = zip(*(model(n) for n in ns))
    assert pipeline.loglog_slope([2 ** n for n in ns], eps) == pytest.approx(-4.0, abs=0.05)
    assert all(b >= e for e, b in zip(eps, bounds))
    for n in range(10, 17):
        state = ricker_target(GridSpec(n), params)
        psi0 = state.amplitudes[: 2 ** n]
        evolved = pipeline.simulate_noiseless(pipeline.evolution_circuit(n, t), state)
        measured = state_infidelity(exact_evolve(psi0, np.zeros_like(psi0), t), evolved)
        assert measured == pytest.approx(model(n)[0], rel=1e-3)


def test_memory_guard_refuses_runs_beyond_physical_memory(monkeypatch):
    monkeypatch.setattr(pipeline, "PHYSICAL_MEMORY", int(7.8 * 2 ** 30))
    pipeline.check_memory(12, noisy=True)  # 3 density matrices of 2^13 x 2^13: 3 GiB
    pipeline.check_memory(24, noisy=False)  # 11 statevectors of 2^25 amplitudes: 5.5 GiB
    with pytest.raises(ValueError, match="a noisy run at n=13 needs about 12 GiB"):
        pipeline.check_memory(13, noisy=True)
    with pytest.raises(ValueError, match="a noiseless run at n=25 needs about 11 GiB"):
        pipeline.check_memory(25, noisy=False)


def test_sweep_point_rows():
    row = pipeline.sweep_point(4, 1.0, 0.0)
    assert (row.n, row.N, row.t, row.p) == (4, 16, 1.0, 0.0)
    assert row.epsilon == pytest.approx(row.epsilon_model, abs=1e-12)
    assert row.epsilon <= row.bound
    assert row.astuple() == (4, 16, 1.0, 0.0, row.epsilon, row.epsilon_model, row.bound)
    assert pipeline.SweepRow.FIELDS == ("n", "N", "t", "p", "epsilon", "epsilon_model", "bound")
    noisy = pipeline.sweep_point(4, 1.0, 1e-3)
    assert noisy.epsilon > row.epsilon


def test_loglog_slope_exact_power_law():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    assert pipeline.loglog_slope(xs, 3.0 * xs ** -4) == pytest.approx(-4.0)
    assert pipeline.loglog_slope(xs, 0.5 * xs ** 2) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        pipeline.loglog_slope([1.0], [1.0])
    with pytest.raises(ValueError):
        pipeline.loglog_slope([1.0, 2.0], [0.0, 1.0])


def test_wavefield_probabilities_extracts_first_sector():
    n = 3
    state = pipeline.ricker_state(n)
    probs = pipeline.wavefield_probabilities(state, n)
    assert probs.shape == (8,)
    assert np.allclose(probs, np.abs(state.amplitudes[:8]) ** 2)
    rho = pure_density(state)
    assert np.allclose(pipeline.wavefield_probabilities(rho, n), probs)


def test_gate_count_table():
    ns = range(4, 11)
    rows = [
        pipeline.gate_count_row(n, 1.0, prep=pipeline.prep_circuit_like(build_ansatz(n + 1)))
        for n in ns
    ]
    assert [r["two_qubit_evolution"] for r in rows] == [n * n for n in ns]
    assert [r["two_qubit_with_prep"] for r in rows] == [34, 49, 63, 91, 112, 135, 160]
    for r in rows:
        assert r["total_evolution"] >= r["two_qubit_evolution"]
        assert r["total_with_prep"] > r["total_evolution"]
        assert r["depth_with_prep"] >= r["depth_evolution"]
