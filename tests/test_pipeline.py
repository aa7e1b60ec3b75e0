"""End-to-end pipeline checks: the circuit route against the closed-form
spectral route, noisy runs, sweep rows, and the gate-count table.

The two routes are computed by disjoint code paths (gate-level simulation
vs FFT algebra), so their agreement is the strongest oracle here.
"""

import tracemalloc
from dataclasses import astuple, fields

import numpy as np
import pytest

from oracles import density, out_of_place_noisy, pure_density, purity, smallangle_evolve, standard_layout_noisy
from qwave import pipeline
from qwave.sim import (
    CPHASE,
    Circuit,
    DensityMatrix,
    NoiseModel,
    StateVector,
    apply_circuit_noisy,
    hadamard,
    state_infidelity,
)
from qwave.spectral import dft, exact_evolve, infidelity_model
from qwave.stateprep import (
    Checkpoint,
    GridSpec,
    ansatz_to_circuit,
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


def _noisy_run_case(name: str, n: int) -> tuple[StateVector | DensityMatrix, Circuit]:
    """A start and a circuit on n + 1 qubits for the noisy run-level oracle test."""
    rng = np.random.default_rng(n)
    evolution = pipeline.evolution_circuit(n, 0.37)
    if name == "injected_ricker":  # wire 0 held in |0> until the first gate that reaches it
        return pipeline.ricker_state(n), evolution
    if name == "prep":  # every wire held; PHASEDX on held wires, then on live ones
        ansatz = build_ansatz(n + 1)
        prep = ansatz_to_circuit(ansatz, rng.uniform(-np.pi, np.pi, ansatz.num_params))
        return StateVector.zero(n + 1), pipeline.evolution_circuit(n, 0.37, prep=prep)
    if name == "mixed_start":  # a DensityMatrix holds no wire
        other = rng.normal(size=2 ** (n + 1)) + 1j * rng.normal(size=2 ** (n + 1))
        rho = 0.7 * pure_density(pipeline.ricker_state(n)).entries
        rho += 0.3 * np.outer(other, other.conj()) / np.vdot(other, other).real
        return density(rho), evolution
    evolution._set_permutation([(q + 1) % (n + 1) for q in range(n + 1)])  # a trailing relabeling
    return pipeline.ricker_state(n), evolution


@pytest.mark.parametrize("name", ["injected_ricker", "prep", "mixed_start", "relabeled"])
@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("p", [0.0, 1e-4, 1e-3, 0.5])
def test_noisy_run_is_bit_identical_to_the_out_of_place_loop(name, n, p):
    start, circuit = _noisy_run_case(name, n)
    got = apply_circuit_noisy(start, circuit, NoiseModel(p)).entries
    assert np.array_equal(got, out_of_place_noisy(start, circuit, p))


@pytest.mark.parametrize("name", ["injected_ricker", "prep", "mixed_start", "relabeled"])
@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("p", [0.0, 1e-4, 1e-3, 0.5])
def test_noisy_run_matches_the_standard_layout_loop(name, n, p):
    # U (x) conj(U) in one product rounds differently from a row pass and a column pass
    start, circuit = _noisy_run_case(name, n)
    got = apply_circuit_noisy(start, circuit, NoiseModel(p)).entries
    want = standard_layout_noisy(start, circuit, p)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_noisy_run_peaks_below_one_and_a_half_density_matrices():
    # the run and its two read-outs; a read-out through rho's whole standard layout peaks at 2.0
    n = 8  # rho is 2^9 x 2^9, 4 MiB: several 1-MiB slabs per dense gate
    circuit, start = pipeline.evolution_circuit(n, 1.0), pipeline.ricker_state(n)
    exact = pipeline.exact_reference(n, 1.0)
    tracemalloc.start()
    try:
        rho = pipeline.simulate_noisy(circuit, 1e-3, start)
        pipeline.wavefield_probabilities(rho, n)
        state_infidelity(exact, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * rho.vec.nbytes


@pytest.mark.parametrize("n", range(2, 9))
def test_noisy_infidelity_on_wire0_blocks_matches_the_full_density_matrix(n):
    for t in (1.0, 0.37, 0.0):  # at t = 0 the circuit is empty
        exact, circuit = pipeline.exact_reference(n, t), pipeline.evolution_circuit(n, t)
        for p in (1e-4, 1e-3, 0.5, 15 / 16, 1.0):
            full = state_infidelity(exact, pipeline.simulate_noisy(circuit, p, pipeline.ricker_state(n)))
            assert abs(pipeline.noisy_infidelity(n, t, p) - full) <= 1e-15


@pytest.mark.parametrize("n", range(2, 9))
def test_noisy_infidelity_without_pair_gates_is_the_pure_state_one(n):
    # at t = 0 the circuit is empty: no channel acts, so epsilon is the pure-state value near 1e-32,
    # not the rounding noise of 1 - F
    assert not any(g.num_targets == 2 for g in pipeline.evolution_circuit(n, 0.0).gates)
    exact = pipeline.circuit_infidelity(n, 0.0)
    assert exact < 1e-30
    for p in (0.0, 1e-4, 1e-3, 0.5, 1.0):
        assert pipeline.noisy_infidelity(n, 0.0, p) == exact


@pytest.mark.parametrize("shape", ["one_diagonal_on_every_wire", "wire0_gate_between_pair_gates"])
def test_noisy_infidelity_refuses_a_circuit_that_couples_wire0_otherwise(monkeypatch, shape):
    if shape == "one_diagonal_on_every_wire":
        circuit = pipeline.evolution_circuit(3, 0.5, mode="exact")
    else:
        circuit = pipeline.evolution_circuit(3, 0.5)
        first = next(i for i, g in enumerate(circuit.gates) if g.num_targets == 2 and 0 in g.targets)
        circuit.gates.insert(first + 1, hadamard(0))
    monkeypatch.setattr(pipeline, "evolution_circuit", lambda *args, **kwargs: circuit)
    with pytest.raises(ValueError, match="couple wire 0 only in one run of diagonal pair gates"):
        pipeline.noisy_infidelity(3, 0.5, 1e-3)


def test_noisy_infidelity_refuses_a_dense_gate_inside_spatial_wire0s_two_qubit_run(monkeypatch):
    circuit = pipeline.evolution_circuit(3, 0.5)
    tail = next(i for i, g in enumerate(circuit.gates) if g.num_targets == 2 and 0 not in g.targets and 1 in g.targets
                and i > max(j for j, h in enumerate(circuit.gates) if 0 in h.targets and h.num_targets == 2))
    circuit.gates.insert(tail + 1, hadamard(1))
    monkeypatch.setattr(pipeline, "evolution_circuit", lambda *args, **kwargs: circuit)
    with pytest.raises(ValueError, match="spatial wire 0 must meet only diagonal gates between its first and last"):
        pipeline.noisy_infidelity(3, 0.5, 1e-3)


def test_noisy_sweep_point_peaks_below_one_density_matrix():
    n = 9  # rows (Q_0, Q_1) of rho: 10 of 16 carried, 0.625 of its 16 MiB
    tracemalloc.start()
    try:
        pipeline.sweep_point(n, 1.0, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 4 ** (n + 1)


def test_noisy_sweep_point_peaks_below_one_point_two_density_matrices():
    n = 9  # the largest point of the noisy sweep: rho is 2^10 x 2^10, 16 MiB
    tracemalloc.start()
    try:
        pipeline.sweep_point(n, 1.0, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 16 * 4 ** (n + 1)


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


def test_generic_times_catch_a_qft_without_its_small_angles():
    # drop every CPHASE below pi/8 from both QFTs: 6 of 30 at n = 6, 12 of 42 at n = 7
    for n, dropped in ((6, 6), (7, 12)):
        for t in (0.1, 0.37):
            circuit = pipeline.evolution_circuit(n, t)
            kept = [g for g in circuit.gates if g.kind != CPHASE or abs(g.params[0]) >= np.pi / 8]
            assert len(circuit.gates) - len(kept) == dropped
            mutant = Circuit(n + 1, kept, circuit.global_phase, circuit.final_permutation)
            model = pipeline.model_epsilon(n, t)[0]
            assert pipeline.circuit_infidelity(n, t) == pytest.approx(model, rel=1e-6)
            eps = state_infidelity(pipeline.exact_reference(n, t),
                                   pipeline.simulate_noiseless(mutant, pipeline.ricker_state(n)))
            assert eps >= 10 * model


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
    pipeline.check_memory(13, noisy=True)  # 1.5 density matrices of 2^14 x 2^14: 6 GiB
    pipeline.check_memory(24, noisy=False)  # 11 statevectors of 2^25 amplitudes: 5.5 GiB
    with pytest.raises(ValueError, match="a noisy run at n=14 needs about 24 GiB"):
        pipeline.check_memory(14, noisy=True)
    with pytest.raises(ValueError, match="a noiseless run at n=25 needs about 11 GiB"):
        pipeline.check_memory(25, noisy=False)



def test_training_memory_guard_prices_one_inverse_hessian_per_concurrent_training(monkeypatch):
    monkeypatch.setattr(pipeline, "PHYSICAL_MEMORY", 8 * 1000 ** 2)
    pipeline.check_training_memory(1000)
    with pytest.raises(ValueError, match="a training of 1001 angles needs about"):
        pipeline.check_training_memory(1001)
    with pytest.raises(ValueError, match="2 trainings of 1000 angles at once need about"):
        pipeline.check_training_memory(1000, concurrent=2)

def test_sweep_point_rows():
    row = pipeline.sweep_point(4, 1.0, 0.0)
    assert (row.n, row.N, row.t, row.p) == (4, 16, 1.0, 0.0)
    assert row.epsilon == pytest.approx(row.epsilon_model, abs=1e-12)
    assert row.epsilon <= row.bound
    assert astuple(row) == (4, 16, 1.0, 0.0, row.epsilon, row.epsilon_model, row.bound)
    assert tuple(f.name for f in fields(row)) == ("n", "N", "t", "p", "epsilon", "epsilon_model", "bound")
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
    preps = [build_ansatz(n + 1) for n in ns]
    rows = [
        pipeline.gate_count_row(n, 1.0, prep=ansatz_to_circuit(a, np.zeros(a.num_params)))
        for n, a in zip(ns, preps)
    ]
    assert [r["two_qubit_evolution"] for r in rows] == [n * n for n in ns]
    assert [r["two_qubit_with_prep"] for r in rows] == [34, 49, 63, 91, 112, 135, 160]
    for r in rows:
        assert r["total_evolution"] >= r["two_qubit_evolution"]
        assert r["total_with_prep"] > r["total_evolution"]
        assert r["depth_with_prep"] >= r["depth_evolution"]
