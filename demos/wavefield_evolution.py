"""Evolve a Ricker pulse with the qubit circuit and compare against the
spectral reference, then estimate the final wavefield from shot samples.

Run from the repo root:  python3 demos/wavefield_evolution.py
Writes demos/output/wavefield_t1.svg
"""

from pathlib import Path

import numpy as np

from qwave import pipeline
from qwave.sim import sample_bitstrings
from qwave.spectral import mc_errors
from qwave.svgplot import Series, line_chart

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

n = 6
N = 2**n
x = np.arange(N) / N

# Circuit route vs closed-form spectral route at a few times.
print(f"grid N = {N} (n = {n} position qubits)")
print(f"{'t':>6} {'max |circuit - exact| prob':>28} {'infidelity':>12}")
for t in (0.25, 0.5, 1.0):
    circuit = pipeline.evolution_circuit(n, t, mode="approx")
    state = pipeline.simulate_noiseless(circuit, pipeline.ricker_state(n))
    exact = pipeline.exact_reference(n, t)
    dev = np.max(np.abs(pipeline.wavefield_probabilities(state, n) - pipeline.wavefield_probabilities(exact, n)))
    print(f"{t:6.2f} {dev:28.3e} {pipeline.circuit_infidelity(n, t):12.3e}")

# Sample the t = 1 state and overlay the shot estimate on the exact curve.
t, shots = 1.0, 20_000
exact = pipeline.exact_reference(n, t)
exact_prob = pipeline.wavefield_probabilities(exact, n)
circuit = pipeline.evolution_circuit(n, t, mode="exact")
state = pipeline.simulate_noiseless(circuit, pipeline.ricker_state(n))
p_hat, _, _ = mc_errors(sample_bitstrings(state, shots, seed=7))
# Fold the auxiliary qubit: probability of grid point j is the sum over both branches.
est_grid = p_hat[:N] + p_hat[N:]
# Error bars from the reference curve: a sampled zero carries no spread of its
# own, so the binomial width of the true probability is the honest yardstick.
err_grid = np.sqrt(exact_prob * (1.0 - exact_prob) / shots)

line_chart(
    [
        Series("exact", x, exact_prob),
        Series(f"{shots} shots", x, est_grid, errs=err_grid),
    ],
    OUT / "wavefield_t1.svg",
    title=f"wavefield probabilities at t = {t}, N = {N}",
    xlabel="x",
    ylabel="probability",
)
within = np.abs(est_grid - exact_prob) <= 2 * err_grid + 1e-12
print(f"\nsampled estimate within 2 sigma of exact on {int(within.sum())}/{N} grid points")
print(f"wrote {OUT / 'wavefield_t1.svg'}")
