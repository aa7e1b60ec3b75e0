"""qwave: spectral-method wave-equation evolution on a simulated quantum register.

Layout:
    sim        dense statevector / density-matrix engine, gates, noise, sampling
    circuits   QFT builders, diagonal evolution operators, the full pipeline circuit
    stateprep  Ricker targets and variational brickwall preparation
    spectral   circuit-independent classical reference and error model
    compile    lowering to {RZ, PhasedX, RZZ}, gate counts, quadratic fit
    pipeline   end-to-end runs combining the above
    cli        command-line driver (train / evolve / sweep / gatecount)
"""

from .circuits import (
    EvolutionSpec,
    assemble_evolution,
    build_approx_diagonal,
    build_exact_diagonal,
    build_iqft,
    build_qft,
)
from .compile import GateCounts, count, lower, quadratic_fit
from .sim import (
    Circuit,
    DensityMatrix,
    Gate,
    NoiseModel,
    StateVector,
    apply_circuit,
    apply_circuit_noisy,
    apply_gate,
    cphase,
    diagonal_injector,
    hadamard,
    phased_x,
    rz,
    rzz,
    sample_bitstrings,
    state_infidelity,
)
from .spectral import (
    dft,
    exact_evolve,
    exact_frequencies,
    infidelity_model,
    mc_errors,
    shots_required,
    smallangle_evolve,
    wavenumbers,
)
from .stateprep import (
    BrickwallAnsatz,
    Checkpoint,
    GridSpec,
    OptimizerConfig,
    RickerParams,
    TrainingResult,
    ansatz_to_circuit,
    build_ansatz,
    cost,
    optimize,
    prepare_state,
    ricker_target,
    ricker_wavefield,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
