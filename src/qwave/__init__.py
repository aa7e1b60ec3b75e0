"""qwave: spectral-method wave-equation evolution on a simulated quantum register.

Layout:
    sim        dense statevector / density-matrix engine, gates, noise, sampling
    circuits   QFT builders, diagonal evolution operators, the full pipeline circuit
    stateprep  Ricker targets and variational brickwall preparation
    spectral   circuit-independent classical reference and error model
    compile    lowering to {RZ, PhasedX, RZZ}, gate counts, quadratic fit
    pipeline   end-to-end runs combining the above
    cli        command-line driver (train / evolve / sweep / gatecount)
    svgplot    dependency-free SVG line charts for the CLI

Import the submodules directly (`from qwave import pipeline`); the package
root re-exports nothing.
"""

__version__ = "0.1.0"
