"""Timing wrappers around the calls into each qwave layer.

Each wrapper is installed at the name its caller resolves: `pipeline` binds
`apply_circuit_noisy`, `apply_circuit` and `assemble_evolution` at import, and
`cli` binds `optimize` and `line_chart`, so those are patched in the calling
module; calls that go through a module attribute or a module global
(`pipeline.sweep_point`, `spectral.dft`, `sim.depolarize_pair`, ...) are
patched in the defining module.  Spans nest: a span's self time is its
duration minus the spans it encloses.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from qwave import cli, pipeline, sim, spectral, stateprep

# (module that resolves the name, attribute, layer metric prefix)
WRAPPED = (
    (pipeline, "sweep_point", "pipeline.sweep_point"),
    (pipeline, "assemble_evolution", "circuits.assemble_evolution"),
    (pipeline, "apply_circuit_noisy", "sim.apply_circuit_noisy"),
    (sim, "depolarize_pair", "sim.depolarize_pair"),
    (pipeline, "apply_circuit", "sim.apply_circuit"),
    (spectral, "dft", "spectral.dft"),
    (spectral, "dft_matrix", "spectral.dft_matrix"),
    (spectral, "exact_evolve", "spectral.exact_evolve"),
    (spectral, "infidelity_model", "spectral.infidelity_model"),
    (stateprep, "cost_and_gradient", "stateprep.cost_and_gradient"),
    (cli, "optimize", "stateprep.optimize"),
    (cli, "line_chart", "svgplot.line_chart"),
)


class Tracer:
    def __init__(self, cache_misses):
        self.cache_misses = cache_misses  # () -> dft_matrix cache misses since install
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.longest = defaultdict(float)
        self.top_level = 0.0
        self.dm_gates = 0
        self.iterations = 0
        self._open: list[float] = []  # time covered by child spans, per open span

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                covered = self._open.pop()
                self.total[name] += duration
                self.self_time[name] += duration - covered
                self.calls[name] += 1
                self.longest[name] = max(self.longest[name], duration)
                if self._open:
                    self._open[-1] += duration
                else:
                    self.top_level += duration
            if name == "sim.apply_circuit_noisy":
                self.dm_gates += len(args[1].gates)
            elif name == "stateprep.optimize":
                self.iterations += result.iterations
            return result

        return timed

    def metrics(self, wall: float) -> dict[str, float]:
        """Per-layer figures; `cli.self_s` is the command time outside every span."""
        return {
            "sim.apply_circuit_noisy.self_s": self.self_time["sim.apply_circuit_noisy"],
            "sim.depolarize_pair.s": self.total["sim.depolarize_pair"],
            "sim.depolarize_pair.calls": self.calls["sim.depolarize_pair"],
            "sim.dm_gates": self.dm_gates,
            "sim.apply_circuit.s": self.total["sim.apply_circuit"],
            "sim.apply_circuit.calls": self.calls["sim.apply_circuit"],
            "spectral.dft.s": self.total["spectral.dft"],
            "spectral.dft.calls": self.calls["spectral.dft"],
            "spectral.dft_matrix.s": self.total["spectral.dft_matrix"],
            "spectral.dft_matrix.misses": self.cache_misses(),
            "spectral.exact_evolve.s": self.total["spectral.exact_evolve"],
            "spectral.infidelity_model.s": self.total["spectral.infidelity_model"],
            "circuits.assemble_evolution.s": self.total["circuits.assemble_evolution"],
            "pipeline.sweep_point.s": self.total["pipeline.sweep_point"],
            "pipeline.sweep_point.max_s": self.longest["pipeline.sweep_point"],
            "stateprep.cost_and_gradient.s": self.total["stateprep.cost_and_gradient"],
            "stateprep.cost_and_gradient.calls": self.calls["stateprep.cost_and_gradient"],
            "stateprep.optimize.self_s": self.self_time["stateprep.optimize"],
            "stateprep.optimize.iterations": self.iterations,
            "svgplot.line_chart.s": self.total["svgplot.line_chart"],
            "cli.self_s": wall - self.top_level,
        }


def install() -> Tracer:
    """Patch every name in WRAPPED; the process is expected to exit afterwards."""
    dft_matrix = spectral.dft_matrix
    misses_before = dft_matrix.cache_info().misses
    tracer = Tracer(lambda: dft_matrix.cache_info().misses - misses_before)
    for module, attr, name in WRAPPED:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
    return tracer
