"""Lowering to the hardware gateset {RZ, PhasedX, RZZ}, gate counts, and the quadratic fit.

Identities used (verified densely in the tests):

    H          = e^{i pi/2} RZ(pi/2) . PhasedX(pi/4, -pi/4)
    CPhase(f)  = e^{i f/4} (RZ(f/4) x RZ(f/4)) . RZZ(-f/4)

so every controlled rotation costs exactly one two-qubit gate after lowering.
The native diagonal injector has no finite decomposition in this gateset and
is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sim import (
    CPHASE,
    DIAG,
    HADAMARD,
    PHASEDX,
    RZ,
    RZZ,
    Circuit,
    phased_x,
    rz,
    rzz,
)

_QUARTER = math.pi / 4.0


def lower(circuit: Circuit) -> Circuit:
    """Rewrite into {RZ, PhasedX, RZZ}; unitary preserved exactly (tracked phase)."""
    out = Circuit(circuit.num_qubits, global_phase=circuit.global_phase)
    for gate in circuit.gates:
        if gate.kind in (RZ, PHASEDX, RZZ):
            out.gates.append(gate)
        elif gate.kind == HADAMARD:
            (q,) = gate.targets
            out.gates.append(phased_x(_QUARTER, -_QUARTER, q))
            out.gates.append(rz(math.pi / 2.0, q))
            out.global_phase += math.pi / 2.0
        elif gate.kind == CPHASE:
            a, b = gate.targets
            (phi,) = gate.params
            out.gates.append(rz(phi / 4.0, a))
            out.gates.append(rz(phi / 4.0, b))
            out.gates.append(rzz(-phi / 4.0, a, b))
            out.global_phase += phi / 4.0
        elif gate.kind == DIAG:
            raise ValueError("diagonal injector has no decomposition in the hardware gateset")
        else:
            raise ValueError(f"unknown gate kind {gate.kind!r}")
    if circuit.final_permutation is not None:
        out._set_permutation(list(circuit.final_permutation))
    return out


@dataclass(frozen=True)
class GateCounts:
    """Tally of a circuit: totals and greedy-layered depth."""

    total: int
    two_qubit: int
    depth: int

    def __post_init__(self):
        if self.two_qubit > self.total:
            raise ValueError("two-qubit count cannot exceed the total")


def count(circuit: Circuit) -> GateCounts:
    """Tally gates; depth = greedy layering, gates sharing no qubit may share a layer."""
    two_qubit = 0
    finished = [0] * circuit.num_qubits
    for gate in circuit.gates:
        if gate.num_targets == 2:
            two_qubit += 1
        layer = 1 + max(finished[t] for t in gate.targets)
        for t in gate.targets:
            finished[t] = layer
    depth = max(finished) if circuit.gates else 0
    return GateCounts(total=len(circuit.gates), two_qubit=two_qubit, depth=depth)


def quadratic_fit(xs, ys) -> tuple[tuple[float, float, float], float]:
    """Least-squares a x^2 + b x + c; returns ((a, b, c), R^2)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3:
        raise ValueError("quadratic fit needs at least three points")
    coeffs = np.polyfit(xs, ys, 2)
    residuals = ys - np.polyval(coeffs, xs)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(residuals ** 2)) / ss_tot
    return (float(coeffs[0]), float(coeffs[1]), float(coeffs[2])), r2
