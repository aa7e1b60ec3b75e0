"""Gate-compiler checks: hardware-gateset lowering, tallies/depth, and quadratic
fits.

Oracles: dense unitary comparison before/after each rewrite, hand-counted
layer structures, and exactly generated polynomial data.
"""

import math
from collections import Counter

import numpy as np
import pytest

from oracles import unitary
from qwave.circuits import build_qft
from qwave.compile import GateCounts, count, lower, quadratic_fit
from qwave.sim import (
    Circuit,
    cphase,
    diagonal_injector,
    hadamard,
    phased_x,
    rz,
    rzz,
)

# ---------------------------------------------------------------------- lowering


def test_hadamard_lowering_is_exact():
    lowered = lower(Circuit(1, [hadamard(0)]))
    assert [g.kind for g in lowered.gates] == ["PHASEDX", "RZ"]
    s = 1 / math.sqrt(2)
    assert np.max(np.abs(unitary(lowered) - np.array([[s, s], [s, -s]]))) < 1e-15


def test_cphase_lowering_is_exact():
    phi = 1.234
    lowered = lower(Circuit(2, [cphase(phi, 0, 1)]))
    assert [g.kind for g in lowered.gates] == ["RZ", "RZ", "RZZ"]
    assert sum(1 for g in lowered.gates if g.num_targets == 2) == 1
    assert np.max(np.abs(unitary(lowered) - np.diag([1, 1, 1, np.exp(1j * phi)]))) < 1e-15


def test_native_gates_pass_through_unchanged():
    circ = Circuit(2, [rz(0.3, 0), phased_x(0.5, 0.7, 1), rzz(0.9, 0, 1)])
    lowered = lower(circ)
    assert lowered.gates == circ.gates


def test_lowering_preserves_unitary_and_two_qubit_count():
    rng = np.random.default_rng(0)
    for m in (2, 3, 4):
        circ = Circuit(m, global_phase=0.31)
        for _ in range(15):
            q, r = rng.choice(m, size=2, replace=False)
            gate = [
                hadamard(int(q)),
                rz(float(rng.uniform(-3, 3)), int(q)),
                phased_x(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)), int(q)),
                rzz(float(rng.uniform(-3, 3)), int(q), int(r)),
                cphase(float(rng.uniform(-3, 3)), int(q), int(r)),
            ][int(rng.integers(5))]
            circ.append(gate)
        circ._set_permutation(list(rng.permutation(m)))
        lowered = lower(circ)
        assert np.max(np.abs(unitary(lowered) - unitary(circ))) < 1e-12
        assert count(lowered).two_qubit == count(circ).two_qubit
        assert all(g.kind in ("RZ", "PHASEDX", "RZZ") for g in lowered.gates)
        assert lowered.final_permutation == circ.final_permutation


def test_lowered_qft_gate_inventory():
    for n in (2, 3, 5):
        lowered = lower(build_qft(n))
        assert Counter(g.kind for g in lowered.gates) == {
            "PHASEDX": n,
            "RZ": n * n,
            "RZZ": n * (n - 1) // 2,
        }
        assert count(lowered).two_qubit == n * (n - 1) // 2


def test_diagonal_injector_cannot_be_lowered():
    circ = Circuit(2, [diagonal_injector(np.ones(4), (0, 1))])
    with pytest.raises(ValueError):
        lower(circ)


# ------------------------------------------------------------------------ tallies


def test_count_empty_circuit():
    counts = count(Circuit(3))
    assert counts == GateCounts(total=0, two_qubit=0, depth=0)


def test_count_depth_layering():
    # disjoint pairs share a layer; overlapping wires stack
    parallel = Circuit(4, [rzz(0.1, 0, 1), rzz(0.1, 2, 3)])
    assert count(parallel).depth == 1
    chain = Circuit(3, [rzz(0.1, 0, 1), rzz(0.1, 1, 2)])
    assert count(chain).depth == 2
    stacked = Circuit(2, [rz(0.1, 0), rz(0.2, 0), rz(0.3, 0), hadamard(1)])
    assert count(stacked).depth == 3


def test_count_qft_budget():
    counts = count(build_qft(4))
    assert counts.total == 4 + 6
    assert counts.two_qubit == 6
    assert Counter(g.kind for g in build_qft(4).gates) == {"H": 4, "CPHASE": 6}


def test_gate_counts_validation():
    with pytest.raises(ValueError):
        GateCounts(total=1, two_qubit=2, depth=1)


# --------------------------------------------------------------------- quadratic


def test_quadratic_fit_recovers_exact_polynomial():
    xs = np.arange(4, 11, dtype=float)
    ys = 2.5 * xs ** 2 - 3.0 * xs + 7.0
    (a, b, c), r2 = quadratic_fit(xs, ys)
    assert (a, b, c) == (pytest.approx(2.5), pytest.approx(-3.0), pytest.approx(7.0))
    assert r2 == pytest.approx(1.0)


def test_quadratic_fit_flags_model_mismatch():
    xs = np.arange(4, 11, dtype=float)
    rng = np.random.default_rng(1)
    ys = xs ** 2 + 60.0 * rng.normal(size=xs.size)
    _, r2 = quadratic_fit(xs, ys)
    assert r2 < 0.999
    with pytest.raises(ValueError):
        quadratic_fit([1.0, 2.0], [1.0, 4.0])


def test_quadratic_fit_constant_data():
    (_, _, c), r2 = quadratic_fit([1.0, 2.0, 3.0, 4.0], [5.0, 5.0, 5.0, 5.0])
    assert c == pytest.approx(5.0)
    assert r2 == 1.0
