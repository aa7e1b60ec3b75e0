"""Checks of each workload's output files against `reference.py`.

Every check returns (failed operations, problems).  An operation is one sweep
point or one training run; it fails when its output row or file is missing.
A problem is a wrong value in an output that is present.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference

T = 1.0  # the CLI's default evolution time, used by every workload
NOISY_NS = range(2, 10)
NOISY_PS = (1e-4, 1e-3)
NOISELESS_NS = range(5, 14)
REPLAY_MAX_N = 4  # n + 1 <= 5 qubits for the dense density-matrix replay
TRAIN_N = 5


def _read_sweep(path: Path) -> dict[tuple[int, float], str]:
    """(n, p) -> epsilon as written (10 significant digits)."""
    if not path.is_file():
        return {}
    with path.open(newline="") as fh:
        return {(int(r["n"]), float(r["p"])): r["epsilon"] for r in csv.DictReader(fh)}


def _tenth_digit(value: float) -> float:
    """One unit in the 10th significant digit of `value`."""
    return 10.0 ** (math.floor(math.log10(abs(value))) - 9) if value else 1e-300


def _chart_problems(path: Path) -> list[str]:
    return [] if path.is_file() and path.stat().st_size > 0 else [f"{path.name} missing or empty"]


def check_noisy_sweep(out: Path) -> tuple[int, list[str]]:
    """Dense replay for n <= 4, noise-channel bounds for every row, interior minimum per p."""
    from qwave import pipeline

    rows = _read_sweep(out / "sweep_p.csv")
    problems = _chart_problems(out / "sweep_p.svg")
    expected = [(n, p) for p in NOISY_PS for n in NOISY_NS]
    failed = sum(key not in rows for key in expected)
    eps0 = {n: reference.smallangle_infidelity(n, T) for n in NOISY_NS}
    for n, p in expected:
        if (n, p) not in rows:
            continue
        eps = float(rows[n, p])
        # Each noisy gate keeps the ideal branch with weight 1 - w, so
        # rho = c rho_ideal + (1 - c) sigma with c = (1 - w)^(n^2).
        c = (1.0 - 16.0 * p / 15.0) ** (n * n)
        slack = _tenth_digit(eps)  # the CSV keeps 10 significant digits
        if not c * eps0[n] - slack <= eps <= 1.0 - c * (1.0 - eps0[n]) + slack:
            problems.append(f"n={n} p={p:g}: epsilon {eps} outside the channel bounds")
        if n <= REPLAY_MAX_N:
            circuit = pipeline.evolution_circuit(n, T, "approx")
            gates = [(g.kind, g.targets, g.params, g.values) for g in circuit.gates]
            two_qubit = sum(len(targets) == 2 for _, targets, _, _ in gates)
            if two_qubit != n * n:
                problems.append(f"n={n}: {two_qubit} two-qubit gates, expected n^2 = {n * n}")
            rho = reference.simulate_density(
                gates, circuit.num_qubits, reference.ricker_state(n), p, circuit.final_permutation
            )
            exact = reference.fft_evolve(n, T, exact=True)
            replay = 1.0 - float(np.vdot(exact, rho @ exact).real)
            if abs(replay - eps) > _tenth_digit(eps):
                problems.append(f"n={n} p={p:g}: epsilon {rows[n, p]}, dense replay {replay:.10g}")
    for p in NOISY_PS:
        curve = [(float(rows[n, p]), n) for n in NOISY_NS if (n, p) in rows]
        if len(curve) == len(NOISY_NS) and min(curve)[1] in (NOISY_NS[0], NOISY_NS[-1]):
            problems.append(f"p={p:g}: minimum epsilon at the sweep edge n={min(curve)[1]}")
    return failed, problems


def check_noiseless_sweep(out: Path) -> tuple[int, list[str]]:
    """Every row against the FFT reference; fourth-order slope in N."""
    rows = _read_sweep(out / "sweep_N.csv")
    problems = _chart_problems(out / "sweep_N.svg")
    failed = sum((n, 0.0) not in rows for n in NOISELESS_NS)
    present = [n for n in NOISELESS_NS if (n, 0.0) in rows]
    for n in present:
        eps, ref = float(rows[n, 0.0]), reference.smallangle_infidelity(n, T)
        if abs(eps - ref) > 1e-6 * ref + 1e-12:
            problems.append(f"n={n}: epsilon {eps}, FFT reference {ref}")
    if len(present) >= 2:
        logs = [(math.log(2.0 ** n), math.log(float(rows[n, 0.0]))) for n in present]
        slope = float(np.polyfit(*zip(*logs), 1)[0])
        if abs(slope + 4.0) > 0.3:
            problems.append(f"slope against N is {slope:.3f}, expected -4 +- 0.3")
    return failed, problems


def check_train_prep(out: Path) -> tuple[int, list[str]]:
    """Rebuild the checkpoint with expm and compare against an independent Ricker target."""
    path = out / f"prep_n{TRAIN_N}.json"
    if not path.is_file():
        return 1, []
    problems = _chart_problems(out / f"train_history_n{TRAIN_N}.svg")
    doc = json.loads(path.read_text())
    if doc["n"] != TRAIN_N:
        return 0, problems + [f"checkpoint is for n={doc['n']}, expected {TRAIN_N}"]
    state = reference.brickwall_state(TRAIN_N + 1, doc["depth"], doc["params"])
    infidelity = float(1.0 - abs(np.vdot(reference.ricker_state(TRAIN_N), state)) ** 2)
    if infidelity > 1e-2:
        problems.append(f"rebuilt prep infidelity {infidelity:.3e} > 1e-2")
    if abs(infidelity - doc["infidelity"]) > 1e-9:
        problems.append(f"rebuilt infidelity {infidelity!r}, checkpoint records {doc['infidelity']!r}")
    return 0, problems
