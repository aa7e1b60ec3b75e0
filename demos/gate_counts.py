"""Count native gates after lowering the evolution circuit and fit the
two-qubit growth law.

Run from the repo root:  python3 demos/gate_counts.py
Writes demos/output/gate_counts.svg
"""

from pathlib import Path

from qwave import compile as gc
from qwave import pipeline
from qwave.stateprep import build_ansatz
from qwave.svgplot import Series, line_chart

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

ns = list(range(4, 11))
rows = [pipeline.gate_count_row(n, 1.0, prep=pipeline.prep_circuit_like(build_ansatz(n + 1))) for n in ns]

cols = ("n", "two_qubit_evolution", "two_qubit_with_prep", "total_with_prep", "depth_with_prep")
print(" ".join(f"{c:>20}" for c in cols))
for row in rows:
    print(" ".join(f"{row[c]:>20}" for c in cols))

# The evolution sandwich alone needs exactly n^2 two-qubit gates.
evo = [row["two_qubit_evolution"] for row in rows]
(a, b, c), r2 = gc.quadratic_fit(ns, evo)
print(f"\ntwo-qubit evolution fit: {a:.3f} n^2 + {b:.3f} n + {c:.3f}  (R^2 = {r2:.6f})")

line_chart(
    [
        Series("evolution only", ns, evo),
        Series("with trained prep", ns, [row["two_qubit_with_prep"] for row in rows]),
    ],
    OUT / "gate_counts.svg",
    title="two-qubit gates vs register size",
    xlabel="n",
    ylabel="two-qubit gates",
    logy=True,
)

print(f"wrote {OUT / 'gate_counts.svg'}")
