"""Command-line driver: train preps, run evolutions, sweep scaling axes, count gates.

Subcommands
    train      fit the brickwall prep for the Ricker target, save a JSON checkpoint
    evolve     run one evolution, emit per-gridpoint CSV (and SVG overlay)
    sweep      iterate N, t, p, or shots; emit rows, fitted exponents, charts
    gatecount  lowered gate tallies vs n with a degree-2 fit

`RunConfig` is the one table of options: each field carries its default,
parser, help text, choices, the subcommands that read it and the sweep axes
that read it.  A subcommand accepts only the options it reads, as flags or as
keys of a flat key=value config file (--config); explicit flags override file
values, and `sweep` refuses a non-default option that its axis does not read.
Sweep axes N, p and t share one driver from (n, t, p) points to CSV, chart and
summary.  Each command returns its files and report; only `main` creates --out
and writes them, so a run refused at any step leaves no --out behind.  All
randomness flows from --seed.  Exit code 0 on success; 1 with a diagnostic on
stderr for a run or config-file error, such as a non-finite time; 2 for a
usage error (an unknown flag or a value its parser or choices refuse).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import pipeline
from .compile import quadratic_fit
from .sim import sample_bitstrings, state_infidelity
from .stateprep import Checkpoint, OptimizerConfig, ansatz_to_circuit, build_ansatz, optimize
from .svgplot import Series, line_chart


def _parse_int_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return (int(lo), int(hi if hi else lo))


def _parse_float_range(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    return (float(lo), float(hi if hi else lo))


def _parse_list(text: str, kind: type) -> tuple:
    values = tuple(kind(x) for x in text.split(",") if x.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}")
    return values


def _parse_floats(text: str) -> tuple[float, ...]:
    return _parse_list(text, float)


def _parse_ints(text: str) -> tuple[int, ...]:
    return _parse_list(text, int)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_EVERY_COMMAND = ("train", "evolve", "sweep", "gatecount")
_EVERY_AXIS = ("N", "t", "p", "shots")
_POINT_AXES = ("N", "p", "t")  # the axes that run pipeline.sweep_point
# peak RSS per point of a t sweep with its chart: 1,059 bytes from 2e4 to 1e5 points at n = 2 (569 without it)
_ROW_BYTES = 1100


def _option(default, parse, help, commands, choices=None, metavar=None, axes=()):
    """A RunConfig field; a bool option's flag is --no-<name>, every other one --<name>."""
    meta = {"parse": parse, "help": help, "commands": commands, "choices": choices, "metavar": metavar,
            "axes": axes}
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class RunConfig:
    """One command's resolved options (file config merged with CLI flags)."""

    n: int = _option(
        6, int, "spatial qubits (N = 2^n grid points)", ("train", "evolve", "sweep"), axes=("t", "shots")
    )
    n_range: tuple[int, int] | None = _option(
        None, _parse_int_range, "range of n", ("sweep", "gatecount"), metavar="LO:HI", axes=("N", "p")
    )
    t: float = _option(
        1.0, float, "evolution time", ("evolve", "sweep", "gatecount"), axes=("N", "p", "shots")
    )
    t_range: tuple[float, float] | None = _option(
        None, _parse_float_range, "time range of a t sweep", ("sweep",), metavar="LO:HI", axes=("t",)
    )
    dt: float = _option(0.01, float, "time step of a t sweep", ("sweep",), axes=("t",))
    mode: str = _option(
        "approx", str, "diagonal flavor (approx is the small-angle circuit)", ("evolve", "sweep"),
        choices=("exact", "approx"), axes=("shots",),
    )
    p: tuple[float, ...] = _option(
        (), _parse_floats, "depolarizing levels", ("evolve", "sweep"), metavar="P[,P...]", axes=_POINT_AXES
    )
    shots: int = _option(0, int, "samples to draw (0 = none)", ("evolve",))
    shots_list: tuple[int, ...] = _option(
        (100, 1000, 10000, 100000), _parse_ints, "shot counts of a shots sweep", ("sweep",),
        metavar="S[,S...]", axes=("shots",),
    )
    seed: int = _option(0, int, "seed for all randomness", ("train", "evolve", "sweep"), axes=("shots",))
    prep: str = _option(
        "exact", str, "'exact' or a checkpoint JSON path", ("evolve", "sweep"), axes=("shots",)
    )
    out: str = _option("qwave-out", str, "output directory", _EVERY_COMMAND, axes=_EVERY_AXIS)
    axis: str = _option("N", str, "sweep axis", ("sweep",), choices=_EVERY_AXIS, axes=_EVERY_AXIS)
    workers: int = _option(
        1, int, "worker processes for sweep points or restarts", ("train", "sweep"), axes=_POINT_AXES
    )
    iters: int = _option(5000, int, "optimizer iteration budget", ("train",))
    restarts: int = _option(3, int, "optimizer restarts", ("train",))
    depth: int | None = _option(None, int, "override ansatz depth", ("train", "gatecount"))
    svg: bool = _option(
        True, _parse_bool, "skip SVG output (config key: svg = off)", _EVERY_COMMAND, axes=_EVERY_AXIS
    )

    def __post_init__(self):
        for f in fields(self):
            value, choices = getattr(self, f.name), f.metadata["choices"]
            if choices and value not in choices:
                raise ValueError(f"{f.name} must be one of {', '.join(choices)}, got {value!r}")
        if not all(map(math.isfinite, (self.t, self.dt, *(self.t_range or ())))):
            raise ValueError(f"times must be finite, got t={self.t:g}, dt={self.dt:g}, t_range={self.t_range}")
        if self.dt <= 0:
            raise ValueError("time step must be positive")
        if self.t_range is not None and self.t_range[0] > self.t_range[1]:
            raise ValueError("t range must be increasing")
        if self.n_range is not None and self.n_range[0] > self.n_range[1]:
            raise ValueError("n range must be increasing")
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if self.shots < 0:
            raise ValueError("shots must be non-negative")
        if any(not 0.0 <= p <= 1.0 for p in self.p):
            raise ValueError(f"depolarizing levels must lie in [0, 1], got {', '.join(f'{p:g}' for p in self.p)}")
        if self.restarts < 1:
            raise ValueError("need at least one restart")


def _command_options(command: str) -> list:
    """The RunConfig fields that `command` reads, in table order."""
    return [f for f in fields(RunConfig) if command in f.metadata["commands"]]


def load_config_file(path: str | Path, command: str) -> dict[str, object]:
    """Flat `key = value` lines; keys mirror `command`'s flags (underscored)."""
    options = {f.name: f for f in fields(RunConfig)}
    values: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        if not sep or not key:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        if key not in options:
            raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
        if command not in options[key].metadata["commands"]:
            raise ValueError(f"{path}:{lineno}: {command} does not read option {key!r}")
        values[key] = options[key].metadata["parse"](value)
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then config-file values, then explicitly passed flags."""
    values = load_config_file(args.config, args.command) if args.config else {}
    for f in _command_options(args.command):
        flag_value = getattr(args, f.name)
        if flag_value is not None:
            values[f.name] = flag_value
    return RunConfig(**values)


def _csv(header: list[str], rows) -> str:
    """CSV text of a header and an iterable of rows."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue()


def _map(fn, calls: list[tuple], workers: int) -> list:
    """[fn(*args) for args in calls], spread over `workers` processes when there are more than one."""
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # deferred: its imports slow and grow every run

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fn, *args) for args in calls]
            return [f.result() for f in futures]
    return [fn(*args) for args in calls]


def cmd_train(config: RunConfig) -> tuple[dict, list[str]]:
    """Train the prep for the Ricker target at n; its prep_n{n}.json is written by Checkpoint.save."""
    target = pipeline.ricker_state(config.n)
    ansatz = build_ansatz(config.n + 1, config.depth)
    pipeline.check_training_memory(ansatz.num_params, min(config.workers, config.restarts), 2 ** ansatz.num_qubits)
    seeds = range(config.seed, config.seed + config.restarts)
    runs = [(ansatz, target, OptimizerConfig(max_iters=config.iters, seed=s)) for s in seeds]
    result = min(_map(optimize, runs, config.workers), key=lambda r: r.cost)
    name = f"prep_n{config.n}.json"
    files = {name: Checkpoint.from_result(config.n, ansatz, result).save}
    if config.svg:
        files[f"train_history_n{config.n}.svg"] = line_chart(
            [Series("best cost", list(range(len(result.history))), [max(c, 1e-16) for c in result.history])],
            title=f"prep training, n={config.n} (seed {result.seed})",
            xlabel="iteration",
            ylabel="best cost",
            logy=True,
        )
    return files, [
        f"train n={config.n}: infidelity={result.infidelity:.3e} "
        f"cost={result.cost:.3e} grad_norm={result.grad_norm:.3e} iterations={result.iterations} "
        f"converged={result.converged} ({result.message}) seed={result.seed} -> {Path(config.out) / name}"
    ]


def _evolve(config: RunConfig, p: float):
    """One evolution run from the prep source (--prep): the final state, noisy if p > 0 and a channel acts.

    Priced that way before any array of the register's size exists: a noisy run's approx circuit holds
    none, and an exact-mode circuit holds its diagonal but runs noiselessly, so it is built after that.
    """
    prep = None
    if config.prep != "exact":
        checkpoint = Checkpoint.load(config.prep)
        if checkpoint.n != config.n:
            raise ValueError(f"checkpoint is for n={checkpoint.n}, run asked for n={config.n}")
        prep = pipeline.prep_circuit(checkpoint)
    circuit = pipeline.evolution_circuit(config.n, config.t, config.mode, prep) if p > 0.0 else None
    noisy = circuit is not None and any(g.num_targets > 1 for g in circuit.gates)  # else rho stays pure
    pipeline.check_memory(config.n, noisy)
    if circuit is None:
        circuit = pipeline.evolution_circuit(config.n, config.t, config.mode, prep)
    initial = pipeline.ricker_state(config.n) if prep is None else None
    return pipeline.simulate_noisy(circuit, p, initial) if noisy else pipeline.simulate_noiseless(circuit, initial)


def _single_p(config: RunConfig) -> float:
    """The noise level of a command that runs one p; a list is an error, not truncated."""
    if len(config.p) > 1:
        raise ValueError(f"--p takes one value here, got {len(config.p)}; sweep --axis p runs a list")
    return config.p[0] if config.p else 0.0


def cmd_evolve(config: RunConfig) -> tuple[dict, list[str]]:
    """One evolution run; CSV of (x, exact |psi|^2, simulated |psi|^2, eps_mc)."""
    p = _single_p(config)
    if config.mode == "exact" and p > 0.0:
        raise ValueError("evolve --mode exact runs noiselessly: no noise reaches its (n+1)-qubit DIAG gate")
    n, t = config.n, config.t
    N = 2 ** n
    state = _evolve(config, p)
    exact = pipeline.exact_reference(n, t)
    exact_probs = pipeline.wavefield_probabilities(exact, n)
    sim_probs = pipeline.wavefield_probabilities(state, n)

    if config.shots > 0:
        # the binomial width of the sampled distribution itself; p_hat's own width reads 0 where no shot landed
        reported = sample_bitstrings(state, config.shots, config.seed)[:N] / config.shots
        eps_mc = np.sqrt(sim_probs * (1.0 - sim_probs) / config.shots)
    else:
        eps_mc = np.zeros(N)
        reported = sim_probs

    xs = np.arange(N) / N
    stem = f"evolve_n{n}_t{t:g}" + (f"_p{p:g}" if p > 0 else "")
    rows = (  # a generator: the row strings never sit in memory beside the CSV text
        (f"{x:.8g}", f"{e:.10g}", f"{s:.10g}", f"{m:.10g}")
        for x, e, s, m in zip(xs, exact_probs, reported, eps_mc)
    )
    files = {f"{stem}.csv": _csv(["x", "exact_prob", "sim_prob", "eps_mc"], rows)}
    if config.svg:
        label = f"sampled ({config.shots} shots)" if config.shots else "simulated"
        files[f"{stem}.svg"] = line_chart(
            [Series("exact", xs, exact_probs), Series(label, xs, reported, errs=eps_mc if config.shots else None)],
            title=f"wavefield at t={t:g} (n={n}, mode={config.mode}" + (f", p={p:g})" if p > 0 else ")"),
            xlabel="x",
            ylabel="|psi|^2",
        )
    eps = state_infidelity(exact, state)
    return files, [f"evolve n={n} t={t:g} mode={config.mode} p={p:g}: infidelity={eps:.3e} "
                   f"-> {Path(config.out) / stem}.csv"]


def _sweep_points(config: RunConfig) -> tuple[dict, list[str]]:
    """Axes N and p (epsilon vs grid size, one curve per noise level) and t (epsilon vs time at one n and p)."""
    if config.axis == "t":
        p = _single_p(config)
        t_lo, t_hi = config.t_range or (0.1, 1.0)
        span = (t_hi - t_lo) / config.dt  # a float, so a grid of 1e300 points is priced, never built
        pipeline._refuse_beyond_memory((span + 1) * _ROW_BYTES, 1, "t sweep", f"of {span + 1:.3g} points")
        # the slack keeps an end point that dt divides up to rounding, e.g. 0.9 / 0.3 = 2.9999999999999996
        steps = math.floor(span + 1e-9)
        points = [(config.n, t_lo + i * config.dt, p) for i in range(steps + 1)]
        needs = f"a time > 0 on its grid, got {t_lo:g}:{t_hi:g} in steps of {config.dt:g}"
    else:
        lo, hi = config.n_range or ((5, 8) if config.axis == "N" else (2, 9))
        p_list = config.p or ((0.0,) if config.axis == "N" else (1e-5, 1e-4, 1e-3))
        ns = list(range(lo, hi + 1))
        points = [(n, config.t, p) for p in p_list for n in ns]
        needs = f"--t > 0, got {config.t:g}"
    n_max, t_max, p_max = map(max, zip(*points))
    if t_max <= 0:
        raise ValueError(f"sweep --axis {config.axis} needs {needs}: at t = 0 epsilon is 0")
    pipeline.check_memory(n_max, p_max > 0.0, min(config.workers, len(points)))
    rows = _map(pipeline.sweep_point, points, config.workers)
    for r in rows:
        if r.t > 0 and r.epsilon_model == 0:
            raise ValueError(f"sweep --axis {config.axis} needs epsilon_model > 0 at every t > 0: "
                             f"it underflows to 0 at n={r.n}, t={r.t:g}, where no log-log fit or chart can use it")

    report = []
    if config.axis == "t":
        fit_rows = [r for r in rows if r.t >= 0.1 and r.epsilon > 0]
        if len(fit_rows) >= 2:
            slope = pipeline.loglog_slope([r.t for r in fit_rows], [r.epsilon for r in fit_rows])
            report.append(f"slope vs t (t >= 0.1): {slope:.3f}")
        positive = [r for r in rows if r.epsilon > 0 and r.t > 0]
        series = [
            Series("measured", [r.t for r in positive], [r.epsilon for r in positive]),
            Series("model", [r.t for r in positive], [r.epsilon_model for r in positive]),
        ]
        title = f"infidelity vs t (n={config.n}, p={p:g})"
    else:
        series = []
        per_p = {p: rows[i * len(ns):(i + 1) * len(ns)] for i, p in enumerate(p_list)}
        for p, chunk in per_p.items():
            label = "noiseless" if p == 0 else f"p={p:g}"
            series.append(Series(label, [r.N for r in chunk], [r.epsilon for r in chunk]))
            if p == 0 and len(chunk) >= 2:
                slope = pipeline.loglog_slope([r.N for r in chunk], [r.epsilon for r in chunk])
                report.append(f"noiseless slope vs N: {slope:.3f}")
            elif p > 0:
                eps = [r.epsilon for r in chunk]
                argmin_n = ns[int(np.argmin(eps))]
                interior = ns[0] < argmin_n < ns[-1]
                report.append(
                    f"p={p:g}: min epsilon={min(eps):.3e} at n={argmin_n}"
                    + (" (interior)" if interior else " (at sweep edge)")
                )
        model = per_p[p_list[0]]
        series.append(Series("model", [r.N for r in model], [r.epsilon_model for r in model]))
        title = f"infidelity vs N (t={config.t:g})"

    name = f"sweep_{config.axis}.csv"
    files = {name: _csv([f.name for f in fields(pipeline.SweepRow)],
                        (tuple(f"{v:.10g}" if isinstance(v, float) else v for v in astuple(r)) for r in rows))}
    if config.svg:
        files[f"sweep_{config.axis}.svg"] = line_chart(
            series, title=title, xlabel="t" if config.axis == "t" else "N", ylabel="epsilon", logx=True, logy=True
        )
    return files, [*report, f"sweep axis={config.axis}: {len(rows)} rows -> {Path(config.out) / name}"]


def _sweep_shots_axis(config: RunConfig) -> tuple[dict, list[str]]:
    if not config.shots_list:
        raise ValueError("empty shots axis")
    n, t = config.n, config.t
    N = 2 ** n
    state = _evolve(config, 0.0)
    probs = pipeline.wavefield_probabilities(state, n)
    rows = []
    for i, shots in enumerate(config.shots_list):
        p_hat = sample_bitstrings(state, shots, config.seed + i)[:N] / shots
        max_abs = float(np.max(np.abs(p_hat - probs)))
        eps_mc_max = float(np.max(np.sqrt(probs * (1.0 - probs) / shots)))
        rows.append((n, N, f"{t:g}", shots, f"{max_abs:.10g}", f"{eps_mc_max:.10g}"))
    files = {"sweep_shots.csv": _csv(["n", "N", "t", "shots", "max_abs_error", "eps_mc_max"], rows)}
    if config.svg:
        files["sweep_shots.svg"] = line_chart(
            [
                Series("max |p_hat - p|", list(config.shots_list), [float(r[4]) for r in rows]),
                Series("max eps_mc", list(config.shots_list), [float(r[5]) for r in rows]),
            ],
            title=f"sampling error vs shots (n={n}, t={t:g})",
            xlabel="shots",
            ylabel="error",
            logx=True,
            logy=True,
        )
    return files, [f"sweep axis=shots: {len(rows)} rows -> {Path(config.out) / 'sweep_shots.csv'}"]


def cmd_sweep(config: RunConfig) -> tuple[dict, list[str]]:
    for f in fields(config):
        if config.axis not in f.metadata["axes"] and getattr(config, f.name) != f.default:
            raise ValueError(f"sweep --axis {config.axis} does not read option {f.name!r}")
    return _sweep_shots_axis(config) if config.axis == "shots" else _sweep_points(config)


def cmd_gatecount(config: RunConfig) -> tuple[dict, list[str]]:
    """Lowered tallies over an n range, plus quadratic fits of the two-qubit counts."""
    t = config.t
    if t <= 0:
        raise ValueError(f"gatecount needs --t > 0, got {t:g}: at t = 0 the evolution emits no gates")
    lo, hi = config.n_range or (4, 10)
    ns = list(range(lo, hi + 1))
    rows = []
    for n in ns:
        ansatz = build_ansatz(n + 1, config.depth)  # zero angles: the gate counts of any trained prep
        rows.append(pipeline.gate_count_row(n, t, ansatz_to_circuit(ansatz, np.zeros(ansatz.num_params))))
    fits, report = {}, []
    for series_name in ("two_qubit_evolution", "two_qubit_with_prep"):
        coeffs, r2 = quadratic_fit(ns, [r[series_name] for r in rows])
        fits[series_name] = {"a": coeffs[0], "b": coeffs[1], "c": coeffs[2], "r_squared": r2}
        report.append(f"{series_name}: {coeffs[0]:.4g} n^2 + {coeffs[1]:.4g} n + {coeffs[2]:.4g}"
                      f"  (R^2 = {r2:.6f})")
    header = list(rows[0].keys())
    files = {"gatecounts.csv": _csv(header, (tuple(r[k] for k in header) for r in rows)),
             "gatecount_fit.json": json.dumps(fits, indent=2) + "\n"}
    if config.svg:
        files["gatecounts.svg"] = line_chart(
            [
                Series("evolution", ns, [r["two_qubit_evolution"] for r in rows]),
                Series("with prep", ns, [r["two_qubit_with_prep"] for r in rows]),
            ],
            title=f"two-qubit gates vs n (t={t:g})",
            xlabel="n",
            ylabel="two-qubit gates",
        )
    return files, [*report, f"gatecount: {len(rows)} rows -> {Path(config.out) / 'gatecounts.csv'}"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwave", description="wave-equation evolution on a simulated quantum register"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, extra in (
        ("train", cmd_train, "train the state-prep circuit"),
        ("evolve", cmd_evolve, "run one evolution and dump the wavefield"),
        ("sweep", cmd_sweep, "sweep N, t, p, or shots"),
        ("gatecount", cmd_gatecount, "count lowered gates vs n"),
    ):
        # no abbreviations: gatecount would read --n as --n-range
        p = sub.add_parser(name, help=extra, allow_abbrev=False)
        p.add_argument("--config", help="key=value config file; flags override it")
        for f in _command_options(name):
            meta = f.metadata
            if meta["parse"] is _parse_bool:
                p.add_argument(f"--no-{f.name}", dest=f.name, action="store_const", const=False,
                               help=meta["help"])
            else:
                p.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, type=meta["parse"],
                               choices=meta["choices"], metavar=meta["metavar"], help=meta["help"])
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command, then create --out, write its files (text, or a writer of a path) and print its report."""
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        files, report = args.func(config)
        out = Path(config.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            if callable(content):
                content(out / name)
            else:
                (out / name).write_text(content, newline="")
        print(*report, sep="\n")
        return 0
    except (ValueError, argparse.ArgumentTypeError, OSError, KeyError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
