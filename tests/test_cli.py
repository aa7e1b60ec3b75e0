"""Command-line interface checks: option parsing, config-file layering, and
each subcommand end to end against its documented files and exit codes.
"""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qwave import cli, pipeline
from qwave.spectral import dft_matrix
from qwave.cli import (
    RunConfig,
    _parse_bool,
    _parse_float_range,
    _parse_floats,
    _parse_int_range,
    _parse_ints,
    load_config_file,
)


def _read_csv(path: Path):
    with path.open() as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# --------------------------------------------------------------------- parsing


def test_option_parsers():
    assert _parse_int_range("4:7") == (4, 7)
    assert _parse_int_range("5") == (5, 5)
    assert _parse_float_range("0.1:1.0") == (0.1, 1.0)
    assert _parse_floats("1e-3, 1e-4,1e-5") == (1e-3, 1e-4, 1e-5)
    assert _parse_ints("100,1000") == (100, 1000)
    assert _parse_bool("Yes") is True
    assert _parse_bool("off") is False
    with pytest.raises(ValueError):
        _parse_bool("maybe")
    with pytest.raises(ValueError):
        _parse_int_range("a:b")


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(dt=0.0)
    with pytest.raises(ValueError):
        RunConfig(t_range=(1.0, 0.5))
    with pytest.raises(ValueError):
        RunConfig(n_range=(8, 4))
    with pytest.raises(ValueError):
        RunConfig(workers=0)
    with pytest.raises(ValueError):
        RunConfig(shots=-1)
    with pytest.raises(ValueError):
        RunConfig(restarts=0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        RunConfig(p=(-0.5,))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        RunConfig(p=(1e-3, 1.5))
    for times in ({"t": math.nan}, {"t": math.inf}, {"t": -math.inf}, {"dt": math.nan}, {"dt": math.inf},
                  {"t_range": (0.0, math.inf)}, {"t_range": (-math.inf, 1.0)}, {"t_range": (0.0, math.nan)}):
        with pytest.raises(ValueError, match="times must be finite"):
            RunConfig(**times)


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        """
        # sweep settings
        n = 3
        t = 0.5
        n-range = 4:6       # dashes behave like underscores
        p = 1e-4,1e-3
        svg = off
        """
    )
    values = load_config_file(cfg, "sweep")
    assert values == {
        "n": 3,
        "t": 0.5,
        "n_range": (4, 6),
        "p": (1e-4, 1e-3),
        "svg": False,
    }


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("tempo = 9\n")
    with pytest.raises(ValueError):
        load_config_file(cfg, "sweep")
    cfg.write_text("just a line\n")
    with pytest.raises(ValueError):
        load_config_file(cfg, "sweep")


# What each subcommand reads; the option table and the parsers are checked against it.
READS = {
    "train": {"n", "seed", "out", "iters", "restarts", "depth", "workers", "svg"},
    "evolve": {"n", "t", "mode", "p", "shots", "seed", "prep", "out", "svg"},
    "sweep": {"axis", "n", "n_range", "t", "t_range", "dt", "mode", "p", "shots_list", "seed",
              "prep", "out", "workers", "svg"},
    "gatecount": {"n_range", "t", "depth", "out", "svg"},
}

# One non-default value per option: (flag arguments, config-file line).
SAMPLES = {
    "n": (["--n", "3"], "n = 3"),
    "n_range": (["--n-range", "2:4"], "n-range = 2:4"),
    "t": (["--t", "0.5"], "t = 0.5"),
    "t_range": (["--t-range", "0.2:0.4"], "t_range = 0.2:0.4"),
    "dt": (["--dt", "0.1"], "dt = 0.1"),
    "mode": (["--mode", "exact"], "mode = exact"),
    "p": (["--p", "1e-3,1e-2"], "p = 1e-3,1e-2"),
    "shots": (["--shots", "50"], "shots = 50"),
    "shots_list": (["--shots-list", "10,20"], "shots-list = 10,20"),
    "seed": (["--seed", "4"], "seed = 4"),
    "prep": (["--prep", "ckpt.json"], "prep = ckpt.json"),
    "out": (["--out", "elsewhere"], "out = elsewhere"),
    "axis": (["--axis", "shots"], "axis = shots"),
    "workers": (["--workers", "2"], "workers = 2"),
    "iters": (["--iters", "7"], "iters = 7"),
    "restarts": (["--restarts", "1"], "restarts = 1"),
    "depth": (["--depth", "2"], "depth = 2"),
    "svg": (["--no-svg"], "svg = off"),
}


def _subparser(command: str) -> argparse.ArgumentParser:
    actions = cli.build_parser()._actions
    return next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices[command]


@pytest.mark.parametrize("command", sorted(READS))
def test_option_table(tmp_path, capsys, command):
    assert set(SAMPLES) == {f.name for f in fields(RunConfig)}
    assert {f.name for f in fields(RunConfig) if command in f.metadata["commands"]} == READS[command]
    assert {a.dest for a in _subparser(command)._actions} - {"help", "config"} == READS[command]

    cfg = tmp_path / "run.cfg"
    out = ["--out", str(tmp_path / "run")]
    for name, (flag_args, line) in SAMPLES.items():
        cfg.write_text(line + "\n")
        if name in READS[command]:
            by_flag = cli.resolve_config(cli.build_parser().parse_args([command, *flag_args]))
            by_file = cli.resolve_config(cli.build_parser().parse_args([command, "--config", str(cfg)]))
            assert by_flag == by_file != RunConfig()
            continue
        with pytest.raises(SystemExit) as exc:  # argparse refuses the flag
            cli.main([command, *flag_args, *out])
        assert exc.value.code == 2
        assert cli.main([command, "--config", str(cfg), *out]) == 1
        assert f"does not read option {name!r}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(("command", "key", "value"), [("evolve", "mode", "small_angle"),
                                                       ("sweep", "axis", "foo")])
def test_flags_and_files_share_choice_sets(tmp_path, capsys, command, key, value):
    out = ["--out", str(tmp_path / "run")]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, f"--{key}", value, *out])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert cli.main([command, "--config", str(cfg), *out]) == 1
    assert f"{key} must be one of" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


_LIST_OPTIONS = [f.name for f in fields(RunConfig) if f.metadata["parse"] in (_parse_floats, _parse_ints)]


@pytest.mark.parametrize("value", [",", ""])
@pytest.mark.parametrize("name", _LIST_OPTIONS)
def test_empty_lists_are_refused(tmp_path, capsys, name, value):
    """An empty --p would otherwise run the default levels: the flag exits 2, the file line 1."""
    flag, out = SAMPLES[name][0][0], ["--out", str(tmp_path / "run")]
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", flag, value, *out])
    assert exc.value.code == 2
    assert f"argument {flag}: expected a comma-separated list, got {value!r}" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = {value}\n")
    assert cli.main(["sweep", "--config", str(cfg), *out]) == 1
    assert "expected a comma-separated list" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = 3\nt = 0.5\nout = {tmp_path / 'out'}\nsvg = false\n")
    rc = cli.main(["evolve", "--config", str(cfg), "--t", "0.25"])
    assert rc == 0
    assert (tmp_path / "out" / "evolve_n3_t0.25.csv").exists()  # n from file, t from flag
    assert not list((tmp_path / "out").glob("*.svg"))
    capsys.readouterr()


# ----------------------------------------------------------------------- train


def test_train_writes_checkpoint_and_history(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(
        ["train", "--n", "2", "--iters", "500", "--restarts", "2", "--seed", "3",
         "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads((out / "prep_n2.json").read_text())
    assert doc["n"] == 2
    assert doc["seed"] in (3, 4)  # best of the two restarts
    assert len(doc["params"]) == 15 * 2
    assert doc["infidelity"] < 1e-8
    assert (out / "train_history_n2.svg").exists()
    assert "infidelity=" in capsys.readouterr().out


def test_train_that_hits_its_iteration_budget_says_so(tmp_path, capsys):
    rc = cli.main(["train", "--n", "2", "--iters", "3", "--restarts", "1", "--out", str(tmp_path), "--no-svg"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged=False" in out and "grad_norm=" in out
    assert "ITERATIONS REACHED LIMIT" in out.upper()
    assert set(json.loads((tmp_path / "prep_n2.json").read_text())) == {"n", "depth", "seed", "params", "infidelity"}


def test_train_restarts_in_parallel_match_serial(tmp_path, capsys):
    args = ["train", "--n", "2", "--iters", "200", "--restarts", "2", "--seed", "1", "--no-svg"]
    assert cli.main(args + ["--out", str(tmp_path / "serial")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "parallel"), "--workers", "2"]) == 0
    serial = (tmp_path / "serial" / "prep_n2.json").read_text()
    assert (tmp_path / "parallel" / "prep_n2.json").read_text() == serial
    capsys.readouterr()


# ---------------------------------------------------------------------- evolve


def test_evolve_noiseless_csv_matches_simulation(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["evolve", "--n", "3", "--t", "0.5", "--out", str(out), "--no-svg"])
    assert rc == 0
    header, rows = _read_csv(out / "evolve_n3_t0.5.csv")
    assert header == ["x", "exact_prob", "sim_prob", "eps_mc"]
    assert len(rows) == 8
    xs = [float(r[0]) for r in rows]
    assert xs == [j / 8 for j in range(8)]
    sim = np.array([float(r[2]) for r in rows])
    ref = pipeline.wavefield_probabilities(
        pipeline.simulate_noiseless(pipeline.evolution_circuit(3, 0.5), pipeline.ricker_state(3)),
        3,
    )
    assert np.allclose(sim, ref, atol=1e-9)
    assert all(float(r[3]) == 0.0 for r in rows)  # no shots, no mc column
    assert "infidelity=" in capsys.readouterr().out


def test_evolve_with_shots_and_noise(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(
        ["evolve", "--n", "2", "--t", "0.3", "--p", "1e-3", "--shots", "2000",
         "--seed", "7", "--out", str(out)]
    )
    assert rc == 0
    path = out / "evolve_n2_t0.3_p0.001.csv"
    header, rows = _read_csv(path)
    sampled = [float(r[2]) for r in rows]
    eps_mc = [float(r[3]) for r in rows]
    assert 0.0 < sum(sampled) <= 1.0 + 1e-12  # the velocity sector absorbs the rest
    # the binomial width of the distribution the shots were drawn from, not of p_hat
    state = pipeline.simulate_noisy(pipeline.evolution_circuit(2, 0.3), 1e-3, pipeline.ricker_state(2))
    for q, e in zip(pipeline.wavefield_probabilities(state, 2), eps_mc):
        assert e == pytest.approx(math.sqrt(q * (1 - q) / 2000), abs=1e-12)
    assert (out / "evolve_n2_t0.3_p0.001.svg").exists()
    capsys.readouterr()


def test_evolve_at_t0_prints_the_pure_state_epsilon_under_noise(tmp_path, capsys):
    # t = 0 emits no gate, so no channel acts: --p runs the state noiselessly, and does not
    # print the rounding noise of 1 - F (0 where the pure-state value is 2.992e-32)
    printed = []
    for p in ("0", "1e-3"):
        assert cli.main(["evolve", "--n", "4", "--t", "0", "--p", p, "--out", str(tmp_path), "--no-svg"]) == 0
        printed.append(capsys.readouterr().out.split("infidelity=")[1].split()[0])
    assert printed == ["2.992e-32", "2.992e-32"]


def test_evolve_shots_give_every_populated_point_an_error_bar(tmp_path, capsys):
    # a grid point that drew no shot still has a sampling error
    rc = cli.main(["evolve", "--n", "6", "--mode", "exact", "--shots", "20000", "--seed", "7",
                   "--out", str(tmp_path), "--no-svg"])
    assert rc == 0
    _, rows = _read_csv(tmp_path / "evolve_n6_t1.csv")
    unsampled = [r for r in rows if float(r[2]) == 0.0 and float(r[1]) > 0.0]
    assert unsampled  # the case this test is about occurs at this seed
    assert all(float(r[3]) > 0.0 for r in rows if float(r[1]) > 0.0)
    capsys.readouterr()


def test_evolve_with_trained_prep(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["train", "--n", "2", "--iters", "800", "--restarts", "1",
                     "--out", str(out), "--no-svg"]) == 0
    rc = cli.main(
        ["evolve", "--n", "2", "--t", "0.4", "--prep", str(out / "prep_n2.json"),
         "--out", str(out), "--no-svg"]
    )
    assert rc == 0
    assert (out / "evolve_n2_t0.4.csv").exists()
    capsys.readouterr()


def test_evolve_rejects_mismatched_checkpoint(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["train", "--n", "2", "--iters", "50", "--restarts", "1",
                     "--out", str(out), "--no-svg"]) == 0
    rc = cli.main(
        ["evolve", "--n", "3", "--prep", str(out / "prep_n2.json"), "--out", str(out)]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_evolve_missing_checkpoint_is_reported(tmp_path, capsys):
    rc = cli.main(["evolve", "--n", "2", "--prep", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_evolve_rejects_noise_in_exact_mode(tmp_path, capsys):
    # the exact diagonal is one (n+1)-qubit gate that the noise model never reaches
    out = tmp_path / "run"
    rc = cli.main(["evolve", "--n", "3", "--mode", "exact", "--p", "1e-3", "--out", str(out)])
    assert rc == 1
    assert "--mode exact runs noiselessly" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_evolve_rejects_a_list_of_noise_levels(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["evolve", "--n", "2", "--p", "1e-3,1e-1", "--out", str(out), "--no-svg"])
    assert rc == 1
    assert "--p takes one value" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


_OUT_OF_RANGE = "depolarizing levels must lie in [0, 1]"
_REFUSED = [
    # a negative p used to run noiselessly under its own label
    (["evolve", "--n", "3", "--p=-0.5"], _OUT_OF_RANGE),
    (["evolve", "--n", "3", "--p", "1.5"], _OUT_OF_RANGE),
    (["sweep", "--axis", "p", "--n-range", "2:3", "--p=-1e-3,1e-3"], _OUT_OF_RANGE),
    (["evolve", "--n", "1"], "evolution circuits need n >= 2 spatial qubits"),
    (["sweep", "--axis", "N", "--n-range", "1:3"], "evolution circuits need n >= 2 spatial qubits"),
    (["sweep", "--axis", "p", "--n-range", "1:3", "--p", "1e-3"], "evolution circuits need n >= 2 spatial qubits"),
    (["sweep", "--axis", "t", "--n", "1"], "evolution circuits need n >= 2 spatial qubits"),
    (["train", "--n", "0"], "grid needs at least one qubit"),
    (["train", "--n", "2", "--iters", "0"], "max_iters must be at least 1"),
    (["train", "--n", "2", "--depth", "0"], "ansatz depth must be positive"),
    (["evolve", "--t", "-1"], "evolution time must be non-negative"),
    (["evolve", "--n", "3", "--prep", "missing.json"], "No such file or directory"),
    (["sweep", "--axis", "shots", "--n", "3", "--shots-list", "0,10"], "shots must be a positive integer"),
]


# ids keep the names of the first three cases, which were once the only ones
@pytest.mark.parametrize("args, message", _REFUSED, ids=[f"args{i}" for i in range(len(_REFUSED))])
def test_noise_levels_outside_the_unit_interval_are_refused(tmp_path, capsys, monkeypatch, args, message):
    # every refused run exits 1 before it creates its output directory
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "run"
    assert cli.main([*args, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------------------------- sweep


def test_sweep_grid_axis(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["sweep", "--axis", "N", "--n-range", "3:5", "--t", "1.0",
                   "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "sweep_N.csv")
    assert header == ["n", "N", "t", "p", "epsilon", "epsilon_model", "bound"]
    assert [int(r[0]) for r in rows] == [3, 4, 5]
    assert [int(r[1]) for r in rows] == [8, 16, 32]
    eps = [float(r[4]) for r in rows]
    assert eps[0] > eps[1] > eps[2]  # finer grids disperse less
    for r in rows:
        assert float(r[4]) <= float(r[6]) + 1e-15  # bound holds row by row
    assert (out / "sweep_N.svg").exists()
    assert "noiseless slope vs N" in capsys.readouterr().out


def test_sweep_noise_axis_reports_optimum(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["sweep", "--axis", "p", "--n-range", "2:5", "--p", "1e-3",
                   "--t", "1.0", "--out", str(out), "--no-svg"])
    assert rc == 0
    _, rows = _read_csv(out / "sweep_p.csv")
    assert len(rows) == 4
    assert all(float(r[3]) == 1e-3 for r in rows)
    assert "min epsilon" in capsys.readouterr().out


def test_sweep_time_axis(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["sweep", "--axis", "t", "--n", "4", "--t-range", "0.2:0.6",
                   "--dt", "0.2", "--out", str(out), "--no-svg"])
    assert rc == 0
    _, rows = _read_csv(out / "sweep_t.csv")
    assert [float(r[2]) for r in rows] == pytest.approx([0.2, 0.4, 0.6])
    assert "slope vs t" in capsys.readouterr().out


@pytest.mark.parametrize(("grid", "ts"), [
    (["--t-range", "0.1:1.0", "--dt", "0.35"], [0.1, 0.45, 0.8]),  # 1.15 would overshoot the range
    (["--t-range", "0.1:1.0", "--dt", "0.3"], [0.1, 0.4, 0.7, 1.0]),  # 0.9 / 0.3 = 2.9999999999999996
    ([], [0.1 + 0.01 * i for i in range(91)]),
])
def test_sweep_time_axis_stays_inside_its_range(tmp_path, capsys, grid, ts):
    out = tmp_path / "run"
    assert cli.main(["sweep", "--axis", "t", "--n", "2", *grid, "--out", str(out), "--no-svg"]) == 0
    _, rows = _read_csv(out / "sweep_t.csv")
    assert [float(r[2]) for r in rows] == pytest.approx(ts)
    capsys.readouterr()


@pytest.mark.parametrize(("axis", "grid"), [
    ("N", ["--n-range", "2:4"]),
    ("p", ["--n-range", "2:4", "--p", "1e-4,1e-3"]),
    ("t", ["--n", "3", "--t-range", "0.2:0.4", "--dt", "0.1"]),
], ids=["N", "p", "t"])
def test_sweep_time_axis_with_workers(tmp_path, capsys, axis, grid):
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    args = ["sweep", "--axis", axis, *grid, "--no-svg"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    serial = capsys.readouterr().out.replace(str(out1), "OUT")
    assert cli.main(args + ["--out", str(out2), "--workers", "2"]) == 0
    assert capsys.readouterr().out.replace(str(out2), "OUT") == serial
    assert (out1 / f"sweep_{axis}.csv").read_text() == (out2 / f"sweep_{axis}.csv").read_text()


def test_sweep_time_axis_rejects_a_list_of_noise_levels(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["sweep", "--axis", "t", "--n", "2", "--t-range", "0.2:0.4", "--dt", "0.2",
                   "--p", "1e-3,1e-1", "--out", str(out), "--no-svg"])
    assert rc == 1
    assert "--p takes one value" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


_NO_TIME_PAST_0 = {  # id: (axis, grid, the refusal's start)
    **{f"{t}-{axis}": (axis, ["--n-range", "4:6", "--t", t], f"sweep --axis {axis} needs --t > 0, got {t}")
       for t in ("0", "-0.5") for axis in ("N", "p")},
    "t-0:0": ("t", ["--n", "4", "--t-range", "0:0"], "sweep --axis t needs a time > 0 on its grid, got 0:0"),
    "t-0:0-no-svg": ("t", ["--n", "4", "--t-range", "0:0", "--no-svg"], "sweep --axis t needs a time > 0"),
    "t-0:0.005": ("t", ["--n", "4", "--t-range", "0:0.005", "--dt", "0.01"],
                  "sweep --axis t needs a time > 0 on its grid, got 0:0.005 in steps of 0.01"),
    "t--0.5:0": ("t", ["--n", "4", "--t-range=-0.5:0", "--dt", "0.25"], "sweep --axis t needs a time > 0"),
}


@pytest.mark.parametrize(("axis", "grid", "message"), _NO_TIME_PAST_0.values(), ids=_NO_TIME_PAST_0.keys())
def test_grid_sweeps_refuse_a_time_without_dispersion(tmp_path, capsys, axis, grid, message):
    out = tmp_path / "run"
    assert cli.main(["sweep", "--axis", axis, *grid, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.endswith(": at t = 0 epsilon is 0\n")
    assert not out.exists()


@pytest.mark.parametrize("axis_args", [["--axis", "t", "--n", "4", "--t-range", "1e-300:1e-300"],
                                       ["--axis", "N", "--n-range", "2:3", "--t", "1e-300"],
                                       ["--axis", "t", "--n", "4", "--t-range", "1e-300:1e-300", "--no-svg"],
                                       ["--axis", "N", "--n-range", "2:3", "--t", "1e-300", "--no-svg"]])
def test_a_chart_that_cannot_be_drawn_refuses_the_run_before_out_exists(tmp_path, capsys, axis_args):
    # every epsilon_model underflows to 0: no log axis can place it and no fit may use it, chart or not
    out = tmp_path / "run"
    assert cli.main(["sweep", *axis_args, "--out", str(out)]) == 1
    axis, n = axis_args[1], axis_args[3].partition(":")[0]
    assert capsys.readouterr().err == (
        f"error: sweep --axis {axis} needs epsilon_model > 0 at every t > 0: it underflows to 0 "
        f"at n={n}, t=1e-300, where no log-log fit or chart can use it\n"
    )
    assert not out.exists()


def test_a_t_sweep_refuses_a_grid_beyond_physical_memory_before_any_point(tmp_path, capsys, monkeypatch):
    # 10,000 points of cli._ROW_BYTES each need about 10 MiB; a noiseless point at n = 4 needs 5.5 KiB
    monkeypatch.setattr(pipeline, "PHYSICAL_MEMORY", 2 ** 20)
    monkeypatch.setattr(cli, "_map", lambda fn, calls, workers: pytest.fail("ran a point"))
    out = tmp_path / "run"
    assert cli.main(["sweep", "--axis", "t", "--n", "4", "--t-range", "0.0001:1", "--dt", "1e-4",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: a t sweep of 1e+04 points needs about {1e4 * cli._ROW_BYTES / 2 ** 30:.3g} GiB of working "
        "arrays, more than the 0.000977 GiB of physical memory\n"
    )
    assert not out.exists()


def test_sweep_refuses_a_run_beyond_physical_memory_before_any_point(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pipeline, "PHYSICAL_MEMORY", 2 ** 20)
    ran = []
    monkeypatch.setattr(pipeline, "sweep_point", lambda *point: ran.append(point))
    out = tmp_path / "run"
    rc = cli.main(["sweep", "--axis", "p", "--n-range", "2:9", "--p", "1e-3", "--out", str(out)])
    assert rc == 1
    assert "a noisy run at n=9 needs about" in capsys.readouterr().err
    assert ran == []
    assert not out.exists()


@pytest.mark.parametrize("axis_args", [
    ["--axis", "p", "--n-range", "2:4", "--p", "1e-3"],
    ["--axis", "t", "--n", "4", "--p", "1e-3", "--t-range", "0.1:0.3", "--dt", "0.1"],
])
def test_sweep_prices_every_point_its_workers_hold_at_once(tmp_path, capsys, monkeypatch, axis_args):
    monkeypatch.setattr(pipeline, "PHYSICAL_MEMORY", 30000)  # one noisy point at n = 4: 1.5 * 16 * 32^2 = 24576 bytes
    maps = []
    monkeypatch.setattr(cli, "_map", lambda fn, calls, workers: maps.append(workers) or [fn(*c) for c in calls])
    out = tmp_path / "two"
    assert cli.main(["sweep", *axis_args, "--workers", "2", "--no-svg", "--out", str(out)]) == 1
    assert "2 noisy runs at n=4 at once need about" in capsys.readouterr().err
    assert maps == [] and not out.exists()
    assert cli.main(["sweep", *axis_args, "--workers", "1", "--no-svg", "--out", str(tmp_path / "one")]) == 0
    assert maps == [1]



def test_train_refuses_a_large_depth_before_it_creates_out(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pipeline, "PHYSICAL_MEMORY", 2 ** 30)
    monkeypatch.setattr(cli, "_map", lambda fn, calls, workers: pytest.fail("trained"))
    out = tmp_path / "run"
    # n = 5 at depth 400: 1,000 blocks of 15 angles, an inverse Hessian of 15,000^2 doubles
    assert cli.main(["train", "--n", "5", "--depth", "400", "--out", str(out)]) == 1
    assert "a training of 15000 angles needs about 1.68 GiB" in capsys.readouterr().err
    assert not out.exists()


def test_train_prices_the_inverse_hessian_of_every_restart_its_workers_hold_at_once(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pipeline, "PHYSICAL_MEMORY", 1500 ** 2 * 8 * 3 // 2)  # one H of 1,500 angles, not two
    maps = []
    monkeypatch.setattr(cli, "_map", lambda fn, calls, workers: maps.append(workers) or [fn(*c) for c in calls])
    args = ["train", "--n", "4", "--depth", "50", "--iters", "1", "--restarts", "2", "--no-svg"]  # 100 blocks
    assert cli.main([*args, "--workers", "2", "--out", str(tmp_path / "two")]) == 1
    assert "2 trainings of 1500 angles at once need about" in capsys.readouterr().err
    assert maps == [] and not (tmp_path / "two").exists()
    assert cli.main([*args, "--workers", "1", "--out", str(tmp_path / "one")]) == 0
    assert maps == [1]


class _Admitted(Exception):
    """Raised by a stubbed `_map`: the run passed its memory check."""


def _admit(fn, calls, workers):
    raise _Admitted


def test_train_prices_the_gradient_sweeps_of_a_large_register(tmp_path, capsys, monkeypatch):
    # 6 statevectors of 2^(n+1) amplitudes per block: 50 blocks at n = 20 need about 9.4 GiB, 48 at n = 19 about 4.5
    monkeypatch.setattr(pipeline, "PHYSICAL_MEMORY", int(7.8 * 2 ** 30))
    monkeypatch.setattr(cli, "_map", _admit)
    out = tmp_path / "n20"
    assert cli.main(["train", "--n", "20", "--restarts", "1", "--no-svg", "--out", str(out)]) == 1
    assert "a training of 750 angles needs about 9.38 GiB" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(_Admitted):
        cli.main(["train", "--n", "19", "--restarts", "1", "--no-svg", "--out", str(tmp_path / "n19")])


def test_evolve_refuses_a_density_matrix_beyond_physical_memory(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["evolve", "--n", "20", "--p", "1e-3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: a noisy run at n=20 needs about" in err and "GiB of physical memory" in err
    assert not out.exists()


def test_evolve_prices_a_run_in_which_no_channel_acts_as_noiseless(tmp_path, capsys, monkeypatch):
    # 100 KiB: a noisy run at n = 6 needs 1.5 * 16 * 128^2 = 384 KiB, a noiseless one 11 * 16 * 128 = 22 KiB
    monkeypatch.setattr(pipeline, "PHYSICAL_MEMORY", 100 * 2 ** 10)
    args = ["evolve", "--n", "6", "--p", "1e-3", "--no-svg"]
    assert cli.main([*args, "--t", "0", "--out", str(tmp_path / "t0")]) == 0  # an empty circuit: no channel acts
    capsys.readouterr()
    out = tmp_path / "noisy"
    assert cli.main([*args, "--t", "0.5", "--out", str(out)]) == 1
    assert "error: a noisy run at n=6 needs about" in capsys.readouterr().err
    assert not out.exists()


def test_runs_never_build_the_dense_dft(tmp_path, capsys):
    dft_matrix.cache_clear()
    assert cli.main(["sweep", "--axis", "N", "--n-range", "4:6", "--out", str(tmp_path / "a"), "--no-svg"]) == 0
    assert cli.main(["evolve", "--n", "4", "--p", "1e-3", "--out", str(tmp_path / "b"), "--no-svg"]) == 0
    assert cli.main(["evolve", "--n", "4", "--mode", "exact", "--out", str(tmp_path / "c"), "--no-svg"]) == 0
    assert dft_matrix.cache_info().misses == 0
    capsys.readouterr()


# What each sweep axis reads besides axis, out and svg.
AXIS_READS = {
    "N": {"n_range", "t", "p", "workers"},
    "p": {"n_range", "t", "p", "workers"},
    "t": {"n", "t_range", "dt", "p", "workers"},
    "shots": {"n", "t", "mode", "prep", "shots_list", "seed"},
}


@pytest.mark.parametrize(
    ("axis", "name"),
    [(axis, name) for axis, reads in AXIS_READS.items()
     for name in sorted(READS["sweep"] - reads - {"axis", "out", "svg"})],
)
def test_sweep_rejects_options_its_axis_does_not_read(tmp_path, capsys, axis, name):
    for a, reads in AXIS_READS.items():
        tagged = {f.name for f in fields(RunConfig) if a in f.metadata["axes"]}
        assert tagged == reads | {"axis", "out", "svg"}
    out = tmp_path / "run"
    rc = cli.main(["sweep", "--axis", axis, *SAMPLES[name][0], "--out", str(out), "--no-svg"])
    assert rc == 1
    assert f"sweep --axis {axis} does not read option {name!r}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_shots_axis(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["sweep", "--axis", "shots", "--n", "3", "--t", "0.4",
                   "--shots-list", "200,5000", "--out", str(out), "--no-svg"])
    assert rc == 0
    header, rows = _read_csv(out / "sweep_shots.csv")
    assert header == ["n", "N", "t", "shots", "max_abs_error", "eps_mc_max"]
    assert [int(r[3]) for r in rows] == [200, 5000]
    assert float(rows[1][4]) < float(rows[0][4])  # more shots, smaller error
    # eps_mc_max is the largest binomial width of the sampled state's own probabilities
    probs = pipeline.wavefield_probabilities(
        pipeline.simulate_noiseless(pipeline.evolution_circuit(3, 0.4), pipeline.ricker_state(3)), 3
    )
    for row in rows:
        width = np.max(np.sqrt(probs * (1 - probs) / int(row[3])))
        assert float(row[5]) == pytest.approx(width, rel=1e-9)
    capsys.readouterr()


# ------------------------------------------------------------------- gatecount


def test_gatecount_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["gatecount", "--n-range", "4:8", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "gatecounts.csv")
    two_q = [int(r[header.index("two_qubit_evolution")]) for r in rows]
    assert two_q == [16, 25, 36, 49, 64]
    with_prep = [int(r[header.index("two_qubit_with_prep")]) for r in rows]
    assert with_prep == [34, 49, 63, 91, 112]
    fits = json.loads((out / "gatecount_fit.json").read_text())
    assert fits["two_qubit_evolution"]["r_squared"] == pytest.approx(1.0)
    assert fits["two_qubit_evolution"]["a"] == pytest.approx(1.0)
    assert (out / "gatecounts.svg").exists()
    assert "R^2" in capsys.readouterr().out


@pytest.mark.parametrize("t", ["0", "-0.5"])
def test_gatecount_rejects_a_time_without_gates(tmp_path, capsys, t):
    out = tmp_path / "run"
    assert cli.main(["gatecount", "--n-range", "4:6", "--t", t, "--out", str(out)]) == 1
    assert "at t = 0 the evolution emits no gates" in capsys.readouterr().err
    assert not out.exists()


def test_gatecount_fits_before_it_writes(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["gatecount", "--n-range", "4:5", "--out", str(out)]) == 1
    assert "at least three points" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------ entry point


_SMALL_RUNS = {  # id: a small run of every command and sweep axis
    "train": ["train", "--n", "2", "--iters", "3", "--restarts", "1"],
    "evolve": ["evolve", "--n", "3"],
    "sweep-N": ["sweep", "--axis", "N", "--n-range", "2:3"],
    "sweep-p": ["sweep", "--axis", "p", "--n-range", "2:3", "--p", "1e-3"],
    "sweep-t": ["sweep", "--axis", "t", "--n", "2", "--t-range", "0.2:0.4", "--dt", "0.2"],
    "sweep-shots": ["sweep", "--axis", "shots", "--n", "2", "--shots-list", "10,100"],
    "gatecount": ["gatecount", "--n-range", "2:4"],
}


@pytest.mark.parametrize("argv", _SMALL_RUNS.values(), ids=_SMALL_RUNS.keys())
def test_commands_return_their_files_and_only_main_writes_them(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "run"
    args = cli.build_parser().parse_args([*argv, "--out", str(out)])
    files, report = args.func(cli.resolve_config(args))
    assert list(tmp_path.iterdir()) == []  # the command wrote nothing, --out included
    assert report and all(isinstance(line, str) for line in report)
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(files)
    for name, content in files.items():
        assert callable(content) or (out / name).read_bytes() == content.encode()
    assert cli.main([*argv, "--out", str(tmp_path / "no-svg"), "--no-svg"]) == 0
    written = {p.name: p.read_bytes() for p in (tmp_path / "no-svg").iterdir()}
    assert written == {name: (out / name).read_bytes() for name in files if not name.endswith(".svg")}
    capsys.readouterr()


def test_importing_the_cli_does_not_load_scipy_optimize():
    # scipy.optimize is most of the import time; only training needs it.  Likewise the
    # process pool, which only --workers > 1 needs
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    code = "import qwave.cli, sys; assert not {'scipy.optimize', 'concurrent.futures'} & set(sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_every_command_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: a module set to None in sys.modules fails to import
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    code = f"""
import sys
sys.modules["scipy"] = None
from qwave import cli
for argv in (
    ["train", "--n", "2", "--iters", "50", "--restarts", "1"],
    ["evolve", "--n", "3", "--p", "1e-3"],
    ["sweep", "--axis", "p", "--n-range", "2:3", "--p", "1e-3"],
    ["gatecount", "--n-range", "2:4"],
):
    assert cli.main([*argv, "--out", {str(tmp_path)!r}]) == 0, argv
"""
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    assert (tmp_path / "prep_n2.json").is_file() and (tmp_path / "gatecounts.csv").is_file()


def test_unknown_command_is_an_argparse_error():
    with pytest.raises(SystemExit):
        cli.main(["warp"])
    with pytest.raises(SystemExit):
        cli.main([])


def test_invalid_values_exit_nonzero(tmp_path, capsys):
    rc = cli.main(["sweep", "--axis", "t", "--n", "3", "--dt", "-0.1",
                   "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["evolve", "--n", "3", "--t", "nan"],
    ["evolve", "--n", "3", "--t", "inf"],
    ["gatecount", "--n-range", "2:4", "--t", "nan"],
    ["sweep", "--axis", "t", "--n", "3", "--t-range", "0.1:inf"],
    ["sweep", "--axis", "t", "--n", "3", "--dt", "nan"],
    ["evolve", "--n", "3", "--config", "nan.cfg"],
])
def test_non_finite_times_are_refused_before_out(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan.cfg").write_text("t = nan\n")
    assert cli.main([*args, "--out", "run"]) == 1
    assert "times must be finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
