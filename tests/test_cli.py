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
    assert any(e > 0 for e in eps_mc)
    for p_hat, e in zip(sampled, eps_mc):
        assert e == pytest.approx(math.sqrt(p_hat * (1 - p_hat) / 2000), abs=1e-12)
    assert (out / "evolve_n2_t0.3_p0.001.svg").exists()
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


@pytest.mark.parametrize("args", [["evolve", "--n", "3", "--p=-0.5"], ["evolve", "--n", "3", "--p", "1.5"],
                                  ["sweep", "--axis", "p", "--n-range", "2:3", "--p=-1e-3,1e-3"]])
def test_noise_levels_outside_the_unit_interval_are_refused(tmp_path, capsys, args):
    # a negative p used to run noiselessly under its own label
    out = tmp_path / "run"
    assert cli.main([*args, "--out", str(out)]) == 1
    assert "depolarizing levels must lie in [0, 1]" in capsys.readouterr().err
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


def test_sweep_time_axis_with_workers(tmp_path, capsys):
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    args = ["sweep", "--axis", "t", "--n", "3", "--t-range", "0.2:0.4", "--dt", "0.1",
            "--no-svg"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2), "--workers", "2"]) == 0
    assert (out1 / "sweep_t.csv").read_text() == (out2 / "sweep_t.csv").read_text()
    capsys.readouterr()


def test_sweep_time_axis_rejects_a_list_of_noise_levels(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["sweep", "--axis", "t", "--n", "2", "--t-range", "0.2:0.4", "--dt", "0.2",
                   "--p", "1e-3,1e-1", "--out", str(out), "--no-svg"])
    assert rc == 1
    assert "--p takes one value" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("axis", ["N", "p"])
@pytest.mark.parametrize("t", ["0", "-0.5"])
def test_grid_sweeps_refuse_a_time_without_dispersion(tmp_path, capsys, axis, t):
    out = tmp_path / "run"
    assert cli.main(["sweep", "--axis", axis, "--n-range", "4:6", "--t", t, "--out", str(out)]) == 1
    assert f"sweep --axis {axis} needs --t > 0" in capsys.readouterr().err
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


def test_evolve_refuses_a_density_matrix_beyond_physical_memory(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["evolve", "--n", "20", "--p", "1e-3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: a noisy run at n=20 needs about" in err and "GiB of physical memory" in err
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


def test_importing_the_cli_does_not_load_scipy_optimize():
    # scipy.optimize is most of the import time; only training needs it.  Likewise the
    # process pool, which only --workers > 1 needs
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    code = "import qwave.cli, sys; assert not {'scipy.optimize', 'concurrent.futures'} & set(sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


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
