"""Command-line harness: config validation, determinism, exit codes."""

import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import addwave
from addwave import ComponentEstimate
from addwave import cli
from addwave.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    WORKERS_ENV,
    main,
    parse_experiment_config,
    run_experiment,
)
from addwave.simulate import (
    MixingProcessSpec,
    ScenarioSpec,
    dataset_meta,
    simulate_dataset,
    write_dataset_json,
)


def _base_config(**over):
    cfg = {
        "scenario": {"components": ["sine"], "mu": 0.3,
                     "noise_halfwidth": 0.5},
        "process": {"ar_coeff": 0.0, "copula_theta": 0.0},
        "n_grid": [256, 512, 1024, 2048],
        "reps": 2,
        "master_seed": 5,
        "kappa": 1.0,
    }
    cfg.update(over)
    return cfg


def _write_config(tmp_path, name="cfg.json", **over):
    path = tmp_path / name
    path.write_text(json.dumps(_base_config(**over)))
    return str(path)


def _strip_runtimes(report: dict) -> dict:
    out = json.loads(json.dumps(report))
    for cell in out.get("cells", []):
        cell["runtime_ms"] = 0.0
    return out


def test_parse_config_names_missing_fields():
    for field in ["scenario", "process", "n_grid", "reps", "master_seed"]:
        payload = _base_config()
        del payload[field]
        with pytest.raises(ValueError, match=field):
            parse_experiment_config(payload)


def test_parse_config_rejects_bad_values():
    with pytest.raises(ValueError, match="n_grid"):
        parse_experiment_config(_base_config(n_grid=[256, 1]))
    with pytest.raises(ValueError, match="strictly increasing"):
        parse_experiment_config(_base_config(n_grid=[256, 256, 512, 1024]))
    with pytest.raises(ValueError, match="reps"):
        parse_experiment_config(_base_config(reps=0))
    with pytest.raises(ValueError, match="kappa_mode"):
        parse_experiment_config(_base_config(kappa_mode="adaptive"))
    with pytest.raises(ValueError, match="aggregate"):
        parse_experiment_config(_base_config(aggregate="max"))
    with pytest.raises(ValueError, match="must be a JSON object"):
        parse_experiment_config([])


def test_mc_rate_names_out_of_range_fields(tmp_path, capsys):
    two = {"components": ["sine", "bump"]}
    for field, value in (("depth", 40), ("family_r", 0), ("coord", 5)):
        cfg = _write_config(tmp_path, scenario=two, **{field: value})
        assert main(["mc-rate", "--config", cfg]) == EXIT_USAGE
        assert f"'{field}'" in capsys.readouterr().err
    cfg = _write_config(tmp_path)
    assert main(["mc-rate", "--config", cfg, "--depth", "40"]) == EXIT_USAGE
    assert "'depth'" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("master_seed", -1), ("master_seed", "x"), ("master_seed", 1.7),
    ("family_r", 2.9), ("depth", 12.0), ("coord", True), ("budget", "100"),
    ("reps", True), ("reps", 2.0)])
def test_mc_rate_names_integer_fields(tmp_path, capsys, field, value):
    cfg = _write_config(tmp_path, **{field: value})
    assert main(["mc-rate", "--config", cfg]) == EXIT_USAGE
    assert f"'{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("n_grid", (256, 128)), ("reps", 0), ("kappa_mode", "x"),
    ("aggregate", "x")])
def test_built_configs_are_checked_as_parsed_ones(field, value):
    # Command-line overrides reach the config through ``replace``.
    args = dict(scenario={"components": ["sine"]}, process={},
                n_grid=[256, 512], reps=2, master_seed=5)
    config = cli.ExperimentConfig(**args)
    with pytest.raises(ValueError, match=f"'{field}'"):
        replace(config, **{field: value})
    with pytest.raises(ValueError, match=f"'{field}'"):
        cli.ExperimentConfig(**dict(args, **{field: value}))
    assert config.n_grid == (256, 512)


def test_built_configs_take_numpy_integers_and_echo_json():
    # The integer rule of the specs and the wavelet family: an int or a
    # numpy integer, never a bool.  Each is stored as an int.
    config = cli.ExperimentConfig(
        scenario={"components": ["sine"]}, process={},
        n_grid=[np.int64(256), 512], reps=np.int32(2),
        master_seed=np.int64(5), family_r=np.int64(3), coord=np.int8(1))
    echo = config.echo()
    assert json.loads(json.dumps(echo)) == echo
    assert echo["n_grid"] == [256, 512] and echo["reps"] == 2
    assert all(type(v) is int for v in (*config.n_grid, config.reps,
                                        config.master_seed, config.family_r,
                                        config.coord))
    with pytest.raises(ValueError, match="'reps'"):
        replace(config, reps=True)


def _no_cell(job):
    raise AssertionError(f"a cell ran: {job}")


@pytest.mark.parametrize("field, value", [
    ("kappa", -1.0), ("kappa", "abc"), ("kappa", float("nan")),
    ("self_test_exponent", "x"), ("self_test_exponent", float("inf")),
    ("self_test_exponent", -1000),
    ("allow_over_budget", "false"), ("allow_over_budget", 0),
    ("output_dir", 3)])
def test_mc_rate_names_number_and_flag_fields(tmp_path, capsys, monkeypatch,
                                              field, value):
    monkeypatch.setattr(cli, "_run_cell", _no_cell)
    cfg = _write_config(tmp_path, **{field: value})
    assert main(["mc-rate", "--config", cfg]) == EXIT_USAGE
    assert f"'{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("block, field, value", [
    ("scenario", "mu", float("nan")), ("scenario", "mu", "0.3"),
    ("scenario", "mu", 1e200), ("scenario", "noise_halfwidth", 1e308),
    ("scenario", "noise_halfwidth", -0.5),
    ("process", "ar_coeff", "0.6"), ("process", "ar_coeff", True),
    ("process", "ar_coeff", float("-inf")),
    ("process", "copula_theta", float("nan")),
    ("process", "copula_theta", "0.5")])
def test_mc_rate_names_scenario_and_process_numbers(tmp_path, capsys,
                                                    monkeypatch, block,
                                                    field, value):
    monkeypatch.setattr(cli, "_run_cell", _no_cell)
    payload = _base_config()
    payload[block] = dict(payload[block], **{field: value})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    assert main(["mc-rate", "--config", str(cfg)]) == EXIT_USAGE
    assert f"{block} field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("block, key", [
    (None, "kapa"), ("scenario", "noise"), ("process", "copula_thetta"),
    ("process", "seed"), ("process", "dim")])
def test_mc_rate_names_unknown_keys(tmp_path, capsys, monkeypatch, block,
                                    key):
    # A misspelt key would otherwise run with the default in its place.
    monkeypatch.setattr(cli, "_run_cell", _no_cell)
    payload = _base_config()
    (payload if block is None else payload[block])[key] = 0.5
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    assert main(["mc-rate", "--config", str(cfg)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown key '{key}'" in captured.err


@pytest.mark.parametrize("kappa", ["-1", "nan", "inf"])
def test_mc_rate_checks_the_kappa_override(tmp_path, capsys, monkeypatch,
                                           kappa):
    monkeypatch.setattr(cli, "_run_cell", _no_cell)
    cfg = _write_config(tmp_path)
    assert main(["mc-rate", "--config", cfg, "--kappa", kappa]) \
        == EXIT_USAGE
    assert "'kappa'" in capsys.readouterr().err


def test_parse_config_keeps_valid_numbers_and_flags():
    config = parse_experiment_config(_base_config(
        kappa=2, self_test_exponent=1, allow_over_budget=True,
        output_dir="out"))
    assert (config.kappa_value, config.self_test_exponent) == (2.0, 1.0)
    assert type(config.kappa_value) is type(config.self_test_exponent) \
        is float
    assert config.allow_over_budget is True


def test_mc_rate_seed_override_must_be_non_negative(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["mc-rate", "--config", cfg, "--seed", "-1"]) == EXIT_USAGE
    assert "'master_seed'" in capsys.readouterr().err


def test_nan_ise_gives_fit_error_and_no_json(tmp_path, monkeypatch, capsys):
    run_cell = cli._run_cell

    def spoiled(job):
        n_index, rep, cell = run_cell(job)
        if n_index == 0 and rep == 0:
            cell = dict(cell, ise=float("nan"))
        return n_index, rep, cell

    monkeypatch.setattr(cli, "_run_cell", spoiled)
    report, _ = run_experiment(parse_experiment_config(_base_config()))
    assert report["fit"] is None
    assert "finite" in report["fit_error"]
    out = tmp_path / "report.json"
    cfg = _write_config(tmp_path)
    assert main(["mc-rate", "--config", cfg, "--output", str(out)]) \
        == EXIT_USAGE
    assert "JSON" in capsys.readouterr().err
    assert not out.exists()


def test_parse_config_echo_round_trip():
    config = parse_experiment_config(_base_config())
    echo = config.echo()
    assert echo["n_grid"] == [256, 512, 1024, 2048]
    assert echo["kappa"] == 1.0
    assert echo["kappa_mode"] == "fixed"
    assert parse_experiment_config({**_base_config(), **echo}).echo() == echo
    # ``kappa`` only when fixed, unset options dropped, budget fields never.
    calibrated = parse_experiment_config(
        _base_config(kappa_mode="calibrated", aggregate="median"))
    echo = calibrated.echo()
    assert "kappa" not in echo and echo["aggregate"] == "median"
    assert "output_dir" not in echo and "self_test_exponent" not in echo
    assert parse_experiment_config({**_base_config(), **echo}).echo() == echo
    full = parse_experiment_config(_base_config(
        output_dir="out", self_test_exponent=0.5, budget=10 ** 6,
        allow_over_budget=True))
    echo = full.echo()
    assert echo["output_dir"] == "out" and echo["self_test_exponent"] == 0.5
    assert "budget" not in echo and "allow_over_budget" not in echo
    assert parse_experiment_config({**_base_config(), **echo}).echo() == echo


def test_basis_check_writes_passing_report(tmp_path):
    out = tmp_path / "basis.json"
    assert main(["basis-check", "--output", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["version"] == "1"
    assert report["passed"] is True
    assert {c["name"] for c in report["checks"]} >= {
        "partition_of_unity", "vanishing_moments", "gram_identity"}


def test_basis_check_rejects_bad_depth(capsys):
    assert main(["basis-check", "--depth", "4"]) == EXIT_USAGE
    assert "depth" in capsys.readouterr().err


def test_subcommands_reject_options_they_do_not_read(capsys):
    for argv in (["basis-check", "--seed", "5"],
                 ["simulate", "--kappa", "2"],
                 ["estimate", "--config", "x"]):
        assert main(argv) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
    assert main(["mc-rate", "--help"]) == EXIT_OK
    assert "--kappa" in capsys.readouterr().out


def test_missing_or_invalid_config_files(tmp_path, capsys):
    assert main(["mc-rate", "--config", str(tmp_path / "nope.json")]) \
        == EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n")
    assert main(["mc-rate", "--config", str(bad)]) == EXIT_USAGE
    assert "line 2" in capsys.readouterr().err
    # A missing input or output is named before any work.
    for argv, text in ((["mc-rate"], "--config is required"),
                       (["simulate"], "--config is required"),
                       (["estimate"], "--dataset is required"),
                       (["simulate", "--config", _write_config(tmp_path)],
                        "simulate needs --output")):
        assert main(argv) == EXIT_USAGE
        assert text in capsys.readouterr().err


def test_budget_exceeded_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, budget=100)
    assert main(["mc-rate", "--config", cfg]) == EXIT_BUDGET
    assert "budget" in capsys.readouterr().err


def test_mc_rate_runs_are_deterministic(tmp_path):
    cfg = _write_config(tmp_path)
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["mc-rate", "--config", cfg, "--output", str(out_a)]) \
        == EXIT_OK
    assert main(["mc-rate", "--config", cfg, "--output", str(out_b)]) \
        == EXIT_OK
    rep_a = _strip_runtimes(json.loads(out_a.read_text()))
    rep_b = _strip_runtimes(json.loads(out_b.read_text()))
    assert json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b,
                                                           sort_keys=True)
    assert rep_a["fit"] is not None
    assert len(rep_a["cells"]) == 8
    assert all(row["reps_done"] == 2 for row in rep_a["per_n"])


def test_worker_pool_matches_serial(tmp_path, monkeypatch):
    config = parse_experiment_config(_base_config())
    serial, _ = run_experiment(config)
    # Two CPUs whatever the runner has, so a real two-process pool runs.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setenv(WORKERS_ENV, "2")
    pooled, _ = run_experiment(config)
    assert json.dumps(_strip_runtimes(serial), sort_keys=True) \
        == json.dumps(_strip_runtimes(pooled), sort_keys=True)


def _inline_pool(widths):
    """A stand-in for ``ProcessPoolExecutor`` that records its width and
    maps in this process."""

    class InlinePool:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    return InlinePool


def test_worker_pool_is_no_wider_than_cells_or_cpus(monkeypatch):
    config = parse_experiment_config(_base_config())
    serial, _ = run_experiment(config)
    widths = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _inline_pool(widths))
    for cpus, asked, width in ((4, "64", 4), (16, "64", 8), (16, "3", 3),
                               (16, "1", None), (1, "2", None)):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        monkeypatch.setenv(WORKERS_ENV, asked)
        widths.clear()
        report, _ = run_experiment(config)
        assert widths == ([] if width is None else [width])
        assert json.dumps(_strip_runtimes(report), sort_keys=True) \
            == json.dumps(_strip_runtimes(serial), sort_keys=True)


@pytest.mark.parametrize("value", ["abc", "1.5", "", "0", "-3"])
def test_workers_env_must_be_a_positive_integer(tmp_path, monkeypatch,
                                                capsys, value):
    widths = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _inline_pool(widths))
    monkeypatch.setenv(WORKERS_ENV, value)
    cfg = _write_config(tmp_path)
    assert main(["mc-rate", "--config", cfg]) == EXIT_USAGE
    assert f"{WORKERS_ENV} must be a positive integer" \
        in capsys.readouterr().err
    assert widths == []


def test_self_test_mode_recovers_planted_slope(tmp_path):
    cfg = _write_config(tmp_path, self_test_exponent=0.8)
    out = tmp_path / "self.json"
    assert main(["mc-rate", "--config", cfg, "--output", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["fit"]["slope"] == pytest.approx(0.8, abs=1e-10)
    assert report["fit"]["r_squared"] == pytest.approx(1.0, abs=1e-12)
    assert all(cell["kept"] == 0 for cell in report["cells"])


def test_seed_override_changes_results(tmp_path):
    cfg = _write_config(tmp_path)
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    main(["mc-rate", "--config", cfg, "--output", str(out_a)])
    main(["mc-rate", "--config", cfg, "--seed", "99",
          "--output", str(out_b)])
    rep_a = json.loads(out_a.read_text())
    rep_b = json.loads(out_b.read_text())
    assert rep_a["config"]["master_seed"] == 5
    assert rep_b["config"]["master_seed"] == 99
    assert rep_a["cells"][0]["ise"] != rep_b["cells"][0]["ise"]


def test_calibrated_mc_rate_prints_its_report(tmp_path, capsys):
    # With no --output the report goes to stdout; its kappa is the pilot's
    # at the largest n, and the config echo leaves the fixed kappa out.
    over = dict(n_grid=[32, 64], reps=1, kappa_mode="calibrated")
    assert main(["mc-rate", "--config", _write_config(tmp_path, **over)]) \
        == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    scenario, process = parse_experiment_config(_base_config(**over)).specs
    table = addwave.cascade_table(addwave.make_family(2), 12)
    assert report["kappa"] == addwave.calibrate_threshold(process, scenario,
                                                          table, n=64)
    assert "kappa" not in report["config"]
    assert [cell["n"] for cell in report["cells"]] == [32, 64]


def test_simulate_writes_identical_files_per_seed(tmp_path, capsys):
    cfg = _write_config(tmp_path, n_grid=[64, 128, 256, 512], reps=1)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--output", str(dir_a)]) \
        == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["written"] == 8
    assert main(["simulate", "--config", cfg, "--output", str(dir_b)]) \
        == EXIT_OK
    for name in ["dataset_n64_rep0.csv", "dataset_n64_rep0.json",
                 "dataset_n512_rep0.csv", "dataset_n512_rep0.json"]:
        h_a = hashlib.sha256((dir_a / name).read_bytes()).hexdigest()
        h_b = hashlib.sha256((dir_b / name).read_bytes()).hexdigest()
        assert h_a == h_b


def test_estimate_command_outputs(tmp_path, capsys):
    proc = MixingProcessSpec(dim=2, ar_coeff=0.6, copula_theta=0.5, seed=3)
    scen = ScenarioSpec(components=("sine", "bump"), offset=0.3,
                        noise_halfwidth=0.5)
    data = simulate_dataset(proc, scen, 2048, rep=0)
    ds_path = tmp_path / "d.json"
    write_dataset_json(ds_path, data, dataset_meta(proc, scen, 2048, 0))

    out_dir = tmp_path / "fit"
    assert main(["estimate", "--dataset", str(ds_path), "--coord", "1",
                 "--output", str(out_dir)]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["j1"] == 2
    assert "ise" in summary
    est = ComponentEstimate.from_json(
        (out_dir / "estimate_coord1.json").read_text())
    assert est.kept_count() == summary["kept"]
    header = (out_dir / "estimate_coord1.csv").read_text().splitlines()[0]
    assert header == "x,estimate,truth"

    assert main(["estimate", "--dataset", str(ds_path), "--coord", "3",
                 "--output", str(out_dir)]) == EXIT_USAGE
    assert "coord must be an integer in 1..2, got 3" in capsys.readouterr().err


def test_estimate_huge_threshold_keeps_nothing(tmp_path, capsys):
    proc = MixingProcessSpec(dim=1, ar_coeff=0.0, copula_theta=0.0, seed=3)
    scen = ScenarioSpec(components=("sine",), offset=0.0, noise_halfwidth=0.5)
    data = simulate_dataset(proc, scen, 1024, rep=0)
    ds_path = tmp_path / "d.json"
    write_dataset_json(ds_path, data, dataset_meta(proc, scen, 1024, 0))
    assert main(["estimate", "--dataset", str(ds_path), "--kappa", "1000",
                 "--output", str(tmp_path / "fit")]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["kept"] == 0
    est = ComponentEstimate.from_json(
        (tmp_path / "fit" / "estimate_coord1.json").read_text())
    assert est.kept_count() == 0


def _edited_dataset(tmp_path, edit, proc=None) -> str:
    proc = proc or MixingProcessSpec(dim=1, seed=3)
    scen = ScenarioSpec(components=("sine", "bump")[:proc.dim])
    ds_path = tmp_path / "d.json"
    write_dataset_json(ds_path, simulate_dataset(proc, scen, 64),
                       dataset_meta(proc, scen, 64, 0))
    payload = json.loads(ds_path.read_text())
    edit(payload)
    ds_path.write_text(json.dumps(payload))
    return str(ds_path)


def test_estimate_names_dataset_without_dim(tmp_path, capsys):
    path = _edited_dataset(tmp_path, lambda p: p["process"].pop("dim"))
    assert main(["estimate", "--dataset", path,
                 "--output", str(tmp_path / "fit")]) == EXIT_USAGE
    assert ("dataset field 'process' is missing 'dim'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("field, value, message", [
    ("dim", 2.9, "process field 'dim' must be an integer in 1..4, got 2.9"),
    ("dim", True, "process field 'dim' must be an integer in 1..4, got True"),
    ("dim", "2", "process field 'dim' must be an integer in 1..4, got '2'"),
    ("dim", 1, "(copula_theta 0.5) is defined for dim == 2 only, got dim 1"),
    ("copula_theta", float("nan"), "'copula_theta' must be a finite number"),
    ("copula_theta", "abc", "'copula_theta' must be a finite number"),
    ("copula_theta", 1.5,
     "process field 'copula_theta' must be in (-1, 1), got 1.5")])
def test_estimate_names_bad_process_field(tmp_path, capsys, field, value,
                                          message):
    # A two-coordinate FGM dataset whose declared process is edited.
    fgm = MixingProcessSpec(dim=2, ar_coeff=0.6, copula_theta=0.5, seed=3)
    path = _edited_dataset(
        tmp_path, lambda p: p["process"].update({field: value}), fgm)
    assert main(["estimate", "--dataset", path,
                 "--output", str(tmp_path / "fit")]) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("process", 3), ("scenario", 5)])
def test_estimate_names_block_that_is_not_an_object(tmp_path, capsys,
                                                     field, value):
    path = _edited_dataset(tmp_path, lambda p: p.update({field: value}))
    assert main(["estimate", "--dataset", path,
                 "--output", str(tmp_path / "fit")]) == EXIT_USAGE
    assert (f"error: dataset field {field!r} must be a JSON object, "
            f"got {value}" in capsys.readouterr().err)


@pytest.mark.parametrize("field, value", [("process", 3), ("scenario", 5)])
def test_mc_rate_names_block_that_is_not_an_object(tmp_path, capsys,
                                                   field, value):
    path = _write_config(tmp_path, **{field: value})
    assert main(["mc-rate", "--config", path]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"error: experiment field {field!r} must be a JSON object, "
            f"got {value}" in captured.err)


def test_module_entry_point_smoke():
    # The subprocess imports the same package the tests do, whether or not
    # PYTHONPATH names its directory.
    src = str(Path(addwave.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "addwave", "basis-check"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0
    assert json.loads(result.stdout)["passed"] is True
