"""Command-line harness: config validation, determinism, exit codes."""

import hashlib
import json
import subprocess
import sys

import pytest

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


def test_mc_rate_names_out_of_range_fields(tmp_path, capsys):
    two = {"components": ["sine", "bump"]}
    for field, value in (("depth", 40), ("family_r", 0), ("coord", 5)):
        cfg = _write_config(tmp_path, scenario=two, **{field: value})
        assert main(["mc-rate", "--config", cfg]) == EXIT_USAGE
        assert f"'{field}'" in capsys.readouterr().err
    cfg = _write_config(tmp_path)
    assert main(["mc-rate", "--config", cfg, "--depth", "40"]) == EXIT_USAGE
    assert "'depth'" in capsys.readouterr().err


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
    monkeypatch.setenv(WORKERS_ENV, "2")
    pooled, _ = run_experiment(config)
    assert json.dumps(_strip_runtimes(serial), sort_keys=True) \
        == json.dumps(_strip_runtimes(pooled), sort_keys=True)


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
    assert "out of range" in capsys.readouterr().err


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


def test_module_entry_point_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "addwave", "basis-check"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0
    assert json.loads(result.stdout)["passed"] is True
