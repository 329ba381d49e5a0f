"""Batch command-line front end.

Subcommands: ``basis-check`` runs the wavelet invariant suite,
``simulate`` writes replicated datasets, ``estimate`` fits one component
from a dataset file, and ``mc-rate`` sweeps sample sizes to measure how
fast the integrated squared error falls.  Every run is reproducible from
the config plus master seed; reports are JSON with a version string, and
the only nondeterministic fields are runtimes.

Exit codes: 0 success, 1 usage or config error, 2 verification failure,
3 compute budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .estimator import (EstimatorConfig, eval_estimate, fit_component,
                        identity_rho, ise, max_detail_level, threshold_scale)
from .oracle import (BudgetError, DEFAULT_BUDGET, _charge_budget,
                     calibrate_threshold, rate_fit)
from .simulate import (dataset_meta, process_from_config, read_dataset_json,
                       scenario_from_config, simulate_dataset,
                       test_function, write_dataset_csv, write_dataset_json)
from .wavelet import (_check_depth, basis_diagnostics, cascade_table,
                      make_family)

REPORT_FORMAT_VERSION = "1"
WORKERS_ENV = "ADDWAVE_WORKERS"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_BUDGET = 3
EXIT_INTERRUPTED = 130


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed sweep configuration for simulate and mc-rate runs."""

    scenario: dict
    process: dict
    n_grid: tuple
    reps: int
    master_seed: int
    kappa_mode: str = "fixed"
    kappa_value: float = 1.0
    family_r: int = 2
    depth: int = 12
    coord: int = 1
    aggregate: str = "mean"
    output_dir: str | None = None
    budget: int = DEFAULT_BUDGET
    allow_over_budget: bool = False
    self_test_exponent: float | None = None

    def __post_init__(self):
        # Reuses the bounds of the family, table and scenario; runs before
        # any cell, and again for command-line overrides via ``replace``.
        scenario = scenario_from_config(self.scenario)
        for name, check in (("family_r", make_family),
                            ("depth", _check_depth),
                            ("coord", scenario.component)):
            try:
                check(getattr(self, name))
            except ValueError as exc:
                raise ValueError(f"experiment field {name!r}: {exc}") from None

    def echo(self) -> dict:
        out = {
            "scenario": self.scenario,
            "process": self.process,
            "n_grid": list(self.n_grid),
            "reps": self.reps,
            "master_seed": self.master_seed,
            "kappa_mode": self.kappa_mode,
            "family_r": self.family_r,
            "depth": self.depth,
            "coord": self.coord,
            "aggregate": self.aggregate,
        }
        if self.kappa_mode == "fixed":
            out["kappa"] = self.kappa_value
        if self.output_dir is not None:
            out["output_dir"] = self.output_dir
        if self.self_test_exponent is not None:
            out["self_test_exponent"] = self.self_test_exponent
        return out


def parse_experiment_config(payload: dict) -> ExperimentConfig:
    """Validate a declarative config, naming each offending field."""
    if not isinstance(payload, dict):
        raise ValueError("experiment config must be a JSON object")
    for field in ("scenario", "process", "n_grid", "reps", "master_seed"):
        if field not in payload:
            raise ValueError(f"experiment config is missing field {field!r}")
    n_grid = payload["n_grid"]
    if (not isinstance(n_grid, list) or not n_grid
            or not all(isinstance(n, int) and n >= 2 for n in n_grid)):
        raise ValueError(
            "experiment field 'n_grid' must be a list of integers >= 2")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError(
            "experiment field 'n_grid' must be strictly increasing")
    reps = payload["reps"]
    if not isinstance(reps, int) or reps < 1:
        raise ValueError("experiment field 'reps' must be an integer >= 1")
    mode = payload.get("kappa_mode", "fixed")
    if mode not in ("fixed", "calibrated"):
        raise ValueError(
            "experiment field 'kappa_mode' must be 'fixed' or 'calibrated'")
    aggregate = payload.get("aggregate", "mean")
    if aggregate not in ("mean", "median"):
        raise ValueError(
            "experiment field 'aggregate' must be 'mean' or 'median'")
    exponent = payload.get("self_test_exponent")
    return ExperimentConfig(
        scenario=payload["scenario"],
        process=payload["process"],
        n_grid=tuple(n_grid),
        reps=reps,
        master_seed=int(payload["master_seed"]),
        kappa_mode=mode,
        kappa_value=float(payload.get("kappa", 1.0)),
        family_r=int(payload.get("family_r", 2)),
        depth=int(payload.get("depth", 12)),
        coord=int(payload.get("coord", 1)),
        aggregate=aggregate,
        output_dir=payload.get("output_dir"),
        budget=int(payload.get("budget", DEFAULT_BUDGET)),
        allow_over_budget=bool(payload.get("allow_over_budget", False)),
        self_test_exponent=None if exponent is None else float(exponent))


@lru_cache(maxsize=8)
def _cached_table(family_r: int, depth: int):
    return cascade_table(make_family(family_r), depth)


def _run_cell(args) -> tuple:
    """One (n, rep) sweep cell; module-level so worker pools can run it."""
    (scenario_cfg, process_cfg, family_r, depth, master_seed, coord, kappa,
     n_index, n, rep) = args
    start = time.perf_counter()
    table = _cached_table(family_r, depth)
    scenario = scenario_from_config(scenario_cfg)
    process = process_from_config(process_cfg, scenario.dim, master_seed)
    data = simulate_dataset(process, scenario, n, rep=rep)
    est = fit_component(data, scenario.rho_spec(), table,
                        EstimatorConfig(coord=coord, threshold_const=kappa))
    err = ise(est, table, scenario.component(coord), grid_size=2048)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    cell = {"n": n, "rep": rep, "ise": err, "kept": est.kept_count(),
            "j1": est.j1, "lambda_n": est.lambda_n,
            "runtime_ms": elapsed_ms}
    return n_index, rep, cell


def _synthetic_cells(config: ExperimentConfig) -> list:
    tau = make_family(config.family_r).coarsest_level
    cells = []
    for n in config.n_grid:
        err = (math.log(n) / n) ** config.self_test_exponent
        for rep in range(config.reps):
            cells.append({"n": n, "rep": rep, "ise": err, "kept": 0,
                          "j1": max_detail_level(n, tau),
                          "lambda_n": threshold_scale(n), "runtime_ms": 0.0})
    return cells


def _aggregate_report(config: ExperimentConfig, cells: list,
                      kappa: float, interrupted: bool) -> dict:
    per_n = []
    for n in config.n_grid:
        errs = [c["ise"] for c in cells if c["n"] == n]
        if errs:
            per_n.append({"n": n, "reps_done": len(errs),
                          "mean_ise": float(np.mean(errs)),
                          "median_ise": float(np.median(errs))})
    key = "mean_ise" if config.aggregate == "mean" else "median_ise"
    fit = None
    fit_error = None
    points = [(row["n"], row[key]) for row in per_n
              if row["reps_done"] == config.reps]
    try:
        fit = json.loads(rate_fit(points).to_json())
    except ValueError as exc:
        fit_error = str(exc)
    report = {
        "version": REPORT_FORMAT_VERSION,
        "config": config.echo(),
        "kappa": kappa,
        "cells": cells,
        "per_n": per_n,
        "fit": fit,
    }
    if fit_error is not None:
        report["fit_error"] = fit_error
    if interrupted:
        report["interrupted"] = True
    return report


def run_experiment(config: ExperimentConfig) -> tuple[dict, bool]:
    """Full sweep; returns the report and whether it was interrupted."""
    _charge_budget(config.reps, sum(config.n_grid), config.budget,
                   config.allow_over_budget)
    if config.self_test_exponent is not None:
        report = _aggregate_report(config, _synthetic_cells(config),
                                   kappa=config.kappa_value,
                                   interrupted=False)
        return report, False
    scenario = scenario_from_config(config.scenario)
    process = process_from_config(config.process, scenario.dim,
                                  config.master_seed)
    table = _cached_table(config.family_r, config.depth)
    if config.kappa_mode == "calibrated":
        kappa = calibrate_threshold(process, scenario, table,
                                    n=max(config.n_grid), coord=config.coord,
                                    budget=config.budget,
                                    allow_over=config.allow_over_budget)
    else:
        kappa = config.kappa_value
    jobs = [(config.scenario, config.process, config.family_r, config.depth,
             config.master_seed, config.coord, kappa, n_index, n, rep)
            for n_index, n in enumerate(config.n_grid)
            for rep in range(config.reps)]
    workers = int(os.environ.get(WORKERS_ENV, "1"))
    done = []
    interrupted = False
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for result in pool.map(_run_cell, jobs, chunksize=4):
                    done.append(result)
        else:
            for job in jobs:
                done.append(_run_cell(job))
    except KeyboardInterrupt:
        interrupted = True
    done.sort(key=lambda item: (item[0], item[1]))
    cells = [cell for _, _, cell in done]
    return _aggregate_report(config, cells, kappa, interrupted), interrupted


def _load_config(path: str) -> ExperimentConfig:
    if path is None:
        raise ValueError("--config is required for this command")
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path}: invalid JSON at line "
                         f"{exc.lineno}, column {exc.colno}") from exc
    return parse_experiment_config(payload)


def _apply_overrides(config: ExperimentConfig, ns) -> ExperimentConfig:
    """Command-line options over config fields; a subcommand without an
    option leaves its field alone."""
    updates = {field: getattr(ns, option)
               for option, field in (("seed", "master_seed"),
                                     ("kappa", "kappa_value"),
                                     ("family_r", "family_r"),
                                     ("depth", "depth"))
               if getattr(ns, option, None) is not None}
    if "kappa_value" in updates:
        updates["kappa_mode"] = "fixed"
    return replace(config, **updates)


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, allow_nan=False)
    if output:
        Path(output).write_text(text + "\n")
    else:
        print(text)


def cmd_basis_check(ns) -> int:
    family_r = 2 if ns.family_r is None else ns.family_r
    depth = 12 if ns.depth is None else ns.depth
    checks = basis_diagnostics(make_family(family_r), depth)
    passed = all(c["passed"] for c in checks)
    report = {"version": REPORT_FORMAT_VERSION, "family_r": family_r,
              "depth": depth, "checks": checks, "passed": passed}
    _emit(report, ns.output)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_simulate(ns) -> int:
    config = _apply_overrides(_load_config(ns.config), ns)
    _charge_budget(config.reps, sum(config.n_grid), config.budget,
                   config.allow_over_budget)
    out_dir = ns.output or config.output_dir
    if not out_dir:
        raise ValueError("simulate needs --output or config 'output_dir'")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scenario = scenario_from_config(config.scenario)
    process = process_from_config(config.process, scenario.dim,
                                  config.master_seed)
    written = []
    for n in config.n_grid:
        for rep in range(config.reps):
            data = simulate_dataset(process, scenario, n, rep=rep)
            meta = dataset_meta(process, scenario, n, rep)
            stem = f"dataset_n{n}_rep{rep}"
            write_dataset_csv(out / f"{stem}.csv", data)
            write_dataset_json(out / f"{stem}.json", data, meta)
            written.append(stem)
    print(json.dumps({"version": REPORT_FORMAT_VERSION,
                      "written": len(written) * 2,
                      "directory": str(out)}, sort_keys=True))
    return EXIT_OK


def cmd_estimate(ns) -> int:
    if ns.dataset is None:
        raise ValueError("--dataset is required for estimate")
    data, meta = read_dataset_json(ns.dataset)
    family_r = 2 if ns.family_r is None else ns.family_r
    depth = 12 if ns.depth is None else ns.depth
    kappa = 1.0 if ns.kappa is None else ns.kappa
    table = _cached_table(family_r, depth)
    scenario = scenario_from_config(meta["scenario"]) \
        if "scenario" in meta else None
    est = fit_component(data, identity_rho(), table,
                        EstimatorConfig(coord=ns.coord,
                                        threshold_const=kappa))
    out_dir = Path(ns.output) if ns.output else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    est_path = out_dir / f"estimate_coord{ns.coord}.json"
    est_path.write_text(est.to_json() + "\n")
    grid = (np.arange(2 ** 10) + 0.5) / 2 ** 10
    fitted = eval_estimate(est, table, grid)
    truth = None
    if scenario is not None:
        truth = scenario.component(ns.coord)(grid)
    table_path = out_dir / f"estimate_coord{ns.coord}.csv"
    with open(table_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["x", "estimate"] + (["truth"] if truth is not None else [])
        writer.writerow(header)
        for i, x in enumerate(grid):
            row = [repr(float(x)), repr(float(fitted[i]))]
            if truth is not None:
                row.append(repr(float(truth[i])))
            writer.writerow(row)
    summary = {"version": REPORT_FORMAT_VERSION,
               "estimate": str(est_path), "table": str(table_path),
               "kept": est.kept_count(), "j1": est.j1,
               "lambda_n": est.lambda_n, "kappa": kappa}
    if truth is not None:
        summary["ise"] = ise(est, table, truth)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_mc_rate(ns) -> int:
    config = _apply_overrides(_load_config(ns.config), ns)
    report, interrupted = run_experiment(config)
    _emit(report, ns.output)
    return EXIT_INTERRUPTED if interrupted else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addwave",
        description="additive-component wavelet estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "config": dict(help="path to a JSON experiment config"),
        "seed": dict(type=int, help="override master seed"),
        "dataset": dict(help="path to a dataset JSON file"),
        "coord": dict(type=int, default=1, help="target coordinate (1-based)"),
        "kappa": dict(type=float, help="fixed threshold constant override"),
        "family-r": dict(type=int, dest="family_r",
                         help="vanishing moments of the wavelet family"),
        "depth": dict(type=int, help="dyadic tabulation depth"),
        "output": dict(help="output file or directory"),
    }
    # Each subcommand takes only the options its handler reads.
    for name, help_text, names in (
            ("basis-check", "run wavelet construction diagnostics",
             ("family-r", "depth", "output")),
            ("simulate", "write replicated datasets",
             ("config", "seed", "output")),
            ("estimate", "fit one component from a file",
             ("dataset", "coord", "kappa", "family-r", "depth", "output")),
            ("mc-rate", "sweep n and fit the error rate",
             ("config", "seed", "kappa", "family-r", "depth", "output"))):
        p = sub.add_parser(name, help=help_text)
        for option in names:
            p.add_argument(f"--{option}", **options[option])
    return parser


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error and 0 after --help.
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    handlers = {"basis-check": cmd_basis_check, "simulate": cmd_simulate,
                "estimate": cmd_estimate, "mc-rate": cmd_mc_rate}
    try:
        return handlers[ns.command](ns)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
