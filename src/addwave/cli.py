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
import os
import sys
import time
from dataclasses import MISSING, dataclass, fields, replace
from functools import cached_property, lru_cache, partial
from pathlib import Path

import numpy as np

from ._rules import (_check_choice, _check_count, _check_number,
                     _check_span, _check_type, _is_integer, _json_object,
                     _optional, _shown, check_fields)
from .estimator import (EstimatorConfig, eval_estimate, fit_component,
                        identity_rho, ise)
from .oracle import (BudgetError, DEFAULT_BUDGET, _charge_budget,
                     calibrate_threshold, rate_fit)
from .simulate import (_PROCESS_KEYS, _SCENARIO_FIELDS, dataset_meta,
                       process_from_config, read_dataset_json,
                       scenario_from_config, simulate_dataset,
                       simulate_datasets, write_dataset_csv,
                       write_dataset_json)
from .wavelet import (_check_depth, _check_family, basis_diagnostics,
                      cascade_table, make_family)

REPORT_FORMAT_VERSION = "1"
WORKERS_ENV = "ADDWAVE_WORKERS"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_BUDGET = 3
EXIT_INTERRUPTED = 130


def _n_grid(name: str, value) -> tuple:
    """Sample sizes: a non-empty list of integers >= 2, strictly
    increasing, as a tuple of ints."""
    if (not isinstance(value, (list, tuple)) or not value
            or not all(_is_integer(n) and n >= 2 for n in value)):
        raise ValueError(f"{name} must be a list of integers >= 2, "
                         f"got {_shown(value)}")
    if any(b <= a for a, b in zip(value, value[1:])):
        raise ValueError(f"{name} must be strictly increasing, "
                         f"got {_shown(value)}")
    return tuple(map(int, value))


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed sweep configuration for simulate and mc-rate runs.

    ``specs``, the ``(ScenarioSpec, MixingProcessSpec)`` pair the
    ``scenario`` and ``process`` dicts and ``master_seed`` describe, is
    built once, when the fields are checked, and not a field: equality,
    ``asdict``, ``echo`` and ``replace`` see only the config's keys.
    """

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

    _FIELD_RULES = (
        ("n_grid", _n_grid), ("reps", partial(_check_count, low=1)),
        ("kappa_mode", partial(_check_choice,
                               choices=("fixed", "calibrated"))),
        ("aggregate", partial(_check_choice, choices=("mean", "median"))),
        ("master_seed", _check_count),
        ("scenario", partial(_json_object, keys=tuple(_SCENARIO_FIELDS))),
        ("process", partial(_json_object, keys=_PROCESS_KEYS)),
        ("family_r", _check_family),
        ("depth", _check_depth), ("coord", partial(_check_count, low=1)),
        ("budget", _check_count),
        (("kappa", "kappa_value"), partial(_check_number, low=0.0)),
        ("allow_over_budget", partial(_check_type, kind=bool)),
        ("output_dir", _optional(partial(_check_type, kind=str))))

    def __post_init__(self):
        # Every field is checked here, before any cell runs, for parsed,
        # direct and ``replace``d configs (command-line overrides) alike;
        # the specs then check the scenario and process blocks' values.
        check_fields(self, "experiment", self._FIELD_RULES)
        scenario, _ = self.specs
        _check_span("experiment field 'coord'", self.coord, 1, scenario.dim)

    @cached_property
    def specs(self) -> tuple:
        scenario = scenario_from_config(self.scenario)
        return scenario, process_from_config(self.process, scenario.dim,
                                             self.master_seed)

    def echo(self) -> dict:
        """The config under its keys, for the report: the budget fields
        and unset options left out, ``kappa`` only when it is fixed."""
        out = {key: getattr(self, f.name)
               for key, f in _CONFIG_FIELDS.items()
               if key not in ("budget", "allow_over_budget")
               and getattr(self, f.name) is not None}
        out["n_grid"] = list(self.n_grid)
        if self.kappa_mode != "fixed":
            del out["kappa"]
        return out


# The config key of each field: its name, but ``kappa`` for ``kappa_value``.
_CONFIG_FIELDS = {("kappa" if f.name == "kappa_value" else f.name): f
                  for f in fields(ExperimentConfig)}


def parse_experiment_config(payload: dict) -> ExperimentConfig:
    """Validate a declarative config, naming each offending field: the keys
    here, every value and default in ``ExperimentConfig``."""
    _json_object("experiment config", payload, tuple(_CONFIG_FIELDS))
    for key, field in _CONFIG_FIELDS.items():
        if field.default is MISSING and key not in payload:
            raise ValueError(f"experiment config is missing field {key!r}")
    return ExperimentConfig(**{field.name: payload[key]
                               for key, field in _CONFIG_FIELDS.items()
                               if key in payload})


def _option(ns, name: str):
    """Option ``name``, or the default of the config key of that name: a
    command that reads no config defaults as a config does."""
    value = getattr(ns, name)
    return _CONFIG_FIELDS[name].default if value is None else value


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
    points = [(row["n"], row[key]) for row in per_n
              if row["reps_done"] == config.reps]
    report = {
        "version": REPORT_FORMAT_VERSION,
        "config": config.echo(),
        "kappa": kappa,
        "cells": cells,
        "per_n": per_n,
        "fit": None,
    }
    try:
        report["fit"] = json.loads(rate_fit(points).to_json())
    except ValueError as exc:
        report["fit_error"] = str(exc)
    if interrupted:
        report["interrupted"] = True
    return report


def _workers() -> int:
    """The worker count ``ADDWAVE_WORKERS`` asks for; 1 when it is unset."""
    raw = os.environ.get(WORKERS_ENV, "1")
    if not (raw.isascii() and raw.isdigit() and int(raw) >= 1):
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, "
                         f"got {raw!r}")
    return int(raw)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(config: ExperimentConfig) -> tuple[dict, bool]:
    """Full sweep; returns the report and whether it was interrupted.

    Cells run in a process pool when ``ADDWAVE_WORKERS`` exceeds 1; the
    pool is no wider than the cells or the CPUs.
    """
    workers = _workers()
    _charge_budget(config.reps, sum(config.n_grid), config.budget,
                   config.allow_over_budget)
    scenario, process = config.specs
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
    workers = min(workers, len(jobs), _usable_cpus())
    done = []
    interrupted = False
    try:
        # ``extend`` keeps the cells done before an interrupt, in job order.
        if workers > 1:
            # Imported here, so that a start-up without a pool never loads it.
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                done.extend(pool.map(_run_cell, jobs, chunksize=4))
        else:
            done.extend(map(_run_cell, jobs))
    except KeyboardInterrupt:
        interrupted = True
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
    family_r = _option(ns, "family_r")
    depth = _option(ns, "depth")
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
    scenario, process = config.specs
    for n in config.n_grid:
        for rep, data in enumerate(simulate_datasets(process, scenario, n, 0,
                                                     config.reps)):
            meta = dataset_meta(process, scenario, n, rep)
            stem = f"dataset_n{n}_rep{rep}"
            write_dataset_csv(out / f"{stem}.csv", data)
            write_dataset_json(out / f"{stem}.json", data, meta)
    print(json.dumps({"version": REPORT_FORMAT_VERSION,
                      "written": 2 * len(config.n_grid) * config.reps,
                      "directory": str(out)}, sort_keys=True))
    return EXIT_OK


def cmd_estimate(ns) -> int:
    if ns.dataset is None:
        raise ValueError("--dataset is required for estimate")
    data, meta = read_dataset_json(ns.dataset)
    family_r = _option(ns, "family_r")
    depth = _option(ns, "depth")
    kappa = _option(ns, "kappa")
    coord = _option(ns, "coord")
    table = _cached_table(family_r, depth)
    scenario = scenario_from_config(meta["scenario"]) \
        if "scenario" in meta else None
    est = fit_component(data, identity_rho(), table,
                        EstimatorConfig(coord=coord,
                                        threshold_const=kappa))
    out_dir = Path(ns.output) if ns.output else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    est_path = out_dir / f"estimate_coord{coord}.json"
    est_path.write_text(est.to_json() + "\n")
    grid = (np.arange(2 ** 10) + 0.5) / 2 ** 10
    columns = [grid, eval_estimate(est, table, grid)]
    if scenario is not None:
        columns.append(scenario.component(coord)(grid))
    table_path = out_dir / f"estimate_coord{coord}.csv"
    with open(table_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "estimate", "truth"][:len(columns)])
        writer.writerows([repr(float(v)) for v in row]
                         for row in zip(*columns))
    summary = {"version": REPORT_FORMAT_VERSION,
               "estimate": str(est_path), "table": str(table_path),
               "kept": est.kept_count(), "j1": est.j1,
               "lambda_n": est.lambda_n, "kappa": kappa}
    if scenario is not None:
        summary["ise"] = ise(est, table, scenario.component(coord))
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
        "coord": dict(type=int, help="target coordinate (1-based)"),
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
