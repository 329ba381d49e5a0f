"""Print milliseconds and minor page faults per op for three benchmark ops.

    python3 tools/fault_count.py [--src DIR]

Each op runs in a fresh interpreter that imports ``addwave`` from ``--src``
(by default this checkout's ``src/``), so two source trees can be compared
run for run.  The ops are this checkout's ``perfbench/worker.py`` ones, at
seed 1 and worker index 0:

- ``replicate``: one ``Replicate`` step, a replication at n = 2^14 over the
  124 shifts of detail levels 2..6;
- ``sweep_cell``: one ``cli._run_cell`` of the README sweep at n = 2^16, a
  new rep per op;
- ``fit_large``: one ``FitLarge`` step, ``fit_component``, ``eval_estimate``
  at every design point and ``ise`` on one n = 2^20 dataset made in set-up.

Each op runs three times untimed, then a fixed number of times timed.
Faults are ``ru_minflt`` from ``getrusage(RUSAGE_SELF)`` around the timed
ops, so they count this process's own faults only; the time is wall clock.
A fault costs a page of first touch, so a count near zero means the op
reuses memory the allocator kept from the op before.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEED = 1
OPS = {"replicate": 200, "sweep_cell": 100, "fit_large": 20}
WARM_UP = 3


def _make_op(name: str):
    """A callable that runs op ``name`` once per call."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import worker
    from addwave import cli

    if name == "sweep_cell":
        config = cli.parse_experiment_config(
            {"scenario": worker.SCENARIO_CFG, "process": worker.PROCESS_CFG,
             "n_grid": worker.SWEEP_N_GRID, "reps": 1, "master_seed": SEED,
             "kappa": 1.0})
        count = itertools.count()
        return lambda: cli._run_cell(
            (config.scenario, config.process, config.family_r, config.depth,
             config.master_seed, config.coord, config.kappa_value,
             len(config.n_grid) - 1, config.n_grid[-1], next(count)))
    workload = {"replicate": worker.Replicate,
                "fit_large": worker.FitLarge}[name]()
    workload.setup(SEED, 0)
    return workload.step


def _measure(name: str) -> dict:
    op = _make_op(name)
    for _ in range(WARM_UP):
        op()
    ops = OPS[name]
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    for _ in range(ops):
        op()
    elapsed = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {"op": name, "ops": ops, "ms_per_op": elapsed * 1e3 / ops,
            "faults_per_op": faults / ops}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--child", choices=sorted(OPS), help=argparse.SUPPRESS)
    ns = ap.parse_args(argv)
    if ns.child:
        sys.path.insert(0, str(ns.src.resolve()))
        print(json.dumps(_measure(ns.child)))
        return 0
    print(f"{'op':<12}{'ops':>6}{'ms/op':>10}{'faults/op':>12}")
    for name in OPS:
        out = subprocess.run(
            [sys.executable, __file__, "--src", str(ns.src), "--child", name],
            check=True, capture_output=True, text=True).stdout
        row = json.loads(out)
        print(f"{name:<12}{row['ops']:>6}{row['ms_per_op']:>10.2f}"
              f"{row['faults_per_op']:>12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
