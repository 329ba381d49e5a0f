"""Fold benchmark records into one ``BENCH_<label>.json`` at the repo root.

    python3 tools/fold_bench.py --label after --seeds 701-710 \\
        --commit "$(git rev-parse HEAD)" --tier1-s 178,171,183 \\
        --mc-rate-s 2.3,2.4 --mc-rate-workers2-s 1.7,1.8 --import-ms 410 \\
        [--tier1-durations tier1-1.log tier1-2.log ...]

Reads the ``<records>/<workload>-s<seed>-t0.json`` records (written by
``perfbench/run.py``) of the given seeds, at least one per workload, and
the traced ``-t1.json`` records of those seeds where they exist.  For each
workload it keeps the median and quartiles over seeds of every metric, the
operations attempted and failed, and whether every run was correct.  The machine block
and ``src_sha256`` come from the records, which must all be of one source
tree; ``--commit`` names that tree, since a record's own ``git_commit``
is the checkout's HEAD and says nothing of uncommitted edits.  The
Tier-1 wall time, the README ``mc-rate`` wall time (serial and with
``ADDWAVE_WORKERS=2``) and ``import addwave.cli`` are measured outside the
benchmark and passed in, one value per run separated by commas; each is
kept as its count, median and quartiles.  ``--tier1-durations`` reads the
logs of Tier-1 runs made with ``pytest --durations=0`` and keeps, for each
acceptance criterion, the same figures of its seconds per run (set-up,
call and teardown added), under ``tier1_criterion_s``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "replicate", "fit_large")
# A line of pytest's durations report for an acceptance criterion.
DURATION = re.compile(r"^([\d.]+)s (?:setup|call|teardown) +"
                      r"tests/test_acceptance\.py::(test_criterion_\S+)$")


def seed_range(text: str) -> list[int]:
    """``701-710`` or ``701,705`` to a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def repeats(text: str) -> list[float]:
    """``178,171,183`` (or one value) to a list of floats."""
    return [float(v) for v in text.split(",")]


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def criterion_seconds(logs: list[Path]) -> dict:
    """``{criterion test: [seconds in each log]}`` from ``pytest
    --durations=0`` logs, the phases of one test in one log added."""
    runs: dict = {}
    for log in logs:
        seconds: dict = {}
        for line in log.read_text().splitlines():
            if match := DURATION.match(line.strip()):
                name = match[2]
                seconds[name] = seconds.get(name, 0.0) + float(match[1])
        if not seconds:
            raise ValueError(f"{log} holds no acceptance-criterion durations;"
                             f" run pytest with --durations=0")
        for name, value in seconds.items():
            runs.setdefault(name, []).append(value)
    return runs


def fold_runs(records: list[dict]) -> dict:
    names = sorted(records[0]["metrics"])
    return {
        "seeds": [r["seed"] for r in records],
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "correct": all(not r["problems"] and r["failed"] == 0 for r in records),
        "metrics": {name: summary([r["metrics"][name] for r in records])
                    for name in names},
    }


def load(records_dir: Path, workload: str, seeds: list[int],
         trace: int) -> list[dict]:
    paths = [records_dir / f"{workload}-s{s}-t{trace}.json" for s in seeds]
    return [json.loads(p.read_text()) for p in paths if p.is_file()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True)
    ap.add_argument("--commit", required=True)
    ap.add_argument("--records", type=Path, default=ROOT / "perfbench" / "out")
    ap.add_argument("--tier1-s", type=repeats, required=True)
    ap.add_argument("--mc-rate-s", type=repeats, required=True)
    ap.add_argument("--mc-rate-workers2-s", type=repeats, required=True)
    ap.add_argument("--import-ms", type=repeats, required=True)
    ap.add_argument("--tier1-durations", type=Path, nargs="+", default=[],
                    metavar="LOG")
    ns = ap.parse_args(argv)
    try:
        criteria = criterion_seconds(ns.tier1_durations)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    workloads, trees, machine = {}, set(), None
    for workload in WORKLOADS:
        untraced = load(ns.records, workload, ns.seeds, 0)
        if not untraced:
            print(f"error: no untraced {workload} record of those seeds "
                  f"in {ns.records}", file=sys.stderr)
            return 1
        traced = load(ns.records, workload, ns.seeds, 1)
        workloads[workload] = {"end_to_end": fold_runs(untraced)}
        if traced:
            workloads[workload]["per_layer"] = fold_runs(traced)
        for record in untraced + traced:
            trees.add(record["machine"]["src_sha256"])
            machine = machine or record["machine"]
    if len(trees) != 1:
        print(f"error: records come from {len(trees)} source trees",
              file=sys.stderr)
        return 1
    machine = {k: v for k, v in machine.items() if k != "seed"}
    measured = {name: dict(summary(values), count=len(values))
                for name, values in (
                    ("tier1_wall_s", ns.tier1_s),
                    ("mc_rate_readme_wall_s", ns.mc_rate_s),
                    ("mc_rate_readme_workers2_wall_s", ns.mc_rate_workers2_s),
                    ("cli_import_ms", ns.import_ms))}
    if criteria:
        measured["tier1_criterion_s"] = {
            name: dict(summary(values), count=len(values))
            for name, values in sorted(criteria.items())}
    bench = {
        "label": ns.label,
        "commit": ns.commit,
        "src_sha256": machine["src_sha256"],
        "machine": machine,
        "measured_outside_benchmark": measured,
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{ns.label}.json"
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
