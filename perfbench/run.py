"""addwave benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload {sweep,replicate,fit_large}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
``src/``.  The run starts WORKERS fresh worker processes one after
another, each with thread pools pinned to one thread.  Each sets up from
a fresh interpreter, measures S / WORKERS seconds of closed-loop ops and
checks the outputs, then runs one op with the program's output spoiled;
the run is refused unless that op counts as failed.  ``setup_s`` is the
median of the workers' set-up times, the other figures pool their ops.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` each worker spends half its time untraced and half
with every public function of the layers wrapped in a span, and the last
line carries the per-layer metrics.  Earlier lines list each metric with
its unit, as declared in ``BENCHMARK.json``; the full record, with the
machine and work counts, goes to ``perfbench/out/``.  Exit code 0 means
the run completed (``correct`` says whether the outputs passed); anything
else means it could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKERS = 3
DEADLINE_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")
WORKLOADS = ("sweep", "replicate", "fit_large")
# Tail percentile per workload, fixed so that runs of faster code compare
# at the same percentile.  In a 15 s run at the reference commit sweep has
# 15 samples beyond its p95 and replicate about 70.  Replicate's p99 (14
# beyond) spread by 20% of its median over ten seeds, against 7% at p95.
# fit_large ops take seconds, so a run holds about seven of them and no
# tail percentile has ten samples beyond it; its tail is the median.
TAIL_PCT = {"sweep": 95, "replicate": 95, "fit_large": 50}
# Input bytes per workload (computed): design, responses and weights at
# the largest n, 8 bytes a value.
WORKING_SET = {"sweep": 2 ** 16 * 4 * 8, "replicate": 2 ** 14 * 4 * 8,
               "fit_large": 2 ** 20 * 4 * 8}


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.update({"ADDWAVE_WORKERS": "1", "PYTHONPATH": str(SRC),
                "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"})
    return env


def run_workers(ns, deadline: float) -> list:
    OUT.mkdir(exist_ok=True)
    records = []
    for index in range(WORKERS):
        out = OUT / f"{ns.workload}-s{ns.seed}-t{ns.trace}-w{index}.json"
        out.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", ns.workload, "--seed", str(ns.seed),
               "--seconds", str(ns.seconds / WORKERS),
               "--trace", str(ns.trace), "--index", str(index),
               "--out", str(out)]
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, env=worker_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code != 0:
            raise RuntimeError(f"worker {index} "
                               + ("timed out" if code is None
                                  else f"exited with code {code}"))
        record = json.loads(out.read_text())
        record["setup_s"] = record["t_ready"] - t_spawn
        records.append(record)
    return records


def tail(values: list, pct: int) -> dict:
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    value = cuts[pct - 1]
    return {"value": value, "percentile": pct, "samples": len(values),
            "beyond": sum(1 for v in values if v > value)}


def end_to_end(ns, records: list, ops: list) -> tuple[dict, dict]:
    phases = [r["phases"]["untraced"] for r in records]
    wall = sum(p["wall_s"] for p in phases)
    lat = [op["ms"] for op in ops if op["lat"]]
    tail_info = tail(lat, TAIL_PCT[ns.workload])
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "obs_per_s": sum(op["obs"] for op in ops) / wall,
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": tail_info["value"],
        "peak_rss_mb": statistics.median(r["peak_rss_kb"]
                                         for r in records) / 1024.0,
    }
    return metrics, {"op_tail": tail_info, "timed_wall_s": wall}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def per_layer(records: list, ops_by_phase: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the traced half of every worker, and the
    pooled span summary they come from."""
    layers, setup_layers = {}, {}
    for r in records:
        spans.merge(layers, r["layers"])
        spans.merge(setup_layers, r["setup_layers"])
    traced = [r["phases"]["traced"] for r in records]
    untraced = [r["phases"]["untraced"] for r in records]
    ops = len(ops_by_phase["traced"])
    wall_t = sum(p["wall_s"] for p in traced)
    wall_u = sum(p["wall_s"] for p in untraced)
    obs_t = sum(op["obs"] for op in ops_by_phase["traced"])
    obs_u = sum(op["obs"] for op in ops_by_phase["untraced"])
    overhead = _ratio(wall_t / obs_t, wall_u / obs_u)
    # Self time of the program's spans: everything but the benchmark's own
    # per-op root span.
    layer_self = sum(r["self_s"] for name, r in layers.items()
                     if name != "bench.op")

    def per_obs_ns(name, unit="obs"):
        row = spans.row(layers, name)
        return _ratio(row["total_s"], row["units"].get(unit, 0), 1e9)

    def mean_ms(name, kind="total_s", source=layers):
        row = spans.row(source, name)
        return _ratio(row[kind], row["calls"], 1e3)

    def per_op(name, unit=None):
        row = spans.row(layers, name)
        return _ratio(row["units"].get(unit, 0) if unit else row["calls"], ops)

    fit = spans.row(layers, "estimator.fit_component")["units"]
    byte_total = sum(spans.row(layers, n)["units"].get("bytes", 0) for n in
                     ("wavelet.weighted_level_sums", "wavelet.evaluate_series"))
    all_ops = ops_by_phase["traced"] + ops_by_phase["untraced"]
    ises = [r["mean_ise"] for r in records if r["mean_ise"] is not None]
    metrics = {
        "simulate.gen_design.ns_per_obs": per_obs_ns("simulate.gen_design"),
        "simulate.gen_responses.ns_per_obs":
            per_obs_ns("simulate.gen_responses"),
        "simulate.obs": per_op("simulate.simulate_dataset", "obs"),
        "wavelet.weighted_level_sums.ns_per_obs":
            per_obs_ns("wavelet.weighted_level_sums"),
        "wavelet.weighted_level_sums.calls":
            per_op("wavelet.weighted_level_sums"),
        "wavelet.stencil_taps": per_op("wavelet.weighted_level_sums", "taps"),
        "wavelet.evaluate_series.ns_per_point":
            per_obs_ns("wavelet.evaluate_series"),
        "wavelet.evaluate_series.calls": per_op("wavelet.evaluate_series"),
        "wavelet.cascade_table.ms":
            mean_ms("wavelet.cascade_table", source=setup_layers),
        "estimator.fit_component.self_ms":
            mean_ms("estimator.fit_component", "self_s"),
        "estimator.level_estimates.calls":
            per_op("estimator.level_estimates"),
        "estimator.level_estimates.ms": mean_ms("estimator.level_estimates"),
        "estimator.levels_per_fit":
            _ratio(fit.get("levels", 0),
                   spans.row(layers, "estimator.fit_component")["calls"]),
        "estimator.keep_ratio": _ratio(fit.get("kept", 0),
                                       fit.get("tested", 0)),
        "estimator.details_tested": _ratio(fit.get("tested", 0), ops),
        "estimator.details_kept": _ratio(fit.get("kept", 0), ops),
        "estimator.eval_estimate.ms": mean_ms("estimator.eval_estimate"),
        "estimator.ise.ms": mean_ms("estimator.ise"),
        "oracle.replicate_coeffs.self_ms":
            mean_ms("oracle.replicate_coeffs", "self_s"),
        "oracle.replicate_coeffs.ns_per_obs_rep":
            per_obs_ns("oracle.replicate_coeffs"),
        "cli.import_ms": statistics.median(r["import_ms"] for r in records),
        "cli.run_experiment.self_ms": mean_ms("cli.run_experiment", "self_s"),
        "trace.overhead_ratio": overhead,
        # Program self time over the traced phase's wall time.  This equals
        # program self time per observation, divided by the overhead ratio,
        # over untraced wall time per observation: near 1 when the program's
        # spans account for the untraced wall time.
        "trace.layer_share": _ratio(layer_self, wall_t),
        "work.computed_bytes": _ratio(byte_total, ops),
        "mean_ise": statistics.median(ises) if ises else 0.0,
        "failed_ratio": checks.failed_ratio([op["ok"] for op in all_ops]),
    }
    return metrics, {"layers": layers}


def declared_units(trace: int) -> dict:
    """Name to unit of every metric ``BENCHMARK.json`` declares for the
    kind of run."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def machine(records: list, ns) -> dict:
    """Where and on what the run happened."""
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if read(idx / "type") in ("Unified", "Data"):
            caches[f"L{read(idx / 'level')}"] = read(idx / "size")
    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    head = read(ROOT / ".git" / "HEAD")
    commit = None
    if head and head.startswith("ref: "):
        commit = read(ROOT / ".git" / head[5:])
    elif head:
        commit = head
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + path.read_bytes())
    mem_limit = read("/sys/fs/cgroup/memory.max")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "mem_total": next((line.split(":", 1)[1].strip() for line in
                           (read("/proc/meminfo") or "").splitlines()
                           if line.startswith("MemTotal")), None),
        "cgroup_memory_max": mem_limit,
        "versions": records[0]["versions"],
        "pinned": {var: "1" for var in THREAD_VARS} | {"ADDWAVE_WORKERS": "1"},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": ns.seed,
        "workers": WORKERS,
        "working_set_bytes_computed": WORKING_SET[ns.workload],
        "bandwidth_note": ("no workload is a bandwidth measurement: arrays "
                           "four times the L3 would not fit in memory"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "addwave" / "__init__.py").is_file():
        print(f"error: no addwave sources under {SRC}", file=sys.stderr)
        return 2
    try:
        units = declared_units(ns.trace)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"error: cannot read the metrics of BENCHMARK.json: {exc!r}",
              file=sys.stderr)
        return 2
    missed = checks.selfcheck()
    if missed:
        print("error: output checks are blind: " + "; ".join(missed),
              file=sys.stderr)
        return 3
    try:
        records = run_workers(ns, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops_by_phase = {phase: [op for r in records
                            for op in r["phases"].get(phase, {"ops": []})["ops"]]
                    for phase in ("untraced", "traced", "injected")}
    all_ops = ops_by_phase["untraced"] + ops_by_phase["traced"]
    problems = [p for r in records for p in r["problems"]]
    ises = {r["mean_ise"] for r in records}
    if len(ises) > 1:
        problems.append(f"workers disagree on the ISE of one seed: {ises}")
        for op in all_ops:
            op["ok"] = False
    failed = sum(1 for op in all_ops if not op["ok"])
    injected = [op["ok"] for op in ops_by_phase["injected"]]
    if checks.failed_ratio(injected) == 0.0:
        print("error: an op with spoiled program output was not counted as "
              "failed", file=sys.stderr)
        return 3

    if ns.trace:
        metrics, extra = per_layer(records, ops_by_phase)
    else:
        metrics, extra = end_to_end(ns, records, ops_by_phase["untraced"])
    if set(metrics) != set(units):
        print("error: metrics differ from BENCHMARK.json: "
              f"undeclared {sorted(set(metrics) - set(units))}, "
              f"missing {sorted(set(units) - set(metrics))}", file=sys.stderr)
        return 4
    record = {"workload": ns.workload, "seed": ns.seed,
              "seconds": ns.seconds, "trace": ns.trace,
              "metrics": metrics, "problems": problems,
              "attempted": len(all_ops), "failed": failed,
              "failed_ratio": checks.failed_ratio([op["ok"] for op in all_ops]),
              "injected_failed": injected.count(False),
              "mean_ise": records[0]["mean_ise"], **extra,
              "machine": machine(records, ns),
              "workers": [{k: r[k] for k in ("setup_s", "import_ms",
                                             "peak_rss_kb", "problems")}
                          for r in records]}
    (OUT / f"{ns.workload}-s{ns.seed}-t{ns.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if "op_tail" in extra:
        print("op_tail: " + json.dumps(extra["op_tail"], sort_keys=True))
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(all_ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
