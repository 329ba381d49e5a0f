"""One fresh-process benchmark worker: import, set up, time, check.

Started by ``run.py`` with the pinned environment; writes one JSON record
to ``--out``.  The first thing it does is import ``addwave.cli``, timed,
so that figure is what a fresh ``python -c "import addwave.cli"`` costs.

Every workload builds its inputs from ``--seed`` and hands the program only
those inputs: a config dict or a ``Dataset``.  Ops run in a closed loop:
the next op starts when the previous one has returned.
"""

import os
import sys
import time

_t = time.monotonic()
import addwave.cli  # noqa: E402
IMPORT_MS = (time.monotonic() - _t) * 1e3

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
from contextlib import ExitStack, nullcontext  # noqa: E402
from unittest import mock  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

# Layer functions are called through their modules, never through names
# bound here, so the traced run's wrappers see every call.
from addwave import cli, estimator, oracle, simulate, wavelet  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

# The README sweep config; every workload draws from this scenario and
# design process (sine target, bump nuisance, AR 0.6, FGM theta 0.5).
SCENARIO_CFG = {"components": ["sine", "bump"], "mu": 0.3,
                "noise_halfwidth": 0.5}
PROCESS_CFG = {"ar_coeff": 0.6, "copula_theta": 0.5}
SWEEP_N_GRID = [2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16]
SWEEP_REPS = 50
REPLICATE_N = 2 ** 14
REPLICATE_LEVELS = range(2, 7)
FIT_LARGE_N = 2 ** 20
# Largest deviation allowed between a coefficient of the program and the
# same coefficient summed element by element (``direct_level_coeffs``):
# five times the 2.1e-6 interpolation error a filter-bank analysis on the
# depth-12 table shows at n = 2^20.
COEF_TOL = 1e-5
# Relative tolerance between the fitted ISE and the ISE of the same
# coefficients synthesized element by element with ``eval_periodized``.
SYNTH_REL_TOL = 1e-3


def _scenario():
    return simulate.scenario_from_config(SCENARIO_CFG)


def _process(seed):
    return simulate.process_from_config(PROCESS_CFG, 2, seed)


def _table():
    return wavelet.cascade_table(wavelet.make_family(2), 12)


def _fit_component(data, scenario, table):
    return estimator.fit_component(
        data, scenario.rho_spec(), table,
        estimator.EstimatorConfig(coord=1, threshold_const=1.0))


def _op(ms, obs, ok):
    return {"ms": ms, "obs": obs, "ok": bool(ok), "lat": True}


def direct_level_coeffs(table, kind, level, data):
    """Every shift's empirical coefficient of coordinate 1, computed
    without ``wavelet.weighted_level_sums``: each element is evaluated with
    ``eval_periodized`` on the points of the cells its support covers.

    Checks built on this stay independent of the program's level sums,
    which the oracle's replications and quadrature values share.
    """
    x = data.x[:, 0]
    w = _scenario().rho_spec()(data.y) / data.density(data.x)
    order = np.argsort(x)
    xs, ws = x[order], w[order]
    period = 2 ** level
    # Cell c holds the sorted points in [c / period, (c + 1) / period).
    bounds = np.append(np.searchsorted(xs, np.arange(period) / period),
                       xs.size)
    span = min(table.family.support_length, period)
    out = np.empty(period)
    for k in range(period):
        end = k + span
        pieces = [slice(bounds[k], bounds[min(end, period)])]
        if end > period:
            pieces.append(slice(bounds[0], bounds[end - period]))
        out[k] = sum(float(np.dot(ws[p], wavelet.eval_periodized(
            table, kind, level, k, xs[p]))) for p in pieces)
    return out / xs.size


class Sweep:
    """``cli.run_experiment`` on the README config; one op is one cell.

    Exercises the whole per-cell path (simulation, level sums, threshold,
    synthesis, ISE) and the harness around it.  Cells at every n are
    counted as work; latency percentiles use the n = 2^16 cells only,
    because a median over four sizes would sit on the jump between two.
    Cell latency comes from wrapping ``cli._run_cell``, the function the
    serial sweep calls once per cell.
    """

    def setup(self, seed, index):
        payload = {"scenario": SCENARIO_CFG, "process": PROCESS_CFG,
                   "n_grid": SWEEP_N_GRID, "reps": SWEEP_REPS,
                   "master_seed": seed, "kappa": 1.0}
        self.config = cli.parse_experiment_config(payload)
        self.cell_ms = []
        self.run_cell = cli._run_cell

        def timed_cell(job):
            t = time.monotonic()
            out = self.run_cell(job)
            self.cell_ms.append((time.monotonic() - t) * 1e3)
            return out

        cli._run_cell = timed_cell
        self.reference = None
        self.problems = []
        self.mean_ise = None
        # Warm-up: one replication per n, so every size has run once.
        warm, _ = cli.run_experiment(
            cli.parse_experiment_config(dict(payload, reps=1)))
        self.cells = warm["cells"]
        if not all(checks.finite(c["ise"]) for c in warm["cells"]):
            self.problems.append("warm-up sweep produced a non-finite ISE")

    def step(self):
        self.cell_ms.clear()
        report, interrupted = cli.run_experiment(self.config)
        flags, problems = checks.check_sweep(report, self.reference)
        if interrupted:
            flags, problems = [False] * len(flags), ["sweep interrupted"]
        self.problems += problems
        if self.reference is None and not problems:
            self.reference = report
            self.mean_ise = report["per_n"][-1]["mean_ise"]
        self.cells = report["cells"]
        top = max(self.config.n_grid)
        return [{"ms": ms, "obs": c["n"], "ok": ok, "lat": c["n"] == top}
                for ms, c, ok in zip(self.cell_ms, report["cells"], flags)]

    def verify(self):
        return self.problems

    def fault(self):
        """Replay the last sweep's cells with the first cell's ISE NaN."""
        by_job = {(c["n"], c["rep"]): c for c in self.cells}

        def replay(job):
            n_index, n, rep = job[7:10]
            cell = by_job[(n, rep)]
            if n_index == 0 and rep == 0:
                cell = dict(cell, ise=math.nan)
            return n_index, rep, cell

        return mock.patch.object(self, "run_cell", replay)


class Replicate:
    """``oracle.replicate_coeffs`` on criterion 6's shape; one op is one
    replication (all 124 shifts of detail levels 2..6 at n = 2^14).

    Exercises simulation and the direct level sums; never calls
    ``fit_component``, so estimator-only changes should read no change.
    Worker ``index`` draws replications from its own range, so the three
    workers of a run add up to independent replications.
    """

    def setup(self, seed, index):
        self.process = _process(seed)
        self.scenario = _scenario()
        self.table = _table()
        self.targets = [("wavelet", j, k, 1) for j in REPLICATE_LEVELS
                        for k in range(2 ** j)]
        self.next_rep = index * 1_000_000
        self.rows = []
        self.step()
        self.rows.clear()
        self.mean_ise = None

    def step(self):
        t = time.monotonic()
        row = oracle.replicate_coeffs(self.process, self.scenario,
                                      self.table, self.targets,
                                      n=REPLICATE_N, reps=1,
                                      rep_start=self.next_rep)[0]
        ms = (time.monotonic() - t) * 1e3
        self.next_rep += 1
        self.rows.append(row)
        return [_op(ms, REPLICATE_N, np.all(np.isfinite(row)))]

    def verify(self):
        """The last replication against sums computed without the program's
        level sums, then every column mean against its quadrature value."""
        data = simulate.simulate_dataset(self.process, self.scenario,
                                         REPLICATE_N, rep=self.next_rep - 1)
        ref = np.concatenate([
            direct_level_coeffs(self.table, "wavelet", j, data)
            for j in REPLICATE_LEVELS])
        worst = float(np.max(np.abs(self.rows[-1] - ref)))
        problems = [] if worst <= COEF_TOL else [
            f"last replication differs from direct sums by {worst}"]
        vals = np.array(self.rows)
        reps = vals.shape[0]
        expected = np.array([
            oracle.expected_coeff(self.table, self.scenario, *t)
            for t in self.targets])
        se = vals.std(axis=0, ddof=1) / np.sqrt(reps) if reps > 1 else np.nan
        z = (vals.mean(axis=0) - expected) / se
        return problems + checks.check_replicates(
            [float(v) for v in np.atleast_1d(z)], reps)

    def fault(self):
        """The next replication comes back as a row of NaN."""
        return mock.patch.object(
            oracle, "replicate_coeffs",
            lambda *a, **k: np.full((1, len(self.targets)), np.nan))


class FitLarge:
    """One n = 2^20 dataset made in set-up; each op is ``fit_component``
    (levels 2..8), ``eval_estimate`` at all n design points, then ``ise``.

    Exercises analysis and synthesis on 8 MiB arrays with simulation out
    of the timed phase.  Each op must reproduce the warm-up op's ISE; the
    first worker also checks the warm-up fit against coefficients and a
    synthesis computed element by element with ``eval_periodized``.
    """

    def setup(self, seed, index):
        self.index = index
        self.process = _process(seed)
        self.scenario = _scenario()
        self.table = _table()
        self.data = simulate.simulate_dataset(self.process, self.scenario,
                                              FIT_LARGE_N, rep=0)
        self.truth = self.scenario.component(1)
        self.est, self.fitted, self.mean_ise = self._fit()
        self.warm_ok = bool(np.all(np.isfinite(self.fitted))
                            and checks.finite(self.mean_ise))
        self.problems = None

    def _fit(self):
        est = _fit_component(self.data, self.scenario, self.table)
        fitted = estimator.eval_estimate(est, self.table, self.data.x[:, 0])
        return est, fitted, estimator.ise(est, self.table, self.truth,
                                          grid_size=2048)

    def step(self):
        t = time.monotonic()
        _, fitted, err = self._fit()
        ms = (time.monotonic() - t) * 1e3
        ok = (np.all(np.isfinite(fitted))
              and checks.check_value(err, self.mean_ise, 1e-12))
        return [_op(ms, FIT_LARGE_N, ok)]

    def verify(self):
        if self.problems is None:
            if not self.warm_ok:
                self.problems = ["warm-up fit produced a non-finite value"]
            else:
                self.problems = (self._against_direct_sums()
                                 if self.index == 0 else [])
        return self.problems

    def fault(self):
        """The next op reuses the warm-up fit and gets a NaN ISE."""
        stack = ExitStack()
        for name, value in (("fit_component", self.est),
                            ("eval_estimate", self.fitted),
                            ("ise", math.nan)):
            stack.enter_context(mock.patch.object(
                estimator, name, lambda *a, _v=value, **k: _v))
        return stack

    def _against_direct_sums(self):
        est, table = self.est, self.table
        ref = np.concatenate(
            [direct_level_coeffs(table, "scaling", est.tau, self.data)]
            + [direct_level_coeffs(table, "wavelet", j, self.data)
               for j in est.levels()])
        got = np.concatenate([est.a_hat] + list(est.detail_values))
        problems = []
        worst = float(np.max(np.abs(got - ref)))
        if not worst <= COEF_TOL:
            problems.append(f"coefficients differ from direct sums by {worst}")
        cut = est.kappa * est.lambda_n
        b_ref = ref[2 ** est.tau:]
        kept = np.concatenate(est.detail_kept)
        clear = np.abs(np.abs(b_ref) - cut) > COEF_TOL
        if np.any(kept[clear] != (np.abs(b_ref[clear]) >= cut)):
            problems.append("threshold decisions differ from direct sums'")
        mids = (np.arange(2048) + 0.5) / 2048
        synth = np.full(mids.size, -est.mu_hat)
        for k, a in enumerate(est.a_hat):
            synth += a * wavelet.eval_periodized(table, "scaling", est.tau,
                                                 k, mids)
        for pos, j in enumerate(est.levels()):
            for k in np.flatnonzero(est.detail_kept[pos]):
                synth += est.detail_values[pos][k] * wavelet.eval_periodized(
                    table, "wavelet", j, int(k), mids)
        ref_ise = float(np.mean((synth - self.truth(mids)) ** 2))
        if not checks.check_value(self.mean_ise, ref_ise, SYNTH_REL_TOL):
            problems.append(f"ISE {self.mean_ise} differs from the "
                            f"element-wise synthesis {ref_ise}")
        return problems


WORKLOADS = {"sweep": Sweep, "replicate": Replicate, "fit_large": FitLarge}


def timed_phase(workload, tracer, seconds):
    """Closed loop of ops for ``seconds``; at least one step runs."""
    ops = []
    start = time.monotonic()
    while True:
        with tracer.span("bench.op") if tracer and tracer.installed \
                else nullcontext():
            ops += workload.step()
        if time.monotonic() - start >= seconds:
            break
    return {"wall_s": time.monotonic() - start, "ops": ops}


def spoil(phases, problems):
    """A failed aggregate check fails every op of the phases it covers."""
    if problems:
        for phase in phases:
            for op in phase["ops"]:
                op["ok"] = False


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--out", required=True)
    ns = ap.parse_args()

    src = str(Path(addwave.__file__).resolve().parent.parent)
    if src != os.environ.get("PYTHONPATH"):
        raise SystemExit(f"addwave imported from {src}, not the checkout")
    tracer = spans.Tracer() if ns.trace else None
    if tracer:
        tracer.install()
    workload = WORKLOADS[ns.workload]()
    workload.setup(ns.seed, ns.index)
    t_ready = time.monotonic()

    phases = {}
    if tracer:
        # Half the budget untraced, half traced: their ratio is the
        # tracing overhead of this run.
        tracer.uninstall()
        phases["untraced"] = timed_phase(workload, tracer, ns.seconds / 2)
        tracer.phase = "traced"
        tracer.install()
        phases["traced"] = timed_phase(workload, tracer, ns.seconds / 2)
        tracer.uninstall()
        tracer.phase = "verify"
    else:
        phases["untraced"] = timed_phase(workload, tracer, ns.seconds)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    problems = list(workload.verify())
    spoil(phases.values(), problems)
    # One more op with the program's output spoiled.  It is kept apart from
    # the timed phases, and run.py refuses the run unless it counts as failed.
    with workload.fault():
        phases["injected"] = {"wall_s": 0.0, "ops": workload.step()}
    spoil([phases["injected"]], workload.verify())

    record = {
        "import_ms": IMPORT_MS,
        "t_ready": t_ready,
        "phases": phases,
        "problems": problems,
        "mean_ise": workload.mean_ise,
        "peak_rss_kb": rss_kb,
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__},
    }
    if tracer:
        record["layers"] = spans.summarize(tracer.spans, ("traced",))
        record["setup_layers"] = spans.summarize(tracer.spans,
                                                 ("setup", "traced"))
    Path(ns.out).write_text(json.dumps(record))


if __name__ == "__main__":
    main()
