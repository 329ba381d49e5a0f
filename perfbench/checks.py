"""Output checks and failure accounting, in plain Python.

Each check takes what the program returned for one op (or one sweep) and
says which ops failed.  ``selfcheck`` feeds every check an output with one
injected fault and confirms the fault is counted, so a check that has gone
blind stops the benchmark before it reports a clean run.
"""

from __future__ import annotations

import json
import math
from statistics import NormalDist

# Criterion 8's band for the fitted error exponent of a smooth target.
EXPONENT_BAND = (0.55, 1.0)

# The replication check tests every column mean against its quadrature
# value.  A single 3-standard-error test has a false-alarm rate of 0.27%;
# with 124 columns, three worker processes a run and about ninety runs a
# round, that would fail clean code in most rounds.  The bound is the
# Bonferroni-corrected z for a family-wise false-alarm rate of 1e-6.
REPLICATE_FAMILY_ALPHA = 1e-6
REPLICATE_MIN_REPS = 30


def z_bound(columns: int, alpha: float = REPLICATE_FAMILY_ALPHA) -> float:
    return NormalDist().inv_cdf(1.0 - alpha / (2.0 * columns))


def finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_sweep(report: dict, reference: dict | None = None) -> tuple[list, list]:
    """Per-cell pass flags for one ``run_experiment`` report.

    A cell fails if its ISE is not finite, or if its sweep fails: mean
    ISE not strictly decreasing in n, fitted exponent outside criterion
    8's band, or cells differing from an earlier sweep of the same config.
    """
    cells = report.get("cells", [])
    flags = [finite(c.get("ise")) for c in cells]
    problems = []
    means = [row.get("mean_ise") for row in report.get("per_n", [])]
    if not all(finite(m) for m in means) or not all(
            b < a for a, b in zip(means, means[1:])):
        problems.append(f"mean ISE not finite and decreasing in n: {means}")
    slope = (report.get("fit") or {}).get("slope")
    if not finite(slope) or not EXPONENT_BAND[0] <= slope <= EXPONENT_BAND[1]:
        problems.append(f"fitted exponent {slope} outside {EXPONENT_BAND}")
    if reference is not None and _cells_key(report) != _cells_key(reference):
        problems.append("cells differ from the first sweep of this config")
    if problems:
        flags = [False] * len(cells)
    return flags, problems


def _cells_key(report: dict) -> str:
    cells = [{k: v for k, v in c.items() if k != "runtime_ms"}
             for c in report.get("cells", [])]
    return json.dumps(cells, sort_keys=True)


def check_replicates(z_scores: list, reps: int) -> list:
    """Problems with the replicated column means, as z-scores against
    ``oracle.expected_coeff``; empty when the means are unbiased."""
    if reps < REPLICATE_MIN_REPS:
        return [f"only {reps} replications; need {REPLICATE_MIN_REPS}"]
    bound = z_bound(len(z_scores))
    bad = [i for i, z in enumerate(z_scores) if not (finite(z) and abs(z) <= bound)]
    if bad:
        worst = max((abs(z_scores[i]) if finite(z_scores[i]) else math.inf)
                    for i in bad)
        return [f"{len(bad)} column means beyond {bound:.2f} SE (worst {worst})"]
    return []


def check_value(value, reference, rel_tol: float) -> bool:
    """A finite value within ``rel_tol`` of a finite reference."""
    return (finite(value) and finite(reference)
            and abs(value - reference) <= rel_tol * abs(reference))


def failed_ratio(flags: list) -> float:
    return sum(1 for ok in flags if not ok) / len(flags) if flags else 0.0


def selfcheck() -> list:
    """Inject one bad output per check; return the checks that missed it."""
    missed = []
    good = {"cells": [{"n": n, "rep": 0, "ise": 1.0 / n, "runtime_ms": 1.0}
                      for n in (1024, 4096, 16384, 65536)],
            "per_n": [{"mean_ise": 1.0 / n} for n in (1024, 4096, 16384, 65536)],
            "fit": {"slope": 0.8}}
    if failed_ratio(check_sweep(good)[0]) != 0.0:
        missed.append("sweep check rejects a clean report")
    bad = json.loads(json.dumps(good))
    bad["cells"][2]["ise"] = math.nan
    if failed_ratio(check_sweep(bad)[0]) == 0.0:
        missed.append("sweep check misses a NaN cell ISE")
    bad = json.loads(json.dumps(good))
    bad["fit"]["slope"] = 0.3
    if failed_ratio(check_sweep(bad)[0]) != 1.0:
        missed.append("sweep check misses an exponent outside the band")
    if check_replicates([0.1, math.nan, -0.2], 500) == []:
        missed.append("replicate check misses a NaN column")
    if check_replicates([0.1, 50.0, -0.2], 500) == []:
        missed.append("replicate check misses a biased column")
    if check_value(math.nan, 1e-4, 1e-9) or check_value(1.1e-4, 1e-4, 1e-3):
        missed.append("value check misses a NaN or drifted ISE")
    if failed_ratio([True, False, True, True]) != 0.25:
        missed.append("failed_ratio miscounts")
    return missed
