"""Acceptance gate: one test per shipping criterion.

Each test prints a single summary line with the measured quantity and its
bound, then asserts.  Criterion 6 checks the level-dependent term of the
fourth moment, not the whole moment: a coefficient estimate's fourth
moment is 3 var^2 plus a term of order 2^j / n^3, and the first part is
level-flat and dominates until 2**j approaches n.  The test regresses the
excess m4 - 3 var^2 on 2**j and also prints the raw-moment slope, which
sits near 0.1.
"""

import json

import numpy as np
import pytest

from addwave import (
    AdditiveFunction,
    MixingProcessSpec,
    ScenarioSpec,
    calibrate_threshold,
    cascade_table,
    collapsed_sum,
    expected_coeff,
    make_family,
    mc_moments,
    replicate_coeffs,
    tail_frequency,
    tensor_coeff,
)
from addwave import test_function as catalog_fn
from addwave.cli import main, parse_experiment_config, run_experiment
from addwave.wavelet import basis_diagnostics, level_coeffs

DB2 = cascade_table(make_family(2), depth=12)
SCENARIO = ScenarioSpec(components=("sine", "bump"), offset=0.3,
                        noise_halfwidth=0.5)


def _report(num, name, detail, ok):
    print(f"criterion {num} ({name}): {detail} -> "
          f"{'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_basis_validity():
    bounds = {"partition_of_unity": 1e-6, "vanishing_moments": 1e-6,
              "gram_identity": 1e-4}
    worst = {name: 0.0 for name in bounds}
    ok = True
    for r in (1, 2, 3, 4):
        for check in basis_diagnostics(make_family(r), depth=12):
            if check["name"] in bounds:
                worst[check["name"]] = max(worst[check["name"]],
                                           check["error"])
                ok = ok and check["error"] <= bounds[check["name"]]
            ok = ok and check["passed"]
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    assert _report(1, "basis validity", f"worst over R=1..4: {detail}", ok)


def test_criterion_2_collapsed_tensor_identities():
    m = 2 ** 16
    mids = (np.arange(m) + 0.5) / m
    rng = np.random.default_rng(2)
    worst_sq = 0.0
    worst_lit = 0.0
    for dim in (1, 2, 3):
        pts100 = rng.random((100, dim))
        for coord in (1, 2):
            if coord > dim:
                continue
            for level in range(2, 6):
                # the collapsed field varies only along the target axis, so
                # a 1-d midpoint rule there is the full d-dim integral
                pts = np.column_stack(
                    [mids if c == coord - 1 else np.full(m, 0.37)
                     for c in range(dim)])
                vals = collapsed_sum(DB2, "wavelet", level, 1, coord, pts)
                integral = float(np.mean(vals ** 2))
                rel = abs(integral / 2.0 ** (level * (dim - 1)) - 1.0)
                worst_sq = max(worst_sq, rel)
                fast = collapsed_sum(DB2, "wavelet", level, 1, coord, pts100)
                lit = collapsed_sum(DB2, "wavelet", level, 1, coord, pts100,
                                    literal=True)
                worst_lit = max(worst_lit,
                                float(np.max(np.abs(fast - lit))))
    ok = worst_sq <= 1e-3 and worst_lit <= 1e-10
    # The literal mismatch is summation rounding, which an ulp move of the
    # table changes; the line gives its figure only when it fails.
    lit = ("within bound 1e-10" if worst_lit <= 1e-10
           else f"{worst_lit:.2e} (bound 1e-10)")
    assert _report(
        2, "collapsed tensor identities",
        f"square-integral rel err {worst_sq:.2e} (bound 1e-3), "
        f"literal mismatch {lit}", ok)


def test_criterion_3_tensor_coeffs_match_marginal_coeffs():
    # The step entry is excluded: its jump at 0.45 never lands on a product
    # grid point, so the two quadratures disagree at the grid resolution,
    # not because of the identity under test.
    m_ref = 2 ** 16
    mids_ref = (np.arange(m_ref) + 0.5) / m_ref
    m2 = 2048
    mids2 = (np.arange(m2) + 0.5) / m2
    g2 = catalog_fn("bump")(mids2)
    worst = {}
    for name in ("sine", "bump", "sawtooth"):
        g1 = catalog_fn(name)(mids2)
        grid = AdditiveFunction(offset=0.3, components=(g1, g2)).tabulate()
        ref = catalog_fn(name)(mids_ref)
        gap = 0.0
        for level in range(2, 6):
            beta = level_coeffs(DB2, "wavelet", level, ref)
            for k in range(2 ** level):
                b = tensor_coeff(DB2, grid, "wavelet", level, k, 1)
                gap = max(gap, abs(b - beta[k]))
        alpha = level_coeffs(DB2, "scaling", 2, ref) + 0.3 * 2.0 ** -1.0
        for k in range(4):
            b = tensor_coeff(DB2, grid, "scaling", 2, k, 1)
            gap = max(gap, abs(b - alpha[k]))
        worst[name] = gap
    ok = all(v <= 1e-4 for v in worst.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    assert _report(3, "tensor coefficients match 1-d coefficients",
                   f"{detail} (bound 1e-4)", ok)


def test_criterion_4_coefficient_estimates_unbiased():
    # Measured max |z| = 1.54 over the four designs at this seed.
    targets = [("wavelet", 2, 1, 1), ("wavelet", 2, 3, 1),
               ("wavelet", 3, 2, 1), ("scaling", 2, 0, 1),
               ("wavelet", 4, 9, 1)]
    true_vals = np.array([expected_coeff(DB2, SCENARIO, *t) for t in targets])
    worst = 0.0
    for ar in (0.0, 0.6):
        for theta in (0.0, 0.5):
            proc = MixingProcessSpec(dim=2, ar_coeff=ar, copula_theta=theta,
                                     seed=17)
            vals = replicate_coeffs(proc, SCENARIO, DB2, targets,
                                    n=2 ** 10, reps=10 ** 4)
            se = vals.std(axis=0) / np.sqrt(vals.shape[0])
            z = (vals.mean(axis=0) - true_vals) / se
            worst = max(worst, float(np.max(np.abs(z))))
    ok = worst <= 3.0
    assert _report(4, "unbiasedness",
                   f"max |z| {worst:.3f} over 4 designs x 5 targets "
                   f"(bound 3)", ok)


def test_criterion_5_variance_slope():
    # Measured slope -1.0028 at this seed.
    proc = MixingProcessSpec(dim=2, ar_coeff=0.6, copula_theta=0.5, seed=101)
    variances = []
    sizes = [2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16]
    for n in sizes:
        rep = mc_moments(proc, SCENARIO, DB2, "wavelet", 2, 1, 1,
                         n=n, reps=4000)
        variances.append(rep.var_hat)
    slope = float(np.polyfit(np.log(sizes), np.log(variances), 1)[0])
    ok = -1.15 <= slope <= -0.85
    assert _report(5, "variance inversely proportional to n",
                   f"log-log slope {slope:.4f} (band [-1.15, -0.85])", ok)


def _level_fourth_moments(vals, true_vals, levels):
    """k-averaged m4 and excess m4 - 3 var^2 per level, one row per level.

    Moments are taken about the true coefficients, column by column, and
    then averaged over the 2**j shifts of each level.
    """
    dev = vals - true_vals
    m2 = (dev ** 2).mean(axis=0)
    m4 = (dev ** 4).mean(axis=0)
    excess = m4 - 3.0 * m2 ** 2
    bounds = np.cumsum([0] + [2 ** j for j in levels])
    return np.array([[m4[a:b].mean(), excess[a:b].mean()]
                     for a, b in zip(bounds, bounds[1:])])


def test_criterion_6_fourth_moment_slope():
    # The coefficient estimate is a mean of n terms Z / n with
    # Z = rho(Y) psi_jk(X_1) / f(X) and E[Z^4] of order 2^j, so its fourth
    # moment is 3 var^2 + E[Z^4] / n^3 up to mixing corrections.  The
    # 2^j term is a share of about 2^j / n of the whole, so the raw moment
    # is level-flat at n = 2^14 (slope 0.044 over levels 2..6 there).  The
    # slope is therefore read from the excess m4 - 3 var^2, at n = 2^8 over
    # levels 3..7, where 2^j / n runs from 1/32 to 1/2.  Measured excess
    # slope 0.893 at this seed (0.908 at seed 7, 0.917 at seed 12), raw-m4
    # slope 0.12 on the same replications; every level's excess sits at
    # least 5 batch standard errors above zero.
    proc = MixingProcessSpec(dim=2, ar_coeff=0.6, copula_theta=0.5, seed=101)
    n = 2 ** 8
    levels = [3, 4, 5, 6, 7]
    batches, batch_reps = 30, 1000
    targets = [("wavelet", j, k, 1) for j in levels for k in range(2 ** j)]
    vals = replicate_coeffs(proc, SCENARIO, DB2, targets,
                            n=n, reps=batches * batch_reps)
    true_vals = np.array([expected_coeff(DB2, SCENARIO, *t) for t in targets])
    m4, excess = _level_fourth_moments(vals, true_vals, levels).T
    per_batch = np.array([
        _level_fourth_moments(vals[b * batch_reps:(b + 1) * batch_reps],
                              true_vals, levels)[:, 1]
        for b in range(batches)])
    z = excess / (per_batch.std(axis=0, ddof=1) / np.sqrt(batches))
    log_size = [j * np.log(2.0) for j in levels]
    raw_slope = float(np.polyfit(log_size, np.log(m4), 1)[0])
    positive = bool(np.all(excess > 0))
    if positive:
        slope = float(np.polyfit(log_size, np.log(excess), 1)[0])
        slope_text = f"{slope:.4f}"
    else:
        slope, slope_text = float("nan"), "undefined (an excess <= 0)"
    ok = positive and 0.5 <= slope <= 1.5
    scaled = ", ".join(
        f"j={j}: {n ** 3 * e / 2.0 ** j:.2f} (z {zj:.1f})"
        for j, e, zj in zip(levels, excess, z))
    assert _report(6, "fourth moment's level term grows like 2^j",
                   f"excess m4 - 3var^2 log-log slope {slope_text} "
                   f"(band [0.5, 1.5]), raw m4 slope {raw_slope:.4f}; "
                   f"n^3 excess / 2^j: {scaled}", ok)


def test_criterion_7_concentration_at_calibrated_threshold():
    # Measured kappa 2.526, miss frequency 0.0 at this seed.
    proc = MixingProcessSpec(dim=2, ar_coeff=0.6, copula_theta=0.5, seed=7)
    kappa = calibrate_threshold(proc, SCENARIO, DB2, n=2 ** 12, reps=2000)
    freq = tail_frequency(proc, SCENARIO, DB2, 2, 1, 1, kappa=kappa,
                          n=2 ** 12, reps=10 ** 4)
    ok = freq <= 1e-2
    assert _report(7, "concentration",
                   f"kappa {kappa:.3f}, miss frequency {freq:.4f} "
                   f"(bound 1e-2)", ok)


def _rate_sweep(component):
    config = parse_experiment_config({
        "scenario": {"components": [component, "bump"], "mu": 0.3,
                     "noise_halfwidth": 0.5},
        "process": {"ar_coeff": 0.6, "copula_theta": 0.0},
        "n_grid": [2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16],
        "reps": 50,
        "master_seed": 21,
        "kappa": 1.0,
    })
    report, interrupted = run_experiment(config)
    assert not interrupted
    return report


def test_criterion_8_error_rate_tracks_smoothness():
    # Measured exponents: sine 0.8509 (r^2 0.989), step 0.6330.
    sine = _rate_sweep("sine")
    step = _rate_sweep("step")
    sine_ise = [row["mean_ise"] for row in sine["per_n"]]
    decreasing = all(b < a for a, b in zip(sine_ise, sine_ise[1:]))
    sine_slope = sine["fit"]["slope"]
    step_slope = step["fit"]["slope"]
    ok = decreasing and 0.55 <= sine_slope <= 1.0 and step_slope < sine_slope
    assert _report(
        8, "error rate tracks smoothness",
        f"sine exponent {sine_slope:.4f} (band [0.55, 1.0], "
        f"ISE decreasing: {decreasing}), step exponent {step_slope:.4f}", ok)


def test_criterion_9_reports_deterministic(tmp_path):
    payload = {
        "scenario": {"components": ["sine", "bump"], "mu": 0.3,
                     "noise_halfwidth": 0.5},
        "process": {"ar_coeff": 0.6, "copula_theta": 0.5},
        "n_grid": [256, 512, 1024, 2048],
        "reps": 3,
        "master_seed": 40,
        "kappa": 1.0,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["mc-rate", "--config", str(cfg),
                     "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        for cell in report["cells"]:
            cell["runtime_ms"] = 0.0
        outputs.append(json.dumps(report, sort_keys=True))
    ok = outputs[0] == outputs[1]
    assert _report(9, "determinism",
                   "two harness runs byte-identical modulo runtimes", ok)
