"""Reference oracles: closed forms, replication moments, rate fits."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addwave import (
    BudgetError,
    MixingProcessSpec,
    MomentReport,
    ScenarioSpec,
    calibrate_threshold,
    cascade_table,
    expected_coeff,
    haar_closed_form,
    make_family,
    mc_moments,
    rate_fit,
    replicate_coeffs,
    tail_frequency,
    tensor_coeff,
    threshold_scale,
)
from addwave.oracle import reference_shape
from addwave.wavelet import level_coeffs

HAAR = cascade_table(make_family(1), depth=12)
DB2 = cascade_table(make_family(2), depth=12)

IID = MixingProcessSpec(dim=2, ar_coeff=0.0, copula_theta=0.0, seed=7)
QUIET = ScenarioSpec(components=("sine", "bump"), offset=0.3,
                     noise_halfwidth=0.0)
NOISY = ScenarioSpec(components=("sine", "bump"), offset=0.3,
                     noise_halfwidth=0.5)


def test_haar_closed_form_matches_quadrature():
    m = 2 ** 14
    mids = (np.arange(m) + 0.5) / m
    for shape in ["constant", "linear", "step@0.5"]:
        samples = reference_shape(shape)(mids)
        for kind in ["scaling", "wavelet"]:
            for level in range(7):
                got = level_coeffs(HAAR, kind, level, samples)
                want = [haar_closed_form(shape, kind, level, k)
                        for k in range(2 ** level)]
                assert float(np.max(np.abs(got - np.array(want)))) < 1e-12


def test_haar_closed_form_matches_tensor_quadrature():
    m = 2 ** 14
    mids = (np.arange(m) + 0.5) / m
    samples = reference_shape("linear")(mids)
    got = tensor_coeff(HAAR, samples, "wavelet", 3, 5, 1)
    assert got == pytest.approx(haar_closed_form("linear", "wavelet", 3, 5),
                                abs=1e-12)


def test_haar_closed_form_argument_guards():
    with pytest.raises(ValueError, match="level"):
        haar_closed_form("linear", "wavelet", 7, 0)
    with pytest.raises(ValueError, match="shift"):
        haar_closed_form("linear", "wavelet", 2, 4)
    with pytest.raises(ValueError, match="kind"):
        haar_closed_form("linear", "ripple", 2, 1)
    with pytest.raises(ValueError, match="known"):
        haar_closed_form("cubic", "wavelet", 2, 1)
    with pytest.raises(ValueError, match="known"):
        reference_shape("cubic")


def test_expected_coeff_offset_enters_scaling_only():
    scen_flat = ScenarioSpec(components=("sine", "bump"), offset=0.0)
    base = expected_coeff(DB2, scen_flat, "scaling", 2, 1, 1)
    lifted = expected_coeff(DB2, QUIET, "scaling", 2, 1, 1)
    assert lifted - base == pytest.approx(0.3 * 2.0 ** -1.0, abs=1e-15)
    w_base = expected_coeff(DB2, scen_flat, "wavelet", 3, 2, 1)
    w_lifted = expected_coeff(DB2, QUIET, "wavelet", 3, 2, 1)
    assert w_lifted == w_base


def test_replicate_coeffs_shape_and_grouping():
    targets = [("wavelet", 2, 1, 1), ("wavelet", 2, 3, 1),
               ("scaling", 2, 0, 2)]
    out = replicate_coeffs(IID, NOISY, DB2, targets, n=256, reps=3)
    assert out.shape == (3, 3)
    single = replicate_coeffs(IID, NOISY, DB2, [("wavelet", 2, 3, 1)],
                              n=256, reps=3)
    assert np.array_equal(out[:, 1], single[:, 0])
    with pytest.raises(ValueError, match="shift"):
        replicate_coeffs(IID, NOISY, DB2, [("wavelet", 2, 4, 1)],
                         n=256, reps=3)
    for coord in (0, IID.dim + 1):
        with pytest.raises(ValueError, match="out of range"):
            replicate_coeffs(IID, NOISY, DB2, [("wavelet", 2, 1, coord)],
                             n=256, reps=3)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=0, max_value=2 ** 40),
       st.integers(min_value=1, max_value=3))
def test_replication_rows_depend_only_on_their_rep_property(seed, start,
                                                            reps):
    proc = MixingProcessSpec(dim=2, ar_coeff=0.6, copula_theta=0.5,
                             seed=seed)
    targets = [("wavelet", 2, 1, 1), ("scaling", 2, 3, 2)]
    block = replicate_coeffs(proc, NOISY, DB2, targets, n=64, reps=reps,
                             rep_start=start)
    for i in range(reps):
        row = replicate_coeffs(proc, NOISY, DB2, targets, n=64, reps=1,
                               rep_start=start + i)
        assert np.array_equal(block[i], row[0])


def test_budget_guard():
    with pytest.raises(BudgetError, match="budget"):
        replicate_coeffs(IID, NOISY, DB2, [("wavelet", 2, 1, 1)],
                         n=1024, reps=10, budget=5000)
    out = replicate_coeffs(IID, NOISY, DB2, [("wavelet", 2, 1, 1)],
                           n=1024, reps=10, budget=5000, allow_over=True)
    assert out.shape == (10, 1)


def test_moment_report_validation():
    kwargs = dict(kind="wavelet", level=2, shift=1, coord=1, n=256,
                  true_value=0.0, mean_hat=0.0)
    with pytest.raises(ValueError, match="reps"):
        MomentReport(reps=999, var_hat=1.0, m4_hat=3.0, **kwargs)
    with pytest.raises(ValueError, match="fourth moment"):
        MomentReport(reps=1000, var_hat=1.0, m4_hat=0.5, **kwargs)
    with pytest.raises(ValueError, match="negative"):
        MomentReport(reps=1000, var_hat=-1.0, m4_hat=3.0, **kwargs)
    rep = MomentReport(reps=1000, var_hat=0.04, m4_hat=0.01, **kwargs)
    assert rep.std_error() == pytest.approx(math.sqrt(0.04 / 1000))


def test_coefficient_estimates_are_unbiased_noiseless():
    # Measured z = 0.2735 at this seed.
    rep = mc_moments(IID, QUIET, DB2, "wavelet", 2, 1, 1, n=1024, reps=1000)
    assert abs(rep.z_score()) < 3.0
    assert rep.reps == 1000


def test_variance_halves_when_n_doubles():
    # Measured ratio 0.5063.
    lo = mc_moments(IID, NOISY, DB2, "wavelet", 2, 1, 1, n=1024, reps=2000)
    hi = mc_moments(IID, NOISY, DB2, "wavelet", 2, 1, 1, n=2048, reps=2000)
    assert 0.4 < hi.var_hat / lo.var_hat < 0.65


def test_fourth_moment_stays_bounded_across_levels():
    # Three level doublings admit at most an eightfold growth factor of 2
    # each; measured ratio 0.2172, far inside.
    lo = mc_moments(IID, NOISY, DB2, "wavelet", 2, 0, 1, n=2048, reps=2000,
                    rep_start=11000)
    hi = mc_moments(IID, NOISY, DB2, "wavelet", 5, 0, 1, n=2048, reps=2000,
                    rep_start=11000)
    assert hi.m4_hat / lo.m4_hat <= 16.0
    assert lo.m4_hat >= lo.var_hat ** 2
    assert hi.m4_hat >= hi.var_hat ** 2


def test_tail_frequency_extremes():
    assert tail_frequency(IID, NOISY, DB2, 2, 1, 1, kappa=50.0,
                          n=4096, reps=50) == 0.0
    assert tail_frequency(IID, NOISY, DB2, 2, 1, 1, kappa=0.0,
                          n=4096, reps=50) == 1.0


def test_tail_frequency_rejects_oversized_levels():
    # n = 1024 allows 2**level up to 1024 / log(1024)**3, about 3.07.
    with pytest.raises(ValueError, match="bound is 3.07"):
        tail_frequency(IID, NOISY, DB2, 2, 1, 1, kappa=1.0, n=1024, reps=50)
    with pytest.raises(ValueError, match="violates"):
        tail_frequency(IID, NOISY, DB2, 8, 1, 1, kappa=1.0, n=1024, reps=50)
    with pytest.raises(ValueError, match="kappa"):
        tail_frequency(IID, NOISY, DB2, 2, 1, 1, kappa=-1.0, n=4096, reps=50)


def test_rate_fit_recovers_planted_exponent():
    ns = [2 ** p for p in range(8, 16)]
    pts = [(n, (math.log(n) / n) ** 0.8) for n in ns]
    fit = rate_fit(pts)
    assert fit.slope == pytest.approx(0.8, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.sample_sizes == tuple(ns)


def test_rate_fit_constant_series():
    pts = [(n, 0.125) for n in [64, 256, 1024, 4096]]
    fit = rate_fit(pts)
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0


def test_rate_fit_scale_shifts_intercept_only():
    ns = [2 ** p for p in range(8, 14)]
    pts = [(n, (math.log(n) / n) ** 0.6) for n in ns]
    base = rate_fit(pts)
    scaled = rate_fit([(n, 5.0 * v) for n, v in pts])
    assert scaled.slope == pytest.approx(base.slope, abs=1e-12)
    assert scaled.intercept - base.intercept == pytest.approx(math.log(5.0),
                                                              abs=1e-12)


def test_rate_fit_input_guards():
    good = [(256, 0.1), (512, 0.05), (1024, 0.03), (2048, 0.02)]
    with pytest.raises(ValueError, match="4 points"):
        rate_fit(good[:3])
    with pytest.raises(ValueError, match="strictly increasing"):
        rate_fit([(256, 0.1), (256, 0.05), (1024, 0.03), (2048, 0.02)])
    with pytest.raises(ValueError, match="octaves"):
        rate_fit([(256, 0.1), (300, 0.05), (400, 0.03), (500, 0.02)])
    with pytest.raises(ValueError, match="positive"):
        rate_fit([(256, 0.1), (512, -0.05), (1024, 0.03), (2048, 0.02)])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            rate_fit([(256, 0.1), (512, bad), (1024, 0.03), (2048, 0.02)])


def test_rate_fit_serialization():
    pts = [(256, 0.1), (512, 0.05), (1024, 0.03), (2048, 0.02)]
    payload = json.loads(rate_fit(pts).to_json())
    assert payload["sample_sizes"] == [256, 512, 1024, 2048]
    assert payload["mean_ise"] == [0.1, 0.05, 0.03, 0.02]
    assert "slope" in payload


def test_calibrated_threshold_lands_in_expected_band():
    # Measured 2.5564 at 500 pilot replications, 2.5319 at 2000.
    proc = MixingProcessSpec(dim=2, ar_coeff=0.6, copula_theta=0.5, seed=7)
    kappa = calibrate_threshold(proc, NOISY, DB2, n=4096, reps=500)
    assert 2.0 < kappa < 3.0
    with pytest.raises(ValueError, match="quantile"):
        calibrate_threshold(proc, NOISY, DB2, n=4096, reps=500, quantile=0.4)
    with pytest.raises(ValueError, match="out of range"):
        calibrate_threshold(proc, NOISY, DB2, n=4096, coord=0, reps=500)


def test_tail_frequency_small_at_calibrated_threshold():
    # At kappa near 2.5 the miss band is kappa * lambda / 2, and lambda at
    # n = 4096 is 0.0450; 200 replications showed no misses.
    proc = MixingProcessSpec(dim=2, ar_coeff=0.6, copula_theta=0.5, seed=7)
    freq = tail_frequency(proc, NOISY, DB2, 2, 1, 1, kappa=2.5,
                          n=4096, reps=200)
    assert freq <= 0.02
    assert threshold_scale(4096) == pytest.approx(0.04506334020627759,
                                                  abs=1e-16)
