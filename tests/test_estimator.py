"""Component estimator: thresholding, serialization, and exact invariances."""

import dataclasses
import math

import numpy as np
import pytest

from addwave import (
    ComponentEstimate,
    Dataset,
    DesignDensity,
    EstimatorConfig,
    MixingProcessSpec,
    ScenarioSpec,
    cascade_table,
    empirical_coeff,
    estimate_mean,
    eval_estimate,
    fit_component,
    identity_rho,
    ise,
    make_family,
    max_detail_level,
    simulate_dataset,
    threshold_scale,
    uniform_density,
)
from addwave import test_function as catalog_fn

DB2 = cascade_table(make_family(2), depth=12)
RHO = identity_rho()


def _uniform_data(n, dim=1, seed=5, y=None):
    rng = np.random.default_rng(seed)
    x = rng.random((n, dim))
    if y is None:
        y = rng.random(n)
    return Dataset(y=np.asarray(y, dtype=float), x=x,
                   density=uniform_density(dim))


def test_threshold_scale_frozen_values():
    assert threshold_scale(8) == pytest.approx(0.5098334950844045, abs=1e-16)
    assert threshold_scale(512) == pytest.approx(0.11038218961082576, abs=1e-16)
    assert threshold_scale(1024) == pytest.approx(0.08227402649169248, abs=1e-16)
    with pytest.raises(ValueError):
        threshold_scale(1)


def test_max_detail_level_frozen_values():
    assert max_detail_level(10 ** 6, 3) == 8
    assert max_detail_level(1024, 2) == 2
    assert max_detail_level(16384, 2) == 4
    # the coarsest level wins while n / log(n)^3 stays below 2**coarsest
    assert max_detail_level(64, 3) == 3
    levels = [max_detail_level(n, 1) for n in range(16, 5000)]
    assert all(b >= a for a, b in zip(levels, levels[1:]))


def test_estimate_mean_basics():
    data = _uniform_data(40, y=np.full(40, 5.0))
    assert estimate_mean(data, RHO) == 5.0
    single = Dataset(y=np.array([2.5]), x=np.array([[0.3]]),
                     density=uniform_density(1))
    assert estimate_mean(single, RHO) == 2.5


def test_density_floor_checked_at_construction():
    def wavy(p):
        return 1.0 + 0.6 * np.cos(2.0 * np.pi * np.asarray(p)[:, 0])

    with pytest.raises(ValueError, match="declared floor"):
        DesignDensity(dim=1, evaluator=wavy, floor=0.5)


def test_density_unit_mass_checked_at_construction():
    with pytest.raises(ValueError, match="integrate"):
        DesignDensity(dim=1,
                      evaluator=lambda p: np.full(np.asarray(p).shape[0], 2.0),
                      floor=0.5)


def test_empirical_coeff_literal_matches_collapsed():
    rng = np.random.default_rng(11)
    x = rng.random((200, 2))
    data = Dataset(y=rng.random(200), x=x, density=uniform_density(2))
    for kind, level, shift in [("scaling", 2, 1), ("wavelet", 3, 5)]:
        fast = empirical_coeff(data, RHO, DB2, kind, level, shift, 1)
        slow = empirical_coeff(data, RHO, DB2, kind, level, shift, 1,
                               literal=True)
        assert fast == pytest.approx(slow, abs=1e-12)


def test_fit_coeffs_match_single_coeffs():
    data = _uniform_data(300, dim=2, seed=9)
    fit = fit_component(data, RHO, DB2, EstimatorConfig(coord=2))
    assert fit.a_hat.shape == (2 ** fit.tau,)
    for k, got in enumerate(fit.a_hat):
        one = empirical_coeff(data, RHO, DB2, "scaling", fit.tau, k, 2)
        assert got == pytest.approx(one, abs=1e-12)
    for j, values in zip(fit.levels(), fit.detail_values):
        assert values.shape == (2 ** j,)
        for k, got in enumerate(values):
            one = empirical_coeff(data, RHO, DB2, "wavelet", j, k, 2)
            assert got == pytest.approx(one, abs=1e-12)


def test_fit_evaluates_density_once():
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return np.ones(len(pts))

    density = DesignDensity(dim=2, evaluator=counted, floor=1.0)
    rng = np.random.default_rng(4)
    n = 2 ** 14
    data = Dataset(y=rng.random(n), x=rng.random((n, 2)), density=density)
    calls.clear()
    fit = fit_component(data, RHO, DB2, EstimatorConfig(coord=2))
    assert fit.j1 > fit.tau
    assert calls == [n]


def test_fit_zero_responses_is_exactly_zero():
    data = _uniform_data(1024, y=np.zeros(1024))
    fit = fit_component(data, RHO, DB2)
    assert fit.mu_hat == 0.0
    assert fit.kept_count() == 0
    mids = (np.arange(64) + 0.5) / 64
    assert np.all(eval_estimate(fit, DB2, mids) == 0.0)


def test_fit_levels_and_threshold_flags():
    data = _uniform_data(1024, seed=3)
    fit = fit_component(data, RHO, DB2, EstimatorConfig(threshold_const=1.0))
    assert fit.tau == 2
    assert fit.j1 == max_detail_level(1024, 2)
    assert fit.lambda_n == threshold_scale(1024)
    cut = fit.kappa * fit.lambda_n
    for values, kept in zip(fit.detail_values, fit.detail_kept):
        assert np.array_equal(kept, np.abs(values) >= cut)


def test_dataset_rejects_non_finite_design():
    data = _uniform_data(16, dim=2)
    for bad in (math.nan, math.inf, -math.inf):
        x = data.x.copy()
        x[3, 1] = bad
        with pytest.raises(ValueError, match="design points must be finite"):
            Dataset(y=data.y, x=x, density=data.density)


def test_dataset_rejects_non_finite_responses():
    data = _uniform_data(16)
    for bad in (math.nan, math.inf):
        y = data.y.copy()
        y[5] = bad
        with pytest.raises(ValueError, match="responses must be finite"):
            Dataset(y=y, x=data.x, density=data.density)


def test_config_rejects_non_finite_threshold():
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="threshold_const"):
            EstimatorConfig(threshold_const=bad)


def test_fit_rejects_coord_beyond_dim():
    data = _uniform_data(128, dim=2)
    for coord in (0, 3):
        with pytest.raises(ValueError, match="out of range"):
            fit_component(data, RHO, DB2, EstimatorConfig(coord=coord))
        with pytest.raises(ValueError, match="out of range"):
            data.column(coord)
    assert np.array_equal(data.column(2), data.x[:, 1])


def test_response_scaling_equivariance():
    data = _uniform_data(512, seed=21)
    tripled = Dataset(y=3.0 * data.y, x=data.x, density=data.density)
    base = fit_component(data, RHO, DB2, EstimatorConfig(threshold_const=0.0))
    big = fit_component(tripled, RHO, DB2, EstimatorConfig(threshold_const=0.0))
    assert big.mu_hat == pytest.approx(3.0 * base.mu_hat, rel=1e-14)
    np.testing.assert_allclose(big.a_hat, 3.0 * base.a_hat, rtol=1e-13)
    for b_small, b_big in zip(base.detail_values, big.detail_values):
        np.testing.assert_allclose(b_big, 3.0 * b_small, rtol=1e-13)


def test_serialization_round_trip_is_bit_exact():
    data = _uniform_data(512, seed=8)
    fit = fit_component(data, RHO, DB2)
    text = fit.to_json()
    back = ComponentEstimate.from_json(text)
    assert back.to_json() == text
    assert back.mu_hat == fit.mu_hat
    assert np.array_equal(back.a_hat, fit.a_hat)
    for a, b in zip(fit.detail_values, back.detail_values):
        assert np.array_equal(a, b)
    for a, b in zip(fit.detail_kept, back.detail_kept):
        assert np.array_equal(a, b)


def test_ise_zero_against_own_evaluation_and_offset_shift():
    data = _uniform_data(512, seed=13)
    fit = fit_component(data, RHO, DB2)
    mids = (np.arange(1024) + 0.5) / 1024
    fitted = eval_estimate(fit, DB2, mids)
    assert ise(fit, DB2, fitted) == 0.0
    assert ise(fit, DB2, fitted + 0.25) == pytest.approx(0.0625, abs=1e-15)
    with pytest.raises(ValueError):
        ise(fit, DB2, fitted, grid_size=512)


def test_thresholding_beats_full_tree_on_noisy_data():
    # Uniform noise at halfwidth 2 swamps the unit-scale sine target, so
    # zeroing small detail coefficients should win most head-to-heads.
    proc = MixingProcessSpec(dim=2, ar_coeff=0.6, copula_theta=0.5, seed=33)
    scen = ScenarioSpec(components=("sine", "bump"), offset=0.3,
                        noise_halfwidth=2.0)
    rho = scen.rho_spec()
    truth = catalog_fn("sine")
    wins = 0
    for rep in range(100):
        data = simulate_dataset(proc, scen, 2 ** 14, rep)
        fit = fit_component(data, rho, DB2,
                            EstimatorConfig(coord=1, threshold_const=1.0))
        full = dataclasses.replace(
            fit, detail_kept=[np.ones_like(k) for k in fit.detail_kept])
        if ise(fit, DB2, truth) < ise(full, DB2, truth):
            wins += 1
    assert wins == 84
    assert wins >= 80
