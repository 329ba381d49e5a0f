"""Component estimator: thresholding, serialization, and exact invariances."""

import dataclasses
import json
import math
import re

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
    collapsed_sum,
    empirical_coeff,
    estimate_mean,
    eval_estimate,
    eval_periodized,
    evaluate_series,
    fit_component,
    identity_rho,
    ise,
    make_family,
    max_detail_level,
    simulate_dataset,
    threshold_scale,
    uniform_density,
    weighted_level_sums,
)
from addwave import test_function as catalog_fn
from addwave.estimator import _weights
from addwave.simulate import fgm_density
from addwave.wavelet import _CHUNK

HAAR = cascade_table(make_family(1), depth=12)
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
    with pytest.raises(ValueError,
                       match="DesignDensity field 'floor' must be a finite"):
        DesignDensity(dim=1, evaluator=wavy, floor=math.nan)


def test_density_unit_mass_checked_at_construction():
    with pytest.raises(ValueError, match="integrate"):
        DesignDensity(dim=1,
                      evaluator=lambda p: np.full(np.asarray(p).shape[0], 2.0),
                      floor=0.5)
    with pytest.raises(ValueError, match="evaluator integrates to nan"):
        DesignDensity(dim=1,
                      evaluator=lambda p: np.full(len(p), math.nan),
                      floor=0.5)
    # Every dimension is checked on one grid of 4096 points; dims outside
    # 1..4 are refused by name before it is built.
    sizes = []

    def twice(p):
        sizes.append(len(p))
        return np.full(len(p), 2.0)

    for dim in (1, 2, 3, 4):
        with pytest.raises(ValueError, match="integrates to 2.00000"):
            DesignDensity(dim=dim, evaluator=twice, floor=0.5)
    assert sizes == [4096] * 4
    for dim, text in (
            (0, "DesignDensity field 'dim' must be an integer in 1..4, got 0"),
            (5, "DesignDensity field 'dim' must be an integer in 1..4, got 5"),
            (2.0, "DesignDensity field 'dim' must be an integer in 1..4, "
                  "got 2.0")):
        with pytest.raises(ValueError, match=text):
            DesignDensity(dim=dim, evaluator=twice, floor=0.5)
    with pytest.raises(ValueError,
                       match="^DesignDensity field 'dim' must be an integer"):
        uniform_density(0)


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
    # For Haar the pyramid is exact: the lookup is piecewise constant, so
    # phi_{j,k} = (phi_{j+1,2k} + phi_{j+1,2k+1}) / sqrt(2) point by point.
    data = _uniform_data(2 ** 14, dim=2, seed=9)
    fit = fit_component(data, RHO, HAAR, EstimatorConfig(coord=2))
    assert fit.j1 > fit.tau + 1
    assert fit.a_hat.shape == (2 ** fit.tau,)
    for k, got in enumerate(fit.a_hat):
        one = empirical_coeff(data, RHO, HAAR, "scaling", fit.tau, k, 2)
        assert got == pytest.approx(one, abs=1e-12)
    for j, values in zip(fit.levels(), fit.detail_values):
        assert values.shape == (2 ** j,)
        for k, got in enumerate(values):
            one = empirical_coeff(data, RHO, HAAR, "wavelet", j, k, 2)
            assert got == pytest.approx(one, abs=1e-12)


def _filters(family):
    """``low_pass`` and its quadrature-mirror filter (-1)**l h[L - 1 - l]."""
    h = np.asarray(family.low_pass)
    return h, np.array([(-1) ** l * h[h.size - 1 - l] for l in range(h.size)])


def _bank_matrices(family, fine_size):
    """Dense periodic filter-bank matrices built from ``low_pass`` alone:
    row k of H holds h[l] at column (2k + l) mod fine_size, G the same
    with g."""
    h, g = _filters(family)
    lo = np.zeros((fine_size // 2, fine_size))
    hi = np.zeros_like(lo)
    for k in range(fine_size // 2):
        for l in range(h.size):
            lo[k, (2 * k + l) % fine_size] += h[l]
            hi[k, (2 * k + l) % fine_size] += g[l]
    return lo, hi


def _pyramid_gap_bounds(table, fit, x, w):
    """Bounds on |pyramid - direct| for every coefficient of ``fit``.

    Write f~ for the tabulated function interpolated linearly between the
    nodes of step 2**-d, and F(t) = sqrt(2) sum_l h[l] f~(2t - l) for what
    one analysis step puts in its place (g for the wavelet).  F is linear
    between the nodes of step 2**-(d+1), so e = F - f~ is too, and on the
    table cell c it is at most the largest |e| of the fine nodes 2c, 2c+1
    and 2c+2.  At level j the element (j, k) then differs from what the
    step gives by 2**(j/2) e(2**j x - k) (one translate only, as 2**j
    exceeds the support), so with S_{j+1} the bound one level up,

        |c_j[k] - direct| <= sum_l |h[l]| S_{j+1}[(2k+l) mod 2**(j+1)]
                             + 2**(j/2) mean_i |w_i| gap(2**j x_i - k),

    and the same with |g| for b_j.  S_{j1+1} = 0: that level is summed
    directly.  Returns the bound for ``a_hat`` and one per detail level.
    """
    d = table.depth
    h, g = _filters(table.family)
    phi = table.phi_samples
    fine = np.arange(2 * phi.size - 1)

    def cell_gap(samples, filt):
        two_scale = np.zeros(fine.size)
        for l, c in enumerate(filt):
            src = fine - l * 2 ** d
            ok = (src >= 0) & (src < phi.size)
            two_scale[ok] += np.sqrt(2.0) * c * phi[src[ok]]
        interp = np.empty(fine.size)
        interp[0::2] = samples
        interp[1::2] = 0.5 * (samples[:-1] + samples[1:])
        e = np.abs(two_scale - interp)
        return np.maximum(np.maximum(e[0:-2:2], e[1::2]), e[2::2])

    gaps = {"scaling": cell_gap(phi, h), "wavelet": cell_gap(table.psi_samples, g)}

    def envelope(kind, j):
        pos = 2.0 ** j * x
        base = np.floor(pos).astype(np.int64)
        out = np.zeros(2 ** j)
        for off in range(table.family.support_length):
            cell = np.floor((pos - base + off) * 2.0 ** d).astype(np.int64)
            out += np.bincount((base - off) % 2 ** j,
                               weights=np.abs(w) * gaps[kind][cell],
                               minlength=2 ** j)
        return out * 2.0 ** (j / 2.0) / x.size

    smooth = np.zeros(2 ** (fit.j1 + 1))
    details = []
    for j in range(fit.j1, fit.tau - 1, -1):
        lo, hi = _bank_matrices(table.family, 2 ** (j + 1))
        details.append(np.abs(hi) @ smooth + envelope("wavelet", j))
        smooth = np.abs(lo) @ smooth + envelope("scaling", j)
    return smooth, details[::-1]


def test_db2_fit_is_the_filter_bank_of_finest_sums():
    data = _uniform_data(2 ** 14, dim=2, seed=9)
    fit = fit_component(data, RHO, DB2, EstimatorConfig(coord=2))
    assert fit.j1 > fit.tau + 1
    x, w = data.x[:, 1], data.y
    # Reference: level-(j1+1) sums element by element, then dense matrices.
    top = fit.j1 + 1
    smooth = np.array([np.mean(w * eval_periodized(DB2, "scaling", top, k, x))
                       for k in range(2 ** top)])
    details = []
    for j in range(fit.j1, fit.tau - 1, -1):
        lo, hi = _bank_matrices(DB2.family, 2 ** (j + 1))
        details.append(hi @ smooth)
        smooth = lo @ smooth
    np.testing.assert_allclose(fit.a_hat, smooth, rtol=0, atol=1e-12)
    for got, want in zip(fit.detail_values, details[::-1]):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    # Against the direct per-level sums the fit differs by the table's
    # interpolation gap, within the bound derived in _pyramid_gap_bounds.
    a_bound, b_bounds = _pyramid_gap_bounds(DB2, fit, x, w)
    direct = weighted_level_sums(DB2, "scaling", fit.tau, x, w) / x.size
    assert np.all(np.abs(fit.a_hat - direct) <= a_bound + 1e-12)
    worst = 0.0
    for j, got, bound in zip(fit.levels(), fit.detail_values, b_bounds):
        direct = weighted_level_sums(DB2, "wavelet", j, x, w) / x.size
        assert np.all(np.abs(got - direct) <= bound + 1e-12)
        worst = max(worst, float(np.max(np.abs(got - direct))))
    # The two paths do differ, by less than the benchmark's 1e-5 check.
    assert 0.0 < worst <= 1e-5


def test_eval_estimate_matches_per_level_series():
    noise = _uniform_data(2 ** 14, seed=17)
    data = Dataset(y=np.sin(2.0 * np.pi * noise.x[:, 0]) + noise.y,
                   x=noise.x, density=noise.density)
    fit = fit_component(data, RHO, DB2)
    assert 0 < fit.kept_count() < sum(k.size for k in fit.detail_kept)
    # At these dyadic points every element is read at table nodes, where
    # the two-scale relation holds exactly, so the one gather at level
    # j1 + 1 matches the level-by-level series to rounding.
    mids = (np.arange(1024) + 0.5) / 1024
    per_level = np.full(mids.size, -fit.mu_hat)
    for k, a in enumerate(fit.a_hat):
        per_level += a * eval_periodized(DB2, "scaling", fit.tau, k, mids)
    for j, b, kept in zip(fit.levels(), fit.detail_values, fit.detail_kept):
        for k in np.flatnonzero(kept):
            per_level += b[k] * eval_periodized(DB2, "wavelet", j, int(k),
                                                mids)
    np.testing.assert_allclose(eval_estimate(fit, DB2, mids), per_level,
                               rtol=0, atol=1e-12)


def test_threshold_flips_lie_within_the_pyramid_gap(capsys):
    # A detail coefficient whose direct sum sits closer to the cut than the
    # derived pyramid-to-direct bound may change its keep decision; count
    # those and the flips, and require every flip to be one of them.
    scen = ScenarioSpec(components=("sine", "bump"), offset=0.3,
                        noise_halfwidth=0.5)
    rho = scen.rho_spec()
    tested = near = flips = 0
    for seed in range(6):
        proc = MixingProcessSpec(dim=2, ar_coeff=0.6, copula_theta=0.5,
                                 seed=seed)
        data = simulate_dataset(proc, scen, 2 ** 14, rep=0)
        fit = fit_component(data, rho, DB2)
        x, w = data.x[:, 0], rho(data.y) / data.density(data.x)
        _, bounds = _pyramid_gap_bounds(DB2, fit, x, w)
        cut = fit.kappa * fit.lambda_n
        for j, kept, bound in zip(fit.levels(), fit.detail_kept, bounds):
            direct = weighted_level_sums(DB2, "wavelet", j, x, w) / x.size
            close = np.abs(np.abs(direct) - cut) <= bound + 1e-12
            flipped = kept != (np.abs(direct) >= cut)
            assert not np.any(flipped & ~close)
            tested += kept.size
            near += int(close.sum())
            flips += int(flipped.sum())
    with capsys.disabled():
        print(f"\npyramid threshold decisions at n = 2^14 over 6 seeds: "
              f"{tested} tested, {near} within the gap of the cut, "
              f"{flips} flipped")
    assert tested == 6 * (4 + 8 + 16)


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


def test_weights_by_chunk_match_whole_array():
    n = 2 * _CHUNK + 3
    rng = np.random.default_rng(8)
    density = fgm_density(0.45)
    data = Dataset(y=rng.random(n), x=rng.random((n, 2)), density=density)
    u, v = data.x[:, 0], data.x[:, 1]
    literal = 1.0 + 0.45 * (1.0 - 2.0 * u) * (1.0 - 2.0 * v)
    assert np.array_equal(density(data.x), literal)
    assert np.array_equal(_weights(data, RHO), data.y / literal)
    # A density under its floor at the last point, past the first chunks,
    # is still refused.
    dips = DesignDensity(
        dim=1, floor=0.5,
        evaluator=lambda pts: np.where(pts[:, 0] == 1.0, 0.25, 1.0))
    x = rng.random((n, 1))
    x[-1] = 1.0
    with pytest.raises(ValueError, match="below its declared floor"):
        _weights(Dataset(y=rng.random(n), x=x, density=dips), RHO)


def test_density_floor_is_enforced_however_small():
    # A floor of 1e-300 was never enforced against an absolute slack of
    # 1e-12: a point at 1e-310 gave an infinite weight.  Such a floor is
    # now refused by name, and the slack is relative.
    def ramp(p):
        return 2.0 * p[:, 0]

    with pytest.raises(ValueError, match="DesignDensity field 'floor' must "
                                         "be >= 1e-100, got 1e-300"):
        DesignDensity(1, ramp, 1e-300)
    lowest = DesignDensity(1, ramp, 1e-100)
    for point in (1e-310, 1e-200, 0.5e-100 * (1 - 1e-11)):
        data = Dataset(y=np.ones(2), x=np.array([[0.5], [point]]),
                       density=lowest)
        with pytest.raises(ValueError, match="below its declared floor"):
            _weights(data, RHO)
    # At the floor, the largest response's weight is finite, and so is
    # the fit.
    data = Dataset(y=np.full(64, 1e120), x=np.full((64, 1), 0.5e-100),
                   density=lowest)
    assert np.array_equal(_weights(data, RHO), np.full(64, 1e120 / 1e-100))
    fit = fit_component(data, RHO, DB2)
    assert np.isfinite(fit.a_hat).all() and np.isfinite(fit.mu_hat)


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
    # Finite responses whose sums overflow used to fit to an infinite mean
    # and NaN coefficients: all at 1e308, or +-1e308 in two halves, whose
    # pairwise mean overflows before it cancels.
    for y in (np.full(16, 1e308), np.repeat([1e308, -1e308], 8),
              np.full(16, -1.1e120)):
        with pytest.raises(ValueError, match="responses must be finite and "
                                             "at most 1e\\+120"):
            Dataset(y=y, x=data.x, density=data.density)
    Dataset(y=np.full(16, -1e120), x=data.x, density=data.density)


def test_analysis_and_synthesis_reject_bad_points():
    # Unchecked, NaN dies with an IndexError from the stencil's int64 cast
    # and 1e300 at level 2 lands silently in a wrapped-around cell; the
    # reference evaluation's NaN, inf and -inf die with an IndexError in
    # its table lookup.
    est = fit_component(_uniform_data(1024), RHO, DB2, EstimatorConfig())
    for bad in (math.nan, math.inf, -math.inf, 1e300, -1e300):
        x = np.array([0.5, bad, 0.25])
        with pytest.raises(ValueError, match="points must be finite"):
            weighted_level_sums(DB2, "scaling", 2, x, np.ones(3))
        with pytest.raises(ValueError, match="points must be finite"):
            evaluate_series(DB2, 2, np.ones(4), x)
        with pytest.raises(ValueError, match="points must be finite"):
            eval_estimate(est, DB2, x)
        with pytest.raises(ValueError, match="points must be finite"):
            evaluate_series(DB2, 2, np.zeros(4), x)
    for bad in (math.nan, math.inf, -math.inf):
        x = np.array([0.5, bad, 0.25])
        with pytest.raises(ValueError, match="^points must be finite"):
            eval_periodized(DB2, "wavelet", 2, 1, x)
        with pytest.raises(ValueError, match="^points must be finite"):
            eval_periodized(DB2, "scaling", 0, 0, bad)
        pts = np.full((3, 2), 0.5)
        pts[1, 0] = bad
        with pytest.raises(ValueError, match="^points must be finite"):
            collapsed_sum(DB2, "wavelet", 2, 1, 1, pts)
    # The bound is the int64 table position: |x| * 2**(level + depth) must
    # stay below 2**63, so at level 2 and depth 12 |x| = 2**48 is the
    # largest power of two accepted.
    for bound in (2.0 ** 48, -(2.0 ** 48)):
        big = np.array([bound, 0.5])
        assert np.all(np.isfinite(weighted_level_sums(HAAR, "scaling", 2,
                                                      big, np.ones(2))))
        assert np.all(np.isfinite(evaluate_series(HAAR, 2, np.ones(4), big)))
        with pytest.raises(ValueError, match="points must be finite and "
                           "below 5.63e"):
            weighted_level_sums(HAAR, "scaling", 2, 2 * big, np.ones(2))
        with pytest.raises(ValueError, match="at level 2 and depth 12"):
            evaluate_series(HAAR, 2, np.ones(4), 2 * big)


def test_config_rejects_non_finite_threshold():
    for bad in (math.nan, math.inf, -1.0, True, "1", None):
        with pytest.raises(ValueError,
                           match="^EstimatorConfig field 'threshold_const' "):
            EstimatorConfig(threshold_const=bad)
    # Stored as a Python float, as the specs store their numbers.
    for good in (1, np.int64(2), np.float32(0.5)):
        kappa = EstimatorConfig(threshold_const=good).threshold_const
        assert type(kappa) is float and kappa == good


def test_config_rejects_non_integer_coord():
    for bad in (1.5, True, "1", 0, -2):
        with pytest.raises(ValueError, match="coord"):
            EstimatorConfig(coord=bad)
    assert EstimatorConfig(coord=np.int64(2)).coord == 2


def test_fit_rejects_coord_beyond_dim():
    data = _uniform_data(128, dim=2)
    for coord, text in ((0, "EstimatorConfig field 'coord' must be an "
                            "integer >= 1"),
                        (3, "coord must be an integer in 1..2")):
        with pytest.raises(ValueError, match=text):
            fit_component(data, RHO, DB2, EstimatorConfig(coord=coord))
        with pytest.raises(ValueError, match="coord must be an integer in"):
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
    # A level whose arrays do not match the scaling level is refused by name.
    short = dataclasses.replace(
        back, detail_values=[v[:1] for v in back.detail_values],
        detail_kept=[k[:1] for k in back.detail_kept])
    with pytest.raises(ValueError, match="detail coefficients"):
        eval_estimate(short, DB2, 0.5)


def test_estimate_json_refuses_a_missing_field_by_name():
    fit = fit_component(_uniform_data(512, seed=8), RHO, DB2)
    payload = json.loads(fit.to_json())
    for field in ("levels", "mu_hat", "tau", "j1", "lambda_n", "kappa",
                  "a_hat"):
        short = {k: v for k, v in payload.items() if k != field}
        with pytest.raises(ValueError, match=f"lacks the field '{field}'"):
            ComponentEstimate.from_json(json.dumps(short))
    payload["levels"][0]["coeffs"][0].pop("kept")
    with pytest.raises(ValueError, match="lacks the field 'kept'"):
        ComponentEstimate.from_json(json.dumps(payload))
    with pytest.raises(ValueError, match="lacks the field 'levels'"):
        ComponentEstimate.from_json("{}")


@pytest.mark.parametrize("text, message", [
    ("[]", "estimate must be a JSON object, got []"),
    ('{"levels": 3}', "field 'levels' must be a list, got 3"),
    ('{"levels": [3]}', "field 'levels entry' must be a JSON object"),
    ('{"levels": [{"coeffs": {}}]}', "field 'coeffs' must be a list"),
    ('{"levels": [{"coeffs": [1]}]}', "field 'coeffs entry' must be a JSON"),
    ('{"levels": [{"coeffs": [{"k": "0", "value": 1.0, "kept": true}]}]}',
     "field 'k' must be an integer >= 0"),
    ('{"levels": [{"coeffs": [{"k": 0, "value": "1", "kept": true}]}]}',
     "field 'value' must be a finite number"),
    ('{"levels": [{"coeffs": [{"k": 0, "value": 1.0, "kept": 1}]}]}',
     "field 'kept' must be a bool, got 1"),
    ('{"levels": [], "mu_hat": null}', "field 'mu_hat' must be a finite"),
    ('{"levels": [], "mu_hat": 0.0, "tau": 2.5}',
     "field 'tau' must be an integer >= 0, got 2.5"),
    ('{"levels": [], "mu_hat": 0.0, "tau": 2, "j1": 3, "lambda_n": 0.1, '
     '"kappa": 1.0, "a_hat": [0.5, "x"]}', "field 'a_hat' must be a finite"),
    ('{"levels": [], "mu_hat": 0.0, "tau": 2, "j1": 3, "lambda_n": 0.1, '
     '"kappa": 1.0, "a_hat": 4}', "field 'a_hat' must be a list")],
    ids=["array", "levels", "level", "coeffs", "coeff", "k", "value", "kept",
         "mu_hat", "tau", "a_hat-entry", "a_hat"])
def test_estimate_json_refuses_a_mistyped_field_by_name(text, message):
    # Each of these used to die with a TypeError that named no field.
    with pytest.raises(ValueError, match=re.escape(message)):
        ComponentEstimate.from_json(text)


def _swap_levels(payload):
    levels = payload["levels"]
    levels[0], levels[1] = levels[1], levels[0]


def _set_k(level, pos, k):
    def edit(payload):
        payload["levels"][level]["coeffs"][pos]["k"] = k
    return edit


# Edits to a fit at tau 2 and j1 4 that break the shapes tau and j1 imply.
@pytest.mark.parametrize("edit, message", [
    (lambda p: p.update(a_hat=p["a_hat"][:3]),
     "field 'a_hat' must hold 2**tau values at tau 2, got 3"),
    (lambda p: p.update(tau=30),
     "field 'a_hat' must hold 2**tau values at tau 30, got 4"),
    (lambda p: p.update(j1=5),
     "field 'levels' must hold j1 - tau + 1 = 4 levels, got 3"),
    (lambda p: p["levels"].pop(),
     "field 'levels' must hold j1 - tau + 1 = 3 levels, got 2"),
    (_swap_levels, "field 'j' must be 2 at levels entry 0, got 3"),
    (lambda p: p["levels"][2].pop("j"), "lacks the field 'j'"),
    (_set_k(1, 1, 0), "field 'k' must run over 0..7 once each at level 3"),
    (_set_k(1, 7, 8), "field 'k' must run over 0..7 once each at level 3"),
    (lambda p: p["levels"][0]["coeffs"].pop(),
     "field 'k' must run over 0..3 once each at level 2")],
    ids=["a_hat", "tau", "j1", "levels", "j", "j-missing", "k-repeated",
         "k-past", "k-missing"])
def test_estimate_json_refuses_a_shape_off_tau_and_j1(edit, message):
    # Each of these used to load, and eval_estimate then failed with a
    # text that named no field, or not at all.
    fit = fit_component(_uniform_data(2 ** 14, seed=8), RHO, DB2)
    payload = json.loads(fit.to_json())
    assert (payload["tau"], payload["j1"]) == (2, 4)
    edit(payload)
    with pytest.raises(ValueError, match=re.escape(message)):
        ComponentEstimate.from_json(json.dumps(payload))


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
