"""Reference oracles: closed forms, replication moments, rate fits."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addwave import (
    AdditiveFunction,
    BudgetError,
    Dataset,
    DesignDensity,
    EstimatorConfig,
    MixingProcessSpec,
    MomentReport,
    ScenarioSpec,
    TensorIndex,
    calibrate_threshold,
    cascade_table,
    collapsed_sum,
    empirical_coeff,
    estimate_mean,
    eval_periodized,
    eval_tensor,
    evaluate_series,
    expected_coeff,
    fit_component,
    haar_closed_form,
    ise,
    make_family,
    max_detail_level,
    mc_moments,
    oracle,
    rate_fit,
    replicate_coeffs,
    simulate_dataset,
    tail_frequency,
    tensor_coeff,
    threshold_scale,
    uniform_density,
    weighted_level_sums,
)
from addwave.oracle import reference_shape
from addwave.simulate import gen_designs, gen_responses, simulate_datasets
from addwave.wavelet import _CHUNK, level_coeffs

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


_X = np.linspace(0.0, 1.0, 9)
_DATA = simulate_dataset(IID, NOISY, 64)
_FIT = fit_component(_DATA, NOISY.rho_spec(), DB2)
_COUNT = "%s must be an integer >= %d, got"
_LATE_NAN = np.where(np.arange(_CHUNK + 5) == _CHUNK + 2, np.nan, 1.0)
_LATE_INF = np.where(np.arange(_CHUNK + 5) == _CHUNK + 4, np.inf, 1.0)
_DEEP = "level must be an integer in 0..24, got"


def _overflowing_ise():
    """The ISE of a fit to responses at their bound, 1e120, where the
    density sits at its least floor, 1e-100: the fit reaches about 4e220,
    and its squared error overflows."""
    density = DesignDensity(1, lambda p: 2.0 * p[:, 0], 1e-100)
    data = Dataset(y=np.full(4096, 1e120), x=np.full((4096, 1), 0.5e-100),
                   density=density)
    return ise(fit_component(data, NOISY.rho_spec(), DB2), DB2,
               NOISY.component(1), grid_size=2048)


# (start of the error text, up to a space, call): each index is not an
# integer, out of range, or of an unknown kind; so is each size, count and
# threshold constant at the end, or not finite.  A count's text states the
# count rule in full.
_REFUSED = (
    ("level", lambda: eval_periodized(DB2, "wavelet", 2.5, 0, _X)),
    ("shift", lambda: eval_periodized(DB2, "wavelet", 2, 1.5, _X)),
    ("level", lambda: haar_closed_form("linear", "scaling", 2.5, 1)),
    ("level", lambda: collapsed_sum(DB2, "wavelet", 2.5, 0, 1, _DATA.x)),
    ("level", lambda: collapsed_sum(DB2, "wavelet", 2.5, 0, 1, _DATA.x,
                                    literal=True)),
    ("kind", lambda: collapsed_sum(DB2, "ripple", 1, 0, 1, _DATA.x,
                                   literal=True)),
    ("level", lambda: empirical_coeff(_DATA, NOISY.rho_spec(), DB2,
                                      "wavelet", 2.5, 0, 1)),
    ("shift", lambda: tensor_coeff(DB2, np.zeros((256, 256)), "wavelet", 2,
                                   1.5, 1)),
    ("shift", lambda: expected_coeff(DB2, NOISY, "wavelet", 3, -1, 1)),
    ("level", lambda: TensorIndex(2.5, (0, 1), 1)),
    ("shift", lambda: TensorIndex(2, (0, 1.0), 1)),
    ("level", lambda: weighted_level_sums(DB2, "wavelet", 2.0, _X, _X)),
    ("level", lambda: level_coeffs(DB2, "wavelet", 3.0, _X)),
    ("level", lambda: evaluate_series(DB2, 2.0, np.ones(4), _X)),
    ("level", lambda: evaluate_series(DB2, True, np.ones(2), _X)),
    ("level", lambda: mc_moments(IID, NOISY, DB2, "wavelet", 2.0, 0, 1, 64,
                                 1000)),
    ("kind", lambda: replicate_coeffs(IID, NOISY, DB2, [("wavelet", 2, 0, 1),
                                                        ("ripple", 2, 0, 1)],
                                      n=64, reps=2)),
    ("shift", lambda: replicate_coeffs(IID, NOISY, DB2,
                                       [("wavelet", 2, 1.0, 1)], n=64,
                                       reps=2)),
    ("coord", lambda: replicate_coeffs(IID, NOISY, DB2,
                                       [("wavelet", 2, 0, 1.5)], n=64,
                                       reps=2)),
    ("coord", lambda: NOISY.component(1.5)),
    ("coord", lambda: NOISY.component(True)),
    ("coord", lambda: _DATA.column(1.5)),
    ("coord", lambda: _DATA.column(True)),
    ("coord", lambda: collapsed_sum(DB2, "wavelet", 2, 0, 1.0, _DATA.x)),
    ("coord", lambda: tensor_coeff(DB2, np.zeros((256, 256)), "wavelet", 2,
                                   1, 1.5)),
    # Equal as a group key to the first target, yet refused on its own.
    ("level", lambda: replicate_coeffs(IID, NOISY, DB2,
                                       [("wavelet", 2, 0, 1),
                                        ("wavelet", 2.0, 1, True)],
                                       n=64, reps=2)),
    ("kappa", lambda: tail_frequency(IID, NOISY, DB2, 2, 1, 1,
                                     kappa=math.nan, n=4096, reps=50)),
    ("kappa", lambda: tail_frequency(IID, NOISY, DB2, 2, 1, 1,
                                     kappa=math.inf, n=4096, reps=50)),
    (_COUNT % ("grid_size", 1024),
     lambda: ise(_FIT, DB2, NOISY.component(1), grid_size=2048.5)),
    ("sample sizes", lambda: rate_fit([(256, 0.1), (512, 0.05),
                                       (1024, 0.03), (4096.9, 0.02)])),
    (_COUNT % ("reps", 1), lambda: replicate_coeffs(
        IID, NOISY, DB2, [("wavelet", 2, 0, 1)], n=64, reps=2.5)),
    (_COUNT % ("n", 2), lambda: replicate_coeffs(
        IID, NOISY, DB2, [("wavelet", 2, 0, 1)], n=64.5, reps=2)),
    (_COUNT % ("reps", 1),
     lambda: calibrate_threshold(IID, NOISY, DB2, n=4096, reps=2.5)),
    # The sample size is checked before the level bound reads log(n).
    (_COUNT % ("n", 2), lambda: tail_frequency(IID, NOISY, DB2, 2, 1, 1,
                                               kappa=1.0, n=1, reps=50)),
    (_COUNT % ("n", 2), lambda: tail_frequency(IID, NOISY, DB2, 2, 1, 1,
                                               kappa=1.0, n=0, reps=50)),
    (_COUNT % ("n", 2), lambda: tail_frequency(IID, NOISY, DB2, 2, 1, 1,
                                               kappa=1.0, n=-4, reps=50)),
    (_COUNT % ("n", 2), lambda: max_detail_level(2.5, 2)),
    (_COUNT % ("n", 2), lambda: threshold_scale(2.5)),
    (_COUNT % ("reps", 1000), lambda: mc_moments(IID, NOISY, DB2, "wavelet",
                                                 2, 0, 1, 64, True)),
    (_COUNT % ("reps", 1000), lambda: mc_moments(IID, NOISY, DB2, "wavelet",
                                                 2, 0, 1, 64, 1000.5)),
    (_COUNT % ("rep_start", 0), lambda: gen_designs(IID, 64, 1.5, 2)),
    (_COUNT % ("rep_start", 0),
     lambda: simulate_datasets(IID, NOISY, 64, True, 2)),
    (_COUNT % ("grid_size", 1024),
     lambda: ise(_FIT, DB2, NOISY.component(1), grid_size=True)),
    (_COUNT % ("EstimatorConfig field 'coord'", 1),
     lambda: EstimatorConfig(coord=1.5)),
    (_COUNT % ("EstimatorConfig field 'coord'", 1),
     lambda: EstimatorConfig(coord=True)),
    # A threshold constant follows the number rule: a bool or a string is
    # not a number.
    ("EstimatorConfig field 'threshold_const'",
     lambda: EstimatorConfig(threshold_const=True)),
    ("EstimatorConfig field 'threshold_const'",
     lambda: EstimatorConfig(threshold_const="1")),
    ("kappa", lambda: tail_frequency(IID, NOISY, DB2, 2, 1, 1, kappa=True,
                                     n=4096, reps=50)),
    ("kappa", lambda: tail_frequency(IID, NOISY, DB2, 2, 1, 1, kappa="1",
                                     n=4096, reps=50)),
    # A level past the index rule's bound is refused before an array of
    # 2**level shifts is made or a replication drawn.
    (_DEEP, lambda: eval_periodized(DB2, "wavelet", 25, 0, _X)),
    (_DEEP, lambda: weighted_level_sums(DB2, "wavelet", 40, _X, _X)),
    (_DEEP, lambda: weighted_level_sums(DB2, "wavelet", 64, _X, _X)),
    (_DEEP, lambda: evaluate_series(DB2, 64, np.ones(4), _X)),
    (_DEEP, lambda: expected_coeff(DB2, NOISY, "wavelet", 45, 0, 1)),
    (_DEEP, lambda: replicate_coeffs(IID, NOISY, DB2, [("wavelet", 2, 0, 1),
                                                       ("wavelet", 40, 0, 1)],
                                     n=64, reps=2)),
    # Midpoint samples of a function: there must be at least one.
    ("values", lambda: level_coeffs(DB2, "wavelet", 2, np.array([]))),
    # Shapes and sizes at each layer's boundary.
    ("need", lambda: Dataset(y=np.zeros(3), x=np.zeros((4, 2)),
                             density=uniform_density(2))),
    ("design", lambda: Dataset(y=np.zeros(4), x=np.zeros((4, 3)),
                               density=uniform_density(2))),
    ("empty", lambda: estimate_mean(Dataset(
        y=np.zeros(0), x=np.zeros((0, 2)), density=uniform_density(2)),
        NOISY.rho_spec())),
    ("need", lambda: fit_component(Dataset(
        y=np.zeros(1), x=np.full((1, 2), 0.5), density=uniform_density(2)),
        NOISY.rho_spec(), DB2)),
    ("truth", lambda: ise(_FIT, DB2, np.zeros(1000))),
    ("need", lambda: replicate_coeffs(IID, NOISY, DB2, [], n=64, reps=2)),
    ("design", lambda: gen_responses(np.zeros((4, 3)), NOISY, 0)),
    ("scenario", lambda: simulate_datasets(IID, ScenarioSpec(("sine",)), 64,
                                           0, 2)),
    ("level", lambda: evaluate_series(DB2, 2, np.ones(3), _X)),
    ("EstimatorConfig field 'threshold_const'",
     lambda: EstimatorConfig(threshold_const=10 ** 400)),
    ("need", lambda: AdditiveFunction(0.0, ())),
    ("components", lambda: AdditiveFunction(0.0, (np.zeros(4),
                                                  np.zeros(8)))),
    ("tabulation", lambda: AdditiveFunction(
        0.0, (np.zeros(2 ** 13), np.zeros(2 ** 13))).tabulate()),
    ("points", lambda: eval_tensor(DB2, TensorIndex(2, (0, 1), 1),
                                   np.zeros((4, 3)))),
    ("dim", lambda: collapsed_sum(DB2, "wavelet", 2, 0, 1,
                                  np.zeros((4, 5)))),
    ("literal", lambda: collapsed_sum(DB2, "wavelet", 11, 0, 1,
                                      np.zeros((4, 3)), literal=True)),
    ("axis", lambda: tensor_coeff(DB2, np.zeros((64, 64)), "wavelet", 3, 0,
                                  1)),
    # Each moment of a report follows the number rule.
    *((f"MomentReport field '{name}'", lambda name=name: MomentReport(
        kind="wavelet", level=2, shift=1, coord=1, n=256, reps=1000,
        **{"true_value": 0.0, "mean_hat": 0.0, "var_hat": 1.0,
           "m4_hat": 3.0, name: bad}))
      for name in ("true_value", "mean_hat", "var_hat", "m4_hat")
      for bad in (math.nan, math.inf, True)),
    # Draws are keyed by counts, and responses need finite points.
    (_COUNT % ("seed", 0), lambda: gen_responses(_DATA.x, NOISY, -1)),
    (_COUNT % ("rep", 0), lambda: gen_responses(_DATA.x, NOISY, 0, rep=0.5)),
    ("design points must be", lambda: gen_responses(
        np.array([[0.5, np.nan]]), NOISY, 0)),
    ("design points must be", lambda: gen_responses(
        np.array([[np.inf, 0.5]]), QUIET, 0)),
    # A target is a (kind, level, shift, coord) tuple, refused whole.
    ("target", lambda: replicate_coeffs(IID, NOISY, DB2, [("wavelet", 2, 0)],
                                        n=64, reps=2)),
    ("target", lambda: replicate_coeffs(IID, NOISY, DB2,
                                        [("wavelet", 2, 0, 1), 3],
                                        n=64, reps=2)),
    # A mistyped argument is refused before any work.
    ("DesignDensity field 'evaluator'", lambda: DesignDensity(2, None, 1.0)),
    ("family", lambda: cascade_table(None, 12)),
    ("config", lambda: fit_component(_DATA, NOISY.rho_spec(), DB2,
                                     config=None)),
    ("rho", lambda: estimate_mean(_DATA, None)),
    ("rho", lambda: empirical_coeff(_DATA, None, DB2, "wavelet", 2, 0, 1)),
    # Weights, samples and coefficients must be finite, a weight in any
    # chunk of the points.
    ("weights", lambda: weighted_level_sums(DB2, "wavelet", 2, _X,
                                            np.full(9, np.nan))),
    ("weights", lambda: weighted_level_sums(
        DB2, "scaling", 3, np.linspace(0.0, 1.0, _CHUNK + 5), _LATE_NAN)),
    ("weights", lambda: weighted_level_sums(
        DB2, "scaling", 3, np.linspace(0.0, 1.0, _CHUNK + 5), -_LATE_INF)),
    ("values", lambda: level_coeffs(DB2, "wavelet", 2,
                                    np.array([0.5, np.nan]))),
    ("coefficients", lambda: evaluate_series(
        DB2, 2, np.array([0.0, np.inf, 0.0, 0.0]), _X)),
    ("ise", lambda: _overflowing_ise()),
)


@pytest.fixture
def no_draws(monkeypatch):
    """Fail any call that draws a replication."""
    def no_draw(*args):
        raise AssertionError("drew a replication")

    monkeypatch.setattr(oracle, "simulate_datasets", no_draw)


@pytest.mark.parametrize(
    "text, call", _REFUSED,
    ids=[f"{i}-{t.split(' must')[0].split(' field ')[-1].strip(chr(39))}"
         for i, (t, _) in enumerate(_REFUSED)])
def test_bad_basis_indices_and_coords_are_refused_by_name(text, call,
                                                         no_draws):
    # Replications are checked before the first one is drawn.
    with pytest.raises(ValueError, match=f"^{text} "):
        call()


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
        with pytest.raises(ValueError, match="coord must be an integer in"):
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


def test_mc_moments_refuses_few_reps_before_drawing(no_draws):
    with pytest.raises(ValueError,
                       match="reps must be an integer >= 1000, got 500"):
        mc_moments(IID, NOISY, DB2, "wavelet", 2, 0, 1, 4096, 500)


def test_moment_report_validation():
    kwargs = dict(kind="wavelet", level=2, shift=1, coord=1, n=256,
                  true_value=0.0, mean_hat=0.0)
    with pytest.raises(ValueError, match="reps"):
        MomentReport(reps=999, var_hat=1.0, m4_hat=3.0, **kwargs)
    with pytest.raises(ValueError, match="fourth moment"):
        MomentReport(reps=1000, var_hat=1.0, m4_hat=0.5, **kwargs)
    with pytest.raises(ValueError, match="negative"):
        MomentReport(reps=1000, var_hat=-1.0, m4_hat=3.0, **kwargs)
    # NaN fails the number rule, by its field's name.
    with pytest.raises(ValueError, match="^MomentReport field 'var_hat' must"):
        MomentReport(reps=1000, var_hat=math.nan, m4_hat=math.nan, **kwargs)
    with pytest.raises(ValueError, match="^MomentReport field 'var_hat' must"):
        MomentReport(reps=1000, var_hat=math.nan, m4_hat=3.0, **kwargs)
    with pytest.raises(ValueError, match="^MomentReport field 'm4_hat' must"):
        MomentReport(reps=1000, var_hat=1.0, m4_hat=math.nan, **kwargs)
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
    with pytest.raises(ValueError, match="coord must be an integer in 1..2"):
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
