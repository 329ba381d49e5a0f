"""Additive-model component estimation on periodized wavelet dictionaries."""

from .estimator import (
    ComponentEstimate,
    Dataset,
    DesignDensity,
    EstimatorConfig,
    RhoSpec,
    empirical_coeff,
    estimate_mean,
    eval_estimate,
    fit_component,
    identity_rho,
    ise,
    max_detail_level,
    threshold_scale,
)
from .oracle import (
    BudgetError,
    MomentReport,
    RateFit,
    calibrate_threshold,
    expected_coeff,
    haar_closed_form,
    mc_moments,
    rate_fit,
    replicate_coeffs,
    tail_frequency,
)
from .simulate import (
    MixingProcessSpec,
    ScenarioSpec,
    TestFunction,
    fgm_density,
    gen_design,
    gen_responses,
    simulate_dataset,
    test_function,
    uniform_density,
)
from .tensor import (
    AdditiveFunction,
    TensorIndex,
    collapsed_sum,
    direction_coords,
    eval_tensor,
    marginal_project,
    tensor_coeff,
)
from .wavelet import (
    BasisTable,
    WaveletFamily,
    basis_diagnostics,
    cascade_table,
    eval_periodized,
    evaluate_series,
    level_coeffs,
    make_family,
    weighted_level_sums,
)

__version__ = "0.1.0"
