"""Hard-thresholded wavelet estimator for one additive component.

Given observations of a response whose conditional mean is an additive
function of the covariates, the estimator recovers one centered component.
Every empirical coefficient is an average of response transforms weighted
by the reciprocal of the known design density and a periodized basis
element of the component's coordinate; under periodization the sums of the
tensor dictionary over the other coordinates collapse to exactly this
one-dimensional form.  Detail coefficients enter the reconstruction only
when their magnitude reaches a threshold proportional to
sqrt(log(n) / n), which adapts the fit to the unknown smoothness; the
estimated response mean is subtracted to center the result.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._rules import (_check_callable, _check_count, _check_dim,
                     _check_number, _check_size, _check_span, _check_type,
                     _json_object, check_fields)
from .wavelet import (_CHUNK, _MAX_LEVEL, BasisTable, _analysis_step,
                      _synthesis_step, evaluate_series, weighted_level_sums)

ESTIMATE_FORMAT_VERSION = "1"
# The largest response magnitude a dataset may hold: sums and squares of
# responses stay finite past it, and a calibration pilot's noise reaches
# about 3.5e100.
_MAX_RESPONSE = 1e120
# The smallest density floor: a weight, a response over the density, is
# then at most 1e220 in magnitude, and the sums over it stay finite.
_MIN_FLOOR = 1e-100


@dataclass(frozen=True, eq=False)
class DesignDensity:
    """Known joint density of the design on the unit cube.

    The evaluator maps an (n, d) array of points to the n density values.
    ``floor`` is the declared lower bound, at least ``_MIN_FLOOR``;
    reciprocal weighting refuses to run if an observed value undercuts it
    by more than a relative 1e-12.
    """

    dim: int
    evaluator: object
    floor: float

    _FIELD_RULES = (("floor", partial(_check_number, low=_MIN_FLOOR)),
                    ("dim", _check_dim), ("evaluator", _check_callable))

    def __post_init__(self):
        check_fields(self, "DesignDensity", self._FIELD_RULES)
        # One midpoint grid of 4096 points: a side of 4096, 64, 16 or 8.
        side = round(4096 ** (1 / self.dim))
        axes = np.meshgrid(*[(np.arange(side) + 0.5) / side] * self.dim,
                           indexing="ij")
        vals = self.evaluator(np.column_stack([a.ravel() for a in axes]))
        total = float(np.mean(vals))
        if not abs(total - 1.0) <= 1e-3:
            raise ValueError(
                f"density evaluator integrates to {total:.5f}, not 1")
        if not float(np.min(vals)) >= self.floor - 1e-9:
            raise ValueError("density evaluator dips below its declared floor")

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(np.asarray(pts, dtype=float)),
                          dtype=float)


def identity_rho():
    """The response transform that returns the responses as floats."""
    return partial(np.asarray, dtype=float)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observed responses and design points with the known design density."""

    y: np.ndarray
    x: np.ndarray
    density: DesignDensity

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 2 or y.ndim != 1 or y.size != x.shape[0]:
            raise ValueError(
                f"need y of shape (n,) and x of shape (n, d), got {y.shape} and {x.shape}")
        if x.shape[1] != self.density.dim:
            raise ValueError(
                f"design has {x.shape[1]} coordinates, density expects {self.density.dim}")
        # Each written so that a NaN fails it: min and max propagate NaN.
        if y.size and not (y.min() >= -_MAX_RESPONSE
                           and y.max() <= _MAX_RESPONSE):
            raise ValueError(f"responses must be finite and at most "
                             f"{_MAX_RESPONSE:g} in magnitude")
        if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):
            raise ValueError(
                "design points must be finite and lie in the unit cube")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def column(self, coord: int) -> np.ndarray:
        """Design values of the 1-based coordinate ``coord``."""
        _check_span("coord", coord, 1, self.dim)
        return self.x[:, coord - 1]


@dataclass(frozen=True)
class EstimatorConfig:
    """Fit controls: target coordinate and threshold constant."""

    coord: int = 1
    threshold_const: float = 1.0

    _FIELD_RULES = (("coord", partial(_check_count, low=1)),
                    ("threshold_const", partial(_check_number, low=0.0)))

    def __post_init__(self):
        check_fields(self, "EstimatorConfig", self._FIELD_RULES)


def _numbers(name: str, value) -> np.ndarray:
    """A JSON list of numbers, each by the number rule, as an array."""
    return np.array([_check_number(name, v)
                     for v in _check_type(name, value, list)])


@dataclass(frozen=True, eq=False)
class ComponentEstimate:
    """Fitted coefficients of one component.

    ``a_hat`` holds the scaling-level coefficients at level ``tau``;
    ``detail_values`` and ``detail_kept`` hold, per level ``tau..j1``, the
    raw detail coefficients and the flags marking which ones survived the
    threshold ``kappa * lambda_n``.
    """

    mu_hat: float
    tau: int
    j1: int
    lambda_n: float
    kappa: float
    a_hat: np.ndarray
    detail_values: list = field(default_factory=list)
    detail_kept: list = field(default_factory=list)

    # The fields ``from_json`` reads after ``levels``, which holds the
    # detail values and flags.
    _FIELD_RULES = (("mu_hat", _check_number), ("tau", _check_count),
                    ("j1", _check_count), ("lambda_n", _check_number),
                    ("kappa", _check_number), ("a_hat", _numbers))
    _CROSS_FIELDS = ("detail_values", "detail_kept")

    def levels(self) -> range:
        return range(self.tau, self.j1 + 1)

    def kept_count(self) -> int:
        return int(sum(int(k.sum()) for k in self.detail_kept))

    def to_json(self) -> str:
        levels = []
        for pos, j in enumerate(self.levels()):
            coeffs = [{"k": int(k), "value": float(v), "kept": bool(flag)}
                      for k, (v, flag) in enumerate(
                          zip(self.detail_values[pos], self.detail_kept[pos]))]
            levels.append({"j": int(j), "coeffs": coeffs})
        payload = {
            "version": ESTIMATE_FORMAT_VERSION,
            "mu_hat": float(self.mu_hat),
            "tau": int(self.tau),
            "j1": int(self.j1),
            "lambda_n": float(self.lambda_n),
            "kappa": float(self.kappa),
            "a_hat": [float(v) for v in self.a_hat],
            "levels": levels,
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ComponentEstimate":
        """The estimate ``to_json`` wrote; JSON that is not an object, a
        missing or mistyped field, and a field whose length or index does
        not match ``tau`` and ``j1``, raise ``ValueError`` naming it."""
        payload = _json_object("estimate", json.loads(text))
        values, kept, levels = [], [], []
        for entry in _estimate_field(payload, "levels", _LIST):
            entry = _json_object("estimate field 'levels entry'", entry)
            coeffs = [_json_object("estimate field 'coeffs entry'", c)
                      for c in _estimate_field(entry, "coeffs", _LIST)]
            coeffs.sort(key=lambda c: _estimate_field(c, "k", _check_count))
            values.append(np.array([_estimate_field(c, "value", _check_number)
                                    for c in coeffs]))
            kept.append(np.array([_estimate_field(c, "kept", _BOOL)
                                  for c in coeffs]))
            levels.append((_estimate_field(entry, "j", _check_count),
                           [c["k"] for c in coeffs]))
        estimate = ComponentEstimate(
            detail_values=values, detail_kept=kept,
            **{key: _estimate_field(payload, key, rule)
               for key, rule in ComponentEstimate._FIELD_RULES})
        tau, size = estimate.tau, estimate.a_hat.size
        if tau > _MAX_LEVEL or size != 2 ** tau:
            raise ValueError(f"estimate field 'a_hat' must hold 2**tau "
                             f"values at tau {tau}, got {size}")
        if len(levels) != estimate.j1 - tau + 1:
            raise ValueError(f"estimate field 'levels' must hold j1 - tau + "
                             f"1 = {estimate.j1 - tau + 1} levels, got "
                             f"{len(levels)}")
        for j, (level, ks) in enumerate(levels, start=tau):
            if level != j:
                raise ValueError(f"estimate field 'j' must be {j} at levels "
                                 f"entry {j - tau}, got {level}")
            if len(ks) != 2 ** j or ks != list(range(len(ks))):
                raise ValueError(f"estimate field 'k' must run over "
                                 f"0..{2 ** j - 1} once each at level {j}")
        return estimate


_LIST = partial(_check_type, kind=list)
_BOOL = partial(_check_type, kind=bool)


def _estimate_field(obj: dict, key: str, rule):
    """``obj[key]`` of an estimate's JSON as ``rule`` stores it, or a
    ``ValueError`` naming ``key`` if it is missing."""
    if key not in obj:
        raise ValueError(f"estimate JSON lacks the field {key!r}")
    return rule(f"estimate field {key!r}", obj[key])


def threshold_scale(n: int) -> float:
    """The level sqrt(log(n) / n) that detail coefficients are held to."""
    _check_size("n", n)
    return math.sqrt(math.log(n) / n)


def max_detail_level(n: int, coarsest: int) -> int:
    """Finest detail level: 2**j1 is the integer part of n / log(n)**3,
    never below the coarsest level."""
    _check_size("n", n)
    _check_count("coarsest", coarsest, 0)
    budget = int(n / math.log(n) ** 3)
    raw = int(math.log2(budget)) if budget >= 1 else 0
    return max(coarsest, raw)


def estimate_mean(data: Dataset, rho) -> float:
    """Average of the transformed responses."""
    _check_callable("rho", rho)
    if data.n == 0:
        raise ValueError("empty dataset")
    vals = rho(data.y)
    if not np.all(np.isfinite(vals)):
        raise ValueError("transformed responses are not finite")
    return float(np.mean(vals))


def _weights(data: Dataset, rho) -> np.ndarray:
    """``rho(y) / density(x)``, with the density evaluated ``_CHUNK``
    points at a time so that the result is the one array of length n."""
    vals = _check_callable("rho", rho)(data.y)
    w = np.empty(data.n)
    for start in range(0, data.n, _CHUNK):
        stop = start + _CHUNK
        dens = data.density(data.x[start:stop])
        if not float(np.min(dens)) >= data.density.floor * (1 - 1e-12):
            raise ValueError(
                "design density evaluates below its declared floor")
        np.divide(vals[start:stop], dens, out=w[start:stop])
    return w


def empirical_coeff(data: Dataset, rho, table: BasisTable, kind: str,
                    level: int, shift: int, coord: int,
                    literal: bool = False) -> float:
    """One empirical coefficient of the target component.

    The estimator averages the density-weighted response transform against
    the off-coordinate sum of tensor elements, normalized by
    2**(-level (d-1)/2).  With the collapsed form this is exactly the
    average against the one-dimensional element at the target coordinate;
    ``literal=True`` runs the explicit tensor sum instead.
    """
    w = _weights(data, rho)
    from .tensor import collapsed_sum
    h = collapsed_sum(table, kind, level, shift, coord, data.x, literal=literal)
    return float(np.mean(w * h) * 2.0 ** (-level * (data.dim - 1) / 2.0))


def fit_component(data: Dataset, rho, table: BasisTable,
                  config: EstimatorConfig = EstimatorConfig()) -> ComponentEstimate:
    """Fit one additive component by thresholded wavelet series.

    Scaling coefficients at the family's coarsest level are kept as they
    are; detail coefficients up to the sample-size-driven finest level are
    zeroed unless their magnitude reaches ``threshold_const`` times
    sqrt(log(n)/n).  Ties at the threshold are kept.  The points are
    scattered once, into the scaling sums of level ``j1 + 1``; every
    coefficient of levels ``tau..j1`` follows from those by the periodic
    filter bank.
    """
    _check_type("config", config, EstimatorConfig)
    if data.n < 2:
        raise ValueError("need at least two observations")
    x = data.column(config.coord)
    n = data.n
    tau = table.family.coarsest_level
    j1 = max_detail_level(n, tau)
    lam = threshold_scale(n)
    mu_hat = estimate_mean(data, rho)
    w = _weights(data, rho)
    smooth = weighted_level_sums(table, "scaling", j1 + 1, x, w) / n
    values = []
    for _ in range(tau, j1 + 1):
        smooth, detail = _analysis_step(table.family, smooth)
        values.append(detail)
    values.reverse()
    cut = config.threshold_const * lam
    return ComponentEstimate(mu_hat=mu_hat, tau=tau, j1=j1, lambda_n=lam,
                             kappa=config.threshold_const, a_hat=smooth,
                             detail_values=values,
                             detail_kept=[np.abs(b) >= cut for b in values])


def eval_estimate(est: ComponentEstimate, table: BasisTable, x):
    """Evaluate the fitted component at points of [0, 1].

    The inverse filter bank carries the scaling and kept detail
    coefficients up to the scaling coefficients of level ``j1 + 1``, and
    ``evaluate_series`` gathers that one level at the points.
    """
    smooth = est.a_hat
    for b, kept in zip(est.detail_values, est.detail_kept):
        smooth = _synthesis_step(table.family, smooth, b * kept)
    return evaluate_series(table, est.j1 + 1, smooth, x, offset=-est.mu_hat)


def ise(est: ComponentEstimate, table: BasisTable, truth, grid_size: int = 1024):
    """Integrated squared error against a truth given on the midpoint grid.

    ``truth`` may be a callable or an array of length ``grid_size``, an
    integer of at least 1024.  A fit the package admits reaches about
    1e220 where responses near 1e120 meet a density near its least floor,
    and its squared error then overflows: an ISE that is not finite
    raises ``ValueError``.
    """
    _check_count("grid_size", grid_size, 1024)
    mids = (np.arange(grid_size) + 0.5) / grid_size
    target = truth(mids) if callable(truth) else np.asarray(truth, dtype=float)
    if target.shape != mids.shape:
        raise ValueError("truth grid does not match grid_size")
    fitted = eval_estimate(est, table, mids)
    with np.errstate(over="ignore"):
        err = float(np.mean((fitted - target) ** 2))
    if not math.isfinite(err):
        raise ValueError(f"ise must be finite, got {err}: the squared errors "
                         f"overflow, or the truth is not finite")
    return err
