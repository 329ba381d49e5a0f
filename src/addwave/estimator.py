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

import numpy as np

from .wavelet import BasisTable, evaluate_series, weighted_level_sums

ESTIMATE_FORMAT_VERSION = "1"


@dataclass(frozen=True, eq=False)
class DesignDensity:
    """Known joint density of the design on the unit cube.

    The evaluator maps an (n, d) array of points to the n density values.
    ``floor`` is the declared lower bound; reciprocal weighting refuses
    to run if an observed value undercuts it.
    """

    dim: int
    evaluator: object
    floor: float

    def __post_init__(self):
        if self.floor <= 0:
            raise ValueError("density floor must be positive")
        if self.dim <= 3:
            side = {1: 4096, 2: 64, 3: 24}[self.dim]
            axes = np.meshgrid(*[(np.arange(side) + 0.5) / side] * self.dim,
                               indexing="ij")
            pts = np.column_stack([a.ravel() for a in axes])
            vals = self.evaluator(pts)
            total = float(np.mean(vals))
            if abs(total - 1.0) > 1e-3:
                raise ValueError(
                    f"density integrates to {total:.5f}, not 1")
            if float(np.min(vals)) < self.floor - 1e-9:
                raise ValueError("density dips below its declared floor")

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(np.asarray(pts, dtype=float)),
                          dtype=float)


@dataclass(frozen=True, eq=False)
class RhoSpec:
    """Response transform applied before weighting."""

    transform: object

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(self.transform(np.asarray(y, dtype=float)),
                          dtype=float)


def identity_rho() -> RhoSpec:
    """The transform that leaves responses as they are."""
    return RhoSpec(transform=lambda y: np.asarray(y, dtype=float))


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
        if not np.all(np.isfinite(y)):
            raise ValueError("responses must be finite")
        # Written so that a NaN fails it: min and max propagate NaN.
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
        if not 1 <= coord <= self.dim:
            raise ValueError(f"coord {coord} is out of range for a "
                             f"{self.dim}-dimensional design")
        return self.x[:, coord - 1]


@dataclass(frozen=True)
class EstimatorConfig:
    """Fit controls: target coordinate and threshold constant."""

    coord: int = 1
    threshold_const: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.threshold_const < math.inf:
            raise ValueError("threshold_const must be finite and >= 0")


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
        payload = json.loads(text)
        values, kept = [], []
        for entry in payload["levels"]:
            coeffs = sorted(entry["coeffs"], key=lambda c: c["k"])
            values.append(np.array([c["value"] for c in coeffs]))
            kept.append(np.array([bool(c["kept"]) for c in coeffs]))
        return ComponentEstimate(
            mu_hat=float(payload["mu_hat"]),
            tau=int(payload["tau"]),
            j1=int(payload["j1"]),
            lambda_n=float(payload["lambda_n"]),
            kappa=float(payload["kappa"]),
            a_hat=np.array([float(v) for v in payload["a_hat"]]),
            detail_values=values,
            detail_kept=kept,
        )


def threshold_scale(n: int) -> float:
    """The level sqrt(log(n) / n) that detail coefficients are held to."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return math.sqrt(math.log(n) / n)


def max_detail_level(n: int, coarsest: int) -> int:
    """Finest detail level: 2**j1 is the integer part of n / log(n)**3,
    never below the coarsest level."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if coarsest < 0:
        raise ValueError("coarsest must be >= 0")
    budget = int(n / math.log(n) ** 3)
    raw = int(math.log2(budget)) if budget >= 1 else 0
    return max(coarsest, raw)


def estimate_mean(data: Dataset, rho: RhoSpec) -> float:
    """Average of the transformed responses."""
    if data.n == 0:
        raise ValueError("empty dataset")
    vals = rho(data.y)
    if not np.all(np.isfinite(vals)):
        raise ValueError("transformed responses are not finite")
    return float(np.mean(vals))


def _weights(data: Dataset, rho: RhoSpec) -> np.ndarray:
    dens = data.density(data.x)
    if float(np.min(dens)) < data.density.floor - 1e-12:
        raise ValueError("design density evaluates below its declared floor")
    return rho(data.y) / dens


def empirical_coeff(data: Dataset, rho: RhoSpec, table: BasisTable, kind: str,
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


def fit_component(data: Dataset, rho: RhoSpec, table: BasisTable,
                  config: EstimatorConfig = EstimatorConfig()) -> ComponentEstimate:
    """Fit one additive component by thresholded wavelet series.

    Scaling coefficients at the family's coarsest level are kept as they
    are; detail coefficients up to the sample-size-driven finest level are
    zeroed unless their magnitude reaches ``threshold_const`` times
    sqrt(log(n)/n).  Ties at the threshold are kept.  The weights and the
    coordinate's column are computed once and shared by every level.
    """
    if data.n < 2:
        raise ValueError("need at least two observations")
    x = data.column(config.coord)
    n = data.n
    tau = table.family.coarsest_level
    j1 = max_detail_level(n, tau)
    lam = threshold_scale(n)
    mu_hat = estimate_mean(data, rho)
    w = _weights(data, rho)
    a_hat = weighted_level_sums(table, "scaling", tau, x, w) / n
    values, kept = [], []
    cut = config.threshold_const * lam
    for j in range(tau, j1 + 1):
        b = weighted_level_sums(table, "wavelet", j, x, w) / n
        values.append(b)
        kept.append(np.abs(b) >= cut)
    return ComponentEstimate(mu_hat=mu_hat, tau=tau, j1=j1, lambda_n=lam,
                             kappa=config.threshold_const, a_hat=a_hat,
                             detail_values=values, detail_kept=kept)


def eval_estimate(est: ComponentEstimate, table: BasisTable, x):
    """Evaluate the fitted component at points of [0, 1]."""
    details = [(j, est.detail_values[pos] * est.detail_kept[pos])
               for pos, j in enumerate(est.levels())]
    return evaluate_series(table, est.tau, est.a_hat, details, x,
                           offset=-est.mu_hat)


def ise(est: ComponentEstimate, table: BasisTable, truth, grid_size: int = 1024):
    """Integrated squared error against a truth given on the midpoint grid.

    ``truth`` may be a callable or an array of length ``grid_size``.
    """
    if grid_size < 1024:
        raise ValueError("grid_size must be >= 1024")
    mids = (np.arange(grid_size) + 0.5) / grid_size
    target = truth(mids) if callable(truth) else np.asarray(truth, dtype=float)
    if target.shape != mids.shape:
        raise ValueError("truth grid does not match grid_size")
    fitted = eval_estimate(est, table, mids)
    return float(np.mean((fitted - target) ** 2))
