"""Independent references for checking the estimator.

Closed-form Haar coefficients of three elementary shapes, high-resolution
quadrature values of what each empirical coefficient estimates, Monte
Carlo replication engines for moment and tail statistics, exponent
regression for rate studies, and a pilot-null calibration of the
threshold constant.  Everything here recomputes from first principles so
the estimator code is never checked against itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from ._rules import (_check_choice, _check_count, _check_number,
                     _check_span, _is_integer, check_fields)
from .estimator import _weights, max_detail_level, threshold_scale
from .simulate import MixingProcessSpec, ScenarioSpec, simulate_datasets
from .wavelet import (_KINDS, BasisTable, _check_index, _check_kind,
                      level_coeffs, weighted_level_sums)

DEFAULT_BUDGET = 1_000_000_000


class BudgetError(RuntimeError):
    """A replication request would exceed the compute budget."""


def _charge_budget(reps: int, n: int, budget: int, allow_over: bool) -> None:
    _check_count("reps", reps, 1)
    _check_count("n", n, 2)
    cost = reps * n
    if cost > budget and not allow_over:
        raise BudgetError(
            f"request costs {cost} observation-replications, "
            f"budget is {budget}; pass allow_over (allow_over_budget in a "
            "sweep config) to proceed anyway")


def reference_shape(name: str):
    """Callable for a shape with closed-form Haar coefficients."""
    if name == "linear":
        return lambda x: np.asarray(x, dtype=float)
    if name == "constant":
        return lambda x: np.ones_like(np.asarray(x, dtype=float))
    if name == "step@0.5":
        return lambda x: np.where(np.asarray(x, dtype=float) < 0.5, -1.0, 1.0)
    raise ValueError(
        f"unknown reference shape {name!r}; "
        "known: constant, linear, step@0.5")


def haar_closed_form(shape: str, kind: str, level: int, shift: int) -> float:
    """Exact Haar coefficient of a reference shape, by hand integration.

    Supports the identity map, the constant one, and the unit step down
    then up around 1/2.  Levels run 0..6; every Haar element at these
    levels sits inside [0, 1] so periodization changes nothing.
    """
    reference_shape(shape)
    _check_kind(kind)
    _check_index(level, shift)
    if level > 6:
        raise ValueError(f"level must be in 0..6, got {level}")
    if shape == "constant":
        return 2.0 ** (-level / 2.0) if kind == "scaling" else 0.0
    if shape == "linear":
        if kind == "scaling":
            return 2.0 ** (-1.5 * level) * (shift + 0.5)
        return -(2.0 ** (-1.5 * level)) / 4.0
    if kind == "wavelet":
        return -1.0 if level == 0 else 0.0
    if level == 0:
        return 0.0
    sign = -1.0 if shift < 2 ** (level - 1) else 1.0
    return sign * 2.0 ** (-level / 2.0)


def expected_coeff(table: BasisTable, scenario: ScenarioSpec, kind: str,
                   level: int, shift: int, coord: int) -> float:
    """What one empirical coefficient estimates, by direct quadrature.

    The density-weighted average converges to the integral of the
    conditional response mean against the basis element of the target
    coordinate, taken by the midpoint rule on 2**16 points.  Every other
    additive component integrates to zero against it, and the response
    offset contributes only through the scaling elements, whose integral
    is 2**(-level/2).
    """
    _check_index(level, shift)
    g = scenario.component(coord)
    value = float(level_coeffs(table, kind, level, g.samples(2 ** 16))[shift])
    if kind == "scaling":
        value += scenario.offset * 2.0 ** (-level / 2.0)
    return value


def replicate_coeffs(process: MixingProcessSpec, scenario: ScenarioSpec,
                     table: BasisTable, targets, n: int, reps: int,
                     rep_start: int = 0, budget: int = DEFAULT_BUDGET,
                     allow_over: bool = False) -> np.ndarray:
    """Empirical coefficients over independent replications.

    ``targets`` lists (kind, level, shift, coord) tuples; the result has
    one row per replication and one column per target.  Every target and
    the integers ``reps`` and ``n`` are checked before any draw.  Targets
    sharing a (kind, level, coord) triple are evaluated in one pass.
    """
    targets = list(targets)
    if not targets:
        raise ValueError("need at least one target")
    _charge_budget(reps, n, budget, allow_over)
    rho = scenario.rho_spec()
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for col, target in enumerate(targets):
        if not isinstance(target, (tuple, list)) or len(target) != 4:
            raise ValueError(f"target must be a (kind, level, shift, coord) "
                             f"tuple, got {target!r}")
        kind, level, shift, coord = target
        _check_kind(kind)
        _check_index(level, shift)
        _check_span("coord", coord, 1, process.dim)
        groups.setdefault((kind, level, coord), []).append((col, shift))
    out = np.empty((reps, len(targets)))
    datasets = simulate_datasets(process, scenario, n, rep_start, reps)
    for r, data in enumerate(datasets):
        w = _weights(data, rho)
        for (kind, level, coord), members in groups.items():
            sums = weighted_level_sums(
                table, kind, level, data.column(coord), w) / n
            for col, shift in members:
                out[r, col] = sums[shift]
    return out


@dataclass(frozen=True)
class MomentReport:
    """Replication moments of one empirical coefficient.

    ``var_hat`` and ``m4_hat`` are central moments with denominator
    ``reps``, which keeps m4_hat >= var_hat**2 an exact inequality.
    """

    kind: str
    level: int
    shift: int
    coord: int
    n: int
    reps: int
    true_value: float
    mean_hat: float
    var_hat: float
    m4_hat: float

    _FIELD_RULES = (("reps", partial(_check_count, low=1000)),
                    ("true_value", _check_number), ("mean_hat", _check_number),
                    ("var_hat", _check_number), ("m4_hat", _check_number),
                    ("kind", partial(_check_choice, choices=_KINDS)),
                    ("coord", partial(_check_count, low=1)),
                    ("n", partial(_check_count, low=2)))
    _CROSS_FIELDS = ("level", "shift")

    def __post_init__(self):
        check_fields(self, "MomentReport", self._FIELD_RULES)
        _check_index(self.level, self.shift)
        if self.var_hat < 0:
            raise ValueError(f"MomentReport field 'var_hat' must be a "
                             f"variance, not negative, got {self.var_hat}")
        if self.m4_hat < self.var_hat ** 2 - 1e-15:
            raise ValueError(f"MomentReport field 'm4_hat' must be a fourth "
                             f"moment, not below var_hat**2, got "
                             f"{self.m4_hat}")

    def std_error(self) -> float:
        return math.sqrt(self.var_hat / self.reps)

    def z_score(self) -> float:
        return (self.mean_hat - self.true_value) / self.std_error()


def mc_moments(process: MixingProcessSpec, scenario: ScenarioSpec,
               table: BasisTable, kind: str, level: int, shift: int,
               coord: int, n: int, reps: int,
               rep_start: int = 0) -> MomentReport:
    """Replication mean, variance, and fourth central moment of one
    empirical coefficient, with its quadrature reference value, over
    at least 1000 replications."""
    _check_count("reps", reps, 1000)
    vals = replicate_coeffs(process, scenario, table,
                            [(kind, level, shift, coord)], n, reps,
                            rep_start=rep_start)[:, 0]
    dev = vals - vals.mean()
    return MomentReport(
        kind=kind, level=level, shift=shift, coord=coord, n=n, reps=reps,
        true_value=expected_coeff(table, scenario, kind, level, shift, coord),
        mean_hat=float(vals.mean()),
        var_hat=float(np.mean(dev ** 2)),
        m4_hat=float(np.mean(dev ** 4)))


def tail_frequency(process: MixingProcessSpec, scenario: ScenarioSpec,
                   table: BasisTable, level: int, shift: int, coord: int,
                   kappa: float, n: int, reps: int) -> float:
    """Frequency of a detail coefficient missing its target by at least
    half the threshold.

    Requires a finite kappa >= 0, an integer n >= 2 and 2**level <=
    n / log(n)**3, the regime in which the detail level is eligible for
    the fit at this n.
    """
    # threshold_scale checks n before the level bound takes its log.
    cut = _check_number("kappa", kappa, low=0.0) * threshold_scale(n) / 2.0
    if 2 ** level > n / math.log(n) ** 3:
        raise ValueError(
            f"level {level} violates 2**level <= n/log(n)**3 at n={n}; "
            f"bound is {n / math.log(n) ** 3:.2f}")
    vals = replicate_coeffs(process, scenario, table,
                            [("wavelet", level, shift, coord)], n, reps)[:, 0]
    target = expected_coeff(table, scenario, "wavelet", level, shift, coord)
    return float(np.mean(np.abs(vals - target) >= cut))


@dataclass(frozen=True)
class RateFit:
    """Least-squares exponent of mean integrated squared error.

    ``slope`` is the fitted power of log(n)/n: values near 1 mean the
    error tracks the near-parametric schedule, smaller values mean a
    slower rate.
    """

    sample_sizes: tuple
    mean_ise: tuple
    slope: float
    intercept: float
    r_squared: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def rate_fit(points) -> RateFit:
    """Regress log mean ISE on log(log(n)/n).

    ``points`` is a sequence of (n, mean_ise) pairs with strictly
    increasing integer n spanning at least two octaves; at least four
    pairs.
    """
    pts = [(n, float(v)) for n, v in points]
    if not all(_is_integer(n) for n, _ in pts):
        raise ValueError(f"sample sizes must be integers, got {pts}")
    if len(pts) < 4:
        raise ValueError(f"need at least 4 points, got {len(pts)}")
    ns = np.array([p[0] for p in pts], dtype=float)
    vs = np.array([p[1] for p in pts], dtype=float)
    if np.any(np.diff(ns) <= 0):
        raise ValueError("sample sizes must be strictly increasing")
    if ns[-1] < 4 * ns[0]:
        raise ValueError(
            f"sample sizes span less than two octaves: {ns[0]:.0f}..{ns[-1]:.0f}")
    if not np.all((vs > 0) & np.isfinite(vs)):
        raise ValueError("mean ISE values must be finite and positive")
    xs = np.log(np.log(ns) / ns)
    ys = np.log(vs)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    total = ys - ys.mean()
    ss_tot = float(np.dot(total, total))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.dot(resid, resid)) / ss_tot
    return RateFit(sample_sizes=tuple(int(n) for n in ns),
                   mean_ise=tuple(float(v) for v in vs),
                   slope=float(slope), intercept=float(intercept),
                   r_squared=r2)


def calibrate_threshold(process: MixingProcessSpec, scenario: ScenarioSpec,
                        table: BasisTable, n: int, coord: int = 1,
                        reps: int = 2000, budget: int = DEFAULT_BUDGET,
                        allow_over: bool = False) -> float:
    """Threshold constant from a pilot simulation with no signal.

    The pilot keeps the design process but replaces the response with
    pure uniform noise whose halfwidth is sqrt(3) times the scenario's
    response bound, so each pilot coefficient fluctuates at least as much
    as any coefficient of the scenario itself can.  Its replications are
    numbered from 2**20 on, apart from those a sweep draws.  The constant
    is the 0.995 quantile of the pooled |coefficient| / threshold-scale
    values over every detail shift at the levels the fit would use.
    """
    pilot = ScenarioSpec(
        components=("zero",) * scenario.dim,
        noise_halfwidth=math.sqrt(3.0) * scenario.response_bound())
    tau = table.family.coarsest_level
    targets = [("wavelet", j, k, coord)
               for j in range(tau, max_detail_level(n, tau) + 1)
               for k in range(2 ** j)]
    vals = replicate_coeffs(process, pilot, table, targets, n, reps,
                            rep_start=1 << 20, budget=budget,
                            allow_over=allow_over)
    return float(np.quantile(np.abs(vals) / threshold_scale(n), 0.995))
