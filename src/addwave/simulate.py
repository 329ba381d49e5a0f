"""Synthetic additive-regression data with dependent, uniform-marginal design.

Each design coordinate follows a stationary Gaussian AR(1) chain pushed
through the normal CDF, which yields exactly uniform marginals while the
chain's geometric memory makes the sequence strongly mixing.  Optional
cross-sectional dependence for two covariates applies the
Farlie-Gumbel-Morgenstern copula through its conditional inverse CDF, so
the time-t pair has the bilinear FGM density and the marginals stay
uniform.  Responses add centered test functions of each coordinate, an
optional constant, and bounded uniform noise.

Randomness is drawn from streams keyed as (seed, replication, channel), so
any replication can be regenerated independently, in any order, with
bit-identical output.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np
from scipy.signal import lfilter
from scipy.special import erf, ndtr

from .estimator import Dataset, DesignDensity, RhoSpec, identity_rho

_DESIGN_CHANNEL = 0
_NOISE_CHANNEL = 1

DATASET_FORMAT_VERSION = "1"


@dataclass(frozen=True)
class MixingProcessSpec:
    """Design-process parameters: dimension, AR memory, FGM dependence, seed."""

    dim: int
    ar_coeff: float = 0.0
    copula_theta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.dim <= 4:
            raise ValueError(f"dim must be in 1..4, got {self.dim}")
        if not 0.0 <= self.ar_coeff < 1.0:
            raise ValueError(f"ar_coeff must be in [0, 1), got {self.ar_coeff}")
        if abs(self.copula_theta) >= 1.0:
            raise ValueError(
                f"copula_theta must be in (-1, 1), got {self.copula_theta}")
        if self.copula_theta != 0.0 and self.dim != 2:
            raise ValueError("copula dependence is defined for dim == 2 only")


@dataclass(frozen=True, eq=False)
class TestFunction:
    """A named centered function on [0, 1] from the simulation catalog."""

    name: str
    fn: object
    sup_bound: float

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def samples(self, grid_size: int) -> np.ndarray:
        mids = (np.arange(grid_size) + 0.5) / grid_size
        return self(mids)


def _bump_center() -> float:
    # Integral over [0, 1] of exp(-(x - 1/2)^2 / (2 w^2)) with w = 0.1.
    w = 0.1
    return w * sqrt(2.0 * np.pi) * erf(0.5 / (w * sqrt(2.0)))


_STEP_DOWN = -1.1
_STEP_UP = 0.9
_STEP_AT = 0.45

_CATALOG = {
    "sine": lambda: TestFunction(
        "sine", lambda x: np.sin(2.0 * np.pi * x), 1.0),
    "bump": lambda: TestFunction(
        "bump",
        lambda x: np.exp(-(x - 0.5) ** 2 / 0.02) - _bump_center(),
        1.0 - _bump_center()),
    "step": lambda: TestFunction(
        "step",
        lambda x: np.where(x < _STEP_AT, _STEP_DOWN, _STEP_UP),
        abs(_STEP_DOWN)),
    "sawtooth": lambda: TestFunction(
        "sawtooth",
        lambda x: 2.0 * (2.0 * x - np.floor(2.0 * x)) - 1.0, 1.0),
    "zero": lambda: TestFunction(
        "zero", lambda x: np.zeros_like(x), 0.0),
}
_ALIASES = {"sawtooth-centered": "sawtooth"}


def test_function(name: str) -> TestFunction:
    """Look up a catalog function; each integrates to zero over [0, 1]."""
    key = _ALIASES.get(name, name)
    if key not in _CATALOG:
        known = ", ".join(sorted(_CATALOG))
        raise ValueError(f"unknown test function {name!r}; catalog: {known}")
    return _CATALOG[key]()


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """Response model: one catalog component per coordinate, offset, noise."""

    components: tuple[str, ...]
    offset: float = 0.0
    noise_halfwidth: float = 0.0

    def __post_init__(self):
        if not self.components:
            raise ValueError("at least one component is required")
        for name in self.components:
            test_function(name)
        if self.noise_halfwidth < 0:
            raise ValueError("noise_halfwidth must be >= 0")

    @property
    def dim(self) -> int:
        return len(self.components)

    def component(self, coord: int) -> TestFunction:
        if not 1 <= coord <= self.dim:
            raise ValueError(f"coord must be in 1..{self.dim}, got {coord}")
        return test_function(self.components[coord - 1])

    def response_bound(self) -> float:
        """Sup bound on the response magnitude."""
        return (abs(self.offset)
                + sum(test_function(c).sup_bound for c in self.components)
                + self.noise_halfwidth)

    def rho_spec(self) -> RhoSpec:
        return identity_rho()


@lru_cache(maxsize=16)
def uniform_density(dim: int) -> DesignDensity:
    return DesignDensity(
        dim=dim,
        evaluator=lambda pts: np.ones(np.asarray(pts).shape[0]),
        floor=1.0)


@lru_cache(maxsize=32)
def fgm_density(theta: float) -> DesignDensity:
    """Bilinear FGM copula density for two coordinates."""
    if abs(theta) >= 1.0:
        raise ValueError(f"theta must be in (-1, 1), got {theta}")

    def evaluator(pts):
        p = np.asarray(pts, dtype=float)
        return 1.0 + theta * (1.0 - 2.0 * p[:, 0]) * (1.0 - 2.0 * p[:, 1])

    return DesignDensity(
        dim=2,
        evaluator=evaluator,
        floor=1.0 - abs(theta))


def _latent_chains(rng, dim: int, n: int, ar_coeff: float) -> np.ndarray:
    eps = rng.standard_normal((dim, n))
    if ar_coeff == 0.0 or n == 1:
        return eps
    scale = sqrt(1.0 - ar_coeff * ar_coeff)
    start = eps[:, :1]
    rest, _ = lfilter([scale], [1.0, -ar_coeff], eps[:, 1:], axis=1,
                      zi=ar_coeff * start)
    return np.concatenate([start, rest], axis=1)


def _fgm_conditional(u1: np.ndarray, v: np.ndarray, theta: float) -> np.ndarray:
    # Inverse of the conditional CDF v = u2 (1 + A (1 - u2)), A = theta (1 - 2 u1),
    # written in the subtraction-free form.
    a = theta * (1.0 - 2.0 * u1)
    return 2.0 * v / (1.0 + a + np.sqrt((1.0 + a) ** 2 - 4.0 * a * v))


def gen_design(spec: MixingProcessSpec, n: int,
               rep: int = 0) -> tuple[np.ndarray, DesignDensity]:
    """Draw n design points; returns the points and their exact density."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng((spec.seed, rep, _DESIGN_CHANNEL))
    z = _latent_chains(rng, spec.dim, n, spec.ar_coeff)
    u = ndtr(z)
    if spec.copula_theta != 0.0:
        u[1] = _fgm_conditional(u[0], u[1], spec.copula_theta)
        density = fgm_density(spec.copula_theta)
    else:
        density = uniform_density(spec.dim)
    return u.T.copy(), density


def gen_responses(x: np.ndarray, scenario: ScenarioSpec, seed: int,
                  rep: int = 0) -> np.ndarray:
    """Responses for given design points under a scenario."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != scenario.dim:
        raise ValueError(
            f"design must be (n, {scenario.dim}), got {pts.shape}")
    y = np.full(pts.shape[0], float(scenario.offset))
    for coord in range(1, scenario.dim + 1):
        y += scenario.component(coord)(pts[:, coord - 1])
    if scenario.noise_halfwidth > 0:
        rng = np.random.default_rng((seed, rep, _NOISE_CHANNEL))
        y += rng.uniform(-scenario.noise_halfwidth, scenario.noise_halfwidth,
                         pts.shape[0])
    return y


def simulate_dataset(process: MixingProcessSpec, scenario: ScenarioSpec,
                     n: int, rep: int = 0) -> Dataset:
    """One replication of the full design-plus-response draw."""
    if scenario.dim != process.dim:
        raise ValueError(
            f"scenario has {scenario.dim} components, process dim is {process.dim}")
    x, density = gen_design(process, n, rep)
    y = gen_responses(x, scenario, process.seed, rep)
    return Dataset(y=y, x=x, density=density)


def scenario_from_config(cfg: dict) -> ScenarioSpec:
    """Build a scenario from declarative keys, naming any missing field."""
    if "components" not in cfg:
        raise ValueError("scenario config is missing field 'components'")
    components = cfg["components"]
    if (not isinstance(components, (list, tuple)) or not components
            or not all(isinstance(c, str) for c in components)):
        raise ValueError("scenario field 'components' must be a list of names")
    return ScenarioSpec(components=tuple(components),
                        offset=float(cfg.get("mu", 0.0)),
                        noise_halfwidth=float(cfg.get("noise_halfwidth", 0.0)))


def process_from_config(cfg: dict, dim: int, seed: int) -> MixingProcessSpec:
    return MixingProcessSpec(dim=dim,
                             ar_coeff=float(cfg.get("ar_coeff", 0.0)),
                             copula_theta=float(cfg.get("copula_theta", 0.0)),
                             seed=seed)


def _config_digest(meta: dict) -> str:
    return hashlib.sha256(
        json.dumps(meta, sort_keys=True).encode()).hexdigest()[:16]


def dataset_meta(process: MixingProcessSpec, scenario: ScenarioSpec,
                 n: int, rep: int) -> dict:
    meta = {
        "version": DATASET_FORMAT_VERSION,
        "n": n,
        "rep": rep,
        "process": {
            "dim": process.dim,
            "ar_coeff": process.ar_coeff,
            "copula_theta": process.copula_theta,
            "seed": process.seed,
        },
        "scenario": {
            "components": list(scenario.components),
            "mu": scenario.offset,
            "noise_halfwidth": scenario.noise_halfwidth,
        },
    }
    meta["spec_digest"] = _config_digest(meta)
    return meta


def write_dataset_csv(path, data: Dataset) -> None:
    """Rows i, y, x1..xd with full-precision decimal floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "y"] + [f"x{v + 1}" for v in range(data.dim)])
        for i in range(data.n):
            writer.writerow([i, repr(float(data.y[i]))]
                            + [repr(float(c)) for c in data.x[i]])


def write_dataset_json(path, data: Dataset, meta: dict) -> None:
    payload = dict(meta)
    payload["y"] = [float(v) for v in data.y]
    payload["x"] = [[float(c) for c in row] for row in data.x]
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def read_dataset_json(path) -> tuple[Dataset, dict]:
    """Load a serialized dataset; the metadata rebuilds the exact density."""
    with open(path) as fh:
        payload = json.load(fh)
    for field in ("process", "y", "x"):
        if field not in payload:
            raise ValueError(f"dataset file is missing field {field!r}")
    proc = payload["process"]
    theta = float(proc.get("copula_theta", 0.0))
    dim = int(proc["dim"])
    density = fgm_density(theta) if theta != 0.0 else uniform_density(dim)
    data = Dataset(y=np.asarray(payload["y"], dtype=float),
                   x=np.asarray(payload["x"], dtype=float),
                   density=density)
    meta = {k: payload[k] for k in payload if k not in ("y", "x")}
    return data, meta
