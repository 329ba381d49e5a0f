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

Design and responses are made in chunks of ``_CHUNK`` points and
written straight into the returned arrays; the design's working buffers
are allocated once per call, so no temporary spans all n points.  Each
coordinate's normals are still drawn in order, all of the first
coordinate's before the second's, and the AR(1) filter carries its state
from chunk to chunk, so every value is bit for bit the one a whole-array
draw gives.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np
from scipy.special import erf, ndtr

from .estimator import Dataset, DesignDensity, RhoSpec, identity_rho
from .wavelet import _CHUNK

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
        # 1 + theta (1 - 2 u1) (1 - 2 u2), in that order, in two arrays.
        p = np.asarray(pts, dtype=float)
        a, b = np.multiply(p[:, 0], 2.0), np.multiply(p[:, 1], 2.0)
        np.multiply(np.subtract(1.0, a, out=a), theta, out=a)
        a *= np.subtract(1.0, b, out=b)
        return np.add(a, 1.0, out=a)

    return DesignDensity(dim=2, evaluator=evaluator, floor=1.0 - abs(theta))


def gen_design(spec: MixingProcessSpec, n: int,
               rep: int = 0) -> tuple[np.ndarray, DesignDensity]:
    """Draw n design points; returns the points and their exact density.

    Coordinate by coordinate, the points are made in chunks of ``_CHUNK``
    through buffers allocated once per call and written straight into
    the returned ``(n, d)`` array: normals, the AR(1) recurrence carried
    from chunk to chunk in ``lfilter``'s state, the normal CDF and, for
    the second coordinate, the FGM step against the finished first.
    Every value equals the one a single ``(d, n)`` draw and one filter
    over whole rows would give, bit for bit.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng((spec.seed, rep, _DESIGN_CHANNEL))
    ar = spec.ar_coeff if n > 1 else 0.0
    theta = spec.copula_theta
    if ar:
        # Imported here: scipy.signal costs about a second to import, and
        # only the AR chain needs it.
        from scipy.signal import lfilter
        taps, poles = [sqrt(1.0 - ar * ar)], [1.0, -ar]
    x = np.empty((n, spec.dim))
    size = min(n, _CHUNK)
    chain = np.empty(size)
    fgm = [np.empty(size) for _ in range(3)] if theta else None
    for coord in range(spec.dim):
        state = None
        for start in range(0, n, _CHUNK):
            stop = min(n, start + _CHUNK)
            z, out = chain[:stop - start], x[start:stop, coord]
            rng.standard_normal(out=z)
            if ar:
                # The chain starts at its first normal, which the filter
                # state then carries: zi = ar * z_0 for the second value.
                first = int(state is None)
                if first:
                    state = ar * z[:1]
                z[first:], state = lfilter(taps, poles, z[first:], zi=state)
            if coord == 1 and theta:
                ndtr(z, out=z)
                _fgm_conditional(x[start:stop, 0], z, theta, fgm, out)
            else:
                ndtr(z, out=out)
    density = fgm_density(theta) if theta else uniform_density(spec.dim)
    return x, density


def _fgm_conditional(u1, v, theta, buffers, out) -> None:
    """Inverse of the conditional CDF v = u2 (1 + A (1 - u2)), A = theta
    (1 - 2 u1), in the subtraction-free form ``2 v / (1 + A + sqrt((1 +
    A)**2 - 4 A v))``, evaluated in that order into ``out``; overwrites
    ``v`` and the heads of the three ``buffers``."""
    a, one_a, root = (b[:v.size] for b in buffers)
    np.multiply(u1, 2.0, out=a)
    np.subtract(1.0, a, out=a)
    np.multiply(a, theta, out=a)
    np.add(a, 1.0, out=one_a)
    np.square(one_a, out=root)
    np.multiply(a, 4.0, out=a)
    np.multiply(a, v, out=a)
    np.subtract(root, a, out=root)
    np.sqrt(root, out=root)
    np.add(one_a, root, out=root)
    np.multiply(v, 2.0, out=v)
    np.divide(v, root, out=out)


def gen_responses(x: np.ndarray, scenario: ScenarioSpec, seed: int,
                  rep: int = 0) -> np.ndarray:
    """Responses for given design points under a scenario.

    Each point's response is the offset plus each coordinate's component
    plus its noise draw, added in that order; the points are taken in
    chunks of ``_CHUNK`` so that no temporary spans all of them.
    """
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != scenario.dim:
        raise ValueError(
            f"design must be (n, {scenario.dim}), got {pts.shape}")
    n = pts.shape[0]
    components = [scenario.component(c) for c in range(1, scenario.dim + 1)]
    half = scenario.noise_halfwidth
    rng = np.random.default_rng((seed, rep, _NOISE_CHANNEL)) if half > 0 \
        else None
    y = np.empty(n)
    for start in range(0, n, _CHUNK):
        block, chunk = y[start:start + _CHUNK], pts[start:start + _CHUNK]
        block.fill(scenario.offset)
        for coord, fn in enumerate(components):
            block += fn(chunk[:, coord])
        if rng is not None:
            block += rng.uniform(-half, half, block.size)
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


def _json_object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"field {field!r} must be a JSON object, "
                         f"got {json.dumps(value)[:40]}")
    return value


def scenario_from_config(cfg: dict) -> ScenarioSpec:
    """Build a scenario from declarative keys, naming any missing field."""
    if "components" not in _json_object(cfg, "scenario"):
        raise ValueError("scenario config is missing field 'components'")
    components = cfg["components"]
    if (not isinstance(components, (list, tuple)) or not components
            or not all(isinstance(c, str) for c in components)):
        raise ValueError("scenario field 'components' must be a list of names")
    return ScenarioSpec(components=tuple(components),
                        offset=float(cfg.get("mu", 0.0)),
                        noise_halfwidth=float(cfg.get("noise_halfwidth", 0.0)))


def process_from_config(cfg: dict, dim: int, seed: int) -> MixingProcessSpec:
    _json_object(cfg, "process")
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
    proc = _json_object(payload["process"], "process")
    if "dim" not in proc:
        raise ValueError("dataset field 'process' is missing 'dim'")
    theta = float(proc.get("copula_theta", 0.0))
    dim = int(proc["dim"])
    density = fgm_density(theta) if theta != 0.0 else uniform_density(dim)
    data = Dataset(y=np.asarray(payload["y"], dtype=float),
                   x=np.asarray(payload["x"], dtype=float),
                   density=density)
    meta = {k: payload[k] for k in payload if k not in ("y", "x")}
    return data, meta
