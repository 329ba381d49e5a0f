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

The designs of a batch of replications are drawn into one array, and the
recursion, the normal CDF and the FGM step run in place on it
(``gen_designs``); one replication is a batch of one.  Scratch is one
allocation per call (3.0 MiB at most for the batches ``simulate_datasets``
draws, n up to 2^18, d = 1 to 4, ar 0.05 to 0.999); the responses are
made in chunks of ``_CHUNK`` points, so no temporary spans all n points.
``_ar1`` states the recursion's rounding and why its vectorised blocks
are exact; ``_ndtr``, a numpy port of Cephes' ``ndtr``, states why it
equals ``scipy.special.ndtr`` for every input, so the package needs no
scipy.

``MixingProcessSpec`` and ``ScenarioSpec`` check every field however they
are built, with a config's messages; the config and dataset readers only
map keys to fields, and add the config's 1e100 bound.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from itertools import chain
from math import sqrt

import numpy as np

from ._rules import (_check_count, _check_dim, _check_finite,
                     _check_number, _check_size, _check_span, _check_type,
                     _json_object, _shown, check_fields)
from .estimator import Dataset, DesignDensity, identity_rho
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

    _FIELD_RULES = (("seed", _check_count), ("dim", _check_dim),
                    ("ar_coeff", _check_number),
                    ("copula_theta", _check_number))

    def __post_init__(self):
        check_fields(self, "process", self._FIELD_RULES)
        if not 0.0 <= self.ar_coeff < 1.0:
            raise ValueError(f"process field 'ar_coeff' must be in [0, 1), "
                             f"got {self.ar_coeff}")
        if not abs(self.copula_theta) < 1.0:
            raise ValueError(f"process field 'copula_theta' must be in "
                             f"(-1, 1), got {self.copula_theta}")
        if self.copula_theta != 0.0 and self.dim != 2:
            raise ValueError(f"copula dependence (copula_theta "
                             f"{self.copula_theta}) is defined for dim == 2 "
                             f"only, got dim {self.dim}")

    @property
    def density(self) -> DesignDensity:
        """The design's exact density: the FGM copula's, or uniform."""
        if self.copula_theta:
            return fgm_density(self.copula_theta)
        return uniform_density(self.dim)


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


# Integral over [0, 1] of exp(-(x - 1/2)^2 / (2 w^2)) with w = 0.1.
_BUMP_CENTER = 0.1 * sqrt(2.0 * math.pi) * math.erf(0.5 / (0.1 * sqrt(2.0)))
_STEP_DOWN = -1.1
_STEP_UP = 0.9
_STEP_AT = 0.45

_CATALOG = {f.name: f for f in (
    TestFunction("sine", lambda x: np.sin(2.0 * np.pi * x), 1.0),
    TestFunction("bump",
                 lambda x: np.exp(-(x - 0.5) ** 2 / 0.02) - _BUMP_CENTER,
                 1.0 - _BUMP_CENTER),
    TestFunction("step",
                 lambda x: np.where(x < _STEP_AT, _STEP_DOWN, _STEP_UP),
                 abs(_STEP_DOWN)),
    TestFunction("sawtooth",
                 lambda x: 2.0 * (2.0 * x - np.floor(2.0 * x)) - 1.0, 1.0),
    TestFunction("zero", lambda x: np.zeros_like(x), 0.0))}


def test_function(name: str) -> TestFunction:
    """Look up a catalog function; each integrates to zero over [0, 1]."""
    if _check_type("name", name, str) not in _CATALOG:
        known = ", ".join(sorted(_CATALOG))
        raise ValueError(f"unknown test function {name!r}; catalog: {known}")
    return _CATALOG[name]


def _components(name: str, value) -> tuple:
    """A non-empty list of catalog names, as a tuple; the catalog is
    looked up after every other field of the scenario."""
    if (not isinstance(value, (list, tuple)) or not value
            or not all(isinstance(c, str) for c in value)):
        raise ValueError(f"{name} must be a list of names, "
                         f"got {_shown(value)}")
    return tuple(value)


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """Response model: one catalog component per coordinate, offset, noise."""

    components: tuple[str, ...]
    offset: float = 0.0
    noise_halfwidth: float = 0.0

    _FIELD_RULES = (("components", _components),
                    (("mu", "offset"), _check_number),
                    ("noise_halfwidth", partial(_check_number, low=0.0)))

    def __post_init__(self):
        check_fields(self, "scenario", self._FIELD_RULES)
        for name in self.components:
            test_function(name)

    @property
    def dim(self) -> int:
        return len(self.components)

    def component(self, coord: int) -> TestFunction:
        _check_span("coord", coord, 1, self.dim)
        return test_function(self.components[coord - 1])

    def response_bound(self) -> float:
        """Sup bound on the response magnitude."""
        return (abs(self.offset)
                + sum(test_function(c).sup_bound for c in self.components)
                + self.noise_halfwidth)

    def rho_spec(self):
        return identity_rho()


def uniform_density(dim: int) -> DesignDensity:
    # ``dim`` is checked before the cache hashes it.
    return _uniform_density(_check_dim("DesignDensity field 'dim'", dim))


@lru_cache(maxsize=16)
def _uniform_density(dim: int) -> DesignDensity:
    return DesignDensity(
        dim=dim,
        evaluator=lambda pts: np.ones(np.asarray(pts).shape[0]),
        floor=1.0)


@lru_cache(maxsize=32)
def fgm_density(theta: float) -> DesignDensity:
    """Bilinear FGM copula density for two coordinates."""
    if not abs(theta) < 1.0:
        raise ValueError(f"theta must be in (-1, 1), got {theta}")

    def evaluator(pts):
        # 1 + theta (1 - 2 u1) (1 - 2 u2), in that order, in two arrays.
        p = np.asarray(pts, dtype=float)
        a, b = np.multiply(p[:, 0], 2.0), np.multiply(p[:, 1], 2.0)
        np.multiply(np.subtract(1.0, a, out=a), theta, out=a)
        a *= np.subtract(1.0, b, out=b)
        return np.add(a, 1.0, out=a)

    return DesignDensity(dim=2, evaluator=evaluator, floor=1.0 - abs(theta))


def gen_designs(spec: MixingProcessSpec, n: int, rep_start: int,
                reps: int) -> np.ndarray:
    """The designs of replications ``rep_start`` to ``rep_start + reps -
    1``, drawn together as one ``(reps, d, n)`` array; a replication's
    design does not depend on its batch.

    Each replication's stream fills its ``d`` rows in order, as one ``(d,
    n)`` draw would, so ``designs[r].T`` is the column-major ``(n, d)``
    design of replication ``rep_start + r``, whose density is
    ``spec.density``.  The recursion runs in place along every row, the
    normal CDF once over the whole batch, and the FGM step in place on
    each replication's second row against its first.
    """
    _check_range(n, rep_start, reps)
    ar, theta = spec.ar_coeff, spec.copula_theta
    designs = np.empty((reps, spec.dim, n))
    for rep, x in enumerate(designs, rep_start):
        np.random.default_rng((spec.seed, rep, _DESIGN_CHANNEL)) \
            .standard_normal(out=x)
    chains = designs.reshape(-1, n)
    # Every pass of the recursion holds every chain, over as many columns
    # as fill one span; the first pass is the longest.
    cols = max(1, _SPAN // max(1, len(chains)))
    w, m = _pass_blocks(min(n - 1, cols), ar) if ar else (0, 0)
    values = designs.reshape(-1)
    chunk = min(values.size, _CHUNK) or 1
    # One allocation per call, shared by the recursion and then by the
    # scratch of the normal CDF and of the FGM step: separate buffers of
    # 128 KiB or more fault in again every call.
    work = np.empty(max(2 * len(chains) * m * (w + 1), _NDTR_ROWS * chunk))
    if ar:
        _ar1(chains, ar, cols, work)
    scratch = work[:_NDTR_ROWS * chunk].reshape(_NDTR_ROWS, chunk)
    _ndtr(values, values, scratch)
    if theta:
        # Whole replications at a time where n is short of a chunk.
        per, step = max(1, _CHUNK // n), min(n, _CHUNK)
        for r in range(0, reps, per):
            for a in range(0, n, step):
                v = designs[r:r + per, 1, a:a + step]
                _fgm_conditional(designs[r:r + per, 0, a:a + step], v,
                                 theta, scratch[:3], v)
    return designs


def _check_range(n: int, rep_start: int, reps: int) -> None:
    _check_size("n", n, 1)
    _check_count("rep_start", rep_start, 0)
    _check_count("reps", reps, 0)


# Cephes' ndtr.c coefficients, the sets scipy.special ships: erf(x) = x
# T(x^2) / U(x^2) for |x| < 1; erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x
# < 8 and exp(-x^2) R(x) / S(x) past 8, and 0 once x^2 > MAXLOG.  U, Q and
# S are monic (Cephes' p1evl): the leading 1 is not stored.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996732E2
_SQRT1_2 = sqrt(0.5)
# Rows of ``_ndtr``'s scratch: five of floats, and two that hold complex
# values.
_NDTR_ROWS = 7


def _horner(t, coefs, out, monic=False):
    """``coefs`` as a polynomial in ``t``, highest power first, by Horner's
    rule with one rounding per multiply and per add, into ``out``: Cephes'
    ``polevl``, or with ``monic`` its ``p1evl``, whose leading 1 is not
    stored."""
    if monic:
        np.add(t, coefs[0], out=out)
    else:
        np.multiply(t, coefs[0], out=out)
        np.add(out, coefs[1], out=out)
    for c in coefs[2 - monic:]:
        np.multiply(out, t, out=out)
        np.add(out, c, out=out)


def _ndtr(a: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """The standard normal CDF of the 1-D ``a`` into ``out``, which may be
    ``a`` itself or strided: bit for bit ``scipy.special.ndtr``, which runs
    Cephes' ``ndtr`` (Moshier's ``ndtr.c``).

    ``scratch`` is a C-ordered ``(_NDTR_ROWS, c)`` float array; the values
    go through it ``c`` at a time.  Cephes takes ``x = a sqrt(1/2)`` and
    returns ``0.5 + 0.5 erf(x)`` for |x| < sqrt(1/2), else ``0.5 erfc(|x|)``,
    reflected as ``1 - y`` for x > 0, with ``erfc = 1 - erf`` below 1.  On
    sqrt(1/2) <= |x| < 1, ``1 - |erf x|`` is exact (Sterbenz) and halving
    is exact, so the reflected form is the same double as ``0.5 + 0.5
    erf(x)``: every |x| < 1 takes that formula.  Only the values with |x|
    >= 1, about 16% of standard normal values, need erfc; each chunk's
    tail runs in that chunk, once its erf values are in ``out``.  No finite
    input raises a floating-point warning, and NaN gives NaN.
    """
    c = scratch.shape[1]
    for s in range(0, a.size, c):
        k = min(c, a.size - s)
        x, t, num, den = (row[:k] for row in scratch[:4])
        np.multiply(a[s:s + k], _SQRT1_2, out=x)
        # x^2 where |x| < 1, else 1: the erf branch never sees more.
        np.clip(x, -1.0, 1.0, out=t)
        np.square(t, out=t)
        tail = np.flatnonzero(t >= 1.0)
        _horner(t, _ERF_T, num)
        _horner(t, _ERF_U, den, monic=True)
        np.multiply(x, num, out=num)
        np.divide(num, den, out=num)
        np.multiply(num, 0.5, out=num)
        np.add(num, 0.5, out=out[s:s + k])
        if tail.size:
            xt = np.take(x, tail, out=scratch[4, :tail.size])
            _ndtr_tail(xt, np.add(tail, s, out=tail), out, scratch)


def _ndtr_tail(xt, at, out, scratch) -> None:
    """``0.5 erfc(|x|)``, reflected for x > 0, for the values ``xt`` of x,
    all with |x| >= 1, into ``out`` at the positions ``at``; overwrites
    ``xt`` and scratch rows 1 to 3, 5 and 6.

    ``exp(-x^2)`` is taken in complex128: numpy's float64 ``exp`` is its
    own SIMD kernel and differs from the C library's ``exp`` in the last
    bit on some arguments, but its complex ``exp`` of a value with a zero
    imaginary part has the C library's ``exp`` of the real part as its
    real part, which is what compiled Cephes computes.  Values with |x| >=
    8 (|a| > 11.3, never met in a standard normal draw) take Cephes' last
    branch in Python floats, whose ``math.exp`` is the C library's too.
    """
    k = xt.size
    w, p, q = (row[:k] for row in scratch[1:4])
    np.abs(xt, out=w)
    far = []
    if np.max(w) >= 8.0:
        far = np.flatnonzero(w >= 8.0).tolist()
        np.minimum(w, 8.0, out=w)
    _horner(w, _ERFC_P, p)
    _horner(w, _ERFC_Q, q, monic=True)
    e = scratch[5:7].reshape(-1).view(np.complex128)[:k]
    np.square(w, out=e.real)
    np.negative(e.real, out=e.real)
    e.imag = 0.0
    np.exp(e, out=e)
    np.multiply(e.real, p, out=p)
    np.divide(p, q, out=p)
    for i in far:
        p[i] = _erfc_far(abs(float(xt[i])))
    # y = 0.5 erfc, and 1 - y where x > 0: the step function of x (never 0
    # here) minus y signed as x, each value one rounding as Cephes has it.
    np.multiply(p, 0.5, out=p)
    np.copysign(p, xt, out=p)
    np.greater(xt, 0.0, out=xt)
    np.subtract(xt, p, out=p)
    out[at] = p


def _erfc_far(z: float) -> float:
    """Cephes' ``erfc(z)`` for ``z >= 8``, in Python floats."""
    if z * z > _MAXLOG:
        return 0.0
    p = _ERFC_R[0]
    for c in _ERFC_R[1:]:
        p = p * z + c
    q = z + _ERFC_S[0]
    for c in _ERFC_S[1:]:
        q = q * z + c
    return math.exp(-z * z) * p / q


# Values per pass of the recursion, whatever ar is: its two buffers, 1 MiB
# each, share the 2 MiB L2, and n = 2^16 with d = 2 is one pass.
_SPAN = 2 ** 17


def _block_steps(ar: float) -> int:
    """Block length ``W`` of the recursion: after ``W - 8`` steps two
    starts of the chain differ by at most ``2**-64`` of their gap, and the
    8 extra steps absorb rounding (W = 95 at ar = 0.6)."""
    return math.ceil(64.0 * math.log(2.0) / -math.log(ar)) + 8


def _pass_blocks(length: int, ar: float) -> tuple[int, int]:
    """Block length and blocks per row of a pass of ``length`` points:
    blocks of ``W`` points, the last one padded, or one block where
    ``length`` is at most ``2 * W``, since a second block's warm-up and
    own steps would cost ``2 * W`` vectorised steps."""
    w = _block_steps(ar)
    return (length, 1) if length <= 2 * w else (w, -(-length // w))


def _ar1(chains: np.ndarray, ar: float, cols: int,
         work: np.ndarray) -> None:
    """The AR(1) recursion along each row of ``chains``, ``(count, n)``, in
    place from index 1: ``y_0 = z_0`` is the value as drawn and ``y_i =
    fl(fl(ar * y_(i-1)) + fl(b * z_i))`` with ``b = sqrt(1 - ar**2)``, one
    rounding per multiply and per add.  That is ``scipy.signal.lfilter([b],
    [1, -ar])``'s own rounding for these taps: its transposed direct form
    adds ``fl(b * z_i)`` to a state ``0 * z_(i-1) - fl(-ar * y_(i-1))``,
    which is ``fl(ar * y_(i-1))`` exactly.

    It runs pass by pass, every chain and at most ``cols`` points of each
    at a time, each pass starting from the value before it in its row.  A
    pass of ``length`` points is copied into ``work`` as ``(count, m *
    w)``, padded with zeros (``_pass_blocks``), and vectorised across its
    ``count * m`` blocks (lanes).  ``steps`` holds the inputs lane-major,
    one row per step and one column per block, so every vectorised step is
    contiguous; the blocks' own steps overwrite their inputs with chain
    values.  A row's first block starts from the exact value.  Each later
    block first warms up: ``w`` steps from 0 over the block before it,
    whose start is then forgotten but for ``2**-64`` of the chain's size
    when ``w`` is ``W`` (``_block_steps``), so the warm-up almost always
    ends on that block's exact last value.  That is checked at every
    boundary: a block whose warm-up matches is exact by induction, since
    its own steps then repeat the sequential arithmetic, and one that does
    not is rerun by ``_repair``.  So every value equals the sequential
    recursion's, however the rows are split into passes.  ``work`` holds
    ``2 * count * m * (w + 1)`` floats for the first pass, the largest.

    A pass takes ``2 * W`` vectorised steps, or one per point where it has
    at most ``2 * W`` points, each two numpy calls: a cost per pass that
    grows like ``1 / (1 - ar)`` and outweighs the arithmetic, two
    multiplies and two adds a value, where a pass has few blocks.
    """
    count, n = chains.shape
    b = sqrt(1.0 - ar * ar)
    a = np.array(ar)
    for start in range(1, n, cols):
        length = min(n - start, cols)
        w, m = _pass_blocks(length, ar)
        lanes = count * m
        area = lanes * w
        chain = chains[:, start:start + length]
        z = work[:area].reshape(count, m * w)
        z[:, :length] = chain
        z[:, length:] = 0.0
        blocks = z.reshape(lanes, w)
        steps = work[area:2 * area].reshape(w, lanes)
        np.multiply(blocks.T, b, out=steps)
        last = work[2 * area:2 * area + lanes]
        tmp = work[2 * area + lanes:2 * (area + lanes)]
        warm = last[1:]
        if m > 1:
            warm[:] = 0.0
            for inputs in steps[:, :-1]:
                np.multiply(warm, a, out=warm)
                np.add(warm, inputs, out=warm)
        last[::m] = chains[:, start - 1]
        for inputs in steps:
            np.multiply(last, a, out=tmp)
            np.add(tmp, inputs, out=inputs)
            last = inputs
        if m > 1:
            # Block i's warm-up must end on block i - 1's last value; a
            # row's first block started from the exact value.
            failed = warm != steps[-1, :-1]
            failed[m - 1::m] = False
            if failed.any():
                _repair(steps, blocks, b, ar, m, np.flatnonzero(failed) + 1)
        np.copyto(blocks, steps.T)
        chain[...] = z[:, :length]


def _repair(steps: np.ndarray, blocks: np.ndarray, b: float, ar: float,
            m: int, failed: np.ndarray) -> None:
    """Rerun each failed block (lane) sequentially, in Python floats, from
    the exact value before it, until a value agrees with the stored one:
    the stored values after it came from it by the same arithmetic.  A
    rerun that changes a block's last value goes on into the next block of
    the row, whose warm-up was checked against the old value.  ``blocks``
    still holds the normals."""
    done = 0
    for lane in failed.tolist():
        if lane < done:
            continue
        y = float(steps[-1, lane - 1])
        while True:
            column = steps[:, lane]
            stored = column.tolist()
            for s, v in enumerate(np.multiply(blocks[lane], b).tolist()):
                y = ar * y + v
                if y == stored[s]:
                    break
                column[s] = y
            else:
                lane += 1
                if lane % m:
                    continue
            break
        done = lane + 1


def _fgm_conditional(u1, v, theta, buffers, out) -> None:
    """Inverse of the conditional CDF v = u2 (1 + A (1 - u2)), A = theta
    (1 - 2 u1), in the subtraction-free form ``2 v / (1 + A + sqrt((1 +
    A)**2 - 4 A v))``, evaluated in that order into ``out``; overwrites
    ``v`` and the heads of the three ``buffers``, taken in ``v``'s
    shape."""
    a, one_a, root = (b[:v.size].reshape(v.shape) for b in buffers)
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
    chunks of ``_CHUNK`` so that no temporary spans all of them.  The
    points must be finite, and ``seed`` and ``rep`` counts.
    """
    _check_count("seed", seed, 0)
    _check_count("rep", rep, 0)
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != scenario.dim:
        raise ValueError(
            f"design must be (n, {scenario.dim}), got {pts.shape}")
    _check_finite("design points", pts)
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
    """Replication ``rep`` of the design-plus-response draw, drawn alone."""
    return next(simulate_datasets(process, scenario, n, rep, 1))


def simulate_datasets(process: MixingProcessSpec, scenario: ScenarioSpec,
                      n: int, rep_start: int,
                      reps: int) -> Iterator[Dataset]:
    """Yield replications ``rep_start`` to ``rep_start + reps - 1`` in
    order; a replication does not depend on its batch.

    Designs are drawn by ``gen_designs`` in batches of as many
    replications as fill one pass of the recursion, so at small n its
    vectorised steps run across the blocks of every chain of a batch; each
    replication's design is its ``designs[r].T`` view, and every dataset
    shares the one ``process.density``.  The arguments are checked at the
    call, before the first replication is asked for.
    """
    if scenario.dim != process.dim:
        raise ValueError(f"scenario has {scenario.dim} components, "
                         f"process dim is {process.dim}")
    _check_range(n, rep_start, reps)
    batch = max(1, _SPAN // (process.dim * n))
    end = rep_start + reps
    density = process.density

    def datasets():
        for first in range(rep_start, end, batch):
            designs = gen_designs(process, n, first, min(batch, end - first))
            for rep, x in enumerate(designs, first):
                y = gen_responses(x.T, scenario, process.seed, rep)
                yield Dataset(y=y, x=x.T, density=density)

    return datasets()


# Largest |mu| and noise half-width a config may set: responses stay far
# enough from overflow that their squares, and squared errors, are finite.
# A spec may pass it: a calibration pilot's noise reaches about 3.5e100.
_RESPONSE_BOUND = 1e100
_SCENARIO_FIELDS = {"components": "components", "mu": "offset",
                    "noise_halfwidth": "noise_halfwidth"}
_PROCESS_KEYS = ("ar_coeff", "copula_theta")


def scenario_from_config(cfg: dict) -> ScenarioSpec:
    """Build a scenario from declarative keys, naming any missing or
    malformed field; ``ScenarioSpec`` checks the values."""
    if "components" not in _json_object("scenario", cfg,
                                        tuple(_SCENARIO_FIELDS)):
        raise ValueError("scenario config is missing field 'components'")
    scenario = ScenarioSpec(**{_SCENARIO_FIELDS[key]: value
                               for key, value in cfg.items()})
    for key in ("mu", "noise_halfwidth"):
        number = getattr(scenario, _SCENARIO_FIELDS[key])
        if abs(number) > _RESPONSE_BOUND:
            raise ValueError(f"scenario field {key!r} must be at most "
                             f"{_RESPONSE_BOUND:g} in magnitude, got {number}")
    return scenario


def process_from_config(cfg: dict, dim: int, seed: int) -> MixingProcessSpec:
    """Build a design process from declarative keys; the spec checks them."""
    return MixingProcessSpec(
        dim=dim, seed=seed,
        **_json_object("process", cfg, _PROCESS_KEYS))


def dataset_meta(process: MixingProcessSpec, scenario: ScenarioSpec,
                 n: int, rep: int) -> dict:
    """The file header: every process field, every scenario field under
    its config key (components as a JSON list), and their digest."""
    meta = {"version": DATASET_FORMAT_VERSION, "n": n, "rep": rep,
            "process": asdict(process),
            "scenario": {key: getattr(scenario, name)
                         for key, name in _SCENARIO_FIELDS.items()}}
    meta["scenario"]["components"] = list(scenario.components)
    meta["spec_digest"] = hashlib.sha256(
        json.dumps(meta, sort_keys=True).encode()).hexdigest()[:16]
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
    proc = _json_object("dataset field 'process'", payload["process"])
    if "scenario" in payload:
        _json_object("dataset field 'scenario'", payload["scenario"])
    if "dim" not in proc:
        raise ValueError("dataset field 'process' is missing 'dim'")
    # The block also records the seed the data came from.
    process = process_from_config(
        {k: v for k, v in proc.items() if k not in ("dim", "seed")},
        proc["dim"], seed=0)
    arrays = {}
    for field, form in (("y", "a list of numbers"),
                        ("x", "a list of equal-length rows of numbers")):
        try:
            value = np.asarray(payload[field])
        except ValueError:  # ragged rows
            value = np.array(None)
        # numpy reads a bool among numbers as one, so each entry's type is
        # looked at.
        entries = payload[field]
        for _ in range(value.ndim - 1):
            entries = chain.from_iterable(entries)
        if value.dtype.kind not in "iuf" or (value.ndim
                                             and bool in map(type, entries)):
            raise ValueError(f"dataset field {field!r} must be {form}")
        arrays[field] = value
    data = Dataset(**arrays, density=process.density)
    meta = {k: payload[k] for k in payload if k not in ("y", "x")}
    return data, meta
