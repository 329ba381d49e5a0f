"""Daubechies wavelet bases periodized to the unit interval.

The scaling function of the family with ``R`` vanishing moments is tabulated
exactly on a dyadic grid: its values at the integers come from the eigenvector
of the refinement transition matrix, and each halving of the grid step applies
the two-scale relation once.  The mother wavelet follows from the
quadrature-mirror filter.  Basis elements on [0, 1] wrap integer translates
around the circle, which keeps every level ``j >= 0`` available and makes the
translates at each level an orthonormal set.

The same two-scale relation links coefficients across levels (Mallat's
pyramid): ``phi_{j,k} = sum_l h[l] phi_{j+1,2k+l}`` and ``psi_{j,k} = sum_l
g[l] phi_{j+1,2k+l}``, shifts taken mod ``2**(j+1)``.  ``_analysis_step``
maps the scaling coefficients of level ``j+1`` to the scaling and detail
coefficients of level ``j``; ``_synthesis_step`` is its transpose and, the
periodic filter bank being orthogonal, its inverse.

Every periodic shift in this module is one read, ``a.take(np.arange(start,
start + a.size, step), mode="wrap")``: entry ``i`` is ``a[(start + i *
step) mod a.size]``.  Wrap mode takes any integer, so a negative start,
or a support offset past ``2**level`` at levels 0 to 2, needs no special
case.  The scatter's fold, both filter-bank steps and the gather's
shifted coefficients all read this way.

Evaluation between grid nodes interpolates linearly.  The two-tap family's
samples form a step function, which ``_sample`` looks up piecewise
constantly and the stencil reads from pairs that repeat each sample, so
its jumps stay exact.

Analysis (``weighted_level_sums``, a scatter onto the shifts) and synthesis
(``evaluate_series``, a gather of one scaling level at the points; a
series of several levels is first carried to one by ``_synthesis_step``)
share one stencil, ``_stencil``.  It walks the points in chunks of
``_CHUNK`` through seven buffers, views of one allocation per call
refilled with ufunc ``out=``, so the cost per point does not grow once
the points outrun the L2 cache.  Each point's table position is one
integer, ``floor(x * 2**(level + depth))``, whose high bits are its cell
and low bits its node; it is found once and read at every support
offset, which interpolates at the exact argument.  At each offset one
unchecked gather from a table of neighbouring sample pairs reads both
ends of the interpolation.  The scatter keeps one row per offset and
adds each chunk into it point by point, so every shift sums its points
in the order one ``bincount`` over all of them would; each row is then
read from its offset on, with wrap-around, and added into the shifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import ceil, comb, log2

import numpy as np

from ._rules import _check_choice, _check_finite, _check_span, _check_type

SQRT2 = float(np.sqrt(2.0))

_MIN_DEPTH = 6
_MAX_DEPTH = 16
# The index rule's finest level: DB2's scatter rows there take 384 MiB,
# and a fit of up to 2**32 points scatters at level 19 at most.
_MAX_LEVEL = 24
# Points per pass of the stencil, the simulator and the density weights.
# Their buffers of this length (six 8-byte ones and one 16-byte one for
# the stencil plus one that synthesis gathers into, 1.125 MiB; three for
# the design's FGM step, 384 KiB) stay inside a 2 MiB L2, with the 64 KiB of
# pairs one support offset of the DB2 depth-12 table reads (1 MiB at depth
# 16: past L2, yet no slower at R = 10 than two checked gathers of the
# samples).  On one core with a 2 MiB L2, 2**14 beat 2**13 and 2**15 for
# analysis plus synthesis at n = 2**20 and for simulation at n = 2**16.
_CHUNK = 2 ** 14

_KINDS = ("scaling", "wavelet")


@dataclass(frozen=True, eq=False)
class WaveletFamily:
    """Compactly supported orthonormal family identified by its filter."""

    vanishing_moments: int
    low_pass: np.ndarray

    @property
    def support_length(self) -> int:
        """Length of the support of the scaling function and wavelet."""
        return len(self.low_pass) - 1

    @property
    def high_pass(self) -> np.ndarray:
        """Quadrature-mirror filter ``g[l] = (-1)**l h[L - 1 - l]``."""
        taps = self.low_pass
        return taps[::-1] * (-1.0) ** np.arange(taps.size)

    @property
    def coarsest_level(self) -> int:
        """Smallest level whose period covers one support length."""
        return max(1, ceil(log2(len(self.low_pass))))


@dataclass(frozen=True, eq=False)
class BasisTable:
    """Dyadic-grid samples of one family's scaling function and wavelet.

    Attributes
    ----------
    family : WaveletFamily
    depth : int
        Grid step is ``2**-depth``; samples sit at the nodes
        ``i * 2**-depth`` for ``i = 0 .. support_length * 2**depth``.
    phi_samples, psi_samples : ndarray
        Values of the scaling function and wavelet on that grid.
    phi_pairs, psi_pairs : ndarray
        Each node's sample and its right neighbour's (the node's own for
        the two-tap family), as one complex number, for every node but
        the last; built on first use, for the stencil's interpolation.
    """

    family: WaveletFamily
    depth: int
    phi_samples: np.ndarray
    psi_samples: np.ndarray

    @cached_property
    def phi_pairs(self) -> np.ndarray:
        return _pair_table(self.family, self.phi_samples)

    @cached_property
    def psi_pairs(self) -> np.ndarray:
        return _pair_table(self.family, self.psi_samples)


def _pair_table(family: WaveletFamily, samples: np.ndarray) -> np.ndarray:
    """``samples[i] + 1j * samples[i + 1]`` for each node ``i`` but the
    last, so one gather reads a node and its right neighbour; for the
    two-tap family ``samples[i]`` twice, whose interpolation ``(1 - t) * s
    + t * s`` is exactly ``s``, as its samples are -1, 0 and 1."""
    right = samples[:-1] if family.vanishing_moments == 1 else samples[1:]
    return np.stack([samples[:-1], right], axis=1).view(np.complex128).ravel()


def make_family(vanishing_moments: int) -> WaveletFamily:
    """Build the Daubechies filter with the requested vanishing moments.

    The filter is computed by spectral factorization of the half-band
    polynomial in ``y = sin^2(w/2)``; the root selection keeps the
    minimum-phase branch, which reproduces the standard published
    coefficients.  Every filter is orthonormal to a few 1e-15.
    """
    r = _check_family("vanishing_moments", vanishing_moments)
    taps = _daubechies_taps(r)
    # sum_l h[l] h[l + 2s] for s = 0, 1, ...: one at s = 0, else zero.
    shifted = np.correlate(taps, taps, "full")[taps.size - 1::2]
    shifted[0] -= 1.0
    if abs(taps.sum() - SQRT2) > 1e-13 or np.max(np.abs(shifted)) > 1e-13:
        raise RuntimeError("filter construction failed its defining identities")
    return WaveletFamily(vanishing_moments=r, low_pass=taps)


def _check_family(name: str, value) -> int:
    """The family rule: vanishing moments in 1..10."""
    return _check_span(name, value, 1, 10)


def _daubechies_taps(r: int) -> np.ndarray:
    if r == 1:
        return np.array([1.0, 1.0]) / SQRT2
    # Roots of P(y) = sum_k C(r-1+k, k) y**k, y = sin^2(w/2) (Daubechies,
    # Ten Lectures, 6.1).  P is positive on [0, 1], the image of the unit
    # circle, so each root gives one z strictly inside it with
    # z + 1/z = 2 - 4y.
    ys = np.roots([comb(r - 1 + k, k) for k in reversed(range(r))])
    c = 1.0 - 2.0 * ys
    z = c - np.sqrt(c * c - 1.0 + 0j)
    z = np.where(np.abs(z) >= 1.0, 1.0 / z, z)
    spectral = np.poly(z).real[::-1]
    binomial = np.array([comb(r, k) for k in range(r + 1)]) / 2.0 ** r
    taps = np.convolve(binomial, spectral)
    taps *= SQRT2 / taps.sum()
    if abs(taps[0]) < abs(taps[-1]):
        taps = taps[::-1].copy()
    return taps


def cascade_table(family: WaveletFamily, depth: int = 12) -> BasisTable:
    """Tabulate the scaling function and wavelet at grid step ``2**-depth``."""
    _check_type("family", family, WaveletFamily)
    _check_depth("depth", depth)
    phi = _scaling_samples(family.low_pass, depth)
    psi = _two_scale(family.high_pass, phi, 2 * np.arange(phi.size),
                     2 ** depth)
    table = BasisTable(family=family, depth=depth, phi_samples=phi, psi_samples=psi)
    error, tol = _normalization(table)
    zero = _support_integral(table, "wavelet", 0)
    if error > tol or abs(zero) > tol:
        raise RuntimeError(
            "cascade iteration produced an inconsistent table: "
            f"normalization error {error:.3e}, wavelet integral {zero:.3e}, "
            f"tolerance {tol:.3e}")
    return table


def _check_depth(name: str, value) -> int:
    """The depth rule: a table depth in 6..16."""
    return _check_span(name, value, _MIN_DEPTH, _MAX_DEPTH)


def _scaling_samples(taps: np.ndarray, depth: int) -> np.ndarray:
    sup = len(taps) - 1
    if sup == 1:
        # Indicator of [0, 1); the right endpoint sample is zero.
        v = np.ones(2 ** depth + 1)
        v[-1] = 0.0
        return v
    # Values at the integers: eigenvector of T[m, l] = sqrt(2) h[2m - l]
    # for interior integers m, l in 1..sup-1 (endpoint values vanish).
    size = sup - 1
    transition = np.zeros((size, size))
    for m in range(1, sup):
        for l in range(1, sup):
            idx = 2 * m - l
            if 0 <= idx <= sup:
                transition[m - 1, l - 1] = SQRT2 * taps[idx]
    eigvals, eigvecs = np.linalg.eig(transition)
    pick = int(np.argmin(np.abs(eigvals - 1.0)))
    if abs(eigvals[pick] - 1.0) > 1e-8:
        raise RuntimeError("refinement transition matrix has no unit eigenvalue")
    integer_vals = eigvecs[:, pick].real
    integer_vals = integer_vals / integer_vals.sum()
    v = np.zeros(sup + 1)
    v[1:sup] = integer_vals
    # Dyadic subdivision: even nodes copy, odd nodes apply the two-scale sum.
    for level in range(depth):
        new = np.zeros(2 * v.size - 1)
        new[0::2] = v
        new[1::2] = _two_scale(taps, v, np.arange(1, new.size, 2), 2 ** level)
        v = new
    return v


def _two_scale(filt: np.ndarray, values: np.ndarray, src: np.ndarray,
               step: int) -> np.ndarray:
    """``sqrt(2) * sum_l filt[l] * values[src - l * step]``, the terms
    outside ``values`` left out: the two-scale sum ``sqrt(2) * sum_l
    filt[l] * f(2t - l)`` where ``values`` samples ``f`` at ``step`` nodes
    per unit and ``src`` holds each ``2t`` as an index of those nodes."""
    acc = np.zeros(src.size)
    for l, c in enumerate(filt):
        idx = src - l * step
        ok = (idx >= 0) & (idx < values.size)
        acc[ok] += c * values[idx[ok]]
    return SQRT2 * acc


def _normalization(table: BasisTable) -> tuple[float, float]:
    """The largest miss of ``int phi = 1``, ``int phi**2 = 1`` and ``int
    psi**2 = 1`` by the table's midpoint rule, and the tolerance a table
    is held to, ``2**(2 - depth) * support_length``."""
    error = max(abs(_support_integral(table, "scaling", 0) - 1.0),
                *(abs(_support_integral(table, kind, square=True) - 1.0)
                  for kind in ("scaling", "wavelet")))
    return error, 2.0 ** (-table.depth + 2) * table.family.support_length


def _support_integral(table: BasisTable, kind: str, power: int = 0,
                      square: bool = False) -> float:
    """Integral of ``f(t) * t**power``, or of ``f(t)**2``, by the midpoint
    rule at step ``2**(1-depth)``, whose abscissae are the odd grid nodes."""
    samples = table.phi_samples if kind == "scaling" else table.psi_samples
    vals = samples[1::2]
    xs = np.arange(1, samples.size, 2) * 2.0 ** (-table.depth)
    integrand = vals * vals if square else vals * xs ** power
    return float(2.0 ** (1 - table.depth) * np.sum(integrand))


def _sample(table: BasisTable, kind: str, t: np.ndarray) -> np.ndarray:
    """Values of the tabulated function at points ``t``, zero off-support."""
    samples = table.phi_samples if kind == "scaling" else table.psi_samples
    n = samples.size
    pos = np.asarray(t, dtype=float) * 2.0 ** table.depth
    inside = (pos >= 0.0) & (pos <= n - 1)
    pos = np.clip(pos, 0.0, n - 1)
    if table.family.vanishing_moments == 1:
        vals = samples[np.floor(pos).astype(np.int64)]
    else:
        base = np.minimum(np.floor(pos).astype(np.int64), n - 2)
        frac = pos - base
        vals = (1.0 - frac) * samples[base] + frac * samples[base + 1]
    return np.where(inside, vals, 0.0)


def _stencil(table: BasisTable, kind: str, level: int, x: np.ndarray):
    """Walk the 1-D points ``x`` in chunks of ``_CHUNK``; per chunk and per
    support offset yield ``(start, cell, offset, vals)``.

    ``cell`` is each point's ``floor(2**level * x) & (2**level - 1)`` and
    ``vals`` the unscaled values there of the element of shift ``cell -
    offset`` (mod ``2**level``).  Both are views of seven buffers carved
    from one allocation per call and refilled in place, so a chunk's
    working set stays in L2 however many points there are; the caller may
    overwrite ``vals``.
    A point's table position is the integer ``K = floor(x * 2**(level +
    depth))``: ``cell`` is ``K >> depth`` masked as above, its node is
    ``K & (2**depth - 1)``, and its weight is ``t = x * 2**(level + depth)
    - K``.  The product is exact, as a power of two, and so is ``t``,
    except for a point in ``(-2**-(level + depth), 0)``, whose ``t = 1 +
    x * 2**(level + depth)`` may round, to at most 1, so that its read is
    within rounding of the exact value.  The node and ``t`` serve every
    offset ``o``: one gather at the node from the table's pairs ``(s[i],
    s[i+1])`` from ``o * 2**depth`` on, then ``(1 - t) * s[i] + t *
    s[i+1]``, is ``_sample``'s interpolation at the exact ``frac + o``,
    ``frac`` the point's offset in its cell, not at their rounded sum.
    The pairs are built once per table and kind, 16 bytes per sample (192
    KiB for DB2 at depth 12, 19 MiB for R = 10 at depth 16).  The two-tap
    family's pairs hold each node's sample twice, so it reads its step
    value.

    The gathers use ``mode='clip'``, which never changes an index here, in
    place of a bounds check per element: ``cell`` is masked into ``[0,
    2**level - 1]`` and the node into ``[0, 2**depth - 1]``, and each
    offset's slice holds ``2**depth`` pairs.  A chunk with a point that is
    not finite, or whose position overflows int64, raises ``ValueError``
    before it yields.
    """
    step = 2 ** table.depth
    source = table.phi_pairs if kind == "scaling" else table.psi_pairs
    size = min(x.size, _CHUNK)
    # One allocation per call: glibc hands seven separate buffers of 128
    # KiB or more back to the system on return, and the next call faults
    # them in again.
    buffers = np.empty(size * 8)
    frac, pos, low, vals, cell, node = buffers[:6 * size].reshape(6, size)
    cell, node = cell.view(np.int64), node.view(np.int64)
    both = buffers[6 * size:].view(np.complex128)
    for start in range(0, x.size, _CHUNK):
        m = min(x.size - start, _CHUNK)
        f, p, lo, v, c, k, b = (a[:m] for a in (frac, pos, low, vals, cell,
                                                node, both))
        np.multiply(x[start:start + m], 2.0 ** (level + table.depth), out=f)
        np.floor(f, out=p)
        _check_cells(p, level, table.depth)
        k[...] = p
        np.right_shift(k, table.depth, out=c)
        np.bitwise_and(c, 2 ** level - 1, out=c)
        np.bitwise_and(k, step - 1, out=k)
        # From here on f holds t and p holds 1 - t.
        np.subtract(f, p, out=f)
        np.subtract(1.0, f, out=p)
        for offset in range(table.family.support_length):
            np.take(source[offset * step:(offset + 1) * step], k, out=b,
                    mode="clip")
            np.multiply(f, b.imag, out=lo)
            np.multiply(p, b.real, out=v)
            np.add(v, lo, out=v)
            yield start, c, offset, v


def eval_periodized(table: BasisTable, kind: str, level: int, shift: int, x):
    """Evaluate the periodized basis element ``(kind, level, shift)`` at x.

    The element is the sum over all integer translates of the scaled
    function, so values at x and x+1 coincide.  ``x`` may be a scalar or
    an array of any shape, of finite points.
    """
    _check_kind(kind)
    _check_index(level, shift)
    xa = np.asarray(x, dtype=float)
    _check_finite("points", xa)
    scalar = xa.ndim == 0
    period = 2 ** level
    u = np.mod(2.0 ** level * xa - shift, period)
    out = np.zeros_like(u)
    sup = table.family.support_length
    wrap = 0
    while wrap * period <= sup:
        out += _sample(table, kind, u + wrap * period)
        wrap += 1
    out *= 2.0 ** (level / 2.0)
    return float(out) if scalar else out


def _check_kind(kind: str) -> None:
    _check_choice("kind", kind, _KINDS)


def _check_index(level: int, shift: int) -> None:
    """The index rule: integers 0 <= level <= ``_MAX_LEVEL``, checked
    before any array of ``2**level`` shifts is made, and 0 <= shift <
    2**level."""
    _check_span("level", level, 0, _MAX_LEVEL)
    _check_span("shift", shift, 0, 2 ** level - 1)


def _check_cells(floors: np.ndarray, level: int, depth: int) -> None:
    """Refuse points whose table position ``floor(x * 2**(level +
    depth))``, given as ``floors``, is not an int64 of magnitude below
    ``2**63``: a non-finite point, or one at or past ``2**(63 - level -
    depth)`` in magnitude.  ``min`` and ``max`` propagate NaN, so the one
    comparison catches it without a boolean array."""
    if floors.size and not (-2.0 ** 63 < floors.min()
                            and floors.max() < 2.0 ** 63):
        raise ValueError(f"points must be finite and below "
                         f"{2.0 ** (63 - level - depth):.3g} in magnitude "
                         f"at level {level} and depth {depth}")


def weighted_level_sums(table: BasisTable, kind: str, level: int,
                        x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sums of ``weights[i] * element(level, shift)(x[i])`` over all shifts.

    Returns one entry per shift.  Work is linear in the number of points
    regardless of the level; each point touches only the shifts whose
    support contains it, with periodic wrapping folded in.  The points are
    scattered into one row of cells per support offset, and each row,
    read from its offset on with wrap-around, is then added into the
    shifts, offset by offset.  A point that is not finite, or whose table
    position overflows int64, and a weight that is not finite raise
    ``ValueError``; each chunk's weights are checked at its first offset,
    while they are in L2.
    """
    _check_kind(kind)
    _check_index(level, 0)
    xa = np.asarray(x, dtype=float).reshape(-1)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size != xa.size:
        raise ValueError(f"need one weight per point, got {w.size} weights "
                         f"for {xa.size} points")
    n_shifts = 2 ** level
    # Row ``offset`` sums each cell's points in point order, as one
    # ``bincount`` over all points would; read from ``offset`` on, with
    # wrap-around, it is that offset's ``bincount((floor - offset) %
    # n_shifts)``.
    rows = np.zeros((table.family.support_length, n_shifts))
    for start, cell, offset, vals in _stencil(table, kind, level, xa):
        if not offset:
            _check_finite("weights", w[start:start + vals.size])
        np.multiply(w[start:start + vals.size], vals, out=vals)
        np.add.at(rows[offset], cell, vals)
    acc = np.zeros(n_shifts)
    for offset, row in enumerate(rows):
        acc += row.take(np.arange(offset, offset + n_shifts), mode="wrap")
    return acc * 2.0 ** (level / 2.0)


def _analysis_step(family: WaveletFamily, fine: np.ndarray):
    """Level ``j`` scaling and detail coefficients from the scaling
    coefficients ``fine`` of level ``j+1``: ``c[k] = sum_l h[l] fine[(2k+l)
    mod 2**(j+1)]`` and ``b[k]`` the same with ``g``."""
    smooth = np.zeros(fine.size // 2)
    detail = np.zeros(fine.size // 2)
    for l, (h, g) in enumerate(zip(family.low_pass, family.high_pass)):
        src = fine.take(np.arange(l, l + fine.size, 2), mode="wrap")
        smooth += h * src
        detail += g * src
    return smooth, detail


def _synthesis_step(family: WaveletFamily, smooth: np.ndarray,
                    detail: np.ndarray) -> np.ndarray:
    """Scaling coefficients of level ``j+1`` that give the same series as
    level ``j``'s ``smooth`` and ``detail``; inverts ``_analysis_step``."""
    if detail.shape != smooth.shape:
        raise ValueError(f"level with {smooth.size} scaling coefficients "
                         f"expects as many detail coefficients, got {detail.size}")
    fine = np.zeros(2 * smooth.size)
    for l, (h, g) in enumerate(zip(family.low_pass, family.high_pass)):
        fine[l % 2::2] += (h * smooth + g * detail).take(
            np.arange(-(l // 2), smooth.size - l // 2), mode="wrap")
    return fine


def level_coeffs(table: BasisTable, kind: str, level: int,
                 values: np.ndarray) -> np.ndarray:
    """All coefficients of one level against midpoint samples of a function.

    ``values[i]`` holds the function at ``(i + 0.5) / len(values)``, at
    least one finite sample; the coefficient is the midpoint-rule integral
    of the function against each basis element.
    """
    v = np.asarray(values, dtype=float)
    m = v.size
    if m == 0:
        raise ValueError("values must hold at least one sample")
    _check_finite("values", v)
    mids = (np.arange(m) + 0.5) / m
    return weighted_level_sums(table, kind, level, mids, v) / m


def evaluate_series(table: BasisTable, level: int, coeffs: np.ndarray, x,
                    offset: float = 0.0) -> np.ndarray:
    """``offset`` plus the scaling series ``sum_k coeffs[k] *
    phi_(level, k)`` at points ``x``, of any shape or a scalar: the gather
    twin of ``weighted_level_sums``.  A point that is not finite, or
    whose table position overflows int64, and a coefficient that is not
    finite raise ``ValueError``.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.full(xa.shape, float(offset))
    flat_x, flat_out = xa.reshape(-1), out.reshape(-1)
    gathered = np.empty(min(flat_x.size, _CHUNK))
    coeffs = np.asarray(coeffs, dtype=float)
    _check_index(level, 0)
    n_shifts = 2 ** level
    if coeffs.size != n_shifts:
        raise ValueError(f"level {level} expects {n_shifts} coefficients")
    _check_finite("coefficients", coeffs)
    # rolled[off][cell] is scale * coeffs[(cell - off) % n_shifts].
    scaled = 2.0 ** (level / 2.0) * coeffs
    rolled = [scaled.take(np.arange(-off, n_shifts - off), mode="wrap")
              for off in range(table.family.support_length)]
    for start, cell, off, vals in _stencil(table, "scaling", level, flat_x):
        g = gathered[:vals.size]
        np.take(rolled[off], cell, out=g, mode="clip")
        np.multiply(g, vals, out=g)
        flat_out[start:start + g.size] += g
    return out if np.ndim(x) else float(out[0])


def basis_diagnostics(family: WaveletFamily, depth: int) -> list[dict]:
    """Measure the defining identities of one tabulated family.

    Returns one record per check with the measured error and the
    tolerance it is held to at the default depth.  The Gram matrix spans
    the periodized dictionary from the coarsest level up to level 6.
    """
    table = cascade_table(family, depth)
    checks = []

    # Two-scale relation residual on the grid.
    phi = table.phi_samples
    refinement = float(np.max(np.abs(phi - _two_scale(
        family.low_pass, phi, 2 * np.arange(phi.size), 2 ** depth))))
    checks.append(_check("refinement_residual", refinement, 10 * 2.0 ** (-depth)))

    # Sum of integer translates is one everywhere.
    xs = np.arange(2 ** depth) * 2.0 ** (-depth)
    pou = eval_periodized(table, "scaling", 0, 0, xs)
    checks.append(_check("partition_of_unity", float(np.max(np.abs(pou - 1.0))), 1e-6))

    # Vanishing moments of the wavelet.
    worst = 0.0
    for r in range(family.vanishing_moments):
        worst = max(worst, abs(_support_integral(table, "wavelet", r)))
    checks.append(_check("vanishing_moments", worst, 1e-6))

    # Normalization of both tabulated functions.
    checks.append(_check("normalization", *_normalization(table)))

    # Gram matrix of the periodized dictionary up to level 6.  The
    # quadrature step is well below the table step so the rule integrates
    # the tabulated interpolants accurately and the reported deviation
    # reflects the table itself.
    start = family.coarsest_level
    labels = [("scaling", start, k) for k in range(2 ** start)]
    for j in range(start, 7):
        labels.extend(("wavelet", j, k) for k in range(2 ** j))
    quad_depth = depth + 6
    n_quad = 2 ** quad_depth
    block = 2 ** 14
    gram = np.zeros((len(labels), len(labels)))
    for lo in range(0, n_quad, block):
        mids = (np.arange(lo, min(lo + block, n_quad)) + 0.5) * 2.0 ** (-quad_depth)
        rows = np.vstack([eval_periodized(table, kind, j, k, mids)
                          for kind, j, k in labels])
        gram += rows @ rows.T
    gram *= 2.0 ** (-quad_depth)
    gram_err = float(np.max(np.abs(gram - np.eye(len(labels)))))
    checks.append(_check("gram_identity", gram_err, 1e-4))
    return checks


def _check(name: str, error: float, tolerance: float) -> dict:
    return {"name": name, "error": float(error), "tolerance": float(tolerance),
            "passed": bool(error <= tolerance)}
