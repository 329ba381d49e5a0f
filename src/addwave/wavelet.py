"""Daubechies wavelet bases periodized to the unit interval.

The scaling function of the family with ``R`` vanishing moments is tabulated
exactly on a dyadic grid: its values at the integers come from the eigenvector
of the refinement transition matrix, and each halving of the grid step applies
the two-scale relation once.  The mother wavelet follows from the
quadrature-mirror filter.  Basis elements on [0, 1] wrap integer translates
around the circle, which keeps every level ``j >= 0`` available and makes the
translates at each level an orthonormal set.

Evaluation between grid nodes interpolates linearly, except for the two-tap
family whose samples form a step function and are looked up piecewise
constantly so that its jumps stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb, log2

import numpy as np

SQRT2 = float(np.sqrt(2.0))

_MIN_DEPTH = 6
_MAX_DEPTH = 16


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
    """

    family: WaveletFamily
    depth: int
    phi_samples: np.ndarray
    psi_samples: np.ndarray


def make_family(vanishing_moments: int) -> WaveletFamily:
    """Build the Daubechies filter with the requested vanishing moments.

    The filter is computed by spectral factorization of the binomial
    half-band polynomial; the root selection keeps the minimum-phase
    branch, which reproduces the standard published coefficients.
    """
    r = int(vanishing_moments)
    if not 1 <= r <= 10:
        raise ValueError(f"vanishing_moments must be in 1..10, got {r}")
    taps = _daubechies_taps(r)
    if abs(taps.sum() - SQRT2) > 1e-9 or abs(np.dot(taps, taps) - 1.0) > 1e-8:
        raise RuntimeError("filter construction failed the two defining identities")
    return WaveletFamily(vanishing_moments=r, low_pass=taps)


def _daubechies_taps(r: int) -> np.ndarray:
    if r == 1:
        return np.array([1.0, 1.0]) / SQRT2
    # Half-band condition in the variable y = sin^2(w/2).
    moment_poly = [comb(r - 1 + k, k) for k in range(r)]
    # Substitute y = (2 - z - 1/z)/4 and clear denominators with z**(r-1).
    # Ascending powers of z throughout.
    cleared = np.zeros(2 * r - 1)
    y_times_z = np.array([-0.25, 0.5, -0.25])
    for k, c in enumerate(moment_poly):
        term = np.array([float(c)])
        for _ in range(k):
            term = np.convolve(term, y_times_z)
        cleared[r - 1 - k : r - 1 - k + term.size] += term
    roots = np.roots(cleared[::-1])
    inside = roots[np.abs(roots) < 1.0]
    if inside.size != r - 1:
        raise RuntimeError("unexpected root pairing in spectral factorization")
    spectral = np.array([1.0])
    for root in inside:
        spectral = np.convolve(spectral, np.array([-root, 1.0]))
    spectral = spectral.real
    smooth_part = np.array([1.0])
    for _ in range(r):
        smooth_part = np.convolve(smooth_part, np.array([0.5, 0.5]))
    taps = np.convolve(smooth_part, spectral)
    taps *= SQRT2 / taps.sum()
    if abs(taps[0]) < abs(taps[-1]):
        taps = taps[::-1].copy()
    return taps


def cascade_table(family: WaveletFamily, depth: int = 12) -> BasisTable:
    """Tabulate the scaling function and wavelet at grid step ``2**-depth``."""
    _check_depth(depth)
    taps = family.low_pass
    phi = _scaling_samples(taps, depth)
    # Quadrature-mirror filter g[l] = (-1)**l h[L - 1 - l].
    psi = _two_scale(taps[::-1] * (-1.0) ** np.arange(taps.size), phi, depth)
    table = BasisTable(family=family, depth=depth, phi_samples=phi, psi_samples=psi)
    _validate_table(table)
    return table


def _check_depth(depth: int) -> None:
    if not _MIN_DEPTH <= depth <= _MAX_DEPTH:
        raise ValueError(f"depth must be in {_MIN_DEPTH}..{_MAX_DEPTH}, got {depth}")


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
        old_max = sup * 2 ** level
        new = np.zeros(sup * 2 ** (level + 1) + 1)
        new[0::2] = v
        odd = np.arange(1, new.size, 2)
        acc = np.zeros(odd.size)
        for l, c in enumerate(taps):
            src = odd - l * 2 ** level
            ok = (src >= 0) & (src <= old_max)
            acc[ok] += c * v[src[ok]]
        new[odd] = SQRT2 * acc
        v = new
    return v


def _two_scale(filt: np.ndarray, phi: np.ndarray, depth: int) -> np.ndarray:
    """``sqrt(2) * sum_l filt[l] * phi(2t - l)`` on the grid of ``phi``."""
    idx = np.arange(phi.size)
    acc = np.zeros(phi.size)
    for l, c in enumerate(filt):
        src = 2 * idx - l * 2 ** depth
        ok = (src >= 0) & (src < phi.size)
        acc[ok] += c * phi[src[ok]]
    return SQRT2 * acc


def _validate_table(table: BasisTable) -> None:
    tol = 2.0 ** (-table.depth + 2) * table.family.support_length
    one = _support_integral(table, "scaling", 0)
    zero = _support_integral(table, "wavelet", 0)
    phi_sq = _support_norm_sq(table, "scaling")
    psi_sq = _support_norm_sq(table, "wavelet")
    if (abs(one - 1.0) > tol or abs(zero) > tol
            or abs(phi_sq - 1.0) > tol or abs(psi_sq - 1.0) > tol):
        raise RuntimeError(
            "cascade iteration produced an inconsistent table: "
            f"integral={one:.3e}, wavelet integral={zero:.3e}, "
            f"norms=({phi_sq:.6f}, {psi_sq:.6f})")


def _quad_nodes(table: BasisTable) -> tuple[np.ndarray, float]:
    # Midpoint rule at step 2**(1-depth): abscissae are the odd grid nodes,
    # so the tabulated values are used without interpolation.
    xs = np.arange(1, table.phi_samples.size, 2) * 2.0 ** (-table.depth)
    return xs, 2.0 ** (1 - table.depth)


def _support_integral(table: BasisTable, kind: str, power: int) -> float:
    samples = table.phi_samples if kind == "scaling" else table.psi_samples
    xs, step = _quad_nodes(table)
    vals = samples[1::2]
    return float(step * np.sum(vals * xs ** power))


def _support_norm_sq(table: BasisTable, kind: str) -> float:
    samples = table.phi_samples if kind == "scaling" else table.psi_samples
    _, step = _quad_nodes(table)
    vals = samples[1::2]
    return float(step * np.sum(vals * vals))


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
    """Each point's cell ``floor(2**level * x)`` and, per support offset,
    the unscaled values of the element of shift ``cell - offset`` (mod
    ``2**level``) there.  Callers build that index inside the expression
    that uses it, so no index array outlives its use."""
    pos = 2.0 ** level * x
    base = np.floor(pos).astype(np.int64)
    frac = pos - base
    return base, (_sample(table, kind, frac + offset)
                  for offset in range(table.family.support_length))


def eval_periodized(table: BasisTable, kind: str, level: int, shift: int, x):
    """Evaluate the periodized basis element ``(kind, level, shift)`` at x.

    The element is the sum over all integer translates of the scaled
    function, so values at x and x+1 coincide.  ``x`` may be a scalar or
    an array of any shape.
    """
    _check_kind(kind)
    _check_index(level, shift)
    xa = np.asarray(x, dtype=float)
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
    if kind not in ("scaling", "wavelet"):
        raise ValueError(f"kind must be 'scaling' or 'wavelet', got {kind!r}")


def _check_index(level: int, shift: int) -> None:
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if not 0 <= shift < 2 ** level:
        raise ValueError(f"shift must be in 0..{2 ** level - 1}, got {shift}")


def weighted_level_sums(table: BasisTable, kind: str, level: int,
                        x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sums of ``weights[i] * element(level, shift)(x[i])`` over all shifts.

    Returns one entry per shift.  Work is linear in the number of points
    regardless of the level; each point touches only the shifts whose
    support contains it, with periodic wrapping folded in.
    """
    _check_kind(kind)
    _check_index(level, 0)
    xa = np.asarray(x, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    n_shifts = 2 ** level
    base, taps = _stencil(table, kind, level, xa)
    acc = np.zeros(n_shifts)
    for offset, vals in enumerate(taps):
        acc += np.bincount((base - offset) % n_shifts, weights=w * vals,
                           minlength=n_shifts)
    return acc * 2.0 ** (level / 2.0)


def level_coeffs(table: BasisTable, kind: str, level: int,
                 values: np.ndarray) -> np.ndarray:
    """All coefficients of one level against midpoint samples of a function.

    ``values[i]`` holds the function at ``(i + 0.5) / len(values)``; the
    coefficient is the midpoint-rule integral of the function against each
    basis element.
    """
    v = np.asarray(values, dtype=float)
    m = v.size
    mids = (np.arange(m) + 0.5) / m
    return weighted_level_sums(table, kind, level, mids, v) / m


def evaluate_series(table: BasisTable, start_level: int, smooth: np.ndarray,
                    details, x, offset: float = 0.0) -> np.ndarray:
    """Evaluate a periodized wavelet series at points ``x``.

    ``details`` is an iterable of (level, coefficient array) pairs; a
    coefficient array may contain zeros for dropped terms.  ``offset`` is
    added to the result.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.full(xa.shape, float(offset))
    terms = [(start_level, "scaling", np.asarray(smooth, dtype=float))]
    for level, coeffs in details:
        terms.append((level, "wavelet", np.asarray(coeffs, dtype=float)))
    for level, kind, coeffs in terms:
        n_shifts = 2 ** level
        if coeffs.size != n_shifts:
            raise ValueError(f"level {level} expects {n_shifts} coefficients")
        if not np.any(coeffs):
            continue
        base, taps = _stencil(table, kind, level, xa)
        scale = 2.0 ** (level / 2.0)
        for off, vals in enumerate(taps):
            out += scale * coeffs[(base - off) % n_shifts] * vals
    return out if np.ndim(x) else float(out[0])


def basis_diagnostics(family: WaveletFamily, depth: int,
                      max_gram_level: int = 6) -> list[dict]:
    """Measure the defining identities of one tabulated family.

    Returns one record per check with the measured error and the
    tolerance it is held to at the default depth.
    """
    table = cascade_table(family, depth)
    sup = family.support_length
    checks = []

    # Two-scale relation residual on the grid.
    phi = table.phi_samples
    refinement = float(np.max(np.abs(
        phi - _two_scale(family.low_pass, phi, depth))))
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
    norm_err = max(abs(_support_integral(table, "scaling", 0) - 1.0),
                   abs(_support_norm_sq(table, "scaling") - 1.0),
                   abs(_support_norm_sq(table, "wavelet") - 1.0))
    checks.append(_check("normalization", norm_err, 2.0 ** (-depth + 2) * sup))

    # Gram matrix of the periodized dictionary up to max_gram_level.  The
    # quadrature step is well below the table step so the rule integrates
    # the tabulated interpolants accurately and the reported deviation
    # reflects the table itself.
    start = family.coarsest_level
    top = max(max_gram_level, start)
    labels = [("scaling", start, k) for k in range(2 ** start)]
    for j in range(start, top + 1):
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
