"""Tensor-product basis elements on the unit cube and their one-axis sums.

A tensor element at a common level carries the wavelet factor in the
coordinates named by its direction index and the scaling factor elsewhere.
Summing an element over all shifts of the off-coordinates collapses, under
periodization, to a one-dimensional evaluation, because the integer-shift
sum of scaling factors at level j is the constant 2**(j/2) in each dropped
coordinate.  The literal sum is kept as a cross-check route.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from ._rules import _MAX_DIM, _check_dim, _check_span
from .wavelet import BasisTable, _check_index, _check_kind, eval_periodized

_MAX_LITERAL_TERMS = 2 ** 20


def direction_coords(dim: int, direction: int) -> tuple[int, ...]:
    """Coordinates (1-based) that carry the wavelet factor.

    Direction 0 is the pure scaling element.  Directions 1..dim are the
    singletons.  The remaining indices up to 2**dim - 1 enumerate the
    subsets of two or more coordinates, ordered by their binary mask
    (bit v-1 set means coordinate v is included).
    """
    _check_dim("dim", dim)
    _check_span("direction", direction, 0, 2 ** dim - 1)
    if direction == 0:
        return ()
    if direction <= dim:
        return (direction,)
    masks = [m for m in range(2 ** dim) if bin(m).count("1") >= 2]
    mask = masks[direction - dim - 1]
    return tuple(v + 1 for v in range(dim) if mask >> v & 1)


@dataclass(frozen=True)
class TensorIndex:
    """One tensor-product element: common level, per-axis shifts, direction."""

    level: int
    shifts: tuple[int, ...]
    direction: int

    def __post_init__(self):
        direction_coords(self.dim, self.direction)
        for k in self.shifts:
            _check_index(self.level, k)

    @property
    def dim(self) -> int:
        return len(self.shifts)


@dataclass(frozen=True, eq=False)
class AdditiveFunction:
    """Constant plus one centered component per coordinate.

    Components are midpoint samples on a common per-axis grid; each must
    average to zero so the decomposition is identifiable.
    """

    offset: float
    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not 1 <= len(self.components) <= _MAX_DIM:
            raise ValueError(f"need 1..{_MAX_DIM} components")
        sizes = {np.asarray(c).size for c in self.components}
        if len(sizes) != 1:
            raise ValueError("components must share one grid size")
        for i, c in enumerate(self.components):
            mean = float(np.mean(np.asarray(c, dtype=float)))
            if not abs(mean) <= 1e-8:
                raise ValueError(
                    f"component {i + 1} has grid mean {mean:.2e}, not centered")

    @property
    def dim(self) -> int:
        return len(self.components)

    def tabulate(self) -> np.ndarray:
        """Full grid of values on the product of the per-axis midpoint grids."""
        d = self.dim
        m = np.asarray(self.components[0]).size
        if m ** d > 2 ** 24:
            raise ValueError("tabulation grid too large")
        out = np.full((m,) * d, float(self.offset))
        for axis, comp in enumerate(self.components):
            shape = [1] * d
            shape[axis] = m
            out = out + np.asarray(comp, dtype=float).reshape(shape)
        return out


def eval_tensor(table: BasisTable, index: TensorIndex, x) -> np.ndarray:
    """Evaluate one tensor element at points ``x`` of shape (d,) or (N, d)."""
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 1
    pts = xa[None, :] if scalar else xa
    if pts.shape[-1] != index.dim:
        raise ValueError(
            f"points have {pts.shape[-1]} coordinates, index has {index.dim}")
    wavelet_axes = direction_coords(index.dim, index.direction)
    out = np.ones(pts.shape[0])
    for axis in range(index.dim):
        kind = "wavelet" if (axis + 1) in wavelet_axes else "scaling"
        out *= eval_periodized(table, kind, index.level, index.shifts[axis],
                               pts[:, axis])
    return float(out[0]) if scalar else out


def collapsed_sum(table: BasisTable, kind: str, level: int, shift: int,
                  coord: int, x, literal: bool = False):
    """Sum of tensor elements over all shifts of the off-coordinates.

    ``kind`` selects the factor kept in ``coord``: the all-scaling element
    ("scaling") or the one whose single wavelet factor sits in ``coord``
    ("wavelet").  The collapsed form multiplies a one-dimensional
    evaluation by 2**(level*(d-1)/2); ``literal=True`` instead adds up
    every off-coordinate shift combination.
    """
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 1
    pts = xa[None, :] if scalar else xa
    dim = _check_dim("dim", pts.shape[-1])
    _check_span("coord", coord, 1, dim)
    _check_kind(kind)
    _check_index(level, shift)
    if literal:
        n_other = 2 ** (level * (dim - 1))
        if n_other > _MAX_LITERAL_TERMS:
            raise ValueError("literal sum too large at this level and dim")
        direction = 0 if kind == "scaling" else coord
        out = np.zeros(pts.shape[0])
        for combo in product(range(2 ** level), repeat=dim - 1):
            shifts = combo[:coord - 1] + (shift,) + combo[coord - 1:]
            out += eval_tensor(
                table, TensorIndex(level, shifts, direction), pts)
        return float(out[0]) if scalar else out
    vals = eval_periodized(table, kind, level, shift, pts[:, coord - 1])
    vals = vals * 2.0 ** (level * (dim - 1) / 2.0)
    return float(vals[0]) if scalar else vals


def tensor_coeff(table: BasisTable, values: np.ndarray, kind: str, level: int,
                 shift: int, coord: int) -> float:
    """Population coefficient of a gridded function for one collapsed element.

    Computes ``2**(-level*(d-1)/2)`` times the product-grid quadrature of
    the function against the collapsed sum.  The off-axis factors of the
    collapsed sum are constant, so the contraction reduces to the marginal
    mean along ``coord``; every grid cell still enters the quadrature.
    """
    _check_kind(kind)
    _check_index(level, shift)
    g = np.asarray(values, dtype=float)
    dim = g.ndim
    _check_span("coord", coord, 1, dim)
    m = g.shape[coord - 1]
    if m < 2 ** (level + 4):
        raise ValueError(
            f"axis grid of {m} points is too coarse for level {level}")
    other = tuple(a for a in range(dim) if a != coord - 1)
    line = g.mean(axis=other) if other else g
    mids = (np.arange(m) + 0.5) / m
    basis_vals = eval_periodized(table, kind, level, shift, mids)
    return float(np.mean(line * basis_vals))
