import math

import numpy as np
import pytest

from addwave import (
    AdditiveFunction,
    TensorIndex,
    cascade_table,
    collapsed_sum,
    direction_coords,
    eval_periodized,
    eval_tensor,
    make_family,
    tensor_coeff,
)
from addwave import test_function as catalog_fn

HAAR = cascade_table(make_family(1), 12)
DB2 = cascade_table(make_family(2), 12)


def test_direction_coords_enumeration():
    assert direction_coords(2, 0) == ()
    assert direction_coords(2, 1) == (1,)
    assert direction_coords(2, 2) == (2,)
    assert direction_coords(2, 3) == (1, 2)
    assert direction_coords(3, 5) == (1, 3)
    assert direction_coords(3, 7) == (1, 2, 3)
    with pytest.raises(ValueError):
        direction_coords(2, 4)
    with pytest.raises(ValueError):
        direction_coords(5, 1)
    # A count that is not an integer is refused by name: 2.5 as a dim
    # used to give (1,), and as a direction a TypeError from a list index.
    for dim, direction, name in ((2.5, 1, "dim"), (True, 0, "dim"),
                                 (0, 0, "dim"), (2, 2.5, "direction"),
                                 (2, -1, "direction"), (2, True, "direction")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            direction_coords(dim, direction)


def test_tensor_index_validation():
    TensorIndex(level=2, shifts=(1, 3), direction=1)
    with pytest.raises(ValueError):
        TensorIndex(level=2, shifts=(1, 4), direction=1)
    with pytest.raises(ValueError):
        TensorIndex(level=2, shifts=(1, 3), direction=4)
    with pytest.raises(ValueError, match="direction must be an integer"):
        TensorIndex(level=2, shifts=(0, 1), direction=2.5)


def test_tensor_coeff_refuses_a_bad_index_by_name():
    grid = np.zeros((256, 256))
    # A string level used to fail with a TypeError from ``2 ** (level + 4)``.
    for kind, level, shift, message in (
            ("wavelet", "2", 1, "level must be an integer"),
            ("wavelet", 2.0, 1, "level must be an integer"),
            ("wavelet", 2, 1.5, "shift must be an integer in 0..3"),
            ("wavelet", 2, 4, "shift must be an integer in 0..3"),
            ("ripple", 2, 1, "kind must be 'scaling' or 'wavelet'")):
        with pytest.raises(ValueError, match=message):
            tensor_coeff(DB2, grid, kind, level, shift, 1)


def test_haar_tensor_frozen_point():
    # level-1 pure scaling tensor at a point inside both supports:
    # each factor is sqrt(2), the product is 2
    idx = TensorIndex(level=1, shifts=(0, 0), direction=0)
    val = eval_tensor(HAAR, idx, np.array([[0.3, 0.2]]))
    assert float(val[0]) == pytest.approx(2.0, abs=1e-14)
    idx_w = TensorIndex(level=1, shifts=(0, 0), direction=2)
    val_w = eval_tensor(HAAR, idx_w, np.array([[0.3, 0.3]]))
    assert float(val_w[0]) == pytest.approx(-2.0, abs=1e-14)


def test_collapsed_matches_literal():
    rng = np.random.default_rng(3)
    for dim in (1, 2, 3):
        x = rng.uniform(0.0, 1.0, (50, dim))
        for kind in ("scaling", "wavelet"):
            for level in (2, 4):
                fast = collapsed_sum(DB2, kind, level, 1, 1, x)
                slow = collapsed_sum(DB2, kind, level, 1, 1, x, literal=True)
                assert float(np.max(np.abs(fast - slow))) < 1e-10


def test_collapsed_value_factorizes():
    x = np.array([[0.37, 0.81, 0.12]])
    got = collapsed_sum(DB2, "wavelet", 3, 2, 2, x)
    axis = eval_periodized(DB2, "wavelet", 3, 2, 0.81)
    assert float(got[0]) == pytest.approx(axis * 2.0 ** 3, abs=1e-12)


def test_collapsed_square_integral():
    m = 2 ** 14
    mids = (np.arange(m) + 0.5) / m
    for dim in (1, 2, 3):
        pts = np.column_stack([mids] + [np.full(m, 0.5)] * (dim - 1))
        for level in (2, 5):
            vals = collapsed_sum(DB2, "wavelet", level, 1, 1, pts)
            integral = float(np.mean(vals ** 2))
            assert integral == pytest.approx(2.0 ** (level * (dim - 1)),
                                             rel=1e-3)


def test_tensor_coeff_recovers_component():
    m = 2048
    mids = (np.arange(m) + 0.5) / m
    g1 = catalog_fn("sine")(mids)
    g2 = catalog_fn("bump")(mids)
    grid = g1[:, None] + g2[None, :]
    ref = np.mean(g1 * eval_periodized(DB2, "wavelet", 3, 5, mids))
    got = tensor_coeff(DB2, grid, "wavelet", 3, 5, 1)
    assert got == pytest.approx(float(ref), abs=1e-10)
    got2 = tensor_coeff(DB2, grid, "wavelet", 3, 5, 2)
    ref2 = np.mean(g2 * eval_periodized(DB2, "wavelet", 3, 5, mids))
    assert got2 == pytest.approx(float(ref2), abs=1e-10)


def test_additive_function_centering_guard():
    mids = (np.arange(128) + 0.5) / 128
    with pytest.raises(ValueError):
        AdditiveFunction(offset=0.0,
                         components=(catalog_fn("sine")(mids) + 0.05,))
    # A NaN mean used to pass, since ``abs(nan) > 1e-8`` is false.
    with pytest.raises(ValueError, match="grid mean nan, not centered"):
        AdditiveFunction(offset=0.0, components=(np.array([math.nan, 0.0]),))


def test_additive_function_tabulate():
    mids = (np.arange(128) + 0.5) / 128
    g1 = catalog_fn("sine")(mids)
    g2 = catalog_fn("bump")(mids)
    fn = AdditiveFunction(offset=0.5, components=(g1, g2))
    grid = fn.tabulate()
    assert grid.shape == (128, 128)
    expect = 0.5 + g1[:, None] + g2[None, :]
    assert float(np.max(np.abs(grid - expect))) < 1e-12
