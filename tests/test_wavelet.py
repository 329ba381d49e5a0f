import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addwave import (
    basis_diagnostics,
    cascade_table,
    eval_periodized,
    evaluate_series,
    level_coeffs,
    make_family,
    weighted_level_sums,
)
from addwave import wavelet
from addwave.wavelet import _CHUNK, _analysis_step, _synthesis_step

HAAR = cascade_table(make_family(1), 12)
DB2 = cascade_table(make_family(2), 12)
TABLES = {1: HAAR, 2: DB2, 4: cascade_table(make_family(4), 12)}
DB10 = cascade_table(make_family(10), 12)


def test_family_validation():
    with pytest.raises(ValueError):
        make_family(0)
    with pytest.raises(ValueError):
        make_family(11)
    for bad in (2.5, 2.0, True, "2", None):
        with pytest.raises(ValueError, match="vanishing_moments"):
            make_family(bad)
    assert make_family(np.int64(3)).vanishing_moments == 3
    with pytest.raises(ValueError):
        cascade_table(make_family(2), 4)
    with pytest.raises(ValueError):
        cascade_table(make_family(2), 17)


def test_filter_identities_all_orders():
    for r in range(1, 11):
        fam = make_family(r)
        taps = np.asarray(fam.low_pass)
        assert taps.size == 2 * r
        # The roots of the half-band polynomial in y are well conditioned:
        # every order is orthonormal to rounding (at most 2e-15 measured).
        assert abs(taps.sum() - math.sqrt(2.0)) < 1e-14
        assert abs(np.dot(taps, taps) - 1.0) < 1e-14
        for shift in range(1, r):
            assert abs(np.dot(taps[2 * shift:], taps[:-2 * shift])) < 1e-14


def test_family_refuses_filter_off_its_identities(monkeypatch):
    exact = wavelet._daubechies_taps
    # Off by 1.4e-13 in the sum and 2e-13 in the norm.
    monkeypatch.setattr(wavelet, "_daubechies_taps",
                        lambda r: exact(r) * (1.0 + 1e-13))
    with pytest.raises(RuntimeError, match="identities"):
        make_family(4)
    # Right sum and norm, but not orthogonal to its shift by two.
    monkeypatch.setattr(wavelet, "_daubechies_taps",
                        lambda r: np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2))
    with pytest.raises(RuntimeError, match="identities"):
        make_family(2)


def test_db2_taps_closed_form():
    s3 = math.sqrt(3.0)
    d = 4.0 * math.sqrt(2.0)
    expected = [(1 + s3) / d, (3 + s3) / d, (3 - s3) / d, (1 - s3) / d]
    got = list(make_family(2).low_pass)
    assert np.max(np.abs(np.array(got) - np.array(expected))) < 1e-14


def test_coarsest_level_values():
    assert make_family(1).coarsest_level == 1
    assert make_family(2).coarsest_level == 2
    assert make_family(3).coarsest_level == 3
    assert make_family(4).coarsest_level == 3
    assert make_family(5).coarsest_level == 4


def test_db2_integer_values():
    # dyadic samples hit the classical eigenvector values at the integers
    phi = DB2.phi_samples
    assert abs(phi[4096] - (1 + math.sqrt(3)) / 2) < 1e-12
    assert abs(phi[8192] - (1 - math.sqrt(3)) / 2) < 1e-12
    assert phi[0] == 0.0


def test_haar_periodized_frozen_points():
    root2 = math.sqrt(2.0)
    assert eval_periodized(HAAR, "scaling", 1, 0, 0.3) == pytest.approx(root2, abs=1e-15)
    assert eval_periodized(HAAR, "scaling", 1, 0, 0.7) == 0.0
    assert eval_periodized(HAAR, "scaling", 1, 1, 0.75) == pytest.approx(root2, abs=1e-15)
    assert eval_periodized(HAAR, "wavelet", 0, 0, 0.25) == 1.0
    assert eval_periodized(HAAR, "wavelet", 0, 0, 0.75) == -1.0


def test_periodized_wraps_at_unit_boundary():
    for kind in ("scaling", "wavelet"):
        for level in (0, 1, 3):
            for shift in (0, 2 ** level - 1):
                a = eval_periodized(DB2, kind, level, shift, 0.0)
                b = eval_periodized(DB2, kind, level, shift, 1.0)
                assert a == pytest.approx(b, abs=1e-12)


def test_weighted_level_sums_matches_brute_force():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, 300)
    w = rng.normal(size=300)
    for kind in ("scaling", "wavelet"):
        fast = weighted_level_sums(DB2, kind, 4, x, w)
        brute = np.array([np.sum(w * eval_periodized(DB2, kind, 4, k, x))
                          for k in range(16)])
        assert float(np.max(np.abs(fast - brute))) < 1e-12


def test_weighted_level_sums_needs_one_weight_per_point():
    x = np.linspace(0.0, 1.0, 10, endpoint=False)
    for w in (np.ones(9), np.ones(11), np.ones(1)):
        with pytest.raises(ValueError, match="one weight per point"):
            weighted_level_sums(DB2, "scaling", 2, x, w)


@pytest.mark.parametrize("r", [4, 10])
def test_offset_rows_fold_as_rolled_rows(r):
    # At levels 0 to 2 the support offsets run past 2**level; the fold
    # and the gather must wrap them as ``np.roll`` does, adding the same
    # terms in the same order, so both match rolled references bit for bit.
    table = {4: TABLES[4], 10: DB10}[r]
    rng = np.random.default_rng(r)
    x = rng.uniform(-0.5, 1.5, 500)
    w = rng.normal(size=500)
    for kind in ("scaling", "wavelet"):
        for level in (0, 1, 2):
            rows = np.zeros((table.family.support_length, 2 ** level))
            for start, cell, offset, vals in wavelet._stencil(table, kind,
                                                              level, x):
                np.add.at(rows[offset], cell,
                          w[start:start + vals.size] * vals)
            acc = np.zeros(2 ** level)
            for offset, row in enumerate(rows):
                acc += np.roll(row, -offset)
            assert np.array_equal(
                weighted_level_sums(table, kind, level, x, w),
                acc * 2.0 ** (level / 2.0)), (kind, level)
    for level in (0, 1, 2):
        coeffs = rng.normal(size=2 ** level)
        scaled = 2.0 ** (level / 2.0) * coeffs
        rolled = [np.roll(scaled, offset)
                  for offset in range(table.family.support_length)]
        gathered = np.full(x.size, 0.25)
        for start, cell, offset, vals in wavelet._stencil(table, "scaling",
                                                          level, x):
            gathered[start:start + vals.size] += rolled[offset][cell] * vals
        assert np.array_equal(
            evaluate_series(table, level, coeffs, x, offset=0.25),
            gathered), level


def _rolled_analysis(family, fine):
    smooth, detail = np.zeros(fine.size // 2), np.zeros(fine.size // 2)
    for l, (h, g) in enumerate(zip(family.low_pass, family.high_pass)):
        src = np.roll(fine, -l)[::2]
        smooth += h * src
        detail += g * src
    return smooth, detail


def _rolled_synthesis(family, smooth, detail):
    fine, term = np.zeros(2 * smooth.size), np.zeros(2 * smooth.size)
    for l, (h, g) in enumerate(zip(family.low_pass, family.high_pass)):
        term[::2] = h * smooth + g * detail
        fine += np.roll(term, l)
    return fine


def _with_signed_zeros(values):
    values[::3] = 0.0
    values[1::3] = -0.0
    return values


@pytest.mark.parametrize("r", [1, 2, 4, 10])
def test_filter_bank_matches_rolled_references(r):
    # Both steps shift by one wrapped read instead of np.roll copies; the
    # synthesis also skips the +0.0 the rolled form adds at the other
    # parity.  Neither may move a bit, nor the sign of a zero.
    family = make_family(r)
    rng = np.random.default_rng(r)

    def same(got, want):
        return (np.array_equal(got, want)
                and np.array_equal(np.signbit(got), np.signbit(want)))

    for size in 2 ** np.arange(family.coarsest_level,
                               family.coarsest_level + 4):
        for a, b in ((rng.normal(size=size), rng.normal(size=size)),
                     (np.full(size, -0.0), np.full(size, -0.0)),
                     (np.full(size, 0.0), np.full(size, -0.0))):
            a, b = _with_signed_zeros(a), _with_signed_zeros(b[::-1].copy())
            fine = np.concatenate([a, b])
            assert all(same(got, want) for got, want in zip(
                _analysis_step(family, fine),
                _rolled_analysis(family, fine))), size
            assert same(_synthesis_step(family, a, b),
                        _rolled_synthesis(family, a, b)), size


def test_level_coeffs_against_direct_dot():
    m = 2 ** 14
    mids = (np.arange(m) + 0.5) / m
    vals = np.sin(2 * np.pi * mids)
    got = level_coeffs(DB2, "wavelet", 3, vals)
    direct = np.array([np.mean(vals * eval_periodized(DB2, "wavelet", 3, k, mids))
                       for k in range(8)])
    assert float(np.max(np.abs(got - direct))) < 1e-12


def _term_sum(table, level, coeffs, x, offset):
    """``offset`` plus ``coeffs[k]`` times each scaling element, one
    ``eval_periodized`` call per shift."""
    return offset + sum(c * eval_periodized(table, "scaling", level, k, x)
                        for k, c in enumerate(coeffs))


# The one-level gather against its term sum, at any points.
SERIES_TOL = 1e-10


def test_evaluate_series_matches_term_sum():
    rng = np.random.default_rng(11)
    grid = (np.arange(2 ** 12) + 0.5) / 2 ** 12
    coeffs = rng.normal(size=8)
    fast = evaluate_series(DB2, 3, coeffs, grid, offset=-0.7)
    slow = _term_sum(DB2, 3, coeffs, grid, -0.7)
    assert float(np.max(np.abs(fast - slow))) < SERIES_TOL


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(TABLES)),
       st.integers(min_value=0, max_value=7),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_evaluate_series_matches_term_sum_property(r, level, seed):
    rng = np.random.default_rng(seed)
    x = rng.random(300)
    coeffs = rng.normal(size=2 ** level)
    offset = float(rng.normal())
    fast = evaluate_series(TABLES[r], level, coeffs, x, offset=offset)
    slow = _term_sum(TABLES[r], level, coeffs, x, offset)
    assert float(np.max(np.abs(fast - slow))) < SERIES_TOL


def _brute_sums(table, kind, level, x, w):
    return np.array([math.fsum(w * eval_periodized(table, kind, level, k, x))
                     for k in range(2 ** level)])


@pytest.mark.parametrize("table", [HAAR, DB2, DB10], ids=["R1", "R2", "R10"])
def test_stencil_across_chunk_boundaries(table):
    # Three chunks, the last of three points: sums match the brute force
    # on the coefficient scale, and synthesis is pointwise, so two halves
    # cut inside a chunk give the whole input's values bit for bit.
    n = 2 * _CHUNK + 3
    rng = np.random.default_rng(17)
    x = rng.uniform(0.0, 1.0, n)
    w = rng.normal(size=n)
    for kind in ("scaling", "wavelet"):
        fast = weighted_level_sums(table, kind, 3, x, w)
        brute = _brute_sums(table, kind, 3, x, w)
        assert float(np.max(np.abs(fast - brute))) / n < 1e-12
    coeffs = rng.normal(size=16)
    whole = evaluate_series(table, 4, coeffs, x, offset=0.25)
    half = n // 2
    parts = [evaluate_series(table, 4, coeffs, part, offset=0.25)
             for part in (x[:half], x[half:])]
    assert np.array_equal(whole, np.concatenate(parts))


def _stencil_reads(table, kind, level, x):
    """Each element's value at each point as the stencil reads it, one
    ``(points, shifts)`` array per path: the scatter of a unit weight at
    one point and, for the scaling kind, the gather of a unit
    coefficient."""
    reads = [np.array([weighted_level_sums(table, kind, level, x[i:i + 1],
                                           np.ones(1))
                       for i in range(x.size)])]
    if kind == "scaling":
        reads.append(np.column_stack([evaluate_series(table, level, unit, x)
                                      for unit in np.eye(2 ** level)]))
    return reads


def _exact_reads(table, kind, level, point):
    """In exact arithmetic, the cell ``floor(2**level * point)`` and, per
    support offset, ``_sample``'s linear interpolant at ``frac + offset``
    (for the two-tap step table, the sample at its node), where ``frac =
    Fraction(point) * 2**level mod 1``."""
    samples = table.phi_samples if kind == "scaling" else table.psi_samples
    scaled = Fraction(float(point)) * 2 ** level
    cell = math.floor(scaled)
    values = []
    for offset in range(table.family.support_length):
        pos = (scaled - cell + offset) * 2 ** table.depth
        node = math.floor(pos)
        if table.family.vanishing_moments == 1:
            values.append(Fraction(float(samples[node])))
            continue
        t = pos - node
        values.append((1 - t) * Fraction(float(samples[node]))
                      + t * Fraction(float(samples[node + 1])))
    return cell, values


def _exact_interpolants(table, kind, level, x):
    """Per point and shift, ``_exact_reads``'s values summed over the
    offsets that land on the shift."""
    period = 2 ** level
    rows = []
    for point in x:
        cell, values = _exact_reads(table, kind, level, point)
        row = [Fraction(0)] * period
        for offset, value in enumerate(values):
            row[(cell - offset) % period] += value
        rows.append(row)
    return rows


def _read_tolerance(table, kind, scale=1.0):
    """Two ulp of ``scale * max|table|``: how far a stencil read may sit
    from the exact interpolant."""
    samples = table.phi_samples if kind == "scaling" else table.psi_samples
    return Fraction(2.0 * np.spacing(scale * np.max(np.abs(samples))))


def _assert_reads_exact(table, kind, level, x):
    """Both of the stencil's paths read the exact interpolants at ``x``."""
    scale = 2.0 ** (level / 2.0)
    tol = _read_tolerance(table, kind, scale)
    exact = _exact_interpolants(table, kind, level, x)
    for fast in _stencil_reads(table, kind, level, x):
        for shift in range(2 ** level):
            for value, row in zip(fast[:, shift], exact):
                assert abs(Fraction(float(value))
                           - Fraction(scale) * row[shift]) <= tol


@pytest.mark.parametrize("level", [0, 5])
def test_stencil_edge_points(level):
    # The stencil's gathers clip indices instead of checking them, so these
    # points pin why every index is in range.  A point's position is K =
    # floor(x * 2**(level + depth)); the cell K >> depth is masked into
    # [0, 2**level - 1] and the node K & (2**depth - 1) lies in [0,
    # 2**depth - 1], inside each offset's two views of 2**depth samples,
    # the second one node to the right of the first.  At x = 1 - 2**-53,
    # frac + 2 would round up to the table's last node 3.0; at x =
    # -2**-60, frac = 1 - 2**-60 * 2**level would round up to 1, where
    # Haar's phi reads 0 and not the exact 1.
    x = np.array([0.0, 1.0, 1.0 - 2.0 ** -53, 2.0 ** -60, -2.0 ** -60])
    for table in (HAAR, DB2, DB10):
        for kind in ("scaling", "wavelet"):
            _assert_reads_exact(table, kind, level, x)


@pytest.mark.parametrize("r", [1, 2, 4, 10])
def test_stencil_evaluates_at_exact_argument(r):
    # The stencil interpolates the table at frac + offset exactly, not at
    # its rounded sum: each value is within 2 ulp of 2**(level/2) *
    # max|table| of the exact interpolant, and where frac + offset is a
    # float (dyadic points) it is eval_periodized's value bit for bit.
    table = DB10 if r == 10 else TABLES[r]
    rng = np.random.default_rng(31)
    x = np.concatenate([rng.uniform(0.0, 1.0, 40),
                        [0.0, 1.0, 1.0 - 2.0 ** -53, 2.0 ** -60, -2.0 ** -60,
                         0.5 - 2.0 ** -54]])
    dyadic = rng.integers(0, 2 ** 20, 40) / 2.0 ** 20
    for level in (table.family.coarsest_level,
                  table.family.coarsest_level + 2):
        for kind in ("scaling", "wavelet"):
            _assert_reads_exact(table, kind, level, x)
            for at_dyadic in _stencil_reads(table, kind, level, dyadic):
                for shift in range(2 ** level):
                    assert np.array_equal(
                        at_dyadic[:, shift],
                        eval_periodized(table, kind, level, shift, dyadic))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(TABLES)),
       st.sampled_from(("scaling", "wavelet")),
       st.integers(min_value=0, max_value=9),
       st.floats(min_value=-1.0, max_value=1.0, exclude_min=True,
                 exclude_max=True),
       st.integers(min_value=-80, max_value=63))
@example(1, "scaling", 0, -0.5, -47)
def test_stencil_places_each_point_exactly_property(r, kind, level, unit,
                                                    exponent):
    # x = unit * 2**(exponent - level - depth) is any finite point the
    # stencil accepts, |x| * 2**(level + depth) < 2**63: negative or not,
    # tiny, or just inside the bound.  At every offset the stencil yields
    # the exact cell and reads the exact interpolant there.  The example
    # is x = -2**-60, whose offset in its cell, 1 - 2**-60, rounds to 1 as
    # a float.
    table = TABLES[r]
    x = np.array([math.ldexp(unit, exponent - level - table.depth)])
    cell, exact = _exact_reads(table, kind, level, x[0])
    tol = _read_tolerance(table, kind)
    offsets = []
    for _, cells, offset, vals in wavelet._stencil(table, kind, level, x):
        assert cells[0] == cell % 2 ** level
        assert abs(Fraction(float(vals[0])) - exact[offset]) <= tol
        offsets.append(offset)
    assert offsets == list(range(table.family.support_length))


def test_evaluate_series_point_shapes():
    rng = np.random.default_rng(23)
    x = rng.uniform(0.0, 1.0, (6, 5))
    coeffs = rng.normal(size=8)
    flat = evaluate_series(DB2, 3, coeffs, x.ravel(), offset=0.5)
    grid = evaluate_series(DB2, 3, coeffs, x, offset=0.5)
    assert grid.shape == (6, 5)
    assert np.array_equal(grid, flat.reshape(6, 5))
    transposed = evaluate_series(DB2, 3, coeffs, x.T, offset=0.5)
    assert np.array_equal(transposed, flat.reshape(6, 5).T)
    point = evaluate_series(DB2, 3, coeffs, float(x[1, 2]), offset=0.5)
    assert isinstance(point, float)
    assert point == flat[7]


def test_smooth_reconstruction_error():
    m = 2 ** 16
    mids = (np.arange(m) + 0.5) / m
    vals = np.sin(2 * np.pi * mids)
    # Level 2's scaling coefficients and the details of levels 2..6, carried
    # by the filter bank to level 7 and gathered there.
    fine = level_coeffs(DB2, "scaling", 2, vals)
    for j in range(2, 7):
        fine = _synthesis_step(DB2.family, fine,
                               level_coeffs(DB2, "wavelet", j, vals))
    recon = evaluate_series(DB2, 7, fine, mids)
    err = float(np.mean((recon - vals) ** 2))
    print("sine reconstruction ISE through level 6:", err)
    assert err < 2e-7


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       st.integers(min_value=0, max_value=5))
def test_partition_of_unity_property(x, level):
    total = sum(eval_periodized(DB2, "scaling", level, k, x)
                for k in range(2 ** level))
    assert abs(total - 2.0 ** (level / 2.0)) < 1e-6


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(TABLES)),
       st.integers(min_value=0, max_value=9),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_analysis_synthesis_adjoint_property(r, level, seed):
    # Analysis scatters w onto the shifts and synthesis gathers c back at
    # the points over the same stencil: <A w, c> = <w, S c>.  The bound is
    # relative to the sum of absolute terms, so an inner product that
    # cancels to near zero is held to the rounding its terms allow.
    rng = np.random.default_rng(seed)
    x = rng.random(200)
    w = rng.normal(size=200)
    c = rng.normal(size=2 ** level)
    table = TABLES[r]
    analysis = weighted_level_sums(table, "scaling", level, x, w)
    synthesis = evaluate_series(table, level, c, x)
    lhs = float(np.dot(analysis, c))
    rhs = float(np.dot(w, synthesis))
    scale = max(float(np.abs(analysis) @ np.abs(c)),
                float(np.abs(w) @ np.abs(synthesis)))
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_filter_bank_round_trip_property(r, steps, seed):
    # Analysis down ``steps`` levels to the coarsest one, then synthesis
    # back up, returns the input.  The bank is orthogonal exactly when the
    # filter is: with e_s = sum_l h[l] h[l + 2s] - delta_s, one round trip
    # is I + E with E symmetric and row sums at most
    # eta = |e_0| + 2 sum_{s>0} |e_s|, at most 8.4e-15 for R = 1..10, so
    # ``steps`` nested trips are off by at most about steps * eta in the
    # 2-norm.  The worst trip measured over R = 1..10, 1-5 steps and seeds
    # 0..39 was 1.7e-15 * |top|, well inside the flat 1e-14 * |top|.
    family = make_family(r)
    rng = np.random.default_rng(seed)
    top = rng.normal(size=2 ** (family.coarsest_level + steps))
    smooth, details = top, []
    for _ in range(steps):
        smooth, detail = _analysis_step(family, smooth)
        details.append(detail)
    assert smooth.size == 2 ** family.coarsest_level
    for detail in reversed(details):
        smooth = _synthesis_step(family, smooth, detail)
    bound = 1e-14 * float(np.linalg.norm(top))
    assert float(np.max(np.abs(smooth - top))) <= bound


def test_diagnostics_pass_for_db2():
    checks = basis_diagnostics(make_family(2), 10)
    for check in checks:
        print(check["name"], check["error"])
        assert check["passed"], check
