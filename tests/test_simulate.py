"""Simulator: marginals, dependence structure, catalog, and file round trips."""

import csv
import json
import math

import numpy as np
import pytest
from scipy.signal import lfilter
from scipy.special import ndtr, ndtri
from scipy.stats import kstest

from addwave import MixingProcessSpec, ScenarioSpec, simulate_dataset
from addwave import test_function as catalog_fn
from addwave.simulate import (
    _CHUNK,
    dataset_meta,
    fgm_density,
    gen_design,
    gen_responses,
    process_from_config,
    read_dataset_json,
    scenario_from_config,
    uniform_density,
    write_dataset_csv,
    write_dataset_json,
)

AR_PROCESS = MixingProcessSpec(dim=2, ar_coeff=0.6, copula_theta=0.5, seed=12)


def test_process_spec_validation():
    with pytest.raises(ValueError, match="dim"):
        MixingProcessSpec(dim=0)
    with pytest.raises(ValueError, match="dim"):
        MixingProcessSpec(dim=5)
    with pytest.raises(ValueError, match="ar_coeff"):
        MixingProcessSpec(dim=1, ar_coeff=1.0)
    with pytest.raises(ValueError, match="copula_theta"):
        MixingProcessSpec(dim=2, copula_theta=1.0)
    with pytest.raises(ValueError, match="dim == 2"):
        MixingProcessSpec(dim=1, copula_theta=0.5)


def test_marginals_uniform_after_thinning():
    # The KS null assumes independent draws, so the AR(0.6) chain is thinned
    # by 12 steps (0.6**12 is about 2e-3) before testing.  Measured p-values
    # at this seed: 0.4519 and 0.9864.
    x, _ = gen_design(AR_PROCESS, 60000)
    assert kstest(x[::12, 0], "uniform").pvalue > 0.01
    assert kstest(x[::12, 1], "uniform").pvalue > 0.01


def test_marginals_uniform_iid_full_sample():
    proc = MixingProcessSpec(dim=2, ar_coeff=0.0, copula_theta=0.0, seed=12)
    x, density = gen_design(proc, 60000)
    assert density is uniform_density(2)
    assert kstest(x[:, 0], "uniform").pvalue > 0.01
    assert kstest(x[:, 1], "uniform").pvalue > 0.01
    assert float(np.var(x[:, 0])) == pytest.approx(1.0 / 12.0, abs=2e-3)


def test_fgm_dependence_matches_theta():
    # FGM correlation is theta / 3; measured 0.17465 against 0.16667.
    x, density = gen_design(AR_PROCESS, 20000)
    corr = float(np.corrcoef(x[:, 0], x[:, 1])[0, 1])
    assert corr == pytest.approx(0.5 / 3.0, abs=0.02)
    assert density is fgm_density(0.5)
    assert density.floor == 0.5


def test_latent_memory_decays_geometrically():
    # Mapping the first coordinate back through the normal quantile recovers
    # the AR chain; log-autocorrelation over lags 1..5 should fall at a rate
    # near ln(0.6).  Measured slope -0.4737 against -0.5108.
    x, _ = gen_design(AR_PROCESS, 20000)
    z = ndtri(x[:, 0])
    acf = [float(np.corrcoef(z[:-lag], z[lag:])[0, 1]) for lag in range(1, 6)]
    slope = float(np.polyfit(np.arange(1, 6), np.log(acf), 1)[0])
    assert abs(slope - np.log(0.6)) < 0.15 * abs(np.log(0.6))


def _whole_array_draw(process, scenario, n, rep):
    """The simulator written with whole-length arrays: one (d, n) draw of
    stream (seed, rep, 0), one filter over whole rows, the FGM step on
    whole columns, and noise from stream (seed, rep, 1)."""
    z = np.random.default_rng((process.seed, rep, 0)).standard_normal(
        (process.dim, n))
    ar = process.ar_coeff
    if ar != 0.0 and n > 1:
        rest, _ = lfilter([math.sqrt(1.0 - ar * ar)], [1.0, -ar], z[:, 1:],
                          axis=1, zi=ar * z[:, :1])
        z = np.concatenate([z[:, :1], rest], axis=1)
    u = ndtr(z)
    theta = process.copula_theta
    if theta != 0.0:
        a = theta * (1.0 - 2.0 * u[0])
        u[1] = 2.0 * u[1] / (1.0 + a + np.sqrt((1.0 + a) ** 2
                                               - 4.0 * a * u[1]))
    x = u.T.copy()
    y = np.full(n, float(scenario.offset))
    for coord in range(1, process.dim + 1):
        y += scenario.component(coord)(x[:, coord - 1])
    half = scenario.noise_halfwidth
    if half > 0:
        y += np.random.default_rng((process.seed, rep, 1)).uniform(
            -half, half, n)
    return x, y


def test_simulator_chunks_match_whole_array_draw():
    processes = [MixingProcessSpec(dim=d, ar_coeff=ar, seed=30 + d)
                 for d in range(1, 5) for ar in (0.0, 0.7)]
    processes.append(MixingProcessSpec(dim=2, ar_coeff=0.6,
                                       copula_theta=-0.45, seed=35))
    names = ("sine", "bump", "step", "sawtooth")
    for n in (1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3):
        for proc in processes:
            for noise in (0.0, 0.5):
                scen = ScenarioSpec(components=names[:proc.dim], offset=0.3,
                                    noise_halfwidth=noise)
                data = simulate_dataset(proc, scen, n, rep=n % 5)
                x, y = _whole_array_draw(proc, scen, n, rep=n % 5)
                assert np.array_equal(data.x, x), (n, proc, noise)
                assert np.array_equal(data.y, y), (n, proc, noise)


def test_noiseless_responses_are_exact_sums():
    scen = ScenarioSpec(components=("sine", "bump"), offset=0.3,
                        noise_halfwidth=0.0)
    x, _ = gen_design(AR_PROCESS, 500)
    y = gen_responses(x, scen, AR_PROCESS.seed)
    manual = (0.3 + catalog_fn("sine")(x[:, 0])
              + catalog_fn("bump")(x[:, 1]))
    assert np.array_equal(y, manual)


def test_replications_reproducible_and_distinct():
    scen = ScenarioSpec(components=("sine", "bump"), offset=0.3,
                        noise_halfwidth=0.5)
    a = simulate_dataset(AR_PROCESS, scen, 256, rep=4)
    b = simulate_dataset(AR_PROCESS, scen, 256, rep=4)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.x, b.x)
    c = simulate_dataset(AR_PROCESS, scen, 256, rep=5)
    assert not np.array_equal(a.x, c.x)


def test_noise_stream_leaves_design_untouched():
    quiet = ScenarioSpec(components=("sine", "bump"), noise_halfwidth=0.0)
    loud = ScenarioSpec(components=("sine", "bump"), noise_halfwidth=1.0)
    a = simulate_dataset(AR_PROCESS, quiet, 128, rep=2)
    b = simulate_dataset(AR_PROCESS, loud, 128, rep=2)
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.y, b.y)


def test_catalog_functions_integrate_to_zero():
    m = 2 ** 20
    mids = (np.arange(m) + 0.5) / m
    for name in ["sine", "bump", "step", "sawtooth", "zero"]:
        mean = float(np.mean(catalog_fn(name)(mids)))
        assert abs(mean) < 1e-6
    # The step's jump at 0.45 is not a grid point: c = 471859 midpoints lie
    # below it (0.45 * m = 471859.2), so the midpoint mean is
    # (0.9 * (m - c) - 1.1 * c) / m = 0.4 / m exactly, not zero.  np.mean
    # sums pairwise and its rounding (of order 1e-15) follows the SIMD
    # path numpy picks; math.fsum is correctly rounded and order-free.
    # Its only gap to 0.4 / m, 2.8e-17, is the binary representation of
    # 0.9 and -1.1.  Moving the jump by one grid cell shifts the mean by
    # 1.9e-6; changing a level by 1e-12 shifts it by about 5.5e-13.
    step_mean = math.fsum(catalog_fn("step")(mids)) / m
    assert step_mean == pytest.approx(0.4 / m, abs=1e-16)


def test_catalog_sup_bounds_hold():
    grid = np.linspace(0.0, 1.0, 20001)
    for name in ["sine", "bump", "step", "sawtooth", "zero"]:
        fn = catalog_fn(name)
        assert float(np.max(np.abs(fn(grid)))) <= fn.sup_bound + 1e-12


def test_catalog_lookup_and_alias():
    with pytest.raises(ValueError, match="sine"):
        catalog_fn("wiggle")
    mids = (np.arange(64) + 0.5) / 64
    assert np.array_equal(catalog_fn("sawtooth-centered")(mids),
                          catalog_fn("sawtooth")(mids))


def test_scenario_config_parsing():
    scen = scenario_from_config(
        {"components": ["sine", "bump"], "mu": 0.3, "noise_halfwidth": 0.5})
    assert scen.components == ("sine", "bump")
    assert scen.offset == 0.3
    assert scen.response_bound() == pytest.approx(
        0.3 + 1.0 + catalog_fn("bump").sup_bound + 0.5)
    with pytest.raises(ValueError, match="missing field 'components'"):
        scenario_from_config({"mu": 0.3})
    with pytest.raises(ValueError, match="list of names"):
        scenario_from_config({"components": [1, 2]})


def test_process_config_parsing():
    proc = process_from_config({"ar_coeff": 0.6, "copula_theta": 0.5},
                               dim=2, seed=7)
    assert proc == MixingProcessSpec(dim=2, ar_coeff=0.6, copula_theta=0.5,
                                     seed=7)


def test_dataset_meta_digest_frozen():
    scen = ScenarioSpec(components=("sine", "bump"), offset=0.3,
                        noise_halfwidth=0.5)
    meta = dataset_meta(AR_PROCESS, scen, 128, 3)
    assert meta["spec_digest"] == "0b0afef9b3b4e287"
    assert meta["n"] == 128
    assert meta["scenario"]["mu"] == 0.3


def test_dataset_file_round_trip(tmp_path):
    scen = ScenarioSpec(components=("sine", "bump"), offset=0.3,
                        noise_halfwidth=0.5)
    data = simulate_dataset(AR_PROCESS, scen, 64, rep=1)
    meta = dataset_meta(AR_PROCESS, scen, 64, 1)

    json_path = tmp_path / "d.json"
    write_dataset_json(json_path, data, meta)
    back, meta_back = read_dataset_json(json_path)
    assert np.array_equal(back.y, data.y)
    assert np.array_equal(back.x, data.x)
    assert back.density is data.density
    assert meta_back["spec_digest"] == meta["spec_digest"]

    csv_path = tmp_path / "d.csv"
    write_dataset_csv(csv_path, data)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "y", "x1", "x2"]
    y_back = np.array([float(r[1]) for r in rows[1:]])
    x_back = np.array([[float(r[2]), float(r[3])] for r in rows[1:]])
    assert np.array_equal(y_back, data.y)
    assert np.array_equal(x_back, data.x)


def test_read_dataset_json_names_missing_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"y": [0.0], "x": [[0.5]]}))
    with pytest.raises(ValueError, match="'process'"):
        read_dataset_json(path)
