"""Simulator: marginals, dependence structure, catalog, and file round trips."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter
from scipy.special import ndtr, ndtri
from scipy.stats import kstest

from addwave import (MixingProcessSpec, ScenarioSpec, cascade_table,
                     make_family, simulate)
from addwave import simulate_dataset
from addwave import test_function as catalog_fn
from addwave.simulate import (
    _CHUNK,
    _SPAN,
    _block_steps,
    _repair,
    dataset_meta,
    fgm_density,
    gen_designs,
    gen_responses,
    process_from_config,
    read_dataset_json,
    scenario_from_config,
    simulate_datasets,
    uniform_density,
    write_dataset_csv,
    write_dataset_json,
)

AR_PROCESS = MixingProcessSpec(dim=2, ar_coeff=0.6, copula_theta=0.5, seed=12)
SRC = str(Path(__file__).resolve().parent.parent / "src")


def _design(process, n, rep=0):
    """Replication ``rep``'s design, drawn as a batch of one."""
    return gen_designs(process, n, rep, 1)[0].T


def test_process_spec_validation():
    with pytest.raises(ValueError, match="dim"):
        MixingProcessSpec(dim=0)
    with pytest.raises(ValueError, match="dim"):
        MixingProcessSpec(dim=5)
    with pytest.raises(ValueError, match="ar_coeff"):
        MixingProcessSpec(dim=1, ar_coeff=1.0)
    with pytest.raises(ValueError, match="copula_theta"):
        MixingProcessSpec(dim=2, copula_theta=1.0)
    # Each range check fails for NaN, so no NaN-floored density is built.
    with pytest.raises(ValueError, match="copula_theta"):
        MixingProcessSpec(dim=2, copula_theta=math.nan)
    with pytest.raises(ValueError, match="ar_coeff"):
        MixingProcessSpec(dim=1, ar_coeff=math.nan)
    with pytest.raises(ValueError, match="theta"):
        fgm_density(math.nan)
    with pytest.raises(ValueError, match="dim == 2"):
        MixingProcessSpec(dim=1, copula_theta=0.5)
    # The seed keys the streams; numpy would refuse -1 only at the first
    # draw, without naming it, and takes True as 1.
    for seed in (-1, 1.5, True, "3", None):
        with pytest.raises(ValueError, match="process field 'seed' must "
                                             "be an integer >= 0"):
            MixingProcessSpec(dim=1, seed=seed)
    assert MixingProcessSpec(dim=1, seed=np.int64(3)).seed == 3


@pytest.mark.parametrize("build, field", [
    (lambda: ScenarioSpec(("sine",), noise_halfwidth=math.nan),
     "'noise_halfwidth'"),
    (lambda: ScenarioSpec(("sine",), noise_halfwidth=math.inf),
     "'noise_halfwidth'"),
    (lambda: ScenarioSpec(("sine",), offset=math.nan), "'mu'"),
    (lambda: ScenarioSpec("sine"), "'components'"),
    (lambda: MixingProcessSpec(dim=2.5), "'dim'"),
    (lambda: MixingProcessSpec(dim=True), "'dim'"),
    (lambda: MixingProcessSpec(dim=2.0), "'dim'"),
    (lambda: MixingProcessSpec(dim=1, ar_coeff="0.5"), "'ar_coeff'"),
    (lambda: MixingProcessSpec(dim=1, ar_coeff=None), "'ar_coeff'"),
    (lambda: gen_designs(MixingProcessSpec(dim=1), 2.5, 0, 1), "n must"),
    (lambda: gen_designs(MixingProcessSpec(dim=1), 8, True, 1), "rep_start"),
    (lambda: cascade_table(make_family(2), 12.5), "depth")],
    ids=["noise-nan", "noise-inf", "mu-nan", "components-str", "dim-float",
         "dim-bool", "dim-integral-float", "ar-str", "ar-none",
         "n-float", "rep-bool", "depth-float"])
def test_direct_construction_and_calls_refuse_bad_values_by_name(build,
                                                                 field):
    # Built directly, each of these used to build (a NaN half-width then
    # drew no noise, an infinite one overflowed at the first draw, and
    # rep=True drew replication 1) or to fail with a TypeError deep inside.
    with pytest.raises(ValueError, match=field):
        build()


def test_specs_store_python_numbers():
    proc = MixingProcessSpec(dim=np.int64(2), ar_coeff=np.float32(0.5),
                             copula_theta=0, seed=np.int64(3))
    assert [type(v) for v in (proc.dim, proc.ar_coeff, proc.copula_theta,
                              proc.seed)] == [int, float, float, int]
    scen = ScenarioSpec(["sine"], offset=1, noise_halfwidth=np.int64(0))
    assert scen.components == ("sine",)
    assert type(scen.offset) is float and type(scen.noise_halfwidth) is float
    # A scenario built in the program may pass the config's 1e100 bound.
    assert ScenarioSpec(("zero",), noise_halfwidth=3e100).noise_halfwidth \
        == 3e100
    # Metadata of a numpy-seeded process is JSON, with floats as a config
    # gives them.
    meta = dataset_meta(proc, ScenarioSpec(("sine", "bump")), 8, 0)
    assert meta["process"]["copula_theta"] == 0.0
    assert json.loads(json.dumps(meta)) == meta


def test_replication_ranges_must_be_non_negative():
    scen = ScenarioSpec(components=("sine", "bump"))
    for rep_start, reps, text in ((-1, 2, "rep_start must be"),
                                  (0, -1, "reps must be")):
        with pytest.raises(ValueError, match=f"{text} an integer >= 0"):
            gen_designs(AR_PROCESS, 16, rep_start, reps)
        with pytest.raises(ValueError, match=f"{text} an integer >= 0"):
            simulate_datasets(AR_PROCESS, scen, 16, rep_start, reps)
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        simulate_datasets(AR_PROCESS, scen, 0, 0, 5)
    assert gen_designs(AR_PROCESS, 16, 3, 0).shape == (0, 2, 16)


def test_marginals_uniform_after_thinning():
    # The KS null assumes independent draws, so the AR(0.6) chain is thinned
    # by 12 steps (0.6**12 is about 2e-3) before testing.  Measured p-values
    # at this seed: 0.4519 and 0.9864.
    x = _design(AR_PROCESS, 60000)
    assert kstest(x[::12, 0], "uniform").pvalue > 0.01
    assert kstest(x[::12, 1], "uniform").pvalue > 0.01


def test_marginals_uniform_iid_full_sample():
    proc = MixingProcessSpec(dim=2, ar_coeff=0.0, copula_theta=0.0, seed=12)
    x = _design(proc, 60000)
    assert proc.density is uniform_density(2)
    assert kstest(x[:, 0], "uniform").pvalue > 0.01
    assert kstest(x[:, 1], "uniform").pvalue > 0.01
    assert float(np.var(x[:, 0])) == pytest.approx(1.0 / 12.0, abs=2e-3)


def test_fgm_dependence_matches_theta():
    # FGM correlation is theta / 3; measured 0.17465 against 0.16667.
    x = _design(AR_PROCESS, 20000)
    corr = float(np.corrcoef(x[:, 0], x[:, 1])[0, 1])
    assert corr == pytest.approx(0.5 / 3.0, abs=0.02)
    assert AR_PROCESS.density is fgm_density(0.5)
    assert AR_PROCESS.density.floor == 0.5


def test_latent_memory_decays_geometrically():
    # Mapping the first coordinate back through the normal quantile recovers
    # the AR chain; log-autocorrelation over lags 1..5 should fall at a rate
    # near ln(0.6).  Measured slope -0.4737 against -0.5108.
    x = _design(AR_PROCESS, 20000)
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


_SIZES = (1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3)


def _edge_sizes(process):
    """Sizes on both sides of the recursion's edges: the block length W
    and 2W, one pass holding all coordinates, and one span of values."""
    sizes = {3}
    if process.ar_coeff:
        w = _block_steps(process.ar_coeff)
        sizes |= {w - 1, w, w + 1, 2 * w - 1, 2 * w, 2 * w + 1}
    if process.ar_coeff in (0.0, 0.7, 0.99):
        per_row = _SPAN // process.dim
        sizes |= {per_row, per_row + 1, _SPAN + 3}
    return sorted(sizes - set(_SIZES))


def test_simulator_chunks_match_whole_array_draw():
    processes = [MixingProcessSpec(dim=d, ar_coeff=ar, seed=30 + d)
                 for d in range(1, 5) for ar in (0.0, 0.3, 0.7, 0.9, 0.99)]
    processes += [MixingProcessSpec(dim=2, ar_coeff=ar, copula_theta=-0.45,
                                    seed=35) for ar in (0.6, 0.99)]
    names = ("sine", "bump", "step", "sawtooth")
    for proc in processes:
        cases = [(n, noise) for n in _SIZES for noise in (0.0, 0.5)]
        cases += [(n, 0.5 * (n % 2)) for n in _edge_sizes(proc)]
        for n, noise in cases:
            scen = ScenarioSpec(components=names[:proc.dim], offset=0.3,
                                noise_halfwidth=noise)
            data = simulate_dataset(proc, scen, n, rep=n % 5)
            x, y = _whole_array_draw(proc, scen, n, rep=n % 5)
            assert np.array_equal(data.x, x), (n, proc, noise)
            assert np.array_equal(data.y, y), (n, proc, noise)


def test_blocks_that_fail_their_check_are_repaired(monkeypatch):
    # Blocks of 5 warmed up over 5 steps: nearly every boundary check
    # fails, and the sequential reruns alone must give the filter's values.
    monkeypatch.setattr(simulate, "_block_steps", lambda ar: 5)
    failed = []
    repair = simulate._repair

    def counting(steps, blocks, b, ar, m, lanes):
        failed.append(lanes.size)
        repair(steps, blocks, b, ar, m, lanes)

    monkeypatch.setattr(simulate, "_repair", counting)
    for ar in (0.3, 0.6, 0.9):
        proc = MixingProcessSpec(dim=2, ar_coeff=ar, seed=41)
        for n in (40, 501, 3000):
            x = _design(proc, n, 1)
            scen = ScenarioSpec(components=("sine", "bump"))
            assert np.array_equal(x, _whole_array_draw(proc, scen, n, 1)[0])
    assert sum(failed) > 1000
    # One chain past a span: the second pass starts from the first pass's
    # last value.  At _SPAN + 3 its two points are one block; at _SPAN + 41
    # it has blocks of its own to repair.
    proc = MixingProcessSpec(dim=1, ar_coeff=0.9, seed=43)
    scen = ScenarioSpec(components=("sine",))
    for n, passes in ((_SPAN + 3, 1), (_SPAN + 41, 2)):
        failed.clear()
        x = _design(proc, n, 2)
        assert np.array_equal(x, _whole_array_draw(proc, scen, n, 2)[0])
        assert len(failed) == passes and min(failed) > 0


def test_batched_replications_match_one_at_a_time():
    # At n = 2^15 two replications of dimension 2 fill a pass, so three
    # cross a batch edge; at n = 300 all five share one pass.
    processes = [AR_PROCESS, MixingProcessSpec(dim=3, ar_coeff=0.9, seed=4),
                 MixingProcessSpec(dim=1, seed=5)]
    for proc in processes:
        scen = ScenarioSpec(components=("sine", "bump", "step")[:proc.dim],
                            noise_halfwidth=0.5)
        for n, reps in ((1, 3), (300, 5), (2 ** 15, 3)):
            batch = list(simulate_datasets(proc, scen, n, 7, reps))
            assert len(batch) == reps
            for rep, data in enumerate(batch, 7):
                one = simulate_dataset(proc, scen, n, rep=rep)
                assert np.array_equal(data.x, one.x), (proc, n, rep)
                assert np.array_equal(data.y, one.y), (proc, n, rep)
                # Column-major, so each coordinate's pass is contiguous.
                assert data.x.flags.f_contiguous


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([MixingProcessSpec(dim=1, seed=5), AR_PROCESS,
                        MixingProcessSpec(dim=3, ar_coeff=0.3, seed=4)]),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=-1, max_value=1),
       st.integers(min_value=0, max_value=2 ** 20),
       st.integers(min_value=1, max_value=7))
def test_batched_replications_match_one_at_a_time_property(proc, per, edge,
                                                           rep_start, reps):
    # n on either side of the size at which ``per`` replications fill a
    # span, where the batch size steps down, and up to 7 replications,
    # which cross batch edges.
    n = _SPAN // (proc.dim * per) + edge
    scen = ScenarioSpec(components=("sine", "bump", "step")[:proc.dim],
                        noise_halfwidth=0.5)
    batch = list(simulate_datasets(proc, scen, n, rep_start, reps))
    assert len(batch) == reps
    for rep, data in enumerate(batch, rep_start):
        one = simulate_dataset(proc, scen, n, rep)
        assert np.array_equal(data.x, one.x)
        assert np.array_equal(data.y, one.y)


def test_chains_sharing_passes_shorter_than_n_match_one_at_a_time():
    # 64 replications of n = 2^12 are 128 chains in passes of 1024 points;
    # three past a span are 6 chains in passes of a sixth of a span.
    scen = ScenarioSpec(components=("sine", "bump"))
    for ar in (0.6, 0.99):
        proc = MixingProcessSpec(dim=2, ar_coeff=ar, copula_theta=0.5,
                                 seed=17)
        for n, reps in ((2 ** 12, 64), (_SPAN + 5, 3)):
            designs = gen_designs(proc, n, 0, reps)
            for rep, x in enumerate(designs):
                assert np.array_equal(x.T, _design(proc, n, rep))
            assert np.array_equal(designs[-1].T, _whole_array_draw(
                proc, scen, n, reps - 1)[0]), (ar, n)


def test_block_repair_runs_on_into_the_next_block():
    # Block 1 starts one unit off and, at 8 steps a block, is still off at
    # its end; block 2 went on from that wrong end, as if its warm-up had
    # matched it, so only block 1 is flagged.  The rerun of block 1 must
    # carry on into block 2 and stop in block 3, which is exact.
    ar, w, m = 0.6, 8, 4
    b = math.sqrt(1.0 - ar * ar)
    z = np.random.default_rng(5).standard_normal(m * w)
    exact = np.concatenate([z[:1], lfilter([b], [1.0, -ar], z[1:],
                                           zi=ar * z[:1])[0]])
    wrong = exact.copy()
    y = exact[w - 1] + 1.0
    for i in range(w, 3 * w):
        y = ar * y + b * z[i]
        wrong[i] = y
    assert wrong[3 * w - 1] != exact[3 * w - 1]
    steps = wrong.reshape(m, w).T.copy()
    _repair(steps, z.reshape(m, w), b, ar, m, np.array([1]))
    assert np.array_equal(steps.T.reshape(-1), exact)


def _ndtr_bits(a, out, chunk=_CHUNK):
    simulate._ndtr(a, out, np.empty((simulate._NDTR_ROWS,
                                     min(a.size, chunk))))
    return out.view(np.int64)


def test_ndtr_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(2024)
    edges = [0.0, 1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 38.0, 40.0,
             np.inf, 5e-324, 1e300]
    draws = [rng.standard_normal(2 ** 22), 6.0 * rng.standard_normal(2 ** 20),
             np.array(edges + [-v for v in edges])]
    for a in draws:
        expect = ndtr(a).view(np.int64)
        assert np.array_equal(_ndtr_bits(a, np.empty_like(a)), expect)
        column = np.zeros((a.size, 3))[:, 1]
        assert np.array_equal(_ndtr_bits(a, column), expect)
        assert not column.flags.contiguous
        inplace = a.copy()
        assert np.array_equal(_ndtr_bits(inplace, inplace), expect)
    # Short chunks: many chunks, each finishing its own erfc tail.
    a = draws[0][:2 ** 16]
    assert np.array_equal(_ndtr_bits(a, np.empty_like(a), chunk=777),
                          ndtr(a).view(np.int64))
    out = np.empty(3)
    simulate._ndtr(np.array([np.nan, 1.0, -np.nan]), out,
                   np.empty((simulate._NDTR_ROWS, 3)))
    assert np.isnan(out[[0, 2]]).all() and out[1] == ndtr(1.0)


@pytest.mark.parametrize("chunk", [1, 777, _CHUNK])
def test_ndtr_tail_runs_in_the_chunk_that_found_it(chunk):
    # Chunk by chunk: every value in the erfc tail (|a| >= sqrt 2), none,
    # then tail values at a chunk's first and last index only.  Each chunk
    # finishes its own tail, into contiguous, strided and in-place out.
    rng = np.random.default_rng(30)
    sign = np.where(rng.random(chunk) < 0.5, -1.0, 1.0)
    tail = sign * rng.uniform(math.sqrt(2.0), 9.0, chunk)
    body = rng.uniform(-1.4, 1.4, chunk)
    edges = body.copy()
    edges[[0, -1]] = [-3.5, 12.0] if chunk > 1 else [2.5]
    a = np.concatenate([tail, body, edges, body[:chunk // 2 + 1]])
    expect = ndtr(a).view(np.int64)
    assert np.array_equal(_ndtr_bits(a, np.empty_like(a), chunk), expect)
    column = np.zeros((a.size, 2))[:, 1]
    assert np.array_equal(_ndtr_bits(a, column, chunk), expect)
    inplace = a.copy()
    assert np.array_equal(_ndtr_bits(inplace, inplace, chunk), expect)


README_SWEEP = {"scenario": {"components": ["sine", "bump"], "mu": 0.3,
                             "noise_halfwidth": 0.5},
                "process": {"ar_coeff": 0.6, "copula_theta": 0.5},
                "n_grid": [1024, 4096, 16384, 65536], "reps": 1,
                "master_seed": 21, "kappa": 1.0}


# Only a pool of two or more workers needs concurrent.futures.process.
@pytest.mark.parametrize("code, unloaded", [
    ("import addwave.cli", ("scipy", "concurrent.futures.process")),
    ("import addwave\n"
     "proc = addwave.MixingProcessSpec(dim=2, ar_coeff=0.6, seed=1)\n"
     "scen = addwave.ScenarioSpec(components=('sine', 'bump'))\n"
     "addwave.simulate_dataset(proc, scen, 2 ** 14)", ("scipy",)),
    ("from addwave import cli\n"
     f"cli.run_experiment(cli.parse_experiment_config({README_SWEEP!r}))",
     ("scipy", "concurrent.futures.process"))],
    ids=["import-cli", "ar-simulation", "readme-sweep"])
def test_modules_left_unloaded(code, unloaded):
    probe = (f"{code}\nimport sys\n"
             "print(sorted(m for m in sys.modules for u in "
             f"{unloaded!r} if m == u or m.startswith(u + '.')))")
    env = {k: v for k, v in os.environ.items() if k != "ADDWAVE_WORKERS"}
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env=dict(env, PYTHONPATH=SRC)).stdout
    assert out.strip() == "[]"


def test_noiseless_responses_are_exact_sums():
    scen = ScenarioSpec(components=("sine", "bump"), offset=0.3,
                        noise_halfwidth=0.0)
    x = _design(AR_PROCESS, 500)
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
    # The catalog holds exactly the README's names; there is no alias.
    with pytest.raises(ValueError, match="sine"):
        catalog_fn("wiggle")
    with pytest.raises(ValueError, match="unknown test function "
                                         "'sawtooth-centered'; catalog: "
                                         "bump, sawtooth, sine, step, zero$"):
        catalog_fn("sawtooth-centered")


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
    # A misspelt key would otherwise draw an independent design.
    with pytest.raises(ValueError, match="unknown key 'copula_thetta'"):
        process_from_config({"ar_coeff": 0.6, "copula_thetta": 0.5}, 2, 7)
    with pytest.raises(ValueError, match="unknown key 'noise'"):
        scenario_from_config({"components": ["sine"], "noise": 0.5})


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


@pytest.mark.parametrize("y, x, field", [
    ([0.0, 1.0], [[0.5], [0.25, 0.75]], "'x' must be a list of equal-length"),
    ([0.0, "abc"], [[0.5], [0.25]], "'y' must be a list of numbers"),
    ([0.0, "1.5"], [[0.5], [0.25]], "'y' must be a list of numbers"),
    ([0.0, None], [[0.5], [0.25]], "'y' must be a list of numbers"),
    ([0.0, 1.0], [[0.5], ["0.25"]], "'x' must be a list of equal-length"),
    ([0.0, True], [[0.5], [0.25]], "'y' must be a list of numbers"),
    ([0.0, 1.0], [[0.5], [True]], "'x' must be a list of equal-length"),
    ([0.0, 1.0], [[0.5, 0.5], [0.25, False]],
     "'x' must be a list of equal-length")],
    ids=["x-ragged", "y-str", "y-numeric-str", "y-null", "x-str", "y-bool",
         "x-bool", "x-bool-last"])
def test_read_dataset_json_names_malformed_arrays(tmp_path, y, x, field):
    # Each used to fail in numpy's words, or to read a string or a bool
    # as a number.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"process": {"dim": 1}, "y": y, "x": x}))
    with pytest.raises(ValueError, match=f"^dataset field {field}"):
        read_dataset_json(path)
