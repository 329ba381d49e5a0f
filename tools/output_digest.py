"""Print one SHA-256 over a fixed set of program outputs, and one per part.

    python3 tools/output_digest.py [--src DIR] [--parts]
    python3 tools/output_digest.py [--src DIR] --against OTHER_SRC

Two source trees whose outputs agree bit for bit print the same digest,
so running this at a parent commit and at a change shows whether the
change moved any output.  ``--src`` names the ``src/`` directory to
import ``addwave`` from (by default this checkout's); ``--parts`` also
prints each part's digest, to find which output moved.

``--against`` makes the outputs of both trees, in two processes, and
prints for each part whether it is identical and, if not, how far it
moved from OTHER_SRC's values: how many values changed, the largest
absolute change and the largest relative one, how many ``kept`` entries
differ (threshold flags in fit JSON, kept counts in reports and in the
``estimate`` summary) and how many other entries differ (strings, flags,
lengths).  A relative change divides by the largest magnitude of its
array, or of its key within one JSON document or CSV column; for level
sums it divides by ``sum|w| * 2**(level/2) * max|table|``, the bound on
the sum of the points' values, so a move of a few 1e-16 is rounding.

The parts: simulated datasets (i.i.d., AR and AR + FGM processes, dims 1
to 4, sizes on both sides of the simulator's and the stencil's chunk
edges, with and without noise); the normal CDF on edge values and 2^16
fixed draws, and on a chunk of erfc-tail values only followed by a chunk
with none, at chunks of ``_CHUNK`` and of 777 values (``simulate/ndtr``),
so that a numpy whose complex ``exp`` moves, or a change to the tail,
shows there first; the stored fields of directly built process and
scenario specs and the error text of refused ones, some with two faults
so that the order of the checks shows, the error text of refused design
densities (no evaluator, a NaN floor, a dim out of range), and the errors
of draws asked for with a size or replication that is not an integer
(``simulate/specs``);
batches of designs whose chains share passes of the recursion shorter
than n (``simulate/batches``); the values or error text of basis calls
with an index or coord that is not an integer, out of range or of an
unknown kind, among them a replication target that equals an earlier
one's group key, of ``mc_moments`` asked for too few replications or
for ``True`` of them, of ``tail_frequency`` given a NaN or infinite
``kappa`` or an ``n`` of 1 or 0, of ``threshold_scale`` given an ``n``
of 2.5, and of ``ise``, ``rate_fit``, ``replicate_coeffs`` and
``calibrate_threshold`` given a grid size, sample size, replication
count or ``n`` that is not an integer, and of calls given ``None`` for
a table's family, a fit's config or a response transform, a NaN weight
(in the first chunk of points and in a later one), sample or
coefficient, or a fit whose squared error overflows (``basis/index``);
the filters ``make_family(r).low_pass`` for r = 1..10 (``wavelet/taps``),
which shows how far the filters moved and not only what was built from
them;
both filter-bank steps, ``_analysis_step`` and ``_synthesis_step``, on
fixed inputs with signed zeros at the coarsest level and three above it
for R in {1, 2, 4, 10} (``wavelet/bank``), so a change to the bank shows
there and not only through fit JSON;
``weighted_level_sums`` and the one-level gather of ``evaluate_series``
(of a series of levels 3 to 6 carried by the filter bank to level 7, and
of a level-7 one) for R in {1, 2, 4, 10}; the same two at points off
the unit interval, each class alone: negative, tiny positive and beyond
1 (``wavelet/offunit``); the stencil's raw yields (each chunk's start,
cells, offset and values) for R in {1, 2, 4, 10}, both kinds, at levels
0, 5 and 20, at edge points (0, 1, 1 - 2^-53, +-2^-60, -5e-324) in two
chunks with random points between them (``wavelet/stencil``), so a
change to how the stencil reads its table shows before it shows in the
sums; ``fit_component`` JSON and
``eval_estimate``; ``replicate_coeffs`` and ``calibrate_threshold``; the
parsed fields and ``echo()`` of experiment configs, alone and under
command-line options, and the error text of refused ones, some with two
faults so that the order of the checks shows (``cli/config``);
``run_experiment`` reports with every ``runtime_ms`` removed; and the
files and stdout of the ``simulate`` and ``estimate`` commands, with the
temporary directory's name removed, and the exit code, stderr and stdout
of ``estimate`` on a dataset file whose design holds a bool.  Arrays are
hashed by dtype, shape and bytes, reports as sorted JSON.  A run takes a
few seconds.

``_designs`` reads ``gen_designs``' ``(reps, d, n)`` batch array as a
list of ``(n, d)`` designs, the form ``simulate_dataset`` stores.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import multiprocessing
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# Sizes on both sides of 2**14 and 2**15 and past them: one-chunk and
# many-chunk runs of the simulator and the stencil for either chunk length.
SIZES = (1, 2, 3, 1000, 2 ** 14 - 1, 2 ** 14, 2 ** 14 + 1, 2 ** 15 - 1,
         2 ** 15, 2 ** 15 + 1, 2 ** 16 + 3, 2 ** 17 + 3)
PROCESSES = (  # dim, ar_coeff, copula_theta, seed
    (1, 0.0, 0.0, 3), (2, 0.0, -0.7, 4), (3, 0.3, 0.0, 5),
    (4, 0.99, 0.0, 6), (2, 0.6, 0.5, 7), (2, 0.9, -0.4, 8))
COMPONENTS = ("sine", "bump", "step", "sawtooth")


class Digest:
    """Named SHA-256 parts and one digest over all of them; with a
    ``sink``, each output is also passed to it as ``(part, record)``."""

    def __init__(self, sink=None):
        self.parts = {}
        self.sink = sink

    def part(self, name: str):
        return self.parts.setdefault(name, hashlib.sha256())

    def array(self, name: str, value, scale: float | None = None) -> None:
        a = np.ascontiguousarray(value)
        h = self.part(name)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
        if self.sink:
            self.sink(name, ("array", a, scale))

    def text(self, name: str, value: str, form: str = "text") -> None:
        """``form`` tells the diff how to read ``value``: ``json``,
        ``lines`` (one JSON document a line), ``csv`` or plain ``text``."""
        self.part(name).update(value.encode())
        if self.sink:
            self.sink(name, (form, value, None))

    def json(self, name: str, value) -> None:
        self.text(name, json.dumps(value, sort_keys=True), "json")

    def total(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.parts):
            h.update(f"{name}:{self.parts[name].hexdigest()}\n".encode())
        return h.hexdigest()


def _designs(aw, process, n, rep_start, reps):
    """The ``(n, d)`` designs of replications ``rep_start`` on, drawn as
    one batch."""
    return [x.T for x in aw.simulate.gen_designs(process, n, rep_start, reps)]


def _strip_runtimes(value):
    if isinstance(value, dict):
        return {k: _strip_runtimes(v) for k, v in value.items()
                if k != "runtime_ms"}
    if isinstance(value, list):
        return [_strip_runtimes(v) for v in value]
    return value


def simulated(dig, aw):
    for dim, ar, theta, seed in PROCESSES:
        proc = aw.MixingProcessSpec(dim=dim, ar_coeff=ar, copula_theta=theta,
                                    seed=seed)
        for noise in (0.0, 0.5):
            scen = aw.ScenarioSpec(components=COMPONENTS[:dim], offset=0.3,
                                   noise_halfwidth=noise)
            for n in SIZES:
                data = aw.simulate_dataset(proc, scen, n, rep=n % 7)
                name = f"simulate/d{dim}-ar{ar}-fgm{theta}"
                dig.array(name, data.x)
                dig.array(name, data.y)


def normal_cdf(dig, aw):
    """The simulator's normal CDF on edge values and 2^16 fixed draws, then
    on a chunk of erfc-tail values only (|a| >= sqrt 2) followed by a chunk
    with none, at chunks of ``_CHUNK`` and of 777 values."""
    edges = [0.0, 1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0), 38.0, 40.0, np.inf]
    rng = np.random.default_rng(14)
    sim = aw.simulate
    inputs = [(np.concatenate([edges, np.negative(edges),
                               rng.standard_normal(2 ** 16)]), sim._CHUNK)]
    for chunk in (sim._CHUNK, 777):
        sign = np.where(rng.random(chunk) < 0.5, -1.0, 1.0)
        inputs.append((np.concatenate([
            sign * rng.uniform(np.sqrt(2.0), 12.0, chunk),
            rng.uniform(-1.4, 1.4, chunk)]), chunk))
    for a, chunk in inputs:
        out = np.empty_like(a)
        sim._ndtr(a, out, np.empty((sim._NDTR_ROWS, chunk)))
        dig.array("simulate/ndtr", out)


NAN, INF = float("nan"), float("inf")
# Direct constructions of the two specs: (type, keyword arguments).  Some
# are accepted, with numpy scalars and ints among the numbers; some are
# refused, a few with two faults so that the order of the checks shows.
SPECS = (
    ("process", {"dim": 2, "ar_coeff": 0.6, "copula_theta": 0.5, "seed": 7}),
    ("process", {"dim": np.int64(2), "ar_coeff": np.float32(0.5),
                 "copula_theta": np.float64(-0.25), "seed": np.int64(3)}),
    ("process", {"dim": 1, "ar_coeff": 0, "copula_theta": 0}),
    ("process", {"dim": 2.5}), ("process", {"dim": True}),
    ("process", {"dim": 2.0}), ("process", {"dim": "2"}),
    ("process", {"dim": 0}), ("process", {"dim": 5}),
    ("process", {"dim": 1, "ar_coeff": "0.5"}),
    ("process", {"dim": 1, "ar_coeff": None}),
    ("process", {"dim": 1, "ar_coeff": True}),
    ("process", {"dim": 1, "ar_coeff": NAN}),
    ("process", {"dim": 1, "ar_coeff": np.float32(NAN)}),
    ("process", {"dim": 1, "ar_coeff": 1.0}),
    ("process", {"dim": 2, "copula_theta": INF}),
    ("process", {"dim": 2, "copula_theta": -1.0}),
    ("process", {"dim": 1, "copula_theta": 0.5}),
    ("process", {"dim": 1, "seed": -1}), ("process", {"dim": 1, "seed": 1.5}),
    ("process", {"dim": 2.5, "seed": -1}),
    ("process", {"dim": 2.5, "ar_coeff": "x"}),
    ("process", {"dim": 5, "ar_coeff": NAN}),
    ("process", {"dim": 2, "ar_coeff": 1.5, "copula_theta": "x"}),
    ("process", {"dim": 2, "ar_coeff": 1.5, "copula_theta": 2.0}),
    ("scenario", {"components": ("sine", "bump"), "offset": 0.3,
                  "noise_halfwidth": 0.5}),
    ("scenario", {"components": ["sine"], "offset": np.float32(0.25),
                  "noise_halfwidth": np.int64(1)}),
    ("scenario", {"components": ("step",), "offset": 1, "noise_halfwidth": 0}),
    # No magnitude bound outside a config: a calibration pilot's noise.
    ("scenario", {"components": ("zero",), "noise_halfwidth": 3e100}),
    ("scenario", {"components": ("sine",), "noise_halfwidth": NAN}),
    ("scenario", {"components": ("sine",), "noise_halfwidth": INF}),
    ("scenario", {"components": ("sine",), "noise_halfwidth": -1.0}),
    ("scenario", {"components": ("sine",), "offset": NAN}),
    ("scenario", {"components": ("sine",), "offset": None}),
    ("scenario", {"components": ("sine",), "offset": True}),
    ("scenario", {"components": "sine"}), ("scenario", {"components": ()}),
    ("scenario", {"components": ("sine", 3)}),
    ("scenario", {"components": ("wiggle",)}),
    ("scenario", {"components": "sine", "offset": NAN}),
    ("scenario", {"components": ("wiggle",), "offset": NAN}),
    ("scenario", {"components": ("sine",), "offset": NAN,
                  "noise_halfwidth": -1.0}),
    ("scenario", {"components": ("wiggle",), "noise_halfwidth": -1.0}),
    ("density", {"dim": 2, "evaluator": None, "floor": 1.0}),
    ("density", {"dim": 5, "evaluator": None, "floor": NAN}),
    ("density", {"dim": 2.0, "evaluator": None, "floor": 1.0}))


def _stored(value):
    """A stored field as its type's name and a JSON value (a ``repr``
    where JSON has no form for it)."""
    kind = type(value).__name__
    try:
        json.dumps(value)
    except TypeError:
        value = repr(value)
    return [kind, value]


def specs(dig, aw):
    """The fields each of ``SPECS`` stored, or the error it raised, of any
    type, so that a tree that fails deep inside shows it; then the same for
    draws and a table asked for with a size, replication or depth that is
    not an integer."""
    def record(build):
        try:
            value = build()
        except Exception as exc:
            dig.text("simulate/specs", f"{type(exc).__name__}: {exc}")
            return
        if dataclasses.is_dataclass(value):
            value = {f.name: _stored(getattr(value, f.name))
                     for f in dataclasses.fields(value)}
        dig.json("simulate/specs", value)

    types = {"process": aw.MixingProcessSpec, "scenario": aw.ScenarioSpec,
             "density": aw.DesignDensity}
    for kind, kwargs in SPECS:
        record(lambda: types[kind](**kwargs))
    proc = aw.MixingProcessSpec(dim=1, ar_coeff=0.5, seed=2)
    for args in ((2.5, 0), (8, True), (8, -1), (0, 0), ("8", 0)):
        record(lambda: _designs(aw, proc, *args, 1)[0].tolist())
    for args in ((8, 0, 1.5), (8, np.int64(1), np.int64(2))):
        record(lambda: [x.tolist() for x in _designs(aw, proc, *args)])
    record(lambda: aw.cascade_table(aw.make_family(2), 12.5))


def batches(dig, aw):
    """Designs drawn as one batch whose chains share passes shorter than
    n: 64 replications of 2^12 points, and 3 just past a 2^17-value span."""
    for ar in (0.6, 0.99):
        proc = aw.MixingProcessSpec(dim=2, ar_coeff=ar, copula_theta=0.5,
                                    seed=17)
        for n, reps in ((2 ** 12, 64), (2 ** 17 + 5, 3)):
            for x in _designs(aw, proc, n, 0, reps):
                dig.array("simulate/batches", x)


def basis_index(dig, aw):
    """The value, or the error of any type, of basis calls given a level,
    shift or coord that is not an integer, a negative shift, or an unknown
    kind, of ``mc_moments`` given fewer than 1000 replications or
    ``True`` of them, of ``tail_frequency`` given a NaN or infinite
    ``kappa`` or an ``n`` of 1 or 0, and of calls given a grid size,
    sample size, count of replications or ``n`` that is not an integer,
    ``threshold_scale`` among them, or ``None`` for a family, a config or
    a response transform, or a weight, sample or coefficient that is not
    finite, and of an ISE that overflows; a tree that returns a value or
    fails deep inside shows it."""
    def record(call):
        try:
            value = np.asarray(call(), dtype=float).tolist()
        except Exception as exc:
            dig.text("basis/index", f"{type(exc).__name__}: {exc}")
            return
        dig.json("basis/index", value)

    table = aw.cascade_table(aw.make_family(2), 12)
    proc = aw.MixingProcessSpec(dim=2, seed=3)
    scen = aw.ScenarioSpec(components=("sine", "bump"))
    data = aw.simulate_dataset(proc, scen, 64)
    x, grid = np.linspace(0.0, 1.0, 9), np.zeros((256, 256))
    ones, late = np.ones(8), np.linspace(0.0, 1.0, 2 ** 14 + 5)
    calls = (
        lambda: aw.eval_periodized(table, "wavelet", 2.5, 0, x),
        lambda: aw.eval_periodized(table, "wavelet", 2, 1.5, x),
        lambda: aw.haar_closed_form("linear", "scaling", 2.5, 1),
        lambda: aw.haar_closed_form("linear", "ripple", 2, 1),
        lambda: aw.collapsed_sum(table, "wavelet", 2.5, 0, 1, data.x),
        lambda: aw.collapsed_sum(table, "wavelet", 2.5, 0, 1, data.x,
                                 literal=True),
        lambda: aw.collapsed_sum(table, "ripple", 1, 0, 1, data.x,
                                 literal=True),
        lambda: aw.collapsed_sum(table, "wavelet", 2, 0, 1.0, data.x),
        lambda: aw.empirical_coeff(data, scen.rho_spec(), table, "wavelet",
                                   2.5, 0, 1),
        lambda: aw.tensor_coeff(table, grid, "wavelet", 2, 1.5, 1),
        lambda: aw.tensor_coeff(table, grid, "wavelet", 2, 1, 1.5),
        lambda: aw.expected_coeff(table, scen, "wavelet", 3, -1, 1),
        lambda: aw.TensorIndex(2.5, (0, 1), 1).level,
        lambda: aw.TensorIndex(2, (0, 1.0), 1).level,
        lambda: aw.weighted_level_sums(table, "wavelet", 2.0, x, x),
        lambda: aw.level_coeffs(table, "wavelet", 3.0, x),
        lambda: aw.evaluate_series(table, 2.0, ones[:4], x),
        lambda: aw.mc_moments(proc, scen, table, "wavelet", 2.0, 0, 1, 64,
                              2).mean_hat,
        lambda: aw.replicate_coeffs(proc, scen, table, [("ripple", 2, 0, 1)],
                                    n=64, reps=2),
        lambda: aw.replicate_coeffs(proc, scen, table,
                                    [("wavelet", 2, 1.0, 1)], n=64, reps=2),
        lambda: aw.replicate_coeffs(proc, scen, table,
                                    [("wavelet", 2, 0, 1.5)], n=64, reps=2),
        lambda: scen.component(1.5)(x),
        lambda: data.column(1.5),
        lambda: data.column(True),
        lambda: aw.replicate_coeffs(proc, scen, table,
                                    [("wavelet", 2, 0, 1),
                                     ("wavelet", 2.0, 1, True)], n=64, reps=2),
        lambda: aw.mc_moments(proc, scen, table, "wavelet", 2, 0, 1, 64,
                              500).mean_hat,
        lambda: aw.tail_frequency(proc, scen, table, 2, 1, 1, kappa=NAN,
                                  n=4096, reps=20),
        lambda: aw.tail_frequency(proc, scen, table, 2, 1, 1, kappa=INF,
                                  n=4096, reps=20),
        lambda: aw.ise(aw.fit_component(data, scen.rho_spec(), table), table,
                       scen.component(1), grid_size=2048.5),
        lambda: aw.rate_fit([(256, 0.1), (512, 0.05), (1024, 0.03),
                             (4096.9, 0.02)]).slope,
        lambda: aw.replicate_coeffs(proc, scen, table, [("wavelet", 2, 0, 1)],
                                    n=64, reps=2.5),
        lambda: aw.replicate_coeffs(proc, scen, table, [("wavelet", 2, 0, 1)],
                                    n=64.5, reps=2),
        lambda: aw.calibrate_threshold(proc, scen, table, n=1024, reps=2.5),
        lambda: aw.tail_frequency(proc, scen, table, 2, 1, 1, kappa=1.0,
                                  n=1, reps=20),
        lambda: aw.tail_frequency(proc, scen, table, 2, 1, 1, kappa=1.0,
                                  n=0, reps=20),
        lambda: aw.mc_moments(proc, scen, table, "wavelet", 2, 0, 1, 64,
                              True).mean_hat,
        lambda: aw.threshold_scale(2.5),
        lambda: aw.cascade_table(None, 12),
        lambda: aw.fit_component(data, scen.rho_spec(), table, config=None),
        lambda: aw.estimate_mean(data, None),
        lambda: aw.empirical_coeff(data, None, table, "wavelet", 2, 0, 1),
        lambda: aw.weighted_level_sums(table, "wavelet", 2, x,
                                       np.where(x > 0.5, NAN, 1.0)),
        lambda: aw.weighted_level_sums(table, "scaling", 3, late,
                                       np.where(late == 1.0, NAN, 1.0)),
        lambda: aw.level_coeffs(table, "wavelet", 2, np.array([0.5, NAN])),
        lambda: aw.evaluate_series(table, 2, np.array([0.0, INF, 0.0, 0.0]),
                                   x),
        lambda: _overflowing_ise(aw))
    for call in calls:
        record(call)


def _overflowing_ise(aw):
    """The ISE of an R = 10 fit to 4096 responses of 1e120 at x = 0.5e-100,
    where the density 2x sits at its least floor, 1e-100."""
    table = aw.cascade_table(aw.make_family(10), 12)
    density = aw.DesignDensity(1, lambda p: 2.0 * p[:, 0], 1e-100)
    data = aw.Dataset(y=np.full(4096, 1e120), x=np.full((4096, 1), 0.5e-100),
                      density=density)
    est = aw.fit_component(data, aw.identity_rho(), table)
    return aw.ise(est, table, aw.test_function("sine"), 2048)


def filters(dig, aw):
    for r in range(1, 11):
        dig.array("wavelet/taps", aw.make_family(r).low_pass)


def filter_bank(dig, aw):
    """Both filter-bank steps on fixed inputs holding +0.0 and -0.0, among
    them all-zero ones, whose outputs' signs of zero the digest sees."""
    rng = np.random.default_rng(15)
    for r in (1, 2, 4, 10):
        family = aw.make_family(r)
        for level in range(family.coarsest_level, family.coarsest_level + 4):
            size = 2 ** level
            for a, b in (rng.standard_normal((2, size)),
                         np.full((2, size), -0.0),
                         np.stack([np.zeros(size), np.full(size, -0.0)])):
                a[::3], b[1::3] = -0.0, 0.0
                for out in (aw.wavelet._synthesis_step(family, a, b),
                            *aw.wavelet._analysis_step(
                                family, np.concatenate([a, b]))):
                    dig.array("wavelet/bank", out)


def _level_sums(dig, name, aw, table, x, w, levels):
    """``weighted_level_sums`` of both kinds at each of ``levels``."""
    for kind in ("scaling", "wavelet"):
        peak = np.max(np.abs(table.phi_samples if kind == "scaling"
                             else table.psi_samples))
        for level in levels:
            dig.array(name, aw.weighted_level_sums(table, kind, level, x, w),
                      scale=np.sum(np.abs(w)) * 2.0 ** (level / 2) * peak)


def wavelet_sums_and_series(dig, aw):
    proc = aw.MixingProcessSpec(dim=2, ar_coeff=0.6, copula_theta=0.5, seed=9)
    scen = aw.ScenarioSpec(components=("sine", "bump"), noise_halfwidth=0.5)
    data = aw.simulate_dataset(proc, scen, 2 ** 16 + 3, rep=1)
    x, w = data.x[:, 0], data.y
    coeffs = np.random.default_rng(9).standard_normal(2 ** 7)
    for r in (1, 2, 4, 10):
        table = aw.cascade_table(aw.make_family(r), 12)
        name = f"wavelet/R{r}"
        _level_sums(dig, name, aw, table, x, w, (0, 3, 7, 12))
        fine = coeffs[:8]
        for j in range(3, 7):
            fine = aw.wavelet._synthesis_step(table.family, fine,
                                              coeffs[:2 ** j])
        dig.array(name, aw.evaluate_series(table, 7, fine, x, offset=0.25))
        dig.array(name, aw.evaluate_series(table, 7, coeffs, x[:1000]))


# Points that no fit produces, by class: the stencil's position at each
# is exact, or within rounding of it for a point just below 0.
OFF_UNIT = (
    np.array([-0.3, -1.7, -0.5 - 2.0 ** -54, -2.0 ** -20, -2.0 ** -60,
              -5e-324]),
    np.array([2.0 ** -20, 2.0 ** -60, 2.0 ** -1022, 5e-324]),
    np.array([1.25, 1.0 + 2.0 ** -52, 2.0 + 2.0 ** -51, 3.3, 1e6 + 0.1]))


def off_unit(dig, aw):
    rng = np.random.default_rng(13)
    coeffs = rng.standard_normal(2 ** 7)
    for r in (1, 2, 4, 10):
        table = aw.cascade_table(aw.make_family(r), 12)
        for x in OFF_UNIT:
            _level_sums(dig, "wavelet/offunit", aw, table, x,
                        rng.standard_normal(x.size), (0, 3, 7))
            for level in (0, 7):
                dig.array("wavelet/offunit",
                          aw.evaluate_series(table, level,
                                             coeffs[:2 ** level], x))


# The stencil's edge points: the ends of the unit interval, the largest
# point below 1, and points at and just below 0.
STENCIL_EDGES = np.array([0.0, 1.0, 1.0 - 2.0 ** -53, 2.0 ** -60, -2.0 ** -60,
                          -5e-324])


def stencil(dig, aw):
    """``_stencil``'s raw yields, ``(start, cell, offset, vals)``, at the
    edge points in a first chunk and a second one, with random points
    between them, so a change to how the stencil reads its table shows
    here before it shows in the sums."""
    chunk = aw.wavelet._CHUNK
    rng = np.random.default_rng(17)
    x = np.concatenate([STENCIL_EDGES, rng.random(chunk + 64), STENCIL_EDGES])
    for r in (1, 2, 4, 10):
        table = aw.cascade_table(aw.make_family(r), 12)
        for kind in ("scaling", "wavelet"):
            for level in (0, 5, 20):
                for start, cell, offset, vals in aw.wavelet._stencil(
                        table, kind, level, x):
                    dig.array("wavelet/stencil", np.array([start, offset]))
                    dig.array("wavelet/stencil", cell)
                    dig.array("wavelet/stencil", vals)


def fits(dig, aw):
    proc = aw.MixingProcessSpec(dim=2, ar_coeff=0.6, copula_theta=0.5, seed=11)
    scen = aw.ScenarioSpec(components=("sine", "step"), offset=0.3,
                           noise_halfwidth=0.5)
    grid = (np.arange(2048) + 0.5) / 2048
    for r in (1, 2, 4):
        table = aw.cascade_table(aw.make_family(r), 12)
        for n in (1000, 2 ** 14, 2 ** 16 + 3):
            data = aw.simulate_dataset(proc, scen, n, rep=2)
            for coord in (1, 2):
                for kappa in (0.5, 1.0):
                    est = aw.fit_component(
                        data, scen.rho_spec(), table,
                        aw.EstimatorConfig(coord=coord, threshold_const=kappa))
                    name = f"fit/R{r}"
                    dig.text(name, est.to_json(), "json")
                    dig.array(name, aw.eval_estimate(est, table, grid))
                    dig.array(name, aw.eval_estimate(
                        est, table, data.column(coord)))


def replications(dig, aw):
    table = aw.cascade_table(aw.make_family(2), 12)
    scen = aw.ScenarioSpec(components=("sine", "bump"), offset=0.3,
                           noise_halfwidth=0.5)
    targets = [(kind, j, k, coord) for kind in ("scaling", "wavelet")
               for j in (2, 5) for k in range(2 ** j) for coord in (1, 2)]
    for theta in (0.0, 0.5):
        proc = aw.MixingProcessSpec(dim=2, ar_coeff=0.6, copula_theta=theta,
                                    seed=13)
        for n, reps in ((2 ** 10, 20), (2 ** 16 + 3, 2)):
            dig.array("oracle/replicate_coeffs", aw.replicate_coeffs(
                proc, scen, table, targets, n=n, reps=reps, rep_start=5))
        dig.json("oracle/calibrate_threshold", aw.calibrate_threshold(
            proc, scen, table, n=1024, coord=2, reps=200))


README_CONFIG = {
    "scenario": {"components": ["sine", "bump"], "mu": 0.3,
                 "noise_halfwidth": 0.5},
    "process": {"ar_coeff": 0.6, "copula_theta": 0.5},
    "n_grid": [1024, 4096, 16384, 65536], "reps": 50, "master_seed": 21,
    "kappa": 1.0}
# Keys over the README config (None drops the key), each set refused;
# where two keys are bad, the error names the one checked first.
REFUSED = (
    {"kapa": 1.0, "master_seed": None}, {"reps": None, "n_grid": [1]},
    {"n_grid": "abc"}, {"n_grid": []}, {"n_grid": [True, 256]},
    {"n_grid": [256, 256], "reps": 0}, {"reps": 1.5, "kappa_mode": "x"},
    {"kappa_mode": "adaptive", "aggregate": "max"},
    {"aggregate": "x", "master_seed": -1},
    {"master_seed": "x", "family_r": 2.5},
    {"depth": 12.0, "master_seed": -1}, {"coord": True}, {"budget": "100"},
    {"master_seed": -1, "scenario": {"components": []}},
    {"scenario": {"components": ["sine", "bump"], "mu": float("nan")},
     "process": {"ar_coeff": "0.6"}},
    {"process": {"copula_thetta": 0.5}, "family_r": 0},
    {"family_r": 0, "depth": 40}, {"depth": 40, "coord": 5},
    {"coord": 5, "kappa": -1.0},
    {"kappa": float("nan"), "allow_over_budget": "no"},
    {"self_test_exponent": "x", "allow_over_budget": "no"},
    {"allow_over_budget": 0, "output_dir": 3}, {"output_dir": 3},
    {"process": 3, "family_r": 0}, {"scenario": [], "master_seed": -1},
    {"coord": 5, "allow_over_budget": "no"})


def experiment_configs(dig, cli):
    parser = cli.build_parser()

    def record(accept, payload, *argv):
        ns = parser.parse_args(["mc-rate", "--config", "-", *argv])
        try:
            config = cli._apply_overrides(cli.parse_experiment_config(payload),
                                          ns)
        except ValueError as exc:
            if accept:
                raise
            dig.text("cli/config", str(exc))
            return
        if not accept:
            raise RuntimeError(f"config accepted: {payload} {argv}")
        dig.json("cli/config", {"fields": dataclasses.asdict(config),
                                "echo": config.echo()})

    for extra in ({}, {"kappa_mode": "calibrated", "aggregate": "median",
                       "family_r": 4, "depth": 10, "coord": 2},
                  {"kappa": 2, "output_dir": "out", "budget": 10 ** 6,
                   "allow_over_budget": True}):
        for argv in ([], ["--seed", "9"], ["--kappa", "0.5"],
                     ["--family-r", "3", "--depth", "11"]):
            record(True, {**README_CONFIG, **extra}, *argv)
    record(False, [])
    for keys in REFUSED:
        record(False, {k: v for k, v in {**README_CONFIG, **keys}.items()
                       if v is not None})
    for argv in (["--seed", "-1"], ["--kappa", "nan"], ["--family-r", "0"],
                 ["--depth", "40"]):
        record(False, README_CONFIG, *argv)


def experiments(dig, cli):
    configs = (
        {"scenario": {"components": ["sine"], "mu": 0.3,
                      "noise_halfwidth": 0.5},
         "process": {"ar_coeff": 0.0, "copula_theta": 0.0},
         "n_grid": [256, 512, 1024, 2048], "reps": 2, "master_seed": 5,
         "kappa": 1.0},
        {"scenario": {"components": ["sine", "bump"], "mu": 0.3,
                      "noise_halfwidth": 0.5},
         "process": {"ar_coeff": 0.6, "copula_theta": 0.5},
         "n_grid": [1024, 4096, 16384, 65536], "reps": 2, "master_seed": 21,
         "kappa": 1.0},
        {"scenario": {"components": ["step", "sine"], "mu": 0.0,
                      "noise_halfwidth": 0.2},
         "process": {"ar_coeff": 0.9, "copula_theta": -0.4},
         "n_grid": [512, 1024], "reps": 3, "master_seed": 8,
         "kappa_mode": "calibrated", "family_r": 4, "aggregate": "median"},
    )
    for payload in configs:
        report, _ = cli.run_experiment(cli.parse_experiment_config(payload))
        dig.json("cli/run_experiment", _strip_runtimes(report))


def commands(dig, cli):
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        cfg = base / "cfg.json"
        cfg.write_text(json.dumps(
            {"scenario": {"components": ["sine", "bump"], "mu": 0.3,
                          "noise_halfwidth": 0.5},
             "process": {"ar_coeff": 0.6, "copula_theta": 0.5},
             "n_grid": [2, 64, 2048], "reps": 2, "master_seed": 17,
             "kappa": 1.0}))
        runs = (["simulate", "--config", str(cfg), "--output",
                 str(base / "data")],
                ["estimate", "--dataset",
                 str(base / "data" / "dataset_n2048_rep1.json"),
                 "--coord", "2", "--output", str(base / "fit")])
        for argv in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            if code != cli.EXIT_OK:
                raise RuntimeError(f"{argv[0]} exited with {code}")
            dig.text("cli/commands", out.getvalue().replace(tmp, "<tmp>"),
                     "lines")
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            dig.text("cli/commands", str(path.relative_to(base)))
            dig.text("cli/commands", path.read_bytes().decode(),
                     path.suffix[1:])
        # A bool in the design, which numpy would read as 1.0.
        dataset = base / "data" / "dataset_n64_rep0.json"
        payload = json.loads(dataset.read_text())
        payload["x"][1][0] = True
        spoiled = base / "bool.json"
        spoiled.write_text(json.dumps(payload))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["estimate", "--dataset", str(spoiled),
                             "--output", str(base / "bool-fit")])
        dig.text("cli/commands", f"exit {code}\n{err.getvalue()}"
                 f"{out.getvalue()}".replace(tmp, "<tmp>"))


def collect(src: Path, sink=None) -> Digest:
    """Every part's outputs of the ``addwave`` under ``src``."""
    sys.path.insert(0, str(src.resolve()))
    import addwave as aw
    from addwave import cli

    dig = Digest(sink)
    for step in (simulated, normal_cdf, specs, batches, basis_index,
                 filters, filter_bank, wavelet_sums_and_series, off_unit,
                 stencil, fits, replications):
        step(dig, aw)
    experiment_configs(dig, cli)
    experiments(dig, cli)
    commands(dig, cli)
    return dig


def _stream(src: Path, conn) -> None:
    """Send ``src``'s records down ``conn``, then its part digests."""
    dig = collect(src, lambda name, record: conn.send((name, record)))
    conn.send({name: h.hexdigest() for name, h in dig.parts.items()})
    conn.close()


def _leaves(record) -> tuple[dict, float | None]:
    """A record as ``{key: values}`` plus the array's own scale: an array
    under the key ``""``, JSON leaves under the last object key above
    them, CSV cells under their column's header."""
    form, value, scale = record
    if form == "array":
        return {"": value}, scale
    leaves: dict = {}

    def walk(item, key):
        if isinstance(item, dict):
            for k, v in item.items():
                walk(v, k)
        elif isinstance(item, list):
            for v in item:
                walk(v, key)
        else:
            leaves.setdefault(key, []).append(item)

    if form == "json":
        walk(json.loads(value), "")
    elif form == "lines":
        for line in value.splitlines():
            walk(json.loads(line), "")
    elif form == "csv":
        header, *rows = csv.reader(io.StringIO(value))
        for row in rows:
            for key, cell in zip(header, row):
                walk(float(cell), key)
    else:
        walk(value, "text")
    return leaves, None


def _numbers(values) -> np.ndarray | None:
    if isinstance(values, np.ndarray):
        return values.astype(float).reshape(-1)
    if all(isinstance(v, (int, float)) and not isinstance(v, bool)
           for v in values):
        return np.array(values, dtype=float)
    return None


class Moves:
    """How far one part's values moved from the reference tree's."""

    def __init__(self):
        self.values = self.changed = self.kept = self.other = 0
        self.max_abs = self.max_rel = 0.0

    def add(self, ref_record, new_record) -> None:
        (ref, scale), (new, _) = _leaves(ref_record), _leaves(new_record)
        for key in ref.keys() | new.keys():
            a, b = ref.get(key, []), new.get(key, [])
            if np.shape(a) != np.shape(b):
                self.other += 1
            elif key == "kept":
                self.kept += sum(x != y for x, y in zip(a, b))
            elif (x := _numbers(a)) is not None \
                    and (y := _numbers(b)) is not None:
                self._numbers(x, y, scale)
            else:
                self.other += sum(x != y for x, y in zip(a, b))

    def _numbers(self, ref, new, scale) -> None:
        moved = ~((ref == new) | (np.isnan(ref) & np.isnan(new)))
        self.values += ref.size
        self.changed += int(moved.sum())
        if not moved.any():
            return
        delta = float(np.max(np.abs(new[moved] - ref[moved])))
        if scale is None:
            scale = float(np.max(np.abs(ref[np.isfinite(ref)]), initial=0.0))
        self.max_abs = max(self.max_abs, delta)
        self.max_rel = max(self.max_rel, delta / scale if scale else np.inf)

    def line(self, name: str) -> str:
        return (f"{name:28s} {self.changed:>9d} of {self.values:<9d} "
                f"{self.max_abs:9.2e} {self.max_rel:9.2e} "
                f"{self.kept:6d} {self.other:6d}")


def diff(src: Path, against: Path) -> None:
    """Print how far each part of ``src``'s outputs moved from
    ``against``'s, making both in two processes at once."""
    ctx = multiprocessing.get_context("spawn")
    conns, procs = [], []
    for tree in (against, src):
        mine, theirs = ctx.Pipe(duplex=False)
        procs.append(ctx.Process(target=_stream, args=(tree, theirs),
                                 daemon=True))
        procs[-1].start()
        theirs.close()
        conns.append(mine)
    moves: dict = {}
    while True:
        ref, new = (c.recv() for c in conns)
        if isinstance(ref, dict):
            break
        if ref[0] != new[0]:
            raise RuntimeError(f"the trees emit different parts: "
                               f"{ref[0]} against {new[0]}")
        moves.setdefault(ref[0], Moves()).add(ref[1], new[1])
    for proc in procs:
        proc.join()
    print(f"{'part':28s} {'changed of values':>22s} {'max abs':>9s} "
          f"{'max rel':>9s} {'kept':>6s} {'other':>6s}")
    for name in sorted(moves):
        if ref[name] == new[name]:
            print(f"{name:28s} identical")
        else:
            print(moves[name].line(name))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--parts", action="store_true")
    ap.add_argument("--against", type=Path, metavar="OTHER_SRC")
    ns = ap.parse_args(argv)
    if ns.against is not None:
        diff(ns.src, ns.against)
        return 0
    dig = collect(ns.src)
    if ns.parts:
        for name in sorted(dig.parts):
            print(f"{dig.parts[name].hexdigest()}  {name}")
    print(f"{dig.total()}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
