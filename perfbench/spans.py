"""In-memory spans around the public functions of the addwave layers.

The tracer replaces every public function of ``addwave.simulate``,
``wavelet``, ``estimator``, ``oracle`` and ``cli`` with a timing wrapper,
at every module binding that holds it: the layers import each other's
functions by name (``estimator`` calls its own ``weighted_level_sums``
binding, ``cli`` its own ``fit_component``), so patching only the defining
module would miss most calls.  Nothing under ``src/`` is changed; the
originals are put back by ``uninstall``.

A span is ``[name, start, end, parent, phase, units]`` with times from
``time.monotonic``.  ``units`` holds the exact work counts of the call:
points, stencil taps, levels, coefficients tested and kept.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("simulate", "wavelet", "estimator", "oracle", "cli")

# Computed, not measured: 8-byte words touched per stencil tap (position,
# two table samples, weight, scattered or gathered product) and per point
# (position and weight or output).  Labelled computed wherever reported.
WORDS_PER_TAP = 5
WORDS_PER_POINT = 2


def _wls_units(args, result):
    n = int(np.size(args["x"]))
    taps = n * args["table"].family.support_length
    return {"obs": n, "taps": taps,
            "bytes": 8 * (WORDS_PER_POINT * n + WORDS_PER_TAP * taps)}


def _series_units(args, result):
    n = int(np.size(args["x"]))
    terms = 1 + sum(1 for _, c in args["details"] if np.any(c))
    taps = n * terms * args["table"].family.support_length
    return {"obs": n, "taps": taps,
            "bytes": 8 * (WORDS_PER_POINT * n + WORDS_PER_TAP * taps)}


def _fit_units(args, result):
    tested = sum(int(np.size(v)) for v in result.detail_values)
    return {"levels": result.j1 - result.tau + 1, "tested": tested,
            "kept": result.kept_count()}


# Work counts taken from the arguments or result of a call.
UNITS = {
    "simulate.gen_design": lambda a, r: {"obs": int(a["n"])},
    "simulate.gen_responses": lambda a, r: {"obs": len(a["x"])},
    "simulate.simulate_dataset": lambda a, r: {"obs": int(a["n"])},
    "wavelet.weighted_level_sums": _wls_units,
    "wavelet.evaluate_series": _series_units,
    "estimator.fit_component": _fit_units,
    "oracle.replicate_coeffs":
        lambda a, r: {"obs": int(a["n"]) * int(a["reps"])},
}


class Tracer:
    """Collects spans while installed; ``phase`` tags each span."""

    def __init__(self):
        self.spans: list = []
        self.phase = "setup"
        self._stack: list = []
        self._patches: list = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    @contextmanager
    def span(self, name: str):
        rec = [name, time.monotonic(), 0.0,
               self._stack[-1] if self._stack else -1, self.phase, None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[2] = time.monotonic()

    def _wrap(self, name: str, fn):
        unit_fn = UNITS.get(name)
        sig = inspect.signature(fn) if unit_fn else None
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as rec:
                result = fn(*args, **kwargs)
            if unit_fn is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    rec[5] = unit_fn(bound.arguments, result)
                except (TypeError, KeyError, AttributeError):
                    # A changed signature or result: the call is still
                    # timed, and the record shows its counts are missing.
                    rec[5] = {"uncounted": 1}
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function of the layers at every binding."""
        if self._patches:
            return
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"addwave.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "addwave" and not modname.startswith("addwave."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()


def self_times(spans: list) -> list:
    """Duration of each span minus the time its child spans cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def row(summary: dict, name: str) -> dict:
    """One name's totals; a span that never fired reads as zero calls."""
    return summary.get(name) or {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                 "units": {}}


def _add(summary: dict, name: str, calls: int, total_s: float,
         self_s: float, units: dict) -> None:
    dst = summary.setdefault(name, row({}, name))
    dst["calls"] += calls
    dst["total_s"] += total_s
    dst["self_s"] += self_s
    for key, val in units.items():
        dst["units"][key] = dst["units"].get(key, 0) + val


def summarize(spans: list, phases: tuple) -> dict:
    """Per-name calls, total and self seconds and summed work counts of
    the spans recorded in ``phases``."""
    out: dict = {}
    for s, self_s in zip(spans, self_times(spans)):
        if s[4] in phases:
            _add(out, s[0], 1, s[2] - s[1], self_s, s[5] or {})
    return out


def merge(into: dict, other: dict) -> dict:
    """Add one summary into another (used to pool worker processes)."""
    for name, r in other.items():
        _add(into, name, r["calls"], r["total_s"], r["self_s"], r["units"])
    return into
