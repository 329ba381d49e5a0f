"""The package's argument rules, stated once, and the walk of a record's
field table.

A rule is a callable ``(name, value)``, some with bounds after them, that
returns the value to store or raises ``ValueError`` whose text starts
with ``name``.  For a function's argument the name is the argument's;
for a record's field it is ``"<owner> field 'key'"``, the key being the
one a user types (``kappa``, ``mu``), so every refusal of a field reads
"<owner> field 'key' must be …".  A record lists its rules as one
``(field, rule)`` table, which ``check_fields`` walks in order, and
writes out after it only the checks that read more than one field.

This module sits below every other one and imports only ``json``,
``math`` and numpy.
"""

from __future__ import annotations

import json
import math

import numpy as np

# The largest design dimension: the density's check grid, the simulator's
# process and the tensor module all stop here.
_MAX_DIM = 4
# The largest sample size: no array holds more points, and a larger int
# overflows the float that log(n) / n is taken in.
_MAX_SIZE = 2 ** 63 - 1
_INTEGER_TYPES = (int, np.integer)


def check_fields(record, owner: str, rules) -> None:
    """Run each ``(field, rule)`` of ``rules``, in order, on ``record``'s
    value of the field and store what the rule returns in its place.  A
    field is an attribute name, or a ``(key, attribute)`` pair where the
    key a user types differs from the attribute."""
    for field, rule in rules:
        key, attr = (field, field) if isinstance(field, str) else field
        object.__setattr__(record, attr, rule(f"{owner} field {key!r}",
                                              getattr(record, attr)))


def _is_integer(value) -> bool:
    """The integer rule: an ``int`` or numpy integer, not a bool."""
    return isinstance(value, _INTEGER_TYPES) and not isinstance(value, bool)


def _check_count(name: str, value, low: int = 0) -> int:
    """The count rule: an integer >= ``low``, stored as an ``int``."""
    if not (_is_integer(value) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _check_size(name: str, value, low: int = 2) -> int:
    """The size rule: the count rule, then at most ``_MAX_SIZE``."""
    size = _check_count(name, value, low)
    if size > _MAX_SIZE:
        raise ValueError(f"{name} must be at most 2**63 - 1, got a "
                         f"{size.bit_length()}-bit integer")
    return size


def _check_span(name: str, value, low: int, high: int) -> int:
    """The span rule: an integer in ``low..high``, stored as an ``int``;
    a coord, a direction, a level or shift, a depth, a family."""
    if not (_is_integer(value) and low <= value <= high):
        raise ValueError(f"{name} must be an integer in {low}..{high}, "
                         f"got {value!r}")
    return int(value)


def _check_dim(name: str, value) -> int:
    """The dimension rule: the span ``1..4``."""
    return _check_span(name, value, 1, _MAX_DIM)


def _check_number(name: str, value, low: float | None = None) -> float:
    """The number rule: a finite real number (Python or numpy), not a
    bool or a string, of at least ``low``, stored as a ``float``."""
    number = math.nan
    if (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool)):
        try:
            number = float(value)
        except OverflowError:
            pass
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, "
                         f"got {_shown(value)}")
    if low is not None and number < low:
        raise ValueError(f"{name} must be >= {low}, got {number}")
    return number


def _check_finite(name: str, values: np.ndarray) -> None:
    """The finite rule of an array: one ``min`` and one ``max``, which
    propagate NaN, so the one comparison fails it without a boolean
    array."""
    if values.size and not (-math.inf < values.min()
                            and values.max() < math.inf):
        raise ValueError(f"{name} must be finite")


def _check_type(name: str, value, kind: type):
    """The type rule: ``value`` itself, if it is a ``kind``."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOUaeiou" else "a"
        raise ValueError(f"{name} must be {article} {kind.__name__}, "
                         f"got {_shown(value)}")
    return value


def _check_callable(name: str, value):
    """The callable rule: ``value`` itself, if it can be called."""
    if not callable(value):
        raise ValueError(f"{name} must be callable, got {_shown(value)}")
    return value


def _check_choice(name: str, value, choices: tuple):
    """The choice rule: one of ``choices``."""
    if value not in choices:
        raise ValueError(f"{name} must be {' or '.join(map(repr, choices))}"
                         f", got {value!r}")
    return value


def _optional(rule):
    """``rule``, with ``None`` let through as unset."""
    return lambda name, value: None if value is None else rule(name, value)


def _shown(value) -> str:
    """``value`` in an error message: as JSON, cut to 40 characters; a
    value JSON has no form for (a numpy scalar) as its quoted ``repr``."""
    return json.dumps(value, default=repr)[:40]


def _json_object(name: str, value, keys: tuple | None = None) -> dict:
    """The object rule: ``value`` if it is a JSON object with no key
    outside ``keys`` (when given), else a ``ValueError`` that names it or
    the first unknown key."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {_shown(value)}")
    unknown = [key for key in value if keys is not None and key not in keys]
    if unknown:
        raise ValueError(f"{name} has unknown key {unknown[0]!r}; known "
                         f"keys: {', '.join(keys)}")
    return value
