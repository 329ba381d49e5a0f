"""The records' field tables: every field has one rule, or is checked
across fields."""

import dataclasses
import inspect

import pytest

from addwave import cli, estimator, oracle, simulate, tensor, wavelet

# Every record whose fields are checked from a ``_FIELD_RULES`` table.
CHECKED = ("ComponentEstimate", "DesignDensity", "EstimatorConfig",
           "ExperimentConfig", "MixingProcessSpec", "MomentReport",
           "ScenarioSpec")


def _records() -> dict:
    return {name: obj
            for mod in (cli, estimator, oracle, simulate, tensor, wavelet)
            for name, obj in vars(mod).items()
            if inspect.isclass(obj) and dataclasses.is_dataclass(obj)
            and obj.__module__ == mod.__name__}


def test_checked_records_are_the_ones_with_tables():
    assert sorted(name for name, cls in _records().items()
                  if hasattr(cls, "_FIELD_RULES")) == list(CHECKED)


@pytest.mark.parametrize("name", CHECKED)
def test_each_field_has_one_rule_or_is_cross_field(name):
    # A field added without a rule, or named twice, fails here.
    cls = _records()[name]
    ruled = [field if isinstance(field, str) else field[1]
             for field, rule in cls._FIELD_RULES if callable(rule)]
    assert len(ruled) == len(cls._FIELD_RULES)
    cross = list(getattr(cls, "_CROSS_FIELDS", ()))
    assert sorted(ruled + cross) == sorted(
        f.name for f in dataclasses.fields(cls))
