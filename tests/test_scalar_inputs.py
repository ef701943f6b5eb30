"""Every real scalar input follows one rule, ``scenario._is_finite``: a Python
or numpy int or float, not a bool, whose float value is finite.  Anything
else is a ValueError with the message that the input's NaN raises, and each
accepted number type gives the same stored value or output."""

import math
import re

import numpy as np
import pytest

from fdabeam import (
    ArrayGeometry,
    ExperimentConfig,
    FrequencyPlan,
    NodePlacement,
    PowerBudget,
    RfParams,
    SecrecyTarget,
    channel_pair,
    linear_fda_plan,
    optimize_offsets,
)
from helpers import half_wave_scenario

_RF = dict(carrier_frequency=2.4e9, max_offset=3e6, noise_power_bob=1e-13,
           noise_power_eve=1e-13)
_SCENARIO = half_wave_scenario(3, 80.0, 1.0, 100.0, 1.0)
_PLAN = FrequencyPlan(np.array([0.0, 1e6, 2e6]))


def _pair_bytes(t):
    pair = channel_pair(_SCENARIO, _PLAN, t)
    return pair.h_bob.tobytes(), pair.h_eve.tobytes()


# input -> (a call that stores or uses the value, its message)
_INPUTS = {
    **{f"RfParams.{name}": (lambda v, name=name: getattr(RfParams(**{**_RF, name: v}), name),
                            f"{name} must be finite")
       for name in (*_RF, "wave_speed")},
    **{f"ArrayGeometry.{name}": (lambda v, name=name: getattr(ArrayGeometry(3, **{name: v}), name),
                                 f"{name} must be finite")
       for name in ("first_element_x", "spacing")},
    "NodePlacement.range_m": (lambda v: NodePlacement(v, 1.0).range_m, "range_m must be finite"),
    "NodePlacement.angle_rad": (lambda v: NodePlacement(50.0, v).angle_rad,
                                "angle_rad must lie in [0, pi]"),
    "SecrecyTarget.rate": (lambda v: SecrecyTarget(v).rate,
                           "target rate must be finite and positive"),
    "PowerBudget.power": (lambda v: PowerBudget(v).power,
                          "power budget must be finite and non-negative"),
    "ExperimentConfig.target_rate": (lambda v: ExperimentConfig(target_rate=v).target_rate,
                                     "target_rate must be finite and positive"),
    "ExperimentConfig.range_gap": (lambda v: ExperimentConfig(range_gap=v).range_gap,
                                   "range_gap must be finite and non-negative"),
    "ExperimentConfig.power_grid": (lambda v: ExperimentConfig(power_grid=(1.0, v)).power_grid,
                                    "power_grid entries must be finite and positive"),
    "ExperimentConfig.range_interval[0]": (
        lambda v: ExperimentConfig(range_interval=(v, 150.0)).range_interval,
        "range_interval must be finite, positive and ordered"),
    "ExperimentConfig.range_interval[1]": (
        lambda v: ExperimentConfig(range_interval=(1.0, v)).range_interval,
        "range_interval must be finite, positive and ordered"),
    "ExperimentConfig.angle_interval[0]": (
        lambda v: ExperimentConfig(angle_interval=(v, 3.0)).angle_interval,
        "angle_interval must be finite, ordered and within [0, pi]"),
    "ExperimentConfig.angle_interval[1]": (
        lambda v: ExperimentConfig(angle_interval=(0.0, v)).angle_interval,
        "angle_interval must be finite, ordered and within [0, pi]"),
    "ExperimentConfig.time_samples": (
        lambda v: ExperimentConfig(time_samples=(0.0, v)).time_samples,
        "time_samples must be finite and within ±"),
    "optimize_offsets(tol)": (lambda v: optimize_offsets(_SCENARIO, tol=v)[0].offsets.tobytes(),
                              "tol must be finite and non-negative"),
    "channel_pair(t)": (_pair_bytes, "times must be finite and within ±"),
    "FrequencyPlan.offsets": (lambda v: FrequencyPlan([v, 0.0]).offsets.tobytes(),
                              "offsets must be finite and non-negative"),
    "linear_fda_plan(max_offset)": (lambda v: linear_fda_plan(4, v).offsets.tobytes(),
                                    "max_offset must be finite"),
}

_REFUSED = {"str": "1", "bytes": b"1", "bool": True, "huge int": 10**400,
            "huge negative int": -10**400, "nan": math.nan, "inf": math.inf,
            "-inf": -math.inf}

_ACCEPTED = (2, 2.0, np.int64(2), np.float32(2.0), np.float64(2.0))


@pytest.mark.parametrize("value", list(_REFUSED.values()), ids=list(_REFUSED))
@pytest.mark.parametrize("name", list(_INPUTS))
def test_scalar_input_refuses_all_but_finite_real_numbers(name, value):
    call, message = _INPUTS[name]
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call(value)


@pytest.mark.parametrize("name", list(_INPUTS))
def test_scalar_input_takes_python_and_numpy_numbers_alike(name):
    call, _ = _INPUTS[name]
    first, *rest = (call(value) for value in _ACCEPTED)
    assert all(out == first for out in rest)
