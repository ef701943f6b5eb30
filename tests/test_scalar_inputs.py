"""Every scalar input follows the one rule of its kind, each refusal pinned
here once: a real number passes ``scenario._is_finite`` (a Python or numpy
int or float, not a bool, whose float value is finite), a count passes
``scenario._count`` (a Python or numpy integer, not a bool, in range, kept
as a Python int).  Anything else is a ValueError with the input's message,
and each accepted number type gives the same stored value or output."""

import dataclasses
import inspect
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
    lambda1_closed_form,
    lambda_delta_closed_form,
    linear_fda_plan,
    mrt_rate,
    mrt_required_power,
    optimize_offsets,
    phased_array_plan,
    run_convergence_study,
    run_power_sweep,
    run_rate_sweep,
)
from helpers import half_wave_scenario

_RF = dict(carrier_frequency=2.4e9, max_offset=3e6, noise_power_bob=1e-13,
           noise_power_eve=1e-13)
_SCENARIO = half_wave_scenario(3, 80.0, 1.0, 100.0, 1.0)
_PLAN = FrequencyPlan(np.array([0.0, 1e6, 2e6]))
_SWEEP = ExperimentConfig(realizations=2, antenna_counts=(2,), time_samples=(0.0, 1e-5))


def _pair_bytes(t):
    pair = channel_pair(_SCENARIO, _PLAN, t)
    return pair.h_bob.tobytes(), pair.h_eve.tobytes()


def _sweep_bytes(run, workers):
    result = run(_SWEEP, workers=workers)
    values = result.mean_history if run is run_convergence_study else result.values
    return [v.tobytes() for v in values.values()]


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

_REFUSED = {"str": "1", "bytes": b"1", "None": None, "bool": True, "huge int": 10**400,
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


# count input -> (a call that stores or uses the value, its message, the
# first ints out of its range); a field (no parentheses in the name) stores it
_COUNTS = {
    "ArrayGeometry.element_count": (lambda v: ArrayGeometry(v).element_count,
                                    "element_count must be a positive integer", (0,)),
    "ExperimentConfig.realizations": (lambda v: ExperimentConfig(realizations=v).realizations,
                                      "realizations must be an integer from 1 to 2**32",
                                      (0, 2**32 + 1)),
    "ExperimentConfig.rng_seed": (lambda v: ExperimentConfig(rng_seed=v).rng_seed,
                                  "rng_seed must be a non-negative integer", (-1,)),
    "ExperimentConfig.antenna_counts": (
        lambda v: ExperimentConfig(antenna_counts=(4, v)).antenna_counts[1],
        "antenna_counts must be positive integers", (0,)),
    "optimize_offsets(max_outer)": (
        lambda v: optimize_offsets(_SCENARIO, max_outer=v)[1].objective_history,
        "max_outer must be a non-negative integer", (-1,)),
    "linear_fda_plan(element_count)": (lambda v: linear_fda_plan(v, 3e6).offsets.tobytes(),
                                       "element_count must be a positive integer", (0,)),
    "phased_array_plan(element_count)": (lambda v: phased_array_plan(v).offsets.tobytes(),
                                         "element_count must be a positive integer", (0, -1)),
    **{f"{run.__name__}(workers)": (lambda v, run=run: _sweep_bytes(run, v),
                                    "workers must be a positive integer", (0,))
       for run in (run_power_sweep, run_rate_sweep, run_convergence_study)},
}

_REFUSED_COUNTS = ("2", b"2", True, 2.0, np.float64(2.0), None)

_ACCEPTED_COUNTS = (2, np.int64(2), np.uint8(2), np.int16(2))


@pytest.mark.parametrize("name", list(_COUNTS))
def test_count_input_refuses_all_but_integers_in_range(name):
    """A str, bytes, a bool, a float or None, and each out-of-range int as a
    Python int and as a numpy int64."""
    call, message, outside = _COUNTS[name]
    for value in (*_REFUSED_COUNTS, *outside, *map(np.int64, outside)):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            call(value)


@pytest.mark.parametrize("name", list(_COUNTS))
def test_count_input_takes_every_integer_width_alike(name):
    call, _, _ = _COUNTS[name]
    first, *rest = outs = [call(value) for value in _ACCEPTED_COUNTS]
    assert all(out == first for out in rest)
    if "(" not in name:  # a stored count is a Python int whatever came in
        assert all(type(out) is int for out in outs)


def test_every_scalar_field_has_its_rule():
    """Each init field of the checked dataclasses is a row of one of the two
    tables above, or exempt: a new scalar field cannot skip its rule."""
    exempt = {"ExperimentConfig.baselines"}  # scheme names, checked against SCHEMES
    rows = {re.sub(r"\[\d\]$", "", name) for name in (*_INPUTS, *_COUNTS)}
    fields = {f"{cls.__name__}.{f.name}"
              for cls in (RfParams, ArrayGeometry, NodePlacement, SecrecyTarget, PowerBudget,
                          ExperimentConfig)
              for f in dataclasses.fields(cls) if f.init}
    assert fields - rows - exempt == set()
    assert exempt <= fields


def test_descent_on_a_uint8_element_count_equals_the_int_descent():
    """``ArrayGeometry(np.uint8(200))`` stores 200, so the descent's slot
    arithmetic runs on Python ints: in uint8 it wrapped, with overflow
    warnings (errors under this suite's filter), and ended elsewhere."""
    (plan, trace), (plan_u8, trace_u8) = (optimize_offsets(half_wave_scenario(
        n, 80.0, 1.0, 100.0, 1.0)) for n in (200, np.uint8(200)))
    assert plan_u8.offsets.tobytes() == plan.offsets.tobytes() and trace_u8 == trace


# The closed forms' scalar inputs, at valid arguments for every other one.
_CLOSED_FORMS = [(fn, args, i, name)
                 for fn, args in ((lambda1_closed_form, (2.0, 1.0, 0.5, 3.0)),
                                  (lambda_delta_closed_form, (2.0, 1.0, 0.5, 1.0)),
                                  (mrt_rate, (2.0, 1.0, 0.5)),
                                  (mrt_required_power, (2.0, 5.0, 0.5)))
                 for i, name in enumerate(inspect.signature(fn).parameters)]

_NOT_REAL = {"str": "1", "bytes": b"1", "None": None, "bool": True, "numpy bool": np.True_,
             "huge int": 10**400, "huge negative int": -10**400, "list": [2.0]}


@pytest.mark.parametrize("value", list(_NOT_REAL.values()), ids=list(_NOT_REAL))
@pytest.mark.parametrize("fn, args, index, name", _CLOSED_FORMS,
                         ids=[f"{fn.__name__}({name})" for fn, _, _, name in _CLOSED_FORMS])
def test_closed_form_names_a_scalar_that_is_no_real_number(fn, args, index, name, value):
    """A bool used to count as 1 (``lambda1_closed_form(2.0, 1.0, 0.5, True)``
    gave 1.732), a str, bytes, None or an int past the float range raised
    numpy's unnamed TypeError from ``isnan``, and a list an unnamed
    TypeError from the arithmetic."""
    bad = list(args)
    bad[index] = value
    with pytest.raises(ValueError, match=f"^{name} must be a real number$"):
        fn(*bad)
