"""The package's top-level surface is deliberate."""

import types

import fdabeam
from fdabeam import beamforming, coupling, experiments

PUBLIC_NAMES = {
    # scenario
    "SPEED_OF_LIGHT", "ArrayGeometry", "ChannelPair", "FrequencyPlan", "NodePlacement",
    "RfParams", "Scenario", "channel_pair",
    # coupling
    "OptimizerTrace", "g_value", "optimize_offsets",
    # beamforming
    "PowerBudget", "PowerMinSolution", "RateMaxSolution", "SecrecyTarget",
    "lambda1_closed_form", "lambda_delta_closed_form", "max_rate_beamformer",
    "min_power_beamformer", "mrt_rate", "mrt_required_power", "secrecy_rate",
    # experiments
    "ConvergenceResult", "ExperimentConfig", "SweepResult", "linear_fda_plan",
    "phased_array_plan", "run_convergence_study", "run_power_sweep", "run_rate_sweep",
    "write_sweep_csv",
}


def test_public_names_are_exactly_the_listed_ones():
    """Every non-module public name of ``fdabeam``; adding or removing one
    means updating this list."""
    names = {name for name, value in vars(fdabeam).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC_NAMES) == 31
    assert names == PUBLIC_NAMES


def test_internal_helpers_stay_in_their_modules():
    """Five helpers left the package namespace but not their modules: the
    tests call all five there, and the benchmark tracer wraps
    ``principal_eigvec_span2`` and ``channel_stats`` in ``beamforming`` and
    ``sample_scenario`` in ``experiments``."""
    assert callable(coupling.cosine_argmin)
    assert callable(experiments.sample_scenario)
    for name in ("principal_eigvec_span2", "stacked_channel_stats", "channel_stats"):
        assert callable(getattr(beamforming, name))
