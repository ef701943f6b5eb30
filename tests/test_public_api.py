"""The package's top-level surface is deliberate."""

import types

import fdabeam

PUBLIC_NAMES = {
    # scenario
    "SPEED_OF_LIGHT", "ArrayGeometry", "ChannelPair", "FrequencyPlan", "NodePlacement",
    "RfParams", "Scenario", "channel_pair",
    # coupling
    "OptimizerTrace", "cosine_argmin", "g_value", "optimize_offsets",
    # beamforming
    "PowerBudget", "PowerMinSolution", "RateMaxSolution", "SecrecyTarget",
    "channel_stats", "lambda1_closed_form", "lambda_delta_closed_form",
    "max_rate_beamformer", "min_power_beamformer", "mrt_rate", "mrt_required_power",
    "principal_eigvec_span2", "secrecy_rate", "stacked_channel_stats",
    # experiments
    "ConvergenceResult", "ExperimentConfig", "SweepResult", "linear_fda_plan",
    "phased_array_plan", "run_convergence_study", "run_power_sweep", "run_rate_sweep",
    "sample_scenario", "write_sweep_csv",
}


def test_public_names_are_exactly_the_listed_ones():
    """Every non-module public name of ``fdabeam``; adding or removing one
    means updating this list."""
    names = {name for name, value in vars(fdabeam).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC_NAMES) == 36
    assert names == PUBLIC_NAMES
