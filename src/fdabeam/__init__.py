"""Secure beamforming with frequency diverse arrays.

Optimizes per-element frequency offsets to decouple an eavesdropper's
channel from the legitimate one, then designs minimum-power or
maximum-secrecy-rate beamformers in closed form.
"""

from .beamforming import (
    PowerBudget,
    PowerMinSolution,
    RateMaxSolution,
    SecrecyTarget,
    lambda1_closed_form,
    lambda_delta_closed_form,
    max_rate_beamformer,
    min_power_beamformer,
    mrt_rate,
    mrt_required_power,
    secrecy_rate,
)
from .coupling import (
    OptimizerTrace,
    g_value,
    optimize_offsets,
)
from .experiments import (
    ConvergenceResult,
    ExperimentConfig,
    SweepResult,
    linear_fda_plan,
    phased_array_plan,
    run_convergence_study,
    run_power_sweep,
    run_rate_sweep,
    write_sweep_csv,
)
from .scenario import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    ChannelPair,
    FrequencyPlan,
    NodePlacement,
    RfParams,
    Scenario,
    channel_pair,
)

__version__ = "0.1.0"
