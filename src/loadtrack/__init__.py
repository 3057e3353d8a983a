"""Online convex optimization for demand-response setpoint tracking.

A library and batch CLI for steering fleets of flexible loads
(thermostatically controlled loads, EV batteries) so their aggregate
power adjustment follows a reference signal, under full, bandit,
partial-bandit and Bernoulli feedback.
"""

__version__ = "0.1.0"

from .algorithms import (
    AggregateFeedback,
    BanditTracker,
    BernoulliFeedbackTracker,
    FeedbackMismatchError,
    FullFeedback,
    FullInformationTracker,
    PartialBanditTracker,
    PartialFeedback,
    QuadraticTrackingObjective,
)
from .core import (
    Box,
    ConfigError,
    EnvBounds,
    StepSchedule,
    UnsupportedBoxError,
    conservative_bounds,
    gradient_estimate,
    project_shrunk_box,
    prox_step,
    sample_unit_sphere,
    step_schedule,
)
from .harness import (
    Comparator,
    ExperimentResult,
    MetricsLedger,
    ScenarioConfig,
    SetpointSpec,
    TrialResult,
    compute_metrics,
    empirical_regret,
    feedback_channel,
    hindsight_optimum,
    improvement_pct,
    make_setpoint,
    run_experiment,
    run_trial,
)
from .loads import (
    EvFleet,
    EvParams,
    InfeasibleLoadError,
    NoiseSpec,
    SamplingError,
    TclFleet,
    TclRanges,
    sample_truncated_gaussian,
    tcl_fleet_init,
)
