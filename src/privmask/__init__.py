"""Privacy-mask analysis and design for cloud-controlled scalar plants.

A client runs a linear plant X_{t+1} = a*X_t + V_t + W_t and outsources
control to a cloud that sees only a masked state Y_t = X_t + N_t and
returns a command U_t = k*Y_t, of which a masked version V_t = U_t + M_t is
applied.  This package computes the information the cloud gains about the
state path (the privacy loss, in nats per step), the quadratic control
cost, and the mask variances (m, n) that trade the two off, together with
an exact Gaussian oracle and a Monte Carlo simulator that verify every
closed form.
"""

from .design import (
    DesignReport,
    MaskDiagnosis,
    RobustnessGrid,
    TradeoffPoint,
    boundary_diagnostics,
    masks_from_nnr,
    optimal_nnr,
    quartic_coefficients,
    robustness_sweep,
    tradeoff_curve,
)
from .errors import (
    DegenerateMasks,
    EmptyInput,
    HorizonTooLarge,
    HorizonTooShort,
    IllDefinedNnr,
    NegativeVariance,
    NegativeWeight,
    NoConvergence,
    NonPositiveAlpha,
    NonPositiveCount,
    PrivmaskError,
    SingularBlock,
    UnstableClosedLoop,
    ZeroGain,
    ZeroProcessNoise,
)
from .oracle import (
    ConsistencyCheck,
    JointCovariance,
    consistency_report,
    exact_directed_info,
    exact_mi,
    joint_covariance,
)
from .params import (
    MaskParams,
    StabilityCheck,
    SystemParams,
    closed_loop_stable,
    require_stable,
)
from .rates import (
    DirectedInformation,
    PrivacyRates,
    control_cost_rate,
    control_cost_rate_from_nnr,
    control_cost_rate_from_nnr_derivative,
    finite_horizon_info,
    mi_rate,
    mi_rate_from_nnr,
    mi_rate_from_nnr_alt,
    mi_rate_from_nnr_derivative,
    nnr_prediction_ratio,
)
from .riccati import (
    gain_schedule,
    prediction_covariances,
    solve_are,
    steady_state_second_moment,
)

__version__ = "0.1.0"

__all__ = [
    "SystemParams", "MaskParams", "StabilityCheck", "closed_loop_stable", "require_stable",
    "solve_are", "prediction_covariances",
    "gain_schedule", "steady_state_second_moment",
    "PrivacyRates", "DirectedInformation", "mi_rate", "mi_rate_from_nnr", "mi_rate_from_nnr_alt",
    "mi_rate_from_nnr_derivative", "nnr_prediction_ratio", "control_cost_rate",
    "control_cost_rate_from_nnr", "control_cost_rate_from_nnr_derivative",
    "finite_horizon_info",
    "JointCovariance", "ConsistencyCheck",
    "joint_covariance", "exact_mi", "exact_directed_info", "consistency_report",
    "TrajectoryBatch", "simulate", "simulate_moments", "empirical_cost",
    "empirical_prediction_error",
    "DesignReport", "TradeoffPoint", "RobustnessGrid", "MaskDiagnosis",
    "quartic_coefficients", "optimal_nnr", "masks_from_nnr",
    "tradeoff_curve", "boundary_diagnostics", "robustness_sweep",
    "PrivmaskError", "ZeroGain", "NegativeVariance", "NegativeWeight",
    "IllDefinedNnr", "NoConvergence", "UnstableClosedLoop",
    "DegenerateMasks", "HorizonTooLarge", "HorizonTooShort", "SingularBlock",
    "NonPositiveAlpha", "ZeroProcessNoise", "EmptyInput", "NonPositiveCount",
]


def __getattr__(name: str):
    """The simulation names, imported on first read: that layer alone needs scipy."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import simulation
    return getattr(simulation, name)
