"""Bubble-market toolkit: crash hazards, optimal investment, welfare, and
Monte Carlo verification for a Black--Scholes asset carrying a single
crash."""

from ._quad import Curve
from .hazard import (
    C1Function,
    Classification,
    ConstantExcess,
    ConstantJumpSizeExcess,
    CrashHazard,
    CustomExcess,
    DomainError,
    ExcessReturn,
    ExponentialCutoffHazard,
    LPPLHazard,
    LPPLShape,
    LinearRampExcess,
    MarketModel,
    ModelError,
    RelaxedJLSExcess,
    SingleJumpClass,
    TabulatedHazard,
    UniformHazard,
    ValidationReport,
    Verdict,
    ZeroExcess,
    ag_transform,
    classify_under_P,
    jump_size,
    linear_delta_excess,
    lppl_log_price,
    single_jump_class,
    validate,
)
from .elmm import (
    RejectedTiltError,
    TiltFunction,
    TiltedMeasure,
    build_tilted_measure,
    classify_under_Q,
    verify_tilt_bounds,
)
from .solver import (
    AuxEval,
    Preference,
    Solution,
    SolverError,
    aux_eval,
    bracket_curves,
    decompose,
    dual_multiplier,
    implicit_solve,
    log_utility_solution,
    lower_boundary,
    myopic_curve,
    optimal_fraction,
    solve_optimal,
)
from .welfare import (
    WelfareReport,
    certainty_equivalent,
    safe_rates,
    welfare_from_curve,
    xihat_identity_check,
)
from .montecarlo import (
    BudgetUnderQ,
    EstimatorResult,
    ExpectedUtility,
    SimConfig,
    SimulationDiagnostic,
    Strategy,
    TerminalPrice,
    estimate,
    merton_strategy,
    myopic_only_strategy,
    optimal_strategy,
    scaled_strategy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
