"""Phase estimation and one-shot function classification with finite-domain
Gaussian states and binary spectral masks.

Three independent engines compute the same detection probability: closed
forms (``stats``), adaptive quadrature over the factorized integral
(``quadrature``), and a circuit-level grid simulator (``grid``).  On top sit
seeded Monte-Carlo hit counts (``experiments``) and a table-emitting CLI
(``cli``, installed as the ``cvphase`` script).
"""

from .errors import (
    CvPhaseError,
    GridLayoutError,
    ParameterError,
    QuadratureToleranceError,
    RegimeError,
    SingularityError,
    UnidentifiableFunctionError,
)
from .experiments import (
    AuditReport,
    AuditRow,
    EstimationReport,
    ReplicationSummary,
    heisenberg_audit,
    mle_phi,
    replicated_mse,
    sample_outcomes,
)
from .grid import (
    MOMENTUM,
    POSITION,
    GridState,
    KickbackCheck,
    PhaseResponse,
    aligned_half_width,
    apply_blackbox,
    fourier,
    fourier_matrix,
    inverse_fourier,
    measure_povm,
    phase_response,
    prepare_gaussian,
    run_circuit,
    two_register_kickback_check,
)
from .model import (
    CONTAINMENT_RATIO,
    FULL_EFFICIENCY_PRODUCT,
    MeasurementDistribution,
    PiecewiseBinaryFunction,
    ProcedureParams,
    ValidationReport,
    require_containment,
    validate_params,
)
from .quadrature import (
    QuadratureResult,
    QuadratureSpec,
    StepHatGap,
    prob_x0_quadrature,
    step_hat_gap,
)
from .stats import (
    FisherReport,
    GeneratorMoments,
    cosine_model_coefficients,
    delta_phi,
    dj_statistics,
    fisher_phi,
    fisher_r,
    generator_moments,
    mask_efficiency,
    prob_x0,
    prob_x0_factorized,
)

__version__ = "0.1.0"

__all__ = [
    "CvPhaseError",
    "GridLayoutError",
    "ParameterError",
    "QuadratureToleranceError",
    "RegimeError",
    "SingularityError",
    "UnidentifiableFunctionError",
    "AuditReport",
    "AuditRow",
    "EstimationReport",
    "ReplicationSummary",
    "heisenberg_audit",
    "mle_phi",
    "replicated_mse",
    "sample_outcomes",
    "MOMENTUM",
    "POSITION",
    "GridState",
    "KickbackCheck",
    "PhaseResponse",
    "aligned_half_width",
    "apply_blackbox",
    "fourier",
    "fourier_matrix",
    "inverse_fourier",
    "measure_povm",
    "phase_response",
    "prepare_gaussian",
    "run_circuit",
    "two_register_kickback_check",
    "CONTAINMENT_RATIO",
    "FULL_EFFICIENCY_PRODUCT",
    "MeasurementDistribution",
    "PiecewiseBinaryFunction",
    "ProcedureParams",
    "ValidationReport",
    "require_containment",
    "validate_params",
    "QuadratureResult",
    "QuadratureSpec",
    "StepHatGap",
    "prob_x0_quadrature",
    "step_hat_gap",
    "FisherReport",
    "GeneratorMoments",
    "cosine_model_coefficients",
    "delta_phi",
    "dj_statistics",
    "fisher_phi",
    "fisher_r",
    "generator_moments",
    "mask_efficiency",
    "prob_x0",
    "prob_x0_factorized",
    "__version__",
]
