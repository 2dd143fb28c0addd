"""Phase estimation and one-shot function classification with finite-domain
Gaussian states and binary spectral masks.

Three independent engines compute the same detection probability: closed
forms (``stats``), adaptive quadrature over the factorized integral
(``quadrature``), and the grid circuit split at its mask (``grid``).  On top sit
seeded Monte-Carlo hit counts (``experiments``) and a table-emitting CLI
(``cli``, installed as the ``cvphase`` script).

``import cvphase`` loads none of them: each public name, and each submodule
as an attribute (``cvphase.grid``), resolves on first use, importing only
the submodule that defines it (PEP 562), so a script or command pays for
the engines it touches and no others.
"""

import importlib

# public name -> the submodule defining it, imported when the name is first used
_SUBMODULE = {
    name: module
    for module, names in (
        ("errors", (
            "CvPhaseError", "GridLayoutError", "ParameterError",
            "QuadratureToleranceError", "RegimeError", "SingularityError",
            "UnidentifiableFunctionError",
        )),
        ("experiments", ("ReplicationSummary", "replicated_mse", "sample_outcomes")),
        ("grid", ("PhaseResponse", "phase_response")),
        ("model", (
            "CONTAINMENT_RATIO", "MeasurementDistribution",
            "PiecewiseBinaryFunction", "ProcedureParams", "aligned_half_width",
            "require_containment",
        )),
        ("quadrature", (
            "QuadratureResponse", "QuadratureResult", "QuadratureSweep",
            "StepHatGap", "prob_x0_quadrature", "quadrature_responses",
            "step_hat_gap", "step_hat_gaps",
        )),
        ("stats", (
            "FisherReport", "GeneratorMoments", "cosine_model_coefficients",
            "delta_phi", "dj_statistics", "fisher_phi", "fisher_phis",
            "fisher_rs", "generator_moments", "heisenberg_audit",
            "mask_efficiency", "prob_x0", "prob_x0s",
        )),
    )
    for name in names
}
_MODULES = frozenset(_SUBMODULE.values())


def __getattr__(name: str):
    if name in _SUBMODULE:
        value = getattr(importlib.import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    elif name in _MODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_MODULES))


__version__ = "0.1.0"

__all__ = [*_SUBMODULE, "__version__"]
