"""Phase estimation and one-shot function classification with finite-domain
Gaussian states and binary spectral masks.

Three independent engines compute the same detection probability: closed
forms (``stats``), adaptive quadrature over the factorized integral
(``quadrature``), and the grid circuit split at its mask (``grid``).  On top sit
seeded Monte-Carlo hit counts (``experiments``) and a table-emitting CLI
(``cli``, installed as the ``cvphase`` script).

``import cvphase`` runs none of them.  It registers each of its six layers
in ``sys.modules`` and as a package attribute (``cvphase.grid``) through
``importlib.util.LazyLoader``: a registered layer runs its code on its first
attribute access, so ``from . import grid`` inside the package loads
nothing, and a script or command pays for the engines it touches and no
others.  A layer that has already run stays registered as it is, also
across ``importlib.reload``.  Each public name resolves on first use
from the layer that defines it (PEP 562).
"""

import importlib.util
import sys

# public name -> the layer defining it, run when the name is first used
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

for _layer in dict.fromkeys(_SUBMODULE.values()):
    _name = f"{__name__}.{_layer}"
    _module = sys.modules.get(_name)
    if _module is None:  # a layer already loaded stays, also across a reload
        _module = importlib.util.module_from_spec(importlib.util.find_spec(_name))
        importlib.util.LazyLoader(_module.__loader__).exec_module(_module)
        sys.modules[_name] = _module
    globals()[_layer] = _module
del _layer, _name, _module


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_SUBMODULE[name]], name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [*_SUBMODULE, "__version__"]
