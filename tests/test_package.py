"""The package namespace: every public name resolves on first use."""

import importlib
import inspect
import pkgutil
import subprocess
import sys
import typing

import pytest

import cvphase


# the public surface, spelled out so that adding or dropping a name is a
# visible change here
PUBLIC_NAMES = [
    "CONTAINMENT_RATIO", "CvPhaseError", "FisherReport", "GeneratorMoments",
    "GridLayoutError", "GridState", "KickbackCheck", "MOMENTUM",
    "MeasurementDistribution", "POSITION", "ParameterError", "PhaseResponse",
    "PiecewiseBinaryFunction", "ProcedureParams", "QuadratureResponse",
    "QuadratureResult", "QuadratureToleranceError", "RegimeError",
    "ReplicationSummary", "SingularityError", "StepHatGap",
    "UnidentifiableFunctionError", "__version__", "aligned_half_width",
    "apply_blackbox", "cosine_model_coefficients", "delta_phi", "dj_statistics",
    "fisher_phi", "fisher_phis", "fisher_rs", "fourier",
    "generator_moments", "heisenberg_audit", "inverse_fourier", "mask_efficiency",
    "measure_povm", "phase_response", "prepare_gaussian", "prob_x0",
    "prob_x0_factorized", "prob_x0_quadrature", "prob_x0s", "quadrature_response", "replicated_mse", "require_containment",
    "run_circuit", "sample_outcomes", "step_hat_gap", "step_hat_gaps",
    "two_register_kickback_check",
]


def test_public_surface_is_pinned():
    assert sorted(cvphase.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("name", [n for n in cvphase.__all__ if n != "__version__"])
def test_public_name_is_the_defining_modules_object(name):
    value = getattr(cvphase, name)
    defining = importlib.import_module(f"cvphase.{cvphase._SUBMODULE[name]}")
    assert value is getattr(defining, name)
    if callable(value):  # defined there, not re-exported from elsewhere
        assert value.__module__ == defining.__name__


def test_dir_lists_every_public_name_and_submodule():
    # in a fresh interpreter, before any name has been resolved
    proc = subprocess.run(
        [sys.executable, "-c",
         "import cvphase; print(sorted(set(cvphase.__all__) - set(dir(cvphase))))\n"
         "print(sorted(set(cvphase._SUBMODULE.values()) - set(dir(cvphase))))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"


@pytest.mark.parametrize(
    "module", ["errors", "experiments", "grid", "model", "quadrature", "stats"],
)
def test_submodule_is_an_attribute_after_a_bare_import(module):
    # in a fresh interpreter, where nothing else has imported the submodule
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, cvphase; m = cvphase.{module}\n"
         f"print(m is sys.modules['cvphase.{module}'], m.__name__)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"True cvphase.{module}\n"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cvphase.no_such_name  # noqa: B018
    assert not hasattr(cvphase, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cvphase import *", namespace)
    assert set(cvphase.__all__) <= set(namespace)
    assert namespace["ProcedureParams"] is cvphase.model.ProcedureParams
    assert namespace["__version__"] == "0.1.0"


def _annotated(module):
    """The functions, classes and methods a cvphase module defines."""
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(value):
            yield value
            yield from (m for m in vars(value).values() if inspect.isfunction(m))
        elif inspect.isfunction(value):
            yield value


@pytest.mark.parametrize(
    "module", [m.name for m in pkgutil.iter_modules(cvphase.__path__)]
)
def test_every_annotation_resolves(module):
    # annotations are strings (from __future__ import annotations), so a
    # name the module never imports fails only here, not at import
    defined = list(_annotated(importlib.import_module(f"cvphase.{module}")))
    assert defined
    for obj in defined:
        typing.get_type_hints(obj)
