"""The package namespace: every public name resolves on first use."""

import functools
import importlib
import inspect
import math
import pkgutil
import subprocess
import sys
import typing
import warnings

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import cvphase
from cvphase import PiecewiseBinaryFunction, ProcedureParams


# the public surface, spelled out so that adding or dropping a name is a
# visible change here
PUBLIC_NAMES = [
    "CONTAINMENT_RATIO", "CvPhaseError", "FisherReport", "GeneratorMoments",
    "GridLayoutError", "GridState", "KickbackCheck", "MOMENTUM",
    "MeasurementDistribution", "POSITION", "ParameterError", "PhaseResponse",
    "PiecewiseBinaryFunction", "ProcedureParams", "QuadratureResponse",
    "QuadratureResult", "QuadratureSweep", "QuadratureToleranceError", "RegimeError",
    "ReplicationSummary", "SingularityError", "StepHatGap",
    "UnidentifiableFunctionError", "__version__", "aligned_half_width",
    "apply_blackbox", "cosine_model_coefficients", "delta_phi", "dj_statistics",
    "fisher_phi", "fisher_phis", "fisher_rs", "fourier",
    "generator_moments", "heisenberg_audit", "inverse_fourier", "mask_efficiency",
    "measure_povm", "phase_response", "prepare_gaussian", "prob_x0",
    "prob_x0_quadrature", "prob_x0s", "quadrature_responses",
    "replicated_mse", "require_containment",
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


# ---------------------------------------------------------------- input contract
#
# Every public function, every method of a public type that takes an input,
# and every value type that validates what it is built from refuses a value
# it cannot use with a CvPhaseError: it never returns, warns or raises
# another type.  Left out are the records that functions return (they hold
# results, not inputs), the exception types and the constants.
_RECORDS = {
    "FisherReport", "GeneratorMoments", "KickbackCheck", "PhaseResponse",
    "QuadratureResponse", "QuadratureResult", "QuadratureSweep",
    "ReplicationSummary", "StepHatGap",
}
_CONSTANTS = {"CONTAINMENT_RATIO", "MOMENTUM", "POSITION", "__version__"}
_BAD = [
    math.nan, math.inf, -math.inf, "0.5", True, 0.5 + 1j, np.complex128(0.5 + 1j),
]


@functools.cache
def _contract_cases() -> dict:
    """name -> (callable, valid arguments): each call succeeds as it stands."""
    from helpers import BIG_P, DELTA, canonical

    p, n = canonical(), 512
    small = ProcedureParams(0.0, DELTA, p.big_t, 0.1 / DELTA)  # P*delta = 0.1
    f = PiecewiseBinaryFunction.step(0.0, BIG_P)
    position = cvphase.prepare_gaussian(p, n)
    momentum = cvphase.fourier(position)
    grid_response = cvphase.phase_response(p, n)
    sweep = cvphase.quadrature_responses(p, [f])
    return {
        "aligned_half_width": (cvphase.aligned_half_width, (BIG_P, n, 32)),
        "require_containment": (cvphase.require_containment, (p,)),
        "ProcedureParams": (ProcedureParams, (0.0, DELTA, p.big_t, BIG_P)),
        "PiecewiseBinaryFunction": (PiecewiseBinaryFunction, ((0.0,), (0, 1), BIG_P)),
        "PiecewiseBinaryFunction.step": (PiecewiseBinaryFunction.step, (0.0, BIG_P)),
        "PiecewiseBinaryFunction.hat": (PiecewiseBinaryFunction.hat, (-1.0, 1.0, BIG_P)),
        "PiecewiseBinaryFunction.__call__": (f, (0.3,)),
        "MeasurementDistribution": (cvphase.MeasurementDistribution, (0.5,)),
        "cosine_model_coefficients": (cvphase.cosine_model_coefficients, (p, 0.3)),
        "delta_phi": (cvphase.delta_phi, (p, 0.4)),
        "dj_statistics": (cvphase.dj_statistics, (p, 0.3)),
        "fisher_phi": (cvphase.fisher_phi, (p, 0.3, 0.4)),
        "fisher_phis": (cvphase.fisher_phis, (p, (0.3,), (0.4,))),
        "fisher_rs": (cvphase.fisher_rs, (p, (0.3,), (0.4,))),
        "generator_moments": (cvphase.generator_moments, (p, 0.3)),
        "heisenberg_audit": (cvphase.heisenberg_audit, (p, 0.3, (0.4,))),
        "mask_efficiency": (cvphase.mask_efficiency, (p,)),
        "prob_x0": (cvphase.prob_x0, (p, 0.3, 0.4)),
        "prob_x0s": (cvphase.prob_x0s, (p, (0.3,), (0.4,))),
        "prob_x0_quadrature": (cvphase.prob_x0_quadrature, (p, f, 0.4)),
        "QuadratureResponse.at": (sweep[0].at, (0.4,)),
        "quadrature_responses": (cvphase.quadrature_responses, (p, [f])),
        "QuadratureSweep.p_x0s": (sweep.p_x0s, ((0.4,),)),
        "step_hat_gap": (cvphase.step_hat_gap, (small, 0.4)),
        "step_hat_gaps": (cvphase.step_hat_gaps, (small, (0.4,))),
        "GridState": (cvphase.GridState, (
            position.amplitudes, position.grid_start, position.grid_step,
            cvphase.POSITION,
        )),
        "prepare_gaussian": (cvphase.prepare_gaussian, (p, n)),
        "fourier": (cvphase.fourier, (position,)),
        "apply_blackbox": (cvphase.apply_blackbox, (momentum, f, 0.4)),
        "inverse_fourier": (cvphase.inverse_fourier, (momentum,)),
        "measure_povm": (cvphase.measure_povm, (position, p)),
        "run_circuit": (cvphase.run_circuit, (p, f, 0.4, n)),
        "phase_response": (cvphase.phase_response, (p, n)),
        "PhaseResponse.split": (grid_response.split, (f,)),
        "PhaseResponse.p_x0s": (grid_response.p_x0s, ([f], (0.4,))),
        "PhaseResponse.fishers": (grid_response.fishers, ([f], (0.4,))),
        "two_register_kickback_check": (cvphase.two_register_kickback_check, (0.3, f, 16)),
        "sample_outcomes": (cvphase.sample_outcomes, (0.5, 10, 0)),
        "replicated_mse": (cvphase.replicated_mse, (p, 0.0, math.pi / 4, 10, 3, 0)),
    }


def _methods_taking_input(cls):
    """The public methods of cls, and __call__, that take an argument."""
    for attr, member in vars(cls).items():
        if attr.startswith("_") and attr != "__call__":
            continue
        member = getattr(member, "__func__", member)  # a classmethod's function
        if inspect.isfunction(member) and len(inspect.signature(member).parameters) > 1:
            yield f"{cls.__name__}.{attr}"


def test_the_contract_covers_every_public_callable():
    public = set()
    for name in cvphase.__all__:
        value = getattr(cvphase, name)
        if name in _CONSTANTS or (
            inspect.isclass(value) and issubclass(value, cvphase.CvPhaseError)
        ):
            continue
        if name not in _RECORDS:
            public.add(name)
        if inspect.isclass(value):
            public.update(_methods_taking_input(value))
    assert public == set(_contract_cases())


@pytest.mark.parametrize("name", sorted(_contract_cases()))
def test_the_valid_arguments_are_accepted(name):
    call, args = _contract_cases()[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(*args)


# the space is finite: every (callable, argument, value) runs, as one
# explicit example each
_CONTRACT_POINTS = [
    (name, index, bad)
    for name, (_, args) in sorted(_contract_cases().items())
    for index in range(len(args))
    for bad in _BAD
]


def _every_contract_point(test):
    for name, index, bad in reversed(_CONTRACT_POINTS):
        test = example(point=(name, index, bad))(test)
    return test


@_every_contract_point
@given(point=st.sampled_from(_CONTRACT_POINTS))
@settings(phases=(Phase.explicit,), deadline=None)
def test_every_public_callable_refuses_what_it_cannot_use(point):
    # one argument at a time takes nan, +-inf, a str, a bool, a complex or
    # a numpy complex; the others stay valid
    name, index, bad = point
    call, args = _contract_cases()[name]
    args = (*args[:index], bad, *args[index + 1:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(cvphase.CvPhaseError):
            call(*args)
