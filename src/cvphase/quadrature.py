"""Numerically integrated detection probabilities, independent of the erf
closed forms.

The detection probability factorizes into a single complex integral of the
Gaussian envelope times the mask's phase factor.  Here each constant segment
of the mask is integrated with adaptive Gauss-Kronrod quadrature and the
segment results are combined in fixed order, giving an oracle that shares no
special-function code with the closed-form route in ``stats``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import ParameterError, QuadratureToleranceError, RegimeError
from .model import (
    PiecewiseBinaryFunction,
    ProcedureParams,
    require_containment,
    require_mask_domain,
)


@dataclass(frozen=True)
class QuadratureSpec:
    """Error budget for one probability evaluation.

    abs_tol applies to the final probability; it must not exceed 1e-6 because
    this module exists to resolve deviations well below that scale.
    """

    abs_tol: float = 1e-10
    max_subdivisions: int = 256

    def __post_init__(self) -> None:
        if not (0.0 < self.abs_tol <= 1e-6):
            raise ParameterError(f"abs_tol must lie in (0, 1e-6], got {self.abs_tol}")
        if self.max_subdivisions < 64:
            raise ParameterError(
                f"max_subdivisions must be at least 64, got {self.max_subdivisions}"
            )


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float


def prob_x0_quadrature(
    p: ProcedureParams,
    f: PiecewiseBinaryFunction,
    phi: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> QuadratureResult:
    """Detection probability via adaptive quadrature over the mask segments.

    The probability-level budget abs_tol is converted to a budget for the
    underlying complex integral (whose modulus is at most sqrt(pi)/(2*delta))
    and split across segments in proportion to their Gaussian mass, so tail
    segments do not starve the centre.  The returned error_estimate is
    propagated from the per-segment estimates; if it exceeds abs_tol a
    QuadratureToleranceError carrying the best values is raised.
    """
    # imported here: scipy.integrate costs most of the package import time,
    # and only this function integrates
    from scipy.integrate import IntegrationWarning, quad

    require_containment(p)
    require_mask_domain(p, f)
    d = p.delta
    segs = f.segments()

    # first-order: |dp| <= (4 d^2/pi) * 2 |I|_max * |dI|, |I|_max <= sqrt(pi)/(2d)
    # => an integral budget of abs_tol * sqrt(pi)/(4d) meets abs_tol; halve for safety
    integral_budget = spec.abs_tol * math.sqrt(math.pi) / (8.0 * d)

    # mass weights only steer the split; they never enter the value
    masses = []
    for lo, hi, _ in segs:
        mid = 0.5 * (lo + hi)
        masses.append((hi - lo) * math.exp(-4.0 * d * d * mid * mid))
    total_mass = sum(masses) or 1.0

    def integrand(y: float) -> float:
        return math.exp(-4.0 * d * d * y * y)

    acc_re = 0.0
    acc_im = 0.0
    err_sum = 0.0
    with warnings.catch_warnings():
        # an exhausted budget surfaces through the propagated estimate below
        warnings.simplefilter("ignore", IntegrationWarning)
        for (lo, hi, v), mass in zip(segs, masses):
            seg_budget = integral_budget * max(mass / total_mass, 1e-6)
            val, err = quad(
                integrand, lo, hi, epsabs=seg_budget, epsrel=0.0,
                limit=spec.max_subdivisions,
            )
            acc_re += val * math.cos(2.0 * phi * v)
            acc_im += val * math.sin(2.0 * phi * v)
            err_sum += err

    norm = 4.0 * d * d / math.pi
    mod = math.hypot(acc_re, acc_im)
    value = norm * mod * mod
    error_estimate = norm * (2.0 * mod * err_sum + err_sum * err_sum)
    if error_estimate > spec.abs_tol:
        raise QuadratureToleranceError(
            f"propagated error estimate {error_estimate:.3e} exceeds "
            f"abs_tol {spec.abs_tol:.3e} within {spec.max_subdivisions} subdivisions",
            value=value,
            error_estimate=error_estimate,
        )
    return QuadratureResult(value=value, error_estimate=error_estimate)


@dataclass(frozen=True)
class StepHatGap:
    """Difference between the balanced step mask and the centred window mask.

    signed_gap = p_step - p_hat (analytically nonpositive: the window mask
    detects slightly more often).  gap is its magnitude;
    leading_order_prediction is the small-mask-product series
    |1 - cos(2*phi)| * (8/pi) * (P*delta)^6 * |1 - 3*(P*delta)^2|,
    and ratio = gap / prediction (nan when the prediction vanishes).
    """

    signed_gap: float
    gap: float
    leading_order_prediction: float
    ratio: float


def step_hat_gap(
    p: ProcedureParams, phi: float, spec: QuadratureSpec = QuadratureSpec()
) -> StepHatGap:
    """Quadrature-measured gap between Step(0) and Hat(-P/2, P/2) detection
    probabilities, with its small-(P*delta) series prediction.

    Requires P*delta <= 1/2; beyond that the truncated series stops
    controlling the gap.
    """
    s = p.mask_product
    if s > 0.5:
        raise RegimeError(
            f"step_hat_gap requires P*delta <= 0.5, got {s}; the series "
            "prediction does not control larger mask products"
        )
    step = PiecewiseBinaryFunction.step(0.0, p.big_p)
    hat = PiecewiseBinaryFunction.hat(-p.big_p / 2.0, p.big_p / 2.0, p.big_p)
    p_step = prob_x0_quadrature(p, step, phi, spec).value
    p_hat = prob_x0_quadrature(p, hat, phi, spec).value
    signed = p_step - p_hat
    prediction = (
        abs(1.0 - math.cos(2.0 * phi)) * (8.0 / math.pi) * s**6 * abs(1.0 - 3.0 * s * s)
    )
    ratio = abs(signed) / prediction if prediction > 0.0 else float("nan")
    return StepHatGap(
        signed_gap=signed,
        gap=abs(signed),
        leading_order_prediction=prediction,
        ratio=ratio,
    )
