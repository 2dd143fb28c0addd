"""Closed-form measurement statistics for binary phase masks.

All formulas below follow from one factorization: with a position-centred
Gaussian envelope, detecting the original window after mask and inverse
transform has probability

    p = (4*delta^2/pi) * | integral_{-P}^{P} exp(-4*delta^2*y^2)
                                            * exp(2i*phi*f(y)) dy |^2.

For a threshold (step) mask with f = 1 on (r, P] this collapses to

    p(phi) = (E + G)/2 + (E - G)/2 * cos(2*phi),
    E = erf(2*P*delta)^2,  G = erf(2*r*delta)^2,

which drives the Fisher information, the estimator precision bound and the
constant-vs-balanced decision statistics.  E is the mask efficiency; G only
depends on |r|, so every quantity here is even in r.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ParameterError, SingularityError
from .model import (
    MeasurementDistribution,
    PiecewiseBinaryFunction,
    ProcedureParams,
    require_containment,
    require_mask_domain,
)

_SIN_TOL = 1e-12  # |sin(2*phi)| below this counts as a vanishing derivative


def _require_r(p: ProcedureParams, r: float) -> float:
    r = float(r)
    if not math.isfinite(r) or abs(r) > p.big_p * (1.0 + 1e-12):
        raise ParameterError(f"threshold r={r} outside [-P, P] with P={p.big_p}")
    return r


def mask_efficiency(p: ProcedureParams) -> float:
    """E = erf(2*P*delta)^2, the weight the envelope places on [-P, P]."""
    e1 = math.erf(2.0 * p.big_p * p.delta)
    return e1 * e1


def _G(p: ProcedureParams, r: float) -> float:
    g1 = math.erf(2.0 * r * p.delta)
    return g1 * g1


def prob_x0(p: ProcedureParams, r: float, phi: float) -> MeasurementDistribution:
    """Detection probability for the step mask with threshold r at phase phi."""
    require_containment(p)
    r = _require_r(p, r)
    E = mask_efficiency(p)
    G = _G(p, r)
    c = math.cos(2.0 * phi)
    return MeasurementDistribution(0.5 * (E + G) + 0.5 * (E - G) * c)


def cosine_model_coefficients(p: ProcedureParams, r: float) -> tuple[float, float]:
    """Offset and amplitude (a, b) of the response p(phi) = a + b*cos(2*phi).

    a = (E + G)/2, b = (E - G)/2 for the step mask with threshold r; b is the
    identifiable signal strength (b = 0 for a constant mask).
    """
    require_containment(p)
    r = _require_r(p, r)
    E = mask_efficiency(p)
    G = _G(p, r)
    return 0.5 * (E + G), 0.5 * (E - G)


def prob_x0_factorized(
    p: ProcedureParams, f: PiecewiseBinaryFunction, phi: float
) -> MeasurementDistribution:
    """Detection probability for an arbitrary binary mask, by exact segment sums.

    Each constant segment of f contributes a closed-form Gaussian weight times
    its phase factor; no numerical integration is involved.  For a step mask
    this reproduces prob_x0 to rounding.
    """
    require_containment(p)
    require_mask_domain(p, f)
    d = p.delta
    # integral over [lo, hi] of exp(-4 d^2 y^2) = sqrt(pi)/(4d) * (erf(2d hi) - erf(2d lo))
    acc = 0.0 + 0.0j
    for lo, hi, v in f.segments():
        weight = math.erf(2.0 * d * hi) - math.erf(2.0 * d * lo)
        acc += cmath.exp(2j * phi * v) * weight
    acc *= math.sqrt(math.pi) / (4.0 * d)
    val = (4.0 * d * d / math.pi) * abs(acc) ** 2
    return MeasurementDistribution(val)


@dataclass(frozen=True)
class GeneratorMoments:
    mean: float
    variance: float


def generator_moments(p: ProcedureParams, r: float) -> GeneratorMoments:
    """Moments of the step mask viewed as the phase generator.

    In the conjugate-space envelope, <f> = (erf(2*P*delta) - erf(2*r*delta))/2
    and, because f^2 = f, the variance is <f>(1 - <f>).
    """
    r = _require_r(p, r)
    mean = 0.5 * (math.erf(2.0 * p.big_p * p.delta) - math.erf(2.0 * r * p.delta))
    return GeneratorMoments(mean=mean, variance=mean * (1.0 - mean))


@dataclass(frozen=True)
class FisherReport:
    """Fisher information at one (r, phi) point plus its precision bounds.

    variance_bound = 16 * variance of the generator; the information can
    never exceed it (up to rounding).  mean_bound_diagnostic = 4 * mean^2 is
    reported for inspection only: it is convention-dependent (it shifts by a
    factor 4 if the generator is scaled by 2) and is not asserted anywhere.
    delta_phi is the closed-form single-shot precision, available only for
    the balanced threshold r = 0 away from vanishing-derivative phases.
    singular_limit marks values obtained as analytic limits where the raw
    quotient is 0/0.
    """

    fisher: float
    variance_bound: float
    mean_bound_diagnostic: float
    delta_phi: float | None = None
    singular_limit: bool = False


def fisher_phi(p: ProcedureParams, r: float, phi: float) -> FisherReport:
    """Fisher information about phi carried by one detection, step mask r."""
    require_containment(p)
    r = _require_r(p, r)
    E = mask_efficiency(p)
    G = _G(p, r)
    a = 0.5 * (E + G)
    b = 0.5 * (E - G)
    c = math.cos(2.0 * phi)
    s = math.sin(2.0 * phi)
    prob = a + b * c
    dp = -2.0 * b * s
    pq = prob * (1.0 - prob)

    singular = False
    if pq > 0.0:
        fisher = dp * dp / pq
    elif b == 0.0:
        # constant mask: no phi dependence at all
        fisher = 0.0
        singular = True
    elif prob <= 0.0:
        # reachable only for G = 0 at cos(2*phi) = -1; limit of dp^2/(p(1-p))
        fisher = 2.0 * (E - G) * (1.0 - c) / (1.0 - prob)
        singular = True
    else:
        # prob = 1 requires E = 1 to machine precision at cos(2*phi) = +1
        fisher = 2.0 * (E - G) * (1.0 + c) / prob
        singular = True

    moments = generator_moments(p, r)
    dphi: float | None = None
    if r == 0.0 and abs(s) >= _SIN_TOL:
        mean_x = 0.5 * E * (1.0 + c)
        var_x = mean_x * (1.0 - mean_x)
        if var_x > 0.0:
            dphi = math.sqrt(var_x) / (E * abs(s))
    return FisherReport(
        fisher=fisher,
        variance_bound=16.0 * moments.variance,
        mean_bound_diagnostic=4.0 * moments.mean * moments.mean,
        delta_phi=dphi,
        singular_limit=singular,
    )


def fisher_r(p: ProcedureParams, r: float, phi: float) -> float:
    """Fisher information about the threshold r at fixed phase phi.

    dG/dr = (8*delta/sqrt(pi)) * erf(2*r*delta) * exp(-4*r^2*delta^2) and
    dp/dr = dG/dr * (1 - cos(2*phi))/2.  As r -> 0 at cos(2*phi) = -1 the
    raw quotient is 0/0 with finite limit 64*delta^2/pi.
    """
    require_containment(p)
    r = _require_r(p, r)
    d = p.delta
    E = mask_efficiency(p)
    G = _G(p, r)
    c = math.cos(2.0 * phi)
    prob = 0.5 * (E + G) + 0.5 * (E - G) * c
    dG = (8.0 * d / math.sqrt(math.pi)) * math.erf(2.0 * r * d) * math.exp(-4.0 * r * r * d * d)
    dp = 0.5 * dG * (1.0 - c)
    pq = prob * (1.0 - prob)
    if pq > 0.0:
        return dp * dp / pq
    if prob <= 0.0:
        # G = 0 and cos(2*phi) = -1: p ~ (16 d^2/pi) r^2, dp ~ (32 d^2/pi) r
        return 64.0 * d * d / math.pi
    # p = 1: happens only at cos(2*phi) = 1 where p has no r dependence
    return 0.0


def delta_phi(p: ProcedureParams, phi: float) -> float:
    """Single-shot phase precision of the balanced threshold, from the
    detection observable's spread over the slope of its mean.

    Undefined where the mean's derivative vanishes (phi = 0, pi/2, pi, ...).
    """
    require_containment(p)
    E = mask_efficiency(p)
    c = math.cos(2.0 * phi)
    s = math.sin(2.0 * phi)
    if abs(s) < _SIN_TOL:
        raise SingularityError(
            f"d<X>/dphi vanishes at phi={phi!r}; precision is undefined there"
        )
    mean_x = 0.5 * E * (1.0 + c)
    return math.sqrt(mean_x * (1.0 - mean_x)) / (E * abs(s))


def dj_statistics(p: ProcedureParams, r: float) -> MeasurementDistribution:
    """Detection statistics of the decision run (phase fixed at pi/2).

    p_x0 = erf(2*r*delta)^2: exactly 0 for the balanced threshold r = 0, and
    the mask efficiency E for a constant mask (|r| = P), so a window miss
    identifies a balanced mask with certainty and a constant mask is
    misidentified with probability 1 - E.
    """
    r = _require_r(p, r)
    return MeasurementDistribution(_G(p, r))
