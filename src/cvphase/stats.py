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
depends on |r|, so p, F_phi and F_r are even in r.  The generator mean is
not (mean(r) + mean(-r) = erf(2*P*delta)), nor are the bounds built on it.

Every closed form of a threshold and a phase reads one ``_sweep`` of a
threshold axis and a phase axis (``_threshold`` is its one-threshold read).
Two closed forms need no phase and take their one erf directly instead:
``mask_efficiency`` erf(2*P*delta), and ``dj_statistics`` erf(2*r*delta) at
the decision phase, where p_x0 = G; a sweep would add the erf of E to each
call.  A sweep runs the containment check once and takes erf(2*P*delta)
once, as E is a constant of the whole (phi, r) sweep.  Each threshold then passes
``model._inside`` (r in [-P, P], no slack) and takes one erf(2*r*delta) for
its record of what depends on r alone; the phase axis passes
``model._phases`` once, and each phase's cos(2*phi) and sin(2*phi) are taken
once.  The sweeps return columns, r-major (``fisher_phis`` and
``heisenberg_audit`` a dict of them keyed by the names their tables print).
Nothing here builds an array.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable

from .errors import SingularityError
from .model import (
    MeasurementDistribution,
    ProcedureParams,
    _inside,
    _iterable,
    _phases,
    _probabilities,
    require_containment,
)

_SIN_TOL = 1e-12  # |sin(2*phi)| below this counts as a vanishing derivative
_AUDIT_TOL = 1e-3  # |delta_phi*sqrt(F) - 1| within this flags an audit row optimal


def mask_efficiency(p: ProcedureParams) -> float:
    """E = erf(2*P*delta)^2, the weight a contained envelope places on [-P, P]."""
    require_containment(p)
    e1 = math.erf(2.0 * p.big_p * p.delta)
    return e1 * e1


def _sweep(p: ProcedureParams, r_values: Iterable[float], phis: Iterable[float]):
    """The record of each threshold, the checked phases and each phase's
    (cos(2*phi), sin(2*phi)), after one containment check.

    A record is (r, a, b, E, mean, dG): the checked r as a float, the
    response coefficients a = (E + G)/2 and b = (E - G)/2, the mask
    efficiency E, the generator mean <f> = (erf(2*P*delta) - erf(2*r*delta))/2
    and dG/dr = (8*delta/sqrt(pi)) * erf(2*r*delta) * exp(-4*r^2*delta^2).
    """
    require_containment(p)  # also when the threshold axis is empty
    d = p.delta
    e1 = math.erf(2.0 * p.big_p * d)
    E = e1 * e1
    scale = 8.0 * d / math.sqrt(math.pi)
    records = []
    for r in _iterable(r_values, "the threshold axis"):
        r = _inside(r, p.big_p, "threshold r")
        g1 = math.erf(2.0 * r * d)
        G = g1 * g1
        dG = scale * g1 * math.exp(-4.0 * r * r * d * d)
        records.append((r, 0.5 * (E + G), 0.5 * (E - G), E, 0.5 * (e1 - g1), dG))
    phis = _phases(phis)
    return records, phis, [(math.cos(2.0 * phi), math.sin(2.0 * phi)) for phi in phis]


def _threshold(p: ProcedureParams, r: float) -> tuple[float, ...]:
    """The ``_sweep`` record of threshold r: its closed forms free of phi."""
    return _sweep(p, (r,), ())[0][0]


def prob_x0(p: ProcedureParams, r: float, phi: float) -> MeasurementDistribution:
    """Detection probability for the step mask with threshold r at phase phi."""
    return MeasurementDistribution(prob_x0s(p, (r,), (phi,))[0])


def prob_x0s(
    p: ProcedureParams, r_values: Iterable[float], phis: Iterable[float]
) -> list[float]:
    """prob_x0's checked p_x0 at each threshold of r_values and phase of
    phis, r-major."""
    records, _, trig = _sweep(p, r_values, phis)
    column = []
    for _, a, b, *_ in records:
        column += [a + b * c for c, _ in trig]
    return _probabilities(column)


def cosine_model_coefficients(p: ProcedureParams, r: float) -> tuple[float, float]:
    """Offset and amplitude (a, b) of the response p(phi) = a + b*cos(2*phi).

    a = (E + G)/2, b = (E - G)/2 for the step mask with threshold r; b is the
    identifiable signal strength (b = 0 for a constant mask).
    """
    return _threshold(p, r)[1:3]


GeneratorMoments = namedtuple("GeneratorMoments", "mean variance")


def generator_moments(p: ProcedureParams, r: float) -> GeneratorMoments:
    """Moments of the step mask viewed as the phase generator.

    In the conjugate-space envelope, <f> = (erf(2*P*delta) - erf(2*r*delta))/2
    and, because f^2 = f, the variance is <f>(1 - <f>).
    """
    mean = _threshold(p, r)[4]
    return GeneratorMoments(mean=mean, variance=mean * (1.0 - mean))


class FisherReport(namedtuple(
    "FisherReport",
    "fisher variance_bound mean_bound delta_phi singular_limit",
    defaults=(None, False),
)):
    """Fisher information at one (r, phi) point plus its precision bounds.

    variance_bound = 16 * variance of the generator; the information can
    never exceed it (up to rounding).  mean_bound = 4 * mean^2 is a
    diagnostic, for inspection only: it is convention-dependent (it shifts
    by a factor 4 if the generator is scaled by 2) and is asserted nowhere.
    delta_phi is the closed-form single-shot precision, available only for
    the balanced threshold r = 0 away from vanishing-derivative phases.
    singular_limit marks values obtained as analytic limits where the raw
    quotient is 0/0.
    """

    __slots__ = ()


def fisher_phi(p: ProcedureParams, r: float, phi: float) -> FisherReport:
    """Fisher information about phi carried by one detection, step mask r:
    the one-cell read of ``fisher_phis``."""
    columns = fisher_phis(p, (r,), (phi,))
    return FisherReport._make(column[0] for column in columns.values())


def fisher_phis(
    p: ProcedureParams, r_values: Iterable[float], phis: Iterable[float]
) -> dict[str, list]:
    """fisher_phi at each threshold of r_values and phase of phis, r-major,
    as one list per FisherReport field keyed by its name, in field order:
    the analytic columns of the ``fisher-phi`` table, which prints these
    names."""
    records, _, trig = _sweep(p, r_values, phis)
    columns = {name: [] for name in FisherReport._fields}
    n = len(trig)
    for r, a, b, E, mean, _ in records:
        fishers, singular = _fishers(a, b, trig)
        columns["fisher"] += fishers
        columns["variance_bound"] += [16.0 * (mean * (1.0 - mean))] * n
        columns["mean_bound"] += [4.0 * mean * mean] * n
        columns["delta_phi"] += (
            [_precision(E, c, s) for c, s in trig] if r == 0.0 else [None] * n
        )
        columns["singular_limit"] += singular
    return columns


def _fishers(a: float, b: float, trig: list) -> tuple[list[float], list[bool]]:
    """(F_phi, singular_limit) columns of the response a + b*cos(2*phi) over
    the phases of trig, their (cos(2*phi), sin(2*phi)) pairs, with -2*b of
    dp/dphi = -2*b*sin(2*phi) taken once; singular_limit marks an analytic
    limit taken where the raw quotient is 0/0.  Both limits are 0 for a
    constant mask (b = 0), which has no phi dependence at all."""
    slope = -2.0 * b
    fishers, singular = [], []
    for c, s in trig:
        prob = a + b * c
        pq = prob * (1.0 - prob)
        singular.append(not pq > 0.0)
        if pq > 0.0:
            dp = slope * s
            fishers.append(dp * dp / pq)
        elif prob <= 0.0:
            # reachable only for G = 0 at cos(2*phi) = -1; limit of dp^2/(p(1-p))
            fishers.append(4.0 * b * (1.0 - c) / (1.0 - prob))
        else:
            # prob = 1 requires E = 1 to machine precision at cos(2*phi) = +1
            fishers.append(4.0 * b * (1.0 + c) / prob)
    return fishers, singular


def fisher_rs(
    p: ProcedureParams, r_values: Iterable[float], phis: Iterable[float]
) -> list[float]:
    """Fisher information about the threshold at each threshold of r_values
    and phase of phis, r-major, from one a, b and dG/dr per threshold.

    dG/dr = (8*delta/sqrt(pi)) * erf(2*r*delta) * exp(-4*r^2*delta^2) and
    dp/dr = dG/dr * (1 - cos(2*phi))/2.  As r -> 0 at cos(2*phi) = -1 the
    raw quotient is 0/0 with finite limit 64*delta^2/pi.
    """
    records, _, trig = _sweep(p, r_values, phis)
    d = p.delta
    fishers = []
    for _, a, b, _, _, dG in records:
        for c, _ in trig:
            prob = a + b * c
            dp = 0.5 * dG * (1.0 - c)
            pq = prob * (1.0 - prob)
            if pq > 0.0:
                fishers.append(dp * dp / pq)
            elif prob <= 0.0:
                # G = 0 and cos(2*phi) = -1: p ~ (16 d^2/pi) r^2, dp ~ (32 d^2/pi) r
                fishers.append(64.0 * d * d / math.pi)
            else:
                # p = 1: happens only at cos(2*phi) = 1 where p has no r dependence
                fishers.append(0.0)
    return fishers


def _precision(E: float, c: float, s: float) -> float | None:
    """Single-shot phase precision of the balanced threshold at the phase
    with c = cos(2*phi) and s = sin(2*phi): the spread of the detection
    observable X, mean E*(1 + c)/2, over the slope E*|s| of that mean.
    None where the slope vanishes (|s| < _SIN_TOL) or underflows to 0, or
    the variance rounds to 0 (within about 1e-8 of a slope zero).
    """
    slope = E * abs(s)
    mean_x = 0.5 * E * (1.0 + c)
    var_x = mean_x * (1.0 - mean_x)
    if abs(s) < _SIN_TOL or slope == 0.0 or var_x == 0.0:
        return None
    return math.sqrt(var_x) / slope


def delta_phi(p: ProcedureParams, phi: float) -> float:
    """Single-shot phase precision of the balanced threshold, from the
    detection observable's spread over the slope of its mean.

    Undefined where the mean's derivative -E*sin(2*phi) vanishes: at
    phi = 0, pi/2, pi, ..., and wherever the slope or the variance
    underflows to 0.
    """
    ((_, _, _, E, _, _),), (phi,), ((c, s),) = _sweep(p, (0.0,), (phi,))
    dphi = _precision(E, c, s)
    if dphi is None:
        raise SingularityError(
            f"d<X>/dphi vanishes, or it or var(X) underflows to 0, at "
            f"phi={phi!r} with P*delta = {p.mask_product!r}; precision is "
            "undefined there"
        )
    return dphi


def dj_statistics(p: ProcedureParams, r: float) -> MeasurementDistribution:
    """Detection statistics of the decision run (phase fixed at pi/2).

    p_x0 = erf(2*r*delta)^2: exactly 0 for the balanced threshold r = 0, and
    the mask efficiency E for a constant mask (|r| = P), so a window miss
    identifies a balanced mask with certainty and a constant mask is
    misidentified with probability 1 - E.  r must lie in [-P, P] and the
    envelope must be contained, as for every closed form here.
    """
    require_containment(p)
    g1 = math.erf(2.0 * _inside(r, p.big_p, "threshold r") * p.delta)
    return MeasurementDistribution(g1 * g1)


def heisenberg_audit(
    p: ProcedureParams, r: float, phis: Iterable[float]
) -> dict[str, list]:
    """Tabulate the Fisher information against its generator bounds over phi.

    The ``audit`` table's columns, keyed by name in table order, each a
    list with one cell per phase.

    variance_bound is 16*var(f), the convention-independent information cap
    (reading the mask exponent as f at doubled angle or as 2f at plain angle
    gives the same number).  The two mean-square columns, 4*mean^2 under each
    of those readings, are convention-dependent diagnostics only: never used
    as a cap.  dphi_sqrt_fisher multiplies the phase-propagation error of the
    threshold-at-zero reference procedure by sqrt(F) of the procedure under
    audit, and is NaN where that error is undefined (see delta_phi); a row
    is flagged optimal when the product is 1 within 1e-3.
    """
    ((r, a, b, E, mean, _),), phis, trig = _sweep(p, (r,), phis)
    fishers = _fishers(a, b, trig)[0]
    products = [
        math.nan if dphi is None else dphi * math.sqrt(fisher)
        for dphi, fisher in zip((_precision(E, c, s) for c, s in trig), fishers)
    ]
    n = len(fishers)
    mean_bound = 4.0 * mean * mean
    return {
        "phi": phis,
        "r": [r] * n,
        "fisher": fishers,
        "variance_bound": [16.0 * (mean * (1.0 - mean))] * n,
        "mean_bound_generator_f": [mean_bound] * n,
        "mean_bound_generator_2f": [4.0 * mean_bound] * n,
        "dphi_sqrt_fisher": products,
        "optimal": [math.isfinite(x) and abs(x - 1.0) <= _AUDIT_TOL for x in products],
    }
