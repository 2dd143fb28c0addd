"""Monte-Carlo layer: seeded hit counts, one-shot classification, phase estimation.

Both Monte-Carlo results depend on the detections only through their number:
one-shot classification at phi = pi/2 counts hits, and the maximum-likelihood
phase inverts the hit fraction k/n, the sufficient statistic of a binomial.
So the layer works on hit counts.

Randomness contract.  Every stochastic routine in this package draws from a
``numpy.random.Generator`` over the PCG64 bit generator, seeded through
``numpy.random.SeedSequence`` with the caller's seed material.  A hit count
is produced by a single vectorized ``rng.random(n) < p`` comparison, so a
given (seed material, parameters) pair yields the same count on every
platform numpy supports; one count draws at most 10^8 trials.  Replicated
runs give replica ``i`` the seed material ``(master_seed, i)``; the streams
are then mutually independent and individually reproducible.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from ._lazy import lazy_numpy
from .errors import ParameterError, SingularityError, UnidentifiableFunctionError
from .model import PiecewiseBinaryFunction, ProcedureParams
from .stats import (
    cosine_model_coefficients,
    delta_phi,
    fisher_phi,
    generator_moments,
    prob_x0_factorized,
)

np = lazy_numpy()

_HALF_PI = math.pi / 2.0
_IDENTIFIABILITY_TOL = 1e-9
_AUDIT_TOL = 1e-3
# most trials one hit count may draw: the draw holds its n uniforms at once,
# 800 MB at this cap, and a larger count fails allocating instead of running
_MAX_DRAWS = 10**8

SeedMaterial = int | tuple[int, ...]


def _require_draws(n: int, what: str) -> None:
    if not 1 <= n <= _MAX_DRAWS:
        raise ParameterError(f"{what} must lie in [1, {_MAX_DRAWS}], got {n}")


def _count_hits(prob: float, n: int, seed: SeedMaterial) -> int:
    """Hits among n Bernoulli(prob) trials drawn from the stream seeded by seed."""
    material = tuple(int(s) for s in seed) if isinstance(seed, tuple) else int(seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(material)))
    return int(np.count_nonzero(rng.random(n) < prob))


def sample_outcomes(
    p: ProcedureParams,
    f: PiecewiseBinaryFunction,
    phi: float,
    n: int,
    seed: SeedMaterial,
) -> int:
    """Number of detection hits in n independent trials at phase phi under mask f.

    Each trial hits with the closed-form detection probability; the draw is
    ``rng.random(n) < p`` per the module-level randomness contract, and n
    must lie in [1, 10^8].  ``seed`` is an integer, or a tuple of integers
    for derived streams such as (master_seed, replica_index).
    """
    n = int(n)
    _require_draws(n, "the number of trials")
    return _count_hits(prob_x0_factorized(p, f, phi).p_x0, n, seed)


@dataclass(frozen=True)
class EstimationReport:
    """Point estimate of the phase with its error and the information bound.

    empirical_mse is the squared error of this single estimate against the
    true phase; crb = 1/(n_shots * F(true_phi)), infinite when the Fisher
    information vanishes at the true phase.
    """

    phi_hat: float
    n_shots: int
    empirical_mse: float
    crb: float


def _cosine_model(
    p: ProcedureParams, r: float, phi_true: float
) -> tuple[float, float, float]:
    """(a, b, F(phi_true)) for the step mask r.

    Refuses a true phase off the principal branch [0, pi/2], the only one the
    inversion can return, and a flat response that carries no phase.
    """
    if not 0.0 <= phi_true <= _HALF_PI:
        raise ParameterError(
            f"the estimator inverts only on [0, pi/2]; got phi_true={phi_true!r}"
        )
    a, b = cosine_model_coefficients(p, r)
    if b <= _IDENTIFIABILITY_TOL:
        raise UnidentifiableFunctionError(
            f"cosine amplitude {b:.3g} is below {_IDENTIFIABILITY_TOL:g}; "
            "a (near-)constant mask carries no phase information"
        )
    return a, b, fisher_phi(p, r, phi_true).fisher


def _estimate(
    hits: int, shots: int, a: float, b: float, fisher: float, phi_true: float
) -> EstimationReport:
    phi_hat = 0.5 * math.acos(min(1.0, max(-1.0, (hits / shots - a) / b)))
    crb = 1.0 / (shots * fisher) if fisher > 0.0 else math.inf
    return EstimationReport(
        phi_hat=phi_hat,
        n_shots=shots,
        empirical_mse=(phi_hat - phi_true) ** 2,
        crb=crb,
    )


def mle_phi(
    hits: int, shots: int, p: ProcedureParams, r: float, phi_true: float
) -> EstimationReport:
    """Maximum-likelihood phase from ``hits`` detections in ``shots`` trials
    of the step mask r.

    The hit fraction estimates a + b*cos(2*phi); inverting (with clamping to
    the attainable range) maximizes the Bernoulli likelihood over the
    principal branch [0, pi/2].  The response is 2-periodic in 2*phi, so only
    that branch is identifiable from this measurement, and phi_true must lie
    on it.
    """
    hits, shots, phi_true = int(hits), int(shots), float(phi_true)
    if shots < 1 or not 0 <= hits <= shots:
        raise ParameterError(f"need 0 <= hits <= shots and shots >= 1, got {hits}, {shots}")
    return _estimate(hits, shots, *_cosine_model(p, r, phi_true), phi_true)


@dataclass(frozen=True)
class ReplicationSummary:
    """Replica-averaged estimation error next to the information bound."""

    reports: tuple[EstimationReport, ...]
    shots: int
    replicas: int
    phi_true: float
    mean_mse: float
    crb: float
    mse_over_crb: float


def replicated_mse(
    p: ProcedureParams,
    r: float,
    phi_true: float,
    shots: int,
    replicas: int,
    seed: int,
) -> ReplicationSummary:
    """Mean squared estimation error over independent replicas.

    Replica i counts its hits in the stream seeded with (seed, i); see the
    module docstring; shots must lie in [1, 10^8].  The detection
    probability and the bound are the same for every replica, so they are
    computed once.  mse_over_crb is NaN when the bound is not finite.
    """
    shots = int(shots)
    replicas = int(replicas)
    _require_draws(shots, "shots")
    if replicas < 1:
        raise ParameterError(f"need replicas >= 1, got {replicas}")
    phi_true = float(phi_true)
    model = _cosine_model(p, r, phi_true)
    prob = prob_x0_factorized(p, PiecewiseBinaryFunction.step(r, p.big_p), phi_true).p_x0
    master = int(seed)
    reports = tuple(
        _estimate(_count_hits(prob, shots, (master, i)), shots, *model, phi_true)
        for i in range(replicas)
    )
    mean_mse = sum(rep.empirical_mse for rep in reports) / replicas
    crb = reports[0].crb
    ratio = mean_mse / crb if math.isfinite(crb) and crb > 0.0 else math.nan
    return ReplicationSummary(
        reports=reports,
        shots=shots,
        replicas=replicas,
        phi_true=phi_true,
        mean_mse=mean_mse,
        crb=crb,
        mse_over_crb=ratio,
    )


@dataclass(frozen=True)
class AuditRow:
    phi: float
    fisher: float
    variance_bound: float
    mean_bound_generator_f: float
    mean_bound_generator_2f: float
    dphi_sqrt_fisher: float
    optimal: bool


@dataclass(frozen=True)
class AuditReport:
    rows: tuple[AuditRow, ...]
    optimal_count: int


def heisenberg_audit(
    p: ProcedureParams, r: float, phis: Sequence[float] | None = None
) -> AuditReport:
    """Tabulate the Fisher information against its generator bounds over phi.

    variance_bound is 16*var(f), the convention-independent information cap
    (reading the mask exponent as f at doubled angle or as 2f at plain angle
    gives the same number).  The two mean-square columns, 4*mean^2 under each
    of those readings, are convention-dependent diagnostics only: never used
    as a cap.  dphi_sqrt_fisher multiplies the phase-propagation error of the
    threshold-at-zero reference procedure by sqrt(F) of the procedure under
    audit; a row is flagged optimal when that product is 1 within 1e-3.  The
    default grid leaves out the propagation singularities at multiples of
    pi/2.
    """
    if phis is None:
        phis = tuple(k * math.pi / 32.0 for k in range(1, 16))
    mom = generator_moments(p, r)
    variance_bound = 16.0 * mom.variance
    mean_sq = mom.mean * mom.mean
    rows = []
    for phi in phis:
        rep = fisher_phi(p, r, phi)
        try:
            product = delta_phi(p, phi) * math.sqrt(rep.fisher)
        except SingularityError:
            product = math.nan
        rows.append(
            AuditRow(
                phi=float(phi),
                fisher=rep.fisher,
                variance_bound=variance_bound,
                mean_bound_generator_f=4.0 * mean_sq,
                mean_bound_generator_2f=16.0 * mean_sq,
                dphi_sqrt_fisher=product,
                optimal=math.isfinite(product) and abs(product - 1.0) <= _AUDIT_TOL,
            )
        )
    return AuditReport(rows=tuple(rows), optimal_count=sum(r_.optimal for r_ in rows))
