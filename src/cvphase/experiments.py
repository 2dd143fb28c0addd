"""Monte-Carlo layer: seeded hit counts and replicated phase estimation.

Both Monte-Carlo results depend on the detections only through their number:
one-shot classification at phi = pi/2 counts hits, and the maximum-likelihood
phase inverts the hit fraction k/n, the sufficient statistic of a binomial.
So the layer only counts hits, each count K ~ Binomial(n, p) in one draw,
and each caller passes the detection probability it already has: ``dj`` the
p_x0 it prints, the estimator the a + b*cos(2*phi) it inverts.  An estimate
depends on its replica only through the hit count, so a replicated run
inverts each distinct count once (the default 2000 replicas of 100 shots
hold 34 at seed 0) and reports the estimate and squared error per
distinct count, next to every replica's count: the same doubles as one
inversion per replica.  Its mean keeps the sequential sum over replicas,
an explicit left fold, so that Python 3.12's compensated built-in ``sum``
cannot move its last digits.

Randomness contract.  Every stochastic routine in this package draws from a
``numpy.random.Generator`` over the PCG64 bit generator, seeded through
``numpy.random.SeedSequence`` with the caller's non-negative seed material.
A run of counts builds one generator from its seed material and draws every
count with one ``rng.binomial(n, p, size=counts)``: a replicated run seeds
its generator with the master seed, and its replica i takes the i-th count
of that draw, not a stream of its own.  A given (seed material, parameters)
pair yields the same counts on every run with the same numpy release; numpy
does not promise the same ``binomial`` stream across releases (NEP 19).  A
draw costs the same whatever n, so the cap of 10^8 trials per count bounds
the input, not the time.  At p >= 1 the count is n and at p = 0 it is 0:
such a count draws nothing and builds no generator, once its n and seed
material have been checked as for any other count.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import ParameterError, UnidentifiableFunctionError
from .model import MeasurementDistribution, ProcedureParams, _integer, _real
from .stats import _fishers, cosine_model_coefficients

_HALF_PI = math.pi / 2.0
_IDENTIFIABILITY_TOL = 1e-9
# most trials one hit count may hold: an input range, since one binomial
# draw costs the same whatever the count
_MAX_DRAWS = 10**8
# most replicas one estimate may run: each keeps its hit count (and the CLI
# one table row), so memory grows with the count; a larger run belongs in a
# script that aggregates as it goes
_MAX_REPLICAS = 10**5

SeedMaterial = int | tuple[int, ...]


def _draws(n, what: str, cap: int) -> int:
    """n as an int, if it is an integer in [1, cap]: a count of trials or
    of replicas, whose cap the caller reads at call time."""
    n = _integer(n, what)
    if not 1 <= n <= cap:
        raise ParameterError(f"{what} must lie in [1, {cap}], got {n}")
    return n


def _seed_material(material: SeedMaterial) -> SeedMaterial:
    """material with each integer checked and made an int: seed material is
    a non-negative integer or a tuple of them (numpy integers too)."""

    def check(value) -> int:
        value = _integer(value, "seed material")
        if value < 0:
            raise ParameterError(f"seed material must be non-negative, got {value}")
        return value

    if isinstance(material, tuple):
        return tuple(map(check, material))
    return check(material)


def _count_hits(
    prob: float, n: int, seed: SeedMaterial, counts: int = 1
) -> list[int]:
    """``counts`` hit counts, each among n Bernoulli(prob) trials.

    The counts are one ``rng.binomial(n, prob, size=counts)`` draw on
    ``Generator(PCG64(SeedSequence(seed)))``.  When prob >= 1 each count is
    n, and when prob is not > 0 (0.0, -0.0 or NaN) each is 0: once the seed
    material has passed its checks, such a run returns those counts without
    building a generator.
    """
    seed = _seed_material(seed)
    if not 0.0 < prob < 1.0:
        return [n if prob >= 1.0 else 0] * counts
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return rng.binomial(n, prob, size=counts).tolist()


def sample_outcomes(prob: float, n: int, seed: SeedMaterial) -> int:
    """Number of hits in n independent trials that each hit with probability prob.

    The count is one binomial draw per the module-level randomness
    contract; at prob 0 or 1 it is exact, and nothing is drawn.
    prob must lie in [0, 1] (within 1e-12, as a
    ``MeasurementDistribution``) and n in [1, 10^8].  ``seed`` is an integer,
    or a tuple of integers for derived seeds such as (seed, row_index).
    n and the seed integers must be ints (numpy integers too); anything else
    is a ParameterError.
    """
    prob = MeasurementDistribution(prob).p_x0
    n = _draws(n, "the number of trials", _MAX_DRAWS)
    (hits,) = _count_hits(prob, n, seed)
    return hits


def _cosine_model(
    p: ProcedureParams, r: float, phi_true: float
) -> tuple[float, float, float, float]:
    """(a, b, a + b*cos(2*phi_true), F(phi_true)) for the step mask r.

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
    c, s = math.cos(2.0 * phi_true), math.sin(2.0 * phi_true)
    return a, b, a + b * c, _fishers(a, b, ((c, s),))[0][0]


def _phi_hat(hits: int, shots: int, a: float, b: float) -> float:
    """Maximum-likelihood phase from ``hits`` detections in ``shots`` trials.

    The hit fraction estimates a + b*cos(2*phi); inverting it, clamped to
    the attainable range, maximizes the Bernoulli likelihood over the
    principal branch [0, pi/2].  The response is 2-periodic in 2*phi, so
    only that branch is identifiable from this measurement.
    """
    return 0.5 * math.acos(min(1.0, max(-1.0, (hits / shots - a) / b)))


class ReplicationSummary(namedtuple(
    "ReplicationSummary",
    "hits per_count shots replicas phi_true mean_mse crb mse_over_crb",
)):
    """Replica-averaged estimation error next to the information bound.

    hits[i] is replica i's hit count.  An estimate and its squared error
    depend on the replica only through that count, so they are held once per
    distinct count: per_count[k] is (phi_hat, squared_error) for k hits, and
    replica i's are per_count[hits[i]].  mean_mse is the sequential sum of
    the replicas' squared errors, in replica order, over replicas.
    Every replica shares the bound crb.
    """

    __slots__ = ()


def replicated_mse(
    p: ProcedureParams,
    r: float,
    phi_true: float,
    shots: int,
    replicas: int,
    seed: int,
) -> ReplicationSummary:
    """Mean squared estimation error over independent replicas.

    The replicas' hit counts are one binomial draw from the generator
    seeded with seed; see the module docstring.  shots must lie in
    [1, 10^8] and replicas in [1, 10^5]; shots, replicas and seed must be
    ints (numpy integers too).
    Every replica draws from the response a + b*cos(2*phi_true) that its
    estimate inverts, and shares the bound, so both are computed once.  The
    estimate and squared error are computed once per distinct hit count;
    mean_mse stays the sequential sum of each replica's squared error over
    replicas, since a count-weighted sum would round differently.
    mse_over_crb is NaN when the bound is not finite.
    """
    shots = _draws(shots, "shots", _MAX_DRAWS)
    replicas = _draws(replicas, "replicas", _MAX_REPLICAS)
    seed = _integer(seed, "seed")
    phi_true = _real(phi_true, "phi_true")
    a, b, prob, fisher = _cosine_model(p, r, phi_true)
    hits = tuple(_count_hits(prob, shots, seed, replicas))
    estimates = {k: _phi_hat(k, shots, a, b) for k in set(hits)}
    errors = {k: (h - phi_true) ** 2 for k, h in estimates.items()}
    # a left fold: the built-in sum compensates from Python 3.12 on
    total = 0.0
    for k in hits:
        total += errors[k]
    mean_mse = total / replicas
    crb = 1.0 / (shots * fisher) if fisher > 0.0 else math.inf
    ratio = mean_mse / crb if math.isfinite(crb) and crb > 0.0 else math.nan
    return ReplicationSummary(
        hits=hits,
        per_count={k: (h, errors[k]) for k, h in estimates.items()},
        shots=shots,
        replicas=replicas,
        phi_true=phi_true,
        mean_mse=mean_mse,
        crb=crb,
        mse_over_crb=ratio,
    )
