"""Monte-Carlo layer: seeded hit counts and replicated phase estimation.

Both Monte-Carlo results depend on the detections only through their number:
one-shot classification at phi = pi/2 counts hits, and the maximum-likelihood
phase inverts the hit fraction k/n, the sufficient statistic of a binomial.
So the layer only counts hits, and each caller passes the detection
probability it already has: ``dj`` the p_x0 it prints, the estimator the
a + b*cos(2*phi) it inverts.  An estimate depends on its replica only
through the hit count, so a replicated run inverts each distinct count once
(the default 2000 replicas of 100 shots hold 35 at seed 0) and reports the
estimate and squared error per distinct count, next to every replica's
count: the same doubles as one inversion per replica.  Its mean keeps the
sequential sum over replicas.

Randomness contract.  Every stochastic routine in this package draws from a
``numpy.random.Generator`` over the PCG64 bit generator, seeded through
``numpy.random.SeedSequence`` with the caller's non-negative seed material.
A hit count compares the stream's first n uniforms ``rng.random()`` with p,
so a given (seed material, parameters) pair yields the same count on every
platform numpy supports; one count draws at most 10^8 trials.  Every
uniform lies in [0, 1), so at p >= 1 the count is n and at p = 0 it is 0
whatever the stream: such a count draws nothing and builds no generator,
once its n and seed material have been checked as for any other count.
Replicated runs give replica ``i`` the seed material ``(master_seed, i)``;
the streams are then mutually independent and individually reproducible.

How the streams are reached.  One run hashes all its seed materials in one
batched pass: ``_seed_states`` runs SeedSequence's hash as uint32 column
operations over one row of entropy words per stream, giving each stream the
four words ``SeedSequence(m).generate_state(4, np.uint64)`` would.  numpy
seeds every stream of the run from one seed source over those rows: each
``PCG64(source)`` asks it once for its state and gets the next row, as it
would get that row from ``SeedSequence(m)``.  The first row is checked
against numpy's own ``SeedSequence`` on every run, and at its end the source
must have handed out exactly one row per stream.  PCG64 takes one 64-bit
output per double, so a stream's uniforms can be drawn piecewise into one
reused buffer of 2^16 doubles: the same stream as one ``rng.random(n)``, in
bounded memory.  When n <= 2^16 the buffer is viewed as a block of
2^16 // n rows of n, each stream fills its own row, and one compare and one
``count_nonzero`` over the rows count the whole block; a longer stream is
drawn and counted chunk by chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnidentifiableFunctionError
from .model import MeasurementDistribution, ProcedureParams, _integer, _real
from .stats import _fisher, cosine_model_coefficients

_HALF_PI = math.pi / 2.0
_IDENTIFIABILITY_TOL = 1e-9
# most trials one hit count may draw: a time bound (about a quarter second
# per stream at this cap); memory stays at one chunk whatever the count
_MAX_DRAWS = 10**8
# doubles in the reused draw buffer (512 KiB): a block of _CHUNK // n streams
# of n draws each, or one chunk of a longer stream
_CHUNK = 1 << 16
# most replicas one estimate may run: each keeps its hit count (and the CLI
# one table row), so memory grows with the count; a larger run belongs in a
# script that aggregates as it goes
_MAX_REPLICAS = 10**5

SeedMaterial = int | tuple[int, ...]


def _draws(n, what: str) -> int:
    n = _integer(n, what)
    if not 1 <= n <= _MAX_DRAWS:
        raise ParameterError(f"{what} must lie in [1, {_MAX_DRAWS}], got {n}")
    return n


# numpy's SeedSequence hash (pool size 4)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _entropy_words(material: SeedMaterial) -> list[int]:
    """The uint32 words SeedSequence assembles from seed material: each
    integer's 32-bit words, least significant first (0 is one word)."""
    words = []
    for value in material if isinstance(material, tuple) else (material,):
        value = _integer(value, "seed material")
        if value < 0:
            raise ParameterError(f"seed material must be non-negative, got {value}")
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
    return words


def _seed_states(words):
    """``SeedSequence(m).generate_state(4, uint64)`` for each row m of words.

    words is a uint32 matrix with one row per stream, the entropy words of
    its seed material.  The hash runs column by column: its constants depend
    on the word position only, so every row shares them.  They advance as
    Python ints; the numpy operations are array-by-scalar and wrap modulo
    2^32 silently.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    rows, width = words.shape
    zeros = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(words[:, i] if i < width else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # entropy longer than the pool mixes each extra word into every pool word
    for src in range(_POOL_SIZE, width):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))
    # generate_state: eight uint32 words, paired little-endian into four uint64
    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * hash_const
        out.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([out[2 * i] | (out[2 * i + 1] << 32) for i in range(4)], axis=1)


def _stream_words(seed: SeedMaterial, streams: int | None):
    """uint32 entropy words, one row per stream.

    With streams None there is one stream, seeded by seed; otherwise there
    are ``streams`` streams and stream i is seeded by (seed, i) for an
    integer seed.
    """
    head = _entropy_words(seed)
    if streams is None:
        return np.array([head], dtype=np.uint32)
    words = np.empty((streams, len(head) + 1), dtype=np.uint32)
    words[:, :-1] = head
    words[:, -1] = np.arange(streams)  # every index below 2^32 is one word
    return words


class _SeedRows(np.random.bit_generator.ISeedSequence):
    """The rows of a _seed_states matrix, handed out in order.

    A row is what ``SeedSequence(m).generate_state(4, np.uint64)`` returns
    for its stream's seed material m, and that one call is all PCG64 asks of
    its seed sequence; so ``PCG64(source)`` seeds the next stream as
    ``PCG64(SeedSequence(m))`` would.  A PCG64 that asked for more than one
    row would leave every later stream misaligned, so running out of rows
    raises, and so does a row left over at the end (see _count_hits).
    """

    def __init__(self, states, first: SeedMaterial) -> None:
        self.first = first
        if not np.array_equal(
            states[0], np.random.SeedSequence(first).generate_state(4, np.uint64)
        ):
            raise self.disagrees("SeedSequence(...).generate_state(4, uint64)")
        self.rows = iter(states)

    def disagrees(self, what: str) -> RuntimeError:
        return RuntimeError(
            f"batched seeding of {self.first!r} disagrees with numpy's {what}"
        )

    def generate_state(self, n_words, dtype=np.uint32):
        row = next(self.rows, None)
        if row is None:
            raise self.disagrees("PCG64: more seed rows asked for than streams")
        return row


def _count_hits(
    prob: float, n: int, seed: SeedMaterial, streams: int | None = None
) -> list[int]:
    """Hits among n Bernoulli(prob) trials in each stream of _stream_words.

    Each count is that of ``rng.random(n) < prob`` on
    ``Generator(PCG64(SeedSequence(material)))``.  Every uniform lies in
    [0, 1), so when prob >= 1 each stream counts n, and when prob is not > 0
    (0.0, -0.0 or NaN) each counts 0: once the seed material has passed its
    checks, such a run returns those counts without hashing a seed or
    building a generator, and the seeding guards below, which check the
    generators built, do not apply.  Otherwise one _SeedRows source seeds
    every stream's PCG64 and one buffer serves every stream, so the loops
    build no seed object per replica.  With n <= _CHUNK the buffer holds a
    block of streams, one per row, counted together; a longer stream is
    counted chunk by chunk.  Raises RuntimeError when the first stream's
    seeding disagrees with numpy's SeedSequence, or when the streams did not
    take exactly one row of the source each.
    """
    words = _stream_words(seed, streams)
    if not 0.0 < prob < 1.0:
        return [n if prob >= 1.0 else 0] * len(words)
    seeded = _seed_states(words)
    source = _SeedRows(seeded, seed if streams is None else (seed, 0))
    generator, pcg64 = np.random.Generator, np.random.PCG64
    total = len(seeded)
    counts: list[int] = []
    if n <= _CHUNK:
        block = np.empty((min(_CHUNK // n, total), n))
        for start in range(0, total, len(block)):
            rows = block[: total - start]
            for row in rows:
                generator(pcg64(source)).random(out=row)
            counts += np.count_nonzero(rows < prob, axis=1).tolist()
    else:
        buf = np.empty(_CHUNK)
        for _ in range(total):
            rng = generator(pcg64(source))
            hits = 0
            for start in range(0, n, _CHUNK):
                chunk = buf[: min(_CHUNK, n - start)]
                rng.random(out=chunk)
                hits += int(np.count_nonzero(chunk < prob))
            counts.append(hits)
    if next(source.rows, None) is not None:
        raise source.disagrees("PCG64: a seed row left over at the end")
    return counts


def sample_outcomes(prob: float, n: int, seed: SeedMaterial) -> int:
    """Number of hits in n independent trials that each hit with probability prob.

    The count is that of ``rng.random(n) < prob`` per the module-level
    randomness contract; at prob 0 or 1 it is exact, and nothing is drawn.
    prob must lie in [0, 1] (within 1e-12, as a
    ``MeasurementDistribution``) and n in [1, 10^8].  ``seed`` is an integer,
    or a tuple of integers for derived streams such as
    (master_seed, replica_index).  n and the seed integers must be ints
    (numpy integers too); anything else is a ParameterError.
    """
    prob = MeasurementDistribution(prob).p_x0
    n = _draws(n, "the number of trials")
    (hits,) = _count_hits(prob, n, seed)
    return hits


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
    c, s = math.cos(2.0 * phi_true), math.sin(2.0 * phi_true)
    return a, b, _fisher(a, b, c, s)[0]


def _phi_hat(hits: int, shots: int, a: float, b: float) -> float:
    """Maximum-likelihood phase from ``hits`` detections in ``shots`` trials.

    The hit fraction estimates a + b*cos(2*phi); inverting it, clamped to
    the attainable range, maximizes the Bernoulli likelihood over the
    principal branch [0, pi/2].  The response is 2-periodic in 2*phi, so
    only that branch is identifiable from this measurement.
    """
    return 0.5 * math.acos(min(1.0, max(-1.0, (hits / shots - a) / b)))


@dataclass(frozen=True)
class ReplicationSummary:
    """Replica-averaged estimation error next to the information bound.

    hits[i] is replica i's hit count.  An estimate and its squared error
    depend on the replica only through that count, so they are held once per
    distinct count: per_count[k] is (phi_hat, squared_error) for k hits, and
    replica i's are per_count[hits[i]].  mean_mse is the sequential sum of
    the replicas' squared errors, in replica order, over replicas.
    Every replica shares the bound crb.
    """

    hits: tuple[int, ...]
    per_count: dict[int, tuple[float, float]]
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
    module docstring.  shots must lie in [1, 10^8] and replicas in
    [1, 10^5]; shots, replicas and seed must be ints (numpy integers too).
    Every replica draws from the response a + b*cos(2*phi_true) that its
    estimate inverts, and shares the bound, so both are computed once.  The
    estimate and squared error are computed once per distinct hit count;
    mean_mse stays the sequential sum of each replica's squared error over
    replicas, since a count-weighted sum would round differently.
    mse_over_crb is NaN when the bound is not finite.
    """
    shots = _draws(shots, "shots")
    replicas = _integer(replicas, "replicas")
    seed = _integer(seed, "seed")
    if not 1 <= replicas <= _MAX_REPLICAS:
        raise ParameterError(
            f"replicas must lie in [1, {_MAX_REPLICAS}], got {replicas}"
        )
    phi_true = _real(phi_true, "phi_true")
    a, b, fisher = _cosine_model(p, r, phi_true)
    prob = a + b * math.cos(2.0 * phi_true)
    hits = tuple(_count_hits(prob, shots, seed, replicas))
    estimates = {k: _phi_hat(k, shots, a, b) for k in set(hits)}
    errors = {k: (h - phi_true) ** 2 for k, h in estimates.items()}
    mean_mse = sum(map(errors.__getitem__, hits)) / replicas
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
