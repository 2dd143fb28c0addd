"""Seeded hit counts, estimation, and the audit table."""

import csv
import io
import itertools
import math

import mpmath
import numpy as np
import pytest

from cvphase import (
    ParameterError,
    PiecewiseBinaryFunction,
    UnidentifiableFunctionError,
    cosine_model_coefficients,
    dj_statistics,
    fisher_phi,
    heisenberg_audit,
    prob_x0,
    replicated_mse,
    sample_outcomes,
)
from cvphase import experiments
from factorized_oracle import prob_x0_factorized
from helpers import BIG_P, binomial_pmf, canonical, inverted_phase, saturated


def _step(r: float) -> PiecewiseBinaryFunction:
    return PiecewiseBinaryFunction.step(r, BIG_P)


def _bare_draw(prob: float, n: int, seed, size: int | None = None):
    """numpy's own binomial draw on the generator seeded with seed: an int,
    or a list of size counts."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return np.asarray(rng.binomial(n, prob, size)).tolist()


# seeds of one to five entropy words; 2^128 + 1 takes SeedSequence's mixing
# of the words beyond its pool of four
_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96, 2**128 + 1]


class TestSampleOutcomes:
    def test_same_seed_reproduces_byte_for_byte(self):
        prob = prob_x0(canonical(), 0.0, math.pi / 4).p_x0
        assert sample_outcomes(prob, 500, 42) == sample_outcomes(prob, 500, 42)

    def test_different_seeds_differ(self):
        prob = prob_x0(canonical(), 0.0, math.pi / 4).p_x0
        assert sample_outcomes(prob, 200, 1) != sample_outcomes(prob, 200, 2)

    @pytest.mark.parametrize("seed", [42, (7, 2)])
    def test_count_is_the_bare_draw(self, seed):
        # the randomness contract: rng.binomial(n, p) on the PCG64 generator
        # seeded through SeedSequence with the seed material, in both of
        # numpy's regimes (inversion at n*p <= 30, BTPE above) and at the cap
        prob = prob_x0_factorized(canonical(), _step(0.5), 0.9).p_x0
        for n in [1, 29, 3000, experiments._MAX_DRAWS]:
            hits = sample_outcomes(prob, n, seed)
            assert type(hits) is int
            assert hits == _bare_draw(prob, n, seed), n

    def test_hit_fraction_tracks_probability(self):
        n = 4000
        prob = prob_x0(canonical(), 0.0, math.pi / 4).p_x0
        frac = sample_outcomes(prob, n, 2024) / n
        sigma = math.sqrt(prob * (1.0 - prob) / n)
        assert abs(frac - prob) <= 3.0 * sigma

    def test_sure_outcomes_at_the_decision_phase(self):
        # the balanced mask is never detected at phi = pi/2
        prob = dj_statistics(canonical(), 0.0).p_x0
        assert prob == 0.0
        assert sample_outcomes(prob, 200, 5) == 0
        assert sample_outcomes(1.0, 200, 5) == 200

    def test_needs_at_least_one_trial(self):
        with pytest.raises(ParameterError):
            sample_outcomes(0.3, 0, 1)

    @pytest.mark.parametrize("n, seed", [
        (2.9, 1), (10.0, 1), ("10", 1), (10, 1.5), (10, (1, 2.5)), (10, "1"),
        (True, 0), (10, True), (10, (1, False)),
    ], ids=["float_n", "integral_float_n", "str_n", "float_seed", "float_in_tuple",
            "str_seed", "bool_n", "bool_seed", "bool_in_tuple"])
    def test_non_integer_count_or_seed_refused(self, n, seed):
        with pytest.raises(ParameterError, match="must be an integer"):
            sample_outcomes(0.5, n, seed)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "prob", [0.5 + 1j, np.complex128(0.5 + 1j), np.complex64(0.5)],
        ids=["complex", "numpy_complex128", "numpy_complex64"],
    )
    def test_complex_probability_refused(self, prob):
        # float() of a numpy complex warns and keeps the real part
        with pytest.raises(ParameterError, match="p_x0 must be a real number"):
            sample_outcomes(prob, 10, 0)

    def test_numpy_integers_count_as_integers(self):
        assert sample_outcomes(0.5, np.int64(300), np.uint32(7)) == sample_outcomes(
            0.5, 300, 7
        )
        assert sample_outcomes(0.5, 300, (np.int8(7), np.uint64(2))) == (
            sample_outcomes(0.5, 300, (7, 2))
        )

    @pytest.mark.parametrize("prob", [math.nan, -0.1, 1.1])
    def test_probability_outside_the_unit_interval_refused(self, prob, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew outcomes for a bad probability")

        monkeypatch.setattr(experiments, "_count_hits", no_draw)
        with pytest.raises(ParameterError, match="p_x0"):
            sample_outcomes(prob, 10, 1)

    def test_mirrored_mask_gives_identical_stream(self):
        # reflecting the mask leaves the detection probability unchanged, so
        # a matched seed must reproduce the exact same count
        p = canonical()
        r = 0.8
        mirrored = PiecewiseBinaryFunction(
            breakpoints=(-r,), values=(1, 0), half_domain=BIG_P
        )
        phi = 0.6
        prob = prob_x0_factorized(p, _step(r), phi).p_x0
        mirrored_prob = prob_x0_factorized(p, mirrored, phi).p_x0
        assert mirrored_prob == prob
        assert sample_outcomes(mirrored_prob, 300, 11) == sample_outcomes(prob, 300, 11)


def _record_draws(monkeypatch) -> tuple[list, list]:
    """Lists that fill, as the run goes, with the seed sequence of each PCG64
    built and the (n, size) of each Generator.binomial call."""
    built, drawn = [], []

    class CountingPCG64(np.random.PCG64):
        def __init__(self, seed_seq):
            built.append(seed_seq)
            super().__init__(seed_seq)

    class CountingGenerator(np.random.Generator):
        def binomial(self, n, p, size=None):
            drawn.append((n, size))
            return super().binomial(n, p, size)

    monkeypatch.setattr(np.random, "PCG64", CountingPCG64)
    monkeypatch.setattr(np.random, "Generator", CountingGenerator)
    return built, drawn


class TestBatchedSeeding:
    """A run of counts is seeded once, by numpy's SeedSequence of its seed
    material: one generator serves the whole batch of counts."""

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_replica_states_are_numpys(self, seed):
        replicas = experiments._MAX_REPLICAS
        counts = experiments._count_hits(0.3, 100, seed, replicas)
        assert counts == _bare_draw(0.3, 100, seed, replicas)

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_bare_seed_state_is_numpys(self, seed):
        assert sample_outcomes(0.3, 100, seed) == _bare_draw(0.3, 100, seed)

    def test_tuple_seed_state_is_numpys(self):
        material = (2**70 + 3, 0, 2**32)
        want = _bare_draw(0.3, 100, material)
        assert sample_outcomes(0.3, 100, material) == want
        numpy_ints = (2**70 + 3, np.uint8(0), np.uint64(2**32))
        assert sample_outcomes(0.3, 100, numpy_ints) == want

    @pytest.mark.parametrize(
        "material", [0, 2**128 + 1, (2**96, 7), (2**70 + 3, 0, 2**32)]
    )
    def test_hashed_seed_gives_numpys_generator_state(self, material, monkeypatch):
        built, _ = _record_draws(monkeypatch)
        experiments._count_hits(0.5, 10, material, 4)
        (seed_seq,) = built
        want = np.random.PCG64(np.random.SeedSequence(material)).state
        assert np.random.PCG64(seed_seq).state == want

    @pytest.mark.parametrize("seed", [-1, (3, -2), -(2**128)])
    def test_negative_seed_material_refused_before_hashing(self, seed, monkeypatch):
        def no_hash(*args):
            raise AssertionError("hashed negative seed material")

        monkeypatch.setattr(np.random, "SeedSequence", no_hash)
        with pytest.raises(ParameterError, match="non-negative"):
            sample_outcomes(0.3, 10, seed)

    def test_negative_master_seed_refused(self):
        with pytest.raises(ParameterError, match="non-negative"):
            replicated_mse(canonical(), 0.0, 0.5, 5, 5, -3)


def _block_cases():
    # n from one trial to past 2^16, at p = 0.3: n = 1 takes numpy's
    # inversion (n*p <= 30), n >= 100 its BTPE; runs from one count to 2^16 + 1
    for n in [1, 100, 2**16 - 1, 2**16, 2**16 + 1]:
        full = max(1, 2**16 // n)
        for streams in sorted({full, full + 1, 2000}):
            yield n, streams


class TestBlockDraw:
    @pytest.mark.parametrize("n, streams", list(_block_cases()))
    def test_block_counts_are_the_bare_draws(self, n, streams):
        seed = 2**64 + 5
        counts = experiments._count_hits(0.3, n, seed, streams)
        assert len(counts) == streams
        assert all(type(c) is int for c in counts)
        assert counts == _bare_draw(0.3, n, seed, streams)

    def test_one_seed_source_serves_every_stream(self, monkeypatch):
        built, drawn = _record_draws(monkeypatch)
        counts = experiments._count_hits(0.5, 100, 5, 2000)
        assert len(counts) == 2000
        assert len(built) == 1 and type(built[0]) is np.random.SeedSequence
        assert drawn == [(100, 2000)]


class TestSureCounts:
    """At probability 0 a count is 0 and at probability 1 it is n, so such a
    count builds no generator and draws nothing."""

    @pytest.mark.parametrize("n", [100, 2**16 + 1])
    @pytest.mark.parametrize("streams", [None, 3])
    @pytest.mark.parametrize(
        "prob, draws",
        [(0.0, False), (-0.0, False), (math.nan, False), (5e-324, True),
         (1.0 - 2.0**-53, True), (1.0, False)],
        ids=["zero", "negative_zero", "nan", "least_subnormal", "below_one", "one"],
    )
    def test_counts_are_the_bare_draws(self, prob, draws, n, streams, monkeypatch):
        seed = 2**64 + 5
        size = 1 if streams is None else streams
        if draws:
            want = _bare_draw(prob, n, seed, size)
        else:
            want = [n if prob == 1.0 else 0] * size
        built, drawn = _record_draws(monkeypatch)
        args = (prob, n, seed) if streams is None else (prob, n, seed, streams)
        assert experiments._count_hits(*args) == want
        if draws:
            assert len(built) == 1 and drawn == [(n, size)]
        else:
            assert built == [] and drawn == []

    def test_default_dj_draws_only_its_constant_row(self, capsys, monkeypatch):
        from cvphase import cli

        built, drawn = _record_draws(monkeypatch)
        assert cli.main(["dj", "--trials", "1000000", "--seed", "0"]) == 0
        # the requested r = 0 row and the balanced reference sit at p_x0 = 0
        assert len(built) == 1 and drawn == [(10**6, 1)]
        assert capsys.readouterr().out.count(",balanced,0,1000000,0,1000000,0,0\n") == 2

    def test_estimate_at_a_silent_phase_draws_nothing(self, monkeypatch):
        built, drawn = _record_draws(monkeypatch)
        s = replicated_mse(canonical(), 0.0, math.pi / 2, 100, 2000, 0)
        assert built == [] and drawn == []
        assert s.hits == (0,) * 2000 and s.mean_mse == 0.0

    @pytest.mark.parametrize("prob", [0.0, 1.0])
    def test_counts_and_seeds_are_checked_before_the_shortcut(
        self, prob, monkeypatch
    ):
        built, drawn = _record_draws(monkeypatch)
        with pytest.raises(ParameterError, match="non-negative"):
            sample_outcomes(prob, 10, -1)
        with pytest.raises(ParameterError, match="non-negative"):
            experiments._count_hits(prob, 10, -3, 4)
        with pytest.raises(ParameterError, match="must be an integer"):
            experiments._count_hits(prob, 10, (1, 2.5), 4)
        with pytest.raises(ParameterError, match="must be an integer"):
            sample_outcomes(prob, 2.5, 0)
        with pytest.raises(ParameterError, match="must lie in"):
            sample_outcomes(prob, 0, 0)
        with pytest.raises(ParameterError, match="non-negative"):
            replicated_mse(canonical(), 0.0, math.pi / 2, 5, 5, -1)
        assert built == [] and drawn == []


def test_binomial_pmf_is_the_enumerated_distribution():
    # every outcome string of n trials, its probability summed by hit count
    for n in range(1, 11):
        for p in (1e-3, 0.3, 0.5, 0.999):
            by_count = [0.0] * (n + 1)
            for trials in itertools.product((0, 1), repeat=n):
                k = sum(trials)
                by_count[k] += p**k * (1.0 - p) ** (n - k)
            for k, want in enumerate(by_count):
                assert binomial_pmf(k, n, p) == pytest.approx(want, rel=1e-12)


def _chi_square_pvalue(counts: list[int], n: int, p: float) -> float:
    """Pearson's chi-square p-value of the counts against Binomial(n, p).

    The hit counts within 12 standard deviations of the mean are pooled,
    in order, until each bin expects at least 20 of the counts.  The first
    bin also holds every count below, and the last every count above; the
    mass outside the 12 deviations is added to the last bin's expectation.
    """
    draws = len(counts)
    mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
    lo, hi = max(0, math.floor(mean - 12 * sd)), min(n, math.ceil(mean + 12 * sd))
    edges, expected, acc = [], [], 0.0
    for k in range(lo, hi + 1):
        acc += draws * binomial_pmf(k, n, p)
        if acc >= 20.0:
            edges.append(k + 1)
            expected.append(acc)
            acc = 0.0
    edges.pop()
    expected[-1] += draws - sum(expected)
    bins = np.searchsorted(np.array(edges), np.array(counts), side="right")
    observed = np.bincount(bins, minlength=len(expected))
    stat = sum((o - e) ** 2 / e for o, e in zip(observed.tolist(), expected))
    dof = len(expected) - 1
    return float(mpmath.gammainc(dof / 2.0, stat / 2.0, regularized=True))


# the two-sided tail beyond 5 standard deviations of a normal variate: the
# same significance as the |z| < 5 checks below
_PVALUE_FLOOR = 5.7e-7


class TestHitDistribution:
    """The counts follow Binomial(n, p): the draw is numpy's, so these test
    the contract (one count per replica, the caller's n and p), not numpy."""

    @pytest.mark.parametrize("n, p", [
        (1, 0.3), (20, 0.4), (10**4, 1e-4), (10**6, 1.0 - 1e-5),
        (1000, 0.3), (10**6, 1e-4), (10**5, 0.999), (10**8, 0.5),
    ], ids=["bernoulli", "inversion", "inversion_p_near_0", "inversion_p_near_1",
            "btpe", "btpe_p_near_0", "btpe_p_near_1", "btpe_at_the_cap"])
    def test_counts_follow_the_binomial_pmf(self, n, p):
        counts = experiments._count_hits(p, n, 2024, 10**5)
        assert _chi_square_pvalue(counts, n, p) > _PVALUE_FLOOR

    @pytest.mark.parametrize("seed", range(10))
    def test_default_estimate_total_hits(self, seed):
        shots, replicas = 100, 2000
        a, b = cosine_model_coefficients(canonical(), 0.0)
        p = a + b * math.cos(2.0 * math.pi / 4)
        s = replicated_mse(canonical(), 0.0, math.pi / 4, shots, replicas, seed)
        trials = shots * replicas
        z = (sum(s.hits) - trials * p) / math.sqrt(trials * p * (1.0 - p))
        assert abs(z) < 5.0

    @pytest.mark.parametrize("seed", range(10))
    def test_dj_constant_row_errors(self, seed, capsys):
        from cvphase import cli

        assert cli.main(["dj", "--trials", "1000000", "--seed", str(seed)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        (row,) = [r for r in rows if r["truth"] == "constant"]
        trials, e = int(row["trials"]), float(row["p_x0"])
        errors = int(row["classified_balanced"])
        z = (errors - trials * (1.0 - e)) / math.sqrt(trials * e * (1.0 - e))
        assert abs(z) < 5.0

    def test_both_caps_run_at_once(self):
        s = replicated_mse(
            canonical(), 0.0, math.pi / 4, experiments._MAX_DRAWS,
            experiments._MAX_REPLICAS, 0,
        )
        assert len(s.hits) == experiments._MAX_REPLICAS
        assert math.isfinite(s.mse_over_crb)


class TestMlePhi:
    """The maximum-likelihood inversion and the refusals of the estimator."""

    def test_exact_inversion_endpoints(self):
        # saturated parameters make the response 1/2 + cos(2 phi)/2, whose
        # inversion at the sample extremes is exact in floats
        a, b = cosine_model_coefficients(saturated(), 0.0)
        assert experiments._phi_hat(10, 10, a, b) == 0.0
        assert experiments._phi_hat(0, 10, a, b) == math.pi / 2
        assert experiments._phi_hat(5, 10, a, b) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_report_contents(self):
        sat = saturated()
        phi_true = 0.7
        s = replicated_mse(sat, 0.0, phi_true, 10, 3, 2)
        assert set(s.per_count) == set(s.hits)
        for phi_hat, squared_error in s.per_count.values():
            assert squared_error == (phi_hat - phi_true) ** 2
        fisher = fisher_phi(sat, 0.0, phi_true).fisher
        assert s.crb * s.shots * fisher == pytest.approx(1.0, rel=1e-12)

    def test_constant_mask_unidentifiable(self):
        with pytest.raises(UnidentifiableFunctionError):
            replicated_mse(canonical(), BIG_P, 0.7, 10, 5, 1)

    def test_empty_batch_rejected(self):
        with pytest.raises(ParameterError):
            replicated_mse(canonical(), 0.0, 0.3, 0, 5, 1)

    @pytest.mark.parametrize("phi_true", [-0.1, math.pi / 2 + 1e-9, 2.0, math.nan])
    def test_true_phase_off_the_principal_branch_rejected(self, phi_true):
        with pytest.raises(ParameterError):
            replicated_mse(canonical(), 0.0, phi_true, 10, 5, 1)

    @pytest.mark.parametrize(
        "phi_true", ["0.5", b"0.5", None], ids=["str", "bytes", "None"]
    )
    def test_true_phase_must_be_a_real_number(self, phi_true):
        with pytest.raises(ParameterError) as info:
            replicated_mse(canonical(), 0.0, phi_true, 10, 5, 1)
        assert str(info.value) == f"phi_true must be a real number, got {phi_true!r}"
        s = replicated_mse(canonical(), 0.0, np.float32(0.5), 10, 5, 1)
        assert type(s.phi_true) is float and s.phi_true == 0.5

    def test_infinite_bound_when_information_vanishes(self):
        # at phi = 0 the slope of the response vanishes (with E < 1 the
        # probability stays interior, so F = 0 there)
        s = replicated_mse(canonical(), 0.0, 0.0, 10, 5, 1)
        assert math.isinf(s.crb)


class TestReplicatedMse:
    def test_deterministic(self):
        p = canonical()
        a = replicated_mse(p, 0.0, math.pi / 4, 50, 20, 9)
        b = replicated_mse(p, 0.0, math.pi / 4, 50, 20, 9)
        assert a.mean_mse == b.mean_mse
        assert a.mse_over_crb == b.mse_over_crb

    def test_structure_and_efficiency(self):
        p = canonical()
        s = replicated_mse(p, 0.0, math.pi / 4, 200, 50, 3)
        assert s.shots == 200 and s.replicas == 50
        assert len(s.hits) == 50
        assert s.crb == 1.0 / (200 * fisher_phi(p, 0.0, math.pi / 4).fisher)
        phi_hats = [s.per_count[k][0] for k in s.hits]
        assert s.mean_mse == pytest.approx(
            sum((h - math.pi / 4) ** 2 for h in phi_hats) / 50, rel=1e-12
        )
        # near the quarter-phase the estimator is close to efficient
        assert 0.5 <= s.mse_over_crb <= 2.0

    def test_each_report_is_the_mle_of_its_replica_count(self):
        p = canonical()
        r, phi_true, shots, seed = 0.5, 0.3, 37, 4
        s = replicated_mse(p, r, phi_true, shots, 30, seed)
        # every replica draws from the response its estimate inverts
        a, b = cosine_model_coefficients(p, r)
        prob = a + b * math.cos(2.0 * phi_true)
        # replica i's count is the i-th of one draw from the seed's generator
        assert list(s.hits) == _bare_draw(prob, shots, seed, 30)
        squared_errors = []
        for k in s.hits:
            # the per-count table: each estimate is its count's inversion
            phi_hat, squared_error = s.per_count[k]
            assert phi_hat == inverted_phase(k, shots, p, r)
            assert squared_error == (phi_hat - phi_true) ** 2
            assert type(k) is int
            assert phi_hat == experiments._phi_hat(k, shots, a, b)
            squared_errors.append(squared_error)
        # replicas share counts, so the table is smaller than the run
        assert set(s.per_count) == set(s.hits)
        assert len(s.per_count) < len(s.hits)
        assert s.crb == 1.0 / (shots * fisher_phi(p, r, phi_true).fisher)
        # the sequential sum in replica order, as a left fold: the built-in
        # sum compensates from Python 3.12 on
        total = 0.0
        for squared_error in squared_errors:
            total += squared_error
        assert s.mean_mse == total / 30

    def test_nan_ratio_when_bound_diverges(self):
        s = replicated_mse(canonical(), 0.0, 0.0, 20, 5, 1)
        assert math.isinf(s.crb)
        assert math.isnan(s.mse_over_crb)

    def test_validates_counts(self):
        with pytest.raises(ParameterError):
            replicated_mse(canonical(), 0.0, 0.5, 0, 5, 1)
        with pytest.raises(ParameterError):
            replicated_mse(canonical(), 0.0, 0.5, 5, 0, 1)

    def test_one_count_gate_reads_each_cap_at_call_time(self, monkeypatch):
        monkeypatch.setattr(experiments, "_MAX_DRAWS", 10)
        monkeypatch.setattr(experiments, "_MAX_REPLICAS", 3)
        for call, message in (
            (lambda: sample_outcomes(0.5, 11, 0),
             "the number of trials must lie in [1, 10], got 11"),
            (lambda: replicated_mse(canonical(), 0.0, 0.5, 11, 3, 1),
             "shots must lie in [1, 10], got 11"),
            (lambda: replicated_mse(canonical(), 0.0, 0.5, 10, 4, 1),
             "replicas must lie in [1, 3], got 4"),
        ):
            with pytest.raises(ParameterError) as info:
                call()
            assert str(info.value) == message
        assert len(replicated_mse(canonical(), 0.0, 0.5, 10, 3, 1).hits) == 3

    @pytest.mark.parametrize("shots, replicas, seed", [
        (100.9, 3, 1), (100, 3.7, 1), (100, 3, 1.9), (100, 3, (1, 2)),
        (True, 3, 0), (100, True, 0), (100, 3, True),
    ], ids=["float_shots", "float_replicas", "float_seed", "tuple_seed",
            "bool_shots", "bool_replicas", "bool_seed"])
    def test_non_integer_counts_and_seed_refused(
        self, shots, replicas, seed, monkeypatch
    ):
        def no_draw(*args):
            raise AssertionError("drew outcomes for a non-integer argument")

        monkeypatch.setattr(experiments, "_count_hits", no_draw)
        with pytest.raises(ParameterError, match="must be an integer"):
            replicated_mse(canonical(), 0.0, 0.5, shots, replicas, seed)

    def test_numpy_integer_counts_and_seed(self):
        p = canonical()
        s = replicated_mse(p, 0.0, 0.5, np.int64(40), np.int32(6), np.uint8(3))
        assert s == replicated_mse(p, 0.0, 0.5, 40, 6, 3)
        assert type(s.shots) is int and type(s.replicas) is int

    def test_default_estimate_inverts_each_distinct_count_once(self, capsys, monkeypatch):
        from cvphase import cli

        calls = []
        phi_hat = experiments._phi_hat

        def counting_phi_hat(hits, shots, a, b):
            calls.append(hits)
            return phi_hat(hits, shots, a, b)

        monkeypatch.setattr(experiments, "_phi_hat", counting_phi_hat)
        assert cli.main(["estimate"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2002
        assert calls and len(calls) == len(set(calls))

    def test_true_phase_off_the_principal_branch_rejected(self):
        with pytest.raises(ParameterError):
            replicated_mse(canonical(), 0.0, 2.0, 5, 5, 1)


# the audit command's default axis: 15 interior points of (0, pi/2)
AUDIT_PHASES = tuple(k * math.pi / 32.0 for k in range(1, 16))


class TestHeisenbergAudit:
    def test_balanced_step_is_optimal_everywhere(self):
        table = heisenberg_audit(canonical(), 0.0, AUDIT_PHASES)
        assert len(table["phi"]) == 15
        assert all(optimal is True for optimal in table["optimal"])
        for product in table["dphi_sqrt_fisher"]:
            assert abs(product - 1.0) <= 1e-3
        for fisher, bound in zip(table["fisher"], table["variance_bound"]):
            assert fisher <= bound + 1e-9

    def test_bound_columns(self):
        from cvphase import generator_moments

        p = canonical()
        mom = generator_moments(p, 0.0)
        table = heisenberg_audit(p, 0.0, AUDIT_PHASES)
        # one value per threshold, repeated on every phase's row
        (variance_bound,) = set(table["variance_bound"])
        (mean_bound_f,) = set(table["mean_bound_generator_f"])
        (mean_bound_2f,) = set(table["mean_bound_generator_2f"])
        assert table["r"] == [0.0] * 15
        assert variance_bound == pytest.approx(16.0 * mom.variance, rel=1e-13)
        assert mean_bound_f == pytest.approx(4.0 * mom.mean**2, rel=1e-13)
        assert mean_bound_2f == pytest.approx(16.0 * mom.mean**2, rel=1e-13)

    def test_constant_mask_never_optimal(self):
        table = heisenberg_audit(canonical(), BIG_P, AUDIT_PHASES)
        assert not any(table["optimal"])
        assert all(fisher == 0.0 for fisher in table["fisher"])

    def test_singular_phase_rows_are_flagged_not_optimal(self):
        table = heisenberg_audit(canonical(), 0.0, (math.pi / 4, math.pi / 2))
        fine, singular = table["optimal"]
        assert fine is True
        assert singular is False
        assert math.isnan(table["dphi_sqrt_fisher"][1])
