"""Seeded hit counts, estimation, and the audit table."""

import math

import numpy as np
import pytest

from cvphase import (
    ParameterError,
    PiecewiseBinaryFunction,
    UnidentifiableFunctionError,
    fisher_phi,
    heisenberg_audit,
    mle_phi,
    prob_x0_factorized,
    replicated_mse,
    sample_outcomes,
)
from helpers import BIG_P, canonical, saturated


def _step(r: float) -> PiecewiseBinaryFunction:
    return PiecewiseBinaryFunction.step(r, BIG_P)


def _bare_count(prob: float, n: int, seed) -> int:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return int(np.count_nonzero(rng.random(n) < prob))


class TestSampleOutcomes:
    def test_same_seed_reproduces_byte_for_byte(self):
        p = canonical()
        a = sample_outcomes(p, _step(0.0), math.pi / 4, 500, 42)
        b = sample_outcomes(p, _step(0.0), math.pi / 4, 500, 42)
        assert a == b

    def test_different_seeds_differ(self):
        p = canonical()
        a = sample_outcomes(p, _step(0.0), math.pi / 4, 200, 1)
        b = sample_outcomes(p, _step(0.0), math.pi / 4, 200, 2)
        assert a != b

    @pytest.mark.parametrize("seed", [42, (7, 2)])
    def test_count_is_the_bare_draw(self, seed):
        # the randomness contract: one rng.random(n) < p comparison on the
        # PCG64 stream seeded through SeedSequence with the seed material
        p = canonical()
        f = _step(0.5)
        prob = prob_x0_factorized(p, f, 0.9).p_x0
        hits = sample_outcomes(p, f, 0.9, 3000, seed)
        assert type(hits) is int
        assert hits == _bare_count(prob, 3000, seed)

    def test_hit_fraction_tracks_probability(self):
        p = canonical()
        n = 4000
        prob = prob_x0_factorized(p, _step(0.0), math.pi / 4).p_x0
        frac = sample_outcomes(p, _step(0.0), math.pi / 4, n, 2024) / n
        sigma = math.sqrt(prob * (1.0 - prob) / n)
        assert abs(frac - prob) <= 3.0 * sigma

    def test_sure_outcomes_at_the_decision_phase(self):
        p = canonical()
        assert sample_outcomes(p, _step(0.0), math.pi / 2, 200, 5) == 0

    def test_needs_at_least_one_trial(self):
        with pytest.raises(ParameterError):
            sample_outcomes(canonical(), _step(0.0), 0.3, 0, 1)

    def test_mirrored_mask_gives_identical_stream(self):
        # reflecting the mask leaves the detection probability unchanged, so
        # a matched seed must reproduce the exact same count
        p = canonical()
        r = 0.8
        mirrored = PiecewiseBinaryFunction(
            breakpoints=(-r,), values=(1, 0), half_domain=BIG_P
        )
        phi = 0.6
        assert (
            prob_x0_factorized(p, mirrored, phi).p_x0
            == prob_x0_factorized(p, _step(r), phi).p_x0
        )
        a = sample_outcomes(p, _step(r), phi, 300, 11)
        b = sample_outcomes(p, mirrored, phi, 300, 11)
        assert a == b


class TestMlePhi:
    def test_exact_inversion_endpoints(self):
        # saturated parameters make the response 1/2 + cos(2 phi)/2, whose
        # inversion at the sample extremes is exact in floats
        sat = saturated()
        assert mle_phi(10, 10, sat, 0.0, 0.3).phi_hat == 0.0
        assert mle_phi(0, 10, sat, 0.0, 0.3).phi_hat == math.pi / 2
        assert mle_phi(5, 10, sat, 0.0, 0.3).phi_hat == pytest.approx(
            math.pi / 4, abs=1e-15
        )

    def test_report_contents(self):
        sat = saturated()
        phi_true = 0.7
        rep = mle_phi(3, 10, sat, 0.0, phi_true)
        assert rep.n_shots == 10
        assert rep.empirical_mse == (rep.phi_hat - phi_true) ** 2
        fisher = fisher_phi(sat, 0.0, phi_true).fisher
        assert rep.crb * rep.n_shots * fisher == pytest.approx(1.0, rel=1e-12)

    def test_constant_mask_unidentifiable(self):
        p = canonical()
        hits = sample_outcomes(p, _step(BIG_P), 0.7, 10, 1)
        with pytest.raises(UnidentifiableFunctionError):
            mle_phi(hits, 10, p, BIG_P, 0.7)

    def test_empty_batch_rejected(self):
        with pytest.raises(ParameterError):
            mle_phi(0, 0, canonical(), 0.0, 0.3)

    @pytest.mark.parametrize("hits", [-1, 11])
    def test_count_outside_shots_rejected(self, hits):
        with pytest.raises(ParameterError):
            mle_phi(hits, 10, canonical(), 0.0, 0.3)

    @pytest.mark.parametrize("phi_true", [-0.1, math.pi / 2 + 1e-9, 2.0, math.nan])
    def test_true_phase_off_the_principal_branch_rejected(self, phi_true):
        with pytest.raises(ParameterError):
            mle_phi(5, 10, canonical(), 0.0, phi_true)

    def test_infinite_bound_when_information_vanishes(self):
        # at phi = 0 the slope of the response vanishes (with E < 1 the
        # probability stays interior, so F = 0 there)
        rep = mle_phi(10, 10, canonical(), 0.0, 0.0)
        assert math.isinf(rep.crb)


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
        assert len(s.phi_hats) == 50
        assert s.crb == 1.0 / (200 * fisher_phi(p, 0.0, math.pi / 4).fisher)
        assert s.mean_mse == pytest.approx(
            sum((h - math.pi / 4) ** 2 for h in s.phi_hats) / 50, rel=1e-12
        )
        # near the quarter-phase the estimator is close to efficient
        assert 0.5 <= s.mse_over_crb <= 2.0

    def test_each_report_is_the_mle_of_its_replica_count(self):
        p = canonical()
        r, phi_true, shots, seed = 0.5, 0.3, 37, 4
        s = replicated_mse(p, r, phi_true, shots, 30, seed)
        prob = prob_x0_factorized(p, PiecewiseBinaryFunction.step(r, BIG_P), phi_true).p_x0
        for i, phi_hat in enumerate(s.phi_hats):
            hits = _bare_count(prob, shots, (seed, i))
            rep = mle_phi(hits, shots, p, r, phi_true)
            assert phi_hat == rep.phi_hat
            assert s.crb == rep.crb

    def test_nan_ratio_when_bound_diverges(self):
        s = replicated_mse(canonical(), 0.0, 0.0, 20, 5, 1)
        assert math.isinf(s.crb)
        assert math.isnan(s.mse_over_crb)

    def test_validates_counts(self):
        with pytest.raises(ParameterError):
            replicated_mse(canonical(), 0.0, 0.5, 0, 5, 1)
        with pytest.raises(ParameterError):
            replicated_mse(canonical(), 0.0, 0.5, 5, 0, 1)

    def test_true_phase_off_the_principal_branch_rejected(self):
        with pytest.raises(ParameterError):
            replicated_mse(canonical(), 0.0, 2.0, 5, 5, 1)


class TestHeisenbergAudit:
    def test_balanced_step_is_optimal_everywhere(self):
        rows = heisenberg_audit(canonical(), 0.0)
        assert len(rows) == 15
        assert all(row["optimal"] for row in rows)
        for row in rows:
            assert abs(row["dphi_sqrt_fisher"] - 1.0) <= 1e-3
            assert row["fisher"] <= row["variance_bound"] + 1e-9

    def test_bound_columns(self):
        from cvphase import generator_moments

        p = canonical()
        mom = generator_moments(p, 0.0)
        row = heisenberg_audit(p, 0.0)[0]
        assert row["variance_bound"] == pytest.approx(16.0 * mom.variance, rel=1e-13)
        assert row["mean_bound_generator_f"] == pytest.approx(
            4.0 * mom.mean**2, rel=1e-13
        )
        assert row["mean_bound_generator_2f"] == pytest.approx(
            16.0 * mom.mean**2, rel=1e-13
        )

    def test_constant_mask_never_optimal(self):
        rows = heisenberg_audit(canonical(), BIG_P)
        assert not any(row["optimal"] for row in rows)
        assert all(row["fisher"] == 0.0 for row in rows)

    def test_singular_phase_rows_are_flagged_not_optimal(self):
        fine, singular = heisenberg_audit(
            canonical(), 0.0, phis=(math.pi / 4, math.pi / 2)
        )
        assert fine["optimal"] is True
        assert math.isnan(singular["dphi_sqrt_fisher"])
        assert singular["optimal"] is False
