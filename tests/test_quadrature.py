"""Adaptive-quadrature probability oracle and the step/window mask gap."""

import math

import numpy as np
import pytest

from cvphase import (
    ParameterError,
    PiecewiseBinaryFunction,
    ProcedureParams,
    QuadratureResponse,
    QuadratureResult,
    QuadratureToleranceError,
    RegimeError,
    StepHatGap,
    prob_x0,
    prob_x0_factorized,
    prob_x0_quadrature,
    quadrature,
    quadrature_response,
    step_hat_gap,
    step_hat_gaps,
)
from erf_oracle import erf_series
from helpers import BIG_P, DELTA, canonical, with_mask_product

GAP_PRED_S01 = 4.9401694335724335e-06  # series prediction at P*delta=0.1, phi=pi/2


class TestQuadratureSpec:
    """The error budget of one probability and what exceeding it raises."""

    def test_defaults_valid(self):
        assert quadrature._ABS_TOL == 1e-10
        assert quadrature._MAX_PANELS == 256

    def test_tolerance_error_carries_best_values(self):
        err = QuadratureToleranceError("budget blown", value=0.5, error_estimate=1e-7)
        assert err.value == 0.5
        assert err.error_estimate == 1e-7


def _monomial_integral(k: int) -> float:
    """Integral of x^k over [-1, 1]."""
    return 0.0 if k % 2 else 2.0 / (k + 1)


class TestGaussKronrod:
    """The qk21 rule and the adaptive routine built on it."""

    @pytest.mark.parametrize("k", range(32))
    def test_kronrod_nodes_are_exact_to_degree_31(self, k):
        xgk, wgk = quadrature._XGK, quadrature._WGK
        total = sum(w * (x**k + (-x) ** k) for x, w in zip(xgk[:10], wgk[:10]))
        total += wgk[10] * 0.0**k
        assert total == pytest.approx(_monomial_integral(k), abs=1e-14)
        value, _ = quadrature._gauss_kronrod(lambda x: x**k, -1.0, 1.0)
        assert value == pytest.approx(_monomial_integral(k), abs=1e-14)

    @pytest.mark.parametrize("k", range(20))
    def test_gauss_nodes_are_exact_to_degree_19(self, k):
        nodes = quadrature._XGK[1:10:2]
        total = sum(w * (x**k + (-x) ** k) for x, w in zip(nodes, quadrature._WG))
        assert total == pytest.approx(_monomial_integral(k), abs=1e-14)

    @pytest.mark.parametrize(
        "lo, hi, budget, min_evals",
        [
            (-BIG_P / 8, BIG_P / 8, 1e-13, 21),  # centre
            (-BIG_P, -BIG_P / 2, 1e-15, 21),  # left tail
            (BIG_P / 2, BIG_P, 1e-15, 21),  # right tail
            (BIG_P, BIG_P, 1e-15, 21),  # zero width
            (-BIG_P, BIG_P, 1e-12, 63),  # one qk21 panel misses the budget
        ],
    )
    def test_adaptive_matches_the_erf_oracle(self, lo, hi, budget, min_evals):
        evals = []

        def envelope(y):
            evals.append(y)
            return math.exp(-4.0 * DELTA * DELTA * y * y)

        value, err = quadrature._integrate(envelope, lo, hi, budget)
        a = 2.0 * DELTA
        exact = float(
            (erf_series(a * hi) - erf_series(a * lo)) * math.sqrt(math.pi) / (2.0 * a)
        )
        assert len(evals) >= min_evals
        assert err <= budget
        assert abs(value - exact) <= err

    def test_unreachable_budget_raises_with_best_values(self, monkeypatch):
        p = canonical()
        f = PiecewiseBinaryFunction.step(BIG_P / 4, BIG_P)
        monkeypatch.setattr(quadrature, "_ABS_TOL", 1e-300)
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 64)
        match = "abs_tol 1.000e-300 within 64 subdivisions"
        with pytest.raises(QuadratureToleranceError, match=match) as info:
            prob_x0_quadrature(p, f, 0.7)
        exc = info.value
        assert exc.value == pytest.approx(prob_x0(p, BIG_P / 4, 0.7).p_x0, abs=1e-12)
        assert 1e-300 < exc.error_estimate < 1e-12

    def test_response_at_phi_is_prob_x0_quadrature(self):
        p = canonical()
        rng = np.random.default_rng(7)
        for _ in range(10):
            f = _random_mask(rng)
            response = quadrature_response(p, f)
            for phi in rng.uniform(0.0, math.pi, size=5):
                assert response.at(phi) == prob_x0_quadrature(p, f, phi)


def _random_mask(rng: np.random.Generator) -> PiecewiseBinaryFunction:
    k = int(rng.integers(0, 7))
    bps = np.sort(rng.uniform(-0.95 * BIG_P, 0.95 * BIG_P, size=k))
    # floats collide with probability ~0, but keep the invariant explicit
    while len(np.unique(bps)) != k:
        bps = np.sort(rng.uniform(-0.95 * BIG_P, 0.95 * BIG_P, size=k))
    values = tuple(int(v) for v in rng.integers(0, 2, size=k + 1))
    return PiecewiseBinaryFunction(
        breakpoints=tuple(float(b) for b in bps),
        values=values,
        half_domain=BIG_P,
    )


class TestProbQuadrature:
    def test_agrees_with_segment_sum_on_random_masks(self):
        p = canonical()
        tol = quadrature._ABS_TOL
        rng = np.random.default_rng(20240817)
        for _ in range(50):
            f = _random_mask(rng)
            phi = float(rng.uniform(0.0, math.pi))
            res = prob_x0_quadrature(p, f, phi)
            ref = prob_x0_factorized(p, f, phi).p_x0
            assert res.error_estimate <= tol
            assert abs(res.value - ref) <= max(tol, 1e-9)

    def test_agrees_with_closed_form_step(self):
        p = canonical()
        for r in (0.0, BIG_P / 4, BIG_P / 2):
            for phi in (0.0, 0.4, math.pi / 2, 2.5):
                f = PiecewiseBinaryFunction.step(r, BIG_P)
                got = prob_x0_quadrature(p, f, phi).value
                assert got == pytest.approx(prob_x0(p, r, phi).p_x0, abs=1e-12)

    def test_midpoint_rule_oracle(self):
        # independent discretization: midpoint sums of the masked Gaussian
        # amplitude integral, applied per segment where the integrand is
        # smooth (a global grid would see O(h) error at each mask jump)
        p = canonical()
        d = p.delta
        masks = [
            PiecewiseBinaryFunction.step(0.7, BIG_P),
            PiecewiseBinaryFunction.hat(-1.0, 0.4, BIG_P),
            PiecewiseBinaryFunction(
                breakpoints=(-1.5, -0.3, 0.9), values=(1, 0, 1, 0),
                half_domain=BIG_P,
            ),
        ]
        for f in masks:
            for phi in (0.3, math.pi / 2, 2.0):
                z = 0.0 + 0.0j
                for lo, hi, v in f.segments():
                    m = 4001
                    h = (hi - lo) / m
                    ys = lo + h * (np.arange(m) + 0.5)
                    z += np.exp(2j * phi * v) * h * np.sum(
                        np.exp(-4.0 * d * d * ys * ys)
                    )
                expected = 4.0 * d * d / math.pi * abs(z) ** 2
                got = prob_x0_quadrature(p, f, phi).value
                assert got == pytest.approx(expected, abs=1e-6)

    def test_spurious_breakpoint_invariance(self):
        p = canonical()
        f1 = PiecewiseBinaryFunction.step(0.5, BIG_P)
        f2 = PiecewiseBinaryFunction(
            breakpoints=(-1.0, 0.5), values=(0, 0, 1), half_domain=BIG_P
        )
        for phi in (0.3, 1.2, 2.8):
            a = prob_x0_quadrature(p, f1, phi).value
            b = prob_x0_quadrature(p, f2, phi).value
            assert a == pytest.approx(b, abs=2e-10)

    def test_reflection_symmetry(self):
        # the envelope is even, so mirroring the mask preserves the probability
        p = canonical()
        f = PiecewiseBinaryFunction(
            breakpoints=(-1.3, 0.2, 1.1), values=(0, 1, 1, 0), half_domain=BIG_P
        )
        mirrored = PiecewiseBinaryFunction(
            breakpoints=tuple(-b for b in reversed(f.breakpoints)),
            values=tuple(reversed(f.values)),
            half_domain=BIG_P,
        )
        for phi in (0.4, 1.0, 2.1):
            a = prob_x0_quadrature(p, f, phi).value
            b = prob_x0_quadrature(p, mirrored, phi).value
            assert a == pytest.approx(b, abs=2e-10)

    def test_domain_mismatch_rejected(self):
        p = canonical()
        f = PiecewiseBinaryFunction.step(0.0, BIG_P / 2)
        with pytest.raises(ParameterError):
            prob_x0_quadrature(p, f, 0.3)


class TestStepHatGap:
    @pytest.mark.parametrize("product", [0.05, 0.1])
    def test_series_controls_gap(self, product):
        p = with_mask_product(product)
        res = step_hat_gap(p, math.pi / 2)
        assert res.signed_gap <= 0.0
        assert res.gap == abs(res.signed_gap)
        assert abs(res.ratio - 1.0) <= 0.1

    def test_frozen_prediction(self):
        p = with_mask_product(0.1)
        res = step_hat_gap(p, math.pi / 2)
        assert res.leading_order_prediction == pytest.approx(
            GAP_PRED_S01, rel=1e-14
        )

    def test_phase_dependence_through_prefactor(self):
        # ratio is phase independent to leading order
        p = with_mask_product(0.1)
        r1 = step_hat_gap(p, math.pi / 2).ratio
        r2 = step_hat_gap(p, 1.0).ratio
        assert r1 == pytest.approx(r2, rel=5e-3)

    def test_zero_phase_prediction_vanishes(self):
        res = step_hat_gap(with_mask_product(0.1), 0.0)
        assert res.leading_order_prediction == 0.0
        assert math.isnan(res.ratio)
        assert res.gap <= 1e-9

    def test_large_mask_product_rejected(self):
        with pytest.raises(RegimeError):
            step_hat_gap(with_mask_product(0.6), math.pi / 2)
        # checked even with no phases
        with pytest.raises(RegimeError):
            step_hat_gaps(with_mask_product(0.6), ())

    def test_columns_match_the_scalar(self):
        p = with_mask_product(0.1)
        phis = (0.0, 0.3, math.pi / 2, 1.0, -0.7)
        columns = step_hat_gaps(p, phis)
        assert list(columns) == list(StepHatGap._fields)
        assert all(type(column) is list for column in columns.values())
        for i, phi in enumerate(phis):
            want = step_hat_gap(p, phi)
            got = [column[i] for column in columns.values()]
            # ratio is nan at phi = 0, where the prediction vanishes
            assert all(
                g == w or (math.isnan(g) and math.isnan(w)) for g, w in zip(got, want)
            )
        assert step_hat_gaps(p, ()) == {field: [] for field in StepHatGap._fields}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "phase", [math.nan, math.inf, -math.inf, np.float64(math.nan)],
    ids=["nan", "inf", "-inf", "numpy_nan"],
)
class TestPhaseGate:
    """Each quadrature read of a phase refuses a non-finite one; at(nan) and
    step_hat_gap at nan returned nan in every field, with no error."""

    def _refused(self, call, phase):
        with pytest.raises(ParameterError) as info:
            call()
        assert str(info.value) == f"phase must be finite, got {float(phase)!r}"

    def test_at(self, phase):
        f = PiecewiseBinaryFunction.step(0.0, BIG_P)
        response = quadrature_response(canonical(), f)
        self._refused(lambda: response.at(phase), phase)

    def test_step_hat_gap(self, phase):
        p = ProcedureParams(0.0, 2.0, 20.0, 0.2)
        self._refused(lambda: step_hat_gap(p, phase), phase)

    def test_step_hat_gaps(self, phase):
        p = with_mask_product(0.1)
        self._refused(lambda: step_hat_gaps(p, (0.3, phase)), phase)


class TestValueTypes:
    """What callers may rely on: keyword construction, immutability and the
    repr."""

    def test_keyword_construction_and_repr(self):
        res = QuadratureResult(value=0.5, error_estimate=1e-12)
        assert (res.value, res.error_estimate) == (0.5, 1e-12)
        assert repr(res) == "QuadratureResult(value=0.5, error_estimate=1e-12)"
        gap = StepHatGap(signed_gap=-1.0, gap=1.0, leading_order_prediction=2.0, ratio=0.5)
        assert (gap.signed_gap, gap.ratio) == (-1.0, 0.5)
        assert repr(gap) == (
            "StepHatGap(signed_gap=-1.0, gap=1.0, leading_order_prediction=2.0, "
            "ratio=0.5)"
        )
        p = ProcedureParams(x0=1, delta=0.5, big_t=10, big_p=2)
        response = QuadratureResponse(params=p, integrals=((1.0, 0), (2.0, 1)), error_sum=1e-12)
        assert response.params is p
        assert repr(response) == (
            "QuadratureResponse(params=ProcedureParams(x0=1.0, delta=0.5, big_t=10.0, "
            "big_p=2.0), integrals=((1.0, 0), (2.0, 1)), error_sum=1e-12)"
        )

    @pytest.mark.parametrize(
        "value, field",
        [
            (QuadratureResult(value=0.5, error_estimate=1e-12), "value"),
            (QuadratureResponse(params=None, integrals=(), error_sum=0.0), "error_sum"),
            (StepHatGap(signed_gap=-1.0, gap=1.0, leading_order_prediction=2.0, ratio=0.5),
             "ratio"),
        ],
    )
    def test_fields_cannot_be_assigned(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, 1.0)
        with pytest.raises(AttributeError):
            value.extra = 1.0
