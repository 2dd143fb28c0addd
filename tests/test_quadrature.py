"""Adaptive-quadrature probability oracle and the step/window mask gap."""

import math

import mpmath as mp
import numpy as np
import pytest

from cvphase import (
    ParameterError,
    PiecewiseBinaryFunction,
    ProcedureParams,
    QuadratureResponse,
    QuadratureResult,
    QuadratureSweep,
    QuadratureToleranceError,
    RegimeError,
    StepHatGap,
    model,
    prob_x0,
    prob_x0_quadrature,
    quadrature,
    quadrature_responses,
    step_hat_gap,
    step_hat_gaps,
)
from erf_oracle import erf_series
from factorized_oracle import prob_x0_factorized
from helpers import (
    BIG_P, DELTA, LARGEST_PHASE, canonical, phase_refusal, refused_phases,
    with_mask_product,
)

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
            (response,) = quadrature_responses(p, [f])
            for phi in rng.uniform(0.0, math.pi, size=5):
                assert response.at(phi) == prob_x0_quadrature(p, f, phi)

    def test_axis_read_is_the_one_phase_read(self):
        p = canonical()
        rng = np.random.default_rng(8)
        for _ in range(10):
            sweep = quadrature_responses(p, [_random_mask(rng)])
            phis = [0.0, -0.0, *rng.uniform(-4.0, 4.0, size=6), np.float64(0.4), 1]
            got = sweep.p_x0s(phis)
            assert all(type(v) is float for v in got)
            assert got == [sweep[0].at(phi).value for phi in phis]
        assert sweep.p_x0s(()) == []
        # P*delta = 3: the constant-0 mask reads one ulp above 1 before the
        # check, and both reads clamp it to 1.0
        p = ProcedureParams(0.0, 0.3, 1.8, 10.0)
        sweep = quadrature_responses(p, [PiecewiseBinaryFunction((), (0,), 10.0)])
        assert sweep.p_x0s((0.0,)) == [sweep[0].at(0.0).value] == [1.0]

    def test_axis_read_raises_as_the_one_phase_read(self, monkeypatch):
        p = canonical()
        sweep = quadrature_responses(p, [PiecewiseBinaryFunction.step(BIG_P / 4, BIG_P)])
        response = sweep[0]
        # a budget between the estimates at phases 0 and 0.7 fails the axis
        # at its second phase, with that phase's values
        estimates = [response.at(phi).error_estimate for phi in (0.0, 0.7)]
        assert estimates[1] < estimates[0]
        monkeypatch.setattr(quadrature, "_ABS_TOL", 0.5 * sum(estimates))
        with pytest.raises(QuadratureToleranceError) as one:
            response.at(0.0)
        with pytest.raises(QuadratureToleranceError) as axis:
            sweep.p_x0s([0.7, 0.0, 0.7])
        assert str(axis.value) == str(one.value)
        assert (axis.value.value, axis.value.error_estimate) == (
            one.value.value, one.value.error_estimate
        )


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


def _sweep_masks(rng: np.random.Generator, big_p: float) -> list[PiecewiseBinaryFunction]:
    """One to six masks on [-P, P]: random breakpoints, steps, windows,
    constants, breakpoints at +-P and at -0.0, and a half-domain off P
    within the tolerance a mask may have."""
    masks = []
    for _ in range(int(rng.integers(1, 7))):
        kind = int(rng.integers(0, 6))
        if kind == 0:
            k = int(rng.integers(0, 7))
            bps = sorted({float(b) for b in rng.uniform(-big_p, big_p, size=k)})
            values = tuple(int(v) for v in rng.integers(0, 2, size=len(bps) + 1))
            masks.append(PiecewiseBinaryFunction(tuple(bps), values, big_p))
        elif kind == 1:
            masks.append(PiecewiseBinaryFunction.step(float(rng.uniform(-big_p, big_p)), big_p))
        elif kind == 2:
            r1, r2 = sorted(rng.uniform(-big_p, big_p, size=2))
            masks.append(PiecewiseBinaryFunction.hat(float(r1), float(r2), big_p))
        elif kind == 3:
            masks.append(PiecewiseBinaryFunction((), (int(rng.integers(0, 2)),), big_p))
        elif kind == 4:
            masks.append(PiecewiseBinaryFunction((-big_p, -0.0, big_p), (1, 0, 1, 0), big_p))
        else:
            half = big_p * (1.0 + float(rng.uniform(-0.9, 0.9)) * model._MASK_DOMAIN_TOL)
            masks.append(PiecewiseBinaryFunction((-0.0, 0.5 * half), (0, 1, 0), half))
    return masks


class TestQuadratureSweep:
    """One integration per piece of [0, P] between the masks' folded cuts."""

    def test_each_mask_agrees_with_the_segment_sum_oracle(self):
        rng = np.random.default_rng(20261020)
        for _ in range(60):
            delta = float(rng.uniform(0.2, 2.0))
            big_p = float(rng.uniform(0.1, 3.0)) / delta
            x0 = float(rng.uniform(-2.0, 2.0))
            p = ProcedureParams(x0, delta, abs(x0) + float(rng.uniform(4.2, 9.0)) * delta, big_p)
            masks = _sweep_masks(rng, big_p)
            phis = [float(phi) for phi in rng.uniform(-math.pi, math.pi, size=4)]
            sweep = quadrature_responses(p, masks)
            column = sweep.p_x0s(phis)
            assert len(sweep) == len(masks)
            for i, (f, response) in enumerate(zip(masks, sweep)):
                assert response.params is p
                got = column[i * len(phis):(i + 1) * len(phis)]
                assert got == QuadratureSweep([response]).p_x0s(phis)
                for phi, value in zip(phis, got):
                    want = prob_x0_factorized(p, f, phi).p_x0
                    assert abs(value - want) <= 1e-14, (f, phi)

    def test_each_mask_keeps_the_whole_integral_budget(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            delta = float(rng.uniform(0.2, 2.0))
            big_p = float(rng.uniform(0.1, 3.0)) / delta
            p = ProcedureParams(0.0, delta, 5.0 * delta, big_p)
            budget = quadrature._ABS_TOL * math.sqrt(math.pi) / (8.0 * delta)
            for response in quadrature_responses(p, _sweep_masks(rng, big_p)):
                assert 0.0 < response.error_sum <= budget

    def test_a_folded_segment_is_its_mirror_image(self):
        # g is even: the segment below 0 reads the same pieces as its mirror,
        # so the symmetric mask's two segments of 1 sum to twice the window's
        p = canonical()
        f = PiecewiseBinaryFunction((-1.0, -0.4, 0.4, 1.0), (0, 1, 0, 1, 0), BIG_P)
        symmetric, window = quadrature_responses(
            p, [f, PiecewiseBinaryFunction.hat(0.4, 1.0, BIG_P)]
        )
        assert symmetric.i1 == 2.0 * window.i1

    def test_a_segment_adds_its_pieces_left_to_right(self, monkeypatch):
        # nine thresholds cut (0, P] into ten pieces of integral 0.1 each, all
        # under one segment of the step at 0: 0.1 added ten times in order is
        # 0.9999999999999999, where a compensated sum would give 1.0
        monkeypatch.setattr(quadrature, "_integrate", lambda *_: (0.1, 0.0))
        cuts = [BIG_P * k / 10 for k in range(1, 10)]
        masks = [PiecewiseBinaryFunction.step(r, BIG_P) for r in (0.0, *cuts)]
        response = quadrature_responses(canonical(), masks)[0]
        assert response.i0 == response.i1 == 0.9999999999999999

    def test_an_empty_sweep_still_checks_its_parameters(self):
        assert quadrature_responses(canonical(), iter(())) == ()
        assert type(quadrature_responses(canonical(), [])) is QuadratureSweep
        assert quadrature_responses(canonical(), []).p_x0s((0.3,)) == []
        snug = ProcedureParams(x0=0.0, delta=1.0, big_t=4.0, big_p=1.5)
        with pytest.raises(RegimeError):
            quadrature_responses(snug, ())
        with pytest.raises(ParameterError):
            quadrature_responses(canonical(), [PiecewiseBinaryFunction.step(0.0, BIG_P / 2)])

    def test_the_sweep_read_raises_at_the_first_cell_over_budget(self, monkeypatch):
        p = canonical()
        masks = [PiecewiseBinaryFunction.step(r, BIG_P) for r in (0.0, BIG_P / 4)]
        sweep = quadrature_responses(p, masks)
        monkeypatch.setattr(quadrature, "_ABS_TOL", 1e-300)
        with pytest.raises(QuadratureToleranceError) as one:
            sweep[0].at(0.7)
        with pytest.raises(QuadratureToleranceError) as axis:
            sweep.p_x0s([0.7, 0.0])
        assert (axis.value.value, axis.value.error_estimate) == (
            one.value.value, one.value.error_estimate
        )


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

    @pytest.mark.parametrize("product", [0.1, 0.3, 0.5])
    def test_gap_keeps_its_relative_precision(self, product):
        # against -(1/2)*(1 - cos(2*phi))*(2*erf(s) - erf(2*s))^2, s = P*delta,
        # at 60 digits.  The gap comes from the pieces a and b, not as the
        # difference of two probabilities near 1 (which read it to 2.5e-11
        # at s = 0.1), and ratio, whose 1 - cos(2*phi) cancels, is the same
        # at every phase to a few ulps
        p = with_mask_product(product)
        phis = [k * math.pi / 16 for k in range(1, 16)]
        columns = step_hat_gaps(p, phis)
        s = mp.mpf(p.big_p) * mp.mpf(p.delta)
        core = (2 * erf_series(s) - erf_series(2 * s)) ** 2 / 2
        for phi, gap in zip(phis, columns["signed_gap"]):
            want = -(1 - mp.cos(2 * mp.mpf(phi))) * core
            assert abs(gap - want) <= 1e-14 * abs(want), phi
        ratios = columns["ratio"]
        assert max(ratios) - min(ratios) <= 4 * math.ulp(max(ratios))

    def test_gap_and_prediction_keep_it_near_zero_and_pi(self):
        # 1 - cos(2*phi) cancelled there (2.7e-9 relative at phi = 1e-4);
        # both columns carry it, so both are held at 60 digits
        p = with_mask_product(0.1)
        phis = [1e-4, 1e-3, math.pi - 1e-4]
        columns = step_hat_gaps(p, phis)
        s = mp.mpf(p.big_p) * mp.mpf(p.delta)
        core = (2 * erf_series(s) - erf_series(2 * s)) ** 2 / 2
        s_used = mp.mpf(p.mask_product)
        series = 8 / mp.pi * s_used**6 * abs(1 - 3 * s_used**2)
        for phi, gap, prediction in zip(
            phis, columns["signed_gap"], columns["leading_order_prediction"]
        ):
            factor = 1 - mp.cos(2 * mp.mpf(phi))
            assert abs(gap + factor * core) <= 1e-14 * factor * core, phi
            assert abs(prediction - factor * series) <= 1e-14 * factor * series, phi


_BALANCED = PiecewiseBinaryFunction.step(0.0, BIG_P)
# each quadrature read of a phase, by name
_PHASE_TAKERS = {
    "at": lambda phase: quadrature_responses(canonical(), [_BALANCED])[0].at(phase),
    "p_x0s": lambda phase: quadrature_responses(canonical(), [_BALANCED]).p_x0s(
        (0.3, phase)
    ),
    "prob_x0_quadrature": lambda phase: prob_x0_quadrature(
        canonical(), _BALANCED, phase
    ),
    "step_hat_gap": lambda phase: step_hat_gap(ProcedureParams(0.0, 2.0, 20.0, 0.2), phase),
    "step_hat_gaps": lambda phase: step_hat_gaps(with_mask_product(0.1), (0.3, phase)),
}
_REFUSED_PHASES = refused_phases()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "phase", list(_REFUSED_PHASES.values()), ids=list(_REFUSED_PHASES)
)
class TestPhaseGate:
    """Each quadrature read of a phase refuses one that is not a real number
    with a finite double; at(nan) and step_hat_gap at nan returned nan in
    every field, with no error, and each raised a bare ValueError at 1e308."""

    def _refused(self, taker, phase):
        with pytest.raises(ParameterError) as info:
            _PHASE_TAKERS[taker](phase)
        assert str(info.value) == phase_refusal(phase)

    def test_at(self, phase):
        self._refused("at", phase)

    def test_p_x0s(self, phase):
        self._refused("p_x0s", phase)

    def test_prob_x0_quadrature(self, phase):
        self._refused("prob_x0_quadrature", phase)

    def test_step_hat_gap(self, phase):
        self._refused("step_hat_gap", phase)

    def test_step_hat_gaps(self, phase):
        self._refused("step_hat_gaps", phase)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("taker", list(_PHASE_TAKERS))
def test_largest_phase_taken(taker):
    for phase in (LARGEST_PHASE, -LARGEST_PHASE):
        _PHASE_TAKERS[taker](phase)


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
        response = QuadratureResponse(params=p, i0=1.0, i1=2.0, error_sum=1e-12)
        assert response.params is p
        assert repr(response) == (
            "QuadratureResponse(params=ProcedureParams(x0=1.0, delta=0.5, big_t=10.0, "
            "big_p=2.0), i0=1.0, i1=2.0, error_sum=1e-12)"
        )

    @pytest.mark.parametrize(
        "value, field",
        [
            (QuadratureResult(value=0.5, error_estimate=1e-12), "value"),
            (QuadratureResponse(params=None, i0=0.0, i1=0.0, error_sum=0.0), "error_sum"),
            (StepHatGap(signed_gap=-1.0, gap=1.0, leading_order_prediction=2.0, ratio=0.5),
             "ratio"),
        ],
    )
    def test_fields_cannot_be_assigned(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, 1.0)
        with pytest.raises(AttributeError):
            value.extra = 1.0
