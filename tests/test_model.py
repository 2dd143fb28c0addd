"""Parameter validation, mask geometry, and the two-outcome distribution."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvphase import (
    CONTAINMENT_RATIO,
    MeasurementDistribution,
    ParameterError,
    PiecewiseBinaryFunction,
    ProcedureParams,
    RegimeError,
    prob_x0_factorized,
    prob_x0_quadrature,
    require_containment,
    run_circuit,
    validate_params,
)
from cvphase.model import require_mask_domain
from erf_oracle import erf_f
from helpers import BIG_P, canonical


class TestProcedureParams:
    def test_epsilon_defaults_to_preparation_width(self):
        p = ProcedureParams(x0=0.0, delta=0.5, big_t=5.0, big_p=2.0)
        assert p.epsilon == 0.5

    def test_explicit_epsilon_kept(self):
        p = ProcedureParams(x0=0.0, delta=0.5, big_t=5.0, big_p=2.0, epsilon=0.25)
        assert p.epsilon == 0.25

    def test_nonfinite_rejected_at_construction(self):
        with pytest.raises(ParameterError):
            ProcedureParams(x0=math.nan, delta=0.5, big_t=5.0, big_p=2.0)
        with pytest.raises(ParameterError):
            ProcedureParams(x0=0.0, delta=math.inf, big_t=5.0, big_p=2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": 0.0},
            {"delta": -1.0},
            {"big_t": 0.0},
            {"big_p": -2.0},
            {"epsilon": 0.0},
        ],
    )
    def test_nonpositive_scales_fail_validation(self, kwargs):
        base = dict(x0=0.0, delta=0.5, big_t=5.0, big_p=2.0, epsilon=0.5)
        base.update(kwargs)
        (name,) = kwargs
        with pytest.raises(ParameterError, match=f"^{name} must be positive"):
            ProcedureParams(**base)

    def test_every_scale_error_reported_at_once(self):
        with pytest.raises(ParameterError) as info:
            ProcedureParams(x0=0.0, delta=1e-200, big_t=-1.0, big_p=2.0)
        messages = str(info.value).split("; ")
        assert [m.split()[0] for m in messages] == ["delta", "big_t", "epsilon"]
        assert all("within [1e-150, 1e+150]" in m for m in messages)

    def test_derived_properties(self):
        p = ProcedureParams(x0=1.0, delta=0.5, big_t=4.0, big_p=3.0)
        assert p.containment_ratio == pytest.approx((4.0 - 1.0) / 0.5)
        assert p.mask_product == pytest.approx(1.5)
        assert p.in_containment_regime

    def test_validation_warnings(self):
        snug = ProcedureParams(x0=0.0, delta=1.0, big_t=3.0, big_p=1.0)
        warnings = validate_params(snug)  # warnings do not fail construction
        assert len(warnings) == 2  # containment < 4.2 and P*delta < 1.5
        assert "containment ratio (T - |x0|)/delta = 3 " in warnings[0]
        assert "mask product P*delta = 1 " in warnings[1]

        roomy = canonical()
        assert validate_params(roomy) == ()

    def test_require_containment_gate(self):
        snug = ProcedureParams(x0=0.0, delta=1.0, big_t=4.0, big_p=1.5)
        with pytest.raises(RegimeError):
            require_containment(snug)
        ok = ProcedureParams(x0=0.0, delta=1.0, big_t=CONTAINMENT_RATIO, big_p=1.5)
        require_containment(ok)

    def test_mask_domain_gate_shared_by_the_engines(self):
        p = canonical()
        require_mask_domain(p, PiecewiseBinaryFunction.step(0.0, BIG_P * (1 + 1e-12)))
        wide = PiecewiseBinaryFunction.step(0.0, 2.0 * BIG_P)
        with pytest.raises(ParameterError, match="does not match big_p"):
            require_mask_domain(p, wide)
        for engine in (
            lambda: prob_x0_factorized(p, wide, 0.3),
            lambda: prob_x0_quadrature(p, wide, 0.3),
            lambda: run_circuit(p, wide, 0.3, 256),
        ):
            with pytest.raises(ParameterError, match="does not match big_p"):
                engine()


class TestPiecewiseBinaryFunction:
    def test_step_semantics(self):
        f = PiecewiseBinaryFunction.step(0.5, 2.0)
        assert f(0.5) == 0  # threshold itself belongs to the low side
        assert f(0.5 + 1e-12) == 1
        assert f(-2.0) == 0
        assert f(2.0) == 1

    def test_step_at_domain_edges_is_constant(self):
        low = PiecewiseBinaryFunction.step(2.0, 2.0)
        high = PiecewiseBinaryFunction.step(-2.0, 2.0)
        assert low.breakpoints == () and low.values == (0,)
        assert high.breakpoints == () and high.values == (1,)
        assert low.measure_of_ones() == 0.0
        assert high.measure_of_ones() == 4.0

    def test_hat_semantics(self):
        f = PiecewiseBinaryFunction.hat(-0.5, 0.5, 2.0)
        assert f(0.0) == 1
        assert f(-0.5) == 0  # left edge excluded, consistent with step
        assert f(0.5) == 1
        assert f(1.0) == 0
        assert f.measure_of_ones() == pytest.approx(1.0)

    def test_invalid_constructions(self):
        with pytest.raises(ParameterError):
            PiecewiseBinaryFunction(breakpoints=(0.5, 0.5), values=(0, 1, 0), half_domain=1.0)
        with pytest.raises(ParameterError):
            PiecewiseBinaryFunction(breakpoints=(0.7, 0.3), values=(0, 1, 0), half_domain=1.0)
        with pytest.raises(ParameterError):
            PiecewiseBinaryFunction(breakpoints=(5.0,), values=(0, 1), half_domain=1.0)
        with pytest.raises(ParameterError):
            PiecewiseBinaryFunction(breakpoints=(0.3,), values=(0, 2), half_domain=1.0)
        with pytest.raises(ParameterError):
            PiecewiseBinaryFunction(breakpoints=(0.3,), values=(0,), half_domain=1.0)
        with pytest.raises(ParameterError):
            PiecewiseBinaryFunction.step(3.0, 2.0)
        with pytest.raises(ParameterError):
            PiecewiseBinaryFunction.hat(0.5, 0.5, 2.0)

    def test_out_of_domain_evaluation_rejected(self):
        f = PiecewiseBinaryFunction.step(0.0, 1.0)
        with pytest.raises(ParameterError):
            f(1.5)

    def test_segments_tile_the_domain(self):
        f = PiecewiseBinaryFunction(
            breakpoints=(-0.4, 0.1, 0.8), values=(1, 0, 1, 0), half_domain=2.0
        )
        segs = f.segments()
        assert segs[0][0] == -2.0 and segs[-1][1] == 2.0
        for (_, hi, _), (lo, _, _) in zip(segs, segs[1:]):
            assert hi == lo
        assert [v for _, _, v in segs] == [1, 0, 1, 0]

    def test_measure_of_ones(self):
        f = PiecewiseBinaryFunction.step(0.5, 2.0)
        assert f.measure_of_ones() == pytest.approx(1.5)
        g = PiecewiseBinaryFunction.hat(-1.0, 0.25, 2.0)
        assert g.measure_of_ones() == pytest.approx(1.25)

    @given(
        data=st.lists(st.floats(-1.9, 1.9), min_size=0, max_size=5, unique=True),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_complement_involution_and_measure(self, data, seed):
        bps = tuple(sorted(data))
        n_vals = len(bps) + 1
        vals = tuple((seed >> i) & 1 for i in range(n_vals))
        f = PiecewiseBinaryFunction(breakpoints=bps, values=vals, half_domain=2.0)
        g = f.complement()
        assert g.complement() == f
        assert f.measure_of_ones() + g.measure_of_ones() == pytest.approx(4.0)
        for y in (-2.0, -1.0, 0.0, 0.33, 2.0):
            assert f(y) + g(y) == 1


class TestMeasurementDistribution:
    def test_roundoff_clamped(self):
        assert MeasurementDistribution(-1e-13).p_x0 == 0.0
        assert MeasurementDistribution(1.0 + 1e-13).p_x0 == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            MeasurementDistribution(-1e-3)
        with pytest.raises(ParameterError):
            MeasurementDistribution(1.01)

    def test_complement_probability(self):
        d = MeasurementDistribution(0.25)
        assert 1.0 - d.p_x0 == pytest.approx(0.75)

    def test_oracle_consistency(self):
        # the unit-width reference value used across the stats tests
        assert erf_f(3.0) == math.erf(3.0)
