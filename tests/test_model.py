"""Parameter validation, mask geometry, and the two-outcome distribution."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
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
    phase_response,
    prob_x0_quadrature,
    quadrature_responses,
    require_containment,
    run_circuit,
)
from cvphase.model import _masks, _probabilities
from erf_oracle import erf_f
from factorized_oracle import prob_x0_factorized
from helpers import BIG_P, canonical


class TestProcedureParams:
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
        ],
    )
    def test_nonpositive_scales_fail_validation(self, kwargs):
        base = dict(x0=0.0, delta=0.5, big_t=5.0, big_p=2.0)
        base.update(kwargs)
        (name,) = kwargs
        with pytest.raises(ParameterError, match=f"^{name} must be positive"):
            ProcedureParams(**base)

    def test_every_scale_error_reported_at_once(self):
        with pytest.raises(ParameterError) as info:
            ProcedureParams(x0=0.0, delta=1e-200, big_t=-1.0, big_p=2.0)
        messages = str(info.value).split("; ")
        assert [m.split()[0] for m in messages] == ["delta", "big_t"]
        assert all("within [1e-150, 1e+150]" in m for m in messages)

    def test_derived_properties(self):
        p = ProcedureParams(x0=1.0, delta=0.5, big_t=4.0, big_p=3.0)
        assert p.containment_ratio == pytest.approx((4.0 - 1.0) / 0.5)
        assert p.mask_product == pytest.approx(1.5)
        assert p.containment_ratio >= CONTAINMENT_RATIO

    def test_require_containment_gate(self):
        snug = ProcedureParams(x0=0.0, delta=1.0, big_t=4.0, big_p=1.5)
        with pytest.raises(RegimeError):
            require_containment(snug)
        ok = ProcedureParams(x0=0.0, delta=1.0, big_t=CONTAINMENT_RATIO, big_p=1.5)
        require_containment(ok)

    def test_mask_domain_gate_shared_by_the_engines(self):
        # a mask lies on exactly [-P, P]: no rounding slack
        p = canonical()
        for half in (BIG_P * (1 + 1e-12), math.nextafter(BIG_P, 0.0), 2.0 * BIG_P):
            off = PiecewiseBinaryFunction.step(0.0, half)
            with pytest.raises(ParameterError, match="does not match big_p") as gate:
                _masks(p, (off,))
            for engine in (
                lambda: prob_x0_factorized(p, off, 0.3),
                lambda: prob_x0_quadrature(p, off, 0.3),
                lambda: run_circuit(p, off, 0.3, 256),
            ):
                with pytest.raises(ParameterError) as info:
                    engine()
                assert str(info.value) == str(gate.value)
        on = PiecewiseBinaryFunction.step(0.0, BIG_P)
        assert _masks(p, iter((on, on))) == [on, on]


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
        assert low.segments() == ((-2.0, 2.0, 0),)
        assert high.segments() == ((-2.0, 2.0, 1),)

    def test_hat_semantics(self):
        f = PiecewiseBinaryFunction.hat(-0.5, 0.5, 2.0)
        assert f(0.0) == 1
        assert f(-0.5) == 0  # left edge excluded, consistent with step
        assert f(0.5) == 1
        assert f(1.0) == 0
        assert f.segments() == ((-2.0, -0.5, 0), (-0.5, 0.5, 1), (0.5, 2.0, 0))

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

    @pytest.mark.parametrize(
        "breakpoints, values, shown",
        [
            # int() truncated these to the values (0, 1) and (1,)
            ((0.0,), (0.9, 1.7), "0.9"),
            ((0.0,), (0, 1.0), "1.0"),
            ((), ("1",), "'1'"),
            # operator.index counted these as 0 and 1
            ((0.0,), (False, True), "False"),
        ],
    )
    def test_non_integer_values_refused(self, breakpoints, values, shown):
        with pytest.raises(ParameterError) as info:
            PiecewiseBinaryFunction(breakpoints, values, 2.0)
        assert str(info.value) == f"mask value must be an integer, got {shown}"

    def test_numpy_integer_values_are_ints(self):
        f = PiecewiseBinaryFunction((0.0,), (np.int64(0), np.uint8(1)), 2.0)
        assert f == PiecewiseBinaryFunction.step(0.0, 2.0)
        assert [type(v) for v in f.values] == [int, int]

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
        g = PiecewiseBinaryFunction(bps, tuple(1 - v for v in vals), 2.0)

        def measure_of_ones(h):
            return sum(hi - lo for lo, hi, v in h.segments() if v == 1)

        assert measure_of_ones(f) + measure_of_ones(g) == pytest.approx(4.0)
        for y in (-2.0, -1.0, 0.0, 0.33, 2.0):
            assert f(y) + g(y) == 1


class TestMaskDomain:
    """Breakpoints, thresholds, window edges and evaluation points lie in
    [-H, H], with no rounding slack past H, whatever the size of H."""

    @pytest.mark.parametrize(
        "build, what",
        [
            (lambda h, v: PiecewiseBinaryFunction((v,), (0, 1), h), "breakpoint"),
            (lambda h, v: PiecewiseBinaryFunction.step(v, h), "step threshold r"),
            # the window (0, v] for v > 0, (v, 0] for v < 0
            (lambda h, v: PiecewiseBinaryFunction.hat(min(0.0, v), max(0.0, v), h),
             "hat edge r{}"),
            (lambda h, v: PiecewiseBinaryFunction.step(0.0, h)(v), "evaluation point"),
        ],
        ids=["breakpoint", "step", "hat", "call"],
    )
    @pytest.mark.parametrize("half", [BIG_P, 2.0, 1e-3])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
    def test_h_passes_and_the_next_double_past_it_is_refused(
        self, build, what, half, sign
    ):
        what = what.format(2 if sign > 0 else 1)
        build(half, sign * half)
        past = sign * math.nextafter(half, math.inf)
        with pytest.raises(ParameterError) as info:
            build(half, past)
        assert str(info.value) == f"{what} {past!r} outside [-{half!r}, {half!r}]"

    @pytest.mark.parametrize(
        "build",
        [
            lambda h: PiecewiseBinaryFunction((0.3,), (0, 1), h),
            lambda h: PiecewiseBinaryFunction.step(0.3, h),
            lambda h: PiecewiseBinaryFunction.hat(-0.5, 0.5, h),
            # the edge 5e-324 lies outside [-0.0, 0.0] too, but H is checked first
            lambda h: PiecewiseBinaryFunction.step(5e-324, h),
        ],
        ids=["new", "step", "hat", "step-tiny"],
    )
    @pytest.mark.parametrize(
        "half, message",
        [
            (0.0, "half_domain must be positive, got 0.0"),
            (-1.0, "half_domain must be positive, got -1.0"),
            (math.nan, "half_domain must be finite, got nan"),
            (math.inf, "half_domain must be finite, got inf"),
        ],
    )
    def test_half_domain_checked_before_any_edge(self, build, half, message):
        with pytest.raises(ParameterError) as info:
            build(half)
        assert str(info.value) == message


def _off_p() -> PiecewiseBinaryFunction:
    """The step at 0 on [-P', P'], P' one ulp past the canonical P."""
    return PiecewiseBinaryFunction.step(0.0, math.nextafter(BIG_P, math.inf))


class TestMaskRule:
    """Every engine takes its masks through ``model._masks``: an iterable of
    masks, never one mask, each on exactly [-P, P]; one message per refusal."""

    @pytest.mark.parametrize(
        "engine",
        [
            lambda p, masks: quadrature_responses(p, masks),
            lambda p, masks: phase_response(p, 512).p_x0s(masks, (0.3,)),
            lambda p, masks: phase_response(p, 512).fishers(masks, (0.3,)),
        ],
        ids=["quadrature_responses", "p_x0s", "fishers"],
    )
    @pytest.mark.parametrize(
        "masks, message",
        [
            (PiecewiseBinaryFunction.step(0.3, BIG_P),
             "masks must be an iterable of masks, got one mask"),
            (3, "masks must be iterable, got 3"),
            ([3], "mask must be a PiecewiseBinaryFunction, got 3"),
            ([_off_p()],
             f"mask domain half-width {math.nextafter(BIG_P, math.inf)} "
             f"does not match big_p={BIG_P}"),
        ],
        ids=["lone_mask", "non_iterable", "non_mask", "one_ulp_off"],
    )
    def test_every_mask_axis_refused_with_one_message(self, engine, masks, message):
        p = canonical(512)
        with pytest.raises(ParameterError) as gate:
            _masks(p, masks)
        assert str(gate.value) == message
        with pytest.raises(ParameterError) as info:
            engine(p, masks)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "engine",
        [
            lambda p, f: phase_response(p, 512).split(f),
            lambda p, f: prob_x0_quadrature(p, f, 0.3),
            lambda p, f: run_circuit(p, f, 0.3, 512),
            lambda p, f: prob_x0_factorized(p, f, 0.3),
        ],
        ids=["split", "prob_x0_quadrature", "run_circuit", "factorized_oracle"],
    )
    @pytest.mark.parametrize(
        "f",
        [(PiecewiseBinaryFunction.step(0.3, BIG_P),) * 2, 3, _off_p()],
        ids=["mask_axis", "non_mask", "one_ulp_off"],
    )
    def test_every_one_mask_engine_refused_as_its_axis(self, engine, f):
        p = canonical(512)
        with pytest.raises(ParameterError) as gate:
            _masks(p, (f,))
        with pytest.raises(ParameterError) as info:
            engine(p, f)
        assert str(info.value) == str(gate.value)


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

    @pytest.mark.parametrize(
        "column, want",
        [
            ([0.0, -0.0, 0.25, 1.0], [0.0, -0.0, 0.25, 1.0]),
            ([-0.0, -1e-13, 0.5, 1.0 + 1e-13], [-0.0, 0.0, 0.5, 1.0]),
            ([0.5, np.float64(0.25), Fraction(1, 2), 1], [0.5, 0.25, 0.5, 1.0]),
            ([], []),
        ],
        ids=["in-range", "spill", "other-types", "empty"],
    )
    def test_column_is_checked_as_each_cell(self, column, want):
        # one rule for a column and for MeasurementDistribution: floats, a
        # spill within 1e-12 clamped, and -0.0 kept as -0.0
        for got in (_probabilities(column), [MeasurementDistribution(v).p_x0 for v in column]):
            assert [(type(v), v, math.copysign(1.0, v)) for v in got] == [
                (float, v, math.copysign(1.0, v)) for v in want
            ]

    @pytest.mark.parametrize(
        "column, message",
        [
            ([0.5, math.nan, 2.0], "p_x0 must be finite, got nan"),
            ([0.5, 1.01, math.nan], "p_x0 must lie in [0, 1], got 1.01"),
            ([-1e-3], "p_x0 must lie in [0, 1], got -0.001"),
            ([0.5, "0.5"], "p_x0 must be a real number, got '0.5'"),
            ([np.float64(math.inf)], "p_x0 must be finite, got np.float64(inf)"),
        ],
    )
    def test_column_reports_its_first_bad_cell(self, column, message):
        with pytest.raises(ParameterError) as column_error:
            _probabilities(column)
        bad = next(v for v in column if v not in (0.5,))
        with pytest.raises(ParameterError) as cell_error:
            MeasurementDistribution(bad)
        assert str(column_error.value) == str(cell_error.value) == message

    def test_oracle_consistency(self):
        # the unit-width reference value used across the stats tests
        assert erf_f(3.0) == math.erf(3.0)


class TestValueTypes:
    """What callers may rely on: keyword construction, immutability, float
    coercion, the repr, and the checks on every build, in a fixed order."""

    def test_keyword_construction_stores_floats(self):
        p = ProcedureParams(x0=1, delta=1, big_t=10, big_p=2)
        fields = (p.x0, p.delta, p.big_t, p.big_p)
        assert fields == (1.0, 1.0, 10.0, 2.0)
        assert [type(v) for v in fields] == [float] * 4
        f = PiecewiseBinaryFunction(breakpoints=(0,), values=(0, 1), half_domain=2)
        assert type(f.breakpoints[0]) is float and type(f.half_domain) is float
        assert [type(v) for v in f.values] == [int, int]
        d = MeasurementDistribution(p_x0=1)
        assert d.p_x0 == 1.0 and type(d.p_x0) is float

    @pytest.mark.parametrize(
        "value, field",
        [
            (ProcedureParams(x0=0.0, delta=0.5, big_t=5.0, big_p=2.0), "delta"),
            (PiecewiseBinaryFunction.step(0.0, 2.0), "values"),
            (MeasurementDistribution(0.5), "p_x0"),
        ],
    )
    def test_fields_cannot_be_assigned(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, 1.0)
        with pytest.raises(AttributeError):
            value.extra = 1.0

    def test_repr(self):
        assert repr(ProcedureParams(x0=1, delta=0.5, big_t=10, big_p=2)) == (
            "ProcedureParams(x0=1.0, delta=0.5, big_t=10.0, big_p=2.0)"
        )
        assert repr(PiecewiseBinaryFunction.hat(-1, 1, 2)) == (
            "PiecewiseBinaryFunction(breakpoints=(-1.0, 1.0), values=(0, 1, 0), "
            "half_domain=2.0)"
        )
        assert repr(MeasurementDistribution(0.25)) == "MeasurementDistribution(p_x0=0.25)"

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ProcedureParams(x0=math.nan, delta=-1.0, big_t=math.inf, big_p=0.0),
             "x0 must be finite, got nan"),
            (lambda: ProcedureParams(x0=0.0, delta=math.inf, big_t=math.nan, big_p=0.0),
             "delta must be finite, got inf"),
            (lambda: PiecewiseBinaryFunction((5.0, 0.1), (0, 2), math.nan),
             "half_domain must be finite, got nan"),
            (lambda: PiecewiseBinaryFunction((5.0, 0.1), (0, 2), -1.0),
             "half_domain must be positive, got -1.0"),
            (lambda: PiecewiseBinaryFunction((5.0, 0.1), (0, 2), 1.0),
             "need len(values) == len(breakpoints) + 1, got 2 and 2"),
            (lambda: PiecewiseBinaryFunction((5.0, 0.1), (0, 2, 1), 1.0),
             "breakpoint 5.0 outside [-1.0, 1.0]"),
            (lambda: PiecewiseBinaryFunction((0.5, 0.1), (0, 2, 1), 1.0),
             "breakpoints must be strictly ascending, got (0.5, 0.1)"),
            (lambda: PiecewiseBinaryFunction((0.1, 0.5), (0, 2, 1), 1.0),
             "values must be 0 or 1, got (0, 2, 1)"),
            (lambda: MeasurementDistribution(p_x0=math.inf), "p_x0 must be finite, got inf"),
            (lambda: MeasurementDistribution(p_x0=-0.5), "p_x0 must lie in [0, 1], got -0.5"),
        ],
    )
    def test_first_failed_check_is_reported(self, build, message):
        with pytest.raises(ParameterError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "value",
        ["0.5", b"0.5", None, bytearray(b"1"), 0.5 + 1j, np.complex128(0.5 + 1j),
         np.complex64(0.5)],
        ids=["str", "bytes", "None", "bytearray", "complex", "numpy_complex128",
             "numpy_complex64"],
    )
    @pytest.mark.parametrize(
        "build, what",
        [
            (lambda v: ProcedureParams(x0=v, delta=0.5, big_t=10.0, big_p=2.0), "x0"),
            (lambda v: ProcedureParams(x0=0.0, delta=v, big_t=10.0, big_p=2.0), "delta"),
            (lambda v: ProcedureParams(x0=0.0, delta=0.5, big_t=v, big_p=2.0), "big_t"),
            (lambda v: ProcedureParams(x0=0.0, delta=0.5, big_t=10.0, big_p=v), "big_p"),
            (lambda v: PiecewiseBinaryFunction((v,), (0, 1), 1.0), "breakpoint"),
            (lambda v: PiecewiseBinaryFunction((0.5,), (0, 1), v), "half_domain"),
            (lambda v: PiecewiseBinaryFunction.step(0.5, 1.0)(v), "evaluation point"),
            (lambda v: MeasurementDistribution(v), "p_x0"),
        ],
        ids=[
            "x0", "delta", "big_t", "big_p", "breakpoint", "half_domain", "call", "p_x0",
        ],
    )
    def test_only_real_numbers_pass(self, build, what, value):
        # float() would parse the str and bytes forms, and keep a numpy
        # complex's real part after a ComplexWarning; none is a real number
        with pytest.raises(ParameterError) as info:
            build(value)
        assert str(info.value) == f"{what} must be a real number, got {value!r}"

    def test_numpy_numbers_pass_as_floats(self):
        p = ProcedureParams(np.int64(1), np.float32(0.5), np.uint16(10), np.float64(2))
        assert p == (1.0, 0.5, 10.0, 2.0)
        assert [type(v) for v in p] == [float] * 4
        f = PiecewiseBinaryFunction((np.float64(0.5),), (0, 1), np.int32(1))
        assert f == PiecewiseBinaryFunction.step(0.5, 1.0)
        assert type(f.breakpoints[0]) is float and f(np.float32(0.75)) == 1
        assert MeasurementDistribution(np.float64(0.25)) == (0.25,)

    def test_real_numbers_of_the_numbers_tower_pass(self):
        # Fraction and Decimal carry __complex__ too, as every numbers.Real does
        p = ProcedureParams(Fraction(1, 2), Decimal("0.5"), 10, 2)
        assert p == (0.5, 0.5, 10.0, 2.0)
        assert [type(v) for v in p] == [float] * 4

    def test_replace_runs_the_checks(self):
        p = ProcedureParams(x0=0.0, delta=0.5, big_t=5.0, big_p=2.0)
        moved = p._replace(x0=1)
        assert moved == ProcedureParams(1.0, 0.5, 5.0, 2.0) and type(moved.x0) is float
        with pytest.raises(ParameterError, match="^delta must be positive"):
            p._replace(delta=-1.0)
        with pytest.raises(ParameterError, match="^values must be 0 or 1"):
            PiecewiseBinaryFunction.step(0.0, 2.0)._replace(values=(0, 2))
        with pytest.raises(ParameterError, match=r"^p_x0 must lie in \[0, 1\]"):
            MeasurementDistribution(0.5)._replace(p_x0=2.0)
