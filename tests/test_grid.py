"""Discretized circuit: grid states, unitary transform, mask, detection."""

import cmath
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import circuit_oracle
from circuit_oracle import (
    GridState,
    MOMENTUM,
    POSITION,
    apply_blackbox,
    fourier,
    inverse_fourier,
    measure_povm,
    prepare_gaussian,
    run_circuit,
    two_register_kickback_check,
)
from cvphase import (
    CvPhaseError,
    GridLayoutError,
    ParameterError,
    PiecewiseBinaryFunction,
    ProcedureParams,
    RegimeError,
    aligned_half_width,
    grid,
    phase_response,
    prob_x0,
)
from helpers import (
    BIG_P, DELTA, GRID_N, LARGEST_PHASE, canonical, cell_sums, fourier_matrix,
    phase_refusal, reference_phase_weights, refused_phases,
)


class TestGridState:
    def test_rejects_unknown_space_tag(self):
        with pytest.raises(GridLayoutError):
            GridState(np.ones(8), grid_start=0.0, grid_step=0.1, space="spin")

    def test_rejects_degenerate_grids(self):
        with pytest.raises(GridLayoutError):
            GridState(np.ones(8), grid_start=0.0, grid_step=0.0, space=POSITION)
        with pytest.raises(GridLayoutError):
            GridState(np.ones((2, 4)), grid_start=0.0, grid_step=0.1, space=POSITION)
        # an infinite step made norm_sq() infinite instead of failing here
        for step in (math.inf, math.nan):
            with pytest.raises(GridLayoutError, match="^bad grid: start=0.0, step="):
                GridState(np.ones(4), grid_start=0.0, grid_step=step, space=POSITION)

    def test_replace_is_checked_as_construction(self):
        s = GridState(np.ones(4), grid_start=-1, grid_step=0.5, space=POSITION)
        assert s.amplitudes.dtype == complex and s.grid_start == -1
        moved = s._replace(amplitudes=[1, 2])
        assert moved.amplitudes.dtype == complex and moved[1:] == s[1:]
        with pytest.raises(GridLayoutError):
            s._replace(space="spin")
        with pytest.raises(GridLayoutError):
            s._replace(amplitudes=[1.0])

    @pytest.mark.parametrize(
        "start, step",
        [
            (Decimal("-0.4"), Decimal("0.1")),
            (Fraction(-2, 5), Fraction(1, 10)),
            (np.float32(-0.4), np.float32(0.1)),
        ],
        ids=["decimal", "fraction", "float32"],
    )
    def test_stores_the_floats_it_checked(self, start, step):
        # a Decimal step made norm_sq() raise a TypeError, and a float32 one
        # made fourier's conjugate step a float32
        s = GridState(np.ones(8), grid_start=start, grid_step=step, space=POSITION)
        assert type(s.grid_start) is float and type(s.grid_step) is float
        assert s.grid_start == float(start) and s.grid_step == float(step)
        assert s.norm_sq() == 8.0 * float(step)
        assert type(s._replace(amplitudes=np.ones(4)).grid_step) is float
        assert type(fourier(s).grid_step) is float

    def test_points_layout(self):
        s = GridState(np.ones(4), grid_start=-1.0, grid_step=0.5, space=POSITION)
        assert np.allclose(s.points, [-1.0, -0.5, 0.0, 0.5])
        assert s.n == 4


class TestAlignedHalfWidth:
    def test_value_and_alignment(self):
        t = aligned_half_width(BIG_P, GRID_N)
        assert t == pytest.approx(4.0 * math.pi * 32 / BIG_P, rel=1e-15)
        # conjugate cell size divides P/8 exactly by construction
        dy = math.pi / (2.0 * t)
        assert (BIG_P / 8.0) / dy == pytest.approx(32.0, rel=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(GridLayoutError):
            aligned_half_width(BIG_P, 256, cells_per_eighth=32)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ParameterError):
            aligned_half_width(-1.0, GRID_N)
        with pytest.raises(GridLayoutError):
            aligned_half_width(BIG_P, 1000)

    @pytest.mark.parametrize("big_p", [math.nan, math.inf, 0.0, -1.0, 1e200])
    def test_bad_big_p_is_named(self, big_p):
        # T = 4*pi*q/P: a bad P must not pass on as a bad, or silent, T
        with pytest.raises(ParameterError, match="^big_p must be") as info:
            aligned_half_width(big_p, GRID_N)
        assert "cells_per_eighth" not in str(info.value)

    def test_bad_cells_per_eighth_is_named(self):
        with pytest.raises(ParameterError, match="^cells_per_eighth must be >= 1, got 0$"):
            aligned_half_width(BIG_P, GRID_N, cells_per_eighth=0)

    @pytest.mark.parametrize(
        "n, q, message",
        [
            (4096.7, 32, "grid size must be an integer, got 4096.7"),
            (4096.0, 32, "grid size must be an integer, got 4096.0"),
            # T = 4*pi*32.7/P would put no multiple of P/8 on a cell edge
            (GRID_N, 32.7, "cells_per_eighth must be an integer, got 32.7"),
            (GRID_N, "32", "cells_per_eighth must be an integer, got '32'"),
        ],
    )
    def test_non_integer_sizes_refused(self, n, q, message):
        with pytest.raises(ParameterError) as info:
            aligned_half_width(BIG_P, n, cells_per_eighth=q)
        assert str(info.value) == message

    def test_numpy_integer_sizes_accepted(self):
        t = aligned_half_width(BIG_P, np.int64(GRID_N), cells_per_eighth=np.int32(32))
        assert t == aligned_half_width(BIG_P, GRID_N)


class TestPrepareGaussian:
    def test_normalized(self):
        s = prepare_gaussian(canonical(), GRID_N)
        assert s.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_even_about_origin(self):
        amps = prepare_gaussian(canonical(), GRID_N).amplitudes
        assert np.array_equal(amps[1:], amps[1:][::-1])

    def test_position_variance(self):
        s = prepare_gaussian(canonical(), GRID_N)
        var = float(np.sum(s.points**2 * np.abs(s.amplitudes) ** 2) * s.grid_step)
        assert var == pytest.approx(DELTA**2 / 2.0, rel=1e-3)

    @pytest.mark.parametrize("n", [1000, 128])
    def test_grid_size_rejected(self, n):
        with pytest.raises(GridLayoutError):
            prepare_gaussian(canonical(), n)

    @pytest.mark.parametrize(
        "run",
        [
            prepare_gaussian,
            phase_response,
            lambda p, n: run_circuit(p, PiecewiseBinaryFunction.step(0.0, BIG_P), 0.3, n),
        ],
        ids=["prepare_gaussian", "phase_response", "run_circuit"],
    )
    @pytest.mark.parametrize("n", [4096.7, 4096.0, "4096"])
    def test_non_integer_grid_size_refused(self, run, n):
        # int() truncated 4096.7 to a 4096-point grid
        with pytest.raises(ParameterError) as info:
            run(canonical(), n)
        assert str(info.value) == f"grid size must be an integer, got {n!r}"

    def test_gaussian_between_samples_rejected(self):
        # dx = 0.49 and every sample lies >= 240 widths from x0: all underflow
        p = ProcedureParams(x0=0.24, delta=0.001, big_t=1000.0, big_p=3.0)
        with pytest.raises(ParameterError, match="no support"):
            prepare_gaussian(p, 4096)


class TestFourier:
    def test_norm_preserved(self):
        s = fourier(prepare_gaussian(canonical(), GRID_N))
        assert s.space == MOMENTUM
        assert s.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_half_offset_layout(self):
        pos = prepare_gaussian(canonical(), GRID_N)
        mom = fourier(pos)
        dy = math.pi / (GRID_N * pos.grid_step)
        assert mom.grid_step == pytest.approx(dy, rel=1e-15)
        assert mom.grid_start == pytest.approx((-GRID_N / 2 + 0.5) * dy, rel=1e-15)
        assert float(np.min(np.abs(mom.points))) == pytest.approx(dy / 2, rel=1e-12)

    def test_conjugate_variance(self):
        mom = fourier(prepare_gaussian(canonical(), GRID_N))
        var = float(
            np.sum(mom.points**2 * np.abs(mom.amplitudes) ** 2) * mom.grid_step
        )
        assert var == pytest.approx(1.0 / (8.0 * DELTA**2), rel=1e-3)

    def test_conjugate_envelope_profile(self):
        # |transform of a width-delta Gaussian| falls as exp(-2 delta^2 y^2)
        mom = fourier(prepare_gaussian(canonical(), GRID_N))
        y = mom.points
        keep = np.abs(y) <= 2.0
        profile = np.exp(-2.0 * DELTA**2 * y[keep] ** 2)
        mags = np.abs(mom.amplitudes[keep])
        scale = mags[0] / profile[0]
        assert np.max(np.abs(mags - scale * profile)) <= 1e-9 * scale

    def test_shift_theorem(self):
        base = canonical()
        dx = 2.0 * base.big_t / GRID_N
        x0 = 16.0 * dx
        shifted = ProcedureParams(
            x0=x0, delta=base.delta, big_t=base.big_t, big_p=base.big_p
        )
        b0 = fourier(prepare_gaussian(base, GRID_N))
        b1 = fourier(prepare_gaussian(shifted, GRID_N))
        expected = np.exp(2j * x0 * b0.points) * b0.amplitudes
        assert np.max(np.abs(b1.amplitudes - expected)) <= 1e-10

    def test_wrong_space_rejected(self):
        pos = prepare_gaussian(canonical(), GRID_N)
        mom = fourier(pos)
        with pytest.raises(GridLayoutError):
            fourier(mom)
        with pytest.raises(GridLayoutError):
            inverse_fourier(pos)

    def test_non_half_offset_momentum_rejected(self):
        mom = fourier(prepare_gaussian(canonical(), GRID_N))
        integer_grid = GridState(
            mom.amplitudes, grid_start=-(mom.n // 2) * mom.grid_step,
            grid_step=mom.grid_step, space=MOMENTUM,
        )
        with pytest.raises(GridLayoutError):
            inverse_fourier(integer_grid)

    def test_non_centred_position_grid_rejected(self):
        pos = prepare_gaussian(canonical(), GRID_N)
        shifted = GridState(
            pos.amplitudes, grid_start=pos.grid_start + pos.grid_step,
            grid_step=pos.grid_step, space=POSITION,
        )
        with pytest.raises(GridLayoutError):
            fourier(shifted)

    def test_round_trip_random_state(self):
        rng = np.random.default_rng(7)
        n = 1024
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        dx = 0.05
        amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)) * dx)
        s = GridState(amps, grid_start=-n * dx / 2, grid_step=dx, space=POSITION)
        back = inverse_fourier(fourier(s))
        assert np.max(np.abs(back.amplitudes - s.amplitudes)) <= 1e-10
        assert back.grid_start == pytest.approx(s.grid_start, rel=1e-12)
        assert back.grid_step == pytest.approx(s.grid_step, rel=1e-12)


class TestFourierMatrix:
    @pytest.mark.parametrize("n", [256, 512])
    def test_unitary(self, n):
        p = ProcedureParams(
            x0=0.0, delta=DELTA, big_t=aligned_half_width(BIG_P, n, 16), big_p=BIG_P
        )
        s = prepare_gaussian(p, n)
        u = fourier_matrix(s)
        dev = np.max(np.abs(u.conj().T @ u - np.eye(n)))
        assert dev <= 1e-10

    def test_consistent_with_fft_route(self):
        n = 256
        p = ProcedureParams(
            x0=0.0, delta=DELTA, big_t=aligned_half_width(BIG_P, n, 16), big_p=BIG_P
        )
        s = prepare_gaussian(p, n)
        mom = fourier(s)
        u = fourier_matrix(s)
        lhs = math.sqrt(mom.grid_step) * mom.amplitudes
        rhs = u @ (math.sqrt(s.grid_step) * s.amplitudes)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_requires_position_space(self):
        mom = fourier(prepare_gaussian(canonical(), GRID_N))
        with pytest.raises(GridLayoutError):
            fourier_matrix(mom)


class TestApplyBlackbox:
    def test_norm_preserved(self):
        mom = fourier(prepare_gaussian(canonical(), GRID_N))
        f = PiecewiseBinaryFunction.step(0.4, BIG_P)
        out = apply_blackbox(mom, f, 1.1)
        assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_constant_zero_mask_is_identity(self):
        mom = fourier(prepare_gaussian(canonical(), GRID_N))
        f = PiecewiseBinaryFunction(breakpoints=(), values=(0,), half_domain=BIG_P)
        out = apply_blackbox(mom, f, 2.3)
        assert np.array_equal(out.amplitudes, mom.amplitudes)

    def test_requires_momentum_space(self):
        pos = prepare_gaussian(canonical(), GRID_N)
        f = PiecewiseBinaryFunction.step(0.0, BIG_P)
        with pytest.raises(GridLayoutError):
            apply_blackbox(pos, f, 0.5)

    @pytest.mark.parametrize(
        "n, big_t", [(256, 3.5), (4096, aligned_half_width(BIG_P, 4096))]
    )
    def test_phases_the_per_cell_mask(self, n, big_t):
        # the copy takes exp(-2i*phi) on each run of ones: the input itself
        # on the f = 0 cells, and on the runs the per-cell product to 2 ulps
        # of the amplitude's modulus in each part (a part may cancel, so its
        # own ulp can be far finer than the product's rounding)
        p = ProcedureParams(x0=0.37, delta=DELTA, big_t=big_t, big_p=BIG_P)
        mom = fourier(prepare_gaussian(p, n))
        for f in TestMaskCells.masks(mom.grid_step):
            cells = _per_cell_mask(n, mom.grid_start, mom.grid_step, f)
            ones = cells == 1.0
            for phi in (0.0, -0.0, 0.3, -1.1, math.pi / 2, 3.9):
                got = apply_blackbox(mom, f, phi).amplitudes
                want = mom.amplitudes * np.exp(-2j * phi * cells)
                assert np.array_equal(got[~ones], mom.amplitudes[~ones]), (f, phi)
                ulp = np.spacing(np.abs(want[ones]))
                for part in (np.real, np.imag):
                    dev = np.abs(part(got[ones]) - part(want[ones]))
                    assert np.all(dev <= 2.0 * ulp), (f, phi)

    def test_mask_stage_holds_one_copy(self):
        # numpy reports its buffers to tracemalloc: the stage copies the
        # 2^16 amplitudes once (16*N bytes) and phases the runs in place,
        # with no N-point axis, mask or factor array
        n = 2**16
        p = ProcedureParams(0.0, DELTA, aligned_half_width(BIG_P, n, n // 128), BIG_P)
        mom = fourier(prepare_gaussian(p, n))
        f = PiecewiseBinaryFunction.hat(-BIG_P / 2, BIG_P / 4, BIG_P)
        apply_blackbox(mom, f, 0.7)  # numpy's lazy set-up is not the stage's
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = apply_blackbox(mom, f, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.amplitudes.nbytes == 16 * n
        assert peak - base <= 1.25 * 16 * n

    def test_uncovered_mask_domain_rejected(self):
        # at n=256 the conjugate span of the canonical layout is only [-P/2, P/2)
        f = PiecewiseBinaryFunction.step(0.0, BIG_P)
        with pytest.raises(GridLayoutError):
            run_circuit(canonical(), f, 0.5, 256)


class TestMeasurePovm:
    def test_matched_state_gives_unity(self):
        # window width equals state width by default: perfect overlap
        p = canonical()
        s = prepare_gaussian(p, GRID_N)
        assert measure_povm(s, p).p_x0 == pytest.approx(1.0, abs=1e-12)

    def test_distant_window_is_dark(self):
        p = canonical()
        far = ProcedureParams(
            x0=20.0 * DELTA, delta=p.delta, big_t=p.big_t, big_p=p.big_p
        )
        s = prepare_gaussian(p, GRID_N)
        assert measure_povm(s, far).p_x0 <= 1e-10

    @pytest.mark.parametrize("x0", [0.0, 0.37, -4.1])
    def test_window_is_the_prepared_state(self, x0):
        # one rule evaluates and normalizes the Gaussian: on the prepared
        # state's own samples the window is that state, zero for zero, and
        # to rounding elsewhere (its norm sums the whole grid, the state's
        # only the support)
        p = ProcedureParams(x0=x0, delta=DELTA, big_t=canonical().big_t, big_p=BIG_P)
        s = prepare_gaussian(p, GRID_N)
        window = grid._gaussian(s.points, s.grid_step, p, "detection window")
        assert np.array_equal(window == 0.0, s.amplitudes == 0.0)
        assert np.allclose(window, s.amplitudes.real, rtol=1e-15, atol=0.0)
        assert measure_povm(s, p).p_x0 == pytest.approx(1.0, abs=1e-15)

    def test_unsupported_window_rejected(self):
        p = canonical()
        s = prepare_gaussian(p, GRID_N)
        # a window this narrow between two samples underflows on every one
        off_grid = ProcedureParams(
            x0=s.grid_step / 2.0, delta=1e-8, big_t=p.big_t, big_p=p.big_p
        )
        with pytest.raises(ParameterError, match="no support"):
            measure_povm(s, off_grid)

    def test_requires_position_space(self):
        p = canonical()
        mom = fourier(prepare_gaussian(p, GRID_N))
        with pytest.raises(GridLayoutError):
            measure_povm(mom, p)


class TestRunCircuit:
    def test_matches_closed_form(self):
        p = canonical()
        for r in (0.0, BIG_P / 4, BIG_P):
            f = PiecewiseBinaryFunction.step(r, BIG_P)
            for phi in (0.0, math.pi / 4, math.pi / 2, 2.2):
                got = run_circuit(p, f, phi, GRID_N).p_x0
                assert got == pytest.approx(prob_x0(p, r, phi).p_x0, abs=1e-4)

    def test_balanced_floor(self):
        # the analytic value is 0; the grid leaves only the squared overlap of
        # the conjugate tail beyond [-P, P], which the mask cannot phase
        p = canonical()
        f = PiecewiseBinaryFunction.step(0.0, BIG_P)
        got = run_circuit(p, f, math.pi / 2, GRID_N).p_x0
        assert got <= 1e-9

    def test_resolution_doubling_is_converged(self):
        p = canonical()
        f = PiecewiseBinaryFunction.step(BIG_P / 4, BIG_P)
        a = run_circuit(p, f, 0.7, 4096).p_x0
        b = run_circuit(p, f, 0.7, 8192).p_x0
        assert abs(a - b) <= 1e-6

    def test_stagewise_norms(self):
        p = canonical()
        f = PiecewiseBinaryFunction.step(BIG_P / 8, BIG_P)
        state = prepare_gaussian(p, GRID_N)
        for stage in (fourier, lambda s: apply_blackbox(s, f, 1.3), inverse_fourier):
            state = stage(state)
            assert abs(state.norm_sq() - 1.0) <= 1e-10

    def test_mask_domain_mismatch_rejected(self):
        p = canonical()
        f = PiecewiseBinaryFunction.step(0.0, BIG_P / 2)
        with pytest.raises(ParameterError):
            run_circuit(p, f, 0.5, GRID_N)


# each grid route that takes a phase, called on a 512-point phase response
# and the balanced step mask
_PHASE_TAKERS = {
    "p_x0s": lambda response, f, phase: response.p_x0s([f], [0.3, phase]),
    "fishers": lambda response, f, phase: response.fishers([f], [0.3, phase]),
    "apply_blackbox": lambda response, f, phase: apply_blackbox(
        fourier(prepare_gaussian(response.params, response.n)), f, phase
    ),
    "run_circuit": lambda response, f, phase: run_circuit(
        response.params, f, phase, response.n
    ),
}
_REFUSED_PHASES = refused_phases()


class TestPhaseGate:
    """The grid refuses a phase that is not a real number with a finite
    double, before any array is built: fishers returned nan at NaN and
    raised a bare ValueError at inf, every route but fishers raised one at
    1e308, and run_circuit ran the whole circuit before blaming p_x0."""

    @pytest.fixture(scope="class")
    def response(self):
        return phase_response(canonical(), 512)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "phase", list(_REFUSED_PHASES.values()), ids=list(_REFUSED_PHASES)
    )
    @pytest.mark.parametrize("sweep", list(_PHASE_TAKERS))
    def test_sweeps_refuse_a_non_finite_phase(self, response, sweep, phase):
        f = PiecewiseBinaryFunction.step(0.0, BIG_P)
        with pytest.raises(ParameterError) as info:
            _PHASE_TAKERS[sweep](response, f, phase)
        assert str(info.value) == phase_refusal(phase)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sweep", list(_PHASE_TAKERS))
    def test_largest_phase_taken(self, response, sweep):
        f = PiecewiseBinaryFunction.step(0.0, BIG_P)
        for phase in (LARGEST_PHASE, -LARGEST_PHASE):
            _PHASE_TAKERS[sweep](response, f, phase)

    @pytest.mark.parametrize("phase", ["0.3", None, 0.3 + 1j])
    @pytest.mark.parametrize("sweep", ["p_x0s", "fishers"])
    def test_sweeps_refuse_a_phase_that_is_not_a_real_number(
        self, response, sweep, phase
    ):
        f = PiecewiseBinaryFunction.step(0.0, BIG_P)
        with pytest.raises(ParameterError) as info:
            getattr(response, sweep)([f], [phase])
        assert str(info.value) == f"phase must be a real number, got {phase!r}"

    def test_sweeps_read_an_axis_once(self, response):
        masks = [PiecewiseBinaryFunction.step(r, BIG_P) for r in (0.3, -0.5)]
        phis = (0.1, 0.7, 1.2)
        for sweep in (response.p_x0s, response.fishers):
            assert sweep(iter(masks), iter(phis)) == sweep(masks, phis)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("phase", [math.nan, math.inf, "0.3"])
    def test_circuit_refuses_before_building_a_state(self, monkeypatch, phase):
        def no_state(*args):
            raise AssertionError("built a state for a refused phase")

        monkeypatch.setattr(circuit_oracle, "prepare_gaussian", no_state)
        f = PiecewiseBinaryFunction.step(0.0, BIG_P)
        with pytest.raises(ParameterError, match="^phase must be"):
            run_circuit(canonical(), f, phase, GRID_N)


class TestPhaseResponse:
    """The phase-linear split A0 + exp(-2i*phi)*A1 against the full circuit."""

    # dy = P/64 puts the P/8 multiples on cell edges and covers [-P, P] from n = 256
    T = aligned_half_width(BIG_P, 256, cells_per_eighth=8)
    MASKS = {
        "step": PiecewiseBinaryFunction.step(BIG_P / 8, BIG_P),
        "hat": PiecewiseBinaryFunction.hat(-BIG_P / 2, BIG_P / 4, BIG_P),
        "constant": PiecewiseBinaryFunction((), (1,), BIG_P),
    }
    # peak RSS rise of a 2^20 sweep and split whose support spans the grid,
    # in units of N bytes: 72.4 measured (Python 3.11, numpy 2.4.6, Linux)
    RSS_FULL_N = 80

    # 2^19 points: the CLI's default T there, a support clipped at one grid
    # end, and a support that spans the whole grid (L = N, so the lag sums
    # run over N - 1 lags and the autocorrelation over 2N points)
    SPLIT_CASES = [
        (2**19, 0.0, aligned_half_width(BIG_P, 2**19)),
        (2**19, T - 4.3 * DELTA, T),
        (2**19, 0.37, 3.5),
    ]

    @pytest.mark.parametrize(
        "n, x0, big_t",
        [
            pytest.param(n, x0, big_t, id=str(n))
            for n, x0, big_t in itertools.product((256, 4096, 2**14), (0.37,), (T,))
        ]
        + SPLIT_CASES,
    )
    @pytest.mark.parametrize("mask", sorted(MASKS))
    def test_probability_matches_circuit(self, n, x0, big_t, mask):
        p = ProcedureParams(x0=x0, delta=DELTA, big_t=big_t, big_p=BIG_P)
        f = self.MASKS[mask]
        a0, a1 = phase_response(p, n).split(f)
        for phi in (0.0, 0.3, math.pi / 2, 2.2, math.pi):
            got = abs(a0 + cmath.exp(-2j * phi) * a1) ** 2
            assert got == pytest.approx(run_circuit(p, f, phi, n).p_x0, abs=1e-14)

    SWEEP_CASES = list(itertools.product((256, 4096, 2**14), (0.0, 0.37), (T,))) + [
        # the support spans the whole grid
        (256, 0.0, 3.5),
        (256, 0.37, 3.5),
        # the support is clipped at one grid end
        (4096, T - 4.3 * DELTA, T),
        (4096, -(T - 4.3 * DELTA), T),
    ]

    @pytest.mark.parametrize("n, x0, big_t", SWEEP_CASES + SPLIT_CASES)
    def test_weights_are_the_transformed_state(self, n, x0, big_t):
        # every prefix sum P(k) in closed form over the lags is the sum of
        # the transformed state's first k cell weights, to rounding
        p = ProcedureParams(x0=x0, delta=DELTA, big_t=big_t, big_p=BIG_P)
        response = phase_response(p, n)
        moved = fourier(prepare_gaussian(p, n))
        assert (response.n, response.grid_start, response.grid_step) == (
            n, moved.grid_start, moved.grid_step
        )
        weights = np.abs(moved.amplitudes) ** 2 * moved.grid_step
        # the grid ends, the centre and 24 cells in between
        ends = [0, 1, n // 4, n // 2 - 1, n // 2, n // 2 + 1, n - 1, n]
        between = np.random.default_rng(n).integers(0, n + 1, size=24).tolist()
        ks = sorted({*ends, *between})
        got = response._prefix_sums(ks)
        assert float(np.max(np.abs(got - cell_sums(weights, ks)))) <= 2e-15

    # 2^18 points, at the CLI's T and with a support spanning the grid
    @pytest.mark.parametrize(
        "n, x0, big_t", SWEEP_CASES + [(2**18, 0.37, T), (2**18, 0.0, 3.5)]
    )
    def test_weights_match_the_reference_sweep_bit_for_bit(self, n, x0, big_t):
        # the sweep sums exactly the cells that the per-cell rule over the
        # whole axis sets to 1, and its (A0, A1) are those cells' weight sums
        p = ProcedureParams(x0=x0, delta=DELTA, big_t=big_t, big_p=BIG_P)
        response = phase_response(p, n)
        weights = reference_phase_weights(p, n)
        ys, dy = response.grid_start, response.grid_step
        for f in self.MASKS.values():
            cells = _per_cell_mask(n, ys, dy, f)
            assert grid._runs_of_ones(n, ys, dy, f) == _runs(cells), f
            ones = cells == 1.0
            want = (float(np.sum(weights[~ones])), float(np.sum(weights[ones])))
            assert np.max(np.abs(np.subtract(response.split(f), want))) <= 2e-15, f

    @pytest.mark.parametrize("n, x0, big_t", SWEEP_CASES)
    def test_support_gaussian_is_normalized(self, n, x0, big_t):
        # the sweep's only norm check: it builds no GridState to call norm_sq on
        p = ProcedureParams(x0=x0, delta=DELTA, big_t=big_t, big_p=BIG_P)
        lo, hi, dx, gauss = grid._support_gaussian(p, n)
        assert gauss.size == hi - lo and dx == 2.0 * big_t / n
        assert abs(float(np.sum(gauss * gauss)) * dx - 1.0) <= 1e-12

    def test_sweep_allocates_only_what_it_reads(self):
        # numpy reports its buffers to tracemalloc.  At the CLI's T the
        # support is 613 samples at every N, so a 2^20 sweep allocates its
        # 2048-point transform pair and the 612 lag weights, and keeps only
        # those; any N-point float64 array would read 8 MB.  pocketfft's
        # scratch is C++ memory that tracemalloc does not see: the next test
        # takes it from the process's peak RSS.
        n = 2**20
        p = ProcedureParams(0.0, DELTA, aligned_half_width(BIG_P, n, n // 128), BIG_P)
        f = PiecewiseBinaryFunction.step(BIG_P / 4, BIG_P)
        phase_response(p, n).split(f)  # numpy's lazy set-up is not the sweep's
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            response = phase_response(p, n)
            response.split(f)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert response.lag_weights.nbytes == 8 * 612
        assert peak - base < 1 << 20
        assert held - base < 16 * 1024

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads VmHWM (Linux)"
    )
    def test_sweep_peak_rss_includes_the_fft_scratch(self):
        # a fresh interpreter, with np.fft loaded, takes the rise of its peak
        # RSS over 2^20 sweeps.  At the CLI's T the support is 613 samples
        # and the rise of one mask's split is below N bytes.  With --big-t
        # 3.5 the support spans the grid (L = N): the 2N-point transform
        # pair, with pocketfft's scratch, and the N-lag sums of a split raise
        # it by up to RSS_FULL_N * N bytes, and a sweep over 9 thresholds,
        # in its own interpreter, by no more: its 10 distinct cuts are
        # summed two at a time.  It reads VmHWM, its own address space's
        # peak: ru_maxrss also holds the peak of the process it was started
        # from, here the test runner's.
        n = 2**20
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from cvphase import PiecewiseBinaryFunction, ProcedureParams, phase_response\n"
            "from cvphase import aligned_half_width\n"
            "from helpers import BIG_P, DELTA\n"
            "def peak():\n"
            "    with open('/proc/self/status') as status:\n"
            "        kib = [line.split()[1] for line in status if line.startswith('VmHWM:')]\n"
            "    return int(kib[0]) * 1024\n"
            "f = PiecewiseBinaryFunction.step(BIG_P / 4, BIG_P)\n"
            "nine = [PiecewiseBinaryFunction.step(k * 0.25, BIG_P) for k in range(9)]\n"
            "np.fft.irfft(np.fft.rfft(np.zeros(8)))\n"
            f"cases = {{'split': [(aligned_half_width(BIG_P, {n}, {n // 128}), [f]),\n"
            "                   (3.5, [f])],\n"
            "         'sweep': [(3.5, nine)]}[sys.argv[1]]\n"
            "for big_t, masks in cases:\n"
            "    before = peak()\n"
            f"    response = phase_response(ProcedureParams(0.0, DELTA, big_t, BIG_P), {n})\n"
            "    response.fishers(masks, (0.7,))\n"
            "    print(peak() - before)\n"
        )
        src = os.path.dirname(os.path.dirname(grid.__file__))
        here = os.path.dirname(os.path.abspath(__file__))
        rises = []
        for cases in ("split", "sweep"):
            proc = subprocess.run(
                [sys.executable, "-c", script, cases], capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": os.pathsep.join((src, here))},
            )
            assert proc.returncode == 0, proc.stderr
            rises += map(int, proc.stdout.split())
        default, full, nine = rises
        assert default <= n
        assert full <= self.RSS_FULL_N * n
        assert nine <= self.RSS_FULL_N * n

    @pytest.mark.parametrize(
        "params, n, error, match",
        [
            (dict(x0=0.0, delta=1.0, big_t=2.0, big_p=3.0), 1000,
             RegimeError, "containment"),
            (dict(x0=0.24, delta=0.001, big_t=1000.0, big_p=3.0), 1000,
             GridLayoutError, "power of two"),
            (dict(x0=0.24, delta=0.001, big_t=1000.0, big_p=3.0), 256,
             ParameterError, "no support"),
            (dict(x0=0.0, delta=DELTA, big_t=aligned_half_width(BIG_P, GRID_N),
                  big_p=BIG_P), 256, GridLayoutError, "does not cover"),
        ],
        ids=["containment", "grid-size", "empty-support", "cover"],
    )
    def test_checks_run_in_order(self, params, n, error, match):
        # each input but the last also fails the next check: the earlier wins
        with pytest.raises(error, match=match):
            phase_response(ProcedureParams(**params), n)

    @pytest.mark.parametrize(
        "n, x0, big_t",
        [(256, 0.0, 3.5), (4096, 0.37, T), (4096, T - 4.3 * DELTA, T),
         (2**18, 0.37, T)],
    )
    def test_state_is_evaluated_on_its_support_only(self, n, x0, big_t):
        p = ProcedureParams(x0=x0, delta=DELTA, big_t=big_t, big_p=BIG_P)
        lo, hi = grid._support(p, n)
        dx = 2.0 * big_t / n
        full = np.exp(-((-big_t + dx * np.arange(n) - x0) ** 2) / (2.0 * DELTA**2))
        assert not full[:lo].any() and not full[hi:].any()
        amps = prepare_gaussian(p, n).amplitudes
        assert not amps[:lo].any() and not amps[hi:].any()
        assert not amps.imag.any()
        scale = 1.0 / math.sqrt(float(np.sum(full[lo:hi] ** 2)) * dx)
        assert np.array_equal(amps.real[lo:hi], full[lo:hi] * scale)

    @pytest.mark.parametrize("x0", [0.0, 0.37])
    @pytest.mark.parametrize("n", [256, 4096, 2**18])
    def test_weights_are_a_probability_distribution(self, x0, n):
        # n = 256 needs the finer layout to cover [-P, P]
        big_t = self.T if n == 256 else aligned_half_width(BIG_P, n)
        p = ProcedureParams(x0=x0, delta=DELTA, big_t=big_t, big_p=BIG_P)
        response = phase_response(p, n)
        assert abs(n * response.mean_weight - 1.0) <= 1e-14
        # each cell weight P(k + 1) - P(k) is non-negative, to rounding: all
        # of them up to 4096 cells, and the centre and both ends above
        ks = list(range(n + 1)) if n <= 4096 else [
            *range(64), *range(n // 2 - 64, n // 2 + 64), *range(n - 63, n + 1)
        ]
        sums = response._prefix_sums(ks)
        assert sums.dtype == np.float64
        assert abs(sums[0]) <= 1e-15 and abs(sums[-1] - 1.0) <= 1e-14
        steps = np.diff(sums)[np.diff(ks) == 1]
        assert steps.min() >= -1e-15

    @pytest.mark.parametrize("r", [0.0, BIG_P / 4])
    def test_exact_derivative_matches_circuit_difference(self, r):
        p = canonical()
        f = PiecewiseBinaryFunction.step(r, BIG_P)
        a0, a1 = phase_response(p, GRID_N).split(f)
        h = 1e-5
        for phi in (0.7, 1.2, 2.0):  # cos(2*phi) <= 2/3: rows the CLI compares
            exact = 4.0 * (cmath.exp(-2j * phi) * a0.conjugate() * a1).imag
            diff = (
                run_circuit(p, f, phi + h, GRID_N).p_x0
                - run_circuit(p, f, phi - h, GRID_N).p_x0
            ) / (2.0 * h)
            # truncation h^2 * |p'''| / 6 <= 7e-11 (|p'''| <= 4), rounding ~ 1e-16 / h
            assert exact == pytest.approx(diff, abs=1e-9)

    @pytest.mark.parametrize("mask", sorted(MASKS))
    def test_sweep_columns_match_the_circuit(self, mask):
        p = ProcedureParams(x0=0.37, delta=DELTA, big_t=self.T, big_p=BIG_P)
        f = self.MASKS[mask]
        response = phase_response(p, 256)
        phis = (0.0, 0.3, 0.7, math.pi / 2, 2.0, math.pi)
        probs = response.p_x0s([f], phis)
        assert probs == pytest.approx(
            [run_circuit(p, f, phi, 256).p_x0 for phi in phis], abs=1e-14
        )
        # F = p'^2/(p(1 - p)) with p' = 4*Im(exp(-2i*phi)*A0*A1), where
        # p(1 - p) is well away from 0
        a0, a1 = response.split(f)
        fishers = response.fishers([f], phis)
        assert len(fishers) == len(phis)
        for phi, prob, fisher in zip(phis, probs, fishers):
            if 1e-6 < prob < 1.0 - 1e-6:
                slope = 4.0 * (cmath.exp(-2j * phi) * a0 * a1).imag
                assert fisher == pytest.approx(
                    slope * slope / (prob * (1.0 - prob)), rel=1e-9
                )
        assert response.p_x0s([f], ()) == response.fishers([f], ()) == []
        assert response.p_x0s((), phis) == response.fishers((), phis) == []

    # 2^18 points with a support spanning the grid: 262143 lags, so the
    # prefix sums run two cuts per block
    @pytest.mark.parametrize(
        "n, x0, big_t", [(256, 0.37, T), (4096, 0.0, T), (2**18, 0.0, 3.5)]
    )
    def test_one_pass_splits_each_mask_as_alone(self, n, x0, big_t):
        # the masks of a sweep share their cuts' prefix sums, and each
        # mask's (A0, A1) and cells are the same doubles as its own sweep's
        p = ProcedureParams(x0=x0, delta=DELTA, big_t=big_t, big_p=BIG_P)
        response = phase_response(p, n)
        masks = [*self.MASKS.values()] + [
            PiecewiseBinaryFunction.step(k * BIG_P / 8, BIG_P) for k in range(-8, 9, 3)
        ]
        assert response._splits(masks) == [response.split(f) for f in masks]
        phis = (0.0, 0.3, math.pi / 2, 2.0)
        for sweep in (response.p_x0s, response.fishers):
            assert sweep(masks, phis) == [
                cell for f in masks for cell in sweep([f], phis)
            ]
        runs = [grid._runs_of_ones(n, response.grid_start, response.grid_step, f)
                for f in masks]
        ks = sorted({k for edges in runs for k in edges})
        together = response._prefix_sums(ks).tolist()
        assert together == [response._prefix_sums([k])[0] for k in ks]

    def test_sweep_probabilities_are_checked(self, monkeypatch):
        response = phase_response(canonical(), GRID_N)
        # A0 + A1 = 3/2 belongs to no normalized state: p(0) = 9/4
        monkeypatch.setattr(
            grid.PhaseResponse, "_splits", lambda self, masks: [(1.0, 0.5) for _ in masks]
        )
        with pytest.raises(ParameterError, match=r"^p_x0 must lie in \[0, 1\], got 2.25$"):
            response.p_x0s([PiecewiseBinaryFunction.step(0.0, BIG_P)], (0.0, 0.3))

    def test_matched_weights_are_the_closed_form_transform(self):
        # x0 = 0 and a matched window: w_k = |b(y_k)|^2 * dy with
        # |b(y)|^2 = (2*delta/sqrt(pi)) * exp(-4*delta^2*y^2); at this N both
        # truncations are far below rounding, so only the arithmetic remains.
        # Every prefix sum of the sweep is that of the closed-form cells.
        response = phase_response(canonical(), GRID_N)
        y = response.grid_start + response.grid_step * np.arange(GRID_N)
        closed = (
            (2.0 * DELTA / math.sqrt(math.pi))
            * np.exp(-4.0 * DELTA**2 * y**2)
            * response.grid_step
        )
        ks = list(range(GRID_N + 1))
        got = response._prefix_sums(ks)
        assert float(np.max(np.abs(got - cell_sums(closed, ks)))) <= 1e-14

    @pytest.mark.parametrize(
        "n, f, error",
        [
            # the canonical layout at n = 256 spans only [-P/2, P/2)
            (256, PiecewiseBinaryFunction.step(0.0, BIG_P), GridLayoutError),
            (1000, PiecewiseBinaryFunction.step(0.0, BIG_P), GridLayoutError),
            (GRID_N, PiecewiseBinaryFunction.step(0.0, BIG_P / 2), ParameterError),
        ],
        ids=["uncovered-domain", "not-a-power-of-two", "mask-domain-mismatch"],
    )
    def test_rejects_what_the_circuit_rejects(self, n, f, error):
        p = canonical()
        with pytest.raises(error):
            run_circuit(p, f, 0.5, n)
        with pytest.raises(error):
            phase_response(p, n).split(f)


def _runs(cells):
    """start, stop, start, stop, ... of the runs of ones of a 0/1 cell array."""
    steps = np.diff(np.concatenate(([0.0], cells, [0.0])))
    return np.flatnonzero(steps).tolist()


def _per_cell_mask(n, y_start, dy, f):
    """The mask's cells the plain way, one comparison and one breakpoint
    search per cell: the oracle the runs of ``grid._runs_of_ones``, which
    both ``apply_blackbox`` and the sweep read, must match cell for cell."""
    y = y_start + dy * np.arange(n)
    slack = grid._DOMAIN_SLACK * max(1.0, f.half_domain)
    inside = np.abs(y) <= f.half_domain + slack
    fvals = np.zeros(n)
    if f.breakpoints:
        idx = np.searchsorted(np.asarray(f.breakpoints), y[inside], side="left")
        fvals[inside] = np.asarray(f.values, dtype=float)[idx]
    else:
        fvals[inside] = float(f.values[0])
    return fvals


class TestMaskCells:
    """Runs of cells between the mask's jumps, against the per-cell rule."""

    @staticmethod
    def jumps(dy):
        # 0 and -0, +-P, the multiples of P/8, and for a cell edge and a
        # sample near 0.3: the point itself and one ulp either side
        jumps = {0.0, -0.0, BIG_P, -BIG_P, *(k * BIG_P / 8 for k in range(-7, 8))}
        for at in (round(0.3 / dy) * dy, (round(0.3 / dy) + 0.5) * dy):
            jumps |= {at, math.nextafter(at, math.inf), math.nextafter(at, -math.inf)}
        return sorted(jumps)

    @classmethod
    def masks(cls, dy):
        jumps = cls.jumps(dy)
        masks = [PiecewiseBinaryFunction.step(r, BIG_P) for r in jumps]
        masks += [
            PiecewiseBinaryFunction.hat(r1, r2, BIG_P)
            for r1, r2 in itertools.combinations(jumps[::3], 2)
        ]
        return masks + [PiecewiseBinaryFunction((), (v,), BIG_P) for v in (0, 1)]

    @pytest.mark.parametrize("n", [256, 512, 4096, 2**13, 2**18, 2**20])
    def test_cells_and_split_match_the_per_cell_rule(self, n):
        # the CLI's default T at n points, or --big-t 3.5 below its floor
        big_t = 3.5 if n == 256 else aligned_half_width(BIG_P, n, max(32, n // 128))
        p = ProcedureParams(x0=0.0, delta=DELTA, big_t=big_t, big_p=BIG_P)
        response = phase_response(p, n)
        weights = reference_phase_weights(p, n)
        ys, dy = response.grid_start, response.grid_step
        for f in self.masks(dy):
            want = _per_cell_mask(n, ys, dy, f)
            # the scalar cut search finds the per-cell rule's runs over the
            # whole axis, and the split sums those cells
            assert grid._runs_of_ones(n, ys, dy, f) == _runs(want), f
            ones = want == 1.0
            sums = (float(np.sum(weights[~ones])), float(np.sum(weights[ones])))
            assert np.max(np.abs(np.subtract(response.split(f), sums))) <= 2e-15, f

    def test_samples_on_the_domain_edges_are_inside(self):
        # the first and last samples are exactly -(P + slack) and P + slack,
        # which |y| <= P + slack still counts; every jump is a sample too
        edge = BIG_P + grid._DOMAIN_SLACK * BIG_P
        dy = edge / 16
        y = -edge + dy * np.arange(33)
        assert (y[0], y[-1]) == (-edge, edge)
        for f in (
            PiecewiseBinaryFunction((), (1,), BIG_P),
            PiecewiseBinaryFunction.step(float(y[10]), BIG_P),
            PiecewiseBinaryFunction.hat(float(y[3]), float(y[20]), BIG_P),
        ):
            want = _per_cell_mask(33, -edge, dy, f)
            assert want[0] == float(f.values[0]) and want[-1] == float(f.values[-1])
            # the scalar search counts a sample on a cut as <= it
            assert grid._runs_of_ones(33, -edge, dy, f) == _runs(want), f
        for cut in (*y, *np.nextafter(y, np.inf), *np.nextafter(y, -np.inf)):
            count = grid._cells_at_most(33, -edge, dy, float(cut))
            assert count == np.searchsorted(y, cut, side="right"), cut


class TestConvergence:
    def test_second_order_in_the_conjugate_cell_width(self):
        # T = aligned_half_width(P, 128*q, q) keeps dx near 0.093 while
        # dy = P/(8q) halves with q, and P and every r below stay on cell
        # edges; the cells strictly inside [-P, P] (the tail beyond is left
        # out, as the closed forms leave it out) then form a midpoint sum
        # whose error against the closed form falls as dy^2
        phi = 0.7
        thresholds = (0.0, BIG_P / 8, BIG_P / 4, BIG_P / 2)
        errors = []
        for q in (32, 64, 128, 256):
            n = 128 * q
            p = ProcedureParams(0.0, DELTA, aligned_half_width(BIG_P, n, q), BIG_P)
            response = phase_response(p, n)
            assert response.grid_step == pytest.approx(BIG_P / (8 * q), rel=1e-12)
            assert 2.0 * p.big_t / n == pytest.approx(0.0926, rel=1e-3)
            y = response.grid_start + response.grid_step * np.arange(n)
            # cells [first, stop) lie strictly inside [-P, P]; no y is on an edge
            first, stop = np.searchsorted(y, (-BIG_P, BIG_P))
            row = []
            for r in thresholds:
                below, at, above = response._prefix_sums(
                    [first, np.searchsorted(y, r), stop]
                )
                a0, a1 = at - below, above - at
                p_grid = abs(a0 + cmath.exp(-2j * phi) * a1) ** 2
                row.append(abs(p_grid - prob_x0(p, r, phi).p_x0))
            errors.append(row)
        # q = 32 (the default grid): 5.6e-9, 1.4e-6, 3.3e-6, 1.6e-6
        assert max(errors[0]) < 4e-6
        for coarse, fine in zip(errors, errors[1:]):
            for r, e_coarse, e_fine in zip(thresholds, coarse, fine):
                assert e_coarse >= 3.5 * e_fine, (r, e_coarse, e_fine)


class TestKickback:
    @pytest.mark.parametrize("r", [0.0, BIG_P / 2])
    @pytest.mark.parametrize("x_point", [-1.0, 0.5])
    # target grids of 64, 128 and 192 cells: 16, 32 and 48 cells per unit shift
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_exact_phase_kickback(self, r, x_point, size):
        f = PiecewiseBinaryFunction.step(r, BIG_P)
        check = two_register_kickback_check(x_point, f, 64 * size)
        assert check.phase_deviation <= 1e-10
        assert check.magnitude_deviation <= 1e-10

    def test_grid_must_resolve_unit_shift(self):
        f = PiecewiseBinaryFunction.step(0.0, BIG_P)
        with pytest.raises(GridLayoutError):
            two_register_kickback_check(0.5, f, 66)
        with pytest.raises(GridLayoutError):
            two_register_kickback_check(0.5, f, 4)

    @pytest.mark.parametrize("n_target", [2**24 + 4, 2**70])
    def test_target_size_capped_before_any_allocation(self, n_target, monkeypatch):
        # uncapped, 2**70 reaches numpy's bare ValueError "Maximum allowed
        # size exceeded", and 2**36 asks it for a 1 TiB array
        f = PiecewiseBinaryFunction.step(0.0, BIG_P)
        monkeypatch.setattr(circuit_oracle, "np", None)  # any array built fails otherwise
        with pytest.raises(GridLayoutError) as info:
            two_register_kickback_check(0.5, f, n_target)
        assert str(info.value) == (
            f"n_target must be a multiple of 4 in [8, {2**24}] so the unit shift "
            f"is an integer number of cells, got {n_target}"
        )

    @pytest.mark.parametrize("n_target", [8.9, 64.0, "64"])
    def test_non_integer_target_size_refused(self, n_target):
        # int() truncated 8.9 to an 8-cell target
        f = PiecewiseBinaryFunction.step(0.0, BIG_P)
        with pytest.raises(ParameterError) as info:
            two_register_kickback_check(0.5, f, n_target)
        assert str(info.value) == f"n_target must be an integer, got {n_target!r}"

    def test_numpy_integer_target_size_accepted(self):
        f = PiecewiseBinaryFunction.step(0.0, BIG_P)
        assert two_register_kickback_check(0.5, f, np.int64(64)) == (
            two_register_kickback_check(0.5, f, 64)
        )


class TestOracleContract:
    """The oracle's input contract, as ``test_package`` holds the package's:
    every stage accepts its valid arguments, and refuses a value it cannot
    use with a CvPhaseError, one argument at a time, the others valid."""

    BAD = [math.nan, math.inf, -math.inf, "0.5", True, 0.5 + 1j, np.complex128(0.5 + 1j)]

    @staticmethod
    def cases() -> dict:
        """name -> (callable, valid arguments): each call succeeds as it stands."""
        p, n = canonical(), 512
        f = PiecewiseBinaryFunction.step(0.0, BIG_P)
        position = prepare_gaussian(p, n)
        momentum = fourier(position)
        return {
            "GridState": (GridState, (
                position.amplitudes, position.grid_start, position.grid_step, POSITION,
            )),
            "prepare_gaussian": (prepare_gaussian, (p, n)),
            "fourier": (fourier, (position,)),
            "apply_blackbox": (apply_blackbox, (momentum, f, 0.4)),
            "inverse_fourier": (inverse_fourier, (momentum,)),
            "measure_povm": (measure_povm, (position, p)),
            "run_circuit": (run_circuit, (p, f, 0.4, n)),
            "two_register_kickback_check": (two_register_kickback_check, (0.3, f, 16)),
        }

    NAMES = [
        "GridState", "prepare_gaussian", "fourier", "apply_blackbox",
        "inverse_fourier", "measure_povm", "run_circuit",
        "two_register_kickback_check",
    ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", NAMES)
    def test_each_stage_accepts_its_valid_arguments(self, name):
        call, args = self.cases()[name]
        call(*args)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", NAMES)
    def test_each_stage_refuses_what_it_cannot_use(self, name):
        call, args = self.cases()[name]
        call(*args)
        for index in range(len(args)):
            for bad in self.BAD:
                with pytest.raises(CvPhaseError):
                    call(*args[:index], bad, *args[index + 1:])
