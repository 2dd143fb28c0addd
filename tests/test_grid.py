"""Discretized circuit: grid states, unitary transform, mask, detection."""

import cmath
import math

import numpy as np
import pytest

from cvphase import (
    GridLayoutError,
    GridState,
    MOMENTUM,
    POSITION,
    ParameterError,
    PiecewiseBinaryFunction,
    ProcedureParams,
    aligned_half_width,
    apply_blackbox,
    fourier,
    fourier_matrix,
    inverse_fourier,
    measure_povm,
    phase_response,
    prepare_gaussian,
    prob_x0,
    run_circuit,
    two_register_kickback_check,
)
from helpers import BIG_P, DELTA, GRID_N, canonical


class TestGridState:
    def test_rejects_unknown_space_tag(self):
        with pytest.raises(GridLayoutError):
            GridState(np.ones(8), grid_start=0.0, grid_step=0.1, space="spin")

    def test_rejects_degenerate_grids(self):
        with pytest.raises(GridLayoutError):
            GridState(np.ones(8), grid_start=0.0, grid_step=0.0, space=POSITION)
        with pytest.raises(GridLayoutError):
            GridState(np.ones((2, 4)), grid_start=0.0, grid_step=0.1, space=POSITION)

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

    def test_unsupported_window_rejected(self):
        p = canonical()
        s = prepare_gaussian(p, GRID_N)
        off_grid = ProcedureParams(
            x0=s.grid_step / 2.0, delta=p.delta, big_t=p.big_t, big_p=p.big_p,
            epsilon=1e-8,
        )
        with pytest.raises(ParameterError):
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


class TestPhaseResponse:
    """The phase-linear split A0 + exp(-2i*phi)*A1 against the full circuit."""

    # dy = P/64 puts the P/8 multiples on cell edges and covers [-P, P] from n = 256
    T = aligned_half_width(BIG_P, 256, cells_per_eighth=8)
    MASKS = {
        "step": PiecewiseBinaryFunction.step(BIG_P / 8, BIG_P),
        "hat": PiecewiseBinaryFunction.hat(-BIG_P / 2, BIG_P / 4, BIG_P),
        "constant": PiecewiseBinaryFunction((), (1,), BIG_P),
    }

    @pytest.mark.parametrize("n", [256, 4096, 2**14])
    @pytest.mark.parametrize("mask", sorted(MASKS))
    @pytest.mark.parametrize("epsilon", [None, 0.5])
    def test_probability_matches_circuit(self, n, mask, epsilon):
        p = ProcedureParams(
            x0=0.37, delta=DELTA, big_t=self.T, big_p=BIG_P, epsilon=epsilon
        )
        f = self.MASKS[mask]
        a0, a1 = phase_response(p, n).split(f)
        for phi in (0.0, 0.3, math.pi / 2, 2.2, math.pi):
            got = abs(a0 + cmath.exp(-2j * phi) * a1) ** 2
            assert got == pytest.approx(run_circuit(p, f, phi, n).p_x0, abs=1e-14)

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

    def test_matched_weights_are_the_closed_form_transform(self):
        # x0 = 0 and a matched window: w_k = |b(y_k)|^2 * dy with
        # |b(y)|^2 = (2*delta/sqrt(pi)) * exp(-4*delta^2*y^2); at this N both
        # truncations are far below rounding, so only the arithmetic remains
        response = phase_response(canonical(), GRID_N)
        y = response.grid_start + response.grid_step * np.arange(GRID_N)
        closed = (
            (2.0 * DELTA / math.sqrt(math.pi))
            * np.exp(-4.0 * DELTA**2 * y**2)
            * response.grid_step
        )
        assert float(np.sum(np.abs(response.weights - closed))) <= 1e-14

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


class TestKickback:
    @pytest.mark.parametrize("r", [0.0, BIG_P / 2])
    @pytest.mark.parametrize("x_point", [-1.0, 0.5])
    @pytest.mark.parametrize("repeats", [1, 2, 3])
    def test_exact_phase_kickback(self, r, x_point, repeats):
        f = PiecewiseBinaryFunction.step(r, BIG_P)
        check = two_register_kickback_check(x_point, f, 64, repeats)
        assert check.phase_deviation <= 1e-10
        assert check.magnitude_deviation <= 1e-10

    def test_grid_must_resolve_unit_shift(self):
        f = PiecewiseBinaryFunction.step(0.0, BIG_P)
        with pytest.raises(GridLayoutError):
            two_register_kickback_check(0.5, f, 66)
        with pytest.raises(GridLayoutError):
            two_register_kickback_check(0.5, f, 4)

    def test_repeats_validated(self):
        f = PiecewiseBinaryFunction.step(0.0, BIG_P)
        with pytest.raises(ParameterError):
            two_register_kickback_check(0.5, f, 64, repeats=0)
