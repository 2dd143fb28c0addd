"""Closed-form detection statistics, Fisher information, and precision."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvphase import (
    FisherReport,
    GeneratorMoments,
    ParameterError,
    PiecewiseBinaryFunction,
    ProcedureParams,
    RegimeError,
    SingularityError,
    cosine_model_coefficients,
    delta_phi,
    dj_statistics,
    fisher_phi,
    fisher_phis,
    fisher_rs,
    generator_moments,
    heisenberg_audit,
    mask_efficiency,
    model,
    prob_x0,
    prob_x0s,
    stats,
)
from erf_oracle import erf_series
from factorized_oracle import prob_x0_factorized
from helpers import (
    BIG_P, DELTA, LARGEST_PHASE, canonical, phase_refusal, refused_phases, saturated,
)

# frozen from the 60-digit series oracle (tests/erf_oracle.py)
E_CANON = 0.9999558194939929          # erf(3)^2
HALF_E = 0.49997790974699646          # erf(3)^2 / 2
FOUR_E = 3.9998232779759717           # 4 * erf(3)^2
MEAN_CANON = 0.4999889547515007       # erf(3) / 2
VAR_CANON = 0.24999999987800248       # mean * (1 - mean)
ONE_MINUS_E = 4.418050600711324e-05   # 1 - erf(3)^2
G_HALF = 0.9333591540460816           # erf(1.5)^2, threshold at P/2
FISHER_R_LIMIT = 10.185916357881302   # 32/pi = 64*delta^2/pi at delta=1/sqrt(2)
DPHI_QUARTER = 0.5000220907410043     # sqrt((E/2)(1-E/2))/E


def fisher_r(p, r, phi):
    """Fisher information about r at one phase: fisher_rs' one-phase read."""
    return fisher_rs(p, (r,), (phi,))[0]


class TestProbX0:
    def test_frozen_values(self):
        p = canonical()
        assert mask_efficiency(p) == pytest.approx(E_CANON, rel=1e-15)
        assert prob_x0(p, 0.0, 0.0).p_x0 == pytest.approx(E_CANON, rel=1e-15)
        assert prob_x0(p, 0.0, math.pi / 4).p_x0 == pytest.approx(HALF_E, rel=1e-15)
        # float cos(pi) is exactly -1, so the balanced decision point is exact
        assert prob_x0(p, 0.0, math.pi / 2).p_x0 == 0.0
        # constant mask: no phase dependence
        for phi in (0.0, 0.3, 1.1, math.pi / 2):
            assert prob_x0(p, BIG_P, phi).p_x0 == pytest.approx(E_CANON, rel=1e-15)

    def test_out_of_domain_threshold(self):
        with pytest.raises(ParameterError):
            prob_x0(canonical(), BIG_P * 1.01, 0.3)

    def test_containment_enforced(self):
        import cvphase

        snug = cvphase.ProcedureParams(x0=0.0, delta=1.0, big_t=4.0, big_p=1.5)
        with pytest.raises(RegimeError):
            prob_x0(snug, 0.0, 0.3)

    def test_mask_efficiency_enforces_containment(self):
        # containment ratio sqrt(2): E was returned where the other closed
        # forms of the same parameters refuse
        snug = ProcedureParams(0.0, DELTA, 1.0, 3.0 * DELTA)
        assert snug.containment_ratio < model.CONTAINMENT_RATIO
        for closed_form in (
            mask_efficiency,
            lambda p: dj_statistics(p, 0.0),
            lambda p: prob_x0s(p, (0.0,), (0.3,)),
        ):
            with pytest.raises(RegimeError, match="^containment ratio 1.414 < 4.2"):
                closed_form(snug)
        with pytest.raises(ParameterError, match="^parameters must be a ProcedureParams"):
            mask_efficiency((0.0, DELTA, 1.0, 3.0 * DELTA))

    @given(
        r=st.floats(0.0, BIG_P),
        phi=st.floats(0.0, math.pi),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_independent_oracle(self, r, phi):
        p = canonical()
        e = erf_series(2.0 * BIG_P * DELTA) ** 2
        g = erf_series(2.0 * r * DELTA) ** 2
        expected = float((e + g) / 2 + (e - g) / 2 * math.cos(2.0 * phi))
        assert prob_x0(p, r, phi).p_x0 == pytest.approx(expected, abs=1e-14)

    @given(
        r=st.floats(-BIG_P, BIG_P),
        phi=st.floats(0.0, math.pi),
    )
    @settings(max_examples=80, deadline=None)
    def test_threshold_sign_and_phase_symmetries(self, r, phi):
        p = canonical()
        base = prob_x0(p, r, phi).p_x0
        assert prob_x0(p, -r, phi).p_x0 == base
        assert prob_x0(p, r, -phi).p_x0 == base
        assert prob_x0(p, r, math.pi - phi).p_x0 == pytest.approx(base, abs=1e-12)

    def test_coefficients_split(self):
        p = canonical()
        a, b = cosine_model_coefficients(p, BIG_P / 2)
        assert a + b == pytest.approx(E_CANON, rel=1e-15)
        assert a - b == pytest.approx(G_HALF, rel=1e-15)
        _, b_const = cosine_model_coefficients(p, BIG_P)
        assert b_const == 0.0


class TestFactorizedRoute:
    @given(
        r=st.floats(0.0, BIG_P),
        phi=st.floats(0.0, math.pi),
    )
    @settings(max_examples=100, deadline=None)
    def test_step_agrees_with_closed_form(self, r, phi):
        p = canonical()
        f = PiecewiseBinaryFunction.step(r, BIG_P)
        assert prob_x0_factorized(p, f, phi).p_x0 == pytest.approx(
            prob_x0(p, r, phi).p_x0, abs=1e-12
        )

    def test_complement_leaves_probability_unchanged(self):
        p = canonical()
        f = PiecewiseBinaryFunction(
            breakpoints=(-1.1, -0.2, 0.4, 1.3), values=(0, 1, 0, 1, 0),
            half_domain=BIG_P,
        )
        complement = PiecewiseBinaryFunction(
            f.breakpoints, tuple(1 - v for v in f.values), BIG_P
        )
        for phi in (0.0, 0.3, 1.1, 2.2):
            assert prob_x0_factorized(p, complement, phi).p_x0 == pytest.approx(
                prob_x0_factorized(p, f, phi).p_x0, abs=1e-13
            )

    def test_domain_mismatch_rejected(self):
        p = canonical()
        f = PiecewiseBinaryFunction.step(0.0, BIG_P / 2)
        with pytest.raises(ParameterError):
            prob_x0_factorized(p, f, 0.3)


class TestGeneratorMoments:
    def test_frozen_values(self):
        mom = generator_moments(canonical(), 0.0)
        assert mom.mean == pytest.approx(MEAN_CANON, rel=1e-15)
        assert mom.variance == pytest.approx(VAR_CANON, rel=1e-13)

    @given(r=st.floats(-BIG_P, BIG_P))
    @settings(max_examples=60, deadline=None)
    def test_binary_generator_variance_identity(self, r):
        mom = generator_moments(canonical(), r)
        assert mom.variance == pytest.approx(mom.mean * (1.0 - mom.mean), abs=1e-16)
        assert 0.0 <= mom.mean <= 1.0

    def test_constant_mask_degenerate(self):
        mom = generator_moments(canonical(), BIG_P)
        assert mom.mean == 0.0
        assert mom.variance == 0.0

    @given(r=st.floats(0.0, BIG_P))
    @settings(max_examples=60, deadline=None)
    def test_mean_is_not_even_in_r(self, r):
        # mean(r) + mean(-r) = erf(2*P*delta), so only at mean = erf/2 (r = 0)
        # are the two equal; p, F_phi and F_r are even in r
        p = canonical()
        total = generator_moments(p, r).mean + generator_moments(p, -r).mean
        assert total == pytest.approx(math.erf(2.0 * BIG_P * DELTA), abs=4e-16)

    def test_uncontained_envelope_refused(self):
        snug = ProcedureParams(x0=0.0, delta=1.0, big_t=4.0, big_p=1.5)
        with pytest.raises(RegimeError):
            generator_moments(snug, 0.0)


class TestFisherPhi:
    def test_balanced_decision_point_is_the_singular_maximum(self):
        rep = fisher_phi(canonical(), 0.0, math.pi / 2)
        assert rep.singular_limit
        assert rep.fisher == pytest.approx(FOUR_E, rel=1e-14)
        assert abs(rep.fisher - 4.0) <= 1e-3

    def test_dips_to_zero_at_probability_extrema(self):
        p = canonical()
        for phi in (0.0, math.pi):
            rep = fisher_phi(p, 0.0, phi)
            # float sin(2*pi) leaves a ~1e-27 residue at phi=pi
            assert rep.fisher == pytest.approx(0.0, abs=1e-20)
            assert not rep.singular_limit  # p(1-p) > 0 here since E < 1

    def test_constant_mask_carries_nothing(self):
        rep = fisher_phi(canonical(), BIG_P, 0.7)
        assert rep.fisher == 0.0
        assert not rep.singular_limit  # p = E in (0,1), regular branch

    def test_constant_mask_saturated_is_degenerate(self):
        # E = G = 1: the probability is pinned at 1 for every phase
        rep = fisher_phi(saturated(), 4.0, 0.7)
        assert rep.fisher == 0.0
        assert rep.singular_limit

    def test_saturated_limits_reach_four(self):
        sat = saturated()
        lo = fisher_phi(sat, 0.0, math.pi / 2)   # p -> 0 side
        hi = fisher_phi(sat, 0.0, 0.0)           # p -> 1 side
        assert lo.singular_limit and hi.singular_limit
        assert lo.fisher == pytest.approx(4.0, rel=1e-12)
        assert hi.fisher == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("r", [0.0, BIG_P / 8, BIG_P / 2])
    @pytest.mark.parametrize("phi", [0.3, 0.7, 1.2])
    def test_matches_finite_difference(self, r, phi):
        p = canonical()
        h = 1e-5
        mid = prob_x0(p, r, phi).p_x0
        slope = (prob_x0(p, r, phi + h).p_x0 - prob_x0(p, r, phi - h).p_x0) / (2 * h)
        expected = slope * slope / (mid * (1.0 - mid))
        assert fisher_phi(p, r, phi).fisher == pytest.approx(expected, rel=1e-6)

    @given(
        r=st.floats(0.0, BIG_P),
        phi=st.floats(0.0, math.pi),
    )
    @settings(max_examples=150, deadline=None)
    def test_never_exceeds_variance_bound(self, r, phi):
        rep = fisher_phi(canonical(), r, phi)
        assert rep.fisher <= rep.variance_bound + 1e-9

    def test_bound_fields(self):
        rep = fisher_phi(canonical(), 0.0, 0.7)
        assert rep.variance_bound == pytest.approx(16.0 * VAR_CANON, rel=1e-13)
        assert rep.mean_bound == pytest.approx(
            4.0 * MEAN_CANON**2, rel=1e-13
        )

    def test_reports_reference_precision_only_for_balanced(self):
        p = canonical()
        assert fisher_phi(p, 0.0, math.pi / 4).delta_phi == pytest.approx(
            DPHI_QUARTER, rel=1e-14
        )
        assert fisher_phi(p, 0.0, math.pi / 2).delta_phi is None  # slope vanishes
        assert fisher_phi(p, BIG_P / 4, math.pi / 4).delta_phi is None  # r != 0


class TestFisherR:
    def test_limit_at_origin_decision_phase(self):
        assert fisher_r(canonical(), 0.0, math.pi / 2) == pytest.approx(
            FISHER_R_LIMIT, rel=1e-13
        )

    def test_zero_where_probability_is_phase_locked(self):
        p = canonical()
        assert fisher_r(p, 0.4, 0.0) == 0.0  # cos(2*phi)=1: p independent of r
        assert fisher_r(p, 0.0, 0.7) == 0.0  # dG/dr vanishes at r=0 for regular phi

    def test_matches_finite_difference_in_r(self):
        p = canonical()
        r, phi, h = 0.5, math.pi / 2, 1e-6
        mid = prob_x0(p, r, phi).p_x0
        slope = (prob_x0(p, r + h, phi).p_x0 - prob_x0(p, r - h, phi).p_x0) / (2 * h)
        expected = slope * slope / (mid * (1.0 - mid))
        assert fisher_r(p, r, phi) == pytest.approx(expected, rel=1e-6)

    def test_even_in_threshold(self):
        p = canonical()
        for r in (0.2, 0.9, 1.7):
            assert fisher_r(p, r, 1.1) == fisher_r(p, -r, 1.1)


# phase axes through every branch: phi = 0 (sin vanishes), pi/4, pi/2
# (cos(2*phi) = -1), pi, and off-grid and negative phases
_AXIS_PHASES = (0.0, math.pi / 4, math.pi / 2, math.pi, 0.3, -0.7, 2.0)


class TestPhaseAxes:
    """Each axis function gives, phase by phase, exactly its scalar's value;
    fisher_phis as one column per FisherReport field."""

    @staticmethod
    def _assert_axis_matches_scalars(p, r, phis):
        columns = fisher_phis(p, (r,), phis)
        probs = prob_x0s(p, (r,), phis)
        fishers = fisher_rs(p, (r,), phis)
        assert list(columns) == list(FisherReport._fields)
        assert all(type(column) is list for column in columns.values())
        assert {len(column) for column in columns.values()} == {len(phis)}
        assert len(probs) == len(fishers) == len(phis)
        # the bounds depend on r alone
        moments = generator_moments(p, r)
        assert set(columns["variance_bound"]) <= {16.0 * moments.variance}
        # the product the code takes: mean**2 goes through libm's pow, which
        # is an ulp off the rounded product at some means (r = 0.39135...)
        assert set(columns["mean_bound"]) <= {4.0 * moments.mean * moments.mean}
        for i, (phi, prob, f_r) in enumerate(zip(phis, probs, fishers)):
            want = fisher_phi(p, r, phi)
            assert columns["fisher"][i] == want.fisher
            assert columns["variance_bound"][i] == want.variance_bound
            assert columns["mean_bound"][i] == want.mean_bound
            assert (columns["delta_phi"][i] is None) == (want.delta_phi is None)
            assert columns["delta_phi"][i] == want.delta_phi
            assert columns["singular_limit"][i] is want.singular_limit
            assert type(prob) is float and prob == prob_x0(p, r, phi).p_x0
            assert f_r == fisher_r(p, r, phi)

    @pytest.mark.parametrize(
        "params, r",
        [
            (canonical, 0.0),  # p = 0 limit at pi/2, no delta_phi at 0
            (canonical, BIG_P),  # constant mask r = P
            (canonical, -BIG_P / 4),
            (saturated, 0.0),  # p = 1 limit at phi = 0
            (saturated, 4.0),  # E = G = 1: b = 0
        ],
    )
    def test_singular_branches(self, params, r):
        p = params()
        self._assert_axis_matches_scalars(p, r, _AXIS_PHASES)
        columns = fisher_phis(p, (r,), _AXIS_PHASES)
        assert columns["delta_phi"][0] is None  # phi = 0
        if r == 0.0:
            assert columns["singular_limit"][2]  # phi = pi/2

    @given(
        r=st.floats(-BIG_P, BIG_P),
        phis=st.lists(st.floats(-2 * math.pi, 2 * math.pi), min_size=1, max_size=8),
    )
    @example(r=0.3913551528411743, phis=[0.0])
    @settings(max_examples=150, deadline=None)
    def test_matches_scalars(self, r, phis):
        self._assert_axis_matches_scalars(canonical(), r, tuple(phis))

    @given(
        r_values=st.lists(st.floats(-BIG_P, BIG_P), max_size=5),
        phis=st.lists(st.floats(-2 * math.pi, 2 * math.pi), max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_threshold_axis_is_r_major(self, r_values, phis):
        # one sweep over both axes gives, cell by cell, the same doubles as
        # one sweep per threshold, in threshold order
        p = canonical()
        columns = fisher_phis(p, r_values, phis)
        assert prob_x0s(p, r_values, phis) == [
            cell for r in r_values for cell in prob_x0s(p, (r,), phis)
        ]
        for name, column in columns.items():
            assert column == [
                cell for r in r_values for cell in fisher_phis(p, (r,), phis)[name]
            ], name

    def test_an_empty_threshold_axis_still_checks_its_parameters(self):
        snug = ProcedureParams(x0=0.0, delta=1.0, big_t=4.0, big_p=1.5)
        for sweep in (prob_x0s, fisher_phis):
            with pytest.raises(RegimeError):
                sweep(snug, (), (0.3,))
        assert prob_x0s(canonical(), (), (0.3,)) == []

    @pytest.mark.parametrize(
        "axis, empty",
        [
            (lambda p, r, phis: fisher_phis(p, (r,), phis),
             {field: [] for field in FisherReport._fields}),
            (lambda p, r, phis: prob_x0s(p, (r,), phis), []),
            (lambda p, r, phis: fisher_rs(p, (r,), phis), []),
        ],
        ids=["fisher_phis", "prob_x0s", "fisher_rs"],
    )
    def test_checks_run_even_without_phases(self, axis, empty):
        assert axis(canonical(), 0.3, ()) == empty
        with pytest.raises(ParameterError):
            axis(canonical(), BIG_P * 1.01, ())
        snug = ProcedureParams(x0=0.0, delta=1.0, big_t=4.0, big_p=1.5)
        with pytest.raises(RegimeError):
            axis(snug, 0.0, ())


class TestRealNumbers:
    """Thresholds and phases are numbers: a str is refused, never parsed."""

    @pytest.mark.parametrize(
        "value", ["0.5", b"0.5", None], ids=["str", "bytes", "None"]
    )
    def test_threshold_and_audit_phases_refuse_non_numbers(self, value):
        p = canonical()
        for call, what in (
            (lambda: prob_x0s(p, (value,), (0.3,)), "threshold r"),
            (lambda: fisher_rs(p, (value,), (0.3,)), "threshold r"),
            (lambda: dj_statistics(p, value), "threshold r"),
            (lambda: heisenberg_audit(p, 0.0, (0.3, value)), "phase"),
        ):
            with pytest.raises(ParameterError) as info:
                call()
            assert str(info.value) == f"{what} must be a real number, got {value!r}"

    def test_numpy_numbers_pass(self):
        p = canonical()
        columns = heisenberg_audit(p, np.int64(0), (np.float32(0.5), np.float64(0.25)))
        assert columns == heisenberg_audit(p, 0.0, (0.5, 0.25))
        assert [type(phi) for phi in columns["phi"]] == [float, float]
        assert type(columns["r"][0]) is float


_PHASE_TAKERS = {
    "prob_x0": lambda p, phase: prob_x0(p, 0.0, phase),
    "prob_x0s": lambda p, phase: prob_x0s(p, (0.0,), [0.3, phase]),
    "prob_x0_factorized": lambda p, phase: prob_x0_factorized(
        p, PiecewiseBinaryFunction.step(0.0, BIG_P), phase
    ),
    "fisher_phi": lambda p, phase: fisher_phi(p, 0.0, phase),
    "fisher_phis": lambda p, phase: fisher_phis(p, (0.0,), [0.3, phase]),
    "fisher_rs": lambda p, phase: fisher_rs(p, (0.0,), [0.3, phase]),
    "delta_phi": lambda p, phase: delta_phi(p, phase),
    "heisenberg_audit": lambda p, phase: heisenberg_audit(p, 0.0, [0.3, phase]),
}


_REFUSED_PHASES = refused_phases()


class TestPhaseGate:
    """Every closed form that takes a phase refuses one that is not a real
    number with a finite double (math.cos raised a bare ValueError at inf
    and at 1e308, and fisher_rs returned 0.0 at NaN); nothing warns on the
    way."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "phase", list(_REFUSED_PHASES.values()), ids=list(_REFUSED_PHASES)
    )
    @pytest.mark.parametrize("taker", list(_PHASE_TAKERS))
    def test_non_finite_phase_refused(self, taker, phase):
        with pytest.raises(ParameterError) as info:
            _PHASE_TAKERS[taker](canonical(), phase)
        assert str(info.value) == phase_refusal(phase)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("taker", list(_PHASE_TAKERS))
    def test_largest_phase_taken(self, taker):
        for phase in (LARGEST_PHASE, -LARGEST_PHASE):
            _PHASE_TAKERS[taker](canonical(), phase)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "phase", [0.3 + 1j, np.complex128(0.3 + 1j), np.complex64(0.3)],
        ids=["complex", "numpy_complex128", "numpy_complex64"],
    )
    @pytest.mark.parametrize("taker", list(_PHASE_TAKERS))
    def test_complex_phase_refused(self, taker, phase):
        with pytest.raises(ParameterError) as info:
            _PHASE_TAKERS[taker](canonical(), phase)
        assert str(info.value) == f"phase must be a real number, got {phase!r}"

    def test_an_axis_is_read_once(self):
        p, phis = canonical(), (0.1, 0.7, 1.2)
        r_values = (0.2, -0.5)
        assert prob_x0s(p, iter(r_values), iter(phis)) == prob_x0s(p, r_values, phis)
        assert fisher_phis(p, iter(r_values), iter(phis)) == fisher_phis(
            p, r_values, phis
        )
        assert fisher_rs(p, iter(r_values), iter(phis)) == fisher_rs(
            p, r_values, phis
        )
        assert heisenberg_audit(p, 0.2, iter(phis)) == heisenberg_audit(p, 0.2, phis)


class TestDeltaPhi:
    def test_frozen_value(self):
        assert delta_phi(canonical(), math.pi / 4) == pytest.approx(
            DPHI_QUARTER, rel=1e-14
        )

    @pytest.mark.parametrize("phi", [0.0, math.pi / 2, math.pi])
    def test_singular_at_vanishing_slope(self, phi):
        with pytest.raises(SingularityError):
            delta_phi(canonical(), phi)

    def test_singular_where_the_slope_underflows(self):
        # erf(2*P*delta)^2 underflows to 0, so the mean has no slope at any phase
        p = ProcedureParams(x0=0.0, delta=1e-90, big_t=1.0, big_p=1e-90)
        assert mask_efficiency(p) == 0.0
        with pytest.raises(SingularityError, match="underflows"):
            delta_phi(p, math.pi / 4)
        assert fisher_phi(p, 0.0, math.pi / 4).delta_phi is None

    def test_no_precision_where_a_subnormal_slope_underflows(self):
        # a subnormal E keeps var_x > 0 while E*|sin(2*phi)| underflows to 0
        p = ProcedureParams(x0=0.0, delta=1e-80, big_t=1.0, big_p=4.43e-81)
        assert mask_efficiency(p) == pytest.approx(9.995e-321, rel=1e-3)
        phi = 5e-12  # |sin(2*phi)| = 1e-11, above the vanishing-derivative cutoff
        assert fisher_phi(p, 0.0, phi).delta_phi is None
        with pytest.raises(SingularityError, match="underflows"):
            delta_phi(p, phi)

    @given(phi=st.floats(0.05, math.pi / 2 - 0.05))
    @settings(max_examples=80, deadline=None)
    def test_saturates_the_information_bound_for_balanced(self, phi):
        p = canonical()
        product = delta_phi(p, phi) * math.sqrt(fisher_phi(p, 0.0, phi).fisher)
        assert product == pytest.approx(1.0, abs=1e-12)


class TestAuditClosedForms:
    def test_one_threshold_record_per_audit(self, monkeypatch):
        # everything phase-free comes from one record, behind one gate,
        # however many phases; each record's threshold passes _inside once
        records, gates = [], []
        inside, gate = stats._inside, stats.require_containment

        def counted_record(r, half, what):
            records.append(r)
            return inside(r, half, what)

        def counted_gate(p):
            gates.append(p)
            return gate(p)

        monkeypatch.setattr(stats, "_inside", counted_record)
        monkeypatch.setattr(stats, "require_containment", counted_gate)
        for count in (1, 15, 200):
            records.clear()
            gates.clear()
            phis = tuple(k * math.pi / (2 * count + 2) for k in range(1, count + 1))
            table = heisenberg_audit(canonical(), 0.0, phis)
            assert {len(column) for column in table.values()} == {count}
            assert records == [0.0], count
            assert gates == [canonical()], count

    def test_checks_run_even_without_phases(self):
        table = heisenberg_audit(canonical(), 0.3, ())
        assert list(table) == [
            "phi", "r", "fisher", "variance_bound", "mean_bound_generator_f",
            "mean_bound_generator_2f", "dphi_sqrt_fisher", "optimal",
        ]
        assert all(column == [] for column in table.values())
        with pytest.raises(ParameterError):
            heisenberg_audit(canonical(), BIG_P * 1.01, ())
        snug = ProcedureParams(x0=0.0, delta=1.0, big_t=4.0, big_p=1.5)
        with pytest.raises(RegimeError):
            heisenberg_audit(snug, 0.0, ())

    @pytest.mark.parametrize("r", [0.0, BIG_P / 4])
    @pytest.mark.parametrize(
        "phi",
        [
            0.3,
            math.pi / 4,
            math.pi / 2,
            # cos(2*phi) rounds to -1 with |sin(2*phi)| ~ 1e-8 above the
            # cutoff: the detection variance rounds to 0
            1.570796322,
            math.pi / 2 + 3e-9,
        ],
    )
    def test_one_precision_for_the_table_the_audit_and_delta_phi(self, r, phi):
        p = canonical()
        reference = fisher_phi(p, 0.0, phi).delta_phi
        table = heisenberg_audit(p, r, (phi,))
        (product,) = table["dphi_sqrt_fisher"]
        (optimal,) = table["optimal"]
        if reference is None:
            with pytest.raises(SingularityError):
                delta_phi(p, phi)
            assert math.isnan(product)
            assert optimal is False
        else:
            assert delta_phi(p, phi) == reference
            assert product == reference * math.sqrt(fisher_phi(p, r, phi).fisher)
        assert table["fisher"] == [fisher_phi(p, r, phi).fisher]

    def test_rounded_variance_has_no_precision(self):
        # the true precision there is about 1/(2*sqrt(E)); a rounded-away
        # variance must not print as a perfect 0
        p = canonical()
        assert math.cos(2.0 * 1.570796322) == -1.0
        assert fisher_phi(p, 0.0, 1.570796322).delta_phi is None


class TestDjStatistics:
    def test_balanced_is_exactly_silent(self):
        assert dj_statistics(canonical(), 0.0).p_x0 == 0.0

    def test_constant_retains_mask_efficiency(self):
        d = dj_statistics(canonical(), BIG_P)
        assert d.p_x0 == pytest.approx(E_CANON, rel=1e-15)
        assert 1.0 - d.p_x0 == pytest.approx(ONE_MINUS_E, rel=1e-11)

    def test_intermediate_threshold(self):
        # the oracle value; a shorter decimal sometimes quoted for this point
        # is off in the 5th digit
        assert dj_statistics(canonical(), BIG_P / 2).p_x0 == pytest.approx(
            G_HALF, rel=1e-14
        )

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_threshold_past_the_domain_refused(self, sign):
        # the decision mask is a step on [-P, P]: no rounding slack past P
        with pytest.raises(ParameterError):
            dj_statistics(canonical(), sign * math.nextafter(BIG_P, math.inf))
        assert dj_statistics(canonical(), sign * BIG_P).p_x0 == pytest.approx(
            E_CANON, rel=1e-15
        )

    def test_uncontained_envelope_refused(self):
        snug = ProcedureParams(x0=0.0, delta=1.0, big_t=4.0, big_p=1.5)
        with pytest.raises(RegimeError):
            dj_statistics(snug, 0.0)


class TestThresholdDomain:
    """Every closed form takes r in [-P, P], with no rounding slack past P:
    the same rule as the masks' (``model._inside``); ``dj_statistics``'s
    case is ``TestDjStatistics``'s."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda p, r: prob_x0s(p, (r,), (0.3,)),
            lambda p, r: fisher_phis(p, (r,), (0.3,)),
            lambda p, r: fisher_rs(p, (r,), (0.3,)),
            lambda p, r: cosine_model_coefficients(p, r),
            lambda p, r: heisenberg_audit(p, r, (0.3,)),
        ],
        ids=["prob_x0s", "fisher_phis", "fisher_rs", "cosine_model_coefficients",
             "heisenberg_audit"],
    )
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
    def test_p_passes_and_the_next_double_past_it_is_refused(self, call, sign):
        p = canonical()
        call(p, sign * BIG_P)
        past = sign * math.nextafter(BIG_P, math.inf)
        with pytest.raises(ParameterError) as info:
            call(p, past)
        assert str(info.value) == (
            f"threshold r {past!r} outside [-{BIG_P!r}, {BIG_P!r}]"
        )


class TestValueTypes:
    """What callers may rely on: keyword construction, immutability, the
    FisherReport defaults and the repr."""

    def test_fisher_report_defaults(self):
        rep = FisherReport(fisher=1.0, variance_bound=2.0, mean_bound=3.0)
        assert rep.delta_phi is None
        assert rep.singular_limit is False
        assert repr(rep) == (
            "FisherReport(fisher=1.0, variance_bound=2.0, mean_bound=3.0, "
            "delta_phi=None, singular_limit=False)"
        )

    def test_keyword_construction_and_repr(self):
        rep = FisherReport(
            fisher=1.0, variance_bound=2.0, mean_bound=3.0,
            delta_phi=0.5, singular_limit=True,
        )
        assert (rep.delta_phi, rep.singular_limit) == (0.5, True)
        assert repr(rep) == (
            "FisherReport(fisher=1.0, variance_bound=2.0, mean_bound=3.0, "
            "delta_phi=0.5, singular_limit=True)"
        )
        mom = GeneratorMoments(mean=0.5, variance=0.25)
        assert (mom.mean, mom.variance) == (0.5, 0.25)
        assert repr(mom) == "GeneratorMoments(mean=0.5, variance=0.25)"

    @pytest.mark.parametrize(
        "value, field",
        [
            (GeneratorMoments(mean=0.5, variance=0.25), "mean"),
            (FisherReport(fisher=1.0, variance_bound=2.0, mean_bound=3.0),
             "delta_phi"),
        ],
    )
    def test_fields_cannot_be_assigned(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, 1.0)
        with pytest.raises(AttributeError):
            value.extra = 1.0
