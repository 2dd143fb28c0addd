"""End-to-end acceptance gate.

One test per shipped numerical guarantee, named so that ``pytest -v`` prints a
single pass/fail line for each.  Every test states its measured value next to
the tolerance it must meet (visible with ``-s``).
"""

import csv
import math

import numpy as np

from circuit_oracle import (
    GridState,
    apply_blackbox,
    fourier,
    inverse_fourier,
    prepare_gaussian,
    run_circuit,
    two_register_kickback_check,
)
from cvphase import (
    PiecewiseBinaryFunction,
    cli,
    delta_phi,
    fisher_phi,
    generator_moments,
    prob_x0,
    prob_x0_quadrature,
    replicated_mse,
    step_hat_gap,
)
from cvphase._engine_commands import cmd_dj
from helpers import BIG_P, GRID_N, canonical, with_mask_product

PI = math.pi
THRESHOLDS = (0.0, BIG_P / 8, BIG_P / 4, BIG_P / 2, BIG_P)


def test_criterion_01_peak_fisher_information():
    rep = fisher_phi(canonical(), 0.0, PI / 2)
    expected = 4.0 * math.erf(3.0) ** 2
    dev4 = abs(rep.fisher - 4.0)
    print(f"F(pi/2, r=0) = {rep.fisher:.17g} vs 4*erf(3)^2 = {expected:.17g}; "
          f"|F - 4| = {dev4:.3e} (tol 1e-3)")
    assert rep.fisher == np.float64(expected) or abs(rep.fisher - expected) <= 1e-12
    assert dev4 <= 1e-3


def test_criterion_02_precision_saturates_information_bound():
    p = canonical()
    worst = 0.0
    for phi in (PI / 8, PI / 4, 3 * PI / 8):
        product = delta_phi(p, phi) * math.sqrt(fisher_phi(p, 0.0, phi).fisher)
        worst = max(worst, abs(product - 1.0))
        print(f"delta_phi*sqrt(F) at phi={phi:.5f}: {product:.12f}")
    print(f"worst |product - 1| = {worst:.3e} (tol 1e-3)")
    assert worst <= 1e-3


def test_criterion_03_generator_moments_cap_the_information():
    p = canonical()
    mom = generator_moments(p, 0.0)
    print(f"mean = {mom.mean:.17g} vs erf(3)/2 = {math.erf(3.0) / 2:.17g}; "
          f"variance = {mom.variance:.17g} (~0.25)")
    assert abs(mom.mean - math.erf(3.0) / 2.0) <= 1e-12
    assert abs(mom.variance - 0.25) <= 1e-6
    worst = -math.inf
    for r in THRESHOLDS:
        for k in range(33):
            rep = fisher_phi(p, r, k * PI / 32)
            worst = max(worst, rep.fisher - rep.variance_bound)
    print(f"max(F - 16*var) over sweep = {worst:.3e} (must be <= 1e-9)")
    assert worst <= 1e-9


def test_criterion_04_three_engines_agree():
    p = canonical()
    worst_tri = 0.0
    worst_aq = 0.0
    for r in THRESHOLDS:
        f = PiecewiseBinaryFunction.step(r, BIG_P)
        for k in range(17):
            phi = k * PI / 16
            pa = prob_x0(p, r, phi).p_x0
            pq = prob_x0_quadrature(p, f, phi).value
            pg = run_circuit(p, f, phi, GRID_N).p_x0
            worst_tri = max(
                worst_tri, abs(pa - pq), abs(pa - pg), abs(pq - pg)
            )
            worst_aq = max(worst_aq, abs(pa - pq))
    print(f"worst tri-engine deviation = {worst_tri:.3e} (tol 1e-4); "
          f"worst analytic-vs-quadrature = {worst_aq:.3e} (tol 1e-9)")
    assert worst_tri <= 1e-4
    assert worst_aq <= 1e-9


def test_criterion_05_one_shot_classification_rates():
    columns = cmd_dj(canonical(), 0.0, 100000, 0)
    rows = [dict(zip(columns, cells)) for cells in zip(*columns.values())]
    table = {row["label"]: row for row in rows}
    bal = table["balanced_reference"]
    con = table["constant_reference"]
    print(f"balanced: p_x0 = {bal['p_x0']}, misclassified = "
          f"{bal['classified_constant']}/100000 (must be 0); "
          f"constant: empirical error = {con['empirical_error_rate']:.2e} "
          f"(tol 2e-4, analytic {con['analytic_error_rate']:.2e})")
    assert bal["p_x0"] == 0.0
    assert bal["classified_constant"] == 0
    assert bal["empirical_error_rate"] == 0.0
    assert con["empirical_error_rate"] <= 2e-4


def test_criterion_06_estimator_tracks_the_cramer_rao_bound():
    p = canonical()
    s = replicated_mse(p, 0.0, PI / 4, 100, 2000, 0)
    print(f"MSE/CRB at 100 shots x 2000 replicas = {s.mse_over_crb:.10f} "
          f"(window [1.0, 1.3])")
    assert 1.0 <= s.mse_over_crb <= 1.3
    s64 = replicated_mse(p, 0.0, PI / 4, 64, 2000, 0)
    s256 = replicated_mse(p, 0.0, PI / 4, 256, 2000, 0)
    ratio = s64.mean_mse / s256.mean_mse
    print(f"MSE(64)/MSE(256) = {ratio:.4f} (window [3.2, 4.8])")
    assert 3.2 <= ratio <= 4.8


def test_criterion_07_mask_shape_gap_follows_leading_order():
    for product in (0.05, 0.1):
        res = step_hat_gap(with_mask_product(product), PI / 2)
        print(f"P*delta = {product}: gap = {res.gap:.6e}, predicted "
              f"{res.leading_order_prediction:.6e}, ratio = {res.ratio:.6f} "
              f"(tol 10% rel)")
        assert abs(res.ratio - 1.0) <= 0.1


def test_criterion_08_unitarity_and_convergence():
    p = canonical()
    rng = np.random.default_rng(123)
    n = 1024
    dx = 0.05
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)) * dx)
    s = GridState(amps, grid_start=-n * dx / 2, grid_step=dx, space="position")
    round_trip = float(
        np.max(np.abs(inverse_fourier(fourier(s)).amplitudes - s.amplitudes))
    )

    f = PiecewiseBinaryFunction.step(BIG_P / 8, BIG_P)
    state = prepare_gaussian(p, GRID_N)
    norm_dev = abs(state.norm_sq() - 1.0)
    for stage in (fourier, lambda st: apply_blackbox(st, f, 1.3), inverse_fourier):
        state = stage(state)
        norm_dev = max(norm_dev, abs(state.norm_sq() - 1.0))

    f2 = PiecewiseBinaryFunction.step(BIG_P / 4, BIG_P)
    doubling = abs(
        run_circuit(p, f2, 0.7, 4096).p_x0 - run_circuit(p, f2, 0.7, 8192).p_x0
    )

    kick = max(
        two_register_kickback_check(x, PiecewiseBinaryFunction.step(r, BIG_P), 64)
        .phase_deviation
        for x in (-1.0, 0.5)
        for r in (0.0, BIG_P / 2)
    )
    print(f"round-trip = {round_trip:.3e} (tol 1e-10); stage norm dev = "
          f"{norm_dev:.3e} (tol 1e-10); doubling = {doubling:.3e} (tol 1e-6); "
          f"kickback phase dev = {kick:.3e} (tol 1e-10)")
    assert round_trip <= 1e-10
    assert norm_dev <= 1e-10
    assert doubling <= 1e-6
    assert kick <= 1e-10


def _read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_criterion_09_preset_curves_have_the_right_shape(tmp_path):
    f4 = tmp_path / "fig4.csv"
    assert cli.main(["fisher-phi", "--fig4", "--out", str(f4)]) == 0
    header, rows = _read_table(f4)
    idx = {c: i for i, c in enumerate(header)}
    by_r: dict[float, dict[float, float]] = {}
    for row in rows:
        by_r.setdefault(float(row[idx["r"]]), {})[float(row[idx["phi"]])] = float(
            row[idx["fisher"]]
        )
    full = by_r[BIG_P]
    assert all(v == 0.0 for v in full.values())
    decision = [by_r[r][PI / 2] for r in THRESHOLDS[:-1]]
    assert decision == sorted(decision, reverse=True)
    dip0, dip_pi = by_r[0.0][0.0], by_r[0.0][PI]
    assert dip0 == 0.0 and dip_pi <= 1e-20
    print(f"full-threshold row identically 0; F(pi/2) by threshold = "
          f"{[f'{v:.4f}' for v in decision]} (descending); "
          f"zero-threshold dips: {dip0:.1e}, {dip_pi:.1e}")

    f5 = tmp_path / "fig5.csv"
    assert cli.main(["fisher-r", "--fig5", "--out", str(f5)]) == 0
    header, rows = _read_table(f5)
    idx = {c: i for i, c in enumerate(header)}
    small_r = BIG_P / 64
    at_small = {
        float(row[idx["phi"]]): float(row[idx["fisher_r"]])
        for row in rows
        if abs(float(row[idx["r"]]) - small_r) < 1e-12
    }
    ordered = [at_small[phi] for phi in cli._FIG5_PHASES]
    assert ordered == sorted(ordered, reverse=True)
    assert ordered[0] > 0.0
    print(f"threshold-sweep values at r=P/64, by phase: "
          f"{[f'{v:.4f}' for v in ordered]} (descending)")
