"""Command-line interface: schemas, determinism, presets, exit codes."""

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cvphase
import cvphase._engine_commands as engine_commands
from cvphase import (
    ParameterError, PiecewiseBinaryFunction, ProcedureParams, cli, experiments,
    grid, model, phase_response, quadrature, stats,
)
from helpers import BIG_P, DELTA, canonical, cell_csv, phase_refusal, reference_csv

PI = math.pi


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestExitCodes:
    def test_missing_subcommand(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(["fisher-phi", "--nope"], capsys)
        assert code == 2

    def test_invalid_parameter_reported(self, capsys):
        code, _, err = run_cli(["fisher-phi", "--delta", "-1"], capsys)
        assert code == 2
        assert "error" in err.lower()

    def test_fig4_conflicts_with_explicit_axes(self, capsys):
        code, _, err = run_cli(["fisher-phi", "--fig4", "--r", "0.5"], capsys)
        assert code == 2
        assert "--fig4" in err

    def test_fig5_conflicts_with_explicit_phase(self, capsys):
        code, _, err = run_cli(["fisher-r", "--fig5", "--phi", "0.3"], capsys)
        assert code == 2

    def test_fisher_phi_rejects_quadrature_engine(self, capsys):
        code, _, _ = run_cli(["fisher-phi", "--engine", "quadrature"], capsys)
        assert code == 2

    def test_fisher_r_rejects_grid_engine(self, capsys):
        code, _, _ = run_cli(["fisher-r", "--engine", "grid"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "command",
        ["audit", "crosscheck", "dj", "estimate", "fisher-phi", "fisher-r", "gap"],
    )
    def test_epsilon_flag_refused(self, capsys, command):
        # detection always uses the prepared width; there is no window flag
        code, out, err = run_cli([command, "--epsilon", "0.05"], capsys)
        assert code == 2
        assert out == ""
        assert "error:" in err and "--epsilon" in err

    def test_crosscheck_tolerance_failure_is_exit_3(self, capsys):
        code, out, err = run_cli(
            ["crosscheck", "--phi", "0.3", "--r", "0", "--tol", "1e-9"], capsys
        )
        assert code == 3
        assert "exceeds tolerance" in err
        # the table is still emitted for inspection
        header, rows = parse_csv(out)
        assert len(rows) == 1

    def test_crosscheck_gate_reads_the_worst_printed_deviation(self, capsys):
        code, out, err = run_cli(["crosscheck", "--tol", "1e-6"], capsys)
        assert code == 3
        assert err == (
            "crosscheck: worst deviation 4.662e-05 exceeds tolerance 1.000e-06; "
            "conjugate cell dy = pi/(2T) = 0.00828641, "
            "every threshold on a cell edge\n"
        )
        header, rows = parse_csv(out)
        devs = [float(row[header.index("max_pairwise_dev")]) for row in rows]
        assert f"{max(devs):.3e}" == "4.662e-05"

    def test_crosscheck_worst_is_the_sequential_max_nan_included(self, monkeypatch):
        # max(worst, dev) keeps worst when dev is NaN: the gate reads the
        # same number as a row-by-row loop over the deviation column
        exact = stats.prob_x0s

        def first_nan(p, r_values, phis):
            # NaN at each threshold's first phase
            column = exact(p, r_values, phis)
            return [math.nan if i % len(phis) == 0 else x for i, x in enumerate(column)]

        monkeypatch.setattr(stats, "prob_x0s", first_nan)
        table, worst = engine_commands.cmd_crosscheck(
            canonical(), (0.0, BIG_P / 8), (0.3, 0.5), 512
        )
        devs = table["max_pairwise_dev"]
        assert [math.isnan(d) for d in devs] == [True, False, True, False]
        assert worst == functools.reduce(max, devs, 0.0) == max(devs[1], devs[3])

    def test_off_edge_threshold_failure_says_why(self, capsys):
        # T = 3.5 gives dy = pi/7; r = 0 sits on a cell edge, r = 0.5 inside a
        # cell, and so does the domain edge P (P/dy = 4.73)
        code, out, err = run_cli(
            ["crosscheck", "--big-t", "3.5", "--grid-n", "256", "--r", "0,0.5",
             "--phi", "0:3.14159:9"],
            capsys,
        )
        assert code == 3
        assert err == (
            "crosscheck: worst deviation 4.672e-02 exceeds tolerance 1.000e-04; "
            "conjugate cell dy = pi/(2T) = 0.448799, "
            "thresholds off a cell edge: r = 0.5; "
            f"domain edge P = {BIG_P!r} off a cell edge (P/dy = 4.73)\n"
        )
        assert len(parse_csv(out)[1]) == 18

    def test_domain_edge_off_a_cell_edge_is_named(self, capsys):
        # T = 200 puts r = 0 on a cell edge but P inside a cell (P/dy = 270.09)
        code, _, err = run_cli(
            ["crosscheck", "--r", "0", "--big-t", "200", "--tol", "1e-12"], capsys
        )
        assert code == 3
        assert err.endswith(
            "conjugate cell dy = pi/(2T) = 0.00785398, "
            "every threshold on a cell edge; "
            f"domain edge P = {BIG_P!r} off a cell edge (P/dy = 270.09)\n"
        )

    def test_domain_edge_listed_as_a_threshold_is_not_named_twice(self):
        p = ProcedureParams(x0=0.0, delta=DELTA, big_t=3.5, big_p=BIG_P)
        for r in (BIG_P, -BIG_P):
            note = grid._cell_edge_note(p, (0.0, r))
            assert note.endswith(f"thresholds off a cell edge: r = {r!r}"), note
        # the default T puts P and every multiple of P/8 on a cell edge
        note = grid._cell_edge_note(canonical(), (0.0, 0.3))
        assert note.endswith("thresholds off a cell edge: r = 0.3"), note

    @pytest.mark.parametrize(
        "grid_n, code, worst",
        [(4096, 3, "9.802e-04"), (2**16, 0, "4.947e-05"), (2**20, 0, "2.838e-05")],
    )
    def test_larger_grid_refines_an_off_edge_threshold(self, capsys, grid_n, code, worst):
        # r = 0.3 sits inside a cell at every N; the default T's cell shrinks
        # with N above 4096, and the first-order error with it
        argv = ["crosscheck", "--r", "0.3", "--phi", "0.785", "--grid-n", str(grid_n)]
        got, out, err = run_cli(argv, capsys)
        assert got == code
        assert (err != "") == (code == 3)
        header, (row,) = parse_csv(out)
        assert f"{float(row[header.index('max_pairwise_dev')]):.3e}" == worst

    def test_default_crosscheck_passes_silently(self, capsys):
        code, _, err = run_cli(["crosscheck"], capsys)
        assert code == 0
        assert err == ""

    def test_audit_with_underflowed_mask_efficiency_prints_nan(self, capsys):
        # erf(2*P*delta)^2 underflows to 0: the precision has no slope to divide by
        code, out, err = run_cli(["audit", "--big-p", "1e-90", "--delta", "1e-90"], capsys)
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        assert {row[header.index("dphi_sqrt_fisher")] for row in rows} == {"nan"}

    def test_gap_rejects_large_mask_product(self, capsys):
        code, _, _ = run_cli(["gap", "--big-p", "2.0", "--phi", "1.0"], capsys)
        assert code == 2

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e308", "0,1e308"])
    def test_fisher_phi_rejects_nonfinite_phase(self, capsys, value):
        code, out, err = run_cli(["fisher-phi", "--phi", value], capsys)
        assert code == 2
        assert out == ""
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "value, engine",
        [("nan", "grid"), ("1e308", "grid"), ("nan", "all"), ("1e308", "all")],
        ids=["nan", "1e308", "nan-all", "1e308-all"],
    )
    def test_grid_engine_checks_the_phase_axis_before_building_the_grid(
        self, capsys, monkeypatch, value, engine
    ):
        def refused(*args):
            raise AssertionError("built the grid before checking the phase axis")

        monkeypatch.setattr(grid, "phase_response", refused)
        code, out, err = run_cli(
            ["fisher-phi", "--engine", engine, "--phi", value, "--grid-n", "1048576",
             "--big-t", "3.5"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == f"error: {phase_refusal(float(value))}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["fisher-r", "--phi", "1e308"],
            ["fisher-r", "--r", "-1e308"],
            ["audit", "--phi", "1e308"],
            ["crosscheck", "--phi", "1e308", "--r", "0"],
            ["crosscheck", "--phi", "0:1e308:3", "--r", "0"],
        ],
    )
    def test_axis_whose_double_overflows_rejected(self, capsys, argv):
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-4"])
    def test_crosscheck_tolerance_must_be_finite_and_positive(self, capsys, tol):
        code, out, err = run_cli(
            ["crosscheck", "--phi", "0.3", "--r", "0", "--tol", tol], capsys
        )
        assert code == 2
        assert out == ""
        assert "error:" in err and "--tol" in err

    @pytest.mark.parametrize("phi", ["2.0", "-0.1", "nan", "1e308"])
    def test_estimate_rejects_phase_off_the_principal_branch(self, capsys, phi):
        code, _, err = run_cli(
            ["estimate", "--phi", phi, "--shots", "5", "--replicas", "2"], capsys
        )
        assert code == 2
        assert "error:" in err and "[0, pi/2]" in err

    # inf and 1e-320 would otherwise reach the P and T derived from delta
    @pytest.mark.parametrize("delta", ["0", "-0.0", "nan", "inf", "1e-320"])
    def test_nonpositive_delta_rejected(self, capsys, delta):
        code, _, err = run_cli(["fisher-phi", "--delta", delta], capsys)
        assert code == 2
        assert "error:" in err and "delta" in err

    @pytest.mark.parametrize("big_p", ["nan", "inf", "0", "-1", "1e200"])
    def test_bad_big_p_is_named(self, capsys, big_p):
        # the default T derives from P: the error names P, not T or its helper
        code, out, err = run_cli(["audit", "--big-p", big_p], capsys)
        assert code == 2
        assert out == ""
        assert "error:" in err and "big_p" in err
        assert "big_t" not in err and "cells_per_eighth" not in err

    @pytest.mark.parametrize("command", ["crosscheck", "fisher-phi"])
    def test_small_grid_without_big_t_is_named(self, capsys, command):
        # N = 256 is a grid size, but the default T needs N >= 512: the
        # error names the flags, not aligned_half_width's argument
        code, out, err = run_cli([command, "--grid-n", "256"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--grid-n" in err and "--big-t" in err
        assert "cells_per_eighth" not in err

    @pytest.mark.parametrize(
        "argv, given, absent",
        [
            (["fisher-phi", "--delta", "1e150"], "delta", ("big_t", "big_p")),
            (["fisher-phi", "--delta", "1e-150"], "delta", ("big_t", "big_p")),
            (["audit", "--big-p", "1e-149"], "big_p", ("big_t", "delta")),
        ],
    )
    def test_derived_scale_out_of_range_names_its_source(
        self, capsys, argv, given, absent
    ):
        # P = 3/(2*delta) and T = 4*pi*32/P land outside the scale range
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "error:" in err and given in err
        for name in absent:
            assert name not in err

    def test_grid_size_is_capped(self, capsys):
        # the analytic engine allocates no grid, even if the cap were lost
        cap = model._MAX_POINTS
        assert cap >= 2**20
        assert run_cli(["fisher-phi", "--grid-n", str(cap)], capsys)[0] == 0
        code, out, err = run_cli(["fisher-phi", "--grid-n", str(2 * cap)], capsys)
        assert code == 2
        assert out == ""
        assert "error:" in err and str(cap) in err
        # the floor: the default T needs N >= 512, even on the analytic engine
        assert run_cli(["fisher-phi", "--grid-n", "512"], capsys)[0] == 0
        code, out, err = run_cli(["fisher-phi", "--grid-n", "256"], capsys)
        assert code == 2
        assert out == ""
        assert "error:" in err and "--grid-n 256" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["dj", "--trials", "100000001"],
            ["dj", "--trials", "10000000000000"],
            ["estimate", "--shots", "10000000000000", "--replicas", "1"],
        ],
    )
    def test_draw_count_is_capped(self, capsys, monkeypatch, argv):
        def no_draw(*args):
            raise AssertionError("drew outcomes for an over-cap count")

        monkeypatch.setattr(experiments, "_count_hits", no_draw)
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "error:" in err and str(experiments._MAX_DRAWS) in err

    @pytest.mark.parametrize(
        "replicas", [experiments._MAX_REPLICAS + 1, 10_000_000_000_000]
    )
    def test_replica_count_is_capped(self, capsys, monkeypatch, replicas):
        def no_draw(*args):
            raise AssertionError("drew outcomes for an over-cap replica count")

        monkeypatch.setattr(experiments, "_count_hits", no_draw)
        code, out, err = run_cli(
            ["estimate", "--shots", "1", "--replicas", str(replicas)], capsys
        )
        assert code == 2
        assert out == ""
        assert "error:" in err and str(experiments._MAX_REPLICAS) in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["dj", "--seed", "-1", "--trials", "10"],
            ["estimate", "--seed", "-3", "--replicas", "2"],
            ["estimate", "--seed", str(-(2**130)), "--replicas", "2"],
        ],
    )
    def test_negative_seed_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: seed material must be non-negative")
        assert "Traceback" not in err

    def test_axis_count_is_capped(self, capsys):
        cap = cli._MAX_AXIS_COUNT
        assert len(cli._axis(f"0:1:{cap}")) == cap
        code, out, err = run_cli(["fisher-r", "--r", f"0:1:{cap + 1}"], capsys)
        assert code == 2
        assert out == ""
        assert "error:" in err and str(cap) in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fisher-phi", "--engine", "all", "--grid-n", "512"],
            ["fisher-r"],
            ["crosscheck", "--grid-n", "512", "--tol", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_table_rows_are_capped(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "_MAX_ROWS", 6)
        phis = ["--phi", "0.3,0.6,0.9"]
        assert run_cli([*argv, "--r", "0,0.5", *phis], capsys)[0] == 0

        def refused(*args):
            raise AssertionError("computed a refused table")

        monkeypatch.setattr(stats, "_sweep", refused)
        monkeypatch.setattr(grid, "phase_response", refused)
        monkeypatch.setattr(quadrature, "quadrature_responses", refused)
        code, out, err = run_cli([*argv, "--r", "0,0.5,1", *phis], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--r" in err and "--phi" in err


# each command that takes --r, and its exit code at r = +-P: estimate
# refuses the constant mask there as unidentifiable
_THRESHOLD_RUNS = pytest.mark.parametrize(
    "argv, code_at_p",
    [
        (["fisher-phi", "--phi", "0.3"], 0),
        (["fisher-phi", "--engine", "all", "--grid-n", "512", "--phi", "0.3"], 0),
        (["fisher-r", "--phi", "0.3"], 0),
        (["crosscheck", "--grid-n", "512", "--phi", "0.3"], 0),
        (["audit", "--phi", "0.3"], 0),
        (["dj", "--trials", "20"], 0),
        (["estimate", "--shots", "5", "--replicas", "2"], 2),
    ],
    ids=["fisher-phi", "fisher-phi-all", "fisher-r", "crosscheck", "audit", "dj",
         "estimate"],
)
_SIGNS = pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])


class TestThresholdDomain:
    """Every command takes a threshold on the closed domain [-P, P], with no
    rounding slack, and a start:stop:count axis ends at stop itself."""

    @_THRESHOLD_RUNS
    @_SIGNS
    def test_the_next_double_past_p_is_refused(self, capsys, argv, code_at_p, sign):
        past = sign * math.nextafter(BIG_P, math.inf)
        code, out, err = run_cli([*argv, f"--r={past!r}"], capsys)
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: [^\n]*outside[^\n]*\n", err)

    @_THRESHOLD_RUNS
    @_SIGNS
    def test_p_keeps_each_command_s_exit_code(self, capsys, argv, code_at_p, sign):
        code, out, err = run_cli([*argv, f"--r={sign * BIG_P!r}"], capsys)
        assert code == code_at_p
        assert re.fullmatch(r"(error: [^\n]*\n)?", err) and bool(err) == bool(code)

    # counts at which start + (count - 1)*step lands an ulp past P
    @pytest.mark.parametrize("count", [1042, 2083, 2126, 2166])
    def test_an_axis_ends_at_its_stop(self, count):
        for start, stop in ((0.0, BIG_P), (-BIG_P, BIG_P), (0.0, -BIG_P), (BIG_P, -BIG_P)):
            values = cli._axis(f"{start!r}:{stop!r}:{count}")
            assert len(values) == count
            assert (values[0], values[-1]) == (start, stop)
            assert max(map(abs, values)) <= BIG_P

    def test_an_axis_ending_at_p_runs_on_every_engine(self, capsys):
        code, out, err = run_cli(
            ["fisher-phi", "--engine", "all", "--r", f"0:{BIG_P!r}:1042", "--phi", "0.3"],
            capsys,
        )
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        assert len(rows) == 1042 and float(rows[-1][header.index("r")]) == BIG_P


# one small run of every command
_SMALL_RUNS = pytest.mark.parametrize(
    "argv",
    [
        ["audit"],
        ["gap"],
        ["fisher-phi", "--phi", "0.3"],
        ["fisher-r", "--r", "0.5"],
        ["dj", "--trials", "20"],
        ["estimate", "--shots", "5", "--replicas", "2"],
        ["crosscheck", "--grid-n", "512", "--r", "0", "--phi", "0.3"],
    ],
    ids=lambda argv: argv[0],
)


@_SMALL_RUNS
@pytest.mark.parametrize("target", ["directory", "missing_parent", "empty"])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv, target):
    out = {
        "directory": tmp_path,
        "missing_parent": tmp_path / "missing" / "t.csv",
        "empty": "",  # an empty path names no file; it is not stdout
    }[target]
    code, stdout, err = run_cli(argv + ["--out", str(out)], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err
    assert stdout == ""


@_SMALL_RUNS
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_file_holds_exactly_the_stdout_table(capsys, tmp_path, argv, fmt):
    argv = argv + ["--format", fmt]
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0 and stdout
    out = tmp_path / "table"
    code, nothing, err = run_cli(argv + ["--out", str(out)], capsys)
    assert (code, nothing, err) == (0, "", "")
    assert out.read_bytes() == stdout.encode("utf-8")


class TestGridEngine:
    def test_one_prepare_and_one_transform_per_sweep(self, capsys, monkeypatch):
        import numpy as np

        # the sweep evaluates the Gaussian through _support_gaussian, which
        # the stage-by-stage circuit of tests/circuit_oracle.py also calls:
        # each entry is a Gaussian evaluation or a transform with its length
        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(a, n=None, *args, **kwargs):
                calls.append(name if module is grid else (name, n or len(a)))
                return original(a, n, *args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(grid, "_support_gaussian")
        for name in np.fft.__all__:
            if not name.endswith(("freq", "shift")):  # index helpers, not transforms
                counted(np.fft, name)
        assert not hasattr(cli, "run_circuit")
        # the CLI's T keeps the support at 613 samples at every N: one
        # 2048-point autocorrelation pair, whatever the grid
        for argv in (
            ["crosscheck"],
            ["fisher-phi", "--fig4", "--engine", "all"],
            ["crosscheck", "--grid-n", str(2**19), "--r", "0", "--phi", "0"],
        ):
            calls.clear()
            assert run_cli(argv, capsys)[0] == 0
            assert calls == [
                "_support_gaussian", ("rfft", 2048), ("irfft", 2048)
            ], argv

    def test_one_prefix_sum_pass_and_one_phase_gate_per_sweep(
        self, capsys, monkeypatch
    ):
        # the grid splits every mask of a sweep from one prefix-sum pass over
        # their distinct cuts, and the closed form, the quadrature and the
        # grid each gate the phase axis once per sweep (see
        # test_one_integration_per_folded_piece)
        passes, gates = [], []
        prefix_sums = grid.PhaseResponse._prefix_sums

        def counted_pass(self, ks):
            passes.append(len(ks))
            return prefix_sums(self, ks)

        monkeypatch.setattr(grid.PhaseResponse, "_prefix_sums", counted_pass)
        for module in (stats, grid, quadrature):
            name = module.__name__.rsplit(".", 1)[1]

            def counted_gate(phis, name=name, original=module._phases):
                gates.append(name)
                return original(phis)

            monkeypatch.setattr(module, "_phases", counted_gate)
        grid_fine = ["crosscheck", "--grid-n", str(2**18), "--r", f"0,{BIG_P / 4!r}",
                     "--phi", f"0:{math.pi / 2!r}:5"]
        # cuts: each step below P ends a run of ones at its threshold and at
        # the domain edge, which they share; the step at P has no ones
        for argv, cuts, want in (
            (["fisher-phi", "--fig4", "--engine", "all"], 5, ["stats", "grid"]),
            (["crosscheck"], 5, ["quadrature", "stats", "grid"]),
            (grid_fine, 3, ["quadrature", "stats", "grid"]),
        ):
            passes.clear()
            gates.clear()
            assert run_cli(argv, capsys)[0] == 0
            assert passes == [cuts], argv
            assert sorted(gates) == sorted(want), argv

    @pytest.mark.parametrize("engine, gates", [
        ("analytic", ["stats"]),
        # the CLI checks the axis before the grid is built, and the public
        # PhaseResponse.fishers checks its own
        ("grid", ["cli", "grid"]),
        # fisher_phis refuses a bad phase before the grid is built
        ("all", ["grid", "stats"]),
    ], ids=["analytic", "grid", "all"])
    def test_fisher_phi_checks_its_phase_axis_once_per_engine(
        self, engine, gates, capsys, monkeypatch
    ):
        calls = []
        for module in (cli, stats, grid):
            name = module.__name__.rsplit(".", 1)[1]

            def counted(phis, name=name, original=module._phases):
                calls.append(name)
                return original(phis)

            monkeypatch.setattr(module, "_phases", counted)
        assert run_cli(["fisher-phi", "--fig4", "--engine", engine], capsys)[0] == 0
        assert sorted(calls) == gates

    @pytest.mark.parametrize(
        "argv, masks, pieces",
        [
            # cuts 0, P/8, P/4, P/2, P; the step at P is constant
            (["crosscheck"], 5, 4),
            # cuts 0, P/4, P
            (["crosscheck", "--grid-n", str(2**18), "--r", f"0,{BIG_P / 4!r}",
              "--phi", f"0:{math.pi / 2!r}:5"], 2, 2),
            # -P/4 folds onto P/4: cuts 0, P/8, P/4, P
            (["crosscheck", f"--r={-BIG_P / 4!r},{BIG_P / 8!r}", "--phi", "0:1.5:5"],
             2, 3),
            # the window (-P/2, P/2] alone: cuts 0, P/2, P
            (["gap"], 1, 2),
        ],
        ids=["crosscheck", "crosscheck-2^18", "crosscheck-negative", "gap"],
    )
    def test_one_integration_per_folded_piece(
        self, argv, masks, pieces, capsys, monkeypatch
    ):
        # a command integrates the envelope once per piece of [0, P] between
        # its masks' folded cuts, in one sweep over every mask, and reads the
        # sweep's column through one phase gate, never one mask or one phase
        # at a time
        integrated, sweeps, gates = [], [], []
        integrate, sweep = quadrature._integrate, quadrature.quadrature_responses

        def counted_integrate(f, a, b, budget):
            integrated.append((a, b))
            return integrate(f, a, b, budget)

        def counted_sweep(p, fs):
            sweeps.append(len(fs))
            return sweep(p, fs)

        def counted_gate(phis, original=quadrature._phases):
            gates.append(phis)
            return original(phis)

        def refused(*args):
            raise AssertionError("read one mask or one phase at a time")

        monkeypatch.setattr(quadrature, "_integrate", counted_integrate)
        monkeypatch.setattr(quadrature, "quadrature_responses", counted_sweep)
        monkeypatch.setattr(quadrature, "_phases", counted_gate)
        monkeypatch.setattr(quadrature.QuadratureResponse, "at", refused)
        assert run_cli(argv, capsys)[0] == 0
        assert sweeps == [masks]
        assert len(gates) == 1
        # the pieces tile [0, P] from 0 upwards, each integrated once
        assert len(integrated) == pieces
        assert integrated[0][0] == 0.0
        assert all(a < b for a, b in integrated)
        assert [a for a, _ in integrated[1:]] == [b for _, b in integrated[:-1]]

    def test_fisher_r_gates_its_phase_axis_once(self, capsys, monkeypatch):
        # fisher-r --fig5: 63 thresholds, 5 phases, one sweep
        gates, cosines = [], []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def cos(self, x):
                cosines.append(x)
                return math.cos(x)

        def counted_gate(phis, original=stats._phases):
            gates.append(phis)
            return original(phis)

        monkeypatch.setattr(stats, "math", CountingMath())
        monkeypatch.setattr(stats, "_phases", counted_gate)
        code, out, _ = run_cli(["fisher-r", "--fig5"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 1 + 63 * 5
        assert len(gates) == 1
        assert len(cosines) == 5

    def test_closed_form_runs_once_per_threshold(self, capsys, monkeypatch):
        # one sweep: one containment gate, and one record per threshold,
        # whose threshold passes _inside once
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
        for argv, thresholds in (
            (["crosscheck"], 5),
            (["fisher-phi", "--fig4"], 5),
            (["fisher-phi", "--fig4", "--engine", "all"], 5),
            (["fisher-r", "--fig5"], 63),
            (["audit"], 1),
            (["estimate", "--seed", "0"], 1),
        ):
            records.clear()
            gates.clear()
            assert run_cli(argv, capsys)[0] == 0
            assert len(records) == len(set(records)) == thresholds, argv
            assert len(gates) == 1, argv

    def test_erf_calls_per_command(self, capsys, monkeypatch):
        # one erf(2*P*delta) per sweep and one erf(2*r*delta) per threshold
        # record; dj takes one per row, and its constant row's analytic
        # error rate reuses that row's p_x0
        calls = []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def erf(self, x):
                calls.append(x)
                return math.erf(x)

        for module in (stats, experiments):
            monkeypatch.setattr(module, "math", CountingMath())
        for argv, erfs in (
            (["fisher-phi", "--fig4"], 6),
            (["audit"], 2),
            (["estimate", "--seed", "0"], 2),
            (["fisher-r", "--fig5"], 64),
            (["dj"], 3),
            (["crosscheck"], 6),
        ):
            calls.clear()
            assert run_cli(argv, capsys)[0] == 0
            assert len(calls) == erfs, argv

    def test_fisher_at_saturated_phases_is_the_grid_limit(self, capsys):
        code, out, _ = run_cli(
            ["fisher-phi", "--engine", "grid", "--r", f"0,{BIG_P / 8!r},{BIG_P!r}",
             "--phi", f"0,{PI!r}"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["phi", "r", "fisher_grid"]
        response = phase_response(canonical(), 4096)
        for phi, r, fisher in rows:
            a0, a1 = response.split(PiecewiseBinaryFunction.step(float(r), BIG_P))
            # p = 1 to rounding at phi = 0 and pi: dp^2/(p(1-p)) tends to 16|A0||A1|
            assert float(fisher) == pytest.approx(16.0 * abs(a0) * abs(a1), rel=1e-12)
        by_r = {float(r): float(f) for _, r, f in rows}
        assert by_r[0.0] == pytest.approx(4.0, rel=1e-6)
        assert by_r[BIG_P] == 0.0  # constant mask

    def test_fisher_near_saturation_is_well_conditioned(self, capsys):
        # p(1 - p) ~ 1e-11 here: last-bit changes of A0 or A1 must not show
        argv = ["fisher-phi", "--engine", "grid", "--grid-n", "8192", "--r", "0.5",
                "--phi", "3.14159"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        printed = float(parse_csv(out)[1][0][2])
        # the T the CLI resolves at 8192 points: 64 cells per P/8
        p = ProcedureParams(0.0, DELTA, model.aligned_half_width(BIG_P, 8192, 64), BIG_P)
        a0, a1 = phase_response(p, 8192).split(PiecewiseBinaryFunction.step(0.5, BIG_P))
        cos_sq = math.cos(3.14159) ** 2
        assert grid._fishers(a0, a1, [cos_sq]) == [printed]
        for scale0, scale1 in [(1 - 1e-16, 1.0), (1 + 3e-16, 1.0), (1.0, 1 - 4e-16),
                               (1.0, 1 + 4e-16), (1 + 2e-16, 1 - 2e-16)]:
            (moved,) = grid._fishers(a0 * scale0, a1 * scale1, [cos_sq])
            assert moved == pytest.approx(printed, rel=1e-12)


class TestDefaultHalfWidth:
    """The T the CLI derives from --grid-n when --big-t is not given."""

    @staticmethod
    def resolved(grid_n):
        args = cli.build_parser().parse_args(["crosscheck", "--grid-n", str(grid_n)])
        return cli._resolve_params(args)

    @pytest.mark.parametrize("grid_n", [512, 1024, 2048, 4096])
    def test_up_to_the_default_grid_t_is_unchanged(self, grid_n):
        assert self.resolved(grid_n) == canonical(grid_n)
        assert self.resolved(grid_n).big_t == 4.0 * PI * 32 / BIG_P

    @pytest.mark.parametrize("grid_n", [2**k for k in range(13, 25)])
    def test_above_it_each_doubling_halves_the_cell(self, grid_n):
        p = self.resolved(grid_n)
        dy = PI / (2.0 * p.big_t)
        assert dy == pytest.approx(BIG_P / (grid_n / 16), rel=1e-12)
        # dx stays the default grid's
        assert 2.0 * p.big_t / grid_n == pytest.approx(2.0 * canonical().big_t / 4096)
        # every Fig. 4 threshold and the domain edge P sit on cell edges
        thresholds = (0.0, BIG_P / 8, BIG_P / 4, BIG_P / 2, BIG_P, -BIG_P)
        assert grid._cell_edge_note(p, thresholds).endswith(
            "every threshold on a cell edge"
        )


class TestNoPerRowRecords:
    """The library hands the CLI columns: no layer builds a record per row
    for the next layer to take apart."""

    def test_fig4_builds_no_fisher_report(self, capsys, monkeypatch):
        built = []

        class CountedReport(stats.FisherReport):
            __slots__ = ()

            def __new__(cls, *args, **kwargs):
                built.append(cls)
                return super().__new__(cls, *args, **kwargs)

            @classmethod
            def _make(cls, iterable):
                built.append(cls)
                return super()._make(iterable)

        monkeypatch.setattr(stats, "FisherReport", CountedReport)
        code, out, _ = run_cli(["fisher-phi", "--fig4"], capsys)
        assert code == 0 and len(out.splitlines()) == 1 + 165
        assert built == []
        # the one-phase read builds its one record, and the count sees it
        assert type(stats.fisher_phi(canonical(), 0.0, 0.3)) is CountedReport
        assert built == [CountedReport]

    def test_audit_table_is_the_library_columns(self, capsys, monkeypatch):
        returned = []
        original = cli.heisenberg_audit

        def recorded(*args):
            returned.append(original(*args))
            return returned[-1]

        monkeypatch.setattr(cli, "heisenberg_audit", recorded)
        code, out, _ = run_cli(["audit"], capsys)
        assert code == 0
        (table,) = returned
        # no row dicts: the printed table is the column map stats returns
        assert type(table) is dict
        assert all(type(cells) is list and len(cells) == 15 for cells in table.values())
        assert out.splitlines()[0] == ",".join(table)

    def test_estimate_keeps_no_per_replica_float(self, capsys, monkeypatch):
        summaries = []
        original = experiments.replicated_mse

        def recorded(*args):
            summaries.append(original(*args))
            return summaries[-1]

        monkeypatch.setattr(experiments, "replicated_mse", recorded)
        code, out, _ = run_cli(["estimate", "--seed", "0"], capsys)
        assert code == 0 and len(out.splitlines()) == 2002
        (s,) = summaries
        for field in s._fields:
            value = getattr(s, field)
            if isinstance(value, (tuple, list)):
                assert not any(isinstance(v, float) for v in value), field
        # the estimates and squared errors live once per distinct hit count
        assert len(s.hits) == 2000
        assert set(s.per_count) == set(s.hits)
        assert len(s.per_count) < len(s.hits)


class TestSchemas:
    def test_fisher_phi_analytic_columns(self, capsys):
        code, out, _ = run_cli(["fisher-phi", "--phi", "0.4", "--r", "0"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "phi", "r", "fisher", "variance_bound", "mean_bound", "delta_phi",
            "singular_limit",
        ]
        assert len(rows) == 1

    def test_fisher_phis_keys_are_the_printed_analytic_columns(self, capsys):
        # the sweep extends each column by the name stats gives it
        code, out, _ = run_cli(["fisher-phi", "--phi", "0.4", "--r", "0"], capsys)
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header[:2] == ["phi", "r"]
        assert list(stats.fisher_phis(canonical(), (0.0,), (0.4,))) == header[2:]

    def test_fisher_phi_all_engine_columns(self, capsys):
        code, out, _ = run_cli(
            ["fisher-phi", "--phi", "0.9", "--r", "0", "--engine", "all"], capsys
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-3:] == ["fisher_grid", "comparable", "max_pairwise_dev"]
        row = dict(zip(header, rows[0]))
        assert row["comparable"] == "true"
        assert float(row["max_pairwise_dev"]) <= 1e-3

    def test_fisher_phi_all_engine_off_edge_threshold_is_not_comparable(self, capsys):
        # r = 0.3 falls inside a conjugate cell: its grid column carries an
        # error first order in the cell width (1.14e-2 here)
        code, out, _ = run_cli(
            ["fisher-phi", "--phi", "0.785", "--r", f"0.3,0,{BIG_P / 8!r}",
             "--engine", "all"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        cells = [dict(zip(header, row)) for row in rows]
        assert [row["comparable"] for row in cells] == ["false", "true", "true"]
        assert float(cells[0]["max_pairwise_dev"]) > 1e-2
        p = canonical()
        assert grid._cell_edge_note(p, (0.3, 0.0, BIG_P / 8)).endswith(
            "thresholds off a cell edge: r = 0.3"
        )

    def test_fisher_phi_all_engine_off_edge_domain_is_not_comparable(self, capsys):
        # --big-t 200 puts the domain edge P, where the mask drops to 0,
        # inside a conjugate cell (P/dy = 270.09) while r = 0 stays on a cell
        # edge: the jump at P carries the same first-order error as an
        # off-edge threshold, so no row is comparable
        argv = ["fisher-phi", "--phi", "0.7", "--r", "0", "--engine", "all"]
        rows = {}
        for extra in ([], ["--big-t", "200"]):
            code, out, _ = run_cli(argv + extra, capsys)
            assert code == 0
            header, (row,) = parse_csv(out)
            rows[bool(extra)] = dict(zip(header, row))
        assert rows[False]["comparable"] == "true"
        assert rows[True]["comparable"] == "false"
        p = canonical()._replace(big_t=200.0)
        assert not grid._off_cell_edge(p, 0.0) and grid._off_cell_edge(p, BIG_P)
        assert grid._cell_edge_note(p, (0.0,)).endswith(
            f"domain edge P = {BIG_P!r} off a cell edge (P/dy = 270.09)"
        )

    def test_fisher_r_columns(self, capsys):
        code, out, _ = run_cli(["fisher-r", "--r", "0.5", "--phi", "1.2"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["phi", "r", "fisher_r"]
        assert len(rows) == 1

    def test_dj_columns(self, capsys):
        code, out, _ = run_cli(["dj", "--trials", "200", "--seed", "0"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "label", "r", "truth", "p_x0", "trials", "classified_constant",
            "classified_balanced", "empirical_error_rate", "analytic_error_rate",
        ]
        assert [r[0] for r in rows] == [
            "requested", "balanced_reference", "constant_reference",
        ]

    def test_estimate_columns(self, capsys):
        code, out, _ = run_cli(
            ["estimate", "--shots", "40", "--replicas", "5", "--seed", "1"], capsys
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "replica", "phi_hat", "n_shots", "empirical_mse", "crb", "mse_over_crb",
        ]
        assert len(rows) == 6
        assert rows[-1][0] == "-1"

    def test_crosscheck_columns(self, capsys):
        code, out, _ = run_cli(["crosscheck", "--phi", "0.7", "--r", "0"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "phi", "r", "p_analytic", "p_quadrature", "p_grid", "max_pairwise_dev",
        ]
        row = dict(zip(header, rows[0]))
        assert float(row["max_pairwise_dev"]) <= 1e-4

    def test_audit_columns(self, capsys):
        code, out, _ = run_cli(["audit"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "phi", "r", "fisher", "variance_bound", "mean_bound_generator_f",
            "mean_bound_generator_2f", "dphi_sqrt_fisher", "optimal",
        ]
        assert len(rows) == 15
        assert all(dict(zip(header, r))["optimal"] == "true" for r in rows)

    def test_gap_columns_and_default_regime(self, capsys):
        code, out, _ = run_cli(["gap", "--phi", str(PI / 2)], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "phi", "mask_product", "signed_gap", "gap",
            "leading_order_prediction", "ratio",
        ]
        row = dict(zip(header, rows[0]))
        assert float(row["mask_product"]) == pytest.approx(0.1, rel=1e-12)
        assert float(row["ratio"]) == pytest.approx(1.0, abs=0.1)
        assert float(row["signed_gap"]) <= 0.0


def _listed(epilog, label):
    """The column names, each followed by ", " but the last, that the epilog
    lists after label."""
    (names,) = re.findall(re.escape(label) + r" (\w+(?:, \w+)*)", epilog)
    return names.split(", ")


class TestHelpEpilogs:
    """Each subcommand's --help epilog lists the header its table prints."""

    @pytest.mark.parametrize("argv", [
        ["fisher-phi", "--phi", "0.3"],
        ["fisher-phi", "--phi", "0.3", "--engine", "grid"],
        ["fisher-phi", "--phi", "0.3", "--engine", "all"],
        ["fisher-r", "--r", "0.5"],
        ["dj", "--trials", "20"],
        ["estimate", "--shots", "5", "--replicas", "2"],
        ["crosscheck", "--grid-n", "512", "--r", "0", "--phi", "0.3"],
        ["audit"],
        ["gap"],
    ], ids=" ".join)
    def test_epilog_lists_exactly_the_printed_header(self, argv, capsys, monkeypatch):
        # argparse's width when stdout is not a terminal; it wraps the epilog
        # at spaces, and breaks a word longer than a line
        monkeypatch.setenv("COLUMNS", "80")
        code, text, _ = run_cli([argv[0], "--help"], capsys)
        assert code == 0
        epilog = " ".join(text.split())
        if argv[0] != "fisher-phi":
            listed = _listed(epilog, "columns:")
        else:
            analytic = _listed(epilog, "columns (analytic):")
            grid_only = _listed(epilog, "engine=grid:")
            engine = argv[argv.index("--engine") + 1] if "--engine" in argv else None
            listed = {
                None: analytic,
                "grid": grid_only,
                "all": analytic
                + [c for c in grid_only if c not in analytic]
                + _listed(epilog, "engine=all: both plus"),
            }[engine]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header == listed
        # each name is printed whole, on one line of the --help text
        for name in header:
            assert re.search(rf"(?<!\w){name}(?!\w)", text), name


class TestDeterminism:
    def test_seeded_command_is_byte_identical(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["dj", "--trials", "2000", "--seed", "7"]
        assert run_cli(args + ["--out", str(out1)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(out2)], capsys)[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_rerun_identical(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = [
            "estimate", "--shots", "30", "--replicas", "10", "--seed", "3",
            "--format", "json",
        ]
        assert run_cli(args + ["--out", str(out1)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(out2)], capsys)[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_different_seed_changes_output(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(
            ["estimate", "--shots", "30", "--replicas", "10", "--seed", "3",
             "--out", str(out1)], capsys,
        )[0] == 0
        assert run_cli(
            ["estimate", "--shots", "30", "--replicas", "10", "--seed", "4",
             "--out", str(out2)], capsys,
        )[0] == 0
        assert out1.read_bytes() != out2.read_bytes()


def _nan(sign):
    # a new NaN object on every draw: it equals no cell, itself included
    return math.copysign(float("nan"), sign)


_FLOAT_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 1.5, math.inf, -math.inf, math.nan]),
    st.sampled_from([1.0, -1.0]).map(_nan),
    st.floats(),
)
# one cell type per column, drawn from few values so that cells repeat
_CELLS = {
    "float": _FLOAT_CELLS,
    "float_and_np": st.one_of(_FLOAT_CELLS, _FLOAT_CELLS.map(np.float64)),
    "int": st.one_of(st.sampled_from([0, -1, 3]), st.integers()),
    "bool": st.booleans(),
    "str": st.sampled_from(["balanced", "constant", "neither"]),
}


# blocks of cells that are equal but distinct objects, and print as the
# cell-by-cell writer prints each: signed zeros, fresh NaNs of either sign,
# and a numpy double beside the float of its value
_ALIKE = st.sampled_from([
    lambda i: -0.0 if i % 2 else 0.0,
    lambda i: _nan(-1.0 if i % 3 else 1.0),
    lambda i: np.float64(0.1) if i % 2 else 0.1,
])


@st.composite
def _tables(draw):
    """A block length and a table's columns of cells, all of one length,
    header-only and a short last block included.

    Each column holds one cell type.  It is drawn cell by cell, as an inner
    axis (its first block's objects in every block), or block by block,
    each block one object repeated, cell by cell, or (for floats) equal but
    distinct objects.
    """
    block = draw(st.integers(1, 4))
    n = draw(st.integers(0, 9))
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=5))
    columns = []
    for kind in kinds:
        cell = _CELLS[kind]
        how = draw(st.sampled_from(["cells", "axis", "blocks"]))
        if how == "cells":
            columns.append(draw(st.lists(cell, min_size=n, max_size=n)))
            continue
        if how == "axis":
            first = draw(st.lists(cell, min_size=block, max_size=block))
            columns.append((first * n)[:n])
            continue
        column = []
        for start in range(0, n, block):
            size = min(block, n - start)
            shape = draw(st.sampled_from(
                ["one", "cells", "alike"] if kind.startswith("float") else ["one", "cells"]
            ))
            if shape == "one":
                column += [draw(cell)] * size
            elif shape == "cells":
                column += draw(st.lists(cell, min_size=size, max_size=size))
            else:
                column += map(draw(_ALIKE), range(size))
        columns.append(column)
    return block, columns


def _emitted(table, fmt, block=0):
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        cli._emit(table, fmt, None, block)
    return buf.getvalue()


class TestCsvFormat:
    def test_nonfinite_spellings(self):
        # a NaN with its sign bit set still prints as nan
        cells = [math.nan, math.copysign(math.nan, -1.0), math.inf, -math.inf]
        assert [cell_csv(v) for v in cells] == ["nan", "nan", "inf", "-inf"]
        assert [cell_csv(v) for v in (True, False, 3, 0.1, -0.0)] == [
            "true", "false", "3", "0.10000000000000001", "-0"
        ]

    def test_nonfinite_cells_in_a_table(self, capsys):
        table = {"a": [math.inf, -math.inf], "b": [math.nan, 1.5]}
        cli._emit(table, "csv", None)
        assert capsys.readouterr().out == "a,b\ninf,nan\n-inf,1.5\n"

    def test_typed_template_spells_every_cell_type_as_before(self, capsys):
        table = {
            "flag": [True, False], "count": [3, -1], "label": ["balanced", "constant"],
            "x": [math.nan, math.copysign(math.nan, -1.0)], "y": [math.inf, -math.inf],
            "z": [-0.0, 0.1], "w": [np.float64(1.0 / 3.0), np.float64(-2.5e-300)],
        }
        cli._emit(table, "csv", None)
        out = capsys.readouterr().out
        assert out == reference_csv(table)
        assert out == (
            "flag,count,label,x,y,z,w\n"
            "true,3,balanced,nan,inf,-0,0.33333333333333331\n"
            "false,-1,constant,nan,-inf,0.10000000000000001,-2.5e-300\n"
        )

    def test_header_only_table(self, capsys):
        table = {"a": [], "b": []}
        cli._emit(table, "csv", None)
        assert capsys.readouterr().out == reference_csv(table) == "a,b\n"

    @example((3, [[0.0, -0.0, 0.0], [-0.0, 0.0, 0.0], [1.5, 1.5, 1.5]]))
    @example((1, [[float("nan"), math.copysign(float("nan"), -1.0), math.nan],
                  [np.float64(0.1), 0.1, np.float64(-0.0)], [1, 0, 1]]))
    @example((2, [[math.inf, -math.inf], [True, False], ["balanced", "balanced"]]))
    @example((1, [[0.5], [0], [False], ["constant"]]))
    @example((2, [[], []]))
    # block constants, an inner axis, a short last block and a % in a str
    @example((2, [[0.5, 0.5, -0.0, -0.0, 3.0], [1.5, -1.0, 1.5, -1.0, 1.5],
                  ["1%d", "1%d", "%s", "%", "%%"]]))
    # a column of one object spelled into the line template
    @example((2, [["%d%"] * 3, [0.5] * 3, [-0.0, 1.5, 2.5]]))
    @given(_tables())
    @settings(max_examples=300, deadline=None)
    def test_column_writer_matches_the_cell_by_cell_writer(self, drawn):
        block, cells = drawn
        columns = [f"c{k}" for k in range(len(cells))]
        table = dict(zip(columns, cells))
        assert _emitted(table, "csv", block) == reference_csv(table)
        assert _emitted(table, "csv") == reference_csv(table)
        # JSON zips the columns into one object per row
        assert _emitted(table, "json", block) == "".join(
            json.dumps({c: None if isinstance(v, float) and not math.isfinite(v)
                        else v for c, v in zip(columns, row)}, separators=(",", ":"))
            + "\n"
            for row in zip(*cells)
        )

    @pytest.mark.parametrize("argv", [
        ["fisher-phi"], ["fisher-phi", "--fig4", "--engine", "all"],
        ["fisher-phi", "--engine", "grid"], ["fisher-r"], ["dj"], ["estimate"],
        # every estimate clamped to phi_hat = 0
        ["estimate", "--shots", "1", "--replicas", "50", "--r", "2.0"],
        # an infinite bound: crb = inf, mse_over_crb = nan
        ["estimate", "--phi", "0", "--replicas", "5"],
        # the replica numbers on each side of a new digit, up to the cap, and
        # counts that leave some last digits a short share of the lines
        *(["estimate", "--replicas", str(n)]
          for n in (1, 2, 9, 10, 11, 19, 20, 21, 99, 100, 101, 1000, 1001,
                    1999, 100000)),
        ["crosscheck"], ["audit"], ["gap"],
        # equal zeros of both signs in one column
        ["crosscheck", "--r", "0,-0.0", "--phi", "0,-0.0"],
        # one-row blocks, and one block
        ["fisher-phi", "--r", "0:2.1213203435596424:7", "--phi", "0.3", "--engine", "all"],
        ["fisher-phi", "--r", "0", "--engine", "all"],
        # signed zeros as a phase block's constant and in the repeated r axis
        ["fisher-r", "--r", "0,-0.0", "--phi", "0,-0.0"],
        # thresholds at both domain edges
        ["crosscheck", "--r", "2.1213203435596424,-2.1213203435596424"],
    ], ids=" ".join)
    def test_default_tables_match_the_cell_by_cell_writer(self, argv, capsys, monkeypatch):
        tables = []
        emit = cli._emit

        def recording_emit(table, fmt, out, block=0):
            tables.append(table)
            emit(table, fmt, out, block)

        # dj, estimate and crosscheck emit from their own module
        monkeypatch.setattr(cli, "_emit", recording_emit)
        monkeypatch.setattr(engine_commands, "_emit", recording_emit)
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        if argv[0] == "estimate":
            # the estimate CSV is spelled per distinct hit count, not by _emit:
            # it must match the columns cmd_estimate builds for --format json
            assert tables == []
            args = cli.build_parser().parse_args(argv)
            phi = args.phi if args.phi is not None else PI / 4
            tables.append(engine_commands.cmd_estimate(
                cli._resolve_params(args), args.r, phi, args.shots,
                args.replicas, args.seed,
            ))
        (table,) = tables
        assert out == reference_csv(table)


class TestJsonFormat:
    def test_rows_parse_and_nonfinite_maps_to_null(self, capsys):
        code, out, _ = run_cli(
            ["estimate", "--shots", "20", "--replicas", "3", "--seed", "0",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 4
        assert rows[-1]["replica"] == -1
        assert rows[-1]["phi_hat"] is None  # aggregate row has no point estimate

    def test_singular_delta_phi_is_null(self, capsys):
        code, out, _ = run_cli(
            ["fisher-phi", "--phi", str(PI / 2), "--r", "0", "--format", "json"],
            capsys,
        )
        assert code == 0
        row = json.loads(out.splitlines()[0])
        assert row["delta_phi"] is None
        assert row["singular_limit"] is True


class TestPresets:
    def test_fig4_structure(self, capsys):
        code, out, _ = run_cli(["fisher-phi", "--fig4"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 5 * 33
        r_values = sorted({float(r[header.index("r")]) for r in rows})
        expected = [0.0, BIG_P / 8, BIG_P / 4, BIG_P / 2, BIG_P]
        assert r_values == pytest.approx(expected, rel=1e-12)
        by_r = {}
        idx_r, idx_f, idx_phi = (
            header.index("r"), header.index("fisher"), header.index("phi"),
        )
        for row in rows:
            by_r.setdefault(float(row[idx_r]), {})[float(row[idx_phi])] = float(
                row[idx_f]
            )
        # a full-domain threshold kills the response everywhere
        assert all(v == 0.0 for v in by_r[BIG_P].values())
        # at the decision phase the information falls as the threshold grows
        mid = PI / 2
        decision = [by_r[r][mid] for r in expected[:-1]]
        assert decision == sorted(decision, reverse=True)
        # zero-threshold response dips to zero at the phase endpoints
        assert by_r[0.0][0.0] == 0.0
        assert by_r[0.0][PI] == pytest.approx(0.0, abs=1e-20)

    def test_fig5_small_threshold_ordering(self, capsys):
        code, out, _ = run_cli(["fisher-r", "--fig5"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 5 * 63
        idx_phi, idx_r, idx_f = (
            header.index("phi"), header.index("r"), header.index("fisher_r"),
        )
        smallest_r = BIG_P / 64.0
        at_small = {}
        for row in rows:
            if abs(float(row[idx_r]) - smallest_r) < 1e-12:
                at_small[float(row[idx_phi])] = float(row[idx_f])
        ordered = [at_small[phi] for phi in cli._FIG5_PHASES]
        assert ordered == sorted(ordered, reverse=True)
        assert ordered[0] > 0.0

    def test_phase_locked_sweep_is_zero(self, capsys):
        code, out, _ = run_cli(
            ["fisher-r", "--phi", "0", "--r", "0.2,0.9,1.6"], capsys
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert all(float(r[header.index("fisher_r")]) == 0.0 for r in rows)


class TestDjTable:
    def test_reference_rows(self, capsys):
        code, out, _ = run_cli(["dj", "--trials", "5000", "--seed", "0"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        table = {r[0]: dict(zip(header, r)) for r in rows}
        bal = table["balanced_reference"]
        assert float(bal["p_x0"]) == 0.0
        assert bal["truth"] == "balanced"
        assert bal["classified_constant"] == "0"
        assert float(bal["empirical_error_rate"]) == 0.0
        assert float(bal["analytic_error_rate"]) == 0.0
        con = table["constant_reference"]
        assert con["truth"] == "constant"
        assert float(con["analytic_error_rate"]) == pytest.approx(
            4.418050600711324e-05, rel=1e-10
        )
        assert float(con["empirical_error_rate"]) <= 2e-3

    # at 1 - 9e-13, within the 1e-12 relative rounding of +-P, p_x0 sits
    # 7e-16 below E
    @pytest.mark.parametrize("r", [
        BIG_P, -BIG_P, BIG_P * (1.0 - 9e-13), -BIG_P * (1.0 - 9e-13),
    ])
    def test_constant_rows_report_one_minus_the_mask_efficiency(self, r):
        # the constant reference reuses its p_x0, E itself; a requested r
        # within rounding of +-P but not on it still reports 1 - E
        p = canonical()
        table = engine_commands.cmd_dj(p, r, 10, 0)
        constant = [i for i, truth in enumerate(table["truth"]) if truth == "constant"]
        assert [table["label"][i] for i in constant] == [
            "requested", "constant_reference"
        ]
        for i in constant:
            assert table["analytic_error_rate"][i] == 1.0 - cvphase.mask_efficiency(p)

    @pytest.mark.parametrize(
        "trials, seed", [(2.9, 1), (3, 1.7), ("3", 1), (True, 1), (3, False)]
    )
    def test_non_integer_trials_or_seed_refused(self, monkeypatch, trials, seed):
        def no_draw(*args):
            raise AssertionError("drew outcomes for a refused run")

        monkeypatch.setattr(experiments, "sample_outcomes", no_draw)
        with pytest.raises(ParameterError, match="must be an integer"):
            engine_commands.cmd_dj(canonical(), 0.0, trials, seed)

    @pytest.mark.parametrize(
        "r", ["0.5", b"0.5", None], ids=["str", "bytes", "None"]
    )
    def test_threshold_must_be_a_real_number(self, monkeypatch, r):
        def no_draw(*args):
            raise AssertionError("drew outcomes for a refused run")

        monkeypatch.setattr(experiments, "sample_outcomes", no_draw)
        with pytest.raises(ParameterError) as info:
            engine_commands.cmd_dj(canonical(), r, 10, 0)
        assert str(info.value) == f"r must be a real number, got {r!r}"

    def test_numpy_integer_trials_stay_json_ints(self):
        table = engine_commands.cmd_dj(canonical(), 0.0, np.int64(40), np.int64(3))
        assert [type(trials) for trials in table["trials"]] == [int] * 3
        json.dumps(table)
        assert table == engine_commands.cmd_dj(canonical(), 0.0, 40, 3)

    def test_intermediate_threshold_has_no_truth(self, capsys):
        code, out, _ = run_cli(
            ["dj", "--r", "1.06", "--trials", "100", "--seed", "2"], capsys
        )
        assert code == 0
        header, rows = parse_csv(out)
        req = dict(zip(header, rows[0]))
        assert req["truth"] == "neither"
        assert req["empirical_error_rate"] == "nan"
        assert req["analytic_error_rate"] == "nan"

    @pytest.mark.parametrize("r", ["0", str(BIG_P / 8), str(BIG_P)])
    def test_each_row_draws_from_the_probability_it_prints(
        self, capsys, monkeypatch, r
    ):
        drawn = []
        original = experiments.sample_outcomes

        def recorded(prob, n, seed):
            drawn.append(prob)
            return original(prob, n, seed)

        monkeypatch.setattr(experiments, "sample_outcomes", recorded)
        code, out, _ = run_cli(["dj", "--r", r, "--trials", "100"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        # %.17g round-trips every double
        printed = [float(row[header.index("p_x0")]) for row in rows]
        assert drawn == printed

    @pytest.mark.parametrize(
        "argv",
        [
            # four ulps past P: outside [-P, P]
            ["dj", "--r", "2.1213203435596446"],
            ["dj", "--r", "-2.1213203435596446"],
            # the envelope is not contained in [-T, T]
            ["dj", "--big-t", "2"],
        ],
    )
    def test_refused_before_any_draw(self, capsys, monkeypatch, argv):
        def no_draw(*args):
            raise AssertionError("drew outcomes for a refused run")

        monkeypatch.setattr(experiments, "sample_outcomes", no_draw)
        code, out, err = run_cli([*argv, "--trials", "100"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


def test_unsupported_state_is_a_usage_error():
    # the Gaussian falls between grid samples; -W error turns a numpy warning
    # into a traceback
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "cvphase.cli", "crosscheck",
         "--x0", "0.24", "--delta", "0.001", "--big-t", "1000", "--big-p", "3",
         "--r", "0", "--phi", "0.3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr


def test_parser_is_reused_without_leaking_flags(capsys):
    # one process: a usage error that set flags, then two runs; each prints
    # exactly what it prints alone in a fresh interpreter
    sequence = [
        ["crosscheck", "--tol", "0.5", "--grid-n", "1024", "--phi", "1", "--nope"],
        ["estimate", "--shots", "30", "--replicas", "10", "--seed", "3"],
        ["crosscheck", "--r", "0", "--phi", "0:1.5:3", "--grid-n", "512",
         "--big-t", "20"],
    ]
    together = [run_cli(argv, capsys) for argv in sequence]
    alone = []
    for argv in sequence:
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "cvphase.cli", *argv],
            capture_output=True, text=True,
        )
        alone.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in together] == [2, 0, 0]
    assert together == alone


def test_console_script_help_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cvphase.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "fisher-phi" in proc.stdout


def test_a_module_run_imports_the_cli_once():
    # under -m the CLI runs as __main__, and the engine commands' module must
    # find it there rather than compile and run cvphase.cli a second time
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cvphase.cli",
         "dj", "--trials", "10"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "cvphase._engine_commands" in imported
    assert "cvphase.cli" not in imported
    # the engine commands' code is found in their module only
    assert not hasattr(cli, "_run_dj") and not hasattr(cli, "cmd_dj")


def test_table_commands_load_neither_numpy_nor_scipy():
    # only the grid and Monte-Carlo modules import numpy, so its submodules
    # appear only once a command runs one of them
    script = (
        "import io, sys, contextlib\n"
        "import cvphase, cvphase.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.startswith(('numpy.', 'scipy')))\n"
        "print(loaded())\n"
        "tables = [['audit'], ['gap'], ['fisher-phi', '--fig4'], ['fisher-r', '--fig5']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cvphase.cli.main(argv) for argv in tables]\n"
        "print(codes, loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cvphase.cli.main(['crosscheck', '--phi', '0.3', '--r', '0']),\n"
        "             cvphase.cli.main(['dj', '--trials', '100'])]\n"
        "print(codes, 'numpy.fft' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[0, 0, 0, 0] []", "[0, 0] True"]


def test_table_commands_load_neither_dataclasses_nor_inspect_nor_typing():
    # -S keeps the host's site hooks, which may import any of these, from
    # hiding a regression; each line is an exit code and what is loaded.
    # numbers is held out too: the number gates tell types apart without it;
    # and cmath: the closed forms take their phase factors from math
    script = (
        "import io, sys, contextlib\n"
        "import cvphase.cli\n"
        "tables = [['audit'], ['audit', '--format', 'json'], ['gap'],\n"
        "          ['fisher-phi', '--fig4'], ['fisher-r', '--fig5']]\n"
        "for argv in tables:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cvphase.cli.main(argv)\n"
        "    print(code, *sorted({'cmath', 'dataclasses', 'inspect', 'numbers',\n"
        "                         'typing'}\n"
        "                        & set(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(cvphase.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0"] * 5


# what a fresh interpreter holds after one command, one line each: the exit
# code, the cvphase submodules that ran their code, those registered in
# sys.modules, and whether json was loaded.  A module registered lazily stays
# a ModuleType subclass until its first attribute access runs its code.
_LOADED_AFTER = (
    "import io, sys, contextlib, types\n"
    "import cvphase.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cvphase.cli.main(sys.argv[1:])\n"
    "print(code)\n"
    "mods = {m[8:]: v for m, v in sys.modules.items() if m.startswith('cvphase.')}\n"
    "print(*sorted(m for m, v in mods.items() if type(v) is types.ModuleType))\n"
    "print(*sorted(mods))\n"
    "print('json' in sys.modules)\n"
)
_ENGINES = {"grid", "quadrature", "experiments"}
_LAYERS = {"cli", "errors", "model", "stats", *_ENGINES}


@pytest.mark.parametrize(
    "argv, engines",
    [
        ([], set()),  # a usage error: no command runs
        (["audit"], set()),
        (["gap"], {"quadrature"}),
        (["fisher-phi", "--fig4"], set()),
        (["fisher-r", "--fig5"], set()),
        (["dj", "--trials", "100"], {"experiments"}),
        (["estimate", "--replicas", "3"], {"experiments"}),
        (["fisher-phi", "--engine", "grid", "--phi", "0.3"], {"grid"}),
        (["crosscheck", "--phi", "0.3", "--r", "0"], {"grid", "quadrature"}),
        (["audit", "--format", "json"], set()),
        (["crosscheck", "--phi", "0.3", "--r", "0", "--format", "json"],
         {"grid", "quadrature"}),
    ],
)
def test_each_command_loads_only_its_engines(argv, engines):
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER, *argv], capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    code, ran, registered, json_loaded = proc.stdout.splitlines()
    ran, registered = set(ran.split()), set(registered.split())
    assert code == ("0" if argv else "2")
    assert ran & _ENGINES == engines, argv
    assert {"cli", "errors", "model", "stats"} <= ran
    # every layer is in sys.modules, run or not, for code that looks it up there
    assert _LAYERS <= registered
    assert json_loaded == str("--format" in argv)
    # a table command compiles none of the engine commands' code
    engine_command = argv[:1] in (["dj"], ["estimate"], ["crosscheck"])
    assert ("_engine_commands" in registered) == engine_command, argv
    assert ("_engine_commands" in ran) == engine_command, argv


# a bad value of one flag of each command, which its parser refuses
_BAD_FLAG_VALUE = {
    "fisher-phi": ["--r", "x"],
    "fisher-r": ["--phi", "1:2:1"],
    "dj": ["--trials", "x"],
    "estimate": ["--shots", "1.5"],
    "crosscheck": ["--grid-n", "z"],
    "audit": ["--format", "xml"],
    "gap": ["--phi", "x"],
}


@pytest.mark.parametrize("tail", ["--help", "--bogus", "bad value"])
@pytest.mark.parametrize("command", list(_BAD_FLAG_VALUE))
def test_a_command_parser_prints_what_the_full_parser_prints(command, tail, capsys):
    # main builds flags for the named subcommand only; help, usage errors
    # and exit codes read the same as from the parser of every command
    argv = [command, *(_BAD_FLAG_VALUE[command] if tail == "bad value" else [tail])]
    got = (cli.main(argv), *capsys.readouterr())
    with pytest.raises(SystemExit) as exit_info:
        cli.build_parser().parse_args(argv)
    want = (exit_info.value.code, *capsys.readouterr())
    assert got == want
    assert want[0] == (0 if tail == "--help" else 2)
    assert want[1 if tail == "--help" else 2]


def _main_with_the_full_parser(argv):
    """main as it was before it read a command's argv with that command's
    parser alone: the parser of every command parses argv and hands the
    subcommand's tokens to the subcommand's parser."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except cvphase.CvPhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@pytest.mark.parametrize(
    "argv",
    [
        ["fisher-phi", "--fig4", "extra"],
        ["crosscheck", "--r", "0", "--", "3"],
        ["crosscheck", "--grid-n=512", "--r", "0", "--phi", "0"],
        ["crosscheck", "--grid", "512", "--r", "0", "--phi", "0"],  # an abbreviation
        ["crosscheck", "--grid", "z"],
        ["audit", "--r", "1", "--phi", "0.3", "--r", "0.5"],  # a repeated flag
        ["gap", "--phi", "1", "--phi", "x"],
        ["fisher-r", "--r", "0.5", "--phi", "1", "--", "--phi", "2"],
        ["audit", "--phi=0.3", "--bogus", "x", "--r", "0"],
        ["dj", "--trials", "10", "--seed", "1", "--trials", "20"],
    ],
    ids=" ".join,
)
def test_a_command_argv_runs_as_under_the_full_parser(argv, capsys):
    # the one parse of a command's argv reads what the parser of every
    # command read: the same table, or the same usage error
    got = (cli.main(argv), *capsys.readouterr())
    want = (_main_with_the_full_parser(argv), *capsys.readouterr())
    assert got == want
    assert want[1] or want[2]


def test_main_parses_a_command_argv_once(capsys, monkeypatch):
    # counted at the argparse boundary: only the named command's parser
    # reads its tokens, whatever they hold
    parsers = []
    original = argparse.ArgumentParser.parse_known_args

    def counted(self, args=None, namespace=None):
        parsers.append(self.prog)
        return original(self, args, namespace)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for argv in (
        ["audit"],
        ["fisher-r", "--fig5"],
        ["crosscheck", "--grid-n", "512", "--r", "0", "--phi", "0"],
        ["gap", "--bogus"],
        ["fisher-phi", "--help"],
    ):
        parsers.clear()
        run_cli(argv, capsys)
        assert parsers == [f"cvphase {argv[0]}"], argv


def test_a_command_parser_holds_only_its_own_flags(capsys):
    full, audit = cli.build_parser(), cli.build_parser("audit")
    assert full.parse_args(["gap", "--phi", "1"]).phi == (1.0,)
    assert audit.parse_args(["audit", "--phi", "1"]).phi == (1.0,)
    with pytest.raises(SystemExit):
        audit.parse_args(["gap", "--phi", "1"])
    assert "unrecognized arguments: --phi 1" in capsys.readouterr().err
    assert cli.build_parser("audit") is audit  # built once per process


def test_a_registered_engine_loads_on_first_access_and_can_be_patched():
    # perfbench's tracer reads each layer from sys.modules after importing
    # cvphase.cli, lists its functions with vars() and rebinds them
    script = (
        "import io, sys, contextlib, types\n"
        "import cvphase.cli\n"
        "grid = sys.modules['cvphase.grid']\n"
        "print(type(grid) is types.ModuleType)\n"
        "print('phase_response' in vars(grid), type(grid) is types.ModuleType)\n"
        "calls = []\n"
        "original = grid.phase_response\n"
        "grid.phase_response = lambda *a: calls.append(a) or original(*a)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cvphase.cli.main(['fisher-phi', '--engine', 'grid', '--phi', '0.3'])\n"
        "print(code, len(calls))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "True True", "0 1"]


def test_package_import_loads_no_submodule():
    # a bare import registers each layer, in sys.modules and as a package
    # attribute, and runs none of them (told apart as in _LOADED_AFTER);
    # dir lists every public name and layer, and none of the registration's
    # loop variables, and runs no layer either
    script = (
        "import sys, types, cvphase\n"
        "mods = {m[8:]: v for m, v in sys.modules.items() if m.startswith('cvphase.')}\n"
        "print(*sorted(mods))\n"
        "print(*sorted(m for m, v in mods.items() if type(v) is types.ModuleType))\n"
        "print(all(vars(cvphase)[m] is v for m, v in mods.items()))\n"
        "names = dir(cvphase)\n"
        "print(*sorted(set(cvphase.__all__) - set(names)))\n"
        "print(*(n for n in names if n not in cvphase.__all__ and n[:2] != '__'))\n"
        "print(*sorted(m for m, v in mods.items() if type(v) is types.ModuleType))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    layers = ["errors", "experiments", "grid", "model", "quadrature", "stats"]
    others = " ".join(sorted(["_SUBMODULE", "importlib", "sys", *layers]))
    assert proc.stdout.splitlines() == [" ".join(layers), "", "True", "", others, ""]


# small runs: the property is about exit codes and error reporting, not output
# the flags every command shares that ProcedureParams checks when it is built
_SCALE_FLAGS = ("--big-t", "--big-p", "--x0")
_FUZZ_COMMANDS = {  # command: (fixed arguments, fuzzed flags it accepts)
    # --grid-n only where the analytic engine never allocates the grid
    "fisher-phi": ([], ("--phi", "--r", "--delta", "--grid-n", *_SCALE_FLAGS)),
    "fisher-r": ([], ("--phi", "--r", "--delta", *_SCALE_FLAGS)),
    "dj": (["--trials", "20"], ("--r", "--delta", "--seed", *_SCALE_FLAGS)),
    "estimate": (
        ["--shots", "5", "--replicas", "2"],
        ("--phi", "--r", "--delta", "--seed", *_SCALE_FLAGS),
    ),
    "crosscheck": (
        ["--grid-n", "512"], ("--phi", "--r", "--delta", "--tol", *_SCALE_FLAGS)
    ),
    "audit": ([], ("--phi", "--r", "--delta", *_SCALE_FLAGS)),
    "gap": ([], ("--phi", "--delta", *_SCALE_FLAGS)),
}
_fuzz_value = st.one_of(
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0, 5e-324, 0.3, 1.0]
    ),
    st.floats(allow_nan=True, allow_infinity=True),
)
_fuzz_grid_n = st.one_of(
    st.sampled_from([0, -1, 255, 256, 4096, 2**24, 2**25, 2**40, 3 * 2**20]),
    st.integers(),
)


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    fixed, accepted = _FUZZ_COMMANDS[command]
    flags = draw(st.lists(st.sampled_from(accepted), unique=True, max_size=3))
    argv = [command, *fixed]
    for flag in flags:
        if flag == "--grid-n":
            value = draw(_fuzz_grid_n)
        elif flag == "--seed":
            value = draw(st.integers())
        else:
            value = draw(_fuzz_value)
        argv += [flag, repr(value)]
    return argv


@given(argv=_fuzz_argv())
@settings(max_examples=150, deadline=None)
def test_main_honours_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error:" in err.getvalue()
