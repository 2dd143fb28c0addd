"""Command-line interface: schemas, determinism, presets, exit codes."""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvphase import (
    PiecewiseBinaryFunction, cli, experiments, grid, phase_response, quadrature,
)
from helpers import BIG_P, canonical

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

    def test_crosscheck_rejects_mismatched_window(self, capsys):
        code, _, err = run_cli(
            ["crosscheck", "--epsilon", "0.1", "--phi", "0.3", "--r", "0"], capsys
        )
        assert code == 2
        assert "epsilon" in err

    def test_crosscheck_tolerance_failure_is_exit_3(self, capsys):
        code, out, err = run_cli(
            ["crosscheck", "--phi", "0.3", "--r", "0", "--tol", "1e-9"], capsys
        )
        assert code == 3
        assert "exceeds tolerance" in err
        # the table is still emitted for inspection
        header, rows = parse_csv(out)
        assert len(rows) == 1

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

    @pytest.mark.parametrize("delta", ["0", "-0.0", "nan"])
    def test_nonpositive_delta_rejected(self, capsys, delta):
        code, _, err = run_cli(["fisher-phi", "--delta", delta], capsys)
        assert code == 2
        assert "error:" in err and "delta" in err

    def test_grid_size_is_capped(self, capsys):
        # the analytic engine allocates no grid, even if the cap were lost
        cap = grid._MAX_POINTS
        assert cap >= 2**20
        assert run_cli(["fisher-phi", "--grid-n", str(cap)], capsys)[0] == 0
        code, out, err = run_cli(["fisher-phi", "--grid-n", str(2 * cap)], capsys)
        assert code == 2
        assert out == ""
        assert "error:" in err and str(cap) in err

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
@pytest.mark.parametrize("target", ["directory", "missing_parent"])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv, target):
    out = tmp_path if target == "directory" else tmp_path / "missing" / "t.csv"
    code, stdout, err = run_cli(argv + ["--out", str(out)], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err
    assert stdout == ""


class TestGridEngine:
    def test_one_prepare_and_one_transform_per_sweep(self, capsys, monkeypatch):
        import numpy as np

        calls = {"prepare_gaussian": 0, "numpy.fft": 0}

        def counted(module, name, key):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(grid, "prepare_gaussian", "prepare_gaussian")
        for name in np.fft.__all__:
            if not name.endswith(("freq", "shift")):  # index helpers, not transforms
                counted(np.fft, name, "numpy.fft")
        assert not hasattr(cli, "run_circuit")
        for argv in (["crosscheck"], ["fisher-phi", "--fig4", "--engine", "all"]):
            calls.update({"prepare_gaussian": 0, "numpy.fft": 0})
            assert run_cli(argv, capsys)[0] == 0
            assert calls == {"prepare_gaussian": 1, "numpy.fft": 1}, argv

    def test_one_quadrature_response_per_threshold(self, capsys, monkeypatch):
        built = []
        original = cli.quadrature_response

        def counted(p, f, spec):
            built.append(f.breakpoints)
            return original(p, f, spec)

        monkeypatch.setattr(cli, "quadrature_response", counted)
        assert not hasattr(cli, "prob_x0_quadrature")
        for argv, thresholds in (
            (["crosscheck"], 5),
            (["crosscheck", "--r", f"0,{BIG_P / 4!r}", "--phi", "0:3:7"], 2),
        ):
            built.clear()
            assert run_cli(argv, capsys)[0] == 0
            assert len(built) == len(set(built)) == thresholds, argv

    def test_gap_integrates_each_mask_once(self, capsys, monkeypatch):
        built = []
        original = quadrature.quadrature_response

        def counted(p, f, spec):
            built.append(f.breakpoints)
            return original(p, f, spec)

        monkeypatch.setattr(quadrature, "quadrature_response", counted)
        code, out, _ = run_cli(["gap"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 1 + 17
        assert len(built) == len(set(built)) == 2

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


def test_console_script_help_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cvphase.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "fisher-phi" in proc.stdout


def test_table_commands_load_neither_numpy_nor_scipy():
    # numpy is registered at import but loads on first use: its submodules
    # appear only once something builds an array
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


# small runs: the property is about exit codes and error reporting, not output
# the flags every command shares that ProcedureParams checks when it is built
_SCALE_FLAGS = ("--big-t", "--big-p", "--epsilon", "--x0")
_FUZZ_COMMANDS = {  # command: (fixed arguments, fuzzed flags it accepts)
    # --grid-n only where the analytic engine never allocates the grid
    "fisher-phi": ([], ("--phi", "--r", "--delta", "--grid-n", *_SCALE_FLAGS)),
    "fisher-r": ([], ("--phi", "--r", "--delta", *_SCALE_FLAGS)),
    "dj": (["--trials", "20"], ("--r", "--delta", *_SCALE_FLAGS)),
    "estimate": (
        ["--shots", "5", "--replicas", "2"], ("--phi", "--r", "--delta", *_SCALE_FLAGS)
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
        value = draw(_fuzz_grid_n if flag == "--grid-n" else _fuzz_value)
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
