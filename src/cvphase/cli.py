"""Command-line sweeps and seeded experiments over the phase-estimation model.

Each command builds its table as one dict from column name to list of cells,
whose key order is the column order, and writes it to stdout (or --out): CSV
with a header row, whose rows run in blocks of one outer-axis value (a
threshold, or a phase in fisher-r), so that a block of one object and the
inner axis each block repeats are spelled once, or JSON with one object per
row (--format json).  Exit
status: 0 success, 2 usage or parameter error (an unwritable --out path
included), 3 crosscheck tolerance failure (its stderr line gives the
conjugate cell width and the mask jumps, the thresholds and the domain edge
P, that fall inside a cell).
Axis flags take a number, a comma list, or start:stop:count with at most
100000 points, ending at stop itself; a two-axis table has at most 10^6
rows (--r times --phi).  Every --r lies in [-P, P], with no rounding slack.
--grid-n is a power of two in [512, 2^24], down to 256 with an explicit
--big-t (the default T needs N >= 512); --trials and --shots are at most
10^8, --replicas at most 10^5.  Detection always projects back onto
the prepared Gaussian, the window the closed forms assume.
Without --big-t, T = 4*pi*q/P with q = max(32, N/128) conjugate cells per
P/8, so P and every multiple of P/8 sit on cell edges.  Up to the default
N = 4096 that is one T; above it the position step dx = 2T/N stays the
default grid's and each doubling of N halves the cell dy = P/(8q).

Each subcommand's --help epilog lists its table's columns.

A cold table command (audit, gap, fisher-phi, fisher-r) compiles this
module, errors, model and stats, plus the one engine it runs, if any (see
``_lazy``).  The code of dj, estimate and crosscheck sits in
``_engine_commands``, which only those three import, and the parser adds
flags only to the subcommand that runs (``build_parser``).  argv is parsed
once: when its first argument names a command, that command's parser reads
the rest, and a token it leaves is refused as the full parser refuses it.
``crosscheck`` and ``gap`` integrate each piece of their masks' folded cuts
once per call (``quadrature.quadrature_responses``); nothing is cached
across calls.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import operator
import sys

from ._lazy import lazy_import
from .errors import CvPhaseError, GridLayoutError, ParameterError
from .model import (
    PiecewiseBinaryFunction,
    ProcedureParams,
    _phases,
    _require_pow2,
    aligned_half_width,
    require_scale,
)
from .stats import fisher_phis, fisher_rs, heisenberg_audit

# each engine runs its module code when a command first uses it, so a fresh
# process compiles only the engines it runs; json is imported by --format json
experiments = lazy_import("cvphase.experiments")
grid = lazy_import("cvphase.grid")
quadrature = lazy_import("cvphase.quadrature")

_DEFAULT_GRID_N = 4096
# most points a start:stop:count axis may ask for; every point is at least
# one row, and a larger sweep belongs in a script calling the library
_MAX_AXIS_COUNT = 100_000
# most rows, thresholds times phases, a two-axis table may ask for: a
# 1000 x 1000 fisher-phi --engine all takes about 7 s and 0.7 GB (2 vCPUs)
_MAX_ROWS = 1_000_000
# grid-engine Fisher comparisons exclude probability-extremum rows and the
# near-saturated top of the response, where the momentum tail (unphased
# outside the mask domain) dominates, and rows with a mask jump (the
# threshold, or +-P) inside a conjugate cell, an error first order in dy
_COMPARABLE_COS_MAX = 2.0 / 3.0


def _axis(text: str) -> tuple[float, ...]:
    """Axis flag value: single number, comma list, or start:stop:count.

    The count must lie in [2, _MAX_AXIS_COUNT]; it is checked before any
    value is built, and the last value is stop itself, never an ulp past it.
    The library checks each value: ``model._inside`` or ``model._phase``.
    """
    try:
        if ":" in text:
            start_s, stop_s, count_s = text.split(":")
            start, stop, count = float(start_s), float(stop_s), int(count_s)
            if not 2 <= count <= _MAX_AXIS_COUNT:
                raise ValueError(f"count must lie in [2, {_MAX_AXIS_COUNT}]")
            step = (stop - start) / (count - 1)
            values = (*(start + k * step for k in range(count - 1)), stop)
        else:
            values = tuple(float(tok) for tok in text.split(",") if tok != "")
        if not values:
            raise ValueError("empty axis")
        return values
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad axis {text!r}: {exc}") from exc


def _phase_axis(count: int) -> tuple[float, ...]:
    return tuple(k * math.pi / (count - 1) for k in range(count))


def _fig4_thresholds(big_p: float) -> tuple[float, ...]:
    return (0.0, big_p / 8.0, big_p / 4.0, big_p / 2.0, big_p)


# audit's 15 interior points of (0, pi/2), clear of the propagation
# singularities at multiples of pi/2
_AUDIT_PHASES = tuple(k * math.pi / 32.0 for k in range(1, 16))

_FIG5_PHASES = (
    math.pi / 2.0,
    5.0 * math.pi / 12.0,
    math.pi / 3.0,
    math.pi / 4.0,
    math.pi / 8.0,
)


def _open_threshold_axis(big_p: float) -> tuple[float, ...]:
    return tuple(k * big_p / 64.0 for k in range(1, 64))


# a bool cell's CSV spelling, indexed by the bool
_CSV_BOOL = ("false", "true")


def _cell_json(v: object) -> object:
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _each(values, block: int, rows: int) -> list:
    """Each of values block times over, cut to rows cells."""
    repeats = map(itertools.repeat, values, itertools.repeat(block))
    return list(itertools.chain.from_iterable(repeats))[:rows]


def _csv_column(cells: list, block: int) -> tuple[str, list | None]:
    """A column's spelling in the CSV line template, by the type of its first
    cell, and the cells the template takes for it; its rows run in blocks of
    block rows.

    A column of one object is spelled into the template, and takes no cells.
    Otherwise each block that holds one object is spelled once, and an inner
    axis (each block holds the first block's objects) once per table; the
    other cells of such a column are spelled one by one, and all enter as %s
    strings.  Objects are told apart by identity: 0.0 == -0.0 but they print
    0 and -0, and a NaN equals only itself.
    """
    v, rows = cells[0], len(cells)
    if isinstance(v, bool):
        return "%s", list(map(_CSV_BOOL.__getitem__, cells))
    # 17 significant digits (nan, inf, -inf and -0; a negative NaN as nan),
    # ints as %d, strs as they are
    spec = "%.17g" if isinstance(v, float) else "%d" if isinstance(v, int) else "%s"
    if cells[-1] is v and all(map(operator.is_, cells, itertools.repeat(v))):
        return (spec % v).replace("%", "%%"), None  # spelled into the template
    first, heads = cells[:block], cells[::block]
    if rows > block and cells[block] is v and all(
        map(operator.is_, cells[block:], itertools.cycle(first))
    ):
        return "%s", (list(map(spec.__mod__, first)) * len(heads))[:rows]
    if not 1 < block < rows or True not in map(operator.is_, cells[1::block], heads):
        return spec, cells
    spelled = _each(map(spec.__mod__, heads), block, rows)
    unlike = map(operator.is_not, cells, _each(heads, block, rows))
    for at in {k - k % block for k in itertools.compress(range(rows), unlike)}:
        spelled[at : at + block] = map(spec.__mod__, cells[at : at + block])
    return "%s", spelled


def _csv_text(table: dict[str, list], block: int) -> str:
    """The CSV text of a table (see _emit), built apart so that its spelled
    cells are freed before the text is written."""
    head = ",".join(table)
    rows = len(next(iter(table.values())))
    if not rows:
        return head + "\n"
    specs, cells = zip(*(_csv_column(column, block or rows) for column in table.values()))
    template = head.replace("%", "%%") + "\n" + (",".join(specs) + "\n") * rows
    cells = [column for column in cells if column is not None]
    return template % tuple(itertools.chain.from_iterable(zip(*cells)))


def _emit(table: dict[str, list], fmt: str, out: str | None, block: int = 0) -> None:
    """Write the table, which maps each column, in column order, to its list
    of cells, to out, or to stdout when out is None.

    CSV is a header row, then a line template per row, all filled by one %
    call.  The rows run in blocks of block rows (0: one block), one value
    of the table's outer axis each, and ``_csv_column`` spells once what a
    block or the inner axis repeats; no cell needs quoting.  JSON is one
    object per row, with non-finite floats as null.
    """
    if fmt == "json":
        import json

        text = "".join(
            json.dumps(dict(zip(table, map(_cell_json, row))), separators=(",", ":"))
            + "\n"
            for row in zip(*table.values())
        )
    else:
        text = _csv_text(table, block)
    _write(text, out)


def _write(text: str, out: str | None) -> None:
    """Write text to the file out, or to stdout when out is None."""
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _require_rows(r_values: tuple, phi_values: tuple) -> None:
    """Refuse a table of more than _MAX_ROWS rows before any sweep runs."""
    rows = len(r_values) * len(phi_values)
    if rows > _MAX_ROWS:
        raise ParameterError(f"--r and --phi ask for {rows} rows; at most {_MAX_ROWS}")


def _resolve_params(
    args: argparse.Namespace, mask_product: float = 1.5
) -> ProcedureParams:
    delta = args.delta if args.delta is not None else 1.0 / math.sqrt(2.0)
    delta = require_scale("delta", delta)  # before P and T are derived from it
    # a derived P or T out of range names the flag it was derived from
    source = f"delta={delta!r}"
    if args.big_p is not None:
        big_p = args.big_p
        source = f"big_p={big_p!r}"
    else:
        big_p = require_scale(f"P derived from {source}", mask_product / delta)
    big_t = args.big_t
    if big_t is None:
        # q = max(32, N/128) cells per P/8 (see the module docstring)
        n = getattr(args, "grid_n", _DEFAULT_GRID_N)
        q = max(32, n // 128)
        if _require_pow2(n) < 16 * q:  # aligned_half_width's error would name q
            raise GridLayoutError(
                f"--grid-n {n} needs an explicit --big-t: the default T needs "
                f"N >= {16 * q}"
            )
        big_t = aligned_half_width(big_p, n, q)
        big_t = require_scale(f"T derived from {source}", big_t)
    return ProcedureParams(x0=args.x0, delta=delta, big_t=big_t, big_p=big_p)


def cmd_fisher_phi_sweep(
    p: ProcedureParams,
    r_values: tuple[float, ...],
    phi_values: tuple[float, ...],
    engine: str,
    grid_n: int,
) -> dict[str, list]:
    """Fisher information in the phase, analytic and/or from the grid
    response, one sweep per engine; ``engine`` is "analytic", "grid" or
    "all" (both, plus a comparison)."""
    table = {
        "phi": list(phi_values) * len(r_values),
        "r": [r for r in r_values for _ in phi_values],
    }
    if engine in ("analytic", "all"):
        # stats.fisher_phis keys its columns by the names printed here
        table.update(fisher_phis(p, r_values, phi_values))
        table["delta_phi"] = [math.nan if d is None else d for d in table["delta_phi"]]
    if engine in ("grid", "all"):
        masks = [PiecewiseBinaryFunction.step(r, p.big_p) for r in r_values]
        if engine == "grid":  # fisher_phis has checked them otherwise
            _phases(phi_values)  # before the grid is built
        response = grid.phase_response(p, grid_n)
        table["fisher_grid"] = fisher_grid = response.fishers(masks, phi_values)
    if engine == "all":
        cos_ok = [math.cos(2.0 * phi) <= _COMPARABLE_COS_MAX for phi in phi_values]
        none_ok = [False] * len(phi_values)
        edge_off = grid._off_cell_edge(p, p.big_p)
        row_ok = []
        for r in r_values:
            row_ok += none_ok if edge_off or grid._off_cell_edge(p, r) else cos_ok
        table["comparable"] = [
            not singular and ok for singular, ok in zip(table["singular_limit"], row_ok)
        ]
        table["max_pairwise_dev"] = [
            abs(f - g) for f, g in zip(table["fisher"], fisher_grid)
        ]
    return table


def cmd_fisher_r_sweep(
    p: ProcedureParams, r_values: tuple[float, ...], phi_values: tuple[float, ...]
) -> dict[str, list]:
    """Fisher information in the threshold position (closed form only).

    A circuit-difference column is not offered: moving the threshold moves a
    mask jump within a conjugate-grid cell, so the difference quotient is
    dominated by discretization, not by the derivative being estimated.
    The sweep's r-major column is computed at once; rows run phi-major.
    """
    column = fisher_rs(p, r_values, phi_values)
    n = len(phi_values)
    return {
        "phi": [phi for phi in phi_values for _ in r_values],
        "r": list(r_values) * n,
        "fisher_r": [f for k in range(n) for f in column[k::n]],
    }


def cmd_gap(p: ProcedureParams, phis: tuple[float, ...]) -> dict[str, list]:
    return {
        "phi": list(phis),
        "mask_product": [p.mask_product] * len(phis),
        **quadrature.step_hat_gaps(p, phis),
    }


def _add_common_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--delta", type=float, default=None,
                    help="preparation width (default 1/sqrt(2))")
    sp.add_argument("--x0", type=float, default=0.0,
                    help="preparation and detection center (default 0)")
    sp.add_argument("--big-t", type=float, default=None,
                    help="position half-width; default 4*pi*q/P with "
                         "q = max(32, N/128), N the --grid-n (4096 where "
                         "there is none), which puts multiples of P/8 on "
                         "conjugate cell edges")
    sp.add_argument("--big-p", type=float, default=None,
                    help="mask half-domain (default 3/(2*delta))")
    sp.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="table format (default csv)")
    sp.add_argument("--out", default=None,
                    help="write the table to this file instead of stdout")


def _add_grid_n(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--grid-n", type=int, default=_DEFAULT_GRID_N,
                    help="simulator grid size, power of two in [512, 2^24], "
                         "down to 256 with an explicit --big-t (default 4096); "
                         "above 4096 each doubling halves the default T's "
                         "conjugate cell")


def _fisher_phi_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--r", type=_axis, default=None,
                    help="threshold axis (default 0)")
    sp.add_argument("--phi", type=_axis, default=None,
                    help="phase axis (default 33 points on [0, pi])")
    sp.add_argument("--engine", choices=("analytic", "grid", "all"),
                    default="analytic")
    _add_grid_n(sp)
    sp.add_argument("--fig4", action="store_true",
                    help="canonical preset: thresholds {0,P/8,P/4,P/2,P}, "
                         "33 phases on [0, pi]")


def _fisher_r_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--r", type=_axis, default=None,
                    help="threshold axis (default 63 interior points of (0, P))")
    sp.add_argument("--phi", type=_axis, default=None,
                    help="phase axis (default pi/2)")
    sp.add_argument("--fig5", action="store_true",
                    help="canonical preset: phases {pi/2,5pi/12,pi/3,pi/4,pi/8} "
                         "over the interior threshold axis")


def _dj_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--r", type=float, default=0.0, help="threshold (default 0)")
    sp.add_argument("--trials", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=0)


def _estimate_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--r", type=float, default=0.0, help="threshold (default 0)")
    sp.add_argument("--phi", type=float, default=None,
                    help="true phase (default pi/4)")
    sp.add_argument("--shots", type=int, default=100)
    sp.add_argument("--replicas", type=int, default=2000,
                    help="independent replicas, at most 10^5 (default 2000)")
    sp.add_argument("--seed", type=int, default=0)


def _crosscheck_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--r", type=_axis, default=None,
                    help="threshold axis (default {0,P/8,P/4,P/2,P})")
    sp.add_argument("--phi", type=_axis, default=None,
                    help="phase axis (default 17 points on [0, pi])")
    _add_grid_n(sp)
    sp.add_argument("--tol", type=float, default=1e-4,
                    help="max allowed pairwise deviation (default 1e-4)")


def _audit_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--r", type=float, default=0.0, help="threshold (default 0)")
    sp.add_argument("--phi", type=_axis, default=None,
                    help="phase axis (default 15 interior points of (0, pi/2))")


def _gap_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--phi", type=_axis, default=None,
                    help="phase axis (default 17 points on [0, pi])")


def _run_fisher_phi(args: argparse.Namespace) -> int:
    p = _resolve_params(args)
    if args.fig4:
        if args.r is not None or args.phi is not None:
            raise ParameterError("--fig4 fixes --r and --phi; drop them")
        r_values = _fig4_thresholds(p.big_p)
        phi_values = _phase_axis(33)
    else:
        r_values = args.r if args.r is not None else (0.0,)
        phi_values = args.phi if args.phi is not None else _phase_axis(33)
    _require_rows(r_values, phi_values)
    table = cmd_fisher_phi_sweep(p, r_values, phi_values, args.engine, args.grid_n)
    _emit(table, args.format, args.out, len(phi_values))
    return 0


def _run_fisher_r(args: argparse.Namespace) -> int:
    p = _resolve_params(args)
    if args.fig5:
        if args.phi is not None:
            raise ParameterError("--fig5 fixes --phi; drop it")
        phi_values = _FIG5_PHASES
    else:
        phi_values = args.phi if args.phi is not None else (math.pi / 2.0,)
    r_values = args.r if args.r is not None else _open_threshold_axis(p.big_p)
    _require_rows(r_values, phi_values)
    table = cmd_fisher_r_sweep(p, r_values, phi_values)
    _emit(table, args.format, args.out, len(r_values))
    return 0


def _run_engine_command(args: argparse.Namespace) -> int:
    """Run dj, estimate or crosscheck from ``_engine_commands``, which is
    imported here, on the first run of one of them."""
    from . import _engine_commands

    return getattr(_engine_commands, "_run_" + args.command)(args)


def _run_audit(args: argparse.Namespace) -> int:
    p = _resolve_params(args)
    phi_values = args.phi if args.phi is not None else _AUDIT_PHASES
    _emit(heisenberg_audit(p, args.r, phi_values), args.format, args.out)
    return 0


def _run_gap(args: argparse.Namespace) -> int:
    p = _resolve_params(args, mask_product=0.1)
    phi_values = args.phi if args.phi is not None else _phase_axis(17)
    _emit(cmd_gap(p, phi_values), args.format, args.out)
    return 0


# each subcommand, in the order its help lists them: its runner, the flags it
# adds after the common ones, and its help line and column epilog
_COMMANDS = {
    "fisher-phi": (
        _run_fisher_phi, _fisher_phi_flags,
        "sweep Fisher information in the phase",
        "columns (analytic): phi, r, fisher, variance_bound, mean_bound, "
        "delta_phi, singular_limit; engine=grid: phi, r, fisher_grid; "
        "engine=all: both plus comparable, max_pairwise_dev",
    ),
    "fisher-r": (
        _run_fisher_r, _fisher_r_flags,
        "sweep Fisher information in the threshold position",
        "columns: phi, r, fisher_r",
    ),
    "dj": (
        _run_engine_command, _dj_flags,
        "seeded one-shot classification trials at the decision phase",
        "columns: label, r, truth, p_x0, trials, classified_constant, "
        "classified_balanced, empirical_error_rate, analytic_error_rate",
    ),
    "estimate": (
        _run_engine_command, _estimate_flags,
        "replicated maximum-likelihood phase estimation vs the "
        "information bound",
        "columns: replica, phi_hat, n_shots, empirical_mse, crb, "
        "mse_over_crb; the replica=-1 row is the replica mean",
    ),
    "crosscheck": (
        _run_engine_command, _crosscheck_flags,
        "tri-engine agreement table for the detection probability",
        "columns: phi, r, p_analytic, p_quadrature, p_grid, "
        "max_pairwise_dev; exits 3 if any deviation exceeds --tol",
    ),
    "audit": (
        _run_audit, _audit_flags,
        "information bounds and optimality flags across phases",
        "columns: phi, r, fisher, variance_bound, mean_bound_generator_f, "
        "mean_bound_generator_2f, dphi_sqrt_fisher, optimal",
    ),
    "gap": (
        _run_gap, _gap_flags,
        "detection-probability gap between the one-sided and centered "
        "masks of equal measure, vs its leading-order size",
        "columns: phi, mask_product, signed_gap, gap, "
        "leading_order_prediction, ratio; needs mask_product <= 1/2, "
        "default P puts it at 0.1",
    ),
}


@functools.cache
def _parsers(
    command: str | None,
) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """``build_parser(command)`` and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="cvphase",
        description="Phase estimation and one-shot function classification "
                    "with finite-domain Gaussian states and binary spectral "
                    "masks: closed forms, quadrature, and a circuit-level "
                    "grid simulator.",
    )
    # the prog argparse would derive by formatting a usage line: it is the
    # prefix of each subcommand's prog, "cvphase audit"
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    subparsers = {}
    for name, (run, add_flags, help_line, epilog) in _COMMANDS.items():
        sp = subparsers[name] = sub.add_parser(name, help=help_line, epilog=epilog)
        if command is None or command == name:
            _add_common_flags(sp)
            add_flags(sp)
            sp.set_defaults(func=run)
    return parser, subparsers


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The cvphase parser for one command, built once per process; each
    parse_args call returns a fresh Namespace.

    Every subcommand is registered, with its help and epilog, so the usage
    lines and the top-level help never depend on the command; only the
    subcommand named ``command`` gets its flags and runner, or each of them
    when ``command`` is None.
    """
    return _parsers(command)[0]


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv's Namespace, read once: a first argument that names a command
    hands the rest to that command's parser alone, and what it leaves is
    refused as the full parser refuses it; any other argv gets the parser
    of every command."""
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser, subparsers = _parsers(command)
    if command is None:
        return parser.parse_args(argv)
    args, extras = subparsers[command].parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = command
    return args


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CvPhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    # under python -m this module runs as __main__; _engine_commands imports
    # it as cvphase.cli, which would otherwise compile and run it a second time
    sys.modules.setdefault("cvphase.cli", sys.modules[__name__])
    sys.exit(main())
