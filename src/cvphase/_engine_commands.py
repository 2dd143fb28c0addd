"""The commands that run an engine on every call: ``dj``, ``estimate`` and
``crosscheck``.

``cli`` imports this module only when one of them runs, so a table command
(``audit``, ``gap``, ``fisher-phi``, ``fisher-r``) compiles none of it.
Functions of the other layers are looked up on their modules at call time
(``stats.prob_x0s``, ``cli.experiments.sample_outcomes``,
``cli.quadrature.quadrature_responses``), never bound here
by name: an engine bound by an import statement would load at once (see
``_lazy``), and perfbench's tracer wraps each layer's functions where that
layer's module holds them.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import cli, stats
from .cli import (
    _emit,
    _fig4_thresholds,
    _phase_axis,
    _require_rows,
    _resolve_params,
    _write,
)
from .errors import ParameterError
from .model import PiecewiseBinaryFunction, ProcedureParams, _integer, _real


def cmd_dj(p: ProcedureParams, r: float, trials: int, seed: int) -> dict[str, list]:
    """Seeded one-shot classification at the decision phase.

    Three rows: the requested threshold, then balanced (r=0) and constant
    (r=P) references at the same parameters.  Row i counts its hits with one
    binomial draw of ``trials`` trials at the p_x0 the row prints, from a
    generator seeded with (seed, i); a row at p_x0 = 0 (the balanced ones)
    draws nothing, as its count is exact.  trials and seed must be ints
    (numpy integers too), as for ``sample_outcomes``; anything else is a
    ParameterError.  Returns the table's columns, keyed by name in the
    order it prints them.
    """
    trials, seed = _integer(trials, "trials"), _integer(seed, "seed")
    rows = []
    cases = (("requested", _real(r, "r")), ("balanced_reference", 0.0),
             ("constant_reference", p.big_p))
    for idx, (label, r_case) in enumerate(cases):
        p_x0 = stats.dj_statistics(p, r_case).p_x0
        # a detection at the decision phase classifies the mask as constant
        n_const = cli.experiments.sample_outcomes(p_x0, trials, (seed, idx))
        n_bal = trials - n_const
        if r_case == 0.0:
            truth = "balanced"
            emp_err, ana_err = n_const / trials, 0.0
        elif abs(abs(r_case) - p.big_p) <= 1e-12 * p.big_p:
            truth = "constant"
            # p_x0 is E itself at |r| = P; an r within rounding of P is not
            e = p_x0 if abs(r_case) == p.big_p else stats.mask_efficiency(p)
            emp_err, ana_err = n_bal / trials, 1.0 - e
        else:
            truth = "neither"
            emp_err = ana_err = math.nan
        rows.append(
            (label, r_case, truth, p_x0, trials, n_const, n_bal, emp_err, ana_err)
        )
    names = ("label", "r", "truth", "p_x0", "trials", "classified_constant",
             "classified_balanced", "empirical_error_rate", "analytic_error_rate")
    return {name: list(column) for name, column in zip(names, zip(*rows))}


_ESTIMATE_COLUMNS = (
    "replica", "phi_hat", "n_shots", "empirical_mse", "crb", "mse_over_crb",
)
# the last digit of a replica number and the comma after it
_UNITS = tuple(f"{u}," for u in range(10))


def _estimate_tails(s) -> tuple[dict[int, tuple], tuple]:
    """The cells after the replica column: one tuple per distinct hit count
    of the ReplicationSummary s, and the replica mean's (replica=-1)."""
    bounded = math.isfinite(s.crb) and s.crb > 0.0
    tails = {
        k: (phi_hat, s.shots, mse, s.crb, mse / s.crb if bounded else math.nan)
        for k, (phi_hat, mse) in s.per_count.items()
    }
    return tails, (math.nan, s.shots, s.mean_mse, s.crb, s.mse_over_crb)


def cmd_estimate(
    p: ProcedureParams, r: float, phi_true: float, shots: int, replicas: int, seed: int
) -> dict[str, list]:
    """Replicated maximum-likelihood estimates; final row (replica=-1) is the
    replica mean."""
    s = cli.experiments.replicated_mse(p, r, phi_true, shots, replicas, seed)
    tails, mean = _estimate_tails(s)
    table = {"replica": [*range(s.replicas), -1]}
    for j, column in enumerate(_ESTIMATE_COLUMNS[1:]):
        table[column] = [tails[k][j] for k in s.hits] + [mean[j]]
    return table


def cmd_crosscheck(
    p: ProcedureParams,
    r_values: tuple[float, ...],
    phi_values: tuple[float, ...],
    grid_n: int,
) -> tuple[dict[str, list], float]:
    """Detection probability from all three engines, with worst deviation."""
    # the closed form checks every threshold and phase before any engine is set up
    pas = stats.prob_x0s(p, r_values, phi_values)
    masks = [PiecewiseBinaryFunction.step(r, p.big_p) for r in r_values]
    # one integration per piece of the masks' folded cuts, one column read
    pqs = cli.quadrature.quadrature_responses(p, masks).p_x0s(phi_values)
    pgs = cli.grid.phase_response(p, grid_n).p_x0s(masks, phi_values)
    devs = [
        max(abs(pa - pq), abs(pa - pg), abs(pq - pg))
        for pa, pq, pg in zip(pas, pqs, pgs)
    ]
    table = {
        "phi": list(phi_values) * len(r_values),
        "r": [r for r in r_values for _ in phi_values],
        "p_analytic": pas,
        "p_quadrature": pqs,
        "p_grid": pgs,
        "max_pairwise_dev": devs,
    }
    # the sequential max(worst, dev), which skips a NaN deviation
    return table, functools.reduce(max, devs, 0.0)


def _run_dj(args: argparse.Namespace) -> int:
    p = _resolve_params(args)
    _emit(cmd_dj(p, args.r, args.trials, args.seed), args.format, args.out)
    return 0


def _run_estimate(args: argparse.Namespace) -> int:
    p = _resolve_params(args)
    phi_true = args.phi if args.phi is not None else math.pi / 4.0
    run = (p, args.r, phi_true, args.shots, args.replicas, args.seed)
    if args.format == "json":
        _emit(cmd_estimate(*run), "json", args.out)
        return 0
    # _emit's CSV as one join of three pieces per replica line: the replica
    # number's leading digits, its last digit and comma, and the line tail.
    # n_shots and crb are spelled into the tail template once per run, and
    # each distinct hit count's tail once, so no replica is formatted alone
    s = cli.experiments.replicated_mse(*run)
    tails, mean = _estimate_tails(s)
    template = "%%.17g,%d,%%.17g,%s,%%.17g\n" % (s.shots, "%.17g" % s.crb)
    # the cells that vary by count: phi_hat, empirical_mse and mse_over_crb
    spelled = {k: template % cells[::2] for k, cells in tails.items()}
    n = s.replicas
    tens = ["", *map(str, range(1, (n - 1) // 10 + 1))]
    pieces = [None] * (3 * n)
    for u, unit in enumerate(_UNITS):
        m = len(range(u, n, 10))
        pieces[3 * u::30] = tens[:m]
        pieces[3 * u + 1::30] = (unit,) * m
    pieces[2::3] = map(spelled.__getitem__, s.hits)
    head = ",".join(_ESTIMATE_COLUMNS) + "\n"
    _write("".join([head, *pieces, "-1,", template % mean[::2]]), args.out)
    return 0


def _run_crosscheck(args: argparse.Namespace) -> int:
    # a NaN tolerance would never compare as exceeded and so disable the gate
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ParameterError(f"--tol must be finite and positive, got {args.tol!r}")
    p = _resolve_params(args)
    r_values = args.r if args.r is not None else _fig4_thresholds(p.big_p)
    phi_values = args.phi if args.phi is not None else _phase_axis(17)
    _require_rows(r_values, phi_values)
    table, worst = cmd_crosscheck(p, r_values, phi_values, args.grid_n)
    _emit(table, args.format, args.out, len(phi_values))
    if worst > args.tol:
        print(
            f"crosscheck: worst deviation {worst:.3e} exceeds tolerance "
            f"{args.tol:.3e}; {cli.grid._cell_edge_note(p, r_values)}",
            file=sys.stderr,
        )
        return 3
    return 0
