"""Command-line sweeps and seeded experiments over the phase-estimation model.

Each command writes one table to stdout (or --out): CSV with a header row, or
JSON with one object per row (--format json).  Floats print with 17
significant digits, so identical invocations are byte-identical; JSON maps
non-finite floats to null.  Exit status: 0 success, 2 usage or parameter
error (an unwritable --out path included), 3 crosscheck tolerance failure.
Axis flags take a number, a comma list, or start:stop:count with at most
100000 points.  --grid-n is a power of two in [256, 2^24]; --trials and
--shots are at most 10^8, --replicas at most 10^5.

Column schemas per command are listed in each subcommand's --help epilog.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys
from typing import Any, Callable

from .errors import CvPhaseError, ParameterError
from .experiments import heisenberg_audit, replicated_mse, sample_outcomes
from .grid import aligned_half_width, phase_response
from .model import MeasurementDistribution, PiecewiseBinaryFunction, ProcedureParams
from .quadrature import QuadratureSpec, quadrature_response, step_hat_gaps
from .stats import dj_statistics, fisher_phi, fisher_r, mask_efficiency, prob_x0

_DEFAULT_GRID_N = 4096
# most points a start:stop:count axis may ask for; every point is at least
# one row, and a larger sweep belongs in a script calling the library
_MAX_AXIS_COUNT = 100_000
# p(1-p) of the grid response at or below this is rounding, not physics: the
# matched window reaches p = 1 at phi = 0 to ~1e-15 (N up to 2^20), while the
# smallest p the grid resolves, the unphased tail at the balanced decision
# point, is ~5e-10
_PQ_ROUNDING = 1e-12
# grid-engine Fisher comparisons exclude probability-extremum rows and the
# near-saturated top of the response, where the simulated momentum tail
# (unphased outside the mask domain) dominates the comparison
_COMPARABLE_COS_MAX = 2.0 / 3.0


def _axis(text: str) -> tuple[float, ...]:
    """Axis flag value: single number, comma list, or start:stop:count.

    The count must lie in [2, _MAX_AXIS_COUNT]; it is checked before any
    value is built.  Every value must be finite with a finite double, since
    the closed forms take cos(2*phi) and erf(2*r*delta).
    """
    try:
        if ":" in text:
            start_s, stop_s, count_s = text.split(":")
            start, stop, count = float(start_s), float(stop_s), int(count_s)
            if not 2 <= count <= _MAX_AXIS_COUNT:
                raise ValueError(f"count must lie in [2, {_MAX_AXIS_COUNT}]")
            step = (stop - start) / (count - 1)
            values = tuple(start + k * step for k in range(count))
        else:
            values = tuple(float(tok) for tok in text.split(",") if tok != "")
        if not values:
            raise ValueError("empty axis")
        for v in values:
            if not math.isfinite(2.0 * v):
                raise ValueError(f"{v!r} is not finite or overflows when doubled")
        return values
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad axis {text!r}: {exc}") from exc


def _phase_axis(count: int) -> tuple[float, ...]:
    return tuple(k * math.pi / (count - 1) for k in range(count))


def _fig4_thresholds(big_p: float) -> tuple[float, ...]:
    return (0.0, big_p / 8.0, big_p / 4.0, big_p / 2.0, big_p)


_FIG5_PHASES = (
    math.pi / 2.0,
    5.0 * math.pi / 12.0,
    math.pi / 3.0,
    math.pi / 4.0,
    math.pi / 8.0,
)


def _open_threshold_axis(big_p: float) -> tuple[float, ...]:
    return tuple(k * big_p / 64.0 for k in range(1, 64))


def _cell_csv(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return format(v, ".17g")
    return str(v)


def _cell_json(v: Any) -> Any:
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _emit(columns: list[str], rows: list[dict], fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = "".join(
            json.dumps({c: _cell_json(row[c]) for c in columns}, separators=(",", ":"))
            + "\n"
            for row in rows
        )
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell_csv(row[c]) for c in columns])
        text = buf.getvalue()
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _resolve_params(
    args: argparse.Namespace,
    default_big_p: Callable[[float], float] | None = None,
) -> ProcedureParams:
    delta = args.delta if args.delta is not None else 1.0 / math.sqrt(2.0)
    if not delta > 0.0:  # the default P and T divide by it
        raise ParameterError(f"delta must be positive, got {delta!r}")
    if args.big_p is not None:
        big_p = args.big_p
    elif default_big_p is not None:
        big_p = default_big_p(delta)
    else:
        big_p = 3.0 / (2.0 * delta)
    grid_n = getattr(args, "grid_n", _DEFAULT_GRID_N)
    big_t = args.big_t if args.big_t is not None else aligned_half_width(big_p, grid_n)
    return ProcedureParams(
        x0=args.x0, delta=delta, big_t=big_t, big_p=big_p, epsilon=args.epsilon
    )


def _require_matched_window(p: ProcedureParams) -> None:
    # the closed forms fix the detection window to the preparation width;
    # letting them differ would report physics as engine disagreement
    if abs(p.epsilon - p.delta) > 1e-12 * p.delta:
        raise ParameterError(
            "engine comparisons need --epsilon equal to --delta "
            "(the analytic response assumes a matched detection window)"
        )


def _grid_prob(a0: complex, a1: complex, phi: float) -> float:
    """Grid detection probability |A0 + exp(-2i*phi)*A1|^2 at phase phi."""
    return MeasurementDistribution(abs(a0 + cmath.exp(-2j * phi) * a1) ** 2).p_x0


def _fisher_grid(a0: complex, a1: complex, phi: float) -> float:
    """Fisher information in phi of the grid response, exactly.

    With conj(A0)*A1 = (b/2)*exp(i*theta) the response is
    p = a + b*cos(2*phi - theta), a = |A0|^2 + |A1|^2, b = 2|A0*A1|, and
    dp/dphi = 4*Im(exp(-2i*phi)*conj(A0)*A1).  Where p(1-p) vanishes to
    rounding, the value is the phi-limit of dp^2/(p(1-p)), with the branches
    of ``stats.fisher_phi``.
    """
    z = cmath.exp(-2j * phi) * a0.conjugate() * a1
    prob = _grid_prob(a0, a1, phi)
    pq = prob * (1.0 - prob)
    if pq > _PQ_ROUNDING:
        dp = 4.0 * z.imag
        return dp * dp / pq
    b = 2.0 * abs(z)
    if b == 0.0:
        # constant mask: no phi dependence at all
        return 0.0
    c = 2.0 * z.real / b  # cos(2*phi - theta)
    if prob < 0.5:
        return 4.0 * b * (1.0 - c) / (1.0 - prob)
    return 4.0 * b * (1.0 + c) / prob


def cmd_fisher_phi_sweep(
    p: ProcedureParams,
    r_values: tuple[float, ...],
    phi_values: tuple[float, ...],
    engine: str,
    grid_n: int,
) -> tuple[list[str], list[dict]]:
    """Fisher information in the phase, analytic and/or from the grid response.

    ``engine`` is "analytic", "grid" or "all" (both, plus a comparison).
    """
    want_analytic = engine in ("analytic", "all")
    want_grid = engine in ("grid", "all")
    if want_grid:
        _require_matched_window(p)
        response = phase_response(p, grid_n)
    rows: list[dict] = []
    for r in r_values:
        if want_grid:
            a0, a1 = response.split(PiecewiseBinaryFunction.step(r, p.big_p))
        for phi in phi_values:
            row: dict[str, Any] = {"phi": phi, "r": r}
            if want_analytic:
                rep = fisher_phi(p, r, phi)
                row["fisher"] = rep.fisher
                row["variance_bound"] = rep.variance_bound
                row["mean_bound"] = rep.mean_bound_diagnostic
                row["delta_phi"] = (
                    rep.delta_phi if rep.delta_phi is not None else math.nan
                )
                row["singular_limit"] = rep.singular_limit
            if want_grid:
                row["fisher_grid"] = _fisher_grid(a0, a1, phi)
            if engine == "all":
                row["comparable"] = (
                    not row["singular_limit"]
                    and math.cos(2.0 * phi) <= _COMPARABLE_COS_MAX
                )
                row["max_pairwise_dev"] = abs(row["fisher"] - row["fisher_grid"])
            rows.append(row)
    analytic_cols = [
        "phi", "r", "fisher", "variance_bound", "mean_bound", "delta_phi",
        "singular_limit",
    ]
    if engine == "analytic":
        columns = analytic_cols
    elif engine == "grid":
        columns = ["phi", "r", "fisher_grid"]
    else:
        columns = analytic_cols + ["fisher_grid", "comparable", "max_pairwise_dev"]
    return columns, rows


def cmd_fisher_r_sweep(
    p: ProcedureParams, r_values: tuple[float, ...], phi_values: tuple[float, ...]
) -> tuple[list[str], list[dict]]:
    """Fisher information in the threshold position (closed form only).

    A circuit-difference column is not offered: moving the threshold moves a
    mask jump within a conjugate-grid cell, so the difference quotient is
    dominated by discretization, not by the derivative being estimated.
    """
    rows = [
        {"phi": phi, "r": r, "fisher_r": fisher_r(p, r, phi)}
        for phi in phi_values
        for r in r_values
    ]
    return ["phi", "r", "fisher_r"], rows


def cmd_dj(
    p: ProcedureParams, r: float, trials: int, seed: int
) -> tuple[list[str], list[dict]]:
    """Seeded one-shot classification at the decision phase.

    Three rows: the requested threshold, then balanced (r=0) and constant
    (r=P) references at the same parameters.  Row i draws its trials from the
    stream seeded with (seed, i).
    """
    trials = int(trials)
    half_pi = math.pi / 2.0
    rows = []
    cases = (("requested", float(r)), ("balanced_reference", 0.0),
             ("constant_reference", p.big_p))
    for idx, (label, r_case) in enumerate(cases):
        p_x0 = dj_statistics(p, r_case).p_x0
        f = PiecewiseBinaryFunction.step(r_case, p.big_p)
        # a detection at the decision phase classifies the mask as constant
        n_const = sample_outcomes(p, f, half_pi, trials, (int(seed), idx))
        n_bal = trials - n_const
        if r_case == 0.0:
            truth = "balanced"
            emp_err, ana_err = n_const / trials, 0.0
        elif abs(abs(r_case) - p.big_p) <= 1e-12 * p.big_p:
            truth = "constant"
            emp_err, ana_err = n_bal / trials, 1.0 - mask_efficiency(p)
        else:
            truth = "neither"
            emp_err = ana_err = math.nan
        rows.append({
            "label": label,
            "r": r_case,
            "truth": truth,
            "p_x0": p_x0,
            "trials": trials,
            "classified_constant": n_const,
            "classified_balanced": n_bal,
            "empirical_error_rate": emp_err,
            "analytic_error_rate": ana_err,
        })
    columns = [
        "label", "r", "truth", "p_x0", "trials", "classified_constant",
        "classified_balanced", "empirical_error_rate", "analytic_error_rate",
    ]
    return columns, rows


def cmd_estimate(
    p: ProcedureParams,
    r: float,
    phi_true: float,
    shots: int,
    replicas: int,
    seed: int,
) -> tuple[list[str], list[dict]]:
    """Replicated maximum-likelihood estimates; final row (replica=-1) is the
    replica mean."""
    summary = replicated_mse(p, r, phi_true, shots, replicas, seed)
    rows = []
    crb = summary.crb
    bounded = math.isfinite(crb) and crb > 0.0
    for i, phi_hat in enumerate(summary.phi_hats):
        mse = (phi_hat - summary.phi_true) ** 2
        rows.append({
            "replica": i,
            "phi_hat": phi_hat,
            "n_shots": summary.shots,
            "empirical_mse": mse,
            "crb": crb,
            "mse_over_crb": mse / crb if bounded else math.nan,
        })
    rows.append({
        "replica": -1,
        "phi_hat": math.nan,
        "n_shots": summary.shots,
        "empirical_mse": summary.mean_mse,
        "crb": summary.crb,
        "mse_over_crb": summary.mse_over_crb,
    })
    columns = ["replica", "phi_hat", "n_shots", "empirical_mse", "crb", "mse_over_crb"]
    return columns, rows


def cmd_crosscheck(
    p: ProcedureParams,
    r_values: tuple[float, ...],
    phi_values: tuple[float, ...],
    grid_n: int,
) -> tuple[list[str], list[dict], float]:
    """Detection probability from all three engines, with worst deviation."""
    _require_matched_window(p)
    response = phase_response(p, grid_n)
    qspec = QuadratureSpec()
    rows = []
    worst = 0.0
    for r in r_values:
        f = PiecewiseBinaryFunction.step(r, p.big_p)
        a0, a1 = response.split(f)
        integrals = quadrature_response(p, f, qspec)
        for phi in phi_values:
            pa = prob_x0(p, r, phi).p_x0
            pq = integrals.at(phi).value
            pg = _grid_prob(a0, a1, phi)
            dev = max(abs(pa - pq), abs(pa - pg), abs(pq - pg))
            worst = max(worst, dev)
            rows.append({
                "phi": phi,
                "r": r,
                "p_analytic": pa,
                "p_quadrature": pq,
                "p_grid": pg,
                "max_pairwise_dev": dev,
            })
    columns = ["phi", "r", "p_analytic", "p_quadrature", "p_grid", "max_pairwise_dev"]
    return columns, rows, worst


def cmd_audit(
    p: ProcedureParams, r: float, phis: tuple[float, ...] | None
) -> tuple[list[str], list[dict]]:
    rows = heisenberg_audit(p, r, phis)
    columns = [
        "phi", "r", "fisher", "variance_bound", "mean_bound_generator_f",
        "mean_bound_generator_2f", "dphi_sqrt_fisher", "optimal",
    ]
    return columns, rows


def cmd_gap(
    p: ProcedureParams, phis: tuple[float, ...]
) -> tuple[list[str], list[dict]]:
    rows = []
    for phi, g in zip(phis, step_hat_gaps(p, phis)):
        rows.append({
            "phi": phi,
            "mask_product": p.mask_product,
            "signed_gap": g.signed_gap,
            "gap": g.gap,
            "leading_order_prediction": g.leading_order_prediction,
            "ratio": g.ratio,
        })
    columns = [
        "phi", "mask_product", "signed_gap", "gap", "leading_order_prediction",
        "ratio",
    ]
    return columns, rows


def _add_common_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--delta", type=float, default=None,
                    help="preparation width (default 1/sqrt(2))")
    sp.add_argument("--x0", type=float, default=0.0,
                    help="preparation and detection center (default 0)")
    sp.add_argument("--big-t", type=float, default=None,
                    help="position half-width; default aligns conjugate cell "
                         "edges with multiples of P/8 for the grid size")
    sp.add_argument("--big-p", type=float, default=None,
                    help="mask half-domain (default 3/(2*delta))")
    sp.add_argument("--epsilon", type=float, default=None,
                    help="detection window width (default: delta)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="table format (default csv)")
    sp.add_argument("--out", default=None,
                    help="write the table to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvphase",
        description="Phase estimation and one-shot function classification "
                    "with finite-domain Gaussian states and binary spectral "
                    "masks: closed forms, quadrature, and a circuit-level "
                    "grid simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "fisher-phi",
        help="sweep Fisher information in the phase",
        epilog="columns (analytic): phi,r,fisher,variance_bound,mean_bound,"
               "delta_phi,singular_limit; engine=grid: phi,r,fisher_grid; "
               "engine=all: both plus comparable,max_pairwise_dev",
    )
    _add_common_flags(sp)
    sp.add_argument("--r", type=_axis, default=None,
                    help="threshold axis (default 0)")
    sp.add_argument("--phi", type=_axis, default=None,
                    help="phase axis (default 33 points on [0, pi])")
    sp.add_argument("--engine", choices=("analytic", "grid", "all"),
                    default="analytic")
    sp.add_argument("--grid-n", type=int, default=_DEFAULT_GRID_N,
                    help="simulator grid size, power of two in [256, 2^24] "
                         "(default 4096)")
    sp.add_argument("--fig4", action="store_true",
                    help="canonical preset: thresholds {0,P/8,P/4,P/2,P}, "
                         "33 phases on [0, pi]")
    sp.set_defaults(func=_run_fisher_phi)

    sp = sub.add_parser(
        "fisher-r",
        help="sweep Fisher information in the threshold position",
        epilog="columns: phi,r,fisher_r",
    )
    _add_common_flags(sp)
    sp.add_argument("--r", type=_axis, default=None,
                    help="threshold axis (default 63 interior points of (0, P))")
    sp.add_argument("--phi", type=_axis, default=None,
                    help="phase axis (default pi/2)")
    sp.add_argument("--fig5", action="store_true",
                    help="canonical preset: phases {pi/2,5pi/12,pi/3,pi/4,pi/8} "
                         "over the interior threshold axis")
    sp.set_defaults(func=_run_fisher_r)

    sp = sub.add_parser(
        "dj",
        help="seeded one-shot classification trials at the decision phase",
        epilog="columns: label,r,truth,p_x0,trials,classified_constant,"
               "classified_balanced,empirical_error_rate,analytic_error_rate",
    )
    _add_common_flags(sp)
    sp.add_argument("--r", type=float, default=0.0, help="threshold (default 0)")
    sp.add_argument("--trials", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_run_dj)

    sp = sub.add_parser(
        "estimate",
        help="replicated maximum-likelihood phase estimation vs the "
             "information bound",
        epilog="columns: replica,phi_hat,n_shots,empirical_mse,crb,"
               "mse_over_crb; the replica=-1 row is the replica mean",
    )
    _add_common_flags(sp)
    sp.add_argument("--r", type=float, default=0.0, help="threshold (default 0)")
    sp.add_argument("--phi", type=float, default=None,
                    help="true phase (default pi/4)")
    sp.add_argument("--shots", type=int, default=100)
    sp.add_argument("--replicas", type=int, default=2000,
                    help="independent replicas, at most 10^5 (default 2000)")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_run_estimate)

    sp = sub.add_parser(
        "crosscheck",
        help="tri-engine agreement table for the detection probability",
        epilog="columns: phi,r,p_analytic,p_quadrature,p_grid,"
               "max_pairwise_dev; exits 3 if any deviation exceeds --tol",
    )
    _add_common_flags(sp)
    sp.add_argument("--r", type=_axis, default=None,
                    help="threshold axis (default {0,P/8,P/4,P/2,P})")
    sp.add_argument("--phi", type=_axis, default=None,
                    help="phase axis (default 17 points on [0, pi])")
    sp.add_argument("--grid-n", type=int, default=_DEFAULT_GRID_N,
                    help="simulator grid size, power of two in [256, 2^24] "
                         "(default 4096)")
    sp.add_argument("--tol", type=float, default=1e-4,
                    help="max allowed pairwise deviation (default 1e-4)")
    sp.set_defaults(func=_run_crosscheck)

    sp = sub.add_parser(
        "audit",
        help="information bounds and optimality flags across phases",
        epilog="columns: phi,r,fisher,variance_bound,mean_bound_generator_f,"
               "mean_bound_generator_2f,dphi_sqrt_fisher,optimal",
    )
    _add_common_flags(sp)
    sp.add_argument("--r", type=float, default=0.0, help="threshold (default 0)")
    sp.add_argument("--phi", type=_axis, default=None,
                    help="phase axis (default 15 interior points of (0, pi/2))")
    sp.set_defaults(func=_run_audit)

    sp = sub.add_parser(
        "gap",
        help="detection-probability gap between the one-sided and centered "
             "masks of equal measure, vs its leading-order size",
        epilog="columns: phi,mask_product,signed_gap,gap,"
               "leading_order_prediction,ratio; needs mask_product <= 1/2, "
               "default P puts it at 0.1",
    )
    _add_common_flags(sp)
    sp.add_argument("--phi", type=_axis, default=None,
                    help="phase axis (default 17 points on [0, pi])")
    sp.set_defaults(func=_run_gap)

    return parser


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
    columns, rows = cmd_fisher_phi_sweep(
        p, r_values, phi_values, args.engine, args.grid_n
    )
    _emit(columns, rows, args.format, args.out)
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
    columns, rows = cmd_fisher_r_sweep(p, r_values, phi_values)
    _emit(columns, rows, args.format, args.out)
    return 0


def _run_dj(args: argparse.Namespace) -> int:
    p = _resolve_params(args)
    columns, rows = cmd_dj(p, args.r, args.trials, args.seed)
    _emit(columns, rows, args.format, args.out)
    return 0


def _run_estimate(args: argparse.Namespace) -> int:
    p = _resolve_params(args)
    phi_true = args.phi if args.phi is not None else math.pi / 4.0
    columns, rows = cmd_estimate(
        p, args.r, phi_true, args.shots, args.replicas, args.seed
    )
    _emit(columns, rows, args.format, args.out)
    return 0


def _run_crosscheck(args: argparse.Namespace) -> int:
    # a NaN tolerance would never compare as exceeded and so disable the gate
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ParameterError(f"--tol must be finite and positive, got {args.tol!r}")
    p = _resolve_params(args)
    r_values = args.r if args.r is not None else _fig4_thresholds(p.big_p)
    phi_values = args.phi if args.phi is not None else _phase_axis(17)
    columns, rows, worst = cmd_crosscheck(p, r_values, phi_values, args.grid_n)
    _emit(columns, rows, args.format, args.out)
    if worst > args.tol:
        print(
            f"crosscheck: worst deviation {worst:.3e} exceeds tolerance "
            f"{args.tol:.3e}",
            file=sys.stderr,
        )
        return 3
    return 0


def _run_audit(args: argparse.Namespace) -> int:
    p = _resolve_params(args)
    columns, rows = cmd_audit(p, args.r, args.phi)
    _emit(columns, rows, args.format, args.out)
    return 0


def _run_gap(args: argparse.Namespace) -> int:
    p = _resolve_params(args, default_big_p=lambda delta: 0.1 / delta)
    phi_values = args.phi if args.phi is not None else _phase_axis(17)
    columns, rows = cmd_gap(p, phi_values)
    _emit(columns, rows, args.format, args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CvPhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
