"""Output checks on the tables the benchmark gets back from ``cvphase``.

Each check reads the CSV a command printed and returns the reasons it failed
(empty when the table is right).  The expected values are worked out here
from the CLI's documented defaults with ``math`` alone, never by calling the
package under test.  A SHA-256 digest of every table is recorded next to the
checks as information: a byte change in output shows in the report without
counting as a failure.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math

TOL = 1e-4  # crosscheck's default --tol
NORM_DRIFT = 1e-12  # largest |norm_sq - 1| allowed after a grid stage
BOUND_SLACK = 1e-12
SIGMAS = 5.0

DELTA = 1.0 / math.sqrt(2.0)  # the CLI's default preparation width
BIG_P = 3.0 / (2.0 * DELTA)  # the CLI's default mask half-domain
# erf(2*P*delta)^2: the probability that a constant mask is detected
MASK_EFFICIENCY = math.erf(2.0 * BIG_P * DELTA) ** 2


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(row: dict[str, str], col: str) -> float:
    return float(row[col])


def check(kind: str, rows_expected: int, rc: int, text: str) -> tuple[list[str], dict]:
    """Check one command's exit code and table; return (failures, info)."""
    info: dict = {"digest": digest(text), "bytes": len(text.encode("utf-8"))}
    failures = [] if rc == 0 else [f"{kind}: exit code {rc}"]
    if kind == "import":
        return failures, info
    try:
        rows = _rows(text)
        failures += _CHECKS[kind](rows, info)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return failures + [f"{kind}: unreadable table ({type(exc).__name__}: {exc})"], info
    info["rows"] = len(rows)
    if len(rows) != rows_expected:
        failures.append(f"{kind}: {len(rows)} rows, expected {rows_expected}")
    return failures, info


def check_trace(trace: dict) -> list[str]:
    """Failures found by the tracer: a grid stage that did not keep the norm."""
    drift = trace["maxima"].get("grid.norm_drift_max", 0.0)
    return [f"grid stage norm drift {drift:.3e} > {NORM_DRIFT:g}"] if drift > NORM_DRIFT else []


def _plain(rows, info):
    return []


def _fisher_under_bound(rows, info):
    bad = [
        r for r in rows
        if not _num(r, "fisher") <= _num(r, "variance_bound") * (1.0 + BOUND_SLACK)
    ]
    return [f"fisher above variance_bound in {len(bad)} rows"] if bad else []


def _crosscheck(rows, info):
    worst = max(_num(r, "max_pairwise_dev") for r in rows)
    info["worst_dev"] = worst
    return [] if worst <= TOL else [f"crosscheck worst deviation {worst:.3e} > {TOL:g}"]


def _dj(rows, info):
    failures = []
    for r in rows:
        if r["truth"] == "balanced" and int(r["classified_constant"]) != 0:
            failures.append(
                f"dj {r['label']}: balanced mask classified constant "
                f"{r['classified_constant']} times"
            )
    constant = [r for r in rows if r["truth"] == "constant"]
    if len(constant) != 1:
        return failures + [f"dj: {len(constant)} constant rows, expected 1"]
    trials = int(constant[0]["trials"])
    errors = int(constant[0]["classified_balanced"])
    q = 1.0 - MASK_EFFICIENCY
    mean = trials * q
    sigma = math.sqrt(trials * q * (1.0 - q))
    info["dj_error_z"] = (errors - mean) / sigma
    if abs(errors - mean) > SIGMAS * sigma:
        failures.append(
            f"dj constant row: {errors} errors, binomial prediction "
            f"{mean:.2f} +- {SIGMAS:g}*{sigma:.2f}"
        )
    return failures


def _estimate(rows, info):
    last = rows[-1]
    if int(last["replica"]) != -1:
        return ["estimate: last row is not the replica mean"]
    ratio = float(last["mse_over_crb"])
    info["mse_over_crb"] = ratio
    return [] if math.isfinite(ratio) else [f"estimate: mse_over_crb is {ratio}"]


_CHECKS = {
    "audit": _plain,
    "gap": _plain,
    "fig5": _plain,
    "fig4": _fisher_under_bound,
    "crosscheck": _crosscheck,
    "dj": _dj,
    "estimate": _estimate,
}
