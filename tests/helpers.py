"""Shared parameter builders, reference computations and formatters for the
test suite."""

import csv
import io
import math

from cvphase import ProcedureParams, aligned_half_width

DELTA = 1.0 / math.sqrt(2.0)
BIG_P = 3.0 / (2.0 * DELTA)  # mask product P*delta = 1.5
GRID_N = 4096


def canonical(n: int = GRID_N) -> ProcedureParams:
    """The standard working point: delta = 1/sqrt(2), P = 3/(2*delta), x0 = 0,
    T aligned so conjugate cell edges hit multiples of P/8."""
    return ProcedureParams(
        x0=0.0,
        delta=DELTA,
        big_t=aligned_half_width(BIG_P, n),
        big_p=BIG_P,
    )


def with_mask_product(product: float, delta: float = DELTA) -> ProcedureParams:
    """Parameters with a chosen P*delta, T comfortably inside the regime."""
    big_p = product / delta
    return ProcedureParams(
        x0=0.0, delta=delta, big_t=8.0 * delta, big_p=big_p
    )


def saturated() -> ProcedureParams:
    """Mask product large enough that erf(2*P*delta) rounds to 1.0 exactly."""
    p = ProcedureParams(x0=0.0, delta=1.0, big_t=10.0, big_p=4.0)
    assert math.erf(2.0 * p.big_p * p.delta) == 1.0
    return p


def inverted_phase(hits: int, shots: int, p: ProcedureParams, r: float) -> float:
    """The maximum-likelihood phase of ``hits`` detections in ``shots``
    trials of the step mask r: the hit fraction inverted in closed form
    through a + b*cos(2*phi), clamped to the attainable range."""
    from cvphase import cosine_model_coefficients

    a, b = cosine_model_coefficients(p, r)
    return 0.5 * math.acos(min(1.0, max(-1.0, (hits / shots - a) / b)))


def binomial_pmf(k: int, n: int, p: float) -> float:
    """P(K = k) for K ~ Binomial(n, p) with 0 < p < 1: the reference the
    seeded hit counts are tested against.  Taken through log-gamma, so that
    no factor of C(n, k) * p^k * (1 - p)^(n - k) overflows or underflows up
    to n = 10^8, where its relative error reaches about 2.5e-7 against
    mpmath's exact value."""
    log_pmf = (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )
    return math.exp(log_pmf)


def cell_csv(v) -> str:
    """One CSV cell as the CLI spelled it cell by cell: true/false for bools,
    17 significant digits for floats (nan, inf, -inf, a negative NaN as nan),
    str() for the rest."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def reference_csv(table) -> str:
    """A table, which maps each column, in column order, to its list of
    cells, as the CLI wrote it through csv.writer, cell by cell: the
    reference the column writer must match byte for byte."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table)
    writer.writerows(map(cell_csv, row) for row in zip(*table.values()))
    return buf.getvalue()


def reference_phase_weights(p: ProcedureParams, n: int):
    """The cell weights |G_k|^2 * dy that ``phase_response(p, n)`` sums in
    the lag domain, computed cell by cell along the circuit's own route:
    the N-point prepared state and its ``fourier`` transform."""
    import numpy as np

    from cvphase import grid

    moved = grid.fourier(grid.prepare_gaussian(p, n))
    return np.abs(moved.amplitudes) ** 2 * moved.grid_step


def cell_sums(weights, ks):
    """sum(weights[:k]) for each k of ks, each summed on its own (numpy's
    pairwise sum, so no running total carries its rounding from k to k)."""
    return [float(weights[:k].sum()) for k in ks]


def fourier_matrix(s):
    """Dense N x N unitary U[k, j] = sqrt(dx*dy/pi) * exp(2i*x_j*y_k).

    This is the transform between sqrt(step)-scaled amplitude vectors:
    sqrt(dy) * fourier(s).amplitudes == U @ (sqrt(dx) * s.amplitudes).
    Intended for small-N unitarity checks; quadratic memory.
    """
    import numpy as np

    from cvphase import GridLayoutError, grid

    if s.space != grid.POSITION:
        raise GridLayoutError("fourier_matrix expects a position-space state")
    n = s.n
    dx = s.grid_step
    dy, ys = grid._conjugate_layout(n, dx)
    x = s.points
    y = ys + dy * np.arange(n)
    return math.sqrt(dx * dy / math.pi) * np.exp(2j * np.outer(y, x))
