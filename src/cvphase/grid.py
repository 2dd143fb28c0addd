"""The prepare / transform / mask / detect circuit on a grid, evaluated
through its phase-linear split at the mask.

The continuum transform pair uses the kernel exp(2ixy) (units hbar = 1/2).
On N position samples x_j = -T + j*dx with dx = 2T/N, the matching conjugate
spacing is dy = pi/(N*dx) = pi/(2T), and the matrix

    U[k, j] = sqrt(dx*dy/pi) * exp(2i * x_j * y_k)

is exactly unitary for any constant offset of the y grid, because
2*dx*dy = 2*pi/N turns the double sum into a discrete Fourier kernel.

The circuit's states are wavefunction samples normalized so that
sum |a_j|^2 * step = 1 in whichever space they live.  U is the unitary
representative of the transform F between the sqrt(step)-scaled vectors:
F applies b = (dx/sqrt(pi)) * K a (K the bare kernel sum), which equals
diag(1/sqrt(dy)) U diag(sqrt(dx)) a, so the step-weighted norm is
preserved exactly and the round trip is the exact identity.

Conjugate-grid layout.  Samples sit at half-integer multiples of dy,

    y_k = (k - N/2 + 1/2) * dy,

spanning [-pi*N/(4T), pi*N/(4T)).  Two reasons.  First, each sample then
represents the cell of width dy centred on it, with cell edges at integer
multiples of dy; a piecewise-constant mask whose breakpoints fall on cell
edges is applied exactly segment by segment (midpoint rule per segment,
second-order in dy), whereas a sample sitting exactly on a jump would drag
its whole cell to one side of the jump.  Second, no sample sits at y = 0, so
the balanced decision run comes out exactly zero by symmetry instead of
carrying an O(dy^2) artefact.  ``aligned_half_width`` (in ``model``) picks
T = 4*pi*q/P, so that dy = P/(8q) and standard threshold sweeps (multiples
of P/8) and P land on cell edges.  The CLI's default takes q = max(32, N/128):
above N = 4096, dx = 2T/N stays the default grid's and a larger N refines
the cell instead of sampling the same Gaussian more finely, so the support
the sweep evaluates stays 80*delta/dx samples (613 at the default delta) at
every N, while the mask domain spans 16q cells.

Note the simulated state carries the full Gaussian momentum tail, while the
closed forms truncate it to [-P, P]; outside the mask domain the mask acts
as 0.  Probabilities therefore differ from the closed forms by up to about
1 - erf(2*P*delta)^2 even on a converged grid.

Phase-linear split.  Because the transform is exactly unitary, the detected
overlap <W, F^-1 M_phi F G> of the circuit equals <F W, M_phi F G> on
the conjugate grid (Parseval), where G is the prepared state, W the
normalized detection window and M_phi the diagonal mask exp(-2i*phi*f(y_k)).
The phase enters only through M_phi and f is binary, so with the cell
weights w_k = conj((F W)_k) * (F G)_k * dy the amplitude is

    A0 + exp(-2i*phi) * A1,   A0 = sum_{f(y_k)=0} w_k,   A1 = sum_{f(y_k)=1} w_k.

``phase_response`` therefore prepares once; every cell of a sweep then
costs a few scalar operations (``PhaseResponse.p_x0s`` and
``PhaseResponse.fishers`` give the probability and Fisher information of a
threshold axis of masks over a phase axis as one r-major column, taking
each phase's exp(-2i*phi) or cos(phi)^2 once per sweep), and every mask a
few sums over its runs of cells.  This is the only route by which the
package evaluates the circuit.  The stage-by-stage circuit, which builds
the N-point states and runs each stage on them, is the test oracle
``tests/circuit_oracle.py``.  It imports this module's rules, so both
routes share them: one ``_runs_of_ones`` places the mask's runs of cells
where f = 1, which the oracle's mask stage multiplies by exp(-2i*phi) and
``PhaseResponse.split`` sums as A1, and one ``_gaussian`` evaluates and
normalizes the prepared state and the detection window.  They differ only
in how they sum cells, by rounding (~1e-15 in the probability).

Detection projects back onto the prepared state, as the closed forms assume
(W = G), so w_k = |(F G)_k|^2 * dy is real and non-negative.  With
x_j = xs + j*dx, F is dx/sqrt(pi) times a unit-modulus post-ramp
exp(2i*xs*y_k) times sum_j exp(2i*j*dx*y_k) * a_j, and the post-ramp drops
out of |.|^2.  The layout identity 2*j*dx*y_k = pi*j*(2k + 1 - N)/N turns
the sum into

    X(s) = sum_j a_j * exp(i*pi*j*s/N),   s = 2k + 1 - N,

so w_k = C * |X(s)|^2 with C = (dx/sqrt(pi))^2 * dy.

Support.  exp(-(x - x0)^2 / (2*delta^2)) underflows to exactly 0.0 once
|x - x0| > 40*delta (exp(-800) = 0), so ``_support_gaussian`` evaluates only
the L samples of ``_support`` and every other amplitude is an exact 0; the
sweep reads that support array and never builds an N-point state (the
oracle's prepare stage places the same array in one).

Lag-domain sums.  The a_j are real, so with the support's autocorrelation
R(m) = sum_j a_j * a_{j+m} (m = 0..L-1),

    |X(s)|^2 = R(0) + 2 * sum_{m=1}^{L-1} R(m) * cos(pi*m*s/N).

A mask needs only sums of w_k over runs of cells, and every prefix sum
P(k) = sum_{k' < k} w_k' has a closed form: the cosines telescope,
sum_{k' < k} cos(pi*m*(2k' + 1 - N)/N) = sin(pi*m*(2k - N)/N) / (2*sin(pi*m/N)),
so with h(m) = R(m) / sin(pi*m/N) (0 < m < N, so the sine is positive)

    P(k) = C * [k*R(0) + sum_{m=1}^{L-1} h(m) * sin(pi*m*(2k - N)/N)].

P(N) = C*N*R(0), since every sine there is sin(pi*m) = 0, is the total
weight (1 to rounding).  ``phase_response`` keeps C*R(0) and C*h(m) only.
R comes from one rfft/irfft pair of the smallest power of two >= 2L - 1
points, whose zero padding keeps the cyclic correlation from wrapping.
``PhaseResponse.split`` takes A1 as the prefix sums' differences over
the runs of ``_runs_of_ones``, each cut found by a scalar search, and A0 as
the rest of P(N); both are clamped to >= 0 against rounding.  A sweep over
many masks takes every distinct cut of all of them from one prefix-sum
pass, in blocks of at most max(2*(L - 1), 2^16) lag terms.

Exact angle reduction.  m*(2k - N) is an integer below N^2 <= 2^48 in
magnitude, so it is reduced modulo 2N exactly in int64 (a bitwise and, 2N
being a power of two) before the one rounding of pi*r/N.  The angle then
never exceeds 2*pi, where pi*m*(2k - N)/N itself reaches pi*m and would
carry its rounding (~1e-13 rad at m = 612, ~4e-9 near m = 2^24) into the
term of lag m.

Cost.  At the CLI's default T the support is 613 samples at every N: a
sweep runs one 2048-point transform pair and each cut sums 612 lags, so
neither its time nor its memory grows with N (a 2^24 ``crosscheck`` takes
about 0.2 s and peaks at 31 MB of process RSS, mostly the interpreter).
The one dear case is a support that spans the grid (L = N), which only an
explicit small T gives, such as T = 3.5: the transform pair reaches 2N
points and each distinct cut sums N - 1 lags, two cuts per block.  A 2^20
``crosscheck`` of one mask then takes about 215 ms and raises the peak RSS
by 73*N bytes, and each further threshold adds one cut, about 20 ms.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Iterable

import numpy as np

from .errors import GridLayoutError, ParameterError
from .model import (
    PiecewiseBinaryFunction,
    ProcedureParams,
    _masks,
    _phases,
    _probabilities,
    _require_pow2,
    require_containment,
)

# half-width of the sampled support in units of delta: the Gaussian's exp
# underflows to exactly 0.0 beyond it (exp(-40^2/2) = exp(-800) = 0)
_SUPPORT_WIDTHS = 40.0
# relative slack of the cell-centre test: a cell centred within P + slack of
# 0 takes the mask's value, and a half-span of P - slack covers the mask
_DOMAIN_SLACK = 1e-12
# lag terms per block of prefix sums, unless two cuts need more: a block of
# a full-support sweep holds two rows, as one mask's cuts did
_LAG_BLOCK = 1 << 16


def _index_range(n: int, start: float, step: float, half: float) -> tuple[int, int]:
    """Index range [lo, hi), clipped to [0, n), holding every k with
    |start + k*step| <= half; rounded outwards, so it may hold one index
    more each side."""
    lo = math.floor((-half - start) / step)
    hi = math.ceil((half - start) / step) + 1
    return max(lo, 0), min(hi, n)


def _support(p: ProcedureParams, n: int) -> tuple[int, int]:
    """Sample range [lo, hi) holding every x_j with |x_j - x0| <= 40*delta;
    the Gaussian is exactly 0.0 at every sample outside it."""
    return _index_range(
        n, -p.big_t - p.x0, 2.0 * p.big_t / n, _SUPPORT_WIDTHS * p.delta
    )


def _gaussian(x: np.ndarray, dx: float, p: ProcedureParams, what: str) -> np.ndarray:
    """The width-delta Gaussian at x0 on the samples x, renormalized so that
    sum g^2 * dx = 1: the prepared state, and the window detection projects
    onto.  Raises, naming what, if every sample underflowed (the Gaussian
    falls between the samples)."""
    gauss = np.exp(-((x - p.x0) ** 2) / (2.0 * p.delta**2))
    norm_sq = float(np.sum(gauss * gauss)) * dx
    if norm_sq == 0.0:
        raise ParameterError(f"{what} has no support on this grid")
    gauss *= 1.0 / math.sqrt(norm_sq)
    return gauss


def _support_gaussian(p: ProcedureParams, n: int) -> tuple[int, int, float, np.ndarray]:
    """(lo, hi, dx, g): ``_gaussian`` on the samples x_j = -T + j*dx of
    ``_support``, after the containment and grid-size checks.

    These are the same doubles as on the full grid; every other sample is
    the exact 0 that ``exp`` would give there.
    """
    require_containment(p)
    n = _require_pow2(n)
    dx = 2.0 * p.big_t / n
    lo, hi = _support(p, n)
    x = -p.big_t + dx * np.arange(lo, hi)
    return lo, hi, dx, _gaussian(x, dx, p, "prepared state")


def _conjugate_layout(n: int, dx: float) -> tuple[float, float]:
    dy = math.pi / (n * dx)
    y_start = (-n / 2 + 0.5) * dy
    return dy, y_start


# a mask jump within this many cells of a conjugate cell edge counts as on it
_EDGE_TOL = 1e-9


def _off_cell_edge(p: ProcedureParams, r: float) -> bool:
    """Whether a mask jump at r falls inside a conjugate cell of the grids
    of p, whose edges sit at integer multiples of dy = pi/(2T)."""
    cells = r / (math.pi / (2.0 * p.big_t))
    return abs(cells - round(cells)) > _EDGE_TOL


def _cell_edge_note(p: ProcedureParams, r_values: tuple[float, ...]) -> str:
    """The conjugate cell width and the mask jumps off a cell edge.

    A jump inside a cell puts that whole cell on one side of it, an error
    first order in dy (see ``_off_cell_edge``).  The jumps are the
    thresholds and the domain edges +-P, outside which the mask acts as 0;
    P is named unless a listed threshold is +-P.
    """
    dy = math.pi / (2.0 * p.big_t)
    off = [r for r in r_values if _off_cell_edge(p, r)]
    where = "thresholds off a cell edge: r = " + ", ".join(map(repr, off))
    if not off:
        where = "every threshold on a cell edge"
    if _off_cell_edge(p, p.big_p) and all(abs(r) != p.big_p for r in off):
        where += (
            f"; domain edge P = {p.big_p!r} off a cell edge (P/dy = {p.big_p / dy:.2f})"
        )
    return f"conjugate cell dy = pi/(2T) = {dy:.6g}, {where}"


def _require_cover(n: int, dy: float, half_domain: float) -> None:
    half_span = n * dy / 2.0
    if half_span < half_domain * (1.0 - _DOMAIN_SLACK):
        raise GridLayoutError(
            f"conjugate grid half-span {half_span:.6g} does not cover the mask "
            f"domain [-{half_domain:.6g}, {half_domain:.6g}]"
        )


def _cells_at_most(n: int, y_start: float, dy: float, cut: float) -> int:
    """How many of the samples y_start + dy*k, k in [0, n), are <= cut.

    Each candidate is the double y_start + dy*np.arange(n) holds at k, and
    the samples ascend: the division only guesses the count, and the two
    walks settle it exactly.
    """
    k = min(max(math.floor((cut - y_start) / dy) + 1, 0), n)
    while k > 0 and y_start + dy * (k - 1) > cut:
        k -= 1
    while k < n and y_start + dy * k <= cut:
        k += 1
    return k


def _runs_of_ones(
    n: int, y_start: float, dy: float, f: PiecewiseBinaryFunction
) -> list[int]:
    """start, stop, start, stop, ...: the non-empty runs of the conjugate
    cells y_start + k*dy, k in [0, n), where f = 1; the n cells must cover
    the mask domain.

    A cell is inside when |y| <= P + slack (P = the mask's half-domain) and
    there takes the value of the segment f's right-closed convention gives
    it; beyond, f counts as 0.  The cells ascend, so each run ends at a cut
    counting the cells y <= cut: the double below -(P + slack), then f's
    breakpoints, then P + slack.
    """
    _require_cover(n, dy, f.half_domain)
    edge = f.half_domain + _DOMAIN_SLACK * max(1.0, f.half_domain)
    cuts = (math.nextafter(-edge, -math.inf), *f.breakpoints, edge)
    counts = [_cells_at_most(n, y_start, dy, cut) for cut in cuts]
    edges = []
    for value, start, stop in zip(f.values, counts, counts[1:]):
        if value and start < stop:
            edges += (start, stop)
    return edges


def _fishers(a0: float, a1: float, cos_sqs: list[float]) -> list[float]:
    """Fisher information in phi of the response to (A0, A1), exactly, at
    each phase of cos_sqs, its cos(phi)^2.

    A0 and A1 are real and non-negative and sum to 1 (Parseval), so the
    response p = A0^2 + A1^2 + 2*A0*A1*cos(2*phi) has
    1 - p = 4*A0*A1*sin(phi)^2, p = (A0 - A1)^2 + 4*A0*A1*cos(phi)^2 and
    dp/dphi = -8*A0*A1*sin(phi)*cos(phi).  Then dp^2/(p(1-p)) reduces to
    16*A0*A1*cos(phi)^2 / p with no cancellation anywhere, also where p or
    1 - p vanishes; at p = 0 (A0 = A1 = 1/2, cos(phi) = 0) the limit is 4.
    The mask's products (A0 - A1)^2, 4*A0*A1 and 16*A0*A1 are taken once.
    """
    square, product4, product16 = (a0 - a1) ** 2, 4.0 * a0 * a1, 16.0 * a0 * a1
    column = []
    for cos_sq in cos_sqs:
        prob = square + product4 * cos_sq
        column.append(product16 * cos_sq / prob if prob != 0.0 else 4.0)
    return column


class PhaseResponse(namedtuple(
    "PhaseResponse", "params n grid_start grid_step mean_weight lag_weights"
)):
    """The circuit split at the mask, through the support's autocorrelation.

    The n conjugate cells y_k = grid_start + k*grid_step carry the weights
    w_k = |G_k|^2 * dy of the transformed prepared state G (detection
    projects back onto G).  They are never stored: a mask needs only sums
    over runs of cells, and each prefix sum P(k) = sum_{k' < k} w_k' is
    k*mean_weight plus a sum over the support's lags m = 1..L-1 with the
    weights lag_weights[m - 1] = C*R(m)/sin(pi*m/n) (see the module
    docstring).

    For a mask f the detected amplitude at phase phi is A0 + exp(-2i*phi)*A1,
    with (A0, A1) = ``split(f)``, and its squared modulus is the circuit's
    detection probability.  A0 and A1 are real and non-negative; A1 sums
    the runs of ``_runs_of_ones``, the cells where the mask takes the phase.
    ``p_x0s`` and ``fishers`` sweep a threshold axis of masks over a phase
    axis into one r-major column: the phase axis is checked once and each
    phase's trig taken once, and every mask's cuts share one prefix-sum pass.
    """

    __slots__ = ()

    def _prefix_sums(self, ks: list[int]) -> np.ndarray:
        """P(k), the weight of the cells 0..k-1, at each k of ks (0 <= k <= n):
        k*mean_weight plus sum_m lag_weights[m - 1] * sin(pi*r_m/n), with
        r_m = (m*(2k - n)) mod 2n.

        The ks run in blocks of max(2, 2^16 // (L - 1)) rows of the L - 1
        lag terms, and a block's matrix is freed as the next one is built,
        so a full-support sweep holds no more at once than one mask's two
        cuts did.  Each row sums as it would alone.
        """
        n = self.n
        ks = np.array(ks, dtype=np.int64)
        lags = np.arange(1, self.lag_weights.size + 1)
        sums = ks * self.mean_weight
        rows = max(2, _LAG_BLOCK // max(lags.size, 1))
        for start in range(0, ks.size, rows):
            # |m*(2k - n)| < n^2 <= 2^48: exact in int64, and modulo 2n (a
            # power of two) it is the bitwise and, also for a negative product
            terms = np.multiply.outer(ks[start : start + rows] * 2 - n, lags)
            terms &= 2 * n - 1
            terms = terms * (math.pi / n)  # the angles, in place of the turns
            np.sin(terms, out=terms)
            terms *= self.lag_weights
            sums[start : start + rows] += terms.sum(axis=1)
        return sums

    def split(self, f: PiecewiseBinaryFunction) -> tuple[float, float]:
        """(A0, A1): the weight sums over the cells where f = 0 and f = 1,
        both real and non-negative: the one-mask read of ``_splits``."""
        return self._splits((f,))[0]

    def _splits(
        self, masks: Iterable[PiecewiseBinaryFunction]
    ) -> list[tuple[float, float]]:
        """``split`` of each mask of masks, from one ``_prefix_sums`` pass
        over the distinct cuts of them all.

        A1 sums the prefix sums' differences over f's runs of ones, and A0
        is the rest of the total n*mean_weight.
        """
        runs = [
            _runs_of_ones(self.n, self.grid_start, self.grid_step, f)
            for f in _masks(self.params, masks)
        ]
        cuts = sorted({k for edges in runs for k in edges})
        at = dict(zip(cuts, range(len(cuts))))
        sums = self._prefix_sums(cuts)
        # each run's weight, every mask's runs in order
        widths = (
            sums[[at[k] for edges in runs for k in edges[1::2]]]
            - sums[[at[k] for edges in runs for k in edges[::2]]]
        )
        total = self.n * self.mean_weight
        splits, stop = [], 0
        for edges in runs:
            start, stop = stop, stop + len(edges) // 2
            a1 = float(np.add.reduce(widths[start:stop]))  # 0.0 with no run
            splits.append((max(total - a1, 0.0), max(a1, 0.0)))
        return splits

    def p_x0s(
        self, masks: Iterable[PiecewiseBinaryFunction], phis: Iterable[float]
    ) -> list[float]:
        """The detection probability |A0 + exp(-2i*phi)*A1|^2 of each mask of
        masks at each phase of phis, r-major, checked as a column
        (``_probabilities``)."""
        factors = [cmath.exp(-2j * phi) for phi in _phases(phis)]
        column = []
        for a0, a1 in self._splits(masks):
            column += [abs(a0 + factor * a1) ** 2 for factor in factors]
        return _probabilities(column)

    def fishers(
        self, masks: Iterable[PiecewiseBinaryFunction], phis: Iterable[float]
    ) -> list[float]:
        """The Fisher information in phi of each mask of masks' response at
        each phase of phis, r-major, from each phase's cos(phi)^2 taken once
        and each mask's products (A0 - A1)^2, 4*A0*A1 and 16*A0*A1 taken
        once (see ``_fishers``)."""
        cos_sqs = [math.cos(phi) ** 2 for phi in _phases(phis)]
        column = []
        for a0, a1 in self._splits(masks):
            column += _fishers(a0, a1, cos_sqs)
        return column


def phase_response(p: ProcedureParams, n: int) -> PhaseResponse:
    """One Gaussian evaluation and one autocorrelation that serve every
    phase and mask.

    The detection window is the prepared state, so its transform is the
    state's and w_k = |G_k|^2 * dy.  Evaluates the Gaussian on its L support
    samples only (``_support_gaussian``, no N-point state) and takes their
    autocorrelation R(m), m < L, from one rfft/irfft pair of the smallest
    power of two >= 2L - 1 points; the prefix sums of the cell weights then
    follow in closed form (see the module docstring) and agree with the
    sums of |F G|^2 * dy over the N-point transformed state to rounding.
    Nothing it allocates grows with n beyond the support.
    Makes the circuit's checks that need no mask, in its order
    (containment, grid size, state support, a grid covering [-P, P]);
    ``PhaseResponse.split`` makes the rest.
    """
    lo, hi, dx, gauss = _support_gaussian(p, n)
    n = int(n)
    dy, ys = _conjugate_layout(n, dx)
    _require_cover(n, dy, p.big_p)
    size = hi - lo
    points = 1 << (2 * size - 2).bit_length()  # zero padding: no wrapped lag
    spectrum = np.fft.rfft(gauss, points)
    del gauss
    power = np.square(spectrum.real)
    power += np.square(spectrum.imag)
    del spectrum
    autocorr = np.fft.irfft(power, points)
    del power
    scale = dx * dx * dy / math.pi
    lag_weights = np.sin(np.arange(1, size) * (math.pi / n))
    np.divide(autocorr[1:size], lag_weights, out=lag_weights)
    lag_weights *= scale
    return PhaseResponse(p, n, ys, dy, scale * float(autocorr[0]), lag_weights)
