"""Direct grid simulation of the prepare / transform / mask / detect circuit.

The continuum transform pair uses the kernel exp(2ixy) (units hbar = 1/2).
On N position samples x_j = -T + j*dx with dx = 2T/N, the matching conjugate
spacing is dy = pi/(N*dx) = pi/(2T), and the matrix

    U[k, j] = sqrt(dx*dy/pi) * exp(2i * x_j * y_k)

is exactly unitary for any constant offset of the y grid, because
2*dx*dy = 2*pi/N turns the double sum into a discrete Fourier kernel.

States here store wavefunction samples normalized so that
sum |a_j|^2 * step = 1 in whichever space they live.  U is the unitary
representative of the transform between the sqrt(step)-scaled vectors:
``fourier`` applies b = (dx/sqrt(pi)) * K a (K the bare kernel sum), which
equals diag(1/sqrt(dy)) U diag(sqrt(dx)) a, so the step-weighted norm is
preserved exactly and the round trip is the exact identity.  Both maps run
in O(N log N) as an FFT with pre/post phase ramps (exact on a position grid
centred on 0; see the phase-linear split below).

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
T so that standard threshold sweeps (multiples of P/8) land on cell edges.

Note the simulated state carries the full Gaussian momentum tail, while the
closed forms truncate it to [-P, P]; outside the mask domain the mask acts
as 0.  Probabilities therefore differ from the closed forms by up to about
1 - erf(2*P*delta)^2 even on a converged grid.

Phase-linear split.  Because the transform is exactly unitary, the detected
overlap <W, F^-1 M_phi F G> of ``run_circuit`` equals <F W, M_phi F G> on
the conjugate grid (Parseval), where G is the prepared state, W the
normalized detection window and M_phi the diagonal mask exp(-2i*phi*f(y_k)).
The phase enters only through M_phi and f is binary, so with the cell
weights w_k = conj((F W)_k) * (F G)_k * dy the amplitude is

    A0 + exp(-2i*phi) * A1,   A0 = sum_{f(y_k)=0} w_k,   A1 = sum_{f(y_k)=1} w_k.

``phase_response`` therefore prepares once and transforms once; every phase
then costs a few scalar operations (``PhaseResponse.p_x0s`` and
``PhaseResponse.fishers`` give a mask's probability and Fisher information
over a phase sweep as one column), and every mask one pass over the cells
of [-P, P].  Both routes take the mask's cell values from one helper, so
they discretize the mask identically; they differ only by rounding (~1e-15
in the probability).  ``run_circuit`` stays the stage-by-stage reference.

Detection projects back onto the prepared state, as the closed forms assume
(W = G), so w_k = |(F G)_k|^2 * dy is real and non-negative and one
transform of G alone gives every weight.  With x_j = xs + j*dx,
``fourier`` is dx/sqrt(pi) times a unit-modulus post-ramp exp(2i*xs*y_k)
times sum_j exp(2i*j*dx*y_k) * a_j, and the post-ramp drops out of |.|^2.
The layout identity 2*j*dx*y_k = pi*j*(2k + 1 - N)/N turns the sum into

    X(s) = sum_j a_j * exp(i*pi*j*s/N),   s = 2k + 1 - N,

so w_k = (dx/sqrt(pi))^2 * |X(s)|^2 * dy.  ``fourier`` and
``inverse_fourier`` evaluate the same sums as an FFT with exact ramps: the
pre-ramp (-1)^j * exp(i*pi*j/N), whose argument never exceeds pi, and the
post-ramp exp(2i*xs*y_k) = (-1)^k * i^(N-1) (xs = -N*dx/2).

``phase_response`` pays only for the Gaussian's support and one transform
of half length, and allocates only the arrays it reads.  Support:
exp(-(x - x0)^2 / (2*delta^2)) underflows to exactly 0.0 once
|x - x0| > 40*delta (exp(-800) = 0), so ``_support_gaussian`` evaluates only
the samples of ``_support`` and every other amplitude is an exact 0; the
sweep reads that support array and never builds the N-point state that
``prepare_gaussian`` returns for ``run_circuit``.
Half length: the amplitudes a_j are real, so X(-s) = conj X(s) and |X(s)| is
known from the s = 1 (mod 4) half.  For s = 4l + 1, with
c_j = a_j * exp(i*pi*j/N),

    X(4l + 1) = sum_{j < N/2} (c_j + c_{j+N/2}) * exp(2pi i jl/(N/2)),

one inverse FFT of length N/2 of c folded modulo N/2 (the fold overlaps
itself when the support is wider than N/2 samples, which takes T < 80*delta,
as near the containment floor).  X is periodic in l with period N/2.  Even k = 2m has
s = 4(m - N/4) + 1, so w_{2m} comes from l = m - N/4; odd k = 2m + 1 has
-s = 4(N/4 - 1 - m) + 1, so w_{2m+1} comes from l = N/4 - 1 - m: with W_l the
squared FFT output, the even cells are np.roll(W, N/4) and the odd cells
np.roll(W[::-1], N/4), which the sweep writes as four strided slice copies.
The ifft's 2/N and the (dx/sqrt(pi))^2 * dy above give the scale
(N*dx/sqrt(pi))^2 * dy / 4.

Four quarter-length transforms.  pocketfft, numpy's FFT, takes twice its
input as scratch, so one in-place N/2-point ifft adds 16*N bytes to its
8*N-byte buffer.  Above ``_SPLIT_POINTS`` = 2^18 points the sweep splits l
by its residue r mod 4: with l = 4m + r,

    X(4l + 1) = sum_{j < N/8} [sum_{j' = j (mod N/8)} c_j' * exp(4i*pi*j'*r/N)]
                * exp(2pi i jm/(N/8)),

so row r is the support c_j times exp(4i*pi*j*r/N), folded modulo N/8, and
its N/8-point ifft gives the cells l = r (mod 4).  Row r + 1 is row r times
exp(4i*pi*j/N), the c_j ramp squared twice.  Each ifft's 8/N instead of 2/N
divides the scale by 4^2.  At 2^18 points and below the sweep runs the
single transform (one row), so those weights, and every default table, keep
their bits.

Memory: the rows fill one (K, N/(2K)) complex buffer of 8*N bytes (K = 1 or
4), built from the support in bounded blocks; the support Gaussian is
released before the in-place iffts, whose parts are squared in place and
summed into W (4*N bytes).  The buffer is released before the N float64
weights (8*N bytes) are allocated, and only the weights outlive the call.
With K = 4 each ifft's scratch is 4*N bytes, so the sweep peaks at about
12*N bytes: a 2^20 sweep raises the process's peak RSS by 13*N bytes, and
a 2^24 ``crosscheck`` peaks at 232 MB.  With K = 1 the 16*N-byte scratch
sets the peak: 26*N at 2^20 (28*N at 2^18, 7 MB), and 454 MB at 2^24.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import GridLayoutError, ParameterError
from .model import (
    MeasurementDistribution,
    PiecewiseBinaryFunction,
    ProcedureParams,
    _DOMAIN_SLACK,
    _MASK_DOMAIN_TOL,
    _integer,
    _phase,
    _phases,
    _require_pow2,
    require_containment,
    require_mask_domain,
)

POSITION = "position"
MOMENTUM = "momentum"

# half-width of the sampled support in units of delta: the Gaussian's exp
# underflows to exactly 0.0 beyond it (exp(-40^2/2) = exp(-800) = 0)
_SUPPORT_WIDTHS = 40.0

# above this many points the sweep runs its transform as four quarter-length
# FFTs, whose scratch is a quarter of one half-length FFT's (module docstring)
_SPLIT_POINTS = 1 << 18
# support samples per block of the sweep's fold: bounds its temporaries
_FOLD_BLOCK = 1 << 15


@dataclass(frozen=True)
class GridState:
    """Complex amplitudes on a uniform grid, tagged by which space they live in.

    Normalization convention: sum |a_j|^2 * grid_step = 1.
    """

    amplitudes: np.ndarray
    grid_start: float
    grid_step: float
    space: str

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1 or amps.size < 2:
            raise GridLayoutError("amplitudes must be a 1-d array with at least 2 points")
        if self.space not in (POSITION, MOMENTUM):
            raise GridLayoutError(f"unknown space tag {self.space!r}")
        if not (math.isfinite(self.grid_start) and 0.0 < self.grid_step < math.inf):
            raise GridLayoutError(
                f"bad grid: start={self.grid_start}, step={self.grid_step}"
            )

    @property
    def n(self) -> int:
        return self.amplitudes.size

    @property
    def points(self) -> np.ndarray:
        return self.grid_start + self.grid_step * np.arange(self.n)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.grid_step)


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


def _support_gaussian(p: ProcedureParams, n: int) -> tuple[int, int, float, np.ndarray]:
    """(lo, hi, dx, g): the width-delta Gaussian at x0 on the samples
    x_j = -T + j*dx of ``_support``, renormalized so that sum g^2 * dx = 1.

    Checks containment and the grid size first, then raises if every sample
    underflowed.  These are the same doubles as on the full grid; every
    other sample is the exact 0 that ``exp`` would give there.
    """
    require_containment(p)
    n = _require_pow2(n)
    dx = 2.0 * p.big_t / n
    lo, hi = _support(p, n)
    x = -p.big_t + dx * np.arange(lo, hi)
    gauss = np.exp(-((x - p.x0) ** 2) / (2.0 * p.delta**2))
    norm_sq = float(np.sum(gauss * gauss)) * dx
    if norm_sq == 0.0:
        # every sample underflowed: the Gaussian falls between grid points
        raise ParameterError("prepared state has no support on this grid")
    gauss *= 1.0 / math.sqrt(norm_sq)
    return lo, hi, dx, gauss


def prepare_gaussian(p: ProcedureParams, n: int) -> GridState:
    """Sample the width-delta Gaussian at x0 on [-T, T) and renormalize.

    Only the samples of ``_support`` are evaluated (``_support_gaussian``);
    every other amplitude is the exact 0 that ``exp`` would give there.
    """
    lo, hi, dx, gauss = _support_gaussian(p, n)
    amps = np.zeros(int(n), dtype=complex)
    amps.real[lo:hi] = gauss
    return GridState(amps, grid_start=-p.big_t, grid_step=dx, space=POSITION)


def _conjugate_layout(n: int, dx: float) -> tuple[float, float]:
    dy = math.pi / (n * dx)
    y_start = (-n / 2 + 0.5) * dy
    return dy, y_start


# a mask jump within this many cells of a conjugate cell edge counts as on it
_EDGE_TOL = 1e-9


def _cell_edge_note(p: ProcedureParams, r_values: tuple[float, ...]) -> str:
    """The conjugate cell width and the mask jumps off a cell edge.

    Cell edges sit at integer multiples of dy = pi/(2T); a jump inside a
    cell puts that whole cell on one side of it, an error first order in
    dy.  The jumps are the thresholds and the domain edges +-P, outside
    which the mask acts as 0; P is named unless a listed threshold is +-P.
    """
    dy = math.pi / (2.0 * p.big_t)
    off = [r for r in r_values if abs(r / dy - round(r / dy)) > _EDGE_TOL]
    where = "thresholds off a cell edge: r = " + ", ".join(map(repr, off))
    if not off:
        where = "every threshold on a cell edge"
    edge = p.big_p / dy
    if abs(edge - round(edge)) > _EDGE_TOL and all(abs(r) != p.big_p for r in off):
        where += f"; domain edge P = {p.big_p!r} off a cell edge (P/dy = {edge:.2f})"
    return f"conjugate cell dy = pi/(2T) = {dy:.6g}, {where}"


# i^m for m = 0..3: exp(2i*xs*y_k) = (-1)^k * i^(n-1) on the centred layout
_I_POWERS = (1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j)


def _half_offset_ramp(n: int) -> np.ndarray:
    """exp(2i*j*dx*ys) for j = 0..n-1, with ys the half-offset grid start.

    2*j*dx*ys = -pi*j + pi*j/n, so the ramp is (-1)^j * exp(i*pi*j/n), whose
    argument never exceeds pi.  2*j*dx*ys itself reaches ~pi*n, and its
    rounding (~1e-12 rad at n = 4096) would carry into every transformed
    amplitude.
    """
    angle = (math.pi / n) * np.arange(n)
    ramp = np.empty(n, dtype=complex)
    # cos and sin into the parts: the same values as exp(1j*angle), and faster
    np.cos(angle, out=ramp.real)
    np.sin(angle, out=ramp.imag)
    ramp[1::2] *= -1.0
    return ramp


def fourier(s: GridState) -> GridState:
    """Transform position samples to the half-offset conjugate grid.

    b_k = (dx/sqrt(pi)) * exp(2i*xs*y_k) * sum_j exp(2pi i jk/N)
          * [exp(2i*j*dx*ys) * a_j], evaluated with an inverse FFT.
    The position grid must be centred on 0 (xs = -N*dx/2), which makes both
    ramps exact: ``_half_offset_ramp`` before the FFT, (-1)^k * i^(N-1) after.
    Preserves sum |a|^2 * step exactly (see module docstring).
    """
    if s.space != POSITION:
        raise GridLayoutError("fourier expects a position-space state")
    n = s.n
    dx = s.grid_step
    if abs(s.grid_start + n * dx / 2.0) > 1e-9 * dx:
        raise GridLayoutError("position grid is not centred on 0")
    dy, ys = _conjugate_layout(n, dx)
    # in place; numpy's FFT still takes twice the buffer (32*N bytes) as
    # scratch, the largest allocation of the transform
    buf = _half_offset_ramp(n)
    buf *= s.amplitudes
    np.fft.ifft(buf, out=buf)
    buf *= _I_POWERS[(n - 1) % 4] * (n * dx / math.sqrt(math.pi))
    buf[1::2] *= -1.0
    return GridState(buf, grid_start=ys, grid_step=dy, space=MOMENTUM)


def inverse_fourier(s: GridState) -> GridState:
    """Inverse of ``fourier``: conjugate-grid state back to its position grid.

    a_j = (dy/sqrt(pi)) * exp(-2i*j*dx*ys) * fft(exp(-2i*xs*y) * b)[j], with
    the conjugates of the exact ramps of ``fourier``; the composition with
    ``fourier`` is the exact identity.
    """
    if s.space != MOMENTUM:
        raise GridLayoutError("inverse_fourier expects a momentum-space state")
    n = s.n
    dy = s.grid_step
    dx = math.pi / (n * dy)
    ys = s.grid_start
    if abs(ys - (-n / 2 + 0.5) * dy) > 1e-9 * dy:
        raise GridLayoutError("momentum grid is not in the half-offset layout")
    xs = -n * dx / 2.0
    post = _I_POWERS[(n - 1) % 4].conjugate() * (dy / math.sqrt(math.pi))
    buf = s.amplitudes * post
    buf[1::2] *= -1.0
    np.fft.fft(buf, out=buf)
    ramp = _half_offset_ramp(n)
    buf *= np.conj(ramp, out=ramp)
    return GridState(buf, grid_start=xs, grid_step=dx, space=POSITION)


def _require_cover(n: int, dy: float, half_domain: float) -> None:
    half_span = n * dy / 2.0
    if half_span < half_domain * (1.0 - _DOMAIN_SLACK):
        raise GridLayoutError(
            f"conjugate grid half-span {half_span:.6g} does not cover the mask "
            f"domain [-{half_domain:.6g}, {half_domain:.6g}]"
        )


def _mask_cells(
    n: int, y_start: float, dy: float, f: PiecewiseBinaryFunction, lo: int, hi: int
) -> np.ndarray:
    """f at the conjugate samples y_start + k*dy for k in [lo, hi), extended
    by 0 outside [-P, P] (P = the mask's half-domain); the n-cell grid must
    cover the mask domain."""
    _require_cover(n, dy, f.half_domain)
    y = y_start + dy * np.arange(lo, hi)
    slack = _DOMAIN_SLACK * max(1.0, f.half_domain)
    inside = np.abs(y) <= f.half_domain + slack
    fvals = np.zeros(hi - lo)
    if f.breakpoints:
        idx = np.searchsorted(np.asarray(f.breakpoints), y[inside], side="left")
        fvals[inside] = np.asarray(f.values, dtype=float)[idx]
    else:
        fvals[inside] = float(f.values[0])
    return fvals


def apply_blackbox(s: GridState, f: PiecewiseBinaryFunction, phi: float) -> GridState:
    """Multiply each conjugate amplitude by exp(-2i*phi*f(y_k)).

    f acts only on [-P, P] (P = the mask's half-domain) and is extended by 0
    outside, matching a mask that cannot touch amplitudes beyond its domain.
    The grid must cover the mask domain.
    """
    if s.space != MOMENTUM:
        raise GridLayoutError("apply_blackbox expects a momentum-space state")
    fvals = _mask_cells(s.n, s.grid_start, s.grid_step, f, 0, s.n)
    amps = s.amplitudes * np.exp(-2j * phi * fvals)
    return GridState(amps, s.grid_start, s.grid_step, s.space)


def _detection_window(x: np.ndarray, dx: float, p: ProcedureParams) -> np.ndarray:
    """The width-delta Gaussian window at x0 on the samples x, normalized so
    that sum |w|^2 * dx = 1: the prepared state, the window the closed forms
    assume."""
    window = np.exp(-((x - p.x0) ** 2) / (2.0 * p.delta**2))
    wnorm = float(np.sum(window**2)) * dx
    if wnorm <= 0.0:
        raise ParameterError("detection window has no support on this grid")
    return window / math.sqrt(wnorm)


def measure_povm(s: GridState, p: ProcedureParams) -> MeasurementDistribution:
    """Probability of the detection outcome: overlap with the normalized
    width-delta Gaussian window at x0 (a rank-one projector)."""
    if s.space != POSITION:
        raise GridLayoutError("measure_povm expects a position-space state")
    window = _detection_window(s.points, s.grid_step, p)
    overlap = complex(np.sum(np.conj(window) * s.amplitudes) * s.grid_step)
    return MeasurementDistribution(abs(overlap) ** 2)


def run_circuit(
    p: ProcedureParams, f: PiecewiseBinaryFunction, phi: float, n: int
) -> MeasurementDistribution:
    """prepare -> transform -> mask -> inverse transform -> detect."""
    phi = _phase(phi)
    require_mask_domain(p, f)
    state = prepare_gaussian(p, n)
    state = fourier(state)
    state = apply_blackbox(state, f, phi)
    state = inverse_fourier(state)
    return measure_povm(state, p)


def _fisher(a0: float, a1: float, phi: float) -> float:
    """Fisher information in phi of the response to (A0, A1), exactly.

    A0 and A1 are real and non-negative and sum to 1 (Parseval), so the
    response p = A0^2 + A1^2 + 2*A0*A1*cos(2*phi) has
    1 - p = 4*A0*A1*sin(phi)^2, p = (A0 - A1)^2 + 4*A0*A1*cos(phi)^2 and
    dp/dphi = -8*A0*A1*sin(phi)*cos(phi).  Then dp^2/(p(1-p)) reduces to
    16*A0*A1*cos(phi)^2 / p with no cancellation anywhere, also where p or
    1 - p vanishes; at p = 0 (A0 = A1 = 1/2, cos(phi) = 0) the limit is 4.
    """
    cos_sq = math.cos(phi) ** 2
    prob = (a0 - a1) ** 2 + 4.0 * a0 * a1 * cos_sq
    if prob == 0.0:
        return 4.0
    return 16.0 * a0 * a1 * cos_sq / prob


@dataclass(frozen=True)
class PhaseResponse:
    """The circuit split at the mask: per-cell weights |G_k|^2 * dy of the
    transformed prepared state G on the conjugate grid
    y_k = grid_start + k*grid_step; detection projects back onto G.

    For a mask f the detected amplitude at phase phi is A0 + exp(-2i*phi)*A1,
    with (A0, A1) = ``split(f)``, and its squared modulus is the
    ``run_circuit`` probability (see the module docstring).  The weights are
    real and non-negative, and so are A0 and A1.  ``p_x0s`` and ``fishers``
    sweep a mask over phases, one split and one column each.
    """

    params: ProcedureParams
    weights: np.ndarray
    grid_start: float
    grid_step: float

    @functools.cached_property
    def _mask_domain(self) -> tuple[int, int, float]:
        """(lo, hi, rest): the cells any mask of this response can set to 1,
        and the weight of all other cells.

        The range reaches past P by more than ``require_mask_domain``'s match
        and ``_mask_cells``' slack together, so every cell outside it is
        f = 0 for each mask ``split`` accepts.
        """
        big_p = self.params.big_p
        half = big_p + 2.0 * _MASK_DOMAIN_TOL * max(1.0, big_p)
        lo, hi = _index_range(self.weights.size, self.grid_start, self.grid_step, half)
        rest = float(np.sum(self.weights[:lo])) + float(np.sum(self.weights[hi:]))
        return lo, hi, rest

    def split(self, f: PiecewiseBinaryFunction) -> tuple[float, float]:
        """(A0, A1): the weight sums over the cells where f = 0 and f = 1,
        both real and non-negative.

        Cells beyond the mask domain count as f = 0, exactly as
        ``apply_blackbox`` leaves them unphased.  Only the cells around
        [-P, P] are discretized per mask; the weight beyond them is summed
        once per response and added to A0.
        """
        require_mask_domain(self.params, f)
        lo, hi, rest = self._mask_domain
        n = self.weights.size
        ones = _mask_cells(n, self.grid_start, self.grid_step, f, lo, hi) == 1.0
        cells = self.weights[lo:hi]
        return rest + float(np.sum(cells[~ones])), float(np.sum(cells[ones]))

    def p_x0s(self, f: PiecewiseBinaryFunction, phis: Iterable[float]) -> list[float]:
        """The detection probability |A0 + exp(-2i*phi)*A1|^2 of mask f at
        each phase of phis, each checked as a ``MeasurementDistribution``."""
        phis = _phases(phis)
        a0, a1 = self.split(f)
        return [
            MeasurementDistribution(abs(a0 + cmath.exp(-2j * phi) * a1) ** 2).p_x0
            for phi in phis
        ]

    def fishers(self, f: PiecewiseBinaryFunction, phis: Iterable[float]) -> list[float]:
        """The Fisher information in phi of mask f's response at each phase
        of phis (see ``_fisher``)."""
        phis = _phases(phis)
        a0, a1 = self.split(f)
        return [_fisher(a0, a1, phi) for phi in phis]


def _folded_rows(
    lo: int, hi: int, gauss: np.ndarray, n: int, k: int
) -> np.ndarray:
    """The (k, n/(2k)) complex rows whose inverse FFTs give X(4l + 1) for
    l = r (mod k) in row r: c_j * exp(4i*pi*j*r/n) on the support [lo, hi),
    with c_j = gauss_j * exp(i*pi*j/n), folded modulo n/(2k).

    The support is taken in blocks of at most ``_FOLD_BLOCK`` samples that
    never cross a fold period, so each block lands in one contiguous slice
    of every row.  The factor exp(4i*pi*j/n) between rows is the block's
    ramp squared twice: no trig pass beyond the ramp's.
    """
    period = n // (2 * k)
    rows = np.zeros((k, period), dtype=complex)
    start = lo
    while start < hi:
        stop = min(hi, start + _FOLD_BLOCK, (start // period + 1) * period)
        angle = (math.pi / n) * np.arange(start, stop)
        c = np.empty(stop - start, dtype=complex)
        np.cos(angle, out=c.real)
        np.sin(angle, out=c.imag)
        if k > 1:
            step = np.square(c)
            np.square(step, out=step)
        g = gauss[start - lo : stop - lo]
        c.real *= g
        c.imag *= g
        at = start % period
        rows[0, at : at + stop - start] += c
        for r in range(1, k):
            c *= step
            rows[r, at : at + stop - start] += c
        start = stop
    return rows


def phase_response(p: ProcedureParams, n: int) -> PhaseResponse:
    """One Gaussian evaluation and one half-length transform that serve every
    phase and mask.

    The detection window is the prepared state, so its transform is the
    state's and w_k = |G_k|^2 * dy.  Evaluates the Gaussian on its support
    only (``_support_gaussian``, no N-point state) and folds it into one
    in-place inverse FFT of length n/2, or above ``_SPLIT_POINTS`` into four
    of length n/8 (see the module docstring); the weights agree with
    |fourier(prepare_gaussian(p, n))|^2 * dy to rounding.  Peak memory,
    numpy's FFT scratch included, is about 13*n bytes above 2^18 points and
    28*n at or below, of which the returned 8*n-byte weights stay.
    Makes the checks of ``run_circuit`` that need no mask, in its order
    (containment, grid size, state support, a grid covering [-P, P]);
    ``PhaseResponse.split`` makes the rest.
    """
    lo, hi, dx, gauss = _support_gaussian(p, n)
    n = int(n)
    dy, ys = _conjugate_layout(n, dx)
    _require_cover(n, dy, p.big_p)
    k = 4 if n > _SPLIT_POINTS else 1
    rows = _folded_rows(lo, hi, gauss, n, k)
    del gauss
    for row in rows:
        np.fft.ifft(row, out=row)
    np.square(rows.real, out=rows.real)
    np.square(rows.imag, out=rows.imag)
    # row r holds the classes l = r (mod k): w[r::k]
    half = n // 2
    w = np.empty(half)
    np.add(rows.real, rows.imag, out=w.reshape(half // k, k).T)
    del rows, row
    w *= (n * dx / math.sqrt(math.pi)) ** 2 * dy / (4.0 * k * k)
    # even cells 2m take l = m - n/4, odd cells 2m + 1 take l = n/4 - 1 - m
    # (mod n/2): np.roll(w, n/4) and np.roll(w[::-1], n/4), slice by slice
    q = n // 4
    weights = np.empty(n)
    weights[0:half:2] = w[q:]
    weights[half::2] = w[:q]
    weights[1:half:2] = w[q - 1 :: -1]
    weights[half + 1 :: 2] = w[: q - 1 : -1]
    return PhaseResponse(p, weights, ys, dy)


@dataclass(frozen=True)
class KickbackCheck:
    """Deviation metrics of the two-register shift circuit from ideal kickback.

    phase_deviation: |arg(overlap) - (-pi * f(x))| wrapped to (-pi, pi]
    magnitude_deviation: |1 - |overlap||
    """

    phase_deviation: float
    magnitude_deviation: float


def two_register_kickback_check(
    x_point: float, f: PiecewiseBinaryFunction, n_target: int
) -> KickbackCheck:
    """Check that shifting the plane-wave target by f(x) kicks back phase -pi*f(x).

    The target is the discretized plane wave exp(i*pi*y) on a periodic grid
    over [0, 4): period-2 wave, two full periods, so wrap-around is seamless.
    A unit shift y -> y + 1 must be an integer number of cells, which needs
    n_target divisible by 4.  Applying the shift f(x) times and overlapping
    with the unshifted target yields exp(-i*pi*f(x)) exactly, up to
    rounding; the metrics quantify any deviation.
    """
    n_target = _integer(n_target, "n_target")
    if n_target < 8 or n_target % 4 != 0:
        raise GridLayoutError(
            f"n_target must be a multiple of 4 (>= 8) so the unit shift is an "
            f"integer number of cells, got {n_target}"
        )
    fx = f(x_point)
    du = 4.0 / n_target
    cells_per_unit = n_target // 4
    u = du * np.arange(n_target)
    target = np.exp(1j * math.pi * u) / math.sqrt(n_target)
    shifted = np.roll(target, cells_per_unit * fx)
    overlap = complex(np.sum(np.conj(target) * shifted))
    expected = -math.pi * fx
    phase_dev = abs(math.remainder(cmath.phase(overlap) - expected, 2.0 * math.pi))
    return KickbackCheck(
        phase_deviation=phase_dev,
        magnitude_deviation=abs(1.0 - abs(overlap)),
    )
