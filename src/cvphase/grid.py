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
carrying an O(dy^2) artefact.  ``aligned_half_width`` picks T so that
standard threshold sweeps (multiples of P/8) land on cell edges.

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
then costs a few scalar operations, and every mask one pass over the
weights.  Both routes take the mask's cell values from one helper, so they
discretize the mask identically; they differ only by rounding (~1e-15 in the
probability).  ``run_circuit`` stays the stage-by-stage reference.

One transform serves both W and G because both are real.  ``fourier`` is
dx/sqrt(pi) times a post-ramp exp(2i*xs*y_k) times X = sum_j
exp(2pi i jk/N) * r_j * a_j, with the pre-ramp r_j = exp(2i*j*dx*ys).  For
real a the half-offset layout gives X_k = conj(X_{N-1-k}), so the single
sum Z of z = r * (W + iG) separates as

    X_W = (Z_k + conj Z_{N-1-k}) / 2,   X_G = (Z_k - conj Z_{N-1-k}) / (2i).

The post-ramp has unit modulus and cancels in conj(F W) * (F G), so
w_k = (dx/sqrt(pi))^2 * conj(X_W) * X_G * dy.  The symmetry holds to
rounding only if the ramps are exact, so they come from the layout
identities 2*j*dx*ys = -pi*j + pi*j/N and 2*xs*y_k = -pi*k + pi*(N-1)/2
(xs = -N*dx/2): r_j = (-1)^j * exp(i*pi*j/N), whose argument never exceeds
pi, and exp(2i*xs*y_k) = (-1)^k * i^(N-1).  ``fourier`` and
``inverse_fourier`` use the same identities.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from ._lazy import lazy_numpy
from .errors import GridLayoutError, ParameterError
from .model import (
    MeasurementDistribution,
    PiecewiseBinaryFunction,
    ProcedureParams,
    require_containment,
    require_mask_domain,
)

np = lazy_numpy()

POSITION = "position"
MOMENTUM = "momentum"

_MIN_POINTS = 256
# largest grid: a sweep holds a few N-point complex arrays (256 MiB each at
# this size), and a larger request is a typo, not a convergence study
_MAX_POINTS = 1 << 24


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
        if not (math.isfinite(self.grid_start) and self.grid_step > 0.0):
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


def _require_pow2(n: int) -> int:
    """n as an int, if it is a power of two in [_MIN_POINTS, _MAX_POINTS]."""
    n = int(n)
    if not _MIN_POINTS <= n <= _MAX_POINTS or n & (n - 1):
        raise GridLayoutError(
            f"grid size must be a power of two in [{_MIN_POINTS}, {_MAX_POINTS}], got {n}"
        )
    return n


def aligned_half_width(big_p: float, n: int, cells_per_eighth: int = 32) -> float:
    """Position half-width T making conjugate cell edges hit multiples of P/8.

    With dy = pi/(2T), choosing T = 4*pi*q/P gives dy = P/(8q), so thresholds
    at multiples of P/8 coincide with cell edges of the half-offset grid and
    the mask discretization error drops to second order.  Larger q refines
    the conjugate grid; the default suits n = 4096.
    """
    if big_p <= 0.0 or cells_per_eighth < 1:
        raise ParameterError(
            f"need big_p > 0 and cells_per_eighth >= 1, got {big_p}, {cells_per_eighth}"
        )
    n = _require_pow2(n)
    if n < 16 * cells_per_eighth:
        # conjugate span is N*dy/2 = N*P/(16 q); below this it cannot cover [-P, P]
        raise GridLayoutError(
            f"n={n} too small for cells_per_eighth={cells_per_eighth}"
        )
    return 4.0 * math.pi * cells_per_eighth / big_p


def prepare_gaussian(p: ProcedureParams, n: int) -> GridState:
    """Sample the width-delta Gaussian at x0 on [-T, T) and renormalize."""
    require_containment(p)
    n = _require_pow2(n)
    dx = 2.0 * p.big_t / n
    x = -p.big_t + dx * np.arange(n)
    amps = np.exp(-((x - p.x0) ** 2) / (2.0 * p.delta**2)).astype(complex)
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)) * dx)
    return GridState(amps, grid_start=-p.big_t, grid_step=dx, space=POSITION)


def _conjugate_layout(n: int, dx: float) -> tuple[float, float]:
    dy = math.pi / (n * dx)
    y_start = (-n / 2 + 0.5) * dy
    return dy, y_start


# i^m for m = 0..3: exp(2i*xs*y_k) = (-1)^k * i^(n-1) on the centred layout
_I_POWERS = (1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j)


def _half_offset_ramp(n: int) -> np.ndarray:
    """exp(2i*j*dx*ys) for j = 0..n-1, with ys the half-offset grid start.

    2*j*dx*ys = -pi*j + pi*j/n, so the ramp is (-1)^j * exp(i*pi*j/n), whose
    argument never exceeds pi.  2*j*dx*ys itself reaches ~pi*n, and its
    rounding (~1e-12 rad at n = 4096) would break the conjugate symmetry
    that ``phase_response`` relies on.
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
    # in place: at large N the temporaries, not the FFT, set peak memory
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


def fourier_matrix(s: GridState) -> np.ndarray:
    """Dense N x N unitary U[k, j] = sqrt(dx*dy/pi) * exp(2i*x_j*y_k).

    This is the transform between sqrt(step)-scaled amplitude vectors:
    sqrt(dy) * fourier(s).amplitudes == U @ (sqrt(dx) * s.amplitudes).
    Intended for small-N unitarity checks; quadratic memory.
    """
    if s.space != POSITION:
        raise GridLayoutError("fourier_matrix expects a position-space state")
    n = s.n
    dx = s.grid_step
    dy, ys = _conjugate_layout(n, dx)
    x = s.points
    y = ys + dy * np.arange(n)
    return math.sqrt(dx * dy / math.pi) * np.exp(2j * np.outer(y, x))


def _require_cover(n: int, dy: float, half_domain: float) -> None:
    half_span = n * dy / 2.0
    if half_span < half_domain * (1.0 - 1e-12):
        raise GridLayoutError(
            f"conjugate grid half-span {half_span:.6g} does not cover the mask "
            f"domain [-{half_domain:.6g}, {half_domain:.6g}]"
        )


def _mask_cells(n: int, y_start: float, dy: float, f: PiecewiseBinaryFunction) -> np.ndarray:
    """f at each conjugate sample y_start + k*dy, extended by 0 outside [-P, P]
    (P = the mask's half-domain); the grid must cover the mask domain."""
    _require_cover(n, dy, f.half_domain)
    y = y_start + dy * np.arange(n)
    slack = 1e-12 * max(1.0, f.half_domain)
    inside = np.abs(y) <= f.half_domain + slack
    fvals = np.zeros(n)
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
    fvals = _mask_cells(s.n, s.grid_start, s.grid_step, f)
    amps = s.amplitudes * np.exp(-2j * phi * fvals)
    return GridState(amps, s.grid_start, s.grid_step, s.space)


def _detection_window(x: np.ndarray, dx: float, p: ProcedureParams) -> np.ndarray:
    """The width-epsilon Gaussian window at x0 on the samples x, normalized so
    that sum |w|^2 * dx = 1."""
    window = np.exp(-((x - p.x0) ** 2) / (2.0 * p.epsilon**2))
    wnorm = float(np.sum(window**2)) * dx
    if wnorm <= 0.0:
        raise ParameterError("detection window has no support on this grid")
    return window / math.sqrt(wnorm)


def measure_povm(s: GridState, p: ProcedureParams) -> MeasurementDistribution:
    """Probability of the detection outcome: overlap with the normalized
    width-epsilon Gaussian window at x0 (a rank-one projector)."""
    if s.space != POSITION:
        raise GridLayoutError("measure_povm expects a position-space state")
    window = _detection_window(s.points, s.grid_step, p)
    overlap = complex(np.sum(np.conj(window) * s.amplitudes) * s.grid_step)
    return MeasurementDistribution(abs(overlap) ** 2)


def run_circuit(
    p: ProcedureParams, f: PiecewiseBinaryFunction, phi: float, n: int
) -> MeasurementDistribution:
    """prepare -> transform -> mask -> inverse transform -> detect."""
    require_mask_domain(p, f)
    state = prepare_gaussian(p, n)
    state = fourier(state)
    state = apply_blackbox(state, f, phi)
    state = inverse_fourier(state)
    return measure_povm(state, p)


@dataclass(frozen=True)
class PhaseResponse:
    """The circuit split at the mask: per-cell weights conj(W_k) * G_k * dy of
    the transformed detection window W and transformed state G on the
    conjugate grid y_k = grid_start + k*grid_step.

    For a mask f the detected amplitude at phase phi is A0 + exp(-2i*phi)*A1,
    with (A0, A1) = ``split(f)``, and its squared modulus is the
    ``run_circuit`` probability (see the module docstring).
    """

    params: ProcedureParams
    weights: np.ndarray
    grid_start: float
    grid_step: float

    def split(self, f: PiecewiseBinaryFunction) -> tuple[complex, complex]:
        """(A0, A1): the weight sums over the cells where f = 0 and f = 1.

        Cells beyond the mask domain count as f = 0, exactly as
        ``apply_blackbox`` leaves them unphased.
        """
        require_mask_domain(self.params, f)
        ones = _mask_cells(self.weights.size, self.grid_start, self.grid_step, f) == 1.0
        return complex(np.sum(self.weights[~ones])), complex(np.sum(self.weights[ones]))


def phase_response(p: ProcedureParams, n: int) -> PhaseResponse:
    """One prepare and one transform that serve every phase and mask.

    Makes the checks of ``run_circuit`` that need no mask (containment, grid
    size, window support, a grid covering [-P, P]); ``PhaseResponse.split``
    makes the rest.
    """
    state = prepare_gaussian(p, n)
    n = state.n
    dx = state.grid_step
    # window W and state G are real: transform W + iG once, split by symmetry
    z = 1j * state.amplitudes.real
    z += _detection_window(state.points, dx, p)
    del state  # at large N the N-point arrays set the peak memory
    dy, ys = _conjugate_layout(n, dx)
    _require_cover(n, dy, p.big_p)
    z *= _half_offset_ramp(n)
    np.fft.ifft(z, out=z)
    # real input: X_k = conj(X_{N-1-k}), so Z + R = 2 X_W and Z - R = 2i X_G
    rev = np.conj(z[::-1])
    weights = z + rev
    z -= rev
    del rev
    np.conj(weights, out=weights)
    weights *= z
    # conj(2 X_W) * 2i X_G = 4i conj(X_W) X_G; the unit-modulus post-ramps of
    # the two transforms cancel in the product
    weights *= -0.25j * (n * dx / math.sqrt(math.pi)) ** 2 * dy
    return PhaseResponse(p, weights, ys, dy)


@dataclass(frozen=True)
class KickbackCheck:
    """Deviation metrics of the two-register shift circuit from ideal kickback.

    phase_deviation: |arg(overlap) - (-pi * f(x) * repeats)| wrapped to (-pi, pi]
    magnitude_deviation: |1 - |overlap||
    """

    phase_deviation: float
    magnitude_deviation: float


def two_register_kickback_check(
    x_point: float,
    f: PiecewiseBinaryFunction,
    n_target: int,
    repeats: int = 1,
) -> KickbackCheck:
    """Check that shifting the plane-wave target by f(x) kicks back phase -pi*f(x).

    The target is the discretized plane wave exp(i*pi*y) on a periodic grid
    over [0, 4): period-2 wave, two full periods, so wrap-around is seamless.
    A unit shift y -> y + 1 must be an integer number of cells, which needs
    n_target divisible by 4.  Applying the shift f(x) times per repeat and
    overlapping with the unshifted target yields exp(-i*pi*f(x)*repeats)
    exactly, up to rounding; the metrics quantify any deviation.
    """
    n_target = int(n_target)
    if n_target < 8 or n_target % 4 != 0:
        raise GridLayoutError(
            f"n_target must be a multiple of 4 (>= 8) so the unit shift is an "
            f"integer number of cells, got {n_target}"
        )
    if repeats < 1:
        raise ParameterError(f"repeats must be >= 1, got {repeats}")
    fx = f(x_point)
    du = 4.0 / n_target
    cells_per_unit = n_target // 4
    u = du * np.arange(n_target)
    target = np.exp(1j * math.pi * u) / math.sqrt(n_target)
    shifted = np.roll(target, cells_per_unit * fx * repeats)
    overlap = complex(np.sum(np.conj(target) * shifted))
    expected = -math.pi * fx * repeats
    phase_dev = abs(math.remainder(cmath.phase(overlap) - expected, 2.0 * math.pi))
    return KickbackCheck(
        phase_deviation=phase_dev,
        magnitude_deviation=abs(1.0 - abs(overlap)),
    )
