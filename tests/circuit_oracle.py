"""The stage-by-stage grid circuit, prepare / transform / mask / inverse
transform / detect: an oracle for the grid sweep's tests.

``cvphase.grid.phase_response`` evaluates the circuit only through its
phase-linear split A0 + exp(-2i*phi)*A1; this module runs the same circuit
one stage at a time on N-point states, with the transform conventions of
the ``cvphase.grid`` module docstring.  With x_j = -T + j*dx, dx = 2T/N, and
the half-offset conjugate samples y_k = (k - N/2 + 1/2) * dy, dy = pi/(N*dx),
``fourier`` applies b = (dx/sqrt(pi)) * sum_j exp(2i*x_j*y_k) * a_j, which
preserves sum |a_j|^2 * step exactly, and ``inverse_fourier`` undoes it
exactly.  Both run in O(N log N) as an FFT with exact phase ramps on a
position grid centred on 0 (xs = -N*dx/2): the pre-ramp
(-1)^j * exp(i*pi*j/N), whose argument never exceeds pi, and the post-ramp
exp(2i*xs*y_k) = (-1)^k * i^(N-1).

It shares with the sweep only the rules both must apply alike, imported
from ``cvphase.grid``: ``_support_gaussian`` and ``_gaussian`` evaluate and
normalize the prepared state and the detection window,
``_conjugate_layout`` places the conjugate cells, and ``_runs_of_ones``
places the mask's runs of cells where f = 1, which ``apply_blackbox``
multiplies by exp(-2i*phi) and the sweep sums as A1.  The two routes then
differ only in how they sum cells, by rounding (~1e-15 in the probability).
It makes the checks the package makes (containment, grid size, the mask
domain, the phase, the layout of every state), so tests can also hold it
to their refusals.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

import numpy as np

from cvphase.errors import GridLayoutError
from cvphase.grid import _conjugate_layout, _gaussian, _runs_of_ones, _support_gaussian
from cvphase.model import (
    MeasurementDistribution,
    PiecewiseBinaryFunction,
    ProcedureParams,
    _MAX_POINTS,
    _Checked,
    _integer,
    _masks,
    _phase,
    _real,
    _require_type,
)

POSITION = "position"
MOMENTUM = "momentum"


class GridState(
    _Checked, namedtuple("GridState", "amplitudes grid_start grid_step space")
):
    """Complex amplitudes on a uniform grid, tagged by which space they live in.

    Normalization convention: sum |a_j|^2 * grid_step = 1.  Construction
    makes the amplitudes a complex array and the start and step floats; a
    bad array, space tag or grid raises GridLayoutError.
    """

    __slots__ = ()

    def __new__(
        cls, amplitudes: np.ndarray, grid_start: float, grid_step: float, space: str
    ) -> GridState:
        try:
            amps = np.asarray(amplitudes, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise GridLayoutError(f"amplitudes must be numbers: {exc}") from None
        if amps.ndim != 1 or amps.size < 2:
            raise GridLayoutError("amplitudes must be a 1-d array with at least 2 points")
        if space not in (POSITION, MOMENTUM):
            raise GridLayoutError(f"unknown space tag {space!r}")
        start, step = _real(grid_start, "grid start"), _real(grid_step, "grid step")
        if not (math.isfinite(start) and 0.0 < step < math.inf):
            raise GridLayoutError(f"bad grid: start={start}, step={step}")
        return tuple.__new__(cls, (amps, start, step, space))

    @property
    def n(self) -> int:
        return self.amplitudes.size

    @property
    def points(self) -> np.ndarray:
        return self.grid_start + self.grid_step * np.arange(self.n)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.grid_step)


def _require_space(s: GridState, space: str, what: str) -> None:
    if not (isinstance(s, GridState) and s.space == space):
        raise GridLayoutError(f"{what} expects a {space}-space state")


def prepare_gaussian(p: ProcedureParams, n: int) -> GridState:
    """Sample the width-delta Gaussian at x0 on [-T, T) and renormalize.

    Only the samples of ``_support`` are evaluated (``_support_gaussian``);
    every other amplitude is the exact 0 that ``exp`` would give there.
    """
    lo, hi, dx, gauss = _support_gaussian(p, n)
    amps = np.zeros(int(n), dtype=complex)
    amps.real[lo:hi] = gauss
    return GridState(amps, grid_start=-p.big_t, grid_step=dx, space=POSITION)


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
    _require_space(s, POSITION, "fourier")
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
    _require_space(s, MOMENTUM, "inverse_fourier")
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


def apply_blackbox(s: GridState, f: PiecewiseBinaryFunction, phi: float) -> GridState:
    """Multiply each conjugate amplitude by exp(-2i*phi*f(y_k)).

    f acts only on [-P, P] (P = the mask's half-domain) and is extended by 0
    outside, matching a mask that cannot touch amplitudes beyond its domain.
    The grid must cover the mask domain.  A copy of the amplitudes takes the
    one factor exp(-2i*phi) on each run of ``_runs_of_ones``.
    """
    _require_space(s, MOMENTUM, "apply_blackbox")
    _require_type(f, PiecewiseBinaryFunction, "mask")
    phi = _phase(phi)
    edges = _runs_of_ones(s.n, s.grid_start, s.grid_step, f)
    amps = s.amplitudes.copy()
    factor = cmath.exp(-2j * phi)
    for start, stop in zip(edges[::2], edges[1::2]):
        amps[start:stop] *= factor
    return GridState(amps, s.grid_start, s.grid_step, s.space)


def measure_povm(s: GridState, p: ProcedureParams) -> MeasurementDistribution:
    """Probability of the detection outcome: overlap with the normalized
    width-delta Gaussian window at x0 (a rank-one projector), ``_gaussian``
    on the state's own samples, the prepared state's rule."""
    _require_space(s, POSITION, "measure_povm")
    _require_type(p, ProcedureParams, "parameters")
    window = _gaussian(s.points, s.grid_step, p, "detection window")
    overlap = complex(np.sum(window * s.amplitudes) * s.grid_step)
    return MeasurementDistribution(abs(overlap) ** 2)


def run_circuit(
    p: ProcedureParams, f: PiecewiseBinaryFunction, phi: float, n: int
) -> MeasurementDistribution:
    """prepare -> transform -> mask -> inverse transform -> detect."""
    phi = _phase(phi)
    _masks(p, (f,))
    state = prepare_gaussian(p, n)
    state = fourier(state)
    state = apply_blackbox(state, f, phi)
    state = inverse_fourier(state)
    return measure_povm(state, p)


class KickbackCheck(namedtuple("KickbackCheck", "phase_deviation magnitude_deviation")):
    """Deviation metrics of the two-register shift circuit from ideal kickback.

    phase_deviation: |arg(overlap) - (-pi * f(x))| wrapped to (-pi, pi]
    magnitude_deviation: |1 - |overlap||
    """

    __slots__ = ()


def two_register_kickback_check(
    x_point: float, f: PiecewiseBinaryFunction, n_target: int
) -> KickbackCheck:
    """Check that shifting the plane-wave target by f(x) kicks back phase -pi*f(x).

    The target is the discretized plane wave exp(i*pi*y) on a periodic grid
    over [0, 4): period-2 wave, two full periods, so wrap-around is seamless.
    A unit shift y -> y + 1 must be an integer number of cells, which needs
    n_target divisible by 4; like a grid size, it is at most _MAX_POINTS,
    checked before any array is built.  Applying the shift f(x) times and
    overlapping with the unshifted target yields exp(-i*pi*f(x)) exactly,
    up to rounding; the metrics quantify any deviation.
    """
    n_target = _integer(n_target, "n_target")
    if not 8 <= n_target <= _MAX_POINTS or n_target % 4 != 0:
        raise GridLayoutError(
            f"n_target must be a multiple of 4 in [8, {_MAX_POINTS}] so the unit "
            f"shift is an integer number of cells, got {n_target}"
        )
    _require_type(f, PiecewiseBinaryFunction, "mask")
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
