"""Core value types for the finite-domain Gaussian phase-estimation protocol.

The protocol works with a Gaussian envelope of width ``delta`` centred at
``x0`` on the position interval [-T, T].  Its conjugate-space twin lives on
[-P, P] (units with hbar = 1/2, transform kernel exp(2ixy)).  A black-box
phase mask multiplies the conjugate-space amplitude by exp(-2i*phi*f(y))
where f is a binary piecewise-constant function.

Types here, like every value type of the package, are immutable values:
named tuples, so they are iterable and compare equal to a plain tuple of the
same fields.  Hard validity (finite values, positive scales within range,
mask shapes; ``grid.GridState``'s layout too, through ``_Checked``) is
checked once, when an object is built (``_replace`` included), so an invalid
object cannot exist and the engines never re-check it; the engines that need
the envelope contained in [-T, T] gate on ``require_containment``.  Counts,
sizes and mask values pass ``_integer`` (ints, numpy integers too, never a
bool, never truncated), every other number ``_real`` (numpy numbers too,
never a str parsed, a bool or a complex number cut to its real part), and a
parameter set or mask passes ``_require_type``.  Every phase that an engine
takes, closed form, quadrature or grid, passes ``_phase`` (an axis
``_phases``), the one phase rule: a real number whose double, the mask's
angle, is finite.  Every threshold, mask breakpoint and evaluation point
passes ``_inside``: |v| <= H, no slack.  A mask's half-domain H passes
``_half_domain`` (finite and > 0) before any edge is compared with it, and
every mask an engine takes, quadrature or grid, passes ``_masks``, the one
mask rule: an iterable of masks, never one mask, each with H == P exactly.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left
from collections import namedtuple

from .errors import GridLayoutError, ParameterError, RegimeError

# Containment: closed forms treat the envelope as if the position domain were
# infinite.  The neglected tail mass is erfc(ratio/sqrt(2)); ratio 4.2 keeps
# it below ~1.3e-5, matching the accuracy targets used throughout.
CONTAINMENT_RATIO = 4.2

# The engines square the scales and divide by them; inside this range neither
# step over- or underflows a double.
_SCALE_RANGE = (1e-150, 1e150)


def _real(value, what: str) -> float:
    """value as a float, if it is a real number (numpy ones too).

    A str, bytes or None is refused rather than parsed, a bool rather than
    read as 0 or 1, and a complex number (numpy's too) rather than cut to
    its real part.  A complex type has ``__complex__`` but no ``__round__``;
    the real types of the numbers tower (Fraction, Decimal) have both.  A
    float, the common case, returns at once; ``__round__`` is looked up
    before ``__complex__`` because a missing type attribute costs an
    exception to find.
    """
    kind = type(value)
    if kind is float:
        return value
    if kind is bool or not hasattr(kind, "__float__") or (
        not hasattr(kind, "__round__") and hasattr(kind, "__complex__")
    ):
        raise ParameterError(f"{what} must be a real number, got {value!r}")
    return float(value)


# largest |phi| whose double 2*phi, the angle every engine takes, is finite
_MAX_PHASE = sys.float_info.max / 2.0


def _phase(phi) -> float:
    """phi as a float, refused unless it is a real number (numpy ones too)
    whose double is finite: |phi| <= _MAX_PHASE, which NaN fails."""
    if type(phi) is not float:
        phi = _real(phi, "phase")
    if not abs(phi) <= _MAX_PHASE:
        raise ParameterError(f"phase must be finite with a finite double, got {phi!r}")
    return phi


def _iterable(values, what: str):
    try:
        return iter(values)
    except TypeError:
        raise ParameterError(f"{what} must be iterable, got {values!r}") from None


def _require_type(value, kind: type, what: str) -> None:
    if not isinstance(value, kind):
        raise ParameterError(f"{what} must be a {kind.__name__}, got {value!r}")


def _phases(phis) -> list[float]:
    """The phase axis phis, any iterable, as a list of ``_phase``.

    A float needs no conversion, so only other types go through ``_real``
    one by one; the bound is one C-level pass over the axis.
    """
    phis = [
        phi if type(phi) is float else _real(phi, "phase")
        for phi in _iterable(phis, "the phase axis")
    ]
    if not all(map(_MAX_PHASE.__ge__, map(abs, phis))):
        _phase(next(phi for phi in phis if not abs(phi) <= _MAX_PHASE))
    return phis


def _inside(value, half: float, what: str) -> float:
    """value as a float, if it is a real number with |value| <= half (so
    finite): the one domain test of a threshold, breakpoint or evaluation
    point, with no rounding slack."""
    v = _real(value, what)
    if not abs(v) <= half:
        raise ParameterError(f"{what} {v} outside [-{half}, {half}]")
    return v


def _require_finite(name: str, value: float) -> float:
    v = _real(value, name)
    if not math.isfinite(v):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return v


def _integer(value, what: str) -> int:
    """value as an int, when it is one (numpy integers too); a bool, a float
    or a str is refused rather than counted as 0 or 1, truncated or left to
    numpy to reject."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ParameterError(f"{what} must be an integer, got {value!r}")


def _scale_error(name: str, value: float) -> str:
    """Why value cannot be the scale name, or '' if it can."""
    lo, hi = _SCALE_RANGE
    if lo <= value <= hi:
        return ""
    return f"{name} must be positive and within [{lo:g}, {hi:g}], got {value}"


def require_scale(name: str, value: float) -> float:
    """value as a float, if it is finite and a scale ``ProcedureParams`` accepts."""
    v = _require_finite(name, value)
    error = _scale_error(name, v)
    if error:
        raise ParameterError(error)
    return v


class _Checked:
    """Routes namedtuple's ``_make``, and so ``_replace``, through the
    validating ``__new__`` of the value type."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class ProcedureParams(_Checked, namedtuple("ProcedureParams", "x0 delta big_t big_p")):
    """Parameters of one protocol configuration.

    x0:    centre of the position-space Gaussian envelope, and of the
           detection, which projects back onto the prepared Gaussian
    delta: envelope width
    big_t: half-width of the position domain [-T, T]
    big_p: half-width of the conjugate domain [-P, P]

    Construction raises ParameterError unless every value is finite and the
    three scales delta, big_t and big_p are positive and within the range
    where their squares are finite normal doubles.  Scale validity is
    checked here, once; no engine checks it again.
    """

    __slots__ = ()

    def __new__(cls, x0: float, delta: float, big_t: float, big_p: float) -> ProcedureParams:
        self = tuple.__new__(cls, (
            _require_finite("x0", x0),
            _require_finite("delta", delta),
            _require_finite("big_t", big_t),
            _require_finite("big_p", big_p),
        ))
        errors = [_scale_error(n, getattr(self, n)) for n in ("delta", "big_t", "big_p")]
        if any(errors):
            raise ParameterError("; ".join(e for e in errors if e))
        return self

    @property
    def containment_ratio(self) -> float:
        """(T - |x0|) / delta; the envelope tail outside the domain shrinks with this."""
        return (self.big_t - abs(self.x0)) / self.delta

    @property
    def mask_product(self) -> float:
        """P * delta; controls how close the mask efficiency erf(2*P*delta)^2 is to 1."""
        return self.big_p * self.delta


def require_containment(p: ProcedureParams) -> None:
    """Raise unless the envelope is contained in [-T, T].

    Every closed-form result downstream treats the position domain as
    effectively infinite; this is the single gate enforcing that assumption.
    """
    _require_type(p, ProcedureParams, "parameters")
    if p.containment_ratio < CONTAINMENT_RATIO:
        raise RegimeError(
            f"containment ratio {p.containment_ratio:.4g} < {CONTAINMENT_RATIO}: "
            "the envelope is not contained in [-T, T], so closed-form "
            "statistics do not apply"
        )


# grid sizes the simulator accepts; the default T needs N >= 512
_MIN_POINTS = 256
# largest grid: a circuit holds a few N-point complex arrays (256 MiB each at
# this size) and numpy's FFT scratch of twice one of them; a sweep at the
# CLI's T allocates nothing N-sized; a larger request is a typo, not a
# convergence study
_MAX_POINTS = 1 << 24


def _require_pow2(n: int) -> int:
    """n as an int, if it is a power of two in [_MIN_POINTS, _MAX_POINTS]."""
    n = _integer(n, "grid size")
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
    the conjugate grid; the default suits n = 4096.  It lives here, not with
    the grid engine, because every command derives its default T from it.
    """
    big_p = require_scale("big_p", big_p)
    cells_per_eighth = _integer(cells_per_eighth, "cells_per_eighth")
    if cells_per_eighth < 1:
        raise ParameterError(f"cells_per_eighth must be >= 1, got {cells_per_eighth}")
    n = _require_pow2(n)
    if n < 16 * cells_per_eighth:
        # conjugate span is N*dy/2 = N*P/(16 q); below this it cannot cover [-P, P]
        raise GridLayoutError(
            f"n={n} too small for cells_per_eighth={cells_per_eighth}"
        )
    return 4.0 * math.pi * cells_per_eighth / big_p


def _half_domain(value) -> float:
    """value as a float, if it is a finite real number > 0: the one
    half-domain check of a mask, made before any threshold or edge is
    compared with it."""
    hd = _require_finite("half_domain", value)
    if not hd > 0.0:
        raise ParameterError(f"half_domain must be positive, got {hd}")
    return hd


class PiecewiseBinaryFunction(
    _Checked, namedtuple("PiecewiseBinaryFunction", "breakpoints values half_domain")
):
    """A {0,1}-valued piecewise-constant function on [-H, H].

    ``breakpoints`` are strictly ascending jump locations in [-H, H]; segment i
    is the half-open interval (b[i-1], b[i]] and takes ``values[i]``, with
    b[-1] = -H and b[len] = +H.  Evaluation at a breakpoint returns the value
    of the segment ending there (right-closed convention), so a step mask
    with threshold r satisfies f(r) = 0 and f(y) = 1 exactly for y > r.
    """

    __slots__ = ()

    def __new__(
        cls, breakpoints: tuple[float, ...], values: tuple[int, ...], half_domain: float
    ) -> PiecewiseBinaryFunction:
        hd = _half_domain(half_domain)
        bps = tuple(_real(b, "breakpoint") for b in _iterable(breakpoints, "breakpoints"))
        vals = tuple(_integer(v, "mask value") for v in _iterable(values, "values"))
        if len(vals) != len(bps) + 1:
            raise ParameterError(
                f"need len(values) == len(breakpoints) + 1, got {len(vals)} and {len(bps)}"
            )
        for b in bps:
            _inside(b, hd, "breakpoint")
        for lo, hi in zip(bps, bps[1:]):
            if not lo < hi:
                raise ParameterError(f"breakpoints must be strictly ascending, got {bps}")
        for v in vals:
            if v not in (0, 1):
                raise ParameterError(f"values must be 0 or 1, got {vals}")
        return tuple.__new__(cls, (bps, vals, hd))

    @classmethod
    def step(cls, r: float, half_domain: float) -> "PiecewiseBinaryFunction":
        """Threshold mask: 0 on [-H, r], 1 on (r, H]."""
        hd = _half_domain(half_domain)
        r = _inside(r, hd, "step threshold r")
        if r == hd:
            return cls((), (0,), hd)  # constant 0
        if r == -hd:
            return cls((), (1,), hd)  # constant 1 on (-H, H]
        return cls((r,), (0, 1), hd)

    @classmethod
    def hat(cls, r1: float, r2: float, half_domain: float) -> "PiecewiseBinaryFunction":
        """Window mask: 1 on (r1, r2], 0 elsewhere."""
        hd = _half_domain(half_domain)
        r1 = _inside(r1, hd, "hat edge r1")
        r2 = _inside(r2, hd, "hat edge r2")
        if not r1 < r2:
            raise ParameterError(f"need r1 < r2, got {r1}, {r2}")
        bps = []
        vals = [0]
        if r1 > -hd:
            bps.append(r1)
            vals.append(1)
        else:
            vals[0] = 1
        if r2 < hd:
            bps.append(r2)
            vals.append(0)
        return cls(tuple(bps), tuple(vals), hd)

    def __call__(self, y: float) -> int:
        y = _inside(y, self.half_domain, "evaluation point")
        return self.values[bisect_left(self.breakpoints, y)]

    def segments(self) -> tuple[tuple[float, float, int], ...]:
        """(lo, hi, value) triples covering [-H, H] in ascending order."""
        edges = (-self.half_domain, *self.breakpoints, self.half_domain)
        return tuple(
            (edges[i], edges[i + 1], self.values[i]) for i in range(len(self.values))
        )


def _masks(p: ProcedureParams, masks) -> list[PiecewiseBinaryFunction]:
    """The mask axis masks, any iterable of masks but never one mask (itself
    a tuple), as a list: the one mask rule.  Every mask must lie on exactly
    the conjugate domain of p, H == P with no rounding slack."""
    _require_type(p, ProcedureParams, "parameters")
    if isinstance(masks, PiecewiseBinaryFunction):
        raise ParameterError("masks must be an iterable of masks, got one mask")
    masks = list(_iterable(masks, "masks"))
    for f in masks:
        _require_type(f, PiecewiseBinaryFunction, "mask")
        if f.half_domain != p.big_p:
            raise ParameterError(
                f"mask domain half-width {f.half_domain} does not match big_p={p.big_p}"
            )
    return masks


class MeasurementDistribution(_Checked, namedtuple("MeasurementDistribution", "p_x0")):
    """Two-outcome distribution of the detection: window hit or miss.

    Only the hit probability is stored; the miss probability is 1 - p_x0.
    """

    __slots__ = ()

    def __new__(cls, p_x0: float) -> MeasurementDistribution:
        return tuple.__new__(cls, _probabilities((p_x0,)))


def _probabilities(values) -> list[float]:
    """The sequence values as a column of hit probabilities, each checked
    as a ``MeasurementDistribution`` is: a finite real number, clamped to
    [0, 1] from a rounding spill of at most 1e-12 outside it, and otherwise
    a ParameterError (the first failing value, in order, is reported).

    A column of floats already in [0, 1] is returned as it is (-0.0 stays
    -0.0) after three C-level passes: the types, then both bounds, which a
    NaN fails.
    """
    if (
        set(map(type, values)) == {float}
        and all(map((0.0).__le__, values))
        and all(map((1.0).__ge__, values))
    ):
        return list(values)
    checked = []
    for value in values:
        v = _require_finite("p_x0", value)
        # tolerate rounding spill just outside [0, 1]
        if -1e-12 <= v < 0.0:
            v = 0.0
        elif 1.0 < v <= 1.0 + 1e-12:
            v = 1.0
        if not 0.0 <= v <= 1.0:
            raise ParameterError(f"p_x0 must lie in [0, 1], got {v}")
        checked.append(v)
    return checked
