"""Core value types for the finite-domain Gaussian phase-estimation protocol.

The protocol works with a Gaussian envelope of width ``delta`` centred at
``x0`` on the position interval [-T, T].  Its conjugate-space twin lives on
[-P, P] (units with hbar = 1/2, transform kernel exp(2ixy)).  A black-box
phase mask multiplies the conjugate-space amplitude by exp(-2i*phi*f(y))
where f is a binary piecewise-constant function.

Types here are immutable values.  Hard validity (finite values, positive
scales within range, mask shapes) is checked once, when an object is built,
so an invalid object cannot exist and the engines never re-check it; softer
regime conditions (envelope containment, mask efficiency) are reported by
``validate_params`` so that callers can decide how to proceed.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .errors import ParameterError, RegimeError

# Containment: closed forms treat the envelope as if the position domain were
# infinite.  The neglected tail mass is erfc(ratio/sqrt(2)); ratio 4.2 keeps
# it below ~1.3e-5, matching the accuracy targets used throughout.
CONTAINMENT_RATIO = 4.2

# Mask efficiency erf(2*P*delta)^2 is within ~4.4e-5 of 1 once P*delta >= 1.5.
FULL_EFFICIENCY_PRODUCT = 1.5

# The engines square the scales and divide by them; inside this range neither
# step over- or underflows a double.
_SCALE_RANGE = (1e-150, 1e150)


def _require_finite(name: str, value: float) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return v


@dataclass(frozen=True)
class ProcedureParams:
    """Parameters of one protocol configuration.

    x0:      centre of the position-space Gaussian envelope
    delta:   envelope width
    big_t:   half-width of the position domain [-T, T]
    big_p:   half-width of the conjugate domain [-P, P]
    epsilon: width of the detection window; defaults to delta

    Construction raises ParameterError unless every value is finite and the
    four scales delta, big_t, big_p and epsilon are positive and within the
    range where their squares are finite normal doubles.  Scale validity is
    checked here, once; no engine checks it again.
    """

    x0: float
    delta: float
    big_t: float
    big_p: float
    epsilon: float | None = None

    def __post_init__(self) -> None:
        for name in ("x0", "delta", "big_t", "big_p"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        eps = self.delta if self.epsilon is None else _require_finite("epsilon", self.epsilon)
        object.__setattr__(self, "epsilon", eps)
        lo, hi = _SCALE_RANGE
        errors = []
        for name in ("delta", "big_t", "big_p", "epsilon"):
            v = getattr(self, name)
            if not lo <= v <= hi:
                errors.append(f"{name} must be positive and within [{lo:g}, {hi:g}], got {v}")
        if errors:
            raise ParameterError("; ".join(errors))

    @property
    def containment_ratio(self) -> float:
        """(T - |x0|) / delta; the envelope tail outside the domain shrinks with this."""
        return (self.big_t - abs(self.x0)) / self.delta

    @property
    def in_containment_regime(self) -> bool:
        return self.containment_ratio >= CONTAINMENT_RATIO

    @property
    def mask_product(self) -> float:
        """P * delta; controls how close the mask efficiency erf(2*P*delta)^2 is to 1."""
        return self.big_p * self.delta


def validate_params(p: ProcedureParams) -> tuple[str, ...]:
    """Warnings for the soft regime conditions of valid parameters.

    Hard validity is checked once, when ``p`` is built.  The warnings are:
    containment ratio below CONTAINMENT_RATIO (closed forms untrustworthy),
    and mask product below FULL_EFFICIENCY_PRODUCT (mask efficiency
    noticeably short of 1, so the ideal-limit identities drift).  The
    reciprocal-domain product 2*T*P is not checked; the protocol is well
    defined for any positive pair (T, P).
    """
    warnings = []
    if not p.in_containment_regime:
        warnings.append(
            f"containment ratio (T - |x0|)/delta = {p.containment_ratio:.4g} "
            f"is below {CONTAINMENT_RATIO}; envelope leaks out of [-T, T] and "
            "closed-form statistics are unreliable"
        )
    if p.mask_product < FULL_EFFICIENCY_PRODUCT:
        warnings.append(
            f"mask product P*delta = {p.mask_product:.4g} is below "
            f"{FULL_EFFICIENCY_PRODUCT}; mask efficiency erf(2*P*delta)^2 "
            "is noticeably below 1"
        )
    return tuple(warnings)


def require_containment(p: ProcedureParams) -> None:
    """Raise unless the envelope is contained in [-T, T].

    Every closed-form result downstream treats the position domain as
    effectively infinite; this is the single gate enforcing that assumption.
    """
    if not p.in_containment_regime:
        raise RegimeError(
            f"containment ratio {p.containment_ratio:.4g} < {CONTAINMENT_RATIO}: "
            "the envelope is not contained in [-T, T], so closed-form "
            "statistics do not apply"
        )


def require_mask_domain(p: ProcedureParams, f: PiecewiseBinaryFunction) -> None:
    """Raise unless the mask is defined on the conjugate domain [-P, P]."""
    if abs(f.half_domain - p.big_p) > 1e-9 * max(1.0, p.big_p):
        raise ParameterError(
            f"mask domain half-width {f.half_domain} does not match big_p={p.big_p}"
        )


# slack when checking membership of breakpoints / evaluation points in the
# mask domain, relative to the domain size
_DOMAIN_SLACK = 1e-12


@dataclass(frozen=True)
class PiecewiseBinaryFunction:
    """A {0,1}-valued piecewise-constant function on [-H, H].

    ``breakpoints`` are strictly ascending interior jump locations; segment i
    is the half-open interval (b[i-1], b[i]] and takes ``values[i]``, with
    b[-1] = -H and b[len] = +H.  Evaluation at a breakpoint returns the value
    of the segment ending there (right-closed convention), so a step mask
    with threshold r satisfies f(r) = 0 and f(y) = 1 exactly for y > r.
    """

    breakpoints: tuple[float, ...]
    values: tuple[int, ...]
    half_domain: float

    def __post_init__(self) -> None:
        hd = _require_finite("half_domain", self.half_domain)
        if hd <= 0.0:
            raise ParameterError(f"half_domain must be positive, got {hd}")
        object.__setattr__(self, "half_domain", hd)
        bps = tuple(float(b) for b in self.breakpoints)
        vals = tuple(int(v) for v in self.values)
        if len(vals) != len(bps) + 1:
            raise ParameterError(
                f"need len(values) == len(breakpoints) + 1, got {len(vals)} and {len(bps)}"
            )
        slack = _DOMAIN_SLACK * max(1.0, hd)
        for b in bps:
            if not math.isfinite(b) or abs(b) > hd + slack:
                raise ParameterError(f"breakpoint {b} outside [-{hd}, {hd}]")
        for lo, hi in zip(bps, bps[1:]):
            if not lo < hi:
                raise ParameterError(f"breakpoints must be strictly ascending, got {bps}")
        for v in vals:
            if v not in (0, 1):
                raise ParameterError(f"values must be 0 or 1, got {vals}")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    @classmethod
    def step(cls, r: float, half_domain: float) -> "PiecewiseBinaryFunction":
        """Threshold mask: 0 on [-H, r], 1 on (r, H]."""
        r = _require_finite("r", r)
        hd = _require_finite("half_domain", half_domain)
        if abs(r) > hd:
            raise ParameterError(f"step threshold r={r} outside [-{hd}, {hd}]")
        if r == hd:
            return cls((), (0,), hd)  # constant 0
        if r == -hd:
            return cls((), (1,), hd)  # constant 1 on (-H, H]
        return cls((r,), (0, 1), hd)

    @classmethod
    def hat(cls, r1: float, r2: float, half_domain: float) -> "PiecewiseBinaryFunction":
        """Window mask: 1 on (r1, r2], 0 elsewhere."""
        r1 = _require_finite("r1", r1)
        r2 = _require_finite("r2", r2)
        hd = _require_finite("half_domain", half_domain)
        if not r1 < r2:
            raise ParameterError(f"need r1 < r2, got {r1}, {r2}")
        if abs(r1) > hd or abs(r2) > hd:
            raise ParameterError(f"hat edges ({r1}, {r2}) outside [-{hd}, {hd}]")
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
        y = float(y)
        slack = _DOMAIN_SLACK * max(1.0, self.half_domain)
        if not math.isfinite(y) or abs(y) > self.half_domain + slack:
            raise ParameterError(f"evaluation point {y} outside [-{self.half_domain}, {self.half_domain}]")
        return self.values[bisect_left(self.breakpoints, y)]

    def complement(self) -> "PiecewiseBinaryFunction":
        """The pointwise 1-f mask on the same domain."""
        return PiecewiseBinaryFunction(
            self.breakpoints, tuple(1 - v for v in self.values), self.half_domain
        )

    def segments(self) -> tuple[tuple[float, float, int], ...]:
        """(lo, hi, value) triples covering [-H, H] in ascending order."""
        edges = (-self.half_domain, *self.breakpoints, self.half_domain)
        return tuple(
            (edges[i], edges[i + 1], self.values[i]) for i in range(len(self.values))
        )

    def measure_of_ones(self) -> float:
        """Lebesgue measure of {y : f(y) = 1} within [-H, H]."""
        return sum(hi - lo for lo, hi, v in self.segments() if v == 1)


@dataclass(frozen=True)
class MeasurementDistribution:
    """Two-outcome distribution of the detection: window hit or miss.

    Only the hit probability is stored; the miss probability is 1 - p_x0.
    """

    p_x0: float

    def __post_init__(self) -> None:
        v = _require_finite("p_x0", self.p_x0)
        # tolerate rounding spill just outside [0, 1]
        if -1e-12 <= v < 0.0:
            v = 0.0
        elif 1.0 < v <= 1.0 + 1e-12:
            v = 1.0
        if not 0.0 <= v <= 1.0:
            raise ParameterError(f"p_x0 must lie in [0, 1], got {v}")
        object.__setattr__(self, "p_x0", v)
