"""Numerically integrated detection probabilities, independent of the erf
closed forms.

The detection amplitude factorizes into one complex integral of the Gaussian
envelope g(y) = exp(-4*delta^2*y^2) times the mask's phase factor
exp(2i*phi*f(y)).  On a segment where the mask is constant at v that factor
is the constant exp(2i*phi*v), and v is 0 or 1, so

    p(x0 | phi) = (4*delta^2/pi) * |I0 + exp(2i*phi) * I1|^2,
    I_v = sum of I_s over the segments s where the mask is v,
    I_s = integral of g over segment s.

The real integrals I_s do not depend on phi, and a sweep's masks share
them: g is even, so the integral over [-b, -a] is the one over [a, b], and
every segment of every mask is a sum of the pieces into which the masks'
segment edges, folded to their absolute values and joined by 0, cut [0, H].
``quadrature_responses`` integrates each piece once per sweep and gives each
mask its two sums I0 and I1 of segment integrals, each segment a sum of
pieces (a segment across 0 is the piece [0, -lo] plus the piece [0, hi]).
One checked read combines them: ``QuadratureSweep.p_x0s`` reads every mask
over a phase axis, ``QuadratureResponse.at`` one mask at one phase with its
error estimate, and both take each phase's cos(2*phi) and sin(2*phi) once
and check the values as probabilities.  The integrator shares no
special-function code with the closed-form route in ``stats``.

Each piece's integral comes from globally adaptive Gauss-Kronrod quadrature
with the 21-point rule qk21 of QUADPACK (R. Piessens, E. de Doncker-Kapenga,
C. W. Ueberhuber and D. K. Kahaner, *QUADPACK: A Subroutine Package for
Automatic Integration*, Springer, 1983).  On a panel of half-length h the
rule evaluates the integrand at the 21 Kronrod abscissae, which contain the
10 Gauss-Legendre abscissae; K is the Kronrod estimate and G the Gauss one.
With resasc = h * sum_j w_j * |g(x_j) - K/(2h)| (the Kronrod weights w_j)
and resabs = h * sum_j w_j * |g(x_j)|, the panel's error estimate is

    err = resasc * min(1, (200 * |K - G| / resasc)^1.5),
    err = max(err, 50 * eps * resabs),

eps being the double-precision machine epsilon.  The panel with the largest
estimate is bisected until the estimates sum to the piece's budget or
_MAX_PANELS panels exist.  QUADPACK's extrapolation step is left
out: the envelope is entire and each piece finite, so bisection alone
converges geometrically.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable

from .errors import QuadratureToleranceError, RegimeError
from .model import (
    PiecewiseBinaryFunction,
    ProcedureParams,
    _iterable,
    _phase,
    _phases,
    _probabilities,
    _require_type,
    require_containment,
    require_mask_domain,
)

# qk21 (QUADPACK dqk21): the non-negative 21-point Kronrod abscissae on
# [-1, 1] in descending order; the odd positions 1, 3, ..., 9 are the
# 10-point Gauss abscissae.  _WGK are the Kronrod weights, _WG the Gauss
# weights of _XGK[1], _XGK[3], ..., _XGK[9].
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208626368371,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min

# error budget of one probability, far below the 1e-6 scale of the deviations
# this module exists to resolve, and the most panels one segment may use;
# both are read at call time
_ABS_TOL = 1e-10
_MAX_PANELS = 256


def _gauss_kronrod(
    f: Callable[[float], float], a: float, b: float
) -> tuple[float, float]:
    """qk21 on [a, b]: the Kronrod estimate and its error estimate (see the
    module docstring), in QUADPACK's order of operations."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(centre)
    res_g = 0.0
    res_k = _WGK[10] * fc
    res_abs = abs(res_k)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    # the Gauss abscissae first, then the Kronrod extension
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        x = half * _XGK[j]
        f1 = f(centre - x)
        f2 = f(centre + x)
        fv1[j] = f1
        fv2[j] = f2
        if j % 2:
            res_g += _WG[j // 2] * (f1 + f2)
        res_k += _WGK[j] * (f1 + f2)
        res_abs += _WGK[j] * (abs(f1) + abs(f2))
    mean = 0.5 * res_k
    res_asc = _WGK[10] * abs(fc - mean)
    for j in range(10):
        res_asc += _WGK[j] * (abs(fv1[j] - mean) + abs(fv2[j] - mean))
    res_abs *= abs(half)
    res_asc *= abs(half)
    err = abs((res_k - res_g) * half)
    if res_asc != 0.0 and err != 0.0:
        err = res_asc * min(1.0, (200.0 * err / res_asc) ** 1.5)
    if res_abs > _TINY / (50.0 * _EPS):
        err = max(50.0 * _EPS * res_abs, err)
    return res_k * half, err


def _left_sum(terms: Iterable[float]) -> float:
    """0.0 + t0 + t1 + ..., added in order.  The built-in sum compensates
    float rounding from Python 3.12 on, so it would print other digits
    there; this fold gives every Python the same bits."""
    total = 0.0
    for term in terms:
        total += term
    return total


def _integrate(
    f: Callable[[float], float], a: float, b: float, budget: float
) -> tuple[float, float]:
    """Integral of f over [a, b] and its error estimate.

    Globally adaptive: the panel with the largest qk21 error estimate is
    bisected until the estimates sum to at most budget or _MAX_PANELS panels
    exist.  An exhausted budget is not an error here; the caller judges the
    returned estimate.
    """
    value, err = _gauss_kronrod(f, a, b)
    panels = [(a, b, value, err)]
    err_sum = err
    while err_sum > budget and len(panels) < _MAX_PANELS:
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        lo, hi, _, worst_err = panels[worst]
        mid = 0.5 * (lo + hi)
        left = (lo, mid, *_gauss_kronrod(f, lo, mid))
        right = (mid, hi, *_gauss_kronrod(f, mid, hi))
        err_sum += left[3] + right[3] - worst_err
        # as in QUADPACK, the half with the larger error takes the old slot
        if right[3] > left[3]:
            left, right = right, left
        panels[worst] = left
        panels.append(right)
    return _left_sum(panel[2] for panel in panels), err_sum


QuadratureResult = namedtuple("QuadratureResult", "value error_estimate")


class QuadratureResponse(namedtuple("QuadratureResponse", "params i0 i1 error_sum")):
    """The phase-free part of the quadrature oracle for one mask.

    params is the configuration the integrals were taken for.  i0 and i1
    are the sums, in ascending segment order, of the envelope's integrals
    over the mask's segments where it is 0 and where it is 1; each segment's
    integral is a sum of its sweep's pieces (see ``quadrature_responses``).
    error_sum is the sum of the error estimates of the pieces, each counted
    as often as it enters a segment.
    """

    __slots__ = ()

    def at(self, phi: float) -> QuadratureResult:
        """Detection probability at phase phi, read and checked as
        ``QuadratureSweep.p_x0s`` reads it, with the error estimate
        propagated from the pieces.

        Raises QuadratureToleranceError, carrying the best values, when that
        estimate exceeds _ABS_TOL.
        """
        (value,), (error_estimate,) = _read((self,), (_phase(phi),))
        return QuadratureResult(value, error_estimate)


class QuadratureSweep(tuple):
    """The QuadratureResponse of each mask of one sweep, in mask order (see
    ``quadrature_responses``)."""

    __slots__ = ()

    def p_x0s(self, phis: Iterable[float]) -> list[float]:
        """Each response's ``at(phi).value`` at each phase of phis,
        mask-major, from one read whose axis is checked once.  Raises as
        ``QuadratureResponse.at`` does at the first (mask, phase) whose
        estimate exceeds _ABS_TOL.
        """
        return _read(self, _phases(phis))[0]


def _read(
    responses: Iterable[QuadratureResponse], phis: list[float]
) -> tuple[list[float], list[float]]:
    """The probabilities of each response at each checked phase of phis,
    mask-major and checked as a column (``_probabilities``), and their error
    estimates; each phase's cos(2*phi) and sin(2*phi) are taken once."""
    trig = [(math.cos(2.0 * phi), math.sin(2.0 * phi)) for phi in phis]
    values, errors = [], []
    for params, i0, i1, err_sum in responses:
        norm = 4.0 * params.delta * params.delta / math.pi
        for c, s in trig:
            # |I0 + exp(2i*phi) * I1|
            mod = math.hypot(i0 + c * i1, s * i1)
            value = norm * mod * mod
            error_estimate = norm * (2.0 * mod * err_sum + err_sum * err_sum)
            if error_estimate > _ABS_TOL:
                raise QuadratureToleranceError(
                    f"propagated error estimate {error_estimate:.3e} exceeds "
                    f"abs_tol {_ABS_TOL:.3e} within {_MAX_PANELS} subdivisions",
                    value=value,
                    error_estimate=error_estimate,
                )
            values.append(value)
            errors.append(error_estimate)
    return _probabilities(values), errors


def quadrature_responses(
    p: ProcedureParams, masks: Iterable[PiecewiseBinaryFunction]
) -> QuadratureSweep:
    """Integrate the envelope over the pieces that the masks' folded segment
    edges cut [0, H] into, each piece once, and give each mask of masks its
    QuadratureResponse.

    The cuts are 0 and the absolute value of every mask's every segment
    edge.  A segment's integral is the sum of the pieces it covers, mirrored
    where it lies below 0, and both sides' where it crosses 0.

    The probability-level budget _ABS_TOL is converted to a budget for the
    underlying complex integral (whose modulus is at most sqrt(pi)/(2*delta)).
    Half of it goes to [0, H], split across the pieces in proportion to
    their Gaussian mass (at least 1e-6 of it each), so tail pieces do not
    starve the centre.  A piece enters a mask at most twice, once on each
    side of 0, so each mask's error_sum stays within the whole budget.  Each
    piece may use up to _MAX_PANELS panels.
    """
    require_containment(p)  # also when there are no masks
    masks = list(_iterable(masks, "masks"))
    for f in masks:
        require_mask_domain(p, f)
    d = p.delta
    cuts = sorted({
        0.0, *(abs(edge) for f in masks for edge in (f.half_domain, *f.breakpoints))
    })
    index = {cut: k for k, cut in enumerate(cuts)}

    # first-order: |dp| <= (4 d^2/pi) * 2 |I|_max * |dI|, |I|_max <= sqrt(pi)/(2d)
    # => an integral budget of abs_tol * sqrt(pi)/(4d) meets abs_tol; halve for safety
    integral_budget = _ABS_TOL * math.sqrt(math.pi) / (8.0 * d)

    # mass weights only steer the split; they never enter the value
    masses = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = 0.5 * (lo + hi)
        masses.append((hi - lo) * math.exp(-4.0 * d * d * mid * mid))
    total_mass = _left_sum(masses) or 1.0

    def integrand(y: float) -> float:
        return math.exp(-4.0 * d * d * y * y)

    values, errors = [], []
    for lo, hi, mass in zip(cuts, cuts[1:], masses):
        piece_budget = 0.5 * integral_budget * max(mass / total_mass, 1e-6)
        val, err = _integrate(integrand, lo, hi, piece_budget)
        values.append(val)
        errors.append(err)

    def span(a: float, b: float) -> tuple[float, float]:
        """The integral from cut a to cut b, 0 <= a <= b, and its error."""
        i, j = index[a], index[b]
        return _left_sum(values[i:j]), _left_sum(errors[i:j])

    sweep = []
    for f in masks:
        sums = [0.0, 0.0]  # I0 and I1
        err_sum = 0.0
        for lo, hi, v in f.segments():
            if lo >= 0.0:
                val, err = span(lo, hi)
            elif hi <= 0.0:
                val, err = span(-hi, -lo)
            else:
                (below, err_below), (above, err_above) = span(0.0, -lo), span(0.0, hi)
                val, err = below + above, err_below + err_above
            sums[v] += val
            err_sum += err
        sweep.append(QuadratureResponse(p, *sums, err_sum))
    return QuadratureSweep(sweep)


def prob_x0_quadrature(
    p: ProcedureParams, f: PiecewiseBinaryFunction, phi: float
) -> QuadratureResult:
    """Detection probability via adaptive quadrature over the mask segments:
    ``quadrature_responses(p, (f,))[0].at(phi)``.

    The returned error_estimate is propagated from the pieces' estimates; if
    it exceeds _ABS_TOL a QuadratureToleranceError carrying the best values
    is raised.
    """
    return quadrature_responses(p, (f,))[0].at(phi)


class StepHatGap(namedtuple("StepHatGap", "signed_gap gap leading_order_prediction ratio")):
    """Difference between the balanced step mask and the centred window mask.

    signed_gap = p_step - p_hat (nonpositive: the window mask detects
    slightly more often).  With a and b the envelope's integrals over
    [0, P/2] and [P/2, P] it is -(8*delta^2/pi) * 2*sin(phi)^2 * (a - b)^2
    exactly, which is how it is computed: the difference of the two
    probabilities, both near 1, would cancel its leading digits, and so
    would 1 - cos(2*phi) near phi = 0 and pi.  gap is its magnitude;
    leading_order_prediction is the small-mask-product series
    2*sin(phi)^2 * (8/pi) * (P*delta)^6 * |1 - 3*(P*delta)^2|,
    and ratio = gap / prediction (nan when the prediction vanishes).
    """

    __slots__ = ()


def step_hat_gap(p: ProcedureParams, phi: float) -> StepHatGap:
    """Quadrature-measured gap between Step(0) and Hat(-P/2, P/2) detection
    probabilities, with its small-(P*delta) series prediction: the
    one-phase read of ``step_hat_gaps``.

    Requires P*delta <= 1/2; beyond that the truncated series stops
    controlling the gap.
    """
    columns = step_hat_gaps(p, (phi,))
    return StepHatGap._make(column[0] for column in columns.values())


def step_hat_gaps(p: ProcedureParams, phis: tuple[float, ...]) -> dict[str, list]:
    """``step_hat_gap`` at each phase in phis, from one sweep over both
    masks, as one list per StepHatGap field keyed by its name, in field
    order, with a cell per phase.

    The gap is taken from the sweep's pieces a and b (see ``StepHatGap``);
    both masks' probabilities are still read, so each raises and is checked
    as ``QuadratureSweep.p_x0s`` would.  Requires P*delta <= 1/2 (see
    ``step_hat_gap``).
    """
    _require_type(p, ProcedureParams, "parameters")
    s = p.mask_product
    if s > 0.5:
        raise RegimeError(
            f"step_hat_gap requires P*delta <= 0.5, got {s}; the series "
            "prediction does not control larger mask products"
        )
    phis = _phases(phis)
    big_p = p.big_p
    masks = (
        PiecewiseBinaryFunction.step(0.0, big_p),
        PiecewiseBinaryFunction.hat(-big_p / 2.0, big_p / 2.0, big_p),
    )
    sweep = quadrature_responses(p, masks)
    _read(sweep, phis)  # both probability columns, read and checked
    # the hat's segments [-P, -P/2], (-P/2, P/2] and (P/2, P] integrate to
    # b, 2a and b, with a and b the pieces [0, P/2] and [P/2, P], so its
    # I1 is 2a and its I0 is b + b = 2b exactly
    hat = sweep[1]
    a_minus_b = 0.5 * hat.i1 - 0.5 * hat.i0
    scale = (8.0 * p.delta * p.delta / math.pi) * a_minus_b * a_minus_b
    factors = [2.0 * math.sin(phi) ** 2 for phi in phis]  # 1 - cos(2*phi)
    # 0.0 - x rather than -x: a gap of zero prints as 0, not -0
    signed_gaps = [0.0 - factor * scale for factor in factors]
    predictions = [
        factor * (8.0 / math.pi) * s**6 * abs(1.0 - 3.0 * s * s) for factor in factors
    ]
    gaps = [abs(signed) for signed in signed_gaps]
    return {
        "signed_gap": signed_gaps,
        "gap": gaps,
        "leading_order_prediction": predictions,
        "ratio": [g / x if x > 0.0 else math.nan for g, x in zip(gaps, predictions)],
    }
