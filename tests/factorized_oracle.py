"""Exact detection probability of an arbitrary binary mask, by segment sums
of the closed-form Gaussian integral: an oracle for the engines' tests.

Each constant segment [lo, hi] of the mask contributes
integral exp(-4*delta^2*y^2) dy = sqrt(pi)/(4*delta) * (erf(2*delta*hi) -
erf(2*delta*lo)) times its phase factor exp(2i*phi*v); no numerical
integration is involved.  For a step mask this reproduces ``prob_x0`` to
rounding.  It makes the checks the engines make (containment, the mask
domain, the phase), so tests can also hold it to their refusals.
"""

import math

from cvphase.model import MeasurementDistribution, _masks, _phase, require_containment


def prob_x0_factorized(p, f, phi) -> MeasurementDistribution:
    """Detection probability of the mask f at phase phi, by exact segment sums."""
    require_containment(p)
    _masks(p, (f,))
    phi = _phase(phi)
    d = p.delta
    acc = 0.0 + 0.0j
    for lo, hi, v in f.segments():
        weight = math.erf(2.0 * d * hi) - math.erf(2.0 * d * lo)
        x = 2.0 * phi * v
        acc += complex(math.cos(x), math.sin(x)) * weight
    acc *= math.sqrt(math.pi) / (4.0 * d)
    val = (4.0 * d * d / math.pi) * abs(acc) ** 2
    return MeasurementDistribution(val)
