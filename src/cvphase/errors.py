"""Exception types shared across the package."""


class CvPhaseError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(CvPhaseError, ValueError):
    """A parameter violates a hard validity constraint (sign, range, shape)."""


class RegimeError(CvPhaseError):
    """The closed-form approximations are not trustworthy for these parameters.

    Raised when the envelope width is not well contained in the position
    domain, i.e. (T - |x0|) / delta falls below the containment threshold,
    and by the step-hat gap series when P*delta > 1/2.
    """


class SingularityError(CvPhaseError):
    """A requested quantity has a vanishing-derivative singularity at this point."""


class UnidentifiableFunctionError(CvPhaseError):
    """Inversion is impossible: the two hypotheses give identical statistics."""


class QuadratureToleranceError(CvPhaseError):
    """Adaptive integration could not reach the requested error budget.

    Carries the best available estimate so callers can still inspect it.
    """

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


class GridLayoutError(CvPhaseError, ValueError):
    """A grid does not satisfy a layout precondition (size, coverage, spacing)."""
