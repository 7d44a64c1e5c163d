"""Exception types raised by the estimation pipeline."""


class EstimationError(Exception):
    """Base class for domain errors raised by this package."""


class InvalidPartitionError(EstimationError):
    """A label vector is not a valid partition (bad range, empty class, wrong length)."""


class RankDeficientError(EstimationError):
    """A matrix that must have full column rank is numerically rank deficient.

    ``sigma_min`` and ``sigma_max`` are stored clipped at zero, so that
    neither a rounded negative eigenvalue nor a -0.0 from the SVD prints
    with a minus sign.
    """

    def __init__(self, sigma_min, sigma_max, message=None):
        self.sigma_min = _non_negative(sigma_min)
        self.sigma_max = _non_negative(sigma_max)
        if message is None:
            message = (
                f"rank deficient input: sigma_min={self.sigma_min:.3e} "
                f"vs sigma_max={self.sigma_max:.3e}"
            )
        super().__init__(message)


def _non_negative(value) -> float:
    # -0.0 <= 0.0 holds, so -0.0 reads 0.0; NaN passes through
    value = float(value)
    return 0.0 if value <= 0.0 else value


class DegenerateIterateError(EstimationError):
    """An alternating-minimization iterate lost rank and the update is undefined."""

    def __init__(self, iteration, cause=None):
        self.iteration = int(iteration)
        self.cause = cause
        super().__init__(f"degenerate iterate at sweep {self.iteration}: {cause}")


class NonFiniteObjectiveError(EstimationError):
    """NaN or Inf appeared in an iterate or objective value."""


class RetryExhaustedError(EstimationError):
    """Rejection sampling failed to produce a valid draw within the retry budget."""


class EmptyClusterError(EstimationError):
    """A clustering step produced an empty group where one is not allowed."""


class DegenerateSliceError(EstimationError):
    """A connectivity slice is numerically rank deficient below its nominal rank."""
