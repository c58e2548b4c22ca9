"""Exception hierarchy for the sil package.

Every failure mode raised by the numerical layers derives from SilError so
callers (CLI, scenario harness) can map them to exit codes uniformly.
"""


class SilError(Exception):
    """Base class for all package errors."""


class DomainError(SilError, ValueError):
    """A parameter lies outside its admissible range."""


class ConfigError(SilError, ValueError):
    """A scenario/config file failed to parse or validate."""


class NumericError(SilError, ArithmeticError):
    """A numerical procedure failed to produce a trustworthy result."""


class NonIntegrableTail(NumericError):
    """A norm or whole-space functional diverges through the declared tail."""


class NegativeDensity(DomainError):
    """A measure density took negative values."""


class DegenerateOddCase(DomainError):
    """Sharp constant undefined: odd order equals dimension minus one."""


class SingularOnDiagonal(DomainError):
    """Angular kernel weight requested exactly on its singular diagonal."""


class UnboundedResult(NumericError):
    """Convolution diverges for the given input tail."""


class UnboundedDistribution(NumericError):
    """Distribution function is infinite at some positive level."""


class MassNotCaptured(NumericError):
    """Transformed profile grid failed to capture the required norm mass."""


class TailNotConverged(NumericError):
    """Tail of an improper integral did not converge on the working grid."""


class SandwichViolated(SilError, AssertionError):
    """Regularization sandwich lower <= middle <= upper failed; also an
    AssertionError, so callers that count violations keep catching it."""


class HypothesisViolated(DomainError):
    """Input violates the hypothesis of the bound being evaluated."""


class DivergentIntegral(DomainError):
    """Non-regularized whole-space exponential integral requested."""


class JInfinite(NumericError):
    """Kernel tail integral diverges (purely homogeneous, untruncated)."""
