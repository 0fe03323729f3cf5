"""Exception taxonomy shared across the package."""


class ScpTrackError(Exception):
    """Base class for all package-specific errors."""


class UsageError(ScpTrackError, ValueError):
    """Caller passed inconsistent data (bad shapes, invalid region, ...)."""


class DimensionError(UsageError):
    """Array dimensions do not match the problem description."""


class UnsupportedObjectiveError(ScpTrackError, TypeError):
    """Objective class outside the supported affine/convex-quadratic family."""


class ProjectionError(ScpTrackError, RuntimeError):
    """Projection iteration did not converge."""


class StepError(ScpTrackError, RuntimeError):
    """A tracking step failed; carries the state before the step."""

    def __init__(self, message, state=None, solution=None):
        super().__init__(message)
        self.state = state
        self.solution = solution


class OracleError(ScpTrackError, RuntimeError):
    """Reference solver failed; distinct from a failure of the method under test."""


class ModelError(ScpTrackError, ValueError):
    """Benchmark model construction failed (e.g. Riccati divergence)."""


class ConfigError(ScpTrackError, ValueError):
    """Scenario configuration is malformed or inconsistent."""
