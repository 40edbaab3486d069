"""Exception types shared across the package."""


class StochSqpError(Exception):
    """Base class for all package-specific errors."""


class EvaluationError(StochSqpError):
    """An evaluator (objective, gradient, constraint, Jacobian, or oracle)
    produced a non-finite or malformed value."""


class ParseError(StochSqpError, ValueError):
    """Malformed LIBSVM input; the message carries the line number."""


class ConstructionError(StochSqpError):
    """Instance construction failed (e.g. rank checks exhausted retries)."""


class RankError(StochSqpError):
    """Constraint Jacobian is rank deficient at the current point."""


class CurvatureError(StochSqpError):
    """Reduced matrix z'hz is not positive definite, violating the
    tangent-space curvature requirement on the quadratic model."""


class ConfigError(StochSqpError, ValueError):
    """Invalid solver or experiment configuration."""


class ReferenceSolveError(StochSqpError):
    """High-accuracy reference solve did not reach the requested tolerance,
    or its candidate failed the second-order check (the reduced
    Lagrangian Hessian is not finite or has a negative eigenvalue)."""
