"""Exception hierarchy shared across the package."""


class PfscError(Exception):
    """Base class for all package-specific errors."""


class NetworkParseError(PfscError):
    """Network description file could not be parsed."""


class NetworkValidationError(PfscError):
    """Network data violates a structural invariant."""


class DegenerateBranchError(NetworkValidationError):
    """A branch series impedance matrix is singular."""


class LoadFlowError(PfscError):
    """Load-flow solve failed (non-convergence or singular Jacobian)."""

    def __init__(self, message, mismatch=None):
        super().__init__(message)
        self.mismatch = mismatch


class SingularSystemError(PfscError):
    """The sensitivity linear system is singular or rank-deficient."""


class ConfigError(PfscError):
    """Invalid run or noise configuration."""


def yaml_error_line(exc):
    """A PyYAML error as one line: where it was found, and the problem."""
    mark = getattr(exc, "problem_mark", None)
    problem = getattr(exc, "problem", None) or str(exc)
    where = "" if mark is None else f"line {mark.line + 1}, column {mark.column + 1}: "
    return where + " ".join(problem.split())
