"""Exception types shared across the package."""


class GdboundError(Exception):
    """Base class for all package-specific errors."""


class DomainError(GdboundError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class InvariantError(GdboundError, ValueError):
    """A parameter bundle violates a required invariant (e.g. v <= 0)."""


class StructuralError(GdboundError, ValueError):
    """Mismatched structures, e.g. a cover that references a different graph."""


class SizeError(GdboundError, ValueError):
    """Input too large for an exact-mode routine."""


class ModeError(GdboundError, ValueError):
    """Operation called in a mode its assumptions do not cover."""


class ConvergenceError(GdboundError, RuntimeError):
    """A numerical search failed to bracket its root or to reach its tolerance."""


class StateError(GdboundError, RuntimeError):
    """Object not in the state the operation requires (e.g. untrained model)."""


class ConfigError(GdboundError, ValueError):
    """Bad run configuration (unknown key, missing value, ...)."""


class ParseError(GdboundError, ValueError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FormatError(GdboundError, ValueError):
    """File parsed but contradicts its own header (sample/feature/label counts)."""


class DegenerateLabelError(GdboundError, ValueError):
    """A label has no positive or no negative example; excluded from pair transform."""


class UndefinedMetricError(GdboundError, ValueError):
    """Metric undefined, e.g. Macro-AUC when every label is degenerate."""
