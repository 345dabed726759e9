"""Exception types shared across the package, its floating-point policy,
its seed rule, its t rule and its core-count rule."""

import dataclasses
import functools
import math
import numbers
import os

import numpy as np


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


def check_seed(seed):
    """ConfigError unless seed is a non-negative integer; a bool is not one."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")


def check_t(t):
    """DomainError unless the deviation t is finite and >= 0.  Every bound,
    tail and verify row reads t through this rule; at t = 0 each tail is 1."""
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t}")
    if t < 0:
        raise DomainError("t must be >= 0")


def available_cores():
    """Cores this process may run on.  Its only reader is macroauc's
    `train_many`, which trains in at most that many processes."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def finite_result(fn):
    """The package's floating-point policy as a decorator: numpy overflow,
    invalid values and division by zero in fn, an OverflowError, or a
    non-finite number in its result raise a DomainError naming fn.
    Underflow to 0 stays silent: a tail bound of 0 is valid."""
    message = f"{fn.__name__} must be finite, but it overflows or is undefined for these inputs"

    def guarded(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                result = fn(*args, **kwargs)
        except (FloatingPointError, OverflowError) as exc:
            raise DomainError(f"{message}: {exc}") from exc
        if not _finite(result):
            raise DomainError(message)
        return result
    functools.update_wrapper(guarded, fn)
    del guarded.__wrapped__  # the guard is part of fn, not a layer to unwrap
    return guarded


def _finite(value):
    """Whether every number in value, a number, array, or tuple or dataclass of them, is finite."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    parts = value if isinstance(value, tuple) else (value,)
    return all(np.isfinite(part).all() for part in parts)
