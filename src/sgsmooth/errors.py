"""Exception types shared across the package, and the one overflow trap."""

import contextlib

import numpy as np


class StreamExhausted(RuntimeError):
    """Sample stream ended before the configured iteration count."""


class NumericError(ArithmeticError):
    """A computation produced or received a non-finite value."""


@contextlib.contextmanager
def trap_divergence(where):
    """Run the body so that its first overflow or invalid operation raises
    :class:`NumericError` ``"<cause>: <where>"`` instead of a warning."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericError(f"{exc}: {where}") from None


# how numpy's ValueError or OverflowError starts when a size is past its index range
_SIZE_REFUSALS = ("Maximum allowed dimension exceeded", "Maximum allowed size exceeded",
                  "array is too big", "Python int too large to convert")


@contextlib.contextmanager
def refuse_size(error):
    """Run the body so that numpy refusing an array size, at once, raises
    ``error(exc)`` instead: MemoryError past the address space, ValueError or
    OverflowError past the index range.  Every other error passes through."""
    try:
        yield
    except (MemoryError, ValueError, OverflowError) as exc:
        if isinstance(exc, MemoryError) or str(exc).startswith(_SIZE_REFUSALS):
            raise error(exc) from None
        raise


class UnsupportedConfiguration(ValueError):
    """Parameters fall outside the range an operation supports."""


class InsufficientData(ValueError):
    """Not enough usable points to form an estimate."""


class ParseError(ValueError):
    """Malformed text input; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FormatError(ValueError):
    """Malformed or unsupported binary image file."""


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending key."""
