"""Exception hierarchy shared by all divisorlab modules.

Two families matter for callers (and for the CLI exit codes):

* ``PreconditionError`` -- the input violates a documented precondition
  (domain, validity range, truncation order, resource budget).  CLI exit 2.
* ``SelfCheckError`` -- the inputs were legal but an internal numeric
  self-check failed (quadrature non-convergence, tail bound not achieved,
  bracketing failure, integer saturation).  CLI exit 3.

The guards ``check_finite``, ``check_positive`` and ``check_nonnegative`` are
written in positive form, so NaN and +-inf fail them; each takes int, float,
Fraction and mpf, as does ``check_within``.  ``check_integral`` refuses any
float, Fraction or mpf, and returns the integer as a Python int.
"""

import math
import operator
import sys


class PreconditionError(ValueError):
    """Input violates a documented operation precondition."""


class DomainError(PreconditionError):
    """Argument outside the mathematical domain of a formula."""


class RangeError(PreconditionError):
    """Argument outside a bound's validity range; the message names the threshold."""


class InsufficientOrderError(PreconditionError):
    """A truncated series does not carry enough terms for the requested result."""


class MemoryBudgetError(PreconditionError):
    """A sieve request would exceed the configured memory budget."""


class ConfigError(PreconditionError):
    """Malformed run configuration (unknown key, unparsable value)."""


class SelfCheckError(RuntimeError):
    """A numeric self-check failed; results would not be trustworthy."""


class PrecisionError(SelfCheckError):
    """The requested precision cannot be certified with feasible parameters."""


class QuadratureError(SelfCheckError):
    """Quadrature self-check (panel or node doubling) did not converge."""


class BracketError(SelfCheckError):
    """An extremum search got an empty bracket; a bracket that holds more than
    one critical point raises a plain SelfCheckError (optimize_theta)."""


class SieveOverflowError(SelfCheckError):
    """64-bit saturation detected in a divisor block."""


def check_finite(name: str, x) -> None:
    """DomainError unless x is finite; a RangeError check of x comes after it."""
    if not -math.inf < x < math.inf:
        raise DomainError(f"{name} must be finite, got {x}")


def check_within(name: str, x, lo, hi) -> None:
    """DomainError unless lo <= x <= hi, so NaN fails it too."""
    if not lo <= x <= hi:
        raise DomainError(f"{name} must lie in [{lo}, {hi}], got {x}")


def check_integral(name: str, x) -> int:
    """x as a Python int; DomainError unless it is an int or numpy integer
    (has ``__index__``).  Callers go on with the returned value, since numpy
    integers lack ``bit_length`` and overflow in mpmath's precisions."""
    if not hasattr(x, "__index__"):
        raise DomainError(f"{name} must be integral, got {x}")
    return operator.index(x)


def plain_float(x):
    """x as a Python float if it is a float subclass or any numpy float (numpy is
    looked up, never imported), else as it is: an int, Fraction or mpf stays."""
    np = sys.modules.get("numpy")
    return float(x) if isinstance(x, float) or (np and isinstance(x, np.floating)) else x


def check_positive(name: str, x) -> None:
    """DomainError unless 0 < x < inf."""
    if not 0 < x < math.inf:
        raise DomainError(f"{name} must be positive, got {x}")


def check_nonnegative(name: str, x) -> None:
    """DomainError unless 0 <= x < inf."""
    if not 0 <= x < math.inf:
        raise DomainError(f"{name} must be non-negative, got {x}")
