"""Exception taxonomy shared across the package.

Precondition and hypothesis failures raise :class:`InvariantViolation`
(a ValueError); numerical breakdowns (non-convergence, ill-conditioning,
quadrature tolerance misses) raise :class:`NumericalError`.  The CLI maps
the former to exit code 2 and the latter to exit code 3.
"""

import math


class LocopError(Exception):
    pass


class InvariantViolation(LocopError, ValueError):
    """A stated hypothesis (envelope, modulus, precondition) failed to verify."""


class NumericalError(LocopError, RuntimeError):
    """A numerical method failed to converge or lost too much accuracy."""


def integer_field(value, name: str) -> int:
    """An integer read from JSON or a flag, exact at any size.  A fractional
    or non-finite number is an error, not something to truncate; a null or a
    list raises TypeError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and value.strip().lstrip("+-").isdecimal():
        return int(value)
    f = float(value)
    if not (math.isfinite(f) and f == math.floor(f)):
        raise InvariantViolation(f"{name} {value!r} is not an integer")
    return int(f)
