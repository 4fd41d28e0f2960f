"""One exception type per way a caller handles an error.

The CLI exits with 3 on a DegenerateInstanceError and with 2 on any other
PruneError: invalid arguments, malformed matrix files, bad traces.
"""


class PruneError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(PruneError):
    """Malformed input: bad arguments, matrix files or iteration traces."""


class DegenerateInstanceError(PruneError):
    """No usable signal (e.g. an all-zero Gram diagonal), an instance beyond
    float64's range, or a singular system."""
