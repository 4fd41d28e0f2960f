"""One exception type per way a caller handles an error.

The CLI exits with 3 on a DegenerateInstanceError and with 2 on any other
PruneError: invalid arguments, malformed matrix files, bad traces.
Brute-force enumeration skips a candidate that raises DegenerateSupportError.
"""


class PruneError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(PruneError):
    """Malformed input: bad arguments, matrix files or iteration traces."""


class DegenerateInstanceError(PruneError):
    """No usable signal (e.g. an all-zero Gram diagonal), or a singular system."""


class DegenerateSupportError(DegenerateInstanceError):
    """A support column induces a singular restricted system."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"singular restricted system in column {column}")
