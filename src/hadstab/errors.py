"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: invalid or unsupported input -> 2,
theorem hypotheses unmet -> 1, numerical failure -> 3.
"""

from __future__ import annotations


class HadstabError(Exception):
    """Base class for all library errors."""


class InvalidInputError(HadstabError, ValueError):
    """Malformed or inconsistent input (degree mismatch, bad weights, bad JSON)."""


class UnsupportedInputError(InvalidInputError):
    """Structurally valid input outside the supported domain (e.g. a fractional
    polynomial whose powers only become commensurate at an absurd degree)."""


class UnsupportedDegreeError(InvalidInputError):
    """Degree too large for a dense solve: the root finder's n x n arrays, or
    the guardian map's compound matrix."""


class NotApplicableError(HadstabError):
    """A theorem's hypotheses do not hold for this input; no threshold exists.

    ``index`` names the first offending coefficient index when there is one.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class BracketError(NotApplicableError):
    """A search interval does not bracket a stability change."""


class NumericalError(HadstabError, ArithmeticError):
    """Base class for failures of the numerical machinery."""


class UnconvergedError(NumericalError):
    """Root iteration failed to certify; carries the partial result.

    ``row`` is the position of the failing polynomial in a batched solve.
    """

    def __init__(self, message: str, partial=None, row: int | None = None):
        super().__init__(message)
        self.partial = partial
        self.row = row


class MarginalZoneError(NumericalError):
    """A stability verdict stayed within the boundary band below the requested
    resolution, so no onset can be certified."""
