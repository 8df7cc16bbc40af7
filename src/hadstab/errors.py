"""Exception hierarchy shared by all modules, and the one coercion rule for
every number a public entry point takes.

The CLI maps these onto exit codes: invalid or unsupported input -> 2,
theorem hypotheses unmet -> 1, numerical failure -> 3.

A real, an integer or a rational is a value of that ``numbers`` ABC, not a
bool, that ``float()``, ``int()`` or ``Fraction()`` of its int parts
converts; a coefficient is a ``numbers.Number`` that ``complex()`` converts,
and finite.  A value of a type in ``_PLAIN`` skips the ABC's ``isinstance``,
which costs 0.4-0.7 us.  A refusal is an InvalidInputError: the caller's
``what``, then the value as ``describe`` names it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Integral, Number, Rational, Real
from typing import Iterable


class HadstabError(Exception):
    """Base class for all library errors."""


class InvalidInputError(HadstabError, ValueError):
    """Malformed or inconsistent input (degree mismatch, bad weights, bad JSON)."""


class UnsupportedInputError(InvalidInputError):
    """Structurally valid input outside the supported domain (e.g. a fractional
    polynomial whose powers only become commensurate at an absurd degree)."""


class UnsupportedDegreeError(InvalidInputError):
    """Degree too large for a dense solve (the root finder's n x n arrays, or
    the guardian map's compound matrix) or for the Szego weights' floats."""


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


_PLAIN = {Number: {complex, float, int}, Real: {float, int, Fraction}, Integral: {int},
          Rational: {int, Fraction}}
# Overflow, zero division and Decimal's InvalidOperation are ArithmeticErrors.
_FAILURES = (TypeError, ValueError, ArithmeticError)
_LONG = 10**20  # an int this long or longer is named by its digit count


def describe(v) -> str:
    """``repr(v)``, but an int of more than 20 digits as "a N-digit integer",
    and a ``Fraction`` with such parts as "a Fraction with a N-digit
    numerator" (or denominator, or both): Python prints no int of more than
    4,300 digits.  Such a name starts with "a ", which no number's repr does."""
    if isinstance(v, int) and not -_LONG < v < _LONG:
        m = abs(v)
        d = int(math.log10(m)) + 1  # may be one off at a long m
        return f"a {d - (10 ** (d - 1) > m) + (10**d <= m)}-digit integer"
    if isinstance(v, Fraction):
        parts = (("numerator", v.numerator), ("denominator", v.denominator))
        long = [describe(x).replace("integer", name) for name, x in parts if not -_LONG < x < _LONG]
        if long:
            return "a Fraction with " + " and ".join(long)
    try:
        return repr(v)
    except ValueError:  # a container of an int too long to print
        return f"{type(v).__name__} holding an int too long to print"


def _number(v, what: str, abc: type, convert):
    """``convert(v)`` for a ``v`` of ``abc`` that is not a bool, refused
    where either fails."""
    if type(v) not in _PLAIN[abc] and (isinstance(v, bool) or not isinstance(v, abc)):
        raise InvalidInputError(f"{what} {describe(v)}")
    try:
        return convert(v)
    except _FAILURES:
        raise InvalidInputError(f"{what} {describe(v)}") from None


def real(v, what: str) -> float:
    """``v`` as a float, NaN and infinities included; an int or a
    ``Fraction`` beyond the float range is refused."""
    return v if type(v) is float else _number(v, what, Real, float)


def integer(v, what: str) -> int:
    """``v`` as an int."""
    return v if type(v) is int else _number(v, what, Integral, int)


def rational(v, what: str) -> Fraction:
    """``v`` as a ``Fraction`` in lowest terms with int parts, whatever its
    value."""
    return _number(v, what, Rational, lambda q: Fraction(int(q.numerator), int(q.denominator)))


def reals(values, what: str) -> list:
    """``values`` as a list of powers: plain floats and ints as they are (an
    int beyond the float range is left for the caller to name), and any other
    value as ``real`` converts it, so that the list sorts.  "``what`` must be
    a sequence of real numbers" refuses a ``values`` that is not iterable."""
    try:
        values = list(values)
    except TypeError:
        raise InvalidInputError(f"{what} must be a sequence of real numbers, not {describe(values)}") from None
    if not {*map(type, values)} <= {float, int}:
        values = [real(v, f"{what} must be real numbers, not") for v in values]
    return values


def finite_complexes(values: Iterable) -> tuple[complex, ...]:
    """``values`` as complex numbers: "coefficients must be numbers, not ..."
    names the first that is not one, and "coefficients must be finite"
    refuses a NaN or infinite part, or an int or a modulus beyond the float
    range.  Plain complex, float and int values are converted and checked by
    C loops alone."""
    values = tuple(values)
    if not {*map(type, values)} <= _PLAIN[Number]:
        for v in values:
            _number(v, "coefficients must be numbers, not", Number, complex)
    try:
        cs = tuple(map(complex, values))
        finite = all(map(math.isfinite, map(abs, cs)))
    except OverflowError:
        finite = False
    if not finite:
        raise InvalidInputError("coefficients must be finite")
    return cs
