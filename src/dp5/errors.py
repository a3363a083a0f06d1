"""Shared exception types.

Every failure mode that callers are expected to handle gets its own class.
Internal consistency checks raise DP5Error itself and bad arguments raise
ValueError; no check is a bare assert, so all of them survive `python -O`.
The classes for bad input (NotPrime, TooLarge, NotInEffDual,
InconsistentPairings, NegativePointCount, TargetUnreachable, Diverges,
DegenerateK, TruncationMismatch) are also ValueErrors, which the command
line maps to exit code 2.
"""


class DP5Error(Exception):
    """Base class for all package errors."""


class NotPrime(DP5Error, ValueError):
    """Field characteristic is not a prime."""


class TooLarge(DP5Error, ValueError):
    """Requested object exceeds the supported size cap."""


class DivisionByZero(DP5Error):
    """Inversion or division by the zero element."""


class ZeroForm(DP5Error):
    """The zero section has no divisor."""


class BudgetExceeded(DP5Error):
    """An enumeration would exceed the configured iteration budget."""


class NotInEffDual(DP5Error, ValueError):
    """Curve class pairs negatively with some line."""


class InconsistentPairings(DP5Error, ValueError):
    """Ten line pairings do not come from any curve class."""


class PreconditionViolated(DP5Error):
    """Bundle data violates a stated precondition; the message names it."""


class InconsistentH0(DP5Error):
    """Section dimensions are not those of a rank-3 splitting type (a bug)."""


class NonExactDivision(DP5Error):
    """A reconstruction division left a remainder (a bug)."""


class NegativePointCount(DP5Error, ValueError):
    """Weil data implies a negative number of points somewhere."""


class TargetUnreachable(DP5Error, ValueError):
    """Requested certified radius needs more Euler factors than the cap."""


class Diverges(DP5Error, ValueError):
    """Zeta-accelerated product does not converge for this q."""


class DegenerateK(DP5Error, ValueError):
    """k = 1 hits the zeta pole; no inverse Euler factor exists."""


class TruncationMismatch(ValueError, AssertionError):
    """Series of different truncation orders were combined.

    A ValueError; also an AssertionError, which is what callers caught while
    this check was a bare assert.
    """


class NonUnit(DP5Error):
    """Series has no inverse over the integers (constant term not a unit)."""
