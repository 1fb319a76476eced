"""Exception types shared across the package."""

from __future__ import annotations


class CobwebError(Exception):
    """Base class for every domain error raised by this library."""


class IndexOutOfDomain(CobwebError):
    """A sequence was queried outside its index domain."""


class InvalidBounds(CobwebError):
    """Grid or layer bounds violate a constructor's preconditions."""


class BudgetExceeded(CobwebError):
    """The requested exhaustive computation exceeds its enumeration budget."""


class NonIntegral(CobwebError):
    """An F-nomial quotient failed to be an integer.

    Possible for sequences that are not GCD-morphic; the offending exact
    quotient is kept on the exception.  The message prints it, or only its
    bit lengths when a value is too long to convert to a decimal string.
    """

    def __init__(self, numerator: int, denominator: int) -> None:
        self.numerator = numerator
        self.denominator = denominator
        try:
            message = f"quotient {numerator}/{denominator} is not an integer"
        except ValueError:  # past the interpreter's int-to-str digit limit
            message = (
                f"quotient of a {numerator.bit_length()}-bit numerator by a "
                f"{denominator.bit_length()}-bit denominator is not an integer"
            )
        super().__init__(message)


class NotAPartialOrder(CobwebError):
    """The input relation closes into a cycle (antisymmetry violation).

    ``witness`` is a pair (x, y) of distinct elements with both x <= y and
    y <= x in the transitive closure.
    """

    def __init__(self, witness: tuple[object, object]) -> None:
        self.witness = witness
        super().__init__(
            f"antisymmetry violated: {witness[0]!r} and {witness[1]!r} "
            "are reachable from each other"
        )


class NotGraded(CobwebError):
    """The poset admits no rank function with unit cover steps.

    ``witness`` is a cover pair (x, y) whose rank step is not 1.
    """

    def __init__(self, witness: tuple[object, object]) -> None:
        self.witness = witness
        super().__init__(f"cover {witness[0]!r} -> {witness[1]!r} violates the unit rank step")


class NoUniqueMinimum(CobwebError):
    """First-kind Whitney numbers need a unique bottom element."""


class UndefinedRank(CobwebError):
    """The closed-form layer rank is defined for strict labels (l < m) only."""
