"""Exception types shared across the package, and its integer check."""

from operator import index


def integer(x, what: str) -> int:
    """``x`` read with ``operator.index``, as int, bool and numpy integers
    allow; anything else raises ``ValueError`` naming ``what`` and ``x``."""
    try:
        return index(x)
    except TypeError:
        raise ValueError(f"{what} {x!r} is not an integer") from None


class LiecharError(Exception):
    """Base class for errors raised by this package."""


class RankMismatchError(LiecharError, ValueError):
    """Objects built over different ranks were combined."""


class ExponentRangeError(LiecharError, ValueError):
    """A monomial exponent is negative or above 2^31 - 1, the largest one
    a packed polynomial key can hold."""


class BudgetError(LiecharError, RuntimeError):
    """A tensor product was refused because its Klimyk sum is too large.

    Carries the offending pair, the cost (the number of distinct weights of
    the smaller factor, an upper bound on the weights the sum visits) and
    the budget it exceeds.
    """

    def __init__(self, message, pair=None, cost=None, budget=None):
        super().__init__(message)
        self.pair = pair
        self.cost = cost
        self.budget = budget


class ParseError(LiecharError, ValueError):
    """Syntax error in polynomial or fixture text, with the character
    offset (a ``str`` index) where it was found."""

    def __init__(self, message, offset):
        super().__init__(message, offset)
        self.offset = offset

    def __str__(self):
        return f"{self.args[0]} (at offset {self.offset})"


class OperatorIncompleteError(LiecharError, KeyError):
    """An operator application touched a coefficient that is not populated."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair
