"""Exception types shared across the package."""


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
    the smaller factor that the sum would visit) and the budget it exceeds.
    """

    def __init__(self, message, pair=None, cost=None, budget=None):
        super().__init__(message)
        self.pair = pair
        self.cost = cost
        self.budget = budget


class ParseError(LiecharError, ValueError):
    """Syntax error in polynomial or fixture text, with a byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class OperatorIncompleteError(LiecharError, KeyError):
    """An operator application touched a coefficient that is not populated."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair
