"""Exception types shared across the package."""

from __future__ import annotations


class HatlabError(Exception):
    """Base class for all package-specific failures."""


class ZeroSize(HatlabError, ValueError):
    """A player count or color count was zero (or negative)."""


class CyclicHearing(HatlabError):
    """The hearing relation contains a cycle, so no play order exists."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(f"hearing relation has a cycle: {list(self.cycle)}")


class StrategyRangeError(HatlabError, ValueError):
    """A strategy returned a value outside the instance's color range."""


class MissingTableEntry(HatlabError, LookupError):
    """A table strategy has no entry for an observation the play presents."""


COUNT_DIGITS = 640
"""Budget errors print a count of at most this many decimal digits as an int
and a larger one as a power. 640 is the lowest limit on printing an int that
Python accepts (``sys.int_info.str_digits_check_threshold``), so every count
printed as an int prints under any limit."""


def power_over(base: int, exponent: int, budget: int) -> bool:
    """Whether ``base ** exponent`` exceeds ``budget``; the power is multiplied
    out only when the exponent is below the budget's bit length or ``base < 2``."""
    return base > 1 and exponent >= budget.bit_length() or base**exponent > budget


def power_count(base: int, exponent: int) -> int | str:
    """``base ** exponent`` as a budget error carries it: the int when it has at
    most :data:`COUNT_DIGITS` digits, else the exact text ``"base**exponent"``
    (with the exponent in hex if it is itself too long to print in decimal)."""
    if base < 2 or exponent * (base.bit_length() - 1) <= 4 * COUNT_DIGITS:  # cheap to multiply out
        count = base**exponent
        if count < 10**COUNT_DIGITS:
            return count
    return f"{base}**{exponent if exponent < 10**COUNT_DIGITS else hex(exponent)}"


def check_positive(budget) -> None:
    """A ``ValueError`` naming ``budget`` unless it is an int (a bool is not),
    and ``"budgets must be positive"`` if it is below 1."""
    if not isinstance(budget, int) or isinstance(budget, bool):
        raise ValueError(f"budgets must be integers, got {budget!r}")
    if budget < 1:
        raise ValueError("budgets must be positive")


def check_budget(base: int, exponent: int, budget: int, error: type, *what) -> None:
    """The one budget rule: :func:`check_positive`, then
    ``error(count, budget, *what)`` if ``base ** exponent`` exceeds ``budget``,
    with ``count`` as :func:`power_count` gives it."""
    check_positive(budget)
    if power_over(base, exponent, budget):
        raise error(power_count(base, exponent), budget, *what)


class SweepTooLarge(HatlabError):
    """An assignment sweep would exceed its budget; no partial verdicts.

    ``required`` is the exact size of the assignment space, as
    :func:`power_count` gives it: an int, or the text of a power.
    """

    def __init__(self, required, budget):
        self.required = required
        self.budget = budget
        super().__init__(f"sweep needs {required} assignment plays, budget is {budget}")


class BudgetExceeded(HatlabError):
    """A strategy-space search would exceed its budget; no partial verdicts.

    ``required`` is the exact count, an int or, for a strategy space or an
    assignment space, possibly the text of a power (see :func:`power_count`).
    """

    def __init__(self, required, budget, what="table strategies"):
        self.required = required
        self.budget = budget
        super().__init__(f"search needs {required} {what}, budget is {budget}")


class OverlapError(HatlabError, ValueError):
    """Combination parts claim overlapping asking sets."""


class CoverageError(HatlabError, ValueError):
    """Combination parts do not cover the target's asking set."""


class BlockSizeMismatch(HatlabError, ValueError):
    """A block strategy was given a block whose size is not the color count."""


class TooManyBlocks(HatlabError, ValueError):
    """More disjoint blocks were requested than the players can supply."""


class NeedsTwoColors(HatlabError, ValueError):
    """The adversary construction requires at least two colors."""


class NotHBSF(HatlabError, ValueError):
    """The broadcast strategy was run without the hear-backward structure."""


class ShapeMismatch(HatlabError, ValueError):
    """A symbolic line computation received data outside its line shape."""
