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


class SweepTooLarge(HatlabError):
    """An assignment sweep would exceed its budget; no partial verdicts."""

    def __init__(self, required, budget):
        self.required = required
        self.budget = budget
        super().__init__(f"sweep needs {required} assignment plays, budget is {budget}")


class BudgetExceeded(HatlabError):
    """A strategy-space search would exceed its budget; no partial verdicts."""

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
