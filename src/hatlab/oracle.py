"""Exhaustive and counting certificates over the whole strategy space.

For desk-scale instances every table strategy can be enumerated, so claims of
the form "no strategy guarantees k correct guesses" become checkable facts
rather than arguments. Both searches are one branch-and-bound walk over the
strategy space as a tree (one level per play step, one branch per table for
that asking): find the first strategy, in enumeration order, whose guaranteed
correct count is above a *floor*. The best-guaranteed search starts the floor
at -1 and raises it to each leaf that beats it, walking on to the end; the
existence search fixes the floor just below what the rule needs and stops at
the first leaf above it. A branch is pruned once some assignment already has
so many players wrong that no completion can get more than the floor right.
Pruning never changes a verdict, only the work done; the suite checks this by
comparing against the unpruned walk.

Budgets are hard limits: a search that would outgrow them raises instead of
returning an answer computed from a partial walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .engine import (
    TableStrategy,
    Strategy,
    _check_sweep_budget,
    _compiled,
    _play_chunks,
    evaluate,
    iter_assignment_tuples,
)
from .errors import BudgetExceeded
from .model import Instance, instance_to_json


@dataclass(frozen=True)
class SearchBudget:
    """Hard limits for strategy-space searches.

    ``max_strategies`` caps the number of table strategies the space may
    contain; ``max_assignments`` caps the total (strategy-prefix, assignment)
    play steps the walk may take.
    """

    max_strategies: int = 10**7
    max_assignments: int = 10**8

    def __post_init__(self):
        if self.max_strategies < 1 or self.max_assignments < 1:
            raise ValueError("budgets must be positive")


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class SearchVerdict:
    """Outcome of a strategy-space search."""

    exists_winning: bool
    witness: TableStrategy | None
    best_guaranteed: int | None
    strategies_examined: int
    pruned: int = 0

    def to_json(self, inst: Instance) -> dict:
        return {
            "instance": instance_to_json(inst),
            "best_guaranteed": self.best_guaranteed,
            "exists_winning": self.exists_winning,
            "witness_table": self.witness.to_json() if self.witness else None,
            "strategies_examined": self.strategies_examined,
            "pruned": self.pruned,
        }


# --- the strategy space -----------------------------------------------------
#
# One decision table per play step of ``engine._compiled``, in its canonical
# play order, so that a prefix of chosen tables already fixes the guesses at
# all its askings. A step ``(t, player, seen, heard)`` has a table of
# ``c ** (len(seen) + len(heard))`` entries, lexicographic over the seen
# colors and then the heard guesses.

def _table_size(c: int, step) -> int:
    _, _, seen, heard = step
    return c ** (len(seen) + len(heard))


def count_table_strategies(inst: Instance) -> int:
    """Exact size of the table-strategy space (may be astronomically large)."""
    c = inst.colors.size
    total = 1
    for step in _compiled(inst):
        total *= c ** _table_size(c, step)
    return total


def enumerate_table_strategies(inst: Instance, max_strategies: int | None = None):
    """All table strategies, lazily, in a fixed lexicographic order.

    The order ranges over askings in play order with the first asking's table
    most significant, and each table lexicographic over its input patterns.
    Raises :class:`BudgetExceeded` (carrying the exact count) before yielding
    anything if the space is too large.
    """
    budget = DEFAULT_BUDGET if max_strategies is None else SearchBudget(max_strategies=max_strategies)
    cap = budget.max_strategies
    total = count_table_strategies(inst)
    if total > cap:
        raise BudgetExceeded(total, cap)
    c = inst.colors.size
    steps = _compiled(inst)

    def gen():
        per_step = [product(range(c), repeat=_table_size(c, step)) for step in steps]
        for combo in product(*per_step):
            yield _materialize(inst, combo)

    return gen()


def _materialize(inst: Instance, tables) -> TableStrategy:
    c = inst.colors.size
    entries = {}
    for (t, _, seen, heard), table in zip(_compiled(inst), tables):
        keys = product(product(range(c), repeat=len(seen)), product(range(c), repeat=len(heard)))
        for (av, gv), guess in zip(keys, table):
            entries[(t, tuple(zip(seen, av)), tuple(zip(heard, gv)))] = guess
    return TableStrategy(entries)


# --- branch-and-bound walk ---------------------------------------------------

def _walk(inst: Instance, budget: SearchBudget, prune: bool, floor, first: bool):
    """Find the first strategy, in enumeration order, whose guaranteed correct
    count is above ``floor``; return ``(floor, tables, examined, pruned)``.

    The walk descends one play step per level and tries that step's tables in
    lexicographic order. Per assignment it keeps a bitmask of the players
    already wrong, so ``asked - popcount(wrong)`` is the most any completion
    of the prefix can get right there, and per level the table index it read,
    so a deeper step finds its heard guesses in the tables chosen above it. A
    branch is pruned when ``asked - max(popcount(wrong)) <= floor``: nothing
    under it can beat the floor. A leaf above the floor becomes the witness
    and the floor rises to its count. With ``first`` the walk stops there;
    otherwise it goes on, so the final floor is the optimum and ``tables`` its
    first attainer (``None`` if no leaf beat the starting floor).
    """
    total = count_table_strategies(inst)
    if total > budget.max_strategies:
        raise BudgetExceeded(total, budget.max_strategies)
    steps = _compiled(inst)
    c = inst.colors.size
    index = inst.player_index
    assignments = list(iter_assignment_tuples(inst))
    n_a = len(assignments)
    asked = len(set(inst.labeling))
    depth_of = {t: d for d, (t, _, _, _) in enumerate(steps)}
    # Static per (step, assignment): the seen colors' table index and the
    # color a correct guess must hit; per step, the wrong bit and heard depths.
    levels = []
    for step in steps:
        _, player, seen, heard = step
        seen_idx = [0] * n_a
        for x in seen:
            i = index[x]
            seen_idx = [k * c + a[i] for k, a in zip(seen_idx, assignments)]
        me = index[player]
        levels.append((seen_idx, [a[me] for a in assignments], 1 << me,
                       tuple(depth_of[x] for x in heard), _table_size(c, step)))
    at: list = [None] * len(steps)  # per depth, the table index each assignment read
    chosen: list = []
    witness = None
    spent = examined = pruned = 0
    cap = budget.max_assignments
    depth_count = len(steps)

    def walk(depth: int, wrong: list[int]) -> bool:
        nonlocal floor, witness, spent, examined, pruned
        if depth == depth_count:
            examined += 1
            low = asked - max(map(int.bit_count, wrong))
            if low > floor:
                floor = low
                witness = tuple(chosen)
                return first
            return False
        indices, targets, bit, heard, size = levels[depth]
        for d in heard:
            above = chosen[d]
            indices = [i * c + above[j] for i, j in zip(indices, at[d])]
        at[depth] = indices
        inner = prune and depth + 1 < depth_count
        for table in product(range(c), repeat=size):
            spent += n_a
            if spent > cap:
                raise BudgetExceeded(spent, cap, "play steps")
            new_wrong = [w | bit if table[i] != y else w for w, i, y in zip(wrong, indices, targets)]
            if inner and asked - max(map(int.bit_count, new_wrong)) <= floor:
                pruned += 1
                continue
            chosen.append(table)
            if walk(depth + 1, new_wrong):
                return True
            chosen.pop()
        return False

    walk(0, [0] * n_a)
    return floor, witness, examined, pruned


def best_guaranteed_correct(
    inst: Instance,
    budget: SearchBudget | None = None,
    prune: bool = True,
) -> SearchVerdict:
    """Largest k such that some strategy gets >= k correct on every assignment.

    Walks the whole table-strategy space from floor -1; the witness is the
    first strategy (in enumeration order) attaining the maximum. The verdict's
    ``exists_winning`` applies the instance's rule to the guaranteed counts:
    on any instance, correct and incorrect counts sum to the number of asked
    players, so the guaranteed-correct optimum settles both rule kinds.
    """
    best, tables, examined, pruned = _walk(inst, budget or DEFAULT_BUDGET, prune, -1, False)
    asked = len(set(inst.labeling))
    return SearchVerdict(
        exists_winning=bool(evaluate(inst.rule, best, asked - best)),
        # ``if tables``: an instance with no askings reports no witness here
        witness=_materialize(inst, tables) if tables else None,
        best_guaranteed=best,
        strategies_examined=examined,
        pruned=pruned,
    )


def exists_winning_exhaustive(
    inst: Instance,
    budget: SearchBudget | None = None,
    prune: bool = True,
) -> SearchVerdict:
    """Is any table strategy winning for the instance's rule?

    A strategy wins when its guaranteed correct count reaches ``need``: the
    least ``k`` that ``evaluate`` accepts with ``asked - k`` wrong, or
    ``asked + 1`` (out of reach) when there is none. The walk runs with the
    floor fixed at ``need - 1`` and stops at the first winner in enumeration
    order (reported as the witness); a negative verdict means the entire space
    was covered.
    """
    asked = len(set(inst.labeling))
    need = next((k for k in range(asked + 1) if evaluate(inst.rule, k, asked - k)), asked + 1)
    _, tables, examined, pruned = _walk(inst, budget or DEFAULT_BUDGET, prune, need - 1, True)
    return SearchVerdict(
        exists_winning=tables is not None,
        witness=None if tables is None else _materialize(inst, tables),
        best_guaranteed=None,
        strategies_examined=examined,
        pruned=pruned,
    )


# --- counting certificate ----------------------------------------------------

def correct_count_census(
    inst: Instance,
    strat: Strategy,
    max_assignments: int | None = None,
) -> int:
    """Total correct guesses summed over every assignment.

    On the see-all, hear-nothing family this total is the same for every
    strategy -- players * assignments / colors -- because no guess can depend
    on the guesser's own hat: averaging over assignments, each player is right
    in exactly a 1/colors fraction of them. That invariance is what caps the
    guaranteed-correct count at players/colors, independently of any search.
    """
    _check_sweep_budget(inst, max_assignments)
    total = 0
    for chunk in _play_chunks(inst, strat):
        total += len(chunk.asked) * len(chunk.incorrect) - sum(chunk.incorrect)
    return total
