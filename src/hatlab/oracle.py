"""Exhaustive and counting certificates over the whole strategy space.

For desk-scale instances every table strategy can be enumerated, so claims of
the form "no strategy guarantees k correct guesses" become checkable facts
rather than arguments. The search walks the strategy space as a tree (one
level per asking, one branch per table for that asking) and prunes a branch
as soon as some assignment already caps what the completed strategies below
it could guarantee. Pruning never changes a verdict, only the work done; the
suite checks this by comparing against the unpruned walk.

Budgets are hard limits: a search that would outgrow them raises instead of
returning an answer computed from a partial walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .engine import (
    TableStrategy,
    Strategy,
    _check_sweep_budget,
    _play_chunks,
    evaluate,
    iter_assignment_tuples,
    topological_extension,
)
from .errors import BudgetExceeded
from .model import Instance, RuleKind


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
        from .model import instance_to_json

        return {
            "instance": instance_to_json(inst),
            "best_guaranteed": self.best_guaranteed,
            "exists_winning": self.exists_winning,
            "witness_table": self.witness.to_json() if self.witness else None,
            "strategies_examined": self.strategies_examined,
            "pruned": self.pruned,
        }


# --- the strategy space -----------------------------------------------------

@dataclass(frozen=True)
class _Slot:
    """One asking's decision table shape: who is asked, what it observes."""

    t: int
    player: int
    vis: tuple[int, ...]
    hrd: tuple[int, ...]
    patterns: tuple  # ((seen pairs), (heard pairs)) per table input, lexicographic


@lru_cache(maxsize=64)
def _slots(inst: Instance) -> tuple[_Slot, ...]:
    # Slot order follows the canonical play order so that a prefix of chosen
    # tables already determines the guesses at all its askings. On canonical
    # instances this is simply asking order.
    c = inst.colors.size
    out = []
    for t in topological_extension(inst):
        player = inst.label_of(t)
        vis = inst.seen_by(player)
        hrd = inst.heard_at(t)
        patterns = tuple(
            (tuple(zip(vis, av)), tuple(zip(hrd, gv)))
            for av in product(range(c), repeat=len(vis))
            for gv in product(range(c), repeat=len(hrd))
        )
        out.append(_Slot(t, player, vis, hrd, patterns))
    return tuple(out)


def count_table_strategies(inst: Instance) -> int:
    """Exact size of the table-strategy space (may be astronomically large)."""
    c = inst.colors.size
    total = 1
    for slot in _slots(inst):
        total *= c ** len(slot.patterns)
    return total


def enumerate_table_strategies(inst: Instance, max_strategies: int | None = None):
    """All table strategies, lazily, in a fixed lexicographic order.

    The order ranges over askings in play order with the first asking's table
    most significant, and each table lexicographic over its input patterns.
    Raises :class:`BudgetExceeded` (carrying the exact count) before yielding
    anything if the space is too large.
    """
    cap = DEFAULT_BUDGET.max_strategies if max_strategies is None else max_strategies
    total = count_table_strategies(inst)
    if total > cap:
        raise BudgetExceeded(total, cap)
    slots = _slots(inst)
    c = inst.colors.size

    def gen():
        per_slot = [product(range(c), repeat=len(slot.patterns)) for slot in slots]
        for combo in product(*per_slot):
            yield _materialize(slots, combo)

    return gen()


def _materialize(slots, tables) -> TableStrategy:
    entries = {}
    for slot, table in zip(slots, tables):
        for idx, (seen_key, heard_key) in enumerate(slot.patterns):
            entries[(slot.t, seen_key, heard_key)] = table[idx]
    return TableStrategy(entries)


# --- branch-and-bound walk ---------------------------------------------------

class _Search:
    """Shared state for one walk over the strategy tree.

    Per assignment it tracks the guesses made so far (needed to resolve
    heard-guess patterns deeper in the tree) and a bitmask of players already
    guaranteed wrong; `asked - wrong` is then the best correct count any
    completion of the current prefix can still reach on that assignment.
    """

    def __init__(self, inst: Instance, budget: SearchBudget, prune: bool):
        self.inst = inst
        self.budget = budget
        self.prune = prune
        self.slots = _slots(inst)
        self.c = inst.colors.size
        total = count_table_strategies(inst)
        if total > budget.max_strategies:
            raise BudgetExceeded(total, budget.max_strategies)
        self.total = total

        self.assignments = [dict(zip(inst.players, v)) for v in iter_assignment_tuples(inst)]
        self.n_a = len(self.assignments)
        bit = {m: 1 << i for i, m in enumerate(inst.players)}
        self.asked_total = len({slot.player for slot in self.slots})

        slot_pos = {slot.t: d for d, slot in enumerate(self.slots)}
        # Static per (slot, assignment): the seen-pattern part of the table
        # index, the wrong-guess bit, and the color a correct guess must hit.
        self.alpha_base: list[list[int]] = []
        self.targets: list[list[int]] = []
        self.bits: list[int] = []
        self.heard_pos: list[tuple[int, ...]] = []
        for slot in self.slots:
            gamma_span = self.c ** len(slot.hrd)
            bases, targets = [], []
            for a in self.assignments:
                idx = 0
                for x in slot.vis:
                    idx = idx * self.c + a[x]
                bases.append(idx * gamma_span)
                targets.append(a[slot.player])
            self.alpha_base.append(bases)
            self.targets.append(targets)
            self.bits.append(bit[slot.player])
            self.heard_pos.append(tuple(slot_pos[x] for x in slot.hrd))

        self.guesses = [[0] * len(self.slots) for _ in range(self.n_a)]
        self.evaluations = 0
        self.examined = 0
        self.pruned = 0

    def spend(self, steps: int):
        self.evaluations += steps
        if self.evaluations > self.budget.max_assignments:
            raise BudgetExceeded(self.evaluations, self.budget.max_assignments, "play steps")

    def pattern_indices(self, depth: int) -> list[int]:
        """Table index per assignment at this depth, under the current prefix."""
        bases = self.alpha_base[depth]
        hpos = self.heard_pos[depth]
        c = self.c
        guesses = self.guesses
        out = []
        for ai in range(self.n_a):
            idx = 0
            row = guesses[ai]
            for p in hpos:
                idx = idx * c + row[p]
            out.append(bases[ai] + idx)
        return out

    def tables_at(self, depth: int):
        return product(range(self.c), repeat=len(self.slots[depth].patterns))


def best_guaranteed_correct(
    inst: Instance,
    budget: SearchBudget | None = None,
    prune: bool = True,
) -> SearchVerdict:
    """Largest k such that some strategy gets >= k correct on every assignment.

    Walks the whole table-strategy space; the witness is the first strategy
    (in enumeration order) attaining the maximum. The verdict's
    ``exists_winning`` applies the instance's rule to the guaranteed counts:
    on any instance, correct and incorrect counts sum to the number of asked
    players, so the guaranteed-correct optimum settles both rule kinds.
    """
    search = _Search(inst, budget or DEFAULT_BUDGET, prune)
    best = -1
    witness_tables = None
    depth_count = len(search.slots)

    def walk(depth: int, wrong: list[int], chosen: list):
        nonlocal best, witness_tables
        if depth == depth_count:
            search.examined += 1
            low = min(search.asked_total - w.bit_count() for w in wrong)
            if low > best:
                best = low
                witness_tables = tuple(chosen)
            return
        indices = search.pattern_indices(depth)
        targets = search.targets[depth]
        bit = search.bits[depth]
        guesses = search.guesses
        for table in search.tables_at(depth):
            search.spend(search.n_a)
            new_wrong = []
            for ai in range(search.n_a):
                g = table[indices[ai]]
                guesses[ai][depth] = g
                new_wrong.append(wrong[ai] | (bit if g != targets[ai] else 0))
            if search.prune and depth + 1 < depth_count:
                bound = min(search.asked_total - w.bit_count() for w in new_wrong)
                if bound <= best:
                    search.pruned += 1
                    continue
            chosen.append(table)
            walk(depth + 1, new_wrong, chosen)
            chosen.pop()

    walk(0, [0] * search.n_a, [])
    witness = _materialize(search.slots, witness_tables) if witness_tables else None
    exists = bool(evaluate(inst.rule, best, search.asked_total - best))
    return SearchVerdict(
        exists_winning=exists,
        witness=witness,
        best_guaranteed=best,
        strategies_examined=search.examined,
        pruned=search.pruned,
    )


def exists_winning_exhaustive(
    inst: Instance,
    budget: SearchBudget | None = None,
    prune: bool = True,
) -> SearchVerdict:
    """Is any table strategy winning for the instance's rule?

    Stops at the first winner in enumeration order (reported as the witness);
    a negative verdict means the entire space was covered. A branch is pruned
    once some assignment already breaks the rule no matter how the remaining
    tables are filled in.
    """
    search = _Search(inst, budget or DEFAULT_BUDGET, prune)
    rule = inst.rule
    at_least_kind = rule.kind is RuleKind.AT_LEAST_CORRECT
    asked = search.asked_total
    depth_count = len(search.slots)
    witness_tables = None

    def doomed(wrong: list[int]) -> bool:
        # Optimistic completion: every undecided guess comes out correct.
        for w in wrong:
            k = w.bit_count()
            if at_least_kind:
                if asked - k < rule.threshold:
                    return True
            elif k >= rule.threshold:
                return True
        return False

    def walk(depth: int, wrong: list[int], chosen: list) -> bool:
        nonlocal witness_tables
        if depth == depth_count:
            search.examined += 1
            ok = all(
                evaluate(rule, asked - w.bit_count(), w.bit_count()) for w in wrong
            )
            if ok:
                witness_tables = tuple(chosen)
            return ok
        indices = search.pattern_indices(depth)
        targets = search.targets[depth]
        bit = search.bits[depth]
        guesses = search.guesses
        for table in search.tables_at(depth):
            search.spend(search.n_a)
            new_wrong = []
            for ai in range(search.n_a):
                g = table[indices[ai]]
                guesses[ai][depth] = g
                new_wrong.append(wrong[ai] | (bit if g != targets[ai] else 0))
            if search.prune and depth + 1 < depth_count and doomed(new_wrong):
                search.pruned += 1
                continue
            chosen.append(table)
            if walk(depth + 1, new_wrong, chosen):
                return True
            chosen.pop()
        return False

    found = walk(0, [0] * search.n_a, [])
    witness = _materialize(search.slots, witness_tables) if found else None
    return SearchVerdict(
        exists_winning=found,
        witness=witness,
        best_guaranteed=None,
        strategies_examined=search.examined,
        pruned=search.pruned,
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
