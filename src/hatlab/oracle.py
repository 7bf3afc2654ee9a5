"""Exhaustive and counting certificates over the whole strategy space.

For desk-scale instances every table strategy can be enumerated, so claims of
the form "no strategy guarantees k correct guesses" become checkable facts
rather than arguments. Both searches are one branch-and-bound walk over the
strategy space as a tree (one level per play step of ``Instance.steps``, one
branch per table for that asking): find the first strategy, in enumeration
order, whose guaranteed correct count is above a *floor*. The best-guaranteed
search starts the floor at -1 and raises it to each leaf that beats it,
walking on to the end; the existence search fixes the floor just below what
the rule needs and stops at the first leaf above it. A branch is pruned once
some assignment already has so many players wrong that no completion can get
more than the floor right. The search always prunes: pruning changes only the
work done (``strategies_examined`` and ``pruned``), never a verdict or a
witness, and the suite checks this against an unpruned walk that tries every
table and against a sweep of every table strategy.

The walk works on the assignment space transposed: every set of assignments
is one Python int used as a bitset, so a table's effect on all assignments is
an OR of one precomputed set per table entry, and the prune test is one AND.
Where the floor leaves a node no slack, the tables that survive it are the
product of a set of safe guesses per entry (the forward checking of Haralick
and Elliott), so only those are enumerated and each run of pruned tables
between two of them is counted in one step. Nor is the last level visited
leaf by leaf: a leaf changes the guaranteed count by at most one, and which
leaves keep it is a product of per-entry choices, so the whole level is
settled by arithmetic. Nor is every first-level subtree walked: renaming one
player's colors, in its hats, in what others see of them and in its guesses,
maps every strategy to one with the same worst case, and the subtree under a
first-step table onto the subtree under the table's image. Once the subtree
under one table is finished with the floor unchanged, the subtree under each
table a renaming maps onto it is not walked again: its counts are reused. The
walk still counts every table it settles, prunes or reuses and charges every
one to the budget, so its verdicts, witnesses, counts and budget errors are
those of a walk that plays each table against each assignment; the suite
checks that against such a walk.

Budgets are hard limits: a search that would outgrow them raises instead of
returning an answer computed from a partial walk.
"""

from __future__ import annotations

from functools import reduce
from itertools import count, dropwhile, product
from operator import getitem, or_
from typing import TYPE_CHECKING

from .engine import Strategy, _hat_sets, _play_chunks, _rank, evaluate
from .errors import BudgetExceeded, check_budget, check_positive
from .model import Instance, _Record, instance_to_json

if TYPE_CHECKING:
    from .tables import TableStrategy


class SearchBudget(_Record):
    """Hard limits for strategy-space searches.

    ``max_strategies`` caps the number of table strategies the space may
    contain; ``max_assignments`` caps the total (strategy-prefix, assignment)
    play steps the walk may take.
    """

    max_strategies: int = 10**7
    max_assignments: int = 10**8

    def __post_init__(self):
        check_positive(self.max_strategies)
        check_positive(self.max_assignments)


DEFAULT_BUDGET = SearchBudget()


class SearchVerdict(_Record):
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
# One decision table per play step of ``Instance.steps``, in its canonical
# play order, so that a prefix of chosen tables already fixes the guesses at
# all its askings. A step ``(t, player, seen, heard)`` has a table of
# ``c ** (len(seen) + len(heard))`` entries, lexicographic over the seen
# colors and then the heard guesses.

def _table_size(c: int, step) -> int:
    _, _, seen, heard = step
    return c ** (len(seen) + len(heard))


def _entry_count(inst: Instance) -> int:
    """The table entries of all play steps: the space holds ``c`` to this power."""
    c = inst.colors.size
    return sum(_table_size(c, step) for step in inst.steps)


def count_table_strategies(inst: Instance) -> int:
    """Exact size of the table-strategy space (may be astronomically large)."""
    return inst.colors.size ** _entry_count(inst)


def enumerate_table_strategies(inst: Instance, max_strategies: int | None = None):
    """All table strategies, lazily, in a fixed lexicographic order.

    The order ranges over askings in play order with the first asking's table
    most significant, and each table lexicographic over its input patterns.
    Raises :class:`BudgetExceeded` (carrying the exact count) before yielding
    anything if the space is too large.
    """
    c = inst.colors.size
    cap = DEFAULT_BUDGET.max_strategies if max_strategies is None else max_strategies
    check_positive(cap)  # before the play order, which may raise CyclicHearing
    check_budget(c, _entry_count(inst), cap, BudgetExceeded)
    per_step = [product(range(c), repeat=_table_size(c, step)) for step in inst.steps]
    return (_strategy(inst, combo) for combo in product(*per_step))


def _strategy(inst: Instance, tables) -> TableStrategy | None:
    """The table strategy of ``tables``, one per play step, or ``None`` for ``None``.
    The table module is imported here, so a search that finds no witness never loads it."""
    if tables is None:
        return None
    from .tables import from_steps

    return from_steps(inst, tables)


# --- branch-and-bound walk ---------------------------------------------------

_TAIL = 1 << 12  # most ORs _lex_ors builds ahead as one list


def _lex_ors(rows):
    """``OR(rows[i][t[i]])`` for every table ``t`` in lexicographic order.

    The trailing entries are combined eagerly into one list of at most
    ``_TAIL`` ints; the leading ones are walked lazily, so a huge table space
    costs space only for what the walk reaches before its budget stops it.
    """
    tail, j = [0], len(rows)
    while j and len(tail) * len(rows[j - 1]) <= _TAIL:
        j -= 1
        tail = [m | t for m in rows[j] for t in tail]
    if not j:
        return tail
    return (h | t for picks in product(*rows[:j]) for h in [reduce(or_, picks)] for t in tail)


def _survivors(rows, at_top: int, c: int, start: int):
    """``(rank, table, new)`` from rank ``start`` on for each table whose new
    wrong set, ``new = OR(rows[i][table[i]])``, misses ``at_top``: the product
    of each entry's safe guesses ``g``, those with ``rows[i][g] & at_top == 0``."""
    safe = [[g for g, r in enumerate(row) if not r & at_top] for row in rows]
    tables = product(*safe)
    if start:
        tables = dropwhile(lambda t: _rank(t, c) < start, tables)
    return ((_rank(t, c), t, reduce(or_, map(getitem, rows, t))) for t in tables)


def _relabellings(c: int, seen: list, me: int) -> list:
    """The rank of a first-step table's image under each adjacent
    transposition of one player's colors, as weights: the image of table
    ``T`` ranks ``sum(w[i][T[i]])``. The step's player ``me`` sees the
    players ``seen`` (by index); the image guesses at the transposed pattern
    of entry ``i`` what ``T`` guesses at ``i``, transposed too if the player
    is ``me``. A player neither seen nor ``me`` maps every table to itself
    and has no weights."""
    moves = []
    patterns = list(product(range(c), repeat=len(seen)))
    for q in sorted({*seen, me}):
        for j in range(c - 1):
            swap = [*range(j), j + 1, j, *range(j + 2, c)]
            guess = swap if q == me else range(c)
            moves.append([[guess[g] * c ** (len(patterns) - 1 - _rank(image, c)) for g in range(c)]
                          for pattern in patterns
                          for image in [[swap[d] if x == q else d for x, d in zip(seen, pattern)]]])
    return moves


def _walk(inst: Instance, budget: SearchBudget, floor, first: bool):
    """Find the first strategy, in enumeration order, whose guaranteed correct
    count is above ``floor``; return ``(floor, tables, examined, pruned)``.

    The walk descends one play step per level and tries that step's tables in
    lexicographic order. Its state is held as bitsets over the assignments
    (bit ``a`` for the ``a``-th assignment in lexicographic order): per player,
    the assignments where that player is already wrong, and the thresholds
    ``S[k]``, the assignments with at least ``k`` players wrong, for ``k`` up
    to ``top``, the most players wrong anywhere; ``asked - top`` is the most
    any completion of the prefix can guarantee. A node splits the
    assignments into its table entries: by the seen colors, then by the
    guesses the tables chosen above it make at each heard step. Entry ``i``
    with guess ``g`` newly makes the player wrong on ``entry_i & hat != g``
    minus where the player is wrong already, so a table's new wrong set is the
    OR of one such set per entry. A table is pruned when ``asked - top' <=
    floor`` after it: nothing under it can beat the floor. A node with slack,
    ``asked - floor > top + 1``, prunes nothing and tries each table. A tight
    node, ``asked - floor == top + 1`` from the start or once the floor rises,
    keeps exactly the product of each entry's safe guesses, those whose sets
    miss ``S[top]``: only they are enumerated, and each pruned run between
    them is counted and charged in one step, as is the rest of a node once
    ``asked - floor <= top``. Pruning is always on; the tests keep the walk
    that tries every table, unpruned, as the reference its verdicts and
    witnesses must equal.

    The last level is settled without visiting its leaves. A leaf adds one
    player, so its score is ``asked - top`` unless some entry's guess makes the
    player wrong on an assignment at ``top``, and then one less. The leaves
    that keep ``asked - top`` are the product of a set of good guesses per
    entry: every color if the entry reads no assignment at ``top``, else only
    the hat those assignments share, if they share one. So the first leaf
    above the floor and the count examined follow by arithmetic, and so does
    the table at which the budget runs out.

    With three or more play steps, first-level subtrees are reused. A color
    renaming maps the state under a first-step table T (the wrong sets, every
    ``S[k]``, the heard partitions) onto the state under its image, and every
    prune test, tight-node survivor count and settled leaf count with it. So a
    subtree walked with the floor unchanged throughout holds no leaf above the
    floor, and the subtree under any table it is the image of has the same
    counts at that floor. ``memo`` keeps, per first-step table whose subtree
    ended so, the floor and the tables charged, examined and pruned under it:
    at most one entry per first-step table. Before descending under T, the
    walk ranks T's image under each adjacent transposition of one player's
    colors (``_relabellings``); if one ranks before T and has an entry at the
    current floor, T's subtree is not walked but charged in one step, which
    runs out of budget where walking it would, its counts are added, and the
    entry is recorded for T too. With two steps a subtree is one settle, no
    dearer than ranking the images.

    A leaf above the floor becomes the witness and the floor rises to its
    count. With ``first`` the walk stops there; otherwise it goes on, so the
    final floor is the optimum and ``tables`` its first attainer (``None`` if
    no leaf beat the starting floor).
    """
    c = inst.colors.size
    check_budget(c, _entry_count(inst), budget.max_strategies, BudgetExceeded)
    steps = inst.steps
    index = inst.player_index
    n = len(inst.players)
    asked = len(inst.asked)
    if not steps:  # the empty strategy is the only leaf, and nobody is wrong
        return (asked, (), 1, 0) if asked > floor else (floor, None, 1, 0)
    check_budget(c, n, budget.max_assignments, BudgetExceeded, "play steps")  # the first table already passes the cap
    n_a = c ** n
    full = (1 << n_a) - 1
    strides = [c ** (n - 1 - p) for p in range(n)]
    hats = _hat_sets(c, n)  # hats[p][g]: the assignments where player p wears g
    depth_of = {t: d for d, (t, _, _, _) in enumerate(steps)}
    heard_later = {depth_of[x] for _, _, _, heard in steps for x in heard}
    levels = []
    for d, (_, player, seen, heard) in enumerate(steps):
        # the assignments behind each seen-color pattern (none is empty)
        cells = reduce(lambda cut, x: [e & s for e in cut for s in hats[index[x]]], seen, [full])
        me = index[player]
        levels.append((cells, me, [full ^ h for h in hats[me]],
                       tuple(depth_of[x] for x in heard), d in heard_later))
    last = len(steps) - 1
    last_size = _table_size(c, steps[last])
    last_cells, last_me, last_not_hat, last_heard, _ = levels[last]
    wrong = [0] * n  # per player, the assignments where it is already wrong
    guessed: list = [None] * len(steps)  # per depth, where its chosen table guesses g
    chosen: list = []
    witness = None
    # each table tried, settled or pruned plays all n_a assignments: count tables
    tables_done = examined = pruned = 0
    limit = budget.max_assignments // n_a

    def entries(depth: int) -> list:
        """The assignments behind each table entry of the node at ``depth``."""
        cells, _, _, heard, _ = levels[depth]
        for d in heard:
            cells = [e & s for e in cells for s in guessed[d]]
        return cells

    def charge(tables: int, settled: int = 0, cut: int = 0) -> None:
        """Count the next ``tables`` tables, ``settled`` of them examined and
        ``cut`` pruned, raising at the first one past ``limit`` as trying them
        one at a time would."""
        nonlocal tables_done, examined, pruned
        tables_done += tables
        examined += settled
        pruned += cut
        if tables_done > limit:
            raise BudgetExceeded((limit + 1) * n_a, budget.max_assignments, "play steps")

    def settle(top: int, at_top: int) -> bool:
        """Every leaf under a last-step node, by arithmetic; ``at_top`` is
        ``S[top]`` after the tables chosen so far."""
        nonlocal floor, witness
        hi = asked - top
        rank = None  # of the first leaf scoring ``hi``, if any does
        if hi > floor:
            at_top &= ~wrong[last_me]
            stride = strides[last_me]
            rank = 0
            for e in entries(last) if last_heard else last_cells:
                y = e & at_top
                if y:  # only the hat these assignments share keeps them right
                    g = ((y & -y).bit_length() - 1) // stride % c
                    if y & last_not_hat[g]:
                        rank = None
                        break
                    rank = rank * c + g
                else:
                    rank *= c
        beats = ()  # (rank, count) of each leaf that raises the floor, in order
        if hi - 1 > floor:
            beats = ((0, hi if rank == 0 else hi - 1),)
        if rank is not None and not (rank == 0 and beats):
            beats += ((rank, hi),)
        end = beats[0][0] if first and beats else c ** last_size - 1
        charge(end + 1, settled=end + 1)
        if beats:
            rank, floor = beats[0] if first else beats[-1]
            witness = (*chosen, tuple(rank // c ** k % c for k in reversed(range(last_size))))
        return first and bool(beats)

    def tight(rows: list, at_top: int, top: int, start: int):
        """``(rank, table, new)`` for each surviving table of a tight node, from
        rank ``start`` on; the pruned runs are counted and charged here."""
        for rank, table, new in _survivors(rows, at_top, c, start):
            if asked - floor <= top:  # the floor rose: the rest is pruned
                break
            charge(rank - start, cut=rank - start)
            yield rank, table, new
            start = rank + 1
        rest = c ** len(rows) - start
        charge(rest, cut=rest)

    moves = _relabellings(c, [index[x] for x in steps[0][2]], levels[0][1]) if last > 1 else ()
    memo: dict = {}  # first-step rank -> (floor, tables, examined, pruned) under it

    def reuse(tables):
        """The first-step ``tables`` whose subtree must be walked; each of the
        others is charged and counted from the entry of an image of it. The
        tables come in rank order, so every entry is of a table before it."""
        for rank, table, new in tables:
            entry = next((e for w in moves for e in [memo.get(sum(map(getitem, w, table)))]
                          if e and e[0] == floor), None)
            if entry:
                charge(*entry[1:])
            else:
                before = (floor, tables_done, examined, pruned)
                yield rank, table, new
                if floor != before[0]:  # the floor rose under the table
                    continue
                entry = (floor, tables_done - before[1], examined - before[2], pruned - before[3])
            memo[rank] = entry

    def walk(depth: int, S: list, start: int = 0) -> bool:
        nonlocal tables_done
        cells = entries(depth)
        _, me, not_hat, _, shared = levels[depth]
        top = len(S) - 1
        fresh = ~wrong[me]
        rows = [[e & fresh & m for m in not_hat] for e in cells]
        deeper = depth + 1 < last
        slack = asked - floor > top + 1  # no table can be pruned, until the floor rises
        tables = (zip(count(), product(range(c), repeat=len(cells)), _lex_ors(rows)) if slack
                  else tight(rows, S[top], top, start))
        if moves and not depth:
            tables = reuse(tables)
        for rank, table, new in tables:
            tables_done += 1  # charge(1), inline: a call per table would slow nodes with slack
            if tables_done > limit:
                raise BudgetExceeded((limit + 1) * n_a, budget.max_assignments, "play steps")
            hit = S[top] & new
            if shared:
                split = [0] * c
                for e, g in zip(cells, table):
                    split[g] |= e
                guessed[depth] = split
            before = wrong[me]
            wrong[me] = before | new
            chosen.append(table)
            if deeper:
                below = [full] + [S[k] | S[k - 1] & new for k in range(1, top + 1)]
                if hit:
                    below.append(hit)
                done = walk(depth + 1, below)
            elif hit:
                done = settle(top + 1, hit)
            else:
                done = settle(top, S[top] | S[top - 1] & new if top else full)
            if done:
                return True
            chosen.pop()
            wrong[me] = before
            if slack and asked - floor <= top + 1:  # the floor rose: go on tight
                return walk(depth, S, rank + 1)
        return False

    if last:
        walk(0, [full])
    else:
        settle(0, full)
    return floor, witness, examined, pruned


def best_guaranteed_correct(inst: Instance, budget: SearchBudget | None = None) -> SearchVerdict:
    """Largest k such that some strategy gets >= k correct on every assignment.

    Walks the whole table-strategy space from floor -1; the witness is the
    first strategy (in enumeration order) attaining the maximum. The verdict's
    ``exists_winning`` applies the instance's rule to the guaranteed counts:
    on any instance, correct and incorrect counts sum to the number of asked
    players, so the guaranteed-correct optimum settles both rule kinds.
    """
    best, tables, examined, pruned = _walk(inst, budget or DEFAULT_BUDGET, -1, False)
    return SearchVerdict(
        exists_winning=bool(evaluate(inst.rule, best, len(inst.asked) - best)),
        witness=_strategy(inst, tables),
        best_guaranteed=best,
        strategies_examined=examined,
        pruned=pruned,
    )


def exists_winning_exhaustive(inst: Instance, budget: SearchBudget | None = None) -> SearchVerdict:
    """Is any table strategy winning for the instance's rule?

    A strategy wins when its guaranteed correct count reaches ``need``: the
    least ``k`` that ``evaluate`` accepts with ``asked - k`` wrong, or
    ``asked + 1`` (out of reach) when there is none. The walk runs with the
    floor fixed at ``need - 1`` and stops at the first winner in enumeration
    order (reported as the witness); a negative verdict means the entire space
    was covered.
    """
    asked = len(inst.asked)
    need = next((k for k in range(asked + 1) if evaluate(inst.rule, k, asked - k)), asked + 1)
    _, tables, examined, pruned = _walk(inst, budget or DEFAULT_BUDGET, need - 1, True)
    return SearchVerdict(
        exists_winning=tables is not None,
        witness=_strategy(inst, tables),
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
    total = 0
    for chunk in _play_chunks(inst, strat, max_assignments):
        total += sum(chunk.colors**chunk.width - wrong.bit_count() for wrong in chunk.wrong.values())
    return total
