"""Deterministic play of strategies, outcome evaluation, and assignment sweeps.

Given an instance, a strategy, and an assignment there is exactly one way the
game can go: each asking's guess is forced by the hats the asked player sees
and the guesses it has heard. :func:`run_game` computes that unique play by
walking any linear extension of the hearing relation; which extension is used
does not matter (the test suite asserts this rather than assuming it).
:func:`run_game` and its loop :func:`_play` are the scalar reference.

A strategy is *winning* when the play it induces satisfies the instance's
rule for every assignment; :func:`is_winning` and :func:`sweep` decide this
by exhausting the assignment space, never from a partial scan.

All whole-space work (:func:`sweep`, :func:`is_winning`, :func:`iter_plays`
and the oracle's census) runs on one column kernel, :func:`_play_chunks`. It
cuts the lexicographic assignment space into chunks of at most
:data:`CHUNK_PLAYS` assignments that share their leading colors and run
through every value of the trailing ones. Inside a chunk each player's hat is
a column, one entry per assignment. The kernel walks the canonical play order
once per chunk; at each asking it asks :meth:`Strategy.decide_batch` for the
guess column, given the visible hat columns and the heard guess columns, and
it keeps one wrong-flag column per asked player (a player is wrong when any
of its guesses is). Chunks run in lexicographic order, so the first failing
entry of the first failing chunk is the least counterexample. A chunk that
raises is replayed one assignment at a time through :func:`_play`, so errors,
and the plays that come before them, are those of the scalar loop.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product, repeat
from operator import ne, or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    CoverageError,
    CyclicHearing,
    MissingTableEntry,
    OverlapError,
    StrategyRangeError,
    SweepTooLarge,
)
from .model import (
    Assignment,
    EvaluationRule,
    Instance,
    RuleKind,
    as_assignment,
    find_hearing_cycle,
)

DEFAULT_SWEEP_BUDGET = 10**8
"""Largest assignment space a sweep will exhaust without an explicit budget."""


# --- strategies -------------------------------------------------------------

class Strategy:
    """A deterministic guessing policy.

    ``decide`` receives the asking ``t``, the visible hats ``seen`` (player ->
    color, exactly the hats the asked player may look at) and the heard
    guesses ``heard`` (asking -> color, exactly the guesses replayed to it),
    and returns a color. Implementations must be pure: the same triple always
    yields the same color, and nothing outside the triple may influence it.
    Purity is load-bearing: a sweep may call ``decide`` once per distinct
    observation rather than once per play, and reuse the answer.

    ``decide_batch`` is the column form the sweeps use. ``seen_cols`` maps each
    visible player to a column of hats and ``heard_cols`` each heard asking to
    a column of guesses, all ``n`` long; ``memo`` is a dict that lives for one
    sweep. It returns the guess column, a list of ``n`` colors, and must be
    elementwise equal to ``decide``: entry ``i`` is what ``decide`` returns for
    the ``i``-th entries of the columns. The default calls ``decide`` once per
    distinct observation and keeps the answers in ``memo``; a subclass that
    overrides ``decide`` keeps that default or overrides both.
    """

    label = "strategy"

    def decide(self, t: int, seen: Mapping[int, int], heard: Mapping[int, int]) -> int:
        raise NotImplementedError

    def decide_batch(
        self,
        t: int,
        seen_cols: Mapping[int, list[int]],
        heard_cols: Mapping[int, list[int]],
        n: int,
        memo: dict,
    ) -> list[int]:
        decide = self.decide
        return _memo_column(
            t, seen_cols, heard_cols, n, memo, lambda seen, heard: decide(t, dict(seen), dict(heard))
        )

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


def _memo_column(t, seen_cols, heard_cols, n, memo, guess_of) -> list[int]:
    """The guess column at ``t``, calling ``guess_of(seen_pairs, heard_pairs)``
    once per observation that ``memo`` does not hold yet.

    An asking's answers are dropped once they outnumber a chunk's plays, so
    the memo stays within a few chunks' size however long the sweep runs.
    """
    seen_keys, heard_keys = tuple(seen_cols), tuple(heard_cols)
    split = len(seen_keys)
    rows = list(_rows([*seen_cols.values(), *heard_cols.values()], n))
    known = memo.setdefault(t, {})
    if len(known) > CHUNK_PLAYS:
        known.clear()
    for obs in dict.fromkeys(rows):
        if obs not in known:
            known[obs] = guess_of(tuple(zip(seen_keys, obs[:split])), tuple(zip(heard_keys, obs[split:])))
    return list(map(known.__getitem__, rows))


def _rows(cols: Sequence[list], n: int) -> Iterator[tuple]:
    """The entries of equal-length columns, one tuple per index."""
    return zip(*cols) if cols else repeat((), n)


class RuleStrategy(Strategy):
    """Strategy backed by a plain decision function.

    ``batch``, when given, is the same rule over columns:
    ``batch(t, seen_cols, heard_cols, n)`` returns the guess column (see
    :meth:`Strategy.decide_batch`). Without it sweeps memoize ``fn``.
    """

    def __init__(
        self,
        fn: Callable[[int, Mapping[int, int], Mapping[int, int]], int],
        label: str = "rule",
        batch: Callable[[int, Mapping[int, list[int]], Mapping[int, list[int]], int], list[int]] | None = None,
    ):
        self.fn = fn
        self.label = label
        self.batch = batch

    def decide(self, t, seen, heard):
        return self.fn(t, seen, heard)

    def decide_batch(self, t, seen_cols, heard_cols, n, memo):
        if self.batch is None:
            return super().decide_batch(t, seen_cols, heard_cols, n, memo)
        return self.batch(t, seen_cols, heard_cols, n)


def freeze_observation(mapping: Mapping[int, int]) -> tuple[tuple[int, int], ...]:
    """Canonical hashable form of a seen/heard map."""
    return tuple(sorted(mapping.items()))


class TableStrategy(Strategy):
    """Strategy given extensionally, one entry per (asking, seen, heard) triple.

    Entries are keyed by ``(t, freeze_observation(seen), freeze_observation(heard))``.
    The table must cover every triple the instance can present.
    """

    def __init__(self, entries: Mapping, label: str = "table"):
        self.entries = dict(entries)
        self.label = label

    def decide_batch(self, t, seen_cols, heard_cols, n, memo):
        # Canonical key order, so each observation reads the same entry as ``decide``.
        entries = self.entries
        return _memo_column(
            t, dict(sorted(seen_cols.items())), dict(sorted(heard_cols.items())), n, memo,
            lambda seen, heard: entries[(t, seen, heard)],
        )

    def decide(self, t, seen, heard):
        key = (t, freeze_observation(seen), freeze_observation(heard))
        try:
            return self.entries[key]
        except KeyError:
            raise MissingTableEntry(
                f"table strategy has no entry for asking {t} with seen={dict(seen)} heard={dict(heard)}"
            ) from None

    def __eq__(self, other):
        return isinstance(other, TableStrategy) and self.entries == other.entries

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def to_json(self) -> list:
        rows = []
        for (t, seen, heard), guess in sorted(self.entries.items()):
            rows.append({
                "t": t,
                "seen": [list(p) for p in seen],
                "heard": [list(p) for p in heard],
                "guess": guess,
            })
        return rows

    @staticmethod
    def from_json(rows: Iterable[Mapping]) -> "TableStrategy":
        entries = {}
        for row in rows:
            key = (int(row["t"]), _json_pairs(row["seen"]), _json_pairs(row["heard"]))
            entries[key] = int(row["guess"])
        return TableStrategy(entries)


def _json_pairs(raw) -> tuple[tuple[int, int], ...]:
    """``[id, color]`` pairs from JSON, sorted as :func:`freeze_observation` sorts them."""
    pairs = [(int(a), int(b)) for a, b in raw]
    pairs.sort()
    return tuple(pairs)


# --- play order -------------------------------------------------------------

def topological_extension(inst: Instance, seed: int | None = None) -> tuple[int, ...]:
    """A linear order on askings extending the hearing relation.

    With ``seed=None`` the choice among ready askings is always the least id,
    giving the canonical (lexicographically least) extension; an integer seed
    randomizes the tie-breaks, which is how the suite exercises that play does
    not depend on the extension.
    """
    ready: list[int] = []
    pending: dict[int, int] = {}
    succ: dict[int, list[int]] = {t: [] for t in inst.askings}
    for earlier, later in inst.hearing:
        succ[earlier].append(later)
        pending[later] = pending.get(later, 0) + 1
    for t in sorted(inst.askings):
        if not pending.get(t):
            ready.append(t)
    ready.sort()

    rng = random.Random(seed) if seed is not None else None
    order: list[int] = []
    while ready:
        idx = rng.randrange(len(ready)) if rng is not None else 0
        t = ready.pop(idx)
        order.append(t)
        for nxt in sorted(succ[t]):
            pending[nxt] -= 1
            if pending[nxt] == 0:
                bisect.insort(ready, nxt)
    if len(order) != len(inst.askings):
        raise CyclicHearing(find_hearing_cycle(inst) or ())
    return tuple(order)


def _steps(inst: Instance, order: Sequence[int]) -> tuple[tuple[int, int, tuple[int, ...], tuple[int, ...]], ...]:
    """The play steps ``(t, player, seen, heard)``, one per asking in ``order``."""
    return tuple(
        (t, inst.label_of(t), inst.seen_by(inst.label_of(t)), inst.heard_at(t))
        for t in order
    )


@lru_cache(maxsize=256)
def _compiled(inst: Instance) -> tuple:
    """The play steps in the canonical order, reused across plays of ``inst``."""
    return _steps(inst, topological_extension(inst))


# --- play and scoring -------------------------------------------------------

@dataclass(frozen=True)
class GameResult:
    guesses: Mapping[int, int]
    correct_set: frozenset[int]
    incorrect_set: frozenset[int]
    verdict: bool

    @property
    def correct_count(self) -> int:
        return len(self.correct_set)

    @property
    def incorrect_count(self) -> int:
        return len(self.incorrect_set)


def evaluate(rule: EvaluationRule, correct_count: int, incorrect_count: int) -> bool:
    """Apply a win rule to the guess counts."""
    if rule.kind is RuleKind.AT_LEAST_CORRECT:
        return correct_count >= rule.threshold
    return incorrect_count < rule.threshold


def run_game(
    inst: Instance,
    strat: Strategy,
    assignment: Assignment | Sequence[int],
    order: Sequence[int] | None = None,
) -> GameResult:
    """Play out the unique game of ``strat`` against ``assignment``.

    The strategy at each asking is handed exactly the hats its player may see
    and the guesses replayed to it -- nothing else (players remember nothing
    across askings). ``order`` may supply an alternative linear extension of
    the hearing relation, e.g. from :func:`topological_extension` with a
    seed; the resulting play is the same for every valid order.
    """
    a = as_assignment(inst, assignment)
    if order is None:
        steps = _compiled(inst)
    else:
        steps = _ordered_steps(inst, order)
    guesses, asked, wrong = _play(steps, a, strat.decide, inst.colors.size)
    correct = frozenset(asked - wrong)
    incorrect = frozenset(wrong)
    verdict = evaluate(inst.rule, len(correct), len(incorrect))
    return GameResult(guesses, correct, incorrect, verdict)


def _ordered_steps(inst: Instance, order: Sequence[int]) -> tuple:
    """The play steps in ``order``, which must be a linear extension of the
    hearing relation; checked before anything is played."""
    order = tuple(order)
    if sorted(order) != sorted(inst.askings):
        raise ValueError("order must be a permutation of the instance's askings")
    cycle = find_hearing_cycle(inst)
    if cycle is not None:
        raise CyclicHearing(cycle)
    pos = {t: i for i, t in enumerate(order)}
    for earlier, later in inst.hearing:
        if later in pos and pos.get(earlier, len(order)) > pos[later]:
            raise ValueError("order does not extend the hearing relation")
    return _steps(inst, order)


def _play(steps, a, decide, size):
    """The recursion at the heart of everything: each asking's guess is the
    strategy applied to exactly what that asking may observe."""
    guesses: dict[int, int] = {}
    wrong: set[int] = set()
    asked: set[int] = set()
    for t, m, vis, hrd in steps:
        g = decide(t, {x: a[x] for x in vis}, {x: guesses[x] for x in hrd})
        if not isinstance(g, int) or isinstance(g, bool) or not 0 <= g < size:
            raise StrategyRangeError(
                f"strategy returned {g!r} at asking {t}; colors are 0..{size - 1}"
            )
        guesses[t] = g
        asked.add(m)
        if g != a[m]:
            wrong.add(m)
    return guesses, asked, wrong


# --- whole-space sweeps -----------------------------------------------------

CHUNK_PLAYS = 1 << 16
"""Most assignments one kernel chunk holds; this bounds the kernel's memory."""


def iter_assignment_tuples(inst: Instance) -> Iterator[tuple[int, ...]]:
    """All assignments as color tuples in player order, lexicographically."""
    return product(range(inst.colors.size), repeat=len(inst.players))


@dataclass(frozen=True)
class SweepReport:
    assignments: int
    min_correct: int
    max_incorrect: int
    winning: bool
    counterexample: tuple[int, ...] | None

    def to_json(self) -> dict:
        return {
            "assignments": self.assignments,
            "min_correct": self.min_correct,
            "max_incorrect": self.max_incorrect,
            "winning": self.winning,
            "counterexample": None if self.counterexample is None else list(self.counterexample),
        }


def _check_sweep_budget(inst: Instance, max_assignments: int | None) -> int:
    budget = DEFAULT_SWEEP_BUDGET if max_assignments is None else max_assignments
    if budget < 1:
        raise ValueError("budgets must be positive")
    total = inst.assignment_count()
    if total > budget:
        raise SweepTooLarge(total, budget)
    return total


class _Chunk:
    """The plays of consecutive assignments, as columns indexed alike.

    The chunk's assignments share the leading colors ``prefix`` and run
    lexicographically through every value of the ``width`` trailing ones.
    ``guesses`` holds one column per asking, in play order; ``wrong`` one
    flag column per player in ``asked``; ``incorrect`` counts the wrong
    players of each assignment.
    """

    __slots__ = ("prefix", "width", "colors", "asked", "guesses", "wrong", "incorrect")

    def __init__(self, prefix, width, colors, asked, guesses, wrong, incorrect):
        self.prefix = prefix
        self.width = width
        self.colors = colors
        self.asked = asked
        self.guesses = guesses
        self.wrong = wrong
        self.incorrect = incorrect

    def assignment(self, i: int) -> tuple[int, ...]:
        tail = []
        for _ in range(self.width):
            i, color = divmod(i, self.colors)
            tail.append(color)
        return self.prefix + tuple(reversed(tail))

    def assignments(self) -> Iterator[tuple[int, ...]]:
        return (self.prefix + tail for tail in product(range(self.colors), repeat=self.width))

    def least_failure(self, rule: EvaluationRule) -> tuple[int, ...] | None:
        """The first assignment of the chunk whose play breaks ``rule``."""
        asked = len(self.asked)
        losing = [k for k in set(self.incorrect) if not evaluate(rule, asked - k, k)]
        if not losing:
            return None
        return self.assignment(min(map(self.incorrect.index, losing)))


def _play_chunks(inst: Instance, strat: Strategy) -> Iterator[_Chunk]:
    """Play every assignment, in lexicographic order, a chunk at a time."""
    steps = _compiled(inst)
    players = inst.players
    size = inst.colors.size
    asked = tuple(dict.fromkeys(m for _, m, _, _ in steps))
    width = 0
    while width < len(players) and size ** (width + 1) <= CHUNK_PLAYS:
        width += 1
    n = size**width
    trailing = [
        [color for color in range(size) for _ in range(size ** (width - 1 - j))] * size**j
        for j in range(width)
    ]
    memo: dict = {}
    for prefix in product(range(size), repeat=len(players) - width):
        hats = dict(zip(players, [*([color] * n for color in prefix), *trailing]))
        try:
            columns = _play_columns(steps, hats, asked, strat, size, n, memo)
        except Exception as exc:  # replayed below, so the scalar play raises it first
            error = exc
        else:
            yield _Chunk(prefix, width, size, asked, *columns)
            continue
        for values in (prefix + tail for tail in product(range(size), repeat=width)):
            guesses, _, wrong = _play(steps, dict(zip(players, values)), strat.decide, size)
            yield _Chunk(
                values, 0, size, asked,
                [[g] for g in guesses.values()], [[m in wrong] for m in asked], [len(wrong)],
            )
        raise error


def _play_columns(steps, hats, asked, strat, size, n, memo):
    """Guess, wrong-flag and incorrect-count columns of one chunk."""
    decide_batch = strat.decide_batch
    guesses: dict[int, list[int]] = {}
    wrong: dict[int, list[bool]] = {}
    for t, m, vis, hrd in steps:
        col = decide_batch(t, {x: hats[x] for x in vis}, {x: guesses[x] for x in hrd}, n, memo)
        if len(col) != n:
            raise ValueError(f"decide_batch returned {len(col)} guesses at asking {t}, expected {n}")
        if not _valid_guesses(col, size):
            raise StrategyRangeError(f"decide_batch returned a guess outside 0..{size - 1} at asking {t}")
        guesses[t] = col
        miss = list(map(ne, col, hats[m]))
        wrong[m] = list(map(or_, wrong[m], miss)) if m in wrong else miss
    flags = [wrong[m] for m in asked]
    return list(guesses.values()), flags, list(map(sum, _rows(flags, n)))


def _valid_guesses(col: list, size: int) -> bool:
    """The guess check of :func:`_play`, over a whole column."""
    return all(
        ty is int or (issubclass(ty, int) and ty is not bool) for ty in set(map(type, col))
    ) and 0 <= min(col) and max(col) < size


def sweep(
    inst: Instance,
    strat: Strategy,
    max_assignments: int | None = None,
) -> SweepReport:
    """Play every assignment and report the worst case.

    The counterexample, when the strategy is not winning, is the
    lexicographically least failing assignment.
    """
    total = _check_sweep_budget(inst, max_assignments)
    asked = max_incorrect = 0
    counterexample = None
    for chunk in _play_chunks(inst, strat):
        asked = len(chunk.asked)
        max_incorrect = max(max_incorrect, max(chunk.incorrect))
        if counterexample is None:
            counterexample = chunk.least_failure(inst.rule)
    return SweepReport(
        assignments=total,
        min_correct=asked - max_incorrect,
        max_incorrect=max_incorrect,
        winning=counterexample is None,
        counterexample=counterexample,
    )


def iter_plays(
    inst: Instance,
    strat: Strategy,
    max_assignments: int | None = None,
) -> Iterator[tuple[tuple[int, ...], GameResult]]:
    """Play every assignment in lexicographic order, yielding full results."""
    _check_sweep_budget(inst, max_assignments)
    order = [t for t, _, _, _ in _compiled(inst)]
    rule = inst.rule
    for chunk in _play_chunks(inst, strat):
        n = len(chunk.incorrect)
        outcomes: dict[tuple[bool, ...], tuple[frozenset[int], frozenset[int], bool]] = {}
        for values, row, flags in zip(chunk.assignments(), _rows(chunk.guesses, n), _rows(chunk.wrong, n)):
            outcome = outcomes.get(flags)
            if outcome is None:
                incorrect = frozenset(compress(chunk.asked, flags))
                correct = frozenset(chunk.asked) - incorrect
                outcome = outcomes[flags] = (correct, incorrect, evaluate(rule, len(correct), len(incorrect)))
            yield values, GameResult(dict(zip(order, row)), *outcome)


def is_winning(
    inst: Instance,
    strat: Strategy,
    max_assignments: int | None = None,
) -> tuple[bool, tuple[int, ...] | None]:
    """Decide winningness, stopping at the first (lex-least) counterexample."""
    _check_sweep_budget(inst, max_assignments)
    for chunk in _play_chunks(inst, strat):
        counterexample = chunk.least_failure(inst.rule)
        if counterexample is not None:
            return False, counterexample
    return True, None


# --- combination ------------------------------------------------------------

class CombinedStrategy(Strategy):
    """Dispatches each asking to the sub-strategy owning it.

    The seen and heard maps handed to a part are first cut down to that
    part's own sight and hearing relations, so a part plays exactly as it
    would on its sub-instance.
    """

    label = "combined"

    def __init__(self, parts: Sequence[tuple[Instance, Strategy]]):
        self.parts = tuple(parts)
        self._owner: dict[int, tuple[Instance, Strategy]] = {}
        for sub, strat in self.parts:
            for t in sub.askings:
                self._owner[t] = (sub, strat)

    def _part(self, t, seen, heard):
        """The part owning ``t``, with ``seen`` and ``heard`` cut to its relations."""
        sub, strat = self._owner[t]
        sub_seen = {x: seen[x] for x in sub.seen_by(sub.label_of(t))}
        return strat, sub_seen, {x: heard[x] for x in sub.heard_at(t)}

    def decide(self, t, seen, heard):
        strat, sub_seen, sub_heard = self._part(t, seen, heard)
        return strat.decide(t, sub_seen, sub_heard)

    def decide_batch(self, t, seen_cols, heard_cols, n, memo):
        strat, sub_seen, sub_heard = self._part(t, seen_cols, heard_cols)
        return strat.decide_batch(t, sub_seen, sub_heard, n, memo)


def combine(parts: Sequence[tuple[Instance, Strategy]], target: Instance) -> CombinedStrategy:
    """Merge strategies for disjoint sub-instances into one for ``target``.

    The parts' asking sets must partition the target's askings, and the
    target's sight and hearing must contain each part's relations (so every
    part finds the observations it expects inside the combined ones).
    """
    seen_askings: set[int] = set()
    for sub, _ in parts:
        overlap = seen_askings & set(sub.askings)
        if overlap:
            raise OverlapError(f"askings {sorted(overlap)} belong to more than one part")
        seen_askings.update(sub.askings)
    target_askings = set(target.askings)
    if seen_askings != target_askings:
        missing = sorted(target_askings - seen_askings)
        extra = sorted(seen_askings - target_askings)
        raise CoverageError(
            f"parts must cover the target askings exactly; missing={missing} extra={extra}"
        )
    for sub, _ in parts:
        if not sub.sight <= target.sight:
            raise ValueError("a part's sight relation is not contained in the target's")
        if not sub.hearing <= target.hearing:
            raise ValueError("a part's hearing relation is not contained in the target's")
        for t in sub.askings:
            if sub.label_of(t) != target.label_of(t):
                raise ValueError(f"part and target disagree on who is asked at {t}")
    return CombinedStrategy(parts)
