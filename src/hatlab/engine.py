"""Deterministic play of strategies, outcome evaluation, and assignment sweeps.

Given an instance, a strategy, and an assignment there is exactly one way the
game can go: each asking's guess is forced by the hats the asked player sees
and the guesses it has heard. :func:`run_game` computes that unique play by
walking the instance's play steps (``Instance.steps``) in the canonical linear
extension of the hearing relation; any other extension gives the same play
(the test suite asserts this rather than assuming it).
:func:`run_game` and its loop :func:`_play` are the scalar reference.

A strategy is *winning* when the play it induces satisfies the instance's
rule for every assignment; :func:`is_winning` and :func:`sweep` decide this
by exhausting the assignment space, never from a partial scan.

All whole-space work (:func:`sweep`, :func:`is_winning`, :func:`iter_plays` and
the oracle's census) runs on one set kernel, :func:`_play_chunks`. It cuts the
lexicographic assignment space into chunks of at most :data:`CHUNK_PLAYS`
assignments that share their leading colors and run through every value of the
trailing ones. Inside a chunk a set of assignments is one int, bit ``i`` for
the ``i``-th; each player's hat is a partition of the chunk into one set per
color, and so is each asking's guess. The kernel checks the sweep budget, then
walks ``Instance.steps`` once per chunk; at each asking it asks
:meth:`Strategy.decide_sets` for the guess partition, given the visible hat
partitions and the heard guess partitions, and checks that it is one set per
color, disjoint and covering the chunk. An asking whose influence
(``Instance.influence``) misses every hat the chunk fixes is decided once per
sweep: it is asked and checked in the first chunk and its partition reused.
The kernel keeps one wrong set per asked player (a player is wrong when any of
its guesses is) and the sets ``S[k]`` of assignments with at least ``k``
players wrong. Chunks run in lexicographic order, so the lowest bit of the
first failing ``S[k]`` of the first failing chunk is the least counterexample.
A chunk that raises is replayed one assignment at a time through
:func:`_play`, so errors, and the plays that come before them, are those of
the scalar loop. :func:`iter_plays` decodes a chunk's partitions into byte
columns, one lane per assignment holding its color, built from each set's
binary digits by ``bytes.translate``, and zips them into plays in C.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cache, reduce
from itertools import compress, product, repeat, starmap
from operator import add, and_, or_
from typing import Callable, Iterator, Mapping, Sequence

from .errors import (
    CoverageError,
    MissingTableEntry,
    OverlapError,
    StrategyRangeError,
    SweepTooLarge,
    check_budget,
)
from .model import (
    Assignment,
    EvaluationRule,
    Instance,
    RuleKind,
    _bits,
    _is_color,
    _int_pairs,
    _json_field,
    _json_int,
    _json_object,
    as_assignment,
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
    Purity is load-bearing: a sweep calls ``decide`` once per distinct
    observation per chunk, and only in the first chunk at an asking whose
    influence misses every hat the chunk fixes.

    ``decide_sets(t, seen, heard, full, colors)`` is the set form the sweeps
    use. A set of a chunk's assignments is an int (bit ``i`` for the ``i``-th,
    ``full`` for all), and a partition is a list of ``colors`` sets, set ``g``
    where a hat or guess is ``g``; ``seen`` and ``heard`` map to hat and guess
    partitions. It returns the guess partition, equal to ``decide`` on every
    assignment. The default adapts ``decide``, once per distinct observation of
    the chunk; a subclass overriding ``decide`` keeps it or overrides both.
    """

    label = "strategy"

    def decide(self, t: int, seen: Mapping[int, int], heard: Mapping[int, int]) -> int:
        raise NotImplementedError

    def decide_sets(self, t: int, seen: Mapping, heard: Mapping, full: int, colors: int) -> list[int]:
        return _cell_partition(seen, heard, full, colors, lambda s, h: self.decide(t, dict(s), dict(h)))

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


def _cell_partition(seen, heard, full, colors, guess_of) -> list[int]:
    """The guess partition giving each non-empty cell of ``full``, split by the
    ``seen`` then the ``heard`` partitions, ``guess_of(seen_pairs, heard_pairs)``."""
    split = len(seen)
    part = [0] * colors
    labelled = [list(zip(zip(repeat(x), range(colors)), p)) for x, p in (*seen.items(), *heard.items())]
    for pairs, cell in _cells(full, labelled):
        g = guess_of(pairs[:split], pairs[split:])
        if not _is_color(g, colors):
            raise StrategyRangeError(f"strategy returned {g!r}; colors are 0..{colors - 1}")
        part[g] |= cell
    return part


def _cells(full: int, partitions: Sequence[Sequence[tuple]]) -> Iterator[tuple[tuple, int]]:
    """``(labels, cell)`` for each non-empty cell of ``full`` split by each
    partition, a list of ``(label, set)``, in turn: lexicographic, depth first."""
    depth = len(partitions)
    stack = [((), full)]
    while stack:
        key, cell = stack.pop()
        if len(key) == depth:
            yield key, cell
            continue
        stack += [((*key, label), sub) for label, s in reversed(partitions[len(key)]) if (sub := cell & s)]


def _hat_sets(colors: int, width: int) -> list[list[int]]:
    """The hat partition of each of ``width`` trailing players over the
    ``colors ** width`` assignments of their colors, built by doubling."""
    n = colors**width
    hats = []
    for j in range(width):
        stride = colors ** (width - 1 - j)
        row, period = [((1 << stride) - 1) << g * stride for g in range(colors)], colors * stride
        while period < n:
            row, period = [x | x << period for x in row], 2 * period
        hats.append([x & ((1 << n) - 1) for x in row])
    return hats


class RuleStrategy(Strategy):
    """Strategy backed by a plain decision function.

    ``sets``, when given, is the same rule in set form:
    ``sets(t, seen, heard, full, colors)`` returns the guess partition (see
    :meth:`Strategy.decide_sets`). Without it sweeps call ``fn`` per observation.
    """

    def __init__(self, fn: Callable[[int, Mapping, Mapping], int], label: str = "rule",
                 sets: Callable[[int, Mapping, Mapping, int, int], list[int]] | None = None):
        self.fn = fn
        self.label = label
        self.sets = sets

    def decide(self, t, seen, heard):
        return self.fn(t, seen, heard)

    def decide_sets(self, t, seen, heard, full, colors):
        if self.sets is None:
            return super().decide_sets(t, seen, heard, full, colors)
        return self.sets(t, seen, heard, full, colors)


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

    def decide_sets(self, t, seen, heard, full, colors):
        # canonical key order, so each cell reads the same entry as ``decide``
        return _cell_partition(dict(sorted(seen.items())), dict(sorted(heard.items())), full, colors,
                               lambda seen_pairs, heard_pairs: self.entries[t, seen_pairs, heard_pairs])

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
        return [
            {"t": t, "seen": [list(p) for p in seen], "heard": [list(p) for p in heard], "guess": guess}
            for (t, seen, heard), guess in sorted(self.entries.items())
        ]

    @staticmethod
    def from_json(rows: Sequence[Mapping]) -> "TableStrategy":
        if not isinstance(rows, (list, tuple)):
            raise ValueError(f"table strategy 'entries' must be a JSON list, got {type(rows).__name__}")
        entries = {}
        repeat = None  # (j, key) of the first row j whose entry an earlier row gave
        for j, row in enumerate(rows):
            try:
                key = _json_int(row["t"]), _int_pairs(row["seen"]), _int_pairs(row["heard"])
                entries[key] = _json_int(row["guess"])
            except (KeyError, TypeError, ValueError, OverflowError):  # name the row's fault, off the fast path
                _json_object(row, "table row", ("t", "seen", "heard", "guess"))
                for field, form in (("seen", "observation"), ("heard", "observation"), ("t", "int"), ("guess", "int")):
                    _json_field(row, "table row", field, form=form)
                raise
            if len(entries) == j and repeat is None:
                repeat = j, key
        if repeat:  # after the loop, so that a malformed row anywhere is named first
            j, key = repeat
            t, seen, heard = key
            # every row before j added a new key, so the first one to give
            # this entry is at its position in ``entries``
            raise ValueError(f"table rows {list(entries).index(key)} and {j} are both the entry t={t} "
                             f"seen={[list(p) for p in seen]} heard={[list(p) for p in heard]}")
        return TableStrategy(entries)


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


def run_game(inst: Instance, strat: Strategy, assignment: Assignment | Sequence[int]) -> GameResult:
    """Play out the unique game of ``strat`` against ``assignment``.

    The strategy at each asking is handed exactly the hats its player may see
    and the guesses replayed to it -- nothing else (players remember nothing
    across askings). The askings play in ``Instance.steps`` order; the play is
    the same in every linear extension of the hearing relation.
    """
    a = as_assignment(inst, assignment)
    guesses, wrong = _play(inst.steps, a, strat.decide, inst.colors.size)
    correct = frozenset(inst.asked).difference(wrong)
    incorrect = frozenset(wrong)
    verdict = evaluate(inst.rule, len(correct), len(incorrect))
    return GameResult(guesses, correct, incorrect, verdict)


def _play(steps, a, decide, size):
    """The recursion at the heart of everything: each asking's guess is the
    strategy applied to exactly what that asking may observe."""
    guesses: dict[int, int] = {}
    wrong: set[int] = set()
    for t, m, vis, hrd in steps:
        g = decide(t, {x: a[x] for x in vis}, {x: guesses[x] for x in hrd})
        if not _is_color(g, size):
            raise StrategyRangeError(
                f"strategy returned {g!r} at asking {t}; colors are 0..{size - 1}"
            )
        guesses[t] = g
        if g != a[m]:
            wrong.add(m)
    return guesses, wrong


# --- whole-space sweeps -----------------------------------------------------

CHUNK_PLAYS = 1 << 16
"""Most assignments one kernel chunk holds; this bounds the size of the kernel's sets."""


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


class _Chunk:
    """The plays of consecutive assignments, as sets of them.

    The chunk's assignments share the leading colors ``prefix`` and run
    lexicographically through every value of the ``width`` trailing ones;
    bit ``i`` of a set stands for the ``i``-th. ``guesses`` maps each asking,
    in play order, to its guess partition; ``wrong`` each asked player, in
    first-asked order, to its wrong set; ``S[k]`` holds the assignments with
    at least ``k`` players wrong, for ``k`` up to the most wrong anywhere.
    """

    __slots__ = ("prefix", "width", "colors", "guesses", "wrong", "S")

    def __init__(self, prefix, width, colors, guesses, wrong, S):
        self.prefix, self.width, self.colors = prefix, width, colors
        self.guesses, self.wrong, self.S = guesses, wrong, S

    def assignment(self, i: int) -> tuple[int, ...]:
        return self.prefix + tuple(i // self.colors**k % self.colors for k in reversed(range(self.width)))

    def least_failure(self, rule: EvaluationRule) -> tuple[int, ...] | None:
        """The first assignment of the chunk whose play breaks ``rule``."""
        losing = next((s for k, s in enumerate(self.S) if not evaluate(rule, len(self.wrong) - k, k)), 0)
        return self.assignment((losing & -losing).bit_length() - 1) if losing else None


def _play_chunks(inst: Instance, strat: Strategy, max_assignments: int | None) -> Iterator[_Chunk]:
    """Play every assignment, in lexicographic order, a chunk at a time, once
    the space is checked against the budget."""
    players = inst.players
    size = inst.colors.size
    check_budget(size, len(players), DEFAULT_SWEEP_BUDGET if max_assignments is None else max_assignments, SweepTooLarge)
    steps, asked = inst.steps, inst.asked
    width = 0
    while width < len(players) and size ** (width + 1) <= CHUNK_PLAYS:
        width += 1
    full = (1 << size**width) - 1
    trailing = _hat_sets(size, width)
    lead = players[:len(players) - width]  # with no leading hat there is one chunk, and nothing to reuse
    steady = dict.fromkeys(t for t, hats in inst.influence.items() if hats.isdisjoint(lead)) if lead else {}
    for prefix in product(range(size), repeat=len(players) - width):
        leading = [[full if g == color else 0 for g in range(size)] for color in prefix]
        hats = dict(zip(players, leading + trailing))
        guesses: dict[int, list[int]] = {}
        wrong, S = dict.fromkeys(asked, 0), [full]
        try:
            for t, m, vis, hrd in steps:
                part = steady.get(t)
                if part is None:
                    part = strat.decide_sets(t, {x: hats[x] for x in vis}, {x: guesses[x] for x in hrd}, full, size)
                    if not _is_partition(part, size, full):
                        raise ValueError(f"decide_sets did not split the chunk into {size} disjoint sets at asking {t}")
                    if t in steady:
                        steady[t] = part
                guesses[t] = part
                new = ~wrong[m] & (full ^ reduce(or_, map(and_, part, hats[m])))  # where m is newly wrong
                if new:  # S[k] gains the assignments with k - 1 wrong before
                    wrong[m] |= new
                    hit = S[-1] & new
                    S = [full] + [S[k] | S[k - 1] & new for k in range(1, len(S))] + ([hit] if hit else [])
        except Exception as exc:  # replayed below, so the scalar play raises it first
            error = exc
        else:
            yield _Chunk(prefix, width, size, guesses, wrong, S)
            continue
        for values in (prefix + tail for tail in product(range(size), repeat=width)):
            guesses, wrong = _play(steps, dict(zip(players, values)), strat.decide, size)
            points = {t: [int(g == color) for color in range(size)] for t, g in guesses.items()}
            yield _Chunk(values, 0, size, points, {m: int(m in wrong) for m in asked}, [1] * (len(wrong) + 1))
        raise error


def _is_partition(part, size: int, full: int) -> bool:
    """Whether ``part`` is ``size`` disjoint sets covering ``full``: they cover
    it, and their sizes add up to its size."""
    return len(part) == size and reduce(or_, part) == full and sum(map(int.bit_count, part)) == full.bit_count()


def _column(part: list[int], n: int) -> memoryview:
    """The color of each of ``n`` assignments in a partition: each set's bits
    spread to lanes of 1, 2 or 4 bytes, scaled by its color and joined by OR."""
    width = next(w for w in (1, 2, 4) if len(part) <= 1 << 8 * w)
    low = 0 if sys.byteorder == "little" else width - 1  # the lane byte holding a 1
    col = 0
    for g, s in enumerate(part):
        if g and s:
            lanes = bytearray(n * width)
            lanes[low::width] = _bits(s, n)
            col |= g * int.from_bytes(lanes, sys.byteorder)
    return memoryview(col.to_bytes(n * width, sys.byteorder)).cast("BHI"[width // 2])


def _rows(parts, n: int) -> Iterator[tuple[int, ...]]:
    """Per assignment, its color in each of ``parts``."""
    return zip(*(_column(part, n) for part in parts)) if parts else repeat((), n)


def sweep(
    inst: Instance,
    strat: Strategy,
    max_assignments: int | None = None,
) -> SweepReport:
    """Play every assignment and report the worst case.

    The counterexample, when the strategy is not winning, is the
    lexicographically least failing assignment.
    """
    max_incorrect = 0
    counterexample = None
    for chunk in _play_chunks(inst, strat, max_assignments):
        max_incorrect = max(max_incorrect, len(chunk.S) - 1)
        if counterexample is None:
            counterexample = chunk.least_failure(inst.rule)
    return SweepReport(
        assignments=inst.assignment_count(),
        min_correct=len(inst.asked) - max_incorrect,
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
    for chunk in _play_chunks(inst, strat, max_assignments):
        @cache  # this chunk's wrong patterns only, freed with it
        def outcome(wrong: tuple[int, ...]) -> tuple[frozenset[int], frozenset[int], bool]:
            incorrect = frozenset(compress(inst.asked, wrong))
            correct = frozenset(inst.asked) - incorrect
            return correct, incorrect, evaluate(inst.rule, len(correct), len(incorrect))

        n = chunk.colors**chunk.width
        guesses = map(dict, map(zip, repeat(tuple(chunk.guesses)), _rows(chunk.guesses.values(), n)))
        outcomes = map(outcome, _rows([[0, w] for w in chunk.wrong.values()], n))
        values = product(*zip(chunk.prefix), *repeat(range(chunk.colors), chunk.width))
        yield from zip(values, starmap(GameResult, map(add, zip(guesses), outcomes)))  # (guesses,) + outcome


def is_winning(
    inst: Instance,
    strat: Strategy,
    max_assignments: int | None = None,
) -> tuple[bool, tuple[int, ...] | None]:
    """Decide winningness, stopping at the first (lex-least) counterexample."""
    for chunk in _play_chunks(inst, strat, max_assignments):
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
        self._owner = {t: (sub, strat) for sub, strat in self.parts for t in sub.askings}

    def _part(self, t, seen, heard):
        """The part owning ``t``, with ``seen`` and ``heard`` cut to its relations."""
        sub, strat = self._owner[t]
        sub_seen = {x: seen[x] for x in sub.seen_by(sub.label_of(t))}
        return strat, sub_seen, {x: heard[x] for x in sub.heard_at(t)}

    def decide(self, t, seen, heard):
        strat, sub_seen, sub_heard = self._part(t, seen, heard)
        return strat.decide(t, sub_seen, sub_heard)

    def decide_sets(self, t, seen, heard, full, colors):
        strat, sub_seen, sub_heard = self._part(t, seen, heard)
        return strat.decide_sets(t, sub_seen, sub_heard, full, colors)


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
