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
color, and so is each asking's guess. The trailing hats' partitions depend
only on the chunk width, and the instance keeps them per width
(``Instance.trailing_hats``). The kernel checks the sweep budget, then
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
A set form that cannot give a cell's guess leaves the cell out or raises, and
a chunk that raises or falls short is replayed one assignment at a time
through :func:`_play`, so errors, and the plays that come before them, are
those of the scalar loop. :func:`iter_plays` decodes a chunk's partitions into
byte columns, one lane per assignment holding its color, built from each set's
binary digits by ``bytes.translate``, and packs the wrong sets into one column
of codes, bit ``j`` of an assignment's code set where the ``j``-th asked player
is wrong. Per chunk it builds these columns and a table of outcomes that
scores each distinct code once, at the first play that has it. Per play, one
dict display, compiled once per stream from the askings, takes the play's
guesses from the columns; the play's outcome is its code's entry in the table,
and ``tuple.__new__`` builds its :class:`GameResult` from the two in C.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import reduce
from itertools import compress, product, repeat, starmap
from operator import add, and_, lshift, or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import CoverageError, OverlapError, StrategyRangeError, SweepTooLarge, check_budget
from .model import Assignment, EvaluationRule, Instance, RuleKind, _bits, _is_color, _Record, as_assignment

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
    the chunk; a subclass overriding ``decide`` keeps it or overrides both. The
    adapter splits depth first on one stack of cells, paying a call per cell
    anyway; a table splits breadth first, faster but holding every cell.
    Where a set form cannot give a cell's guess (``decide`` raises there, or
    returns no color), it leaves the cell out or raises, and the kernel's
    replay of the chunk reports the scalar error.
    """

    label = "strategy"

    def decide(self, t: int, seen: Mapping[int, int], heard: Mapping[int, int]) -> int:
        raise NotImplementedError

    def decide_sets(self, t: int, seen: Mapping, heard: Mapping, full: int, colors: int) -> list[int]:
        # depth first on one stack; each level's cells go on reversed, so they pop in lexicographic order
        split = len(seen)
        levels = [[((x, g), s) for g, s in enumerate(p)][::-1] for x, p in (*seen.items(), *heard.items())]
        part, stack = [0] * colors, [((), full)]
        while stack:
            pairs, cell = stack.pop()
            if len(pairs) < len(levels):
                stack += [((*pairs, pair), sub) for pair, s in levels[len(pairs)] if (sub := cell & s)]
            else:
                g = self.decide(t, dict(pairs[:split]), dict(pairs[split:]))
                if _is_color(g, colors):  # else the partition falls short, and the chunk is replayed
                    part[g] |= cell
        return part

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


def _hat_sets(colors: int, width: int) -> list[list[int]]:
    """The hat partition of each of ``width`` trailing players over the
    ``colors ** width`` assignments of their colors, built by doubling."""
    n = colors**width
    mask = (1 << n) - 1
    hats = []
    for j in range(width):
        stride = colors ** (width - 1 - j)
        row, period = [((1 << stride) - 1) << g * stride for g in range(colors)], colors * stride
        while period < n:
            row, period = [x | x << period for x in row], 2 * period
        hats.append([x & mask for x in row])
    return hats


class RuleStrategy(Strategy):
    """Strategy backed by a plain decision function ``fn(t, seen, heard)``.
    Sweeps adapt it through :meth:`Strategy.decide_sets`; a subclass with a
    set form of its own overrides ``decide_sets``."""

    def __init__(self, fn: Callable[[int, Mapping, Mapping], int], label: str = "rule"):
        self.fn = fn
        self.label = label

    def decide(self, t, seen, heard):
        return self.fn(t, seen, heard)


def _rank(colors, base: int) -> int:
    """The place of ``colors`` among their like, lexicographic in ``base``."""
    return reduce(lambda rank, g: rank * base + g, colors, 0)


# --- play and scoring -------------------------------------------------------

class GameResult(namedtuple("GameResult", "guesses correct_set incorrect_set verdict")):
    """One play: ``guesses`` (asking -> color), the players right and wrong
    (``correct_set``, ``incorrect_set``) and the rule's ``verdict``.

    A frozen 4-tuple, so :func:`iter_plays` builds each one in C with
    ``tuple.__new__``, from a ``guesses`` dict made by one compiled dict
    display per play and the outcome its chunk scored once for the play's
    wrong pattern. It compares equal only to another ``GameResult``, and
    ``guesses`` is a dict, so hashing one raises ``TypeError``.
    """

    __slots__ = ()
    __hash__ = tuple.__hash__  # defining __eq__ alone would set it to None
    __lt__ = __le__ = __gt__ = __ge__ = object.__lt__  # unordered: no tuple order on results

    __setattr__, __delattr__ = _Record.__setattr__, _Record.__delattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # False, not NotImplemented, for any other tuple: its reflected
        # tuple.__eq__ would compare the fields and could answer True
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        return not self == other

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


class SweepReport(_Record):
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
    the space is checked against the budget. The trailing hat partitions are
    the instance's, built once per width (``Instance.trailing_hats``); each
    sweep copies them into the lists its strategy is handed."""
    players = inst.players
    size = inst.colors.size
    check_budget(size, len(players), DEFAULT_SWEEP_BUDGET if max_assignments is None else max_assignments, SweepTooLarge)
    steps, asked = inst.steps, inst.asked
    width = 0
    while width < len(players) and size ** (width + 1) <= CHUNK_PLAYS:
        width += 1
    full = (1 << size**width) - 1
    if width not in inst.trailing_hats:
        inst.trailing_hats[width] = tuple(map(tuple, _hat_sets(size, width)))
    trailing = list(map(list, inst.trailing_hats[width]))  # fresh lists: strategies get them in ``seen``
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
    """Whether ``part`` is ``size`` disjoint sets covering ``full`` and nothing
    more: each set misses the union of those before it, and the union of all
    is ``full``. One AND and one OR per set, and no count of bits."""
    if len(part) != size:
        return False
    union = 0
    for s in part:
        if union & s:
            return False
        union |= s
    return union == full


_LANES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _column(weighted: Iterable[tuple[int, int]], n: int, top: int) -> memoryview:
    """Per assignment of ``n``, the sum of the weights ``g`` of the ``(g, s)``
    sets ``s`` holding it, for sums up to ``top``, in lanes of 1, 2, 4 or 8
    bytes. Byte ``b`` of every lane is one integer of ``n`` bytes: each set's
    binary digits as bytes, times its weight's byte ``b``, joined by OR, so no
    two sets may add up in one byte (the sets of a partition are disjoint, and
    distinct powers of two share no bit)."""
    width = next(w for w in _LANES if top < 1 << 8 * w)
    planes = [0] * width
    for g, s in weighted:
        if g and s:
            ones = int.from_bytes(_bits(s, n), "little")
            for b in range(width):
                planes[b] |= (g >> 8 * b & 255) * ones
    lanes = bytearray(n * width)
    for b, plane in enumerate(planes):
        lanes[b if sys.byteorder == "little" else width - 1 - b::width] = plane.to_bytes(n, "little")
    return memoryview(lanes).cast(_LANES[width])


def _codes(sets: list[int], n: int) -> Sequence[int]:
    """Per assignment of ``n``, the code with bit ``j`` set where the ``j``-th
    of ``sets`` holds it: one column of lanes per 64 sets, joined past 64."""
    codes = None
    for i in range(0, len(sets) or 1, 64):
        group = sets[i:i + 64]
        col = _column([(1 << j, s) for j, s in enumerate(group)], n, (1 << len(group)) - 1)
        codes = col if codes is None else list(map(or_, codes, map(lshift, col, repeat(i))))
    return codes


class _Outcomes(dict):
    """Per wrong-pattern code, the players right and wrong and the verdict of a
    play whose wrong players are the asked players at the code's set bits,
    scored on first lookup: a play looks its code up in C, the first one in
    Python."""

    __slots__ = ("inst",)

    def __init__(self, inst: Instance):
        self.inst = inst

    def __missing__(self, code: int) -> tuple[frozenset[int], frozenset[int], bool]:
        asked, rule = self.inst.asked, self.inst.rule
        incorrect = frozenset(compress(asked, _bits(code, len(asked))))
        correct = frozenset(asked) - incorrect
        self[code] = outcome = correct, incorrect, evaluate(rule, len(correct), len(incorrect))
        return outcome


def _dict_display(keys: Sequence[int]) -> Callable[..., dict]:
    """``lambda g0, g1, ...: {keys[0]: g0, keys[1]: g1, ...}``, compiled once: a
    presized dict per call, keyed in ``keys`` order. The keys are exact ints, as
    every instance makes its asking ids, so each is written as its digits."""
    args = [f"g{j}" for j in range(len(keys))]
    return eval(f"lambda {', '.join(args)}: {{{', '.join(f'{t:d}: {g}' for t, g in zip(keys, args))}}}", {})


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
    build = None
    for chunk in _play_chunks(inst, strat, max_assignments):
        if build is None:  # every chunk has the same askings, in play order
            build = _dict_display(list(chunk.guesses))
        n = chunk.colors**chunk.width
        columns = [_column(enumerate(part), n, len(part) - 1) for part in chunk.guesses.values()]
        guesses = map(build, *columns) if columns else starmap(build, repeat((), n))
        codes = _codes(list(chunk.wrong.values()), n)
        outcomes = _Outcomes(inst)  # this chunk's wrong patterns, each scored once
        values = product(*zip(chunk.prefix), *repeat(range(chunk.colors), chunk.width))
        # (guesses,) + outcome is the record's tuple; tuple.__new__ builds it in C
        yield from zip(values, map(tuple.__new__, repeat(GameResult),
                                   map(add, zip(guesses), map(outcomes.__getitem__, codes))))


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
        self._owner = {t: (strat, vis, hrd) for sub, strat in self.parts for t, _, vis, hrd in sub.steps}

    def _part(self, t, seen, heard):
        """The part owning ``t``, with ``seen`` and ``heard`` cut to its relations."""
        strat, vis, hrd = self._owner[t]
        return strat, {x: seen[x] for x in vis}, {x: heard[x] for x in hrd}

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
