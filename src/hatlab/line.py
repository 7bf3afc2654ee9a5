"""Symbolic play on ordinal-indexed lines of players.

Finite sweeps cannot touch the genuinely infinite cases, but the guarantees
those cases promise ("only finitely many errors", "at most one error") become
decidable on a restricted class of assignments: a single base color plus
finitely many listed exceptions. Everything here is ordinary finite data --
positions are written ``w*k + n`` (the n-th player of the k-th limit block),
an assignment is (base, exceptions), and a play record is (generic guess,
finitely many overrides, mismatch census).

Three line strategies are covered:

* ``SEE_ALL_SELECTOR`` -- every player announces the value of the chosen
  class representative at its own position; with the constant-base
  representative, everyone guesses the base, so the errors are exactly the
  positions deviating from it (finitely many).
* ``FORWARD_SELECTOR`` -- as above but each player only sees up the line, so
  the representative is pinned down from the tail: agree with the real
  assignment above the player, base at and below it. The guess at the
  player's own spot is again the base.
* ``SUM_BROADCAST`` -- a front player announces the extended sum of the whole
  line; every later player cancels what it sees and hears and recovers its
  own color exactly. Errors are confined to the front.

On eventually-constant assignments the two selector kinds guess the base
everywhere, so they share one code path. Both stay: they are the paper's two
selector strategies, and they differ in sight (all of the line, or only the
part above the player).
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property, partial, total_ordering
from typing import Iterable, Mapping

from .errors import ShapeMismatch
from .model import ColorSpace, _json_field, _json_object, _Record, as_colors


@total_ordering
class OrdinalPosition(_Record):
    """Player position ``w*block + offset``; ``block = -1`` is the front marker."""

    block: int
    offset: int

    def __post_init__(self):
        if self.block < -1 or self.offset < 0:
            raise ValueError(f"bad ordinal position ({self.block}, {self.offset})")
        if self.block == -1 and self.offset != 0:
            raise ValueError("the front marker has no offset")

    def __lt__(self, other):  # the order of the field tuples, as ``@dataclass(order=True)`` has it
        return self._values() < other._values() if other.__class__ is self.__class__ else NotImplemented

    @property
    def is_front(self) -> bool:
        return self.block == -1

    def __repr__(self):
        if self.is_front:
            return "front"
        if self.block == 0:
            return f"{self.offset}"
        return f"w*{self.block}+{self.offset}"


FRONT = OrdinalPosition(-1, 0)


class LineShape(_Record):
    """How long the line is: ``limit_blocks`` blocks of order type w, plus
    an optional front player standing before all of them."""

    limit_blocks: int
    front_present: bool = False

    def __post_init__(self):
        if self.limit_blocks < 1:
            raise ValueError("a line needs at least one limit block")

    def __contains__(self, pos: OrdinalPosition) -> bool:
        if pos.is_front:
            return self.front_present
        return 0 <= pos.block < self.limit_blocks


class LazyAssignment(_Record):
    """An eventually-constant assignment: ``base`` everywhere except at
    finitely many listed positions (and, when present, at the front).

    A position listed twice is a ``ValueError``. Exceptions whose color
    equals the base are dropped on construction, so the listed exceptions are
    exactly the deviations.
    """

    base: int
    exceptions: tuple[tuple[OrdinalPosition, int], ...] = ()
    front: int | None = None

    def __post_init__(self):
        cleaned, listed = [], set()
        for pos, color in sorted(self.exceptions):
            if pos.is_front:
                raise ValueError("the front hat is the 'front' field, not an exception")
            if pos in listed:
                raise ValueError(f"exception at {pos!r} is listed more than once")
            listed.add(pos)
            if color != self.base:
                cleaned.append((pos, int(color)))
        object.__setattr__(self, "exceptions", tuple(cleaned))

    @staticmethod
    def of(base: int, exceptions: Mapping[OrdinalPosition, int] | Iterable = (), front: int | None = None) -> "LazyAssignment":
        if isinstance(exceptions, Mapping):
            exceptions = exceptions.items()
        return LazyAssignment(base, tuple(exceptions), front)

    @cached_property
    def exception_map(self) -> dict[OrdinalPosition, int]:
        return dict(self.exceptions)

    def value_at(self, pos: OrdinalPosition) -> int:
        if pos.is_front:
            if self.front is None:
                raise ShapeMismatch("this assignment has no front player")
            return self.front
        return self.exception_map.get(pos, self.base)

    def deviations(self) -> frozenset[OrdinalPosition]:
        """Positions (front excluded) where the color differs from the base."""
        return frozenset(pos for pos, _ in self.exceptions)

    def to_json(self, blocks: int) -> dict:
        return {
            "base": self.base,
            "exceptions": [
                {"k": pos.block, "n": pos.offset, "color": color}
                for pos, color in self.exceptions
            ],
            "front": self.front,
            "blocks": blocks,
        }


def lazy_assignment_from_json(data: Mapping) -> tuple[LineShape, LazyAssignment]:
    """Parse the lazy descriptor; the front is present exactly when non-null."""
    field = partial(_json_field, _json_object(data, "lazy assignment", ("base",)), "lazy assignment")
    front = data.get("front")
    shape = LineShape(field("blocks", 1), front_present=front is not None)
    exceptions = []
    for e in field("exceptions", (), "list"):
        entry = partial(_json_field, _json_object(e, "exception", ("k", "n", "color")), "exception")
        exceptions.append((OrdinalPosition(entry("k"), entry("n")), entry("color")))
    a = LazyAssignment.of(field("base"), exceptions, None if front is None else field("front"))
    for pos, _ in a.exceptions:
        if pos not in shape:
            raise ShapeMismatch(f"exception at {pos!r} lies outside the {shape.limit_blocks}-block line")
    return shape, a


# --- the extended sum --------------------------------------------------------

def extended_sum(a: LazyAssignment, colors: ColorSpace | int) -> int:
    """Sum homomorphism on eventually-constant color sequences.

    On finite-support sequences (base 0) this is the plain sum mod c. The
    extension to eventually-constant sequences sends every constant sequence
    to 0 and each deviation to its difference from the base:
    ``sum(value - base) mod c`` over the exceptions. Front values are not
    part of the sequence and are ignored.
    """
    c = as_colors(colors).size
    return sum(color - a.base for _, color in a.exceptions) % c


def pointwise_sum(x: LazyAssignment, y: LazyAssignment, colors: ColorSpace | int) -> LazyAssignment:
    """Add two eventually-constant sequences position by position, mod c."""
    c = as_colors(colors).size
    base = (x.base + y.base) % c
    positions = x.deviations() | y.deviations()
    exceptions = {p: (x.value_at(p) + y.value_at(p)) % c for p in positions}
    front = None
    if x.front is not None and y.front is not None:
        front = (x.front + y.front) % c
    return LazyAssignment.of(base, exceptions, front)


# --- symbolic plays ----------------------------------------------------------

class LineStrategyKind(Enum):
    SEE_ALL_SELECTOR = "see_all_selector"
    FORWARD_SELECTOR = "forward_selector"
    SUM_BROADCAST = "sum_broadcast"


class LazyGuessRecord(_Record):
    """A whole play, finitely presented.

    Every position not listed in ``overrides`` guesses ``base_guess``. The
    census fields summarize the comparison against the assignment played:
    with ``cofinite_correct`` set, ``incorrect`` is the exact (finite) error
    set; cleared, the listed set is only the errors among the finitely many
    special positions and all generic positions are wrong too.
    """

    shape: LineShape
    base_guess: int
    overrides: tuple[tuple[OrdinalPosition, int], ...]
    incorrect: frozenset[OrdinalPosition]
    cofinite_correct: bool

    @cached_property
    def override_map(self) -> dict[OrdinalPosition, int]:
        return dict(self.overrides)

    def guess_at(self, pos: OrdinalPosition) -> int:
        if pos.is_front and not self.shape.front_present:
            raise ShapeMismatch("this line has no front player")
        return self.override_map.get(pos, self.base_guess)

    def to_json(self) -> dict:
        return {
            "base_guess": self.base_guess,
            "overrides": [
                {"k": pos.block, "n": pos.offset, "color": color}
                for pos, color in self.overrides
            ],
            "incorrect": [[pos.block, pos.offset] for pos in sorted(self.incorrect)],
            "cofinite_correct": self.cofinite_correct,
        }


def mismatch_census(a: LazyAssignment, record: LazyGuessRecord) -> tuple[frozenset[OrdinalPosition], bool]:
    """Compare a play against the assignment it answered.

    Generic positions (beyond both exception lists) all carry the base hat
    and the base guess, so they agree exactly when those two colors agree;
    that settles the cofinite flag. The finitely many special positions are
    compared one by one.
    """
    flag = record.base_guess == a.base
    specials = set(a.deviations()) | set(record.override_map)
    if a.front is not None:
        specials.add(FRONT)
    incorrect = frozenset(
        pos for pos in specials if record.guess_at(pos) != a.value_at(pos)
    )
    return incorrect, flag


def _check_line_inputs(kind: LineStrategyKind, shape: LineShape, base: int, a: LazyAssignment, colors: ColorSpace):
    wants_front = kind is LineStrategyKind.SUM_BROADCAST
    if shape.front_present != wants_front:
        raise ShapeMismatch(
            f"{kind.value} needs front_present={wants_front}, shape has {shape.front_present}"
        )
    if (a.front is not None) != wants_front:
        raise ShapeMismatch("assignment front player does not match the line shape")
    if base not in colors or a.base not in colors:
        raise ValueError(f"colors must lie in 0..{colors.size - 1}")
    if a.front is not None and a.front not in colors:
        raise ValueError(f"front color {a.front} out of range")
    for pos, color in a.exceptions:
        if pos not in shape:
            raise ShapeMismatch(f"exception at {pos!r} lies outside the line shape")
        if color not in colors:
            raise ValueError(f"exception color {color} out of range")


def broadcast_guess_at(
    a: LazyAssignment,
    pos: OrdinalPosition,
    colors: ColorSpace | int,
    front_guess: int | None = None,
) -> int:
    """Evaluate the broadcast decoding rule at one line position.

    The player at ``pos`` takes the front announcement, subtracts the
    extended sum of the sequence made of the guesses it heard (all correct,
    hence the assignment itself below ``pos``), a zero in its own slot, and
    the hats it sees above -- leaving exactly its own color when the
    announcement was the extended sum of the true line.
    """
    colors = as_colors(colors)
    if pos.is_front:
        raise ValueError("the front player answers with the announcement itself")
    if front_guess is None:
        front_guess = extended_sum(a, colors)
    zeroed = {p: c for p, c in a.exceptions if p != pos}
    zeroed[pos] = 0
    own_slot_zeroed = LazyAssignment.of(a.base, zeroed)
    return (front_guess - extended_sum(own_slot_zeroed, colors)) % colors.size


def run_lazy(
    kind: LineStrategyKind | str,
    shape: LineShape,
    base: int,
    a: LazyAssignment,
    colors: ColorSpace | int,
) -> LazyGuessRecord:
    """Play one of the line strategies symbolically against ``a``.

    ``base`` parameterizes the selector strategies (which class representative
    they announce); the broadcast strategy ignores it. Its record is derived
    from the decoding rule, not assumed: the front guesses the announcement,
    and each exception and one generic position past them all (every generic
    position decodes alike) guess what :func:`broadcast_guess_at` gives there.
    A decoding fault thus shows up as errors in the census.
    """
    kind = LineStrategyKind(kind)
    colors = as_colors(colors)
    _check_line_inputs(kind, shape, base, a, colors)

    base_guess, overrides = base, {}
    if kind is LineStrategyKind.SUM_BROADCAST:
        announcement = extended_sum(a, colors)
        overrides = {pos: broadcast_guess_at(a, pos, colors, announcement) for pos, _ in a.exceptions}
        overrides[FRONT] = announcement
        generic = OrdinalPosition(0, 1 + max((pos.offset for pos, _ in a.exceptions), default=-1))
        base_guess = broadcast_guess_at(a, generic, colors, announcement)
    record = LazyGuessRecord(shape, base_guess, tuple(sorted(overrides.items())), frozenset(), True)
    incorrect, flag = mismatch_census(a, record)
    return LazyGuessRecord(shape, base_guess, record.overrides, incorrect, flag)

