"""Instance data model: players, colors, sight, hearing, evaluation rules.

An instance fixes who plays, how many hat colors exist, who sees whose hat,
and in which (partial) order guesses are heard. Three canonical families are
provided:

* ``hnsa`` -- "hear nothing, see all": every player sees every other hat and
  hears no guesses;
* ``hnsf`` -- "hear nothing, see forward": players stand in a line, each sees
  all hats later in the line and hears nothing;
* ``hbsf`` -- "hear backward, see forward": as ``hnsf``, plus each player
  hears every earlier guess; the line starts with a distinguished front
  player at index ``-1``.

An instance fixes its play before any strategy is chosen: computed once per
instance, :attr:`Instance.steps` are the play steps in the canonical order
(:func:`topological_extension`) and :attr:`Instance.asked` the players asked.

The adversary picks a full color assignment (any map from players to colors);
the engine module derives the unique play of a strategy against it and scores
the play with the instance's evaluation rule.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from graphlib import CycleError, TopologicalSorter
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import CyclicHearing, ZeroSize

OMEGA = math.inf
"""Unbounded threshold for ``fewer_incorrect_than``: any finite error count wins."""

CANONICAL_KINDS = ("hnsa", "hnsf", "hbsf")


def _is_color(g, size: int) -> bool:
    """Whether ``g`` is one of ``size`` colors: an int, not a bool, in range."""
    return isinstance(g, int) and not isinstance(g, bool) and 0 <= g < size


@dataclass(frozen=True)
class ColorSpace:
    """The hat colors ``0 .. size-1``."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ZeroSize(f"need at least one color, got {self.size}")

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.size))

    def __contains__(self, color) -> bool:
        return _is_color(color, self.size)

    def __len__(self) -> int:
        return self.size


def as_colors(colors: ColorSpace | int) -> ColorSpace:
    return colors if isinstance(colors, ColorSpace) else ColorSpace(colors)


class RuleKind(Enum):
    AT_LEAST_CORRECT = "at_least"
    FEWER_INCORRECT_THAN = "fewer_incorrect"


@dataclass(frozen=True)
class EvaluationRule:
    """Win condition over the counts of correct and incorrect guesses.

    ``AT_LEAST_CORRECT`` with threshold k wins when at least k guesses are
    correct. ``FEWER_INCORRECT_THAN`` with threshold k wins when strictly
    fewer than k guesses are incorrect; its threshold may be :data:`OMEGA`,
    meaning any finite number of errors is acceptable.
    """

    kind: RuleKind
    threshold: int | float

    def __post_init__(self):
        t = self.threshold
        if t == OMEGA:
            if self.kind is not RuleKind.FEWER_INCORRECT_THAN:
                raise ValueError("an unbounded threshold only makes sense for fewer_incorrect_than")
            return
        if not isinstance(t, int) or isinstance(t, bool) or t < 0:
            raise ValueError(f"threshold must be a nonnegative integer or OMEGA, got {t!r}")

    def to_json(self) -> dict:
        t = "omega" if self.threshold == OMEGA else self.threshold
        return {"kind": self.kind.value, "threshold": t}

    @staticmethod
    def from_json(data: Mapping) -> "EvaluationRule":
        _json_object(data, "rule", ("kind", "threshold"))
        try:
            kind = RuleKind(data["kind"])
        except ValueError:
            raise ValueError(f"unknown rule {data['kind']!r}; use at_least or fewer_incorrect") from None
        return EvaluationRule(kind, _json_field(data, "rule", "threshold", form="threshold"))


def at_least(threshold: int) -> EvaluationRule:
    """Rule: win when at least ``threshold`` guesses are correct."""
    return EvaluationRule(RuleKind.AT_LEAST_CORRECT, threshold)


def fewer_incorrect_than(threshold: int | float) -> EvaluationRule:
    """Rule: win when strictly fewer than ``threshold`` guesses are wrong."""
    return EvaluationRule(RuleKind.FEWER_INCORRECT_THAN, threshold)


def _pairs(relation) -> frozenset:
    return frozenset((int(a), int(b)) for a, b in relation)


@dataclass(frozen=True)
class Instance:
    """One hat-guessing problem.

    ``players`` is a finite ordered set of integer ids. ``sight`` holds pairs
    ``(seen, seer)``: the seer may look at the seen player's hat. ``askings``
    lists the moments at which a guess is demanded and ``labeling[i]`` is the
    player asked at ``askings[i]`` (canonical instances ask each player once,
    at an asking carrying its own id). ``hearing`` holds pairs
    ``(earlier, later)``: the guess recorded at ``earlier`` is replayed to the
    player asked at ``later``. The hearing relation must be acyclic for play
    to be well defined; :func:`validate_instance` reports violations.
    """

    players: tuple[int, ...]
    colors: ColorSpace
    sight: frozenset[tuple[int, int]]
    askings: tuple[int, ...]
    hearing: frozenset[tuple[int, int]]
    labeling: tuple[int, ...]
    rule: EvaluationRule
    kind: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "players", tuple(int(p) for p in self.players))
        object.__setattr__(self, "colors", as_colors(self.colors))
        object.__setattr__(self, "sight", _pairs(self.sight))
        object.__setattr__(self, "askings", tuple(int(t) for t in self.askings))
        object.__setattr__(self, "hearing", _pairs(self.hearing))
        object.__setattr__(self, "labeling", tuple(int(m) for m in self.labeling))
        if not self.players:
            raise ZeroSize("an instance needs at least one player")

    @cached_property
    def label_map(self) -> dict[int, int]:
        return dict(zip(self.askings, self.labeling))

    def label_of(self, t: int) -> int:
        return self.label_map[t]

    @cached_property
    def _seen_by(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {m: [] for m in self.players}
        for seen, seer in self.sight:
            if seer in out:
                out[seer].append(seen)
        return {m: tuple(sorted(ms)) for m, ms in out.items()}

    def seen_by(self, player: int) -> tuple[int, ...]:
        """Players whose hats ``player`` may look at, in id order."""
        return self._seen_by.get(player, ())

    @cached_property
    def _heard_at(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {t: [] for t in self.askings}
        for earlier, later in self.hearing:
            if later in out:
                out[later].append(earlier)
        return {t: tuple(sorted(ts)) for t, ts in out.items()}

    def heard_at(self, t: int) -> tuple[int, ...]:
        """Askings whose recorded guesses are replayed before ``t``, in id order."""
        return self._heard_at.get(t, ())

    @cached_property
    def player_index(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.players)}

    @cached_property
    def steps(self) -> tuple[tuple[int, int, tuple[int, ...], tuple[int, ...]], ...]:
        """The play steps ``(t, player, seen, heard)`` in the canonical play order."""
        return _steps(self, topological_extension(self))

    @cached_property
    def asked(self) -> tuple[int, ...]:
        """The players the play steps ask, in first-asked order."""
        return tuple(dict.fromkeys(m for _, m, _, _ in self.steps))

    def assignment_count(self) -> int:
        return self.colors.size ** len(self.players)


def build_canonical_instance(kind: str, m: int, c: int, rule: EvaluationRule) -> Instance:
    """Construct one of the named instance families.

    ``m`` counts all players (for ``hbsf`` this includes the front player,
    who gets id ``-1``; the rest are ``0 .. m-2``). Each player is asked
    exactly once, at an asking carrying its own id.
    """
    kind = kind.lower()
    if kind not in CANONICAL_KINDS:
        raise ValueError(f"unknown canonical kind {kind!r}; expected one of {CANONICAL_KINDS}")
    if m < 1 or c < 1:
        raise ZeroSize(f"need at least one player and one color, got m={m}, c={c}")

    players = tuple(range(-1, m - 1)) if kind == "hbsf" else tuple(range(m))
    if kind == "hnsa":
        sight = frozenset((x, y) for x in players for y in players if x != y)
    else:
        # line order: earlier players see every later hat
        sight = frozenset((players[j], players[i]) for i in range(m) for j in range(i + 1, m))
    if kind == "hbsf":
        hearing = frozenset((players[i], players[j]) for i in range(m) for j in range(i + 1, m))
    else:
        hearing = frozenset()
    return Instance(
        players=players,
        colors=ColorSpace(c),
        sight=sight,
        askings=players,
        hearing=hearing,
        labeling=players,
        rule=rule,
        kind=kind,
    )


def hnsa(m: int, c: int, rule: EvaluationRule) -> Instance:
    """Everyone sees every other hat and hears nothing."""
    return build_canonical_instance("hnsa", m, c, rule)


def hnsf(m: int, c: int, rule: EvaluationRule) -> Instance:
    """A line; each player sees all later hats and hears nothing."""
    return build_canonical_instance("hnsf", m, c, rule)


def hbsf(m: int, c: int, rule: EvaluationRule) -> Instance:
    """A line with a front player at -1; later players hear all earlier guesses."""
    return build_canonical_instance("hbsf", m, c, rule)


def custom_instance(
    players: Sequence[int] | int,
    colors: ColorSpace | int,
    sight,
    rule: EvaluationRule,
    hearing=(),
    askings: Sequence[int] | None = None,
    labeling: Sequence[int] | None = None,
) -> Instance:
    """Build an arbitrary instance; askings/labeling default to one-per-player."""
    if isinstance(players, int):
        players = range(players)
    players = tuple(players)
    if askings is None:
        askings = players
    if labeling is None:
        labeling = tuple(askings)
    return Instance(
        players=players,
        colors=as_colors(colors),
        sight=sight,
        askings=tuple(askings),
        hearing=hearing,
        labeling=tuple(labeling),
        rule=rule,
        kind="custom",
    )


# --- validation -------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[str, ...]
    warnings: tuple[str, ...]
    hearing_cycle: tuple[int, ...] | None = None

    @property
    def valid(self) -> bool:
        return not self.errors


def _hearing_order(inst: Instance) -> TopologicalSorter:
    """The hearing relation between askings, prepared. Askings go in in
    instance order and pairs in id order; that fixes the cycle ``prepare()``
    finds, raised as :class:`CyclicHearing` without its repeated last asking."""
    order = TopologicalSorter(dict.fromkeys(inst.askings, ()))
    askings = set(inst.askings)
    for earlier, later in sorted(inst.hearing):
        if earlier in askings and later in askings:
            order.add(later, earlier)
    try:
        order.prepare()
    except CycleError as exc:
        raise CyclicHearing(exc.args[1][:-1]) from None
    return order


def topological_extension(inst: Instance, seed: int | None = None) -> tuple[int, ...]:
    """A linear order on askings extending the hearing relation, read from
    ``graphlib`` (:func:`_hearing_order` raises :class:`CyclicHearing`).

    With ``seed=None`` the choice among ready askings is always the least id,
    giving the canonical (lexicographically least) extension; an integer seed
    randomizes the tie-breaks, which is how the suite exercises that play does
    not depend on the extension.
    """
    sorter = _hearing_order(inst)
    rng = random.Random(seed) if seed is not None else None
    ready, order = sorted(sorter.get_ready()), []
    while ready:
        t = ready.pop(rng.randrange(len(ready)) if rng is not None else 0)
        order.append(t)
        sorter.done(t)
        for nxt in sorter.get_ready():
            bisect.insort(ready, nxt)
    return tuple(order)


def _steps(inst: Instance, order: Iterable[int]) -> tuple[tuple[int, int, tuple[int, ...], tuple[int, ...]], ...]:
    """The play steps ``(t, player, seen, heard)``, one per asking in ``order``."""
    return tuple((t, m, inst.seen_by(m), inst.heard_at(t)) for t in order for m in [inst.label_of(t)])


def find_hearing_cycle(inst: Instance) -> tuple[int, ...] | None:
    """Return some cycle of askings in the hearing relation, or None: the one
    ``graphlib`` finds by depth-first search in :func:`_hearing_order`."""
    try:
        _hearing_order(inst)
    except CyclicHearing as exc:
        return exc.cycle
    return None


def validate_instance(inst: Instance) -> ValidationReport:
    """Check well-formedness; reports errors instead of raising.

    An instance is valid exactly when every strategy can be played to
    completion on it: the hearing relation is acyclic, the asking ids are
    distinct, the labeling covers every asking with a real player, and all
    relations stay inside the declared players and askings.
    """
    errors: list[str] = []
    warnings: list[str] = []

    players = set(inst.players)
    askings = set(inst.askings)
    if len(inst.labeling) != len(inst.askings):
        errors.append(
            f"labeling covers {len(inst.labeling)} askings, instance has {len(inst.askings)}"
        )
    for t in sorted(t for t, k in Counter(inst.askings).items() if k > 1):
        errors.append(f"asking {t} appears more than once")
    for t, m in zip(inst.askings, inst.labeling):
        if m not in players:
            errors.append(f"asking {t} is labeled with unknown player {m}")
    for seen, seer in sorted(inst.sight):
        if seen not in players or seer not in players:
            errors.append(f"sight pair ({seen}, {seer}) mentions unknown players")
    for earlier, later in sorted(inst.hearing):
        if earlier not in askings or later not in askings:
            errors.append(f"hearing pair ({earlier}, {later}) mentions unknown askings")
    if inst.rule.threshold != OMEGA and inst.rule.threshold > len(inst.players):
        warnings.append(
            f"rule threshold {inst.rule.threshold} exceeds the player count {len(inst.players)}"
        )

    cycle = find_hearing_cycle(inst)
    if cycle is not None:
        errors.append(f"hearing relation has a cycle: {list(cycle)}")

    self_seers = sorted(seer for (seen, seer) in inst.sight if seen == seer and seer in players)
    for m in self_seers:
        warnings.append(f"player {m} sees its own hat, which trivializes its guess")

    return ValidationReport(tuple(errors), tuple(warnings), cycle)


# --- assignments ------------------------------------------------------------

Assignment = Mapping[int, int]
"""A total map from player id to hat color."""


def as_assignment(inst: Instance, values: Assignment | Sequence[int]) -> dict[int, int]:
    """Normalize an assignment given as a mapping or as colors in player order."""
    if isinstance(values, Mapping):
        a = {int(k): int(v) for k, v in values.items()}
        missing = [m for m in inst.players if m not in a]
        if missing:
            raise ValueError(f"assignment misses players {missing}")
        extra = sorted(set(a) - set(inst.players))
        if extra:
            raise ValueError(f"assignment mentions unknown players {extra}")
    else:
        values = tuple(values)
        if len(values) != len(inst.players):
            raise ValueError(
                f"assignment has {len(values)} colors, instance has {len(inst.players)} players"
            )
        a = {m: int(v) for m, v in zip(inst.players, values)}
    bad = {m: v for m, v in a.items() if not _is_color(v, inst.colors.size)}
    if bad:
        raise ValueError(f"assignment colors out of range 0..{inst.colors.size - 1}: {bad}")
    return a


def assignment_tuple(inst: Instance, a: Assignment) -> tuple[int, ...]:
    """The colors of ``a`` in player order (the serialization order)."""
    return tuple(a[m] for m in inst.players)


# --- JSON descriptors -------------------------------------------------------

def instance_to_json(inst: Instance) -> dict:
    """Serialize to the instance descriptor; canonical kinds omit relations."""
    out = {
        "kind": inst.kind,
        "players": len(inst.players),
        "colors": inst.colors.size,
        "rule": inst.rule.to_json(),
    }
    if inst.kind == "custom":
        out["sight"] = [list(p) for p in sorted(inst.sight)]
        out["hearing"] = [list(p) for p in sorted(inst.hearing)]
        out["labeling"] = list(inst.labeling)
    return out


def _json_object(data, what: str, required: Sequence[str]) -> Mapping:
    """``data``, once checked to be a JSON object holding every ``required`` key."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} descriptor must be a JSON object, got {type(data).__name__}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"{what} descriptor is missing {', '.join(map(repr, missing))}")
    return data


def _json_list(raw) -> list:
    if not isinstance(raw, (list, tuple)):
        raise TypeError("not a list")
    return list(raw)


def _json_int(raw) -> int:
    """An int (not a bool), an integral float or text that ``int()`` reads, as an int."""
    if type(raw) is int:  # the common case, first
        return raw
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str)) or (isinstance(raw, float) and not raw.is_integer()):
        raise ValueError(f"not an integer: {raw!r}")
    return int(raw)


def _int_pairs(raw) -> list[tuple[int, int]]:
    return [(_json_int(a), _json_int(b)) for a, b in map(_json_list, _json_list(raw))]


_FIELD_FORMS = {  # form: (reader, what it accepts)
    "int": (_json_int, "an integer"),
    "threshold": (lambda raw: OMEGA if raw == "omega" else _json_int(raw), "an integer or 'omega'"),
    "list": (_json_list, "a JSON list"),
    "ints": (lambda raw: [_json_int(x) for x in _json_list(raw)], "a list of integers"),
    "pairs": (_int_pairs, "a list of [id, id] pairs"),
    "observation": (_int_pairs, "a list of [id, color] pairs"),
}


def _json_field(data: Mapping, what: str, key: str, default=None, form: str = "int"):
    """The ``key`` field of a ``what`` descriptor read in ``form``, or ``default``
    when it is absent; any other value is a ``ValueError`` naming all three."""
    if key not in data:
        return default
    read, expects = _FIELD_FORMS[form]
    try:
        return read(data[key])
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} {key!r} must be {expects}, got {data[key]!r}") from None


def instance_from_json(data: Mapping) -> Instance:
    """Parse an instance descriptor (inverse of :func:`instance_to_json`)."""
    field = partial(_json_field, _json_object(data, "instance", ("players", "colors", "rule")), "instance")
    kind = str(data.get("kind", "custom")).lower()
    rule = EvaluationRule.from_json(data["rule"])
    m = field("players")
    c = field("colors")
    if kind in CANONICAL_KINDS:
        return build_canonical_instance(kind, m, c, rule)
    if kind != "custom":
        raise ValueError(f"unknown instance kind {kind!r}")
    labeling = None if data.get("labeling") is None else field("labeling", form="ints")
    askings = None if labeling is None else range(len(labeling))
    return custom_instance(m, c, field("sight", (), "pairs"), rule, hearing=field("hearing", (), "pairs"),
                           askings=askings, labeling=labeling)
