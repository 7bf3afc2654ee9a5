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
(:func:`topological_extension`), :attr:`Instance.asked` the players asked and
:attr:`Instance.influence` the hats each guess can depend on. An instance is
playable exactly when :func:`validate_instance` finds no error: the steps
raise :class:`CyclicHearing` for a cyclic hearing and ``ValueError`` with the
report's first error for any other. Both read one hearing order, or its
cycle, computed once per instance.

The adversary picks a full color assignment (any map from players to colors);
the engine module derives the unique play of a strategy against it and scores
the play with the instance's evaluation rule.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import Counter
from enum import Enum
from functools import cached_property, partial, reduce
from graphlib import CycleError, TopologicalSorter
from itertools import compress, repeat
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import CyclicHearing, ZeroSize

OMEGA = math.inf
"""Unbounded threshold for ``fewer_incorrect_than``: any finite error count wins."""

CANONICAL_KINDS = ("hnsa", "hnsf", "hbsf")


_BITS = bytes.maketrans(b"01", b"\0\1")


def _bits(s: int, n: int) -> bytes:
    """The ``n`` low bits of ``s`` as the bytes 0 and 1, bit ``i`` at index ``i``."""
    return format(s, f"0{n}b")[::-1].encode().translate(_BITS)


def _is_color(g, size: int) -> bool:
    """Whether ``g`` is one of ``size`` colors: an int, not a bool, in range."""
    return isinstance(g, int) and not isinstance(g, bool) and 0 <= g < size


class _Record:
    """A frozen record, as ``@dataclass(frozen=True)`` made one, with no code
    generated per class. A class's fields are its own annotations, in order,
    and a class attribute of a field's name is its default. ``__init__`` takes
    the fields by position or by keyword, then runs ``__post_init__``. The
    ``repr`` lists the fields, ``==`` holds only within one class, ``hash`` is
    that of the tuple of fields, and assigning or deleting an attribute raises
    ``dataclasses.FrozenInstanceError``."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: vars(cls)[f] for f in cls._fields if f in vars(cls)}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        if len(args) > len(fields) or kwargs.keys() & fields[:len(args)] or values.keys() != set(fields):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {', '.join(fields)}, "
                            f"by position or by keyword; got {len(args)} by position and {sorted(kwargs)}")
        vars(self).update((f, values[f]) for f in fields)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # off the import path: it loads ``inspect``
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class ColorSpace(_Record):
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


class EvaluationRule(_Record):
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


class Instance(_Record):
    """One hat-guessing problem.

    ``players`` is a finite ordered set of integer ids. ``sight`` holds pairs
    ``(seen, seer)``: the seer may look at the seen player's hat. ``askings``
    lists the moments at which a guess is demanded and ``labeling[i]`` is the
    player asked at ``askings[i]`` (canonical instances ask each player once,
    at an asking carrying its own id). ``hearing`` holds pairs
    ``(earlier, later)``: the guess recorded at ``earlier`` is replayed to the
    player asked at ``later``. The hearing relation must be acyclic for play
    to be well defined; :func:`validate_instance` reports violations, and
    :attr:`steps` refuses an instance with any.
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
    def _play_order(self) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
        """``(order, None)`` for the canonical play order, or ``(None, cycle)`` for
        the cycle it meets; ``steps`` and :func:`validate_instance` both read it."""
        try:
            return topological_extension(self), None
        except CyclicHearing as exc:
            return None, exc.cycle

    @cached_property
    def steps(self) -> tuple[tuple[int, int, tuple[int, ...], tuple[int, ...]], ...]:
        """The play steps ``(t, player, seen, heard)`` in the canonical play order;
        an instance :func:`validate_instance` rejects raises (see :func:`_steps`)."""
        order, cycle = self._play_order
        if cycle is not None:
            raise CyclicHearing(cycle)
        return _steps(self, order)

    @cached_property
    def asked(self) -> tuple[int, ...]:
        """The players the play steps ask, in first-asked order."""
        return tuple(dict.fromkeys(m for _, m, _, _ in self.steps))

    @cached_property
    def influence(self) -> dict[int, frozenset[int]]:
        """The players whose hats each asking's guess can depend on: those its
        player sees, and the influence of each asking it hears. Each is built
        as a bitmask over the players, then read out once."""
        bit = {x: 1 << i for i, x in enumerate(self.players)}
        masks: dict[int, int] = {}
        for t, _, vis, hrd in self.steps:
            masks[t] = reduce(or_, map(bit.__getitem__, vis), 0) | reduce(or_, map(masks.__getitem__, hrd), 0)
        return {t: frozenset(compress(bit, _bits(mask, len(bit)))) for t, mask in masks.items()}

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
    # generators: Instance builds each relation's frozenset once
    if kind == "hnsa":
        sight = ((x, y) for x in players for y in players if x != y)
    else:
        # line order: earlier players see every later hat
        sight = ((players[j], players[i]) for i in range(m) for j in range(i + 1, m))
    if kind == "hbsf":
        hearing = ((players[i], players[j]) for i in range(m) for j in range(i + 1, m))
    else:
        hearing = ()
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
    players = tuple(range(players) if isinstance(players, int) else players)
    askings = players if askings is None else tuple(askings)
    labeling = askings if labeling is None else labeling
    return Instance(players, colors, sight, askings, hearing, labeling, rule)


# --- validation -------------------------------------------------------------

class ValidationReport(_Record):
    errors: tuple[str, ...]
    warnings: tuple[str, ...]
    hearing_cycle: tuple[int, ...] | None = None

    @property
    def valid(self) -> bool:
        return not self.errors


def topological_extension(inst: Instance, seed: int | None = None) -> tuple[int, ...]:
    """A linear order on askings extending the hearing relation, read from
    ``graphlib``. Askings go in in instance order and pairs in id order; that
    fixes the cycle ``prepare()`` finds, raised as :class:`CyclicHearing`
    without its repeated last asking.

    With ``seed=None`` the choice among ready askings is always the least id,
    giving the canonical (lexicographically least) extension; an integer seed
    randomizes the tie-breaks, which is how the suite exercises that play does
    not depend on the extension.
    """
    sorter = TopologicalSorter(dict.fromkeys(inst.askings, ()))
    askings = set(inst.askings)
    for earlier, later in sorted(inst.hearing):
        if earlier in askings and later in askings:
            sorter.add(later, earlier)
    try:
        sorter.prepare()
    except CycleError as exc:
        raise CyclicHearing(exc.args[1][:-1]) from None
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
    """The play steps ``(t, player, seen, heard)``, one per asking in ``order``.
    The first id error :func:`validate_instance` reports, if any, is raised as
    a ``ValueError``, whether or not a step reads the id it names."""
    for error in _id_errors(inst):
        raise ValueError(error)
    return tuple((t, m, inst.seen_by(m), inst.heard_at(t)) for t in order for m in [inst.label_map[t]])


def _id_errors(inst: Instance) -> Iterator[str]:
    """The errors of :func:`validate_instance` that name an id, in its words and
    order. The relations are checked as ``_seen_by`` and ``_heard_at`` hold them,
    with set operations; the pairs are scanned and sorted only when that fails."""
    players, askings = set(inst.players), set(inst.askings)
    if len(inst.labeling) != len(inst.askings):
        yield f"labeling covers {len(inst.labeling)} askings, instance has {len(inst.askings)}"
    for t in sorted(t for t, k in Counter(inst.askings).items() if k > 1):
        yield f"asking {t} appears more than once"
    for t, m in zip(inst.askings, inst.labeling):
        if m not in players:
            yield f"asking {t} is labeled with unknown player {m}"
    # each list holds the first ids of the pairs whose second id is known: all
    # pairs are listed when the lengths add up, and all first ids are known when
    # every list is a subset
    seen, heard = inst._seen_by.values(), inst._heard_at.values()
    if sum(map(len, seen)) != len(inst.sight) or not all(map(players.issuperset, seen)):
        for pair in sorted(p for p in inst.sight if not players.issuperset(p)):
            yield f"sight pair {pair} mentions unknown players"
    if sum(map(len, heard)) != len(inst.hearing) or not all(map(askings.issuperset, heard)):
        for pair in sorted(p for p in inst.hearing if not askings.issuperset(p)):
            yield f"hearing pair {pair} mentions unknown askings"


def find_hearing_cycle(inst: Instance) -> tuple[int, ...] | None:
    """Return some cycle of askings in the hearing relation, or None: the one
    ``graphlib`` finds by depth-first search in :func:`topological_extension`."""
    return inst._play_order[1]


def validate_instance(inst: Instance) -> ValidationReport:
    """Check well-formedness; reports errors instead of raising.

    An instance is valid exactly when every strategy can be played to
    completion on it: the hearing relation is acyclic, the asking ids are
    distinct, the labeling covers every asking with a real player, and all
    relations stay inside the declared players and askings.
    """
    errors = list(_id_errors(inst))
    cycle = find_hearing_cycle(inst)
    if cycle is not None:
        errors.append(f"hearing relation has a cycle: {list(cycle)}")

    warnings: list[str] = []
    if inst.rule.threshold != OMEGA and inst.rule.threshold > len(inst.players):
        warnings.append(
            f"rule threshold {inst.rule.threshold} exceeds the player count {len(inst.players)}"
        )
    for m, _ in sorted(inst.sight.intersection(zip(inst.players, inst.players))):
        warnings.append(f"player {m} sees its own hat, which trivializes its guess")

    return ValidationReport(tuple(errors), tuple(warnings), cycle)


# --- assignments ------------------------------------------------------------

Assignment = Mapping[int, int]
"""A total map from player id to hat color."""


def as_assignment(inst: Instance, values: Assignment | Sequence[int]) -> dict[int, int]:
    """Normalize an assignment given as a mapping or as colors in player order."""
    if isinstance(values, Mapping):
        a = {int(k): v for k, v in values.items()}
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
        a = dict(zip(inst.players, values))
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


def _int_pairs(raw) -> tuple[tuple[int, int], ...]:
    """Pairs of integers from JSON, sorted (the order of a table key's observations).
    The list and each pair are lists or tuples: text such as ``"11"`` is not ``[1, 1]``."""
    if not isinstance(raw, (list, tuple)):
        raise TypeError("not a list")
    if not raw:  # the common case in a table that hears nothing
        return ()
    if not all(map(isinstance, raw, repeat((list, tuple)))):
        raise TypeError("not a list of pairs")
    pairs = [(_json_int(a), _json_int(b)) for a, b in raw]  # a pair of another length fails to unpack
    pairs.sort()
    return tuple(pairs)


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


MAX_PLAYERS = 1000
"""Most players a descriptor may declare; checked before any relation is built."""

MAX_COLORS = 1000
"""Most colors a descriptor may declare; past it, every sweep chunk is quadratic in the colors."""


def instance_from_json(data: Mapping) -> Instance:
    """Parse an instance descriptor (inverse of :func:`instance_to_json`).
    A player count past :data:`MAX_PLAYERS`, or a color count past
    :data:`MAX_COLORS`, is a ``ValueError``; the constructors themselves take
    any size."""
    field = partial(_json_field, _json_object(data, "instance", ("players", "colors", "rule")), "instance")
    kind = str(data.get("kind", "custom")).lower()
    rule = EvaluationRule.from_json(data["rule"])
    m = field("players")
    if m > MAX_PLAYERS:
        raise ValueError(f"instance 'players' must be at most {MAX_PLAYERS}, got {m}")
    c = field("colors")
    if c > MAX_COLORS:
        raise ValueError(f"instance 'colors' must be at most {MAX_COLORS}, got {c}")
    if kind in CANONICAL_KINDS:
        return build_canonical_instance(kind, m, c, rule)
    if kind != "custom":
        raise ValueError(f"unknown instance kind {kind!r}")
    labeling = None if data.get("labeling") is None else field("labeling", form="ints")
    askings = None if labeling is None else range(len(labeling))
    return custom_instance(m, c, field("sight", (), "pairs"), rule, hearing=field("hearing", (), "pairs"),
                           askings=askings, labeling=labeling)
