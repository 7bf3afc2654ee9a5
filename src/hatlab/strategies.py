"""Constructive strategies and the line adversary.

All strategies here are written for canonical instances, where each asking
carries the id of the player asked, so the asking argument doubles as the
player id.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Mapping, Sequence

from . import engine
from .engine import RuleStrategy, Strategy
from .errors import (
    BlockSizeMismatch,
    NeedsTwoColors,
    NotHBSF,
    TooManyBlocks,
    ZeroSize,
)
from .model import ColorSpace, Instance, _is_color, _json_field, _json_object, _Record, as_colors, at_least
from .model import custom_instance


class _Constant(RuleStrategy):
    """Everyone guesses ``color``; its set form is one full set."""

    def __init__(self, color: int, label: str):
        super().__init__(lambda t, seen, heard: color, label)
        self.color = color

    def decide_sets(self, t, seen, heard, full, colors):
        # an invalid color covers nothing, so the sweep replays the scalar error
        return [full if g == self.color and _is_color(self.color, colors) else 0 for g in range(colors)]


class _Affine(Strategy):
    """The rule guessing ``k + sum(a * v) mod size`` for ``terms(t, seen, heard)
    = (k, [(a, v), ...])``, each ``v`` read from ``seen`` or ``heard``. Given
    colors, ``terms`` gives ``decide``; given partitions, the set form, by one
    c x c convolution per term, so both share every guess and every error the
    rule raises."""

    def __init__(self, size: int, terms, label: str):
        self.size, self.terms, self.label = size, terms, label

    def decide(self, t, seen, heard):
        k, pairs = self.terms(t, seen, heard)
        return (k + sum(a * v for a, v in pairs)) % self.size

    def decide_sets(self, t, seen, heard, full, colors):
        k, pairs = self.terms(t, seen, heard)
        size = self.size
        acc = [0] * (k % size) + [full]
        for a, term in pairs:
            out = [0] * size
            for i, x in enumerate(acc):
                for j, y in enumerate(term):
                    out[(i + a * j) % size] |= x & y
            acc = out
        return (acc + [0] * colors)[:colors]  # sums past the colors leave the sets short of the chunk


def constant(color: int) -> Strategy:
    """Everyone guesses the same fixed color."""
    return _Constant(color, f"constant:{color}")


class BlockPartition(_Record):
    """Players split into same-size blocks plus an unused leftover."""

    blocks: tuple[tuple[int, ...], ...]
    leftover: tuple[int, ...]


def consecutive_blocks(players: Sequence[int], block_size: int, n: int) -> BlockPartition:
    """First ``n`` consecutive blocks of ``block_size`` players; rest is leftover."""
    if n < 0:
        raise ValueError(f"n must be a nonnegative block count, got {n}")
    if block_size < 1:
        raise ValueError(f"block_size must be positive, got {block_size}")
    players = tuple(players)
    if n * block_size > len(players):
        raise TooManyBlocks(
            f"{n} blocks of {block_size} need {n * block_size} players, have {len(players)}"
        )
    blocks = tuple(players[i * block_size:(i + 1) * block_size] for i in range(n))
    return BlockPartition(blocks, players[n * block_size:])


def mod_sum(block: Sequence[int], colors: ColorSpace | int) -> Strategy:
    """One guaranteed hit inside a block of exactly one player per color.

    Rename the block's players to 0..c-1 in id order. The player renamed r
    guesses ``r - (sum of the other block hats) mod c``: whatever the block's
    total is, the one player whose rename equals that total guesses right.
    Hats outside the block are ignored; players outside it guess 0.
    """
    colors = as_colors(colors)
    block = tuple(sorted(int(m) for m in block))
    repeated = [m for m, nxt in zip(block, block[1:]) if m == nxt]
    if repeated:
        raise BlockSizeMismatch(f"block lists player {repeated[0]} more than once")
    if len(block) != colors.size:
        raise BlockSizeMismatch(
            f"block has {len(block)} players, need exactly {colors.size} (one per color)"
        )
    rename = {m: r for r, m in enumerate(block)}

    def terms(t, seen, heard):
        if t not in rename:
            return 0, ()
        missing = [m for m in block if m != t and m not in seen]
        if missing:
            raise ValueError(f"player {t} cannot see block mates {missing}")
        return rename[t], [(-1, seen[m]) for m in block if m != t]

    return _Affine(colors.size, terms, f"mod_sum:{list(block)}")


def block_mod_sum(m: int, c: int, n: int) -> Strategy:
    """``n`` disjoint mod-sum blocks over players 0..m-1, one hit per block.

    Splits the players into ``n`` consecutive blocks of size ``c`` (leftover
    players guess 0) and combines the per-block strategies, guaranteeing at
    least ``n`` correct guesses on every assignment of ``hnsa(m, c)``.
    """
    return engine.CombinedStrategy(_block_parts(m, c, n))


def _block_parts(m: int, c: int, n: int) -> list[tuple[Instance, Strategy]]:
    """:func:`block_mod_sum`'s parts, once its arguments are checked; they fit
    ``hnsa(m, c)`` by construction, and ``m < 1`` fails as that instance would."""
    for name, value in (("m", m), ("c", c), ("n", n)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if c < 1:  # before ``m // c`` divides by it
        raise ZeroSize(f"need at least one color, got c={c}")
    if n > m // c:
        raise TooManyBlocks(f"{n} blocks of size {c} do not fit into {m} players")
    partition = consecutive_blocks(range(m), c, n)
    if m < 1:
        raise ZeroSize(f"need at least one player and one color, got m={m}, c={c}")
    parts: list[tuple[Instance, Strategy]] = []
    for block in partition.blocks:
        sub = custom_instance(
            players=block,
            colors=c,
            sight=[(x, y) for x in block for y in block if x != y],
            rule=at_least(1),
        )
        parts.append((sub, mod_sum(block, c)))
    if partition.leftover:
        sub = custom_instance(partition.leftover, c, sight=(), rule=at_least(0))
        parts.append((sub, constant(0)))
    return parts


def base_selector(base: int) -> Strategy:
    """Guess a fixed base color everywhere.

    This is the selector strategy over hat assignments that differ from the
    constant-``base`` one in finitely many places: each such assignment's
    class has the constant map as its chosen representative, so every player
    announces the representative's value at its own position, i.e. ``base``.
    The players that get it wrong are exactly the positions deviating from
    the base, and on the infinite line (see :mod:`hatlab.line`) there are
    only finitely many of those.
    """
    return _Constant(base, f"base_selector:{base}")


def sum_broadcast(colors: ColorSpace | int) -> Strategy:
    """Front player announces a running total; everyone behind decodes exactly.

    For the hear-backward-see-forward line: the front player (asking -1)
    announces the sum mod c of every hat it sees. A later player knows the
    hats beyond it (seen) and the true colors of the players before it
    (their guesses, which this scheme makes correct), so subtracting both
    from the announcement leaves exactly its own hat color. At most the
    front's own guess can be wrong.
    """

    def terms(t, seen, heard):
        if t == -1:
            return 0, [(1, v) for v in seen.values()]
        if -1 not in heard:
            raise NotHBSF(f"player {t} heard no front announcement; this strategy needs the "
                          "hear-backward-see-forward line")
        # the announcement, less every other hat seen and guess heard
        return 0, [*((-1, v) for v in seen.values()), *((1 if x == -1 else -1, v) for x, v in heard.items())]

    return _Affine(as_colors(colors).size, terms, "sum_broadcast")


def diagonal_adversary(strat: Strategy, inst: Instance) -> tuple[int, ...]:
    """An assignment on which every guess of ``strat`` is wrong.

    Only possible on the see-forward, hear-nothing line: each player's guess
    is forced by the hats later in the line, so filling hats from the back
    forward lets the adversary dodge every forced guess. Ties break to the
    least color differing from the guess. Returns colors in player order.
    """
    if inst.kind != "hnsf":
        raise ValueError("the diagonal adversary works on the canonical see-forward line")
    if inst.colors.size < 2:
        raise NeedsTwoColors("with one color every guess is correct; no adversary exists")
    a: dict[int, int] = {}
    for m in reversed(inst.players):
        seen = {x: a[x] for x in inst.seen_by(m)}
        forced = strat.decide(m, seen, {})
        a[m] = 0 if forced != 0 else 1
    return tuple(a[m] for m in inst.players)


def seeded_random_strategy(colors: ColorSpace | int, seed: int) -> Strategy:
    """A deterministic pseudo-random rule strategy (same triple, same guess)."""
    size = as_colors(colors).size

    def decide(t, seen, heard):
        key = f"{seed}|{t}|{sorted(seen.items())}|{sorted(heard.items())}"
        return random.Random(key).randrange(size)

    return RuleStrategy(decide, label=f"random:{seed}")


STRATEGY_PARAMS = {
    "constant": ("value",),
    "mod_sum": ("block",),
    "block_mod_sum": ("n",),
    "base_selector": ("base",),
    "sum_broadcast": (),
    "random": ("seed",),
    "table": ("entries",),
}
"""Each named strategy's parameters, the one a bare compact value sets first."""


def strategy_params(name) -> tuple[str, ...]:
    """The parameters of the strategy called ``name``, or a ``ValueError`` naming it."""
    if not isinstance(name, str) or name not in STRATEGY_PARAMS:
        raise ValueError(f"unknown strategy {name!r}")
    return STRATEGY_PARAMS[name]


def strategy_from_descriptor(desc: Mapping, inst: Instance) -> Strategy:
    """Build a strategy from a ``{"name": ..., "params": {...}}`` descriptor;
    a parameter the strategy does not take is a ``ValueError``."""
    name = _json_object(desc, "strategy", ("name",))["name"]
    params = dict(_json_object(desc.get("params") or {}, "strategy params", ()))
    takes = strategy_params(name)
    unknown = [key for key in params if key not in takes]
    if unknown:
        raise ValueError(f"strategy {name!r} has no parameter {', '.join(map(repr, unknown))}; "
                         f"it takes {', '.join(map(repr, takes)) or 'none'}")
    c = inst.colors.size
    m = len(inst.players)
    param = partial(_json_field, params, "strategy params")
    if name == "constant":
        return constant(param("value", 0))
    if name == "mod_sum":
        return mod_sum(param("block", inst.players[:c], "ints"), inst.colors)
    if name == "block_mod_sum":
        # combined against the instance played alone, so a misfit fails in ``combine``
        return engine.combine(_block_parts(m, c, param("n", m // c)), inst)
    if name == "base_selector":
        return base_selector(param("base", 0))
    if name == "sum_broadcast":
        return sum_broadcast(inst.colors)
    if name == "random":
        return seeded_random_strategy(inst.colors, param("seed", 0))
    from .tables import read_table

    return read_table(_json_object(params, "table strategy params", ("entries",))["entries"], inst)

