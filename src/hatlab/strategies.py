"""Constructive strategies and the line adversary.

All strategies here are written for canonical instances, where each asking
carries the id of the player asked, so the asking argument doubles as the
player id.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import engine
from .engine import RuleStrategy, Strategy, TableStrategy
from .errors import (
    BlockSizeMismatch,
    NeedsTwoColors,
    NotHBSF,
    TooManyBlocks,
)
from .model import ColorSpace, Instance, as_colors, at_least, custom_instance, hnsa


def constant(color: int) -> Strategy:
    """Everyone guesses the same fixed color."""

    def sets(t, seen, heard, full, colors):
        # an invalid color covers nothing, so the sweep replays the scalar error
        return [full if g == color and engine._is_color(color, colors) else 0 for g in range(colors)]

    return RuleStrategy(lambda t, seen, heard: color, label=f"constant:{color}", sets=sets)


def _mod_sum(full: int, start: int, terms, size: int, colors: int) -> list[int]:
    """The partition of ``start + sum(sign * term) mod size`` over ``(sign,
    term)`` pairs, by one c x c convolution per term, as ``colors`` sets (sums
    past the instance's colors leave them short of the chunk, as they must)."""
    acc = [0] * start + [full]
    for sign, term in terms:
        out = [0] * size
        for a, x in enumerate(acc):
            for b, y in enumerate(term):
                out[(a + sign * b) % size] |= x & y
        acc = out
    return (acc + [0] * colors)[:colors]


@dataclass(frozen=True)
class BlockPartition:
    """Players split into same-size blocks plus an unused leftover."""

    blocks: tuple[tuple[int, ...], ...]
    leftover: tuple[int, ...]


def consecutive_blocks(players: Sequence[int], block_size: int, n: int) -> BlockPartition:
    """First ``n`` consecutive blocks of ``block_size`` players; rest is leftover."""
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
    if len(block) != colors.size:
        raise BlockSizeMismatch(
            f"block has {len(block)} players, need exactly {colors.size} (one per color)"
        )
    rename = {m: r for r, m in enumerate(block)}
    members = frozenset(block)
    size = colors.size

    def decide(t, seen, heard):
        if t not in members:
            return 0
        others = members - {t}
        if not others <= seen.keys():
            missing = sorted(others - seen.keys())
            raise ValueError(f"player {t} cannot see block mates {missing}")
        return (rename[t] - sum(seen[m] for m in others)) % size

    def sets(t, seen, heard, full, colors):
        terms = [(-1, seen[m]) for m in members - {t}] if t in members else ()
        return _mod_sum(full, rename.get(t, 0), terms, size, colors)

    return RuleStrategy(decide, label=f"mod_sum:{list(block)}", sets=sets)


def block_mod_sum(m: int, c: int, n: int) -> Strategy:
    """``n`` disjoint mod-sum blocks over players 0..m-1, one hit per block.

    Splits the players into ``n`` consecutive blocks of size ``c`` (leftover
    players guess 0) and combines the per-block strategies, guaranteeing at
    least ``n`` correct guesses on every assignment.
    """
    if n > m // c:
        raise TooManyBlocks(f"{n} blocks of size {c} do not fit into {m} players")
    partition = consecutive_blocks(range(m), c, n)
    target = hnsa(m, c, at_least(n))
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
    return engine.combine(parts, target)


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
    strat = constant(base)
    strat.label = f"base_selector:{base}"
    return strat


def sum_broadcast(colors: ColorSpace | int) -> Strategy:
    """Front player announces a running total; everyone behind decodes exactly.

    For the hear-backward-see-forward line: the front player (asking -1)
    announces the sum mod c of every hat it sees. A later player knows the
    hats beyond it (seen) and the true colors of the players before it
    (their guesses, which this scheme makes correct), so subtracting both
    from the announcement leaves exactly its own hat color. At most the
    front's own guess can be wrong.
    """
    colors = as_colors(colors)
    size = colors.size

    def no_front(t):
        return NotHBSF(
            f"player {t} heard no front announcement; this strategy needs the "
            "hear-backward-see-forward line"
        )

    def decide(t, seen, heard):
        if t == -1:
            return sum(seen.values()) % size
        if -1 not in heard:
            raise no_front(t)
        behind = sum(v for x, v in heard.items() if x != -1)
        return (heard[-1] - sum(seen.values()) - behind) % size

    def sets(t, seen, heard, full, colors):
        if t == -1:
            return _mod_sum(full, 0, [(1, part) for part in seen.values()], size, colors)
        if -1 not in heard:
            raise no_front(t)
        rest = [*seen.values(), *(part for x, part in heard.items() if x != -1)]
        return _mod_sum(full, 0, [(1, heard[-1]), *((-1, part) for part in rest)], size, colors)

    return RuleStrategy(decide, label="sum_broadcast", sets=sets)


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


def strategy_from_descriptor(desc: Mapping, inst: Instance) -> Strategy:
    """Build a strategy from a ``{"name": ..., "params": {...}}`` descriptor."""
    name = desc.get("name")
    params = dict(desc.get("params") or {})
    c = inst.colors.size
    m = len(inst.players)
    if name == "constant":
        return constant(int(params.get("value", 0)))
    if name == "mod_sum":
        block = params.get("block", inst.players[:c])
        return mod_sum([int(x) for x in block], inst.colors)
    if name == "block_mod_sum":
        n = int(params.get("n", m // c))
        return block_mod_sum(m, c, n)
    if name == "base_selector":
        return base_selector(int(params.get("base", 0)))
    if name == "sum_broadcast":
        return sum_broadcast(inst.colors)
    if name == "random":
        return seeded_random_strategy(inst.colors, int(params.get("seed", 0)))
    if name == "table":
        return TableStrategy.from_json(params["entries"])
    raise ValueError(f"unknown strategy {name!r}")
