"""Table strategies: one guess per asking and observation, given extensionally.

Search witnesses and ``table`` descriptors are table strategies, and this is
the one module that knows their form. A table comes as ``TableStrategy(mapping)``,
from a descriptor's rows checked against an instance (:func:`read_table`), or
from one table per play step in rank order (:func:`from_steps`, as the search
builds its witnesses). Only the commands that read or build a table load it.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Sequence

from .engine import Strategy, _rank
from .errors import MissingTableEntry
from .model import Instance, _int_pairs, _json_field, _json_int, _json_object


class TableStrategy(Strategy):
    """Strategy given extensionally, one entry per (asking, seen, heard) triple.

    Entries are keyed by ``(t, seen, heard)``, each observation a tuple of
    ``(id, color)`` pairs in id order. They are held as one table per asking,
    seen ids and heard ids, from the rank of the colors, seen then heard, in
    base ``_base`` (the instance's colors, or one more than the largest color),
    to the guess. Keys no table ranks (a negative color, a guess other than an
    int >= 0) are kept aside as given. ``entries``, a read-only mapping, is built
    from both on first access. The table must cover every triple it is played on.
    """

    def __init__(self, entries: Mapping, label: str = "table"):
        self._tables, self._odd, self.label = {}, {}, label
        places = [(key, _place(key), guess) for key, guess in entries.items()]
        self._base = 1 + max((max(place[1], default=0) for _, place, _ in places if place), default=0)
        for key, place, guess in places:
            if place and type(guess) is int and guess >= 0:
                self._tables.setdefault(place[0], {})[_rank(place[1], self._base)] = guess
            else:
                self._odd[key] = guess

    @classmethod
    def _from_ranks(cls, tables: dict, base: int) -> "TableStrategy":
        """The table of ``tables``, ``(t, seen ids, heard ids) -> {rank: guess}``, ranked in ``base``."""
        table = cls({})
        table._tables, table._base = tables, base
        return table

    _entries = None

    @property
    def entries(self) -> Mapping:
        """Every key and its guess, built on first access and kept."""
        if self._entries is None:
            b, out = self._base, {}
            for (t, vis, hrd), guesses in self._tables.items():
                places = [b**k for k in reversed(range(len(vis) + len(hrd)))]
                for rank, guess in guesses.items():
                    colors = [rank // place % b for place in places]
                    out[t, tuple(zip(vis, colors)), tuple(zip(hrd, colors[len(vis):]))] = guess
            self._entries = MappingProxyType({**out, **self._odd})
        return self._entries

    def decide_sets(self, t, seen, heard, full, colors):
        vis, hrd = tuple(sorted(seen)), tuple(sorted(heard))
        guesses, base, cells = self._tables.get((t, vis, hrd)), self._base, [(0, full)]
        if guesses is None or colors > base:  # no table for these ids, or colors past its ranks: ``decide`` reads
            return super().decide_sets(t, seen, heard, full, colors)
        for part in [*map(seen.get, vis), *map(heard.get, hrd)]:
            cells = [(rank * base + g, sub) for rank, cell in cells for g, s in enumerate(part) if (sub := cell & s)]
        part = [0] * colors
        try:
            for rank, cell in cells:
                part[guesses[rank]] |= cell
        except (KeyError, IndexError):  # a missing entry or a guess past the colors: ``decide`` names it
            return super().decide_sets(t, seen, heard, full, colors)
        return part

    def decide(self, t, seen, heard):
        vis, hrd = sorted(seen), sorted(heard)
        colors, base = [*map(seen.get, vis), *map(heard.get, hrd)], self._base
        guesses = self._tables.get((t, tuple(vis), tuple(hrd)), {})
        if all(type(g) is int and 0 <= g < base for g in colors) and (rank := _rank(colors, base)) in guesses:
            return guesses[rank]
        try:  # the keys kept aside, and keys equal to a ranked one only as dict keys
            return self.entries[t, tuple(sorted(seen.items())), tuple(sorted(heard.items()))]
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
        return TableStrategy(_parse(rows))


def _place(key) -> tuple[tuple, list] | None:
    """``((t, seen ids, heard ids), colors)`` for a key ``(t, seen, heard)`` that a
    table ranks: each observation a tuple of ``(id, color)`` tuples, each color
    an int >= 0, seen then heard. Else ``None``."""
    if type(key) is tuple and len(key) == 3 and type(key[1]) is type(key[2]) is tuple:
        t, seen, heard = key
        if all(type(p) is tuple and len(p) == 2 and type(p[1]) is int and p[1] >= 0 for p in seen + heard):
            return (t, tuple(x for x, _ in seen), tuple(x for x, _ in heard)), [v for _, v in seen + heard]
    return None


def from_steps(inst: Instance, tables) -> TableStrategy:
    """The table strategy of one table per play step of ``inst``, each its guesses in rank order."""
    return TableStrategy._from_ranks({(t, seen, heard): dict(enumerate(table))
                                      for (t, _, seen, heard), table in zip(inst.steps, tables)}, inst.colors.size)


def read_table(rows, inst: Instance) -> TableStrategy:
    """The table of ``rows`` against ``inst``, ranked in one pass when every row
    is plain: int ``t`` and ``guess`` >= 0, ``[id, color]`` int lists in its asking's
    id order, colors 0..c-1, no entry twice. Else :func:`_parse` reads them again."""
    c = inst.colors.size
    tables = {(t, seen, heard): {} for t, _, seen, heard in inst.steps}
    reads = {t: (seen + heard, len(seen), len(heard), guesses) for (t, seen, heard), guesses in tables.items()}
    try:  # a row that is not plain raises, and all rows are read again below
        if type(rows) is not list:
            raise TypeError
        for row in rows:
            t, seen, heard, guess = row["t"], row["seen"], row["heard"], row["guess"]
            ids, n_seen, n_heard, guesses = reads[t]
            pairs = seen + heard
            if ((type(t), type(guess), type(pairs)) != (int, int, list) or guess < 0
                    or (len(seen), len(heard)) != (n_seen, n_heard)):
                raise TypeError
            rank = 0
            for pair, x in zip(pairs, ids):
                y, v = pair if type(pair) is list else ()
                if not (type(y) is type(v) is int and y == x and 0 <= v < c):
                    raise TypeError
                rank = rank * c + v
            guesses[rank] = guess
    except (KeyError, TypeError, ValueError):
        pass
    else:
        if sum(map(len, tables.values())) == len(rows):  # else a row repeats an entry
            return TableStrategy._from_ranks(tables, c)
    return TableStrategy(_parse(rows, inst))


def _parse(rows, inst: Instance | None = None) -> dict:
    """The entries of table ``rows``, or a ``ValueError`` naming the first fault:
    a malformed row, then a row giving an entry an earlier row gave, then, given
    ``inst``, a row no play of it reads (one not of its asking's seen and heard
    ids, in id order, each once, with colors 0..c-1)."""
    if not isinstance(rows, (list, tuple)):
        raise ValueError(f"table strategy 'entries' must be a JSON list, got {type(rows).__name__}")
    reads = {} if inst is None else {t: (seen, heard) for t, _, seen, heard in inst.steps}
    entries = {}
    repeat = unread = None  # (j, key, why) of the first row j that repeats an entry, and of the first unread
    for j, row in enumerate(rows):
        try:
            key = t, seen, heard = _json_int(row["t"]), _int_pairs(row["seen"]), _int_pairs(row["heard"])
            entries[key] = _json_int(row["guess"])
        except (KeyError, TypeError, ValueError, OverflowError):  # name the row's fault, off the fast path
            _json_object(row, "table row", ("t", "seen", "heard", "guess"))
            for field, form in (("seen", "observation"), ("heard", "observation"), ("t", "int"), ("guess", "int")):
                _json_field(row, "table row", field, form=form)
            raise
        if len(entries) == j and repeat is None:
            repeat = j, key, None
        if inst is None or unread:
            continue
        ids = reads.get(t)
        if ids is None:
            unread = j, key, f"the instance has no asking {t}"
        elif tuple(x for x, _ in seen) != ids[0]:
            unread = j, key, f"asking {t} sees players {list(ids[0])}"
        elif tuple(x for x, _ in heard) != ids[1]:
            unread = j, key, f"asking {t} hears askings {list(ids[1])}"
        elif not all(0 <= v < inst.colors.size for _, v in seen + heard):
            unread = j, key, f"its colors must be 0..{inst.colors.size - 1}"
    fault = repeat or unread  # after the loop, so that a malformed row anywhere is named first
    if fault:
        j, (t, seen, heard), why = fault
        entry = f"t={t} seen={[list(p) for p in seen]} heard={[list(p) for p in heard]}"
        if why:
            raise ValueError(f"table row {j}, the entry {entry}, is never read: {why}")
        # every row before j added a new key, so the first to give this entry is at its place in ``entries``
        raise ValueError(f"table rows {list(entries).index((t, seen, heard))} and {j} are both the entry {entry}")
    return entries
