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
    ``(id, color)`` pairs in id order, and every ``t``, id, color and guess
    an int, each color and guess >= 0; any other entry is refused with a
    ``ValueError`` naming it, and so are two keys naming one entry, their
    pairs in another order. They are held as one table per asking, seen ids
    and heard ids, from the rank of the colors, seen then heard, in base
    ``_base`` (the instance's colors, or one more than the largest color), to
    the guess. ``entries``, a read-only mapping, is built from them on first
    access. The table must cover every triple it is played on.
    """

    label = "table"

    def __init__(self, entries: Mapping):
        places = [(_place(key, guess), guess) for key, guess in entries.items()]
        self._tables, self._base = {}, 1 + max((max(colors, default=0) for (_, colors), _ in places), default=0)
        for (ids, colors), guess in places:
            self._tables.setdefault(ids, {})[_rank(colors, self._base)] = guess
        if sum(map(len, self._tables.values())) < len(places):  # two keys are one entry, their pairs reordered
            first = {}
            for key, ((ids, colors), _) in zip(entries, places):
                other = first.setdefault((ids, tuple(colors)), key)
                if other is not key:
                    raise ValueError(f"table entries {other!r} and {key!r} are one entry, their pairs in another order")

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
            self._entries = MappingProxyType(out)
        return self._entries

    def decide_sets(self, t, seen, heard, full, colors):
        # a missing table or entry raises, a guess past the colors raises, and a
        # color past the base leaves its cells out: the kernel's replay names each
        vis, hrd = tuple(sorted(seen)), tuple(sorted(heard))
        guesses, base, cells = self._tables[t, vis, hrd], self._base, [(0, full)]
        for part in [p[:base] for p in (*map(seen.get, vis), *map(heard.get, hrd))]:
            cells = [(rank * base + g, sub) for rank, cell in cells for g, s in enumerate(part) if (sub := cell & s)]
        part = [0] * colors
        for rank, cell in cells:
            part[guesses[rank]] |= cell
        return part

    def decide(self, t, seen, heard):
        vis, hrd = sorted(seen), sorted(heard)
        colors, base = [*map(seen.get, vis), *map(heard.get, hrd)], self._base
        guesses = self._tables.get((t, tuple(vis), tuple(hrd)), {})
        if all(type(g) is int and 0 <= g < base for g in colors) and (rank := _rank(colors, base)) in guesses:
            return guesses[rank]
        raise MissingTableEntry(f"table strategy has no entry for asking {t} "
                                f"with seen={dict(seen)} heard={dict(heard)}")

    def __getstate__(self):  # a pickle or copy leaves out the entries view, which pickle refuses
        return dict(vars(self), _entries=None)

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


def _place(key, guess) -> tuple[tuple, list]:
    """``((t, seen ids, heard ids), colors)`` of the entry ``key: guess``, each
    observation's pairs in id order as the JSON readers sort them, seen colors
    then heard, or a ``ValueError`` naming an entry a table cannot rank."""
    if type(key) is tuple and len(key) == 3 and type(key[1]) is type(key[2]) is tuple:
        t, seen, heard = key
        if type(t) is type(guess) is int and guess >= 0 and all(
                type(p) is tuple and len(p) == 2 and type(p[0]) is type(p[1]) is int and p[1] >= 0 for p in seen + heard):
            seen, heard = sorted(seen), sorted(heard)
            return (t, tuple(x for x, _ in seen), tuple(x for x, _ in heard)), [v for _, v in seen + heard]
    raise ValueError(f"table entry {key!r}: {guess!r} is refused: an entry is (t, seen, heard): guess, seen and "
                     "heard tuples of (id, color) pairs, all ints, colors and guess >= 0")


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
