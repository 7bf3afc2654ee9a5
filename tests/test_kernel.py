"""The set kernel against the scalar reference.

``sweep``, ``is_winning``, ``iter_plays`` and ``correct_count_census`` all run
on the chunked set kernel; here each must agree with a plain ``run_game``
loop over ``itertools.product``, including the exceptions it raises and the
plays streamed before them.
"""

import functools
import itertools
import operator
import random
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hatlab import (
    MissingTableEntry,
    RuleStrategy,
    StrategyRangeError,
    TableStrategy,
    at_least,
    block_mod_sum,
    constant,
    correct_count_census,
    custom_instance,
    fewer_incorrect_than,
    hbsf,
    hnsa,
    hnsf,
    is_winning,
    iter_plays,
    mod_sum,
    run_game,
    seeded_random_strategy,
    sum_broadcast,
    sweep,
)
from hatlab import engine, strategies
from test_oracle import SPACES

CHUNK_SIZES = [1, 2, 3, 5, 16, engine.CHUNK_PLAYS]
CHUNKS = st.sampled_from(CHUNK_SIZES)


# --- the scalar reference ------------------------------------------------------

def reference_plays(inst, strat):
    for values in itertools.product(range(inst.colors.size), repeat=len(inst.players)):
        yield values, run_game(inst, strat, values)


def outcome(fn):
    """``fn()``'s value, or the type and message of what it raised."""
    try:
        return "ok", fn()
    except Exception as exc:  # the comparison is the point
        return "raised", (type(exc), str(exc))


def drain(plays):
    """The plays a stream yields, and what it raised after them, if anything."""
    out = []
    try:
        for play in plays:
            out.append(play)
    except Exception as exc:
        return out, (type(exc), str(exc))
    return out, None


def reference_sweep(inst, strat):
    asked = len(set(inst.labeling))
    min_correct, max_incorrect, counterexample = asked, 0, None
    for values, result in reference_plays(inst, strat):
        min_correct = min(min_correct, result.correct_count)
        max_incorrect = max(max_incorrect, result.incorrect_count)
        if counterexample is None and not result.verdict:
            counterexample = values
    return engine.SweepReport(inst.assignment_count(), min_correct, max_incorrect,
                              counterexample is None, counterexample)


def reference_is_winning(inst, strat):
    for values, result in reference_plays(inst, strat):
        if not result.verdict:
            return False, values
    return True, None


def reference_census(inst, strat):
    return sum(result.correct_count for _, result in reference_plays(inst, strat))


def assert_matches_reference(inst, strat, chunk):
    with mock.patch.object(engine, "CHUNK_PLAYS", chunk):
        got_plays = drain(iter_plays(inst, strat))
        got = [outcome(lambda: f(inst, strat)) for f in (sweep, is_winning, correct_count_census)]
    want = [outcome(lambda: f(inst, strat))
            for f in (reference_sweep, reference_is_winning, reference_census)]
    assert got == want
    want_plays = drain(reference_plays(inst, strat))
    assert got_plays == want_plays
    for (_, got_result), (_, want_result) in zip(got_plays[0], want_plays[0]):
        assert list(got_result.guesses) == list(want_result.guesses)  # play order


# --- random instances and strategies ---------------------------------------------

@st.composite
def instances(draw):
    """Small custom instances: any sight (self-sight too), acyclic hearing,
    askings repeated or missing per player, either rule kind."""
    c = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4 if c <= 3 else 3))
    players = range(n)
    sight = draw(st.lists(st.tuples(st.sampled_from(players), st.sampled_from(players)), max_size=8))
    askings = draw(st.integers(0, n + 2))
    labeling = draw(st.lists(st.sampled_from(players), min_size=askings, max_size=askings))
    order = draw(st.permutations(range(askings)))
    hearing = [(order[i], order[j]) for i in range(askings) for j in range(i + 1, askings)
               if draw(st.booleans())]
    k = draw(st.integers(0, n + 1))
    rule = at_least(k) if draw(st.booleans()) else fewer_incorrect_than(k)
    return custom_instance(players, c, sight, rule, hearing=hearing,
                           askings=range(askings), labeling=labeling)


def observations(inst, t):
    vis, hrd = inst.seen_by(inst.label_of(t)), inst.heard_at(t)
    c = inst.colors.size
    for av in itertools.product(range(c), repeat=len(vis)):
        for gv in itertools.product(range(c), repeat=len(hrd)):
            yield tuple(zip(vis, av)), tuple(zip(hrd, gv))


def full_table(inst, rng):
    return TableStrategy({
        (t, seen, heard): rng.randrange(inst.colors.size)
        for t in inst.askings
        for seen, heard in observations(inst, t)
    })


@given(instances(), st.integers(0, 10**6), CHUNKS)
@settings(max_examples=60, deadline=None)
def test_memo_fallback_matches_scalar(inst, seed, chunk):
    assert_matches_reference(inst, seeded_random_strategy(inst.colors, seed), chunk)


@given(instances(), st.integers(0, 10**6), CHUNKS)
@settings(max_examples=60, deadline=None)
def test_table_gather_matches_scalar(inst, seed, chunk):
    assert_matches_reference(inst, full_table(inst, random.Random(seed)), chunk)


@given(instances(), st.data(), CHUNKS)
@settings(max_examples=60, deadline=None)
def test_column_functions_match_scalar(inst, data, chunk):
    c = inst.colors.size
    # mod_sum's block must see itself whole; on most random instances it does
    # not, and the set form must fail exactly as ``decide`` does
    block = data.draw(st.permutations(inst.players))[:c]
    strats = [constant(data.draw(st.integers(0, c - 1))), sum_broadcast(c)]
    if len(block) == c:
        strats.append(mod_sum(block, c))
    for strat in strats:
        assert_matches_reference(inst, strat, chunk)


@given(instances(), st.data(), CHUNKS)
@settings(max_examples=60, deadline=None)
def test_set_forms_for_another_color_count_match_scalar(inst, data, chunk):
    # a strategy written for another color count: its sums wrap at its own c,
    # and its guesses past the instance's colors fail as in the scalar loop
    other = data.draw(st.integers(1, 5))
    strats = [constant(data.draw(st.integers(-1, inst.colors.size))), sum_broadcast(other)]
    if len(inst.players) >= other:
        strats.append(mod_sum(inst.players[:other], other))
    for strat in strats:
        assert_matches_reference(inst, strat, chunk)


@given(instances(), st.data(), CHUNKS)
@settings(max_examples=60, deadline=None)
def test_affine_rules_match_scalar(inst, data, chunk):
    # k + sum(a * v) mod size, with any coefficient of 0..size-1 on any hat the
    # asking sees or guess it hears, read any number of times; a size other
    # than the instance's wraps at its own c, and its guesses past the
    # instance's colors fail as in the scalar loop
    size = data.draw(st.just(inst.colors.size) | st.integers(1, 5))
    forms = {}
    for t in inst.askings:
        reads = [*((0, x) for x in inst.seen_by(inst.label_of(t))), *((1, y) for y in inst.heard_at(t))]
        pairs = st.lists(st.tuples(st.integers(0, size - 1), st.sampled_from(reads)), max_size=4)
        forms[t] = data.draw(st.integers(0, 2 * size)), data.draw(pairs) if reads else []

    def rule(raising):
        def terms(t, seen, heard):
            if t in raising:
                raise RuntimeError(f"no rule at asking {t}")
            k, pairs = forms[t]
            return k, [(a, (seen, heard)[where][x]) for a, (where, x) in pairs]

        return strategies._Affine(size, terms, "affine")

    assert_matches_reference(inst, rule(()), chunk)
    if inst.askings:  # a rule that raises fails at the same play in both forms
        assert_matches_reference(inst, rule(data.draw(st.sets(st.sampled_from(inst.askings), min_size=1))), chunk)


def relay_table():
    """A table on ``hbsf`` 4x2 holding only the observations that occur: the
    front always guesses 1, so each later asking has entries for a heard
    front guess of 1 and none for 0."""
    inst = hbsf(4, 2, fewer_incorrect_than(2))
    entries = {}
    for t in inst.askings:
        for seen, heard in observations(inst, t):
            if all(g == 1 for x, g in heard if x == -1):
                entries[(t, seen, heard)] = 1 if t == -1 else (sum(c for _, c in seen) + len(heard)) % 2
    return inst, TableStrategy(entries)


def wide_colors(raises):
    """300 colors, past one byte: one player who sees only its own hat and
    guesses ``299 - hat``; with ``raises`` it gives up at hat 200."""

    def decide(t, seen, heard):
        if raises and seen[0] == 200:
            fail(t)
        return 299 - seen[0]

    return custom_instance(1, 300, [(0, 0)], at_least(1)), RuleStrategy(decide, label="wide")


@pytest.mark.parametrize("chunk", [1, 2, 4, 7, 8, 16, engine.CHUNK_PLAYS])
@pytest.mark.parametrize("inst, strat", [
    (hnsa(5, 2, at_least(2)), block_mod_sum(5, 2, 2)),
    (hnsa(4, 3, at_least(1)), block_mod_sum(4, 3, 1)),
    (hnsa(4, 2, at_least(3)), block_mod_sum(4, 2, 2)),
    (hbsf(5, 3, fewer_incorrect_than(2)), sum_broadcast(3)),
    (hbsf(4, 2, fewer_incorrect_than(1)), sum_broadcast(2)),
    (hnsa(4, 3, at_least(1)), constant(2)),
    relay_table(),
    # 10 askings: a play's wrong pattern takes more than one byte
    (hnsa(10, 2, at_least(5)), block_mod_sum(10, 2, 5)),
    (hbsf(10, 2, fewer_incorrect_than(1)), sum_broadcast(2)),
    wide_colors(raises=False),
    wide_colors(raises=True),
])
def test_constructive_strategies_match_scalar(inst, strat, chunk):
    assert_matches_reference(inst, strat, chunk)


# --- errors ----------------------------------------------------------------------

def sometimes(strat, bad, seed):
    """``strat``, except that ``bad(t)`` happens on a seeded quarter of the
    observations; the ``decide`` adapter then has to meet it mid-chunk."""

    def decide(t, seen, heard):
        if random.Random(f"{seed}|{t}|{sorted(seen.items())}|{sorted(heard.items())}").random() < 0.25:
            return bad(t)
        return strat.decide(t, seen, heard)

    return RuleStrategy(decide, label="sometimes")


def fail(t):
    raise RuntimeError(f"strategy gave up at asking {t}")


@given(instances(), st.integers(0, 10**6), CHUNKS)
@settings(max_examples=60, deadline=None)
def test_out_of_range_guess_fails_as_in_scalar(inst, seed, chunk):
    base = seeded_random_strategy(inst.colors, seed)
    for bad in (lambda t: inst.colors.size, lambda t: -1, lambda t: True, lambda t: 1.0):
        assert_matches_reference(inst, sometimes(base, bad, seed), chunk)


@given(instances(), st.integers(0, 10**6), CHUNKS)
@settings(max_examples=60, deadline=None)
def test_raising_strategy_fails_as_in_scalar(inst, seed, chunk):
    assert_matches_reference(inst, sometimes(seeded_random_strategy(inst.colors, seed), fail, seed), chunk)


@given(instances(), st.integers(0, 10**6), CHUNKS)
@settings(max_examples=60, deadline=None)
def test_missing_table_entry_fails_as_in_scalar(inst, seed, chunk):
    rng = random.Random(seed)
    entries = full_table(inst, rng).entries
    table = TableStrategy({key: entries[key] for key in sorted(entries) if rng.random() >= 0.2})
    assert_matches_reference(inst, table, chunk)


@given(instances(), st.integers(0, 10**6), CHUNKS)
@settings(max_examples=60, deadline=None)
def test_a_table_short_of_the_top_colors_decides_as_its_entries(inst, seed, chunk):
    """A table built from entries ranks them in base one more than its largest
    color, so a play may present colors past that base: every such observation
    misses, in ``decide`` and in the sweeps alike, and every other reads its entry."""
    rng = random.Random(seed)
    top = rng.randrange(inst.colors.size)
    entries = {key: guess for key, guess in full_table(inst, rng).entries.items()
               if all(v <= top for _, v in key[1] + key[2]) and rng.random() < 0.9}
    table = TableStrategy(entries)
    for t in inst.askings:
        for seen, heard in observations(inst, t):
            if (t, seen, heard) in entries:
                assert table.decide(t, dict(seen), dict(heard)) == entries[t, seen, heard]
            else:
                with pytest.raises(MissingTableEntry):
                    table.decide(t, dict(seen), dict(heard))
    assert_matches_reference(inst, table, chunk)


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@given(inst=instances(), seed=st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_a_table_set_form_leaves_every_miss_to_the_replay(inst, seed, chunk):
    """A partial table, and one short of the top colors, sweep as the scalar
    loop plays them without the ``decide`` adapter: a missing table or entry
    raises and a color past the base falls short, and the replay names each."""
    rng = random.Random(seed)
    entries = full_table(inst, rng).entries
    top = rng.randrange(inst.colors.size)
    tables = [TableStrategy({key: g for key, g in entries.items() if rng.random() >= 0.2}),
              TableStrategy({key: g for key, g in entries.items() if all(v <= top for _, v in key[1] + key[2])})]

    def adapter(*args):
        raise AssertionError("a table's set form called the decide adapter")

    with mock.patch.object(engine.Strategy, "decide_sets", adapter):
        for table in tables:
            assert_matches_reference(inst, table, chunk)


def test_out_of_range_column_function_reports_the_scalar_error():
    inst = hnsa(3, 2, at_least(1))
    with pytest.raises(StrategyRangeError, match="strategy returned 2 at asking 0"):
        sweep(inst, constant(2))


@pytest.mark.parametrize("color", [-1, True, 1.0])
def test_out_of_range_set_form_reports_the_scalar_error(color):
    # True and 1.0 equal the color 1, but the scalar play rejects them
    inst = hnsa(3, 2, at_least(1))
    with pytest.raises(StrategyRangeError, match=f"strategy returned {color!r} at asking 0"):
        sweep(inst, constant(color))


def assert_bad_partition_is_reported(fault):
    # the replay cannot reproduce a fault of the set form alone; its own error stands
    class Faulty(RuleStrategy):
        def decide_sets(self, t, seen, heard, full, colors):
            return fault(full)

    strat = Faulty(lambda t, s, h: 0)
    # one chunk; then two chunks of 4 in which every asking is steady, so
    # its partition is checked in the first chunk before any reuse
    for inst, chunk in [(hnsa(3, 2, at_least(1)), engine.CHUNK_PLAYS), (hnsf(3, 2, at_least(1)), 4)]:
        with mock.patch.object(engine, "CHUNK_PLAYS", chunk):
            with pytest.raises(ValueError, match="decide_sets did not split the chunk into 2 disjoint sets at asking 0$"):
                sweep(inst, strat)
        assert run_game(inst, strat, (0, 0, 0)).correct_count == 3


def test_wrong_batch_is_reported_when_decide_is_fine():
    # an assignment in no set: the set form of a guess column one short
    assert_bad_partition_is_reported(lambda full: [full & ~1, 0])


@pytest.mark.parametrize("fault", [
    lambda full: [full, 1],  # overlapping sets
    lambda full: [full & ~1, 2],  # an overlap hiding a gap: the sizes add up
    lambda full: [full & ~1, full + 1],  # an assignment outside the chunk in place of one inside
    lambda full: [full],  # too few sets
    lambda full: [full, 0, 0],  # too many sets
], ids=["overlap", "overlap-and-gap", "outside", "too-few", "too-many"])
def test_bad_partition_is_reported_when_decide_is_fine(fault):
    assert_bad_partition_is_reported(fault)


# --- hat partitions and the partition check ---------------------------------------

def reference_hat_sets(c, width):
    """Digit by digit: trailing player ``j`` wears ``g`` on assignment ``i`` of
    the ``c ** width`` where ``i``'s base-``c`` digit of place ``stride`` is ``g``."""
    n = c**width
    hats = []
    for j in range(width):
        stride = c ** (width - 1 - j)
        digits = [(i // stride) % c for i in range(n)]
        hats.append([int("".join("1" if d == g else "0" for d in reversed(digits)), 2) for g in range(c)])
    return hats


@pytest.mark.parametrize("c", [1, 2, 3, 5])
def test_hat_partitions_are_the_base_c_digits(c):
    # every width a chunk can take, up to the chunk limit (one color: up to 16 players)
    widths = range(17) if c == 1 else itertools.takewhile(lambda w: c**w <= engine.CHUNK_PLAYS, itertools.count())
    for width in widths:
        assert engine._hat_sets(c, width) == reference_hat_sets(c, width)


def popcount_partition(part, size, full):
    """The partition check as first written: the sets cover ``full``, and their sizes add up to its size."""
    return len(part) == size and functools.reduce(operator.or_, part) == full and \
        sum(map(int.bit_count, part)) == full.bit_count()


PARTITION_EDGES = [
    ([7], 1, 7), ([0b101, 0b010], 2, 7), ([0, 7, 0], 3, 7),  # partitions
    ([7, 1], 2, 7), ([6, 3], 2, 7), ([6, 2], 2, 7),  # an overlap; an overlap hiding a gap
    ([6, 0], 2, 7), ([0, 0], 2, 7),  # short covers
    ([6, 9], 2, 7), ([7, 8], 2, 7), ([15], 1, 7),  # bits past full
    ([-1], 1, 7), ([7, -8], 2, 7), ([-8, 7], 2, 7), ([8, -1], 2, 7), ([1, -2], 2, 1),  # negative ints
    ([7], 2, 7), ([3, 4], 1, 7), ([3, 4, 0], 2, 7), ([], 1, 7),  # the wrong length
]


@pytest.mark.parametrize("part, size, full", PARTITION_EDGES)
def test_partition_check_agrees_with_the_popcount_definition_on_edges(part, size, full):
    assert engine._is_partition(part, size, full) == popcount_partition(part, size, full)


def test_partition_check_agrees_with_the_popcount_definition_at_random():
    rng = random.Random(32)
    kinds = {True: 0, False: 0}
    for _ in range(3000):
        size, n = rng.randint(1, 5), rng.randint(1, 70)
        full = (1 << n) - 1
        part = [0] * size
        for i in range(n):  # a partition of full, then perhaps broken
            part[rng.randrange(size)] |= 1 << i
        for _ in range(rng.choice([0, 0, 1, 2])):
            k, bit = rng.randrange(size), 1 << rng.randrange(n + 3)
            part[k] = rng.choice([part[k] ^ bit, part[k] | bit, -part[k] - 1, rng.getrandbits(n + 2)])
        if rng.random() < 0.1:
            part = part[:-1] if rng.random() < 0.5 else part + [rng.getrandbits(n)]
        got = engine._is_partition(part, size, full)
        assert got == popcount_partition(part, size, full)
        kinds[got] += 1
    assert min(kinds.values()) > 500  # both answers are common


# --- hat partitions kept on the instance -------------------------------------------

@pytest.mark.parametrize("inst, strat", [
    (hbsf(5, 3, fewer_incorrect_than(2)), sum_broadcast(3)),
    (hnsa(5, 3, at_least(1)), seeded_random_strategy(3, 7)),
], ids=["hbsf-5x3-broadcast", "hnsa-5x3-random"])
def test_one_instance_swept_at_several_widths_plays_as_a_fresh_one(inst, strat):
    # chunks of 4, 16 and CHUNK_PLAYS plays are widths 1, 2 and 5, all kept on
    # the one instance; the last pass reuses width 1's
    want_report, want_plays = reference_sweep(inst, strat), list(reference_plays(inst, strat))
    for chunk in (4, 16, engine.CHUNK_PLAYS, 4):
        with mock.patch.object(engine, "CHUNK_PLAYS", chunk):
            assert sweep(inst, strat) == sweep(inst, strat) == want_report
            assert list(iter_plays(inst, strat)) == want_plays
    assert inst.trailing_hats == {w: tuple(map(tuple, reference_hat_sets(3, w))) for w in (1, 2, 5)}


def test_hat_partitions_are_built_once_per_instance_and_width():
    insts = [hbsf(5, 3, fewer_incorrect_than(2)), hnsa(5, 3, at_least(1))]
    with mock.patch.object(engine, "_hat_sets", wraps=engine._hat_sets) as build:
        for _ in range(2):
            for chunk in (4, 16, engine.CHUNK_PLAYS):
                with mock.patch.object(engine, "CHUNK_PLAYS", chunk):
                    for inst in insts:
                        strat = seeded_random_strategy(3, 1)
                        sweep(inst, strat)
                        list(iter_plays(inst, strat))
                        is_winning(inst, strat)
                        correct_count_census(inst, strat)
    assert build.call_args_list == [mock.call(3, w) for w in (1, 2, 5) for _ in insts]


def test_a_strategy_that_mutates_its_hat_partitions_cannot_change_the_next_sweep():
    handed = set()

    class Vandal(RuleStrategy):
        def decide_sets(self, t, seen, heard, full, colors):
            part = super().decide_sets(t, seen, heard, full, colors)
            handed.update(map(type, seen.values()))
            for hats in seen.values():  # the lists it is handed, and not the partitions it read
                hats.reverse()
                hats[0] = full
            return part

    inst, strat = hbsf(5, 3, fewer_incorrect_than(2)), sum_broadcast(3)
    for chunk in (16, engine.CHUNK_PLAYS):
        with mock.patch.object(engine, "CHUNK_PLAYS", chunk):
            width = 2 if chunk == 16 else 5
            sweep(inst, strat)  # the partitions are kept before the vandal sees them
            outcome(lambda: sweep(inst, Vandal(lambda t, s, h: sum(s.values()) % 3)))  # later askings read what it broke
            assert inst.trailing_hats[width] == tuple(map(tuple, reference_hat_sets(3, width)))
            assert sweep(inst, strat) == reference_sweep(inst, strat)
    assert handed == {list}


# --- chunking and steady askings ---------------------------------------------------

def test_memo_calls_decide_once_per_observation():
    calls = []

    def decide(t, seen, heard):
        calls.append((t, tuple(seen.items()), tuple(heard.items())))
        return sum(seen.values()) % 2

    inst = hbsf(4, 2, fewer_incorrect_than(4))
    with mock.patch.object(engine, "CHUNK_PLAYS", 8):  # two chunks; only the front's hat leads
        report = sweep(inst, RuleStrategy(decide))
    swept = list(calls)
    assert report == reference_sweep(inst, RuleStrategy(decide))
    # each asking observes 3 values: 8 observations each, against 16 plays
    # each; no asking sees the front's hat, so each is steady and decided in
    # the first chunk only
    assert len(swept) == len(set(swept)) == 4 * 8
    # keys arrive in the order the scalar play builds them
    assert all(list(seen) == sorted(seen) and list(heard) == sorted(heard) for _, seen, heard in swept)


def test_adapter_calls_decide_once_per_cell_in_lexicographic_order():
    # the adapter's whole call sequence: per chunk, per play step, one call per
    # non-empty cell, in lexicographic order of (seen colors, heard guesses)
    def guess(t, seen, heard):
        return (t + 2 * sum(seen.values()) + sum(heard.values()) + len(heard) * seen.get(2, 0)) % 2

    calls = []

    def decide(t, seen, heard):
        calls.append((t, tuple(seen.items()), tuple(heard.items())))
        return guess(t, seen, heard)

    inst = hbsf(4, 2, at_least(2))
    with mock.patch.object(engine, "CHUNK_PLAYS", 4):  # four chunks, led by the hats of -1 and 0
        report = sweep(inst, RuleStrategy(decide))
    assert report == reference_sweep(inst, RuleStrategy(guess))
    want = []
    for prefix in itertools.product(range(2), repeat=2):
        plays = [(values, run_game(inst, RuleStrategy(guess), values).guesses)
                 for values in itertools.product(*zip(prefix), range(2), range(2))]
        for t, _, vis, hrd in inst.steps:  # player 0's hat, which leads, reaches every asking: none is steady
            cells = sorted({(tuple(dict(zip(inst.players, values))[x] for x in vis), tuple(g[x] for x in hrd))
                            for values, g in plays})
            want += [(t, tuple(zip(vis, seen)), tuple(zip(hrd, heard))) for seen, heard in cells]
    assert calls == want
    assert len(calls) == 48  # cells, of the 64 (play, step) observations


def test_is_winning_stops_at_the_first_failing_chunk():
    calls = []

    def decide(t, seen, heard):
        calls.append(t)
        return 0

    inst = hnsa(4, 2, at_least(4))
    with mock.patch.object(engine, "CHUNK_PLAYS", 4):
        assert is_winning(inst, RuleStrategy(decide)) == (False, (0, 0, 0, 1))
    # only the chunk (0, 0, *, *) was played: 4 + 4 + 2 + 2 observations of
    # the 4 * 8 the whole space presents
    assert len(calls) == 12


def test_stream_keeps_one_chunk_of_outcomes():
    # constant(0) is wrong exactly on the nonzero hats: 16 wrong patterns in
    # all, 4 in each chunk of 4 plays, each scored once; a table kept across
    # chunks holds 16
    tables, scored = [], []

    class Outcomes(engine._Outcomes):
        def __init__(self, inst):
            super().__init__(inst)
            tables.append(weakref.ref(self))

        def __missing__(self, code):
            scored.append(code)
            return super().__missing__(code)

    inst = hnsa(4, 2, at_least(1))
    with mock.patch.object(engine, "CHUNK_PLAYS", 4), mock.patch.object(engine, "_Outcomes", Outcomes):
        for values, result in iter_plays(inst, constant(0)):
            assert result == run_game(inst, constant(0), values)
            assert sum(len(t()) for t in tables if t() is not None) <= 4
    assert len(tables) == 4
    assert len(scored) == len(set(scored)) == 16


def test_each_play_has_its_own_guesses():
    inst, strat = hbsf(4, 2, fewer_incorrect_than(2)), sum_broadcast(2)
    want = [(values, run_game(inst, strat, values)) for values in itertools.product(range(2), repeat=4)]
    with mock.patch.object(engine, "CHUNK_PLAYS", 4):
        plays = list(iter_plays(inst, strat))
        assert plays == want
        for _, result in plays:
            result.guesses[-1] = 7
            result.guesses[99] = 0
        assert [result.guesses for _, result in plays] == [
            {**result.guesses, -1: 7, 99: 0} for _, result in want]
        assert list(iter_plays(inst, strat)) == want


def test_a_stream_of_more_than_64_asked_players_matches_scalar():
    # 70 asked players: a wrong pattern is wider than any one lane
    inst = hnsa(70, 2, at_least(1))
    plays = itertools.islice(iter_plays(inst, constant(0), max_assignments=2**70), 300)
    for values, result in plays:
        assert result == run_game(inst, constant(0), values)
    assert values == (0,) * 61 + (1, 0, 0, 1, 0, 1, 0, 1, 1)


@pytest.mark.parametrize("inst, chunk, want", [
    # 8 chunks lead with players 0-2: askings 0 and 1 see a leading hat,
    # askings 2-4 see only trailing ones
    (hnsf(5, 2, at_least(1)), 4, {0: 8, 1: 8, 2: 1, 3: 1, 4: 1}),
    # 2 chunks lead with the front alone: nobody sees its hat, and everyone
    # hears only the steady askings before it
    (hbsf(5, 2, fewer_incorrect_than(2)), 16, {-1: 1, 0: 1, 1: 1, 2: 1, 3: 1}),
], ids=["hnsf-5x2", "hbsf-5x2"])
def test_steady_askings_are_decided_once_per_sweep(inst, chunk, want):
    calls = []
    strat = seeded_random_strategy(inst.colors, 7)
    sets = strat.decide_sets
    strat.decide_sets = lambda t, *args: calls.append(t) or sets(t, *args)
    with mock.patch.object(engine, "CHUNK_PLAYS", chunk):
        report = sweep(inst, strat)
    assert {t: calls.count(t) for t in inst.askings} == want
    assert report == reference_sweep(inst, strat)


def reference_steady(inst, lead):
    """The kernel's steady askings by their first definition: an asking is
    steady when it sees no leading hat and hears only steady askings."""
    steady = set()
    for t, _, vis, hrd in inst.steps:
        if lead.isdisjoint(vis) and all(x in steady for x in hrd):
            steady.add(t)
    return steady


def seeded_hearing_instance(seed):
    """A random custom instance with at least one hearing pair."""
    rng = random.Random(seed)
    n, c = rng.randint(1, 5), rng.randint(2, 3)
    sight = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 8))]
    askings = rng.randint(2, n + 2)
    order = rng.sample(range(askings), askings)
    hearing = [(order[i], order[j]) for i in range(askings) for j in range(i + 1, askings) if rng.random() < 0.4]
    labeling = [rng.randrange(n) for _ in range(askings)]
    return custom_instance(n, c, sight, at_least(1), hearing=hearing or [(order[0], order[1])],
                           askings=range(askings), labeling=labeling)


STEADY_CASES = {
    **{space: build(at_least(1)) for space, build in SPACES.items()},
    **{f"hearing-{seed}": seeded_hearing_instance(seed) for seed in range(40)},
}


@pytest.mark.parametrize("inst", STEADY_CASES.values(), ids=STEADY_CASES.keys())
def test_steady_askings_are_those_whose_influence_misses_the_lead(inst):
    # for every lead length: the set from ``influence`` is the first
    # definition's, and the kernel decides exactly those askings once
    n, c = len(inst.players), inst.colors.size
    for k in range(n + 1):
        lead = set(inst.players[:k])
        steady = reference_steady(inst, lead)
        assert {t for t, hats in inst.influence.items() if hats.isdisjoint(lead)} == steady
        calls = []
        strat = seeded_random_strategy(inst.colors, k)
        sets = strat.decide_sets
        strat.decide_sets = lambda t, *args: calls.append(t) or sets(t, *args)
        with mock.patch.object(engine, "CHUNK_PLAYS", c ** (n - k)):
            sweep(inst, strat)
        assert {t: calls.count(t) for t in inst.askings} == {t: 1 if t in steady else c**k for t in inst.askings}


@given(instances(), st.integers(0, 10**6), st.data())
@settings(max_examples=200, deadline=None)
def test_hats_outside_the_influence_never_change_the_guess(inst, seed, data):
    strat = seeded_random_strategy(inst.colors, seed)
    colors = st.lists(st.integers(0, inst.colors.size - 1), min_size=len(inst.players), max_size=len(inst.players))
    a, other = (dict(zip(inst.players, data.draw(colors))) for _ in range(2))
    guesses = run_game(inst, strat, a).guesses
    for t, hats in inst.influence.items():
        b = {m: a[m] if m in hats else other[m] for m in inst.players}
        assert run_game(inst, strat, b).guesses[t] == guesses[t]


@pytest.mark.parametrize("inst, strat, census, report", [
    (hnsf(11, 3, at_least(1)), constant(0), 11 * 3**10, (0, 11, False, (1,) * 11)),
    (hnsa(11, 3, at_least(3)), block_mod_sum(11, 3, 3), 11 * 3**10, (3, 8, True, None)),
    (hbsf(11, 3, fewer_incorrect_than(2)), sum_broadcast(3), 10 * 3**11 + 3**10, (10, 1, True, None)),
], ids=["hnsf-11x3-constant", "hnsa-11x3-blocks", "hbsf-11x3-broadcast"])
def test_sweeps_across_real_chunks_match_theory(inst, strat, census, report):
    # 3**11 assignments fill three chunks of 3**10; steady partitions come
    # from the first chunk. constant(0) is right exactly where the hat is 0;
    # each block has exactly one right guess; only the front can be wrong.
    assert inst.assignment_count() > engine.CHUNK_PLAYS
    assert sweep(inst, strat) == engine.SweepReport(3**11, *report)
    assert correct_count_census(inst, strat) == census


def test_error_after_the_counterexample_is_not_reached():
    # the scalar loop stops at the counterexample (0, 0, 0, 1); the error at
    # (1, ...) lies beyond it, in the same chunk
    def decide(t, seen, heard):
        if seen.get(0) == 1:
            raise RuntimeError("beyond the counterexample")
        return 0

    inst = hnsa(4, 2, at_least(4))
    strat = RuleStrategy(decide)
    assert is_winning(inst, strat) == reference_is_winning(inst, strat) == (False, (0, 0, 0, 1))
    with pytest.raises(RuntimeError, match="beyond"):
        sweep(inst, strat)
