"""The set kernel against the scalar reference.

``sweep``, ``is_winning``, ``iter_plays`` and ``correct_count_census`` all run
on the chunked set kernel; here each must agree with a plain ``run_game``
loop over ``itertools.product``, including the exceptions it raises and the
plays streamed before them.
"""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hatlab import (
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
    is_winning,
    iter_plays,
    mod_sum,
    run_game,
    seeded_random_strategy,
    sum_broadcast,
    sweep,
)
from hatlab import engine

CHUNKS = st.sampled_from([1, 2, 3, 5, 16, engine.CHUNK_PLAYS])


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


@pytest.mark.parametrize("chunk", [1, 2, 4, 7, 8, 16, engine.CHUNK_PLAYS])
@pytest.mark.parametrize("inst, strat", [
    (hnsa(5, 2, at_least(2)), block_mod_sum(5, 2, 2)),
    (hnsa(4, 3, at_least(1)), block_mod_sum(4, 3, 1)),
    (hnsa(4, 2, at_least(3)), block_mod_sum(4, 2, 2)),
    (hbsf(5, 3, fewer_incorrect_than(2)), sum_broadcast(3)),
    (hbsf(4, 2, fewer_incorrect_than(1)), sum_broadcast(2)),
    (hnsa(4, 3, at_least(1)), constant(2)),
    relay_table(),
])
def test_constructive_strategies_match_scalar(inst, strat, chunk):
    assert_matches_reference(inst, strat, chunk)


# --- errors ----------------------------------------------------------------------

def sometimes(strat, bad, seed):
    """``strat``, except that ``bad(t)`` happens on a seeded quarter of the
    observations; the memo fallback then has to meet it mid-chunk."""

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
    table = full_table(inst, rng)
    for key in sorted(table.entries):
        if rng.random() < 0.2:
            del table.entries[key]
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
    inst = hnsa(3, 2, at_least(1))
    strat = RuleStrategy(lambda t, s, h: 0, sets=lambda t, s, h, full, colors: fault(full))
    with pytest.raises(ValueError, match="decide_sets did not split the chunk into 2 disjoint sets"):
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


# --- chunking and memo -------------------------------------------------------------

def test_memo_calls_decide_once_per_observation():
    calls = []

    def decide(t, seen, heard):
        calls.append((t, tuple(seen.items()), tuple(heard.items())))
        return sum(seen.values()) % 2

    inst = hbsf(4, 2, fewer_incorrect_than(4))
    with mock.patch.object(engine, "CHUNK_PLAYS", 8):  # two chunks
        report = sweep(inst, RuleStrategy(decide))
    swept = list(calls)
    assert report == reference_sweep(inst, RuleStrategy(decide))
    # each asking observes 3 values: 8 observations each, against 16 plays each
    assert len(swept) == len(set(swept)) == 4 * 8
    # keys arrive in the order the scalar play builds them
    assert all(list(seen) == sorted(seen) and list(heard) == sorted(heard) for _, seen, heard in swept)


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


def test_memo_stays_bounded():
    memos = []
    strat = RuleStrategy(lambda t, s, h: 0)
    sets = strat.decide_sets
    strat.decide_sets = lambda t, s, h, full, colors, memo: memos.append(memo) or sets(t, s, h, full, colors, memo)
    with mock.patch.object(engine, "CHUNK_PLAYS", 4):
        assert sweep(hnsa(5, 2, at_least(0)), strat).winning
    # every asking meets 16 observations over the sweep, at most 4 per chunk
    assert max(len(known) for known in memos[0].values()) <= 4 + 4


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
