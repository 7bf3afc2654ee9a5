import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from cli_runner import CliRunner
from hatlab import (
    BlockPartition,
    BlockSizeMismatch,
    MissingTableEntry,
    NeedsTwoColors,
    NotHBSF,
    TableStrategy,
    TooManyBlocks,
    ZeroSize,
    at_least,
    base_selector,
    block_mod_sum,
    build_canonical_instance,
    consecutive_blocks,
    constant,
    diagonal_adversary,
    fewer_incorrect_than,
    hbsf,
    hnsa,
    hnsf,
    is_winning,
    iter_assignment_tuples,
    iter_plays,
    mod_sum,
    run_game,
    seeded_random_strategy,
    strategy_from_descriptor,
    sum_broadcast,
    sweep,
)
from hatlab.cli import main
from hatlab.model import _json_field
from hatlab.strategies import STRATEGY_PARAMS
from test_kernel import drain, full_table

# any JSON value, and lists of pair-shaped lists often enough to reach the integer reads
_SCALAR = st.none() | st.booleans() | st.integers(-3, 5) | st.floats(-2, 2) | st.text(max_size=3)
_PAIR_LISTS = st.lists(st.lists(st.integers(-2, 3) | st.sampled_from(["2", "11", 1.0, 1.5, float("inf"), True, None]),
                                min_size=1, max_size=3), max_size=3)
_JSON = _PAIR_LISTS | st.recursive(
    _SCALAR, lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=2), kids, max_size=2),
    max_leaves=8)


class TestModSum:
    def test_three_color_block(self):
        inst = hnsa(3, 3, at_least(1))
        result = run_game(inst, mod_sum((0, 1, 2), 3), (0, 1, 2))
        assert result.correct_set == {0}
        assert result.incorrect_set == {1, 2}

    def test_two_color_block_equal_hats(self):
        inst = hnsa(2, 2, at_least(1))
        for c in (0, 1):
            result = run_game(inst, mod_sum((0, 1), 2), (c, c))
            assert 0 in result.correct_set

    def test_single_color_block(self):
        inst = hnsa(1, 1, at_least(1))
        assert run_game(inst, mod_sum((0,), 1), (0,)).correct_set == {0}

    def test_block_size_must_match_colors(self):
        with pytest.raises(BlockSizeMismatch):
            mod_sum((0, 1), 3)

    @pytest.mark.parametrize("block,player", [((0, 0, 1), 0), ((2, 1, 2), 2), ((1, 1), 1), ((3, 3, 3, 3), 3)])
    def test_a_block_that_repeats_a_player_is_named(self, block, player):
        # three entries for two players would pass a size check that counts entries
        with pytest.raises(BlockSizeMismatch, match=f"^block lists player {player} more than once$"):
            mod_sum(block, 3)

    @pytest.mark.parametrize("c", [2, 3, 4])
    def test_block_total_names_the_winner(self, c):
        # whoever's rename equals the block's hat total guesses right, always
        inst = hnsa(c, c, at_least(1))
        strat = mod_sum(range(c), c)
        for values in iter_assignment_tuples(inst):
            result = run_game(inst, strat, values)
            assert sum(values) % c in result.correct_set
            assert result.correct_set == {sum(values) % c}


class TestBlockModSum:
    def test_partition_shape(self):
        partition = consecutive_blocks(range(5), 2, 2)
        assert partition.blocks == ((0, 1), (2, 3))
        assert partition.leftover == (4,)

    def test_five_players_two_blocks(self):
        report = sweep(hnsa(5, 2, at_least(2)), block_mod_sum(5, 2, 2))
        assert report.winning and report.min_correct == 2

    def test_single_block_floor(self):
        report = sweep(hnsa(3, 3, at_least(1)), block_mod_sum(3, 3, 1))
        assert report.min_correct == 1

    def test_too_many_blocks(self):
        with pytest.raises(TooManyBlocks):
            block_mod_sum(5, 2, 3)
        with pytest.raises(TooManyBlocks, match="^3 blocks of 2 need 6 players, have 5$"):
            consecutive_blocks(range(5), 2, 3)

    def test_no_blocks_leave_every_player_over(self):
        assert consecutive_blocks(range(5), 2, 0) == BlockPartition((), (0, 1, 2, 3, 4))
        assert sweep(hnsa(3, 2, at_least(0)), block_mod_sum(3, 2, 0)).min_correct == 0

    @pytest.mark.parametrize("block_size,n,message", [
        (2, -1, "n must be a nonnegative block count, got -1"),
        (-1, 2, "block_size must be positive, got -1"),
        (0, 2, "block_size must be positive, got 0"),
    ])
    def test_block_shape_is_named(self, block_size, n, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            consecutive_blocks(range(5), block_size, n)

    @pytest.mark.parametrize("m,c,n,message", [
        (4, 2, -1, "n must be a nonnegative block count, got -1"),
        (3, 2, 1.5, "n must be an integer, got 1.5"),
        (4, 2, True, "n must be an integer, got True"),
        (3, 2.5, 1, "c must be an integer, got 2.5"),
        (4, False, 1, "c must be an integer, got False"),
        (4, "2", 1, "c must be an integer, got '2'"),
        (4.0, 2, 1, "m must be an integer, got 4.0"),
    ])
    def test_block_and_color_counts_are_named(self, m, c, n, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            block_mod_sum(m, c, n)

    @pytest.mark.parametrize("c", [0, -2])
    @pytest.mark.parametrize("n", [0, 1, -1])
    def test_color_count_below_one_is_named(self, c, n):
        # before the block count is checked against m // c
        with pytest.raises(ZeroSize, match=f"^need at least one color, got c={c}$"):
            block_mod_sum(3, c, n)

    def test_zero_players_keep_their_errors(self):
        with pytest.raises(ZeroSize, match="^need at least one player and one color, got m=0, c=2$"):
            block_mod_sum(0, 2, 0)
        with pytest.raises(TooManyBlocks, match="^1 blocks of size 2 do not fit into 0 players$"):
            block_mod_sum(0, 2, 1)

    @pytest.mark.parametrize("m,c", [(4, 2), (5, 2), (6, 3), (6, 2)])
    def test_guarantee_is_tight(self, m, c):
        n = m // c
        report = sweep(hnsa(m, c, at_least(n)), block_mod_sum(m, c, n))
        assert report.min_correct == n


class TestDiagonalAdversary:
    def test_constant_strategy_two_players(self):
        inst = hnsf(2, 2, at_least(1))
        assert diagonal_adversary(constant(0), inst) == (1, 1)

    def test_parity_strategy_three_players(self):
        from hatlab import RuleStrategy

        inst = hnsf(3, 2, at_least(1))
        parity = RuleStrategy(lambda t, seen, heard: sum(seen.values()) % 2)
        a = diagonal_adversary(parity, inst)
        assert a == (0, 0, 1)
        assert run_game(inst, parity, a).correct_count == 0

    def test_single_player_flip(self):
        inst = hnsf(1, 2, at_least(1))
        strat = constant(1)
        a = diagonal_adversary(strat, inst)
        assert a == (0,)
        assert run_game(inst, strat, a).correct_count == 0

    def test_needs_two_colors(self):
        with pytest.raises(NeedsTwoColors):
            diagonal_adversary(constant(0), hnsf(2, 1, at_least(1)))

    def test_only_the_forward_line(self):
        with pytest.raises(ValueError):
            diagonal_adversary(constant(0), hnsa(2, 2, at_least(1)))

    def test_zeroes_every_table_strategy_small_lines(self):
        from hatlab import enumerate_table_strategies

        for m in (1, 2, 3):
            inst = hnsf(m, 2, at_least(1))
            for strat in enumerate_table_strategies(inst):
                a = diagonal_adversary(strat, inst)
                assert run_game(inst, strat, a).correct_count == 0


class TestBaseSelector:
    def test_errors_are_the_deviations(self):
        inst = hnsa(4, 2, fewer_incorrect_than(3))
        result = run_game(inst, base_selector(0), (0, 1, 0, 1))
        assert result.incorrect_set == {1, 3}
        assert result.correct_set == {0, 2}

    def test_fixed_point(self):
        inst = hnsa(3, 3, fewer_incorrect_than(1))
        assert run_game(inst, base_selector(2), (2, 2, 2)).incorrect_count == 0


class TestSumBroadcast:
    def test_front_takes_the_only_risk(self):
        inst = hbsf(3, 2, fewer_incorrect_than(2))
        result = run_game(inst, sum_broadcast(2), (0, 1, 0))
        assert result.incorrect_set == {-1}

    def test_front_alone_is_trivial(self):
        inst = hbsf(1, 3, fewer_incorrect_than(2))
        result = run_game(inst, sum_broadcast(3), (2,))
        assert result.incorrect_count <= 1

    @pytest.mark.parametrize("m", [2, 3, 5])
    @pytest.mark.parametrize("c", [2, 3])
    def test_everyone_behind_the_front_is_exact(self, m, c):
        inst = hbsf(m, c, fewer_incorrect_than(2))
        for values, result in iter_plays(inst, sum_broadcast(c)):
            assert result.incorrect_set <= {-1}
            a = dict(zip(inst.players, values))
            for t in inst.players[1:]:
                assert result.guesses[t] == a[t]

    def test_needs_the_hear_backward_line(self):
        inst = hnsf(2, 2, at_least(1))
        with pytest.raises(NotHBSF):
            run_game(inst, sum_broadcast(2), (0, 0))


_MISFITS = {
    "mod_sum-hnsf": (
        hnsf(3, 3, at_least(1)), mod_sum((0, 1, 2), 3), ValueError, "player 1 cannot see block mates [0]",
        ["--kind", "hnsf", "-m", "3", "-c", "3", "--rule", "at_least:1", "--strategy", "mod_sum:block=0-1-2"]),
    "sum_broadcast-hnsa": (
        hnsa(3, 2, at_least(1)), sum_broadcast(2), NotHBSF,
        "player 0 heard no front announcement; this strategy needs the hear-backward-see-forward line",
        ["--kind", "hnsa", "-m", "3", "-c", "2", "--rule", "at_least:1", "--strategy", "sum_broadcast"]),
}


@pytest.mark.parametrize("inst, strat, error, message, args", _MISFITS.values(), ids=_MISFITS.keys())
def test_a_construction_that_misfits_its_instance_fails_at_play(inst, strat, error, message, args):
    # built without complaint; every caller then raises the one error of the rule
    pattern = f"^{re.escape(message)}$"
    with pytest.raises(error, match=pattern):
        run_game(inst, strat, (0,) * len(inst.players))
    with pytest.raises(error, match=pattern):
        sweep(inst, strat)
    scalar = ((values, run_game(inst, strat, values)) for values in iter_assignment_tuples(inst))
    assert drain(iter_plays(inst, strat)) == drain(scalar) == ([], (error, message))
    assignment = ["--assignment", ",".join("0" * len(inst.players))]
    # the CSV sweep fails before its first play, so it prints no header either
    for command in (["run", *args, *assignment], ["sweep", *args], ["sweep", *args, "--format", "csv"]):
        res = CliRunner().invoke(main, command, catch_exceptions=False)
        assert (res.exit_code, res.output.splitlines()) == (2, [f"config error: {message}"])


class TestSeededRandomStrategy:
    def test_deterministic(self):
        s1 = seeded_random_strategy(3, 42)
        s2 = seeded_random_strategy(3, 42)
        s3 = seeded_random_strategy(3, 43)
        seen, heard = {1: 2, 2: 0}, {0: 1}
        assert s1.decide(0, seen, heard) == s2.decide(0, seen, heard)
        results = {s3.decide(0, {1: v, 2: 0}, {}) for v in range(3)}
        assert results <= {0, 1, 2}


class TestDescriptors:
    def test_named_strategies(self):
        inst = hnsa(4, 2, at_least(1))
        for desc, probe in [
            ({"name": "constant", "params": {"value": 1}}, 1),
            ({"name": "base_selector", "params": {"base": 0}}, 0),
        ]:
            strat = strategy_from_descriptor(desc, inst)
            assert strat.decide(0, {1: 0, 2: 0, 3: 0}, {}) == probe

    def test_block_mod_sum_default_n(self):
        inst = hnsa(4, 2, at_least(2))
        strat = strategy_from_descriptor({"name": "block_mod_sum", "params": {}}, inst)
        assert is_winning(inst, strat)[0]

    def test_block_mod_sum_combines_against_the_instance_alone(self):
        # no throwaway hnsa target: the descriptor's parts meet only ``inst``
        from unittest import mock

        from hatlab import ZeroSize, custom_instance, strategies

        inst = hnsa(5, 2, at_least(2))
        with mock.patch.object(strategies, "hnsa", side_effect=AssertionError("built an hnsa target")):
            strat = strategy_from_descriptor({"name": "block_mod_sum", "params": {"n": 2}}, inst)
            with pytest.raises(AssertionError, match="built an hnsa target"):
                block_mod_sum(5, 2, 2)
        assert sweep(inst, strat) == sweep(inst, block_mod_sum(5, 2, 2))
        assert strat.parts[-1][0].players == (4,)
        # the public function still combines against hnsa(m, c)
        with pytest.raises(ZeroSize):
            block_mod_sum(0, 2, 0)
        # a misfit fails in ``combine``, against the instance played
        line = custom_instance(4, 2, [(1, 0), (3, 2)], at_least(1))
        with pytest.raises(ValueError, match="^a part's sight relation is not contained in the target's$"):
            strategy_from_descriptor({"name": "block_mod_sum", "params": {"n": 2}}, line)

    def test_table_descriptor_round_trip(self):
        from hatlab import exists_winning_exhaustive

        inst = hbsf(2, 2, fewer_incorrect_than(2))
        witness = exists_winning_exhaustive(inst).witness
        desc = {"name": "table", "params": {"entries": witness.to_json()}}
        again = strategy_from_descriptor(desc, inst)
        assert again == witness
        assert TableStrategy.from_json(witness.to_json()).entries == witness.entries

    def test_a_table_and_its_round_trip_hash_equal(self):
        table = full_table(hbsf(3, 2, at_least(1)), random.Random(0))
        again = TableStrategy.from_json(table.to_json())
        assert again is not table and hash(again) == hash(table)
        assert len({table, again}) == 1

    @pytest.mark.parametrize("inst, row, why", [
        (hnsa(2, 2, at_least(1)), {"t": 0, "seen": [[1, 1], [1, 1]], "heard": []}, "asking 0 sees players [1]"),
        (hnsa(2, 2, at_least(1)), {"t": 0, "seen": [], "heard": []}, "asking 0 sees players [1]"),
        (hnsa(2, 2, at_least(1)), {"t": 0, "seen": [[1, -1]], "heard": []}, "its colors must be 0..1"),
        (hnsa(2, 2, at_least(1)), {"t": 0, "seen": [[1, 0]], "heard": [[1, 0]]}, "asking 0 hears askings []"),
        (hbsf(3, 2, at_least(1)), {"t": 1, "seen": [], "heard": [[-1, 0]]}, "asking 1 hears askings [-1, 0]"),
        (hbsf(3, 2, at_least(1)), {"t": 0, "seen": [[1, 0]], "heard": [[-1, 2]]}, "its colors must be 0..1"),
    ])
    def test_a_table_row_no_play_reads_is_named(self, inst, row, why):
        # more of the cases tests/test_cli.py runs through the CLI; one readable
        # row first, so the message names the row at fault by its index
        rows = [full_table(inst, random.Random(0)).to_json()[0], dict(row, guess=0)]
        seen, heard = (sorted(row[key]) for key in ("seen", "heard"))
        message = f"table row 1, the entry t={row['t']} seen={seen} heard={heard}, is never read: {why}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            strategy_from_descriptor({"name": "table", "params": {"entries": rows}}, inst)
        # without the instance a table takes any row
        assert len(TableStrategy.from_json(rows).entries) == 2

    @pytest.mark.parametrize("space", ["hnsf", "hnsa", "hbsf"])
    def test_every_row_of_a_full_table_is_readable(self, space):
        inst = build_canonical_instance(space, 3, 2, at_least(1))
        rows = full_table(inst, random.Random(0)).to_json()
        table = strategy_from_descriptor({"name": "table", "params": {"entries": rows}}, inst)
        assert table == TableStrategy.from_json(rows)

    def test_table_pairs_are_keyed_in_canonical_order(self):
        import random

        inst = hnsa(3, 2, at_least(1))
        rng = random.Random(4)
        rows = [
            {"t": p, "seen": [[x, v] for x, v in zip(seen, colors)], "heard": [], "guess": rng.randrange(2)}
            for p in inst.players
            for seen in [inst.seen_by(p)]
            for colors in iter_assignment_tuples(hnsa(len(seen), 2, at_least(0)))
        ]
        shuffled = [dict(row, seen=row["seen"][::-1]) for row in rows]
        assert shuffled != rows
        table = TableStrategy.from_json(rows)
        again = TableStrategy.from_json(shuffled)
        assert again == table
        assert sweep(inst, again) == sweep(inst, table)

    def test_table_rows_read_integers_as_every_descriptor_does(self):
        row = {"t": 0, "seen": [[1, 0]], "heard": [], "guess": 1}
        same = {"t": "0", "seen": [[1.0, "0"]], "heard": [], "guess": 1.0}
        assert TableStrategy.from_json([same]) == TableStrategy.from_json([row])

    @pytest.mark.parametrize("key,value,message", [
        ("guess", 1.5, "table row 'guess' must be an integer, got 1.5"),
        ("guess", True, "table row 'guess' must be an integer, got True"),
        ("t", False, "table row 't' must be an integer, got False"),
        ("seen", [[1, 0.5]], "table row 'seen' must be a list of [id, color] pairs, got [[1, 0.5]]"),
    ])
    def test_table_rows_reject_what_the_field_reader_rejects(self, key, value, message):
        row = {"t": 0, "seen": [[1, 0]], "heard": [], "guess": 1, key: value}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TableStrategy.from_json([row])

    @pytest.mark.parametrize("entries", [{}, "", {"t": 0}, None, 5])
    def test_entries_that_are_not_a_list_are_named(self, entries):
        message = f"table strategy 'entries' must be a JSON list, got {type(entries).__name__}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TableStrategy.from_json(entries)

    @pytest.mark.parametrize("key", ["seen", "heard"])
    @given(value=_JSON)
    @settings(max_examples=300, deadline=None)
    def test_table_rows_read_observations_as_the_field_reader_reads_pairs(self, key, value):
        # one reader: a row's observation fails exactly when an instance's pairs field would
        row = {"t": 0, "seen": [], "heard": [], "guess": 0, key: value}
        try:
            _json_field({"sight": value}, "instance", "sight", form="pairs")
        except ValueError:
            message = f"table row {key!r} must be a list of [id, color] pairs, got {value!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                TableStrategy.from_json([row])
        else:  # sorted integer pairs, duplicates kept
            pairs = tuple(sorted((int(a), int(b)) for a, b in value))
            assert TableStrategy.from_json([row]).entries == {(0, *((pairs, ()) if key == "seen" else ((), pairs))): 0}

    @pytest.mark.parametrize("play", [
        lambda inst, table: run_game(inst, table, (0, 1)),
        lambda inst, table: sweep(inst, table),
    ])
    def test_missing_table_entry_is_a_package_lookup_error(self, play):
        inst = hnsa(2, 2, at_least(1))
        with pytest.raises(MissingTableEntry, match="no entry for asking 0 with seen=") as exc:
            play(inst, TableStrategy({}))
        assert isinstance(exc.value, LookupError)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            strategy_from_descriptor({"name": "telepathy"}, hnsa(2, 2, at_least(1)))

    @pytest.mark.parametrize("name", ["telepathy", ["constant"], None])
    def test_unknown_name_is_named(self, name):
        with pytest.raises(ValueError, match=f"^unknown strategy {re.escape(repr(name))}$"):
            strategy_from_descriptor({"name": name}, hnsa(2, 2, at_least(1)))

    @pytest.mark.parametrize("name", sorted(STRATEGY_PARAMS))
    def test_a_parameter_the_strategy_does_not_take_is_rejected(self, name):
        takes = ", ".join(map(repr, STRATEGY_PARAMS[name])) or "none"
        message = f"strategy '{name}' has no parameter 'valu'; it takes {takes}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            strategy_from_descriptor({"name": name, "params": {"valu": 1}}, hnsa(2, 2, at_least(1)))
