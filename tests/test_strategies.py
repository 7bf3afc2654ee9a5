import re

import pytest

from hatlab import (
    BlockSizeMismatch,
    MissingTableEntry,
    NeedsTwoColors,
    NotHBSF,
    TableStrategy,
    TooManyBlocks,
    at_least,
    base_selector,
    block_mod_sum,
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

    def test_table_descriptor_round_trip(self):
        from hatlab import exists_winning_exhaustive

        inst = hbsf(2, 2, fewer_incorrect_than(2))
        witness = exists_winning_exhaustive(inst).witness
        desc = {"name": "table", "params": {"entries": witness.to_json()}}
        again = strategy_from_descriptor(desc, inst)
        assert again == witness
        assert TableStrategy.from_json(witness.to_json()).entries == witness.entries

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
