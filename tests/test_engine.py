import copy
import itertools
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from hatlab import (
    CoverageError,
    CyclicHearing,
    OMEGA,
    OverlapError,
    RuleStrategy,
    StrategyRangeError,
    SweepTooLarge,
    at_least,
    block_mod_sum,
    combine,
    constant,
    correct_count_census,
    custom_instance,
    evaluate,
    fewer_incorrect_than,
    hbsf,
    hnsa,
    hnsf,
    is_winning,
    iter_plays,
    run_game,
    seeded_random_strategy,
    sum_broadcast,
    sweep,
    topological_extension,
)
from hatlab.engine import _play
from hatlab.model import _steps, as_assignment


def all_linear_extensions(askings, hearing):
    """Brute-force oracle: every permutation that respects the hearing pairs."""
    out = []
    for perm in itertools.permutations(askings):
        pos = {t: i for i, t in enumerate(perm)}
        if all(pos[a] < pos[b] for a, b in hearing):
            out.append(perm)
    return out


class TestTopologicalExtension:
    def test_empty_hearing_any_permutation(self):
        inst = custom_instance(3, 2, sight=(), rule=at_least(0))
        order = topological_extension(inst, seed=0)
        assert sorted(order) == [0, 1, 2]

    def test_chain_has_unique_extension(self):
        inst = custom_instance(3, 2, sight=(), rule=at_least(0), hearing=[(0, 1), (1, 2)])
        for seed in range(10):
            assert topological_extension(inst, seed=seed) == (0, 1, 2)

    def test_two_extension_case_reaches_both(self):
        hearing = [(0, 2), (1, 2)]
        inst = custom_instance(3, 2, sight=(), rule=at_least(0), hearing=hearing)
        expected = set(all_linear_extensions(inst.askings, hearing))
        assert expected == {(0, 1, 2), (1, 0, 2)}
        seen = {topological_extension(inst, seed=s) for s in range(30)}
        assert seen == expected

    def test_canonical_extension_is_least(self):
        hearing = [(2, 0)]
        inst = custom_instance(3, 2, sight=(), rule=at_least(0), hearing=hearing)
        assert topological_extension(inst) == min(all_linear_extensions(inst.askings, hearing))

    def test_cycle_raises_with_witness(self):
        inst = custom_instance(3, 2, sight=(), rule=at_least(0), hearing=[(0, 1), (1, 0)])
        with pytest.raises(CyclicHearing) as exc:
            topological_extension(inst)
        assert sorted(exc.value.cycle) == [0, 1]

    # the orders hatlab has always given for these seeds
    @pytest.mark.parametrize("askings,hearing,canonical,seeded", [
        ((0, 1, 2, 3, 4, 5), [(0, 3), (1, 3), (2, 4), (3, 5)], (0, 1, 2, 3, 4, 5),
         [(1, 2, 0, 4, 3, 5), (0, 1, 3, 2, 5, 4), (0, 1, 2, 4, 3, 5), (0, 1, 3, 5, 2, 4), (0, 2, 1, 4, 3, 5)]),
        ((4, -1, 8, 2, 6), [(8, -1), (2, 6), (4, 6)], (2, 4, 6, 8, -1),
         [(4, 8, -1, 2, 6), (2, 4, 8, -1, 6), (2, 4, 6, 8, -1), (2, 4, 8, 6, -1), (2, 8, -1, 4, 6)]),
    ], ids=["forest", "unsorted-askings"])
    def test_orders_are_pinned(self, askings, hearing, canonical, seeded):
        inst = custom_instance(len(askings), 2, sight=(), rule=at_least(0), hearing=hearing,
                               askings=askings, labeling=range(len(askings)))
        assert topological_extension(inst) == canonical
        assert [topological_extension(inst, seed=s) for s in range(5)] == seeded

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_extension_respects_every_edge(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        perm = data.draw(st.permutations(range(n)))
        edges = [
            (perm[i], perm[j])
            for i in range(n)
            for j in range(i + 1, n)
            if data.draw(st.booleans())
        ]
        inst = custom_instance(n, 2, sight=(), rule=at_least(0), hearing=edges)
        order = topological_extension(inst, seed=data.draw(st.integers(0, 999)))
        pos = {t: i for i, t in enumerate(order)}
        assert all(pos[a] < pos[b] for a, b in edges)


class TestRunGame:
    def test_mod_sum_play_see_all(self):
        inst = hnsa(3, 3, at_least(1))
        result = run_game(inst, block_mod_sum(3, 3, 1), (0, 1, 2))
        assert [result.guesses[t] for t in inst.askings] == [0, 2, 1]
        assert result.correct_set == {0}
        assert result.verdict

    def test_broadcast_play_coincident_front(self):
        inst = hbsf(3, 2, fewer_incorrect_than(2))
        result = run_game(inst, sum_broadcast(2), (1, 1, 0))
        assert [result.guesses[t] for t in inst.askings] == [1, 1, 0]
        assert result.incorrect_set == frozenset()

    def test_single_color_everything_correct(self):
        inst = hnsa(4, 1, at_least(4))
        result = run_game(inst, constant(0), (0, 0, 0, 0))
        assert result.correct_set == {0, 1, 2, 3} and result.verdict

    def test_out_of_range_guess_rejected(self):
        inst = hnsa(2, 2, at_least(1))
        with pytest.raises(StrategyRangeError):
            run_game(inst, constant(2), (0, 0))
        with pytest.raises(StrategyRangeError):
            run_game(inst, RuleStrategy(lambda t, s, h: "red"), (0, 0))

    def test_explicit_order_over_cyclic_hearing_names_the_cycle(self):
        # no order extends a cyclic hearing relation, so no play is made
        inst = custom_instance(2, 2, sight=(), rule=at_least(0), hearing=[(0, 1), (1, 0)])
        with pytest.raises(CyclicHearing) as exc:
            run_game(inst, constant(0), (0, 0))
        assert exc.value.cycle == (0, 1)

    def test_strategy_key_error_escapes_unchanged(self):
        # player 2 sees no hat, so the strategy's own lookup fails; every
        # entry point reports that KeyError, not a play-order problem
        inst = hnsf(3, 2, at_least(1))
        strat = RuleStrategy(lambda t, s, h: s[2])
        calls = [
            lambda: run_game(inst, strat, (0, 0, 0)),
            lambda: sweep(inst, strat),
            lambda: is_winning(inst, strat),
            lambda: list(iter_plays(inst, strat)),
        ]
        for call in calls:
            with pytest.raises(KeyError) as exc:
                call()
            assert type(exc.value) is KeyError and exc.value.args == (2,)

    def test_memory_erasure_strategy_sees_only_its_window(self):
        seen_windows = {}

        def spy(t, seen, heard):
            seen_windows[t] = (dict(seen), dict(heard))
            return 0

        inst = hbsf(3, 2, fewer_incorrect_than(2))
        run_game(inst, RuleStrategy(spy), (1, 0, 1))
        assert seen_windows[-1] == ({0: 0, 1: 1}, {})
        assert seen_windows[0] == ({1: 1}, {-1: 0})
        assert seen_windows[1] == ({}, {-1: 0, 0: 0})

    def test_repeated_askings_score_per_player(self):
        # player 0 is asked twice; a correct and a wrong guess leave it incorrect
        inst = custom_instance(
            2, 2, sight=(), rule=at_least(1), askings=(0, 1, 2), labeling=(0, 0, 1)
        )
        flip = RuleStrategy(lambda t, s, h: 1 if t == 2 else t % 2)
        result = run_game(inst, flip, (0, 1))
        assert result.guesses == {0: 0, 1: 1, 2: 1}
        assert result.incorrect_set == {0}
        assert result.correct_set == {1}

    def test_information_hygiene_no_hearing(self):
        rng = random.Random(5)
        inst = hnsf(4, 3, at_least(0))
        strat = seeded_random_strategy(3, 99)
        for m in inst.players:
            window = inst.seen_by(m)
            a = [rng.randrange(3) for _ in inst.players]
            b = list(a)
            for other in inst.players:
                if other not in window and other != m:
                    b[other] = (a[other] + 1) % 3
            ga = run_game(inst, strat, a).guesses[m]
            gb = run_game(inst, strat, b).guesses[m]
            assert ga == gb


class TestEvaluate:
    def test_at_least_zero_always_wins(self):
        assert evaluate(at_least(0), 0, 5)

    def test_fewer_than_one_means_perfect(self):
        assert evaluate(fewer_incorrect_than(1), 3, 0)
        assert not evaluate(fewer_incorrect_than(1), 2, 1)

    def test_at_least_two_needs_two(self):
        assert not evaluate(at_least(2), 1, 2)

    @pytest.mark.parametrize("k", [0, 1, 7, 10**6])
    def test_omega_accepts_any_finite_error_count(self, k):
        assert evaluate(fewer_incorrect_than(OMEGA), 0, k)


class TestSweeps:
    def test_mod_sum_wins_see_all(self):
        winning, ce = is_winning(hnsa(3, 3, at_least(1)), block_mod_sum(3, 3, 1))
        assert winning and ce is None

    def test_constant_loses_on_the_line_with_least_counterexample(self):
        winning, ce = is_winning(hnsf(2, 2, at_least(1)), constant(0))
        assert not winning and ce == (1, 1)

    def test_broadcast_wins_fewer_than_two(self):
        report = sweep(hbsf(5, 2, fewer_incorrect_than(2)), sum_broadcast(2))
        assert report.winning and report.max_incorrect == 1

    def test_sweep_report_shape(self):
        report = sweep(hnsf(2, 2, at_least(1)), constant(0))
        assert report.to_json() == {
            "assignments": 4,
            "min_correct": 0,
            "max_incorrect": 2,
            "winning": False,
            "counterexample": [1, 1],
        }

    def test_sweep_budget_guard(self):
        with pytest.raises(SweepTooLarge):
            sweep(hnsa(4, 3, at_least(1)), constant(0), max_assignments=80)
        with pytest.raises(SweepTooLarge):
            is_winning(hnsa(4, 3, at_least(1)), constant(0), max_assignments=80)

    def test_budget_is_checked_before_anything_is_played(self):
        # a cyclic instance over budget: the budget error comes first, and no guess is asked for
        inst = custom_instance(4, 3, (), at_least(1), hearing=[(0, 1), (1, 0)])
        calls = []
        strat = RuleStrategy(lambda t, seen, heard: calls.append(t) or 0)
        for call in (sweep, is_winning, lambda *a, **k: next(iter_plays(*a, **k)), correct_count_census):
            with pytest.raises(SweepTooLarge, match="^sweep needs 81 assignment plays, budget is 80$"):
                call(inst, strat, max_assignments=80)
        assert calls == []

    @pytest.mark.parametrize("budget, message", [
        (0, "budgets must be positive"),
        (-5, "budgets must be positive"),
        (2.5, "budgets must be integers, got 2.5"),
        (True, "budgets must be integers, got True"),
    ])
    def test_sweep_budget_must_be_a_positive_int(self, budget, message):
        inst = hnsa(2, 2, at_least(1))
        for call in (sweep, is_winning, lambda *a, **k: next(iter_plays(*a, **k)), correct_count_census):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call(inst, constant(0), max_assignments=budget)

    def test_iter_plays_covers_lexicographically(self):
        inst = hnsa(2, 2, at_least(1))
        seen = [values for values, _ in iter_plays(inst, constant(0))]
        assert seen == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_streamed_results_are_frozen_and_equal_the_scalar_play(self):
        inst = hbsf(3, 2, fewer_incorrect_than(2))
        for values, result in iter_plays(inst, sum_broadcast(2)):
            assert result == run_game(inst, sum_broadcast(2), values)
            assert result == copy.copy(result) == copy.deepcopy(result) == pickle.loads(pickle.dumps(result))
            for name in ("verdict", "extra"):
                with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
                    setattr(result, name, 1)


class TestUniquePlay:
    def test_play_independent_of_extension(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(2, 6)
            perm = list(range(n))
            rng.shuffle(perm)
            hearing = [
                (perm[i], perm[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            sight = [(a, b) for a in range(n) for b in range(n) if rng.random() < 0.4]
            inst = custom_instance(n, 2, sight=sight, rule=at_least(0), hearing=hearing)
            strat = seeded_random_strategy(2, rng.randrange(10**6))
            a = [rng.randrange(2) for _ in range(n)]
            expected = run_game(inst, strat, a).guesses
            for s in range(5):
                steps = _steps(inst, topological_extension(inst, seed=s))
                assert _play(steps, as_assignment(inst, a), strat.decide, 2)[0] == expected


class TestCombine:
    def _block_instance(self, block, c):
        return custom_instance(
            block, c, [(x, y) for x in block for y in block if x != y], at_least(1)
        )

    def test_two_blocks_guarantee_two(self):
        report = sweep(hnsa(6, 3, at_least(2)), block_mod_sum(6, 3, 2))
        assert report.winning and report.min_correct == 2

    def test_block_local_hits(self):
        inst = hnsa(6, 3, at_least(2))
        result = run_game(inst, block_mod_sum(6, 3, 2), (0, 1, 2, 0, 0, 0))
        assert result.correct_set == {0, 3}

    def test_identity_combination(self):
        target = hnsa(3, 2, at_least(1))
        strat = seeded_random_strategy(2, 7)
        combined = combine([(target, strat)], target)
        for values, result in iter_plays(target, strat):
            assert run_game(target, combined, values).guesses == result.guesses

    def test_overlap_rejected(self):
        target = hnsa(2, 2, at_least(1))
        part = self._block_instance((0, 1), 2)
        with pytest.raises(OverlapError):
            combine([(part, constant(0)), (part, constant(0))], target)

    def test_coverage_required(self):
        target = hnsa(3, 2, at_least(1))
        part = self._block_instance((0, 1), 2)
        with pytest.raises(CoverageError):
            combine([(part, constant(0))], target)

    @pytest.mark.parametrize("part,target,message", [
        # in hnsf player 1 sees nothing
        (custom_instance(2, 2, [(0, 1), (1, 0)], at_least(1)), hnsf(2, 2, at_least(1)),
         "a part's sight relation is not contained in the target's"),
        (custom_instance(2, 2, (), at_least(1), hearing=[(0, 1)]), custom_instance(2, 2, (), at_least(1)),
         "a part's hearing relation is not contained in the target's"),
        (custom_instance(2, 2, (), at_least(1)), custom_instance(2, 2, (), at_least(1), labeling=(1, 0)),
         "part and target disagree on who is asked at 0"),
    ], ids=["sight", "hearing", "labelling"])
    def test_part_relations_must_be_contained(self, part, target, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            combine([(part, constant(0))], target)
