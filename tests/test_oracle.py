import random
from functools import cache
from itertools import product

import pytest

from hatlab import (
    OMEGA,
    BudgetExceeded,
    SearchBudget,
    at_least,
    best_guaranteed_correct,
    block_mod_sum,
    constant,
    correct_count_census,
    count_table_strategies,
    custom_instance,
    enumerate_table_strategies,
    evaluate,
    exists_winning_exhaustive,
    fewer_incorrect_than,
    hbsf,
    hnsa,
    hnsf,
    is_winning,
    run_game,
    sweep,
)


# --- reference: every table strategy, swept -----------------------------------

def _seeded_custom(seed):
    """A random custom instance (any sight, acyclic hearing, askings repeated or
    missing per player) with 64 to 4,096 table strategies."""
    rng = random.Random(seed)
    while True:
        n, c = rng.randint(2, 3), rng.randint(2, 3)
        sight = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 6))]
        askings = rng.randint(1, n + 1)
        order = rng.sample(range(askings), askings)
        hearing = [(order[i], order[j]) for i in range(askings) for j in range(i + 1, askings)
                   if rng.random() < 0.4]
        labeling = [rng.randrange(n) for _ in range(askings)]

        def build(rule):
            return custom_instance(n, c, sight, rule, hearing=hearing,
                                   askings=range(askings), labeling=labeling)

        if 64 <= count_table_strategies(build(at_least(1))) <= 4096:
            return build


SPACES = {
    **{f"{kind.__name__}-{m}x{c}": (lambda rule, kind=kind, m=m, c=c: kind(m, c, rule))
       for kind, m, c in [(hnsa, 2, 2), (hnsa, 3, 2), (hnsa, 2, 3), (hnsf, 3, 2),
                          (hnsf, 2, 3), (hbsf, 2, 2), (hbsf, 3, 2), (hbsf, 2, 3)]},
    **{f"custom-{seed}": _seeded_custom(seed) for seed in range(6)},
    # each player also sees its own hat, so some strategy is right everywhere:
    # a floor one too low would call ``at_least:5`` and ``fewer_incorrect:0`` won
    "self-sight-2x2": lambda rule: custom_instance(2, 2, [(0, 0), (1, 1), (1, 0)], rule),
}
RULES = {
    "at_least:0": at_least(0),
    "at_least:1": at_least(1),
    "at_least:2": at_least(2),
    "fewer_incorrect:1": fewer_incorrect_than(1),
    "fewer_incorrect:2": fewer_incorrect_than(2),
    "fewer_incorrect:omega": fewer_incorrect_than(OMEGA),
    "at_least:5": at_least(5),
    "fewer_incorrect:0": fewer_incorrect_than(0),
}
CASES = pytest.mark.parametrize(
    "space,rule", [(s, r) for s in SPACES for r in RULES], ids=lambda x: x)


@cache
def swept(space):
    """``(strategy, min_correct, max_incorrect)`` for every table strategy, in
    enumeration order. The worst-case counts do not depend on the rule, and
    ``evaluate`` on them says whether the strategy wins on every assignment:
    ``at_least`` reads only correct counts, ``fewer_incorrect`` only incorrect
    ones."""
    inst = SPACES[space](at_least(0))
    return [(strat, r.min_correct, r.max_incorrect)
            for strat in enumerate_table_strategies(inst)
            for r in [sweep(inst, strat)]]


class TestEnumeration:
    def test_counts_match_hand_arithmetic(self):
        assert count_table_strategies(hnsa(2, 2, at_least(1))) == 16
        assert count_table_strategies(hbsf(2, 2, fewer_incorrect_than(1))) == 16
        assert count_table_strategies(hnsf(1, 3, at_least(1))) == 3

    def test_enumeration_is_exhaustive_and_duplicate_free(self):
        inst = hnsa(2, 2, at_least(1))
        tables = list(enumerate_table_strategies(inst))
        assert len(tables) == 16
        assert len({frozenset(t.entries.items()) for t in tables}) == 16

    def test_first_strategy_is_all_zeros(self):
        inst = hnsa(2, 2, at_least(1))
        first = next(iter(enumerate_table_strategies(inst)))
        assert set(first.entries.values()) == {0}

    def test_budget_carries_the_exact_count(self):
        inst = hnsa(3, 3, at_least(2))
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_table_strategies(inst)
        assert exc.value.required == 19683**3

    def test_budgets_must_be_positive(self):
        inst = hnsa(2, 2, at_least(1))
        with pytest.raises(ValueError, match="budgets must be positive"):
            enumerate_table_strategies(inst, max_strategies=0)
        with pytest.raises(ValueError, match="budgets must be positive"):
            correct_count_census(inst, constant(0), max_assignments=0)

    def test_search_budget_guard(self):
        inst = hnsa(3, 3, at_least(2))
        with pytest.raises(BudgetExceeded):
            exists_winning_exhaustive(inst)
        with pytest.raises(BudgetExceeded):
            best_guaranteed_correct(inst)

    def test_evaluation_budget_is_a_hard_stop(self):
        inst = hnsa(2, 2, at_least(1))
        with pytest.raises(BudgetExceeded):
            best_guaranteed_correct(inst, budget=SearchBudget(max_strategies=10**6, max_assignments=10))


class TestBestGuaranteed:
    @pytest.mark.parametrize("m,c,expected", [(2, 2, 1), (3, 2, 1), (2, 3, 0)])
    def test_floor_bound(self, m, c, expected):
        verdict = best_guaranteed_correct(hnsa(m, c, at_least(1)))
        assert verdict.best_guaranteed == expected

    def test_forward_line_guarantees_nothing(self):
        verdict = best_guaranteed_correct(hnsf(2, 2, at_least(1)))
        assert verdict.best_guaranteed == 0
        assert not verdict.exists_winning

    def test_witness_achieves_the_optimum(self):
        inst = hnsa(2, 2, at_least(1))
        verdict = best_guaranteed_correct(inst)
        assert verdict.exists_winning
        assert is_winning(inst, verdict.witness)[0]

    @CASES
    def test_pruning_is_sound(self, space, rule):
        inst = SPACES[space](RULES[rule])
        pruned = best_guaranteed_correct(inst, prune=True)
        full = best_guaranteed_correct(inst, prune=False)
        assert (pruned.best_guaranteed, pruned.exists_winning, pruned.witness) == (
            full.best_guaranteed, full.exists_winning, full.witness)
        assert full.pruned == 0
        assert full.strategies_examined == count_table_strategies(inst)
        reference = swept(space)
        best = max(low for _, low, _ in reference)
        assert full.best_guaranteed == best
        assert full.witness == next(s for s, low, _ in reference if low == best)
        assert full.exists_winning == any(evaluate(inst.rule, low, high) for _, low, high in reference)


class TestExistsWinning:
    def test_broadcast_bound_is_sharp(self):
        no = exists_winning_exhaustive(hbsf(2, 2, fewer_incorrect_than(1)))
        assert not no.exists_winning and no.witness is None
        yes = exists_winning_exhaustive(hbsf(2, 2, fewer_incorrect_than(2)))
        assert yes.exists_winning
        assert is_winning(hbsf(2, 2, fewer_incorrect_than(2)), yes.witness)[0]

    def test_see_all_thresholds(self):
        assert exists_winning_exhaustive(hnsa(3, 2, at_least(1))).exists_winning
        assert not exists_winning_exhaustive(hnsa(3, 2, at_least(2))).exists_winning

    def test_witness_is_enumeration_least(self):
        inst = hnsa(2, 2, at_least(1))
        found = exists_winning_exhaustive(inst).witness
        for strat in enumerate_table_strategies(inst):
            if is_winning(inst, strat)[0]:
                assert strat == found
                break

    @CASES
    def test_pruned_and_unpruned_agree(self, space, rule):
        inst = SPACES[space](RULES[rule])
        pruned = exists_winning_exhaustive(inst, prune=True)
        full = exists_winning_exhaustive(inst, prune=False)
        assert (pruned.exists_winning, pruned.witness) == (full.exists_winning, full.witness)
        first = next((s for s, low, high in swept(space) if evaluate(inst.rule, low, high)), None)
        assert full.witness == first
        assert full.exists_winning == (first is not None)

    def test_report_serializes(self):
        inst = hbsf(2, 2, fewer_incorrect_than(2))
        report = exists_winning_exhaustive(inst).to_json(inst)
        assert set(report) == {
            "instance",
            "best_guaranteed",
            "exists_winning",
            "witness_table",
            "strategies_examined",
            "pruned",
        }
        assert report["exists_winning"] is True
        assert report["witness_table"]


class TestCensus:
    def test_strategy_invariant_at_two_two(self):
        inst = hnsa(2, 2, at_least(1))
        for strat in enumerate_table_strategies(inst):
            assert correct_count_census(inst, strat) == 4

    def test_mod_sum_at_three_three(self):
        assert correct_count_census(hnsa(3, 3, at_least(1)), block_mod_sum(3, 3, 1)) == 27

    def test_single_player(self):
        assert correct_count_census(hnsa(1, 2, at_least(1)), constant(0)) == 1

    def test_census_caps_the_guarantee(self):
        # average correct count is 1 at (3,3), so no strategy guarantees 2;
        # this is how the infeasible-to-enumerate case is certified
        from hatlab import seeded_random_strategy

        inst = hnsa(3, 3, at_least(2))
        for seed in range(5):
            strat = seeded_random_strategy(3, seed)
            census = correct_count_census(inst, strat)
            assert census == 27
            worst = min(
                run_game(inst, strat, values).correct_count
                for values in product(range(3), repeat=3)
            )
            assert worst <= census // 27
