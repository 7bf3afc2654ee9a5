import random
import sys
from functools import cache
from itertools import product

import pytest

from hatlab import (
    OMEGA,
    BudgetExceeded,
    SearchBudget,
    SweepTooLarge,
    TableStrategy,
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
    validate_instance,
)
from hatlab.engine import iter_assignment_tuples
from hatlab.errors import power_count, power_over
from hatlab import oracle
from hatlab.oracle import DEFAULT_BUDGET, _materialize, _table_size, _walk


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


def _reference_walk(inst, budget, prune, floor, first):
    """The walk one assignment at a time: the scalar reference for ``_walk``,
    which must visit, count, report and run out of budget exactly as this does.

    Per assignment it keeps a bitmask of the players already wrong, and per
    level the table index each assignment read, so a deeper step finds its
    heard guesses in the tables chosen above it. Every table of every level,
    the last included, is tried one at a time.
    """
    total = count_table_strategies(inst)
    if total > budget.max_strategies:
        raise BudgetExceeded(total, budget.max_strategies)
    steps = inst.steps
    c = inst.colors.size
    index = inst.player_index
    assignments = list(iter_assignment_tuples(inst))
    n_a = len(assignments)
    asked = len(set(inst.labeling))
    depth_of = {t: d for d, (t, _, _, _) in enumerate(steps)}
    levels = []
    for step in steps:
        _, player, seen, heard = step
        seen_idx = [0] * n_a
        for x in seen:
            i = index[x]
            seen_idx = [k * c + a[i] for k, a in zip(seen_idx, assignments)]
        me = index[player]
        levels.append((seen_idx, [a[me] for a in assignments], 1 << me,
                       tuple(depth_of[x] for x in heard), _table_size(c, step)))
    at: list = [None] * len(steps)
    chosen: list = []
    witness = None
    spent = examined = pruned = 0
    cap = budget.max_assignments
    depth_count = len(steps)

    def walk(depth, wrong):
        nonlocal floor, witness, spent, examined, pruned
        if depth == depth_count:
            examined += 1
            low = asked - max(map(int.bit_count, wrong))
            if low > floor:
                floor = low
                witness = tuple(chosen)
                return first
            return False
        indices, targets, bit, heard, size = levels[depth]
        for d in heard:
            above = chosen[d]
            indices = [i * c + above[j] for i, j in zip(indices, at[d])]
        at[depth] = indices
        inner = prune and depth + 1 < depth_count
        for table in product(range(c), repeat=size):
            spent += n_a
            if spent > cap:
                raise BudgetExceeded(spent, cap, "play steps")
            new_wrong = [w | bit if table[i] != y else w for w, i, y in zip(wrong, indices, targets)]
            if inner and asked - max(map(int.bit_count, new_wrong)) <= floor:
                pruned += 1
                continue
            chosen.append(table)
            if walk(depth + 1, new_wrong):
                return True
            chosen.pop()
        return False

    walk(0, [0] * n_a)
    return floor, witness, examined, pruned


WALK_BUDGETS = [SearchBudget(max_assignments=cap) for cap in (5, 50, 777, 20_000)] + [DEFAULT_BUDGET]


def _pruned_reference(inst, budget, floor, first):
    return _reference_walk(inst, budget, True, floor, first)


def _need(inst):
    """The least guaranteed correct count the instance's rule accepts, or
    one past the asked players when it accepts none."""
    asked = len(set(inst.labeling))
    return next((k for k in range(asked + 1) if evaluate(inst.rule, k, asked - k)), asked + 1)


def _walk_outcomes(walk, inst, searches):
    """``(floor, witness, examined, pruned)`` or the budget error's text, for
    each ``(floor, first)`` search and every budget of ``WALK_BUDGETS``."""
    out = []
    for budget, (floor, first) in product(WALK_BUDGETS, searches):
        try:
            out.append(walk(inst, budget, floor, first))
        except BudgetExceeded as exc:
            out.append(str(exc))
    return out


class TestWalkMatchesReference:
    @CASES
    def test_spaces(self, space, rule):
        inst = SPACES[space](RULES[rule])
        searches = [(-1, False), (_need(inst) - 1, True)]  # best, and exists for the rule
        assert _walk_outcomes(_walk, inst, searches) == _walk_outcomes(_pruned_reference, inst, searches)

    @pytest.mark.parametrize("tail", [1, 4])
    def test_tables_built_lazily(self, monkeypatch, tail):
        # the spaces here have at most 4,096 tables per step, all built eagerly
        # unless the eager part is capped this low
        monkeypatch.setattr(oracle, "_TAIL", tail)
        for space in ("hnsa-3x2", "hnsf-2x3", "hbsf-3x2", "custom-0", "custom-4"):
            inst = SPACES[space](at_least(1))
            searches = [(-1, False), (0, True)]
            assert _walk_outcomes(_walk, inst, searches) == _walk_outcomes(_pruned_reference, inst, searches)

    @pytest.mark.parametrize("seed", range(6, 46))
    def test_more_custom_instances(self, seed):
        inst = _seeded_custom(seed)(at_least(1))
        asked = len(set(inst.labeling))
        # the walk reads the rule only through its floor: best, then exists at every floor
        searches = [(-1, False)] + [(floor, True) for floor in range(-1, asked + 1)]
        assert _walk_outcomes(_walk, inst, searches) == _walk_outcomes(_pruned_reference, inst, searches)
        # pruning changes no verdict or witness: the walk that tries every table finds the same
        for floor, first in searches:
            unpruned = _reference_walk(inst, DEFAULT_BUDGET, False, floor, first)
            assert _walk(inst, DEFAULT_BUDGET, floor, first)[:2] == unpruned[:2]


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

    def test_huge_spaces_raise_budget_errors(self):
        # 2**24576 has 7,399 digits, too many for Python to print as an int
        inst = hnsa(12, 2, at_least(1))
        for search in (best_guaranteed_correct, exists_winning_exhaustive, enumerate_table_strategies):
            with pytest.raises(BudgetExceeded) as exc:
                search(inst)
            assert exc.value.required == "2**24576"
            assert str(exc.value) == "search needs 2**24576 table strategies, budget is 10000000"
        with pytest.raises(SweepTooLarge) as exc:
            sweep(custom_instance(15000, 2, (), at_least(1)), constant(0))
        assert exc.value.required == "2**15000"
        # one asking that sees 14,299 hats: the exponent 2**14299 is itself too long to print
        inst = custom_instance(14300, 2, [(x, 0) for x in range(1, 14300)], at_least(1), askings=(0,), labeling=(0,))
        with pytest.raises(BudgetExceeded) as exc:
            best_guaranteed_correct(inst)
        assert exc.value.required == "2**" + hex(2**14299)

    def test_play_step_budget_is_checked_before_the_space_is_built(self):
        # one table of two strategies, but 2**40 assignments: a bitset over
        # them would take 128 GiB
        inst = custom_instance(40, 2, (), at_least(1), askings=(0,), labeling=(0,))
        with pytest.raises(BudgetExceeded, match="^search needs 1099511627776 play steps, budget is 100000000$"):
            best_guaranteed_correct(inst)

    @pytest.mark.parametrize("base,exponent,count", [
        (2, 10, 1024),
        (1, 10**5000, 1),
        (10, 639, 10**639),  # 640 digits: printed
        (10, 640, "10**640"),  # 641 digits: a power
        (3, 17496, "3**17496"),
        (2, 10**4300, "2**" + hex(10**4300)),  # an exponent too long to print in decimal
    ], ids=["small", "one", "640-digits", "641-digits", "hbsf-8x3", "hex-exponent"])
    def test_power_count(self, base, exponent, count):
        assert power_count(base, exponent) == count

    def test_power_over(self):
        assert not power_over(2, 23, 10**7) and power_over(2, 24, 10**7)
        assert power_over(2, 10**100, 1) and not power_over(1, 10**100, 1)
        assert power_over(10**7 + 1, 1, 10**7) and not power_over(10**7, 1, 10**7)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int printing limit")
    def test_power_text_ignores_the_int_printing_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert power_count(2, 24576) == "2**24576"
        finally:
            sys.set_int_max_str_digits(limit)

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

    @pytest.mark.parametrize("rule,exists", [(at_least(0), True), (at_least(1), False)])
    def test_witness_without_askings(self, rule, exists):
        # the empty table is the only strategy: it attains the optimum 0 whether or not that wins
        inst = custom_instance(2, 2, (), rule, askings=(), labeling=())
        verdict = best_guaranteed_correct(inst)
        assert (verdict.best_guaranteed, verdict.exists_winning, verdict.witness) == (0, exists, TableStrategy({}))
        assert (verdict.strategies_examined, verdict.pruned) == (1, 0)
        found = exists_winning_exhaustive(inst)
        assert (found.exists_winning, found.witness) == (exists, TableStrategy({}) if exists else None)
        assert verdict.to_json(inst)["witness_table"] == []

    @CASES
    def test_pruning_is_sound(self, space, rule):
        inst = SPACES[space](RULES[rule])
        verdict = best_guaranteed_correct(inst)
        best, tables, examined, pruned = _reference_walk(inst, DEFAULT_BUDGET, False, -1, False)
        assert (examined, pruned) == (count_table_strategies(inst), 0)
        assert (verdict.best_guaranteed, verdict.witness) == (best, _materialize(inst, tables))
        reference = swept(space)
        assert best == max(low for _, low, _ in reference)
        assert verdict.witness == next(s for s, low, _ in reference if low == best)
        assert verdict.exists_winning == any(evaluate(inst.rule, low, high) for _, low, high in reference)


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

    @pytest.mark.parametrize("rule", [at_least(0), at_least(1), fewer_incorrect_than(1), fewer_incorrect_than(2)])
    def test_verdict_agrees_with_a_sweep_of_its_witness_when_an_asking_repeats(self, rule):
        # invalid, as asking 0 repeats, and only player 1 is asked; the
        # searches count the asked players as the sweep does
        inst = custom_instance(2, 2, (), rule, askings=(0, 0), labeling=(0, 1))
        assert not validate_instance(inst).valid
        best = best_guaranteed_correct(inst)
        report = sweep(inst, best.witness)
        assert (report.min_correct, report.winning) == (best.best_guaranteed, best.exists_winning)
        found = exists_winning_exhaustive(inst)
        assert found.exists_winning == best.exists_winning
        assert found.witness is None or sweep(inst, found.witness).winning

    @CASES
    def test_pruned_and_unpruned_agree(self, space, rule):
        inst = SPACES[space](RULES[rule])
        found = exists_winning_exhaustive(inst)
        tables = _reference_walk(inst, DEFAULT_BUDGET, False, _need(inst) - 1, True)[1]
        assert found.witness == (None if tables is None else _materialize(inst, tables))
        first = next((s for s, low, high in swept(space) if evaluate(inst.rule, low, high)), None)
        assert found.witness == first
        assert found.exists_winning == (first is not None)

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
