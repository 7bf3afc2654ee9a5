import random
import sys
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

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
    instance_from_json,
    is_winning,
    run_game,
    sweep,
    validate_instance,
)
from hatlab.engine import iter_assignment_tuples
from hatlab.errors import CyclicHearing, power_count, power_over
from hatlab import oracle
from hatlab.oracle import DEFAULT_BUDGET, _rank, _table_size, _walk
from hatlab.tables import from_steps


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


def _walk_outcomes(walk, inst, searches, budgets=WALK_BUDGETS):
    """``(floor, witness, examined, pruned)`` or the budget error's text, for
    each ``(floor, first)`` search and every budget of ``budgets``."""
    out = []
    for budget, (floor, first) in product(budgets, searches):
        try:
            out.append(walk(inst, budget, floor, first))
        except BudgetExceeded as exc:
            out.append(str(exc))
    return out


# The benchmark's prune-heavy searches: hearing chains on two colors, where
# most nodes are tight and most of their tables are pruned.
RELAY4 = {"kind": "custom", "players": 4, "colors": 2,
          "sight": [[1, 0], [2, 0], [3, 0], [2, 1], [3, 1], [3, 2]],
          "hearing": [[0, 1], [1, 2], [2, 3]], "rule": {"kind": "fewer_incorrect", "threshold": 2}}
RING5 = {"kind": "custom", "players": 5, "colors": 2,
         "sight": [[1, 0], [2, 1], [3, 2], [4, 3], [0, 4], [2, 0], [3, 1]],
         "hearing": [[0, 2], [1, 3]], "rule": {"kind": "at_least", "threshold": 2}}
CHAINS = {"relay4": RELAY4, "ring5": RING5}
# at several of these caps a search runs out inside a run of pruned tables,
# which the walk counts and charges in one step
CHAIN_BUDGETS = WALK_BUDGETS + [SearchBudget(max_assignments=cap) for cap in (5_000, 70_000, 300_003, 1_000_000)]


def _chain_outcomes(walk, chain):
    """``_walk_outcomes`` of a chain's best search and its exists search for
    its rule, under every budget of ``CHAIN_BUDGETS``."""
    inst = instance_from_json(CHAINS[chain])
    return _walk_outcomes(walk, inst, [(-1, False), (_need(inst) - 1, True)], CHAIN_BUDGETS)


@cache
def _chain_reference(chain):
    return _chain_outcomes(_pruned_reference, chain)


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

    @pytest.mark.parametrize("chain", CHAINS)
    def test_prune_heavy_chains(self, chain):
        assert _chain_outcomes(_walk, chain) == _chain_reference(chain)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_cap_runs_out_at_a_whole_table(self, data):
        """Between the fixed caps above: every table the walk tries, settles or
        prunes plays all c**m assignments, so a search runs out at the first
        multiple of c**m past its cap, as the reference does."""
        source = data.draw(st.sampled_from([*SPACES, "seeded", *CHAINS]))
        if source in CHAINS:
            inst = instance_from_json(CHAINS[source])
        else:
            build = _seeded_custom(data.draw(st.integers(0, 200))) if source == "seeded" else SPACES[source]
            inst = build(RULES[data.draw(st.sampled_from(list(RULES)))])
        n_a = inst.colors.size ** len(inst.players)
        cap = data.draw(st.integers(1, 500 * n_a))
        search = data.draw(st.sampled_from([(-1, False), (_need(inst) - 1, True)]))
        budget = [SearchBudget(max_assignments=cap)]
        [outcome] = _walk_outcomes(_walk, inst, [search], budget)
        assert [outcome] == _walk_outcomes(_pruned_reference, inst, [search], budget)
        if isinstance(outcome, str):
            assert outcome == f"search needs {(cap // n_a + 1) * n_a} play steps, budget is {cap}"

    def test_chain_counts_and_budget_error(self):
        relay4, ring5 = (instance_from_json(CHAINS[chain]) for chain in ("relay4", "ring5"))
        counts = {(name, search.__name__): (verdict.strategies_examined, verdict.pruned)
                  for name, inst in (("relay4", relay4), ("ring5", ring5))
                  for search in (best_guaranteed_correct, exists_winning_exhaustive)
                  for verdict in [search(inst)]}
        assert counts == {
            ("relay4", "best_guaranteed_correct"): (2536, 88497),
            ("relay4", "exists_winning_exhaustive"): (0, 65776),
            ("ring5", "best_guaranteed_correct"): (8076, 23437),
            ("ring5", "exists_winning_exhaustive"): (7009, 20089),
        }
        with pytest.raises(BudgetExceeded) as exc:
            exists_winning_exhaustive(relay4, SearchBudget(max_assignments=70_000))
        assert str(exc.value) == "search needs 70016 play steps, budget is 70000"

    def test_each_tight_node_path_runs(self, monkeypatch):
        """Under the reference comparison, tight nodes skip runs of pruned
        tables between survivors, prune whole nodes that have an entry with
        no safe guess, and go tight partway through in best mode, both when
        the floor rises to the node's slack and when it rises past it."""
        runs = []
        survivors = oracle._survivors

        def spy(rows, at_top, c, start):
            run = {"start": start, "ranks": [], "done": False,
                   "no safe guess": any(all(r & at_top for r in row) for row in rows)}
            runs.append(run)
            for found in survivors(rows, at_top, c, start):
                run["ranks"].append(found[0])
                yield found
            run["done"] = True

        monkeypatch.setattr(oracle, "_survivors", spy)
        for chain in CHAINS:
            assert _chain_outcomes(_walk, chain) == _chain_reference(chain)
        assert any(b - a > 1 for run in runs for a, b in zip([run["start"] - 1] + run["ranks"], run["ranks"]))
        assert any(run["no safe guess"] for run in runs)
        assert any(run["start"] and run["ranks"] for run in runs)
        # a best search within its budget leaves a node's survivors unvisited
        # only when the floor rises past the node
        runs.clear()
        for chain in CHAINS:
            _walk(instance_from_json(CHAINS[chain]), DEFAULT_BUDGET, -1, False)
        assert any(not run["done"] for run in runs)


# --- colour relabellings: the symmetry the walk's reuse rests on -------------

def _relabel(inst, strat, perms):
    """The image of table strategy ``strat`` under ``perms``, one color
    permutation per player id: at the relabelled observation it guesses the
    relabelled guess, and a heard guess is relabelled by the permutation of
    its asking's player."""
    label = inst.label_of
    return TableStrategy({
        (t, tuple((x, perms[x][a]) for x, a in seen), tuple((s, perms[label(s)][g]) for s, g in heard)):
            perms[label(t)][guess]
        for (t, seen, heard), guess in strat.entries.items()})


# seeded custom instances where some asking hears another and a player is asked twice
HEARD_TWICE = [9, 10, 17, 19, 22, 23, 25, 26, 27, 28, 35]
# the walk reuses first-step subtrees only with three or more play steps;
# in the last one player 0 asks first and sees its own hat
REUSE_SPACES = {
    "hnsf-3x2": lambda: hnsf(3, 2, at_least(1)),
    "hnsf-4x2": lambda: hnsf(4, 2, at_least(1)),
    "hnsa-3x2": lambda: hnsa(3, 2, at_least(1)),
    "hnsf-3x3": lambda: hnsf(3, 3, at_least(1)),
    "relay4": lambda: instance_from_json(RELAY4),
    "ring5": lambda: instance_from_json(RING5),
    "custom-27": lambda: _seeded_custom(27)(at_least(1)),
    "self-first-3x3": lambda: custom_instance(3, 3, [(0, 0), (0, 2), (1, 0), (2, 1)], at_least(1),
                                              hearing=[(0, 1), (1, 2)]),
}


class TestRelabelling:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_relabelling_preserves_sweep_results(self, data):
        source = data.draw(st.sampled_from([*SPACES, *(f"seeded-{seed}" for seed in HEARD_TWICE)]))
        if source in SPACES:
            inst = SPACES[source](at_least(1))
        else:
            inst = _seeded_custom(int(source.split("-")[1]))(at_least(1))
            assert any(heard for *_, heard in inst.steps) and len(set(inst.labeling)) < len(inst.labeling)
        c = inst.colors.size
        perms = {x: data.draw(st.permutations(range(c))) for x in inst.players}
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        strat = from_steps(inst, [tuple(rng.randrange(c) for _ in range(_table_size(c, step))) for step in inst.steps])
        image = _relabel(inst, strat, perms)
        assert set(image.entries) == set(strat.entries)  # a table strategy of the same space
        before, after = sweep(inst, strat), sweep(inst, image)
        assert (after.min_correct, after.max_incorrect) == (before.min_correct, before.max_incorrect)

    @pytest.mark.parametrize("space", REUSE_SPACES)
    def test_moves_rank_the_image_of_each_first_step_table(self, space):
        """The weights ``_walk`` ranks a first-step table's images by give the
        images ``_relabel`` builds, under every adjacent transposition of one
        player's colors that moves some table."""
        inst = REUSE_SPACES[space]()
        c = inst.colors.size
        t, player, seen, heard = inst.steps[0]
        index = inst.player_index
        moves = oracle._relabellings(c, [index[x] for x in seen], index[player])
        assert len(moves) == len({*seen, player}) * (c - 1)
        rest = [(0,) * _table_size(c, step) for step in inst.steps[1:]]
        patterns = list(product(range(c), repeat=len(seen)))
        tables = list(product(range(c), repeat=len(patterns)))
        if len(tables) > 512:  # c = 3 and nine entries: a seeded sample
            tables = random.Random(space).sample(tables, 512)
        for table in tables:
            strat = from_steps(inst, [table, *rest])
            images = set()
            for q, j in product(inst.players, range(c - 1)):
                swap = [*range(j), j + 1, j, *range(j + 2, c)]
                image = _relabel(inst, strat, {x: swap if x == q else range(c) for x in inst.players}).entries
                images.add(_rank([image[(t, tuple(zip(seen, p)), ())] for p in patterns], c))
            rank = _rank(table, c)
            assert {sum(w[i][g] for i, g in enumerate(table)) for w in moves} | {rank} == images | {rank}


class TestReuse:
    @staticmethod
    def _nodes(monkeypatch, inst, search, moves=True):
        """The outcome of ``_walk`` and the nodes it opened, with or without
        the relabelling moves."""
        opened = [0]
        for name in ("_lex_ors", "_survivors"):
            def spy(*args, inner=getattr(oracle, name)):
                opened[0] += 1
                return inner(*args)
            monkeypatch.setattr(oracle, name, spy)
        if not moves:
            monkeypatch.setattr(oracle, "_relabellings", lambda *args: [])
        [outcome] = _walk_outcomes(_walk, inst, [search], [DEFAULT_BUDGET])
        monkeypatch.undo()
        return outcome, opened[0]

    @pytest.mark.parametrize("space,search", [
        ("hnsf-4x2", (0, True)), ("relay4", (-1, False)), ("ring5", (-1, False)),
    ])
    def test_first_step_subtrees_are_reused(self, monkeypatch, space, search):
        inst = REUSE_SPACES[space]()
        reused, opened = self._nodes(monkeypatch, inst, search)
        walked, opened_without = self._nodes(monkeypatch, inst, search, moves=False)
        assert reused == walked
        assert opened < opened_without

    @pytest.mark.parametrize("m,caps", [(3, [215, 1_000, 1_500]), (4, [6_709, 50_000, 300_000])])
    def test_budget_runs_out_inside_a_reused_charge(self, m, caps):
        inst = hnsf(m, 2, at_least(1))
        budgets = [SearchBudget(max_assignments=cap) for cap in caps]
        searches = [(-1, False), (0, True)]
        assert _walk_outcomes(_walk, inst, searches, budgets) == _walk_outcomes(_pruned_reference, inst, searches, budgets)
        for budget, search in product(budgets, searches):
            with pytest.raises(BudgetExceeded) as exc:
                _walk(inst, budget, *search)
            # raised by the one-step charge of a reused subtree
            assert [entry.name for entry in exc.traceback[-2:]] == ["reuse", "charge"]


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

    def test_budgets_must_be_positive_ints(self):
        inst = hnsa(2, 2, at_least(1))
        for budget, message in [(0, "budgets must be positive"), (-5, "budgets must be positive"),
                                (2.5, "budgets must be integers, got 2.5"), ("5", "budgets must be integers, got '5'"),
                                (False, "budgets must be integers, got False")]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                enumerate_table_strategies(inst, max_strategies=budget)
            with pytest.raises(ValueError, match=f"^{message}$"):
                correct_count_census(inst, constant(0), max_assignments=budget)
            for search in (best_guaranteed_correct, exists_winning_exhaustive):
                for field in ("max_strategies", "max_assignments"):
                    with pytest.raises(ValueError, match=f"^{message}$"):
                        search(inst, SearchBudget(**{field: budget}))

    def test_positivity_is_judged_before_the_play_order(self):
        inst = custom_instance(2, 2, (), at_least(1), hearing=[(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="budgets must be positive"):
            enumerate_table_strategies(inst, max_strategies=0)
        with pytest.raises(CyclicHearing):
            enumerate_table_strategies(inst, max_strategies=1)

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
        assert (verdict.best_guaranteed, verdict.witness) == (best, from_steps(inst, tables))
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
    def test_an_instance_whose_asking_repeats_is_refused(self, rule):
        # asking 0 repeats, so only one of its two labels could be asked:
        # the searches refuse the instance, as a sweep of any strategy does
        inst = custom_instance(2, 2, (), rule, askings=(0, 0), labeling=(0, 1))
        assert validate_instance(inst).errors == ("asking 0 appears more than once",)
        for search in (best_guaranteed_correct, exists_winning_exhaustive, lambda i: sweep(i, constant(0))):
            with pytest.raises(ValueError, match=r"^asking 0 appears more than once$"):
                search(inst)

    @CASES
    def test_pruned_and_unpruned_agree(self, space, rule):
        inst = SPACES[space](RULES[rule])
        found = exists_winning_exhaustive(inst)
        tables = _reference_walk(inst, DEFAULT_BUDGET, False, _need(inst) - 1, True)[1]
        assert found.witness == (None if tables is None else from_steps(inst, tables))
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
