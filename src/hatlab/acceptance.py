"""The acceptance suite: every headline guarantee, checked end to end.

Each criterion is a standalone function that either returns a summary string
or raises ``AssertionError``. The CLI ``verify`` command and the test suite
both run this registry, so a pass here is a pass everywhere.
"""

from __future__ import annotations

import random
import time

from . import line as lazyline
from .engine import _play, iter_plays, run_game, sweep
from .model import _Record, _steps, as_assignment, at_least, fewer_incorrect_than, hbsf, hnsa, hnsf, topological_extension
from .oracle import (
    best_guaranteed_correct,
    correct_count_census,
    count_table_strategies,
    enumerate_table_strategies,
    exists_winning_exhaustive,
)
from .strategies import (
    block_mod_sum,
    diagonal_adversary,
    seeded_random_strategy,
    sum_broadcast,
)


class CriterionResult(_Record):
    cid: str
    passed: bool
    detail: str
    seconds: float


def check_floor_guarantee_construct() -> str:
    """Disjoint mod-sum blocks guarantee exactly floor(players/colors) hits."""
    cases = 0
    for c in (2, 3):
        for m in range(1, 7):
            n = m // c
            report = sweep(hnsa(m, c, at_least(n)), block_mod_sum(m, c, n))
            assert report.min_correct == n, (
                f"m={m} c={c}: guaranteed {report.min_correct} correct, wanted exactly {n}"
            )
            assert report.winning, f"m={m} c={c}: block strategy lost at {report.counterexample}"
            cases += 1
    return f"min correct equals floor(m/c) on {cases} (m,c) cases"


def check_floor_guarantee_exhaustive() -> str:
    """No see-all strategy beats floor(players/colors): full table search."""
    results = []
    for m, c in ((2, 2), (3, 2), (2, 3)):
        verdict = best_guaranteed_correct(hnsa(m, c, at_least(1)))
        assert verdict.best_guaranteed == m // c, (
            f"m={m} c={c}: search found best {verdict.best_guaranteed}, expected {m // c}"
        )
        results.append(f"({m},{c})={verdict.best_guaranteed}")
    return "best guaranteed correct: " + ", ".join(results)


def check_census_counting_bound() -> str:
    """Summed over assignments, correct guesses are strategy-invariant."""
    inst = hnsa(2, 2, at_least(1))
    expected = 2 * 4 // 2
    n = 0
    for strat in enumerate_table_strategies(inst):
        got = correct_count_census(inst, strat)
        assert got == expected, f"census {got} != {expected} for table #{n}"
        n += 1
    assert n == 16, f"expected 16 tables at (2,2), saw {n}"
    big = correct_count_census(hnsa(3, 3, at_least(1)), block_mod_sum(3, 3, 1))
    assert big == 3 * 27 // 3 == 27, f"census {big} != 27 at (3,3)"
    return f"census = players*assignments/colors for all {n} tables at (2,2) and mod-sum at (3,3)"


def check_line_sight_adversary() -> str:
    """On the silent forward-looking line nothing is guaranteed: exhaustion
    finds no winner, and the backward-filling adversary zeroes any strategy."""
    for m in (1, 2, 3):
        verdict = exists_winning_exhaustive(hnsf(m, 2, at_least(1)))
        assert not verdict.exists_winning, f"unexpected winner on the {m}-player line"
    inst = hnsf(5, 3, at_least(1))
    for seed in range(100):
        strat = seeded_random_strategy(3, seed)
        a = diagonal_adversary(strat, inst)
        result = run_game(inst, strat, a)
        assert result.correct_count == 0, (
            f"seed {seed}: adversary {a} left {result.correct_count} correct guesses"
        )
    return "no winner for lines of 1..3 players; adversary zeroed 100 random strategies"


def check_broadcast_construct() -> str:
    """Broadcast decoding: errors confined to the front on every assignment."""
    plays = 0
    for c in (2, 3, 4):
        strat = sum_broadcast(c)
        for m in range(2, 9):
            inst = hbsf(m, c, fewer_incorrect_than(2))
            for values, result in iter_plays(inst, strat):
                assert result.incorrect_set <= {-1}, (
                    f"m={m} c={c} a={values}: errors beyond the front: {sorted(result.incorrect_set)}"
                )
                plays += 1
    return f"across {plays} plays every non-front guess was exact"


def check_broadcast_exhaustive() -> str:
    """With two players and two colors, no strategy gets everyone correct."""
    inst = hbsf(2, 2, fewer_incorrect_than(1))
    total = count_table_strategies(inst)
    assert total == 16, f"strategy space is {total}, expected 16"
    n = 0
    for strat in enumerate_table_strategies(inst):
        assert not sweep(inst, strat).winning, f"table #{n} makes every guess correct"
        n += 1
    assert n == 16, f"expected 16 tables, saw {n}"
    assert not exists_winning_exhaustive(inst).exists_winning, "a perfect strategy allegedly exists"
    return "all 16 tables fail to make every guess correct"


def check_lazy_selector_lines() -> str:
    """Symbolic infinite lines: finite error sets where promised."""
    rng = random.Random(7)
    for trial in range(100):
        blocks = rng.randint(1, 3)
        c = rng.randint(2, 4)
        base = rng.randrange(c)
        exceptions = {}
        for _ in range(rng.randint(0, 10)):
            pos = lazyline.OrdinalPosition(rng.randrange(blocks), rng.randint(0, 30))
            exceptions[pos] = rng.randrange(c)
        plain_shape = lazyline.LineShape(blocks)
        a = lazyline.LazyAssignment.of(base, exceptions)
        deviations = a.deviations()

        rec = lazyline.run_lazy("see_all_selector", plain_shape, base, a, c)
        assert rec.cofinite_correct, f"trial {trial}: see-all selector lost cofiniteness"
        assert rec.incorrect == deviations, (
            f"trial {trial}: errors {sorted(rec.incorrect)} != deviations {sorted(deviations)}"
        )

        rec = lazyline.run_lazy("forward_selector", plain_shape, base, a, c)
        assert rec.cofinite_correct and rec.incorrect <= deviations, (
            f"trial {trial}: forward selector errors escaped the deviation set"
        )

        front_shape = lazyline.LineShape(blocks, front_present=True)
        af = lazyline.LazyAssignment.of(base, exceptions, front=rng.randrange(c))
        rec = lazyline.run_lazy("sum_broadcast", front_shape, base, af, c)
        assert rec.cofinite_correct, f"trial {trial}: broadcast lost cofiniteness"
        assert rec.incorrect <= {lazyline.FRONT}, (
            f"trial {trial}: broadcast errors beyond the front: {sorted(rec.incorrect)}"
        )
        for pos, color in af.exceptions:
            assert rec.guess_at(pos) == color, f"trial {trial}: wrong guess at {pos!r}"
    return "100 random lines: selector errors = deviations, broadcast errors <= front"


def check_play_order_invariance() -> str:
    """The play does not depend on which hearing-compatible order is used."""
    rng = random.Random(11)
    for trial in range(100):
        n = rng.randint(1, 8)
        c = rng.randint(2, 3)
        players = tuple(range(n))
        sight = [(x, y) for x in players for y in players if rng.random() < 0.3]
        perm = list(players)
        rng.shuffle(perm)
        hearing = [
            (perm[i], perm[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        ]
        from .model import custom_instance

        inst = custom_instance(players, c, sight, at_least(0), hearing=hearing)
        strat = seeded_random_strategy(c, rng.randrange(10**6))
        seed = rng.randrange(10**6)
        orders = [topological_extension(inst, seed=seed), topological_extension(inst, seed=seed + 1)]
        for _ in range(3):
            a = tuple(rng.randrange(c) for _ in players)
            plays = [_play(_steps(inst, o), as_assignment(inst, a), strat.decide, c)[0] for o in orders]
            default = run_game(inst, strat, a).guesses
            assert plays[0] == plays[1] == default, (
                f"trial {trial}: orders {orders} disagree on assignment {a}"
            )
    return "100 random instances: plays identical across seeded orders"


def check_extended_sum_homomorphism() -> str:
    """The line announcement is additive and extends the finite-support sum."""
    rng = random.Random(13)
    for mu in (2, 3, 5):
        for _ in range(1000):
            x = _random_lazy(rng, mu)
            y = _random_lazy(rng, mu)
            both = lazyline.pointwise_sum(x, y, mu)
            lhs = lazyline.extended_sum(both, mu)
            rhs = (lazyline.extended_sum(x, mu) + lazyline.extended_sum(y, mu)) % mu
            assert lhs == rhs, f"mu={mu}: sum of {x} and {y} is not additive"
        for _ in range(1000):
            f = _random_lazy(rng, mu, base=0)
            plain = sum(color for _, color in f.exceptions) % mu
            assert lazyline.extended_sum(f, mu) == plain, (
                f"mu={mu}: finite-support case disagrees with the plain sum"
            )
    return "3000 pairs additive, 3000 finite-support sequences match the plain sum"


def _random_lazy(rng, mu, base=None):
    base = rng.randrange(mu) if base is None else base
    exceptions = {
        lazyline.OrdinalPosition(rng.randrange(3), rng.randint(0, 20)): rng.randrange(mu)
        for _ in range(rng.randint(0, 6))
    }
    return lazyline.LazyAssignment.of(base, exceptions)


def check_combination_blockwise() -> str:
    """A combined strategy plays each block exactly as the block alone would."""
    from .engine import combine, iter_assignment_tuples
    from .model import custom_instance

    rng = random.Random(17)
    for trial in range(50):
        m = rng.randint(2, 6)
        c = rng.randint(2, 3)
        split = rng.randint(1, m - 1)
        target = hnsa(m, c, at_least(0))
        parts = []
        for block in (target.players[:split], target.players[split:]):
            sub = custom_instance(
                block, c, [(x, y) for x in block for y in block if x != y], at_least(0)
            )
            parts.append((sub, seeded_random_strategy(c, rng.randrange(10**6))))
        combined = combine(parts, target)
        local = [{values: run_game(sub, strat, values).guesses for values in iter_assignment_tuples(sub)}
                 for sub, strat in parts]
        for values, whole in iter_plays(target, combined):
            a = dict(zip(target.players, values))
            for (sub, _), plays in zip(parts, local):
                part = plays[tuple(a[p] for p in sub.players)]
                for t in sub.askings:
                    assert whole.guesses[t] == part[t], (
                        f"trial {trial}: combined and local plays disagree at {t} on {values}"
                    )
    return "50 random two-block splits agree blockwise on every assignment"


CRITERIA: tuple[tuple[str, object, float | None], ...] = (
    ("floor-guarantee-construct", check_floor_guarantee_construct, 1.0),
    ("floor-guarantee-exhaustive", check_floor_guarantee_exhaustive, 30.0),
    ("census-counting-bound", check_census_counting_bound, None),
    ("line-sight-adversary", check_line_sight_adversary, 10.0),
    ("broadcast-construct", check_broadcast_construct, 10.0),
    ("broadcast-exhaustive", check_broadcast_exhaustive, None),
    ("lazy-selector-lines", check_lazy_selector_lines, None),
    ("play-order-invariance", check_play_order_invariance, None),
    ("extended-sum-homomorphism", check_extended_sum_homomorphism, None),
    ("combination-blockwise", check_combination_blockwise, None),
)


def run_criteria(only: str | None = None) -> list[CriterionResult]:
    """Run every criterion whose id contains ``only`` (all when None)."""
    results = []
    for cid, fn, limit in CRITERIA:
        if only and only not in cid:
            continue
        start = time.perf_counter()
        try:
            detail = fn()
            passed = True
        except AssertionError as exc:
            detail = str(exc)
            passed = False
        elapsed = time.perf_counter() - start
        if passed and limit is not None and elapsed > limit:
            passed = False
            detail = f"finished correctly but took {elapsed:.2f}s (limit {limit:.0f}s)"
        results.append(CriterionResult(cid, passed, detail, elapsed))
    return results
