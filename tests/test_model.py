import copy
import dataclasses
import pickle
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hatlab import (
    OMEGA,
    ColorSpace,
    CyclicHearing,
    EvaluationRule,
    ZeroSize,
    as_assignment,
    assignment_tuple,
    at_least,
    build_canonical_instance,
    constant,
    custom_instance,
    fewer_incorrect_than,
    hbsf,
    hnsa,
    hnsf,
    instance_from_json,
    instance_to_json,
    run_game,
    topological_extension,
    validate_instance,
)
from hatlab import model
from hatlab.model import ValidationReport, _Record, _steps, find_hearing_cycle


class TestCanonicalConstructors:
    def test_hnsa_two_players(self):
        inst = hnsa(2, 2, at_least(1))
        assert inst.players == (0, 1)
        assert inst.sight == {(0, 1), (1, 0)}
        assert inst.hearing == frozenset()
        assert inst.askings == inst.players
        assert inst.label_of(1) == 1

    def test_hnsf_sight_is_forward(self):
        inst = hnsf(3, 2, at_least(1))
        assert inst.seen_by(0) == (1, 2)
        assert inst.seen_by(1) == (2,)
        assert inst.seen_by(2) == ()
        assert inst.hearing == frozenset()

    def test_hbsf_front_and_hearing(self):
        inst = hbsf(3, 2, fewer_incorrect_than(2))
        assert inst.players == (-1, 0, 1)
        assert inst.seen_by(-1) == (0, 1)
        assert inst.heard_at(-1) == ()
        assert inst.seen_by(1) == ()
        assert inst.heard_at(1) == (-1, 0)

    def test_zero_sizes_rejected(self):
        with pytest.raises(ZeroSize):
            build_canonical_instance("hnsa", 0, 2, at_least(1))
        with pytest.raises(ZeroSize):
            build_canonical_instance("hbsf", 3, 0, at_least(1))
        with pytest.raises(ValueError):
            build_canonical_instance("nope", 2, 2, at_least(1))
        with pytest.raises(ZeroSize, match="^an instance needs at least one player$"):
            custom_instance(0, 2, (), at_least(0))

    @pytest.mark.parametrize("kind", ["hnsa", "hnsf", "hbsf"])
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_relations_avoid_the_diagonal(self, kind, m):
        inst = build_canonical_instance(kind, m, 3, at_least(1))
        assert all(a != b for a, b in inst.sight)
        assert all(a != b for a, b in inst.hearing)

    @pytest.mark.parametrize("kind", ["hnsf", "hbsf"])
    def test_line_sight_total_and_transitive(self, kind):
        inst = build_canonical_instance(kind, 5, 2, at_least(1))
        order = {m: i for i, m in enumerate(inst.players)}
        for x in inst.players:
            for y in inst.players:
                if x != y:
                    # y sees x exactly when x stands later in the line
                    assert ((x, y) in inst.sight) == (order[x] > order[y])
        for x, y in inst.sight:
            for z, w in inst.sight:
                if w == x:
                    assert (z, y) in inst.sight


class TestValidation:
    def test_canonical_is_clean(self):
        report = validate_instance(hnsa(3, 2, at_least(1)))
        assert report.valid and not report.warnings

    def test_hearing_cycle_witnessed(self):
        inst = custom_instance(2, 2, sight=(), rule=at_least(1), hearing=[(0, 1), (1, 0)])
        report = validate_instance(inst)
        assert not report.valid
        assert report.hearing_cycle is not None
        assert sorted(report.hearing_cycle) == [0, 1]

    def test_self_sight_is_a_warning_not_an_error(self):
        inst = custom_instance(2, 2, sight=[(0, 0)], rule=at_least(1))
        report = validate_instance(inst)
        assert report.valid
        assert any("sees its own hat" in w for w in report.warnings)

    def test_self_sight_warning_names_each_seer(self):
        warning = "player {} sees its own hat, which trivializes its guess"
        inst = custom_instance(3, 2, sight=[(0, 0), (1, 1)], rule=at_least(1))
        assert validate_instance(inst).warnings == (warning.format(0), warning.format(1))
        inst = custom_instance(1, 2, sight=[(0, 0)], rule=at_least(0), askings=(), labeling=())
        assert validate_instance(inst) == ValidationReport((), (warning.format(0),))

    def test_labeling_gap_reported(self):
        inst = custom_instance(2, 2, sight=(), rule=at_least(1), askings=(0, 1), labeling=(0,))
        report = validate_instance(inst)
        assert any("labeling covers" in e for e in report.errors)

    def test_repeated_asking_id_is_an_error(self):
        # the labeling maps asking 0 to player 1 only, so player 0 is never asked
        inst = custom_instance(2, 2, sight=(), rule=at_least(1), askings=(0, 0, 1, 1, 2), labeling=(0, 1, 0, 1, 0))
        assert validate_instance(inst) == ValidationReport(
            ("asking 0 appears more than once", "asking 1 appears more than once"), ())

    def test_repeated_player_id_is_an_error(self):
        # without it the sweep counted 4 assignments of one player, and the
        # play kept the last of its two colors
        from hatlab import sweep

        error = "player 0 appears more than once"
        inst = custom_instance((0, 0), 2, [], at_least(1), askings=(0,), labeling=(0,))
        assert validate_instance(inst) == ValidationReport((error,), ())
        for play in (lambda i: i.steps, lambda i: sweep(i, constant(0)), lambda i: run_game(i, constant(0), (1, 0))):
            with pytest.raises(ValueError, match=f"^{error}$"):
                play(inst)
        # after the labeling's length, before the askings, in id order
        inst = custom_instance((3, 1, 3, 1, 2), 2, [], at_least(1), askings=(0, 0), labeling=(7,))
        assert validate_instance(inst).errors == (
            "labeling covers 1 askings, instance has 2", "player 1 appears more than once",
            "player 3 appears more than once", "asking 0 appears more than once",
            "asking 0 is labeled with unknown player 7")

    def test_an_id_that_is_not_an_int_is_refused(self):
        # int() once truncated these: players (0.5, 1.7) became (0, 1), and
        # (0.5, 0.7) was reported as a repeated player 0
        cases = [
            (lambda: custom_instance((0.5, 1.7), 2, [(0.5, 1.7)], at_least(1)), "a player id must be an integer, got 0.5"),
            (lambda: custom_instance((0, True), 2, [], at_least(1)), "a player id must be an integer, got True"),
            (lambda: custom_instance(2, 2, [(0, 1.0)], at_least(1)), "a sight pair must hold two integers, got (0, 1.0)"),
            (lambda: custom_instance(2, 2, [], at_least(1), hearing=[("0", 1)]),
             "a hearing pair must hold two integers, got ('0', 1)"),
            (lambda: custom_instance(2, 2, [], at_least(1), askings=(0, 1.5)), "an asking id must be an integer, got 1.5"),
            (lambda: custom_instance(2, 2, [], at_least(1), labeling=(0, None)), "a label must be an integer, got None"),
        ]
        for build, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()

    @pytest.mark.parametrize("m", [2.5, 2.0, True, "2", None])
    def test_a_player_count_that_is_not_an_int_is_refused(self, m):
        # 2.5 once let a bare TypeError out of range(), and True built one player
        for kind in ("hnsa", "hnsf", "hbsf"):
            with pytest.raises(ValueError, match=f"^the player count must be an integer, got {re.escape(repr(m))}$"):
                build_canonical_instance(kind, m, 2, at_least(1))

    def test_unknown_player_in_labeling(self):
        inst = custom_instance(2, 2, sight=(), rule=at_least(1), labeling=(0, 7))
        assert not validate_instance(inst).valid

    def test_relations_must_stay_inside_the_instance(self):
        inst = custom_instance(2, 2, sight=[(5, 0)], rule=at_least(1))
        assert not validate_instance(inst).valid

    def test_unknown_hearing_asking_and_unreachable_threshold(self):
        inst = custom_instance(2, 2, sight=(), rule=at_least(3), hearing=[(0, 5)])
        assert validate_instance(inst) == ValidationReport(
            ("hearing pair (0, 5) mentions unknown askings",), ("rule threshold 3 exceeds the player count 2",))

    def test_valid_iff_play_terminates(self):
        import random

        from hatlab import CyclicHearing, constant, run_game

        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 5)
            hearing = [
                (a, b)
                for a in range(n)
                for b in range(n)
                if a != b and rng.random() < 0.4
            ]
            inst = custom_instance(n, 2, sight=(), rule=at_least(0), hearing=hearing)
            ok = validate_instance(inst).valid
            try:
                run_game(inst, constant(0), [0] * n)
                ran = True
            except CyclicHearing:
                ran = False
            assert ok == ran

    def test_report_matches_a_loop_over_every_pair(self):
        # the reference scans every pair in id order; the report checks the
        # relations as the instance holds them and scans only on a fault.
        # The steps refuse exactly what the report does, with its first error
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(1, 6)
            ids = range(-2, n + 3)  # unknown players and askings on both sides
            known = (1.0, 0.97, 0.85)[seed % 3]  # the chance a drawn id is one the instance has

            def pick(pool):
                return rng.choice(pool) if pool and rng.random() < known else rng.choice(ids)

            askings = rng.sample(ids, rng.randint(0, n + 1))  # players asked twice or never
            if askings and rng.random() < 0.15:
                askings.append(rng.choice(askings))  # an asking id repeats
            labeling = [pick(range(n)) for _ in range(len(askings) + rng.choice((-1,) + (0,) * 8 + (1,)))]
            sight = [(pick(range(n)), pick(range(n))) for _ in range(rng.randint(0, 2 * n))]  # self-seers too
            rank = rng.sample(ids, len(ids)).index
            hearing = [pair if rng.random() < 0.1 else tuple(sorted(pair, key=rank))  # a few back edges: cycles
                       for pair in ((pick(askings), pick(askings)) for _ in range(rng.randint(0, 2 * n)))
                       if pair[0] != pair[1] or rng.random() < 0.1]
            rule = at_least(rng.randint(0, n + 1))
            players = list(range(n))
            if rng.random() < 0.1:
                players.insert(rng.randint(0, n), rng.randrange(n))  # a player id repeats
            inst = custom_instance(players, 2, sight, rule, hearing=hearing, askings=askings, labeling=labeling)
            report = validate_instance(inst)
            assert report.errors == _errors_by_loops(inst), seed
            assert report.warnings == _warnings_by_loops(inst), seed
            if report.hearing_cycle is not None:
                with pytest.raises(CyclicHearing):
                    inst.steps
            elif report.errors:
                with pytest.raises(ValueError, match=f"^{re.escape(report.errors[0])}$"):
                    inst.steps
            else:
                assert sorted(t for t, _, _, _ in inst.steps) == sorted(askings)


def _errors_by_loops(inst):
    """:func:`validate_instance`'s errors, each rule a plain loop over the pairs in id order."""
    players, askings = set(inst.players), set(inst.askings)
    errors = []
    if len(inst.labeling) != len(inst.askings):
        errors.append(f"labeling covers {len(inst.labeling)} askings, instance has {len(inst.askings)}")
    errors += [f"player {m} appears more than once" for m in sorted(players) if inst.players.count(m) > 1]
    errors += [f"asking {t} appears more than once" for t in sorted(askings) if inst.askings.count(t) > 1]
    errors += [f"asking {t} is labeled with unknown player {m}"
               for t, m in zip(inst.askings, inst.labeling) if m not in players]
    errors += [f"sight pair ({seen}, {seer}) mentions unknown players"
               for seen, seer in sorted(inst.sight) if seen not in players or seer not in players]
    errors += [f"hearing pair ({earlier}, {later}) mentions unknown askings"
               for earlier, later in sorted(inst.hearing) if earlier not in askings or later not in askings]
    # a cycle is left when no asking can go first: every one still in ``left`` hears another still in it
    left = set(askings)
    while any(not any((x, t) in inst.hearing for x in left) for t in left):
        left -= {t for t in left if not any((x, t) in inst.hearing for x in left)}
    cycle = find_hearing_cycle(inst)
    assert (cycle is None) == (not left)
    if cycle is not None:
        assert all((x, t) in inst.hearing for x, t in zip(cycle, cycle[1:] + cycle[:1]))
        errors.append(f"hearing relation has a cycle: {list(cycle)}")
    return tuple(errors)


def _warnings_by_loops(inst):
    """:func:`validate_instance`'s warnings, the self-seers by a loop over the sight pairs."""
    warnings = []
    if inst.rule.threshold > len(inst.players):
        warnings.append(f"rule threshold {inst.rule.threshold} exceeds the player count {len(inst.players)}")
    warnings += [f"player {seer} sees its own hat, which trivializes its guess"
                 for seen, seer in sorted(inst.sight) if seen == seer and seer in inst.players]
    return tuple(warnings)


def _hearing_instance(askings, hearing):
    return custom_instance(len(askings), 2, sight=(), rule=at_least(0), hearing=hearing,
                           askings=askings, labeling=range(len(askings)))


@st.composite
def hearing_instances(draw):
    """1-7 askings with arbitrary ids, and hearing pairs that may be
    self-loops or name unknown askings."""
    n = draw(st.integers(1, 7))
    askings = draw(st.lists(st.integers(-3, 9), min_size=n, max_size=n, unique=True))
    ids = st.sampled_from(askings) | st.integers(-5, 12)
    return _hearing_instance(askings, draw(st.lists(st.tuples(ids, ids), max_size=14)))


class TestHearingCycles:
    # each instance has several cycles, so the search order decides which
    # witness is named; these are the witnesses hatlab has always named, and
    # a graphlib that searches in another order fails here
    @pytest.mark.parametrize("askings,hearing,cycle", [
        ((0, 1, 2, 3, 4, 5), [(0, 5), (5, 3), (3, 5), (1, 2), (2, 1), (4, 4), (5, 1)], (1, 2)),
        ((7, 3, 9, -2, 5), [(9, 3), (3, 9), (7, -2), (-2, 5), (5, 7), (3, 5), (9, 7)], (7, -2, 5)),
        ((2, 0, 1, 3), [(3, 3), (0, 1), (1, 0), (2, 3)], (3,)),
        (tuple(range(7)), [(i, j) for i in range(7) for j in range(i + 1, 7)] + [(6, 2), (4, 1), (3, 0)],
         (0, 1, 2, 3)),
    ], ids=["nested", "unsorted-askings", "self-loop", "dense"])
    def test_witness_is_pinned(self, askings, hearing, cycle):
        inst = _hearing_instance(askings, hearing)
        message = f"hearing relation has a cycle: {list(cycle)}"
        assert find_hearing_cycle(inst) == cycle
        assert validate_instance(inst) == ValidationReport((message,), (), cycle)
        for play in (lambda: topological_extension(inst), lambda: topological_extension(inst, seed=3),
                     lambda: run_game(inst, constant(0), [0] * len(askings))):
            with pytest.raises(CyclicHearing) as exc:
                play()
            assert type(exc.value) is CyclicHearing
            assert exc.value.cycle == cycle and str(exc.value) == message

    @pytest.mark.parametrize("hearing", [[(0, 1), (1, 2)], [(0, 1), (1, 2), (2, 0)]], ids=["chain", "cycle"])
    @pytest.mark.parametrize("first", ["steps", "validate"])
    def test_steps_and_validate_share_one_hearing_order(self, hearing, first):
        inst = _hearing_instance((0, 1, 2), hearing)
        calls = []

        def steps():
            try:
                return inst.steps
            except CyclicHearing as exc:
                return exc.cycle

        def order(*args, **kwargs):
            calls.append(args)
            return topological_extension(*args, **kwargs)

        with mock.patch.object(model, "topological_extension", order):
            reports = [validate_instance(inst)] if first == "validate" else []
            played = [steps(), steps()]
            reports.append(validate_instance(inst))
        assert calls == [(inst,)]  # one sort, whichever asks first
        cycle = reports[-1].hearing_cycle
        assert reports[0] == reports[-1] and played[0] == played[1]
        assert played[0] == (_steps(inst, topological_extension(inst)) if cycle is None else cycle)

    @given(hearing_instances(), st.integers(0, 999))
    @settings(max_examples=300, deadline=None)
    def test_cycle_exactly_when_no_order(self, inst, seed):
        askings = set(inst.askings)
        known = {(a, b) for a, b in inst.hearing if a in askings and b in askings}
        cycle = find_hearing_cycle(inst)
        try:
            orders = [topological_extension(inst), topological_extension(inst, seed=seed)]
        except CyclicHearing as exc:
            assert cycle is not None and exc.cycle == cycle
            assert len(set(cycle)) == len(cycle)
            assert all(pair in known for pair in zip(cycle, cycle[1:] + cycle[:1]))
        else:
            assert cycle is None
            for order in orders:
                assert sorted(order) == sorted(askings)
                pos = {t: i for i, t in enumerate(order)}
                assert all(pos[a] < pos[b] for a, b in known)


class TestPlaySteps:
    def test_steps_and_asked_players(self):
        inst = hbsf(3, 2, fewer_incorrect_than(2))
        assert inst.steps == ((-1, -1, (0, 1), ()), (0, 0, (1,), (-1,)), (1, 1, (), (-1, 0)))
        assert inst.steps is inst.steps
        assert inst.asked == (-1, 0, 1)

    def test_asked_players_in_first_asked_order(self):
        # askings 2 and 0 ask player 1, asking 1 asks player 0; asking 2 is heard first
        inst = custom_instance(3, 2, sight=(), rule=at_least(1), hearing=[(2, 0), (2, 1)],
                               askings=(0, 1, 2), labeling=(1, 0, 1))
        assert [t for t, _, _, _ in inst.steps] == [2, 0, 1]
        assert inst.asked == (1, 0)

    def test_influence_of_the_three_classes(self):
        # hnsa guesses depend on every other hat, hnsf on the hats behind;
        # in hbsf every guess depends on all hats but the front's, which
        # the front announces and nobody sees
        inst = hbsf(4, 2, at_least(1))
        assert inst.influence == {-1: {0, 1, 2}, 0: {0, 1, 2}, 1: {0, 1, 2}, 2: {0, 1, 2}}
        assert inst.influence is inst.influence
        assert hnsf(3, 2, at_least(1)).influence == {0: {1, 2}, 1: {2}, 2: frozenset()}
        assert hnsa(3, 2, at_least(1)).influence == {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}

    def test_influence_follows_hearing_through_every_asking(self):
        # asking 2 (player 0, sees 1) hears 1, which hears 0 (player 2, sees 2)
        inst = custom_instance(3, 2, sight=[(1, 0), (2, 2)], rule=at_least(1), hearing=[(0, 1), (1, 2)],
                               askings=(0, 1, 2), labeling=(2, 1, 0))
        assert inst.influence == {0: {2}, 1: {2}, 2: {1, 2}}

    def test_influence_matches_its_definition_on_random_instances(self):
        # players asked twice or never, and hearing across them; a relation
        # naming a player or an asking the instance does not have makes the
        # steps raise validate_instance's first error, and the influence is
        # then checked on the instance without the pairs naming one
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(1, 12)
            sight = [(rng.randrange(n + 1), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
            askings = rng.sample(range(-3, 3 * n), rng.randint(0, n + 3))
            order = rng.sample(askings, len(askings))
            hearing = [(order[i], order[j]) for i in range(len(order)) for j in range(i + 1, len(order))
                       if rng.random() < 0.3] + [(99, t) for t in askings[:1]]
            labeling = [rng.randrange(n) for _ in askings]
            inst = custom_instance(n, 2, sight, at_least(1), hearing=hearing, askings=askings, labeling=labeling)
            try:
                inst.steps
            except ValueError as exc:
                assert str(exc) == validate_instance(inst).errors[0], seed
                inst = custom_instance(n, 2, [p for p in sight if p[0] < n], at_least(1), askings=askings,
                                       hearing=[p for p in hearing if p[0] in askings], labeling=labeling)
            want = {}
            for t, _, vis, hrd in inst.steps:
                want[t] = frozenset(vis).union(*(want.get(x, ()) for x in hrd))
            assert inst.influence == want, seed

    def test_cyclic_instance_raises_on_influence(self):
        inst = custom_instance(2, 2, sight=(), rule=at_least(1), hearing=[(0, 1), (1, 0)])
        for _ in range(2):
            with pytest.raises(CyclicHearing, match=r"^hearing relation has a cycle: \[0, 1\]$"):
                inst.influence

    @pytest.mark.parametrize("relations, error", [
        ({"sight": [(5, 0)]}, "sight pair (5, 0) mentions unknown players"),
        ({"hearing": [(9, 1)]}, "hearing pair (9, 1) mentions unknown askings"),
        ({"labeling": [0, 7]}, "asking 1 is labeled with unknown player 7"),
        ({"askings": [0, 1], "labeling": [0]}, "labeling covers 1 askings, instance has 2"),
        # no step reads these: a repeated asking plays once, an extra label
        # labels nothing, and nobody asked is seer 7 or asking 9
        ({"askings": [0, 0], "labeling": [0, 1]}, "asking 0 appears more than once"),
        ({"askings": [0], "labeling": [0, 1]}, "labeling covers 2 askings, instance has 1"),
        ({"sight": [(0, 7)]}, "sight pair (0, 7) mentions unknown players"),
        ({"hearing": [(0, 9)]}, "hearing pair (0, 9) mentions unknown askings"),
        ({"sight": [(0, 7)], "hearing": [(0, 9)]}, "sight pair (0, 7) mentions unknown players"),
    ], ids=["sight", "hearing", "labeling", "short-labeling", "repeated-asking", "long-labeling",
            "unknown-seer", "unknown-later-asking", "unknown-seer-and-later-asking"])
    def test_an_id_the_instance_lacks_or_repeats_is_named(self, relations, error):
        # validate_instance's first error, in its words, from every play, sweep
        # and search, and a cyclic hearing is still named first
        from hatlab import (best_guaranteed_correct, correct_count_census, exists_winning_exhaustive,
                            is_winning, iter_plays, sweep)

        relations = {"sight": (), **relations}
        inst = custom_instance(2, 2, rule=at_least(1), **relations)
        assert validate_instance(inst).errors[0] == error
        for play in (lambda i: i.steps, lambda i: i.influence, lambda i: run_game(i, constant(0), (0, 0)),
                     lambda i: sweep(i, constant(0)), lambda i: next(iter_plays(i, constant(0))),
                     lambda i: is_winning(i, constant(0)), lambda i: correct_count_census(i, constant(0)),
                     best_guaranteed_correct, exists_winning_exhaustive):
            with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
                play(inst)
        cyclic = custom_instance(2, 2, rule=at_least(1), **{**relations, "hearing": [(0, 0), *relations.get("hearing", ())]})
        with pytest.raises(CyclicHearing, match=r"^hearing relation has a cycle: \[0\]$"):
            cyclic.steps

    def test_cyclic_instance_raises_on_every_access(self):
        inst = custom_instance(2, 2, sight=(), rule=at_least(1), hearing=[(0, 1), (1, 0)])
        for _ in range(2):
            with pytest.raises(CyclicHearing, match=r"^hearing relation has a cycle: \[0, 1\]$"):
                inst.steps
            with pytest.raises(CyclicHearing):
                inst.asked


class TestRules:
    def test_omega_only_for_fewer_incorrect(self):
        fewer_incorrect_than(OMEGA)
        with pytest.raises(ValueError):
            at_least(OMEGA)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            at_least(-1)

    def test_json_round_trip(self):
        for rule in (at_least(2), fewer_incorrect_than(1), fewer_incorrect_than(OMEGA)):
            assert EvaluationRule.from_json(rule.to_json()) == rule
        assert fewer_incorrect_than(OMEGA).to_json() == {
            "kind": "fewer_incorrect",
            "threshold": "omega",
        }


class TestColorSpace:
    def test_bounds(self):
        cs = ColorSpace(3)
        assert list(cs) == [0, 1, 2]
        assert 2 in cs and 3 not in cs and -1 not in cs and True not in cs
        with pytest.raises(ZeroSize):
            ColorSpace(0)

    @pytest.mark.parametrize("size", [2.5, 2.0, True, "2", None])
    def test_a_color_count_that_is_not_an_int_is_refused(self, size):
        # a float once reached the kernel as a bare TypeError, and True played as one color
        message = f"^the color count must be an integer, got {re.escape(repr(size))}$"
        with pytest.raises(ValueError, match=message):
            ColorSpace(size)
        with pytest.raises(ValueError, match=message):
            hnsa(2, size, at_least(1))


class TestAssignments:
    def test_sequence_and_mapping_forms_agree(self):
        inst = hbsf(3, 2, fewer_incorrect_than(2))
        assert as_assignment(inst, (1, 0, 1)) == {-1: 1, 0: 0, 1: 1}
        assert as_assignment(inst, {-1: 1, 0: 0, 1: 1}) == {-1: 1, 0: 0, 1: 1}
        assert assignment_tuple(inst, {1: 1, 0: 0, -1: 1}) == (1, 0, 1)

    def test_bad_assignments_rejected(self):
        inst = hnsa(2, 2, at_least(1))
        with pytest.raises(ValueError):
            as_assignment(inst, (0,))
        with pytest.raises(ValueError):
            as_assignment(inst, (0, 2))
        with pytest.raises(ValueError):
            as_assignment(inst, {0: 0, 1: 0, 9: 0})
        with pytest.raises(ValueError, match=r"^assignment misses players \[1\]$"):
            as_assignment(inst, {0: 0})
        # each color is checked as given, never truncated by int()
        for values, bad in [((0.7, True), "{0: 0.7, 1: True}"), ((0, True), "{1: True}"),
                            ({0: "1", 1: 0}, "{0: '1'}")]:
            with pytest.raises(ValueError, match=f"^{re.escape(f'assignment colors out of range 0..1: {bad}')}$"):
                as_assignment(inst, values)


class TestJson:
    @pytest.mark.parametrize(
        "inst",
        [
            hnsa(3, 2, at_least(1)),
            hnsf(4, 3, at_least(2)),
            hbsf(3, 2, fewer_incorrect_than(OMEGA)),
            custom_instance(
                3,
                2,
                sight=[(1, 0), (2, 0)],
                rule=at_least(1),
                hearing=[(0, 1)],
                labeling=(0, 1, 2),
            ),
        ],
    )
    def test_round_trip_is_identity(self, inst):
        data = instance_to_json(inst)
        again = instance_from_json(data)
        assert again == inst
        assert instance_to_json(again) == data

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="^unknown instance kind 'foo'$"):
            instance_from_json({"kind": "foo", "players": 2, "colors": 2, "rule": at_least(1).to_json()})

    def test_integer_fields_accept_what_int_accepts(self):
        data = {"kind": "hnsa", "players": "2", "colors": 2.0, "rule": {"kind": "at_least", "threshold": "1"}}
        assert instance_from_json(data) == hnsa(2, 2, at_least(1))

    def test_canonical_descriptor_omits_relations(self):
        data = instance_to_json(hbsf(4, 2, fewer_incorrect_than(2)))
        assert set(data) == {"kind", "players", "colors", "rule"}

    def test_custom_descriptor_keeps_relations(self):
        inst = custom_instance(2, 2, sight=[(1, 0)], rule=at_least(1))
        data = instance_to_json(inst)
        assert data["sight"] == [[1, 0]]
        assert data["labeling"] == [0, 1]


@given(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20))
def test_rule_kinds_disagree_only_through_counts(correct, incorrect):
    from hatlab import evaluate

    assert evaluate(at_least(0), correct, incorrect)
    assert evaluate(fewer_incorrect_than(OMEGA), correct, incorrect)
    assert evaluate(at_least(correct), correct, incorrect)
    assert not evaluate(at_least(correct + 1), correct, incorrect)
    assert evaluate(fewer_incorrect_than(incorrect + 1), correct, incorrect)
    assert not evaluate(fewer_incorrect_than(incorrect), correct, incorrect)


# --- the record contract ------------------------------------------------------

def _records():
    """Each record class, and the argument tuples of its sample values."""
    from hatlab import (
        FRONT,
        BlockPartition,
        Instance,
        LazyAssignment,
        LazyGuessRecord,
        LineShape,
        OrdinalPosition as P,
        RuleKind,
        SearchBudget,
        SearchVerdict,
        SweepReport,
        TableStrategy,
    )
    from hatlab.acceptance import CriterionResult

    return {
        ColorSpace: [(2,), (3,)],
        EvaluationRule: [(RuleKind.AT_LEAST_CORRECT, 2), (RuleKind.FEWER_INCORRECT_THAN, OMEGA),
                         (RuleKind.FEWER_INCORRECT_THAN, 2)],
        Instance: [((0, 1), 2, [(0, 1), (1, 0)], (0, 1), (), (0, 1), at_least(1)),
                   ((0, 1), ColorSpace(2), {(0, 1), (1, 0)}, [0, 1], set(), (0, 1), at_least(1), "hnsa"),
                   ((0, 1, 2), 3, [(2, 1)], (0, 1, 2), [(0, 2)], (0, 1, 2), fewer_incorrect_than(OMEGA))],
        ValidationReport: [((), ()), (("no players",), ("w",), (0, 1)), ((), ("w",), None)],
        SweepReport: [(4, 1, 1, True, None), (4, 0, 2, False, (0, 1))],
        BlockPartition: [(((0, 1),), (2,)), ((), (0,))],
        SearchBudget: [(), (5,), (5, 6)],
        SearchVerdict: [(False, None, None, 8), (True, TableStrategy({(0, (), ()): 1}), 1, 2, 1)],
        P: [(-1, 0), (0, 3), (2, 1), (0, 0), (0, 10)],
        LineShape: [(1,), (2, True), (2, False)],
        LazyAssignment: [(0,), (1, ((P(1, 2), 2), (P(0, 3), 0), (P(0, 4), 1)), 1), (1, ((P(0, 3), 1),))],
        LazyGuessRecord: [(LineShape(1), 0, (), frozenset(), True),
                          (LineShape(2, True), 1, ((FRONT, 0), (P(0, 2), 1)), frozenset({FRONT, P(0, 2), P(1, 5)}), False)],
        CriterionResult: [("c", True, "ok", 0.5), ("c", False, "off", 1.0)],
    }


_ORDER = ("__lt__", "__le__", "__gt__", "__ge__")


def _twin(cls):
    """``cls`` as a ``@dataclass(frozen=True)``: its own annotations, defaults,
    ``__post_init__``, methods and ``repr`` if it has one, with dataclasses' own
    ``__init__``, ``==``, ``hash``, frozenness and, for ``OrdinalPosition``, order."""
    own = {k: v for k, v in vars(cls).items() if k not in ("_fields", "_defaults", *_ORDER)}
    twin = type(cls.__name__, (), dict(own, __qualname__=cls.__qualname__))
    return dataclasses.dataclass(frozen=True, order="__lt__" in vars(cls))(twin)


def _frozen_message(action):
    try:
        action()
    except dataclasses.FrozenInstanceError as exc:
        return str(exc)
    raise AssertionError("no FrozenInstanceError")


_RECORDS = _records()


class TestRecords:
    def test_every_record_is_sampled(self):
        import hatlab.acceptance  # noqa: F401  (its one record)

        assert set(_Record.__subclasses__()) == set(_RECORDS)
        assert len(_RECORDS) == 13

    @pytest.mark.parametrize("cls", _RECORDS, ids=lambda cls: cls.__name__)
    def test_a_record_is_its_dataclass_twin(self, cls):
        twin = _twin(cls)
        names = [f.name for f in dataclasses.fields(twin)]
        assert list(cls._fields) == names
        records, twins = [cls(*a) for a in _RECORDS[cls]], [twin(*a) for a in _RECORDS[cls]]
        for args, rec, tw in zip(_RECORDS[cls], records, twins):
            assert repr(rec) == repr(tw)
            assert hash(rec) == hash(tw)
            # by keyword, and with each default left out, it is the same record
            by_keyword = cls(**dict(zip(names, args)))
            assert repr(by_keyword) == repr(rec) and by_keyword == rec
            required = [f.name for f in dataclasses.fields(twin) if f.default is dataclasses.MISSING]
            assert repr(cls(*args[:len(required)])) == repr(twin(*args[:len(required)]))
            # a missing, an extra or a repeated argument is a TypeError, as for the twin
            full = tuple(getattr(tw, name) for name in names)
            bad = [((*full, 0), {}), (full, {"no_such_field": 0}), (full[:1], {names[0]: full[0]})]
            for bad_args, bad_kwargs in bad + [(full[:len(required) - 1], {})] * bool(required):
                for make in (cls, twin):
                    with pytest.raises(TypeError):
                        make(*bad_args, **bad_kwargs)
            # assigning or deleting a field, or any other name, fails with the twin's message
            for name in (names[0], "no_such_field"):
                for action in (lambda r: setattr(r, name, 0), lambda r: delattr(r, name)):
                    assert _frozen_message(lambda: action(rec)) == _frozen_message(lambda: action(tw))
            # pickle and copy give back an equal record, of the same repr and hash
            for again in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
                assert type(again) is cls and again == rec and repr(again) == repr(rec) and hash(again) == hash(rec)
        # == and != hold within one class only, as for the twins
        for i, j in [(i, j) for i in range(len(records)) for j in range(len(records))]:
            assert (records[i] == records[j]) == (twins[i] == twins[j]) == (i == j)
            assert (records[i] != records[j]) == (twins[i] != twins[j]) == (i != j)
        other = ColorSpace(2) if cls is not ColorSpace else at_least(1)
        for rec, tw in zip(records, twins):
            fields = tuple(getattr(rec, name) for name in names)
            assert rec != tw and not rec == tw and rec != other and rec != fields and rec != 0

    def test_positions_sort_as_their_twins_and_other_records_do_not(self):
        from hatlab import OrdinalPosition

        twin, samples = _twin(OrdinalPosition), _RECORDS[OrdinalPosition]
        got = sorted(OrdinalPosition(*a) for a in samples)
        want = sorted(twin(*a) for a in samples)
        assert [(p.block, p.offset) for p in got] == [(p.block, p.offset) for p in want]
        first, second = OrdinalPosition(0, 0), OrdinalPosition(0, 3)
        for op in _ORDER:
            assert getattr(first, op)(second) == getattr(twin(0, 0), op)(twin(0, 3))
            assert getattr(second, op)(second) == getattr(twin(0, 3), op)(twin(0, 3))
        for a, b in [(first, (0, 3)), (ColorSpace(1), ColorSpace(2)), (first, twin(0, 3))]:
            with pytest.raises(TypeError):
                a < b

    def test_post_init_refuses_as_the_twin_does(self):
        from hatlab import LineShape, OrdinalPosition, SearchBudget

        for cls, args, error in [(ColorSpace, (0,), ZeroSize), (OrdinalPosition, (-1, 2), ValueError),
                                 (LineShape, (0,), ValueError), (SearchBudget, (0,), ValueError),
                                 (EvaluationRule, (model.RuleKind.AT_LEAST_CORRECT, OMEGA), ValueError)]:
            messages = []
            for make in (cls, _twin(cls)):
                with pytest.raises(error) as exc:
                    make(*args)
                messages.append(str(exc.value))
            assert messages[0] == messages[1]

    def test_cached_properties_still_cache(self):
        inst = hnsa(3, 2, at_least(1))
        assert inst.steps is inst.steps and "steps" in vars(inst)
        assert hash(inst) == hash(hnsa(3, 2, at_least(1))) and inst == hnsa(3, 2, at_least(1))
