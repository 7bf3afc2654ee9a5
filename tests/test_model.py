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
from hatlab.model import ValidationReport, find_hearing_cycle


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
