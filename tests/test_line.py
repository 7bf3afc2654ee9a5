import pytest
from hypothesis import given, settings, strategies as st

from hatlab import (
    FRONT,
    LazyAssignment,
    LineShape,
    OrdinalPosition,
    ShapeMismatch,
    at_least,
    base_selector,
    broadcast_guess_at,
    extended_sum,
    hnsf,
    lazy_assignment_from_json,
    mismatch_census,
    pointwise_sum,
    run_game,
    run_lazy,
)


def pos(k, n):
    return OrdinalPosition(k, n)


class TestOrdinalPositions:
    def test_ordering(self):
        assert FRONT < pos(0, 0) < pos(0, 5) < pos(1, 0) < pos(2, 3)

    def test_front_has_no_offset(self):
        with pytest.raises(ValueError):
            OrdinalPosition(-1, 1)

    def test_repr(self):
        assert [repr(p) for p in (FRONT, pos(0, 3), pos(2, 1))] == ["front", "3", "w*2+1"]

    def test_shape_membership(self):
        shape = LineShape(2)
        assert pos(1, 99) in shape and pos(2, 0) not in shape
        assert FRONT not in shape
        assert FRONT in LineShape(1, front_present=True)


class TestLazyAssignment:
    def test_base_valued_exceptions_normalize_away(self):
        a = LazyAssignment.of(1, {pos(0, 3): 1, pos(0, 5): 0})
        assert a.exceptions == ((pos(0, 5), 0),)
        assert a.value_at(pos(0, 3)) == 1
        assert a.value_at(pos(0, 5)) == 0
        assert a.deviations() == {pos(0, 5)}

    def test_no_front_to_read(self):
        with pytest.raises(ShapeMismatch, match="^this assignment has no front player$"):
            LazyAssignment.of(0).value_at(FRONT)
        rec = run_lazy("see_all_selector", LineShape(1), 0, LazyAssignment.of(0), 2)
        with pytest.raises(ShapeMismatch, match="^this line has no front player$"):
            rec.guess_at(FRONT)

    def test_pointwise_sum_adds_the_fronts(self):
        x = LazyAssignment.of(1, {pos(0, 1): 0}, front=1)
        y = LazyAssignment.of(1, front=2)
        assert pointwise_sum(x, y, 3) == LazyAssignment.of(2, {pos(0, 1): 1}, front=0)

    def test_front_lives_in_its_own_field(self):
        with pytest.raises(ValueError):
            LazyAssignment.of(0, {FRONT: 1})

    def test_descriptor_round_trip(self):
        shape, a = lazy_assignment_from_json(
            {
                "base": 1,
                "exceptions": [{"k": 0, "n": 3, "color": 0}, {"k": 2, "n": 1, "color": 2}],
                "front": 2,
                "blocks": 3,
            }
        )
        assert shape == LineShape(3, front_present=True)
        assert a.to_json(3) == {
            "base": 1,
            "exceptions": [{"k": 0, "n": 3, "color": 0}, {"k": 2, "n": 1, "color": 2}],
            "front": 2,
            "blocks": 3,
        }

    def test_descriptor_rejects_out_of_shape_exceptions(self):
        with pytest.raises(ShapeMismatch):
            lazy_assignment_from_json(
                {"base": 0, "exceptions": [{"k": 5, "n": 0, "color": 1}], "front": None, "blocks": 2}
            )


class TestExtendedSum:
    def test_two_deviations_mod_three(self):
        a = LazyAssignment.of(0, {pos(0, 5): 1, pos(0, 17): 2})
        assert extended_sum(a, 3) == 0

    def test_constants_vanish(self):
        assert extended_sum(LazyAssignment.of(2), 3) == 0

    def test_finite_support_is_the_plain_sum(self):
        a = LazyAssignment.of(0, {pos(0, 1): 2, pos(1, 4): 2})
        assert extended_sum(a, 5) == 4

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_homomorphism(self, data):
        mu = data.draw(st.sampled_from([2, 3, 5]))

        def lazy(draw):
            base = draw(st.integers(0, mu - 1))
            n = draw(st.integers(0, 5))
            exceptions = {}
            for _ in range(n):
                p = pos(draw(st.integers(0, 2)), draw(st.integers(0, 10)))
                exceptions[p] = draw(st.integers(0, mu - 1))
            return LazyAssignment.of(base, exceptions)

        x = lazy(data.draw)
        y = lazy(data.draw)
        assert extended_sum(pointwise_sum(x, y, mu), mu) == (
            extended_sum(x, mu) + extended_sum(y, mu)
        ) % mu


class TestSelectorRuns:
    def test_errors_are_exactly_the_deviations(self):
        a = LazyAssignment.of(0, {pos(0, 5): 1, pos(0, 17): 2})
        rec = run_lazy("see_all_selector", LineShape(1), 0, a, 3)
        assert rec.cofinite_correct
        assert rec.incorrect == {pos(0, 5), pos(0, 17)}

    def test_constant_assignment_is_error_free(self):
        for kind in ("see_all_selector", "forward_selector"):
            rec = run_lazy(kind, LineShape(2), 1, LazyAssignment.of(1), 3)
            assert rec.incorrect == frozenset() and rec.cofinite_correct

    def test_wrong_base_loses_cofiniteness(self):
        rec = run_lazy("see_all_selector", LineShape(1), 1, LazyAssignment.of(0), 2)
        assert not rec.cofinite_correct

    def test_forward_selector_matches_finite_truncation(self):
        a = LazyAssignment.of(1, {pos(0, 2): 0, pos(0, 6): 2})
        rec = run_lazy("forward_selector", LineShape(1), 1, a, 3)
        cutoff = 8  # past the last exception
        inst = hnsf(cutoff, 3, at_least(0))
        finite = run_game(inst, base_selector(1), [a.value_at(pos(0, n)) for n in range(cutoff)])
        for n in range(cutoff):
            assert finite.guesses[n] == rec.guess_at(pos(0, n))

    def test_selector_kinds_reject_front_lines(self):
        with pytest.raises(ShapeMismatch):
            run_lazy("see_all_selector", LineShape(1, front_present=True), 0,
                     LazyAssignment.of(0, front=0), 2)


class TestBroadcastRuns:
    def test_single_deviation_front_announcement(self):
        shape = LineShape(1, front_present=True)
        a = LazyAssignment.of(0, {pos(0, 3): 1}, front=1)
        rec = run_lazy("sum_broadcast", shape, 0, a, 2)
        assert rec.guess_at(FRONT) == 1
        assert rec.incorrect == frozenset()  # front hat happens to match
        wrong_front = LazyAssignment.of(0, {pos(0, 3): 1}, front=0)
        rec2 = run_lazy("sum_broadcast", shape, 0, wrong_front, 2)
        assert rec2.incorrect == {FRONT}

    def test_ord_positions_guess_their_own_hats(self):
        shape = LineShape(3, front_present=True)
        a = LazyAssignment.of(2, {pos(0, 0): 1, pos(1, 7): 0, pos(2, 7): 4}, front=3)
        rec = run_lazy("sum_broadcast", shape, 2, a, 5)
        for p, color in a.exceptions:
            assert rec.guess_at(p) == color
        assert rec.guess_at(pos(1, 3)) == 2
        assert rec.incorrect <= {FRONT}

    def test_decoding_rule_agrees_at_limit_positions(self):
        a = LazyAssignment.of(1, {pos(1, 0): 0}, front=0)
        for p in (pos(0, 0), pos(1, 0), pos(2, 0), pos(1, 1)):
            assert broadcast_guess_at(a, p, 3) == a.value_at(p)

    def test_colors_out_of_range(self):
        with pytest.raises(ValueError, match=r"^colors must lie in 0\.\.1$"):
            run_lazy("see_all_selector", LineShape(1), 2, LazyAssignment.of(0), 2)
        with pytest.raises(ValueError, match=r"^colors must lie in 0\.\.1$"):
            run_lazy("see_all_selector", LineShape(1), 0, LazyAssignment.of(3), 2)
        with pytest.raises(ValueError, match="^front color 5 out of range$"):
            run_lazy("sum_broadcast", LineShape(1, front_present=True), 0, LazyAssignment.of(0, front=5), 2)

    def test_front_decodes_nothing(self):
        with pytest.raises(ValueError, match="^the front player answers with the announcement itself$"):
            broadcast_guess_at(LazyAssignment.of(0, front=1), FRONT, 2)

    def test_broadcast_requires_a_front(self):
        with pytest.raises(ShapeMismatch):
            run_lazy("sum_broadcast", LineShape(1), 0, LazyAssignment.of(0), 2)
        with pytest.raises(ShapeMismatch):
            run_lazy("sum_broadcast", LineShape(1, front_present=True), 0, LazyAssignment.of(0), 2)


class TestMismatchCensus:
    def test_by_construction(self):
        a = LazyAssignment.of(0, {pos(0, 2): 1})
        rec = run_lazy("see_all_selector", LineShape(1), 0, a, 2)
        incorrect, flag = mismatch_census(a, rec)
        assert flag and incorrect == {pos(0, 2)}

    def test_constant_wrong_record_clears_the_flag(self):
        a = LazyAssignment.of(0)
        rec = run_lazy("see_all_selector", LineShape(1), 1, a, 2)
        incorrect, flag = mismatch_census(a, rec)
        assert not flag

    def test_broadcast_record_loses_at_most_the_front(self):
        shape = LineShape(2, front_present=True)
        a = LazyAssignment.of(0, {pos(1, 2): 1}, front=0)
        rec = run_lazy("sum_broadcast", shape, 0, a, 2)
        incorrect, flag = mismatch_census(a, rec)
        assert flag and len(incorrect) <= 1 and incorrect <= {FRONT}
