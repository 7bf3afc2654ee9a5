import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from cli_runner import CliRunner
from hatlab.cli import main, parse_strategy_spec
from hatlab.model import MAX_COLORS


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, env=None):
    return runner.invoke(main, list(args), env=env, catch_exceptions=False)


class TestRun:
    def test_mod_sum_game(self, runner):
        res = invoke(
            runner, "run", "--kind", "hnsa", "-m", "3", "-c", "3",
            "--strategy", "block_mod_sum:n=1", "--assignment", "0,1,2",
            "--rule", "at_least:1",
        )
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["verdict"] == 1
        assert report["correct"] == [0]
        assert report["guesses"] == [0, 2, 1]

    def test_broadcast_game(self, runner):
        res = invoke(
            runner, "run", "--kind", "hbsf", "-m", "3", "-c", "2",
            "--strategy", "sum_broadcast", "--assignment", "0,1,0",
            "--rule", "fewer_incorrect:2",
        )
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["incorrect"] == [-1]
        assert report["verdict"] == 1

    def test_single_color_always_wins(self, runner):
        res = invoke(
            runner, "run", "--kind", "hnsa", "-m", "2", "-c", "1",
            "--strategy", "constant:0", "--assignment", "0,0",
            "--rule", "at_least:2",
        )
        assert res.exit_code == 0

    def test_losing_game_exits_one(self, runner):
        res = invoke(
            runner, "run", "--kind", "hnsf", "-m", "2", "-c", "2",
            "--strategy", "constant:0", "--assignment", "1,1",
            "--rule", "at_least:1",
        )
        assert res.exit_code == 1

    def test_reports_are_byte_identical(self, runner):
        args = (
            "run", "--kind", "hnsa", "-m", "4", "-c", "2",
            "--strategy", "block_mod_sum:n=2", "--assignment", "0,1,1,0",
            "--rule", "at_least:2",
        )
        first, second = invoke(runner, *args), invoke(runner, *args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output

    def test_config_error_exits_two(self, runner):
        res = invoke(runner, "run", "--kind", "hnsa", "-m", "2", "-c", "2",
                     "--strategy", "telepathy", "--assignment", "0,0",
                     "--rule", "at_least:1")
        assert res.exit_code == 2


class TestSweep:
    def test_two_block_guarantee(self, runner):
        res = invoke(runner, "sweep", "--kind", "hnsa", "-m", "6", "-c", "3",
                     "--strategy", "block_mod_sum:n=2", "--rule", "at_least:2")
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["min_correct"] == 2 and report["winning"]

    def test_constant_loses_with_counterexample(self, runner):
        res = invoke(runner, "sweep", "--kind", "hnsf", "-m", "3", "-c", "2",
                     "--strategy", "constant:0", "--rule", "at_least:1")
        assert res.exit_code == 1
        report = json.loads(res.output)
        assert not report["winning"]
        assert report["counterexample"] == [1, 1, 1]

    def test_broadcast_line(self, runner):
        res = invoke(runner, "sweep", "--kind", "hbsf", "-m", "5", "-c", "4",
                     "--strategy", "sum_broadcast", "--rule", "fewer_incorrect:2")
        assert res.exit_code == 0
        assert json.loads(res.output)["max_incorrect"] == 1

    def test_csv_schema(self, runner):
        res = invoke(runner, "sweep", "--kind", "hnsa", "-m", "2", "-c", "2",
                     "--strategy", "constant:0", "--rule", "at_least:1",
                     "--format", "csv")
        lines = res.output.strip().splitlines()
        assert lines[0] == "assignment,correct,incorrect,verdict"
        assert lines[1] == "0-0,2,0,1"
        assert lines[-1] == "1-1,0,2,0"
        assert len(lines) == 5

    def test_budget_error_exits_three(self, runner):
        res = invoke(runner, "sweep", "--kind", "hnsa", "-m", "6", "-c", "3",
                     "--strategy", "constant:0", "--rule", "at_least:1",
                     "--max-assignments", "10")
        assert res.exit_code == 3

    def test_env_budget_is_honored(self, runner):
        res = invoke(runner, "sweep", "--kind", "hnsa", "-m", "6", "-c", "3",
                     "--strategy", "constant:0", "--rule", "at_least:1",
                     env={"HATLAB_BUDGET": "10"})
        assert res.exit_code == 3

    # the CSV header goes out with the first row, so stdout holds no table the sweep did not play
    def test_csv_budget_error_leaves_stdout_empty(self, runner):
        res = invoke(runner, "sweep", "--kind", "hnsa", "-m", "2", "-c", "2",
                     "--strategy", "constant:0", "--rule", "at_least:1",
                     "--format", "csv", "--max-assignments", "1")
        assert (res.exit_code, res.stdout, res.stderr) == (
            3, "", "budget error: sweep needs 4 assignment plays, budget is 1\n")

    def test_csv_streams_the_rows_played_before_a_failure(self, runner):
        # rows only for seen color 0: the first assignment plays, the second has no entry
        rows = [{"t": 0, "seen": [[1, 0]], "heard": [], "guess": 0},
                {"t": 1, "seen": [[0, 0]], "heard": [], "guess": 0}]
        table = json.dumps({"name": "table", "params": {"entries": rows}})
        res = invoke(runner, "sweep", "--kind", "hnsa", "-m", "2", "-c", "2",
                     "--strategy", table, "--rule", "at_least:1", "--format", "csv")
        assert res.exit_code == 2
        assert res.stdout.splitlines() == ["assignment,correct,incorrect,verdict", "0-0,2,0,1"]
        assert res.stderr.startswith("config error: table strategy has no entry for asking 0 ")


class TestMissingTableEntry:
    @pytest.mark.parametrize("command", [["run", "--assignment", "0,1"], ["sweep"]])
    def test_is_a_config_error(self, runner, command):
        res = invoke(runner, command[0], "--kind", "hnsa", "-m", "2", "-c", "2",
                     "--rule", "at_least:1", "--strategy", "table:entries=[]", *command[1:])
        assert res.exit_code == 2
        [line] = res.output.splitlines()
        assert line.startswith("config error: table strategy has no entry for asking 0 ")


class TestSearch:
    def test_expect_yes(self, runner):
        res = invoke(runner, "search", "--kind", "hnsa", "-m", "3", "-c", "2",
                     "--rule", "at_least:1", "--expect", "yes")
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["exists_winning"] is True
        assert report["witness_table"]

    def test_expect_no(self, runner):
        res = invoke(runner, "search", "--kind", "hnsa", "-m", "3", "-c", "2",
                     "--rule", "at_least:2", "--expect", "no")
        assert res.exit_code == 0
        assert json.loads(res.output)["exists_winning"] is False

    def test_broadcast_expect_no(self, runner):
        res = invoke(runner, "search", "--kind", "hbsf", "-m", "2", "-c", "2",
                     "--rule", "fewer_incorrect:1", "--expect", "no")
        assert res.exit_code == 0

    def test_unmet_expectation_exits_one(self, runner):
        res = invoke(runner, "search", "--kind", "hnsa", "-m", "3", "-c", "2",
                     "--rule", "at_least:2", "--expect", "yes")
        assert res.exit_code == 1

    def test_best_mode(self, runner):
        res = invoke(runner, "search", "--kind", "hnsa", "-m", "2", "-c", "2",
                     "--rule", "at_least:1", "--mode", "best")
        report = json.loads(res.output)
        assert report["best_guaranteed"] == 1

    def test_budget_exits_three(self, runner):
        res = invoke(runner, "search", "--kind", "hnsa", "-m", "3", "-c", "3",
                     "--rule", "at_least:2")
        assert res.exit_code == 3

    # with no askings the empty table is the only strategy; both modes name it when it wins,
    # and best mode names it as the optimum's attainer even when the rule is out of reach
    @pytest.mark.parametrize("threshold,mode,best,exists,witness", [
        (0, "best", 0, True, []),
        (0, "exists", None, True, []),
        (1, "best", 0, False, []),
        (1, "exists", None, False, None),
    ])
    def test_instance_without_askings(self, runner, threshold, mode, best, exists, witness):
        desc = {"kind": "custom", "players": 2, "colors": 2, "labeling": [],
                "rule": {"kind": "at_least", "threshold": threshold}}
        res = invoke(runner, "search", "--instance", json.dumps(desc), "--mode", mode)
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert (report["best_guaranteed"], report["exists_winning"], report["witness_table"]) == (best, exists, witness)
        assert (report["strategies_examined"], report["pruned"]) == (1, 0)

    # counts past 640 digits, which Python may refuse to print as an int
    @pytest.mark.parametrize("args,message", [
        (["search", "--kind", "hnsa", "-m", "12", "-c", "2", "--rule", "at_least:1"],
         "search needs 2**24576 table strategies, budget is 10000000"),
        (["search", "--kind", "hnsa", "-m", "8", "-c", "3", "--rule", "at_least:1"],
         "search needs 3**17496 table strategies, budget is 10000000"),
        (["search", "--kind", "hbsf", "-m", "8", "-c", "3", "--rule", "at_least:1"],
         "search needs 3**17496 table strategies, budget is 10000000"),
        (["search", "--kind", "hnsf", "-m", "14", "-c", "2", "--rule", "at_least:1"],
         "search needs 2**16383 table strategies, budget is 10000000"),
        # 699 digits at the 1000-player limit, so the count prints as a power
        (["sweep", "--instance", json.dumps({"players": 1000, "colors": 5,
                                             "rule": {"kind": "at_least", "threshold": 1}}),
          "--strategy", "constant:0"],
         "sweep needs 5**1000 assignment plays, budget is 100000000"),
    ], ids=["hnsa-12x2", "hnsa-8x3", "hbsf-8x3", "hnsf-14x2", "sweep-1000x5"])
    def test_huge_count_is_a_budget_error(self, runner, args, message):
        res = invoke(runner, *args)
        assert res.exit_code == 3
        assert res.output.splitlines() == [f"budget error: {message}"]

    def test_budget_error_prints_under_the_lowest_int_printing_limit(self):
        # a count of 1,233 digits, printed as a power: an int that long would
        # not print under a limit of 640 digits
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
                   PYTHONINTMAXSTRDIGITS="640")
        proc = subprocess.run([sys.executable, "-m", "hatlab.cli", "search", "--kind", "hnsf", "-m", "12",
                               "-c", "2", "--rule", "at_least:1"], env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 3
        assert (proc.stdout, proc.stderr) == ("", "budget error: search needs 2**4095 table strategies, "
                                                  "budget is 10000000\n")

    def test_huge_space_fails_fast(self, runner):
        start = time.perf_counter()
        res = invoke(runner, "search", "--kind", "hnsa", "-m", "30", "-c", "2", "--rule", "at_least:1")
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 3
        assert res.output == "budget error: search needs 2**16106127360 table strategies, budget is 10000000\n"

    @pytest.mark.parametrize("flags,env", [
        (["search", "--max-strategies", "0"], None),
        (["search", "--max-assignments", "0"], None),
        (["search"], {"HATLAB_BUDGET": "0"}),
        (["search", "--max-strategies", "0"], {"HATLAB_BUDGET": "100"}),
        (["sweep", "--strategy", "constant:0", "--max-assignments", "0"], None),
        (["sweep", "--strategy", "constant:0", "--max-assignments", "-5"], None),
        (["sweep", "--strategy", "constant:0"], {"HATLAB_BUDGET": "0"}),
    ])
    def test_zero_budget_is_a_config_error(self, runner, flags, env):
        command, *rest = flags
        res = invoke(runner, command, "--kind", "hnsa", "-m", "2", "-c", "2",
                     "--rule", "at_least:1", *rest, env=env)
        assert res.exit_code == 2
        assert res.output.splitlines() == ["config error: budgets must be positive"]

    def test_flag_budget_overrides_env(self, runner):
        res = invoke(runner, "search", "--kind", "hnsa", "-m", "2", "-c", "2",
                     "--rule", "at_least:1", "--max-strategies", "15",
                     env={"HATLAB_BUDGET": "100"})
        assert res.exit_code == 3
        assert res.output.splitlines() == [
            "budget error: search needs 16 table strategies, budget is 15"]


class TestLine:
    def test_broadcast_demo(self, runner):
        res = invoke(runner, "line", "--strategy", "sum_broadcast", "-c", "2",
                     "--blocks", "1", "--assignment-base", "0",
                     "--exception", "0,3,1", "--front", "1")
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["cofinite_correct"] is True
        assert report["incorrect"] == []

    def test_lazy_descriptor(self, runner):
        lazy = json.dumps({
            "base": 0,
            "exceptions": [{"k": 0, "n": 5, "color": 1}, {"k": 1, "n": 2, "color": 1}],
            "front": None,
            "blocks": 2,
        })
        res = invoke(runner, "line", "--strategy", "see_all_selector", "-c", "2",
                     "--lazy", lazy)
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["incorrect"] == [[0, 5], [1, 2]]

    def test_shape_error_exits_two(self, runner):
        res = invoke(runner, "line", "--strategy", "sum_broadcast", "-c", "2",
                     "--blocks", "1")
        assert res.exit_code == 2


_SWEEP = ["sweep", "--kind", "hnsa", "-m", "2", "-c", "2", "--rule", "at_least:1", "--strategy"]


class TestInstanceDescriptors:
    def test_round_trip_through_files(self, runner, tmp_path):
        desc = {
            "kind": "custom",
            "players": 3,
            "colors": 2,
            "sight": [[1, 0], [2, 0], [2, 1]],
            "hearing": [[0, 1], [1, 2]],
            "labeling": [0, 1, 2],
            "rule": {"kind": "at_least", "threshold": 1},
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(desc))
        res = invoke(runner, "run", "--instance", str(path),
                     "--strategy", "constant:0", "--assignment", "0,0,0")
        assert res.exit_code == 0
        assert json.loads(res.output)["instance"] == desc

    def test_rule_option_replaces_the_descriptor_rule(self, runner):
        desc = {
            "kind": "custom", "players": 2, "colors": 2,
            "sight": [[0, 1], [1, 0]], "labeling": [0, 1],
            "rule": {"kind": "at_least", "threshold": 2},
        }
        res = invoke(runner, "search", "--instance", json.dumps(desc),
                     "--rule", "fewer_incorrect:2", "--expect", "yes")
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["instance"]["rule"] == {"kind": "fewer_incorrect", "threshold": 2}
        assert report["exists_winning"] is True

    @pytest.mark.parametrize("args,message", [
        (["search", "--instance", "[1]"],
         "instance descriptor must be a JSON object, got list"),
        (["search", "--instance", "[1]", "--rule", "at_least:1"],
         "instance descriptor must be a JSON object, got list"),
        (["search", "--instance", '{"kind": "hnsa", "players": 2, "colors": 2}'],
         "instance descriptor is missing 'rule'"),
        (["search", "--instance", '{"kind": "hnsa", "players": 2, "colors": 2, "rule": 1}'],
         "rule descriptor must be a JSON object, got int"),
        (["line", "--strategy", "see_all_selector", "-c", "2", "--lazy", "[1]"],
         "lazy assignment descriptor must be a JSON object, got list"),
        (["line", "--strategy", "see_all_selector", "-c", "2", "--lazy", '{"blocks": 1}'],
         "lazy assignment descriptor is missing 'base'"),
        (_SWEEP + ['{"name": "table"}'], "table strategy params descriptor is missing 'entries'"),
        (_SWEEP + ['{"name": "table", "params": {"entries": [1]}}'],
         "table row descriptor must be a JSON object, got int"),
        (_SWEEP + ['{"name": "table", "params": {"entries": [{"t": 0, "seen": [[1, 0]], "heard": [], "guess": 0}, '
                   '{"t": 1}]}}'],
         "table row descriptor is missing 'seen', 'heard', 'guess'"),
        (_SWEEP + ['{"name": "constant", "params": [1]}'], "strategy params descriptor must be a JSON object, got list"),
        (_SWEEP + ['{"params": {"value": 0}}'], "strategy descriptor is missing 'name'"),
        (_SWEEP + ['{"name": "table", "params": {"entries": 5}}'],
         "table strategy 'entries' must be a JSON list, got int"),
        (_SWEEP + ['{"name": "table", "params": {"entries": [{"t": 0, "seen": 5, "heard": [], "guess": 0}]}}'],
         "table row 'seen' must be a list of [id, color] pairs, got 5"),
        (_SWEEP + ['{"name": "table", "params": {"entries": [{"t": 0, "seen": [[1]], "heard": [], "guess": 0}]}}'],
         "table row 'seen' must be a list of [id, color] pairs, got [[1]]"),
        # a field of the wrong type names the descriptor, the field and the value
        (["line", "--strategy", "see_all_selector", "-c", "2", "--lazy", '{"base": null}'],
         "lazy assignment 'base' must be an integer, got None"),
        (["line", "--strategy", "see_all_selector", "-c", "2", "--lazy", '{"base": 0, "blocks": [2]}'],
         "lazy assignment 'blocks' must be an integer, got [2]"),
        (["line", "--strategy", "see_all_selector", "-c", "2", "--lazy", '{"base": 0, "exceptions": 5}'],
         "lazy assignment 'exceptions' must be a JSON list, got 5"),
        (["search", "--instance", '{"kind": "hnsa", "players": null, "colors": 2, "rule": {"kind": "at_least", '
                                  '"threshold": 1}}'],
         "instance 'players' must be an integer, got None"),
        (["search", "--instance", '{"kind": "hnsa", "players": 2, "colors": 2, "rule": {"kind": "at_least", '
                                  '"threshold": null}}'],
         "rule 'threshold' must be an integer or 'omega', got None"),
        (["search", "--instance", '{"players": 2, "colors": 2, "sight": 5, "rule": {"kind": "at_least", '
                                  '"threshold": 1}}'],
         "instance 'sight' must be a list of [id, id] pairs, got 5"),
        (["search", "--instance", '{"players": 2, "colors": 2, "labeling": 5, "rule": {"kind": "at_least", '
                                  '"threshold": 1}}'],
         "instance 'labeling' must be a list of integers, got 5"),
        (_SWEEP + ['{"name": "constant", "params": {"value": null}}'],
         "strategy params 'value' must be an integer, got None"),
        (_SWEEP + ['{"name": "mod_sum", "params": {"block": 5}}'],
         "strategy params 'block' must be a list of integers, got 5"),
        (_SWEEP + ['{"name": "table", "params": {"entries": [{"t": 0, "seen": [[1, null]], "heard": [], "guess": 0}]}}'],
         "table row 'seen' must be a list of [id, color] pairs, got [[1, None]]"),
        (_SWEEP + ['{"name": "table", "params": {"entries": [{"t": 0, "seen": [[1, 0]], "heard": [], "guess": null}]}}'],
         "table row 'guess' must be an integer, got None"),
        (_SWEEP + ["constant:abc"], "strategy params 'value' must be an integer, got 'abc'"),
        (_SWEEP + ["random:seed=1.5"], "strategy params 'seed' must be an integer, got '1.5'"),
        # an integer field takes an int, an integral float or integer text; never a bool or a fraction
        (["search", "--instance", '{"players": 2, "colors": 2, "rule": {"kind": "at_least", "threshold": 1.5}}'],
         "rule 'threshold' must be an integer or 'omega', got 1.5"),
        (["search", "--instance", '{"players": 2, "colors": 2, "rule": {"kind": "at_least", "threshold": true}}'],
         "rule 'threshold' must be an integer or 'omega', got True"),
        (["search", "--instance", '{"players": true, "colors": 2.9, "rule": {"kind": "at_least", "threshold": 1}}'],
         "instance 'players' must be an integer, got True"),
        (["search", "--instance", '{"players": 1, "colors": 2.9, "rule": {"kind": "at_least", "threshold": 1}}'],
         "instance 'colors' must be an integer, got 2.9"),
        (["line", "--strategy", "see_all_selector", "-c", "2", "--lazy",
          '{"base": 0, "exceptions": [{"k": 0, "n": 3, "color": true}]}'],
         "exception 'color' must be an integer, got True"),
        (["run", "--kind", "hnsf", "-m", "1", "-c", "2", "--rule", "at_least:1", "--assignment", "1", "--strategy",
          '{"name": "table", "params": {"entries": [{"t": 0, "seen": [], "heard": [], "guess": 1.5}]}}'],
         "table row 'guess' must be an integer, got 1.5"),
        # a descriptor rule and --rule share one reader, and so one message
        (["search", "--instance", '{"players": 2, "colors": 2, "rule": {"kind": "most", "threshold": 1}}'],
         "unknown rule 'most'; use at_least or fewer_incorrect"),
        # a pair is a list: text or an object of two items is not read as [id, color]
        (_SWEEP + ['{"name": "table", "params": {"entries": [{"t": 0, "seen": ["11"], "heard": [], "guess": 0}]}}'],
         "table row 'seen' must be a list of [id, color] pairs, got ['11']"),
        (_SWEEP + ['{"name": "table", "params": {"entries": [{"t": 0, "seen": [[1, 0]], "heard": [{"0": 1, "1": 0}], '
                   '"guess": 0}]}}'],
         "table row 'heard' must be a list of [id, color] pairs, got [{'0': 1, '1': 0}]"),
        # the strategy is named before any parameter it would read
        (_SWEEP + ["telepathy:value=x"], "unknown strategy 'telepathy'"),
        # empty text and an empty object are neither empty observations nor empty entries
        (_SWEEP + ['{"name": "table", "params": {"entries": [{"t": 0, "seen": "", "heard": [], "guess": 1}]}}'],
         "table row 'seen' must be a list of [id, color] pairs, got ''"),
        (_SWEEP + ['{"name": "table", "params": {"entries": [{"t": 0, "seen": [], "heard": {}, "guess": 1}]}}'],
         "table row 'heard' must be a list of [id, color] pairs, got {}"),
        (_SWEEP + ['{"name": "table", "params": {"entries": {}}}'],
         "table strategy 'entries' must be a JSON list, got dict"),
        (_SWEEP + ['{"name": "table", "params": {"entries": ""}}'],
         "table strategy 'entries' must be a JSON list, got str"),
        # an entry listed twice is an error whatever the guesses; pairs are sorted, so their order is no difference
        (_SWEEP + ['{"name": "table", "params": {"entries": [{"t": 0, "seen": [], "heard": [], "guess": 0}, '
                   '{"t": 0, "seen": [], "heard": [], "guess": 1}]}}'],
         "table rows 0 and 1 are both the entry t=0 seen=[] heard=[]"),
        (_SWEEP + ['{"name": "table", "params": {"entries": [{"t": 1, "seen": [[1, 0]], "heard": [], "guess": 0}, '
                   '{"t": 0, "seen": [], "heard": [], "guess": 0}, {"t": 1, "seen": [[1, 0]], "heard": [], "guess": 0}]}}'],
         "table rows 0 and 2 are both the entry t=1 seen=[[1, 0]] heard=[]"),
        (_SWEEP + ['{"name": "table", "params": {"entries": [{"t": 1, "seen": [[1, 0], [2, 1]], "heard": [], "guess": 0}, '
                   '{"t": 1, "seen": [[2, 1], [1, 0]], "heard": [], "guess": 1}]}}'],
         "table rows 0 and 1 are both the entry t=1 seen=[[1, 0], [2, 1]] heard=[]"),
        # a row the play can never read: an unknown asking, an unseen or repeated player, a color past c
        *((_SWEEP + [json.dumps({"name": "table", "params": {"entries": [
            {"t": 1, "seen": [[0, 0]], "heard": [], "guess": 0}, {"t": t, "seen": seen, "heard": [], "guess": 0}]}})],
           f"table row 1, the entry t={t} seen={seen} heard=[], is never read: {why}")
          for t, seen, why in [(7, [], "the instance has no asking 7"),
                               (0, [[5, 1]], "asking 0 sees players [1]"),
                               (0, [[5, 1], [5, 1]], "asking 0 sees players [1]"),
                               (0, [[1, 9]], "its colors must be 0..1")]),
    ])
    def test_malformed_descriptor_is_a_config_error(self, runner, args, message):
        res = invoke(runner, *args)
        assert res.exit_code == 2
        assert res.output.splitlines() == [f"config error: {message}"]

    def test_invalid_instance_exits_two(self, runner):
        desc = json.dumps({
            "kind": "custom", "players": 2, "colors": 2,
            "sight": [], "hearing": [[0, 1], [1, 0]], "labeling": [0, 1],
            "rule": {"kind": "at_least", "threshold": 1},
        })
        res = invoke(runner, "run", "--instance", desc,
                     "--strategy", "constant:0", "--assignment", "0,0")
        assert res.exit_code == 2


class TestConfigErrorsNameTheirInput:
    @pytest.mark.parametrize("args,env,message", [
        (["line", "--strategy", "sum_broadcast", "-c", "2", "--exception", "0,3", "--front", "1"],
         None, "--exception '0,3': expects k,n,color"),
        (["line", "--strategy", "sum_broadcast", "-c", "2", "--exception", "0,3,x", "--front", "1"],
         None, "--exception '0,3,x': expects k,n,color"),
        (["sweep", "--kind", "hnsa", "-m", "2", "-c", "2", "--rule", "at_least:1",
          "--strategy", "constant:0"], {"HATLAB_BUDGET": "lots"}, "HATLAB_BUDGET 'lots': expects an integer"),
        (["search", "--kind", "hnsa", "-m", "2", "-c", "2", "--rule", "at_least:1"],
         {"HATLAB_BUDGET": "1,2"}, "HATLAB_BUDGET '1,2': expects an integer"),
        (["run", "--kind", "hnsa", "-m", "3", "-c", "2", "--rule", "at_least:1",
          "--strategy", "constant:0", "--assignment", "0,x,0"],
         None, "--assignment '0,x,0': expects comma-separated integer colors"),
        # block_mod_sum is built for hnsa; on another instance ``combine`` names the misfit
        (["sweep", "--kind", "hnsf", "-m", "4", "-c", "2", "--rule", "at_least:1", "--strategy", "block_mod_sum:n=2"],
         None, "a part's sight relation is not contained in the target's"),
        (["sweep", "--kind", "hbsf", "-m", "4", "-c", "2", "--rule", "at_least:1", "--strategy", "block_mod_sum:n=2"],
         None, "parts must cover the target askings exactly; missing=[-1] extra=[3]"),
        # a negative block count is named before any rule is built from it
        (["sweep", "--kind", "hnsa", "-m", "4", "-c", "2", "--rule", "at_least:1", "--strategy", "block_mod_sum:n=-1"],
         None, "n must be a nonnegative block count, got -1"),
        # a position listed twice is rejected, whether in flags or in a descriptor
        (["line", "--strategy", "sum_broadcast", "-c", "2", "--front", "1",
          "--exception", "0,3,1", "--exception", "0,3,0"], None, "exception at 3 is listed more than once"),
        (["line", "--strategy", "sum_broadcast", "-c", "2", "--front", "1",
          "--exception", "0,3,1", "--exception", "0,3,1"], None, "exception at 3 is listed more than once"),
        (["line", "--strategy", "sum_broadcast", "-c", "2", "--lazy",
          '{"base": 0, "exceptions": [{"k": 0, "n": 3, "color": 1}, {"k": 0, "n": 3, "color": 1}], "front": 0}'],
         None, "exception at 3 is listed more than once"),
        (["line", "--strategy", "sum_broadcast", "-c", "2", "--front", "1", "--exception", "0,-3,1"],
         None, "bad ordinal position (0, -3)"),
        (["line", "--strategy", "see_all_selector", "-c", "2", "--blocks", "0"],
         None, "a line needs at least one limit block"),
        (["line", "--strategy", "see_all_selector", "-c", "2", "--exception", "0,3,5"],
         None, "exception color 5 out of range"),
        (["sweep", "--kind", "hnsa", "--strategy", "constant:0"],
         None, "give --instance, or all of --kind, -m, -c and --rule"),
        (["sweep", "--kind", "hnsa", "-m", "2", "-c", "2", "--rule", "at_least:1", "--strategy", "sum_broadcast:3"],
         None, "strategy 'sum_broadcast' takes no bare parameter"),
    ], ids=["exception-short", "exception-text", "env-budget", "env-budget-list", "assignment",
            "block-mod-sum-hnsf", "block-mod-sum-hbsf", "block-mod-sum-negative", "exception-twice", "exception-twice-same",
            "lazy-exception-twice", "exception-negative-position", "no-blocks", "exception-color", "instance-incomplete",
            "bare-parameter"])
    def test_error_names_the_input(self, runner, args, env, message):
        res = invoke(runner, *args, env=env)
        assert res.exit_code == 2
        assert res.output.splitlines() == [f"config error: {message}"]

    @pytest.mark.parametrize("text", ['"x"', "5", "null", "true"])
    def test_json_scalar_is_a_descriptor_not_a_path(self, runner, text):
        res = invoke(runner, "search", "--instance", text)
        assert res.exit_code == 2
        kind = type(json.loads(text)).__name__
        assert res.output.splitlines() == [
            f"config error: instance descriptor must be a JSON object, got {kind}"]


# --- options are descriptors: one reader per input --------------------------------

def _instance_forms(kind, m, c, rule, players=None):
    """``--kind/-m/-c/--rule`` and the equivalent ``--instance`` descriptor
    (with ``players`` spelled as given), plus that descriptor under another
    rule that ``--rule`` replaces."""
    name, _, k = rule.partition(":")
    desc = {"kind": kind, "players": m if players is None else players, "colors": c,
            "rule": {"kind": name, "threshold": k if k == "omega" else int(k)}}
    other = dict(desc, rule={"kind": "at_least", "threshold": 0})
    return (["--kind", kind, "-m", str(m), "-c", str(c), "--rule", rule],
            ["--instance", json.dumps(desc)], ["--instance", json.dumps(other), "--rule", rule])


class TestOptionsAreDescriptors:
    """Each option form prints the bytes, and exits with the code, of the
    descriptor it stands for."""

    @pytest.mark.parametrize("command,instance,code", [
        (["run", "--strategy", "sum_broadcast", "--assignment", "0,1,2,0"], ("hbsf", 4, 3, "fewer_incorrect:2"), 0),
        (["run", "--strategy", "constant:0", "--assignment", "0,1,1"], ("hnsa", 3, 2, "at_least:2"), 1),
        (["sweep", "--strategy", "block_mod_sum:n=2"], ("hnsa", 4, 2, "at_least:2"), 0),
        (["sweep", "--strategy", "constant:0"], ("hnsf", 3, 2, "at_least:1"), 1),
        (["sweep", "--strategy", "sum_broadcast", "--format", "csv"], ("hbsf", 3, 3, "fewer_incorrect:omega"), 0),
        (["search", "--mode", "best"], ("hnsa", 3, 2, "at_least:1"), 0),
        (["search", "--expect", "no", "--format", "text"], ("hbsf", 2, 2, "fewer_incorrect:1"), 0),
        (["search", "--expect", "yes"], ("hnsf", 2, 3, "at_least:1"), 1),
        (["search"], ("hnsa", 4, 2, "at_least:2"), 3),
        (["run", "--strategy", "constant:0", "--assignment", "0"], ("hnsa", 1, 2, "at_least:-1"), 2),
    ], ids=["run-hbsf", "run-hnsa", "sweep-hnsa", "sweep-hnsf", "sweep-csv-hbsf", "search-best", "search-no",
            "search-yes", "search-budget", "bad-threshold"])
    def test_canonical_flags_are_an_instance_descriptor(self, runner, command, instance, code):
        flags, desc, replaced = _instance_forms(*instance)
        expected = invoke(runner, *command, *flags)
        assert expected.exit_code == code
        for form in (desc, replaced):
            res = invoke(runner, *command, *form)
            assert (res.exit_code, res.stdout, res.stderr) == (expected.exit_code, expected.stdout, expected.stderr)

    @pytest.mark.parametrize("command", [["run", "--strategy", "constant:0", "--assignment", "0"],
                                         ["sweep", "--strategy", "constant:0"], ["search"]])
    # just past the limit: building hnsa or hbsf 1001x3 takes over a second, so
    # the time bound shows that nothing was built, without risking the memory a
    # regression at -m 100000 would take
    @pytest.mark.parametrize("kind,m", [("hnsa", 1001), ("hbsf", 1001), ("custom", 10**6)])
    def test_a_player_count_past_the_limit_fails_before_any_build(self, runner, command, kind, m):
        start = time.perf_counter()
        flags, desc, replaced = _instance_forms(kind, m, 3, "at_least:1")
        for form in ([flags, desc, replaced] if kind != "custom" else [desc, replaced]):
            res = invoke(runner, *command, *form)
            assert (res.exit_code, res.stdout, res.stderr) == (
                2, "", f"config error: instance 'players' must be at most 1000, got {m}\n")
        assert time.perf_counter() - start < 1.0

    def test_the_player_limit_admits_its_own_value(self):
        from hatlab.model import MAX_PLAYERS, instance_from_json

        assert MAX_PLAYERS == 1000
        rule = {"kind": "at_least", "threshold": 1}
        assert len(instance_from_json({"kind": "custom", "players": 1000, "colors": 2, "rule": rule}).players) == 1000

    @pytest.mark.parametrize("command", [["run", "--strategy", "constant:0", "--assignment", "0"],
                                         ["sweep", "--strategy", "constant:0"], ["search"]])
    # the time bound shows that no play ran: one player with 70000 colors is only
    # 70000 plays, yet a sweep of them takes minutes
    @pytest.mark.parametrize("kind,c", [("hnsa", 1001), ("hnsf", 70000), ("hbsf", 10**9), ("custom", 70000)])
    def test_a_color_count_past_the_limit_fails_before_any_play(self, runner, command, kind, c):
        start = time.perf_counter()
        flags, desc, replaced = _instance_forms(kind, 1, c, "at_least:0")
        for form in ([flags, desc, replaced] if kind != "custom" else [desc, replaced]):
            res = invoke(runner, *command, *form)
            assert (res.exit_code, res.stdout, res.stderr) == (
                2, "", f"config error: instance 'colors' must be at most 1000, got {c}\n")
        assert time.perf_counter() - start < 1.0

    def test_the_color_limit_admits_its_own_value(self, runner):
        assert MAX_COLORS == 1000
        flags, desc, _ = _instance_forms("hnsa", 1, 1000, "at_least:1")
        for form in (flags, desc):
            res = invoke(runner, "run", "--strategy", "constant:999", "--assignment", "999", *form)
            assert res.exit_code == 0
            assert json.loads(res.stdout)["instance"]["colors"] == 1000

    @pytest.mark.parametrize("players", [2.0, "2"])
    def test_integral_float_and_integer_text_read_as_integers(self, runner, players):
        flags, desc, _ = _instance_forms("hnsa", 2, 2, "at_least:1", players=players)
        expected = invoke(runner, "search", *flags)
        res = invoke(runner, "search", *desc)
        assert (res.exit_code, res.output) == (expected.exit_code, expected.output)
        assert res.exit_code == 0

    @pytest.mark.parametrize("kind,flags,lazy,shared,code", [
        ("sum_broadcast", ["--blocks", "1", "--exception", "0,3,1", "--front", "1"],
         {"base": 0, "exceptions": [{"k": 0, "n": 3, "color": 1}], "front": 1, "blocks": 1}, [], 0),
        ("see_all_selector", ["--blocks", "2", "--assignment-base", "1", "--exception", "1,2,0", "--exception", "0,5,0"],
         {"base": 1, "exceptions": [{"k": 1, "n": 2, "color": 0}, {"k": 0, "n": 5, "color": 0}], "blocks": 2},
         ["--base", "0"], 0),
        ("forward_selector", ["--exception", "0,2,1"], {"base": 0, "exceptions": [{"k": 0, "n": 2, "color": 1}]},
         ["--format", "text"], 0),
        ("sum_broadcast", ["--exception", "1,0,1", "--front", "0"],
         {"base": 0, "exceptions": [{"k": 1, "n": 0, "color": 1}], "front": 0}, [], 2),
    ], ids=["broadcast", "see-all", "forward-text", "outside-the-line"])
    def test_line_flags_are_a_lazy_descriptor(self, runner, kind, flags, lazy, shared, code):
        line = ["line", "--strategy", kind, "-c", "2", *shared]
        expected = invoke(runner, *line, *flags)
        assert expected.exit_code == code
        res = invoke(runner, *line, "--lazy", json.dumps(lazy))
        assert (res.exit_code, res.stdout, res.stderr) == (expected.exit_code, expected.stdout, expected.stderr)

    @pytest.mark.parametrize("command", [["run", "--strategy", "constant:0", "--assignment", "0"],
                                         ["sweep", "--strategy", "constant:0"], ["search"]])
    @pytest.mark.parametrize("field,text", [(f, t) for f in ("players", "colors") for t in ("0", "-1", "abc", "2.5", "")]
                             + [("kind", k) for k in ("HNSA", "custom", "foo")])
    def test_instance_flags_are_descriptor_text(self, runner, command, field, text):
        """A flag is given whatever its text, and its text is read as the
        descriptor field: ``-m 0`` names the zero, ``--kind HNSA`` is hnsa."""
        desc = dict({"kind": "hnsa", "players": "1", "colors": "2"}, **{field: text})
        flags = ["--kind", desc["kind"], "-m", desc["players"], "-c", desc["colors"], "--rule", "at_least:1"]
        expected = invoke(runner, *command, "--instance", json.dumps(dict(desc, rule={"kind": "at_least", "threshold": 1})))
        res = invoke(runner, *command, *flags)
        assert (res.exit_code, res.stdout, res.stderr) == (expected.exit_code, expected.stdout, expected.stderr)
        assert (res.exit_code == 2) == (text not in ("HNSA", "custom"))

    def test_zero_players_is_named(self, runner):
        res = invoke(runner, *_SWEEP[:4], "0", *_SWEEP[5:], "constant:0")
        assert (res.exit_code, res.stderr) == (2, "config error: need at least one player and one color, got m=0, c=2\n")

    @pytest.mark.parametrize("flag,field", [("--blocks", "blocks"), ("--assignment-base", "base"), ("--front", "front")])
    def test_line_flags_are_descriptor_text(self, runner, flag, field):
        line = ["line", "--strategy", "sum_broadcast", "-c", "2"]
        expected = invoke(runner, *line, "--lazy", json.dumps(dict({"base": 0, "blocks": 1, "exceptions": []}, **{field: "x"})))
        res = invoke(runner, *line, flag, "x")
        assert (res.exit_code, res.stdout, res.stderr) == (expected.exit_code, expected.stdout, expected.stderr)
        assert res.stderr == f"config error: lazy assignment '{field}' must be an integer, got 'x'\n"


# --- fuzz: any text on the input options and in HATLAB_BUDGET ----------------------

# Numbers reach 10**9: a player or color count past its limit fails before any
# build or play. Color counts inside the limit stay small, so the fuzz stays fast.
# Infinities, NaN and fractions still reach every integer field.
_FLOAT = st.floats(-4, 4) | st.sampled_from([float("inf"), float("-inf"), float("nan")])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | _FLOAT | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=8)


def _descriptor(**fields):
    """JSON objects holding every one of ``fields`` well typed, or any subset of
    them, each well typed or arbitrary."""
    return (st.fixed_dictionaries(fields)
            | st.fixed_dictionaries({}, optional={k: v | _JSON for k, v in fields.items()}))


_COLORS = st.integers(-1, 3) | _FLOAT | st.integers(MAX_COLORS + 1, 10**9)
_NUMBER = _COLORS | st.integers(-1, 10**9)
_PAIRS = st.lists(st.lists(_NUMBER, max_size=3), max_size=4)
_RULE = _descriptor(kind=st.sampled_from(["at_least", "fewer_incorrect"]),
                    threshold=_NUMBER | st.just("omega"))
_INSTANCE = _descriptor(kind=st.sampled_from(["hnsa", "hnsf", "hbsf", "custom"]), players=_NUMBER,
                        colors=_COLORS, rule=_RULE, sight=_PAIRS, hearing=_PAIRS,
                        labeling=st.lists(_NUMBER, max_size=4))
_NAMES = st.sampled_from(["constant", "mod_sum", "block_mod_sum", "base_selector",
                          "sum_broadcast", "random", "table"])
_STRATEGY = _descriptor(name=_NAMES, params=_descriptor(
    value=_NUMBER, base=_NUMBER, n=_NUMBER, seed=_NUMBER, block=st.lists(_NUMBER, max_size=3),
    entries=st.lists(_descriptor(t=_NUMBER, seen=_PAIRS, heard=_PAIRS, guess=_NUMBER), max_size=3)))
_LAZY = _descriptor(base=_NUMBER, front=_NUMBER, blocks=_NUMBER,
                    exceptions=st.lists(_descriptor(k=_NUMBER, n=_NUMBER, color=_NUMBER), max_size=3))


def _text(descriptor=None):
    """Random text, JSON text, or the JSON text of a descriptor-shaped object."""
    shapes = [st.text(max_size=12), _JSON.map(json.dumps)]
    if descriptor is not None:
        shapes.append(descriptor.map(json.dumps))
    return st.one_of(shapes)


_INTS = st.lists(_NUMBER.map(str) | st.text(max_size=2), max_size=4).map(",".join)
# No environment holds NUL or a lone surrogate; CliRunner fails on them before hatlab runs.
_ENV = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=8)
_COMPACT = st.tuples(_NAMES, st.text(max_size=10)).map(":".join)
_HNSA = ["--kind", "hnsa", "-m", "2", "-c", "2", "--rule", "at_least:1"]
_CALLS = st.one_of(
    st.tuples(_text(_INSTANCE), _INTS).map(
        lambda a: (["run", "--instance", a[0], "--strategy", "constant:0", "--assignment", a[1]], None)),
    st.tuples(_text(_STRATEGY) | _COMPACT, _INTS).map(
        lambda a: (["run", *_HNSA, "--strategy", a[0], "--assignment", a[1]], None)),
    st.tuples(_text(_INSTANCE), _text(_STRATEGY) | _COMPACT).map(
        lambda a: (["sweep", "--instance", a[0], "--strategy", a[1]], None)),
    st.lists(_INTS, min_size=1, max_size=2).map(
        lambda xs: (["line", "--strategy", "sum_broadcast", "-c", "2", "--front", "1",
                     *(arg for x in xs for arg in ("--exception", x))], None)),
    _text(_LAZY).map(lambda t: (["line", "--strategy", "see_all_selector", "-c", "2", "--lazy", t], None)),
    _ENV.map(lambda t: (["search", *_HNSA], {"HATLAB_BUDGET": t})),
    _ENV.map(lambda t: (["sweep", *_HNSA, "--strategy", "constant:0"], {"HATLAB_BUDGET": t})),
    (st.tuples(st.sampled_from(["at_least", "fewer_incorrect", "most"]), st.text(max_size=6)).map(":".join)
     | st.text(max_size=12)).map(
        lambda rule: (["sweep", *_HNSA[:6], "--rule", rule, "--strategy", "constant:0"], None)),
    st.tuples(st.lists(_NUMBER.map(str), min_size=2, max_size=2).map(",".join), _NUMBER, _NUMBER,
              st.lists(_INTS, max_size=1)).map(
        lambda a: (["line", "--strategy", "sum_broadcast", "-c", "2", "--front", "1",
                    "--exception", f"{a[0]},{a[1]}", "--exception", f"{a[0]},{a[2]}",
                    *(arg for x in a[3] for arg in ("--exception", x))], None)),
)


class TestFuzz:
    @seed(20261018)
    @given(_CALLS)
    @settings(max_examples=150, deadline=None)
    def test_any_input_gets_a_documented_exit_code(self, call):
        args, env = call
        res = CliRunner().invoke(main, args, env=env)
        assert res.exception is None or isinstance(res.exception, SystemExit), (args, env, res.output)
        assert res.exit_code in {0, 1, 2, 3}
        if _colors_past_the_limit(args):
            assert res.exit_code == 2, (args, res.output)


def _colors_past_the_limit(args) -> bool:
    """Whether ``args`` give an instance descriptor whose color count is past the limit."""
    if "--instance" not in args:
        return False
    try:
        desc = json.loads(args[args.index("--instance") + 1])
    except ValueError:
        return False
    colors = desc.get("colors") if isinstance(desc, dict) else None
    return type(colors) is int and colors > MAX_COLORS


class TestVerify:
    def test_filtered_run_passes(self, runner):
        res = invoke(runner, "verify", "--only", "census")
        assert res.exit_code == 0
        assert "PASS" in res.output and "census-counting-bound" in res.output

    def test_unknown_filter_exits_two(self, runner):
        res = invoke(runner, "verify", "--only", "no-such-criterion")
        assert res.exit_code == 2

    def test_failing_criterion_exits_one(self, runner, monkeypatch):
        from types import SimpleNamespace

        from hatlab import acceptance

        def fails():
            raise AssertionError("the claim does not hold")

        monkeypatch.setattr(acceptance, "CRITERIA", (("holds", lambda: "fine", None), ("fails", fails, None)))
        monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=iter([0.0, 0.5, 1.0, 1.25]).__next__))
        res = invoke(runner, "verify")
        assert res.exit_code == 1
        assert res.output.splitlines() == [
            "PASS  holds    0.50s  fine",
            "FAIL  fails    0.25s  the claim does not hold",
            "1/2 criteria passed",
        ]


class TestCommands:
    def test_help_lists_exactly_the_commands(self, runner):
        res = invoke(runner, "--help")
        assert res.exit_code == 0
        # argparse lists each command, indented by four spaces, under the positional arguments
        names = re.findall(r"^    (\S+) ", res.stdout.split("positional arguments:\n", 1)[1], re.M)
        assert names == ["line", "run", "search", "sweep", "verify"]

    def test_bench_is_gone(self, runner):
        assert invoke(runner, "bench").exit_code == 2

    @pytest.mark.parametrize("command,option", [
        (["run", "--kind", "hnsa", "-m", "2", "-c", "2", "--rule", "at_least:1", "--strategy", "constant:0",
          "--assignment", "0,0"], ["--seed", "5"]),
        (["search", "--kind", "hnsa", "-m", "2", "-c", "2", "--rule", "at_least:1"], ["--prune"]),
        (["search", "--kind", "hnsa", "-m", "2", "-c", "2", "--rule", "at_least:1"], ["--no-prune"]),
    ], ids=["seed", "prune", "no-prune"])
    def test_options_that_cannot_change_an_answer_are_gone(self, runner, command, option):
        res = runner.invoke(main, command + option)
        assert (res.exit_code, res.stdout) == (2, "")
        assert option[0] in res.stderr


class TestArgumentReading:
    """An option's value is the next argument, even one that starts with a dash;
    a usage error exits 2 with a usage message on stderr and nothing on stdout."""

    @pytest.mark.parametrize("args,message", [
        (["run", *_HNSA, "--strategy", "constant:0", "--assignment", "-1,0"],
         "assignment colors out of range 0..1: {0: -1}"),
        (["line", "--strategy", "sum_broadcast", "-c", "2", "--exception", "-1,3,1", "--front", "1"],
         "the front marker has no offset"),
        (["sweep", *_HNSA[:6], "--rule", "-x", "--strategy", "constant:0"],
         "rule '-x' needs a threshold, e.g. at_least:1"),
        (["line", "--strategy", "sum_broadcast", "-c", "2", "--front", "-1"], "front color -1 out of range"),
    ], ids=["assignment", "exception", "rule", "front"])
    def test_a_value_that_starts_with_a_dash_reaches_its_reader(self, runner, args, message):
        res = invoke(runner, *args)
        assert (res.exit_code, res.stdout, res.stderr) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize("args,named", [
        (["bench"], "'bench'"),
        (["search", *_HNSA, "--seed", "5"], "--seed"),
        (["search", *_HNSA, "--max-a", "5"], "--max-a"),
        (["run", *_HNSA, "--assignment", "0,0"], "--strategy"),
        (["search", *_HNSA, "--mode", "worst"], "--mode"),
        (["sweep", *_HNSA, "--strategy", "constant:0", "--max-assignments", "x"], "--max-assignments"),
        # a lone ``--`` ends the options, so it is no option's value
        (["search", *_HNSA[:6], "--rule", "--"], "--rule"),
    ], ids=["unknown-command", "unknown-option", "abbreviated-option", "missing-option", "not-a-choice",
            "not-an-integer", "dash-dash"])
    def test_a_usage_error_exits_two_with_usage_on_stderr(self, runner, args, named):
        res = invoke(runner, *args)
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr.startswith("usage: hatlab") and named in res.stderr


class TestTextFormat:
    """``--format text`` prints one ``key: value`` line per report key, in key order."""

    @pytest.mark.parametrize("args,code,lines", [
        (["run", "--kind", "hbsf", "-m", "4", "-c", "2", "--strategy", "sum_broadcast",
          "--assignment", "0,1,1,0", "--rule", "fewer_incorrect:2"], 0,
         ["assignment: [0, 1, 1, 0]", "correct: [-1, 0, 1, 2]", "guesses: [0, 1, 1, 0]", "incorrect: []",
          "instance: {'kind': 'hbsf', 'players': 4, 'colors': 2, 'rule': {'kind': 'fewer_incorrect', "
          "'threshold': 2}}", "verdict: 1"]),
        (["sweep", "--kind", "hnsf", "-m", "3", "-c", "2", "--strategy", "constant:0", "--rule", "at_least:1"], 1,
         ["assignments: 8", "counterexample: [1, 1, 1]", "max_incorrect: 3", "min_correct: 0", "winning: False"]),
        (["search", "--kind", "hnsa", "-m", "2", "-c", "2", "--rule", "at_least:1"], 0,
         ["best_guaranteed: None", "exists_winning: True",
          "instance: {'kind': 'hnsa', 'players': 2, 'colors': 2, 'rule': {'kind': 'at_least', 'threshold': 1}}",
          "pruned: 0", "strategies_examined: 7",
          "witness_table: [{'t': 0, 'seen': [[1, 0]], 'heard': [], 'guess': 0}, "
          "{'t': 0, 'seen': [[1, 1]], 'heard': [], 'guess': 1}, {'t': 1, 'seen': [[0, 0]], 'heard': [], 'guess': 1}, "
          "{'t': 1, 'seen': [[0, 1]], 'heard': [], 'guess': 0}]"]),
        (["line", "--strategy", "see_all_selector", "-c", "2", "--blocks", "1", "--exception", "0,3,1"], 0,
         ["assignment: {'base': 0, 'exceptions': [{'k': 0, 'n': 3, 'color': 1}], 'front': None, 'blocks': 1}",
          "base_guess: 0", "cofinite_correct: True", "incorrect: [[0, 3]]", "overrides: []"]),
    ], ids=["run", "sweep", "search", "line"])
    def test_text_report(self, runner, args, code, lines):
        res = invoke(runner, *args, "--format", "text")
        assert res.exit_code == code
        assert res.output.splitlines() == lines


class TestRuleOption:
    @pytest.mark.parametrize("rule,message", [
        ("at_least", "rule 'at_least' needs a threshold, e.g. at_least:1"),
        ("most:1", "unknown rule 'most'; use at_least or fewer_incorrect"),
        ("at_least:x", "rule 'threshold' must be an integer or 'omega', got 'x'"),
    ])
    def test_bad_rule_is_a_config_error(self, runner, rule, message):
        res = invoke(runner, "sweep", "--kind", "hnsa", "-m", "2", "-c", "2", "--rule", rule,
                     "--strategy", "constant:0")
        assert res.exit_code == 2
        assert res.output.splitlines() == [f"config error: {message}"]


class TestStrategySpecs:
    def test_compact_forms(self):
        # values stay text; strategy_from_descriptor reads them
        assert parse_strategy_spec("sum_broadcast") == {"name": "sum_broadcast", "params": {}}
        assert parse_strategy_spec("constant:1") == {"name": "constant", "params": {"value": "1"}}
        assert parse_strategy_spec("block_mod_sum:n=2") == {
            "name": "block_mod_sum", "params": {"n": "2"}
        }
        assert parse_strategy_spec("mod_sum:block=0-2-4") == {
            "name": "mod_sum", "params": {"block": ["0", "2", "4"]}
        }

    @pytest.mark.parametrize("compact,descriptor", [
        ("constant:value=1,seed=x", {"name": "constant", "params": {"value": 1, "seed": "x"}}),
        ("mod_sum:block=0-x", {"name": "mod_sum", "params": {"block": ["0", "x"]}}),
        ("block_mod_sum:n=1", {"name": "block_mod_sum", "params": {"n": 1}}),
    ])
    def test_compact_and_descriptor_forms_print_the_same_bytes(self, runner, compact, descriptor):
        base = ["run", "--kind", "hnsa", "-m", "3", "-c", "2", "--rule", "at_least:1", "--assignment", "0,1,1"]
        flag = invoke(runner, *base, "--strategy", compact)
        json_form = invoke(runner, *base, "--strategy", json.dumps(descriptor))
        assert (flag.exit_code, flag.stdout, flag.stderr) == (json_form.exit_code, json_form.stdout, json_form.stderr)

    @pytest.mark.parametrize("compact,block,player", [
        ("mod_sum:block=0-0-1", [0, 0, 1], 0),
        ("mod_sum:block=2-1-2", [2, 1, 2], 2),
        ("mod_sum:block=1-1-1", [1, 1, 1], 1),
    ])
    def test_a_block_that_repeats_a_player_fails_alike_in_both_forms(self, runner, compact, block, player):
        base = ["sweep", "--kind", "hnsa", "-m", "3", "-c", "3", "--rule", "at_least:1"]
        expected = (2, "", f"config error: block lists player {player} more than once\n")
        for spec in (compact, json.dumps({"name": "mod_sum", "params": {"block": block}})):
            res = invoke(runner, *base, "--strategy", spec)
            assert (res.exit_code, res.stdout, res.stderr) == expected

    def test_json_form(self):
        spec = '{"name": "base_selector", "params": {"base": 1}}'
        assert parse_strategy_spec(spec) == {"name": "base_selector", "params": {"base": 1}}

    @pytest.mark.parametrize("compact,descriptor,message", [
        ("constant:valu=1", {"name": "constant", "params": {"valu": 1}},
         "strategy 'constant' has no parameter 'valu'; it takes 'value'"),
        ("sum_broadcast:n=2", {"name": "sum_broadcast", "params": {"n": 2}},
         "strategy 'sum_broadcast' has no parameter 'n'; it takes none"),
        ("telepathy:5", {"name": "telepathy", "params": {"value": 5}}, "unknown strategy 'telepathy'"),
        ("telepathy", {"name": "telepathy"}, "unknown strategy 'telepathy'"),
        ("telepathy:entries=no-such-file", {"name": "telepathy", "params": {"entries": []}},
         "unknown strategy 'telepathy'"),
        ("constant:entries=no-such-file", {"name": "constant", "params": {"entries": []}},
         "strategy 'constant' has no parameter 'entries'; it takes 'value'"),
        # a key given twice, as JSON text since a dict cannot hold it twice
        ("random:seed=1,seed=2", '{"name": "random", "params": {"seed": 1, "seed": 2}}',
         "strategy spec repeats the key 'seed'"),
        ("constant:value=1,value=2", '{"name": "constant", "params": {"value": 1, "value": 2}}',
         "strategy spec repeats the key 'value'"),
        ("telepathy:x=1,x=1", '{"name": "telepathy", "params": {"x": 1, "x": 1}}',
         "strategy spec repeats the key 'x'"),
    ])
    def test_unknown_parameter_or_name_fails_alike_in_both_forms(self, runner, compact, descriptor, message):
        base = ["run", "--kind", "hnsa", "-m", "2", "-c", "2", "--rule", "at_least:1", "--assignment", "1,1"]
        flag = invoke(runner, *base, "--strategy", compact)
        text = descriptor if isinstance(descriptor, str) else json.dumps(descriptor)
        json_form = invoke(runner, *base, "--strategy", text)
        assert (flag.exit_code, flag.stdout, flag.stderr) == (2, "", f"config error: {message}\n")
        assert (json_form.exit_code, json_form.stdout, json_form.stderr) == (2, "", f"config error: {message}\n")

    def test_bare_value_sets_the_first_listed_parameter(self):
        from hatlab.strategies import STRATEGY_PARAMS

        for name, takes in STRATEGY_PARAMS.items():
            if takes:
                assert list(parse_strategy_spec(f"{name}:7")["params"]) == [takes[0]]


_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout's sources; its stdout."""
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=_SRC),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_ALWAYS = {"hatlab", "hatlab.cli", "hatlab.errors", "hatlab.model"}
_PLAY = _ALWAYS | {"hatlab.engine", "hatlab.strategies"}
_ALL = _PLAY | {"hatlab.oracle", "hatlab.line", "hatlab.acceptance"}
_INSTANCE = ["--kind", "hnsa", "-m", "3", "-c", "2", "--rule", "at_least:1"]

# The 82 names ``dir(hatlab)`` listed while the package imported every submodule eagerly.
_PUBLIC = sorted("""
    Assignment BlockPartition BlockSizeMismatch BudgetExceeded ColorSpace CombinedStrategy
    CoverageError CyclicHearing EvaluationRule FRONT GameResult HatlabError Instance LazyAssignment
    LazyGuessRecord LineShape LineStrategyKind MissingTableEntry NeedsTwoColors NotHBSF OMEGA
    OrdinalPosition OverlapError RuleKind RuleStrategy SearchBudget SearchVerdict ShapeMismatch
    Strategy StrategyRangeError SweepReport SweepTooLarge TableStrategy TooManyBlocks
    ValidationReport ZeroSize as_assignment assignment_tuple at_least base_selector
    best_guaranteed_correct block_mod_sum broadcast_guess_at build_canonical_instance combine
    consecutive_blocks constant correct_count_census count_table_strategies custom_instance
    diagonal_adversary engine enumerate_table_strategies errors evaluate exists_winning_exhaustive
    extended_sum fewer_incorrect_than hbsf hnsa hnsf instance_from_json instance_to_json is_winning
    iter_assignment_tuples iter_plays lazy_assignment_from_json line mismatch_census mod_sum model
    oracle pointwise_sum run_game run_lazy seeded_random_strategy strategies strategy_from_descriptor
    sum_broadcast sweep topological_extension validate_instance
""".split())


_LOADS = [
    (["run", *_INSTANCE, "--strategy", "constant:0", "--assignment", "0,1,1"], _PLAY),
    (["sweep", *_INSTANCE, "--strategy", "constant:0"], _PLAY),
    (["run", *_INSTANCE, "--strategy", "no_such_strategy", "--assignment", "0,0,0"], _PLAY),
    (["search", *_INSTANCE, "--mode", "best"], _ALWAYS | {"hatlab.engine", "hatlab.oracle"}),
    (["line", "--strategy", "sum_broadcast", "-c", "2", "--exception", "0,3,1", "--front", "1"],
     _ALWAYS | {"hatlab.line"}),
    (["verify", "--only", "broadcast-exhaustive"], _ALL),
    (["--help"], _ALWAYS),
]


class TestImports:
    @pytest.mark.parametrize("args,loaded", _LOADS,
                             ids=["run", "sweep", "config-error", "search", "line", "verify", "help"])
    def test_each_command_loads_only_what_it_runs(self, args, loaded):
        out = _python(
            "import json, sys\n"
            "from hatlab.cli import main\n"
            "try:\n"
            f"    main({args!r})\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'hatlab']))\n"
        )
        assert set(json.loads(out.splitlines()[-1])) == loaded

    def test_a_call_loads_no_third_party_module(self):
        out = _python(
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "from hatlab.cli import main\n"
            f"for args in {[args for args, _ in _LOADS]!r}:\n"
            "    try:\n"
            "        main(args)\n"
            "    except SystemExit:\n"
            "        pass\n"
            "added = {name.split('.')[0] for name in set(sys.modules) - before}\n"
            "print(json.dumps(sorted(added - set(sys.stdlib_module_names))))\n"
        )
        assert json.loads(out.splitlines()[-1]) == ["hatlab"]

    def test_package_lists_the_same_public_names_and_loads_nothing(self):
        names, exported, loaded = json.loads(_python(
            "import hatlab, json, sys\n"
            "print(json.dumps([dir(hatlab), hatlab.__all__, [m for m in sys.modules if m.startswith('hatlab.')]]))\n"
        ))
        assert names == sorted(exported) == _PUBLIC
        assert loaded == []

    def test_star_import_binds_every_name_and_submodules_resolve(self):
        out = _python(
            "import hatlab\n"
            "assert hatlab.oracle.__name__ == 'hatlab.oracle'\n"
            "assert hatlab.line.run_lazy is hatlab.run_lazy\n"
            "namespace = {}\n"
            "exec('from hatlab import *', namespace)\n"
            "print(sorted(set(hatlab.__all__) - set(namespace)))\n"
        )
        assert out.strip() == "[]"

    def test_unknown_name_is_an_attribute_error(self):
        import hatlab

        with pytest.raises(AttributeError, match="^module 'hatlab' has no attribute 'no_such_name'$"):
            hatlab.no_such_name

    def test_cli_and_a_sweep_stay_free_of_numpy(self):
        out = _python(
            "import sys, hatlab.cli\n"
            "from hatlab import block_mod_sum, hnsa, at_least, sweep\n"
            "assert sweep(hnsa(6, 3, at_least(2)), block_mod_sum(6, 3, 2)).winning\n"
            "print('numpy' in sys.modules)\n"
        )
        assert out.strip() == "False"

    def test_there_is_no_runtime_dependency(self):
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S).group(1)
        names = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in re.findall(r'"([^"]+)"', block)]
        assert names == []
