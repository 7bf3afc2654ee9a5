import json

import pytest
from click.testing import CliRunner

from hatlab.cli import main, parse_strategy_spec


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
            "--rule", "at_least:2", "--seed", "5",
        )
        assert invoke(runner, *args).output == invoke(runner, *args).output

    def test_seed_does_not_change_the_result(self, runner):
        base = (
            "run", "--kind", "hbsf", "-m", "4", "-c", "2",
            "--strategy", "sum_broadcast", "--assignment", "0,1,1,0",
            "--rule", "fewer_incorrect:2",
        )
        outputs = {invoke(runner, *base, "--seed", str(s)).output for s in range(4)}
        assert len(outputs) == 1

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


class TestVerify:
    def test_filtered_run_passes(self, runner):
        res = invoke(runner, "verify", "--only", "census")
        assert res.exit_code == 0
        assert "PASS" in res.output and "census-counting-bound" in res.output

    def test_unknown_filter_exits_two(self, runner):
        res = invoke(runner, "verify", "--only", "no-such-criterion")
        assert res.exit_code == 2


class TestCommands:
    def test_help_lists_exactly_the_commands(self, runner):
        res = invoke(runner, "--help")
        assert res.exit_code == 0
        commands = res.output.split("Commands:\n", 1)[1].splitlines()
        names = [line.split()[0] for line in commands if line.strip()]
        assert names == ["line", "run", "search", "sweep", "verify"]

    def test_bench_is_gone(self, runner):
        assert invoke(runner, "bench").exit_code == 2


class TestStrategySpecs:
    def test_compact_forms(self):
        assert parse_strategy_spec("sum_broadcast") == {"name": "sum_broadcast", "params": {}}
        assert parse_strategy_spec("constant:1") == {"name": "constant", "params": {"value": 1}}
        assert parse_strategy_spec("block_mod_sum:n=2") == {
            "name": "block_mod_sum", "params": {"n": 2}
        }
        assert parse_strategy_spec("mod_sum:block=0-2-4") == {
            "name": "mod_sum", "params": {"block": [0, 2, 4]}
        }

    def test_json_form(self):
        spec = '{"name": "base_selector", "params": {"base": 1}}'
        assert parse_strategy_spec(spec) == {"name": "base_selector", "params": {"base": 1}}


class TestImports:
    def test_cli_and_a_sweep_stay_free_of_numpy(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys, hatlab.cli\n"
            "from hatlab import block_mod_sum, hnsa, at_least, sweep\n"
            "assert sweep(hnsa(6, 3, at_least(2)), block_mod_sum(6, 3, 2)).winning\n"
            "print('numpy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_click_is_the_only_dependency(self):
        import re
        from pathlib import Path

        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S).group(1)
        names = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in re.findall(r'"([^"]+)"', block)]
        assert names == ["click"]
