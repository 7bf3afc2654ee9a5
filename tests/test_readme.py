"""The README's examples run as written.

Every ``hatlab`` command in the "CLI quick tour" exits with the code the
README's exit-code rules give: 0 when the property holds, 1 when it fails.
``hatlab verify`` is left out; ``tests/test_acceptance.py`` runs every
criterion. The "Library use" block runs as it stands, the README names
every long option of every command, and its install lines install every
build requirement of ``pyproject.toml``.
"""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from cli_runner import CliRunner
from hatlab.cli import _parser, main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _blocks(title: str, lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", _section(title), re.S)


def _tour_commands() -> list[list[str]]:
    commands = []
    for block in _blocks("CLI quick tour", "sh"):
        for line in block.replace("\\\n", " ").splitlines():
            args = shlex.split(line)
            if args[:1] == ["hatlab"] and args[1:2] != ["verify"]:
                commands.append(args[1:])
    return commands


def _holds(args: list[str], stdout: str) -> bool:
    """Whether the property the command checks holds, read from its report."""
    command = args[0]
    if command == "sweep" and "csv" in args:
        return all(row.rsplit(",", 1)[1] == "1" for row in stdout.splitlines()[1:])
    report = json.loads(stdout)
    if command == "run":
        return report["verdict"] == 1
    if command == "sweep":
        return report["winning"]
    if command == "search" and "--expect" in args:
        return report["exists_winning"] == (args[args.index("--expect") + 1] == "yes")
    return True


TOUR = _tour_commands()


def test_the_tour_has_commands():
    assert {args[0] for args in TOUR} == {"run", "sweep", "search", "line"}


@pytest.mark.parametrize("args", TOUR, ids=[" ".join(args) for args in TOUR])
def test_tour_command_exits_as_documented(args):
    res = CliRunner().invoke(main, args, catch_exceptions=False)
    assert res.stderr == ""
    assert res.exit_code == (0 if _holds(args, res.stdout) else 1)


def test_install_names_every_build_requirement():
    # --no-build-isolation builds with what is installed, so the README installs
    # the build requirements itself; a regex, as tomllib is 3.11+
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (requires,) = re.findall(r"^\[build-system\]$.*?^requires = \[(.*?)\]", pyproject, re.M | re.S)
    requires = re.findall(r'"([^"]+)"', requires)
    assert requires
    (block,) = _blocks("Install and test", "sh")
    installed = [arg for line in block.splitlines() for args in [shlex.split(line, comments=True)]
                 if args[:2] == ["pip", "install"] for arg in args[2:]]
    assert [req for req in requires if req not in installed] == []


(_SUBPARSERS,) = [action for action in _parser()._actions if isinstance(action, argparse._SubParsersAction)]
COMMANDS = _SUBPARSERS.choices


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_option_is_documented(command):
    options = [opt for action in COMMANDS[command]._actions for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"]
    assert options
    assert [opt for opt in options if not re.search(rf"{re.escape(opt)}(?![\w-])", README)] == []


def test_library_use_runs():
    (block,) = _blocks("Library use", "python")
    exec(compile(block, "README.md", "exec"), {})
