"""Command-line surface on ``argparse``: run games, sweep assignments, search
strategy spaces, demo the symbolic lines, and run the acceptance suite.

Reports are JSON by default (canonical form: sorted keys, no whitespace), so
identical invocations produce byte-identical output. Exit codes: 0 property
holds, 1 it fails, 2 configuration or usage error, 3 budget exceeded.

Each command imports the modules it plays with in its own body, so a call
loads only what it runs: ``run`` and ``sweep`` never load the oracle, the
line or the acceptance suite.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import BudgetExceeded, HatlabError, SweepTooLarge
from .model import (
    CANONICAL_KINDS,
    Instance,
    instance_from_json,
    instance_to_json,
    validate_instance,
)


def _ints(text: str, what: str, expects: str, count: int | None = None) -> tuple[int, ...]:
    """Comma-separated integers, or a ``ValueError`` naming the input at fault."""
    try:
        values = tuple(map(int, text.split(",")))
        if count is None or len(values) == count:
            return values
    except ValueError:
        pass
    raise ValueError(f"{what} {text!r}: expects {expects}")


def _env_budget() -> int | None:
    raw = os.environ.get("HATLAB_BUDGET")
    return _ints(raw, "HATLAB_BUDGET", "an integer", 1)[0] if raw else None


def _first_given(*values):
    return next(v for v in values if v is not None)


# --- options as descriptors: the descriptor readers parse every field ---------

def _parse_rule(text: str) -> dict:
    """``--rule name:K`` as the rule descriptor ``{"kind": name, "threshold": K}``."""
    kind, _, threshold = text.partition(":")
    if not threshold:
        raise ValueError(f"rule {text!r} needs a threshold, e.g. at_least:1")
    return {"kind": kind, "threshold": threshold}


def _load_json_arg(text: str):
    """JSON text, or else the path of a JSON file."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    with open(text, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _build_instance(instance, kind, players, colors, rule) -> Instance:
    """The instance of ``--instance``, or of the flags as descriptor text; a
    flag counts as given whatever its text, so ``-m 0`` reaches the reader."""
    if instance is not None:
        data = _load_json_arg(instance)
        if rule is not None and isinstance(data, dict):  # instance_from_json rejects a non-object
            data["rule"] = _parse_rule(rule)
    elif None not in (kind, players, colors, rule):
        data = {"kind": kind, "players": players, "colors": colors, "rule": _parse_rule(rule)}
    else:
        raise ValueError("give --instance, or all of --kind, -m, -c and --rule")
    inst = instance_from_json(data)
    report = validate_instance(inst)
    if not report.valid:
        raise ValueError("; ".join(report.errors))
    return inst


def _unique_keys(pairs) -> dict:
    """``(key, value)`` pairs as a dict; a key given twice is a ``ValueError`` naming it."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"strategy spec repeats the key {key!r}")
        out[key] = value
    return out


def parse_strategy_spec(text: str) -> dict:
    """Compact ``name:k=v,...`` (or bare ``name:value``) or a JSON descriptor.
    Compact values stay text for :func:`strategy_from_descriptor` to read.
    A key given twice is an error in both spellings."""
    from .strategies import strategy_params

    if text.strip().startswith("{"):
        return json.loads(text, object_pairs_hook=_unique_keys)
    name, _, rest = text.partition(":")
    params = _unique_keys(pair.partition("=")[::2] for pair in rest.split(",")) if "=" in rest else {}
    takes = strategy_params(name)
    if rest and not params:
        if not takes:
            raise ValueError(f"strategy {name!r} takes no bare parameter")
        params[takes[0]] = rest
    # a parameter the strategy does not take stays text, for the descriptor reader to name
    if "block" in params and "block" in takes:
        params["block"] = params["block"].split("-")
    if "entries" in params and "entries" in takes:
        params["entries"] = _load_json_arg(params["entries"])
    return {"name": name, "params": params}


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        for key in sorted(report):
            print(f"{key}: {report[key]}")


def cmd_run(instance, kind, players, colors, rule, strategy, assignment, fmt):
    """Play one game and print the result; exit 0 iff the rule is satisfied."""
    from .engine import run_game
    from .strategies import strategy_from_descriptor

    inst = _build_instance(instance, kind, players, colors, rule)
    strat = strategy_from_descriptor(parse_strategy_spec(strategy), inst)
    values = _ints(assignment, "--assignment", "comma-separated integer colors")
    result = run_game(inst, strat, values)
    report = {
        "instance": instance_to_json(inst),
        "assignment": list(values),
        "guesses": [result.guesses[t] for t in inst.askings],
        "correct": sorted(result.correct_set),
        "incorrect": sorted(result.incorrect_set),
        "verdict": int(result.verdict),
    }
    _emit(report, fmt)
    sys.exit(0 if result.verdict else 1)


def cmd_sweep(instance, kind, players, colors, rule, strategy, max_assignments, fmt):
    """Play every assignment; exit 0 iff the strategy wins all of them."""
    from .engine import iter_plays, sweep
    from .strategies import strategy_from_descriptor

    inst = _build_instance(instance, kind, players, colors, rule)
    strat = strategy_from_descriptor(parse_strategy_spec(strategy), inst)
    budget = max_assignments if max_assignments is not None else _env_budget()
    if fmt == "csv":
        # each row is flushed as played, the header with the first: a sweep that fails before it leaves stdout empty
        header = "assignment,correct,incorrect,verdict\n"
        winning = True
        for values, result in iter_plays(inst, strat, max_assignments=budget):
            winning = winning and result.verdict
            print(
                f"{header}{'-'.join(map(str, values))},{result.correct_count},"
                f"{result.incorrect_count},{int(result.verdict)}", flush=True
            )
            header = ""
        sys.exit(0 if winning else 1)
    report = sweep(inst, strat, max_assignments=budget)
    _emit(report.to_json(), fmt)
    sys.exit(0 if report.winning else 1)


def cmd_search(instance, kind, players, colors, rule, mode, expect, max_strategies, max_assignments, fmt):
    """Exhaust the table-strategy space for the instance's rule."""
    from .oracle import SearchBudget, best_guaranteed_correct, exists_winning_exhaustive

    inst = _build_instance(instance, kind, players, colors, rule)
    env = _env_budget()
    default = SearchBudget()
    # ``is not None``, not ``or``: a budget of 0 must reach SearchBudget and be rejected
    budget = SearchBudget(
        max_strategies=_first_given(max_strategies, env, default.max_strategies),
        max_assignments=_first_given(max_assignments, env, default.max_assignments),
    )
    if mode == "best":
        verdict = best_guaranteed_correct(inst, budget=budget)
    else:
        verdict = exists_winning_exhaustive(inst, budget=budget)
    _emit(verdict.to_json(inst), fmt)
    if expect is not None:
        sys.exit(0 if verdict.exists_winning == (expect == "yes") else 1)
    sys.exit(0)


def cmd_line(strategy, colors, lazy, blocks, assignment_base, exception, front, base, fmt):
    """Play a line strategy symbolically on an eventually-constant assignment."""
    from .line import lazy_assignment_from_json, run_lazy

    if lazy:
        data = _load_json_arg(lazy)
    else:
        data = {"base": assignment_base, "front": front, "blocks": blocks, "exceptions": [
            dict(zip(("k", "n", "color"), _ints(text, "--exception", "k,n,color", 3))) for text in exception]}
    shape, a = lazy_assignment_from_json(data)
    record = run_lazy(strategy, shape, a.base if base is None else base, a, colors)
    report = record.to_json()
    report["assignment"] = a.to_json(shape.limit_blocks)
    _emit(report, fmt)


def cmd_verify(only):
    """Run the acceptance suite; exit 0 iff every criterion passes."""
    from .acceptance import run_criteria

    results = run_criteria(only)
    if not results:
        print(f"no criteria match {only!r}", file=sys.stderr)
        sys.exit(2)
    width = max(len(r.cid) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.cid:<{width}}  {r.seconds:6.2f}s  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    sys.exit(1 if failed else 0)


class _Parser(argparse.ArgumentParser):
    """Reads an option's value from the next argument even when it starts with a dash."""

    def parse_known_args(self, args=None, namespace=None):
        takes_value = {opt for action in self._actions if action.nargs is None for opt in action.option_strings}
        joined: list[str] = []
        for arg in sys.argv[1:] if args is None else args:
            if joined and joined[-1] in takes_value and arg != "--":  # a lone ``--`` still ends the options
                arg = f"{joined.pop()}={arg}"
            joined.append(arg)
        return super().parse_known_args(joined, namespace)


def _parser() -> _Parser:
    root = _Parser(prog="hatlab", description=main.__doc__, allow_abbrev=False)
    commands = root.add_subparsers(required=True)

    def command(name: str, fn, formats: tuple[str, ...] = (), instance: bool = False) -> _Parser:
        sub = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__, allow_abbrev=False)
        sub.set_defaults(command=fn)
        if instance:
            sub.add_argument("--instance", help="Instance descriptor (JSON text or file path).")
            sub.add_argument("--kind", help=f"Instance kind: {', '.join(CANONICAL_KINDS)} or custom.")
            sub.add_argument("-m", "--players", help="Player count (hbsf: incl. front).")
            sub.add_argument("-c", "--colors", help="Color count.")
            sub.add_argument("--rule", help="at_least:K or fewer_incorrect:K (K int or 'omega').")
        if formats:
            sub.add_argument("--format", dest="fmt", choices=formats, default="json")
        return sub

    line = command("line", cmd_line, ("json", "text"))
    line.add_argument("--strategy", required=True,
                      choices=["see_all_selector", "forward_selector", "sum_broadcast"])
    line.add_argument("-c", "--colors", type=int, required=True)
    line.add_argument("--lazy",
                      help='Lazy assignment descriptor (JSON text or file): {"base", "exceptions", "front", "blocks"}.')
    line.add_argument("--blocks", default=1, help="Number of limit blocks in the line.")
    line.add_argument("--assignment-base", default=0)
    line.add_argument("--exception", action="append", default=[],
                      help="k,n,color -- hat at position w*k+n (repeatable).")
    line.add_argument("--front", help="Front player's hat color.")
    line.add_argument("--base", type=int,
                      help="Selector strategies: the base color announced (default: assignment base).")

    run = command("run", cmd_run, ("json", "text"), instance=True)
    run.add_argument("--strategy", required=True, help="Strategy spec, e.g. block_mod_sum:n=2.")
    run.add_argument("--assignment", required=True, help="Comma-separated colors in player order.")

    search = command("search", cmd_search, ("json", "text"), instance=True)
    search.add_argument("--mode", choices=["exists", "best"], default="exists")
    search.add_argument("--expect", choices=["yes", "no"],
                        help="Exit 0 iff a winning strategy exists (yes) / doesn't (no).")
    search.add_argument("--max-strategies", type=int)
    search.add_argument("--max-assignments", type=int)

    sweep = command("sweep", cmd_sweep, ("json", "csv", "text"), instance=True)
    sweep.add_argument("--strategy", required=True)
    sweep.add_argument("--max-assignments", type=int)

    command("verify", cmd_verify).add_argument("--only", help="Run only criteria whose id contains this text.")
    return root


def main(argv: list[str] | None = None) -> None:
    """Hat-guessing games: deterministic plays, sweeps, and exhaustive searches."""
    options = vars(_parser().parse_args(argv))
    command = options.pop("command")
    try:
        command(**options)
    except (SweepTooLarge, BudgetExceeded) as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        sys.exit(3)
    except (HatlabError, ValueError, OverflowError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
