"""Command-line surface: run games, sweep assignments, search strategy spaces,
demo the symbolic lines, and run the acceptance suite.

Reports are JSON by default (canonical form: sorted keys, no whitespace), so
identical invocations produce byte-identical output. Exit codes: 0 success /
property holds, 1 property fails, 2 configuration error, 3 budget exceeded.

Each command imports the modules it plays with in its own body, so a call
loads only what it runs: ``run`` and ``sweep`` never load the oracle, the
line or the acceptance suite.
"""

from __future__ import annotations

import functools
import json
import os
import sys

import click

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


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (SweepTooLarge, BudgetExceeded) as exc:
            click.echo(f"budget error: {exc}", err=True)
            sys.exit(3)
        except (HatlabError, ValueError, OverflowError, OSError) as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)

    return wrapper


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
        click.echo(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        for key in sorted(report):
            click.echo(f"{key}: {report[key]}")


_instance_options = [
    click.option("--instance", default=None, help="Instance descriptor (JSON text or file path)."),
    click.option("--kind", default=None, help=f"Instance kind: {', '.join(CANONICAL_KINDS)} or custom."),
    click.option("-m", "--players", default=None, help="Player count (hbsf: incl. front)."),
    click.option("-c", "--colors", default=None, help="Color count."),
    click.option("--rule", default=None, help="at_least:K or fewer_incorrect:K (K int or 'omega')."),
]


def instance_options(fn):
    for opt in reversed(_instance_options):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Hat-guessing games: deterministic plays, sweeps, and exhaustive searches."""


@main.command("run")
@instance_options
@click.option("--strategy", required=True, help="Strategy spec, e.g. block_mod_sum:n=2.")
@click.option("--assignment", required=True, help="Comma-separated colors in player order.")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
@_guarded
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


@main.command("sweep")
@instance_options
@click.option("--strategy", required=True)
@click.option("--max-assignments", type=int, default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="json")
@_guarded
def cmd_sweep(instance, kind, players, colors, rule, strategy, max_assignments, fmt):
    """Play every assignment; exit 0 iff the strategy wins all of them."""
    from .engine import iter_plays, sweep
    from .strategies import strategy_from_descriptor

    inst = _build_instance(instance, kind, players, colors, rule)
    strat = strategy_from_descriptor(parse_strategy_spec(strategy), inst)
    budget = max_assignments if max_assignments is not None else _env_budget()
    if fmt == "csv":
        # the header goes out with the first row: a sweep that fails before it leaves stdout empty
        header = "assignment,correct,incorrect,verdict\n"
        winning = True
        for values, result in iter_plays(inst, strat, max_assignments=budget):
            winning = winning and result.verdict
            click.echo(
                f"{header}{'-'.join(map(str, values))},{result.correct_count},"
                f"{result.incorrect_count},{int(result.verdict)}"
            )
            header = ""
        sys.exit(0 if winning else 1)
    report = sweep(inst, strat, max_assignments=budget)
    _emit(report.to_json(), fmt)
    sys.exit(0 if report.winning else 1)


@main.command("search")
@instance_options
@click.option("--mode", type=click.Choice(["exists", "best"]), default="exists")
@click.option("--expect", type=click.Choice(["yes", "no"]), default=None,
              help="Exit 0 iff a winning strategy exists (yes) / doesn't (no).")
@click.option("--max-strategies", type=int, default=None)
@click.option("--max-assignments", type=int, default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
@_guarded
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


@main.command("line")
@click.option("--strategy", "kind",
              type=click.Choice(["see_all_selector", "forward_selector", "sum_broadcast"]),
              required=True)
@click.option("-c", "--colors", type=int, required=True)
@click.option("--lazy", default=None,
              help='Lazy assignment descriptor (JSON text or file): {"base", "exceptions", "front", "blocks"}.')
@click.option("--blocks", type=str, default=1, help="Number of limit blocks in the line.")
@click.option("--assignment-base", type=str, default=0)
@click.option("--exception", "exceptions", multiple=True,
              help="k,n,color -- hat at position w*k+n (repeatable).")
@click.option("--front", type=str, default=None, help="Front player's hat color.")
@click.option("--base", type=int, default=None,
              help="Selector strategies: the base color announced (default: assignment base).")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
@_guarded
def cmd_line(kind, colors, lazy, blocks, assignment_base, exceptions, front, base, fmt):
    """Play a line strategy symbolically on an eventually-constant assignment."""
    from .line import lazy_assignment_from_json, run_lazy

    if lazy:
        data = _load_json_arg(lazy)
    else:
        data = {"base": assignment_base, "front": front, "blocks": blocks, "exceptions": [
            dict(zip(("k", "n", "color"), _ints(text, "--exception", "k,n,color", 3))) for text in exceptions]}
    shape, a = lazy_assignment_from_json(data)
    record = run_lazy(kind, shape, a.base if base is None else base, a, colors)
    report = record.to_json()
    report["assignment"] = a.to_json(shape.limit_blocks)
    _emit(report, fmt)


@main.command("verify")
@click.option("--only", default=None, help="Run only criteria whose id contains this text.")
@_guarded
def cmd_verify(only):
    """Run the acceptance suite; exit 0 iff every criterion passes."""
    from .acceptance import run_criteria

    results = run_criteria(only)
    if not results:
        click.echo(f"no criteria match {only!r}", err=True)
        sys.exit(2)
    width = max(len(r.cid) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        click.echo(f"{status}  {r.cid:<{width}}  {r.seconds:6.2f}s  {r.detail}")
    failed = [r for r in results if not r.passed]
    click.echo(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
