"""Hat-guessing games: instances, deterministic plays, strategies, oracles.

The package splits along the natural seams of the problem:

* :mod:`hatlab.model` -- instances (players, colors, sight, hearing, rules)
  and their play steps, validation, canonical families, JSON descriptors;
* :mod:`hatlab.engine` -- the unique play of a strategy against an
  assignment, outcome evaluation, assignment sweeps, strategy combination;
* :mod:`hatlab.tables` -- table strategies: one guess per asking and
  observation, read from JSON or built by the search;
* :mod:`hatlab.strategies` -- the constructive strategies and the
  line adversary;
* :mod:`hatlab.oracle` -- exhaustive and counting certificates over the
  whole table-strategy space;
* :mod:`hatlab.line` -- symbolic plays on ordinal-indexed infinite lines;
* :mod:`hatlab.cli` -- the ``hatlab`` command.

``import hatlab`` loads none of them: each submodule loads when one of its
names is first used (PEP 562), so a caller pays only for what it touches.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "errors": (
        "BlockSizeMismatch", "BudgetExceeded", "CoverageError", "CyclicHearing", "HatlabError",
        "MissingTableEntry", "NeedsTwoColors", "NotHBSF", "OverlapError", "ShapeMismatch",
        "StrategyRangeError", "SweepTooLarge", "TooManyBlocks", "ZeroSize",
    ),
    "model": (
        "OMEGA", "Assignment", "ColorSpace", "EvaluationRule", "Instance", "RuleKind",
        "ValidationReport", "as_assignment", "assignment_tuple", "at_least",
        "build_canonical_instance", "custom_instance", "fewer_incorrect_than", "hbsf", "hnsa",
        "hnsf", "instance_from_json", "instance_to_json", "topological_extension",
        "validate_instance",
    ),
    "engine": (
        "CombinedStrategy", "GameResult", "RuleStrategy", "Strategy", "SweepReport", "combine",
        "evaluate", "is_winning", "iter_assignment_tuples", "iter_plays", "run_game", "sweep",
    ),
    "tables": ("TableStrategy",),
    "strategies": (
        "BlockPartition", "base_selector", "block_mod_sum", "consecutive_blocks", "constant",
        "diagonal_adversary", "mod_sum", "seeded_random_strategy", "strategy_from_descriptor",
        "sum_broadcast",
    ),
    "oracle": (
        "SearchBudget", "SearchVerdict", "best_guaranteed_correct", "correct_count_census",
        "count_table_strategies", "enumerate_table_strategies", "exists_winning_exhaustive",
    ),
    "line": (
        "FRONT", "LazyAssignment", "LazyGuessRecord", "LineShape", "LineStrategyKind",
        "OrdinalPosition", "broadcast_guess_at", "extended_sum", "lazy_assignment_from_json",
        "mismatch_census", "pointwise_sum", "run_lazy",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule that defines ``name`` (or is ``name``) and keep the value."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return __all__
