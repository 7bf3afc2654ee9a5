"""Hat-guessing games: instances, deterministic plays, strategies, oracles.

The package splits along the natural seams of the problem:

* :mod:`hatlab.model` -- instances (players, colors, sight, hearing, rules),
  validation, canonical families, JSON descriptors;
* :mod:`hatlab.engine` -- the unique play of a strategy against an
  assignment, outcome evaluation, assignment sweeps, strategy combination;
* :mod:`hatlab.strategies` -- the constructive strategies and the
  line adversary;
* :mod:`hatlab.oracle` -- exhaustive and counting certificates over the
  whole table-strategy space;
* :mod:`hatlab.line` -- symbolic plays on ordinal-indexed infinite lines;
* :mod:`hatlab.cli` -- the ``hatlab`` command.
"""

from .errors import (
    BlockSizeMismatch,
    BudgetExceeded,
    CoverageError,
    CyclicHearing,
    HatlabError,
    MissingTableEntry,
    NeedsTwoColors,
    NotHBSF,
    OverlapError,
    ShapeMismatch,
    StrategyRangeError,
    SweepTooLarge,
    TooManyBlocks,
    ZeroSize,
)
from .model import (
    OMEGA,
    Assignment,
    ColorSpace,
    EvaluationRule,
    Instance,
    RuleKind,
    ValidationReport,
    as_assignment,
    assignment_tuple,
    at_least,
    build_canonical_instance,
    custom_instance,
    fewer_incorrect_than,
    hbsf,
    hnsa,
    hnsf,
    instance_from_json,
    instance_to_json,
    validate_instance,
)
from .engine import (
    CombinedStrategy,
    GameResult,
    RuleStrategy,
    Strategy,
    SweepReport,
    TableStrategy,
    combine,
    evaluate,
    is_winning,
    iter_assignment_tuples,
    iter_plays,
    run_game,
    sweep,
    topological_extension,
)
from .strategies import (
    BlockPartition,
    base_selector,
    block_mod_sum,
    consecutive_blocks,
    constant,
    diagonal_adversary,
    mod_sum,
    seeded_random_strategy,
    strategy_from_descriptor,
    sum_broadcast,
)
from .oracle import (
    SearchBudget,
    SearchVerdict,
    best_guaranteed_correct,
    correct_count_census,
    count_table_strategies,
    enumerate_table_strategies,
    exists_winning_exhaustive,
)
from .line import (
    FRONT,
    LazyAssignment,
    LazyGuessRecord,
    LineShape,
    LineStrategyKind,
    OrdinalPosition,
    broadcast_guess_at,
    extended_sum,
    lazy_assignment_from_json,
    mismatch_census,
    pointwise_sum,
    run_lazy,
)

__version__ = "0.1.0"
