"""Multi-objective clustering through local load-balancing games.

The engine optimizes cluster compactness (SSE) and load balance (sum of
squared load deviations from n/k) at once by letting deficit clusters
compete for the spare points of surplus clusters in small normal-form
games, with an optional strategy-selection rule that transfers points
in groups and shrinks the games.
"""

from .core import (
    Clustering,
    Dataset,
    ImprovementReport,
    ObjectiveState,
    ideal_load,
    improvement_report,
    load_metric,
    objectives,
)
from .datagen import Ds1Config, generate_ds1, load_csv, save_csv
from .drivers import (
    ALGORITHMS,
    GameRecord,
    IterationRecord,
    RunConfig,
    RunReport,
    TERMINATIONS,
    VariantSummary,
    paired_compare,
    run_algorithm,
)
from .errors import (
    ConfigError,
    CsvFormatError,
    GameclustError,
    StructuralError,
    TensorTooLargeError,
)
from .fairness import geometric_mean_index, improvement_indices, jain_index
from .game_engine import (
    FALLBACK_MIN_SOCIAL_COST,
    PURE_NASH,
    EquilibriumResult,
    LocalGame,
    Participant,
    PayoffTensor,
    RoleAssignment,
    apply_and_evaluate,
    build_payoff_tensor,
    classify_roles,
    conflicted_games,
    find_pure_nash,
    route_requests,
    select_strategies,
)
from .kmeans import KMeansConfig, init_centers, lloyd_full, lloyd_iteration

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "Clustering",
    "ConfigError",
    "CsvFormatError",
    "Dataset",
    "Ds1Config",
    "EquilibriumResult",
    "FALLBACK_MIN_SOCIAL_COST",
    "GameRecord",
    "GameclustError",
    "ImprovementReport",
    "IterationRecord",
    "KMeansConfig",
    "LocalGame",
    "ObjectiveState",
    "PURE_NASH",
    "Participant",
    "PayoffTensor",
    "RoleAssignment",
    "RunConfig",
    "RunReport",
    "TERMINATIONS",
    "StructuralError",
    "TensorTooLargeError",
    "VariantSummary",
    "apply_and_evaluate",
    "build_payoff_tensor",
    "classify_roles",
    "conflicted_games",
    "find_pure_nash",
    "generate_ds1",
    "geometric_mean_index",
    "ideal_load",
    "improvement_indices",
    "improvement_report",
    "init_centers",
    "jain_index",
    "load_csv",
    "load_metric",
    "lloyd_full",
    "lloyd_iteration",
    "objectives",
    "paired_compare",
    "route_requests",
    "run_algorithm",
    "save_csv",
    "select_strategies",
]
