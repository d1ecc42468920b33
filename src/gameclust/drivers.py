"""End-to-end algorithms with full game and timing instrumentation.

``run_algorithm`` is the one way to run an engine: it draws the seeded
start centers, runs the engine that ``config.algorithm`` names, times
the whole run and builds its ``RunReport``, whose config is the config
that ran.  The gtkmeans engine interleaves single Lloyd steps with local
games, and stops when the Lloyd step after a game phase repeats an
earlier post-Lloyd assignment or the budget runs out; no game phase is
played twice.  The pkgame engine runs Lloyd to convergence first and
then plays one game phase, once.
Every report names why its run stopped (``TERMINATIONS``).
``paired_compare`` runs a grid of (k, algorithm, ns) variants from
identical seeded initializations so their results are directly comparable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    Clustering,
    Dataset,
    ImprovementReport,
    ObjectiveState,
    ideal_load,
    improvement_report,
    objectives,
    whole,
)
from .errors import ConfigError
from .game_engine import (
    EquilibriumResult,
    LocalGame,
    apply_and_evaluate,
    build_payoff_tensor,
    classify_roles,
    conflicted_games,
    find_pure_nash,
    route_requests,
)
from .kmeans import KMeansConfig, init_centers, lloyd_full, lloyd_iteration

ALGORITHMS = ("gtkmeans", "pkgame")
TERMINATIONS = ("converged", "cycle", "budget")


@dataclass(frozen=True)
class RunConfig:
    """Settings for one algorithm run; ns=None disables strategy selection."""

    k: int
    seed: int
    ns: Optional[int] = None
    max_outer_iterations: int = 100
    algorithm: str = "gtkmeans"

    def __post_init__(self) -> None:
        KMeansConfig(k=self.k, seed=self.seed)  # the start centers' rules for k and the seed
        if self.ns is not None:
            whole(self.ns, "ns")
        whole(self.max_outer_iterations, "max_outer_iterations")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")


@dataclass(frozen=True)
class GameRecord:
    """One solved local game: the game, its selected equilibrium and its tensor's feasible share."""

    game: LocalGame
    equilibrium: EquilibriumResult
    feasible_fraction: float


@dataclass(frozen=True)
class IterationRecord:
    """State of one outer iteration, including any game phase.

    ``reallocation_score`` is the kept state's ``score`` against the
    post-Lloyd state, None when nothing was kept; ``accepted`` is read
    from it, so a record cannot say it kept a reallocation without
    scoring it.
    """

    index: int
    sse_before_games: float
    l_before_games: float
    games: Tuple[GameRecord, ...]
    reallocation_score: Optional[float]
    sse_end: float
    l_end: float
    loads_end: Tuple[int, ...]

    @property
    def accepted(self) -> bool:
        """Whether the game phase kept a reallocation: it did iff it has a score."""
        return self.reallocation_score is not None


@dataclass(frozen=True)
class RunReport:
    """Everything one run produced: objectives, iterations, timing.

    ``config`` is the config that ran, naming its engine.  ``improvement``
    is read from ``initial`` and ``final``, so it always matches them.
    ``termination`` is one of ``TERMINATIONS``: why the run stopped.
    Iteration and game counts are read from ``trace``, one record per
    outer iteration.  ``kmeans_iterations`` counts the Lloyd steps run: a
    gtkmeans run always ran one more than it has records, the step after
    its last game phase that its stop rule reads.  pkgame's fixed-point
    test, one more step after a budget used in full, is not counted.
    """

    config: RunConfig
    initial: ObjectiveState
    final: ObjectiveState
    kmeans_iterations: int
    termination: str
    wall_time_s: float
    trace: Tuple[IterationRecord, ...]
    final_clustering: Clustering

    @property
    def improvement(self) -> ImprovementReport:
        return improvement_report(self.initial, self.final)

    @property
    def outer_iterations(self) -> int:
        return len(self.trace)

    @property
    def payoff_entry_counts(self) -> Tuple[int, ...]:
        """Payoff-tensor entries of every game played, in play order."""
        return tuple(g.game.joint_count for rec in self.trace for g in rec.games)

    @property
    def games_played(self) -> int:
        return sum(len(rec.games) for rec in self.trace)

    @property
    def avg_strategies_per_player(self) -> float:
        """Mean strategy-set size over every participant of every game; 0.0 without games."""
        set_sizes = [s for rec in self.trace for g in rec.games for s in g.game.shape]
        return (sum(set_sizes) / len(set_sizes)) if set_sizes else 0.0


# What an engine's run produced: initial, final, kmeans_iterations,
# termination, trace and final clustering, in ``RunReport``'s field order.
_RunFacts = Tuple[ObjectiveState, ObjectiveState, int, str, Tuple[IterationRecord, ...], Clustering]


def _play_games(
    dataset: Dataset,
    clustering: Clustering,
    pre: ObjectiveState,
    index: int,
    ns: Optional[int],
) -> Tuple[Clustering, ObjectiveState, IterationRecord]:
    """Formulate, solve and apply the game phase of one iteration.

    ``pre`` holds the objectives of ``clustering``, the post-Lloyd state.
    Every phase takes one path: roles, routing, games, apply.  The roles
    against the ideal load n/k are the one rule for whether anything is
    played: a clustering whose every load is the ideal has none, and
    keeps its state.  One transfer plan starts from the routing, every
    request served in full, and takes each conflicted resource's
    transfers from its game's equilibrium.  Each game is recorded with
    its equilibrium and its tensor's feasible share; the tensor itself is
    dropped before the next game's build starts, so at most one is alive
    at a time: the one that ``MAX_TENSOR_BYTES`` bounds.
    ``apply_and_evaluate`` executes the plan, keeping or dropping each
    resource's transfers on their own.  Returns the end state, its
    objectives and the iteration's record, whose reallocation score is
    the kept state's ``score`` relative to ``pre``, None only when
    nothing was kept.
    """
    records: List[GameRecord] = []
    roles = classify_roles(clustering, ideal_load(dataset.n, clustering.k))
    routing = route_requests(roles, clustering)
    plan = dict(routing)
    for game in conflicted_games(roles, routing, ns):
        tensor = build_payoff_tensor(dataset, clustering, game)
        eq = find_pure_nash(tensor)
        plan[game.resource_id] = game.transfers(eq.joint)
        records.append(GameRecord(game, eq, np.count_nonzero(tensor.feasible) / tensor.joint_count))
        del tensor  # so the next game's build never overlaps this tensor
    end_clustering, accepted, end = apply_and_evaluate(dataset, clustering, pre, plan)
    score = end.score(pre) if accepted else None
    record = IterationRecord(
        index=index,
        sse_before_games=pre.sse,
        l_before_games=pre.load_metric,
        games=tuple(records),
        reallocation_score=score,
        sse_end=end.sse,
        l_end=end.load_metric,
        loads_end=tuple(int(l) for l in end_clustering.loads),
    )
    return end_clustering, end, record


def _run_gtkmeans(dataset: Dataset, config: RunConfig, centers: np.ndarray) -> _RunFacts:
    """Iterative engine: one Lloyd step, then local games, until stable.

    Every game phase is followed by a Lloyd step from its end state's
    centers, and the run stops by one rule, read from that step: when its
    assignment is one an earlier Lloyd step produced, say the one before
    iteration ``first``'s games, the run would replay those games forever.
    It is ``converged`` when ``first`` is the iteration just played and
    kept nothing, ``cycle`` otherwise, and its final state is the end
    state of the iterations from ``first`` on with the lowest ``score``
    relative to the first Lloyd step's objectives, SSE/SSE0 + L/L0, ties
    to the earliest.  When no repeat follows the last game phase that
    ``max_outer_iterations`` allows, the run is ``budget`` and its final
    state is that phase's end state.  So no game phase is played twice,
    and every run takes one more Lloyd step than it plays game phases.
    """
    trace: List[IterationRecord] = []
    ends: List[Tuple[Clustering, ObjectiveState]] = []  # end state of every iteration, in order
    seen: Dict[bytes, int] = {}  # post-Lloyd assignment -> index of its iteration in ends
    post_lloyd = lloyd_iteration(dataset, centers)
    termination = "budget"
    for it in range(1, config.max_outer_iterations + 1):
        seen[post_lloyd.assignment.tobytes()] = it - 1
        pre = objectives(dataset, post_lloyd)
        if it == 1:
            initial = pre
        clustering, final, record = _play_games(dataset, post_lloyd, pre, it, config.ns)
        trace.append(record)
        ends.append((clustering, final))
        post_lloyd = lloyd_iteration(dataset, clustering.centers)
        first = seen.get(post_lloyd.assignment.tobytes())
        if first is not None:
            termination = "converged" if first == it - 1 and not record.accepted else "cycle"
            best = min(range(first, it), key=lambda i: ends[i][1].score(initial))
            clustering, final = ends[best]
            break
    return initial, final, len(trace) + 1, termination, tuple(trace), clustering


def _run_pkgame(dataset: Dataset, config: RunConfig, centers: np.ndarray) -> _RunFacts:
    """One-shot engine: full Lloyd convergence, then a single game phase.

    The termination is ``converged`` when Lloyd's final clustering is a
    fixed point (one more Lloyd step would not change it), also when the
    last step of its ``max_outer_iterations`` budget reached it, and
    ``budget`` otherwise; the game phase itself always completes.
    """
    first = lloyd_iteration(dataset, centers)
    initial = objectives(dataset, first)
    if config.max_outer_iterations > 1:
        clustering, inner = lloyd_full(dataset, first.centers, config.max_outer_iterations - 1)
        kmeans_iterations = 1 + inner
    else:
        clustering, kmeans_iterations = first, 1
    converged = kmeans_iterations < config.max_outer_iterations or np.array_equal(
        lloyd_iteration(dataset, clustering.centers).assignment, clustering.assignment
    )
    termination = "converged" if converged else "budget"
    pre = objectives(dataset, clustering)
    clustering, final, record = _play_games(dataset, clustering, pre, 1, config.ns)
    return initial, final, kmeans_iterations, termination, (record,), clustering


def run_algorithm(dataset: Dataset, config: RunConfig) -> RunReport:
    """Run the engine that ``config.algorithm`` names, from ``config.seed``'s start centers, timed whole.

    The report's ``config`` is ``config`` itself.
    """
    t0 = time.perf_counter()
    centers = init_centers(dataset, KMeansConfig(k=config.k, seed=config.seed))
    engine = _run_gtkmeans if config.algorithm == "gtkmeans" else _run_pkgame
    initial, final, kmeans_iterations, termination, trace, clustering = engine(dataset, config, centers)
    return RunReport(
        config=config,
        initial=initial,
        final=final,
        kmeans_iterations=kmeans_iterations,
        termination=termination,
        wall_time_s=time.perf_counter() - t0,
        trace=trace,
        final_clustering=clustering,
    )


@dataclass(frozen=True)
class VariantSummary:
    """One (k, algorithm, ns) variant's runs over paired seeds; all else is read from the runs."""

    reports: Tuple[RunReport, ...]

    def __post_init__(self) -> None:
        if not self.reports:
            raise ConfigError("a variant summary needs at least one run")

    @property
    def algorithm(self) -> str:
        return self.reports[0].config.algorithm

    @property
    def ns(self) -> Optional[int]:
        return self.reports[0].config.ns

    @property
    def k(self) -> int:
        return self.reports[0].config.k

    @property
    def seeds(self) -> Tuple[int, ...]:
        return tuple(r.config.seed for r in self.reports)

    @property
    def mean_wall_time_s(self) -> float:
        return float(np.mean([r.wall_time_s for r in self.reports]))

    @property
    def mean_strategies_per_player(self) -> float:
        return float(np.mean([r.avg_strategies_per_player for r in self.reports]))

    @property
    def mean_payoff_entries(self) -> float:
        return float(np.mean([sum(r.payoff_entry_counts) for r in self.reports]))

    @property
    def mean_sse_improvement_pct(self) -> Optional[float]:
        return _mean_optional([r.improvement.sse_improvement_pct for r in self.reports])

    @property
    def mean_l_improvement_pct(self) -> Optional[float]:
        return _mean_optional([r.improvement.l_improvement_pct for r in self.reports])


def _mean_optional(values: Sequence[Optional[float]]) -> Optional[float]:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return sum(present) / len(present)


def paired_compare(
    dataset: Dataset,
    k_values: Sequence[int],
    seeds: Sequence[int],
    ns_values: Sequence[Optional[int]],
    algorithms: Sequence[str] = ALGORITHMS,
) -> List[VariantSummary]:
    """Run every (k, algorithm, ns) variant over the same seeds; one summary per variant, in that order.

    All variants of a seed start from the same seeded centers for their k.
    Runs execute serially, a seed's variants back to back across every k,
    so a slow stretch of the machine slows every variant alike.  Every
    ``RunConfig``, each seed (``core.whole``) and each k against n
    (``core.ideal_load``) is checked before the first run; an empty axis raises.
    """
    seeds = [whole(s, "seed", least=0) for s in seeds]
    variants = [(k, algorithm, ns) for k in k_values for algorithm in algorithms for ns in ns_values]
    if not seeds or not variants:
        raise ConfigError("need at least one k, one seed, one ns value and one algorithm")
    grid = [[RunConfig(k=k, seed=s, ns=ns, algorithm=algorithm) for k, algorithm, ns in variants] for s in seeds]
    for k in k_values:
        ideal_load(dataset.n, k)
    by_seed = [[run_algorithm(dataset, config) for config in configs] for configs in grid]
    return [VariantSummary(reports) for reports in zip(*by_seed)]
