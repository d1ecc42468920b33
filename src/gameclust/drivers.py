"""End-to-end algorithms with full game and timing instrumentation.

``run_gtkmeans`` interleaves single Lloyd steps with local games until
no reallocation is accepted and assignments are stable, or until a
post-Lloyd assignment repeats (a Lloyd-game cycle).  ``run_pkgame``
runs Lloyd to convergence first and then plays one game phase, once.
Every report names why its run stopped (``TERMINATIONS``).
``paired_compare`` runs several variants from identical seeded
initializations so their results are directly comparable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
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
)
from .errors import ConfigError
from .game_engine import (
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
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.ns is not None and self.ns < 1:
            raise ConfigError(f"ns must be >= 1 when present, got {self.ns}")
        if self.max_outer_iterations < 1:
            raise ConfigError(f"max_outer_iterations must be >= 1, got {self.max_outer_iterations}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")


@dataclass(frozen=True)
class GameRecord:
    """Instrumentation for one solved local game."""

    resource_id: int
    player_ids: Tuple[int, ...]
    requests: Tuple[int, ...]
    set_sizes: Tuple[int, ...]
    joint_entries: int
    feasible_fraction: float
    equilibrium_kind: str


@dataclass(frozen=True)
class IterationRecord:
    """State of one outer iteration, including any game phase."""

    index: int
    sse_before_games: float
    l_before_games: float
    games: Tuple[GameRecord, ...]
    accepted: bool
    reallocation_score: Optional[float]
    sse_end: float
    l_end: float
    loads_end: Tuple[int, ...]


@dataclass(frozen=True)
class RunReport:
    """Everything one run produced: objectives, improvements, game sizes, timing.

    ``termination`` is one of ``TERMINATIONS``: why the run stopped.
    """

    algorithm: str
    config: RunConfig
    initial: ObjectiveState
    final: ObjectiveState
    improvement: ImprovementReport
    avg_strategies_per_player: float
    payoff_entry_counts: Tuple[int, ...]
    games_played: int
    outer_iterations: int
    kmeans_iterations: int
    termination: str
    wall_time_s: float
    trace: Tuple[IterationRecord, ...]
    final_clustering: Clustering


def _balanced(clustering: Clustering, ideal: Fraction) -> bool:
    """Integer-feasible balance: every load within one unit of the ideal, exact in integers."""
    p, q = ideal.numerator, ideal.denominator
    return all(abs(q * l - p) < q for l in clustering.loads.tolist())


def _play_games(
    dataset: Dataset,
    clustering: Clustering,
    pre: ObjectiveState,
    index: int,
    ns: Optional[int],
) -> Tuple[Clustering, ObjectiveState, IterationRecord]:
    """Formulate, solve and apply the game phase of one iteration.

    ``pre`` holds the objectives of ``clustering``, the post-Lloyd state.
    A balanced clustering plays no games.  Otherwise (it then has both
    players and resources, as the loads' excesses over the ideal sum to
    zero) one transfer plan starts from the routing, every request served
    in full, and takes each conflicted resource's transfers from its
    game's equilibrium.  ``apply_and_evaluate`` executes the plan, keeping
    or dropping each resource's transfers on their own.  Returns the end
    state, its objectives and the iteration's record, whose reallocation
    score is the combined score of the kept reallocation relative to
    ``pre`` (None when nothing was kept or a pre-game term is zero).
    """
    end_clustering, end, accepted = clustering, pre, False
    records: List[GameRecord] = []
    if not _balanced(clustering, pre.ideal_load):
        roles = classify_roles(clustering, pre.ideal_load)
        routing = route_requests(roles, clustering)
        plan = dict(routing)
        for game in conflicted_games(clustering, roles, routing, ns):
            tensor = build_payoff_tensor(dataset, clustering, game)
            eq = find_pure_nash(tensor)
            plan[game.resource_id] = game.transfers(eq.joint)
            records.append(
                GameRecord(
                    resource_id=game.resource_id,
                    player_ids=tuple(p.player_id for p in game.participants),
                    requests=tuple(p.request for p in game.participants),
                    set_sizes=tuple(len(p.strategies) for p in game.participants),
                    joint_entries=tensor.joint_count,
                    feasible_fraction=float(tensor.feasible.mean()),
                    equilibrium_kind=eq.kind,
                )
            )
        end_clustering, accepted, end = apply_and_evaluate(dataset, clustering, pre, plan)
    score = None
    if accepted and pre.sse > 0 and pre.load_metric > 0:
        score = end.sse / pre.sse + end.load_metric / pre.load_metric
    record = IterationRecord(
        index=index,
        sse_before_games=pre.sse,
        l_before_games=pre.load_metric,
        games=tuple(records),
        accepted=accepted,
        reallocation_score=score,
        sse_end=end.sse,
        l_end=end.load_metric,
        loads_end=tuple(int(l) for l in end_clustering.loads),
    )
    return end_clustering, end, record


def run_gtkmeans(dataset: Dataset, config: RunConfig) -> RunReport:
    """Iterative engine: one Lloyd step, then local games, until stable.

    Stops for one of three reasons, checked in this order after each
    iteration's game phase:

    * ``converged``: the game phase kept nothing and the Lloyd step left
      the assignment of the previous iteration unchanged;
    * ``cycle``: the post-Lloyd assignment was seen in an earlier
      iteration, so the run would repeat that iteration's games forever.
      The reported final state is the end state of the cycle's
      iterations with the lowest SSE/SSE0 + L/L0 (0: the first Lloyd
      step), ties to the earliest;
    * ``budget``: ``max_outer_iterations`` ran out.
    """
    t0 = time.perf_counter()
    ideal = ideal_load(dataset.n, config.k)
    centers = init_centers(dataset, KMeansConfig(k=config.k, seed=config.seed))
    trace: List[IterationRecord] = []
    ends: List[Tuple[Clustering, ObjectiveState]] = []  # end state of every iteration, in order
    seen: Dict[bytes, int] = {}  # post-Lloyd assignment -> index of its iteration in ends
    prev_assignment: Optional[np.ndarray] = None
    initial: Optional[ObjectiveState] = None
    clustering: Optional[Clustering] = None
    final: Optional[ObjectiveState] = None
    termination = "budget"
    outer = 0
    for it in range(1, config.max_outer_iterations + 1):
        outer = it
        clustering = lloyd_iteration(dataset, centers)
        pre = objectives(dataset, clustering, ideal)
        if initial is None:
            initial = pre
        lloyd_stable = prev_assignment is not None and np.array_equal(
            clustering.assignment, prev_assignment
        )
        post_lloyd = clustering.assignment.tobytes()
        clustering, final, record = _play_games(dataset, clustering, pre, it, config.ns)
        trace.append(record)
        ends.append((clustering, final))
        if not record.accepted and lloyd_stable:
            termination = "converged"
            break
        if post_lloyd in seen:
            termination = "cycle"
            first = seen[post_lloyd]
            best = min(
                range(first, len(ends) - 1),
                key=lambda i: _ratio(trace[i].sse_end, initial.sse)
                + _ratio(trace[i].l_end, initial.load_metric),
            )
            clustering, final = ends[best]
            break
        seen[post_lloyd] = len(ends) - 1
        prev_assignment = clustering.assignment
        centers = clustering.centers
    assert clustering is not None and initial is not None and final is not None
    return _report(
        "gtkmeans", config, initial, final, trace, outer, outer, termination,
        time.perf_counter() - t0, clustering,
    )


def _ratio(value: float, reference: float) -> float:
    """value / reference, or value itself when the reference is zero."""
    return value / reference if reference > 0 else value


def run_pkgame(dataset: Dataset, config: RunConfig) -> RunReport:
    """One-shot engine: full Lloyd convergence, then a single game phase.

    The termination is ``converged`` when Lloyd's final clustering is a
    fixed point (one more Lloyd step would not change it), also when the
    last step of its ``max_outer_iterations`` budget reached it, and
    ``budget`` otherwise; the game phase itself always completes.
    """
    t0 = time.perf_counter()
    ideal = ideal_load(dataset.n, config.k)
    centers = init_centers(dataset, KMeansConfig(k=config.k, seed=config.seed))
    first = lloyd_iteration(dataset, centers)
    initial = objectives(dataset, first, ideal)
    if config.max_outer_iterations > 1:
        clustering, inner = lloyd_full(dataset, first.centers, config.max_outer_iterations - 1)
        kmeans_iterations = 1 + inner
    else:
        clustering, kmeans_iterations = first, 1
    converged = kmeans_iterations < config.max_outer_iterations or np.array_equal(
        lloyd_iteration(dataset, clustering.centers).assignment, clustering.assignment
    )
    termination = "converged" if converged else "budget"
    pre = objectives(dataset, clustering, ideal)
    clustering, final, record = _play_games(dataset, clustering, pre, 1, config.ns)
    return _report(
        "pkgame", config, initial, final, [record], 1, kmeans_iterations, termination,
        time.perf_counter() - t0, clustering,
    )


def _report(
    algorithm: str,
    config: RunConfig,
    initial: ObjectiveState,
    final: ObjectiveState,
    trace: List[IterationRecord],
    outer_iterations: int,
    kmeans_iterations: int,
    termination: str,
    wall_time_s: float,
    clustering: Clustering,
) -> RunReport:
    set_sizes = [s for rec in trace for g in rec.games for s in g.set_sizes]
    entry_counts = tuple(g.joint_entries for rec in trace for g in rec.games)
    return RunReport(
        algorithm=algorithm,
        config=config,
        initial=initial,
        final=final,
        improvement=improvement_report(initial, final),
        avg_strategies_per_player=(sum(set_sizes) / len(set_sizes)) if set_sizes else 0.0,
        payoff_entry_counts=entry_counts,
        games_played=len(entry_counts),
        outer_iterations=outer_iterations,
        kmeans_iterations=kmeans_iterations,
        termination=termination,
        wall_time_s=wall_time_s,
        trace=tuple(trace),
        final_clustering=clustering,
    )


def run_algorithm(dataset: Dataset, config: RunConfig) -> RunReport:
    """Dispatch on ``config.algorithm``."""
    if config.algorithm == "gtkmeans":
        return run_gtkmeans(dataset, config)
    return run_pkgame(dataset, config)


@dataclass(frozen=True)
class VariantSummary:
    """Mean metrics of one (algorithm, ns) variant over a set of paired seeds."""

    algorithm: str
    ns: Optional[int]
    k: int
    seeds: Tuple[int, ...]
    mean_wall_time_s: float
    mean_strategies_per_player: float
    mean_payoff_entries: float
    mean_sse_improvement_pct: Optional[float]
    mean_l_improvement_pct: Optional[float]
    reports: Tuple[RunReport, ...]


def _mean_optional(values: Sequence[Optional[float]]) -> Optional[float]:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return sum(present) / len(present)


def paired_compare(
    dataset: Dataset,
    k: int,
    seeds: Sequence[int],
    ns_values: Sequence[Optional[int]],
    algorithms: Sequence[str] = ALGORITHMS,
) -> List[VariantSummary]:
    """Run every (algorithm, ns) variant over the same seeds and average the metrics.

    All variants of a seed start from the identical seeded center
    initialization, so initial objectives match across variants.  Runs
    execute serially, so their timings do not interfere.
    """
    if not seeds:
        raise ConfigError("need at least one seed")
    summaries: List[VariantSummary] = []
    for algorithm in algorithms:
        for ns in ns_values:
            reports = [
                run_algorithm(
                    dataset,
                    RunConfig(k=k, seed=int(s), ns=ns, algorithm=algorithm),
                )
                for s in seeds
            ]
            summaries.append(
                VariantSummary(
                    algorithm=algorithm,
                    ns=ns,
                    k=k,
                    seeds=tuple(int(s) for s in seeds),
                    mean_wall_time_s=float(np.mean([r.wall_time_s for r in reports])),
                    mean_strategies_per_player=float(
                        np.mean([r.avg_strategies_per_player for r in reports])
                    ),
                    mean_payoff_entries=float(
                        np.mean([sum(r.payoff_entry_counts) for r in reports])
                    ),
                    mean_sse_improvement_pct=_mean_optional(
                        [r.improvement.sse_improvement_pct for r in reports]
                    ),
                    mean_l_improvement_pct=_mean_optional(
                        [r.improvement.l_improvement_pct for r in reports]
                    ),
                    reports=tuple(reports),
                )
            )
    return summaries
