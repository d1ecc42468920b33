"""Seeded k-means: center initialization, one Lloyd step, full Lloyd runs.

The iterative variant of the engine interleaves single Lloyd steps with
local games; the one-shot variant runs Lloyd to convergence first.  Both
entry points live here.

Determinism contract: the seeded generator is numpy's PCG64 (via
``numpy.random.default_rng``), and initial centers are k distinct data
points drawn without replacement with ``Generator.choice``.  Points
equidistant to several centers go to the lowest cluster index, so a
fixed (dataset, seed, k) reproduces the same run bit for bit.

Distances come from ``core.squared_distances``, the one pairwise
distance kernel that every nearest-center query in the package uses.
It adds the squared differences one dimension at a time, in dimension
order, the order ``game_engine`` also uses for the sums of squares in
its payoffs.  Up to 7 dimensions its distances are bit-identical to the
broadcast ``((x[:, None] - c[None]) ** 2).sum(-1)``; from 8 dimensions
on, numpy's ``sum`` adds 8-way unrolled, so the last bits can differ
from that form (the nearest centers matched in every trial).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .core import Clustering, Dataset, squared_distances
from .errors import ConfigError, StructuralError


@dataclass(frozen=True)
class KMeansConfig:
    """Configuration for seeded k-means runs; ties break to the lowest cluster index."""

    k: int
    seed: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError(f"seed must fit in 64 unsigned bits, got {self.seed}")


def init_centers(dataset: Dataset, config: KMeansConfig) -> np.ndarray:
    """k distinct data points drawn uniformly without replacement by the seeded generator."""
    if config.k > dataset.n:
        raise ConfigError(f"k={config.k} exceeds number of points n={dataset.n}")
    rng = np.random.default_rng(config.seed)
    idx = rng.choice(dataset.n, size=config.k, replace=False)
    return dataset.points[idx].copy()


def _as_centers(dataset: Dataset, centers: Sequence[Sequence[float]]) -> np.ndarray:
    c = np.asarray(centers, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] < 1:
        raise StructuralError("centers must be a nonempty 2-d array")
    if c.shape[1] != dataset.dim:
        raise StructuralError(f"centers have dim {c.shape[1]}, dataset has dim {dataset.dim}")
    if c.shape[0] > dataset.n:
        raise ConfigError(f"more centers ({c.shape[0]}) than points ({dataset.n})")
    return c


def lloyd_iteration(dataset: Dataset, centers: Sequence[Sequence[float]]) -> Clustering:
    """One Lloyd step: assign to nearest center, repair empty clusters, recompute means.

    Empty-cluster repair keeps all k clusters populated, which the game
    formulation requires: for each empty cluster (ascending id), the
    point farthest from its current center among clusters that can spare
    one is moved in, ties to the lowest point index.
    """
    c = _as_centers(dataset, centers)
    k = c.shape[0]
    d2 = squared_distances(dataset.points, c)
    assignment = np.argmin(d2, axis=1)  # first minimum == lowest cluster index
    loads = np.bincount(assignment, minlength=k)
    empties = np.flatnonzero(loads == 0)
    if empties.size:
        own_d2 = d2[np.arange(dataset.n), assignment]
    for empty in empties:
        donors = np.flatnonzero(loads[assignment] >= 2)
        if donors.size == 0:
            raise StructuralError("cannot repair empty cluster: no cluster can spare a point")
        move = donors[np.argmax(own_d2[donors])]  # first max == lowest point index
        loads[assignment[move]] -= 1
        assignment[move] = empty
        loads[empty] += 1  # 1: the moved point is never a donor again
    return Clustering.from_assignment(dataset, assignment, k)


def lloyd_full(
    dataset: Dataset, centers: Sequence[Sequence[float]], max_iterations: int
) -> Tuple[Clustering, int]:
    """Iterate Lloyd steps until assignments stop changing or the budget runs out.

    Returns the final clustering and the number of iterations performed.
    A fixed-point input is detected after a single iteration.
    """
    if max_iterations < 1:
        raise ConfigError(f"max_iterations must be >= 1, got {max_iterations}")
    current = np.asarray(centers, dtype=np.float64)
    prev_assignment = None
    clustering = None
    iterations = 0
    while iterations < max_iterations:
        clustering = lloyd_iteration(dataset, current)
        iterations += 1
        if prev_assignment is not None and np.array_equal(clustering.assignment, prev_assignment):
            break
        if np.array_equal(clustering.centers, current):
            break  # centers are already the means: nothing can change
        prev_assignment = clustering.assignment
        current = clustering.centers
    assert clustering is not None
    return clustering, iterations
