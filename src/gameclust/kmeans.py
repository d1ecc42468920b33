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
its payoffs.  Lloyd calls it as ``squared_distances(centers, points)``:
a (k, n) array whose inner loops run over the n points, with the nearest
center the first minimum down axis 0.  Each entry is bit-identical to the
(n, k) form, since c - x is the exact negative of x - c.  Up to 7
dimensions the distances are bit-identical to the broadcast
``((x[:, None] - c[None]) ** 2).sum(-1)``; from 8 dimensions on, numpy's
``sum`` adds 8-way unrolled, so the last bits can differ from that form
(the nearest centers matched in every trial).

``lloyd_full`` runs its steps on plain arrays and builds one
``Clustering`` at the end.  It keeps two bounds per point, as in Hamerly,
"Making k-means even faster" (SDM 2010): ``upper`` is at least the
distance to the assigned center and ``lower`` at most the distance to any
other center.  After each step ``upper`` grows by the drift of the
assigned center and ``lower`` shrinks by the largest drift.  A point with
``upper < lower`` keeps its center without a distance computation; the
others go through the kernel again.  Every step still gives exactly the
assignment a full step would, ties included:

* each update pads ``upper`` by a relative ``_MARGIN`` of 1e-9, far
  above the relative rounding error of the kernel, about
  (dim + 2) * 2**-53, so a kept point's center is nearer than any other
  by more than rounding can reverse;
* ``lower`` pads both operands of its subtraction, the old bound down and
  the drift up, by the same relative margin.  The difference of two
  nearly equal numbers carries the rounding of both, which scales with
  the operands and not with the difference: a center that jumps 1e10
  units almost straight toward a point leaves a lower bound near 1 with
  an error near 1e-6, which a pad of 1e-9 times the difference misses;
* a point is kept only for 1e-150 <= upper < lower <= 1e150, where the
  squared distances it rests on neither underflow nor overflow (the
  bounds are clamped to that range when they are set), and drifts come
  from ``hypot``, which does neither;
* the skip test is negated, ``~(upper < lower)``, so NaN bounds send a
  point back to the kernel.  With the margin, ``upper == lower`` already
  proves the assignment, so ``<=`` would be as sound; ``<`` is the
  plainer statement of Hamerly's test and no assignment depends on the
  choice;
* a step that leaves a cluster empty is redone as a full step and resets
  every bound, since the repair reads every point's distance to its own
  center.

``tests/oracles.py`` keeps the stepwise loop, one full assignment per
step, as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .core import Clustering, Dataset, mean_centers, squared_distances
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


# Distance bounds are padded by this relative margin at every update, far
# above the kernel's relative error of about (dim + 2) * 2**-53; ``lower``
# pads both operands of its subtraction (see the module docstring).
_MARGIN = 1e-9
# Bounds prove an assignment only between these, where the squared
# distances near them neither underflow nor overflow.
_TINY, _HUGE = 1e-150, 1e150


def _nearest(d2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Assignment and loads from a (k, n) array of squared distances, by ``lloyd_iteration``'s rules."""
    k, n = d2.shape
    assignment = np.argmin(d2, axis=0)  # first minimum == lowest cluster index
    loads = np.bincount(assignment, minlength=k)
    empties = np.flatnonzero(loads == 0)
    if empties.size:
        own_d2 = d2[assignment, np.arange(n)]
    for empty in empties:
        donors = np.flatnonzero(loads[assignment] >= 2)
        if donors.size == 0:
            raise StructuralError("cannot repair empty cluster: no cluster can spare a point")
        move = donors[np.argmax(own_d2[donors])]  # first max == lowest point index
        loads[assignment[move]] -= 1
        assignment[move] = empty
        loads[empty] += 1  # 1: the moved point is never a donor again
    return assignment, loads


def lloyd_iteration(dataset: Dataset, centers: Sequence[Sequence[float]]) -> Clustering:
    """One Lloyd step: assign to nearest center, repair empty clusters, recompute means.

    Each point goes to its nearest center, ties to the lowest cluster
    index.  Empty-cluster repair keeps all k clusters populated, which the
    game formulation requires: for each empty cluster (ascending id), the
    point farthest from its current center among clusters that can spare
    one is moved in, ties to the lowest point index.
    """
    c = _as_centers(dataset, centers)
    assignment, loads = _nearest(squared_distances(c, dataset.points))
    return Clustering(
        assignment=assignment, k=c.shape[0], centers=mean_centers(dataset.points, assignment, loads), loads=loads
    )


def _bounds(d2: np.ndarray, assignment: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distance bounds from a (k, m) array of squared distances and the m points' clusters.

    Returns (upper, lower): the distance to the assigned center raised to
    at least ``_TINY``, and the distance to the nearest other center capped
    at ``_HUGE``.  So ``upper < lower`` holds only inside the safe range,
    and the cap keeps a lower bound finite where a squared distance
    overflowed.  Overwrites the assigned entries of ``d2``.
    """
    cols = np.arange(d2.shape[1])
    upper = np.maximum(np.sqrt(d2[assignment, cols]), _TINY)
    d2[assignment, cols] = np.inf
    return upper, np.minimum(np.sqrt(d2.min(axis=0)), _HUGE)


def lloyd_full(
    dataset: Dataset, centers: Sequence[Sequence[float]], max_iterations: int
) -> Tuple[Clustering, int]:
    """Iterate Lloyd steps until assignments stop changing or the budget runs out.

    Returns the final clustering and the number of iterations performed.
    A fixed-point input is detected after a single iteration.  Every step
    gives the assignment, loads and centers that ``lloyd_iteration`` would
    give from the same centers; the distance bounds only decide which
    points need their distances computed (see the module docstring).
    """
    if max_iterations < 1:
        raise ConfigError(f"max_iterations must be >= 1, got {max_iterations}")
    current = _as_centers(dataset, centers)
    columns = dataset.points.T.copy()  # each dimension contiguous, for the kernel and the means
    points = columns.T
    k, n = current.shape[0], dataset.n
    assignment = np.zeros(n, dtype=np.intp)
    upper = np.full(n, np.inf)  # no bounds yet: the first step assigns every point
    lower = np.zeros(n)
    iterations = 0
    while True:
        previous = assignment.copy()
        stale = np.flatnonzero(~(upper < lower))  # "not <": NaN bounds are rechecked
        if stale.size < n:
            d2 = squared_distances(current, columns[:, stale].T)
            assignment[stale] = np.argmin(d2, axis=0)
            loads = np.bincount(assignment, minlength=k)
        if stale.size == n or not loads.all():
            # the repair reads every point's distance to its own center
            stale = slice(None)
            d2 = squared_distances(current, points)
            assignment, loads = _nearest(d2)
        upper[stale], lower[stale] = _bounds(d2, assignment[stale])
        means = mean_centers(points, assignment, loads)
        iterations += 1
        if (
            iterations == max_iterations
            or (iterations > 1 and np.array_equal(assignment, previous))
            or np.array_equal(means, current)  # centers are already the means: nothing can change
        ):
            break
        drift = np.hypot.reduce(means - current, axis=1, initial=0.0)
        upper += drift[assignment]
        upper *= 1 + _MARGIN
        # pad both operands: a difference of two nearly equal distances
        # carries their rounding, which a pad on the difference can miss
        lower *= 1 - _MARGIN
        lower -= drift.max() * (1 + _MARGIN)
        current = means
    return Clustering(assignment=assignment, k=k, centers=means, loads=loads), iterations
