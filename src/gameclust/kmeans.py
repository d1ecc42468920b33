"""Seeded k-means: center initialization and one Lloyd loop.

The iterative variant of the engine interleaves single Lloyd steps with
local games; the one-shot variant runs Lloyd to convergence first.  Both
run the one loop, ``lloyd_full``: ``lloyd_iteration`` is that loop with
a budget of one step.

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

``lloyd_full`` runs its steps on plain arrays and builds one ``Clustering``
at the end.  It stops on its budget or once the means equal their centers,
as they do one step after the assignment stops changing.  Its first step
assigns every point, so a one-step run allocates no bounds; once a second
step follows, it keeps two bounds per point, as in Hamerly, "Making
k-means even faster" (SDM 2010):
``upper`` is at least the distance to the assigned center and ``lower`` at
most the distance to any other center.  After each step ``upper`` grows by
the drift of the assigned center and ``lower`` shrinks by the largest
drift.  A point with ``upper < lower`` keeps its center without a distance
computation; the others go through the kernel again.  A step sets the
bounds of the points it recomputed only when another step follows it.
Every step still gives exactly the assignment a full step would, ties
included:

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

A step indexes its arrays without multi-axis fancy indexing, which at a
few hundred stale points takes about three times as long as ``take``:
the stale points' coordinates are gathered with ``take`` along the
per-dimension columns, their nearest centers go to the bounds as
``argmin`` returns them, and each point's entry for its own center in a
(k, m) distance array is addressed by its C-order flat index,
``assignment * m + arange(m)``.  ``_own_flat`` is the one home of that
index; ``_bounds`` reads and overwrites those entries with ``take`` and
``put``, which address any memory order alike, and the empty-cluster
repair reads them with ``take``.

Start centers must be finite: a NaN or infinite center raises
``StructuralError``, as a non-finite point does in ``Dataset``.

``tests/oracles.py`` keeps the stepwise loop, one full assignment per
step, as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .core import Clustering, Dataset, ideal_load, mean_centers, squared_distances, whole
from .errors import ConfigError, StructuralError


@dataclass(frozen=True)
class KMeansConfig:
    """Configuration for seeded k-means runs; ties break to the lowest cluster index."""

    k: int
    seed: int

    def __post_init__(self) -> None:
        whole(self.k, "k")
        if whole(self.seed, "seed", least=0) >= 2**64:
            raise ConfigError(f"seed must fit in 64 unsigned bits, got {self.seed}")


def init_centers(dataset: Dataset, config: KMeansConfig) -> np.ndarray:
    """k distinct data points drawn uniformly without replacement by the seeded generator.

    k above n raises ``ConfigError`` by ``core.ideal_load``'s rule.
    """
    ideal_load(dataset.n, config.k)
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
    if not np.isfinite(c).all():
        raise StructuralError("centers must be finite")
    return c


# Distance bounds are padded by this relative margin at every update, far
# above the kernel's relative error of about (dim + 2) * 2**-53; ``lower``
# pads both operands of its subtraction (see the module docstring).
_MARGIN = 1e-9
# Bounds prove an assignment only between these, where the squared
# distances near them neither underflow nor overflow.
_TINY, _HUGE = 1e-150, 1e150


def _own_flat(d2: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Flat (C-order) indices of each point's own-center entry in a (k, m) array of squared distances."""
    m = d2.shape[1]
    return assignment * m + np.arange(m)


def _nearest(d2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Assignment and loads from a (k, n) array of squared distances, by ``lloyd_iteration``'s rules."""
    k = d2.shape[0]
    assignment = np.argmin(d2, axis=0)  # first minimum == lowest cluster index
    loads = np.bincount(assignment, minlength=k)
    empties = np.flatnonzero(loads == 0)
    if empties.size:
        own_d2 = d2.take(_own_flat(d2, assignment))
    for empty in empties:
        donors = np.flatnonzero(loads[assignment] >= 2)  # never empty: k <= n (``_as_centers``)
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
    one is moved in, ties to the lowest point index.  It is the first step
    of ``lloyd_full``, which is always a full step, so the rule is coded
    once.
    """
    return lloyd_full(dataset, centers, 1)[0]


def _bounds(d2: np.ndarray, assignment: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distance bounds from a (k, m) array of squared distances and the m points' clusters.

    Returns (upper, lower): the distance to the assigned center raised to
    at least ``_TINY``, and the distance to the nearest other center capped
    at ``_HUGE``.  So ``upper < lower`` holds only inside the safe range,
    and the cap keeps a lower bound finite where a squared distance
    overflowed.  Overwrites the assigned entries of ``d2``.
    """
    own = _own_flat(d2, assignment)
    upper = np.maximum(np.sqrt(d2.take(own)), _TINY)
    d2.put(own, np.inf)
    return upper, np.minimum(np.sqrt(d2.min(axis=0)), _HUGE)


def lloyd_full(
    dataset: Dataset, centers: Sequence[Sequence[float]], max_iterations: int
) -> Tuple[Clustering, int]:
    """Iterate Lloyd steps until the means equal their centers or the budget runs out.

    Returns the final clustering and the number of iterations performed.
    A fixed-point input stops after one step, an unchanged assignment one
    step later.  The first step assigns every point; the distance bounds
    are allocated once a second step follows, and from then on only
    decide which points need their distances computed, so each step gives
    what a full step would from the same centers (see the module
    docstring).
    """
    max_iterations = whole(max_iterations, "max_iterations")
    current = _as_centers(dataset, centers)
    columns = dataset.points.T.copy()  # each dimension contiguous, for the kernel and the means
    points = columns.T
    k, n = current.shape[0], dataset.n
    stale = range(n)  # no bounds yet: the first step assigns every point
    iterations = 0
    while True:
        if len(stale) < n:
            d2 = squared_distances(current, columns.take(stale, axis=1).T)
            nearest = np.argmin(d2, axis=0)
            assignment[stale] = nearest
            loads = np.bincount(assignment, minlength=k)
        if len(stale) == n or not loads.all():
            # the repair reads every point's distance to its own center
            stale = slice(None)
            d2 = squared_distances(current, points)
            assignment, loads = _nearest(d2)
            nearest = assignment
        means = mean_centers(points, assignment, loads)
        iterations += 1
        if iterations == max_iterations or np.array_equal(means, current):
            break
        if iterations == 1:  # the first step was full, so it sets every bound
            upper, lower = np.empty((2, n))
        upper[stale], lower[stale] = _bounds(d2, nearest)
        drift = np.hypot.reduce(means - current, axis=1, initial=0.0)
        upper += drift[assignment]
        upper *= 1 + _MARGIN
        # pad both operands: a difference of two nearly equal distances
        # carries their rounding, which a pad on the difference can miss
        lower *= 1 - _MARGIN
        lower -= drift.max() * (1 + _MARGIN)
        current = means
        stale = (~(upper < lower)).nonzero()[0]  # "not <": NaN bounds are rechecked
    return Clustering(assignment=assignment, k=k, centers=means, loads=loads), iterations
