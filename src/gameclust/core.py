"""Core data types and the two clustering objectives.

Compaction is measured by SSE, the sum of squared Euclidean distances
from each point to its assigned cluster center.  Balance is measured by
the load metric, the sum of squared deviations of cluster loads from
the ideal load n/k.  The ideal load is an exact rational, worked out
from (n, k) where it is used; every balance rule reads it through
``load_excess``, in integers, and ``ObjectiveState.score`` is the one
rule that weighs both objectives together.

All types are immutable values after construction and every operation
here is a pure function, so they can be evaluated from multiple threads
without coordination.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigError, StructuralError

Rational = Union[int, Fraction]


def whole(value: object, name: str, least: int = 1) -> int:
    """The one rule for a count argument: ``value`` as an int of at least ``least``, else ``ConfigError``.

    Whole means accepted by ``operator.index`` and not a bool: numpy integers
    are, floats (even 3.0) and ``True`` are not.
    """
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if number < least:
        raise ConfigError(f"{name} must be >= {least}, got {number}")
    return number


@dataclass(frozen=True)
class Dataset:
    """n points in d-dimensional Euclidean space; immutable once built."""

    points: np.ndarray

    def __post_init__(self) -> None:
        try:
            pts = np.array(self.points, dtype=np.float64)
        except (TypeError, ValueError) as exc:  # ragged rows, or entries that are not numbers
            raise StructuralError(f"points must be a 2-d array of numbers: {exc}") from None
        if pts.ndim != 2:
            raise StructuralError(f"points must be a 2-d array, got ndim={pts.ndim}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise StructuralError(f"need at least one point and one dimension, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise StructuralError("points must be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])


def _counted(assignment: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The one rule for labels: ``assignment`` as 1-d int64 labels in [0, k), and each cluster's count.

    Anything else raises ``StructuralError``; float labels are refused,
    not truncated.  The largest label is tested before counting, so a huge
    one never sizes the count array, and ``bincount`` refuses a negative one.
    """
    if assignment.ndim != 1:
        raise StructuralError("assignment must be 1-d")
    if assignment.dtype.kind not in "iu":  # signed or unsigned integers
        raise StructuralError(f"assignment labels must be integers, got dtype {assignment.dtype}")
    a = assignment.astype(np.int64, copy=False)
    if a.size and a.max() >= k:
        raise StructuralError("assignment values must lie in [0, k)")
    try:
        counts = np.bincount(a, minlength=k)
    except ValueError:  # a negative label
        raise StructuralError("assignment values must lie in [0, k)") from None
    return a, counts


@dataclass(frozen=True)
class Clustering:
    """A full assignment of points to k clusters.

    ``centers[c]`` is the mean of cluster c's points and ``loads[c]`` their
    count.  The constructor owns what a clustering is: ``k`` is whole
    (``whole``, else ``ConfigError``), the assignment is 1-d integer
    labels in [0, k), ``centers`` has shape (k, dim), and ``loads`` are
    integers equal to ``bincount(assignment)``; anything else raises
    ``StructuralError``, a miscounted cluster named ("cluster 0 holds 4
    points, but its load is 5").  An empty cluster and centers that are
    not the means stay constructible; ``from_assignment`` computes the
    means and rejects an empty cluster: every algorithm in this package
    keeps all k clusters populated.
    """

    assignment: np.ndarray
    k: int
    centers: np.ndarray
    loads: np.ndarray

    def __post_init__(self) -> None:
        k = whole(self.k, "k")
        a, counts = _counted(np.array(self.assignment), k)  # a copy: the clustering owns its labels
        c = np.array(self.centers, dtype=np.float64)
        l = np.asarray(self.loads)
        if c.ndim != 2 or c.shape[0] != k:
            raise StructuralError("centers must have shape (k, dim)")
        if l.shape != (k,):
            raise StructuralError("loads must have shape (k,)")
        if l.dtype.kind not in "iu":
            raise StructuralError(f"loads must be integers, got dtype {l.dtype}")
        if l.tolist() != counts.tolist():
            cid = int(np.flatnonzero(l != counts)[0])
            raise StructuralError(f"cluster {cid} holds {counts[cid]} points, but its load is {l[cid]}")
        for arr in (a, c, counts):
            arr.flags.writeable = False
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "loads", counts)

    @staticmethod
    def from_assignment(dataset: Dataset, assignment: Sequence[int], k: int) -> "Clustering":
        """Build a clustering from labels (``_counted``'s rule), with mean centers; an empty cluster raises."""
        a = np.asarray(assignment)
        if a.shape != (dataset.n,):
            raise StructuralError(f"assignment length {a.shape} does not match n={dataset.n}")
        k = whole(k, "k")
        a, loads = _counted(a, k)
        if not loads.all():
            raise StructuralError(f"cluster {int(np.flatnonzero(loads == 0)[0])} is empty")
        return Clustering(assignment=a, k=k, centers=mean_centers(dataset.points, a, loads), loads=loads)

    def members(self, cluster_id: int) -> np.ndarray:
        """Indices of the points assigned to ``cluster_id``, ascending."""
        return (self.assignment == cluster_id).nonzero()[0]


@dataclass(frozen=True)
class ObjectiveState:
    """Both objectives of one clustering; ``score`` weighs them together against a reference state."""

    sse: float
    load_metric: float

    def score(self, reference: "ObjectiveState") -> float:
        """The combined score SSE/SSE_ref + L/L_ref: the one test of which of two states is better.

        A term over a zero reference is 0 when the term is 0 and +inf
        otherwise (nan included): an objective that is zero in the
        reference must stay zero, and no term mixes data units with a ratio.
        """
        terms = ((self.sse, reference.sse), (self.load_metric, reference.load_metric))
        return sum(v / r if r > 0 else (0.0 if v == 0 else math.inf) for v, r in terms)


@dataclass(frozen=True)
class ImprovementReport:
    """Percent improvement of a final clustering over an initial one.

    Positive means the objective got smaller.  A value is None when the
    initial objective is zero and the final one is not, which leaves the
    percentage undefined.
    """

    sse_improvement_pct: Optional[float]
    l_improvement_pct: Optional[float]


def ideal_load(n: int, k: int) -> Fraction:
    """Exact ideal per-cluster load n/k.

    Kept as a rational on purpose: truncating here would distort the
    load metric and the player/resource split downstream.  ``n`` and
    ``k`` are whole numbers (``whole``) with 1 <= k <= n, else
    ``ConfigError``.
    """
    n = whole(n, "n")
    if whole(k, "k") > n:
        raise ConfigError(f"need 1 <= k <= n, got k={k}, n={n}")
    return Fraction(n, k)


def _check_consistent(dataset: Dataset, clustering: Clustering) -> None:
    """The one dataset/clustering check: ``clustering`` covers ``dataset``'s n points in its dim, else ``StructuralError``."""
    if clustering.assignment.shape[0] != dataset.n:
        raise StructuralError(
            f"clustering covers {clustering.assignment.shape[0]} points, dataset has {dataset.n}"
        )
    if clustering.centers.shape[1] != dataset.dim:
        raise StructuralError(
            f"centers have dim {clustering.centers.shape[1]}, dataset has dim {dataset.dim}"
        )


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` and of ``b``: a (len(a), len(b)) array.

    The squares are added one dimension at a time, in dimension order,
    into one output array, with one scratch array for each dimension's
    differences; no (len(a), len(b), dim) temporary is built.  Up to 7
    dimensions this is bit-identical to ``((a[:, None] - b[None]) ** 2).sum(-1)``;
    from 8 on numpy's ``sum`` adds 8-way unrolled, so the last bits of
    that form can differ from this one.
    """
    out = np.subtract.outer(a[:, 0], b[:, 0])
    np.multiply(out, out, out=out)
    scratch = np.empty_like(out)
    for d in range(1, a.shape[1]):
        np.subtract.outer(a[:, d], b[:, d], out=scratch)
        np.multiply(scratch, scratch, out=scratch)
        out += scratch
    return out


def mean_centers(points: np.ndarray, assignment: np.ndarray, loads: np.ndarray) -> np.ndarray:
    """The mean of each cluster's points, one weighted ``bincount`` per dimension.

    ``loads`` must be ``bincount(assignment)`` with no zero entry.  The
    sums run in point order, so a given assignment always gives the same
    bits.
    """
    k = loads.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    for d in range(points.shape[1]):
        centers[:, d] = np.bincount(assignment, weights=points[:, d], minlength=k) / loads
    return centers


def assigned_sse(points: np.ndarray, assignment: np.ndarray, centers: np.ndarray) -> float:
    """SSE of ``points`` against ``centers[assignment]``, on plain arrays.

    The one SSE rule: ``objectives`` reads it through a ``Clustering``,
    and ``apply_and_evaluate`` scores its candidate states with it directly.
    """
    diff = points - centers.take(assignment, axis=0)
    diff *= diff
    return float(diff.sum())


def load_excess(loads: Sequence[int], ideal: Rational) -> Tuple[List[int], int]:
    """Each load's excess over the ideal p/q, scaled to an exact integer: ([q*l - p], q).

    The one rule for a load's distance from the ideal: q*l - p is
    q * (l - ideal), so its sign, its rounding to whole units and its
    square are all exact in integers.  The ideal is a ``Fraction`` or an
    int (``whole``), at least 0, and the loads are integer counts, at
    least 0; anything else raises ``ConfigError``.
    """
    if not isinstance(ideal, Fraction):
        ideal = Fraction(whole(ideal, "ideal load", least=0))
    elif ideal < 0:
        raise ConfigError(f"ideal load must be >= 0, got {ideal}")
    array = np.asarray(loads)
    if array.ndim != 1 or array.dtype.kind not in "iu":  # floats are refused, not truncated
        raise ConfigError(f"loads must be a 1-d sequence of integers, got {loads!r}")
    counts = array.tolist()
    if counts and min(counts) < 0:
        raise ConfigError(f"loads must be >= 0, got {counts}")
    p, q = ideal.numerator, ideal.denominator
    return [q * l - p for l in counts], q


def load_metric(loads: Sequence[int], ideal: Rational) -> float:
    """Sum of squared deviations of cluster loads from the ideal load.

    Evaluated exactly as sum((q*l - p)^2) / q^2 in integers, from
    ``load_excess``, and rounded once by the final division.
    """
    if len(loads) == 0:
        raise ConfigError("loads must be nonempty")
    excesses, q = load_excess(loads, ideal)
    return sum(e * e for e in excesses) / (q * q)


def objectives(dataset: Dataset, clustering: Clustering) -> ObjectiveState:
    """The one evaluation of a clustering: its SSE and its load metric against the ideal load n/k.

    Raises ``StructuralError`` when ``clustering`` is not one of
    ``dataset`` (``_check_consistent``), and when the SSE is not finite,
    which happens when the data's scale overflows the squared distances:
    no balancer can compare states whose SSE is inf or nan.
    """
    _check_consistent(dataset, clustering)
    total = assigned_sse(dataset.points, clustering.assignment, clustering.centers)
    if not math.isfinite(total):
        raise StructuralError("results are not finite (inf or nan): the data's scale overflows the objectives")
    ideal = ideal_load(dataset.n, clustering.k)
    return ObjectiveState(sse=total, load_metric=load_metric(clustering.loads, ideal))


def improvement_report(initial: ObjectiveState, final: ObjectiveState) -> ImprovementReport:
    """Improvements of ``final`` over ``initial`` for both objectives.

    Each is 100 * (initial - final) / initial, positive when the objective
    got smaller.  Where 100 * (initial - final) overflows, the ratio is
    taken first, so finite objectives always give a finite percentage.
    A zero initial objective yields 0.0 when the final one is also zero
    (nothing to improve) and None otherwise (undefined percentage).
    """

    def one(a: float, b: float) -> Optional[float]:
        if a > 0:
            pct = 100.0 * (a - b) / a
            return pct if math.isfinite(pct) else 100.0 * ((a - b) / a)
        return 0.0 if b == 0 else None

    return ImprovementReport(
        sse_improvement_pct=one(initial.sse, final.sse),
        l_improvement_pct=one(initial.load_metric, final.load_metric),
    )
