"""Local normal-form games that rebalance cluster loads.

Clusters below the ideal load are players; clusters above it are
resources holding spare units (whole data points).  Each player requests
units from its nearest resource.  A resource whose spare units cover the
requests routed to it serves each of them in full.  When a resource
cannot cover them, the competing players play a one-shot game: a
strategy is the number of requested units a player forgoes, so the full
strategy set for a request r is {0, ..., r-1} and a player never forgoes
everything.  Strategy selection with granularity ns keeps only the
multiples of ns plus the largest strategy, which is the same as
transferring points in sub-groups of the ns nearest units and shrinks
payoff tensors multiplicatively.

Payoffs are costs (lower is better).  For participant i under a joint
strategy, the cost is the geometric mean of two losses: the absolute SSE
change over the clusters touched by the rivals' transfers, and the
distance of i's own resulting load from the ideal.

Transfers are simulated in ascending player id against the input
clustering's centers, and the input is never modified: each player takes
the resource points nearest its center that no earlier player took, ties
to the lowest point index.  One kernel codes that rule: ``_nearest_first``
orders the resource's points for each player, and ``_first_free`` takes
the first points of that order still free in each of many states at
once.  ``build_payoff_tensor`` runs it over a whole frontier of joint
strategy prefixes per level, and ``apply_and_evaluate`` over the one
state it executes.

The game phase decides each resource's transfers once, in a plan of
resource id -> (player id, units) pairs: covered requests in full, or a
game's equilibrium (``LocalGame.transfers``).  ``apply_and_evaluate``
executes a plan, taking resources in ascending id and keeping a
resource's transfers only when they lower the combined score of both
objectives relative to the pre-game state.  It scores each candidate on
plain arrays with ``core``'s rules (``mean_centers``, ``assigned_sse``,
``load_metric``) and builds one ``Clustering``, for the state it keeps.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .core import (
    Clustering,
    Dataset,
    ObjectiveState,
    Rational,
    assigned_sse,
    ideal_load,
    load_metric,
    mean_centers,
    squared_distances,
)
from .errors import ConfigError, InconsistentStateError, StructuralError, TensorTooLargeError

PURE_NASH = "pure-nash"
FALLBACK_MIN_SOCIAL_COST = "fallback-min-social-cost"

# Largest payoff tensor a game may ask for, in bytes: 8 per cost and 1 per
# feasibility flag, for each joint.
MAX_TENSOR_BYTES = 256 * 2**20

# The tensor build expands at most this many children at once, so its
# working memory does not grow with the joint count.
_BLOCK = 1024


@dataclass(frozen=True)
class RoleAssignment:
    """Players (deficit clusters with their requests) and resources (surplus clusters with their spare units)."""

    players: Tuple[Tuple[int, int], ...]
    resources: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class Participant:
    """One player inside a local game: cluster id, requested units, strategy set."""

    player_id: int
    request: int
    strategies: Tuple[int, ...]

    def __post_init__(self) -> None:
        s = self.strategies
        if self.request < 1:
            raise ConfigError(f"request must be >= 1, got {self.request}")
        if not s or list(s) != sorted(set(s)):
            raise ConfigError("strategy set must be nonempty, sorted and duplicate-free")
        if s[0] != 0 or s[-1] != self.request - 1:
            raise ConfigError(
                f"strategy set must span 0..request-1 at its ends, got {s} for request {self.request}"
            )


@dataclass(frozen=True)
class LocalGame:
    """One conflicted resource and the players competing for its units."""

    resource_id: int
    resource_load: int
    participants: Tuple[Participant, ...]

    def __post_init__(self) -> None:
        if not self.participants:
            raise ConfigError("a local game needs at least one participant")
        if self.resource_load < 1:
            raise ConfigError(f"resource load must be >= 1, got {self.resource_load}")

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(len(p.strategies) for p in self.participants)

    def transfers(self, joint: Sequence[int]) -> List[Tuple[int, int]]:
        """(player id, units moved) per participant at ``joint``, indices into the strategy sets.

        A participant moves its request minus the units its strategy forgoes.
        """
        if len(joint) != len(self.participants):
            raise ConfigError(f"joint {tuple(joint)} does not match {len(self.participants)} participants")
        return [(p.player_id, p.request - p.strategies[si]) for p, si in zip(self.participants, joint)]


@dataclass(frozen=True)
class PayoffTensor:
    """Per-participant costs over the joint strategy space of one local game.

    ``costs`` has one trailing axis of length n_participants; ``feasible``
    marks joints whose transfers fit the resource.  Infeasible joints
    carry a sentinel cost strictly above every feasible entry.
    """

    costs: np.ndarray
    feasible: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.costs, dtype=np.float64)
        f = np.asarray(self.feasible, dtype=bool)
        if c.ndim < 2 or c.shape[:-1] != f.shape:
            raise StructuralError("costs must have shape (*joint_shape, n_participants)")
        # two reductions, no temporary per cost; NaN fails the first comparison
        if not (c.min(initial=0.0) >= 0 and np.isfinite(c.max(initial=0.0))):
            raise StructuralError("costs must be finite and nonnegative")
        c.flags.writeable = False
        f.flags.writeable = False
        object.__setattr__(self, "costs", c)
        object.__setattr__(self, "feasible", f)

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(self.costs.shape[:-1])

    @property
    def n_participants(self) -> int:
        return int(self.costs.shape[-1])

    @property
    def joint_count(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64))


@dataclass(frozen=True)
class EquilibriumResult:
    """Selected joint strategy (as indices into each strategy set) and how it was found."""

    joint: Tuple[int, ...]
    kind: str
    costs: Tuple[float, ...]


def classify_roles(clustering: Clustering, ideal: Rational) -> RoleAssignment:
    """Split clusters into players (load below ideal) and resources (load above it).

    Requests round up and spare units round down, so transfers stay whole
    points and the split biases toward reaching balance.  Clusters at the
    ideal load are neither.  With ideal = p/q, every test and rounding is
    done exactly in integers on q * load - p.
    """
    ideal_f = Fraction(ideal)
    p, q = ideal_f.numerator, ideal_f.denominator
    players: List[Tuple[int, int]] = []
    resources: List[Tuple[int, int]] = []
    for cid, load in enumerate(clustering.loads.tolist()):
        excess = q * load - p  # q * (load - ideal), exact in integers
        if excess < 0:
            players.append((cid, (q - 1 - excess) // q))
        elif excess > 0:
            resources.append((cid, excess // q))
    return RoleAssignment(players=tuple(players), resources=tuple(resources))


def route_requests(roles: RoleAssignment, clustering: Clustering) -> Dict[int, List[Tuple[int, int]]]:
    """Send each player's request to the resource with the nearest center.

    Ties go to the lowest resource cluster id.  Raises if players exist
    without any resource, which cannot happen for a consistent clustering.
    """
    if roles.players and not roles.resources:
        raise InconsistentStateError("players exist but there is no resource to request from")
    routing: Dict[int, List[Tuple[int, int]]] = {rid: [] for rid, _ in roles.resources}
    if not roles.players:
        return routing
    resource_ids = np.array([rid for rid, _ in roles.resources], dtype=np.int64)
    player_ids = np.array([pid for pid, _ in roles.players], dtype=np.int64)
    d2 = squared_distances(clustering.centers[player_ids], clustering.centers[resource_ids])
    nearest = resource_ids[d2.argmin(axis=1)].tolist()  # first minimum == lowest resource id
    for (pid, request), rid in zip(roles.players, nearest):
        routing[rid].append((pid, request))
    return routing


def detect_conflict(resource_overhead: int, requests: Sequence[int]) -> bool:
    """True when the requested units exceed the resource's spare units."""
    return sum(int(r) for r in requests) > int(resource_overhead)


def generate_strategy_set(request: int) -> Tuple[int, ...]:
    """Full strategy set {0, ..., request-1}: units of the request a player may forgo."""
    if request < 1:
        raise ConfigError(f"request must be >= 1, got {request}")
    return tuple(range(request))


def select_strategies(full: Sequence[int], ns: int) -> Tuple[int, ...]:
    """Keep the multiples of ns plus the largest strategy.

    Equivalent to moving points in sub-groups of ns nearest units; the
    largest strategy is always kept so the smallest possible transfer
    stays available.
    """
    if ns < 1:
        raise ConfigError(f"ns must be >= 1, got {ns}")
    values = sorted(set(int(v) for v in full))
    if not values or values[0] != 0:
        raise ConfigError("strategy set must contain 0")
    kept = {v for v in values if v % ns == 0}
    kept.add(values[-1])
    return tuple(sorted(kept))


def conflicted_games(
    clustering: Clustering,
    roles: RoleAssignment,
    routing: Dict[int, List[Tuple[int, int]]],
    ns: Optional[int] = None,
) -> List[LocalGame]:
    """One local game per conflicted resource, in ascending resource id.

    Participants are ordered by ascending player id; strategy sets are
    pruned with ``select_strategies`` when ns is given.  Resources whose
    spare units cover all routed requests produce no game.
    """
    overhead = dict(roles.resources)
    games: List[LocalGame] = []
    for rid in sorted(routing):
        routed = sorted(routing[rid])
        if not routed:
            continue
        if not detect_conflict(overhead[rid], [req for _, req in routed]):
            continue
        participants = []
        for pid, request in routed:
            strategies = generate_strategy_set(request)
            if ns is not None:
                strategies = select_strategies(strategies, ns)
            participants.append(Participant(player_id=pid, request=request, strategies=strategies))
        games.append(
            LocalGame(
                resource_id=rid,
                resource_load=int(clustering.loads[rid]),
                participants=tuple(participants),
            )
        )
    return games


def _nearest_first(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each center's order over ``points``, nearest first: an (n_centers, m) array of positions.

    Positions are ordered by (squared distance, position), so ties go to
    the lowest point index when ``points`` are in ascending index order.
    """
    return squared_distances(centers, points).argsort(axis=-1, kind="stable")


def _first_free(taken: np.ndarray, order: np.ndarray, count: int, most_taken: int) -> np.ndarray:
    """The first ``count`` positions of ``order`` that each row of ``taken`` leaves free.

    ``taken`` is (rows, m), one row of taken flags per state, and no row
    has more than ``most_taken`` points taken; ``count`` is at most m.
    Returns a (rows, count) array of positions.  A row with fewer than
    ``count`` free points is padded with taken ones, which only a
    transfer that would empty the resource could reach.
    """
    window = order[: count + most_taken]  # every row has ``count`` free entries here, or all of its free ones
    # a stable sort puts each row's free entries first, in the order's order
    return window.take(taken.take(window, axis=1).argsort(axis=1, kind="stable")[:, :count])


def _square_sum(v: np.ndarray) -> np.ndarray:
    """Sum of squares over the last axis, added one dimension at a time."""
    total = v[..., 0] * v[..., 0]
    for d in range(1, v.shape[-1]):
        total = total + v[..., d] * v[..., d]
    return total


def build_payoff_tensor(dataset: Dataset, clustering: Clustering, game: LocalGame) -> PayoffTensor:
    """Evaluate every joint strategy of a local game.

    Raises ``TensorTooLargeError`` before allocating anything when the
    tensor (8 bytes per cost and 1 per feasibility flag, for each joint)
    would exceed ``MAX_TENSOR_BYTES``.  A one-player game has no rival,
    so every cost is 0 and only the resource's ``load - 1`` cap decides
    feasibility.

    Other games are built breadth-first, one participant per level, over
    a frontier of feasible prefixes; a prefix that already overdraws the
    resource gets no children, so infeasible sub-blocks are skipped
    wholesale.  A frontier row holds which resource points are taken and,
    packed in one float row, the running sum, sum of squares and count of
    the resource and of each participant, and the strategy index of each
    participant already placed.  A level takes each row's first free
    points in the participant's nearest-first order (``_first_free``),
    accumulates them point by point, and keeps the (row, strategy)
    children that leave the resource at least one point.  A level
    expands at most ``_BLOCK`` children at once (or one prefix, when a
    participant has more strategies), so working memory does not grow
    with the joint count.

    Cluster SSEs come from the running sums (SSE = sum of squares -
    squared sum / n), and every joint's floats are formed in one fixed
    order: points added nearest first, squares added one dimension at a
    time, and the after-SSEs of the resource and then each participant
    summed in turn.  Infeasible joints get a sentinel cost of 1 + the
    maximum feasible cost.
    """
    parts = game.participants
    sizes = tuple(len(p.strategies) for p in parts)
    n_p = len(parts)
    joint_count = math.prod(sizes)
    tensor_bytes = joint_count * (8 * n_p + 1)
    if tensor_bytes > MAX_TENSOR_BYTES:
        raise TensorTooLargeError(
            f"the game on resource {game.resource_id} has {joint_count} joints for {n_p} players: "
            f"a {tensor_bytes}-byte payoff tensor, above the limit of {MAX_TENSOR_BYTES}"
        )
    loads = clustering.loads.tolist()
    rid = game.resource_id
    m = loads[rid]
    transfer = np.array([p.request - v for p in parts for v in p.strategies])  # each at least 1
    if n_p == 1:
        feasible = transfer < m
        return PayoffTensor(costs=np.where(feasible, 0.0, 1.0)[:, None], feasible=feasible)

    # [sum, sum of squares, count] of the resource, then of each participant,
    # over each cluster's points in ascending index order
    dim = dataset.dim
    width = dim + 2
    pids = [p.player_id for p in parts]
    base: List[float] = []
    before: List[float] = []
    members = {cid: dataset.points[clustering.members(cid)] for cid in (rid, *pids)}
    for cid, points in members.items():
        s = points.sum(axis=0).tolist()
        q = float((points * points).sum())
        base += [*s, q, loads[cid]]
        before.append(q - sum(v * v for v in s) / loads[cid])
    before_total = before[0] + sum(before[1:])
    before_rest = before_total - np.array(before[1:])
    # own-balance term |load + request - v - ideal|, exact in integers over ideal = num/den
    ideal = ideal_load(dataset.n, clustering.k)
    num, den = ideal.numerator, ideal.denominator
    balance = np.array(
        [abs(den * (loads[p.player_id] + p.request - v) - num) / den for p in parts for v in p.strategies]
    )

    x = members[rid]
    orders = _nearest_first(x, clustering.centers.take(pids, axis=0))
    # per resource point: coordinates, squared norm and a count of 1
    xq = np.empty((m, width))
    xq[:, :dim] = x
    xq[:, dim] = _square_sum(x)
    xq[:, dim + 1] = 1.0
    # per level: the participant's transfers and the index of each one's
    # running sum, how many nearest free points it may take (no feasible
    # transfer is larger) and their ranks, and the most points taken before it
    offsets = [0, *itertools.accumulate(sizes)]
    counts = [min(p.request, m - 1) for p in parts]
    taken_before = [min(m - 1, prior) for prior in itertools.accumulate([0, *counts[:-1]])]
    sum_index = transfer - 1
    levels = [
        (transfer[lo:hi], sum_index[lo:hi], count, np.arange(count), most_taken)
        for lo, hi, count, most_taken in zip(offsets, offsets[1:], counts, taken_before)
    ]
    starts = np.array(offsets[:-1])
    strides = np.array([joint_count // prefix for prefix in itertools.accumulate(sizes, operator.mul)])

    # frontier row: ``width`` statistics columns for the resource and for each
    # participant, then one strategy index per participant
    s_col = (n_p + 1) * width
    costs = np.zeros((joint_count, n_p))
    feasible = np.zeros(joint_count, dtype=bool)

    def expand(j: int, rows: np.ndarray, taken: np.ndarray) -> None:
        tv, tv_index, count, ranks, most_taken = levels[j]
        step = max(1, _BLOCK // len(tv))
        for lo in range(0, len(rows), step):
            block, block_taken = rows[lo: lo + step], taken[lo: lo + step]
            pos = _first_free(block_taken, orders[j], count, most_taken)
            r, si = (tv < block[:, dim + 1, None]).nonzero()  # the children that leave a point
            k = tv_index.take(si)
            moved = xq.take(pos, axis=0).cumsum(axis=1)[r, k]
            child = block.take(r, axis=0)
            child[:, :width] -= moved
            child[:, (j + 1) * width: (j + 2) * width] += moved
            child[:, s_col + j] = si
            if j + 1 < n_p:
                child_taken = block_taken.take(r, axis=0)
                new = ranks <= k[:, None]
                child_taken[new.nonzero()[0], pos.take(r, axis=0)[new]] = True
                expand(j + 1, child, child_taken)
                continue
            stats = child[:, :s_col].reshape(len(child), n_p + 1, width)
            after = stats[..., dim] - _square_sum(stats[..., :dim]) / stats[..., dim + 1]
            after_total = after[:, 0]
            for i in range(1, n_p + 1):
                after_total = after_total + after[:, i]
            dsse = abs((after_total[:, None] - after[:, 1:]) - before_rest)
            joint = child[:, s_col:].astype(np.intp)
            flat = joint @ strides
            costs[flat] = np.sqrt(dsse * balance.take(joint + starts))
            feasible[flat] = True

    root = np.zeros((1, s_col + n_p))
    root[0, :s_col] = base
    expand(0, root, np.zeros((1, m), dtype=bool))

    if not feasible.all():
        costs[~feasible] = costs.max(initial=0.0, where=feasible[:, None]) + 1.0
    return PayoffTensor(costs=costs.reshape(sizes + (n_p,)), feasible=feasible.reshape(sizes))


def find_pure_nash(tensor: PayoffTensor) -> EquilibriumResult:
    """Pure Nash equilibrium of a cost tensor, deterministic under multiplicity.

    Among pure equilibria the one with minimum social cost wins, ties by
    lexicographic joint index.  Without any pure equilibrium the
    minimum-social-cost joint is returned, flagged as a fallback.
    """
    costs = tensor.costs
    sizes = tensor.shape
    n_p = tensor.n_participants
    ne_mask = np.ones(sizes, dtype=bool)
    for i in range(n_p):
        ci = costs[..., i]
        ne_mask &= ci <= ci.min(axis=i, keepdims=True)
    social = costs.sum(axis=-1)
    if ne_mask.any():
        candidate = np.where(ne_mask, social, np.inf)
        flat = int(np.argmin(candidate.reshape(-1)))  # first minimum == lexicographic
        kind = PURE_NASH
    else:
        flat = int(np.argmin(social.reshape(-1)))
        kind = FALLBACK_MIN_SOCIAL_COST
    joint = tuple(int(v) for v in np.unravel_index(flat, sizes))
    return EquilibriumResult(joint=joint, kind=kind, costs=tuple(float(c) for c in costs[joint]))


def apply_and_evaluate(
    dataset: Dataset,
    clustering: Clustering,
    pre: ObjectiveState,
    plan: Mapping[int, Sequence[Tuple[int, int]]],
) -> Tuple[Clustering, bool, ObjectiveState]:
    """Execute each resource's planned transfers on a copy and keep those that pay.

    ``pre`` holds the objectives of ``clustering``, the pre-game state.
    ``plan`` maps a resource id to its transfers, (player id, units)
    pairs: the equilibrium of its local game (``LocalGame.transfers``)
    or its covered requests in full.  They are executed in ascending
    player id and simulated as in ``build_payoff_tensor``: each player
    takes the resource's points nearest its input center that no earlier
    player took.  Resources are taken in ascending id, and one's
    transfers are kept only when they lower SSE/SSE_pre + L/L_pre below
    the score of the transfers already kept, which starts at 2 for the
    pre-game state; so every accepted reallocation scores below 2.  When a
    pre-game term is zero, the new term must stay zero and the other
    objective must not worsen against the transfers already kept.
    Transfers that would empty their resource are dropped.  Returns the
    kept state, whether anything was kept (the input clustering itself is
    returned when not), and the kept state's objectives.

    Each candidate is scored on plain arrays: the kept assignment with
    the resource's transfers applied, the kept loads moved in integers,
    centers from ``mean_centers`` and the two objectives from
    ``assigned_sse`` and ``load_metric``, the calls ``from_assignment``
    and ``objectives`` make, so every bit matches.  One ``Clustering``
    is built at the end, for the kept state only.
    """
    points = dataset.points
    input_loads = clustering.loads.tolist()
    assignment, loads, kept_state = clustering.assignment, clustering.loads, pre
    for rid in sorted(plan):
        moves = sorted(plan[rid])
        total = sum(count for _, count in moves)
        if total == 0 or total > input_loads[rid] - 1:
            continue  # nothing to move, or it would empty the resource
        # Points only leave their own resource, so its members are the same
        # in the kept state as in the input clustering.
        member = clustering.members(rid)
        pids = [pid for pid, _ in moves]
        orders = _nearest_first(points.take(member, axis=0), clustering.centers.take(pids, axis=0))
        taken = np.zeros((1, len(member)), dtype=bool)
        candidate, candidate_loads = assignment.copy(), loads.copy()
        candidate_loads[rid] -= total
        done = 0
        for (pid, count), order in zip(moves, orders):
            chosen = _first_free(taken, order, count, done)[0]
            taken[0, chosen] = True
            candidate[member[chosen]] = pid
            candidate_loads[pid] += count
            done += count
        centers = mean_centers(points, candidate, candidate_loads)
        state = ObjectiveState(
            sse=assigned_sse(points, candidate, centers),
            load_metric=load_metric(candidate_loads, pre.ideal_load),
            ideal_load=pre.ideal_load,
        )
        if _improves(pre, kept_state, state):
            assignment, loads, kept_state = candidate, candidate_loads, state
    if kept_state is pre:
        return clustering, False, pre
    return Clustering.from_assignment(dataset, assignment, clustering.k), True, kept_state


def _improves(pre: ObjectiveState, kept: ObjectiveState, new: ObjectiveState) -> bool:
    """True when ``new`` scores below ``kept`` relative to ``pre``.

    A zero pre-game term stays zero in every kept state, so it is compared
    by convention: the new term must be zero too and the other objective
    must not worsen.
    """
    if pre.sse > 0 and pre.load_metric > 0:
        return new.sse / pre.sse + new.load_metric / pre.load_metric < (
            kept.sse / pre.sse + kept.load_metric / pre.load_metric
        )
    if pre.sse == 0 and pre.load_metric == 0:
        return new.sse == 0 and new.load_metric == 0
    if pre.load_metric == 0:
        return new.load_metric == 0 and new.sse <= kept.sse
    return new.sse == 0 and new.load_metric <= kept.load_metric
