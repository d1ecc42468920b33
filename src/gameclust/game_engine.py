"""Local normal-form games that rebalance cluster loads.

Clusters below the ideal load are players; clusters above it are
resources holding spare units (whole data points).  Each player requests
units from its nearest resource.  A resource whose spare units cover the
requests routed to it serves each of them in full.  When a resource
cannot cover them, the competing players play a one-shot game: a
strategy is the number of requested units a player forgoes, so the full
strategy set for a request r is {0, ..., r-1} and a player never forgoes
everything.  A participant is (player id, r, ns); ``select_strategies``
derives its set once: with granularity ns, the multiples of ns plus the
largest strategy r-1, kept so the smallest transfer stays available.  It
is the same as moving points in sub-groups of the ns nearest units, and
it shrinks payoff tensors multiplicatively.

Payoffs are costs (lower is better).  For participant i under a joint
strategy, the cost is the geometric mean of two losses: the absolute SSE
change over the clusters touched by the rivals' transfers, and the
distance of i's own resulting load from the ideal.

A resource's takers are other clusters, each listed once, taking in
ascending id.  One check owns that rule, ``_check_takers``: every id is a
whole number below k, the takers strictly ascend and none is the
resource, else ``ConfigError`` names the offending id.  The tensor build
checks each game, and ``apply_and_evaluate`` each plan entry, before
indexing anything with its ids; ``route_requests`` checks its roles with
the same id rule.  Transfers are simulated in that order against the
input clustering's centers, and the input is never modified: each taker
takes the resource points nearest its center that no earlier taker took,
ties to the lowest point index.  One kernel codes that rule:
``_read_resource`` reads a resource's members and points and orders them
nearest-first for each taker (``_nearest_first``), and ``_first_free``
takes the first points of that order still free in each of many states
at once.  ``build_payoff_tensor`` runs it over a whole frontier of joint
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

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .core import (
    Clustering,
    Dataset,
    ObjectiveState,
    Rational,
    assigned_sse,
    ideal_load,
    load_excess,
    load_metric,
    mean_centers,
    squared_distances,
    whole,
)
from .errors import ConfigError, StructuralError, TensorTooLargeError

PURE_NASH = "pure-nash"
FALLBACK_MIN_SOCIAL_COST = "fallback-min-social-cost"

# Largest payoff tensor a game may ask for, in bytes: 8 per cost and 1 per
# feasibility flag, for each joint.
MAX_TENSOR_BYTES = 256 * 2**20

# The tensor build expands at most this many children at once, and the Nash
# search sums the social costs of this many candidate joints at once, so
# their working memory does not grow with the joint count.
BLOCK = 1024


@dataclass(frozen=True)
class RoleAssignment:
    """Players (deficit clusters with their requests) and resources (surplus clusters with their spare units)."""

    players: Tuple[Tuple[int, int], ...]
    resources: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class Participant:
    """One player inside a local game: cluster id, requested units, selection granularity ns.

    ``strategies`` is derived once, on construction, as ``select_strategies(request, ns)``.
    """

    player_id: int
    request: int
    ns: Optional[int] = None
    strategies: Tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategies", select_strategies(self.request, self.ns))

    @property
    def moves(self) -> Tuple[int, ...]:
        """Units moved under each strategy, in strategy order: the request minus the units forgone."""
        # from a list the tuple is sized once; grown from a generator, it raised ds1-full's peak RSS by 0.7 MB
        return tuple([self.request - v for v in self.strategies])


@dataclass(frozen=True)
class LocalGame:
    """One conflicted resource and the players competing for its units."""

    resource_id: int
    participants: Tuple[Participant, ...]

    def __post_init__(self) -> None:
        if not self.participants:
            raise ConfigError("a local game needs at least one participant")

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(len(p.strategies) for p in self.participants)

    @property
    def joint_count(self) -> int:
        """Joint strategies of the game: the product of its strategy-set sizes."""
        return math.prod(self.shape)

    def transfers(self, joint: Sequence[int]) -> List[Tuple[int, int]]:
        """(player id, units moved) per participant at ``joint``: its ``moves`` at its strategy index."""
        shape = self.shape
        if len(joint) != len(shape) or not all(0 <= si < size for si, size in zip(joint, shape)):
            raise ConfigError(f"joint {tuple(joint)} does not index the strategy sets, of sizes {shape}")
        return [(p.player_id, p.moves[si]) for p, si in zip(self.participants, joint)]


@dataclass(frozen=True)
class PayoffTensor:
    """Per-participant costs over the joint strategy space of one local game.

    ``costs`` has one axis per participant, over its strategies, and a
    trailing axis of length n_participants; ``feasible`` marks joints
    whose transfers fit the resource.  Infeasible joints carry a sentinel
    cost strictly above every feasible entry.
    """

    costs: np.ndarray
    feasible: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.costs, dtype=np.float64)
        f = np.asarray(self.feasible, dtype=bool)
        if c.ndim < 2 or c.shape[-1] != c.ndim - 1 or c.shape[:-1] != f.shape or c.size == 0:
            raise StructuralError(
                "costs must have shape (*joint_shape, n_participants), one joint axis per participant, none empty"
            )
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
        return math.prod(self.shape)


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
    done exactly in integers on ``load_excess``'s q * load - p.
    """
    players: List[Tuple[int, int]] = []
    resources: List[Tuple[int, int]] = []
    excesses, q = load_excess(clustering.loads, ideal)
    for cid, excess in enumerate(excesses):
        if excess < 0:
            players.append((cid, (q - 1 - excess) // q))
        elif excess > 0:
            resources.append((cid, excess // q))
    return RoleAssignment(players=tuple(players), resources=tuple(resources))


def _cluster_id(value: object, k: int, name: str) -> int:
    """``value`` as a cluster id, a whole number (``core.whole``) below ``k``; else ``ConfigError`` naming it."""
    cid = whole(value, name, least=0)
    if cid >= k:
        raise ConfigError(f"{name} {cid} is not a cluster below k = {k}")
    return cid


def _check_takers(k: int, resource: object, takers: Sequence[object]) -> List[int]:
    """The takers rule: ``takers`` as cluster ids, strictly ascending, none of them ``resource``.

    Every id is read by ``_cluster_id``.  A taker that repeats or breaks
    the ascending order, or that is the resource, raises ``ConfigError``
    naming it.
    """
    rid = _cluster_id(resource, k, "resource id")
    pids: List[int] = []
    for value in takers:
        pid = _cluster_id(value, k, "player id")
        if pid == rid:
            raise ConfigError(f"player {pid} is resource {rid} itself")
        if pids and pid <= pids[-1]:
            raise ConfigError(
                f"resource {rid}'s takers must be listed once, in ascending id: player {pid} follows player {pids[-1]}"
            )
        pids.append(pid)
    return pids


def route_requests(roles: RoleAssignment, clustering: Clustering) -> Dict[int, List[Tuple[int, int]]]:
    """Send each player's request to the resource with the nearest center.

    Ties go to the lowest resource cluster id.  Raises ``ConfigError``,
    naming the id, unless every id is a cluster id (``_cluster_id``)
    listed once across the players and resources, and when players exist
    without any resource, which no consistent clustering's roles have.
    """
    seen = set()
    for name, pairs in (("player id", roles.players), ("resource id", roles.resources)):
        for value, _ in pairs:
            cid = _cluster_id(value, clustering.k, name)
            if cid in seen:
                raise ConfigError(f"cluster {cid} is listed more than once among the players and resources")
            seen.add(cid)
    if roles.players and not roles.resources:
        raise ConfigError("players exist but there is no resource to request from")
    routing: Dict[int, List[Tuple[int, int]]] = {rid: [] for rid, _ in roles.resources}
    if not roles.players:
        return routing
    resource_ids = np.array(sorted(rid for rid, _ in roles.resources), dtype=np.int64)
    player_ids = np.array([pid for pid, _ in roles.players], dtype=np.int64)
    d2 = squared_distances(clustering.centers[player_ids], clustering.centers[resource_ids])
    nearest = resource_ids[d2.argmin(axis=1)].tolist()  # first minimum == lowest resource id
    for (pid, request), rid in zip(roles.players, nearest):
        routing[rid].append((pid, request))
    return routing


def detect_conflict(resource_overhead: int, requests: Sequence[int]) -> bool:
    """True when the requested units exceed the resource's spare units."""
    return sum(whole(r, "request") for r in requests) > whole(resource_overhead, "overhead", least=0)


def select_strategies(request: int, ns: Optional[int] = None) -> Tuple[int, ...]:
    """A request's strategy set: the multiples of ns below ``request``, plus the largest strategy ``request - 1``.

    With ns None every strategy {0, ..., request-1} is kept.  Selection is
    equivalent to moving points in sub-groups of ns nearest units; the
    largest strategy is always kept so the smallest possible transfer
    stays available.  Both counts are read by ``core.whole``.
    """
    request = whole(request, "request")
    kept = list(range(0, request, 1 if ns is None else whole(ns, "ns")))
    if kept[-1] != request - 1:
        kept.append(request - 1)
    return tuple(kept)


def conflicted_games(
    roles: RoleAssignment,
    routing: Dict[int, List[Tuple[int, int]]],
    ns: Optional[int] = None,
) -> List[LocalGame]:
    """One local game per conflicted resource, in ascending resource id.

    Participants are ordered by ascending player id, each built as
    ``Participant(pid, request, ns)``.  Resources whose spare units cover
    all routed requests produce no game.  A game holds no load: the
    clustering it is built and applied against supplies it.
    """
    overhead = dict(roles.resources)
    games: List[LocalGame] = []
    for rid in sorted(routing):
        routed = sorted(routing[rid])
        if not detect_conflict(overhead[rid], [req for _, req in routed]):
            continue
        participants = tuple(Participant(pid, request, ns) for pid, request in routed)
        games.append(LocalGame(resource_id=rid, participants=participants))
    return games


def _read_resource(
    dataset: Dataset, clustering: Clustering, rid: int, pids: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resource ``rid``'s member indices, its points, and each taker's nearest-first order over them.

    The ids are those ``_check_takers`` passed.
    """
    member = clustering.members(rid)
    points = dataset.points.take(member, axis=0)
    return member, points, _nearest_first(points, clustering.centers.take(pids, axis=0))


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


def _sse(sums: np.ndarray) -> np.ndarray:
    """SSE from running sums [sum per dim, sum of squares, count] on the last axis: squares - |sum|^2 / count."""
    dim = sums.shape[-1] - 2
    return sums[..., dim] - _square_sum(sums[..., :dim]) / sums[..., dim + 1]


def build_payoff_tensor(dataset: Dataset, clustering: Clustering, game: LocalGame) -> PayoffTensor:
    """Evaluate every joint strategy of a local game.

    Raises ``ConfigError``, naming the id, when the game's resource and
    players break the takers rule (``_check_takers``): each a cluster of
    ``clustering``, the players other clusters in strictly ascending id.
    Raises ``TensorTooLargeError`` before allocating anything when the
    tensor (8 bytes per cost and 1 per feasibility flag, for each joint)
    would exceed ``MAX_TENSOR_BYTES``.  Nothing else the build allocates
    outlives the call, so the limit bounds all the memory a game keeps
    once built.  The resource's load is read from ``clustering``.  A
    one-player game has no rival, so every cost is 0 and only the
    resource's ``load - 1`` cap decides feasibility.

    Other games are built breadth-first, one participant per level, over
    a frontier of feasible prefixes; a prefix that already overdraws the
    resource gets no children, so infeasible sub-blocks are skipped
    wholesale.  A frontier row holds which resource points are taken and,
    packed in (dim + 2) + 2 n_p + 1 floats, only what later levels read:
    the resource's running sum, sum of squares and count; the after-SSE of
    each participant already placed, final once its level took its points;
    the prefix's flat joint index; and each placed participant's
    own-balance term.  A level takes each row's first free points in the
    participant's nearest-first order (``_first_free``), accumulates them
    point by point, and keeps the (row, strategy) children that leave the
    resource at least one point.  The leaf adds the resource's after-SSE
    and writes each child's costs at its flat index.  A block of at most
    ``BLOCK`` children (or one prefix, when a participant has more
    strategies) is expanded at once, and its children are expanded before
    the rest of its level, so at most one frontier per level waits and
    working memory does not grow with the joint count.

    Beside the tensor, the build holds the resource's m points, each
    participant's nearest-first order over them, and at most n_p frontiers
    of B = max(``BLOCK``, s) rows, s the most strategies a participant
    has: n_p B (8 ((dim + 2) + 2 n_p + 1) + m) bytes.  Expanding one block
    adds the running sums of its rows' first free points and the positions
    of the points its children take: at most 16 (dim + 2) B r + 11 B c
    bytes, c the most points a participant may take and r that per
    strategy it has (1 without selection).  For six players in 2-d over 25
    points the bound is 1.17 MB beside a 40,320-joint tensor of 1.98 MB;
    the build uses 0.83 MB there.

    Each level is formed from its own participant alone, in one pass over
    the participants: its ``Participant.moves`` as transfers, at most
    ``moves[0]`` points to take, the most taken before it from a running
    total, its stride in the flat joint index and its own-balance term
    per strategy.  The size guard reads ``LocalGame.joint_count``.  Every
    cluster SSE comes from running sums by one rule, ``_sse``, and every
    joint's floats are formed in one fixed order: points added nearest
    first, squares added one dimension at a time, and the after-SSEs of
    the resource and then each participant summed in turn.  Infeasible
    joints get a sentinel cost of 1 + the maximum feasible cost.
    """
    parts = game.participants
    rid = game.resource_id
    pids = _check_takers(clustering.k, rid, [p.player_id for p in parts])
    sizes = game.shape
    n_p = len(parts)
    joint_count = game.joint_count
    tensor_bytes = joint_count * (8 * n_p + 1)
    if tensor_bytes > MAX_TENSOR_BYTES:
        raise TensorTooLargeError(
            f"the game on resource {rid} has {joint_count} joints for {n_p} players: "
            f"a {tensor_bytes}-byte payoff tensor, above the limit of {MAX_TENSOR_BYTES}"
        )
    loads = clustering.loads.tolist()
    m = loads[rid]
    if n_p == 1:
        feasible = np.array(parts[0].moves) < m
        return PayoffTensor(costs=np.where(feasible, 0.0, 1.0)[:, None], feasible=feasible)

    # [sum per dim, sum of squares, count] of the resource, then of each
    # participant, over each cluster's points in ascending index order
    dim = dataset.dim
    width = dim + 2
    _, x, orders = _read_resource(dataset, clustering, rid, pids)
    clusters = [(rid, x)] + [(pid, dataset.points[clustering.members(pid)]) for pid in pids]
    sums = np.array([[*pts.sum(axis=0).tolist(), float((pts * pts).sum()), loads[cid]] for cid, pts in clusters])
    before = _sse(sums)
    before_total = before[0] + sum(before[1:])
    before_rest = before_total - before[1:]
    # own-balance term |load + units moved - ideal|, exact in integers: the
    # player's excess plus den units per point moved, over den
    excesses, den = load_excess(clustering.loads, ideal_load(dataset.n, clustering.k))

    # per resource point: coordinates, squared norm and a count of 1
    xq = np.empty((m, width))
    xq[:, :dim] = x
    xq[:, dim] = _square_sum(x)
    xq[:, dim + 1] = 1.0
    # per level: the participant's transfers and the index of each one's
    # running sum, how many nearest free points it may take (no feasible
    # transfer is larger) and their ranks, the most points taken before it,
    # its own running sums before any transfer, its stride in the flat joint
    # index, and its own-balance term per strategy
    levels = []
    prior, stride = 0, joint_count
    for p, own in zip(parts, sums[1:]):
        moves = p.moves
        transfer = np.array(moves)  # each at least 1
        count = min(moves[0], m - 1)
        stride //= len(moves)
        balance = np.array([abs(excesses[p.player_id] + den * v) / den for v in moves])
        levels.append((transfer, transfer - 1, count, np.arange(count), min(m - 1, prior), own, stride, balance))
        prior += count

    # frontier row: the resource's running sums (``width`` columns), the
    # after-SSE of each participant placed, the prefix's flat joint index
    # (exact in a float: the size guard keeps joint counts far below 2**53),
    # and the own-balance term of each participant placed
    a_col = width
    f_col = a_col + n_p
    b_col = f_col + 1
    costs = np.zeros((joint_count, n_p))
    feasible = np.zeros(joint_count, dtype=bool)

    root = np.zeros((1, b_col + n_p))
    root[0, :width] = sums[0]
    # blocks of frontier rows still to expand, (level, rows, taken), deepest last:
    # a block's children are expanded before the rest of its level
    pending = [(0, root, np.zeros((1, m), dtype=bool))]
    while pending:
        j, rows, taken = pending.pop()
        tv, tv_index, count, ranks, most_taken, own, stride, own_balance = levels[j]
        step = max(1, BLOCK // len(tv))
        if len(rows) > step:
            pending.append((j, rows[step:], taken[step:]))
        block, block_taken = rows[:step], taken[:step]
        pos = _first_free(block_taken, orders[j], count, most_taken)
        r, si = (tv < block[:, dim + 1, None]).nonzero()  # the children that leave a point
        k = tv_index.take(si)
        moved = xq.take(pos, axis=0).cumsum(axis=1)[r, k]
        child = block.take(r, axis=0)
        child[:, :width] -= moved
        child[:, a_col + j] = _sse(own + moved)
        child[:, f_col] += si * stride
        child[:, b_col + j] = own_balance.take(si)
        if j + 1 < n_p:
            if len(child):
                child_taken = block_taken.take(r, axis=0)
                # each child takes the first k + 1 of its row's free points
                child_taken[np.arange(len(r))[:, None], pos.take(r, axis=0)] |= ranks <= k[:, None]
                pending.append((j + 1, child, child_taken))
            continue
        # the resource's after-SSE, then each participant's, summed in turn
        after_total = _sse(child[:, :width])
        for i in range(a_col, f_col):
            after_total = after_total + child[:, i]
        dsse = abs((after_total[:, None] - child[:, a_col:f_col]) - before_rest)
        flat = child[:, f_col].astype(np.intp)
        costs[flat] = np.sqrt(dsse * child[:, b_col:])
        feasible[flat] = True

    if not feasible.all():
        costs[~feasible] = costs.max(initial=0.0, where=feasible[:, None]) + 1.0
    return PayoffTensor(costs=costs.reshape(sizes + (n_p,)), feasible=feasible.reshape(sizes))


def find_pure_nash(tensor: PayoffTensor) -> EquilibriumResult:
    """Pure Nash equilibrium of a cost tensor, deterministic under multiplicity.

    One pick codes "minimum social cost, ties by lexicographic joint
    index".  It runs over the pure equilibria or, when there is none,
    over every joint, and that result is flagged as a fallback.

    Beside the tensor the search keeps one equilibrium flag per joint,
    started from the first participant's best-response test, and one
    more per joint while it tests each later participant: 2 bytes per
    joint.  The pick keeps the flat index of each equilibrium, or of
    every joint for the fallback, 8 bytes each, and sums their social
    costs ``BLOCK`` at a time, reading the tensor in any memory order.
    """
    costs = tensor.costs
    sizes = tensor.shape
    n_p = tensor.n_participants
    ne_mask = costs[..., 0] <= costs[..., 0].min(axis=0, keepdims=True)
    for i in range(1, n_p):
        ci = costs[..., i]
        ne_mask &= ci <= ci.min(axis=i, keepdims=True)
    ne = np.flatnonzero(ne_mask)
    del ne_mask  # the fallback's joint indices need not sit beside it
    kind = PURE_NASH if ne.size else FALLBACK_MIN_SOCIAL_COST
    candidates = ne if ne.size else np.arange(tensor.joint_count)
    # only a strictly lower social cost replaces the pick, so among equal
    # minima the first, in lexicographic order, wins
    best = math.inf
    for lo in range(0, candidates.size, BLOCK):
        block = candidates[lo : lo + BLOCK]
        social = costs[np.unravel_index(block, sizes)].sum(axis=-1)
        i = int(np.argmin(social))
        if social[i] < best:
            best, flat = social[i], int(block[i])
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
    or its covered requests in full.  Each entry, sorted, must obey the
    takers rule (``_check_takers``) and move whole units, at least 1
    (``core.whole``), else ``ConfigError`` names the offending id or count
    before anything is indexed with it.  The transfers are
    executed in ascending player id and simulated as in
    ``build_payoff_tensor``: each player takes the resource's points
    nearest its input center that no earlier player took.  Resources are
    taken in ascending id, and one's
    transfers are kept only when they lower the ``score`` relative to
    ``pre``, SSE/SSE_pre + L/L_pre, below the score of the transfers
    already kept, which starts at 2 for the pre-game state; so every
    accepted reallocation scores below 2.  When a pre-game term is zero,
    the new term must stay zero and the other objective must not worsen
    against the transfers already kept.
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
    ideal = ideal_load(dataset.n, clustering.k)
    input_loads = clustering.loads.tolist()
    assignment, loads, kept_state = clustering.assignment, clustering.loads, pre
    for rid in sorted(plan):
        moves = sorted(plan[rid])
        pids = _check_takers(clustering.k, rid, [pid for pid, _ in moves])
        counts = [whole(count, "units") for _, count in moves]
        total = sum(counts)
        if total == 0 or total > input_loads[rid] - 1:
            continue  # nothing to move, or it would empty the resource
        # Points only leave their own resource, so its members are the same
        # in the kept state as in the input clustering.
        member, _, orders = _read_resource(dataset, clustering, rid, pids)
        taken = np.zeros((1, len(member)), dtype=bool)
        candidate, candidate_loads = assignment.copy(), loads.copy()
        candidate_loads[rid] -= total
        done = 0
        for pid, count, order in zip(pids, counts, orders):
            chosen = _first_free(taken, order, count, done)[0]
            taken[0, chosen] = True
            candidate[member[chosen]] = pid
            candidate_loads[pid] += count
            done += count
        centers = mean_centers(points, candidate, candidate_loads)
        state = ObjectiveState(assigned_sse(points, candidate, centers), load_metric(candidate_loads, ideal))
        if _improves(pre, kept_state, state):
            assignment, loads, kept_state = candidate, candidate_loads, state
    if kept_state is pre:
        return clustering, False, pre
    return Clustering.from_assignment(dataset, assignment, clustering.k), True, kept_state


def _improves(pre: ObjectiveState, kept: ObjectiveState, new: ObjectiveState) -> bool:
    """True when ``new`` scores below ``kept`` relative to ``pre``.

    A zero pre-game term stays zero in every kept state, so it is compared
    by convention: the new term must be zero too and the other objective
    must not worsen.  Both zero is the zero-L case, as ``kept.sse`` is 0.
    """
    if pre.sse > 0 and pre.load_metric > 0:
        return new.score(pre) < kept.score(pre)
    if pre.load_metric == 0:
        return new.load_metric == 0 and new.sse <= kept.sse
    return new.sse == 0 and new.load_metric <= kept.load_metric
