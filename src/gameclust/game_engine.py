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
to the lowest point index.  One kernel codes that rule
(``_nearest_first`` orders the resource's points, ``_take_free`` takes
the first free ones), for the payoff tensor and for applied transfers
alike.

Each resource's transfers (its equilibrium, or its covered requests) are
kept or dropped on their own: ``apply_and_evaluate`` takes resources in
ascending id and keeps a resource's transfers only when they lower the
combined score of both objectives relative to the pre-game state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .core import Clustering, Dataset, ObjectiveState, Rational, ideal_load, objectives
from .errors import ConfigError, InconsistentStateError, StructuralError

PURE_NASH = "pure-nash"
FALLBACK_MIN_SOCIAL_COST = "fallback-min-social-cost"


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
        if not np.all(np.isfinite(c)) or c.min(initial=0.0) < 0:
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
    ideal load are neither.
    """
    ideal_f = Fraction(ideal)
    players: List[Tuple[int, int]] = []
    resources: List[Tuple[int, int]] = []
    for cid, load in enumerate(clustering.loads):
        load_f = Fraction(int(load))
        if load_f < ideal_f:
            players.append((cid, int(math.ceil(ideal_f - load_f))))
        elif load_f > ideal_f:
            resources.append((cid, int(math.floor(load_f - ideal_f))))
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
    resource_centers = clustering.centers[resource_ids]
    for pid, request in roles.players:
        d2 = ((resource_centers - clustering.centers[pid]) ** 2).sum(axis=1)
        nearest = int(resource_ids[np.argmin(d2)])  # first minimum == lowest resource id
        routing[nearest].append((pid, request))
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


def _nearest_first(dataset: Dataset, clustering: Clustering, member: np.ndarray, player_id: int) -> List[int]:
    """Positions into ``member`` ordered by (distance to the player's center, point index)."""
    d2 = ((dataset.points[member] - clustering.centers[player_id]) ** 2).sum(axis=1)
    return np.lexsort((member, d2)).tolist()


def _take_free(order: Sequence[int], taken: List[bool], count: int) -> List[int]:
    """The first ``count`` positions of ``order`` not yet taken, now marked taken."""
    chosen: List[int] = []
    if count > 0:
        for pos in order:
            if not taken[pos]:
                taken[pos] = True
                chosen.append(pos)
                if len(chosen) == count:
                    break
    return chosen


def build_payoff_tensor(dataset: Dataset, clustering: Clustering, game: LocalGame) -> PayoffTensor:
    """Evaluate every joint strategy of a local game.

    Enumerates joints depth-first so that infeasible sub-blocks (where a
    prefix of transfers already overdraws the resource) are skipped
    wholesale.  Cluster SSEs are maintained incrementally through
    per-cluster running sums (SSE = sum of squares - squared sum / n),
    in plain Python floats to keep the per-joint cost tiny.  Infeasible
    joints get a sentinel cost of 1 + the maximum feasible cost.
    """
    pts = dataset.points
    ideal = ideal_load(dataset.n, clustering.k)
    rid = game.resource_id
    parts = game.participants
    n_p = len(parts)
    sizes = game.shape
    cap = int(clustering.loads[rid]) - 1
    dim = dataset.dim

    member = clustering.members(rid)
    orders = [_nearest_first(dataset, clustering, member, p.player_id) for p in parts]
    x_rows = [tuple(float(v) for v in row) for row in pts[member]]
    x_sq = [sum(v * v for v in row) for row in x_rows]

    def stats(cluster_id: int) -> Tuple[List[float], float, int]:
        m = clustering.members(cluster_id)
        p = pts[m]
        return [float(v) for v in p.sum(axis=0)], float((p * p).sum()), int(m.size)

    def sse_of(s: Sequence[float], q: float, n: int) -> float:
        return q - sum(v * v for v in s) / n

    base_r = stats(rid)
    base_p = [stats(p.player_id) for p in parts]
    before_p = [sse_of(*b) for b in base_p]
    before_total = sse_of(*base_r) + sum(before_p)

    # per participant: own-balance term and transfer size, per strategy
    balance = [
        [float(abs(Fraction(int(clustering.loads[p.player_id]) + p.request - v) - ideal)) for v in p.strategies]
        for p in parts
    ]
    transfer = [[p.request - v for v in p.strategies] for p in parts]

    joint_count = 1
    for s in sizes:
        joint_count *= s
    costs_flat = np.zeros(joint_count * n_p, dtype=np.float64)
    feasible_flat = np.zeros(joint_count, dtype=bool)
    strides = [0] * n_p
    acc = 1
    for j in range(n_p - 1, -1, -1):
        strides[j] = acc
        acc *= sizes[j]

    taken = [False] * len(member)
    p_after: List[Tuple[List[float], float, int]] = [([], 0.0, 0)] * n_p
    own_balance = [0.0] * n_p

    def descend(j: int, total: int, flat: int, r_s: List[float], r_q: float, r_n: int) -> None:
        if j == n_p:
            after_total = r_q - sum(v * v for v in r_s) / r_n
            after_each = []
            for s, q, n in p_after:
                a = q - sum(v * v for v in s) / n
                after_each.append(a)
                after_total += a
            feasible_flat[flat] = True
            if n_p >= 2:
                base = flat * n_p
                for i in range(n_p):
                    dsse = (after_total - after_each[i]) - (before_total - before_p[i])
                    if dsse < 0.0:
                        dsse = -dsse
                    costs_flat[base + i] = math.sqrt(dsse * own_balance[i])
            return
        order = orders[j]
        stride = strides[j]
        base_s, base_q, base_n = base_p[j]
        for si in range(len(parts[j].strategies)):
            t = transfer[j][si]
            new_total = total + t
            if new_total > cap:
                continue  # this branch (and only it) stays infeasible
            chosen = _take_free(order, taken, t)
            d_s = [0.0] * dim
            d_q = 0.0
            for pos in chosen:
                row = x_rows[pos]
                for dd in range(dim):
                    d_s[dd] += row[dd]
                d_q += x_sq[pos]
            p_after[j] = ([base_s[dd] + d_s[dd] for dd in range(dim)], base_q + d_q, base_n + t)
            own_balance[j] = balance[j][si]
            descend(
                j + 1, new_total, flat + si * stride,
                [r_s[dd] - d_s[dd] for dd in range(dim)], r_q - d_q, r_n - t,
            )
            for pos in chosen:
                taken[pos] = False

    descend(0, 0, 0, list(base_r[0]), base_r[1], base_r[2])

    costs = costs_flat.reshape(sizes + (n_p,))
    feasible = feasible_flat.reshape(sizes)
    if not feasible.all():
        max_feasible = float(costs[feasible].max()) if feasible.any() else 0.0
        costs[~feasible] = max_feasible + 1.0
    return PayoffTensor(costs=costs, feasible=feasible)


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
    games: Sequence[Tuple[LocalGame, EquilibriumResult]],
    covered: Optional[Mapping[int, Sequence[Tuple[int, int]]]] = None,
) -> Tuple[Clustering, bool, ObjectiveState]:
    """Execute each resource's transfers on a copy and keep those that pay.

    ``pre`` holds the objectives of ``clustering``, the pre-game state.
    A resource's transfers are the equilibrium of its local game or, for a
    resource in ``covered`` (resource id -> routed (player id, request)
    pairs that its spare units cover), every routed request in full, in
    ascending player id.  They are simulated as in ``build_payoff_tensor``:
    each player takes the resource's points nearest its input center that
    no earlier player took.  Resources are taken in ascending id, and one's
    transfers are kept only when they lower SSE/SSE_pre + L/L_pre below
    the score of the transfers already kept, which starts at 2 for the
    pre-game state; so every accepted reallocation scores below 2.  When a
    pre-game term is zero, the new term must stay zero and the other
    objective must not worsen against the transfers already kept.
    Transfers that would empty their resource are dropped.  Returns the
    kept state, whether anything was kept (the input clustering itself is
    returned when not), and the kept state's objectives.
    """
    transfers: Dict[int, List[Tuple[int, int]]] = {}
    for game, eq in games:
        if len(eq.joint) != len(game.participants):
            raise ConfigError("equilibrium joint does not match game participants")
        transfers[game.resource_id] = [
            (p.player_id, p.request - p.strategies[si]) for p, si in zip(game.participants, eq.joint)
        ]
    for rid, routed in (covered or {}).items():
        if rid in transfers:
            raise ConfigError(f"resource {rid} is both covered and in a game")
        transfers[rid] = sorted(routed)
    kept, kept_state = clustering, pre
    for rid in sorted(transfers):
        total = sum(count for _, count in transfers[rid])
        if total == 0 or total > clustering.loads[rid] - 1:
            continue  # nothing to move, or it would empty the resource
        # Points only leave their own resource, so its members are the same
        # in the kept state as in the input clustering.
        member = clustering.members(rid)
        taken = [False] * len(member)
        assignment = kept.assignment.copy()
        for pid, count in transfers[rid]:
            if count > 0:
                chosen = _take_free(_nearest_first(dataset, clustering, member, pid), taken, count)
                assignment[member[chosen]] = pid
        candidate = Clustering.from_assignment(dataset, assignment, clustering.k)
        state = objectives(dataset, candidate, pre.ideal_load)
        if _improves(pre, kept_state, state):
            kept, kept_state = candidate, state
    return kept, kept is not clustering, kept_state


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
