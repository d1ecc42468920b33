"""Independent reference implementations used to pin expected values.

Everything here is deliberately written straight-line over plain Python
lists, without reusing any engine code paths, so tests can compare the
engine against genuinely independent computations.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def sse_with_centers(points, assignment, centers):
    """SSE of an assignment against arbitrary centers (not necessarily means)."""
    total = 0.0
    for p, a in zip(points, assignment):
        total += sum((x - c) ** 2 for x, c in zip(p, centers[a]))
    return total


def cluster_mean(points, assignment, cluster_id):
    members = [p for p, a in zip(points, assignment) if a == cluster_id]
    dim = len(points[0])
    return [sum(m[j] for m in members) / len(members) for j in range(dim)]


def cluster_sse(points, assignment, cluster_id):
    members = [p for p, a in zip(points, assignment) if a == cluster_id]
    center = cluster_mean(points, assignment, cluster_id)
    return sum(sum((x - c) ** 2 for x, c in zip(m, center)) for m in members)


def simulate_transfers(points, assignment, resource_id, moves):
    """Reference simulation of (player_id, count) moves out of one resource.

    Moves apply in order; each takes the points still in the resource
    that are nearest to the player's center in the *input* assignment,
    ties to the lowest point index.  Returns the new assignment list, or
    None when a move would empty the resource.
    """
    n = len(points)
    assign = list(assignment)

    def dist2(i, center):
        return sum((x - c) ** 2 for x, c in zip(points[i], center))

    for pid, count in moves:
        center = cluster_mean(points, assignment, pid)
        pool = [i for i in range(n) if assign[i] == resource_id]
        if count > len(pool) - 1:
            return None
        chosen = sorted(pool, key=lambda i: (dist2(i, center), i))[:count]
        for i in chosen:
            assign[i] = pid
    return assign


def payoff_costs(points, assignment, k, resource_id, participants, joint):
    """Reference payoff evaluation for one joint strategy.

    ``participants`` is a list of (player_id, request, strategies).
    Returns the per-participant cost list, or None when the implied
    transfers would empty the resource.  Transfers apply in participant
    order, as in ``simulate_transfers``.
    """
    ideal = Fraction(len(points), k)
    involved = [resource_id] + [pid for pid, _, _ in participants]
    before = {c: cluster_sse(points, assignment, c) for c in involved}
    moves = [
        (pid, request - strategies[si])
        for (pid, request, strategies), si in zip(participants, joint)
    ]
    assign = simulate_transfers(points, assignment, resource_id, moves)
    if assign is None:
        return None

    after = {c: cluster_sse(points, assign, c) for c in involved}
    costs = []
    for i, (pid, request, strategies) in enumerate(participants):
        if len(participants) >= 2:
            touched = [resource_id] + [
                q for j, (q, _, _) in enumerate(participants) if j != i
            ]
            dsse = abs(sum(after[c] for c in touched) - sum(before[c] for c in touched))
        else:
            dsse = 0.0
        load_after = sum(1 for a in assign if a == pid)
        balance = float(abs(Fraction(load_after) - ideal))
        costs.append(math.sqrt(dsse * balance))
    return costs


def payoff_table(points, assignment, k, resource_id, participants):
    """Reference payoff for every joint strategy; infeasible joints get None."""
    shape = [len(s) for _, _, s in participants]
    table = {}
    for joint in itertools.product(*(range(s) for s in shape)):
        table[joint] = payoff_costs(points, assignment, k, resource_id, participants, joint)
    return table


def pure_nash_set(costs):
    """All pure Nash equilibria of a cost tensor, by exhaustive deviation checks.

    ``costs`` maps a joint tuple to a per-participant cost sequence
    (a numpy array indexed [joint + (i,)] works too via the helper below).
    """
    joints = list(costs.keys())
    n_p = len(joints[0])
    sizes = [max(j[i] for j in joints) + 1 for i in range(n_p)]
    equilibria = []
    for joint in joints:
        is_ne = True
        for i in range(n_p):
            mine = costs[joint][i]
            for alt in range(sizes[i]):
                if alt == joint[i]:
                    continue
                deviated = joint[:i] + (alt,) + joint[i + 1 :]
                if costs[deviated][i] < mine:
                    is_ne = False
                    break
            if not is_ne:
                break
        if is_ne:
            equilibria.append(joint)
    return equilibria


def tensor_as_dict(costs_array):
    """Adapt an ndarray of shape (*sizes, P) to the dict form pure_nash_set expects."""
    sizes = costs_array.shape[:-1]
    return {
        joint: [float(costs_array[joint + (i,)]) for i in range(costs_array.shape[-1])]
        for joint in itertools.product(*(range(s) for s in sizes))
    }
