"""Independent reference implementations used to pin expected values.

Everything here is deliberately written straight-line over plain Python
lists, without reusing any engine code paths, so tests can compare the
engine against genuinely independent computations.  The depth-first
payoff tensor, the broadcast distance form and the stepwise Lloyd loop
call numpy only for the sums and distances whose floats the engine must
reproduce bit for bit; the per-candidate apply builds each candidate
through the library's ``Clustering.from_assignment`` and ``objectives``,
which define the floats the engine's array-level scoring must match.
Each engine has one end-to-end reference, ``run_gtkmeans_reference``
and ``run_pkgame_reference``.  Both compose the oracles here, score each
post-Lloyd state with ``objectives`` as ``apply_per_candidate`` scores
its candidates, write their stop rules out, and use the library's public
types only to hold the report; no oracle imports a private library name.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import time

import numpy as np

from gameclust import (
    FALLBACK_MIN_SOCIAL_COST,
    PURE_NASH,
    Clustering,
    EquilibriumResult,
    GameRecord,
    IterationRecord,
    LocalGame,
    Participant,
    RunReport,
    improvement_report,
    objectives,
)


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


def squared_distances_broadcast(a, b):
    """Pairwise squared distances through one (len(a), len(b), dim) temporary, summed by numpy.

    Below 8 dimensions numpy adds the last axis one dimension at a time,
    in order, which the engine's per-dimension kernel must match bit for bit.
    """
    return ((np.asarray(a)[:, None, :] - np.asarray(b)[None, :, :]) ** 2).sum(axis=-1)


def roles_fraction(loads, ideal):
    """(players, resources) from Fraction arithmetic, one Fraction per cluster.

    A cluster below the ideal is a player requesting ceil(ideal - load)
    units; one above it is a resource sparing floor(load - ideal).
    """
    ideal = Fraction(ideal)
    players, resources = [], []
    for cid, load in enumerate(loads):
        load = Fraction(load)
        if load < ideal:
            players.append((cid, math.ceil(ideal - load)))
        elif load > ideal:
            resources.append((cid, math.floor(load - ideal)))
    return tuple(players), tuple(resources)


def balanced_fraction(loads, ideal):
    """True when every load lies within one unit of the ideal, in Fraction arithmetic."""
    return all(abs(Fraction(load) - Fraction(ideal)) < 1 for load in loads)


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
    sizes = [max(column) + 1 for column in zip(*joints)]
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


def pure_nash_pick(costs):
    """The equilibrium the engine must select, by brute force: (joint, kind, costs).

    Among ``pure_nash_set`` the minimum social cost wins, ties to the
    lexicographically first joint.  Without a pure equilibrium the same
    rule runs over every joint, flagged as the fallback.  ``costs`` is the
    dict form ``pure_nash_set`` takes; social cost is summed in Python, so
    it matches numpy's only where the sums are exact (integer costs).
    """
    equilibria = pure_nash_set(costs)
    kind = PURE_NASH if equilibria else FALLBACK_MIN_SOCIAL_COST
    joint = min(equilibria or costs, key=lambda j: (sum(costs[j]), j))
    return joint, kind, tuple(costs[joint])


def tensor_as_dict(costs_array):
    """Adapt an ndarray of shape (*sizes, P) to the dict form pure_nash_set expects."""
    sizes = costs_array.shape[:-1]
    rows = costs_array.reshape(-1, costs_array.shape[-1]).tolist()  # C order: the order product walks
    return dict(zip(itertools.product(*(range(s) for s in sizes)), rows))


def payoff_tensor_dfs(points, assignment, centers, resource_id, participants):
    """Reference payoff tensor: the depth-first build, one joint at a time.

    ``points`` is an (n, dim) float array, ``assignment`` the cluster id of
    each point, ``centers`` the (k, dim) cluster centers the players take
    their nearest points by, ``participants`` a list of (player_id,
    request, strategies).
    Returns (costs, feasible) with the shapes of ``PayoffTensor``.  Every
    float is computed in the order the engine must reproduce bit for bit:
    cluster sums with numpy's ``sum(axis=0)`` and ``(p * p).sum()``, squares
    added one dimension at a time, transfers accumulated point by point
    nearest first, and each leaf's SSE totals summed in participant order.
    """
    pts = np.asarray(points, dtype=np.float64)
    assign = np.asarray(assignment)
    ideal = Fraction(len(pts), len(centers))
    n_p = len(participants)
    sizes = tuple(len(s) for _, _, s in participants)
    member = np.flatnonzero(assign == resource_id)
    cap = int(member.size) - 1
    dim = pts.shape[1]

    def nearest_first(pid):
        d2 = ((pts[member] - np.asarray(centers)[pid]) ** 2).sum(axis=1)
        return np.lexsort((member, d2)).tolist()

    def stats(cluster_id):
        p = pts[assign == cluster_id]
        return [float(v) for v in p.sum(axis=0)], float((p * p).sum()), int(p.shape[0])

    def sse_of(s, q, n):
        return q - sum(v * v for v in s) / n

    orders = [nearest_first(pid) for pid, _, _ in participants]
    x_rows = [tuple(float(v) for v in row) for row in pts[member]]
    x_sq = [sum(v * v for v in row) for row in x_rows]
    base_r = stats(resource_id)
    base_p = [stats(pid) for pid, _, _ in participants]
    before_p = [sse_of(*b) for b in base_p]
    before_total = sse_of(*base_r) + sum(before_p)
    balance = [
        [float(abs(Fraction(int(np.count_nonzero(assign == pid)) + request - v) - ideal)) for v in strategies]
        for pid, request, strategies in participants
    ]
    transfer = [[request - v for v in strategies] for _, request, strategies in participants]

    costs = np.zeros(sizes + (n_p,))
    feasible = np.zeros(sizes, dtype=bool)
    taken = [False] * len(member)
    after_p = [0.0] * n_p  # each participant's SSE after its transfer
    own_balance = [0.0] * n_p
    joint = [0] * n_p

    def descend(j, total, r_s, r_q, r_n):
        if j == n_p:
            after_total = sse_of(r_s, r_q, r_n)
            for a in after_p:
                after_total += a
            feasible[tuple(joint)] = True
            if n_p >= 2:
                costs[tuple(joint)] = [
                    math.sqrt(abs((after_total - after_p[i]) - (before_total - before_p[i])) * own_balance[i])
                    for i in range(n_p)
                ]
            return
        base_s, base_q, base_n = base_p[j]
        for si, t in enumerate(transfer[j]):
            if total + t > cap:
                continue
            chosen = []
            for pos in orders[j]:
                if len(chosen) == t:
                    break
                if not taken[pos]:
                    taken[pos] = True
                    chosen.append(pos)
            d_s = [0.0] * dim
            d_q = 0.0
            for pos in chosen:
                for dd in range(dim):
                    d_s[dd] += x_rows[pos][dd]
                d_q += x_sq[pos]
            after_p[j] = sse_of([base_s[dd] + d_s[dd] for dd in range(dim)], base_q + d_q, base_n + t)
            own_balance[j] = balance[j][si]
            joint[j] = si
            descend(j + 1, total + t, [r_s[dd] - d_s[dd] for dd in range(dim)], r_q - d_q, r_n - t)
            for pos in chosen:
                taken[pos] = False

    descend(0, 0, list(base_r[0]), base_r[1], base_r[2])
    if not feasible.all():
        costs[~feasible] = (float(costs[feasible].max()) if feasible.any() else 0.0) + 1.0
    return costs, feasible


def lloyd_full_stepwise(points, centers, max_iterations):
    """Reference Lloyd run: every step assigns every point, with no bounds.

    Each step builds the (n, k) squared distances one dimension at a time,
    in dimension order (the floats the engine's kernel must reproduce),
    assigns each point to its first nearest center, repairs empty clusters
    (ascending id: the farthest point from its own center among clusters
    that can spare one, ties to the lowest point index) and recomputes the
    means with one weighted ``bincount`` per dimension.  It stops when the
    assignment repeats, when the means equal the centers they came from,
    or after ``max_iterations`` steps.
    Returns (assignment, centers, loads, iterations).
    """
    pts = np.asarray(points, dtype=np.float64)
    current = np.asarray(centers, dtype=np.float64)
    n, dim = pts.shape
    k = current.shape[0]
    previous = None
    iterations = 0
    while True:
        d2 = np.zeros((n, k))
        for d in range(dim):
            diff = pts[:, d, None] - current[None, :, d]
            d2 += diff * diff
        assignment = d2.argmin(axis=1).tolist()  # first minimum == lowest center index
        loads = [assignment.count(c) for c in range(k)]
        for empty in range(k):
            if loads[empty]:
                continue
            move = None
            for i in range(n):
                if loads[assignment[i]] >= 2 and (move is None or d2[i, assignment[i]] > d2[move, assignment[move]]):
                    move = i
            if move is None:
                raise ValueError("no cluster can spare a point")
            loads[assignment[move]] -= 1
            assignment[move] = empty
            loads[empty] += 1
        a = np.asarray(assignment, dtype=np.int64)
        means = np.empty((k, dim))
        for d in range(dim):
            means[:, d] = np.bincount(a, weights=pts[:, d], minlength=k) / np.asarray(loads)
        iterations += 1
        if iterations == max_iterations or assignment == previous or np.array_equal(means, current):
            return a, means, np.asarray(loads, dtype=np.int64), iterations
        previous = assignment
        current = means


def apply_per_candidate(dataset, clustering, pre, plan):
    """Reference ``apply_and_evaluate``: one full ``Clustering`` and one ``objectives`` per candidate.

    Resources are taken in ascending id.  A resource's moves run in
    ascending player id; each takes the resource's points nearest the
    player's input center (broadcast distances, ties to the lowest point
    index) that no earlier move took.  Moves that would empty the
    resource, or move nothing, are skipped.  The candidate is the kept
    state with those moves applied; it is kept when it scores below the
    kept state: SSE/SSE_pre + L/L_pre when both pre-game terms are
    positive, otherwise a zero pre-game term must stay zero and the
    other objective must not worsen.  Returns (kept clustering, whether
    anything was kept, kept objectives); the input clustering itself
    when nothing was kept.
    """
    kept, kept_state = clustering, pre

    def better(new):
        if pre.sse > 0 and pre.load_metric > 0:
            return new.sse / pre.sse + new.load_metric / pre.load_metric < (
                kept_state.sse / pre.sse + kept_state.load_metric / pre.load_metric
            )
        if pre.sse == 0 and pre.load_metric == 0:
            return new.sse == 0 and new.load_metric == 0
        if pre.load_metric == 0:
            return new.load_metric == 0 and new.sse <= kept_state.sse
        return new.sse == 0 and new.load_metric <= kept_state.load_metric

    input_assignment = clustering.assignment.tolist()
    for rid in sorted(plan):
        moves = sorted(plan[rid])
        total = sum(count for _, count in moves)
        member = [i for i, a in enumerate(input_assignment) if a == rid]
        if total == 0 or total > len(member) - 1:
            continue
        d2 = squared_distances_broadcast(clustering.centers[[pid for pid, _ in moves]], dataset.points[member])
        assignment = kept.assignment.tolist()
        taken = set()
        for (pid, count), row in zip(moves, d2):
            order = sorted(range(len(member)), key=lambda j: (row[j], j))
            for j in [j for j in order if j not in taken][:count]:
                taken.add(j)
                assignment[member[j]] = pid
        candidate = Clustering.from_assignment(dataset, assignment, clustering.k)
        state = objectives(dataset, candidate)
        if better(state):
            kept, kept_state = candidate, state
    return kept, kept is not clustering, kept_state


def game_phase_reference(dataset, clustering, pre, index, ns):
    """Reference game phase of one iteration: (end clustering, end objectives, record).

    Balance and roles in Fraction arithmetic; each player routed to the
    resource whose center is nearest its own (broadcast distances, ties to
    the lowest resource id); a game for each resource whose spare units
    cannot cover its requests, its participants in ascending player id with
    the multiples of ns plus the largest strategy; the depth-first tensor
    and the brute-force pick; and the per-candidate apply of the plan.
    """
    points, assignment, centers = dataset.points, clustering.assignment, clustering.centers
    loads = clustering.loads.tolist()
    ideal = Fraction(dataset.n, clustering.k)
    games = []
    end_clustering, accepted, end = clustering, False, pre
    if not balanced_fraction(loads, ideal):
        players, resources = roles_fraction(loads, ideal)
        plan = {rid: [] for rid, _ in resources}
        d2 = squared_distances_broadcast(centers[[pid for pid, _ in players]], centers[[rid for rid, _ in resources]])
        for (pid, request), row in zip(players, d2):
            plan[resources[int(np.argmin(row))][0]].append((pid, request))
        for rid, spare in resources:
            routed = sorted(plan[rid])
            if sum(request for _, request in routed) <= spare:
                continue
            participants = []
            for pid, request in routed:
                strategies = [v for v in range(request) if ns is None or v % ns == 0]
                if strategies[-1] != request - 1:
                    strategies.append(request - 1)
                participants.append((pid, request, tuple(strategies)))
            costs, feasible = payoff_tensor_dfs(points, assignment, centers, rid, participants)
            joint, kind, joint_costs = pure_nash_pick(tensor_as_dict(costs))
            plan[rid] = [(pid, request - kept[si]) for (pid, request, kept), si in zip(participants, joint)]
            games.append(
                GameRecord(
                    LocalGame(rid, tuple(Participant(*p) for p in participants)),
                    EquilibriumResult(joint, kind, joint_costs),
                    np.count_nonzero(feasible) / feasible.size,
                )
            )
        end_clustering, accepted, end = apply_per_candidate(dataset, clustering, pre, plan)
    score = None
    if accepted and pre.sse > 0 and pre.load_metric > 0:
        score = end.sse / pre.sse + end.load_metric / pre.load_metric
    record = IterationRecord(
        index=index,
        sse_before_games=pre.sse,
        l_before_games=pre.load_metric,
        games=tuple(games),
        accepted=accepted,
        reallocation_score=score,
        sse_end=end.sse,
        l_end=end.load_metric,
        loads_end=tuple(end_clustering.loads.tolist()),
    )
    return end_clustering, end, record


def seeded_start(dataset, config):
    """The k distinct start points that the run's seeded generator draws."""
    return dataset.points[np.random.default_rng(config.seed).choice(dataset.n, size=config.k, replace=False)]


def run_gtkmeans_reference(dataset, config):
    """Reference gtkmeans run, end to end, from the oracles above.

    Centers start at ``seeded_start``.  Each iteration runs one
    ``lloyd_full_stepwise`` step from the previous end state's centers
    and then ``game_phase_reference``.  The stop rules:

    * a post-Lloyd assignment that an earlier iteration, ``first``, had
      after its Lloyd step stops the run before its games.  It is
      converged when ``first`` is the last iteration and kept nothing, a
      cycle otherwise; the final state is the end state from ``first`` on
      with the least SSE/SSE0 + L/L0 against the first iteration's
      objectives (a zero initial term unscaled), ties to the earliest;
    * an iteration that kept nothing, after a Lloyd step that left the
      previous end state's assignment unchanged, is converged;
    * otherwise the run stops on its budget of outer iterations.

    ``kmeans_iterations`` counts the Lloyd steps run.
    """

    def ratio(value, reference):
        return value / reference if reference > 0 else value

    t0 = time.perf_counter()
    pts = dataset.points
    centers = seeded_start(dataset, config)
    trace, ends, seen = [], [], {}
    initial = clustering = final = None
    termination = "budget"
    for it in range(1, config.max_outer_iterations + 1):
        assignment, means, loads, _ = lloyd_full_stepwise(pts, centers, 1)
        post_lloyd = tuple(assignment.tolist())
        if post_lloyd in seen:
            first = seen[post_lloyd]
            termination = "converged" if first == len(ends) - 1 and not trace[first].accepted else "cycle"
            scores = [ratio(e.sse, initial.sse) + ratio(e.load_metric, initial.load_metric) for _, e in ends]
            best = min(range(first, len(ends)), key=lambda i: scores[i])
            clustering, final = ends[best]
            break
        clustering = Clustering(assignment=assignment, k=config.k, centers=means, loads=loads)
        pre = objectives(dataset, clustering)
        if initial is None:
            initial = pre
        lloyd_stable = bool(ends) and post_lloyd == tuple(ends[-1][0].assignment.tolist())
        clustering, final, record = game_phase_reference(dataset, clustering, pre, it, config.ns)
        trace.append(record)
        ends.append((clustering, final))
        if lloyd_stable and not record.accepted:
            termination = "converged"
            break
        seen[post_lloyd] = len(ends) - 1
        centers = clustering.centers
    return RunReport(
        config=config,
        initial=initial,
        final=final,
        improvement=improvement_report(initial, final),
        kmeans_iterations=it,
        termination=termination,
        wall_time_s=time.perf_counter() - t0,
        trace=tuple(trace),
        final_clustering=clustering,
    )


def run_pkgame_reference(dataset, config):
    """Reference pkgame run, end to end, from the oracles above.

    From the seeded start, one ``lloyd_full_stepwise`` step gives the
    initial objectives.  A budget above one spends the rest of it on a
    second stepwise loop from that step's means, so such a run takes at
    least two steps.  The run is converged when one more step from the
    final means leaves the final assignment unchanged, and ends on its
    budget otherwise.  One ``game_phase_reference`` follows, iteration 1.
    """

    def clustering_of(assignment, means, loads):
        return Clustering(assignment=assignment, k=config.k, centers=means, loads=loads)

    t0 = time.perf_counter()
    pts = dataset.points
    assignment, means, loads, _ = lloyd_full_stepwise(pts, seeded_start(dataset, config), 1)
    initial = objectives(dataset, clustering_of(assignment, means, loads))
    kmeans_iterations = 1
    if config.max_outer_iterations > 1:
        assignment, means, loads, steps = lloyd_full_stepwise(pts, means, config.max_outer_iterations - 1)
        kmeans_iterations += steps
    next_assignment = lloyd_full_stepwise(pts, means, 1)[0]
    termination = "converged" if np.array_equal(next_assignment, assignment) else "budget"
    clustering = clustering_of(assignment, means, loads)
    clustering, final, record = game_phase_reference(dataset, clustering, objectives(dataset, clustering), 1, config.ns)
    return RunReport(
        config=config,
        initial=initial,
        final=final,
        improvement=improvement_report(initial, final),
        kmeans_iterations=kmeans_iterations,
        termination=termination,
        wall_time_s=time.perf_counter() - t0,
        trace=(record,),
        final_clustering=clustering,
    )
