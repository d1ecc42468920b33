from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gameclust import (
    Clustering,
    ConfigError,
    Dataset,
    InconsistentStateError,
    LocalGame,
    Participant,
    RoleAssignment,
    build_payoff_tensor,
    classify_roles,
    conflicted_games,
    detect_conflict,
    generate_strategy_set,
    ideal_load,
    route_requests,
    select_strategies,
)
from gameclust.drivers import _balanced
from gameclust.game_engine import _first_free, _nearest_first

from oracles import balanced_fraction, payoff_costs, roles_fraction


def clustering_with_loads(loads, gap=100.0):
    """1-d clustering whose clusters sit far apart with the given loads."""
    points, assignment = [], []
    for cid, load in enumerate(loads):
        for i in range(load):
            points.append([cid * gap + 0.1 * i])
            assignment.append(cid)
    ds = Dataset(points=points)
    return ds, Clustering.from_assignment(ds, assignment, len(loads))


class TestClassifyRoles:
    def test_worked_example(self):
        _, c = clustering_with_loads([4, 1, 8])
        roles = classify_roles(c, Fraction(7))
        assert roles.players == ((0, 3), (1, 6))
        assert roles.resources == ((2, 1),)

    def test_balanced_has_no_roles(self):
        _, c = clustering_with_loads([7, 7, 7])
        roles = classify_roles(c, Fraction(7))
        assert roles.players == ()
        assert roles.resources == ()

    def test_direct_arithmetic(self):
        _, c = clustering_with_loads([5, 9])
        roles = classify_roles(c, Fraction(7))
        assert roles.players == ((0, 2),)
        assert roles.resources == ((1, 2),)

    def test_rational_ideal_rounds_outward(self):
        # request rounds up, overhead rounds down
        _, c = clustering_with_loads([4, 1, 15])
        roles = classify_roles(c, Fraction(20, 3))
        assert roles.players == ((0, 3), (1, 6))
        assert roles.resources == ((2, 8),)

    @given(
        st.lists(st.integers(1, 120), min_size=1, max_size=12),
        st.integers(1, 2000),
        st.integers(1, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_integer_rules_match_fraction_reference(self, loads, n, k):
        ideal = Fraction(n, k)
        _, c = clustering_with_loads(loads)
        roles = classify_roles(c, ideal)
        assert (roles.players, roles.resources) == roles_fraction(loads, ideal)
        assert _balanced(c, ideal) == balanced_fraction(loads, ideal)

    @given(st.lists(st.integers(1, 120), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_unbalanced_loads_have_players_and_resources(self, loads):
        # with ideal p/q = n/k, the excesses q * load - p sum to q * n - k * p = 0,
        # so an excess of q or more in size has one of the other sign beside it
        _, c = clustering_with_loads(loads)
        ideal = ideal_load(sum(loads), len(loads))
        if not _balanced(c, ideal):
            roles = classify_roles(c, ideal)
            assert roles.players and roles.resources


class TestRouteRequests:
    def test_single_resource_takes_all(self):
        _, c = clustering_with_loads([4, 1, 8])
        roles = classify_roles(c, Fraction(7))
        routing = route_requests(roles, c)
        assert routing == {2: [(0, 3), (1, 6)]}

    def test_nearest_resource_wins(self):
        # player at 0, resources near 100 and 400: the closer one gets the request
        ds, c = clustering_with_loads([1, 8, 2, 8], gap=100.0)
        roles = classify_roles(c, Fraction(19, 4))
        routing = route_requests(roles, c)
        assert (0, 4) in routing[1]
        assert routing[3] == []

    def test_equidistant_tie_goes_to_lowest_resource_id(self):
        points = [[0.0]] + [[-5.0 + 0.0 * i] for i in range(3)] + [[5.0 + 0.0 * i] for i in range(3)]
        ds = Dataset(points=points)
        c = Clustering.from_assignment(ds, [0, 1, 1, 1, 2, 2, 2], 3)
        roles = classify_roles(c, Fraction(7, 3))
        routing = route_requests(roles, c)
        assert routing[1] == [(0, 2)]
        assert routing[2] == []

    def test_players_without_resources_is_inconsistent(self):
        _, c = clustering_with_loads([4, 1, 8])
        roles = RoleAssignment(players=((0, 3),), resources=())
        with pytest.raises(InconsistentStateError):
            route_requests(roles, c)


class TestDetectConflict:
    def test_worked_example_fires(self):
        assert detect_conflict(1, [3, 6]) is True

    def test_enough_overhead(self):
        assert detect_conflict(5, [3]) is False

    def test_exactly_satisfiable_is_no_conflict(self):
        assert detect_conflict(3, [1, 2]) is False


class TestGenerateStrategySet:
    def test_worked_examples(self):
        assert generate_strategy_set(3) == (0, 1, 2)
        assert generate_strategy_set(6) == (0, 1, 2, 3, 4, 5)

    def test_minimal_request(self):
        assert generate_strategy_set(1) == (0,)

    def test_zero_request_invalid(self):
        with pytest.raises(ConfigError):
            generate_strategy_set(0)


class TestSelectStrategies:
    def test_worked_example_ns2(self):
        assert select_strategies((0, 1, 2, 3, 4, 5), 2) == (0, 2, 4, 5)
        assert select_strategies((0, 1, 2), 2) == (0, 2)

    def test_ns3_keeps_last(self):
        assert select_strategies((0, 1, 2, 3, 4, 5), 3) == (0, 3, 5)

    def test_ns1_is_identity(self):
        full = generate_strategy_set(9)
        assert select_strategies(full, 1) == full

    def test_singleton(self):
        assert select_strategies((0,), 4) == (0,)

    def test_pruned_size_formula_exhaustive(self):
        # |selected| = floor((r-1)/ns) + 1 + [ (r-1) mod ns != 0 ]
        for request in range(1, 201):
            full = generate_strategy_set(request)
            for ns in range(1, 11):
                selected = select_strategies(full, ns)
                expected = (request - 1) // ns + 1 + (1 if (request - 1) % ns != 0 else 0)
                assert len(selected) == expected, (request, ns)
                assert set(selected) <= set(full)
                assert selected[0] == 0
                assert selected[-1] == request - 1

    @given(st.integers(1, 400), st.integers(1, 20))
    @settings(max_examples=150, deadline=None)
    def test_subset_and_endpoints(self, request, ns):
        full = generate_strategy_set(request)
        selected = select_strategies(full, ns)
        assert set(selected) <= set(full)
        assert 0 in selected
        assert max(full) in selected
        assert list(selected) == sorted(set(selected))


class TestConflictedGames:
    def test_only_conflicted_resources_get_games(self):
        _, c = clustering_with_loads([4, 1, 8])
        roles = classify_roles(c, Fraction(7))
        routing = route_requests(roles, c)
        games = conflicted_games(c, roles, routing)
        assert len(games) == 1
        assert games[0].resource_id == 2
        assert games[0].shape == (3, 6)
        assert games[0].resource_load == 8

    def test_selection_prunes_sets(self):
        _, c = clustering_with_loads([4, 1, 8])
        roles = classify_roles(c, Fraction(7))
        routing = route_requests(roles, c)
        games = conflicted_games(c, roles, routing, ns=2)
        assert games[0].shape == (2, 4)
        assert games[0].participants[0].strategies == (0, 2)
        assert games[0].participants[1].strategies == (0, 2, 4, 5)

    def test_satisfiable_resource_spawns_no_game(self):
        ds, c = clustering_with_loads([5, 9])
        roles = classify_roles(c, Fraction(7))
        routing = route_requests(roles, c)
        assert conflicted_games(c, roles, routing) == []


def plan_transfer(ds, c, resource_id, player_id, count, taken=None):
    """Point indices the nearest-first kernel hands a player from a resource.

    ``taken`` flags resource positions already handed out; the chosen
    positions are flagged in it too.
    """
    member = c.members(resource_id)
    taken = [False] * len(member) if taken is None else taken
    (order,) = _nearest_first(ds.points[member], c.centers[[player_id]])
    chosen = _first_free(np.array([taken]), order, count, sum(taken))[0]
    for pos in chosen:
        taken[pos] = True
    return member[chosen].tolist()


class TestPlanTransfer:
    """One transfer planned by the nearest-first kernel that tensors and apply share."""

    def test_zero_count_empty(self, line20):
        ds, c = line20
        assert plan_transfer(ds, c, 2, 1, 0) == []

    def test_nearest_two(self):
        ds = Dataset(points=[[4.0], [5.0], [6.0], [9.0]])
        c = Clustering.from_assignment(ds, [0, 1, 1, 1], 2)
        chosen = plan_transfer(ds, c, 1, 0, 2)
        assert chosen == [1, 2]  # the points at 5 and 6

    def test_taken_points_are_skipped(self):
        ds = Dataset(points=[[4.0], [5.0], [6.0], [9.0]])
        c = Clustering.from_assignment(ds, [0, 1, 1, 1], 2)
        taken = [True, False, False]  # the point at 5 already went to an earlier player
        assert plan_transfer(ds, c, 1, 0, 2, taken) == [2, 3]
        assert taken == [True, True, True]

    def test_tie_breaks_to_lowest_index(self):
        ds = Dataset(points=[[0.0], [1.0], [-1.0], [5.0]])
        c = Clustering.from_assignment(ds, [0, 1, 1, 1], 2)
        assert plan_transfer(ds, c, 1, 0, 1) == [1]

    def test_emptying_resource_rejected(self, line20):
        ds, c = line20
        points, assignment = ds.points.tolist(), c.assignment.tolist()
        # resource 1 has a single point: no transfer out of it is feasible
        lone = LocalGame(resource_id=1, resource_load=1, participants=(Participant(0, 1, (0,)),))
        assert not build_payoff_tensor(ds, c, lone).feasible.any()
        assert payoff_costs(points, assignment, 3, 1, [(0, 1, (0,))], (0,)) is None
        # resource 2 has 15 points: taking all 15 is infeasible, 14 is not
        drain = LocalGame(
            resource_id=2, resource_load=15,
            participants=(Participant(0, 15, generate_strategy_set(15)),),
        )
        tensor = build_payoff_tensor(ds, c, drain)
        assert tensor.feasible.tolist() == [False] + [True] * 14
        participants = [(0, 15, tuple(range(15)))]
        assert payoff_costs(points, assignment, 3, 2, participants, (0,)) is None
        assert payoff_costs(points, assignment, 3, 2, participants, (1,)) is not None
