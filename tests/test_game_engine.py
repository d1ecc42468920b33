import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gameclust import (
    Clustering,
    ConfigError,
    Dataset,
    LocalGame,
    Participant,
    RoleAssignment,
    build_payoff_tensor,
    classify_roles,
    conflicted_games,
    detect_conflict,
    ideal_load,
    route_requests,
    select_strategies,
)
from gameclust.core import balanced

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
        assert balanced(loads, ideal) == balanced_fraction(loads, ideal)

    @pytest.mark.parametrize(
        "loads, ideal, expected",
        [([6, 8], Fraction(7), False), ([5, 7], Fraction(6), False), ([7, 8], Fraction(15, 2), True),
         ([5, 6, 6], Fraction(17, 3), True), ([6, 6, 7, 7], Fraction(13, 2), True),
         ([5, 7, 7, 7], Fraction(13, 2), False)],
    )
    def test_balanced_is_strictly_within_one_unit(self, loads, ideal, expected):
        # a load one unit or more from the ideal, below it as above, is off balance; any nearer load is not
        assert balanced(loads, ideal) == balanced_fraction(loads, ideal) == expected

    @given(st.lists(st.integers(1, 120), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_unbalanced_loads_have_players_and_resources(self, loads):
        # with ideal p/q = n/k, the excesses q * load - p sum to q * n - k * p = 0,
        # so an excess of q or more in size has one of the other sign beside it
        _, c = clustering_with_loads(loads)
        ideal = ideal_load(sum(loads), len(loads))
        if not balanced(loads, ideal):
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
        # roles built by hand may list their resources out of id order
        unordered = RoleAssignment(players=((0, 2),), resources=((2, 2), (1, 2)))
        assert route_requests(unordered, c) == {1: [(0, 2)], 2: []}

    # four clusters far apart, the behaviour before the ids were checked in
    # the comment above each role set
    @pytest.mark.parametrize(
        "players, resources, match",
        [
            # player -1 was routed to resource 3 by the last cluster's center
            (((-1, 3),), ((1, 5), (3, 9)), "player id must be >= 0, got -1"),
            # IndexError: index 7 is out of bounds for axis 0 with size 4
            (((7, 3),), ((1, 5), (3, 9)), "player id 7 is not a cluster below k = 4"),
            # cluster 1 was routed to itself
            (((1, 3),), ((1, 5), (3, 9)), "cluster 1 is listed more than once"),
            # player 0's two requests were both routed to resource 2
            (((0, 3), (0, 2)), ((2, 5), (3, 9)), "cluster 0 is listed more than once"),
            # the two listings of resource 2 merged into one routing entry
            (((0, 3),), ((2, 5), (2, 9)), "cluster 2 is listed more than once"),
            # player 1.5 was routed to resource 2 as if it were cluster 1
            (((1.5, 3),), ((2, 5), (3, 9)), "player id must be an integer, got 1.5"),
        ],
        ids=["player-minus-one", "player-k-or-more", "player-and-resource", "repeated-player",
             "repeated-resource", "non-integer"],
    )
    def test_roles_breaking_the_id_rule_rejected(self, players, resources, match):
        _, c = clustering_with_loads([4, 1, 8, 9])
        with pytest.raises(ConfigError, match=match):
            route_requests(RoleAssignment(players=players, resources=resources), c)

    def test_players_without_resources_is_inconsistent(self):
        _, c = clustering_with_loads([4, 1, 8])
        roles = RoleAssignment(players=((0, 3),), resources=())
        with pytest.raises(ConfigError, match="^players exist but there is no resource to request from$"):
            route_requests(roles, c)


class TestDetectConflict:
    def test_worked_example_fires(self):
        assert detect_conflict(1, [3, 6]) is True

    def test_enough_overhead(self):
        assert detect_conflict(5, [3]) is False

    def test_exactly_satisfiable_is_no_conflict(self):
        assert detect_conflict(3, [1, 2]) is False


class TestGenerateStrategySet:
    """Without a granularity, ``select_strategies(request)`` generates the full set {0, ..., request-1}."""

    def test_worked_examples(self):
        assert select_strategies(3) == (0, 1, 2)
        assert select_strategies(6) == (0, 1, 2, 3, 4, 5)

    def test_minimal_request(self):
        assert select_strategies(1) == (0,)

    def test_zero_request_invalid(self):
        with pytest.raises(ConfigError):
            select_strategies(0)


class TestSelectStrategies:
    def test_worked_example_ns2(self):
        assert select_strategies(6, 2) == (0, 2, 4, 5)
        assert select_strategies(3, 2) == (0, 2)

    def test_ns3_keeps_last(self):
        assert select_strategies(6, 3) == (0, 3, 5)

    def test_ns1_is_identity(self):
        assert select_strategies(9, 1) == select_strategies(9)

    def test_singleton(self):
        assert select_strategies(1, 4) == (0,)

    def test_zero_ns_rejected(self):
        # ns=0 is no granularity, not "no selection"
        with pytest.raises(ConfigError, match=r"^ns must be >= 1, got 0$"):
            select_strategies(3, 0)

    def test_pruned_size_formula_exhaustive(self):
        # |selected| = floor((r-1)/ns) + 1 + [ (r-1) mod ns != 0 ]
        for request in range(1, 201):
            for ns in range(1, 11):
                selected = select_strategies(request, ns)
                expected = (request - 1) // ns + 1 + (1 if (request - 1) % ns != 0 else 0)
                assert len(selected) == expected, (request, ns)
                assert set(selected) <= set(range(request))
                assert selected[0] == 0
                assert selected[-1] == request - 1

    @given(st.integers(1, 400), st.none() | st.integers(1, 20))
    @settings(max_examples=150, deadline=None)
    def test_subset_and_endpoints(self, request, ns):
        selected = select_strategies(request, ns)
        assert set(selected) <= set(range(request))
        assert 0 in selected
        assert request - 1 in selected
        assert list(selected) == sorted(set(selected))
        assert all(type(v) is int for v in selected)
        if ns is None:
            assert selected == tuple(range(request))
        # a participant derives its set from (request, ns), again when ns is replaced
        participant = Participant(0, request, ns)
        assert participant.strategies == selected
        assert dataclasses.replace(participant, ns=2).strategies == select_strategies(request, 2)


class TestGameValidation:
    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: LocalGame(0, ()), "at least one participant"),
        ],
        ids=["game-without-participants"],
    )
    def test_malformed_game_rejected(self, call, match):
        with pytest.raises(ConfigError, match=match):
            call()


class TestConflictedGames:
    def test_only_conflicted_resources_get_games(self):
        _, c = clustering_with_loads([4, 1, 8])
        roles = classify_roles(c, Fraction(7))
        routing = route_requests(roles, c)
        games = conflicted_games(roles, routing)
        assert len(games) == 1
        assert games[0].resource_id == 2
        assert games[0].shape == (3, 6)
        assert c.loads[games[0].resource_id] == 8

    def test_selection_prunes_sets(self):
        _, c = clustering_with_loads([4, 1, 8])
        roles = classify_roles(c, Fraction(7))
        routing = route_requests(roles, c)
        games = conflicted_games(roles, routing, ns=2)
        assert games[0].shape == (2, 4)
        assert games[0].participants[0].strategies == (0, 2)
        assert games[0].participants[1].strategies == (0, 2, 4, 5)

    def test_satisfiable_resource_spawns_no_game(self):
        ds, c = clustering_with_loads([5, 9])
        roles = classify_roles(c, Fraction(7))
        routing = route_requests(roles, c)
        assert conflicted_games(roles, routing) == []


class TestPlanTransfer:
    """A transfer that would empty its resource is infeasible, in the tensor and in the reference."""

    def test_emptying_resource_rejected(self, line20):
        ds, c = line20
        points, assignment = ds.points.tolist(), c.assignment.tolist()
        # resource 1 has a single point: no transfer out of it is feasible
        lone = LocalGame(resource_id=1, participants=(Participant(0, 1),))
        assert not build_payoff_tensor(ds, c, lone).feasible.any()
        assert payoff_costs(points, assignment, 3, 1, [(0, 1, (0,))], (0,)) is None
        # resource 2 has 15 points: taking all 15 is infeasible, 14 is not
        drain = LocalGame(
            resource_id=2,
            participants=(Participant(0, 15),),
        )
        tensor = build_payoff_tensor(ds, c, drain)
        assert tensor.feasible.tolist() == [False] + [True] * 14
        participants = [(0, 15, tuple(range(15)))]
        assert payoff_costs(points, assignment, 3, 2, participants, (0,)) is None
        assert payoff_costs(points, assignment, 3, 2, participants, (1,)) is not None
