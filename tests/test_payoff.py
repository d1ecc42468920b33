import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gameclust import (
    PURE_NASH,
    Clustering,
    ConfigError,
    Dataset,
    EquilibriumResult,
    KMeansConfig,
    LocalGame,
    Participant,
    PayoffTensor,
    RunConfig,
    StructuralError,
    TensorTooLargeError,
    apply_and_evaluate,
    build_payoff_tensor,
    classify_roles,
    conflicted_games,
    find_pure_nash,
    ideal_load,
    init_centers,
    lloyd_iteration,
    objectives,
    route_requests,
    run_algorithm,
    select_strategies,
)
from gameclust import drivers, game_engine
from gameclust.cli import main

from oracles import payoff_costs, payoff_table, payoff_tensor_dfs

# Reference costs for the 20-point line instance (loads [4, 1, 15],
# ideal 20/3): players request 3 and 6 from the 15-point resource.
# Computed once with the straight-line oracle in oracles.payoff_table
# and frozen here; joint (i, j) maps to (cost of player 0, cost of player 1).
GOLDEN_LINE20 = {
    (0, 0): (2.040774829510082, 6.228123618677121),
    (0, 1): (1.928153981863943, 8.823777400810132),
    (0, 2): (1.8154889148656348, 13.985026005730285),
    (0, 3): (1.6891812612426573, 17.743999656490185),
    (0, 4): (1.5107025591499548, 20.885834798688208),
    (0, 5): (1.122497216032182, 23.671079400821586),
    (1, 0): (2.7325202042558927, 5.362627879853102),
    (1, 1): (2.5922962793631434, 7.608474807008885),
    (1, 2): (2.459268183830304, 12.07982707749669),
    (1, 3): (2.316606713852541, 15.358240639980723),
    (1, 4): (2.1166010488516727, 18.120767705100747),
    (1, 5): (1.6733200530681513, 20.593094851322263),
    (2, 0): (4.105745103771403, 3.9550811201120344),
    (2, 1): (3.922867431979941, 5.636074283872892),
    (2, 2): (3.763863263545405, 8.99518389658229),
    (2, 3): (3.605551275463989, 11.506288135913625),
    (2, 4): (3.3829638550307397, 13.670503526449442),
    (2, 5): (2.8577380332470406, 15.656649279672411),
}


LINE20_PARTICIPANTS = [(0, 3, tuple(range(3))), (1, 6, tuple(range(6)))]


def line20_game():
    return LocalGame(
        resource_id=2,
        participants=(
            Participant(0, 3),
            Participant(1, 6),
        ),
    )


class TestLocalGameTransfers:
    def test_full_transfers_at_joint_zero(self):
        assert line20_game().transfers((0, 0)) == [(0, 3), (1, 6)]

    def test_transfers_read_pruned_strategy_sets(self):
        game = line20_game()
        pruned = LocalGame(
            resource_id=game.resource_id,
            participants=tuple(
                Participant(p.player_id, p.request, 2)
                for p in game.participants
            ),
        )
        # strategies (0, 2) and (0, 2, 4, 5): index 1 forgoes 2 of 3, index 3 forgoes 5 of 6
        assert pruned.transfers((1, 3)) == [(0, 1), (1, 1)]
        assert pruned.transfers((0, 2)) == [(0, 3), (1, 2)]

    @pytest.mark.parametrize("joint", [(), (0,), (0, 0, 0)])
    def test_joint_of_wrong_length_rejected(self, joint):
        with pytest.raises(ConfigError):
            line20_game().transfers(joint)

    @pytest.mark.parametrize("joint", [(5,), (-1,), (3,)])
    def test_strategy_index_outside_the_set_rejected(self, joint):
        # one participant with request 3 and strategies (0, 1, 2): a negative
        # index would wrap to the last strategy, one past the end has none
        game = LocalGame(resource_id=2, participants=(Participant(0, 3),))
        with pytest.raises(ConfigError, match="does not index"):
            game.transfers(joint)


class TestPayoffGolden:
    def test_tensor_matches_frozen_oracle_values(self, line20):
        ds, c = line20
        tensor = build_payoff_tensor(ds, c, line20_game())
        assert tensor.feasible.all()
        for joint, expected in GOLDEN_LINE20.items():
            assert tensor.costs[joint] == pytest.approx(expected, rel=1e-9)

    def test_frozen_values_still_match_oracle(self, line20):
        ds, c = line20
        table = payoff_table(ds.points.tolist(), c.assignment.tolist(), 3, 2, LINE20_PARTICIPANTS)
        for joint, expected in GOLDEN_LINE20.items():
            assert table[joint] == pytest.approx(expected, rel=1e-12)

    def test_point_payoff_matches_tensor(self, line20):
        ds, c = line20
        game = line20_game()
        tensor = build_payoff_tensor(ds, c, game)
        for joint in [(0, 0), (1, 3), (2, 5)]:
            expected = payoff_costs(
                ds.points.tolist(), c.assignment.tolist(), 3, 2, LINE20_PARTICIPANTS, joint
            )
            assert tuple(tensor.costs[joint]) == pytest.approx(tuple(expected), rel=1e-9)

    def test_max_forgone_joint_moves_fewest_units(self, line20):
        ds, c = line20
        # forgoing the maximum everywhere transfers request - (request-1) = 1 unit each
        moved = {
            joint: (3 - joint[0]) + (6 - joint[1])
            for joint in itertools.product(range(3), range(6))
        }
        assert min(moved, key=lambda j: (moved[j], j)) == (2, 5)
        expected = payoff_costs(
            ds.points.tolist(), c.assignment.tolist(), 3, 2, LINE20_PARTICIPANTS, (2, 5)
        )
        assert tuple(expected) == pytest.approx(GOLDEN_LINE20[(2, 5)], rel=1e-9)
        tensor = build_payoff_tensor(ds, c, line20_game())
        assert tuple(tensor.costs[(2, 5)]) == pytest.approx(GOLDEN_LINE20[(2, 5)], rel=1e-9)


class TestSingleParticipant:
    def test_degenerate_game_single_entry(self):
        # cluster layout: pair {0,1}, singleton {9}, triple {10,11,12}
        ds = Dataset(points=[[0.0], [1.0], [9.0], [10.0], [11.0], [12.0]])
        c = Clustering.from_assignment(ds, [0, 0, 1, 2, 2, 2], 3)
        game = LocalGame(
            resource_id=2,
            participants=(Participant(1, 1),),
        )
        tensor = build_payoff_tensor(ds, c, game)
        assert tensor.costs.shape == (1, 1)
        expected = payoff_costs(
            ds.points.tolist(), c.assignment.tolist(), 3, 2, [(1, 1, (0,))], (0,)
        )
        assert tensor.costs[(0, 0)] == pytest.approx(expected[0], abs=1e-12)
        # without rivals nothing they touched changes, so the cost is zero
        assert tensor.costs[(0, 0)] == 0.0

    @given(st.integers(1, 40), st.one_of(st.none(), st.integers(1, 12)), st.integers(2, 50))
    @settings(max_examples=100, deadline=None)
    def test_picks_the_first_strategy_that_leaves_a_point(self, requested, ns, load):
        # a resource of ``load`` points on a line, and one far player point
        ds = Dataset(points=[[float(i)] for i in range(load)] + [[1000.0]])
        c = Clustering.from_assignment(ds, [0] * load + [1], 2)
        strategies = select_strategies(requested, ns)
        game = LocalGame(resource_id=0, participants=(Participant(1, requested, ns),))
        # every feasible strategy costs 0, so the first one moving at most load - 1 units wins
        first = next(i for i, v in enumerate(strategies) if requested - v <= load - 1)
        assert find_pure_nash(build_payoff_tensor(ds, c, game)) == EquilibriumResult((first,), PURE_NASH, (0.0,))


class TestTakersRule:
    """A game's players are other clusters of the clustering, each listed once, in ascending id."""

    # Each game is on ds1 at k = 4, the behaviour before the rule was
    # checked in the comment above it.
    @pytest.mark.parametrize(
        "rid, pids, match",
        [
            # built a tensor for "2 takes first", not an axis permutation of
            # the sorted game's; the apply then executed "1 takes first"
            (0, (2, 1), "player 1 follows player 2"),
            # IndexError: list index out of range
            (0, (1, 1), "player 1 follows player 1"),
            # IndexError: list index out of range
            (0, (0, 1), "player 0 is resource 0"),
            # built finite costs and a pure-Nash pick from cluster 3's load,
            # excess and center
            (0, (-1, 1), "player id must be >= 0, got -1"),
            # IndexError: list index out of range
            (0, (1, 4), "player id 4 is not a cluster below k = 4"),
            # TypeError: list indices must be integers or slices, not float
            (0, (1.5, 2), "player id must be an integer, got 1.5"),
            # a one-player game: returned a one-entry tensor read from
            # cluster 3's load
            (-1, (1,), "resource id must be >= 0, got -1"),
        ],
        ids=["unsorted", "repeated", "resource", "minus-one", "k", "non-integer", "one-player-resource-minus-one"],
    )
    def test_game_breaking_the_rule_rejected(self, ds1, ds1_k4, rid, pids, match):
        game = LocalGame(rid, tuple(Participant(pid, 3) for pid in pids))
        with pytest.raises(ConfigError, match=match):
            build_payoff_tensor(ds1, ds1_k4, game)


class TestPayoffTensorValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
    def test_non_finite_or_negative_cost_rejected(self, bad):
        costs = np.ones((3, 2, 2))
        costs[1, 0, 1] = bad
        with pytest.raises(StructuralError):
            PayoffTensor(costs=costs, feasible=np.ones((3, 2), dtype=bool))

    def test_no_participant_rejected(self):
        with pytest.raises(StructuralError):
            PayoffTensor(costs=np.zeros((3, 0)), feasible=np.ones(3, dtype=bool))

    @pytest.mark.parametrize("shape", [(3, 3, 5), (2, 2, 1)])
    def test_cost_axis_not_one_per_joint_axis_rejected(self, shape):
        # 5 costs over 2 joint axes, or 1 cost over 2: the trailing axis must count the joint axes
        with pytest.raises(StructuralError, match="one joint axis per participant"):
            PayoffTensor(costs=np.zeros(shape), feasible=np.ones(shape[:-1], dtype=bool))

    @pytest.mark.parametrize("shape", [(0, 1), (2, 0, 2)])
    def test_empty_joint_axis_rejected(self, shape):
        # a participant without strategies leaves no joint for the Nash search to pick
        with pytest.raises(StructuralError, match="none empty"):
            PayoffTensor(costs=np.zeros(shape), feasible=np.ones(shape[:-1], dtype=bool))

    def test_zero_and_finite_costs_accepted(self):
        costs = np.zeros((3, 2, 2))
        costs[2, 1, 0] = np.finfo(float).max
        tensor = PayoffTensor(costs=costs, feasible=np.ones((3, 2), dtype=bool))
        assert tensor.shape == (3, 2)


class TestTensorShape:
    def test_full_sets_shape(self, line20):
        ds, c = line20
        tensor = build_payoff_tensor(ds, c, line20_game())
        assert tensor.shape == (3, 6)
        assert tensor.joint_count == 18
        assert tensor.n_participants == 2

    def test_selected_sets_shape(self, line20):
        ds, c = line20
        game = LocalGame(
            resource_id=2,
            participants=(
                Participant(0, 3, 2),
                Participant(1, 6, 2),
            ),
        )
        tensor = build_payoff_tensor(ds, c, game)
        assert tensor.shape == (2, 4)
        assert tensor.joint_count == 8

    def test_selection_never_grows_joint_count(self, line20):
        ds, c = line20
        full = build_payoff_tensor(ds, c, line20_game())
        for ns in range(1, 8):
            pruned_game = LocalGame(
                resource_id=2,
                participants=tuple(
                    Participant(p.player_id, p.request, ns)
                    for p in line20_game().participants
                ),
            )
            pruned = build_payoff_tensor(ds, c, pruned_game)
            assert pruned.joint_count <= full.joint_count


class TestInfeasibleJoints:
    def make_overdrawn(self):
        # loads [1, 1, 2], ideal 4/3: both players must take one unit each,
        # but the resource can only spare one point in total
        ds = Dataset(points=[[0.0], [0.3], [10.0], [10.2]])
        c = Clustering.from_assignment(ds, [0, 1, 2, 2], 3)
        game = LocalGame(
            resource_id=2,
            participants=(Participant(0, 1), Participant(1, 1)),
        )
        return ds, c, game

    def test_all_infeasible_gets_sentinel(self):
        ds, c, game = self.make_overdrawn()
        tensor = build_payoff_tensor(ds, c, game)
        assert not tensor.feasible.any()
        assert tensor.costs[0, 0].tolist() == [1.0, 1.0]  # 1 + max over no feasible costs

    def test_point_payoff_raises_on_infeasible(self):
        ds, c, game = self.make_overdrawn()
        participants = [(p.player_id, p.request, p.strategies) for p in game.participants]
        assert payoff_costs(ds.points.tolist(), c.assignment.tolist(), 3, 2, participants, (0, 0)) is None
        assert not build_payoff_tensor(ds, c, game).feasible[0, 0]

    def test_sentinel_above_every_feasible_cost(self):
        # requests big enough that large-transfer joints overdraw the resource
        ds = Dataset(points=[[float(i)] for i in range(12)])
        c = Clustering.from_assignment(ds, [0] * 2 + [1] * 2 + [2] * 8, 3)
        game = LocalGame(
            resource_id=2,
            participants=(
                Participant(0, 4),
                Participant(1, 5),
            ),
        )
        tensor = build_payoff_tensor(ds, c, game)
        assert tensor.feasible.any() and not tensor.feasible.all()
        sentinel = tensor.costs[~tensor.feasible].min()
        assert (tensor.costs[~tensor.feasible] == sentinel).all()
        assert sentinel == pytest.approx(1.0 + tensor.costs[tensor.feasible].max())

    def test_feasibility_boundary_matches_capacity(self):
        ds = Dataset(points=[[float(i)] for i in range(12)])
        c = Clustering.from_assignment(ds, [0] * 2 + [1] * 2 + [2] * 8, 3)
        game = LocalGame(
            resource_id=2,
            participants=(
                Participant(0, 4),
                Participant(1, 5),
            ),
        )
        tensor = build_payoff_tensor(ds, c, game)
        for i, j in itertools.product(range(4), range(5)):
            total = (4 - i) + (5 - j)
            assert tensor.feasible[i, j] == (total <= 7)


class TestPurity:
    def test_inputs_untouched_by_simulation(self, line20):
        ds, c = line20
        points_before = ds.points.copy()
        assignment_before = c.assignment.copy()
        centers_before = c.centers.copy()
        build_payoff_tensor(ds, c, line20_game())
        eq = EquilibriumResult(joint=(1, 2), kind=PURE_NASH, costs=())
        game = line20_game()
        apply_and_evaluate(ds, c, objectives(ds, c), {game.resource_id: game.transfers(eq.joint)})
        assert np.array_equal(ds.points, points_before)
        assert np.array_equal(c.assignment, assignment_before)
        assert np.array_equal(c.centers, centers_before)


class TestRandomCrossCheck:
    def test_tensor_agrees_with_oracle_on_random_instances(self):
        rng = np.random.default_rng(424242)
        for _ in range(12):
            k = int(rng.integers(3, 5))
            loads = rng.integers(1, 4, size=k - 1).tolist() + [int(rng.integers(6, 10))]
            points, assignment = [], []
            idx = 0
            for cid, load in enumerate(loads):
                for _ in range(load):
                    points.append([float(rng.normal(cid * 5.0, 1.0))])
                    assignment.append(cid)
                    idx += 1
            ds = Dataset(points=points)
            c = Clustering.from_assignment(ds, assignment, k)
            resource = k - 1
            n_players = int(rng.integers(1, 3))
            participants = []
            for pid in range(n_players):
                request = int(rng.integers(1, 4))
                participants.append(Participant(pid, request))
            game = LocalGame(
                resource_id=resource,
                participants=tuple(participants),
            )
            tensor = build_payoff_tensor(ds, c, game)
            table = payoff_table(
                points, assignment, k, resource,
                [(p.player_id, p.request, p.strategies) for p in participants],
            )
            for joint, expected in table.items():
                if expected is None:
                    assert not tensor.feasible[joint]
                else:
                    assert tensor.feasible[joint]
                    assert tensor.costs[joint] == pytest.approx(expected, rel=1e-9, abs=1e-12)


def reference_tensor(ds, c, game):
    """The depth-first reference build of one game."""
    return payoff_tensor_dfs(
        ds.points, c.assignment, c.centers, game.resource_id,
        [(p.player_id, p.request, p.strategies) for p in game.participants],
    )


class TestTensorMatchesDepthFirstReference:
    """The breadth-first build reproduces the depth-first reference bit for bit."""

    # largest request per player count, so the reference stays quick
    MAX_REQUEST = {1: 16, 2: 12, 3: 8, 4: 6, 5: 5, 6: 4}
    GAMES_PER_CASE = 5

    def random_game(self, rng, dim, grid, n_players, pruned):
        m = int(rng.integers(2, 14))
        loads = [m] + rng.integers(1, 4, size=n_players).tolist()
        k = len(loads)
        if grid:
            # few distinct coordinates: many points at equal distance from a center
            points = rng.integers(0, 3, size=(sum(loads), dim)).astype(float)
        else:
            offsets = np.repeat(rng.normal(0.0, 3.0, size=(k, dim)), loads, axis=0)
            points = rng.normal(size=(sum(loads), dim)) + offsets
        assignment = rng.permutation(np.repeat(np.arange(k), loads))  # clusters interleave
        ds = Dataset(points=points)
        c = Clustering.from_assignment(ds, assignment, k)
        participants = []
        for pid in range(1, k):
            request = int(rng.integers(1, self.MAX_REQUEST[n_players] + 1))
            ns = int(rng.integers(2, 5)) if pruned else None
            participants.append(Participant(pid, request, ns))
        return ds, c, LocalGame(resource_id=0, participants=tuple(participants))

    @staticmethod
    def leaves_too_few_points(c, game):
        """True when a feasible prefix leaves fewer free points than a later player's largest transfer."""
        m = int(c.loads[game.resource_id])
        prior = 0
        for p in game.participants:
            if min(m - 1, prior) > m - p.request:
                return True
            prior += p.request
        return False

    def test_random_games_bit_identical(self):
        rng = np.random.default_rng(20240611)
        short = 0
        for dim, grid, n_players, pruned, _ in itertools.product(
            (1, 2, 3), (False, True), (1, 2, 3, 4, 5, 6), (False, True), range(self.GAMES_PER_CASE)
        ):
            ds, c, game = self.random_game(rng, dim, grid, n_players, pruned)
            tensor = build_payoff_tensor(ds, c, game)
            costs, feasible = reference_tensor(ds, c, game)
            case = (dim, grid, n_players, pruned, game.shape)
            assert np.array_equal(tensor.feasible, feasible), case
            assert np.array_equal(tensor.costs, costs), case
            short += self.leaves_too_few_points(c, game)
        assert short >= 10  # the padded first-free rows are exercised

    def test_game_larger_than_a_block(self):
        rng = np.random.default_rng(7)
        loads = [70, 3, 4, 5]
        points = rng.normal(size=(sum(loads), 2)) + np.repeat([[0, 0], [4, 0], [0, 4], [4, 4]], loads, axis=0)
        ds = Dataset(points=points)
        c = Clustering.from_assignment(ds, np.repeat(np.arange(4), loads), 4)
        game = LocalGame(
            resource_id=0,
            participants=tuple(Participant(pid, 20) for pid in (1, 2, 3)),
        )
        tensor = build_payoff_tensor(ds, c, game)
        assert tensor.joint_count > game_engine.BLOCK
        costs, feasible = reference_tensor(ds, c, game)
        assert np.array_equal(tensor.feasible, feasible)
        assert np.array_equal(tensor.costs, costs)


class TestOriginShift:
    """Moving every point and start center by one vector moves no cost of a game."""

    @staticmethod
    def resource_7_tensor(dataset, centers):
        """Resource 7's game after the first Lloyd step from ``centers`` at k = 8, ns off."""
        clustering = lloyd_iteration(dataset, centers)
        roles = classify_roles(clustering, ideal_load(dataset.n, clustering.k))
        games = conflicted_games(roles, route_requests(roles, clustering), None)
        return build_payoff_tensor(dataset, clustering, next(g for g in games if g.resource_id == 7))

    @pytest.mark.xfail(
        raises=AssertionError,
        reason="ROADMAP item 13: the build forms each SSE as sum |x|^2 - |sum x|^2 / count on raw "
        "coordinates, which cancels far from the origin (worst relative change 0.28 at +1e5)",
    )
    def test_feasible_costs_do_not_move_with_the_origin(self, ds1):
        # ds1, k = 8, run seed 12: a (17, 11, 10, 3, 6) game whose worst
        # relative cost change is 1e-5 at a shift of 1e3 and 0.0028 at 1e4
        centers = init_centers(ds1, KMeansConfig(k=8, seed=12))
        base = self.resource_7_tensor(ds1, centers)
        shifted = self.resource_7_tensor(Dataset(ds1.points + 1e5), centers + 1e5)
        if base.shape != (17, 11, 10, 3, 6) or not np.array_equal(base.feasible, shifted.feasible):
            pytest.fail("the shift changed the game or its feasible joints, not only its costs")
        np.testing.assert_allclose(shifted.costs[shifted.feasible], base.costs[base.feasible], rtol=1e-6)


class TestWorkingMemory:
    """The build's memory beside the tensor stays within the bound its docstring states."""

    @staticmethod
    def bound(ds, c, game):
        """n_p B (8 ((dim + 2) + 2 n_p + 1) + m) for the frontier, 16 (dim + 2) B r + 11 B c for one expansion."""
        n_p, m, width = len(game.participants), int(c.loads[game.resource_id]), ds.dim + 2
        block = max(game_engine.BLOCK, *game.shape)
        most = [min(p.request, m - 1) for p in game.participants]
        per_strategy = max(math.ceil(t / len(p.strategies)) for t, p in zip(most, game.participants))
        frontier = n_p * block * (8 * (width + 2 * n_p + 1) + m)
        return frontier + 16 * width * block * per_strategy + 11 * block * max(most)

    def test_every_game_of_the_run_with_ds1_fulls_largest_game(self, ds1, monkeypatch):
        played = []
        build = drivers.build_payoff_tensor

        def record(dataset, clustering, game):
            played.append((clustering, game))
            return build(dataset, clustering, game)

        monkeypatch.setattr(drivers, "build_payoff_tensor", record)
        run_algorithm(ds1, RunConfig(k=8, seed=41))
        largest = max((game for _, game in played), key=lambda game: math.prod(game.shape))
        assert (math.prod(largest.shape), len(largest.participants)) == (40_320, 6)  # the widest rows
        for c, game in played:
            tracemalloc.start()
            try:
                tensor = build_payoff_tensor(ds1, c, game)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            beside = peak - tensor.costs.nbytes - tensor.feasible.nbytes
            assert beside <= self.bound(ds1, c, game), game.shape


class TestSizeGuard:
    def huge_game(self):
        # twenty players with twenty strategies each: 20**20 joints
        loads = [50] + [1] * 20
        ds = Dataset(points=[[float(cid)] for cid, load in enumerate(loads) for _ in range(load)])
        c = Clustering.from_assignment(ds, np.repeat(np.arange(21), loads), 21)
        game = LocalGame(
            resource_id=0,
            participants=tuple(Participant(pid, 20) for pid in range(1, 21)),
        )
        return ds, c, game

    def test_huge_game_raises_before_allocating(self, monkeypatch):
        ds, c, game = self.huge_game()
        assert np.prod(game.shape, dtype=object) == 20**20
        # first a two-player slice of it, 20 * 20 joints of 8 * 2 + 1 bytes,
        # one byte above a tiny limit: a guard that stopped tripping fails
        # here at once instead of building the 20**20 joints below
        pair = LocalGame(resource_id=0, participants=game.participants[:2])
        monkeypatch.setattr(game_engine, "MAX_TENSOR_BYTES", 20 * 20 * (8 * 2 + 1) - 1)
        with pytest.raises(TensorTooLargeError):
            build_payoff_tensor(ds, c, pair)
        monkeypatch.undo()
        tracemalloc.start()
        try:
            with pytest.raises(TensorTooLargeError):
                build_payoff_tensor(ds, c, game)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_limit_admits_the_largest_acceptance_game(self):
        # ds1, k=8, run seed 0 plays a (12, 6, 7, 11, 5, 12, 4) game
        assert 1_330_560 * (8 * 7 + 1) <= game_engine.MAX_TENSOR_BYTES

    def test_cli_exits_2_on_a_game_above_the_limit(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(game_engine, "MAX_TENSOR_BYTES", 100)
        out = tmp_path / "r.json"
        status = main(["run", "--ds1", "--k", "8", "--seed", "1", "--out", str(out)])
        assert status == 2
        assert "payoff tensor" in capsys.readouterr().err
        assert not out.exists()
