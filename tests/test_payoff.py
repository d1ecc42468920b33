import itertools

import numpy as np
import pytest

from gameclust import (
    PURE_NASH,
    Clustering,
    Dataset,
    EquilibriumResult,
    LocalGame,
    Participant,
    apply_and_evaluate,
    build_payoff_tensor,
    generate_strategy_set,
    objectives,
    select_strategies,
)

from oracles import payoff_costs, payoff_table

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
        resource_load=15,
        participants=(
            Participant(0, 3, generate_strategy_set(3)),
            Participant(1, 6, generate_strategy_set(6)),
        ),
    )


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
            resource_id=2, resource_load=3,
            participants=(Participant(1, 1, (0,)),),
        )
        tensor = build_payoff_tensor(ds, c, game)
        assert tensor.costs.shape == (1, 1)
        expected = payoff_costs(
            ds.points.tolist(), c.assignment.tolist(), 3, 2, [(1, 1, (0,))], (0,)
        )
        assert tensor.costs[(0, 0)] == pytest.approx(expected[0], abs=1e-12)
        # without rivals nothing they touched changes, so the cost is zero
        assert tensor.costs[(0, 0)] == 0.0


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
            resource_id=2, resource_load=15,
            participants=(
                Participant(0, 3, select_strategies(generate_strategy_set(3), 2)),
                Participant(1, 6, select_strategies(generate_strategy_set(6), 2)),
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
                resource_id=2, resource_load=15,
                participants=tuple(
                    Participant(p.player_id, p.request, select_strategies(p.strategies, ns))
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
            resource_id=2, resource_load=2,
            participants=(Participant(0, 1, (0,)), Participant(1, 1, (0,))),
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
            resource_id=2, resource_load=8,
            participants=(
                Participant(0, 4, generate_strategy_set(4)),
                Participant(1, 5, generate_strategy_set(5)),
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
            resource_id=2, resource_load=8,
            participants=(
                Participant(0, 4, generate_strategy_set(4)),
                Participant(1, 5, generate_strategy_set(5)),
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
        apply_and_evaluate(ds, c, objectives(ds, c), [(line20_game(), eq)])
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
                participants.append(Participant(pid, request, generate_strategy_set(request)))
            game = LocalGame(
                resource_id=resource, resource_load=loads[-1],
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
