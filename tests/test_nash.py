import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gameclust import (
    FALLBACK_MIN_SOCIAL_COST,
    PURE_NASH,
    Clustering,
    Dataset,
    LocalGame,
    Participant,
    PayoffTensor,
    build_payoff_tensor,
    find_pure_nash,
)

from oracles import pure_nash_pick, pure_nash_set, tensor_as_dict


def tensor_from(costs):
    costs = np.asarray(costs, dtype=np.float64)
    return PayoffTensor(costs)


class TestSmallGames:
    def test_single_joint_is_trivially_nash(self):
        result = find_pure_nash(tensor_from([[3.5]]))
        assert result.joint == (0,)
        assert result.kind == PURE_NASH
        assert result.costs == (3.5,)

    def test_dominant_strategies(self):
        # costs: each player strictly prefers strategy 0 whatever the rival does
        costs = np.zeros((2, 2, 2))
        for a, b in itertools.product(range(2), range(2)):
            costs[a, b, 0] = a * 10 + b * 0.1
            costs[a, b, 1] = b * 10 + a * 0.1
        result = find_pure_nash(tensor_from(costs))
        assert result.joint == (0, 0)
        assert result.kind == PURE_NASH
        # exhaustive deviation check
        for i in range(2):
            for alt in range(2):
                deviated = list(result.joint)
                deviated[i] = alt
                assert costs[result.joint][i] <= costs[tuple(deviated)][i]

    def test_matching_pennies_has_no_pure_equilibrium(self):
        # player 0 wants to match, player 1 wants to mismatch: cycle, no pure NE
        costs = np.zeros((2, 2, 2))
        for a, b in itertools.product(range(2), range(2)):
            costs[a, b, 0] = 0.0 if a == b else 1.0
            costs[a, b, 1] = 1.0 if a == b else 0.0
        result = find_pure_nash(tensor_from(costs))
        assert result.kind == FALLBACK_MIN_SOCIAL_COST
        assert pure_nash_set(tensor_as_dict(costs)) == []
        # fallback is the lexicographically first minimum-social-cost joint
        assert result.joint == (0, 0)

    def test_min_social_cost_breaks_multiplicity(self):
        # two pure equilibria; the one with smaller total cost is returned
        costs = np.array(
            [
                [[1.0, 1.0], [5.0, 5.0]],
                [[5.0, 5.0], [0.5, 0.5]],
            ]
        )
        result = find_pure_nash(tensor_from(costs))
        assert result.joint == (1, 1)
        assert result.kind == PURE_NASH

    def test_lexicographic_among_equal_social_cost(self):
        # constant tensor: every joint is an equilibrium with equal social cost
        costs = np.full((2, 3, 2), 2.0)
        result = find_pure_nash(tensor_from(costs))
        assert result.joint == (0, 0)
        assert result.kind == PURE_NASH


class TestOracleEquivalence:
    def test_random_tensors_match_bruteforce(self):
        rng = np.random.default_rng(20240917)
        for _ in range(200):
            n_p = int(rng.integers(2, 4))
            sizes = tuple(int(rng.integers(1, 6)) for _ in range(n_p))
            # two-decimal rounding creates ties so multiplicity paths get hit
            costs = np.round(rng.random(sizes + (n_p,)), 2)
            result = find_pure_nash(tensor_from(costs))
            equilibria = pure_nash_set(tensor_as_dict(costs))
            if equilibria:
                assert result.kind == PURE_NASH
                assert result.joint in equilibria
                social = costs.sum(axis=-1)
                best = min(float(social[e]) for e in equilibria)
                assert float(social[result.joint]) == pytest.approx(best, abs=0)
            else:
                assert result.kind == FALLBACK_MIN_SOCIAL_COST

    def test_survives_unilateral_deviation_check(self):
        rng = np.random.default_rng(777)
        for _ in range(50):
            sizes = tuple(int(rng.integers(2, 5)) for _ in range(2))
            costs = np.round(rng.random(sizes + (2,)), 1)
            result = find_pure_nash(tensor_from(costs))
            if result.kind != PURE_NASH:
                continue
            for i in range(2):
                for alt in range(sizes[i]):
                    deviated = list(result.joint)
                    deviated[i] = alt
                    assert costs[result.joint][i] <= costs[tuple(deviated)][i]


@st.composite
def tied_tensors(draw):
    """Integer costs, so ties abound, with some joints on the build's infeasible plateau of ``inf``."""
    sizes = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    mode = draw(st.sampled_from(["ties", "spread", "constant-sum"]))
    if mode == "ties":  # few cost levels: many equilibria of equal social cost
        top = draw(st.sampled_from([1, 3]))
        share_feasible = draw(st.sampled_from([1.0, 0.8, 0.4]))
    else:  # many levels and no plateau: often no pure equilibrium, so the fallback runs
        top, share_feasible = 1000, 1.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    costs = rng.integers(0, top + 1, size=sizes + (len(sizes),)).astype(float)
    if mode == "constant-sum":  # every joint has the same social cost, so the pick is lexicographic
        costs[..., -1] = top * (len(sizes) - 1) - costs[..., :-1].sum(axis=-1)
    feasible = rng.random(sizes) < share_feasible
    costs[~feasible] = np.inf  # as build_payoff_tensor does
    return PayoffTensor(costs)


class TestPickMatchesBruteForce:
    @given(tied_tensors())
    @settings(max_examples=200, deadline=None)
    def test_joint_kind_and_costs_equal_the_oracle(self, tensor):
        joint, kind, costs = pure_nash_pick(tensor_as_dict(tensor.costs))
        result = find_pure_nash(tensor)
        assert (result.joint, result.kind, result.costs) == (joint, kind, costs)


@st.composite
def sparse_tensors(draw):
    """Small integer costs with a share of ``+inf`` joints, from none to all of them."""
    sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    share_feasible = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    costs = rng.integers(0, 4, size=sizes + (len(sizes),)).astype(float)
    costs[rng.random(sizes) >= share_feasible] = np.inf
    return PayoffTensor(costs)


class TestEquilibriaAreFeasible:
    """A pure equilibrium is a feasible joint that no participant improves on alone."""

    def test_infeasible_joint_with_infeasible_deviations_is_not_an_equilibrium(self):
        # 28 points on a 6x6 grid, loads (6, 12, 10): players 0 and 2 ask resource 1
        # for 11 and 12 units.  Joint (0, 0) moves all 23 and every single deviation
        # from it still moves more than 11, so each participant's cost is +inf along
        # its own axis; it is still no equilibrium, and the game has none
        dataset = Dataset([
            [4, 3], [2, 3], [2, 5], [2, 4], [3, 2], [3, 5], [0, 2], [2, 1], [0, 2], [2, 0],
            [5, 4], [1, 1], [2, 4], [3, 1], [1, 1], [5, 3], [5, 4], [3, 0], [0, 0], [5, 3],
            [2, 3], [0, 0], [2, 3], [3, 2], [3, 5], [4, 1], [4, 3], [1, 0],
        ])
        assignment = [2, 0, 0, 0, 1, 1, 0, 2, 2, 0, 1, 0, 2, 2, 1, 1, 1, 1, 1, 2, 2, 2, 2, 1, 2, 1, 1, 1]
        clustering = Clustering.from_assignment(dataset, assignment, 3)
        assert clustering.loads.tolist() == [6, 12, 10]
        game = LocalGame(1, (Participant(0, 11, 2), Participant(2, 12, 2)))
        tensor = build_payoff_tensor(dataset, clustering, game)
        assert tensor.shape == (6, 7) and np.count_nonzero(tensor.feasible) == 20
        assert np.isinf(tensor.costs[0, 0]).all()
        assert pure_nash_set(tensor_as_dict(tensor.costs)) == []
        result = find_pure_nash(tensor)
        assert (result.joint, result.kind) == ((4, 6), FALLBACK_MIN_SOCIAL_COST)
        assert np.isfinite(result.costs).all()
        assert game.transfers(result.joint) == [(0, 3), (2, 1)]

    @given(sparse_tensors())
    @settings(max_examples=300, deadline=None)
    def test_pick_is_feasible_whenever_a_feasible_joint_exists(self, tensor):
        result = find_pure_nash(tensor)
        feasible = np.isfinite(result.costs).all()
        if tensor.feasible.any():
            assert feasible
        else:  # nothing fits: the fallback keeps the first joint
            assert (result.joint, result.kind) == ((0,) * tensor.n_participants, FALLBACK_MIN_SOCIAL_COST)
        assert feasible or result.kind != PURE_NASH


class TestMemory:
    def test_search_keeps_about_two_bytes_per_joint(self):
        # 4,194,304 joints whose one zero-cost joint is the cheapest equilibrium
        rng = np.random.default_rng(0)
        costs = rng.random((2048, 2048, 2))
        costs += 1.0
        costs[0, 0] = 0.0
        tensor = tensor_from(costs)
        tracemalloc.start()
        try:
            result = find_pure_nash(tensor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (result.joint, result.kind) == ((0, 0), PURE_NASH)
        assert peak <= 2.5 * tensor.joint_count

    def test_every_joint_an_equilibrium_in_fortran_order(self):
        # 1,048,576 joints of equal cost: each is an equilibrium, and the first wins
        tensor = tensor_from(np.asfortranarray(np.ones((1024, 1024, 2))))
        tracemalloc.start()
        try:
            result = find_pure_nash(tensor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (result.joint, result.kind) == ((0, 0), PURE_NASH)
        # two flags and one flat index per joint, and one block's social costs
        assert peak <= 10.5 * tensor.joint_count
