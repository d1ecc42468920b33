import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gameclust import (
    Clustering,
    ConfigError,
    Dataset,
    EquilibriumResult,
    LocalGame,
    PURE_NASH,
    Participant,
    StructuralError,
    apply_and_evaluate,
    build_payoff_tensor,
    classify_roles,
    find_pure_nash,
    ideal_load,
    objectives,
    route_requests,
)

from oracles import apply_per_candidate, simulate_transfers


def forced_eq(game):
    """Equilibrium of a game where every strategy set is a singleton."""
    return EquilibriumResult(joint=(0,) * len(game.participants), kind=PURE_NASH, costs=())


def plan(*solved):
    """The transfer plan of (game, equilibrium) pairs: each game's resource -> its equilibrium's transfers."""
    return {game.resource_id: game.transfers(eq.joint) for game, eq in solved}


class TestApplyAndEvaluate:
    def test_no_games_means_no_change(self, line20):
        ds, c = line20
        new, accepted, _ = apply_and_evaluate(ds, c, objectives(ds, c), {})
        assert accepted is False
        assert new is c

    def test_clustering_of_another_dataset_rejected(self, ds1, line20):
        # line20's 20 points in 1-d against ds1's 150 in 2-d: the build gave a
        # (3, 6) tensor of the wrong points and the apply a numpy ValueError
        ds, c = line20
        game = LocalGame(resource_id=2, participants=(Participant(0, 3), Participant(1, 6)))
        with pytest.raises(StructuralError, match="^clustering covers 20 points, dataset has 150$"):
            build_payoff_tensor(ds1, c, game)
        with pytest.raises(StructuralError, match="^clustering covers 20 points, dataset has 150$"):
            apply_and_evaluate(ds1, c, objectives(ds, c), {2: [(0, 3), (1, 6)]})

    def test_balancing_transfer_accepted(self):
        # moving the stray point at 5 balances loads and shrinks SSE
        ds = Dataset(points=[[0.0], [1.0], [5.0], [10.0]])
        c = Clustering.from_assignment(ds, [0, 0, 0, 1], 2)
        game = LocalGame(
            resource_id=0,
            participants=(Participant(1, 1),),
        )
        before = objectives(ds, c)
        new, accepted, _ = apply_and_evaluate(ds, c, before, plan((game, forced_eq(game))))
        assert accepted is True
        assert new.loads.tolist() == [2, 2]
        assert new.assignment.tolist() == [0, 0, 1, 1]
        after = objectives(ds, new)
        assert after.sse < before.sse
        assert after.load_metric < before.load_metric
        # centers were recomputed as means
        assert new.centers.ravel().tolist() == [0.5, 7.5]

    def test_worsening_transfer_rejected(self):
        # pulling a far point into a tight cluster worsens both objectives
        ds = Dataset(points=[[0.0], [1.0], [9.0], [10.0], [11.0]])
        c = Clustering.from_assignment(ds, [0, 0, 1, 1, 1], 2)
        game = LocalGame(
            resource_id=0,
            participants=(Participant(1, 1),),
        )
        new, accepted, _ = apply_and_evaluate(ds, c, objectives(ds, c), plan((game, forced_eq(game))))
        assert accepted is False
        assert new is c
        assert np.array_equal(new.assignment, c.assignment)

    def test_zero_old_l_convention(self):
        # balanced clustering: a transfer that unbalances it must be rejected
        ds = Dataset(points=[[0.0], [1.0], [9.0], [10.0]])
        c = Clustering.from_assignment(ds, [0, 0, 1, 1], 2)
        game = LocalGame(
            resource_id=1,
            participants=(Participant(0, 1),),
        )
        new, accepted, _ = apply_and_evaluate(ds, c, objectives(ds, c), plan((game, forced_eq(game))))
        assert accepted is False
        assert new is c

    @pytest.mark.parametrize(
        "far, units, kept, final_l",
        [(0.0, 2, True, 0.0), (0.0, 4, False, 8.0), (10.0, 2, False, 8.0)],
        ids=["balancing", "equal-l", "sse-grows"],
    )
    def test_zero_old_sse_convention(self, far, units, kept, final_l):
        # SSE 0 before the games: a transfer is kept only when SSE stays 0
        # and L falls, so an equal L is dropped and so is any SSE
        ds = Dataset(points=[[0.0]] * 5 + [[far]])
        c = Clustering.from_assignment(ds, [0, 0, 0, 0, 0, 1], 2)
        pre = objectives(ds, c)
        assert (pre.sse, pre.load_metric) == (0.0, 8.0)
        new, accepted, state = apply_and_evaluate(ds, c, pre, {0: [(1, units)]})
        assert accepted is kept
        assert (state.sse, state.load_metric) == (0.0 if kept else pre.sse, final_l)
        assert state == objectives(ds, new)

    def test_infeasible_transfer_rolls_back(self):
        # two forced takers, but the resource can spare only one point
        ds = Dataset(points=[[0.0], [0.3], [10.0], [10.2]])
        c = Clustering.from_assignment(ds, [0, 1, 2, 2], 3)
        game = LocalGame(
            resource_id=2,
            participants=(Participant(0, 1), Participant(1, 1)),
        )
        new, accepted, _ = apply_and_evaluate(ds, c, objectives(ds, c), plan((game, forced_eq(game))))
        assert accepted is False
        assert new is c

    def test_accepted_reallocation_conserves_points(self, line20):
        ds, c = line20
        game = LocalGame(
            resource_id=2,
            participants=(
                Participant(0, 3),
                Participant(1, 6),
            ),
        )
        tensor = build_payoff_tensor(ds, c, game)
        eq = find_pure_nash(tensor)
        new, accepted, _ = apply_and_evaluate(ds, c, objectives(ds, c), plan((game, eq)))
        assert int(new.loads.sum()) == ds.n
        assert new.loads.min() >= 1
        if accepted:
            before, after = objectives(ds, c), objectives(ds, new)
            assert after.sse / before.sse + after.load_metric / before.load_metric < 2.0

    def test_input_clustering_never_mutated(self, line20):
        ds, c = line20
        snapshot = c.assignment.copy()
        game = LocalGame(
            resource_id=2,
            participants=(Participant(1, 6),),
        )
        tensor = build_payoff_tensor(ds, c, game)
        apply_and_evaluate(ds, c, objectives(ds, c), plan((game, find_pure_nash(tensor))))
        assert np.array_equal(c.assignment, snapshot)

    def test_covered_request_served_in_full(self):
        # cluster 0 spares 2 points, which covers cluster 1's request of 2:
        # no game, and the player receives both points nearest its center
        ds = Dataset(points=[[0.0], [0.1], [0.2], [0.3], [0.4], [4.5], [5.0], [10.0], [10.1], [10.2]])
        c = Clustering.from_assignment(ds, [0] * 7 + [1] * 3, 2)
        new, accepted, _ = apply_and_evaluate(ds, c, objectives(ds, c), {0: [(1, 2)]})
        assert accepted is True
        assert new.assignment.tolist() == [0] * 5 + [1] * 5
        assert np.array_equal(c.assignment, [0] * 7 + [1] * 3)

    def test_each_resource_decided_on_its_own(self):
        # resource 0's equilibrium drains it to one point and raises L; resource
        # 2's single transfer lowers both objectives and must be kept anyway
        xs = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 3.0, 3.1, 10.0, 10.1, 10.2, 10.3, 12.0, 13.0, 13.1, 13.2]
        ds = Dataset(points=np.array(xs).reshape(-1, 1))
        c = Clustering.from_assignment(ds, [0] * 6 + [1] * 2 + [2] * 5 + [3] * 3, 4)
        draining = LocalGame(resource_id=0, participants=(Participant(1, 5, 4),))
        paying = LocalGame(resource_id=2, participants=(Participant(3, 1),))

        def score(state):
            before, after = objectives(ds, c), objectives(ds, state)
            return after.sse / before.sse + after.load_metric / before.load_metric

        alone, accepted, _ = apply_and_evaluate(ds, c, objectives(ds, c), plan((draining, forced_eq(draining))))
        assert accepted is False and alone is c
        new, accepted, _ = apply_and_evaluate(
            ds, c, objectives(ds, c), plan((draining, forced_eq(draining)), (paying, forced_eq(paying)))
        )
        assert accepted is True
        assert new.loads.tolist() == [6, 2, 4, 4]
        assert new.assignment[12] == 3  # the point at 12.0 moved to the player at 13
        assert score(new) < 2.0

    def test_moves_exactly_the_oracle_points(self):
        # ties in distance, two players sharing one resource, every joint
        rng = np.random.default_rng(20240)
        kept = 0
        for _ in range(6):
            loads = [int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(8, 12))]
            points = [
                [float(rng.integers(0, 3)) + 1.5 * cid, float(rng.integers(0, 3))]
                for cid, load in enumerate(loads) for _ in range(load)
            ]
            assignment = [cid for cid, load in enumerate(loads) for _ in range(load)]
            ds = Dataset(points=points)
            c = Clustering.from_assignment(ds, assignment, 3)
            game = LocalGame(
                resource_id=2,
                participants=(Participant(0, 4), Participant(1, 5)),
            )
            for joint in np.ndindex(*game.shape):
                eq = EquilibriumResult(joint=joint, kind=PURE_NASH, costs=())
                new, accepted, state = apply_and_evaluate(ds, c, objectives(ds, c), plan((game, eq)))
                moves = [(0, 4 - joint[0]), (1, 5 - joint[1])]
                expected = simulate_transfers(points, assignment, 2, moves)
                if not accepted:
                    assert new is c
                    continue
                kept += 1
                assert new.assignment.tolist() == expected
                assert state == objectives(ds, new)
        assert kept > 0


def _random_case(ds, seed, k, spatial, overdraw):
    """A clustering of ``ds`` and a transfer plan for it, as the game phase builds them.

    ``spatial`` clusters by the nearest of k random points (uneven loads),
    otherwise assigns points at random.  Each routed resource gets its
    requests in full when its spare units cover them (covered), else a
    random number of units per player, as an equilibrium would: 1 to the
    request, or with ``overdraw`` 1 to the resource's load, which can
    empty it.  Resources with nothing routed get an empty list.
    """
    rng = np.random.default_rng(seed)
    n = ds.n
    seeds = rng.choice(n, size=k, replace=False)
    if spatial:
        d2 = ((ds.points[:, None, :] - ds.points[seeds][None, :, :]) ** 2).sum(-1)
        assignment = d2.argmin(axis=1)
    else:
        assignment = rng.integers(k, size=n)
    assignment[seeds] = np.arange(k)  # every cluster keeps its seed point
    c = Clustering.from_assignment(ds, assignment, k)
    ideal = ideal_load(n, k)
    roles = classify_roles(c, ideal)
    spare = dict(roles.resources)
    plan = {}
    for rid, routed in route_requests(roles, c).items():
        if sum(request for _, request in routed) <= spare[rid]:
            plan[rid] = list(routed)
        else:
            plan[rid] = [
                (pid, int(rng.integers(1, (int(c.loads[rid]) if overdraw else request) + 1)))
                for pid, request in routed
            ]
    return c, plan


class TestTakersRule:
    """Each plan entry, sorted, names other clusters, each once, in ascending id, and moves whole units."""

    # ds1 at k = 4 (loads [24, 45, 21, 60]), the behaviour before the rule
    # was checked in the comment above each plan
    @pytest.mark.parametrize(
        "plan, match",
        [
            # numpy ValueError: 'list' argument must have no negative elements
            ({3: [(-1, 2)]}, "player id must be >= 0, got -1"),
            # IndexError: index 9 is out of bounds for axis 0 with size 4
            ({3: [(9, 2)]}, "player id 9 is not a cluster below k = 4"),
            # moved 3 points to cluster 0 and kept them
            ({3: [(0, 2), (0, 1)]}, "player 0 follows player 0"),
            # dropped silently: the points moved from cluster 3 to itself
            ({3: [(3, 2)]}, "player 3 is resource 3"),
            # accepted=True with the clustering unchanged, and a kept state
            # scored on loads that clustering does not have
            ({-1: [(0, 2)]}, "resource id must be >= 0, got -1"),
            # accepted=True with loads [27, 45, 22, 56] and a kept state (SSE
            # 2200.58, L 893) that is not the returned clustering's (2177.23, 749)
            ({3: [(0, 3), (2, -1)]}, "units must be >= 1, got -1"),
            # TypeError from a slice
            ({3: [(0, 1.5)]}, "units must be an integer, got 1.5"),
        ],
        ids=[
            "minus-one", "k-or-more", "repeated", "resource", "resource-minus-one",
            "negative-units", "fractional-units",
        ],
    )
    def test_plan_breaking_the_rule_rejected(self, ds1, ds1_k4, plan, match):
        with pytest.raises(ConfigError, match=match):
            apply_and_evaluate(ds1, ds1_k4, objectives(ds1, ds1_k4), plan)


class TestAgainstPerCandidateReference:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_reference_exactly(self, ds1, seed, k, spatial, overdraw):
        c, plan = _random_case(ds1, seed, k, spatial, overdraw)
        pre = objectives(ds1, c)
        new, accepted, state = apply_and_evaluate(ds1, c, pre, plan)
        ref, ref_accepted, ref_state = apply_per_candidate(ds1, c, pre, plan)
        assert accepted is ref_accepted
        assert state == ref_state
        if not accepted:
            assert new is c and ref is c
            return
        assert np.array_equal(new.assignment, ref.assignment)
        assert np.array_equal(new.centers, ref.centers)
        assert np.array_equal(new.loads, ref.loads)

    def test_one_clustering_per_kept_state(self, ds1, monkeypatch):
        build = Clustering.from_assignment
        calls = []

        def counted(dataset, assignment, k):
            calls.append(k)
            return build(dataset, assignment, k)

        cases = [_random_case(ds1, seed, 2 + seed % 9, seed % 2 == 0, seed % 3 == 0) for seed in range(40)]
        pres = [objectives(ds1, c) for c, _ in cases]
        monkeypatch.setattr(Clustering, "from_assignment", staticmethod(counted))
        outcomes = []
        for (c, plan), pre in zip(cases, pres):
            calls.clear()
            _, accepted, _ = apply_and_evaluate(ds1, c, pre, plan)
            assert len(calls) == (1 if accepted else 0)
            outcomes.append(accepted)
        assert True in outcomes and False in outcomes

    @pytest.mark.parametrize("sites", [[[0.0, 0.0], [5.0, 5.0], [9.0, 1.0]], [[2.0, 2.0]] * 3])
    def test_both_pre_terms_zero_equals_reference(self, sites):
        # each cluster sits on one site, two points each: SSE 0 and L 0
        ds = Dataset(points=np.repeat(sites, 2, axis=0))
        c = Clustering.from_assignment(ds, [0, 0, 1, 1, 2, 2], 3)
        pre = objectives(ds, c)
        assert pre.sse == 0 and pre.load_metric == 0
        plans = [{r: [(p, u)]} for r in range(3) for p in range(3) if p != r for u in (1, 2)]
        plans += [{0: [(1, 1)], 1: [(2, 1)], 2: [(0, 1)]}, {0: [(1, 1), (2, 1)]}]
        for p in plans:
            new, accepted, state = apply_and_evaluate(ds, c, pre, p)
            ref, ref_accepted, ref_state = apply_per_candidate(ds, c, pre, p)
            assert (accepted, state) == (ref_accepted, ref_state), p
            assert new is c and ref is c
