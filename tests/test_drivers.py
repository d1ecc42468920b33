import dataclasses
import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gameclust import (
    ALGORITHMS,
    ConfigError,
    Dataset,
    ImprovementReport,
    KMeansConfig,
    ObjectiveState,
    RunConfig,
    TensorTooLargeError,
    VariantSummary,
    build_payoff_tensor,
    classify_roles,
    conflicted_games,
    find_pure_nash,
    ideal_load,
    improvement_report,
    init_centers,
    lloyd_full,
    lloyd_iteration,
    objectives,
    paired_compare,
    route_requests,
    run_algorithm,
)
from gameclust import drivers, game_engine

from oracles import run_gtkmeans_reference, run_pkgame_reference

# seed 2 makes the first Lloyd step of the 20-point line instance land on
# loads that are a permutation of [4, 1, 15] (pinned by search)
LINE20_SEED = 2


def line20_dataset():
    xs = [0.0, 0.4, 0.8, 1.2, 5.0] + [9.0 + 0.2 * i for i in range(15)]
    return Dataset(points=np.array(xs).reshape(-1, 1))


class TestRunGtkmeans:
    def test_balanced_dataset_plays_no_games(self):
        # seed 1 picks one center in each pair (pinned), so the very first
        # Lloyd step is already balanced
        ds = Dataset(points=[[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        report = run_algorithm(ds, RunConfig(k=2, seed=1))
        assert report.games_played == 0
        assert report.avg_strategies_per_player == 0.0
        km, _ = lloyd_full(ds, init_centers(ds, KMeansConfig(k=2, seed=1)), 100)
        assert report.final == objectives(ds, km)

    def test_worked_example_game_structure(self):
        report = run_algorithm(line20_dataset(), RunConfig(k=3, seed=LINE20_SEED))
        first = report.trace[0]
        assert len(first.games) == 1
        assert sorted(first.games[0].game.shape) == [3, 6]
        assert sorted(p.request for p in first.games[0].game.participants) == [3, 6]

    def test_worked_example_records_its_game_and_equilibrium(self):
        ds = line20_dataset()
        report = run_algorithm(ds, RunConfig(k=3, seed=LINE20_SEED))
        c = lloyd_iteration(ds, init_centers(ds, KMeansConfig(k=3, seed=LINE20_SEED)))
        roles = classify_roles(c, ideal_load(ds.n, 3))
        game = conflicted_games(roles, route_requests(roles, c))[0]
        tensor = build_payoff_tensor(ds, c, game)
        record = report.trace[0].games[0]
        assert record.game == game
        assert record.equilibrium == find_pure_nash(tensor)
        assert record.feasible_fraction == tensor.feasible.mean()

    def test_worked_example_with_selection(self):
        report = run_algorithm(line20_dataset(), RunConfig(k=3, seed=LINE20_SEED, ns=2))
        first = report.trace[0]
        assert len(first.games) == 1
        assert sorted(first.games[0].game.shape) == [2, 4]

    def test_terminates_and_reports(self, ds1):
        report = run_algorithm(ds1, RunConfig(k=6, seed=0))
        assert 1 <= report.outer_iterations <= 100
        # k=6 seed 0 stops on a repeated post-Lloyd assignment (pinned): its
        # last Lloyd step finds the repeat, and no game phase follows it
        assert report.termination == "cycle"
        assert report.kmeans_iterations == report.outer_iterations + 1
        assert report.wall_time_s >= 0
        assert report.games_played == len(report.payoff_entry_counts)
        assert len(report.trace) == report.outer_iterations

    def test_counts_follow_the_trace(self, ds1):
        # k=6 seed 2 plays two games in its first iteration and more after it (pinned)
        report = run_algorithm(ds1, RunConfig(k=6, seed=2))
        assert report.outer_iterations > 1 and report.games_played > 2
        first = dataclasses.replace(report, trace=report.trace[:1])
        assert [g.game.shape for g in first.trace[0].games] == [(6, 19), (17,)]
        assert first.outer_iterations == 1
        assert first.games_played == 2
        assert first.payoff_entry_counts == (6 * 19, 17)
        assert first.avg_strategies_per_player == (6 + 19 + 17) / 3

    def test_improvement_follows_initial_and_final(self, ds1):
        report = run_algorithm(ds1, RunConfig(k=6, seed=2))
        assert "improvement" not in {f.name for f in dataclasses.fields(report)}
        assert report.improvement == improvement_report(report.initial, report.final)
        unchanged = dataclasses.replace(report, final=report.initial)
        assert unchanged.improvement == ImprovementReport(0.0, 0.0)

    def test_accepted_follows_the_reallocation_score(self, ds1):
        report = run_algorithm(ds1, RunConfig(k=6, seed=2))
        assert "accepted" not in {f.name for f in dataclasses.fields(drivers.IterationRecord)}
        record = next(r for r in report.trace if r.reallocation_score is not None)
        assert record.accepted is True
        assert dataclasses.replace(record, reallocation_score=None).accepted is False

    def test_point_count_conserved_every_iteration(self, ds1):
        report = run_algorithm(ds1, RunConfig(k=7, seed=5))
        for record in report.trace:
            assert sum(record.loads_end) == ds1.n
            assert min(record.loads_end) >= 1

    def test_accepted_reallocations_always_score_below_two(self, ds1):
        for seed in range(4):
            report = run_algorithm(ds1, RunConfig(k=8, seed=seed))
            for record in report.trace:
                assert (record.reallocation_score is None) is not record.accepted
                if record.accepted:
                    assert record.reallocation_score < 2.0

    def test_a_move_that_changes_neither_objective_is_not_kept(self):
        # the first Lloyd step leaves SSE 0 and L 8/3; the one move the games
        # offer keeps both as they are, so it is dropped and the run converges
        ds = Dataset(points=[[5.0, 5.0]] * 4 + [[3.0, 2.0]] * 3)
        report = run_algorithm(ds, RunConfig(k=3, seed=16))
        assert report.termination == "converged"
        assert not any(record.accepted for record in report.trace)
        assert (report.final.sse, report.final.load_metric) == (0.0, 8 / 3)

    def test_determinism(self, ds1):
        a = run_algorithm(ds1, RunConfig(k=5, seed=9))
        b = run_algorithm(ds1, RunConfig(k=5, seed=9))
        assert a.final == b.final
        assert a.payoff_entry_counts == b.payoff_entry_counts
        assert np.array_equal(a.final_clustering.assignment, b.final_clustering.assignment)

    def test_lloyd_game_cycle_stops_on_the_repeated_state(self, ds1):
        # k=8 seed 6 falls into a Lloyd-game cycle: each accepted reallocation
        # is undone by the next Lloyd step
        a = run_algorithm(ds1, RunConfig(k=8, seed=6))
        assert a.termination == "cycle"
        assert a.outer_iterations < 100
        assert len(a.trace) == a.outer_iterations
        # the cycle is the last iteration alone (pinned): Lloyd step 14
        # repeats step 13's assignment, and no game phase follows it
        assert a.kmeans_iterations == a.outer_iterations + 1
        cycle = [(r.sse_end, r.l_end) for r in a.trace[-1:]]
        # the reported state is one the cycle passed through, the best of them
        assert (a.final.sse, a.final.load_metric) in cycle

        def score(sse_value, l_value):
            return sse_value / a.initial.sse + l_value / a.initial.load_metric

        assert all(score(a.final.sse, a.final.load_metric) <= score(*end) for end in cycle)
        b = run_algorithm(ds1, RunConfig(k=8, seed=6))
        assert (b.termination, b.outer_iterations, b.final) == (a.termination, a.outer_iterations, a.final)
        assert np.array_equal(a.final_clustering.assignment, b.final_clustering.assignment)

    def test_termination_reasons(self, ds1):
        from gameclust import TERMINATIONS

        assert set(TERMINATIONS) == {"converged", "cycle", "budget"}
        converged = run_algorithm(Dataset(points=[[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]]),
                                 RunConfig(k=2, seed=1))
        assert converged.termination == "converged"
        capped = run_algorithm(ds1, RunConfig(k=8, seed=6, max_outer_iterations=2))
        assert capped.termination == "budget"
        assert capped.outer_iterations == 2

    def test_covered_request_served_without_a_game(self):
        # Lloyd from seed 2 settles on loads [7, 3]; cluster 0's two spare
        # points cover cluster 1's request, so no game is played and the
        # player receives the two points nearest its center
        ds = Dataset(points=[[0.0], [0.1], [0.2], [0.3], [0.4], [4.5], [5.0], [10.0], [10.1], [10.2]])
        report = run_algorithm(ds, RunConfig(k=2, seed=2, algorithm="pkgame"))
        assert report.games_played == 0
        assert report.trace[0].l_before_games == 8.0
        assert report.trace[0].accepted is True
        assert report.final_clustering.assignment.tolist() == [0] * 5 + [1] * 5
        assert report.final.load_metric == 0.0
        assert report.termination == "converged"

    def test_first_iteration_games_shrink_under_selection(self, ds1):
        # identical initial clustering means identical first-iteration games,
        # where pruned sets are never larger
        for seed in (0, 3, 7):
            base = run_algorithm(ds1, RunConfig(k=8, seed=seed))
            pruned = run_algorithm(ds1, RunConfig(k=8, seed=seed, ns=3))
            g0, g1 = base.trace[0].games, pruned.trace[0].games
            assert [g.game.resource_id for g in g0] == [g.game.resource_id for g in g1]
            for a, b in zip(g0, g1):
                assert b.game.shape <= a.game.shape
                assert b.game.joint_count <= a.game.joint_count


REFERENCES = {"gtkmeans": run_gtkmeans_reference, "pkgame": run_pkgame_reference}


def assert_same_run(report, ref):
    """A run equals its reference run in everything but wall time; a gtkmeans run has one more Lloyd step than records."""
    assert np.array_equal(report.final_clustering.assignment, ref.final_clustering.assignment)
    assert np.array_equal(report.final_clustering.centers, ref.final_clustering.centers)
    assert (report.initial, report.final) == (ref.initial, ref.final)
    assert (report.termination, report.kmeans_iterations) == (ref.termination, ref.kmeans_iterations)
    assert report.trace == ref.trace
    if report.config.algorithm == "gtkmeans":
        assert report.kmeans_iterations == report.outer_iterations + 1


@st.composite
def integer_grid_runs(draw):
    """A run of either engine on points of the integer grid [-3, 3]^dim, so distances tie and points repeat.

    n is at most 40 and k divides it in about half the draws.
    """
    k = draw(st.integers(2, 6))
    rest = 0 if draw(st.booleans()) else draw(st.integers(1, k - 1))
    n = k * draw(st.integers(1, (40 - rest) // k)) + rest
    dim = draw(st.integers(1, 3))
    coordinate = st.integers(-3, 3)
    points = draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim), min_size=n, max_size=n))
    config = RunConfig(
        k=k,
        seed=draw(st.integers(0, 2**32 - 1)),
        ns=draw(st.sampled_from([None, 1, 2, 3])),
        max_outer_iterations=draw(st.sampled_from([1, 3, 100])),
        algorithm=draw(st.sampled_from(ALGORITHMS)),
    )
    return Dataset(points=np.array(points, dtype=np.float64)), config


# Three runs the draws above seldom reach, found by a random search over
# the same space: a gtkmeans reallocation whose score ties the kept state's,
# so only a strict ``<`` rejects it; a gtkmeans cycle whose end states
# include two of equal score, so the earliest must win; and a pkgame player
# whose center is as near two resources' centers, so the lower resource id
# must win.
SCORE_TIE = (
    Dataset(points=[[1, 2], [-1, 1], [-1, 1], [2, 1], [-1, -1], [2, 2], [1, -1], [0, -2], [-1, 1], [-2, -2], [2, 2]]),
    RunConfig(k=4, seed=3895660839, ns=2),
)
CYCLE_TIE = (
    Dataset(points=np.array([1, 0, 1, -1, 0, 1, -1, -1, 0, 0, 1, 1, 1, -1, -1, -1, 0, 0, 0]).reshape(-1, 1)),
    RunConfig(k=2, seed=1773862476),
)
ROUTE_TIE = (
    Dataset(points=np.array([1, -3, 0, -1, 3, -1, 3, 3]).reshape(-1, 1)),
    RunConfig(k=5, seed=3760679096, ns=2, algorithm="pkgame"),
)


# Start loads [3, 2] against the ideal 5/2: every load is within one unit of
# it, yet the roles give one player requesting a point and one resource with
# none spare, so the phase plays a one-joint game that moves point 2 (at 3.0)
# to the cluster of 6.0 and 4.0.  It lowers the SSE from 20/3 to 31/6 at the
# same L, so it is kept; gtkmeans' next phase plays again and keeps nothing.
WITHIN_ONE_UNIT = Dataset(points=[[6.0], [4.0], [3.0], [0.0], [1.0]])


class TestAgainstReference:
    @pytest.mark.parametrize("algorithm, accepted", [("gtkmeans", [True, False]), ("pkgame", [True])])
    def test_loads_within_one_unit_of_a_fractional_ideal_still_play(self, algorithm, accepted):
        config = RunConfig(k=2, seed=1, algorithm=algorithm)
        report = run_algorithm(WITHIN_ONE_UNIT, config)
        assert report.initial == ObjectiveState(sse=pytest.approx(20 / 3), load_metric=0.5)
        assert [record.accepted for record in report.trace] == accepted
        assert report.games_played == len(accepted)
        assert all(g.game.joint_count == 1 for record in report.trace for g in record.games)
        assert report.final_clustering.assignment.tolist() == [0, 0, 0, 1, 1]
        assert report.final == ObjectiveState(sse=pytest.approx(31 / 6), load_metric=0.5)
        assert report.termination == "converged"
        assert_same_run(report, REFERENCES[algorithm](WITHIN_ONE_UNIT, config))

    @given(integer_grid_runs())
    @example(SCORE_TIE)
    @example(CYCLE_TIE)
    @example(ROUTE_TIE)
    @settings(max_examples=150, deadline=None)
    def test_integer_grids(self, run):
        dataset, config = run
        assert_same_run(run_algorithm(dataset, config), REFERENCES[config.algorithm](dataset, config))

    def test_ds1_grid(self, ds1):
        reports = []
        for algorithm, k, seed, ns in itertools.product(ALGORITHMS, (2, 4, 8, 12), range(40, 50), (None, 3)):
            config = RunConfig(k=k, seed=seed, ns=ns, algorithm=algorithm)
            reports.append(run_algorithm(ds1, config))
            assert_same_run(reports[-1], REFERENCES[algorithm](ds1, config))
        # the grid reaches both of gtkmeans' stops on a repeated post-Lloyd state
        assert {r.termination for r in reports if r.config.algorithm == "gtkmeans"} == {"converged", "cycle"}

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 6),
        st.integers(0, 48),
        st.sampled_from([None, 1, 2, 3]),
        st.sampled_from([2, 4, 100]),
    )
    @settings(max_examples=200, deadline=None)
    def test_small_inputs(self, seed, k, extra, ns, budget):
        # uneven 2-d blobs on a 0.1 grid, so distance ties happen
        rng = np.random.default_rng(seed)
        n = 2 * k + extra
        blob = rng.integers(k, size=n)
        points = np.round(rng.uniform(0, 10, size=(k, 2))[blob] + rng.normal(0, 1.5, size=(n, 2)), 1)
        dataset = Dataset(points=points)
        config = RunConfig(k=k, seed=seed, ns=ns, max_outer_iterations=budget)
        assert_same_run(run_algorithm(dataset, config), run_gtkmeans_reference(dataset, config))

    def test_converged_after_the_game_phase(self, ds1):
        # k=12 seed 45 ns=3 (pinned): iteration 10 keeps a reallocation,
        # Lloyd step 11 returns that state unchanged and iteration 11 keeps
        # nothing.  Lloyd step 12 repeats step 11's assignment, so the run
        # is converged after 11 records, and a budget of 11 still converges.
        for budget in (11, 100):
            config = RunConfig(k=12, seed=45, ns=3, max_outer_iterations=budget)
            report = run_algorithm(ds1, config)
            assert report.termination == "converged"
            assert report.kmeans_iterations == 12 and report.outer_iterations == 11
            assert report.trace[9].accepted and not report.trace[10].accepted
            assert report.trace[10].loads_end == report.trace[9].loads_end
            assert_same_run(report, run_gtkmeans_reference(ds1, config))

    @pytest.mark.parametrize(
        "seed, budget, termination, sse",
        [
            (10, 5, "converged", 1054.9685811706427),  # iterations 3 to 5 keep nothing; step 6 repeats step 5
            (18, 8, "cycle", 1126.2552558891039),
            (7, 5, "cycle", 1209.615414033853),  # the cycle's best state, below the last one's 1236.70...
        ],
    )
    def test_last_lloyd_step_names_a_budget_run(self, ds1, seed, budget, termination, sse):
        # gtkmeans k=4 on ds1 (pinned): the Lloyd step after the last game
        # phase the budget allows repeats an earlier post-Lloyd state, so
        # the run is named by it rather than by the budget
        config = RunConfig(k=4, seed=seed, max_outer_iterations=budget)
        report = run_algorithm(ds1, config)
        assert (report.termination, report.outer_iterations, report.kmeans_iterations) == (termination, budget, budget + 1)
        assert report.final.sse == sse
        assert_same_run(report, run_gtkmeans_reference(ds1, config))


@st.composite
def ds1_configs(draw):
    """A run of either engine on ds1, k at most 8 so every game stays small; ds1 itself is the fixture's."""
    return None, RunConfig(
        k=draw(st.integers(2, 8)),
        seed=draw(st.integers(0, 2**32 - 1)),
        ns=draw(st.sampled_from([None, 1, 2, 3])),
        max_outer_iterations=draw(st.sampled_from([1, 3, 100])),
        algorithm=draw(st.sampled_from(ALGORITHMS)),
    )


def assert_scaled_run(report, base, p, signs):
    """``report`` is ``base`` rerun on its data times 2**p with axis signs ``signs``, outside wall time.

    Every SSE scales by exactly 4**p and every equilibrium cost by exactly
    2**p (``inf`` stays ``inf``); the final centers scale by 2**p and take
    the signs; everything else is equal.
    """

    def state(s):
        return dataclasses.replace(s, sse=math.ldexp(s.sse, 2 * p))

    def game(g):
        costs = tuple(math.ldexp(c, p) for c in g.equilibrium.costs)
        return dataclasses.replace(g, equilibrium=dataclasses.replace(g.equilibrium, costs=costs))

    def record(r):
        return dataclasses.replace(
            r,
            sse_before_games=math.ldexp(r.sse_before_games, 2 * p),
            sse_end=math.ldexp(r.sse_end, 2 * p),
            games=tuple(game(g) for g in r.games),
        )

    assert np.array_equal(report.final_clustering.assignment, base.final_clustering.assignment)
    assert np.array_equal(report.final_clustering.loads, base.final_clustering.loads)
    assert np.array_equal(report.final_clustering.centers, np.ldexp(base.final_clustering.centers, p) * signs)
    assert (report.config, report.termination, report.kmeans_iterations) == (
        base.config,
        base.termination,
        base.kmeans_iterations,
    )
    assert (report.initial, report.final, report.improvement) == (state(base.initial), state(base.final), base.improvement)
    assert report.trace == tuple(record(r) for r in base.trace)


# Two runs on which an infeasible joint's cost of 1 + the largest feasible
# cost broke the symmetry: past 2**53 the + 1 rounds away, the infeasible
# joints tie with the costliest feasible one, and the equilibrium moved
# from (1, 1) to (0, 0).  In the second the final assignment moved too.
SENTINEL_ROUNDS_FLIPPED = (
    Dataset(points=[[0, 2], [0, -1], [-1, -1], [-1, -1], [-2, 2], [1, -3], [0, 1], [2, 2], [-2, 0], [0, -1], [0, 2], [1, -3], [-2, 0]]),
    RunConfig(k=5, seed=2292975616, max_outer_iterations=1, algorithm="pkgame"),
)
SENTINEL_ROUNDS_NS1 = (
    Dataset(
        points=[[2, 2], [1, 1], [-2, 0], [-2, 1], [0, -3], [3, 1], [3, 1], [1, -3], [1, -3], [0, -1], [2, 2], [-2, -1], [-3, -1], [3, -3]]
    ),
    RunConfig(k=6, seed=2145645819, ns=1, algorithm="pkgame"),
)


class TestExactSymmetries:
    """Scaling every coordinate by a power of two and flipping axes are exact in binary floating point.

    Every sum, square, distance, SSE and payoff then scales by an exact
    power of two, so every comparison a run makes, and so the run, is
    unchanged.  Translation is not exact and is not pinned here.
    """

    @given(
        st.one_of(integer_grid_runs(), ds1_configs()),
        st.integers(-60, 60),
        st.lists(st.booleans(), min_size=3, max_size=3),
    )
    @example(SENTINEL_ROUNDS_FLIPPED, 56, [True, True, False])
    @example(SENTINEL_ROUNDS_NS1, 54, [False, False, False])
    @settings(max_examples=300, deadline=None)
    def test_power_of_two_scale_and_axis_flips(self, ds1, run, p, flips):
        dataset, config = run
        dataset = ds1 if dataset is None else dataset
        signs = np.where(flips[: dataset.dim], -1.0, 1.0)
        base = run_algorithm(dataset, config)
        report = run_algorithm(Dataset(points=np.ldexp(dataset.points, p) * signs), config)
        assert_scaled_run(report, base, p, signs)


class TestRunPkgame:
    def test_balanced_after_kmeans_is_pure_lloyd(self):
        ds = Dataset(points=[[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        report = run_algorithm(ds, RunConfig(k=2, seed=1, algorithm="pkgame"))
        assert report.games_played == 0
        km, _ = lloyd_full(ds, init_centers(ds, KMeansConfig(k=2, seed=1)), 100)
        assert report.final == objectives(ds, km)

    def test_converged_on_the_last_allowed_step(self, ds1):
        # Lloyd from run seed 1 reaches its fixed point on step 7 and sees
        # the assignment repeat on step 8; a budget of 6 stops short of it
        for budget, termination in ((6, "budget"), (7, "converged"), (8, "converged")):
            report = run_algorithm(ds1, RunConfig(k=4, seed=1, max_outer_iterations=budget, algorithm="pkgame"))
            assert report.kmeans_iterations == budget
            assert report.termination == termination

    def test_budget_of_one_stops_after_the_first_step(self, ds1):
        report = run_algorithm(ds1, RunConfig(k=4, seed=1, max_outer_iterations=1, algorithm="pkgame"))
        assert report.kmeans_iterations == 1
        assert len(report.trace) == 1
        record = report.trace[0]
        assert (record.sse_before_games, record.l_before_games) == (report.initial.sse, report.initial.load_metric)
        assert report.termination == "budget"

    def test_single_game_phase_by_construction(self, ds1):
        report = run_algorithm(ds1, RunConfig(k=8, seed=1, algorithm="pkgame"))
        assert report.outer_iterations == 1
        assert len(report.trace) == 1
        assert report.kmeans_iterations >= 1

    def test_games_bounded_by_conflicted_resources(self, ds1):
        for seed in range(5):
            config = RunConfig(k=8, seed=seed, algorithm="pkgame")
            report = run_algorithm(ds1, config)
            centers = init_centers(ds1, KMeansConfig(k=8, seed=seed))
            km, _ = lloyd_full(ds1, centers, 99)
            roles = classify_roles(km, ideal_load(ds1.n, 8))
            assert report.games_played <= len(roles.resources)

    def test_selection_never_grows_games_per_seed(self, ds1):
        # the game phase starts from the same converged clustering, so the
        # per-seed pruning relation is structural for pkgame
        for seed in range(6):
            base = run_algorithm(ds1, RunConfig(k=8, seed=seed, algorithm="pkgame"))
            for ns in (2, 3, 4):
                pruned = run_algorithm(ds1, RunConfig(k=8, seed=seed, ns=ns, algorithm="pkgame"))
                assert pruned.avg_strategies_per_player <= base.avg_strategies_per_player + 1e-12
                assert sum(pruned.payoff_entry_counts) <= sum(base.payoff_entry_counts)

    def test_initial_state_matches_gtkmeans(self, ds1):
        for seed in (0, 4):
            a = run_algorithm(ds1, RunConfig(k=6, seed=seed))
            b = run_algorithm(ds1, RunConfig(k=6, seed=seed, algorithm="pkgame"))
            assert a.initial == b.initial


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(k=0, seed=1)
        with pytest.raises(ConfigError):
            RunConfig(k=3, seed=1, ns=0)
        with pytest.raises(ConfigError):
            RunConfig(k=3, seed=1, algorithm="other")
        # only the start centers checked this bound, so a grid ran its earlier seeds first
        with pytest.raises(ConfigError, match="64 unsigned bits"):
            RunConfig(k=4, seed=2**64)

    def test_dispatch(self, ds1):
        a = run_algorithm(ds1, RunConfig(k=4, seed=2, algorithm="pkgame"))
        assert a.config.algorithm == "pkgame"
        b = run_algorithm(ds1, RunConfig(k=4, seed=2))
        assert b.config.algorithm == "gtkmeans"

    def test_report_config_is_the_config_that_ran(self, ds1):
        for algorithm in ALGORITHMS:
            config = RunConfig(k=4, seed=1, algorithm=algorithm)
            assert run_algorithm(ds1, config).config is config


class TestPairedCompare:
    def test_shared_initial_state_across_variants(self, ds1):
        summaries = paired_compare(
            ds1, [5], seeds=[3, 4], ns_values=[None, 2], algorithms=("gtkmeans", "pkgame")
        )
        assert len(summaries) == 4
        by_seed = {}
        for summary in summaries:
            for report in summary.reports:
                by_seed.setdefault(report.config.seed, []).append(report.initial)
        for seed, states in by_seed.items():
            assert all(s == states[0] for s in states), seed

    def test_single_ns_gives_one_row_per_algorithm(self, ds1):
        summaries = paired_compare(ds1, [4], seeds=[1], ns_values=[None])
        assert [(s.algorithm, s.ns) for s in summaries] == [("gtkmeans", None), ("pkgame", None)]

    def test_summary_identity_is_its_reports_config(self, ds1):
        summaries = paired_compare(ds1, [5], seeds=[3, 4], ns_values=[None, 2])
        assert [(s.algorithm, s.ns, s.k) for s in summaries] == [
            ("gtkmeans", None, 5), ("gtkmeans", 2, 5), ("pkgame", None, 5), ("pkgame", 2, 5)
        ]
        for summary in summaries:
            for report in summary.reports:
                assert (report.config.algorithm, report.config.ns, report.config.k) == (
                    summary.algorithm, summary.ns, summary.k
                )

    def test_variants_of_a_seed_run_back_to_back(self, ds1, monkeypatch):
        ran = []

        def recording(dataset, config):
            ran.append((config.seed, config.k, config.algorithm, config.ns))
            return run_algorithm(dataset, config)

        monkeypatch.setattr(drivers, "run_algorithm", recording)
        summaries = paired_compare(ds1, [5, 4], [3, 4], ns_values=[None, 2], algorithms=("gtkmeans", "pkgame"))
        variants = [(k, a, ns) for k in (5, 4) for a in ("gtkmeans", "pkgame") for ns in (None, 2)]
        assert ran == [(seed, *variant) for seed in (3, 4) for variant in variants]
        assert [(s.k, s.algorithm, s.ns) for s in summaries] == variants

    def test_means_match_reports(self, ds1):
        (summary,) = paired_compare(ds1, [5], seeds=[0, 1, 2], ns_values=[None], algorithms=("gtkmeans",))
        assert summary.mean_strategies_per_player == pytest.approx(
            np.mean([r.avg_strategies_per_player for r in summary.reports])
        )
        assert summary.mean_payoff_entries == pytest.approx(
            np.mean([sum(r.payoff_entry_counts) for r in summary.reports])
        )

    def test_means_skip_missing_improvements(self, ds1):
        # an improvement percent is None when its initial objective is 0 and its final one is not
        report = run_algorithm(ds1, RunConfig(k=4, seed=1))
        states = [((0.0, 100.0), (1.0, 97.0)), ((0.0, 0.0), (1.0, 1.0)), ((0.0, 100.0), (1.0, 95.0))]
        reports = [dataclasses.replace(report, initial=ObjectiveState(*a), final=ObjectiveState(*b)) for a, b in states]
        summary = VariantSummary(tuple(reports))
        assert summary.mean_sse_improvement_pct is None
        assert summary.mean_l_improvement_pct == 4.0

    def test_summary_of_no_runs_rejected(self):
        # .algorithm raised IndexError and .mean_wall_time_s warned "Mean of empty slice"
        with pytest.raises(ConfigError, match="at least one run"):
            VariantSummary(())

    @pytest.mark.parametrize(
        "k_values, seeds, ns_values, algorithms",
        [
            ([4], [1], [], ALGORITHMS),
            ([4], [1], [None], ()),
            ([], [1], [None], ALGORITHMS),
            ([4], [1], [None, 2.5], ALGORITHMS),
            ([4], [1, 2**64], [None], ALGORITHMS),
            ([4, 200], [1], [None], ALGORITHMS),
        ],
        ids=["no-ns", "no-algorithm", "no-k", "bad-ns-late", "bad-seed-late", "k-above-n-late"],
    )
    def test_every_config_checked_before_any_run(self, ds1, monkeypatch, k_values, seeds, ns_values, algorithms):
        # an empty axis ran nothing and returned []; a bad value raised only after earlier runs
        ran = []
        monkeypatch.setattr(drivers, "run_algorithm", lambda dataset, config: ran.append(config))
        with pytest.raises(ConfigError):
            paired_compare(ds1, k_values, seeds, ns_values, algorithms)
        assert ran == []

    def test_empty_seeds_rejected(self, ds1):
        with pytest.raises(ConfigError):
            paired_compare(ds1, [4], seeds=[], ns_values=[None])

    def test_seeds_are_whole_numbers(self, ds1):
        # int(1.5) silently ran seed 1
        with pytest.raises(ConfigError, match="seed"):
            paired_compare(ds1, [4], seeds=[1.5], ns_values=[None], algorithms=("gtkmeans",))
        (summary,) = paired_compare(ds1, [4], seeds=np.array([2]), ns_values=[None], algorithms=("gtkmeans",))
        assert summary.seeds == (2,)
        assert type(summary.seeds[0]) is int
        # a longer array raised ValueError from its truth test
        (summary,) = paired_compare(ds1, [4], seeds=np.array([2, 3]), ns_values=[None], algorithms=("gtkmeans",))
        assert summary.seeds == (2, 3)


def _root_buffer(array):
    """The array that owns ``array``'s memory."""
    while array.base is not None:
        array = array.base
    return array


class TestTensorLifetimes:
    """Each payoff tensor dies with its game, without the cyclic collector.

    A weak reference to a tensor's root cost buffer tells whether the
    buffer itself is alive; one to the ``PayoffTensor`` would not, since
    the build may keep the buffer while the tensor object is freed.
    """

    @pytest.fixture()
    def built(self, monkeypatch):
        """Weak references to every built tensor's cost buffer; at each build, all earlier ones are dead."""
        refs = []
        build = drivers.build_payoff_tensor

        def tracked(*args):
            assert all(ref() is None for _, ref in refs), "an earlier tensor is alive as a new build starts"
            tensor = build(*args)
            refs.append((tensor.n_participants, weakref.ref(_root_buffer(tensor.costs))))
            return tensor

        monkeypatch.setattr(drivers, "build_payoff_tensor", tracked)
        gc.collect()
        gc.disable()
        try:
            yield refs
        finally:
            gc.enable()

    def test_one_tensor_alive_at_a_time(self, ds1, built):
        for algorithm, ns in (("gtkmeans", None), ("pkgame", 3)):
            for k in (4, 8):
                for seed in range(1, 6):
                    run_algorithm(ds1, RunConfig(k=k, seed=seed, ns=ns, algorithm=algorithm))
        assert max(n for n, _ in built) > 1  # multi-player games were built
        assert all(ref() is None for _, ref in built)
        assert gc.collect() == 0

    def test_none_outlives_a_game_above_the_limit(self, ds1, built, monkeypatch):
        # k=8 seed 1 (pinned): the first game phase builds a 374-byte
        # two-player tensor, then raises on a 1,088-byte one
        monkeypatch.setattr(game_engine, "MAX_TENSOR_BYTES", 1000)
        with pytest.raises(TensorTooLargeError):
            run_algorithm(ds1, RunConfig(k=8, seed=1))
        assert [n for n, _ in built] == [2]
        assert all(ref() is None for _, ref in built)
        assert gc.collect() == 0
