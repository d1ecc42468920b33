import numpy as np
import pytest

from gameclust import (
    ConfigError,
    Dataset,
    KMeansConfig,
    RunConfig,
    classify_roles,
    ideal_load,
    init_centers,
    lloyd_full,
    objectives,
    paired_compare,
    run_algorithm,
    run_gtkmeans,
    run_pkgame,
)

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
        report = run_gtkmeans(ds, RunConfig(k=2, seed=1))
        assert report.games_played == 0
        assert report.avg_strategies_per_player == 0.0
        km, _ = lloyd_full(ds, init_centers(ds, KMeansConfig(k=2, seed=1)), 100)
        assert report.final == objectives(ds, km)

    def test_worked_example_game_structure(self):
        report = run_gtkmeans(line20_dataset(), RunConfig(k=3, seed=LINE20_SEED))
        first = report.trace[0]
        assert len(first.games) == 1
        assert sorted(first.games[0].set_sizes) == [3, 6]
        assert sorted(first.games[0].requests) == [3, 6]

    def test_worked_example_with_selection(self):
        report = run_gtkmeans(line20_dataset(), RunConfig(k=3, seed=LINE20_SEED, ns=2))
        first = report.trace[0]
        assert len(first.games) == 1
        assert sorted(first.games[0].set_sizes) == [2, 4]

    def test_terminates_and_reports(self, ds1):
        report = run_gtkmeans(ds1, RunConfig(k=6, seed=0))
        assert 1 <= report.outer_iterations <= 100
        assert report.kmeans_iterations == report.outer_iterations
        assert report.wall_time_s >= 0
        assert report.games_played == len(report.payoff_entry_counts)
        assert len(report.trace) == report.outer_iterations

    def test_point_count_conserved_every_iteration(self, ds1):
        report = run_gtkmeans(ds1, RunConfig(k=7, seed=5))
        for record in report.trace:
            assert sum(record.loads_end) == ds1.n
            assert min(record.loads_end) >= 1

    def test_accepted_reallocations_always_score_below_two(self, ds1):
        for seed in range(4):
            report = run_gtkmeans(ds1, RunConfig(k=8, seed=seed))
            for record in report.trace:
                if record.accepted and record.reallocation_score is not None:
                    assert record.reallocation_score < 2.0

    def test_determinism(self, ds1):
        a = run_gtkmeans(ds1, RunConfig(k=5, seed=9))
        b = run_gtkmeans(ds1, RunConfig(k=5, seed=9))
        assert a.final == b.final
        assert a.payoff_entry_counts == b.payoff_entry_counts
        assert np.array_equal(a.final_clustering.assignment, b.final_clustering.assignment)

    def test_lloyd_game_cycle_stops_on_the_repeated_state(self, ds1):
        # k=8 seed 6 falls into a Lloyd-game cycle: each accepted reallocation
        # is undone by the next Lloyd step
        a = run_gtkmeans(ds1, RunConfig(k=8, seed=6))
        assert a.termination == "cycle"
        assert a.outer_iterations < 100
        assert len(a.trace) == a.outer_iterations
        # the reported state is one the cycle passed through, the best of them
        ends = [(r.sse_end, r.l_end) for r in a.trace]
        assert (a.final.sse, a.final.load_metric) in ends

        def score(sse_value, l_value):
            return sse_value / a.initial.sse + l_value / a.initial.load_metric

        assert score(a.final.sse, a.final.load_metric) <= score(*ends[-1])
        assert score(a.final.sse, a.final.load_metric) <= score(*ends[-2])
        b = run_gtkmeans(ds1, RunConfig(k=8, seed=6))
        assert (b.termination, b.outer_iterations, b.final) == (a.termination, a.outer_iterations, a.final)
        assert np.array_equal(a.final_clustering.assignment, b.final_clustering.assignment)

    def test_termination_reasons(self, ds1):
        from gameclust import TERMINATIONS

        assert set(TERMINATIONS) == {"converged", "cycle", "budget"}
        converged = run_gtkmeans(Dataset(points=[[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]]),
                                 RunConfig(k=2, seed=1))
        assert converged.termination == "converged"
        capped = run_gtkmeans(ds1, RunConfig(k=8, seed=6, max_outer_iterations=2))
        assert capped.termination == "budget"
        assert capped.outer_iterations == 2

    def test_covered_request_served_without_a_game(self):
        # Lloyd from seed 2 settles on loads [7, 3]; cluster 0's two spare
        # points cover cluster 1's request, so no game is played and the
        # player receives the two points nearest its center
        ds = Dataset(points=[[0.0], [0.1], [0.2], [0.3], [0.4], [4.5], [5.0], [10.0], [10.1], [10.2]])
        report = run_pkgame(ds, RunConfig(k=2, seed=2, algorithm="pkgame"))
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
            base = run_gtkmeans(ds1, RunConfig(k=8, seed=seed))
            pruned = run_gtkmeans(ds1, RunConfig(k=8, seed=seed, ns=3))
            g0, g1 = base.trace[0].games, pruned.trace[0].games
            assert [g.resource_id for g in g0] == [g.resource_id for g in g1]
            for a, b in zip(g0, g1):
                assert b.set_sizes <= a.set_sizes
                assert b.joint_entries <= a.joint_entries


class TestRunPkgame:
    def test_balanced_after_kmeans_is_pure_lloyd(self):
        ds = Dataset(points=[[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        report = run_pkgame(ds, RunConfig(k=2, seed=1, algorithm="pkgame"))
        assert report.games_played == 0
        km, _ = lloyd_full(ds, init_centers(ds, KMeansConfig(k=2, seed=1)), 100)
        assert report.final == objectives(ds, km)

    def test_converged_on_the_last_allowed_step(self, ds1):
        # Lloyd from run seed 1 reaches its fixed point on step 7 and sees
        # the assignment repeat on step 8; a budget of 6 stops short of it
        for budget, termination in ((6, "budget"), (7, "converged"), (8, "converged")):
            report = run_pkgame(ds1, RunConfig(k=4, seed=1, max_outer_iterations=budget, algorithm="pkgame"))
            assert report.kmeans_iterations == budget
            assert report.termination == termination

    def test_single_game_phase_by_construction(self, ds1):
        report = run_pkgame(ds1, RunConfig(k=8, seed=1, algorithm="pkgame"))
        assert report.outer_iterations == 1
        assert len(report.trace) == 1
        assert report.kmeans_iterations >= 1

    def test_games_bounded_by_conflicted_resources(self, ds1):
        for seed in range(5):
            config = RunConfig(k=8, seed=seed, algorithm="pkgame")
            report = run_pkgame(ds1, config)
            centers = init_centers(ds1, KMeansConfig(k=8, seed=seed))
            km, _ = lloyd_full(ds1, centers, 99)
            roles = classify_roles(km, ideal_load(ds1.n, 8))
            assert report.games_played <= len(roles.resources)

    def test_selection_never_grows_games_per_seed(self, ds1):
        # the game phase starts from the same converged clustering, so the
        # per-seed pruning relation is structural for pkgame
        for seed in range(6):
            base = run_pkgame(ds1, RunConfig(k=8, seed=seed, algorithm="pkgame"))
            for ns in (2, 3, 4):
                pruned = run_pkgame(ds1, RunConfig(k=8, seed=seed, ns=ns, algorithm="pkgame"))
                assert pruned.avg_strategies_per_player <= base.avg_strategies_per_player + 1e-12
                assert sum(pruned.payoff_entry_counts) <= sum(base.payoff_entry_counts)

    def test_initial_state_matches_gtkmeans(self, ds1):
        for seed in (0, 4):
            a = run_gtkmeans(ds1, RunConfig(k=6, seed=seed))
            b = run_pkgame(ds1, RunConfig(k=6, seed=seed, algorithm="pkgame"))
            assert a.initial == b.initial


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(k=0, seed=1)
        with pytest.raises(ConfigError):
            RunConfig(k=3, seed=1, ns=0)
        with pytest.raises(ConfigError):
            RunConfig(k=3, seed=1, algorithm="other")

    def test_dispatch(self, ds1):
        a = run_algorithm(ds1, RunConfig(k=4, seed=2, algorithm="pkgame"))
        assert a.algorithm == "pkgame"
        b = run_algorithm(ds1, RunConfig(k=4, seed=2))
        assert b.algorithm == "gtkmeans"


class TestPairedCompare:
    def test_shared_initial_state_across_variants(self, ds1):
        summaries = paired_compare(
            ds1, 5, seeds=[3, 4], ns_values=[None, 2], algorithms=("gtkmeans", "pkgame")
        )
        assert len(summaries) == 4
        by_seed = {}
        for summary in summaries:
            for report in summary.reports:
                by_seed.setdefault(report.config.seed, []).append(report.initial)
        for seed, states in by_seed.items():
            assert all(s == states[0] for s in states), seed

    def test_single_ns_gives_one_row_per_algorithm(self, ds1):
        summaries = paired_compare(ds1, 4, seeds=[1], ns_values=[None])
        assert [(s.algorithm, s.ns) for s in summaries] == [("gtkmeans", None), ("pkgame", None)]

    def test_means_match_reports(self, ds1):
        (summary,) = paired_compare(ds1, 5, seeds=[0, 1, 2], ns_values=[None], algorithms=("gtkmeans",))
        assert summary.mean_strategies_per_player == pytest.approx(
            np.mean([r.avg_strategies_per_player for r in summary.reports])
        )
        assert summary.mean_payoff_entries == pytest.approx(
            np.mean([sum(r.payoff_entry_counts) for r in summary.reports])
        )

    def test_empty_seeds_rejected(self, ds1):
        with pytest.raises(ConfigError):
            paired_compare(ds1, 4, seeds=[], ns_values=[None])
