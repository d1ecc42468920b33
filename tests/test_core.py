import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gameclust import (
    Clustering,
    ConfigError,
    Dataset,
    Ds1Config,
    LocalGame,
    StructuralError,
    ObjectiveState,
    Participant,
    RoleAssignment,
    RunConfig,
    conflicted_games,
    ideal_load,
    improvement_report,
    lloyd_full,
    load_metric,
    objectives,
    select_strategies,
)
from gameclust.core import load_excess, squared_distances, whole

from oracles import squared_distances_broadcast, sse_with_centers


class TestIdealLoad:
    def test_exact_division(self):
        assert ideal_load(21, 3) == 7
        assert ideal_load(150, 5) == 30

    def test_stays_rational(self):
        assert ideal_load(59, 4) == Fraction(59, 4)
        assert float(ideal_load(59, 4)) == 14.75

    def test_invalid_configuration(self):
        with pytest.raises(ConfigError):
            ideal_load(10, 0)
        with pytest.raises(ConfigError):
            ideal_load(3, 4)


class TestSse:
    def test_single_point_at_center(self):
        ds = Dataset(points=[[2.0, 3.0]])
        c = Clustering.from_assignment(ds, [0], 1)
        assert objectives(ds, c).sse == 0.0

    def test_two_points_one_cluster(self):
        ds = Dataset(points=[[0.0], [2.0]])
        c = Clustering.from_assignment(ds, [0, 0], 1)
        assert objectives(ds, c).sse == pytest.approx(2.0)

    def test_singleton_clusters(self):
        ds = Dataset(points=[[0.0, 0.0], [2.0, 0.0]])
        c = Clustering.from_assignment(ds, [0, 1], 2)
        assert objectives(ds, c).sse == 0.0

    def test_clustering_of_another_dataset_rejected(self):
        ds = Dataset(points=[[0.0, 0.0], [1.0, 1.0]])
        c = Clustering.from_assignment(ds, [0, 1], 2)
        other = Dataset(points=[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(StructuralError, match="clustering covers 2 points, dataset has 3"):
            objectives(other, c)

    def test_dimension_mismatch(self):
        ds = Dataset(points=[[0.0, 0.0], [1.0, 1.0]])
        c = Clustering.from_assignment(ds, [0, 1], 2)
        other = Dataset(points=[[0.0], [1.0]])
        with pytest.raises(StructuralError):
            objectives(other, c)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_mean_centers_are_optimal(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 12, 3
        pts = rng.normal(size=(n, 2))
        assignment = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        ds = Dataset(points=pts)
        c = Clustering.from_assignment(ds, assignment, k)
        alternative = rng.normal(size=(k, 2)).tolist()
        assert objectives(ds, c).sse <= sse_with_centers(pts.tolist(), assignment.tolist(), alternative) + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(10, 3))
        assignment = rng.integers(0, 2, 10)
        assignment[:2] = [0, 1]
        perm = rng.permutation(10)
        ds = Dataset(points=pts)
        ds_p = Dataset(points=pts[perm])
        c = Clustering.from_assignment(ds, assignment, 2)
        c_p = Clustering.from_assignment(ds_p, assignment[perm], 2)
        assert objectives(ds, c).sse == pytest.approx(objectives(ds_p, c_p).sse, rel=1e-12)


class TestLoadMetric:
    def test_balanced_is_zero(self):
        assert load_metric([7, 7, 7], 7) == 0.0
        assert load_metric([2, 2], 2) == 0.0

    def test_worked_example_loads(self):
        # (4-7)^2 + (1-7)^2 + (8-7)^2 = 9 + 36 + 1
        assert load_metric([4, 1, 8], 7) == 46.0

    def test_rational_ideal_exact(self):
        # (15 - 59/4)^2 + (14 - 59/4)^2 + (15 - 59/4)^2 + (15 - 59/4)^2
        assert load_metric([15, 14, 15, 15], Fraction(59, 4)) == pytest.approx(0.75, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            load_metric([], 1)

    def test_ideal_is_an_int_or_a_fraction(self):
        # (2-5)^2 + (8-5)^2
        assert load_metric([2, 8], 5) == load_metric([2, 8], np.int64(5)) == load_metric([2, 8], Fraction(5)) == 18.0
        for ideal in (5.0, True, "5", None):
            with pytest.raises(ConfigError, match="ideal load must be an integer"):
                load_metric([2, 8], ideal)
        for ideal in (-1, Fraction(-1)):
            with pytest.raises(ConfigError, match="ideal load must be >= 0"):
                load_metric([2, 8], ideal)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=8), st.integers(1, 20))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariant_and_zero_iff_balanced(self, loads, ideal):
        value = load_metric(loads, ideal)
        assert value == load_metric(list(reversed(loads)), ideal)
        if all(l == ideal for l in loads):
            assert value == 0.0
        else:
            assert value > 0.0

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_nonintegral_ideal_never_zero(self, loads):
        assert load_metric(loads, Fraction(3, 2)) > 0.0

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=12), st.integers(1, 10**6), st.integers(1, 64))
    @settings(max_examples=300, deadline=None)
    def test_is_the_exact_sum_correctly_rounded(self, loads, p, q):
        ideal = Fraction(p, q)
        assert load_metric(loads, ideal) == float(sum((Fraction(l) - ideal) ** 2 for l in loads))


class TestLoadExcess:
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=12), st.integers(1, 10**6), st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_is_the_scaled_excess_in_integers(self, loads, p, q):
        ideal = Fraction(p, q)
        excesses, scale = load_excess(np.array(loads), ideal)
        assert scale == ideal.denominator
        assert all(type(e) is int for e in excesses)
        assert excesses == [scale * (Fraction(l) - ideal) for l in loads]

    def test_integer_ideal(self):
        assert load_excess([4, 1, 8], 7) == ([-3, -6, 1], 1)
        assert load_excess([15, 14], Fraction(59, 4)) == ([1, -3], 4)


def _pcts(initial, final):
    """``improvement_report``'s (SSE %, L %) for two (SSE, L) pairs."""
    report = improvement_report(ObjectiveState(*initial), ObjectiveState(*final))
    return report.sse_improvement_pct, report.l_improvement_pct


class TestImprovementPct:
    """The percentage ``improvement_report`` gives each objective: 100 * (initial - final) / initial."""

    def test_examples(self):
        assert _pcts((100.0, 100.0), (50.0, 100.0)) == (50.0, 0.0)
        assert _pcts((46.0, 8.0), (0.0, 2.0)) == (100.0, 75.0)

    def test_can_be_negative(self):
        assert _pcts((10.0, 4.0), (15.0, 5.0)) == (-50.0, -25.0)

    @pytest.mark.parametrize(
        "initial, final, pct",
        [
            # ds1 scaled by 4e151, k = 4, run seed 1
            (3.560439229741902e306, 1.6792092183288978e306, 52.8370206602115),
            (1e306, 1.5e308, -14900.0),
        ],
        ids=["drop-above-1.8e306", "rise-to-1.5e308"],
    )
    def test_finite_where_the_scaled_difference_overflows(self, initial, final, pct):
        # 100 * (initial - final) is beyond the float range here
        assert _pcts((initial, 1.0), (final, 1.0)) == (pytest.approx(pct, rel=1e-12), 0.0)


class TestObjectives:
    def test_bundles_both_metrics(self):
        ds = Dataset(points=[[0.0], [2.0], [10.0], [12.0]])
        c = Clustering.from_assignment(ds, [0, 0, 1, 1], 2)
        state = objectives(ds, c)
        assert state.sse == pytest.approx(4.0)
        assert state.load_metric == 0.0

    def test_score_scales_each_term_by_its_reference(self):
        state = ObjectiveState(sse=3.0, load_metric=10.0)
        assert state.score(ObjectiveState(sse=2.0, load_metric=4.0)) == 1.5 + 2.5
        assert state.score(state) == 2.0

    def test_score_holds_a_zero_reference_term_at_zero(self):
        # a term over a zero reference is 0 for 0/0 and +inf otherwise, nan included
        state = ObjectiveState(sse=3.0, load_metric=10.0)
        assert state.score(ObjectiveState(sse=0.0, load_metric=4.0)) == math.inf
        assert state.score(ObjectiveState(sse=2.0, load_metric=0.0)) == math.inf
        assert ObjectiveState(sse=0.0, load_metric=10.0).score(ObjectiveState(sse=0.0, load_metric=4.0)) == 2.5
        assert ObjectiveState(sse=0.0, load_metric=0.0).score(ObjectiveState(sse=0.0, load_metric=0.0)) == 0.0
        assert ObjectiveState(sse=math.nan, load_metric=0.0).score(ObjectiveState(sse=0.0, load_metric=0.0)) == math.inf

    def test_improvement_report_conventions(self):
        ds = Dataset(points=[[0.0], [2.0], [10.0], [12.0]])
        c = Clustering.from_assignment(ds, [0, 0, 1, 1], 2)
        state = objectives(ds, c)
        report = improvement_report(state, state)
        assert report.sse_improvement_pct == 0.0
        assert report.l_improvement_pct == 0.0  # 0 -> 0 counts as no change


class TestDatasetAndClustering:
    def test_dataset_immutable(self):
        ds = Dataset(points=[[1.0, 2.0]])
        with pytest.raises(ValueError):
            ds.points[0, 0] = 5.0

    def test_dataset_rejects_non_finite(self):
        with pytest.raises(StructuralError):
            Dataset(points=[[np.nan, 1.0]])

    @pytest.mark.parametrize("points", [[["a", "b"]], [[1.0, 2.0], [3.0]]], ids=["strings", "ragged"])
    def test_dataset_rejects_what_is_not_a_2d_array_of_numbers(self, points):
        with pytest.raises(StructuralError, match="points must be a 2-d array of numbers"):
            Dataset(points=points)

    def test_clustering_loads_and_centers(self):
        ds = Dataset(points=[[0.0], [1.0], [10.0]])
        c = Clustering.from_assignment(ds, [0, 0, 1], 2)
        assert c.loads.tolist() == [2, 1]
        assert c.centers.ravel().tolist() == [0.5, 10.0]

    def test_clustering_rejects_empty_cluster(self):
        ds = Dataset(points=[[0.0], [1.0]])
        with pytest.raises(StructuralError):
            Clustering.from_assignment(ds, [0, 0], 2)

    def test_clustering_rejects_out_of_range(self):
        ds = Dataset(points=[[0.0], [1.0]])
        for labels in ([0, 2], [0, -1]):
            with pytest.raises(StructuralError, match=r"must lie in \[0, k\)"):
                Clustering.from_assignment(ds, labels, 2)

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: Dataset(points=[0.0, 1.0]), "points must be a 2-d array"),
            (lambda: Dataset(points=np.zeros((0, 2))), "need at least one point and one dimension"),
            (lambda: Clustering(assignment=[[0, 1]], k=2, centers=[[0.0], [1.0]], loads=[1, 1]),
             "assignment must be 1-d"),
            (lambda: Clustering(assignment=[0, 1], k=2, centers=[[0.0]], loads=[1, 1]),
             r"centers must have shape \(k, dim\)"),
            (lambda: Clustering(assignment=[0, 1], k=2, centers=[[0.0], [1.0]], loads=[[1, 1]]),
             r"loads must have shape \(k,\)"),
            (lambda: Clustering.from_assignment(Dataset(points=[[0.0], [1.0]]), [0, 1, 1], 2),
             "does not match n=2"),
        ],
        ids=["points-1d", "no-points", "assignment-2d", "centers-wrong-k", "loads-wrong-shape",
             "from-assignment-length"],
    )
    def test_malformed_input_rejected(self, call, match):
        with pytest.raises(StructuralError, match=match):
            call()

    def test_clustering_rejects_non_integer_labels(self):
        # truncated, these labels would read [0, 0, 1, 1]
        ds = Dataset(points=[[0.0], [1.0], [2.0], [3.0]])
        with pytest.raises(StructuralError, match="integers"):
            Clustering.from_assignment(ds, [0, 0.9, 1.7, 1], 2)
        c = Clustering.from_assignment(ds, np.array([0, 0, 1, 1], dtype=np.int32), np.int64(2))
        assert c.loads.tolist() == [2, 2] and c.assignment.dtype == np.int64


def _four_points():
    return Dataset(points=[[0.0], [1.0], [10.0], [11.0]])


class TestWhole:
    """Every count argument goes through ``whole``: an integer of at least its least value."""

    def test_returns_the_int(self):
        assert whole(3, "k") == 3
        assert whole(np.int64(0), "seed", least=0) == 0 and type(whole(np.uint8(7), "ns")) is int

    def test_messages(self):
        with pytest.raises(ConfigError, match=r"^k must be an integer, got 3\.0$"):
            whole(3.0, "k")
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            whole(-1, "seed", least=0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: RunConfig(k=4, seed=1, ns=2.5),
            lambda: RunConfig(k=4.0, seed=1),
            lambda: RunConfig(k=4, seed=1.0),
            lambda: RunConfig(k=4, seed=1, max_outer_iterations=10.0),
            lambda: select_strategies(11, 2.5),
            lambda: select_strategies(3.0),
            lambda: Participant(0, 3.0),
            lambda: Ds1Config(n_points=150.0),
            lambda: Ds1Config(seed=0.0),
            lambda: lloyd_full(_four_points(), [[0.0], [10.0]], 1.0),
            lambda: Clustering.from_assignment(_four_points(), [0, 0, 1, 1], 2.0),
            lambda: ideal_load(10, 2.0),
            lambda: select_strategies(3.0, 2),
            lambda: conflicted_games(RoleAssignment(((0, 1.5), (1, 1.5)), ((2, 2.9),)), {2: [(0, 1.5), (1, 1.5)]}),
            lambda: Participant(0, 3, 2.0),
            # a bool is not a count: True would run as ns = 1, k = True would fail inside numpy
            lambda: RunConfig(k=4, seed=1, ns=True),
            lambda: RunConfig(k=True, seed=False),
            lambda: LocalGame(1, (Participant(0, 3),)).transfers((1.0,)),
            lambda: LocalGame(1, (Participant(0, 3),)).transfers((True,)),
            lambda: ideal_load(10.0, 2),
            lambda: ideal_load(True, 1),
        ],
        ids=[
            "run-ns", "run-k", "run-seed", "run-budget", "select-ns", "strategy-set",
            "participant", "ds1-n", "ds1-seed", "lloyd-budget", "from-assignment-k", "ideal-load-k",
            "select-request", "conflict", "participant-strategy", "run-ns-bool", "run-k-bool",
            "transfers-index", "transfers-index-bool", "ideal-load-n", "ideal-load-n-bool",
        ],
    )
    def test_non_integer_count_rejected(self, call):
        with pytest.raises(ConfigError, match="must be an integer"):
            call()

    def test_numpy_integers_accepted(self):
        i = np.int64
        assert RunConfig(k=i(4), seed=i(1), ns=np.int32(2), max_outer_iterations=i(5)).k == 4
        assert select_strategies(i(11), i(3)) == (0, 3, 6, 9, 10)
        assert Participant(0, i(3), np.int32(1)).moves == (3, 2, 1)
        assert select_strategies(np.uint8(3), 2) == (0, 2)
        routed = [(0, i(1)), (1, np.int32(2))]
        assert len(conflicted_games(RoleAssignment(tuple(routed), ((2, i(2)),)), {2: routed})) == 1
        assert select_strategies(np.uint8(3)) == (0, 1, 2)
        assert Ds1Config(n_points=i(20), blob_count=i(4), seed=i(0)).n_points == 20
        clustering, iterations = lloyd_full(_four_points(), [[0.0], [10.0]], i(3))
        assert clustering.assignment.tolist() == [0, 0, 1, 1] and iterations == 2


class TestSquaredDistances:
    @pytest.mark.parametrize("dim", range(1, 8))
    def test_bitwise_equal_to_broadcast_form(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(40):
            n, k = int(rng.integers(1, 400)), int(rng.integers(1, 21))
            scale = 10.0 ** rng.uniform(-3, 3)
            a = rng.normal(size=(n, dim)) * scale + rng.normal(size=dim) * scale
            b = rng.normal(size=(k, dim)) * scale
            got = squared_distances(a, b)
            assert got.shape == (n, k)
            assert np.array_equal(got, squared_distances_broadcast(a, b))

    def test_full_size_instance(self):
        rng = np.random.default_rng(3000)
        a, b = rng.uniform(-1e3, 1e3, size=(3000, 2)), rng.uniform(-1e3, 1e3, size=(20, 2))
        assert np.array_equal(squared_distances(a, b), squared_distances_broadcast(a, b))

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_integer_grid_with_ties(self, dim):
        rng = np.random.default_rng(100 + dim)
        a = rng.integers(-4, 5, size=(200, dim)).astype(float) * 0.5
        b = rng.integers(-4, 5, size=(9, dim)).astype(float) * 0.5
        got = squared_distances(a, b)
        expected = squared_distances_broadcast(a, b)
        assert np.array_equal(got, expected)
        # the grid makes rows with several nearest centers; the first wins in both
        assert any(np.count_nonzero(row == row.min()) > 1 for row in got)
        assert np.array_equal(got.argmin(axis=1), expected.argmin(axis=1))

    def test_one_center_and_one_point(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(50, 3)), rng.normal(size=(1, 3))
        assert np.array_equal(squared_distances(a, b), squared_distances_broadcast(a, b))
        assert np.array_equal(squared_distances(b, a), squared_distances_broadcast(b, a))
        assert squared_distances(b, b).tolist() == [[0.0]]

    def test_argmin_ties_go_to_lowest_center(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0]])
        centers = np.array([[2.0, 1.0], [-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        d2 = squared_distances(points, centers)
        assert d2.tolist() == [[5.0, 1.0, 1.0, 1.0], [1.0, 5.0, 1.0, 1.0]]
        assert d2.argmin(axis=1).tolist() == [1, 0]

    @pytest.mark.parametrize("dim", [8, 9, 16])
    def test_eight_dimensions_and_more_within_rounding(self, dim):
        # numpy's sum adds 8 or more terms unrolled, so only the last bits may differ
        rng = np.random.default_rng(dim)
        a, b = rng.normal(size=(300, dim)), rng.normal(size=(12, dim))
        got, expected = squared_distances(a, b), squared_distances_broadcast(a, b)
        assert np.allclose(got, expected, rtol=dim * np.finfo(float).eps, atol=0.0)
        assert np.array_equal(got.argmin(axis=1), expected.argmin(axis=1))
