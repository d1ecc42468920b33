import numpy as np
import pytest

from gameclust import (
    ConfigError,
    Dataset,
    KMeansConfig,
    init_centers,
    lloyd_full,
    lloyd_iteration,
    objectives,
    sse,
)


@pytest.fixture()
def line4():
    return Dataset(points=[[0.0], [1.0], [10.0], [11.0]])


class TestInitCenters:
    def test_same_seed_same_centers(self, ds1):
        cfg = KMeansConfig(k=6, seed=99)
        a = init_centers(ds1, cfg)
        b = init_centers(ds1, cfg)
        assert np.array_equal(a, b)

    def test_k_equals_n_returns_all_points(self, line4):
        centers = init_centers(line4, KMeansConfig(k=4, seed=3))
        assert sorted(centers.ravel().tolist()) == [0.0, 1.0, 10.0, 11.0]

    def test_golden_pair(self):
        # pinned from the first run of the documented PCG64 draw
        ds = Dataset(points=[[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        centers = init_centers(ds, KMeansConfig(k=2, seed=7))
        assert centers.tolist() == [[10.0, 0.0], [10.0, 1.0]]

    def test_k_larger_than_n_rejected(self, line4):
        with pytest.raises(ConfigError):
            init_centers(line4, KMeansConfig(k=5, seed=0))


class TestLloydIteration:
    def test_hand_traced_assignment(self, line4):
        c = lloyd_iteration(line4, [[0.0], [10.0]])
        assert c.assignment.tolist() == [0, 0, 1, 1]
        assert c.centers.ravel().tolist() == [0.5, 10.5]

    def test_fixed_point_unchanged(self, line4):
        c = lloyd_iteration(line4, [[0.5], [10.5]])
        again = lloyd_iteration(line4, c.centers)
        assert np.array_equal(c.assignment, again.assignment)
        assert np.array_equal(c.centers, again.centers)

    def test_equidistant_tie_goes_low(self):
        ds = Dataset(points=[[0.0], [2.0], [4.0]])
        c = lloyd_iteration(ds, [[1.0], [3.0]])
        # the middle point at 2.0 is equidistant; cluster 0 wins
        assert c.assignment.tolist() == [0, 0, 1]

    def test_dimension_mismatch(self, line4):
        from gameclust import StructuralError

        with pytest.raises(StructuralError):
            lloyd_iteration(line4, [[0.0, 0.0]])

    def test_empty_cluster_repaired(self):
        # both centers match data exactly, the third attracts nothing
        ds = Dataset(points=[[0.0], [1.0], [10.0], [11.0]])
        c = lloyd_iteration(ds, [[0.5], [10.5], [100.0]])
        assert c.loads.min() >= 1
        assert c.loads.sum() == 4
        # all four points tie at distance 0.25 from their center, so the
        # lowest point index (0) moves into the empty cluster
        assert c.assignment.tolist() == [2, 0, 1, 1]

    def test_two_empty_clusters_repaired_in_turn(self):
        # points 0-2 sit around center 0 (distances 1, 0, 1), points 3-4
        # around center 1 (distances 9, 4); centers 2 and 3 attract nothing
        ds = Dataset(points=[[0.0], [1.0], [2.0], [8.0], [13.0]])
        c = lloyd_iteration(ds, [[1.0], [11.0], [100.0], [200.0]])
        # cluster 2 takes the farthest point, 3; that leaves cluster 1 one
        # point and point 3 alone in cluster 2, so neither can be taken
        # again, and cluster 3 takes the farthest point left in cluster 0,
        # the lowest index of the tie at distance 1
        assert c.assignment.tolist() == [3, 0, 0, 2, 1]
        assert c.loads.tolist() == [2, 1, 1, 1]
        assert c.centers.ravel().tolist() == [1.5, 13.0, 8.0, 0.0]

    def test_sse_non_increasing(self, ds1):
        centers = init_centers(ds1, KMeansConfig(k=6, seed=11))
        previous = None
        for _ in range(8):
            clustering = lloyd_iteration(ds1, centers)
            value = sse(ds1, clustering)
            if previous is not None:
                assert value <= previous + 1e-9
            previous = value
            centers = clustering.centers


class TestLloydFull:
    def test_fixed_point_detected_in_one_iteration(self, line4):
        clustering, iterations = lloyd_full(line4, [[0.5], [10.5]], 50)
        assert iterations == 1
        assert clustering.assignment.tolist() == [0, 0, 1, 1]

    def test_two_iteration_convergence(self, line4):
        clustering, iterations = lloyd_full(line4, [[1.0], [11.0]], 50)
        assert clustering.assignment.tolist() == [0, 0, 1, 1]
        assert iterations == 2

    def test_budget_of_one_matches_single_iteration(self, line4):
        single = lloyd_iteration(line4, [[1.0], [11.0]])
        full, iterations = lloyd_full(line4, [[1.0], [11.0]], 1)
        assert iterations == 1
        assert np.array_equal(single.assignment, full.assignment)

    def test_terminates_within_budget(self, ds1):
        centers = init_centers(ds1, KMeansConfig(k=8, seed=4))
        _, iterations = lloyd_full(ds1, centers, 100)
        assert 1 <= iterations <= 100

    def test_deterministic_trace(self, ds1):
        centers = init_centers(ds1, KMeansConfig(k=5, seed=21))
        a, ia = lloyd_full(ds1, centers, 100)
        b, ib = lloyd_full(ds1, centers, 100)
        assert ia == ib
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.centers, b.centers)
        assert objectives(ds1, a) == objectives(ds1, b)
