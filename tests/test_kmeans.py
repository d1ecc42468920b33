import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gameclust import (
    ConfigError,
    Dataset,
    Ds1Config,
    KMeansConfig,
    StructuralError,
    generate_ds1,
    init_centers,
    lloyd_full,
    lloyd_iteration,
    objectives,
)
from oracles import lloyd_full_stepwise


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
        with pytest.raises(ConfigError, match="need 1 <= k <= n"):
            init_centers(line4, KMeansConfig(k=5, seed=0))

    def test_seed_beyond_64_bits_rejected(self):
        with pytest.raises(ConfigError, match="64 unsigned bits"):
            KMeansConfig(k=2, seed=2**64)


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

    @pytest.mark.parametrize(
        "centers, error, match",
        [
            ([0.0, 10.0], StructuralError, "nonempty 2-d array"),
            ([[0.0], [1.0], [2.0], [10.0], [11.0]], ConfigError, r"more centers \(5\) than points \(4\)"),
        ],
        ids=["centers-1d", "more-centers-than-points"],
    )
    def test_malformed_centers_rejected(self, line4, centers, error, match):
        with pytest.raises(error, match=match):
            lloyd_iteration(line4, centers)

    def test_dimension_mismatch(self, line4):
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
            value = objectives(ds1, clustering).sse
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

    def test_tie_on_a_later_step_goes_to_the_lowest_index(self):
        # step 1 puts 8 in cluster 1 and moves the centers to 11 and 5; on
        # step 2 the point 8 is at distance 3 from both and goes to 0
        ds = Dataset(points=[[11.0], [2.0], [8.0]])
        clustering, iterations = lloyd_full(ds, [[11.0], [10.0]], 50)
        assert clustering.assignment.tolist() == [0, 1, 0]
        assert clustering.centers.ravel().tolist() == [9.5, 2.0]
        assert iterations == 3

    def test_two_empty_clusters_repaired_in_turn(self):
        # the case of TestLloydIteration's test of the same name, run by lloyd_full
        ds = Dataset(points=[[0.0], [1.0], [2.0], [8.0], [13.0]])
        clustering, _ = lloyd_full(ds, [[1.0], [11.0], [100.0], [200.0]], 1)
        assert clustering.assignment.tolist() == [3, 0, 0, 2, 1]
        assert clustering.loads.tolist() == [2, 1, 1, 1]

    def test_cluster_emptied_after_the_first_step(self):
        # step 1 gives clusters {1}, {9}, {3, 7}, so center 2 moves to 5;
        # step 2 finds 3 and 7 tied between center 2 and a lower index,
        # empties cluster 2 and repairs it with point 1 (value 3, the first
        # of the two farthest); step 3 changes nothing
        ds = Dataset(points=[[1.0], [3.0], [7.0], [9.0]])
        clustering, iterations = lloyd_full(ds, [[0.0], [10.0], [5.0]], 50)
        assert clustering.assignment.tolist() == [0, 2, 1, 1]
        assert clustering.centers.ravel().tolist() == [1.0, 8.0, 3.0]
        assert iterations == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("run", [lloyd_iteration, lambda ds, c: lloyd_full(ds, c, 10)])
def test_non_finite_start_center_rejected(ds1, bad, run):
    # as ``Dataset`` rejects non-finite points; unchecked, a nan or inf
    # center draws no point or every point and the run goes on
    with pytest.raises(StructuralError, match="finite"):
        run(ds1, [[bad, 0.0], [1.0, 1.0]])


def _lloyd_instance(seed, dim, n, k, exponent, grid, start):
    """Points and start centers for the bounded-Lloyd property test.

    ``grid`` draws integer coordinates in [-3, 3] (ties and duplicate
    points), otherwise Gaussian blobs; all coordinates are then scaled by
    10**exponent.  ``start`` picks the centers: k distinct points, midpoints
    of random point pairs (clusters that can empty after the first step),
    points offset by whole units (clusters empty at the first step), or
    points with one center moved 1e3 to 1e12 units away (its cluster
    empties and the repair pulls the center across the data).
    """
    rng = np.random.default_rng(seed)
    if grid:
        points = rng.integers(-3, 4, size=(n, dim)).astype(float)
    else:
        points = rng.normal(size=(n, dim)) + 6.0 * rng.normal(size=(k, dim))[rng.integers(k, size=n)]
    points *= 10.0**exponent
    if start == "points":
        centers = points[rng.choice(n, size=k, replace=False)]
    elif start == "midpoints":
        centers = (points[rng.integers(n, size=k)] + points[rng.integers(n, size=k)]) / 2
    elif start == "offset":
        centers = points[rng.choice(n, size=k, replace=False)] + rng.integers(-6, 7, size=(k, dim)) * 10.0**exponent
    else:
        centers = points[rng.choice(n, size=k, replace=False)]
        centers[rng.integers(k)] += rng.choice([-1.0, 1.0], size=dim) * 10.0 ** (exponent + rng.integers(3, 13))
    return points, centers


@st.composite
def _lloyd_cases(draw):
    n = draw(st.integers(1, 40))
    return (
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(1, 9)),
        n,
        draw(st.sampled_from([1, n]) | st.integers(1, n)),
        draw(st.sampled_from([-162, -160, -150, 0, 150, 155]) | st.integers(-170, 160)),
        draw(st.booleans()),
        draw(st.sampled_from(["points", "midpoints", "offset", "far"])),
        draw(st.integers(1, 60)),
    )


def _assert_matches_oracle(points, centers, budget):
    expected = lloyd_full_stepwise(points, centers, budget)
    clustering, iterations = lloyd_full(Dataset(points=points), centers, budget)
    assert np.array_equal(clustering.assignment, expected[0])
    assert np.array_equal(clustering.centers, expected[1])
    assert np.array_equal(clustering.loads, expected[2])
    assert iterations == expected[3]


@pytest.mark.parametrize(
    "exponent, points, centers",
    [
        # center 0 starts 800 units off and jumps next to the points, so the
        # lower bounds it leaves are differences of two large numbers whose
        # rounding, unpadded, proves an assignment the kernel breaks the
        # other way
        (0, [[0.3], [-0.2], [-2.1], [0.6], [-2.0], [-1.0]], [[809.4], [-1.0]]),
        # center 0 starts 1e10 away and its cluster empties; the repair
        # moves it to 4, about 1e10 units, so the third point's lower bound
        # is 1e10 - 1.4 less a drift of 1e10 - 4.  That difference carries
        # the rounding of both 1e10-sized operands, which a pad on the
        # difference alone does not cover, and the point is a near tie
        # between the two centers
        (0, [[-3.0], [-2.0], [1.4000000000000001], [4.0]], [[1e10], [0.0]]),
        # squared distances to other centers overflow: an uncapped lower
        # bound stays infinite while those centers move in
        (155, [[2.0], [-1.0], [3.0], [1.0]], [[5.0], [5.0], [2.0]]),
        # squared distances underflow to zero, so bounds below 1e-150 prove
        # nothing
        (-162, [[2.0], [-2.0], [-2.0], [-3.0]], [[-5.0], [-1.0]]),
    ],
)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_bounded_lloyd_matches_stepwise_oracle_at_the_edges(exponent, points, centers):
    _assert_matches_oracle(np.array(points) * 10.0**exponent, np.array(centers) * 10.0**exponent, 60)


@given(_lloyd_cases())
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_bounded_lloyd_matches_stepwise_oracle(case):
    *instance, budget = case
    _assert_matches_oracle(*_lloyd_instance(*instance), budget)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lloyd_full_matches_stepwise_oracle_on_3000_points(seed):
    # the start of a pkgame run on the n = 3,000 instance: seeded centers,
    # one Lloyd step, then full Lloyd on its means
    ds = generate_ds1(Ds1Config(n_points=3000))
    first = lloyd_iteration(ds, init_centers(ds, KMeansConfig(k=8, seed=seed)))
    _assert_matches_oracle(ds.points, first.centers, 99)
