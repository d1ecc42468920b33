import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the oracles module

from gameclust import Clustering, Dataset, Ds1Config, KMeansConfig, generate_ds1, init_centers, lloyd_iteration


@pytest.fixture(scope="session")
def ds1():
    """The standard 150-point synthetic benchmark dataset."""
    return generate_ds1(Ds1Config(seed=0))


@pytest.fixture(scope="session")
def ds1_k4(ds1):
    """ds1 after run seed 1's first Lloyd step at k = 4: loads [24, 45, 21, 60]."""
    return lloyd_iteration(ds1, init_centers(ds1, KMeansConfig(k=4, seed=1)))


@pytest.fixture()
def line20():
    """20 points on a line: a 4-group, a lone point, a 15-group.

    Clustered into those three natural groups the loads are [4, 1, 15]
    with ideal 20/3, producing one conflicted resource and players with
    requests 3 and 6.
    """
    xs = [0.0, 0.4, 0.8, 1.2, 5.0] + [9.0 + 0.2 * i for i in range(15)]
    dataset = Dataset(points=np.array(xs).reshape(-1, 1))
    assignment = [0] * 4 + [1] + [2] * 15
    clustering = Clustering.from_assignment(dataset, assignment, 3)
    return dataset, clustering
