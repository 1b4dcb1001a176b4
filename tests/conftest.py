import numpy as np
import pytest

from varmms import MetricMeasureSpace
from varmms.generators import cantor_space, grid2d, line_space, two_zone_glued


def unit_grid(n):
    """n x n grid with unit spacing and unit weights."""
    coords = np.array([(i, j) for i in range(n) for j in range(n)], dtype=float)
    return MetricMeasureSpace.from_points(coords, np.ones(n * n))


def random_cloud(n, seed, dim=3, box=2.0):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, box, (n, dim))
    return MetricMeasureSpace.from_points(coords, rng.uniform(0.2, 1.5, n))


@pytest.fixture(scope="session")
def battery():
    """Geometry test battery: small spaces with varied structure."""
    return {
        "single": MetricMeasureSpace.from_matrix([[0.0]], [1.0]),
        "pair": line_space(2),
        "line4": line_space(4),
        "line10": line_space(10),
        "unit_grid8": unit_grid(8),
        "grid8": grid2d(8),
        "cantor3": cantor_space(3),
        "cloud12": random_cloud(12, seed=7),
        "glued": two_zone_glued(6, 3),
    }


def integer_metric(n, seed):
    """Shortest-path closure of a random {1, 2, 3} matrix: many tied distances."""
    rng = np.random.default_rng(seed)
    d = rng.integers(1, 4, (n, n)).astype(float)
    d = np.minimum(d, d.T)
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return MetricMeasureSpace.from_matrix(d, np.ones(n))


@pytest.fixture(scope="session")
def tie_heavy():
    """Integer metrics on 4 to 19 points."""
    return {f"int{n}_{seed}": integer_metric(n, seed)
            for seed, n in enumerate([4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
                                      18, 19, 19, 12, 15, 19])}


@pytest.fixture(scope="session")
def clouds():
    """Seeded point clouds in one, two and three dimensions."""
    return {f"cloud{dim}d_{seed}": random_cloud(n, seed, dim)
            for dim in (1, 2, 3) for seed, n in ((3, 9), (11, 17), (23, 30))}
