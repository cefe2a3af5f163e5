import numpy as np
import pytest

from zombiescan import ProfileTable, build_graph

DATA = __file__.rsplit("/", 1)[0] + "/data"


@pytest.fixture
def two_cycle():
    return build_graph([(0, 1, 0), (1, 0, 0)], 2)


@pytest.fixture
def triangle():
    return build_graph([(0, 1, 0), (1, 2, 0), (2, 0, 0)], 3)


def random_graph(seed: int, n: int, p: float):
    """Directed Bernoulli graph used across tests."""
    rng = np.random.Generator(np.random.PCG64(seed))
    arcs = [(u, v, 0) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    return build_graph(arcs, n), [(u, v) for u, v, _ in arcs]


def profile_table(n, regions=None, followers=None, followees=None):
    """A ProfileTable of n rows from per-row values; None marks a blank value."""
    names = [r for r in dict.fromkeys(regions or []) if r]
    codes = [names.index(r) if r else -1 for r in regions or [None] * n]

    def counts(values):
        values = values or [None] * n
        return (np.array([v or 0 for v in values], dtype=np.int64),
                np.array([v is None for v in values], dtype=bool))

    return ProfileTable(np.array(codes, dtype=np.int64), names, *counts(followers),
                        *counts(followees))
