import pytest

from minconn.enumeration import enumerate_all, random_graphs
from minconn.flow import FlowNetwork


@pytest.fixture(scope="session")
def small_corpus():
    """All canonical graphs up to 6 vertices, order >= 2."""
    return [g for g in enumerate_all(6) if g.n >= 2]


@pytest.fixture(scope="session")
def corpus7():
    """All canonical graphs up to 7 vertices, order >= 2."""
    return [g for g in enumerate_all(7) if g.n >= 2]


@pytest.fixture(scope="session")
def random_corpus():
    """Seeded random graphs up to 8 vertices, order >= 2."""
    return [g for g in random_graphs(300, 8, seed=7) if g.n >= 2]


@pytest.fixture
def network_sizes(monkeypatch):
    """The node count of every flow network built while the test runs."""
    sizes = []
    init = FlowNetwork.__init__

    def counting_init(self, n):
        sizes.append(n)
        init(self, n)

    monkeypatch.setattr(FlowNetwork, "__init__", counting_init)
    return sizes
