import pytest

from minconn.constructions import (
    band_graph,
    cycle_clique_strong,
    multipath,
    path_square_example,
)
from minconn.errors import InvalidParams
from minconn.graphs import (Graph, MultiGraph, complete_graph, cycle_graph, small_degree_set,
                            strong_product)
from minconn.minimality import MinimalityClass, check_class


def cycle_clique_strong_odd(k: int, length: int) -> Graph:
    """Odd-k analogue of `cycle_clique_strong`, by deletion.

    Builds C_length boxtimes K^{(k+1)/2} and removes slot 0 at cycle
    positions 0 and 1, two adjacent vertices.  No canonical choice of the
    pair is claimed, only that this one produces vertices of degree
    floor(3k/2)-1.
    """
    if k % 2 == 0 or k < 3:
        raise InvalidParams("this variant is for odd k >= 3")
    if length < 5:
        raise InvalidParams("need cycle length >= 5")
    w = (k + 1) // 2
    base = strong_product(cycle_graph(length), complete_graph(w))
    g, _ = base.induced(set(range(base.n)) - {0, w})
    return g


class TestBandGraph:
    def test_order(self):
        for k in (3, 4, 5):
            for length in (2, 3, 4):
                lg = band_graph(k, length)
                assert lg.graph.n == 2 * (k - 1) * length + 2

    def test_degrees(self):
        lg = band_graph(3, 2)
        g = lg.graph
        a, b = lg.index_of("a"), lg.index_of("b")
        assert g.degree(a) == 3 and g.degree(b) == 3
        assert all(g.degree(v) == 4 for v in range(g.n) if v not in (a, b))

    def test_classes(self):
        g = band_graph(4, 2).graph
        assert check_class(g, MinimalityClass.VERTEX_MIN_CONN, 4).holds
        assert check_class(g, MinimalityClass.VERTEX_MIN_EDGE_CONN, 4).holds

    def test_copy_labels_round(self):
        lg = band_graph(3, 3)
        # clique copies are labelled H{copy}:{position}, 1-based copies
        assert lg.index_of("H1:0") == 0
        assert len(set(lg.labels.values())) == len(lg.labels)  # each vertex has one label

    def test_params_validated(self):
        with pytest.raises(InvalidParams):
            band_graph(2, 2)
        with pytest.raises(InvalidParams):
            band_graph(3, 1)


class TestPathSquareExample:
    def test_exactly_six_degree_3(self):
        for length in (10, 12, 20):
            lg = path_square_example(length)
            assert len(small_degree_set(lg.graph, 3)) == 6

    def test_class_c_at_3(self):
        g = path_square_example(12).graph
        assert check_class(g, MinimalityClass.EDGE_MIN_EDGE_CONN, 3).holds

    def test_min_length(self):
        with pytest.raises(InvalidParams):
            path_square_example(9)


class TestMultipath:
    def test_shape(self):
        g = multipath(3, 5)
        assert isinstance(g, MultiGraph)
        assert g.n == 5
        assert all(g.multiplicity(i, i + 1) == 3 for i in range(4))

    def test_degree_profile(self):
        g = multipath(4, 6)
        assert g.degree(0) == 4 and g.degree(5) == 4
        assert all(g.degree(v) == 8 for v in range(1, 5))

    def test_class_c(self):
        for k in (2, 3, 4):
            g = multipath(k, 5)
            assert check_class(g, MinimalityClass.EDGE_MIN_EDGE_CONN, k).holds

    def test_params_validated(self):
        with pytest.raises(InvalidParams):
            multipath(0, 5)
        with pytest.raises(InvalidParams):
            multipath(3, 1)


class TestCycleCliqueStrong:
    def test_regular_degree(self):
        for k in (4, 6):
            for length in (4, 5):
                g = cycle_clique_strong(k, length)
                assert g.n == length * k // 2
                assert set(g.degrees()) == {3 * k // 2 - 1}

    def test_class_b(self):
        g = cycle_clique_strong(4, 5)
        assert check_class(g, MinimalityClass.VERTEX_MIN_CONN, 4).holds

    def test_even_k_required(self):
        with pytest.raises(InvalidParams):
            cycle_clique_strong(3, 4)

    def test_odd_variant_degrees(self):
        # deleting two adjacent-position vertices gives the odd-k
        # analogue: some vertices reach the floor(3k/2)-1 bound
        for k in (3, 5):
            g = cycle_clique_strong_odd(k, 5)
            bound = 3 * k // 2 - 1
            assert min(g.degrees()) == bound
            assert check_class(g, MinimalityClass.VERTEX_MIN_CONN, k).holds

    def test_odd_variant_rejects_even_k(self):
        with pytest.raises(InvalidParams):
            cycle_clique_strong_odd(4, 5)
        with pytest.raises(InvalidParams):
            cycle_clique_strong_odd(3, 4)
