from collections import Counter, deque

import pytest
from hypothesis import given, strategies as st

from minconn.errors import EmptyRegion, InvalidParams, NoSuchEdge
from minconn.graphs import (
    Graph,
    MultiGraph,
    cartesian_product,
    complete_graph,
    components_of_subset,
    cycle_graph,
    edge_boundary,
    external_neighborhood,
    is_connected_subset,
    path_graph,
    reachable,
    region_of,
    small_degree_set,
    square,
    strong_product,
    vertex_boundary,
)
from oracles import ladder_graph, product_graph, subdivide


def graphs(max_n=8, min_n=2):
    """Random simple graphs as a hypothesis strategy."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_n, max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return Graph(n, [p for p, b in zip(pairs, mask) if b])

    return build()


class TestGraph:
    def test_basic_shape(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.n == 4 and g.m == 4
        assert g.degrees() == (2, 2, 2, 2)
        assert g.neighbors(0) == frozenset({1, 3})
        assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_duplicate_and_reversed_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_loops_rejected(self):
        with pytest.raises(InvalidParams):
            Graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidParams):
            Graph(3, [(0, 3)])

    def test_delete_vertex_relabels(self):
        g = cycle_graph(4)
        h, keep = g.delete_vertex(0)
        assert h.n == 3 and keep == (1, 2, 3)
        assert h.edges() == [(0, 1), (1, 2)]

    def test_delete_edge(self):
        g = cycle_graph(3)
        h = g.delete_edge(0, 1)
        assert h.m == 2 and not h.has_edge(0, 1)

    def test_delete_missing_edge(self):
        with pytest.raises(NoSuchEdge):
            path_graph(3).delete_edge(0, 2)

    def test_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        assert g.components() == [frozenset({0, 1}), frozenset({2, 3}), frozenset({4})]
        assert not g.is_connected()

    @given(graphs(7))
    def test_handshake(self, g):
        assert sum(g.degrees()) == 2 * g.m

    @given(graphs(7))
    def test_degree_profile_totals(self, g):
        prof = Counter(g.degrees())
        assert sum(prof.values()) == g.n
        assert all(len(small_degree_set(g, b)) == sum(c for d, c in prof.items() if d <= b)
                   for b in range(g.n))


class TestMultiGraph:
    def test_multiplicity(self):
        g = MultiGraph(3, [(0, 1, 2), (1, 2, 1), (0, 1, 1)])
        assert g.multiplicity(0, 1) == 3
        assert g.degree(1) == 4
        assert g.m == 4

    def test_skeleton(self):
        g = MultiGraph(3, [(0, 1, 3), (1, 2, 2)])
        s = g.skeleton()
        assert isinstance(s, Graph) and s.edges() == [(0, 1), (1, 2)]

    def test_subdivide_degrees(self):
        g = MultiGraph(2, [(0, 1, 3)])
        s, mids = subdivide(g)
        assert s.n == 2 + 3
        assert s.degree(0) == 3 and s.degree(1) == 3
        assert all(s.degree(m) == 2 for m in range(2, 5))

    def test_delete_one_edge(self):
        g = MultiGraph(2, [(0, 1, 2)])
        h = g.delete_one_edge(0, 1)
        assert h.multiplicity(0, 1) == 1


def bfs_reach(adj: dict[int, list[int]], sources, avoid) -> set[int]:
    """Plain breadth-first search over an explicit adjacency."""
    seen = {v for v in sources if v not in avoid}
    queue = deque(seen)
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen and w not in avoid:
                seen.add(w)
                queue.append(w)
    return seen


class TestReachable:
    @given(st.data())
    def test_equals_plain_bfs(self, data):
        # duplicate sources, sources inside `avoid`, and rows that a
        # caller filters (here: with some edges dropped)
        g = data.draw(graphs(8))
        vertex = st.integers(0, g.n - 1)
        sources = data.draw(st.lists(vertex, max_size=4))
        avoid = data.draw(st.sets(vertex, max_size=3))
        dropped = data.draw(st.sets(st.sampled_from(g.edges()), max_size=3)) if g.m else set()
        adj = {v: [w for w in range(g.n) if g.has_edge(v, w) and (min(v, w), max(v, w)) not in dropped]
               for v in range(g.n)}
        row = lambda v: [w for w in g.neighbors(v) if (min(v, w), max(v, w)) not in dropped]
        assert reachable(row, sources, avoid) == bfs_reach(adj, sources, avoid)
        assert reachable(g.neighbors, sources) == bfs_reach(
            {v: sorted(g.neighbors(v)) for v in range(g.n)}, sources, set())

    @given(graphs(8), st.data())
    def test_components_of_subset_equal_plain_bfs(self, g, data):
        vs = data.draw(st.sets(st.integers(0, g.n - 1)))
        outside = set(range(g.n)) - vs
        adj = {v: sorted(g.neighbors(v)) for v in range(g.n)}
        comps = {frozenset(bfs_reach(adj, [v], outside)) for v in vs}
        assert components_of_subset(g, vs) == sorted(comps, key=min)
        assert is_connected_subset(g, vs) == (len(comps) == 1)
        assert g.is_connected() == (len(bfs_reach(adj, [0], set())) == g.n)


class TestSubsets:
    def test_components_of_subset_ordering(self):
        g = cycle_graph(6)
        comps = components_of_subset(g, [0, 1, 3, 4])
        assert comps == [frozenset({0, 1}), frozenset({3, 4})]

    def test_boundaries(self):
        g = cycle_graph(5)
        h = {0, 1}
        assert vertex_boundary(g, h) == frozenset({0, 1})
        assert edge_boundary(g, h) == frozenset({(0, 4), (1, 2)})
        assert external_neighborhood(g, h) == frozenset({2, 4})

    def test_region_of(self):
        g = cycle_graph(6)
        r = region_of(g, [0, 1, 2])
        assert r.boundary == frozenset({0, 2})
        assert r.interior == frozenset({1})
        assert r.profound

    def test_region_must_be_connected(self):
        with pytest.raises(InvalidParams):
            region_of(cycle_graph(6), [0, 3])

    def test_region_must_be_nonempty(self):
        with pytest.raises(EmptyRegion):
            region_of(cycle_graph(6), [])


class TestConstructors:
    def test_path_cycle_complete(self):
        assert path_graph(4).degrees() == (1, 2, 2, 1)
        assert cycle_graph(5).degrees() == (2,) * 5
        assert complete_graph(4).m == 6

    def test_square_of_path(self):
        sq = square(path_graph(5))
        assert sq.degrees() == (2, 3, 4, 3, 2)

    def test_square_of_p3_is_triangle(self):
        assert square(path_graph(3)) == complete_graph(3)

    def test_cartesian_ladder(self):
        lad = cartesian_product(path_graph(3), complete_graph(2))
        assert lad == ladder_graph(3)
        assert sorted(lad.degrees()) == [2, 2, 2, 2, 3, 3]

    def test_strong_product_degree(self):
        g = strong_product(cycle_graph(4), complete_graph(2))
        # every vertex: 1 clique neighbor + 2x2 neighbors in adjacent columns
        assert g.degrees() == (5,) * 8

    def test_product_sizes(self):
        g, h = cycle_graph(3), path_graph(4)
        assert cartesian_product(g, h).n == 12
        assert strong_product(g, h).m == (
            cartesian_product(g, h).m + g.m * h.m * 2
        )

    @given(graphs(max_n=4, min_n=1), graphs(max_n=4, min_n=1))
    def test_products_match_definition(self, g, h):
        assert cartesian_product(g, h) == product_graph(g, h, strong=False)
        assert strong_product(g, h) == product_graph(g, h, strong=True)
