from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from minconn.connectivity import (
    Connectivity,
    edge_connectivity,
    is_k_connected,
    is_k_edge_connected,
    vertex_connectivity,
)
from minconn.enumeration import enumerate_all
from minconn.errors import InvalidParams, TooSmall
from minconn.flow import FlowNetwork
from minconn.graphs import (
    Graph,
    MultiGraph,
    cartesian_product,
    complete_graph,
    cycle_graph,
    path_graph,
)
from minconn.minimality import (
    _K1_EMPTY,
    MinimalityClass,
    PredicateResult,
    check_class,
    classify,
    is_edge_min_k_connected,
    is_edge_min_k_edge_connected,
    is_vertex_min_k_connected,
    is_vertex_min_k_edge_connected,
)
from minconn.constructions import band_graph, multipath

from oracles import ladder_graph, small_multigraphs
from test_connectivity import multigraphs


@st.composite
def graphs(draw, min_n=2, max_n=7):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, b in zip(pairs, mask) if b])


# The literal deletion loops: delete each element in turn and run a full
# connectivity check on the copy.  They are the oracle for the local
# tests in minimality.py, which must agree on holds, reason and certificate.


def literal_edge_min_k_connected(g, k):
    if not is_k_connected(g, k):
        return PredicateResult(False, f"not {k}-connected")
    if is_k_connected(g, k + 1):
        e = g.edges()[0]
        return PredicateResult(False, f"{k + 1}-connected, so deleting edge {e} keeps {k}-connectivity", e)
    for e in g.edges():
        if is_k_connected(g.delete_edge(*e), k):
            return PredicateResult(False, f"deleting edge {e} keeps {k}-connectivity", e)
    return PredicateResult(True)


def literal_vertex_min_k_connected(g, k):
    if k == 1:
        return PredicateResult(False, _K1_EMPTY)
    if not is_k_connected(g, k):
        return PredicateResult(False, f"not {k}-connected")
    if is_k_connected(g, k + 1):
        return PredicateResult(False, f"{k + 1}-connected, so deleting vertex 0 keeps {k}-connectivity", 0)
    for v in range(g.n):
        if is_k_connected(g.delete_vertex(v)[0], k):
            return PredicateResult(False, f"deleting vertex {v} keeps {k}-connectivity", v)
    return PredicateResult(True)


def literal_edge_min_k_edge_connected(g, k):
    if not is_k_edge_connected(g, k):
        return PredicateResult(False, f"not {k}-edge-connected")
    multi = isinstance(g, MultiGraph)
    classes = g.edges()
    if is_k_edge_connected(g, k + 1):
        e = classes[0]
        return PredicateResult(False, f"{k + 1}-edge-connected, so deleting edge {e} keeps {k}-edge-connectivity", e)
    for e in classes:
        h = g.delete_one_edge(*e) if multi else g.delete_edge(*e)
        if is_k_edge_connected(h, k):
            deleting = "deleting one copy of edge" if multi else "deleting edge"
            return PredicateResult(False, f"{deleting} {e} keeps {k}-edge-connectivity", e)
    return PredicateResult(True)


def literal_vertex_min_k_edge_connected(g, k):
    if k == 1:
        return PredicateResult(False, _K1_EMPTY)
    if not is_k_edge_connected(g, k):
        return PredicateResult(False, f"not {k}-edge-connected")
    for v in range(g.n):
        if is_k_edge_connected(g.delete_vertex(v)[0], k):
            return PredicateResult(False, f"deleting vertex {v} keeps {k}-edge-connectivity", v)
    return PredicateResult(True)


LITERAL = {
    MinimalityClass.EDGE_MIN_CONN: literal_edge_min_k_connected,
    MinimalityClass.VERTEX_MIN_CONN: literal_vertex_min_k_connected,
    MinimalityClass.EDGE_MIN_EDGE_CONN: literal_edge_min_k_edge_connected,
    MinimalityClass.VERTEX_MIN_EDGE_CONN: literal_vertex_min_k_edge_connected,
}


EDGE_CONN_CLASSES = (MinimalityClass.EDGE_MIN_EDGE_CONN, MinimalityClass.VERTEX_MIN_EDGE_CONN)


def reversed_labels(g):
    return Graph(g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges()])


def assert_same_as_literal(g, ks, classes=tuple(LITERAL)):
    # `classes` are the ones classify reports for g
    for k in ks:
        report = classify(g, k)
        assert list(report.results) == list(classes)
        for cls in classes:
            want = LITERAL[cls](g, k)
            assert check_class(g, cls, k) == want, (cls, k, g.n, g.edges())
            assert report.results[cls] == want, (cls, k, g.n, g.edges())


class TestAgainstBruteForce:
    @given(graphs(), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_all_predicates(self, g, k):
        assert_same_as_literal(g, [k])

    def test_corpus7_k1_to_5(self, corpus7):
        for g in corpus7:
            assert_same_as_literal(g, range(1, 6))

    def test_corpus7_reversed_k1_to_5(self, corpus7):
        # Corpus labels put low degrees first; reversed, the high-degree
        # vertices come first in the walk and certify the others.
        for g in corpus7:
            assert_same_as_literal(reversed_labels(g), range(1, 6))

    def test_random_corpus_k1_to_5(self, random_corpus):
        for g in random_corpus:
            assert_same_as_literal(g, range(1, 6))

    @given(multigraphs(), st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_multigraph_edge_classes(self, g, k):
        assert_same_as_literal(g, [k], EDGE_CONN_CLASSES)

    def test_small_multigraphs(self):
        for g in small_multigraphs():
            assert_same_as_literal(g, (2, 3, 4), EDGE_CONN_CLASSES)

    def test_multipaths(self):
        assert_same_as_literal(multipath(3, 5), range(1, 6), EDGE_CONN_CLASSES)
        thick = MultiGraph(3, [(0, 1, 3), (1, 2, 2)])
        assert_same_as_literal(thick, range(1, 4), EDGE_CONN_CLASSES)
        assert check_class(thick, MinimalityClass.EDGE_MIN_EDGE_CONN, 2).reason == (
            "deleting one copy of edge (0, 1) keeps 2-edge-connectivity"
        )


class TestSharedNetworks:
    """classify builds at most one split network (2n nodes) and one edge
    network (n nodes) per graph, shared by the four predicates."""

    def assert_shared(self, sizes, g, k):
        sizes.clear()
        classify(g, k)
        splits, edges = sizes.count(2 * g.n), sizes.count(g.n)
        assert splits <= 1 and edges <= 1 and len(sizes) == splits + edges, (k, g.n, sizes)

    def test_corpus7(self, corpus7, network_sizes):
        for g in corpus7:
            for k in range(1, 6):
                self.assert_shared(network_sizes, g, k)

    # one patch serves every example: each assertion clears the sizes first
    @given(multigraphs(), st.integers(1, 5))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_multigraphs(self, network_sizes, g, k):
        self.assert_shared(network_sizes, g, k)


class TestLocalFacts:
    """Degrees and common neighbours settle most of classify's questions
    on the corpus with no flow: kappa <= delta in `separator_below`, the
    common-neighbour floors of the record's pair loops and per-edge
    questions, and the degree-k facts of classes a and c.  Pinned per k
    over corpus7: breadth-first searches (`FlowNetwork._bfs` calls),
    which read 21,154 / 11,848 / 5,190 without the facts, and the
    record's questions per element.  Dropping any one fact raises at
    least one count."""

    def test_counts_pinned(self, corpus7, monkeypatch):
        counts = Counter()

        def counting(name, method):
            def counted(*args, **kwargs):
                counts[name] += 1
                return method(*args, **kwargs)
            return counted

        monkeypatch.setattr(FlowNetwork, "_bfs", counting("searches", FlowNetwork._bfs))
        for name in ("separator_below", "paths_avoiding_edge", "edge_side"):
            monkeypatch.setattr(Connectivity, name, counting(name, getattr(Connectivity, name)))
        want = {
            2: {"searches": 6594, "separator_below": 3991, "paths_avoiding_edge": 416, "edge_side": 388},
            3: {"searches": 2655, "separator_below": 2984, "paths_avoiding_edge": 132, "edge_side": 125},
            4: {"searches": 349, "separator_below": 2597, "paths_avoiding_edge": 22, "edge_side": 22},
        }
        for k in want:
            counts.clear()
            for g in corpus7:
                classify(g, k)
            assert counts == want[k], k

    def test_flows_pinned(self, monkeypatch):
        # (pair flows, searches) of classify over the graphs up to 7
        # vertices of minimum degree k: every flow the predicates run
        counts = [0, 0]
        flow, bfs = FlowNetwork.flow, FlowNetwork._bfs

        def counting_flow(self, *args):
            counts[0] += 1
            return flow(self, *args)

        def counting_bfs(self, s, t):
            counts[1] += 1
            return bfs(self, s, t)

        monkeypatch.setattr(FlowNetwork, "flow", counting_flow)
        monkeypatch.setattr(FlowNetwork, "_bfs", counting_bfs)
        want = {2: (3197, 6594), 3: (868, 2655), 4: (85, 349)}
        got = {}
        for k in want:
            counts[:] = 0, 0
            for g in enumerate_all(7, k):
                classify(g, k)
            got[k] = tuple(counts)
        assert got == want


class TestKnownMembers:
    def test_cycle_is_everything_at_2(self):
        g = cycle_graph(6)
        rep = classify(g, 2)
        assert [c.value for c in rep.member_classes()] == ["a", "b", "c", "d"]

    def test_complete_graph_class_a(self):
        # K_{k+1} is edge-minimally k-connected: deleting any edge
        # leaves two vertices of degree k-1.
        assert is_edge_min_k_connected(complete_graph(4), 3).holds
        assert is_vertex_min_k_connected(complete_graph(4), 3).holds

    def test_ladders_class_d(self):
        for m in (2, 3, 4, 5):
            lad = ladder_graph(m)
            assert is_vertex_min_k_edge_connected(lad, 2).holds, m

    def test_band_graph_classes(self):
        band = band_graph(3, 2).graph
        assert is_vertex_min_k_connected(band, 3).holds
        assert is_vertex_min_k_edge_connected(band, 3).holds
        assert not is_edge_min_k_connected(band, 3).holds

    def test_trees_are_edge_min_1(self):
        assert is_edge_min_k_connected(path_graph(5), 1).holds
        assert is_edge_min_k_edge_connected(path_graph(5), 1).holds

    def test_k1_vertex_classes_empty(self):
        for g in (path_graph(4), cycle_graph(5), complete_graph(3)):
            assert not is_vertex_min_k_connected(g, 1).holds
            assert not is_vertex_min_k_edge_connected(g, 1).holds

    def test_triangle_is_vertex_min_2_edge_connected(self):
        assert is_vertex_min_k_edge_connected(complete_graph(3), 2).holds

    def test_multipath_class_c_only(self):
        g = multipath(3, 5)
        rep = classify(g, 3)
        assert rep.holds(MinimalityClass.EDGE_MIN_EDGE_CONN)
        assert not rep.holds(MinimalityClass.VERTEX_MIN_EDGE_CONN)

    def test_prism_not_minimal(self):
        # C_3 x K_2 is 3-connected/3-edge-connected but not minimal in
        # any sense at k=2: deleting an edge keeps 2-connectivity.
        g = cartesian_product(cycle_graph(3), complete_graph(2))
        assert not any(classify(g, 2).results[c].holds for c in MinimalityClass)


class TestCertificates:
    @given(graphs(min_n=3, max_n=7), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_failure_certificates_check_out(self, g, k):
        for cls in MinimalityClass:
            res = check_class(g, cls, k)
            if res.holds or res.certificate is None:
                continue
            if cls.deletes_edges:
                u, v = res.certificate
                h = g.delete_edge(u, v)
            else:
                h = g.delete_vertex(res.certificate)[0]
            # the certificate deletion keeps the base connectivity
            if cls.uses_edge_connectivity:
                assert is_k_edge_connected(h, k)
            else:
                assert is_k_connected(h, k)

    def test_multigraph_vertex_classes_rejected(self):
        g = MultiGraph(3, [(0, 1, 2), (1, 2, 2), (0, 2, 2)])
        with pytest.raises(InvalidParams):
            check_class(g, MinimalityClass.EDGE_MIN_CONN, 2)
        with pytest.raises(InvalidParams):
            check_class(g, MinimalityClass.VERTEX_MIN_CONN, 2)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            classify(Graph(1), 1)


class TestExclusivity:
    def test_higher_connectivity_excludes_minimality(self, small_corpus):
        # A (k+1)-connected graph is never edge- or vertex-minimally
        # k-connected, and similarly for edge connectivity.
        for g in small_corpus:
            k = 2
            if vertex_connectivity(g) > k:
                assert not check_class(g, MinimalityClass.EDGE_MIN_CONN, k).holds
                assert not check_class(g, MinimalityClass.VERTEX_MIN_CONN, k).holds
            if edge_connectivity(g) > k:
                assert not check_class(g, MinimalityClass.EDGE_MIN_EDGE_CONN, k).holds
