import pytest
from hypothesis import given, settings, strategies as st

from minconn.connectivity import (
    _Connectivity,
    _cut_from_side,
    _edge_network,
    _kappa_pairs,
    _split_network,
    brute_force_connectivity,
    edge_connectivity,
    is_k_connected,
    is_k_edge_connected,
    max_disjoint_paths,
    min_cut_containing_edge,
    min_edge_cut,
    min_separator_containing,
    min_vertex_separator,
    vertex_connectivity,
)
from minconn.errors import NoSeparatorThroughVertex, TooSmall
from minconn.flow import FlowNetwork
from minconn.graphs import (
    Graph,
    MultiGraph,
    complete_graph,
    components_of_subset,
    cycle_graph,
    path_graph,
)


@st.composite
def graphs(draw, min_n=2, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, b in zip(pairs, mask) if b])


@st.composite
def multigraphs(draw, min_n=2, max_n=6, max_mult=3):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mults = draw(
        st.lists(st.integers(0, max_mult), min_size=len(pairs), max_size=len(pairs))
    )
    return MultiGraph(n, [(u, v, m) for (u, v), m in zip(pairs, mults) if m])


def edge_connectivity_by_subdivision(mg: MultiGraph) -> int:
    """lambda of a multigraph via the subdivide-then-solve reduction.

    Subdividing every edge copy once turns parallel edges into disjoint
    paths of length two without changing any cut size, so edge-disjoint
    paths in the simple graph count lambda: a second, structurally
    different route for the multigraph code path.
    """
    simple, _ = mg.subdivide()
    return min(max_disjoint_paths(simple, [0], [t], mode="edge").count for t in range(1, mg.n))


def two_pass_separator(g: Graph) -> tuple[int, ...] | None:
    """The two-pass definition of `min_vertex_separator`'s choice: with
    kappa known, every pair of the scan again on a fresh network with
    limit kappa+1, keeping the smallest separator of a pair that reaches
    exactly kappa."""
    kappa, _ = brute_force_connectivity(g)
    best = None
    for s, t in _kappa_pairs(g):
        net = _split_network(g)
        if net.max_flow(2 * s + 1, 2 * t, kappa + 1) == kappa:
            reach = net.residual_reachable(2 * s + 1)
            sep = tuple(v for v in range(g.n) if 2 * v in reach and 2 * v + 1 not in reach)
            if best is None or sep < best:
                best = sep
    return best


def two_pass_cut(g):
    """The two-pass definition of `min_edge_cut`'s choice: with lambda
    known, a fresh network per pair from the minimum-degree vertex with
    limit lambda+1, keeping the cut with the smallest edge tuple."""
    _, lam = brute_force_connectivity(g)
    degs = g.degrees()
    v0 = min(range(g.n), key=lambda v: (degs[v], v))
    best = None
    for t in range(g.n):
        if t != v0:
            net = _edge_network(g)
            if net.max_flow(v0, t, lam + 1) == lam:
                cut = _cut_from_side(g, net.residual_reachable(v0))
                if best is None or cut.edges < best.edges:
                    best = cut
    return best


class TestOracleAgreement:
    @given(graphs())
    @settings(max_examples=300, deadline=None)
    def test_flow_matches_brute_force(self, g):
        bk, bl = brute_force_connectivity(g)
        assert vertex_connectivity(g) == bk
        assert edge_connectivity(g) == bl
        for k in range(1, 6):
            assert is_k_connected(g, k) == (bk >= k)
            assert is_k_edge_connected(g, k) == (bl >= k)

    @given(multigraphs())
    @settings(max_examples=150, deadline=None)
    def test_multigraph_lambda_matches_brute_force(self, g):
        bk, bl = brute_force_connectivity(g)
        assert edge_connectivity(g) == bl
        assert edge_connectivity_by_subdivision(g) == bl
        for k in range(1, 6):
            assert is_k_connected(g.skeleton(), k) == (bk >= k)
            assert is_k_edge_connected(g, k) == (bl >= k)

    def test_corpus_agreement(self, small_corpus):
        for g in small_corpus:
            assert (vertex_connectivity(g), edge_connectivity(g)) == brute_force_connectivity(g)


class TestSharedRecord:
    """The record's questions about G - v, asked on G's networks with v's
    arcs cut, against the same questions about the copy G - v."""

    def test_vertex_deletions_on_corpus(self, small_corpus):
        for g in small_corpus:
            conn = _Connectivity(g)
            for v in range(g.n):
                h, old = g.delete_vertex(v)
                rest = set(old)
                for j in range(1, 5):
                    sep = conn.separator_below(j, removed=v)
                    assert (sep is None) == (h.n >= 2 and is_k_connected(h, j)), (v, j, g.edges())
                    if sep is not None:
                        assert len(sep) < j and v not in sep
                    if sep is not None and h.n > j:  # else () for "too small"
                        assert len(components_of_subset(g, rest - set(sep))) > 1
                    lam = h.n >= 2 and is_k_edge_connected(h, j)
                    assert conn.edge_connected(j, removed=v) == lam, (v, j, g.edges())

    @given(multigraphs(min_n=3), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_multigraph_vertex_deletions(self, g, k):
        conn = _Connectivity(g)
        for v in range(g.n):
            assert conn.edge_connected(k, removed=v) == is_k_edge_connected(g.delete_vertex(v)[0], k)

    def test_whitney_answers_lambda_without_flow(self, small_corpus, monkeypatch):
        for g in small_corpus:
            conn = _Connectivity(g)
            for j in range(1, 5):
                if conn.separator_below(j) is None:
                    with monkeypatch.context() as mp:
                        mp.setattr(FlowNetwork, "max_flow", None)
                        assert conn.edge_connected(j)
                assert conn.edge_connected(j) == is_k_edge_connected(g, j)


class TestOnePassMatchesTwoPass:
    """One scan per cut kind returns what the two-pass definition picks."""

    def test_separators_on_corpus(self, small_corpus):
        for g in small_corpus:
            if not g.is_connected():
                continue
            sep = min_vertex_separator(g)
            assert (sep and sep.vertices) == two_pass_separator(g), g.edges()

    def test_cuts_on_corpus(self, small_corpus):
        for g in small_corpus:
            if g.is_connected():
                assert min_edge_cut(g) == two_pass_cut(g), g.edges()

    @given(multigraphs())
    @settings(max_examples=150, deadline=None)
    def test_cuts_on_multigraphs(self, g):
        if g.is_connected():
            assert min_edge_cut(g) == two_pass_cut(g)


class TestWhitney:
    @given(graphs())
    @settings(max_examples=200, deadline=None)
    def test_kappa_le_lambda_le_delta(self, g):
        assert vertex_connectivity(g) <= edge_connectivity(g) <= g.min_degree()


class TestKnownValues:
    def test_complete(self):
        assert vertex_connectivity(complete_graph(5)) == 4
        assert edge_connectivity(complete_graph(5)) == 4

    def test_cycle(self):
        assert vertex_connectivity(cycle_graph(6)) == 2
        assert edge_connectivity(cycle_graph(6)) == 2

    def test_path(self):
        assert vertex_connectivity(path_graph(5)) == 1

    def test_disconnected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert vertex_connectivity(g) == 0
        assert edge_connectivity(g) == 0

    def test_too_small(self):
        with pytest.raises(TooSmall):
            vertex_connectivity(Graph(1))

    def test_is_k_predicates(self):
        g = cycle_graph(5)
        assert is_k_connected(g, 2) and not is_k_connected(g, 3)
        assert is_k_edge_connected(g, 2) and not is_k_edge_connected(g, 3)

    def test_complete_graph_k_connected_needs_more_vertices(self):
        # K_4 counts as 3-connected but not 4-connected: no deletion
        # argument applies, the order is just too small.
        assert is_k_connected(complete_graph(4), 3)
        assert not is_k_connected(complete_graph(4), 4)

    def test_multigraph_edge_connectivity(self):
        g = MultiGraph(3, [(0, 1, 3), (1, 2, 2), (0, 2, 1)])
        assert edge_connectivity(g) == 3


class TestSeparators:
    def test_min_separator_is_separator(self, small_corpus):
        for g in small_corpus:
            if g.n < 3 or not g.is_connected():
                continue
            sep = min_vertex_separator(g)
            if sep is None:  # complete graphs have none
                assert vertex_connectivity(g) == g.n - 1
                continue
            assert len(sep.vertices) == vertex_connectivity(g)
            assert len(sep.sides) >= 2
            rest, keep = g.delete_vertices(sep.vertices)
            assert not rest.is_connected()

    def test_min_edge_cut_disconnects(self, small_corpus):
        for g in small_corpus:
            if not g.is_connected():
                continue
            cut = min_edge_cut(g)
            assert cut.size == edge_connectivity(g)
            h = g
            for u, v in cut.edges:
                h = h.delete_edge(u, v)
            assert not h.is_connected()

    def test_separator_through_vertex(self):
        g = cycle_graph(6)
        sep = min_separator_containing(g, 0)
        assert 0 in sep.vertices and len(sep.vertices) == 2

    def test_separator_through_vertex_none_on_complete(self):
        assert min_separator_containing(complete_graph(4), 0) is None

    def test_cut_containing_edge(self):
        g = cycle_graph(6)
        cut = min_cut_containing_edge(g, (0, 1))
        assert (0, 1) in cut.edges and cut.size == 2

    def test_multigraph_cut_containing_edge(self):
        g = MultiGraph(4, [(0, 1, 2), (1, 2, 1), (2, 3, 2), (3, 0, 1)])
        cut = min_cut_containing_edge(g, (1, 2))
        assert (1, 2) in cut.edges
        assert cut.size == 2  # (1,2) and (3,0), both multiplicity 1


def _reaches(g: Graph, a, b, dead_vertices=(), dead_edges=()) -> bool:
    """Whether some vertex of a reaches b avoiding the dead vertices and edges."""
    dead_e = {frozenset(e) for e in dead_edges}
    seen = set(a) - set(dead_vertices)
    stack = list(seen)
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w not in seen and w not in dead_vertices and frozenset((u, w)) not in dead_e:
                seen.add(w)
                stack.append(w)
    return bool(seen & set(b))


class TestDisjointPaths:
    @pytest.mark.parametrize(
        "mode,exempt",
        [("vertex", True), ("vertex", False), ("edge", True)],
        ids=["vertex-exempt", "vertex-strict", "edge"],
    )
    @given(graphs(min_n=4, max_n=7), st.data())
    @settings(max_examples=100, deadline=None)
    def test_menger_duality(self, mode, exempt, g, data):
        a = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=2))
        b_pool = sorted(set(range(g.n)) - a)
        b = data.draw(st.sets(st.sampled_from(b_pool), min_size=1, max_size=2))
        res = max_disjoint_paths(g, sorted(a), sorted(b), mode=mode, endpoint_exempt=exempt)
        assert len(res.paths) == res.count
        for p in res.paths:
            assert p[0] in a and p[-1] in b and len(p) >= 2
            assert all(g.has_edge(u, v) for u, v in zip(p, p[1:]))
        if mode == "edge":
            # edge-disjoint, dual to an A-B edge cut of the same size
            used = [frozenset(e) for p in res.paths for e in zip(p, p[1:])]
            assert len(used) == len(set(used))
            assert res.count == res.cut.size == len(res.cut.edges)
            assert not _reaches(g, a, b, dead_edges=res.cut.edges)
        elif exempt:
            # internally disjoint; the dual separator avoids A and B, and the
            # direct A-B edges, each a path of its own, complete it
            inner = [v for p in res.paths for v in p[1:-1]]
            assert len(inner) == len(set(inner))
            direct = [p for p in res.paths if len(p) == 2]
            assert not set(res.separator.vertices) & (a | b)
            assert res.count == res.separator.size + len(direct)
            assert not _reaches(g, a, b, res.separator.vertices, direct)
        else:
            # disjoint everywhere, dual to a separator that may meet A or B
            used = [v for p in res.paths for v in p]
            assert len(used) == len(set(used))
            assert res.count == res.separator.size
            assert not _reaches(g, a, b, res.separator.vertices)

    def test_vertex_paths_on_cycle(self):
        g = cycle_graph(6)
        res = max_disjoint_paths(g, [0], [3], mode="vertex")
        assert res.count == 2
        assert res.separator is not None and len(res.separator.vertices) == 2

    def test_edge_paths_on_cycle(self):
        g = cycle_graph(6)
        res = max_disjoint_paths(g, [0], [3], mode="edge")
        assert res.count == 2

    def test_separator_not_exempt_can_use_endpoints(self):
        # With endpoints not exempt the two leaves of a path are split
        # by any single inner vertex, and even by a side vertex itself.
        g = path_graph(5)
        res = max_disjoint_paths(g, [0], [4], mode="vertex", endpoint_exempt=False)
        assert res.count == 1
        assert res.separator is not None and len(res.separator.vertices) == 1
