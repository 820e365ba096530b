import pytest
from hypothesis import example, given, settings, strategies as st

from minconn import witnesses
from minconn.connectivity import Connectivity
from minconn.constructions import band_graph, cycle_clique_strong, multipath, path_square_example
from minconn.errors import ClassMismatch, InvalidParams, NoSuchEdge, PreconditionViolated
from minconn.flow import FlowNetwork
from minconn.graphs import (
    Graph,
    MixedSet,
    MultiGraph,
    complete_graph,
    components_of_subset,
    cycle_graph,
    external_neighborhood,
    path_graph,
    region_of,
)
from minconn.minimality import MinimalityClass, check_class
from minconn.witnesses import (
    MinimalRegionResult,
    boundary_edge_count,
    crossing_separators_witness,
    default_profound_region,
    degree_bound,
    edge_min_witness_pair,
    minimal_region_small_edge_boundary,
    required_count,
    small_component_witness,
    vertex_min_edge_witness_pair,
    witness_report,
)
from oracles import (
    class_d_bands,
    class_d_rings,
    ladder_graph,
    reference_class_d_start,
    reference_least_vertex_drop,
    relabelled,
    small_multigraphs,
)

A = MinimalityClass.EDGE_MIN_CONN
B = MinimalityClass.VERTEX_MIN_CONN
C = MinimalityClass.EDGE_MIN_EDGE_CONN
D = MinimalityClass.VERTEX_MIN_EDGE_CONN


class TestCrossingSeparators:
    def test_cycle_trace_by_hand(self):
        # C_6 at k=2: the default region is {0,1,2} with boundary {0,2};
        # the separator through the interior vertex 1 is {1,5}, the only
        # non-empty quadrant is C2 cap D2 = {3,4}, and the small set is
        # the region interior itself.
        g = cycle_graph(6)
        region = default_profound_region(g, 2)
        assert sorted(region.vertices) == [0, 1, 2]
        t = crossing_separators_witness(g, region, 2)
        assert t.boundary == (0, 2)
        assert t.x == 1
        assert t.separator == (1, 5)
        assert t.overlap == ()
        assert t.quadrants == {
            "C1D1": (), "C1D2": (), "C2D1": (), "C2D2": (3, 4),
        }
        assert t.small_set_name == "C1" and t.small_set == (1,)
        assert t.witness == 1 and t.degree == 2 and t.bound == 2
        assert t.witness_in_region
        assert t.shrink_trail == ()

    def test_complete_graphs_have_no_region(self):
        assert default_profound_region(complete_graph(4), 3) is None
        assert default_profound_region(complete_graph(3), 2) is None

    def test_trace_invariants_on_corpus(self, corpus7):
        checked = 0
        for g in corpus7:
            for k in (2, 3, 4):
                if not check_class(g, B, k):
                    continue
                region = default_profound_region(g, k)
                if region is None:
                    continue  # complete graph: nothing to trace
                t = crossing_separators_witness(g, region, k)
                checked += 1
                bnd, sep = set(t.boundary), set(t.separator)
                small = set(t.small_set)
                assert len(bnd) == k and len(sep) == k
                assert t.overlap == tuple(sorted(bnd & sep))
                assert small and small <= bnd | sep
                assert 2 * len(small) + len(t.overlap) <= k
                assert t.witness in small
                assert t.degree == g.degree(t.witness) <= t.bound == 3 * k // 2 - 1
                # the two diagonal cover pairs partition T and T'
                covers = t.covers
                assert len(covers["C1D1"]) + len(covers["C2D2"]) == 2 * k
                assert len(covers["C1D2"]) + len(covers["C2D1"]) == 2 * k
                for name, quad in t.quadrants.items():
                    assert external_neighborhood(g, quad) <= set(covers[name])
                # the quadrants and the two splitting sets tile the graph
                tiles = set().union(*map(set, t.quadrants.values())) | bnd | sep
                assert tiles == set(range(g.n))
                interior = set(t.region) - bnd
                outside = set(range(g.n)) - set(t.region)
                if len(outside) > len(interior):
                    assert t.witness_in_region
                for earlier in t.shrink_trail:
                    assert set(t.region) < set(earlier)
        assert checked == 43  # incomplete class-b members up to 7 vertices

    def test_rejects_non_member(self):
        g = path_graph(4)
        region = region_of(g, {0, 1, 2})
        with pytest.raises(PreconditionViolated):
            crossing_separators_witness(g, region, 2)

    def test_rejects_wrong_boundary_size(self):
        g = band_graph(3, 2).graph  # a class-b member at k = 3
        region = region_of(g, {0, 1, 2, 3})  # boundary {0,1,2,3}, not a 3-region
        with pytest.raises(PreconditionViolated, match="need a k-region"):
            crossing_separators_witness(g, region, 3)

    def test_rejects_shallow_region(self):
        g = cycle_graph(6)
        region = region_of(g, {0, 1})  # no interior vertex
        with pytest.raises(PreconditionViolated, match="not profound"):
            crossing_separators_witness(g, region, 2)

    def test_one_split_network_per_run(self, corpus7, network_sizes):
        # The membership check and every shrink step's separator through
        # x are asked on one record of G, which builds its split network
        # at its first flow: a fresh run builds one, and a record shared
        # by check_class and the procedure builds at most one between
        # them.  Degrees and common neighbours may answer membership with
        # no flow (C4 at k = 2), and then the procedure builds it.
        members = [(g, k) for g in corpus7 for k in (2, 3, 4) if check_class(g, B, k)]
        members += [(band_graph(k, l).graph, k) for k, l in ((3, 5), (3, 8), (4, 6))]
        members += [(cycle_clique_strong(6, 10), 6), (cycle_clique_strong(8, 10), 8)]
        shrunk = 0
        for g, k in members:
            region = default_profound_region(g, k)
            if region is None:
                continue
            network_sizes.clear()
            t = crossing_separators_witness(g, region, k)
            assert network_sizes == [2 * g.n], (g, k)
            conn = Connectivity(g)
            network_sizes.clear()
            assert check_class(g, B, k, conn)
            assert crossing_separators_witness(g, region, k, conn=conn) == t
            assert network_sizes in ([], [2 * g.n]), (g, k)
            shrunk += bool(t.shrink_trail)
        assert shrunk


class TestSmallComponentWitness:
    def test_cycle_component(self):
        g = cycle_graph(6)
        s = MixedSet.of(edges=[(0, 1), (2, 3)])
        assert small_component_witness(g, s, {1, 2}, 2) == 1

    def test_with_deleted_vertex(self):
        # deleting vertex 0 and edge (1,2) from C_6 strands vertex 1
        g = cycle_graph(6)
        s = MixedSet.of(vertices=[0], edges=[(1, 2)])
        assert small_component_witness(g, s, {1}, 2) == 1

    def test_rejects_oversized_set(self):
        g = cycle_graph(6)
        s = MixedSet.of(edges=[(0, 1), (2, 3), (4, 5)])
        with pytest.raises(PreconditionViolated):
            small_component_witness(g, s, {1, 2}, 2)

    def test_rejects_component_meeting_deleted_vertices(self):
        g = cycle_graph(6)
        s = MixedSet.of(vertices=[1], edges=[(2, 3)])
        with pytest.raises(PreconditionViolated):
            small_component_witness(g, s, {1, 2}, 2)

    def test_rejects_non_component(self):
        g = cycle_graph(6)
        s = MixedSet.of(edges=[(0, 1), (2, 3)])
        with pytest.raises(PreconditionViolated):
            small_component_witness(g, s, {1}, 2)

    def test_rejects_large_component(self):
        g = cycle_graph(6)
        s = MixedSet.of(edges=[(0, 1), (2, 3)])
        with pytest.raises(PreconditionViolated):
            small_component_witness(g, s, {3, 4, 5, 0}, 2)

    def test_search_skips_deleted_vertices_and_edges(self):
        # C_5 minus vertex 0 and edge (2,3) leaves the paths 1-2 and 3-4.
        g = cycle_graph(5)
        s = MixedSet.of([0], [(2, 3)])
        with pytest.raises(PreconditionViolated, match="more than"):
            small_component_witness(g, s, {1, 2}, 3)  # a component, but too large
        for not_a_component in ({1}, {2, 3}, {1, 2, 3}, {1, 2, 3, 4}):
            with pytest.raises(PreconditionViolated, match="not a component"):
                small_component_witness(g, s, not_a_component, 3)

    def test_rejects_missing_edge(self):
        with pytest.raises(NoSuchEdge):
            small_component_witness(cycle_graph(5), MixedSet.of([], [(0, 2)]), {1}, 2)

    def test_rejects_multigraphs(self):
        g = MultiGraph(3, [(0, 1, 2), (1, 2, 2), (0, 2, 2)])
        with pytest.raises(InvalidParams):
            small_component_witness(g, MixedSet.of([0], [(1, 2)]), {1}, 3)


class TestMinimalRegion:
    def test_cycle_descends_to_vertex(self):
        g = cycle_graph(6)
        res = minimal_region_small_edge_boundary(g, region_of(g, {0, 1, 2, 3}), 3)
        assert len(res.region.vertices) == 1
        assert boundary_edge_count(g, res.region.vertices) < 3
        assert res.verified_minimal == "exact"

    def test_multigraph_region(self):
        g = multipath(3, 5)
        res = minimal_region_small_edge_boundary(g, region_of(g, {0, 1, 2}), 4)
        assert boundary_edge_count(g, res.region.vertices) < 4
        assert res.verified_minimal == "exact"

    def test_minimality_is_real(self, small_corpus):
        # exhaustively confirm inclusion-minimality on a handful of hosts
        from itertools import combinations

        from minconn.graphs import is_connected_subset

        seen = 0
        for g in small_corpus:
            if g.n != 5 or not g.is_connected() or min(g.degrees()) < 2:
                continue
            host = region_of(g, range(g.n))
            m = min(g.degrees()) + 1
            res = minimal_region_small_edge_boundary(g, host, m)
            verts = set(res.region.vertices)
            assert boundary_edge_count(g, verts) < m
            for size in range(1, len(verts)):
                for sub in combinations(sorted(verts), size):
                    if is_connected_subset(g, sub):
                        assert boundary_edge_count(g, sub) >= m
            seen += 1
        assert seen == 11  # every 5-vertex connected host with min degree >= 2


@st.composite
def region_hosts(draw):
    """(g, H): a graph or multigraph on 1-10 vertices and a connected H, a
    component of a drawn vertex set.  A drawn tree makes every inner vertex
    of H a cut vertex, the search's root min(H) among them; multiplicities
    1-3 put parallel edges inside H and across its boundary."""
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = {p for p, b in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                           max_size=len(pairs)))) if b}
    edges = sorted(edges)
    if draw(st.booleans()):
        g = MultiGraph(n, [(u, v, draw(st.integers(1, 3))) for u, v in edges])
    else:
        g = Graph(n, edges)
    start = draw(st.integers(0, n - 1))
    keep = draw(st.sets(st.integers(0, n - 1))) | {start}
    return g, set(next(c for c in components_of_subset(g, keep) if start in c))


class TestRegionStep:
    """The greedy descent's step: one depth-first search of G[H] gives
    every component of every H - v and its boundary."""

    @given(region_hosts())
    @settings(max_examples=300, deadline=None)
    @example((Graph(1, []), {0}))
    @example((Graph(3, [(0, 1), (1, 2)]), {0, 1}))
    # parallel edges inside H and across its boundary
    @example((MultiGraph(3, [(0, 1, 2), (1, 2, 3)]), {0, 1}))
    # a star: the root is the cut vertex
    @example((Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)]), {0, 1, 2, 3, 4}))
    # a bowtie: the cut vertex 2 lies below the root
    @example((Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5)]), set(range(5))))
    # a multipath: every inner vertex cuts, with parallel edges on the boundary
    @example((MultiGraph(5, [(0, 1, 2), (1, 2, 1), (2, 3, 3), (3, 4, 2)]), {0, 1, 2, 3}))
    def test_equals_one_search_per_vertex(self, case):
        g, H = case
        for m in range(sum(g.degree(v) for v in H) + 2):
            assert witnesses._least_vertex_drop(g, H, m) == reference_least_vertex_drop(g, H, m), m

    def test_asks_no_component_search(self, monkeypatch):
        g = path_square_example(40).graph
        H = set(range(1, 40))
        expected = [reference_least_vertex_drop(g, H, m) for m in range(12)]
        monkeypatch.setattr(witnesses, "components_of_subset",
                            lambda *a: pytest.fail("searched the components of one H - v"))
        assert [witnesses._least_vertex_drop(g, H, m) for m in range(12)] == expected

    def test_path_square_component_searches(self, monkeypatch):
        # the 39-vertex side of path-square(40) takes the greedy branch:
        # only its pair check searches components, 3 times, where a
        # search per vertex per step made 43
        calls, search = [], witnesses.components_of_subset
        monkeypatch.setattr(witnesses, "components_of_subset",
                            lambda g, vs: calls.append(len(vs)) or search(g, vs))
        t = edge_min_witness_pair(path_square_example(40).graph, 3)
        assert (t.first.search, t.second.search, len(calls)) == ("exact", "local", 3)


class TestCutSplitting:
    def test_tree_leaves(self):
        t = edge_min_witness_pair(path_graph(4), 1)
        assert set(t.witnesses) == {0, 3}
        assert t.first.degree == t.second.degree == 1

    def test_cycle(self):
        t = edge_min_witness_pair(cycle_graph(6), 2)
        w1, w2 = t.witnesses
        assert w1 != w2 and len(t.cut) == 2

    def test_multipath_endpoints(self):
        t = edge_min_witness_pair(multipath(3, 5), 3)
        assert set(t.witnesses) == {0, 4}
        assert t.first.degree == t.second.degree == 3

    def test_invariants_on_corpus(self, corpus7):
        checked = 0
        for g in corpus7:
            for k in (1, 2, 3):
                if not check_class(g, C, k):
                    continue
                t = edge_min_witness_pair(g, k)
                checked += 1
                w1, w2 = t.witnesses
                assert w1 != w2
                assert g.degree(w1) == g.degree(w2) == k
                assert len(t.cut) == k
                assert t.first.search in ("exact", "local")
                for side in (t.first, t.second):
                    current = set(side.region)
                    for step in side.steps:
                        nxt = set(step.descended_to)
                        assert nxt < current
                        assert len(step.cut) == k
                        current = nxt
                    assert side.witness in set(side.region)
                # the starting sides partition the vertices
                assert set(t.first.side) | set(t.second.side) == set(range(g.n))
                assert not set(t.first.side) & set(t.second.side)
        assert checked == 58  # edge-minimal members up to 7 vertices, k <= 3

    def test_rejects_non_member(self):
        with pytest.raises(PreconditionViolated):
            edge_min_witness_pair(complete_graph(4), 2)

    @pytest.mark.parametrize("g,k", [
        (path_square_example(10).graph, 3),
        (path_square_example(12).graph, 3),
        (path_square_example(20).graph, 3),
        (multipath(2, 5), 2),
        (multipath(3, 8), 3),
        (cycle_graph(9), 2),
    ], ids=["path-square-10", "path-square-12", "path-square-20",
            "multipath-2-5", "multipath-3-8", "cycle-9"])
    def test_cut_splitting_from_unshrunk_sides(self, monkeypatch, g, k):
        # The region search ends on one vertex on every input we have, so
        # the cut-splitting loop is reached only when the search hands back
        # the min-cut side itself, as a local search may.
        monkeypatch.setattr(witnesses, "minimal_region_small_edge_boundary",
                            lambda host, region, m: MinimalRegionResult(region, "local"))
        t = edge_min_witness_pair(g, k)
        assert sum(len(side.steps) for side in (t.first, t.second)) >= 1
        for side in (t.first, t.second):
            assert side.region == side.side and side.search == "local"
            current = set(side.region)
            for step in side.steps:
                assert sum(g.multiplicity(u, v) for u, v in step.cut) == k
                nxt = set(step.descended_to)
                assert nxt < current
                current = nxt
            assert current == {side.witness}
            assert side.degree == g.degree(side.witness) == k

    def test_one_edge_network_per_run(self, corpus7, network_sizes):
        # The membership check, the minimum cut and every descent step's
        # cut through an edge are asked on one record of G, which builds
        # its edge network at its first flow: a fresh run builds one, and
        # a record shared by check_class and the procedure builds at most
        # one between them.
        members = [(g, k) for g in corpus7 for k in (1, 2, 3) if check_class(g, C, k)]
        members += [(g, k) for g in small_multigraphs() for k in (2, 3) if check_class(g, C, k)]
        members += [(multipath(3, 8), 3)]
        members += [(path_square_example(l).graph, 3) for l in (20, 30)]
        for g, k in members:
            network_sizes.clear()
            t = edge_min_witness_pair(g, k)
            assert network_sizes == [g.n], (g, k)
            conn = Connectivity(g)
            network_sizes.clear()
            assert check_class(g, C, k, conn)
            assert edge_min_witness_pair(g, k, conn=conn) == t
            assert network_sizes in ([], [g.n]), (g, k)


class TestRegionDescent:
    def test_triangle(self):
        t = vertex_min_edge_witness_pair(cycle_graph(3), 2)
        w1, w2 = t.witnesses
        assert w1 != w2 and {w1, w2} <= {0, 1, 2}

    def test_ladder_corners(self):
        g = ladder_graph(4)
        t = vertex_min_edge_witness_pair(g, 2)
        assert t.first.degree == t.second.degree == 2
        assert t.first.witness != t.second.witness

    def test_band(self):
        g = band_graph(4, 2).graph
        t = vertex_min_edge_witness_pair(g, 4)
        assert t.first.degree == t.second.degree == 4

    def test_invariants_on_corpus(self, corpus7):
        checked = 0
        for g in corpus7:
            for k in (2, 3):
                if not check_class(g, D, k):
                    continue
                t = vertex_min_edge_witness_pair(g, k)
                checked += 1
                for side in (t.first, t.second):
                    assert g.degree(side.witness) == k
                    assert len(side.counting_set["vertices"]) + len(side.counting_set["edges"]) <= k
                    assert side.witness in set(side.final_region)
                    assert side.witness != side.final_x
                    sizes = [len(side.start)] + [len(s.descended_to) for s in side.steps]
                    assert sizes == sorted(sizes, reverse=True)
                assert t.first.witness != t.second.witness
        assert checked == 49  # vertex-minimal members up to 7 vertices

    def test_rejects_non_member(self):
        with pytest.raises(PreconditionViolated):
            vertex_min_edge_witness_pair(cycle_graph(6), 3)

    def test_one_edge_network_per_graph(self, corpus7, network_sizes):
        # Every G - x, for every x and in both descents, and the
        # membership check are asked on one record of G, which builds its
        # edge network at its first flow: a fresh run builds one, and a
        # record shared by check_class and the procedure builds at most
        # one between them.
        members = [(g, k) for g in corpus7 for k in (2, 3)
                   if g.min_degree() >= k and check_class(g, D, k)]
        members += [(band_graph(3, 4).graph, 3), (band_graph(4, 2).graph, 4), (ladder_graph(5), 2)]
        for g, k in members:
            network_sizes.clear()
            t = vertex_min_edge_witness_pair(g, k)
            assert network_sizes == [g.n], (g, k)
            conn = Connectivity(g)
            network_sizes.clear()
            assert check_class(g, D, k, conn)
            assert vertex_min_edge_witness_pair(g, k, conn=conn) == t
            assert network_sizes in ([], [g.n]), (g, k)

    def test_refuses_multigraphs(self):
        # The doubled triangle is a class-d member at k = 3 and 4, but its
        # degrees are all 4: the counting step needs a simple graph.
        g = MultiGraph(3, [(0, 1, 2), (1, 2, 2), (0, 2, 2)])
        for k in (3, 4):
            assert check_class(g, D, k)
            with pytest.raises(InvalidParams):
                vertex_min_edge_witness_pair(g, k)


@pytest.fixture
def scan_counts(monkeypatch):
    """Runs class d's procedure on (g, k), and returns its trace, the
    `Connectivity.cut_without` calls made before its first region descent
    (the start scan), and all of its calls."""
    xs, starts = [], []
    cut_without, descend = Connectivity.cut_without, witnesses._descend_region
    monkeypatch.setattr(Connectivity, "cut_without", lambda self, x: xs.append(x) or cut_without(self, x))
    monkeypatch.setattr(witnesses, "_descend_region", lambda *a: starts.append(len(xs)) or descend(*a))

    def run(g, k):
        xs.clear()
        starts.clear()
        t = vertex_min_edge_witness_pair(g, k)
        return t, starts[0], len(xs)

    return run


def corpus7_class_d(corpus7) -> list[tuple[int, Graph]]:
    """(k, graph): the class-d members of corpus7 at k = 2, 3, 4, with their
    labels as given and reversed."""
    return [(k, h) for g in corpus7
            for h in (g, Graph(g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges()]))
            for k in (2, 3, 4) if check_class(h, D, k)]


class TestClassDStart:
    """The start region comes from a branch-and-bound scan of the G - x:
    it must equal the all-x scan, and ask few G - x."""

    # (start scans, all scans) of band_graph(k, l) relabelled by its seed,
    # or as built, at the (k, l) that the member-traces benchmark traces in
    # class d.  The all-x scan asked all n vertices to start: (50, 51) and
    # (50, 65) for the two band(4, 8)s.
    BAND_SCANS = {
        (3, 2, "band/3/2/0"): (1, 3),
        (3, 3, "band/3/3/0"): (1, 2),
        (3, 4, "band/3/4/0"): (1, 3),
        (3, 5, "band/3/5/0"): (1, 5),
        (3, 6, "band/3/6/0"): (1, 5),
        (3, 7, "band/3/7/0"): (1, 5),
        (3, 8, "band/3/8/0"): (1, 9),
        (4, 2, "band/4/2/0"): (1, 2),
        (4, 3, "band/4/3/0"): (1, 3),
        (4, 4, "band/4/4/0"): (1, 4),
        (4, 8, "band/4/8/0"): (1, 2),
        (4, 8, None): (1, 16),
    }

    def test_corpus7_start_equals_the_all_x_scan(self, corpus7):
        members = corpus7_class_d(corpus7)
        for k, g in members:
            t = vertex_min_edge_witness_pair(g, k)
            assert (t.first.start, t.first.x) == reference_class_d_start(g, k), (g.edges(), k)
        assert len(members) == 134

    @pytest.mark.parametrize("members", [class_d_bands, class_d_rings])
    def test_start_equals_the_all_x_scan(self, members):
        for k, g in members():
            t = vertex_min_edge_witness_pair(g, k)
            assert (t.first.start, t.first.x) == reference_class_d_start(g, k), (g.edges(), k)

    def test_band_scans_pinned(self, scan_counts):
        got = {}
        for k, l, seed in self.BAND_SCANS:
            g = band_graph(k, l).graph
            got[k, l, seed] = scan_counts(g if seed is None else relabelled(g, seed), k)[1:]
        assert got == self.BAND_SCANS

    def test_every_band_starts_from_one_scan(self, scan_counts):
        for k, g in class_d_bands():
            assert scan_counts(g, k)[1] == 1, (g.edges(), k)

    def test_start_scans_only_vertices_with_a_degree_k_neighbour(self, corpus7, scan_counts):
        # Each size-2 candidate pairs x with a degree-k neighbour, so once
        # one is found only such x are scanned; with none, every x is.
        for k, g in corpus7_class_d(corpus7) + class_d_rings():
            t, start_scans, _ = scan_counts(g, k)
            floored = sum(any(g.degree(w) == k for w in g.neighbors(x)) for x in range(g.n))
            if len(t.first.start) == 2:
                assert start_scans <= floored, (g.edges(), k)
            else:
                assert start_scans == g.n, (g.edges(), k)


@pytest.fixture
def flow_counts(monkeypatch):
    """Runs a procedure on a record of g after that record's membership
    check, as `witness --explain` does, and returns the pair flows
    (`FlowNetwork.flow` calls) and searches (`FlowNetwork._bfs` calls) the
    procedure made."""
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

    def run(g, cls, k, procedure):
        conn = Connectivity(g)
        check_class(g, cls, k, conn)
        counts[:] = 0, 0
        procedure(g, k, conn)
        return tuple(counts)

    return run


def crossing_from_default_region(g, k, conn):
    return crossing_separators_witness(g, default_profound_region(g, k, conn), k, conn=conn)


def edge_min_pair(g, k, conn):
    return edge_min_witness_pair(g, k, conn=conn)


def vertex_min_edge_pair(g, k, conn):
    return vertex_min_edge_witness_pair(g, k, conn=conn)


class TestScanCounts:
    """The scans skip the pairs that a side found at the best value decides,
    with no flow where the value is the record's floor (see the
    connectivity module).  Pinned: the (flows, searches) of each procedure
    on a record its membership check has warmed.  Scanning every pair with
    limit best + 1 made, in order: (153, 331), (1411, 2380), (57, 52),
    (19, 22), (7, 7), (128, 309) and (768, 1137)."""

    CASES = [
        (B, "band(3, 4)", band_graph(3, 4).graph, 3, crossing_from_default_region, (61, 59)),
        (B, "band(4, 8)", band_graph(4, 8).graph, 4, crossing_from_default_region, (700, 525)),
        (B, "cycle-clique(6, 10)", cycle_clique_strong(6, 10), 6, crossing_from_default_region, (11, 6)),
        (C, "path-square(20)", path_square_example(20).graph, 3, edge_min_pair, (1, 4)),
        (C, "multipath(3, 8)", multipath(3, 8), 3, edge_min_pair, (1, 1)),
        (D, "band(3, 4)", band_graph(3, 4).graph, 3, vertex_min_edge_pair, (120, 177)),
        (D, "band(4, 8)", band_graph(4, 8).graph, 4, vertex_min_edge_pair, (768, 399)),
    ]

    @pytest.mark.parametrize("cls, name, g, k, procedure, pinned", CASES, ids=[
        f"{c.value}-{name}" for c, name, *_ in CASES])
    def test_counts_pinned(self, flow_counts, cls, name, g, k, procedure, pinned):
        assert flow_counts(g, cls, k, procedure) == pinned


class TestReports:
    def test_degree_bounds(self):
        assert [degree_bound(B, k) for k in (2, 3, 4, 5)] == [2, 3, 5, 6]
        assert degree_bound(A, 3) == 3
        assert degree_bound(C, 3) == 3
        assert degree_bound(D, 2) == 2

    def test_required_counts(self):
        c6 = cycle_graph(6)
        assert required_count(A, 2, c6) == 4  # Dirac and Plummer: ceil((n + 4) / 3) = 4 beats k+1 = 3
        assert required_count(B, 2, c6) == 2
        assert required_count(C, 2, c6) == 2
        assert required_count(C, 3, path_square_example(12).graph) == 4
        assert required_count(D, 2, c6) == 4
        # the triangle is the one graph too small for the four-vertex bound
        assert required_count(D, 2, cycle_graph(3)) == 2
        # parallel edges void both four-vertex bounds
        assert required_count(C, 3, multipath(3, 5)) == 2
        assert required_count(D, 2, MultiGraph(2, [(0, 1, 2)])) == 2
        assert required_count(D, 3, band_graph(3, 2).graph) == 2
        assert required_count(A, 1, path_graph(5)) == 2
        # k + 1 = 4 beats Mader's ceil(14/5) = 3 on K4
        assert required_count(A, 3, complete_graph(4)) == 4
        # max degree can dominate: a star's leaves, and K_{2,5}'s five
        # degree-2 vertices against ceil(11/3) = 4
        assert required_count(A, 1, Graph(5, [(0, i) for i in range(1, 5)])) == 4
        assert required_count(A, 2, Graph(7, [(i, j) for i in (0, 1) for j in range(2, 7)])) == 5

    def test_report_cycle(self):
        rep = witness_report(cycle_graph(6), A, 2)
        assert rep.bound == 2 and rep.required == 4
        assert len(rep.witnesses) == 6 and rep.satisfied
        assert rep.ratio == 1.0 and rep.min_degree == 2

    def test_report_triangle_exception(self):
        rep = witness_report(cycle_graph(3), D, 2)
        assert rep.required == 2 and len(rep.witnesses) == 3 and rep.satisfied

    def test_report_multigraph(self):
        rep = witness_report(multipath(2, 4), C, 2)
        assert len(rep.witnesses) == 2 and rep.satisfied
        assert [v for v, _ in rep.witnesses] == [0, 3]

    def test_report_json_shape(self):
        obj = witness_report(complete_graph(4), B, 3).to_json_obj()
        assert obj["class"] == "b" and obj["degree_bound"] == 3
        assert obj["count"] == 4 and obj["satisfied"] is True

    def test_class_mismatch(self):
        with pytest.raises(ClassMismatch):
            witness_report(path_graph(4), B, 2)


class TestFailsClosed:
    """Every procedure checks membership itself, so a graph outside the
    class fails with a package error, never with an internal assertion."""

    def test_non_members_raise_package_errors(self, corpus7):
        procedures = {
            B: lambda g, k: crossing_separators_witness(g, region_of(g, {0}), k),
            C: edge_min_witness_pair,
            D: vertex_min_edge_witness_pair,
        }
        refused = 0
        for g in corpus7:
            for k in (2, 3):
                for cls in MinimalityClass:
                    if check_class(g, cls, k):
                        continue
                    with pytest.raises(ClassMismatch, match=f"not in class {cls.value} for k={k}"):
                        witness_report(g, cls, k)
                    if cls in procedures:
                        with pytest.raises(PreconditionViolated, match=f"not in class {cls.value}"):
                            procedures[cls](g, k)
                    refused += 1
        assert refused == 9870  # (graph, k, class) triples outside the class

    def test_conn_is_keyword_only(self):
        # A positional argument after k is an error, not a record.
        g = cycle_graph(6)
        region = default_profound_region(g, 2)
        for call in (lambda: witness_report(g, B, 2, False),
                     lambda: crossing_separators_witness(g, region, 2, False),
                     lambda: edge_min_witness_pair(g, 2, False),
                     lambda: vertex_min_edge_witness_pair(g, 2, False)):
            with pytest.raises(TypeError):
                call()
