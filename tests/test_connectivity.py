import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import minconn
from minconn.connectivity import (
    Connectivity,
    Cut,
    Separator,
    _cut_from_side,
    _edge_network,
    _split_network,
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
from minconn.constructions import band_graph, cycle_clique_strong, multipath, path_square_example
from minconn.errors import InvalidParams, TooSmall
from minconn.flow import FlowNetwork
from minconn.minimality import MinimalityClass, check_class
from minconn.graphs import (
    Graph,
    MultiGraph,
    complete_graph,
    components_of_subset,
    cycle_graph,
    path_graph,
)
from oracles import (
    brute_force_connectivity,
    cut_without_by_copy,
    local_edge_connectivity,
    local_vertex_connectivity,
    relabelled,
    separator_containing_by_copy,
    subdivide,
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
    simple, _ = subdivide(mg)
    return min(max_disjoint_paths(simple, [0], [t], mode="edge").count for t in range(1, mg.n))


def two_pass_separator(g: Graph) -> tuple[int, ...] | None:
    """The two-pass definition of `min_vertex_separator`'s choice: with
    kappa known, every pair of the scan again on a fresh network with
    limit kappa+1, keeping the smallest separator of a pair that reaches
    exactly kappa."""
    kappa, _ = brute_force_connectivity(g)
    best = None
    for s, t in Connectivity(g)._kappa_pairs():
        net = _split_network(g.n, g.edges())
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
            net = _edge_network(g.n, g.edges(), g.multiplicity)
            if net.max_flow(v0, t, lam + 1) == lam:
                cut = _cut_from_side(g, net.residual_reachable(v0))
                if best is None or cut.edges < best.edges:
                    best = cut
    return best


def reference_scan_separator(g: Graph, removed: int | None = None) -> tuple[int, ...] | None:
    """The vertex scan's choice by its definition, skipping no pair and
    knowing no floor: the value from a cold record, then every pair of
    `_kappa_pairs(removed)` from a fresh flow with limit value + 1 on G's
    split network with removed's arc at capacity 0, keeping the smallest
    separator of a pair that reaches exactly the value.  No pair falls
    below it."""
    cold = Connectivity(g)
    value, _ = cold._vertex_scan(removed)
    net = _split_network(g.n, g.edges())
    if removed is not None:
        net.cap[2 * removed] = 0
    built, best = net.cap, None
    for s, t in cold._kappa_pairs(removed):
        net.cap = list(built)
        reached = net.max_flow(2 * s + 1, 2 * t, value + 1)
        assert reached >= value, (s, t, removed)
        if reached == value:
            reach = net.residual_reachable(2 * s + 1)
            sep = tuple(v for v in range(g.n) if 2 * v in reach and 2 * v + 1 not in reach and v != removed)
            if best is None or sep < best:
                best = sep
    return best


def reference_scan_cut(g, removed: int | None = None) -> Cut:
    """The edge scan's choice by its definition, skipping no target and
    knowing no floor: the value from a cold record, then a fresh flow with
    limit value + 1 from the anchor (the least vertex of minimum degree in
    G - removed) to every other vertex, on G's edge network with removed's
    arcs at capacity 0, keeping the cut with the smallest edge tuple among
    those that reach exactly the value.  No target falls below it."""
    value, _ = Connectivity(g)._edge_scan(removed)
    net = _edge_network(g.n, g.edges(), g.multiplicity)
    degs = dict(enumerate(g.degrees()))
    if removed is not None:
        for a in net.adj[removed]:
            net.cap[a] = net.cap[a ^ 1] = 0
        for w in g.neighbors(removed):
            degs[w] -= g.multiplicity(removed, w)
        del degs[removed]
    v0 = min(degs, key=lambda v: (degs[v], v))
    built, best = net.cap, None
    for t in degs:
        if t != v0:
            net.cap = list(built)
            reached = net.max_flow(v0, t, value + 1)
            assert reached >= value, (t, removed)
            if reached == value:
                cut = _cut_from_side(g, net.residual_reachable(v0), removed)
                if best is None or cut.edges < best.edges:
                    best = cut
    return best


def connected_deletions(g) -> list[int]:
    """The x whose G - x is connected, for G on three or more vertices."""
    return [x for x in range(g.n if g.n >= 3 else 0)
            if len(components_of_subset(g, set(range(g.n)) - {x})) == 1]


def scan_answers(conn) -> list:
    """What the scans answer about a connected G: `min_cut()` and each
    `cut_without(x)` of a connected G - x, and for a simple G also
    `min_separator()` and those `separator_containing(x)`, as vertices."""
    g = conn.g
    simple = isinstance(g, Graph)
    answers = [conn.min_cut()] + ([conn.min_separator()] if simple else [])
    for x in connected_deletions(g):
        answers += [conn.cut_without(x)] + ([conn.separator_containing(x)] if simple else [])
    return [a.vertices if isinstance(a, Separator) else a for a in answers]


def reference_scan_answers(g) -> list:
    """`scan_answers` by the definitions above."""
    simple = isinstance(g, Graph)
    answers = [reference_scan_cut(g)] + ([reference_scan_separator(g)] if simple else [])
    for x in connected_deletions(g):
        answers.append(reference_scan_cut(g, x))
        if simple:
            sub = reference_scan_separator(g, x)
            answers.append(sub and tuple(sorted((x, *sub))))
    return answers


def assert_scans_match_reference(g) -> bool:
    """The scans' answers equal the references on a cold record and on one
    warmed by `check_class` at k = 2, 3 and 4, whose floors are then set;
    returns whether the warm record knew kappa >= 2 or lambda >= 2."""
    want = reference_scan_answers(g)
    assert scan_answers(Connectivity(g)) == want, g
    warm = Connectivity(g)
    for cls in MinimalityClass:
        if isinstance(g, Graph) or cls.uses_edge_connectivity:
            for k in (2, 3, 4):
                check_class(g, cls, k, warm)
    assert scan_answers(warm) == want, g
    return any(j >= 2 and sep is None for j, sep in warm._below.items()) or warm._edge_conn.get(2, False)


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

    def test_matches_networkx_beyond_seven_vertices(self):
        # the brute-force oracle stops at 12 vertices and the corpus at 7;
        # past them, networkx's flows check kappa, lambda and the sizes of
        # one minimum separator and one minimum cut
        nx = pytest.importorskip("networkx")
        rng = random.Random(27)
        cases = []
        for _ in range(30):
            n = rng.randint(8, 40)
            p = rng.uniform(0.1, 0.6)
            cases.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
        cases += [
            band_graph(3, 4).graph, band_graph(4, 3).graph, cycle_clique_strong(4, 5),
            cycle_clique_strong(6, 4), path_square_example(12).graph, path_square_example(20).graph,
        ]
        # the simple graphs of perfbench's member-traces, at its sizes
        cases += [band_graph(k, l).graph for k in (3, 4) for l in range(2, 9)]
        cases += [cycle_clique_strong(k, l) for k, l in ((6, 10), (6, 12), (6, 14), (8, 10))]
        cases += [path_square_example(l).graph for l in range(20, 41, 2)]
        for g in cases:
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            conn = Connectivity(g)
            sep, cut = conn.min_separator(), conn.min_cut()
            kappa = g.n - 1 if sep is None else sep.size
            assert (kappa, cut.size) == (nx.node_connectivity(h), nx.edge_connectivity(h)), g.edges()
            if nx.is_connected(h):
                assert cut.size == len(nx.minimum_edge_cut(h))
                if sep is not None:
                    assert sep.size == len(nx.minimum_node_cut(h))


class TestSharedRecord:
    """The record's questions about G - v, asked on G's networks with v's
    arcs cut, against the same questions about the copy G - v."""

    def test_vertex_deletions_on_corpus(self, small_corpus):
        for g in small_corpus:
            conn = Connectivity(g)
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
        conn = Connectivity(g)
        for v in range(g.n):
            assert conn.edge_connected(k, removed=v) == is_k_edge_connected(g.delete_vertex(v)[0], k)

    def test_whitney_answers_lambda_without_flow(self, small_corpus, monkeypatch):
        for g in small_corpus:
            conn = Connectivity(g)
            for j in range(1, 5):
                if conn.separator_below(j) is None:
                    with monkeypatch.context() as mp:
                        mp.setattr(FlowNetwork, "max_flow", None)
                        assert conn.edge_connected(j)
                assert conn.edge_connected(j) == is_k_edge_connected(g, j)


def kappa_by_pairs(g: Graph) -> int:
    """kappa(G) as the least local vertex connectivity over non-adjacent
    pairs: n - 1 when complete, and 0 for one vertex."""
    pairs = [(s, t) for s in range(g.n) for t in range(s + 1, g.n) if not g.has_edge(s, t)]
    return min((local_vertex_connectivity(g, s, t) for s, t in pairs), default=max(g.n - 1, 0))


def lambda_by_pairs(g) -> int:
    """lambda(G) as the least local edge connectivity from vertex 0; 0 for
    one vertex."""
    return min((local_edge_connectivity(g, 0, t) for t in range(1, g.n)), default=0)


class TestLocalFloors:
    """The questions that degrees and common neighbours may answer with no
    flow, against local connectivity by subset enumeration on copies."""

    @given(graphs(max_n=6))
    @settings(max_examples=150, deadline=None)
    def test_paths_avoiding_edge(self, g):
        conn = Connectivity(g)
        for u, v in g.edges():
            paths = local_vertex_connectivity(g.delete_edge(u, v), u, v)
            for j in range(1, 6):
                assert conn.paths_avoiding_edge((u, v), j) == min(paths, j), ((u, v), j, g.edges())

    @given(graphs(max_n=6) | multigraphs(max_n=6))
    @settings(max_examples=150, deadline=None)
    def test_edge_side(self, g):
        conn = Connectivity(g)
        for u, v in g.edges():
            lam = local_edge_connectivity(g, u, v)
            for j in range(1, 6):
                side = conn.edge_side((u, v), j)
                assert (side is None) == (lam >= j), ((u, v), j, g.edges())
                if side is not None:
                    assert u in side and v not in side
                    assert sum(g.multiplicity(*f) for f in g.edges() if (f[0] in side) != (f[1] in side)) == lam

    @given(graphs(max_n=6))
    @settings(max_examples=150, deadline=None)
    def test_separator_below(self, g):
        conn = Connectivity(g)
        for removed in [None, *range(g.n)]:
            h = g if removed is None else g.delete_vertex(removed)[0]
            kappa = kappa_by_pairs(h)
            for j in range(1, 6):
                sep = conn.separator_below(j, removed)
                assert (sep is None) == (kappa >= j), (removed, j, g.edges())
                if sep == ():  # too few vertices, or disconnected
                    assert h.n <= j or kappa == 0
                elif sep is not None:
                    rest = set(range(g.n)) - {removed} - set(sep)
                    assert len(sep) < j and removed not in sep
                    assert len(components_of_subset(g, rest)) > 1

    @given(graphs(max_n=6) | multigraphs(max_n=6))
    @settings(max_examples=150, deadline=None)
    def test_edge_connected(self, g):
        conn = Connectivity(g)
        for removed in [None, *range(g.n)]:
            lam = lambda_by_pairs(g if removed is None else g.delete_vertex(removed)[0])
            for j in range(1, 6):
                assert conn.edge_connected(j, removed) == (lam >= j), (removed, j, g.edges())


def record_questions(g):
    """Every question a record answers about g and its one-vertex
    deletions, and every class verdict it keeps, as functions of the
    record.  Vertex questions are asked of simple graphs only, and scans
    only of connected graphs."""
    questions = []
    simple = isinstance(g, Graph)
    for removed in [None, *range(g.n)]:
        for j in range(1, 5):
            if simple:
                questions.append(lambda c, j=j, r=removed: c.separator_below(j, r))
            questions.append(lambda c, j=j, r=removed: c.edge_connected(j, r))
        left = set(range(g.n)) - {removed}
        if len(left) >= 2 and len(components_of_subset(g, left)) == 1:
            if simple:
                questions.append(lambda c, r=removed: c._vertex_scan(r))
            questions.append(lambda c, r=removed: c._edge_scan(r))
    for e in g.edges():
        questions.append(lambda c, e=e: c.cut_containing_edge(e))
        questions.append(lambda c, e=e: c.edge_side(e))
        for j in range(1, 5):
            questions.append(lambda c, e=e, j=j: c.edge_side(e, j))
            if simple:
                questions.append(lambda c, e=e, j=j: c.paths_avoiding_edge(e, j))
    questions.append(lambda c: c.min_cut())
    if g.n >= 3:
        questions += [lambda c, x=x: c.cut_without(x) for x in range(g.n)]
    if simple:
        questions.append(lambda c: c.min_separator())
        if g.n >= 3:
            questions += [lambda c, x=x: c.separator_containing(x) for x in range(g.n)]
    for cls in MinimalityClass:
        if simple or cls.uses_edge_connectivity:
            questions += [lambda c, cls=cls, j=j: check_class(c.g, cls, j, c) for j in range(1, 5)]
    return questions


def assert_warm_equals_cold(g, order):
    """Each question asked in `order` of one record, whose flows resume
    from the pair's last flow, equals it asked of a fresh record."""
    questions = record_questions(g)
    warm = Connectivity(g)
    for i in order:
        assert questions[i](warm) == questions[i](Connectivity(g)), (i, g)


@st.composite
def connected_graphs(draw, multi: bool, min_n=3, max_n=9):
    """A random spanning tree plus random further edges, with
    multiplicities 1-3 when `multi`."""
    n = draw(st.integers(min_n, max_n))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mults = draw(st.lists(st.integers(0, 3 if multi else 1), min_size=len(pairs), max_size=len(pairs)))
    mults = [max(m, int(p in tree)) for p, m in zip(pairs, mults)]
    if multi:
        return MultiGraph(n, [(u, v, m) for (u, v), m in zip(pairs, mults) if m])
    return Graph(n, [p for p, m in zip(pairs, mults) if m])


class TestWarmEqualsCold:
    def test_corpus(self, small_corpus):
        rng = random.Random(20)
        for g in small_corpus:
            m = len(record_questions(g))
            assert_warm_equals_cold(g, [rng.randrange(m) for _ in range(2 * m)])

    @given(multigraphs(min_n=3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_multigraphs(self, g, data):
        m = len(record_questions(g))
        assert_warm_equals_cold(g, data.draw(st.lists(st.integers(0, m - 1), max_size=2 * m)))

    # one record shared by every caller, in any order: the membership
    # check, the default region and the traced procedure of one witness run
    @given(st.one_of(connected_graphs(multi=False), connected_graphs(multi=True)), st.data())
    @settings(max_examples=150, deadline=None)
    def test_connected_in_any_order(self, g, data):
        m = len(record_questions(g))
        assert_warm_equals_cold(g, data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=2 * m)))


def assert_deletions_match_copies(g):
    """Every G - x asked on G's record, against the copy route."""
    conn = Connectivity(g)
    for x in range(g.n):
        rest = set(range(g.n)) - {x}
        if isinstance(g, Graph) and g.n >= 3:
            sep = conn.separator_containing(x)
            assert (sep and sep.vertices) == separator_containing_by_copy(g, x), (x, g.edges())
            if sep is not None:
                assert sep.sides == tuple(components_of_subset(g, rest - set(sep.vertices)))
        if g.n >= 3:
            cut = conn.cut_without(x)
            comps = components_of_subset(g, rest)
            if len(comps) > 1:
                assert (cut.size, cut.edges, cut.sides) == (0, (), tuple(comps)), (x, g)
            else:
                assert (cut.size, cut.edges, cut.sides) == cut_without_by_copy(g, x), (x, g)


class TestDeletionsAsArcCuts:
    """The record's separators through x and minimum cuts of G - x
    (`cut_without`), asked for every x on one record, equal the copy route
    (delete x, scan the copy, map back)."""

    def test_corpus7(self, corpus7):
        for g in corpus7:
            assert_deletions_match_copies(g)

    def test_random_corpus(self, random_corpus):
        for g in random_corpus:
            assert_deletions_match_copies(g)

    @given(multigraphs(min_n=3))
    @settings(max_examples=150, deadline=None)
    def test_multigraphs(self, g):
        assert_deletions_match_copies(g)


def assert_edge_cuts_match_fresh_networks(g):
    """Every cut through an edge asked on one record, against a minimum
    u-v cut on a network of its own."""
    conn = Connectivity(g)
    for u, v in g.edges():
        net = _edge_network(g.n, g.edges(), g.multiplicity)
        net.max_flow(u, v)
        assert conn.cut_containing_edge((u, v)) == _cut_from_side(g, net.residual_reachable(u))


class TestCutsThroughEdgesOnOneRecord:
    def test_corpus7(self, corpus7):
        for g in corpus7:
            assert_edge_cuts_match_fresh_networks(g)

    @given(multigraphs())
    @settings(max_examples=150, deadline=None)
    def test_multigraphs(self, g):
        assert_edge_cuts_match_fresh_networks(g)


class TestOnePassMatchesTwoPass:
    """One scan per cut kind returns what the two-pass definition picks."""

    def test_separators_on_corpus(self, corpus7):
        for g in corpus7:
            if not g.is_connected():
                continue
            sep = min_vertex_separator(g)
            assert (sep and sep.vertices) == two_pass_separator(g), g.edges()

    def test_cuts_on_corpus(self, corpus7):
        # n = 7 holds the one corpus graph whose first minimum cut is not
        # the lexicographically smallest
        for g in corpus7:
            if g.is_connected():
                assert min_edge_cut(g) == two_pass_cut(g), g.edges()

    @given(multigraphs())
    @settings(max_examples=150, deadline=None)
    def test_cuts_on_multigraphs(self, g):
        if g.is_connected():
            assert min_edge_cut(g) == two_pass_cut(g)


def scan_constructions() -> list:
    """Seeded relabellings of small extremal constructions."""
    graphs = ([band_graph(k, l).graph for k, l in ((3, 2), (3, 3), (3, 4), (4, 2), (4, 3))]
              + [cycle_clique_strong(4, l) for l in (4, 5, 6)] + [cycle_clique_strong(6, 4)]
              + [path_square_example(l).graph for l in (10, 11, 12)])
    multis = [multipath(k, m) for k in (2, 3) for m in (3, 4, 5)]
    return ([relabelled(g, f"scan/{i}/{j}") for i, g in enumerate(graphs) for j in range(2)]
            + [relabelled(mg, f"scan/m{i}/{j}") for i, mg in enumerate(multis) for j in range(2)])


class TestScansMatchReference:
    """The scans skip the pairs a found side decides and the floors that
    warm records hold; their answers equal the definitions, which skip
    nothing and know no floor."""

    def test_corpus7(self, corpus7):
        floors = [assert_scans_match_reference(g) for g in corpus7 if g.is_connected()]
        assert sum(floors) > 100

    def test_random_corpus(self, random_corpus):
        for g in random_corpus:
            if g.is_connected():
                assert_scans_match_reference(g)

    def test_constructions(self):
        assert all([assert_scans_match_reference(g) for g in scan_constructions()])

    @given(connected_graphs(multi=True))
    @settings(max_examples=150, deadline=None)
    def test_multigraph_cuts(self, g):
        assert_scans_match_reference(g)

    def test_sides_found_at_a_higher_value_decide_nothing(self):
        # Three cliques in a chain, the anchor 0 in the middle one.  The
        # first flow from 0 reaches 3, a later one 2 into one end clique;
        # the other end clique lies outside the value-3 side but inside the
        # value-2 side, so its own flow runs and finds the least minimum
        # separator (or cut), on both sides of that end clique's join.
        def clique(*vs):
            return list(combinations(vs, 2))

        g = Graph(14, [(0, 3), (0, 4), (0, 5), (5, 6), (1, 7), (1, 10), (2, 11)]
                  + clique(1, 2, 3, 4, 5) + clique(6, 7, 8, 9) + clique(10, 11, 12, 13))
        h = Graph(12, [(2, 4), (3, 5), (1, 8), (2, 9)]
                  + clique(0, 1, 2, 3) + clique(4, 5, 6, 7) + clique(8, 9, 10, 11))
        assert min_vertex_separator(g).vertices == (1, 2)
        assert min_edge_cut(h).edges == ((1, 8), (2, 9))
        for f in (g, h):
            assert_scans_match_reference(f)


class TestMultiGraphConnected:
    @given(multigraphs(min_n=1))
    @example(MultiGraph(4, [(0, 1, 2), (2, 3, 2)]))
    @settings(max_examples=200, deadline=None)
    def test_equals_skeleton(self, mg):
        # one search over the multigraph's own rows, no skeleton Graph
        assert mg.is_connected() == mg.skeleton().is_connected()


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

    def test_record_questions_on_a_cycle(self):
        conn = minconn.Connectivity(cycle_graph(6))
        assert conn.separator_below(3) == (1, 5)
        assert conn.min_separator().vertices == (0, 2)
        assert conn.min_cut().edges == ((0, 1), (0, 5))


def test_public_api_pinned():
    # every name the package exports, stated once in its imports
    assert set(minconn.__all__) == {
        "Ball", "CertifyReport", "ClassMismatch", "ClassificationReport", "Connectivity",
        "CrossingSeparatorsTrace", "Cut", "DisjointPaths", "EdgeMinWitnessTrace", "EmptyRegion",
        "EndDegreeEstimate", "EndDescriptor", "Family", "Graph", "InvalidParams", "LabeledGraph",
        "MinconnError", "MinimalRegionResult", "MinimalityClass", "MixedSet", "MultiGraph",
        "NoSuchEdge", "NotConverged", "PreconditionViolated", "PredicateResult", "Region",
        "Separator", "TooLarge", "TooSmall", "ValidationFailed", "VertexMinEdgeWitnessTrace",
        "WitnessReport", "ball", "band_graph", "canonical_key", "cartesian_product",
        "certify_essential_edges", "check_class", "classify", "complete_graph",
        "crossing_separators_witness", "cycle_clique_strong", "cycle_graph",
        "default_profound_region", "degree_bound", "edge_connectivity", "edge_min_witness_pair",
        "end_degree_estimate", "enumerate_all", "enumerate_graphs", "is_edge_min_k_connected",
        "is_edge_min_k_edge_connected", "is_k_connected", "is_k_edge_connected",
        "is_vertex_min_k_connected", "is_vertex_min_k_edge_connected", "make_family",
        "max_disjoint_paths", "min_cut_containing_edge", "min_edge_cut", "min_separator_containing",
        "min_vertex_separator", "minimal_region_small_edge_boundary", "multipath", "path_graph",
        "path_square_example", "random_graphs", "region_of", "required_count",
        "small_component_witness", "small_degree_set", "square", "strong_product",
        "vertex_connectivity", "vertex_min_edge_witness_pair", "witness_report",
    }
    assert all(hasattr(minconn, name) for name in minconn.__all__)


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
            rest, keep = g.induced(set(range(g.n)) - set(sep.vertices))
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
    @pytest.mark.parametrize("mode", ["vertex", "edge"], ids=["vertex-strict", "edge"])
    @given(graphs(min_n=4, max_n=7), st.data())
    @settings(max_examples=100, deadline=None)
    def test_menger_duality(self, mode, g, data):
        a = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=2))
        b_pool = sorted(set(range(g.n)) - a)
        b = data.draw(st.sets(st.sampled_from(b_pool), min_size=1, max_size=2))
        res = max_disjoint_paths(g, sorted(a), sorted(b), mode=mode)
        assert len(res.paths) == res.count
        for p in res.paths:
            assert p[0] in a and p[-1] in b and len(p) >= 2
            assert all(g.has_edge(u, v) for u, v in zip(p, p[1:]))
        if mode == "edge":
            # edge-disjoint, dual to an A-B edge cut of the same size
            used = [frozenset(e) for p in res.paths for e in zip(p, p[1:])]
            assert len(used) == len(set(used))
            assert res.separator is None and res.count == len(res.cut)
            assert not _reaches(g, a, b, dead_edges=res.cut)
        else:
            # disjoint everywhere, dual to a separator that may meet A or B
            used = [v for p in res.paths for v in p]
            assert len(used) == len(set(used))
            assert res.cut is None and res.count == len(res.separator)
            assert not _reaches(g, a, b, res.separator)

    def test_vertex_paths_on_cycle(self):
        # the endpoints are not exempt, so the one vertex of A separates
        res = max_disjoint_paths(cycle_graph(6), [0], [3], mode="vertex")
        assert res.count == 1
        assert res.separator == (0,)

    def test_edge_paths_on_cycle(self):
        g = cycle_graph(6)
        res = max_disjoint_paths(g, [0], [3], mode="edge")
        assert res.count == 2

    def test_separator_not_exempt_can_use_endpoints(self):
        # With endpoints not exempt the two leaves of a path are split
        # by any single inner vertex, and even by a side vertex itself.
        g = path_graph(5)
        res = max_disjoint_paths(g, [0], [4], mode="vertex")
        assert res.count == 1
        assert res.separator is not None and len(res.separator) == 1

    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    def test_multigraph_refused(self, mode):
        # neighbour rows carry no multiplicities, so a multigraph would be
        # solved as its skeleton
        g = MultiGraph(3, [(0, 1, 2), (1, 2, 2)])
        with pytest.raises(InvalidParams):
            max_disjoint_paths(g, [0], [2], mode=mode)

    def test_unknown_mode_is_invalid_params(self):
        # an argument check, so one of the package's errors, not a bare ValueError
        with pytest.raises(InvalidParams, match="unknown mode 'both'"):
            max_disjoint_paths(cycle_graph(6), [0], [3], mode="both")