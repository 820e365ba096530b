"""Vertex and edge connectivity with explicit dual certificates.

The routines here reduce to max-flow (vertex-splitting for separators,
plain unit/multiplicity capacities for cuts).  The test suite holds them
equal, on an exhaustive small-graph corpus, to a brute-force oracle that
re-derives both numbers by subset enumeration (`tests/oracles.py`).

Each cut kind is one scan over one network per graph, after Even and
Tarjan's fixed-source pair list (SIAM J. Comput. 1975): the network is
built once and its capacities are restored before every pair.  The
minimum and its certificate come from the same pass.  Each flow stops
one unit above the best value so far, so a pair that ties the final
minimum runs to its full maximum flow, and ties keep the
lexicographically smallest separator (or `Cut.edges`).

The threshold questions kappa >= j and lambda >= j go through one
`_Connectivity` record per graph, which the minimality predicates share.
It builds at most one split network and one edge network, answers each
question about the graph once, and answers lambda >= j without a flow
once kappa >= j is known (Whitney, Amer. J. Math. 1932: kappa <= lambda).
The same questions about G - v are asked on G's networks with v's arcs
cut, not on a copy of G - v.

Conventions: disconnected graphs have connectivity 0, complete graphs have
vertex connectivity n-1, and single-vertex graphs are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import NoSuchEdge, TooSmall
from .flow import INF, FlowNetwork
from .graphs import Edge, Graph, MultiGraph, components_of_subset


@dataclass(frozen=True)
class Separator:
    """A vertex set whose removal disconnects the host graph."""

    vertices: tuple[int, ...]
    sides: tuple[frozenset[int], ...]

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class Cut:
    """An edge set whose removal disconnects the host graph.

    `edges` lists each parallel class once; `size` counts multiplicities,
    so for simple graphs size == len(edges).
    """

    edges: tuple[Edge, ...]
    sides: tuple[frozenset[int], frozenset[int]]
    size: int


@dataclass(frozen=True)
class DisjointPaths:
    """A maximum family of disjoint A-B paths plus its Menger dual."""

    mode: str
    count: int
    paths: tuple[tuple[int, ...], ...]
    separator: Separator | None
    cut: Cut | None


# ---------------------------------------------------------------------------
# vertex connectivity
# ---------------------------------------------------------------------------


def _split_network(g: Graph, uncapped=frozenset()) -> FlowNetwork:
    # node 2v = v_in, 2v+1 = v_out, and arc 2v is v_in->v_out; the last two
    # nodes are the super-source and sink of `max_disjoint_paths`, isolated
    # in the pair scans
    net = FlowNetwork(2 * g.n + 2)
    for v in range(g.n):
        net.add_arc(2 * v, 2 * v + 1, INF if v in uncapped else 1)
    for u, v in g.edges():
        net.add_arc(2 * u + 1, 2 * v, INF)
        net.add_arc(2 * v + 1, 2 * u, INF)
    return net


def _separator_from_residual(g: Graph, net: FlowNetwork, source: int) -> tuple[int, ...]:
    reach = net.residual_reachable(source)
    return tuple(v for v in range(g.n) if 2 * v in reach and 2 * v + 1 not in reach)


def _separator(g: Graph, vertices: tuple[int, ...]) -> Separator:
    return Separator(vertices, tuple(components_of_subset(g, set(range(g.n)) - set(vertices))))


def _kappa_pairs(g: Graph, removed: int | None = None):
    """Pair list sufficient for vertex connectivity, fixed-source style.

    Any minimum separator either avoids the anchor v0 (then it separates
    v0 from some non-neighbour) or contains it (then it separates two
    non-adjacent neighbours of v0, since a minimum separator sees every
    component).  With `removed`, the pairs of G - removed in G's labels:
    the list for `g.delete_vertex(removed)`, mapped back through its
    old-index tuple.
    """
    gone = g.neighbors(removed) if removed is not None else frozenset()
    rest = [v for v in range(g.n) if v != removed]
    v0 = min(rest, key=lambda v: (g.degree(v) - (v in gone), v))
    nb = g.neighbors(v0) - {removed}
    for w in rest:
        if w != v0 and w not in nb:
            yield v0, w
    for x, y in combinations(sorted(nb), 2):
        if not g.has_edge(x, y):
            yield x, y


def _vertex_scan(g: Graph) -> tuple[int, tuple[int, ...] | None]:
    """kappa of a connected graph and the lexicographically smallest
    minimum separator among those the pairs realise (None when complete).
    """
    network = _Connectivity(g).split
    best, best_sep = g.n - 1, None
    for s, t in _kappa_pairs(g):
        value = _restored_flow(network, 2 * s + 1, 2 * t, best + 1)
        if value <= best:
            sep = _separator_from_residual(g, network[0], 2 * s + 1)
            if value < best or best_sep is None or sep < best_sep:
                best, best_sep = value, sep
    return best, best_sep


def vertex_connectivity(g: Graph) -> int:
    """kappa(G); 0 when disconnected, n-1 when complete."""
    if g.n < 2:
        raise TooSmall("vertex connectivity needs at least 2 vertices")
    if not g.is_connected():
        return 0
    return _vertex_scan(g)[0]


def is_k_connected(g: Graph, k: int) -> bool:
    """kappa(G) >= k, with flows cut off at k (cheaper than full kappa).

    The one-vertex graph is not considered k-connected for any k >= 1.
    """
    if k < 1:
        raise TooSmall("k must be at least 1")
    return _Connectivity(g).separator_below(k) is None


def min_vertex_separator(g: Graph) -> Separator | None:
    """A minimum separator, lexicographically smallest among those the
    pair scan realises; None for complete graphs."""
    if g.n < 2:
        raise TooSmall("need at least 2 vertices")
    if not g.is_connected():
        return _separator(g, ())
    k, best = _vertex_scan(g)
    if k == g.n - 1:
        return None
    assert best is not None and len(best) == k
    return _separator(g, best)


def min_separator_containing(g: Graph, x: int) -> Separator | None:
    """Smallest separator of G that contains the vertex x, or None.

    Reduction: T is a separator through x iff T - {x} separates two
    non-adjacent vertices of G - x, so the answer is {x} plus a minimum
    separator of G - x (or {x} alone if G - x is already disconnected).
    """
    if g.n < 3:
        raise TooSmall("need at least 3 vertices")
    h, old = g.delete_vertex(x)
    sub = min_vertex_separator(h)
    if sub is None:
        return None
    return _separator(g, tuple(sorted({x} | {old[v] for v in sub.vertices})))


# ---------------------------------------------------------------------------
# edge connectivity
# ---------------------------------------------------------------------------


def _edge_network(g) -> FlowNetwork:
    # node v = v; the last two nodes as in `_split_network`
    net = FlowNetwork(g.n + 2)
    if isinstance(g, MultiGraph):
        for (u, v), k in g.mult.items():
            net.add_undirected(u, v, k)
    else:
        for u, v in g.edges():
            net.add_undirected(u, v, 1)
    return net


def _cut_from_side(g, side: set[int]) -> Cut:
    a = frozenset(side)
    b = frozenset(range(g.n)) - a
    if isinstance(g, MultiGraph):
        edges = tuple(sorted(e for e in g.mult if (e[0] in a) != (e[1] in a)))
        size = sum(g.mult[e] for e in edges)
    else:
        edges = tuple(e for e in g.edges() if (e[0] in a) != (e[1] in a))
        size = len(edges)
    return Cut(edges, (a, b), size)


def _edge_scan(g) -> tuple[int, Cut]:
    """lambda of a connected graph and the minimum cut with the
    lexicographically smallest `Cut.edges` among those realised by flows
    from a minimum-degree vertex v0 to every other vertex."""
    degs = g.degrees()
    v0 = min(range(g.n), key=lambda v: (degs[v], v))
    network = _Connectivity(g).edge
    best, best_cut = degs[v0], None
    for t in range(g.n):
        if t == v0:
            continue
        value = _restored_flow(network, v0, t, best + 1)
        if value > best:
            continue
        side = network[0].residual_reachable(v0)
        if value == best and best_cut is not None and side == best_cut.sides[0]:
            continue  # the same side cuts the same edges
        cut = _cut_from_side(g, side)
        if value < best or best_cut is None or cut.edges < best_cut.edges:
            best, best_cut = value, cut
    return best, best_cut


def edge_connectivity(g) -> int:
    """lambda(G) for a Graph or MultiGraph; 0 when disconnected."""
    if g.n < 2:
        raise TooSmall("edge connectivity needs at least 2 vertices")
    if not g.is_connected():
        return 0
    return _edge_scan(g)[0]


def is_k_edge_connected(g, k: int) -> bool:
    """lambda(G) >= k with early cutoff; K^1 rejected for every k >= 1."""
    if k < 1:
        raise TooSmall("k must be at least 1")
    return _Connectivity(g).edge_connected(k)


def min_edge_cut(g) -> Cut:
    """A minimum edge cut, lexicographically smallest among those realised."""
    if g.n < 2:
        raise TooSmall("need at least 2 vertices")
    if not g.is_connected():
        comp = components_of_subset(g.skeleton() if isinstance(g, MultiGraph) else g, range(g.n))
        return _cut_from_side(g, set(comp[0]))
    k, best = _edge_scan(g)
    assert best is not None and best.size == k
    return best


def min_cut_containing_edge(g, e: Edge) -> Cut:
    """Minimum edge cut through e = (u, v), i.e. a minimum u-v cut."""
    u, v = e
    has = g.multiplicity(u, v) > 0 if isinstance(g, MultiGraph) else g.has_edge(u, v)
    if not has:
        raise NoSuchEdge(f"({u},{v})")
    net = _edge_network(g)
    net.max_flow(u, v)
    return _cut_from_side(g, net.residual_reachable(u))


# ---------------------------------------------------------------------------
# threshold questions, one record per graph
# ---------------------------------------------------------------------------


def _restored_flow(network: tuple[FlowNetwork, list[int]], s: int, t: int,
                   limit: int, cut=()) -> int:
    # One flow on a shared network: its snapshot restored, the arcs in
    # `cut` at capacity 0.
    net, caps = network
    net.cap[:] = caps
    for a in cut:
        net.cap[a] = 0
    return net.max_flow(s, t, limit)


class _Connectivity:
    """kappa >= j and lambda >= j for one Graph or MultiGraph, and for its
    one-vertex deletions, each question about G answered once.

    `split` and `edge` are the graph's two networks, each built on first
    use with its capacity snapshot; every flow starts from the snapshot.
    A deletion is asked on G's network with the deleted element's arcs
    cut, which leaves the flows of the smaller graph.
    """

    def __init__(self, g):
        self.g = g
        self._below: dict[int, tuple[int, ...] | None] = {}
        self._edge_conn: dict[int, bool] = {}

    @cached_property
    def split(self) -> tuple[FlowNetwork, list[int]]:
        net = _split_network(self.g)
        return net, list(net.cap)

    @cached_property
    def edge(self) -> tuple[FlowNetwork, list[int]]:
        net = _edge_network(self.g)
        return net, list(net.cap)

    def separator_below(self, j: int, removed: int | None = None) -> tuple[int, ...] | None:
        """None when kappa >= j, of G or with `removed` of G - removed.

        Otherwise a separator of fewer than j vertices, in G's labels: ()
        when the graph has at most j vertices (or is G and disconnected),
        else the one the first failing flow leaves in its residual.
        """
        g = self.g
        if removed is None:
            if j not in self._below:
                self._below[j] = self._kappa_flows(j, None) if g.n > j and g.is_connected() else ()
            return self._below[j]
        return self._kappa_flows(j, removed) if g.n - 1 > j else ()

    def edge_connected(self, j: int, removed: int | None = None) -> bool:
        """lambda >= j, of G or with `removed` of G - removed; K^1 is not.

        About G the answer is true without a flow once kappa >= j is known.
        """
        g = self.g
        if removed is None:
            if j not in self._edge_conn:
                kappa_reached = any(sep is None for i, sep in self._below.items() if i >= j)
                self._edge_conn[j] = kappa_reached or (
                    g.n > 1 and g.is_connected() and min(g.degrees()) >= j
                    and self._lambda_flows(j, None))
            return self._edge_conn[j]
        if g.n < 3:
            return False
        degs = list(g.degrees())
        multi = isinstance(g, MultiGraph)
        for w in g.neighbors(removed):
            degs[w] -= g.multiplicity(removed, w) if multi else 1
        del degs[removed]
        return min(degs) >= j and self._lambda_flows(j, removed)

    def _kappa_flows(self, j: int, removed: int | None) -> tuple[int, ...] | None:
        # G - v: v_in->v_out cut, and v, whose v_in the residual may reach,
        # dropped from the separator.
        cut = () if removed is None else (2 * removed,)
        for s, t in _kappa_pairs(self.g, removed):
            if _restored_flow(self.split, 2 * s + 1, 2 * t, j, cut) < j:
                sep = _separator_from_residual(self.g, self.split[0], 2 * s + 1)
                return tuple(v for v in sep if v != removed)
        return None

    def _lambda_flows(self, j: int, removed: int | None) -> bool:
        # From the least vertex to every other one; for G - v both arcs of
        # every pair at v are cut.
        cut = ()
        if removed is not None:
            net = self.edge[0]
            cut = [b for a in net.adj[removed] for b in (a, a ^ 1)]
        s = 1 if removed == 0 else 0
        return all(
            _restored_flow(self.edge, s, t, j, cut) >= j
            for t in range(s + 1, self.g.n) if t != removed
        )


# ---------------------------------------------------------------------------
# disjoint path families (Menger duals)
# ---------------------------------------------------------------------------


def _decompose_paths(net: FlowNetwork, caps: list[int], source: int, sink: int, node_of) -> list[tuple[int, ...]]:
    # Walk unit flows from source to sink, consuming them arc by arc.  An
    # undirected pair carries its flow on whichever arc points along it.
    flow = [caps[a] - net.cap[a] for a in range(len(net.cap))]
    paths = []
    while True:
        walk = []
        u = source
        while u != sink:
            for a in net.adj[u]:
                if flow[a] > 0:
                    flow[a] -= 1
                    walk.append(a)
                    u = net.to[a]
                    break
            else:
                break
        if u != sink:
            break
        verts: list[int] = []
        for a in walk:
            w = node_of(net.to[a])
            if w is None or (verts and verts[-1] == w):
                continue
            if w in verts:  # shortcut any cancellation loop in the flow
                del verts[verts.index(w) + 1 :]
            else:
                verts.append(w)
        paths.append(tuple(verts))
    return paths


def max_disjoint_paths(g: Graph, a_side, b_side, mode: str = "vertex",
                       endpoint_exempt: bool = True) -> DisjointPaths:
    """Maximum family of disjoint A-B paths with a matching dual certificate.

    mode="vertex": paths are vertex-disjoint; with `endpoint_exempt` (the
    classical Menger setting) vertices of A and B may be shared and the
    dual separator avoids them, otherwise paths are disjoint everywhere
    and the separator may cut inside A or B.
    mode="edge": edge-disjoint paths, dual is an edge cut.
    """
    A = frozenset(a_side)
    B = frozenset(b_side)
    if not A or not B:
        raise TooSmall("both endpoint sets must be non-empty")
    if A & B:
        raise TooSmall("endpoint sets must be disjoint")
    if mode not in ("vertex", "edge"):
        raise ValueError(f"unknown mode {mode!r}")
    direct: list[tuple[int, ...]] = []
    if mode == "vertex":
        work = g
        if endpoint_exempt:
            # A direct A-B edge is itself a path and would otherwise give the
            # exempted endpoints unbounded throughput; peel such edges off
            # first (the adjacent-endpoints case of Menger's theorem).
            for u, v in g.edges():
                if (u in A and v in B) or (v in A and u in B):
                    direct.append((u, v) if u in A else (v, u))
                    work = work.delete_edge(u, v)
        uncapped = (A | B) if endpoint_exempt else frozenset()
        net, width = _split_network(work, uncapped), 2
    else:
        net, width = _edge_network(g), 1
    # vertex v enters the network at width*v and leaves at width*v + width-1
    src, snk = net.n - 2, net.n - 1
    for a in sorted(A):
        net.add_arc(src, width * a, INF)
    for b in sorted(B):
        net.add_arc(width * b + width - 1, snk, INF)
    caps = list(net.cap)
    value = net.max_flow(src, snk)
    sep = cut = None
    if mode == "vertex":
        sep = _separator(g, _separator_from_residual(g, net, src))
        size = sep.size
    else:
        cut = _cut_from_side(g, {v for v in net.residual_reachable(src) if v < g.n})
        size = cut.size
    paths = _decompose_paths(
        net, caps, src, snk, lambda node: node // width if node < width * g.n else None
    )
    assert value == size, "Menger duality must certify the count"
    return DisjointPaths(mode, value + len(direct), tuple(direct) + tuple(paths), sep, cut)
