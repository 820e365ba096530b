"""Vertex and edge connectivity with explicit dual certificates.

The routines here reduce to max-flow (vertex-splitting for separators,
plain unit/multiplicity capacities for cuts).  The test suite holds them
equal, on an exhaustive small-graph corpus, to a brute-force oracle that
re-derives both numbers by subset enumeration (`tests/oracles.py`).

Pair flows live in one `_Connectivity` record per graph, shared by the
minimality predicates and the witness procedures.  It builds at most one
split network and one edge network, and each cut kind has one pair loop
(`vertex_flows`, `edge_flows`) after Even and Tarjan's fixed-source pair
list (SIAM J. Comput. 1975).  Each pair's flow resumes from that pair's
last flow on the network, with the units on the arcs it cuts cancelled.
A loop stops each flow one unit above the best value so far and yields
every pair that reaches it.  The scans keep the minimum
and, among its ties, the lexicographically smallest separator (or
`Cut.edges`); kappa >= j and lambda >= j take the first pair below j,
and lambda >= j needs no flow once kappa >= j is known (Whitney, Amer. J.
Math. 1932: kappa <= lambda).  G - x is asked on G's networks with x's
arcs cut, never on a copy.  A resumed flow that stops below its limit is
maximum, and every maximum flow leaves the same residual side, so no
answer depends on where a flow started, nor on which caller asked first.

Conventions: disconnected graphs have connectivity 0, complete graphs have
vertex connectivity n-1, and single-vertex graphs are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import InvalidParams, NoSuchEdge, TooSmall
from .flow import INF, FlowNetwork
from .graphs import Edge, Graph, MultiGraph, components_of_subset, edge_boundary, reachable


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
    so for simple graphs size == len(edges).  `sides` are two, or every
    component of G - x when `cut_without(x)` finds it disconnected.
    """

    edges: tuple[Edge, ...]
    sides: tuple[frozenset[int], ...]
    size: int


@dataclass(frozen=True)
class DisjointPaths:
    """A maximum family of disjoint A-B paths plus its Menger dual: the
    separator's vertices in vertex mode, the cut's edges in edge mode."""

    mode: str
    count: int
    paths: tuple[tuple[int, ...], ...]
    separator: tuple[int, ...] | None
    cut: tuple[Edge, ...] | None


# ---------------------------------------------------------------------------
# vertex connectivity
# ---------------------------------------------------------------------------


def _split_network(n: int, edges) -> FlowNetwork:
    # node 2v = v_in, 2v+1 = v_out, and arc 2v is v_in->v_out; edge i of
    # `edges` follows as arcs 2n + 4i (u_out->v_in) and 2n + 4i + 2
    # (v_out->u_in).  The last two nodes are the super-source and sink of
    # `max_disjoint_paths`, isolated in the pair loops
    net = FlowNetwork(2 * n + 2)
    for v in range(n):
        net.add_arc(2 * v, 2 * v + 1, 1)
    for u, v in edges:
        net.add_arc(2 * u + 1, 2 * v, INF)
        net.add_arc(2 * v + 1, 2 * u, INF)
    return net


def _separator_from_residual(n: int, net: FlowNetwork, source: int) -> tuple[int, ...]:
    reach = net.residual_reachable(source)
    return tuple(v for v in range(n) if 2 * v in reach and 2 * v + 1 not in reach)


def _separator(g: Graph, vertices: tuple[int, ...]) -> Separator:
    return Separator(vertices, tuple(components_of_subset(g, set(range(g.n)) - set(vertices))))


def _degrees_without(g, removed: int | None) -> dict[int, int]:
    """Degree of each vertex of G - removed (of G when None), by G's
    labels in increasing order."""
    degs = dict(enumerate(g.degrees()))
    if removed is not None:
        for w in g.neighbors(removed):
            degs[w] -= g.multiplicity(removed, w)
        del degs[removed]
    return degs


def _kappa_pairs(g: Graph, removed: int | None = None):
    """Pair list sufficient for vertex connectivity, fixed-source style.

    Any minimum separator either avoids the anchor v0 (then it separates
    v0 from some non-neighbour) or contains it (then it separates two
    non-adjacent neighbours of v0, since a minimum separator sees every
    component).  With `removed`, the pairs of G - removed in G's labels:
    the list for `g.delete_vertex(removed)`, mapped back through its
    old-index tuple.  That relabelling is monotone, so it keeps the order
    of every tuple the scans compare.
    """
    degs = _degrees_without(g, removed)
    v0 = min(degs, key=degs.get)  # the least of minimum degree
    nb = g.neighbors(v0) - {removed}
    for w in degs:
        if w != v0 and w not in nb:
            yield v0, w
    for x, y in combinations(sorted(nb), 2):
        if not g.has_edge(x, y):
            yield x, y


def _vertex_scan(conn: "_Connectivity", removed: int | None = None) -> tuple[int, tuple[int, ...] | None]:
    """kappa of a connected graph (or of G - removed, connected) and the
    lexicographically smallest minimum separator among those the pairs
    realise (None when complete).  Each is scanned once per record."""
    key = "vertex", removed
    if key not in conn._scans:
        best, best_sep = conn.g.n - 1 - (removed is not None), None
        for value, sep in conn.vertex_flows(best, removed):
            if value < best or best_sep is None or sep < best_sep:
                best, best_sep = value, sep
        conn._scans[key] = best, best_sep
    return conn._scans[key]


def vertex_connectivity(g: Graph) -> int:
    """kappa(G); 0 when disconnected, n-1 when complete."""
    sep = _Connectivity(g).min_separator()
    return g.n - 1 if sep is None else sep.size


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
    return _Connectivity(g).min_separator()


def min_separator_containing(g: Graph, x: int) -> Separator | None:
    """Smallest separator of G that contains the vertex x, or None."""
    return _Connectivity(g).separator_containing(x)


# ---------------------------------------------------------------------------
# edge connectivity
# ---------------------------------------------------------------------------


def _edge_network(n: int, edges, mult=None) -> FlowNetwork:
    # node v = v, one undirected pair per edge class with its multiplicity
    # `mult(u, v)` as capacity (1 without `mult`); the last two nodes as in
    # `_split_network`
    net = FlowNetwork(n + 2)
    for u, v in edges:
        net.add_undirected(u, v, 1 if mult is None else mult(u, v))
    return net


def _cut_from_side(g, side, removed: int | None = None) -> Cut:
    # The cut of G (or of G - removed) whose first side is `side`.
    a = frozenset(side)
    b = frozenset(range(g.n)) - a - {removed}
    edges = tuple(sorted(e for e in edge_boundary(g, a) if removed not in e))
    return Cut(edges, (a, b), sum(g.multiplicity(u, v) for u, v in edges))


def _edge_scan(conn: "_Connectivity", removed: int | None = None) -> tuple[int, Cut]:
    """lambda of a connected graph (or of G - removed, connected, with at
    least two vertices) and the minimum cut with the lexicographically
    smallest `Cut.edges` among those `edge_flows` realises.  Each is
    scanned once per record."""
    key = "edge", removed
    if key not in conn._scans:
        best, best_cut = INF, None
        for value, side in conn.edge_flows(best, removed):
            if value == best and side == best_cut.sides[0]:
                continue  # the same side cuts the same edges
            cut = _cut_from_side(conn.g, side, removed)
            if value < best or cut.edges < best_cut.edges:
                best, best_cut = value, cut
        conn._scans[key] = best, best_cut
    return conn._scans[key]


def edge_connectivity(g) -> int:
    """lambda(G) for a Graph or MultiGraph; 0 when disconnected."""
    return _Connectivity(g).min_cut().size


def is_k_edge_connected(g, k: int) -> bool:
    """lambda(G) >= k with early cutoff; K^1 rejected for every k >= 1."""
    if k < 1:
        raise TooSmall("k must be at least 1")
    return _Connectivity(g).edge_connected(k)


def min_edge_cut(g) -> Cut:
    """A minimum edge cut, lexicographically smallest among those realised."""
    return _Connectivity(g).min_cut()


def min_cut_containing_edge(g, e: Edge) -> Cut:
    """Minimum edge cut through e = (u, v), i.e. a minimum u-v cut."""
    return _Connectivity(g).cut_containing_edge(e)


# ---------------------------------------------------------------------------
# pair flows, one record per graph
# ---------------------------------------------------------------------------


def _restored_flow(network: tuple[FlowNetwork, list[int], dict], s: int, t: int,
                   limit: int, cut=()) -> int:
    # One s-t flow on a shared network with the arcs in `cut` at capacity
    # 0, resumed from the pair's last flow (from the snapshot if none):
    # the units on the cut arcs are cancelled, and the flow searches only
    # when the value left is below `limit`.  The result is kept as a flow
    # of the whole graph: the cut arcs carry none, so they go back to
    # their snapshot capacity.  Every flow that stops below its limit is
    # maximum whatever it started from, and every maximum flow leaves the
    # same residual side, the source-minimal minimum cut; so values and
    # residuals, and every answer read from them, equal a cold start's.
    net, caps, flows = network
    value, start = flows.get((s, t), (0, caps))
    cap = net.cap = list(start)
    for a in cut:
        if cap[a] != caps[a]:
            value -= net.cancel(caps, a, s, t)
    for a in cut:
        cap[a] = 0
    if value < limit:
        value += net.max_flow(s, t, limit - value)
    else:
        net._reached = None
    for a in cut:
        cap[a] = caps[a]
    flows[s, t] = value, cap
    return value if value < limit else limit


class _Connectivity:
    """The pair flows of one Graph or MultiGraph and of its one-vertex
    deletions, the answers read from them, and the class verdicts asked
    of it; kappa >= j and lambda >= j about G, each answered once.

    `split` and `edge` are the graph's two networks, each built on first
    use with its capacity snapshot and a dict of each pair's last flow, a
    flow of G; a pair's first flow starts from the snapshot, and every
    later one from that flow (`_restored_flow`).  G - v is asked with v's
    arcs cut, which leaves the flows of G - v.  Each `_vertex_scan` and
    `_edge_scan`, of G or of a G - v, runs once per record.
    Each cut kind's pair loop caps every flow at best + 1, yields each
    pair that reaches at most best and then lowers best to it.

    Callers outside this module ask questions and read no network: the
    predicates ask `separator_below`, `edge_connected`, and per edge
    `paths_avoiding_edge` (class a) or `edge_side` (c), and `check_class`
    keeps each verdict in `verdicts`.  The witness procedures ask a
    minimum separator (`min_separator`) and the smallest separator
    through each vertex x they try (`separator_containing`) for class b,
    a minimum cut (`min_cut`) and the minimum cut through each edge they
    probe (`cut_containing_edge`) for class c, and the minimum cut of
    each G - x (`cut_without`) for class d.  `cmd_witness` builds one
    record and shares it across the report's membership check, the
    default region and the traced procedure; called without one, each
    builds its own.  The public functions of the same names are these
    methods on a fresh record.
    """

    def __init__(self, g):
        self.g = g
        self._below: dict[int, tuple[int, ...] | None] = {}
        self._edge_conn: dict[int, bool] = {}
        # ("vertex" or "edge", removed) -> what `_vertex_scan` or `_edge_scan` found
        self._scans: dict[tuple[str, int | None], tuple] = {}
        # (class, k) -> the PredicateResult `check_class` found
        self.verdicts: dict = {}

    @cached_property
    def split(self) -> tuple[FlowNetwork, list[int], dict]:
        net = _split_network(self.g.n, self.g.edges())
        return net, list(net.cap), {}

    @cached_property
    def edge(self) -> tuple[FlowNetwork, list[int], dict]:
        net = _edge_network(self.g.n, self.g.edges(), self.g.multiplicity)
        return net, list(net.cap), {}

    def min_separator(self) -> Separator | None:
        g = self.g
        if g.n < 2:
            raise TooSmall("need at least 2 vertices")
        if not g.is_connected():
            return _separator(g, ())
        k, best = _vertex_scan(self)
        if best is None:
            return None
        assert len(best) == k
        return _separator(g, best)

    def separator_containing(self, x: int) -> Separator | None:
        """T is a separator through x iff T - {x} separates two
        non-adjacent vertices of G - x, so the answer is {x} plus a minimum
        separator of G - x (or {x} alone if G - x is already disconnected).
        """
        g = self.g
        if g.n < 3:
            raise TooSmall("need at least 3 vertices")
        comps = components_of_subset(g, set(range(g.n)) - {x})
        if len(comps) > 1:
            return Separator((x,), tuple(comps))
        _, sub = _vertex_scan(self, x)
        if sub is None:
            return None
        return _separator(g, tuple(sorted((x, *sub))))

    def min_cut(self) -> Cut:
        g = self.g
        if g.n < 2:
            raise TooSmall("need at least 2 vertices")
        side = reachable(g.neighbors, [0])
        if len(side) < g.n:
            return _cut_from_side(g, side)
        k, best = _edge_scan(self)
        assert best.size == k
        return best

    def cut_without(self, x: int) -> Cut:
        """A minimum cut of G - x, the edge analogue of
        `separator_containing`: when G - x is disconnected, the empty cut
        with every component as a side; otherwise `_edge_scan`'s cut."""
        g = self.g
        if g.n < 3:
            raise TooSmall("need at least 3 vertices")
        comps = components_of_subset(g, set(range(g.n)) - {x})
        if len(comps) > 1:
            return Cut((), tuple(comps), 0)
        return _edge_scan(self, x)[1]

    def paths_avoiding_edge(self, e: Edge, limit: int) -> int:
        """Internally disjoint u-v paths avoiding e = (u, v), counted up to
        `limit`: the u_out->v_in flow with that arc cut (its twin
        v_out->u_in leaves the sink, so no u-v flow can use it)."""
        u, v = e
        net = self.split[0]
        arc = next(a for a in net.adj[2 * u + 1] if net.to[a] == 2 * v)
        return _restored_flow(self.split, 2 * u + 1, 2 * v, limit, (arc,))

    def edge_side(self, e: Edge, limit: int = INF) -> set[int] | None:
        """u's side of the source-minimal minimum u-v cut for e = (u, v);
        None when the u-v flow reaches `limit`."""
        u, v = e
        if _restored_flow(self.edge, u, v, limit) == limit:
            return None
        return self.edge[0].residual_reachable(u)

    def cut_containing_edge(self, e: Edge) -> Cut:
        u, v = e
        if not self.g.has_edge(u, v):
            raise NoSuchEdge(f"({u},{v})")
        return _cut_from_side(self.g, self.edge_side(e))

    def vertex_flows(self, best: int, removed: int | None = None):
        """(value, separator) over `_kappa_pairs(g, removed)`.

        For G - v the arc v_in->v_out is cut, and v, whose v_in the
        residual may reach, is dropped from the separator.
        """
        cut = () if removed is None else (2 * removed,)
        # the network is built at the first pair, so a complete graph builds none
        for s, t in _kappa_pairs(self.g, removed):
            value = _restored_flow(self.split, 2 * s + 1, 2 * t, best + 1, cut)
            if value <= best:
                sep = _separator_from_residual(self.g.n, self.split[0], 2 * s + 1)
                yield value, tuple(v for v in sep if v != removed)
                best = value

    def edge_flows(self, best: int, removed: int | None = None):
        """(value, residual side) of the flows from a minimum-degree vertex
        v0 of G - removed to every other vertex.

        For G - v both arcs of every pair at v are cut, so no side holds v.
        """
        degs = _degrees_without(self.g, removed)
        v0 = min(degs, key=degs.get)
        net = self.edge[0]
        cut = () if removed is None else [b for a in net.adj[removed] for b in (a, a ^ 1)]
        for t in degs:
            if t == v0:
                continue
            value = _restored_flow(self.edge, v0, t, best + 1, cut)
            if value <= best:
                yield value, net.residual_reachable(v0)
                best = value

    def separator_below(self, j: int, removed: int | None = None) -> tuple[int, ...] | None:
        """None when kappa >= j, of G or with `removed` of G - removed.

        Otherwise a separator of fewer than j vertices, in G's labels: ()
        when the graph has at most j vertices (or is G and disconnected),
        else the one the first flow below j leaves in its residual.
        """
        g = self.g
        first = lambda: next((sep for _, sep in self.vertex_flows(j - 1, removed)), None)
        if removed is None:
            if j not in self._below:
                self._below[j] = first() if g.n > j and g.is_connected() else ()
            return self._below[j]
        return first() if g.n - 1 > j else ()

    def edge_connected(self, j: int, removed: int | None = None) -> bool:
        """lambda >= j, of G or with `removed` of G - removed; K^1 is not.

        About G the answer is true without a flow once kappa >= j is known.
        """
        g = self.g
        none_below = lambda: next(self.edge_flows(j - 1, removed), None) is None
        if removed is None:
            if j not in self._edge_conn:
                kappa_reached = any(sep is None for i, sep in self._below.items() if i >= j)
                self._edge_conn[j] = kappa_reached or (
                    g.n > 1 and g.is_connected() and min(g.degrees()) >= j and none_below())
            return self._edge_conn[j]
        return g.n > 2 and min(_degrees_without(g, removed).values()) >= j and none_below()


# ---------------------------------------------------------------------------
# disjoint path families (Menger duals)
# ---------------------------------------------------------------------------


def _decompose_paths(net: FlowNetwork, caps: list[int], source: int, sink: int, node_of) -> list[tuple[int, ...]]:
    # Walk unit flows from source to sink, consuming them arc by arc: the
    # flow on arc a is caps[a] - net.cap[a], read as the walk reaches a,
    # and a consumed unit goes back into net.cap[a].  An undirected pair
    # carries its flow on whichever arc points along it.
    cap = net.cap
    paths = []
    while True:
        walk = []
        u = source
        while u != sink:
            for a in net.adj[u]:
                if caps[a] > cap[a]:
                    cap[a] += 1
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


def max_disjoint_paths(g, a_side, b_side, mode: str = "vertex") -> DisjointPaths:
    """Maximum family of disjoint A-B paths with its Menger dual.

    Paths are disjoint everywhere, endpoints included: vertex-disjoint for
    mode="vertex", dual to the source-minimal A-B separator, which may
    meet A and B (Menger's theorem in its A-B form); edge-disjoint for
    mode="edge", dual to the source-minimal A-B edge cut.  `g` is anything
    whose `neighbors(v)` lists v's neighbours, a `Graph` or a family's
    `Ball`; a `MultiGraph` is refused, since rows carry no multiplicities.

    The flow runs on the live part of G.  The live set L is what B
    reaches in G - A, found by one search that stops at A.  Every A-B
    path has a suffix from its last A vertex, and that suffix is an A-B
    path inside L plus one A vertex; so the flow has the same value on L
    and the A vertices that touch L.  The other components of G - A touch
    only A: they carry no flow and lie on the source side, so the
    source-minimal separator or cut is the same too.  The kept vertices
    are numbered in increasing order, which keeps the order of
    separators and cut edges; paths and dual come back in G's labels.
    """
    if isinstance(g, MultiGraph):
        raise InvalidParams("disjoint paths read neighbour rows, which carry no multiplicities")
    A = frozenset(a_side)
    B = frozenset(b_side)
    if not A or not B:
        raise TooSmall("both endpoint sets must be non-empty")
    if A & B:
        raise TooSmall("endpoint sets must be disjoint")
    if mode not in ("vertex", "edge"):
        raise ValueError(f"unknown mode {mode!r}")
    keep = sorted(reachable(lambda v: () if v in A else g.neighbors(v), B))
    new = {v: i for i, v in enumerate(keep)}
    edges = [(i, new[w]) for i, v in enumerate(keep)
             for w in sorted(g.neighbors(v)) if w > v and w in new]
    n = len(keep)
    if mode == "vertex":
        net, width = _split_network(n, edges), 2
    else:
        net, width = _edge_network(n, edges), 1
    # vertex v enters the network at width*v and leaves at width*v + width-1
    src, snk = net.n - 2, net.n - 1
    for a in sorted(A.intersection(new)):
        net.add_arc(src, width * new[a], INF)
    for b in sorted(B):
        net.add_arc(width * new[b] + width - 1, snk, INF)
    caps = list(net.cap)
    value = net.max_flow(src, snk)
    if mode == "vertex":
        dual = tuple(keep[v] for v in _separator_from_residual(n, net, src))
    else:
        reach = net.residual_reachable(src)
        dual = tuple((keep[u], keep[w]) for u, w in edges if (u in reach) != (w in reach))
    assert value == len(dual), "Menger duality must certify the count"
    paths = tuple(_decompose_paths(
        net, caps, src, snk, lambda node: keep[node // width] if node < width * n else None
    ))
    if mode == "vertex":
        return DisjointPaths(mode, value, paths, dual, None)
    return DisjointPaths(mode, value, paths, None, dual)
