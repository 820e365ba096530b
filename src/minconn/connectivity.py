"""Vertex and edge connectivity with explicit dual certificates.

The routines here reduce to max-flow (vertex-splitting for separators,
plain unit/multiplicity capacities for cuts, and for `max_disjoint_paths`
a one-shot flow on G's own rows, `flow.row_paths`, with no network).
The test suite holds them equal, on an exhaustive small-graph corpus, to
a brute-force oracle that re-derives both numbers by subset enumeration
(`tests/oracles.py`).

Every question is asked of one `Connectivity` record per graph, shared
by the minimality predicates and the witness procedures.  It builds at
most one split network and one edge network, and each cut kind has one
pair loop after Even and Tarjan's fixed-source pair list (SIAM J.
Comput. 1975).  Its every flow is `FlowNetwork.flow`, which resumes each
pair's last flow on the network with the units on the cut arcs
cancelled.  The scans keep the minimum and, among its ties, the
lexicographically smallest separator (or `Cut.edges`); kappa >= j and
lambda >= j take the first pair below j, and lambda >= j needs no flow
once kappa >= j is known (Whitney, Amer. J. Math. 1932: kappa <=
lambda).  G - x is asked on G's networks with x's arcs cut, never on a
copy.  A resumed flow that stops below its limit is maximum, and every
maximum flow leaves the same residual side, so no answer depends on
where a flow started, nor on which caller asked first.

A scan's pair loop stops each flow one unit above the best value b so
far and yields every pair that reaches b, but skips the pairs a found
side decides.  Say a flow from s to t' reached b below its limit and
left the residual side R.  For a later target t outside R, R is an s-t
cut of capacity b.  If t's value is b too, its source-minimal side lies
inside R, so it is an s-t' cut of capacity b and contains R as well
(Ford and Fulkerson, Flows in Networks, 1962: the source-minimal side of
a minimum cut lies inside every other): the two sides are equal, and
t's flow could only repeat a tie already yielded.  So such a t
- runs with limit b, not b + 1, which tells "below b" from "the same
  side", and runs no search when its resumed flow already holds b;
- runs no flow at all when b is the scan's floor, the lower bound the
  record already holds: the largest j with kappa >= j known of G for
  separators (less one for G - x, since x and a separator of G - x
  separate G), the largest j with lambda >= j known for cuts of G, and
  none for cuts of G - x.
The sides are kept per source and for the current b only, so every tie
the loop does yield has a side of its own.  kappa >= j and lambda >= j
stop at the first yield, before any side is kept.

Local facts answer before any flow.  kappa <= delta: `separator_below`
returns N(v0) when the anchor v0 has degree below j.  And the easy side
of Menger: the paths s-w-t through common neighbours w are disjoint, so
|N(s) & N(t)| is a floor on both local connectivities, one more in edge
mode when st is an edge (neighbour sets, so also on multigraphs).  A
pair loop skips a pair whose floor reaches the pair's limit, and a
per-edge question whose floor reaches its limit is answered with no
flow.  The skipped pair's flow would have reached its limit and not
been yielded, so no scan, tie or residual moves.

Conventions: disconnected graphs have connectivity 0, complete graphs have
vertex connectivity n-1, and single-vertex graphs are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import InvalidParams, NoSuchEdge, TooSmall
from .flow import INF, FlowNetwork, row_paths
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
# networks and the certificates read from them
# ---------------------------------------------------------------------------


def _split_network(n: int, edges) -> FlowNetwork:
    # node 2v = v_in, 2v+1 = v_out, and arc 2v is v_in->v_out; edge i of
    # `edges` follows as arcs 2n + 4i (u_out->v_in) and 2n + 4i + 2 (v_out->u_in)
    net = FlowNetwork(2 * n)
    for v in range(n):
        net.add_arc(2 * v, 2 * v + 1, 1)
    for u, v in edges:
        net.add_arc(2 * u + 1, 2 * v, INF)
        net.add_arc(2 * v + 1, 2 * u, INF)
    return net


def _separator(g: Graph, vertices: tuple[int, ...]) -> Separator:
    return Separator(vertices, tuple(components_of_subset(g, set(range(g.n)) - set(vertices))))


def _edge_network(n: int, edges, mult=None) -> FlowNetwork:
    # node v = v, one undirected pair per edge class with its multiplicity
    # `mult(u, v)` as capacity (1 without `mult`)
    net = FlowNetwork(n)
    for u, v in edges:
        net.add_undirected(u, v, 1 if mult is None else mult(u, v))
    return net


def _cut_from_side(g, side, removed: int | None = None) -> Cut:
    # The cut of G (or of G - removed) whose first side is `side`.
    a = frozenset(side)
    b = frozenset(range(g.n)) - a - {removed}
    edges = tuple(sorted(e for e in edge_boundary(g, a) if removed not in e))
    return Cut(edges, (a, b), sum(g.multiplicity(u, v) for u, v in edges))


# ---------------------------------------------------------------------------
# the connectivity record
# ---------------------------------------------------------------------------


class Connectivity:
    """The connectivity questions about one Graph or MultiGraph G, about
    each G - x and about each G - e, answered from G's pair flows.

    About G: `min_separator()` (None when G is complete), `min_cut()`,
    `separator_below(j)` and `edge_connected(j)`; about G - x:
    `separator_containing(x)`, `cut_without(x)`, `separator_below(j, x)`
    and `edge_connected(j, x)`; about G - e: `paths_avoiding_edge(e,
    limit)`, `edge_side(e, limit)` and `cut_containing_edge(e)`.  Ties
    keep the lexicographically smallest separator (or `Cut.edges`) among
    the minimum ones the pair flows realise, and every answer is the one
    a fresh record gives, whatever was asked of it before.  So one record
    serves every caller about G: `classify` hands one to the four
    predicates, `check_class` keeps each verdict in `verdicts`, and
    `cmd_witness` shares one between the membership check, the default
    region and the traced procedure.

    Inside, `split` and `edge` are G's two networks, each built at its
    first flow and asked through `FlowNetwork.flow`; G - x is asked with
    x's arcs cut.  Each deletion's degrees and anchor (`_deletion`), each
    scan and kappa >= j and lambda >= j about G are worked out once.
    """

    def __init__(self, g):
        self.g = g
        self._below: dict[int, tuple[int, ...] | None] = {}
        self._edge_conn: dict[int, bool] = {}
        # removed -> what `_deletion` found
        self._deletions: dict[int | None, tuple[dict[int, int], int]] = {}
        # ("vertex" or "edge", removed) -> what `_vertex_scan` or `_edge_scan` found
        self._scans: dict[tuple[str, int | None], tuple] = {}
        # (class, k) -> the PredicateResult `check_class` found
        self.verdicts: dict = {}

    @cached_property
    def split(self) -> FlowNetwork:
        return _split_network(self.g.n, self.g.edges())

    @cached_property
    def edge(self) -> FlowNetwork:
        return _edge_network(self.g.n, self.g.edges(), self.g.multiplicity)

    def min_separator(self) -> Separator | None:
        g = self.g
        if g.n < 2:
            raise TooSmall("need at least 2 vertices")
        if not g.is_connected():
            return _separator(g, ())
        k, best = self._vertex_scan()
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
        _, sub = self._vertex_scan(x)
        if sub is None:
            return None
        return _separator(g, tuple(sorted((x, *sub))))

    def separator_below(self, j: int, removed: int | None = None) -> tuple[int, ...] | None:
        """None when kappa >= j, of G or with `removed` of G - removed.

        Otherwise a separator of fewer than j vertices, in G's labels: ()
        when the graph has at most j vertices (or is G and disconnected);
        N(v0) with no flow when the anchor v0 has degree below j (kappa <=
        delta, and v0 has a non-neighbour); else the one the first flow
        below j leaves in its residual.
        """
        g = self.g

        def first():
            degs, v0 = self._deletion(removed)
            if degs[v0] < j:
                return tuple(sorted(g.neighbors(v0) - {removed}))
            return next((sep for _, sep in self._vertex_flows(j - 1, removed)), None)

        if removed is None:
            if j not in self._below:
                self._below[j] = first() if g.n > j and g.is_connected() else ()
            return self._below[j]
        return first() if g.n - 1 > j else ()

    def min_cut(self) -> Cut:
        g = self.g
        if g.n < 2:
            raise TooSmall("need at least 2 vertices")
        side = reachable(g.neighbors, [0])
        if len(side) < g.n:
            return _cut_from_side(g, side)
        k, best = self._edge_scan()
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
        return self._edge_scan(x)[1]

    def edge_connected(self, j: int, removed: int | None = None) -> bool:
        """lambda >= j, of G or with `removed` of G - removed; K^1 is not.

        No flow runs when a vertex has degree below j, nor, about G, once
        kappa >= j is known (Whitney: kappa <= lambda).
        """
        g = self.g

        def none_below():
            degs, v0 = self._deletion(removed)
            return degs[v0] >= j and next(self._edge_flows(j - 1, removed), None) is None

        if removed is None:
            if j not in self._edge_conn:
                kappa_reached = any(sep is None for i, sep in self._below.items() if i >= j)
                self._edge_conn[j] = kappa_reached or (g.n > 1 and g.is_connected() and none_below())
            return self._edge_conn[j]
        return g.n > 2 and none_below()

    def paths_avoiding_edge(self, e: Edge, limit: int) -> int:
        """Internally disjoint u-v paths avoiding e = (u, v), counted up to
        `limit`: `limit` when the paths u-w-v through common neighbours
        reach it, else the u_out->v_in flow with that arc cut (its twin
        v_out->u_in leaves the sink, so no u-v flow can use it)."""
        u, v = e
        if len(self.g.neighbors(u) & self.g.neighbors(v)) >= limit:
            return limit
        net = self.split
        return net.flow(2 * u + 1, 2 * v, limit, (net.arc(2 * u + 1, 2 * v),))

    def edge_side(self, e: Edge, limit: int = INF) -> set[int] | None:
        """u's side of the source-minimal minimum u-v cut for e = (u, v);
        None when the u-v flow reaches `limit`, with no flow when e and
        the paths u-w-v through common neighbours already do."""
        u, v = e
        if len(self.g.neighbors(u) & self.g.neighbors(v)) + 1 >= limit:
            return None
        if self.edge.flow(u, v, limit) == limit:
            return None
        return self.edge.residual_reachable(u)

    def cut_containing_edge(self, e: Edge) -> Cut:
        u, v = e
        if not self.g.has_edge(u, v):
            raise NoSuchEdge(f"({u},{v})")
        return _cut_from_side(self.g, self.edge_side(e))

    def _deletion(self, removed: int | None = None) -> tuple[dict[int, int], int]:
        """The degree of each vertex of G - removed (of G when None), by
        G's labels in increasing order, and the anchor v0: the least vertex
        of minimum degree."""
        if removed not in self._deletions:
            g = self.g
            degs = dict(enumerate(g.degrees()))
            if removed is not None:
                for w in g.neighbors(removed):
                    degs[w] -= g.multiplicity(removed, w)
                del degs[removed]
            self._deletions[removed] = degs, min(degs, key=degs.get)
        return self._deletions[removed]

    def _kappa_pairs(self, removed: int | None = None):
        """Pair list sufficient for vertex connectivity, fixed-source style.

        Any minimum separator either avoids the anchor v0 (then it separates
        v0 from some non-neighbour) or contains it (then it separates two
        non-adjacent neighbours of v0, since a minimum separator sees every
        component).  With `removed`, the list for G - removed, read from G
        in G's labels and in the order a copy of G - removed would give.
        """
        g = self.g
        degs, v0 = self._deletion(removed)
        nb = g.neighbors(v0) - {removed}
        for w in degs:
            if w != v0 and w not in nb:
                yield v0, w
        for x, y in combinations(sorted(nb), 2):
            if not g.has_edge(x, y):
                yield x, y

    def _vertex_scan(self, removed: int | None = None) -> tuple[int, tuple[int, ...] | None]:
        """kappa of a connected graph (or of G - removed, connected) and the
        lexicographically smallest minimum separator among those the pairs
        realise (None when complete)."""
        key = "vertex", removed
        if key not in self._scans:
            best, best_sep = self.g.n - 1 - (removed is not None), None
            floor = max((j for j, sep in self._below.items() if sep is None), default=0)
            for value, sep in self._vertex_flows(best, removed, floor - (removed is not None)):
                if value < best or best_sep is None or sep < best_sep:
                    best, best_sep = value, sep
            self._scans[key] = best, best_sep
        return self._scans[key]

    def _edge_scan(self, removed: int | None = None) -> tuple[int, Cut]:
        """lambda of a connected graph (or of G - removed, connected, with at
        least two vertices) and the minimum cut with the lexicographically
        smallest `Cut.edges` among those `_edge_flows` realises."""
        key = "edge", removed
        if key not in self._scans:
            best, best_cut = INF, None
            floor = 0 if removed is not None else max(
                (j for j, ok in self._edge_conn.items() if ok), default=0)
            for value, side in self._edge_flows(best, removed, floor):
                cut = _cut_from_side(self.g, side, removed)
                if value < best or cut.edges < best_cut.edges:
                    best, best_cut = value, cut
            self._scans[key] = best, best_cut
        return self._scans[key]

    def _vertex_flows(self, best: int, removed: int | None = None, floor: int = 0):
        """(value, separator) over `_kappa_pairs(removed)`, but for the
        pairs a side found at best decides: the module docstring's rule,
        with `floor` the scan's floor.

        For G - v the arc v_in->v_out is cut, and v, whose v_in the
        residual may reach, is dropped from the separator.  A pair with
        as many common neighbours in G - removed as its limit has that
        many disjoint paths s-w-t, so its flow would reach the limit: it
        is skipped without one.  The network is built at the first flow,
        so a complete graph builds none.
        """
        n, nb = self.g.n, self.g.neighbors
        cut = () if removed is None else (2 * removed,)
        sides: dict[int, list[set[int]]] = {}  # source -> the residual sides at best
        for s, t in self._kappa_pairs(removed):
            decided = s in sides and any(2 * t not in side for side in sides[s])
            if decided and best == floor:
                continue
            limit = best + (not decided)
            common = nb(s) & nb(t)
            if len(common) - (removed in common) >= limit:
                continue
            value = self.split.flow(2 * s + 1, 2 * t, limit, cut)
            if value < limit:
                reach = self.split.residual_reachable(2 * s + 1)
                if value < best:
                    sides = {}
                sides.setdefault(s, []).append(reach)
                yield value, tuple(v for v in range(n) if 2 * v in reach and 2 * v + 1 not in reach and v != removed)
                best = value

    def _edge_flows(self, best: int, removed: int | None = None, floor: int = 0):
        """(value, residual side) of the flows from the anchor v0 of
        G - removed to every other vertex, but for the targets a side
        found at best decides: the module docstring's rule.

        For G - v every arc pair at v is cut, so no side holds v.
        As in `_vertex_flows`, a pair whose edge and paths v0-w-t through
        common neighbours in G - removed reach its limit is skipped, and
        the network is built at the first flow.
        """
        degs, v0 = self._deletion(removed)
        nb, nb0 = self.g.neighbors, self.g.neighbors(v0)
        cut = None
        sides: list[set[int]] = []  # the residual sides at best
        for t in degs:
            if t == v0:
                continue
            decided = bool(sides) and any(t not in side for side in sides)
            if decided and best == floor:
                continue
            limit = best + (not decided)
            common = nb0 & nb(t)
            if len(common) - (removed in common) + (t in nb0) >= limit:
                continue
            if cut is None:
                net = self.edge
                cut = () if removed is None else net.pairs_at(removed)
            value = net.flow(v0, t, limit, cut)
            if value < limit:
                side = net.residual_reachable(v0)
                if value < best:
                    sides = []
                sides.append(side)
                yield value, side
                best = value


# ---------------------------------------------------------------------------
# shorthands, each on a fresh record
# ---------------------------------------------------------------------------


def vertex_connectivity(g: Graph) -> int:
    """kappa(G); 0 when disconnected, n-1 when complete."""
    sep = Connectivity(g).min_separator()
    return g.n - 1 if sep is None else sep.size


def is_k_connected(g: Graph, k: int) -> bool:
    """kappa(G) >= k, with flows cut off at k (cheaper than full kappa).

    The one-vertex graph is not considered k-connected for any k >= 1.
    """
    if k < 1:
        raise TooSmall("k must be at least 1")
    return Connectivity(g).separator_below(k) is None


def min_vertex_separator(g: Graph) -> Separator | None:
    """`Connectivity(g).min_separator()`."""
    return Connectivity(g).min_separator()


def min_separator_containing(g: Graph, x: int) -> Separator | None:
    """`Connectivity(g).separator_containing(x)`."""
    return Connectivity(g).separator_containing(x)


def edge_connectivity(g) -> int:
    """lambda(G) for a Graph or MultiGraph; 0 when disconnected."""
    return Connectivity(g).min_cut().size


def is_k_edge_connected(g, k: int) -> bool:
    """lambda(G) >= k with early cutoff; K^1 rejected for every k >= 1."""
    if k < 1:
        raise TooSmall("k must be at least 1")
    return Connectivity(g).edge_connected(k)


def min_edge_cut(g) -> Cut:
    """`Connectivity(g).min_cut()`."""
    return Connectivity(g).min_cut()


def min_cut_containing_edge(g, e: Edge) -> Cut:
    """`Connectivity(g).cut_containing_edge(e)`."""
    return Connectivity(g).cut_containing_edge(e)


# ---------------------------------------------------------------------------
# disjoint path families (Menger duals)
# ---------------------------------------------------------------------------


def max_disjoint_paths(g, a_side, b_side, mode: str = "vertex") -> DisjointPaths:
    """Maximum family of disjoint A-B paths with its Menger dual.

    Paths are disjoint everywhere, endpoints included: vertex-disjoint for
    mode="vertex", dual to the source-minimal A-B separator, which may
    meet A and B (Menger's theorem in its A-B form); edge-disjoint for
    mode="edge", dual to the source-minimal A-B edge cut.  `g` is anything
    whose `neighbors(v)` lists v's neighbours, a `Graph` or a family's
    `Ball`; a `MultiGraph` is refused, since rows carry no multiplicities.

    The flow runs on G's rows (`flow.row_paths`) over the live set L,
    what B reaches in G - A, from the A vertices whose rows touch L.  An
    A-B path's suffix from its last A vertex runs inside L, and the
    other components of G - A carry no flow and lie on the source side,
    so neither the count nor the dual moves.  Both are fixed by G alone;
    the maximum family of paths is fixed by G's row order and the search,
    and may differ from the one another max-flow algorithm returns.
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
        raise InvalidParams(f"unknown mode {mode!r}")
    row = g.neighbors
    live = reachable(row, B, avoid=A)
    sources = {a: hits for a in sorted(A) if (hits := [w for w in row(a) if w in live])}
    paths, dual = row_paths(row, sources, B, mode == "vertex")
    assert len(paths) == len(dual), "Menger duality must certify the count"
    duals = (dual, None) if mode == "vertex" else (None, dual)
    return DisjointPaths(mode, len(paths), tuple(paths), *duals)
