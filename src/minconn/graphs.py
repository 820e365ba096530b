"""Core graph types and combinatorial helpers.

Graphs are immutable, with vertices 0..n-1.  Deletion operations return a
fresh graph plus an index translation, so callers can map witnesses found
in the smaller graph back to the original.  Multigraphs carry edge
multiplicities and support the subdivision reduction to simple graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import EmptyRegion, InvalidParams, NoSuchEdge

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """Finite simple undirected graph on dense integer vertices."""

    __slots__ = ("n", "_adj", "_m")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise InvalidParams("vertex count must be non-negative")
        adj = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if u == v:
                raise InvalidParams(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParams(f"edge ({u},{v}) out of range for n={n}")
            if v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                m += 1
        self.n = n
        self._adj = tuple(frozenset(s) for s in adj)
        self._m = m

    @classmethod
    def from_adjacency(cls, rows) -> "Graph":
        """The graph in which vertex v has the neighbours `rows[v]`.

        The rows are trusted: they must be symmetric, loop-free and in
        range, as the CSR rows of a ball are by construction.
        """
        g = cls.__new__(cls)
        g._adj = tuple(frozenset(r) for r in rows)
        g.n = len(g._adj)
        g._m = sum(map(len, g._adj)) // 2
        return g

    # -- basic queries ------------------------------------------------

    @property
    def m(self) -> int:
        return self._m

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self._adj)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edges(self) -> list[Edge]:
        return [(u, v) for u in range(self.n) for v in sorted(self._adj[u]) if u < v]

    def vertices(self) -> range:
        return range(self.n)

    def min_degree(self) -> int:
        return min(self.degrees()) if self.n else 0

    def max_degree(self) -> int:
        return max(self.degrees()) if self.n else 0

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self):
        return hash((self.n, self._adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    # -- connectivity-free structure ----------------------------------

    def components(self) -> list[frozenset[int]]:
        return components_of_subset(self, range(self.n))

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    # -- derived graphs ------------------------------------------------

    def delete_vertex(self, v: int) -> tuple["Graph", tuple[int, ...]]:
        """Return (G - v, old_index_of_new) with vertices reindexed densely."""
        keep = [u for u in range(self.n) if u != v]
        return self.induced(keep)

    def delete_vertices(self, vs) -> tuple["Graph", tuple[int, ...]]:
        drop = set(vs)
        keep = [u for u in range(self.n) if u not in drop]
        return self.induced(keep)

    def delete_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise NoSuchEdge(f"({u},{v})")
        e = _norm_edge(u, v)
        return Graph(self.n, (f for f in self.edges() if f != e))

    def induced(self, vertices) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph plus the old-index-of-new translation tuple."""
        old = tuple(sorted(set(vertices)))
        pos = {o: i for i, o in enumerate(old)}
        edges = [
            (pos[u], pos[v])
            for u in old
            for v in self._adj[u]
            if u < v and v in pos
        ]
        return Graph(len(old), edges), old


class MultiGraph:
    """Undirected multigraph: parallel edges carry a multiplicity count."""

    __slots__ = ("n", "mult")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise InvalidParams("vertex count must be non-negative")
        mult: dict[Edge, int] = {}
        for item in edges:
            if len(item) == 3:
                u, v, k = item
            else:
                u, v = item
                k = 1
            if u == v:
                raise InvalidParams(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParams(f"edge ({u},{v}) out of range for n={n}")
            if k <= 0:
                raise InvalidParams("multiplicity must be positive")
            e = _norm_edge(u, v)
            mult[e] = mult.get(e, 0) + k
        self.n = n
        self.mult = dict(sorted(mult.items()))

    @property
    def m(self) -> int:
        return sum(self.mult.values())

    def multiplicity(self, u: int, v: int) -> int:
        return self.mult.get(_norm_edge(u, v), 0)

    def degree(self, v: int) -> int:
        return sum(k for (a, b), k in self.mult.items() if v in (a, b))

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for (a, b), k in self.mult.items():
            deg[a] += k
            deg[b] += k
        return tuple(deg)

    def edge_classes(self) -> list[Edge]:
        return list(self.mult)

    def neighbors(self, v: int) -> set[int]:
        out = set()
        for a, b in self.mult:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return out

    def is_connected(self) -> bool:
        return self.skeleton().is_connected()

    def skeleton(self) -> Graph:
        """Underlying simple graph (multiplicities flattened)."""
        return Graph(self.n, self.mult.keys())

    def delete_vertex(self, v: int) -> tuple["MultiGraph", tuple[int, ...]]:
        """Return (G - v, old_index_of_new) with vertices reindexed densely."""
        old = tuple(u for u in range(self.n) if u != v)
        pos = {o: i for i, o in enumerate(old)}
        edges = [
            (pos[a], pos[b], k)
            for (a, b), k in self.mult.items()
            if a != v and b != v
        ]
        return MultiGraph(len(old), edges), old

    def delete_one_edge(self, u: int, v: int) -> "MultiGraph":
        """Remove a single copy of edge (u, v)."""
        e = _norm_edge(u, v)
        if e not in self.mult:
            raise NoSuchEdge(f"({u},{v})")
        edges = [(a, b, k) for (a, b), k in self.mult.items() if (a, b) != e]
        if self.mult[e] > 1:
            edges.append((e[0], e[1], self.mult[e] - 1))
        return MultiGraph(self.n, edges)

    def subdivide(self) -> tuple[Graph, dict]:
        """Subdivide every edge copy once, yielding a simple graph.

        Returns (graph, info) where info maps each new midpoint index to
        the (u, v, copy) edge it represents; indices 0..n-1 are the
        original vertices.
        """
        edges = []
        info = {}
        nxt = self.n
        for (u, v), k in self.mult.items():
            for c in range(k):
                info[nxt] = (u, v, c)
                edges.append((u, nxt))
                edges.append((nxt, v))
                nxt += 1
        return Graph(nxt, edges), info

    def __eq__(self, other):
        return isinstance(other, MultiGraph) and self.n == other.n and self.mult == other.mult

    def __repr__(self):
        return f"MultiGraph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# Vertex-subset helpers (no graph copies; these are the hot-path primitives)
# ---------------------------------------------------------------------------


def components_of_subset(g: Graph, vertices) -> list[frozenset[int]]:
    """Connected components of the subgraph induced on `vertices`.

    Sorted by smallest member, so the result is deterministic.
    """
    left = set(vertices)
    comps = []
    while left:
        start = min(left)
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w in left and w not in seen:
                    seen.add(w)
                    stack.append(w)
        left -= seen
        comps.append(frozenset(seen))
    return sorted(comps, key=min)


def is_connected_subset(g: Graph, vertices) -> bool:
    vs = set(vertices)
    if not vs:
        return False
    return len(components_of_subset(g, vs)) == 1


def vertex_boundary(g: Graph, vertices) -> frozenset[int]:
    """Vertices of the set with at least one neighbour outside it."""
    vs = set(vertices)
    return frozenset(v for v in vs if any(w not in vs for w in g.neighbors(v)))


def edge_boundary(g: Graph, vertices) -> frozenset[Edge]:
    """Edges of g with exactly one endpoint in the set."""
    vs = set(vertices)
    out = set()
    for v in vs:
        for w in g.neighbors(v):
            if w not in vs:
                out.add(_norm_edge(v, w))
    return frozenset(out)


def external_neighborhood(g: Graph, vertices) -> frozenset[int]:
    vs = set(vertices)
    out = set()
    for v in vs:
        out |= g.neighbors(v) - vs
    return frozenset(out)


# ---------------------------------------------------------------------------
# Regions and mixed deletion sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """A connected induced subgraph of a host graph, with its boundaries.

    `vertices` is the region's full vertex set; the vertex boundary is the
    set of region vertices with neighbours outside, and the region is
    profound when an interior vertex remains after removing the boundary.
    """

    host: Graph
    vertices: frozenset[int]
    boundary: frozenset[int]
    edge_cut: frozenset[Edge]

    @property
    def interior(self) -> frozenset[int]:
        return self.vertices - self.boundary

    @property
    def profound(self) -> bool:
        return bool(self.interior)

    def is_k_region(self, k: int) -> bool:
        return len(self.boundary) == k

    def __len__(self):
        return len(self.vertices)


def region_of(g: Graph, vertices) -> Region:
    """Build the region on `vertices`, validating non-emptiness and connectivity."""
    vs = frozenset(vertices)
    if not vs:
        raise EmptyRegion("a region needs at least one vertex")
    if not all(0 <= v < g.n for v in vs):
        raise InvalidParams("region vertices out of range")
    if not is_connected_subset(g, vs):
        raise InvalidParams("region must induce a connected subgraph")
    return Region(g, vs, vertex_boundary(g, vs), edge_boundary(g, vs))


@dataclass(frozen=True)
class MixedSet:
    """A set of vertices and edges to delete together."""

    vertices: frozenset[int]
    edges: frozenset[Edge]

    @staticmethod
    def of(vertices=(), edges=()) -> "MixedSet":
        return MixedSet(frozenset(vertices), frozenset(_norm_edge(u, v) for u, v in edges))

    def __len__(self):
        return len(self.vertices) + len(self.edges)


def delete_mixed(g: Graph, s: MixedSet) -> tuple[Graph, tuple[int, ...]]:
    """Delete a mixed vertex/edge set; returns (graph, old_index_of_new)."""
    for u, v in s.edges:
        if not g.has_edge(u, v):
            raise NoSuchEdge(f"({u},{v})")
    keep = [v for v in range(g.n) if v not in s.vertices]
    pos = {o: i for i, o in enumerate(keep)}
    edges = [
        (pos[u], pos[v])
        for u, v in g.edges()
        if u in pos and v in pos and (u, v) not in s.edges
    ]
    return Graph(len(keep), edges), tuple(keep)


# ---------------------------------------------------------------------------
# Degree profiles
# ---------------------------------------------------------------------------


def degree_profile(g) -> dict[int, int]:
    """Histogram degree -> count (works for Graph and MultiGraph)."""
    prof: dict[int, int] = {}
    for d in g.degrees():
        prof[d] = prof.get(d, 0) + 1
    return dict(sorted(prof.items()))


def small_degree_set(g, bound: int) -> list[int]:
    """Vertices of degree at most `bound`, ascending."""
    return [v for v, d in enumerate(g.degrees()) if d <= bound]


# ---------------------------------------------------------------------------
# Standard generators and products
# ---------------------------------------------------------------------------


def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidParams("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def _product(g: Graph, h: Graph, include_cartesian: bool, include_diagonal: bool) -> Graph:
    def idx(a: int, b: int) -> int:
        return a * h.n + b

    edges = []
    if include_cartesian:
        for a, b in g.edges():
            for c in range(h.n):
                edges.append((idx(a, c), idx(b, c)))
        for c, d in h.edges():
            for a in range(g.n):
                edges.append((idx(a, c), idx(a, d)))
    if include_diagonal:
        for a, b in g.edges():
            for c, d in h.edges():
                edges.append((idx(a, c), idx(b, d)))
                edges.append((idx(a, d), idx(b, c)))
    return Graph(g.n * h.n, edges)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product: (a,c)~(b,d) iff a=b, c~d or a~b, c=d.

    Vertex (a, c) gets index a*|h| + c.
    """
    return _product(g, h, True, False)


def strong_product(g: Graph, h: Graph) -> Graph:
    """Strong product: adjacency in each coordinate, allowing equality in one."""
    return _product(g, h, True, True)


def square(g: Graph) -> Graph:
    """Graph square: join vertices at distance at most 2."""
    edges = list(g.edges())
    for v in range(g.n):
        nb = sorted(g.neighbors(v))
        for a, b in combinations(nb, 2):
            edges.append((a, b))
    return Graph(g.n, edges)


def ladder_graph(m: int) -> Graph:
    """P_m box K^2 -- the ladder with m rungs."""
    return cartesian_product(path_graph(m), complete_graph(2))
