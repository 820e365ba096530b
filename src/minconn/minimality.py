"""Membership predicates for the four minimality classes.

A graph is *edge-minimally k-connected* when it is k-connected but no
proper spanning subgraph is, i.e. deleting any single edge destroys
k-connectivity; *vertex-minimally k-connected* when deleting any single
vertex does; and analogously for k-edge-connectivity, where parallel
edges are allowed and a deletion removes one edge copy.

Each predicate first checks the base connectivity.  Deleting an edge
lowers either connectivity by at most one, and deleting a vertex lowers
vertex connectivity by at most one, so a graph that stays k-connected
beyond k cannot be minimal and any single element certifies that.  The
elements are then tried in order, and the first one whose deletion keeps
the connectivity is the certificate.  Three local facts replace a full
connectivity scan of the deleted graph:

- Class a.  For k-connected G, G - uv is k-connected iff k internally
  disjoint u-v paths avoid uv: a separator of G - uv with fewer than k
  vertices separates nothing in G, so it must split u from v.
- Class b.  Every vertex x of a k-separator T of G is critical: T - x
  separates G - x.  The failing (k+1)-connectivity flow leaves one such
  T, and a separator S of k-1 vertices in G - v gives another, S + v.
  Vertices so certified are not tried again.
- Class c.  For k- but not (k+1)-edge-connected G, G minus one copy of
  uv is k-edge-connected iff lambda(u, v) >= k+1: only the cuts between
  u and v lose an edge.  A u-v flow of value k leaves a k-cut, and
  deleting one copy of any of its edges leaves a (k-1)-cut, so those
  edge classes are not tried again.

Class d has no such fact: deleting a vertex can lower edge connectivity
by more than one, so each G - v gets a full k-edge-connectivity check.

`classify` hands one `_Connectivity` record to all four predicates, so
each graph gets at most one split network and one edge network and
each question about G is asked once: class b reuses class a's answers
and (k+1)-separator, class c takes lambda >= k (and >= k+1) for free
when kappa already reached it, and class d reuses class c's lambda >= k.
Deletions never copy the graph: each flow restores the network's
capacity snapshot and cuts the deleted element's arcs, u_out->v_in for
class a, v_in->v_out for class b and both arcs of every pair at v for
class d.  A predicate called on its own builds its own record.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .connectivity import _Connectivity, _restored_flow
from .errors import InvalidParams, TooSmall
from .graphs import Edge, Graph, MultiGraph
from .io import graph_id


class MinimalityClass(Enum):
    """The four classes, in the fixed order used throughout.

    Values are the one-letter tags the command line uses.
    """

    EDGE_MIN_CONN = "a"
    VERTEX_MIN_CONN = "b"
    EDGE_MIN_EDGE_CONN = "c"
    VERTEX_MIN_EDGE_CONN = "d"

    @property
    def deletes_edges(self) -> bool:
        return self in (MinimalityClass.EDGE_MIN_CONN, MinimalityClass.EDGE_MIN_EDGE_CONN)

    @property
    def uses_edge_connectivity(self) -> bool:
        return self in (MinimalityClass.EDGE_MIN_EDGE_CONN, MinimalityClass.VERTEX_MIN_EDGE_CONN)

    def flag_name(self, k: int) -> str:
        """Human-readable per-k flag, e.g. "edge-min-3-conn"."""
        kind = "edge" if self.deletes_edges else "vertex"
        conn = "edge-conn" if self.uses_edge_connectivity else "conn"
        return f"{kind}-min-{k}-{conn}"


@dataclass(frozen=True)
class PredicateResult:
    """Outcome of one minimality predicate.

    When `holds` is false, `reason` says why and `certificate` carries the
    refuting element when there is one: the edge or vertex whose deletion
    keeps the graph in the connectivity class.  A certificate is absent
    exactly when the graph lacks the base connectivity in the first place
    (or the class is empty for k=1 by the convention below).
    """

    holds: bool
    reason: str = ""
    certificate: Edge | int | None = None

    def __bool__(self) -> bool:
        return self.holds

    def to_json_obj(self):
        cert = self.certificate
        if isinstance(cert, tuple):
            cert = list(cert)
        return {"holds": self.holds, "reason": self.reason, "certificate": cert}


# No graph is vertex-minimal at k=1: the one-vertex graph does not count
# as connected here, and with that convention the class works out empty,
# so the two vertex-deletion predicates short-circuit to False.
_K1_EMPTY = "no graph is vertex-minimal at k=1 (one-vertex graphs do not count as connected)"


def _check_pre(g, k: int) -> None:
    if k < 1:
        raise TooSmall("k must be at least 1")
    if g.n < 2:
        raise TooSmall("need at least 2 vertices")


def is_edge_min_k_connected(g: Graph, k: int, conn: _Connectivity | None = None) -> PredicateResult:
    """k-connected, and deleting any single edge destroys that."""
    _check_pre(g, k)
    conn = conn or _Connectivity(g)
    if conn.separator_below(k) is not None:
        return PredicateResult(False, f"not {k}-connected")
    if conn.separator_below(k + 1) is None:
        e = g.edges()[0]
        return PredicateResult(False, f"{k + 1}-connected, so deleting edge {e} keeps {k}-connectivity", e)
    net = conn.split[0]
    for e in g.edges():
        u, v = e
        # Cut the arc u_out->v_in; its twin v_out->u_in leaves the sink,
        # so no u-v flow can use it.
        arc = next(a for a in net.adj[2 * u + 1] if net.to[a] == 2 * v)
        if _restored_flow(conn.split, 2 * u + 1, 2 * v, k, (arc,)) == k:
            return PredicateResult(False, f"deleting edge {e} keeps {k}-connectivity", e)
    return PredicateResult(True)


def is_vertex_min_k_connected(g: Graph, k: int, conn: _Connectivity | None = None) -> PredicateResult:
    """k-connected, and deleting any single vertex destroys that."""
    _check_pre(g, k)
    if k == 1:
        return PredicateResult(False, _K1_EMPTY)
    conn = conn or _Connectivity(g)
    if conn.separator_below(k) is not None:
        return PredicateResult(False, f"not {k}-connected")
    sep = conn.separator_below(k + 1)
    if sep is None:
        return PredicateResult(False, f"{k + 1}-connected, so deleting vertex 0 keeps {k}-connectivity", 0)
    critical = set(sep)
    for v in range(g.n):
        if v in critical:
            continue
        sub = conn.separator_below(k, removed=v)
        if sub is None:
            return PredicateResult(False, f"deleting vertex {v} keeps {k}-connectivity", v)
        critical.update(sub)
    return PredicateResult(True)


def is_edge_min_k_edge_connected(g: Graph | MultiGraph, k: int,
                                 conn: _Connectivity | None = None) -> PredicateResult:
    """k-edge-connected, and deleting any single edge copy destroys that."""
    _check_pre(g, k)
    conn = conn or _Connectivity(g)
    if not conn.edge_connected(k):
        return PredicateResult(False, f"not {k}-edge-connected")
    multi = isinstance(g, MultiGraph)
    # Parallel copies are interchangeable, so one check per class.
    classes = g.edge_classes() if multi else g.edges()
    if conn.edge_connected(k + 1):
        e = classes[0]
        return PredicateResult(False, f"{k + 1}-edge-connected, so deleting edge {e} keeps {k}-edge-connectivity", e)
    deleting = "deleting one copy of edge" if multi else "deleting edge"
    net = conn.edge[0]
    essential: set[Edge] = set()
    for e in classes:
        if e in essential:
            continue
        u, v = e
        if _restored_flow(conn.edge, u, v, k + 1) > k:
            return PredicateResult(False, f"{deleting} {e} keeps {k}-edge-connectivity", e)
        side = net.residual_reachable(u)
        essential.update(f for f in classes if (f[0] in side) != (f[1] in side))
    return PredicateResult(True)


def is_vertex_min_k_edge_connected(g: Graph | MultiGraph, k: int,
                                   conn: _Connectivity | None = None) -> PredicateResult:
    """k-edge-connected, and deleting any single vertex destroys that.

    No shortcut here: unlike edge deletion, removing a vertex can lower
    edge connectivity by more than one, so every vertex is tried.
    """
    _check_pre(g, k)
    if k == 1:
        return PredicateResult(False, _K1_EMPTY)
    conn = conn or _Connectivity(g)
    if not conn.edge_connected(k):
        return PredicateResult(False, f"not {k}-edge-connected")
    for v in range(g.n):
        if conn.edge_connected(k, removed=v):
            return PredicateResult(False, f"deleting vertex {v} keeps {k}-edge-connectivity", v)
    return PredicateResult(True)


_PREDICATES = {
    MinimalityClass.EDGE_MIN_CONN: is_edge_min_k_connected,
    MinimalityClass.VERTEX_MIN_CONN: is_vertex_min_k_connected,
    MinimalityClass.EDGE_MIN_EDGE_CONN: is_edge_min_k_edge_connected,
    MinimalityClass.VERTEX_MIN_EDGE_CONN: is_vertex_min_k_edge_connected,
}


def check_class(g: Graph | MultiGraph, cls: MinimalityClass, k: int) -> PredicateResult:
    """Run a single class predicate.

    Multigraphs only support the two edge-connectivity classes; for the
    vertex-connectivity classes parallel edges are irrelevant, so callers
    should ask about the underlying simple graph explicitly.
    """
    if isinstance(g, MultiGraph) and not cls.uses_edge_connectivity:
        raise InvalidParams(
            f"class {cls.value} is about vertex connectivity; "
            "pass the skeleton of the multigraph instead"
        )
    return _PREDICATES[cls](g, k)


@dataclass
class ClassificationReport:
    """All class predicates for one graph at one k.

    For multigraphs only the two edge-connectivity classes are present.
    """

    graph_id: str
    k: int
    results: dict[MinimalityClass, PredicateResult]

    def holds(self, cls: MinimalityClass) -> bool:
        return self.results[cls].holds

    def member_classes(self) -> list[MinimalityClass]:
        return [cls for cls, r in self.results.items() if r.holds]

    def to_json_obj(self):
        return {
            "graph": self.graph_id,
            "k": self.k,
            "classes": {
                cls.flag_name(self.k): r.to_json_obj() for cls, r in self.results.items()
            },
        }


def classify(g: Graph | MultiGraph, k: int) -> ClassificationReport:
    """Evaluate every applicable class predicate for g at k, all on one
    connectivity record."""
    if isinstance(g, MultiGraph):
        wanted = [MinimalityClass.EDGE_MIN_EDGE_CONN, MinimalityClass.VERTEX_MIN_EDGE_CONN]
    else:
        wanted = list(MinimalityClass)
    conn = _Connectivity(g)
    results = {cls: _PREDICATES[cls](g, k, conn) for cls in wanted}
    return ClassificationReport(graph_id(g), k, results)
