"""Membership predicates for the four minimality classes.

A graph is *edge-minimally k-connected* when it is k-connected but no
proper spanning subgraph is, i.e. deleting any single edge destroys
k-connectivity; *vertex-minimally k-connected* when deleting any single
vertex does; and analogously for k-edge-connectivity, where parallel
edges are allowed and a deletion removes one edge copy.

Predicates work by literal exhaustive deletion with one cutoff
connectivity check per deleted element.  At the scale this package
targets that is affordable, and the deletion loops are the obvious seam
if an incremental variant is ever needed.  Two shortcuts are purely
elementary: deleting an edge lowers either connectivity by at most one,
and deleting a vertex lowers vertex connectivity by at most one, so a
graph that stays k-connected beyond k cannot be minimal and any single
element certifies that.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .connectivity import is_k_connected, is_k_edge_connected
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


def is_edge_min_k_connected(g: Graph, k: int) -> PredicateResult:
    """k-connected, and deleting any single edge destroys that."""
    _check_pre(g, k)
    if not is_k_connected(g, k):
        return PredicateResult(False, f"not {k}-connected")
    if is_k_connected(g, k + 1):
        e = g.edges()[0]
        return PredicateResult(False, f"{k + 1}-connected, so deleting edge {e} keeps {k}-connectivity", e)
    for e in g.edges():
        if is_k_connected(g.delete_edge(*e), k):
            return PredicateResult(False, f"deleting edge {e} keeps {k}-connectivity", e)
    return PredicateResult(True)


def is_vertex_min_k_connected(g: Graph, k: int) -> PredicateResult:
    """k-connected, and deleting any single vertex destroys that."""
    _check_pre(g, k)
    if k == 1:
        return PredicateResult(False, _K1_EMPTY)
    if not is_k_connected(g, k):
        return PredicateResult(False, f"not {k}-connected")
    if is_k_connected(g, k + 1):
        return PredicateResult(False, f"{k + 1}-connected, so deleting vertex 0 keeps {k}-connectivity", 0)
    for v in range(g.n):
        h, _ = g.delete_vertex(v)
        if is_k_connected(h, k):
            return PredicateResult(False, f"deleting vertex {v} keeps {k}-connectivity", v)
    return PredicateResult(True)


def is_edge_min_k_edge_connected(g: Graph | MultiGraph, k: int) -> PredicateResult:
    """k-edge-connected, and deleting any single edge copy destroys that."""
    _check_pre(g, k)
    if not is_k_edge_connected(g, k):
        return PredicateResult(False, f"not {k}-edge-connected")
    if is_k_edge_connected(g, k + 1):
        e = (g.edge_classes() if isinstance(g, MultiGraph) else g.edges())[0]
        return PredicateResult(False, f"{k + 1}-edge-connected, so deleting edge {e} keeps {k}-edge-connectivity", e)
    if isinstance(g, MultiGraph):
        # Parallel copies are interchangeable, so one check per class.
        for e in g.edge_classes():
            if is_k_edge_connected(g.delete_one_edge(*e), k):
                return PredicateResult(False, f"deleting one copy of edge {e} keeps {k}-edge-connectivity", e)
    else:
        for e in g.edges():
            if is_k_edge_connected(g.delete_edge(*e), k):
                return PredicateResult(False, f"deleting edge {e} keeps {k}-edge-connectivity", e)
    return PredicateResult(True)


def is_vertex_min_k_edge_connected(g: Graph | MultiGraph, k: int) -> PredicateResult:
    """k-edge-connected, and deleting any single vertex destroys that.

    No shortcut here: unlike edge deletion, removing a vertex can lower
    edge connectivity by more than one, so every vertex is tried.
    """
    _check_pre(g, k)
    if k == 1:
        return PredicateResult(False, _K1_EMPTY)
    if not is_k_edge_connected(g, k):
        return PredicateResult(False, f"not {k}-edge-connected")
    for v in range(g.n):
        h, _ = g.delete_vertex(v)
        if is_k_edge_connected(h, k):
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
    """Evaluate every applicable class predicate for g at k."""
    if isinstance(g, MultiGraph):
        wanted = [MinimalityClass.EDGE_MIN_EDGE_CONN, MinimalityClass.VERTEX_MIN_EDGE_CONN]
    else:
        wanted = list(MinimalityClass)
    results = {cls: _PREDICATES[cls](g, k) for cls in wanted}
    return ClassificationReport(graph_id(g), k, results)
