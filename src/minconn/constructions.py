"""Extremal constructions that realise the degree bounds with equality.

Each builder returns the graph together with a label map, so witnesses
found later can be reported against the construction's own vertex names.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidParams
from .graphs import Graph, MultiGraph, complete_graph, cycle_graph, path_graph, square, strong_product


@dataclass(frozen=True)
class LabeledGraph:
    graph: Graph
    labels: dict[str, int] = field(default_factory=dict)

    def index_of(self, label: str) -> int:
        return self.labels[label]


def band_graph(k: int, length: int) -> LabeledGraph:
    """Chain of `length` cliques K^{2(k-1)} with two degree-k end vertices.

    Consecutive cliques are joined by a perfect matching on half their
    vertices: positions 0..k-2 of each copy match leftward, positions
    k-1..2k-3 match rightward.  A new vertex `a` is joined to the k-1
    still-unmatched vertices of the first copy, `b` symmetrically to the
    last copy, and the edge ab is added.  Every vertex except a and b has
    degree 2(k-1); a and b have degree k, which is the minimum possible
    in this class.
    """
    if k < 3:
        raise InvalidParams("band graphs need k >= 3")
    if length < 2:
        raise InvalidParams("band graphs need at least 2 clique copies")
    w = 2 * (k - 1)

    def idx(copy: int, j: int) -> int:  # copy is 1-based
        return (copy - 1) * w + j

    edges = []
    for copy in range(1, length + 1):
        for x in range(w):
            for y in range(x + 1, w):
                edges.append((idx(copy, x), idx(copy, y)))
    for copy in range(1, length):
        for t in range(k - 1):
            edges.append((idx(copy, k - 1 + t), idx(copy + 1, t)))
    a = w * length
    b = a + 1
    for t in range(k - 1):
        edges.append((a, idx(1, t)))
        edges.append((b, idx(length, k - 1 + t)))
    edges.append((a, b))

    labels = {"a": a, "b": b}
    for copy in range(1, length + 1):
        for j in range(w):
            labels[f"H{copy}:{j}"] = idx(copy, j)
    return LabeledGraph(Graph(w * length + 2, edges), labels)


def path_square_example(length: int) -> LabeledGraph:
    """Square of a path, rewired at both ends to pin |V_3| at exactly six.

    Start from the square of the path v1..v_length, add the edges v1v4 and
    v_{length-3}v_length, and remove v3v4 and v_{length-3}v_{length-2}.
    The result is edge-minimally 3-edge-connected and its only degree-3
    vertices are the three outermost on each side.
    """
    if length < 10:
        raise InvalidParams("need length >= 10 to keep the two ends independent")
    g = square(path_graph(length))
    edges = set(g.edges())
    n = length
    edges.add((0, 3))
    edges.add((n - 4, n - 1))
    edges.discard((2, 3))
    edges.discard((n - 4, n - 3))
    labels = {f"v{i + 1}": i for i in range(n)}
    return LabeledGraph(Graph(n, edges), labels)


def multipath(k: int, m: int) -> MultiGraph:
    """Path on m vertices with every edge k-fold: edge-minimally
    k-edge-connected with exactly two degree-k vertices (the ends)."""
    if k < 1 or m < 2:
        raise InvalidParams("multipath needs k >= 1 and m >= 2")
    return MultiGraph(m, [(i, i + 1, k) for i in range(m - 1)])


def cycle_clique_strong(k: int, length: int) -> Graph:
    """C_length boxtimes K^{k/2}: vertex-minimally k-connected and
    (3k/2-1)-regular, for even k and length >= 4."""
    if k % 2 or k < 4:
        raise InvalidParams("this construction needs even k >= 4")
    if length < 4:
        raise InvalidParams("need cycle length >= 4")
    return strong_product(cycle_graph(length), complete_graph(k // 2))

