"""Independent oracles that the test suite holds the package's routines to,
and the helpers only tests need."""

from itertools import combinations, product

from minconn.connectivity import min_edge_cut, min_vertex_separator
from minconn.errors import TooLarge, TooSmall
from minconn.flow import INF, FlowNetwork
from minconn.graphs import (
    Graph,
    MultiGraph,
    cartesian_product,
    complete_graph,
    components_of_subset,
    path_graph,
)


def ladder_graph(m: int) -> Graph:
    """P_m box K^2 -- the ladder with m rungs."""
    return cartesian_product(path_graph(m), complete_graph(2))


def product_graph(g: Graph, h: Graph, strong: bool) -> Graph:
    """The cartesian or strong product from the definition, pair by pair:
    (a,c)~(b,d) iff (a=b and c~d) or (a~b and c=d), or in the strong
    product also a~b and c~d.  Vertex (a, c) is numbered a*|h| + c."""
    pairs = list(product(range(g.n), range(h.n)))
    return Graph(len(pairs), [
        (i, j)
        for (i, (a, c)), (j, (b, d)) in combinations(enumerate(pairs), 2)
        if (a == b and h.has_edge(c, d))
        or (g.has_edge(a, b) and (c == d or (strong and h.has_edge(c, d))))
    ])


def small_multigraphs():
    """Every multigraph on 2 to 4 vertices with multiplicity at most 3,
    isolated vertices and disconnected ones included: 4,164 graphs."""
    for n in range(2, 5):
        pairs = list(combinations(range(n), 2))
        for mults in product(range(4), repeat=len(pairs)):
            yield MultiGraph(n, [(u, v, m) for (u, v), m in zip(pairs, mults) if m])


def subdivide(mg: MultiGraph) -> tuple[Graph, dict]:
    """Subdivide every edge copy of a multigraph once, yielding a simple graph.

    Returns (graph, info) where info maps each new midpoint index to the
    (u, v, copy) edge it represents; indices 0..n-1 are the original
    vertices.
    """
    edges = []
    info = {}
    nxt = mg.n
    for (u, v), k in mg.mult.items():
        for c in range(k):
            info[nxt] = (u, v, c)
            edges.append((u, nxt))
            edges.append((nxt, v))
            nxt += 1
    return Graph(nxt, edges), info


def brute_force_connectivity(g) -> tuple[int, int]:
    """(kappa, lambda) by raw subset enumeration; guard at 12 vertices.

    This is the independent oracle for the flow route: vertex connectivity
    tries all deletion sets by size, edge connectivity scans all
    bipartitions.  Accepts MultiGraph for the lambda part (kappa is then
    computed on the skeleton, where parallel edges are irrelevant).
    """
    if g.n < 2:
        raise TooSmall("need at least 2 vertices")
    if g.n > 12:
        raise TooLarge("brute force capped at 12 vertices")
    simple = g.skeleton() if isinstance(g, MultiGraph) else g

    kappa = simple.n - 1
    found = False
    for size in range(simple.n - 1):
        for sub in combinations(range(simple.n), size):
            rest = set(range(simple.n)) - set(sub)
            if len(components_of_subset(simple, rest)) > 1:
                kappa = size
                found = True
                break
        if found:
            break

    if isinstance(g, MultiGraph):
        weight = dict(g.mult)
        ew = list(weight.items())
    else:
        ew = [(e, 1) for e in g.edges()]
    lam = sum(w for _, w in ew) + 1
    for mask in range(2 ** (g.n - 1)):
        side = {0} | {v + 1 for v in range(g.n - 1) if mask >> v & 1}
        if len(side) == g.n:
            continue
        crossing = sum(w for (u, v), w in ew if (u in side) != (v in side))
        lam = min(lam, crossing)
    return kappa, lam


def separator_containing_by_copy(g: Graph, x: int) -> tuple[int, ...] | None:
    """The vertices of `min_separator_containing(g, x)` by the copy route:
    a minimum separator of the copy G - x, mapped back through its
    old-index tuple, plus x."""
    h, old = g.delete_vertex(x)
    sub = min_vertex_separator(h)
    if sub is None:
        return None
    return tuple(sorted({x} | {old[v] for v in sub.vertices}))


def cut_without_by_copy(g, x: int):
    """(size, edges, sides) of the minimum cut of the copy G - x, mapped
    back to G's labels; G - x must be connected with two or more vertices."""
    h, old = g.delete_vertex(x)
    cut = min_edge_cut(h)
    edges = tuple((old[u], old[v]) for u, v in cut.edges)
    return cut.size, edges, tuple(frozenset(old[v] for v in side) for side in cut.sides)


def whole_graph_flow(g: Graph, a_side, b_side, mode: str) -> tuple[int, tuple]:
    """The A-B max flow on all of G, paths disjoint at their endpoints too,
    with its source-minimal dual: the separator's vertices (vertex mode)
    or the cut's edges (edge mode).  The reference for
    `max_disjoint_paths`, which solves on the live part only."""
    width = 2 if mode == "vertex" else 1
    src, snk = width * g.n, width * g.n + 1
    net = FlowNetwork(width * g.n + 2)
    for u, v in g.edges():
        if mode == "vertex":
            net.add_arc(2 * u + 1, 2 * v, INF)
            net.add_arc(2 * v + 1, 2 * u, INF)
        else:
            net.add_undirected(u, v, 1)
    if mode == "vertex":
        for v in range(g.n):
            net.add_arc(2 * v, 2 * v + 1, 1)
    for a in a_side:
        net.add_arc(src, width * a, INF)
    for b in b_side:
        net.add_arc(width * b + width - 1, snk, INF)
    value = net.max_flow(src, snk)
    reach = net.residual_reachable(src)
    if mode == "vertex":
        return value, tuple(v for v in range(g.n) if 2 * v in reach and 2 * v + 1 not in reach)
    return value, tuple(sorted((u, v) for u, v in g.edges() if (u in reach) != (v in reach)))


def oracle_separates(f, end, mode: str, certificate: tuple, radius: int,
                     base_tags: set) -> bool:
    """The r+2 recheck on a clique tree by a walk over tags, the reference
    for its heap-number walk: the direction's frontier (its descendants
    at full distance) seeds a search in the ball minus the certificate,
    reading a tag's distance as its length, and the search fails once it
    reaches a base tag."""
    blocked_v = set(certificate) if mode == "vertex" else set()
    blocked_e = {frozenset(e) for e in certificate} if mode == "edge" else set()
    below = radius - len(end.direction)
    frontier = {end.direction + p for p in product(range(f.r * f.k), repeat=below)} if below >= 0 else set()
    seen = frontier - blocked_v
    queue = list(seen)
    while queue:
        t = queue.pop()
        for nb in f.neighbors(t):
            if nb in seen or nb in blocked_v or len(nb) > radius:
                continue
            if frozenset((t, nb)) in blocked_e:
                continue
            if nb in base_tags:
                return False
            seen.add(nb)
            queue.append(nb)
    return True
