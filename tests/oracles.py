"""Independent oracles that the test suite holds the package's routines to,
the paper's claims about the infinite families (`FAMILY_CLAIMS`), and the
helpers only tests need."""

import random
from bisect import bisect_right
from collections import deque
from fractions import Fraction
from itertools import combinations, product
from math import factorial, gcd
from typing import Callable, NamedTuple

from minconn.connectivity import Connectivity, min_edge_cut, min_vertex_separator
from minconn.constructions import band_graph
from minconn.enumeration import refinement_classes
from minconn.errors import TooLarge, TooSmall
from minconn.families import (FAMILY_KINDS, CertifyReport, EdgeCutCertificate, _blocks_containing, ball,
                              end_degree_estimate)
from minconn.flow import INF, FlowNetwork
from minconn.graphs import (
    Graph,
    MultiGraph,
    cartesian_product,
    complete_graph,
    components_of_subset,
    cycle_graph,
    path_graph,
)
from minconn.minimality import MinimalityClass
from minconn.witnesses import degree_bound


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


def local_vertex_connectivity(g: Graph, s: int, t: int) -> int:
    """The fewest vertices other than s and t whose deletion leaves no s-t
    path, by subset enumeration; s and t must be distinct and non-adjacent.
    By Menger's theorem, the most internally disjoint s-t paths."""
    assert s != t and not g.has_edge(s, t)
    others = [v for v in range(g.n) if v not in (s, t)]
    for size in range(len(others) + 1):
        for sub in combinations(others, size):
            rest = set(range(g.n)) - set(sub)
            if not any(s in c and t in c for c in components_of_subset(g, rest)):
                return size
    raise AssertionError("deleting every other vertex separates s from t")


def local_edge_connectivity(g, s: int, t: int) -> int:
    """The fewest edge copies whose deletion leaves no s-t path: the least
    multiplicity crossing any vertex set that holds s but not t, by subset
    enumeration.  By Menger's theorem, the most edge-disjoint s-t paths."""
    assert s != t
    others = [v for v in range(g.n) if v not in (s, t)]
    best = None
    for mask in range(2 ** len(others)):
        side = {s} | {v for i, v in enumerate(others) if mask >> i & 1}
        crossing = sum(g.multiplicity(u, v) for u, v in g.edges() if (u in side) != (v in side))
        best = crossing if best is None else min(best, crossing)
    return best


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


def relabelled(g: Graph | MultiGraph, seed) -> Graph | MultiGraph:
    """G with its vertices renamed by a permutation shuffled from `seed`."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    if isinstance(g, MultiGraph):
        return MultiGraph(g.n, [(perm[u], perm[v], m) for (u, v), m in g.mult.items()])
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def class_d_bands() -> list[tuple[int, Graph]]:
    """(k, graph): band_graph(k, l) for k = 3, 4, 5 and l = 2..10, each
    under four seeded relabellings -- class-d members at k of 6 to 82
    vertices."""
    return [(k, relabelled(band_graph(k, l).graph, f"band/{k}/{l}/{i}"))
            for k in (3, 4, 5) for l in range(2, 11) for i in range(4)]


def class_d_rings() -> list[tuple[int, Graph]]:
    """(k, graph): the cycles C_3..C_29 and the ladders with 2..12 rungs at
    k = 2, as built and under two seeded relabellings."""
    rings = [cycle_graph(n) for n in range(3, 30)] + [ladder_graph(m) for m in range(2, 13)]
    return [(2, h) for i, g in enumerate(rings)
            for h in (g, relabelled(g, f"ring/{i}/0"), relabelled(g, f"ring/{i}/1"))]


def reference_least_vertex_drop(g, H, m: int):
    """The least (edge boundary, size, sorted vertices) over the components
    of H - v, for every v in H, whose edge boundary counted with
    multiplicity is below m; None when there is none.  One component
    search and one boundary count per v: the reference for the region
    descent's one-search step `witnesses._least_vertex_drop`."""
    def boundary(comp):
        return sum(g.multiplicity(u, w) for u in comp for w in g.neighbors(u) if w not in comp)

    return min(((b, len(comp), tuple(sorted(comp)))
                for v in sorted(H) for comp in components_of_subset(g, set(H) - {v})
                if (b := boundary(comp)) < m), default=None)


def reference_class_d_start(g: Graph, k: int) -> tuple[tuple[int, ...], int]:
    """Class d's start region and vertex by scanning every x: the least
    (len(side) + 1, sorted(side + x), x) over the sides of the minimum cut
    of each G - x, asked on a fresh record.  The reference for the
    branch-and-bound scan of `vertex_min_edge_witness_pair`."""
    conn = Connectivity(g)
    _, verts, x = min((len(side) + 1, tuple(sorted(side | {x})), x)
                         for x in range(g.n) for side in conn.cut_without(x).sides)
    return verts, x


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


def reference_certify_blocks(f, b, radius: int, pad: int, k: int):
    """`families._certify_ball` with a fresh network per inner edge, the
    reference for the record per block: per edge of ball(radius), in index
    order, its block's arcs with capacity 1, or k + 1 on the rim, and one
    u-v flow with limit k + 1."""
    n_inner, n_rim = bisect_right(b.dist, radius), bisect_right(b.dist, radius + pad)
    block_of, kept = _blocks_containing(b.rows, n_inner)
    inner = [(u, v) for u in range(n_inner) for v in b.rows[u] if u < v < n_inner]
    tag = b.tags.__getitem__
    entries = []
    certified = 0
    for u, v in inner:
        arcs = kept[block_of[u, v]]
        loc = {x: i for i, x in enumerate(sorted({x for e in arcs for x in e}))}
        net = FlowNetwork(len(loc))
        for a, bb in arcs:
            net.add_undirected(loc[a], loc[bb], 1 if bb < n_rim else k + 1)  # a < bb
        val = net.flow(loc[u], loc[v], k + 1)
        if val == k:
            reach = net.residual_reachable(loc[u])
            cut = [
                (a, bb) for a, bb in arcs if (loc[a] in reach) != (loc[bb] in reach)
            ]
            assert len(cut) == k, "a flow of value k pins the cut to k unit edges"
            assert all(bb < n_rim for _, bb in cut)
            entries.append(
                EdgeCutCertificate(
                    (tag(u), tag(v)),
                    "certified",
                    tuple((tag(a), tag(bb)) for a, bb in cut),
                )
            )
            certified += 1
        else:
            entries.append(EdgeCutCertificate((tag(u), tag(v)), "undecided", None))
    return CertifyReport(
        family=f.describe(),
        radius=radius,
        pad=pad,
        k=k,
        total=len(inner),
        certified=certified,
        entries=tuple(entries),
    )


def reference_canonical_key(g: Graph) -> tuple[int, int]:
    """The canonical key by keeping every tied prefix, the reference for
    `enumeration.canonical_key`, which merges equivalent ones: n! prefixes
    on K_n, so keep n small where every vertex is tied."""
    colors = refinement_classes(g)
    by_class: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_class.setdefault(c, []).append(v)
    slots: list[list[int]] = [by_class[c] for c in sorted(by_class)]

    prefixes: list[list[int]] = [[]]
    key = 0
    for cls in slots:
        for _ in cls:
            best_row = None
            extended: list[list[int]] = []
            for pre in prefixes:
                placed = set(pre)
                for v in cls:
                    if v in placed:
                        continue
                    row = 0
                    for i, u in enumerate(pre):
                        if g.has_edge(u, v):
                            row |= 1 << i
                    if best_row is None or row < best_row:
                        best_row = row
                        extended = [pre + [v]]
                    elif row == best_row:
                        extended.append(pre + [v])
            prefixes = extended
            key = (key << len(prefixes[0]) - 1) | best_row
    return (g.n, key)


def reference_bfs(net: FlowNetwork, s: int, t: int) -> dict[int, int]:
    """The residual search on a deque, the reference for
    `FlowNetwork._bfs`: maps each node reached to the arc that first
    reached it (s to -1), stopping once t is."""
    to, cap, adj = net.to, net.cap, net.adj
    via = {s: -1}
    q = deque([s])
    while q:
        for a in adj[q.popleft()]:
            v = to[a]
            if cap[a] > 0 and v not in via:
                via[v] = a
                if v == t:
                    return via
                q.append(v)
    return via


def reference_max_flow(net: FlowNetwork, s: int, t: int, limit: int = INF) -> int:
    """`FlowNetwork.max_flow` on `reference_bfs`, taking each bottleneck
    after the walk along its path."""
    to, cap = net.to, net.cap
    flow = 0
    while flow < limit:
        via = reference_bfs(net, s, t)
        if t not in via:
            break
        path = []
        v = t
        while v != s:
            a = via[v]
            path.append(a)
            v = to[a ^ 1]
        pushed = min(limit - flow, min(cap[a] for a in path))
        for a in path:
            cap[a] -= pushed
            cap[a ^ 1] += pushed
        flow += pushed
    return flow


def partitions(n: int, largest: int | None = None):
    """The partitions of n as nonincreasing lists of parts."""
    if n == 0:
        yield []
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - part, part):
            yield [part, *rest]


def graph_count(n: int) -> int:
    """The number of graphs on n vertices up to isomorphism, by Burnside's
    lemma over S_n acting on the vertex pairs.  A permutation whose cycles
    have lengths l_1, l_2, ... splits the pairs into sum floor(l_i / 2)
    cycles inside its own cycles and sum_{i<j} gcd(l_i, l_j) between two;
    a graph is fixed iff each pair cycle is all edges or all non-edges,
    and n! / prod(m^c_m c_m!) permutations share a cycle type with c_m
    cycles of length m."""
    total = Fraction(0)
    for lengths in partitions(n):
        cycles = sum(l // 2 for l in lengths) + sum(gcd(a, b) for a, b in combinations(lengths, 2))
        centralizer = 1
        for m in set(lengths):
            c = lengths.count(m)
            centralizer *= m**c * factorial(c)
        total += Fraction(2**cycles, centralizer)
    assert total.denominator == 1
    return int(total)


class Claims(NamedTuple):
    """The paper's claims about one infinite family: its real vertices'
    degrees, declared (class, k) pairs, and end degree by mode at every
    direction of `depth` or deeper (a tree's depth-1 directions are base
    vertices, cut around with their whole subtree); `real(tag)` is False
    for tags that stand for edges."""

    degrees: set[int]
    classes: list[tuple[MinimalityClass, int]]
    end_degree: dict[str, int]
    depth: int = 1
    real: Callable[[object], bool] = lambda tag: True


A, B, C, D = MinimalityClass  # classes a, b, c, d

# FAMILY_KINDS key -> the family's claims as a function of its parameters
FAMILY_CLAIMS = {
    "double-ray": lambda: Claims({2}, [(A, 1), (C, 1)], {"vertex": 1, "edge": 1}),
    "dr-square": lambda: Claims({4}, [(C, 3)], {"vertex": 2, "edge": 3}),
    "strong-dr": lambda k: Claims({3 * k - 1}, [(B, k)], {"vertex": k, "edge": k * k}),
    "cartesian-dr": lambda k: Claims({k + 1}, [(D, k)], {"vertex": k, "edge": k}),
    "strong-tree": lambda r, k: Claims({(r + 1) * k - 1}, [(B, k)], {"vertex": k, "edge": k * k},
                                       depth=2),
    "cartesian-tree": lambda r, k: Claims({r + k - 1}, [(D, k)], {"vertex": k, "edge": k}, depth=2),
    "clique-tree": lambda r, k: Claims({r * k, (r + 1) * k}, [(C, k)], {"vertex": 1, "edge": k},
                                       depth=2),
    "ray-bundle": lambda k, l: Claims({3 * k // 2 - 1, 3 * k // 2 + 1}, [(B, k)],
                                      {"vertex": l, "edge": l}),
    "multipath-inf": lambda k: Claims({2 * k}, [(C, k)], {"vertex": 1, "edge": k},
                                      real=lambda tag: tag[0] == "v"),
}


def family_claims(f) -> Claims:
    """The claims table's entry for family f, at f's parameters."""
    _, keys = FAMILY_KINDS[f.name]
    return FAMILY_CLAIMS[f.name](**{key: getattr(f, key) for key in keys})


def check_family_claims(f, radius: int) -> list[tuple[list, list[str]]]:
    """Assert family f's claims on ball(radius), counting "ends of small
    degree as well as vertices": the real vertices off the frontier show
    only the claimed degrees, and each declared (cls, k) has two witnesses
    -- those vertices within the class's degree bound, topped up with ends
    of claimed degree at most k (edge mode for the edge-deletion classes)
    whose estimate converges to that degree.  Returns each class's vertex
    tags and end labels."""
    claims = family_claims(f)
    b = ball(f, radius)
    inner = [i for i in range(b.frontier.start) if claims.real(b.tags[i])]
    assert {len(b.rows[i]) for i in inner} <= claims.degrees, f.describe()
    found = []
    for cls, k in claims.classes:
        tags = [b.tags[i] for i in inner if len(b.rows[i]) <= degree_bound(cls, k)]
        mode = "edge" if cls.deletes_edges else "vertex"
        value = claims.end_degree[mode]
        ends = f.ends(claims.depth)[:max(0, 2 - len(tags))] if value <= k else []
        for end in ends:
            est = end_degree_estimate(f, end, mode=mode)
            assert est.converged and est.value == value, (f.describe(), end.label, mode)
        assert len(tags) + len(ends) >= 2, (f.describe(), cls, k)
        found.append((tags, [end.label for end in ends]))
    return found
