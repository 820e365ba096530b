"""Constructive procedures locating the guaranteed small-degree vertices.

Each minimality class guarantees vertices of small degree: degree exactly
k for the edge-minimal classes and for vertex-minimal k-edge-connectivity,
degree at most floor(3k/2)-1 for vertex-minimal k-connectivity.  The
procedures here do not merely scan the degree sequence -- they reproduce
the arguments behind those guarantees as deterministic algorithms whose
intermediate objects (separators, cuts, regions, counting sets) come back
in a trace that can be checked step by step.

Every procedure checks that the graph is in its class, and raises
PreconditionViolated naming the failed assumption; internal assertion
failures indicate implementation bugs, never bad inputs.  The check asks
`check_class` on the procedure's connectivity record, so a caller that
has checked already and passes its record gets the kept verdict.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass
from itertools import combinations

from .connectivity import Connectivity
from .errors import (
    ClassMismatch,
    InvalidParams,
    NoSuchEdge,
    PreconditionViolated,
)
from .graphs import (
    Edge,
    Graph,
    MixedSet,
    MultiGraph,
    Region,
    components_of_subset,
    edge_boundary,
    external_neighborhood,
    is_connected_subset,
    reachable,
    region_of,
    small_degree_set,
    vertex_boundary,
)
from .minimality import MinimalityClass, check_class

EXACT_REGION_LIMIT = 12


def _require_member(g, cls: MinimalityClass, k: int, conn: Connectivity | None,
                    error: type[Exception] = PreconditionViolated) -> None:
    res = check_class(g, cls, k, conn)
    if not res:
        raise error(f"graph is not in class {cls.value} for k={k}: {res.reason}")


def boundary_edge_count(g: Graph | MultiGraph, vertices) -> int:
    """Size of the edge boundary, counting multiplicities."""
    vs = set(vertices)
    mult = g.multiplicity
    return sum(mult(v, w) for v in vs for w in g.neighbors(v) if w not in vs)


# ---------------------------------------------------------------------------
# vertex-minimally k-connected: the crossing-separators argument
# ---------------------------------------------------------------------------


@dataclass
class CrossingSeparatorsTrace:
    """Full record of one run of the crossing-separators argument.

    The graph is split twice: by the boundary T of the region H (into the
    region interior C1 and the outside C2) and by a minimum separator T'
    through a chosen interior vertex x (into D1 and D2).  The four
    quadrants C_i cap D_j each have their neighborhoods inside a cover set
    built from pieces of T and T'; counting the covers forces one of C1,
    C2, D1, D2 to be a small set X inside T cup T', every vertex of which
    has degree at most floor(3k/2)-1.
    """

    k: int
    region: tuple[int, ...]
    shrink_trail: tuple[tuple[int, ...], ...]
    x: int
    boundary: tuple[int, ...]
    separator: tuple[int, ...]
    overlap: tuple[int, ...]
    quadrants: dict[str, tuple[int, ...]]
    covers: dict[str, tuple[int, ...]]
    small_set_name: str
    small_set: tuple[int, ...]
    witness: int
    degree: int
    bound: int
    witness_in_region: bool

    def to_json_obj(self):
        return {"procedure": "crossing-separators", **asdict(self)}


def default_profound_region(g: Graph, k: int,
                            conn: Connectivity | None = None) -> Region | None:
    """A profound k-region built from a minimum separator; None if complete.

    Takes the first side of a minimum separator T, asked of the record
    `conn` of g if given, together with T itself.
    Every vertex of a minimum separator has neighbors in every component,
    so the vertex boundary of the result is exactly T.
    """
    sep = (conn or Connectivity(g)).min_separator()
    if sep is None:
        return None
    if sep.size != k:
        raise PreconditionViolated(
            f"graph has a separator of size {sep.size}, so it is not exactly {k}-connected"
        )
    return region_of(g, set(sep.sides[0]) | set(sep.vertices))


def crossing_separators_witness(g: Graph, region: Region, k: int, *,
                                conn: Connectivity | None = None) -> CrossingSeparatorsTrace:
    """Locate a vertex of degree <= floor(3k/2)-1 in a vertex-minimally
    k-connected graph, starting from a profound k-region.

    The region is first shrunk to an inclusion-minimal profound k-region;
    shrinking happens lazily -- whenever the argument detects a smaller
    profound k-region inside (a cover of size <= k with a non-empty
    quadrant behind it), it restarts there.  When the outside of the
    region is larger than its interior, the witness is guaranteed to lie
    inside the region.

    Every shrink step's separator through x is asked on one record of G,
    `conn` if given.
    """
    conn = conn or Connectivity(g)
    _require_member(g, MinimalityClass.VERTEX_MIN_CONN, k, conn)
    if len(region.boundary) != k:
        raise PreconditionViolated(
            f"need a k-region: boundary has {len(region.boundary)} vertices, not {k}"
        )
    if not region.profound:
        raise PreconditionViolated("region is not profound (no interior vertex)")

    everything = set(range(g.n))
    H = set(region.vertices)
    trail: list[tuple[int, ...]] = []

    while True:
        T = set(vertex_boundary(g, H))
        assert len(T) == k, "shrinking must preserve the boundary size"
        C = {1: H - T, 2: everything - H}
        assert C[1], "shrinking must preserve profundity"
        x = min(C[1])

        # G is k-connected and G - x is not, so kappa(G - x) = k - 1 >= 1
        # (class b is empty at k = 1) and x plus a minimum separator of
        # G - x has k vertices; unless G - x is complete, but then G is
        # K_{k+1}, which has no profound k-region.
        sep = conn.separator_containing(x)
        assert sep is not None and sep.size == k, "a member has a k-separator through x"
        Tp = set(sep.vertices)
        D = {1: set(sep.sides[0]), 2: set().union(*sep.sides[1:])}
        T_star = T & Tp

        quads = {(i, j): C[i] & D[j] for i in (1, 2) for j in (1, 2)}
        covers = {
            (i, j): (Tp & C[i]) | (T & D[j]) | T_star for i in (1, 2) for j in (1, 2)
        }
        for ij, a in quads.items():
            assert external_neighborhood(g, a) <= covers[ij], "quadrant cover violated"
        for j in (1, 2):
            assert len(covers[(1, j)]) + len(covers[(2, 3 - j)]) == 2 * k, (
                "cover sizes must pair up to |T| + |T'|"
            )

        # Lazy inclusion-minimality: a small cover with a non-empty quadrant
        # behind it exhibits a strictly smaller profound k-region inside H.
        shrunk = False
        for j in (1, 2):
            if len(covers[(1, j)]) <= k and quads[(1, j)]:
                comp = components_of_subset(g, quads[(1, j)])[0]
                smaller = set(comp) | set(external_neighborhood(g, comp))
                assert len(smaller) < len(H), "shrink must make strict progress"
                assert len(vertex_boundary(g, smaller)) == k
                assert smaller - set(vertex_boundary(g, smaller)), "shrink lost profundity"
                trail.append(tuple(sorted(H)))
                H = smaller
                shrunk = True
                break
        if shrunk:
            continue

        for ij, a in quads.items():
            if len(covers[ij]) < k and a:
                raise PreconditionViolated(
                    f"a separator of size {len(covers[ij])} < {k} exists; graph is not {k}-connected"
                )

        valid = {
            ij: len(covers[ij]) <= k and not quads[ij] for ij in quads
        }
        combos = [
            ("C1", (1, 1), (1, 2)),
            ("D1", (1, 1), (2, 1)),
            ("D2", (2, 2), (1, 2)),
            ("C2", (2, 2), (2, 1)),
        ]
        chosen = next(
            ((name, a, b) for name, a, b in combos if valid[a] and valid[b]), None
        )
        assert chosen is not None, "the cover dichotomy guarantees a valid pair"
        name, cell_a, cell_b = chosen
        X = {"C1": C[1], "C2": C[2], "D1": D[1], "D2": D[2]}[name]
        assert X and X <= T | Tp

        side_condition = len(C[2]) > len(C[1])
        if side_condition:
            assert name != "C2", "witness must lie in the region when its outside is larger"

        assert 2 * len(X) + len(T_star) <= k, "small-set inequality violated"
        bound = degree_bound(MinimalityClass.VERTEX_MIN_CONN, k)
        witness = min(X, key=lambda v: (g.degree(v), v))
        assert g.degree(witness) <= k + len(X) - 1 <= bound

        labels = {(1, 1): "C1D1", (1, 2): "C1D2", (2, 1): "C2D1", (2, 2): "C2D2"}
        return CrossingSeparatorsTrace(
            k=k,
            region=tuple(sorted(H)),
            shrink_trail=tuple(trail),
            x=x,
            boundary=tuple(sorted(T)),
            separator=tuple(sorted(Tp)),
            overlap=tuple(sorted(T_star)),
            quadrants={labels[ij]: tuple(sorted(a)) for ij, a in quads.items()},
            covers={labels[ij]: tuple(sorted(c)) for ij, c in covers.items()},
            small_set_name=name,
            small_set=tuple(sorted(X)),
            witness=witness,
            degree=g.degree(witness),
            bound=bound,
            witness_in_region=witness in H,
        )


# ---------------------------------------------------------------------------
# the counting argument: small component behind a mixed deletion set
# ---------------------------------------------------------------------------


def _simple_only(g) -> None:
    # Parallel edges void class d's counting argument: the doubled
    # triangle is vertex-minimally 3-edge-connected with every degree 4.
    if isinstance(g, MultiGraph):
        raise InvalidParams("the class-d counting argument holds for simple graphs only")


def small_component_witness(g: Graph, s: MixedSet, component, k: int) -> int:
    """A vertex of degree <= k inside a small component of G minus a mixed set.

    G is a simple graph.  Preconditions: |S| <= k, S's edges are edges of
    G, and the component has at most |S_E| vertices.  It is checked by one
    search of G that skips S's vertices and edges, with no copy of G.
    If every component vertex had degree >= k+1, each would send at least
    k+1-|S_V|-(|C|-1) edges into the deleted edge set, forcing
    |C|(k+1-|S_V|-(|C|-1)) <= |S_E| <= k-|S_V|, which is arithmetically
    impossible; so a low-degree vertex must exist and its absence is an
    implementation bug, not an input error.
    """
    _simple_only(g)
    if len(s) > k:
        raise PreconditionViolated(f"the mixed set has {len(s)} elements, more than k={k}")
    comp = frozenset(component)
    if not comp:
        raise PreconditionViolated("component must be non-empty")
    if comp & s.vertices:
        raise PreconditionViolated("component overlaps the deleted vertices")

    for u, v in s.edges:
        if not g.has_edge(u, v):
            raise NoSuchEdge(f"({u},{v})")
    row = lambda u: [w for w in g.neighbors(u) if (min(u, w), max(u, w)) not in s.edges]
    if reachable(row, [min(comp)], s.vertices) != comp:
        raise PreconditionViolated("the given set is not a component of G minus the mixed set")
    if len(comp) > len(s.edges):
        raise PreconditionViolated(
            f"component has {len(comp)} vertices, more than |S_E| = {len(s.edges)}"
        )

    c, sv, se = len(comp), len(s.vertices), len(s.edges)
    assert c * (k + 1 - sv - (c - 1)) > se, "counting inequality must be impossible"
    witness = min(comp, key=lambda v: (g.degree(v), v))
    assert g.degree(witness) <= k, "counting argument guarantees a low-degree vertex"
    return witness


# ---------------------------------------------------------------------------
# inclusion-minimal regions with a small edge boundary
# ---------------------------------------------------------------------------


@dataclass
class MinimalRegionResult:
    """An inclusion-minimal region with |edge boundary| < m.

    `verified_minimal` is "exact" when minimality was established by
    exhaustive search over all connected subsets, and "local" when the
    region came from greedy descent plus a bounded local check (host
    region too large for exhaustion).
    """

    region: Region
    verified_minimal: str


def minimal_region_small_edge_boundary(g: Graph | MultiGraph, region: Region,
                                       m: int) -> MinimalRegionResult:
    """Shrink a region to an inclusion-minimal one keeping |edge boundary| < m.

    Exhaustive (smallest-first, so inclusion-minimal) when the region has
    at most EXACT_REGION_LIMIT vertices.  Larger regions descend greedily
    -- components left by deleting one vertex, preferring the smallest
    boundary -- and finish with an exhaustive check over sub-regions
    reachable by deleting up to two boundary vertices.
    """
    D = set(region.vertices)
    if boundary_edge_count(g, D) >= m:
        raise PreconditionViolated(
            f"region must start below the bound: |edge boundary| >= {m}"
        )

    if len(D) <= EXACT_REGION_LIMIT:
        ordered = sorted(D)
        for size in range(1, len(D) + 1):
            for sub in combinations(ordered, size):
                if is_connected_subset(g, sub) and boundary_edge_count(g, sub) < m:
                    return MinimalRegionResult(region_of(g, sub), "exact")
        raise AssertionError("the region itself satisfies the bound")

    H = D
    while True:
        best = _least_vertex_drop(g, H, m)
        if best is None:
            # Local pair check: single deletions are exhausted, so only
            # pairs of boundary vertices can still reveal a smaller region.
            best = _least_sub_region(g, H, combinations(sorted(vertex_boundary(g, H)), 2), m)
            if best is None:
                return MinimalRegionResult(region_of(g, H), "local")
        H = set(best[2])


def _least_sub_region(g, H: set[int], drops, m: int):
    """The least (boundary, size, sorted vertices) over the components of
    H minus one of the vertex tuples `drops` whose edge boundary is below
    m; None when there is none."""
    return min(((b, len(comp), tuple(sorted(comp)))
                for drop in drops for comp in components_of_subset(g, H - set(drop))
                if (b := boundary_edge_count(g, comp)) < m), default=None)


def _least_vertex_drop(g, H: set[int], m: int):
    """`_least_sub_region` over the single drops (v,) for every v in H,
    from one depth-first search of G[H], which is connected.

    By Tarjan's lowpoints, the components of H - v are the subtrees of v's
    children c with low(c) >= disc(v) (every child of the root), and the
    rest of H - v if not empty.  Edge boundaries d count multiplicity;
    with out(u) u's edges leaving H, d(H - v) = d(H) + deg(v) - 2 out(v).
    Such a subtree's d is its sum of out plus its edges to v, and the
    rest has what is left of d(H - v): the components share no edge.
    """
    mult, order, disc, path = g.multiplicity, [], {}, []
    low, size, out, osum, up = ([0] * len(H) for _ in range(5))
    cuts = [[] for _ in H]  # cuts[p]: the children whose subtrees are components of H - order[p]

    def visit(u):
        i = disc[u] = len(order)
        order.append(u)
        path.append(i)
        size[i], low[i] = 1, i
        for a in g.neighbors(u):
            if a not in H:
                out[i] += mult(u, a)
            elif a in disc:  # found before u, so an ancestor: charge its child on the path
                low[i] = min(low[i], disc[a])
                up[path[bisect_right(path, disc[a])]] += mult(u, a)
        osum[i] = out[i]
        return iter(g.neighbors(u))

    stack = [visit(min(H))]
    while stack:
        w = next((w for w in stack[-1] if w in H and w not in disc), None)
        if w is not None:
            stack.append(visit(w))
            continue
        stack.pop()
        i = path.pop()
        if path:
            p = path[-1]
            low[p], size[p], osum[p] = min(low[p], low[i]), size[p] + size[i], osum[p] + osum[i]
            if low[i] >= p:
                cuts[p].append(i)
    assert len(order) == len(H), "G[H] is connected"

    found = []
    for v, cs in enumerate(cuts):
        ds = [osum[c] + up[c] for c in cs]  # each cut-off subtree's edges out of H and to v
        found += [(b, size[c], c) for b, c in zip(ds, cs)]
        found.append((osum[0] + g.degree(order[v]) - 2 * out[v] - sum(ds),
                      len(H) - 1 - sum(size[c] for c in cs), -1 - v))  # the rest of H - v
    found = [f for f in found if f[1] and f[0] < m]
    if not found:
        return None

    def members(c):  # a subtree's preorder slice, or for -1 - v the rest of H - v
        if c >= 0:
            return order[c:c + size[c]]
        return H - {order[-1 - c]}.union(*map(members, cuts[-1 - c]))

    b, s, _ = min(found)
    return b, s, min(tuple(sorted(members(c))) for b2, s2, c in found if (b2, s2) == (b, s))


# ---------------------------------------------------------------------------
# edge-minimally k-edge-connected: two degree-k vertices by cut splitting
# ---------------------------------------------------------------------------


@dataclass
class DescentStep:
    """One cut-splitting step: the edge probed, the k-cut through it, and
    the smaller region descended into."""

    edge: Edge
    cut: tuple[Edge, ...]
    descended_to: tuple[int, ...]


@dataclass
class EdgeMinSideTrace:
    side: tuple[int, ...]
    search: str
    region: tuple[int, ...]
    steps: list[DescentStep]
    witness: int
    degree: int


@dataclass
class EdgeMinWitnessTrace:
    """Two degree-k vertices of an edge-minimally k-edge-connected graph,
    one on each side of a minimum cut."""

    k: int
    cut: tuple[Edge, ...]
    first: EdgeMinSideTrace
    second: EdgeMinSideTrace

    @property
    def witnesses(self) -> tuple[int, int]:
        return (self.first.witness, self.second.witness)

    def to_json_obj(self):
        return {"procedure": "cut-splitting", **asdict(self), "witnesses": self.witnesses}


def _first_inner_edge(g, H: set[int]) -> Edge | None:
    for u in sorted(H):
        for w in sorted(g.neighbors(u)):
            if w > u and w in H:
                return (u, w)
    return None


def _descend_to_degree_k_vertex(conn: Connectivity, side, k: int) -> EdgeMinSideTrace:
    """Shrink one min-cut side to a single degree-k vertex.

    First an inclusion-minimal region with edge boundary <= k is searched;
    if it still has an inner edge (possible only when the search was
    heuristic), the cut-splitting argument strictly shrinks it.  A k-cut
    through an inner edge of the region H has sides A and B, each holding
    one end of the edge, so A∩H and B∩H are non-empty proper parts of H.
    Write d for the edge boundary, counted with multiplicity: d(H) <= k,
    and d(A) = k is G's edge-connectivity, which `edge_min_witness_pair`
    checks.  If B ⊄ H, then A∪H is a proper non-empty vertex set, so
    d(A∪H) >= k, and submodularity gives
    d(A∩H) <= d(A) + d(H) - d(A∪H) <= k.  If B ⊆ H, then B∩H = B and
    d(B) = d(A) = k.  So the region becomes the first of A∩H and B∩H
    with d <= k; one always exists.
    """
    g = conn.g
    start = region_of(g, side)
    res = minimal_region_small_edge_boundary(g, start, k + 1)
    H = set(res.region.vertices)
    steps: list[DescentStep] = []

    while True:
        e = _first_inner_edge(g, H)
        if e is None:
            break
        cut = conn.cut_containing_edge(e)
        assert cut.size == k, "in class c every edge lies in a k-cut"
        A = set(cut.sides[0]) if e[0] in cut.sides[0] else set(cut.sides[1])
        B = set(range(g.n)) - A
        A_H, B_H = A & H, B & H
        assert A_H and B_H, "an inner cut edge splits the region"

        new_H = next((P for P in (A_H, B_H) if boundary_edge_count(g, P) <= k), None)
        assert new_H is not None, "submodularity leaves A∩H or B∩H with boundary <= k"
        assert len(components_of_subset(g, new_H)) == 1, "a boundary <= k admits only one component"
        steps.append(DescentStep(e, cut.edges, tuple(sorted(new_H))))
        H = new_H

    (witness,) = H
    deg = g.degree(witness)
    assert deg == k, "a single-vertex region with boundary <= k has degree exactly k"
    return EdgeMinSideTrace(
        side=tuple(sorted(side)),
        search=res.verified_minimal,
        region=tuple(sorted(res.region.vertices)),
        steps=steps,
        witness=witness,
        degree=deg,
    )


def edge_min_witness_pair(g: Graph | MultiGraph, k: int, *,
                          conn: Connectivity | None = None) -> EdgeMinWitnessTrace:
    """Two distinct degree-k vertices of an edge-minimally k-edge-connected
    graph, found on the two sides of a minimum cut.  The minimum cut and
    every descent step's cut through an edge are asked on one record of G,
    `conn` if given.
    """
    conn = conn or Connectivity(g)
    _require_member(g, MinimalityClass.EDGE_MIN_EDGE_CONN, k, conn)
    cut = conn.min_cut()
    assert cut.size == k, "class c is exactly k-edge-connected"
    sides = sorted(cut.sides, key=lambda s: tuple(sorted(s)))
    first = _descend_to_degree_k_vertex(conn, sides[0], k)
    second = _descend_to_degree_k_vertex(conn, sides[1], k)
    assert first.witness != second.witness, "the two cut sides are disjoint"
    return EdgeMinWitnessTrace(k=k, cut=cut.edges, first=first, second=second)


# ---------------------------------------------------------------------------
# vertex-minimally k-edge-connected: two degree-k vertices by region descent
# ---------------------------------------------------------------------------


@dataclass
class RegionStep:
    """One descent step: the confined vertex y, the small cut of G-y, and
    the region descended into (with its new center vertex y)."""

    y: int
    cut_size: int
    descended_to: tuple[int, ...]


@dataclass
class VertexMinEdgeSideTrace:
    start: tuple[int, ...]
    x: int
    steps: list[RegionStep]
    final_region: tuple[int, ...]
    final_x: int
    counting_set: dict[str, tuple]  # "vertices" and "edges" of the mixed set
    witness: int
    degree: int


@dataclass
class VertexMinEdgeWitnessTrace:
    k: int
    first: VertexMinEdgeSideTrace
    second: VertexMinEdgeSideTrace

    @property
    def witnesses(self) -> tuple[int, int]:
        return (self.first.witness, self.second.witness)

    def to_json_obj(self):
        return {"procedure": "region-descent", **asdict(self), "witnesses": self.witnesses}


def _descend_region(conn: Connectivity, k: int, C: set[int], x: int) -> VertexMinEdgeSideTrace:
    """Shrink a candidate region (C, x) until the counting argument applies.

    Invariant: the edges leaving C - x within G - x form a minimum cut of
    G - x, of size below k.  If some vertex y of C - x has all its
    neighbors inside C, a minimum cut of G - y yields a strictly smaller
    candidate; otherwise every vertex of C - x sends an edge out, the
    counting argument applies, and a degree-k vertex falls out.
    """
    g = conn.g
    start = tuple(sorted(C))
    x0 = x
    steps: list[RegionStep] = []
    everything = set(range(g.n))

    while True:
        D = everything - C
        assert D, "a candidate region never covers the whole graph"
        confined = [y for y in sorted(C - {x}) if set(g.neighbors(y)) <= C]
        if not confined:
            # Every vertex of C - x sends an edge into D, so each component
            # of C - x is at most as large as its share of the cut edges.
            cut_edges = {e for e in edge_boundary(g, C - {x}) if x not in e}
            s = MixedSet.of([x], cut_edges)
            assert len(s) <= k, "the candidate invariant keeps the mixed set small"
            comp = components_of_subset(g, C - {x})[0]
            witness = small_component_witness(g, s, comp, k)
            deg = g.degree(witness)
            assert deg == k, "k-edge-connectivity pins the witness degree to k"
            return VertexMinEdgeSideTrace(
                start=start,
                x=x0,
                steps=steps,
                final_region=tuple(sorted(C)),
                final_x=x,
                counting_set={"vertices": tuple(sorted(s.vertices)),
                              "edges": tuple(sorted(s.edges))},
                witness=witness,
                degree=deg,
            )

        y = confined[0]
        cut = conn.cut_without(y)
        lam_y = cut.size
        assert lam_y < k, "in class d every G - y is below k-edge-connectivity"
        A = next(side for side in cut.sides if x in side)
        B = (everything - {y}) - A
        BC = B & C
        assert BC, "y has neighbors on the far side of its cut, all inside C"

        # the boundary of B∩C within G - y: every boundary edge but y's
        inner_boundary = boundary_edge_count(g, BC) - sum(g.multiplicity(y, w) for w in BC)
        assert inner_boundary >= lam_y, "a non-trivial set never beats the minimum cut"
        if inner_boundary == lam_y:
            # The boundary of B∩C inside G-y equals the minimum, so B∩C
            # is one piece and (B∩C) + y is a strictly smaller candidate.
            new_C = BC | {y}
        else:
            AD = A & D
            if AD:
                raise PreconditionViolated(
                    "descent failed: the far quadrant is non-empty, so the "
                    f"graph is not vertex-minimally {k}-edge-connected"
                )
            new_C = A | {y}
        assert new_C < C, "descent must make strict progress"
        steps.append(RegionStep(y, lam_y, tuple(sorted(new_C))))
        C, x = new_C, y


def vertex_min_edge_witness_pair(g: Graph, k: int, *,
                                 conn: Connectivity | None = None) -> VertexMinEdgeWitnessTrace:
    """Two distinct degree-k vertices of a vertex-minimally k-edge-connected
    graph.

    The first candidate region is the least `(len(side) + 1, sorted(side
    + x), x)` over the sides of the minimum cut of every G - x; the second
    run starts from the complement of the first result, which keeps the
    two witnesses apart.  Every cut of a G - x, in both runs, is asked on
    one record of G, `conn` if given.

    The least candidate is found by branch and bound, scanning few G - x.
    G is k-edge-connected, so each side of a cut of G - x below k holds a
    neighbour of x; G is simple, so a one-vertex side {w} has cut
    deg(w) - 1 < k, and deg(w) = k.  Hence every candidate has size >= 2,
    and a size-2 candidate of x is at least floor(x), the least
    (sorted((w, x)), x) over the degree-k neighbours w of x (above every
    floor when x has none).  The scan visits x by increasing floor(x) and
    stops once the best candidate has size 2 and floor(x) exceeds it: no
    later x can give a smaller one.
    Multigraphs are refused with InvalidParams: the counting step needs a
    simple graph.
    """
    _simple_only(g)
    conn = conn or Connectivity(g)
    _require_member(g, MinimalityClass.VERTEX_MIN_EDGE_CONN, k, conn)

    degs, top = g.degrees(), ((g.n, g.n), g.n)  # top: above every real floor

    def floor(x):
        return min((((min(w, x), max(w, x)), x) for w in g.neighbors(x) if degs[w] == k),
                   default=top)

    best = (g.n + 1,)  # above every candidate
    for x in sorted(range(g.n), key=floor):
        if best[0] == 2 and floor(x) > best[1:]:
            break
        cut = conn.cut_without(x)
        assert cut.size < k, "in class d every G - x is below k-edge-connectivity"
        best = min(best, *((len(side) + 1, tuple(sorted(side | {x})), x) for side in cut.sides))
    size, verts, x = best
    first = _descend_region(conn, k, set(verts), x)

    complement = set(range(g.n)) - (set(first.final_region) - {first.final_x})
    second = _descend_region(conn, k, complement, first.final_x)
    assert first.witness != second.witness, "the second region avoids the first witness"
    assert second.witness not in set(first.final_region) - {first.final_x}
    return VertexMinEdgeWitnessTrace(k=k, first=first, second=second)


# ---------------------------------------------------------------------------
# per-class witness counting reports
# ---------------------------------------------------------------------------


def degree_bound(cls: MinimalityClass, k: int) -> int:
    """The degree the class guarantees: floor(3k/2)-1 for vertex-minimal
    k-connectivity, k for the other three classes."""
    if cls is MinimalityClass.VERTEX_MIN_CONN:
        return (3 * k) // 2 - 1
    return k


def required_count(cls: MinimalityClass, k: int, g) -> int:
    """How many vertices of small degree the class guarantees.

    Class a (minimally k-connected) has at least max(m, k + 1, D) degree-k
    vertices, D the maximum degree: m = ceil(((k-1)n + 2k) / (2k-1)) and
    k + 1 by Mader ("Ecken vom Grad n in minimalen n-fach zusammenhaengenden
    Graphen", Arch. Math. 1972), at k = 2 the (n + 4)/3 of Dirac (1967) and
    Plummer ("On minimal blocks", Trans. AMS 1968); D as a tree's leaves at
    k = 1, and at k >= 2 only as checked over all graphs on up to 7 vertices.
    """
    if cls is MinimalityClass.EDGE_MIN_CONN:  # m's ceiling adds 2k - 2 before dividing
        return max(((k - 1) * g.n + 4 * k - 2) // (2 * k - 1), k + 1, max(g.degrees()))
    if cls is MinimalityClass.VERTEX_MIN_CONN:
        return 2
    simple = not isinstance(g, MultiGraph)
    if cls is MinimalityClass.EDGE_MIN_EDGE_CONN:
        # Parallel edges defeat the four-vertex bound at k=3: multiplying
        # the edges of a path by 3 leaves only the two endpoints of
        # degree 3.  Multigraphs keep the two-vertex guarantee.
        return 4 if k == 3 and simple else 2
    # The four-vertex bound for k=2 needs a simple graph on >= 4
    # vertices: the triangle and the doubled 2-cycle are vertex-minimally
    # 2-edge-connected with fewer small-degree vertices.
    return 4 if k == 2 and g.n >= 4 and simple else 2


@dataclass
class WitnessReport:
    """Small-degree vertices of a classified graph, against the guaranteed
    count for its class."""

    cls: MinimalityClass
    k: int
    n: int
    bound: int
    required: int
    witnesses: tuple[tuple[int, int], ...]  # (vertex, degree)
    satisfied: bool
    ratio: float
    min_degree: int

    def to_json_obj(self):
        return {
            "class": self.cls.value,
            "k": self.k,
            "n": self.n,
            "degree_bound": self.bound,
            "required_count": self.required,
            "witnesses": [list(w) for w in self.witnesses],
            "count": len(self.witnesses),
            "satisfied": self.satisfied,
            "ratio": self.ratio,
            "min_degree": self.min_degree,
        }


def witness_report(g: Graph | MultiGraph, cls: MinimalityClass, k: int, *,
                   conn: Connectivity | None = None) -> WitnessReport:
    """Count the vertices within the class degree bound and compare with
    the guaranteed count.  The ratio field reports |V_bound| / n --
    informative for the edge-minimal edge-connectivity class, where no
    exact constant is asserted.  Membership is checked, raising
    ClassMismatch, on the record `conn` of g if given."""
    _require_member(g, cls, k, conn, ClassMismatch)
    bound = degree_bound(cls, k)
    degs = g.degrees()
    vs = small_degree_set(g, bound)
    required = required_count(cls, k, g)
    return WitnessReport(
        cls=cls,
        k=k,
        n=g.n,
        bound=bound,
        required=required,
        witnesses=tuple((v, degs[v]) for v in vs),
        satisfied=len(vs) >= required,
        ratio=len(vs) / g.n,
        min_degree=min(degs),
    )
