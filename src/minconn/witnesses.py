"""Constructive procedures locating the guaranteed small-degree vertices.

Each minimality class guarantees vertices of small degree: degree exactly
k for the edge-minimal classes and for vertex-minimal k-edge-connectivity,
degree at most floor(3k/2)-1 for vertex-minimal k-connectivity.  The
procedures here do not merely scan the degree sequence -- they reproduce
the arguments behind those guarantees as deterministic algorithms whose
intermediate objects (separators, cuts, regions, counting sets) come back
in a trace that can be checked step by step.

All procedures re-verify their preconditions unless told otherwise, and
raise PreconditionViolated naming the failed assumption; internal
assertion failures indicate implementation bugs, never bad inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .connectivity import (
    min_cut_containing_edge,
    min_edge_cut,
    min_separator_containing,
    min_vertex_separator,
)
from .errors import (
    ClassMismatch,
    NoSeparatorThroughVertex,
    PreconditionViolated,
)
from .graphs import (
    Edge,
    Graph,
    MixedSet,
    MultiGraph,
    Region,
    components_of_subset,
    delete_mixed,
    external_neighborhood,
    is_connected_subset,
    region_of,
    small_degree_set,
    vertex_boundary,
    _norm_edge,
)
from .minimality import MinimalityClass, check_class

EXACT_REGION_LIMIT = 12


def boundary_edge_count(g: Graph | MultiGraph, vertices) -> int:
    """Size of the edge boundary, counting multiplicities."""
    vs = set(vertices)
    if isinstance(g, MultiGraph):
        return sum(m for (u, v), m in g.mult.items() if (u in vs) != (v in vs))
    return sum(1 for v in vs for w in g.neighbors(v) if w not in vs)


def _edges_leaving(g: Graph | MultiGraph, inside, outside) -> frozenset[Edge]:
    ins, outs = set(inside), set(outside)
    out = set()
    for v in ins:
        for w in g.neighbors(v):
            if w in outs:
                out.add(_norm_edge(v, w))
    return frozenset(out)


def _edge_count_between(g: Graph | MultiGraph, left, right) -> int:
    """Number of edges with one end in each set, counting multiplicities."""
    ls, rs = set(left), set(right)
    if isinstance(g, MultiGraph):
        return sum(m for (u, v), m in g.mult.items() if (u in ls and v in rs) or (u in rs and v in ls))
    return sum(1 for v in ls for w in g.neighbors(v) if w in rs)


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
        return {
            "procedure": "crossing-separators",
            "k": self.k,
            "region": list(self.region),
            "shrink_trail": [list(t) for t in self.shrink_trail],
            "x": self.x,
            "boundary": list(self.boundary),
            "separator": list(self.separator),
            "overlap": list(self.overlap),
            "quadrants": {k: list(v) for k, v in self.quadrants.items()},
            "covers": {k: list(v) for k, v in self.covers.items()},
            "small_set_name": self.small_set_name,
            "small_set": list(self.small_set),
            "witness": self.witness,
            "degree": self.degree,
            "bound": self.bound,
            "witness_in_region": self.witness_in_region,
        }


def default_profound_region(g: Graph, k: int) -> Region | None:
    """A profound k-region built from a minimum separator; None if complete.

    Takes the first side of a minimum separator T together with T itself.
    Every vertex of a minimum separator has neighbors in every component,
    so the vertex boundary of the result is exactly T.
    """
    sep = min_vertex_separator(g)
    if sep is None:
        return None
    if sep.size != k:
        raise PreconditionViolated(
            f"graph has a separator of size {sep.size}, so it is not exactly {k}-connected"
        )
    return region_of(g, set(sep.sides[0]) | set(sep.vertices))


def crossing_separators_witness(g: Graph, region: Region, k: int,
                                verify: bool = True) -> CrossingSeparatorsTrace:
    """Locate a vertex of degree <= floor(3k/2)-1 in a vertex-minimally
    k-connected graph, starting from a profound k-region.

    The region is first shrunk to an inclusion-minimal profound k-region;
    shrinking happens lazily -- whenever the argument detects a smaller
    profound k-region inside (a cover of size <= k with a non-empty
    quadrant behind it), it restarts there.  When the outside of the
    region is larger than its interior, the witness is guaranteed to lie
    inside the region.
    """
    if verify:
        res = check_class(g, MinimalityClass.VERTEX_MIN_CONN, k)
        if not res:
            raise PreconditionViolated(f"not vertex-minimally {k}-connected: {res.reason}")
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

        sep = min_separator_containing(g, x)
        if sep is None:
            raise NoSeparatorThroughVertex(
                f"no separator contains vertex {x}; the graph is not vertex-minimal"
            )
        if sep.size != k:
            raise NoSeparatorThroughVertex(
                f"the smallest separator through vertex {x} has size {sep.size}, not {k}"
            )
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


def small_component_witness(g: Graph, s: MixedSet, component, k: int) -> int:
    """A vertex of degree <= k inside a small component of G minus a mixed set.

    Preconditions: |S| <= k and the component has at most |S_E| vertices.
    If every component vertex had degree >= k+1, each would send at least
    k+1-|S_V|-(|C|-1) edges into the deleted edge set, forcing
    |C|(k+1-|S_V|-(|C|-1)) <= |S_E| <= k-|S_V|, which is arithmetically
    impossible; so a low-degree vertex must exist and its absence is an
    implementation bug, not an input error.
    """
    if len(s) > k:
        raise PreconditionViolated(f"the mixed set has {len(s)} elements, more than k={k}")
    comp = frozenset(component)
    if not comp:
        raise PreconditionViolated("component must be non-empty")
    if comp & s.vertices:
        raise PreconditionViolated("component overlaps the deleted vertices")

    h, keep = delete_mixed(g, s)
    pos = {o: i for i, o in enumerate(keep)}
    comp_new = frozenset(pos[v] for v in comp)
    if comp_new not in components_of_subset(h, range(h.n)):
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

    def to_json_obj(self):
        return {
            "procedure": "minimal-region",
            "vertices": sorted(self.region.vertices),
            "edge_boundary": sorted(self.region.edge_cut),
            "verified_minimal": self.verified_minimal,
        }


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
        best: tuple[int, int, tuple[int, ...]] | None = None
        for v in sorted(H):
            for comp in components_of_subset(g, H - {v}):
                b = boundary_edge_count(g, comp)
                if b < m:
                    cand = (b, len(comp), tuple(sorted(comp)))
                    if best is None or cand < best:
                        best = cand
        if best is not None:
            H = set(best[2])
            continue
        # Local pair check: single deletions are exhausted, so only pairs
        # of boundary vertices can still reveal a smaller region.
        bverts = sorted(vertex_boundary(g, H))
        found = None
        for pair in combinations(bverts, 2):
            for comp in components_of_subset(g, H - set(pair)):
                b = boundary_edge_count(g, comp)
                if b < m:
                    cand = (b, len(comp), tuple(sorted(comp)))
                    if found is None or cand < found:
                        found = cand
        if found is None:
            return MinimalRegionResult(region_of(g, H), "local")
        H = set(found[2])


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

    def to_json_obj(self):
        return {
            "edge": list(self.edge),
            "cut": [list(e) for e in self.cut],
            "descended_to": list(self.descended_to),
        }


@dataclass
class EdgeMinSideTrace:
    side: tuple[int, ...]
    search_flag: str
    region: tuple[int, ...]
    steps: list[DescentStep]
    witness: int
    degree: int

    def to_json_obj(self):
        return {
            "side": list(self.side),
            "search": self.search_flag,
            "region": list(self.region),
            "steps": [s.to_json_obj() for s in self.steps],
            "witness": self.witness,
            "degree": self.degree,
        }


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
        return {
            "procedure": "cut-splitting",
            "k": self.k,
            "cut": [list(e) for e in self.cut],
            "first": self.first.to_json_obj(),
            "second": self.second.to_json_obj(),
            "witnesses": list(self.witnesses),
        }


def _first_inner_edge(g, H: set[int]) -> Edge | None:
    for u in sorted(H):
        for w in sorted(g.neighbors(u)):
            if w > u and w in H:
                return (u, w)
    return None


def _descend_to_degree_k_vertex(g: Graph | MultiGraph, side, k: int) -> EdgeMinSideTrace:
    """Shrink one min-cut side to a single degree-k vertex.

    First an inclusion-minimal region with edge boundary <= k is searched;
    if it still has an inner edge (possible only when the search was
    heuristic), the cut-splitting argument strictly shrinks it: a k-cut
    through the inner edge splits the region into two non-empty parts, and
    a counting of the four boundary pieces always exposes a strictly
    smaller region with edge boundary <= k.
    """
    start = region_of(g, side)
    res = minimal_region_small_edge_boundary(g, start, k + 1)
    H = set(res.region.vertices)
    steps: list[DescentStep] = []

    while True:
        e = _first_inner_edge(g, H)
        if e is None:
            break
        cut = min_cut_containing_edge(g, e)
        if cut.size != k:
            raise PreconditionViolated(
                f"the smallest cut through edge {e} has {cut.size} edges, not {k}; "
                "the graph is not edge-minimal"
            )
        A = set(cut.sides[0]) if e[0] in cut.sides[0] else set(cut.sides[1])
        B = set(range(g.n)) - A
        A_H, B_H = A & H, B & H
        assert A_H and B_H, "an inner cut edge splits the region"

        if boundary_edge_count(g, A_H) <= k:
            comps = components_of_subset(g, A_H)
            assert len(comps) == 1, "a boundary <= k admits only one component"
            new_H = set(comps[0])
        elif boundary_edge_count(g, B_H) <= k:
            comps = components_of_subset(g, B_H)
            assert len(comps) == 1
            new_H = set(comps[0])
        elif A <= H:
            new_H = A
        elif B <= H:
            comps = components_of_subset(g, B)
            assert len(comps) == 1
            new_H = B
        else:
            raise PreconditionViolated(
                "cut splitting failed; the graph is not edge-minimally "
                f"{k}-edge-connected"
            )
        assert new_H < H, "descent must make strict progress"
        steps.append(DescentStep(e, cut.edges, tuple(sorted(new_H))))
        H = new_H

    (witness,) = H
    deg = g.degree(witness)
    assert deg == k, "a single-vertex region with boundary <= k has degree exactly k"
    return EdgeMinSideTrace(
        side=tuple(sorted(side)),
        search_flag=res.verified_minimal,
        region=tuple(sorted(res.region.vertices)),
        steps=steps,
        witness=witness,
        degree=deg,
    )


def edge_min_witness_pair(g: Graph | MultiGraph, k: int,
                          verify: bool = True) -> EdgeMinWitnessTrace:
    """Two distinct degree-k vertices of an edge-minimally k-edge-connected
    graph, found on the two sides of a minimum cut."""
    if verify:
        res = check_class(g, MinimalityClass.EDGE_MIN_EDGE_CONN, k)
        if not res:
            raise PreconditionViolated(f"not edge-minimally {k}-edge-connected: {res.reason}")
    cut = min_edge_cut(g)
    if cut.size != k:
        raise PreconditionViolated(f"minimum cut has {cut.size} edges, not {k}")
    sides = sorted(cut.sides, key=lambda s: tuple(sorted(s)))
    first = _descend_to_degree_k_vertex(g, sides[0], k)
    second = _descend_to_degree_k_vertex(g, sides[1], k)
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

    def to_json_obj(self):
        return {"y": self.y, "cut_size": self.cut_size, "descended_to": list(self.descended_to)}


@dataclass
class VertexMinEdgeSideTrace:
    start: tuple[int, ...]
    x: int
    steps: list[RegionStep]
    final_region: tuple[int, ...]
    final_x: int
    counting_set_vertices: tuple[int, ...]
    counting_set_edges: tuple[Edge, ...]
    witness: int
    degree: int

    def to_json_obj(self):
        return {
            "start": list(self.start),
            "x": self.x,
            "steps": [s.to_json_obj() for s in self.steps],
            "final_region": list(self.final_region),
            "final_x": self.final_x,
            "counting_set": {
                "vertices": list(self.counting_set_vertices),
                "edges": [list(e) for e in self.counting_set_edges],
            },
            "witness": self.witness,
            "degree": self.degree,
        }


@dataclass
class VertexMinEdgeWitnessTrace:
    k: int
    first: VertexMinEdgeSideTrace
    second: VertexMinEdgeSideTrace

    @property
    def witnesses(self) -> tuple[int, int]:
        return (self.first.witness, self.second.witness)

    def to_json_obj(self):
        return {
            "procedure": "region-descent",
            "k": self.k,
            "first": self.first.to_json_obj(),
            "second": self.second.to_json_obj(),
            "witnesses": list(self.witnesses),
        }


def _one_vertex_cut_sides(g, x: int) -> tuple[int, list[set[int]]]:
    """Minimum cut value of G - x and its sides, in original labels.

    When G - x is disconnected the value is 0 and every component is a
    side; otherwise the two sides of a minimum cut.
    """
    h, old = g.delete_vertex(x)
    skel = h.skeleton() if isinstance(h, MultiGraph) else h
    if not skel.is_connected():
        comps = components_of_subset(skel, range(skel.n))
        return 0, [{old[v] for v in comp} for comp in comps]
    cut = min_edge_cut(h)
    return cut.size, [{old[v] for v in side} for side in cut.sides]


def _descend_region(g: Graph, k: int, C: set[int], x: int) -> VertexMinEdgeSideTrace:
    """Shrink a candidate region (C, x) until the counting argument applies.

    Invariant: the edges leaving C - x within G - x form a minimum cut of
    G - x, of size below k.  If some vertex y of C - x has all its
    neighbors inside C, a minimum cut of G - y yields a strictly smaller
    candidate; otherwise every vertex of C - x sends an edge out, the
    counting argument applies, and a degree-k vertex falls out.
    """
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
            cut_edges = _edges_leaving(g, C - {x}, D)
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
                counting_set_vertices=tuple(sorted(s.vertices)),
                counting_set_edges=tuple(sorted(s.edges)),
                witness=witness,
                degree=deg,
            )

        y = confined[0]
        lam_y, sides = _one_vertex_cut_sides(g, y)
        if lam_y >= k:
            raise PreconditionViolated(
                f"removing vertex {y} keeps {k}-edge-connectivity; "
                "the graph is not vertex-minimal"
            )
        A = next(side for side in sides if x in side)
        B = (everything - {y}) - A
        BC = B & C
        assert BC, "y has neighbors on the far side of its cut, all inside C"

        inner_boundary = _edge_count_between(g, BC, everything - {y} - BC)
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


def vertex_min_edge_witness_pair(g: Graph, k: int,
                                 verify: bool = True) -> VertexMinEdgeWitnessTrace:
    """Two distinct degree-k vertices of a vertex-minimally k-edge-connected
    graph.

    The first candidate region is the smallest one-vertex-deleted cut side
    (plus its vertex); the second run starts from the complement of the
    first result, which keeps the two witnesses apart.
    """
    if verify:
        res = check_class(g, MinimalityClass.VERTEX_MIN_EDGE_CONN, k)
        if not res:
            raise PreconditionViolated(f"not vertex-minimally {k}-edge-connected: {res.reason}")

    candidates: list[tuple[int, tuple[int, ...], int]] = []
    for x in range(g.n):
        lam_x, sides = _one_vertex_cut_sides(g, x)
        if lam_x >= k:
            raise PreconditionViolated(
                f"removing vertex {x} keeps edge connectivity {lam_x} >= {k}; "
                "the graph is not vertex-minimal"
            )
        for side in sides:
            candidates.append((len(side) + 1, tuple(sorted(side | {x})), x))
    size, verts, x = min(candidates)
    first = _descend_region(g, k, set(verts), x)

    complement = set(range(g.n)) - (set(first.final_region) - {first.final_x})
    second = _descend_region(g, k, complement, first.final_x)
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
    """How many vertices of small degree the class guarantees."""
    if cls is MinimalityClass.EDGE_MIN_CONN:
        if k == 1:
            return 2
        frac = ((k - 1) * g.n + (2 * k - 2)) // (2 * k - 1)  # ceil((k-1)n / (2k-1))
        return max(frac, k + 1, max(g.degrees()))
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


def witness_report(g: Graph | MultiGraph, cls: MinimalityClass, k: int,
                   verify: bool = True) -> WitnessReport:
    """Count the vertices within the class degree bound and compare with
    the guaranteed count.  The ratio field reports |V_bound| / n --
    informative for the edge-minimal edge-connectivity class, where no
    exact constant is asserted."""
    if verify:
        res = check_class(g, cls, k)
        if not res:
            raise ClassMismatch(
                f"graph is not in class {cls.value} for k={k}: {res.reason}"
            )
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
