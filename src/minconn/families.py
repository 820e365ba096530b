"""Infinite graph families with prescribed end degrees, truncated to balls.

Each family is an immutable description of a locally finite infinite
graph: a center tag plus a pure neighbor oracle over hashable tags.
Finite windows are materialised as balls (induced subgraphs of all
vertices within a given distance of the center), and every estimate made
on a ball records the radius it used, so claims about the infinite object
always come with the truncation that produced them.  A ball is built in
one pass over the oracle and stored as compact arrays (distances and a
CSR adjacency); its `Graph` is only built when a caller asks for it.

A family's ends are described by directions: for the double-ray-like
families the two column signs, for tree-like families the branch
prefixes.  The vertex- or edge-degree of an end is estimated by a
cut/path duality on growing balls -- the minimum separator (or edge cut)
between the unit ball and the direction's frontier, certified by an
equal-sized disjoint path family, accepted only after it stays stable
over a window of radii and still separates on a strictly larger ball.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, partial
from itertools import islice, product

from .connectivity import max_disjoint_paths
from .errors import InvalidParams, NotConverged, ValidationFailed
from .flow import FlowNetwork
from .graphs import Graph
from .minimality import MinimalityClass
from .witnesses import degree_bound

Tag = object  # any hashable value; each family documents its tag shape


@dataclass(frozen=True)
class EndDescriptor:
    """One end of a family, named by a direction the family understands."""

    family: str
    direction: object
    label: str


@dataclass
class Ball:
    """The induced subgraph on all tags within `radius` of the center.

    `tags[i]` is the tag of vertex i (discovery order), `index` the
    inverse map, `dist[i]` the distance to the center and `frontier` the
    vertices at distance exactly `radius` -- precisely the vertices whose
    ball degree may undercount their true degree.

    The adjacency is stored in CSR form: the neighbours of vertex v are
    `targets[offsets[v]:offsets[v + 1]]`, in increasing order.  `dist`,
    `offsets` and `targets` are machine-int arrays.  `graph` builds the
    equivalent `Graph` on first access and keeps it.
    """

    family: "Family"
    radius: int
    tags: tuple[Tag, ...]
    index: dict
    dist: array
    offsets: array
    targets: array
    frontier: frozenset[int]

    def neighbors(self, v: int) -> array:
        return self.targets[self.offsets[v]:self.offsets[v + 1]]

    @cached_property
    def graph(self) -> Graph:
        # The index maps vertex v's tag to v in insertion order, so ids[v] is
        # v.  Rows take their members from it and share its int objects
        # (arrays hold raw ints, and each read makes a new object).
        ids = list(self.index.values())
        return Graph.from_adjacency(map(ids.__getitem__, self.neighbors(v)) for v in ids)

    def internal(self) -> list[int]:
        """Vertices with their full neighborhood inside the ball."""
        return [v for v in range(len(self.tags)) if v not in self.frontier]


class Family:
    """Base interface: a pure neighbor oracle plus end descriptions."""

    name = "family"

    # -- oracle --------------------------------------------------------
    def center(self) -> Tag:
        raise NotImplementedError

    def neighbors(self, tag: Tag) -> list[Tag]:
        raise NotImplementedError

    def distance(self, tag: Tag) -> int | None:
        """Exact center distance when cheaply computable, else None."""
        return None

    def real_vertex(self, tag: Tag) -> bool:
        """False for helper tags that stand for edges, not vertices."""
        return True

    # -- ends ----------------------------------------------------------
    def ends(self, depth: int = 1) -> list[EndDescriptor]:
        raise NotImplementedError

    def in_direction(self, tag: Tag, end: EndDescriptor) -> bool:
        raise NotImplementedError

    def direction_tag_at(self, end: EndDescriptor, dist: int) -> Tag:
        """A tag of the representative ray at the given center distance."""
        raise NotImplementedError

    # -- estimator tuning ------------------------------------------------
    def base_radius(self) -> int:
        """Radius of the base ball the end estimator measures from.

        Needs to be large enough that the base already meets every
        disjoint ray of the end, otherwise the estimator converges to
        the connectivity of the base's horizon instead of the end's
        degree.  The default unit ball suffices for every family whose
        end degree is realised locally.
        """
        return 1

    def start_radius(self) -> int:
        return 3

    def max_radius(self) -> int:
        return 20

    def witness_end_depth(self) -> int:
        """Direction depth at which a direction's degree equals the
        degree of the ends inside it.

        Directions that are still inside the base ball measure the cut
        around their whole subtree; one level deeper the subtree hangs
        off the rest by the end's own cut.
        """
        return 1

    # -- declared structure ----------------------------------------------
    def degree_set(self) -> frozenset[int]:
        raise NotImplementedError

    def declared_classes(self) -> tuple[tuple[MinimalityClass, int], ...]:
        raise NotImplementedError

    def expected_end_degree(self, end: EndDescriptor, mode: str) -> int | None:
        """The family's end degree, for directions at witness_end_depth
        or deeper."""
        return None

    def describe(self) -> str:
        return self.name


class _TwoEnded(Family):
    """Shared machinery for families whose tags carry a column number."""

    def column(self, tag: Tag) -> int:
        raise NotImplementedError

    def ends(self, depth: int = 1) -> list[EndDescriptor]:
        d = self.describe()
        return [EndDescriptor(d, -1, "left"), EndDescriptor(d, +1, "right")]

    def in_direction(self, tag: Tag, end: EndDescriptor) -> bool:
        c = self.column(tag)
        return c > 0 if end.direction > 0 else c < 0


# ---------------------------------------------------------------------------
# double-ray-based families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoubleRay(_TwoEnded):
    """Tags are integers i with i ~ i+1: the two-way infinite path."""

    name = "double-ray"

    def center(self):
        return 0

    def neighbors(self, tag):
        return [tag - 1, tag + 1]

    def distance(self, tag):
        return abs(tag)

    def column(self, tag):
        return tag

    def direction_tag_at(self, end, dist):
        return end.direction * dist

    def degree_set(self):
        return frozenset({2})

    def declared_classes(self):
        return (
            (MinimalityClass.EDGE_MIN_CONN, 1),
            (MinimalityClass.EDGE_MIN_EDGE_CONN, 1),
        )

    def expected_end_degree(self, end, mode):
        return 1


@dataclass(frozen=True)
class DoubleRaySquare(_TwoEnded):
    """The square of the double ray: i ~ i+1 and i ~ i+2; 4-regular."""

    name = "dr-square"

    def center(self):
        return 0

    def neighbors(self, tag):
        return [tag - 2, tag - 1, tag + 1, tag + 2]

    def distance(self, tag):
        return (abs(tag) + 1) // 2

    def column(self, tag):
        return tag

    def direction_tag_at(self, end, dist):
        return end.direction * 2 * dist

    def degree_set(self):
        return frozenset({4})

    def declared_classes(self):
        return ((MinimalityClass.EDGE_MIN_EDGE_CONN, 3),)

    def expected_end_degree(self, end, mode):
        return 2 if mode == "vertex" else 3


@dataclass(frozen=True)
class MultiPathInfinite(_TwoEnded):
    """The double ray with every edge multiplied k times.

    Multigraphs have no native ball representation here, so tags spell
    out the subdivision: ("v", i) are the path vertices, ("m", i, j) for
    j < k the midpoints of the j-th parallel edge between i and i+1.
    Midpoints are not real vertices; degree accounting skips them.
    """

    name = "multipath-inf"
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InvalidParams("multipath-inf needs k >= 1")

    def describe(self):
        return f"multipath-inf:k={self.k}"

    def center(self):
        return ("v", 0)

    def neighbors(self, tag):
        if tag[0] == "v":
            i = tag[1]
            return [("m", i - 1, j) for j in range(self.k)] + [
                ("m", i, j) for j in range(self.k)
            ]
        _, i, _j = tag
        return [("v", i), ("v", i + 1)]

    def distance(self, tag):
        if tag[0] == "v":
            return 2 * abs(tag[1])
        i = tag[1]
        return 2 * i + 1 if i >= 0 else -2 * i - 1

    def real_vertex(self, tag):
        return tag[0] == "v"

    def column(self, tag):
        if tag[0] == "v":
            return tag[1]
        i = tag[1]
        return i + 1 if i >= 0 else i

    def direction_tag_at(self, end, dist):
        if dist % 2 == 0:
            return ("v", end.direction * (dist // 2))
        if end.direction > 0:
            return ("m", (dist - 1) // 2, 0)
        return ("m", -(dist + 1) // 2, 0)

    def degree_set(self):
        return frozenset({2 * self.k})

    def declared_classes(self):
        return ((MinimalityClass.EDGE_MIN_EDGE_CONN, self.k),)

    def expected_end_degree(self, end, mode):
        return 1 if mode == "vertex" else self.k


# ---------------------------------------------------------------------------
# tree-based families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Tree(Family):
    """The rooted tree whose root has `root` children and every other
    vertex `inner` children: the base oracle of the tree families.

    Tags are child-index paths from the root.  Directions are path
    prefixes, labelled "branch-i-j-...", and the end of a tag is read
    off its prefix.
    """

    name = "tree"
    root: int
    inner: int

    def center(self):
        return ()

    def neighbors(self, tag):
        out = [tag + (c,) for c in range(self.inner if tag else self.root)]
        if tag:
            out.append(tag[:-1])
        return out

    def distance(self, tag):
        return len(tag)

    def ends(self, depth: int = 1) -> list[EndDescriptor]:
        if depth < 1:
            raise InvalidParams("end depth must be at least 1")
        d = self.describe()
        dirs = product(range(self.root), *([range(self.inner)] * (depth - 1)))
        return [EndDescriptor(d, t, "branch-" + "-".join(map(str, t))) for t in dirs]

    def in_direction(self, tag, end):
        return tag[: len(end.direction)] == end.direction

    def direction_tag_at(self, end, dist):
        return (end.direction + (0,) * dist)[:dist]

    def witness_end_depth(self):
        # Depth-1 direction nodes are base-ball vertices; their whole
        # subtree must be cut around.  Depth 2 isolates single ends.
        return 2

    def max_radius(self):
        return 9

    def degree_set(self):
        return frozenset({self.root, self.inner + 1})


@dataclass(frozen=True)
class CliqueTree(Family):
    """A tree of k-cliques: every vertex has rk children, grouped into r
    k-cliques.

    Tags are child-index paths from the root, and the ends are those of
    the rk-ary tree underneath.  Edge-minimally k-edge-connected --
    detaching the subtree below any vertex cuts its parent edge plus its
    k-1 clique edges, a cut of size k through every edge -- yet the
    minimum degree is rk, so no vertex witnesses the degree theorem;
    every end has edge-degree k instead.
    """

    name = "clique-tree"
    r: int
    k: int
    base: _Tree = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.r < 1 or self.k < 1:
            raise InvalidParams("clique-tree needs r >= 1 and k >= 1")
        if self.r * self.k < 2:
            raise InvalidParams("clique-tree needs rk >= 2 to branch")
        object.__setattr__(self, "base", _Tree(self.r * self.k, self.r * self.k))

    def describe(self):
        return f"clique-tree:r={self.r},k={self.k}"

    def center(self):
        return ()

    def neighbors(self, tag):
        out = self.base.neighbors(tag)
        if tag:
            last = tag[-1]
            group = last // self.k
            out += [
                tag[:-1] + (cc,)
                for cc in range(group * self.k, (group + 1) * self.k)
                if cc != last
            ]
        return out

    def distance(self, tag):
        return len(tag)

    def ends(self, depth=1):
        return [replace(e, family=self.describe()) for e in self.base.ends(depth)]

    def in_direction(self, tag, end):
        return self.base.in_direction(tag, end)

    def direction_tag_at(self, end, dist):
        return self.base.direction_tag_at(end, dist)

    def witness_end_depth(self):
        return self.base.witness_end_depth()

    def max_radius(self):
        return 7

    def degree_set(self):
        rk = self.r * self.k
        return frozenset({rk, rk + self.k})

    def declared_classes(self):
        return ((MinimalityClass.EDGE_MIN_EDGE_CONN, self.k),)

    def expected_end_degree(self, end, mode):
        return 1 if mode == "vertex" else self.k


# ---------------------------------------------------------------------------
# a base times a clique
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliqueProduct(Family):
    """The double ray (r None) or the r-regular tree, times a k-clique.

    Tags (x, c): base vertex x, clique position c.  A base vertex of
    degree d has degree dk+k-1 under the strong product and d+k-1 under
    the cartesian one (the double ladder for the double ray and k = 2).
    Strong products are vertex-minimally k-connected with no vertex of
    degree <= floor(3k/2)-1; cartesian ones are vertex-minimally
    k-edge-connected with all degrees above k.  Either way the guaranteed
    small objects are the ends, each of vertex-degree exactly k.
    """

    strong: bool
    k: int
    r: int | None = None
    base: Family = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tree = self.r is not None
        if self.k < 2 or (tree and self.r < 3):
            raise InvalidParams(f"{self.name} needs {'r >= 3 and ' if tree else ''}k >= 2")
        object.__setattr__(self, "base", _Tree(self.r, self.r - 1) if tree else DoubleRay())

    @property
    def name(self):
        shape = "dr" if self.r is None else "tree"
        return f"{'strong' if self.strong else 'cartesian'}-{shape}"

    def describe(self):
        r = "" if self.r is None else f"r={self.r},"
        return f"{self.name}:{r}k={self.k}"

    def center(self):
        return (self.base.center(), 0)

    def neighbors(self, tag):
        # Clique first, then base neighbors in base order: this order fixes
        # ball indices, hence separators and certificates.
        x, c = tag
        out = [(x, cc) for cc in range(self.k) if cc != c]
        for y in self.base.neighbors(x):
            out += [(y, cc) for cc in range(self.k)] if self.strong else [(y, c)]
        return out

    def distance(self, tag):
        x, c = tag
        d, step = self.base.distance(x), 1 if c else 0
        return max(d, step) if self.strong else d + step

    def ends(self, depth=1):
        return [replace(e, family=self.describe()) for e in self.base.ends(depth)]

    def in_direction(self, tag, end):
        return self.base.in_direction(tag[0], end)

    def direction_tag_at(self, end, dist):
        return (self.base.direction_tag_at(end, dist), 0)

    def witness_end_depth(self):
        return self.base.witness_end_depth()

    def max_radius(self):
        return self.base.max_radius()

    def degree_set(self):
        k, degs = self.k, self.base.degree_set()
        return frozenset((d + 1) * k - 1 if self.strong else d + k - 1 for d in degs)

    def declared_classes(self):
        if self.strong:
            return ((MinimalityClass.VERTEX_MIN_CONN, self.k),)
        return ((MinimalityClass.VERTEX_MIN_EDGE_CONN, self.k),)

    def expected_end_degree(self, end, mode):
        return self.k * self.k if self.strong and mode == "edge" else self.k


# ---------------------------------------------------------------------------
# the bundled-rays family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RayBundle(_TwoEnded):
    """l parallel double rays stitched together by clique gadgets.

    At every column i, the l rays are partitioned into l/k blocks of k
    consecutive rays (the partition shifts by k/2 on odd columns, so
    consecutive columns interleave and the whole graph is connected).
    Each block carries a gadget: a 4-cycle of (k/2)-cliques under the
    strong product, whose first and last cliques are identified with the
    block's ray vertices at that column.  Ray vertices get degree
    3k/2+1, gadget interiors degree 3k/2-1; the graph is vertex-minimally
    k-connected, and both ends have vertex-degree l.

    Tags: ("r", j, i) is ray j at column i; ("g", i, t, q, c) is interior
    position q in {1, 2}, clique slot c, of block t's gadget at column i.
    """

    name = "ray-bundle"
    k: int
    l: int

    def __post_init__(self):
        if self.k < 2 or self.k % 2:
            raise InvalidParams("ray-bundle needs even k >= 2")
        if self.l < self.k or self.l % self.k:
            raise InvalidParams("ray-bundle needs l >= k with k dividing l")

    def describe(self):
        return f"ray-bundle:k={self.k},l={self.l}"

    def center(self):
        return ("r", 0, 0)

    def _rows(self, i, t):
        off = (i % 2) * (self.k // 2)
        return [(t * self.k + off + s) % self.l for s in range(self.k)]

    def _locate(self, j, i):
        """Block index and in-block position of ray j at column i."""
        off = (i % 2) * (self.k // 2)
        pos = (j - off) % self.l
        return pos // self.k, pos % self.k

    def neighbors(self, tag):
        half = self.k // 2
        if tag[0] == "r":
            _, j, i = tag
            t, s = self._locate(j, i)
            rows = self._rows(i, t)
            out = [("r", j, i - 1), ("r", j, i + 1)]
            out += [("r", jj, i) for jj in rows if jj != j]
            q = 1 if s < half else 2
            out += [("g", i, t, q, c) for c in range(half)]
            return out
        _, i, t, q, c = tag
        rows = self._rows(i, t)
        out = [("g", i, t, q, cc) for cc in range(half) if cc != c]
        out += [("g", i, t, 3 - q, cc) for cc in range(half)]
        corner = rows[:half] if q == 1 else rows[half:]
        out += [("r", jj, i) for jj in corner]
        return out

    def column(self, tag):
        return tag[2] if tag[0] == "r" else tag[1]

    def direction_tag_at(self, end, dist):
        return ("r", 0, end.direction * dist)

    def max_radius(self):
        # Leave room for a window of radii and the recheck two radii out.
        return max(20, self.start_radius() + 6)

    def base_radius(self):
        # The base must cover all l rays: hopping to the adjacent ray
        # block costs about two steps, and there are l/k blocks.
        return 1 + 2 * (self.l // self.k)

    def start_radius(self):
        # Wait until the ball has wrapped the whole ray ring, so the
        # frontier splits cleanly into the two column directions.
        return self.base_radius() + 2

    def degree_set(self):
        return frozenset({3 * self.k // 2 - 1, 3 * self.k // 2 + 1})

    def declared_classes(self):
        return ((MinimalityClass.VERTEX_MIN_CONN, self.k),)

    def expected_end_degree(self, end, mode):
        return self.l


# ---------------------------------------------------------------------------
# family construction and balls
# ---------------------------------------------------------------------------

FAMILY_KINDS = {
    "double-ray": (DoubleRay, ()),
    "dr-square": (DoubleRaySquare, ()),
    "strong-dr": (partial(CliqueProduct, True), ("k",)),
    "cartesian-dr": (partial(CliqueProduct, False), ("k",)),
    "strong-tree": (partial(CliqueProduct, True), ("r", "k")),
    "cartesian-tree": (partial(CliqueProduct, False), ("r", "k")),
    "clique-tree": (CliqueTree, ("r", "k")),
    "ray-bundle": (RayBundle, ("k", "l")),
    "multipath-inf": (MultiPathInfinite, ("k",)),
}


def _parse_params(head: str, rest: str, keys: tuple[str, ...]) -> dict[str, int]:
    """The integer parameters of a spec "head:key=value,...", all of `keys`."""
    params: dict[str, int] = {}
    if rest:
        for part in rest.split(","):
            key, _, val = part.partition("=")
            key = key.strip()
            if key not in keys:
                raise InvalidParams(f"{head!r} takes {keys}, not {key!r}")
            try:
                params[key] = int(val)
            except ValueError as exc:
                raise InvalidParams(f"bad integer {val!r} for {key!r}") from exc
    missing = [x for x in keys if x not in params]
    if missing:
        raise InvalidParams(f"{head!r} is missing parameters {missing}")
    return params


def make_family(text: str) -> Family:
    """Parse a family description like "clique-tree:r=2,k=4"."""
    head, _, rest = text.strip().partition(":")
    if head not in FAMILY_KINDS:
        raise InvalidParams(
            f"unknown family {head!r}; known: {', '.join(sorted(FAMILY_KINDS))}"
        )
    cls, keys = FAMILY_KINDS[head]
    return cls(**_parse_params(head, rest, keys))


def find_end(f: Family, label: str) -> EndDescriptor:
    """The end of `f` that `label` names: one of `f.ends(1)`, or on a
    tree family any deeper direction "branch-i-j-..."."""
    for e in f.ends(1):
        if e.label == label:
            return e
    tree = getattr(f, "base", None)
    if label.startswith("branch-") and isinstance(tree, _Tree):
        try:
            path = tuple(int(x) for x in label[len("branch-"):].split("-"))
        except ValueError as exc:
            raise InvalidParams(f"bad branch label {label!r}") from exc
        if path[0] not in range(tree.root) or any(
            c not in range(tree.inner) for c in path[1:]
        ):
            raise InvalidParams(f"branch indices out of range in {label!r}")
        return EndDescriptor(f.describe(), path, label)
    raise InvalidParams(f"family {f.describe()!r} has no end {label!r}")


@lru_cache(maxsize=16)
def ball(f: Family, radius: int) -> Ball:
    """The ball of the given radius around the family's center.

    Vertices are indexed in BFS discovery order, which the deterministic
    neighbor lists make reproducible.  One pass asks the oracle once per
    vertex, frontier included, and the vertex's list is its whole CSR
    row: by the time a list is read, every ball vertex on it has an
    index, because inner vertices index their new neighbours as they
    read them and the frontier is read only after the last layer is
    complete.  The row is the sorted list, loops and duplicates dropped.
    """
    if radius < 0:
        raise InvalidParams("radius must be non-negative")
    c = f.center()
    index = {c: 0}
    tags: list[Tag] = [c]
    dist = array("i", [0])
    offsets, targets = array("i", [0]), array("i")
    u = 0
    while u < len(tags):
        d = dist[u]
        row = set()
        for nb in f.neighbors(tags[u]):
            v = index.get(nb)
            if v is None:
                if d == radius:
                    continue
                v = index[nb] = len(tags)
                tags.append(nb)
                dist.append(d + 1)
            row.add(v)
        row.discard(u)
        targets.extend(sorted(row))
        offsets.append(len(targets))
        u += 1
    # BFS order makes the frontier an index suffix; taking its members from
    # the index's values shares their int objects instead of making new ones.
    frontier = frozenset(islice(index.values(), bisect_left(dist, radius), None))
    return Ball(f, radius, tuple(tags), index, dist, offsets, targets, frontier)


# ---------------------------------------------------------------------------
# end degree estimation
# ---------------------------------------------------------------------------


@dataclass
class EndDegreeEstimate:
    """Result of estimating an end's vertex- or edge-degree on balls.

    When converged, `value == lower == upper` and `certificate` holds the
    separating set (tags for vertex mode, tag pairs for edge mode) that
    was re-verified on the ball of radius `recheck_radius`.  When not
    converged only `upper` is meaningful (cut sizes are valid upper
    bounds at every radius; path families on a truncation prove nothing
    about the infinite graph, so `lower` stays 0).
    """

    family: str
    end: str
    mode: str
    value: int | None
    lower: int
    upper: int
    converged: bool
    radius_used: int
    history: tuple[tuple[int, int], ...]
    certificate: tuple | None
    recheck_radius: int | None

    def to_json_obj(self):
        return {
            "family": self.family,
            "end": self.end,
            "mode": self.mode,
            "value": self.value,
            "lower": self.lower,
            "upper": self.upper,
            "converged": self.converged,
            "radius_used": self.radius_used,
            "history": [list(h) for h in self.history],
            "certificate": None
            if self.certificate is None
            else [repr(c) for c in self.certificate],
            "recheck_radius": self.recheck_radius,
        }


def _certificate_separates(f: Family, end: EndDescriptor, mode: str,
                           certificate: tuple, radius: int, base_tags: set) -> bool:
    """Does the certificate still separate the base from the direction on
    the ball of the given radius?

    Explored from the direction side: a representative-ray tag at full
    distance seeds a search of its component in the ball minus the
    certificate; separation holds exactly when no base tag is reached.
    Families without an exact distance oracle fall back to searching the
    materialised ball from the base side.
    """
    blocked_v = set(certificate) if mode == "vertex" else set()
    blocked_e = (
        {frozenset(e) for e in certificate} if mode == "edge" else set()
    )

    if f.distance(f.center()) is not None:
        seed = f.direction_tag_at(end, radius)
        assert f.distance(seed) == radius, "representative ray must be radial"
        if seed in blocked_v:
            return True
        seen = {seed}
        queue = [seed]
        while queue:
            t = queue.pop()
            for nb in f.neighbors(t):
                if nb in seen or nb in blocked_v:
                    continue
                d = f.distance(nb)
                if d is None or d > radius:
                    continue
                if frozenset((t, nb)) in blocked_e:
                    continue
                if nb in base_tags:
                    return False
                seen.add(nb)
                queue.append(nb)
        return True

    b = ball(f, radius)
    blocked_iv = {b.index[t] for t in blocked_v if t in b.index}
    blocked_ie = {
        frozenset((b.index[t1], b.index[t2]))
        for t1, t2 in (certificate if mode == "edge" else ())
        if t1 in b.index and t2 in b.index
    }
    goal = {
        i for i in b.frontier if f.in_direction(b.tags[i], end)
    }
    seen = {b.index[t] for t in base_tags if b.index.get(t) is not None}
    seen -= blocked_iv
    queue = list(seen)
    while queue:
        v = queue.pop()
        for w in b.neighbors(v):
            if w in seen or w in blocked_iv:
                continue
            if frozenset((v, w)) in blocked_ie:
                continue
            if w in goal:
                return False
            seen.add(w)
            queue.append(w)
    return True


def end_degree_estimate(f: Family, end: EndDescriptor, mode: str = "vertex",
                        r_max: int | None = None, window: int = 3,
                        strict: bool = False) -> EndDegreeEstimate:
    """Estimate the vertex- or edge-degree of an end on growing balls.

    At each radius the value is the minimum separator (vertex mode,
    endpoints not exempt) or edge cut between the family's base ball and
    the direction's frontier, Menger-certified by a disjoint path family
    of the same size.  Values must never increase with the radius; the
    estimate converges once a full window of radii agrees and the
    certificate still separates on the ball two radii further out.
    Radii run up to `r_max`, capped by (and by default equal to) the
    family's `max_radius()`.

    With `strict`, a non-converged estimate raises NotConverged instead
    of being returned.
    """
    if mode not in ("vertex", "edge"):
        raise InvalidParams(f"mode must be 'vertex' or 'edge', not {mode!r}")
    if window < 1:
        raise InvalidParams("window must be at least 1")
    r_hi = f.max_radius() if r_max is None else min(r_max, f.max_radius())
    start = f.start_radius()
    if r_hi < start:  # no radius to measure, so no bound to report
        raise InvalidParams(f"radius bound {r_hi} is below the start radius {start}")
    base = ball(f, f.base_radius())
    base_tags = set(base.tags)

    history: list[tuple[int, int]] = []
    upper: int | None = None
    for r in range(start, r_hi + 1):
        b = ball(f, r)
        a_idx = [b.index[t] for t in base.tags]
        b_idx = [i for i in sorted(b.frontier) if f.in_direction(b.tags[i], end)]
        if not b_idx:
            raise ValidationFailed(
                f"direction {end.label!r} has an empty frontier at radius {r}"
            )
        res = max_disjoint_paths(b.graph, a_idx, b_idx, mode=mode, endpoint_exempt=False)
        v = res.count
        if upper is not None and v > upper:
            raise ValidationFailed(
                f"estimate increased from {upper} to {v} at radius {r}"
            )
        upper = v
        history.append((r, v))
        if len(history) >= window and all(val == v for _, val in history[-window:]):
            if mode == "vertex":
                cert = tuple(b.tags[i] for i in res.separator.vertices)
            else:
                cert = tuple((b.tags[e[0]], b.tags[e[1]]) for e in res.cut.edges)
            if not _certificate_separates(f, end, mode, cert, r + 2, base_tags):
                raise ValidationFailed(
                    f"certificate of size {v} stopped separating at radius {r + 2}"
                )
            return EndDegreeEstimate(
                family=f.describe(),
                end=end.label,
                mode=mode,
                value=v,
                lower=v,
                upper=v,
                converged=True,
                radius_used=r,
                history=tuple(history),
                certificate=cert,
                recheck_radius=r + 2,
            )

    estimate = EndDegreeEstimate(
        family=f.describe(),
        end=end.label,
        mode=mode,
        value=None,
        lower=0,
        upper=upper,
        converged=False,
        radius_used=r_hi,
        history=tuple(history),
        certificate=None,
        recheck_radius=None,
    )
    if strict:
        raise NotConverged(
            f"no stable window of {window} radii up to {r_hi}", estimate
        )
    return estimate


# ---------------------------------------------------------------------------
# certifying that ball edges lie in k-cuts
# ---------------------------------------------------------------------------


def _blocks_containing(offsets: array, targets: array,
                       wanted: set[int]) -> tuple[dict[int, int], list[tuple[int, ...]]]:
    """Biconnected components restricted to the blocks meeting `wanted`.

    The graph is given in CSR form with sorted rows (see `Ball`).  Edges
    are coded as u * n + v with u < v.  Returns the code -> block mapping
    for wanted edges plus each kept block's full edge list.  Iterative so
    deep balls cannot overflow the recursion limit.
    """
    n = len(offsets) - 1
    disc = array("i", [-1]) * n
    low = array("i", [0]) * n
    edge_stack: list[int] = []
    kept: list[tuple[int, ...]] = []
    code_block: dict[int, int] = {}
    timer = 0

    def code(a: int, b: int) -> int:
        return a * n + b if a < b else b * n + a

    def row(v: int):
        return iter(targets[offsets[v]:offsets[v + 1]])

    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, row(root))]
        while stack:
            v, parent, it = stack[-1]
            child = None
            for w in it:
                if w == parent:
                    continue
                if disc[w] == -1:
                    child = w
                    break
                if disc[w] < disc[v]:
                    edge_stack.append(code(v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if child is not None:
                edge_stack.append(code(v, child))
                disc[child] = low[child] = timer
                timer += 1
                stack.append((child, v, row(child)))
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    stop = code(u, v)
                    comp = []
                    while True:
                        e = edge_stack.pop()
                        comp.append(e)
                        if e == stop:
                            break
                    if any(e in wanted for e in comp):
                        bid = len(kept)
                        kept.append(tuple(comp))
                        for e in comp:
                            if e in wanted:
                                code_block[e] = bid
    return code_block, kept


@dataclass
class EdgeCutCertificate:
    """Status of one ball edge: `certified` means a cut of exactly k
    edges, all within the padded ball, separates its endpoints on the
    doubly padded ball."""

    edge: tuple
    status: str
    cut: tuple | None

    def to_json_obj(self):
        return {
            "edge": [repr(t) for t in self.edge],
            "status": self.status,
            "cut": None if self.cut is None else [[repr(a), repr(b)] for a, b in self.cut],
        }


@dataclass
class CertifyReport:
    family: str
    radius: int
    pad: int
    k: int
    total: int
    certified: int
    entries: tuple[EdgeCutCertificate, ...]

    @property
    def ratio(self) -> float:
        return self.certified / self.total if self.total else 1.0

    def to_json_obj(self):
        return {
            "family": self.family,
            "radius": self.radius,
            "pad": self.pad,
            "k": self.k,
            "total": self.total,
            "certified": self.certified,
            "ratio": self.ratio,
            "entries": [e.to_json_obj() for e in self.entries],
        }


def certify_essential_edges(f: Family, radius: int, pad: int, k: int) -> CertifyReport:
    """For every edge of ball(radius), search for a k-edge cut through it.

    Cut edges are restricted to ball(radius + pad) and separation is
    verified on ball(radius + 2 pad): per-pair max-flow where padded-ball
    edges have capacity 1 and rim edges capacity k+1, so any flow of
    value k certifies a cut of exactly k inner edges.  Flows run inside
    the edge's biconnected block -- disjoint paths never leave it, and a
    block-local cut separates in the whole ball.
    """
    if pad < 1:
        raise InvalidParams("pad must be at least 1")
    if k < 1:
        raise InvalidParams("k must be at least 1")
    b = ball(f, radius + 2 * pad)
    n = len(b.tags)
    rim = radius + pad
    # BFS order makes the vertices within `radius` an index prefix.
    n_inner = bisect_right(b.dist, radius)
    inner = [(u, v) for u in range(n_inner) for v in b.neighbors(u) if u < v < n_inner]
    wanted = {u * n + v for u, v in inner}
    code_block, blocks = _blocks_containing(b.offsets, b.targets, wanted)

    entries = []
    certified = 0
    for u, v in inner:
        block = blocks[code_block[u * n + v]]
        verts = sorted({c // n for c in block} | {c % n for c in block})
        loc = {x: i for i, x in enumerate(verts)}
        net = FlowNetwork(len(verts))
        arcs = []
        for c in block:
            a, bb = c // n, c % n
            cap = 1 if b.dist[a] <= rim and b.dist[bb] <= rim else k + 1
            net.add_undirected(loc[a], loc[bb], cap)
            arcs.append((a, bb))
        val = net.max_flow(loc[u], loc[v], k + 1)
        if val == k:
            reach = net.residual_reachable(loc[u])
            cut = [
                (a, bb) for a, bb in arcs if (loc[a] in reach) != (loc[bb] in reach)
            ]
            assert len(cut) == k, "a flow of value k pins the cut to k unit edges"
            assert all(b.dist[a] <= rim and b.dist[bb] <= rim for a, bb in cut)
            entries.append(
                EdgeCutCertificate(
                    (b.tags[u], b.tags[v]),
                    "certified",
                    tuple((b.tags[a], b.tags[bb]) for a, bb in cut),
                )
            )
            certified += 1
        else:
            entries.append(
                EdgeCutCertificate((b.tags[u], b.tags[v]), "undecided", None)
            )
    return CertifyReport(
        family=f.describe(),
        radius=radius,
        pad=pad,
        k=k,
        total=len(inner),
        certified=certified,
        entries=tuple(entries),
    )


# ---------------------------------------------------------------------------
# validating the declared structure of a family
# ---------------------------------------------------------------------------


@dataclass
class FamilyValidation:
    """One declared class of a family checked on a truncation: internal
    degrees against the declared degree set, and at least two witnesses
    -- small-degree vertices or small-degree ends -- for the class's
    guarantee."""

    family: str
    cls: MinimalityClass
    k: int
    degree_bound: int
    degrees_seen: tuple[int, ...]
    degrees_ok: bool
    vertex_witnesses: tuple
    end_witnesses: tuple[str, ...]
    satisfied: bool

    def to_json_obj(self):
        return {
            "family": self.family,
            "class": self.cls.value,
            "k": self.k,
            "degree_bound": self.degree_bound,
            "degrees_seen": list(self.degrees_seen),
            "degrees_ok": self.degrees_ok,
            "vertex_witnesses": [repr(t) for t in self.vertex_witnesses],
            "end_witnesses": list(self.end_witnesses),
            "satisfied": self.satisfied,
        }


def validate_family(f: Family, radius: int = 4, end_depth: int | None = None) -> list[FamilyValidation]:
    """Check every declared class of the family on a ball truncation.

    Internal (non-frontier) vertices must only show declared degrees, and
    each class's guarantee needs two witnesses: vertices within the
    class's degree bound, topped up with ends whose estimated degree
    (edge mode for the edge-deletion classes, vertex mode otherwise) is
    at most k.
    """
    if end_depth is None:
        end_depth = f.witness_end_depth()
    b = ball(f, radius)
    internal = [i for i in b.internal() if f.real_vertex(b.tags[i])]
    degs = sorted({b.graph.degree(i) for i in internal})
    degrees_ok = set(degs) <= set(f.degree_set())

    out = []
    for cls, k in f.declared_classes():
        bound = degree_bound(cls, k)
        vws = tuple(
            b.tags[i] for i in internal if b.graph.degree(i) <= bound
        )[:4]
        mode = (
            "edge"
            if cls in (MinimalityClass.EDGE_MIN_CONN, MinimalityClass.EDGE_MIN_EDGE_CONN)
            else "vertex"
        )
        ews: list[str] = []
        if len(vws) < 2:
            for end in f.ends(end_depth):
                est = end_degree_estimate(f, end, mode=mode)
                if est.converged and est.value is not None and est.value <= k:
                    ews.append(end.label)
                if len(vws) + len(ews) >= 2:
                    break
        out.append(
            FamilyValidation(
                family=f.describe(),
                cls=cls,
                k=k,
                degree_bound=bound,
                degrees_seen=tuple(degs),
                degrees_ok=degrees_ok,
                vertex_witnesses=vws,
                end_witnesses=tuple(ews),
                satisfied=degrees_ok and len(vws) + len(ews) >= 2,
            )
        )
    return out
