"""Infinite graph families with prescribed end degrees, truncated to balls.

Each family is an immutable description of a locally finite infinite
graph: a center tag plus a pure neighbor oracle over hashable tags.
Finite windows are materialised as balls (induced subgraphs of all
vertices within a given distance of the center), and every estimate made
on a ball records the radius it used, so claims about the infinite object
always come with the truncation that produced them.  A ball is a BFS
over the oracle, stored as distances and one sorted neighbour row per
vertex, and a larger ball of the same family grows from the last one
built, reading only its frontier and the new layers; its `Graph` is
only built when a caller asks for it.

On a clique tree a vertex's BFS index is its rk-ary heap number, because
the oracle lists a vertex's children first and in order, so BFS
discovers them in order.  Its end-degree estimate and recheck read
balls as heap numbers -- rows by arithmetic, a direction's frontier as
one index range, tags decoded only for reports -- and build no ball but
the estimator's base; its certification reads blocks off ball(radius).

A family's ends are described by directions: for the double-ray-like
families the two column signs, for tree-like families the branch
prefixes.  The vertex- or edge-degree of an end is estimated by a
cut/path duality on growing balls -- the minimum separator (or edge cut)
between the base ball and the direction's frontier, certified by an
equal-sized disjoint path family, accepted only after it stays stable
over a window of radii and still separates on the ball two radii out
(the recheck rule, `_certificate_separates`).  The flow runs only on the
part of the ball that the frontier reaches without crossing the base.

A family supplies the contract of `Family` and nothing more: the oracle,
its ends and the estimator's radii.  The paper's claims about each family
-- degrees, declared classes, end degrees -- are not part of it; they live
in one table in the test suite (`tests/oracles.py`), which holds the
families to them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import chain, count, product
from types import SimpleNamespace

from .connectivity import Connectivity, max_disjoint_paths
from .errors import InvalidParams, NotConverged, ValidationFailed
from .graphs import Graph, MultiGraph, product_row, reachable

Tag = object  # any hashable value; each family documents its tag shape

# The most vertices of the heap window ball(r) a clique tree's estimator
# may measure on (it lists only the live rows): the largest is ball(6) of
# an rk = 8 tree, 299,593 vertices.  No built ball may exceed it either.
BALL_BUDGET = 300_000


@dataclass(frozen=True)
class EndDescriptor:
    """One end of a family, named by a direction the family understands."""

    direction: object
    label: str


@dataclass
class Ball:
    """The induced subgraph on all tags within `radius` of the center.

    `tags[i]` is the tag of vertex i (discovery order), `index` the
    inverse map, `dist[i]` the distance to the center and `rows[i]` the
    neighbours of vertex i in increasing order.  `frontier` is the range
    of vertices at distance exactly `radius` -- precisely the vertices
    whose ball degree may undercount their true degree; BFS order makes
    it an index suffix.  A grown ball shares its inner rows with the ball
    it grew from, so rows are never changed.  `graph` builds the
    equivalent `Graph` on first access and keeps it.
    """

    radius: int
    tags: tuple[Tag, ...]
    index: dict
    dist: list[int]
    rows: list[list[int]]

    @property
    def frontier(self) -> range:
        return range(bisect_left(self.dist, self.radius), len(self.tags))

    def neighbors(self, v: int) -> list[int]:
        return self.rows[v]

    @cached_property
    def graph(self) -> Graph:
        return Graph.from_adjacency(self.rows)


class Family:
    """Base interface: a pure neighbor oracle plus end descriptions.

    The contract: the oracle, a `center` and a deterministic `neighbors`
    so BFS numbers every ball the same way; the ends, `ends` and
    `in_direction` for the tags of a direction; and the estimator's
    radii.  Distances and rays are read off balls, never asked of the
    family.
    """

    name = "family"

    # -- oracle --------------------------------------------------------
    def center(self) -> Tag:
        raise NotImplementedError

    def neighbors(self, tag: Tag) -> list[Tag]:
        raise NotImplementedError

    # -- ends ----------------------------------------------------------
    def ends(self, depth: int = 1) -> list[EndDescriptor]:
        raise NotImplementedError

    def in_direction(self, tag: Tag, end: EndDescriptor) -> bool:
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

    def start_radius(self, end: EndDescriptor) -> int:
        """The first radius the estimator measures the end's direction at."""
        return 3

    def max_radius(self) -> int:
        return 20

    def describe(self) -> str:
        """The spec `make_family` reads back as this family."""
        _, keys = FAMILY_KINDS.get(self.name, (None, ()))
        params = ",".join(f"{key}={getattr(self, key)}" for key in keys)
        return f"{self.name}:{params}" if params else self.name


class _TwoEnded(Family):
    """Shared machinery for families whose tags carry a column number."""

    def column(self, tag: Tag) -> int:
        raise NotImplementedError

    def ends(self, depth: int = 1) -> list[EndDescriptor]:
        return [EndDescriptor(-1, "left"), EndDescriptor(+1, "right")]

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

    def column(self, tag):
        return tag


@dataclass(frozen=True)
class DoubleRaySquare(_TwoEnded):
    """The square of the double ray: i ~ i+1 and i ~ i+2; 4-regular."""

    name = "dr-square"

    def center(self):
        return 0

    def neighbors(self, tag):
        return [tag - 2, tag - 1, tag + 1, tag + 2]

    def column(self, tag):
        return tag


@dataclass(frozen=True)
class MultiPathInfinite(_TwoEnded):
    """The double ray with every edge multiplied k times.

    Multigraphs have no native ball representation here, so tags spell
    out the subdivision: ("v", i) are the path vertices, ("m", i, j) for
    j < k the midpoints of the j-th parallel edge between i and i+1.
    Midpoints are not real vertices: each stands for one edge copy.
    """

    name = "multipath-inf"
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InvalidParams("multipath-inf needs k >= 1")

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

    def column(self, tag):
        if tag[0] == "v":
            return tag[1]
        i = tag[1]
        return i + 1 if i >= 0 else i


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

    def ends(self, depth: int = 1) -> list[EndDescriptor]:
        if depth < 1:
            raise InvalidParams("end depth must be at least 1")
        dirs = product(range(self.root), *([range(self.inner)] * (depth - 1)))
        return [EndDescriptor(t, "branch-" + "-".join(map(str, t))) for t in dirs]

    def in_direction(self, tag, end):
        return tag[: len(end.direction)] == end.direction

    def start_radius(self, end):
        # A deeper direction's frontier is a single vertex at distance
        # len(direction); start one level below it, inside its subtree.
        return max(3, len(end.direction) + 1)

    def max_radius(self):
        return 9


class _OnBase(Family):
    """A family whose ends and radii are those of its `base` family."""

    def ends(self, depth=1):
        return self.base.ends(depth)

    def start_radius(self, end):
        return self.base.start_radius(end)

    def max_radius(self):
        return self.base.max_radius()


@dataclass(frozen=True)
class CliqueTree(_OnBase):
    """A tree of k-cliques: every vertex has rk children, grouped into r
    k-cliques.

    Tags are child-index paths from the root, and the ends are those of
    the rk-ary tree underneath.  Edge-minimally k-edge-connected --
    detaching the subtree below any vertex cuts its parent edge plus its
    k-1 clique edges, a cut of size k through every edge -- yet the
    minimum degree is rk, so no vertex witnesses the degree theorem;
    every end has edge-degree k instead.

    A vertex's BFS index is its rk-ary heap number: vertex i has parent
    (i - 1) // rk and children rk*i + 1 ... rk*i + rk, and its clique
    siblings are the rest of its aligned group of k among its parent's
    children.  The index methods below are that arithmetic.
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

    def in_direction(self, tag, end):
        return self.base.in_direction(tag, end)

    def max_radius(self):
        # the largest radius whose heap window fits the budget: 17, 8, 6 at rk = 2, 4, 8
        return next(r for r in count() if self.ball_size(r + 1) > BALL_BUDGET)

    # -- level-order indices ---------------------------------------------
    def ball_size(self, radius: int) -> int:
        """The number of vertices within `radius` of the root."""
        rk = self.r * self.k
        return (rk ** (radius + 1) - 1) // (rk - 1)

    def index_of(self, tag: tuple[int, ...]) -> int:
        """The heap number of a tag, read off its child-index path."""
        i, rk = 0, self.r * self.k
        for c in tag:
            i = rk * i + 1 + c
        return i

    def tag_of(self, i: int) -> tuple[int, ...]:
        """The tag of heap number i: the inverse of `index_of`."""
        rk, path = self.r * self.k, []
        while i:
            i, c = divmod(i - 1, rk)
            path.append(c)
        return tuple(reversed(path))

    def index_row(self, i: int, n: int) -> list[int]:
        """The sorted neighbour indices of vertex i in the ball of
        n = ball_size(radius) vertices: parent, clique siblings, children."""
        rk, k = self.r * self.k, self.k
        c = rk * i + 1  # the first child; a ball holds all children or none
        children = range(c, c + rk) if c < n else ()
        if not i:
            return [*children]
        first = i - (i - 1) % k  # k divides rk, so the groups align
        row = [(i - 1) // rk, *range(first, first + k), *children]
        row.remove(i)
        return row


# ---------------------------------------------------------------------------
# a base times a clique
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliqueProduct(_OnBase):
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

    def center(self):
        return (self.base.center(), 0)

    def neighbors(self, tag):
        # The product rule's order fixes ball indices, hence certificates.
        return product_row(self.base.neighbors, self._clique_row, *tag, self.strong)

    def _clique_row(self, c):
        return [d for d in range(self.k) if d != c]

    def in_direction(self, tag, end):
        return self.base.in_direction(tag[0], end)


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

    def max_radius(self):
        # Leave room past the start radius, base_radius() + 2, for a window
        # of radii and the recheck two radii out.
        return max(20, self.base_radius() + 8)

    def base_radius(self):
        # The base must cover all l rays: hopping to the adjacent ray
        # block costs about two steps, and there are l/k blocks.
        return 1 + 2 * (self.l // self.k)

    def start_radius(self, end):
        # Wait until the ball has wrapped the whole ray ring, so the
        # frontier splits cleanly into the two column directions.
        return self.base_radius() + 2


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
    """The integer parameters of a spec "head:key=value,...", each of `keys` once."""
    params: dict[str, int] = {}
    if rest:
        for part in rest.split(","):
            key, _, val = part.partition("=")
            key = key.strip()
            if key not in keys:
                raise InvalidParams(f"{head!r} takes {keys}, not {key!r}")
            if key in params:
                raise InvalidParams(f"{head!r} is given {key!r} twice")
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
        return EndDescriptor(path, label)
    raise InvalidParams(f"family {f.describe()!r} has no end {label!r}")


# The last ball `ball` built, with its family: the start of the next one.
_grown: tuple = (None, None)


@lru_cache(maxsize=16)
def ball(f: Family, radius: int) -> Ball:
    """The ball of the given radius around the family's center.

    A miss grows the last ball `ball` built when it is f's and smaller
    (`_oracle_ball` from `start`), and builds from the center otherwise;
    both give the same ball.  Vertices are indexed in BFS discovery order,
    which the deterministic neighbor lists make reproducible; on a clique
    tree that order is the rk-ary heap numbering.
    """
    global _grown
    if radius < 0:
        raise InvalidParams("radius must be non-negative")
    last_f, last = _grown
    b = _oracle_ball(f, radius, last if last_f == f and last.radius < radius else None)
    _grown = f, b
    return b


def _over_budget(f: Family, radius: int) -> InvalidParams:
    """The refusal of a ball(radius) of more than BALL_BUDGET vertices."""
    return InvalidParams(f"ball({radius}) of {f.describe()} has more than {BALL_BUDGET} vertices")


def _oracle_ball(f: Family, radius: int, start: Ball | None = None) -> Ball:
    """The ball built by BFS over the family's neighbor oracle, from the
    center or grown from `start`, a smaller ball of f.

    The pass asks the oracle once per vertex it reads, and the vertex's
    list is its whole row: by the time a list is read, every ball vertex
    on it has an index, because inner vertices index their new neighbours
    as they read them and the frontier is read only after the last layer
    is complete.  The row is the sorted list, loops and duplicates
    dropped.  Growing copies `start`'s tags, index and distances, a prefix
    of the larger ball's in BFS order, and shares its inner rows, since
    every neighbour of an inner vertex lies in `start`; it reads only
    start's frontier, whose rows were cut at its radius, and the new
    layers.  `start` is not changed and the indices are a cold build's,
    so a ball of more than BALL_BUDGET vertices is refused with
    InvalidParams at the same first vertex over the budget either way.
    """
    budget = BALL_BUDGET
    if start is None:
        c = f.center()
        index, tags, dist, rows = {c: 0}, [c], [0], []
    else:
        index, tags, dist = dict(start.index), list(start.tags), list(start.dist)
        rows = start.rows[:start.frontier.start]
    u = len(rows)
    while u < len(tags):
        d = dist[u]
        row = set()
        for nb in f.neighbors(tags[u]):
            v = index.get(nb)
            if v is None:
                if d == radius:
                    continue
                v = index[nb] = len(tags)
                if v == budget:
                    raise _over_budget(f, radius)
                tags.append(nb)
                dist.append(d + 1)
            row.add(v)
        row.discard(u)
        rows.append(sorted(row))
        u += 1
    return Ball(radius, tuple(tags), index, dist, rows)


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
        cert = self.certificate
        return {**asdict(self), "certificate": None if cert is None else [repr(c) for c in cert]}


def _certificate_separates(f: Family, end: EndDescriptor, mode: str,
                           certificate: tuple, radius: int, base_tags: set) -> bool:
    """The recheck rule: does the certificate still separate the base from
    the direction on the ball of the given radius?

    It does exactly when, in the ball minus the certificate (tags in
    vertex mode, tag pairs in edge mode), a search from the base reaches
    no frontier vertex in the direction.  A clique tree, whose balls grow
    rk-fold per radius, walks heap numbers instead (`_index_separates`).
    """
    if isinstance(f, CliqueTree):
        return _index_separates(f, end, mode, certificate, radius, base_tags)
    b = ball(f, radius)
    idx = b.index.__getitem__
    goal = {i for i in b.frontier if f.in_direction(b.tags[i], end)}
    return _cut_off(b.neighbors, idx, mode, certificate,
                    {idx(t) for t in base_tags}, goal)


def _index_separates(f: CliqueTree, end: EndDescriptor, mode: str,
                     certificate: tuple, radius: int, base_tags: set) -> bool:
    """`_certificate_separates` on a clique tree, by a search over heap
    numbers from the direction side that fails once it reaches a base
    vertex.  Distance <= radius is index < ball_size(radius).

    Only the marked vertices -- the ancestors, inclusive, of the base
    vertices and of the certificate's vertices or edge endpoints -- need
    their children searched.  An unmarked vertex's subtree holds no base
    vertex and no certificate element; it is connected, and it meets the
    rest of the tree only at its root, by the root's parent and clique
    edges.  So the direction's frontier (its descendants at full
    distance) reaches what the roots of its unmarked subtrees reach: the
    search is seeded with those roots, found by walking down the marked
    vertices from the direction, and never expands an unmarked vertex's
    children.
    """
    n, idx, rk = f.ball_size(radius), f.index_of, f.r * f.k
    if radius < len(end.direction):  # the direction lies outside the ball: no frontier
        return True
    cert_tags = certificate if mode == "vertex" else [t for e in certificate for t in e]
    marked = {idx(t[:i]) for t in chain(base_tags, cert_tags) for i in range(len(t) + 1)}
    inner = f.ball_size(radius - 1)  # the vertices with children in the ball
    seeds, stack = set(), [idx(end.direction)]
    while stack:
        v = stack.pop()
        if v in marked and v < inner:
            stack.extend(range(rk * v + 1, rk * v + rk + 1))
        else:
            seeds.add(v)
    return _cut_off(lambda v: f.index_row(v, n if v in marked else 0), idx, mode,
                    certificate, seeds, {idx(t) for t in base_tags})


def _cut_off(row, idx, mode: str, certificate: tuple, sources: set, targets: set) -> bool:
    """Does the certificate, read into vertices by `idx`, cut every path
    from `sources` to `targets` in the graph whose neighbours `row` lists?
    A source that is itself a target does not count.  Only the rows of a
    cut edge's endpoints are filtered."""
    avoid, cut = set(), {}
    if mode == "vertex":
        avoid = {idx(t) for t in certificate}
    else:
        for u, w in ((idx(a), idx(b)) for a, b in certificate):
            cut.setdefault(u, set()).add(w)
            cut.setdefault(w, set()).add(u)
    live = lambda v: [w for w in row(v) if w not in cut[v]] if v in cut else row(v)
    return targets.isdisjoint(reachable(live, sources, avoid) - sources)


def end_degree_estimate(f: Family, end: EndDescriptor, mode: str = "vertex",
                        r_max: int | None = None, window: int = 3,
                        strict: bool = False) -> EndDegreeEstimate:
    """Estimate the vertex- or edge-degree of an end on growing balls.

    At each radius the value is the minimum separator (vertex mode, which
    may meet the base or the frontier) or edge cut between the family's
    base ball and the direction's frontier, Menger-certified by a
    disjoint path family of the same size (`max_disjoint_paths`, which
    solves on the part of the ball that can carry flow).  The paths are
    asked from the base's frontier alone: an inner base vertex's row lies
    inside the base, so every minimal path from the base to the
    direction's frontier leaves it from its frontier, and the live set,
    the sources, their order and the dual are those of the whole base.
    Values must never increase with the radius; the estimate converges
    once a full window of at least two radii agrees and the certificate
    still separates on the ball two radii further out.
    Radii run up to `r_max`, capped by (and by default equal to) the
    family's `max_radius()`.

    A clique tree's ball(r) is read as heap numbers, not built: rows from
    `index_row`, and the direction's frontier, its descendants m = r - depth
    levels down, as the rk^m numbers from index_of(direction) * rk^m +
    ball_size(m - 1).

    With `strict`, a non-converged estimate raises NotConverged instead
    of being returned.
    """
    if mode not in ("vertex", "edge"):
        raise InvalidParams(f"mode must be 'vertex' or 'edge', not {mode!r}")
    if window < 2:  # one radius checks no agreement
        raise InvalidParams("window must be at least 2")
    r_hi = f.max_radius() if r_max is None else min(r_max, f.max_radius())
    start = f.start_radius(end)
    if r_hi < start:  # no radius to measure, so no bound to report
        raise InvalidParams(f"radius bound {r_hi} is below the start radius {start}")
    base = ball(f, f.base_radius())
    base_tags = set(base.tags)

    history: list[tuple[int, int]] = []
    upper: int | None = None
    converged, cert = False, None
    for r in range(start, r_hi + 1):
        if isinstance(f, CliqueTree):
            rk, m = f.r * f.k, r - len(end.direction)
            first = f.index_of(end.direction) * rk ** m + f.ball_size(m - 1)
            b_idx = range(first, first + rk ** m)
            g = SimpleNamespace(neighbors=partial(f.index_row, n=f.ball_size(r)))
            tag = f.tag_of
        else:
            g = ball(f, r)
            b_idx = [i for i in g.frontier if f.in_direction(g.tags[i], end)]
            tag = g.tags.__getitem__
        if not b_idx:
            raise ValidationFailed(
                f"direction {end.label!r} has an empty frontier at radius {r}"
            )
        # BFS numbering makes the base an index prefix of every ball
        res = max_disjoint_paths(g, base.frontier, b_idx, mode)
        v = res.count
        if upper is not None and v > upper:
            raise ValidationFailed(
                f"estimate increased from {upper} to {v} at radius {r}"
            )
        upper = v
        history.append((r, v))
        if len(history) >= window and all(val == v for _, val in history[-window:]):
            if mode == "vertex":
                cert = tuple(map(tag, res.separator))
            else:
                cert = tuple((tag(u), tag(w)) for u, w in res.cut)
            if not _certificate_separates(f, end, mode, cert, r + 2, base_tags):
                raise ValidationFailed(
                    f"certificate of size {v} stopped separating at radius {r + 2}"
                )
            converged = True
            break

    estimate = EndDegreeEstimate(
        family=f.describe(),
        end=end.label,
        mode=mode,
        value=upper if converged else None,
        lower=upper if converged else 0,
        upper=upper,
        converged=converged,
        radius_used=r,  # r_hi when the loop ran out
        history=tuple(history),
        certificate=cert,
        recheck_radius=r + 2 if converged else None,
    )
    if strict and not converged:
        raise NotConverged(
            f"no stable window of {window} radii up to {r_hi}", estimate
        )
    return estimate


# ---------------------------------------------------------------------------
# certifying that ball edges lie in k-cuts
# ---------------------------------------------------------------------------


def _blocks_containing(rows: list[list[int]],
                       n_inner: int) -> tuple[dict[tuple, int], list[list[tuple]]]:
    """Biconnected components restricted to the blocks with an inner edge.

    The graph is given by its sorted neighbour rows (see `Ball`).  An edge
    is the pair (u, v), u < v, and is inner when v < n_inner; in BFS order
    those are the edges of ball(radius) when n_inner is its size.  Returns
    block_of, inner edge -> block index, and each kept block's edge list
    in Tarjan's pop order.  Iterative so deep balls cannot overflow the
    recursion limit.
    """
    n = len(rows)
    disc = [-1] * n
    low = [0] * n
    edge_stack: list[tuple] = []
    kept: list[list[tuple]] = []
    block_of: dict[tuple, int] = {}
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, iter(rows[root]))]
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
                    edge_stack.append((v, w) if v < w else (w, v))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if child is not None:
                edge_stack.append((v, child) if v < child else (child, v))
                disc[child] = low[child] = timer
                timer += 1
                stack.append((child, v, iter(rows[child])))
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    stop = (u, v) if u < v else (v, u)
                    comp = []
                    while True:
                        e = edge_stack.pop()
                        comp.append(e)
                        if e == stop:
                            break
                    inner = [e for e in comp if e[1] < n_inner]
                    if inner:
                        block_of.update(dict.fromkeys(inner, len(kept)))
                        kept.append(comp)
    return block_of, kept


@dataclass
class EdgeCutCertificate:
    """Status of one ball edge: `certified` means a cut of exactly k
    edges, all within the padded ball, separates its endpoints on the
    doubly padded ball."""

    edge: tuple
    status: str
    cut: tuple | None

    def to_json_obj(self):
        cut = self.cut
        return {**vars(self), "edge": [repr(t) for t in self.edge],
                "cut": None if cut is None else [[repr(a), repr(b)] for a, b in cut]}


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
        return {**vars(self), "ratio": self.ratio, "entries": [e.to_json_obj() for e in self.entries]}


def certify_essential_edges(f: Family, radius: int, pad: int, k: int) -> CertifyReport:
    """For every edge of ball(radius), search for a k-edge cut through it.

    Cut edges are restricted to ball(radius + pad) and separation is
    verified on ball(radius + 2 pad): padded-ball edges have multiplicity
    1 and rim edges k+1, so any flow of value k certifies a cut of exactly
    k inner edges.  Flows run inside the edge's biconnected block, found
    by Tarjan's algorithm (`_blocks_containing`), on its one
    `Connectivity` record -- disjoint paths never leave it, and a
    block-local cut separates in the whole ball (`_certify_ball`).

    A clique tree reads its blocks off ball(radius), built uncached: an
    inner edge's block, a parent and one aligned group of k children,
    lies in it, so no rim capacity applies; and a subtree below a block
    vertex meets the rest of the ball only there, so Tarjan's DFS pops
    it as blocks of its own before it returns into the block, whose
    edges pop in the same order on ball(radius + 2 pad).
    """
    if radius < 0:
        raise InvalidParams("radius must be non-negative")
    if pad < 1:
        raise InvalidParams("pad must be at least 1")
    if k < 1:
        raise InvalidParams("k must be at least 1")
    b = _oracle_ball(f, radius) if isinstance(f, CliqueTree) else ball(f, radius + 2 * pad)
    return _certify_ball(f, b, radius, pad, k)


def _certify_ball(f: Family, b: Ball, radius: int, pad: int, k: int) -> CertifyReport:
    """`certify_essential_edges` on a ball b that holds every block of
    ball(radius)'s edges as far as distance radius + 2 pad: each inner
    edge, in index order, asks `edge_side` of its block's record, and k
    block edges across the side certify a cut, listed in the block's edge
    order.  Distance <= d is index < bisect_right(b.dist, d) in BFS order."""
    n_inner, n_rim = bisect_right(b.dist, radius), bisect_right(b.dist, radius + pad)
    block_of, kept = _blocks_containing(b.rows, n_inner)
    records = []  # per kept block: its edges, vertex -> local index, and its record
    for arcs in kept:
        loc = {x: i for i, x in enumerate(sorted({x for e in arcs for x in e}))}
        mult = [(loc[a], loc[bb], 1 if bb < n_rim else k + 1) for a, bb in arcs]  # a < bb
        records.append((arcs, loc, Connectivity(MultiGraph(len(loc), mult))))
    tag = b.tags.__getitem__
    entries = []
    for u, v in ((u, v) for u in range(n_inner) for v in b.rows[u] if u < v < n_inner):
        arcs, loc, conn = records[block_of[u, v]]
        side = conn.edge_side((loc[u], loc[v]), k + 1) or set()  # None: k + 1 paths, no cut
        cut = [(a, bb) for a, bb in arcs if (loc[a] in side) != (loc[bb] in side)]
        if len(cut) == k:
            assert all(bb < n_rim for _, bb in cut)
            entries.append(EdgeCutCertificate(
                (tag(u), tag(v)), "certified", tuple((tag(a), tag(bb)) for a, bb in cut)))
        else:
            entries.append(EdgeCutCertificate((tag(u), tag(v)), "undecided", None))
    return CertifyReport(
        family=f.describe(),
        radius=radius,
        pad=pad,
        k=k,
        total=len(entries),
        certified=sum(e.status == "certified" for e in entries),
        entries=tuple(entries),
    )
