"""Small-graph streams: exhaustive enumeration and seeded random samples.

The exhaustive stream keeps the first mask of each canonical key among
candidate edge bitmasks in increasing order, so it emits the least
degree-sorted mask of each isomorphism class (every class has a labeling
with nondecreasing degrees).  A mask is a stack of rows, later rows more
significant: row u holds the edges (u, v), v > u.  Candidates are built a
row at a time.  Once row u is placed, deg(u) is final, and a row that makes
it smaller than deg(u - 1) is dropped.  If the two are equal, swapping
labels u - 1 and u keeps the labeling degree-sorted, so the least mask
never has a smaller image; the swap changes no row after u, so this test
is decided at row u.  At n = 7, 1,144 candidates get a key, for 1,044
classes.

The key is the lexicographically smallest adjacency bitstring over all
orderings that respect the stable neighborhood-refinement classes; equal
keys mean isomorphic, so deduplication never drops a class, and since
refinement classes are isomorphism-invariant the key is in fact canonical.
"""

from __future__ import annotations

import random
from itertools import chain, combinations
from typing import Iterator

from .errors import InvalidParams, TooLarge
from .graphs import Graph

MAX_EXHAUSTIVE_N = 7


def _candidate_masks(n: int) -> list[int]:
    """Increasing edge bitmasks that may be the least degree-sorted mask
    of their isomorphism class: the degree sequence is nondecreasing by
    label, and no swap of two adjacent labels of equal degree gives a
    smaller mask."""
    field = (1 << n) - 1
    # spread[row] << (u + 1) * n + u sets bit u of column u + 1 + j per bit j of row u
    spread = [0]
    for j in range(n - 1):
        spread += [s | 1 << j * n for s in spread]

    def rows(u: int, mask: int, cols: int, prev_deg: int, prev_row: int) -> Iterator[int]:
        # bits v*n to v*n + n - 1 of cols: column v, bit a for a placed edge (a, v)
        if u == n:
            yield mask
            return
        col = cols >> u * n & field
        base = col.bit_count()
        shift = u * (2 * n - 1 - u) // 2  # the bits of rows 0 to u - 1
        for row in range(1 << n - 1 - u):
            deg = base + row.bit_count()
            if deg < prev_deg:
                continue
            if deg == prev_deg:
                # the swap's image: row u - 1 less its edge to u as row u, and
                # columns u - 1 and u exchanged in the earlier rows
                moved = prev_row >> 1
                prev_col = cols >> (u - 1) * n & field
                if moved < row or moved == row and prev_col < col & ~(1 << u - 1):
                    continue
            placed = cols | spread[row] << (u + 1) * n + u
            yield from rows(u + 1, mask | row << shift, placed, deg, row)

    return sorted(rows(0, 0, 0, -1, 0))


def refinement_classes(g: Graph) -> list[int]:
    """Stable neighborhood refinement: per-vertex class labels.

    Starts from degrees and repeatedly refines by the multiset of
    neighbor classes; labels are dense and deterministic.  Classes only
    ever split, so n rounds reach the stable partition.
    """
    colors = list(g.degrees())
    for _ in range(g.n):
        sig = [
            (colors[v], tuple(sorted(colors[w] for w in g.neighbors(v))))
            for v in range(g.n)
        ]
        relabel = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [relabel[s] for s in sig]
        if new == colors:
            break
        colors = new
    return colors


def canonical_key(g: Graph) -> tuple[int, int]:
    """(n, adjacency bits) under a canonical vertex order.

    Vertices are grouped by refinement class (class order is itself
    canonical, being a function of degree multisets only), and within
    that constraint the order minimizing the adjacency bitstring is found
    by extending all currently-tied prefixes one position at a time.
    """
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


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """Every graph on exactly n vertices, one per isomorphism class.

    The order is checked at the call, before any graph is built.
    """
    if n < 1:
        raise InvalidParams("need n >= 1")
    if n > MAX_EXHAUSTIVE_N:
        raise TooLarge(
            f"exhaustive enumeration is capped at {MAX_EXHAUSTIVE_N} vertices; "
            "use random_graphs for larger sizes"
        )
    return _canonical_graphs(n)


def _canonical_graphs(n: int) -> Iterator[Graph]:
    pos = list(combinations(range(n), 2))
    seen: set[tuple[int, int]] = set()
    for mask in _candidate_masks(n):
        g = Graph(n, (e for p, e in enumerate(pos) if mask >> p & 1))
        key = canonical_key(g)
        if key not in seen:
            seen.add(key)
            yield g


def enumerate_all(n_max: int) -> Iterator[Graph]:
    """Graphs of every order from 1 up to n_max, smallest first; every
    order is checked at the call."""
    if n_max < 1:
        raise InvalidParams("need n_max >= 1")
    return chain.from_iterable([enumerate_graphs(n) for n in range(1, n_max + 1)])


def random_graphs(count: int, n_max: int, seed: int = 0) -> Iterator[Graph]:
    """Seeded uniform-order, uniform-density random graphs (n from 2 to n_max).

    The arguments are checked at the call, before any graph is drawn.
    """
    if count < 0 or n_max < 2:
        raise InvalidParams("need count >= 0 and n_max >= 2")
    return _random_graphs(count, n_max, random.Random(seed))


def _random_graphs(count: int, n_max: int, rng: random.Random) -> Iterator[Graph]:
    for _ in range(count):
        n = rng.randint(2, n_max)
        p = rng.uniform(0.15, 0.85)
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        yield Graph(n, edges)
