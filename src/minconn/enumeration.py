"""Small-graph streams: exhaustive enumeration and seeded random samples.

The exhaustive stream walks the edge bitmasks of labeled n-vertex graphs
in increasing order and keeps the first mask of each canonical key, so it
emits the least degree-sorted mask of each isomorphism class (every class
has a labeling with nondecreasing degrees).  Two numpy passes drop masks
before any key is computed: those whose degrees decrease by label, and
those that a swap of two adjacent labels of equal degree makes smaller.
Such a swap keeps the labeling degree-sorted, so the least mask never has
a smaller image.  At n = 7, 1,144 of the 16,758 degree-sorted masks (of
2^21) get a key, for 1,044 classes.

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

def _edge_positions(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def _mask_to_graph(n: int, mask: int, pos: list[tuple[int, int]]) -> Graph:
    return Graph(n, (pos[i] for i in range(len(pos)) if mask >> i & 1))


def _candidate_masks(n: int) -> list[int]:
    """Increasing edge bitmasks that may be the least degree-sorted mask
    of their isomorphism class: the degree sequence is nondecreasing by
    label, and no swap of two adjacent labels of equal degree gives a
    smaller mask."""
    import numpy as np  # imported here so that loading the CLI does not pay for it

    pos = _edge_positions(n)
    bits = len(pos)
    index = {e: p for p, e in enumerate(pos)}
    incidence = np.zeros(n, dtype=np.uint32)
    for i, (u, v) in enumerate(pos):
        incidence[u] |= np.uint32(1 << i)
        incidence[v] |= np.uint32(1 << i)
    masks = np.arange(1 << bits, dtype=np.uint32)
    keep = np.ones(masks.shape, dtype=bool)
    prev = None
    for v in range(n):
        deg = np.bitwise_count(masks & incidence[v])
        if prev is not None:
            keep &= prev <= deg
        prev = deg
    masks = masks[keep]

    # Only the degree-sorted survivors get per-vertex degrees, so the
    # test below never holds a full-size array per vertex.
    deg = [np.bitwise_count(masks & incidence[v]) for v in range(n)]
    keep = np.ones(masks.shape, dtype=bool)
    for i in range(n - 1):
        swap = {i: i + 1, i + 1: i}
        image = np.zeros_like(masks)
        for p, (u, v) in enumerate(pos):
            q = index[tuple(sorted((swap.get(u, u), swap.get(v, v))))]
            image |= (masks >> p & 1) << q
        keep &= (deg[i] != deg[i + 1]) | (image >= masks)
    return masks[keep].tolist()


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
    pos = _edge_positions(n)
    seen: set[tuple[int, int]] = set()
    for mask in _candidate_masks(n):
        g = _mask_to_graph(n, mask, pos)
        key = canonical_key(g)
        if key not in seen:
            seen.add(key)
            yield g


def enumerate_all(n_max: int) -> Iterator[Graph]:
    """Graphs of every order from 1 up to n_max, smallest first; every
    order is checked at the call."""
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
