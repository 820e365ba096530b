import os
import subprocess
import sys
from collections import Counter
from itertools import combinations, permutations
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minconn
from minconn.enumeration import (
    _candidate_masks,
    canonical_key,
    enumerate_all,
    enumerate_graphs,
    random_graphs,
    refinement_classes,
)
from minconn.errors import InvalidParams, TooLarge
from minconn.graphs import Graph, cartesian_product, complete_graph, cycle_graph
from oracles import graph_count, reference_canonical_key

# number of isomorphism classes of graphs on n vertices
KNOWN_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
# masks that survive the degree-order and adjacent-swap tests
CANDIDATE_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 158, 7: 1144}
# the same with the degree floor K, for n = 1..7
FLOORED_CANDIDATE_COUNTS = {
    2: [0, 0, 1, 3, 11, 62, 568],
    3: [0, 0, 0, 1, 3, 19, 168],
    4: [0, 0, 0, 0, 1, 4, 32],
}


def permuted(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, ((perm[u], perm[v]) for u, v in g.edges()))


def mask_graph(n: int, mask: int) -> Graph:
    return Graph(n, (e for p, e in enumerate(combinations(range(n), 2)) if mask >> p & 1))


def petersen_graph() -> Graph:
    return Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def edge_mask(g: Graph) -> int:
    index = {e: p for p, e in enumerate(combinations(range(g.n), 2))}
    return sum(1 << index[tuple(sorted(e))] for e in g.edges())


def reference_graphs(n: int) -> list[Graph]:
    """The unpruned sweep: every mask whose degrees are nondecreasing by
    label, in increasing order, keeping the first mask of each canonical
    key."""
    pos = list(combinations(range(n), 2))
    incidence = [sum(1 << p for p, e in enumerate(pos) if v in e) for v in range(n)]
    seen, out = set(), []
    for mask in range(1 << len(pos)):
        prev = 0
        for inc in incidence:
            deg = (mask & inc).bit_count()
            if deg < prev:
                break
            prev = deg
        else:
            g = Graph(n, (e for p, e in enumerate(pos) if mask >> p & 1))
            key = canonical_key(g)
            if key not in seen:
                seen.add(key)
                out.append(g)
    return out


def is_candidate(g: Graph) -> bool:
    """The definition of a candidate mask, by explicit relabelling:
    degrees nondecreasing by label, and no swap of two adjacent labels of
    equal degree gives a smaller mask."""
    degs = g.degrees()
    for i in range(g.n - 1):
        if degs[i] > degs[i + 1]:
            return False
        swap = list(range(g.n))
        swap[i], swap[i + 1] = i + 1, i
        if degs[i] == degs[i + 1] and edge_mask(permuted(g, swap)) < edge_mask(g):
            return False
    return True


class TestExhaustive:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_class_counts(self, n):
        assert sum(1 for _ in enumerate_graphs(n)) == KNOWN_COUNTS[n]

    def test_seven_vertex_count(self):
        assert sum(1 for _ in enumerate_graphs(7)) == KNOWN_COUNTS[7]

    def test_burnside_counts(self):
        # OEIS A000088
        assert [graph_count(n) for n in range(1, 9)] == [1, 2, 4, 11, 34, 156, 1044, 12346]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_stream_length_is_the_burnside_count(self, n):
        assert len(list(enumerate_graphs(n))) == graph_count(n)

    def test_eight_vertex_candidates_have_every_class_once(self):
        # past MAX_EXHAUSTIVE_N: the keys of the 14,822 candidates number
        # exactly the classes, so equal keys never join two classes here
        keys = {canonical_key(mask_graph(8, mask)) for mask in _candidate_masks(8)}
        assert len(keys) == graph_count(8)

    def test_all_orders_cumulative(self):
        assert sum(1 for _ in enumerate_all(5)) == 52

    def test_no_duplicate_keys(self):
        keys = [canonical_key(g) for g in enumerate_graphs(5)]
        assert len(keys) == len(set(keys))

    def test_orders_are_exact(self):
        assert all(g.n == 6 for g in enumerate_graphs(6))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_same_graphs_as_unpruned_sweep(self, n):
        assert [g.edges() for g in enumerate_graphs(n)] == [
            g.edges() for g in reference_graphs(n)
        ]

    def test_candidate_counts(self):
        assert {n: len(_candidate_masks(n)) for n in range(1, 8)} == CANDIDATE_COUNTS

    @pytest.mark.parametrize("n", range(1, 7))
    def test_candidates_match_their_definition(self, n):
        pos = list(combinations(range(n), 2))
        expected = [
            mask
            for mask in range(1 << len(pos))
            if is_candidate(Graph(n, (e for p, e in enumerate(pos) if mask >> p & 1)))
        ]
        assert _candidate_masks(n) == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_each_graph_is_its_least_degree_sorted_mask(self, n):
        for g in enumerate_graphs(n):
            degs = g.degrees()
            least = min(
                edge_mask(permuted(g, list(perm)))
                for perm in permutations(range(n))
                # perm sends v to perm[v]; keep the new degrees nondecreasing
                if all(degs[perm.index(i)] <= degs[perm.index(i + 1)] for i in range(n - 1))
            )
            assert edge_mask(g) == least, g.edges()

    def test_matches_networkx_atlas(self):
        nx = pytest.importorskip("networkx")
        emitted = {canonical_key(g) for n in range(1, 8) for g in enumerate_graphs(n)}
        matched = Counter()
        for h in nx.graph_atlas_g():
            if 1 <= h.number_of_nodes() <= 7:
                h = nx.convert_node_labels_to_integers(h)
                key = canonical_key(Graph(h.number_of_nodes(), h.edges()))
                assert key in emitted
                matched[key] += 1
        assert set(matched.values()) == {1} and len(matched) == len(emitted)
        assert Counter(n for n, _ in matched) == KNOWN_COUNTS

    @pytest.mark.parametrize("n", range(1, 8))
    def test_floored_candidates_are_the_filtered_candidates(self, n):
        pos = list(combinations(range(n), 2))
        floors = {
            mask: Graph(n, (e for p, e in enumerate(pos) if mask >> p & 1)).min_degree()
            for mask in _candidate_masks(n)
        }
        for k in range(7):
            assert _candidate_masks(n, k) == [m for m, d in floors.items() if d >= k], k

    @pytest.mark.parametrize("k", range(1, 7))
    def test_floored_stream_is_the_filtered_stream(self, k, corpus7):
        assert [g.edges() for g in enumerate_all(7, k)] == [
            g.edges() for g in corpus7 if g.min_degree() >= k
        ]

    def test_floored_candidate_counts(self):
        assert {
            k: [len(_candidate_masks(n, k)) for n in range(1, 8)] for k in FLOORED_CANDIDATE_COUNTS
        } == FLOORED_CANDIDATE_COUNTS

    def test_floored_candidate_counts_at_eight_vertices(self):
        # past MAX_EXHAUSTIVE_N, so asked of the recursion directly
        assert [len(_candidate_masks(8, k)) for k in (3, 4)] == [3281, 541]

    def test_cap(self):
        with pytest.raises(TooLarge):
            next(enumerate_graphs(8))
        with pytest.raises(InvalidParams):
            next(enumerate_graphs(0))


class TestCanonicalKey:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_candidates_match_reference(self, n):
        for mask in _candidate_masks(n):
            g = mask_graph(n, mask)
            assert canonical_key(g) == reference_canonical_key(g), mask

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, data):
        n = data.draw(st.integers(2, 9))
        all_pairs = list(combinations(range(n), 2))
        g = Graph(n, data.draw(st.lists(st.sampled_from(all_pairs), unique=True)))
        # the reference keeps up to the product of its class sizes'
        # factorials in prefixes; the symmetric graphs past 8! are the
        # named ones below
        sizes = Counter(refinement_classes(g)).values()
        if prod(map(factorial, sizes)) <= factorial(8):
            assert canonical_key(g) == reference_canonical_key(g)
        else:
            assert canonical_key(g) == canonical_key(permuted(g, list(reversed(range(n)))))

    def test_symmetric_graphs_match_reference(self):
        square = cartesian_product(complete_graph(2), complete_graph(2))
        named = [complete_graph(n) for n in range(1, 9)] + [cycle_graph(n) for n in range(3, 10)]
        named += [
            Graph(6, [(u, v) for u in range(3) for v in range(3, 6)]),  # K_{3,3}
            cartesian_product(square, complete_graph(2)),  # Q_3
            petersen_graph(),
        ]
        for g in named:
            assert canonical_key(g) == reference_canonical_key(g), g.edges()

    def test_large_symmetric_graphs_are_cheap(self):
        # the reference would keep 10! tied prefixes on the first two
        assert canonical_key(complete_graph(10)) == (10, (1 << 45) - 1)
        assert canonical_key(Graph(10)) == (10, 0)
        g = petersen_graph()
        assert canonical_key(g) == canonical_key(permuted(g, [9 - v for v in range(10)]))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_invariant_under_relabeling(self, data):
        n = data.draw(st.integers(2, 7))
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(all_pairs), unique=True))
        g = Graph(n, edges)
        perm = data.draw(st.permutations(range(n)))
        assert canonical_key(g) == canonical_key(permuted(g, list(perm)))

    def test_distinguishes_path_from_star(self):
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert canonical_key(path) != canonical_key(star)

    def test_every_relabeling_of_small_graphs(self):
        # exhaustively permute every 4-vertex graph
        from itertools import permutations

        for g in enumerate_graphs(4):
            base = canonical_key(g)
            for perm in permutations(range(4)):
                assert canonical_key(permuted(g, list(perm))) == base


class TestRandomGraphs:
    def test_deterministic_by_seed(self):
        a = [sorted(g.edges()) for g in random_graphs(40, 8, seed=11)]
        b = [sorted(g.edges()) for g in random_graphs(40, 8, seed=11)]
        assert a == b

    def test_seed_changes_stream(self):
        a = [sorted(g.edges()) for g in random_graphs(40, 8, seed=1)]
        b = [sorted(g.edges()) for g in random_graphs(40, 8, seed=2)]
        assert a != b

    def test_orders_in_range(self):
        assert all(2 <= g.n <= 6 for g in random_graphs(60, 6, seed=3))

    def test_params_validated(self):
        with pytest.raises(InvalidParams):
            next(random_graphs(-1, 8))
        with pytest.raises(InvalidParams):
            next(random_graphs(5, 1))


def test_cli_import_leaves_numpy_unloaded():
    # nothing imports numpy, and the full sweep runs where it cannot be imported
    src = str(Path(minconn.__file__).resolve().parents[1])
    probe = (
        "import sys, minconn.cli; print('numpy' in sys.modules); "
        "sys.modules['numpy'] = None; "
        "sys.exit(minconn.cli.main(['enumerate', '--nmax', '7']))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    first, *graphs = out.stdout.splitlines()
    assert first == "False"
    assert len(graphs) == 1252
