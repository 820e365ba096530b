import ast
import copy
import json
from dataclasses import dataclass
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from minconn import families
from minconn.connectivity import max_disjoint_paths
from minconn.errors import InvalidParams, NotConverged
from minconn.families import (
    BALL_BUDGET,
    FAMILY_KINDS,
    CliqueTree,
    DoubleRay,
    Family,
    _blocks_containing,
    _certificate_separates,
    _certify_ball,
    _oracle_ball,
    ball,
    certify_essential_edges,
    end_degree_estimate,
    find_end,
    make_family,
)
from minconn.flow import FlowNetwork
from minconn.graphs import (
    Graph,
    cartesian_product,
    complete_graph,
    cycle_graph,
    path_graph,
    strong_product,
)
from oracles import (FAMILY_CLAIMS, check_family_claims, family_claims, oracle_separates,
                     reference_certify_blocks, whole_graph_flow)

ALL_SPECS = [
    "double-ray",
    "dr-square",
    "strong-dr:k=2",
    "cartesian-dr:k=2",
    "multipath-inf:k=3",
    "strong-tree:r=3,k=2",
    "cartesian-tree:r=3,k=2",
    "clique-tree:r=2,k=4",
    "ray-bundle:k=4,l=8",
]

# The locality test's cases: the pinned ones, whose doubly padded ball
# reaches 299,593 vertices at (2, 2, 4), then every radius 0-3 and pad 1-2
# at rk = 2, 3, 4, 6, 8 whose ball(radius + 2 pad) has at most 5,000
# vertices, with cut size k.
CLIQUE_TREE_CERTIFY_CASES = list(dict.fromkeys([
    ("clique-tree:r=2,k=4", 2, 2, 4),
    ("clique-tree:r=2,k=4", 1, 2, 4),
    ("clique-tree:r=1,k=3", 2, 1, 3),
    ("clique-tree:r=3,k=2", 2, 1, 2),
    ("clique-tree:r=2,k=2", 2, 2, 2),
    ("clique-tree:r=2,k=3", 1, 1, 2),
    ("clique-tree:r=2,k=3", 2, 1, 4),
    ("clique-tree:r=2,k=1", 3, 1, 1),
    *((f"clique-tree:r={r},k={k}", radius, pad, k)
      for r, k in [(1, 2), (2, 1), (1, 3), (2, 2), (3, 2), (2, 3), (2, 4)]
      for radius in range(4)
      for pad in (1, 2)
      if CliqueTree(r, k).ball_size(radius + 2 * pad) <= 5000),
]))


class TestMakeFamily:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_round_trip(self, spec):
        f = make_family(spec)
        assert f.describe() == spec
        assert make_family(f.describe()) == f

    def test_unknown_kind(self):
        with pytest.raises(InvalidParams):
            make_family("moebius-ladder")

    def test_unknown_param(self):
        with pytest.raises(InvalidParams):
            make_family("strong-dr:q=2")

    def test_missing_param(self):
        with pytest.raises(InvalidParams):
            make_family("clique-tree:r=2")

    def test_bad_int(self):
        with pytest.raises(InvalidParams):
            make_family("strong-dr:k=two")

    @pytest.mark.parametrize("spec", ["clique-tree:r=1,k=2,k=3", "ray-bundle:l=4,k=4,l=8",
                                      "strong-dr:k=2,k=2"])
    def test_repeated_param(self, spec):
        # the last value must not silently win, not even an equal one
        with pytest.raises(InvalidParams, match="twice"):
            make_family(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            "ray-bundle:k=3,l=6",   # k must be even
            "ray-bundle:k=4,l=6",   # k must divide l
            "ray-bundle:k=4,l=2",   # l >= k
            "strong-dr:k=1",
            "cartesian-dr:k=1",
            "strong-tree:r=2,k=2",
            "cartesian-tree:r=3,k=1",
            "clique-tree:r=1,k=1",  # rk >= 2
            "multipath-inf:k=0",
        ],
    )
    def test_parameter_guards(self, spec):
        with pytest.raises(InvalidParams):
            make_family(spec)


class TestBall:
    def test_double_ray_sizes(self):
        f = make_family("double-ray")
        assert [ball(f, r).graph.n for r in range(5)] == [1, 3, 5, 7, 9]

    def test_indexing_is_prefix_stable(self):
        f = make_family("dr-square")
        b3, b4 = ball(f, 3), ball(f, 4)
        assert b4.tags[: len(b3.tags)] == b3.tags

    def test_frontier_and_internal(self):
        f = make_family("dr-square")
        b = ball(f, 3)
        assert all(b.dist[i] == 3 for i in b.frontier)
        assert b.frontier.stop == b.graph.n
        assert all(b.dist[i] < 3 for i in range(b.frontier.start))

    def test_frontier_edges_present(self):
        # two tags at full radius can still be adjacent; the ball keeps
        # that edge even though neither vertex gets expanded
        f = make_family("strong-dr:k=2")
        b = ball(f, 3)
        i, j = b.index[(3, 0)], b.index[(3, 1)]
        assert b.dist[i] == b.dist[j] == 3
        assert b.graph.has_edge(i, j)

    def test_cached(self):
        f = make_family("double-ray")
        assert ball(f, 3) is ball(f, 3)

    def test_negative_radius(self):
        with pytest.raises(InvalidParams):
            ball(make_family("double-ray"), -1)

    def test_over_budget_is_refused_at_the_first_vertex_over(self, monkeypatch):
        # ball(r) of the double ray has 2r + 1 vertices; radius 11 is
        # asked nowhere else, so `ball` cannot answer from its cache.
        f = make_family("double-ray")
        monkeypatch.setattr(families, "BALL_BUDGET", 21)
        assert len(_oracle_ball(f, 10).tags) == 21
        with pytest.raises(InvalidParams, match=r"ball\(11\) of double-ray has more than 21 vertices"):
            ball(f, 11)

    def test_over_budget_stops_inside_a_layer(self, monkeypatch):
        # An rk = 8 clique tree's layers hold 1, 8, 64, 512, ... vertices.
        # With a budget of 20 the pass stops at vertex 21, within the
        # third neighbour list it reads, not at the end of layer 2.
        f = make_family("clique-tree:r=2,k=4")
        calls = []
        oracle = type(f).neighbors
        monkeypatch.setattr(type(f), "neighbors", lambda self, tag: calls.append(tag) or oracle(self, tag))
        monkeypatch.setattr(families, "BALL_BUDGET", 20)
        with pytest.raises(InvalidParams, match="more than 20 vertices"):
            _oracle_ball(f, 9)
        assert len(calls) == 3

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_structure_matches_oracle(self, spec):
        f = make_family(spec)
        b = ball(f, 2 if spec.startswith("clique-tree") else 3)
        n = len(b.tags)
        assert [b.index[t] for t in b.tags] == list(range(n))
        expected = {
            (min(b.index[t], b.index[nb]), max(b.index[t], b.index[nb]))
            for t in b.tags
            for nb in f.neighbors(t)
            if nb in b.index
        }
        assert set(b.graph.edges()) == expected
        assert len(b.rows) == n and sum(map(len, b.rows)) == 2 * len(expected)
        for v in range(n):
            row = b.neighbors(v)
            assert row is b.rows[v]
            assert row == sorted(set(row)) and v not in row
            assert all(v in b.neighbors(w) for w in row)
            # BFS distances: edges span at most one layer, and every vertex
            # but the center has a neighbour one layer in
            assert all(abs(b.dist[v] - b.dist[w]) <= 1 for w in row)
            assert v == 0 or any(b.dist[w] == b.dist[v] - 1 for w in row)

    def test_repeated_oracle_entries_give_one_edge(self):
        class Doubled(DoubleRay):
            def neighbors(self, tag):
                return super().neighbors(tag) * 2 + [tag]

        b, plain = ball(Doubled(), 3), ball(DoubleRay(), 3)
        assert (b.tags, b.rows) == (plain.tags, plain.rows)

    def test_distances_beyond_one_byte(self):
        b = ball(make_family("double-ray"), 300)
        assert len(b.tags) == 601 and max(b.dist) == 300
        assert set(b.frontier) == {b.index[-300], b.index[300]}
        assert b.graph.m == 600


def same_ball(b, cold):
    """Is `b` the ball a cold `_oracle_ball` built, index order included?"""
    return ((b.radius, b.tags, list(b.index.items()), b.dist, b.rows, b.frontier)
            == (cold.radius, cold.tags, list(cold.index.items()), cold.dist, cold.rows,
                cold.frontier))


# the largest radius each spec's growth tests ask for
GROWTH_RADIUS = {spec: 4 if spec.startswith("clique-tree") else 7 for spec in ALL_SPECS}


@pytest.fixture
def cold_start(monkeypatch):
    """An empty `ball` cache and growth memo, so every `ball` call misses
    and the first for a family builds from the center."""
    monkeypatch.setattr(families, "_grown", (None, None))
    ball.cache_clear()


class TestBallGrowth:
    """A miss of `ball` grows the last ball it built when that is the same
    family's and smaller; a grown ball equals the cold build."""

    @pytest.mark.parametrize("spec", ALL_SPECS)
    @pytest.mark.parametrize("order", ["ascending", "jumps"])
    def test_grown_equals_cold(self, spec, order, cold_start):
        f = make_family(spec)
        top = GROWTH_RADIUS[spec]
        radii = range(top + 1) if order == "ascending" else (1, 3, top)
        prev = None
        for r in radii:
            before = copy.deepcopy(prev)
            b = ball(f, r)
            assert same_ball(b, _oracle_ball(f, r))
            if prev is not None:
                assert prev == before  # the start ball is not changed
                # its inner rows are shared, not rebuilt
                assert all(b.rows[i] is prev.rows[i] for i in range(prev.frontier.start))
            prev = b

    def test_interleaved_families(self, cold_start):
        # f's ball(2) is built cold, the memo then holding g's ball(1), and
        # ball(4) grows from it; so do g's ball(5) from ball(3) and f's
        # ball(7) from ball(5)
        f, g = make_family("strong-tree:r=3,k=2"), make_family("ray-bundle:k=4,l=8")
        for fam, r in [(f, 1), (g, 1), (f, 2), (f, 4), (g, 3), (g, 5), (f, 5), (f, 7), (g, 7)]:
            assert same_ball(ball(fam, r), _oracle_ball(fam, r))

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_radius_at_or_below_the_memo(self, spec, cold_start):
        f = make_family(spec)
        top = GROWTH_RADIUS[spec]
        ball(f, top)
        for r in (top, top - 1, 0):
            ball.cache_clear()
            assert same_ball(ball(f, r), _oracle_ball(f, r))
        assert families._grown[1].radius == 0

    def test_growth_reads_only_the_frontier_and_new_layers(self, cold_start, monkeypatch):
        # ball(r) of the double ray has 2r + 1 vertices, so cold builds of
        # radii 3..10 read 112 oracle lists.  Grown, ball(3) reads 7, and
        # each next radius its start's 2 frontier vertices and its own 2.
        f = make_family("double-ray")
        calls = []
        oracle = DoubleRay.neighbors
        monkeypatch.setattr(DoubleRay, "neighbors", lambda self, tag: calls.append(tag) or oracle(self, tag))
        for r in range(3, 11):
            ball(f, r)
        assert len(calls) == 7 + 7 * 4 < sum(2 * r + 1 for r in range(3, 11))

    def test_refusal_while_growing_stops_where_a_cold_build_does(self, cold_start, monkeypatch):
        # With a budget of 20 an rk = 8 tree's pass stops at vertex 21,
        # within the neighbour list of (1,), grown from ball(1) or not.
        f = make_family("clique-tree:r=2,k=4")
        start = ball(f, 1)
        before = copy.deepcopy(start)
        calls = []
        oracle = CliqueTree.neighbors
        monkeypatch.setattr(CliqueTree, "neighbors", lambda self, tag: calls.append(tag) or oracle(self, tag))
        monkeypatch.setattr(families, "BALL_BUDGET", 20)
        message = r"ball\(3\) of clique-tree:r=2,k=4 has more than 20 vertices"
        with pytest.raises(InvalidParams, match=message):
            ball(f, 3)
        grown, calls[:] = list(calls), []
        with pytest.raises(InvalidParams, match=message):
            _oracle_ball(f, 3)
        assert grown == calls[1:] == [(0,), (1,)]
        assert start == before and families._grown == (f, start)

    def test_next_ball_after_a_refusal(self, cold_start, monkeypatch):
        # ball(r) of the double ray has 2r + 1 vertices: ball(11) is over
        # a budget of 21, and ball(10) still grows from ball(4)
        f = make_family("double-ray")
        monkeypatch.setattr(families, "BALL_BUDGET", 21)
        start = ball(f, 4)
        with pytest.raises(InvalidParams, match=r"ball\(11\) of double-ray has more than 21 vertices"):
            ball(f, 11)
        b = ball(f, 10)
        assert same_ball(b, _oracle_ball(f, 10)) and b.rows[0] is start.rows[0]


# clique trees (r, k) and the largest radius whose ball the oracle build
# makes in well under a second
LEVEL_ORDER_TREES = [(1, 2, 6), (1, 3, 6), (2, 2, 6), (3, 2, 6), (2, 4, 5)]
RECHECK_TREES = ["clique-tree:r=1,k=2", "clique-tree:r=2,k=2", "clique-tree:r=1,k=3"]
# the trees the drawn-set recheck test samples, each with its largest radius
DRAWN_RECHECK_TREES = [(spec, 5) for spec in RECHECK_TREES] + [("clique-tree:r=2,k=4", 3)]


@dataclass(frozen=True)
class BallRouted(Family):
    """A clique tree's oracle that is not a `CliqueTree`, so its recheck
    takes the ball route of every other family."""

    tree: CliqueTree

    def center(self):
        return self.tree.center()

    def neighbors(self, tag):
        return self.tree.neighbors(tag)

    def in_direction(self, tag, end):
        return self.tree.in_direction(tag, end)


class TestLevelOrderIndex:
    """A clique tree's estimator, recheck and certification read balls as
    heap numbers; the arithmetic must agree with the oracle-built ball."""

    @pytest.mark.parametrize("r,k,r_max", LEVEL_ORDER_TREES)
    def test_ball_equals_oracle_build(self, r, k, r_max):
        # The heap-numbered ball the estimator reads: rows, tags, and each
        # direction's frontier as one range, the rk^m numbers from
        # index_of(direction) * rk^m + ball_size(m - 1), m = radius - depth.
        f = make_family(f"clique-tree:r={r},k={k}")
        rk = r * k
        for radius in range(r_max + 1):
            o = _oracle_ball(f, radius)
            n = len(o.tags)
            assert n == f.ball_size(radius)
            assert all(f.index_row(i, n) == list(o.neighbors(i)) for i in range(n))
            assert [f.index_of(t) for t in o.tags] == list(range(n))
            assert [f.tag_of(f.index_of(t)) for t in o.tags] == list(o.tags)
            assert [f.tag_of(i) for i in range(n)] == list(o.tags)
            for depth in range(1, min(3, radius - 1) + 1):
                # `in_direction` is prefix equality, so grouping the frontier
                # by prefix lists [i for i in o.frontier if in_direction] for
                # every direction in one pass
                in_dir: dict[tuple, list[int]] = {}
                for i in o.frontier:
                    in_dir.setdefault(o.tags[i][:depth], []).append(i)
                m = radius - depth
                for end in f.ends(depth):
                    first = f.index_of(end.direction) * rk ** m + f.ball_size(m - 1)
                    heap = range(first, first + rk ** m)
                    assert list(heap) == in_dir[end.direction]
                    assert all(f.in_direction(o.tags[i], end) for i in heap)
                assert len(in_dir) == len(f.ends(depth))

    def test_ball_keeps_its_cache(self):
        f = make_family("clique-tree:r=2,k=2")
        hits = ball.cache_info().hits
        assert ball(f, 3) is ball(f, 3)
        assert ball.cache_info().hits > hits

    @pytest.mark.parametrize("spec", RECHECK_TREES)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    def test_recheck_equals_oracle_recheck(self, spec, depth, mode):
        f = make_family(spec)
        base_tags = set(ball(f, f.base_radius()).tags)
        ends = f.ends(depth)
        for end in (ends[0], ends[len(ends) // 2], ends[-1]):
            est = end_degree_estimate(f, end, mode=mode)
            cert, radius = est.certificate, est.recheck_radius
            assert _certificate_separates(f, end, mode, cert, radius, base_tags)
            assert oracle_separates(f, end, mode, cert, radius, base_tags)
            for i in range(len(cert)):
                less = cert[:i] + cert[i + 1:]
                assert _certificate_separates(f, end, mode, less, radius, base_tags) == (
                    oracle_separates(f, end, mode, less, radius, base_tags)
                )

    @pytest.mark.parametrize("r,k,expected", [(1, 2, 17), (1, 3, 11), (2, 2, 8), (2, 4, 6), (3, 3, 5)])
    def test_max_radius_is_the_largest_ball_in_budget(self, r, k, expected):
        f = make_family(f"clique-tree:r={r},k={k}")
        assert f.max_radius() == expected
        assert f.ball_size(expected) <= BALL_BUDGET < f.ball_size(expected + 1)

    @pytest.mark.parametrize("spec", RECHECK_TREES)
    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    def test_recheck_equals_ball_route(self, spec, depth, mode):
        # Every proper subset of every converged certificate: a search of
        # one frontier vertex's component accepted some of them at r=2,
        # k=2, depth 1, although the rest of the frontier stayed joined.
        f = make_family(spec)
        routed = BallRouted(f)
        base_tags = set(ball(f, f.base_radius()).tags)
        for end in f.ends(depth):
            est = end_degree_estimate(f, end, mode=mode)
            cert, radius = est.certificate, est.recheck_radius
            for size in range(len(cert)):
                for less in combinations(cert, size):
                    assert _certificate_separates(f, end, mode, less, radius, base_tags) == (
                        _certificate_separates(routed, end, mode, less, radius, base_tags)
                    ), (end.label, less)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_recheck_on_drawn_sets(self, data):
        # Sets drawn inside the direction's subtree mark it, so the search
        # is seeded below the direction; sets drawn from the whole ball
        # mostly leave it unmarked, so its own vertex is the one seed.
        spec, r_max = data.draw(st.sampled_from(DRAWN_RECHECK_TREES))
        f = make_family(spec)
        end = data.draw(st.sampled_from(f.ends(data.draw(st.integers(1, 3)))))
        mode = data.draw(st.sampled_from(["vertex", "edge"]))
        radius = data.draw(st.integers(1, r_max))
        b = ball(f, radius)
        pool = range(len(b.tags))
        if data.draw(st.booleans()):
            pool = [v for v in pool if f.in_direction(b.tags[v], end)] or pool
        if mode == "vertex":
            drawn = data.draw(st.sets(st.sampled_from(pool), max_size=5))
            cert = tuple(b.tags[v] for v in sorted(drawn))
        else:
            edges = [(u, w) for u in pool for w in b.neighbors(u) if u < w]
            drawn = data.draw(st.sets(st.sampled_from(edges), max_size=5)) if edges else set()
            cert = tuple((b.tags[u], b.tags[w]) for u, w in sorted(drawn))
        base_tags = set(ball(f, f.base_radius()).tags)
        assert _certificate_separates(f, end, mode, cert, radius, base_tags) == (
            oracle_separates(f, end, mode, cert, radius, base_tags)
        )

    def test_recheck_source_that_is_a_target(self):
        # At radius 1 the direction's vertex (0,) is both the search's one
        # seed and a base vertex.  The certificate cuts every edge of the
        # ball, so it separates: a seed that is itself a target is not a
        # path to the base.  Drawn sets reach this case only sometimes.
        f = make_family("clique-tree:r=1,k=2")
        end = find_end(f, "branch-0")
        cert = (((), (0,)), ((), (1,)), ((0,), (1,)))
        base_tags = set(ball(f, f.base_radius()).tags)
        assert (0,) in base_tags and end.direction == (0,)
        assert oracle_separates(f, end, "edge", cert, 1, base_tags)
        assert _certificate_separates(f, end, "edge", cert, 1, base_tags)

    @pytest.mark.parametrize("label,mode", [("branch-5-0", "vertex"), ("branch-7-2", "edge")])
    def test_recheck_rows_follow_the_certificate(self, label, mode, monkeypatch):
        # The r+2 recheck lists rows only around the certificate's and the
        # base's ancestors, not the direction's subtree (149,796 rows at
        # radius 7 when it was walked).
        f = make_family("clique-tree:r=2,k=4")
        end = find_end(f, label)
        est = end_degree_estimate(f, end, mode=mode)
        assert est.recheck_radius == 7
        rows = []
        index_row = CliqueTree.index_row

        def counting_row(self, i, n):
            rows.append(i)
            return index_row(self, i, n)

        monkeypatch.setattr(CliqueTree, "index_row", counting_row)
        base_tags = set(ball(f, f.base_radius()).tags)
        assert _certificate_separates(f, end, mode, est.certificate, 7, base_tags)
        assert 0 < len(rows) <= 100

    @pytest.mark.parametrize("label,mode", [("branch-5-0", "vertex"), ("branch-7-2", "edge")])
    def test_estimator_builds_only_the_base_ball(self, label, mode, monkeypatch):
        # Radii 3-5 and the recheck at 7 read heap numbers; the base ball
        # is the one ball built.
        f = make_family("clique-tree:r=2,k=4")
        built = []

        def recording_build(fam, radius, start=None):
            built.append(radius)
            return _oracle_ball(fam, radius, start)

        monkeypatch.setattr(families, "_oracle_ball", recording_build)
        ball.cache_clear()
        est = end_degree_estimate(f, find_end(f, label), mode=mode)
        assert est.converged and est.history[-1][0] == 5
        assert built == [f.base_radius()]


class TestFamilyStructure:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_internal_degrees_declared(self, spec):
        f = make_family(spec)
        claims = family_claims(f)
        b = ball(f, min(4, f.max_radius()))
        degs = {b.graph.degree(i) for i in range(b.frontier.start) if claims.real(b.tags[i])}
        assert degs <= claims.degrees

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_direction_rays(self, spec):
        # Every direction at witness depth has ball vertices at each
        # distance from that depth on, and no vertex lies in two.
        f = make_family(spec)
        b = ball(f, 4 if spec.startswith("clique-tree") else 6)
        depth = family_claims(f).depth
        ends = f.ends(depth)
        for end in ends:
            dists = {b.dist[i] for i, t in enumerate(b.tags) if f.in_direction(t, end)}
            assert set(range(depth, b.radius + 1)) <= dists
        for t in b.tags:
            assert sum(f.in_direction(t, end) for end in ends) <= 1

    def test_two_ended_labels(self):
        f = make_family("double-ray")
        assert [e.label for e in f.ends()] == ["left", "right"]

    def test_tree_end_counts(self):
        f = make_family("strong-tree:r=3,k=2")
        assert [e.label for e in f.ends(1)] == ["branch-0", "branch-1", "branch-2"]
        assert len(f.ends(2)) == 6  # 3 root branches x 2 inner

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "kind,finite", [("strong-dr", strong_product), ("cartesian-dr", cartesian_product)]
    )
    def test_product_matches_finite_product(self, kind, finite, k):
        # Columns -m..m of the infinite product induce the finite product
        # of a path with K_k, vertex (i, c) numbered (i + m) * k + c.
        m = 3
        f = make_family(f"{kind}:k={k}")
        index = {(i, c): (i + m) * k + c for i in range(-m, m + 1) for c in range(k)}
        edges = [(index[t], index[u]) for t in index for u in f.neighbors(t) if u in index]
        assert Graph(len(index), edges) == finite(path_graph(2 * m + 1), complete_graph(k))

    def test_product_neighbour_order(self):
        # The clique first, then each base neighbour's column in clique
        # order: this order fixes ball indices, hence certificates.
        assert make_family("strong-dr:k=3").neighbors((0, 1)) == [
            (0, 0), (0, 2), (-1, 0), (-1, 1), (-1, 2), (1, 0), (1, 1), (1, 2)
        ]
        assert make_family("cartesian-dr:k=3").neighbors((0, 1)) == [
            (0, 0), (0, 2), (-1, 1), (1, 1)
        ]

    def test_find_end(self):
        f = make_family("cartesian-tree:r=3,k=2")
        end = find_end(f, "branch-2-1-0")
        assert end.direction == (2, 1, 0)
        assert find_end(f, "branch-1") == f.ends(1)[1]
        dr = make_family("strong-dr:k=2")
        assert find_end(dr, "right") == dr.ends()[1]
        for spec, label in [
            ("cartesian-tree:r=3,k=2", "branch-3"),  # root has 3 branches
            ("cartesian-tree:r=3,k=2", "branch-0-2"),  # inner vertices have 2
            ("clique-tree:r=2,k=2", "branch-0-x"),
            ("strong-dr:k=2", "branch-0"),
            ("double-ray", "up"),
        ]:
            with pytest.raises(InvalidParams):
                find_end(make_family(spec), label)

    def test_clique_tree_degrees(self):
        f = make_family("clique-tree:r=2,k=4")
        assert family_claims(f).degrees == {8, 12}

    def test_ray_bundle_degrees(self):
        f = make_family("ray-bundle:k=4,l=8")
        assert family_claims(f).degrees == {5, 7}
        assert f.base_radius() == 5  # reaches all 8 rays


# (family spec, mode, the claimed degree of every direction at the
# family's claimed depth), read off the claims table
END_DEGREES = [(spec, mode, family_claims(make_family(spec)).end_degree[mode])
               for spec in ALL_SPECS for mode in ("vertex", "edge")]


@st.composite
def graphs_with_dead_parts(draw):
    """A random graph with disjoint vertex sets A and B, plus extra
    vertices joined only to A and to each other: components of G - A
    that no path from B enters."""
    n = draw(st.integers(2, 9))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    a_side = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    rest = sorted(set(range(n)) - a_side)
    b_side = draw(st.sets(st.sampled_from(rest), min_size=1))
    dead = draw(st.integers(0, 4))
    outer = sorted(a_side) + list(range(n, n + dead))
    for d in range(n, n + dead):
        edges |= {(min(d, u), max(d, u)) for u in draw(st.sets(st.sampled_from(outer), max_size=3)) if u != d}
    return Graph(n + dead, edges), sorted(a_side), sorted(b_side)


def assert_disjoint_paths(g, res, a_side, b_side):
    """`res.paths` are `res.count` A-B paths along rows of g that meet A
    and B only at their ends, without a repeated vertex, and vertex
    disjoint (vertex mode) or edge disjoint (edge mode)."""
    a_side, b_side = set(a_side), set(b_side)
    assert len(res.paths) == res.count
    for p in res.paths:
        assert p[0] in a_side and p[-1] in b_side and len(set(p)) == len(p)
        assert not a_side & set(p[1:]) and not b_side & set(p[:-1])
        assert all(w in g.neighbors(u) for u, w in zip(p, p[1:]))
    if res.mode == "vertex":
        used = [v for p in res.paths for v in p]
    else:
        used = [frozenset(e) for p in res.paths for e in zip(p, p[1:])]
    assert len(used) == len(set(used))


class TestLiveFlow:
    """`max_disjoint_paths` runs on rows over the live part only; the
    reference `whole_graph_flow` builds a network over all of G."""

    @given(graphs_with_dead_parts(), st.sampled_from(["vertex", "edge"]))
    @settings(max_examples=300, deadline=None)
    def test_equals_whole_graph_flow(self, drawn, mode):
        g, a_side, b_side = drawn
        res = max_disjoint_paths(g, a_side, b_side, mode=mode)
        dual = res.separator if mode == "vertex" else res.cut
        assert (res.count, dual) == whole_graph_flow(g, a_side, b_side, mode)
        assert_disjoint_paths(g, res, a_side, b_side)

    @pytest.mark.parametrize("spec", [s for s in ALL_SPECS if not s.startswith("clique-tree")])
    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    def test_balls_equal_whole_graph_flow(self, spec, mode):
        # on the ball's own rows, at every radius the estimator tries
        f = make_family(spec)
        end = f.ends(family_claims(f).depth)[0]
        a_side = range(len(ball(f, f.base_radius()).tags))
        for r, _ in end_degree_estimate(f, end, mode=mode).history:
            b = ball(f, r)
            b_side = [i for i in b.frontier if f.in_direction(b.tags[i], end)]
            res = max_disjoint_paths(b, a_side, b_side, mode)
            dual = res.separator if mode == "vertex" else res.cut
            assert (res.count, dual) == whole_graph_flow(b.graph, a_side, b_side, mode)
            assert_disjoint_paths(b, res, a_side, b_side)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    def test_base_frontier_answers_for_the_base(self, spec, mode):
        # The estimator asks from the base's frontier: an inner base
        # vertex's row lies inside the base, so the paths and the dual
        # are those from the whole base.
        f = make_family(spec)
        base = ball(f, f.base_radius())
        for end in f.ends(family_claims(f).depth):
            start = f.start_radius(end)
            for r in range(start, 5 if isinstance(f, CliqueTree) else start + 3):
                b = ball(f, r)
                b_side = [i for i in b.frontier if f.in_direction(b.tags[i], end)]
                assert (max_disjoint_paths(b, base.frontier, b_side, mode)
                        == max_disjoint_paths(b, range(len(base.tags)), b_side, mode))

    def test_walks_drop_a_flow_cycle(self):
        # In these row orders the second search leaves the flow cycle
        # 1-2-3-6-1, and the walk that splits the flow into paths runs
        # round it from 1 back to 1
        rows = [[5, 1], [4, 6, 2], [1, 3], [2, 5, 6, 7], [1, 7], [0, 3], [3, 1], [3, 4]]
        g = SimpleNamespace(neighbors=rows.__getitem__)
        res = max_disjoint_paths(g, [0], [7], "edge")
        assert (res.count, res.cut) == (2, ((0, 1), (0, 5)))
        assert_disjoint_paths(g, res, [0], [7])

    @pytest.mark.parametrize("spec,label", [("dr-square", "right"), ("clique-tree:r=2,k=4", "branch-0-0")])
    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    def test_estimator_builds_no_network(self, spec, label, mode, network_sizes):
        # ball rows and heap-number rows alike
        f = make_family(spec)
        assert end_degree_estimate(f, find_end(f, label), mode=mode).converged
        assert network_sizes == []


class TestEndDegree:
    @pytest.mark.parametrize("spec,mode,expected", END_DEGREES)
    def test_exact_values(self, spec, mode, expected):
        f = make_family(spec)
        end = f.ends(family_claims(f).depth)[0]
        est = end_degree_estimate(f, end, mode=mode)
        assert est.converged
        assert est.value == est.lower == est.upper == expected
        assert est.certificate is not None
        assert est.recheck_radius == est.radius_used + 2
        values = [v for _, v in est.history]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("spec", [s for s in ALL_SPECS if not s.startswith("clique-tree")])
    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    def test_ball_recheck_passes_own_certificates(self, spec, mode):
        f = make_family(spec)
        base_tags = set(ball(f, f.base_radius()).tags)
        for end in f.ends(family_claims(f).depth):
            est = end_degree_estimate(f, end, mode=mode)
            assert _certificate_separates(
                f, end, mode, est.certificate, est.recheck_radius, base_tags
            )

    def test_recheck_rejects_joined_branch(self):
        # Without the edge ((0,), 0)-((0, 1), 0), branch-0-1 stays joined
        # to the base; a search of one seed's component (in branch-0-0)
        # would miss that and accept the set.
        f = make_family("strong-tree:r=3,k=2")
        end = find_end(f, "branch-0")
        est = end_degree_estimate(f, end, mode="edge")
        joined = frozenset((((0,), 0), ((0, 1), 0)))
        less = tuple(e for e in est.certificate if frozenset(e) != joined)
        assert len(less) == len(est.certificate) - 1
        base_tags = set(ball(f, f.base_radius()).tags)
        assert not _certificate_separates(f, end, "edge", less, est.recheck_radius, base_tags)

    @pytest.mark.parametrize(
        "spec", ["strong-tree:r=3,k=2", "cartesian-tree:r=3,k=2", "clique-tree:r=1,k=2"]
    )
    @pytest.mark.parametrize("depth", [3, 4, 5])
    @pytest.mark.parametrize("mode", ["vertex", "edge"])
    def test_deep_directions(self, spec, depth, mode):
        # The sweep starts one level below the direction, so every radius
        # measures the end's own degree; it converges whenever a window of
        # three radii fits below the family's maximum radius.
        f = make_family(spec)
        end = f.ends(depth)[-1]
        est = end_degree_estimate(f, end, mode=mode)
        expected = family_claims(f).end_degree[mode]
        assert est.history[0][0] == depth + 1
        assert {v for _, v in est.history} == {expected}
        assert est.converged == (depth + 3 <= f.max_radius())
        assert est.value == (expected if est.converged else None)

    def test_all_directions_agree(self):
        f = make_family("strong-tree:r=3,k=2")
        vals = {
            end_degree_estimate(f, end, mode="edge").value
            for end in f.ends(2)
        }
        assert vals == {4}

    def test_unconverged_is_honest(self):
        f = make_family("double-ray")
        est = end_degree_estimate(f, f.ends()[0], r_max=4)
        assert not est.converged
        assert est.value is None and est.lower == 0 and est.upper == 1

    def test_no_measured_radius_raises(self):
        # Reporting upper=0 here would claim a bound no ball measured.
        f = make_family("dr-square")
        with pytest.raises(InvalidParams):
            end_degree_estimate(f, f.ends()[0], r_max=2)
        f = make_family("ray-bundle:k=2,l=20")
        assert f.start_radius(f.ends()[0]) > 20
        with pytest.raises(InvalidParams):
            end_degree_estimate(f, f.ends()[0], r_max=20)

    def test_strict_raises(self):
        f = make_family("double-ray")
        with pytest.raises(NotConverged):
            end_degree_estimate(f, f.ends()[0], r_max=4, strict=True)

    def test_bad_mode(self):
        f = make_family("double-ray")
        with pytest.raises(InvalidParams):
            end_degree_estimate(f, f.ends()[0], mode="both")
        for window in (0, 1):  # one radius checks no agreement
            with pytest.raises(InvalidParams, match="window must be at least 2"):
                end_degree_estimate(f, f.ends()[0], window=window)

    @pytest.mark.parametrize("spec,degree", [("ray-bundle:k=4,l=4", 4), ("ray-bundle:k=4,l=8", 8)])
    def test_window_two_converges_on_the_end_degree(self, spec, degree):
        # a window of one radius took the first cut, 9 and 21, as converged
        f = make_family(spec)
        est = end_degree_estimate(f, find_end(f, "left"), mode="edge", window=2)
        assert est.converged and est.value == est.lower == degree

    def test_json_shape(self):
        f = make_family("double-ray")
        obj = end_degree_estimate(f, f.ends()[0]).to_json_obj()
        assert obj["value"] == 1 and obj["converged"] is True
        assert obj["mode"] == "vertex" and obj["end"] == "left"


def sorted_rows(g):
    """The sorted neighbour rows of `g`, as a ball stores them."""
    return [sorted(g.neighbors(v)) for v in range(g.n)]


class TestBlocks:
    # An edge is the pair (u, v), u < v, and inner when v < n_inner; the
    # kept blocks list their edges in Tarjan's pop order.
    def test_cycle_is_one_block(self):
        block_of, kept = _blocks_containing(sorted_rows(cycle_graph(5)), 5)
        assert kept == [[(0, 4), (3, 4), (2, 3), (1, 2), (0, 1)]]
        assert block_of == dict.fromkeys(kept[0], 0)

    def test_path_splits_into_bridges(self):
        block_of, kept = _blocks_containing(sorted_rows(path_graph(4)), 4)
        assert kept == [[(2, 3)], [(1, 2)], [(0, 1)]]
        assert block_of == {(2, 3): 0, (1, 2): 1, (0, 1): 2}

    def test_bowtie(self):
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        block_of, kept = _blocks_containing(sorted_rows(g), 5)
        assert kept == [[(2, 4), (3, 4), (2, 3)], [(0, 2), (1, 2), (0, 1)]]
        assert block_of[0, 1] == 1 and block_of[3, 4] == 0

    def test_untouched_blocks_dropped(self):
        # with n_inner = 2 only (0, 1) is inner: its triangle is kept whole
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        assert _blocks_containing(sorted_rows(g), 2) == ({(0, 1): 0}, [[(0, 2), (1, 2), (0, 1)]])
        assert _blocks_containing(sorted_rows(g), 1) == ({}, [])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))))
    def test_equals_networkx_blocks(self, drawn):
        nx = pytest.importorskip("networkx")
        n, pairs = drawn
        g = Graph(n, [(u, v) for u, v in pairs if u != v])
        h = nx.Graph(g.edges())
        h.add_nodes_from(range(n))
        comps = [{tuple(sorted(e)) for e in c} for c in nx.biconnected_component_edges(h)]
        for n_inner in range(n + 1):
            block_of, kept = _blocks_containing(sorted_rows(g), n_inner)
            assert sorted(map(sorted, kept)) == sorted(
                sorted(c) for c in comps if any(v < n_inner for _, v in c))
            assert all(len(set(c)) == len(c) for c in kept)
            assert block_of.keys() == {(u, v) for u, v in g.edges() if v < n_inner}
            assert all(e in kept[i] for e, i in block_of.items())


class TestCertify:
    def test_dr_square_fully_certified(self):
        rep = certify_essential_edges(make_family("dr-square"), 4, 2, 3)
        assert (rep.certified, rep.total) == (31, 31)
        assert rep.ratio == 1.0
        for e in rep.entries:
            assert e.status == "certified" and len(e.cut) == 3

    def test_clique_tree_fully_certified(self):
        rep = certify_essential_edges(make_family("clique-tree:r=2,k=4"), 1, 2, 4)
        assert (rep.certified, rep.total) == (20, 20)
        assert all(len(e.cut) == 4 for e in rep.entries)

    def test_ladder_rungs_undecided(self):
        # the rungs of the cartesian product with K^2 lie in no 2-cut;
        # the report must say so instead of inventing one
        rep = certify_essential_edges(make_family("cartesian-dr:k=2"), 4, 2, 2)
        assert (rep.certified, rep.total) == (14, 21)
        statuses = {e.status for e in rep.entries}
        assert statuses == {"certified", "undecided"}
        undecided = [e for e in rep.entries if e.status == "undecided"]
        assert len(undecided) == 7
        for e in undecided:
            (i, a), (j, b) = e.edge
            assert i == j and {a, b} == {0, 1}  # all of them are rungs

    @pytest.mark.parametrize(
        "spec,radius,pad,k,certified,total",
        [
            ("dr-square", 4, 2, 3, 31, 31),
            ("cartesian-dr:k=2", 4, 2, 2, 14, 21),
            ("strong-tree:r=3,k=2", 2, 1, 2, 0, 46),
            ("cartesian-tree:r=3,k=2", 2, 2, 2, 12, 16),
            ("ray-bundle:k=4,l=4", 5, 2, 4, 34, 196),
            ("multipath-inf:k=3", 3, 2, 3, 0, 18),
            ("clique-tree:r=2,k=2", 2, 2, 2, 30, 30),
            ("clique-tree:r=2,k=3", 2, 1, 4, 0, 84),
            ("clique-tree:r=2,k=1", 3, 1, 1, 14, 14),  # every edge a bridge
        ],
    )
    def test_certified_cuts_separate(self, spec, radius, pad, k, certified, total):
        f = make_family(spec)
        rep = certify_essential_edges(f, radius, pad, k)
        assert (rep.certified, rep.total) == (certified, total)
        big = ball(f, radius + 2 * pad)
        for e in rep.entries:
            if e.status != "certified":
                assert e.cut is None
                continue
            cut = {frozenset((big.index[a], big.index[b])) for a, b in e.cut}
            assert len(cut) == k
            assert all(big.dist[big.index[t]] <= radius + pad for edge in e.cut for t in edge)
            u, v = (big.index[t] for t in e.edge)
            seen, queue = {u}, [u]
            while queue:
                x = queue.pop()
                for y in big.graph.neighbors(x):
                    if y not in seen and frozenset((x, y)) not in cut:
                        seen.add(y)
                        queue.append(y)
            assert v not in seen

    @pytest.mark.parametrize("spec", [*ALL_SPECS, "clique-tree:r=1,k=2"])
    @pytest.mark.parametrize("radius,pad,k", [(1, 1, 1), (1, 1, 2), (2, 1, 3), (2, 2, 4), (3, 1, 4)])
    def test_record_per_block_equals_network_per_edge(self, spec, radius, pad, k):
        # One record per block, asked edge_side per edge, against a fresh
        # network per edge, on the blocks certification reads: those of
        # ball(radius) for a clique tree, of ball(radius + 2 pad) otherwise
        f = make_family(spec)
        b = _oracle_ball(f, radius if isinstance(f, CliqueTree) else radius + 2 * pad)
        got = _certify_ball(f, b, radius, pad, k)
        expected = reference_certify_blocks(f, b, radius, pad, k)
        assert json.dumps(got.to_json_obj()) == json.dumps(expected.to_json_obj())

    @pytest.mark.parametrize("spec,radius,pad,k,blocks", [
        ("dr-square", 4, 2, 3, 1),
        ("clique-tree:r=2,k=4", 2, 2, 4, 18),
    ])
    def test_one_network_per_block(self, spec, radius, pad, k, blocks, monkeypatch):
        # 31 and 180 edges; every edge of a block asks the block's record
        built = []
        init = FlowNetwork.__init__

        def spy(net, n):
            built.append(n)
            init(net, n)

        monkeypatch.setattr(FlowNetwork, "__init__", spy)
        rep = certify_essential_edges(make_family(spec), radius, pad, k)
        assert rep.certified == rep.total and len(built) == blocks

    @pytest.mark.parametrize("spec", ALL_SPECS)
    @pytest.mark.parametrize("radius", [-1, -3])
    def test_negative_radius(self, spec, radius):
        f = make_family(spec)
        before = ball.cache_info()
        with pytest.raises(InvalidParams):
            certify_essential_edges(f, radius, 1, 2)
        assert ball.cache_info() == before  # refused before any ball is asked for

    def test_clique_tree_over_budget_is_refused(self, monkeypatch):
        # ball(7) of an rk = 8 tree has 2,396,745 vertices; certification
        # asks for ball(7), and the builder refuses it at its first vertex
        # over the budget, before any block is searched
        f = make_family("clique-tree:r=2,k=4")
        monkeypatch.setattr(families, "_blocks_containing", lambda *a: pytest.fail("searched a block"))
        with pytest.raises(InvalidParams, match=r"ball\(7\) of clique-tree:r=2,k=4 has more than 300000 vertices"):
            certify_essential_edges(f, 7, 1, 4)

    @pytest.mark.parametrize("spec,radius,pad,k", CLIQUE_TREE_CERTIFY_CASES)
    def test_index_blocks_equal_whole_ball_blocks(self, spec, radius, pad, k, monkeypatch):
        # The locality claim: a clique tree's blocks read off ball(radius)
        # report exactly what Tarjan's algorithm over the whole doubly
        # padded ball gives, from one search over ball(radius)'s rows and
        # with nothing asked of the `ball` cache.
        f = make_family(spec)
        whole = _oracle_ball(f, radius + 2 * pad)
        expected = _certify_ball(f, whole, radius, pad, k)
        del whole
        searched = []

        def spy(rows, n_inner):
            searched.append(len(rows))
            return _blocks_containing(rows, n_inner)

        monkeypatch.setattr(families, "_blocks_containing", spy)
        before = ball.cache_info()
        rep = certify_essential_edges(f, radius, pad, k)
        after = ball.cache_info()
        assert json.dumps(rep.to_json_obj()) == json.dumps(expected.to_json_obj())
        assert after.hits + after.misses == before.hits + before.misses
        assert searched == [f.ball_size(radius)]


class TestValidateFamily:
    """Each family held to its entry in `oracles.FAMILY_CLAIMS` on balls."""

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_every_declared_class_satisfied(self, spec):
        f = make_family(spec)
        radius = 3 if spec.startswith("clique-tree") else 4
        assert check_family_claims(f, radius), "every family declares at least one class"

    def test_double_ray_uses_end_witnesses(self):
        # no finite vertex of the double ray has degree <= 1: both
        # guarantees must come from the two ends
        found = check_family_claims(make_family("double-ray"), 4)
        assert found == [([], ["left", "right"])] * 2

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_degrees_are_row_lengths(self, spec):
        # the check reads degrees off the neighbour rows: the ball's Graph's
        b = ball(make_family(spec), 4)
        assert [len(row) for row in b.rows] == list(b.graph.degrees())

    def test_claims_cover_every_family(self):
        # a family added without claims fails here, and ALL_SPECS, hence
        # END_DEGREES, names every kind
        assert FAMILY_CLAIMS.keys() == FAMILY_KINDS.keys()
        assert {make_family(spec).name for spec in ALL_SPECS} == FAMILY_KINDS.keys()

    def test_families_imports_no_claims(self):
        # with the claims in tests/, families.py needs neither minimality nor witnesses
        with open(families.__file__) as source:
            tree = ast.parse(source.read())
        relative = {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level}
        assert relative == {"connectivity", "errors", "graphs"}

    def test_no_family_defines_claims(self):
        claims = {"degree_set", "declared_classes", "expected_end_degree", "real_vertex",
                  "witness_end_depth"}
        kinds = [c for c in vars(families).values() if isinstance(c, type) and issubclass(c, Family)]
        assert all(claims.isdisjoint(vars(c)) for c in kinds), kinds
