from array import array

import pytest

from minconn.errors import InvalidParams, NotConverged
from minconn.families import (
    DoubleRay,
    _blocks_containing,
    ball,
    certify_essential_edges,
    end_degree_estimate,
    find_end,
    make_family,
    validate_family,
)
from minconn.graphs import (
    Graph,
    cartesian_product,
    complete_graph,
    cycle_graph,
    path_graph,
    strong_product,
)

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


class TestMakeFamily:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_round_trip(self, spec):
        assert make_family(spec).describe() == spec

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
        assert set(b.internal()) == set(range(b.graph.n)) - b.frontier

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

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_structure_matches_oracle(self, spec):
        f = make_family(spec)
        b = ball(f, 2 if spec.startswith("clique-tree") else 3)
        n = len(b.tags)
        assert [b.index[t] for t in b.tags] == list(range(n))
        for t, d in zip(b.tags, b.dist):
            assert f.distance(t) in (None, d)
        expected = {
            (min(b.index[t], b.index[nb]), max(b.index[t], b.index[nb]))
            for t in b.tags
            for nb in f.neighbors(t)
            if nb in b.index
        }
        assert set(b.graph.edges()) == expected
        assert b.offsets[0] == 0 and b.offsets[n] == len(b.targets) == 2 * len(expected)
        for v in range(n):
            row = list(b.neighbors(v))
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
        assert (b.tags, b.offsets, b.targets) == (plain.tags, plain.offsets, plain.targets)

    def test_distances_beyond_one_byte(self):
        b = ball(make_family("double-ray"), 300)
        assert len(b.tags) == 601 and max(b.dist) == 300
        assert b.frontier == {b.index[-300], b.index[300]}
        assert b.graph.m == 600


class TestFamilyStructure:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_internal_degrees_declared(self, spec):
        f = make_family(spec)
        b = ball(f, min(4, f.max_radius()))
        degs = {
            b.graph.degree(i)
            for i in b.internal()
            if f.real_vertex(b.tags[i])
        }
        assert degs <= set(f.degree_set())

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_direction_rays(self, spec):
        f = make_family(spec)
        for end in f.ends(f.witness_end_depth()):
            tags = [f.direction_tag_at(end, d) for d in range(1, 7)]
            assert len(set(tags)) == 6
            start = f.witness_end_depth()
            for d, t in enumerate(tags, start=1):
                if f.distance(t) is not None:
                    assert f.distance(t) == d
                if d >= start:
                    assert f.in_direction(t, end)

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

    def test_find_end(self):
        f = make_family("cartesian-tree:r=3,k=2")
        end = find_end(f, "branch-2-1-0")
        assert (end.family, end.direction) == ("cartesian-tree:r=3,k=2", (2, 1, 0))
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
        assert set(f.degree_set()) == {8, 12}

    def test_ray_bundle_degrees(self):
        f = make_family("ray-bundle:k=4,l=8")
        assert set(f.degree_set()) == {5, 7}
        assert f.base_radius() == 5  # reaches all 8 rays


# (family spec, mode) -> exact end degree for every direction at the
# family's witness depth
END_DEGREES = [
    ("double-ray", "vertex", 1),
    ("double-ray", "edge", 1),
    ("dr-square", "vertex", 2),
    ("dr-square", "edge", 3),
    ("strong-dr:k=2", "vertex", 2),
    ("strong-dr:k=2", "edge", 4),
    ("cartesian-dr:k=2", "vertex", 2),
    ("cartesian-dr:k=2", "edge", 2),
    ("multipath-inf:k=3", "vertex", 1),
    ("multipath-inf:k=3", "edge", 3),
    ("strong-tree:r=3,k=2", "vertex", 2),
    ("strong-tree:r=3,k=2", "edge", 4),
    ("cartesian-tree:r=3,k=2", "vertex", 2),
    ("cartesian-tree:r=3,k=2", "edge", 2),
    ("clique-tree:r=2,k=4", "vertex", 1),
    ("clique-tree:r=2,k=4", "edge", 4),
    ("ray-bundle:k=4,l=8", "vertex", 8),
    ("ray-bundle:k=4,l=8", "edge", 8),
]


class TestEndDegree:
    @pytest.mark.parametrize("spec,mode,expected", END_DEGREES)
    def test_exact_values(self, spec, mode, expected):
        f = make_family(spec)
        end = f.ends(f.witness_end_depth())[0]
        assert f.expected_end_degree(end, mode) == expected
        est = end_degree_estimate(f, end, mode=mode)
        assert est.converged
        assert est.value == est.lower == est.upper == expected
        assert est.certificate is not None
        assert est.recheck_radius == est.radius_used + 2
        values = [v for _, v in est.history]
        assert values == sorted(values, reverse=True)

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
        assert f.start_radius() > 20
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
        with pytest.raises(InvalidParams):
            end_degree_estimate(f, f.ends()[0], window=0)

    def test_json_shape(self):
        f = make_family("double-ray")
        obj = end_degree_estimate(f, f.ends()[0]).to_json_obj()
        assert obj["value"] == 1 and obj["converged"] is True
        assert obj["mode"] == "vertex" and obj["end"] == "left"


def csr(g):
    """The CSR arrays of `g`, as a ball stores them."""
    offsets, targets = array("i", [0]), array("i")
    for v in range(g.n):
        targets.extend(sorted(g.neighbors(v)))
        offsets.append(len(targets))
    return offsets, targets


class TestBlocks:
    def test_cycle_is_one_block(self):
        g = cycle_graph(5)
        code_block, kept = _blocks_containing(*csr(g), {0 * 5 + 1})
        assert len(kept) == 1 and len(kept[0]) == 5

    def test_path_splits_into_bridges(self):
        g = path_graph(4)
        wanted = {u * 4 + v for u, v in g.edges()}
        code_block, kept = _blocks_containing(*csr(g), wanted)
        assert len(kept) == 3
        assert all(len(b) == 1 for b in kept)

    def test_bowtie(self):
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        code_block, kept = _blocks_containing(*csr(g), {0 * 5 + 1, 3 * 5 + 4})
        assert len(kept) == 2
        assert code_block[0 * 5 + 1] != code_block[3 * 5 + 4]
        assert all(len(b) == 3 for b in kept)

    def test_untouched_blocks_dropped(self):
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        code_block, kept = _blocks_containing(*csr(g), {0 * 5 + 1})
        assert len(kept) == 1 and len(code_block) == 1


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


class TestValidateFamily:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_every_declared_class_satisfied(self, spec):
        f = make_family(spec)
        radius = 3 if spec.startswith("clique-tree") else 4
        results = validate_family(f, radius=radius)
        assert results, "every family declares at least one class"
        for res in results:
            assert res.degrees_ok
            assert res.satisfied
            assert len(res.vertex_witnesses) + len(res.end_witnesses) >= 2

    def test_double_ray_uses_end_witnesses(self):
        # no finite vertex of the double ray has degree <= 1: both
        # guarantees must come from the two ends
        results = validate_family(make_family("double-ray"), radius=4)
        for res in results:
            assert res.vertex_witnesses == ()
            assert set(res.end_witnesses) == {"left", "right"}

    def test_json_shape(self):
        res = validate_family(make_family("dr-square"), radius=4)[0]
        obj = res.to_json_obj()
        assert obj["class"] == "c" and obj["k"] == 3 and obj["satisfied"] is True
