"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with output visible:

    python3 -m pytest tests/test_acceptance.py -v -s

The corpus for the exhaustive criteria is every isomorphism class on up
to 7 vertices plus 1000 seeded random graphs on up to 8; each criterion
prints a single summary line and fails loudly with the offending data
otherwise.
"""

import math

import pytest

from minconn.connectivity import edge_connectivity, vertex_connectivity
from minconn.constructions import (
    band_graph,
    cycle_clique_strong,
    multipath,
    path_square_example,
)
from minconn.enumeration import enumerate_all, random_graphs
from minconn.families import (
    ball,
    certify_essential_edges,
    end_degree_estimate,
    make_family,
)
from minconn.graphs import external_neighborhood, small_degree_set
from minconn.minimality import MinimalityClass, check_class, classify
from minconn.witnesses import (
    crossing_separators_witness,
    default_profound_region,
    edge_min_witness_pair,
    vertex_min_edge_witness_pair,
)
from oracles import brute_force_connectivity

A = MinimalityClass.EDGE_MIN_CONN
B = MinimalityClass.VERTEX_MIN_CONN
C = MinimalityClass.EDGE_MIN_EDGE_CONN
D = MinimalityClass.VERTEX_MIN_EDGE_CONN


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    graphs = [g for g in enumerate_all(7) if g.n >= 2]
    graphs += list(random_graphs(1000, 8, seed=0))
    return graphs


@pytest.fixture(scope="module")
def members(corpus):
    """Corpus graphs by (k, class)."""
    table = {(k, cls): [] for k in (1, 2, 3, 4) for cls in MinimalityClass}
    for g in corpus:
        for k in (1, 2, 3, 4):
            for cls in classify(g, k).member_classes():
                table[(k, cls)].append(g)
    return table


def test_criterion_1_oracle_equivalence(corpus):
    mismatches = [
        g
        for g in corpus
        if (vertex_connectivity(g), edge_connectivity(g)) != brute_force_connectivity(g)
    ]
    report(
        "criterion 1 (connectivity oracles agree)",
        not mismatches,
        f"{len(corpus)} graphs, {len(mismatches)} mismatches",
    )


def test_criterion_2_edge_min_degree_counts(members):
    checked, violations = 0, []
    for k in (1, 2, 3, 4):
        for g in members[(k, A)]:
            checked += 1
            v_k = small_degree_set(g, k)
            need = max(math.ceil(((k - 1) * g.n + 2 * k) / (2 * k - 1)), k + 1, max(g.degrees()))
            if g.min_degree() != k or len(v_k) < need:
                violations.append((g, k))
    report(
        "criterion 2 (edge-minimal k-connected degree counts)",
        checked > 80 and not violations,
        f"{checked} members, {len(violations)} violations",
    )


def test_criterion_3_vertex_min_degree_counts(members):
    checked, violations = 0, []
    for k in (2, 3, 4):
        for g in members[(k, B)]:
            checked += 1
            if len(small_degree_set(g, (3 * k) // 2 - 1)) < 2:
                violations.append((g, k))
    tight = []
    for k in (4, 6):
        for length in (4, 5, 6):
            g = cycle_clique_strong(k, length)
            if not (
                set(g.degrees()) == {3 * k // 2 - 1}
                and check_class(g, B, k).holds
            ):
                tight.append((k, length))
    report(
        "criterion 3 (vertex-minimal k-connected degree counts + tightness)",
        checked > 100 and not violations and not tight,
        f"{checked} members, {len(violations)} violations, "
        f"{len(tight)} failed tight constructions",
    )


def test_criterion_4_edge_min_edge_conn_k3(members):
    violations = [g for g in members[(3, C)] if len(small_degree_set(g, 3)) < 4]
    six = all(
        len(small_degree_set(path_square_example(length).graph, 3)) == 6
        for length in (12, 20)
    )
    report(
        "criterion 4 (four degree-3 vertices at k=3; squared-path examples)",
        len(members[(3, C)]) > 20 and not violations and six,
        f"{len(members[(3, C)])} members, {len(violations)} violations, "
        f"six-vertex examples {'ok' if six else 'broken'}",
    )


def test_criterion_5_vertex_min_edge_conn_counts(members):
    checked, violations, small_exceptions = 0, [], []
    for k in (2, 3, 4):
        for g in members[(k, D)]:
            checked += 1
            v_k = small_degree_set(g, k)
            if len(v_k) < 2:
                violations.append((g, k))
            elif k == 2 and len(v_k) < 4:
                small_exceptions.append(g)
    # the triangle is the unique graph where the four-vertex bound for
    # k=2 fails: it is vertex-minimally 2-edge-connected on 3 vertices
    # (the random stream repeats it, so compare up to isomorphism)
    unique_triangle = bool(small_exceptions) and all(
        g.n == 3 and g.m == 3 for g in small_exceptions
    )
    bands_ok = True
    for k in (3, 4, 5):
        for length in (2, 4):
            lg = band_graph(k, length)
            ab = sorted((lg.index_of("a"), lg.index_of("b")))
            if small_degree_set(lg.graph, k) != ab or any(
                lg.graph.degree(v) != k for v in ab
            ):
                bands_ok = False
    report(
        "criterion 5 (vertex-minimal k-edge-connected counts; band examples)",
        checked > 100 and not violations and unique_triangle and bands_ok,
        f"{checked} members, {len(violations)} below two, "
        f"triangle is the unique k=2 exception: {unique_triangle}, "
        f"bands {'ok' if bands_ok else 'broken'}",
    )


def test_criterion_6_procedure_traces(members):
    failures = []

    traced = vacuous = 0
    for k in (2, 3, 4):
        for g in members[(k, B)]:
            region = default_profound_region(g, k)
            if region is None:
                vacuous += 1  # complete graph: the argument never starts
                continue
            t = crossing_separators_witness(g, region, k)
            traced += 1
            covers = t.covers
            pairing = (
                len(covers["C1D1"]) + len(covers["C2D2"]) == 2 * k
                and len(covers["C1D2"]) + len(covers["C2D1"]) == 2 * k
            )
            quadrants_covered = all(
                external_neighborhood(g, quad) <= set(covers[name])
                for name, quad in t.quadrants.items()
            )
            small = set(t.small_set)
            degrees_ok = all(
                g.degree(v) <= k + len(small) - 1 <= 3 * k // 2 - 1 for v in small
            )
            if not (pairing and quadrants_covered and degrees_ok):
                failures.append(("crossing-separators", g, k))

    pairs_c = 0
    for k in (1, 2, 3, 4):
        for g in members[(k, C)]:
            t = edge_min_witness_pair(g, k)
            pairs_c += 1
            w1, w2 = t.witnesses
            if w1 == w2 or g.degree(w1) != k or g.degree(w2) != k:
                failures.append(("cut-splitting", g, k))

    pairs_d = 0
    for k in (2, 3, 4):
        for g in members[(k, D)]:
            t = vertex_min_edge_witness_pair(g, k)
            pairs_d += 1
            w1, w2 = t.witnesses
            if w1 == w2 or g.degree(w1) != k or g.degree(w2) != k:
                failures.append(("region-descent", g, k))

    report(
        "criterion 6 (constructive procedures on every class member)",
        traced > 50 and pairs_c > 200 and pairs_d > 100 and not failures,
        f"{traced} traces (+{vacuous} vacuous complete), {pairs_c} cut-splitting "
        f"pairs, {pairs_d} region-descent pairs, {len(failures)} failures",
    )


def test_criterion_7_end_degrees():
    bad = []

    def expect(spec, mode, value, depth=1, op="=="):
        f = make_family(spec)
        end = f.ends(depth)[0]
        est = end_degree_estimate(f, end, mode=mode)
        ok = est.converged and (
            est.value == value if op == "==" else est.value > value
        )
        if not ok:
            bad.append((spec, mode, est.value))

    expect("double-ray", "vertex", 1)
    expect("double-ray", "edge", 1)
    expect("dr-square", "vertex", 2)
    expect("dr-square", "edge", 3)
    for k in (2, 3):
        expect(f"strong-dr:k={k}", "vertex", k)
        expect(f"strong-dr:k={k}", "edge", k, op=">")  # edge degree exceeds k
        expect(f"cartesian-dr:k={k}", "vertex", k)
    for l in (4, 8):
        expect(f"ray-bundle:k=4,l={l}", "vertex", l)
    expect("clique-tree:r=2,k=4", "edge", 4, depth=2)

    ct = make_family("clique-tree:r=2,k=4")
    b4 = ball(ct, 4)
    internal_degs = {b4.graph.degree(i) for i in range(b4.frontier.start)}
    degrees_ok = min(internal_degs) == 8 and 4 not in internal_degs

    report(
        "criterion 7 (end degrees of the infinite families)",
        not bad and degrees_ok,
        f"{len(bad)} wrong estimates; clique-tree ball(4) internal degrees "
        f"min {min(internal_degs)}",
    )


def test_criterion_8_essential_edge_certification():
    ct = certify_essential_edges(make_family("clique-tree:r=2,k=4"), 2, 2, 4)
    sq = certify_essential_edges(make_family("dr-square"), 4, 2, 3)
    report(
        "criterion 8 (every truncation edge certified to lie in a k-cut)",
        ct.ratio == 1.0 and sq.ratio == 1.0 and ct.total > 0 and sq.total > 0,
        f"clique-tree {ct.certified}/{ct.total}, double-ray-square "
        f"{sq.certified}/{sq.total}",
    )


def test_criterion_9_multipath_tightness():
    bad = []
    for k in (2, 3, 4):
        for m in (5, 10):
            g = multipath(k, m)
            if not check_class(g, C, k).holds:
                bad.append((k, m, "not edge-minimal"))
            elif small_degree_set(g, k) != [0, m - 1]:
                bad.append((k, m, "wrong witness set"))
    report(
        "criterion 9 (multigraph paths: exactly the two endpoint witnesses)",
        not bad,
        f"6 multipath instances, {len(bad)} failures",
    )
