"""The max-flow kernel against brute-force minimum cuts on tiny networks."""

from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from minconn.flow import INF, FlowNetwork
from oracles import reference_bfs, reference_max_flow

CAPS = [0, 1, 2, 3, INF]
LIMITS = [1, 2, 3, INF]


@st.composite
def networks(draw):
    n = draw(st.integers(2, 7))
    node = st.integers(0, n - 1)
    arcs = draw(st.lists(
        st.tuples(st.booleans(), node, node, st.sampled_from(CAPS)).filter(lambda x: x[1] != x[2]),
        max_size=14,
    ))
    net = FlowNetwork(n)
    for undirected, u, v, cap in arcs:
        if undirected:
            net.add_undirected(u, v, cap)
        else:
            net.add_arc(u, v, cap)
    return net


def terminals(n):
    return st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)


def min_cuts(net, caps, s, t):
    """(minimum s-t cut value, source sides of all minimum cuts), by brute force."""
    others = [v for v in range(net.n) if v not in (s, t)]
    by_value = {}
    for r in range(len(others) + 1):
        for extra in combinations(others, r):
            side = {s, *extra}
            value = sum(c for a, c in enumerate(caps) if net.to[a ^ 1] in side and net.to[a] not in side)
            by_value.setdefault(value, []).append(side)
    best = min(by_value)
    return best, by_value[best]


def assert_flow(net, caps, s, t, value):
    """The arc pairs conserve capacity, no arc is over capacity, and every
    node but s and t conserves the flow caps - cap, which sends `value`
    from s to t."""
    for a in range(0, len(caps), 2):
        assert net.cap[a] + net.cap[a + 1] == caps[a] + caps[a + 1]
    assert all(c >= 0 for c in net.cap)
    for u in range(net.n):
        out = sum(caps[a] - net.cap[a] for a in net.adj[u])
        assert out == (value if u == s else -value if u == t else 0)


def check_flow(net, caps, s, t, limit, start=0):
    """A flow from s to t, resumed from one of value `start` already in
    net.cap, against brute-force minimum cuts."""
    value = start + net.max_flow(s, t, limit - start)
    best, sides = min_cuts(net, caps, s, t)
    assert value == min(limit, best)
    assert_flow(net, caps, s, t, value)
    if value < limit:
        assert net.residual_reachable(s) == set.intersection(*sides)


@given(networks(), st.data())
@settings(max_examples=300, deadline=None)
def test_max_flow_is_min_cut(net, data):
    s, t = data.draw(terminals(net.n))
    check_flow(net, list(net.cap), s, t, data.draw(st.sampled_from(LIMITS)))


@given(networks(), st.data())
@settings(max_examples=150, deadline=None)
def test_second_flow_after_restore(net, data):
    # the pair scans restore one snapshot between flows on one network
    caps = list(net.cap)
    for _ in range(2):
        net.cap[:] = caps
        s, t = data.draw(terminals(net.n))
        check_flow(net, caps, s, t, data.draw(st.sampled_from(LIMITS)))


@given(networks(), st.data())
@settings(max_examples=300, deadline=None)
def test_cancel_then_resume(net, data):
    # the record's G - x flows: a pair's last flow, the units on a cut arc
    # pair cancelled, the pair set to capacity 0, the flow resumed
    caps = list(net.cap)
    s, t = data.draw(terminals(net.n))
    limit = data.draw(st.sampled_from(LIMITS))
    value = net.max_flow(s, t, limit)
    assume(caps and value < INF)  # cancel walks one unit at a time
    a = data.draw(st.integers(0, len(caps) - 1))
    value -= net.cancel(caps, a, s, t)
    assert net.cap[a] == caps[a] and net.cap[a ^ 1] == caps[a ^ 1]
    assert_flow(net, caps, s, t, value)
    cut = list(caps)
    cut[a] = cut[a ^ 1] = net.cap[a] = net.cap[a ^ 1] = 0
    check_flow(net, cut, s, t, limit, value)


@given(networks(), st.data())
@settings(max_examples=300, deadline=None)
def test_search_and_flow_match_reference(net, data):
    # the same nodes reached by the same arcs in the same order, before
    # and after a flow, and the same flow arc by arc: the residual sides,
    # path decompositions and cancel walks read both
    pairs = [(s, t) for s in range(net.n) for t in range(net.n) if s != t]
    s, t = data.draw(st.sampled_from(pairs))
    limit = data.draw(st.sampled_from(LIMITS))
    ref = FlowNetwork(net.n)
    ref.to, ref.cap, ref.adj = list(net.to), list(net.cap), net.adj
    for _ in range(2):
        for u, w in pairs:
            assert list(net._bfs(u, w).items()) == list(reference_bfs(net, u, w).items())
        assert net.max_flow(s, t, limit) == reference_max_flow(ref, s, t, limit)
        assert net.cap == ref.cap


def test_cancel_walks_around_a_flow_cycle():
    # 0 -> 1 -> 2 -> 3 carries one unit and the cycle 1 -> 2 -> 4 -> 1
    # another; cancelling 2 -> 4 leaves the path and the value
    net = FlowNetwork(5)
    path = [net.add_arc(0, 1, 1), net.add_arc(1, 2, 2), net.add_arc(2, 3, 1)]
    cycle = [net.add_arc(2, 4, 1), net.add_arc(4, 1, 1)]
    caps = list(net.cap)
    for a in path + [path[1]] + cycle:
        net.cap[a] -= 1
        net.cap[a ^ 1] += 1
    assert net.cancel(caps, cycle[0], 0, 3) == 0
    assert [caps[a] - net.cap[a] for a in path + cycle] == [1, 1, 1, 0, 0]
    assert net.cancel(caps, path[1], 0, 3) == 1
    assert net.cap == caps


def test_residual_needs_a_flow_below_its_limit():
    net = FlowNetwork(3)
    net.add_arc(0, 1, 2)
    net.add_arc(1, 2, 1)
    with pytest.raises(AssertionError):
        net.residual_reachable(0)  # no flow yet
    assert net.max_flow(0, 2, 1) == 1
    with pytest.raises(AssertionError):
        net.residual_reachable(0)  # the flow reached its limit
    assert net.max_flow(0, 2) == 0
    assert net.residual_reachable(0) == {0, 1}
    with pytest.raises(AssertionError):
        net.residual_reachable(1)  # the flow came from 0


@given(networks(), st.data())
@settings(max_examples=300, deadline=None)
def test_pair_flows_equal_fresh_flows(net, data):
    # `flow` on one network, pair after pair with arc pairs cut, against
    # the same flow from zero on a fresh copy with those pairs at capacity 0
    caps = list(net.cap)
    pairs = data.draw(st.lists(terminals(net.n).map(tuple), min_size=1, max_size=2))
    calls = data.draw(st.lists(st.tuples(
        st.sampled_from(pairs),
        st.sampled_from(LIMITS),
        st.lists(st.integers(0, len(caps) - 1), unique=True) if caps else st.just([]),
    ), min_size=1, max_size=6))
    for (s, t), limit, cut in calls:
        gone = {b for a in cut for b in (a, a ^ 1)}
        fresh = FlowNetwork(net.n)
        fresh.to, fresh.adj = net.to, net.adj
        fresh.cap = [0 if a in gone else c for a, c in enumerate(caps)]
        expected = fresh.max_flow(s, t, limit)
        if expected >= INF:
            continue  # cancel walks one unit at a time
        value = net.flow(s, t, limit, cut)
        assert value == expected
        if value < limit:
            assert net.residual_reachable(s) == fresh.residual_reachable(s)
