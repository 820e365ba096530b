"""The max-flow kernel against brute-force minimum cuts on tiny networks."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from minconn.flow import INF, FlowNetwork

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


def check_flow(net, caps, s, t, limit):
    value = net.max_flow(s, t, limit)
    best, sides = min_cuts(net, caps, s, t)
    assert value == min(limit, best)
    # the arc pairs conserve capacity and every node but s and t conserves flow
    for a in range(0, len(caps), 2):
        assert net.cap[a] + net.cap[a + 1] == caps[a] + caps[a + 1]
    assert all(c >= 0 for c in net.cap)
    for u in range(net.n):
        out = sum(caps[a] - net.cap[a] for a in net.adj[u])
        assert out == (value if u == s else -value if u == t else 0)
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
