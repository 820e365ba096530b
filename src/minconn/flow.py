"""Max-flow kernel: shortest augmenting paths (Edmonds and Karp, J. ACM 1972).

Every connectivity routine in this package reduces to max-flow on a small
network: edge cuts use the graph directly, vertex separators use the
standard vertex-splitting transform.  The kernel therefore exposes the raw
arc arrays so callers can read off minimum cuts (residual reachability)
and decompose unit flows into paths.

Callers read the residual only after a flow that stopped below its limit.
Such a flow is maximum, and for every maximum flow the nodes reachable in
the residual graph are the source side of the one source-minimal minimum
cut, so cuts and separators do not depend on which maximum flow was found.
The flow's last, failing search has already reached exactly those nodes,
so the network keeps them instead of searching again.
"""

from __future__ import annotations

from collections import deque

INF = 10**9


class FlowNetwork:
    """A directed flow network over nodes 0..n-1."""

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]
        # (source, nodes reached) of the last flow's failing search, if any
        self._reached: tuple[int, dict[int, int]] | None = None

    def add_arc(self, u: int, v: int, cap: int, rcap: int = 0) -> int:
        """Add arc u->v with capacity `cap`; the reverse arc gets `rcap`.

        Returns the index of the forward arc.  The reverse arc is always
        at index+1.
        """
        a = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[u].append(a)
        self.to.append(u)
        self.cap.append(rcap)
        self.adj[v].append(a + 1)
        return a

    def add_undirected(self, u: int, v: int, cap: int) -> int:
        return self.add_arc(u, v, cap, cap)

    def max_flow(self, s: int, t: int, limit: int = INF) -> int:
        """Push flow from s to t, stopping once `limit` is reached."""
        assert s != t
        to, cap = self.to, self.cap
        self._reached = None
        flow = 0
        while flow < limit:
            via = self._bfs(s, t)
            if t not in via:
                self._reached = s, via
                break
            path = []
            v = t
            while v != s:
                a = via[v]
                path.append(a)
                v = to[a ^ 1]
            pushed = min(limit - flow, min(cap[a] for a in path))
            for a in path:
                cap[a] -= pushed
                cap[a ^ 1] += pushed
            flow += pushed
        return flow

    def _bfs(self, s: int, t: int) -> dict[int, int]:
        # Breadth-first search of the residual graph: maps each node reached
        # to the arc that first reached it (s to -1), stopping once t is.
        to, cap, adj = self.to, self.cap, self.adj
        via = {s: -1}
        q = deque([s])
        while q:
            for a in adj[q.popleft()]:
                v = to[a]
                if cap[a] > 0 and v not in via:
                    via[v] = a
                    if v == t:
                        return via
                    q.append(v)
        return via

    def residual_reachable(self, s: int) -> set[int]:
        """Nodes reachable from s along arcs with leftover capacity, after
        a flow from s that stopped below its limit."""
        assert self._reached is not None and self._reached[0] == s, (
            "the residual is read only after a flow from s that stopped below its limit"
        )
        return set(self._reached[1])
