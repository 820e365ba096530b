"""Unit-capacity oriented max-flow kernel (Dinic's algorithm).

Every connectivity routine in this package reduces to max-flow on a small
network: edge cuts use the graph directly, vertex separators use the
standard vertex-splitting transform.  The kernel therefore exposes the raw
arc arrays so callers can read off minimum cuts (residual reachability)
and decompose unit flows into paths.
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
        flow = 0
        while flow < limit:
            level = self._bfs_levels(s, t)
            if level[t] < 0:
                break
            it = [0] * self.n
            while flow < limit:
                pushed = self._dfs(s, t, limit - flow, level, it)
                if not pushed:
                    break
                flow += pushed
        return flow

    def _bfs_levels(self, s: int, t: int) -> list[int]:
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for a in self.adj[u]:
                v = self.to[a]
                if self.cap[a] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    q.append(v)
        return level

    def _dfs(self, s: int, t: int, limit: int, level: list[int], it: list[int]) -> int:
        # Iterative blocking-flow DFS along level-increasing residual arcs.
        path: list[int] = []
        u = s
        while True:
            if u == t:
                pushed = min(limit, min(self.cap[a] for a in path))
                for a in path:
                    self.cap[a] -= pushed
                    self.cap[a ^ 1] += pushed
                return pushed
            advanced = False
            while it[u] < len(self.adj[u]):
                a = self.adj[u][it[u]]
                v = self.to[a]
                if self.cap[a] > 0 and level[v] == level[u] + 1:
                    path.append(a)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if not advanced:
                if u == s:
                    return 0
                level[u] = -1
                u = self.to[path[-1] ^ 1]
                path.pop()

    def residual_reachable(self, s: int) -> set[int]:
        """Nodes reachable from s along arcs with leftover capacity."""
        seen = {s}
        q = deque([s])
        while q:
            u = q.popleft()
            for a in self.adj[u]:
                v = self.to[a]
                if self.cap[a] > 0 and v not in seen:
                    seen.add(v)
                    q.append(v)
        return seen
