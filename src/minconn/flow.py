"""Max-flow kernel: shortest augmenting paths (Edmonds and Karp, J. ACM 1972).

Every connectivity routine in this package reduces to max-flow on a small
network: edge cuts use the graph directly, vertex separators use the
standard vertex-splitting transform.  Callers build a network, ask
`flow`, and read the answer back as a residual side (minimum cuts) or as
unit paths; this is the only module that reads arcs and capacities.

Callers read the residual only after a flow that stopped below its limit.
Such a flow is maximum, and for every maximum flow the nodes reachable in
the residual graph are the source side of the one source-minimal minimum
cut, so cuts and separators do not depend on which maximum flow was found.
The flow's last, failing search has already reached exactly those nodes,
so the network keeps them instead of searching again.

The same fact lets a flow resume instead of starting from zero: the
network keeps each pair's last flow, `cancel` takes the units off an arc
pair that is about to be cut, and `max_flow` then augments the flow that
is left.  Where that flow stops below its limit, it is maximum, and its
residual side is the one a flow from zero would leave.

A search takes nodes in the order it reaches them and each node's arcs in
the order they were added, so node and arc order fix every path, and with
them the flow, its residual side and the walks of `cancel`.
"""

from __future__ import annotations

INF = 10**9


class FlowNetwork:
    """A directed flow network over nodes 0..n-1."""

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]
        # the built capacities, kept at the first flow
        self._caps: list[int] | None = None
        # (s, t) -> (value, capacities) of that pair's last flow
        self._flows: dict[tuple[int, int], tuple[int, list[int]]] = {}
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

    def arc(self, u: int, v: int) -> int:
        """The first arc added from u to v."""
        return next(a for a in self.adj[u] if self.to[a] == v)

    def pairs_at(self, v: int) -> list[int]:
        """One arc of every arc pair at v."""
        return list(self.adj[v])

    def flow(self, s: int, t: int, limit: int = INF, cut=()) -> int:
        """An s-t flow with the arc pairs (a, a^1), a in `cut`, at capacity
        0, stopped at `limit`; returns min(value, limit).

        It resumes the pair's last flow with the cut pairs' units
        cancelled, searching only while below `limit`, and is kept with
        the cut pairs empty at their built capacities.  The first flow
        runs on the built capacities, each later one on a copy.
        """
        caps = self._caps
        if caps is None:
            caps = self._caps = list(self.cap)
            value = 0
        else:
            value, start = self._flows.get((s, t), (0, caps))
            self.cap = list(start)
        cap = self.cap
        for a in cut:
            if cap[a] != caps[a]:
                value -= self.cancel(caps, a, s, t)
        for a in cut:
            cap[a] = cap[a ^ 1] = 0
        if value < limit:
            value += self.max_flow(s, t, limit - value)
        else:
            self._reached = None
        for a in cut:
            cap[a], cap[a ^ 1] = caps[a], caps[a ^ 1]
        self._flows[s, t] = value, cap
        return min(value, limit)

    def max_flow(self, s: int, t: int, limit: int = INF) -> int:
        """Push flow from s to t on top of the flow already in `cap`,
        stopping once `limit` more is pushed; returns the amount pushed."""
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
            pushed = limit - flow
            v = t
            while v != s:
                a = via[v]
                path.append(a)
                if cap[a] < pushed:
                    pushed = cap[a]
                v = to[a ^ 1]
            for a in path:
                cap[a] -= pushed
                cap[a ^ 1] += pushed
            flow += pushed
        return flow

    def cancel(self, caps0: list[int], a: int, s: int, t: int) -> int:
        """Take every unit of flow off the arc pair (a, a^1); returns how
        much the net outflow of s fell.

        The flow on an arc b is caps0[b] - cap[b], caps0 the capacities
        it started from.  Each unit comes off whichever arc of the pair
        carries it, and then off a walk of flow-carrying arcs forward
        from that arc's head.  The walk ends at the arc's tail (the unit
        went round a cycle) or at s or t; in the last case a second walk
        goes backward from the tail to s or t.  Every other node stays
        conserved.  Each step takes a unit off some arc, so the walks end
        even where the flow has cycles; they go one unit at a time, so
        the flow should be small.
        """
        to, cap, adj = self.to, self.cap, self.adj
        if caps0[a] < cap[a]:
            a ^= 1
        u = to[a ^ 1]
        fell = 0
        for _ in range(caps0[a] - cap[a]):
            cap[a] += 1
            cap[a ^ 1] -= 1
            v = to[a]
            while v != u and v != s and v != t:
                b = next(b for b in adj[v] if caps0[b] > cap[b])  # out of v
                cap[b] += 1
                cap[b ^ 1] -= 1
                v = to[b]
            if v == u:
                continue
            if v == s:
                fell -= 1  # the unit came back into s
            v = u
            while v != s and v != t:
                b = next(b ^ 1 for b in adj[v] if caps0[b ^ 1] > cap[b ^ 1])  # into v
                cap[b] += 1
                cap[b ^ 1] -= 1
                v = to[b ^ 1]
            if v == s:
                fell += 1  # the unit had left s
        return fell

    def _bfs(self, s: int, t: int) -> dict[int, int]:
        # Breadth-first search of the residual graph: maps each node reached
        # to the arc that first reached it (s to -1), stopping once t is.
        to, cap, adj = self.to, self.cap, self.adj
        via = {s: -1}
        q = [s]
        for u in q:  # the list grows as the loop runs, so it is the queue
            for a in adj[u]:
                if cap[a] > 0:
                    v = to[a]
                    if v not in via:
                        via[v] = a
                        if v == t:
                            return via
                        q.append(v)
        return via

    def unit_paths(self, s: int, t: int) -> list[tuple[int, ...]]:
        """The last flow, which must be from s to t, as unit paths s..t.

        Each walk follows flow-carrying arcs from s in arc order and takes
        a unit off each; an undirected pair carries its flow on whichever
        arc points along it, and a walk that comes back to a node drops
        the loop.  The walks consume the flow, so the network forgets it.
        """
        caps, cap, adj, to = self._caps, self.cap, self.adj, self.to
        _, last = self._flows.pop((s, t))
        assert last is cap, "the paths are read from the last flow"
        paths = []
        while True:
            path = [s]
            u = s
            while u != t:
                for a in adj[u]:
                    if caps[a] > cap[a]:
                        cap[a] += 1
                        u = to[a]
                        break
                else:
                    return paths
                if u in path:
                    del path[path.index(u) + 1 :]
                else:
                    path.append(u)
            paths.append(tuple(path))

    def residual_reachable(self, s: int) -> set[int]:
        """Nodes reachable from s along arcs with leftover capacity, after
        a flow from s that stopped below its limit."""
        assert self._reached is not None and self._reached[0] == s, (
            "the residual is read only after a flow from s that stopped below its limit"
        )
        return set(self._reached[1])
