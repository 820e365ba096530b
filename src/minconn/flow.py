"""Two max-flow kernels, both by augmenting paths.

`FlowNetwork` serves the `Connectivity` record's pair flows, on G for
edge cuts and on its vertex-splitting transform for separators, along
shortest paths (Edmonds and Karp, J. ACM 1972); no other module reads
arcs and capacities.  `row_paths` serves `max_disjoint_paths`: a
one-shot unit flow between two vertex sets that reads neighbour rows as
it goes, keeps only the units it carries and builds no network.

For every maximum flow, one that stopped below its limit, the nodes its
residual graph reaches from the source are the source side of the one
source-minimal minimum cut, whichever search found the flow; the last,
failing search reached just those nodes, and both kernels keep them.
So a network can resume each pair's last flow: `cancel` takes the units
off an arc pair about to be cut, `max_flow` augments what is left, and
where that stops below its limit its residual side is a fresh flow's.
A search takes nodes in the order it reaches them and each node's arcs
(or row) in order, so node and arc order fix every path, and with them
the flow, its residual side and the walks of `cancel`.
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
        """Add arc u->v with capacity `cap` and its reverse, at the
        returned index + 1, with `rcap`."""
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
        0, stopped at `limit`; returns min(value, limit).  It resumes the
        pair's last flow with the cut pairs' units cancelled, and is kept
        with the cut pairs empty at their built capacities; the first
        flow runs on the built capacities, each later one on a copy."""
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

        The flow on an arc b is caps0[b] - cap[b].  Each unit comes off
        the arc of the pair that carries it, then off a walk of
        flow-carrying arcs forward from its head to its tail (a cycle)
        or to s or t, and then off a walk backward from its tail to s or
        t; every other node stays conserved.  Each step takes a unit off
        some arc, so the walks end even where the flow has cycles; they
        go one unit at a time, so the flow should be small.
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

    def residual_reachable(self, s: int) -> set[int]:
        """Nodes reachable from s along arcs with leftover capacity, after
        a flow from s that stopped below its limit."""
        assert self._reached is not None and self._reached[0] == s, (
            "the residual is read only after a flow from s that stopped below its limit"
        )
        return set(self._reached[1])


def row_paths(row, sources: dict, targets, split: bool) -> tuple[list[tuple[int, ...]], tuple]:
    """A maximum family of unit paths from `sources` to `targets` on
    neighbour rows, and its dual read from the nodes the last, failing
    search reached: with `split` the vertices whose v_in it reached and
    whose v_out it did not, else the edges (u, w), u < w, that it
    reached but could not cross; each sorted.

    A source steps to the neighbours `sources` maps it to, any other v
    to `row(v)`.  With `split`, v is the nodes v (v_in) and ~v = -v-1
    (v_out): v_in -> v_out is open while v carries no unit, v_out -> w_in
    always, and v_out -> v_in and v_in -> u_out go back along the unit u
    passed to v; so the paths are vertex disjoint.  Else node v is v and
    an edge carries a unit either way, so the paths are edge disjoint.
    Each search is depth-first from all sources to the first target (its
    v_out with `split`).  Paths come back in source order."""
    carried: dict[int, int] = {}  # split: v -> the vertex v's unit came from, -1 at a source
    sent: dict[int, set[int]] = {}  # u -> the vertices u sent a unit to
    ends = {~b for b in targets} if split else targets
    while True:
        via = dict.fromkeys(sources)
        stack, end = list(via), None
        while stack and end is None:
            x = stack.pop()
            if split and x >= 0:  # v_in: on through v while it is free, else back along its unit
                u = carried.get(x)
                steps = (~x,) if u is None else (~u,) if u >= 0 else ()
                full = ()
            else:  # v_out, or v without split: the row, but not along a unit
                v = ~x if x < 0 else x
                steps, full = sources[v] if v in sources else row(v), sent.get(v, ())
                if v in carried and v not in via:  # v_out -> v_in, back along v's unit
                    via[v] = x
                    stack.append(v)
            for y in steps:
                if y not in via and y not in full:
                    via[y] = x
                    if y in ends:
                        end = y
                        break
                    stack.append(y)
        if end is None:
            break
        y = end
        while (x := via[y]) is not None:
            if not split:
                if x in sent.get(y, ()):
                    sent[y].remove(x)
                else:
                    sent.setdefault(x, set()).add(y)
            elif y != ~x:  # a step between two vertices
                if x < 0:
                    carried[y] = ~x
                else:  # back along the unit that y's vertex passed to x
                    del carried[x]
            y = x
        if split:
            carried[y] = -1
    if split:
        sent = {u: {v} for v, u in carried.items() if u >= 0}
    paths = []
    for s in sources:
        while sent.get(s):
            p, u = [s], s
            while u not in targets:  # a walk that comes back to a node drops the loop
                u = sent[u].pop()
                p = p[:p.index(u) if u in p else len(p)] + [u]
            paths.append(tuple(p))
    if split:
        return paths, tuple(sorted(x for x in via if x >= 0 and ~x not in via))
    return paths, tuple(sorted((min(u, w), max(u, w)) for u in via
                               for w in (sources[u] if u in sources else row(u)) if w not in via))
