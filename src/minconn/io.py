"""Graph serialisation: graph6, plain edge lists, and JSON.

graph6 follows the standard format (upper triangle, column-major, 6-bit
groups offset by 63), including the 4-byte length form for n >= 63.
Edge lists are "n m" followed by one "u v" pair per line (0-based); the
multigraph variant appends a multiplicity column.
"""

from __future__ import annotations

from .errors import InvalidParams
from .graphs import Graph, MultiGraph


# The largest order graph6's 4-byte header holds; edge lists share it.
MAX_ORDER = 258047


def check_graph6_order(n: int) -> None:
    """Refuse an order graph6 cannot hold, before its graph is built."""
    if n > MAX_ORDER:
        raise InvalidParams(f"graph6 supported up to n = {MAX_ORDER} here")


def to_graph6(g: Graph) -> str:
    check_graph6_order(g.n)
    if g.n <= 62:
        head = [g.n + 63]
    else:
        head = [126, (g.n >> 12) + 63, ((g.n >> 6) & 63) + 63, (g.n & 63) + 63]
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        body.append(val + 63)
    return bytes(head + body).decode("ascii")


def from_graph6(line: str) -> Graph:
    """Parse one graph6 string; anything but the exact canonical bytes
    for its order (header, body length, zero padding) is rejected."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise InvalidParams("empty graph6 line")
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise InvalidParams(f"bad graph6 byte in {line!r}")
    if data[0] == 63:  # 126: long form
        if len(data) < 4:
            raise InvalidParams("truncated graph6 header")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        if not 63 <= n <= MAX_ORDER:
            raise InvalidParams(f"graph6 long-form header for n = {n}")
        data = data[4:]
    else:
        n = data[0]
        data = data[1:]
    need = n * (n - 1) // 2
    if len(data) != (need + 5) // 6:
        raise InvalidParams(
            f"graph6 body for n = {n} takes {(need + 5) // 6} bytes, not {len(data)}"
        )
    bits = [(d >> shift) & 1 for d in data for shift in range(5, -1, -1)]
    if any(bits[need:]):
        raise InvalidParams("nonzero graph6 padding bits")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph(n, edges)


def to_edge_list(g) -> str:
    """Serialise a Graph or MultiGraph as an edge list."""
    if isinstance(g, MultiGraph):
        rows = [f"{g.n} {len(g.mult)}"]
        rows += [f"{u} {v} {k}" for (u, v), k in sorted(g.mult.items())]
    else:
        es = g.edges()
        rows = [f"{g.n} {len(es)}"]
        rows += [f"{u} {v}" for u, v in es]
    return "\n".join(rows) + "\n"


def from_edge_list(text: str, multigraph: bool = False):
    rows = [r for r in (ln.strip() for ln in text.splitlines()) if r and not r.startswith("#")]
    if not rows:
        raise InvalidParams("empty edge list")
    try:
        n, m = (int(x) for x in rows[0].split())
    except ValueError as exc:
        raise InvalidParams(f"bad edge-list header {rows[0]!r}") from exc
    if n > MAX_ORDER:
        raise InvalidParams(f"edge list declares {n} vertices, over {MAX_ORDER}")
    if len(rows) - 1 != m:
        raise InvalidParams(f"edge list declares {m} edges, has {len(rows) - 1}")
    edges = []
    for r in rows[1:]:
        try:
            parts = [int(x) for x in r.split()]
        except ValueError as exc:
            raise InvalidParams(f"bad edge row {r!r}") from exc
        if multigraph:
            if len(parts) == 2:
                parts.append(1)
            if len(parts) != 3:
                raise InvalidParams(f"bad multigraph edge row {r!r}")
            edges.append(tuple(parts))
        else:
            if len(parts) != 2:
                raise InvalidParams(f"bad edge row {r!r}")
            edges.append(tuple(parts))
    return MultiGraph(n, edges) if multigraph else Graph(n, edges)


def graph_id(g) -> str:
    """A one-line name: graph6 for a simple graph, the order and sorted
    edge multiplicities for a multigraph."""
    if isinstance(g, MultiGraph):
        body = ";".join(f"{u}-{v}x{m}" for (u, v), m in sorted(g.mult.items()))
        return f"multigraph:{g.n}:{body}"
    return to_graph6(g)


def to_json_obj(g, labels: dict[str, int] | None = None) -> dict:
    """JSON-ready dict: {"n":…, "edges":[[u,v],…], "labels":{…}}."""
    if isinstance(g, MultiGraph):
        edges = [[u, v, k] for (u, v), k in sorted(g.mult.items())]
    else:
        edges = [[u, v] for u, v in g.edges()]
    obj = {"n": g.n, "edges": edges}
    if labels is not None:
        obj["labels"] = dict(sorted(labels.items()))
    return obj

