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

# byte c -> c - 63: graph6's printable bytes to six-bit groups; a byte
# outside 63..126 decodes to more than 63
_FROM_G6 = bytes((c - 63) % 256 for c in range(256))
# the offsets, high bit first, of the set bits of each six-bit group
_SET_BITS = [tuple(r for r in range(6) if d & 32 >> r) for d in range(64)]


def to_graph6(g) -> str:
    """The graph6 string of a simple graph given by `n` and `neighbors(v)`.

    Pair (i, j), i < j, is bit p = j(j-1)/2 + i of the upper triangle; it
    adds 32 >> p % 6, bit p % 6 counted from the high end, to body byte
    p // 6.  The line is one buffer, the header and then a '?' (63, six
    zero bits) per body byte; each pair is added once, so adding sets the
    bit, and the string is built from the edges alone, with nothing per
    pair.
    """
    n = g.n
    if n > MAX_ORDER:  # refused before any edge is read
        raise InvalidParams(f"graph6 supported up to n = {MAX_ORDER} here")
    line = bytearray([n + 63] if n < 63 else [126, *((n >> s & 63) + 63 for s in (12, 6, 0))])
    col = 6 * len(line)  # j(j-1)/2 past the header, the first bit of column j
    line += b"?" * ((n * (n - 1) // 2 + 5) // 6)
    for j in range(n):
        for i in g.neighbors(j):
            if i < j:
                p = col + i
                line[p // 6] += 32 >> p % 6
        col += j
    return line.decode("ascii")


def from_graph6(line: str) -> Graph:
    """Parse one graph6 string; anything but the exact canonical bytes
    for its order (header, body length, zero padding) is rejected.  The
    body is read six bits at a time, and only set bits become edges."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise InvalidParams("empty graph6 line")
    # any non-ASCII character, a lone surrogate from argv included, encodes
    # to bytes above 127, which decode to more than 63
    data = s.encode(errors="surrogatepass").translate(_FROM_G6)
    if max(data) > 63:
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
    if data and data[-1] & (1 << 6 * len(data) - need) - 1:
        raise InvalidParams("nonzero graph6 padding bits")
    edges, j, col = [], 1, 0  # bits col .. col + j - 1 are column j's
    for q, d in enumerate(data):
        for r in _SET_BITS[d]:
            p = 6 * q + r
            while p >= col + j:
                col += j
                j += 1
            edges.append((p - col, j))
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

