"""Input encodings the benchmark writes itself, independent of the package.

Writing graph6 here rather than with ``minconn.io`` means the labels the
program echoes back cross-check its graph6 reader and writer.
"""

from __future__ import annotations


def encode_graph6(n: int, edges) -> str:
    """Standard graph6 for 0 <= n <= 62: upper triangle, column-major."""
    if not 0 <= n <= 62:
        raise ValueError("short-form graph6 covers 0..62 vertices")
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [sum(b << (5 - s) for s, b in enumerate(bits[i:i + 6])) for i in range(0, len(bits), 6)]
    return bytes([n + 63] + [x + 63 for x in body]).decode("ascii")


def edge_list_text(n: int, rows) -> str:
    """The package's edge-list input: "n m", then one "u v [mult]" per row."""
    rows = list(rows)
    return "\n".join([f"{n} {len(rows)}"] + [" ".join(map(str, r)) for r in rows]) + "\n"
