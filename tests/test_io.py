import argparse
import io
import json

import pytest
from hypothesis import given, strategies as st

from minconn.errors import InvalidParams
from minconn.cli import _read_graphs
from minconn.graphs import Graph, MultiGraph, complete_graph, cycle_graph
from minconn.io import (
    from_edge_list,
    from_graph6,
    to_edge_list,
    to_graph6,
    to_json_obj,
)


G6_CHARS = [chr(c) for c in range(63, 127)]


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, b in zip(pairs, mask) if b])


def reference_graph6(g: Graph) -> str:
    """graph6 from its definition: one bit per vertex pair of the upper
    triangle, column by column, cut into six-bit groups offset by 63."""
    n = g.n
    bits = "".join("1" if g.has_edge(i, j) else "0" for j in range(n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    head = [n] if n < 63 else [63, n >> 12, n >> 6 & 63, n & 63]
    body = [int(bits[q : q + 6], 2) for q in range(0, len(bits), 6)]
    return "".join(chr(c + 63) for c in head + body)


@st.composite
def sparse_graphs(draw):
    """Graphs on 60-300 vertices, across the long-form header at 63."""
    n = draw(st.integers(60, 300))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return Graph(n, draw(st.lists(pairs, max_size=3 * n)))


class TestGraph6:
    @given(st.one_of(graphs(), sparse_graphs()))
    def test_equals_the_per_pair_definition(self, g):
        # the writer packs only the edges, the reader only the set bits
        s = reference_graph6(g)
        assert to_graph6(g) == s
        assert from_graph6(s) == g

    def test_known_encodings(self):
        # Values cross-checked against the format definition by hand:
        # K_4 is "C~", the empty graph on 5 vertices is "D??".
        assert to_graph6(complete_graph(4)) == "C~"
        assert to_graph6(Graph(5)) == "D??"
        assert from_graph6("C~") == complete_graph(4)

    @given(graphs())
    def test_round_trip(self, g):
        assert from_graph6(to_graph6(g)) == g

    def test_large_n_header(self):
        g = Graph(70, [(0, 69)])
        s = to_graph6(g)
        assert s.startswith("~")
        assert from_graph6(s) == g

    def test_stream(self, monkeypatch):
        # a graph6 stream on stdin skips blank lines
        monkeypatch.setattr("sys.stdin", io.StringIO("C~\n\nBw\n  \n"))
        gs = _read_graphs(argparse.Namespace(input="graph6", graphs=[]))
        assert [g.n for g in gs] == [4, 3]

    def test_bad_bytes(self):
        with pytest.raises(InvalidParams):
            from_graph6("C~\x01")

    def test_empty(self):
        with pytest.raises(InvalidParams):
            from_graph6("")

    @pytest.mark.parametrize(
        "text",
        [
            "EhEGGGGG",  # 6-cycle plus trailing bytes
            "EhE",  # body one byte short
            "Bx",  # n = 3 with nonzero padding bits
            "D\u00e9",  # non-ASCII byte
            "C\udcff",  # a lone surrogate, as argv carries an undecodable byte
            "~?@?",  # long-form header for n < 63
        ],
    )
    def test_rejects_non_canonical(self, text):
        with pytest.raises(InvalidParams):
            from_graph6(text)

    @given(st.text())
    def test_any_text_parses_or_raises_invalid_params(self, text):
        self.check_round_trip(text)

    @given(
        st.sampled_from(["", " ", "\n"]),
        st.sampled_from(["", ">>graph6<<"]),
        st.integers(0, 20),
        st.data(),
    )
    def test_accepted_strings_round_trip(self, space, header, n, data):
        # bodies of about the right length, so that many are accepted
        size = (n * (n - 1) // 2 + 5) // 6
        body = data.draw(
            st.text(st.sampled_from(G6_CHARS), min_size=max(size - 1, 0), max_size=size + 1)
        )
        self.check_round_trip(f"{space}{header}{chr(63 + n)}{body}{space}")

    @staticmethod
    def check_round_trip(text):
        """A string is rejected, or is the canonical graph6 of what it parses to."""
        try:
            g = from_graph6(text)
        except InvalidParams:
            return
        assert to_graph6(g) == text.strip().removeprefix(">>graph6<<")


class TestEdgeList:
    def test_round_trip_simple(self):
        g = cycle_graph(5)
        assert from_edge_list(to_edge_list(g)) == g

    def test_round_trip_multi(self):
        g = MultiGraph(3, [(0, 1, 2), (1, 2, 3)])
        assert from_edge_list(to_edge_list(g), multigraph=True) == g

    def test_header_mismatch(self):
        with pytest.raises(InvalidParams):
            from_edge_list("3 2\n0 1\n")

    @pytest.mark.parametrize(
        "text", ["3 2\n0 x\n1 2\n", "2 1\n0 1.5\n", "two 1\n0 1\n", "300000 0\n"]
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(InvalidParams):
            from_edge_list(text)

    @given(st.text(), st.booleans())
    def test_any_text_parses_or_raises_invalid_params(self, text, multigraph):
        try:
            g = from_edge_list(text, multigraph=multigraph)
        except InvalidParams:
            return
        assert isinstance(g, MultiGraph if multigraph else Graph)

    def test_comments_skipped(self):
        g = from_edge_list("# a comment\n2 1\n0 1\n")
        assert g.m == 1

    def test_deterministic_bytes(self):
        g = MultiGraph(4, [(2, 3, 1), (0, 1, 2), (1, 2, 1)])
        assert to_edge_list(g) == to_edge_list(MultiGraph(4, [(0, 1, 2), (1, 2, 1), (2, 3, 1)]))


class TestJson:
    def test_json_obj_fields(self):
        obj = to_json_obj(cycle_graph(3))
        assert obj["n"] == 3 and obj["edges"] == [[0, 1], [0, 2], [1, 2]]

    def test_multigraph_edges_sorted(self):
        g = MultiGraph(3, [(1, 2, 2), (0, 1, 1)])
        obj = to_json_obj(g)
        assert obj["edges"] == [[0, 1, 1], [1, 2, 2]]

    def test_json_obj_labels(self):
        obj = to_json_obj(cycle_graph(4), labels={"start": 0})
        assert json.loads(json.dumps(obj))["labels"] == {"start": 0}
