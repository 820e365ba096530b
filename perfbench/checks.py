"""Output checks, run in the parent after each pass, outside the timing.

`check_op` returns None for a correct output, else a one-line reason.
The invariants hold for every seed; at the recorded default seed each
output must also match the byte digest recorded from the commit that
defined the benchmark.  Where networkx is importable, the k-connectivity
the `check` outputs imply is cross-checked against it.
"""

from __future__ import annotations

import json
from hashlib import sha256

try:
    import networkx as nx
except ImportError:  # optional cross-check only
    nx = None

VERIFY_HEADER = ["# schema: minconn-verify-1",
                 "graph6,n,k,classes,deg_k,deg_small,min_degree,satisfied,witnesses"]
FLAGS = {"a": "edge-min-{k}-conn", "b": "vertex-min-{k}-conn",
         "c": "edge-min-{k}-edge-conn", "d": "vertex-min-{k}-edge-conn"}


def digest(out: str) -> str:
    return sha256(out.encode()).hexdigest()[:16]


def verify_counts(out: str) -> dict:
    """Rows and per-class member counts of one `verify` output."""
    rows = [line.split(",") for line in out.splitlines()[2:]]
    counts = {"rows": len(rows)}
    for cls in "abcd":
        counts[cls] = sum(1 for r in rows if cls in r[3])
    return counts


class Checker:
    """Checks one workload's outputs; caches verdicts and oracle answers,
    since every pass of a run repeats the same inputs."""

    def __init__(self, workload: str, seed: int, record: dict | None):
        # `record` is None only while the record itself is being made.
        self.record = record
        self.digests = (record["digests"][workload]
                        if record is not None and seed == record["seed"] else None)
        self._verdicts: dict = {}
        self._connectivity: dict = {}

    def check_op(self, op: dict, result: dict) -> str | None:
        key = (op["id"], result["rc"], result["err"], digest(result["out"]))
        if key not in self._verdicts:
            self._verdicts[key] = self._check(op, result)
        return self._verdicts[key]

    def _check(self, op, result):
        if result["rc"] != 0:
            return f"exit code {result['rc']}: {result['err'].strip()[-300:]}"
        out = result["out"]
        if self.digests is not None:
            want = self.digests[op["id"]]
            if digest(out) != want:
                return f"output digest {digest(out)} differs from the recorded {want}"
        expect = op["expect"]
        try:
            return CHECKS[expect["type"]](self, expect, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"malformed output ({type(exc).__name__}: {exc})"

    # -- per kind ----------------------------------------------------------

    def _verify(self, expect, out):
        lines = out.splitlines()
        if lines[:2] != VERIFY_HEADER:
            return "verify header changed"
        k = expect["k"]
        for line in lines[2:]:
            cells = line.split(",")
            if cells[2] != str(k) or cells[7] != "yes":
                return f"row not satisfied at k={k}: {line}"
        want = self.record["verify"][str(k)] if self.record is not None else None
        if want is not None and verify_counts(out) != want:
            return f"member counts {verify_counts(out)} differ from the recorded {want}"
        return None

    def _check_graph(self, expect, out):
        (entry,) = json.loads(out)
        k, edges = expect["k"], expect["edges"]
        if entry["graph"] != expect["graph6"] or entry["k"] != k:
            return f"label {entry['graph']!r} or k {entry['k']} does not echo the input"
        classes = entry["classes"]
        degree = [0] * expect["n"]
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        for cls, flag in FLAGS.items():
            verdict = classes[flag.format(k=k)]
            if verdict["holds"] and min(degree) < k:
                return f"class {cls} holds with minimum degree {min(degree)} < {k}"
        if nx is not None:
            kappa, lam = self._oracle(expect)
            for cls in "ab":
                says = classes[FLAGS[cls].format(k=k)]["reason"] == f"not {k}-connected"
                if says != (kappa < k):
                    return f"class {cls} at k={k} disagrees with networkx kappa={kappa}"
            for cls in "cd":
                says = classes[FLAGS[cls].format(k=k)]["reason"] == f"not {k}-edge-connected"
                if says != (lam < k):
                    return f"class {cls} at k={k} disagrees with networkx lambda={lam}"
        return None

    def _oracle(self, expect):
        g6 = expect["graph6"]
        if g6 not in self._connectivity:
            g = nx.Graph()
            g.add_nodes_from(range(expect["n"]))
            g.add_edges_from(expect["edges"])
            self._connectivity[g6] = (nx.node_connectivity(g), nx.edge_connectivity(g))
        return self._connectivity[g6]

    def _witness(self, expect, out):
        obj = json.loads(out)
        if obj["class"] != expect["class"] or obj["k"] != expect["k"]:
            return "class or k does not echo the query"
        if not obj["satisfied"] or obj["count"] != expect["count"]:
            return (f"{expect['construction']}: satisfied={obj['satisfied']} count={obj['count']}, "
                    f"construction has {expect['count']}")
        if obj["witnesses"] != expect["witnesses"]:
            return f"{expect['construction']}: witnesses {obj['witnesses']} are not the relabelled ones"
        trace = obj["trace"]
        small = {v for v, _ in expect["witnesses"]}
        found = set(trace["witnesses"]) if "witnesses" in trace else {trace["witness"]}
        if not found <= small:
            return f"{expect['construction']}: traced witnesses {sorted(found)} exceed the bound"
        return None

    def _end_degree(self, expect, out):
        if out.strip() != str(expect["value"]):
            return f"end degree {out.strip()!r}, expected {expect['value']}"
        return None

    def _certify(self, expect, out):
        obj = json.loads(out)
        if obj["total"] != expect["total"] or obj["certified"] != obj["total"] or obj["ratio"] != 1.0:
            return f"certified {obj['certified']}/{obj['total']}, expected all {expect['total']}"
        return None


CHECKS = {"verify": Checker._verify, "check": Checker._check_graph,
          "witness": Checker._witness, "end-degree": Checker._end_degree,
          "certify": Checker._certify}
