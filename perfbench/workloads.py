"""The three workloads: their operations, generated from a seed.

An operation ("op") is a JSON-ready dict the worker can execute:

* ``{"kind": "cli", "argv": [...]}`` runs ``minconn.cli.main(argv)`` with
  stdout captured, exactly what a user types after ``minconn``;
* ``{"kind": "certify", "family": spec, "radius": r, "pad": p, "k": k}``
  calls ``minconn.certify_essential_edges``, which has no subcommand.

Each op also carries an ``expect`` dict that only the parent process reads:
the seed-independent invariants its output must satisfy (see checks.py).
The seed shapes the inputs (random graphs, vertex relabellings, which of
several symmetric ends is asked for); the program never receives it.

Every op list has at least 100 ops, so a pass always supports a p90.
"""

from __future__ import annotations

import random

from graph6 import edge_list_text, encode_graph6

DEFAULT_SEED = 0
WORKLOADS = ("corpus-sweep", "member-traces", "end-degrees")

# corpus-sweep: verify --nmax 7 at each K, plus one `check` per graph of a
# seeded batch of random graphs, the same batch at each K.
CORPUS_KS = (2, 3, 4)
RANDOM_GRAPHS = 300
RANDOM_ORDER = 8
# Graphs classified per pass: verify classifies all 1,252 graphs on up to
# 7 vertices except the single vertex (OEIS A000088), then the batch.
GRAPHS_PER_PASS = len(CORPUS_KS) * (1252 - 1 + RANDOM_GRAPHS)

# member-traces: (construction, parameters, k, class).  The list is fixed;
# the seed only relabels vertices, so the work stays comparable across seeds.
MEMBER_CASES = (
    [("band", (k, l), k, cls) for k in (3, 4) for l in range(2, 9) for cls in "bd"
     if not (k == 4 and cls == "d" and 4 < l < 8)]
    + [("cycle-clique", (k, l), k, "b") for k, l in ((6, 10), (6, 12), (6, 14), (8, 10))]
    + [("path-square", (l,), 3, "c") for l in range(20, 41, 2)]
    + [("multipath", (k, m), k, "c") for k in (2, 3, 4) for m in range(4, 25)]
)

# end-degrees: family spec, mode, expected end degree.  Criterion 7 of the
# acceptance gate fixes the values it lists; the rest are the families'
# declared end degrees (expected_end_degree) at their witness depth.
END_DEGREE_TABLE = (
    ("double-ray", "vertex", 1), ("double-ray", "edge", 1),
    ("dr-square", "vertex", 2), ("dr-square", "edge", 3),
    ("strong-dr:k=2", "vertex", 2), ("strong-dr:k=2", "edge", 4),
    ("strong-dr:k=3", "vertex", 3), ("strong-dr:k=3", "edge", 9),
    ("cartesian-dr:k=2", "vertex", 2), ("cartesian-dr:k=2", "edge", 2),
    ("cartesian-dr:k=3", "vertex", 3), ("cartesian-dr:k=3", "edge", 3),
    ("strong-tree:r=3,k=2", "vertex", 2), ("strong-tree:r=3,k=2", "edge", 4),
    ("cartesian-tree:r=3,k=2", "vertex", 2), ("cartesian-tree:r=3,k=2", "edge", 2),
    ("ray-bundle:k=4,l=4", "vertex", 4), ("ray-bundle:k=4,l=4", "edge", 4),
    ("ray-bundle:k=4,l=8", "vertex", 8), ("ray-bundle:k=4,l=8", "edge", 8),
    ("multipath-inf:k=2", "vertex", 1), ("multipath-inf:k=2", "edge", 2),
    ("multipath-inf:k=3", "vertex", 1), ("multipath-inf:k=3", "edge", 3),
)
CHEAP_END_REPEATS = 4  # seeded symmetric ends asked per (family, mode)
CLIQUE_TREE = "clique-tree:r=2,k=4"
CLIQUE_TREE_DEGREES = (("vertex", 1), ("edge", 4))
CERTIFY_CASES = (("dr-square", 4, 2, 3, 31), (CLIQUE_TREE, 2, 2, 4, 180))

# Symmetric ends at the depth where a direction's degree is the end's
# degree: the two signs of a two-ended family, or branch-i-j of a tree
# whose root has `root` children and inner vertices `inner` children.
TREE_BRANCHING = {"strong-tree:r=3,k=2": (3, 2), "cartesian-tree:r=3,k=2": (3, 2),
                  CLIQUE_TREE: (8, 8)}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _symmetric_end(spec: str, rng: random.Random) -> str:
    if spec in TREE_BRANCHING:
        root, inner = TREE_BRANCHING[spec]
        return f"branch-{rng.randrange(root)}-{rng.randrange(inner)}"
    return rng.choice(("left", "right"))


def random_graph(rng: random.Random, n: int) -> list[tuple[int, int]]:
    p = rng.uniform(0.3, 0.8)
    return [(u, v) for v in range(1, n) for u in range(v) if rng.random() < p]


def corpus_sweep(seed: int) -> list[dict]:
    rng = _rng("corpus-sweep", seed)
    batch = [random_graph(rng, RANDOM_ORDER) for _ in range(RANDOM_GRAPHS)]
    ops = [{"kind": "cli", "argv": ["verify", "--k", str(k), "--nmax", "7"],
            "expect": {"type": "verify", "k": k}} for k in CORPUS_KS]
    for k in CORPUS_KS:
        for edges in batch:
            g6 = encode_graph6(RANDOM_ORDER, edges)
            ops.append({"kind": "cli", "argv": ["check", "--k", str(k), "--format", "json", g6],
                        "expect": {"type": "check", "k": k, "n": RANDOM_ORDER,
                                   "edges": edges, "graph6": g6}})
    return ops


def _construction(name: str, params: tuple):
    """(n, edges, multiplicities or None) of a construction, built by the
    package's own constructions module."""
    from minconn import constructions as c

    if name == "band":
        g = c.band_graph(*params).graph
    elif name == "cycle-clique":
        g = c.cycle_clique_strong(*params)
    elif name == "path-square":
        g = c.path_square_example(*params).graph
    else:
        mg = c.multipath(*params)
        return mg.n, list(mg.mult), dict(mg.mult)
    return g.n, g.edges(), None


def degree_bound(cls: str, k: int) -> int:
    return (3 * k) // 2 - 1 if cls == "b" else k


# Witness counts the constructions are built to have, whatever the labels:
# bands and multipaths have exactly their two end vertices within the
# bound, squared paths the three outermost vertices at each end, and the
# strong products are regular of degree floor(3k/2)-1.
CONSTRUCTION_COUNTS = {
    "band": lambda n: 2,
    "multipath": lambda n: 2,
    "path-square": lambda n: 6,
    "cycle-clique": lambda n: n,
}


def member_traces(seed: int) -> list[dict]:
    rng = _rng("member-traces", seed)
    ops = []
    for name, params, k, cls in MEMBER_CASES:
        n, edges, mult = _construction(name, params)
        perm = list(range(n))
        rng.shuffle(perm)
        relabelled = [(perm[u], perm[v]) for u, v in edges]
        degree = [0] * n
        for (u, v), e in zip(relabelled, edges):
            m = mult[e] if mult else 1
            degree[u] += m
            degree[v] += m
        bound = degree_bound(cls, k)
        witnesses = [[v, d] for v, d in enumerate(degree) if d <= bound]
        argv = ["witness", "--k", str(k), "--class", cls, "--explain"]
        if mult:
            argv += ["--input", "edge-list", "--multi",
                     edge_list_text(n, [(a, b, mult[e]) for (a, b), e in zip(relabelled, edges)])]
        else:
            argv.append(encode_graph6(n, relabelled))
        ops.append({"kind": "cli", "argv": argv,
                    "expect": {"type": "witness", "construction": f"{name}{params}",
                               "k": k, "class": cls, "count": CONSTRUCTION_COUNTS[name](n),
                               "witnesses": witnesses}})
    return ops


def end_degrees(seed: int) -> list[dict]:
    rng = _rng("end-degrees", seed)
    ops = []
    for spec, mode, value in END_DEGREE_TABLE:
        for _ in range(CHEAP_END_REPEATS):
            ops.append({"kind": "cli",
                        "argv": ["end-degree", spec, _symmetric_end(spec, rng), mode],
                        "expect": {"type": "end-degree", "value": value}})
    for mode, value in CLIQUE_TREE_DEGREES:
        ops.append({"kind": "cli",
                    "argv": ["end-degree", CLIQUE_TREE, _symmetric_end(CLIQUE_TREE, rng), mode],
                    "expect": {"type": "end-degree", "value": value}})
    for spec, radius, pad, k, total in CERTIFY_CASES:
        ops.append({"kind": "certify", "family": spec, "radius": radius, "pad": pad, "k": k,
                    "expect": {"type": "certify", "total": total}})
    return ops


BUILDERS = {"corpus-sweep": corpus_sweep, "member-traces": member_traces,
            "end-degrees": end_degrees}


def build(workload: str, seed: int) -> list[dict]:
    """The workload's op list for this seed, each op numbered by position."""
    ops = BUILDERS[workload](seed)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops
