"""Command line interface.

Subcommands: check (class membership), witness (small-degree vertices
with optional procedure traces), verify (exhaustive degree-theorem
harness over enumerated graphs), construct (extremal examples and ball
truncations), end-degree (end degree estimation on infinite families),
enumerate (the graph corpus itself).

Exit codes: 0 success, 1 usage error, 2 graph input parse error,
3 violated guarantee -- a failed verification row, a witness request for
a graph outside the class, or strict non-convergence.

All output is deterministic: the same invocation always produces the
same bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain
from types import SimpleNamespace
from typing import Iterator

from . import __version__
from .connectivity import Connectivity
from .constructions import (
    LabeledGraph,
    band_graph,
    cycle_clique_strong,
    multipath,
    path_square_example,
)
from .enumeration import enumerate_all, random_graphs
from .errors import (
    ClassMismatch,
    InvalidParams,
    MinconnError,
    NotConverged,
    PreconditionViolated,
    TooSmall,
    ValidationFailed,
)
from .families import FAMILY_KINDS, _parse_params, ball, end_degree_estimate, find_end, make_family
from .graphs import Graph, MultiGraph, small_degree_set
from .io import (
    from_edge_list,
    from_graph6,
    graph_id,
    to_edge_list,
    to_graph6,
    to_json_obj,
)
from .minimality import ClassificationReport, MinimalityClass, check_class, classify
from .witnesses import (
    crossing_separators_witness,
    default_profound_region,
    degree_bound,
    edge_min_witness_pair,
    vertex_min_edge_witness_pair,
    witness_report,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VIOLATION = 3

VERIFY_SCHEMA = "minconn-verify-1"
VERIFY_COLUMNS = "graph6,n,k,classes,deg_k,deg_small,min_degree,satisfied,witnesses"


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _parse_class(value: str | None) -> MinimalityClass | None:
    return None if value is None else MinimalityClass(value)


# ---------------------------------------------------------------------------
# graph input
# ---------------------------------------------------------------------------


def _read_graphs(args) -> list:
    """Graphs from positional arguments or stdin in the chosen format."""
    if args.input == "edge-list":
        text = "\n".join(args.graphs) if args.graphs else sys.stdin.read()
        return [from_edge_list(text, multigraph=args.multi)]
    lines = args.graphs if args.graphs else [
        ln.strip() for ln in sys.stdin if ln.strip()
    ]
    return [from_graph6(ln) for ln in lines]


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    try:
        graphs = _read_graphs(args)
    except InvalidParams as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    wanted = _parse_class(args.cls)
    reports = [
        ClassificationReport(graph_id(g), args.k, {wanted: check_class(g, wanted, args.k)})
        if wanted is not None else classify(g, args.k)
        for g in graphs
    ]

    if args.format == "json":
        _print_json([rep.to_json_obj() for rep in reports])
    elif args.format == "csv":
        print("graph,n,k,a,b,c,d")
        for g, rep in zip(graphs, reports):
            cells = [
                ("yes" if rep.holds(cls) else "no") if cls in rep.results else "-"
                for cls in MinimalityClass
            ]
            print(f"{rep.graph_id},{g.n},{args.k},{','.join(cells)}")
    else:
        for rep in reports:
            flags = " ".join(
                f"{cls.flag_name(args.k)}={'yes' if r.holds else 'no'}"
                for cls, r in rep.results.items()
            )
            print(f"{rep.graph_id}: {flags}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


def _explain_trace(g, cls: MinimalityClass, k: int, conn: Connectivity):
    """The constructive procedure trace appropriate for the class.

    `cmd_witness` builds one connectivity record of g and shares it across
    the membership check in `witness_report`, the default region and the
    traced procedure, so each question asked twice is answered from the
    record.  The procedure's own membership check reads the verdict the
    report left on the record.
    """
    if cls is MinimalityClass.EDGE_MIN_CONN:
        return {"note": "witnesses come from the degree-counting bound; no descent trace"}
    if cls is MinimalityClass.VERTEX_MIN_CONN:
        region = default_profound_region(g, k, conn)
        if region is None:
            return {"note": "complete graph: no separator, counting bound only"}
        return crossing_separators_witness(g, region, k, conn=conn).to_json_obj()
    if cls is MinimalityClass.EDGE_MIN_EDGE_CONN:
        return edge_min_witness_pair(g, k, conn=conn).to_json_obj()
    return vertex_min_edge_witness_pair(g, k, conn=conn).to_json_obj()


def cmd_witness(args) -> int:
    if args.explain and args.format != "json":
        print("--explain needs --format json", file=sys.stderr)
        return EXIT_USAGE
    try:
        graphs = _read_graphs(args)
    except InvalidParams as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if len(graphs) != 1:
        print("witness takes exactly one graph", file=sys.stderr)
        return EXIT_USAGE
    g = graphs[0]
    cls = MinimalityClass(args.cls)

    conn = Connectivity(g)
    report = witness_report(g, cls, args.k, conn=conn)
    obj = report.to_json_obj()
    obj["graph"] = graph_id(g)
    if args.explain:
        obj["trace"] = _explain_trace(g, cls, args.k, conn)

    if args.format == "text":
        ws = " ".join(f"{v}({d})" for v, d in report.witnesses)
        state = "satisfied" if report.satisfied else "VIOLATED"
        print(
            f"{obj['graph']}: class {cls.value} ({cls.flag_name(args.k)}): "
            f"bound {report.bound}, required {report.required}, "
            f"found {len(report.witnesses)}: {ws}; {state}"
        )
    else:
        _print_json(obj)
    return EXIT_OK if report.satisfied else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _check_k(k: int) -> None:
    # Checked before any graph is read, so a bad k fails the same way
    # whatever the corpus, with nothing on stdout.
    if k < 1:
        raise TooSmall("k must be at least 1")


def _corpus(args, k: int | None) -> Iterator[Graph]:
    """The exhaustive graphs up to --nmax, then --count random graphs, with
    all arguments checked at the call.  With k, only graphs of minimum
    degree >= k, so on n >= 2 vertices: every class implies
    k-edge-connectivity.  The enumerator cuts that floor inside its
    candidate recursion; the random graphs are filtered as drawn."""
    floor = k or 0
    graphs = enumerate_all(args.nmax, floor)
    if args.count:
        drawn = random_graphs(args.count, args.rand_nmax, args.seed)
        graphs = chain(graphs, (g for g in drawn if g.min_degree() >= floor))
    return graphs


def _held(g: Graph, k: int, wanted: MinimalityClass | None, conn: Connectivity) -> list[MinimalityClass]:
    """The classes g is in at k, among `wanted` (every class when None),
    asked on the record `conn` of g."""
    return [cls for cls in MinimalityClass
            if wanted in (None, cls) and check_class(g, cls, k, conn)]


def cmd_verify(args) -> int:
    k = args.k
    _check_k(k)
    wanted = _parse_class(args.cls)
    rows = []
    for g in _corpus(args, k):
        conn = Connectivity(g)
        held = _held(g, k, wanted, conn)
        if not held:
            continue
        reports = [witness_report(g, cls, k, conn=conn) for cls in held]
        failures = [r for r in reports if not r.satisfied]
        g6 = to_graph6(g)
        row = {
            "graph6": g6,
            "n": g.n,
            "k": k,
            "classes": "".join(cls.value for cls in held),
            "deg_k": len(small_degree_set(g, k)),
            "deg_small": len(small_degree_set(g, degree_bound(MinimalityClass.VERTEX_MIN_CONN, k))),
            "min_degree": g.min_degree(),
            "satisfied": not failures,
            "witnesses": " ".join(map(str, sorted({v for r in reports for v, _ in r.witnesses}))),
        }
        rows.append(row)
        if failures:
            print("degree-theorem violation:", file=sys.stderr)
            print(f"  graph6: {g6}", file=sys.stderr)
            print(f"  edges: {g.edges()}", file=sys.stderr)
            print(f"  degrees: {g.degrees()}", file=sys.stderr)
            for r in failures:
                print(
                    f"  class {r.cls.value} ({r.cls.flag_name(k)}): required {r.required} "
                    f"vertices of degree <= {r.bound}, found {len(r.witnesses)}",
                    file=sys.stderr,
                )
            _emit_verify(args, rows)
            return EXIT_VIOLATION

    _emit_verify(args, rows)
    return EXIT_OK


def _emit_verify(args, rows) -> None:
    if args.format == "json":
        _print_json(rows)
        return
    print(f"# schema: {VERIFY_SCHEMA}")
    print(VERIFY_COLUMNS)
    for r in rows:
        cells = (r[col] for col in VERIFY_COLUMNS.split(","))
        print(",".join(("yes" if v else "no") if isinstance(v, bool) else str(v) for v in cells))


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


# finite constructions: spec head -> (builder, its parameters in order)
CONSTRUCTIONS = {
    "band": (band_graph, ("k", "l")),
    "multipath": (multipath, ("k", "m")),
    "path-square": (path_square_example, ("l",)),
    "cycle-clique": (cycle_clique_strong, ("k", "l")),
}


def _build_construction(spec: str, radius: int | None):
    """A finite construction or a ball truncation of a family.

    Returns (graph, labels) where labels maps vertex names to indices.  A
    ball's `Graph` is never built: the writers read only `n`,
    `neighbors(v)` and `edges()`, which the ball's sorted rows give in
    Graph order.
    """
    head, _, rest = spec.strip().partition(":")
    if head in CONSTRUCTIONS:
        if radius is not None:
            raise InvalidParams(f"construction {head!r} is finite: --radius truncates families only")
        builder, keys = CONSTRUCTIONS[head]
        p = _parse_params(head, rest, keys)
        g = builder(*(p[key] for key in keys))
        return (g.graph, g.labels) if isinstance(g, LabeledGraph) else (g, {})
    if head in FAMILY_KINDS:
        if radius is None:
            raise InvalidParams(f"family {head!r} needs --radius to truncate")
        b = ball(make_family(spec), radius)
        g = SimpleNamespace(n=len(b.rows), neighbors=b.neighbors, edges=lambda: [
            (u, v) for u, row in enumerate(b.rows) for v in row if u < v])
        return g, {repr(t): i for i, t in enumerate(b.tags)}
    known = [*CONSTRUCTIONS, *sorted(FAMILY_KINDS)]
    raise InvalidParams(f"unknown construction {head!r}; known: {', '.join(known)}")


def cmd_construct(args) -> int:
    # a ball is a simple graph, so "auto" writes it as graph6
    g, labels = _build_construction(args.spec, args.radius)
    fmt = args.format
    if fmt == "auto":
        fmt = "edge-list" if isinstance(g, MultiGraph) else "graph6"
    if fmt == "graph6":
        if isinstance(g, MultiGraph):
            print("multigraphs have no graph6 form; use --format edge-list", file=sys.stderr)
            return EXIT_USAGE
        print(to_graph6(g))
    elif fmt == "edge-list":
        sys.stdout.write(to_edge_list(g))
    else:
        _print_json(to_json_obj(g, labels=labels or None))
    return EXIT_OK


# ---------------------------------------------------------------------------
# end-degree
# ---------------------------------------------------------------------------


def cmd_end_degree(args) -> int:
    f = make_family(args.family)
    end = find_end(f, args.end)
    est = end_degree_estimate(
        f,
        end,
        mode=args.mode,
        r_max=args.rmax,
        window=args.window,
        strict=args.strict,
    )
    if args.format == "json":
        _print_json(est.to_json_obj())
    elif est.converged:
        print(est.value)
    else:
        print(f"unconverged upper={est.upper} radius={est.radius_used}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def cmd_enumerate(args) -> int:
    wanted = _parse_class(args.cls)
    if wanted is not None and args.k is None:
        print("--class needs --k", file=sys.stderr)
        return EXIT_USAGE
    if args.k is not None:
        _check_k(args.k)
    for g in _corpus(args, args.k):
        if args.k is None or _held(g, args.k, wanted, Connectivity(g)):
            print(to_graph6(g))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_graph_input(sub) -> None:
    sub.add_argument("graphs", nargs="*", help="graph6 strings (default: stdin)")
    sub.add_argument(
        "--input",
        choices=("graph6", "edge-list"),
        default="graph6",
        help="input encoding; edge-list reads a single graph",
    )
    sub.add_argument(
        "--multi",
        action="store_true",
        help="read the edge list as a multigraph (rows may carry multiplicity)",
    )


@functools.cache
def build_parser() -> _Parser:
    p = _Parser(prog="minconn", description=__doc__.split("\n\n")[0])
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", parents=[], help="class membership at a given k")
    _add_graph_input(c)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--class", dest="cls", choices=tuple("abcd"), default=None)
    c.add_argument("--format", choices=("text", "json", "csv"), default="text")
    c.set_defaults(func=cmd_check)

    w = sub.add_parser("witness", help="small-degree witnesses with optional trace")
    _add_graph_input(w)
    w.add_argument("--k", type=int, required=True)
    w.add_argument("--class", dest="cls", choices=tuple("abcd"), required=True)
    w.add_argument("--explain", action="store_true", help="include the procedure trace")
    w.add_argument("--format", choices=("text", "json"), default="json")
    w.set_defaults(func=cmd_witness)

    v = sub.add_parser("verify", help="degree-theorem harness over enumerated graphs")
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--class", dest="cls", choices=tuple("abcd"), default=None)
    v.add_argument("--nmax", type=int, default=7, help="exhaustive bound (<= 7)")
    v.add_argument("--count", type=int, default=0, help="extra random graphs")
    v.add_argument("--rand-nmax", type=int, default=8, help="order bound for random graphs")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--format", choices=("csv", "json"), default="csv")
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("construct", help="extremal constructions and ball truncations")
    g.add_argument("spec", help='e.g. "band:k=3,l=2", "multipath:k=3,m=5", "clique-tree:r=2,k=4"')
    g.add_argument("--radius", type=int, default=None, help="truncation radius for families")
    g.add_argument(
        "--format", choices=("auto", "graph6", "edge-list", "json"), default="auto"
    )
    g.set_defaults(func=cmd_construct)

    e = sub.add_parser("end-degree", help="estimate an end degree of a family")
    e.add_argument("family", help='e.g. "dr-square" or "clique-tree:r=2,k=4"')
    e.add_argument("end", help='"left", "right" or "branch-0", "branch-0-1", ...')
    e.add_argument("mode", choices=("vertex", "edge"))
    e.add_argument("--rmax", type=int, default=None,
                   help="largest radius to try (default: the family's own bound)")
    e.add_argument("--window", type=int, default=3)
    e.add_argument("--strict", action="store_true", help="non-convergence is an error")
    e.add_argument("--format", choices=("text", "json"), default="text")
    e.set_defaults(func=cmd_end_degree)

    n = sub.add_parser("enumerate", help="the graph corpus, optionally filtered")
    n.add_argument("--nmax", type=int, default=7)
    n.add_argument("--count", type=int, default=0, help="extra random graphs")
    n.add_argument("--rand-nmax", type=int, default=8)
    n.add_argument("--seed", type=int, default=0)
    n.add_argument("--k", type=int, default=None, help="keep only graphs in some class at k")
    n.add_argument("--class", dest="cls", choices=tuple("abcd"), default=None)
    n.set_defaults(func=cmd_enumerate)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except (ValidationFailed, ClassMismatch, PreconditionViolated, NotConverged) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except MinconnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
