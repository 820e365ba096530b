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
from typing import Iterator

from . import __version__
from .constructions import (
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
from .minimality import MinimalityClass, check_class, classify
from .witnesses import (
    crossing_separators_witness,
    default_profound_region,
    degree_bound,
    edge_min_witness_pair,
    required_count,
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
    reports = []
    for g in graphs:
        if wanted is not None:
            res = check_class(g, wanted, args.k)
            reports.append((g, {wanted: res}))
        else:
            rep = classify(g, args.k)
            reports.append((g, rep.results))

    if args.format == "json":
        _print_json(
            [
                {
                    "graph": graph_id(g),
                    "k": args.k,
                    "classes": {
                        cls.flag_name(args.k): r.to_json_obj()
                        for cls, r in results.items()
                    },
                }
                for g, results in reports
            ]
        )
    elif args.format == "csv":
        print("graph,n,k,a,b,c,d")
        for g, results in reports:
            cells = [
                ("yes" if results[cls].holds else "no") if cls in results else "-"
                for cls in MinimalityClass
            ]
            print(f"{graph_id(g)},{g.n},{args.k},{','.join(cells)}")
    else:
        for g, results in reports:
            flags = " ".join(
                f"{cls.flag_name(args.k)}={'yes' if r.holds else 'no'}"
                for cls, r in results.items()
            )
            print(f"{graph_id(g)}: {flags}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


def _explain_trace(g, cls: MinimalityClass, k: int):
    """The constructive procedure trace appropriate for the class.

    `cmd_witness` has already checked membership in `witness_report`, so
    the procedures run with `verify=False` and do not check it again.
    """
    if cls is MinimalityClass.EDGE_MIN_CONN:
        return {"note": "witnesses come from the degree-counting bound; no descent trace"}
    if cls is MinimalityClass.VERTEX_MIN_CONN:
        region = default_profound_region(g, k)
        if region is None:
            return {"note": "complete graph: no separator, counting bound only"}
        return crossing_separators_witness(g, region, k, verify=False).to_json_obj()
    if cls is MinimalityClass.EDGE_MIN_EDGE_CONN:
        return edge_min_witness_pair(g, k, verify=False).to_json_obj()
    return vertex_min_edge_witness_pair(g, k, verify=False).to_json_obj()


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

    report = witness_report(g, cls, args.k)
    obj = report.to_json_obj()
    obj["graph"] = graph_id(g)
    if args.explain:
        obj["trace"] = _explain_trace(g, cls, args.k)

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


def _verify_row(g, k: int, held: list[MinimalityClass]):
    deg_k = small_degree_set(g, k)
    deg_small = small_degree_set(g, degree_bound(MinimalityClass.VERTEX_MIN_CONN, k))
    counts = {
        MinimalityClass.EDGE_MIN_CONN: len(deg_k),
        MinimalityClass.VERTEX_MIN_CONN: len(deg_small),
        MinimalityClass.EDGE_MIN_EDGE_CONN: len(deg_k),
        MinimalityClass.VERTEX_MIN_EDGE_CONN: len(deg_k),
    }
    failures = [
        cls for cls in held if counts[cls] < required_count(cls, k, g)
    ]
    witnesses = sorted(
        {v for cls in held for v in small_degree_set(g, degree_bound(cls, k))}
    )
    return deg_k, deg_small, failures, witnesses


def _check_k(k: int) -> None:
    # Checked before any graph is read, so a bad k fails the same way
    # whatever the corpus, with nothing on stdout.
    if k < 1:
        raise TooSmall("k must be at least 1")


def _corpus(args, k: int | None) -> Iterator[Graph]:
    """The exhaustive graphs up to --nmax, then --count random graphs, with
    all arguments checked at the call.  With k, only graphs on n >= 2
    vertices of minimum degree >= k: every class implies k-edge-connectivity."""
    graphs = enumerate_all(args.nmax)
    if args.count:
        graphs = chain(graphs, random_graphs(args.count, args.rand_nmax, args.seed))
    return graphs if k is None else (g for g in graphs if g.n >= 2 and g.min_degree() >= k)


def cmd_verify(args) -> int:
    k = args.k
    _check_k(k)
    wanted = _parse_class(args.cls)
    rows = []
    for g in _corpus(args, k):
        rep = classify(g, k)
        held = [
            cls
            for cls in rep.results
            if rep.holds(cls) and (wanted is None or cls is wanted)
        ]
        if not held:
            continue
        deg_k, deg_small, failures, witnesses = _verify_row(g, k, held)
        g6 = to_graph6(g)
        row = {
            "graph6": g6,
            "n": g.n,
            "k": k,
            "classes": "".join(cls.value for cls in held),
            "deg_k": len(deg_k),
            "deg_small": len(deg_small),
            "min_degree": g.min_degree(),
            "satisfied": not failures,
            "witnesses": " ".join(map(str, witnesses)),
        }
        rows.append(row)
        if failures:
            print("degree-theorem violation:", file=sys.stderr)
            print(f"  graph6: {g6}", file=sys.stderr)
            print(f"  edges: {g.edges()}", file=sys.stderr)
            print(f"  degrees: {g.degrees()}", file=sys.stderr)
            for cls in failures:
                print(
                    f"  class {cls.value} ({cls.flag_name(k)}): required "
                    f"{required_count(cls, k, g)} vertices of degree <= "
                    f"{degree_bound(cls, k)}, found "
                    f"{len(small_degree_set(g, degree_bound(cls, k)))}",
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
        print(
            f"{r['graph6']},{r['n']},{r['k']},{r['classes']},{r['deg_k']},"
            f"{r['deg_small']},{r['min_degree']},"
            f"{'yes' if r['satisfied'] else 'no'},{r['witnesses']}"
        )


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def _build_construction(spec: str, radius: int | None):
    """A finite construction or a ball truncation of a family.

    Returns (graph, labels) where labels maps vertex names to indices.
    """
    head, _, rest = spec.strip().partition(":")
    if head == "band":
        p = _parse_params(head, rest, ("k", "l"))
        lg = band_graph(p["k"], p["l"])
        return lg.graph, lg.labels
    if head == "multipath":
        p = _parse_params(head, rest, ("k", "m"))
        return multipath(p["k"], p["m"]), {}
    if head == "path-square":
        p = _parse_params(head, rest, ("l",))
        lg = path_square_example(p["l"])
        return lg.graph, lg.labels
    if head == "cycle-clique":
        p = _parse_params(head, rest, ("k", "l"))
        return cycle_clique_strong(p["k"], p["l"]), {}
    if head in FAMILY_KINDS:
        if radius is None:
            raise InvalidParams(f"family {head!r} needs --radius to truncate")
        f = make_family(spec)
        b = ball(f, radius)
        return b.graph, {repr(t): i for i, t in enumerate(b.tags)}
    raise InvalidParams(
        f"unknown construction {head!r}; known: band, multipath, path-square, "
        f"cycle-clique, {', '.join(sorted(FAMILY_KINDS))}"
    )


def cmd_construct(args) -> int:
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
        if args.k is not None:
            if wanted is not None:
                if not check_class(g, wanted, args.k).holds:
                    continue
            elif not classify(g, args.k).member_classes():
                continue
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
