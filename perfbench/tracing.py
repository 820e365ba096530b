"""Spans around the package's public functions, from outside the package.

`install()` wraps each target below and rebinds the wrapper in every
``minconn`` namespace that holds the original -- module globals such as
``minimality.is_k_connected`` or ``cli.classify``, module-level tables such
as the predicate dict, and class attributes for the flow kernel and the
graph deletion methods.  Nothing in ``src/`` changes; the wrappers live
only in the traced worker process.

Each span is ``(name, start, end, parent, op id, raised MinconnError,
info)``, kept in memory and written out after the pass.  A layer's self
time is its spans' durations minus the time covered by their child
spans.  A target or attribute that a later refactor removes marks the
metrics that need it absent, with the reason, instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# name -> (module, attribute), grouped by the layer metric they feed.
FUNCTIONS = {
    "enumeration.canonical_key": [("minconn.enumeration", "canonical_key")],
    "enumeration.refinement_classes": [("minconn.enumeration", "refinement_classes")],
    "enumeration.enumerate_graphs": [("minconn.enumeration", "enumerate_graphs")],
    "minimality.a": [("minconn.minimality", "is_edge_min_k_connected")],
    "minimality.b": [("minconn.minimality", "is_vertex_min_k_connected")],
    "minimality.c": [("minconn.minimality", "is_edge_min_k_edge_connected")],
    "minimality.d": [("minconn.minimality", "is_vertex_min_k_edge_connected")],
    "connectivity.checks": [("minconn.connectivity", "is_k_connected"),
                            ("minconn.connectivity", "is_k_edge_connected")],
    "connectivity.cuts": [("minconn.connectivity", a) for a in (
        "min_vertex_separator", "min_separator_containing", "min_edge_cut",
        "min_cut_containing_edge", "vertex_connectivity", "edge_connectivity")],
    "connectivity.max_disjoint_paths": [("minconn.connectivity", "max_disjoint_paths")],
    "flow.networks": [("minconn.flow", "FlowNetwork.__init__")],
    "flow.max_flow": [("minconn.flow", "FlowNetwork.max_flow")],
    "graphs.copies": [("minconn.graphs", "Graph.delete_edge"),
                      ("minconn.graphs", "Graph.delete_vertex"),
                      ("minconn.graphs", "MultiGraph.delete_one_edge"),
                      ("minconn.graphs", "MultiGraph.delete_vertex")],
    "witnesses.crossing_separators": [("minconn.witnesses", "crossing_separators_witness")],
    "witnesses.edge_min_pair": [("minconn.witnesses", "edge_min_witness_pair")],
    "witnesses.vertex_min_edge_pair": [("minconn.witnesses", "vertex_min_edge_witness_pair")],
    "witnesses.witness_report": [("minconn.witnesses", "witness_report")],
    "witnesses.profound_region": [("minconn.witnesses", "default_profound_region")],
    "families.ball": [("minconn.families", "ball")],
    "families.end_degree_estimate": [("minconn.families", "end_degree_estimate")],
    "families.certify": [("minconn.families", "certify_essential_edges")],
    "io.graph6": [("minconn.io", "from_graph6"), ("minconn.io", "to_graph6")],
    "cli": [("minconn.cli", "main")],
}
GENERATORS = {"enumeration.enumerate_graphs"}
ERROR_LAYERS = ("connectivity", "minimality", "witnesses", "families")

# What each per-layer metric should move, and where.  Recorded with the
# benchmark so a change to one layer can be judged against it.
LAYER_MAP = {
    "enumeration": "corpus-sweep wall_s; nothing on member-traces or end-degrees",
    "minimality": "corpus-sweep wall_s and member-traces op_p50_ms",
    "graphs.copies": "corpus-sweep wall_s and member-traces op_p50_ms",
    "connectivity.checks": "corpus-sweep wall_s",
    "connectivity.cuts": "member-traces op_p50_ms",
    "connectivity.max_disjoint_paths": "end-degrees wall_s and member-traces wall_s",
    "flow": "corpus-sweep wall_s; end-degrees must not slow",
    "witnesses": "member-traces op_p90_ms and wall_s",
    "families.ball": "end-degrees wall_s and peak_rss_mb",
    "families.end_degree_estimate": "end-degrees op_p90_ms",
    "families.certify": "end-degrees wall_s and peak_rss_mb",
    "io.graph6": "corpus-sweep and member-traces wall_s",
    "cli": "corpus-sweep and member-traces wall_s",
    "errors": "fail_frac",
}


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, error_type: type[Exception]):
        self.error_type = error_type  # the package's errors, counted per layer
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.absent: dict[str, str] = {}
        self.post_errors: dict[str, str] = {}

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def span(self, name_id: int, fn, post=None, pre=None):
        """A wrapper recording one span per call of fn.

        `post(args, kwargs, result, state)` reads the span's info from a
        returned value, `pre()` the state it compares against.  A hook that
        no longer fits the code leaves the info out and notes why.
        """
        spans, stack, error_type = self.spans, self.stack, self.error_type
        name = self.names[name_id]

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            state = pre() if pre else None
            err = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                err = True
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, self.op, err, None)
            if post:
                try:
                    info = post(args, kwargs, result, state)
                except Exception as exc:  # the hook, not the traced code, failed
                    self.post_errors.setdefault(name, f"{type(exc).__name__}: {exc}")
                else:
                    spans[idx] = spans[idx][:6] + (info,)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def generator_span(self, name_id: int, fn):
        """A wrapper recording one span per resumption of the generator;
        info is 1 for a step that yielded an item."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                yielded = 0
                t0 = perf_counter()
                try:
                    item = next(it)
                    yielded = 1
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    spans[idx] = (name_id, t0, t1, parent, self.op, False, yielded)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ---------------------------------------------------------

    def totals(self):
        """Per-name call counts and self times."""
        child = [0.0] * len(self.spans)
        for name_id, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i, (name_id, t0, t1, *_rest) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child[i])
        return calls, self_s

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name_id, t0, t1, parent, op, *_ in self.spans:
                fh.write(json.dumps([self.names[name_id], t0, t1, parent, op]) + "\n")


def _lookup(module: str, attr: str):
    """(owner, attribute name, original) for "func" or "Class.method"."""
    owner = importlib.import_module(module)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last, getattr(owner, last)


def _rebind(original, wrapper) -> None:
    """Replace `original` by `wrapper` in every minconn namespace."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "minconn" or name.startswith("minconn.")):
            continue
        namespace = vars(mod)
        for key, val in list(namespace.items()):
            if val is original:
                namespace[key] = wrapper
            elif type(val) is dict:
                for dkey, dval in list(val.items()):
                    if dval is original:
                        val[dkey] = wrapper


def _descent_steps(result) -> int:
    """Descent steps recorded in a witness trace: shrink steps of the
    crossing-separators argument, or the steps of both descents."""
    if hasattr(result, "shrink_trail"):
        return len(result.shrink_trail)
    return len(result.first.steps) + len(result.second.steps)


def install() -> Tracer:
    """Wrap every target that exists; record the missing ones as absent."""
    tracer = Tracer(importlib.import_module("minconn.errors").MinconnError)

    def arg(args, kwargs, pos, key):
        return args[pos] if len(args) > pos else kwargs.get(key)

    posts = {
        "connectivity.checks": lambda a, kw, r, s: (arg(a, kw, 1, "k"), bool(r)),
        "minimality.a": lambda a, kw, r, s: arg(a, kw, 1, "k"),
        "flow.max_flow": lambda a, kw, r, s: len(a[0].to) // 2,
        "families.end_degree_estimate": lambda a, kw, r, s: len(r.history),
        "families.certify": lambda a, kw, r, s: (r.total, r.certified),
    }
    for cls in "bcd":
        posts[f"minimality.{cls}"] = posts["minimality.a"]
    for name in ("crossing_separators", "edge_min_pair", "vertex_min_edge_pair"):
        posts[f"witnesses.{name}"] = lambda a, kw, r, s: _descent_steps(r)

    for name, targets in FUNCTIONS.items():
        for module, attr in targets:
            try:
                owner, last, original = _lookup(module, attr)
            except (ImportError, AttributeError) as exc:
                tracer.absent[name] = f"{module}.{attr} is gone ({exc})"
                continue
            name_id = tracer.name_id(name)
            if name in GENERATORS:
                wrapper = tracer.generator_span(name_id, original)
            elif name == "families.ball":
                if hasattr(original, "cache_info"):
                    ball_info = original.cache_info
                    pre = lambda: ball_info().misses  # noqa: E731
                    post = lambda a, kw, r, s: (ball_info().misses > s, r.graph.n)  # noqa: E731
                    wrapper = tracer.span(name_id, original, post, pre)
                else:
                    tracer.post_errors[name] = "ball has no cache_info(), so misses are unknown"
                    wrapper = tracer.span(name_id, original)
            else:
                wrapper = tracer.span(name_id, original, posts.get(name))
            if "." in attr:  # a method: the class attribute is the only binding
                setattr(owner, last, wrapper)
            else:
                _rebind(original, wrapper)
    return tracer


def layer_metrics(tracer: Tracer, wall_s: float) -> tuple[dict, dict]:
    """(metrics, absent) for one traced pass of `wall_s` seconds.

    Every `<name>.self_s` also appears as `<name>.self_pct`, its share of
    the traced pass, which compares across workloads.
    """
    calls, self_s = tracer.totals()
    names, spans = tracer.names, tracer.spans
    absent = dict(tracer.absent)
    m: dict[str, float] = {}
    for name in FUNCTIONS:
        if name not in tracer.absent:
            m[f"{name}.calls"] = calls.get(name, 0)
            m[f"{name}.self_s"] = self_s.get(name, 0.0)
    m["op.self_s"] = self_s.get("op", 0.0)  # harness time outside any traced call
    m["trace.spans"] = len(spans)

    def infos(name):  # spans that raised carry no info
        return [s[6] for s in spans if names[s[0]] == name and s[6] is not None]

    def derived(metric, sources, compute):
        for src in sources:
            reason = (tracer.absent.get(src) or tracer.post_errors.get(src)
                      or (None if f"{src}.calls" in m else "not traced"))
            if reason:
                absent[metric] = f"needs {src}: {reason}"
                return
        m[metric] = compute()

    def parent_name(s):
        return names[spans[s[3]][0]] if s[3] >= 0 else ""

    derived("enumeration.unique_ratio",
            ["enumeration.enumerate_graphs", "enumeration.canonical_key"],
            lambda: _ratio(sum(infos("enumeration.enumerate_graphs")),
                           m["enumeration.canonical_key.calls"]))
    # Connectivity checks issued directly by a class predicate; a k+1
    # check that succeeds is the predicates' shortcut answer.
    in_predicate = [s for s in spans if names[s[0]] == "connectivity.checks"
                    and parent_name(s).startswith("minimality.")]
    derived("minimality.conn_checks", ["connectivity.checks"], lambda: len(in_predicate))
    derived("minimality.shortcut_hits",
            ["connectivity.checks"] + [f"minimality.{c}" for c in "abcd"],
            lambda: sum(1 for s in in_predicate
                        if s[6] is not None and s[6][1] and spans[s[3]][6] is not None
                        and s[6][0] == spans[s[3]][6] + 1))
    derived("flow.networks", ["flow.networks"], lambda: m["flow.networks.calls"])
    derived("flow.networks_per_flow", ["flow.networks", "flow.max_flow"],
            lambda: _ratio(m["flow.networks.calls"], m["flow.max_flow.calls"]))
    derived("flow.arcs_per_flow", ["flow.max_flow"],
            lambda: _ratio(sum(infos("flow.max_flow")), m["flow.max_flow.calls"]))
    derived("graphs.copies", ["graphs.copies"], lambda: m["graphs.copies.calls"])
    procedures = [f"witnesses.{n}" for n in
                  ("crossing_separators", "edge_min_pair", "vertex_min_edge_pair")]
    derived("witnesses.descent_steps", procedures,
            lambda: sum(x for p in procedures for x in infos(p)))
    derived("families.ball.misses", ["families.ball"],
            lambda: sum(1 for miss, _ in infos("families.ball") if miss))
    derived("families.ball.vertices_built", ["families.ball"],
            lambda: sum(n for miss, n in infos("families.ball") if miss))
    derived("families.end_degree_estimate.radii_tried", ["families.end_degree_estimate"],
            lambda: sum(infos("families.end_degree_estimate")))
    derived("families.certify.edges", ["families.certify"],
            lambda: sum(t for t, _ in infos("families.certify")))
    derived("families.certify.certified_ratio", ["families.certify"],
            lambda: _ratio(sum(c for _, c in infos("families.certify")),
                           m["families.certify.edges"]))
    for layer in ERROR_LAYERS:
        # MinconnErrors leaving the layer: the span raised and its parent
        # is not a span of the same layer.
        m[f"{layer}.errors"] = sum(
            1 for s in spans
            if s[5] and names[s[0]].startswith(layer + ".")
            and not parent_name(s).startswith(layer + ".")
        )
    for key in [k for k in m if k.endswith(".self_s")]:
        m[key[: -len("self_s")] + "self_pct"] = 100.0 * m[key] / wall_s
    return m, absent


def unit_of(metric: str) -> str:
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith(".self_pct"):
        return "%"
    if metric.endswith(("_ratio", "_per_flow", ".overhead")):
        return "ratio"
    return "count"


def _ratio(num, den) -> float:
    """num / den, and 0.0 when the layer did no work at all."""
    return num / den if den else 0.0
