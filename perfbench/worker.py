"""One pass over a workload's ops in a fresh interpreter.

Reads ``{"ops": [...], "trace": bool, "spans": path or null}`` as JSON on
stdin.  Writes one JSON line per op as soon as it ends, so the worker
holds no outputs and its peak RSS is the program's, then one summary
line.  The worker starts cold, as every CLI invocation does: the timed
``import minconn.cli`` is the set-up, and the ``ball`` cache starts
empty.  With ``"ops": []`` it only measures set-up.

Between ops, outside their timing, it times a fixed reference kernel that
is not the program's code: right after the import, then after every op
that ends at least CAL_EVERY_S after the last kernel run, and after the
last op.  The host's cores change speed by up to 2x over minutes as other
tenants come and go; the program's times are divided by the kernel's
times taken beside them, so that a change in the program moves the
figures and a change in the host does not.

Run from the root of a checkout with ``src`` on ``PYTHONPATH``; run.py
starts it that way.
"""

from __future__ import annotations

import io
import json
import random
import resource
import sys
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from hashlib import sha256
from time import perf_counter


SETUP_KERNELS = 3  # kernel runs right after the import, which scale its time
CAL_EVERY_S = 0.1  # least time between two kernel runs in a pass
_KERNEL_RNG = random.Random(1)
_KERNEL_GRAPH = [sorted(_KERNEL_RNG.sample(range(400), 6)) for _ in range(400)]


def reference_kernel_s() -> float:
    """Seconds that one fixed pure-Python graph search takes right now.

    Breadth- and depth-first searches from 20 roots of a fixed random
    400-vertex digraph: dicts, sets, lists and a deque, the data
    structures the package's own searches use.
    """
    t0 = perf_counter()
    for root in range(0, len(_KERNEL_GRAPH), 20):
        dist = {root: 0}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in _KERNEL_GRAPH[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        seen, stack = set(), [root]
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(_KERNEL_GRAPH[u])
    return perf_counter() - t0


def _certify(minconn, op) -> str:
    report = minconn.certify_essential_edges(
        minconn.make_family(op["family"]), op["radius"], op["pad"], op["k"])
    body = json.dumps(report.to_json_obj(), sort_keys=True)
    return json.dumps({"total": report.total, "certified": report.certified,
                       "ratio": report.ratio, "sha256": sha256(body.encode()).hexdigest()},
                      sort_keys=True)


def peak_rss_mb() -> float:
    """Peak resident set of this process image, in MiB.

    VmHWM belongs to the address space exec created; ru_maxrss also keeps
    the high-water mark of the parent's pages the child was forked from,
    so it serves only where /proc is missing.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(cli, minconn, op) -> dict:
    """Execute one op with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = 0, None
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if op["kind"] == "cli":
                rc = cli.main(op["argv"])
            else:
                out.write(_certify(minconn, op))
    except SystemExit as exc:  # argparse usage errors exit
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a raised op is a failed op, not a failed pass
        rc, error = None, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    return {"id": op["id"], "rc": rc, "s": seconds, "out": out.getvalue(),
            "err": error or err.getvalue()[-2000:]}


def main() -> int:
    if sys.flags.optimize:
        print("refusing to run under python -O: the package's asserts are checks",
              file=sys.stderr)
        return 2
    job = json.load(sys.stdin)
    t0 = perf_counter()
    import minconn.cli as cli
    setup_s = perf_counter() - t0
    kernel_s = [reference_kernel_s() for _ in range(SETUP_KERNELS)]
    import minconn

    tracer = None
    run = run_op
    if job.get("trace"):
        import tracing

        tracer = tracing.install()
        run = tracer.span(tracer.name_id("op"), run_op)
    # Ops run in segments of at least CAL_EVERY_S, each with a kernel run at
    # either end; `wall_kernels` is the pass's op time with each segment
    # divided by the mean of its two kernel runs.
    last_kernel = perf_counter()
    wall_s = 0.0
    wall_kernels = 0.0
    segment_s = 0.0
    for i, op in enumerate(job["ops"]):
        if tracer:
            tracer.op = op["id"]
        result = run(cli, minconn, op)
        wall_s += result["s"]
        segment_s += result["s"]
        print(json.dumps(result), flush=True)
        if perf_counter() - last_kernel >= CAL_EVERY_S or i == len(job["ops"]) - 1:
            kernel_s.append(reference_kernel_s())
            wall_kernels += segment_s * 2 / (kernel_s[-2] + kernel_s[-1])
            segment_s = 0.0
            last_kernel = perf_counter()
    summary = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb(),
               "kernel_s": kernel_s,
               "wall_kernels": wall_kernels}
    if tracer:
        summary["layers"], summary["absent"] = tracing.layer_metrics(tracer, wall_s)
        if job.get("spans"):
            tracer.dump(job["spans"])
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
