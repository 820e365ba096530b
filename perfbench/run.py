"""minconn benchmark: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload corpus-sweep --seed 0 --seconds 35 --trace 0

Run from the root of a checkout (the directory holding ``src/minconn``
and ``BENCHMARK.json``).  Each pass over the workload's ops runs in a
fresh worker process (worker.py) with cold imports and a cold ``ball``
cache, as every CLI invocation starts; one worker runs at a time.  Before
the passes, a warm-up worker compiles the bytecode and a few more only
time the cold ``import minconn.cli`` (set-up).  Passes repeat until the
time is spent, at least MIN_PASSES of them.  Every output is checked
after its pass, outside the timing (checks.py), and every pass must print
the same bytes as the first.

The host's cores change speed by up to 2x over minutes, so the timings are
given at a reference speed: each worker also times a fixed kernel of the
benchmark's own (worker.reference_kernel_s) beside the program, and every
time is multiplied by REF_KERNEL_S over the kernel's time beside it.  A
figure then reads as the seconds the program would take on a core where
the kernel takes REF_KERNEL_S.  ``wall_s`` is the median pass, each
stretch of ops in it scaled by the kernel runs at its two ends
(worker.py); ``setup_s`` the median import, each scaled by the kernel
runs right after it; the op latencies are scaled by the run's median
kernel time.  The raw medians and the kernel's time are printed too.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes and reports its
per-layer metrics from the traced ones (tracing.py), plus the tracing
overhead; the two kinds of pass must print the same bytes.  Spans of the
last traced pass go to ``.perfbench-out/`` in the checkout.

``--record`` rewrites record.json from the current code: the byte
digests at the default seed, the per-k verify member counts and the
machine.  It is how the benchmark's reference outputs were made.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  The lines before it are the same figures for a reader.
Without ``--workload`` every workload runs in turn, each ending with its
own JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

RECORD = HERE / "record.json"
SETUP_PROBES = 5
MIN_PASSES = 3
P90_MIN_OPS = 100  # a p90 needs at least ten samples beyond it in one pass
# The reference kernel's time on an unloaded core of the machine the
# benchmark was defined on (an Intel Xeon, Python 3.11): its fastest runs.
REF_KERNEL_S = 0.005
WORKER_TIMEOUT_S = 170
# Every figure a plain run prints.  BENCHMARK.json bounds the steady ones;
# the op latency percentiles move with the host's load more than the
# largest bound allows, so they are reported and not bounded.
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "peak_rss_mb": "MB"}


class WorkerFailed(RuntimeError):
    pass


def machine() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy}


def spawn(root: Path, ops: list, trace: bool = False, spans: Path | None = None) -> dict:
    """One fresh worker over `ops`; its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    job = {"ops": [{k: v for k, v in op.items() if k != "expect"} for op in ops],
           "trace": trace, "spans": str(spans) if spans else None}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                          capture_output=True, text=True, env=env, cwd=root,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    *lines, last = proc.stdout.splitlines()
    result = json.loads(last)
    result["ops"] = [json.loads(line) for line in lines]
    return result


def nearest_rank(samples: list[float], q: float) -> float:
    """The q-quantile as a measured sample (nearest rank, no interpolation)."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def reference_scale(passes: list[dict]) -> float:
    """REF_KERNEL_S over the median time of the kernel runs in `passes`."""
    return REF_KERNEL_S / statistics.median(k for p in passes for k in p["kernel_s"])


def setup_at_reference(result: dict) -> float:
    """A worker's import time, scaled by the kernel runs right after it."""
    return (result["setup_s"] * REF_KERNEL_S
            / statistics.median(result["kernel_s"][:worker.SETUP_KERNELS]))


def latency_percentiles(passes: list[list[float]]) -> dict:
    """op_p50_ms over every op of every pass, and op_p90_ms only when each
    pass holds at least P90_MIN_OPS ops."""
    pooled = [s for p in passes for s in p]
    out = {"op_p50_ms": 1e3 * nearest_rank(pooled, 0.5)}
    if all(len(p) >= P90_MIN_OPS for p in passes):
        out["op_p90_ms"] = 1e3 * nearest_rank(pooled, 0.9)
    return out


class Tally:
    """Attempted and failed ops, with the first reasons seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.reasons) < 10:
            self.reasons.append(reason)


def check_pass(ops, result, checker, reference, tally) -> dict:
    """Check one pass's outputs; returns its {op id: (rc, digest)}."""
    seen = {}
    for op, res in zip(ops, result["ops"]):
        tally.attempted += 1
        seen[op["id"]] = (res["rc"], checks.digest(res["out"]))
        reason = checker.check_op(op, res)
        if reason is None and reference is not None and reference[op["id"]] != seen[op["id"]]:
            reason = "output differs from the first pass"
        if reason:
            tally.fail(1, f"op {op['id']} {op.get('argv', op.get('family'))[:4]}: {reason}")
    return seen


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool, record) -> dict:
    ops = workloads.build(workload, seed)
    checker = checks.Checker(workload, seed, record)
    tally = Tally()
    start = time.perf_counter()
    spawn(root, [])  # warm-up: writes the bytecode caches, not timed
    workers = [spawn(root, []) for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    reference = None
    spans = root / ".perfbench-out" / f"spans-{workload}-seed{seed}.jsonl"
    longest = 0.0
    broken = 0
    while broken < 2:
        done = len(plain) + len(traced)
        enough = bool(plain and traced) if trace else done >= MIN_PASSES
        if enough and time.perf_counter() - start + longest > seconds:
            break
        traced_pass = trace and done % 2 == 1
        began = time.perf_counter()
        if traced_pass:
            spans.parent.mkdir(exist_ok=True)
        try:
            result = spawn(root, ops, traced_pass, spans if traced_pass else None)
        except (WorkerFailed, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            tally.attempted += len(ops)
            tally.fail(len(ops), f"pass failed: {exc}")
            broken += 1
            continue
        finally:
            longest = max(longest, time.perf_counter() - began)
        seen = check_pass(ops, result, checker, reference, tally)
        reference = reference or seen
        (traced if traced_pass else plain).append(result)
        workers.append(result)
    if not plain or (trace and not traced):
        raise WorkerFailed("no pass completed: " + "; ".join(tally.reasons))

    scale = reference_scale(plain)
    raw_wall = statistics.median(p["wall_s"] for p in plain)
    figures = {
        "setup_s": statistics.median(setup_at_reference(w) for w in workers),
        "wall_s": REF_KERNEL_S * statistics.median(p["wall_kernels"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        **latency_percentiles([[o["s"] * scale for o in p["ops"]] for p in plain]),
    }
    notes = {"passes": len(plain), "ops_per_pass": len(ops), "setup_samples": len(workers),
             "pass_walls": sorted(p["wall_s"] for p in plain),
             "raw_wall_s": raw_wall,
             "raw_setup_s": statistics.median(w["setup_s"] for w in workers),
             "kernel_ms": 1e3 * REF_KERNEL_S / scale,
             "kernel_samples": sum(len(p["kernel_s"]) for p in plain),
             "op_samples": len(ops) * len(plain),
             "fail_frac": tally.failed / tally.attempted}
    if workload == "corpus-sweep":
        notes["graphs_per_s"] = workloads.GRAPHS_PER_PASS / figures["wall_s"]
    absent = {}
    if trace:
        for key in traced[0]["layers"]:
            figures[key] = statistics.median(p["layers"][key] for p in traced)
        figures["trace.overhead"] = (statistics.median(p["wall_kernels"] for p in traced)
                                     * REF_KERNEL_S / figures["wall_s"])
        for p in traced:
            absent.update(p["absent"])
        notes["traced_passes"] = len(traced)
        notes["spans"] = str(spans.relative_to(root))
    return {"figures": figures, "notes": notes, "absent": absent, "tally": tally}


def report(workload, seed, bench, trace, out) -> dict:
    """Print the readable report and return the result object."""
    figures, notes, tally = out["figures"], out["notes"], out["tally"]
    print(f"minconn benchmark: workload={workload} seed={seed} machine={machine()}")
    print(f"  {notes['passes']} passes of {notes['ops_per_pass']} ops in fresh workers "
          f"(pass walls {', '.join(f'{w:.4g}' for w in notes['pass_walls'])} s), "
          f"{notes['setup_samples']} cold set-ups, {notes['op_samples']} op latencies")
    print(f"  reference kernel {notes['kernel_ms']:.4g} ms (median of {notes['kernel_samples']} "
          f"runs); times below are scaled to {1e3 * REF_KERNEL_S:g} ms, "
          f"raw medians wall {notes['raw_wall_s']:.4g} s, set-up {notes['raw_setup_s']:.4g} s")
    for name in ("setup_s", "wall_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"):
        if name in figures:
            print(f"  {name:<14} {figures[name]:.6g} {E2E_UNITS[name]}")
    print(f"  {'fail_frac':<14} {notes['fail_frac']:.6g} ({tally.failed} of {tally.attempted} ops)")
    if "graphs_per_s" in notes:
        print(f"  {'graphs_per_s':<14} {notes['graphs_per_s']:.6g} 1/s "
              f"({workloads.GRAPHS_PER_PASS} graphs classified per pass)")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    if trace:
        print(f"  traced passes: {notes['traced_passes']}; "
              f"overhead {figures['trace.overhead']:.4g}x; spans in {notes['spans']}")
        for key in sorted(figures):
            if key not in E2E_UNITS:
                print(f"  {key:<48} {figures[key]:.6g} {tracing.unit_of(key)}")
    absent = dict(out["absent"])
    for m in wanted:
        if m["name"] not in figures and m["name"] not in absent:
            absent[m["name"]] = "not measured on this workload"
    for key, reason in sorted(absent.items()):
        print(f"  absent {key}: {reason}")
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in figures}
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def make_record(root: Path) -> dict:
    """Reference outputs of the current code at the default seed."""
    rec = {"seed": workloads.DEFAULT_SEED, "machine": machine(), "digests": {}, "verify": {},
           "layer_map": tracing.LAYER_MAP}
    for workload in workloads.WORKLOADS:
        ops = workloads.build(workload, workloads.DEFAULT_SEED)
        result = spawn(root, ops)
        checker = checks.Checker(workload, workloads.DEFAULT_SEED, None)
        for op, res in zip(ops, result["ops"]):
            reason = checker.check_op(op, res)
            if reason:
                raise WorkerFailed(f"{workload} op {op['id']}: {reason}")
            if op["expect"]["type"] == "verify":
                rec["verify"][str(op["expect"]["k"])] = checks.verify_counts(res["out"])
        rec["digests"][workload] = [checks.digest(r["out"]) for r in result["ops"]]
    return rec


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS,
                   help="one workload (default: each in turn)")
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help="rewrite record.json and exit")
    args = p.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: the package's asserts are checks", file=sys.stderr)
        return 2
    root = Path.cwd()
    if not (root / "src" / "minconn" / "__init__.py").is_file():
        print(f"no src/minconn under {root}: run from the root of a minconn checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the constructions build member-traces inputs
    if args.record:
        RECORD.write_text(json.dumps(make_record(root), indent=1, sort_keys=True) + "\n")
        print(f"wrote {RECORD.relative_to(root)}")
        return 0
    bench = json.loads((root / "BENCHMARK.json").read_text())
    record = json.loads(RECORD.read_text())
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        try:
            out = measure(root, workload, args.seed, args.seconds, bool(args.trace), record)
        except (WorkerFailed, subprocess.TimeoutExpired) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(report(workload, args.seed, bench, bool(args.trace), out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
