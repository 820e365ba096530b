"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench

They spawn a few small workers from the repository root; no test runs a
whole workload.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _invariants(op):
    e = op["expect"]
    return (op["kind"], e["type"], e.get("k"), e.get("count"), e.get("value"), e.get("total"),
            e.get("construction"), e.get("class"), len(e.get("witnesses", ())))


def _inputs(op):
    return op.get("argv") or op["family"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_new_seed_changes_inputs_not_invariants(workload):
    a = workloads.build(workload, workloads.DEFAULT_SEED)
    b = workloads.build(workload, workloads.DEFAULT_SEED + 1)
    assert [_inputs(op) for op in a] != [_inputs(op) for op in b]
    assert [_invariants(op) for op in a] == [_invariants(op) for op in b]
    assert workloads.build(workload, 7) == workloads.build(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_pass_supports_a_p90(workload):
    assert len(workloads.build(workload, 3)) >= run.P90_MIN_OPS


def test_p90_needs_enough_ops_in_every_pass():
    short = [[0.001 * i for i in range(1, run.P90_MIN_OPS)]]
    assert "op_p90_ms" not in run.latency_percentiles(short)
    full = [[0.001 * i for i in range(1, run.P90_MIN_OPS + 1)]] * 2
    got = run.latency_percentiles(full)
    assert got["op_p90_ms"] == pytest.approx(90.0)
    assert got["op_p50_ms"] == pytest.approx(50.0)
    assert "op_p90_ms" not in run.latency_percentiles(full + short)


def _small_ops():
    """A few cheap ops that touch every layer."""
    picked = [op for op in workloads.build("end-degrees", 5)
              if op.get("argv", [None, None])[1] == "double-ray"]
    picked += [op for op in workloads.build("member-traces", 5)
               if op["expect"]["construction"] in ("band(3, 2)", "multipath(2, 4)")]
    picked += workloads.build("corpus-sweep", 5)[3:6]
    picked.append({"kind": "cli", "argv": ["verify", "--k", "2", "--nmax", "5"],
                   "expect": {"type": "verify", "k": 2}})
    picked.append({"kind": "certify", "family": "dr-square", "radius": 4, "pad": 2, "k": 3,
                   "expect": {"type": "certify", "total": 31}})
    for i, op in enumerate(picked):
        op["id"] = i
    return picked


@pytest.fixture(scope="module")
def small_passes():
    ops = _small_ops()
    return ops, run.spawn(ROOT, ops), run.spawn(ROOT, ops, trace=True)


def test_corrupted_output_raises_fail_frac(small_passes):
    ops, plain, _ = small_passes
    checker = checks.Checker("end-degrees", 5, None)
    tally = run.Tally()
    reference = run.check_pass(ops, plain, checker, None, tally)
    assert tally.failed == 0, tally.reasons
    corrupted = {**plain, "ops": [dict(r) for r in plain["ops"]]}
    corrupted["ops"][0]["out"] = "17\n"
    corrupted["ops"][-1]["rc"] = 3
    run.check_pass(ops, corrupted, checker, reference, tally)
    assert tally.failed == 2
    assert tally.failed / tally.attempted == pytest.approx(2 / (2 * len(ops)))


def test_recorded_digests_catch_changed_bytes():
    record = {"seed": 0, "verify": {}, "digests": {"end-degrees": ["0" * 16]}}
    op = {"id": 0, "expect": {"type": "end-degree", "value": 1}}
    result = {"rc": 0, "out": "1\n", "err": "", "s": 0.0}
    assert "digest" in checks.Checker("end-degrees", 0, record).check_op(op, result)
    assert checks.Checker("end-degrees", 1, record).check_op(op, result) is None


def test_traced_and_untraced_outputs_are_equal(small_passes):
    ops, plain, traced = small_passes
    assert [(r["rc"], r["out"]) for r in plain["ops"]] == [(r["rc"], r["out"]) for r in traced["ops"]]
    layers = traced["layers"]
    assert traced["absent"] == {}
    for key in ("enumeration.canonical_key.calls", "minimality.a.calls", "flow.max_flow.calls",
                "witnesses.witness_report.calls", "families.ball.misses", "families.certify.edges",
                "io.graph6.calls"):
        assert layers[key] > 0, key
    assert layers["families.certify.certified_ratio"] == 1.0
    assert "layers" not in plain


def test_missing_target_is_absent_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "FUNCTIONS", {"flow.max_flow": [("minconn.flow", "FlowNetwork.gone")]})
    tracer = tracing.install()
    metrics, absent = tracing.layer_metrics(tracer, 1.0)
    assert "FlowNetwork.gone" in absent["flow.max_flow"]
    assert "flow.arcs_per_flow" in absent and "enumeration.unique_ratio" in absent
    assert metrics["trace.spans"] == 0


def test_times_scale_by_the_kernel_runs_beside_them():
    k = run.REF_KERNEL_S
    passes = [{"kernel_s": [2 * k, 2 * k, 4 * k]}, {"kernel_s": [2 * k, 8 * k]}]
    assert run.reference_scale(passes) == pytest.approx(0.5)
    setup_kernels = [2 * k] * worker.SETUP_KERNELS + [9 * k]  # later runs do not count
    assert run.setup_at_reference({"setup_s": 0.4, "kernel_s": setup_kernels}) == pytest.approx(0.2)


def test_every_worker_times_the_kernel(small_passes):
    ops, plain, traced = small_passes
    for result in (plain, traced, run.spawn(ROOT, [])):
        assert len(result["kernel_s"]) >= worker.SETUP_KERNELS
        assert all(k > 0 for k in result["kernel_s"])
    assert plain["wall_kernels"] == pytest.approx(
        plain["wall_s"] / statistics.median(plain["kernel_s"]), rel=0.5)
