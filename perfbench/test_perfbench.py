"""Tests for the benchmark itself: ``python3 -m pytest perfbench -q``."""

import importlib
import json
import shutil
import subprocess
import sys
import types
from argparse import Namespace
from pathlib import Path

import pytest

import run
from spans import Patcher, Recorder, Span, self_time_by_name, self_times

HERE = Path(__file__).resolve().parent


# -- inputs come from the seed ----------------------------------------------

def _cache_keys(workload, root):
    from repro.sampler.checkpoint import DEFAULT_WARMUP_INSTS
    from repro.sampler.runner import prepare_campaign
    from repro.sampler.trace_cache import TraceCache
    from repro.uarch import MEGA_BOOM

    plan = prepare_campaign(workload, MEGA_BOOM, cache=TraceCache(root),
                            warmup_insts=DEFAULT_WARMUP_INSTS,
                            batch_lanes="auto")
    return plan.keys


def test_same_seed_same_inputs_and_cache_keys(tmp_path):
    from workloads import AuditCold, Explore

    kernels = ("sam-ct", "ee-mem-cmp")
    first = AuditCold(5, tmp_path, passes=1, kernels=kernels)
    second = AuditCold(5, tmp_path, passes=1, kernels=kernels)
    other = AuditCold(6, tmp_path, passes=1, kernels=kernels)
    for suite in (first, second, other):
        suite.build()
    assert [w.inputs for w in first.suite] == [w.inputs for w in second.suite]
    assert [w.inputs for w in first.suite] != [w.inputs for w in other.suite]
    for one, two in zip(first.suite, second.suite):
        assert (_cache_keys(one, tmp_path / "a")
                == _cache_keys(two, tmp_path / "b"))

    def build_only(name, call):
        return call() if name == "workloads.build" else None

    explores = [Explore(5, tmp_path, n_ops=4) for _ in range(2)]
    for explore in explores:
        explore.setup(build_only)
    assert ([w.inputs for w in explores[0].suite]
            == [w.inputs for w in explores[1].suite])
    assert [label for label, _ in explores[0].ops("x")] == [
        "localize", "sweep"] * 2


# -- the op_tail_s percentile rule ------------------------------------------

def test_tail_leaves_ten_ops_beyond_and_records_percentile():
    latencies = [float(value) for value in range(32, 0, -1)]
    value, percentile, beyond = run.tail(latencies)
    assert (value, percentile, beyond) == (22.0, 68, 10)
    # One percentile higher would leave only nine ops beyond.
    assert 32 - -(-(percentile + 1) * 32 // 100) < 10


def test_tail_smallest_and_too_few_counts():
    assert run.tail([1.0] * 10) is None
    value, percentile, beyond = run.tail([float(v) for v in range(11)])
    assert (value, percentile, beyond) == (0.0, 9, 10)
    _, percentile, beyond = run.tail([0.5] * 200)
    assert (percentile, beyond) == (95, 10)


# -- span self-time arithmetic -----------------------------------------------

def test_self_times_on_a_synthetic_tree():
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("exec.simulate", 1.0, 6.0, 0, 0),
        Span("checkpoint.capture", 2.0, 3.0, 1, 0),
        Span("checkpoint.key", 4.0, 4.5, 1, 0),
        Span("stats.analyze", 7.0, 9.0, 0, 0),
        Span("op", 10.0, 11.0, None, 1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.5, 1.0, 0.5, 2.0, 1.0])
    totals = self_time_by_name(spans)
    assert totals["op"] == pytest.approx(4.0)
    assert sum(totals.values()) == pytest.approx(11.0)


def test_overlapping_children_count_once():
    spans = [Span("root", 0.0, 10.0, None, None),
             Span("a", 1.0, 5.0, 0, None),
             Span("b", 3.0, 12.0, 0, None)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_recorder_builds_the_tree_with_op_ids():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))
    recorder.op = 7
    with recorder.span("op"):
        with recorder.span("a"):
            pass
        with pytest.raises(ValueError):
            with recorder.span("b"):
                raise ValueError
    parents = [(s.name, s.parent, s.op) for s in recorder.spans]
    assert parents == [("op", None, 7), ("a", 0, 7), ("b", 0, 7)]
    assert all(span.end > span.start for span in recorder.spans)


# -- wrappers are always restored --------------------------------------------

def _bindings():
    """Every (module, name) -> object binding of a wrapped function."""
    from repro.sampler.pipeline import MicroSampler
    from repro.sampler.runner import Workload
    from repro.sampler.trace_cache import TraceCache

    targets = {id(getattr(TraceCache, name)) for name in
               ("key_for", "load", "store")}
    targets |= {id(Workload.assemble), id(MicroSampler.analyze_campaign)}
    localize_module = importlib.import_module("repro.localize.localize")
    import repro.sampler.batch as batch
    import repro.sampler.checkpoint as checkpoint
    import repro.sampler.runner as runner
    import repro.sampler.sweep as sweep
    import repro.taint as taint
    for module, name in ((runner, "patch_program"),
                         (runner, "execute_tasks"),
                         (runner, "finalize_campaign"),
                         (checkpoint, "checkpoint_key"),
                         (checkpoint, "load_or_capture"),
                         (batch, "attach_batch_checkpoints"),
                         (sweep, "_execute_shards"),
                         (taint, "compute_publicness"),
                         (localize_module, "temporal_scan"),
                         (localize_module, "attribute_window")):
        targets.add(id(getattr(module, name)))
    found = {}
    for module in list(sys.modules.values()):
        for name, value in list(getattr(module, "__dict__", {}).items()):
            if id(value) in targets:
                found[(getattr(module, "__name__", "?"), name)] = value
    found.update({("TraceCache", name): getattr(TraceCache, name)
                  for name in ("key_for", "load", "store")})
    found[("Workload", "assemble")] = Workload.assemble
    found[("MicroSampler", "analyze_campaign")] = MicroSampler.analyze_campaign
    return found


def test_wrappers_restored_when_an_op_raises():
    from layers import install
    import repro.cli
    from repro.sampler.runner import WorkloadError, patch_program

    before = _bindings()
    program = repro.cli.build_workload("sam-ct").assemble()
    late = types.ModuleType("perfbench_late_import")
    recorder = Recorder()
    with pytest.raises(WorkloadError):
        with Patcher() as patcher:
            install(recorder, patcher)
            import repro.sampler.runner as runner
            # A module imported mid-run copies the live wrapper.
            late.patch_program = runner.patch_program
            sys.modules[late.__name__] = late
            assert runner.patch_program is not patch_program
            runner.patch_program(program, {"no_such_symbol": b"\0"})
    del sys.modules[late.__name__]
    assert late.patch_program is patch_program
    assert _bindings() == before
    assert [span.name for span in recorder.spans] == ["isa.assemble"]


# -- tiny smoke of each workload ---------------------------------------------

def _smoke(workload, tmp_path):
    parts = {"setup.fill_s": 0.0}

    def timed(name, call):
        result = call()
        parts[f"{name}_s"] = 0.0
        for outcome in result if isinstance(result, list) else [result]:
            assert getattr(outcome, "ok", True)
        return result

    workload.setup(timed)
    parts["cli.import_s"] = 0.0
    untraced, calib = run.run_ops(workload, "untraced")
    from layers import install

    recorder = Recorder()
    with Patcher() as patcher:
        install(recorder, patcher)
        traced, _ = run.run_ops(workload, "traced", recorder)
    assert all(record.ok for record in untraced + traced), \
        [record.error for record in untraced + traced]
    assert ([record.outcome.verdict for record in untraced]
            == [record.outcome.verdict for record in traced])
    # per_layer raises unless self times + unattributed reconcile.
    layers = run.per_layer(workload, parts, untraced, traced, recorder, calib)
    assert set(layers) == set(run.per_layer_units())
    setup_parts = dict(parts, setup_s=1.0)
    assert set(run.end_to_end(untraced * 11, setup_parts)) == set(
        run.END_TO_END)
    return layers, recorder


def test_smoke_audit_cold_and_counts_repeat(tmp_path):
    from layers import EXACT_COUNTS
    from workloads import AuditCold

    counts = []
    for attempt in range(2):
        workload = AuditCold(3, tmp_path / str(attempt), passes=1,
                             kernels=("sam-ct", "sbox-ct"))
        layers, recorder = _smoke(workload, tmp_path)
        counts.append({name: layers[name] for name in EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["uarch.cycles"] > 0
    assert counts[0]["trace_cache.stores"] == counts[0]["trace_cache.misses"]


def test_smoke_audit_warm_replays(tmp_path):
    from workloads import AuditWarm

    workload = AuditWarm(3, tmp_path, passes=1, kernels=("sam-ct", "sbox-ct"))
    layers, _ = _smoke(workload, tmp_path)
    assert layers["trace_cache.misses"] == 0
    assert layers["trace_cache.hit_ratio"] == 1.0
    assert layers["uarch.cycles"] == 0
    assert layers["trace_cache.bytes"] > 0


def test_smoke_explore(tmp_path):
    from workloads import Explore

    layers, _ = _smoke(Explore(3, tmp_path, n_ops=2), tmp_path)
    assert layers["sweep.legs"] == 3
    assert layers["trace_cache.keys"] == 0
    assert layers["localize.scan_s"] > 0


# -- the contract around the benchmark ---------------------------------------

def test_benchmark_json_matches_run_py():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_units())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    import repro.cli
    from workloads import AUDIT_KERNELS, EXCLUDED_KERNELS
    assert run.AUDIT_KERNEL_NAMES == AUDIT_KERNELS
    assert (set(repro.cli.AUDIT_EXPECTATIONS) - set(AUDIT_KERNELS)
            == set(EXCLUDED_KERNELS))


# -- kernels the audit workloads leave out -----------------------------------

@pytest.mark.xfail(strict=True, reason="program defect: ct-mem-cmp-safe is "
                   "flagged leaky on NLP-ADDR for about one seed in twenty")
def test_excluded_kernel_verdict_on_a_failing_seed():
    """Pins why ``ct-mem-cmp-safe`` is out of the audit workloads.  Once the
    program gets this verdict right, this test fails: put the kernel back
    (``workloads.EXCLUDED_KERNELS``, ``run.AUDIT_KERNEL_NAMES``,
    ``BENCHMARK.json``) and delete the test."""
    from workloads import audit_op

    import repro.cli
    workload = repro.cli.build_workload("ct-mem-cmp-safe", seed=49553821)
    assert audit_op(workload, None).ok


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_make_workload_sizes_fixed_work(tmp_path):
    def args(workload, trace):
        return Namespace(workload=workload, seed=1, seconds=20, trace=trace)

    cold = run.make_workload(args("audit-cold", 0), tmp_path)
    assert cold.passes == 2
    assert run.make_workload(args("audit-cold", 1), tmp_path).passes == 1
    explore = run.make_workload(args("explore", 0), tmp_path)
    assert explore.n_ops % 2 == 1 and explore.n_ops >= 11
