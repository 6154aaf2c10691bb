"""The measurement spine: every front end's span tree reconciles.

For ``analyze``, ``sweep``, ``audit`` and ``localize`` run in-process at
``jobs=1``, every span's children sum to at most the span itself and the
root covers at least 95% of the wall time measured around the library
call, so no timing is a residual of a different clock.
"""

import pickle
import time

from repro.localize import localize
from repro.sampler import MicroSampler, sweep_configs
from repro.sampler.audit import run_audit
from repro.sampler.checkpoint import DEFAULT_WARMUP_INSTS
from repro.uarch import MEDIUM_BOOM, SMALL_BOOM
from repro.util.profiling import STAGE_LABELS, Span, stage_seconds
from repro.workloads.chacha import make_chacha20
from repro.workloads.memcmp import make_early_exit_memcmp
from repro.workloads.modexp import make_sam_ct, make_sam_leaky

#: Float slack for a parent whose seconds equal its children's sum.
EPSILON = 1e-6

BACKEND = dict(jobs=1, warmup_insts=DEFAULT_WARMUP_INSTS, batch_lanes="auto",
               profile=True)


def _nodes(span):
    yield span
    for child in span.children.values():
        yield from _nodes(child)


def _timed(call):
    started = time.perf_counter()
    result = call()
    return result, time.perf_counter() - started


def _assert_reconciles(root: Span, wall: float) -> None:
    for node in _nodes(root):
        covered = sum(child.seconds for child in node.children.values())
        assert covered <= node.seconds + EPSILON, node.name
    assert root.seconds >= 0.95 * wall
    assert root.seconds <= wall


def test_analyze_tree_reconciles_and_feeds_table_vi():
    sampler = MicroSampler(SMALL_BOOM, **BACKEND)
    report, wall = _timed(lambda: sampler.analyze(make_sam_ct(n_keys=2)))
    _assert_reconciles(report.spans, wall)
    assert report.profile is report.spans
    names = {node.name for node in _nodes(report.spans)}
    assert {"prepare", "execute", "finalize", "stats", "extract",
            "parse", *STAGE_LABELS} <= names
    timings = report.timings
    assert timings["simulate"] > 0 and timings["parse"] > 0
    assert timings["total"] <= report.spans.seconds + EPSILON


def test_sweep_tree_reconciles_with_a_run_per_leg():
    result, wall = _timed(lambda: sweep_configs(
        make_chacha20(n_keys=2, n_blocks=1, seed=3),
        (SMALL_BOOM, MEDIUM_BOOM), cache=None, **BACKEND))
    _assert_reconciles(result.spans, wall)
    execute = result.spans.children["execute"].children
    assert set(execute) == {"run SmallBoom", "run MediumBoom"}
    phases = result.phase_seconds()
    for leg in result.legs:
        assert leg.report.spans is leg.span
        assert phases["legs"][leg.name]["execute_seconds"] > 0
    assert phases["wall_seconds"] == result.spans.seconds


def test_audit_tree_reconciles_with_a_child_per_entry():
    result, wall = _timed(lambda: run_audit(
        [make_sam_leaky(n_keys=2), make_sam_ct(n_keys=2)],
        config=SMALL_BOOM, **BACKEND))
    _assert_reconciles(result.spans, wall)
    assert list(result.spans.children) == ["sam-leaky", "sam-ct"]
    for entry in result.entries:
        assert entry.seconds == result.spans.children[entry.name].seconds


def test_localize_tree_reconciles():
    sampler = MicroSampler(SMALL_BOOM, **BACKEND)
    workload = make_early_exit_memcmp(n_pairs=8, seed=2, n_runs=2)
    report, wall = _timed(lambda: localize(workload, sampler=sampler))
    _assert_reconciles(report.spans, wall)
    assert report.leakage_localized
    assert {"analyze", "campaign", "scan", "attribute"} <= set(
        report.spans.children)
    timings = report.timings
    assert timings["simulate"] > 0 and timings["scan"] > 0


def test_adopt_merges_same_named_runs_and_survives_pickling():
    def run(seconds):
        root = Span("run small")
        root.seconds, root.calls = seconds, 1
        root.count("cycles", 10)
        root.child("core").seconds = seconds / 2
        return pickle.loads(pickle.dumps(root))

    execute = Span("execute")
    execute.seconds = 1.0
    for seconds in (0.25, 0.5):
        execute.adopt(run(seconds))
    merged = execute.children["run small"]
    assert (merged.seconds, merged.calls) == (0.75, 2)
    assert merged.counters == {"cycles": 20}
    assert merged.children["core"].seconds == 0.375
    assert execute.unattributed == 0.25
    assert "(unattributed)" in execute.render()


def test_stage_seconds_partition_self_time():
    root = Span("analyze")
    root.seconds = 10.0
    execute = root.child("execute")
    execute.seconds = 6.0
    execute.child("parse").seconds = 2.0
    root.child("stats").seconds = 3.0
    assert stage_seconds(root) == {"simulate": 4.0, "parse": 2.0,
                                   "stats": 3.0, "extract": 0.0}
