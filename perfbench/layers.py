"""Which program functions the traced run wraps, and what each one counts.

Span names are ``<module>.<step>`` and name the repo's modules; a layer's
``<name>_s`` metric is the summed self time of its spans.
"""

from __future__ import annotations

from spans import Patcher, Recorder, spanning

#: Every span name, in report order (each becomes ``<name>_s``).
LAYER_SPANS = (
    "isa.assemble",
    "trace_cache.key",
    "trace_cache.load",
    "trace_cache.store",
    "checkpoint.key",
    "checkpoint.capture",
    "exec.simulate",
    "trace.merge",
    "stats.analyze",
    "taint.publicness",
    "localize.scan",
    "localize.attribute",
)

#: Counters that must repeat exactly for a seed and must not depend on
#: whether the run was traced.
EXACT_COUNTS = (
    "uarch.cycles", "uarch.committed", "checkpoint.ff_steps",
    "trace_cache.hits", "trace_cache.misses", "trace_cache.stores",
    "exec.tasks", "exec.divergences",
)


def _count_simulated(recorder: Recorder, outputs) -> None:
    """Cycles and commits of runs actually simulated (not replayed)."""
    for output in outputs:
        if output.from_cache or output.run is None:
            continue
        recorder.count("uarch.cycles", output.run.stats.cycles)
        recorder.count("uarch.committed", output.run.stats.committed)


def install(recorder: Recorder, patcher: Patcher) -> None:
    """Wrap each layer's public entry where its callers look it up."""
    from repro.sampler.exec_backend import _lane_groups

    def counting(name):
        return lambda args, kwargs, result: recorder.count(name)

    def on_load(args, kwargs, result):
        recorder.count("trace_cache.misses" if result is None
                       else "trace_cache.hits")

    def on_store(args, kwargs, result):
        if result:
            recorder.count("trace_cache.stores")

    def on_execute(args, kwargs, result):
        tasks = args[0]
        recorder.count("exec.tasks", len(tasks))
        recorder.count("exec.lane_groups", len(_lane_groups(tasks)))
        _count_simulated(recorder, result)

    def on_shards(args, kwargs, result):
        groups = args[0]
        recorder.count("exec.tasks", sum(len(group) for group in groups))
        recorder.count("exec.lane_groups", len(groups))
        for outputs, _seconds in result:
            _count_simulated(recorder, outputs)

    def on_finalize(args, kwargs, result):
        recorder.count("checkpoint.ff_steps", result.ff_steps_total)
        recorder.count("exec.divergences", len(result.divergences))

    def on_analyze(args, kwargs, result):
        recorder.count("stats.units", len(result.units))
        if result.taint is not None:
            recorder.count("taint.pruned_units", len(result.taint.pruned))

    patcher.wrap_method("repro.sampler.runner", "Workload.assemble",
                        spanning(recorder, "isa.assemble",
                                 counting("isa.assemble_calls")))
    patcher.wrap_function("repro.sampler.runner", "patch_program",
                          spanning(recorder, "isa.assemble",
                                   counting("isa.assemble_calls")))
    patcher.wrap_method("repro.sampler.trace_cache", "TraceCache.key_for",
                        spanning(recorder, "trace_cache.key",
                                 counting("trace_cache.keys")))
    patcher.wrap_method("repro.sampler.trace_cache", "TraceCache.load",
                        spanning(recorder, "trace_cache.load", on_load))
    patcher.wrap_method("repro.sampler.trace_cache", "TraceCache.store",
                        spanning(recorder, "trace_cache.store", on_store))
    patcher.wrap_function("repro.sampler.checkpoint", "checkpoint_key",
                          spanning(recorder, "checkpoint.key"))
    patcher.wrap_function("repro.sampler.batch", "attach_batch_checkpoints",
                          spanning(recorder, "checkpoint.capture"))
    patcher.wrap_function("repro.sampler.checkpoint", "load_or_capture",
                          spanning(recorder, "checkpoint.capture"))
    patcher.wrap_function("repro.sampler.runner", "execute_tasks",
                          spanning(recorder, "exec.simulate", on_execute))
    patcher.wrap_function("repro.sampler.sweep", "_execute_shards",
                          spanning(recorder, "exec.simulate", on_shards))
    patcher.wrap_function("repro.sampler.runner", "finalize_campaign",
                          spanning(recorder, "trace.merge", on_finalize))
    patcher.wrap_method("repro.sampler.pipeline",
                        "MicroSampler.analyze_campaign",
                        spanning(recorder, "stats.analyze", on_analyze))
    patcher.wrap_function("repro.taint", "compute_publicness",
                          spanning(recorder, "taint.publicness"))
    patcher.wrap_function("repro.localize.localize", "temporal_scan",
                          spanning(recorder, "localize.scan"))
    patcher.wrap_function("repro.localize.localize", "attribute_window",
                          spanning(recorder, "localize.attribute"))
