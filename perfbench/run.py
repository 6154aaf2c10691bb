"""End-to-end benchmark of the MicroSampler reproduction (see README.md).

    python3 perfbench/run.py --workload audit-cold --seed 3 --seconds 20 --trace 0

One process runs one workload, one op at a time (closed loop, ``jobs=1``,
numeric-library threads pinned to one).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and the metrics
-- the end-to-end ones with ``--trace 0``, the per-layer ones with
``--trace 1``.  A traced run does half the work twice, untraced and then
with every layer wrapped, so the two can be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("audit-cold", "audit-warm", "explore")

#: Set-up is measured this many times per run (this process, then fresh
#: processes that only set up) and reported as the median.  audit-warm's
#: set-up is a full cold audit (the cache fill), so it is measured once.
SETUP_REPS = {"audit-cold": 3, "audit-warm": 1, "explore": 2}
#: Calibration: a fixed pure-Python loop, sampled between ops whenever this
#: much op time has passed since the last sample.
CALIB_ITERS = 400_000
CALIB_EVERY_S = 1.0
#: Reference host speed: the calibration loop takes this long on it.  Times
#: are reported as seconds on the reference host (see ``OpRecord.scale``).
CALIB_REF_S = 0.05
#: Nominal seconds per unit of work (an audit pass, a warm replay pass, an
#: explore op) on the reference host.  Only used to turn ``--seconds`` into
#: a fixed amount of work, the same on every commit; they are constants, not
#: measurements (a 15-kernel pass measures about 11.7 s cold, 1.25 s warm).
NOMINAL_S = {"audit-cold": 12.8, "audit-warm": 1.43, "explore": 2.6}
MIN_TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "iters_per_s": "1/s",
}

#: The audit workloads' kernels (``workloads.AUDIT_KERNELS``), listed here
#: so the metric names are known without importing the program.
AUDIT_KERNEL_NAMES = (
    "sam-leaky", "sam-ct", "sam-ct-window", "me-v1-cv", "me-v1-mv",
    "me-v2-safe", "div-timing", "mp-modexp-ct", "mp-modexp-leaky",
    "ct-mem-cmp", "ee-mem-cmp", "sbox-lookup", "sbox-ct", "spectre-v1",
    "chacha20",
)
COUNTERS = (
    "isa.assemble_calls", "trace_cache.keys", "trace_cache.hits",
    "trace_cache.misses", "trace_cache.stores", "checkpoint.ff_steps",
    "exec.tasks", "exec.lane_groups", "uarch.cycles", "uarch.committed",
    "exec.divergences", "stats.units", "taint.pruned_units",
)


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    from layers import LAYER_SPANS

    units = {name: "s" for name in ("cli.import_s", "setup.first_op_s",
                                    "setup.fill_s", "workloads.build_s")}
    units.update({f"{span}_s": "s" for span in LAYER_SPANS})
    units.update({name: "count" for name in COUNTERS + ("sweep.legs",)})
    units.update({
        "trace_cache.hit_ratio": "ratio",
        "trace_cache.bytes": "bytes",
        "uarch.cycles_per_s": "1/s",
        "exec.fallback_ratio": "ratio",
        "localize.op_p50_s": "s",
        "sweep.op_p50_s": "s",
    })
    units.update({f"audit.{kernel}_s": "s" for kernel in AUDIT_KERNEL_NAMES})
    units.update({
        "host.calib_s": "s",
        "host.calib_q1_s": "s",
        "host.calib_q3_s": "s",
        "peak_rss_mb": "MB",
        "unattributed_s": "s",
        "trace.overhead_ratio": "ratio",
    })
    return units


def calibrate(iterations: int = CALIB_ITERS) -> float:
    """Seconds taken by a fixed stdlib-only loop: the host-speed witness."""
    started = time.perf_counter()
    acc = 0
    for index in range(iterations):
        acc = (acc * 31 + index) & 0xFFFFFFFF
    return time.perf_counter() - started


def tail(latencies) -> tuple | None:
    """``(value, percentile, ops_beyond)`` at the highest whole percentile
    that leaves at least ``MIN_TAIL_BEYOND`` ops ranked beyond it
    (nearest-rank).  ``None`` when there are too few ops for any."""
    ordered = sorted(latencies)
    count = len(ordered)
    best = None
    for percentile in range(1, 100):
        rank = -(-percentile * count // 100)   # ceil, 1-based
        if rank >= 1 and count - rank >= MIN_TAIL_BEYOND:
            best = (ordered[rank - 1], percentile, count - rank)
    return best


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


@dataclass
class OpRecord:
    label: str
    seconds: float
    cpu_seconds: float
    outcome: object
    error: str | None
    #: Index of the last calibration sample taken before this op.
    calib_index: int = 0
    #: Mean of the two calibration samples that bracket this op.
    calib_seconds: float = CALIB_REF_S

    @property
    def ok(self) -> bool:
        return self.error is None and self.outcome.ok

    @property
    def scale(self) -> float:
        """Host seconds -> reference-host seconds for this op."""
        return CALIB_REF_S / self.calib_seconds


def run_ops(workload, phase: str, recorder=None) -> tuple:
    """Run the workload's timed ops one at a time, calibrating between
    them; returns the op records and the calibration samples."""
    records = []
    calib = [calibrate()]
    since = 0.0
    for index, (label, call) in enumerate(workload.ops(phase)):
        error = outcome = None
        cpu_started = time.process_time()
        started = time.perf_counter()
        try:
            if recorder is None:
                outcome = call()
            else:
                recorder.op = index
                with recorder.span("op"):
                    outcome = call()
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
        cpu_seconds = time.process_time() - cpu_started
        if recorder is not None:
            # Traced, an op's latency is its span, so layer self times add
            # up to the traced wall exactly.
            op_span = next(span for span in reversed(recorder.spans)
                           if span.name == "op")
            seconds = op_span.end - op_span.start
        records.append(OpRecord(label, seconds, cpu_seconds, outcome, error,
                                calib_index=len(calib) - 1))
        since += seconds
        if since >= CALIB_EVERY_S:
            calib.append(calibrate())
            since = 0.0
    if since:
        calib.append(calibrate())
    for record in records:
        record.calib_seconds = (calib[record.calib_index]
                                + calib[record.calib_index + 1]) / 2
    return records, calib


def make_workload(args, workdir: Path):
    """The workload with its fixed amount of work.  A traced run does half
    of it twice, untraced then traced, so it lasts about as long."""
    from workloads import AuditCold, AuditWarm, Explore

    units = round(args.seconds / NOMINAL_S[args.workload])
    if args.workload == "explore":
        # An odd count of alternating kinds (the median is one op).  With
        # 13, op_tail_s is the third-fastest sweep, not the fastest one.
        n_ops = max(MIN_TAIL_BEYOND + 3, units | 1)
        return Explore(args.seed, workdir,
                       n_ops=(n_ops + 1) // 2 if args.trace else n_ops)
    # Two passes at least: with one, the kernels' latencies are single
    # samples and the median and tail jump between kernels from seed to seed.
    passes = max(2, units)
    passes = passes // 2 if args.trace else passes
    kind = AuditCold if args.workload == "audit-cold" else AuditWarm
    return kind(args.seed, workdir, passes=passes)


def setup(args, workdir: Path) -> tuple:
    """Fresh-process set-up: import, inputs, the untimed first op (and the
    cache fill).  Returns the workload and the per-part seconds."""
    parts = {}
    failures = []
    calib_before = calibrate()
    started = time.perf_counter()
    import repro.cli  # noqa: F401  (the import being timed)
    parts["cli.import_s"] = time.perf_counter() - started

    def timed(name, call):
        began = time.perf_counter()
        result = call()
        parts[f"{name}_s"] = time.perf_counter() - began
        for outcome in result if isinstance(result, list) else [result]:
            if not getattr(outcome, "ok", True):
                failures.append(name)
        return result

    workload = make_workload(args, workdir)
    workload.setup(timed)
    parts["setup_s"] = time.perf_counter() - started
    parts.setdefault("setup.fill_s", 0.0)
    # Like op times, set-up times are reference-host seconds.
    scale = CALIB_REF_S / ((calib_before + calibrate()) / 2)
    parts = {name: seconds * scale for name, seconds in parts.items()}
    parts["failures"] = len(failures)
    return workload, parts


def setup_in_children(args, count: int) -> list:
    """Repeat the set-up in ``count`` fresh processes, one after another."""
    results = []
    for _ in range(count):
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
            check=True)
        results.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    return results


def end_to_end(records, setup_parts) -> dict:
    """The end-to-end metrics; op times in reference-host seconds."""
    latencies = [record.seconds * record.scale for record in records]
    wall = sum(latencies)
    iterations = sum(record.outcome.iterations for record in records
                     if record.error is None)
    return {
        "setup_s": setup_parts["setup_s"],
        "wall_s": wall,
        "cpu_s": sum(record.cpu_seconds * record.scale
                     for record in records),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail(latencies)[0],
        "iters_per_s": iterations / wall,
    }


def scaled_median(records, label) -> float:
    values = [record.seconds * record.scale for record in records
              if record.label == label]
    return statistics.median(values) if values else 0.0


def per_layer(workload, setup_parts, untraced, traced, recorder,
              calib) -> dict:
    """The per-layer metrics of a traced run.  Span self times are raw
    host seconds of the traced half and must reconcile with its wall."""
    from layers import LAYER_SPANS
    from spans import self_time_by_name

    counters = recorder.counters
    selfs = self_time_by_name(recorder.spans)
    traced_wall = sum(record.seconds for record in traced)
    unattributed = selfs.get("op", 0.0)
    layer_total = sum(selfs.get(name, 0.0) for name in LAYER_SPANS)
    if abs(layer_total + unattributed - traced_wall) > 1e-9 * len(
            recorder.spans):
        raise RuntimeError(
            f"span self times ({layer_total:.6f} s) plus unattributed "
            f"({unattributed:.6f} s) do not reconcile with the traced wall "
            f"({traced_wall:.6f} s)")
    metrics = {name: setup_parts[name] for name in (
        "cli.import_s", "setup.first_op_s", "setup.fill_s",
        "workloads.build_s")}
    metrics.update({f"{name}_s": selfs.get(name, 0.0)
                    for name in LAYER_SPANS})
    metrics.update({name: counters.get(name, 0) for name in COUNTERS})
    lookups = counters["trace_cache.hits"] + counters["trace_cache.misses"]
    metrics["trace_cache.hit_ratio"] = (counters["trace_cache.hits"] / lookups
                                        if lookups else 0.0)
    metrics["trace_cache.bytes"] = workload.extra.get("trace_cache.bytes", 0)
    simulate = metrics["exec.simulate_s"]
    metrics["uarch.cycles_per_s"] = (counters["uarch.cycles"] / simulate
                                     if simulate else 0.0)
    groups = counters["exec.lane_groups"]
    metrics["exec.fallback_ratio"] = (counters["exec.divergences"] / groups
                                      if groups else 0.0)
    metrics["localize.op_p50_s"] = scaled_median(untraced, "localize")
    metrics["sweep.op_p50_s"] = scaled_median(untraced, "sweep")
    metrics["sweep.legs"] = sum(record.outcome.legs for record in traced
                                if record.error is None)
    for kernel in AUDIT_KERNEL_NAMES:
        metrics[f"audit.{kernel}_s"] = scaled_median(untraced, kernel)
    q1, q3 = quartiles(calib)
    metrics["host.calib_s"] = statistics.median(calib)
    metrics["host.calib_q1_s"] = q1
    metrics["host.calib_q3_s"] = q3
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    metrics["unattributed_s"] = unattributed
    metrics["trace.overhead_ratio"] = (
        sum(record.seconds * record.scale for record in traced)
        / sum(record.seconds * record.scale for record in untraced))
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def prepare_environment(workdir: Path) -> None:
    """One compute thread, every file the program writes inside workdir."""
    import tempfile

    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[variable] = "1"
    os.environ["MICROSAMPLER_CACHE_DIR"] = str(workdir / "default-cache")
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(workdir / "tmp")
    sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        prepare_environment(workdir)
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    workload, own_setup = setup(args, workdir)
    if args.setup_only:
        print(json.dumps(own_setup))
        return 0
    reps = [own_setup] + setup_in_children(
        args, SETUP_REPS[args.workload] - 1)
    setup_parts = {key: statistics.median(rep[key] for rep in reps)
                   for key in own_setup}
    setup_failures = sum(rep["failures"] for rep in reps)

    untraced, calib = run_ops(workload, "untraced")
    records = list(untraced)
    layer_metrics = None
    if args.trace:
        from layers import install
        from spans import Patcher, Recorder

        recorder = Recorder()
        with Patcher() as patcher:
            install(recorder, patcher)
            traced, traced_calib = run_ops(workload, "traced", recorder)
        records += traced
        calib += traced_calib
        recorder.write(HERE / ".work" / f"spans-{args.workload}.jsonl")
        layer_metrics = per_layer(workload, setup_parts, untraced, traced,
                                  recorder, calib)

    failed = sum(not record.ok for record in records)
    # Tracing must not change a single verdict.
    verdicts = [(record.outcome.verdict, record.outcome.iterations)
                if record.ok else None for record in records]
    same_verdicts = (not args.trace
                     or verdicts[:len(untraced)] == verdicts[len(untraced):])
    correct = failed == 0 and setup_failures == 0 and same_verdicts
    report(args, untraced, calib, reps, failed / len(records))
    for record in records:
        if not record.ok:
            print(f"# FAILED op {record.label}: "
                  f"{record.error or record.outcome.verdict}")
    if layer_metrics is None:
        values, units = end_to_end(untraced, setup_parts), END_TO_END
    else:
        values, units = layer_metrics, per_layer_units()
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def report(args, untraced, calib, reps, fail_ratio) -> None:
    """A comment line beside the metrics: failures, the tail rank, the
    host drift witness and the raw (unscaled) host times."""
    latencies = [record.seconds for record in untraced]
    ranked = tail(latencies)
    rank = (f"op_tail_s at p{ranked[1]} of {len(latencies)} ops "
            f"({ranked[2]} beyond)" if ranked else
            f"{len(latencies)} untraced ops, too few for op_tail_s")
    q1, q3 = quartiles(calib)
    print(f"# {args.workload} seed={args.seed}: op_fail_ratio="
          f"{fail_ratio:.4f}; {rank}; host.calib_s median "
          f"{statistics.median(calib):.5f} (q1 {q1:.5f}, q3 {q3:.5f}, "
          f"n={len(calib)}); raw host wall_s {sum(latencies):.3f} cpu_s "
          f"{sum(record.cpu_seconds for record in untraced):.3f} op_p50_s "
          f"{statistics.median(latencies):.4f}; setup_s reps "
          f"{[round(rep['setup_s'], 3) for rep in reps]}")


if __name__ == "__main__":
    sys.exit(main())
