"""Table VI: execution-time breakdown of the MicroSampler stages.

Paper result (ME-V1-CV, 4 x 1024-bit keys on MegaBoom): ~35 min simulating,
~51 min parsing/snapshotting, ~30 min statistics, ~13 min feature
extraction — 129 minutes total.  Our substrate is a Python model running a
scaled-down campaign, so absolute numbers differ; the benchmark reports the
same four-stage breakdown, with simulation + trace parsing dominating.
"""

import pytest

from repro.sampler import MicroSampler
from repro.uarch import MEGA_BOOM
from repro.util.profiling import stage_seconds
from repro.workloads.modexp import make_me_v1_cv

from _harness import emit

PAPER_MINUTES = {"simulate": 35, "parse": 51, "stats": 30, "extract": 13}


def test_table6_stage_breakdown(benchmark):
    sampler = MicroSampler(MEGA_BOOM)
    workload = make_me_v1_cv(n_keys=6, seed=3)
    report = benchmark.pedantic(sampler.analyze, args=(workload,),
                                rounds=1, iterations=1)
    # Each column sums the self time of the spans feeding it
    # (TABLE_VI_STAGES): prepare + execute, parse + finalize, stats, extract.
    t = stage_seconds(report.spans)
    total = sum(t.values())
    rows = [
        ("1- Execute program on the cycle-accurate simulator",
         t["simulate"], PAPER_MINUTES["simulate"]),
        ("2- Parse traces into microarchitectural iteration snapshots",
         t["parse"], PAPER_MINUTES["parse"]),
        ("3- Calculate Cramér's V for all tracked structures",
         t["stats"], PAPER_MINUTES["stats"]),
        ("4- Extract features responsible for high correlation",
         t["extract"], PAPER_MINUTES["extract"]),
    ]
    lines = [
        "Table VI — MicroSampler stage breakdown (ME-V1-CV on MegaBoom)",
        f"{'stage':<62} {'measured':>10} {'paper':>8}",
        "-" * 84,
    ]
    for label, seconds, paper_min in rows:
        lines.append(f"{label:<62} {seconds:>9.2f}s {paper_min:>6}min")
    lines.append("-" * 84)
    lines.append(f"{'Total analysis time':<62} "
                 f"{total:>9.2f}s {sum(PAPER_MINUTES.values()):>6}min")
    emit("table6_breakdown", "\n".join(lines))

    assert total > 0
    # Shape: simulation + trace processing dominate the analysis stages.
    assert (t["simulate"] + t["parse"]
            > t["stats"] + t["extract"])
