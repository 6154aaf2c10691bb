"""Persistent worker pool: correctness, crash recovery, failure modes.

The pool is the campaign service's execution substrate, so these tests
lock in its two contracts: (1) pool output is bit-identical to in-process
serial execution, and (2) a worker dying mid-shard — injected here as a
real ``SIGKILL`` inside a real worker via the fault-token hook — is
recovered by replacing the worker and re-dispatching the shard, without
changing any result.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest

from repro.cli import build_workload
from repro.sampler import exec_backend
from repro.sampler.checkpoint import DEFAULT_WARMUP_INSTS
from repro.sampler.exec_backend import (
    FAULT_TOKEN_ENV,
    ShardExecutionError,
    WorkerCrashError,
    WorkerPool,
    execute_tasks,
)
from repro.sampler.runner import prepare_campaign, run_campaign
from repro.uarch import SMALL_BOOM

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker pool tests patch module state across fork")


def make_tasks(n_inputs: int = 2, name: str = "sam-ct"):
    workload = build_workload(name, inputs=n_inputs, seed=3)
    plan = prepare_campaign(workload, SMALL_BOOM, cache=None,
                            warmup_insts=DEFAULT_WARMUP_INSTS)
    return plan.tasks


def output_signature(outputs):
    """Content fingerprint of a RunOutput list (order-sensitive)."""
    return [
        (output.run_index,
         [(record.label,
           sorted((feature_id, feature.snapshot_hash)
                  for feature_id, feature in record.features.items()))
          for record in output.iterations])
        for output in outputs
    ]


def campaign_signature(campaign):
    return [
        (record.index, record.run_index, record.label,
         sorted((feature_id, feature.snapshot_hash)
                for feature_id, feature in record.features.items()))
        for record in campaign.iterations
    ]


def test_pool_output_matches_serial():
    tasks = make_tasks(3)
    serial = execute_tasks(tasks, jobs=1)
    with WorkerPool(2) as pool:
        pooled = execute_tasks(tasks, pool=pool)
        stats = pool.stats()
    assert output_signature(pooled) == output_signature(serial)
    assert stats["shards_completed"] == 3
    assert stats["tasks_completed"] == 3
    assert stats["workers_replaced"] == 0


def test_run_campaign_with_pool_is_bit_identical():
    workload = build_workload("sam-ct", inputs=2, seed=3)
    serial = run_campaign(workload, SMALL_BOOM, cache=None,
                          warmup_insts=DEFAULT_WARMUP_INSTS)
    with WorkerPool(2) as pool:
        pooled = run_campaign(workload, SMALL_BOOM, cache=None,
                              warmup_insts=DEFAULT_WARMUP_INSTS, pool=pool)
    assert campaign_signature(pooled) == campaign_signature(serial)


def test_shard_submission_preserves_task_order():
    tasks = make_tasks(4)
    with WorkerPool(3) as pool:
        future = pool.submit(tasks)
        outputs = future.result(timeout=120)
    assert [output.run_index for output in outputs] \
        == [task.run_index for task in tasks]


def test_fault_token_kills_one_worker_and_redispatches(tmp_path,
                                                       monkeypatch):
    token = tmp_path / "fault-token"
    token.write_text("boom")
    monkeypatch.setenv(FAULT_TOKEN_ENV, str(token))
    tasks = make_tasks(3)
    serial_signature = output_signature(execute_tasks(tasks, jobs=1))
    # Env is inherited at fork, so the pool must start after setenv.
    with WorkerPool(2) as pool:
        pooled = execute_tasks(tasks, pool=pool)
        stats = pool.stats()
    assert output_signature(pooled) == serial_signature
    assert not token.exists(), "the fault token should be consumed"
    assert stats["workers_replaced"] == 1
    assert stats["shards_redispatched"] >= 1
    assert stats["shards_completed"] == 3
    assert stats["workers"] == 2  # pool is back at full strength


def test_pool_survives_fault_and_keeps_working(tmp_path, monkeypatch):
    token = tmp_path / "fault-token"
    token.write_text("boom")
    monkeypatch.setenv(FAULT_TOKEN_ENV, str(token))
    tasks = make_tasks(2)
    with WorkerPool(2) as pool:
        first = execute_tasks(tasks, pool=pool)
        # Token consumed: a second round must run clean on the healed pool.
        second = execute_tasks(tasks, pool=pool)
        stats = pool.stats()
    assert output_signature(first) == output_signature(second)
    assert stats["workers_replaced"] == 1


def test_python_error_fails_shard_without_retry(monkeypatch):
    def _explode(task):
        raise ValueError(f"bad task {task.run_index}")

    monkeypatch.setattr(exec_backend, "execute_run", _explode)
    tasks = make_tasks(1)
    with WorkerPool(1) as pool:
        future = pool.submit(tasks)
        with pytest.raises(ShardExecutionError, match="bad task"):
            future.result(timeout=60)
        stats = pool.stats()
    assert stats["shards_failed"] == 1
    assert stats["shards_redispatched"] == 0
    assert stats["workers_replaced"] == 0  # the worker survived


def test_poison_shard_exhausts_redispatch_budget(monkeypatch):
    def _die(_task):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(exec_backend, "execute_run", _die)
    tasks = make_tasks(1)
    with WorkerPool(1, max_redispatch=1) as pool:
        future = pool.submit(tasks)
        with pytest.raises(WorkerCrashError, match="giving up"):
            future.result(timeout=60)
        stats = pool.stats()
    assert stats["workers_replaced"] == 2  # initial dispatch + one retry
    assert stats["shards_redispatched"] == 1
    assert stats["shards_failed"] == 1


def test_submit_after_close_raises():
    pool = WorkerPool(1)
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        pool.submit(make_tasks(1))


def test_close_fails_pending_futures(monkeypatch):
    def _die(_task):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(exec_backend, "execute_run", _die)
    # One worker, generous budget: the shard is mid-redispatch forever
    # until close(), which must fail it rather than leak a hung future.
    pool = WorkerPool(1, max_redispatch=10_000)
    future = pool.submit(make_tasks(1))
    pool.close()
    with pytest.raises(RuntimeError):
        future.result(timeout=10)


def test_execute_tasks_with_pool_and_no_tasks():
    with WorkerPool(1) as pool:
        assert execute_tasks([], pool=pool) == []


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="reads process states from /proc")
def test_workers_exit_when_the_pool_process_is_killed(subprocess_env):
    """SIGKILL of the pool's process must not orphan its workers: each
    worker sees EOF on its pipe once no process holds the pool's end."""
    import subprocess
    import sys
    import time

    script = ("import time\n"
              "from repro.sampler.exec_backend import WorkerPool\n"
              "pool = WorkerPool(2)\n"
              "print(*(h.process.pid for h in pool._handles.values()),\n"
              "      flush=True)\n"
              "time.sleep(120)\n")
    with subprocess.Popen([sys.executable, "-c", script],
                          env=subprocess_env, stdout=subprocess.PIPE,
                          text=True) as parent:
        try:
            workers = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(workers) == 2
            assert all(_running(pid) for pid in workers)
        finally:
            parent.kill()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and any(map(_running, workers)):
        time.sleep(0.1)
    survivors = [pid for pid in workers if _running(pid)]
    for pid in survivors:  # do not leak them past a failing test
        os.kill(pid, signal.SIGKILL)
    assert survivors == []
