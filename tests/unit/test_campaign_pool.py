"""Worker pool, execution planner, and artifact store tests.

The multiprocessing lifecycle tests force ``execution="pool"``: on a
small CI host the planner would (correctly) pick in-process mode, and
these tests exist precisely to exercise the real pool machinery --
spawn-once reuse, bounded shutdown, and crash retry at batch
granularity.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.campaign import (
    ArtifactStore,
    CampaignRunner,
    CampaignSpec,
    RunSpec,
    WorkerPool,
    plan_batches,
    plan_execution,
    run_campaign,
    smoke_campaign,
)
from repro.campaign.planner import MAX_BATCH, SPAWN_SECONDS
from repro.campaign.runner import MAX_ATTEMPTS

TINY = CampaignSpec(
    name="tiny",
    runs=(
        RunSpec(app="Miniaero", mode="aggregate", scale=0.1),
        RunSpec(app="Miniaero", mode="filtered", scale=0.1),
        RunSpec(app="WRF", mode="sampled", scale=0.1),
    ),
)


# -------------------------------------------------------------- planner

def test_plan_batches_partitions_contiguously():
    assert plan_batches(7, 3) == [(0, 1, 2), (3, 4, 5), (6,)]
    assert plan_batches(0, 4) == []
    assert plan_batches(2, 16) == [(0, 1)]
    for n, bs in [(1, 1), (9, 2), (27, 5)]:
        flat = [i for b in plan_batches(n, bs) for i in b]
        assert flat == list(range(n))


def test_plan_forced_modes_and_degenerate_campaigns():
    assert plan_execution(TINY, workers=4, mode="pool").mode == "pool"
    assert plan_execution(TINY, workers=4, mode="inprocess").mode == (
        "inprocess")
    with pytest.raises(ValueError, match="unknown execution mode"):
        plan_execution(TINY, mode="turbo")

    empty = CampaignSpec(name="empty", runs=())
    assert plan_execution(empty, workers=8, cpu_count=8).mode == "inprocess"
    assert plan_execution(TINY, workers=1, cpu_count=8).mode == "inprocess"


def test_plan_degrades_on_single_cpu_host():
    plan = plan_execution(TINY, workers=4, cpu_count=1)
    assert plan.mode == "inprocess"
    assert "1 cpu" in plan.reason


def test_plan_weighs_standing_cost_against_parallel_win():
    # Tiny campaign on a big host: the spawn tax swamps the win.
    small = plan_execution(TINY, workers=4, cpu_count=8)
    assert small.mode == "inprocess"
    assert "cannot amortize" in small.reason

    # A campaign whose divisible work clearly clears the spawn cost.
    big = CampaignSpec(
        name="big",
        runs=tuple(
            RunSpec(app="Miniaero", mode="aggregate", scale=4.0)
            for _ in range(64)),
    )
    plan = plan_execution(big, workers=4, cpu_count=8)
    assert plan.mode == "pool"
    assert plan.est_total_seconds > 4 * SPAWN_SECONDS

    # A warm pool has no standing cost left to amortize.
    warm = plan_execution(TINY, workers=4, cpu_count=8, pool_warm=True)
    assert warm.mode == "pool"


def test_plan_batch_size_scales_with_campaign_and_is_capped():
    big = CampaignSpec(
        name="big",
        runs=tuple(
            RunSpec(app="Miniaero", mode="aggregate", scale=4.0)
            for _ in range(600)),
    )
    plan = plan_execution(big, workers=2, cpu_count=8)
    assert plan.mode == "pool"
    assert plan.batch_size == MAX_BATCH
    forced = plan_execution(big, workers=2, cpu_count=8, batch_size=5)
    assert forced.batch_size == 5
    assert forced.batches == 120


# ------------------------------------------------------- pool lifecycle

def test_pool_reuse_across_campaigns_zero_reloads():
    """The tentpole contract: spawn once, serve many."""
    with WorkerPool(2) as pool:
        first = CampaignRunner(TINY, execution="pool", pool=pool).run()
        spawned_after_first = pool.stats["spawned_total"]
        second = CampaignRunner(TINY, execution="pool", pool=pool).run()

        # Zero new spawns for campaign two.
        assert pool.stats["spawned_total"] == spawned_after_first == 2
        assert pool.stats["campaigns_served"] == 2
        assert second.host["pool"]["reused"] is True
    assert first.report_text == second.report_text


def _child_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def test_owned_pool_closed_after_campaign():
    before = _child_pids()
    pooled = run_campaign(TINY, workers=2, execution="pool")
    assert pooled.host["pool"]["reused"] is False
    assert pooled.host["pool"]["spawned_total"] == 2
    # The runner closes the pool it owns: no worker outlives the call.
    assert _child_pids() <= before
    inproc = run_campaign(TINY, workers=1)
    assert pooled.report_text == inproc.report_text


def test_crash_mid_batch_retries_unfinished_on_fresh_member(tmp_path):
    """A poisoned run kills its worker mid-batch; the batch's unfinished
    runs are retried on a fresh pool member, and only the run that
    demonstrably crashed is charged attempts."""
    poisoned = CampaignSpec(
        name="poisoned",
        runs=(
            RunSpec(app="Miniaero", mode="aggregate", scale=0.1),
            RunSpec(app="NotAnApp"),  # poisons its worker
            RunSpec(app="WRF", mode="sampled", scale=0.1),
        ),
    )
    # One worker, one batch of three: the crash leaves run 2 unstarted.
    result = run_campaign(
        poisoned, workers=1, out_dir=tmp_path,
        execution="pool", batch_size=3)
    first, bad, last = result.outcomes
    assert first.status == "ok" and first.attempts == 1
    assert bad.status == "failed"
    assert bad.attempts == MAX_ATTEMPTS  # first try + one retry, then fail
    # The innocent never-started run is re-dispatched WITHOUT being
    # charged: it must complete with attempts == 1.
    assert last.status == "ok" and last.attempts == 1
    # Every crash spawned a fresh member: initial 1 + 2 replacements.
    assert result.host["pool"]["spawned_total"] == 3
    assert result.host["pool"]["crashed_total"] == 2
    pool_tel = result.host["telemetry"]["scopes"]["campaign.pool"]
    assert pool_tel["workers_crashed"] == 2
    assert pool_tel["batch_retries"] == 2


#: Upper bound for a pool shutdown with no busy worker: the quit
#: message plus interpreter teardown, far below close()'s own timeout.
CLOSE_BOUND_SECONDS = 4.0


def _assert_closed_promptly(pool: WorkerPool) -> None:
    t0 = time.monotonic()
    pool.close()
    assert time.monotonic() - t0 < CLOSE_BOUND_SECONDS
    assert not pool.started
    assert all(not w.proc.is_alive() for w in pool.all_workers())
    assert not _child_pids() & {w.proc.pid for w in pool.all_workers()}


def test_close_clean_pool_is_bounded_and_leaves_no_children():
    pool = WorkerPool(2).start()
    CampaignRunner(TINY, execution="pool", pool=pool).run()
    _assert_closed_promptly(pool)


def test_close_after_idle_worker_sigkilled():
    """A worker killed while idle never answers quit; close must not
    wait on it, and must still reap the survivor."""
    pool = WorkerPool(2).start()
    CampaignRunner(TINY, execution="pool", pool=pool).run()
    victim = pool.idle_workers()[0]
    os.kill(victim.proc.pid, signal.SIGKILL)
    victim.proc.join(timeout=10)
    assert not victim.proc.is_alive()
    _assert_closed_promptly(pool)


def test_borrowed_pool_drops_stale_campaign_messages(tmp_path):
    """Buffered messages keyed to a previous campaign (the silent-death
    duplicate race) must never land in the next campaign's accumulator
    -- and a stale crash index may not even exist in the new spec."""
    from repro.campaign.worker import RunOutcome

    with WorkerPool(2) as pool:
        first = CampaignRunner(TINY, execution="pool", pool=pool).run()
        w = pool.all_workers()[0]
        stale = RunOutcome(index=0, label="stale", status="ok")
        pool.result_q.put(("run", w.id, "stale-key", 99, stale))
        pool.result_q.put(("crash", w.id, "stale-key", 99, 999, "boom"))
        pool.result_q.put(("batch_done", w.id, "stale-key", 99))
        second = CampaignRunner(TINY, execution="pool", pool=pool).run()
    assert second.report_text == first.report_text
    assert all(o.status == "ok" for o in second.outcomes)


def test_pool_rejects_use_after_close():
    pool = WorkerPool(1).start()
    pool.close()
    assert not pool.started
    with pytest.raises(RuntimeError, match="closed"):
        pool.start()
    # close is idempotent
    pool.close()


def test_pool_mode_emits_dispatch_telemetry():
    result = run_campaign(TINY, workers=2, execution="pool", batch_size=1)
    tel = result.host["telemetry"]["scopes"]["campaign.pool"]
    assert tel["batches_dispatched"] == len(TINY.runs)
    assert tel["runs_dispatched"] == len(TINY.runs)


def test_inprocess_mode_emits_run_counter():
    result = run_campaign(TINY, workers=1)
    tel = result.host["telemetry"]["scopes"]["campaign.pool"]
    assert tel["inprocess_runs"] == len(TINY.runs)


def test_trace_artifacts_written_by_workers_not_queued(tmp_path):
    traced = CampaignSpec(
        name="traced",
        runs=(
            RunSpec(app="Miniaero", mode="aggregate", scale=0.1,
                    tracing=True),
        ),
    )
    result = run_campaign(
        traced, workers=1, out_dir=tmp_path, execution="pool")
    outcome = result.outcomes[0]
    assert outcome.status == "ok"
    name, size, digest = outcome.trace_artifact
    path = tmp_path / "traces" / name
    assert path.exists() and path.stat().st_size == size
    import hashlib

    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    # The digest triple rides the host section; report bytes must not
    # depend on whether an out_dir existed.
    bare = run_campaign(traced, workers=1)
    assert bare.report_text == result.report_text
    assert result.host["trace_artifacts"]["0"] == [name, size, digest]


# ------------------------------------------------------- artifact store

def test_artifact_store_put_get_dedup(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    d1 = store.put_bytes(b"alpha")
    d2 = store.put_bytes(b"alpha")
    d3 = store.put_bytes(b"beta")
    assert d1 == d2 != d3
    assert store.get(d1) == b"alpha"
    assert store.has(d3) and not store.has("0" * 64)
    assert store.stats["objects"] == 2
    assert store.stats["dedup_hits"] == 1
    assert store.stats["dedup_bytes"] == len(b"alpha")

    # Reopening recounts cumulative occupancy.
    again = ArtifactStore(tmp_path / "store")
    assert again.stats["objects"] == 2
    assert again.stats["bytes"] == len(b"alpha") + len(b"beta")


def test_artifact_store_rejects_traversal_digests(tmp_path):
    """Only lowercase sha256 hex ever reaches the filesystem: the
    daemon's /artifact endpoint feeds ``get`` untrusted strings."""
    store = ArtifactStore(tmp_path / "store")
    secret = tmp_path / "secret.txt"
    secret.write_text("keep out")
    for bad in ("/etc/passwd", str(secret), "../secret.txt", "..",
                "A" * 64, "0" * 63, "0" * 65,
                "0" * 62 + "/x", ""):
        assert not store.has(bad)
        with pytest.raises(FileNotFoundError):
            store.get(bad)


def test_artifact_store_put_file(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    src = tmp_path / "blob.bin"
    src.write_bytes(os.urandom(64))
    digest = store.put_file(src)
    assert store.get(digest) == src.read_bytes()
