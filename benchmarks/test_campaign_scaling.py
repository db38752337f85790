"""Campaign scaling: pool sweep, adaptive fallback, saturation.

Three honest measurements of ``repro.campaign`` (DESIGN.md decisions #9
and #17), published together to ``BENCH_campaign.json``:

* **Forced-pool worker sweep** -- the full figure-suite campaign (27
  runs) executed cold over the process pool at 1, 2, 4, and 8
  workers.  Byte-identical merged reports are asserted at every width;
  the >=2.5x speedup bar at 4 workers is asserted only when the host
  actually has >=4 CPUs.
* **Adaptive fallback** -- on hosts below 4 CPUs the gate flips: auto
  mode must run the mode :func:`plan_execution` picks for the host
  (in-process below 2 CPUs; on 2-3 CPUs the pool when its estimated
  parallel win clears the spawn cost) and must be at least
  ``MIN_FALLBACK_RATIO`` of the forced 1-worker pool path.  A 1-core
  container thus publishes an honest "fallback won" number instead of
  a vacuous speedup pass.  Whichever gate the host skipped is named in
  the artifact's ``unchecked`` list.
* **Saturation** -- sustained submission throughput (runs/sec) through a
  :class:`~repro.campaign.daemon.CampaignDaemon`: distinct jobs queued
  back-to-back, each planned and executed as ``campaign run`` would.
"""

import json
import os
import time
from pathlib import Path

from repro.campaign import (
    CampaignDaemon,
    figbench_campaign,
    plan_execution,
    run_campaign,
)

from benchmarks.conftest import BENCH_SEED, write_results

#: Worker widths swept; 8 exercises the workers > runs-in-flight regime.
WORKER_COUNTS = (1, 2, 4, 8)
#: Speedup bar at 4 workers -- asserted only on hosts with >= 4 CPUs.
MIN_SPEEDUP_4W = 2.5
#: On smaller hosts: auto (in-process fallback) vs forced 1-worker pool.
MIN_FALLBACK_RATIO = 0.95
#: Campaign scale: ~3s serial with a ~0.7s critical-path run, so the
#: sweep finishes quickly while leaving real parallelism to expose.
CAMPAIGN_SCALE = 0.3
#: Saturation burst: jobs queued back-to-back, one seed each.
SATURATION_JOBS = 6

RESULTS_JSON = Path(__file__).resolve().parent.parent / "BENCH_campaign.json"


def _merge_results(
    payload: dict,
    keep_prefix: str | None = None,
    gates: dict | None = None,
    unchecked: list[str] | None = None,
) -> None:
    """Read-modify-write so the two benchmarks share one artifact.

    ``keep_prefix`` drops every existing key outside that prefix, so a
    schema change in one benchmark cannot leave stale keys behind while
    still preserving the other benchmark's section.  Understands both
    the envelope (``{"metrics": ...}``) and the legacy flat layout, so
    the first post-migration run upgrades an old artifact in place.
    """
    existing: dict = {}
    existing_gates: dict = {}
    existing_unchecked: list = []
    if RESULTS_JSON.exists():
        try:
            d = json.loads(RESULTS_JSON.read_text())
        except ValueError:
            d = {}
        if isinstance(d.get("metrics"), dict):
            existing = d["metrics"]
            existing_gates = dict(d.get("gates") or {})
            existing_unchecked = list(d.get("unchecked") or [])
        elif isinstance(d, dict):
            existing = d
    if keep_prefix is not None:
        existing = {
            k: v for k, v in existing.items() if k.startswith(keep_prefix)}
        existing_gates = {
            k: v for k, v in existing_gates.items()
            if k.startswith(keep_prefix)}
        existing_unchecked = [
            k for k in existing_unchecked if k.startswith(keep_prefix)]
    existing.update(payload)
    existing_gates.update(gates or {})
    write_results(RESULTS_JSON, existing, gates=existing_gates,
                  unchecked=existing_unchecked + list(unchecked or []))


def test_campaign_scaling(benchmark):
    campaign = figbench_campaign(scale=CAMPAIGN_SCALE, seed=BENCH_SEED)

    def sweep():
        timings = {}
        reports = {}
        for w in WORKER_COUNTS:
            t0 = time.perf_counter()
            result = run_campaign(campaign, workers=w, execution="pool")
            timings[w] = time.perf_counter() - t0
            reports[w] = result.report_text
            assert not result.failed
        # Auto mode vs the forced 1-worker pool, timed as alternating
        # best-of-2: a shared CI host's load drifts on the scale of one
        # campaign, so adjacent pairs + min is the honest comparison
        # (the sweep's pool-1 time above is measured tens of seconds
        # away from the auto run and cannot anchor a ratio gate).
        auto = None
        auto_ss, pool1_ss = [], []
        for _ in range(2):
            t0 = time.perf_counter()
            result = run_campaign(campaign, workers=1, execution="pool")
            pool1_ss.append(time.perf_counter() - t0)
            assert not result.failed
            t0 = time.perf_counter()
            auto = run_campaign(campaign)
            auto_ss.append(time.perf_counter() - t0)
            assert not auto.failed
        auto_s, pool1_s = min(auto_ss), min(pool1_ss)
        return timings, reports, auto, auto_s, pool1_s

    timings, reports, auto, auto_s, pool1_s = benchmark.pedantic(
        sweep, rounds=1, iterations=1)

    # The determinism contract: one report, any worker count, any
    # execution mode.
    for w in WORKER_COUNTS[1:]:
        assert reports[w] == reports[1], f"report at {w} workers diverged"
    assert auto.report_text == reports[1]

    host_cpus = os.cpu_count() or 1
    wide_host = host_cpus >= 4
    speedup_4w = round(timings[1] / timings[4], 2)
    fallback_ratio = round(pool1_s / auto_s, 2)
    _merge_results(
        keep_prefix="saturation_",
        payload={
            "campaign": campaign.name,
            "runs": len(campaign.runs),
            "scale": CAMPAIGN_SCALE,
            "seed": BENCH_SEED,
            "host_cpus": host_cpus,
            "pool_workers_s": {
                str(w): round(t, 4) for w, t in timings.items()},
            "speedup_4w": speedup_4w,
            "auto_mode": auto.host["plan"]["mode"],
            "auto_s": round(auto_s, 4),
            "fallback_pool1_s": round(pool1_s, 4),
            "fallback_ratio": fallback_ratio,
        },
        gates=(
            {"speedup_4w": {"min": MIN_SPEEDUP_4W}} if wide_host
            else {"fallback_ratio": {"min": MIN_FALLBACK_RATIO}}),
        unchecked=["fallback_ratio"] if wide_host else ["speedup_4w"],
    )
    if wide_host:
        assert speedup_4w >= MIN_SPEEDUP_4W, (
            f"4-worker speedup {speedup_4w}x below {MIN_SPEEDUP_4W}x bar "
            f"on a {host_cpus}-cpu host"
        )
    else:
        # The planner's promise on small hosts: whichever mode it picks
        # -- always in-process below 2 CPUs -- must not lose to the
        # forced 1-worker pool.
        mode = auto.host["plan"]["mode"]
        assert mode == plan_execution(campaign).mode
        if host_cpus < 2:
            assert mode == "inprocess"
        assert fallback_ratio >= MIN_FALLBACK_RATIO, (
            f"in-process fallback ratio {fallback_ratio}x below "
            f"{MIN_FALLBACK_RATIO}x of the 1-worker pool path"
        )


def test_campaign_daemon_saturation(benchmark, tmp_path):
    """Sustained submission throughput through the campaign daemon."""
    base = figbench_campaign(scale=0.1, seed=BENCH_SEED)

    def saturate():
        daemon = CampaignDaemon(tmp_path / "daemon").start()
        try:
            t0 = time.perf_counter()
            tickets = [
                daemon.submit(base.with_overrides(seed=BENCH_SEED + i))
                for i in range(SATURATION_JOBS)
            ]
            deadline = time.monotonic() + 600
            while time.monotonic() < deadline:
                states = [daemon.status(t["job"])["state"] for t in tickets]
                if all(s == "done" for s in states):
                    break
                assert not any(s in ("error", "cancelled") for s in states)
                time.sleep(0.05)
            wall = time.perf_counter() - t0
            stats = daemon.stats()
        finally:
            daemon.shutdown()
        assert stats["counters"]["completed"] == SATURATION_JOBS
        return wall, stats

    wall, stats = benchmark.pedantic(saturate, rounds=1, iterations=1)

    runs_total = stats["runs_completed"]
    assert runs_total == SATURATION_JOBS * len(base.runs)
    sustained = round(runs_total / wall, 3)
    _merge_results(
        {
            "saturation_jobs": SATURATION_JOBS,
            "saturation_runs": runs_total,
            "saturation_wall_s": round(wall, 4),
            "saturation_runs_per_sec": sustained,
            "saturation_busy_runs_per_sec": stats["runs_per_sec"],
        },
    )
    # Correctness gate, not a wall-time gate: the burst must finish and
    # every job must report its full complement of runs.
    assert sustained > 0
