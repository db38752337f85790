"""Campaign scaling: pool sweep and adaptive fallback.

Two honest measurements of ``repro.campaign`` (DESIGN.md decisions #9
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
"""

import os
import time
from pathlib import Path

from repro.campaign import figbench_campaign, plan_execution, run_campaign

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

RESULTS_JSON = Path(__file__).resolve().parent.parent / "BENCH_campaign.json"


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
    write_results(
        RESULTS_JSON,
        {
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
