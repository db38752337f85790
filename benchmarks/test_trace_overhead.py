"""Flight-recorder overhead: the always-on tracing gate.

Two tier-1 promises, both gated here (``BENCH_traceoverhead.json``):

* **Disabled residue**: with ``KernelConfig.tracing`` off, every hook
  site degenerates to one prefetched-``None`` test (the ``self._tr`` /
  ``self._prov`` idiom).  The bound is extrapolated from the measured
  per-guard cost times a generous overcount of guard executions and
  gated at 3% of the workload's wall time.  The guard cost is measured
  next to every off/on pair, so it sees the host state that pair's
  workload saw, and each pair gives one figure against its own
  disabled run; the gate reads their median.

* **Enabled overhead**: with the packed ring + tail sampler on, the
  full observability stack (span trees, provenance, tail sampling)
  must cost at most 10% on the storm-heavy miniaero individual-mode
  workload.  The measurement is noise-hardened: CPU time (not wall),
  GC quiesced around the timed region (tracing allocates; collection
  pauses are real cost but must not be double-counted against a single
  unlucky run), alternating off/on pairs, and a running minimum per
  mode -- co-tenant noise only ever inflates, so the pairwise minimum
  converges on the true cost from above.  The loop exits early once the
  ratio is comfortably under the gate.

Also gated: the tail sampler may drop fewer than 1% of *interesting*
trees (NaN/Inf provenance, kills, bail-outs, disposition changes), and
the constructed nanchain program must attribute all 3 kill sites to
their true origins through the sampled recorder.  The run's Chrome
trace-event export and packed ``spans.bin`` are written next to the
results so CI can publish loadable artifacts.
"""

import timeit
from pathlib import Path
from statistics import median

from repro.apps import APPLICATIONS
from repro.fp.provenance import verify_attribution
from repro.fpspy import fpspy_env
from repro.kernel.kernel import Kernel, KernelConfig
from repro.telemetry.procfs import PROC_ROOT
from repro.telemetry.tracing import to_binary, to_chrome_json
from repro.validation.programs import provenance_program

from benchmarks.conftest import (
    BENCH_SEED, bench_artifact, timed_run, write_results,
)

#: Guard executions assumed per guest op -- a deliberate overcount (the
#: real hot paths run ~4: fault check, retire hook, provenance, trap).
GUARDS_PER_STEP = 8
#: Tier-1 bar for the extrapolated disabled-mode overhead.
MAX_DISABLED_PCT = 3.0
#: Tier-1 bar for the measured enabled-mode overhead.
MAX_ENABLED_PCT = 10.0
#: Tier-1 bar for tail-sampler losses of interesting trees.
MAX_INTERESTING_DROP_PCT = 1.0

#: Alternating off/on measurement pairs (after one untimed warmup
#: pair); the loop exits early once the running minimum ratio is
#: comfortably inside the gate.
MAX_PAIRS = 14
MIN_PAIRS = 3
EARLY_EXIT_PCT = MAX_ENABLED_PCT - 2.0

ABLATION_SCALE = 3.0

_ROOT = Path(__file__).resolve().parent.parent
RESULTS_JSON = _ROOT / "BENCH_traceoverhead.json"
SAMPLE_TRACE = bench_artifact("BENCH_traceoverhead.trace.json")
SPANS_BIN = bench_artifact("BENCH_traceoverhead.spans.bin")


def _run(tracing):
    """One full workload run; returns CPU seconds for ``run`` only
    (:func:`benchmarks.conftest.timed_run`: the enabled mode's
    allocations would otherwise trigger collection pauses at arbitrary
    points, which is noise for a *comparative* measurement)."""
    app = APPLICATIONS.create("miniaero", scale=ABLATION_SCALE, seed=BENCH_SEED)
    k = Kernel(KernelConfig(tracing=tracing))
    k.exec_process(app.main, env=fpspy_env("individual"), name=app.name)
    executed, elapsed = timed_run(k)
    state = {
        p: k.vfs.read(p)
        for p in k.vfs.listdir("")
        if not p.startswith(PROC_ROOT)
    }
    return k, state, elapsed, executed


def _per_guard_cost() -> float:
    """Marginal cost of the disabled-mode guard, with ``timeit``'s
    empty-expression loop overhead subtracted: the prefetched ``x is
    not None`` test (the ``self._tr``/``self._prov`` idiom every hook
    site executes; ``kernel.tracer`` is ``None`` when tracing is off).
    Best-of-5 -- the same noise-only-inflates argument as the workload
    pairs, at microbenchmark scale -- with GC quiesced (``timeit``
    disables it while timing).
    """
    reps = 200_000

    def best(stmt, glb):
        return min(
            timeit.timeit(stmt, globals=glb, number=reps) / reps
            for _ in range(5))

    base = best("x", {"x": None})
    g_none = best("x is not None", {"x": None})
    return max(g_none - base, 1e-10)


def _measure():
    """Warmup pair, then paired-difference measurement.

    The two runs of a pair are adjacent in time, so bursty co-tenant
    noise is common-mode within the pair and cancels in the delta
    ``t_on - t_off``; run order alternates so a burst decaying across
    the pair cannot systematically favor one mode.  Residual asymmetric
    noise only inflates a delta, so the minimum over pairs converges on
    the true marginal cost from above; the denominator is the best
    (quietest) baseline observed.  This is far lower-variance than the
    ratio of two independent per-mode minima, which needs *both* modes
    to catch a quiet window.

    The guard cost is taken right after each pair, and each pair's
    disabled figure divides it by that pair's own disabled run, so a
    host state that slows both cancels.  Returns the median guard cost
    and the median of the per-pair ``guard / t_off`` ratios.
    """
    _run(False)
    _run(True)
    min_off = min_on = best_delta = float("inf")
    pairs = 0
    guards, ratios = [], []
    k_off = state_off = k_on = state_on = steps = None
    for i in range(MAX_PAIRS):
        if i % 2 == 0:
            k_off, state_off, t_off, steps = _run(False)
            k_on, state_on, t_on, _ = _run(True)
        else:
            k_on, state_on, t_on, _ = _run(True)
            k_off, state_off, t_off, steps = _run(False)
        guards.append(_per_guard_cost())
        ratios.append(guards[-1] / t_off)
        min_off = min(min_off, t_off)
        min_on = min(min_on, t_on)
        best_delta = min(best_delta, t_on - t_off)
        pairs += 1
        if (
            pairs >= MIN_PAIRS
            and 100.0 * best_delta / min_off <= EARLY_EXIT_PCT
        ):
            break
    return (k_off, state_off, k_on, state_on, steps,
            min_off, min_on, max(best_delta, 0.0), pairs,
            median(guards), median(ratios))


def _nanchain_attribution() -> tuple[int, int]:
    """The constructed 3-chain provenance program, run through the
    *sampled* recorder: attribution must survive tail sampling."""
    launch, expected = provenance_program()
    k = Kernel(KernelConfig(tracing=True))
    launch(k, fpspy_env("individual"))
    k.run()
    return verify_attribution(k.provenance.coils(), expected)


def test_trace_overhead(benchmark):
    (k_off, state_off, k_on, state_on, steps,
     min_off, min_on, best_delta, pairs,
     per_guard, guard_per_s) = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )

    # Observation invisibility at benchmark scale.
    assert k_on.cycles == k_off.cycles
    assert state_on == state_off

    tr = k_on.tracer
    stats = tr.stats()
    assert tr.recorded > 0 and tr.trees_completed > 0
    assert stats["trees_retained_interesting"] > 0

    disabled_pct = 100.0 * GUARDS_PER_STEP * steps * guard_per_s
    enabled_pct = 100.0 * best_delta / min_off

    interesting = (
        stats["trees_retained_interesting"]
        + stats["interesting_trees_dropped"])
    idrop_pct = (
        100.0 * stats["interesting_trees_dropped"] / interesting
        if interesting else 0.0)

    attributed, total = _nanchain_attribution()

    SAMPLE_TRACE.write_text(to_chrome_json(tr.spans()))
    SPANS_BIN.write_bytes(to_binary(tr.spans()))
    write_results(
        RESULTS_JSON,
        {
            "workload": "miniaero",
            "mode": "individual",
            "scale": ABLATION_SCALE,
            "timing": ("process_time, GC quiesced; min paired delta "
                       "over alternating pairs / best baseline; guard "
                       "cost best-of-5 after each pair, disabled figure "
                       "the median over pairs of guard / pair's off run"),
            "pairs": pairs,
            "disabled_s": round(min_off, 4),
            "enabled_s": round(min_on, 4),
            "enabled_overhead_pct": round(enabled_pct, 2),
            "disabled_guard_overhead_pct": round(disabled_pct, 4),
            "guard_cost_ns": round(per_guard * 1e9, 2),
            "guest_ops": steps,
            "cycles": k_on.cycles,
            "spans": stats["spans"],
            "spans_committed": stats["spans_committed"],
            "spans_dropped": stats["spans_dropped"],
            "span_trees": stats["trees_completed"],
            "trees_retained_interesting": stats["trees_retained_interesting"],
            "trees_retained_boring": stats["trees_retained_boring"],
            "trees_discarded": stats["trees_discarded"],
            "interesting_trees_dropped": stats["interesting_trees_dropped"],
            "interesting_drop_pct": round(idrop_pct, 3),
            "nanchain_attributed": f"{attributed}/{total}",
            "sample_trace": SAMPLE_TRACE.name,
            "spans_bin": SPANS_BIN.name,
        },
        gates={
            "enabled_overhead_pct": {"max": MAX_ENABLED_PCT},
            "disabled_guard_overhead_pct": {"max": MAX_DISABLED_PCT},
            "interesting_drop_pct": {"max": MAX_INTERESTING_DROP_PCT},
        },
    )
    assert disabled_pct <= MAX_DISABLED_PCT, (
        f"extrapolated disabled-tracing overhead {disabled_pct:.3f}% "
        f"exceeds {MAX_DISABLED_PCT}%"
    )
    assert enabled_pct <= MAX_ENABLED_PCT, (
        f"enabled-tracing overhead {enabled_pct:.2f}% exceeds "
        f"{MAX_ENABLED_PCT}% (best delta {best_delta:.3f}s over "
        f"{pairs} pairs; baselines off {min_off:.3f}s, on {min_on:.3f}s)"
    )
    assert idrop_pct < MAX_INTERESTING_DROP_PCT, (
        f"tail sampler dropped {idrop_pct:.2f}% of interesting trees "
        f"({stats['interesting_trees_dropped']}/{interesting})"
    )
    assert (attributed, total) == (3, 3), (
        f"nanchain attribution {attributed}/{total} through the "
        f"sampled recorder"
    )
