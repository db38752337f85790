"""Telemetry overhead: what does observing the simulator cost?

Two numbers, measured honestly and reported in ``BENCH_telemetry.json``:

* **Disabled** (the tier-1 promise): every layer keeps its counts
  always on, as plain int and list-slot bumps, whether or not a bus
  reads them.  A count-free baseline cannot exist in one tree, so the
  bound is extrapolated from the measured per-bump cost times a
  generous overcount of bumps, and must stay under 3% of the workload's
  wall time with ``KernelConfig.telemetry`` off.
* **Enabled** (the honest cost): the same workload A/B with the bus on.
  This is informational -- the bus adds the trace writers' sources and
  the ``/proc/fpspy/`` mounts, and the number here is what a user pays
  for live introspection.  It is measured as ``test_trace_overhead.py``
  measures tracing: CPU time with GC quiesced, alternating off/on
  pairs, and the minimum paired delta over the best baseline, so one
  noisy pair cannot set the published number.

The zero-perturbation invariant (cycles/traces byte-identical either
way) is asserted here too, on the benchmark-sized workload.
"""

import timeit
from pathlib import Path

from repro.apps import APPLICATIONS
from repro.fpspy import fpspy_env
from repro.kernel.kernel import Kernel, KernelConfig
from repro.telemetry.procfs import PROC_ROOT

from benchmarks.conftest import BENCH_SEED, timed_run, write_results

#: Count bumps assumed per CPU step -- a deliberate overcount (a trap
#: storm step bumps ~4: event codes, signals, fusion).
BUMPS_PER_STEP = 8
#: Tier-1 bar for the extrapolated always-on count overhead.
MAX_DISABLED_PCT = 3.0

#: Alternating off/on measurement pairs, after one untimed warmup pair.
PAIRS = 7

ABLATION_SCALE = 3.0

RESULTS_JSON = Path(__file__).resolve().parent.parent / "BENCH_telemetry.json"


def _kernel(telemetry):
    app = APPLICATIONS.create("miniaero", scale=ABLATION_SCALE, seed=BENCH_SEED)
    k = Kernel(KernelConfig(telemetry=telemetry))
    k.exec_process(
        app.main, env=fpspy_env("individual"), name=app.name
    )
    return k


def _run(telemetry):
    """One workload run; returns CPU seconds for ``run`` only
    (:func:`benchmarks.conftest.timed_run`)."""
    k = _kernel(telemetry)
    _, elapsed = timed_run(k)
    state = {
        p: k.vfs.read(p)
        for p in k.vfs.listdir("")
        if not p.startswith(PROC_ROOT)
    }
    return k, state, elapsed


def _count_steps() -> int:
    """Exact ``CPU.step`` count of the workload, on an untimed run."""
    k = _kernel(False)
    step = k.cpu.step
    calls = 0

    def counted(task):
        nonlocal calls
        calls += 1
        return step(task)

    k.cpu.step = counted
    k.run()
    return calls


def _per_bump_cost() -> float:
    """Marginal cost of the hot paths' two count idioms (the max): an
    attribute bump and a raw-key list-slot bump.

    ``timeit``'s per-iteration loop overhead (~tens of ns) would dwarf
    a bump, so an empty-statement baseline is subtracted.
    """
    reps = 500_000
    setup = "class O:\n    n = 0\no = O()\nslots = [0] * 32"
    base = timeit.timeit("pass", number=reps) / reps
    return max(
        max(timeit.timeit(stmt, setup, number=reps) / reps - base
            for stmt in ("o.n += 1", "slots[8] += 1")),
        1e-10)


def _measure():
    """Warmup pair, then ``PAIRS`` alternating off/on pairs.

    Co-tenant noise is common-mode within a pair and only ever inflates
    a delta, so the minimum paired delta converges on the true marginal
    cost from above; the denominator is the best baseline.  Returns the
    last pair's kernels and states, the best baselines and that delta
    (floored at zero).
    """
    _run(False)
    _run(True)
    min_off = min_on = best_delta = float("inf")
    for i in range(PAIRS):
        if i % 2 == 0:
            k_off, state_off, t_off = _run(False)
            k_on, state_on, t_on = _run(True)
        else:
            k_on, state_on, t_on = _run(True)
            k_off, state_off, t_off = _run(False)
        min_off = min(min_off, t_off)
        min_on = min(min_on, t_on)
        best_delta = min(best_delta, t_on - t_off)
    return (k_off, state_off, k_on, state_on, min_off, min_on,
            max(best_delta, 0.0))


def test_telemetry_overhead(benchmark):
    # Untimed first: it also warms the process-global softfloat memo,
    # which would otherwise bill its cold start to whichever timed run
    # goes first.
    steps = _count_steps()

    k_off, state_off, k_on, state_on, t_off, t_on, delta = (
        benchmark.pedantic(_measure, rounds=1, iterations=1))

    # Zero perturbation at benchmark scale.
    assert k_on.cycles == k_off.cycles
    assert state_on == state_off

    per_bump = _per_bump_cost()
    disabled_pct = 100.0 * BUMPS_PER_STEP * steps * per_bump / t_off
    enabled_pct = 100.0 * delta / t_off

    write_results(
        RESULTS_JSON,
        {
            "workload": "miniaero",
            "mode": "individual",
            "scale": ABLATION_SCALE,
            "timing": ("process_time, GC quiesced; min paired delta "
                       "over alternating pairs / best baseline"),
            "pairs": PAIRS,
            "disabled_s": round(t_off, 4),
            "enabled_s": round(t_on, 4),
            "enabled_overhead_pct": round(enabled_pct, 2),
            "disabled_count_overhead_pct": round(disabled_pct, 4),
            "count_bump_ns": round(per_bump * 1e9, 2),
            "steps": steps,
            "cycles": k_on.cycles,
        },
        gates={
            "disabled_count_overhead_pct": {"max": MAX_DISABLED_PCT},
        },
    )
    # The tier-1 promise; the enabled-mode delta is reported, not gated.
    assert disabled_pct <= MAX_DISABLED_PCT, (
        f"extrapolated always-on count overhead {disabled_pct:.3f}% "
        f"exceeds {MAX_DISABLED_PCT}%"
    )
