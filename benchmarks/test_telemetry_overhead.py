"""Telemetry overhead: what does observing the simulator cost?

Two numbers, measured honestly and reported in ``BENCH_telemetry.json``:

* **Disabled** (the tier-1 promise): with ``KernelConfig.telemetry``
  off, every instrumentation site degenerates to one prefetched-``None``
  test or one falsy-``NULL_BUS`` truthiness check.  A code-absent
  baseline cannot exist in one tree, so the bound is extrapolated from
  the measured per-guard cost times a generous overcount of guard
  executions, and must stay under 3% of the workload's wall time.
* **Enabled** (the honest cost): the same workload A/B with the bus on.
  This is informational -- counter bumps in the trap storm's handlers
  are real work, and the number here is what a user pays for live
  ``/proc/fpspy/`` introspection.

The zero-perturbation invariant (cycles/traces byte-identical either
way) is asserted here too, on the benchmark-sized workload.
"""

import time
import timeit
from pathlib import Path

from repro.apps import APPLICATIONS
from repro.fpspy import fpspy_env
from repro.kernel.kernel import Kernel, KernelConfig
from repro.telemetry import NULL_BUS
from repro.telemetry.procfs import PROC_ROOT

from benchmarks.conftest import BENCH_SEED, write_results

#: Guard executions assumed per CPU step -- a deliberate overcount (the
#: real hot paths run ~5: block gate, trap checks, delivery, site cache).
GUARDS_PER_STEP = 8
#: Tier-1 bar for the extrapolated disabled-mode overhead.
MAX_DISABLED_PCT = 3.0

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
    k = _kernel(telemetry)
    t0 = time.perf_counter()
    k.run()
    elapsed = time.perf_counter() - t0
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


def _per_guard_cost() -> float:
    """Marginal cost of the two disabled-mode guard patterns (the max).

    ``timeit``'s per-iteration loop overhead (~tens of ns) would dwarf
    the guard itself, so an empty-expression baseline is subtracted: the
    guard sits inside statements the simulator executes anyway, and only
    the test-and-branch is attributable to telemetry.
    """
    reps = 500_000
    base = timeit.timeit("x", globals={"x": None}, number=reps) / reps
    g_none = timeit.timeit(
        "x is not None", globals={"x": None}, number=reps) / reps
    g_bool = timeit.timeit(
        "1 if tel else 0", globals={"tel": NULL_BUS}, number=reps) / reps
    return max(g_none - base, g_bool - base, 1e-10)


def test_telemetry_overhead(benchmark):
    def compare():
        k_off, state_off, t_off = _run(False)
        k_on, state_on, t_on = _run(True)
        return k_off, state_off, t_off, k_on, state_on, t_on

    k_off, state_off, t_off, k_on, state_on, t_on = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )

    # Zero perturbation at benchmark scale.
    assert k_on.cycles == k_off.cycles
    assert state_on == state_off

    steps = _count_steps()
    per_guard = _per_guard_cost()
    disabled_pct = 100.0 * GUARDS_PER_STEP * steps * per_guard / t_off
    enabled_pct = 100.0 * (t_on - t_off) / t_off

    write_results(
        RESULTS_JSON,
        {
            "workload": "miniaero",
            "mode": "individual",
            "scale": ABLATION_SCALE,
            "disabled_s": round(t_off, 4),
            "enabled_s": round(t_on, 4),
            "enabled_overhead_pct": round(enabled_pct, 2),
            "disabled_guard_overhead_pct": round(disabled_pct, 4),
            "guard_cost_ns": round(per_guard * 1e9, 2),
            "steps": steps,
            "cycles": k_on.cycles,
        },
        gates={
            "disabled_guard_overhead_pct": {"max": MAX_DISABLED_PCT},
        },
    )
    # The tier-1 promise; the enabled-mode delta is reported, not gated.
    assert disabled_pct <= MAX_DISABLED_PCT, (
        f"extrapolated disabled-telemetry overhead {disabled_pct:.3f}% "
        f"exceeds {MAX_DISABLED_PCT}%"
    )
