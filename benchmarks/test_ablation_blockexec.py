"""Ablation: vectorized block execution vs precise per-instruction
sub-stepping (DESIGN.md decision #6).

The block engine only pays for itself if quiescent (all-masked,
aggregate-mode) runs get a large win while staying *architecturally
indistinguishable* -- same cycle clock, same sticky flags, same trace
bytes.  These benches measure both engines on identical workloads and
assert the indistinguishability along with the speedup, then drop the
numbers in ``BENCH_blockexec.json`` for the perf log.  Every time is
``conftest.timed_run``'s (``process_time`` around ``Kernel.run``, GC
quiesced), and each engine's time is the best of three runs taken in
rotating order, as the storm gate times its arms.
"""

from pathlib import Path

from repro.apps import APPLICATIONS
from repro.fpspy import fpspy_env
from repro.kernel.kernel import Kernel, KernelConfig

from benchmarks.conftest import BENCH_SEED, timed_run, write_results

#: Aggregate-mode speedup bar the engine must clear (measured ~8x).
MIN_SPEEDUP = 5.0
#: Larger than BENCH_SCALE so the interpreter loop, not process setup,
#: dominates what is being compared.
ABLATION_SCALE = 5.0
#: Runs of each engine; an engine's time is the best of them.
REPS = 3

RESULTS_JSON = Path(__file__).resolve().parent.parent / "BENCH_blockexec.json"


def _run(mode, blockexec, scale, **env_extra):
    """``blockexec`` off runs the ``"trapfast"`` rung, the one below the
    block engine's."""
    app = APPLICATIONS.create("miniaero", scale=scale, seed=BENCH_SEED)
    k = Kernel(KernelConfig(fastpaths="storm" if blockexec else "trapfast"))
    k.exec_process(
        app.main, env=fpspy_env(mode, **env_extra), name=app.name
    )
    _, elapsed = timed_run(k)
    state = {p: k.vfs.read(p) for p in k.vfs.listdir("")}
    return k, state, elapsed


def test_blockexec_speedup_aggregate_mode(benchmark):
    """Head-to-head on an all-masked (quiescent) Miniaero run."""

    def compare():
        runs, times = {}, {True: [], False: []}
        for rep in range(REPS):
            # The order alternates between repetitions.
            for blockexec in ((True, False) if rep % 2 == 0
                              else (False, True)):
                k, state, t = _run("aggregate", blockexec, ABLATION_SCALE)
                runs[blockexec] = (k, state)
                times[blockexec].append(t)
        return runs, min(times[True]), min(times[False])

    runs, fast, slow = benchmark.pedantic(compare, rounds=1, iterations=1)
    (kf, state_f), (ks, state_s) = runs[True], runs[False]
    # Indistinguishable: same cycle clock and byte-identical final state
    # (the .agg files carry the sticky-flag summaries).
    assert kf.cycles == ks.cycles
    assert state_f == state_s
    speedup = slow / fast
    write_results(
        RESULTS_JSON,
        {
            "workload": "miniaero",
            "mode": "aggregate",
            "scale": ABLATION_SCALE,
            "timing": (f"process_time, GC quiesced; best of {REPS} runs "
                       "per engine in rotating order"),
            "scalar_s": round(slow, 4),
            "blockexec_s": round(fast, 4),
            "speedup": round(speedup, 2),
            "cycles": kf.cycles,
        },
        gates={"speedup": {"min": MIN_SPEEDUP}},
    )
    assert speedup >= MIN_SPEEDUP, (
        f"block engine speedup {speedup:.2f}x below {MIN_SPEEDUP}x bar"
    )


def test_blockexec_individual_mode_traces_byte_identical(benchmark):
    """Individual mode (unmasked capture set) must produce byte-identical
    FPSpy trace files: the block engine is forced onto the precise replay
    path by the quiescence gate, so enabling it cannot perturb traces."""

    def compare():
        _, state_f, _ = _run("individual", True, 1.0)
        _, state_s, _ = _run("individual", False, 1.0)
        return state_f, state_s

    state_f, state_s = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert sorted(state_f) == sorted(state_s)
    assert state_f == state_s
    assert any(p.endswith(".ind") for p in state_f)
