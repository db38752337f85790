"""Unit tests for merge_snapshots (campaign telemetry aggregation)."""

from repro.telemetry.bus import TelemetryBus
from repro.telemetry.snapshot import flatten_snapshot, merge_snapshots


def _bus(counters=(), labeled=(), gauges=(), cycles=0):
    """Build a real bus so tests exercise the actual typed-snapshot shape.

    ``labeled`` entries are counts named ``<name>.<label>``, the way the
    layers name their raw-keyed counts at snapshot time."""

    class _Clock:
        pass

    clock = _Clock()
    clock.cycles = cycles
    bus = TelemetryBus(kernel=clock)
    scope = bus.scope("cpu")
    counts = dict(counters)
    for name, label, n in labeled:
        counts[f"{name}.{label}"] = n
    scope.counts(lambda: counts)
    scope.gauges(lambda: dict(gauges))
    return bus


def test_counters_and_cycles_sum():
    a = _bus(counters=[("steps", 3)], cycles=100).snapshot_typed()
    b = _bus(counters=[("steps", 4), ("traps", 1)], cycles=50).snapshot_typed()
    merged = merge_snapshots([a, b])
    assert merged["cycles"] == 150
    assert merged["scopes"]["cpu"]["steps"] == 7
    assert merged["scopes"]["cpu"]["traps"] == 1


def test_labeled_counters_sum_per_label():
    a = _bus(labeled=[("sig", "SIGFPE", 2)]).snapshot_typed()
    b = _bus(
        labeled=[("sig", "SIGFPE", 3), ("sig", "SIGTRAP", 1)]
    ).snapshot_typed()
    merged = merge_snapshots([a, b])
    assert merged["scopes"]["cpu"]["sig.SIGFPE"] == 5
    assert merged["scopes"]["cpu"]["sig.SIGTRAP"] == 1


def test_gauges_are_last_writer_in_input_order():
    a = _bus(gauges=[("depth", 3)]).snapshot_typed()
    b = _bus(gauges=[("depth", 9)]).snapshot_typed()
    assert merge_snapshots([a, b])["scopes"]["cpu"]["depth"] == 9
    assert merge_snapshots([b, a])["scopes"]["cpu"]["depth"] == 3


def test_gauge_missing_from_later_snapshot_keeps_earlier_sample():
    a = _bus(gauges=[("depth", 3)]).snapshot_typed()
    b = _bus(counters=[("steps", 1)]).snapshot_typed()
    assert merge_snapshots([a, b])["scopes"]["cpu"]["depth"] == 3


def test_dict_valued_gauges_splice_like_plain_snapshots():
    a = _bus(gauges=[("memo.hits", 1), ("memo.misses", 2)]).snapshot_typed()
    merged = merge_snapshots([a])
    assert merged["scopes"]["cpu"]["memo.hits"] == 1
    assert merged["scopes"]["cpu"]["memo.misses"] == 2


def test_merge_of_single_snapshot_matches_plain_snapshot():
    bus = _bus(
        counters=[("steps", 5)],
        labeled=[("sig", "SIGFPE", 2)],
        gauges=[("depth", 7)],
        cycles=42,
    )
    assert merge_snapshots([bus.snapshot_typed()]) == bus.snapshot()


def test_merged_output_flattens_like_any_snapshot():
    a = _bus(counters=[("steps", 3)], cycles=10).snapshot_typed()
    b = _bus(counters=[("steps", 4)], cycles=20).snapshot_typed()
    flat = flatten_snapshot(merge_snapshots([a, b]))
    assert flat["cycles"] == 30
    assert flat["cpu.steps"] == 7


def test_empty_inputs():
    assert merge_snapshots([]) == {"cycles": 0, "scopes": {}}
    empty = _bus().snapshot_typed()
    assert merge_snapshots([empty]) == {"cycles": 0, "scopes": {"cpu": {}}}


def test_disjoint_scopes_union():
    a = _bus(counters=[("steps", 1)]).snapshot_typed()
    b = _bus(counters=[("flushes", 2)]).snapshot_typed()
    b["scopes"]["vfs"] = b["scopes"].pop("cpu")
    merged = merge_snapshots([a, b])
    assert sorted(merged["scopes"]) == ["cpu", "vfs"]
    assert merged["scopes"]["vfs"]["flushes"] == 2


# ----------------------------------------------- flight-recorder merge

def _traced_snapshot(n=12, sample=2, seed=0):
    """Typed snapshot from a real traced run (telemetry + tail sampler).

    Inexact divides make *boring* trap trees and the final
    divide-by-zero an *interesting* one, so with ``sample=2`` every
    retention bucket (kept-interesting / kept-sampled / discarded) is
    nonzero -- which is what makes the merge assertions meaningful.
    """
    from repro.fp.formats import float_to_bits64 as b64
    from repro.fpspy import fpspy_env
    from repro.guest.program import KernelBuilder
    from repro.kernel.kernel import Kernel, KernelConfig

    kb = KernelBuilder()
    site = kb.site("divsd")
    a = [b64(1.0)] * n
    b = [b64(3.0)] * (n - 1) + [b64(0.0)]

    def main():
        yield from kb.emit(site, a, b, interleave=2)

    k = Kernel(KernelConfig(
        tracing=True, telemetry=True, trace_sample=sample, trace_seed=seed))
    k.exec_process(main, env=fpspy_env("individual"), name="merge-probe")
    k.run()
    return k.telemetry.snapshot_typed(), k.tracer.stats()


def test_trace_counters_match_recorder_stats():
    """The bus copy of the retention tallies equals TraceRecorder.stats."""
    snap, stats = _traced_snapshot()
    flat = flatten_snapshot(merge_snapshots([snap]))
    assert flat["trace.trees.completed"] == stats["trees_completed"]
    assert flat["trace.trees.retained.interesting"] == \
        stats["trees_retained_interesting"]
    assert flat["trace.trees.retained.boring"] == \
        stats["trees_retained_boring"]
    assert flat["trace.trees.discarded"] == stats["trees_discarded"]
    assert flat["trace.spans"] == stats["spans"]
    assert flat.get("trace.ring.dropped", 0) == stats["spans_dropped"]
    # Something actually happened in each retention bucket.
    assert stats["trees_retained_interesting"] > 0
    assert stats["trees_discarded"] > 0


def test_trace_counters_sum_across_runs():
    """Per-run sampler/ring counters sum through merge_snapshots."""
    runs = [_traced_snapshot(seed=s)[0] for s in (0, 1, 2)]
    flat = flatten_snapshot(merge_snapshots(runs))
    singles = [flatten_snapshot(merge_snapshots([r])) for r in runs]
    for key in ("trace.spans", "trace.trees.completed",
                "trace.trees.retained.interesting",
                "trace.trees.retained.boring", "trace.trees.discarded"):
        assert flat[key] == sum(s[key] for s in singles), key


def test_trace_merge_is_worker_count_invariant():
    """Counter totals are invariant to how runs landed on workers.

    The coordinator reassembles outcomes in spec order, but nothing in
    the counter semantics may depend on that: any permutation (= any
    worker interleaving) must merge to identical counter totals, and
    repeated merges of the same inputs must be byte-deterministic.
    """
    runs = [_traced_snapshot(seed=s)[0] for s in (0, 1, 2, 3)]
    reference = merge_snapshots(runs)
    assert merge_snapshots(runs) == reference  # deterministic
    for perm in ((3, 2, 1, 0), (1, 3, 0, 2)):
        permuted = merge_snapshots([runs[i] for i in perm])
        # Gauges are last-writer-wins by design; counters must agree.
        ref_flat = flatten_snapshot(reference)
        per_flat = flatten_snapshot(permuted)
        for key in ref_flat:
            if key.startswith("trace.") and "ring.size" not in key \
                    and "trees.open" not in key \
                    and "ring.capacity" not in key:
                assert per_flat[key] == ref_flat[key], key


def test_identical_seeds_make_identical_trace_snapshots():
    """Same spec -> same typed snapshot: retention is replay-deterministic."""
    a, sa = _traced_snapshot(seed=5)
    b, sb = _traced_snapshot(seed=5)
    assert a["scopes"]["trace"] == b["scopes"]["trace"]
    assert sa == sb
