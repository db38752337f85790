"""Unit tests for the telemetry bus, /proc tree, diffing, and overhead.

The bus's cardinal rule -- telemetry never perturbs architectural state
-- is proven property-style in ``tests/property/test_telemetry_props.py``;
here the instruments themselves, the snapshot/diff machinery, the
``/proc/fpspy/`` renderers, the TraceWriter lifecycle, and the
disabled-mode overhead bound are covered directly.
"""

import enum
import json
import timeit

import pytest

from repro.fp.formats import float_to_bits64 as b64
from repro.fpspy import fpspy_env
from repro.guest.ops import IntWork, LibcCall
from repro.guest.program import KernelBuilder
from repro.isa import semantics
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.vfs import VFS
from repro.telemetry import (
    NULL_BUS,
    Counter,
    LabeledCounter,
    Scope,
    TelemetryBus,
    diff_snapshots,
    flatten_snapshot,
)
from repro.telemetry.bus import EVENT_WINDOW, Histogram
from repro.telemetry.procfs import PROC_ROOT, render_counters, render_status
from repro.telemetry.profiler import SelfProfiler
from repro.telemetry.snapshot import derive_rates
from repro.trace.records import IndividualRecord
from repro.trace.writer import TraceWriter


# ------------------------------------------------------------ instruments


class TestInstruments:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(4)
        c.value += 1  # the hot-path idiom
        assert c.value == 6

    def test_labeled_counter_stringifies_enums_at_snapshot(self):
        class Color(enum.Enum):
            RED = 1

        lc = LabeledCounter()
        lc.inc(Color.RED)
        lc.inc(Color.RED, 2)
        lc.inc("plain")
        assert lc.get(Color.RED) == 3
        assert lc.as_dict() == {"RED": 3, "plain": 1}

    def test_histogram_buckets(self):
        h = Histogram((1.0, 10.0))
        for x in (0.5, 5.0, 50.0, 0.1):
            h.observe(x)
        d = h.as_dict()
        assert d["total"] == 4
        assert d["buckets"] == {"le_1": 2, "le_10": 1, "overflow": 1}

    def test_scope_snapshot_flattens_labels_and_dict_gauges(self):
        s = Scope("x")
        s.counter("a").inc(2)
        s.labeled("sig").inc("SIGFPE", 3)
        s.gauge("mem", lambda: {"hits": 1, "misses": 2})
        s.gauge("", lambda: {"spliced": 9})  # empty name splices keys
        snap = s.snapshot()
        assert snap["a"] == 2
        assert snap["sig.SIGFPE"] == 3
        assert snap["mem.hits"] == 1
        assert snap["spliced"] == 9

    def test_event_window_is_bounded(self):
        s = Scope("x")
        for i in range(EVENT_WINDOW + 50):
            s.event("tick", cycles=i)
        evs = s.events()
        assert len(evs) == EVENT_WINDOW
        assert evs[0][0] == 50  # oldest dropped first

    def test_bus_snapshot_shape(self):
        bus = TelemetryBus()
        bus.scope("cpu").counter("steps").inc(7)
        snap = bus.snapshot()
        assert snap["cycles"] == 0
        assert snap["scopes"]["cpu"]["steps"] == 7
        # JSON-ready as promised.
        json.dumps(snap)


class TestNullBus:
    def test_falsy_and_inert(self):
        assert not NULL_BUS
        assert NULL_BUS.profiler is None
        scope = NULL_BUS.scope("anything")
        scope.counter("x").inc(5)
        scope.labeled("y").inc("l")
        scope.event("e", cycles=1)
        assert scope.counter("x").value == 0
        assert scope.events() == []
        assert NULL_BUS.snapshot() == {"cycles": 0, "scopes": {}}

    def test_shared_singletons(self):
        # One object regardless of scope/name: no allocation when disabled.
        assert NULL_BUS.scope("a") is NULL_BUS.scope("b")
        assert NULL_BUS.scope("a").counter("x") is NULL_BUS.scope("b").gauge(
            "y", lambda: 0
        )


# --------------------------------------------------------- snapshot tools


def _snap(scopes):
    return {"cycles": 100, "scopes": scopes}


class TestSnapshotTools:
    def test_flatten_drops_non_numeric(self):
        flat = flatten_snapshot(
            _snap({"cpu": {"hits": 3, "name": "text", "ok": True,
                           "hist": {"total": 2}}})
        )
        assert flat == {"cycles": 100, "cpu.hits": 3, "cpu.hist.total": 2}

    def test_derive_rates(self):
        flat = {"cpu.site_cache.hits": 9, "cpu.site_cache.misses": 1}
        assert derive_rates(flat) == {"cpu.site_cache.hit_rate": 0.9}
        # Absent counters or zero totals yield no rate at all.
        assert derive_rates({}) == {}
        assert derive_rates({"cpu.site_cache.hits": 0,
                             "cpu.site_cache.misses": 0}) == {}

    def test_diff_ok_when_rates_hold(self):
        a = _snap({"cpu": {"site_cache.hits": 90, "site_cache.misses": 10}})
        b = _snap({"cpu": {"site_cache.hits": 88, "site_cache.misses": 12}})
        d = diff_snapshots(a, b)
        assert d.ok
        assert "ok" in d.render()

    def test_diff_flags_rate_regression(self):
        a = _snap({"cpu": {"site_cache.hits": 90, "site_cache.misses": 10}})
        b = _snap({"cpu": {"site_cache.hits": 50, "site_cache.misses": 50}})
        d = diff_snapshots(a, b, threshold=0.05)
        assert not d.ok
        assert "cpu.site_cache.hit_rate" in d.regressions
        assert "REGRESSION" in d.render()
        # A looser threshold accepts the same drop.
        assert diff_snapshots(a, b, threshold=0.5).ok

    def test_diff_tracks_changed_and_one_sided_keys(self):
        a = _snap({"cpu": {"x": 1, "gone": 5}})
        b = _snap({"cpu": {"x": 2, "new": 7}})
        d = diff_snapshots(a, b)
        assert d.changed["cpu.x"] == (1, 2)
        assert d.only_a == {"cpu.gone": 5}
        assert d.only_b == {"cpu.new": 7}


# ------------------------------------------------------------- /proc tree


def _storm_kernel(telemetry=True, profile=False, n=48):
    kb = KernelBuilder()
    a = [b64(1.1 + (i % 7) * 0.3) for i in range(n)]
    b = [b64(0.7 + (i % 5) * 0.21) for i in range(n)]
    site = kb.site("mulpd")

    def main():
        yield from kb.emit(site, a, b, interleave=2)

    k = Kernel(KernelConfig(telemetry=telemetry, profile=profile))
    k.exec_process(main, env=fpspy_env("individual"), name="storm")
    k.run()
    return k


class TestProcFs:
    def test_proc_files_mounted_and_listed(self):
        k = _storm_kernel()
        names = k.vfs.listdir(PROC_ROOT)
        assert PROC_ROOT + "status" in names
        assert PROC_ROOT + "counters" in names
        assert PROC_ROOT + "snapshot.json" in names
        assert PROC_ROOT + "events" in names

    def test_counters_file_matches_cli_snapshot(self):
        """The guest view and the CLI snapshot share one renderer, and
        the rendered counters agree with the flattened snapshot values."""
        k = _storm_kernel()
        text = k.vfs.read(PROC_ROOT + "counters").decode()
        assert text == render_counters(k.telemetry)
        flat = flatten_snapshot(k.telemetry.snapshot())
        for line in text.strip().splitlines():
            key, value = line.rsplit(" ", 1)
            assert float(value) == pytest.approx(float(flat[key]))

    def test_status_reports_rates(self):
        k = _storm_kernel()
        status = k.vfs.read(PROC_ROOT + "status").decode()
        assert status == render_status(k)
        assert f"cycles {k.cycles}" in status
        assert "cpu.site_cache.hit_rate" in status

    def test_snapshot_json_parses(self):
        k = _storm_kernel()
        snap = json.loads(k.vfs.read(PROC_ROOT + "snapshot.json"))
        assert snap["cycles"] == k.cycles
        assert "kernel" in snap["scopes"]

    def test_proc_absent_when_telemetry_disabled(self):
        k = _storm_kernel(telemetry=False)
        assert k.vfs.listdir(PROC_ROOT) == []
        assert k.telemetry is NULL_BUS

    def test_guest_reads_proc_through_libc(self):
        """A guest program introspects the monitor via the ordinary
        ``read`` call and sees live counter values."""
        kb = KernelBuilder()
        site = kb.site("mulpd")
        a = [b64(1.5)] * 16
        seen = {}

        def main():
            yield from kb.emit(site, a, a)
            seen["counters"] = yield LibcCall("read", (PROC_ROOT + "counters",))
            yield IntWork(1)

        k = Kernel(KernelConfig(telemetry=True))
        k.exec_process(main, env={}, name="introspect")
        k.run()
        text = seen["counters"].decode()
        flat = dict(
            line.rsplit(" ", 1) for line in text.strip().splitlines()
        )
        # Live values at read time: the block commits had already landed.
        assert float(flat["blockexec.fast_groups"]) > 0
        assert float(flat["kernel.sched.slices"]) >= 1


# ------------------------------------------------------ TraceWriter close


def _rec(seq=0):
    return IndividualRecord(
        seq=seq, time=0.0, rip=0x400000, rsp=0, mxcsr=0x1F80,
        sicode=6, codes=0x20, insn=b"\x0f",
    )


class TestTraceWriterClose:
    def test_close_drains_then_unhooks(self):
        vfs = VFS()
        w = TraceWriter(vfs, "trace/t.1.1.ind")
        w.append_individual(_rec())
        assert w.buffered_bytes > 0
        w.close()
        assert w.closed
        assert w.buffered_bytes == 0
        assert len(vfs.read("trace/t.1.1.ind")) == 64

    def test_double_close_is_idempotent(self):
        vfs = VFS()
        w = TraceWriter(vfs, "t")
        w.append_individual(_rec())
        w.close()
        appends = vfs.open("t").appends
        w.close()
        w.close()
        assert vfs.open("t").appends == appends

    def test_stale_close_does_not_clobber_new_writers_hook(self):
        """Close after the path was reopened: the newer writer keeps its
        sync hook, so readers still force its buffer out."""
        vfs = VFS()
        w1 = TraceWriter(vfs, "t")
        w2 = TraceWriter(vfs, "t")  # re-registers the path's sync hook
        w1.close()  # must NOT remove w2's registration
        w2.append_individual(_rec())  # stays buffered (< FLUSH_EVERY)
        data = vfs.read("t")  # read fires the sync hook
        assert len(data) == 64
        assert w2.sync_flushes == 1
        assert w1.sync_flushes == 0

    def test_sync_flush_counted_only_when_buffer_nonempty(self):
        vfs = VFS()
        w = TraceWriter(vfs, "t")
        vfs.read("t")  # nothing buffered: a no-op, not a forced drain
        assert w.sync_flushes == 0
        w.append_individual(_rec())
        vfs.read("t")
        assert w.sync_flushes == 1
        assert w.flushes == 1
        assert w.bytes_flushed == 64

    def test_telemetry_mirrors_flush_counters(self):
        vfs = VFS()
        bus = TelemetryBus()
        w = TraceWriter(vfs, "t", telemetry=bus)
        w.append_individual(_rec())
        w.flush()
        snap = bus.scope("trace").snapshot()
        assert snap["flushes"] == 1
        assert snap["bytes_flushed"] == 64

    def test_engine_closes_writers_on_teardown(self):
        k = _storm_kernel()
        proc = next(iter(k.processes.values()))
        engine = proc.loader.preloads[0].engine
        assert engine.monitors
        for mon in engine.monitors.values():
            assert mon.writer.closed


# ------------------------------------------------------------- memo stats


class TestMemoStats:
    def test_eviction_counting_and_occupancy(self):
        from repro.fp.memo import MemoSoftFPU
        from repro.fp.formats import BINARY64

        fpu = MemoSoftFPU(capacity=2)
        fpu.add(BINARY64, b64(1.0), b64(2.0))
        fpu.add(BINARY64, b64(1.0), b64(3.0))
        assert fpu.evictions == 0 and fpu.occupancy == 2
        fpu.add(BINARY64, b64(1.0), b64(4.0))  # third distinct key: evict
        assert fpu.evictions == 1
        assert fpu.occupancy == 2
        s = fpu.stats()
        assert s == {"hits": 0, "misses": 3, "evictions": 1,
                     "occupancy": 2, "capacity": 2}
        fpu.add(BINARY64, b64(1.0), b64(4.0))
        assert fpu.stats()["hits"] == 1

    def test_semantics_memo_stats_exposes_cache_fields(self):
        stats = semantics.memo_stats()
        for key in ("op_hits", "op_misses", "op_evictions",
                    "op_occupancy", "op_capacity", "forms_interned"):
            assert key in stats
        assert stats["op_capacity"] > 0
        assert 0 <= stats["op_occupancy"] <= stats["op_capacity"]


# ---------------------------------------------------------- self-profiler


class TestSelfProfiler:
    def test_trap_bin_excludes_nested_tracing(self):
        p = SelfProfiler()
        p.total_s = 1.0
        p.account_trap(0.5, tracing_within=0.2)
        p.account_tracing(0.2)
        assert p.trap_s == pytest.approx(0.3)
        assert p.tracing_s == pytest.approx(0.2)
        assert p.guest_s == pytest.approx(0.5)
        rep = p.report()
        assert rep["guest_s"] + rep["trap_s"] + rep["tracing_s"] + rep[
            "telemetry_s"] == pytest.approx(rep["total_s"])

    def test_profiled_run_attributes_wall_time(self):
        k = _storm_kernel(profile=True)
        prof = k.telemetry.profiler
        assert prof.steps > 0
        assert prof.total_s > 0
        # An individual-mode storm spends real time in trap delivery.
        assert prof.trap_s > 0
        table = prof.render_table()
        for row in ("guest", "trap", "tracing", "telemetry", "total"):
            assert row in table
        assert "profile" in k.telemetry.snapshot()


# ----------------------------------------------- disabled-overhead bound


class TestDisabledOverhead:
    def test_disabled_guard_overhead_below_3pct(self):
        """Tier-1 bound on the cost of telemetry *existing* but off.

        A code-absent baseline cannot exist in one tree, so the bound is
        computed by extrapolation: time the exact guard patterns the hot
        paths use (`x is not None` on a prefetched instrument, truthiness
        of the falsy NULL_BUS), multiply by a generous overcount of guard
        executions (8 per CPU step, measured via the self-profiler's
        step count on an identical enabled run), and divide by the
        disabled run's wall time.  The honest A/B numbers live in
        ``benchmarks/test_telemetry_overhead.py``.
        """
        import time

        kb = KernelBuilder()
        n = 4096
        a = [b64(1.0 + (i % 11) * 0.25) for i in range(n)]
        site = kb.site("mulpd")

        def make_main():
            def main():
                yield from kb.emit(site, a, a, interleave=2)
            return main

        # Disabled run: wall time of the thing we are bounding.
        k = Kernel(KernelConfig(telemetry=False))
        k.exec_process(make_main(), env={}, name="bench")
        t0 = time.perf_counter()
        k.run()
        wall = time.perf_counter() - t0
        assert k.telemetry is NULL_BUS

        # Identical enabled+profiled run: exact CPU.step count.
        kp = Kernel(KernelConfig(telemetry=True, profile=True))
        kp.exec_process(make_main(), env={}, name="bench")
        kp.run()
        assert kp.cycles == k.cycles  # zero perturbation, while we're here
        steps = kp.telemetry.profiler.steps

        # Marginal guard cost: subtract timeit's per-iteration loop
        # overhead (an empty expression), which would otherwise dwarf
        # the test-and-branch actually attributable to telemetry.
        reps = 200_000
        base = timeit.timeit("x", globals={"x": None}, number=reps) / reps
        guard_none = timeit.timeit(
            "x is not None", globals={"x": None}, number=reps) / reps
        guard_bool = timeit.timeit(
            "1 if tel else 0", globals={"tel": NULL_BUS}, number=reps) / reps
        per_guard = max(guard_none - base, guard_bool - base, 1e-10)

        overhead = 8 * steps * per_guard / wall
        assert overhead <= 0.03, (
            f"disabled-telemetry guard overhead {overhead:.4%} exceeds 3% "
            f"({steps} steps, {per_guard * 1e9:.1f} ns/guard, "
            f"{wall * 1e3:.1f} ms wall)"
        )
